//! Output checks against the committed conformance results.
//!
//! The certificates compiled by the benchmark must reproduce the reports
//! committed in `BENCH_conform.json` (binary artifacts) and the
//! `routed_report` entries of `BENCH_route.json` over their pinned first
//! 100 trials.

use serde::Value;

/// Report fields compared against the committed reference.
pub const COMPARED_FIELDS: [&str; 5] = [
    "certified_rate",
    "successes",
    "unseen_lower_bound",
    "mean_invocation_rate",
    "verdict",
];

/// Parses a JSON document into the vendored `serde` value tree.
///
/// # Errors
///
/// The parser's message for malformed JSON.
pub fn parse_json(text: &str) -> Result<Value, String> {
    struct Tree(Value);
    impl serde::Deserialize for Tree {
        fn deserialize(value: &Value) -> Result<Self, serde::DeError> {
            Ok(Tree(value.clone()))
        }
    }
    serde_json::from_str::<Tree>(text)
        .map(|t| t.0)
        .map_err(|e| e.to_string())
}

fn field<'v>(value: &'v Value, name: &str) -> Option<&'v Value> {
    serde::get_field(value, name).ok()
}

/// A JSON number as `f64`; `None` for any other value.
pub fn as_f64(value: &Value) -> Option<f64> {
    match *value {
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

fn same(a: &Value, b: &Value) -> bool {
    match (as_f64(a), as_f64(b)) {
        (Some(x), Some(y)) => x == y,
        _ => a == b,
    }
}

/// The mismatching fields of `actual` against `expected`, one message
/// each; empty when every compared field is equal.
pub fn report_mismatches(label: &str, actual: &Value, expected: &Value) -> Vec<String> {
    COMPARED_FIELDS
        .iter()
        .filter_map(|name| match (field(actual, name), field(expected, name)) {
            (Some(a), Some(e)) if same(a, e) => None,
            (a, e) => Some(format!("{label}: {name} is {a:?}, reference {e:?}")),
        })
        .collect()
}

/// The binary report of `benchmark` in a `BENCH_conform.json` document.
pub fn conform_reference<'v>(doc: &'v Value, benchmark: &str) -> Option<&'v Value> {
    let Value::Array(entries) = field(doc, "benchmarks")? else {
        return None;
    };
    entries.iter().find_map(|entry| {
        let report = field(entry, "report")?;
        (field(report, "benchmark")? == &Value::Str(benchmark.to_string())).then_some(report)
    })
}

/// The routed report of `benchmark` in a `BENCH_route.json` document.
pub fn route_reference<'v>(doc: &'v Value, benchmark: &str) -> Option<&'v Value> {
    let Value::Array(entries) = field(doc, "benchmarks")? else {
        return None;
    };
    entries.iter().find_map(|entry| {
        (field(entry, "name")? == &Value::Str(benchmark.to_string()))
            .then(|| field(entry, "routed_report"))
            .flatten()
    })
}

/// The document-level settings a reference must have been produced
/// under for the comparison to be meaningful: quality target and trial
/// count.
pub fn reference_settings_mismatch(doc: &Value, quality: f64, trials: u64) -> Option<String> {
    let q = field(doc, "quality").and_then(as_f64);
    let n = field(doc, "trials").and_then(as_f64);
    (q != Some(quality) || n != Some(trials as f64)).then(|| {
        format!("reference was produced at quality {q:?} over {n:?} trials, not {quality} over {trials}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"quality":0.05,"trials":100,"benchmarks":[
        {"report":{"benchmark":"fft","certified_rate":0.9044154016107337,"trials":100,
         "successes":98,"unseen_lower_bound":0.93,"mean_invocation_rate":0.5,"verdict":"Holds"}},
        {"report":{"benchmark":"jpeg","certified_rate":0.91,"trials":100,
         "successes":100,"unseen_lower_bound":0.97,"mean_invocation_rate":0.25,"verdict":"Holds"}}]}"#;

    fn doc() -> Value {
        parse_json(DOC).unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let doc = doc();
        let fft = conform_reference(&doc, "fft").unwrap();
        assert!(report_mismatches("fft", fft, fft).is_empty());
        assert!(reference_settings_mismatch(&doc, 0.05, 100).is_none());
        assert!(reference_settings_mismatch(&doc, 0.025, 100).is_some());
    }

    #[test]
    fn a_perturbed_certified_rate_fails() {
        let doc = doc();
        let actual = conform_reference(&doc, "fft").unwrap().clone();
        let perturbed =
            parse_json(&DOC.replace("0.9044154016107337", "0.9045154016107337")).unwrap();
        let expected = conform_reference(&perturbed, "fft").unwrap();
        let mismatches = report_mismatches("fft", &actual, expected);
        assert_eq!(mismatches.len(), 1, "{mismatches:?}");
        assert!(mismatches[0].contains("certified_rate"));
    }

    #[test]
    fn a_changed_success_count_or_missing_field_fails() {
        let doc = doc();
        let actual = conform_reference(&doc, "jpeg").unwrap().clone();
        let changed = parse_json(&DOC.replace("\"successes\":100", "\"successes\":99")).unwrap();
        assert_eq!(
            report_mismatches(
                "jpeg",
                &actual,
                conform_reference(&changed, "jpeg").unwrap()
            )
            .len(),
            1
        );
        let missing = parse_json(r#"{"benchmark":"jpeg"}"#).unwrap();
        assert_eq!(report_mismatches("jpeg", &actual, &missing).len(), 5);
    }

    #[test]
    fn the_committed_reference_rejects_a_perturbed_copy() {
        let path = crate::settings::repo_root().join("BENCH_conform.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let actual = conform_reference(&doc, "jpeg").unwrap().clone();
        assert!(report_mismatches("jpeg", &actual, &actual).is_empty());
        let Value::Object(mut fields) = actual.clone() else {
            panic!("a report is an object")
        };
        for (name, value) in &mut fields {
            if name == "certified_rate" {
                *value = Value::Float(as_f64(value).unwrap() + 1e-6);
            }
        }
        let mismatches = report_mismatches("jpeg", &actual, &Value::Object(fields));
        assert_eq!(mismatches.len(), 1, "{mismatches:?}");
    }

    #[test]
    fn routed_reference_is_found_by_name() {
        let doc = parse_json(
            r#"{"benchmarks":[{"name":"inversek2j","routed_report":{"successes":97}}]}"#,
        )
        .unwrap();
        assert!(route_reference(&doc, "inversek2j").is_some());
        assert!(route_reference(&doc, "sobel").is_none());
    }
}
