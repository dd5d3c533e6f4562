//! Operation and failure accounting.
//!
//! An operation is one offered serve request, one compile, or one
//! conformance validation. A failed operation is one whose result the
//! user does not get: an unserved request, a terminally rejected request
//! (unknown endpoint, invalid invocation, engine shutting down), a
//! duplicate, a request lost to a worker panic, or a compile or validate
//! error. A queue-full offer the generator retries is backpressure, not a
//! failure: it is counted apart, so the failure share does not move with
//! scheduler noise.

/// What one engine session did with the requests offered to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounts {
    /// Requests in the session's arrival schedule.
    pub offered: u64,
    /// Requests the engine served exactly once.
    pub served: u64,
    /// Requests rejected for good (never accepted by the queue).
    pub rejected_terminal: u64,
    /// Requests served more than once.
    pub duplicates: u64,
    /// Whether a worker panicked (every request it held is lost).
    pub worker_panicked: bool,
    /// Queue-full offers retried by the generator.
    pub refused_offers: u64,
}

/// Running totals for a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Requests offered but never served (including those lost to a
    /// panic or a terminal rejection).
    pub unserved: u64,
    /// Terminally rejected requests (a subset of `unserved`, kept for
    /// the report).
    pub rejected_terminal: u64,
    /// Duplicate servings.
    pub duplicates: u64,
    /// Worker panics.
    pub worker_panics: u64,
    /// Compile or validate operations that returned an error.
    pub stage_errors: u64,
    /// Retried queue-full offers: backpressure, not failure.
    pub refused_offers: u64,
}

impl Ops {
    /// Counts one compile or validate operation.
    pub fn stage<T, E>(&mut self, result: &Result<T, E>) {
        self.attempted += 1;
        if result.is_err() {
            self.stage_errors += 1;
        }
    }

    /// Counts one engine session.
    pub fn session(&mut self, s: &SessionCounts) {
        self.attempted += s.offered;
        self.unserved += s.offered.saturating_sub(s.served);
        self.rejected_terminal += s.rejected_terminal;
        self.duplicates += s.duplicates;
        self.worker_panics += u64::from(s.worker_panicked);
        self.refused_offers += s.refused_offers;
    }

    /// Failed operations. Terminal rejections are already inside
    /// `unserved`; refused offers are not failures.
    pub fn failed(&self) -> u64 {
        self.unserved + self.duplicates + self.worker_panics + self.stage_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_offers_are_not_failures() {
        let mut ops = Ops::default();
        ops.session(&SessionCounts {
            offered: 1000,
            served: 1000,
            refused_offers: 53_000,
            ..SessionCounts::default()
        });
        assert_eq!(ops.attempted, 1000);
        assert_eq!(ops.failed(), 0);
        assert_eq!(ops.refused_offers, 53_000);
    }

    #[test]
    fn unserved_rejected_duplicate_and_panics_fail() {
        let mut ops = Ops::default();
        ops.session(&SessionCounts {
            offered: 100,
            served: 90,
            rejected_terminal: 4,
            duplicates: 2,
            worker_panicked: true,
            refused_offers: 7,
        });
        // 10 unserved (4 of them rejected for good), 2 duplicates, 1 panic.
        assert_eq!(ops.failed(), 10 + 2 + 1);
        assert_eq!(ops.rejected_terminal, 4);
    }

    #[test]
    fn stage_errors_fail() {
        let mut ops = Ops::default();
        ops.stage(&Ok::<(), ()>(()));
        ops.stage(&Err::<(), _>("uncertifiable"));
        assert_eq!(ops.attempted, 2);
        assert_eq!(ops.failed(), 1);
    }
}
