#!/usr/bin/env bash
# Records paired runs of two checkouts for `compare`.
#
#   perfbench/pairs.sh PARENT_ROOT CHANGE_ROOT OUT_DIR SECONDS "SEED..."
#
# For every workload and seed it runs both checkouts' benchmark with the
# same settings, alternating which side runs first, and keeps each run's
# standard output as OUT_DIR/{parent,change}/<workload>-<seed>.out. Each
# checkout builds into its own .bench_build; each run's standard error
# (per-session rates, check failures) goes to a matching .err file. Then:
#
#   cargo run --release --manifest-path perfbench/Cargo.toml --bin compare -- \
#       OUT_DIR/parent OUT_DIR/change
set -euo pipefail
if [ $# -ne 5 ]; then
  sed -n '2,13p' "$0" >&2
  exit 2
fi
mkdir -p "$3/parent" "$3/change"
parent=$(cd "$1" && pwd); change=$(cd "$2" && pwd); out=$(cd "$3" && pwd)
seconds=$4; seeds=$5

run_side() { # side root workload seed
  (cd "$2" && CARGO_TARGET_DIR="$2/.bench_build" cargo run --release --offline -q \
      --manifest-path perfbench/Cargo.toml --bin perfbench -- \
      --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 \
      > "$out/$1/$3-$4.out" 2> "$out/$1/$3-$4.err") \
    || echo "$1 $3 seed $4 exited non-zero" >&2
}

i=0
for w in compile-verify serve-bursty serve-interleaved; do
  for s in $seeds; do
    if [ $((i % 2)) -eq 0 ]; then
      run_side parent "$parent" "$w" "$s"; run_side change "$change" "$w" "$s"
    else
      run_side change "$change" "$w" "$s"; run_side parent "$parent" "$w" "$s"
    fi
    i=$((i + 1))
  done
done
