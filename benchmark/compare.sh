#!/usr/bin/env bash
# benchmark/compare.sh A.jsonl B.jsonl [--exact]
#
# Compares two files of `run.sh --out` records: per workload and metric,
# the medians of both sides, the change toward worse, the run-to-run
# spread, and a verdict against the bounds in BENCHMARK.json — ok,
# unresolved (spread wider than the bound) or REGRESSION. Simulated
# metrics and in-situ counts are also compared bit for bit (exact /
# changed); --exact makes any such change a failure, which is what an A/A
# check of one commit wants. Exits non-zero on an out-of-bound regression
# or a higher failed-operation share.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
export CARGO_NET_OFFLINE=true
target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
cargo build --quiet --release --offline \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/ano-benchmark" compare "$@" --spec "$root/BENCHMARK.json"
