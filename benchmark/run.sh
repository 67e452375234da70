#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                    [--quick] [--out FILE] [--trace-out FILE]
#       one run of one workload: prints every metric by name with its
#       unit; the last line of standard output is the result as one JSON
#       object (correct, attempted, failed, metrics). --trace 0 (default)
#       reports the end-to-end metrics with every tracer off, --trace 1 the
#       per-layer metrics from a traced twin run plus the replay drivers.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--traced] [--out FILE]
#       every workload in turn, one process each (so peak_rss_mib is per
#       workload), untraced; with --traced also the traced run of each,
#       whose spans go to <target dir>/spans/<workload>.trace.json.
#       Exits non-zero if any run reports a failed operation or check.
#
# Results of --out FILE are appended one JSON record per run;
# benchmark/compare.sh compares two such files.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"

# Hermetic build into its own target directory: the caller's
# CARGO_TARGET_DIR if set, else target/benchmark (git-ignored via /target).
# Warnings are errors in the benchmark's own code (`#![deny(warnings)]` in
# src/main.rs), not in the crates it measures: a warning there is for the
# repo's CI to refuse, not a reason for the instrument to stop working.
export CARGO_NET_OFFLINE=true
target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
cargo build --quiet --release --offline \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/ano-benchmark"

# Stamp for the output header and the --out records.
BENCH_GIT_SHA="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc -V 2>/dev/null || echo 'rustc unknown')"
export BENCH_GIT_SHA BENCH_RUSTC

workload=""
traced=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; pass+=("$1" "$2"); shift 2 ;;
        --traced) traced=1; shift ;;
        --quick) pass+=("$1"); shift ;;
        --*) pass+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unexpected argument $1" >&2; exit 2 ;;
    esac
done

if [ -n "$workload" ]; then
    exec "$bin" run "${pass[@]}"
fi

status=0
mkdir -p "$target/spans"
for w in $("$bin" list); do
    "$bin" run --workload "$w" --trace 0 "${pass[@]}" || status=1
    if [ "$traced" = 1 ]; then
        "$bin" run --workload "$w" --trace 1 \
            --trace-out "$target/spans/$w.trace.json" "${pass[@]}" || status=1
    fi
done
exit "$status"
