#!/usr/bin/env sh
# Tier-1 CI: hermetic build + test, with network access explicitly denied.
#
# The workspace has zero registry dependencies by design (see "Hermetic
# build" in README.md / DESIGN.md): every dependency is a path dependency
# inside this repository, so `CARGO_NET_OFFLINE=true` must never bite.
# This script is the enforcement point — it fails if either the offline
# build breaks or a registry dependency sneaks back into a manifest.
set -eu

cd "$(dirname "$0")/.."

# Tier-1 builds treat every warning as an error, for every stage below
# (one setting so cargo never recompiles with mismatched flags mid-run).
export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

# check_snapshot <committed file> <fresh output> <what it is>: the fresh
# output of a deterministic command must equal its committed snapshot, so a
# change shows up in review as a diff of that file. BLESS=1 regenerates the
# snapshot instead. Removes the fresh output either way.
check_snapshot() {
    if [ "${BLESS:-0}" = "1" ]; then
        cp "$2" "$1"
        echo "blessed: $1 regenerated"
    fi
    if ! diff -u "$1" "$2"; then
        rm -f "$2"
        echo "$3 drifted from $1" >&2
        echo "(intentional? BLESS=1 scripts/ci.sh and review the diff)" >&2
        exit 1
    fi
    rm -f "$2"
    echo "ok: $3 matches $1"
}

echo "== guard: no registry dependencies in any manifest =="
# A registry dependency is `name = "1"` or `name = { version = "1", ... }`
# without a `path = ...`. Allowed forms: `path = ...` deps and
# `name.workspace = true` / `workspace = true` members whose workspace
# entry is itself a path dep (checked via the root manifest below). The
# standalone benchmark package is scanned too: it builds offline in the
# bench pipeline, so a registry dependency there must fail here first.
bad=$(grep -rn --include=Cargo.toml -E \
    '^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*("[^"]*"|\{[^}]*version[^}]*\})' \
    Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml \
  | grep -vE 'path[[:space:]]*=' \
  | grep -vE '^[^:]*:[0-9]+:[[:space:]]*(name|version|edition|license|description|rust-version|repository|documentation|readme|harness|resolver|members|default|std|lto)\b' \
  || true)
if [ -n "$bad" ]; then
    echo "registry dependencies found (must be path-only):" >&2
    echo "$bad" >&2
    exit 1
fi
echo "ok: all dependencies are path-only"

echo "== static analysis: ano-lint (call-graph facts / determinism / resync spec) =="
# Structural enforcement of the trace-determinism and hot-path guarantees,
# run before anything else is built. Per-file rules forbid wall-clock
# reads, OS threads, hash-ordered collections, and {:p} in
# sim/trace-affecting crates; panics and slice indexing in the per-packet
# hot paths; println!/dbg! in library crates; and the §4.3 resync table in
# rx.rs is cross-checked against LEGAL_EDGES in invariant.rs. On top, the
# workspace call graph propagates may-panic / nondet-taint / may-allocate
# facts from every `// ano-lint: entry(hot-path)` root (transitive-panic,
# transitive-nondet, hot-alloc), flags never-referenced pub items
# (dead-export), and makes stale suppressions errors. Exceptions need an
# inline `// ano-lint: allow(<rule>): <justification>`. See DESIGN.md.
# The timeout is the analysis wall-clock budget: the whole pass runs in
# well under a second today (--timing prints per-pass numbers to stderr);
# if it ever needs minutes, the linter — not the budget — is broken.
CARGO_NET_OFFLINE=true timeout 120 cargo run -q -p ano-lint -- --timing

echo "== static analysis: hot-path allocation inventory vs ALLOC_baseline.txt =="
# The ranked inventory of allocation sites reachable from the hot-path
# entries is a committed snapshot: a new hot allocation (or a removed one)
# must show up in review as a diff of ALLOC_baseline.txt, not slip in
# silently behind an allow. Regenerate intentionally with
# BLESS=1 scripts/ci.sh (or the cargo command below) and review the diff.
alloc_tmp="${TMPDIR:-/tmp}/ano-alloc-report.$$"
CARGO_NET_OFFLINE=true timeout 120 cargo run -q -p ano-lint -- --alloc-report > "$alloc_tmp"
check_snapshot ALLOC_baseline.txt "$alloc_tmp" "hot-path allocation inventory"

echo "== tier-1: offline release build (warnings are errors) =="
CARGO_NET_OFFLINE=true cargo build --release

echo "== docs: rustdoc with warnings as errors (broken or private intra-doc links) =="
# Module and item docs name the types they describe; a rename that leaves a
# dangling [`link`] behind fails here (~3 s).
CARGO_NET_OFFLINE=true RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== tier-1: offline tests (warnings are errors) =="
CARGO_NET_OFFLINE=true cargo test -q --workspace

# The scenario crate's default tests — the registry-wide shape tests, the
# 16-entry link-adversity differential matrix, every family's smokes and all
# seven golden traces (BLESS=1 regenerates; see crates/scenario/tests/common)
# — already ran inside `--workspace` above. The tiers below add only what is
# #[ignore]d there: the scale runs, selected by name through the one
# registry (`ano_scenario::builtin`). Each timeout is a hard backstop
# against a wedged scheduler or install ladder, not a budget.

echo "== device-fault chaos matrix: degradation under install/mailbox/reset faults =="
# The 24 `chaos/*` entries: 8 device-fault patterns x {TLS, NVMe, NVMe-TLS},
# each offloaded-with-faults vs its fault-free software twin, asserting
# byte-identical streams plus the declared degradation (re-offload after
# transient faults, breaker-open with the right reason after persistent ones).
CARGO_NET_OFFLINE=true timeout 900 cargo test -q -p ano-scenario --test chaos -- --ignored

echo "== fleet: N×M topology, context-cache sensitivity, churn storm =="
# `fleet/scale`: 2048 flows over 8x2 hosts through 256-entry server caches
# (~90s). The default `fleet/*` tests (the §6.5 sensitivity curve against
# its committed data, the thrash-breaker pair, the churn storm) ran above.
CARGO_NET_OFFLINE=true timeout 900 cargo test -q -p ano-scenario --test fleet -- --ignored

echo "== netchaos: fleet partition/repair plans, holds, impairment sweeps =="
# The #[ignore]d netchaos runs: the full 14-entry `netchaos/*` matrix
# (partition/repair plans over fleet subsets x {TLS, NVMe} x fleet shapes,
# each vs its software twin on the same network) and the
# rack-partition-mid-churn scale run.
CARGO_NET_OFFLINE=true timeout 900 cargo test -q -p ano-scenario --test netchaos -- --ignored

echo "== rss: multi-queue steering, per-core stacks, flow rebalancing =="
# `rss/scale`: 512 flows over 16 queues vs the single-queue twin (the
# Toeplitz hash properties in ano-core's rss_prop ran with the workspace).
CARGO_NET_OFFLINE=true timeout 900 cargo test -q -p ano-scenario --test rss -- --ignored

echo "== trace determinism: same seed, same bytes, across processes =="
# The golden workflow only works if traces are process-independent. Run the
# determinism test in two separate processes and compare output hashes —
# this would catch any wall-clock, ASLR, or hash-ordering leak into traces
# that the in-process double-run test cannot see.
trace_hash() {
    CARGO_NET_OFFLINE=true ANO_TRACE_DUMP=1 cargo test -q -p ano-scenario \
        --test golden_trace identical_seeds_produce_identical_traces -- --nocapture \
      | sed -n '/^--TRACE-BEGIN--$/,/^--TRACE-END--$/p' | cksum
}
h1=$(trace_hash)
h2=$(trace_hash)
if [ "$h1" != "$h2" ]; then
    echo "trace determinism violated across processes: $h1 vs $h2" >&2
    exit 1
fi
echo "ok: identical trace hash across two processes ($h1)"

echo "== benchmark package: builds and passes against the changed crates =="
# benchmark/ is a standalone package outside the workspace, so nothing above
# compiles it: an API change in crates/* that breaks it must fail here, not
# in the bench pipeline. Its tests run the --quick smoke of every workload.
CARGO_NET_OFFLINE=true timeout 900 cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== figures: paper tables and figures vs committed quick-mode output =="
# Every experiment runner end to end (~25 s). The simulation is seeded and
# the figures print only simulated quantities, so stdout is byte-stable: a
# diff means a paper number moved. Intentional changes:
# BLESS=1 scripts/ci.sh, review and commit the diff. Simulator *speed* has
# no committed absolute: it is judged by running benchmark/run.sh on the
# parent and on the change and comparing them with benchmark/compare.sh.
fig_tmp="${TMPDIR:-/tmp}/ano-figures-quick.$$"
CARGO_NET_OFFLINE=true timeout 900 cargo run --release -q -p ano-bench --bin figures -- --quick > "$fig_tmp"
check_snapshot crates/bench/tests/expected/figures_quick.txt "$fig_tmp" "figures --quick output"

echo "tier-1 green (offline)"
