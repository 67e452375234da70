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

echo "== static analysis: cargo clippy (the workspace lint table) =="
# The lint policy is the root Cargo.toml's [workspace.lints] table, which
# every member inherits, plus clippy.toml: no wall-clock reads, OS threads
# or hash-ordered collections; no print!/println!/eprintln!/dbg!; no
# unsafe code; no #[allow]. The five per-packet hot-path files add their
# own #![deny] of unwrap/expect/panic!/todo!/unimplemented!/slice
# indexing. Exceptions are #[expect(<lint>, reason = "...")]; a stale one
# fails as unfulfilled_lint_expectations under -D warnings, and their
# per-lint count is pinned by crates/lint/tests/expected/allows.txt in
# the workspace tests (with the dead-export pass and a copy of this run).
# It lints src/ without test code and generates no code, so lint errors fail
# here first. Heap allocation per packet, hostile-input panics and
# cross-process nondeterminism are measured by the allocation gate, the
# hostile-input stage and the trace-determinism stage below. See DESIGN.md.
CARGO_NET_OFFLINE=true cargo clippy -q --workspace

echo "== tier-1: offline release build (warnings are errors) =="
CARGO_NET_OFFLINE=true cargo build --release

echo "== docs: rustdoc with warnings as errors (broken or private intra-doc links) =="
# Module and item docs name the types they describe; a rename that leaves a
# dangling [`link`] behind fails here (~3 s).
CARGO_NET_OFFLINE=true RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== tier-1: offline tests (warnings are errors) =="
CARGO_NET_OFFLINE=true cargo test -q --workspace

echo "== crypto kernels (release) =="
# The benchmark and `figures` run the AES/GHASH/CRC kernels with fat LTO and
# without overflow checks; their vectors and kernel-vs-oracle properties
# must hold under that codegen too, not only in the debug build above
# (a few seconds).
CARGO_NET_OFFLINE=true cargo test -q --release -p ano-crypto

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

echo "== hostile input: wire parsers under mutated, re-cut streams (debug) =="
# The #[ignore]d large-case tiers of the NVMe and TLS hostile-input
# properties (crates/{nvme,tls}/tests/hostile_input.rs): thousands of valid
# streams, mutated and cut at random, through the host parsers and the NIC
# receive engines. Debug profile on purpose: an arithmetic overflow on a
# hostile header panics only where overflow checks are on, and release
# builds would wrap silently. The timeout is a backstop (~30 s today).
CARGO_NET_OFFLINE=true timeout 600 cargo test -q -p ano-nvme -p ano-tls --test hostile_input -- --ignored

echo "== trace determinism: every registry entry, same seed, same bytes, across processes =="
# The golden workflow only works if traces are process-independent. Hash
# the canonical trace of both arms of every non-scale registry entry in two
# separate release processes and diff the two listings: any wall-clock,
# ASLR or hash-ordering leak into a schedule shows as a differing line,
# which the in-process double-run test cannot see.
trace_hashes() {
    CARGO_NET_OFFLINE=true timeout 900 cargo test -q --release -p ano-scenario \
        --test golden_trace registry_trace_hashes -- --ignored --nocapture > "$1.log"
    grep -E '^[^ ]+ (offload|software) [0-9a-f]{16} [0-9]+$' "$1.log" > "$1"
    rm -f "$1.log"
}
th1="${TMPDIR:-/tmp}/ano-trace-hashes.1.$$"
th2="${TMPDIR:-/tmp}/ano-trace-hashes.2.$$"
trace_hashes "$th1"
trace_hashes "$th2"
n=$(wc -l < "$th1")
if [ "$n" -eq 0 ] || ! diff -u "$th1" "$th2"; then
    rm -f "$th1" "$th2"
    echo "trace determinism violated across processes (or no hashes: $n lines)" >&2
    exit 1
fi
rm -f "$th1" "$th2"
echo "ok: $n scenario-arm trace hashes identical across two processes"

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
