#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
#
#   build (release) -> tests (all crates) -> bench targets build ->
#   benchmark build -> benchmark tests -> committed artifacts regenerate and
#   compare -> clippy (deny warnings)
#
# Runs fully offline against the vendored stub crates. If cargo still tries
# to reach a registry (e.g. a stale lockfile on a fresh checkout), we retry
# that step online and only fail if that attempt fails too.
set -u
cd "$(dirname "$0")/.."

run_step() {
    local name="$1"; shift
    echo "==> ${name}: $*"
    if CARGO_NET_OFFLINE=true "$@"; then
        return 0
    fi
    # Distinguish "registry unreachable" from a real failure: retry online.
    echo "==> ${name}: offline attempt failed, retrying with network access" >&2
    if "$@"; then
        return 0
    fi
    echo "!! ${name} failed" >&2
    return 1
}

fail=0
run_step "build" cargo build --release || fail=1
run_step "test" cargo test -q --workspace || fail=1
# Each layer's differential / property gate must be among the test binaries
# the step above ran — a suite that was deleted, renamed, or dropped from its
# crate's targets fails here: "what it gates|test source".
required_suites=(
    # Cross-scheduler equality: the gate for scheduler changes; the parallel
    # engine against the serial one and the naive oracle, on cycles process
    # 0 runs alone and on cycles wide enough to call the helpers in.
    "scheduler differential|crates/core/tests/scheduler_differential.rs"
    "parallel differential|crates/core/tests/parallel_differential.rs"
    # Booked per-task sums merge across match processes, saturating; the
    # metrics log and its JSON export.
    "metrics properties|crates/core/tests/proptest_metrics.rs"
    # Scheduling laws of the Multimax simulator, whose cost model reads each
    # task record's work.
    "simulator properties|crates/sim/tests/proptest_sim.rs"
    # A whole learning run on the parallel engine == the serial one, under
    # every scheduler and oversubscribed.
    "work-stealing soak|crates/tasks/tests/ws_soak.rs"
    # Indexed alpha classifier == the linear oracle.
    "alpha differential|crates/rete/tests/proptest_alpha.rs"
    # Indexed hash-first beta probe == the reference whole-line scan over
    # random add/delete interleavings.
    "memory differential|crates/rete/tests/proptest_memory.rs"
    # N concurrent sessions over one shared topology == N solo runs,
    # bit for bit, including mid-run chunk learning.
    "serve isolation|crates/serve/tests/serve_isolation.rs"
    # A session's overlay over a frozen base == the monolithic network, node
    # for node, after chunk adds and after reorganizations (same nodes
    # retired, masked where the other unplugs).
    "session overlay|crates/rete/tests/session_overlay.rs"
    # Trace ring/merge/export invariants, and the serving loop's flight
    # recorder (seeded overload must dump its sheds).
    "trace properties|crates/obs/tests/proptest_trace.rs"
    "trace flight|crates/serve/tests/trace_flight.rs"
    # Snapshot->restore is bit-for-bit (corrupt bytes are typed errors,
    # never panics); hibernated/resumed sessions finish identical to
    # continuously-live and solo runs.
    "snapshot round-trip|crates/rete/tests/proptest_snapshot.rs"
    "serve hibernate|crates/serve/tests/serve_hibernate.rs"
    # A sharded run (cross-shard stealing, per-shard tier stores) == the
    # single-shard loop == solo runs.
    "serve shard differential|crates/serve/tests/serve_shard.rs"
    # What each id state answers the control protocol, open == batch, the
    # drain (a lost wake-up is a hang) and the credit fixes.
    "serve config|crates/serve/tests/serve_config.rs"
    # What an id costs before any submission, and what a retired session
    # leaves on the heap.
    "serve footprint|crates/serve/tests/serve_footprint.rs"
    # Every wire frame round-trips (truncation/corruption is a typed error,
    # never a panic); loopback TCP == in-process serve() under all three
    # schedulers.
    "wire proptests|crates/net/tests/proptest_wire.rs"
    "net loopback differential|crates/net/tests/net_loopback.rs"
    # The formats' bytes are pinned: fnv1a64 of a journal (PSNJ), an agent
    # shell and one wire frame (PSMN) of every variant, so a codec change
    # that moves a tag, a field, a prefix or a sort order fails here.
    "codec golden|crates/net/tests/codec_golden.rs"
    # A mid-run bilinear rebuild is observationally invisible; detector and
    # surgery invariants hold over random topologies.
    "reorg differential|crates/serve/tests/reorg_differential.rs"
    "reorg proptests|crates/rete/tests/proptest_reorg.rs"
    # Reachability GC == the earlier repeat-until-no-growth rule at every
    # decision of the paper tasks, and on hand-built states; what the agent
    # retains of removed wmes is what a chunk backtrace can reach.
    "gc differential|crates/soar/tests/gc_differential.rs"
    # What a running agent keeps on the heap per wme it adds: working
    # memory, not its history.
    "wm footprint|crates/soar/tests/wm_footprint.rs"
    # The captured task streams of the three paper tasks, column for column:
    # the gate for changes to the beta hot path that claim to keep the match
    # bit-identical.
    "task-stream digests|crates/tasks/tests/trace_digest.rs"
)
# One compiler-artifact line per built target; nothing is rebuilt. A test
# target is identified by its source file, which cargo reports as an
# absolute path whatever form the package id takes.
if built=$(CARGO_NET_OFFLINE=true cargo test -q --workspace --no-run --message-format=json); then
    for entry in "${required_suites[@]}"; do
        IFS='|' read -r name src <<<"$entry"
        if grep -F "\"src_path\":\"$PWD/${src}\"" <<<"$built" | grep -F '"kind":["test"]' \
            | grep -qF '"executable":"/'; then
            echo "==> ${name}: ${src} was built and run"
        else
            echo "!! ${name}: no test binary for ${src}" >&2
            fail=1
        fi
    done
else
    echo "!! test binaries did not build; required suites not checked" >&2
    fail=1
fi

# The bench targets (crates/bench/benches/*.rs) call `pub` items of crates/*
# too, and nothing above compiles them: build them here, once, in the
# profile the artifact step below runs them in.
run_step "bench targets build" cargo bench -p psme-bench --bench '*' --no-run || fail=1

# The repo benchmark (benchmark/, a package outside the workspace) calls
# `pub` items of crates/*: build it, so a change that breaks the driver's
# command fails this gate instead of the pipeline.
run_step "benchmark build" cargo build --release --offline --manifest-path benchmark/Cargo.toml || fail=1
# ... and run its own tests: they read `agent.recorder`, `MetricsLog` and
# `Counter::LineLockAcquisitions` from traced runs (about 45 s).
run_step "benchmark tests" cargo test --release --offline --manifest-path benchmark/Cargo.toml || fail=1

# A committed crates/bench/BENCH_<name>.json is written by the modeled bench
# target <name>, which reads no clock and asserts its own gates: regenerate
# each into a scratch directory and compare byte for byte. A failed assert
# fails the step like a differing byte does. A toolchain or libm change that
# moves a float is answered by a regenerate-only commit.
t0=$SECONDS
scratch=$(mktemp -d)
for artifact in crates/bench/BENCH_*.json; do
    file=${artifact##*/}
    bench=${file#BENCH_}; bench=${bench%.json}
    if ! PSME_BENCH_DIR="$scratch" CARGO_NET_OFFLINE=true \
        cargo bench -q -p psme-bench --bench "$bench" >"$scratch/$bench.log" 2>&1; then
        echo "!! artifact ${bench}: the bench failed:" >&2
        tail -n 5 "$scratch/$bench.log" >&2
        fail=1
    elif ! cmp -s "$artifact" "$scratch/$file"; then
        echo "!! artifact ${bench}: ${artifact} is not what the source writes; first differing lines:" >&2
        diff "$artifact" "$scratch/$file" | head -n 8 >&2
        echo "   regenerate: PSME_BENCH_DIR=\$PWD/crates/bench cargo bench -p psme-bench --bench ${bench}" >&2
        fail=1
    else
        echo "==> artifact ${bench}: regenerated byte-identical"
    fi
done
rm -rf "$scratch"
echo "==> artifacts: regenerated and compared in $((SECONDS - t0)) s"

if cargo clippy --version >/dev/null 2>&1; then
    run_step "clippy" cargo clippy -q --workspace --all-targets -- -D warnings || fail=1
else
    echo "==> clippy: not installed, skipping (install with: rustup component add clippy)" >&2
fi

# A proptest failure writes a regression seed under proptest-regressions/.
# Those files must be checked in (so the seed keeps replaying in CI) — an
# untracked one means a failure was reproduced locally and then ignored.
if command -v git >/dev/null 2>&1 && git rev-parse --git-dir >/dev/null 2>&1; then
    stray=$(git ls-files --others --exclude-standard -- '*proptest-regressions*')
    if [ -n "$stray" ]; then
        echo "!! untracked proptest regression files (check them in):" >&2
        echo "$stray" >&2
        fail=1
    fi
fi

# Code-only non-test lines (scripts/loc.sh): printed, not a gate.
echo "==> lines: $(./scripts/loc.sh | tail -n 1)"

if [ "$fail" -ne 0 ]; then
    echo "CHECK FAILED" >&2
    exit 1
fi
echo "CHECK OK"
