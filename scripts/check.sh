#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
#
#   build (release) -> tests (all crates) -> bench targets build ->
#   benchmark build -> clippy (deny warnings)
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
    # Every wire frame round-trips (truncation/corruption is a typed error,
    # never a panic); loopback TCP == in-process serve() under all three
    # schedulers.
    "wire proptests|crates/net/tests/proptest_wire.rs"
    "net loopback differential|crates/net/tests/net_loopback.rs"
    # A mid-run bilinear rebuild is observationally invisible; detector and
    # surgery invariants hold over random topologies.
    "reorg differential|crates/serve/tests/reorg_differential.rs"
    "reorg proptests|crates/rete/tests/proptest_reorg.rs"
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
# too, and nothing above compiles them: build them here, not as a side
# effect of clippy, which is skipped where it is not installed.
run_step "bench targets build" cargo build --workspace --benches || fail=1

# The repo benchmark (benchmark/, a package outside the workspace) calls
# `pub` items of crates/*: build it, so a change that breaks the driver's
# command fails this gate instead of the pipeline.
run_step "benchmark build" cargo build --release --offline --manifest-path benchmark/Cargo.toml || fail=1

# The artifact gates below read JSON with python3. Without it they would
# pass having checked nothing, so its absence is a failure, said once.
have_python=1
if ! command -v python3 >/dev/null 2>&1; then
    echo "!! python3 not found: the committed-artifact gates cannot run" >&2
    have_python=0
    fail=1
fi
# Committed artifacts that must exist and parse (the gated ones below also
# check their numbers): the jump-table index's tests-per-wme reduction, the
# 8-worker >= 4x single-session throughput gate, and the indexed probe's
# entries-examined reduction.
parsed_artifacts=(alpha_discrimination serve_throughput memory_probe)
for bench in "${parsed_artifacts[@]}"; do
    artifact="crates/bench/BENCH_${bench}.json"
    if [ ! -f "$artifact" ]; then
        echo "!! missing ${artifact} (regenerate: cargo bench -p psme-bench --bench ${bench})" >&2
        fail=1
    elif [ "$have_python" -eq 1 ]; then
        if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$artifact"; then
            echo "!! ${artifact} is not valid JSON" >&2
            fail=1
        fi
    fi
done
# The trace-overhead artifact must exist, parse, and show always-on tracing
# within its bound — the committed evidence that the flight recorder is
# cheap enough to leave on.
trace_artifact="crates/bench/BENCH_trace_overhead.json"
if [ ! -f "$trace_artifact" ]; then
    echo "!! missing ${trace_artifact} (regenerate: PSME_BENCH_DIR=\$PWD/crates/bench cargo bench -p psme-bench --bench trace_overhead)" >&2
    fail=1
elif [ "$have_python" -eq 1 ]; then
    if ! python3 - "$trace_artifact" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
overhead = doc["overhead_pct"]
bound = doc["bound_pct"]
if overhead > bound:
    sys.exit(f"tracing overhead {overhead:.2f}% exceeds the committed bound {bound}%")
print(f"==> trace overhead: {overhead:.2f}% <= {bound}% — ok")
PY
    then
        echo "!! ${trace_artifact} invalid or over its overhead bound" >&2
        fail=1
    fi
fi
# The session-resume artifact must exist, parse, show a population at
# least 100x the live table, a passing tiered-vs-solo differential, and a
# resume p99 within its committed bound.
resume_artifact="crates/bench/BENCH_session_resume.json"
if [ ! -f "$resume_artifact" ]; then
    echo "!! missing ${resume_artifact} (regenerate: PSME_BENCH_DIR=\$PWD/crates/bench cargo bench -p psme-bench --bench session_resume)" >&2
    fail=1
elif [ "$have_python" -eq 1 ]; then
    if ! python3 - "$resume_artifact" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
ratio = doc["population"] / doc["table_capacity"]
if ratio < 100:
    sys.exit(f"population {doc['population']} is only {ratio:.0f}x the "
             f"{doc['table_capacity']}-seat table (need >= 100x)")
if not doc["differential_ok"]:
    sys.exit("tiered-vs-solo differential failed in the committed artifact")
p99, bound = doc["resume_p99_ns"], doc["bound_p99_ns"]
if p99 > bound:
    sys.exit(f"resume p99 {p99:.0f}ns exceeds the committed bound {bound:.0f}ns")
print(f"==> session resume: {ratio:.0f}x population, differential ok, "
      f"p99 {p99/1e6:.1f}ms <= {bound/1e6:.1f}ms — ok")
PY
    then
        echo "!! ${resume_artifact} invalid or over its bounds" >&2
        fail=1
    fi
fi
# The shard-scaling artifact must exist, parse, and show the modeled
# 4-shard configuration at least doubling single-shard throughput at equal
# workers per shard.
shard_artifact="crates/bench/BENCH_shard_scaling.json"
if [ ! -f "$shard_artifact" ]; then
    echo "!! missing ${shard_artifact} (regenerate: PSME_BENCH_DIR=\$PWD/crates/bench cargo bench -p psme-bench --bench shard_scaling)" >&2
    fail=1
elif [ "$have_python" -eq 1 ]; then
    if ! python3 - "$shard_artifact" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
gate = doc["model"]["gate"]
if gate["ratio"] < gate["required"]:
    sys.exit(f"4-shard/1-shard throughput ratio {gate['ratio']:.2f}x is below "
             f"the committed {gate['required']}x gate")
wide = [p for p in doc["model"]["sweep"] if p["logical_workers"] >= 64]
if not wide:
    sys.exit("sweep never reaches 64 logical workers")
one = gate["one_shard_8w_sessions_per_sec"]
if not all(p["sessions_per_sec"] > 2 * one for p in wide):
    sys.exit("64-logical-worker points do not scale past the single-bus knee")
print(f"==> shard scaling: {gate['ratio']:.2f}x at 4 shards, "
      f"{wide[0]['sessions_per_sec']:.2f}/s at 64 logical workers — ok")
PY
    then
        echo "!! ${shard_artifact} invalid or under its scaling gates" >&2
        fail=1
    fi
fi
# The open-loop artifact must exist, parse, and show the open-loop shape
# on its deterministic DES sweep: no shedding well below the calibrated
# knee, a shed-rate curve monotone non-decreasing past it (and strictly
# positive at the top of the sweep), and a knee p99 sojourn within the
# calibrated bound.
open_artifact="crates/bench/BENCH_open_loop.json"
if [ ! -f "$open_artifact" ]; then
    echo "!! missing ${open_artifact} (regenerate: PSME_BENCH_DIR=\$PWD/crates/bench cargo bench -p psme-bench --bench open_loop)" >&2
    fail=1
elif [ "$have_python" -eq 1 ]; then
    if ! python3 - "$open_artifact" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
des = doc["des"]
sweep = sorted(des["sweep"], key=lambda p: p["offered_multiple"])
if len(sweep) < 5:
    sys.exit(f"sweep has only {len(sweep)} points")
if sweep[0]["shed_rate"] != 0.0:
    sys.exit(f"shedding at {sweep[0]['offered_multiple']}x capacity "
             f"({sweep[0]['shed_rate']:.3f}) — below-knee load must all be served")
knee = des["gate"]["monotone_from_multiple"]
past = [p for p in sweep if p["offered_multiple"] >= knee]
rates = [p["shed_rate"] for p in past]
if rates != sorted(rates):
    sys.exit(f"shed rate is not monotone past the {knee}x knee: {rates}")
if rates[-1] <= 0.0:
    sys.exit("no shedding at the top of the sweep — the open loop never saturated")
p99, bound = des["gate"]["knee_p99_s"], des["gate"]["knee_p99_bound_s"]
if p99 > bound:
    sys.exit(f"knee p99 sojourn {p99:.3f}s exceeds the committed bound {bound:.3f}s")
for run in doc["host"]["runs"]:
    if run["completed"] + run["shed"] + run["refused"] != run["offered"]:
        sys.exit(f"host run at {run['offered_rate']}/s does not account for "
                 f"every offered session")
print(f"==> open loop: shed {rates[0]*100:.0f}%->{rates[-1]*100:.0f}% past the knee, "
      f"knee p99 {p99:.2f}s <= {bound:.2f}s, host runs balanced — ok")
PY
    then
        echo "!! ${open_artifact} invalid or off the open-loop shape" >&2
        fail=1
    fi
fi
# The adaptive-reorganization artifact must exist, parse, and show the
# headline result: on the adversarial chain sweep the adaptive engine's
# fitted growth exponent stays near-linear while the static linear network
# grows super-quadratically, the static/adaptive work ratio at the largest
# size clears its committed floor, and an armed-but-idle detector costs at
# most 3% mean CPU across the paper tasks.
reorg_artifact="crates/bench/BENCH_reorg_adaptive.json"
if [ ! -f "$reorg_artifact" ]; then
    echo "!! missing ${reorg_artifact} (regenerate: PSME_BENCH_DIR=\$PWD/crates/bench cargo bench -p psme-bench --bench reorg_adaptive)" >&2
    fail=1
elif [ "$have_python" -eq 1 ]; then
    if ! python3 - "$reorg_artifact" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
exp = doc["adversarial"]["growth_exponent"]
if exp["adaptive"] > 2.3:
    sys.exit(f"adaptive growth exponent {exp['adaptive']:.2f} exceeds the "
             f"committed 2.3 bound (linear arm fitted {exp['linear']:.2f})")
ratio = doc["adversarial"]["linear_over_adaptive_at_largest"]
if ratio < 5.0:
    sys.exit(f"linear/adaptive work ratio at the largest size is only "
             f"{ratio:.1f}x (need >= 5x)")
idle = doc["armed_idle"]["mean_overhead_pct"]
if idle > 3.0:
    sys.exit(f"armed-but-idle detector overhead {idle:.2f}% mean over the "
             f"paper tasks exceeds the committed 3% bound")
print(f"==> reorg adaptive: exponent {exp['adaptive']:.2f} (linear "
      f"{exp['linear']:.2f}), ratio {ratio:.1f}x, armed-idle {idle:.2f}% — ok")
PY
    then
        echo "!! ${reorg_artifact} invalid or off its adaptive gates" >&2
        fail=1
    fi
fi
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

if [ "$fail" -ne 0 ]; then
    echo "CHECK FAILED" >&2
    exit 1
fi
echo "CHECK OK"
