#!/bin/sh
# Offline tier-1 gate: build, full test suite, and the release-mode
# gates below. No network access required — the workspace has no
# external dependencies.
set -eu

cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release

echo "== rustdoc: every intra-doc link resolves (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== test suite =="
cargo test -q

echo "== robustness at release sizes (a 4,000-term flat expression in every CLI mode, 64 stacked diamonds) =="
cargo test --release --test robustness

echo "== worker counts (--jobs 8) =="
cargo test --release --test parallel_special_cases
cargo run --release --bin ddm -- crates/benchmarks/programs/richards.cpp --jobs 8 > /dev/null

echo "== oracle: the product against the ddm-oracle reference analysis =="
cargo test --release -p ddm-oracle
cargo test --release --test engine_equivalence
cargo test --release --test walk_once
# Member lookup and the class-hierarchy queries against the references
# they replaced (all-pairs hiding, path enumeration, closure tables).
cargo test --release --test lookup_equivalence --test hierarchy_queries

echo "== telemetry: deterministic counters and provenance =="
cargo test --release --test telemetry_determinism
cargo test --release --test provenance_soundness
cargo test --release --test cli_smoke

echo "== flight recorder: det-class byte-identity + zero-alloc when off =="
cargo test --release --test flight_recorder
cargo test --release --test recorder_zero_alloc
# CLI surface: on a multi-TU project the deterministic event stream and
# the metrics document must be byte-identical across `--jobs`, the
# --stats-json document must hold the metrics document's entries (one
# store, two views), and every output must pass the in-tree JSON
# validator (bench_report --validate FILE...).
cargo run --release --bin ddm -- crates/benchmarks/programs/multi/*.cpp \
    --jobs 1 --log-out /tmp/ddm_ci_j1.ndjson --log-filter det \
    --metrics-out /tmp/ddm_ci_j1_metrics.json \
    --stats-json /tmp/ddm_ci_j1_stats.json > /dev/null
cargo run --release --bin ddm -- crates/benchmarks/programs/multi/*.cpp \
    --jobs 8 --log-out /tmp/ddm_ci_j8.ndjson --log-filter det \
    --metrics-out /tmp/ddm_ci_j8_metrics.json > /dev/null
cmp /tmp/ddm_ci_j1.ndjson /tmp/ddm_ci_j8.ndjson
cmp /tmp/ddm_ci_j1_metrics.json /tmp/ddm_ci_j8_metrics.json
python3 - /tmp/ddm_ci_j1_stats.json /tmp/ddm_ci_j1_metrics.json <<'PY'
import json, sys
stats, metrics = (json.load(open(path)) for path in sys.argv[1:])
assert stats["schema"] == "ddm-stats/3", stats["schema"]
assert metrics["schema"] == "ddm-metrics/2", metrics["schema"]
assert metrics["metrics"], "empty metrics document"
assert stats["metrics"] == metrics["metrics"], "--stats-json and --metrics-out disagree"
PY
cargo run --release -p ddm-bench --bin bench_report -- --validate \
    /tmp/ddm_ci_j1.ndjson /tmp/ddm_ci_j1_metrics.json /tmp/ddm_ci_j1_stats.json
rm -f /tmp/ddm_ci_j1.ndjson /tmp/ddm_ci_j8.ndjson /tmp/ddm_ci_j1_stats.json \
    /tmp/ddm_ci_j1_metrics.json /tmp/ddm_ci_j8_metrics.json

echo "== telemetry: chrome trace export (--jobs 8, one worker-lane span per TU) =="
# The per-TU front end is the only step that runs on worker lanes, so
# trace a 12-TU project: every TU must get exactly one `tu <file>` span,
# on a lane with tid 1-8. Workers take TUs from a shared counter, so
# which lanes end up busy is up to the scheduler and is not checked.
trace_src=/tmp/ddm_ci_trace_src
rm -rf "$trace_src"
mkdir -p "$trace_src"
protos=""
for i in $(seq 1 11); do
    printf 'class T%d { public: int a; int b; };\nint t%d() { T%d o; o.b = 1; return o.a; }\n' \
        "$i" "$i" "$i" > "$trace_src/tu$(printf '%02d' "$i").cpp"
    protos="$protos int t$i();"
done
printf '%s\nint main() { return t1() + t11(); }\n' "$protos" > "$trace_src/main.cpp"
cargo run --release --bin ddm -- "$trace_src"/*.cpp \
    --jobs 8 --trace-out /tmp/ddm_ci_trace.json > /dev/null
python3 - /tmp/ddm_ci_trace.json "$trace_src"/*.cpp <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
spans = [(e["name"], e["tid"]) for e in events
         if e.get("ph") == "X" and e["name"].startswith("tu ")
         and not e["name"].startswith("tu front end")]
files = sys.argv[2:]
assert len(spans) == len(files), f"want one tu span per TU, got {spans}"
for f in files:
    lanes = [tid for name, tid in spans if name == "tu " + f]
    assert len(lanes) == 1 and 1 <= lanes[0] <= 8, f"{f}: lanes {lanes}"
PY
rm -rf "$trace_src" /tmp/ddm_ci_trace.json

echo "== telemetry: --explain witness chains =="
# A known-live member: the chain must reach the livening access from main.
cargo run --release --bin ddm -- crates/benchmarks/programs/deltablue.cpp \
    --explain Variable::value | grep -q 'call chain: main'
# A known-dead member: the verdict must be explicit.
cargo run --release --bin ddm -- crates/benchmarks/programs/idl.cpp \
    --explain Emitter::last_line | grep -q 'Emitter::last_line: DEAD'

echo "== delta worklist: equivalence with the pre-change sweep =="
cargo test --release --test worklist_equivalence

echo "== delta worklist: counter determinism across fresh and replayed solves =="
# Full-counter bit-equality (includes cg_worklist_pops / cg_ready_drains)
# is part of telemetry_determinism above; this pins the worklist-specific
# invariants (pops > 0, per-round delta sizes identical whether the
# fixpoint is solved or replayed from the snapshot, at jobs 1 and 8).
cargo test --release --test worklist_equivalence worklist_telemetry_is_identical_across_engines_and_jobs

echo "== project cache: equivalence and invalidation =="
cargo test --release --test project_cache

echo "== incremental retraction: removed edits flip members dead =="
cargo test --release --test incremental_retraction

echo "== project cache: cold-vs-warm CLI smoke (byte-identical, zero warm work) =="
rm -rf /tmp/ddm_ci_cache
cargo run --release --bin ddm -- crates/benchmarks/programs/multi/*.cpp \
    --cache-dir /tmp/ddm_ci_cache --stats \
    > /tmp/ddm_ci_cold.out 2> /tmp/ddm_ci_cold.err
cargo run --release --bin ddm -- crates/benchmarks/programs/multi/*.cpp \
    --cache-dir /tmp/ddm_ci_cache --stats \
    --log-out /tmp/ddm_ci_warm.ndjson \
    > /tmp/ddm_ci_warm.out 2> /tmp/ddm_ci_warm.err
cmp /tmp/ddm_ci_cold.out /tmp/ddm_ci_warm.out
# The warm run must hit the cache for every TU and summarize none.
grep -Eq '^frontend/tus +0$' /tmp/ddm_ci_warm.err
grep -Eq '^cache/hits +3$' /tmp/ddm_ci_warm.err
# The flight recorder must log the same story: one tu_cache_hit probe
# event per TU, and no miss. (`set -e` ignores a command negated with
# `!`, so absence is checked as a count of 0.)
test "$(grep -c '"event":"tu_cache_hit"' /tmp/ddm_ci_warm.ndjson)" = 3
test "$(grep -c '"event":"tu_cache_miss"' /tmp/ddm_ci_warm.ndjson)" = 0
# The cache is one file: the directory lists exactly analysis.snap.
test "$(ls /tmp/ddm_ci_cache)" = analysis.snap
# Without it, the next run is cold and prints the same bytes.
rm /tmp/ddm_ci_cache/analysis.snap
cargo run --release --bin ddm -- crates/benchmarks/programs/multi/*.cpp \
    --cache-dir /tmp/ddm_ci_cache --stats \
    > /tmp/ddm_ci_again.out 2> /tmp/ddm_ci_again.err
cmp /tmp/ddm_ci_cold.out /tmp/ddm_ci_again.out
grep -Eq '^frontend/tus +3$' /tmp/ddm_ci_again.err
rm -rf /tmp/ddm_ci_cache /tmp/ddm_ci_cold.out /tmp/ddm_ci_cold.err \
    /tmp/ddm_ci_warm.out /tmp/ddm_ci_warm.err /tmp/ddm_ci_warm.ndjson \
    /tmp/ddm_ci_again.out /tmp/ddm_ci_again.err

echo "== incremental 1-changed CLI smoke (snapshot warm start, bounded frontier) =="
# Warm a cache, append an unreachable function to one TU, and re-run:
# the report must stay byte-identical, the analysis snapshot must load,
# and the fixpoint invalidation frontier must stay strictly below the
# program's function count (only the changed TU's functions re-enter).
rm -rf /tmp/ddm_ci_incr /tmp/ddm_ci_incr_src
mkdir -p /tmp/ddm_ci_incr_src
cp crates/benchmarks/programs/multi/*.cpp /tmp/ddm_ci_incr_src/
cargo run --release --bin ddm -- /tmp/ddm_ci_incr_src/*.cpp \
    --cache-dir /tmp/ddm_ci_incr \
    > /tmp/ddm_ci_incr_cold.out
first_tu=$(ls /tmp/ddm_ci_incr_src/*.cpp | head -1)
printf 'int ci_incremental_pad() { return 42; }\n' >> "$first_tu"
cargo run --release --bin ddm -- /tmp/ddm_ci_incr_src/*.cpp \
    --cache-dir /tmp/ddm_ci_incr \
    --log-out /tmp/ddm_ci_incr.ndjson \
    > /tmp/ddm_ci_incr_warm.out
cmp /tmp/ddm_ci_incr_cold.out /tmp/ddm_ci_incr_warm.out
grep -q '"event":"snapshot_loaded"' /tmp/ddm_ci_incr.ndjson
inv=$(grep '"event":"fixpoint_invalidate"' /tmp/ddm_ci_incr.ndjson)
frontier=$(printf '%s' "$inv" | sed -n 's/.*"frontier_fns":\([0-9]*\).*/\1/p')
total=$(printf '%s' "$inv" | sed -n 's/.*"total_fns":\([0-9]*\).*/\1/p')
test -n "$frontier" && test -n "$total" && test "$frontier" -lt "$total"
rm -rf /tmp/ddm_ci_incr /tmp/ddm_ci_incr_src /tmp/ddm_ci_incr_cold.out \
    /tmp/ddm_ci_incr_warm.out /tmp/ddm_ci_incr.ndjson

echo "== declaration sharing: isolated front end, 12 TUs repeating one header =="
# Each top-level declaration text is parsed once per run and shared by
# every TU that repeats it. The oracle compares every fuzz shape's
# published modules with the isolated per-TU front end. Then twelve TUs
# repeat one header after comments of different lengths and line
# counts: stdout, the det stream and the metrics must not depend on
# --jobs, the header must really be shared, and a warm re-run must
# invalidate nothing and print the same report.
cargo test --release --test decl_sharing
share_src=/tmp/ddm_ci_share_src
share_tmp=/tmp/ddm_ci_share
rm -rf "$share_src" "$share_tmp"
mkdir -p "$share_src" "$share_tmp"
header='class Base { public: int a; int b; Base() : a(1), b(2) { } virtual int get() { return a; } };
class Leaf : public Base { public: int c; int get() { return c + a; } };'
protos=""
for i in $(seq 1 11); do
    nn=$(printf '%02d' "$i")
    {
        printf '// tu %s%*s\n' "$nn" "$i" ''
        for _ in $(seq 1 $((i % 3))); do printf '//\n'; done
        printf '%s\nint f%d() { Leaf l; l.b = %d; return l.get(); }\n' "$header" "$i" "$i"
    } > "$share_src/tu$nn.cpp"
    protos="$protos int f$i();"
done
printf '%s\n%s\nint main() { return f1() + f11(); }\n' "$header" "$protos" > "$share_src/main.cpp"
for j in 1 8; do
    cargo run --release --bin ddm -- "$share_src"/*.cpp --jobs "$j" \
        --log-out "$share_tmp/det$j.ndjson" --log-filter det \
        --metrics-out "$share_tmp/metrics$j.json" > "$share_tmp/out$j"
done
cmp "$share_tmp/out1" "$share_tmp/out8"
cmp "$share_tmp/det1.ndjson" "$share_tmp/det8.ndjson"
cmp "$share_tmp/metrics1.json" "$share_tmp/metrics8.json"
python3 - "$share_tmp/metrics1.json" <<'PY'
import json, sys
metrics = {m["name"]: m for m in json.load(open(sys.argv[1]))["metrics"]}
shared = metrics["frontend/decls_shared"]["value"]
assert shared > 0, f"no declaration was shared: {metrics['frontend/decls']}"
PY
cargo run --release --bin ddm -- "$share_src"/*.cpp --cache-dir "$share_tmp/cache" \
    > /dev/null
cargo run --release --bin ddm -- "$share_src"/*.cpp --cache-dir "$share_tmp/cache" \
    --stats > "$share_tmp/warm.out" 2> "$share_tmp/warm.err"
cmp "$share_tmp/out1" "$share_tmp/warm.out"
grep -Eq '^cache/invalidations +0$' "$share_tmp/warm.err"
rm -rf "$share_src" "$share_tmp"

echo "== differential fuzz: capped sweep + shrinker =="
cargo test --release --test differential_fuzz

echo "== cache torture: crash recovery + concurrent writers =="
cargo test --release --test cache_torture

echo "== fuzz smoke (gating: fixed seed block, wall-clock ceiling enforced in-binary) =="
cargo run --release -p ddm-bench --bin bench_fuzz -- --smoke --json > /dev/null
test -s BENCH_fuzz_smoke.json

echo "== incremental bench smoke (gating: wall-clock ceiling enforced in-binary) =="
cargo run --release -p ddm-bench --bin bench_incremental -- --smoke --json > /dev/null
test -s BENCH_incremental_smoke.json

echo "== bench suite smoke (non-gating on time) =="
cargo run --release -p ddm-bench --bin bench_suite -- --json --samples 3 > /dev/null
test -s BENCH_suite.json

echo "== scale bench smoke (gating: wall-clock ceiling and depth exponents enforced in-binary) =="
cargo run --release -p ddm-bench --bin bench_scale -- --smoke --json > /dev/null
test -s BENCH_scale_smoke.json

echo "== serve smoke: epoch swap, incremental rebuild, one-shot byte-identity =="
cargo test --release --test serve_determinism
# Drive a live daemon over a FIFO: analyze 24 TUs, query, edit one TU,
# notify, re-query. Each report response must be byte-identical to a
# fresh one-shot run at that file state; the rebuild must take the
# incremental path (snapshot_loaded in the epoch log, warm starts >= 1)
# and finish faster than the cold analyze; shutdown must exit 0.
serve_src=/tmp/ddm_ci_serve_src
serve_tmp=/tmp/ddm_ci_serve
rm -rf "$serve_src" "$serve_tmp"
mkdir -p "$serve_src" "$serve_tmp"
protos=""
calls=""
for i in $(seq 1 23); do
    nn=$(printf '%02d' "$i")
    printf 'class C%s { public: C%s() : a(0), b(0) { } int get() { return a; } int a; int b; };\nint f%d() { C%s o; return o.get(); }\n' \
        "$nn" "$nn" "$i" "$nn" > "$serve_src/tu$nn.cpp"
    protos="$protos int f$i();"
    calls="$calls + f$i()"
done
printf '%s\nint main() { return 0%s; }\n' "$protos" "$calls" > "$serve_src/main.cpp"

cargo run --release --bin ddm -- "$serve_src"/*.cpp --jobs 8 \
    > "$serve_tmp/oneshot_a.out"

mkfifo "$serve_tmp/requests"
target/release/ddm serve --jobs 8 \
    --cache-dir "$serve_tmp/cache" --log-out "$serve_tmp/epochs.ndjson" \
    < "$serve_tmp/requests" > "$serve_tmp/responses" &
serve_pid=$!
exec 9> "$serve_tmp/requests"

await_responses() {
    for _ in $(seq 1 600); do
        test "$(wc -l < "$serve_tmp/responses")" -ge "$1" && return 0
        sleep 0.1
    done
    echo "serve smoke: timed out waiting for $1 responses" >&2
    return 1
}
response_field() { # response_field <line> <field> -> stdout
    python3 -c 'import json,sys
resp = json.loads(open(sys.argv[1]).readlines()[int(sys.argv[2]) - 1])
value = resp[sys.argv[3]]
sys.stdout.write(value if isinstance(value, str) else str(value))' \
        "$serve_tmp/responses" "$1" "$2"
}

python3 -c 'import json,glob,sys
print(json.dumps({"cmd": "analyze", "files": sorted(glob.glob(sys.argv[1] + "/*.cpp"))}))' \
    "$serve_src" >&9
printf '{"cmd":"report"}\n{"cmd":"epoch"}\n' >&9
await_responses 3
grep -q '"ok":true,"cmd":"analyze","epoch":1,"tus":24' "$serve_tmp/responses"
response_field 2 output > "$serve_tmp/serve_a.out"
cmp "$serve_tmp/serve_a.out" "$serve_tmp/oneshot_a.out"
cold_ns=$(response_field 3 build_ns)

# Edit one TU of 24 (livens C01::b), oracle the new state, notify.
printf 'class C01 { public: C01() : a(0), b(0) { } int get() { return a; } int a; int b; };\nint f1() { C01 o; return o.get() + o.b; }\n' \
    > "$serve_src/tu01.cpp"
cargo run --release --bin ddm -- "$serve_src"/*.cpp --jobs 8 \
    > "$serve_tmp/oneshot_b.out"
printf '{"cmd":"notify","changed":["%s/tu01.cpp"],"wait":1}\n' "$serve_src" >&9
printf '{"cmd":"report"}\n{"cmd":"epoch"}\n{"cmd":"shutdown"}\n' >&9
await_responses 7
grep -q '"ok":true,"cmd":"notify","epoch":2' "$serve_tmp/responses"
response_field 5 output > "$serve_tmp/serve_b.out"
cmp "$serve_tmp/serve_b.out" "$serve_tmp/oneshot_b.out"
test "$(response_field 6 epoch)" = 2
test "$(response_field 6 snapshot_warm_starts)" -ge 1
warm_ns=$(response_field 6 build_ns)
test "$warm_ns" -lt "$cold_ns"
# The epoch log must show the incremental path and both publishes.
grep -q '"event":"snapshot_loaded"' "$serve_tmp/epochs.ndjson"
test "$(grep -c '"event":"epoch_published"' "$serve_tmp/epochs.ndjson")" = 2
exec 9>&-
wait "$serve_pid"
rm -rf "$serve_src" "$serve_tmp"

echo "== repository benchmark: perfbench builds and passes its tiny workload pass =="
# perfbench is a package of its own (perfbench/Cargo.toml) that builds
# against ProjectPipeline::run, serve/ServeOptions, TuModule::to_json/
# from_json (its traced replica's cache files: the binary entry as hex)
# and AnalysisSnapshot. Its tests run a tiny pass of every workload,
# serve_mixed included, and check the committed verdicts, so a library
# change that breaks the benchmark fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== bench report: counter-baseline regression gate (hard-fail on drift) =="
# Recomputes the 11 suite programs' deterministic counters in-process
# and diffs them against the committed golden baselines; timings are
# warn-only on this 1-CPU host. Runs after the smokes so every family
# has a readable report file.
cargo run --release -p ddm-bench --bin bench_report -- --check --smoke --validate
rm -f BENCH_fuzz_smoke.json BENCH_incremental_smoke.json BENCH_scale_smoke.json

echo "ci.sh: all gates passed"
