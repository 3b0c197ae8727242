//! Incremental re-analysis benchmark for the multi-TU project pipeline:
//! generated N-TU projects where every TU repeats the shared header (the
//! front end has no preprocessor) and contributes its own free
//! functions, called from the driver TU through cross-TU prototypes.
//!
//! For each project size the driver times the scenarios against the
//! persistent cache file (`analysis.snap`):
//!
//! * **cold** — empty cache: every TU is parsed and summarized, and the
//!   snapshot is published;
//! * **warm** — populated cache: zero TUs are parsed or summarized
//!   (asserted in-binary), and the snapshot replays the fixpoint;
//! * **k-of-N changed** for k ∈ {1, N/4, N} — k TUs' contents are
//!   modified before each run, so exactly k TUs miss and are
//!   recomputed while the other N−k hit; k = 1 is the headline
//!   incremental number, k = N the change-everything floor.
//!
//! Warm runs must also produce the byte-identical report to a cold run —
//! the cache may only change wall-clock, never output. A warm 1-changed
//! run's breakdown reports each pipeline stage's span (probe, front end,
//! link, solve, publish, assemble), the run's wall-clock and the part of
//! it no stage covers.
//!
//! ```text
//! bench_incremental [--json] [--samples N] [--smoke]
//! ```
//!
//! Every time is a minimum over at least 15 rounds (`--samples` raises
//! it), and each round runs every scenario of a size once, in turn
//! ([`timing::interleaved_min`]). `--json` writes
//! `BENCH_incremental.json`. `--smoke` asserts the 1-changed speedup
//! grows monotonely with project size and fails if the sweep exceeds a
//! wall-clock ceiling — the CI gate.

use ddm_bench::{host_meta_json, timing};
use ddm_callgraph::Algorithm;
use ddm_core::{AnalysisConfig, Engine, ProjectPipeline};
use ddm_telemetry::{Telemetry, LANE_MAIN};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall-clock ceiling for `--smoke` (generation + all three scenarios).
const SMOKE_CEILING: Duration = Duration::from_secs(30);

/// Fewest measured rounds behind every minimum, `--smoke` included:
/// minima over 5 samples did not repeat on a shared host.
const MIN_ROUNDS: usize = 15;

#[derive(Clone, Copy)]
struct ProjectConfig {
    /// Translation units, including the driver TU.
    tus: usize,
    /// Classes in the shared header (a single-inheritance chain).
    classes: usize,
    /// Free functions defined by each non-driver TU.
    fns_per_tu: usize,
}

/// A warm 1-changed run's breakdown as `(key, ns)` pairs: one per
/// top-level lane-0 span, in pipeline order (the span's name up to its
/// parenthesized counts, snake-cased, then `_ns`: `front end (1 of 24
/// TUs)` is `front_end_ns`), then the run's `wall_ns` and the
/// `unattributed_ns` no stage covers. Spans nested inside a stage are
/// not counted again.
fn stage_breakdown(telemetry: &Telemetry, wall: Duration) -> Vec<(String, u64)> {
    let mut phases: Vec<(String, u64)> = Vec::new();
    let mut end = 0;
    for span in telemetry.spans().iter().filter(|s| s.lane == LANE_MAIN) {
        if span.start_ns >= end {
            end = span.start_ns + span.dur_ns;
            let name = span.name.split(" (").next().unwrap_or_default();
            phases.push((format!("{}_ns", name.replace(' ', "_")), span.dur_ns));
        }
    }
    let wall = wall.as_nanos() as u64;
    let staged: u64 = phases.iter().map(|&(_, ns)| ns).sum();
    phases.push(("wall_ns".to_string(), wall));
    phases.push(("unattributed_ns".to_string(), wall.saturating_sub(staged)));
    phases
}

struct SizeResult {
    name: &'static str,
    config: ProjectConfig,
    functions: usize,
    cold: Duration,
    warm: Duration,
    /// `(k, wall-clock)` for the k-of-N changed axis, ascending in k.
    k_changed: Vec<(usize, Duration)>,
    phases: Vec<(String, u64)>,
}

impl SizeResult {
    /// The headline k = 1 time (`k_axis` starts with 1).
    fn one_changed(&self) -> Duration {
        self.k_changed[0].1
    }

    fn one_changed_speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.one_changed().as_secs_f64().max(f64::EPSILON)
    }
}

/// The change-set sizes measured per project: 1, N/4, and N.
fn k_axis(tus: usize) -> Vec<usize> {
    let mut ks = vec![1, (tus / 4).max(1), tus];
    ks.dedup();
    ks
}

fn sizes() -> Vec<(&'static str, ProjectConfig)> {
    vec![
        (
            "small",
            ProjectConfig {
                tus: 8,
                classes: 4,
                fns_per_tu: 6,
            },
        ),
        (
            "medium",
            ProjectConfig {
                tus: 24,
                classes: 6,
                fns_per_tu: 10,
            },
        ),
        (
            "large",
            ProjectConfig {
                tus: 64,
                classes: 8,
                fns_per_tu: 12,
            },
        ),
    ]
}

/// The shared header: a single-inheritance chain where every class adds
/// one live member (read by `get`) and one dead member (only written).
fn header(classes: usize) -> String {
    let mut h = String::new();
    for c in 0..classes {
        let base = if c == 0 {
            String::new()
        } else {
            format!(" : public C{}", c - 1)
        };
        let init = if c == 0 {
            format!("m{c}(v), d{c}(0)")
        } else {
            format!("C{}(v), m{c}(v), d{c}(0)", c - 1)
        };
        let get = {
            // Each override reads its own member plus every inherited
            // one, keeping all `m*` live at every instantiation depth.
            let sum: Vec<String> = (0..=c).map(|i| format!("m{i}")).collect();
            format!("return {};", sum.join(" + "))
        };
        let _ = writeln!(
            h,
            "class C{c}{base} {{\npublic:\n    C{c}(int v) : {init} {{ }}\n    \
             virtual ~C{c}() {{ }}\n    virtual int get() {{ {get} }}\n    \
             int m{c};\n    int d{c};\n}};"
        );
    }
    h
}

/// Generates the project: TU 0 is the driver (prototypes + `main`),
/// TUs 1..N each define `fns_per_tu` free functions over the hierarchy.
fn generate_project(config: &ProjectConfig) -> Vec<(String, String)> {
    let header = header(config.classes);
    let top = config.classes - 1;
    let mut inputs = Vec::with_capacity(config.tus);

    let mut driver = header.clone();
    for t in 1..config.tus {
        for f in 0..config.fns_per_tu {
            let _ = writeln!(driver, "int tu{t}_f{f}(C0* o);");
        }
    }
    let _ = writeln!(driver, "int main() {{");
    let _ = writeln!(driver, "    C0* o = new C{top}(5);");
    let _ = writeln!(driver, "    int r = 0;");
    for t in 1..config.tus {
        for f in 0..config.fns_per_tu {
            let _ = writeln!(driver, "    r = r + tu{t}_f{f}(o);");
        }
    }
    let _ = writeln!(driver, "    delete o;");
    let _ = writeln!(driver, "    return r;");
    let _ = writeln!(driver, "}}");
    inputs.push(("driver.cpp".to_string(), driver));

    for t in 1..config.tus {
        let mut tu = header.clone();
        for f in 0..config.fns_per_tu {
            let _ = writeln!(
                tu,
                "int tu{t}_f{f}(C0* o) {{ o->d0 = {f}; return o->get() + {f}; }}"
            );
        }
        inputs.push((format!("tu{t}.cpp"), tu));
    }
    inputs
}

fn run(inputs: &[(String, String)], cache: &Path, telemetry: &Telemetry) -> ProjectPipeline {
    ProjectPipeline::run(
        inputs,
        AnalysisConfig::default(),
        Algorithm::Rta,
        1,
        Engine::Summary,
        Some(cache),
        telemetry,
    )
    .expect("project run")
}

fn measure(name: &'static str, config: ProjectConfig, samples: usize) -> SizeResult {
    let inputs = generate_project(&config);
    let cache = std::env::temp_dir().join(format!(
        "ddm-bench-incr-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache);

    // Correctness first: a warm run reuses every module and reproduces
    // the cold report byte for byte.
    let cold_tel = Telemetry::enabled();
    let cold_report = run(&inputs, &cache, &cold_tel).report().to_string();
    assert_eq!(cold_tel.counter("frontend/tus"), inputs.len() as u64);
    let warm_tel = Telemetry::enabled();
    let warm_report = run(&inputs, &cache, &warm_tel).report().to_string();
    assert_eq!(
        warm_tel.counter("frontend/tus"),
        0,
        "{name}: warm run re-summarized"
    );
    assert_eq!(warm_tel.counter("cache/hits"), inputs.len() as u64);
    assert_eq!(warm_report, cold_report, "{name}: warm report drifted");
    let functions = {
        let p = run(&inputs, &cache, &Telemetry::disabled());
        p.program().function_count()
    };

    // k-of-N changed: give k TUs per-run-unique content so exactly k
    // TUs miss in every run (an unreachable padding function keeps the
    // analysed behaviour identical while changing the content hash).
    // For k < N the driver TU is left alone; k = N edits every TU. The
    // cache holds the last run's generation, and every k-set contains
    // the smaller ones, so each k run misses exactly its own k TUs after
    // the run before it.
    let mut edition = 0usize;
    let edit_k = |edition: usize, k: usize| -> Vec<(String, String)> {
        let mut edited = inputs.clone();
        let targets: Vec<usize> = if k < inputs.len() {
            (1..=k).collect()
        } else {
            (0..inputs.len()).collect()
        };
        for &i in &targets {
            edited[i].1 = format!(
                "{}int pad_t{i}_e{edition}() {{ return {edition}; }}\n",
                inputs[i].1
            );
        }
        edited
    };
    let ks = k_axis(inputs.len());
    // Correctness outside the timed region: an instrumented run per k,
    // in the order the rounds below take, proves exactly k TUs miss and
    // N-k hit.
    for &k in &ks {
        edition += 1;
        let tel = Telemetry::enabled();
        run(&edit_k(edition, k), &cache, &tel);
        assert_eq!(
            tel.counter("frontend/tus"),
            k as u64,
            "{name}: expected exactly {k} misses"
        );
        assert_eq!(tel.counter("cache/hits"), (inputs.len() - k) as u64);
    }

    // One round runs cold (the cache emptied first), warm (over the
    // cache cold left) and each k in turn; every time is the minimum
    // over the rounds. The edited inputs are rendered up front, in the
    // order the rounds take them, so the timed region holds the analysis
    // alone.
    let mut editions = (0..(samples + 2) * ks.len())
        .map(|e| edit_k(edition + 1 + e, ks[e % ks.len()]))
        .collect::<Vec<_>>()
        .into_iter();
    edition += (samples + 2) * ks.len();
    let times = timing::interleaved_min(2 + ks.len(), samples, |case| {
        if case == 0 {
            let _ = std::fs::remove_dir_all(&cache);
        }
        let edited = if case < 2 { None } else { editions.next() };
        run(
            edited.as_ref().unwrap_or(&inputs),
            &cache,
            &Telemetry::disabled(),
        )
    });
    let (cold, warm) = (times[0], times[1]);
    let k_changed: Vec<(usize, Duration)> =
        ks.iter().copied().zip(times[2..].iter().copied()).collect();

    // Per-phase breakdown of one more (untimed) warm 1-changed run.
    // The k = N pass above left every TU edited, so first re-establish
    // a fully warm snapshot; otherwise the measured run would take the
    // N-changed path and the breakdown would not describe 1-changed.
    let phases = {
        edition += 1;
        run(&edit_k(edition, 1), &cache, &Telemetry::disabled());
        edition += 1;
        let edited = edit_k(edition, 1);
        let tel = Telemetry::enabled();
        let started = Instant::now();
        let result = run(&edited, &cache, &tel);
        let wall = started.elapsed();
        drop(result);
        stage_breakdown(&tel, wall)
    };

    let _ = std::fs::remove_dir_all(&cache);
    SizeResult {
        name,
        config,
        functions,
        cold,
        warm,
        k_changed,
        phases,
    }
}

fn render_json(results: &[SizeResult], samples: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"ddm-benchmarks incremental project cache\",\n");
    out.push_str("  \"engine\": \"summary\",\n");
    out.push_str("  \"algorithm\": \"rta\",\n");
    let _ = writeln!(out, "  \"samples\": {samples},");
    let _ = writeln!(out, "  \"host\": {},", host_meta_json());
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        let c = &r.config;
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"tus\": {}, \"classes\": {}, \"fns_per_tu\": {}, \"functions\": {},\n     \
             \"cold_ns\": {}, \"warm_ns\": {}, \"one_changed_ns\": {},\n     \
             \"warm_speedup\": {:.2}, \"one_changed_speedup\": {:.2},\n     \
             \"k_changed\": [",
            r.name,
            c.tus,
            c.classes,
            c.fns_per_tu,
            r.functions,
            r.cold.as_nanos(),
            r.warm.as_nanos(),
            r.one_changed().as_nanos(),
            r.cold.as_secs_f64() / r.warm.as_secs_f64().max(f64::EPSILON),
            r.one_changed_speedup(),
        );
        for (j, (k, d)) in r.k_changed.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"k\": {}, \"ns\": {}, \"speedup\": {:.2}}}",
                if j == 0 { "" } else { ", " },
                k,
                d.as_nanos(),
                r.cold.as_secs_f64() / d.as_secs_f64().max(f64::EPSILON),
            );
        }
        out.push_str("],\n     \"one_changed_phases\": {");
        for (j, (key, ns)) in r.phases.iter().enumerate() {
            let _ = write!(out, "{}\"{key}\": {ns}", if j == 0 { "" } else { ", " });
        }
        out.push_str("}}");
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let samples = args
        .iter()
        .position(|a| a == "--samples")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(MIN_ROUNDS)
        .max(MIN_ROUNDS);

    let started = Instant::now();
    let results: Vec<SizeResult> = sizes()
        .into_iter()
        .map(|(name, config)| measure(name, config, samples))
        .collect();

    println!(
        "{:<8} {:>5} {:>8} {:>14} {:>14} {:>16} {:>8} {:>8}",
        "size", "tus", "funcs", "cold", "warm", "1-of-N changed", "warm x", "1chg x"
    );
    for r in &results {
        println!(
            "{:<8} {:>5} {:>8} {:>14.1?} {:>14.1?} {:>16.1?} {:>8.2} {:>8.2}",
            r.name,
            r.config.tus,
            r.functions,
            r.cold,
            r.warm,
            r.one_changed(),
            r.cold.as_secs_f64() / r.warm.as_secs_f64().max(f64::EPSILON),
            r.one_changed_speedup(),
        );
    }

    if json {
        // A CI smoke run must not overwrite the committed
        // BENCH_incremental.json.
        let path = if smoke {
            "BENCH_incremental_smoke.json"
        } else {
            "BENCH_incremental.json"
        };
        std::fs::write(path, render_json(&results, samples)).expect("write incremental JSON");
        println!("wrote {path}");
    }

    if smoke {
        // The snapshot's fixed costs amortize with project size, so the
        // 1-changed speedup must grow monotonely small → large.
        for pair in results.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            assert!(
                next.one_changed_speedup() > prev.one_changed_speedup(),
                "1-changed speedup must grow with project size: {} {:.2}x vs {} {:.2}x",
                prev.name,
                prev.one_changed_speedup(),
                next.name,
                next.one_changed_speedup(),
            );
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < SMOKE_CEILING,
            "incremental smoke exceeded its wall-clock ceiling: {elapsed:.1?} >= {SMOKE_CEILING:?}"
        );
    }
}
