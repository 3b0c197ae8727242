//! Incremental re-analysis benchmark for the multi-TU project pipeline:
//! generated N-TU projects where every TU repeats the shared header (the
//! front end has no preprocessor) and contributes its own free
//! functions, called from the driver TU through cross-TU prototypes.
//!
//! For each project size the driver times five cases against the
//! persistent cache file (`analysis.snap`), in this order each round:
//!
//! * **cold** — empty cache (emptied before each sample, untimed): every
//!   TU is parsed and summarized, and the snapshot is published;
//! * **warm** — the cache cold left: zero TUs are parsed or summarized
//!   (asserted in-binary), and the snapshot replays the fixpoint;
//! * **one / quarter / all changed** — k of N TUs' contents are
//!   modified before each run (untimed), for k = 1, N/4 and N, so exactly
//!   k TUs miss and are recomputed while the other N−k hit; k = 1 is the
//!   headline incremental number, k = N the change-everything floor.
//!
//! Warm runs must also produce the byte-identical report to a cold run —
//! the cache may only change wall-clock, never output. Every case is
//! timed through the [`timing`] harness, so its `<case>_phases` rows —
//! each pipeline stage's span (probe, front end, link, solve, publish,
//! assemble), the child spans, the report, the drop, the wall clock and
//! the unattributed rest — come from the timed samples themselves, and
//! its headline `<case>_ns` is its `wall_ns`. Each row's exponent against
//! the project's function count is fitted between adjacent sizes,
//! ungated.
//!
//! ```text
//! bench_incremental [--json] [--samples N] [--smoke]
//! ```
//!
//! Every case takes at least 15 samples (`--samples` raises it; see
//! [`timing::time_runs`]), and each round runs every case of a size
//! once, in turn.
//! `--json` writes `BENCH_incremental.json`. `--smoke` asserts the
//! 1-changed speedup grows monotonely with project size and fails if the
//! sweep exceeds a wall-clock ceiling — the CI gate.

use ddm_bench::host_meta_json;
use ddm_bench::timing::{self, Case, Timing};
use ddm_core::AnalysisConfig;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Wall-clock ceiling for `--smoke` (generation + every case).
const SMOKE_CEILING: Duration = Duration::from_secs(30);

/// Fewest measured rounds behind every case, `--smoke` included: 5
/// samples did not repeat on a shared host.
const MIN_ROUNDS: usize = 15;

/// The cases, in the order a round runs them. After the warm case each
/// k-set contains the smaller ones, and the cache holds the last run's
/// editions, so every changed case misses exactly its own k TUs.
const CASES: [&str; 5] = [
    "cold",
    "warm",
    "one_changed",
    "quarter_changed",
    "all_changed",
];

/// How many of `tus` TUs case `case` summarizes: every TU cold, none
/// warm, and each changed case the k TUs it edits before each run.
fn misses(case: usize, tus: usize) -> usize {
    [tus, 0, 1, (tus / 4).max(1), tus][case]
}

#[derive(Clone, Copy)]
struct ProjectConfig {
    /// Translation units, including the driver TU.
    tus: usize,
    /// Classes in the shared header (a single-inheritance chain).
    classes: usize,
    /// Free functions defined by each non-driver TU.
    fns_per_tu: usize,
}

struct SizeResult {
    name: &'static str,
    config: ProjectConfig,
    /// One timing per entry of [`CASES`].
    cases: Vec<Timing>,
}

impl SizeResult {
    /// How much faster case `case` ran than cold.
    fn speedup(&self, case: usize) -> f64 {
        let cold = self.cases[0].ns("wall") as f64;
        cold / self.cases[case].ns("wall").max(1) as f64
    }

    /// The headline k = 1 speedup.
    fn one_changed_speedup(&self) -> f64 {
        self.speedup(2)
    }
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

/// `inputs` with an unreachable padding function appended to k TUs: the
/// analysed behaviour stays identical while k content hashes change.
/// For k < N the driver TU is left alone; k = N edits every TU. Each
/// edition's padding is unique, so every edited TU misses after any
/// earlier run.
fn edit(inputs: &[(String, String)], edition: usize, k: usize) -> Vec<(String, String)> {
    let targets = if k < inputs.len() {
        1..k + 1
    } else {
        0..inputs.len()
    };
    let mut edited = inputs.to_vec();
    for i in targets {
        edited[i].1 = format!(
            "{}int pad_t{i}_e{edition}() {{ return {edition}; }}\n",
            inputs[i].1
        );
    }
    edited
}

fn measure(name: &'static str, config: ProjectConfig, samples: usize) -> SizeResult {
    let inputs = generate_project(&config);
    let tus = inputs.len();
    let cache = std::env::temp_dir().join(format!("ddm-bench-incr-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let mut cases: Vec<Case> = CASES
        .iter()
        .map(|_| Case {
            inputs: inputs.clone(),
            config: AnalysisConfig::default(),
            cache: Some(cache.clone()),
        })
        .collect();
    let mut edition = 0;
    let timings = timing::time_runs(&mut cases, samples, |case, run| {
        if case == 0 {
            let _ = std::fs::remove_dir_all(&cache);
        } else if case >= 2 {
            edition += 1;
            run.inputs = edit(&inputs, edition, misses(case, tus));
        }
    });
    let _ = std::fs::remove_dir_all(&cache);

    // Each case's fastest run hit and missed exactly as its case says,
    // and the warm run reproduced the cold report byte for byte.
    for (case, t) in timings.iter().enumerate() {
        let misses = misses(case, tus);
        assert_eq!(
            t.telemetry.counter("frontend/tus"),
            misses as u64,
            "{name} {}: expected exactly {misses} TUs summarized",
            CASES[case]
        );
        assert_eq!(t.telemetry.counter("cache/hits"), (tus - misses) as u64);
    }
    assert_eq!(
        timings[1].report, timings[0].report,
        "{name}: warm report drifted"
    );
    SizeResult {
        name,
        config,
        cases: timings,
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
            "    {{\"name\": \"{}\", \"tus\": {}, \"classes\": {}, \"fns_per_tu\": {}, \"functions\": {},\n     ",
            r.name, c.tus, c.classes, c.fns_per_tu, r.cases[0].functions,
        );
        let headline: Vec<String> = CASES
            .iter()
            .zip(&r.cases)
            .map(|(case, t)| format!("\"{case}_ns\": {}", t.ns("wall")))
            .collect();
        let _ = write!(out, "{},\n     ", headline.join(", "));
        let speedups: Vec<String> = CASES
            .iter()
            .enumerate()
            .skip(1)
            .map(|(case, name)| format!("\"{name}_speedup\": {:.2}", r.speedup(case)))
            .collect();
        let _ = write!(out, "{}", speedups.join(", "));
        for (case, t) in CASES.iter().zip(&r.cases) {
            let _ = write!(
                out,
                ",\n     \"{case}_phases\": {{{}}}",
                timing::rows_json(&t.rows)
            );
        }
        out.push('}');
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"exponents\": [\n");
    for (i, w) in results.windows(2).enumerate() {
        let _ = write!(
            out,
            "    {{\"from\": \"{}\", \"to\": \"{}\"",
            w[0].name, w[1].name
        );
        for (case, name) in CASES.iter().enumerate() {
            let (a, b) = (&w[0].cases[case], &w[1].cases[case]);
            let fit = timing::exponents((a.functions, a), (b.functions, b));
            let _ = write!(
                out,
                ",\n     \"{name}\": {{{}}}",
                timing::exponents_json(&fit)
            );
        }
        out.push('}');
        out.push_str(if i + 2 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
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
        let wall = |case: usize| Duration::from_nanos(r.cases[case].ns("wall"));
        println!(
            "{:<8} {:>5} {:>8} {:>14.1?} {:>14.1?} {:>16.1?} {:>8.2} {:>8.2}",
            r.name,
            r.config.tus,
            r.cases[0].functions,
            wall(0),
            wall(1),
            wall(2),
            r.speedup(1),
            r.one_changed_speedup(),
        );
    }
    let names: Vec<&str> = results.iter().map(|r| r.name).collect();
    let functions: Vec<usize> = results.iter().map(|r| r.cases[0].functions).collect();
    for (case, name) in CASES.iter().enumerate() {
        let timings: Vec<&Timing> = results.iter().map(|r| &r.cases[case]).collect();
        println!();
        timing::print_table(name, &names, &timings, Some(&functions));
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
