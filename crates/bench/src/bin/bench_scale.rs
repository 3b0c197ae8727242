//! Scaling benchmark of every stage of the analysis.
//!
//! Every point is one program analysed by `ProjectPipeline::run` through
//! the [`timing`] harness: each top-level stage span (probe, front end,
//! link, solve, publish, assemble), each child span (parse, model,
//! summary, extract, callgraph, liveness), the run's wall clock, the
//! report, the drop of the result and the unattributed rest, from its
//! interleaved samples ([`timing::time_runs`]). Between adjacent points
//! the driver fits every row's exponent `ln(t2/t1) / ln(x2/x1)` against
//! the swept quantity `x`:
//!
//! * `ladder` runs generated programs far beyond the paper suite's 31
//!   functions (up to ~131k), with deep virtual hierarchies and long call
//!   ladders that force the delta-driven call-graph fixpoint through
//!   dozens of park/release rounds, against the function count. The
//!   ladder grows by adding *chains* (independent hierarchies) at a fixed
//!   depth and rung count, so per-chain work is constant and the ideal
//!   exponent is exactly 1 — any superlinearity is the engine's own. Each
//!   size also reports the fixpoint's rounds, per-round delta sizes,
//!   worklist pops and readied-site drains, read off its run's telemetry;
//! * `depth` grows one chain's depth (64, 128, 256), so every dispatch
//!   table grows with it; the exponent is against depth and shows which
//!   stage a superlinear member lookup lands in;
//! * `n` sweeps statements per method (2 → 128) at 8 classes — the `N`
//!   of the paper's `O(N + C×M)` (§3.4); the exponent is against source
//!   bytes;
//! * `cxm` sweeps the class count (4 → 64) with members per class fixed
//!   and the objects exercised in `main` scaled along, so reachable code
//!   covers every class — the `C×M` term; the exponent is against the
//!   class count.
//!
//! ```text
//! bench_scale [--json] [--samples N] [--smoke]
//! ```
//!
//! `--json` writes `BENCH_scale.json`. `--smoke` runs the two smallest
//! ladder sizes and the depths 64 and 128, and fails on a wall-clock
//! ceiling or on a `summary` or `callgraph` exponent above
//! [`SMOKE_EXPONENT_CEILING`] on the ladder or the depth axis — the CI
//! gates. Every other row, and the `n` and `cxm` axes, are measured and
//! never gated. Every point takes at least [`LAYER_MIN_SAMPLES`]
//! interleaved samples, each right after an untimed run of the same
//! program, never right after a bigger one.

use ddm_bench::host_meta_json;
use ddm_bench::timing::{self, Case, Timing};
use ddm_benchmarks::generator::{
    generate, generate_scale, scale_function_count, GeneratorConfig, ScaleConfig,
};
use ddm_core::AnalysisConfig;
use ddm_telemetry::{Metric, Telemetry};
use std::time::{Duration, Instant};

/// Wall-clock ceiling for `--smoke` (generation, two ladder sizes, and
/// every axis).
const SMOKE_CEILING: Duration = Duration::from_secs(30);

/// `--smoke` fails if the `summary` or `callgraph` row grows faster than
/// this power of the ladder's function count or of chain depth. Over 30
/// smoke runs, small → medium on the ladder read 0.87–1.21 for the
/// summary and 0.93–1.37 for the call graph; a quadratic regression
/// reads about 2. Each of a chain's dispatch tables costs O(depth), and
/// every class-hierarchy query the two layers make is linear in the
/// hierarchy, so from depth 64 to 128 both read at most 0.82. A query per
/// method that walks the whole chain measures about 1.6 (the call-graph
/// roots' library scan did), the all-pairs hiding filter of member lookup
/// about 2.4. Other rows are not gated: on the same runs the ladder's
/// link read up to 1.48, the report 1.57, publish 1.38 and the drop 1.42,
/// so a gate on them would flake.
const SMOKE_EXPONENT_CEILING: f64 = 1.4;

/// The rows `--smoke` gates on the ladder and the depth axis.
const GATED_ROWS: [&str; 2] = ["summary", "callgraph"];

/// Minimum samples per point: the small ladder size and the smaller
/// axis programs take a few milliseconds or less, where a single sample
/// is too noisy to gate.
const LAYER_MIN_SAMPLES: usize = 15;

/// One timed program.
struct Point {
    name: String,
    /// The swept quantity the exponents are fitted against.
    x: usize,
    /// The generator configuration, rendered as a JSON object.
    config: String,
    timing: Timing,
    /// The ladder's fixpoint schedule: `(key, count)`.
    counts: Vec<(&'static str, u64)>,
}

/// An axis: its JSON key (`<key>_axis`, `<key>_exponents`), what its
/// `x` counts, and its points in sweep order.
struct Axis {
    key: &'static str,
    x_label: &'static str,
    points: Vec<Point>,
}

impl Axis {
    /// Each row's exponent between each pair of adjacent points.
    fn exponents(&self) -> Vec<(&str, &str, [Option<f64>; 16])> {
        self.points
            .windows(2)
            .map(|w| {
                let fit = timing::exponents((w[0].x, &w[0].timing), (w[1].x, &w[1].timing));
                (w[0].name.as_str(), w[1].name.as_str(), fit)
            })
            .collect()
    }

    /// The largest exponent of `row` over adjacent pairs; infinite if one
    /// is undefined, so a missing span fails a gate.
    fn worst(&self, row: &str) -> f64 {
        self.exponents()
            .iter()
            .map(|(_, _, fit)| fit[timing::row(row)].unwrap_or(f64::INFINITY))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Times one single-file program per `(name, x, config JSON, source)`,
/// the programs interleaved, each sample right after an untimed run of
/// its own program ([`timing::warm_up`]).
fn measure(
    key: &'static str,
    x_label: &'static str,
    programs: Vec<(String, usize, String, String)>,
    samples: usize,
) -> Axis {
    let mut cases: Vec<Case> = programs
        .iter()
        .map(|(name, _, _, source)| Case {
            inputs: vec![(format!("{name}.cpp"), source.clone())],
            config: AnalysisConfig::default(),
            cache: None,
        })
        .collect();
    let timings = timing::time_runs(&mut cases, samples.max(LAYER_MIN_SAMPLES), timing::warm_up);
    let points = programs
        .into_iter()
        .zip(timings)
        .map(|((name, x, config, _), timing)| Point {
            name,
            x,
            config,
            timing,
            counts: Vec::new(),
        })
        .collect();
    Axis {
        key,
        x_label,
        points,
    }
}

fn scale_config_json(c: &ScaleConfig) -> String {
    format!(
        "{{\"chains\": {}, \"depth\": {}, \"methods_per_class\": {}, \"members_per_class\": {}, \"rungs\": {}}}",
        c.chains, c.depth, c.methods_per_class, c.members_per_class, c.rungs
    )
}

/// The ladder: chains quadruple while depth, methods, and rungs stay
/// fixed, so function count quadruples with per-chain work held
/// constant. `huge` crosses 100k functions.
fn ladder(smoke: bool, samples: usize) -> Axis {
    let at = |chains| ScaleConfig {
        chains,
        depth: 16,
        methods_per_class: 4,
        members_per_class: 3,
        rungs: 64,
    };
    let mut sizes = vec![("small", at(16)), ("medium", at(64))];
    if !smoke {
        sizes.push(("large", at(256)));
        sizes.push(("huge", at(1024)));
    }
    let programs = sizes
        .iter()
        .map(|(name, c)| {
            let x = scale_function_count(c);
            (
                name.to_string(),
                x,
                scale_config_json(c),
                generate_scale(c, 42),
            )
        })
        .collect();
    let mut axis = measure("ladder", "functions", programs, samples);
    for p in &mut axis.points {
        assert_eq!(p.timing.functions, p.x, "{}: function count", p.name);
        p.counts = schedule(&p.timing.telemetry);
    }
    axis
}

/// The fixpoint's schedule as the ladder reports it, read off a run's
/// telemetry: the round count and delta sum are the
/// `callgraph/round_delta_fns` histogram's, the largest delta is the
/// largest `callgraph replay delta R (N fns)` span's `N`, and the pops
/// and drains are deterministic counters.
fn schedule(telemetry: &Telemetry) -> Vec<(&'static str, u64)> {
    let counters = telemetry.counters();
    let (rounds, delta_sum) = match telemetry
        .metrics_snapshot()
        .get("callgraph/round_delta_fns")
    {
        Some(Metric::Histogram(h)) => (h.count(), h.sum()),
        _ => (0, 0),
    };
    let delta_max = telemetry
        .spans()
        .iter()
        .filter_map(|s| {
            let (_, fns) = s
                .name
                .strip_prefix("callgraph replay delta ")?
                .split_once(" (")?;
            fns.strip_suffix(" fns)")?.parse::<u64>().ok()
        })
        .max()
        .unwrap_or(0);
    vec![
        ("rounds", rounds),
        ("worklist_pops", counters.cg_worklist_pops),
        ("ready_drains", counters.cg_ready_drains),
        ("delta_sum", delta_sum),
        ("delta_max", delta_max),
    ]
}

/// One chain per depth, in the `deep_dispatch` shape of the repository
/// benchmark (two virtual methods, 48 ladder rungs).
fn depth_axis(smoke: bool, samples: usize) -> Axis {
    let depths: &[usize] = if smoke { &[64, 128] } else { &[64, 128, 256] };
    let programs = depths
        .iter()
        .map(|&depth| {
            let c = ScaleConfig {
                chains: 1,
                depth,
                methods_per_class: 2,
                members_per_class: 3,
                rungs: 48,
            };
            (
                format!("depth{depth}"),
                depth,
                scale_config_json(&c),
                generate_scale(&c, 42),
            )
        })
        .collect();
    measure("depth", "depth", programs, samples)
}

/// A §3.4 axis over the base generator: one program per configuration,
/// named `<key><swept value>`, with `x` taken from its source.
fn generator_axis(
    key: &'static str,
    x_label: &'static str,
    configs: &[(usize, GeneratorConfig)],
    seed: u64,
    x_of: impl Fn(&str, &GeneratorConfig) -> usize,
    samples: usize,
) -> Axis {
    let programs = configs
        .iter()
        .map(|(swept, c)| {
            let src = generate(c, seed);
            let config = format!(
                "{{\"classes\": {}, \"members_per_class\": {}, \"methods_per_class\": {}, \"stmts_per_method\": {}, \"objects_in_main\": {}, \"seed\": {seed}}}",
                c.classes, c.members_per_class, c.methods_per_class, c.stmts_per_method, c.objects_in_main
            );
            (format!("{key}{swept}"), x_of(&src, c), config, src)
        })
        .collect();
    measure(key, x_label, programs, samples)
}

/// `N`: statements per method swept at a fixed class count.
fn n_axis(samples: usize) -> Axis {
    let configs: Vec<(usize, GeneratorConfig)> = [2usize, 8, 32, 128]
        .into_iter()
        .map(|stmts| {
            let config = GeneratorConfig {
                classes: 8,
                stmts_per_method: stmts,
                ..Default::default()
            };
            (stmts, config)
        })
        .collect();
    generator_axis(
        "n",
        "source bytes",
        &configs,
        11,
        |src, _| src.len(),
        samples,
    )
}

/// `C×M`: classes swept, members per class fixed, and the objects `main`
/// exercises scaled with the class count (a constant number would leave
/// most classes unreachable and the analysis cost flat).
fn cxm_axis(samples: usize) -> Axis {
    let configs: Vec<(usize, GeneratorConfig)> = [4usize, 16, 64]
        .into_iter()
        .map(|classes| {
            let config = GeneratorConfig {
                classes,
                objects_in_main: classes * 2,
                ..Default::default()
            };
            (classes, config)
        })
        .collect();
    generator_axis("cxm", "classes", &configs, 13, |_, c| c.classes, samples)
}

fn render_axis(out: &mut String, axis: &Axis) {
    out.push_str(&format!(",\n  \"{}_axis\": [\n", axis.key));
    for (i, p) in axis.points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"x\": {}, \"functions\": {}, \"config\": {},\n     {}",
            p.name,
            p.x,
            p.timing.functions,
            p.config,
            timing::rows_json(&p.timing.rows)
        ));
        for (key, n) in &p.counts {
            out.push_str(&format!(", \"{key}\": {n}"));
        }
        out.push_str(if i + 1 < axis.points.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str(&format!("  ],\n  \"{}_exponents\": [\n", axis.key));
    let exponents = axis.exponents();
    for (i, (from, to, fit)) in exponents.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"from\": \"{from}\", \"to\": \"{to}\", {}}}{}",
            timing::exponents_json(fit),
            if i + 1 < exponents.len() { ",\n" } else { "\n" }
        ));
    }
    out.push_str("  ]");
}

fn render_json(axes: &[Axis], samples: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"ddm-benchmarks scale generator\",\n");
    out.push_str("  \"algorithm\": \"rta\",\n");
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str(&format!("  \"host\": {}", host_meta_json()));
    for axis in axes {
        render_axis(&mut out, axis);
    }
    out.push_str("\n}\n");
    out
}

fn print_axis(axis: &Axis) {
    let names: Vec<&str> = axis.points.iter().map(|p| p.name.as_str()).collect();
    let timings: Vec<&Timing> = axis.points.iter().map(|p| &p.timing).collect();
    let xs: Vec<usize> = axis.points.iter().map(|p| p.x).collect();
    println!();
    timing::print_table(
        &format!("{} ({})", axis.key, axis.x_label),
        &names,
        &timings,
        Some(&xs),
    );
    for p in axis.points.iter().filter(|p| !p.counts.is_empty()) {
        let counts: Vec<String> = p
            .counts
            .iter()
            .map(|(key, n)| format!("{key} {n}"))
            .collect();
        println!("{}: {}", p.name, counts.join(", "));
    }
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
        .unwrap_or(if smoke { 1 } else { 3 });

    let started = Instant::now();
    let axes = [
        ladder(smoke, samples),
        depth_axis(smoke, samples),
        n_axis(samples),
        cxm_axis(samples),
    ];
    for axis in &axes {
        print_axis(axis);
    }

    if json {
        // The smoke run measures the two smallest sizes only — keep it
        // away from the committed full-sweep BENCH_scale.json.
        let path = if smoke {
            "BENCH_scale_smoke.json"
        } else {
            "BENCH_scale.json"
        };
        let samples = samples.max(LAYER_MIN_SAMPLES);
        std::fs::write(path, render_json(&axes, samples)).expect("write scale JSON");
        println!("wrote {path}");
    }

    if smoke {
        let elapsed = started.elapsed();
        assert!(
            elapsed < SMOKE_CEILING,
            "scale smoke exceeded its wall-clock ceiling: {elapsed:.1?} >= {SMOKE_CEILING:?}"
        );
        let mut worst = Vec::new();
        for axis in &axes[..2] {
            for row in GATED_ROWS {
                let e = axis.worst(row);
                assert!(
                    e <= SMOKE_EXPONENT_CEILING,
                    "{row} grows as {}^{e:.3} > {}^{SMOKE_EXPONENT_CEILING} on the {} axis",
                    axis.x_label,
                    axis.x_label,
                    axis.key
                );
                worst.push(format!("{} {row} {e:.3}", axis.key));
            }
        }
        println!(
            "smoke OK in {elapsed:.1?} (ceiling {SMOKE_CEILING:?}, worst exponents: {})",
            worst.join(", ")
        );
    }
}
