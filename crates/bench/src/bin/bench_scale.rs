//! Scaling benchmark for the delta-driven call-graph fixpoint and for
//! each layer of the analysis.
//!
//! The ladder axis runs generated programs far beyond the paper suite's
//! 31 functions (up to ~131k), with deep virtual hierarchies and long
//! call ladders that force the fixpoint through dozens of park/release
//! rounds. For each size the driver times call-graph construction from
//! source (summary extraction plus the worklist replay), captures the
//! delta-worklist telemetry (rounds, per-round delta sizes, worklist
//! pops, readied-site drains), and fits the scaling exponent between
//! consecutive sizes:
//! `ln(t2/t1) / ln(n2/n1)`. A full-set round sweep is Θ(rounds × n); the
//! delta worklist pops each function once and the interned dense hot
//! loops do no per-pop hashing, so the exponent stays near 1. The ladder
//! grows by adding *chains* (independent hierarchies) at a fixed depth
//! and rung count, so per-chain work is constant and the ideal exponent
//! is exactly 1 — any superlinearity is the engine's own.
//!
//! Three per-layer axes time parse, model, summary extraction
//! (`ProgramSummary::build`), the call-graph fixpoint
//! (`CallGraph::build_from_summary_schedule`) and the liveness replay
//! (`DeadMemberAnalysis::run_summary_counted`) each on its own, and fit each
//! layer's exponent against the swept quantity:
//!
//! * `depth` grows one chain's depth (64, 128, 256), so every dispatch
//!   table grows with it; the exponent is against depth and shows which
//!   layer a superlinear member lookup lands in;
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
//! ladder sizes and the depths 64 and 128, and fails on a
//! wall-clock ceiling, a ladder scaling exponent above
//! [`SMOKE_EXPONENT_CEILING`], or a summary-extraction or call-graph
//! depth exponent above [`SMOKE_DEPTH_EXPONENT_CEILING`] — the CI gates.
//! The `n` and `cxm` axes are measured, never gated. Every size and
//! every axis point is timed as the minimum over at least
//! [`LAYER_MIN_SAMPLES`] interleaved samples; each ladder size is timed
//! right after an untimed run of itself, never right after a bigger
//! size.

use ddm_bench::{host_meta_json, timing::interleaved_min};
use ddm_benchmarks::generator::{
    generate, generate_scale, scale_function_count, GeneratorConfig, ScaleConfig,
};
use ddm_callgraph::{CallGraph, CallGraphOptions};
use ddm_core::{AnalysisConfig, DeadMemberAnalysis};
use ddm_hierarchy::{Program, ProgramSummary};
use ddm_telemetry::Telemetry;
use std::time::{Duration, Instant};

/// Wall-clock ceiling for `--smoke` (generation + parse + call graph,
/// two ladder sizes, and every per-layer axis).
const SMOKE_CEILING: Duration = Duration::from_secs(30);

/// `--smoke` fails if any adjacent-size scaling exponent exceeds this.
/// The committed full sweep stays under 1.25; 1.4 leaves headroom for
/// small-size noise while still catching a quadratic regression (~2)
/// immediately.
const SMOKE_EXPONENT_CEILING: f64 = 1.4;

/// `--smoke` fails if summary extraction or the call graph grows faster
/// than this power of chain depth. Each of the chain's dispatch tables
/// costs O(depth), and every class-hierarchy query the two layers make
/// is linear in the hierarchy, so from depth 64 to 128 the summary
/// measures about 0.5 and the call graph 0.7–0.9. A query per method
/// that walks the whole chain measures about 1.6 (the call-graph roots'
/// library scan did), the all-pairs hiding filter of member lookup
/// about 2.4.
const SMOKE_DEPTH_EXPONENT_CEILING: f64 = 1.4;

/// Minimum samples per ladder size and per layer on the per-layer axes:
/// the small ladder size and each layer of the smaller programs take a
/// few milliseconds or less, where a single sample is too noisy to gate.
const LAYER_MIN_SAMPLES: usize = 15;

struct SizeResult {
    name: &'static str,
    config: ScaleConfig,
    functions: usize,
    callgraph: Duration,
    rounds: u64,
    worklist_pops: u64,
    ready_drains: u64,
    deltas: Vec<u64>,
}

/// The ladder sizes: chains quadruple while depth, methods, and rungs
/// stay fixed, so function count quadruples with per-chain work held
/// constant. `huge` crosses 100k functions.
fn sizes(smoke: bool) -> Vec<(&'static str, ScaleConfig)> {
    let at = |chains| ScaleConfig {
        chains,
        depth: 16,
        methods_per_class: 4,
        members_per_class: 3,
        rungs: 64,
    };
    let mut v = vec![("small", at(16)), ("medium", at(64))];
    if !smoke {
        v.push(("large", at(256)));
        v.push(("huge", at(1024)));
    }
    v
}

/// Times the call graph of each ladder size, the sizes interleaved (see
/// [`interleaved_min`]), and captures its worklist schedule once. Each
/// size is timed right after an untimed run of the same size, so no
/// size is measured in the wake of a bigger one.
fn measure_ladder(sizes: Vec<(&'static str, ScaleConfig)>, samples: usize) -> Vec<SizeResult> {
    let programs: Vec<Program> = sizes
        .iter()
        .map(|(_, config)| {
            let src = generate_scale(config, 42);
            let tu = ddm_cppfront::parse(&src).expect("scale program parses");
            let program = Program::build(&tu).expect("scale program resolves");
            assert_eq!(program.function_count(), scale_function_count(config));
            program
        })
        .collect();
    let options = CallGraphOptions::default();
    let quiet = Telemetry::disabled();
    let build = |program: &Program| {
        let summary = ProgramSummary::build(program, false, 1);
        CallGraph::build_from_summary_schedule(program, &summary, &options, &quiet).unwrap()
    };
    // Case 2i warms size i up; case 2i + 1 times it.
    let times = interleaved_min(2 * programs.len(), samples.max(LAYER_MIN_SAMPLES), |case| {
        build(&programs[case / 2])
    });
    sizes
        .into_iter()
        .zip(&programs)
        .zip(times.into_iter().skip(1).step_by(2))
        .map(|(((name, config), program), callgraph)| {
            let (_, schedule) = build(program);
            SizeResult {
                name,
                config,
                functions: program.function_count(),
                callgraph,
                rounds: schedule.rounds.len() as u64,
                worklist_pops: schedule.pops,
                ready_drains: schedule.drains,
                deltas: schedule.rounds.iter().map(|r| r.delta_fns).collect(),
            }
        })
        .collect()
}

/// The layers every per-layer axis times, in pipeline order.
const LAYERS: [&str; 5] = ["parse", "model", "summary", "callgraph", "liveness"];

/// One generated program on a per-layer axis.
struct LayerPoint {
    name: String,
    /// The swept quantity the exponents are fitted against.
    x: usize,
    functions: usize,
    /// The generator configuration, rendered as a JSON object.
    config: String,
    /// Minimum time per layer, in [`LAYERS`] order.
    layers: [Duration; 5],
}

/// A per-layer axis: its JSON key (`<key>_axis`, `<key>_exponents`) and
/// what its `x` counts.
struct Axis {
    key: &'static str,
    x_label: &'static str,
    points: Vec<LayerPoint>,
}

/// Times each layer of each source on its own, the sources interleaved:
/// `(function count, per-layer minimum)` per source.
fn measure_layers(sources: &[String], samples: usize) -> Vec<(usize, [Duration; 5])> {
    let samples = samples.max(LAYER_MIN_SAMPLES);
    let tus: Vec<_> = sources
        .iter()
        .map(|src| ddm_cppfront::parse(src).expect("axis program parses"))
        .collect();
    let programs: Vec<Program> = tus
        .iter()
        .map(|tu| Program::build(tu).expect("axis program resolves"))
        .collect();
    let summaries: Vec<ProgramSummary> = programs
        .iter()
        .map(|p| ProgramSummary::build(p, false, 1))
        .collect();
    let options = CallGraphOptions::default();
    let quiet = Telemetry::disabled();
    let build = |i: usize| {
        CallGraph::build_from_summary_schedule(&programs[i], &summaries[i], &options, &quiet)
            .expect("axis graph")
    };
    let graphs: Vec<CallGraph> = (0..sources.len()).map(|i| build(i).0).collect();
    let n = sources.len();
    let parse = interleaved_min(n, samples, |i| ddm_cppfront::parse(&sources[i]));
    let model = interleaved_min(n, samples, |i| Program::build(&tus[i]));
    let summary = interleaved_min(n, samples, |i| {
        ProgramSummary::build(&programs[i], false, 1)
    });
    let callgraph = interleaved_min(n, samples, build);
    let liveness = interleaved_min(n, samples, |i| {
        DeadMemberAnalysis::new(&programs[i], AnalysisConfig::default()).run_summary_counted(
            &summaries[i],
            &graphs[i],
            &quiet,
        )
    });
    (0..n)
        .map(|i| {
            (
                programs[i].function_count(),
                [parse[i], model[i], summary[i], callgraph[i], liveness[i]],
            )
        })
        .collect()
}

/// One chain per depth, in the `deep_dispatch` shape of the repository
/// benchmark (two virtual methods, 48 ladder rungs).
fn depth_axis(smoke: bool, samples: usize) -> Axis {
    let depths: &[usize] = if smoke { &[64, 128] } else { &[64, 128, 256] };
    let configs: Vec<ScaleConfig> = depths
        .iter()
        .map(|&depth| ScaleConfig {
            chains: 1,
            depth,
            methods_per_class: 2,
            members_per_class: 3,
            rungs: 48,
        })
        .collect();
    let sources: Vec<String> = configs.iter().map(|c| generate_scale(c, 42)).collect();
    let points = measure_layers(&sources, samples)
        .into_iter()
        .zip(&configs)
        .map(|((functions, layers), c)| LayerPoint {
            name: format!("depth{}", c.depth),
            x: c.depth,
            functions,
            config: format!(
                "{{\"chains\": {}, \"depth\": {}, \"methods_per_class\": {}, \"members_per_class\": {}, \"rungs\": {}}}",
                c.chains, c.depth, c.methods_per_class, c.members_per_class, c.rungs
            ),
            layers,
        })
        .collect();
    Axis {
        key: "depth",
        x_label: "depth",
        points,
    }
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
    let sources: Vec<String> = configs.iter().map(|(_, c)| generate(c, seed)).collect();
    let points = measure_layers(&sources, samples)
        .into_iter()
        .zip(configs.iter().zip(&sources))
        .map(|((functions, layers), ((swept, c), src))| LayerPoint {
            name: format!("{key}{swept}"),
            x: x_of(src, c),
            functions,
            config: format!(
                "{{\"classes\": {}, \"members_per_class\": {}, \"methods_per_class\": {}, \"stmts_per_method\": {}, \"objects_in_main\": {}, \"seed\": {seed}}}",
                c.classes, c.members_per_class, c.methods_per_class, c.stmts_per_method, c.objects_in_main
            ),
            layers,
        })
        .collect();
    Axis {
        key,
        x_label,
        points,
    }
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

/// Per-layer exponents against `x` between adjacent points.
fn axis_exponents(axis: &Axis) -> Vec<(&str, &str, [f64; 5])> {
    axis.points
        .windows(2)
        .map(|w| {
            let per_layer = std::array::from_fn(|l| {
                exponent((w[0].x, w[0].layers[l]), (w[1].x, w[1].layers[l]))
            });
            (w[0].name.as_str(), w[1].name.as_str(), per_layer)
        })
        .collect()
}

/// The call-graph scaling exponent between two adjacent ladder sizes.
fn ladder_exponent(w: &[SizeResult]) -> f64 {
    exponent(
        (w[0].functions, w[0].callgraph),
        (w[1].functions, w[1].callgraph),
    )
}

/// log(t2/t1) / log(n2/n1): the empirical scaling exponent between two
/// measurements.
fn exponent(small: (usize, Duration), large: (usize, Duration)) -> f64 {
    let dt = (large.1.as_secs_f64() / small.1.as_secs_f64().max(f64::EPSILON)).ln();
    let dn = (large.0 as f64 / small.0 as f64).ln();
    dt / dn
}

fn render_axis(out: &mut String, axis: &Axis) {
    out.push_str(&format!(",\n  \"{}_axis\": [\n", axis.key));
    for (i, p) in axis.points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"x\": {}, \"functions\": {}, \"config\": {},\n     ",
            p.name, p.x, p.functions, p.config
        ));
        let layers: Vec<String> = LAYERS
            .iter()
            .zip(p.layers)
            .map(|(layer, t)| format!("\"{layer}_ns\": {}", t.as_nanos()))
            .collect();
        out.push_str(&layers.join(", "));
        out.push_str(if i + 1 < axis.points.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str(&format!("  ],\n  \"{}_exponents\": [\n", axis.key));
    let exponents = axis_exponents(axis);
    for (i, (from, to, per_layer)) in exponents.iter().enumerate() {
        let layers: Vec<String> = LAYERS
            .iter()
            .zip(per_layer)
            .map(|(layer, e)| format!("\"{layer}\": {e:.3}"))
            .collect();
        out.push_str(&format!(
            "    {{\"from\": \"{from}\", \"to\": \"{to}\", {}}}{}",
            layers.join(", "),
            if i + 1 < exponents.len() { ",\n" } else { "\n" }
        ));
    }
    out.push_str("  ]");
}

fn render_json(results: &[SizeResult], axes: &[Axis], samples: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"ddm-benchmarks scale generator\",\n");
    out.push_str("  \"algorithm\": \"rta\",\n");
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str(&format!("  \"host\": {},\n", host_meta_json()));
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        let c = &r.config;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"functions\": {}, \"config\": {{\"chains\": {}, \"depth\": {}, \"methods_per_class\": {}, \"members_per_class\": {}, \"rungs\": {}}},\n",
            r.name, r.functions, c.chains, c.depth, c.methods_per_class, c.members_per_class, c.rungs
        ));
        out.push_str(&format!(
            "     \"callgraph_ns\": {},\n",
            r.callgraph.as_nanos()
        ));
        let max_delta = r.deltas.iter().copied().max().unwrap_or(0);
        let sum_delta: u64 = r.deltas.iter().sum();
        out.push_str(&format!(
            "     \"rounds\": {}, \"worklist_pops\": {}, \"ready_drains\": {}, \"delta_sum\": {sum_delta}, \"delta_max\": {max_delta}}}",
            r.rounds, r.worklist_pops, r.ready_drains
        ));
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    if results.len() >= 2 {
        out.push_str(",\n  \"scaling_exponents\": [\n");
        for (i, w) in results.windows(2).enumerate() {
            out.push_str(&format!(
                "    {{\"from\": \"{}\", \"to\": \"{}\", \"callgraph\": {:.3}}}{}",
                w[0].name,
                w[1].name,
                ladder_exponent(w),
                if i + 2 < results.len() { ",\n" } else { "\n" }
            ));
        }
        out.push_str("  ]");
    }
    for axis in axes {
        render_axis(&mut out, axis);
    }
    out.push_str("\n}\n");
    out
}

fn print_axis(axis: &Axis) {
    println!(
        "\n{:<10} {:>12} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        axis.key, axis.x_label, "funcs", "parse", "model", "summary", "callgraph", "liveness"
    );
    for p in &axis.points {
        let [parse, model, summary, callgraph, liveness] = p.layers;
        println!(
            "{:<10} {:>12} {:>8} {parse:>12.1?} {model:>12.1?} {summary:>12.1?} {callgraph:>12.1?} {liveness:>12.1?}",
            p.name, p.x, p.functions
        );
    }
    for (from, to, [parse, model, summary, callgraph, liveness]) in axis_exponents(axis) {
        println!(
            "{} exponent {from} -> {to}: parse {parse:.3}, model {model:.3}, summary {summary:.3}, callgraph {callgraph:.3}, liveness {liveness:.3}",
            axis.key
        );
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
    let results = measure_ladder(sizes(smoke), samples);
    let axes = [
        depth_axis(smoke, samples),
        n_axis(samples),
        cxm_axis(samples),
    ];

    println!(
        "{:<8} {:>8} {:>8} {:>12} {:>9} {:>9}",
        "size", "funcs", "rounds", "callgraph", "pops", "drains"
    );
    for r in &results {
        println!(
            "{:<8} {:>8} {:>8} {:>12.1?} {:>9} {:>9}",
            r.name, r.functions, r.rounds, r.callgraph, r.worklist_pops, r.ready_drains
        );
    }
    let mut worst_exponent: f64 = 0.0;
    for w in results.windows(2) {
        let e = ladder_exponent(w);
        worst_exponent = worst_exponent.max(e);
        println!(
            "exponent {} -> {}: {e:.3}  (full-sweep baseline ~2)",
            w[0].name, w[1].name,
        );
    }
    for axis in &axes {
        print_axis(axis);
    }
    // The summary and call-graph layers are the third and fourth in
    // `LAYERS`.
    let depth_exponents = axis_exponents(&axes[0]);
    let worst_depth = |layer: usize| {
        depth_exponents
            .iter()
            .map(|(_, _, per_layer)| per_layer[layer])
            .fold(0.0_f64, f64::max)
    };
    let (worst_extraction, worst_callgraph) = (worst_depth(2), worst_depth(3));

    if json {
        // The smoke run measures the two smallest sizes only — keep it
        // away from the committed full-sweep BENCH_scale.json.
        let path = if smoke {
            "BENCH_scale_smoke.json"
        } else {
            "BENCH_scale.json"
        };
        let samples = samples.max(LAYER_MIN_SAMPLES);
        std::fs::write(path, render_json(&results, &axes, samples)).expect("write scale JSON");
        println!("wrote {path}");
    }

    if smoke {
        let elapsed = started.elapsed();
        assert!(
            elapsed < SMOKE_CEILING,
            "scale smoke exceeded its wall-clock ceiling: {elapsed:.1?} >= {SMOKE_CEILING:?}"
        );
        assert!(
            worst_exponent <= SMOKE_EXPONENT_CEILING,
            "scaling exponent regressed: {worst_exponent:.3} > {SMOKE_EXPONENT_CEILING}"
        );
        for (layer, worst) in [
            ("summary extraction", worst_extraction),
            ("the call graph", worst_callgraph),
        ] {
            assert!(
                worst <= SMOKE_DEPTH_EXPONENT_CEILING,
                "{layer} grows as depth^{worst:.3} > depth^{SMOKE_DEPTH_EXPONENT_CEILING}"
            );
        }
        println!(
            "smoke OK in {elapsed:.1?} (ceiling {SMOKE_CEILING:?}, worst exponent {worst_exponent:.3}, extraction depth exponent {worst_extraction:.3}, call-graph depth exponent {worst_callgraph:.3})"
        );
    }
}
