//! Scaling benchmark for the delta-driven call-graph fixpoint: generated
//! programs far beyond the paper suite's 31 functions (up to ~131k), with
//! deep virtual hierarchies and long call ladders that force the fixpoint
//! through dozens of park/release rounds.
//!
//! For each size the driver times call-graph construction under both
//! engines (walk and summary replay) at one worker and at eight, captures
//! the delta-worklist telemetry (rounds, per-round delta sizes, worklist
//! pops, readied-site drains), and fits the scaling exponent between
//! consecutive sizes: `ln(t2/t1) / ln(n2/n1)`. A full-set round sweep is
//! Θ(rounds × n); the delta worklist pops each function once and the
//! interned dense hot loops do no per-pop hashing, so the exponent stays
//! near 1.
//!
//! The ladder grows by adding *chains* (independent hierarchies) at a
//! fixed depth and rung count, so per-chain work is constant and the
//! ideal exponent is exactly 1 — any superlinearity is the engine's own.
//!
//! A second axis grows one chain's *depth* (64, 128, 256) instead, so
//! every dispatch table grows with it, and times each layer on its own:
//! parse, model, summary extraction (`ProgramSummary::build`, where the
//! dispatch tables are built) and the call-graph fixpoint
//! (`CallGraph::build_from_summary`). Each layer's exponent against
//! depth shows which one a superlinear member lookup lands in.
//!
//! ```text
//! bench_scale [--json] [--samples N] [--smoke] [--emit PATH]
//! ```
//!
//! `--json` writes `BENCH_scale.json`. `--smoke` runs the two smallest
//! sizes with one sample and the depths 64 and 128, and fails on a
//! wall-clock ceiling, a scaling exponent above
//! [`SMOKE_EXPONENT_CEILING`], an extraction depth exponent above
//! [`SMOKE_DEPTH_EXPONENT_CEILING`], or an eight-worker run slower than
//! one worker beyond noise — the CI gates. `--emit PATH` writes the
//! smallest size's generated source to `PATH` so the CI trace gate has a
//! program big enough to shard eight ways.

use ddm_bench::{effective_jobs, host_meta_json, timing};
use ddm_benchmarks::generator::{generate_scale, scale_function_count, ScaleConfig};
use ddm_callgraph::{Algorithm, CallGraph, CallGraphOptions};
use ddm_hierarchy::{MemberLookup, Program, ProgramSummary};
use ddm_telemetry::Telemetry;
use std::time::{Duration, Instant};

/// Wall-clock ceiling for `--smoke` (generation + parse + both engines
/// at both worker counts, two sizes).
const SMOKE_CEILING: Duration = Duration::from_secs(30);

/// `--smoke` fails if any adjacent-size scaling exponent exceeds this.
/// The committed full sweep stays under 1.25; 1.4 leaves headroom for
/// small-size noise while still catching a quadratic regression (~2)
/// immediately.
const SMOKE_EXPONENT_CEILING: f64 = 1.4;

/// `--smoke` fails if summary extraction grows faster than this power
/// of chain depth. With linear-time member lookup each of the chain's
/// dispatch tables costs O(depth), and extraction measures about 1.3
/// from depth 64 to 128; the all-pairs hiding filter it replaced
/// measured about 2.4.
const SMOKE_DEPTH_EXPONENT_CEILING: f64 = 2.0;

/// Minimum samples per depth-axis layer: each takes well under a
/// millisecond at depth 64, where a single sample is too noisy to gate.
const DEPTH_MIN_SAMPLES: usize = 15;

/// `--smoke` fails if an eight-worker run is slower than one worker by
/// more than this factor. Sharding must pay for itself (or, clamped to
/// one worker on a single-CPU host, be the identical schedule), so
/// anything past noise is a regression.
const SMOKE_JOBS_TOLERANCE: f64 = 1.15;

struct SizeResult {
    name: &'static str,
    config: ScaleConfig,
    functions: usize,
    walk_cg: Duration,
    walk_cg_j8: Duration,
    summary_cg: Duration,
    summary_cg_j8: Duration,
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

fn measure(name: &'static str, config: ScaleConfig, samples: usize) -> SizeResult {
    let src = generate_scale(&config, 42);
    let tu = ddm_cppfront::parse(&src).expect("scale program parses");
    let program = Program::build(&tu).expect("scale program resolves");
    assert_eq!(program.function_count(), scale_function_count(&config));
    let options = CallGraphOptions {
        algorithm: Algorithm::Rta,
        ..Default::default()
    };
    let jobs8 = effective_jobs(8);
    let options_j8 = CallGraphOptions {
        algorithm: Algorithm::Rta,
        jobs: jobs8,
        ..Default::default()
    };

    let (walk_cg, _) = timing::time(samples, || {
        let lookup = MemberLookup::new(&program);
        CallGraph::build(&program, &lookup, &options).unwrap()
    });
    let (walk_cg_j8, _) = timing::time(samples, || {
        let lookup = MemberLookup::new(&program);
        CallGraph::build(&program, &lookup, &options_j8).unwrap()
    });
    let (summary_cg, _) = timing::time(samples, || {
        let summary = ProgramSummary::build(&program, false, 1);
        CallGraph::build_from_summary(&program, &summary, &options).unwrap()
    });
    let (summary_cg_j8, _) = timing::time(samples, || {
        let summary = ProgramSummary::build(&program, false, jobs8);
        CallGraph::build_from_summary(&program, &summary, &options_j8).unwrap()
    });

    // Deterministic worklist telemetry: capture once per engine and
    // insist the two engines agree — the delta schedule is shared, so
    // pops, drains, and per-round delta sizes must be identical. The
    // eight-worker walk must also produce the identical graph and
    // counters: parallel rounds only pre-extract, never reschedule.
    let walk_tel = Telemetry::enabled();
    let lookup = MemberLookup::new(&program);
    let walked = CallGraph::build_with(&program, &lookup, &options, &walk_tel).unwrap();
    let walk8_tel = Telemetry::enabled();
    let walked8 = CallGraph::build_with(&program, &lookup, &options_j8, &walk8_tel).unwrap();
    assert_eq!(walked, walked8, "{name}: jobs=8 walk diverged from jobs=1");
    let summary_tel = Telemetry::enabled();
    let summary = ProgramSummary::build(&program, false, 1);
    let replayed =
        CallGraph::build_from_summary_with(&program, &summary, &options, &summary_tel).unwrap();
    assert_eq!(walked, replayed, "{name}: engines disagree on the graph");
    let wc = walk_tel.counters();
    let w8c = walk8_tel.counters();
    let sc = summary_tel.counters();
    assert_eq!(
        (wc.cg_worklist_pops, wc.cg_ready_drains),
        (sc.cg_worklist_pops, sc.cg_ready_drains),
        "{name}: worklist counters differ across engines"
    );
    assert_eq!(
        (wc.cg_worklist_pops, wc.cg_ready_drains),
        (w8c.cg_worklist_pops, w8c.cg_ready_drains),
        "{name}: worklist counters differ across worker counts"
    );
    let ws = walk_tel.stats();
    let ss = summary_tel.stats();
    assert_eq!(
        ws.cg_round_deltas, ss.cg_round_deltas,
        "{name}: per-round delta sizes differ across engines"
    );

    SizeResult {
        name,
        config,
        functions: program.function_count(),
        walk_cg,
        walk_cg_j8,
        summary_cg,
        summary_cg_j8,
        rounds: ss.callgraph_rounds,
        worklist_pops: sc.cg_worklist_pops,
        ready_drains: sc.cg_ready_drains,
        deltas: ss.cg_round_deltas,
    }
}

/// The layers the depth axis times, in pipeline order.
const DEPTH_LAYERS: [&str; 4] = ["parse", "model", "summary", "callgraph"];

struct DepthResult {
    config: ScaleConfig,
    functions: usize,
    /// Minimum time per layer, in [`DEPTH_LAYERS`] order.
    layers: [Duration; 4],
}

fn depths(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![64, 128]
    } else {
        vec![64, 128, 256]
    }
}

/// The minimum time of `f(i)` for each input `i < inputs`, after two
/// warm-up rounds. The inputs are sampled in turn, so a change in host
/// speed during the measurement shifts all of them alike instead of
/// skewing the exponents between them.
fn interleaved_min<T>(
    inputs: usize,
    samples: usize,
    mut f: impl FnMut(usize) -> T,
) -> Vec<Duration> {
    let mut best = vec![Duration::MAX; inputs];
    for round in 0..samples + 2 {
        for (i, b) in best.iter_mut().enumerate() {
            let t0 = Instant::now();
            std::hint::black_box(f(i));
            if round >= 2 {
                *b = (*b).min(t0.elapsed());
            }
        }
    }
    best
}

/// One chain per depth, in the `deep_dispatch` shape of the repository
/// benchmark (two virtual methods, 48 ladder rungs), each layer timed
/// on its own.
fn measure_depths(depths: &[usize], samples: usize) -> Vec<DepthResult> {
    let samples = samples.max(DEPTH_MIN_SAMPLES);
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
    let tus: Vec<_> = sources
        .iter()
        .map(|src| ddm_cppfront::parse(src).expect("depth program parses"))
        .collect();
    let programs: Vec<Program> = tus
        .iter()
        .map(|tu| Program::build(tu).expect("depth program resolves"))
        .collect();
    let summaries: Vec<ProgramSummary> = programs
        .iter()
        .map(|p| ProgramSummary::build(p, false, 1))
        .collect();
    let options = CallGraphOptions {
        algorithm: Algorithm::Rta,
        ..Default::default()
    };
    let n = depths.len();
    let parse = interleaved_min(n, samples, |i| ddm_cppfront::parse(&sources[i]));
    let model = interleaved_min(n, samples, |i| Program::build(&tus[i]));
    let summary = interleaved_min(n, samples, |i| {
        ProgramSummary::build(&programs[i], false, 1)
    });
    let callgraph = interleaved_min(n, samples, |i| {
        CallGraph::build_from_summary(&programs[i], &summaries[i], &options)
    });
    (0..n)
        .map(|i| DepthResult {
            config: configs[i],
            functions: programs[i].function_count(),
            layers: [parse[i], model[i], summary[i], callgraph[i]],
        })
        .collect()
}

/// Per-layer exponents against depth between adjacent depths.
fn depth_exponents(results: &[DepthResult]) -> Vec<(usize, usize, [f64; 4])> {
    results
        .windows(2)
        .map(|w| {
            let per_layer = std::array::from_fn(|l| {
                exponent(
                    (w[0].config.depth, w[0].layers[l]),
                    (w[1].config.depth, w[1].layers[l]),
                )
            });
            (w[0].config.depth, w[1].config.depth, per_layer)
        })
        .collect()
}

/// log(t2/t1) / log(n2/n1): the empirical scaling exponent between two
/// measurements.
fn exponent(small: (usize, Duration), large: (usize, Duration)) -> f64 {
    let dt = (large.1.as_secs_f64() / small.1.as_secs_f64().max(f64::EPSILON)).ln();
    let dn = (large.0 as f64 / small.0 as f64).ln();
    dt / dn
}

fn render_json(results: &[SizeResult], deep: &[DepthResult], samples: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"ddm-benchmarks scale generator\",\n");
    out.push_str("  \"algorithm\": \"rta\",\n");
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str(&format!("  \"jobs8_effective\": {},\n", effective_jobs(8)));
    out.push_str(&format!("  \"host\": {},\n", host_meta_json()));
    out.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        let c = &r.config;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"functions\": {}, \"config\": {{\"chains\": {}, \"depth\": {}, \"methods_per_class\": {}, \"members_per_class\": {}, \"rungs\": {}}},\n",
            r.name, r.functions, c.chains, c.depth, c.methods_per_class, c.members_per_class, c.rungs
        ));
        out.push_str(&format!(
            "     \"walk_callgraph_ns\": {}, \"walk_callgraph_jobs8_ns\": {}, \"summary_callgraph_ns\": {}, \"summary_callgraph_jobs8_ns\": {},\n",
            r.walk_cg.as_nanos(),
            r.walk_cg_j8.as_nanos(),
            r.summary_cg.as_nanos(),
            r.summary_cg_j8.as_nanos()
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
        for w in results.windows(2) {
            let walk = exponent(
                (w[0].functions, w[0].walk_cg),
                (w[1].functions, w[1].walk_cg),
            );
            let summary = exponent(
                (w[0].functions, w[0].summary_cg),
                (w[1].functions, w[1].summary_cg),
            );
            let summary_j8 = exponent(
                (w[0].functions, w[0].summary_cg_j8),
                (w[1].functions, w[1].summary_cg_j8),
            );
            out.push_str(&format!(
                "    {{\"from\": \"{}\", \"to\": \"{}\", \"walk\": {walk:.3}, \"summary\": {summary:.3}, \"summary_jobs8\": {summary_j8:.3}}}{}",
                w[0].name,
                w[1].name,
                if w[1].name == results.last().unwrap().name { "\n" } else { ",\n" }
            ));
        }
        out.push_str("  ]");
    }
    out.push_str(",\n  \"depth_axis\": [\n");
    for (i, r) in deep.iter().enumerate() {
        let c = &r.config;
        out.push_str(&format!(
            "    {{\"name\": \"depth{}\", \"functions\": {}, \"config\": {{\"chains\": {}, \"depth\": {}, \"methods_per_class\": {}, \"members_per_class\": {}, \"rungs\": {}}},\n     ",
            c.depth, r.functions, c.chains, c.depth, c.methods_per_class, c.members_per_class, c.rungs
        ));
        let layers: Vec<String> = DEPTH_LAYERS
            .iter()
            .zip(r.layers)
            .map(|(layer, t)| format!("\"{layer}_ns\": {}", t.as_nanos()))
            .collect();
        out.push_str(&layers.join(", "));
        out.push_str(if i + 1 < deep.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n  \"depth_exponents\": [\n");
    let exponents = depth_exponents(deep);
    for (i, (from, to, per_layer)) in exponents.iter().enumerate() {
        let layers: Vec<String> = DEPTH_LAYERS
            .iter()
            .zip(per_layer)
            .map(|(layer, e)| format!("\"{layer}\": {e:.3}"))
            .collect();
        out.push_str(&format!(
            "    {{\"from\": \"depth{from}\", \"to\": \"depth{to}\", {}}}{}",
            layers.join(", "),
            if i + 1 < exponents.len() { ",\n" } else { "\n" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let emit = args
        .iter()
        .position(|a| a == "--emit")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: --emit needs a path");
            std::process::exit(2);
        }));
    let samples = args
        .iter()
        .position(|a| a == "--samples")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(if smoke { 1 } else { 3 });

    if let Some(path) = &emit {
        let (_, config) = sizes(true).remove(0);
        std::fs::write(path, generate_scale(&config, 42)).expect("write emitted source");
        println!(
            "emitted {path} ({} functions)",
            scale_function_count(&config)
        );
        if !json && !smoke {
            return; // emit-only invocation: no measurement requested
        }
    }

    let started = Instant::now();
    let results: Vec<SizeResult> = sizes(smoke)
        .into_iter()
        .map(|(name, config)| measure(name, config, samples))
        .collect();
    let deep = measure_depths(&depths(smoke), samples);

    println!(
        "{:<8} {:>8} {:>8} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "size", "funcs", "rounds", "walk", "walk j8", "summary", "summary j8", "pops", "drains"
    );
    for r in &results {
        println!(
            "{:<8} {:>8} {:>8} {:>12.1?} {:>12.1?} {:>12.1?} {:>12.1?} {:>9} {:>9}",
            r.name,
            r.functions,
            r.rounds,
            r.walk_cg,
            r.walk_cg_j8,
            r.summary_cg,
            r.summary_cg_j8,
            r.worklist_pops,
            r.ready_drains
        );
    }
    let mut worst_exponent: f64 = 0.0;
    for w in results.windows(2) {
        let walk = exponent(
            (w[0].functions, w[0].walk_cg),
            (w[1].functions, w[1].walk_cg),
        );
        let summary = exponent(
            (w[0].functions, w[0].summary_cg),
            (w[1].functions, w[1].summary_cg),
        );
        worst_exponent = worst_exponent.max(walk).max(summary);
        println!(
            "exponent {} -> {}: walk {walk:.3}, summary {summary:.3}  (full-sweep baseline ~2)",
            w[0].name, w[1].name,
        );
    }

    println!(
        "\n{:<8} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "depth", "funcs", "parse", "model", "summary", "callgraph"
    );
    for r in &deep {
        let [parse, model, summary, callgraph] = r.layers;
        println!(
            "{:<8} {:>8} {parse:>12.1?} {model:>12.1?} {summary:>12.1?} {callgraph:>12.1?}",
            r.config.depth, r.functions
        );
    }
    let mut worst_extraction: f64 = 0.0;
    for (from, to, [parse, model, summary, callgraph]) in depth_exponents(&deep) {
        worst_extraction = worst_extraction.max(summary);
        println!(
            "depth exponent {from} -> {to}: parse {parse:.3}, model {model:.3}, summary {summary:.3}, callgraph {callgraph:.3}"
        );
    }

    if json {
        // The smoke run measures the two smallest sizes only — keep it
        // away from the committed full-sweep BENCH_scale.json.
        let path = if smoke {
            "BENCH_scale_smoke.json"
        } else {
            "BENCH_scale.json"
        };
        std::fs::write(path, render_json(&results, &deep, samples)).expect("write scale JSON");
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
        assert!(
            worst_extraction <= SMOKE_DEPTH_EXPONENT_CEILING,
            "summary extraction grows as depth^{worst_extraction:.3} > depth^{SMOKE_DEPTH_EXPONENT_CEILING}"
        );
        for r in &results {
            for (label, j1, j8) in [
                ("walk", r.walk_cg, r.walk_cg_j8),
                ("summary", r.summary_cg, r.summary_cg_j8),
            ] {
                assert!(
                    j8 <= j1.mul_f64(SMOKE_JOBS_TOLERANCE),
                    "{} {label}: jobs=8 ({j8:.1?}) slower than jobs=1 ({j1:.1?}) beyond {SMOKE_JOBS_TOLERANCE}x",
                    r.name
                );
            }
        }
        println!(
            "smoke OK in {elapsed:.1?} (ceiling {SMOKE_CEILING:?}, worst exponent {worst_exponent:.3}, extraction depth exponent {worst_extraction:.3})"
        );
    }
}
