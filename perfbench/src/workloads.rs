//! The four workloads, their set-up, their measured loops and their
//! metrics. See `BENCHMARK.md` next to this package for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

use crate::gen::{self, Edit, EditKind, EditableProject, Project, Sizes, DEFAULT_SEED};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::{traced_op, Recorder, Span, OP_SPAN};
use crate::verdict::{committed_lines, one_shot, Verdict, ALGORITHM};
use ddm_benchmarks::rng::Rng;
use ddm_core::{serve, AnalysisConfig, Engine, EpochSnapshot, ProjectPipeline, ServeOptions};
use ddm_telemetry::{json, Telemetry};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, PipeReader, PipeWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot analyses of fresh multi-TU projects into a fresh cache.
    ColdProject,
    /// Scripted edits to one warm project under a persistent cache.
    EditLoop,
    /// Queries against `ddm serve` while files change underneath it.
    ServeMixed,
    /// Cacheless analyses of deep virtual-dispatch chains.
    DeepDispatch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdProject,
        Workload::EditLoop,
        Workload::ServeMixed,
        Workload::DeepDispatch,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdProject => "cold_project",
            Workload::EditLoop => "edit_loop",
            Workload::ServeMixed => "serve_mixed",
            Workload::DeepDispatch => "deep_dispatch",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The generated inputs of `workload`, named.
pub fn inputs(workload: Workload, sizes: &Sizes, seed: u64) -> Vec<(String, Project)> {
    match workload {
        Workload::ColdProject => gen::cold_pool(sizes, seed),
        Workload::EditLoop | Workload::ServeMixed => {
            vec![("base".to_string(), gen::edit_project(sizes, seed))]
        }
        Workload::DeepDispatch => gen::deep_pool(sizes, seed),
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory the run owns (wiped before and after).
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A run's result: the last line the benchmark prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output matched its expected verdict and every check held.
    pub correct: bool,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
}

/// How many times a run sets its workload up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Worker count of the serve workload's daemon (readers and front end).
const SERVE_JOBS: usize = 2;

/// Interval of the serve workload's open-loop edit schedule. A one-file
/// rebuild of the 24-TU project takes about 8 ms on a 2-CPU x86-64
/// host, so rebuilds keep about a quarter of one core busy.
const SERVE_EDIT_PERIOD: Duration = Duration::from_millis(32);

/// Operations a pipeline run makes at least, even past `--seconds` on a
/// slow host, so its p90 has ten samples above it.
const MIN_OPS: u64 = 100;

/// Length of the scripted edit sequence (cycled; every edit still gets
/// fresh content).
const SCRIPT_LEN: usize = 4096;

/// Members `serve_mixed` explains, half live and half dead.
const EXPLAIN_TARGETS: usize = 32;

/// Per-layer times of a traced run: the metric and the span whose mean
/// self time per operation it reports, in ns.
const LAYER_TIMES: [(&str, &str); 22] = [
    ("cppfront.parse_ns", "cppfront.parse"),
    ("hierarchy.model_ns", "hierarchy.model"),
    ("hierarchy.summary_ns", "hierarchy.summary"),
    ("hierarchy.extract_ns", "hierarchy.extract"),
    (
        "hierarchy.module_json_encode_ns",
        "hierarchy.module_json_encode",
    ),
    ("hierarchy.link_ns", "hierarchy.link"),
    ("hierarchy.link_delta_ns", "hierarchy.link_delta"),
    ("snapshot.load_ns", "snapshot.load"),
    ("snapshot.decode_ns", "snapshot.decode"),
    ("snapshot.encode_ns", "snapshot.encode"),
    ("snapshot.save_ns", "snapshot.save"),
    ("project.hash_ns", "project.hash"),
    ("project.probe_ns", "project.probe"),
    ("project.writeback_ns", "project.writeback"),
    ("project.assemble_ns", "project.assemble"),
    ("project.free_ns", "project.free"),
    ("callgraph.build_ns", "callgraph.build"),
    ("callgraph.replay_ns", "callgraph.replay"),
    ("liveness.scan_ns", "liveness.scan"),
    ("liveness.used_ns", "liveness.used"),
    ("report.render_ns", "report.render"),
    ("explain.render_ns", "explain.render"),
];

/// Per-layer counts of a traced run, reported as a mean per operation:
/// the metric (also the count's name) and its unit.
const LAYER_COUNTS: [(&str, &str); 9] = [
    ("cppfront.parse_bytes", "bytes"),
    ("hierarchy.summary_fns", "count"),
    ("hierarchy.module_json_bytes", "bytes"),
    ("snapshot.bytes", "bytes"),
    ("callgraph.worklist_pops", "count"),
    ("callgraph.edges", "count"),
    ("liveness.scan_reads", "count"),
    ("report.bytes", "bytes"),
    ("explain.bytes", "bytes"),
];

/// Failure bookkeeping shared by every workload.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// A check outside the timed operations failed (e.g. the committed
    /// verdicts disagree).
    broken: bool,
}

impl Tally {
    fn record(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: failed op: {why}");
            }
        }
    }
}

/// The reference snapshot and expected verdict of every input. With the
/// default seed at full size the verdicts must also match the committed
/// file; a mismatch marks the run incorrect.
fn expected_verdicts(
    opts: &Options,
    inputs: &[(String, Project)],
    tally: &mut Tally,
) -> Result<Vec<(Arc<EpochSnapshot>, Verdict)>, String> {
    let reference = inputs
        .iter()
        .map(|(_, project)| one_shot(project))
        .collect::<Result<Vec<_>, String>>()?;
    if opts.seed == DEFAULT_SEED && opts.sizes == Sizes::FULL {
        let committed = committed_lines()?;
        for ((name, _), (_, verdict)) in inputs.iter().zip(&reference) {
            let line = verdict.line(opts.workload.name(), name);
            if !committed.contains(&line) {
                eprintln!("perfbench: verdict differs from the committed file: {line}");
                tally.broken = true;
            }
        }
    }
    Ok(reference)
}

/// Result of one timed pipeline operation.
struct Sample {
    ms: f64,
    kind: Option<EditKind>,
    hits: u64,
    misses: u64,
    reused: bool,
}

/// State of the three pipeline workloads (everything but serve).
struct PipelineBench {
    workload: Workload,
    pool: Vec<Project>,
    expected: Vec<Verdict>,
    edits: Option<EditState>,
    work: PathBuf,
}

/// The edit loop's project, script and cache.
struct EditState {
    project: EditableProject,
    inputs: Project,
    script: Vec<Edit>,
    cache: PathBuf,
    applied: usize,
}

/// The `K<n>` class a header edit rewrites: the first instantiated one,
/// so its constructor is reachable and the edit forces a re-solve.
fn header_class(snapshot: &EpochSnapshot) -> Result<usize, String> {
    let program = snapshot.program();
    snapshot
        .callgraph()
        .instantiated()
        .filter_map(|c| {
            program
                .class(c)
                .name
                .strip_prefix('K')?
                .parse::<usize>()
                .ok()
        })
        .min()
        .ok_or_else(|| "no generated header class is instantiated".to_string())
}

/// An editable copy of the edit workloads' project, after checking on a
/// clone that one edit of each kind leaves the verdict unchanged.
fn editable(
    project: &Project,
    base: &EpochSnapshot,
    expected: &Verdict,
) -> Result<EditableProject, String> {
    let editable = EditableProject::new(project, header_class(base)?)?;
    for kind in [EditKind::Leaf, EditKind::Body, EditKind::Header] {
        let mut probe = editable.clone();
        probe.apply(
            Edit {
                kind,
                tu: probe.tu_count() - 1,
            },
            1,
        );
        if one_shot(&probe.project())?.1 != *expected {
            return Err(format!("a {} edit changed the verdict", kind.name()));
        }
    }
    Ok(editable)
}

impl PipelineBench {
    fn setup(opts: &Options, tally: &mut Tally) -> Result<PipelineBench, String> {
        let named = inputs(opts.workload, &opts.sizes, opts.seed);
        let reference = expected_verdicts(opts, &named, tally)?;
        let expected: Vec<Verdict> = reference.iter().map(|(_, v)| *v).collect();
        let pool: Vec<Project> = named.into_iter().map(|(_, p)| p).collect();
        let edits = match opts.workload {
            Workload::EditLoop => {
                let project = editable(&pool[0], &reference[0].0, &expected[0])?;
                let cache = opts.work.join("cache");
                // Warm the cache: the loop starts from a published snapshot.
                ProjectPipeline::run(
                    &pool[0],
                    AnalysisConfig::default(),
                    ALGORITHM,
                    1,
                    Engine::Summary,
                    Some(&cache),
                    &Telemetry::disabled(),
                )
                .map_err(|e| e.to_string())?;
                Some(EditState {
                    inputs: project.project(),
                    script: gen::edit_script(opts.seed, project.tu_count(), SCRIPT_LEN, true),
                    project,
                    cache,
                    applied: 0,
                })
            }
            _ => None,
        };
        Ok(PipelineBench {
            workload: opts.workload,
            pool,
            expected,
            edits,
            work: opts.work.clone(),
        })
    }

    /// Runs operation `i`, traced into `rec` when given.
    fn op(&mut self, i: u64, rec: Option<&mut Recorder>) -> Result<Sample, String> {
        let cold_cache = self.work.join("cold");
        let (inputs, cache, expected, kind): (&Project, Option<&Path>, Verdict, Option<EditKind>) =
            match (&mut self.edits, self.workload) {
                (Some(state), _) => {
                    let edit = state.script[state.applied % state.script.len()];
                    state.applied += 1;
                    for t in state.project.apply(edit, state.applied as u64) {
                        state.inputs[t].1 = state.project.render(t);
                    }
                    (
                        &state.inputs,
                        Some(state.cache.as_path()),
                        self.expected[0],
                        Some(edit.kind),
                    )
                }
                (None, Workload::ColdProject) => {
                    let p = i as usize % self.pool.len();
                    (
                        &self.pool[p],
                        Some(cold_cache.as_path()),
                        self.expected[p],
                        None,
                    )
                }
                (None, _) => {
                    let p = i as usize % self.pool.len();
                    (&self.pool[p], None, self.expected[p], None)
                }
            };

        let (ms, verdict, hits, misses, reused_fns) = match rec {
            None => {
                let telemetry = Telemetry::enabled();
                let start = Instant::now();
                let run = ProjectPipeline::run(
                    inputs,
                    AnalysisConfig::default(),
                    ALGORITHM,
                    1,
                    Engine::Summary,
                    cache,
                    &telemetry,
                );
                let report = run
                    .as_ref()
                    .map_or(0, |r| r.snapshot().render_report(false).len());
                let ms = start.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(report);
                let run = run.map_err(|e| e.to_string())?;
                let stats = telemetry.stats();
                let verdict = Verdict::of(run.program(), run.liveness(), telemetry.counters());
                (
                    ms,
                    verdict,
                    stats.tu_cache_hits,
                    stats.tu_cache_misses,
                    stats.snapshot_reused_fns,
                )
            }
            Some(rec) => {
                let out = traced_op(rec, i, inputs, cache)?;
                (out.ms, out.verdict, out.hits, out.misses, out.reused_fns)
            }
        };
        if self.workload == Workload::ColdProject {
            let _ = std::fs::remove_dir_all(&cold_cache);
        }
        if verdict != expected {
            return Err(format!(
                "{} op {i}: verdict differs from the cold one-shot",
                self.workload.name()
            ));
        }
        if let Some(kind) = kind {
            let tus = inputs.len() as u64;
            let path_ok = match kind {
                EditKind::Leaf => misses == 1 && reused_fns > 0,
                EditKind::Body => misses == 1 && reused_fns == 0,
                EditKind::Header => misses == tus,
            };
            if !path_ok {
                return Err(format!(
                    "{} edit {i} took the wrong path: {misses} misses, {reused_fns} reused functions",
                    kind.name()
                ));
            }
        }
        Ok(Sample {
            ms,
            kind,
            hits,
            misses,
            reused: reused_fns > 0,
        })
    }
}

/// Latencies and path outcomes of the samples a phase produced.
#[derive(Debug, Default)]
struct Phase {
    ms: Vec<f64>,
    by_kind: Vec<(EditKind, f64)>,
    hits: u64,
    lookups: u64,
    reused_ops: u64,
}

impl Phase {
    fn add(&mut self, s: &Sample) {
        self.ms.push(s.ms);
        if let Some(kind) = s.kind {
            self.by_kind.push((kind, s.ms));
        }
        self.hits += s.hits;
        self.lookups += s.hits + s.misses;
        self.reused_ops += u64::from(s.reused);
    }

    fn kind_p50(&self, kind: EditKind) -> f64 {
        let ms: Vec<f64> = self
            .by_kind
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, ms)| *ms)
            .collect();
        median(&ms)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// End-to-end metrics shared by every workload.
fn end_to_end(setup: &[f64], ms: &[f64]) -> Vec<Metric> {
    vec![
        Metric {
            name: "setup_s",
            value: median(setup),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
        Metric {
            name: "p50_ms",
            value: median(ms),
            unit: "ms",
        },
        Metric {
            name: "p90_ms",
            value: quantile(ms, 0.9),
            unit: "ms",
        },
    ]
}

/// Serve-side observations of a run (none for the other workloads).
#[derive(Debug, Default)]
struct ServeFacts {
    notifies: u64,
    build_ns: Vec<f64>,
    late_ms: Vec<f64>,
    lag_ms: Vec<f64>,
}

/// Per-layer metrics of a traced run.
fn per_layer(rec: &Recorder, untraced: &Phase, traced: &Phase, serve: &ServeFacts) -> Vec<Metric> {
    let ops = rec.ops().max(1) as f64;
    let self_ns = rec.self_time_by_name();
    let mean = |span: &str| self_ns.get(span).copied().unwrap_or(0) as f64 / ops;
    let mut out: Vec<Metric> = LAYER_TIMES
        .iter()
        .map(|&(name, span)| Metric {
            name,
            value: mean(span),
            unit: "ns",
        })
        .collect();
    out.extend(LAYER_COUNTS.iter().map(|&(name, unit)| Metric {
        name,
        value: rec.total(name) / ops,
        unit,
    }));
    let op_wall = rec
        .spans()
        .iter()
        .filter(|s| s.name == OP_SPAN)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum::<f64>()
        / ops;
    let both = |f: fn(&Phase) -> u64| f(untraced) + f(traced);
    let untraced_p50 = median(&untraced.ms);
    out.extend([
        Metric {
            name: "project.op_wall_ns",
            value: op_wall,
            unit: "ns",
        },
        Metric {
            name: "project.unattributed_ns",
            value: mean(OP_SPAN),
            unit: "ns",
        },
        Metric {
            name: "project.cache_hit_ratio",
            value: ratio(both(|p| p.hits), both(|p| p.lookups)),
            unit: "ratio",
        },
        Metric {
            name: "project.fixpoint_reuse_ratio",
            value: ratio(both(|p| p.reused_ops), both(|p| p.ms.len() as u64)),
            unit: "ratio",
        },
        Metric {
            name: "edit.leaf_p50_ms",
            value: untraced.kind_p50(EditKind::Leaf),
            unit: "ms",
        },
        Metric {
            name: "edit.body_p50_ms",
            value: untraced.kind_p50(EditKind::Body),
            unit: "ms",
        },
        Metric {
            name: "edit.header_p50_ms",
            value: untraced.kind_p50(EditKind::Header),
            unit: "ms",
        },
        Metric {
            name: "serve.build_ns",
            value: median(&serve.build_ns),
            unit: "ns",
        },
        Metric {
            name: "serve.generator_late_ms",
            value: median(&serve.late_ms),
            unit: "ms",
        },
        Metric {
            name: "serve.epoch_lag_ms",
            value: median(&serve.lag_ms),
            unit: "ms",
        },
        Metric {
            name: "trace.overhead_pct",
            value: if untraced_p50 > 0.0 {
                (median(&traced.ms) / untraced_p50 - 1.0) * 100.0
            } else {
                0.0
            },
            unit: "%",
        },
    ]);
    out
}

/// Wipes and recreates the run's scratch directory.
fn reset(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Runs one workload as `opts` asks.
///
/// # Errors
///
/// Set-up failures (inputs that do not analyse, an unwritable scratch
/// directory). Failures of timed operations are counted, not returned.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let result = match opts.workload {
        Workload::ServeMixed => run_serve(opts),
        _ => run_pipeline(opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work);
    result
}

fn run_pipeline(opts: &Options) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        reset(&opts.work)?;
        let start = Instant::now();
        bench = Some(PipelineBench::setup(opts, &mut tally)?);
        setup.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("set up at least once");

    // With a recorder, every other pass over the input pool is traced,
    // so both halves see the same inputs, cache states and host
    // conditions.
    let mut rec = opts.trace.then(Recorder::default);
    let mut phases: [Phase; 2] = Default::default();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < opts.seconds || i < MIN_OPS {
        let traced = rec.is_some() && (i as usize / bench.pool.len()) % 2 == 1;
        let sample = bench.op(i, rec.as_mut().filter(|_| traced));
        i += 1;
        tally.record(sample.map(|s| phases[usize::from(traced)].add(&s)));
    }
    let [untraced, traced] = phases;
    let metrics = match &rec {
        Some(rec) => {
            write_trace(opts, rec);
            per_layer(rec, &untraced, &traced, &ServeFacts::default())
        }
        None => end_to_end(&setup, &untraced.ms),
    };
    Ok(Outcome {
        correct: tally.failed == 0 && !tally.broken,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn write_trace(opts: &Options, rec: &Recorder) {
    if let Some(path) = &opts.trace_out {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = rec.write(path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

// ---------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------

/// A `ddm serve` running on a thread of this process, spoken to over
/// two OS pipes.
struct ServeSession {
    requests: PipeWriter,
    responses: BufReader<PipeReader>,
    thread: std::thread::JoinHandle<Result<(), String>>,
}

impl ServeSession {
    fn start(options: ServeOptions) -> Result<ServeSession, String> {
        let (req_rx, req_tx) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
        let (resp_rx, resp_tx) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
        let thread = std::thread::spawn(move || serve(&options, BufReader::new(req_rx), resp_tx));
        Ok(ServeSession {
            requests: req_tx,
            responses: BufReader::new(resp_rx),
            thread,
        })
    }

    fn send(&mut self, request: &str) -> Result<(), String> {
        self.requests
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("request write failed: {e}"))
    }

    fn recv(&mut self) -> Result<json::Value, String> {
        let mut line = String::new();
        match self.responses.read_line(&mut line) {
            Ok(0) => Err("serve closed its output".to_string()),
            Ok(_) => json::parse(line.trim()).map_err(|e| format!("bad response: {e}")),
            Err(e) => Err(format!("response read failed: {e}")),
        }
    }

    fn call(&mut self, request: &str) -> Result<json::Value, String> {
        self.send(request)?;
        self.recv()
    }

    /// Shuts the daemon down and joins its thread. Closing the request
    /// pipe ends the session even if the shutdown request fails.
    fn finish(mut self) -> Result<(), String> {
        let _ = self.call("{\"cmd\":\"shutdown\"}");
        drop(self.requests);
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err("serve thread panicked".to_string()),
        }
    }
}

fn field_ok(v: &json::Value) -> bool {
    v.get("ok").and_then(json::Value::as_bool) == Some(true)
}

fn field_epoch(v: &json::Value) -> u64 {
    v.get("epoch").and_then(json::Value::as_int).unwrap_or(0) as u64
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// A query and the exact output a correct daemon answers it with.
struct Query {
    request: String,
    expected: String,
    explain: Option<String>,
}

/// The serve workload's state after set-up.
struct ServeBench {
    session: ServeSession,
    base: Arc<EpochSnapshot>,
    project: EditableProject,
    paths: Vec<String>,
    queries: Vec<Query>,
    script: Vec<Edit>,
    rng: Rng,
}

/// Writes `contents` to `path` through a temp file and a rename, so the
/// daemon's builder never reads a half-written file.
fn write_atomic(path: &str, contents: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("cannot write {path}: {e}"))
}

impl ServeBench {
    fn setup(opts: &Options, tally: &mut Tally) -> Result<ServeBench, String> {
        let named = inputs(opts.workload, &opts.sizes, opts.seed);
        let (base, expected) = expected_verdicts(opts, &named, tally)?.swap_remove(0);
        let project = editable(&named[0].1, &base, &expected)?;

        let src = opts.work.join("src");
        std::fs::create_dir_all(&src)
            .map_err(|e| format!("cannot create {}: {e}", src.display()))?;
        let mut paths = Vec::new();
        for t in 0..project.tu_count() {
            let path = src.join(project.name(t)).to_string_lossy().into_owned();
            write_atomic(&path, &project.render(t))?;
            paths.push(path);
        }

        // Expected answers: the cold one-shot's renders. Edits keep the
        // verdict, and every render is free of source positions, so the
        // answers hold for every epoch.
        let mut queries = vec![
            Query {
                request: "{\"cmd\":\"report\"}".to_string(),
                expected: base.render_report(false),
                explain: None,
            },
            Query {
                request: "{\"cmd\":\"stats\"}".to_string(),
                expected: base.render_counters(),
                explain: None,
            },
        ];
        let report = base.report();
        let mut live = Vec::new();
        let mut dead = Vec::new();
        for class in report.classes() {
            dead.extend(
                class
                    .dead_members
                    .iter()
                    .map(|m| format!("{}::{m}", class.name)),
            );
            live.extend(
                class
                    .live_members
                    .iter()
                    .map(|(m, _)| format!("{}::{m}", class.name)),
            );
        }
        let mut rng = Rng::seed_from_u64(opts.seed ^ 0x5E7E);
        for i in 0..EXPLAIN_TARGETS {
            let pool = if i % 2 == 0 && !dead.is_empty() {
                &dead
            } else {
                &live
            };
            let spec = pool[rng.gen_range(0..pool.len())].clone();
            queries.push(Query {
                request: format!("{{\"cmd\":\"explain\",\"member\":{}}}", quoted(&spec)),
                expected: base
                    .render_explain(&spec)
                    .map_err(|e| e.message().to_string())?,
                explain: Some(spec),
            });
        }

        let mut session = ServeSession::start(ServeOptions {
            config: AnalysisConfig::default(),
            algorithm: ALGORITHM,
            jobs: SERVE_JOBS,
            engine: Engine::Summary,
            cache_dir: Some(opts.work.join("cache")),
            log_out: None,
            log_filter: None,
        })?;
        let files: Vec<String> = paths.iter().map(|p| quoted(p)).collect();
        let analyzed = session.call(&format!(
            "{{\"cmd\":\"analyze\",\"files\":[{}]}}",
            files.join(",")
        ));
        if !analyzed.as_ref().is_ok_and(field_ok) {
            let _ = session.finish();
            return Err(format!("serve analyze failed: {analyzed:?}"));
        }
        Ok(ServeBench {
            session,
            base,
            paths,
            queries,
            script: gen::edit_script(opts.seed, project.tu_count(), SCRIPT_LEN, false),
            project,
            rng,
        })
    }

    /// Picks the next query: about a quarter reports, a tenth stats,
    /// the rest explains.
    fn next_query(&mut self) -> usize {
        match self.rng.gen_range(0..100) {
            0..=24 => 0,
            25..=34 => 1,
            _ => 2 + self.rng.gen_range(0..self.queries.len() - 2),
        }
    }
}

/// The measured serve loop: queries back to back, and every
/// [`SERVE_EDIT_PERIOD`] an edit plus a non-waiting `notify`. With a
/// recorder, every other query is traced. Returns the untraced and the
/// traced query samples.
fn serve_loop(
    bench: &mut ServeBench,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
    facts: &mut ServeFacts,
    tally: &mut Tally,
) -> [Phase; 2] {
    let mut phases: [Phase; 2] = Default::default();
    // Due times of notifies whose epoch no answer has shown yet, with
    // the epoch that publishes each.
    let mut pending: VecDeque<(Instant, u64)> = VecDeque::new();
    let mut seen_epoch = 1;
    let start = Instant::now();
    let mut next_due = start + SERVE_EDIT_PERIOD;
    let mut op = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let now = Instant::now();
        if now >= next_due {
            facts.late_ms.push((now - next_due).as_secs_f64() * 1e3);
            let edit = bench.script[facts.notifies as usize % bench.script.len()];
            facts.notifies += 1;
            let changed = bench.project.apply(edit, facts.notifies);
            let notified = changed
                .iter()
                .try_for_each(|&t| write_atomic(&bench.paths[t], &bench.project.render(t)))
                .and_then(|()| {
                    let names: Vec<String> =
                        changed.iter().map(|&t| quoted(&bench.paths[t])).collect();
                    bench.session.call(&format!(
                        "{{\"cmd\":\"notify\",\"changed\":[{}]}}",
                        names.join(",")
                    ))
                })
                .and_then(|ack| {
                    if field_ok(&ack) {
                        Ok(())
                    } else {
                        Err(format!("notify refused: {}", ack.render()))
                    }
                });
            // Epoch 1 is the initial analyze; notify n publishes n + 1.
            pending.push_back((next_due, facts.notifies + 1));
            tally.record(notified);
            next_due += SERVE_EDIT_PERIOD;
            continue;
        }

        let q = bench.next_query();
        let traced = rec.is_some() && op % 2 == 1;
        let start_ns = rec.as_ref().map_or(0, |r| r.now());
        let sent = Instant::now();
        let response = bench.session.call(&bench.queries[q].request);
        let answered = Instant::now();
        let ms = (answered - sent).as_secs_f64() * 1e3;
        if let Some(rec) = rec.as_deref_mut().filter(|_| traced) {
            let end_ns = rec.now();
            rec.push(Span {
                name: OP_SPAN,
                op,
                start_ns,
                end_ns,
            });
            // The daemon renders inside its reader pool, out of reach of
            // outside spans. The same render of the same epoch content is
            // timed here and placed at the end of the query it answered.
            // (A `stats` render stays unattributed.)
            let t = Instant::now();
            let render = match &bench.queries[q].explain {
                Some(spec) => Some((
                    "explain.render",
                    "explain.bytes",
                    bench.base.render_explain(spec).map_or(0, |s| s.len()),
                )),
                None if q == 0 => Some((
                    "report.render",
                    "report.bytes",
                    bench.base.render_report(false).len(),
                )),
                None => None,
            };
            if let Some((span, count, bytes)) = render {
                let dur_ns = (t.elapsed().as_nanos() as u64).min(end_ns - start_ns);
                rec.push(Span {
                    name: span,
                    op,
                    start_ns: end_ns - dur_ns,
                    end_ns,
                });
                rec.count(count, bytes as u64);
            }
        }
        op += 1;
        let checked = response.and_then(|v| {
            let output = v.get("output").and_then(json::Value::as_str);
            if !field_ok(&v) || output != Some(bench.queries[q].expected.as_str()) {
                return Err(format!(
                    "query {} answered wrongly: {}",
                    bench.queries[q].request,
                    v.render()
                ));
            }
            let epoch = field_epoch(&v);
            while pending.front().is_some_and(|&(_, e)| epoch >= e) {
                let (due, _) = pending.pop_front().expect("front exists");
                facts.lag_ms.push((answered - due).as_secs_f64() * 1e3);
            }
            if rec.is_some() && epoch > seen_epoch {
                if let Ok(info) = bench.session.call("{\"cmd\":\"epoch\"}") {
                    let ns = info
                        .get("build_ns")
                        .and_then(json::Value::as_int)
                        .unwrap_or(0);
                    facts.build_ns.push(ns as f64);
                }
            }
            seen_epoch = seen_epoch.max(epoch);
            Ok(())
        });
        if checked.is_ok() {
            phases[usize::from(traced)].add(&Sample {
                ms,
                kind: None,
                hits: 0,
                misses: 0,
                reused: false,
            });
        }
        tally.record(checked);
    }
    phases
}

fn run_serve(opts: &Options) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut bench: Option<ServeBench> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = bench.take() {
            old.session.finish()?;
        }
        reset(&opts.work)?;
        let start = Instant::now();
        bench = Some(ServeBench::setup(opts, &mut tally)?);
        setup.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("set up at least once");

    let mut facts = ServeFacts::default();
    let mut rec = opts.trace.then(Recorder::default);
    let [untraced, traced] = serve_loop(
        &mut bench,
        opts.seconds,
        rec.as_mut(),
        &mut facts,
        &mut tally,
    );
    let metrics = match &rec {
        Some(rec) => {
            write_trace(opts, rec);
            per_layer(rec, &untraced, &traced, &facts)
        }
        None => end_to_end(&setup, &untraced.ms),
    };

    // Every notify must have published its epoch: a synchronous rebuild
    // queues behind them and reports the final epoch.
    let synced = bench
        .session
        .call("{\"cmd\":\"notify\",\"changed\":[],\"wait\":1}");
    let want = facts.notifies + 2;
    match synced {
        Ok(v) if field_ok(&v) && field_epoch(&v) == want => {}
        other => {
            eprintln!("perfbench: final epoch check failed (want {want}): {other:?}");
            tally.broken = true;
        }
    }
    bench.session.finish()?;
    Ok(Outcome {
        correct: tally.failed == 0 && !tally.broken,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}
