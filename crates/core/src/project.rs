//! The analysis pipeline, with incremental re-analysis.
//!
//! [`ProjectPipeline`] accepts N named sources and runs them through six
//! stages, each under one top-level span on the calling thread's lane,
//! which also covers dropping what only that stage used:
//!
//! 1. **probe** — hash every source and, with a cache directory, load
//!    its snapshot and take each TU's module from it by content hash;
//! 2. **front end** ([`front_end`]) — parse → model → walk-once summary
//!    → [`TuModule`] extraction of every TU the probe missed, on up to
//!    `jobs` worker threads;
//! 3. **link** — diff the modules against an eligible snapshot, link
//!    them into one program ([`ddm_hierarchy::link()`]), free the per-TU
//!    programs and gate the stored fixpoint;
//! 4. **solve** — the delta-fixpoint call graph and liveness over the
//!    linked program, or their replay from the snapshot;
//! 5. **publish** — replace the snapshot when the run changed anything;
//! 6. **assemble** — the epoch's source set and the frozen
//!    [`EpochSnapshot`].
//!
//! The artifacts are bit-identical for every worker count. A single
//! source is a one-TU project ([`ProjectPipeline::from_source`]); with
//! one worker the front end runs on the calling thread too.
//!
//! With a cache directory, the run's modules persist in one file,
//! [`SNAPSHOT_FILE`](crate::SNAPSHOT_FILE)
//! ([`AnalysisSnapshot`](crate::AnalysisSnapshot)), keyed by the FNV-1a
//! content hash of each TU source; the [`snapshot`](crate::snapshot)
//! module owns every rule of the warm start. A warm run re-parses and
//! re-summarizes only the TUs the file lacks, and produces
//! byte-identical reports, `--explain` output, and deterministic
//! counters versus a cold cacheless run: the linked model is always
//! assembled from module records, so a summary resolved from cache
//! cannot drift from one extracted fresh. A failing run publishes
//! nothing.

use crate::analysis::{solve, AnalysisConfig, Solved};
use crate::epoch::EpochSnapshot;
use crate::pipeline::{Engine, PipelineError};
use crate::prefix::{PrefixKey, Prefixes};
use crate::snapshot::{Cache, StoredFixpoint};
use ddm_callgraph::Algorithm;
use ddm_cppfront::{DeclMemo, SourceMap, SourceSet};
use ddm_hierarchy::{
    fnv1a64_each, link_with, LinkError, LinkedProgram, Program, ProgramSummary, TuModule,
};
use ddm_telemetry::{Telemetry, LANE_MAIN};
use std::error::Error;
use std::fmt;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Any error a project run can produce.
#[derive(Debug)]
pub enum ProjectError {
    /// A failure attributed to one translation unit: its own parse,
    /// semantic, or body-walk error, or an analysis-phase error traced
    /// back to the TU whose body produced it.
    Tu {
        /// The TU's file name.
        file: String,
        /// The underlying failure.
        error: PipelineError,
    },
    /// Conflicting definitions across translation units.
    Link(LinkError),
}

impl fmt::Display for ProjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjectError::Tu { file, error } => write!(f, "{file}: {error}"),
            ProjectError::Link(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ProjectError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProjectError::Tu { error, .. } => Some(error),
            ProjectError::Link(e) => Some(e),
        }
    }
}

/// A completed analysis run over one or more translation units.
///
/// A thin handle over an immutable [`EpochSnapshot`] behind an `Arc`:
/// it dereferences to the snapshot, whose accessors one-shot callers
/// use, while serve mode takes the snapshot itself
/// ([`ProjectPipeline::snapshot`]) and publishes it from the builder
/// thread to the protocol thread that answers queries.
///
/// # Examples
///
/// ```
/// use ddm_core::ProjectPipeline;
///
/// let run = ProjectPipeline::from_source(
///     "class A { public: int live; int dead; };\n\
///      int main() { A a; a.dead = 1; return a.live; }",
/// )?;
/// assert_eq!(run.report().dead_member_names(), vec!["A::dead"]);
/// # Ok::<(), ddm_core::ProjectError>(())
/// ```
#[derive(Debug)]
pub struct ProjectPipeline {
    snapshot: Arc<EpochSnapshot>,
}

impl Deref for ProjectPipeline {
    type Target = EpochSnapshot;

    fn deref(&self) -> &EpochSnapshot {
        &self.snapshot
    }
}

/// The file name a single-source run gives its one TU, which its
/// errors name.
const SOURCE_NAME: &str = "<source>";

/// The stack size of every thread that analyses: the front-end workers
/// and the serve builder. It matches the main thread's 8 MiB, so an
/// input that analyses on the calling thread analyses on any thread;
/// a spawned thread's 2 MiB default would overflow on deep recursion
/// (a long flat expression) sooner.
pub(crate) const ANALYSIS_STACK_BYTES: usize = 8 << 20;

/// The per-TU front end: parse → model → walk-once summary →
/// [`TuModule`] extraction of each TU `todo` names (ascending indices
/// into `inputs`; `hashes[i]` is the FNV-1a hash of source `i`), in
/// `todo` order. Up to `jobs` workers share one [`DeclMemo`], so each
/// top-level item text (under one set of type names) is parsed once;
/// one worker runs on the calling thread. With two or more TUs, a TU
/// whose type prefix (its classes and enums, all before its first free
/// function) another TU parsed alike at the same positions takes that
/// TU's class records and walks only its free functions (DESIGN §5k).
/// The result does not depend on the worker count.
///
/// # Errors
///
/// [`ProjectError::Tu`] for the first failing TU by input order.
pub fn front_end(
    inputs: &[(String, String)],
    todo: &[usize],
    hashes: &[u64],
    algorithm: Algorithm,
    jobs: usize,
    telemetry: &Telemetry,
) -> Result<Vec<(TuModule, Program, SourceMap)>, ProjectError> {
    let refine = algorithm == Algorithm::Pta;
    let workers = jobs.max(1).min(todo.len().max(1));
    let memo = DeclMemo::new();
    let prefixes = (todo.len() > 1).then(Prefixes::default);
    let next = AtomicUsize::new(0);
    // Each TU's module, program and source map, and its prefix entry.
    type TuOutcome = Result<(TuModule, Program, SourceMap, Option<usize>), PipelineError>;
    let slots: Vec<Mutex<Option<TuOutcome>>> = todo.iter().map(|_| Mutex::new(None)).collect();
    let work = |lane: u32| loop {
        let n = next.fetch_add(1, Ordering::Relaxed);
        let Some(&i) = todo.get(n) else {
            break;
        };
        let (file, source) = &inputs[i];
        let _tu_span = telemetry.span(lane, || format!("tu {file}"));
        let layer = |name: &'static str| telemetry.span(lane, || name.to_string());
        let outcome = (|| {
            let unit = {
                let _parse = layer("parse");
                memo.parse(i, source)?
            };
            let program = {
                let _model = layer("model");
                Program::build(&unit)?
            };
            let new_map = || SourceMap::new(file.clone(), source.clone());
            let (summary, prefix, shared, map) = {
                let _summary = layer("summary");
                // The key needs line/col, so a run that keys TUs makes
                // the source map (and its line index) here.
                let map = prefixes.is_some().then(new_map);
                let prefix = (prefixes.as_ref().zip(map.as_ref()))
                    .and_then(|(table, map)| Some((table, PrefixKey::of(&unit, map)?)));
                let shared = prefix
                    .as_ref()
                    .and_then(|(table, key)| table.take(key, &unit));
                let summary = match shared {
                    Some(_) => ProgramSummary::build_free_functions(&program, refine),
                    None => ProgramSummary::build(&program, refine, 1),
                };
                (summary, prefix, shared, map)
            };
            let _extract = layer("extract");
            let map = map.unwrap_or_else(new_map);
            let (entry, classes) = shared.unzip();
            let module =
                TuModule::extract_hashed(&unit, &program, &summary, &map, hashes[i], classes);
            let entry = match prefix {
                Some((table, key)) if entry.is_none() => {
                    Some(table.publish(key, &unit, source, &module))
                }
                _ => entry,
            };
            Ok((module, program, map, entry))
        })();
        *slots[n].lock().expect("tu slot poisoned") = Some(outcome);
    };

    if workers == 1 {
        work(LANE_MAIN);
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let lane = u32::try_from(w + 1).unwrap_or(u32::MAX);
                let work = &work;
                std::thread::Builder::new()
                    .stack_size(ANALYSIS_STACK_BYTES)
                    .spawn_scoped(scope, move || work(lane))
                    .expect("spawn a front-end worker");
            }
        });
    }

    let outcomes: Vec<TuOutcome> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("tu slot poisoned")
                .expect("every TU is analysed exactly once")
        })
        .collect();
    telemetry.metrics(|m| {
        let (decls, shared) = memo.decl_counts();
        let prefix_shared = prefixes.as_ref().map_or(0, |table| {
            table.shared_tus(outcomes.iter().flatten().map(|tu| (tu.3, &tu.0)))
        });
        m.counter_add("frontend/tus", todo.len() as u64);
        m.counter_add("frontend/decls", decls);
        m.counter_add("frontend/decls_shared", shared);
        m.counter_add("frontend/prefix_shared_tus", prefix_shared);
    });
    todo.iter()
        .zip(outcomes)
        .map(|(&i, outcome)| match outcome {
            Ok((module, program, map, _)) => Ok((module, program, map)),
            Err(error) => Err(ProjectError::Tu {
                file: inputs[i].0.clone(),
                error,
            }),
        })
        .collect()
}

/// The probe stage: hashes each source once (for its cache key and for
/// the module its front end extracts), then takes each TU's module from
/// the cache directory's snapshot. Returns the hashes, each TU's served
/// module (`None`: a miss) and the run's cache side.
fn probe<'d>(
    inputs: &[(String, String)],
    config: &AnalysisConfig,
    algorithm: Algorithm,
    cache: Option<&'d Path>,
    telemetry: &Telemetry,
) -> (Vec<u64>, Vec<Option<TuModule>>, Option<Cache<'d>>) {
    let _probe = telemetry.span(LANE_MAIN, || format!("probe ({} TUs)", inputs.len()));
    let hashes = {
        let _hash = telemetry.span(LANE_MAIN, || "hash".to_string());
        let sources: Vec<&[u8]> = inputs.iter().map(|(_, s)| s.as_bytes()).collect();
        fnv1a64_each(&sources)
    };
    let (served, cache) = Cache::probe(cache, config, algorithm, inputs, &hashes, telemetry);
    (hashes, served, cache)
}

/// The front end's hand-off: every TU's module, and the program and
/// source map of each TU it parsed.
struct Built {
    modules: Vec<TuModule>,
    parsed: Vec<Option<Program>>,
    maps: Vec<Option<SourceMap>>,
}

/// The front-end stage: [`front_end`] over every TU the probe missed.
fn build(
    inputs: &[(String, String)],
    mut served: Vec<Option<TuModule>>,
    hashes: &[u64],
    algorithm: Algorithm,
    jobs: usize,
    telemetry: &Telemetry,
) -> Result<Built, ProjectError> {
    let n = served.len();
    let todo: Vec<usize> = (0..n).filter(|&i| served[i].is_none()).collect();
    let _front = telemetry.span(LANE_MAIN, || {
        format!("front end ({} of {n} TUs)", todo.len())
    });
    let fresh = front_end(inputs, &todo, hashes, algorithm, jobs, telemetry)?;
    let mut parsed: Vec<Option<Program>> = (0..n).map(|_| None).collect();
    let mut maps: Vec<Option<SourceMap>> = (0..n).map(|_| None).collect();
    for (&i, (module, program, map)) in todo.iter().zip(fresh) {
        served[i] = Some(module);
        parsed[i] = Some(program);
        maps[i] = Some(map);
    }
    drop(todo);
    Ok(Built {
        modules: served
            .into_iter()
            .map(|m| m.expect("every TU has a module"))
            .collect(),
        parsed,
        maps,
    })
}

/// The link stage: the summary diff against an eligible snapshot, the
/// link, and the reuse gate's verdict on the stored fixpoint. The
/// per-TU programs die here, once the linked program took their bodies.
fn link(
    modules: &[TuModule],
    parsed: Vec<Option<Program>>,
    mut cache: Option<&mut Cache<'_>>,
    algorithm: Algorithm,
    telemetry: &Telemetry,
) -> Result<(LinkedProgram, Option<StoredFixpoint>), ProjectError> {
    let _link = telemetry.span(LANE_MAIN, || format!("link ({} TUs)", modules.len()));
    if let Some(cache) = &mut cache {
        cache.diff(modules, telemetry);
    }
    let linked = link_with(modules, &parsed, telemetry).map_err(ProjectError::Link)?;

    #[cfg(debug_assertions)]
    if parsed.iter().all(Option::is_some) {
        // A cold link must resolve to exactly the summary a fresh walk
        // of the linked program would extract; the cache layer then
        // inherits this identity byte for byte.
        let refine = algorithm == Algorithm::Pta;
        let fresh = ProgramSummary::build(linked.program(), refine, 1);
        for i in 0..linked.program().function_count() {
            let fid = ddm_hierarchy::FuncId::from_index(i);
            debug_assert_eq!(
                linked.summary().function(fid).ok(),
                fresh.function(fid).ok(),
                "linked summary diverged from a fresh walk (fn {i})"
            );
        }
        debug_assert_eq!(linked.summary().globals().ok(), fresh.globals().ok());
    }
    drop(parsed);

    let stored =
        cache.and_then(|cache| cache.reusable_fixpoint(linked.program(), algorithm, telemetry));
    Ok((linked, stored))
}

/// The assemble stage: the epoch's source set — the front end's maps
/// move in, and only TUs the cache served get a new one — and the
/// frozen snapshot.
fn assemble(
    inputs: &[(String, String)],
    maps: Vec<Option<SourceMap>>,
    linked: LinkedProgram,
    solved: Solved,
    config: AnalysisConfig,
    epoch: u64,
    telemetry: &Telemetry,
) -> Arc<EpochSnapshot> {
    let _assemble = telemetry.span(LANE_MAIN, || "assemble".to_string());
    let mut sources = SourceSet::new();
    for ((file, source), map) in inputs.iter().zip(maps) {
        sources.push(map.unwrap_or_else(|| SourceMap::new(file.clone(), source.clone())));
    }
    // The schedule only feeds the publish.
    drop(solved.schedule);
    Arc::new(EpochSnapshot {
        epoch,
        sources,
        files: inputs.iter().map(|(f, _)| f.clone()).collect(),
        linked,
        callgraph: solved.callgraph,
        liveness: solved.liveness,
        used: solved.used,
        config,
        counters: telemetry.counters(),
    })
}

impl ProjectPipeline {
    /// Analyses one source with the default configuration (RTA call
    /// graph, conservative `sizeof`, conservative down-casts).
    ///
    /// # Errors
    ///
    /// [`ProjectError::Tu`] for parse, semantic, or type failures.
    pub fn from_source(source: &str) -> Result<ProjectPipeline, ProjectError> {
        Self::with_config(source, AnalysisConfig::default(), Algorithm::Rta)
    }

    /// Analyses one source as a one-TU project: no cache, one front-end
    /// job on the calling thread, and no telemetry. Call
    /// [`ProjectPipeline::run`] to observe the run.
    ///
    /// # Errors
    ///
    /// [`ProjectError::Tu`] for parse, semantic, or type failures.
    pub fn with_config(
        source: &str,
        config: AnalysisConfig,
        algorithm: Algorithm,
    ) -> Result<ProjectPipeline, ProjectError> {
        let inputs = [(SOURCE_NAME.to_string(), source.to_string())];
        Self::run(
            &inputs,
            config,
            algorithm,
            1,
            Engine::Summary,
            None,
            &Telemetry::disabled(),
        )
    }

    /// Runs the pipeline over `inputs` (name, source) pairs.
    ///
    /// `jobs` is how many TUs the front end parses at once; with one
    /// worker (`min(jobs, TUs to parse) == 1`) it runs on the calling
    /// thread. The whole-program steps after it (link, call graph,
    /// liveness) always run on the calling thread.
    ///
    /// `cache_dir`, when set, enables the persistent cache file
    /// ([`AnalysisSnapshot`](crate::AnalysisSnapshot)): each TU's module
    /// is looked up there by content hash before the per-TU front end
    /// runs, and a successful run that changed anything replaces the
    /// file. Cache I/O is best-effort — an unreadable, corrupt,
    /// version-mismatched, or fingerprint-mismatched snapshot counts as an
    /// invalidation of every TU, which is recomputed (and the file
    /// replaced), never trusted.
    ///
    /// `engine` is ignored: [`Engine`] has one variant. The argument
    /// stays so that existing callers, the repository benchmark among
    /// them, keep compiling.
    ///
    /// # Errors
    ///
    /// [`ProjectError::Tu`] for the first failing TU (by input order,
    /// independent of worker scheduling), [`ProjectError::Link`] for
    /// cross-TU definition conflicts.
    pub fn run(
        inputs: &[(String, String)],
        config: AnalysisConfig,
        algorithm: Algorithm,
        jobs: usize,
        _engine: Engine,
        cache_dir: Option<&Path>,
        telemetry: &Telemetry,
    ) -> Result<ProjectPipeline, ProjectError> {
        Self::run_epoch(inputs, config, algorithm, jobs, cache_dir, telemetry, 0)
            .map(|snapshot| ProjectPipeline { snapshot })
    }

    /// [`ProjectPipeline::run`] for serve mode: the same pipeline, but
    /// the result is returned as a bare [`EpochSnapshot`] stamped with
    /// `epoch`, ready to publish through an
    /// [`EpochCell`](crate::EpochCell).
    ///
    /// The snapshot stores the deterministic counters read off
    /// `telemetry` at the end of the run, so a serve builder should pass
    /// a fresh handle per epoch (a handle shared across runs would
    /// accumulate).
    ///
    /// # Errors
    ///
    /// Exactly as [`ProjectPipeline::run`].
    pub fn run_epoch(
        inputs: &[(String, String)],
        config: AnalysisConfig,
        algorithm: Algorithm,
        jobs: usize,
        cache: Option<&Path>,
        telemetry: &Telemetry,
        epoch: u64,
    ) -> Result<Arc<EpochSnapshot>, ProjectError> {
        let (hashes, served, mut cache) = probe(inputs, &config, algorithm, cache, telemetry);
        let Built {
            modules,
            parsed,
            maps,
        } = build(inputs, served, &hashes, algorithm, jobs, telemetry)?;
        let (linked, stored) = link(&modules, parsed, cache.as_mut(), algorithm, telemetry)?;
        let mut solved = {
            let _solve = telemetry.span(LANE_MAIN, || "solve".to_string());
            let (program, summary) = (linked.program(), linked.summary());
            solve(program, summary, &config, algorithm, stored, telemetry).map_err(|error| {
                let file = linked.locate_error(&error).map(|t| inputs[t].0.clone());
                ProjectError::Tu {
                    file: file.unwrap_or_else(|| "<linked program>".to_string()),
                    error: PipelineError::Type(error),
                }
            })?
        };
        {
            let _publish = telemetry.span(LANE_MAIN, || "publish".to_string());
            match cache {
                Some(cache) => {
                    cache.publish(hashes, modules, linked.program(), &mut solved, telemetry);
                }
                None => drop((hashes, modules)),
            }
        }
        let snapshot = assemble(inputs, maps, linked, solved, config, epoch, telemetry);
        Ok(snapshot)
    }

    /// A shared handle to the underlying immutable snapshot (a refcount
    /// bump — this is what serve-mode readers clone per query).
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "\
class Sensor {
public:
    Sensor(int s) : reading(s), stale(0) { }
    virtual ~Sensor() { }
    virtual int read() { return reading; }
    int reading;
    int stale;
};
";

    fn inputs() -> Vec<(String, String)> {
        vec![
            (
                "main.cpp".to_string(),
                format!("{HEADER}int poll(Sensor* s);\nint main() {{ Sensor s(4); return poll(&s); }}"),
            ),
            (
                "poll.cpp".to_string(),
                format!("{HEADER}int poll(Sensor* s) {{ return s->read(); }}"),
            ),
        ]
    }

    fn run(inputs: &[(String, String)], jobs: usize, cache: Option<&Path>) -> ProjectPipeline {
        ProjectPipeline::run(
            inputs,
            AnalysisConfig::default(),
            Algorithm::Rta,
            jobs,
            Engine::Summary,
            cache,
            &Telemetry::disabled(),
        )
        .expect("project run")
    }

    #[test]
    fn worker_counts_agree_on_the_linked_report() {
        let inputs = inputs();
        let reference = run(&inputs, 1, None).report().to_string();
        assert!(reference.contains("Sensor"));
        let got = run(&inputs, 4, None).report().to_string();
        assert_eq!(got, reference, "jobs=4");
    }

    #[test]
    fn one_source_runs_as_a_one_tu_project() {
        let run = ProjectPipeline::from_source(
            "class A { public: int live; int dead; };\n\
             int main() { A a; return a.live; }",
        )
        .unwrap();
        assert_eq!(run.report().dead_member_names(), vec!["A::dead"]);
        assert!(run.callgraph().reachable_count() >= 1);
        assert_eq!(run.used().len(), 1);
        assert_eq!(run.files(), [SOURCE_NAME]);
    }

    /// The per-TU error of a failing single-source run, which must name
    /// the one TU.
    fn single_source_error(source: &str) -> PipelineError {
        match ProjectPipeline::from_source(source).unwrap_err() {
            ProjectError::Tu { file, error } => {
                assert_eq!(file, SOURCE_NAME);
                error
            }
            other => panic!("expected a TU error, got {other}"),
        }
    }

    #[test]
    fn parse_errors_propagate() {
        let src = "class {";
        assert!(matches!(single_source_error(src), PipelineError::Parse(_)));
        let shown = ProjectPipeline::from_source(src).unwrap_err().to_string();
        let expected = format!("{SOURCE_NAME}: parse error");
        assert!(shown.starts_with(&expected), "{shown}");
    }

    #[test]
    fn sema_errors_propagate() {
        let src = "class A { public: int x; int x; }; int main() { return 0; }";
        assert!(matches!(single_source_error(src), PipelineError::Sema(_)));
    }

    #[test]
    fn type_errors_propagate() {
        let err = single_source_error("int main() { return mystery; }");
        assert!(matches!(err, PipelineError::Type(_)));
        assert!(err.source().is_some());
    }

    #[test]
    fn warm_run_reuses_every_module_and_matches_cold() {
        let dir = std::env::temp_dir().join(format!("ddm-proj-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let inputs = inputs();

        let cold_tel = Telemetry::enabled();
        let cold = ProjectPipeline::run(
            &inputs,
            AnalysisConfig::default(),
            Algorithm::Rta,
            2,
            Engine::Summary,
            Some(&dir),
            &cold_tel,
        )
        .unwrap();
        assert_eq!(cold_tel.counter("cache/hits"), 0);
        assert_eq!(cold_tel.counter("frontend/tus"), 2);

        let warm_tel = Telemetry::enabled();
        let warm = ProjectPipeline::run(
            &inputs,
            AnalysisConfig::default(),
            Algorithm::Rta,
            2,
            Engine::Summary,
            Some(&dir),
            &warm_tel,
        )
        .unwrap();
        assert_eq!(warm_tel.counter("cache/hits"), 2);
        assert_eq!(warm_tel.counter("frontend/tus"), 0);

        assert_eq!(warm.report().to_string(), cold.report().to_string());
        assert_eq!(
            format!("{:?}", warm_tel.counters().rows()),
            format!("{:?}", cold_tel.counters().rows()),
            "deterministic counters must not see the cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The top-level lane-0 spans of a run, in order, each with the
    /// names of the lane-0 spans nested inside it.
    fn stages(telemetry: &Telemetry) -> Vec<(String, Vec<String>)> {
        let mut stages: Vec<(String, u64, Vec<String>)> = Vec::new();
        for span in telemetry
            .spans()
            .into_iter()
            .filter(|s| s.lane == LANE_MAIN)
        {
            match stages.last_mut() {
                Some((_, end, children)) if span.start_ns < *end => children.push(span.name),
                _ => stages.push((span.name, span.start_ns + span.dur_ns, Vec::new())),
            }
        }
        stages
            .into_iter()
            .map(|(name, _, children)| (name, children))
            .collect()
    }

    #[test]
    fn each_stage_runs_under_one_top_level_span_in_every_cache_state() {
        let dir = std::env::temp_dir().join(format!("ddm-proj-stages-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut inputs = inputs();
        inputs.push((
            "util.cpp".to_string(),
            format!("{HEADER}int helper() {{ return 1; }}"),
        ));
        let mut edited = inputs.clone();
        edited[1].1.push_str("\nint pad() { return 7; }\n");
        let watched = [
            "hash",
            "snapshot read",
            "snapshot decode",
            "link delta",
            "snapshot encode",
            "snapshot save",
        ];
        // (mode, inputs, cache, TUs the front end runs, whether a
        // snapshot file is read, whether the fixpoint is eligible,
        // whether publish writes)
        let cache = Some(dir.as_path());
        let modes = [
            ("cacheless", &inputs, None, 3, false, false, false),
            ("cold", &inputs, cache, 3, false, false, true),
            ("warm", &inputs, cache, 0, true, true, false),
            ("1-changed", &edited, cache, 1, true, true, true),
        ];
        for (mode, inputs, cache, parsed, read, eligible, writes) in modes {
            let telemetry = Telemetry::enabled();
            ProjectPipeline::run(
                inputs,
                AnalysisConfig::default(),
                Algorithm::Rta,
                1,
                Engine::Summary,
                cache,
                &telemetry,
            )
            .unwrap();
            let stages = stages(&telemetry);
            let names: Vec<&str> = stages.iter().map(|(name, _)| name.as_str()).collect();
            let front = format!("front end ({parsed} of 3 TUs)");
            let stage_names = ["probe (3 TUs)", &front, "link (3 TUs)"];
            let stage_names = [&stage_names[..], &["solve", "publish", "assemble"]].concat();
            assert_eq!(names, stage_names, "{mode}");
            let children = |stage: usize| -> Vec<&str> {
                stages[stage]
                    .1
                    .iter()
                    .map(String::as_str)
                    .filter(|name| watched.contains(name))
                    .collect()
            };
            let probe: &[&str] = if read {
                &["hash", "snapshot read", "snapshot decode"]
            } else {
                &["hash"]
            };
            assert_eq!(children(0), probe, "{mode}: probe");
            assert!(children(1).is_empty(), "{mode}: front end");
            let delta: &[&str] = if eligible { &["link delta"] } else { &[] };
            assert_eq!(children(2), delta, "{mode}: link");
            assert!(children(3).is_empty(), "{mode}: solve");
            let publish: &[&str] = if writes {
                &["snapshot encode", "snapshot save"]
            } else {
                &[]
            };
            assert_eq!(children(4), publish, "{mode}: publish");
            assert!(stages[5].1.is_empty(), "{mode}: assemble");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_tu_errors_carry_their_file() {
        let mut bad = inputs();
        bad[1].1 = "class {".to_string();
        let err = ProjectPipeline::run(
            &bad,
            AnalysisConfig::default(),
            Algorithm::Rta,
            4,
            Engine::Summary,
            None,
            &Telemetry::disabled(),
        )
        .unwrap_err();
        match err {
            ProjectError::Tu { file, error } => {
                assert_eq!(file, "poll.cpp");
                assert!(matches!(error, PipelineError::Parse(_)));
            }
            other => panic!("expected a TU error, got {other}"),
        }
    }

    #[test]
    fn link_conflicts_surface_as_link_errors() {
        let a = ("a.cpp".to_string(), "int twice() { return 1; }\nint main() { return twice(); }".to_string());
        let b = ("b.cpp".to_string(), "int twice() { return 2; }".to_string());
        let err = ProjectPipeline::run(
            &[a, b],
            AnalysisConfig::default(),
            Algorithm::Rta,
            1,
            Engine::Summary,
            None,
            &Telemetry::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, ProjectError::Link(_)));
        assert!(err.to_string().contains("function `twice` defined differently"));
    }
}
