//! The analysis pipeline, with incremental re-analysis.
//!
//! [`ProjectPipeline`] accepts N named sources, runs the per-TU front
//! end (parse → model → walk-once summary → [`TuModule`] extraction)
//! on up to `jobs` worker threads, one TU at a time per worker, links
//! the modules into one program ([`ddm_hierarchy::link`]), and drives
//! the delta-fixpoint call graph and liveness over the linked result
//! on the calling thread. The artifacts are bit-identical for every
//! worker count. A single source is a one-TU project
//! ([`ProjectPipeline::from_source`]); with one worker the front end
//! runs on the calling thread too.
//!
//! With a cache directory, per-TU modules persist across runs keyed by
//! the FNV-1a content hash of the TU source (plus a format version and
//! a configuration fingerprint in the envelope). A warm run re-parses
//! and re-summarizes only the TUs whose content changed and produces
//! byte-identical reports, `--explain` output, and deterministic
//! counters versus a cold cacheless run: the linked model is always
//! assembled from module records, so a summary resolved from cache
//! cannot drift from one extracted fresh.
//!
//! Entries are published atomically (write to a process-unique temp
//! file, then rename), so concurrent writers sharing one cache
//! directory and processes killed mid-write can never leave a torn
//! `tu-<hash>.json` behind; dangling temps are swept the next time the
//! directory is opened. The `DDM_CACHE_FAULT` environment variable
//! injects crashes into the write path for the torture tests.

use crate::analysis::{solve, AnalysisConfig, Solved};
use crate::epoch::EpochSnapshot;
use crate::liveness::Liveness;
use crate::pipeline::{Engine, PipelineError};
use crate::report::Report;
use crate::snapshot::{snapshot_fingerprint, AnalysisSnapshot, SNAPSHOT_FILE};
use ddm_callgraph::{Algorithm, CallGraph};
use ddm_cppfront::{DeclMemo, SourceMap, SourceSet};
use ddm_hierarchy::{
    body_walk_count, fnv1a64, hash_hex, link_delta_ref, link_with, ClassId, FuncId, LinkDelta,
    LinkError, LinkedProgram, Program, ProgramSummary, TuModule, TypeError,
};
use ddm_telemetry::{EventClass, Telemetry, LANE_MAIN};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

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
/// Since the epoch refactor this is a thin handle over an immutable
/// [`EpochSnapshot`] behind an `Arc`: one-shot callers keep the same
/// accessor surface they always had, while serve mode takes the
/// snapshot itself ([`ProjectPipeline::snapshot`]) and publishes it
/// from the builder thread to the protocol thread that answers
/// queries.
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

/// The configuration fingerprint stored in every cache envelope. Only
/// configuration that changes what a *per-TU summary* contains belongs
/// here (today: whether §3.1 points-to refinement ran, which is implied
/// by the call-graph algorithm). Options that act at link time or later
/// — `sizeof` policy, down-cast policy, library classes — deliberately
/// do not invalidate cached modules.
pub fn config_fingerprint(algorithm: Algorithm) -> String {
    format!("v1;refine={}", u8::from(algorithm == Algorithm::Pta))
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

/// The cache file for a TU with the given source hash.
fn cache_path(dir: &Path, source_hash: u64) -> PathBuf {
    dir.join(format!("tu-{}.json", hash_hex(source_hash)))
}

/// Crash-injection points inside the cache write path, enabled by the
/// `DDM_CACHE_FAULT` environment variable. Torture tests use these to
/// prove a process dying mid-publish can never leave a torn
/// `tu-<hash>.json` behind: the next run must recompute and produce
/// byte-identical output with zero invalidations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheFault {
    /// Abort after writing half of the first entry's bytes to its temp
    /// file (a torn temp, never a torn final).
    KillMidWrite,
    /// Abort after fully writing the first entry's temp file but before
    /// renaming it over the final name (a complete but unpublished temp).
    KillPreRename,
}

/// The fault selected by `DDM_CACHE_FAULT`, read once per process.
/// Unset or unrecognized values disable injection.
fn cache_fault() -> Option<CacheFault> {
    static FAULT: std::sync::OnceLock<Option<CacheFault>> = std::sync::OnceLock::new();
    *FAULT.get_or_init(|| match std::env::var("DDM_CACHE_FAULT").as_deref() {
        Ok("kill-mid-write") => Some(CacheFault::KillMidWrite),
        Ok("kill-pre-rename") => Some(CacheFault::KillPreRename),
        _ => None,
    })
}

/// Atomically publishes one cache entry: the document is written to a
/// process-unique temp file inside `dir`, then renamed over the final
/// `tu-<hash>.json`. Readers therefore observe either no entry or a
/// complete one — a crash between the write and the rename leaves only
/// a dangling temp, which [`sweep_dangling_temps`] removes on the next
/// open. Best-effort like all cache I/O: any failure simply means the
/// entry is recomputed next time.
fn publish_entry(dir: &Path, source_hash: u64, doc: &str) {
    let tmp = dir.join(format!(
        "tu-{}.json.tmp.{}",
        hash_hex(source_hash),
        std::process::id()
    ));
    let written = (|| -> std::io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        if cache_fault() == Some(CacheFault::KillMidWrite) {
            f.write_all(&doc.as_bytes()[..doc.len() / 2])?;
            let _ = f.sync_all();
            std::process::abort();
        }
        f.write_all(doc.as_bytes())?;
        Ok(())
    })();
    match written {
        Ok(()) => {
            if cache_fault() == Some(CacheFault::KillPreRename) {
                std::process::abort();
            }
            let _ = std::fs::rename(&tmp, cache_path(dir, source_hash));
        }
        Err(_) => {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// Minimum age (by mtime) before [`sweep_dangling_temps`] removes a
/// dangling temp. A temp younger than this may belong to a live sibling
/// writer mid-publish — deleting it would kill that writer's rename and
/// force a recompute, which a daemon re-probing every epoch would do
/// constantly. A crashed writer's temp ages past the gate and is
/// collected on a later open; until then it is harmless garbage.
const TEMP_SWEEP_MIN_AGE: std::time::Duration = std::time::Duration::from_secs(60);

/// Whether a dangling temp is old enough to sweep. Falls back to
/// sweeping (the historical behavior) when the filesystem reports no
/// mtime; a temp whose mtime sits in the future is treated as fresh.
fn temp_old_enough(entry: &std::fs::DirEntry) -> bool {
    let Ok(modified) = entry.metadata().and_then(|m| m.modified()) else {
        return true;
    };
    match std::time::SystemTime::now().duration_since(modified) {
        Ok(age) => age >= TEMP_SWEEP_MIN_AGE,
        Err(_) => false,
    }
}

/// Removes dangling `tu-*.json.tmp.*` and `analysis.snap.tmp.*` files
/// left by a crashed writer. Runs when a cache directory is opened for
/// probing. Only temps older than [`TEMP_SWEEP_MIN_AGE`] are removed,
/// so a live concurrent writer's in-flight temp survives the probe and
/// its rename still publishes; fresh temps are skipped silently and
/// collected by a later open once they age past the gate.
fn sweep_dangling_temps(dir: &Path, telemetry: &Telemetry) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let snap_tmp = format!("{SNAPSHOT_FILE}.tmp.");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if (name.starts_with("tu-") && name.contains(".json.tmp")) || name.starts_with(&snap_tmp) {
            if !temp_old_enough(&entry) {
                continue;
            }
            let _ = std::fs::remove_file(entry.path());
            telemetry.event(EventClass::Observational, "cache_temp_swept", || {
                vec![("temp", name.as_ref().into())]
            });
        }
    }
}

/// Classifies a [`TuModule::from_json`] rejection into the cache
/// invalidation reasons the flight recorder reports. Anything that is
/// not one of the three envelope mismatches is a corrupt or truncated
/// document (including torn writes and dangling-reference records).
fn invalidation_reason(err: &str) -> &'static str {
    match err {
        "format version mismatch" => "version_skew",
        "configuration fingerprint mismatch" => "config_fingerprint",
        "source hash mismatch" => "source_hash",
        _ => "corrupt",
    }
}

/// Decides whether the persisted fixpoint can be replayed verbatim over
/// the freshly linked program, given the summary diff of the edit.
///
/// The argument (see DESIGN.md §5i): unchanged TUs contribute records
/// identical to the snapshot's. A stable class space means every class,
/// method, member, and dispatch-table id is preserved, and the root set
/// (which depends only on `main` and the library-class virtual
/// overrides) is preserved too — provided `main` itself did not appear.
/// Free-function names are globally unique, so matching each stored
/// reachable function's display name at its stored id proves the id
/// assignment of the whole reachable region survived; requiring that no
/// reachable name was edited or removed proves each replayed summary is
/// the one the fixpoint converged over. By induction on the worklist
/// rounds the new reachable closure, its schedule, and the liveness
/// facts it derives equal the stored ones exactly. Everything outside
/// the reachable region (added, removed, or edited unreachable
/// functions) can, by definition, never be pulled in: its only entry
/// points are calls from reachable functions, all of which are
/// unchanged.
fn fixpoint_reusable(snap: &AnalysisSnapshot, delta: &LinkDelta, program: &Program) -> bool {
    if !delta.class_space_stable() {
        return false;
    }
    if snap.class_count as usize != program.class_count()
        || snap.function_count as usize > program.function_count()
    {
        return false;
    }
    let named = |list: &[String], name: &str| {
        list.binary_search_by(|n| n.as_str().cmp(name)).is_ok()
    };
    // A newly appearing `main` would change the root set without ever
    // being named by the stored reachable region.
    if named(&delta.fns_added, "main") {
        return false;
    }
    for (id, name) in &snap.reachable_names {
        let id = *id as usize;
        if id >= program.function_count() {
            return false;
        }
        if named(&delta.fns_changed, name) || named(&delta.fns_removed, name) {
            return false;
        }
        if program.func_display_name(FuncId::from_index(id)) != *name {
            return false;
        }
    }
    true
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
    /// `cache_dir`, when set, enables the persistent module cache:
    /// entries are looked up by content hash before the per-TU front end
    /// runs, and every freshly computed module is written back. Cache
    /// I/O is best-effort — an unreadable, corrupt, version-mismatched,
    /// or fingerprint-mismatched entry counts as an invalidation and is
    /// recomputed (and overwritten), never trusted.
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
        let walks_before = body_walk_count();
        let fingerprint = config_fingerprint(algorithm);
        let refine = algorithm == Algorithm::Pta;

        // --- Cache probe: content-hash every input, load what we can.
        // A valid analysis snapshot short-circuits the per-TU JSON probe
        // for every unchanged TU (its module decodes straight from the
        // snapshot); changed TUs still go through the JSON probe, so the
        // summary cache keeps its hit/miss/invalidation semantics. ---
        let frontend_start = Instant::now();
        let snap_fingerprint = snapshot_fingerprint(&config, algorithm);
        let mut hits = 0u64;
        let mut invalidations = 0u64;
        let hashes: Vec<u64> = inputs
            .iter()
            .map(|(_, source)| fnv1a64(source.as_bytes()))
            .collect();
        let mut snapshot: Option<AnalysisSnapshot> = None;
        // Rendered summary-entry size per TU, filled by whichever path
        // first learns it (snapshot, cache entry on disk, or the
        // write-back render). `None` means nobody rendered it yet; the
        // metrics histogram renders on demand for those.
        let mut byte_lens: Vec<Option<u64>> = vec![None; inputs.len()];
        // The snapshot's stored modules, moved (not cloned) out of the
        // envelope: unchanged TUs take theirs during the probe, leaving
        // `Some` behind exactly at changed positions — the previous-side
        // modules the summary diff needs.
        let mut snap_modules: Vec<Option<TuModule>> = Vec::new();
        let mut modules: Vec<Option<TuModule>> = {
            let _probe = telemetry.span(LANE_MAIN, || {
                format!("cache probe ({} TUs)", inputs.len())
            });
            if let Some(dir) = cache {
                sweep_dangling_temps(dir, telemetry);
                // Snapshot outcomes differ cold vs warm, so every
                // snapshot event is obs class, like the probe events.
                match AnalysisSnapshot::load(dir, &snap_fingerprint) {
                    Ok(snap) if snap.source_hashes.len() == inputs.len() => {
                        telemetry.event(EventClass::Observational, "snapshot_loaded", || {
                            vec![
                                ("tus", snap.source_hashes.len().into()),
                                ("functions", u64::from(snap.function_count).into()),
                            ]
                        });
                        snapshot = Some(snap);
                        let snap = snapshot.as_mut().expect("just set");
                        snap_modules =
                            std::mem::take(&mut snap.modules).into_iter().map(Some).collect();
                    }
                    Ok(_) => {
                        telemetry.event(EventClass::Observational, "snapshot_rejected", || {
                            vec![("reason", "tu_count".into())]
                        });
                    }
                    Err(reason) => {
                        // A plainly absent snapshot is the ordinary cold
                        // case, not worth an event.
                        if reason != "missing" {
                            telemetry.event(
                                EventClass::Observational,
                                "snapshot_rejected",
                                || vec![("reason", reason.as_str().into())],
                            );
                        }
                    }
                }
            }
            inputs
                .iter()
                .zip(&hashes)
                .enumerate()
                .map(|(i, ((file, _), &hash))| {
                    let dir = cache?;
                    if let Some(snap) = &snapshot {
                        if snap.source_hashes[i] == hash {
                            // Unchanged since the snapshot: its module is
                            // already in memory and is moved out, not
                            // cloned. Keyed by content, so a renamed file
                            // still hits. The entry size was recorded
                            // when the snapshot was written, so the hit
                            // costs no JSON render.
                            let mut module =
                                snap_modules[i].take().expect("snapshot module taken once");
                            module.file = file.clone();
                            let bytes = snap.summary_bytes[i];
                            byte_lens[i] = Some(bytes);
                            telemetry.event(EventClass::Observational, "tu_cache_hit", || {
                                vec![
                                    ("file", file.as_str().into()),
                                    ("hash", hash_hex(hash).into()),
                                    ("bytes", bytes.into()),
                                ]
                            });
                            hits += 1;
                            return Some(module);
                        }
                    }
                    let doc = match std::fs::read_to_string(cache_path(dir, hash)) {
                        Ok(doc) => doc,
                        Err(_) => {
                            // Cache outcomes differ cold vs warm by
                            // definition, so every probe event is obs
                            // class (the det stream must be identical
                            // across cache states).
                            telemetry.event(EventClass::Observational, "tu_cache_miss", || {
                                vec![("file", file.as_str().into()), ("hash", hash_hex(hash).into())]
                            });
                            return None;
                        }
                    };
                    match TuModule::from_json(&doc, &fingerprint, hash) {
                        Ok(mut module) => {
                            // Entries are keyed by content, not by path:
                            // the same bytes under a new name hit.
                            module.file = file.clone();
                            hits += 1;
                            byte_lens[i] = Some(doc.len() as u64);
                            telemetry.event(EventClass::Observational, "tu_cache_hit", || {
                                vec![
                                    ("file", file.as_str().into()),
                                    ("hash", hash_hex(hash).into()),
                                    ("bytes", doc.len().into()),
                                ]
                            });
                            Some(module)
                        }
                        Err(err) => {
                            invalidations += 1;
                            telemetry.event(
                                EventClass::Observational,
                                "tu_cache_invalidated",
                                || {
                                    vec![
                                        ("file", file.as_str().into()),
                                        ("hash", hash_hex(hash).into()),
                                        ("reason", invalidation_reason(&err).into()),
                                    ]
                                },
                            );
                            None
                        }
                    }
                })
                .collect()
        };
        let misses = inputs.len() as u64 - hits;
        if cache.is_some() {
            telemetry.event(EventClass::Observational, "cache_probe_done", || {
                vec![
                    ("tus", inputs.len().into()),
                    ("hits", hits.into()),
                    ("misses", misses.into()),
                    ("invalidated", invalidations.into()),
                ]
            });
            telemetry.metrics(|m| {
                m.counter_add("cache/hits", hits);
                m.counter_add("cache/misses", misses);
                m.counter_add("cache/invalidations", invalidations);
            });
        }

        // --- Per-TU front end, sharded across the worker pool. Results
        // land in input order; the first error by input index wins, no
        // matter which worker hit it first. One worker runs inline on
        // the calling thread, so a single-file run spawns nothing. The
        // workers share one declaration memo: each top-level item text
        // (under one set of type names) is parsed once per run. ---
        let todo: Vec<usize> = (0..inputs.len()).filter(|&i| modules[i].is_none()).collect();
        let mut parsed: Vec<Option<Program>> = inputs.iter().map(|_| None).collect();
        {
            use std::sync::atomic::{AtomicUsize, Ordering};
            use std::sync::Mutex;

            let _front = telemetry.span(LANE_MAIN, || {
                format!("tu front end ({} of {} TUs)", todo.len(), inputs.len())
            });
            let workers = jobs.max(1).min(todo.len().max(1));
            let memo = DeclMemo::new();
            let next = AtomicUsize::new(0);
            type TuOutcome = Result<(TuModule, Program), PipelineError>;
            let slots: Vec<Mutex<Option<TuOutcome>>> =
                todo.iter().map(|_| Mutex::new(None)).collect();
            let work = |lane: u32| loop {
                let n = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = todo.get(n) else {
                    break;
                };
                let (file, source) = &inputs[i];
                let _tu_span = telemetry.span(lane, || format!("tu {file}"));
                let outcome = (|| {
                    let unit = memo.parse(i, source)?;
                    let program = Program::build(&unit)?;
                    let summary = ProgramSummary::build(&program, refine, 1);
                    let map = SourceMap::new(file.clone(), source.clone());
                    let module = TuModule::extract(&unit, &program, &summary, &map);
                    Ok((module, program))
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

            telemetry.metrics(|m| {
                let (decls, shared) = memo.decl_counts();
                m.counter_add("frontend/decls", decls);
                m.counter_add("frontend/decls_shared", shared);
            });
            for (n, slot) in slots.into_iter().enumerate() {
                let i = todo[n];
                let outcome = slot
                    .into_inner()
                    .expect("tu slot poisoned")
                    .expect("every TU is analysed exactly once");
                match outcome {
                    Ok((module, program)) => {
                        modules[i] = Some(module);
                        parsed[i] = Some(program);
                    }
                    Err(error) => {
                        return Err(ProjectError::Tu {
                            file: inputs[i].0.clone(),
                            error,
                        });
                    }
                }
            }
        }
        let mut modules: Vec<TuModule> = modules
            .into_iter()
            .map(|m| m.expect("every TU has a module after the front end"))
            .collect();

        // --- Write back the freshly computed modules (best-effort). ---
        if let Some(dir) = cache {
            let _write = telemetry.span(LANE_MAIN, || {
                format!("cache write ({} entries)", todo.len())
            });
            let _ = std::fs::create_dir_all(dir);
            for &i in &todo {
                let doc = modules[i].to_json(&fingerprint);
                byte_lens[i] = Some(doc.len() as u64);
                publish_entry(dir, hashes[i], &doc);
                telemetry.event(EventClass::Observational, "tu_cache_publish", || {
                    vec![
                        ("file", inputs[i].0.as_str().into()),
                        ("hash", hash_hex(hashes[i]).into()),
                        ("bytes", doc.len().into()),
                    ]
                });
            }
        }

        // TU summary sizes, recorded for *every* module (not just the
        // written-back ones) in input order, so the bucket counts are
        // identical cold or warm. Sizes learned during the probe or the
        // write-back are reused; only modules nobody rendered (the
        // cacheless run) pay for a render here, and only when metrics
        // collection is on.
        telemetry.metrics(|m| {
            for (module, len) in modules.iter().zip(&byte_lens) {
                let bytes =
                    len.unwrap_or_else(|| module.to_json(&fingerprint).len() as u64);
                m.hist_record("frontend/tu_summary_bytes", bytes);
            }
        });

        // --- Summary diff vs the snapshot, over borrowed module lists.
        // An unchanged TU's previous side is the current module itself
        // (content-identical by hash), so nothing is cloned and a
        // content-identical TU under a new name is not a change; a
        // changed TU's previous side is the module left behind in
        // `snap_modules`. The delta drives the fixpoint-reuse gate
        // below. ---
        let frontend_ns = frontend_start.elapsed().as_nanos() as u64;
        let delta: Option<LinkDelta> = snapshot.as_ref().map(|_| {
            let previous: Vec<&TuModule> = snap_modules
                .iter()
                .enumerate()
                .map(|(i, old)| old.as_ref().unwrap_or(&modules[i]))
                .collect();
            link_delta_ref(&previous, &modules)
        });
        if let Some(delta) = &delta {
            telemetry.event(EventClass::Observational, "link_delta", || {
                vec![
                    ("tus_changed", delta.tus_changed.len().into()),
                    ("fns_added", delta.fns_added.len().into()),
                    ("fns_removed", delta.fns_removed.len().into()),
                    ("fns_changed", delta.fns_changed.len().into()),
                    (
                        "classes_changed",
                        (delta.classes_added.len()
                            + delta.classes_removed.len()
                            + delta.classes_changed.len())
                        .into(),
                    ),
                    (
                        "class_space_stable",
                        u64::from(delta.class_space_stable()).into(),
                    ),
                ]
            });
        }

        // --- Link. ---
        let link_start = Instant::now();
        let link_span = telemetry.span(LANE_MAIN, || format!("link ({} TUs)", modules.len()));
        let linked = link_with(&modules, &parsed, telemetry).map_err(ProjectError::Link)?;
        drop(link_span);
        let link_ns = link_start.elapsed().as_nanos() as u64;

        #[cfg(debug_assertions)]
        if hits == 0 {
            // A cold link must resolve to exactly the summary a fresh
            // walk of the linked program would extract; the cache layer
            // then inherits this identity byte for byte.
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

        // --- Whole-program phases on the linked model. ---
        let program = linked.program();
        let attribute = |e: TypeError| -> ProjectError {
            let file = linked
                .locate_error(&e)
                .map(|t| modules[t].file.clone())
                .unwrap_or_else(|| "<linked program>".to_string());
            ProjectError::Tu {
                file,
                error: PipelineError::Type(e),
            }
        };
        // --- Fixpoint-reuse gate: with a snapshot in hand and a summary
        // diff that provably cannot perturb the converged fixpoint, the
        // stored call graph and liveness are replayed instead of re-run.
        // `Everything` builds no schedule (and is trivial to rebuild),
        // so it never replays. ---
        let reusable = match (&snapshot, &delta) {
            (Some(snap), Some(delta)) if algorithm != Algorithm::Everything => {
                fixpoint_reusable(snap, delta, program)
            }
            _ => false,
        };
        if let Some(delta) = &delta {
            let frontier = delta.frontier_len();
            let total = program.function_count();
            telemetry.event(EventClass::Observational, "fixpoint_invalidate", || {
                vec![
                    ("frontier_fns", frontier.into()),
                    ("total_fns", total.into()),
                    ("reused", u64::from(reusable).into()),
                ]
            });
        }

        let stored = snapshot.as_ref().filter(|_| reusable);
        let Solved {
            callgraph,
            schedule,
            liveness,
            scan_counters,
            used,
            replayed,
        } = solve(program, linked.summary(), &config, algorithm, stored, telemetry)
            .map_err(attribute)?;

        let snapshot_warm = u64::from(snapshot.is_some());
        let reused_fns = if replayed {
            callgraph.reachable_count() as u64
        } else {
            0
        };
        let frontier_fns = delta.as_ref().map_or(0, |d| d.frontier_len() as u64);
        telemetry.update_stats(|s| {
            s.jobs = jobs as u64;
            s.bodies_walked += body_walk_count() - walks_before;
            s.tu_modules = inputs.len() as u64;
            s.tu_cache_hits = hits;
            s.tu_cache_misses = misses;
            s.tu_cache_invalidations = invalidations;
            s.tus_parsed = todo.len() as u64;
            s.tus_summarized = todo.len() as u64;
            s.frontend_ns += frontend_ns;
            s.link_ns += link_ns;
            s.snapshot_warm_starts += snapshot_warm;
            s.snapshot_reused_fns += reused_fns;
            s.snapshot_frontier_fns += frontier_fns;
        });
        // --- Snapshot write-back (best-effort, atomic). Skipped when
        // nothing changed and the fixpoint was replayed: the published
        // snapshot is already byte-identical to what we would write. ---
        if let Some(dir) = cache {
            let unchanged = delta.as_ref().is_some_and(|d| d.is_empty());
            if !(unchanged && replayed) {
                let _snap_span = telemetry.span(LANE_MAIN, || "snapshot write".to_string());
                let snap = AnalysisSnapshot {
                    fingerprint: snap_fingerprint.clone(),
                    source_hashes: hashes.clone(),
                    summary_bytes: modules
                        .iter()
                        .zip(&byte_lens)
                        .map(|(m, len)| len.unwrap_or_else(|| m.to_json(&fingerprint).len() as u64))
                        .collect(),
                    // The module list is dead after this point, so the
                    // snapshot takes it instead of cloning it.
                    modules: std::mem::take(&mut modules),
                    reachable_names: callgraph
                        .reachable()
                        .map(|f| (f.index() as u32, program.func_display_name(f)))
                        .collect(),
                    class_count: program.class_count() as u32,
                    function_count: program.function_count() as u32,
                    callgraph: callgraph.to_parts(),
                    schedule,
                    liveness: liveness.to_parts(),
                    liveness_counters: scan_counters,
                };
                let _ = std::fs::create_dir_all(dir);
                snap.save(dir);
                telemetry.event(EventClass::Observational, "snapshot_publish", || {
                    vec![
                        ("tus", snap.source_hashes.len().into()),
                        ("functions", u64::from(snap.function_count).into()),
                    ]
                });
            }
        }

        let mut sources = SourceSet::new();
        for (file, source) in inputs {
            sources.push(SourceMap::new(file.clone(), source.clone()));
        }
        Ok(Arc::new(EpochSnapshot {
            epoch,
            sources,
            files: inputs.iter().map(|(f, _)| f.clone()).collect(),
            linked,
            callgraph,
            liveness,
            used,
            config,
            counters: telemetry.counters(),
        }))
    }

    /// A shared handle to the underlying immutable snapshot (a refcount
    /// bump — this is what serve-mode readers clone per query).
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// The per-TU source maps, in input order.
    pub fn sources(&self) -> &SourceSet {
        self.snapshot.sources()
    }

    /// The input file names, in input order.
    pub fn files(&self) -> &[String] {
        self.snapshot.files()
    }

    /// The linked whole-program view with its per-TU provenance.
    pub fn linked(&self) -> &LinkedProgram {
        self.snapshot.linked()
    }

    /// The linked program model.
    pub fn program(&self) -> &Program {
        self.snapshot.program()
    }

    /// The call graph that scoped the analysis.
    pub fn callgraph(&self) -> &CallGraph {
        self.snapshot.callgraph()
    }

    /// The per-member classification.
    pub fn liveness(&self) -> &Liveness {
        self.snapshot.liveness()
    }

    /// The used-class set.
    pub fn used(&self) -> &HashSet<ClassId> {
        self.snapshot.used()
    }

    /// The configuration the run used.
    pub fn config(&self) -> &AnalysisConfig {
        self.snapshot.config()
    }

    /// Builds the report over the linked program.
    pub fn report(&self) -> Report {
        self.snapshot.report()
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
        let cold_stats = cold_tel.stats();
        assert_eq!(cold_stats.tu_cache_hits, 0);
        assert_eq!(cold_stats.tus_summarized, 2);

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
        let warm_stats = warm_tel.stats();
        assert_eq!(warm_stats.tu_cache_hits, 2);
        assert_eq!(warm_stats.tus_parsed, 0);
        assert_eq!(warm_stats.tus_summarized, 0);

        assert_eq!(warm.report().to_string(), cold.report().to_string());
        assert_eq!(
            format!("{:?}", warm_tel.counters().rows()),
            format!("{:?}", cold_tel.counters().rows()),
            "deterministic counters must not see the cache"
        );
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
