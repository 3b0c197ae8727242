//! The cache file and the warm-start rules: one `analysis.snap` per
//! cache directory.
//!
//! An [`AnalysisSnapshot`] holds the binary module of every TU of the
//! last successful run, keyed by source hash, with the converged
//! call-graph fixpoint, its deterministic schedule and the liveness
//! classification. A run reaches it through one `Cache`, which owns the
//! warm-start rules: the probe serves each TU's module by source hash
//! and decides once whether the stored fixpoint is eligible (the whole
//! [`snapshot_fingerprint`], the same TU count); after the link, the
//! reuse gate replays it when the summary diff proves it unaffected,
//! with telemetry byte-identical to a cold run; the publish replaces
//! the file unless nothing changed and the fixpoint was replayed.
//!
//! The file is sealed with [`ddm_hierarchy::binmod`]'s `seal`/`open`
//! (magic, format version, word-wise FNV-1a checksum) around one
//! deterministic payload, so concurrent writers of one analysis publish
//! byte-identical files. The payload is the [`Wire`] layout of the
//! snapshot, declared once below as a field list like every record it
//! holds (the liveness parts here, the fixpoint's in `ddm-callgraph`,
//! the modules' in `ddm-hierarchy`); its modules go through the class
//! table of [`encode_modules`], and decoding rejects a type nested
//! deeper than the parser builds. Publication is atomic (temp, then
//! rename), and `DDM_CACHE_FAULT` injects crashes into it. [`AnalysisSnapshot::load`]
//! checks the envelope, the configuration and every module; any
//! rejection makes the run recompute every TU. The snapshot is
//! advisory, never trusted.

use crate::analysis::{AnalysisConfig, Solved};
use crate::liveness::{LiveReason, LivenessParts, Origin};
use ddm_callgraph::{Algorithm, CallGraph, CallGraphParts, CgSchedule};
use ddm_hierarchy::binmod::{open, seal};
use ddm_hierarchy::{
    decode_modules, encode_modules, hash_hex, link_delta_ref, wire_enum, wire_record, ByteReader,
    ByteWriter, FuncId, LinkDelta, Program, Reject, TuModule, Wire, BINMOD_FORMAT_VERSION,
};
use ddm_telemetry::{Counters, EventClass, Telemetry, LANE_MAIN};
use std::collections::HashMap;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// The cache file name inside a cache directory. `tu-*` files that
/// earlier versions wrote next to it are ignored: never read, never
/// deleted.
pub const SNAPSHOT_FILE: &str = "analysis.snap";

/// Bumped whenever the envelope or payload encoding changes shape, or
/// what a field means; a reader that sees any other version rejects
/// the file (version skew) and the run recomputes every TU. Version 2
/// stored entry sizes in `summary_bytes`, which is now written as
/// zeros and never read.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 2;

/// The 8-byte magic at the start of every snapshot file.
const MAGIC: &[u8; 8] = b"DDMSNAP\0";

/// The per-TU summary configuration, part of the [`module_fingerprint`].
/// Only configuration that changes what a *per-TU summary* contains
/// belongs here (today: whether §3.1 points-to refinement ran, which is
/// implied by the call-graph algorithm). Options that act at link time
/// or later — `sizeof` policy, down-cast policy, library classes —
/// deliberately do not invalidate cached modules.
pub fn config_fingerprint(algorithm: Algorithm) -> String {
    format!("v1;refine={}", u8::from(algorithm == Algorithm::Pta))
}

/// The part of a [`snapshot_fingerprint`] that keys the stored modules:
/// both format versions and the per-TU summary configuration
/// ([`config_fingerprint`]). A snapshot whose fingerprint starts with
/// this part serves its modules, whatever the link-time options.
pub fn module_fingerprint(algorithm: Algorithm) -> String {
    format!(
        "snap-v{};binmod-v{};tu={}",
        SNAPSHOT_FORMAT_VERSION,
        BINMOD_FORMAT_VERSION,
        config_fingerprint(algorithm)
    )
}

/// The configuration fingerprint a snapshot is keyed by: the
/// [`module_fingerprint`], then every option that acts at link time or
/// later and so can change the converged result — the call-graph
/// algorithm, the `sizeof` and down-cast policies and the library-class
/// set (sorted for determinism). The stored fixpoint is replayed only
/// under the whole fingerprint.
pub fn snapshot_fingerprint(config: &AnalysisConfig, algorithm: Algorithm) -> String {
    let mut libs: Vec<&str> = config.library_classes.iter().map(String::as_str).collect();
    libs.sort_unstable();
    // `algo=` is the algorithm's tag in the snapshot layout.
    let mut algo = ByteWriter::new();
    algorithm.put(&mut algo);
    format!(
        "{};algo={};sizeof={:?};downcast={};libs={}",
        module_fingerprint(algorithm),
        algo.bytes()[0],
        config.sizeof_policy,
        u8::from(config.assume_safe_downcasts),
        libs.join(",")
    )
}

wire_enum! {
    LiveReason {
        0 => Read, 1 => AddressTaken, 2 => PointerToMember, 3 => UnsafeCast,
        4 => UnionPropagation, 5 => VolatileWrite, 6 => Sizeof,
    }
    Origin { 0 => Access { func }, 1 => MarkAll { func, root }, 2 => Union { root, via } }
}

/// Everything a warm run needs to reproduce a converged analysis
/// without re-running it: the binary module of every TU (the module
/// cache, keyed by `source_hashes`), the display names of the stored
/// reachable functions (the reuse gate's id-stability witness), the
/// linked program's shape, the frozen call graph with its deterministic
/// replay schedule, and the liveness classification with the counters
/// its scan accumulated.
///
/// The snapshot never stores the linked `Program` itself: warm runs
/// always re-link from the decoded modules, so the link-phase
/// deterministic events fire naturally and the linked model can never
/// drift from what the modules describe.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSnapshot {
    /// The [`snapshot_fingerprint`] the analysis ran under.
    pub fingerprint: String,
    /// FNV-1a content hash of each TU's source, in input order.
    pub source_hashes: Vec<u64>,
    /// One `0` per TU. Nothing reads it; it stays, with its place in
    /// the payload, only because the repository benchmark builds this
    /// struct field by field.
    pub summary_bytes: Vec<u64>,
    /// The extracted module of each TU, in input order; module `i` has
    /// source hash `source_hashes[i]`.
    pub modules: Vec<TuModule>,
    /// `(function id, display name)` for every stored-reachable
    /// function, ascending by id. The reuse gate checks these names
    /// against the freshly linked program to prove the id assignment of
    /// everything reachable survived the edit.
    pub reachable_names: Vec<(u32, String)>,
    /// Class count of the linked program the snapshot was taken from.
    pub class_count: u32,
    /// Function count of the linked program the snapshot was taken from.
    pub function_count: u32,
    /// The frozen call graph.
    pub callgraph: CallGraphParts,
    /// The deterministic fixpoint schedule for telemetry replay.
    pub schedule: CgSchedule,
    /// The liveness classification with provenance.
    pub liveness: LivenessParts,
    /// The deterministic counters the liveness scan accumulated (the
    /// graph-shape counters are recomputed from the graph itself).
    pub liveness_counters: Counters,
}

// The payload of `analysis.snap`; its modules go through the class table.
wire_record! {
    LivenessParts { live, unclassifiable, origins }
    AnalysisSnapshot {
        fingerprint, source_hashes, summary_bytes,
        modules with encode_modules, decode_modules,
        reachable_names, class_count, function_count, callgraph, schedule, liveness,
        liveness_counters,
    }
}

impl AnalysisSnapshot {
    /// Serializes the snapshot into its complete file image (envelope +
    /// payload). Deterministic: equal snapshots encode to equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.put(&mut w);
        seal(MAGIC, SNAPSHOT_FORMAT_VERSION, w.bytes())
    }

    /// Decodes a complete file image.
    ///
    /// # Errors
    ///
    /// A human-readable rejection reason: the envelope's [`Reject`]
    /// (`corrupt` for a short image, bad magic or checksum mismatch,
    /// `version_skew`), or any structural decode failure. Callers treat
    /// every error the same way — recompute.
    pub fn decode(bytes: &[u8]) -> Result<AnalysisSnapshot, String> {
        let payload =
            open(MAGIC, SNAPSHOT_FORMAT_VERSION, bytes).map_err(|reject| reject.to_string())?;
        let mut r = ByteReader::new(payload);
        let snap = AnalysisSnapshot::get(&mut r)?;
        if !r.is_at_end() {
            return Err("trailing bytes after payload".to_string());
        }
        Ok(snap)
    }

    /// Loads the snapshot in `dir` and checks it against `key`: a whole
    /// [`snapshot_fingerprint`], or its [`module_fingerprint`] part,
    /// which accepts any link-time options. Every module must pass
    /// [`TuModule::validate`] and carry its slot's source hash. Reading
    /// the file and decoding it run under their own spans, `snapshot
    /// read` and `snapshot decode`.
    ///
    /// # Errors
    ///
    /// The rejection reason: `corrupt`, `version_skew`, a structural
    /// decode failure, or `config_fingerprint`; `missing` when there is
    /// no snapshot file (the common cold case).
    pub fn load(dir: &Path, key: &str, telemetry: &Telemetry) -> Result<AnalysisSnapshot, String> {
        let missing = |_| "missing".to_string();
        let file = std::fs::File::open(dir.join(SNAPSHOT_FILE)).map_err(missing)?;
        let bytes = {
            let _read = telemetry.span(LANE_MAIN, || "snapshot read".to_string());
            let (mut file, mut bytes) = (file, Vec::new());
            file.read_to_end(&mut bytes).map_err(missing)?;
            bytes
        };
        let _decode = telemetry.span(LANE_MAIN, || "snapshot decode".to_string());
        let snap = AnalysisSnapshot::decode(&bytes)?;
        drop(bytes);
        let keyed = snap
            .fingerprint
            .strip_prefix(key)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with(';'));
        if !keyed {
            return Err(Reject::ConfigFingerprint.to_string());
        }
        let n = snap.source_hashes.len();
        let sound = snap.modules.len() == n
            && snap.summary_bytes.len() == n
            && snap
                .modules
                .iter()
                .zip(&snap.source_hashes)
                .all(|(m, &hash)| m.source_hash == hash && m.validate().is_ok());
        if !sound {
            return Err(Reject::Corrupt.to_string());
        }
        Ok(snap)
    }
}

/// The cache side of one run, from the probe to the publish.
pub(crate) struct Cache<'d> {
    dir: &'d Path,
    /// The run's [`snapshot_fingerprint`].
    fingerprint: String,
    /// The loaded snapshot while its fixpoint is eligible, its modules
    /// moved out; the reuse gate takes it.
    eligible: Option<AnalysisSnapshot>,
    /// An eligible snapshot's modules the probe left in place: the
    /// previous side of the summary diff where a TU's text changed.
    previous: Vec<Option<TuModule>>,
    /// The summary diff against an eligible snapshot.
    delta: Option<LinkDelta>,
}

impl<'d> Cache<'d> {
    /// The probe's cache side, with a cache directory: sweeps it, loads
    /// its snapshot, decides once whether the stored fixpoint is eligible
    /// (the whole fingerprint and the same TU count), and serves each TU
    /// the stored module with its source hash (`hashes[i]`), wherever it
    /// sits: moved out of the TU's own slot, cloned from any other, so a
    /// renamed, moved or repeated text hits too. Returns each TU's
    /// served module (`None`: a miss) and the cache.
    pub(crate) fn probe(
        dir: Option<&'d Path>,
        config: &AnalysisConfig,
        algorithm: Algorithm,
        inputs: &[(String, String)],
        hashes: &[u64],
        telemetry: &Telemetry,
    ) -> (Vec<Option<TuModule>>, Option<Cache<'d>>) {
        let Some(dir) = dir else {
            return (inputs.iter().map(|_| None).collect(), None);
        };
        sweep_dangling_temps(dir, telemetry);
        let n = inputs.len();
        let fingerprint = snapshot_fingerprint(config, algorithm);
        let (mut eligible, mut invalidations) = (false, 0u64);
        // Snapshot and probe outcomes differ cold vs warm, so every
        // event here is obs class.
        let key = module_fingerprint(algorithm);
        let mut snapshot = match AnalysisSnapshot::load(dir, &key, telemetry) {
            Ok(snap) => {
                let same_tus = snap.source_hashes.len() == n;
                let fixpoint = match (snap.fingerprint == fingerprint, same_tus) {
                    (false, _) => "config_fingerprint",
                    (true, false) => "tu_count",
                    (true, true) => "eligible",
                };
                eligible = fixpoint == "eligible";
                telemetry.event(EventClass::Observational, "snapshot_loaded", || {
                    vec![
                        ("tus", snap.source_hashes.len().into()),
                        ("functions", u64::from(snap.function_count).into()),
                        ("fixpoint", fixpoint.into()),
                    ]
                });
                Some(snap)
            }
            // A plainly absent snapshot is the ordinary cold case, not
            // worth an event.
            Err(reason) if reason == "missing" => None,
            Err(reason) => {
                invalidations = n as u64;
                telemetry.event(EventClass::Observational, "snapshot_rejected", || {
                    vec![("reason", reason.as_str().into())]
                });
                None
            }
        };
        // Slot `j` keeps its module until TU `j` takes it; a TU whose
        // text sits at another slot clones it from there, or from TU `j`
        // if that took it already.
        let mut stored: Vec<Option<TuModule>> = snapshot
            .as_mut()
            .map(|snap| {
                std::mem::take(&mut snap.modules)
                    .into_iter()
                    .map(Some)
                    .collect()
            })
            .unwrap_or_default();
        let stored_hashes = snapshot.as_ref().map_or(&[][..], |s| &s.source_hashes[..]);
        let by_hash: HashMap<u64, usize> = stored_hashes
            .iter()
            .enumerate()
            .map(|(j, &h)| (h, j))
            .collect();
        let mut served: Vec<Option<TuModule>> = Vec::with_capacity(n);
        for (i, ((file, _), &hash)) in inputs.iter().zip(hashes).enumerate() {
            let mut module = if stored_hashes.get(i) == Some(&hash) {
                stored[i].take()
            } else {
                by_hash
                    .get(&hash)
                    .and_then(|&j| stored[j].clone().or_else(|| served[j].clone()))
            };
            if let Some(module) = &mut module {
                module.file = file.clone();
            }
            let event = if module.is_some() {
                "tu_cache_hit"
            } else {
                "tu_cache_miss"
            };
            telemetry.event(EventClass::Observational, event, || {
                vec![
                    ("file", file.as_str().into()),
                    ("hash", hash_hex(hash).into()),
                ]
            });
            served.push(module);
        }
        let hits = served.iter().filter(|m| m.is_some()).count() as u64;
        telemetry.metrics(|m| {
            m.counter_add("cache/hits", hits);
            m.counter_add("cache/invalidations", invalidations);
        });
        let cache = Cache {
            dir,
            fingerprint,
            eligible: snapshot.filter(|_| eligible),
            previous: if eligible { stored } else { Vec::new() },
            delta: None,
        };
        (served, Some(cache))
    }

    /// The summary diff of the run's `modules` against an eligible
    /// snapshot's, under a `link delta` span. An unchanged TU's previous
    /// side is the run's module itself (content-identical by hash), so
    /// nothing is cloned and the same text under a new name is no change.
    pub(crate) fn diff(&mut self, modules: &[TuModule], telemetry: &Telemetry) {
        if self.eligible.is_none() {
            return;
        }
        let _delta = telemetry.span(LANE_MAIN, || "link delta".to_string());
        let previous = std::mem::take(&mut self.previous);
        let old: Vec<&TuModule> = previous
            .iter()
            .zip(modules)
            .map(|(old, new)| old.as_ref().unwrap_or(new))
            .collect();
        let delta = link_delta_ref(&old, modules);
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
        self.delta = Some(delta);
    }

    /// The reuse gate, once the diffed modules are linked into `program`:
    /// the eligible snapshot's fixpoint, its call graph rebuilt over
    /// `program`, when the diff cannot perturb it ([`fixpoint_reusable`]).
    /// `Everything` builds no schedule, so it never replays. A stored
    /// graph that does not fit `program` is rejected, and the run solves
    /// afresh.
    pub(crate) fn reusable_fixpoint(
        &mut self,
        program: &Program,
        algorithm: Algorithm,
        telemetry: &Telemetry,
    ) -> Option<StoredFixpoint> {
        let (snap, delta) = (self.eligible.take()?, self.delta.as_ref()?);
        let reusable =
            algorithm != Algorithm::Everything && fixpoint_reusable(&snap, delta, program);
        let (frontier, total) = (delta.frontier_len(), program.function_count());
        telemetry.event(EventClass::Observational, "fixpoint_invalidate", || {
            vec![
                ("frontier_fns", frontier.into()),
                ("total_fns", total.into()),
                ("reused", u64::from(reusable).into()),
            ]
        });
        if !reusable {
            return None;
        }
        match CallGraph::from_parts(snap.callgraph, total, program.class_count()) {
            Ok(callgraph) => Some(StoredFixpoint {
                callgraph,
                schedule: snap.schedule,
                liveness: snap.liveness,
                counters: snap.liveness_counters,
            }),
            Err(reason) => {
                telemetry.event(EventClass::Observational, "snapshot_rejected", || {
                    vec![("reason", reason.as_str().into())]
                });
                None
            }
        }
    }

    /// The publish stage's cache side: records the warm start's
    /// metrics, then replaces the file with the run's snapshot unless
    /// nothing changed and the fixpoint was replayed, when the file
    /// already holds those bytes.
    pub(crate) fn publish(
        self,
        hashes: Vec<u64>,
        modules: Vec<TuModule>,
        program: &Program,
        solved: &mut Solved,
        telemetry: &Telemetry,
    ) {
        let callgraph = &solved.callgraph;
        telemetry.metrics(|m| {
            m.counter_add("snapshot/warm_starts", u64::from(self.delta.is_some()));
            let reused = if solved.replayed {
                callgraph.reachable_count()
            } else {
                0
            };
            m.counter_add("snapshot/reused_fns", reused as u64);
            let frontier = self.delta.as_ref().map_or(0, LinkDelta::frontier_len);
            m.counter_add("snapshot/frontier_fns", frontier as u64);
        });
        if solved.replayed && self.delta.is_some_and(|d| d.is_empty()) {
            return;
        }
        let snap = AnalysisSnapshot {
            fingerprint: self.fingerprint,
            summary_bytes: vec![0; hashes.len()],
            source_hashes: hashes,
            modules,
            reachable_names: callgraph
                .reachable()
                .map(|f| (f.index() as u32, program.func_display_name(f)))
                .collect(),
            class_count: program.class_count() as u32,
            function_count: program.function_count() as u32,
            callgraph: callgraph.to_parts(),
            schedule: std::mem::take(&mut solved.schedule),
            liveness: solved.liveness.to_parts(),
            liveness_counters: solved.scan_counters,
        };
        let image = {
            let _encode = telemetry.span(LANE_MAIN, || "snapshot encode".to_string());
            snap.encode()
        };
        {
            let _save = telemetry.span(LANE_MAIN, || "snapshot save".to_string());
            let _ = std::fs::create_dir_all(self.dir);
            replace_file(self.dir, SNAPSHOT_FILE, &image);
        }
        telemetry.event(EventClass::Observational, "snapshot_publish", || {
            vec![
                ("tus", snap.source_hashes.len().into()),
                ("functions", u64::from(snap.function_count).into()),
            ]
        });
    }
}

/// A stored fixpoint the reuse gate let through: the call graph rebuilt
/// over the freshly linked program, with the schedule, classification
/// and scan counters it converged with. The solve replays it.
pub(crate) struct StoredFixpoint {
    pub(crate) callgraph: CallGraph,
    pub(crate) schedule: CgSchedule,
    pub(crate) liveness: LivenessParts,
    pub(crate) counters: Counters,
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
    let named =
        |list: &[String], name: &str| list.binary_search_by(|n| n.as_str().cmp(name)).is_ok();
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

/// Whether the `DDM_CACHE_FAULT` environment variable (read once per
/// process) selects the crash-injection point `point` of [`replace_file`]:
/// `kill-mid-write` aborts after writing half of the image to its temp
/// file (a torn temp, never a torn final), `kill-pre-rename` after
/// writing all of it, before the rename. Torture tests use these to
/// prove a process dying mid-publish can never leave a torn
/// `analysis.snap` behind. Any other value disables injection.
fn fault(point: &str) -> bool {
    static FAULT: OnceLock<Option<String>> = OnceLock::new();
    FAULT
        .get_or_init(|| std::env::var("DDM_CACHE_FAULT").ok())
        .as_deref()
        == Some(point)
}

/// Atomically publishes one cache file: `image` is written to a
/// process-unique `<name>.tmp.<pid>` inside `dir`, then renamed over
/// `name`. Readers therefore observe either no file, the previous one
/// or this one — a crash between the write and the rename leaves only
/// a dangling temp, which [`sweep_dangling_temps`] removes on a later
/// open. Best-effort like all cache I/O: any failure simply means the
/// file is recomputed next time.
fn replace_file(dir: &Path, name: &str, image: &[u8]) {
    let tmp = dir.join(format!("{name}.tmp.{}", std::process::id()));
    let written = (|| -> std::io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        if fault("kill-mid-write") {
            f.write_all(&image[..image.len() / 2])?;
            let _ = f.sync_all();
            std::process::abort();
        }
        f.write_all(image)
    })();
    match written {
        Ok(()) => {
            if fault("kill-pre-rename") {
                std::process::abort();
            }
            let _ = std::fs::rename(&tmp, dir.join(name));
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
const TEMP_SWEEP_MIN_AGE: Duration = Duration::from_secs(60);

/// Removes dangling `analysis.snap.tmp.*` files left by a crashed
/// writer. Runs when a cache directory is opened for probing. Only
/// temps older than [`TEMP_SWEEP_MIN_AGE`] are removed, so a live
/// concurrent writer's in-flight temp survives the probe and its rename
/// still publishes; fresh temps are skipped silently and collected by a
/// later open once they age past the gate.
///
/// A process lists each directory at most once per gate interval: a
/// temp the gate spared survives a relisting that soon anyway, so one
/// the last listing missed is collected at most one interval later.
/// This keeps a `ddm serve` rebuild from paying for a listing each
/// time, however many files an older version left in the directory;
/// every `ddm` run is a new process and sweeps on open.
fn sweep_dangling_temps(dir: &Path, telemetry: &Telemetry) {
    static LISTED: OnceLock<Mutex<HashMap<PathBuf, Instant>>> = OnceLock::new();
    {
        let mut listed = LISTED
            .get_or_init(Mutex::default)
            .lock()
            .expect("sweep times poisoned");
        let now = Instant::now();
        if listed
            .get(dir)
            .is_some_and(|&at| now.duration_since(at) < TEMP_SWEEP_MIN_AGE)
        {
            return;
        }
        listed.insert(dir.to_path_buf(), now);
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let snap_tmp = format!("{SNAPSHOT_FILE}.tmp.");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with(&snap_tmp) {
            continue;
        }
        // A temp whose mtime sits in the future is fresh; one whose
        // file system reports no mtime is swept.
        let fresh = entry.metadata().and_then(|m| m.modified()).is_ok_and(|at| {
            SystemTime::now()
                .duration_since(at)
                .map_or(true, |age| age < TEMP_SWEEP_MIN_AGE)
        });
        if !fresh {
            let _ = std::fs::remove_file(entry.path());
            telemetry.event(EventClass::Observational, "cache_temp_swept", || {
                vec![("temp", name.as_ref().into())]
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::{LiveReason, Origin};
    use ddm_callgraph::CgRound;
    use ddm_cppfront::{parse, SourceMap};
    use ddm_hierarchy::{ClassId, MemberRef, Program, ProgramSummary};
    use ddm_telemetry::Histogram;

    fn sample_snapshot() -> AnalysisSnapshot {
        let src = "class A { public: int x; int y; };\n\
                   int main() { A a; return a.x; }";
        let unit = parse(src).unwrap();
        let program = Program::build(&unit).unwrap();
        let summary = ProgramSummary::build(&program, false, 1);
        let map = SourceMap::new("a.cpp".to_string(), src.to_string());
        let module = TuModule::extract(&unit, &program, &summary, &map);

        let mut dispatch = Histogram::default();
        dispatch.record(2);
        dispatch.record(5);
        let mut counters = Counters::default();
        counters.scan_reads = 3;
        counters.members_live = 1;
        counters.members_dead = 1;
        AnalysisSnapshot {
            fingerprint: "snap-test".to_string(),
            source_hashes: vec![ddm_hierarchy::fnv1a64(src.as_bytes())],
            summary_bytes: vec![321],
            modules: vec![module],
            reachable_names: vec![(0, "main".to_string())],
            class_count: 1,
            function_count: 1,
            callgraph: CallGraphParts {
                algorithm: Algorithm::Rta,
                reachable: vec![FuncId::from_index(0)],
                instantiated: vec![ClassId::from_index(0)],
                address_taken: vec![],
                edge_offsets: vec![0, 0],
                edge_targets: vec![],
            },
            schedule: CgSchedule {
                rounds: vec![CgRound {
                    delta_fns: 1,
                    pops: 1,
                    drains: 0,
                }],
                pops: 1,
                drains: 0,
                parked: 0,
                dispatch_candidates: dispatch,
                replays: 2,
                interned_symbols: 4,
                arena_bytes: 64,
            },
            liveness: LivenessParts {
                live: vec![(
                    MemberRef::new(ClassId::from_index(0), 0),
                    LiveReason::Read,
                )],
                unclassifiable: vec![],
                origins: vec![
                    (
                        MemberRef::new(ClassId::from_index(0), 0),
                        Origin::Access {
                            func: Some(FuncId::from_index(0)),
                        },
                    ),
                    (
                        MemberRef::new(ClassId::from_index(0), 1),
                        Origin::Union {
                            root: ClassId::from_index(0),
                            via: MemberRef::new(ClassId::from_index(0), 0),
                        },
                    ),
                ],
            },
            liveness_counters: counters,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = AnalysisSnapshot::decode(&bytes).expect("decode");
        assert_eq!(back, snap);
        assert_eq!(back.encode(), bytes, "re-encode is a fixpoint");
    }

    #[test]
    fn encoding_is_deterministic() {
        let snap = sample_snapshot();
        assert_eq!(snap.encode(), snap.clone().encode());
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let bytes = sample_snapshot().encode();
        assert_eq!(AnalysisSnapshot::decode(&[]).unwrap_err(), "corrupt");
        assert_eq!(
            AnalysisSnapshot::decode(b"NOTASNAP0000000000000000").unwrap_err(),
            "corrupt",
            "bad magic"
        );
        // Any truncation of the payload breaks the checksum.
        for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(
                AnalysisSnapshot::decode(&bytes[..cut.max(20)]).unwrap_err(),
                "corrupt",
                "cut at {cut}"
            );
        }
        // A single flipped payload byte breaks it too.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(AnalysisSnapshot::decode(&flipped).unwrap_err(), "corrupt");
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bytes = sample_snapshot().encode();
        bytes[8..12].copy_from_slice(&(SNAPSHOT_FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            AnalysisSnapshot::decode(&bytes).unwrap_err(),
            "version_skew"
        );
    }

    #[test]
    fn load_checks_the_fingerprint_and_save_is_atomic() {
        let dir = std::env::temp_dir().join(format!("ddm-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        assert_eq!(
            AnalysisSnapshot::load(&dir, "snap-test", &Telemetry::disabled()).unwrap_err(),
            "missing"
        );
        let snap = sample_snapshot();
        replace_file(&dir, SNAPSHOT_FILE, &snap.encode());
        let back = AnalysisSnapshot::load(&dir, "snap-test", &Telemetry::disabled()).expect("load");
        assert_eq!(back, snap);
        assert_eq!(
            AnalysisSnapshot::load(&dir, "other-config", &Telemetry::disabled()).unwrap_err(),
            "config_fingerprint"
        );
        // No temp left behind after a clean publish.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "dangling temps: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_serves_modules_under_the_module_part_and_checks_each_one() {
        let dir = std::env::temp_dir().join(format!("ddm-snap-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut snap = sample_snapshot();
        snap.fingerprint = "mods;algo=1".to_string();
        replace_file(&dir, SNAPSHOT_FILE, &snap.encode());
        assert!(AnalysisSnapshot::load(&dir, "mods;algo=1", &Telemetry::disabled()).is_ok());
        assert!(
            AnalysisSnapshot::load(&dir, "mods", &Telemetry::disabled()).is_ok(),
            "the module part"
        );
        assert_eq!(
            AnalysisSnapshot::load(&dir, "mod", &Telemetry::disabled()).unwrap_err(),
            "config_fingerprint",
            "a prefix that is not a whole part"
        );

        let damages: [fn(&mut AnalysisSnapshot); 3] = [
            |snap| snap.source_hashes[0] ^= 1,
            |snap| snap.summary_bytes.clear(),
            |snap| {
                snap.modules[0].free_fns[0]
                    .summary
                    .as_mut()
                    .unwrap()
                    .cg_steps
                    .push(ddm_hierarchy::SymCgStep::Call(
                        ddm_hierarchy::SymFunc::Free("ghost".to_string()),
                    ))
            },
        ];
        for (k, damage) in damages.into_iter().enumerate() {
            let mut bad = snap.clone();
            damage(&mut bad);
            replace_file(&dir, SNAPSHOT_FILE, &bad.encode());
            assert_eq!(
                AnalysisSnapshot::load(&dir, "mods", &Telemetry::disabled()).unwrap_err(),
                "corrupt",
                "{k}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_fingerprint_is_the_module_part_then_the_link_options() {
        let fingerprint = snapshot_fingerprint(&AnalysisConfig::default(), Algorithm::Rta);
        assert_eq!(
            fingerprint,
            "snap-v2;binmod-v1;tu=v1;refine=0;algo=2;sizeof=Conservative;downcast=0;libs="
        );
        let modules = module_fingerprint(Algorithm::Rta);
        assert_eq!(
            fingerprint.strip_prefix(&modules),
            Some(";algo=2;sizeof=Conservative;downcast=0;libs=")
        );
        assert_eq!(
            module_fingerprint(Algorithm::Cha),
            modules,
            "the algorithm is a link option"
        );
        assert_ne!(
            module_fingerprint(Algorithm::Pta),
            modules,
            "refinement changes modules"
        );
    }

    #[test]
    fn fingerprint_covers_every_knob() {
        let base = AnalysisConfig::default();
        let baseline = snapshot_fingerprint(&base, Algorithm::Rta);
        assert_ne!(baseline, snapshot_fingerprint(&base, Algorithm::Pta));
        assert_ne!(baseline, snapshot_fingerprint(&base, Algorithm::Cha));
        let mut cfg = AnalysisConfig::default();
        cfg.sizeof_policy = crate::SizeofPolicy::Ignore;
        assert_ne!(baseline, snapshot_fingerprint(&cfg, Algorithm::Rta));
        let mut cfg = AnalysisConfig::default();
        cfg.assume_safe_downcasts = true;
        assert_ne!(baseline, snapshot_fingerprint(&cfg, Algorithm::Rta));
        let mut cfg = AnalysisConfig::default();
        cfg.library_classes.insert("String".to_string());
        cfg.library_classes.insert("Array".to_string());
        let with_libs = snapshot_fingerprint(&cfg, Algorithm::Rta);
        assert_ne!(baseline, with_libs);
        assert!(with_libs.ends_with("libs=Array,String"), "{with_libs}");
    }
}
