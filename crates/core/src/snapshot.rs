//! The cache file: one `analysis.snap` per cache directory.
//!
//! An [`AnalysisSnapshot`] holds the binary module of every TU of the
//! last successful run, keyed by source hash, with the converged
//! call-graph fixpoint, its deterministic schedule and the liveness
//! classification. A warm run takes each TU's module from it by source
//! hash, wherever the TU sits, and — under the same TU list and
//! configuration, when the summary diff proves the fixpoint unaffected —
//! replays the stored schedule, emitting a deterministic event, counter
//! and metric stream byte-identical to a cold run. The directory holds
//! one generation: each run that changes anything replaces the file.
//!
//! The file is sealed with [`ddm_hierarchy::binmod`]'s `seal`/`open`
//! (magic, format version, word-wise FNV-1a checksum) around one
//! deterministic payload, so concurrent writers of one analysis publish
//! byte-identical files. Publication is atomic (temp, then rename), and
//! `DDM_CACHE_FAULT` injects crashes into it. [`AnalysisSnapshot::load`]
//! checks the envelope, the configuration and every module; any
//! rejection makes the run recompute every TU. The snapshot is
//! advisory, never trusted.

use crate::analysis::AnalysisConfig;
use crate::liveness::{LiveReason, LivenessParts, Origin};
use crate::project::config_fingerprint;
use ddm_callgraph::{Algorithm, CallGraphParts, CgRound, CgSchedule};
use ddm_hierarchy::binmod::{open, seal};
use ddm_hierarchy::{
    decode_modules, encode_modules, ByteReader, ByteWriter, ClassId, FuncId, MemberRef, Reject,
    TuModule, BINMOD_FORMAT_VERSION,
};
use ddm_telemetry::{Counters, EventClass, Histogram, Telemetry};
use std::collections::HashMap;
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
    format!(
        "{};algo={};sizeof={:?};downcast={};libs={}",
        module_fingerprint(algorithm),
        algorithm_tag(algorithm),
        config.sizeof_policy,
        u8::from(config.assume_safe_downcasts),
        libs.join(",")
    )
}

fn algorithm_tag(a: Algorithm) -> u8 {
    match a {
        Algorithm::Everything => 0,
        Algorithm::Cha => 1,
        Algorithm::Rta => 2,
        Algorithm::Pta => 3,
    }
}

fn algorithm_from_tag(t: u8) -> Result<Algorithm, String> {
    Ok(match t {
        0 => Algorithm::Everything,
        1 => Algorithm::Cha,
        2 => Algorithm::Rta,
        3 => Algorithm::Pta,
        _ => return Err(format!("unknown algorithm tag {t}")),
    })
}

fn live_reason_tag(r: LiveReason) -> u8 {
    match r {
        LiveReason::Read => 0,
        LiveReason::AddressTaken => 1,
        LiveReason::PointerToMember => 2,
        LiveReason::UnsafeCast => 3,
        LiveReason::UnionPropagation => 4,
        LiveReason::VolatileWrite => 5,
        LiveReason::Sizeof => 6,
    }
}

fn live_reason_from_tag(t: u8) -> Result<LiveReason, String> {
    Ok(match t {
        0 => LiveReason::Read,
        1 => LiveReason::AddressTaken,
        2 => LiveReason::PointerToMember,
        3 => LiveReason::UnsafeCast,
        4 => LiveReason::UnionPropagation,
        5 => LiveReason::VolatileWrite,
        6 => LiveReason::Sizeof,
        _ => return Err(format!("unknown live-reason tag {t}")),
    })
}

fn put_member(w: &mut ByteWriter, m: MemberRef) {
    w.put_u32(m.class.index() as u32);
    w.put_u32(m.index);
}

fn get_member(r: &mut ByteReader) -> Result<MemberRef, String> {
    let class = ClassId::from_index(r.get_u32()? as usize);
    let index = r.get_u32()? as usize;
    Ok(MemberRef::new(class, index))
}

fn put_opt_func(w: &mut ByteWriter, f: Option<FuncId>) {
    match f {
        Some(f) => {
            w.put_bool(true);
            w.put_u32(f.index() as u32);
        }
        None => w.put_bool(false),
    }
}

fn get_opt_func(r: &mut ByteReader) -> Result<Option<FuncId>, String> {
    Ok(if r.get_bool()? {
        Some(FuncId::from_index(r.get_u32()? as usize))
    } else {
        None
    })
}

fn put_origin(w: &mut ByteWriter, o: Origin) {
    match o {
        Origin::Access { func } => {
            w.put_u8(0);
            put_opt_func(w, func);
        }
        Origin::MarkAll { func, root } => {
            w.put_u8(1);
            put_opt_func(w, func);
            w.put_u32(root.index() as u32);
        }
        Origin::Union { root, via } => {
            w.put_u8(2);
            w.put_u32(root.index() as u32);
            put_member(w, via);
        }
    }
}

fn get_origin(r: &mut ByteReader) -> Result<Origin, String> {
    Ok(match r.get_u8()? {
        0 => Origin::Access {
            func: get_opt_func(r)?,
        },
        1 => Origin::MarkAll {
            func: get_opt_func(r)?,
            root: ClassId::from_index(r.get_u32()? as usize),
        },
        2 => Origin::Union {
            root: ClassId::from_index(r.get_u32()? as usize),
            via: get_member(r)?,
        },
        t => return Err(format!("unknown origin tag {t}")),
    })
}

fn put_func_ids(w: &mut ByteWriter, ids: &[FuncId]) {
    w.put_len(ids.len());
    for &f in ids {
        w.put_u32(f.index() as u32);
    }
}

fn get_func_ids(r: &mut ByteReader) -> Result<Vec<FuncId>, String> {
    let n = r.get_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(FuncId::from_index(r.get_u32()? as usize));
    }
    Ok(out)
}

fn put_histogram(w: &mut ByteWriter, h: &Histogram) {
    let (buckets, count, sum) = h.to_parts();
    w.put_len(buckets.len());
    for (k, c) in buckets {
        w.put_u32(k as u32);
        w.put_u64(c);
    }
    w.put_u64(count);
    w.put_u64(sum);
}

fn get_histogram(r: &mut ByteReader) -> Result<Histogram, String> {
    let n = r.get_len()?;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.get_u32()? as usize;
        let c = r.get_u64()?;
        buckets.push((k, c));
    }
    let count = r.get_u64()?;
    let sum = r.get_u64()?;
    Histogram::from_parts(&buckets, count, sum)
}

fn put_counters(w: &mut ByteWriter, c: &Counters) {
    let rows = c.rows();
    w.put_len(rows.len());
    for (_, v) in rows {
        w.put_u64(v);
    }
}

fn get_counters(r: &mut ByteReader) -> Result<Counters, String> {
    let mut c = Counters::default();
    let n = r.get_len()?;
    let expected = c.rows().len();
    if n != expected {
        return Err(format!("counters row count {n}, expected {expected}"));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(r.get_u64()?);
    }
    // Assign in rows() order; the slot list below must mirror it.
    let slots: [&mut u64; 16] = [
        &mut c.reachable_functions,
        &mut c.callgraph_edges,
        &mut c.instantiated_classes,
        &mut c.cg_worklist_pops,
        &mut c.cg_ready_drains,
        &mut c.scan_reads,
        &mut c.scan_address_taken,
        &mut c.scan_ptr_to_member,
        &mut c.scan_volatile_writes,
        &mut c.markall_triggers,
        &mut c.markall_classes_expanded,
        &mut c.union_rounds,
        &mut c.union_classes_livened,
        &mut c.members_live,
        &mut c.members_dead,
        &mut c.members_unclassifiable,
    ];
    for (slot, v) in slots.into_iter().zip(values) {
        *slot = v;
    }
    debug_assert_eq!(
        c.rows().iter().map(|&(k, _)| k).collect::<Vec<_>>(),
        Counters::default().rows().iter().map(|&(k, _)| k).collect::<Vec<_>>(),
    );
    Ok(c)
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

impl AnalysisSnapshot {
    /// Serializes the snapshot into its complete file image (envelope +
    /// payload). Deterministic: equal snapshots encode to equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(&self.fingerprint);
        w.put_len(self.source_hashes.len());
        for &h in &self.source_hashes {
            w.put_u64(h);
        }
        w.put_len(self.summary_bytes.len());
        for &b in &self.summary_bytes {
            w.put_u64(b);
        }
        encode_modules(&self.modules, &mut w);
        w.put_len(self.reachable_names.len());
        for (id, name) in &self.reachable_names {
            w.put_u32(*id);
            w.put_str(name);
        }
        w.put_u32(self.class_count);
        w.put_u32(self.function_count);

        w.put_u8(algorithm_tag(self.callgraph.algorithm));
        put_func_ids(&mut w, &self.callgraph.reachable);
        w.put_len(self.callgraph.instantiated.len());
        for &c in &self.callgraph.instantiated {
            w.put_u32(c.index() as u32);
        }
        put_func_ids(&mut w, &self.callgraph.address_taken);
        w.put_len(self.callgraph.edge_offsets.len());
        for &o in &self.callgraph.edge_offsets {
            w.put_u32(o);
        }
        put_func_ids(&mut w, &self.callgraph.edge_targets);

        w.put_len(self.schedule.rounds.len());
        for r in &self.schedule.rounds {
            w.put_u64(r.delta_fns);
            w.put_u64(r.pops);
            w.put_u64(r.drains);
        }
        w.put_u64(self.schedule.pops);
        w.put_u64(self.schedule.drains);
        w.put_u64(self.schedule.parked);
        put_histogram(&mut w, &self.schedule.dispatch_candidates);
        w.put_u64(self.schedule.replays);
        w.put_u64(self.schedule.interned_symbols);
        w.put_u64(self.schedule.arena_bytes);

        w.put_len(self.liveness.live.len());
        for &(m, r) in &self.liveness.live {
            put_member(&mut w, m);
            w.put_u8(live_reason_tag(r));
        }
        w.put_len(self.liveness.unclassifiable.len());
        for &m in &self.liveness.unclassifiable {
            put_member(&mut w, m);
        }
        w.put_len(self.liveness.origins.len());
        for &(m, o) in &self.liveness.origins {
            put_member(&mut w, m);
            put_origin(&mut w, o);
        }
        put_counters(&mut w, &self.liveness_counters);
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
        let fingerprint = r.get_str()?;
        let n = r.get_len()?;
        let mut source_hashes = Vec::with_capacity(n);
        for _ in 0..n {
            source_hashes.push(r.get_u64()?);
        }
        let n = r.get_len()?;
        let mut summary_bytes = Vec::with_capacity(n);
        for _ in 0..n {
            summary_bytes.push(r.get_u64()?);
        }
        let modules = decode_modules(&mut r)?;
        let n = r.get_len()?;
        let mut reachable_names = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.get_u32()?;
            let name = r.get_str()?;
            reachable_names.push((id, name));
        }
        let class_count = r.get_u32()?;
        let function_count = r.get_u32()?;

        let algorithm = algorithm_from_tag(r.get_u8()?)?;
        let reachable = get_func_ids(&mut r)?;
        let n = r.get_len()?;
        let mut instantiated = Vec::with_capacity(n);
        for _ in 0..n {
            instantiated.push(ClassId::from_index(r.get_u32()? as usize));
        }
        let address_taken = get_func_ids(&mut r)?;
        let n = r.get_len()?;
        let mut edge_offsets = Vec::with_capacity(n);
        for _ in 0..n {
            edge_offsets.push(r.get_u32()?);
        }
        let edge_targets = get_func_ids(&mut r)?;
        let callgraph = CallGraphParts {
            algorithm,
            reachable,
            instantiated,
            address_taken,
            edge_offsets,
            edge_targets,
        };

        let n = r.get_len()?;
        let mut rounds = Vec::with_capacity(n);
        for _ in 0..n {
            rounds.push(CgRound {
                delta_fns: r.get_u64()?,
                pops: r.get_u64()?,
                drains: r.get_u64()?,
            });
        }
        let schedule = CgSchedule {
            rounds,
            pops: r.get_u64()?,
            drains: r.get_u64()?,
            parked: r.get_u64()?,
            dispatch_candidates: get_histogram(&mut r)?,
            replays: r.get_u64()?,
            interned_symbols: r.get_u64()?,
            arena_bytes: r.get_u64()?,
        };

        let n = r.get_len()?;
        let mut live = Vec::with_capacity(n);
        for _ in 0..n {
            let m = get_member(&mut r)?;
            let reason = live_reason_from_tag(r.get_u8()?)?;
            live.push((m, reason));
        }
        let n = r.get_len()?;
        let mut unclassifiable = Vec::with_capacity(n);
        for _ in 0..n {
            unclassifiable.push(get_member(&mut r)?);
        }
        let n = r.get_len()?;
        let mut origins = Vec::with_capacity(n);
        for _ in 0..n {
            let m = get_member(&mut r)?;
            let o = get_origin(&mut r)?;
            origins.push((m, o));
        }
        let liveness = LivenessParts {
            live,
            unclassifiable,
            origins,
        };
        let liveness_counters = get_counters(&mut r)?;
        if !r.is_at_end() {
            return Err("trailing bytes after payload".to_string());
        }

        Ok(AnalysisSnapshot {
            fingerprint,
            source_hashes,
            summary_bytes,
            modules,
            reachable_names,
            class_count,
            function_count,
            callgraph,
            schedule,
            liveness,
            liveness_counters,
        })
    }

    /// Loads the snapshot in `dir` and checks it against `key`: a whole
    /// [`snapshot_fingerprint`], or its [`module_fingerprint`] part,
    /// which accepts any link-time options. Every module must pass
    /// [`TuModule::validate`] and carry its slot's source hash.
    ///
    /// # Errors
    ///
    /// The rejection reason: `corrupt`, `version_skew`, a structural
    /// decode failure, or `config_fingerprint`; `missing` when there is
    /// no snapshot file (the common cold case).
    pub fn load(dir: &Path, key: &str) -> Result<AnalysisSnapshot, String> {
        let bytes =
            std::fs::read(dir.join(SNAPSHOT_FILE)).map_err(|_| "missing".to_string())?;
        let snap = AnalysisSnapshot::decode(&bytes)?;
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

    /// Atomically publishes the snapshot into `dir` as [`SNAPSHOT_FILE`]
    /// (temp, then rename). Readers observe either no snapshot, the
    /// previous one, or this one — never a torn file. Best-effort like
    /// all cache I/O; a failure just means the next run recomputes.
    pub fn save(&self, dir: &Path) {
        publish(dir, SNAPSHOT_FILE, &self.encode());
    }
}

/// Whether the `DDM_CACHE_FAULT` environment variable (read once per
/// process) selects the crash-injection point `point` of [`publish`]:
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
fn publish(dir: &Path, name: &str, image: &[u8]) {
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
pub(crate) fn sweep_dangling_temps(dir: &Path, telemetry: &Telemetry) {
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
    use ddm_cppfront::{parse, SourceMap};
    use ddm_hierarchy::{Program, ProgramSummary};

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
            AnalysisSnapshot::load(&dir, "snap-test").unwrap_err(),
            "missing"
        );
        let snap = sample_snapshot();
        snap.save(&dir);
        let back = AnalysisSnapshot::load(&dir, "snap-test").expect("load");
        assert_eq!(back, snap);
        assert_eq!(
            AnalysisSnapshot::load(&dir, "other-config").unwrap_err(),
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
        snap.save(&dir);
        assert!(AnalysisSnapshot::load(&dir, "mods;algo=1").is_ok());
        assert!(
            AnalysisSnapshot::load(&dir, "mods").is_ok(),
            "the module part"
        );
        assert_eq!(
            AnalysisSnapshot::load(&dir, "mod").unwrap_err(),
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
            bad.save(&dir);
            assert_eq!(
                AnalysisSnapshot::load(&dir, "mods").unwrap_err(),
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
