//! The traced run: spans recorded from outside the program.
//!
//! [`traced_op`] performs one project analysis the way
//! `ProjectPipeline::run` does, step for step, but calls each layer's
//! public function itself and records one span per call. Spans stay in
//! memory ([`Recorder`]) and are written out when the run ends. The
//! replica reads and writes the same cache files in the same formats, so
//! traced and untraced operations can share one cache directory.
//!
//! A layer's self time is its span's duration minus what its child
//! spans cover; an operation's own self time — the part of its wall
//! time no layer span covers — is `project.unattributed_ns`.

use crate::gen::Project;
use crate::verdict::{Verdict, ALGORITHM};
use ddm_callgraph::{replay_schedule, CallGraph, CallGraphOptions};
use ddm_core::{
    config_fingerprint, render_analysis, snapshot_fingerprint, AnalysisConfig, AnalysisSnapshot,
    DeadMemberAnalysis, Liveness, Report, SNAPSHOT_FILE,
};
use ddm_cppfront::{parse, SourceMap, SourceSet};
use ddm_hierarchy::{
    fnv1a64, hash_hex, link_delta_ref, link_with, FuncId, LinkDelta, MemberRef, Program,
    ProgramSummary, TuModule,
};
use ddm_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The span that encloses one whole operation.
pub const OP_SPAN: &str = "op";

/// One recorded span. Spans of one operation share `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `cppfront.parse`, or [`OP_SPAN`].
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span and count store of one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.push(Span {
            name,
            op,
            start_ns,
            end_ns,
        });
        out
    }

    /// Adds `value` to the count `name` (work done at a layer boundary).
    pub fn count(&mut self, name: &'static str, value: u64) {
        *self.counts.entry(name).or_default() += value as f64;
    }

    /// Total of the count `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Every span with its self time, in recording order.
    fn self_times(&self) -> Vec<(Span, u64)> {
        let mut by_op: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            by_op.entry(s.op).or_default().push(i);
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        for ids in by_op.values_mut() {
            // Parents sort before the children they enclose.
            ids.sort_by_key(|&i| {
                (
                    self.spans[i].start_ns,
                    std::cmp::Reverse(self.spans[i].end_ns),
                )
            });
            let mut open: Vec<usize> = Vec::new();
            for &i in ids.iter() {
                let s = self.spans[i];
                while open
                    .last()
                    .is_some_and(|&p| self.spans[p].end_ns <= s.start_ns)
                {
                    open.pop();
                }
                if let Some(&parent) = open.last() {
                    child_ns[parent] += s.end_ns - s.start_ns;
                }
                open.push(i);
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (*s, (s.end_ns - s.start_ns).saturating_sub(c)))
            .collect()
    }

    /// Total self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, self_ns) in self.self_times() {
            *out.entry(s.name).or_default() += self_ns;
        }
        out
    }

    /// Number of operations with an [`OP_SPAN`].
    pub fn ops(&self) -> usize {
        self.spans.iter().filter(|s| s.name == OP_SPAN).count()
    }

    /// Writes every span as a tab-separated line: op, name, start,
    /// end, self time (nanoseconds).
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tstart_ns\tend_ns\tself_ns")?;
        for (s, self_ns) in self.self_times() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{self_ns}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one traced operation produced, for the same checks an
/// untraced operation gets.
#[derive(Debug, Clone, Copy)]
pub struct TracedOutcome {
    /// Wall time of the operation's [`OP_SPAN`], in milliseconds.
    pub ms: f64,
    /// The analysis verdict.
    pub verdict: Verdict,
    /// TUs whose module came from the snapshot or a cache entry.
    pub hits: u64,
    /// TUs that went through the front end.
    pub misses: u64,
    /// Reachable functions whose fixpoint facts were replayed.
    pub reused_fns: u64,
}

/// Publishes `bytes` as `dir/name` through a process-unique temp file
/// and a rename, as the pipeline's cache writers do.
fn publish(dir: &Path, name: &str, bytes: &[u8]) {
    let tmp = dir.join(format!("{name}.tmp.{}", std::process::id()));
    if std::fs::write(&tmp, bytes).is_ok() {
        let _ = std::fs::rename(&tmp, dir.join(name));
    } else {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// The pipeline's fixpoint-reuse gate, restated because the pipeline
/// keeps it private: the stored fixpoint is replayed only when the class
/// space is stable, `main` did not appear, and every stored reachable
/// function keeps its id and its record.
fn fixpoint_reusable(snap: &AnalysisSnapshot, delta: &LinkDelta, program: &Program) -> bool {
    let named =
        |list: &[String], name: &str| list.binary_search_by(|n| n.as_str().cmp(name)).is_ok();
    delta.class_space_stable()
        && snap.class_count as usize == program.class_count()
        && snap.function_count as usize <= program.function_count()
        && !named(&delta.fns_added, "main")
        && snap.reachable_names.iter().all(|(id, name)| {
            let id = *id as usize;
            id < program.function_count()
                && !named(&delta.fns_changed, name)
                && !named(&delta.fns_removed, name)
                && program.func_display_name(FuncId::from_index(id)) == *name
        })
}

/// One project analysis plus report render, performed layer by layer
/// with a span around every layer call, all inside one [`OP_SPAN`].
/// `cache` plays the role of `--cache-dir`. The verdict is computed
/// after the operation span closes, and the analysis result is dropped
/// after it too, as a caller of `ProjectPipeline::run` would.
///
/// # Errors
///
/// A front-end, link or analysis failure, rendered.
pub fn traced_op(
    rec: &mut Recorder,
    op: u64,
    inputs: &Project,
    cache: Option<&Path>,
) -> Result<TracedOutcome, String> {
    let op_start = rec.now();
    let quiet = Telemetry::disabled();
    let config = AnalysisConfig::default();
    let fingerprint = config_fingerprint(ALGORITHM);
    let snap_fingerprint = snapshot_fingerprint(&config, ALGORITHM);
    let n = inputs.len();

    let hashes: Vec<u64> = rec.span("project.hash", op, || {
        inputs.iter().map(|(_, s)| fnv1a64(s.as_bytes())).collect()
    });

    // --- Probe: the snapshot first, then per-TU entries for the TUs it
    // does not cover. ---
    let mut snapshot: Option<AnalysisSnapshot> = None;
    let mut snap_modules: Vec<Option<TuModule>> = Vec::new();
    let mut modules: Vec<Option<TuModule>> = (0..n).map(|_| None).collect();
    let mut byte_lens: Vec<Option<u64>> = vec![None; n];
    let mut hits = 0u64;
    if let Some(dir) = cache {
        rec.span("project.probe", op, || {
            // The pipeline lists the directory to sweep dangling temps.
            std::fs::read_dir(dir).map(Iterator::count).unwrap_or(0)
        });
        let image = rec.span("snapshot.load", op, || {
            std::fs::read(dir.join(SNAPSHOT_FILE)).ok()
        });
        if let Some(image) = image {
            if let Ok(mut snap) =
                rec.span("snapshot.decode", op, || AnalysisSnapshot::decode(&image))
            {
                if snap.fingerprint == snap_fingerprint
                    && snap.source_hashes.len() == n
                    && snap.modules.len() == n
                    && snap.summary_bytes.len() == n
                {
                    snap_modules = std::mem::take(&mut snap.modules)
                        .into_iter()
                        .map(Some)
                        .collect();
                    snapshot = Some(snap);
                }
            }
        }
        for i in 0..n {
            if let Some(snap) = &snapshot {
                if snap.source_hashes[i] == hashes[i] {
                    let mut module = snap_modules[i].take().expect("snapshot module taken once");
                    module.file = inputs[i].0.clone();
                    byte_lens[i] = Some(snap.summary_bytes[i]);
                    modules[i] = Some(module);
                    hits += 1;
                    continue;
                }
            }
            let entry = dir.join(format!("tu-{}.json", hash_hex(hashes[i])));
            let Ok(doc) = rec.span("project.probe", op, || std::fs::read_to_string(&entry)) else {
                continue;
            };
            let decoded = rec.span("hierarchy.module_json_decode", op, || {
                TuModule::from_json(&doc, &fingerprint, hashes[i])
            });
            if let Ok(mut module) = decoded {
                module.file = inputs[i].0.clone();
                byte_lens[i] = Some(doc.len() as u64);
                modules[i] = Some(module);
                hits += 1;
            }
        }
    }

    // --- Front end for every TU the probe did not cover, on one worker
    // thread as the pipeline runs it at `jobs = 1`. ---
    let todo: Vec<usize> = (0..n).filter(|&i| modules[i].is_none()).collect();
    let mut parsed: Vec<Option<Program>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                for &i in &todo {
                    let (file, source) = &inputs[i];
                    rec.count("cppfront.parse_bytes", source.len() as u64);
                    let unit = rec
                        .span("cppfront.parse", op, || parse(source))
                        .map_err(|e| format!("{file}: {e}"))?;
                    let program = rec
                        .span("hierarchy.model", op, || Program::build(&unit))
                        .map_err(|e| format!("{file}: {e}"))?;
                    let summary = rec.span("hierarchy.summary", op, || {
                        ProgramSummary::build(&program, false, 1)
                    });
                    rec.count("hierarchy.summary_fns", program.function_count() as u64);
                    let module = rec.span("hierarchy.extract", op, || {
                        let map = SourceMap::new(file.clone(), source.clone());
                        TuModule::extract(&unit, &program, &summary, &map)
                    });
                    modules[i] = Some(module);
                    parsed[i] = Some(program);
                    rec.span("project.free", op, || drop((unit, summary)));
                }
                Ok::<(), String>(())
            })
            .join()
            .map_err(|_| "the front-end thread panicked".to_string())?
    })?;
    let mut modules: Vec<TuModule> = modules
        .into_iter()
        .map(|m| m.expect("every TU has a module after the front end"))
        .collect();

    // --- Write-back of the fresh modules. ---
    if let Some(dir) = cache {
        let _ = std::fs::create_dir_all(dir);
        for &i in &todo {
            let doc = rec.span("hierarchy.module_json_encode", op, || {
                modules[i].to_json(&fingerprint)
            });
            rec.count("hierarchy.module_json_bytes", doc.len() as u64);
            byte_lens[i] = Some(doc.len() as u64);
            let name = format!("tu-{}.json", hash_hex(hashes[i]));
            rec.span("project.writeback", op, || {
                publish(dir, &name, doc.as_bytes())
            });
        }
    }

    let delta: Option<LinkDelta> = snapshot.as_ref().map(|_| {
        rec.span("hierarchy.link_delta", op, || {
            let previous: Vec<&TuModule> = snap_modules
                .iter()
                .enumerate()
                .map(|(i, old)| old.as_ref().unwrap_or(&modules[i]))
                .collect();
            link_delta_ref(&previous, &modules)
        })
    });
    let linked = rec
        .span("hierarchy.link", op, || {
            link_with(&modules, &parsed, &quiet)
        })
        .map_err(|e| e.to_string())?;
    let program = linked.program();
    let reusable = match (&snapshot, &delta) {
        (Some(snap), Some(delta)) => fixpoint_reusable(snap, delta, program),
        _ => false,
    };

    // --- Fixpoint: replay the stored one, or solve. ---
    let (callgraph, liveness, schedule, scan_counters) = if reusable {
        let snap = snapshot.as_ref().expect("the gate implies a snapshot");
        let (callgraph, liveness) = rec.span("callgraph.replay", op, || {
            let graph = CallGraph::from_parts(
                snap.callgraph.clone(),
                program.function_count(),
                program.class_count(),
            )?;
            replay_schedule(&graph, &snap.schedule, &quiet);
            let liveness = Liveness::from_parts(
                &snap.liveness,
                Some(linked.summary().member_index().clone()),
            );
            Ok::<_, String>((graph, liveness))
        })?;
        (
            callgraph,
            liveness,
            snap.schedule.clone(),
            snap.liveness_counters,
        )
    } else {
        let options = CallGraphOptions {
            algorithm: ALGORITHM,
            jobs: 1,
            ..CallGraphOptions::default()
        };
        let (callgraph, schedule) = rec
            .span("callgraph.build", op, || {
                CallGraph::build_from_summary_schedule(program, linked.summary(), &options, &quiet)
            })
            .map_err(|e| e.to_string())?;
        rec.count("callgraph.worklist_pops", schedule.pops);
        rec.count("callgraph.edges", callgraph.edge_count() as u64);
        let (liveness, counters) = rec
            .span("liveness.scan", op, || {
                DeadMemberAnalysis::new(program, config.clone()).run_summary_counted(
                    linked.summary(),
                    &callgraph,
                    &quiet,
                )
            })
            .map_err(|e| e.to_string())?;
        rec.count("liveness.scan_reads", counters.scan_reads);
        (callgraph, liveness, schedule, counters)
    };
    let used = rec
        .span("liveness.used", op, || {
            linked.summary().used_classes(program)
        })
        .map_err(|e| e.to_string())?;

    let mut counters = scan_counters;
    counters.cg_worklist_pops += schedule.pops;
    counters.cg_ready_drains += schedule.drains;
    counters.reachable_functions += callgraph.reachable_count() as u64;
    counters.callgraph_edges += callgraph.edge_count() as u64;
    counters.instantiated_classes += callgraph.instantiated().len() as u64;
    for (cid, class) in program.classes() {
        for idx in 0..class.members.len() {
            let m = MemberRef::new(cid, idx);
            if liveness.is_unclassifiable(m) {
                counters.members_unclassifiable += 1;
            } else if liveness.is_live(m) {
                counters.members_live += 1;
            } else {
                counters.members_dead += 1;
            }
        }
    }

    // --- Snapshot publish, skipped when nothing changed. ---
    if let Some(dir) = cache {
        let unchanged = delta.as_ref().is_some_and(LinkDelta::is_empty);
        if !(unchanged && reusable) {
            let image = rec.span("snapshot.encode", op, || {
                AnalysisSnapshot {
                    fingerprint: snap_fingerprint.clone(),
                    source_hashes: hashes.clone(),
                    summary_bytes: modules
                        .iter()
                        .zip(&byte_lens)
                        .map(|(m, len)| len.unwrap_or_else(|| m.to_json(&fingerprint).len() as u64))
                        .collect(),
                    modules: std::mem::take(&mut modules),
                    reachable_names: callgraph
                        .reachable()
                        .map(|f| (f.index() as u32, program.func_display_name(f)))
                        .collect(),
                    class_count: program.class_count() as u32,
                    function_count: program.function_count() as u32,
                    callgraph: callgraph.to_parts(),
                    schedule: schedule.clone(),
                    liveness: liveness.to_parts(),
                    liveness_counters: scan_counters,
                }
                .encode()
            });
            rec.count("snapshot.bytes", image.len() as u64);
            rec.span("snapshot.save", op, || publish(dir, SNAPSHOT_FILE, &image));
        }
    }

    // The pipeline's own intermediates die with its stack frame.
    rec.span("project.free", op, || {
        drop((parsed, snapshot, snap_modules, modules, delta));
    });

    // --- The published epoch keeps the sources; then the report. ---
    rec.span("project.assemble", op, || {
        let mut sources = SourceSet::new();
        for (file, source) in inputs {
            sources.push(SourceMap::new(file.clone(), source.clone()));
        }
        std::hint::black_box(sources);
    });
    let text = rec.span("report.render", op, || {
        let report = Report::new(program, &liveness, &used);
        render_analysis(program, &callgraph, &liveness, &report, false)
    });
    rec.count("report.bytes", text.len() as u64);
    let op_end = rec.now();
    rec.push(Span {
        name: OP_SPAN,
        op,
        start_ns: op_start,
        end_ns: op_end,
    });

    Ok(TracedOutcome {
        ms: (op_end - op_start) as f64 / 1e6,
        verdict: Verdict::of(program, &liveness, counters),
        hits,
        misses: n as u64 - hits,
        reused_fns: if reusable {
            callgraph.reachable_count() as u64
        } else {
            0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_and_leaves_the_residual_on_the_op() {
        let mut rec = Recorder::default();
        let span = |name, op, start_ns, end_ns| Span {
            name,
            op,
            start_ns,
            end_ns,
        };
        rec.push(span(OP_SPAN, 1, 0, 100));
        rec.push(span("a", 1, 10, 40));
        rec.push(span("b", 1, 20, 30));
        rec.push(span("c", 1, 50, 70));
        rec.push(span(OP_SPAN, 2, 200, 210));
        let by_name = rec.self_time_by_name();
        assert_eq!(by_name["a"], 20);
        assert_eq!(by_name["b"], 10);
        assert_eq!(by_name["c"], 20);
        assert_eq!(by_name[OP_SPAN], 50 + 10);
        assert_eq!(rec.ops(), 2);
    }
}
