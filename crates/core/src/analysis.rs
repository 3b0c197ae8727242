//! The dead-data-member detection algorithm (the paper's Figure 2).
//!
//! `DetectUnusedDataMembers` in the paper:
//!
//! 1. mark all data members dead, all classes not-visited;
//! 2. build a call graph;
//! 3. for every statement in every reachable function, mark live each
//!    member that is read or whose address is taken, with special cases
//!    for `delete`/`free` operands, qualified accesses, pointer-to-member
//!    expressions, unsafe casts (`MarkAllContainedMembers`), `volatile`
//!    writes, and `sizeof`;
//! 4. propagate liveness through unions.
//!
//! Each function body was walked once into a [`FnSummary`]; the scan
//! replays the summaries' [`LiveStep`]s, which already carry the
//! per-access rules, and this module supplies the configuration gates,
//! the `MarkAllContainedMembers` expansion and the union fixpoint.

use crate::liveness::{LiveReason, Liveness, Origin};
use crate::snapshot::StoredFixpoint;
use ddm_callgraph::{replay_schedule, Algorithm, CallGraph, CallGraphOptions, CgSchedule};
use ddm_cppfront::ast::ClassKind;
use ddm_hierarchy::{
    ClassBitSet, ClassId, FnSummary, FuncId, LiveStep, MarkAllCause, MemberAccessKind, MemberRef,
    Program, ProgramSummary, TypeError,
};
use ddm_telemetry::{Counters, EventClass, Telemetry, LANE_MAIN};
use std::collections::HashSet;

/// How uses of `sizeof` are treated (§3.2).
///
/// By default `sizeof` is conservative: all members of the measured class
/// become live, because eliminating members would change the program's
/// behaviour if the size value is observable. When the user has verified
/// that `sizeof` is only used for storage allocation (true for all of the
/// paper's benchmarks), it can be ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SizeofPolicy {
    /// Mark all contained members of the measured type live.
    #[default]
    Conservative,
    /// Ignore `sizeof` entirely (user-verified allocation-only usage).
    Ignore,
}

/// Configuration of one analysis run.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// Treatment of `sizeof` (§3.2).
    pub sizeof_policy: SizeofPolicy,
    /// When true, C-style and `static_cast` down-casts are assumed safe
    /// (the paper verified this by hand for all benchmarks; unsafe casts
    /// then only arise from `reinterpret_cast` and unrelated-type casts).
    pub assume_safe_downcasts: bool,
    /// Names of classes that belong to (simulated) libraries whose source
    /// is unavailable. Their members are unclassifiable (§3.3).
    pub library_classes: HashSet<String>,
}

/// The dead-data-member detector.
///
/// # Examples
///
/// ```
/// use ddm_core::{AnalysisConfig, DeadMemberAnalysis};
/// use ddm_callgraph::{CallGraph, CallGraphOptions};
/// use ddm_hierarchy::{Program, ProgramSummary};
/// use ddm_telemetry::Telemetry;
///
/// let tu = ddm_cppfront::parse(
///     "class A { public: int used; int written_only; };\n\
///      int main() { A a; a.written_only = 4; return a.used; }",
/// ).unwrap();
/// let program = Program::build(&tu).unwrap();
/// let summary = ProgramSummary::build(&program, false, 1);
/// let quiet = Telemetry::disabled();
/// let (graph, _) =
///     CallGraph::build_from_summary_schedule(&program, &summary, &CallGraphOptions::default(), &quiet)
///         .unwrap();
/// let analysis = DeadMemberAnalysis::new(&program, AnalysisConfig::default());
/// let (liveness, _counters) = analysis.run_summary_counted(&summary, &graph, &quiet).unwrap();
/// let a = program.class_by_name("A").unwrap();
/// assert!(liveness.is_live(ddm_hierarchy::MemberRef::new(a, 0)));
/// assert!(liveness.is_dead(ddm_hierarchy::MemberRef::new(a, 1)));
/// ```
#[derive(Debug)]
pub struct DeadMemberAnalysis<'p> {
    program: &'p Program,
    config: AnalysisConfig,
}

impl<'p> DeadMemberAnalysis<'p> {
    /// Creates an analysis over `program` with `config`.
    pub fn new(program: &'p Program, config: AnalysisConfig) -> Self {
        DeadMemberAnalysis { program, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Runs the algorithm over the walk-once summaries: replays each
    /// reachable function's [`LiveStep`]s in id order, resolves the
    /// configuration-gated steps (down-casts, `sizeof`) as it goes, and
    /// expands `MarkAllContainedMembers` and the union fixpoint by walking
    /// the program's containment graph. Returns the
    /// classification with the scan's deterministic counters, which are
    /// also recorded on `telemetry` (a disabled handle drops them, so
    /// callers that persist the scan need the returned copy).
    ///
    /// # Errors
    ///
    /// Surfaces the [`TypeError`]s recorded in the summaries of reachable
    /// functions, in id order.
    pub fn run_summary_counted(
        &self,
        summary: &ProgramSummary,
        callgraph: &CallGraph,
        telemetry: &Telemetry,
    ) -> Result<(Liveness, Counters), TypeError> {
        let scan_span = telemetry.span(LANE_MAIN, || {
            format!("liveness replay ({} fns)", callgraph.reachable_count())
        });
        let library: HashSet<ClassId> = self
            .config
            .library_classes
            .iter()
            .filter_map(|n| self.program.class_by_name(n))
            .collect();

        let mut marker = Marker {
            program: self.program,
            summary,
            liveness: Liveness::with_member_index(summary.member_index().clone()),
            visited: ClassBitSet::with_capacity(self.program.class_count()),
            config: &self.config,
            counters: Counters::default(),
        };

        // Library members are unclassifiable from the start.
        for (cid, class) in self.program.classes() {
            if library.contains(&cid) {
                for idx in 0..class.members.len() {
                    marker
                        .liveness
                        .mark_unclassifiable(MemberRef::new(cid, idx));
                }
            }
        }

        // Global initializers run unconditionally before `main`.
        marker.replay(None, summary.globals()?);
        let mut replays: u64 = 1;

        // Every reachable function, in id order — the sequential scan.
        for func in callgraph.reachable() {
            marker.replay(Some(func), summary.function(func)?);
            replays += 1;
        }
        drop(scan_span);
        telemetry.metrics(|m| m.counter_add("summary/replays", replays));

        let union_span = telemetry.span(LANE_MAIN, || "union post-pass".into());
        marker.counters.markall_classes_expanded = marker.visited.count() as u64;
        marker.propagate_unions();
        marker.counters.union_classes_livened =
            marker.visited.count() as u64 - marker.counters.markall_classes_expanded;
        drop(union_span);
        emit_liveness_events(telemetry, &marker.counters);
        telemetry.add_counters(&marker.counters);
        Ok((marker.liveness, marker.counters))
    }
}

/// The solve stage's result: the converged call graph and liveness, the
/// used classes, and what a snapshot persists of them.
pub(crate) struct Solved {
    pub(crate) callgraph: CallGraph,
    pub(crate) schedule: CgSchedule,
    pub(crate) liveness: Liveness,
    pub(crate) scan_counters: Counters,
    pub(crate) used: HashSet<ClassId>,
    /// Whether the call graph and scan were replayed from the snapshot.
    pub(crate) replayed: bool,
}

/// The solve stage the pipeline runs after link: the call graph over
/// `summary` (with `config`'s library classes as callback roots), the
/// liveness scan, the used classes, and the classification counters
/// and event. The call graph and the scan each run under their own
/// span, which times them.
///
/// With `stored` — a fixpoint the snapshot's reuse gate proved
/// unaffected by the edit — the call graph and the scan are replayed
/// from it, telemetry included, instead of solved.
pub(crate) fn solve(
    program: &Program,
    summary: &ProgramSummary,
    config: &AnalysisConfig,
    algorithm: Algorithm,
    stored: Option<StoredFixpoint>,
    telemetry: &Telemetry,
) -> Result<Solved, TypeError> {
    let cg_options = CallGraphOptions {
        algorithm,
        library_classes: config
            .library_classes
            .iter()
            .filter_map(|n| program.class_by_name(n))
            .collect(),
        ..CallGraphOptions::default()
    };
    let analysis = DeadMemberAnalysis::new(program, config.clone());
    let replayed = stored.is_some();
    let (callgraph, schedule, liveness, scan_counters) = match stored {
        Some(stored) => replay_fixpoint(program, summary, stored, telemetry),
        None => {
            let cg_span = telemetry.span(LANE_MAIN, || "callgraph".to_string());
            let (callgraph, schedule) =
                CallGraph::build_from_summary_schedule(program, summary, &cg_options, telemetry)?;
            drop(cg_span);
            let (liveness, counters) = analysis.run_summary_counted(summary, &callgraph, telemetry)?;
            (callgraph, schedule, liveness, counters)
        }
    };

    // Debug builds cross-check every replayed fixpoint against a fresh
    // one, bit for bit: graph, schedule, classification, origins, and
    // scan counters must all agree, or the reuse gate let an unsound
    // edit through.
    #[cfg(debug_assertions)]
    if replayed {
        let quiet = Telemetry::disabled();
        let (fresh_cg, mut fresh_schedule) =
            CallGraph::build_from_summary_schedule(program, summary, &cg_options, &quiet)?;
        debug_assert_eq!(
            fresh_cg, callgraph,
            "replayed call graph diverged from a fresh fixpoint"
        );
        // The interner digests the whole program — unreachable and
        // freshly added functions included — so its size may
        // legitimately drift under a gate-passing edit. It feeds the
        // metrics registry only, never the deterministic stream.
        fresh_schedule.interned_symbols = schedule.interned_symbols;
        fresh_schedule.arena_bytes = schedule.arena_bytes;
        debug_assert_eq!(
            fresh_schedule, schedule,
            "replayed schedule diverged from a fresh fixpoint"
        );
        let (fresh_liveness, fresh_counters) =
            analysis.run_summary_counted(summary, &fresh_cg, &quiet)?;
        debug_assert_eq!(
            fresh_liveness, liveness,
            "replayed liveness diverged from a fresh scan"
        );
        debug_assert_eq!(
            fresh_liveness.to_parts().origins,
            liveness.to_parts().origins,
            "replayed origins diverged from a fresh scan"
        );
        debug_assert_eq!(
            fresh_counters, scan_counters,
            "replayed scan counters diverged from a fresh scan"
        );
    }

    let used_span = telemetry.span(LANE_MAIN, || "used classes".to_string());
    let used = summary.used_classes(program)?;
    drop(used_span);

    let mut tail = Counters {
        reachable_functions: callgraph.reachable_count() as u64,
        callgraph_edges: callgraph.edge_count() as u64,
        instantiated_classes: callgraph.instantiated().len() as u64,
        ..Counters::default()
    };
    for (cid, class) in program.classes() {
        for idx in 0..class.members.len() {
            let m = MemberRef::new(cid, idx);
            // Mirror the report's precedence: unclassifiable trumps the
            // live/dead verdict.
            if liveness.is_unclassifiable(m) {
                tail.members_unclassifiable += 1;
            } else if liveness.is_live(m) {
                tail.members_live += 1;
            } else {
                tail.members_dead += 1;
            }
        }
    }
    telemetry.add_counters(&tail);
    emit_classification_event(telemetry, &tail);

    Ok(Solved {
        callgraph,
        schedule,
        liveness,
        scan_counters,
        used,
        replayed,
    })
}

/// Replays a stored fixpoint's call graph and liveness scan,
/// re-emitting their telemetry exactly as a fresh solve would have.
fn replay_fixpoint(
    program: &Program,
    summary: &ProgramSummary,
    stored: StoredFixpoint,
    telemetry: &Telemetry,
) -> (CallGraph, CgSchedule, Liveness, Counters) {
    let cg_span = telemetry.span(LANE_MAIN, || "callgraph".to_string());
    replay_schedule(&stored.callgraph, &stored.schedule, telemetry);
    // The stored interner gauges describe the program the fixpoint was
    // solved over; the replay reports the linked program's own.
    let interner = program.interner();
    telemetry.metrics(|m| {
        m.gauge_set("callgraph/interned_symbols", interner.len() as i64);
        m.gauge_set("callgraph/arena_bytes", interner.arena_bytes() as i64);
    });
    drop(cg_span);

    let _live_span = telemetry.span(LANE_MAIN, || "liveness from snapshot".to_string());
    let liveness = Liveness::from_parts(&stored.liveness, Some(summary.member_index().clone()));
    // The scan a fresh solve would run replays the globals and each
    // reachable function once.
    let replays = 1 + stored.callgraph.reachable_count() as u64;
    telemetry.metrics(|m| m.counter_add("summary/replays", replays));
    emit_liveness_events(telemetry, &stored.counters);
    telemetry.add_counters(&stored.counters);
    (stored.callgraph, stored.schedule, liveness, stored.counters)
}

/// Flight-recorder tail of the solve: the final classification verdict
/// alongside the graph totals that scoped it — all deterministic-counter
/// fields, so det class.
fn emit_classification_event(telemetry: &Telemetry, tail: &Counters) {
    telemetry.event(EventClass::Deterministic, "classification", || {
        vec![
            ("reachable_functions", tail.reachable_functions.into()),
            ("callgraph_edges", tail.callgraph_edges.into()),
            ("instantiated_classes", tail.instantiated_classes.into()),
            ("live", tail.members_live.into()),
            ("dead", tail.members_dead.into()),
            ("unclassifiable", tail.members_unclassifiable.into()),
        ]
    });
}

/// Flight-recorder tail of the liveness scan: the scan totals and the
/// union post-pass outcome, read from the final counters, so a fresh
/// scan and a replayed one emit identical det-class events.
fn emit_liveness_events(telemetry: &Telemetry, counters: &Counters) {
    telemetry.event(EventClass::Deterministic, "liveness_scan", || {
        vec![
            ("reads", counters.scan_reads.into()),
            ("address_taken", counters.scan_address_taken.into()),
            ("ptr_to_member", counters.scan_ptr_to_member.into()),
            ("volatile_writes", counters.scan_volatile_writes.into()),
            ("markall_triggers", counters.markall_triggers.into()),
        ]
    });
    telemetry.event(EventClass::Deterministic, "liveness_union", || {
        vec![
            ("classes_expanded", counters.markall_classes_expanded.into()),
            ("rounds", counters.union_rounds.into()),
            ("classes_livened", counters.union_classes_livened.into()),
        ]
    });
}

/// The scan state: the liveness rules driven by recorded [`LiveStep`]s,
/// with `MarkAllContainedMembers` as a walk of the containment graph that
/// stops at visited classes. It marks exactly the classes the paper's
/// recursion would: any visited class already has its entire closure
/// visited, so each call marks `closure(class)` minus the previously
/// visited set either way.
struct Marker<'p, 's, 'c> {
    program: &'p Program,
    summary: &'s ProgramSummary,
    liveness: Liveness,
    visited: ClassBitSet,
    config: &'c AnalysisConfig,
    counters: Counters,
}

impl Marker<'_, '_, '_> {
    /// Replays one function's liveness facts in body order, stamping
    /// `func` into each mark's [`Origin`] (`None` for the global
    /// initializers). Each surviving step increments its counter once.
    fn replay(&mut self, func: Option<FuncId>, s: &FnSummary) {
        for step in &s.live_steps {
            match step {
                LiveStep::Access { member, kind } => {
                    let reason = match kind {
                        MemberAccessKind::Read => {
                            self.counters.scan_reads += 1;
                            LiveReason::Read
                        }
                        MemberAccessKind::AddressTaken => {
                            self.counters.scan_address_taken += 1;
                            LiveReason::AddressTaken
                        }
                        MemberAccessKind::PointerToMember => {
                            self.counters.scan_ptr_to_member += 1;
                            LiveReason::PointerToMember
                        }
                        MemberAccessKind::VolatileWrite => {
                            self.counters.scan_volatile_writes += 1;
                            LiveReason::VolatileWrite
                        }
                    };
                    self.liveness
                        .mark_live_from(*member, reason, Origin::Access { func });
                }
                LiveStep::MarkAll { class, cause } => {
                    // Configuration gates resolve here, so one summary
                    // serves every configuration.
                    let reason = match cause {
                        MarkAllCause::UnsafeCast => LiveReason::UnsafeCast,
                        MarkAllCause::UnsafeDowncast => {
                            if self.config.assume_safe_downcasts {
                                continue;
                            }
                            LiveReason::UnsafeCast
                        }
                        MarkAllCause::Sizeof => {
                            if self.config.sizeof_policy == SizeofPolicy::Ignore {
                                continue;
                            }
                            LiveReason::Sizeof
                        }
                    };
                    self.counters.markall_triggers += 1;
                    self.mark_all_contained(*class, reason, Origin::MarkAll { func, root: *class });
                }
            }
        }
    }

    /// `MarkAllContainedMembers` over the classes of `class`'s closure not
    /// yet visited, each mark carrying the triggering `origin`.
    fn mark_all_contained(&mut self, class: ClassId, reason: LiveReason, origin: Origin) {
        let (program, liveness) = (self.program, &mut self.liveness);
        self.summary.containment().walk(class, &mut self.visited, |c| {
            for idx in 0..program.class(c).members.len() {
                liveness.mark_live_from(MemberRef::new(c, idx), reason, origin);
            }
        });
    }

    /// The smallest live [`MemberRef`] contained in `class`, or `None`
    /// when none is live (the union rule's trigger). Taking the minimum
    /// makes the witness recorded in [`Origin::Union`] independent of
    /// the closure's order.
    fn min_live_contained(&self, class: ClassId) -> Option<MemberRef> {
        let mut min: Option<MemberRef> = None;
        let mut seen = ClassBitSet::default();
        self.summary.containment().walk(class, &mut seen, |c| {
            for idx in 0..self.program.class(c).members.len() {
                let r = MemberRef::new(c, idx);
                if self.liveness.is_live(r) && min.is_none_or(|cur| r < cur) {
                    min = Some(r);
                }
            }
        });
        min
    }

    /// Union propagation (Figure 2, lines 9–11), to a fixpoint since
    /// marking a union's contents may liven members of another union.
    /// Counts every fixpoint iteration — including the final, confirming
    /// one — into `union_rounds`.
    fn propagate_unions(&mut self) {
        loop {
            self.counters.union_rounds += 1;
            let mut changed = false;
            for (cid, class) in self.program.classes() {
                if class.kind != ClassKind::Union {
                    continue;
                }
                if self.visited.contains(cid) {
                    continue;
                }
                if let Some(via) = self.min_live_contained(cid) {
                    self.mark_all_contained(
                        cid,
                        LiveReason::UnionPropagation,
                        Origin::Union { root: cid, via },
                    );
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_cppfront::parse;

    fn run(src: &str) -> (Program, Liveness) {
        run_with(src, AnalysisConfig::default(), Algorithm::Rta)
    }

    /// The product path: summaries, the call graph over them, the scan.
    pub(super) fn run_with(
        src: &str,
        config: AnalysisConfig,
        algorithm: Algorithm,
    ) -> (Program, Liveness) {
        let program = Program::build(&parse(src).expect("parse")).expect("sema");
        let summary = ProgramSummary::build(&program, algorithm == Algorithm::Pta, 1);
        let cg_options = CallGraphOptions {
            algorithm,
            library_classes: config
                .library_classes
                .iter()
                .filter_map(|n| program.class_by_name(n))
                .collect(),
            ..Default::default()
        };
        let quiet = Telemetry::disabled();
        let (graph, _) =
            CallGraph::build_from_summary_schedule(&program, &summary, &cg_options, &quiet)
                .expect("callgraph");
        let (liveness, _) = DeadMemberAnalysis::new(&program, config)
            .run_summary_counted(&summary, &graph, &quiet)
            .expect("analysis");
        (program, liveness)
    }

    fn member(p: &Program, class: &str, name: &str) -> MemberRef {
        let cid = p.class_by_name(class).unwrap();
        let idx = p
            .class(cid)
            .members
            .iter()
            .position(|m| m.name == name)
            .unwrap();
        MemberRef::new(cid, idx)
    }

    #[test]
    fn read_member_is_live_written_member_is_dead() {
        let (p, l) = run("class A { public: int r; int w; };\n\
             int main() { A a; a.w = 1; return a.r; }");
        assert!(l.is_live(member(&p, "A", "r")));
        assert!(l.is_dead(member(&p, "A", "w")));
    }

    #[test]
    fn never_accessed_member_is_dead() {
        let (p, l) = run("class A { public: int never; }; int main() { A a; return 0; }");
        assert!(l.is_dead(member(&p, "A", "never")));
    }

    #[test]
    fn member_accessed_only_in_unreachable_code_is_dead() {
        let (p, l) = run("class A { public: int m; };\n\
             int ghost() { A a; return a.m; }\n\
             int main() { A a; return 0; }");
        assert!(l.is_dead(member(&p, "A", "m")));
    }

    #[test]
    fn address_taken_member_is_live() {
        let (p, l) = run("class A { public: int m; };\n\
             int main() { A a; int* p = &a.m; a.m = 2; return 0; }");
        assert!(l.is_live(member(&p, "A", "m")));
        assert_eq!(
            l.reason(member(&p, "A", "m")),
            Some(LiveReason::AddressTaken)
        );
    }

    #[test]
    fn volatile_member_live_when_only_written() {
        let (p, l) = run("class Dev { public: volatile int ctrl; int scratch; };\n\
             int main() { Dev d; d.ctrl = 1; d.scratch = 2; return 0; }");
        assert!(l.is_live(member(&p, "Dev", "ctrl")));
        assert_eq!(
            l.reason(member(&p, "Dev", "ctrl")),
            Some(LiveReason::VolatileWrite)
        );
        assert!(l.is_dead(member(&p, "Dev", "scratch")));
    }

    #[test]
    fn delete_and_free_operands_do_not_liven() {
        let (p, l) = run("class Node { public: int* heap_buf; Node* child; };\n\
             int main() { Node n; delete n.child; free(n.heap_buf); return 0; }");
        assert!(l.is_dead(member(&p, "Node", "child")));
        assert!(l.is_dead(member(&p, "Node", "heap_buf")));
    }

    #[test]
    fn pointer_to_member_livens() {
        let (p, l) = run("class A { public: int m; int other; };\n\
             int main() { int A::* pm = &A::m; A a; return a.*pm; }");
        assert!(l.is_live(member(&p, "A", "m")));
        assert_eq!(
            l.reason(member(&p, "A", "m")),
            Some(LiveReason::PointerToMember)
        );
        assert!(l.is_dead(member(&p, "A", "other")));
    }

    #[test]
    fn unsafe_downcast_marks_all_contained_members_of_operand_type() {
        let (p, l) = run("class S { public: int s1; int s2; };\n\
             class T : public S { public: int t1; };\n\
             int main() { S* s = new T(); T* t = (T*)s; return 0; }");
        // Down-cast S* → T* is unsafe by default: S's members become live.
        assert!(l.is_live(member(&p, "S", "s1")));
        assert!(l.is_live(member(&p, "S", "s2")));
        assert_eq!(
            l.reason(member(&p, "S", "s1")),
            Some(LiveReason::UnsafeCast)
        );
        // T's own member is not contained in S.
        assert!(l.is_dead(member(&p, "T", "t1")));
    }

    #[test]
    fn verified_downcasts_can_be_assumed_safe() {
        let (p, l) = run_with(
            "class S { public: int s1; };\n\
             class T : public S { public: int t1; };\n\
             int main() { S* s = new T(); T* t = (T*)s; return 0; }",
            AnalysisConfig {
                assume_safe_downcasts: true,
                ..Default::default()
            },
            Algorithm::Rta,
        );
        assert!(l.is_dead(member(&p, "S", "s1")));
        assert!(l.is_dead(member(&p, "T", "t1")));
    }

    #[test]
    fn upcast_is_safe() {
        let (p, l) = run("class S { public: int s1; };\n\
             class T : public S { public: int t1; };\n\
             int main() { T* t = new T(); S* s = (S*)t; return 0; }");
        assert!(l.is_dead(member(&p, "S", "s1")));
        assert!(l.is_dead(member(&p, "T", "t1")));
    }

    #[test]
    fn reinterpret_cast_is_always_unsafe() {
        let (p, l) = run("class A { public: int m; };\n\
             int main() { A* a = new A(); long v = reinterpret_cast<long>(a); return 0; }");
        assert!(l.is_live(member(&p, "A", "m")));
    }

    #[test]
    fn union_with_one_live_member_livens_all() {
        let (p, l) = run("union U { int i; float f; char bytes[4]; };\n\
             int main() { U u; u.f = 1.5; return u.i; }");
        assert!(l.is_live(member(&p, "U", "i")));
        assert!(l.is_live(member(&p, "U", "f")));
        assert!(l.is_live(member(&p, "U", "bytes")));
    }

    #[test]
    fn union_with_no_live_members_stays_dead() {
        let (p, l) = run("union U { int i; float f; };\n\
             int main() { U u; u.i = 3; return 0; }");
        assert!(l.is_dead(member(&p, "U", "i")));
        assert!(l.is_dead(member(&p, "U", "f")));
    }

    #[test]
    fn sizeof_conservative_vs_ignore() {
        let src = "class A { public: int m1; int m2; };\n\
                   int main() { return sizeof(A); }";
        let (p, l) = run_with(src, AnalysisConfig::default(), Algorithm::Rta);
        assert!(l.is_live(member(&p, "A", "m1")));
        assert_eq!(l.reason(member(&p, "A", "m1")), Some(LiveReason::Sizeof));
        let (p2, l2) = run_with(
            src,
            AnalysisConfig {
                sizeof_policy: SizeofPolicy::Ignore,
                ..Default::default()
            },
            Algorithm::Rta,
        );
        assert!(l2.is_dead(member(&p2, "A", "m1")));
        assert!(l2.is_dead(member(&p2, "A", "m2")));
    }

    #[test]
    fn library_class_members_are_unclassifiable() {
        let (p, l) = run_with(
            "class LibString { public: char* data; int len; int capacity; };\n\
             int main() { LibString s; return s.len; }",
            AnalysisConfig {
                library_classes: ["LibString".to_string()].into_iter().collect(),
                ..Default::default()
            },
            Algorithm::Rta,
        );
        for name in ["data", "len", "capacity"] {
            let m = member(&p, "LibString", name);
            assert!(!m_is_classified(&l, m), "{name} must be unclassifiable");
        }
    }

    fn m_is_classified(l: &Liveness, m: MemberRef) -> bool {
        l.is_dead(m)
    }

    #[test]
    fn figure1_classification_matches_paper() {
        // The running example: expected classifications from §2/§3.1 under
        // the RTA-style call graph (B::mb1, C::mc1, B::mb3 conservatively
        // live; ma2, mn2, ma3 dead).
        let src = "
            class N { public: int mn1; int mn2; };
            class A { public: virtual int f() { return ma1; } int ma1; int ma2; int ma3; };
            class B : public A { public: virtual int f() { return mb1; } int mb1; N mb2; int mb3; int mb4; };
            class C : public A { public: virtual int f() { return mc1; } int mc1; };
            int foo(int* x) { return (*x) + 1; }
            int main() {
                A a; B b; C c; A* ap;
                a.ma3 = b.mb3 + 1;
                int i = 10;
                if (i < 20) { ap = &a; } else { ap = &b; }
                return ap->f() + b.mb2.mn1 + foo(&b.mb4);
            }";
        let (p, l) = run(src);
        // Live per the paper's analysis of its own algorithm:
        assert!(l.is_live(member(&p, "A", "ma1")), "ma1 read in A::f");
        assert!(l.is_live(member(&p, "N", "mn1")), "mn1 read in main");
        assert!(l.is_live(member(&p, "B", "mb2")), "mb2 on a read path");
        assert!(l.is_live(member(&p, "B", "mb4")), "mb4 address taken");
        assert!(
            l.is_live(member(&p, "B", "mb3")),
            "mb3 read (value unused, but conservative)"
        );
        assert!(
            l.is_live(member(&p, "B", "mb1")),
            "mb1 read in reachable B::f"
        );
        assert!(
            l.is_live(member(&p, "C", "mc1")),
            "mc1 read in reachable C::f"
        );
        // Dead:
        assert!(l.is_dead(member(&p, "A", "ma2")), "ma2 never accessed");
        assert!(l.is_dead(member(&p, "N", "mn2")), "mn2 never accessed");
        assert!(l.is_dead(member(&p, "A", "ma3")), "ma3 only written");
        assert_eq!(l.dead_members(&p).len(), 3);
    }

    #[test]
    fn compound_assignment_livens_target() {
        let (p, l) = run("class A { public: int acc; };\n\
             int main() { A a; a.acc += 5; return 0; }");
        assert!(l.is_live(member(&p, "A", "acc")), "`+=` reads the member");
    }

    #[test]
    fn increment_livens_target() {
        let (p, l) = run("class A { public: int n1; int n2; };\n\
             int main() { A a; a.n1++; --a.n2; return 0; }");
        assert!(l.is_live(member(&p, "A", "n1")));
        assert!(l.is_live(member(&p, "A", "n2")));
    }

    #[test]
    fn ctor_initialization_does_not_liven() {
        let (p, l) = run("class A { public: int x; int y; A() : x(1) { y = 2; } };\n\
             int main() { A a; return 0; }");
        assert!(l.is_dead(member(&p, "A", "x")));
        assert!(l.is_dead(member(&p, "A", "y")));
    }

    #[test]
    fn liveness_monotone_in_callgraph_precision() {
        // dead(RTA) ⊇ dead(CHA) ⊇ dead(Everything).
        let src = "
            class A { public: virtual int f() { return m1; } int m1; };
            class B : public A { public: virtual int f() { return m2; } int m2; };
            int orphan() { B b; return b.m2; }
            int main() { A a; return a.f(); }";
        let count = |alg| {
            let (p, l) = run_with(src, AnalysisConfig::default(), alg);
            l.dead_members(&p).len()
        };
        let rta = count(Algorithm::Rta);
        let cha = count(Algorithm::Cha);
        let all = count(Algorithm::Everything);
        assert!(rta >= cha, "rta={rta} cha={cha}");
        assert!(cha >= all, "cha={cha} all={all}");
        assert!(rta > all, "the example is built to show a difference");
    }

    #[test]
    fn mark_all_contained_recurses_through_value_members_and_bases() {
        let (p, l) = run("class Inner { public: int deep; };\n\
             class Base { public: int inherited; };\n\
             class Outer : public Base { public: Inner inner; int own; };\n\
             int main() { Outer* o = new Outer(); long v = reinterpret_cast<long>(o); return 0; }");
        assert!(l.is_live(member(&p, "Outer", "own")));
        assert!(l.is_live(member(&p, "Outer", "inner")));
        assert!(l.is_live(member(&p, "Inner", "deep")));
        assert!(l.is_live(member(&p, "Base", "inherited")));
    }
}

#[cfg(test)]
mod union_edge_tests {
    use super::*;

    fn liveness(src: &str) -> (Program, Liveness) {
        tests::run_with(src, AnalysisConfig::default(), Algorithm::Rta)
    }

    fn member(p: &Program, class: &str, name: &str) -> MemberRef {
        let cid = p.class_by_name(class).unwrap();
        let idx = p
            .class(cid)
            .members
            .iter()
            .position(|m| m.name == name)
            .unwrap();
        MemberRef::new(cid, idx)
    }

    #[test]
    fn union_nested_in_union_propagates_transitively() {
        // Liveness of the outer union's int must reach members nested two
        // levels down (the union fixpoint of Figure 2 lines 9-11).
        let (p, l) = liveness(
            "union Inner { short s; char c; };\n\
             union Outer { int i; Inner nested; };\n\
             int main() { Outer u; return u.i; }",
        );
        assert!(l.is_live(member(&p, "Outer", "i")));
        assert!(l.is_live(member(&p, "Outer", "nested")));
        assert!(l.is_live(member(&p, "Inner", "s")));
        assert!(l.is_live(member(&p, "Inner", "c")));
    }

    #[test]
    fn class_containing_union_does_not_auto_liven() {
        // A union inside a class only fires the rule when one of ITS
        // members is live; sibling class members are unaffected.
        let (p, l) = liveness(
            "union U { int a; int b; };\n\
             class Holder { public: U u; int other; };\n\
             int main() { Holder h; h.other = 1; return 0; }",
        );
        assert!(l.is_dead(member(&p, "U", "a")));
        assert!(l.is_dead(member(&p, "U", "b")));
        assert!(l.is_dead(member(&p, "Holder", "other")));
        // `u` itself: never read or address-taken either.
        assert!(l.is_dead(member(&p, "Holder", "u")));
    }

    #[test]
    fn union_rule_fires_through_base_class_of_contained_class() {
        let (p, l) = liveness(
            "struct Base { int inherited; };\n\
             struct Payload : public Base { int own; };\n\
             union U { Payload p; int raw; };\n\
             int main() { U u; return u.raw; }",
        );
        assert!(l.is_live(member(&p, "Base", "inherited")));
        assert!(l.is_live(member(&p, "Payload", "own")));
    }
}
