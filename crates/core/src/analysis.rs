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
//! The traversal itself is provided by
//! [`ddm_hierarchy::walk_function`]; this module supplies the liveness
//! rules and the `MarkAllContainedMembers` closure.

use crate::liveness::{LiveReason, Liveness, Origin};
use ddm_callgraph::CallGraph;
use ddm_cppfront::ast::{ClassKind, Type};
use ddm_hierarchy::{
    by_value_class, classify_cast, strip_indirections, walk_function, walk_globals, CastEvent,
    CastSafety, ClassId, EventVisitor, FnSummary, FuncId, LiveStep, MarkAllCause,
    MemberAccessEvent, MemberAccessKind, MemberLookup, MemberRef, Program, ProgramSummary,
    TypeError,
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
/// use ddm_hierarchy::{MemberLookup, Program};
///
/// let tu = ddm_cppfront::parse(
///     "class A { public: int used; int written_only; };\n\
///      int main() { A a; a.written_only = 4; return a.used; }",
/// ).unwrap();
/// let program = Program::build(&tu).unwrap();
/// let lookup = MemberLookup::new(&program);
/// let graph = CallGraph::build(&program, &lookup, &CallGraphOptions::default()).unwrap();
/// let analysis = DeadMemberAnalysis::new(&program, AnalysisConfig::default());
/// let liveness = analysis.run(&graph).unwrap();
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

    /// Runs the algorithm against a previously built call graph.
    ///
    /// # Errors
    ///
    /// Propagates [`TypeError`]s from walking reachable function bodies.
    pub fn run(&self, callgraph: &CallGraph) -> Result<Liveness, TypeError> {
        self.run_with(callgraph, &Telemetry::disabled())
    }

    /// [`DeadMemberAnalysis::run`] with telemetry: the scan and the union
    /// post-pass are spanned, and the scan's deterministic counters are
    /// recorded.
    ///
    /// # Errors
    ///
    /// Propagates [`TypeError`]s from walking reachable function bodies.
    pub fn run_with(
        &self,
        callgraph: &CallGraph,
        telemetry: &Telemetry,
    ) -> Result<Liveness, TypeError> {
        let scan_span = telemetry.span(LANE_MAIN, || {
            format!("liveness scan ({} fns)", callgraph.reachable_count())
        });
        let mut marker = self.base_marker()?;

        // Every statement of every function reachable in the call graph.
        let lookup = MemberLookup::new(self.program);
        for func in callgraph.reachable() {
            marker.current = Some(func);
            let mut sink = Sink {
                marker: &mut marker,
            };
            walk_function(self.program, &lookup, func, &mut sink)?;
        }
        drop(scan_span);
        telemetry.update_stats(|s| s.scan_rounds += 1);

        let union_span = telemetry.span(LANE_MAIN, || "union post-pass".into());
        marker.counters.markall_classes_expanded = marker.visited.len() as u64;
        marker.propagate_unions();
        marker.counters.union_classes_livened =
            marker.visited.len() as u64 - marker.counters.markall_classes_expanded;
        drop(union_span);
        emit_liveness_events(telemetry, &marker.counters);
        telemetry.add_counters(&marker.counters);
        Ok(marker.liveness)
    }

    /// Runs the algorithm over precomputed walk-once summaries instead of
    /// re-walking ASTs: replays each reachable function's [`LiveStep`]s in
    /// the sequential scan order, resolves configuration-gated steps
    /// (down-casts, `sizeof`) at replay time, and expands
    /// `MarkAllContainedMembers` and the union fixpoint over the
    /// summaries' precomputed containment closures. The result is
    /// bit-identical to [`DeadMemberAnalysis::run`] on the same call
    /// graph.
    ///
    /// # Errors
    ///
    /// Surfaces the [`TypeError`]s recorded in the summaries of reachable
    /// functions, in the order the walking scan would hit them.
    pub fn run_summary(
        &self,
        summary: &ProgramSummary,
        callgraph: &CallGraph,
    ) -> Result<Liveness, TypeError> {
        self.run_summary_with(summary, callgraph, &Telemetry::disabled())
    }

    /// [`DeadMemberAnalysis::run_summary`] with telemetry: the replay and
    /// union post-pass are spanned, and the replay's deterministic
    /// counters — bit-identical to the walking engine's — are recorded.
    ///
    /// # Errors
    ///
    /// As for [`DeadMemberAnalysis::run_summary`].
    pub fn run_summary_with(
        &self,
        summary: &ProgramSummary,
        callgraph: &CallGraph,
        telemetry: &Telemetry,
    ) -> Result<Liveness, TypeError> {
        self.run_summary_counted(summary, callgraph, telemetry)
            .map(|(liveness, _)| liveness)
    }

    /// [`DeadMemberAnalysis::run_summary_with`], also returning the
    /// scan's deterministic counters. The telemetry handle may be
    /// disabled (it drops counters); callers persisting the converged
    /// state need the counter values regardless, so they are returned
    /// directly.
    ///
    /// # Errors
    ///
    /// As for [`DeadMemberAnalysis::run_summary`].
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

        let mut marker = SummaryMarker {
            program: self.program,
            summary,
            liveness: Liveness::with_member_index(summary.member_index().clone()),
            visited: HashSet::new(),
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
        telemetry.update_stats(|s| {
            s.scan_rounds += 1;
            s.summary_replays += replays;
        });

        let union_span = telemetry.span(LANE_MAIN, || "union post-pass".into());
        marker.counters.markall_classes_expanded = marker.visited.len() as u64;
        marker.propagate_unions();
        marker.counters.union_classes_livened =
            marker.visited.len() as u64 - marker.counters.markall_classes_expanded;
        drop(union_span);
        emit_liveness_events(telemetry, &marker.counters);
        telemetry.add_counters(&marker.counters);
        Ok((marker.liveness, marker.counters))
    }

    /// The pre-scan state: everything dead, library members
    /// unclassifiable, global initializers walked (they run
    /// unconditionally before `main`).
    fn base_marker(&self) -> Result<Marker<'p, '_>, TypeError> {
        let library: HashSet<ClassId> = self
            .config
            .library_classes
            .iter()
            .filter_map(|n| self.program.class_by_name(n))
            .collect();

        let mut marker = Marker {
            program: self.program,
            liveness: Liveness::new(),
            visited: HashSet::new(),
            config: &self.config,
            current: None,
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

        let lookup = MemberLookup::new(self.program);
        let mut sink = Sink {
            marker: &mut marker,
        };
        walk_globals(self.program, &lookup, &mut sink)?;
        Ok(marker)
    }
}

/// Re-emits a persisted liveness scan's telemetry — the deterministic
/// `liveness_scan` / `liveness_union` events, the counters, the
/// metrics, and the scan stats — exactly as
/// [`DeadMemberAnalysis::run_summary_with`] over `reachable_count`
/// reachable functions would. Snapshot warm starts that reuse a stored
/// [`Liveness`] call this instead of re-scanning.
pub fn replay_liveness_telemetry(
    telemetry: &Telemetry,
    reachable_count: usize,
    counters: &Counters,
) {
    telemetry.update_stats(|s| {
        s.scan_rounds += 1;
        s.summary_replays += 1 + reachable_count as u64;
    });
    emit_liveness_events(telemetry, counters);
    telemetry.add_counters(counters);
}

/// Flight-recorder tail of every liveness engine: the scan totals and
/// the union post-pass outcome, read from the final counters (which are
/// engine-invariant at this point), so both events are det class no
/// matter which engine produced them.
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
    telemetry.metrics(|m| {
        m.counter_add("liveness/scan_reads", counters.scan_reads);
        m.counter_add("liveness/markall_triggers", counters.markall_triggers);
        m.hist_record("liveness/union_rounds", counters.union_rounds);
        m.hist_record(
            "liveness/union_classes_livened",
            counters.union_classes_livened,
        );
    });
}

struct Marker<'p, 'c> {
    program: &'p Program,
    liveness: Liveness,
    /// The paper's per-class "visited" marking for
    /// `MarkAllContainedMembers` (line 4 / line 38).
    visited: HashSet<ClassId>,
    config: &'c AnalysisConfig,
    /// The function whose body is being scanned, stamped into each mark's
    /// [`Origin`]. `None` during the global-initializer walk.
    current: Option<FuncId>,
    /// Deterministic event counts for this marker's slice of the scan.
    counters: Counters,
}

impl Marker<'_, '_> {
    /// `MarkAllContainedMembers` (Figure 2, lines 36–50): marks every data
    /// member of `class` live, recursing into by-value member classes and
    /// direct base classes, with duplicate suppression via the visited set.
    /// Every mark in the expansion carries the triggering `origin`.
    fn mark_all_contained(&mut self, class: ClassId, reason: LiveReason, origin: Origin) {
        if !self.visited.insert(class) {
            return;
        }
        let info = self.program.class(class);
        for (idx, m) in info.members.iter().enumerate() {
            self.liveness
                .mark_live_from(MemberRef::new(class, idx), reason, origin);
            if let Some(name) = by_value_class(&m.ty) {
                if let Some(id) = self.program.class_by_name(name) {
                    self.mark_all_contained(id, reason, origin);
                }
            }
        }
        let bases: Vec<ClassId> = info.bases.iter().map(|b| b.id).collect();
        for b in bases {
            self.mark_all_contained(b, reason, origin);
        }
    }

    /// The smallest live [`MemberRef`] directly or indirectly contained in
    /// `class`, or `None` when none is live (the union rule's trigger).
    /// Taking the *minimum* — rather than the first hit of some traversal —
    /// makes the witness recorded in [`Origin::Union`] independent of the
    /// walk order, so both engines agree on it.
    fn min_live_contained(&self, class: ClassId) -> Option<MemberRef> {
        let mut seen = HashSet::new();
        let mut stack = vec![class];
        let mut min: Option<MemberRef> = None;
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            let info = self.program.class(c);
            for (idx, m) in info.members.iter().enumerate() {
                let r = MemberRef::new(c, idx);
                if self.liveness.is_live(r) && min.map_or(true, |cur| r < cur) {
                    min = Some(r);
                }
                if let Some(name) = by_value_class(&m.ty) {
                    if let Some(id) = self.program.class_by_name(name) {
                        stack.push(id);
                    }
                }
            }
            stack.extend(info.bases.iter().map(|b| b.id));
        }
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
                if self.visited.contains(&cid) {
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

    /// Classifies a cast as unsafe per §3, resolving the shared static
    /// classification ([`classify_cast`]) against this run's down-cast
    /// policy.
    fn cast_is_unsafe(&self, ev: &CastEvent) -> bool {
        match classify_cast(self.program, ev) {
            CastSafety::Safe => false,
            CastSafety::Unsafe => true,
            CastSafety::UnsafeDowncast => !self.config.assume_safe_downcasts,
        }
    }
}

/// The summary engine's counterpart of [`Marker`]: the same liveness
/// rules, driven by recorded [`LiveStep`]s instead of AST events, with
/// `MarkAllContainedMembers` flattened over the precomputed containment
/// closures. The flat expansion marks exactly the classes the recursive
/// walk would: any visited class already has its entire closure visited,
/// so each call marks `closure(class)` minus the previously visited set
/// either way.
struct SummaryMarker<'p, 's, 'c> {
    program: &'p Program,
    summary: &'s ProgramSummary,
    liveness: Liveness,
    visited: HashSet<ClassId>,
    config: &'c AnalysisConfig,
    counters: Counters,
}

impl SummaryMarker<'_, '_, '_> {
    /// Replays one function's liveness facts in body order, stamping
    /// `func` into each mark's [`Origin`] (`None` for the global
    /// initializers). The counters increment exactly where the walking
    /// engine's [`Sink`] increments them — one per surviving step — so the
    /// totals are engine-independent.
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

    /// `MarkAllContainedMembers` as a flat sweep of the precomputed
    /// closure, each mark carrying the triggering `origin`.
    fn mark_all_contained(&mut self, class: ClassId, reason: LiveReason, origin: Origin) {
        for &c in self.summary.contained_classes(class) {
            if !self.visited.insert(c) {
                continue;
            }
            for idx in 0..self.program.class(c).members.len() {
                self.liveness
                    .mark_live_from(MemberRef::new(c, idx), reason, origin);
            }
        }
    }

    /// The smallest live [`MemberRef`] contained in `class` — over the
    /// same closure set [`Marker::min_live_contained`] walks, so both
    /// engines pick the same union witness.
    fn min_live_contained(&self, class: ClassId) -> Option<MemberRef> {
        let mut min: Option<MemberRef> = None;
        for &c in self.summary.contained_classes(class) {
            for idx in 0..self.program.class(c).members.len() {
                let r = MemberRef::new(c, idx);
                if self.liveness.is_live(r) && min.map_or(true, |cur| r < cur) {
                    min = Some(r);
                }
            }
        }
        min
    }

    /// Union propagation (Figure 2, lines 9–11) to a fixpoint, iterating
    /// classes in the same order — and counting the same `union_rounds` —
    /// as [`Marker::propagate_unions`].
    fn propagate_unions(&mut self) {
        loop {
            self.counters.union_rounds += 1;
            let mut changed = false;
            for (cid, class) in self.program.classes() {
                if class.kind != ClassKind::Union {
                    continue;
                }
                if self.visited.contains(&cid) {
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

struct Sink<'a, 'p, 'c> {
    marker: &'a mut Marker<'p, 'c>,
}

impl EventVisitor for Sink<'_, '_, '_> {
    fn member_access(&mut self, ev: &MemberAccessEvent) {
        let member = &self.marker.program.class(ev.member.class).members[ev.member.index as usize];
        let origin = Origin::Access {
            func: self.marker.current,
        };
        if ev.is_store_target {
            // "The act of storing a value into a data member cannot affect
            // the program's observable behavior by itself" — except for
            // volatile members (footnote 1).
            if member.is_volatile {
                self.marker.counters.scan_volatile_writes += 1;
                self.marker
                    .liveness
                    .mark_live_from(ev.member, LiveReason::VolatileWrite, origin);
            }
            return;
        }
        if ev.is_delete_operand {
            // "A data member whose address is passed to the delete or free
            // system functions does not have to be marked as live."
            return;
        }
        let reason = if ev.address_taken {
            self.marker.counters.scan_address_taken += 1;
            LiveReason::AddressTaken
        } else {
            self.marker.counters.scan_reads += 1;
            LiveReason::Read
        };
        self.marker.liveness.mark_live_from(ev.member, reason, origin);
    }

    fn ptr_to_member(&mut self, member: MemberRef, _span: ddm_cppfront::Span) {
        // "&Z::m ... we simply assume that any member whose offset is
        // computed may be accessed somewhere in the program."
        self.marker.counters.scan_ptr_to_member += 1;
        let origin = Origin::Access {
            func: self.marker.current,
        };
        self.marker
            .liveness
            .mark_live_from(member, LiveReason::PointerToMember, origin);
    }

    fn cast(&mut self, ev: &CastEvent) {
        if !self.marker.cast_is_unsafe(ev) {
            return;
        }
        // "let S be the type of e'; call MarkAllContainedMembers(S)".
        let operand = strip_indirections(&ev.operand);
        if let Some(name) = operand.named() {
            if let Some(id) = self.marker.program.class_by_name(name) {
                self.marker.counters.markall_triggers += 1;
                let origin = Origin::MarkAll {
                    func: self.marker.current,
                    root: id,
                };
                self.marker
                    .mark_all_contained(id, LiveReason::UnsafeCast, origin);
            }
        }
    }

    fn sizeof_of(&mut self, ty: &Type, _span: ddm_cppfront::Span) {
        if self.marker.config.sizeof_policy == SizeofPolicy::Ignore {
            return;
        }
        let ty = strip_indirections(ty);
        if let Some(name) = ty.named() {
            if let Some(id) = self.marker.program.class_by_name(name) {
                self.marker.counters.markall_triggers += 1;
                let origin = Origin::MarkAll {
                    func: self.marker.current,
                    root: id,
                };
                self.marker
                    .mark_all_contained(id, LiveReason::Sizeof, origin);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_callgraph::{Algorithm, CallGraphOptions};
    use ddm_cppfront::parse;

    fn run(src: &str) -> (Program, Liveness) {
        run_with(src, AnalysisConfig::default(), Algorithm::Rta)
    }

    fn run_with(src: &str, config: AnalysisConfig, algorithm: Algorithm) -> (Program, Liveness) {
        let tu = parse(src).expect("parse");
        let program = Program::build(&tu).expect("sema");
        let liveness = {
            let lookup = MemberLookup::new(&program);
            let cg_options = CallGraphOptions {
                algorithm,
                library_classes: config
                    .library_classes
                    .iter()
                    .filter_map(|n| program.class_by_name(n))
                    .collect(),
                ..Default::default()
            };
            let graph = CallGraph::build(&program, &lookup, &cg_options).expect("callgraph");
            DeadMemberAnalysis::new(&program, config)
                .run(&graph)
                .expect("analysis")
        };
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
    use ddm_callgraph::{CallGraph, CallGraphOptions};
    use ddm_cppfront::parse;

    fn liveness(src: &str) -> (Program, Liveness) {
        let tu = parse(src).expect("parse");
        let program = Program::build(&tu).expect("sema");
        let l = {
            let lookup = MemberLookup::new(&program);
            let graph = CallGraph::build(&program, &lookup, &CallGraphOptions::default()).unwrap();
            DeadMemberAnalysis::new(&program, AnalysisConfig::default())
                .run(&graph)
                .unwrap()
        };
        (program, l)
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
