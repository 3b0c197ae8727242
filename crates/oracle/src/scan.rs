//! The reference liveness scan: Figure 2 straight off the AST.
//!
//! Every reachable function body is walked again and each member
//! access, pointer-to-member, cast and `sizeof` is judged as the walk
//! meets it. `MarkAllContainedMembers` recurses through the class
//! graph with the paper's visited marking. The product instead replays
//! facts recorded once per body and expands precomputed containment
//! closures; this scan shares none of that.

use ddm_callgraph::CallGraph;
use ddm_core::{AnalysisConfig, LiveReason, Liveness, Origin, SizeofPolicy};
use ddm_cppfront::ast::{ClassKind, Type};
use ddm_hierarchy::{
    by_value_class, classify_cast, strip_indirections, walk_function, walk_globals, CastEvent,
    CastSafety, ClassId, EventVisitor, FuncId, MemberAccessEvent, MemberLookup, MemberRef, Program,
    TypeError,
};
use ddm_telemetry::Counters;
use std::collections::HashSet;

/// Classifies every data member of `program`, scanning the global
/// initializers and then every function `callgraph` reaches, in id
/// order.
///
/// The returned counters hold the scan's share of the deterministic
/// counters: the `scan_*`, `markall_*` and `union_*` fields.
///
/// # Errors
///
/// The first [`TypeError`] a walked body produces.
pub fn scan(
    program: &Program,
    config: &AnalysisConfig,
    callgraph: &CallGraph,
) -> Result<(Liveness, Counters), TypeError> {
    let mut marker = Marker {
        program,
        config,
        liveness: Liveness::new(),
        visited: HashSet::new(),
        current: None,
        counters: Counters::default(),
    };
    // Library members are unclassifiable (§3.3).
    for (cid, class) in program.classes() {
        if config.library_classes.contains(&class.name) {
            for idx in 0..class.members.len() {
                marker
                    .liveness
                    .mark_unclassifiable(MemberRef::new(cid, idx));
            }
        }
    }
    let lookup = MemberLookup::new(program);
    walk_globals(program, &lookup, &mut marker)?;
    for func in callgraph.reachable() {
        marker.current = Some(func);
        walk_function(program, &lookup, func, &mut marker)?;
    }
    marker.counters.markall_classes_expanded = marker.visited.len() as u64;
    marker.propagate_unions();
    marker.counters.union_classes_livened =
        marker.visited.len() as u64 - marker.counters.markall_classes_expanded;
    Ok((marker.liveness, marker.counters))
}

struct Marker<'p> {
    program: &'p Program,
    config: &'p AnalysisConfig,
    liveness: Liveness,
    /// The paper's per-class "visited" marking for
    /// `MarkAllContainedMembers`.
    visited: HashSet<ClassId>,
    /// The function being scanned; `None` for the global initializers.
    current: Option<FuncId>,
    counters: Counters,
}

impl Marker<'_> {
    /// `MarkAllContainedMembers` (Figure 2, lines 36–50): every member of
    /// `class` is live, recursing into by-value member classes and base
    /// classes.
    fn mark_all_contained(&mut self, class: ClassId, reason: LiveReason, origin: Origin) {
        if !self.visited.insert(class) {
            return;
        }
        let info = self.program.class(class);
        for (idx, m) in info.members.iter().enumerate() {
            self.liveness
                .mark_live_from(MemberRef::new(class, idx), reason, origin);
            if let Some(id) = by_value_class(&m.ty).and_then(|n| self.program.class_by_name(n)) {
                self.mark_all_contained(id, reason, origin);
            }
        }
        for b in &info.bases {
            self.mark_all_contained(b.id, reason, origin);
        }
    }

    /// The smallest live member contained in `class`, if any: the union
    /// rule's trigger and its recorded witness.
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
                if self.liveness.is_live(r) && min.is_none_or(|cur| r < cur) {
                    min = Some(r);
                }
                stack.extend(by_value_class(&m.ty).and_then(|n| self.program.class_by_name(n)));
            }
            stack.extend(info.bases.iter().map(|b| b.id));
        }
        min
    }

    /// Union propagation (Figure 2, lines 9–11), to a fixpoint: livening
    /// one union's contents may liven a member of another.
    fn propagate_unions(&mut self) {
        loop {
            self.counters.union_rounds += 1;
            let mut changed = false;
            for (cid, class) in self.program.classes() {
                if class.kind != ClassKind::Union || self.visited.contains(&cid) {
                    continue;
                }
                if let Some(via) = self.min_live_contained(cid) {
                    let origin = Origin::Union { root: cid, via };
                    self.mark_all_contained(cid, LiveReason::UnionPropagation, origin);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// `MarkAllContainedMembers` of the class `ty` names, if any.
    fn mark_all_of(&mut self, ty: &Type, reason: LiveReason) {
        let Some(id) = strip_indirections(ty)
            .named()
            .and_then(|n| self.program.class_by_name(n))
        else {
            return;
        };
        self.counters.markall_triggers += 1;
        let origin = Origin::MarkAll {
            func: self.current,
            root: id,
        };
        self.mark_all_contained(id, reason, origin);
    }
}

impl EventVisitor for Marker<'_> {
    fn member_access(&mut self, ev: &MemberAccessEvent) {
        let origin = Origin::Access { func: self.current };
        let member = &self.program.class(ev.member.class).members[ev.member.index as usize];
        let reason = if ev.is_store_target {
            // A store cannot affect observable behaviour by itself —
            // except into a volatile member (footnote 1).
            if !member.is_volatile {
                return;
            }
            self.counters.scan_volatile_writes += 1;
            LiveReason::VolatileWrite
        } else if ev.is_delete_operand {
            // Passing a member to `delete`/`free` does not liven it.
            return;
        } else if ev.address_taken {
            self.counters.scan_address_taken += 1;
            LiveReason::AddressTaken
        } else {
            self.counters.scan_reads += 1;
            LiveReason::Read
        };
        self.liveness.mark_live_from(ev.member, reason, origin);
    }

    fn ptr_to_member(&mut self, member: MemberRef, _span: ddm_cppfront::Span) {
        // `&Z::m`: any member whose offset is computed may be accessed.
        self.counters.scan_ptr_to_member += 1;
        let origin = Origin::Access { func: self.current };
        self.liveness
            .mark_live_from(member, LiveReason::PointerToMember, origin);
    }

    fn cast(&mut self, ev: &CastEvent) {
        let unsafe_cast = match classify_cast(self.program, ev) {
            CastSafety::Safe => false,
            CastSafety::Unsafe => true,
            CastSafety::UnsafeDowncast => !self.config.assume_safe_downcasts,
        };
        if unsafe_cast {
            self.mark_all_of(&ev.operand, LiveReason::UnsafeCast);
        }
    }

    fn sizeof_of(&mut self, ty: &Type, _span: ddm_cppfront::Span) {
        if self.config.sizeof_policy == SizeofPolicy::Conservative {
            self.mark_all_of(ty, LiveReason::Sizeof);
        }
    }
}
