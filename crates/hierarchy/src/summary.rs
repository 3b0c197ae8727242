//! Walk-once function summaries.
//!
//! The paper presents its analysis as "simple and efficient", but a naive
//! implementation traverses every reachable function body once per
//! call-graph fixpoint round and then again for the liveness scan. This
//! module walks each body **exactly once** and transcribes the events the
//! downstream phases need into a compact [`FnSummary`]:
//!
//! * [`LiveStep`]s — the Figure 2 liveness facts in body order (member
//!   reads / address-takens / pointer-to-member / volatile writes, plus
//!   `MarkAllContainedMembers` triggers from unsafe casts and `sizeof`);
//! * [`CgStep`]s — the call-graph facts in body order (static calls,
//!   virtual sites with their pre-resolved per-receiver-class dispatch
//!   candidates, function-pointer calls, address-taken functions,
//!   instantiations, and `delete` sites).
//!
//! Summaries are sound per-statement transcriptions: everything that
//! depends only on static types is resolved at extraction time, while
//! every fact that depends on the evolving call graph (which dispatch
//! candidates are instantiated, whether a site has any target yet) is
//! recorded symbolically and replayed by the propagation phase. That
//! split is what lets the propagation reproduce a re-walking analysis's
//! results bit for bit without ever touching an AST twice.
//!
//! The module also provides the dense program-wide member numbering
//! ([`MemberIndex`]) and bitset ([`MemberBitSet`]) that back the liveness
//! scan, and the per-class containment closures that replace the
//! recursive `MarkAllContainedMembers` walks.

use crate::ids::{ClassId, FuncId, MemberRef};
use crate::lookup::MemberLookup;
use crate::model::{by_value_class, Program};
use crate::typewalk::{
    walk_function, walk_globals, CallEvent, CallTarget, CastEvent, DeleteEvent, EventVisitor,
    InstantiationEvent, MemberAccessEvent, TypeError,
};
use ddm_cppfront::ast::{CastStyle, Type, TypeKind};
use ddm_cppfront::Span;
use ddm_telemetry::{Telemetry, LANE_MAIN};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Dense program-wide numbering of every data member.
///
/// Members are numbered in declaration order: classes in id order, and
/// within a class its members in declaration order. The numbering is a
/// bijection with the program's [`MemberRef`]s, so a [`MemberBitSet`]
/// keyed by it iterates in exactly the order reports are rendered in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberIndex {
    /// Per class, the dense id of its first member.
    offsets: Vec<u32>,
    /// Dense id → member, in declaration order.
    members: Vec<MemberRef>,
}

impl MemberIndex {
    /// Numbers every data member of `program`.
    pub fn new(program: &Program) -> MemberIndex {
        let mut offsets = Vec::with_capacity(program.class_count());
        let mut members = Vec::new();
        for (cid, class) in program.classes() {
            offsets.push(members.len() as u32);
            for idx in 0..class.members.len() {
                members.push(MemberRef::new(cid, idx));
            }
        }
        MemberIndex { offsets, members }
    }

    /// Total number of data members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the program declares no data members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The dense id of `member`, or `None` if it does not name a member
    /// of the indexed program.
    pub fn id_of(&self, member: MemberRef) -> Option<u32> {
        let ci = member.class.index();
        let start = *self.offsets.get(ci)?;
        let end = self
            .offsets
            .get(ci + 1)
            .copied()
            .unwrap_or(self.members.len() as u32);
        let id = start.checked_add(member.index)?;
        (id < end).then_some(id)
    }

    /// The member with dense id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn member_at(&self, id: u32) -> MemberRef {
        self.members[id as usize]
    }

    /// All members in dense-id (declaration) order.
    pub fn members(&self) -> impl ExactSizeIterator<Item = MemberRef> + '_ {
        self.members.iter().copied()
    }
}

/// A bitset over the dense ids of a [`MemberIndex`], backed by the
/// shared [`DenseBitSet`](crate::bitset::DenseBitSet) word array.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemberBitSet {
    bits: crate::bitset::DenseBitSet,
}

impl MemberBitSet {
    /// An empty set sized for `len` members.
    pub fn with_capacity(len: usize) -> MemberBitSet {
        MemberBitSet {
            bits: crate::bitset::DenseBitSet::with_capacity(len),
        }
    }

    /// Inserts `id`; returns true if it was not already present.
    pub fn insert(&mut self, id: u32) -> bool {
        self.bits.insert(id)
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        self.bits.contains(id)
    }

    /// Unions `other` into this set; returns true if anything was added.
    pub fn union_with(&mut self, other: &MemberBitSet) -> bool {
        self.bits.union_with(&other.bits)
    }

    /// Number of members in the set.
    pub fn count(&self) -> usize {
        self.bits.count()
    }

    /// The set's ids in ascending (declaration) order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.bits.iter()
    }
}

/// How a summarized member access livens its member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberAccessKind {
    /// The member's value is read.
    Read,
    /// The member's address is taken.
    AddressTaken,
    /// A pointer-to-member `&C::m` names it.
    PointerToMember,
    /// It is `volatile` and written.
    VolatileWrite,
}

/// Why a summarized `MarkAllContainedMembers` trigger fires. Causes that
/// depend on the analysis configuration are recorded with their gate so
/// the same summary serves every configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkAllCause {
    /// An unconditionally unsafe cast (reinterpret, unrelated classes,
    /// class ↔ arithmetic).
    UnsafeCast,
    /// A down-cast — unsafe only when the configuration does not assume
    /// down-casts were verified safe.
    UnsafeDowncast,
    /// A `sizeof` of the class — fires only under the conservative
    /// `sizeof` policy.
    Sizeof,
}

/// One liveness fact, in body order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveStep {
    /// A single member is livened.
    Access {
        /// The accessed member.
        member: MemberRef,
        /// How it is accessed.
        kind: MemberAccessKind,
    },
    /// All members contained in `class` are livened (Figure 2's
    /// `MarkAllContainedMembers`).
    MarkAll {
        /// The root class of the containment closure.
        class: ClassId,
        /// Why, including any configuration gate.
        cause: MarkAllCause,
    },
}

/// A virtual call site with its statically pre-resolved dispatch table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualSite {
    /// The statically resolved declaration (the fallback target while no
    /// candidate receiver is instantiated).
    pub decl: FuncId,
    /// The static receiver class the dispatch table was resolved
    /// against. Propagation never consults it, but the summary cache
    /// needs it to re-derive `candidates` after linking TUs.
    pub receiver: ClassId,
    /// Per candidate receiver class, the override the call dispatches to.
    /// Covers every subclass of the static receiver class; the
    /// propagation phase filters by the instantiated set.
    pub candidates: Vec<(ClassId, FuncId)>,
    /// The §3.1 points-to refinement: when the receiver is an analysable
    /// local pointer, the exact target set (independent of the
    /// instantiated set). `None` means no refinement applies.
    pub refined: Option<Vec<FuncId>>,
}

/// A `delete` site with its destructor obligations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeleteSite {
    /// The static class of the deleted pointer (the summary cache
    /// re-derives the destructor obligations from it after linking).
    pub class: ClassId,
    /// The deleted class's own destructor, if declared.
    pub dtor: Option<FuncId>,
    /// True when that destructor is virtual (dispatch applies).
    pub virtual_dtor: bool,
    /// Per candidate dynamic class, its destructor (populated only for
    /// virtual destructors; filtered by the instantiated set at
    /// propagation time).
    pub candidates: Vec<(ClassId, FuncId)>,
    /// Destructors of base subobjects, which always run.
    pub ancestor_dtors: Vec<FuncId>,
}

/// One call-graph fact, in body order. Order matters: a body interleaves
/// instantiations and dispatch decisions, and the replay must observe
/// the instantiated set in the same intermediate states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CgStep {
    /// A statically bound call (free function, non-virtual method,
    /// qualified call, constructor-initializer base call).
    Call(FuncId),
    /// A virtual dispatch site.
    VirtualCall(VirtualSite),
    /// An indirect call through a function pointer.
    FnPointerCall,
    /// A function whose address is taken.
    TakeAddress(FuncId),
    /// An object instantiation.
    Instantiate {
        /// The instantiated class.
        class: ClassId,
        /// The constructor that runs, when resolvable.
        ctor: Option<FuncId>,
    },
    /// A `delete` expression.
    Delete(DeleteSite),
}

/// Everything one body traversal learned, replayable by both the
/// call-graph propagation and the liveness scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Liveness facts in body order.
    pub live_steps: Vec<LiveStep>,
    /// Call-graph facts in body order.
    pub cg_steps: Vec<CgStep>,
}

impl FnSummary {
    /// The classes this body instantiates (seed set for the used-class
    /// computation).
    pub fn instantiated_classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.cg_steps.iter().filter_map(|s| match s {
            CgStep::Instantiate { class, .. } => Some(*class),
            _ => None,
        })
    }
}

/// Static safety classification of a cast (§3). Configuration-dependent
/// outcomes are reported symbolically so summaries stay
/// configuration-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastSafety {
    /// Never livens anything.
    Safe,
    /// Always unsafe.
    Unsafe,
    /// A down-cast: unsafe unless the user verified down-casts safe.
    UnsafeDowncast,
}

/// Classifies a cast per §3: `reinterpret_cast` and unrelated-type casts
/// are unsafe, down-casts conditionally so; up-casts, identity casts,
/// arithmetic conversions, `dynamic_cast`, `const_cast`, and `void*`
/// casts are safe.
pub fn classify_cast(program: &Program, ev: &CastEvent) -> CastSafety {
    match ev.style {
        CastStyle::Dynamic | CastStyle::Const => return CastSafety::Safe,
        CastStyle::Reinterpret => return CastSafety::Unsafe,
        CastStyle::CStyle | CastStyle::Static => {}
    }
    let target = strip_indirections(&ev.target);
    let operand = strip_indirections(&ev.operand);
    // Arithmetic conversions are safe.
    if target.is_arithmetic() && operand.is_arithmetic() {
        return CastSafety::Safe;
    }
    // `void*` is the universal currency of the allocation interface.
    if matches!(target.kind, TypeKind::Void) || matches!(operand.kind, TypeKind::Void) {
        return CastSafety::Safe;
    }
    let (Some(tname), Some(oname)) = (target.named(), operand.named()) else {
        // Class ↔ arithmetic, or function-pointer reinterpretation.
        return CastSafety::Unsafe;
    };
    let (Some(tid), Some(oid)) = (program.class_by_name(tname), program.class_by_name(oname))
    else {
        return CastSafety::Unsafe;
    };
    if tid == oid {
        return CastSafety::Safe;
    }
    if program.derives_from(oid, tid) {
        return CastSafety::Safe; // up-cast
    }
    if program.derives_from(tid, oid) {
        return CastSafety::UnsafeDowncast;
    }
    CastSafety::Unsafe // unrelated classes
}

/// Strips pointers, references and arrays to reach the underlying type.
pub fn strip_indirections(ty: &Type) -> &Type {
    match &ty.kind {
        TypeKind::Pointer(inner) | TypeKind::Reference(inner) => strip_indirections(inner),
        TypeKind::Array(inner, _) => strip_indirections(inner),
        _ => ty,
    }
}

/// The summaries of a whole program: one [`FnSummary`] per function (all
/// of them, reachable or not, so the call-graph fixpoint can consult any
/// function it discovers), one for the global initializers, the dense
/// [`MemberIndex`], and the per-class containment closures.
///
/// Walk errors are stored per function rather than failing the build, so
/// each consuming phase surfaces the error when its schedule reaches the
/// function, as a walk at that point would.
#[derive(Debug, Clone)]
pub struct ProgramSummary {
    functions: Vec<Result<FnSummary, TypeError>>,
    globals: Result<FnSummary, TypeError>,
    index: MemberIndex,
    /// Per class: every class transitively contained in it (itself, its
    /// by-value member classes, and its base classes).
    closures: Vec<Vec<ClassId>>,
}

impl ProgramSummary {
    /// Extracts summaries for every function of `program`, walking each
    /// body exactly once.
    ///
    /// `refine_receivers` enables the §3.1 points-to refinement at
    /// virtual call sites (used by the PTA call graph); it costs one
    /// extra body scan per analysable receiver variable, so only enable
    /// it when the refinement is consumed.
    ///
    /// `_jobs` is ignored: extraction runs on the calling thread. The
    /// parameter stays until the repository benchmark, which passes it,
    /// is next changed.
    pub fn build(program: &Program, refine_receivers: bool, _jobs: usize) -> ProgramSummary {
        Self::build_with(program, refine_receivers, &Telemetry::disabled())
    }

    /// [`ProgramSummary::build`] with telemetry: the extraction phase is
    /// spanned on the main lane.
    pub fn build_with(
        program: &Program,
        refine_receivers: bool,
        telemetry: &Telemetry,
    ) -> ProgramSummary {
        let n = program.function_count();
        let _extraction = telemetry.span(LANE_MAIN, || format!("summary extraction ({n} fns)"));
        let lookup = MemberLookup::new(program);
        let functions: Vec<Result<FnSummary, TypeError>> = (0..n)
            .map(|i| extract_function(program, &lookup, FuncId::from_index(i), refine_receivers))
            .collect();
        let globals = {
            let lookup = MemberLookup::new(program);
            let mut ex = Extractor::new(program, &lookup, None, false);
            walk_globals(program, &lookup, &mut ex).map(|()| ex.out)
        };
        let index = MemberIndex::new(program);
        let closures = (0..program.class_count())
            .map(|i| containment_closure(program, ClassId::from_index(i)))
            .collect();
        ProgramSummary {
            functions,
            globals,
            index,
            closures,
        }
    }

    /// Assembles a `ProgramSummary` from already-known parts: the TU
    /// linker builds linked summaries from cached per-TU modules without
    /// re-walking any body. `functions` must be indexed by `FuncId` of
    /// `program` and the derived tables (member index, containment
    /// closures) are recomputed from `program` itself, so they cannot
    /// drift from a cold build.
    pub(crate) fn from_parts(
        program: &Program,
        functions: Vec<Result<FnSummary, TypeError>>,
        globals: Result<FnSummary, TypeError>,
    ) -> ProgramSummary {
        debug_assert_eq!(functions.len(), program.function_count());
        let index = MemberIndex::new(program);
        let closures = (0..program.class_count())
            .map(|i| containment_closure(program, ClassId::from_index(i)))
            .collect();
        ProgramSummary {
            functions,
            globals,
            index,
            closures,
        }
    }

    /// The summary of `func`, or the walk error its body produced.
    ///
    /// # Errors
    ///
    /// Returns the [`TypeError`] recorded while walking the body.
    pub fn function(&self, func: FuncId) -> Result<&FnSummary, TypeError> {
        self.functions[func.index()].as_ref().map_err(Clone::clone)
    }

    /// The summary of the global initializers.
    ///
    /// # Errors
    ///
    /// Returns the [`TypeError`] recorded while walking them.
    pub fn globals(&self) -> Result<&FnSummary, TypeError> {
        self.globals.as_ref().map_err(Clone::clone)
    }

    /// The dense member numbering.
    pub fn member_index(&self) -> &MemberIndex {
        &self.index
    }

    /// Every class transitively contained in `class` (itself, by-value
    /// member classes, bases) — the precomputed footprint of
    /// `MarkAllContainedMembers`.
    pub fn contained_classes(&self, class: ClassId) -> &[ClassId] {
        &self.closures[class.index()]
    }

    /// The used-class set of the paper's Table 1: "classes for which a
    /// constructor is called in user code". A class is used iff some
    /// function or global instantiates it — reachable or not — or it is
    /// contained in a used class (bases and by-value members are
    /// constructed implicitly). Members of unused classes are left out
    /// of the static percentages (§4.2).
    ///
    /// # Errors
    ///
    /// Surfaces stored walk errors: functions in id order, then
    /// globals.
    pub fn used_classes(&self, program: &Program) -> Result<HashSet<ClassId>, TypeError> {
        let mut seeds: HashSet<ClassId> = HashSet::new();
        for (fid, f) in program.functions() {
            if f.body.is_some() || !f.inits.is_empty() {
                seeds.extend(self.function(fid)?.instantiated_classes());
            }
        }
        seeds.extend(self.globals()?.instantiated_classes());
        let mut used = HashSet::new();
        for s in seeds {
            used.extend(self.contained_classes(s).iter().copied());
        }
        Ok(used)
    }
}

/// The containment closure of `class`: itself, plus (transitively) its
/// by-value member classes and base classes. Matches both the recursion
/// of the analysis's `MarkAllContainedMembers` and the used-class
/// closure, which traverse the same edges.
fn containment_closure(program: &Program, class: ClassId) -> Vec<ClassId> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut stack = vec![class];
    while let Some(c) = stack.pop() {
        if !seen.insert(c) {
            continue;
        }
        out.push(c);
        let info = program.class(c);
        for m in &info.members {
            if let Some(name) = by_value_class(&m.ty) {
                if let Some(id) = program.class_by_name(name) {
                    stack.push(id);
                }
            }
        }
        for b in &info.bases {
            stack.push(b.id);
        }
    }
    out
}

/// Extracts the summary of one function body, walking it exactly once.
///
/// # Errors
///
/// Returns the [`TypeError`] the walk produced.
fn extract_function(
    program: &Program,
    lookup: &MemberLookup<'_>,
    func: FuncId,
    refine: bool,
) -> Result<FnSummary, TypeError> {
    let mut ex = Extractor::new(program, lookup, Some(func), refine);
    walk_function(program, lookup, func, &mut ex)?;
    Ok(ex.out)
}

/// The extraction visitor: transcribes one body's events into a
/// [`FnSummary`] — what the call-graph propagation and the liveness
/// scan need from each event, minus everything that depends on
/// propagation state.
struct Extractor<'p, 'l> {
    program: &'p Program,
    lookup: &'l MemberLookup<'p>,
    /// The function being summarized; `None` for global initializers
    /// (whose sites are never revisited or refined).
    func: Option<FuncId>,
    refine: bool,
    /// Memoized §3.1 points-to queries per receiver variable.
    pointees: HashMap<String, Option<BTreeSet<ClassId>>>,
    out: FnSummary,
}

impl<'p, 'l> Extractor<'p, 'l> {
    fn new(
        program: &'p Program,
        lookup: &'l MemberLookup<'p>,
        func: Option<FuncId>,
        refine: bool,
    ) -> Self {
        Extractor {
            program,
            lookup,
            func,
            refine,
            pointees: HashMap::new(),
            out: FnSummary::default(),
        }
    }

    fn refined_targets(&mut self, var: &str, method_name: &str) -> Option<Vec<FuncId>> {
        let owner = self.func?;
        let program = self.program;
        let pointees = self
            .pointees
            .entry(var.to_string())
            .or_insert_with(|| crate::pta::local_pointees(program, owner, var))
            .clone()?;
        let mut out = BTreeSet::new();
        for c in pointees {
            if let Some(f) = self.lookup.resolve_virtual(c, method_name) {
                out.insert(f);
            }
        }
        Some(out.into_iter().collect())
    }
}

impl EventVisitor for Extractor<'_, '_> {
    fn member_access(&mut self, ev: &MemberAccessEvent) {
        let member = &self.program.class(ev.member.class).members[ev.member.index as usize];
        if ev.is_store_target {
            // Pure writes liven nothing — except volatile members.
            if member.is_volatile {
                self.out.live_steps.push(LiveStep::Access {
                    member: ev.member,
                    kind: MemberAccessKind::VolatileWrite,
                });
            }
            return;
        }
        if ev.is_delete_operand {
            return;
        }
        let kind = if ev.address_taken {
            MemberAccessKind::AddressTaken
        } else {
            MemberAccessKind::Read
        };
        self.out.live_steps.push(LiveStep::Access {
            member: ev.member,
            kind,
        });
    }

    fn ptr_to_member(&mut self, member: MemberRef, _span: Span) {
        self.out.live_steps.push(LiveStep::Access {
            member,
            kind: MemberAccessKind::PointerToMember,
        });
    }

    fn cast(&mut self, ev: &CastEvent) {
        let cause = match classify_cast(self.program, ev) {
            CastSafety::Safe => return,
            CastSafety::Unsafe => MarkAllCause::UnsafeCast,
            CastSafety::UnsafeDowncast => MarkAllCause::UnsafeDowncast,
        };
        let operand = strip_indirections(&ev.operand);
        if let Some(name) = operand.named() {
            if let Some(id) = self.program.class_by_name(name) {
                self.out.live_steps.push(LiveStep::MarkAll { class: id, cause });
            }
        }
    }

    fn sizeof_of(&mut self, ty: &Type, _span: Span) {
        let ty = strip_indirections(ty);
        if let Some(name) = ty.named() {
            if let Some(id) = self.program.class_by_name(name) {
                self.out.live_steps.push(LiveStep::MarkAll {
                    class: id,
                    cause: MarkAllCause::Sizeof,
                });
            }
        }
    }

    fn call(&mut self, ev: &CallEvent) {
        match &ev.target {
            CallTarget::Free(f) => self.out.cg_steps.push(CgStep::Call(*f)),
            CallTarget::Builtin(_) => {}
            CallTarget::Method {
                func,
                receiver_class,
                is_virtual_dispatch,
                receiver_var,
            } => {
                if *is_virtual_dispatch {
                    let program = self.program;
                    let name: &str = &program.function(*func).name;
                    let refined = match (self.refine, receiver_var) {
                        (true, Some(var)) => self.refined_targets(var, name),
                        _ => None,
                    };
                    let candidates = self
                        .lookup
                        .dispatch_candidates_for(*receiver_class, *func)
                        .to_vec();
                    self.out.cg_steps.push(CgStep::VirtualCall(VirtualSite {
                        decl: *func,
                        receiver: *receiver_class,
                        candidates,
                        refined,
                    }));
                } else {
                    self.out.cg_steps.push(CgStep::Call(*func));
                }
            }
            CallTarget::FunctionPointer => self.out.cg_steps.push(CgStep::FnPointerCall),
        }
    }

    fn address_of_function(&mut self, func: FuncId, _span: Span) {
        self.out.cg_steps.push(CgStep::TakeAddress(func));
    }

    fn instantiation(&mut self, ev: &InstantiationEvent) {
        self.out.cg_steps.push(CgStep::Instantiate {
            class: ev.class,
            ctor: ev.ctor,
        });
    }

    fn delete_of(&mut self, ev: &DeleteEvent) {
        let Some(class) = ev.pointee_class else {
            return;
        };
        let dtor = self.program.destructor(class);
        let virtual_dtor = dtor.is_some_and(|d| self.program.function(d).is_virtual);
        let candidates = if virtual_dtor {
            self.lookup.destructor_candidates(class).to_vec()
        } else {
            Vec::new()
        };
        let ancestor_dtors = self
            .program
            .ancestors_of(class)
            .into_iter()
            .filter_map(|a| self.program.destructor(a))
            .collect();
        self.out.cg_steps.push(CgStep::Delete(DeleteSite {
            class,
            dtor,
            virtual_dtor,
            candidates,
            ancestor_dtors,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_cppfront::parse;

    fn program(src: &str) -> Program {
        Program::build(&parse(src).expect("parse")).expect("sema")
    }

    const THREE_CLASSES: &str = "class A { public: int a0; int a1; };\n\
         class B { public: int b0; };\n\
         class C { public: int c0; int c1; int c2; };\n\
         int main() { return 0; }";

    #[test]
    fn member_index_round_trips_every_member() {
        let p = program(THREE_CLASSES);
        let index = MemberIndex::new(&p);
        assert_eq!(index.len(), 6);
        for (cid, class) in p.classes() {
            for idx in 0..class.members.len() {
                let m = MemberRef::new(cid, idx);
                let id = index.id_of(m).expect("every member has a dense id");
                assert_eq!(index.member_at(id), m, "round trip through {id}");
            }
        }
    }

    #[test]
    fn member_index_iterates_in_declaration_order() {
        let p = program(THREE_CLASSES);
        let index = MemberIndex::new(&p);
        let dense: Vec<MemberRef> = index.members().collect();
        let mut declared = Vec::new();
        for (cid, class) in p.classes() {
            for idx in 0..class.members.len() {
                declared.push(MemberRef::new(cid, idx));
            }
        }
        assert_eq!(dense, declared, "dense order must match declaration order");
        // Dense ids themselves are assigned in that order.
        for (expect, m) in declared.iter().enumerate() {
            assert_eq!(index.id_of(*m), Some(expect as u32));
        }
    }

    #[test]
    fn member_index_rejects_out_of_range_refs() {
        let p = program(THREE_CLASSES);
        let index = MemberIndex::new(&p);
        // Member index past the class's member count.
        let a = p.class_by_name("A").unwrap();
        assert_eq!(index.id_of(MemberRef::new(a, 2)), None);
        // Class index past the class count.
        assert_eq!(index.id_of(MemberRef::new(ClassId::from_index(99), 0)), None);
    }

    #[test]
    fn bitset_insert_contains_and_count() {
        let mut s = MemberBitSet::with_capacity(130);
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0), "second insert reports already-present");
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(s.contains(129));
        assert!(!s.contains(128));
        assert_eq!(s.count(), 4);
        // Insert past the capacity grows the set.
        assert!(s.insert(1000));
        assert!(s.contains(1000));
    }

    #[test]
    fn bitset_iterates_ascending() {
        let mut s = MemberBitSet::default();
        for id in [70, 3, 128, 0, 65] {
            s.insert(id);
        }
        let got: Vec<u32> = s.iter().collect();
        assert_eq!(got, vec![0, 3, 65, 70, 128]);
    }

    #[test]
    fn bitset_union_semantics() {
        let mut a = MemberBitSet::default();
        a.insert(1);
        a.insert(64);
        let mut b = MemberBitSet::default();
        b.insert(2);
        b.insert(64);
        b.insert(200);
        assert!(a.union_with(&b), "new bits arrived");
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 64, 200]);
        assert!(!a.union_with(&b), "idempotent once absorbed");
        let empty = MemberBitSet::default();
        assert!(!a.union_with(&empty));
    }

    #[test]
    fn containment_closure_covers_members_and_bases() {
        let p = program(
            "class Inner { public: int deep; };\n\
             class Base { public: int inherited; };\n\
             class Outer : public Base { public: Inner inner; int own; };\n\
             class Apart { public: int lone; };\n\
             int main() { return 0; }",
        );
        let s = ProgramSummary::build(&p, false, 1);
        let outer = p.class_by_name("Outer").unwrap();
        let closure: HashSet<ClassId> = s.contained_classes(outer).iter().copied().collect();
        for name in ["Outer", "Inner", "Base"] {
            assert!(closure.contains(&p.class_by_name(name).unwrap()), "{name}");
        }
        assert!(!closure.contains(&p.class_by_name("Apart").unwrap()));
        // A leaf class contains only itself.
        let inner = p.class_by_name("Inner").unwrap();
        assert_eq!(s.contained_classes(inner), &[inner]);
    }

    #[test]
    fn summaries_transcribe_liveness_steps_in_body_order() {
        let p = program(
            "class A { public: int r; int w; volatile int v; };\n\
             int main() { A a; a.w = 1; a.v = 2; int* q = &a.r; return a.r; }",
        );
        let s = ProgramSummary::build(&p, false, 1);
        let main = p.main_function().unwrap();
        let steps = &s.function(main).unwrap().live_steps;
        let a = p.class_by_name("A").unwrap();
        assert_eq!(
            steps,
            &vec![
                LiveStep::Access {
                    member: MemberRef::new(a, 2),
                    kind: MemberAccessKind::VolatileWrite
                },
                LiveStep::Access {
                    member: MemberRef::new(a, 0),
                    kind: MemberAccessKind::AddressTaken
                },
                LiveStep::Access {
                    member: MemberRef::new(a, 0),
                    kind: MemberAccessKind::Read
                },
            ],
            "store to w dropped, volatile write kept, order preserved"
        );
    }

    #[test]
    fn walk_errors_are_stored_per_function() {
        let p = program(
            "int bad() { return mystery; }\n\
             int main() { return 0; }",
        );
        let s = ProgramSummary::build(&p, false, 1);
        let bad = p.free_function("bad").unwrap();
        assert!(s.function(bad).is_err());
        assert!(s.function(p.main_function().unwrap()).is_ok());
    }

    fn used(src: &str) -> (Program, HashSet<ClassId>) {
        let p = program(src);
        let used = ProgramSummary::build(&p, false, 1)
            .used_classes(&p)
            .unwrap();
        (p, used)
    }

    #[test]
    fn locals_heap_and_globals_seed_usage() {
        let (p, used) = used(
            "class L { }; class H { }; class G { }; class U { };\n\
             G g;\n\
             int main() { L l; H* h = new H(); delete h; return 0; }",
        );
        for name in ["L", "H", "G"] {
            assert!(used.contains(&p.class_by_name(name).unwrap()), "{name}");
        }
        assert!(!used.contains(&p.class_by_name("U").unwrap()));
    }

    #[test]
    fn bases_and_by_value_members_of_used_classes_are_used() {
        let (p, used) = used(
            "class Base { public: int b; }; class Derived : public Base { };\n\
             class OtherBase { };\n\
             class Embedded { public: int e; }; class Pointed { public: int p; };\n\
             class Holder { public: Embedded em; Pointed* pp; };\n\
             int main() { Derived d; Holder h; return 0; }",
        );
        for name in ["Base", "Derived", "Embedded", "Holder"] {
            assert!(used.contains(&p.class_by_name(name).unwrap()), "{name}");
        }
        assert!(!used.contains(&p.class_by_name("OtherBase").unwrap()));
        assert!(!used.contains(&p.class_by_name("Pointed").unwrap()));
    }

    #[test]
    fn instantiation_in_unreachable_function_still_counts_as_used() {
        // "Used" is a static, whole-program-text notion in Table 1.
        let (p, used) = used(
            "class OnlyInDeadCode { };\n\
             void never_called() { OnlyInDeadCode x; }\n\
             int main() { return 0; }",
        );
        assert!(used.contains(&p.class_by_name("OnlyInDeadCode").unwrap()));
    }
}
