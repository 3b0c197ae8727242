//! # ddm-callgraph
//!
//! Call-graph construction for the dead-data-member study.
//!
//! The paper builds its call graph with a variant of the Program
//! Virtual-call Graph algorithm (Bacon & Sweeney, OOPSLA'96) and notes
//! that "the accuracy of the call graph may have an impact on the
//! precision of the analysis" (§3). This crate provides three builders of
//! increasing precision, used for that ablation:
//!
//! * [`Algorithm::Everything`] — every function with a body is reachable
//!   and every class instantiated (the most conservative baseline);
//! * [`Algorithm::Cha`] — Class Hierarchy Analysis: a virtual call through
//!   static class `S` may reach the override in any subclass of `S`;
//! * [`Algorithm::Rta`] — Rapid Type Analysis: like CHA, but only classes
//!   observed to be instantiated in reachable code count as dispatch
//!   receivers (the paper's PVG is an RTA-family algorithm).
//!
//! All three honour the paper's conservatism rules for separately-compiled
//! libraries (§3.3): functions whose address is taken in reachable code
//! are reachable, and application overrides of virtual methods declared in
//! user-designated *library classes* are reachable (callbacks).
//!
//! The propagating algorithms replay walk-once function summaries
//! ([`ProgramSummary`]) through a **delta-driven worklist fixpoint**
//! (`run_fixpoint`): each round processes only the functions made
//! newly reachable in the previous round plus the dispatch sites readied
//! by newly instantiated receiver classes, instead of re-sweeping the
//! whole reachable set. The schedule reproduces the historical full-sweep
//! round structure exactly (see DESIGN.md §5d), so the resulting graphs —
//! and every schedule-sensitive decision such as the no-candidate
//! static-declaration fallback — are bit-identical to that sweep, which
//! the `ddm-oracle` test crate keeps as the reference. Fixpoint state is
//! dense: [`FuncBitSet`]/[`ClassBitSet`] membership, per-function sorted
//! edge rows frozen into a CSR adjacency.

use ddm_hierarchy::{
    resolve_ctor, CgStep, ClassBitSet, ClassId, FnSummary, FuncBitSet, FuncId, Program,
    ProgramSummary, TypeError,
};
use ddm_telemetry::{Counters, EventClass, Histogram, Telemetry, LANE_MAIN};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashSet};

/// Which call-graph construction algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// All functions reachable, all classes instantiated.
    Everything,
    /// Class Hierarchy Analysis.
    Cha,
    /// Rapid Type Analysis (default; stands in for the paper's PVG).
    #[default]
    Rta,
    /// RTA plus the §3.1 intraprocedural points-to refinement: virtual
    /// call sites whose receiver is an analysable local pointer dispatch
    /// only to the classes that pointer can actually reference.
    Pta,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Algorithm::Everything => "everything",
            Algorithm::Cha => "CHA",
            Algorithm::Rta => "RTA",
            Algorithm::Pta => "PTA",
        })
    }
}

/// Options controlling call-graph construction.
#[derive(Debug, Clone, Default)]
pub struct CallGraphOptions {
    /// Which algorithm to use.
    pub algorithm: Algorithm,
    /// Classes declared in (simulated) libraries: application overrides of
    /// their virtual methods become call-graph roots, because library code
    /// may call back into them.
    pub library_classes: HashSet<ClassId>,
    /// Ignored: every builder runs on the calling thread. Kept so that
    /// existing struct literals that name it still compile.
    pub jobs: usize,
}

/// One fixpoint round's schedule record: the delta batch size and the
/// pop/drain activity it generated. [`replay_schedule`] emits it as the
/// deterministic `cg_round` event, for a fresh fixpoint and a snapshot
/// warm start alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CgRound {
    /// Functions in the round's delta batch.
    pub delta_fns: u64,
    /// Worklist pops during the round.
    pub pops: u64,
    /// Ready-row drains during the round.
    pub drains: u64,
}

/// The complete, deterministic schedule of one converged fixpoint run:
/// everything [`CallGraph::build_from_summary_schedule`] feeds into
/// telemetry beyond the graph itself. Persisting this next to the graph
/// is what makes a snapshot warm start *observationally* identical to a
/// cold run — same `cg_round`/`cg_fixpoint` events, same counters, same
/// metrics — without touching the worklist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CgSchedule {
    /// Per-round records, in round order.
    pub rounds: Vec<CgRound>,
    /// Total worklist pops.
    pub pops: u64,
    /// Total ready-row drains.
    pub drains: u64,
    /// Total dispatch candidates parked.
    pub parked: u64,
    /// Distribution of unrefined virtual-site candidate-set sizes.
    pub dispatch_candidates: Histogram,
    /// Summary replays (globals + one per first processing).
    pub replays: u64,
    /// Interner size of the linked program at build time.
    pub interned_symbols: u64,
    /// Interner arena bytes at build time.
    pub arena_bytes: u64,
}

/// The dense storage of a [`CallGraph`], exposed for snapshot
/// serialization. Produced by [`CallGraph::to_parts`], consumed by
/// [`CallGraph::from_parts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraphParts {
    /// The algorithm that produced the graph.
    pub algorithm: Algorithm,
    /// Reachable functions, ascending.
    pub reachable: Vec<FuncId>,
    /// Instantiated classes, ascending.
    pub instantiated: Vec<ClassId>,
    /// Address-taken functions, ascending.
    pub address_taken: Vec<FuncId>,
    /// CSR row starts (one per function the graph was built over, +1).
    pub edge_offsets: Vec<u32>,
    /// CSR edge targets.
    pub edge_targets: Vec<FuncId>,
}

/// The computed call graph, frozen into dense index-keyed storage:
/// sorted id vectors for the reachable/instantiated/address-taken sets
/// (with bitsets retained for O(1) membership) and a CSR adjacency for
/// the edges. All iteration orders match the historical tree-based
/// representation (ascending ids), so downstream reports and
/// `--explain` witness paths are byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraph {
    algorithm: Algorithm,
    reachable: Vec<FuncId>,
    reachable_set: FuncBitSet,
    instantiated: Vec<ClassId>,
    instantiated_set: ClassBitSet,
    /// CSR row starts: `edge_targets[edge_offsets[f] .. edge_offsets[f+1]]`
    /// are the callees of function `f`, sorted ascending.
    edge_offsets: Vec<u32>,
    edge_targets: Vec<FuncId>,
    address_taken: Vec<FuncId>,
}

impl CallGraph {
    /// Builds the call graph of `program` under `options` from its
    /// walk-once function summaries, and returns it with the converged
    /// [`CgSchedule`] so the caller can persist it.
    ///
    /// Each reachable function's [`CgStep`]s are replayed exactly once;
    /// an already-replayed virtual call or `delete` site widens through
    /// the class-indexed pending-dispatch worklist when one of its
    /// candidate receiver classes becomes instantiated. For PTA graphs
    /// the summaries must have been built with receiver refinement
    /// enabled (`ProgramSummary::build(program, true, 1)`).
    ///
    /// With an enabled `telemetry`, each delta batch is spanned; once the
    /// graph is frozen, [`replay_schedule`] emits the schedule — per-round
    /// delta sizes in the `callgraph/round_delta_fns` histogram (its
    /// count is the round count), worklist pops/drains in the
    /// deterministic counters, the `cg_round` and `cg_fixpoint` events.
    /// The schedule is captured either way.
    ///
    /// # Errors
    ///
    /// Surfaces the [`TypeError`]s recorded in the summaries of reachable
    /// functions, in the order the fixpoint reaches them.
    ///
    /// # Examples
    ///
    /// ```
    /// use ddm_callgraph::{CallGraph, CallGraphOptions};
    /// use ddm_hierarchy::{Program, ProgramSummary};
    /// use ddm_telemetry::Telemetry;
    ///
    /// let tu = ddm_cppfront::parse(
    ///     "int helper() { return 1; }\n\
    ///      int unused() { return 2; }\n\
    ///      int main() { return helper(); }",
    /// ).unwrap();
    /// let program = Program::build(&tu).unwrap();
    /// let summary = ProgramSummary::build(&program, false, 1);
    /// let (graph, _schedule) = CallGraph::build_from_summary_schedule(
    ///     &program,
    ///     &summary,
    ///     &CallGraphOptions::default(),
    ///     &Telemetry::disabled(),
    /// )
    /// .unwrap();
    /// assert!(graph.is_reachable(program.free_function("helper").unwrap()));
    /// assert!(!graph.is_reachable(program.free_function("unused").unwrap()));
    /// ```
    pub fn build_from_summary_schedule(
        program: &Program,
        summary: &ProgramSummary,
        options: &CallGraphOptions,
        telemetry: &Telemetry,
    ) -> Result<(CallGraph, CgSchedule), TypeError> {
        if options.algorithm == Algorithm::Everything {
            return Ok((Self::build_everything(program), CgSchedule::default()));
        }
        let roots = propagation_roots(program, options);
        let mut state = PropState::new(program, options.algorithm == Algorithm::Cha, roots);

        // Global initializers replay once, before the rounds — their
        // dispatch decisions are frozen at this point, so they never
        // register pending candidates.
        let mut replays: u64 = 1;
        replay_summary(&mut state, None, summary.globals()?, false);

        run_fixpoint(&mut state, telemetry, |st, fid| {
            replays += 1;
            replay_summary(st, Some(fid), summary.function(fid)?, true);
            Ok(())
        })?;

        #[cfg(debug_assertions)]
        verify_full_sweep(&mut state, |st, fid| {
            replay_summary(st, Some(fid), summary.function(fid)?, false);
            Ok(())
        })?;

        let schedule = state.schedule(replays);
        let graph = state.freeze(options.algorithm);
        replay_schedule(&graph, &schedule, telemetry);
        Ok((graph, schedule))
    }

    fn build_everything(program: &Program) -> CallGraph {
        // Maximal: every function (even body-less declarations, which the
        // propagating builders may also mark as dispatch targets).
        let reachable: Vec<FuncId> = program.functions().map(|(id, _)| id).collect();
        let mut reachable_set = FuncBitSet::with_capacity(program.function_count());
        for &f in &reachable {
            reachable_set.insert(f);
        }
        let instantiated: Vec<ClassId> = program.classes().map(|(id, _)| id).collect();
        let mut instantiated_set = ClassBitSet::with_capacity(program.class_count());
        for &c in &instantiated {
            instantiated_set.insert(c);
        }
        CallGraph {
            algorithm: Algorithm::Everything,
            reachable,
            reachable_set,
            instantiated,
            instantiated_set,
            edge_offsets: vec![0; program.function_count() + 1],
            edge_targets: Vec::new(),
            address_taken: Vec::new(),
        }
    }

    /// Decomposes the graph into its dense storage for serialization.
    pub fn to_parts(&self) -> CallGraphParts {
        CallGraphParts {
            algorithm: self.algorithm,
            reachable: self.reachable.clone(),
            instantiated: self.instantiated.clone(),
            address_taken: self.address_taken.clone(),
            edge_offsets: self.edge_offsets.clone(),
            edge_targets: self.edge_targets.clone(),
        }
    }

    /// Rebuilds a graph from [`CallGraph::to_parts`] output against a
    /// program with `function_count` functions and `class_count`
    /// classes.
    ///
    /// The program may have *more* functions than the graph was built
    /// over (an edit appended new, unreached functions whose ids sort
    /// after every stored one); the CSR is extended with empty rows so
    /// the rebuilt graph equals what a fresh build over the grown
    /// program produces. It may never have fewer.
    ///
    /// # Errors
    ///
    /// Any structural violation — unsorted or out-of-range ids,
    /// non-monotone CSR offsets, an offset table longer than the
    /// program — so a corrupt snapshot is rejected rather than
    /// propagated into the analysis.
    pub fn from_parts(
        parts: CallGraphParts,
        function_count: usize,
        class_count: usize,
    ) -> Result<CallGraph, String> {
        let CallGraphParts {
            algorithm,
            reachable,
            instantiated,
            address_taken,
            mut edge_offsets,
            edge_targets,
        } = parts;
        fn check_ids(what: &str, ids: &[usize], bound: usize) -> Result<(), String> {
            if !ids.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("{what} ids are not strictly ascending"));
            }
            if ids.last().is_some_and(|&x| x >= bound) {
                return Err(format!("{what} id out of range"));
            }
            Ok(())
        }
        check_ids(
            "reachable",
            &reachable.iter().map(|f| f.index()).collect::<Vec<_>>(),
            function_count,
        )?;
        check_ids(
            "instantiated",
            &instantiated.iter().map(|c| c.index()).collect::<Vec<_>>(),
            class_count,
        )?;
        check_ids(
            "address_taken",
            &address_taken.iter().map(|f| f.index()).collect::<Vec<_>>(),
            function_count,
        )?;
        if edge_offsets.is_empty()
            || edge_offsets[0] != 0
            || edge_offsets.len() > function_count + 1
        {
            return Err("CSR offset table malformed".to_string());
        }
        if !edge_offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err("CSR offsets are not monotone".to_string());
        }
        let last = *edge_offsets.last().expect("non-empty");
        if last as usize != edge_targets.len() {
            return Err("CSR offsets disagree with edge targets".to_string());
        }
        if edge_targets
            .iter()
            .any(|t| t.index() >= function_count)
        {
            return Err("CSR edge target out of range".to_string());
        }
        // Appended functions have no edges: pad with empty rows.
        edge_offsets.resize(function_count + 1, last);
        let mut reachable_set = FuncBitSet::with_capacity(function_count);
        for &f in &reachable {
            reachable_set.insert(f);
        }
        let mut instantiated_set = ClassBitSet::with_capacity(class_count);
        for &c in &instantiated {
            instantiated_set.insert(c);
        }
        Ok(CallGraph {
            algorithm,
            reachable,
            reachable_set,
            instantiated,
            instantiated_set,
            edge_offsets,
            edge_targets,
            address_taken,
        })
    }

    /// The algorithm that produced this graph.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Whether `func` is reachable from the roots.
    pub fn is_reachable(&self, func: FuncId) -> bool {
        self.reachable_set.contains(func)
    }

    /// The reachable functions, in id order.
    pub fn reachable(&self) -> impl ExactSizeIterator<Item = FuncId> + '_ {
        self.reachable.iter().copied()
    }

    /// Number of reachable functions.
    pub fn reachable_count(&self) -> usize {
        self.reachable.len()
    }

    /// Classes considered instantiated (for `Everything` and `Cha`, all of
    /// them; for `Rta`, the fixpoint set).
    pub fn instantiated(&self) -> impl ExactSizeIterator<Item = ClassId> + '_ {
        self.instantiated.iter().copied()
    }

    /// Whether `class` is in the instantiated set.
    pub fn is_instantiated(&self, class: ClassId) -> bool {
        self.instantiated_set.contains(class)
    }

    /// Resolved direct call edges from `func`, in ascending id order.
    /// Virtual call sites contribute one edge per possible target.
    pub fn callees(&self, func: FuncId) -> impl Iterator<Item = FuncId> + '_ {
        let row = func.index();
        let targets: &[FuncId] = if row + 1 < self.edge_offsets.len() {
            let lo = self.edge_offsets[row] as usize;
            let hi = self.edge_offsets[row + 1] as usize;
            &self.edge_targets[lo..hi]
        } else {
            &[]
        };
        targets.iter().copied()
    }

    /// Total number of call edges.
    pub fn edge_count(&self) -> usize {
        self.edge_targets.len()
    }

    /// Functions whose address is taken in reachable code.
    pub fn address_taken(&self) -> impl Iterator<Item = FuncId> + '_ {
        self.address_taken.iter().copied()
    }
}

/// The propagating builder's fixpoint state, kept dense: bitset
/// membership keyed by the program's `FuncId`/`ClassId` indices, sorted
/// per-function edge rows (frozen into CSR at the end), and the delta
/// worklist — `next` (functions to process in the following round),
/// `heap` (this round's remaining slots, popped in ascending id order),
/// `pending_dispatch` (class-indexed parked dispatch candidates), and
/// `ready` (widened edges waiting for their owner's drain slot).
struct PropState<'p> {
    program: &'p Program,
    cha: bool,
    reachable: FuncBitSet,
    instantiated: ClassBitSet,
    /// Per-caller sorted callee rows (binary-search insert keeps them
    /// deduplicated and ascending, matching the old `BTreeSet` order).
    edges: Vec<Vec<FuncId>>,
    edge_total: usize,
    address_taken: FuncBitSet,
    /// Function-pointer resolution deltas: the conservative rule is the
    /// full product `callers × address-taken targets`, maintained
    /// incrementally as `new × (all ∪ new)  ∪  old × new` per round.
    fp_caller_set: FuncBitSet,
    fp_callers_all: Vec<FuncId>,
    fp_callers_new: Vec<FuncId>,
    fp_targets_all: Vec<FuncId>,
    fp_targets_new: Vec<FuncId>,
    /// Receiver class → (owner function, dispatch target) pairs waiting
    /// for that class to be instantiated.
    pending_dispatch: Vec<Vec<(FuncId, FuncId)>>,
    /// Owner function → widened edges to add at its next worklist slot.
    ready: Vec<Vec<FuncId>>,
    /// This round's remaining slots, popped in ascending id order.
    heap: BinaryHeap<Reverse<FuncId>>,
    in_current: FuncBitSet,
    /// Next round's delta batch, in discovery order (the heap re-sorts).
    next: Vec<FuncId>,
    in_next: FuncBitSet,
    /// Functions whose first processing (walk/replay) already happened;
    /// a later pop of such a function is a readied-site drain slot.
    processed: FuncBitSet,
    /// Id of the slot currently being processed. A pending-dispatch
    /// release schedules its owner into the current round exactly when
    /// the owner's slot is still ahead of the cursor — the same moment a
    /// full-sweep re-walk of the owner would have seen the instantiation.
    cursor: FuncId,
    /// Recycled buffers for [`PropState::drain_ready`] and
    /// [`PropState::release_pending`]: a `mem::take` of a row would
    /// discard its capacity every drain, so hot owners (re-drained once
    /// per widening round) would reallocate per pop. Swapping through a
    /// scratch keeps one warm allocation circulating instead.
    drain_scratch: Vec<FuncId>,
    release_scratch: Vec<(FuncId, FuncId)>,
    pops: u64,
    drains: u64,
    parked: u64,
    /// Per-round `(delta_fns, pops, drains)` schedule log, recorded by
    /// [`run_fixpoint`] for [`PropState::schedule`].
    rounds_log: Vec<CgRound>,
    /// Distribution of unrefined virtual-site candidate-set sizes. A
    /// fixed inline array (no allocation, no branch on telemetry state):
    /// recording is one array increment, and the buckets only reach the
    /// metrics registry through [`replay_schedule`].
    dispatch_candidates: Histogram,
}

impl<'p> PropState<'p> {
    fn new(program: &'p Program, cha: bool, roots: BTreeSet<FuncId>) -> PropState<'p> {
        let n = program.function_count();
        let k = program.class_count();
        let mut st = PropState {
            program,
            cha,
            reachable: FuncBitSet::with_capacity(n),
            instantiated: ClassBitSet::with_capacity(k),
            edges: vec![Vec::new(); n],
            edge_total: 0,
            address_taken: FuncBitSet::with_capacity(n),
            fp_caller_set: FuncBitSet::with_capacity(n),
            fp_callers_all: Vec::new(),
            fp_callers_new: Vec::new(),
            fp_targets_all: Vec::new(),
            fp_targets_new: Vec::new(),
            pending_dispatch: vec![Vec::new(); k],
            ready: vec![Vec::new(); n],
            heap: BinaryHeap::new(),
            in_current: FuncBitSet::with_capacity(n),
            next: Vec::new(),
            in_next: FuncBitSet::with_capacity(n),
            processed: FuncBitSet::with_capacity(n),
            cursor: FuncId::from_index(0),
            drain_scratch: Vec::new(),
            release_scratch: Vec::new(),
            pops: 0,
            drains: 0,
            parked: 0,
            rounds_log: Vec::new(),
            dispatch_candidates: Histogram::default(),
        };
        for f in roots {
            st.mark_reachable(f);
        }
        st
    }

    fn mark_reachable(&mut self, func: FuncId) {
        if self.reachable.insert(func) {
            // Newly reachable functions always wait for the next round:
            // the full-sweep engines worked from a snapshot of the
            // reachable set taken at round start.
            self.schedule_next(func);
        }
    }

    fn schedule_next(&mut self, func: FuncId) {
        if self.in_next.insert(func) {
            self.next.push(func);
        }
    }

    fn schedule_current(&mut self, func: FuncId) {
        if self.in_current.insert(func) {
            self.heap.push(Reverse(func));
        }
    }

    fn add_edge(&mut self, caller: Option<FuncId>, callee: FuncId) {
        if let Some(c) = caller {
            let row = &mut self.edges[c.index()];
            if let Err(pos) = row.binary_search(&callee) {
                row.insert(pos, callee);
                self.edge_total += 1;
            }
        }
        self.mark_reachable(callee);
    }

    /// A virtual call site with a §3.1 points-to-refined target set:
    /// dispatch is frozen to `targets` (never widened, never parked).
    fn op_virtual_refined(&mut self, caller: Option<FuncId>, decl: FuncId, targets: &[FuncId]) {
        if targets.is_empty() {
            // A null-only or unresolvable pointer: keep the static
            // declaration.
            self.add_edge(caller, decl);
        }
        for &t in targets {
            self.add_edge(caller, t);
        }
    }

    /// An unrefined virtual call site: filter the pre-resolved
    /// `(receiver class, override)` candidates by the instantiated set;
    /// when `register`ing (a function's first processing), park the rest
    /// in the pending-dispatch worklist so a later instantiation widens
    /// this site without revisiting the body.
    fn op_virtual_site(
        &mut self,
        caller: Option<FuncId>,
        decl: FuncId,
        candidates: &[(ClassId, FuncId)],
        register: bool,
    ) {
        self.dispatch_candidates.record(candidates.len() as u64);
        let mut any = false;
        for &(c, f) in candidates {
            if self.cha || self.instantiated.contains(c) {
                self.add_edge(caller, f);
                any = true;
            } else if register {
                if let Some(owner) = caller {
                    self.pending_dispatch[c.index()].push((owner, f));
                    self.parked += 1;
                }
            }
        }
        if !any {
            // No receiver established yet (schedule-sensitive!): keep the
            // static declaration so a later widening stays additive.
            self.add_edge(caller, decl);
        }
    }

    /// A `delete` of a pointer to `class`: through a virtual destructor
    /// the candidate subclass destructors dispatch like a virtual call
    /// (parked when uninstantiated), the static destructor and every
    /// ancestor destructor run unconditionally.
    fn op_delete(
        &mut self,
        caller: Option<FuncId>,
        dtor: Option<FuncId>,
        virtual_dtor: bool,
        candidates: &[(ClassId, FuncId)],
        ancestor_dtors: &[FuncId],
        register: bool,
    ) {
        if let Some(d) = dtor {
            if virtual_dtor {
                for &(c, f) in candidates {
                    if self.cha || self.instantiated.contains(c) {
                        self.add_edge(caller, f);
                    } else if register {
                        if let Some(owner) = caller {
                            self.pending_dispatch[c.index()].push((owner, f));
                            self.parked += 1;
                        }
                    }
                }
            }
            self.add_edge(caller, d);
        }
        // Destructors of base subobjects run too.
        for &d in ancestor_dtors {
            self.add_edge(caller, d);
        }
    }

    fn op_fn_pointer_call(&mut self, caller: Option<FuncId>) {
        if let Some(c) = caller {
            if self.fp_caller_set.insert(c) {
                self.fp_callers_new.push(c);
            }
        }
    }

    fn op_take_address(&mut self, func: FuncId) {
        // "If the address of a function f is taken in reachable code, we
        // assume f to be reachable."
        if self.address_taken.insert(func) {
            self.fp_targets_new.push(func);
        }
        self.mark_reachable(func);
    }

    /// Marks `class` (and everything it constructs implicitly: bases and
    /// by-value member classes) as instantiated, making their default
    /// constructors and destructors reachable, and releasing any dispatch
    /// candidates parked on the newly instantiated classes.
    fn op_instantiate(&mut self, caller: Option<FuncId>, class: ClassId, ctor: Option<FuncId>) {
        if let Some(c) = ctor {
            self.add_edge(caller, c);
        }
        let mut stack = vec![class];
        while let Some(c) = stack.pop() {
            if !self.instantiated.insert(c) {
                continue;
            }
            self.release_pending(c);
            // The destructor of anything instantiated may run.
            if let Some(d) = self.program.destructor(c) {
                self.mark_reachable(d);
            }
            let info = self.program.class(c);
            for b in &info.bases {
                if let Some(dc) = resolve_ctor(self.program, b.id, 0) {
                    self.mark_reachable(dc);
                }
                stack.push(b.id);
            }
            for m in &info.members {
                if let Some(name) = ddm_hierarchy::by_value_class(&m.ty) {
                    if let Some(id) = self.program.class_by_name(name) {
                        if let Some(dc) = resolve_ctor(self.program, id, 0) {
                            self.mark_reachable(dc);
                        }
                        stack.push(id);
                    }
                }
            }
        }
    }

    /// Releases the dispatch candidates parked on `class` into their
    /// owners' ready rows and schedules the owners' drain slots. An owner
    /// whose id is still ahead of the cursor drains this round (its
    /// full-sweep re-walk would have run later this round and seen the
    /// instantiation); an owner at or behind the cursor drains next round
    /// (its re-walk this round had already passed).
    fn release_pending(&mut self, class: ClassId) {
        // Swap the parked row out through the scratch buffer (and the
        // empty scratch in), so the row keeps a warm allocation for any
        // later parks on the same class.
        let mut waiters = std::mem::take(&mut self.release_scratch);
        std::mem::swap(&mut waiters, &mut self.pending_dispatch[class.index()]);
        for &(owner, target) in &waiters {
            self.ready[owner.index()].push(target);
            if owner > self.cursor {
                self.schedule_current(owner);
            } else {
                self.schedule_next(owner);
            }
        }
        waiters.clear();
        self.release_scratch = waiters;
    }

    /// Adds this round's new function-pointer edges: the conservative
    /// full product, restricted to pairs involving a caller or target
    /// first seen this round. Address-taken targets are already reachable
    /// when recorded, so these edges never create fresh reachability and
    /// the delta product is order-insensitive.
    fn resolve_fp_delta(&mut self) {
        if self.fp_callers_new.is_empty() && self.fp_targets_new.is_empty() {
            return;
        }
        let new_callers = std::mem::take(&mut self.fp_callers_new);
        let new_targets = std::mem::take(&mut self.fp_targets_new);
        for &c in &new_callers {
            for i in 0..self.fp_targets_all.len() {
                let t = self.fp_targets_all[i];
                self.add_edge(Some(c), t);
            }
            for &t in &new_targets {
                self.add_edge(Some(c), t);
            }
        }
        for i in 0..self.fp_callers_all.len() {
            let c = self.fp_callers_all[i];
            for &t in &new_targets {
                self.add_edge(Some(c), t);
            }
        }
        self.fp_callers_all.extend_from_slice(&new_callers);
        self.fp_targets_all.extend_from_slice(&new_targets);
    }

    /// Drains the widened edges readied for `owner` since its last slot.
    fn drain_ready(&mut self, owner: FuncId) {
        let mut widened = std::mem::take(&mut self.drain_scratch);
        std::mem::swap(&mut widened, &mut self.ready[owner.index()]);
        self.drains += widened.len() as u64;
        for &t in &widened {
            self.add_edge(Some(owner), t);
        }
        widened.clear();
        self.drain_scratch = widened;
    }

    /// Captures the converged run's schedule for persistence.
    fn schedule(&self, replays: u64) -> CgSchedule {
        CgSchedule {
            rounds: self.rounds_log.clone(),
            pops: self.pops,
            drains: self.drains,
            parked: self.parked,
            dispatch_candidates: self.dispatch_candidates.clone(),
            replays,
            interned_symbols: self.program.interner().len() as u64,
            arena_bytes: self.program.interner().arena_bytes() as u64,
        }
    }

    /// Freezes the grow-phase state into the dense public representation:
    /// sorted id vectors plus the CSR adjacency (the per-caller rows are
    /// already sorted and deduplicated; freezing just concatenates them).
    fn freeze(self, algorithm: Algorithm) -> CallGraph {
        let reachable = self.reachable.to_vec();
        let instantiated = self.instantiated.to_vec();
        let address_taken = self.address_taken.to_vec();
        let mut edge_offsets = Vec::with_capacity(self.edges.len() + 1);
        let mut edge_targets = Vec::with_capacity(self.edge_total);
        edge_offsets.push(0u32);
        for row in &self.edges {
            edge_targets.extend_from_slice(row);
            edge_offsets.push(edge_targets.len() as u32);
        }
        CallGraph {
            algorithm,
            reachable,
            reachable_set: self.reachable,
            instantiated,
            instantiated_set: self.instantiated,
            edge_offsets,
            edge_targets,
            address_taken,
        }
    }
}

/// Runs the delta worklist to its fixpoint: each round moves the pending
/// `next` batch into the id-ordered heap and pops slots until the round
/// is empty — a first pop of a function runs `process` (its summary
/// replay), a repeat pop drains the function's readied widenings — then
/// resolves the round's function-pointer delta. Terminates when no next
/// batch exists: the worklist-empty condition (every reachable function
/// processed, every readied site drained) replaces the old
/// recount-everything convergence triple, which `verify_full_sweep`
/// re-checks under `cfg(debug_assertions)`.
fn run_fixpoint<'p>(
    state: &mut PropState<'p>,
    telemetry: &Telemetry,
    mut process: impl FnMut(&mut PropState<'p>, FuncId) -> Result<(), TypeError>,
) -> Result<(), TypeError> {
    while !state.next.is_empty() {
        let batch = std::mem::take(&mut state.next);
        let round = state.rounds_log.len();
        let round_span = telemetry.span(LANE_MAIN, || {
            format!("callgraph replay delta {round} ({} fns)", batch.len())
        });
        let (pops_before, drains_before) = (state.pops, state.drains);
        let delta_fns = batch.len() as u64;
        for f in batch {
            state.in_next.remove(f);
            state.schedule_current(f);
        }
        while let Some(Reverse(f)) = state.heap.pop() {
            state.in_current.remove(f);
            state.cursor = f;
            state.pops += 1;
            if state.processed.insert(f) {
                process(state, f)?;
            } else {
                state.drain_ready(f);
            }
        }
        state.resolve_fp_delta();
        state.rounds_log.push(CgRound {
            delta_fns,
            pops: state.pops - pops_before,
            drains: state.drains - drains_before,
        });
        drop(round_span);
    }
    debug_assert!(
        state.ready.iter().all(Vec::is_empty),
        "every readied widening is drained before the fixpoint settles"
    );
    Ok(())
}

/// Debug-build cross-check of the worklist-empty convergence condition
/// against the historical criterion: one more full sweep over the entire
/// reachable set (processing with `register = false`) plus a full
/// function-pointer product must leave the old convergence triple —
/// (reachable count, instantiated count, edge total) — unchanged.
#[cfg(debug_assertions)]
fn verify_full_sweep<'p>(
    state: &mut PropState<'p>,
    mut process: impl FnMut(&mut PropState<'p>, FuncId) -> Result<(), TypeError>,
) -> Result<(), TypeError> {
    let before = (
        state.reachable.count(),
        state.instantiated.count(),
        state.edge_total,
    );
    for fid in state.reachable.to_vec() {
        process(state, fid)?;
    }
    let callers = state.fp_callers_all.clone();
    let targets = state.fp_targets_all.clone();
    for &c in &callers {
        for &t in &targets {
            state.add_edge(Some(c), t);
        }
    }
    let after = (
        state.reachable.count(),
        state.instantiated.count(),
        state.edge_total,
    );
    assert_eq!(
        before, after,
        "worklist-empty fixpoint disagrees with the full-sweep convergence triple"
    );
    assert!(
        state.next.is_empty(),
        "a confirming full sweep scheduled new work after the worklist drained"
    );
    Ok(())
}

/// Replays one summary's call-graph steps in body order against the
/// propagation ops.
fn replay_summary(st: &mut PropState<'_>, caller: Option<FuncId>, summary: &FnSummary, register: bool) {
    for step in &summary.cg_steps {
        match step {
            CgStep::Call(f) => st.add_edge(caller, *f),
            CgStep::VirtualCall(site) => match &site.refined {
                Some(fs) => st.op_virtual_refined(caller, site.decl, fs),
                None => st.op_virtual_site(caller, site.decl, &site.candidates, register),
            },
            CgStep::FnPointerCall => st.op_fn_pointer_call(caller),
            CgStep::TakeAddress(f) => st.op_take_address(*f),
            CgStep::Instantiate { class, ctor } => st.op_instantiate(caller, *class, *ctor),
            CgStep::Delete(site) => st.op_delete(
                caller,
                site.dtor,
                site.virtual_dtor,
                &site.candidates,
                &site.ancestor_dtors,
                register,
            ),
        }
    }
}

/// Emits a converged run's telemetry — the deterministic `cg_round` /
/// `cg_fixpoint` events, the counters, and the metrics — from `graph`
/// and its `schedule`. It is the one emitter:
/// [`CallGraph::build_from_summary_schedule`] calls it once the fixpoint
/// converges, and a snapshot warm start that reuses a stored graph calls
/// it instead of re-running the fixpoint, so the deterministic event
/// stream is byte-identical either way.
pub fn replay_schedule(graph: &CallGraph, schedule: &CgSchedule, telemetry: &Telemetry) {
    // Every field below is schedule-equivalent across job counts and
    // cache states (the invariant the deterministic counters are under),
    // so the round and fixpoint events are det class.
    for (round, r) in schedule.rounds.iter().enumerate() {
        telemetry.metrics(|m| m.hist_record("callgraph/round_delta_fns", r.delta_fns));
        telemetry.event(EventClass::Deterministic, "cg_round", || {
            vec![
                ("round", (round as u64).into()),
                ("delta_fns", r.delta_fns.into()),
                ("pops", r.pops.into()),
                ("drains", r.drains.into()),
            ]
        });
    }
    telemetry.add_counters(&Counters {
        cg_worklist_pops: schedule.pops,
        cg_ready_drains: schedule.drains,
        ..Counters::default()
    });
    telemetry.event(EventClass::Deterministic, "cg_fixpoint", || {
        vec![
            ("rounds", (schedule.rounds.len() as u64).into()),
            ("pops", schedule.pops.into()),
            ("drains", schedule.drains.into()),
            ("parked", schedule.parked.into()),
            ("reachable", graph.reachable_count().into()),
            ("instantiated", graph.instantiated.len().into()),
            ("edges", graph.edge_count().into()),
        ]
    });
    telemetry.metrics(|m| {
        m.hist_merge("callgraph/dispatch_candidates", &schedule.dispatch_candidates);
        m.counter_add("callgraph/worklist_pushes", schedule.parked);
        m.gauge_set(
            "callgraph/interned_symbols",
            schedule.interned_symbols as i64,
        );
        m.gauge_set("callgraph/arena_bytes", schedule.arena_bytes as i64);
        m.counter_add("summary/replays", schedule.replays);
    });
}

/// The roots of the propagating builders: `main`, plus application
/// overrides (with bodies) of virtual methods declared in library
/// classes, which library code may call back into (§3.3): every virtual
/// method with a body of a non-library class that derives from a library
/// class.
pub fn propagation_roots(program: &Program, options: &CallGraphOptions) -> BTreeSet<FuncId> {
    let below_library = program.derived_from_any(options.library_classes.iter().copied());
    let callbacks = program.functions().filter_map(|(fid, f)| {
        let class = f.class?;
        let root = f.is_virtual
            && f.body.is_some()
            && below_library.contains(class)
            && !options.library_classes.contains(&class);
        root.then_some(fid)
    });
    program.main_function().into_iter().chain(callbacks).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddm_cppfront::parse;

    fn graph(src: &str, algorithm: Algorithm) -> (Program, CallGraph) {
        graph_with(
            src,
            CallGraphOptions {
                algorithm,
                ..Default::default()
            },
        )
    }

    fn graph_with(src: &str, options: CallGraphOptions) -> (Program, CallGraph) {
        let p = Program::build(&parse(src).expect("parse")).expect("sema");
        let summary = ProgramSummary::build(&p, options.algorithm == Algorithm::Pta, 1);
        let (g, _) =
            CallGraph::build_from_summary_schedule(&p, &summary, &options, &Telemetry::disabled())
                .expect("callgraph");
        (p, g)
    }

    fn method(p: &Program, class: &str, name: &str) -> FuncId {
        p.direct_method(p.class_by_name(class).unwrap(), name)
            .unwrap()
    }

    #[test]
    fn unreachable_free_function_excluded() {
        let (p, g) = graph(
            "int used() { return 1; } int dead() { return 2; } int main() { return used(); }",
            Algorithm::Rta,
        );
        assert!(g.is_reachable(p.free_function("used").unwrap()));
        assert!(!g.is_reachable(p.free_function("dead").unwrap()));
        assert!(g.is_reachable(p.main_function().unwrap()));
    }

    #[test]
    fn transitive_calls_are_reachable() {
        let (p, g) = graph(
            "int c() { return 3; } int b() { return c(); } int a() { return b(); }\n\
             int main() { return a(); }",
            Algorithm::Rta,
        );
        for name in ["a", "b", "c"] {
            assert!(g.is_reachable(p.free_function(name).unwrap()), "{name}");
        }
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn everything_marks_all_bodies() {
        let (p, g) = graph(
            "class Z { public: int z; }; int dead() { return 2; } int main() { return 0; }",
            Algorithm::Everything,
        );
        assert!(g.is_reachable(p.free_function("dead").unwrap()));
        assert_eq!(g.algorithm(), Algorithm::Everything);
        assert!(g.is_instantiated(p.class_by_name("Z").unwrap()));
    }

    const VIRT: &str = "class A { public: virtual int f() { return 0; } };\n\
         class B : public A { public: virtual int f() { return 1; } };\n\
         class C : public A { public: virtual int f() { return 2; } };\n";

    #[test]
    fn rta_prunes_uninstantiated_receivers() {
        let src = format!("{VIRT}int main() {{ B b; A* ap = &b; return ap->f(); }}");
        let (p, g) = graph(&src, Algorithm::Rta);
        assert!(g.is_reachable(method(&p, "B", "f")));
        assert!(
            !g.is_reachable(method(&p, "C", "f")),
            "C is never instantiated; RTA must prune C::f"
        );
        assert!(!g.is_instantiated(p.class_by_name("C").unwrap()));
    }

    #[test]
    fn cha_keeps_all_subclass_receivers() {
        let src = format!("{VIRT}int main() {{ B b; A* ap = &b; return ap->f(); }}");
        let (p, g) = graph(&src, Algorithm::Cha);
        assert!(g.is_reachable(method(&p, "B", "f")));
        assert!(
            g.is_reachable(method(&p, "C", "f")),
            "CHA keeps every subclass override"
        );
    }

    #[test]
    fn figure1_call_graph_matches_paper() {
        // §3.1: "the call graph consists of the methods A::f, B::f, and
        // C::f in addition to main" (all three classes are instantiated).
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
        let (p, g) = graph(src, Algorithm::Rta);
        assert!(g.is_reachable(method(&p, "A", "f")));
        assert!(g.is_reachable(method(&p, "B", "f")));
        assert!(g.is_reachable(method(&p, "C", "f")));
        assert!(g.is_reachable(p.free_function("foo").unwrap()));
        assert_eq!(g.reachable_count(), 5);
    }

    #[test]
    fn instantiation_closure_covers_bases_and_members() {
        let (p, g) = graph(
            "class Base { public: Base() { } ~Base() { } };\n\
             class Part { public: Part() { } };\n\
             class Whole : public Base { public: Part part; Whole() { } };\n\
             int main() { Whole w; return 0; }",
            Algorithm::Rta,
        );
        for name in ["Base", "Part", "Whole"] {
            assert!(g.is_instantiated(p.class_by_name(name).unwrap()), "{name}");
        }
        let base = p.class_by_name("Base").unwrap();
        assert!(g.is_reachable(p.constructors(base)[0]));
        assert!(g.is_reachable(p.destructor(base).unwrap()));
    }

    #[test]
    fn address_taken_functions_feed_indirect_calls() {
        let (p, g) = graph(
            "int f1() { return 1; } int f2() { return 2; } int f3() { return 3; }\n\
             int main() { int (*fp)() = f1; int (*fp2)() = f2; return fp(); }",
            Algorithm::Rta,
        );
        assert!(g.is_reachable(p.free_function("f1").unwrap()));
        assert!(
            g.is_reachable(p.free_function("f2").unwrap()),
            "address-taken functions are assumed reachable"
        );
        assert!(!g.is_reachable(p.free_function("f3").unwrap()));
        assert_eq!(g.address_taken().count(), 2);
    }

    #[test]
    fn library_overrides_are_roots() {
        let src = "class Widget { public: virtual void on_click(); int id; };\n\
                   class MyButton : public Widget { public: virtual void on_click() { count = count + 1; } int count; };\n\
                   int main() { MyButton b; return 0; }";
        let (p, without) = graph(src, Algorithm::Rta);
        let widget = p.class_by_name("Widget").unwrap();
        let (_, with_lib) = graph_with(
            src,
            CallGraphOptions {
                algorithm: Algorithm::Rta,
                library_classes: [widget].into_iter().collect(),
                ..Default::default()
            },
        );
        let on_click = p
            .direct_method(p.class_by_name("MyButton").unwrap(), "on_click")
            .unwrap();
        assert!(
            with_lib.is_reachable(on_click),
            "library callbacks must be call-graph roots"
        );
        assert!(!without.is_reachable(on_click));
    }

    #[test]
    fn delete_reaches_virtual_destructors() {
        let (p, g) = graph(
            "class A { public: virtual ~A() { } };\n\
             class B : public A { public: ~B() { } };\n\
             int main() { A* p = new B(); delete p; return 0; }",
            Algorithm::Rta,
        );
        let b = p.class_by_name("B").unwrap();
        assert!(g.is_reachable(p.destructor(b).unwrap()));
        let a = p.class_by_name("A").unwrap();
        assert!(g.is_reachable(p.destructor(a).unwrap()));
    }

    #[test]
    fn rta_ignores_instantiation_in_unreachable_code() {
        let (p, g) = graph(
            "class OnlyDead { public: OnlyDead() { } };\n\
             void never() { OnlyDead x; }\n\
             int main() { return 0; }",
            Algorithm::Rta,
        );
        assert!(!g.is_instantiated(p.class_by_name("OnlyDead").unwrap()));
        assert!(!g.is_reachable(p.free_function("never").unwrap()));
    }

    #[test]
    fn monotonicity_rta_subset_cha_subset_everything() {
        let src = format!(
            "{VIRT}int extra() {{ return 9; }}\n\
             int main() {{ B b; A* ap = &b; return ap->f(); }}"
        );
        let (_, rta) = graph(&src, Algorithm::Rta);
        let (_, cha) = graph(&src, Algorithm::Cha);
        let (_, all) = graph(&src, Algorithm::Everything);
        let rta_set: BTreeSet<_> = rta.reachable().collect();
        let cha_set: BTreeSet<_> = cha.reachable().collect();
        let all_set: BTreeSet<_> = all.reachable().collect();
        assert!(rta_set.is_subset(&cha_set));
        assert!(cha_set.is_subset(&all_set));
    }

    #[test]
    fn callees_lists_direct_edges() {
        let (p, g) = graph(
            "int f() { return 1; } int main() { return f() + f(); }",
            Algorithm::Rta,
        );
        let main = p.main_function().unwrap();
        let callees: Vec<_> = g.callees(main).collect();
        assert_eq!(callees, vec![p.free_function("f").unwrap()]);
    }

    #[test]
    fn csr_rows_are_sorted_and_deduplicated() {
        // main calls several functions, some repeatedly: its CSR row must
        // be strictly ascending and the edge count exact.
        let (p, g) = graph(
            "int z() { return 1; } int y() { return z(); } int x() { return y(); }\n\
             int main() { return x() + y() + z() + x(); }",
            Algorithm::Rta,
        );
        let main = p.main_function().unwrap();
        let row: Vec<FuncId> = g.callees(main).collect();
        assert_eq!(row.len(), 3, "repeat calls are deduplicated");
        assert!(row.windows(2).all(|w| w[0] < w[1]), "rows strictly ascend");
        assert_eq!(g.edge_count(), 5);
        // Unreachable functions have empty rows.
        let (p2, g2) = graph(
            "int lonely() { return 1; } int main() { return 0; }",
            Algorithm::Rta,
        );
        assert_eq!(g2.callees(p2.free_function("lonely").unwrap()).count(), 0);
    }

    #[test]
    fn parts_roundtrip_reproduces_the_graph() {
        let src = "
            class A { public: virtual int f() { return 0; } virtual ~A() { } };
            class B : public A { public: virtual int f() { return make(); } ~B() { } };
            class C : public A { public: virtual int f() { return 2; } };
            int ind() { return 7; }
            int make() { B* b = new B(); A* a = b; int r = a->f(); delete b; return r; }
            int main() { A a; int (*fp)() = ind; return a.f() + fp() + make(); }";
        for algorithm in [Algorithm::Cha, Algorithm::Rta, Algorithm::Pta] {
            let (p, g) = graph(src, algorithm);
            let back =
                CallGraph::from_parts(g.to_parts(), p.function_count(), p.class_count())
                    .expect("from_parts");
            assert_eq!(g, back, "{algorithm}");
        }
    }

    #[test]
    fn from_parts_pads_csr_for_appended_functions() {
        // The stored graph was built over a program with one fewer
        // function (ids beyond the stored count are unreached tail ids).
        let (p, g) = graph(
            "int f() { return 1; } int main() { return f(); }",
            Algorithm::Rta,
        );
        let grown = CallGraph::from_parts(g.to_parts(), p.function_count() + 1, p.class_count())
            .expect("grown");
        assert_eq!(grown.reachable_count(), g.reachable_count());
        assert_eq!(grown.edge_count(), g.edge_count());
        assert_eq!(
            grown.callees(FuncId::from_index(p.function_count())).count(),
            0,
            "appended function has no edges"
        );
        assert!(!grown.is_reachable(FuncId::from_index(p.function_count())));
    }

    #[test]
    fn from_parts_rejects_structural_corruption() {
        let (p, g) = graph(
            "int f() { return 1; } int main() { return f(); }",
            Algorithm::Rta,
        );
        let (fns, classes) = (p.function_count(), p.class_count());
        // Too-short program.
        assert!(CallGraph::from_parts(g.to_parts(), fns - 1, classes).is_err());
        // Unsorted reachable ids.
        let mut parts = g.to_parts();
        parts.reachable.reverse();
        assert!(CallGraph::from_parts(parts, fns, classes).is_err());
        // Offsets disagreeing with targets.
        let mut parts = g.to_parts();
        parts.edge_targets.pop();
        assert!(CallGraph::from_parts(parts, fns, classes).is_err());
        // Non-monotone offsets.
        let mut parts = g.to_parts();
        if parts.edge_offsets.len() > 2 {
            parts.edge_offsets[1] = u32::MAX;
            assert!(CallGraph::from_parts(parts, fns, classes).is_err());
        }
        // Out-of-range edge target.
        let mut parts = g.to_parts();
        if let Some(t) = parts.edge_targets.first_mut() {
            *t = FuncId::from_index(fns + 9);
            assert!(CallGraph::from_parts(parts, fns, classes).is_err());
        }
    }

    #[test]
    fn schedule_replay_reproduces_fresh_telemetry() {
        let src = "
            class A { public: virtual int f() { return 0; } virtual ~A() { } };
            class B : public A { public: virtual int f() { return make(); } ~B() { } };
            class C : public A { public: virtual int f() { return 2; } };
            int ind() { return 7; }
            int make() { B* b = new B(); A* a = b; int r = a->f(); delete b; return r; }
            int main() { A a; int (*fp)() = ind; return a.f() + fp() + make(); }";
        let tu = parse(src).expect("parse");
        let p = Program::build(&tu).expect("sema");
        let summary = ProgramSummary::build(&p, false, 1);
        let options = CallGraphOptions::default();

        let fresh_tel = Telemetry::enabled();
        let (g, schedule) =
            CallGraph::build_from_summary_schedule(&p, &summary, &options, &fresh_tel)
                .expect("fresh");
        assert!(!schedule.rounds.is_empty());
        assert_eq!(
            schedule.rounds.iter().map(|r| r.pops).sum::<u64>(),
            schedule.pops
        );

        let replay_tel = Telemetry::enabled();
        let reused = CallGraph::from_parts(g.to_parts(), p.function_count(), p.class_count())
            .expect("from_parts");
        replay_schedule(&reused, &schedule, &replay_tel);

        assert_eq!(fresh_tel.counters(), replay_tel.counters());
        assert_eq!(fresh_tel.metrics_snapshot(), replay_tel.metrics_snapshot());
        assert_eq!(
            fresh_tel.events_ndjson(Some(ddm_telemetry::EventClass::Deterministic)),
            replay_tel.events_ndjson(Some(ddm_telemetry::EventClass::Deterministic)),
            "deterministic event stream must be byte-identical"
        );
    }
}
