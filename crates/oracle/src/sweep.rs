//! The reference call graph: the round-structured full-set sweep.
//!
//! Each round walks the AST of *every* reachable function again, then
//! joins every function-pointer call site with every address-taken
//! function, until a `(reachable, instantiated, edges)` triple stops
//! changing. This is the algorithm the delta worklist replaced; it is
//! kept because it is correct by construction and shares no code with
//! the product's fixpoint (its ordered sets, its dispatch resolution
//! over `subclasses_of`, its convergence test). It is quadratic, so it
//! only runs on test-sized programs.

use ddm_callgraph::{Algorithm, CallGraph, CallGraphOptions, CallGraphParts};
use ddm_hierarchy::{
    by_value_class, pta, resolve_ctor, walk_function, walk_globals, CallEvent, CallTarget, ClassId,
    DeleteEvent, EventVisitor, FuncId, InstantiationEvent, MemberLookup, Program, TypeError,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Builds the call graph of `program` under `options` by full-set
/// sweeps.
///
/// The roots are `main` plus every application override, with a body,
/// of a virtual method declared in one of `options.library_classes`
/// (§3.3: library code may call back into it). `Everything` needs no
/// sweep: every function is reachable and every class instantiated.
///
/// # Errors
///
/// The first [`TypeError`] a walked body produces.
pub fn sweep(program: &Program, options: &CallGraphOptions) -> Result<CallGraph, TypeError> {
    let n = program.function_count();
    let parts = if options.algorithm == Algorithm::Everything {
        CallGraphParts {
            algorithm: Algorithm::Everything,
            reachable: program.functions().map(|(f, _)| f).collect(),
            instantiated: program.classes().map(|(c, _)| c).collect(),
            address_taken: Vec::new(),
            edge_offsets: vec![0; n + 1],
            edge_targets: Vec::new(),
        }
    } else {
        let lookup = MemberLookup::new(program);
        Sweep::run(program, &lookup, options)?.into_parts(options.algorithm, n)
    };
    Ok(CallGraph::from_parts(parts, n, program.class_count())
        .expect("the sweep emits sorted, in-range parts"))
}

struct Sweep<'p> {
    program: &'p Program,
    lookup: &'p MemberLookup<'p>,
    cha: bool,
    pta: bool,
    pointee_cache: HashMap<(FuncId, String), Option<BTreeSet<ClassId>>>,
    reachable: BTreeSet<FuncId>,
    instantiated: BTreeSet<ClassId>,
    edges: BTreeMap<FuncId, BTreeSet<FuncId>>,
    address_taken: BTreeSet<FuncId>,
    fn_pointer_callers: BTreeSet<FuncId>,
}

impl<'p> Sweep<'p> {
    fn run(
        program: &'p Program,
        lookup: &'p MemberLookup<'p>,
        options: &CallGraphOptions,
    ) -> Result<Sweep<'p>, TypeError> {
        let mut state = Sweep {
            program,
            lookup,
            cha: options.algorithm == Algorithm::Cha,
            pta: options.algorithm == Algorithm::Pta,
            pointee_cache: HashMap::new(),
            reachable: BTreeSet::new(),
            instantiated: BTreeSet::new(),
            edges: BTreeMap::new(),
            address_taken: BTreeSet::new(),
            fn_pointer_callers: BTreeSet::new(),
        };
        state.reachable.extend(program.main_function());
        let library = &options.library_classes;
        for (fid, f) in program.functions() {
            let Some(class) = f.class else { continue };
            if f.is_virtual
                && f.body.is_some()
                && !library.contains(&class)
                && program
                    .ancestors_of(class)
                    .iter()
                    .any(|a| library.contains(a))
            {
                state.reachable.insert(fid);
            }
        }
        // Global initializers run once, before `main`.
        walk_globals(
            program,
            lookup,
            &mut Visitor {
                caller: None,
                state: &mut state,
            },
        )?;
        loop {
            let before = state.size();
            let work: Vec<FuncId> = state.reachable.iter().copied().collect();
            for fid in work {
                walk_function(
                    program,
                    lookup,
                    fid,
                    &mut Visitor {
                        caller: Some(fid),
                        state: &mut state,
                    },
                )?;
            }
            let callers: Vec<FuncId> = state.fn_pointer_callers.iter().copied().collect();
            let targets: Vec<FuncId> = state.address_taken.iter().copied().collect();
            for caller in callers {
                for &t in &targets {
                    state.add_edge(Some(caller), t);
                }
            }
            if state.size() == before {
                return Ok(state);
            }
        }
    }

    /// The convergence triple.
    fn size(&self) -> (usize, usize, usize) {
        let edges = self.edges.values().map(BTreeSet::len).sum();
        (self.reachable.len(), self.instantiated.len(), edges)
    }

    fn into_parts(self, algorithm: Algorithm, function_count: usize) -> CallGraphParts {
        let mut edge_offsets = Vec::with_capacity(function_count + 1);
        let mut edge_targets = Vec::new();
        edge_offsets.push(0);
        for i in 0..function_count {
            if let Some(row) = self.edges.get(&FuncId::from_index(i)) {
                edge_targets.extend(row.iter().copied());
            }
            edge_offsets.push(edge_targets.len() as u32);
        }
        CallGraphParts {
            algorithm,
            reachable: self.reachable.into_iter().collect(),
            instantiated: self.instantiated.into_iter().collect(),
            address_taken: self.address_taken.into_iter().collect(),
            edge_offsets,
            edge_targets,
        }
    }

    fn add_edge(&mut self, caller: Option<FuncId>, callee: FuncId) {
        if let Some(c) = caller {
            self.edges.entry(c).or_default().insert(callee);
        }
        self.reachable.insert(callee);
    }

    /// Instantiating a class constructs its bases and by-value member
    /// classes too: all of them count as instantiated, their default
    /// constructors run and their destructors may run.
    fn instantiate(&mut self, caller: Option<FuncId>, class: ClassId, ctor: Option<FuncId>) {
        if let Some(c) = ctor {
            self.add_edge(caller, c);
        }
        let mut stack = vec![class];
        while let Some(c) = stack.pop() {
            if !self.instantiated.insert(c) {
                continue;
            }
            self.reachable.extend(self.program.destructor(c));
            let info = self.program.class(c);
            let contained = info.bases.iter().map(|b| b.id).chain(
                info.members
                    .iter()
                    .filter_map(|m| by_value_class(&m.ty))
                    .filter_map(|name| self.program.class_by_name(name)),
            );
            for id in contained.collect::<Vec<_>>() {
                self.reachable.extend(resolve_ctor(self.program, id, 0));
                stack.push(id);
            }
        }
    }

    /// The receiver classes a virtual call through `receiver` may reach.
    fn receivers(&self, receiver: ClassId) -> Vec<ClassId> {
        self.program
            .subclasses_of(receiver)
            .into_iter()
            .filter(|c| self.cha || self.instantiated.contains(c))
            .collect()
    }

    fn resolve(&self, classes: impl IntoIterator<Item = ClassId>, name: &str) -> BTreeSet<FuncId> {
        classes
            .into_iter()
            .filter_map(|c| self.lookup.resolve_virtual(c, name))
            .collect()
    }

    /// The §3.1 points-to set of `var` in `func`, memoized.
    fn pointees_of(&mut self, func: FuncId, var: &str) -> Option<BTreeSet<ClassId>> {
        let key = (func, var.to_string());
        if let Some(cached) = self.pointee_cache.get(&key) {
            return cached.clone();
        }
        let result = pta::local_pointees(self.program, func, var);
        self.pointee_cache.insert(key, result.clone());
        result
    }
}

struct Visitor<'a, 'p> {
    caller: Option<FuncId>,
    state: &'a mut Sweep<'p>,
}

impl EventVisitor for Visitor<'_, '_> {
    fn call(&mut self, ev: &CallEvent) {
        match &ev.target {
            CallTarget::Free(f) => self.state.add_edge(self.caller, *f),
            CallTarget::Builtin(_) => {}
            CallTarget::Method {
                func,
                receiver_class,
                is_virtual_dispatch: true,
                receiver_var,
            } => {
                let name = self.state.program.function(*func).name.clone();
                let refined = match (self.state.pta, receiver_var, self.caller) {
                    (true, Some(var), Some(caller)) => self.state.pointees_of(caller, var),
                    _ => None,
                };
                let targets = match refined {
                    Some(classes) => self.state.resolve(classes, &name),
                    None => self
                        .state
                        .resolve(self.state.receivers(*receiver_class), &name),
                };
                // No receiver yet: keep the static declaration.
                if targets.is_empty() {
                    self.state.add_edge(self.caller, *func);
                }
                for t in targets {
                    self.state.add_edge(self.caller, t);
                }
            }
            CallTarget::Method { func, .. } => self.state.add_edge(self.caller, *func),
            CallTarget::FunctionPointer => {
                self.state.fn_pointer_callers.extend(self.caller);
            }
        }
    }

    fn address_of_function(&mut self, func: FuncId, _span: ddm_cppfront::Span) {
        // "If the address of a function f is taken in reachable code, we
        // assume f to be reachable."
        self.state.address_taken.insert(func);
        self.state.reachable.insert(func);
    }

    fn instantiation(&mut self, ev: &InstantiationEvent) {
        self.state.instantiate(self.caller, ev.class, ev.ctor);
    }

    fn delete_of(&mut self, ev: &DeleteEvent) {
        let Some(class) = ev.pointee_class else {
            return;
        };
        let program = self.state.program;
        if let Some(dtor) = program.destructor(class) {
            if program.function(dtor).is_virtual {
                for c in self.state.receivers(class) {
                    if let Some(d) = program.destructor(c) {
                        self.state.add_edge(self.caller, d);
                    }
                }
            }
            self.state.add_edge(self.caller, dtor);
        }
        // Destructors of base subobjects run too.
        for a in program.ancestors_of(class) {
            if let Some(d) = program.destructor(a) {
                self.state.add_edge(self.caller, d);
            }
        }
    }
}
