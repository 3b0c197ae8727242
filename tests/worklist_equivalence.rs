//! Differential harness for the delta-driven call-graph fixpoint.
//!
//! The worklist engines replaced a round-structured *full-set sweep*
//! that re-walked (or re-replayed) every reachable function each round
//! until a `(reachable, instantiated, edges)` convergence triple went
//! quiet. This harness keeps that pre-change algorithm alive as a
//! test-local oracle — a direct reimplementation of the retired
//! `Builder` over the same public walker events — and checks that the
//! delta fixpoint reproduces it bit for bit: the reachable set, the
//! instantiated set, every edge list, the address-taken set, and every
//! downstream byte (reports, `--explain` transcripts) across both
//! engines.
//!
//! The oracle is intentionally the *naive* algorithm: correctness by
//! construction, quadratic be damned. DESIGN.md §5d argues the schedule
//! equivalence; this file enforces it.

use dead_data_members::analysis::Engine;
use dead_data_members::benchmarks::generator::{
    generate, generate_scale, GeneratorConfig, ScaleConfig,
};
use dead_data_members::hierarchy::{
    pta, resolve_ctor, walk_function, walk_globals, by_value_class, CallEvent, CallTarget, ClassId,
    DeleteEvent, EventVisitor, FuncId, InstantiationEvent, MemberLookup, Program,
};
use dead_data_members::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// The pre-change engine, verbatim in structure: full-set rounds, triple
// convergence, BTreeSet state.
// ---------------------------------------------------------------------------

struct Oracle<'p> {
    program: &'p Program,
    lookup: &'p MemberLookup<'p>,
    cha: bool,
    pta: bool,
    pointee_cache: HashMap<(FuncId, String), Option<BTreeSet<ClassId>>>,
    reachable: BTreeSet<FuncId>,
    instantiated: BTreeSet<ClassId>,
    edges: BTreeMap<FuncId, BTreeSet<FuncId>>,
    address_taken: BTreeSet<FuncId>,
    pending_fp_calls: BTreeSet<FuncId>,
}

impl<'p> Oracle<'p> {
    fn run(
        program: &'p Program,
        lookup: &'p MemberLookup<'p>,
        algorithm: Algorithm,
    ) -> Oracle<'p> {
        let mut state = Oracle {
            program,
            lookup,
            cha: algorithm == Algorithm::Cha,
            pta: algorithm == Algorithm::Pta,
            pointee_cache: HashMap::new(),
            reachable: BTreeSet::new(),
            instantiated: BTreeSet::new(),
            edges: BTreeMap::new(),
            address_taken: BTreeSet::new(),
            pending_fp_calls: BTreeSet::new(),
        };
        // Roots: main plus library-class callback overrides — no library
        // classes are configured in this harness, so just main.
        if let Some(main) = program.main_function() {
            state.reachable.insert(main);
        }
        {
            let mut visitor = OracleSink {
                caller: None,
                state: &mut state,
            };
            walk_globals(program, lookup, &mut visitor).expect("globals walk");
        }
        loop {
            let before = (
                state.reachable.len(),
                state.instantiated.len(),
                state.edge_total(),
            );
            let work: Vec<FuncId> = state.reachable.iter().copied().collect();
            for fid in work {
                let mut visitor = OracleSink {
                    caller: Some(fid),
                    state: &mut state,
                };
                walk_function(program, lookup, fid, &mut visitor).expect("function walk");
            }
            state.resolve_function_pointer_calls();
            if (
                state.reachable.len(),
                state.instantiated.len(),
                state.edge_total(),
            ) == before
            {
                break;
            }
        }
        state
    }

    fn edge_total(&self) -> usize {
        self.edges.values().map(|s| s.len()).sum()
    }

    fn mark_reachable(&mut self, func: FuncId) {
        self.reachable.insert(func);
    }

    fn add_edge(&mut self, caller: Option<FuncId>, callee: FuncId) {
        if let Some(c) = caller {
            self.edges.entry(c).or_default().insert(callee);
        }
        self.mark_reachable(callee);
    }

    fn instantiate(&mut self, caller: Option<FuncId>, class: ClassId, ctor: Option<FuncId>) {
        if let Some(c) = ctor {
            self.add_edge(caller, c);
        }
        let mut stack = vec![class];
        while let Some(c) = stack.pop() {
            if !self.instantiated.insert(c) {
                continue;
            }
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
                if let Some(name) = by_value_class(&m.ty) {
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

    fn dispatch_candidates(&self, receiver: ClassId) -> Vec<ClassId> {
        self.program
            .subclasses_of(receiver)
            .into_iter()
            .filter(|c| self.cha || self.instantiated.contains(c))
            .collect()
    }

    fn virtual_targets(&self, receiver: ClassId, name: &str) -> BTreeSet<FuncId> {
        let mut out = BTreeSet::new();
        for c in self.dispatch_candidates(receiver) {
            if let Some(f) = self.lookup.resolve_virtual(c, name) {
                out.insert(f);
            }
        }
        out
    }

    fn pointees_of(&mut self, func: FuncId, var: &str) -> Option<BTreeSet<ClassId>> {
        let key = (func, var.to_string());
        if let Some(cached) = self.pointee_cache.get(&key) {
            return cached.clone();
        }
        let result = pta::local_pointees(self.program, func, var);
        self.pointee_cache.insert(key, result.clone());
        result
    }

    fn resolve_function_pointer_calls(&mut self) {
        let callers: Vec<FuncId> = self.pending_fp_calls.iter().copied().collect();
        let targets: Vec<FuncId> = self.address_taken.iter().copied().collect();
        for caller in callers {
            for &t in &targets {
                self.add_edge(Some(caller), t);
            }
        }
    }
}

struct OracleSink<'a, 'p> {
    caller: Option<FuncId>,
    state: &'a mut Oracle<'p>,
}

impl EventVisitor for OracleSink<'_, '_> {
    fn call(&mut self, ev: &CallEvent) {
        match &ev.target {
            CallTarget::Free(f) => self.state.add_edge(self.caller, *f),
            CallTarget::Builtin(_) => {}
            CallTarget::Method {
                func,
                receiver_class,
                is_virtual_dispatch,
                receiver_var,
            } => {
                if *is_virtual_dispatch {
                    let name = self.state.program.function(*func).name.clone();
                    let refined = match (self.state.pta, receiver_var, self.caller) {
                        (true, Some(var), Some(caller)) => self.state.pointees_of(caller, var),
                        _ => None,
                    };
                    let targets = match refined {
                        Some(classes) => {
                            let mut out = BTreeSet::new();
                            for c in classes {
                                if let Some(f) = self.state.lookup.resolve_virtual(c, &name) {
                                    out.insert(f);
                                }
                            }
                            out
                        }
                        None => self.state.virtual_targets(*receiver_class, &name),
                    };
                    if targets.is_empty() {
                        self.state.add_edge(self.caller, *func);
                    }
                    for t in targets {
                        self.state.add_edge(self.caller, t);
                    }
                } else {
                    self.state.add_edge(self.caller, *func);
                }
            }
            CallTarget::FunctionPointer => {
                if let Some(c) = self.caller {
                    self.state.pending_fp_calls.insert(c);
                }
            }
        }
    }

    fn address_of_function(&mut self, func: FuncId, _span: dead_data_members::cppfront::Span) {
        self.state.address_taken.insert(func);
        self.state.mark_reachable(func);
    }

    fn instantiation(&mut self, ev: &InstantiationEvent) {
        self.state.instantiate(self.caller, ev.class, ev.ctor);
    }

    fn delete_of(&mut self, ev: &DeleteEvent) {
        let Some(class) = ev.pointee_class else {
            return;
        };
        if let Some(dtor) = self.state.program.destructor(class) {
            if self.state.program.function(dtor).is_virtual {
                for c in self.state.dispatch_candidates(class) {
                    if let Some(d) = self.state.program.destructor(c) {
                        self.state.add_edge(self.caller, d);
                    }
                }
            }
            self.state.add_edge(self.caller, dtor);
        }
        for a in self.state.program.ancestors_of(class) {
            if let Some(d) = self.state.program.destructor(a) {
                self.state.add_edge(self.caller, d);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Comparison plumbing
// ---------------------------------------------------------------------------

/// Asserts both delta engines reproduce the oracle's graph on `source`
/// exactly — same reachable list, instantiated list, per-function edge
/// rows, and address-taken set.
fn assert_matches_oracle(label: &str, source: &str, algorithm: Algorithm) {
    let tu = parse(source).unwrap_or_else(|e| panic!("{label}: parse: {e}"));
    let program = Program::build(&tu).unwrap_or_else(|e| panic!("{label}: sema: {e}"));
    let lookup = MemberLookup::new(&program);
    let options = CallGraphOptions {
        algorithm,
        ..Default::default()
    };

    let walked = CallGraph::build(&program, &lookup, &options)
        .unwrap_or_else(|e| panic!("{label}: walk build: {e}"));
    let summary = ProgramSummary::build(&program, algorithm == Algorithm::Pta, 1);
    let replayed = CallGraph::build_from_summary(&program, &summary, &options)
        .unwrap_or_else(|e| panic!("{label}: replay build: {e}"));
    assert_eq!(walked, replayed, "{label}: engines disagree");

    if algorithm == Algorithm::Everything {
        // The oracle only reimplements the propagating builders; the
        // Everything graph is trivially everything.
        assert_eq!(
            walked.reachable().count(),
            program.function_count(),
            "{label}: Everything must reach every function"
        );
        return;
    }

    let oracle = Oracle::run(&program, &lookup, algorithm);
    assert_eq!(
        walked.reachable().collect::<Vec<_>>(),
        oracle.reachable.iter().copied().collect::<Vec<_>>(),
        "{label}: reachable set diverged from the pre-change sweep"
    );
    assert_eq!(
        walked.instantiated().collect::<Vec<_>>(),
        oracle.instantiated.iter().copied().collect::<Vec<_>>(),
        "{label}: instantiated set diverged from the pre-change sweep"
    );
    assert_eq!(
        walked.address_taken().collect::<Vec<_>>(),
        oracle.address_taken.iter().copied().collect::<Vec<_>>(),
        "{label}: address-taken set diverged from the pre-change sweep"
    );
    let oracle_edge_total: usize = oracle.edges.values().map(BTreeSet::len).sum();
    assert_eq!(
        walked.edge_count(),
        oracle_edge_total,
        "{label}: edge count diverged from the pre-change sweep"
    );
    for (fid, _) in program.functions() {
        let row: Vec<FuncId> = walked.callees(fid).collect();
        let oracle_row: Vec<FuncId> = oracle
            .edges
            .get(&fid)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        assert_eq!(
            row, oracle_row,
            "{label}: callee row of {fid:?} diverged from the pre-change sweep"
        );
    }
}

fn bundled_programs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/benchmarks/programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("benchmark programs directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cpp"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 11, "expected the paper's eleven programs");
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("readable"))
        })
        .collect()
}

fn suite_config() -> AnalysisConfig {
    AnalysisConfig {
        assume_safe_downcasts: true,
        sizeof_policy: SizeofPolicy::Ignore,
        ..Default::default()
    }
}

/// Every `Class::member` spec of `program`, in declaration order.
fn member_specs(program: &Program) -> Vec<String> {
    let mut out = Vec::new();
    for (_, info) in program.classes() {
        for m in &info.members {
            out.push(format!("{}::{}", info.name, m.name));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn suite_graphs_match_the_prechange_sweep_on_all_algorithms() {
    for (name, source) in bundled_programs() {
        for algorithm in [
            Algorithm::Everything,
            Algorithm::Cha,
            Algorithm::Rta,
            Algorithm::Pta,
        ] {
            assert_matches_oracle(&format!("{name}/{algorithm}"), &source, algorithm);
        }
    }
}

#[test]
fn generated_programs_match_the_prechange_sweep() {
    for seed in 0..8 {
        let source = generate(&GeneratorConfig::default(), seed);
        for algorithm in [Algorithm::Cha, Algorithm::Rta, Algorithm::Pta] {
            assert_matches_oracle(&format!("gen seed {seed}/{algorithm}"), &source, algorithm);
        }
    }
}

#[test]
fn scale_programs_match_the_prechange_sweep() {
    // Small enough for the quadratic oracle, deep enough to park and
    // release dispatch candidates across many rounds.
    let config = ScaleConfig {
        chains: 2,
        depth: 12,
        methods_per_class: 3,
        members_per_class: 2,
        rungs: 40,
    };
    for seed in [1, 9] {
        let source = generate_scale(&config, seed);
        for algorithm in [Algorithm::Cha, Algorithm::Rta, Algorithm::Pta] {
            assert_matches_oracle(&format!("scale seed {seed}/{algorithm}"), &source, algorithm);
        }
    }
}

#[test]
fn diamond_hierarchies_match_the_prechange_sweep() {
    // Virtual and non-virtual diamonds with overrides on every edge,
    // and dispatch sites that run before the joining class exists —
    // the park/release schedule must drain in the oracle's order.
    let source = "\
class Top { public: int t; virtual int poke() { return t; } };
class L : virtual public Top { public: int l; virtual int poke() { return l + t; } };
class R : virtual public Top { public: int r; virtual int poke() { return r + t; } };
class J : public L, public R { public: int j; virtual int poke() { return j + l + r; } };
class NT { public: int nt; virtual int poke() { return nt; } };
class NL : public NT { public: int nl; virtual int poke() { return nl + nt; } };
class NR : public NT { public: int nr; virtual int poke() { return nr + nt; } };
class NJ : public NL, public NR { public: int nj; virtual int poke() { return nj + nl + nr; } };
int disp(Top* p) { return p->poke(); }
int dispn(NL* p) { return p->poke(); }
int early() { L shallow; return disp(&shallow); }
int late() { J joined; NJ* n = new NJ(); int acc = disp(&joined) + dispn(n); delete n; return acc; }
int main() { int a = early(); a = a + late(); return a; }
";
    for algorithm in [Algorithm::Cha, Algorithm::Rta, Algorithm::Pta] {
        assert_matches_oracle(&format!("diamond/{algorithm}"), source, algorithm);
    }
}

#[test]
fn wide_rounds_match_the_prechange_sweep() {
    // One delta round 300 functions wide, with an instantiation landing
    // mid-round so readied drain slots interleave with first
    // processings.
    let n = 300;
    let mut source = String::from(
        "class A { public: int f; virtual int m() { return f; } };\n\
         class B : public A { public: int g; virtual int m() { return g + f; } };\n",
    );
    for i in 0..n {
        if i == n / 2 {
            source.push_str(&format!(
                "int leaf{i}(A* a) {{ B b; return a->m() + b.m() + {i}; }}\n"
            ));
        } else {
            source.push_str(&format!("int leaf{i}(A* a) {{ return a->m() + {i}; }}\n"));
        }
    }
    source.push_str("int main() { A a; int t = 0;\n");
    for i in 0..n {
        source.push_str(&format!("  t = t + leaf{i}(&a);\n"));
    }
    source.push_str("  return t; }\n");
    for algorithm in [Algorithm::Cha, Algorithm::Rta] {
        assert_matches_oracle(&format!("wide/{algorithm}"), &source, algorithm);
    }
}

#[test]
fn reports_and_explanations_are_byte_identical_across_engines_and_jobs() {
    for (name, source) in bundled_programs() {
        let reference = AnalysisPipeline::with_config_engine(
            &source,
            suite_config(),
            Algorithm::Rta,
            Engine::Walk,
        )
        .unwrap_or_else(|e| panic!("{name}: reference run: {e}"));
        let reference_report = reference.report().to_string();
        let specs = member_specs(reference.program());
        let reference_explains: Vec<Result<String, dead_data_members::analysis::ExplainError>> =
            specs
            .iter()
            .map(|s| {
                explain(
                    reference.program(),
                    reference.callgraph(),
                    reference.liveness(),
                    s,
                )
            })
            .collect();

        // One TU runs on one thread whatever `--jobs` says, so only the
        // engine varies here; the project-level matrices (project_cache,
        // flight_recorder, serve_determinism) cover the front end's jobs.
        for engine in [Engine::Walk, Engine::Summary] {
            let run = AnalysisPipeline::with_config_engine(
                &source,
                suite_config(),
                Algorithm::Rta,
                engine,
            )
            .unwrap_or_else(|e| panic!("{name}: {engine}: {e}"));
            assert_eq!(
                reference.callgraph(),
                run.callgraph(),
                "{name}: call graph diverged ({engine})"
            );
            assert_eq!(
                reference_report,
                run.report().to_string(),
                "{name}: report bytes diverged ({engine})"
            );
            for (spec, expected) in specs.iter().zip(&reference_explains) {
                let got = explain(run.program(), run.callgraph(), run.liveness(), spec);
                assert_eq!(
                    *expected, got,
                    "{name}: explain({spec}) diverged ({engine})"
                );
            }
        }
    }
}

#[test]
fn worklist_telemetry_is_identical_across_engines_and_jobs() {
    for (name, source) in bundled_programs() {
        let mut baseline: Option<(Counters, Vec<u64>)> = None;
        for engine in [Engine::Walk, Engine::Summary] {
            let telemetry = Telemetry::enabled();
            AnalysisPipeline::with_config_telemetry(
                &source,
                suite_config(),
                Algorithm::Rta,
                engine,
                &telemetry,
            )
            .unwrap_or_else(|e| panic!("{name}: {engine}: {e}"));
            let counters = telemetry.counters();
            let deltas = telemetry.stats().cg_round_deltas;
            assert!(
                counters.cg_worklist_pops > 0,
                "{name}: the fixpoint must pop work"
            );
            match &baseline {
                None => baseline = Some((counters, deltas)),
                Some((c0, d0)) => {
                    assert_eq!(*c0, counters, "{name}: counters diverged ({engine})");
                    assert_eq!(
                        *d0, deltas,
                        "{name}: per-round delta sizes diverged ({engine})"
                    );
                }
            }
        }
    }
}
