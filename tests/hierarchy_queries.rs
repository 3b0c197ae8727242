//! Class-hierarchy queries against the path enumerations and per-class
//! closure tables they replaced.
//!
//! `Program::derives_from` and `Program::ancestors_of` explore each base
//! once, the call-graph roots test "derives from a library class" with
//! one walk down the hierarchy, and `MarkAllContainedMembers`, the union
//! rule and the used-class closure walk one containment graph that stops
//! at classes already visited. Each is compared here with a reference
//! restated in this file — every inheritance path enumerated, the
//! per-method root rule, and a flat sweep of per-class closure tables —
//! on seeded random programs: virtual and non-virtual diamonds, repeated
//! bases, by-value member classes and arrays of them, unions, and random
//! library-class sets, under random configurations. The oracle crate
//! calls `ancestors_of` and `classify_cast` (and so `derives_from`)
//! itself, so `engine_equivalence` cannot catch a fault in them; this
//! file can.

use dead_data_members::analysis::{
    AnalysisConfig, DeadMemberAnalysis, LiveReason, Liveness, Origin, ProjectPipeline, SizeofPolicy,
};
use dead_data_members::benchmarks::rng::Rng;
use dead_data_members::callgraph::{propagation_roots, Algorithm, CallGraph, CallGraphOptions};
use dead_data_members::cppfront::ast::ClassKind;
use dead_data_members::hierarchy::{
    by_value_class, ClassId, FnSummary, FuncId, LiveStep, MarkAllCause, MemberAccessKind,
    MemberRef, Program, ProgramSummary,
};
use dead_data_members::prelude::{parse, Engine};
use dead_data_members::telemetry::{Counters, Telemetry};
use std::collections::{BTreeSet, HashSet};

const SEEDS: u64 = 300;
const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Rta,
    Algorithm::Cha,
    Algorithm::Pta,
    Algorithm::Everything,
];

/// A random program of 3–10 classes and the names of its library
/// classes. A class has up to three distinct direct bases among the
/// earlier non-union classes, each virtual with probability 0.4, so
/// virtual diamonds, repeated non-virtual bases and mixed inheritance
/// all occur. Unions embed earlier classes by value. `main`
/// instantiates some classes, reads members, takes `sizeof`s and casts
/// pointers between random classes (up-, down- and unrelated casts);
/// virtual methods do the same, so library callbacks reach code.
fn random_program(seed: u64) -> (String, BTreeSet<String>) {
    let mut rng = Rng::seed_from_u64(seed);
    let classes = rng.gen_range(3..11);
    let mut unions: Vec<bool> = Vec::new();
    let mut src = String::new();
    let mut library = BTreeSet::new();
    // One statement that reads, sizes or casts something.
    let statement = |rng: &mut Rng, upto: usize, k: usize| -> String {
        let a = rng.gen_range(0..upto);
        let b = rng.gen_range(0..upto);
        match rng.gen_range(0..4) {
            0 => format!("int s{k} = sizeof(C{a});"),
            1 => format!("C{a}* q{k} = nullptr; C{b}* c{k} = (C{b}*)q{k};"),
            2 => format!("C{a}* q{k} = nullptr; C{b}* c{k} = reinterpret_cast<C{b}*>(q{k});"),
            _ => format!("C{a}* q{k} = nullptr; C{b}* c{k} = static_cast<C{b}*>(q{k});"),
        }
    };
    for i in 0..classes {
        let is_union = i > 0 && rng.gen_bool(0.15);
        let mut bases: Vec<usize> = Vec::new();
        if !is_union {
            for _ in 0..rng.gen_range(0..4) {
                let b = rng.gen_range(0..i.max(1));
                if b < i && !unions[b] && !bases.contains(&b) {
                    bases.push(b);
                }
            }
        }
        unions.push(is_union);
        if rng.gen_bool(0.25) {
            library.insert(format!("C{i}"));
        }
        let base_list: Vec<String> = bases
            .iter()
            .map(|b| {
                let virt = if rng.gen_bool(0.4) { "virtual " } else { "" };
                format!("public {virt}C{b}")
            })
            .collect();
        src.push_str(if is_union { "union" } else { "class" });
        src.push_str(&format!(" C{i}"));
        if !base_list.is_empty() {
            src.push_str(&format!(" : {}", base_list.join(", ")));
        }
        src.push_str(" {\npublic:\n");
        for k in 0..rng.gen_range(1..4) {
            src.push_str(&format!("    int a{i}_{k};\n"));
        }
        if i > 0 && rng.gen_bool(0.5) {
            let e = rng.gen_range(0..i);
            if rng.gen_bool(0.3) {
                src.push_str(&format!("    C{e} arr{i}[2];\n"));
            } else {
                src.push_str(&format!("    C{e} e{i};\n"));
            }
        }
        if i > 0 && rng.gen_bool(0.2) {
            src.push_str(&format!("    C{}* p{i};\n", rng.gen_range(0..i)));
        }
        if !is_union {
            if rng.gen_bool(0.6) {
                let body = if i > 0 && rng.gen_bool(0.5) {
                    statement(&mut rng, i, 0)
                } else {
                    String::new()
                };
                src.push_str(&format!(
                    "    virtual int g() {{ {body} return a{i}_0; }}\n"
                ));
            }
            if rng.gen_bool(0.3) {
                src.push_str(&format!("    int f{i}() {{ return a{i}_0; }}\n"));
            }
        }
        src.push_str("};\n");
    }
    src.push_str("int main() {\n    int r = 0;\n");
    for i in 0..classes {
        if rng.gen_bool(0.5) {
            src.push_str(&format!("    C{i} o{i};\n"));
            if rng.gen_bool(0.5) {
                src.push_str(&format!("    r = r + o{i}.a{i}_0;\n"));
            } else {
                src.push_str(&format!("    o{i}.a{i}_0 = 1;\n"));
            }
        }
    }
    for k in 0..rng.gen_range(0..4) {
        src.push_str(&format!("    {}\n", statement(&mut rng, classes, k + 1)));
    }
    src.push_str("    return r;\n}\n");
    (src, library)
}

/// The classes reachable from `class` along every inheritance path, one
/// entry per path (the reference the bitset walks replaced).
fn all_paths(p: &Program, class: ClassId, out: &mut Vec<ClassId>) {
    for b in &p.class(class).bases {
        out.push(b.id);
        all_paths(p, b.id, out);
    }
}

/// The per-method root rule: `main`, plus every virtual method with a
/// body of a non-library class that has a library class on some
/// inheritance path.
fn reference_roots(p: &Program, library: &HashSet<ClassId>) -> BTreeSet<FuncId> {
    let mut roots: BTreeSet<FuncId> = p.main_function().into_iter().collect();
    for (fid, f) in p.functions() {
        let Some(class) = f.class else { continue };
        let mut ancestors = Vec::new();
        all_paths(p, class, &mut ancestors);
        if f.is_virtual
            && f.body.is_some()
            && !library.contains(&class)
            && ancestors.iter().any(|a| library.contains(a))
        {
            roots.insert(fid);
        }
    }
    roots
}

/// Per class, its containment closure: itself plus, transitively, the
/// classes of its by-value members and its bases.
fn closure_table(p: &Program) -> Vec<BTreeSet<ClassId>> {
    p.classes()
        .map(|(root, _)| {
            let mut seen = BTreeSet::new();
            let mut stack = vec![root];
            while let Some(c) = stack.pop() {
                if !seen.insert(c) {
                    continue;
                }
                let info = p.class(c);
                let members = info.members.iter().filter_map(|m| by_value_class(&m.ty));
                stack.extend(members.filter_map(|n| p.class_by_name(n)));
                stack.extend(info.bases.iter().map(|b| b.id));
            }
            seen
        })
        .collect()
}

/// The liveness scan with `MarkAllContainedMembers` as a flat sweep of
/// the closure table.
struct FlatMarker<'a> {
    program: &'a Program,
    closures: &'a [BTreeSet<ClassId>],
    config: &'a AnalysisConfig,
    liveness: Liveness,
    visited: HashSet<ClassId>,
    counters: Counters,
}

impl FlatMarker<'_> {
    fn replay(&mut self, func: Option<FuncId>, s: &FnSummary) {
        for step in &s.live_steps {
            match *step {
                LiveStep::Access { member, kind } => {
                    let (reason, counter) = match kind {
                        MemberAccessKind::Read => (LiveReason::Read, &mut self.counters.scan_reads),
                        MemberAccessKind::AddressTaken => (
                            LiveReason::AddressTaken,
                            &mut self.counters.scan_address_taken,
                        ),
                        MemberAccessKind::PointerToMember => (
                            LiveReason::PointerToMember,
                            &mut self.counters.scan_ptr_to_member,
                        ),
                        MemberAccessKind::VolatileWrite => (
                            LiveReason::VolatileWrite,
                            &mut self.counters.scan_volatile_writes,
                        ),
                    };
                    *counter += 1;
                    self.liveness
                        .mark_live_from(member, reason, Origin::Access { func });
                }
                LiveStep::MarkAll { class, cause } => {
                    let reason = match cause {
                        MarkAllCause::UnsafeCast => LiveReason::UnsafeCast,
                        MarkAllCause::UnsafeDowncast if self.config.assume_safe_downcasts => {
                            continue
                        }
                        MarkAllCause::UnsafeDowncast => LiveReason::UnsafeCast,
                        MarkAllCause::Sizeof
                            if self.config.sizeof_policy == SizeofPolicy::Ignore =>
                        {
                            continue
                        }
                        MarkAllCause::Sizeof => LiveReason::Sizeof,
                    };
                    self.counters.markall_triggers += 1;
                    self.mark_all(class, reason, Origin::MarkAll { func, root: class });
                }
            }
        }
    }

    fn mark_all(&mut self, class: ClassId, reason: LiveReason, origin: Origin) {
        for &c in &self.closures[class.index()] {
            if self.visited.insert(c) {
                for idx in 0..self.program.class(c).members.len() {
                    self.liveness
                        .mark_live_from(MemberRef::new(c, idx), reason, origin);
                }
            }
        }
    }

    fn propagate_unions(&mut self) {
        loop {
            self.counters.union_rounds += 1;
            let mut changed = false;
            for (cid, class) in self.program.classes() {
                if class.kind != ClassKind::Union || self.visited.contains(&cid) {
                    continue;
                }
                let via = self.closures[cid.index()]
                    .iter()
                    .flat_map(|&c| {
                        (0..self.program.class(c).members.len()).map(move |i| MemberRef::new(c, i))
                    })
                    .filter(|&m| self.liveness.is_live(m))
                    .min();
                if let Some(via) = via {
                    let origin = Origin::Union { root: cid, via };
                    self.mark_all(cid, LiveReason::UnionPropagation, origin);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }
}

/// The scan over the closure table: liveness and the scan counters.
fn reference_scan(
    p: &Program,
    summary: &ProgramSummary,
    graph: &CallGraph,
    config: &AnalysisConfig,
    closures: &[BTreeSet<ClassId>],
) -> (Liveness, Counters) {
    let mut m = FlatMarker {
        program: p,
        closures,
        config,
        liveness: Liveness::with_member_index(summary.member_index().clone()),
        visited: HashSet::new(),
        counters: Counters::default(),
    };
    for (cid, class) in p.classes() {
        if config.library_classes.contains(&class.name) {
            for idx in 0..class.members.len() {
                m.liveness.mark_unclassifiable(MemberRef::new(cid, idx));
            }
        }
    }
    m.replay(None, summary.globals().expect("globals"));
    for func in graph.reachable() {
        m.replay(Some(func), summary.function(func).expect("summary"));
    }
    m.counters.markall_classes_expanded = m.visited.len() as u64;
    m.propagate_unions();
    m.counters.union_classes_livened = m.visited.len() as u64 - m.counters.markall_classes_expanded;
    (m.liveness, m.counters)
}

/// The union of the closures of every class some body instantiates.
fn reference_used(
    p: &Program,
    summary: &ProgramSummary,
    closures: &[BTreeSet<ClassId>],
) -> HashSet<ClassId> {
    let mut seeds: Vec<ClassId> = p
        .functions()
        .filter(|(_, f)| f.body.is_some() || !f.inits.is_empty())
        .flat_map(|(fid, _)| {
            summary
                .function(fid)
                .expect("summary")
                .instantiated_classes()
        })
        .collect();
    seeds.extend(summary.globals().expect("globals").instantiated_classes());
    seeds
        .iter()
        .flat_map(|s| closures[s.index()].iter().copied())
        .collect()
}

#[derive(Default)]
struct Coverage {
    programs: usize,
    multipath_pairs: usize,
    unrelated_pairs: usize,
    library_roots: usize,
    markall_triggers: u64,
    repeated_markall: usize,
    union_livened: u64,
    union_origins: usize,
}

#[test]
fn hierarchy_queries_match_their_references_on_random_programs() {
    let mut cov = Coverage::default();
    for seed in 0..SEEDS {
        let (src, library) = random_program(seed);
        let p = Program::build(&parse(&src).expect("parse")).expect("sema");
        cov.programs += 1;

        // Ancestry against every inheritance path.
        for (class, _) in p.classes() {
            let mut paths = Vec::new();
            all_paths(&p, class, &mut paths);
            let want: BTreeSet<ClassId> = paths.iter().copied().collect();
            let got = p.ancestors_of(class);
            assert_eq!(got.len(), want.len(), "seed {seed}: duplicates\n{src}");
            assert_eq!(got.into_iter().collect::<BTreeSet<_>>(), want);
            if paths.len() > want.len() {
                cov.multipath_pairs += 1;
            }
            for (sup, _) in p.classes() {
                let derives = class == sup || want.contains(&sup);
                assert_eq!(p.derives_from(class, sup), derives, "seed {seed}\n{src}");
                cov.unrelated_pairs += usize::from(!derives && !p.derives_from(sup, class));
            }
        }

        let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
        let algorithm = ALGORITHMS[rng.gen_range(0..ALGORITHMS.len())];
        let config = AnalysisConfig {
            library_classes: library.iter().cloned().collect(),
            sizeof_policy: if rng.gen_bool(0.5) {
                SizeofPolicy::Conservative
            } else {
                SizeofPolicy::Ignore
            },
            assume_safe_downcasts: rng.gen_bool(0.5),
        };
        let options = CallGraphOptions {
            algorithm,
            library_classes: library.iter().filter_map(|n| p.class_by_name(n)).collect(),
            ..CallGraphOptions::default()
        };

        // Callback roots against the per-method rule.
        let roots = propagation_roots(&p, &options);
        assert_eq!(
            roots,
            reference_roots(&p, &options.library_classes),
            "seed {seed}\n{src}"
        );
        cov.library_roots += roots.len() - usize::from(p.main_function().is_some());

        // MarkAll, the union rule and used classes against the closure
        // table: classification, reasons, origins and scan counters.
        let summary = ProgramSummary::build(&p, algorithm == Algorithm::Pta, 1);
        let quiet = Telemetry::disabled();
        let (graph, _) = CallGraph::build_from_summary_schedule(&p, &summary, &options, &quiet)
            .expect("call graph");
        let (got, got_counters) = DeadMemberAnalysis::new(&p, config.clone())
            .run_summary_counted(&summary, &graph, &quiet)
            .expect("scan");
        let closures = closure_table(&p);
        let (want, want_counters) = reference_scan(&p, &summary, &graph, &config, &closures);
        assert_eq!(got.to_parts(), want.to_parts(), "seed {seed}\n{src}");
        assert_eq!(got_counters, want_counters, "seed {seed}\n{src}");
        assert_eq!(
            summary.used_classes(&p).expect("used"),
            reference_used(&p, &summary, &closures),
            "seed {seed}\n{src}"
        );
        cov.markall_triggers += want_counters.markall_triggers;
        cov.repeated_markall += usize::from(want_counters.markall_triggers >= 2);
        cov.union_livened += want_counters.union_classes_livened;
        cov.union_origins += want
            .to_parts()
            .origins
            .iter()
            .filter(|(_, o)| matches!(o, Origin::Union { .. }))
            .count();

        // The 16 counters of a whole run: the scan's plus the call
        // graph's and the classification of the reference liveness.
        let telemetry = Telemetry::enabled();
        ProjectPipeline::run(
            &[("random.cpp".to_string(), src.clone())],
            config,
            algorithm,
            1,
            Engine::Summary,
            None,
            &telemetry,
        )
        .expect("pipeline");
        let mut want_all = want_counters;
        want_all.reachable_functions = graph.reachable_count() as u64;
        want_all.callgraph_edges = graph.edge_count() as u64;
        want_all.instantiated_classes = graph.instantiated().len() as u64;
        let counts = telemetry.counters();
        want_all.cg_worklist_pops = counts.cg_worklist_pops;
        want_all.cg_ready_drains = counts.cg_ready_drains;
        for (cid, class) in p.classes() {
            for idx in 0..class.members.len() {
                let m = MemberRef::new(cid, idx);
                if want.is_unclassifiable(m) {
                    want_all.members_unclassifiable += 1;
                } else if want.is_live(m) {
                    want_all.members_live += 1;
                } else {
                    want_all.members_dead += 1;
                }
            }
        }
        assert_eq!(counts, want_all, "seed {seed}\n{src}");
    }
    assert_eq!(cov.programs, SEEDS as usize);
    assert!(
        cov.multipath_pairs > 150,
        "{} multipath",
        cov.multipath_pairs
    );
    assert!(
        cov.unrelated_pairs > 3_000,
        "{} unrelated",
        cov.unrelated_pairs
    );
    assert!(
        cov.library_roots > 80,
        "{} library roots",
        cov.library_roots
    );
    assert!(
        cov.markall_triggers > 150,
        "{} triggers",
        cov.markall_triggers
    );
    assert!(
        cov.repeated_markall > 50,
        "{} repeated",
        cov.repeated_markall
    );
    assert!(
        cov.union_livened > 60,
        "{} union classes",
        cov.union_livened
    );
    assert!(
        cov.union_origins > 150,
        "{} union origins",
        cov.union_origins
    );
}

/// `depth` stacked virtual diamonds, `D0` at the bottom: `Lk` and `Rk`
/// derive virtually from `D(k-1)` and `Dk` from both, so `Dk` has 2^k
/// inheritance paths to `D0`. `U` is unrelated to all of them.
fn diamonds(depth: usize) -> Program {
    let mut src = String::from("class D0 { public: int x0; };\nclass U { public: int u; };\n");
    for k in 1..=depth {
        let below = k - 1;
        src.push_str(&format!(
            "class L{k} : public virtual D{below} {{ public: int l{k}; }};\n\
             class R{k} : public virtual D{below} {{ public: int r{k}; }};\n\
             class D{k} : public L{k}, public R{k} {{ public: int x{k}; }};\n"
        ));
    }
    src.push_str("int main() { return 0; }\n");
    Program::build(&parse(&src).expect("parse")).expect("sema")
}

#[test]
fn queries_on_64_stacked_diamonds_visit_each_class_once() {
    let p = diamonds(64);
    let top = p.class_by_name("D64").unwrap();
    let unrelated = p.class_by_name("U").unwrap();
    assert!(!p.derives_from(top, unrelated));
    assert!(!p.derives_from(unrelated, top));
    assert!(p.derives_from(top, p.class_by_name("D0").unwrap()));
    // Every class below the top: 3 per level, plus `D0`.
    assert_eq!(p.ancestors_of(top).len(), 3 * 64);
    let options = CallGraphOptions {
        library_classes: [p.class_by_name("D0").unwrap()].into_iter().collect(),
        ..CallGraphOptions::default()
    };
    assert_eq!(propagation_roots(&p, &options).len(), 1, "only main");
    let summary = ProgramSummary::build(&p, false, 1);
    let mut seen = dead_data_members::hierarchy::ClassBitSet::with_capacity(p.class_count());
    let mut visits = 0;
    summary.containment().walk(top, &mut seen, |_| visits += 1);
    assert_eq!(visits, 3 * 64 + 1);
}
