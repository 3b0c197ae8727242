//! §3.1 cross-crate invariant: analysis precision is monotone in
//! call-graph precision. A smaller (more precise) reachable set can only
//! *increase* the dead-member count, never decrease it:
//! dead(everything) ⊆ dead(CHA) ⊆ dead(RTA).

use dead_data_members::analysis::{AnalysisConfig, ProjectPipeline, SizeofPolicy};
use dead_data_members::callgraph::Algorithm;
use std::collections::BTreeSet;

fn dead_set(source: &str, algorithm: Algorithm) -> BTreeSet<String> {
    let run = ProjectPipeline::with_config(
        source,
        AnalysisConfig {
            assume_safe_downcasts: true,
            sizeof_policy: SizeofPolicy::Ignore,
            ..Default::default()
        },
        algorithm,
    )
    .expect("suite analyzes cleanly");
    run.report().dead_member_names().into_iter().collect()
}

#[test]
fn dead_sets_are_monotone_across_the_suite() {
    for b in dead_data_members::benchmarks::suite() {
        let everything = dead_set(b.source, Algorithm::Everything);
        let cha = dead_set(b.source, Algorithm::Cha);
        let rta = dead_set(b.source, Algorithm::Rta);
        assert!(
            everything.is_subset(&cha),
            "{}: dead(everything) ⊄ dead(CHA)",
            b.name
        );
        assert!(cha.is_subset(&rta), "{}: dead(CHA) ⊄ dead(RTA)", b.name);
    }
}

#[test]
fn reachability_is_antitone_across_the_suite() {
    use dead_data_members::callgraph::{CallGraph, CallGraphOptions};
    use dead_data_members::hierarchy::{Program, ProgramSummary};
    use dead_data_members::telemetry::Telemetry;

    for b in dead_data_members::benchmarks::suite() {
        let tu = dead_data_members::cppfront::parse(b.source).unwrap();
        let program = Program::build(&tu).unwrap();
        let summary = ProgramSummary::build(&program, false, 1);
        let count = |alg| {
            let options = CallGraphOptions {
                algorithm: alg,
                ..Default::default()
            };
            let quiet = Telemetry::disabled();
            CallGraph::build_from_summary_schedule(&program, &summary, &options, &quiet)
                .unwrap()
                .0
                .reachable_count()
        };
        let everything = count(Algorithm::Everything);
        let cha = count(Algorithm::Cha);
        let rta = count(Algorithm::Rta);
        assert!(rta <= cha, "{}: RTA larger than CHA", b.name);
        assert!(cha <= everything, "{}: CHA larger than everything", b.name);
    }
}

#[test]
fn rta_beats_cha_when_a_subclass_is_never_instantiated() {
    // The §3.1 discussion: RTA prunes C::f when no C is ever created,
    // reclassifying its member as dead; CHA cannot. (C is also an unused
    // class, so the check goes through the raw liveness classification,
    // not the used-class-filtered report.)
    let source = r#"
        class A { public: virtual int f() { return m1; } int m1; };
        class B : public A { public: virtual int f() { return m2; } int m2; };
        class C : public A { public: virtual int f() { return m3; } int m3; };
        int main() { B b; A* ap = &b; return ap->f(); }
    "#;
    let m3_of = |algorithm| {
        let run = dead_data_members::analysis::ProjectPipeline::with_config(
            source,
            Default::default(),
            algorithm,
        )
        .unwrap();
        let c = run.program().class_by_name("C").unwrap();
        let m3 = dead_data_members::hierarchy::MemberRef::new(c, 0);
        run.liveness().is_live(m3)
    };
    assert!(m3_of(Algorithm::Cha), "CHA keeps C::f reachable, m3 live");
    assert!(
        !m3_of(Algorithm::Rta),
        "RTA prunes C::f (C never instantiated), m3 dead"
    );
}

#[test]
fn pta_delivers_the_papers_section_31_improvement_on_figure_1() {
    // §3.1: "a simple alias/points-to analysis algorithm can determine
    // that pointer ap never points to a C object. This fact can be used
    // to exclude method C::f from the call graph, so that the reference
    // to C::mc1 can be disregarded, and data member C::mc1 can be marked
    // dead."
    let figure1 = "
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
    let rta = dead_set(figure1, Algorithm::Rta);
    let pta = dead_set(figure1, Algorithm::Pta);
    assert!(
        !rta.contains("C::mc1"),
        "RTA conservatively keeps C::f reachable"
    );
    assert!(
        pta.contains("C::mc1"),
        "PTA proves ap never points to a C object: {pta:?}"
    );
    // Everything RTA finds is still found.
    assert!(rta.is_subset(&pta));
}

#[test]
fn pta_extends_the_monotone_chain_across_the_suite() {
    for b in dead_data_members::benchmarks::suite() {
        let rta = dead_set(b.source, Algorithm::Rta);
        let pta = dead_set(b.source, Algorithm::Pta);
        assert!(rta.is_subset(&pta), "{}: dead(RTA) ⊄ dead(PTA)", b.name);
    }
}
