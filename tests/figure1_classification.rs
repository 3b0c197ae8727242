//! End-to-end reproduction of the paper's §2/§3.1 running example
//! (Figure 1): every one of the ten data members must be classified
//! exactly as the paper's own walkthrough of its algorithm says.

use dead_data_members::prelude::*;

const FIGURE_1: &str = r#"
    class N {
    public:
        int mn1;
        int mn2;
    };
    class A {
    public:
        virtual int f() { return ma1; }
        int ma1;
        int ma2;
        int ma3;
    };
    class B : public A {
    public:
        virtual int f() { return mb1; }
        int mb1;
        N mb2;
        int mb3;
        int mb4;
    };
    class C : public A {
    public:
        virtual int f() { return mc1; }
        int mc1;
    };
    int foo(int* x) { return (*x) + 1; }
    int main() {
        A a; B b; C c;
        A* ap;
        a.ma3 = b.mb3 + 1;
        int i = 10;
        if (i < 20) { ap = &a; } else { ap = &b; }
        return ap->f() + b.mb2.mn1 + foo(&b.mb4);
    }
"#;

fn member(p: &Program, class: &str, name: &str) -> MemberRef {
    let cid = p.class_by_name(class).unwrap();
    let idx = p
        .class(cid)
        .members
        .iter()
        .position(|m| m.name == name)
        .unwrap_or_else(|| panic!("{class}::{name} missing"));
    MemberRef::new(cid, idx)
}

#[test]
fn paper_walkthrough_classification() {
    let run = ProjectPipeline::from_source(FIGURE_1).expect("pipeline");
    let p = run.program();
    let l = run.liveness();

    // §3.1's live set.
    for (class, name, why) in [
        ("A", "ma1", "read in A::f"),
        ("N", "mn1", "read in main's return expression"),
        ("B", "mb2", "accessed on a read path"),
        (
            "B",
            "mb3",
            "read in main (conservative: value feeds a dead store)",
        ),
        ("B", "mb4", "address taken and passed to foo"),
        ("B", "mb1", "read in B::f, reachable through the call graph"),
        ("C", "mc1", "read in C::f, reachable through the call graph"),
    ] {
        assert!(l.is_live(member(p, class, name)), "{class}::{name}: {why}");
    }

    // §2's dead set.
    for (class, name, why) in [
        ("A", "ma2", "never accessed"),
        ("N", "mn2", "never accessed"),
        ("A", "ma3", "accessed but only written"),
    ] {
        assert!(l.is_dead(member(p, class, name)), "{class}::{name}: {why}");
    }

    let report = run.report();
    assert_eq!(report.dead_members_in_used_classes(), 3);
    assert_eq!(report.members_in_used_classes(), 10);
    assert!((report.dead_percentage() - 30.0).abs() < 1e-9);
}

#[test]
fn figure1_call_graph_is_the_papers() {
    // "the call graph consists of the methods A::f, B::f, and C::f in
    // addition to main" (§3.1).
    let run = ProjectPipeline::from_source(FIGURE_1).expect("pipeline");
    let p = run.program();
    let g = run.callgraph();
    assert_eq!(g.reachable_count(), 5); // main, foo, A::f, B::f, C::f
    for class in ["A", "B", "C"] {
        let f = p
            .direct_method(p.class_by_name(class).unwrap(), "f")
            .unwrap();
        assert!(g.is_reachable(f), "{class}::f");
    }
}

#[test]
fn figure1_executes_and_oracle_is_consistent() {
    let run = ProjectPipeline::from_source(FIGURE_1).expect("pipeline");
    let exec = Interpreter::new(run.program())
        .run(&RunConfig::default())
        .expect("runs");
    // Zero-initialized storage: ap->f() = 0, mn1 = 0, foo(&0) = 1.
    assert_eq!(exec.exit_code, 1);
    // Soundness: every member observed at run time is statically live.
    for m in &exec.members_observed {
        assert!(run.liveness().is_live(*m), "{m} observed but dead");
    }
    // ma3 is stored to, never read: it must not be in the observed set.
    let p = run.program();
    assert!(!exec.members_observed.contains(&member(p, "A", "ma3")));
}
