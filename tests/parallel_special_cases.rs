//! Regression tests pinning the paper's special-case liveness rules
//! *across the parallel per-TU front end*.
//!
//! The project pipeline parses, models and summarizes each TU on its own
//! worker, then links the modules into one program. The dangerous
//! failure mode is a TU boundary or a worker hand-off dropping or
//! double-applying one of Figure 2's special cases (volatile writes,
//! `delete`/`free` exemption, unsafe-cast closure, union propagation).
//! Each program below puts the statements under test in different TUs,
//! every TU repeating the shared class definitions as a header would, and
//! each case is asserted at 1, 2, and 8 front-end workers.

use dead_data_members::analysis::{LiveReason, ProjectPipeline};
use dead_data_members::prelude::*;

/// Runs the project pipeline over `tus`, each prefixed with `header`.
fn project(header: &str, tus: &[(&str, &str)], jobs: usize) -> ProjectPipeline {
    let inputs: Vec<(String, String)> = tus
        .iter()
        .map(|(file, body)| (file.to_string(), format!("{header}{body}")))
        .collect();
    ProjectPipeline::run(
        &inputs,
        AnalysisConfig::default(),
        Algorithm::Rta,
        jobs,
        Engine::Summary,
        None,
        &Telemetry::disabled(),
    )
    .expect("project run")
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

const JOBS: [usize; 3] = [1, 2, 8];

#[test]
fn volatile_write_only_member_stays_live_under_sharding() {
    let header = "class Dev { public: volatile int ctrl; int scratch; };\n";
    let tus = [
        (
            "pad.cpp",
            "int pad1() { return 1; }\n\
             int pad2() { return pad1() + 1; }\n\
             int pad3() { return pad2() + 1; }\n\
             int pad4() { return pad3() + 1; }\n",
        ),
        (
            "poke.cpp",
            "void poke(Dev* d) { d->ctrl = 1; d->scratch = 2; }\n",
        ),
        (
            "main.cpp",
            "int pad4();\nvoid poke(Dev* d);\n\
             int main() { Dev d; poke(&d); return pad4(); }\n",
        ),
    ];
    for jobs in JOBS {
        let run = project(header, &tus, jobs);
        let (p, l) = (run.program(), run.liveness());
        assert!(
            l.is_live(member(p, "Dev", "ctrl")),
            "jobs={jobs}: volatile write-only member must stay live"
        );
        assert_eq!(
            l.reason(member(p, "Dev", "ctrl")),
            Some(LiveReason::VolatileWrite),
            "jobs={jobs}"
        );
        assert!(
            l.is_dead(member(p, "Dev", "scratch")),
            "jobs={jobs}: plain write-only member must stay dead"
        );
    }
}

#[test]
fn delete_and_free_operands_do_not_liven_under_sharding() {
    let header = "class Node { public: int* heap_buf; Node* child; int used; };\n";
    let tus = [
        (
            "pad.cpp",
            "int pad1() { return 1; }\nint pad2() { return pad1() + 1; }\n",
        ),
        (
            "reap.cpp",
            "void reap(Node* n) { delete n->child; free(n->heap_buf); }\n",
        ),
        ("touch.cpp", "int touch(Node* n) { return n->used; }\n"),
        (
            "main.cpp",
            "int pad2();\nvoid reap(Node* n);\nint touch(Node* n);\n\
             int main() { Node n; reap(&n); return touch(&n) + pad2(); }\n",
        ),
    ];
    for jobs in JOBS {
        let run = project(header, &tus, jobs);
        let (p, l) = (run.program(), run.liveness());
        assert!(
            l.is_dead(member(p, "Node", "child")),
            "jobs={jobs}: delete operand must not liven"
        );
        assert!(
            l.is_dead(member(p, "Node", "heap_buf")),
            "jobs={jobs}: free operand must not liven"
        );
        assert!(l.is_live(member(p, "Node", "used")), "jobs={jobs}");
    }
}

#[test]
fn unsafe_cast_livens_all_contained_members_under_sharding() {
    // The reinterpret_cast sits in its own TU; the contained-member
    // closure (value members + bases) must fire over the linked program.
    let header = "class Inner { public: int deep; };\n\
                  class Base { public: int inherited; };\n\
                  class Outer : public Base { public: Inner inner; int own; };\n";
    let tus = [
        (
            "pad.cpp",
            "int pad1() { return 1; }\n\
             int pad2() { return pad1() + 1; }\n\
             int pad3() { return pad2() + 1; }\n",
        ),
        (
            "smuggle.cpp",
            "long smuggle(Outer* o) { return reinterpret_cast<long>(o); }\n",
        ),
        (
            "main.cpp",
            "int pad3();\nlong smuggle(Outer* o);\n\
             int main() { Outer* o = new Outer(); return (int)smuggle(o) + pad3(); }\n",
        ),
    ];
    for jobs in JOBS {
        let run = project(header, &tus, jobs);
        let (p, l) = (run.program(), run.liveness());
        for (class, name) in [
            ("Outer", "own"),
            ("Outer", "inner"),
            ("Inner", "deep"),
            ("Base", "inherited"),
        ] {
            assert!(
                l.is_live(member(p, class, name)),
                "jobs={jobs}: unsafe cast must liven {class}::{name}"
            );
            assert_eq!(
                l.reason(member(p, class, name)),
                Some(LiveReason::UnsafeCast),
                "jobs={jobs}: {class}::{name}"
            );
        }
    }
}

#[test]
fn union_propagation_reaches_fixpoint_under_sharding() {
    // The union rule runs over the linked program: a member read in one
    // TU must liven its union siblings, transitively through nested
    // unions declared in every TU.
    let header = "union Inner { short s; char c; };\n\
                  union Outer { int i; Inner nested; };\n";
    let tus = [
        (
            "pad.cpp",
            "int pad1() { return 1; }\nint pad2() { return pad1() + 1; }\n",
        ),
        ("peek.cpp", "int peek(Outer* u) { return u->i; }\n"),
        (
            "main.cpp",
            "int pad2();\nint peek(Outer* u);\n\
             int main() { Outer u; return peek(&u) + pad2(); }\n",
        ),
    ];
    for jobs in JOBS {
        let run = project(header, &tus, jobs);
        let (p, l) = (run.program(), run.liveness());
        for (class, name) in [
            ("Outer", "i"),
            ("Outer", "nested"),
            ("Inner", "s"),
            ("Inner", "c"),
        ] {
            assert!(
                l.is_live(member(p, class, name)),
                "jobs={jobs}: union propagation must liven {class}::{name}"
            );
        }
    }
}

#[test]
fn reason_tie_breaks_match_the_sequential_scan_order() {
    // One member is read in an early TU and swept into an unsafe cast's
    // closure in a later one. First mark in function-id order wins; the
    // recorded reason must not depend on which worker parsed which TU.
    let header = "class A { public: int m; int other; };\n";
    let tus = [
        ("early.cpp", "int early(A* a) { return a->m; }\n"),
        (
            "pad.cpp",
            "int pad1() { return 1; }\nint pad2() { return pad1() + 1; }\n",
        ),
        (
            "late.cpp",
            "long late(A* a) { return reinterpret_cast<long>(a); }\n",
        ),
        (
            "main.cpp",
            "int early(A* a);\nint pad2();\nlong late(A* a);\n\
             int main() { A a; return early(&a) + (int)late(&a) + pad2(); }\n",
        ),
    ];
    let sequential = project(header, &tus, 1);
    let seq_reason = sequential
        .liveness()
        .reason(member(sequential.program(), "A", "m"));
    assert_eq!(
        seq_reason,
        Some(LiveReason::Read),
        "the early read marks first"
    );
    for jobs in JOBS {
        let run = project(header, &tus, jobs);
        let (p, l) = (run.program(), run.liveness());
        assert_eq!(
            l.reason(member(p, "A", "m")),
            seq_reason,
            "jobs={jobs}: reason tie-break diverged from sequential"
        );
        assert_eq!(
            l.reason(member(p, "A", "other")),
            Some(LiveReason::UnsafeCast),
            "jobs={jobs}"
        );
    }
}
