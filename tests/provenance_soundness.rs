//! Soundness of the liveness provenance: every live member's recorded
//! [`Origin`] must justify its liveness — the inducing function is
//! reachable (with a witness chain from `main` unless it is a
//! conservative call-graph root), union witnesses are themselves live,
//! and the special-case rules (volatile writes, union closure, unsafe
//! casts) produce explanations that name their mechanism.

use dead_data_members::prelude::*;

/// Runs `check` on the product's call graph and liveness for `source`,
/// then on the `ddm-oracle` reference's over the same program, passing
/// which of the two it is.
fn each_engine(source: &str, check: impl Fn(&str, &Program, &CallGraph, &Liveness)) {
    let run = AnalysisPipeline::from_source(source).expect("pipeline");
    let program = run.program();
    let oracle = ddm_oracle::analyze(program, &AnalysisConfig::default(), Algorithm::Rta)
        .expect("oracle");
    check("product", program, run.callgraph(), run.liveness());
    check("oracle", program, &oracle.callgraph, &oracle.liveness);
}

/// Every live member of every benchmark program has an origin whose
/// inducing function is reachable, and a witness chain from `main`
/// whenever that function is reached by calls (rather than being a
/// conservative root). Union witnesses must themselves be live.
#[test]
fn every_live_member_has_a_rooted_witness() {
    for b in dead_data_members::benchmarks::suite() {
        let name = b.name;
        each_engine(b.source, |engine, program, callgraph, liveness| {
            for (cid, class) in program.classes() {
                for idx in 0..class.members.len() {
                    let m = MemberRef::new(cid, idx);
                    if !liveness.is_live(m) {
                        continue;
                    }
                    let spec = format!("{}::{}", class.name, class.members[idx].name);
                    let origin = liveness
                        .origin(m)
                        .unwrap_or_else(|| panic!("{name}/{engine}: {spec} live without origin"));
                    match origin {
                        Origin::Access { func } | Origin::MarkAll { func, .. } => {
                            let Some(func) = func else {
                                // Global initializers run unconditionally;
                                // they are a root by definition.
                                continue;
                            };
                            assert!(
                                callgraph.is_reachable(func),
                                "{name}/{engine}: {spec} livened in unreachable function"
                            );
                            // Either a chain from main exists, or the
                            // function is one of the conservative roots
                            // (virtual method of a library-instantiated
                            // class, address-taken function).
                            let explanation =
                                explain(program, callgraph, liveness, &spec).expect("known member");
                            assert!(
                                explanation.contains("call chain: main")
                                    || explanation.contains("call-graph root"),
                                "{name}/{engine}: {spec} witness is not rooted:\n{explanation}"
                            );
                        }
                        Origin::Union { via, .. } => {
                            assert!(
                                liveness.is_live(via),
                                "{name}/{engine}: {spec} union witness is not itself live"
                            );
                            assert_ne!(via, m, "{name}/{engine}: {spec} is its own union witness");
                        }
                    }
                }
            }
        });
    }
}

#[test]
fn dead_member_explanation_says_dead_explicitly() {
    let src = "class A { public: int w; };\n\
               int main() { A a; a.w = 1; return 0; }";
    each_engine(src, |engine, program, callgraph, liveness| {
        let text = explain(program, callgraph, liveness, "A::w").unwrap();
        assert!(text.contains("A::w: DEAD"), "{engine}: {text}");
        assert!(
            text.contains("never read, address-taken, or otherwise livened"),
            "{engine}: {text}"
        );
    });
}

#[test]
fn volatile_write_only_member_explains_the_volatile_rule() {
    let src = "class Dev { public: volatile int ctrl; };\n\
               void poke(Dev* d) { d->ctrl = 1; }\n\
               int main() { Dev d; poke(&d); return 0; }";
    each_engine(src, |engine, program, callgraph, liveness| {
        let text = explain(program, callgraph, liveness, "Dev::ctrl").unwrap();
        assert!(text.contains("LIVE (volatile write)"), "{engine}: {text}");
        assert!(
            text.contains("written through its volatile qualifier in poke"),
            "{engine}: {text}"
        );
        assert!(text.contains("call chain: main -> poke"), "{engine}: {text}");
    });
}

#[test]
fn union_closure_explains_via_the_live_witness() {
    let src = "union Inner { short s; char c; };\n\
               union Outer { int i; Inner nested; };\n\
               int main() { Outer u; return u.i; }";
    each_engine(src, |engine, program, callgraph, liveness| {
        // A member two unions deep: livened by propagation, with the
        // witness chain bottoming out at the read of Outer::i in main.
        let text = explain(program, callgraph, liveness, "Inner::s").unwrap();
        assert!(text.contains("LIVE (union propagation)"), "{engine}: {text}");
        assert!(text.contains("union propagation"), "{engine}: {text}");
        assert!(text.contains("Outer::i"), "{engine}: {text}");
        assert!(text.contains("call chain: main"), "{engine}: {text}");
    });
}

#[test]
fn unsafe_cast_explains_the_markall_sweep() {
    let src = "class Inner { public: int deep; };\n\
               class Box { public: Inner inner; int own; };\n\
               int main() { Box* b = new Box(); long v = reinterpret_cast<long>(b); return 0; }";
    each_engine(src, |engine, program, callgraph, liveness| {
        // Inner::deep is livened transitively: the MarkAll origin points
        // at the cast's root class Box, not at Inner.
        let text = explain(program, callgraph, liveness, "Inner::deep").unwrap();
        assert!(text.contains("LIVE (unsafe cast)"), "{engine}: {text}");
        assert!(text.contains("MarkAllContainedMembers"), "{engine}: {text}");
        assert!(text.contains("contained in Box"), "{engine}: {text}");
        assert!(text.contains("call chain: main"), "{engine}: {text}");
    });
}

#[test]
fn global_initializer_access_needs_no_chain() {
    let src = "class A { public: int m; };\n\
               A g;\n\
               int seed = g.m;\n\
               int main() { return 0; }";
    each_engine(src, |engine, program, callgraph, liveness| {
        if !liveness.is_live(MemberRef::new(program.class_by_name("A").unwrap(), 0)) {
            // Global-initializer reads livening members is itself covered
            // by engine tests; skip if this dialect subset drops it.
            return;
        }
        let text = explain(program, callgraph, liveness, "A::m").unwrap();
        assert!(text.contains("<global initializers>"), "{engine}: {text}");
        assert!(!text.contains("call chain"), "{engine}: {text}");
    });
}
