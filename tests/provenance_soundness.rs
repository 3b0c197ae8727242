//! Soundness of the liveness provenance: every live member's recorded
//! [`Origin`] must justify its liveness — the inducing function is
//! reachable (with a witness chain from `main` unless it is a
//! conservative call-graph root), union witnesses are themselves live,
//! and the special-case rules (volatile writes, union closure, unsafe
//! casts) produce explanations that name their mechanism.

use dead_data_members::prelude::*;

fn bundled_programs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/benchmarks/programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("benchmark programs directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cpp"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&p).expect("read benchmark program");
            (name, source)
        })
        .collect()
}

fn pipeline(source: &str, engine: Engine) -> AnalysisPipeline {
    AnalysisPipeline::with_config_engine(source, AnalysisConfig::default(), Algorithm::Rta, engine)
        .expect("pipeline")
}

/// Every live member of every benchmark program has an origin whose
/// inducing function is reachable, and a witness chain from `main`
/// whenever that function is reached by calls (rather than being a
/// conservative root). Union witnesses must themselves be live.
#[test]
fn every_live_member_has_a_rooted_witness() {
    for (name, source) in bundled_programs() {
        for engine in [Engine::Walk, Engine::Summary] {
            let run = pipeline(&source, engine);
            let program = run.program();
            let callgraph = run.callgraph();
            let liveness = run.liveness();
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
        }
    }
}

#[test]
fn dead_member_explanation_says_dead_explicitly() {
    let src = "class A { public: int w; };\n\
               int main() { A a; a.w = 1; return 0; }";
    for engine in [Engine::Walk, Engine::Summary] {
        let run = pipeline(src, engine);
        let text = explain(run.program(), run.callgraph(), run.liveness(), "A::w").unwrap();
        assert!(text.contains("A::w: DEAD"), "{engine}: {text}");
        assert!(
            text.contains("never read, address-taken, or otherwise livened"),
            "{engine}: {text}"
        );
    }
}

#[test]
fn volatile_write_only_member_explains_the_volatile_rule() {
    let src = "class Dev { public: volatile int ctrl; };\n\
               void poke(Dev* d) { d->ctrl = 1; }\n\
               int main() { Dev d; poke(&d); return 0; }";
    for engine in [Engine::Walk, Engine::Summary] {
        let run = pipeline(src, engine);
        let text = explain(run.program(), run.callgraph(), run.liveness(), "Dev::ctrl").unwrap();
        assert!(text.contains("LIVE (volatile write)"), "{engine}: {text}");
        assert!(
            text.contains("written through its volatile qualifier in poke"),
            "{engine}: {text}"
        );
        assert!(text.contains("call chain: main -> poke"), "{engine}: {text}");
    }
}

#[test]
fn union_closure_explains_via_the_live_witness() {
    let src = "union Inner { short s; char c; };\n\
               union Outer { int i; Inner nested; };\n\
               int main() { Outer u; return u.i; }";
    for engine in [Engine::Walk, Engine::Summary] {
        let run = pipeline(src, engine);
        // A member two unions deep: livened by propagation, with the
        // witness chain bottoming out at the read of Outer::i in main.
        let text = explain(run.program(), run.callgraph(), run.liveness(), "Inner::s").unwrap();
        assert!(text.contains("LIVE (union propagation)"), "{engine}: {text}");
        assert!(text.contains("union propagation"), "{engine}: {text}");
        assert!(text.contains("Outer::i"), "{engine}: {text}");
        assert!(text.contains("call chain: main"), "{engine}: {text}");
    }
}

#[test]
fn unsafe_cast_explains_the_markall_sweep() {
    let src = "class Inner { public: int deep; };\n\
               class Box { public: Inner inner; int own; };\n\
               int main() { Box* b = new Box(); long v = reinterpret_cast<long>(b); return 0; }";
    for engine in [Engine::Walk, Engine::Summary] {
        let run = pipeline(src, engine);
        // Inner::deep is livened transitively: the MarkAll origin points
        // at the cast's root class Box, not at Inner.
        let text = explain(run.program(), run.callgraph(), run.liveness(), "Inner::deep").unwrap();
        assert!(text.contains("LIVE (unsafe cast)"), "{engine}: {text}");
        assert!(text.contains("MarkAllContainedMembers"), "{engine}: {text}");
        assert!(text.contains("contained in Box"), "{engine}: {text}");
        assert!(text.contains("call chain: main"), "{engine}: {text}");
    }
}

#[test]
fn global_initializer_access_needs_no_chain() {
    let src = "class A { public: int m; };\n\
               A g;\n\
               int seed = g.m;\n\
               int main() { return 0; }";
    for engine in [Engine::Walk, Engine::Summary] {
        let run = pipeline(src, engine);
        if !run.liveness().is_live(
            MemberRef::new(run.program().class_by_name("A").unwrap(), 0),
        ) {
            // Global-initializer reads livening members is itself covered
            // by engine tests; skip if this dialect subset drops it.
            continue;
        }
        let text = explain(run.program(), run.callgraph(), run.liveness(), "A::m").unwrap();
        assert!(text.contains("<global initializers>"), "{engine}: {text}");
        assert!(!text.contains("call chain"), "{engine}: {text}");
    }
}
