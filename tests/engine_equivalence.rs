//! Differential harness: the product against the `ddm-oracle` reference.
//!
//! The product walks each function body once into a summary and
//! propagates over summaries; the oracle walks the AST for every fact
//! it needs (full-set call-graph sweeps, an AST liveness scan, an AST
//! used-class pass). The two must agree on every observable: the
//! liveness classification (live set, recorded reasons, unclassifiable
//! set), the call graph (reachable set, instantiated set, edges), the
//! used classes, the rendered report, every `--explain` text, and the
//! deterministic counters the oracle can compute. The comparison runs
//! across every bundled benchmark program, every call-graph algorithm,
//! every configuration gate the product resolves at replay time
//! (down-casts, `sizeof`, library classes), and a seeded sweep of
//! generated programs.

use ddm_bench::suite_analysis_config;
use dead_data_members::analysis::Engine;
use dead_data_members::benchmarks::generator::{generate, GeneratorConfig};
use dead_data_members::benchmarks::rng::Rng;
use dead_data_members::prelude::*;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Everything,
    Algorithm::Cha,
    Algorithm::Rta,
    Algorithm::Pta,
];

/// Asserts that the product and the oracle agree on every observable
/// for one (source, config, algorithm) triple.
fn assert_engines_agree(label: &str, source: &str, config: &AnalysisConfig, algorithm: Algorithm) {
    let telemetry = Telemetry::enabled();
    let product =
        AnalysisPipeline::with_config_telemetry(source, config.clone(), algorithm, &telemetry)
            .unwrap_or_else(|e| panic!("{label}: product failed: {e}"));
    let program = product.program();
    let oracle = ddm_oracle::analyze(program, config, algorithm)
        .unwrap_or_else(|e| panic!("{label}: oracle failed: {e}"));
    assert_eq!(
        *product.liveness(),
        oracle.liveness,
        "{label}: liveness diverged ({algorithm})"
    );
    assert_eq!(
        *product.callgraph(),
        oracle.callgraph,
        "{label}: call graph diverged ({algorithm})"
    );
    assert_eq!(
        *product.used(),
        oracle.used,
        "{label}: used-class set diverged ({algorithm})"
    );
    assert_eq!(
        product.report().to_string(),
        oracle.report(program).to_string(),
        "{label}: rendered report diverged ({algorithm})"
    );
    for (_, class) in program.classes() {
        for member in &class.members {
            let spec = format!("{}::{}", class.name, member.name);
            assert_eq!(
                explain(program, product.callgraph(), product.liveness(), &spec),
                oracle.explain(program, &spec),
                "{label}: explanation of {spec} diverged ({algorithm})"
            );
        }
    }
    assert_eq!(
        ddm_oracle::comparable(&telemetry.counters()),
        oracle.counters,
        "{label}: counters diverged ({algorithm})"
    );
}

/// The configuration gates: the default (conservative `sizeof`, unsafe
/// down-casts), the suite's, each gate flipped on its own, and the
/// suite's with `library` as a library class.
fn gate_configs(library: &str) -> Vec<(&'static str, AnalysisConfig)> {
    vec![
        ("default", AnalysisConfig::default()),
        ("suite", suite_analysis_config()),
        (
            "safe-downcasts-only",
            AnalysisConfig {
                assume_safe_downcasts: true,
                ..Default::default()
            },
        ),
        (
            "ignore-sizeof-only",
            AnalysisConfig {
                sizeof_policy: SizeofPolicy::Ignore,
                ..Default::default()
            },
        ),
        (
            "library",
            AnalysisConfig {
                library_classes: [library.to_string()].into_iter().collect(),
                ..suite_analysis_config()
            },
        ),
    ]
}

#[test]
fn engines_agree_on_all_bundled_programs_and_algorithms() {
    for b in dead_data_members::benchmarks::suite() {
        let program = Program::build(&parse(b.source).expect("parse")).expect("sema");
        let (_, first_class) = program
            .classes()
            .next()
            .expect("suite programs have classes");
        for (gate, config) in gate_configs(&first_class.name) {
            for algorithm in ALGORITHMS {
                assert_engines_agree(&format!("{}/{gate}", b.name), b.source, &config, algorithm);
            }
        }
    }
}

/// Exercises every configuration-dependent rule the product resolves
/// at replay time rather than extraction time: down-cast safety,
/// `sizeof` policy, and library-class unclassifiability — plus the
/// extraction-time rules (volatile writes, unions, reinterpret casts)
/// for completeness.
const GATE_SOURCE: &str = "class LibString { public: char* data; int len; };\n\
     class S { public: int s1; int s2; };\n\
     class T : public S { public: int t1; };\n\
     class A { public: int m1; int m2; };\n\
     class Dev { public: volatile int ctrl; int scratch; };\n\
     union U { int i; float f; };\n\
     union W { int a; int b; };\n\
     int main() {\n\
         S* s = new T();\n\
         T* t = (T*)s;\n\
         A* a = new A();\n\
         long v = reinterpret_cast<long>(a);\n\
         Dev d; d.ctrl = 1; d.scratch = 2;\n\
         U u; u.f = 1.5;\n\
         W w; w.a = 3;\n\
         LibString ls;\n\
         int z = sizeof(A);\n\
         return u.i + z;\n\
     }";

#[test]
fn engines_agree_on_every_configuration_gate() {
    for (gate, config) in gate_configs("LibString") {
        for algorithm in ALGORITHMS {
            assert_engines_agree(gate, GATE_SOURCE, &config, algorithm);
        }
    }
}

/// Deterministic replacement for a proptest strategy: `n` generator
/// configurations spanning the same shape space, each with its own
/// program seed (mirrors `tests/property_soundness.rs`).
fn cases(n: usize, stream_seed: u64) -> Vec<(GeneratorConfig, u64)> {
    let mut rng = Rng::seed_from_u64(stream_seed);
    (0..n)
        .map(|_| {
            let config = GeneratorConfig {
                classes: rng.gen_range(1..8),
                members_per_class: rng.gen_range(1..6),
                methods_per_class: rng.gen_range(1..4),
                stmts_per_method: rng.gen_range(0..6),
                objects_in_main: rng.gen_range(1..8),
            };
            let seed = rng.next_u64() % 10_000;
            (config, seed)
        })
        .collect()
}

#[test]
fn engines_agree_on_generated_programs() {
    for (config, seed) in cases(24, 0x7A12) {
        let src = generate(&config, seed);
        assert_engines_agree(
            &format!("generated seed={seed}"),
            &src,
            &AnalysisConfig::default(),
            Algorithm::Rta,
        );
    }
}

/// Every kind of call-graph step: static calls, virtual dispatch that
/// widens across rounds, fn-pointer calls, address-taken functions,
/// instantiation closures, and virtual deletes.
const STEP_KINDS: &str = "
    class A { public: virtual int f() { return 0; } virtual ~A() { } };
    class B : public A { public: virtual int f() { return make(); } ~B() { } };
    class C : public A { public: virtual int f() { return 2; } };
    int ind() { return 7; }
    int make() { B* b = new B(); A* a = b; int r = a->f(); delete b; return r; }
    int main() { A a; int (*fp)() = ind; return a.f() + fp() + make(); }";

#[test]
fn engines_agree_on_every_call_graph_step_kind() {
    for algorithm in ALGORITHMS {
        assert_engines_agree(
            "step kinds",
            STEP_KINDS,
            &AnalysisConfig::default(),
            algorithm,
        );
    }
}

#[test]
fn engines_agree_on_library_callback_roots() {
    let src = "class Widget { public: virtual void on_click(); int id; };\n\
               class MyButton : public Widget { public: virtual void on_click() { count = count + 1; } int count; };\n\
               int main() { MyButton b; return 0; }";
    let config = AnalysisConfig {
        library_classes: ["Widget".to_string()].into_iter().collect(),
        ..Default::default()
    };
    for algorithm in ALGORITHMS {
        assert_engines_agree("library roots", src, &config, algorithm);
    }
    let run = AnalysisPipeline::with_config(src, config, Algorithm::Rta).expect("pipeline");
    let p = run.program();
    let on_click = p
        .direct_method(p.class_by_name("MyButton").unwrap(), "on_click")
        .unwrap();
    assert!(
        run.callgraph().is_reachable(on_click),
        "library callbacks must be call-graph roots"
    );
}

#[test]
fn used_classes_match_the_walking_computation() {
    // Instantiations in reachable and unreachable code, on the heap, in
    // globals, and through bases.
    let src = "class L { }; class H { }; class G { }; class U { };\n\
         class Base { public: int b; }; class Derived : public Base { };\n\
         G g;\n\
         void never_called() { Derived d; }\n\
         int main() { L l; H* h = new H(); delete h; return 0; }";
    let run = AnalysisPipeline::from_source(src).expect("pipeline");
    let walked = ddm_oracle::used_classes(run.program()).expect("walk");
    assert_eq!(*run.used(), walked);
    assert_eq!(walked.len(), 5, "L, H, G, Base and Derived are used");
}

#[test]
fn summary_engine_is_the_default() {
    // `Engine` keeps its one variant for the signatures that still name
    // it; every run is a summary-engine run.
    assert_eq!(Engine::default(), Engine::Summary);
}
