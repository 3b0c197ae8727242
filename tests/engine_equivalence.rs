//! Differential harness for the two analysis engines.
//!
//! The summary engine (walk-once extraction + propagation over
//! [`ProgramSummary`]) must be bit-identical to the retained walk engine
//! on every observable: the liveness classification (live set, recorded
//! reasons, unclassifiable set), the call graph (reachable set,
//! instantiated set, edges), and the byte-for-byte rendered report.
//! The comparison runs across every bundled benchmark program, every
//! call-graph algorithm, every configuration gate
//! the engines resolve at different times (down-casts, `sizeof`,
//! library classes), and a seeded sweep of generated programs.

use dead_data_members::analysis::Engine;
use dead_data_members::benchmarks::generator::{generate, GeneratorConfig};
use dead_data_members::benchmarks::rng::Rng;
use dead_data_members::prelude::*;

/// Every `.cpp` program shipped with the benchmark suite, in a fixed
/// (sorted) order, read from the source tree.
fn bundled_programs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/benchmarks/programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("benchmark programs directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cpp"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 11,
        "expected the paper's eleven programs, found {}",
        paths.len()
    );
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&p).expect("readable program");
            (name, source)
        })
        .collect()
}

/// The suite's analysis configuration (down-casts verified safe,
/// `sizeof` ignorable — matching `Benchmark::analyze`).
fn suite_config() -> AnalysisConfig {
    AnalysisConfig {
        assume_safe_downcasts: true,
        sizeof_policy: SizeofPolicy::Ignore,
        ..Default::default()
    }
}

/// Asserts that the walk and summary engines agree on every observable
/// for one (source, config, algorithm) triple.
fn assert_engines_agree(label: &str, source: &str, config: &AnalysisConfig, algorithm: Algorithm) {
    let walk =
        AnalysisPipeline::with_config_engine(source, config.clone(), algorithm, Engine::Walk)
            .unwrap_or_else(|e| panic!("{label}: walk engine failed: {e}"));
    let summary =
        AnalysisPipeline::with_config_engine(source, config.clone(), algorithm, Engine::Summary)
            .unwrap_or_else(|e| panic!("{label}: summary engine failed: {e}"));
    assert_eq!(
        walk.liveness(),
        summary.liveness(),
        "{label}: liveness diverged ({algorithm})"
    );
    assert_eq!(
        walk.callgraph(),
        summary.callgraph(),
        "{label}: call graph diverged ({algorithm})"
    );
    assert_eq!(
        walk.used(),
        summary.used(),
        "{label}: used-class set diverged ({algorithm})"
    );
    assert_eq!(
        walk.report().to_string(),
        summary.report().to_string(),
        "{label}: rendered report diverged ({algorithm})"
    );
}

#[test]
fn engines_agree_on_all_bundled_programs_and_algorithms() {
    for algorithm in [
        Algorithm::Everything,
        Algorithm::Cha,
        Algorithm::Rta,
        Algorithm::Pta,
    ] {
        for (name, source) in bundled_programs() {
            assert_engines_agree(&name, &source, &suite_config(), algorithm);
        }
    }
}

/// Exercises every configuration-dependent rule the summary engine
/// resolves at replay time rather than extraction time: down-cast
/// safety, `sizeof` policy, and library-class unclassifiability — plus
/// the extraction-time rules (volatile writes, unions, reinterpret
/// casts) for completeness.
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
    let configs: Vec<(&str, AnalysisConfig)> = vec![
        ("default", AnalysisConfig::default()),
        ("suite", suite_config()),
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
                library_classes: ["LibString".to_string()].into_iter().collect(),
                ..Default::default()
            },
        ),
    ];
    for (label, config) in &configs {
        for algorithm in [Algorithm::Everything, Algorithm::Cha, Algorithm::Rta, Algorithm::Pta] {
            assert_engines_agree(label, GATE_SOURCE, config, algorithm);
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

#[test]
fn summary_engine_is_the_default() {
    let run = AnalysisPipeline::from_source("int main() { return 0; }").expect("pipeline");
    assert_eq!(run.engine(), Engine::Summary);
    assert_eq!(Engine::Summary.to_string(), "summary");
    assert_eq!(Engine::Walk.to_string(), "walk");
}
