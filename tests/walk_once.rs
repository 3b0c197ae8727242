//! Proof that the summary engine earns its name: each function body is
//! traversed exactly once per analysis run.
//!
//! The typewalk layer counts every `walk_function`/`walk_globals`
//! invocation in a process-wide counter. A summary-engine pipeline run
//! must advance it by exactly `function_count + 1` (each body once
//! during extraction, plus one pass over global initialisers), while the
//! retained walk engine re-traverses bodies every call-graph round and
//! again for the liveness scan and used-class computation.
//!
//! Kept as a single `#[test]` in its own binary: the counter is
//! process-global, so concurrent tests would interleave their deltas.

use dead_data_members::analysis::Engine;
use dead_data_members::prelude::*;

fn bundled_programs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/benchmarks/programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("benchmark programs directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cpp"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 11, "found only {} programs", paths.len());
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&p).expect("readable program");
            (name, source)
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

/// Runs one pipeline and returns how many body walks it performed.
fn walks_for(source: &str, engine: Engine) -> u64 {
    let before = body_walk_count();
    AnalysisPipeline::with_config_engine(source, suite_config(), Algorithm::Rta, engine)
        .expect("pipeline");
    body_walk_count() - before
}

#[test]
fn summary_engine_walks_each_body_exactly_once() {
    for (name, source) in bundled_programs() {
        let tu = parse(&source).expect("parse");
        let program = Program::build(&tu).expect("sema");
        let function_count = program.functions().count() as u64;

        // Extraction walks every function body once plus the global
        // initialisers once; no downstream phase touches an AST again.
        let walked = walks_for(&source, Engine::Summary);
        assert_eq!(
            walked,
            function_count + 1,
            "{name}: summary engine walked {walked} bodies, \
             expected {function_count} functions + 1 globals pass"
        );

        // The retained engine re-walks per call-graph round and again in
        // the liveness scan, so it must always do strictly more work.
        let rewalked = walks_for(&source, Engine::Walk);
        assert!(
            rewalked > function_count + 1,
            "{name}: walk engine did {rewalked} walks, \
             not more than the summary engine's {}",
            function_count + 1
        );
    }
}
