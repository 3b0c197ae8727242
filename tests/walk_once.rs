//! Proof that the summary engine earns its name: each function body is
//! traversed exactly once per analysis run.
//!
//! The typewalk layer counts every `walk_function`/`walk_globals`
//! invocation in a process-wide counter. A pipeline run must advance it
//! by exactly `function_count + 1` (each body once during extraction,
//! plus one pass over global initialisers).
//!
//! Kept as a single `#[test]` in its own binary: the counter is
//! process-global, so concurrent tests would interleave their deltas.

use ddm_bench::suite_analysis_config;
use dead_data_members::prelude::*;

#[test]
fn summary_engine_walks_each_body_exactly_once() {
    for b in dead_data_members::benchmarks::suite() {
        let tu = parse(b.source).expect("parse");
        let program = Program::build(&tu).expect("sema");
        let function_count = program.functions().count() as u64;

        // Extraction walks every function body once plus the global
        // initialisers once; no downstream phase touches an AST again.
        let before = body_walk_count();
        AnalysisPipeline::with_config(b.source, suite_analysis_config(), Algorithm::Rta)
            .expect("pipeline");
        let walked = body_walk_count() - before;
        assert_eq!(
            walked,
            function_count + 1,
            "{}: walked {walked} bodies, expected {function_count} functions + 1 globals pass",
            b.name
        );
    }
}
