//! The telemetry layer's core contract: deterministic counters are
//! bit-identical across worker counts and match the `ddm-oracle`
//! reference analysis, enabling telemetry changes no analysis output,
//! and `--explain` renders the same witness text from the oracle's
//! liveness as from the product's. Each program runs as a one-TU
//! project, so `--jobs` changes nothing here by construction; the
//! multi-TU matrices (`flight_recorder`, `project_cache`) cover the
//! rest.

use dead_data_members::analysis::Engine;
use dead_data_members::prelude::*;

/// Runs one source as a one-TU project on `jobs` front-end workers.
fn run_counters(source: &str, jobs: usize) -> (ProjectPipeline, Counters, ExecStats) {
    let telemetry = Telemetry::enabled();
    let run = ProjectPipeline::run(
        &[("input.cpp".to_string(), source.to_string())],
        AnalysisConfig::default(),
        Algorithm::Rta,
        jobs,
        Engine::Summary,
        None,
        &telemetry,
    )
    .expect("pipeline");
    (run, telemetry.counters(), telemetry.stats())
}

#[test]
fn counters_identical_across_jobs_and_engines() {
    for b in dead_data_members::benchmarks::suite() {
        let (run, reference, _) = run_counters(b.source, 1);
        let oracle = ddm_oracle::analyze(run.program(), &AnalysisConfig::default(), Algorithm::Rta)
            .expect("oracle");
        assert_eq!(
            oracle.counters,
            ddm_oracle::comparable(&reference),
            "{}: counters diverged from the oracle",
            b.name
        );
        let (_, counters, _) = run_counters(b.source, 8);
        assert_eq!(
            counters, reference,
            "{}: counters diverged at jobs=8",
            b.name
        );
    }
}

#[test]
fn enabling_telemetry_changes_no_analysis_output() {
    for b in dead_data_members::benchmarks::suite() {
        let plain =
            ProjectPipeline::with_config(b.source, AnalysisConfig::default(), Algorithm::Rta)
                .expect("pipeline");
        let (observed, _, _) = run_counters(b.source, 1);
        assert_eq!(
            plain.report().to_string(),
            observed.report().to_string(),
            "{}: telemetry changed the report",
            b.name
        );
        assert_eq!(
            plain.liveness(),
            observed.liveness(),
            "{}: telemetry changed the liveness",
            b.name
        );
    }
}

#[test]
fn explain_is_byte_identical_across_engines() {
    for b in dead_data_members::benchmarks::suite() {
        let (run, _, _) = run_counters(b.source, 1);
        let program = run.program();
        let oracle = ddm_oracle::analyze(program, &AnalysisConfig::default(), Algorithm::Rta)
            .expect("oracle");
        for (_, class) in program.classes() {
            for member in &class.members {
                let spec = format!("{}::{}", class.name, member.name);
                let from_product =
                    explain(program, run.callgraph(), run.liveness(), &spec).expect("known member");
                let from_oracle = oracle.explain(program, &spec).expect("known member");
                assert_eq!(
                    from_product, from_oracle,
                    "{}: explanation of {spec} diverged from the oracle",
                    b.name
                );
            }
        }
    }
}

/// The execution stats record how the engine ran: one front-end job for
/// one TU, the bodies it walked, the summaries it replayed, and one
/// fixpoint and one scan.
#[test]
fn stats_record_engine_and_fastpath_routing() {
    let source = dead_data_members::benchmarks::suite()[0].source;
    let (_, _, stats) = run_counters(source, 1);
    assert_eq!(stats.jobs, 1, "one TU has one front-end job");
    assert!(stats.bodies_walked > 0);
    assert!(stats.summary_replays > 0);
    assert!(stats.callgraph_rounds > 0);
    assert_eq!(stats.scan_rounds, 1);
}
