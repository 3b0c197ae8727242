//! The telemetry layer's core contract: deterministic counters are
//! bit-identical across engines, enabling telemetry changes no analysis
//! output, and `--explain` renders the same witness text whichever
//! engine produced the liveness. One TU runs on one thread, so the
//! jobs dimension of these contracts is pinned by the project-level
//! matrices (`flight_recorder`, `project_cache`).

use dead_data_members::prelude::*;

/// Every `.cpp` program bundled with the benchmark suite, in sorted order.
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
            let source = std::fs::read_to_string(&p).expect("read benchmark program");
            (name, source)
        })
        .collect()
}

fn run_counters(source: &str, engine: Engine) -> Counters {
    let telemetry = Telemetry::enabled();
    AnalysisPipeline::with_config_telemetry(
        source,
        AnalysisConfig::default(),
        Algorithm::Rta,
        engine,
        &telemetry,
    )
    .expect("pipeline");
    telemetry.counters()
}

#[test]
fn counters_identical_across_jobs_and_engines() {
    for (name, source) in bundled_programs() {
        let reference = run_counters(&source, Engine::Summary);
        assert_eq!(
            run_counters(&source, Engine::Walk),
            reference,
            "{name}: counters diverged between engines"
        );
    }
}

#[test]
fn enabling_telemetry_changes_no_analysis_output() {
    for (name, source) in bundled_programs() {
        let plain = AnalysisPipeline::with_config_engine(
            &source,
            AnalysisConfig::default(),
            Algorithm::Rta,
            Engine::Summary,
        )
        .expect("pipeline");
        let telemetry = Telemetry::enabled();
        let observed = AnalysisPipeline::with_config_telemetry(
            &source,
            AnalysisConfig::default(),
            Algorithm::Rta,
            Engine::Summary,
            &telemetry,
        )
        .expect("pipeline");
        assert_eq!(
            plain.report().to_string(),
            observed.report().to_string(),
            "{name}: telemetry changed the report"
        );
        assert_eq!(
            plain.liveness(),
            observed.liveness(),
            "{name}: telemetry changed the liveness"
        );
    }
}

#[test]
fn explain_is_byte_identical_across_engines() {
    for (name, source) in bundled_programs() {
        let walk = AnalysisPipeline::with_config_engine(
            &source,
            AnalysisConfig::default(),
            Algorithm::Rta,
            Engine::Walk,
        )
        .expect("walk pipeline");
        let summary = AnalysisPipeline::with_config_engine(
            &source,
            AnalysisConfig::default(),
            Algorithm::Rta,
            Engine::Summary,
        )
        .expect("summary pipeline");
        for (_, class) in walk.program().classes() {
            for member in &class.members {
                let spec = format!("{}::{}", class.name, member.name);
                let from_walk =
                    explain(walk.program(), walk.callgraph(), walk.liveness(), &spec)
                        .expect("known member");
                let from_summary = explain(
                    summary.program(),
                    summary.callgraph(),
                    summary.liveness(),
                    &spec,
                )
                .expect("known member");
                assert_eq!(
                    from_walk, from_summary,
                    "{name}: explanation of {spec} diverged between engines"
                );
            }
        }
    }
}

#[test]
fn stats_record_engine_and_fastpath_routing() {
    let (_, source) = &bundled_programs()[0];
    let telemetry = Telemetry::enabled();
    AnalysisPipeline::with_config_telemetry(
        source,
        AnalysisConfig::default(),
        Algorithm::Rta,
        Engine::Walk,
        &telemetry,
    )
    .expect("pipeline");
    let stats = telemetry.stats();
    assert_eq!(stats.engine, "walk");
    assert_eq!(stats.jobs, 1, "one TU has one front-end job");
    assert!(stats.bodies_walked > 0);
}
