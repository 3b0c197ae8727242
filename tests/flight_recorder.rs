//! The flight recorder's core contract: the deterministic event class
//! is byte-identical across engines, cache state, and the project front
//! end's worker count —
//! the same discipline `Counters` already obeys — while turning the
//! recorder (and the metrics registry) on changes no analysis output.

use dead_data_members::analysis::{ProjectError, ProjectPipeline};
use dead_data_members::prelude::*;
use dead_data_members::telemetry::EventClass;
use std::path::PathBuf;

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

/// The committed multi-TU sample project, in sorted file order.
fn multi_tu_inputs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/benchmarks/programs/multi");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("multi-TU sample directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cpp"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 3, "multi-TU sample shrank");
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&p).expect("read multi TU");
            (name, source)
        })
        .collect()
}

/// Runs the single-file pipeline with the full recorder on and returns
/// (deterministic NDJSON, metrics JSON).
fn record_single(source: &str, engine: Engine) -> (String, String) {
    let telemetry = Telemetry::recording();
    AnalysisPipeline::with_config_telemetry(
        source,
        AnalysisConfig::default(),
        Algorithm::Rta,
        engine,
        &telemetry,
    )
    .expect("pipeline");
    (
        telemetry.events_ndjson(Some(EventClass::Deterministic)),
        telemetry.metrics_json(),
    )
}

/// Runs the project pipeline with the full recorder on.
fn record_project(
    inputs: &[(String, String)],
    jobs: usize,
    engine: Engine,
    cache: Option<&std::path::Path>,
) -> Result<(Telemetry, ProjectPipeline), ProjectError> {
    let telemetry = Telemetry::recording();
    let pipeline = ProjectPipeline::run(
        inputs,
        AnalysisConfig::default(),
        Algorithm::Rta,
        jobs,
        engine,
        cache,
        &telemetry,
    )?;
    Ok((telemetry, pipeline))
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddm_fr_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn det_stream_identical_across_jobs_and_engines_on_the_suite() {
    for (name, source) in bundled_programs() {
        let (reference, _) = record_single(&source, Engine::Summary);
        assert!(
            reference.contains("\"event\":\"classification\""),
            "{name}: no classification event recorded"
        );
        // One TU runs on one thread, so only the engine varies; the
        // multi-TU test below keeps the jobs dimension.
        let (stream, _) = record_single(&source, Engine::Walk);
        assert_eq!(
            stream, reference,
            "{name}: det stream diverged between engines"
        );
    }
}

#[test]
fn histogram_bucket_counts_identical_across_jobs_and_engines() {
    // The registry only holds deterministic quantities in single-file
    // mode (round delta sizes, candidate-set sizes, liveness counts),
    // so the whole rendered document — histogram buckets included — is
    // pinned byte-for-byte.
    for (name, source) in bundled_programs() {
        let (_, reference) = record_single(&source, Engine::Summary);
        assert!(
            reference.contains("callgraph/round_delta_fns"),
            "{name}: no round-delta histogram in metrics"
        );
        let (_, metrics) = record_single(&source, Engine::Walk);
        assert_eq!(
            metrics, reference,
            "{name}: metrics diverged between engines"
        );
    }
}

#[test]
fn det_stream_identical_across_cache_states_on_the_suite() {
    // Cold/warm cache runs are observably different (probe outcomes are
    // observational-class), but the deterministic stream may not move:
    // the linked model is rebuilt from module records either way.
    for (name, source) in bundled_programs().into_iter().take(4) {
        let inputs = vec![(format!("{name}.cpp"), source)];
        let cache = temp_cache(&name);
        let (cold, _) = record_project(&inputs, 1, Engine::Summary, Some(&cache)).unwrap();
        let (warm, _) = record_project(&inputs, 1, Engine::Summary, Some(&cache)).unwrap();
        assert!(
            warm.events_ndjson(Some(EventClass::Observational))
                .contains("tu_cache_hit"),
            "{name}: warm run did not probe the cache"
        );
        assert_eq!(
            cold.events_ndjson(Some(EventClass::Deterministic)),
            warm.events_ndjson(Some(EventClass::Deterministic)),
            "{name}: det stream moved between cold and warm cache"
        );
        let _ = std::fs::remove_dir_all(&cache);
    }
}

#[test]
fn multi_tu_det_stream_identical_across_jobs_engines_and_cache() {
    let inputs = multi_tu_inputs();
    let cache = temp_cache("multi");
    let (cold, _) = record_project(&inputs, 1, Engine::Summary, Some(&cache)).unwrap();
    let reference = cold.events_ndjson(Some(EventClass::Deterministic));
    assert!(
        reference.contains("\"event\":\"link_done\""),
        "no link event in the project det stream"
    );
    // Warm cache, both worker counts, then the cacheless walk engine.
    for jobs in [1, 8] {
        let (warm, _) = record_project(&inputs, jobs, Engine::Summary, Some(&cache)).unwrap();
        assert_eq!(
            warm.events_ndjson(Some(EventClass::Deterministic)),
            reference,
            "warm summary det stream diverged at jobs={jobs}"
        );
    }
    for jobs in [1, 8] {
        let (walk, _) = record_project(&inputs, jobs, Engine::Walk, None).unwrap();
        assert_eq!(
            walk.events_ndjson(Some(EventClass::Deterministic)),
            reference,
            "walk det stream diverged at jobs={jobs}"
        );
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn tu_summary_size_histogram_is_cache_invariant() {
    // The summary-size histogram is recorded for every module in input
    // order, not just the ones written back, so its bucket counts are a
    // deterministic quantity even though cache hit/miss counters move.
    let inputs = multi_tu_inputs();
    let cache = temp_cache("hist");
    let hist_line = |metrics: &str| -> String {
        metrics
            .lines()
            .find(|l| l.contains("frontend/tu_summary_bytes"))
            .expect("summary-size histogram present")
            .to_string()
    };
    let (cold, _) = record_project(&inputs, 1, Engine::Summary, Some(&cache)).unwrap();
    let (warm, _) = record_project(&inputs, 1, Engine::Summary, Some(&cache)).unwrap();
    assert!(warm.stats().tu_cache_hits > 0, "warm run must hit");
    assert_eq!(
        hist_line(&cold.metrics_json()),
        hist_line(&warm.metrics_json()),
        "summary-size buckets moved between cold and warm"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn recording_changes_no_output_and_no_counters() {
    for (name, source) in bundled_programs() {
        let plain = AnalysisPipeline::with_config_engine(
            &source,
            AnalysisConfig::default(),
            Algorithm::Rta,
            Engine::Summary,
        )
        .expect("pipeline");
        let baseline = Telemetry::enabled();
        AnalysisPipeline::with_config_telemetry(
            &source,
            AnalysisConfig::default(),
            Algorithm::Rta,
            Engine::Summary,
            &baseline,
        )
        .expect("pipeline");
        let recording = Telemetry::recording();
        let observed = AnalysisPipeline::with_config_telemetry(
            &source,
            AnalysisConfig::default(),
            Algorithm::Rta,
            Engine::Summary,
            &recording,
        )
        .expect("pipeline");
        assert_eq!(
            plain.report().to_string(),
            observed.report().to_string(),
            "{name}: the recorder changed the report"
        );
        assert_eq!(
            plain.liveness(),
            observed.liveness(),
            "{name}: the recorder changed the liveness"
        );
        assert_eq!(
            baseline.counters(),
            recording.counters(),
            "{name}: the recorder changed the deterministic counters"
        );
        // `--explain` reads program + callgraph + liveness, all compared
        // above via liveness/report; spot-check the rendered text too.
        let (_, class) = plain.program().classes().next().expect("a class");
        if let Some(member) = class.members.first() {
            let spec = format!("{}::{}", class.name, member.name);
            assert_eq!(
                explain(plain.program(), plain.callgraph(), plain.liveness(), &spec),
                explain(
                    observed.program(),
                    observed.callgraph(),
                    observed.liveness(),
                    &spec
                ),
                "{name}: the recorder changed --explain for {spec}"
            );
        }
    }
}

#[test]
fn chrome_trace_names_lanes_and_logs_cache_probes() {
    let inputs = multi_tu_inputs();
    let cache = temp_cache("trace");
    let (cold, _) = record_project(&inputs, 2, Engine::Summary, Some(&cache)).unwrap();
    let trace = cold.chrome_trace_json();
    dead_data_members::telemetry::json::validate(&trace)
        .unwrap_or_else(|e| panic!("trace is not valid JSON: {e}"));
    assert!(trace.contains("\"process_name\""), "no process_name metadata");
    assert!(trace.contains("\"thread_name\""), "no thread_name metadata");
    assert!(
        trace.contains("tu_cache_miss"),
        "cold project trace lacks cache-probe instants"
    );
    let (warm, _) = record_project(&inputs, 2, Engine::Summary, Some(&cache)).unwrap();
    assert!(
        warm.chrome_trace_json().contains("tu_cache_hit"),
        "warm project trace lacks cache-hit instants"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn event_classes_are_cleanly_tagged_and_filterable() {
    let (_, source) = &bundled_programs()[0];
    let telemetry = Telemetry::recording();
    AnalysisPipeline::with_config_telemetry(
        source,
        AnalysisConfig::default(),
        Algorithm::Rta,
        Engine::Summary,
        &telemetry,
    )
    .expect("pipeline");
    let det = telemetry.events_ndjson(Some(EventClass::Deterministic));
    let obs = telemetry.events_ndjson(Some(EventClass::Observational));
    let all = telemetry.events_ndjson(None);
    assert!(det.lines().all(|l| l.contains("\"class\":\"det\"")), "{det}");
    assert!(
        det.lines().all(|l| !l.contains("\"ts_us\"")),
        "a deterministic event carries a timestamp:\n{det}"
    );
    assert!(obs.lines().all(|l| l.contains("\"class\":\"obs\"")), "{obs}");
    assert_eq!(all.lines().count(), det.lines().count() + obs.lines().count());
    for line in all.lines() {
        dead_data_members::telemetry::json::validate(line)
            .unwrap_or_else(|e| panic!("event line is not valid JSON: {e}\n{line}"));
    }
}
