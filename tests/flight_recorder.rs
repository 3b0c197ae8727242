//! The flight recorder's core contract: the deterministic event class
//! is byte-identical across cache state and the project front end's
//! worker count — the same discipline `Counters` already obeys — while
//! turning the recorder (and the metrics registry) on changes no
//! analysis output.

use dead_data_members::analysis::{Engine, ProjectError, ProjectPipeline};
use dead_data_members::benchmarks::suite;
use dead_data_members::prelude::*;
use dead_data_members::telemetry::EventClass;
use std::path::PathBuf;

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

/// Runs the project pipeline with the full recorder on.
fn record_project(
    inputs: &[(String, String)],
    jobs: usize,
    cache: Option<&std::path::Path>,
) -> Result<(Telemetry, ProjectPipeline), ProjectError> {
    let telemetry = Telemetry::recording();
    let pipeline = ProjectPipeline::run(
        inputs,
        AnalysisConfig::default(),
        Algorithm::Rta,
        jobs,
        Engine::Summary,
        cache,
        &telemetry,
    )?;
    Ok((telemetry, pipeline))
}

/// Runs one source as a one-TU project under `telemetry`.
fn run_source(source: &str, telemetry: &Telemetry) -> ProjectPipeline {
    let inputs = [("input.cpp".to_string(), source.to_string())];
    ProjectPipeline::run(
        &inputs,
        AnalysisConfig::default(),
        Algorithm::Rta,
        1,
        Engine::Summary,
        None,
        telemetry,
    )
    .expect("pipeline")
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddm_fr_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn det_stream_identical_across_jobs_on_the_suite() {
    for b in suite() {
        let name = b.name;
        let inputs = vec![(format!("{name}.cpp"), b.source.to_string())];
        let (one, _) = record_project(&inputs, 1, None).unwrap();
        let reference = one.events_ndjson(Some(EventClass::Deterministic));
        assert!(
            reference.contains("\"event\":\"classification\""),
            "{name}: no classification event recorded"
        );
        let (eight, _) = record_project(&inputs, 8, None).unwrap();
        assert_eq!(
            eight.events_ndjson(Some(EventClass::Deterministic)),
            reference,
            "{name}: det stream diverged between jobs 1 and 8"
        );
    }
}

#[test]
fn histogram_bucket_counts_identical_across_jobs() {
    // A cacheless run's registry only holds deterministic quantities
    // (round delta sizes, candidate-set sizes, summary sizes, liveness
    // counts), so the whole rendered document — histogram buckets
    // included — is pinned byte-for-byte.
    for b in suite() {
        let name = b.name;
        let inputs = vec![(format!("{name}.cpp"), b.source.to_string())];
        let (one, _) = record_project(&inputs, 1, None).unwrap();
        let reference = one.metrics_json();
        assert!(
            reference.contains("callgraph/round_delta_fns"),
            "{name}: no round-delta histogram in metrics"
        );
        let (eight, _) = record_project(&inputs, 8, None).unwrap();
        assert_eq!(
            eight.metrics_json(),
            reference,
            "{name}: metrics diverged between jobs 1 and 8"
        );
    }
}

#[test]
fn det_stream_identical_across_cache_states_on_the_suite() {
    // Cold/warm cache runs are observably different (probe outcomes are
    // observational-class), but the deterministic stream may not move:
    // the linked model is rebuilt from module records either way.
    for b in suite().into_iter().take(4) {
        let name = b.name;
        let cache = temp_cache(name);
        let inputs = vec![(format!("{name}.cpp"), b.source.to_string())];
        let (cold, _) = record_project(&inputs, 1, Some(&cache)).unwrap();
        let (warm, _) = record_project(&inputs, 1, Some(&cache)).unwrap();
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
fn multi_tu_det_stream_identical_across_jobs_and_cache() {
    let inputs = multi_tu_inputs();
    let cache = temp_cache("multi");
    let (cold, _) = record_project(&inputs, 1, Some(&cache)).unwrap();
    let reference = cold.events_ndjson(Some(EventClass::Deterministic));
    assert!(
        reference.contains("\"event\":\"link_done\""),
        "no link event in the project det stream"
    );
    // Warm cache and cacheless, both worker counts.
    for jobs in [1, 8] {
        let (warm, _) = record_project(&inputs, jobs, Some(&cache)).unwrap();
        assert_eq!(
            warm.events_ndjson(Some(EventClass::Deterministic)),
            reference,
            "warm det stream diverged at jobs={jobs}"
        );
        let (cacheless, _) = record_project(&inputs, jobs, None).unwrap();
        assert_eq!(
            cacheless.events_ndjson(Some(EventClass::Deterministic)),
            reference,
            "cacheless det stream diverged at jobs={jobs}"
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
    let (cold, _) = record_project(&inputs, 1, Some(&cache)).unwrap();
    let (warm, _) = record_project(&inputs, 1, Some(&cache)).unwrap();
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
    for b in suite() {
        let (name, source) = (b.name, b.source);
        let plain = ProjectPipeline::with_config(source, AnalysisConfig::default(), Algorithm::Rta)
            .expect("pipeline");
        let baseline = Telemetry::enabled();
        run_source(source, &baseline);
        let recording = Telemetry::recording();
        let observed = run_source(source, &recording);
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
    let (cold, _) = record_project(&inputs, 2, Some(&cache)).unwrap();
    let trace = cold.chrome_trace_json();
    dead_data_members::telemetry::json::validate(&trace)
        .unwrap_or_else(|e| panic!("trace is not valid JSON: {e}"));
    assert!(trace.contains("\"process_name\""), "no process_name metadata");
    assert!(trace.contains("\"thread_name\""), "no thread_name metadata");
    assert!(
        trace.contains("tu_cache_miss"),
        "cold project trace lacks cache-probe instants"
    );
    let (warm, _) = record_project(&inputs, 2, Some(&cache)).unwrap();
    assert!(
        warm.chrome_trace_json().contains("tu_cache_hit"),
        "warm project trace lacks cache-hit instants"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn event_classes_are_cleanly_tagged_and_filterable() {
    let source = suite()[0].source;
    let telemetry = Telemetry::recording();
    run_source(source, &telemetry);
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
