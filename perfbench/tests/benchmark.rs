//! The benchmark's own tests: deterministic inputs, a tiny pass of every
//! workload that reports every listed metric with no failed operation,
//! the edit kinds' pipeline paths, and the committed verdicts.

use ddm_callgraph::Algorithm;
use ddm_core::{AnalysisConfig, Engine, ProjectPipeline};
use ddm_telemetry::{json, Telemetry};
use perfbench::gen::{edit_script, Edit, EditKind, EditableProject, Sizes, DEFAULT_SEED};
use perfbench::verdict::{committed_lines, one_shot, oracle_check};
use perfbench::workloads::{inputs, run, Options, Workload};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{tag}-{}", std::process::id()))
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let doc = json::parse_lenient(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(json::Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(json::Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn generated_inputs_are_byte_identical_for_a_seed() {
    for workload in Workload::ALL {
        let a = inputs(workload, &Sizes::FULL, 7);
        assert_eq!(a, inputs(workload, &Sizes::FULL, 7), "{}", workload.name());
        assert_ne!(a, inputs(workload, &Sizes::FULL, 8), "{}", workload.name());
    }
    assert_eq!(edit_script(7, 24, 256, true), edit_script(7, 24, 256, true));
    assert_ne!(edit_script(7, 24, 256, true), edit_script(8, 24, 256, true));
    assert!(edit_script(7, 24, 256, false)
        .iter()
        .all(|e| e.kind != EditKind::Header));
}

#[test]
fn tiny_pass_of_every_workload_reports_every_metric_and_no_failures() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 5,
                seconds: 0.4,
                trace,
                sizes: Sizes::TINY,
                work: scratch(workload.name()),
                trace_out: None,
            };
            let outcome = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(!opts.work.exists(), "the run removes its scratch directory");
            assert!(outcome.attempted > 0, "{}", workload.name());
            assert_eq!(outcome.failed, 0, "{} trace={trace}", workload.name());
            assert!(outcome.correct, "{} trace={trace}", workload.name());
            let printed: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let want = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&printed, want, "{} trace={trace}", workload.name());
            if trace {
                // Layer self times plus the residual account for the
                // operations' wall time.
                let value = |name: &str| {
                    outcome
                        .metrics
                        .iter()
                        .find(|m| m.name == name)
                        .expect(name)
                        .value
                };
                let wall = value("project.op_wall_ns");
                let layers: f64 = outcome
                    .metrics
                    .iter()
                    .filter(|m| {
                        m.unit == "ns"
                            && !m.name.starts_with("serve.")
                            && m.name != "project.op_wall_ns"
                    })
                    .map(|m| m.value)
                    .sum();
                assert!(
                    wall > 0.0 && (layers - wall).abs() <= wall * 1e-9,
                    "{layers} vs {wall}"
                );
            } else {
                assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{outcome:?}");
            }
            let line = json::parse_lenient(&perfbench::outcome_json(&outcome))
                .expect("result line parses");
            assert_eq!(line.get("failed").and_then(json::Value::as_int), Some(0));
        }
    }
}

#[test]
fn edit_kinds_take_their_pipeline_paths_and_keep_the_verdict() {
    let project = &inputs(Workload::EditLoop, &Sizes::TINY, 3)[0].1;
    let (base, verdict) = one_shot(project).expect("base analyses");
    let class = base
        .callgraph()
        .instantiated()
        .filter_map(|c| {
            base.program()
                .class(c)
                .name
                .strip_prefix('K')?
                .parse::<usize>()
                .ok()
        })
        .min()
        .expect("an instantiated header class");
    let mut editable = EditableProject::new(project, class).expect("edit points");
    let cache = scratch("paths");
    let analyse = |inputs: &[(String, String)]| {
        let telemetry = Telemetry::enabled();
        let run = ProjectPipeline::run(
            inputs,
            AnalysisConfig::default(),
            Algorithm::Rta,
            1,
            Engine::Summary,
            Some(&cache),
            &telemetry,
        )
        .expect("project analyses");
        let got =
            perfbench::verdict::Verdict::of(run.program(), run.liveness(), telemetry.counters());
        (telemetry.stats(), got)
    };
    analyse(&editable.project());
    let tus = editable.tu_count() as u64;
    let edits = [
        (EditKind::Leaf, 1),
        (EditKind::Body, 2),
        (EditKind::Leaf, 0),
        (EditKind::Header, 0),
        (EditKind::Body, 0),
        (EditKind::Leaf, 3),
    ];
    for (k, (kind, tu)) in edits.into_iter().enumerate() {
        editable.apply(Edit { kind, tu }, k as u64 + 1);
        let (stats, got) = analyse(&editable.project());
        assert_eq!(got, verdict, "{} edit changed the verdict", kind.name());
        match kind {
            EditKind::Leaf => {
                assert_eq!(stats.tu_cache_misses, 1);
                assert!(
                    stats.snapshot_reused_fns > 0,
                    "leaf edits replay the fixpoint"
                );
            }
            EditKind::Body => {
                assert_eq!(stats.tu_cache_misses, 1);
                assert_eq!(stats.snapshot_reused_fns, 0, "body edits re-solve");
            }
            EditKind::Header => assert_eq!(stats.tu_cache_misses, tus),
        }
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn committed_verdicts_match_and_pass_the_interpreter_oracle() {
    let committed = committed_lines().expect("committed verdicts");
    let mut lines = 0;
    let mut executed = 0;
    for workload in Workload::ALL {
        for (name, project) in inputs(workload, &Sizes::FULL, DEFAULT_SEED) {
            let (snapshot, verdict) = one_shot(&project).expect("input analyses");
            let line = verdict.line(workload.name(), &name);
            assert!(committed.contains(&line), "not committed: {line}");
            lines += 1;
            let observed = oracle_check(&snapshot).unwrap_or_else(|e| panic!("{name}: {e}"));
            executed += usize::from(observed.is_some());
        }
    }
    assert_eq!(
        committed.len(),
        lines,
        "the file lists exactly the default inputs"
    );
    assert!(
        executed * 4 >= lines * 3,
        "most inputs execute: {executed} of {lines}"
    );
}
