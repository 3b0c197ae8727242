//! Cache round-trip guarantees for the multi-TU project pipeline.
//!
//! The contract under test: a cached run — cold, fully warm, or warm
//! with one modified TU — produces the byte-identical report, the
//! byte-identical `--explain` text, and the byte-identical deterministic
//! counters as a cacheless run over the same sources, at any worker
//! count, and the cacheless run matches the `ddm-oracle` reference
//! analysis. The cache may only change *wall-clock*, never *output*. Damaged or version-skewed cache entries are detected,
//! discarded, recomputed, and overwritten.

use dead_data_members::analysis::{explain, AnalysisConfig, Engine, ProjectPipeline};
use dead_data_members::callgraph::Algorithm;
use dead_data_members::telemetry::Telemetry;
use std::path::{Path, PathBuf};

const HEADER: &str = "\
enum ShapeKind { KindCircle, KindRect };

class Shape {
public:
    Shape(int k) : kind(k), tag(0) { }
    virtual ~Shape() { }
    virtual int area() { return 0; }
    int kind;
    int tag;
};

class Circle : public Shape {
public:
    Circle(int r) : Shape(KindCircle), radius(r), cached(0) { }
    virtual int area() { return 3 * radius * radius; }
    int radius;
    int cached;
};
";

fn inputs() -> Vec<(String, String)> {
    vec![
        (
            "main.cpp".to_string(),
            format!(
                "{HEADER}int total_area(Shape* a, Shape* b);\nint classify(Shape* s);\n\
                 int main() {{\n    Shape* c = new Circle(2);\n    Shape* s = new Shape(1);\n\
                 \x20   int r = total_area(c, s) + classify(c);\n    delete c;\n    delete s;\n\
                 \x20   return r;\n}}"
            ),
        ),
        (
            "geom.cpp".to_string(),
            format!("{HEADER}int total_area(Shape* a, Shape* b) {{ return a->area() + b->area(); }}"),
        ),
        (
            "stats.cpp".to_string(),
            format!("{HEADER}int classify(Shape* s) {{ s->tag = 1; return s->kind; }}"),
        ),
    ]
}

/// A unique scratch cache directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ddm-cache-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(
    inputs: &[(String, String)],
    jobs: usize,
    cache: Option<&Path>,
    telemetry: &Telemetry,
) -> ProjectPipeline {
    ProjectPipeline::run(
        inputs,
        AnalysisConfig::default(),
        Algorithm::Rta,
        jobs,
        Engine::Summary,
        cache,
        telemetry,
    )
    .expect("project run")
}

const SPECS: [&str; 4] = ["Shape::kind", "Shape::tag", "Circle::radius", "Circle::cached"];

/// Every observable artifact of a run, as rendered text.
fn artifacts(p: &ProjectPipeline, telemetry: &Telemetry) -> (String, String, String) {
    let report = p.report().to_string();
    let mut explained = String::new();
    for spec in SPECS {
        explained.push_str(&explain(p.program(), p.callgraph(), p.liveness(), spec).unwrap());
    }
    let counters = format!("{:?}", telemetry.counters().rows());
    (report, explained, counters)
}

#[test]
fn cached_runs_match_cacheless_runs_for_every_engine_and_worker_count() {
    let inputs = inputs();
    for jobs in [1usize, 8] {
        let scratch = Scratch::new(&format!("matrix-{jobs}"));

        let bare_tel = Telemetry::enabled();
        let bare = run(&inputs, jobs, None, &bare_tel);
        let reference = artifacts(&bare, &bare_tel);

        // The reference analysis over the linked program agrees on
        // everything it computes.
        let program = bare.program();
        let oracle = ddm_oracle::analyze(program, &AnalysisConfig::default(), Algorithm::Rta)
            .expect("oracle");
        let mut explained = String::new();
        for spec in SPECS {
            explained.push_str(&oracle.explain(program, spec).unwrap());
        }
        assert_eq!(
            (
                oracle.report(program).to_string(),
                explained,
                format!("{:?}", oracle.counters.rows())
            ),
            (
                reference.0.clone(),
                reference.1.clone(),
                format!("{:?}", ddm_oracle::comparable(&bare_tel.counters()).rows())
            ),
            "oracle vs cacheless: jobs={jobs}"
        );

        let cold_tel = Telemetry::enabled();
        let cold = run(&inputs, jobs, Some(scratch.path()), &cold_tel);
        assert_eq!(
            artifacts(&cold, &cold_tel),
            reference,
            "cold cached vs cacheless: jobs={jobs}"
        );

        let warm_tel = Telemetry::enabled();
        let warm = run(&inputs, jobs, Some(scratch.path()), &warm_tel);
        assert_eq!(
            artifacts(&warm, &warm_tel),
            reference,
            "warm cached vs cacheless: jobs={jobs}"
        );
        assert_eq!(warm_tel.stats().tu_cache_hits, 3);
        assert_eq!(warm_tel.stats().tus_summarized, 0);
    }
}

#[test]
fn one_changed_tu_reanalyzes_exactly_that_tu() {
    let scratch = Scratch::new("one-changed");
    let inputs = inputs();
    run(&inputs, 8, Some(scratch.path()), &Telemetry::enabled());

    // Edit one TU: classify now also reads `tag`, livening it.
    let mut edited = inputs.clone();
    edited[2].1 = format!("{HEADER}int classify(Shape* s) {{ s->tag = 1; return s->kind + s->tag; }}");

    let warm_tel = Telemetry::enabled();
    let warm = run(&edited, 8, Some(scratch.path()), &warm_tel);
    let stats = warm_tel.stats();
    assert_eq!(stats.tu_cache_hits, 2, "unchanged TUs must hit");
    assert_eq!(stats.tu_cache_misses, 1, "the edited TU must miss");
    assert_eq!(stats.tus_parsed, 1, "only the edited TU is re-parsed");
    assert_eq!(stats.tus_summarized, 1, "only the edited TU is re-summarized");

    // The warm partial recomputation must be indistinguishable from a
    // from-scratch cacheless run over the edited sources.
    let fresh_tel = Telemetry::enabled();
    let fresh = run(&edited, 8, None, &fresh_tel);
    assert_eq!(artifacts(&warm, &warm_tel), artifacts(&fresh, &fresh_tel));
    assert!(warm.report().to_string().contains("live tag"));
}

#[test]
fn renamed_file_with_identical_content_still_hits() {
    let scratch = Scratch::new("renamed");
    let inputs = inputs();
    run(&inputs, 1, Some(scratch.path()), &Telemetry::enabled());

    let mut renamed = inputs.clone();
    renamed[1].0 = "geometry_v2.cpp".to_string();
    let tel = Telemetry::enabled();
    run(&renamed, 1, Some(scratch.path()), &tel);
    assert_eq!(tel.stats().tu_cache_hits, 3, "cache keys are content, not paths");
}

/// Damages every cache entry via `f`, then asserts a warm run detects
/// the damage, recomputes all TUs, and leaves valid entries behind.
fn damaged_entries_are_recovered(test: &str, f: impl Fn(&str) -> String) {
    let scratch = Scratch::new(test);
    let inputs = inputs();
    let cold_tel = Telemetry::enabled();
    let cold = run(&inputs, 1, Some(scratch.path()), &cold_tel);
    let cold_art = artifacts(&cold, &cold_tel);

    // Damage the per-TU summary entries and drop the analysis snapshot:
    // this test proves the JSON probe's detect-and-recompute path, which
    // a surviving snapshot would otherwise short-circuit (snapshot
    // damage has its own torture tests).
    let _ = std::fs::remove_file(scratch.path().join("analysis.snap"));
    let entries: Vec<PathBuf> = std::fs::read_dir(scratch.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".json"))
        .collect();
    assert_eq!(entries.len(), 3);
    for path in &entries {
        let doc = std::fs::read_to_string(path).unwrap();
        std::fs::write(path, f(&doc)).unwrap();
    }

    let warm_tel = Telemetry::enabled();
    let warm = run(&inputs, 1, Some(scratch.path()), &warm_tel);
    let stats = warm_tel.stats();
    assert_eq!(stats.tu_cache_hits, 0, "damaged entries must not hit");
    assert_eq!(stats.tu_cache_invalidations, 3);
    assert_eq!(stats.tus_summarized, 3, "every TU is recomputed");
    assert_eq!(artifacts(&warm, &warm_tel), cold_art);

    // The damaged entries were overwritten with valid ones.
    let again_tel = Telemetry::enabled();
    run(&inputs, 1, Some(scratch.path()), &again_tel);
    assert_eq!(again_tel.stats().tu_cache_hits, 3);
    assert_eq!(again_tel.stats().tu_cache_invalidations, 0);
}

#[test]
fn corrupted_cache_entries_are_discarded_and_recomputed() {
    damaged_entries_are_recovered("corrupt", |_| "{]".to_string());
}

#[test]
fn truncated_cache_entries_are_discarded_and_recomputed() {
    damaged_entries_are_recovered("truncate", |doc| doc[..doc.len() / 2].to_string());
}

#[test]
fn version_mismatched_cache_entries_are_discarded_and_recomputed() {
    damaged_entries_are_recovered("version", |doc| {
        let skewed = doc.replacen("\"version\":1", "\"version\":999", 1);
        assert_ne!(&skewed, doc, "entry must carry the format version");
        skewed
    });
}

#[test]
fn fingerprint_changes_invalidate_cached_entries() {
    let scratch = Scratch::new("fingerprint");
    let inputs = inputs();
    run(&inputs, 1, Some(scratch.path()), &Telemetry::enabled());

    // PTA refinement changes what per-TU summaries contain, so its
    // fingerprint must not accept RTA-era entries.
    let tel = Telemetry::enabled();
    ProjectPipeline::run(
        &inputs,
        AnalysisConfig::default(),
        Algorithm::Pta,
        1,
        Engine::Summary,
        Some(scratch.path()),
        &tel,
    )
    .expect("pta project run");
    assert_eq!(tel.stats().tu_cache_hits, 0);
    assert_eq!(tel.stats().tu_cache_invalidations, 3);
}
