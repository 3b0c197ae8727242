//! Cache round-trip guarantees for the multi-TU project pipeline.
//!
//! The contract under test: a cached run — cold, fully warm, or warm
//! with one modified TU — produces the byte-identical report, the
//! byte-identical `--explain` text, and the byte-identical deterministic
//! counters as a cacheless run over the same sources, at any worker
//! count, and the cacheless run matches the `ddm-oracle` reference
//! analysis. The cache may only change *wall-clock*, never *output*.
//! Damaged, version-skewed, misplaced and hand-crafted `tu-*.bin`
//! entries are detected, discarded, recomputed, and overwritten.

use dead_data_members::analysis::{
    config_fingerprint, explain, AnalysisConfig, Engine, ProjectPipeline,
};
use dead_data_members::callgraph::Algorithm;
use dead_data_members::hierarchy::{decode_entry, encode_entry, SymCgStep, SymFunc};
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

/// The `tu-*.bin` entries in `dir`, sorted by file name.
fn entry_paths(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "bin"))
        .collect();
    entries.sort();
    entries
}

/// Replaces entry `i` of the three by `damage(i, entries)`, where
/// `entries` holds each entry's source hash and image, then asserts
/// that a warm run rejects every entry for `reason`, recomputes all
/// TUs with the cold artifacts, and writes valid entries back.
fn damaged_entries_are_recovered(
    test: &str,
    reason: &str,
    damage: impl Fn(usize, &[(u64, Vec<u8>)]) -> Vec<u8>,
) {
    let scratch = Scratch::new(test);
    let inputs = inputs();
    let cold_tel = Telemetry::enabled();
    let cold = run(&inputs, 1, Some(scratch.path()), &cold_tel);
    let cold_art = artifacts(&cold, &cold_tel);

    // Damage the per-TU entries and drop the analysis snapshot: this
    // test proves the entry probe's detect-and-recompute path, which a
    // surviving snapshot would otherwise short-circuit (snapshot
    // damage has its own torture tests).
    let snap = scratch.path().join("analysis.snap");
    std::fs::remove_file(&snap).unwrap();
    let entries = entry_paths(scratch.path());
    assert_eq!(entries.len(), 3);
    let originals: Vec<(u64, Vec<u8>)> = entries
        .iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_str().unwrap();
            let hash = u64::from_str_radix(name.strip_prefix("tu-").unwrap(), 16).unwrap();
            (hash, std::fs::read(p).unwrap())
        })
        .collect();
    for (i, path) in entries.iter().enumerate() {
        std::fs::write(path, damage(i, &originals)).unwrap();
    }

    let warm_tel = Telemetry::recording();
    let warm = run(&inputs, 1, Some(scratch.path()), &warm_tel);
    let stats = warm_tel.stats();
    assert_eq!(stats.tu_cache_hits, 0, "damaged entries must not hit");
    assert_eq!(stats.tu_cache_invalidations, 3);
    assert_eq!(stats.tus_summarized, 3, "every TU is recomputed");
    assert_eq!(artifacts(&warm, &warm_tel), cold_art);
    let events = warm_tel.events_ndjson(None);
    assert_eq!(
        events.matches(&format!("\"reason\":\"{reason}\"")).count(),
        3,
        "every entry is rejected as {reason}:\n{events}"
    );

    // The damaged entries were overwritten with the cold run's images,
    // and they alone serve the next run.
    for (path, (_, original)) in entries.iter().zip(&originals) {
        let rewritten = std::fs::read(path).unwrap();
        assert!(rewritten == *original, "write-back must restore {path:?}");
    }
    std::fs::remove_file(&snap).unwrap();
    let again_tel = Telemetry::enabled();
    run(&inputs, 1, Some(scratch.path()), &again_tel);
    assert_eq!(again_tel.stats().tu_cache_hits, 3);
    assert_eq!(again_tel.stats().tu_cache_invalidations, 0);
}

#[test]
fn corrupted_cache_entries_are_discarded_and_recomputed() {
    damaged_entries_are_recovered("corrupt", "corrupt", |i, _| {
        (0..64u8)
            .map(|b| b.wrapping_mul(37).wrapping_add(i as u8))
            .collect()
    });
}

#[test]
fn truncated_cache_entries_are_discarded_and_recomputed() {
    let cuts: [fn(usize) -> usize; 3] = [|n| n / 4, |n| n / 2, |n| n - 1];
    for (k, cut) in cuts.into_iter().enumerate() {
        damaged_entries_are_recovered(&format!("truncate{k}"), "corrupt", |i, entries| {
            let image = &entries[i].1;
            image[..cut(image.len())].to_vec()
        });
    }
}

#[test]
fn version_mismatched_cache_entries_are_discarded_and_recomputed() {
    damaged_entries_are_recovered("version", "version_skew", |i, entries| {
        // Bytes 8..12 hold the little-endian format version.
        let mut image = entries[i].1.clone();
        let version = u32::from_le_bytes(image[8..12].try_into().unwrap());
        image[8..12].copy_from_slice(&(version + 1).to_le_bytes());
        image
    });
}

#[test]
fn bit_flipped_cache_entries_are_discarded_and_recomputed() {
    damaged_entries_are_recovered("bitflip", "corrupt", |i, entries| {
        let mut image = entries[i].1.clone();
        let mid = 20 + (image.len() - 20) / 2;
        image[mid] ^= 0x08;
        image
    });
}

#[test]
fn entries_copied_under_another_hash_are_discarded_and_recomputed() {
    damaged_entries_are_recovered("copied", "source_hash", |i, entries| {
        entries[(i + 1) % entries.len()].1.clone()
    });
}

#[test]
fn resealed_entries_with_dangling_references_are_discarded_and_recomputed() {
    damaged_entries_are_recovered("dangling", "corrupt", |i, entries| {
        // Decode the real entry, make one free function call a function
        // no module defines, and seal it again with a valid checksum:
        // only `TuModule::validate` can catch it.
        let (hash, image) = &entries[i];
        let fingerprint = config_fingerprint(Algorithm::Rta);
        let mut module = decode_entry(image, &fingerprint, *hash).expect("entry decodes");
        let summary = module.free_fns[0]
            .summary
            .as_mut()
            .expect("a summarized function");
        summary
            .cg_steps
            .push(SymCgStep::Call(SymFunc::Free("ghost".to_string())));
        encode_entry(&module, &fingerprint)
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
