//! Cache round-trip guarantees for the multi-TU project pipeline.
//!
//! The contract under test: a cached run — cold, fully warm, or warm
//! with one modified TU — produces the byte-identical report, the
//! byte-identical `--explain` text, and the byte-identical deterministic
//! counters as a cacheless run over the same sources, at any worker
//! count, and the cacheless run matches the `ddm-oracle` reference
//! analysis. The cache may only change *wall-clock*, never *output*.
//! The cache is one file, `analysis.snap`: a damaged, version-skewed or
//! hand-crafted one is detected, discarded, recomputed, and replaced,
//! and after any successful run the directory holds that file alone.

use dead_data_members::analysis::{
    explain, AnalysisConfig, AnalysisSnapshot, Engine, ProjectError, ProjectPipeline, SizeofPolicy,
};
use dead_data_members::callgraph::Algorithm;
use dead_data_members::hierarchy::{SymCgStep, SymFunc};
use dead_data_members::telemetry::Telemetry;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

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
    run_with(inputs, AnalysisConfig::default(), jobs, cache, telemetry).expect("project run")
}

fn run_with(
    inputs: &[(String, String)],
    config: AnalysisConfig,
    jobs: usize,
    cache: Option<&Path>,
    telemetry: &Telemetry,
) -> Result<ProjectPipeline, ProjectError> {
    ProjectPipeline::run(
        inputs,
        config,
        Algorithm::Rta,
        jobs,
        Engine::Summary,
        cache,
        telemetry,
    )
}

/// The names of the files in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
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
        assert_eq!(warm_tel.counter("cache/hits"), 3);
        assert_eq!(warm_tel.counter("frontend/tus"), 0);
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
    assert_eq!(warm_tel.counter("cache/hits"), 2, "unchanged TUs must hit");
    assert_eq!(
        warm_tel.counter("frontend/tus"),
        1,
        "the edited TU alone misses and is re-parsed and re-summarized"
    );

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
    assert_eq!(
        tel.counter("cache/hits"),
        3,
        "cache keys are content, not paths"
    );
}

/// `Telemetry::stats()` is the view the repository benchmark's edit
/// checks read (a leaf edit misses once and replays the fixpoint, a
/// body edit misses once and re-solves, a header edit misses every TU).
/// Its three fields are the registry's counters, with the values each
/// run shape has always had.
#[test]
fn the_stats_view_reads_the_registry_on_every_run_shape() {
    let scratch = Scratch::new("stats-view");
    let base = inputs();
    let mut leaf = base.clone();
    leaf[2].1.push_str("\nint stats_pad() { return 1; }\n");
    let mut body = leaf.clone();
    body[2].1 = body[2].1.replace("s->tag = 1;", "s->tag = 2;");
    let header: Vec<(String, String)> = body
        .iter()
        .map(|(name, source)| (name.clone(), source.replace("tag(0)", "tag(3)")))
        .collect();
    let cache = Some(scratch.path());
    // (hits, misses, reused functions); the program reaches 8 functions.
    for (label, tus, cache, want) in [
        ("cacheless", &base, None, (0, 3, 0)),
        ("cold", &base, cache, (0, 3, 0)),
        ("warm", &base, cache, (3, 0, 8)),
        ("leaf edit", &leaf, cache, (2, 1, 8)),
        ("body edit", &body, cache, (2, 1, 0)),
        ("header edit", &header, cache, (0, 3, 0)),
    ] {
        let tel = Telemetry::enabled();
        run(tus, 1, cache, &tel);
        let stats = tel.stats();
        let view = (
            stats.tu_cache_hits,
            stats.tu_cache_misses,
            stats.snapshot_reused_fns,
        );
        let registry = (
            tel.counter("cache/hits"),
            tel.counter("frontend/tus"),
            tel.counter("snapshot/reused_fns"),
        );
        assert_eq!(view, registry, "{label}");
        assert_eq!(view, want, "{label}");
    }
}

/// Replaces the published snapshot by `damage(snapshot image)`, then
/// asserts that a warm run rejects it for `reason`, recomputes every
/// TU with the cold artifacts, and publishes the cold run's snapshot
/// again, which serves the next run.
fn damaged_snapshot_is_recovered(test: &str, reason: &str, damage: impl Fn(&[u8]) -> Vec<u8>) {
    let scratch = Scratch::new(test);
    let inputs = inputs();
    let cold_tel = Telemetry::enabled();
    let cold = run(&inputs, 1, Some(scratch.path()), &cold_tel);
    let cold_art = artifacts(&cold, &cold_tel);

    let snap = scratch.path().join("analysis.snap");
    let original = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, damage(&original)).unwrap();

    let warm_tel = Telemetry::recording();
    let warm = run(&inputs, 1, Some(scratch.path()), &warm_tel);
    assert_eq!(
        warm_tel.counter("cache/hits"),
        0,
        "a damaged snapshot must not hit"
    );
    assert_eq!(warm_tel.counter("cache/invalidations"), 3);
    assert_eq!(
        warm_tel.counter("frontend/tus"),
        3,
        "every TU is recomputed"
    );
    assert_eq!(artifacts(&warm, &warm_tel), cold_art);
    let events = warm_tel.events_ndjson(None);
    let rejected = format!("\"event\":\"snapshot_rejected\",\"ts_us\":");
    let line = events
        .lines()
        .find(|l| l.contains(&rejected))
        .unwrap_or_else(|| panic!("no snapshot_rejected event:\n{events}"));
    assert!(
        line.ends_with(&format!("\"reason\":\"{reason}\"}}")),
        "the snapshot is rejected as {reason}: {line}"
    );

    // The damaged file was replaced with the cold run's image, and it
    // alone serves the next run.
    assert!(
        std::fs::read(&snap).unwrap() == original,
        "the snapshot was not restored"
    );
    assert_eq!(listing(scratch.path()), ["analysis.snap"]);
    let again_tel = Telemetry::enabled();
    run(&inputs, 1, Some(scratch.path()), &again_tel);
    assert_eq!(again_tel.counter("cache/hits"), 3);
    assert_eq!(again_tel.counter("cache/invalidations"), 0);
}

/// Decodes a snapshot image, lets `edit` change it, and seals it again
/// with a valid checksum: only the checks behind the envelope can
/// catch what `edit` did.
fn resealed(image: &[u8], edit: impl FnOnce(&mut AnalysisSnapshot)) -> Vec<u8> {
    let mut snap = AnalysisSnapshot::decode(image).expect("the snapshot decodes");
    edit(&mut snap);
    snap.encode()
}

/// Makes every module's first free function call a function no module
/// defines.
fn call_a_ghost(snap: &mut AnalysisSnapshot) {
    for module in &mut snap.modules {
        module.free_fns[0]
            .summary
            .as_mut()
            .expect("a summarized function")
            .cg_steps
            .push(SymCgStep::Call(SymFunc::Free("ghost".to_string())));
    }
}

#[test]
fn corrupted_cache_entries_are_discarded_and_recomputed() {
    damaged_snapshot_is_recovered("corrupt", "corrupt", |_| {
        (0..64u8).map(|b| b.wrapping_mul(37)).collect()
    });
}

#[test]
fn truncated_cache_entries_are_discarded_and_recomputed() {
    let cuts: [fn(usize) -> usize; 3] = [|n| n / 4, |n| n / 2, |n| n - 1];
    for (k, cut) in cuts.into_iter().enumerate() {
        damaged_snapshot_is_recovered(&format!("truncate{k}"), "corrupt", |image| {
            image[..cut(image.len())].to_vec()
        });
    }
}

#[test]
fn version_mismatched_cache_entries_are_discarded_and_recomputed() {
    damaged_snapshot_is_recovered("version", "version_skew", |image| {
        // Bytes 8..12 hold the little-endian format version.
        let mut image = image.to_vec();
        let version = u32::from_le_bytes(image[8..12].try_into().unwrap());
        image[8..12].copy_from_slice(&(version + 1).to_le_bytes());
        image
    });
}

#[test]
fn bit_flipped_cache_entries_are_discarded_and_recomputed() {
    damaged_snapshot_is_recovered("bitflip", "corrupt", |image| {
        let mut image = image.to_vec();
        let mid = 20 + (image.len() - 20) / 2;
        image[mid] ^= 0x08;
        image
    });
}

/// Each module moved into the next TU's slot: every module is genuine,
/// but none sits under its own source hash.
#[test]
fn entries_copied_under_another_hash_are_discarded_and_recomputed() {
    damaged_snapshot_is_recovered("copied", "corrupt", |image| {
        resealed(image, |snap| snap.modules.rotate_left(1))
    });
}

/// A resealed snapshot whose modules call a function no module defines
/// passes every envelope check; `TuModule::validate` must reject it
/// before the link, which would otherwise panic on the dangling
/// reference.
#[test]
fn resealed_snapshot_with_dangling_references_is_discarded_and_recomputed() {
    damaged_snapshot_is_recovered("dangling", "corrupt", |image| resealed(image, call_a_ghost));
}

/// The same resealed snapshot under `ddm serve`: the first `analyze`
/// must publish an epoch whose report equals the one-shot CLI's.
#[test]
fn serve_analyzes_over_a_resealed_snapshot() {
    let scratch = Scratch::new("serve-dangling");
    let sources = scratch.path().join("src");
    let cache = scratch.path().join("cache");
    std::fs::create_dir_all(&sources).unwrap();
    let files: Vec<String> = inputs()
        .iter()
        .map(|(name, source)| {
            let file = sources.join(name);
            std::fs::write(&file, source).unwrap();
            file.to_string_lossy().into_owned()
        })
        .collect();
    let ddm = || Command::new(env!("CARGO_BIN_EXE_ddm"));
    let cold = ddm()
        .args(&files)
        .arg("--cache-dir")
        .arg(&cache)
        .output()
        .expect("run ddm");
    assert!(cold.status.success(), "{cold:?}");
    let snap = cache.join("analysis.snap");
    std::fs::write(
        &snap,
        resealed(&std::fs::read(&snap).unwrap(), call_a_ghost),
    )
    .unwrap();

    let mut daemon = ddm()
        .arg("serve")
        .arg("--cache-dir")
        .arg(&cache)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn ddm serve");
    let mut requests = daemon.stdin.take().unwrap();
    let mut responses = BufReader::new(daemon.stdout.take().unwrap());
    let mut round_trip = |request: &str| {
        writeln!(requests, "{request}").unwrap();
        requests.flush().unwrap();
        let mut line = String::new();
        responses.read_line(&mut line).unwrap();
        line
    };
    let list = files
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(",");
    let analyzed = round_trip(&format!("{{\"cmd\":\"analyze\",\"files\":[{list}]}}"));
    assert!(analyzed.contains("\"ok\":true"), "{analyzed}");
    assert!(analyzed.contains("\"epoch\":1"), "{analyzed}");
    let report = round_trip("{\"cmd\":\"report\"}");
    let output = dead_data_members::telemetry::json::parse(report.trim())
        .expect("response json")
        .get("output")
        .and_then(|v| v.as_str().map(str::to_string))
        .unwrap_or_else(|| panic!("no report output: {report}"));
    assert_eq!(output, String::from_utf8(cold.stdout).unwrap());
    round_trip("{\"cmd\":\"shutdown\"}");
    drop(requests);
    assert!(daemon.wait().unwrap().success());
}

/// Every edit replaces the one file: 200 one-TU edits against one
/// directory leave `analysis.snap` alone, with each edit hitting the
/// two TUs it left unchanged.
#[test]
fn repeated_edits_leave_one_cache_file() {
    let scratch = Scratch::new("edits");
    let mut edited = inputs();
    run(&edited, 1, Some(scratch.path()), &Telemetry::disabled());
    for k in 0..200 {
        let t = k % edited.len();
        edited[t]
            .1
            .push_str(&format!("int pad_{k}() {{ return {k}; }}\n"));
        let tel = Telemetry::enabled();
        run(&edited, 1, Some(scratch.path()), &tel);
        assert_eq!(tel.counter("cache/hits"), 2, "edit {k}");
    }
    assert_eq!(listing(scratch.path()), ["analysis.snap"]);
}

/// The snapshot serves modules by source hash, whatever the TU count or
/// order: adding a TU, removing it again, reversing the TU list and
/// repeating one TU's text under another name each hit every TU whose
/// text the last run saw, and each run matches a cacheless one.
#[test]
fn tu_lists_that_grow_shrink_or_reorder_hit_every_unchanged_tu() {
    let scratch = Scratch::new("tu-lists");
    let base = inputs();
    run(&base, 1, Some(scratch.path()), &Telemetry::disabled());
    let mut added = base.clone();
    added.push((
        "extra.cpp".to_string(),
        format!("{HEADER}int spare_area(Shape* s) {{ return s->area(); }}"),
    ));
    let reversed: Vec<(String, String)> = base.iter().rev().cloned().collect();
    let mut repeated = reversed.clone();
    repeated.push(("geom_copy.cpp".to_string(), base[1].1.clone()));
    for (label, tus, hits) in [
        ("added", &added, 3),
        ("removed", &base, 3),
        ("reversed", &reversed, 3),
        ("repeated", &repeated, 4),
    ] {
        let tel = Telemetry::enabled();
        let warm = run(tus, 2, Some(scratch.path()), &tel);
        assert_eq!(tel.counter("cache/hits"), hits, "{label}");
        assert_eq!(
            tel.counter("frontend/tus"),
            tus.len() as u64 - hits,
            "{label}"
        );
        let bare_tel = Telemetry::enabled();
        let bare = run(tus, 2, None, &bare_tel);
        assert_eq!(
            artifacts(&warm, &tel),
            artifacts(&bare, &bare_tel),
            "{label}"
        );
        assert_eq!(listing(scratch.path()), ["analysis.snap"], "{label}");
    }
}

/// Link-time options key the fixpoint, not the modules: a run under
/// `SizeofPolicy::Ignore` after a default run takes every module from
/// the snapshot but solves the fixpoint afresh, and the next run under
/// the same policy replays it.
#[test]
fn a_link_time_option_keeps_the_modules_and_resolves_the_fixpoint() {
    let scratch = Scratch::new("sizeof");
    let inputs = inputs();
    run(&inputs, 1, Some(scratch.path()), &Telemetry::disabled());
    let ignore = AnalysisConfig {
        sizeof_policy: SizeofPolicy::Ignore,
        ..AnalysisConfig::default()
    };
    let bare_tel = Telemetry::enabled();
    let bare = run_with(&inputs, ignore.clone(), 1, None, &bare_tel).unwrap();
    for (label, warm_starts) in [("after default", 0), ("after ignore", 1)] {
        let tel = Telemetry::enabled();
        let warm = run_with(&inputs, ignore.clone(), 1, Some(scratch.path()), &tel).unwrap();
        assert_eq!(tel.counter("cache/hits"), 3, "{label}");
        assert_eq!(tel.counter("frontend/tus"), 0, "{label}");
        assert_eq!(tel.counter("snapshot/warm_starts"), warm_starts, "{label}");
        assert_eq!(
            tel.counter("snapshot/reused_fns") > 0,
            warm_starts > 0,
            "{label}"
        );
        assert_eq!(
            artifacts(&warm, &tel),
            artifacts(&bare, &bare_tel),
            "{label}"
        );
    }
}

/// A run that fails at link publishes nothing: the previous snapshot
/// stays byte for byte.
#[test]
fn a_run_that_fails_at_link_leaves_the_snapshot_untouched() {
    let scratch = Scratch::new("link-error");
    let inputs = inputs();
    run(&inputs, 1, Some(scratch.path()), &Telemetry::disabled());
    let snap = scratch.path().join("analysis.snap");
    let before = std::fs::read(&snap).unwrap();
    let mut conflicting = inputs.clone();
    conflicting.push((
        "rival.cpp".to_string(),
        format!("{HEADER}int classify(Shape* s) {{ return 7; }}"),
    ));
    let err = run_with(
        &conflicting,
        AnalysisConfig::default(),
        1,
        Some(scratch.path()),
        &Telemetry::disabled(),
    )
    .err()
    .expect("conflicting definitions must fail to link");
    assert!(matches!(err, ProjectError::Link(_)), "{err}");
    assert!(
        std::fs::read(&snap).unwrap() == before,
        "a failed run rewrote the snapshot"
    );
    assert_eq!(listing(scratch.path()), ["analysis.snap"]);
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
    assert_eq!(tel.counter("cache/hits"), 0);
    assert_eq!(tel.counter("cache/invalidations"), 3);
}

/// A process lists a cache directory for dangling temps at most once per
/// 60-second sweep gate: a temp that aged past the gate after the first
/// in-process run survives a second run inside the window, and the next
/// `ddm` process, which lists on open, removes it.
#[test]
fn one_process_lists_a_cache_directory_once_per_sweep_gate() {
    let scratch = Scratch::new("sweep-window");
    let inputs = inputs();
    run(&inputs, 1, Some(scratch.path()), &Telemetry::disabled());

    let temp = scratch.path().join("analysis.snap.tmp.99999");
    std::fs::write(&temp, b"DDMSNAP\0half-written").expect("plant a temp");
    std::fs::File::options()
        .write(true)
        .open(&temp)
        .expect("open temp")
        .set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(120))
        .expect("age temp");
    run(&inputs, 1, Some(scratch.path()), &Telemetry::disabled());
    assert!(temp.exists(), "listed twice within the gate");

    let sources = scratch.path().join("src");
    std::fs::create_dir_all(&sources).expect("mkdir");
    let mut ddm = std::process::Command::new(env!("CARGO_BIN_EXE_ddm"));
    for (name, source) in &inputs {
        let file = sources.join(name);
        std::fs::write(&file, source).expect("write source");
        ddm.arg(file);
    }
    let out = ddm
        .arg("--cache-dir")
        .arg(scratch.path())
        .output()
        .expect("run ddm");
    assert!(out.status.success(), "{out:?}");
    assert!(!temp.exists(), "a new process did not sweep the aged temp");
}
