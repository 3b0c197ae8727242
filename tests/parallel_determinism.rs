//! Batch mode (`AnalysisPipeline::run_suite`) runs whole programs on
//! worker threads; its answers must be invariant in its worker count and
//! identical to individually constructed runs. One analysis runs on one
//! thread, so this is the single-TU pipeline's only jobs dimension.

use dead_data_members::prelude::*;

/// Every `.cpp` program shipped with the benchmark suite, in a fixed
/// (sorted) order, read from the source tree.
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
            let source = std::fs::read_to_string(&p).expect("readable program");
            (name, source)
        })
        .collect()
}

/// The suite's analysis configuration (down-casts verified safe,
/// `sizeof` ignorable — matching `Benchmark::analyze`).
fn suite_config() -> AnalysisConfig {
    AnalysisConfig {
        assume_safe_downcasts: true,
        sizeof_policy: SizeofPolicy::Ignore,
        ..Default::default()
    }
}

#[test]
fn batch_suite_is_invariant_in_its_worker_count() {
    let inputs = bundled_programs();
    let render = |jobs: usize| -> Vec<(String, String)> {
        AnalysisPipeline::run_suite(&inputs, &suite_config(), Algorithm::Rta, jobs)
            .into_iter()
            .map(|(name, run)| {
                let run = run.unwrap_or_else(|e| panic!("{name}: {e}"));
                (name, run.report().to_string())
            })
            .collect()
    };
    let one = render(1);
    assert_eq!(one, render(2));
    assert_eq!(one, render(8));
    // And the batch answers agree with individually constructed runs.
    for (name, report) in &one {
        let source = &inputs.iter().find(|(n, _)| n == name).unwrap().1;
        let solo = AnalysisPipeline::with_config(source, suite_config(), Algorithm::Rta)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&solo.report().to_string(), report, "{name}");
    }
}
