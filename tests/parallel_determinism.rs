//! Batch mode (`AnalysisPipeline::run_suite`) runs whole programs on
//! worker threads; its answers must be invariant in its worker count and
//! identical to individually constructed runs. One analysis runs on one
//! thread, so this is the single-TU pipeline's only jobs dimension.

use ddm_bench::suite_analysis_config;
use dead_data_members::prelude::*;

#[test]
fn batch_suite_is_invariant_in_its_worker_count() {
    let inputs: Vec<(String, String)> = dead_data_members::benchmarks::suite()
        .into_iter()
        .map(|b| (b.name.to_string(), b.source.to_string()))
        .collect();
    let render = |jobs: usize| -> Vec<(String, String)> {
        AnalysisPipeline::run_suite(&inputs, &suite_analysis_config(), Algorithm::Rta, jobs)
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
        let solo = AnalysisPipeline::with_config(source, suite_analysis_config(), Algorithm::Rta)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&solo.report().to_string(), report, "{name}");
    }
}
