//! # perfbench
//!
//! The repository's benchmark: four workloads driven through the public
//! API of `ddm-core`, every answer checked against an expected verdict,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one. `BENCHMARK.md` next to this package says why each
//! workload exists and how to read a traced run.

pub mod gen;
pub mod stats;
pub mod trace;
pub mod verdict;
pub mod workloads;

use workloads::Outcome;

/// Renders an outcome as the one-line JSON object the benchmark prints
/// last.
pub fn outcome_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
