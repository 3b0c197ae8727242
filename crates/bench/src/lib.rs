//! # ddm-bench
//!
//! Harness that regenerates every table and figure of the paper's
//! evaluation section against this reproduction's benchmark suite:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — benchmark characteristics |
//! | `figure3` | Figure 3 — % dead data members (static) |
//! | `table2` | Table 2 — execution characteristics (bytes) |
//! | `figure4` | Figure 4 — % object space occupied by dead members |
//! | `ablation_callgraph` | §3.1 — call-graph precision ablation |
//!
//! Absolute byte counts differ from the paper (the originals ran real
//! 1990s workloads; the suite runs scaled-down deterministic ones), but
//! the harness prints the paper's number next to the measured one so the
//! *shape* comparisons — who is highest, where high-water marks equal
//! total space, how weak the static/dynamic correlation is — are
//! immediate.

pub mod fuzz;

use ddm_benchmarks::Benchmark;
use ddm_callgraph::Algorithm;
use ddm_core::{AnalysisConfig, Engine, ProjectError, ProjectPipeline, SizeofPolicy};
use ddm_dynamic::{profile_trace, HeapProfile, Interpreter, RunConfig, RuntimeError};
use ddm_telemetry::{Counters, Telemetry};

/// Everything measured about one benchmark: the static report and the
/// dynamic profile.
#[derive(Debug)]
pub struct Measured {
    /// Benchmark name.
    pub name: &'static str,
    /// Non-blank source lines.
    pub loc: usize,
    /// Total classes.
    pub classes: usize,
    /// Used classes.
    pub used_classes: usize,
    /// Data members in used classes.
    pub members: usize,
    /// Dead members in used classes.
    pub dead_members: usize,
    /// The Figure 3 percentage.
    pub dead_pct: f64,
    /// The Table 2 numbers.
    pub profile: HeapProfile,
    /// The paper's published numbers.
    pub paper: ddm_benchmarks::PaperRow,
}

/// Errors from measuring a benchmark.
#[derive(Debug)]
pub enum MeasureError {
    /// The static pipeline failed.
    Pipeline(ProjectError),
    /// Execution failed.
    Runtime(RuntimeError),
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Pipeline(e) => write!(f, "pipeline: {e}"),
            MeasureError::Runtime(e) => write!(f, "runtime: {e}"),
        }
    }
}

impl std::error::Error for MeasureError {}

/// Analyzes and executes one benchmark, producing all measurements.
///
/// # Errors
///
/// Returns [`MeasureError`] if analysis or execution fails (the shipped
/// suite never fails).
pub fn measure(b: &Benchmark) -> Result<Measured, MeasureError> {
    let run = b.analyze().map_err(MeasureError::Pipeline)?;
    let report = run.report();
    let exec = Interpreter::new(run.program())
        .run(&RunConfig::default())
        .map_err(MeasureError::Runtime)?;
    let profile = profile_trace(run.program(), &exec.trace, run.liveness());
    Ok(Measured {
        name: b.name,
        loc: b.loc(),
        classes: report.class_count(),
        used_classes: report.used_class_count(),
        members: report.members_in_used_classes(),
        dead_members: report.dead_members_in_used_classes(),
        dead_pct: report.dead_percentage(),
        profile,
        paper: b.paper,
    })
}

/// Measures the whole suite, in paper order.
///
/// # Errors
///
/// Fails on the first benchmark that cannot be measured.
pub fn measure_suite() -> Result<Vec<Measured>, MeasureError> {
    measure_suite_jobs(1)
}

/// Measures the whole suite with up to `jobs` benchmarks in flight at
/// once. The returned rows are in paper order regardless of completion
/// order, and each row is identical to what [`measure_suite`] produces —
/// batch parallelism never changes a measurement, only wall-clock time.
///
/// # Errors
///
/// Fails on the earliest (paper-order) benchmark that cannot be
/// measured.
pub fn measure_suite_jobs(jobs: usize) -> Result<Vec<Measured>, MeasureError> {
    let suite = ddm_benchmarks::suite();
    if jobs <= 1 {
        return suite.iter().map(measure).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let jobs = jobs.min(suite.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<Measured, MeasureError>>>> =
        suite.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(b) = suite.get(i) else { break };
                *slots[i].lock().expect("bench slot poisoned") = Some(measure(b));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("bench slot poisoned")
                .expect("every benchmark is measured exactly once")
        })
        .collect()
}

/// The logical CPU count the kernel reports (1 if unknowable).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Renders the uniform host-metadata object every BENCH_*.json header
/// embeds: the logical CPU count. Timing entries are only comparable
/// across runs when this context rides along with the numbers, so every
/// writer — and the `bench_report` history — uses this one renderer.
pub fn host_meta_json() -> String {
    format!("{{\"cpus\": {}}}", host_cpus())
}

/// The analysis configuration the benchmark suite is measured under —
/// shared by `bench_suite` and the `bench_report` counter gate so the
/// golden baselines are captured under exactly the measured config.
pub fn suite_analysis_config() -> AnalysisConfig {
    AnalysisConfig {
        assume_safe_downcasts: true,
        sizeof_policy: SizeofPolicy::Ignore,
        ..Default::default()
    }
}

/// The deterministic counters of one end-to-end analysis of `source`
/// under [`suite_analysis_config`]. The counters are deterministic, so
/// one capture is exact, not sampled.
pub fn capture_counters(source: &str) -> Counters {
    let telemetry = Telemetry::enabled();
    ProjectPipeline::run(
        &[("program.cpp".to_string(), source.to_string())],
        suite_analysis_config(),
        Algorithm::Rta,
        1,
        Engine::Summary,
        None,
        &telemetry,
    )
    .expect("suite program analyses cleanly");
    telemetry.counters()
}

/// Parses a `--jobs N` pair out of the process arguments (shared by the
/// driver binaries); defaults to 1.
pub fn jobs_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" {
            return args
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    eprintln!("error: --jobs needs a positive integer");
                    std::process::exit(2);
                });
        }
    }
    1
}

/// Formats an optional paper value for a comparison column.
pub fn paper_cell<T: std::fmt::Display>(v: Option<T>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "—".to_string(),
    }
}

/// Renders a simple ASCII bar for the figure binaries.
pub fn bar(pct: f64, scale: f64) -> String {
    let n = ((pct * scale).round() as usize).min(60);
    "#".repeat(n)
}

/// Minimal wall-clock benchmark harness.
///
/// The workspace has no external dependencies, so the bench drivers time
/// with `std::time::Instant` instead of an external framework: warm up,
/// take `samples` single-shot samples, and report the minimum and median
/// (the minimum is the least noisy estimator for deterministic CPU-bound
/// work).
pub mod timing {
    use std::time::{Duration, Instant};

    /// Times `f` with two warm-up runs and `samples` measured runs.
    pub fn time<T>(samples: usize, mut f: impl FnMut() -> T) -> (Duration, Duration) {
        for _ in 0..2 {
            std::hint::black_box(f());
        }
        let mut runs: Vec<Duration> = (0..samples.max(1))
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                t0.elapsed()
            })
            .collect();
        runs.sort();
        (runs[0], runs[runs.len() / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_richards_matches_known_values() {
        let b = ddm_benchmarks::by_name("richards").unwrap();
        let m = measure(&b).unwrap();
        assert_eq!(m.dead_members, 0);
        assert_eq!(m.profile.dead_member_space, 0);
        assert_eq!(m.profile.high_water_mark, m.profile.object_space);
    }

    #[test]
    fn bar_is_bounded() {
        assert_eq!(bar(0.0, 2.0), "");
        assert_eq!(bar(10.0, 2.0).len(), 20);
        assert_eq!(bar(1000.0, 2.0).len(), 60);
    }

    #[test]
    fn paper_cell_formats_missing_values() {
        assert_eq!(paper_cell(Some(42)), "42");
        assert_eq!(paper_cell::<u64>(None), "—");
    }
}
