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

/// The one timing harness of the `bench_*` drivers.
///
/// A sample is one [`ProjectPipeline::run`] at `jobs = 1` under an
/// enabled [`Telemetry`], so its rows are the product's own stage spans
/// and add up to the run's wall clock. The workspace has no external
/// dependencies, so the clock is `std::time::Instant`. Every round runs
/// each case once, in turn, after two warm-up rounds, so a change in host
/// speed during the measurement shifts every case alike instead of
/// skewing the comparison between them. Minima are the least noisy
/// estimator for deterministic CPU-bound work: a case reports the least
/// wall clock over its samples with that fastest run's stage rows, so the
/// stages add up to the wall they describe, and every other row as its
/// own minimum over the samples. Stage minima taken row by row would each
/// come from another run: on the 33k-function ladder program they summed
/// to 91 % of the least wall. The fastest run's other rows are noisy in
/// turn: its `callgraph` row put the ladder's exponent above 1.4 in 2 of
/// 30 smoke runs, against at most 1.21 for its minimum.
pub mod timing {
    use ddm_callgraph::Algorithm;
    use ddm_core::{AnalysisConfig, Engine, ProjectPipeline};
    use ddm_telemetry::{Telemetry, LANE_MAIN};
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    /// Every case's rows, rendered `<row>_ns`: the six top-level stage
    /// spans in pipeline order; their child spans, each summed over all
    /// its spans (the front end's four over the TUs it parsed;
    /// `liveness` is the scan with its union post-pass, or the stored
    /// liveness a replayed fixpoint takes); `wall`, the call to
    /// [`ProjectPipeline::run`] until it returns; `report`,
    /// `render_report(false)`; `drop`, dropping the returned handle; and
    /// `unattributed`, `wall` minus the stage rows.
    pub const ROWS: [&str; 16] = [
        "probe",
        "front_end",
        "link",
        "solve",
        "publish",
        "assemble",
        "parse",
        "model",
        "summary",
        "extract",
        "callgraph",
        "liveness",
        "wall",
        "report",
        "drop",
        "unattributed",
    ];

    /// How many of [`ROWS`] are stages, and how many are their children.
    const STAGES: usize = 6;

    /// Rounds run before the measured ones.
    const WARM_UP_ROUNDS: usize = 2;

    /// The index of the row named `name` in [`ROWS`].
    ///
    /// # Panics
    ///
    /// If there is no such row.
    pub fn row(name: &str) -> usize {
        ROWS.iter()
            .position(|r| *r == name)
            .unwrap_or_else(|| panic!("no row {name}"))
    }

    /// What one case analyses: a project under a configuration, with or
    /// without a cache directory.
    pub struct Case {
        /// `(file name, source)` per TU.
        pub inputs: Vec<(String, String)>,
        /// The analysis configuration.
        pub config: AnalysisConfig,
        /// The persistent cache directory, if the case uses one.
        pub cache: Option<PathBuf>,
    }

    impl Case {
        /// Runs the case once — RTA, one front-end job — under `telemetry`.
        fn run(&self, telemetry: &Telemetry) -> ProjectPipeline {
            ProjectPipeline::run(
                &self.inputs,
                self.config.clone(),
                Algorithm::Rta,
                1,
                Engine::Summary,
                self.cache.as_deref(),
                telemetry,
            )
            .expect("a bench project analyses cleanly")
        }
    }

    /// One case's rows (see [`time_runs`]) and what its fastest run
    /// observed.
    pub struct Timing {
        /// Nanoseconds per row of [`ROWS`].
        pub rows: [u64; 16],
        /// The run's telemetry: its counters, metrics and spans.
        pub telemetry: Telemetry,
        /// The run's report.
        pub report: String,
        /// The linked program's function count.
        pub functions: usize,
    }

    impl Timing {
        /// The row named `name`.
        pub fn ns(&self, name: &str) -> u64 {
            self.rows[row(name)]
        }
    }

    /// Times every case over `samples` interleaved rounds and returns, per
    /// case, its fastest run — that run's stage rows, `wall`,
    /// `unattributed`, telemetry and report — with every other row's
    /// minimum over the samples. `setup(i, case)` runs before each run of
    /// case `i`, outside the timed region: it may empty a cache directory,
    /// edit the inputs or run the case once untimed.
    pub fn time_runs(
        cases: &mut [Case],
        samples: usize,
        mut setup: impl FnMut(usize, &mut Case),
    ) -> Vec<Timing> {
        let mut best: Vec<Option<Timing>> = cases.iter().map(|_| None).collect();
        for round in 0..samples.max(1) + WARM_UP_ROUNDS {
            for (i, case) in cases.iter_mut().enumerate() {
                setup(i, case);
                let timing = sample(case);
                if round < WARM_UP_ROUNDS {
                    continue;
                }
                best[i] = Some(match best[i].take() {
                    None => timing,
                    Some(b) => {
                        let (mut fast, slow) = if timing.ns("wall") < b.ns("wall") {
                            (timing, b)
                        } else {
                            (b, timing)
                        };
                        for r in (STAGES..2 * STAGES).chain([row("report"), row("drop")]) {
                            fast.rows[r] = fast.rows[r].min(slow.rows[r]);
                        }
                        fast
                    }
                });
            }
        }
        best.into_iter()
            .map(|b| b.expect("every case ran a measured round"))
            .collect()
    }

    /// A `setup` for cases that keep no state between runs: one untimed
    /// run of the case itself, so no sample is taken in the wake of a
    /// bigger case. Timed right after a bigger program, a small one read
    /// up to twice as slow (the ladder's `small` after `huge`, six times).
    pub fn warm_up(_: usize, case: &mut Case) {
        drop(case.run(&Telemetry::disabled()));
    }

    /// One timed run of `case`, its rows read off its own spans.
    ///
    /// # Panics
    ///
    /// If the run's top-level spans are not the stage rows, in order.
    fn sample(case: &Case) -> Timing {
        let telemetry = Telemetry::enabled();
        let clock = Instant::now();
        let run = case.run(&telemetry);
        let wall = clock.elapsed();
        let clock = Instant::now();
        let report = run.render_report(false);
        let report_time = clock.elapsed();
        let functions = run.program().function_count();
        let clock = Instant::now();
        drop(run);
        let drop_time = clock.elapsed();

        let mut rows = [0; 16];
        let (mut stages, mut end) = (0, 0);
        for span in telemetry.spans().iter().filter(|s| s.lane == LANE_MAIN) {
            let name = span.name.split(" (").next().unwrap_or_default();
            if span.start_ns >= end {
                assert_eq!(name.replace(' ', "_"), ROWS[stages], "the stages in order");
                rows[stages] = span.dur_ns;
                (stages, end) = (stages + 1, span.start_ns + span.dur_ns);
                continue;
            }
            let child = match name {
                "liveness replay" | "union post-pass" | "liveness from snapshot" => "liveness",
                other => other,
            };
            if let Some(i) = ROWS[STAGES..2 * STAGES].iter().position(|r| *r == child) {
                rows[STAGES + i] += span.dur_ns;
            }
        }
        assert_eq!(stages, STAGES, "every run has the six stages");
        for (name, d) in [("wall", wall), ("report", report_time), ("drop", drop_time)] {
            rows[row(name)] = d.as_nanos() as u64;
        }
        rows[row("unattributed")] = rows[row("wall")] - rows[..STAGES].iter().sum::<u64>();
        Timing {
            rows,
            telemetry,
            report,
            functions,
        }
    }

    /// `ln(t2/t1) / ln(x2/x1)`: each row's empirical scaling exponent
    /// between two points at `x1` and `x2`; `None` where either time is
    /// zero.
    pub fn exponents((x1, a): (usize, &Timing), (x2, b): (usize, &Timing)) -> [Option<f64>; 16] {
        let dx = (x2 as f64 / x1 as f64).ln();
        std::array::from_fn(|r| {
            let (t1, t2) = (a.rows[r], b.rows[r]);
            (t1 > 0 && t2 > 0).then(|| (t2 as f64 / t1 as f64).ln() / dx)
        })
    }

    /// Renders rows as JSON object members: `"probe_ns": 123, …`.
    pub fn rows_json(rows: &[u64; 16]) -> String {
        let members: Vec<String> = ROWS
            .iter()
            .zip(rows)
            .map(|(row, ns)| format!("\"{row}_ns\": {ns}"))
            .collect();
        members.join(", ")
    }

    /// Renders exponents as JSON object members, `null` where undefined.
    pub fn exponents_json(exponents: &[Option<f64>; 16]) -> String {
        let members: Vec<String> = ROWS
            .iter()
            .zip(exponents)
            .map(|(row, e)| match e {
                Some(e) => format!("\"{row}\": {e:.3}"),
                None => format!("\"{row}\": null"),
            })
            .collect();
        members.join(", ")
    }

    /// Prints the points' rows as a table, a line per row and a column
    /// per point; with `x`, each point's swept quantity, a column per
    /// adjacent pair follows, holding the row's exponent.
    pub fn print_table(title: &str, names: &[&str], timings: &[&Timing], x: Option<&[usize]>) {
        let fits: Vec<[Option<f64>; 16]> = match x {
            Some(x) => (1..timings.len())
                .map(|i| exponents((x[i - 1], timings[i - 1]), (x[i], timings[i])))
                .collect(),
            None => Vec::new(),
        };
        let mut line = format!("{title:<16}");
        for name in names {
            line.push_str(&format!(" {name:>11}"));
        }
        for pair in names.windows(2).take(fits.len()) {
            line.push_str(&format!(" {:>13}", pair.join(">")));
        }
        println!("{line}");
        for (r, row) in ROWS.iter().enumerate() {
            let mut line = format!("{row:<16}");
            for t in timings {
                line.push_str(&format!(" {:>11.1?}", Duration::from_nanos(t.rows[r])));
            }
            for fit in &fits {
                match fit[r] {
                    Some(e) => line.push_str(&format!(" {e:>13.3}")),
                    None => line.push_str(&format!(" {:>13}", "-")),
                }
            }
            println!("{line}");
        }
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
    fn every_cache_state_times_the_six_stages_and_their_children() {
        use timing::Case;
        let class = "class Sensor { public: int reading; int stale; };\n";
        let inputs: Vec<(String, String)> = vec![
            (
                "main.cpp".to_string(),
                format!("{class}int poll(Sensor* s);\nint scale(int v);\nint main() {{ Sensor s; s.reading = 4; return scale(poll(&s)); }}\n"),
            ),
            ("poll.cpp".to_string(), format!("{class}int poll(Sensor* s) {{ return s->reading; }}\n")),
            ("scale.cpp".to_string(), "int scale(int v) { return v * 2; }\n".to_string()),
        ];
        let cache = std::env::temp_dir().join(format!("ddm-bench-timing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let case = |cache: Option<&std::path::Path>| Case {
            inputs: inputs.clone(),
            config: AnalysisConfig::default(),
            cache: cache.map(std::path::Path::to_path_buf),
        };
        // Cacheless, cold (the cache emptied first), warm, 1-changed.
        let mut cases = vec![
            case(None),
            case(Some(&cache)),
            case(Some(&cache)),
            case(Some(&cache)),
        ];
        let mut edition = 0;
        let timings = timing::time_runs(&mut cases, 1, |i, case| match i {
            1 => {
                let _ = std::fs::remove_dir_all(&cache);
            }
            3 => {
                edition += 1;
                case.inputs[2].1 = format!("{}int pad{edition}() {{ return 0; }}\n", inputs[2].1);
            }
            _ => {}
        });
        let _ = std::fs::remove_dir_all(&cache);

        // `time_runs` asserts that every sample's top-level spans are
        // these six, in this order.
        assert_eq!(
            timing::ROWS[..6],
            ["probe", "front_end", "link", "solve", "publish", "assemble"]
        );
        for (t, parsed) in timings.iter().zip([3, 3, 0, 1]) {
            let staged: u64 = t.rows[..6].iter().sum();
            assert_eq!(t.ns("unattributed"), t.ns("wall") - staged);
            assert_eq!(t.telemetry.counter("frontend/tus"), parsed);
            assert_eq!(
                t.ns("parse") > 0,
                parsed > 0,
                "parse spans sum over parsed TUs"
            );
            assert!(t.ns("front_end") >= t.ns("parse") + t.ns("summary"));
            assert_eq!(t.report, timings[0].report);
        }
    }

    #[test]
    fn paper_cell_formats_missing_values() {
        assert_eq!(paper_cell(Some(42)), "42");
        assert_eq!(paper_cell::<u64>(None), "—");
    }
}
