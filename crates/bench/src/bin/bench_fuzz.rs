//! `bench_fuzz` — corpus-scale differential fuzzing driver.
//!
//! Sweeps seeded adversarial generator configurations (see
//! [`ddm_bench::fuzz`]) through the oracle matrix — jobs {1, 8} and
//! the `ddm-oracle` reference analysis, plus (on a configurable fraction
//! of cases) the persistent cache at cold/warm/1-changed × jobs {1, 8} —
//! byte-comparing reports, `--explain` output, and deterministic
//! counters. Any divergence is shrunk (config bisection, then chunk
//! delta-debugging) and emitted as self-contained `.cpp` repro files
//! plus the exact `ddm` invocations that disagree.
//!
//! ```text
//! bench_fuzz [--seed-range A..B] [--shape NAME] [--sweep-jobs N]
//!            [--full-every N] [--repro-dir DIR] [--json] [--smoke]
//! ```
//!
//! `--seed-range A..B` selects the seed block (default `0..2000`).
//! `--full-every N` runs the cached half of the matrix on every Nth
//! case (default 5; `1` = always). `--json` writes `BENCH_fuzz.json`.
//! `--smoke` sweeps a small fixed seed block under a wall-clock
//! ceiling and writes `BENCH_fuzz_smoke.json` — the CI gate.

use ddm_bench::fuzz::{case_for_seed_in, run_case, shrink_divergence, CaseResult, FuzzCase};
use ddm_bench::host_meta_json;
use ddm_benchmarks::generator::{FuzzShape, FUZZ_SHAPES};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wall-clock ceiling for `--smoke` (generation + whole sweep).
const SMOKE_CEILING: Duration = Duration::from_secs(60);

/// The fixed seed block `--smoke` sweeps: two full shape cycles per
/// matrix flavour.
const SMOKE_SEEDS: std::ops::Range<u64> = 0..70;

/// The flag table: `(flag, value placeholder, help)` — the `--help`
/// text is rendered from it, so help and parser cannot drift.
const FLAGS: &[(&str, &str, &str)] = &[
    (
        "--seed-range",
        "<A..B>",
        "seed block to sweep, half-open (default 0..2000)",
    ),
    (
        "--shape",
        "<name>",
        "restrict to one shape: benign|unions|casts|diamonds|deadcode|odr|odr-conflict",
    ),
    (
        "--sweep-jobs",
        "<n>",
        "worker threads for the sweep itself (default 8)",
    ),
    (
        "--full-every",
        "<n>",
        "run the cached matrix on every Nth case (default 5)",
    ),
    (
        "--repro-dir",
        "<dir>",
        "where shrunk repros are written (default fuzz-repros)",
    ),
    ("--json", "", "write BENCH_fuzz.json (BENCH_fuzz_smoke.json with --smoke)"),
    (
        "--smoke",
        "",
        "fixed small seed block under a wall-clock ceiling (CI gate)",
    ),
    ("--help", "", "show this help"),
];

fn usage() -> String {
    let mut out = String::from("usage: bench_fuzz [options]\n\noptions:\n");
    let width = FLAGS
        .iter()
        .map(|(name, arg, _)| name.len() + if arg.is_empty() { 0 } else { arg.len() + 1 })
        .max()
        .unwrap_or(0);
    for (name, arg, help) in FLAGS {
        let left = if arg.is_empty() {
            (*name).to_string()
        } else {
            format!("{name} {arg}")
        };
        let _ = writeln!(out, "  {left:<width$}  {help}");
    }
    out
}

struct Options {
    seed_range: std::ops::Range<u64>,
    shapes: Vec<FuzzShape>,
    sweep_jobs: usize,
    full_every: u64,
    repro_dir: PathBuf,
    json: bool,
    smoke: bool,
}

/// Takes the next argument as `flag`'s value; anything missing or
/// `-`-leading fails loudly instead of being swallowed.
fn take_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    match args.next() {
        Some(v) if !v.starts_with('-') => Ok(v),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// Parses `A..B` into a non-empty half-open range.
fn parse_seed_range(text: &str) -> Result<std::ops::Range<u64>, String> {
    let (a, b) = text
        .split_once("..")
        .ok_or_else(|| format!("--seed-range wants `A..B`, got `{text}`"))?;
    let lo: u64 = a
        .parse()
        .map_err(|_| format!("--seed-range start `{a}` is not a number"))?;
    let hi: u64 = b
        .parse()
        .map_err(|_| format!("--seed-range end `{b}` is not a number"))?;
    if lo >= hi {
        return Err(format!(
            "--seed-range {lo}..{hi} is empty or inverted (need start < end)"
        ));
    }
    Ok(lo..hi)
}

fn parse_shape(name: &str) -> Result<FuzzShape, String> {
    FUZZ_SHAPES
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| {
            let all: Vec<&str> = FUZZ_SHAPES.iter().map(|s| s.name()).collect();
            format!("unknown shape `{name}` (one of: {})", all.join(", "))
        })
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        seed_range: 0..2000,
        shapes: FUZZ_SHAPES.to_vec(),
        sweep_jobs: 8,
        full_every: 5,
        repro_dir: PathBuf::from("fuzz-repros"),
        json: false,
        smoke: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed-range" => {
                opts.seed_range = parse_seed_range(&take_value(&mut args, "--seed-range")?)?;
            }
            "--shape" => {
                opts.shapes = vec![parse_shape(&take_value(&mut args, "--shape")?)?];
            }
            "--sweep-jobs" => {
                let v = take_value(&mut args, "--sweep-jobs")?;
                opts.sweep_jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--sweep-jobs wants a positive integer, got `{v}`"))?;
            }
            "--full-every" => {
                let v = take_value(&mut args, "--full-every")?;
                opts.full_every = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--full-every wants a positive integer, got `{v}`"))?;
            }
            "--repro-dir" => {
                opts.repro_dir = PathBuf::from(take_value(&mut args, "--repro-dir")?);
            }
            "--json" => opts.json = true,
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    if opts.smoke {
        opts.seed_range = SMOKE_SEEDS;
        opts.full_every = opts.full_every.min(7);
    }
    Ok(opts)
}

#[derive(Default, Clone)]
struct ShapeTally {
    cases: u64,
    full_matrix: u64,
    error_outcomes: u64,
}

struct SweepOutcome {
    tallies: Vec<(FuzzShape, ShapeTally)>,
    diverged: Vec<FuzzCase>,
}

/// Sweeps `seeds` across `sweep_jobs` workers. Divergent cases are
/// collected, not shrunk here — shrinking re-runs the matrix many
/// times and is done once, on the smallest seed, after the sweep.
fn sweep(opts: &Options, scratch: &std::path::Path) -> SweepOutcome {
    let seeds: Vec<u64> = opts.seed_range.clone().collect();
    let next = AtomicUsize::new(0);
    let tallies: Mutex<Vec<(FuzzShape, ShapeTally)>> = Mutex::new(
        opts.shapes
            .iter()
            .map(|&s| (s, ShapeTally::default()))
            .collect(),
    );
    let diverged: Mutex<Vec<FuzzCase>> = Mutex::new(Vec::new());
    let workers = opts.sweep_jobs.min(seeds.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                let case = case_for_seed_in(seed, &opts.shapes);
                let full = seed % opts.full_every == 0;
                let result = run_case(&case, scratch, full);
                let mut t = tallies.lock().unwrap();
                let entry = t
                    .iter_mut()
                    .find(|(s, _)| *s == case.config.shape)
                    .expect("shape tallied");
                entry.1.cases += 1;
                if full {
                    entry.1.full_matrix += 1;
                }
                match result {
                    CaseResult::Agree { error_outcome } => {
                        if error_outcome {
                            entry.1.error_outcomes += 1;
                        }
                    }
                    CaseResult::Diverged(d) => {
                        drop(t);
                        eprintln!(
                            "DIVERGENCE seed={seed} shape={}: {} vs {}",
                            case.config.shape.name(),
                            d.baseline.label,
                            d.other.label
                        );
                        diverged.lock().unwrap().push(case);
                    }
                }
            });
        }
    });

    let mut diverged = diverged.into_inner().unwrap();
    diverged.sort_by_key(|c| c.seed);
    SweepOutcome {
        tallies: tallies.into_inner().unwrap(),
        diverged,
    }
}

fn render_json(opts: &Options, outcome: &SweepOutcome, elapsed: Duration) -> String {
    let total: u64 = outcome.tallies.iter().map(|(_, t)| t.cases).sum();
    let full: u64 = outcome.tallies.iter().map(|(_, t)| t.full_matrix).sum();
    let errors: u64 = outcome.tallies.iter().map(|(_, t)| t.error_outcomes).sum();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"ddm differential fuzz\",\n");
    let _ = writeln!(out, "  \"host\": {},", host_meta_json());
    let _ = writeln!(
        out,
        "  \"seed_range\": \"{}..{}\",",
        opts.seed_range.start, opts.seed_range.end
    );
    let _ = writeln!(out, "  \"cases\": {total},");
    let _ = writeln!(out, "  \"full_matrix_cases\": {full},");
    let _ = writeln!(out, "  \"error_outcome_cases\": {errors},");
    let _ = writeln!(out, "  \"divergences\": {},", outcome.diverged.len());
    let _ = writeln!(out, "  \"elapsed_ms\": {},", elapsed.as_millis());
    out.push_str("  \"shapes\": [\n");
    for (i, (shape, t)) in outcome.tallies.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"shape\": \"{}\", \"cases\": {}, \"full_matrix\": {}, \"error_outcomes\": {}}}",
            shape.name(),
            t.cases,
            t.full_matrix,
            t.error_outcomes
        );
        out.push_str(if i + 1 < outcome.tallies.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) if e == "help" => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    let scratch = std::env::temp_dir().join(format!("ddm-fuzz-{}", std::process::id()));
    let started = Instant::now();
    let outcome = sweep(&opts, &scratch);
    let elapsed = started.elapsed();
    let _ = std::fs::remove_dir_all(&scratch);

    let total: u64 = outcome.tallies.iter().map(|(_, t)| t.cases).sum();
    println!(
        "{:<14} {:>7} {:>12} {:>14}",
        "shape", "cases", "full-matrix", "error-outcome"
    );
    for (shape, t) in &outcome.tallies {
        println!(
            "{:<14} {:>7} {:>12} {:>14}",
            shape.name(),
            t.cases,
            t.full_matrix,
            t.error_outcomes
        );
    }
    println!(
        "swept {total} cases in {elapsed:.1?} ({} workers): {} divergence(s)",
        opts.sweep_jobs,
        outcome.diverged.len()
    );

    if opts.json {
        let path = if opts.smoke {
            "BENCH_fuzz_smoke.json"
        } else {
            "BENCH_fuzz.json"
        };
        std::fs::write(path, render_json(&opts, &outcome, elapsed)).expect("write fuzz JSON");
        println!("wrote {path}");
    }

    if let Some(case) = outcome.diverged.first() {
        println!(
            "shrinking divergence at seed {} (of {} divergent case(s))...",
            case.seed,
            outcome.diverged.len()
        );
        let shrink_scratch =
            std::env::temp_dir().join(format!("ddm-fuzz-shrink-{}", std::process::id()));
        let repro = shrink_divergence(case, &shrink_scratch);
        let _ = std::fs::remove_dir_all(&shrink_scratch);
        print!("{}", repro.render());
        match repro.write(&opts.repro_dir) {
            Ok(path) => println!("repro written to {}", path.display()),
            Err(e) => eprintln!("error: could not write repro: {e}"),
        }
        return ExitCode::FAILURE;
    }

    if opts.smoke {
        assert!(
            elapsed < SMOKE_CEILING,
            "fuzz smoke exceeded its wall-clock ceiling: {elapsed:.1?} >= {SMOKE_CEILING:?}"
        );
    }
    ExitCode::SUCCESS
}
