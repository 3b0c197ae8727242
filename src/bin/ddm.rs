//! `ddm` — command-line driver for the dead-data-member detector.
//!
//! Run `ddm --help` for the flag list; the usage text is generated from
//! the single [`FLAGS`] table below, so the help, the docs, and the
//! parser cannot drift apart.

use dead_data_members::analysis::{
    eliminate_with, explain, render_analysis, serve, AnalysisConfig, Engine, ProjectPipeline,
    ServeOptions, SizeofPolicy,
};
use dead_data_members::callgraph::Algorithm;
use dead_data_members::dynamic::{profile_trace, Interpreter, RunConfig};
use dead_data_members::telemetry::{EventClass, Telemetry};
use std::path::PathBuf;
use std::process::ExitCode;

/// The flag table: `(flag, value placeholder, help)`. Every flag the
/// parser accepts has exactly one row here, and the `--help` text is
/// rendered from it.
const FLAGS: &[(&str, &str, &str)] = &[
    (
        "--callgraph",
        "<rta|pta|cha|everything>",
        "call-graph builder (default rta)",
    ),
    (
        "--jobs",
        "<N>",
        "parse up to N TUs at once (deterministic; default 1)",
    ),
    (
        "--library",
        "<Class,Class,...>",
        "classes whose source is unavailable (§3.3)",
    ),
    (
        "--sizeof-conservative",
        "",
        "treat sizeof conservatively (§3.2; default: ignore)",
    ),
    (
        "--unsafe-downcasts",
        "",
        "treat down-casts as unsafe (default: assume verified)",
    ),
    ("--run", "", "execute the program and print its output"),
    (
        "--profile",
        "",
        "execute and print the Table-2 style heap profile",
    ),
    (
        "--eliminate",
        "<out.cpp>",
        "write transformed source with dead members removed",
    ),
    ("--layout", "", "print the object layout of every class"),
    (
        "--stats",
        "",
        "print phase spans, deterministic counters, and metrics to stderr",
    ),
    (
        "--trace-out",
        "<trace.json>",
        "write a Chrome trace-event JSON of the run (one lane per worker)",
    ),
    (
        "--stats-json",
        "<stats.json>",
        "write the machine-readable twin of --stats (schema ddm-stats/3)",
    ),
    (
        "--log-out",
        "<log.ndjson>",
        "write the flight-recorder event log as NDJSON (one decision per line)",
    ),
    (
        "--log-filter",
        "<det|obs|all>",
        "event classes --log-out writes (default all; det lines are byte-stable)",
    ),
    (
        "--metrics-out",
        "<metrics.json>",
        "write the metrics registry (schema ddm-metrics/2, pow2 histogram buckets)",
    ),
    (
        "--explain",
        "<Class::member>",
        "print why the member is live/dead/unclassifiable instead of the report",
    ),
    (
        "--cache-dir",
        "<dir>",
        "persist per-TU summary modules; warm runs re-analyse only changed files",
    ),
    ("--help", "", "show this help"),
];

/// The usage text, rendered from [`FLAGS`].
fn usage() -> String {
    let mut out = String::from(
        "usage: ddm <file.cpp> [more.cpp ...] [options]\n       \
         ddm serve [--cache-dir <dir>] [--jobs <N>] [options]\n\n\
         serve mode reads line-delimited JSON requests on stdin (analyze, notify,\n\
         report, explain, stats, epoch, shutdown) and answers one line per request;\n\
         see the README's \"Server mode\" section for the protocol.\n\noptions:\n",
    );
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
        out.push_str(&format!("  {left:<width$}   {help}\n"));
    }
    out
}

struct Options {
    /// `ddm serve`: long-running daemon mode (no positional files).
    serve: bool,
    files: Vec<String>,
    algorithm: Algorithm,
    jobs: usize,
    library: Vec<String>,
    sizeof_conservative: bool,
    unsafe_downcasts: bool,
    run: bool,
    profile: bool,
    layout: bool,
    eliminate_to: Option<String>,
    stats: bool,
    trace_out: Option<String>,
    stats_json: Option<String>,
    log_out: Option<String>,
    /// `None` = both classes; `Some(class)` = that class only.
    log_filter: Option<EventClass>,
    metrics_out: Option<String>,
    explain_spec: Option<String>,
    cache_dir: Option<String>,
}

/// Consumes the value of a value-taking flag. A following argument that
/// looks like another flag is *not* swallowed as the value — so
/// `ddm a.cpp --trace-out --stats` fails loudly instead of writing a
/// trace file literally named `--stats`.
fn take_value(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<String, String> {
    match args.next() {
        Some(v) if !v.starts_with('-') => Ok(v),
        _ => Err(format!("{flag} needs a value")),
    }
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        serve: false,
        files: Vec::new(),
        algorithm: Algorithm::Rta,
        jobs: 1,
        library: Vec::new(),
        sizeof_conservative: false,
        unsafe_downcasts: false,
        run: false,
        profile: false,
        layout: false,
        eliminate_to: None,
        stats: false,
        trace_out: None,
        stats_json: None,
        log_out: None,
        log_filter: None,
        metrics_out: None,
        explain_spec: None,
        cache_dir: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--callgraph" => {
                let v = take_value(&mut args, "--callgraph")?;
                opts.algorithm = match v.as_str() {
                    "rta" => Algorithm::Rta,
                    "pta" => Algorithm::Pta,
                    "cha" => Algorithm::Cha,
                    "everything" => Algorithm::Everything,
                    other => return Err(format!("unknown call-graph builder `{other}`")),
                };
            }
            "--jobs" => {
                let v = take_value(&mut args, "--jobs")?;
                opts.jobs = v
                    .parse::<usize>()
                    .map_err(|_| format!("--jobs needs a positive integer, got `{v}`"))?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--library" => {
                let v = take_value(&mut args, "--library")?;
                opts.library
                    .extend(v.split(',').map(|s| s.trim().to_string()));
            }
            "--sizeof-conservative" => opts.sizeof_conservative = true,
            "--unsafe-downcasts" => opts.unsafe_downcasts = true,
            "--run" => opts.run = true,
            "--profile" => opts.profile = true,
            "--layout" => opts.layout = true,
            "--eliminate" => {
                opts.eliminate_to = Some(take_value(&mut args, "--eliminate")?);
            }
            "--stats" => opts.stats = true,
            "--trace-out" => {
                opts.trace_out = Some(take_value(&mut args, "--trace-out")?);
            }
            "--stats-json" => {
                opts.stats_json = Some(take_value(&mut args, "--stats-json")?);
            }
            "--log-out" => {
                opts.log_out = Some(take_value(&mut args, "--log-out")?);
            }
            "--log-filter" => {
                let v = take_value(&mut args, "--log-filter")?;
                opts.log_filter = match v.as_str() {
                    "det" => Some(EventClass::Deterministic),
                    "obs" => Some(EventClass::Observational),
                    "all" => None,
                    other => {
                        return Err(format!(
                            "unknown event class `{other}` (valid classes: det, obs, all)"
                        ))
                    }
                };
            }
            "--metrics-out" => {
                opts.metrics_out = Some(take_value(&mut args, "--metrics-out")?);
            }
            "--explain" => {
                opts.explain_spec = Some(take_value(&mut args, "--explain")?);
            }
            "--cache-dir" => {
                opts.cache_dir = Some(take_value(&mut args, "--cache-dir")?);
            }
            "--help" | "-h" => return Err("help".to_string()),
            "serve" if !opts.serve && opts.files.is_empty() => opts.serve = true,
            other if !other.starts_with('-') => {
                opts.files.push(other.to_string());
            }
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    if opts.serve {
        if !opts.files.is_empty() {
            return Err(format!(
                "serve mode takes no input files (got `{}`); send them in an analyze request",
                opts.files[0]
            ));
        }
        for (flag, on) in [
            ("--run", opts.run),
            ("--profile", opts.profile),
            ("--eliminate", opts.eliminate_to.is_some()),
            ("--explain", opts.explain_spec.is_some()),
            ("--layout", opts.layout),
            ("--stats", opts.stats),
            ("--stats-json", opts.stats_json.is_some()),
            ("--trace-out", opts.trace_out.is_some()),
            ("--metrics-out", opts.metrics_out.is_some()),
        ] {
            if on {
                return Err(format!(
                    "{flag} is a one-shot flag; in serve mode use the protocol instead"
                ));
            }
        }
        return Ok(opts);
    }
    if opts.files.is_empty() {
        return Err("no input file given".to_string());
    }
    if opts.files.len() > 1 || opts.cache_dir.is_some() {
        for (flag, on) in [
            ("--run", opts.run),
            ("--profile", opts.profile),
            ("--eliminate", opts.eliminate_to.is_some()),
        ] {
            if on {
                return Err(format!(
                    "{flag} needs single-file mode (one input, no --cache-dir)"
                ));
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if opts.serve {
        return run_serve(&opts);
    }

    // Telemetry is only collected when something will consume it; the
    // disabled handle adds no allocation to the analysis hot paths. The
    // flight recorder is further gated on its own consumers (the trace
    // exporter renders recorded events as instants, so --trace-out also
    // turns the recorder on).
    let record_events = opts.log_out.is_some() || opts.trace_out.is_some();
    let telemetry =
        if opts.stats || opts.stats_json.is_some() || opts.metrics_out.is_some() || record_events {
            Telemetry::configured(record_events)
        } else {
            Telemetry::disabled()
        };

    let code = run(&opts, &telemetry);

    // The trace exporter renders recorded events as instants, so it must
    // render before the log drain clears the recorder. The drain folds
    // any overflow into the events/dropped counter (and ends the NDJSON
    // with a log_truncated record when events were lost); the sync does
    // the same folding when there is no log sink, so every registry
    // view below sees the final drop count.
    let trace_payload = opts.trace_out.as_ref().map(|_| telemetry.chrome_trace_json());
    let log_payload = opts
        .log_out
        .as_ref()
        .map(|_| telemetry.drain_events_ndjson(opts.log_filter));
    telemetry.sync_events_dropped();

    if opts.stats {
        eprint!("{}", telemetry.render_stats());
    }
    for (path, contents) in [
        (opts.trace_out.as_ref(), trace_payload),
        (opts.stats_json.as_ref(), opts.stats_json.as_ref().map(|_| telemetry.render_stats_json())),
        (opts.log_out.as_ref(), log_payload),
        (opts.metrics_out.as_ref(), opts.metrics_out.as_ref().map(|_| telemetry.metrics_json())),
    ] {
        let (Some(path), Some(contents)) = (path, contents) else {
            continue;
        };
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    code
}

/// `ddm serve`: hand stdin/stdout to the daemon loop. Each epoch builds
/// with its own telemetry handle inside [`serve()`], so no handle is
/// created here; `--log-out` (drained per epoch) and `--log-filter` are
/// forwarded through [`ServeOptions`].
fn run_serve(opts: &Options) -> ExitCode {
    let serve_opts = ServeOptions {
        config: analysis_config(opts),
        algorithm: opts.algorithm,
        jobs: opts.jobs,
        engine: Engine::Summary,
        cache_dir: opts.cache_dir.as_ref().map(PathBuf::from),
        log_out: opts.log_out.as_ref().map(PathBuf::from),
        log_filter: opts.log_filter,
    };
    match serve(&serve_opts, std::io::stdin().lock(), std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn analysis_config(opts: &Options) -> AnalysisConfig {
    AnalysisConfig {
        sizeof_policy: if opts.sizeof_conservative {
            SizeofPolicy::Conservative
        } else {
            SizeofPolicy::Ignore
        },
        assume_safe_downcasts: !opts.unsafe_downcasts,
        library_classes: opts.library.iter().cloned().collect(),
    }
}

/// Analyses the input files as one project — a single file is a
/// one-TU project — then prints the report or the `--explain` text and
/// serves `--run`, `--profile` and `--eliminate`. Those three need the
/// parsed bodies of one input, so `parse_args` rejects them with
/// several inputs or a `--cache-dir` (a cache-warm TU's bodies are
/// stand-ins).
fn run(opts: &Options, telemetry: &Telemetry) -> ExitCode {
    let mut inputs = Vec::with_capacity(opts.files.len());
    for file in &opts.files {
        match std::fs::read_to_string(file) {
            Ok(s) => inputs.push((file.clone(), s)),
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let pipeline = match ProjectPipeline::run(
        &inputs,
        analysis_config(opts),
        opts.algorithm,
        opts.jobs,
        Engine::Summary,
        opts.cache_dir.as_deref().map(std::path::Path::new),
        telemetry,
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The process exits right after `run`: freeing the analysed epoch
    // would only cost time (about 12 % of a cacheless run of a
    // `bench_scale` ladder program), so it is never dropped.
    let pipeline = std::mem::ManuallyDrop::new(pipeline);

    if let Some(spec) = &opts.explain_spec {
        // Provenance instead of the report.
        match explain(pipeline.program(), pipeline.callgraph(), pipeline.liveness(), spec) {
            Ok(text) => {
                print!("{text}");
                return ExitCode::SUCCESS;
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
    }

    let report_span = telemetry.span(dead_data_members::telemetry::LANE_MAIN, || {
        "report".to_string()
    });
    let report = pipeline.report();
    print!(
        "{}",
        render_analysis(
            pipeline.program(),
            pipeline.callgraph(),
            pipeline.liveness(),
            &report,
            opts.layout,
        )
    );
    drop(report_span);

    if opts.run || opts.profile {
        match Interpreter::new(pipeline.program()).run(&RunConfig::default()) {
            Ok(exec) => {
                if opts.run {
                    print!("{}", exec.output);
                    println!("[exit code {}]", exec.exit_code);
                }
                if opts.profile {
                    let p = profile_trace(pipeline.program(), &exec.trace, pipeline.liveness());
                    println!("objects allocated:        {}", p.objects_allocated);
                    println!("object space:             {} bytes", p.object_space);
                    println!(
                        "dead data member space:   {} bytes ({:.1}%)",
                        p.dead_member_space,
                        p.dead_space_percentage()
                    );
                    println!("high water mark:          {} bytes", p.high_water_mark);
                    println!(
                        "high water mark w/o dead: {} bytes ({:.1}% reduction)",
                        p.high_water_mark_without_dead,
                        p.high_water_mark_reduction()
                    );
                }
            }
            Err(e) => {
                eprintln!("runtime error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(out) = &opts.eliminate_to {
        let result = eliminate_with(&pipeline, telemetry);
        if let Err(e) = std::fs::write(out, &result.source) {
            eprintln!("error: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "eliminated {} dead member(s) -> {out}",
            result.removed.len()
        );
        for name in &result.removed {
            println!("  removed {name}");
        }
        for (name, why) in &result.kept {
            println!("  kept    {name} ({why})");
        }
    }

    ExitCode::SUCCESS
}
