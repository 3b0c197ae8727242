//! `bench_report` — the benchmark normalizer and regression gate.
//!
//! Every BENCH driver writes its own JSON shape. This driver folds them
//! into one schema (`ddm-bench-report/1`), appends each run to
//! `BENCH_history.jsonl` with host metadata so runs stay comparable
//! across machines, and compares the current tree against committed
//! baselines:
//!
//! * **timings** are warn-only — the CI host is a 1-CPU container and
//!   wall clock is noise there (threshold: ratio > 1.5× either way);
//! * **deterministic counters** for the 11 suite programs are a *hard
//!   failure* on any drift. The counters are recomputed in-process (not
//!   read from a file), so the gate checks the analysis itself, and the
//!   bit-identical counter discipline becomes an automatic
//!   semantic-regression tripwire.
//!
//! ```text
//! bench_report [--check] [--record] [--write-baseline] [--validate]
//!              [--smoke] [--baselines FILE] [--history FILE] [FILE...]
//! ```
//!
//! `--write-baseline` captures `BENCH_baselines.json` (recomputed
//! counters + the normalized timings of whatever BENCH_*.json files are
//! present). `--check` is the CI gate; `--smoke` lets it fall back to
//! the `*_smoke.json` variants and skip absent families. `--record`
//! appends one history line per family with a readable file. Exit code
//! 1 means a gate failed, 2 a usage error.

use ddm_bench::{capture_counters, host_cpus, host_meta_json};
use ddm_telemetry::json::{self, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Schema tag for normalized history lines.
const REPORT_SCHEMA: &str = "ddm-bench-report/1";
/// Schema tag for the committed baseline file.
const BASELINE_SCHEMA: &str = "ddm-bench-baselines/1";
/// Warn when a timing drifts past this ratio (either direction).
const TIMING_WARN_RATIO: f64 = 1.5;

/// `(family, full file, smoke fallback)` — the smoke fallback is what
/// the CI drivers write; an empty string means the family has no smoke
/// variant.
const FAMILIES: &[(&str, &str, &str)] = &[
    ("suite", "BENCH_suite.json", ""),
    ("scale", "BENCH_scale.json", "BENCH_scale_smoke.json"),
    (
        "incremental",
        "BENCH_incremental.json",
        "BENCH_incremental_smoke.json",
    ),
    ("fuzz", "BENCH_fuzz.json", "BENCH_fuzz_smoke.json"),
];

/// The flag table: `(flag, value placeholder, help)` — `--help` is
/// rendered from it, so help and parser cannot drift.
const FLAGS: &[(&str, &str, &str)] = &[
    (
        "--check",
        "",
        "gate: recompute suite counters vs baselines (hard fail), compare timings (warn)",
    ),
    (
        "--record",
        "",
        "append one normalized history line per family with a readable BENCH file",
    ),
    (
        "--write-baseline",
        "",
        "capture BENCH_baselines.json from in-process counters + current BENCH files",
    ),
    (
        "--validate",
        "",
        "JSON-validate every BENCH_*.json, the baselines, each history line, and any FILE args (.ndjson/.jsonl line-wise)",
    ),
    (
        "--smoke",
        "",
        "allow *_smoke.json fallbacks and skip families with no file (CI mode)",
    ),
    (
        "--baselines",
        "<file>",
        "baseline file (default BENCH_baselines.json)",
    ),
    (
        "--history",
        "<file>",
        "history file (default BENCH_history.jsonl)",
    ),
    ("--help", "", "show this help"),
];

fn usage() -> String {
    let mut out = String::from("usage: bench_report [options]\n\noptions:\n");
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
    check: bool,
    record: bool,
    write_baseline: bool,
    validate: bool,
    smoke: bool,
    baselines: PathBuf,
    history: PathBuf,
    /// Extra files for `--validate` — the shell-reachable form of the
    /// in-tree JSON validator (ci.sh points it at `--log-out` /
    /// `--metrics-out` output). Unlike the BENCH tree, these must exist.
    files: Vec<PathBuf>,
}

/// Takes the next argument as `flag`'s value; anything missing or
/// `-`-leading fails loudly instead of being swallowed.
fn take_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    match args.next() {
        Some(v) if !v.starts_with('-') => Ok(v),
        _ => Err(format!("{flag} needs a value")),
    }
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        check: false,
        record: false,
        write_baseline: false,
        validate: false,
        smoke: false,
        baselines: PathBuf::from("BENCH_baselines.json"),
        history: PathBuf::from("BENCH_history.jsonl"),
        files: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--record" => opts.record = true,
            "--write-baseline" => opts.write_baseline = true,
            "--validate" => opts.validate = true,
            "--smoke" => opts.smoke = true,
            "--baselines" => opts.baselines = PathBuf::from(take_value(&mut args, "--baselines")?),
            "--history" => opts.history = PathBuf::from(take_value(&mut args, "--history")?),
            "--help" | "-h" => return Err("help".to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}` (see --help)"))
            }
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    if !opts.files.is_empty() && !opts.validate {
        return Err("positional FILE args only make sense with --validate".to_string());
    }
    if !(opts.check || opts.record || opts.write_baseline || opts.validate) {
        return Err(
            "nothing to do: pass --check, --record, --write-baseline, or --validate".to_string(),
        );
    }
    Ok(opts)
}

/// One readable BENCH file: where it came from and its parsed tree.
struct FamilyFile {
    family: &'static str,
    source: String,
    smoke: bool,
    tree: Value,
}

/// Loads the freshest readable file for `family` (full first, then the
/// smoke variant when `allow_smoke`).
fn load_family(family: &'static str, allow_smoke: bool) -> Option<Result<FamilyFile, String>> {
    let (_, full, smoke_path) = FAMILIES.iter().find(|(f, _, _)| *f == family)?;
    let mut candidates = vec![(*full, false)];
    if allow_smoke && !smoke_path.is_empty() {
        candidates.push((*smoke_path, true));
    }
    for (path, smoke) in candidates {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        return Some(
            json::parse_lenient(&text)
                .map(|tree| FamilyFile {
                    family,
                    source: path.to_string(),
                    smoke,
                    tree,
                })
                .map_err(|e| format!("{path}: {e}")),
        );
    }
    None
}

/// Flattens one family's report into `(metric, value)` rows — the one
/// schema every family shares. Timing metrics end in `_ns`/`_ms`; the
/// rest are counts and ratios.
fn normalize(file: &FamilyFile) -> Vec<(String, Value)> {
    let mut metrics = Vec::new();
    let t = &file.tree;
    match file.family {
        "suite" => {
            if let Some(totals) = t.get("totals").and_then(Value::as_obj) {
                for (k, v) in totals {
                    metrics.push((k.clone(), v.clone()));
                }
            }
        }
        "scale" => {
            for size in t.get("sizes").and_then(Value::as_arr).unwrap_or(&[]) {
                let Some(name) = size.get("name").and_then(Value::as_str) else {
                    continue;
                };
                for key in ["callgraph_ns", "rounds", "worklist_pops", "ready_drains"] {
                    if let Some(v) = size.get(key) {
                        metrics.push((format!("{name}_{key}"), v.clone()));
                    }
                }
            }
            for depth in t.get("depth_axis").and_then(Value::as_arr).unwrap_or(&[]) {
                let Some(name) = depth.get("name").and_then(Value::as_str) else {
                    continue;
                };
                for key in ["parse_ns", "model_ns", "summary_ns", "callgraph_ns"] {
                    if let Some(v) = depth.get(key) {
                        metrics.push((format!("{name}_{key}"), v.clone()));
                    }
                }
            }
        }
        "incremental" => {
            for size in t.get("sizes").and_then(Value::as_arr).unwrap_or(&[]) {
                let Some(name) = size.get("name").and_then(Value::as_str) else {
                    continue;
                };
                for key in [
                    "cold_ns",
                    "warm_ns",
                    "one_changed_ns",
                    "warm_speedup",
                    "one_changed_speedup",
                ] {
                    if let Some(v) = size.get(key) {
                        metrics.push((format!("{name}_{key}"), v.clone()));
                    }
                }
                for entry in size.get("k_changed").and_then(Value::as_arr).unwrap_or(&[]) {
                    if let (Some(k), Some(ns)) =
                        (entry.get("k").and_then(Value::as_f64), entry.get("ns"))
                    {
                        metrics.push((format!("{name}_k{}_changed_ns", k as u64), ns.clone()));
                    }
                }
                if let Some(phases) = size.get("one_changed_phases").and_then(Value::as_obj) {
                    for (key, v) in phases {
                        metrics.push((format!("{name}_one_changed_{key}"), v.clone()));
                    }
                }
            }
        }
        "fuzz" => {
            for key in ["cases", "full_matrix_cases", "error_outcome_cases", "divergences", "elapsed_ms"] {
                if let Some(v) = t.get(key) {
                    metrics.push((key.to_string(), v.clone()));
                }
            }
        }
        _ => unreachable!("unknown family"),
    }
    metrics
}

/// Builds the normalized history line for one family file.
fn history_line(file: &FamilyFile) -> String {
    let host = file.tree.get("host").cloned().unwrap_or_else(|| {
        json::parse(&host_meta_json()).expect("host meta renders valid JSON")
    });
    let mut fields = vec![
        ("schema".to_string(), Value::Str(REPORT_SCHEMA.to_string())),
        ("family".to_string(), Value::Str(file.family.to_string())),
        ("source".to_string(), Value::Str(file.source.clone())),
        ("smoke".to_string(), Value::Bool(file.smoke)),
        ("host".to_string(), host),
    ];
    if let Some(samples) = file.tree.get("samples") {
        fields.push(("samples".to_string(), samples.clone()));
    }
    fields.push((
        "metrics".to_string(),
        Value::Obj(normalize(file)),
    ));
    Value::Obj(fields).render()
}

/// The recomputed golden rows: `(program, counters)` in paper order.
fn golden_counters() -> Vec<(&'static str, Vec<(&'static str, u64)>)> {
    ddm_benchmarks::suite()
        .iter()
        .map(|b| (b.name, capture_counters(b.source).rows().to_vec()))
        .collect()
}

fn write_baseline(opts: &Options) -> Result<(), String> {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{BASELINE_SCHEMA}\",");
    out.push_str("  \"programs\": [\n");
    let golden = golden_counters();
    for (i, (name, rows)) in golden.iter().enumerate() {
        let _ = write!(out, "    {{\"name\": \"{name}\", \"counters\": {{");
        for (k, (key, value)) in rows.iter().enumerate() {
            let _ = write!(out, "\"{key}\": {value}");
            if k + 1 < rows.len() {
                out.push_str(", ");
            }
        }
        out.push_str("}}");
        out.push_str(if i + 1 < golden.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"timings\": {\n");
    let mut lines = Vec::new();
    for (family, _, _) in FAMILIES {
        match load_family(family, opts.smoke) {
            Some(Ok(file)) => {
                lines.push(format!(
                    "    \"{family}\": {}",
                    Value::Obj(normalize(&file)).render()
                ));
            }
            Some(Err(e)) => return Err(e),
            None => println!("write-baseline: no {family} file, family skipped"),
        }
    }
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  }\n}\n");
    json::validate(&out).map_err(|e| format!("baseline render is invalid JSON: {e}"))?;
    std::fs::write(&opts.baselines, out)
        .map_err(|e| format!("write {}: {e}", opts.baselines.display()))?;
    println!(
        "wrote {} ({} programs)",
        opts.baselines.display(),
        golden_counters().len()
    );
    Ok(())
}

/// The counter gate: recomputes the 11 suite programs in-process and
/// diffs them against the committed baseline, key by key. Any drift —
/// changed value, missing program, missing or extra key — is a hard
/// failure, because these numbers are jobs- and
/// cache-invariant by construction.
fn check_counters(baseline: &Value, failures: &mut Vec<String>) {
    let Some(programs) = baseline.get("programs").and_then(Value::as_arr) else {
        failures.push("baseline has no \"programs\" array".to_string());
        return;
    };
    let golden = golden_counters();
    for (name, rows) in &golden {
        let Some(base) = programs
            .iter()
            .find(|p| p.get("name").and_then(Value::as_str) == Some(name))
        else {
            failures.push(format!(
                "program `{name}` missing from baselines (run --write-baseline after reviewing)"
            ));
            continue;
        };
        let Some(base_counters) = base.get("counters").and_then(Value::as_obj) else {
            failures.push(format!("program `{name}` has no counters object"));
            continue;
        };
        for (key, value) in rows {
            match base_counters.iter().find(|(k, _)| k == key) {
                Some((_, Value::Int(b))) if *b == *value as i64 => {}
                Some((_, b)) => failures.push(format!(
                    "counter drift: {name}.{key} = {value}, baseline {}",
                    b.render()
                )),
                None => failures.push(format!(
                    "counter drift: {name}.{key} = {value}, missing from baseline"
                )),
            }
        }
        for (key, _) in base_counters {
            if !rows.iter().any(|(k, _)| k == key) {
                failures.push(format!(
                    "counter drift: baseline key {name}.{key} no longer reported"
                ));
            }
        }
    }
    if failures.is_empty() {
        println!(
            "counter gate: {} programs x {} counters identical to baseline",
            golden.len(),
            golden.first().map_or(0, |(_, rows)| rows.len())
        );
    }
}

/// The timing comparison: warn-only, both directions, `_ns`/`_ms` keys.
/// Non-timing metrics (counts, ratios) that changed are reported too,
/// but never fail the gate — only the recomputed counter diff does.
fn check_timings(baseline: &Value, opts: &Options, warnings: &mut Vec<String>) {
    let Some(timings) = baseline.get("timings").and_then(Value::as_obj) else {
        return;
    };
    for (family, base_metrics) in timings {
        let family: &'static str = match FAMILIES.iter().find(|(f, _, _)| f == family) {
            Some((f, _, _)) => f,
            None => continue,
        };
        let file = match load_family(family, opts.smoke) {
            Some(Ok(file)) => file,
            Some(Err(e)) => {
                warnings.push(format!("{family}: unreadable report ({e})"));
                continue;
            }
            None => {
                println!("timing gate: no {family} file, family skipped");
                continue;
            }
        };
        let current = normalize(&file);
        let mut compared = 0usize;
        for (key, base_value) in base_metrics.as_obj().into_iter().flatten() {
            let Some((_, cur_value)) = current.iter().find(|(k, _)| k == key) else {
                continue; // smoke fallbacks measure fewer sizes
            };
            compared += 1;
            if key.ends_with("_ns") || key.ends_with("_ms") {
                let (Some(base), Some(cur)) = (base_value.as_f64(), cur_value.as_f64()) else {
                    continue;
                };
                let ratio = cur / base.max(f64::EPSILON);
                if ratio > TIMING_WARN_RATIO || ratio < 1.0 / TIMING_WARN_RATIO {
                    warnings.push(format!(
                        "timing drift (warn-only): {family}.{key} {cur:.0} vs baseline {base:.0} ({ratio:.2}x)"
                    ));
                }
            } else if cur_value != base_value {
                warnings.push(format!(
                    "metric changed (warn-only): {family}.{key} {} vs baseline {}",
                    cur_value.render(),
                    base_value.render()
                ));
            }
        }
        println!("timing gate: {family} compared {compared} metrics from {}", file.source);
    }
}

fn check(opts: &Options) -> Result<bool, String> {
    let text = std::fs::read_to_string(&opts.baselines).map_err(|_| {
        format!(
            "no baseline file {} (run `bench_report --write-baseline` and commit it)",
            opts.baselines.display()
        )
    })?;
    let baseline = json::parse_lenient(&text).map_err(|e| format!("{}: {e}", opts.baselines.display()))?;
    if baseline.get("schema").and_then(Value::as_str) != Some(BASELINE_SCHEMA) {
        return Err(format!(
            "{} is not a {BASELINE_SCHEMA} document",
            opts.baselines.display()
        ));
    }
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    check_counters(&baseline, &mut failures);
    check_timings(&baseline, opts, &mut warnings);
    for w in &warnings {
        println!("warning: {w}");
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    Ok(failures.is_empty())
}

fn record(opts: &Options) -> Result<usize, String> {
    let mut lines = Vec::new();
    for (family, _, _) in FAMILIES {
        match load_family(family, opts.smoke) {
            Some(Ok(file)) => {
                println!("record: {family} from {}", file.source);
                lines.push(history_line(&file));
            }
            Some(Err(e)) => return Err(e),
            None => println!("record: no {family} file, family skipped"),
        }
    }
    if lines.is_empty() {
        return Err("record: no BENCH_*.json file found in the current directory".to_string());
    }
    let mut text = lines.join("\n");
    text.push('\n');
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&opts.history)
        .map_err(|e| format!("open {}: {e}", opts.history.display()))?;
    f.write_all(text.as_bytes())
        .map_err(|e| format!("append {}: {e}", opts.history.display()))?;
    println!("appended {} line(s) to {}", lines.len(), opts.history.display());
    Ok(lines.len())
}

fn validate_tree(opts: &Options) -> Vec<String> {
    let mut problems = Vec::new();
    let mut check_file = |path: &Path| {
        let Ok(text) = std::fs::read_to_string(path) else {
            return false;
        };
        if let Err(e) = json::validate(&text) {
            problems.push(format!("{}: {e}", path.display()));
        }
        true
    };
    let mut seen = 0;
    for (_, full, smoke) in FAMILIES {
        if check_file(Path::new(full)) {
            seen += 1;
        }
        if !smoke.is_empty() && check_file(Path::new(smoke)) {
            seen += 1;
        }
    }
    if check_file(&opts.baselines) {
        seen += 1;
    }
    if let Ok(history) = std::fs::read_to_string(&opts.history) {
        seen += 1;
        for (i, line) in history.lines().enumerate() {
            if let Err(e) = json::validate(line) {
                problems.push(format!("{} line {}: {e}", opts.history.display(), i + 1));
            }
        }
    }
    for path in &opts.files {
        let Ok(text) = std::fs::read_to_string(path) else {
            problems.push(format!("{}: unreadable", path.display()));
            continue;
        };
        seen += 1;
        let line_wise = path
            .extension()
            .is_some_and(|e| e == "ndjson" || e == "jsonl");
        if line_wise {
            for (i, line) in text.lines().enumerate() {
                if let Err(e) = json::validate(line) {
                    problems.push(format!("{} line {}: {e}", path.display(), i + 1));
                }
            }
        } else if let Err(e) = json::validate(&text) {
            problems.push(format!("{}: {e}", path.display()));
        }
    }
    println!("validate: {seen} file(s) checked, {} problem(s)", problems.len());
    problems
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
    println!("bench_report on {} cpu(s)", host_cpus());

    let mut ok = true;
    if opts.validate {
        let problems = validate_tree(&opts);
        for p in &problems {
            eprintln!("FAIL: {p}");
        }
        ok &= problems.is_empty();
    }
    if opts.write_baseline {
        if let Err(e) = write_baseline(&opts) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if opts.check {
        match check(&opts) {
            Ok(clean) => ok &= clean,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if opts.record {
        if let Err(e) = record(&opts) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
