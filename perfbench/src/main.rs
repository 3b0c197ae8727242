//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its result as the last line of stdout.
//! `perfbench --write-verdicts` regenerates `expected_verdicts.txt` for
//! the default seed after cross-checking every input against the
//! interpreter.

use perfbench::gen::{Sizes, DEFAULT_SEED};
use perfbench::verdict::{expected_path, one_shot, oracle_check};
use perfbench::workloads::{inputs, run, Options, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <cold_project|edit_loop|serve_mixed|deep_dispatch> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-verdicts";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::FULL,
        work: root.join(".perfbench_work").join(workload.name()),
        trace_out: Some(
            root.join(".perfbench_trace")
                .join(format!("{}-seed{seed}.tsv", workload.name())),
        ),
    })
}

/// Regenerates the expected-verdict file, failing if the interpreter
/// observes a read of a member the analysis classified dead.
fn write_verdicts() -> Result<(), String> {
    let mut lines = Vec::new();
    let mut silent = Vec::new();
    let (mut total, mut observed) = (0, 0);
    for workload in Workload::ALL {
        for (name, project) in inputs(workload, &Sizes::FULL, DEFAULT_SEED) {
            let (snapshot, verdict) = one_shot(&project)?;
            total += 1;
            match oracle_check(&snapshot).map_err(|e| format!("{} {name}: {e}", workload.name()))? {
                Some(members) => observed += members,
                None => silent.push(format!("{} {name}", workload.name())),
            }
            lines.push(verdict.line(workload.name(), &name));
        }
    }
    let executed = total - silent.len();
    let text = format!(
        "# Expected verdicts for seed {DEFAULT_SEED} at full size, from the cacheless one-shot pipeline.\n\
         # Columns: workload input dead-member-digest dead-count, then the 16 deterministic counters\n\
         # in Counters::rows() order. Regenerate with `perfbench --write-verdicts`.\n\
         # Interpreter cross-check: {executed} of {total} inputs execute; all {observed} members they\n\
         # read or take the address of are classified live. Not executable: {}.\n{}\n",
        silent.join(", "),
        lines.join("\n")
    );
    std::fs::write(expected_path(), text)
        .map_err(|e| format!("cannot write {}: {e}", expected_path().display()))?;
    eprintln!(
        "wrote {} ({executed} of {total} inputs executed)",
        expected_path().display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--write-verdicts") {
        return match write_verdicts() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            for m in &outcome.metrics {
                eprintln!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", perfbench::outcome_json(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
