//! Per-program time of every stage of the analysis over the whole
//! benchmark suite: each program is one `ProjectPipeline::run` through
//! the [`timing`] harness, so its rows are the product's stage spans
//! (probe, front end, link, solve, publish, assemble), their children
//! (parse, model, summary extraction — the only AST traversal of a run —
//! module extraction, the call-graph worklist replay, the liveness
//! replay), the wall clock, the report, the drop of the result and the
//! unattributed rest.
//!
//! ```text
//! bench_suite [--json] [--samples N] [--smoke]
//! ```
//!
//! `--json` additionally writes `BENCH_suite.json` (machine-readable):
//! each program's rows and deterministic counters, and every row summed
//! over the suite. Each program takes `N` interleaved samples (default
//! 9, see [`timing::time_runs`]), each right after an untimed run of the
//! same program. `--smoke` takes 3 samples and writes
//! `BENCH_suite_smoke.json` instead, so a CI run leaves the committed
//! file alone.

use ddm_bench::timing::{self, Case, Timing};
use ddm_bench::{host_meta_json, suite_analysis_config};
use std::time::Duration;

fn json_escape_free(name: &str) -> &str {
    // Benchmark names are ASCII identifiers; assert rather than escape.
    assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
        "benchmark name {name:?} needs JSON escaping"
    );
    name
}

/// Every row summed over the programs.
fn totals(timings: &[Timing]) -> [u64; 16] {
    std::array::from_fn(|r| timings.iter().map(|t| t.rows[r]).sum())
}

fn render_json(names: &[&str], timings: &[Timing], samples: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"ddm-benchmarks\",\n");
    out.push_str("  \"algorithm\": \"rta\",\n");
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str(&format!("  \"host\": {},\n", host_meta_json()));
    out.push_str("  \"programs\": [\n");
    for (i, (name, t)) in names.iter().zip(timings).enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"functions\": {}, {}, \"counters\": {{",
            json_escape_free(name),
            t.functions,
            timing::rows_json(&t.rows)
        ));
        let counters: Vec<String> = t
            .telemetry
            .counters()
            .rows()
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        out.push_str(&counters.join(", "));
        out.push_str("}}");
        out.push_str(if i + 1 < timings.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"totals\": {{\n    {}\n  }}\n}}\n",
        timing::rows_json(&totals(timings))
    ));
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let smoke = args.iter().any(|a| a == "--smoke");
    let samples = args
        .iter()
        .position(|a| a == "--samples")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(if smoke { 3 } else { 9 });

    let suite = ddm_benchmarks::suite();
    let mut cases: Vec<Case> = suite
        .iter()
        .map(|b| Case {
            inputs: vec![(format!("{}.cpp", b.name), b.source.to_string())],
            config: suite_analysis_config(),
            cache: None,
        })
        .collect();
    let timings = timing::time_runs(&mut cases, samples, timing::warm_up);
    let names: Vec<&str> = suite.iter().map(|b| b.name).collect();

    let refs: Vec<&Timing> = timings.iter().collect();
    timing::print_table("program", &names, &refs, None);
    let totals: Vec<String> = timing::ROWS
        .iter()
        .zip(totals(&timings))
        .map(|(row, ns)| format!("{row} {:.1?}", Duration::from_nanos(ns)))
        .collect();
    println!("total: {}", totals.join(", "));

    if json {
        let path = if smoke {
            "BENCH_suite_smoke.json"
        } else {
            "BENCH_suite.json"
        };
        std::fs::write(path, render_json(&names, &timings, samples)).expect("write suite JSON");
        println!("wrote {path}");
    }
}
