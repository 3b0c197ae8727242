//! Per-program wall time of each analysis layer over the whole
//! benchmark suite: summary extraction (the only AST traversal of a
//! run), the call-graph worklist replay, and the liveness replay.
//!
//! ```text
//! bench_suite [--json] [--samples N]
//! ```
//!
//! `--json` additionally writes `BENCH_suite.json` (machine-readable,
//! consumed by `ci.sh` as a smoke check). Timings are minima over `N`
//! samples (default 9) — the least noisy estimator for deterministic
//! CPU-bound work.

use ddm_bench::{capture_counters, host_meta_json, suite_analysis_config, timing::interleaved_min};
use ddm_callgraph::{CallGraph, CallGraphOptions};
use ddm_core::DeadMemberAnalysis;
use ddm_hierarchy::{Program, ProgramSummary};
use ddm_telemetry::{Counters, Telemetry};
use std::time::Duration;

struct Cell {
    extraction: Duration,
    callgraph: Duration,
    analysis: Duration,
}

impl Cell {
    fn total(&self) -> Duration {
        self.extraction + self.callgraph + self.analysis
    }
}

struct Row {
    name: &'static str,
    functions: usize,
    cell: Cell,
    /// Deterministic analysis counters: one capture per program is
    /// exact, not sampled.
    counters: Counters,
}

fn measure(program: &Program, samples: usize) -> Cell {
    let options = CallGraphOptions::default();
    let analysis = DeadMemberAnalysis::new(program, suite_analysis_config());
    let quiet = Telemetry::disabled();
    let extraction = interleaved_min(1, samples, |_| ProgramSummary::build(program, false, 1))[0];
    let summary = ProgramSummary::build(program, false, 1);
    let build = || CallGraph::build_from_summary_schedule(program, &summary, &options, &quiet);
    let callgraph = interleaved_min(1, samples, |_| build().unwrap())[0];
    let (graph, _) = build().unwrap();
    let analysis = interleaved_min(1, samples, |_| {
        analysis
            .run_summary_counted(&summary, &graph, &quiet)
            .unwrap()
    })[0];
    Cell {
        extraction,
        callgraph,
        analysis,
    }
}

fn total_for(rows: &[Row], layer: fn(&Cell) -> Duration) -> Duration {
    rows.iter().map(|r| layer(&r.cell)).sum()
}

fn json_escape_free(name: &str) -> &str {
    // Benchmark names are ASCII identifiers; assert rather than escape.
    assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
        "benchmark name {name:?} needs JSON escaping"
    );
    name
}

fn render_json(rows: &[Row], samples: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"ddm-benchmarks\",\n");
    out.push_str("  \"algorithm\": \"rta\",\n");
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str(&format!("  \"host\": {},\n", host_meta_json()));
    out.push_str("  \"programs\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let c = &row.cell;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"functions\": {}, \"extraction_ns\": {}, \"callgraph_ns\": {}, \"analysis_ns\": {}, \"total_ns\": {}, \"counters\": {{",
            json_escape_free(row.name),
            row.functions,
            c.extraction.as_nanos(),
            c.callgraph.as_nanos(),
            c.analysis.as_nanos(),
            c.total().as_nanos()
        ));
        let counters: Vec<String> = row
            .counters
            .rows()
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        out.push_str(&counters.join(", "));
        out.push_str("}}");
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"totals\": {{\n    \"extraction_ns\": {}, \"callgraph_ns\": {}, \"analysis_ns\": {}, \"total_ns\": {}\n  }}\n}}\n",
        total_for(rows, |c| c.extraction).as_nanos(),
        total_for(rows, |c| c.callgraph).as_nanos(),
        total_for(rows, |c| c.analysis).as_nanos(),
        total_for(rows, Cell::total).as_nanos()
    ));
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let samples = args
        .iter()
        .position(|a| a == "--samples")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(9);

    let mut rows = Vec::new();
    for b in ddm_benchmarks::suite() {
        let tu = ddm_cppfront::parse(b.source).unwrap();
        let program = Program::build(&tu).unwrap();
        let cell = measure(&program, samples);
        rows.push(Row {
            name: b.name,
            functions: program.functions().count(),
            cell,
            counters: capture_counters(b.source),
        });
    }

    println!(
        "{:<12} {:>6}  {:>12} {:>12} {:>12} {:>12}",
        "program", "funcs", "extract", "callgraph", "scan", "total"
    );
    for row in &rows {
        let c = &row.cell;
        println!(
            "{:<12} {:>6}  {:>12.1?} {:>12.1?} {:>12.1?} {:>12.1?}",
            row.name,
            row.functions,
            c.extraction,
            c.callgraph,
            c.analysis,
            c.total()
        );
    }
    println!(
        "total: {:.1?} (extraction {:.1?}, call graph {:.1?}, scan {:.1?})",
        total_for(&rows, Cell::total),
        total_for(&rows, |c| c.extraction),
        total_for(&rows, |c| c.callgraph),
        total_for(&rows, |c| c.analysis)
    );

    if json {
        let path = "BENCH_suite.json";
        std::fs::write(path, render_json(&rows, samples)).expect("write BENCH_suite.json");
        println!("wrote {path}");
    }
}
