//! Engine comparison over the whole benchmark suite: per-program wall
//! time for each analysis layer, for both engines (walk vs. summary).
//!
//! The walk engine has two layers: call-graph construction
//! (`MemberLookup` + the re-walking fixpoint) and the liveness scan,
//! which walks the reachable bodies again. The summary engine has three:
//! summary extraction (the only AST traversal of its run), the call-graph
//! worklist replay and the liveness replay. Extraction gets its own
//! column, so each engine's call-graph column times the fixpoint alone;
//! the walk engine's extraction column is zero.
//!
//! ```text
//! bench_suite [--json] [--samples N]
//! ```
//!
//! `--json` additionally writes `BENCH_suite.json` (machine-readable,
//! consumed by `ci.sh` as a smoke check). Timings are minima over `N`
//! samples (default 9) — the least noisy estimator for deterministic
//! CPU-bound work.

use ddm_bench::{capture_counters, host_meta_json, suite_analysis_config, timing};
use ddm_callgraph::{Algorithm, CallGraph, CallGraphOptions};
use ddm_core::DeadMemberAnalysis;
use ddm_hierarchy::{MemberLookup, Program, ProgramSummary};
use ddm_telemetry::Counters;
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
    /// One cell per engine, in [`ENGINES`] order.
    cells: [Cell; 2],
    /// Deterministic analysis counters — identical for both engines, so
    /// one capture per program is exact, not sampled.
    counters: Counters,
}

const ENGINES: [&str; 2] = ["walk", "summary"];

fn measure(program: &Program, samples: usize) -> [Cell; 2] {
    let options = CallGraphOptions {
        algorithm: Algorithm::Rta,
        ..Default::default()
    };
    let analysis = DeadMemberAnalysis::new(program, suite_analysis_config());

    let (callgraph, _) = timing::time(samples, || {
        let lookup = MemberLookup::new(program);
        CallGraph::build(program, &lookup, &options).unwrap()
    });
    let lookup = MemberLookup::new(program);
    let graph = CallGraph::build(program, &lookup, &options).unwrap();
    let (scan, _) = timing::time(samples, || analysis.run(&graph).unwrap());
    let walk = Cell {
        extraction: Duration::ZERO,
        callgraph,
        analysis: scan,
    };

    let (extraction, _) = timing::time(samples, || ProgramSummary::build(program, false, 1));
    let summary = ProgramSummary::build(program, false, 1);
    let (callgraph, _) = timing::time(samples, || {
        CallGraph::build_from_summary(program, &summary, &options).unwrap()
    });
    let graph = CallGraph::build_from_summary(program, &summary, &options).unwrap();
    let (replay, _) = timing::time(samples, || analysis.run_summary(&summary, &graph).unwrap());
    let summary = Cell {
        extraction,
        callgraph,
        analysis: replay,
    };
    [walk, summary]
}

fn total_for(rows: &[Row], engine: usize, layer: fn(&Cell) -> Duration) -> Duration {
    rows.iter().map(|r| layer(&r.cells[engine])).sum()
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
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"functions\": {}, \"engines\": {{",
            json_escape_free(row.name),
            row.functions
        ));
        let engines: Vec<String> = ENGINES
            .iter()
            .zip(&row.cells)
            .map(|(engine, c)| {
                format!(
                    "\"{engine}\": {{\"extraction_ns\": {}, \"callgraph_ns\": {}, \"analysis_ns\": {}, \"total_ns\": {}}}",
                    c.extraction.as_nanos(),
                    c.callgraph.as_nanos(),
                    c.analysis.as_nanos(),
                    c.total().as_nanos()
                )
            })
            .collect();
        out.push_str(&engines.join(", "));
        out.push_str("}, \"counters\": {");
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
    let walk = total_for(rows, 0, Cell::total);
    let summary = total_for(rows, 1, Cell::total);
    out.push_str(&format!(
        "  \"totals\": {{\n    \"walk_ns\": {}, \"summary_ns\": {}, \"summary_extraction_ns\": {}, \"speedup\": {:.2}\n  }}\n}}\n",
        walk.as_nanos(),
        summary.as_nanos(),
        total_for(rows, 1, |c| c.extraction).as_nanos(),
        walk.as_secs_f64() / summary.as_secs_f64().max(f64::EPSILON)
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
        let cells = measure(&program, samples);
        rows.push(Row {
            name: b.name,
            functions: program.functions().count(),
            cells,
            counters: capture_counters(b.source),
        });
    }

    println!(
        "{:<12} {:>6}  {:>12} {:>12}  {:>12} {:>12} {:>12}  {:>8}",
        "program",
        "funcs",
        "walk cg",
        "walk scan",
        "sum extract",
        "sum cg",
        "sum replay",
        "speedup"
    );
    for row in &rows {
        let [walk, summary] = &row.cells;
        println!(
            "{:<12} {:>6}  {:>12.1?} {:>12.1?}  {:>12.1?} {:>12.1?} {:>12.1?}  {:>7.2}x",
            row.name,
            row.functions,
            walk.callgraph,
            walk.analysis,
            summary.extraction,
            summary.callgraph,
            summary.analysis,
            walk.total().as_secs_f64() / summary.total().as_secs_f64().max(f64::EPSILON)
        );
    }
    let walk = total_for(&rows, 0, Cell::total);
    let summary = total_for(&rows, 1, Cell::total);
    println!(
        "total: walk {:.1?}  summary {:.1?} (extraction {:.1?})  speedup {:.2}x",
        walk,
        summary,
        total_for(&rows, 1, |c| c.extraction),
        walk.as_secs_f64() / summary.as_secs_f64().max(f64::EPSILON)
    );

    if json {
        let path = "BENCH_suite.json";
        std::fs::write(path, render_json(&rows, samples)).expect("write BENCH_suite.json");
        println!("wrote {path}");
    }
}
