//! # ddm-oracle
//!
//! An independent reference implementation of the paper's Figure 2, for
//! differential tests. The product walks each function body once into
//! a summary and propagates over summaries from then on; this crate
//! walks the AST every time it needs a fact:
//!
//! * [`sweep`] builds the call graph by full-set sweeps to a fixpoint;
//! * [`scan`] classifies members by walking every reachable body;
//! * [`used_classes`] walks every body for instantiations.
//!
//! It is written only against the public APIs of the product crates
//! and no product crate depends on it. [`analyze`] runs all three over
//! a program and returns results the product's own types can render,
//! so a report or `--explain` text from either side compares byte for
//! byte.
//!
//! # Examples
//!
//! ```
//! use ddm_callgraph::Algorithm;
//! use ddm_core::{AnalysisConfig, ProjectPipeline};
//!
//! let source = "class A { public: int used; int written_only; };\n\
//!               int main() { A a; a.written_only = 4; return a.used; }";
//! let product = ProjectPipeline::from_source(source).unwrap();
//! let oracle = ddm_oracle::analyze(product.program(), &AnalysisConfig::default(), Algorithm::Rta)
//!     .unwrap();
//! assert_eq!(oracle.liveness, *product.liveness());
//! assert_eq!(oracle.callgraph, *product.callgraph());
//! ```

pub mod scan;
pub mod sweep;
pub mod used;

pub use scan::scan;
pub use sweep::sweep;
pub use used::used_classes;

use ddm_callgraph::{Algorithm, CallGraph, CallGraphOptions};
use ddm_core::{explain, AnalysisConfig, ExplainError, Liveness, Report};
use ddm_hierarchy::{ClassId, MemberRef, Program, TypeError};
use ddm_telemetry::Counters;
use std::collections::HashSet;

/// Everything one reference analysis computes.
#[derive(Debug)]
pub struct OracleRun {
    /// The swept call graph.
    pub callgraph: CallGraph,
    /// The scanned classification.
    pub liveness: Liveness,
    /// The used classes.
    pub used: HashSet<ClassId>,
    /// The deterministic counters, except the two that count the
    /// product's worklist (`cg_worklist_pops`, `cg_ready_drains`), which
    /// stay zero. Compare them against [`comparable`] product counters.
    pub counters: Counters,
}

impl OracleRun {
    /// The report over `program`, which must be the analysed program.
    pub fn report(&self, program: &Program) -> Report {
        Report::new(program, &self.liveness, &self.used)
    }

    /// The `--explain` text of `spec`.
    ///
    /// # Errors
    ///
    /// As for [`ddm_core::explain`].
    pub fn explain(&self, program: &Program, spec: &str) -> Result<String, ExplainError> {
        explain(program, &self.callgraph, &self.liveness, spec)
    }
}

/// Runs the reference analysis over `program`: the call graph under
/// `algorithm` (with `config`'s library classes as callback roots), the
/// liveness scan, the used classes, and the counters.
///
/// # Errors
///
/// The first [`TypeError`] a walked body produces, in the product's
/// order: call graph, then scan, then used classes.
pub fn analyze(
    program: &Program,
    config: &AnalysisConfig,
    algorithm: Algorithm,
) -> Result<OracleRun, TypeError> {
    let options = CallGraphOptions {
        algorithm,
        library_classes: config
            .library_classes
            .iter()
            .filter_map(|n| program.class_by_name(n))
            .collect(),
        ..CallGraphOptions::default()
    };
    let callgraph = sweep(program, &options)?;
    let (liveness, mut counters) = scan(program, config, &callgraph)?;
    let used = used_classes(program)?;
    counters.reachable_functions = callgraph.reachable_count() as u64;
    counters.callgraph_edges = callgraph.edge_count() as u64;
    counters.instantiated_classes = callgraph.instantiated().len() as u64;
    for (cid, class) in program.classes() {
        for idx in 0..class.members.len() {
            let m = MemberRef::new(cid, idx);
            if liveness.is_unclassifiable(m) {
                counters.members_unclassifiable += 1;
            } else if liveness.is_live(m) {
                counters.members_live += 1;
            } else {
                counters.members_dead += 1;
            }
        }
    }
    Ok(OracleRun {
        callgraph,
        liveness,
        used,
        counters,
    })
}

/// `counters` with the two worklist fields the oracle cannot compute
/// zeroed: the form an [`OracleRun::counters`] compares equal to.
pub fn comparable(counters: &Counters) -> Counters {
    Counters {
        cg_worklist_pops: 0,
        cg_ready_drains: 0,
        ..*counters
    }
}
