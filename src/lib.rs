//! # dead-data-members
//!
//! A whole-program analysis that detects *dead data members* in C++
//! applications — a from-scratch Rust reproduction of Peter F. Sweeney and
//! Frank Tip, *A Study of Dead Data Members in C++ Applications*
//! (PLDI 1998).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`cppfront`] — lexer, parser and AST for the analysed C++ subset;
//! * [`hierarchy`] — resolved program model, member lookup, object layout;
//! * [`callgraph`] — Everything/CHA/RTA call-graph construction;
//! * [`analysis`] — the paper's dead-data-member detection algorithm;
//! * [`dynamic`] — interpreter and heap profiler for the dynamic
//!   measurements (object space, dead-member space, high-water marks);
//! * [`benchmarks`] — the benchmark suite reproducing the paper's Table 1;
//! * [`telemetry`] — phase spans, deterministic counters, Chrome-trace
//!   export for observing analysis runs.
//!
//! # Examples
//!
//! ```
//! use dead_data_members::prelude::*;
//!
//! let source = r#"
//!     class Point {
//!     public:
//!         int x;
//!         int y;
//!         int tag;              // written, never read: dead
//!         Point(int px, int py) : x(px), y(py) { tag = 0; }
//!         int sum() { return x + y; }
//!     };
//!     int main() { Point p(3, 4); return p.sum(); }
//! "#;
//! let analysis = ProjectPipeline::from_source(source)?;
//! let report = analysis.report();
//! assert_eq!(report.dead_member_names(), vec!["Point::tag"]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use ddm_benchmarks as benchmarks;
pub use ddm_callgraph as callgraph;
pub use ddm_core as analysis;
pub use ddm_cppfront as cppfront;
pub use ddm_dynamic as dynamic;
pub use ddm_hierarchy as hierarchy;
pub use ddm_telemetry as telemetry;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use ddm_callgraph::{Algorithm, CallGraph, CallGraphOptions};
    pub use ddm_core::{
        explain, AnalysisConfig, DeadMemberAnalysis, Engine, Liveness, Origin, ProjectError,
        ProjectPipeline, Report, SizeofPolicy,
    };
    pub use ddm_cppfront::{parse, TranslationUnit};
    pub use ddm_dynamic::{HeapProfile, Interpreter, RunConfig};
    pub use ddm_hierarchy::{
        body_walk_count, ClassId, FuncId, LayoutEngine, MemberLookup, MemberRef, Program,
        ProgramSummary,
    };
    pub use ddm_telemetry::{Counters, ExecStats, Telemetry};
}
