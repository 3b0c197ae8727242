//! # ddm-core
//!
//! The primary contribution of Sweeney & Tip, *A Study of Dead Data
//! Members in C++ Applications* (PLDI 1998): a simple, efficient
//! whole-program analysis that detects data members whose values can
//! never affect observable behaviour.
//!
//! A member is **live** iff its value is *read*, or its *address is
//! taken*, in code reachable from `main()`; everything else — including
//! members that are only ever written — is **dead** and can be removed
//! from every object without changing program behaviour. The special
//! cases (all implemented here, see [`DeadMemberAnalysis`]):
//!
//! * `volatile` members are live when written;
//! * `delete`/`free` operands are exempt from livening;
//! * `&Z::m` pointer-to-member expressions liven their member;
//! * unsafe casts liven all members contained in the operand's type;
//! * a union with one live member has all its contents livened;
//! * `sizeof` is conservative by default and ignorable by policy.
//!
//! Use [`ProjectPipeline`] for the one-call workflow — one source
//! ([`ProjectPipeline::from_source`]) or many, optionally cached — or
//! compose [`DeadMemberAnalysis`] with your own
//! [`CallGraph`](ddm_callgraph::CallGraph) for ablations.

pub mod analysis;
pub mod eliminate;
pub mod epoch;
pub mod explain;
pub mod liveness;
pub mod pipeline;
pub mod project;
pub mod report;
pub mod serve;
pub mod snapshot;

pub use analysis::{AnalysisConfig, DeadMemberAnalysis, SizeofPolicy};
pub use eliminate::{eliminate, eliminate_with, Elimination, KeepReason};
pub use epoch::{EpochCell, EpochSnapshot};
pub use explain::{explain, witness_path, ExplainError};
pub use liveness::{LiveReason, Liveness, LivenessParts, Origin};
pub use pipeline::{Engine, PipelineError};
pub use project::{config_fingerprint, front_end, ProjectError, ProjectPipeline};
pub use report::{render_analysis, ClassReport, Report};
pub use serve::{serve, ServeOptions};
pub use snapshot::{
    snapshot_fingerprint, AnalysisSnapshot, SNAPSHOT_FILE, SNAPSHOT_FORMAT_VERSION,
};
