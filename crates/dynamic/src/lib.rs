//! # ddm-dynamic
//!
//! Dynamic measurement substrate for the dead-data-member study: a
//! deterministic tree-walking [`Interpreter`] for the C++ subset and a
//! heap [profiler](profile_trace) that reproduces the paper's Table 2 /
//! Figure 4 numbers (object space, dead-member space, and the two
//! high-water marks) from the interpreter's allocation trace.
//!
//! The original paper instrumented RS/6000 binaries and analysed dynamic
//! traces (Nair's profiling tooling); the interpreter produces the exact
//! same information — a timestamped stream of (class, size,
//! allocate/deallocate) events — deterministically and portably.
//!
//! # Examples
//!
//! ```
//! use ddm_core::ProjectPipeline;
//! use ddm_dynamic::{profile_trace, Interpreter, RunConfig};
//!
//! let src = "class Pair { public: int used; int unused; };\n\
//!            int main() { Pair* p = new Pair(); int v = p->used; delete p; return v; }";
//! let analysis = ProjectPipeline::from_source(src)?;
//! let exec = Interpreter::new(analysis.program()).run(&RunConfig::default())?;
//! let profile = profile_trace(analysis.program(), &exec.trace, analysis.liveness());
//! assert_eq!(profile.dead_space_percentage(), 50.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod error;
pub mod heap;
pub mod interp;
pub mod profile;
pub mod value;

pub use error::RuntimeError;
pub use heap::{AllocKind, HeapEvent, HeapTrace, ObjectStore};
pub use interp::{Execution, Interpreter, RunConfig};
pub use profile::{profile_trace, HeapProfile};
pub use value::{CellRef, ObjId, PtrTarget, Value};
