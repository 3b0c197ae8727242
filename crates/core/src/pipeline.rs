//! The engine selector and the per-TU error type of
//! [`ProjectPipeline`](crate::ProjectPipeline).

use ddm_cppfront::ParseError;
use ddm_hierarchy::{SemaError, TypeError};
use std::error::Error;
use std::fmt;

/// The analysis engine. It has one variant: each function body is
/// walked exactly once into a summary, and the call graph and the
/// liveness scan propagate over the summaries.
///
/// The type stays because public signatures still name it —
/// [`ProjectPipeline::run`](crate::ProjectPipeline::run) and
/// [`ServeOptions::engine`](crate::ServeOptions::engine), which the
/// repository benchmark passes — and both ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The walk-once summary engine.
    #[default]
    Summary,
}

/// Any error one translation unit can produce: its parse, its
/// semantic model, or type resolution inside one of its bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Semantic model construction failed.
    Sema(SemaError),
    /// Type resolution inside a body failed.
    Type(TypeError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse error: {e}"),
            PipelineError::Sema(e) => write!(f, "semantic error: {e}"),
            PipelineError::Type(e) => write!(f, "type error: {e}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Parse(e) => Some(e),
            PipelineError::Sema(e) => Some(e),
            PipelineError::Type(e) => Some(e),
        }
    }
}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<SemaError> for PipelineError {
    fn from(e: SemaError) -> Self {
        PipelineError::Sema(e)
    }
}

impl From<TypeError> for PipelineError {
    fn from(e: TypeError) -> Self {
        PipelineError::Type(e)
    }
}
