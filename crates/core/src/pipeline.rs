//! End-to-end convenience pipeline: source → parse → model → call graph →
//! dead-member analysis → report.

use crate::analysis::{solve, AnalysisConfig, Solved};
use crate::liveness::Liveness;
use crate::report::Report;
use ddm_callgraph::{Algorithm, CallGraph};
use ddm_cppfront::{parse, ParseError};
use ddm_hierarchy::{body_walk_count, ClassId, Program, ProgramSummary, SemaError, TypeError};
use ddm_telemetry::{Telemetry, LANE_MAIN};
use std::collections::HashSet;
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

/// Any error the pipeline can produce.
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

/// A completed analysis run, holding every intermediate artifact.
///
/// # Examples
///
/// ```
/// use ddm_core::AnalysisPipeline;
///
/// let run = AnalysisPipeline::from_source(
///     "class A { public: int live; int dead; };\n\
///      int main() { A a; a.dead = 1; return a.live; }",
/// )?;
/// assert_eq!(run.report().dead_member_names(), vec!["A::dead"]);
/// # Ok::<(), ddm_core::PipelineError>(())
/// ```
#[derive(Debug)]
pub struct AnalysisPipeline {
    tu: ddm_cppfront::TranslationUnit,
    program: Program,
    callgraph: CallGraph,
    liveness: Liveness,
    used: HashSet<ClassId>,
    config: AnalysisConfig,
}

impl AnalysisPipeline {
    /// Runs the full pipeline with the default configuration (RTA call
    /// graph, conservative `sizeof`, conservative down-casts).
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] for parse, semantic, or type failures.
    pub fn from_source(source: &str) -> Result<AnalysisPipeline, PipelineError> {
        Self::with_config(source, AnalysisConfig::default(), Algorithm::Rta)
    }

    /// Runs the full pipeline with an explicit configuration and call-graph
    /// algorithm.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] for parse, semantic, or type failures.
    pub fn with_config(
        source: &str,
        config: AnalysisConfig,
        algorithm: Algorithm,
    ) -> Result<AnalysisPipeline, PipelineError> {
        Self::with_config_telemetry(source, config, algorithm, &Telemetry::disabled())
    }

    /// [`AnalysisPipeline::with_config`] with telemetry: every
    /// pipeline phase is spanned on the main lane, the deterministic
    /// counters are accumulated, and the execution-stats snapshot is
    /// filled in.
    ///
    /// The whole run stays on the calling thread: one TU has one
    /// front-end job, so the stats record `jobs 1`.
    ///
    /// Telemetry observes the run but never steers it: the pipeline's
    /// analysis artifacts are byte-identical whether the collector is
    /// enabled, disabled, or absent.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] for parse, semantic, or type failures.
    pub fn with_config_telemetry(
        source: &str,
        config: AnalysisConfig,
        algorithm: Algorithm,
        telemetry: &Telemetry,
    ) -> Result<AnalysisPipeline, PipelineError> {
        let walks_before = body_walk_count();

        let parse_span = telemetry.span(LANE_MAIN, || format!("parse ({} bytes)", source.len()));
        let tu = parse(source)?;
        drop(parse_span);

        let sema_span = telemetry.span(LANE_MAIN, || "program model".to_string());
        let program = Program::build(&tu)?;
        drop(sema_span);

        // Walk once: extract summaries, then every downstream phase
        // propagates over them without touching an AST again.
        let summary = ProgramSummary::build_with(&program, algorithm == Algorithm::Pta, telemetry);
        let Solved {
            callgraph,
            liveness,
            used,
            ..
        } = solve(&program, &summary, &config, algorithm, None, telemetry)?;

        telemetry.update_stats(|s| {
            s.jobs = 1;
            s.bodies_walked += body_walk_count() - walks_before;
        });

        Ok(AnalysisPipeline {
            tu,
            program,
            callgraph,
            liveness,
            used,
            config,
        })
    }

    /// Analyses a batch of named sources concurrently on `jobs` worker
    /// threads (each source runs the full sequential pipeline; the
    /// parallelism is across programs, so worker threads are never
    /// oversubscribed).
    ///
    /// Results are returned **in input order**, independent of which
    /// worker finished first — batch mode is as deterministic as a
    /// `for` loop over [`AnalysisPipeline::with_config`].
    pub fn run_suite(
        inputs: &[(String, String)],
        config: &AnalysisConfig,
        algorithm: Algorithm,
        jobs: usize,
    ) -> Vec<(String, Result<AnalysisPipeline, PipelineError>)> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let jobs = jobs.max(1).min(inputs.len().max(1));
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<AnalysisPipeline, PipelineError>>>> =
            inputs.iter().map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((_, source)) = inputs.get(i) else {
                        break;
                    };
                    let result = Self::with_config(source, config.clone(), algorithm);
                    *slots[i].lock().expect("suite slot poisoned") = Some(result);
                });
            }
        });

        inputs
            .iter()
            .zip(slots)
            .map(|((name, _), slot)| {
                let result = slot
                    .into_inner()
                    .expect("suite slot poisoned")
                    .expect("every input is analysed exactly once");
                (name.clone(), result)
            })
            .collect()
    }

    /// The parsed translation unit the analysis ran on.
    pub fn translation_unit(&self) -> &ddm_cppfront::TranslationUnit {
        &self.tu
    }

    /// The resolved program model.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The call graph that scoped the analysis.
    pub fn callgraph(&self) -> &CallGraph {
        &self.callgraph
    }

    /// The per-member classification.
    pub fn liveness(&self) -> &Liveness {
        &self.liveness
    }

    /// The used-class set.
    pub fn used(&self) -> &HashSet<ClassId> {
        &self.used
    }

    /// The configuration the run used.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Builds the report.
    pub fn report(&self) -> Report {
        Report::new(&self.program, &self.liveness, &self.used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_end_to_end() {
        let run = AnalysisPipeline::from_source(
            "class A { public: int live; int dead; };\n\
             int main() { A a; return a.live; }",
        )
        .unwrap();
        let report = run.report();
        assert_eq!(report.dead_member_names(), vec!["A::dead"]);
        assert!(run.callgraph().reachable_count() >= 1);
        assert_eq!(run.used().len(), 1);
    }

    #[test]
    fn run_suite_keeps_input_order_and_matches_single_runs() {
        let inputs: Vec<(String, String)> = (0..6)
            .map(|i| {
                (
                    format!("prog{i}"),
                    format!(
                        "class A{i} {{ public: int live; int dead{i}; }};\n\
                         int main() {{ A{i} a; return a.live; }}"
                    ),
                )
            })
            .collect();
        for jobs in [1, 3, 8] {
            let results = AnalysisPipeline::run_suite(
                &inputs,
                &AnalysisConfig::default(),
                Algorithm::Rta,
                jobs,
            );
            assert_eq!(results.len(), inputs.len());
            for (i, (name, run)) in results.iter().enumerate() {
                assert_eq!(name, &format!("prog{i}"), "jobs={jobs} reordered output");
                let run = run.as_ref().expect("pipeline ok");
                assert_eq!(
                    run.report().dead_member_names(),
                    vec![format!("A{i}::dead{i}")]
                );
            }
        }
    }

    #[test]
    fn run_suite_surfaces_per_input_errors() {
        let inputs = vec![
            ("good".to_string(), "int main() { return 0; }".to_string()),
            ("bad".to_string(), "class {".to_string()),
        ];
        let results =
            AnalysisPipeline::run_suite(&inputs, &AnalysisConfig::default(), Algorithm::Rta, 4);
        assert!(results[0].1.is_ok());
        assert!(matches!(results[1].1, Err(PipelineError::Parse(_))));
    }

    #[test]
    fn parse_errors_propagate() {
        let err = AnalysisPipeline::from_source("class {").unwrap_err();
        assert!(matches!(err, PipelineError::Parse(_)));
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn sema_errors_propagate() {
        let err = AnalysisPipeline::from_source(
            "class A { public: int x; int x; }; int main() { return 0; }",
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Sema(_)));
    }

    #[test]
    fn type_errors_propagate() {
        let err = AnalysisPipeline::from_source("int main() { return mystery; }").unwrap_err();
        assert!(matches!(err, PipelineError::Type(_)));
        assert!(err.source().is_some());
    }
}
