//! End-to-end convenience pipeline: source → parse → model → call graph →
//! dead-member analysis → report.

use crate::analysis::{AnalysisConfig, DeadMemberAnalysis};
use crate::liveness::Liveness;
use crate::report::Report;
use ddm_callgraph::{Algorithm, CallGraph, CallGraphOptions};
use ddm_cppfront::{parse, ParseError};
use ddm_hierarchy::{
    body_walk_count, used_classes, ClassId, MemberLookup, Program, ProgramSummary, SemaError,
    TypeError,
};
use ddm_telemetry::{Counters, EventClass, Telemetry, LANE_MAIN};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Which analysis engine drives the pipeline.
///
/// Both engines produce bit-identical results (liveness, reasons,
/// call graph, used classes, and rendered report); they differ only in
/// how often function bodies are traversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The AST-walking engine: the delta call-graph fixpoint walks each
    /// newly reachable function body once (widening parked dispatch
    /// sites without re-walking), and the liveness scan walks the
    /// reachable set again. Retained as the differential-testing
    /// reference.
    Walk,
    /// The walk-once engine (default): each function body is traversed
    /// exactly once to extract a summary; call-graph construction and the
    /// liveness scan then propagate over summaries.
    #[default]
    Summary,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Walk => "walk",
            Engine::Summary => "summary",
        })
    }
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
    engine: Engine,
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
        Self::with_config_engine(source, config, algorithm, Engine::default())
    }

    /// Runs the full pipeline on an explicit [`Engine`].
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] for parse, semantic, or type failures.
    pub fn with_config_engine(
        source: &str,
        config: AnalysisConfig,
        algorithm: Algorithm,
        engine: Engine,
    ) -> Result<AnalysisPipeline, PipelineError> {
        Self::with_config_telemetry(source, config, algorithm, engine, &Telemetry::disabled())
    }

    /// [`AnalysisPipeline::with_config_engine`] with telemetry: every
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
        engine: Engine,
        telemetry: &Telemetry,
    ) -> Result<AnalysisPipeline, PipelineError> {
        let walks_before = body_walk_count();

        let parse_span = telemetry.span(LANE_MAIN, || format!("parse ({} bytes)", source.len()));
        let tu = parse(source)?;
        drop(parse_span);

        let sema_span = telemetry.span(LANE_MAIN, || "program model".to_string());
        let program = Program::build(&tu)?;
        drop(sema_span);

        let cg_options = CallGraphOptions {
            algorithm,
            library_classes: config
                .library_classes
                .iter()
                .filter_map(|n| program.class_by_name(n))
                .collect(),
            ..CallGraphOptions::default()
        };
        let (callgraph, liveness, used) = match engine {
            Engine::Walk => {
                let lookup = MemberLookup::new(&program);
                let cg_span = telemetry.span(LANE_MAIN, || "callgraph".to_string());
                let callgraph = CallGraph::build_with(&program, &lookup, &cg_options, telemetry)?;
                drop(cg_span);
                let liveness =
                    DeadMemberAnalysis::new(&program, config.clone()).run_with(&callgraph, telemetry)?;
                let used_span = telemetry.span(LANE_MAIN, || "used classes".to_string());
                let used = used_classes(&program, &lookup)?;
                drop(used_span);
                (callgraph, liveness, used)
            }
            Engine::Summary => {
                // Walk once: extract summaries, then every downstream
                // phase propagates over them without touching an AST
                // again.
                let summary =
                    ProgramSummary::build_with(&program, algorithm == Algorithm::Pta, telemetry);
                let cg_span = telemetry.span(LANE_MAIN, || "callgraph".to_string());
                let callgraph =
                    CallGraph::build_from_summary_with(&program, &summary, &cg_options, telemetry)?;
                drop(cg_span);
                let liveness = DeadMemberAnalysis::new(&program, config.clone()).run_summary_with(
                    &summary,
                    &callgraph,
                    telemetry,
                )?;
                let used_span = telemetry.span(LANE_MAIN, || "used classes".to_string());
                let used = summary.used_classes(&program)?;
                drop(used_span);
                (callgraph, liveness, used)
            }
        };

        telemetry.update_stats(|s| {
            s.engine = engine.to_string();
            s.jobs = 1;
            s.bodies_walked += body_walk_count() - walks_before;
        });
        let mut tail = Counters::default();
        tail.reachable_functions = callgraph.reachable_count() as u64;
        tail.callgraph_edges = callgraph.edge_count() as u64;
        tail.instantiated_classes = callgraph.instantiated().len() as u64;
        for (cid, class) in program.classes() {
            for idx in 0..class.members.len() {
                let m = ddm_hierarchy::MemberRef::new(cid, idx);
                // Mirror the report's precedence: unclassifiable trumps
                // the live/dead verdict.
                if liveness.is_unclassifiable(m) {
                    tail.members_unclassifiable += 1;
                } else if liveness.is_live(m) {
                    tail.members_live += 1;
                } else {
                    tail.members_dead += 1;
                }
            }
        }
        telemetry.add_counters(&tail);
        emit_classification_event(telemetry, &tail);

        Ok(AnalysisPipeline {
            tu,
            program,
            callgraph,
            liveness,
            used,
            config,
            engine,
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

    /// The engine the run used.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Builds the report.
    pub fn report(&self) -> Report {
        Report::new(&self.program, &self.liveness, &self.used)
    }
}

/// Flight-recorder tail shared by the single-TU and project pipelines:
/// the final classification verdict alongside the graph totals that
/// scoped it — all deterministic-counter fields, so det class.
pub(crate) fn emit_classification_event(telemetry: &Telemetry, tail: &Counters) {
    telemetry.event(EventClass::Deterministic, "classification", || {
        vec![
            ("reachable_functions", tail.reachable_functions.into()),
            ("callgraph_edges", tail.callgraph_edges.into()),
            ("instantiated_classes", tail.instantiated_classes.into()),
            ("live", tail.members_live.into()),
            ("dead", tail.members_dead.into()),
            ("unclassifiable", tail.members_unclassifiable.into()),
        ]
    });
    telemetry.metrics(|m| {
        m.gauge_set("classify/members_live", tail.members_live as i64);
        m.gauge_set("classify/members_dead", tail.members_dead as i64);
        m.gauge_set(
            "classify/members_unclassifiable",
            tail.members_unclassifiable as i64,
        );
    });
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
