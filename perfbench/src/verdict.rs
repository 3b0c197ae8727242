//! Expected verdicts and the interpreter cross-check.
//!
//! A verdict is what a correct analysis of one input must produce: a
//! digest of its dead-member set plus the deterministic [`Counters`].
//! Expected verdicts come from the cacheless one-shot pipeline; every
//! timed operation — cached, incremental, served or traced — is compared
//! with them. For the default seed they are also committed in
//! `expected_verdicts.txt`, which was cross-checked against the
//! `ddm-dynamic` interpreter when it was written.

use crate::gen::Project;
use ddm_callgraph::Algorithm;
use ddm_core::{AnalysisConfig, Engine, EpochSnapshot, Liveness, ProjectPipeline};
use ddm_dynamic::{Interpreter, RunConfig};
use ddm_hierarchy::{fnv1a64, MemberRef, Program};
use ddm_telemetry::{Counters, Telemetry};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// The call-graph algorithm every workload runs.
pub const ALGORITHM: Algorithm = Algorithm::Rta;

/// Stack of the interpreter thread [`oracle_check`] runs.
const ORACLE_STACK_BYTES: usize = 256 << 20;

/// The dead-member digest and deterministic counters of one analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// FNV-1a of the sorted `Class::member` names classified dead.
    pub dead_digest: u64,
    /// Number of dead members.
    pub dead: u64,
    /// The run's deterministic counters.
    pub counters: Counters,
}

impl Verdict {
    /// The verdict of a finished analysis.
    pub fn of(program: &Program, liveness: &Liveness, counters: Counters) -> Verdict {
        let mut dead = Vec::new();
        for (cid, class) in program.classes() {
            for (idx, member) in class.members.iter().enumerate() {
                let m = MemberRef::new(cid, idx);
                if !liveness.is_live(m) && !liveness.is_unclassifiable(m) {
                    dead.push(format!("{}::{}", class.name, member.name));
                }
            }
        }
        dead.sort();
        Verdict {
            dead_digest: fnv1a64(dead.join("\n").as_bytes()),
            dead: dead.len() as u64,
            counters,
        }
    }

    /// The verdict's line in the expected-verdict file.
    pub fn line(&self, workload: &str, input: &str) -> String {
        let counters: Vec<String> = self
            .counters
            .rows()
            .iter()
            .map(|(_, v)| v.to_string())
            .collect();
        format!(
            "{workload} {input} {:016x} {} {}",
            self.dead_digest,
            self.dead,
            counters.join(" ")
        )
    }
}

/// The reference run: cacheless, one job, a fresh telemetry handle.
///
/// # Errors
///
/// The pipeline's error, rendered.
pub fn one_shot(project: &Project) -> Result<(Arc<EpochSnapshot>, Verdict), String> {
    let telemetry = Telemetry::enabled();
    let run = ProjectPipeline::run(
        project,
        AnalysisConfig::default(),
        ALGORITHM,
        1,
        Engine::Summary,
        None,
        &telemetry,
    )
    .map_err(|e| e.to_string())?;
    let verdict = Verdict::of(run.program(), run.liveness(), telemetry.counters());
    Ok((run.snapshot(), verdict))
}

/// The committed expected-verdict file.
pub fn expected_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected_verdicts.txt")
}

/// The verdict lines of the committed file (comments dropped).
///
/// # Errors
///
/// When the file cannot be read.
pub fn committed_lines() -> Result<BTreeSet<String>, String> {
    let text = std::fs::read_to_string(expected_path())
        .map_err(|e| format!("cannot read {}: {e}", expected_path().display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(str::to_string)
        .collect())
}

/// Runs the interpreter over a cacheless snapshot (whose linked program
/// carries every function body) and checks that each member it
/// observes read or address-taken is classified live. Returns the
/// number of members observed, or `None` when the program does not run
/// to completion in the interpreter.
///
/// # Errors
///
/// The first observed member the analysis classified dead.
pub fn oracle_check(snapshot: &EpochSnapshot) -> Result<Option<usize>, String> {
    let program = snapshot.program();
    // The interpreter recurses once per C++ call; the deep-dispatch
    // ladders need more stack than a default thread has.
    let run = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(ORACLE_STACK_BYTES)
            .spawn_scoped(scope, || {
                Interpreter::new(program).run(&RunConfig::default())
            })
            .map_err(|e| format!("cannot start the interpreter thread: {e}"))?
            .join()
            .map_err(|_| "the interpreter panicked".to_string())
    })?;
    let Ok(exec) = run else {
        return Ok(None);
    };
    for &m in &exec.members_observed {
        if !snapshot.liveness().is_live(m) {
            let class = program.class(m.class);
            return Err(format!(
                "{}::{} read at run time but classified dead",
                class.name, class.members[m.index as usize].name
            ));
        }
    }
    Ok(Some(exec.members_observed.len()))
}
