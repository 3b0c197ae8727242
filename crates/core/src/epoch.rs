//! Immutable analysis epochs and the swap cell that publishes them.
//!
//! An [`EpochSnapshot`] is the complete, frozen result of one project
//! analysis run: the linked program, call graph, liveness, used-class
//! set, and the run's deterministic counters, stamped with a
//! monotonically increasing epoch id. Snapshots are plain data behind
//! an `Arc` — no locks, no interior mutability — so they are
//! `Send + Sync`: the thread that answers `report`/`explain`/`stats`
//! queries reads one while another thread builds the next, and cloning
//! the handle is a refcount bump.
//!
//! [`EpochCell`] is the single mutable point in serve mode: an
//! `ArcSwap`-style slot (hand-rolled over `Mutex<Option<Arc<_>>>`)
//! holding the current epoch. The builder thread constructs the next
//! snapshot entirely off to the side and publishes it with one
//! [`EpochCell::store`]; a reader that loaded the previous `Arc` keeps a
//! fully consistent world until it drops it. No reader can ever
//! observe a half-built epoch, because the only shared state is the
//! slot and the slot only ever holds finished snapshots.

use crate::analysis::AnalysisConfig;
use crate::explain::{explain, ExplainError};
use crate::liveness::Liveness;
use crate::report::{render_analysis, Report};
use ddm_callgraph::CallGraph;
use ddm_cppfront::SourceSet;
use ddm_hierarchy::{ClassId, LinkedProgram, Program};
use ddm_telemetry::Counters;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// One frozen analysis result. See the module docs for the sharing
/// contract; construction goes through
/// [`ProjectPipeline::run_epoch`](crate::ProjectPipeline::run_epoch).
#[derive(Debug)]
pub struct EpochSnapshot {
    pub(crate) epoch: u64,
    pub(crate) sources: SourceSet,
    pub(crate) files: Vec<String>,
    pub(crate) linked: LinkedProgram,
    pub(crate) callgraph: CallGraph,
    pub(crate) liveness: Liveness,
    pub(crate) used: HashSet<ClassId>,
    pub(crate) config: AnalysisConfig,
    pub(crate) counters: Counters,
}

impl EpochSnapshot {
    /// The epoch id this snapshot was published as (one-shot runs: 0).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The per-TU source maps, in input order.
    pub fn sources(&self) -> &SourceSet {
        &self.sources
    }

    /// The input file names, in input order.
    pub fn files(&self) -> &[String] {
        &self.files
    }

    /// The linked whole-program view with its per-TU provenance.
    pub fn linked(&self) -> &LinkedProgram {
        &self.linked
    }

    /// The linked program model.
    pub fn program(&self) -> &Program {
        self.linked.program()
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

    /// The deterministic counters the run accumulated on its telemetry
    /// handle. Meaningful when the build used a fresh enabled handle
    /// (serve mode builds one per epoch); all-zero under a disabled
    /// handle.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Builds the report over the linked program.
    pub fn report(&self) -> Report {
        Report::new(self.linked.program(), &self.liveness, &self.used)
    }

    /// The full analysis output, byte-identical to what a one-shot
    /// `ddm` run over the same files prints to stdout.
    pub fn render_report(&self, layout: bool) -> String {
        let report = self.report();
        render_analysis(
            self.linked.program(),
            &self.callgraph,
            &self.liveness,
            &report,
            layout,
        )
    }

    /// The `--explain` text for `spec`, byte-identical to the one-shot
    /// CLI's stdout for the same query.
    ///
    /// # Errors
    ///
    /// Propagates [`ExplainError`] (`bad_request` for a malformed spec,
    /// `not_found` for a well-formed spec naming nothing).
    pub fn render_explain(&self, spec: &str) -> Result<String, ExplainError> {
        explain(self.linked.program(), &self.callgraph, &self.liveness, spec)
    }

    /// The `== deterministic counters ==` section of `--stats`,
    /// byte-identical to the same section of a one-shot run's stderr
    /// (the deterministic-counter contract makes the section identical
    /// across jobs and cache states, so it is the one part of
    /// `--stats` a byte-equality oracle can pin).
    pub fn render_counters(&self) -> String {
        format!(
            "== deterministic counters ==\n{}",
            self.counters.render_table()
        )
    }
}

/// The swap cell serve mode publishes epochs through: readers
/// [`load`](EpochCell::load) the current `Arc` (a refcount bump under a
/// momentary mutex — never held across any analysis or rendering work),
/// the builder [`store`](EpochCell::store)s a finished snapshot to
/// publish it atomically. Readers holding the previous `Arc` are
/// undisturbed; the old epoch is freed when its last reader drops it.
#[derive(Debug, Default)]
pub struct EpochCell {
    slot: Mutex<Option<Arc<EpochSnapshot>>>,
}

impl EpochCell {
    /// An empty cell (no epoch published yet).
    pub fn new() -> EpochCell {
        EpochCell::default()
    }

    /// The current snapshot, or `None` before the first publish.
    pub fn load(&self) -> Option<Arc<EpochSnapshot>> {
        self.slot.lock().expect("epoch cell poisoned").clone()
    }

    /// Atomically replaces the published snapshot.
    pub fn store(&self, snapshot: Arc<EpochSnapshot>) {
        *self.slot.lock().expect("epoch cell poisoned") = Some(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::project::ProjectPipeline;
    use ddm_callgraph::Algorithm;
    use ddm_telemetry::Telemetry;

    fn snapshot(epoch: u64) -> Arc<EpochSnapshot> {
        let inputs = vec![(
            "one.cpp".to_string(),
            "class A { public: int m; int w; }; int main() { A a; return a.m; }".to_string(),
        )];
        ProjectPipeline::run_epoch(
            &inputs,
            AnalysisConfig::default(),
            Algorithm::Rta,
            1,
            None,
            &Telemetry::enabled(),
            epoch,
        )
        .expect("build")
    }

    #[test]
    fn snapshots_are_shareable_across_threads() {
        let snap = snapshot(1);
        let report = snap.render_report(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let snap = Arc::clone(&snap);
                let report = report.clone();
                scope.spawn(move || {
                    assert_eq!(snap.render_report(false), report);
                    assert_eq!(snap.epoch(), 1);
                });
            }
        });
    }

    #[test]
    fn cell_swaps_epochs_without_disturbing_held_readers() {
        let cell = EpochCell::new();
        assert!(cell.load().is_none());
        cell.store(snapshot(1));
        let held = cell.load().expect("published");
        cell.store(snapshot(2));
        assert_eq!(held.epoch(), 1, "a held Arc still sees its epoch");
        assert_eq!(cell.load().expect("published").epoch(), 2);
    }

    #[test]
    fn counters_capture_the_build_handles_totals() {
        let snap = snapshot(1);
        assert!(snap.counters().members_live >= 1);
        assert!(snap.render_counters().starts_with("== deterministic counters ==\n"));
        assert!(snap.render_counters().contains("members_live"));
    }
}
