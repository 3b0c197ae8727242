//! Human- and machine-readable analysis reports.

use crate::liveness::{LiveReason, Liveness};
use ddm_callgraph::CallGraph;
use ddm_hierarchy::{ClassId, MemberRef, Program};
use std::collections::HashSet;
use std::fmt;

/// Renders the full analysis output — the report, the call-graph
/// summary line, and (optionally) the per-class layout table — exactly
/// as the `ddm` CLI prints it to stdout. Serve mode answers `report`
/// queries through this same function, which is what makes its
/// responses byte-identical to a one-shot CLI run by construction
/// rather than by parallel maintenance.
pub fn render_analysis(
    program: &Program,
    callgraph: &CallGraph,
    liveness: &Liveness,
    report: &Report,
    layout: bool,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{report}");
    let _ = writeln!(
        out,
        "call graph ({}): {} reachable functions, {} edges",
        callgraph.algorithm(),
        callgraph.reachable_count(),
        callgraph.edge_count()
    );

    if layout {
        use ddm_hierarchy::LayoutEngine;
        let layouts = LayoutEngine::new(program);
        for (cid, class) in program.classes() {
            let layout = layouts.layout(cid);
            let _ = writeln!(
                out,
                "layout {} : size {} align {}{}{}",
                class.name,
                layout.size,
                layout.align,
                if layout.has_vptr { ", vptr" } else { "" },
                if layout.overhead > 0 {
                    format!(", {} overhead bytes", layout.overhead)
                } else {
                    String::new()
                }
            );
            for slot in &layout.fields {
                let owner = &program.class(slot.member.class).name;
                let member = &program.class(slot.member.class).members[slot.member.index as usize];
                let marker = if liveness.is_dead(slot.member) {
                    " [DEAD]"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "    +{:<4} {:<4} {}::{}{}",
                    slot.offset, slot.size, owner, member.name, marker
                );
            }
        }
    }
    out
}

/// Statistics for one class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReport {
    /// The class.
    pub class: ClassId,
    /// Class name.
    pub name: String,
    /// Whether the class is *used* (a constructor call occurs in the
    /// program text).
    pub used: bool,
    /// Whether the class was designated a library class (unclassifiable).
    pub library: bool,
    /// Total data members declared in the class.
    pub total_members: usize,
    /// Names of dead members.
    pub dead_members: Vec<String>,
    /// Names of live members with their reasons.
    pub live_members: Vec<(String, LiveReason)>,
}

/// Whole-program analysis report.
///
/// The headline statistic matches the paper's Figure 3: the percentage of
/// dead data members among members of *used*, non-library classes.
///
/// # Examples
///
/// ```
/// use ddm_core::ProjectPipeline;
///
/// let run = ProjectPipeline::from_source(
///     "class A { public: int live; int dead; };\n\
///      int main() { A a; return a.live; }",
/// )?;
/// let report = run.report();
/// assert_eq!(report.dead_percentage(), 50.0);
/// assert_eq!(report.used_class_count(), 1);
/// # Ok::<(), ddm_core::ProjectError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    classes: Vec<ClassReport>,
}

impl Report {
    /// Builds a report from a liveness classification.
    pub fn new(program: &Program, liveness: &Liveness, used: &HashSet<ClassId>) -> Report {
        let mut classes = Vec::new();
        for (cid, class) in program.classes() {
            let mut dead = Vec::new();
            let mut live = Vec::new();
            let mut library = false;
            for (idx, m) in class.members.iter().enumerate() {
                let r = MemberRef::new(cid, idx);
                if liveness.is_unclassifiable(r) {
                    library = true;
                } else if let Some(reason) = liveness.reason(r) {
                    live.push((m.name.clone(), reason));
                } else {
                    dead.push(m.name.clone());
                }
            }
            classes.push(ClassReport {
                class: cid,
                name: class.name.clone(),
                used: used.contains(&cid),
                library,
                total_members: class.members.len(),
                dead_members: dead,
                live_members: live,
            });
        }
        Report { classes }
    }

    /// Per-class breakdowns, in declaration order.
    pub fn classes(&self) -> &[ClassReport] {
        &self.classes
    }

    /// Total classes in the program.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of used classes (the paper's bracketed Table 1 column).
    pub fn used_class_count(&self) -> usize {
        self.classes.iter().filter(|c| c.used).count()
    }

    /// Data members declared in used, non-library classes (the Figure 3
    /// denominator).
    pub fn members_in_used_classes(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| c.used && !c.library)
            .map(|c| c.total_members)
            .sum()
    }

    /// Dead data members in used, non-library classes (the Figure 3
    /// numerator).
    pub fn dead_members_in_used_classes(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| c.used && !c.library)
            .map(|c| c.dead_members.len())
            .sum()
    }

    /// The paper's headline percentage (Figure 3): dead members in used
    /// classes as a fraction of all members in used classes. Zero when no
    /// members exist.
    pub fn dead_percentage(&self) -> f64 {
        let total = self.members_in_used_classes();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.dead_members_in_used_classes() as f64 / total as f64
    }

    /// Dead members across *all* non-library classes (used or not).
    pub fn total_dead_members(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| !c.library)
            .map(|c| c.dead_members.len())
            .sum()
    }

    /// A *weighted* variant of [`Report::dead_percentage`]: the dead
    /// fraction of the summed member sizes in used, non-library classes.
    ///
    /// The paper deliberately reports the unweighted number, arguing that
    /// "taking the size of data members into account for the static
    /// measurements is not meaningful, because there is no way to take
    /// into account statically how many times each class is instantiated"
    /// (§4.2). This method exists so that design decision can be
    /// inspected (see the `ablation_weighted` harness binary).
    pub fn weighted_dead_percentage(&self, program: &Program, liveness: &Liveness) -> f64 {
        let layouts = ddm_hierarchy::LayoutEngine::new(program);
        let mut total = 0u64;
        let mut dead = 0u64;
        for c in &self.classes {
            if !c.used || c.library {
                continue;
            }
            for (idx, m) in program.class(c.class).members.iter().enumerate() {
                let size = layouts.type_size(&m.ty) as u64;
                total += size;
                if liveness.is_dead(ddm_hierarchy::MemberRef::new(c.class, idx)) {
                    dead += size;
                }
            }
        }
        if total == 0 {
            return 0.0;
        }
        100.0 * dead as f64 / total as f64
    }

    /// `Class::member` names of every dead member in used classes,
    /// sorted — convenient for tests and diffing.
    pub fn dead_member_names(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .classes
            .iter()
            .filter(|c| c.used && !c.library)
            .flat_map(|c| {
                c.dead_members
                    .iter()
                    .map(move |m| format!("{}::{}", c.name, m))
            })
            .collect();
        out.sort();
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "dead data members: {}/{} in used classes ({:.1}%)",
            self.dead_members_in_used_classes(),
            self.members_in_used_classes(),
            self.dead_percentage()
        )?;
        for c in &self.classes {
            if c.total_members == 0 {
                continue;
            }
            let tag = if c.library {
                " [library]"
            } else if !c.used {
                " [unused]"
            } else {
                ""
            };
            writeln!(f, "  {}{tag}:", c.name)?;
            for (m, reason) in &c.live_members {
                writeln!(f, "    live {m} ({reason})")?;
            }
            for m in &c.dead_members {
                writeln!(f, "    DEAD {m}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisConfig;
    use crate::project::ProjectPipeline;
    use ddm_callgraph::Algorithm;

    fn report(src: &str) -> Report {
        report_with(src, AnalysisConfig::default())
    }

    fn report_with(src: &str, config: AnalysisConfig) -> Report {
        ProjectPipeline::with_config(src, config, Algorithm::Rta)
            .expect("pipeline")
            .report()
    }

    #[test]
    fn percentages_follow_the_figure3_definition() {
        let r = report(
            "class Used { public: int live1; int dead1; int dead2; };\n\
             class Unused { public: int ignored; };\n\
             int main() { Used u; u.dead1 = 1; return u.live1; }",
        );
        assert_eq!(r.used_class_count(), 1);
        assert_eq!(r.members_in_used_classes(), 3);
        assert_eq!(r.dead_members_in_used_classes(), 2);
        assert!((r.dead_percentage() - 66.666).abs() < 0.1);
        assert_eq!(
            r.dead_member_names(),
            vec!["Used::dead1".to_string(), "Used::dead2".to_string()]
        );
    }

    #[test]
    fn unused_class_members_excluded_from_percentage_but_counted_in_total() {
        let r = report(
            "class Unused { public: int a; int b; };\n\
             int main() { return 0; }",
        );
        assert_eq!(r.members_in_used_classes(), 0);
        assert_eq!(r.dead_percentage(), 0.0);
        assert_eq!(r.total_dead_members(), 2);
    }

    #[test]
    fn library_classes_are_flagged_and_excluded() {
        let r = report_with(
            "class Lib { public: int x; };\n\
             int main() { Lib l; return l.x; }",
            AnalysisConfig {
                library_classes: ["Lib".to_string()].into_iter().collect(),
                ..Default::default()
            },
        );
        let lib = &r.classes()[0];
        assert!(lib.library);
        assert_eq!(r.members_in_used_classes(), 0);
        assert_eq!(r.total_dead_members(), 0);
    }

    #[test]
    fn display_mentions_dead_members() {
        let r = report(
            "class A { public: int keep; int drop; };\n\
             int main() { A a; return a.keep; }",
        );
        let text = r.to_string();
        assert!(text.contains("DEAD drop"));
        assert!(text.contains("live keep (read)"));
        assert!(text.contains("50.0%"));
    }
}

#[cfg(test)]
mod weighted_tests {
    use crate::project::ProjectPipeline;

    #[test]
    fn weighted_percentage_accounts_for_member_sizes() {
        // One dead double (8 bytes) vs one live char (1 byte):
        // unweighted = 50%, weighted = 8/9 ≈ 88.9%.
        let run = ProjectPipeline::from_source(
            "class A { public: double heavy_dead; char light_live; };\n\
             int main() { A a; a.heavy_dead = 1.0; return a.light_live; }",
        )
        .unwrap();
        let report = run.report();
        assert!((report.dead_percentage() - 50.0).abs() < 1e-9);
        let weighted = report.weighted_dead_percentage(run.program(), run.liveness());
        assert!((weighted - 100.0 * 8.0 / 9.0).abs() < 1e-9, "{weighted}");
    }

    #[test]
    fn weighted_percentage_is_zero_without_members() {
        let run = ProjectPipeline::from_source("int main() { return 0; }").unwrap();
        let report = run.report();
        assert_eq!(
            report.weighted_dead_percentage(run.program(), run.liveness()),
            0.0
        );
    }
}
