//! §3.1 ablation: the paper notes that "the accuracy of the call graph
//! may have an impact on the precision of the analysis" and walks
//! through how a better call graph would reclassify members of its
//! Figure 1 example. This binary quantifies that on the whole suite by
//! running the analysis under all four call-graph builders:
//! `everything` (all functions reachable), CHA, RTA (the paper's PVG
//! stand-in), and PTA (RTA plus the §3.1 points-to refinement). Dead
//! counts are monotone: everything ≤ CHA ≤ RTA ≤ PTA.

use ddm_callgraph::Algorithm;
use ddm_core::{AnalysisConfig, ProjectPipeline, SizeofPolicy};

fn dead_count(source: &str, algorithm: Algorithm) -> (usize, usize, f64) {
    let run = ProjectPipeline::with_config(
        source,
        AnalysisConfig {
            assume_safe_downcasts: true,
            sizeof_policy: SizeofPolicy::Ignore,
            ..Default::default()
        },
        algorithm,
    )
    .expect("suite analyzes cleanly");
    let report = run.report();
    (
        report.dead_members_in_used_classes(),
        report.members_in_used_classes(),
        report.dead_percentage(),
    )
}

fn main() {
    println!("Call-graph precision ablation (§3.1): dead members under each builder\n");
    println!(
        "{:<10} {:>16} {:>16} {:>16} {:>16}",
        "name", "everything", "CHA", "RTA (paper's)", "PTA (§3.1)"
    );
    let mut totals = [0usize; 4];
    for b in ddm_benchmarks::suite() {
        let (de, me, pe) = dead_count(b.source, Algorithm::Everything);
        let (dc, _, pc) = dead_count(b.source, Algorithm::Cha);
        let (dr, _, pr) = dead_count(b.source, Algorithm::Rta);
        let (dp, _, pp) = dead_count(b.source, Algorithm::Pta);
        assert!(
            de <= dc && dc <= dr && dr <= dp,
            "monotonicity violated for {}",
            b.name
        );
        totals[0] += de;
        totals[1] += dc;
        totals[2] += dr;
        totals[3] += dp;
        println!(
            "{:<10} {:>8}/{:<3}{:>4.1}% {:>8}/{:<3}{:>4.1}% {:>8}/{:<3}{:>4.1}% {:>8}/{:<3}{:>4.1}%",
            b.name, de, me, pe, dc, me, pc, dr, me, pr, dp, me, pp
        );
    }
    println!(
        "\ntotals: everything={} CHA={} RTA={} PTA={} dead members",
        totals[0], totals[1], totals[2], totals[3]
    );
    println!("PTA ≥ RTA ≥ CHA ≥ everything, as §3.1 predicts: a more precise call");
    println!("graph excludes more unreachable member accesses and finds more dead members.");
}
