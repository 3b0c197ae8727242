//! Differential harness for the delta-driven call-graph fixpoint.
//!
//! The worklist replaced a round-structured *full-set sweep* that
//! re-walked every reachable function each round until a
//! `(reachable, instantiated, edges)` convergence triple went quiet.
//! `ddm-oracle` keeps that algorithm alive ([`ddm_oracle::sweep`]) and
//! this harness checks that the delta fixpoint reproduces it bit for
//! bit: the reachable set, the instantiated set, every edge list, the
//! address-taken set, and every downstream byte (reports, `--explain`
//! transcripts).
//!
//! The sweep is intentionally the *naive* algorithm: correctness by
//! construction, quadratic be damned. DESIGN.md §5d argues the schedule
//! equivalence; this file enforces it.

use dead_data_members::analysis::{Engine, ProjectPipeline};
use dead_data_members::benchmarks::generator::{
    generate, generate_scale, GeneratorConfig, ScaleConfig,
};
use dead_data_members::prelude::*;
use dead_data_members::telemetry::FieldValue;
use ddm_bench::suite_analysis_config;

// ---------------------------------------------------------------------------
// Comparison plumbing
// ---------------------------------------------------------------------------

/// Asserts the delta fixpoint reproduces the sweep's graph on `source`
/// exactly — same reachable list, instantiated list, per-function edge
/// rows, and address-taken set.
fn assert_matches_oracle(label: &str, source: &str, algorithm: Algorithm) {
    let tu = parse(source).unwrap_or_else(|e| panic!("{label}: parse: {e}"));
    let program = Program::build(&tu).unwrap_or_else(|e| panic!("{label}: sema: {e}"));
    let options = CallGraphOptions {
        algorithm,
        ..Default::default()
    };
    let summary = ProgramSummary::build(&program, algorithm == Algorithm::Pta, 1);
    let (graph, _) =
        CallGraph::build_from_summary_schedule(&program, &summary, &options, &Telemetry::disabled())
            .unwrap_or_else(|e| panic!("{label}: build: {e}"));
    let swept = ddm_oracle::sweep(&program, &options)
        .unwrap_or_else(|e| panic!("{label}: sweep: {e}"));

    assert_eq!(
        graph.reachable().collect::<Vec<_>>(),
        swept.reachable().collect::<Vec<_>>(),
        "{label}: reachable set diverged from the pre-change sweep"
    );
    assert_eq!(
        graph.instantiated().collect::<Vec<_>>(),
        swept.instantiated().collect::<Vec<_>>(),
        "{label}: instantiated set diverged from the pre-change sweep"
    );
    assert_eq!(
        graph.address_taken().collect::<Vec<_>>(),
        swept.address_taken().collect::<Vec<_>>(),
        "{label}: address-taken set diverged from the pre-change sweep"
    );
    for (fid, _) in program.functions() {
        assert_eq!(
            graph.callees(fid).collect::<Vec<_>>(),
            swept.callees(fid).collect::<Vec<_>>(),
            "{label}: callee row of {fid:?} diverged from the pre-change sweep"
        );
    }
    assert_eq!(graph, swept, "{label}: graphs differ");
}

/// Every `Class::member` spec of `program`, in declaration order.
fn member_specs(program: &Program) -> Vec<String> {
    let mut out = Vec::new();
    for (_, info) in program.classes() {
        for m in &info.members {
            out.push(format!("{}::{}", info.name, m.name));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn suite_graphs_match_the_prechange_sweep_on_all_algorithms() {
    for b in dead_data_members::benchmarks::suite() {
        for algorithm in [
            Algorithm::Everything,
            Algorithm::Cha,
            Algorithm::Rta,
            Algorithm::Pta,
        ] {
            assert_matches_oracle(&format!("{}/{algorithm}", b.name), b.source, algorithm);
        }
    }
}

#[test]
fn generated_programs_match_the_prechange_sweep() {
    for seed in 0..8 {
        let source = generate(&GeneratorConfig::default(), seed);
        for algorithm in [Algorithm::Cha, Algorithm::Rta, Algorithm::Pta] {
            assert_matches_oracle(&format!("gen seed {seed}/{algorithm}"), &source, algorithm);
        }
    }
}

#[test]
fn scale_programs_match_the_prechange_sweep() {
    // Small enough for the quadratic oracle, deep enough to park and
    // release dispatch candidates across many rounds.
    let config = ScaleConfig {
        chains: 2,
        depth: 12,
        methods_per_class: 3,
        members_per_class: 2,
        rungs: 40,
    };
    for seed in [1, 9] {
        let source = generate_scale(&config, seed);
        for algorithm in [
            Algorithm::Everything,
            Algorithm::Cha,
            Algorithm::Rta,
            Algorithm::Pta,
        ] {
            assert_matches_oracle(&format!("scale seed {seed}/{algorithm}"), &source, algorithm);
        }
    }
}

#[test]
fn diamond_hierarchies_match_the_prechange_sweep() {
    // Virtual and non-virtual diamonds with overrides on every edge,
    // and dispatch sites that run before the joining class exists —
    // the park/release schedule must drain in the oracle's order.
    let source = "\
class Top { public: int t; virtual int poke() { return t; } };
class L : virtual public Top { public: int l; virtual int poke() { return l + t; } };
class R : virtual public Top { public: int r; virtual int poke() { return r + t; } };
class J : public L, public R { public: int j; virtual int poke() { return j + l + r; } };
class NT { public: int nt; virtual int poke() { return nt; } };
class NL : public NT { public: int nl; virtual int poke() { return nl + nt; } };
class NR : public NT { public: int nr; virtual int poke() { return nr + nt; } };
class NJ : public NL, public NR { public: int nj; virtual int poke() { return nj + nl + nr; } };
int disp(Top* p) { return p->poke(); }
int dispn(NL* p) { return p->poke(); }
int early() { L shallow; return disp(&shallow); }
int late() { J joined; NJ* n = new NJ(); int acc = disp(&joined) + dispn(n); delete n; return acc; }
int main() { int a = early(); a = a + late(); return a; }
";
    for algorithm in [Algorithm::Cha, Algorithm::Rta, Algorithm::Pta] {
        assert_matches_oracle(&format!("diamond/{algorithm}"), source, algorithm);
    }
}

#[test]
fn wide_rounds_match_the_prechange_sweep() {
    // One delta round 300 functions wide, with an instantiation landing
    // mid-round so readied drain slots interleave with first
    // processings.
    let n = 300;
    let mut source = String::from(
        "class A { public: int f; virtual int m() { return f; } };\n\
         class B : public A { public: int g; virtual int m() { return g + f; } };\n",
    );
    for i in 0..n {
        if i == n / 2 {
            source.push_str(&format!(
                "int leaf{i}(A* a) {{ B b; return a->m() + b.m() + {i}; }}\n"
            ));
        } else {
            source.push_str(&format!("int leaf{i}(A* a) {{ return a->m() + {i}; }}\n"));
        }
    }
    source.push_str("int main() { A a; int t = 0;\n");
    for i in 0..n {
        source.push_str(&format!("  t = t + leaf{i}(&a);\n"));
    }
    source.push_str("  return t; }\n");
    for algorithm in [Algorithm::Cha, Algorithm::Rta] {
        assert_matches_oracle(&format!("wide/{algorithm}"), &source, algorithm);
    }
}

/// A one-TU project built by `with_config`, the same project run at
/// jobs 1 and 8, and the `ddm-oracle` reference analysis must render
/// byte-identical reports and `--explain` transcripts.
#[test]
fn reports_and_explanations_are_byte_identical_across_engines_and_jobs() {
    for b in dead_data_members::benchmarks::suite() {
        let name = b.name;
        let config = suite_analysis_config();
        let reference = ProjectPipeline::with_config(b.source, config.clone(), Algorithm::Rta)
            .unwrap_or_else(|e| panic!("{name}: reference run: {e}"));
        let program = reference.program();
        let specs = member_specs(program);
        let explain_all = |callgraph: &CallGraph, liveness: &Liveness| -> Vec<String> {
            specs
                .iter()
                .map(|s| explain(program, callgraph, liveness, s).expect("known member"))
                .collect()
        };
        let reference_report = reference.report().to_string();
        let reference_explains = explain_all(reference.callgraph(), reference.liveness());

        let oracle = ddm_oracle::analyze(program, &config, Algorithm::Rta)
            .unwrap_or_else(|e| panic!("{name}: oracle: {e}"));
        assert_eq!(
            reference_report,
            oracle.report(program).to_string(),
            "{name}: report bytes diverged (oracle)"
        );
        assert_eq!(
            reference_explains,
            explain_all(&oracle.callgraph, &oracle.liveness),
            "{name}: explanations diverged (oracle)"
        );

        let inputs = vec![(format!("{name}.cpp"), b.source.to_string())];
        for jobs in [1, 8] {
            let run = ProjectPipeline::run(
                &inputs,
                config.clone(),
                Algorithm::Rta,
                jobs,
                Engine::Summary,
                None,
                &Telemetry::disabled(),
            )
            .unwrap_or_else(|e| panic!("{name}: project jobs={jobs}: {e}"));
            assert_eq!(
                reference_report,
                run.report().to_string(),
                "{name}: report bytes diverged (project, jobs={jobs})"
            );
            let explains: Vec<String> = specs
                .iter()
                .map(|s| explain(run.program(), run.callgraph(), run.liveness(), s).unwrap())
                .collect();
            assert_eq!(
                reference_explains, explains,
                "{name}: explanations diverged (project, jobs={jobs})"
            );
        }
    }
}

/// The per-round delta sizes of a run's fixpoint, in round order: the
/// `delta_fns` of its deterministic `cg_round` events.
fn round_deltas(telemetry: &Telemetry) -> Vec<i64> {
    telemetry
        .events()
        .into_iter()
        .filter(|e| e.name == "cg_round")
        .map(|e| {
            e.fields
                .iter()
                .find_map(|(key, value)| match value {
                    FieldValue::Int(d) if *key == "delta_fns" => Some(*d),
                    _ => None,
                })
                .expect("cg_round carries delta_fns")
        })
        .collect()
}

/// Two paths produce a fixpoint's worklist telemetry: a fresh solve and
/// a snapshot warm start that replays the stored schedule. Both must
/// give a cacheless run's counters and per-round delta sizes, at any
/// worker count.
#[test]
fn worklist_telemetry_is_identical_across_engines_and_jobs() {
    for b in dead_data_members::benchmarks::suite() {
        let name = b.name;
        let inputs = vec![(format!("{name}.cpp"), b.source.to_string())];
        let telemetry = Telemetry::recording();
        ProjectPipeline::run(
            &inputs,
            suite_analysis_config(),
            Algorithm::Rta,
            1,
            Engine::Summary,
            None,
            &telemetry,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let counters = telemetry.counters();
        let deltas = round_deltas(&telemetry);
        assert!(
            counters.cg_worklist_pops > 0,
            "{name}: the fixpoint must pop work"
        );

        let cache = std::env::temp_dir().join(format!("ddm-wl-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        for (jobs, state) in [(1, "cold"), (8, "replayed")] {
            let telemetry = Telemetry::recording();
            ProjectPipeline::run(
                &inputs,
                suite_analysis_config(),
                Algorithm::Rta,
                jobs,
                Engine::Summary,
                Some(&cache),
                &telemetry,
            )
            .unwrap_or_else(|e| panic!("{name}: {state}: {e}"));
            assert_eq!(
                telemetry.counter("snapshot/reused_fns") > 0,
                state == "replayed",
                "{name}: {state} run took the wrong fixpoint path"
            );
            assert_eq!(
                telemetry.counters(),
                counters,
                "{name}: counters diverged ({state}, jobs={jobs})"
            );
            assert_eq!(
                round_deltas(&telemetry),
                deltas,
                "{name}: per-round delta sizes diverged ({state}, jobs={jobs})"
            );
        }
        let _ = std::fs::remove_dir_all(&cache);
    }
}
