//! Property-based tests over generated programs.
//!
//! The central property is the *soundness oracle*: for any program the
//! generator emits, any data member the interpreter observes being read
//! (or address-taken) during execution must be classified live by the
//! static analysis. This ties together every crate in the workspace:
//! parser → model → call graph → analysis vs. interpreter ground truth.
//!
//! The cases are drawn with the workspace's own seeded PRNG rather than
//! an external property-testing crate (the build environment is
//! offline), so every run exercises the identical deterministic sweep.

use ddm_bench::fuzz::{case_for_seed, chunk_top_level};
use dead_data_members::analysis::{Engine, ProjectError, ProjectPipeline};
use dead_data_members::benchmarks::generator::{
    generate, generate_fuzz, FuzzShape, GeneratorConfig,
};
use dead_data_members::benchmarks::rng::Rng;
use dead_data_members::prelude::*;

/// Deterministic replacement for a proptest strategy: `n` generator
/// configurations spanning the same shape space, each with its own
/// program seed.
fn cases(n: usize, stream_seed: u64) -> Vec<(GeneratorConfig, u64)> {
    let mut rng = Rng::seed_from_u64(stream_seed);
    (0..n)
        .map(|_| {
            let config = GeneratorConfig {
                classes: rng.gen_range(1..8),
                members_per_class: rng.gen_range(1..6),
                methods_per_class: rng.gen_range(1..4),
                stmts_per_method: rng.gen_range(0..6),
                objects_in_main: rng.gen_range(1..8),
            };
            let seed = rng.next_u64() % 10_000;
            (config, seed)
        })
        .collect()
}

#[test]
fn generated_programs_are_accepted_end_to_end() {
    for (config, seed) in cases(48, 0xE2E) {
        let src = generate(&config, seed);
        let run = ProjectPipeline::from_source(&src)
            .unwrap_or_else(|e| panic!("pipeline failed: {e}\n{src}"));
        let exec = Interpreter::new(run.program())
            .run(&RunConfig::default())
            .unwrap_or_else(|e| panic!("execution failed: {e}\n{src}"));
        assert!(exec.steps > 0);
    }
}

#[test]
fn analysis_is_sound_against_the_interpreter() {
    for (config, seed) in cases(48, 0x50BE) {
        let src = generate(&config, seed);
        let run = ProjectPipeline::from_source(&src).expect("pipeline");
        let exec = Interpreter::new(run.program())
            .run(&RunConfig::default())
            .expect("run");
        for m in &exec.members_observed {
            assert!(
                run.liveness().is_live(*m),
                "member {m} observed at run time but statically dead\n{src}"
            );
        }
    }
}

#[test]
fn pta_refinement_is_also_sound() {
    // The §3.1 points-to refinement prunes dispatch targets; it must
    // never prune one the interpreter actually reaches.
    for (config, seed) in cases(48, 0x97A) {
        let src = generate(&config, seed);
        let run = ProjectPipeline::with_config(&src, Default::default(), Algorithm::Pta)
            .expect("pipeline");
        let exec = Interpreter::new(run.program())
            .run(&RunConfig::default())
            .expect("run");
        for m in &exec.members_observed {
            assert!(
                run.liveness().is_live(*m),
                "PTA: member {m} observed at run time but statically dead\n{src}"
            );
        }
    }
}

/// Stack for the interpreter thread: it recurses once per C++ call, and
/// the deep-ladder shape dispatches down long override chains.
const INTERPRETER_STACK_BYTES: usize = 256 << 20;

/// Seeds swept by [`every_fuzz_shape_is_sound_against_the_interpreter`]:
/// 50 cycles of the 8 fuzz shapes.
const FUZZ_SOUNDNESS_SEEDS: u64 = 400;

#[test]
fn every_fuzz_shape_is_sound_against_the_interpreter() {
    let mut executed = std::collections::BTreeMap::<&str, u64>::new();
    for seed in 0..FUZZ_SOUNDNESS_SEEDS {
        let case = case_for_seed(seed);
        let shape = case.config.shape;
        let inputs = generate_fuzz(&case.config, seed);
        let label = format!("seed {seed} shape {}", shape.name());
        let run = ProjectPipeline::run(
            &inputs,
            AnalysisConfig::default(),
            case.algorithm,
            1,
            Engine::Summary,
            None,
            &Telemetry::disabled(),
        );
        let run = match (shape, run) {
            // Two TUs define one class differently: rejected at link.
            (FuzzShape::OdrConflict, Err(ProjectError::Link(_))) => continue,
            (FuzzShape::OdrConflict, other) => {
                panic!("{label}: expected a link error, got {other:?}")
            }
            (_, run) => run.unwrap_or_else(|e| panic!("{label}: pipeline failed: {e}")),
        };
        // A cacheless run's linked program carries every body.
        let exec = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(INTERPRETER_STACK_BYTES)
                .spawn_scoped(scope, || {
                    Interpreter::new(run.program()).run(&RunConfig::default())
                })
                .expect("interpreter thread")
                .join()
                .unwrap_or_else(|_| panic!("{label}: the interpreter panicked"))
        });
        let exec = match (shape, exec) {
            // The interpreter does not model the casts' pointer-integer
            // arithmetic: a typed runtime error, never a panic.
            (FuzzShape::CastStorm, Err(_)) => continue,
            (FuzzShape::CastStorm, Ok(_)) => panic!("{label}: expected a runtime error"),
            (_, exec) => exec.unwrap_or_else(|e| panic!("{label}: execution failed: {e}")),
        };
        for m in &exec.members_observed {
            assert!(
                run.liveness().is_live(*m),
                "{label}: member {m} observed at run time but statically dead"
            );
        }
        *executed.entry(shape.name()).or_default() += 1;
    }
    // Every shape but the two rejected ones executed in every cycle.
    let cycles = FUZZ_SOUNDNESS_SEEDS / 8;
    assert_eq!(executed.len(), 6, "{executed:?}");
    assert!(executed.values().all(|&n| n == cycles), "{executed:?}");
}

/// Splits a generated program into a project: the class definitions
/// form a header that every TU repeats, and each free function (the
/// never-called reader and `main`) gets a TU of its own.
fn split_into_tus(src: &str) -> Vec<(String, String)> {
    let (header, functions): (Vec<String>, Vec<String>) = chunk_top_level(src)
        .into_iter()
        .partition(|chunk| chunk.lines().any(|l| l.starts_with("class ")));
    let header = header.concat();
    functions
        .iter()
        .enumerate()
        .map(|(i, f)| (format!("tu{i}.cpp"), format!("{header}{f}")))
        .collect()
}

#[test]
fn parallel_analysis_matches_sequential_on_generated_programs() {
    // Differential property over random programs: split into TUs and
    // run through the parallel per-TU front end, every worker count must
    // reproduce the whole program's one-TU report bit-for-bit.
    for (config, seed) in cases(24, 0x7A12) {
        let src = generate(&config, seed);
        let sequential = ProjectPipeline::from_source(&src).expect("pipeline");
        let inputs = split_into_tus(&src);
        assert!(
            inputs.len() >= 2,
            "a generated program has two free functions"
        );
        for jobs in [1, 2, 3, 8] {
            let parallel = ProjectPipeline::run(
                &inputs,
                AnalysisConfig::default(),
                Algorithm::Rta,
                jobs,
                Engine::Summary,
                None,
                &Telemetry::disabled(),
            )
            .expect("project pipeline");
            assert_eq!(
                sequential.report().to_string(),
                parallel.report().to_string(),
                "jobs={jobs} report diverged\n{src}"
            );
        }
    }
}

#[test]
fn pretty_printer_round_trips_generated_programs() {
    for (config, seed) in cases(48, 0xB0B) {
        let src = generate(&config, seed);
        let tu1 = dead_data_members::cppfront::parse(&src).expect("parse");
        let printed = dead_data_members::cppfront::print_unit(&tu1);
        let tu2 = dead_data_members::cppfront::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        // The printer must be a fixpoint, and structure must be preserved.
        assert_eq!(&printed, &dead_data_members::cppfront::print_unit(&tu2));
        assert_eq!(tu1.classes.len(), tu2.classes.len());
        assert_eq!(tu1.data_member_count(), tu2.data_member_count());
    }
}

#[test]
fn layout_invariants() {
    for (config, seed) in cases(48, 0x1A1) {
        let src = generate(&config, seed);
        let tu = dead_data_members::cppfront::parse(&src).expect("parse");
        let program = Program::build(&tu).expect("sema");
        let layouts = LayoutEngine::new(&program);
        for (cid, info) in program.classes() {
            let layout = layouts.layout(cid);
            assert!(layout.size >= 1, "{}", info.name);
            assert!(layout.align.is_power_of_two());
            assert_eq!(layout.size % layout.align, 0, "size must honor alignment");
            // Field slots are disjoint and inside the object.
            let mut slots: Vec<_> = layout.fields.clone();
            slots.sort_by_key(|f| f.offset);
            for w in slots.windows(2) {
                assert!(
                    w[0].offset + w[0].size <= w[1].offset,
                    "{}: overlapping fields",
                    info.name
                );
            }
            if let Some(last) = slots.last() {
                assert!(last.offset + last.size <= layout.size);
            }
            // The trimmed size can never exceed the full size.
            let all = layout.bytes_where(|_| true);
            assert!(all <= layout.size);
        }
    }
}

#[test]
fn liveness_is_monotone_in_callgraph_precision() {
    for (config, seed) in cases(48, 0x3CA) {
        let src = generate(&config, seed);
        let dead = |alg| {
            let run =
                ProjectPipeline::with_config(&src, Default::default(), alg).expect("pipeline");
            run.report().dead_member_names().len()
        };
        let everything = dead(Algorithm::Everything);
        let cha = dead(Algorithm::Cha);
        let rta = dead(Algorithm::Rta);
        assert!(everything <= cha && cha <= rta, "{src}");
    }
}

#[test]
fn profile_is_consistent_for_generated_programs() {
    use dead_data_members::dynamic::profile_trace;
    for (config, seed) in cases(48, 0xF00D) {
        let src = generate(&config, seed);
        let run = ProjectPipeline::from_source(&src).expect("pipeline");
        let exec = Interpreter::new(run.program())
            .run(&RunConfig::default())
            .expect("run");
        let p = profile_trace(run.program(), &exec.trace, run.liveness());
        assert!(p.dead_member_space <= p.object_space);
        assert!(p.high_water_mark <= p.object_space);
        assert!(p.high_water_mark_without_dead <= p.high_water_mark);
    }
}
