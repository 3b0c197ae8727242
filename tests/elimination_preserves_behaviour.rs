//! The optimization end-to-end: eliminating dead data members from every
//! benchmark must preserve observable behaviour exactly (output and exit
//! code) while never increasing — and usually shrinking — object space.
//! This validates the paper's core claim that dead members "can be
//! removed from the application without affecting program behavior".

use dead_data_members::analysis::eliminate;
use dead_data_members::dynamic::{profile_trace, Interpreter, RunConfig};
use dead_data_members::prelude::*;

#[test]
fn eliminating_dead_members_preserves_suite_behaviour() {
    for b in dead_data_members::benchmarks::suite() {
        let before = b.analyze().unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let exec_before = Interpreter::new(before.program())
            .run(&RunConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let profile_before = profile_trace(before.program(), &exec_before.trace, before.liveness());

        let result = eliminate(&before);
        let after = ProjectPipeline::from_source(&result.source)
            .unwrap_or_else(|e| panic!("{}: transformed source rejected: {e}", b.name));
        let exec_after = Interpreter::new(after.program())
            .run(&RunConfig::default())
            .unwrap_or_else(|e| panic!("{}: transformed program crashed: {e}", b.name));

        assert_eq!(
            exec_before.output, exec_after.output,
            "{}: output changed after elimination",
            b.name
        );
        assert_eq!(
            exec_before.exit_code, exec_after.exit_code,
            "{}: exit code changed after elimination",
            b.name
        );

        let profile_after = profile_trace(after.program(), &exec_after.trace, after.liveness());
        assert!(
            profile_after.object_space <= profile_before.object_space,
            "{}: object space grew ({} -> {})",
            b.name,
            profile_before.object_space,
            profile_after.object_space
        );
        if !result.removed.is_empty() {
            assert!(
                profile_after.object_space < profile_before.object_space,
                "{}: removed {:?} but object space did not shrink",
                b.name,
                result.removed
            );
        }
    }
}

#[test]
fn elimination_is_idempotent_on_the_suite() {
    // After one elimination pass, a second pass should find nothing new
    // to remove among the previously eliminable members.
    for b in dead_data_members::benchmarks::suite() {
        let first = b.analyze().unwrap();
        let r1 = eliminate(&first);
        let second = ProjectPipeline::from_source(&r1.source).unwrap();
        let r2 = eliminate(&second);
        for name in &r2.removed {
            assert!(
                !r1.removed.contains(name),
                "{}: {name} survived the first pass but was eliminable",
                b.name
            );
        }
    }
}

#[test]
fn suite_elimination_removes_most_dead_members() {
    // The conservative eligibility rules should still fire for the large
    // majority of the suite's dead members (they are ordinary scalar
    // bookkeeping fields).
    let mut total_dead = 0usize;
    let mut total_removed = 0usize;
    for b in dead_data_members::benchmarks::suite() {
        let run = b.analyze().unwrap();
        let dead = run.report().dead_members_in_used_classes();
        let removed = eliminate(&run).removed.len();
        total_dead += dead;
        total_removed += removed;
        assert!(removed <= dead, "{}", b.name);
    }
    assert!(
        total_dead > 30,
        "suite should have a healthy dead population"
    );
    assert!(
        total_removed * 100 >= total_dead * 70,
        "only {total_removed}/{total_dead} dead members were eliminable"
    );
}
