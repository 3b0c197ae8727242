//! The full optimization loop: analyze → eliminate dead members →
//! re-analyze → execute both versions and compare space. This is the
//! compiler transformation the paper advocates ("this optimization
//! should be incorporated in any optimizing compiler", §4.4).
//!
//! ```sh
//! cargo run --release --example optimize
//! ```

use dead_data_members::analysis::eliminate;
use dead_data_members::dynamic::{profile_trace, Interpreter, RunConfig};
use dead_data_members::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = dead_data_members::benchmarks::by_name("taldict").expect("suite benchmark");

    // 1. Analyze and measure the original.
    let before = bench.analyze()?;
    let exec_before = Interpreter::new(before.program()).run(&RunConfig::default())?;
    let profile_before = profile_trace(before.program(), &exec_before.trace, before.liveness());

    // 2. Eliminate the dead members.
    let result = eliminate(&before);
    println!("removed {} dead member(s):", result.removed.len());
    for m in &result.removed {
        println!("  - {m}");
    }
    for (m, why) in &result.kept {
        println!("  (kept {m}: {why})");
    }

    // 3. Re-analyze and re-run the optimized program.
    let after = ProjectPipeline::from_source(&result.source)?;
    let exec_after = Interpreter::new(after.program()).run(&RunConfig::default())?;
    let profile_after = profile_trace(after.program(), &exec_after.trace, after.liveness());

    // 4. Behaviour must be identical; space must shrink.
    assert_eq!(exec_before.output, exec_after.output, "behaviour changed!");
    assert_eq!(exec_before.exit_code, exec_after.exit_code);
    println!(
        "\nobservable behaviour: identical ({} bytes of output)",
        exec_after.output.len()
    );
    println!(
        "object space: {} -> {} bytes ({} saved)",
        profile_before.object_space,
        profile_after.object_space,
        profile_before.object_space - profile_after.object_space
    );
    println!(
        "high-water mark: {} -> {} bytes",
        profile_before.high_water_mark, profile_after.high_water_mark
    );
    Ok(())
}
