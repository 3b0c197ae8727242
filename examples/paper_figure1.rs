//! The paper's running example (Figure 1), classified exactly as §2/§3.1
//! describe.
//!
//! ```sh
//! cargo run --example paper_figure1
//! ```

use dead_data_members::prelude::*;

const FIGURE_1: &str = r#"
    class N {
    public:
        int mn1; /* live: accessed and observable */
        int mn2; /* dead: not accessed */
    };
    class A {
    public:
        virtual int f() { return ma1; }
        int ma1; /* live: accessed and observable */
        int ma2; /* dead: not accessed */
        int ma3; /* dead: accessed but not observable (write only) */
    };
    class B : public A {
    public:
        virtual int f() { return mb1; }
        int mb1; /* conservatively live: B::f is in the RTA call graph */
        N mb2;   /* live: accessed and observable */
        int mb3; /* conservatively live: read (though the value is unused) */
        int mb4; /* live: address taken and used */
    };
    class C : public A {
    public:
        virtual int f() { return mc1; }
        int mc1; /* conservatively live: C::f is in the RTA call graph */
    };
    int foo(int* x) { return (*x) + 1; }
    int main() {
        A a; B b; C c;
        A* ap;
        a.ma3 = b.mb3 + 1;
        int i = 10;
        if (i < 20) { ap = &a; } else { ap = &b; }
        return ap->f() + b.mb2.mn1 + foo(&b.mb4);
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = ProjectPipeline::from_source(FIGURE_1)?;
    let report = run.report();
    println!("{report}");

    // The paper's expected result: three members are dead even under the
    // conservative analysis — ma2 and mn2 (never accessed) and ma3
    // (written but never read).
    assert_eq!(
        report.dead_member_names(),
        vec!["A::ma2", "A::ma3", "N::mn2"]
    );

    // §3.1 also explains which members are *actually* dead but kept live
    // by conservatism: mb1/mc1 (their readers are reachable only through
    // the imprecise call graph) and mb3 (read, but the value only feeds a
    // dead store). A points-to analysis or dead-code elimination would
    // reclaim those; see the `ablation_callgraph` binary.
    for name in ["mb1", "mc1", "mb3"] {
        let b_or_c = report
            .classes()
            .iter()
            .find(|c| c.live_members.iter().any(|(m, _)| m == name));
        assert!(b_or_c.is_some(), "{name} should be (conservatively) live");
    }
    println!("Figure 1 classified exactly as the paper describes.");
    Ok(())
}
