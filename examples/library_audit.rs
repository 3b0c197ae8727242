//! Auditing library usage: the paper's core motivation is that
//! applications using general-purpose class libraries accumulate dead
//! members through *unused library functionality*. This example runs the
//! suite's three library-using benchmarks and prints a per-class audit,
//! then shows the §3.3 treatment of classes whose source is unavailable.
//!
//! ```sh
//! cargo run --example library_audit
//! ```

use dead_data_members::analysis::{AnalysisConfig, ProjectPipeline};
use dead_data_members::callgraph::Algorithm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for name in dead_data_members::benchmarks::LIBRARY_USERS {
        let bench = dead_data_members::benchmarks::by_name(name).expect("suite benchmark");
        let run = bench.analyze()?;
        let report = run.report();
        println!(
            "== {name}: {}/{} dead data members ({:.1}%)",
            report.dead_members_in_used_classes(),
            report.members_in_used_classes(),
            report.dead_percentage()
        );
        for class in report.classes() {
            if class.dead_members.is_empty() {
                continue;
            }
            println!(
                "   {:<14} {} of {} members dead: {}",
                class.name,
                class.dead_members.len(),
                class.total_members,
                class.dead_members.join(", ")
            );
        }
    }

    // §3.3: when a class comes from a library whose source is NOT
    // available, its members cannot be classified at all. Mark the class
    // as a library class and it is excluded from the statistics; its
    // virtual methods' application overrides become call-graph roots.
    let source = r#"
        class LibWidget {            // pretend this came from a binary library
        public:
            virtual void on_event(); // no body available
            int internal_state;
        };
        class MyWidget : public LibWidget {
        public:
            int clicks;
            int skin_id;             // dead: written, never read
            virtual void on_event() { clicks = clicks + 1; }
        };
        int report_clicks(MyWidget* w) { return w->clicks; }
        int main() {
            MyWidget w;
            w.skin_id = 3;
            return report_clicks(&w);
        }
    "#;
    let run = ProjectPipeline::with_config(
        source,
        AnalysisConfig {
            library_classes: ["LibWidget".to_string()].into_iter().collect(),
            ..Default::default()
        },
        Algorithm::Rta,
    )?;
    let report = run.report();
    println!("\n== library-class handling (§3.3)");
    println!("{report}");
    assert_eq!(report.dead_member_names(), vec!["MyWidget::skin_id"]);
    // `on_event` is a callback root, so `clicks` stays live even though
    // no application code calls on_event directly.
    Ok(())
}
