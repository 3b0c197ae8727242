//! Quickstart: detect dead data members in a small C++ program.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use dead_data_members::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
        class Customer {
        public:
            int id;
            int balance;
            int last_login_day;   // written on every login, never read
            int legacy_flags;     // only the retired v1 sync path read this
            Customer(int cid) : id(cid), balance(0) {
                last_login_day = 0;
                legacy_flags = 7;
            }
            void login(int day) { last_login_day = day; }
            void deposit(int amount) { balance = balance + amount; }
        };

        // The retired v1 sync path: no longer called from anywhere.
        int sync_v1(Customer* c) {
            return c->legacy_flags;
        }

        int main() {
            Customer* c = new Customer(1001);
            c->login(37);
            c->deposit(250);
            int result = c->id + c->balance;
            delete c;
            return result;
        }
    "#;

    // One call runs the whole pipeline: parse -> semantic model -> RTA
    // call graph -> dead-member analysis -> used classes.
    let run = ProjectPipeline::from_source(source)?;
    let report = run.report();

    println!("{report}");
    println!("Dead members found: {:?}", report.dead_member_names());

    // `last_login_day` is written on a *reachable* path but never read;
    // `legacy_flags` is only read from an unreachable function. Both are
    // dead: removing them shrinks every Customer object.
    assert_eq!(
        report.dead_member_names(),
        vec!["Customer::last_login_day", "Customer::legacy_flags"]
    );
    Ok(())
}
