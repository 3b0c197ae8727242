//! Incremental retraction: an edit that *removes* the thing keeping a
//! member alive — the instantiation of its class, the call edge
//! reaching the reading function, or the member access itself — must
//! flip that member to dead on the very next warm run over the same
//! cache directory, and the incremental result must stay byte-identical
//! to a cacheless run over the edited sources at any worker count, and
//! the cacheless run must match the `ddm-oracle` reference analysis. Liveness retraction is the hard direction for an
//! incremental analysis: stale call-graph or liveness state leaking
//! from the previous edition would keep the member alive.

use dead_data_members::analysis::{explain, AnalysisConfig, Engine, ProjectPipeline};
use dead_data_members::callgraph::Algorithm;
use dead_data_members::telemetry::Telemetry;
use std::path::{Path, PathBuf};

const HEADER: &str = "\
class Shape {
public:
    Shape(int k) : kind(k), tag(0) { }
    virtual ~Shape() { }
    virtual int area() { return 0; }
    int kind;
    int tag;
};

class Circle : public Shape {
public:
    Circle(int r) : Shape(1), radius(r), cached(0) { }
    virtual int area() { return 3 * radius * radius; }
    int radius;
    int cached;
};
";

fn geom_tu() -> (String, String) {
    (
        "geom.cpp".to_string(),
        format!("{HEADER}int total_area(Shape* a, Shape* b) {{ return a->area() + b->area(); }}"),
    )
}

fn stats_tu(body: &str) -> (String, String) {
    (
        "stats.cpp".to_string(),
        format!("{HEADER}int classify(Shape* s) {{ {body} }}"),
    )
}

fn main_tu(first_object: &str, call: &str) -> (String, String) {
    (
        "main.cpp".to_string(),
        format!(
            "{HEADER}int total_area(Shape* a, Shape* b);\nint classify(Shape* s);\n\
             int main() {{\n    Shape* c = {first_object};\n    Shape* s = new Shape(1);\n\
             \x20   int r = {call};\n    delete c;\n    delete s;\n    return r;\n}}"
        ),
    )
}

/// The baseline project: `Circle` instantiated, `classify` called, and
/// `classify` reading `Shape::kind` — so `Circle::radius` and
/// `Shape::kind` are both live.
fn baseline_inputs() -> Vec<(String, String)> {
    vec![
        main_tu("new Circle(2)", "total_area(c, s) + classify(c)"),
        geom_tu(),
        stats_tu("s->tag = 1; return s->kind;"),
    ]
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ddm-retract-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(
    inputs: &[(String, String)],
    jobs: usize,
    cache: Option<&Path>,
    telemetry: &Telemetry,
) -> ProjectPipeline {
    ProjectPipeline::run(
        inputs,
        AnalysisConfig::default(),
        Algorithm::Rta,
        jobs,
        Engine::Summary,
        cache,
        telemetry,
    )
    .expect("project run")
}

/// Report + explains + deterministic counters, as rendered text.
fn artifacts(p: &ProjectPipeline, telemetry: &Telemetry) -> String {
    let mut out = p.report().to_string();
    for spec in ["Shape::kind", "Shape::tag", "Circle::radius", "Circle::cached"] {
        out.push_str(&explain(p.program(), p.callgraph(), p.liveness(), spec).unwrap());
    }
    out.push_str(&format!("{:?}\n", telemetry.counters().rows()));
    out
}

/// True when `class::member` is classified dead. Reads the per-class
/// report rather than `dead_member_names()` because the latter filters
/// to used classes, and retracting an instantiation makes the class
/// unused as well as its members dead.
fn is_dead(p: &ProjectPipeline, class: &str, member: &str) -> bool {
    p.report()
        .classes()
        .iter()
        .find(|c| c.name == class)
        .unwrap_or_else(|| panic!("class `{class}` missing from report"))
        .dead_members
        .iter()
        .any(|m| m == member)
}

/// Drives one retraction scenario: `edited` differs from the baseline
/// project in exactly one TU, and that edit must retract `member` from
/// the live set. Checks the cacheless before/after liveness flip, then
/// replays the edit incrementally (cold baseline run, warm edited run
/// over the same cache) at jobs {1, 8}, asserting the warm run hit the
/// cache for the two unchanged TUs and produced artifacts
/// byte-identical to the cacheless edited run, which the reference
/// analysis must reproduce.
fn check_retraction(tag: &str, edited: &[(String, String)], class: &str, member: &str) {
    let before = run(&baseline_inputs(), 1, None, &Telemetry::enabled());
    assert!(
        !is_dead(&before, class, member),
        "{tag}: `{class}::{member}` must be live before the edit"
    );

    let tel = Telemetry::enabled();
    let after = run(edited, 1, None, &tel);
    assert!(
        is_dead(&after, class, member),
        "{tag}: `{class}::{member}` must be dead after the edit (cacheless)"
    );
    let want = artifacts(&after, &tel);
    let program = after.program();
    let oracle =
        ddm_oracle::analyze(program, &AnalysisConfig::default(), Algorithm::Rta).expect("oracle");
    assert_eq!(
        oracle.report(program).to_string(),
        after.report().to_string(),
        "{tag}: the reference analysis disagrees on the edited program"
    );

    for jobs in [1usize, 8] {
        let scratch = Scratch::new(&format!("{tag}-{jobs}"));
        run(
            &baseline_inputs(),
            jobs,
            Some(scratch.path()),
            &Telemetry::enabled(),
        );

        let tel = Telemetry::enabled();
        let p = run(edited, jobs, Some(scratch.path()), &tel);
        assert_eq!(
            (tel.counter("cache/hits"), tel.counter("frontend/tus")),
            (2, 1),
            "{tag} jobs={jobs}: the edit touches exactly one TU"
        );
        assert_eq!(
            artifacts(&p, &tel),
            want,
            "{tag} jobs={jobs}: incremental run drifted from cacheless"
        );
        assert!(
            is_dead(&p, class, member),
            "{tag} jobs={jobs}: `{class}::{member}` still live incrementally"
        );
    }
}

/// Removing the only `new Circle(...)` retracts the instantiation:
/// under RTA the virtual `area()` no longer dispatches to
/// `Circle::area`, so `Circle::radius` loses its only read.
#[test]
fn removing_the_instantiation_kills_the_derived_members() {
    let edited = vec![
        main_tu("new Shape(2)", "total_area(c, s) + classify(c)"),
        geom_tu(),
        stats_tu("s->tag = 1; return s->kind;"),
    ];
    check_retraction("instantiation", &edited, "Circle", "radius");
}

/// Dropping the `classify(c)` call retracts the call edge: `classify`
/// becomes unreachable, so its read of `Shape::kind` no longer counts
/// and the member (still written by the constructor) goes dead.
#[test]
fn removing_the_call_edge_kills_the_callees_reads() {
    let edited = vec![
        main_tu("new Circle(2)", "total_area(c, s)"),
        geom_tu(),
        stats_tu("s->tag = 1; return s->kind;"),
    ];
    check_retraction("call-edge", &edited, "Shape", "kind");
}

/// Rewriting `classify` to drop `return s->kind` retracts the member
/// access itself while keeping the function reachable: `Shape::kind`
/// keeps its constructor write but loses its only read.
#[test]
fn removing_the_member_access_kills_the_member() {
    let edited = vec![
        main_tu("new Circle(2)", "total_area(c, s) + classify(c)"),
        geom_tu(),
        stats_tu("s->tag = 1; return 0;"),
    ];
    check_retraction("member-access", &edited, "Shape", "kind");
}
