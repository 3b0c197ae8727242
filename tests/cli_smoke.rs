//! Smoke tests for the `ddm` command-line driver, exercising the built
//! binary end-to-end the way a user would.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Command;

fn ddm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ddm"))
}

/// A file or directory in the temp directory, `ddm_cli_<stem>_<pid><ext>`,
/// removed when the guard drops, so a test leaves nothing behind
/// whether it passes or fails.
struct TempPath(PathBuf);

impl TempPath {
    fn new(stem: &str, ext: &str) -> TempPath {
        TempPath(std::env::temp_dir().join(format!("ddm_cli_{stem}_{}{ext}", std::process::id())))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        if self.0.is_dir() {
            let _ = std::fs::remove_dir_all(&self.0);
        } else {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

impl std::ops::Deref for TempPath {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<OsStr> for TempPath {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}

fn write_temp(name: &str, contents: &str) -> TempPath {
    let path = TempPath::new(name, ".cpp");
    std::fs::write(&path, contents).expect("write temp source");
    path
}

const SAMPLE: &str = "class A { public: int live; int dead; };\n\
                      int main() { A a; a.dead = 1; print_int(a.live); return a.live; }";

#[test]
fn analyze_reports_dead_members() {
    let src = write_temp("analyze", SAMPLE);
    let out = ddm().arg(&src).output().expect("run ddm");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DEAD dead"), "{stdout}");
    assert!(stdout.contains("live live (read)"), "{stdout}");
    assert!(stdout.contains("call graph (RTA)"), "{stdout}");
}

#[test]
fn run_flag_executes_the_program() {
    let src = write_temp("run", SAMPLE);
    let out = ddm().arg(&src).arg("--run").output().expect("run ddm");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[exit code 0]"), "{stdout}");
}

#[test]
fn profile_flag_prints_heap_numbers() {
    let src = write_temp("profile", SAMPLE);
    let out = ddm().arg(&src).arg("--profile").output().expect("run ddm");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("object space:"), "{stdout}");
    assert!(stdout.contains("dead data member space:"), "{stdout}");
}

#[test]
fn eliminate_flag_writes_transformed_source() {
    let src = write_temp("elim", SAMPLE);
    let out_path = TempPath::new("elim_out", ".cpp");
    let out = ddm()
        .arg(&src)
        .arg("--eliminate")
        .arg(&out_path)
        .output()
        .expect("run ddm");
    assert!(out.status.success(), "{out:?}");
    let transformed = std::fs::read_to_string(&out_path).expect("read output");
    assert!(!transformed.contains("int dead;"), "{transformed}");
    assert!(transformed.contains("int live;"), "{transformed}");
}

#[test]
fn callgraph_flag_switches_builder() {
    let src = write_temp("cg", SAMPLE);
    for (flag, label) in [("cha", "CHA"), ("everything", "everything"), ("rta", "RTA")] {
        let out = ddm()
            .arg(&src)
            .arg("--callgraph")
            .arg(flag)
            .output()
            .expect("run ddm");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("call graph ({label})")),
            "{stdout}"
        );
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = ddm().arg("--nonsense").output().expect("run ddm");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn parse_errors_are_reported_not_panicked() {
    let src = write_temp("bad", "class {{{{");
    let out = ddm().arg(&src).output().expect("run ddm");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn single_file_parse_errors_name_the_file() {
    // A single file runs as a one-TU project, so its errors name the
    // file exactly as a several-file run's do.
    let src = write_temp("bad_named", "class {{{{");
    let out = ddm().arg(&src).output().expect("run ddm");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let expected = format!("error: {}: parse error: ", src.display());
    assert!(stderr.starts_with(&expected), "{stderr}");
}

#[test]
fn help_lists_every_flag_from_the_table() {
    let out = ddm().arg("--help").output().expect("run ddm");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for flag in [
        "--callgraph",
        "--jobs",
        "--library",
        "--sizeof-conservative",
        "--unsafe-downcasts",
        "--run",
        "--profile",
        "--eliminate",
        "--layout",
        "--stats",
        "--stats-json",
        "--trace-out",
        "--log-out",
        "--log-filter",
        "--metrics-out",
        "--explain",
        "--cache-dir",
    ] {
        assert!(stderr.contains(flag), "help is missing {flag}:\n{stderr}");
    }
}

#[test]
fn stats_flag_prints_sections_on_stderr_only() {
    let src = write_temp("stats", SAMPLE);
    let out = ddm().arg(&src).arg("--stats").output().expect("run ddm");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for section in [
        "== phase spans ==",
        "== deterministic counters ==",
        "== metrics ==",
    ] {
        assert!(stderr.contains(section), "{stderr}");
    }
    // The report itself stays on stdout, uncontaminated.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DEAD dead"), "{stdout}");
    assert!(!stdout.contains("== phase spans =="), "{stdout}");
}

#[test]
fn trace_out_writes_valid_chrome_json_with_worker_lanes() {
    use dead_data_members::telemetry::json;

    // The per-TU front end is the only step that runs on worker lanes:
    // trace a 12-TU project at --jobs 8. Workers take TUs from a shared
    // counter, so which lanes end up busy is up to the scheduler; each
    // TU must still get exactly one `tu <file>` span on a worker lane.
    let dir = TempPath::new("trace_project", "");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create project dir");
    let mut files = Vec::new();
    let mut main = String::new();
    for i in 0..11 {
        let path = dir.join(format!("tu{i:02}.cpp"));
        std::fs::write(
            &path,
            format!("class C{i} {{ public: int a; int b; }};\nint f{i}() {{ C{i} c; c.b = 1; return c.a; }}\n"),
        )
        .expect("write TU");
        main.push_str(&format!("int f{i}();\n"));
        files.push(path);
    }
    main.push_str("int main() { return f0() + f10(); }\n");
    let main_path = dir.join("main.cpp");
    std::fs::write(&main_path, main).expect("write main TU");
    files.push(main_path);

    let trace_path = dir.join("trace.json");
    let out = ddm()
        .args(&files)
        .arg("--jobs")
        .arg("8")
        .arg("--trace-out")
        .arg(&trace_path)
        .output()
        .expect("run ddm");
    assert!(out.status.success(), "{out:?}");
    let trace = std::fs::read_to_string(&trace_path).expect("read trace");
    json::validate(&trace).unwrap_or_else(|e| panic!("trace is not valid JSON: {e}"));
    let doc = json::parse_lenient(&trace).expect("parse trace");
    let events = doc
        .get("traceEvents")
        .and_then(json::Value::as_arr)
        .expect("traceEvents");
    let tu_spans: Vec<(&str, f64)> = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
        .filter_map(|e| {
            let name = e.get("name")?.as_str()?;
            let tid = e.get("tid")?.as_f64()?;
            (name.starts_with("tu ") && !name.starts_with("tu front end")).then_some((name, tid))
        })
        .collect();
    for file in &files {
        let expected = format!("tu {}", file.display());
        let lanes: Vec<f64> = tu_spans
            .iter()
            .filter(|(name, _)| *name == expected)
            .map(|&(_, tid)| tid)
            .collect();
        assert_eq!(lanes.len(), 1, "{expected}: want one span, got {lanes:?}");
        assert!(
            (1.0..=8.0).contains(&lanes[0]),
            "{expected}: span on lane {} outside the worker lanes 1-8",
            lanes[0]
        );
    }
    assert_eq!(tu_spans.len(), files.len(), "stray tu spans: {tu_spans:?}");

    // One TU has one front-end job, so a single file records no worker
    // lane whatever --jobs says, however wide the program.
    let mut wide = String::from("class A { public: int f; };\n");
    for i in 0..300 {
        wide.push_str(&format!("int leaf{i}(A* a) {{ return a->f + {i}; }}\n"));
    }
    wide.push_str("int main() { A a; int t = 0;\n");
    for i in 0..300 {
        wide.push_str(&format!("  t = t + leaf{i}(&a);\n"));
    }
    wide.push_str("  return t; }\n");
    let src = write_temp("trace", &wide);
    let trace_path = TempPath::new("trace", ".json");
    let out = ddm()
        .arg(&src)
        .arg("--jobs")
        .arg("8")
        .arg("--trace-out")
        .arg(&trace_path)
        .output()
        .expect("run ddm");
    assert!(out.status.success(), "{out:?}");
    let trace = std::fs::read_to_string(&trace_path).expect("read trace");
    json::validate(&trace).unwrap_or_else(|e| panic!("trace is not valid JSON: {e}"));
    assert!(
        trace.contains("\"ph\": \"X\""),
        "no complete events in trace"
    );
    assert!(
        !trace.contains("worker-"),
        "a single-TU run recorded a worker lane"
    );
}

#[test]
fn log_out_writes_ndjson_and_log_filter_selects_classes() {
    let src = write_temp("logout", SAMPLE);
    let out_path = |tag: &str| TempPath::new(&format!("log_{tag}"), ".ndjson");
    let all = out_path("all");
    let out = ddm()
        .arg(&src)
        .arg("--log-out")
        .arg(&all)
        .output()
        .expect("run ddm");
    assert!(out.status.success(), "{out:?}");
    let log = std::fs::read_to_string(&all).expect("read log");
    assert!(log.contains("\"event\":\"classification\""), "{log}");
    for line in log.lines() {
        dead_data_members::telemetry::json::validate(line)
            .unwrap_or_else(|e| panic!("log line is not valid JSON: {e}\n{line}"));
    }
    let det = out_path("det");
    let out = ddm()
        .arg(&src)
        .arg("--log-out")
        .arg(&det)
        .arg("--log-filter")
        .arg("det")
        .output()
        .expect("run ddm");
    assert!(out.status.success(), "{out:?}");
    let filtered = std::fs::read_to_string(&det).expect("read filtered log");
    assert!(
        filtered
            .lines()
            .filter(|l| !l.contains("\"event\":\"log_truncated\""))
            .all(|l| l.contains("\"class\":\"det\"")),
        "--log-filter det leaked observational events:\n{filtered}"
    );
}

#[test]
fn log_filter_rejects_unknown_event_class_listing_valid_ones() {
    let src = write_temp("logclass", SAMPLE);
    let out = ddm()
        .arg(&src)
        .arg("--log-filter")
        .arg("bogus")
        .output()
        .expect("run ddm");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown event class `bogus`"), "{stderr}");
    assert!(stderr.contains("det, obs, all"), "{stderr}");
}

#[test]
fn metrics_out_and_stats_json_write_versioned_documents() {
    use dead_data_members::telemetry::json;

    let src = write_temp("metrics", SAMPLE);
    let metrics_path = TempPath::new("metrics", ".json");
    let stats_path = TempPath::new("statsjson", ".json");
    let out = ddm()
        .arg(&src)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .arg("--stats-json")
        .arg(&stats_path)
        .output()
        .expect("run ddm");
    assert!(out.status.success(), "{out:?}");
    let metrics = std::fs::read_to_string(&metrics_path).expect("read metrics");
    json::validate(&metrics).unwrap_or_else(|e| panic!("metrics are not valid JSON: {e}"));
    assert!(metrics.contains("ddm-metrics/2"), "{metrics}");
    assert!(metrics.contains("callgraph/round_delta_fns"), "{metrics}");
    let stats = std::fs::read_to_string(&stats_path).expect("read stats");
    json::validate(&stats).unwrap_or_else(|e| panic!("stats are not valid JSON: {e}"));
    assert!(stats.contains("ddm-stats/3"), "{stats}");
    assert!(!stats.contains("\"engine\""), "{stats}");
    assert!(stats.contains("\"counters\""), "{stats}");
    // One store, two views: the stats document holds the metrics
    // document's entries.
    let entries = |doc: &str| json::parse(doc).expect("parse").get("metrics").cloned();
    assert!(entries(&metrics).is_some(), "{metrics}");
    assert_eq!(entries(&stats), entries(&metrics));
}

#[test]
fn explain_live_member_prints_witness_chain() {
    let src = write_temp("explain_live", SAMPLE);
    let out = ddm()
        .arg(&src)
        .arg("--explain")
        .arg("A::live")
        .output()
        .expect("run ddm");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("A::live: LIVE (read)"), "{stdout}");
    assert!(stdout.contains("call chain: main"), "{stdout}");
    // The explanation replaces the report.
    assert!(!stdout.contains("dead data members:"), "{stdout}");
}

#[test]
fn explain_dead_member_says_dead() {
    let src = write_temp("explain_dead", SAMPLE);
    let out = ddm()
        .arg(&src)
        .arg("--explain")
        .arg("A::dead")
        .output()
        .expect("run ddm");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("A::dead: DEAD"), "{stdout}");
}

#[test]
fn explain_unknown_member_exits_2() {
    let src = write_temp("explain_unknown", SAMPLE);
    let out = ddm()
        .arg(&src)
        .arg("--explain")
        .arg("A::nonexistent")
        .output()
        .expect("run ddm");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no data member"), "{stderr}");
}

#[test]
fn value_flags_reject_a_following_flag_as_their_value() {
    // `ddm a.cpp --trace-out --stats` must not write a trace file
    // literally named `--stats`; every value-taking flag errors out.
    let src = write_temp("flagval", SAMPLE);
    for flag in [
        "--trace-out",
        "--eliminate",
        "--explain",
        "--library",
        "--callgraph",
        "--jobs",
        "--cache-dir",
        "--stats-json",
        "--log-out",
        "--log-filter",
        "--metrics-out",
    ] {
        let out = ddm()
            .arg(&src)
            .arg(flag)
            .arg("--stats")
            .output()
            .expect("run ddm");
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} needs a value")),
            "{flag}:\n{stderr}"
        );
    }
    assert!(
        !std::path::Path::new("--stats").exists(),
        "a file named `--stats` was created"
    );
}

#[test]
fn unknown_flags_suggest_help() {
    let out = ddm().arg("--frobnicate").output().expect("run ddm");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--frobnicate`"), "{stderr}");
    assert!(stderr.contains("--help"), "{stderr}");
}

#[test]
fn engine_flag_is_an_unknown_flag() {
    // The analysis has one engine; `--engine` is gone, not ignored.
    let src = write_temp("engine_flag", SAMPLE);
    let out = ddm()
        .arg(&src)
        .arg("--engine")
        .arg("walk")
        .output()
        .expect("run ddm");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--engine`"), "{stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("dead data members"),
        "no analysis may run"
    );
}

const MULTI_HEADER: &str = "class Gauge {\n\
                            public:\n\
                            \x20   Gauge(int v) : value(v), spare(0) { }\n\
                            \x20   virtual ~Gauge() { }\n\
                            \x20   virtual int get() { return value; }\n\
                            \x20   int value;\n\
                            \x20   int spare;\n\
                            };\n";

fn write_multi(test: &str) -> (TempPath, TempPath) {
    let main = write_temp(
        &format!("{test}_main"),
        &format!("{MULTI_HEADER}int sample(Gauge* g);\nint main() {{ Gauge g(3); return sample(&g); }}"),
    );
    let lib = write_temp(
        &format!("{test}_lib"),
        &format!("{MULTI_HEADER}int sample(Gauge* g) {{ return g->get(); }}"),
    );
    (main, lib)
}

#[test]
fn multiple_positional_files_run_the_project_pipeline() {
    let (main, lib) = write_multi("multi");
    let out = ddm().arg(&main).arg(&lib).output().expect("run ddm");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("live value (read)"), "{stdout}");
    assert!(stdout.contains("DEAD spare"), "{stdout}");
}

#[test]
fn warm_cli_run_is_byte_identical_to_cold_and_skips_summarization() {
    let (main, lib) = write_multi("warm");
    let cache = TempPath::new("cache", "");
    let _ = std::fs::remove_dir_all(&cache);

    let run = || {
        ddm()
            .arg(&main)
            .arg(&lib)
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--stats")
            .output()
            .expect("run ddm")
    };
    let cold = run();
    assert!(cold.status.success(), "{cold:?}");
    let warm = run();
    assert!(warm.status.success(), "{warm:?}");

    assert_eq!(cold.stdout, warm.stdout, "warm report must be byte-identical");

    // The deterministic-counters section must not see the cache; only
    // the metrics (cache hit/parse counts) may differ.
    let section = |raw: &[u8]| -> String {
        let text = String::from_utf8_lossy(raw).to_string();
        let start = text.find("== deterministic counters ==").expect("section");
        let end = text.find("== metrics ==").expect("section");
        text[start..end].to_string()
    };
    assert_eq!(section(&cold.stderr), section(&warm.stderr));

    let warm_stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_stderr
            .lines()
            .any(|l| l.starts_with("frontend/tus ") && l.trim_end().ends_with(" 0")),
        "warm run should summarize zero TUs:\n{warm_stderr}"
    );
}

#[test]
fn project_mode_rejects_single_file_only_flags() {
    let (main, lib) = write_multi("gate");
    let out = ddm()
        .arg(&main)
        .arg(&lib)
        .arg("--run")
        .output()
        .expect("run ddm");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--run needs single-file mode"), "{stderr}");
}

/// `ddm --explain` prints, for every member, exactly what the
/// `ddm-oracle` reference analysis explains under the CLI's default
/// configuration.
#[test]
fn explain_is_identical_across_engines_via_cli() {
    use dead_data_members::prelude::*;

    let src = write_temp("explain_engines", SAMPLE);
    let run = ProjectPipeline::from_source(SAMPLE).expect("pipeline");
    let program = run.program();
    let config = ddm_bench::suite_analysis_config();
    let oracle = ddm_oracle::analyze(program, &config, Algorithm::Rta).expect("oracle");
    for spec in ["A::live", "A::dead"] {
        let out = ddm()
            .arg(&src)
            .arg("--explain")
            .arg(spec)
            .output()
            .expect("run ddm");
        assert!(out.status.success(), "{out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            oracle.explain(program, spec).expect("known member"),
            "explain {spec} differs from the oracle"
        );
    }
}

/// A header every TU of the shared-declaration cases repeats, after a
/// per-TU comment of a different length, so it sits at a different
/// offset in each.
const SHARED_HEADER: &str = "class Shape {
public:
    int w;
    int h;
    Shape() : w(1), h(2) { }
    virtual int area() { return w * h; }
};
class Square : public Shape {
public:
    int side;
    int area() { return side * side; }
};
";

/// Runs `ddm` inside a fresh directory holding `files`, named on the
/// command line as given; returns (exit code, stderr).
fn run_project(tag: &str, files: &[(&str, String)], args: &[&str]) -> (Option<i32>, String) {
    let dir = TempPath::new(tag, "");
    std::fs::create_dir_all(&dir).expect("create project dir");
    for (name, src) in files {
        std::fs::write(dir.join(name), src).expect("write TU");
    }
    let out = ddm()
        .current_dir(&dir)
        .args(args)
        .output()
        .expect("run ddm");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_type_error_in_a_shared_method_names_the_winning_tu_and_its_offsets() {
    let bad = SHARED_HEADER.replace("return side * side;", "return side * sidee;");
    let files = [
        (
            "t1.cpp",
            format!("// one\n{bad}int helper();\nint main() {{ Square s; return s.area() + helper(); }}\n"),
        ),
        (
            "t2.cpp",
            format!("// two, a longer comment\n// over two lines\n\n{bad}int helper() {{ Shape s; return s.h; }}\n"),
        ),
    ];
    let (code, stderr) = run_project("shared_type_error", &files, &["t1.cpp", "t2.cpp"]);
    assert_eq!(code, Some(1));
    assert_eq!(
        stderr,
        "error: t1.cpp: type error: unknown identifier `sidee` at 207..212\n"
    );
    let (code, stderr) = run_project(
        "shared_type_error_rev",
        &files,
        &["t2.cpp", "t1.cpp", "--jobs", "2"],
    );
    assert_eq!(code, Some(1));
    assert_eq!(
        stderr,
        "error: t2.cpp: type error: unknown identifier `sidee` at 244..249\n"
    );
}

#[test]
fn a_parse_error_in_one_tus_tail_and_a_repeated_class_keep_their_offsets() {
    let main = (
        "p1.cpp",
        format!("// one\n{SHARED_HEADER}int helper();\nint main() {{ Square s; return s.area() + helper(); }}\n"),
    );
    let tail = (
        "p2.cpp",
        format!("// two, a longer comment\n\n{SHARED_HEADER}int helper() {{ return 1 +; }}\n"),
    );
    let (code, stderr) = run_project(
        "shared_parse_error",
        &[main.clone(), tail],
        &["p1.cpp", "p2.cpp"],
    );
    assert_eq!(code, Some(1));
    assert_eq!(
        stderr,
        "error: p2.cpp: parse error: expected expression, found `;` at 262..263\n"
    );
    let twice = (
        "d2.cpp",
        format!("/* two */\n{SHARED_HEADER}{SHARED_HEADER}int helper() {{ return 1; }}\n"),
    );
    let (code, stderr) = run_project(
        "shared_duplicate",
        &[main, twice],
        &["p1.cpp", "d2.cpp", "--jobs", "2"],
    );
    assert_eq!(code, Some(1));
    assert_eq!(
        stderr,
        "error: d2.cpp: parse error: duplicate definition of `Shape` at 221..337\n"
    );
}
