//! Robustness: the front end must reject malformed input with an error —
//! never a panic — and the whole stack must be deterministic.

use dead_data_members::dynamic::{Interpreter, RunConfig};
use dead_data_members::prelude::*;
use dead_data_members::telemetry::json;

#[test]
fn truncated_sources_never_panic_the_parser() {
    let full = dead_data_members::benchmarks::by_name("richards")
        .unwrap()
        .source;
    // Truncate at many byte positions (snapped to char boundaries); each
    // prefix must either parse or produce a ParseError — no panics.
    let mut parsed = 0;
    let mut rejected = 0;
    for cut in (0..full.len()).step_by(61) {
        let mut end = cut;
        while !full.is_char_boundary(end) {
            end += 1;
        }
        match parse(&full[..end]) {
            Ok(_) => parsed += 1,
            Err(_) => rejected += 1,
        }
    }
    assert!(rejected > 0, "most prefixes are malformed");
    assert!(parsed >= 1, "the empty prefix parses");
}

#[test]
fn mutated_sources_never_panic_the_pipeline() {
    let full = dead_data_members::benchmarks::by_name("taldict")
        .unwrap()
        .source;
    // Delete one line at a time: the result must parse+analyze or fail
    // with a structured error.
    let lines: Vec<&str> = full.lines().collect();
    for skip in (0..lines.len()).step_by(7) {
        let mutated: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let _ = ProjectPipeline::from_source(&mutated); // must not panic
    }
}

#[test]
fn garbage_bytes_are_rejected_cleanly() {
    for src in [
        "",
        ";;;;",
        "class",
        "class A",
        "class A {",
        "int main() { return",
        "int main() { return 0; } }",
        "\u{0}\u{1}\u{2}",
        "class A : : { };",
        "int main() { 1 ++++ 2; }",
        "union U : public V { };",
    ] {
        let _ = parse(src); // Ok or Err, never a panic
    }
}

fn deep_parens(depth: usize) -> String {
    format!(
        "int main() {{ return {}1{}; }}\n",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

fn deep_blocks(depth: usize) -> String {
    format!(
        "int main() {{ int x = 1; {}x = 2;{} return x; }}\n",
        "{ ".repeat(depth),
        " }".repeat(depth)
    )
}

#[test]
fn deep_nesting_is_a_typed_parse_error_not_a_stack_overflow() {
    use dead_data_members::cppfront::{ParseErrorKind, MAX_NESTING_DEPTH};
    for src in [deep_parens(10_000), deep_blocks(10_000)] {
        let err = parse(&src).expect_err("10,000 levels exceed the nesting limit");
        assert_eq!(
            err.kind(),
            &ParseErrorKind::NestingTooDeep(MAX_NESTING_DEPTH)
        );
        let err = ProjectPipeline::from_source(&src).expect_err("the pipeline reports it");
        assert!(err.to_string().contains("nesting exceeds"), "{err}");
    }
    // Well inside the limit both shapes still analyze.
    for src in [deep_parens(100), deep_blocks(100)] {
        ProjectPipeline::from_source(&src).expect("100 levels analyze");
    }
}

/// A class whose member `p` is `int` behind `levels` pointer
/// declarators, each one derivation level.
fn deep_pointer_member(levels: usize) -> String {
    format!(
        "class A {{ public: int {}p; int x; }};\nint main() {{ A a; a.x = 1; return a.x; }}\n",
        "*".repeat(levels)
    )
}

#[test]
fn a_type_past_the_nesting_limit_is_a_typed_error_in_every_cli_mode() {
    use std::io::Write as _;
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("ddm-robust-deep-type-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let deep = dir.join("deep.cpp");
    std::fs::write(&deep, deep_pointer_member(100_000)).expect("write deep.cpp");
    let good = dir.join("good.cpp");
    std::fs::write(&good, deep_pointer_member(2)).expect("write good.cpp");
    let deep = deep.to_string_lossy().into_owned();
    let good = good.to_string_lossy().into_owned();
    let cache = dir.join("cache").to_string_lossy().into_owned();
    let ddm = || Command::new(env!("CARGO_BIN_EXE_ddm"));
    let typed = "parse error: nesting exceeds the maximum depth of 256";

    for args in [
        vec![deep.as_str()],
        vec![deep.as_str(), "--cache-dir", cache.as_str()],
    ] {
        let out = ddm().args(&args).output().expect("run ddm");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(typed), "{args:?}: {stderr}");
    }

    let mut daemon = ddm()
        .args(["serve", "--cache-dir", cache.as_str()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ddm serve");
    let analyze = |file: &str| {
        format!(
            "{{\"cmd\":\"analyze\",\"files\":[\"{}\"]}}\n",
            json::escape(file)
        )
    };
    let requests =
        [analyze(&deep), analyze(&good), analyze(&deep)].concat() + "{\"cmd\":\"shutdown\"}\n";
    daemon
        .stdin
        .take()
        .expect("daemon stdin")
        .write_all(requests.as_bytes())
        .expect("write requests");
    let out = daemon.wait_with_output().expect("wait for ddm serve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "serve: {:?}\n{stdout}", out.status);
    let responses: Vec<json::Value> = stdout
        .lines()
        .map(|l| json::parse(l).expect("response json"))
        .collect();
    assert_eq!(responses.len(), 4, "{stdout}");
    for failed in [0, 2] {
        let r = &responses[failed];
        assert_eq!(
            r.get("error").and_then(|v| v.as_str()),
            Some("analysis"),
            "{}",
            r.render()
        );
        let message = r
            .get("message")
            .and_then(|v| v.as_str())
            .unwrap_or_default();
        assert!(message.contains(typed), "{message}");
    }
    assert_eq!(
        responses[1].get("ok").and_then(|v| v.as_bool()),
        Some(true),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_type_at_the_nesting_limit_analyses_cold_and_warm() {
    use dead_data_members::cppfront::MAX_NESTING_DEPTH;
    use std::process::Command;

    let dir = std::env::temp_dir().join(format!("ddm-robust-limit-type-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("limit.cpp");
    std::fs::write(&file, deep_pointer_member(MAX_NESTING_DEPTH)).expect("write limit.cpp");
    let cache = dir.join("cache");
    let hits = |out: &std::process::Output| {
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .find_map(|l| l.strip_prefix("cache/hits")?.trim().parse::<u64>().ok())
            .expect("a cache/hits row")
    };
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_ddm"))
            .arg(&file)
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--stats")
            .output()
            .expect("run ddm");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let (cold, warm) = (run(), run());
    assert_eq!((hits(&cold), hits(&warm)), (0, 1));
    assert_eq!(cold.stdout, warm.stdout);
    assert!(String::from_utf8_lossy(&warm.stdout).contains("DEAD p"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `int main() { return 1+1+…+1; }` with `terms` terms: a left-deep
/// chain that the recursive passes descend one frame per term.
fn flat_sum(terms: usize) -> String {
    format!("int main() {{ return {}; }}\n", vec!["1"; terms].join("+"))
}

#[test]
fn a_long_flat_expression_analyses_in_every_cli_mode() {
    use std::io::Write as _;
    use std::process::{Command, Stdio};

    // Every thread that analyses has the main thread's stack, so a
    // flat expression that analyses as one file analyses in a project
    // on worker threads, under a cache directory, and on the serve
    // builder too.
    let terms = if cfg!(debug_assertions) { 600 } else { 4_000 };
    let dir = std::env::temp_dir().join(format!("ddm-robust-flat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let flat = dir.join("flat.cpp");
    std::fs::write(&flat, flat_sum(terms)).expect("write flat.cpp");
    let other = dir.join("other.cpp");
    std::fs::write(&other, "int helper() { return 2; }\n").expect("write other.cpp");
    let flat = flat.to_string_lossy().into_owned();
    let other = other.to_string_lossy().into_owned();
    let cache = dir.join("cache").to_string_lossy().into_owned();
    let ddm = || Command::new(env!("CARGO_BIN_EXE_ddm"));

    for (mode, args) in [
        ("one file", vec![flat.as_str()]),
        (
            "two files at --jobs 2",
            vec![flat.as_str(), other.as_str(), "--jobs", "2"],
        ),
        (
            "--cache-dir",
            vec![flat.as_str(), "--cache-dir", cache.as_str()],
        ),
    ] {
        let out = ddm().args(&args).output().expect("run ddm");
        assert!(
            out.status.success(),
            "{mode}: {terms} terms: {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let mut daemon = ddm()
        .args(["serve", "--jobs", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ddm serve");
    let files = [&flat, &other]
        .map(|f| format!("\"{}\"", json::escape(f)))
        .join(",");
    let requests =
        format!("{{\"cmd\":\"analyze\",\"files\":[{files}]}}\n{{\"cmd\":\"shutdown\"}}\n");
    daemon
        .stdin
        .take()
        .expect("daemon stdin")
        .write_all(requests.as_bytes())
        .expect("write requests");
    let out = daemon.wait_with_output().expect("wait for ddm serve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "serve: {terms} terms: {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.starts_with("{\"ok\":true,\"cmd\":\"analyze\""),
        "serve: {terms} terms: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_a_deeply_nested_file_with_an_analysis_error_and_keeps_serving() {
    use dead_data_members::analysis::{serve, ServeOptions};
    let dir = std::env::temp_dir().join(format!("ddm-robust-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let write = |name: &str, src: &str| {
        let path = dir.join(name);
        std::fs::write(&path, src).expect("write source");
        json::escape(&path.to_string_lossy())
    };
    let good = write(
        "good.cpp",
        "class P { public: int x; int tag; };\nint main() { P p; p.x = 1; p.tag = 2; return p.x; }\n",
    );
    let parens = write("parens.cpp", &deep_parens(10_000));
    let blocks = write("blocks.cpp", &deep_blocks(10_000));
    let analyze = |file: &str| format!("{{\"cmd\":\"analyze\",\"files\":[\"{file}\"]}}");
    let requests = [
        analyze(&good),
        analyze(&parens),
        "{\"cmd\":\"report\"}".to_string(),
        analyze(&blocks),
        "{\"cmd\":\"epoch\"}".to_string(),
        "{\"cmd\":\"report\"}".to_string(),
        "{\"cmd\":\"shutdown\"}".to_string(),
    ];
    let opts = ServeOptions {
        config: AnalysisConfig::default(),
        algorithm: Algorithm::Rta,
        jobs: 2,
        engine: Engine::Summary,
        cache_dir: None,
        log_out: None,
        log_filter: None,
    };
    let mut out: Vec<u8> = Vec::new();
    serve(
        &opts,
        std::io::Cursor::new(requests.join("\n") + "\n"),
        &mut out,
    )
    .expect("serve");
    let _ = std::fs::remove_dir_all(&dir);
    let responses: Vec<json::Value> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(|l| json::parse(l).expect("response json"))
        .collect();
    assert_eq!(responses.len(), requests.len());
    let get = |i: usize, key: &str| responses[i].get(key).cloned();
    assert_eq!(get(0, "ok").and_then(|v| v.as_bool()), Some(true));
    for failed in [1, 3] {
        let r = &responses[failed];
        assert_eq!(
            r.get("error").and_then(|v| v.as_str()),
            Some("analysis"),
            "{}",
            r.render()
        );
        let message = r
            .get("message")
            .and_then(|v| v.as_str())
            .unwrap_or_default();
        assert!(
            message.contains("nesting exceeds the maximum depth of 256"),
            "{message}"
        );
    }
    // The failed builds keep epoch 1 published and answerable.
    for query in [2, 5] {
        assert_eq!(get(query, "ok").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(get(query, "epoch").and_then(|v| v.as_int()), Some(1));
        let report = get(query, "output").and_then(|v| v.as_str().map(str::to_string));
        assert!(report.unwrap_or_default().contains("DEAD tag"));
    }
    assert_eq!(get(4, "epoch").and_then(|v| v.as_int()), Some(1));
    assert_eq!(get(6, "ok").and_then(|v| v.as_bool()), Some(true));
}

/// `levels` stacked virtual diamonds — `Lk` and `Rk` derive virtually
/// from `D(k-1)`, `Dk` from both, so `D{levels}` has 2^levels inheritance
/// paths to `D0` — and a C-style cast of a `D{levels}*` to the unrelated
/// class `U`, which must be told apart from an up-cast.
fn diamond_stack_with_unrelated_cast(levels: usize) -> String {
    let mut src = String::from(
        "class D0 { public: int x0; virtual int f() { return x0; } };\n\
         class U { public: int u; };\n",
    );
    for k in 1..=levels {
        let b = k - 1;
        src.push_str(&format!(
            "class L{k} : public virtual D{b} {{ public: int l{k}; }};\n\
             class R{k} : public virtual D{b} {{ public: int r{k}; }};\n\
             class D{k} : public L{k}, public R{k} {{ public: int x{k}; }};\n"
        ));
    }
    src.push_str(&format!(
        "int main() {{ D{levels} d; U* p = (U*)&d; return d.x{levels}; }}\n"
    ));
    src
}

/// How long one analysis of the diamond stack may take. It needs
/// milliseconds; an ancestry test that follows every inheritance path
/// would need about 2^64 steps, so the bound turns a hang into a
/// failure.
const DIAMOND_LIMIT: std::time::Duration = std::time::Duration::from_secs(30);

#[test]
fn a_cast_across_64_stacked_diamonds_analyses_in_bounded_time() {
    use dead_data_members::analysis::{serve, ServeOptions};
    use std::io::Read as _;
    use std::process::{Command, Stdio};
    use std::sync::mpsc;

    let dir = std::env::temp_dir().join(format!("ddm-robust-diamonds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("diamonds.cpp");
    std::fs::write(&file, diamond_stack_with_unrelated_cast(64)).expect("write source");

    // The CLI, killed if it overruns.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ddm"))
        .arg(&file)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ddm");
    let mut stdout = child.stdout.take().expect("ddm stdout");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        let _ = tx.send(text);
    });
    let Ok(cli) = rx.recv_timeout(DIAMOND_LIMIT) else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("ddm did not finish within {DIAMOND_LIMIT:?}");
    };
    reader.join().expect("stdout reader");
    assert!(child.wait().expect("wait for ddm").success(), "{cli}");
    assert!(cli.contains("DEAD u"), "the cast livens D64, not U:\n{cli}");

    // An in-process serve session: the first build, then a rebuild.
    let name = json::escape(&file.to_string_lossy());
    let requests = format!(
        "{{\"cmd\":\"analyze\",\"files\":[\"{name}\"]}}\n\
         {{\"cmd\":\"notify\",\"changed\":[\"{name}\"],\"wait\":1}}\n\
         {{\"cmd\":\"report\"}}\n{{\"cmd\":\"shutdown\"}}\n"
    );
    // A session that overruns is left running: the test fails, and the
    // test process exits without it.
    let (tx, rx) = mpsc::channel();
    let session = std::thread::spawn(move || {
        let opts = ServeOptions {
            config: AnalysisConfig::default(),
            algorithm: Algorithm::Rta,
            jobs: 1,
            engine: Engine::Summary,
            cache_dir: None,
            log_out: None,
            log_filter: None,
        };
        let mut out: Vec<u8> = Vec::new();
        let served = serve(&opts, std::io::Cursor::new(requests), &mut out);
        let _ = tx.send(served.map(|()| out));
    });
    let out = rx
        .recv_timeout(DIAMOND_LIMIT)
        .unwrap_or_else(|_| panic!("the serve rebuild did not finish within {DIAMOND_LIMIT:?}"))
        .expect("serve");
    session.join().expect("serve session");
    let _ = std::fs::remove_dir_all(&dir);
    let responses: Vec<json::Value> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(|l| json::parse(l).expect("response json"))
        .collect();
    assert_eq!(responses.len(), 4);
    assert_eq!(responses[1].get("epoch").and_then(|v| v.as_int()), Some(2));
    let report = responses[2].get("output").and_then(|v| v.as_str());
    assert_eq!(report, Some(cli.as_str()));
}

#[test]
fn execution_is_deterministic_across_runs() {
    for b in dead_data_members::benchmarks::suite() {
        let run = b.analyze().unwrap();
        let e1 = Interpreter::new(run.program())
            .run(&RunConfig::default())
            .unwrap();
        let e2 = Interpreter::new(run.program())
            .run(&RunConfig::default())
            .unwrap();
        assert_eq!(e1.output, e2.output, "{}", b.name);
        assert_eq!(e1.exit_code, e2.exit_code, "{}", b.name);
        assert_eq!(e1.steps, e2.steps, "{}", b.name);
        assert_eq!(
            e1.trace.events().len(),
            e2.trace.events().len(),
            "{}",
            b.name
        );
    }
}

#[test]
fn analysis_is_deterministic_across_runs() {
    for b in dead_data_members::benchmarks::suite() {
        let r1 = b.analyze().unwrap().report().dead_member_names();
        let r2 = b.analyze().unwrap().report().dead_member_names();
        assert_eq!(r1, r2, "{}", b.name);
    }
}

/// `items` prototypes that share a 64-byte prefix, spread over 4 TUs
/// that each declare a quarter of them in a different order, so most
/// items start with the prefix of a text the memo knows but go on
/// differently.
fn prefixed_prototypes(items: usize) -> Vec<(String, String)> {
    let prefix = format!("int {}", "q".repeat(60));
    let per_tu = items / 4;
    (0..4)
        .map(|t| {
            let mut ids: Vec<usize> = (0..per_tu).collect();
            match t {
                1 => ids.reverse(),
                2 => ids.sort_by_key(|&i| (i % 2, i)),
                3 => ids.rotate_left(per_tu / 2),
                _ => {}
            }
            let mut src = String::new();
            for i in ids {
                src.push_str(&format!("{prefix}{i}();\n"));
            }
            if t == 0 {
                src.push_str("int main() { return 0; }\n");
            }
            (format!("tu{t}.cpp"), src)
        })
        .collect()
}

#[test]
fn twenty_thousand_items_with_one_long_prefix_split_in_linear_time() {
    use std::sync::mpsc;

    let items = if cfg!(debug_assertions) {
        4_000
    } else {
        20_000
    };
    let inputs = prefixed_prototypes(items);
    assert!(inputs.iter().all(|(_, src)| src.starts_with("int qqqq")));
    let (tx, rx) = mpsc::channel();
    // A run that overruns is left running: the test fails, and the test
    // process exits without it.
    std::thread::spawn(move || {
        let run = ProjectPipeline::run(
            &inputs,
            AnalysisConfig::default(),
            Algorithm::Rta,
            1,
            Engine::Summary,
            None,
            &Telemetry::disabled(),
        );
        let _ = tx.send(run.map(|run| run.program().function_count()));
    });
    let functions = rx
        .recv_timeout(DIAMOND_LIMIT)
        .unwrap_or_else(|_| panic!("{items} items did not analyse within {DIAMOND_LIMIT:?}"))
        .expect("the prototypes analyse");
    assert_eq!(functions, items / 4 + 1);
}

/// One TU that declares `functions` free functions and then defines
/// each of them, in the same order.
fn prototypes_then_definitions(functions: usize) -> String {
    let mut src = String::new();
    for i in 0..functions {
        src.push_str(&format!("int f{i}();\n"));
    }
    for i in 0..functions {
        src.push_str(&format!("int f{i}() {{ return {i}; }}\n"));
    }
    src.push_str("int main() { return f0(); }\n");
    src
}

#[test]
fn fifty_thousand_prototypes_then_their_definitions_merge_in_linear_time() {
    use std::sync::mpsc;

    let functions = if cfg!(debug_assertions) {
        10_000
    } else {
        50_000
    };
    let inputs = vec![(
        "defs.cpp".to_string(),
        prototypes_then_definitions(functions),
    )];
    let (tx, rx) = mpsc::channel();
    // A run that overruns is left running: the test fails, and the test
    // process exits without it.
    std::thread::spawn(move || {
        let run = ProjectPipeline::run(
            &inputs,
            AnalysisConfig::default(),
            Algorithm::Rta,
            1,
            Engine::Summary,
            None,
            &Telemetry::disabled(),
        );
        let _ = tx.send(run.map(|run| {
            let program = run.program();
            let defined = program
                .functions()
                .filter(|(_, f)| f.body.is_some())
                .count();
            (program.function_count(), defined)
        }));
    });
    let (count, defined) = rx
        .recv_timeout(DIAMOND_LIMIT)
        .unwrap_or_else(|_| {
            panic!("{functions} definitions did not analyse within {DIAMOND_LIMIT:?}")
        })
        .expect("the definitions analyse");
    assert_eq!((count, defined), (functions + 1, functions + 1));
}
