//! The serve query path against the code it replaced.
//!
//! Queries are answered on the protocol thread, `witness_path` searches
//! over dense per-function vectors, and `json::escape` copies runs of
//! plain bytes between escapes. Each test restates the previous
//! implementation and requires identical results:
//!
//! * `json::escape` ↔ the char-by-char escape, over every code point
//!   below 0x80, multi-byte text, and seeded strings weighted toward the
//!   bytes that need escapes;
//! * `witness_path` ↔ the `HashMap`/`HashSet` breadth-first search, for
//!   every function of every suite program and generator shape under
//!   every call-graph algorithm;
//! * one burst of mixed requests, all written before any response is
//!   read, answered in request order with one-shot-identical outputs.

use dead_data_members::analysis::{
    serve, witness_path, EpochSnapshot, ProjectPipeline, ServeOptions,
};
use dead_data_members::benchmarks::generator::{generate_fuzz, FuzzConfig, FUZZ_SHAPES};
use dead_data_members::benchmarks::rng::Rng;
use dead_data_members::prelude::*;
use dead_data_members::telemetry::json;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

/// The escape `json::escape` replaced: one `char` at a time.
fn escape_by_char(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn assert_escape_matches(s: &str) {
    let escaped = json::escape(s);
    assert_eq!(escaped, escape_by_char(s), "escape of {s:?}");
    let parsed = json::parse(&format!("\"{escaped}\"")).expect("escaped string parses");
    assert_eq!(parsed.as_str(), Some(s), "round trip of {s:?}");
}

#[test]
fn escape_matches_the_char_by_char_escape() {
    let ascii: String = (0u8..0x80).map(char::from).collect();
    for c in ascii.chars() {
        assert_escape_matches(&c.to_string());
        assert_escape_matches(&format!("a{c}b{c}{c}"));
    }
    assert_escape_matches(&ascii);
    for text in [
        "",
        "café \"au\" lait\n",
        "naïve\\path\tcolumn",
        "日本語のテキスト\r\n改行",
        "emoji 🦀🎉 and \u{1}\u{1f}\u{7f}",
        "\u{e9}\u{4e2d}\u{1f600}\"",
    ] {
        assert_escape_matches(text);
    }

    // Seeded strings, weighted so about half the characters need an
    // escape and runs of plain text stay short.
    const ALPHABET: [&str; 16] = [
        "\"", "\\", "\n", "\u{0}", "\u{1b}", "\r", "\t", "\u{1f}", "a", "Z", " ", "é", "中", "🦀",
        "/", "\u{7f}",
    ];
    let mut rng = Rng::seed_from_u64(0x00E5_CA9E);
    for _ in 0..10_000 {
        let len = rng.gen_range(0..24);
        let s: String = (0..len)
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect();
        assert_escape_matches(&s);
    }
}

/// The search `witness_path` replaced: breadth-first from `main` with a
/// `HashMap` of predecessors and a `HashSet` of seen functions.
fn witness_path_by_map(
    program: &Program,
    callgraph: &CallGraph,
    target: FuncId,
) -> Option<Vec<FuncId>> {
    let main = program.main_function()?;
    if !callgraph.is_reachable(target) {
        return None;
    }
    let mut pred: HashMap<FuncId, FuncId> = HashMap::new();
    let mut queue = VecDeque::from([main]);
    let mut seen: HashSet<FuncId> = HashSet::from([main]);
    while let Some(f) = queue.pop_front() {
        if f == target {
            let mut path = vec![target];
            let mut cur = target;
            while let Some(&p) = pred.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for callee in callgraph.callees(f) {
            if seen.insert(callee) {
                pred.insert(callee, f);
                queue.push_back(callee);
            }
        }
    }
    None
}

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Everything,
    Algorithm::Cha,
    Algorithm::Rta,
    Algorithm::Pta,
];

fn analyze(inputs: &[(String, String)], algorithm: Algorithm) -> Option<Arc<EpochSnapshot>> {
    ProjectPipeline::run(
        inputs,
        AnalysisConfig::default(),
        algorithm,
        1,
        Engine::Summary,
        None,
        &Telemetry::disabled(),
    )
    .ok()
    .map(|run| run.snapshot())
}

/// Compares the two searches for every function of `snap`; returns how
/// many targets have a chain from `main`.
fn assert_witness_paths_match(snap: &EpochSnapshot, what: &str) -> usize {
    let mut chains = 0;
    for (func, _) in snap.program().functions() {
        let dense = witness_path(snap.program(), snap.callgraph(), func);
        let by_map = witness_path_by_map(snap.program(), snap.callgraph(), func);
        assert_eq!(dense, by_map, "{what}: witness path to {func:?}");
        chains += usize::from(dense.is_some());
    }
    chains
}

#[test]
fn witness_path_matches_the_map_search() {
    let mut chains = 0;
    for bench in dead_data_members::benchmarks::suite() {
        let inputs = vec![(format!("{}.cpp", bench.name), bench.source.to_string())];
        for algorithm in ALGORITHMS {
            let snap = analyze(&inputs, algorithm).expect("suite programs analyze");
            chains += assert_witness_paths_match(&snap, &format!("{}/{algorithm}", bench.name));
        }
    }
    let mut shapes = 0;
    for shape in FUZZ_SHAPES {
        for seed in 0..3 {
            let config = FuzzConfig {
                base: Default::default(),
                shape,
                tus: 1,
            };
            let inputs = generate_fuzz(&config, seed);
            for algorithm in ALGORITHMS {
                // An odr-conflict project is a link error by design and
                // has no call graph to search.
                let Some(snap) = analyze(&inputs, algorithm) else {
                    assert_eq!(shape.name(), "odr-conflict", "seed {seed}/{algorithm}");
                    continue;
                };
                let what = format!("{}/{seed}/{algorithm}", shape.name());
                chains += assert_witness_paths_match(&snap, &what);
                shapes += 1;
            }
        }
    }
    assert_eq!(shapes, 7 * 3 * 4, "every shape but odr-conflict analyzes");
    assert!(chains > 1000, "only {chains} targets had a chain from main");
}

const MAIN_CPP: &str = "class Gauge { public: Gauge(int v) : value(v), spare(0) { } \
     int get() { return value; } int value; int spare; };\n\
     int reading();\nint main() { return reading(); }\n";

fn lib_cpp(body: &str) -> String {
    format!(
        "class Gauge {{ public: Gauge(int v) : value(v), spare(0) {{ }} \
         int get() {{ return value; }} int value; int spare; }};\n\
         int reading() {{ Gauge g(7); return {body}; }}\n"
    )
}

/// What a one-shot run renders for `files` as they are now on disk.
fn oneshot(files: &[String]) -> Arc<EpochSnapshot> {
    let inputs: Vec<(String, String)> = files
        .iter()
        .map(|f| (f.clone(), std::fs::read_to_string(f).expect("read source")))
        .collect();
    ProjectPipeline::run(
        &inputs,
        AnalysisConfig::default(),
        Algorithm::Rta,
        1,
        Engine::Summary,
        None,
        &Telemetry::enabled(),
    )
    .expect("one-shot run")
    .snapshot()
}

#[test]
fn a_mixed_burst_is_answered_in_request_order() {
    let dir = std::env::temp_dir().join(format!("ddm-query-burst-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let main = dir.join("main.cpp").to_string_lossy().into_owned();
    let lib = dir.join("lib.cpp").to_string_lossy().into_owned();
    let files = vec![main.clone(), lib.clone()];
    std::fs::write(&main, MAIN_CPP).expect("write main");
    std::fs::write(&lib, lib_cpp("g.get()")).expect("write lib");
    let epoch1 = oneshot(&files);

    let opts = ServeOptions {
        config: AnalysisConfig::default(),
        algorithm: Algorithm::Rta,
        jobs: 2,
        engine: Engine::Summary,
        cache_dir: None,
        log_out: None,
        log_filter: None,
    };
    // The pipes live inside the scope, so a failed assertion closes the
    // request pipe and the daemon exits before the scope joins it.
    std::thread::scope(|scope| {
        let (req_rx, mut requests) = std::io::pipe().expect("request pipe");
        let (resp_rx, resp_tx) = std::io::pipe().expect("response pipe");
        let daemon = scope.spawn(|| serve(&opts, BufReader::new(req_rx), resp_tx));
        let mut responses = BufReader::new(resp_rx);
        let mut recv = || -> json::Value {
            let mut line = String::new();
            responses.read_line(&mut line).expect("read response");
            json::parse(line.trim()).expect("response json")
        };
        let file_list = format!("\"{}\",\"{}\"", json::escape(&main), json::escape(&lib));
        writeln!(requests, "{{\"cmd\":\"analyze\",\"files\":[{file_list}]}}").expect("send");
        assert_eq!(recv().get("epoch").and_then(json::Value::as_int), Some(1));

        // The next epoch livens Gauge::spare; the daemon sees the edit
        // only when the burst's notify rebuilds.
        std::fs::write(&lib, lib_cpp("g.get() + g.spare")).expect("edit lib");
        let epoch2 = oneshot(&files);
        assert_ne!(epoch1.render_report(false), epoch2.render_report(false));

        let burst = [
            "{\"cmd\":\"report\"}".to_string(),
            "{\"cmd\":\"explain\",\"member\":\"Gauge::value\"}".to_string(),
            "{\"cmd\":\"report\"".to_string(),
            "{\"cmd\":\"explain\"}".to_string(),
            "{\"cmd\":\"stats\"}".to_string(),
            "{\"cmd\":\"frobnicate\"}".to_string(),
            "{\"cmd\":\"epoch\"}".to_string(),
            "{\"cmd\":\"explain\",\"member\":\"Gauge::nope\"}".to_string(),
            format!(
                "{{\"cmd\":\"notify\",\"changed\":[\"{}\"]}}",
                json::escape(&lib)
            ),
            "{\"cmd\":\"report\"}".to_string(),
        ];
        let mut pipelined = String::new();
        for request in &burst {
            pipelined.push_str(request);
            pipelined.push('\n');
        }
        requests
            .write_all(pipelined.as_bytes())
            .expect("send burst");
        let answers: Vec<json::Value> = burst.iter().map(|_| recv()).collect();

        // (cmd tag, error kind) per request, in request order.
        let expected: [(&str, Option<&str>); 10] = [
            ("report", None),
            ("explain", None),
            ("?", Some("bad_request")),
            ("explain", Some("bad_request")),
            ("stats", None),
            ("frobnicate", Some("bad_request")),
            ("epoch", None),
            ("explain", Some("not_found")),
            ("notify", None),
            ("report", None),
        ];
        for (i, (answer, (cmd, error))) in answers.iter().zip(expected).enumerate() {
            let text = answer.render();
            assert_eq!(
                answer.get("cmd").and_then(json::Value::as_str),
                Some(cmd),
                "#{i}: {text}"
            );
            assert_eq!(
                answer.get("error").and_then(json::Value::as_str),
                error,
                "#{i}: {text}"
            );
            assert_eq!(
                answer.get("ok").and_then(json::Value::as_bool),
                Some(error.is_none()),
                "#{i}: {text}"
            );
        }
        let epoch_of = |i: usize| answers[i].get("epoch").and_then(json::Value::as_int);
        let output_of = |i: usize| answers[i].get("output").and_then(json::Value::as_str);
        let oracle = |i: usize| match epoch_of(i) {
            Some(1) => &epoch1,
            Some(2) => &epoch2,
            other => panic!("#{i} answered from epoch {other:?}"),
        };
        for i in [0, 9] {
            assert_eq!(
                output_of(i),
                Some(oracle(i).render_report(false).as_str()),
                "#{i}"
            );
        }
        let live = oracle(1)
            .render_explain("Gauge::value")
            .expect("live member");
        assert_eq!(output_of(1), Some(live.as_str()));
        assert!(live.contains("call chain: main -> reading"), "{live}");
        assert_eq!(output_of(4), Some(oracle(4).render_counters().as_str()));
        for i in [0, 1, 4, 7] {
            assert_eq!(epoch_of(i), Some(1), "#{i} precedes the notify");
        }
        assert_eq!(
            answers[6].get("building").and_then(json::Value::as_bool),
            Some(false)
        );
        assert_eq!(
            answers[8].get("building").and_then(json::Value::as_bool),
            Some(true)
        );

        // A waiting notify queues behind the burst's rebuild.
        let sync = "{\"cmd\":\"notify\",\"changed\":[],\"wait\":1}\n{\"cmd\":\"report\"}";
        writeln!(requests, "{sync}").expect("send");
        assert_eq!(recv().get("epoch").and_then(json::Value::as_int), Some(3));
        let last = recv();
        assert_eq!(
            last.get("output").and_then(json::Value::as_str),
            Some(epoch2.render_report(false).as_str())
        );
        drop(requests);
        daemon.join().expect("daemon thread").expect("serve");
    });
    let _ = std::fs::remove_dir_all(&dir);
}
