//! Serve-mode determinism: every response a live `ddm serve` daemon
//! gives — including responses answered *during* a background rebuild —
//! must be byte-identical to a fresh one-shot `ddm` invocation over the
//! same files at that response's epoch, at every job count.
//!
//! The daemon is driven over real pipes: requests written one line at a
//! time, file edits interleaved between requests, responses read back
//! in request order (the daemon answers each request before it reads
//! the next, so that order is part of the protocol). The oracle for
//! each epoch is a fresh CLI run made at that epoch's file state:
//!
//! * `report` ↔ one-shot stdout;
//! * `explain` ↔ one-shot `--explain` stdout;
//! * `stats` ↔ the `== deterministic counters ==` section of `--stats`
//!   (the deterministic-counter contract makes that section identical
//!   across jobs and cache states — the wall-clock sections
//!   can never byte-match, so they are out of scope by design).

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

fn ddm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ddm"))
}

/// Scratch project directory, removed on drop even if the test panics.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ddm-serve-det-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir scratch");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const TU_B_STATE_A: &str = "class Gauge { public: Gauge(int v) : value(v), spare(0) { } \
     int get() { return value; } int value; int spare; };\n\
     int reading() { Gauge g(7); return g.get(); }\n";

/// State B livens `Gauge::spare`, so the epoch-2 report differs from
/// epoch 1 in real bytes — a mid-rebuild response tagged epoch 1 cannot
/// accidentally pass against the epoch-2 oracle.
const TU_B_STATE_B: &str = "class Gauge { public: Gauge(int v) : value(v), spare(0) { } \
     int get() { return value; } int value; int spare; };\n\
     int reading() { Gauge g(7); return g.get() + g.spare; }\n";

/// Writes the three-TU fixture in state A; returns the file list.
fn write_fixture(dir: &PathBuf) -> Vec<String> {
    let a = dir.join("a.cpp");
    let b = dir.join("b.cpp");
    let c = dir.join("c.cpp");
    std::fs::write(
        &a,
        "class Gauge { public: Gauge(int v) : value(v), spare(0) { } \
         int get() { return value; } int value; int spare; };\n\
         int reading();\nint main() { return reading(); }\n",
    )
    .expect("write a.cpp");
    std::fs::write(&b, TU_B_STATE_A).expect("write b.cpp");
    std::fs::write(
        &c,
        "class Widget { public: int used; int unused; };\n\
         int touch() { Widget w; return w.used; }\n",
    )
    .expect("write c.cpp");
    [a, b, c]
        .iter()
        .map(|p| p.to_string_lossy().into_owned())
        .collect()
}

fn oneshot(files: &[String], jobs: usize, extra: &[&str]) -> std::process::Output {
    let mut cmd = ddm();
    cmd.args(files).arg("--jobs").arg(jobs.to_string());
    cmd.args(extra);
    let out = cmd.output().expect("run one-shot ddm");
    assert!(out.status.success(), "one-shot ddm failed: {out:?}");
    out
}

/// The oracle triple for one file state: report stdout, explain stdout
/// for both members, and the deterministic-counters section of --stats.
struct Oracle {
    report: String,
    explain_live: String,
    explain_dead: String,
    counters: String,
}

fn oracle(files: &[String], jobs: usize) -> Oracle {
    let report = oneshot(files, jobs, &[]);
    let live = oneshot(files, jobs, &["--explain", "Gauge::value"]);
    let dead = oneshot(files, jobs, &["--explain", "Widget::unused"]);
    let stats = oneshot(files, jobs, &["--stats"]);
    let stderr = String::from_utf8(stats.stderr).expect("stats stderr utf8");
    let mut counters = String::new();
    let mut in_section = false;
    for line in stderr.lines() {
        if line == "== deterministic counters ==" {
            in_section = true;
        } else if in_section && line.starts_with("== ") {
            break;
        }
        if in_section {
            counters.push_str(line);
            counters.push('\n');
        }
    }
    assert!(
        counters.starts_with("== deterministic counters ==\n"),
        "no counters section in --stats stderr:\n{stderr}"
    );
    Oracle {
        report: String::from_utf8(report.stdout).expect("report utf8"),
        explain_live: String::from_utf8(live.stdout).expect("explain utf8"),
        explain_dead: String::from_utf8(dead.stdout).expect("explain utf8"),
        counters,
    }
}

/// One live daemon with line-oriented request/response helpers.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(jobs: usize, cache: &PathBuf) -> Daemon {
        let mut child = ddm()
            .arg("serve")
            .arg("--jobs")
            .arg(jobs.to_string())
            .arg("--cache-dir")
            .arg(cache)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ddm serve");
        let stdin = child.stdin.take().expect("daemon stdin");
        let stdout = BufReader::new(child.stdout.take().expect("daemon stdout"));
        Daemon {
            child,
            stdin,
            stdout,
        }
    }

    fn send(&mut self, request: &str) {
        self.stdin
            .write_all(request.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .expect("write request");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("read response");
        assert!(n > 0, "daemon closed stdout before responding");
        line.trim_end_matches('\n').to_string()
    }

    fn round_trip(&mut self, request: &str) -> String {
        self.send(request);
        self.recv()
    }

    fn shutdown(mut self) {
        let response = self.round_trip("{\"cmd\":\"shutdown\"}");
        assert!(response.contains("\"ok\":true"), "shutdown nacked: {response}");
        drop(self.stdin);
        let status = self.child.wait().expect("wait daemon");
        assert!(status.success(), "daemon exit status {status:?}");
    }
}

/// Pulls a string field out of a response line without a JSON parser —
/// the field values under test are JSON-escaped strings, so the oracle
/// text is escaped the same way before comparing.
fn json_escape(text: &str) -> String {
    let mut out = String::new();
    for c in text.chars() {
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

fn epoch_of(response: &str) -> u64 {
    let idx = response.find("\"epoch\":").expect("epoch field") + "\"epoch\":".len();
    response[idx..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("epoch number")
}

fn assert_ok_output(response: &str, cmd: &str, epoch: u64, oracle_text: &str) {
    let expected = format!(
        "{{\"ok\":true,\"cmd\":\"{cmd}\",\"epoch\":{epoch},\"output\":\"{}\"}}",
        json_escape(oracle_text)
    );
    assert_eq!(response, expected, "{cmd} response diverged from the one-shot oracle");
}

#[test]
fn serve_responses_are_byte_identical_to_oneshot_runs_across_epochs() {
    for jobs in [1usize, 8] {
        let scratch = Scratch::new(&format!("serve-{jobs}"));
        let files = write_fixture(&scratch.0);
        let cache = scratch.0.join("cache");

        let oracle_a = oracle(&files, jobs);
        let mut daemon = Daemon::spawn(jobs, &cache);

        let file_list = files
            .iter()
            .map(|f| format!("\"{}\"", json_escape(f)))
            .collect::<Vec<_>>()
            .join(",");
        let analyzed =
            daemon.round_trip(&format!("{{\"cmd\":\"analyze\",\"files\":[{file_list}]}}"));
        assert!(analyzed.contains("\"ok\":true"), "analyze failed: {analyzed}");
        assert_eq!(epoch_of(&analyzed), 1);

        // Epoch-1 queries, including a pipelined burst: write the
        // whole batch before reading a single response, so the
        // daemon answers it from one epoch in request order.
        let batch: Vec<String> = (0..4)
            .flat_map(|_| {
                [
                    "{\"cmd\":\"report\"}".to_string(),
                    "{\"cmd\":\"explain\",\"member\":\"Gauge::value\"}".to_string(),
                    "{\"cmd\":\"explain\",\"member\":\"Widget::unused\"}".to_string(),
                    "{\"cmd\":\"stats\"}".to_string(),
                ]
            })
            .collect();
        for request in &batch {
            daemon.send(request);
        }
        for chunk in 0..4 {
            assert_ok_output(&daemon.recv(), "report", 1, &oracle_a.report);
            assert_ok_output(&daemon.recv(), "explain", 1, &oracle_a.explain_live);
            assert_ok_output(&daemon.recv(), "explain", 1, &oracle_a.explain_dead);
            let stats = daemon.recv();
            assert_ok_output(&stats, "stats", 1, &oracle_a.counters);
            let _ = chunk;
        }

        // Edit one TU of three, compute the epoch-2 oracle from the
        // new file state, and fire an *asynchronous* notify so the
        // next queries race the rebuild.
        std::fs::write(&files[1], TU_B_STATE_B).expect("edit b.cpp");
        let oracle_b = oracle(&files, jobs);
        assert_ne!(
            oracle_a.report, oracle_b.report,
            "the edit must change the report, or the mid-rebuild check is vacuous"
        );

        let notified = daemon
            .round_trip(&format!("{{\"cmd\":\"notify\",\"changed\":[\"{}\"]}}", json_escape(&files[1])));
        assert!(notified.contains("\"building\":true"), "async notify ack: {notified}");

        // Mid-rebuild queries: each response must match whichever
        // epoch it says it was served from.
        for _ in 0..6 {
            let response = daemon.round_trip("{\"cmd\":\"report\"}");
            match epoch_of(&response) {
                1 => assert_ok_output(&response, "report", 1, &oracle_a.report),
                2 => assert_ok_output(&response, "report", 2, &oracle_b.report),
                other => panic!("impossible epoch {other} in {response}"),
            }
        }

        // Wait for the rebuild to finish, then re-query: everything
        // must now be the epoch-2 oracle.
        let mut published = daemon.round_trip("{\"cmd\":\"epoch\"}");
        while published.contains("\"building\":true") || epoch_of(&published) < 2 {
            published = daemon.round_trip("{\"cmd\":\"epoch\"}");
        }
        assert_eq!(epoch_of(&published), 2, "{published}");
        let warm: u64 = {
            let idx = published
                .find("\"snapshot_warm_starts\":")
                .expect("warm-start field")
                + "\"snapshot_warm_starts\":".len();
            published[idx..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .expect("warm-start count")
        };
        assert!(
            warm >= 1,
            "the 1-of-3 rebuild must warm-start from the analysis snapshot: {published}"
        );

        assert_ok_output(&daemon.round_trip("{\"cmd\":\"report\"}"), "report", 2, &oracle_b.report);
        assert_ok_output(
            &daemon.round_trip("{\"cmd\":\"explain\",\"member\":\"Gauge::value\"}"),
            "explain",
            2,
            &oracle_b.explain_live,
        );
        assert_ok_output(
            &daemon.round_trip("{\"cmd\":\"stats\"}"),
            "stats",
            2,
            &oracle_b.counters,
        );

        // Error responses are typed, stable, and epoch-tagged.
        let malformed = daemon.round_trip("{\"cmd\":\"explain\",\"member\":\"plain\"}");
        assert!(malformed.contains("\"error\":\"bad_request\""), "{malformed}");
        let unknown = daemon.round_trip("{\"cmd\":\"explain\",\"member\":\"Gauge::nope\"}");
        assert!(unknown.contains("\"error\":\"not_found\""), "{unknown}");
        let nonsense = daemon.round_trip("{\"cmd\":\"frobnicate\"}");
        assert!(nonsense.contains("\"error\":\"bad_request\""), "{nonsense}");
        let float = daemon.round_trip("{\"cmd\":\"notify\",\"changed\":[],\"wait\":1.5}");
        assert!(float.contains("\"error\":\"bad_request\""), "{float}");
        assert!(
            float.contains("non-integer number at byte 36 (request numbers are integers)"),
            "{float}"
        );

        daemon.shutdown();
    }
}
