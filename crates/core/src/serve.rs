//! `ddm serve` — the long-running analysis daemon.
//!
//! Speaks line-delimited JSON over a reader/writer pair (the CLI wires
//! up stdin/stdout): one request per line, one response line per
//! request, responses in request order. Requests:
//!
//! | request | effect |
//! |---|---|
//! | `{"cmd":"analyze","files":[...]}` | set the file list, build epoch 1 (synchronous) |
//! | `{"cmd":"notify","changed":[...]}` | rebuild in the background; add `"wait":1` to block until published |
//! | `{"cmd":"report"}` | the analysis report + call-graph line |
//! | `{"cmd":"explain","member":"C::m"}` | the provenance text for one member |
//! | `{"cmd":"stats"}` | the deterministic-counters section of `--stats` |
//! | `{"cmd":"epoch"}` | current epoch id, rebuild status, last build timings |
//! | `{"cmd":"shutdown"}` | acknowledge and exit cleanly (EOF works too) |
//!
//! Every `report`/`explain`/`stats` response is **byte-identical to a
//! fresh one-shot `ddm` invocation over the same file state** — the
//! queries render through the exact functions the CLI prints through
//! ([`render_report`](crate::EpochSnapshot::render_report),
//! [`render_explain`](crate::EpochSnapshot::render_explain),
//! [`render_counters`](crate::EpochSnapshot::render_counters)), so the
//! oracle holds by
//! construction. Every response carries the epoch id it was answered
//! from; a query that lands during a background rebuild is served from
//! the previous epoch and tagged with that epoch's id.
//!
//! Threading: two threads. The protocol thread reads a request, answers
//! it, and writes and flushes the response line before it reads the
//! next one; queries render on it from the current
//! [`EpochSnapshot`](crate::EpochSnapshot), loaded from the
//! [`EpochCell`] swap cell (the only shared mutable point, locked for a
//! refcount bump only). The builder thread consumes change
//! notifications, re-reads the files, runs the incremental
//! [`ProjectPipeline`] path (snapshot probe → link delta → fixpoint
//! replay or re-solve) with a **fresh telemetry handle per epoch**, and
//! publishes the next epoch atomically, so queries are never blocked by
//! a background rebuild. A rebuild's per-TU front end parses up to
//! `jobs` changed TUs at once on scoped worker threads; everything after
//! it runs on the builder thread. A rebuild that panics is caught on the
//! builder thread and reported like a failed one; the previous epoch
//! stays published. Because a response is written before the next
//! request is read, a client that pipelines requests must read
//! responses as it writes them.
//!
//! Each epoch's flight-recorder events are drained to `--log-out`
//! (appended, with an `epoch_published` marker per epoch) when the
//! build finishes, so the bounded event log is a per-epoch bound, not a
//! process-lifetime one, and any overflow ends that epoch's stream with
//! an explicit `log_truncated` record.

use crate::analysis::AnalysisConfig;
use crate::epoch::EpochCell;
use crate::pipeline::Engine;
use crate::project::{ProjectPipeline, ANALYSIS_STACK_BYTES};
use ddm_callgraph::Algorithm;
use ddm_telemetry::{json, EventClass, Telemetry};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Mutex;
use std::time::Instant;

/// Configuration for one [`serve`] session (the analysis knobs the CLI
/// would otherwise pass per invocation, fixed for the daemon's life).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Analysis configuration (§3.2/§3.3 policies, library classes).
    pub config: AnalysisConfig,
    /// Call-graph builder.
    pub algorithm: Algorithm,
    /// How many TUs each rebuild's per-TU front end parses at once. The
    /// whole-program steps of a rebuild run on the builder thread.
    pub jobs: usize,
    /// Ignored: [`Engine`] has one variant. The field stays so that
    /// existing struct literals, the repository benchmark's among them,
    /// keep compiling.
    pub engine: Engine,
    /// Persistent cache directory; enables the incremental path (the
    /// cache file `analysis.snap`: cached modules and warm starts).
    pub cache_dir: Option<PathBuf>,
    /// Flight-recorder NDJSON sink, drained once per epoch (appended;
    /// truncated when the session starts).
    pub log_out: Option<PathBuf>,
    /// Event-class filter for `log_out` (`None` = both classes).
    pub log_filter: Option<EventClass>,
}

/// A query answerable from the published snapshot alone.
enum Query<'r> {
    Report,
    Explain(&'r str),
    Stats,
}

impl Query<'_> {
    fn cmd(&self) -> &'static str {
        match self {
            Query::Report => "report",
            Query::Explain(_) => "explain",
            Query::Stats => "stats",
        }
    }
}

/// One rebuild request for the builder thread. `done` is present for
/// synchronous requests (`analyze`, `notify` with `wait`): the protocol
/// thread blocks on it so the response carries the new epoch.
struct BuildJob {
    files: Vec<String>,
    done: Option<Sender<Result<u64, String>>>,
}

/// Observational facts about the most recent build, surfaced by the
/// `epoch` query.
#[derive(Debug, Default, Clone)]
struct BuildInfo {
    build_ns: u64,
    snapshot_warm_starts: u64,
    events_dropped: u64,
    error: Option<String>,
}

/// State shared between the protocol thread and the builder thread.
struct Shared {
    cell: EpochCell,
    /// Last published epoch id (0 = nothing published).
    epoch: AtomicU64,
    /// Builds queued or running; `> 0` renders as `"building":true`.
    pending_builds: AtomicU64,
    last_build: Mutex<BuildInfo>,
}

const NO_EPOCH_MSG: &str = "no analysis epoch published yet; send analyze first";

fn ok_output(cmd: &str, epoch: u64, output: &str) -> String {
    format!(
        "{{\"ok\":true,\"cmd\":\"{cmd}\",\"epoch\":{epoch},\"output\":\"{}\"}}",
        json::escape(output)
    )
}

fn error_line(cmd: &str, kind: &str, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"cmd\":\"{cmd}\",\"error\":\"{kind}\",\"message\":\"{}\"}}",
        json::escape(message)
    )
}

/// Answers one query against the currently published epoch.
fn answer_query(shared: &Shared, query: &Query) -> String {
    let Some(snap) = shared.cell.load() else {
        return error_line(query.cmd(), "no_epoch", NO_EPOCH_MSG);
    };
    let epoch = snap.epoch();
    match query {
        Query::Report => ok_output("report", epoch, &snap.render_report(false)),
        Query::Stats => ok_output("stats", epoch, &snap.render_counters()),
        Query::Explain(spec) => match snap.render_explain(spec) {
            Ok(text) => ok_output("explain", epoch, &text),
            Err(e) => format!(
                "{{\"ok\":false,\"cmd\":\"explain\",\"epoch\":{epoch},\"error\":\"{}\",\"message\":\"{}\"}}",
                e.kind(),
                json::escape(e.message())
            ),
        },
    }
}

fn epoch_response(shared: &Shared) -> String {
    let epoch = shared.epoch.load(Ordering::SeqCst);
    let building = shared.pending_builds.load(Ordering::SeqCst) > 0;
    let info = shared.last_build.lock().expect("build info poisoned").clone();
    let mut out = format!(
        "{{\"ok\":true,\"cmd\":\"epoch\",\"epoch\":{epoch},\"building\":{building},\
         \"build_ns\":{},\"snapshot_warm_starts\":{},\"events_dropped\":{}",
        info.build_ns, info.snapshot_warm_starts, info.events_dropped
    );
    if let Some(err) = &info.error {
        out.push_str(&format!(",\"last_error\":\"{}\"", json::escape(err)));
    }
    out.push('}');
    out
}

/// Reads the files, runs one epoch build with a fresh telemetry handle,
/// drains the epoch's events to the log sink, and publishes the result.
fn run_build(opts: &ServeOptions, files: &[String], shared: &Shared) -> Result<u64, String> {
    let mut inputs = Vec::with_capacity(files.len());
    for file in files {
        let source =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        inputs.push((file.clone(), source));
    }
    #[cfg(test)]
    if inputs.iter().any(|(_, source)| source.contains(tests::PANIC_MARKER)) {
        panic!("source contains {}", tests::PANIC_MARKER);
    }
    let telemetry = Telemetry::configured(opts.log_out.is_some());
    let epoch = shared.epoch.load(Ordering::SeqCst) + 1;
    let started = Instant::now();
    let snap = ProjectPipeline::run_epoch(
        &inputs,
        opts.config.clone(),
        opts.algorithm,
        opts.jobs.max(1),
        opts.cache_dir.as_deref(),
        &telemetry,
        epoch,
    )
    .map_err(|e| e.to_string())?;
    let build_ns = started.elapsed().as_nanos() as u64;
    telemetry.event(EventClass::Observational, "epoch_published", || {
        vec![("epoch", epoch.into()), ("build_ns", build_ns.into())]
    });
    // Drain before reading the registry so any drop count this epoch
    // produced is already folded into `events/dropped`.
    let drained = opts
        .log_out
        .as_ref()
        .map(|_| telemetry.drain_events_ndjson(opts.log_filter));
    if let (Some(path), Some(payload)) = (&opts.log_out, drained) {
        let appended = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .and_then(|mut f| f.write_all(payload.as_bytes()));
        if let Err(e) = appended {
            eprintln!("error: cannot append to {}: {e}", path.display());
        }
    }
    shared.cell.store(snap);
    shared.epoch.store(epoch, Ordering::SeqCst);
    let mut info = shared.last_build.lock().expect("build info poisoned");
    info.build_ns = build_ns;
    info.snapshot_warm_starts = telemetry.counter("snapshot/warm_starts");
    info.events_dropped += telemetry.counter("events/dropped");
    info.error = None;
    Ok(epoch)
}

/// [`run_build`], with a panic turned into an error. Nothing is
/// published until the build has finished, so a panic leaves the
/// previous epoch in place.
fn run_build_isolated(
    opts: &ServeOptions,
    files: &[String],
    shared: &Shared,
) -> Result<u64, String> {
    catch_unwind(AssertUnwindSafe(|| run_build(opts, files, shared))).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        Err(format!("rebuild panicked: {message}"))
    })
}

/// Whether a request's `wait` field asks for a synchronous rebuild
/// (`"wait":1` and `"wait":true` both count).
fn wants_wait(request: &json::Value) -> bool {
    match request.get("wait") {
        Some(v) => v.as_bool() == Some(true) || v.as_int().is_some_and(|i| i != 0),
        None => false,
    }
}

/// The error response for a `notify` that cannot be queued, or `None`
/// when every file it names is part of the analyzed set.
fn notify_rejection(shared: &Shared, files: &[String], request: &json::Value) -> Option<String> {
    if shared.epoch.load(Ordering::SeqCst) == 0 {
        return Some(error_line("notify", "no_epoch", NO_EPOCH_MSG));
    }
    let Some(changed) = request.get("changed").and_then(json::Value::as_arr) else {
        return Some(error_line(
            "notify",
            "bad_request",
            "notify needs a changed array",
        ));
    };
    let unknown = changed.iter().find_map(|v| match v.as_str() {
        Some(name) if files.iter().any(|f| f == name) => None,
        Some(name) => Some(name.to_string()),
        None => Some("<non-string entry>".to_string()),
    })?;
    Some(error_line(
        "notify",
        "bad_request",
        &format!("changed file '{unknown}' is not part of the analyzed set"),
    ))
}

/// Writes one response line and flushes it to the client.
fn respond(output: &mut impl Write, mut line: String) -> Result<(), String> {
    line.push('\n');
    output
        .write_all(line.as_bytes())
        .and_then(|()| output.flush())
        .map_err(|e| format!("response write failed: {e}"))
}

/// Runs the daemon until `shutdown` or EOF on `input`. See the module
/// docs for the protocol.
///
/// # Errors
///
/// Only transport failures (a read error on `input`, a write error on
/// `output`) — protocol-level problems are answered as
/// `{"ok":false,...}` response lines, and build failures leave the
/// previous epoch published.
pub fn serve(
    opts: &ServeOptions,
    input: impl BufRead,
    output: impl Write + Send,
) -> Result<(), String> {
    if let Some(path) = &opts.log_out {
        // The session log is append-per-epoch; start it empty.
        std::fs::write(path, "").map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let shared = Shared {
        cell: EpochCell::new(),
        epoch: AtomicU64::new(0),
        pending_builds: AtomicU64::new(0),
        last_build: Mutex::new(BuildInfo::default()),
    };
    let shared = &shared;
    let (build_tx, build_rx) = channel::<BuildJob>();

    std::thread::scope(|scope| -> Result<(), String> {
        // Builder: the only thread that runs the pipeline or stores the
        // cell. Processes jobs in order; each success publishes the
        // next epoch. It analyses, so it gets the main thread's stack.
        std::thread::Builder::new()
            .stack_size(ANALYSIS_STACK_BYTES)
            .spawn_scoped(scope, move || {
                while let Ok(job) = build_rx.recv() {
                    let result = run_build_isolated(opts, &job.files, shared);
                    if let Err(e) = &result {
                        shared.last_build.lock().expect("build info poisoned").error =
                            Some(e.clone());
                    }
                    shared.pending_builds.fetch_sub(1, Ordering::SeqCst);
                    if let Some(done) = job.done {
                        let _ = done.send(result);
                    }
                }
            })
            .map_err(|e| format!("cannot spawn the builder: {e}"))?;

        let mut output = output;
        let mut files: Vec<String> = Vec::new();
        let queue = |files: &[String], done: Option<Sender<Result<u64, String>>>| {
            shared.pending_builds.fetch_add(1, Ordering::SeqCst);
            build_tx
                .send(BuildJob {
                    files: files.to_vec(),
                    done,
                })
                .map_err(|_| "builder gone".to_string())
        };
        let build = |files: &[String]| -> Result<Result<u64, String>, String> {
            let (done_tx, done_rx) = channel();
            queue(files, Some(done_tx))?;
            done_rx.recv().map_err(|_| "builder gone".to_string())
        };

        for line in input.lines() {
            let line = line.map_err(|e| format!("request read failed: {e}"))?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let request = match json::parse(trimmed) {
                Ok(v) => v,
                Err(e) => {
                    let message = format!("invalid request JSON: {e}");
                    respond(&mut output, error_line("?", "bad_request", &message))?;
                    continue;
                }
            };
            let Some(cmd) = request.get("cmd").and_then(json::Value::as_str) else {
                let message = "request needs a string cmd field";
                respond(&mut output, error_line("?", "bad_request", message))?;
                continue;
            };
            let response = match cmd {
                "analyze" => {
                    let listed: Option<Vec<String>> =
                        request.get("files").and_then(json::Value::as_arr).map(|arr| {
                            arr.iter()
                                .filter_map(|v| v.as_str().map(str::to_string))
                                .collect()
                        });
                    match listed {
                        Some(new_files) if !new_files.is_empty() => {
                            files = new_files;
                            match build(&files)? {
                                Ok(epoch) => format!(
                                    "{{\"ok\":true,\"cmd\":\"analyze\",\"epoch\":{epoch},\"tus\":{}}}",
                                    files.len()
                                ),
                                Err(msg) => error_line("analyze", "analysis", &msg),
                            }
                        }
                        _ => error_line(
                            "analyze",
                            "bad_request",
                            "analyze needs a non-empty files array of strings",
                        ),
                    }
                }
                "notify" => {
                    if let Some(rejection) = notify_rejection(shared, &files, &request) {
                        rejection
                    } else if wants_wait(&request) {
                        match build(&files)? {
                            Ok(epoch) => format!(
                                "{{\"ok\":true,\"cmd\":\"notify\",\"epoch\":{epoch},\"building\":false}}"
                            ),
                            Err(msg) => error_line("notify", "analysis", &msg),
                        }
                    } else {
                        queue(&files, None)?;
                        let epoch = shared.epoch.load(Ordering::SeqCst);
                        format!("{{\"ok\":true,\"cmd\":\"notify\",\"epoch\":{epoch},\"building\":true}}")
                    }
                }
                "report" => answer_query(shared, &Query::Report),
                "stats" => answer_query(shared, &Query::Stats),
                "explain" => match request.get("member").and_then(json::Value::as_str) {
                    Some(member) => answer_query(shared, &Query::Explain(member)),
                    None => error_line(
                        "explain",
                        "bad_request",
                        "explain needs a member field (\"Class::member\")",
                    ),
                },
                "epoch" => epoch_response(shared),
                "shutdown" => {
                    let epoch = shared.epoch.load(Ordering::SeqCst);
                    let ack = format!("{{\"ok\":true,\"cmd\":\"shutdown\",\"epoch\":{epoch}}}");
                    respond(&mut output, ack)?;
                    break;
                }
                other => error_line(other, "bad_request", &format!("unknown cmd '{other}'")),
            };
            respond(&mut output, response)?;
        }

        // Closing the channel retires the builder once its queue is
        // empty; the scope joins it before returning.
        drop(build_tx);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    /// A source containing this text makes [`run_build`] panic.
    pub(super) const PANIC_MARKER: &str = "ddm-serve-test-panic";

    fn temp_project(tag: &str) -> (std::path::PathBuf, Vec<String>) {
        let dir = std::env::temp_dir().join(format!("ddm-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let main = dir.join("main.cpp");
        let lib = dir.join("lib.cpp");
        std::fs::write(
            &main,
            "class Gauge { public: Gauge(int v) : value(v), spare(0) { } \
             int get() { return value; } int value; int spare; };\n\
             int reading();\nint main() { return reading(); }\n",
        )
        .expect("write main");
        std::fs::write(
            &lib,
            "class Gauge { public: Gauge(int v) : value(v), spare(0) { } \
             int get() { return value; } int value; int spare; };\n\
             int reading() { Gauge g(7); return g.get(); }\n",
        )
        .expect("write lib");
        let files = vec![
            main.to_string_lossy().into_owned(),
            lib.to_string_lossy().into_owned(),
        ];
        (dir, files)
    }

    fn default_opts() -> ServeOptions {
        ServeOptions {
            config: AnalysisConfig::default(),
            algorithm: Algorithm::Rta,
            jobs: 2,
            engine: Engine::Summary,
            cache_dir: None,
            log_out: None,
            log_filter: None,
        }
    }

    fn drive(opts: &ServeOptions, requests: &[String]) -> Vec<json::Value> {
        let input = requests.join("\n") + "\n";
        let mut out: Vec<u8> = Vec::new();
        serve(opts, Cursor::new(input), &mut out).expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        text.lines().map(|l| json::parse(l).expect("response json")).collect()
    }

    fn field<'v>(v: &'v json::Value, key: &str) -> &'v json::Value {
        v.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    #[test]
    fn protocol_round_trip_matches_the_pipeline_byte_for_byte() {
        let (dir, files) = temp_project("roundtrip");
        let opts = default_opts();
        let file_list = files
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect::<Vec<_>>()
            .join(",");
        let responses = drive(
            &opts,
            &[
                format!("{{\"cmd\":\"analyze\",\"files\":[{file_list}]}}"),
                "{\"cmd\":\"report\"}".to_string(),
                "{\"cmd\":\"explain\",\"member\":\"Gauge::value\"}".to_string(),
                "{\"cmd\":\"stats\"}".to_string(),
                "{\"cmd\":\"epoch\"}".to_string(),
                "{\"cmd\":\"shutdown\"}".to_string(),
            ],
        );
        assert_eq!(responses.len(), 6);
        for r in &responses {
            assert_eq!(field(r, "ok").as_bool(), Some(true), "{}", r.render());
        }

        // The oracle: a fresh one-shot run over the same files.
        let inputs: Vec<(String, String)> = files
            .iter()
            .map(|f| (f.clone(), std::fs::read_to_string(f).expect("read")))
            .collect();
        let telemetry = Telemetry::enabled();
        let oracle = ProjectPipeline::run(
            &inputs,
            AnalysisConfig::default(),
            Algorithm::Rta,
            2,
            Engine::Summary,
            None,
            &telemetry,
        )
        .expect("oracle run")
        .snapshot();

        assert_eq!(
            field(&responses[1], "output").as_str().expect("report output"),
            oracle.render_report(false)
        );
        assert_eq!(
            field(&responses[2], "output").as_str().expect("explain output"),
            oracle.render_explain("Gauge::value").expect("explain")
        );
        assert_eq!(
            field(&responses[3], "output").as_str().expect("stats output"),
            format!(
                "== deterministic counters ==\n{}",
                telemetry.counters().render_table()
            )
        );
        for r in &responses[1..4] {
            assert_eq!(field(r, "epoch").as_int(), Some(1));
        }
        assert_eq!(field(&responses[4], "epoch").as_int(), Some(1));
        assert_eq!(field(&responses[4], "building").as_bool(), Some(false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queries_before_analyze_and_bad_requests_are_typed_errors() {
        let (dir, files) = temp_project("errors");
        let opts = default_opts();
        let file_list = files
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect::<Vec<_>>()
            .join(",");
        let responses = drive(
            &opts,
            &[
                "{\"cmd\":\"report\"}".to_string(),
                "not json".to_string(),
                "{\"cmd\":\"frobnicate\"}".to_string(),
                "{\"cmd\":\"notify\",\"changed\":[]}".to_string(),
                format!("{{\"cmd\":\"analyze\",\"files\":[{file_list}]}}"),
                "{\"cmd\":\"explain\",\"member\":\"plain\"}".to_string(),
                "{\"cmd\":\"explain\",\"member\":\"Gauge::nope\"}".to_string(),
                format!(
                    "{{\"cmd\":\"notify\",\"changed\":[\"unrelated.cpp\"],\"wait\":1}}"
                ),
                "{\"cmd\":\"shutdown\"}".to_string(),
            ],
        );
        assert_eq!(responses.len(), 9);
        let error_of = |i: usize| field(&responses[i], "error").as_str().expect("error kind");
        assert_eq!(error_of(0), "no_epoch");
        assert_eq!(error_of(1), "bad_request");
        assert_eq!(error_of(2), "bad_request");
        assert_eq!(error_of(3), "no_epoch", "notify before analyze");
        assert_eq!(field(&responses[4], "ok").as_bool(), Some(true));
        assert_eq!(error_of(5), "bad_request", "malformed explain spec");
        assert!(
            field(&responses[5], "message")
                .as_str()
                .expect("message")
                .contains("expected Class::member")
        );
        assert_eq!(error_of(6), "not_found", "unknown member");
        assert!(
            field(&responses[6], "message")
                .as_str()
                .expect("message")
                .contains("no data member")
        );
        assert_eq!(error_of(7), "bad_request", "unknown changed file");
        assert_eq!(field(&responses[8], "ok").as_bool(), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn notify_wait_republishes_and_bumps_the_epoch() {
        let (dir, files) = temp_project("notify");
        let cache = dir.join("cache");
        let mut opts = default_opts();
        opts.cache_dir = Some(cache);
        let file_list = files
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect::<Vec<_>>()
            .join(",");
        // The file edit has to happen between requests; with a static
        // request script the second build sees the same bytes, which is
        // still a legitimate epoch bump (same content, new epoch id).
        let responses = drive(
            &opts,
            &[
                format!("{{\"cmd\":\"analyze\",\"files\":[{file_list}]}}"),
                format!(
                    "{{\"cmd\":\"notify\",\"changed\":[\"{}\"],\"wait\":1}}",
                    json::escape(&files[0])
                ),
                "{\"cmd\":\"report\"}".to_string(),
                "{\"cmd\":\"epoch\"}".to_string(),
            ],
        );
        assert_eq!(responses.len(), 4, "EOF shuts down cleanly without a shutdown cmd");
        assert_eq!(field(&responses[0], "epoch").as_int(), Some(1));
        assert_eq!(field(&responses[1], "epoch").as_int(), Some(2));
        assert_eq!(field(&responses[1], "building").as_bool(), Some(false));
        assert_eq!(field(&responses[2], "epoch").as_int(), Some(2));
        assert_eq!(
            field(&responses[3], "snapshot_warm_starts").as_int(),
            Some(1),
            "the rebuild must warm-start from the analysis snapshot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_rebuild_is_an_analysis_error_and_keeps_the_previous_epoch() {
        let (dir, files) = temp_project("panic");
        let opts = default_opts();
        let file_list = files
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect::<Vec<_>>()
            .join(",");
        let notify = format!(
            "{{\"cmd\":\"notify\",\"changed\":[\"{}\"],\"wait\":1}}",
            json::escape(&files[1])
        );
        let clean = std::fs::read_to_string(&files[1]).expect("read lib");
        // The pipes live inside the scope, so a failed assertion closes
        // the request pipe and the daemon exits before the scope joins it.
        std::thread::scope(|scope| {
            let (req_rx, mut req_tx) = std::io::pipe().expect("request pipe");
            let (resp_rx, resp_tx) = std::io::pipe().expect("response pipe");
            let daemon = scope.spawn(|| serve(&opts, BufReader::new(req_rx), resp_tx));
            let mut responses = BufReader::new(resp_rx);
            let mut call = |request: &str| -> json::Value {
                writeln!(req_tx, "{request}").expect("send request");
                let mut line = String::new();
                responses.read_line(&mut line).expect("read response");
                json::parse(line.trim()).expect("response json")
            };

            let analyzed = call(&format!("{{\"cmd\":\"analyze\",\"files\":[{file_list}]}}"));
            assert_eq!(field(&analyzed, "epoch").as_int(), Some(1));
            let report = call("{\"cmd\":\"report\"}");
            let epoch1_report = field(&report, "output").as_str().expect("output").to_string();

            std::fs::write(&files[1], format!("{clean}// {PANIC_MARKER}\n")).expect("mark");
            let failed = call(&notify);
            assert_eq!(field(&failed, "ok").as_bool(), Some(false), "{}", failed.render());
            assert_eq!(field(&failed, "error").as_str(), Some("analysis"));
            let message = field(&failed, "message").as_str().expect("message");
            assert!(message.starts_with("rebuild panicked: "), "{message}");
            let status = call("{\"cmd\":\"epoch\"}");
            assert_eq!(field(&status, "epoch").as_int(), Some(1));
            assert_eq!(field(&status, "building").as_bool(), Some(false));
            assert_eq!(field(&status, "last_error").as_str(), Some(message));
            let report = call("{\"cmd\":\"report\"}");
            assert_eq!(field(&report, "epoch").as_int(), Some(1));
            assert_eq!(field(&report, "output").as_str(), Some(epoch1_report.as_str()));

            std::fs::write(&files[1], &clean).expect("unmark");
            let rebuilt = call(&notify);
            assert_eq!(field(&rebuilt, "ok").as_bool(), Some(true), "{}", rebuilt.render());
            assert_eq!(field(&rebuilt, "epoch").as_int(), Some(2));
            let status = call("{\"cmd\":\"epoch\"}");
            assert!(status.get("last_error").is_none(), "{}", status.render());

            call("{\"cmd\":\"shutdown\"}");
            daemon.join().expect("daemon thread").expect("serve");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
