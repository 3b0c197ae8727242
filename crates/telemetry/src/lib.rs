//! # ddm-telemetry
//!
//! Observability for the dead-data-member pipeline, split along one hard
//! line:
//!
//! * **Deterministic counters** ([`Counters`]) are semantic event counts —
//!   how many members the scan read, how many `MarkAllContainedMembers`
//!   expansions fired, how many union-fixpoint rounds ran. They are
//!   bit-identical across `--jobs 1..N` and across cache states, so
//!   tests can assert them.
//! * **Timing spans** ([`SpanRecord`]) and the **metrics registry**
//!   ([`MetricsRegistry`]) are observational — wall-clock phase timings,
//!   the per-TU front end's worker lanes, cache hits, TUs parsed,
//!   snapshot reuse. They describe *how* a particular run executed. The
//!   registry is the one store of these statistics: each fact is
//!   recorded there once (or is the span that times it), and `--stats`,
//!   `--stats-json`, `--metrics-out` and the serve `epoch` reply are
//!   views of it. No registry entry copies a [`Counters`] field.
//!
//! A [`Telemetry`] handle is threaded through the pipeline by reference.
//! The disabled handle ([`Telemetry::disabled`]) holds no state at all:
//! [`Telemetry::span`] never evaluates its name closure, never reads the
//! clock, and never allocates, so instrumented hot loops cost a branch on
//! an `Option` when telemetry is off.
//!
//! Enabled spans export to Chrome trace-event JSON
//! ([`Telemetry::chrome_trace_json`], loadable in `chrome://tracing` or
//! Perfetto, one lane per worker) and to a human-readable stderr table
//! ([`Telemetry::render_stats`]).

pub mod events;
pub mod json;
pub mod metrics;

pub use events::{Event, EventClass, FieldValue, Fields};
pub use metrics::{Histogram, Metric, MetricsRegistry};

use events::EventLog;
use std::sync::Mutex;
use std::time::Instant;

/// The span lane of the coordinating thread. Worker lanes are `1..=N`
/// (front-end worker index + 1).
pub const LANE_MAIN: u32 = 0;

/// Declares [`Counters`] from its one field list: the struct, and its
/// rows in declaration order, read-only and mutable.
macro_rules! counters {
    ($(#[$meta:meta])* pub struct Counters { $($(#[$field_meta:meta])* pub $field:ident: u64,)* }) => {
        $(#[$meta])*
        pub struct Counters {
            $($(#[$field_meta])* pub $field: u64,)*
        }

        /// How many fields [`Counters`] has.
        const COUNTER_ROWS: usize = [$(stringify!($field)),*].len();

        impl Counters {
            /// Stable (key, value) view, in rendering order. The keys
            /// double as JSON field names in `BENCH_suite.json`, and the
            /// snapshot stores the values in this order.
            pub fn rows(&self) -> [(&'static str, u64); COUNTER_ROWS] {
                [$((stringify!($field), self.$field),)*]
            }

            /// The rows of [`Counters::rows`], each value mutable.
            pub fn rows_mut(&mut self) -> [(&'static str, &mut u64); COUNTER_ROWS] {
                [$((stringify!($field), &mut self.$field),)*]
            }
        }
    };
}

counters! {
    /// Deterministic event counts: identical for every `--jobs` value and
    /// cache state on the same input and configuration.
    ///
    /// Scan counters count *marking attempts* (events the paper's rules
    /// fire on), not fresh marks.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct Counters {
        /// Functions reachable in the call graph.
        pub reachable_functions: u64,
        /// Resolved call edges.
        pub callgraph_edges: u64,
        /// Classes in the instantiated set.
        pub instantiated_classes: u64,
        /// Call-graph delta-worklist pops (first processings + readied-site
        /// drain slots). A snapshot warm start replays the stored schedule,
        /// so the count is jobs- and cache-independent.
        pub cg_worklist_pops: u64,
        /// Widened dispatch edges drained from readied sites after their
        /// receiver classes became instantiated.
        pub cg_ready_drains: u64,
        /// Member reads the scan marked live for.
        pub scan_reads: u64,
        /// Address-taken member accesses.
        pub scan_address_taken: u64,
        /// `&Z::m` pointer-to-member expressions.
        pub scan_ptr_to_member: u64,
        /// Stores to volatile members.
        pub scan_volatile_writes: u64,
        /// `MarkAllContainedMembers` triggers that fired after resolving the
        /// configuration gates (unsafe casts, down-cast policy, sizeof policy).
        pub markall_triggers: u64,
        /// Distinct classes expanded by `MarkAllContainedMembers` before the
        /// union post-pass (the merged visited set).
        pub markall_classes_expanded: u64,
        /// Union-propagation fixpoint rounds (including the final,
        /// nothing-changed round).
        pub union_rounds: u64,
        /// Classes the union post-pass expanded.
        pub union_classes_livened: u64,
        /// Final classification: live / dead / unclassifiable members.
        pub members_live: u64,
        /// Members classified dead.
        pub members_dead: u64,
        /// Members of library classes (§3.3), unclassifiable.
        pub members_unclassifiable: u64,
    }
}

impl Counters {
    /// Adds `other` into `self`, field-wise. Contributions come from
    /// disjoint phases (scan counters from the analysis, graph and
    /// classification totals from the pipeline), merged in a fixed order.
    pub fn add(&mut self, other: &Counters) {
        for ((_, a), (_, b)) in self.rows_mut().into_iter().zip(other.rows()) {
            *a += b;
        }
    }

    /// Renders the counters as the aligned key/value rows printed under
    /// the `== deterministic counters ==` heading of `--stats`. The
    /// serve-mode `stats` query renders through the same helper, so the
    /// two surfaces cannot drift byte-wise.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (key, value) in self.rows() {
            out.push_str(&format!("{key:<44} {value:>12}\n"));
        }
        out
    }
}

/// The three cache facts of one run that the repository benchmark
/// (`perfbench/`) reads, filled from the metrics registry by
/// [`Telemetry::stats`]. Kept for perfbench only: every other reader
/// reads the registry.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// TU modules served from the cache (`cache/hits`).
    pub tu_cache_hits: u64,
    /// TUs the front end ran (`frontend/tus`).
    pub tu_cache_misses: u64,
    /// Reachable functions whose fixpoint facts a snapshot warm start
    /// reused (`snapshot/reused_fns`).
    pub snapshot_reused_fns: u64,
}

/// One completed timed phase. `start_ns` is relative to the handle's
/// creation; nesting is by time containment within a lane (the Chrome
/// trace model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name, e.g. `"parse"` or `"tu src/a.cpp"`.
    pub name: String,
    /// 0 = coordinator, `1..=N` = worker lanes.
    pub lane: u32,
    /// Nanoseconds since the handle was created.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug, Default)]
struct Collected {
    spans: Vec<SpanRecord>,
    counters: Counters,
    events: EventLog,
    metrics: MetricsRegistry,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    record_events: bool,
    collected: Mutex<Collected>,
}

/// The telemetry handle threaded through the pipeline.
///
/// Shared by reference across worker threads (all state sits behind one
/// mutex, touched only at phase boundaries — never inside per-member
/// marking loops).
#[derive(Debug)]
pub struct Telemetry {
    inner: Option<Inner>,
}

impl Telemetry {
    /// A no-op handle: no clock, no allocation, every operation is a
    /// branch on `None`.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A collecting handle; the creation instant is the trace epoch.
    /// Collects spans, counters, and metrics — the flight recorder stays
    /// off (see [`Telemetry::configured`]).
    pub fn enabled() -> Telemetry {
        Telemetry::configured(false)
    }

    /// A collecting handle with the flight recorder on — everything the
    /// telemetry layer can record.
    pub fn recording() -> Telemetry {
        Telemetry::configured(true)
    }

    /// A collecting handle that records spans, counters and metrics,
    /// with the flight recorder (`events`) selectable. The recorder is
    /// opt-in so span-only consumers (`--stats`) never pay for decision
    /// logging on hot paths.
    pub fn configured(events: bool) -> Telemetry {
        Telemetry {
            inner: Some(Inner {
                epoch: Instant::now(),
                record_events: events,
                collected: Mutex::new(Collected::default()),
            }),
        }
    }

    /// Whether this handle collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether the flight recorder is collecting events.
    pub fn events_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.record_events)
    }

    /// Records one flight-recorder event. The fields closure is only
    /// evaluated (and only allocates) when event recording is on, so an
    /// instrumented hot path costs one branch when the recorder is off.
    ///
    /// Deterministic-class events must be emitted from the coordinating
    /// thread at schedule-invariant points only — the recorder stores
    /// them in emission order and that order is part of the contract.
    pub fn event(&self, class: EventClass, name: &'static str, fields: impl FnOnce() -> Fields) {
        if let Some(inner) = &self.inner {
            if inner.record_events {
                let ts_ns = elapsed_ns(inner.epoch);
                inner
                    .collected
                    .lock()
                    .expect(POISONED)
                    .events
                    .push(class, name, ts_ns, fields());
            }
        }
    }

    /// Mutates the metrics registry (no-op when disabled).
    pub fn metrics(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.collected.lock().expect(POISONED).metrics);
        }
    }

    /// The registry counter `name` (0 when disabled or never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .collected
                .lock()
                .expect(POISONED)
                .metrics
                .counter(name)
        })
    }

    /// A snapshot of the metrics registry.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        match &self.inner {
            None => MetricsRegistry::default(),
            Some(inner) => inner.collected.lock().expect(POISONED).metrics.clone(),
        }
    }

    /// The metrics registry rendered as its versioned JSON document.
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().render_json()
    }

    /// All recorded events: the deterministic stream first, then the
    /// observational stream.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.collected.lock().expect(POISONED).events.all(),
        }
    }

    /// The flight-recorder log rendered as NDJSON (one event per line;
    /// `filter = None` renders both classes, deterministic first).
    pub fn events_ndjson(&self, filter: Option<EventClass>) -> String {
        match &self.inner {
            None => String::new(),
            Some(inner) => inner
                .collected
                .lock()
                .expect(POISONED)
                .events
                .render_ndjson(filter),
        }
    }

    /// Renders the flight recorder like [`Telemetry::events_ndjson`],
    /// then clears the log so the next epoch starts from an empty buffer
    /// with fresh per-class sequence numbers. Any events lost to the
    /// per-class bound are folded into the `events/dropped` counter
    /// before the reset (the rendered text already ends with their
    /// `log_truncated` record). This is how long-running consumers keep
    /// `--log-out` complete across arbitrarily many epochs: drain once
    /// per epoch instead of letting one bounded buffer span the process.
    pub fn drain_events_ndjson(&self, filter: Option<EventClass>) -> String {
        match &self.inner {
            None => String::new(),
            Some(inner) => {
                let mut c = inner.collected.lock().expect(POISONED);
                let text = c.events.render_ndjson(filter);
                let dropped = c.events.total_dropped();
                c.metrics.counter_add(EVENTS_DROPPED, dropped);
                c.events.clear();
                text
            }
        }
    }

    /// Folds the current dropped-event counts into the `events/dropped`
    /// counter without rendering or clearing the log — the `--stats`-only
    /// path, where nobody drains before the table renders.
    pub fn sync_events_dropped(&self) {
        if let Some(inner) = &self.inner {
            let mut c = inner.collected.lock().expect(POISONED);
            let dropped = c.events.total_dropped();
            c.metrics.counter_add(EVENTS_DROPPED, dropped);
            c.events.reset_dropped();
        }
    }

    /// Opens a timed span on `lane`; the span records itself when the
    /// guard drops. The name closure is only evaluated (and only
    /// allocates) when telemetry is enabled.
    #[must_use]
    pub fn span(&self, lane: u32, name: impl FnOnce() -> String) -> SpanGuard<'_> {
        match &self.inner {
            None => SpanGuard { open: None },
            Some(inner) => SpanGuard {
                open: Some(OpenSpan {
                    inner,
                    name: name(),
                    lane,
                    start_ns: elapsed_ns(inner.epoch),
                }),
            },
        }
    }

    /// Adds a batch of deterministic counts (no-op when disabled).
    pub fn add_counters(&self, delta: &Counters) {
        if let Some(inner) = &self.inner {
            inner.collected.lock().expect(POISONED).counters.add(delta);
        }
    }

    /// The deterministic counters collected so far.
    pub fn counters(&self) -> Counters {
        match &self.inner {
            None => Counters::default(),
            Some(inner) => inner.collected.lock().expect(POISONED).counters,
        }
    }

    /// The three cache facts perfbench reads, from the registry. Kept
    /// for perfbench only; everything else reads the registry.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            tu_cache_hits: self.counter("cache/hits"),
            tu_cache_misses: self.counter("frontend/tus"),
            snapshot_reused_fns: self.counter("snapshot/reused_fns"),
        }
    }

    /// Completed spans, sorted by (lane, start, longest-first) so a
    /// parent precedes its children.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.collected.lock().expect(POISONED).spans.clone(),
        };
        spans.sort_by(|a, b| {
            (a.lane, a.start_ns, b.dur_ns).cmp(&(b.lane, b.start_ns, a.dur_ns))
        });
        spans
    }

    /// Distinct lanes that recorded at least one span, ascending.
    pub fn lanes(&self) -> Vec<u32> {
        let mut lanes: Vec<u32> = self.spans().iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        lanes
    }

    /// Renders the spans as Chrome trace-event JSON: process metadata
    /// (`process_name` / `process_sort_index`, so the track is labeled
    /// "ddm" in `about:tracing` and Perfetto), one `thread_name` /
    /// `thread_sort_index` metadata pair per lane ("main", "worker-1",
    /// ... in lane order), one complete ("X") event per span, and one
    /// instant ("i") event per recorded flight-recorder event (cache
    /// probes, link decisions, round deltas) on the coordinator lane.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        push_event(
            &mut out,
            &mut first,
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {\"name\": \"ddm\"}}",
        );
        push_event(
            &mut out,
            &mut first,
            "{\"name\": \"process_sort_index\", \"ph\": \"M\", \"pid\": 1, \"args\": {\"sort_index\": 0}}",
        );
        for lane in self.lanes() {
            let name = lane_name(lane);
            push_event(&mut out, &mut first, &format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {lane}, \"args\": {{\"name\": \"{name}\"}}}}"
            ));
            push_event(&mut out, &mut first, &format!(
                "{{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": 1, \"tid\": {lane}, \"args\": {{\"sort_index\": {lane}}}}}"
            ));
        }
        for s in self.spans() {
            push_event(&mut out, &mut first, &format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{}}}}",
                json::escape(&s.name),
                s.lane,
                micros(s.start_ns),
                micros(s.dur_ns),
            ));
        }
        for e in self.events() {
            let mut args = String::new();
            args.push_str(&format!("\"class\": \"{}\"", e.class.tag()));
            for (key, value) in &e.fields {
                args.push_str(&format!(", \"{key}\": "));
                match value {
                    FieldValue::Int(i) => args.push_str(&i.to_string()),
                    FieldValue::Str(s) => {
                        args.push('"');
                        args.push_str(&json::escape(s));
                        args.push('"');
                    }
                }
            }
            push_event(&mut out, &mut first, &format!(
                "{{\"name\": \"{}\", \"ph\": \"i\", \"pid\": 1, \"tid\": {LANE_MAIN}, \"ts\": {}, \"s\": \"t\", \"args\": {{{args}}}}}",
                e.name,
                micros(e.ts_ns),
            ));
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }

    /// Renders the machine-readable `--stats-json` twin of
    /// [`Telemetry::render_stats`]: deterministic counters, the metrics
    /// registry (the `--metrics-out` entries), and the phase spans under
    /// a versioned schema.
    pub fn render_stats_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"ddm-stats/3\",\n");
        out.push_str("  \"counters\": {");
        let counter_rows = self.counters().rows();
        for (i, (key, value)) in counter_rows.iter().enumerate() {
            out.push_str(&format!("\"{key}\": {value}"));
            if i + 1 < counter_rows.len() {
                out.push_str(", ");
            }
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"metrics\": {},\n",
            self.metrics_snapshot().render_entries()
        ));
        out.push_str("  \"spans\": [\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"lane\": {}, \"start_us\": {}, \"dur_us\": {}}}",
                json::escape(&s.name),
                s.lane,
                s.start_ns / 1_000,
                s.dur_ns / 1_000
            ));
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the human-readable `--stats` table: phase spans (lane 0
    /// nested by containment, worker lanes summarized), deterministic
    /// counters, and the metrics registry in name order (a histogram as
    /// its count and sum).
    pub fn render_stats(&self) -> String {
        let mut out = String::new();
        out.push_str("== phase spans ==\n");
        let spans = self.spans();
        // Lane 0 nests by time containment; worker lanes are summarized.
        let mut stack: Vec<u64> = Vec::new(); // end times of open ancestors
        for s in spans.iter().filter(|s| s.lane == LANE_MAIN) {
            let end = s.start_ns + s.dur_ns;
            while stack.last().is_some_and(|&pend| s.start_ns >= pend) {
                stack.pop();
            }
            let indent = "  ".repeat(stack.len());
            out.push_str(&format!(
                "{:<44} {:>12}\n",
                format!("{indent}{}", s.name),
                format_ms(s.dur_ns)
            ));
            stack.push(end);
        }
        for lane in self.lanes().into_iter().filter(|&l| l != LANE_MAIN) {
            let (count, busy): (u64, u64) = spans
                .iter()
                .filter(|s| s.lane == lane)
                .fold((0, 0), |(c, b), s| (c + 1, b + s.dur_ns));
            out.push_str(&format!(
                "{:<44} {:>12}  ({count} spans)\n",
                lane_name(lane),
                format_ms(busy)
            ));
        }
        out.push_str("== deterministic counters ==\n");
        out.push_str(&self.counters().render_table());
        out.push_str("== metrics ==\n");
        for (name, metric) in self.metrics_snapshot().iter() {
            let value = match metric {
                Metric::Counter(v) => v.to_string(),
                Metric::Gauge(v) => v.to_string(),
                Metric::Histogram(h) => format!("{} (sum {})", h.count(), h.sum()),
            };
            out.push_str(&format!("{name:<44} {value:>12}\n"));
        }
        out
    }
}

/// The registry counter the flight recorder's lost events fold into.
const EVENTS_DROPPED: &str = "events/dropped";

const POISONED: &str = "telemetry state poisoned";

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn lane_name(lane: u32) -> String {
    if lane == LANE_MAIN {
        "main".to_string()
    } else {
        format!("worker-{lane}")
    }
}

fn push_event(out: &mut String, first: &mut bool, event: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("  ");
    out.push_str(event);
}

/// Nanoseconds → microseconds with three decimals (the trace format's
/// `ts`/`dur` unit).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn format_ms(ns: u64) -> String {
    format!("{}.{:03} ms", ns / 1_000_000, (ns / 1_000) % 1_000)
}

#[derive(Debug)]
struct OpenSpan<'t> {
    inner: &'t Inner,
    name: String,
    lane: u32,
    start_ns: u64,
}

/// RAII span: created by [`Telemetry::span`], records itself on drop.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard<'t> {
    open: Option<OpenSpan<'t>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let dur_ns = elapsed_ns(open.inner.epoch).saturating_sub(open.start_ns);
            open.inner
                .collected
                .lock()
                .expect(POISONED)
                .spans
                .push(SpanRecord {
                    name: open.name,
                    lane: open.lane,
                    start_ns: open.start_ns,
                    dur_ns,
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_collects_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        {
            let _span = t.span(LANE_MAIN, || unreachable!("name must not be evaluated"));
        }
        t.add_counters(&Counters {
            scan_reads: 5,
            ..Default::default()
        });
        t.metrics(|_| unreachable!("metrics closure must not run"));
        assert_eq!(t.counters(), Counters::default());
        assert_eq!(t.stats(), ExecStats::default());
        assert!(t.metrics_snapshot().is_empty());
        assert!(t.spans().is_empty());
        assert!(t.lanes().is_empty());
    }

    #[test]
    fn spans_record_on_drop_and_sort_parent_first() {
        let t = Telemetry::enabled();
        {
            let _outer = t.span(LANE_MAIN, || "outer".into());
            let _inner = t.span(LANE_MAIN, || "inner".into());
        }
        let _worker = t.span(2, || "shard".into());
        drop(_worker);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "outer", "parent (longer) sorts first");
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[2].lane, 2);
        assert_eq!(t.lanes(), vec![LANE_MAIN, 2]);
    }

    #[test]
    fn counters_add_is_fieldwise() {
        let mut a = Counters {
            scan_reads: 2,
            union_rounds: 1,
            ..Default::default()
        };
        let b = Counters {
            scan_reads: 3,
            members_live: 7,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.scan_reads, 5);
        assert_eq!(a.union_rounds, 1);
        assert_eq!(a.members_live, 7);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_lane_names() {
        let t = Telemetry::enabled();
        drop(t.span(LANE_MAIN, || "parse".into()));
        drop(t.span(1, || "scan \"round\" 0 shard 0 (3 fns)".into()));
        let trace = t.chrome_trace_json();
        json::validate(&trace).expect("trace must be valid JSON");
        assert!(trace.contains("\"main\""));
        assert!(trace.contains("\"worker-1\""));
        assert!(trace.contains("thread_name"));
    }

    #[test]
    fn drain_resets_the_log_and_accumulates_the_dropped_counter() {
        let t = Telemetry::recording();
        for _ in 0..events::EVENT_LOG_CAP + 5 {
            t.event(EventClass::Observational, "spam", Vec::new);
        }
        let first = t.drain_events_ndjson(None);
        assert!(first.contains("\"event\":\"log_truncated\",\"count\":5"));
        assert_eq!(t.counter("events/dropped"), 5);
        t.event(EventClass::Observational, "fresh", Vec::new);
        let second = t.drain_events_ndjson(None);
        assert!(second.contains("\"event\":\"fresh\""));
        assert!(second.contains("\"seq\":0"), "sequences restart per drain");
        assert!(!second.contains("log_truncated"));
        assert_eq!(t.counter("events/dropped"), 5, "cumulative, not re-counted");
    }

    #[test]
    fn sync_events_dropped_updates_the_counter_without_clearing() {
        let t = Telemetry::recording();
        for _ in 0..events::EVENT_LOG_CAP + 2 {
            t.event(EventClass::Deterministic, "spam", Vec::new);
        }
        t.sync_events_dropped();
        assert_eq!(t.counter("events/dropped"), 2);
        assert_eq!(
            t.events().len(),
            events::EVENT_LOG_CAP,
            "sync leaves the buffered events in place"
        );
        // A second sync with no new drops must not double-count.
        t.sync_events_dropped();
        assert_eq!(t.counter("events/dropped"), 2);
    }

    #[test]
    fn stats_table_renders_all_sections() {
        let t = Telemetry::enabled();
        drop(t.span(LANE_MAIN, || "parse".into()));
        t.add_counters(&Counters {
            members_dead: 3,
            ..Default::default()
        });
        t.metrics(|m| {
            m.counter_add("cache/hits", 2);
            m.hist_record("callgraph/round_delta_fns", 3);
            m.hist_record("callgraph/round_delta_fns", 4);
        });
        let table = t.render_stats();
        for needle in [
            "phase spans",
            "deterministic counters",
            "== metrics ==",
            "members_dead",
            "parse",
        ] {
            assert!(table.contains(needle), "missing {needle:?} in:\n{table}");
        }
        let rows: Vec<&str> = table
            .split("== metrics ==\n")
            .nth(1)
            .unwrap()
            .lines()
            .collect();
        assert_eq!(rows.len(), 2, "one row per metric:\n{table}");
        assert!(rows[0].starts_with("cache/hits ") && rows[0].ends_with(" 2"));
        assert!(
            rows[1].starts_with("callgraph/round_delta_fns ") && rows[1].ends_with(" 2 (sum 7)")
        );
    }

    #[test]
    fn stats_json_embeds_the_metrics_document_entries() {
        let t = Telemetry::enabled();
        t.metrics(|m| {
            m.counter_add("frontend/tus", 3);
            m.gauge_set("link/tus", 3);
        });
        let stats = t.render_stats_json();
        json::validate(&stats).expect("stats document is valid JSON");
        assert!(stats.contains("\"schema\": \"ddm-stats/3\""));
        assert!(stats.contains(&t.metrics_snapshot().render_entries()));
        assert_eq!(
            t.stats().tu_cache_misses,
            3,
            "frontend/tus is the miss count"
        );
    }
}
