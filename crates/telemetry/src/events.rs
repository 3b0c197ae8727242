//! The pipeline flight recorder: a bounded, structured event log that
//! records every pipeline *decision with its cause* — cache probe
//! outcomes, link-layer ODR merges, fixpoint round deltas, liveness
//! union expansions, elimination decisions — so a run can be audited
//! after the fact.
//!
//! Events split along the same hard line as the rest of the telemetry
//! crate:
//!
//! * [`EventClass::Deterministic`] events describe *analysis semantics*.
//!   They are emitted only from the coordinating thread at
//!   schedule-invariant points, carry no timestamps in their NDJSON
//!   form, and their rendered stream is byte-identical across
//!   `--jobs 1..N` and cache cold/warm — the same
//!   discipline as [`Counters`](crate::Counters), extended from totals
//!   to an ordered decision trail.
//! * [`EventClass::Observational`] events describe *how this run
//!   executed* (cache hits vs. misses, temp sweeps, scan rounds). They
//!   carry timestamps and are never compared across configurations.
//!
//! The log is bounded per class ([`EVENT_LOG_CAP`]): once a class's
//! buffer is full, further events of that class are counted, not
//! stored, and the rendered stream ends with a `log_truncated`
//! record carrying the lost count. Bounding per class keeps the
//! deterministic stream's truncation point itself deterministic —
//! observational traffic can never push a deterministic event out of
//! the log. Long-running consumers (`ddm serve`) drain the log once
//! per epoch via [`EventLog::clear`], so the bound applies per epoch,
//! not per process lifetime.

use crate::json;

/// Which determinism contract an event is under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Semantic decision: byte-identical across jobs × cache states for
    /// the same input and configuration.
    Deterministic,
    /// Execution shape: timings, cache luck, scheduling. Never asserted
    /// for cross-configuration equality.
    Observational,
}

impl EventClass {
    /// The short tag used in NDJSON (`"det"` / `"obs"`).
    pub fn tag(self) -> &'static str {
        match self {
            EventClass::Deterministic => "det",
            EventClass::Observational => "obs",
        }
    }
}

/// One structured field value. Events carry integers and short strings
/// only; anything bigger belongs in a report, not the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An integer field.
    Int(i64),
    /// A string field (escaped on render).
    Str(String),
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::Int(v)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::Int(i64::from(v))
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// The field list of one event, in emission order.
pub type Fields = Vec<(&'static str, FieldValue)>;

/// One recorded pipeline decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Determinism contract.
    pub class: EventClass,
    /// Event name, e.g. `"cg_round"` or `"tu_cache_hit"`.
    pub name: &'static str,
    /// Per-class sequence number, starting at 0.
    pub seq: u64,
    /// Nanoseconds since the telemetry epoch. Recorded for every event
    /// (the trace exporter places instants with it) but rendered into
    /// NDJSON only for observational events — deterministic lines must
    /// not vary with the clock.
    pub ts_ns: u64,
    /// Structured cause/effect fields, in emission order.
    pub fields: Fields,
}

impl Event {
    /// Renders the event as one NDJSON line (no trailing newline).
    pub fn ndjson_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str(&format!(
            "{{\"class\":\"{}\",\"seq\":{},\"event\":\"{}\"",
            self.class.tag(),
            self.seq,
            self.name
        ));
        if self.class == EventClass::Observational {
            out.push_str(&format!(",\"ts_us\":{}", self.ts_ns / 1_000));
        }
        for (key, value) in &self.fields {
            out.push_str(&format!(",\"{key}\":"));
            match value {
                FieldValue::Int(i) => out.push_str(&i.to_string()),
                FieldValue::Str(s) => {
                    out.push('"');
                    out.push_str(&json::escape(s));
                    out.push('"');
                }
            }
        }
        out.push('}');
        out
    }
}

/// Per-class capacity of the flight recorder. Past this many events of
/// one class, further events of that class are dropped (and counted).
pub const EVENT_LOG_CAP: usize = 1 << 16;

/// The bounded two-class event buffer.
#[derive(Debug, Default)]
pub struct EventLog {
    det: Vec<Event>,
    obs: Vec<Event>,
    det_dropped: u64,
    obs_dropped: u64,
}

impl EventLog {
    /// Appends one event, or counts it as dropped when its class's
    /// buffer is at capacity.
    pub fn push(&mut self, class: EventClass, name: &'static str, ts_ns: u64, fields: Fields) {
        let (buf, dropped) = match class {
            EventClass::Deterministic => (&mut self.det, &mut self.det_dropped),
            EventClass::Observational => (&mut self.obs, &mut self.obs_dropped),
        };
        if buf.len() >= EVENT_LOG_CAP {
            *dropped += 1;
            return;
        }
        let seq = buf.len() as u64;
        buf.push(Event {
            class,
            name,
            seq,
            ts_ns,
            fields,
        });
    }

    /// Events of one class, in emission order.
    pub fn of_class(&self, class: EventClass) -> &[Event] {
        match class {
            EventClass::Deterministic => &self.det,
            EventClass::Observational => &self.obs,
        }
    }

    /// Dropped-event count for one class.
    pub fn dropped(&self, class: EventClass) -> u64 {
        match class {
            EventClass::Deterministic => self.det_dropped,
            EventClass::Observational => self.obs_dropped,
        }
    }

    /// All events: the deterministic stream first (its order is part of
    /// the contract), then the observational stream.
    pub fn all(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.det.len() + self.obs.len());
        out.extend(self.det.iter().cloned());
        out.extend(self.obs.iter().cloned());
        out
    }

    /// Renders the selected classes as NDJSON: one event per line, the
    /// deterministic stream first, a final `log_truncated` line per
    /// truncated class (carrying the lost-event count) so truncation is
    /// never silent. `filter = None` renders both classes.
    pub fn render_ndjson(&self, filter: Option<EventClass>) -> String {
        let mut out = String::new();
        for class in [EventClass::Deterministic, EventClass::Observational] {
            if filter.is_some_and(|f| f != class) {
                continue;
            }
            for event in self.of_class(class) {
                out.push_str(&event.ndjson_line());
                out.push('\n');
            }
            let dropped = self.dropped(class);
            if dropped > 0 {
                out.push_str(&format!(
                    "{{\"class\":\"{}\",\"event\":\"log_truncated\",\"count\":{dropped}}}\n",
                    class.tag()
                ));
            }
        }
        out
    }

    /// Total dropped events across both classes.
    pub fn total_dropped(&self) -> u64 {
        self.det_dropped + self.obs_dropped
    }

    /// Zeroes the dropped-event counters (the caller has accounted for
    /// them, e.g. folded them into a stat).
    pub fn reset_dropped(&mut self) {
        self.det_dropped = 0;
        self.obs_dropped = 0;
    }

    /// Empties both buffers and resets the dropped counters, so the next
    /// push starts a fresh log with per-class sequence numbers from 0.
    /// Used by per-epoch draining: render, then clear.
    pub fn clear(&mut self) {
        self.det.clear();
        self.obs.clear();
        self.reset_dropped();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_lines_are_valid_json_and_class_tagged() {
        let mut log = EventLog::default();
        log.push(
            EventClass::Deterministic,
            "cg_round",
            123,
            vec![("round", 0u64.into()), ("delta_fns", 7u64.into())],
        );
        log.push(
            EventClass::Observational,
            "tu_cache_hit",
            456,
            vec![("file", "a \"b\".cpp".into())],
        );
        let text = log.render_ndjson(None);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            json::validate(line).expect("each NDJSON line is valid JSON");
        }
        assert!(lines[0].contains("\"class\":\"det\""), "{}", lines[0]);
        assert!(!lines[0].contains("ts_us"), "det lines carry no clock");
        assert!(lines[1].contains("\"ts_us\":0"), "{}", lines[1]);
    }

    #[test]
    fn filter_selects_one_class() {
        let mut log = EventLog::default();
        log.push(EventClass::Deterministic, "a", 0, Vec::new());
        log.push(EventClass::Observational, "b", 0, Vec::new());
        let det = log.render_ndjson(Some(EventClass::Deterministic));
        assert!(det.contains("\"a\"") && !det.contains("\"b\""));
        let obs = log.render_ndjson(Some(EventClass::Observational));
        assert!(obs.contains("\"b\"") && !obs.contains("\"a\""));
    }

    #[test]
    fn per_class_bound_drops_and_reports() {
        let mut log = EventLog::default();
        for _ in 0..EVENT_LOG_CAP + 3 {
            log.push(EventClass::Observational, "spam", 0, Vec::new());
        }
        log.push(EventClass::Deterministic, "kept", 0, Vec::new());
        assert_eq!(log.of_class(EventClass::Observational).len(), EVENT_LOG_CAP);
        assert_eq!(log.dropped(EventClass::Observational), 3);
        assert_eq!(log.of_class(EventClass::Deterministic).len(), 1);
        let text = log.render_ndjson(None);
        assert!(text.contains("\"event\":\"log_truncated\",\"count\":3"));
        assert_eq!(log.total_dropped(), 3);
    }

    #[test]
    fn clear_resets_buffers_dropped_counts_and_sequences() {
        let mut log = EventLog::default();
        for _ in 0..EVENT_LOG_CAP + 2 {
            log.push(EventClass::Observational, "spam", 0, Vec::new());
        }
        log.push(EventClass::Deterministic, "kept", 0, Vec::new());
        log.clear();
        assert_eq!(log.of_class(EventClass::Observational).len(), 0);
        assert_eq!(log.of_class(EventClass::Deterministic).len(), 0);
        assert_eq!(log.total_dropped(), 0);
        log.push(EventClass::Observational, "fresh", 0, Vec::new());
        assert_eq!(log.of_class(EventClass::Observational)[0].seq, 0);
        assert!(!log.render_ndjson(None).contains("log_truncated"));
    }

    #[test]
    fn sequence_numbers_are_per_class() {
        let mut log = EventLog::default();
        log.push(EventClass::Deterministic, "d0", 0, Vec::new());
        log.push(EventClass::Observational, "o0", 0, Vec::new());
        log.push(EventClass::Deterministic, "d1", 0, Vec::new());
        assert_eq!(log.of_class(EventClass::Deterministic)[1].seq, 1);
        assert_eq!(log.of_class(EventClass::Observational)[0].seq, 0);
    }
}
