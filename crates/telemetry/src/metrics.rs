//! Typed metrics registry: counters, gauges, and fixed-bound
//! histograms, exported under a versioned JSON schema (`--metrics-out`).
//!
//! Histogram buckets use **fixed power-of-two bounds**: bucket 0 holds
//! the value 0, bucket *k* (k ≥ 1) holds values in `[2^(k-1), 2^k)`.
//! Because the bounds never depend on the data, the bucket *counts* of
//! deterministic quantities — fixpoint round delta sizes, dispatch
//! candidate-set sizes — are themselves deterministic across jobs ×
//! cache states, so tests can assert them the same way they assert
//! [`Counters`](crate::Counters). A quantile sketch or data-dependent
//! bucketing would destroy that property.
//!
//! Metric names are `phase/quantity` paths (`callgraph/round_delta_fns`,
//! `frontend/decls`); each histogram aggregates over the phase's
//! per-round observations. The registry renders in sorted name order,
//! so equal registries render byte-identically.

use std::collections::BTreeMap;

/// Number of power-of-two buckets: {0} plus one per bit of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for `v`: 0 for 0, otherwise the bit length of `v`
/// (so bucket `k` covers `[2^(k-1), 2^k)`).
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// A fixed-bound power-of-two histogram (see the module docs for the
/// bucket rule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    total: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            total: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `(bucket index, count)` pairs of non-empty buckets,
    /// ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (k, c))
            .collect()
    }

    /// Rebuilds a histogram from its [`Histogram::nonzero_buckets`],
    /// [`Histogram::count`] and [`Histogram::sum`] (the analysis snapshot
    /// stores dispatch histograms this way).
    ///
    /// # Errors
    ///
    /// Rejects out-of-range bucket indices, counts that overflow, and a
    /// `count` that disagrees with the bucket counts, so a corrupt
    /// snapshot cannot smuggle in an inconsistent distribution.
    pub fn from_parts(
        buckets: &[(usize, u64)],
        count: u64,
        sum: u64,
    ) -> Result<Histogram, String> {
        let mut h = Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            total: count,
            sum,
        };
        let mut total = 0u64;
        let overflow = || "histogram bucket counts overflow".to_string();
        for &(k, c) in buckets {
            if k >= HISTOGRAM_BUCKETS {
                return Err(format!("histogram bucket {k} out of range"));
            }
            h.counts[k] = h.counts[k].checked_add(c).ok_or_else(overflow)?;
            total = total.checked_add(c).ok_or_else(overflow)?;
        }
        if total != count {
            return Err(format!(
                "histogram bucket counts sum to {total}, expected {count}"
            ));
        }
        Ok(h)
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    /// Monotone count.
    Counter(u64),
    /// Last-write-wins level.
    Gauge(i64),
    /// Fixed-bound distribution.
    Histogram(Histogram),
}

/// The registry: metric name → metric, rendered in sorted name order.
///
/// A name is looked up before it is allocated, so recording into a
/// metric that already exists allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

/// The schema tag written into every metrics document.
pub const METRICS_SCHEMA: &str = "ddm-metrics/2";

impl MetricsRegistry {
    /// The metric `name`, created as `init()` on first use.
    fn slot(&mut self, name: &str, init: fn() -> Metric) -> &mut Metric {
        if !self.metrics.contains_key(name) {
            self.metrics.insert(name.to_string(), init());
        }
        self.metrics
            .get_mut(name)
            .expect("the metric was just registered")
    }

    /// Adds `delta` to the counter `name` (created at 0).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.slot(name, || Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Sets the gauge `name`.
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        match self.slot(name, || Metric::Gauge(0)) {
            Metric::Gauge(v) => *v = value,
            other => panic!("metric {name} is not a gauge: {other:?}"),
        }
    }

    /// Records one observation into the histogram `name`.
    pub fn hist_record(&mut self, name: &str, value: u64) {
        match self.slot(name, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h.record(value),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// Merges a pre-aggregated histogram into the histogram `name`.
    pub fn hist_merge(&mut self, name: &str, hist: &Histogram) {
        match self.slot(name, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h.merge(hist),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The registered metrics, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Looks up one metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// The value of the counter `name`: 0 when nothing recorded it.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Renders the registry as a versioned JSON document. Histogram
    /// buckets are emitted as `(bucket index, count)` pairs — the bound
    /// rule is fixed by the schema (`"bucket_bounds": "pow2"`), so no
    /// bucket boundary ever appears as a (potentially 64-bit) number.
    pub fn render_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"{METRICS_SCHEMA}\",\n  \"metrics\": {}\n}}\n",
            self.render_entries()
        )
    }

    /// The document's `metrics` array, one object per metric in name
    /// order; `--stats-json` embeds the same array.
    pub fn render_entries(&self) -> String {
        let mut out = String::from("[\n");
        let total = self.metrics.len();
        for (i, (name, metric)) in self.metrics.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", ",
                crate::json::escape(name)
            ));
            match metric {
                Metric::Counter(v) => {
                    out.push_str(&format!("\"type\": \"counter\", \"value\": {v}}}"));
                }
                Metric::Gauge(v) => {
                    out.push_str(&format!("\"type\": \"gauge\", \"value\": {v}}}"));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "\"type\": \"histogram\", \"bucket_bounds\": \"pow2\", \"count\": {}, \"sum\": {}, \"buckets\": [",
                        h.count(),
                        h.sum()
                    ));
                    let buckets = h.nonzero_buckets();
                    for (j, (k, c)) in buckets.iter().enumerate() {
                        out.push_str(&format!("{{\"bucket\": {k}, \"count\": {c}}}"));
                        if j + 1 < buckets.len() {
                            out.push_str(", ");
                        }
                    }
                    out.push_str("]}");
                }
            }
            out.push_str(if i + 1 < total { ",\n" } else { "\n" });
        }
        out.push_str("  ]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_rule_is_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_counts_and_merges() {
        let mut a = Histogram::default();
        for v in [0, 1, 3, 8] {
            a.record(v);
        }
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 12);
        assert_eq!(a.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 1), (4, 1)]);
        let mut b = Histogram::default();
        b.record(3);
        a.merge(&b);
        assert_eq!(a.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (4, 1)]);
    }

    #[test]
    fn from_parts_rejects_inconsistent_or_overflowing_buckets() {
        let mut h = Histogram::default();
        h.record(3);
        h.record(900);
        let back = Histogram::from_parts(&h.nonzero_buckets(), h.count(), h.sum());
        assert_eq!(back, Ok(h));
        for (buckets, count) in [
            (vec![(HISTOGRAM_BUCKETS, 1)], 1),
            (vec![(1, 2)], 1),
            (vec![(1, u64::MAX), (2, 1)], 0),
            (vec![(1, u64::MAX), (1, 1)], 0),
        ] {
            assert!(Histogram::from_parts(&buckets, count, 0).is_err(), "{buckets:?}");
        }
    }

    #[test]
    fn registry_renders_valid_sorted_json() {
        let mut r = MetricsRegistry::default();
        r.hist_record("callgraph/round_delta_fns", 3);
        r.counter_add("liveness/scan_reads", 9);
        r.gauge_set("run/jobs", 8);
        let doc = r.render_json();
        crate::json::validate(&doc).expect("metrics document is valid JSON");
        let cg = doc.find("callgraph/round_delta_fns").unwrap();
        let scan = doc.find("liveness/scan_reads").unwrap();
        let jobs = doc.find("run/jobs").unwrap();
        assert!(cg < scan && scan < jobs, "metrics render in name order");
        assert!(doc.contains(METRICS_SCHEMA));
        assert!(doc.contains("\"bucket_bounds\": \"pow2\""));
    }

    #[test]
    fn equal_registries_render_byte_identically() {
        let build = || {
            let mut r = MetricsRegistry::default();
            r.hist_record("a/h", 5);
            r.hist_record("a/h", 0);
            r.counter_add("b/c", 2);
            r
        };
        assert_eq!(build().render_json(), build().render_json());
    }
}
