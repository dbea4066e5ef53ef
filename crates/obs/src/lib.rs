//! # `apc-obs` — wait-free observability primitives
//!
//! Hand-rolled, offline Prometheus-style metrics for a system whose whole
//! point is **asymmetric progress guarantees**: a scrape that touched a
//! consensus log or a blocking primitive would let a dashboard poller
//! steal progress from wait-free VIP clients, so every record and read
//! path here is a bounded number of the caller's own atomic steps — no
//! locks, no channels, no retry loops whose length depends on other
//! threads.
//!
//! Three instrument kinds, mirroring the Prometheus data model:
//!
//! * [`Counter`] — a monotone event count (one `fetch_add`);
//! * [`Gauge`] — a last-write-wins level (one `store`);
//! * [`FixedHistogram`] — a fixed-bucket distribution: the bucket bounds
//!   are chosen at construction time, so an [`FixedHistogram::observe`]
//!   is a bounded scan over a compile-time-small bounds slice plus three
//!   `fetch_add`s. No resizing, no quantile sketch, no allocation on the
//!   record path.
//!
//! An instrument with one writer records through `&mut self` instead
//! ([`Counter::inc_mut`], [`Counter::add_mut`],
//! [`FixedHistogram::observe_mut`]): plain adds through
//! `AtomicU64::get_mut`, no lock-prefixed instruction. The borrow checker
//! is what proves the writer alone: no scrape can hold `&self` while the
//! owner holds `&mut self`, and a scrape after it reads the same atomics.
//!
//! Reads ([`Counter::get`], [`FixedHistogram::snapshot`], …) are equally
//! wait-free and *torn-tolerant by design*: a snapshot taken while writers
//! are racing may observe bucket counts from slightly different instants
//! (each component is individually monotone), exactly like any live
//! Prometheus scrape. Nothing here ever blocks a writer to get a
//! consistent cut, and the store's own per-shard series are no cut either:
//! they are read one port's two digest words at a time
//! (`Store::snapshot_stats`), each port's cursor monotone on its own.
//!
//! [`MetricsSnapshot`] is the scrape output — a flat list of [`Sample`]s —
//! and [`encode_prometheus`] renders it in the Prometheus text exposition
//! format, which `apc-net`'s `GET /metrics` side door serves.
//!
//! Every fn on the record/read path is annotated `#[progress(wait_free)]`
//! and the workspace's `apc-lint --deny` gate mechanically proves none of
//! them reaches a blocking primitive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use apc_progress_macros::progress;

/// A monotone event counter (Prometheus `counter`).
///
/// # Examples
///
/// ```
/// use apc_obs::Counter;
/// let c = Counter::new();
/// c.inc();
/// c.add(2);
/// assert_eq!(c.get(), 3);
/// ```
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    /// Adds one event: a single `fetch_add`.
    #[progress(wait_free)]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` events: a single `fetch_add`.
    #[progress(wait_free)]
    pub fn add(&self, n: u64) {
        // RELAXED: monotone event counter — scrapes need atomicity, not
        // cross-thread ordering against the events being counted.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event through the counter's one owner: no atomic
    /// read-modify-write, because `&mut self` proves no other thread can
    /// touch the count until the borrow ends.
    ///
    /// # Examples
    ///
    /// ```
    /// use apc_obs::Counter;
    /// let mut c = Counter::new();
    /// c.inc_mut();
    /// c.add_mut(2);
    /// assert_eq!(c.get(), 3);
    /// ```
    #[progress(wait_free)]
    pub fn inc_mut(&mut self) {
        self.add_mut(1);
    }

    /// Adds `n` events through the counter's one owner: a plain add (see
    /// [`Counter::inc_mut`]).
    #[progress(wait_free)]
    pub fn add_mut(&mut self, n: u64) {
        add_owned(&mut self.value, n);
    }

    /// The current count: a single atomic load.
    #[progress(wait_free)]
    pub fn get(&self) -> u64 {
        // RELAXED: reading a monotone counter; no ordering obligations.
        AtomicU64::load(&self.value, Ordering::Relaxed)
    }
}

/// Adds `n` to an atomic its caller owns: a plain wrapping add, where a
/// shared writer's `fetch_add` would wrap too.
#[progress(wait_free)]
fn add_owned(cell: &mut AtomicU64, n: u64) {
    let value = cell.get_mut();
    *value = value.wrapping_add(n);
}

/// A last-write-wins level (Prometheus `gauge`).
///
/// # Examples
///
/// ```
/// use apc_obs::Gauge;
/// let g = Gauge::new();
/// g.set(7);
/// assert_eq!(g.get(), 7);
/// ```
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge { value: AtomicU64::new(0) }
    }

    /// Sets the level: a single atomic store.
    #[progress(wait_free)]
    pub fn set(&self, v: u64) {
        // RELAXED: last-write-wins level; scrapes read whatever the most
        // recent publication was, no ordering obligations.
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current level: a single atomic load.
    #[progress(wait_free)]
    pub fn get(&self) -> u64 {
        // RELAXED: see `set`.
        AtomicU64::load(&self.value, Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram (Prometheus `histogram`).
///
/// Bucket upper bounds are fixed at construction, so the record path is a
/// bounded scan over a small slice plus three `fetch_add`s — wait-free by
/// construction, never an allocation. Values above the last bound land in
/// the implicit `+Inf` bucket.
///
/// # Examples
///
/// ```
/// use apc_obs::FixedHistogram;
/// let h = FixedHistogram::new(&[10, 100]);
/// h.observe(5);
/// h.observe(50);
/// h.observe(5000); // +Inf bucket
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 3);
/// assert_eq!(snap.sum, 5055);
/// assert_eq!(snap.buckets, vec![1, 1, 1]);
/// ```
#[derive(Debug)]
pub struct FixedHistogram {
    /// Strictly increasing upper bounds; the `+Inf` bucket is implicit.
    bounds: Vec<u64>,
    /// One slot per bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl FixedHistogram {
    /// A histogram over `bounds` (strictly increasing upper bucket
    /// bounds; the `+Inf` bucket is added implicitly).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly increasing (a construction-time
    /// configuration error, never a runtime one).
    pub fn new(bounds: &[u64]) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram bounds must strictly increase");
        FixedHistogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation: a bounded bounds scan + three `fetch_add`s.
    #[progress(wait_free)]
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        // RELAXED: monotone histogram components; a scrape may see the three
        // updates at slightly different instants (torn-tolerant by design,
        // like any live Prometheus scrape) — monotonicity is all it needs.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // RELAXED: see above.
        self.sum.fetch_add(v, Ordering::Relaxed);
        // RELAXED: see above.
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation through the histogram's one owner: the same
    /// bounds scan, then three plain adds, because `&mut self` proves no
    /// other thread can touch the buckets until the borrow ends.
    ///
    /// # Examples
    ///
    /// ```
    /// use apc_obs::FixedHistogram;
    /// let mut h = FixedHistogram::new(&[10, 100]);
    /// h.observe_mut(5);
    /// h.observe_mut(5000); // +Inf bucket
    /// let snap = h.snapshot();
    /// assert_eq!((snap.count, snap.sum), (2, 5005));
    /// assert_eq!(snap.buckets, vec![1, 0, 1]);
    /// ```
    #[progress(wait_free)]
    pub fn observe_mut(&mut self, v: u64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        add_owned(&mut self.buckets[idx], 1);
        add_owned(&mut self.sum, v);
        add_owned(&mut self.count, 1);
    }

    /// The configured bucket upper bounds (exclusive of the implicit
    /// `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// A point-in-time read of every component (individually monotone;
    /// the cut across components is not atomic — see the module docs).
    #[progress(wait_free)]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            // RELAXED: reading monotone components; no ordering needed.
            buckets: self.buckets.iter().map(|b| AtomicU64::load(b, Ordering::Relaxed)).collect(),
            // RELAXED: see above.
            sum: AtomicU64::load(&self.sum, Ordering::Relaxed),
            // RELAXED: see above.
            count: AtomicU64::load(&self.count, Ordering::Relaxed),
        }
    }
}

/// The frozen state of a [`FixedHistogram`] at scrape time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bounds, one per non-`+Inf` bucket.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` slots; the last
    /// is the `+Inf` overflow bucket). **Not** cumulative — the encoder
    /// accumulates for the Prometheus `le` convention.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

/// The value of one exported sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// A monotone count.
    Counter(u64),
    /// A last-write-wins level.
    Gauge(u64),
    /// A bucketed distribution.
    Histogram(HistogramSnapshot),
}

/// One exported series sample: a metric name, its label set, and a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Metric name (Prometheus conventions: `snake_case`, unit-suffixed).
    pub name: &'static str,
    /// One-line help text for the `# HELP` exposition line.
    pub help: &'static str,
    /// Label pairs, e.g. `[("tier", "vip".into())]`.
    pub labels: Vec<(&'static str, String)>,
    /// The sampled value.
    pub value: SampleValue,
}

/// A scrape result: a flat list of samples, ready for
/// [`encode_prometheus`].
///
/// # Examples
///
/// ```
/// use apc_obs::{encode_prometheus, MetricsSnapshot, Sample, SampleValue};
/// let snap = MetricsSnapshot {
///     samples: vec![Sample {
///         name: "requests_total",
///         help: "Requests served.",
///         labels: vec![("tier", "vip".into())],
///         value: SampleValue::Counter(3),
///     }],
/// };
/// let text = encode_prometheus(&snap);
/// assert!(text.contains("requests_total{tier=\"vip\"} 3"));
/// assert_eq!(snap.value("requests_total", &[("tier", "vip")]), Some(3));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All samples, in export order.
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// Appends every sample of `other` (for composing scrapes from
    /// several sources, e.g. a store and its persister).
    #[progress(wait_free)]
    pub fn merge(&mut self, other: MetricsSnapshot) {
        self.samples.extend(other.samples);
    }

    /// Looks up the scalar value of the sample named `name` whose label
    /// set contains every pair in `labels` (counter and gauge samples
    /// only; histograms answer `None`). The first match wins.
    #[progress(wait_free)]
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .find(|s| {
                labels.iter().all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .and_then(|s| match &s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => Some(*v),
                SampleValue::Histogram(_) => None,
            })
    }

    /// Looks up the histogram sample named `name` whose label set
    /// contains every pair in `labels`.
    #[progress(wait_free)]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .find(|s| {
                labels.iter().all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .and_then(|s| match &s.value {
                SampleValue::Histogram(h) => Some(h),
                _ => None,
            })
    }
}

/// Renders a label set as `{k="v",…}` (empty string for no labels), with
/// Prometheus text-format escaping of label values.
fn encode_labels(out: &mut String, labels: &[(&'static str, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels.iter().map(|(k, v)| (*k, v.as_str())).chain(extra) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
}

/// Encodes a scrape in the Prometheus text exposition format.
///
/// Samples sharing a name are grouped under one `# HELP`/`# TYPE` header
/// (first occurrence's order and help text win); histograms expand into
/// the conventional cumulative `_bucket{le=…}` series plus `_sum` and
/// `_count`.
#[progress(wait_free)]
pub fn encode_prometheus(snap: &MetricsSnapshot) -> String {
    // Group by name in first-seen order.
    let mut order: Vec<&'static str> = Vec::new();
    for s in &snap.samples {
        if !order.contains(&s.name) {
            order.push(s.name);
        }
    }
    let mut out = String::new();
    for name in order {
        let group: Vec<&Sample> = snap.samples.iter().filter(|s| s.name == name).collect();
        let first = match group.first() {
            Some(f) => f,
            None => continue,
        };
        let kind = match first.value {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram(_) => "histogram",
        };
        let _ = writeln!(out, "# HELP {name} {}", first.help);
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for s in group {
            match &s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    out.push_str(name);
                    encode_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {v}");
                }
                SampleValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, &bucket) in h.buckets.iter().enumerate() {
                        cumulative += bucket;
                        let le = match h.bounds.get(i) {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_string(),
                        };
                        let _ = write!(out, "{name}_bucket");
                        encode_labels(&mut out, &s.labels, Some(("le", &le)));
                        let _ = writeln!(out, " {cumulative}");
                    }
                    let _ = write!(out, "{name}_sum");
                    encode_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {}", h.sum);
                    let _ = write!(out, "{name}_count");
                    encode_labels(&mut out, &s.labels, None);
                    let _ = writeln!(out, " {}", h.count);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
        let g = Gauge::new();
        g.set(42);
        assert_eq!(g.get(), 42);
        g.set(7);
        assert_eq!(g.get(), 7, "gauges are last-write-wins, not monotone");
    }

    #[test]
    fn counter_is_exact_under_contention() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let h = FixedHistogram::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 100, 101, 1000, 1001, 9999] {
            h.observe(v);
        }
        let snap = h.snapshot();
        // ≤10: {1,10}; ≤100: {11,100}; ≤1000: {101,1000}; +Inf: {1001,9999}.
        assert_eq!(snap.buckets, vec![2, 2, 2, 2]);
        assert_eq!(snap.count, 8);
        assert_eq!(snap.sum, 1 + 10 + 11 + 100 + 101 + 1000 + 1001 + 9999);
    }

    #[test]
    fn histogram_is_exact_under_contention() {
        let h = FixedHistogram::new(&[8]);
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..500 {
                        h.observe(if (t + i) % 2 == 0 { 1 } else { 100 });
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 2000);
        assert_eq!(snap.buckets[0] + snap.buckets[1], 2000);
        assert_eq!(snap.buckets[0], 1000);
    }

    /// An owned writer and a shared one leave the same state: the scrape
    /// cannot tell which recorded.
    #[test]
    fn owned_writes_read_as_shared_ones() {
        let (shared, mut owned) = (Counter::new(), Counter::new());
        let (hs, mut ho) = (FixedHistogram::new(&[10, 100]), FixedHistogram::new(&[10, 100]));
        for v in [0, 10, 11, 100, 101, u64::MAX] {
            shared.add(v);
            owned.add_mut(v);
            shared.inc();
            owned.inc_mut();
            hs.observe(v);
            ho.observe_mut(v);
        }
        assert_eq!(owned.get(), shared.get());
        assert_eq!(ho.snapshot(), hs.snapshot());
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = FixedHistogram::new(&[10, 10]);
    }

    #[test]
    fn encode_groups_types_and_accumulates_buckets() {
        let h = FixedHistogram::new(&[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        let snap = MetricsSnapshot {
            samples: vec![
                Sample {
                    name: "x_total",
                    help: "Events.",
                    labels: vec![("tier", "vip".into())],
                    value: SampleValue::Counter(3),
                },
                Sample {
                    name: "x_total",
                    help: "Events.",
                    labels: vec![("tier", "guest".into())],
                    value: SampleValue::Counter(4),
                },
                Sample {
                    name: "lat_ns",
                    help: "Latency.",
                    labels: Vec::new(),
                    value: SampleValue::Histogram(h.snapshot()),
                },
            ],
        };
        let text = encode_prometheus(&snap);
        assert_eq!(text.matches("# TYPE x_total counter").count(), 1, "one header per name");
        assert!(text.contains("x_total{tier=\"vip\"} 3"));
        assert!(text.contains("x_total{tier=\"guest\"} 4"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"100\"} 2"), "buckets are cumulative");
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ns_sum 555"));
        assert!(text.contains("lat_ns_count 3"));
    }

    #[test]
    fn encode_escapes_label_values() {
        let snap = MetricsSnapshot {
            samples: vec![Sample {
                name: "m",
                help: "h",
                labels: vec![("k", "a\"b\\c\nd".into())],
                value: SampleValue::Gauge(1),
            }],
        };
        let text = encode_prometheus(&snap);
        assert!(text.contains(r#"m{k="a\"b\\c\nd"} 1"#), "got: {text}");
    }

    #[test]
    fn snapshot_lookup_and_merge() {
        let mut a = MetricsSnapshot {
            samples: vec![Sample {
                name: "n",
                help: "h",
                labels: vec![("shard", "0".into())],
                value: SampleValue::Counter(5),
            }],
        };
        let b = MetricsSnapshot {
            samples: vec![Sample {
                name: "n",
                help: "h",
                labels: vec![("shard", "1".into())],
                value: SampleValue::Gauge(9),
            }],
        };
        a.merge(b);
        assert_eq!(a.value("n", &[("shard", "0")]), Some(5));
        assert_eq!(a.value("n", &[("shard", "1")]), Some(9));
        assert_eq!(a.value("n", &[("shard", "2")]), None);
        assert_eq!(a.value("missing", &[]), None);
    }
}
