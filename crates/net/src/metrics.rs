//! Wire-path observability: the `store_net_*` metric family.
//!
//! Mirrors the store's own metrics layer: wait-free recording on the hot
//! path (counters and a fixed-bound histogram — no locks, no allocation),
//! with scraping kept off to the side. Every per-tier series is split into
//! its own `vip`/`guest` instrument pair so the recording path never
//! formats a label; labels are attached only at scrape time.
//!
//! The reactor is the one writer: every `record_*` method takes `&mut
//! self` and is crate-private, so the borrow checker, not a convention,
//! keeps any other thread from recording, and a record is a plain add
//! through the owned-writer methods of [`apc_obs`] — no lock-prefixed
//! instruction on the reactor's thread. A scrape (`&self`) reads the same
//! atomics between the reactor's turns.

use apc_obs::{Counter, FixedHistogram, Gauge, MetricsSnapshot, Sample, SampleValue};
use apc_progress_macros::progress;

/// Bucket bounds for request round-trip latency, in nanoseconds: powers
/// of four from 1 µs to 64 ms (matching the store's commit-latency
/// histogram so tier comparisons line up bucket-for-bucket).
pub const NET_LATENCY_NS_BOUNDS: [u64; 9] =
    [1_000, 4_000, 16_000, 64_000, 256_000, 1_024_000, 4_096_000, 16_384_000, 65_536_000];

/// Bucket bounds for batched-dispatch size: how many guest envelopes one
/// coalesced store commit carried. Powers of two up to the reactor's
/// plausible per-turn drain.
pub const BATCH_ENVELOPES_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Per-tier instrument bundle.
#[derive(Debug)]
struct TierMetrics {
    conns_accepted: Counter,
    conns_denied: Counter,
    requests: Counter,
    ops: Counter,
    shed: Counter,
    deadline_shed: Counter,
    latency_ns: FixedHistogram,
}

impl TierMetrics {
    fn new() -> Self {
        Self {
            conns_accepted: Counter::new(),
            conns_denied: Counter::new(),
            requests: Counter::new(),
            ops: Counter::new(),
            shed: Counter::new(),
            deadline_shed: Counter::new(),
            latency_ns: FixedHistogram::new(&NET_LATENCY_NS_BOUNDS),
        }
    }
}

/// Wait-free instruments for the wire front-end.
///
/// One instance lives inside each
/// [`StoreServer`](crate::reactor::StoreServer); scrape through
/// [`NetMetrics::scrape`] or the server's `GET /metrics` endpoint.
#[derive(Debug)]
pub struct NetMetrics {
    vip: TierMetrics,
    guest: TierMetrics,
    conns_open: Gauge,
    conns_closed: Counter,
    codec_errors: Counter,
    frames_in: Counter,
    frames_out: Counter,
    http_hits: Counter,
    batch_dispatches: Counter,
    batch_envelopes: FixedHistogram,
    guest_queue_depth: Gauge,
}

impl Default for NetMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl NetMetrics {
    /// Creates a zeroed instrument set.
    pub fn new() -> Self {
        Self {
            vip: TierMetrics::new(),
            guest: TierMetrics::new(),
            conns_open: Gauge::new(),
            conns_closed: Counter::new(),
            codec_errors: Counter::new(),
            frames_in: Counter::new(),
            frames_out: Counter::new(),
            http_hits: Counter::new(),
            batch_dispatches: Counter::new(),
            batch_envelopes: FixedHistogram::new(&BATCH_ENVELOPES_BOUNDS),
            guest_queue_depth: Gauge::new(),
        }
    }

    fn tier(&mut self, vip: bool) -> &mut TierMetrics {
        if vip {
            &mut self.vip
        } else {
            &mut self.guest
        }
    }

    /// Records an accepted handshake on the given tier.
    #[progress(wait_free)]
    pub(crate) fn record_accept(&mut self, vip: bool) {
        self.tier(vip).conns_accepted.inc_mut();
        self.conns_open.set(self.conns_open.get() + 1);
    }

    /// Records a denied handshake (bad credential / over-capacity).
    #[progress(wait_free)]
    pub(crate) fn record_deny(&mut self, vip: bool) {
        self.tier(vip).conns_denied.inc_mut();
    }

    /// Records a connection teardown.
    #[progress(wait_free)]
    pub(crate) fn record_close(&mut self) {
        self.conns_closed.inc_mut();
        self.conns_open.set(self.conns_open.get().saturating_sub(1));
    }

    /// Records a served request: its op count and round-trip latency.
    #[progress(wait_free)]
    pub(crate) fn record_request(&mut self, vip: bool, ops: u64, latency_ns: u64) {
        let tier = self.tier(vip);
        tier.requests.inc_mut();
        tier.ops.add_mut(ops);
        tier.latency_ns.observe_mut(latency_ns);
    }

    /// Records a request shed by backpressure (typed 429, never served).
    #[progress(wait_free)]
    pub(crate) fn record_shed(&mut self, vip: bool) {
        self.tier(vip).shed.inc_mut();
    }

    /// Records a request shed because its deadline expired before
    /// dispatch (typed [`DeadlineExceeded`](apc_store::StoreError), never
    /// served). The `vip` series exists only to prove it stays zero: VIP
    /// frames are never shed.
    #[progress(wait_free)]
    pub(crate) fn record_deadline_shed(&mut self, vip: bool) {
        self.tier(vip).deadline_shed.inc_mut();
    }

    /// Records one coalesced guest dispatch and how many envelopes it
    /// carried.
    #[progress(wait_free)]
    pub(crate) fn record_batch(&mut self, envelopes: u64) {
        self.batch_dispatches.inc_mut();
        self.batch_envelopes.observe_mut(envelopes);
    }

    /// Records the guest backlog depth left at the end of a poll turn.
    #[progress(wait_free)]
    pub(crate) fn record_queue_depth(&mut self, depth: u64) {
        self.guest_queue_depth.set(depth);
    }

    /// Records a frame decoded off a connection.
    #[progress(wait_free)]
    pub(crate) fn record_frame_in(&mut self) {
        self.frames_in.inc_mut();
    }

    /// Records a frame written to a connection.
    #[progress(wait_free)]
    pub(crate) fn record_frame_out(&mut self) {
        self.frames_out.inc_mut();
    }

    /// Records a codec failure (poisoned stream, torn tail, bad frame).
    #[progress(wait_free)]
    pub(crate) fn record_codec_error(&mut self) {
        self.codec_errors.inc_mut();
    }

    /// Records a plain-HTTP hit on the listener (e.g. `GET /metrics`).
    #[progress(wait_free)]
    pub(crate) fn record_http_hit(&mut self) {
        self.http_hits.inc_mut();
    }

    /// Current `store_net_*` samples.
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        for (label, tier) in [("vip", &self.vip), ("guest", &self.guest)] {
            out.push(Sample {
                name: "store_net_conns_accepted_total",
                help: "Connections accepted after handshake, by tier",
                labels: vec![("tier", label.to_string())],
                value: SampleValue::Counter(tier.conns_accepted.get()),
            });
            out.push(Sample {
                name: "store_net_conns_denied_total",
                help: "Handshakes refused (bad credential or over-capacity), by tier",
                labels: vec![("tier", label.to_string())],
                value: SampleValue::Counter(tier.conns_denied.get()),
            });
            out.push(Sample {
                name: "store_net_requests_total",
                help: "Wire requests served, by tier",
                labels: vec![("tier", label.to_string())],
                value: SampleValue::Counter(tier.requests.get()),
            });
            out.push(Sample {
                name: "store_net_ops_total",
                help: "Store operations carried by served wire requests, by tier",
                labels: vec![("tier", label.to_string())],
                value: SampleValue::Counter(tier.ops.get()),
            });
            out.push(Sample {
                name: "store_net_backpressure_shed_total",
                help:
                    "Requests answered with RetryBudgetExhausted instead of being served, by tier",
                labels: vec![("tier", label.to_string())],
                value: SampleValue::Counter(tier.shed.get()),
            });
            out.push(Sample {
                name: "store_net_deadline_shed_total",
                help: "Requests shed pre-dispatch with DeadlineExceeded, by tier \
                       (the vip series is pinned at zero: VIP frames are never shed)",
                labels: vec![("tier", label.to_string())],
                value: SampleValue::Counter(tier.deadline_shed.get()),
            });
            out.push(Sample {
                name: "store_net_request_latency_ns",
                help: "Round-trip request latency inside the reactor, by tier",
                labels: vec![("tier", label.to_string())],
                value: SampleValue::Histogram(tier.latency_ns.snapshot()),
            });
        }
        out.push(Sample {
            name: "store_net_conns_open",
            help: "Connections currently registered with the reactor",
            labels: Vec::new(),
            value: SampleValue::Gauge(self.conns_open.get()),
        });
        out.push(Sample {
            name: "store_net_conns_closed_total",
            help: "Connections torn down (either side)",
            labels: Vec::new(),
            value: SampleValue::Counter(self.conns_closed.get()),
        });
        out.push(Sample {
            name: "store_net_codec_errors_total",
            help: "Connections dropped for wire-protocol violations",
            labels: Vec::new(),
            value: SampleValue::Counter(self.codec_errors.get()),
        });
        out.push(Sample {
            name: "store_net_frames_in_total",
            help: "Frames decoded off connections",
            labels: Vec::new(),
            value: SampleValue::Counter(self.frames_in.get()),
        });
        out.push(Sample {
            name: "store_net_frames_out_total",
            help: "Frames written to connections",
            labels: Vec::new(),
            value: SampleValue::Counter(self.frames_out.get()),
        });
        out.push(Sample {
            name: "store_net_http_metrics_hits_total",
            help: "Plain-HTTP requests served by the listener",
            labels: Vec::new(),
            value: SampleValue::Counter(self.http_hits.get()),
        });
        out.push(Sample {
            name: "store_net_batch_dispatches_total",
            help: "Coalesced guest dispatches (one per-shard-planned store commit group)",
            labels: Vec::new(),
            value: SampleValue::Counter(self.batch_dispatches.get()),
        });
        out.push(Sample {
            name: "store_net_batch_envelopes",
            help: "Guest envelopes carried per coalesced dispatch",
            labels: Vec::new(),
            value: SampleValue::Histogram(self.batch_envelopes.snapshot()),
        });
        out.push(Sample {
            name: "store_net_guest_queue_depth",
            help: "Guest frames carried over in the reactor backlog after the last poll turn",
            labels: Vec::new(),
            value: SampleValue::Gauge(self.guest_queue_depth.get()),
        });
        out
    }

    /// Snapshot of just the net-layer series.
    pub fn scrape(&self) -> MetricsSnapshot {
        MetricsSnapshot { samples: self.samples() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_cover_both_tiers_and_globals() {
        let mut m = NetMetrics::new();
        m.record_accept(true);
        m.record_accept(false);
        m.record_deny(false);
        m.record_request(true, 3, 2_000);
        m.record_shed(false);
        m.record_close();
        let snap = m.scrape();
        let vip = [("tier", "vip")];
        let guest = [("tier", "guest")];
        assert_eq!(snap.value("store_net_conns_accepted_total", &vip), Some(1));
        assert_eq!(snap.value("store_net_conns_denied_total", &guest), Some(1));
        assert_eq!(snap.value("store_net_ops_total", &vip), Some(3));
        assert_eq!(snap.value("store_net_backpressure_shed_total", &guest), Some(1));
        assert_eq!(snap.value("store_net_conns_open", &[]), Some(1));
        let hist = snap.histogram("store_net_request_latency_ns", &vip).unwrap();
        assert_eq!(hist.count, 1);
    }

    #[test]
    fn batching_and_deadline_series_are_scraped() {
        let mut m = NetMetrics::new();
        m.record_deadline_shed(false);
        m.record_deadline_shed(false);
        m.record_batch(8);
        m.record_batch(3);
        m.record_queue_depth(5);
        let snap = m.scrape();
        assert_eq!(snap.value("store_net_deadline_shed_total", &[("tier", "guest")]), Some(2));
        assert_eq!(
            snap.value("store_net_deadline_shed_total", &[("tier", "vip")]),
            Some(0),
            "the vip series exists to prove it stays zero"
        );
        assert_eq!(snap.value("store_net_batch_dispatches_total", &[]), Some(2));
        let hist = snap.histogram("store_net_batch_envelopes", &[]).unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(snap.value("store_net_guest_queue_depth", &[]), Some(5));
    }

    #[test]
    fn open_gauge_never_underflows() {
        let mut m = NetMetrics::new();
        m.record_close();
        assert_eq!(m.scrape().value("store_net_conns_open", &[]), Some(0));
    }
}
