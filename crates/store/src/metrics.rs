//! Store-side metric registry: the wait-free record half of the
//! observability layer.
//!
//! `StoreMetrics` is an always-on field of [`Store`](crate::Store),
//! fed exclusively from paths that are already wait-free (or bounded
//! wait-free) for their tier: commit bookkeeping rides
//! `commit_vip`/`commit_guest`, reconfiguration events ride the admin-side
//! split/merge drivers, and elastic decisions ride `Store::rebalance`.
//! Every record method is a bounded number of the caller's own atomic
//! steps ([`apc_obs`] primitives only), so instrumentation never weakens a
//! path's progress class — `apc-lint --deny` proves it.
//!
//! The read half is [`Store::scrape`](crate::Store::scrape), which folds
//! these instruments together with the wait-free per-shard digest
//! snapshots into one [`MetricsSnapshot`](apc_obs::MetricsSnapshot). See `METRICS.md` at the repo
//! root for the full series catalogue.

use apc_obs::{Counter, FixedHistogram, Gauge, Sample, SampleValue};
use apc_progress_macros::progress;

use crate::admission::ProgressClass;
use crate::elastic::ElasticDecision;

/// Commit→apply latency bucket bounds, in nanoseconds: 1µs…64ms in
/// powers of four, sized for an in-memory consensus append (µs-scale) with
/// headroom for scheduler preemption outliers.
const COMMIT_LATENCY_NS_BOUNDS: [u64; 9] =
    [1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000, 4_000_000, 16_000_000, 64_000_000];

/// Batch-size bucket bounds (operations per committed sub-batch).
const BATCH_OPS_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Converts an [`std::time::Instant`] origin into elapsed nanoseconds,
/// saturating at `u64::MAX` (585 years of latency is off the chart
/// anyway).
pub(crate) fn elapsed_ns(start: std::time::Instant) -> u64 {
    nanos(start.elapsed())
}

/// A duration in nanoseconds, saturating at `u64::MAX`.
pub(crate) fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The per-tier commit instruments: VIP and guest are separate series
/// end-to-end, mirroring the paper's asymmetric per-tier guarantees.
struct TierMetrics {
    /// Sub-batch rounds served: appended to the log or answered locally.
    commits: Counter,
    /// The rounds among `commits` answered from the port's own replica
    /// without a log cell (read-only sub-batches).
    local_reads: Counter,
    /// Log cells this tier's ports replayed while serving their rounds.
    /// Replay amplification = replayed ÷ appended (`commits − local_reads`).
    replayed_cells: Counter,
    /// Operations bounced [`StoreResp::Moved`](crate::ops::StoreResp) by a
    /// reconfiguration epoch check (re-planned by the client, never lost).
    moved_ops: Counter,
    /// Operations per committed sub-batch.
    batch_ops: FixedHistogram,
    /// Wall-clock latency of one commit (plan hand-off to responses).
    latency_ns: FixedHistogram,
}

impl TierMetrics {
    fn new() -> Self {
        TierMetrics {
            commits: Counter::new(),
            local_reads: Counter::new(),
            replayed_cells: Counter::new(),
            moved_ops: Counter::new(),
            batch_ops: FixedHistogram::new(&BATCH_OPS_BOUNDS),
            latency_ns: FixedHistogram::new(&COMMIT_LATENCY_NS_BOUNDS),
        }
    }

    /// Records one served sub-batch round: three bounded instrument updates.
    #[progress(wait_free)]
    fn record(&self, ops: u64, latency_ns: u64, moved_ops: u64) {
        self.commits.inc();
        self.batch_ops.observe(ops);
        self.latency_ns.observe(latency_ns);
        if moved_ops > 0 {
            self.moved_ops.add(moved_ops);
        }
    }

    /// Appends this tier's samples, labelled `tier`.
    #[progress(wait_free)]
    fn append_samples(&self, out: &mut Vec<Sample>, tier: &'static str) {
        let label = || vec![("tier", String::from(tier))];
        out.push(Sample {
            name: "store_commits_total",
            help: "Sub-batch rounds served (appended to the log or answered locally).",
            labels: label(),
            value: SampleValue::Counter(self.commits.get()),
        });
        out.push(Sample {
            name: "store_local_reads_total",
            help: "Read-only sub-batch rounds answered from the port's replica, no log cell.",
            labels: label(),
            value: SampleValue::Counter(self.local_reads.get()),
        });
        out.push(Sample {
            name: "store_replayed_cells_total",
            help: "Log cells replayed by this tier's ports while serving their rounds.",
            labels: label(),
            value: SampleValue::Counter(self.replayed_cells.get()),
        });
        out.push(Sample {
            name: "store_moved_ops_total",
            help: "Operations bounced Moved by a reconfiguration epoch check.",
            labels: label(),
            value: SampleValue::Counter(self.moved_ops.get()),
        });
        out.push(Sample {
            name: "store_commit_ops",
            help: "Operations per committed sub-batch.",
            labels: label(),
            value: SampleValue::Histogram(self.batch_ops.snapshot()),
        });
        out.push(Sample {
            name: "store_commit_latency_ns",
            help: "Commit latency in nanoseconds (plan hand-off to responses).",
            labels: label(),
            value: SampleValue::Histogram(self.latency_ns.snapshot()),
        });
    }
}

/// The store's metric registry. All record methods are wait-free; the
/// caller's progress class is never weakened by instrumentation.
pub(crate) struct StoreMetrics {
    vip: TierMetrics,
    guest: TierMetrics,
    /// Applied splits / merges.
    splits: Counter,
    merges: Counter,
    /// Topology version installed by the most recent reconfiguration.
    reconfig_last_version: Gauge,
    /// Elastic-engine decisions by kind; each split or merge is applied.
    elastic_split_decisions: Counter,
    elastic_merge_decisions: Counter,
    elastic_hold_decisions: Counter,
}

impl StoreMetrics {
    pub(crate) fn new() -> Self {
        StoreMetrics {
            vip: TierMetrics::new(),
            guest: TierMetrics::new(),
            splits: Counter::new(),
            merges: Counter::new(),
            reconfig_last_version: Gauge::new(),
            elastic_split_decisions: Counter::new(),
            elastic_merge_decisions: Counter::new(),
            elastic_hold_decisions: Counter::new(),
        }
    }

    /// Records one committed sub-batch on `tier`'s series.
    #[progress(wait_free)]
    pub(crate) fn record_commit(
        &self,
        tier: ProgressClass,
        ops: u64,
        latency_ns: u64,
        moved_ops: u64,
    ) {
        self.tier(tier).record(ops, latency_ns, moved_ops);
    }

    fn tier(&self, tier: ProgressClass) -> &TierMetrics {
        match tier {
            ProgressClass::Vip => &self.vip,
            ProgressClass::Guest => &self.guest,
        }
    }

    /// Records a round on `tier` answered without a log cell.
    #[progress(wait_free)]
    pub(crate) fn record_local_read(&self, tier: ProgressClass) {
        self.tier(tier).local_reads.inc();
    }

    /// Records `cells` log cells replayed by a `tier` port during one round.
    #[progress(wait_free)]
    pub(crate) fn record_replayed(&self, tier: ProgressClass, cells: u64) {
        self.tier(tier).replayed_cells.add(cells);
    }

    /// Records an applied split installing topology `version`.
    #[progress(wait_free)]
    pub(crate) fn record_split(&self, version: u64) {
        self.splits.inc();
        self.reconfig_last_version.set(version);
    }

    /// Records an applied merge retirement installing topology `version`.
    #[progress(wait_free)]
    pub(crate) fn record_merge(&self, version: u64) {
        self.merges.inc();
        self.reconfig_last_version.set(version);
    }

    /// Records one elastic-engine evaluation outcome.
    #[progress(wait_free)]
    pub(crate) fn record_elastic(&self, decision: ElasticDecision) {
        match decision {
            ElasticDecision::Split(_) => self.elastic_split_decisions.inc(),
            ElasticDecision::Merge(_) => self.elastic_merge_decisions.inc(),
            ElasticDecision::Hold => self.elastic_hold_decisions.inc(),
        }
    }

    /// The registry's samples (tier series first, then event counters).
    ///
    /// Counter reads go through the instrument fields directly (never
    /// through borrowed locals) so the call graph stays statically
    /// resolvable for `apc-lint`'s reachability rule.
    #[progress(wait_free)]
    pub(crate) fn samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        self.vip.append_samples(&mut out, "vip");
        self.guest.append_samples(&mut out, "guest");
        let reconfigs = [("split", self.splits.get()), ("merge", self.merges.get())];
        for (kind, count) in reconfigs {
            out.push(Sample {
                name: "store_reconfigs_total",
                help: "Applied reconfiguration events by kind.",
                labels: vec![("kind", String::from(kind))],
                value: SampleValue::Counter(count),
            });
        }
        out.push(Sample {
            name: "store_reconfig_last_version",
            help: "Topology version installed by the most recent reconfiguration.",
            labels: Vec::new(),
            value: SampleValue::Gauge(self.reconfig_last_version.get()),
        });
        let decisions = [
            ("split", self.elastic_split_decisions.get()),
            ("merge", self.elastic_merge_decisions.get()),
            ("hold", self.elastic_hold_decisions.get()),
        ];
        for (decision, count) in decisions {
            out.push(Sample {
                name: "store_elastic_decisions_total",
                help: "Elastic-engine policy decisions by kind.",
                labels: vec![("decision", String::from(decision))],
                value: SampleValue::Counter(count),
            });
        }
        out
    }
}

/// Flush-latency bucket bounds, in nanoseconds: 0.1ms…1s — fsync-bound
/// cycles live in the millisecond range.
const FLUSH_LATENCY_NS_BOUNDS: [u64; 7] =
    [100_000, 1_000_000, 4_000_000, 16_000_000, 64_000_000, 256_000_000, 1_000_000_000];

/// The [`Persister`](crate::persist::Persister)'s instruments. Recorded
/// from the (blocking) flush path, but kept in atomics **outside** the
/// flush lock so [`PersistMetrics::samples`] — and through it
/// `Persister::scrape` — stays wait-free: a dashboard never queues behind
/// an in-flight fsync.
#[derive(Debug)]
pub(crate) struct PersistMetrics {
    /// Physical seal-and-write cycles.
    flushes: Counter,
    /// Cycles whose write failed (the atomic rename keeps earlier
    /// successful snapshots intact).
    failures: Counter,
    /// Wall-clock latency of one seal-and-write cycle.
    flush_latency_ns: FixedHistogram,
}

impl PersistMetrics {
    pub(crate) fn new() -> Self {
        PersistMetrics {
            flushes: Counter::new(),
            failures: Counter::new(),
            flush_latency_ns: FixedHistogram::new(&FLUSH_LATENCY_NS_BOUNDS),
        }
    }

    /// Records one physical flush cycle and its outcome.
    #[progress(wait_free)]
    pub(crate) fn record_flush(&self, latency_ns: u64, ok: bool) {
        self.flushes.inc();
        self.flush_latency_ns.observe(latency_ns);
        if !ok {
            self.failures.inc();
        }
    }

    /// Cycles recorded so far.
    #[progress(wait_free)]
    pub(crate) fn flushes(&self) -> u64 {
        self.flushes.get()
    }

    /// The persister's samples.
    #[progress(wait_free)]
    pub(crate) fn samples(&self) -> Vec<Sample> {
        vec![
            Sample {
                name: "store_persist_flushes_total",
                help: "Physical snapshot seal-and-write cycles.",
                labels: Vec::new(),
                value: SampleValue::Counter(self.flushes.get()),
            },
            Sample {
                name: "store_persist_flush_failures_total",
                help: "Flush cycles whose snapshot write failed.",
                labels: Vec::new(),
                value: SampleValue::Counter(self.failures.get()),
            },
            Sample {
                name: "store_persist_flush_latency_ns",
                help: "Wall-clock latency of one seal-and-write cycle, in nanoseconds.",
                labels: Vec::new(),
                value: SampleValue::Histogram(self.flush_latency_ns.snapshot()),
            },
        ]
    }
}

/// Group-size bucket bounds (frames coalesced into one WAL flush cycle).
const WAL_GROUP_FRAMES_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// The [`Wal`](crate::wal::Wal)'s instruments. Same discipline as
/// [`PersistMetrics`]: recorded from the (blocking) append/flush paths,
/// kept in atomics **outside** the buffer mutex, so
/// [`Wal::scrape`](crate::wal::Wal::scrape) stays wait-free — a dashboard
/// never queues behind an in-flight fsync.
#[derive(Debug)]
pub(crate) struct WalMetrics {
    /// Frames enqueued, split by durability class.
    group_appends: Counter,
    sync_appends: Counter,
    /// Bytes of encoded frames enqueued.
    appended_bytes: Counter,
    /// Write-and-fsync cycles, and how many failed.
    flushes: Counter,
    failures: Counter,
    /// Frames coalesced into one flush cycle — the group-commit win.
    group_frames: FixedHistogram,
    /// Wall-clock latency of one write-and-fsync cycle.
    fsync_latency_ns: FixedHistogram,
    /// Segment rotations (size threshold or checkpoint seal).
    rotations: Counter,
    /// Segments deleted by checkpoint truncation.
    segments_deleted: Counter,
    /// `DurabilityClass::Sync` requests denied to the guest tier.
    sync_denied: Counter,
    /// Frames replayed from pre-existing segments at open (set once).
    replay_frames: Gauge,
    /// Torn tails cut off at open (expected crash damage).
    torn_tails: Counter,
}

impl WalMetrics {
    pub(crate) fn new() -> Self {
        WalMetrics {
            group_appends: Counter::new(),
            sync_appends: Counter::new(),
            appended_bytes: Counter::new(),
            flushes: Counter::new(),
            failures: Counter::new(),
            group_frames: FixedHistogram::new(&WAL_GROUP_FRAMES_BOUNDS),
            fsync_latency_ns: FixedHistogram::new(&FLUSH_LATENCY_NS_BOUNDS),
            rotations: Counter::new(),
            segments_deleted: Counter::new(),
            sync_denied: Counter::new(),
            replay_frames: Gauge::new(),
            torn_tails: Counter::new(),
        }
    }

    /// Records one enqueued frame.
    #[progress(wait_free)]
    pub(crate) fn record_append(&self, bytes: u64, class: crate::wal::DurabilityClass) {
        match class {
            crate::wal::DurabilityClass::Group => self.group_appends.inc(),
            crate::wal::DurabilityClass::Sync => self.sync_appends.inc(),
        }
        self.appended_bytes.add(bytes);
    }

    /// Records one write-and-fsync cycle: its latency, how many frames it
    /// coalesced, and its outcome.
    #[progress(wait_free)]
    pub(crate) fn record_flush(&self, latency_ns: u64, frames: u64, ok: bool) {
        self.flushes.inc();
        self.fsync_latency_ns.observe(latency_ns);
        self.group_frames.observe(frames);
        if !ok {
            self.failures.inc();
        }
    }

    /// Records one segment rotation.
    #[progress(wait_free)]
    pub(crate) fn record_rotation(&self) {
        self.rotations.inc();
    }

    /// Records a checkpoint truncation deleting `segments` segments.
    #[progress(wait_free)]
    pub(crate) fn record_truncation(&self, segments: u64) {
        self.segments_deleted.add(segments);
    }

    /// Records a guest-tier synchronous-durability request that was
    /// denied (asymmetric durability: sync is a VIP privilege).
    #[progress(wait_free)]
    pub(crate) fn record_sync_denied(&self) {
        self.sync_denied.inc();
    }

    /// Sets the open-time replay gauge (once).
    #[progress(wait_free)]
    pub(crate) fn set_replay_frames(&self, frames: u64) {
        self.replay_frames.set(frames);
    }

    /// Records a torn tail cut off at open.
    #[progress(wait_free)]
    pub(crate) fn record_torn_tail(&self) {
        self.torn_tails.inc();
    }

    /// The WAL's samples.
    #[progress(wait_free)]
    pub(crate) fn samples(&self) -> Vec<Sample> {
        let appends = [("group", self.group_appends.get()), ("sync", self.sync_appends.get())];
        let mut out = Vec::new();
        for (class, count) in appends {
            out.push(Sample {
                name: "store_wal_appends_total",
                help: "WAL frames enqueued, by durability class.",
                labels: vec![("class", String::from(class))],
                value: SampleValue::Counter(count),
            });
        }
        out.push(Sample {
            name: "store_wal_appended_bytes_total",
            help: "Bytes of encoded WAL frames enqueued.",
            labels: Vec::new(),
            value: SampleValue::Counter(self.appended_bytes.get()),
        });
        out.push(Sample {
            name: "store_wal_flushes_total",
            help: "WAL write-and-fsync cycles.",
            labels: Vec::new(),
            value: SampleValue::Counter(self.flushes.get()),
        });
        out.push(Sample {
            name: "store_wal_flush_failures_total",
            help: "WAL flush cycles that failed.",
            labels: Vec::new(),
            value: SampleValue::Counter(self.failures.get()),
        });
        out.push(Sample {
            name: "store_wal_group_frames",
            help: "Frames coalesced into one WAL flush cycle (group-commit size).",
            labels: Vec::new(),
            value: SampleValue::Histogram(self.group_frames.snapshot()),
        });
        out.push(Sample {
            name: "store_wal_fsync_latency_ns",
            help: "Wall-clock latency of one WAL write-and-fsync cycle, in nanoseconds.",
            labels: Vec::new(),
            value: SampleValue::Histogram(self.fsync_latency_ns.snapshot()),
        });
        out.push(Sample {
            name: "store_wal_rotations_total",
            help: "WAL segment rotations (size threshold or checkpoint seal).",
            labels: Vec::new(),
            value: SampleValue::Counter(self.rotations.get()),
        });
        out.push(Sample {
            name: "store_wal_segments_deleted_total",
            help: "WAL segments deleted by checkpoint truncation.",
            labels: Vec::new(),
            value: SampleValue::Counter(self.segments_deleted.get()),
        });
        out.push(Sample {
            name: "store_wal_sync_denied_total",
            help: "Guest-tier synchronous-durability requests denied (VIP privilege).",
            labels: Vec::new(),
            value: SampleValue::Counter(self.sync_denied.get()),
        });
        out.push(Sample {
            name: "store_wal_replay_frames",
            help: "Frames replayed from pre-existing segments at WAL open.",
            labels: Vec::new(),
            value: SampleValue::Gauge(self.replay_frames.get()),
        });
        out.push(Sample {
            name: "store_wal_torn_tails_total",
            help: "Torn tails cut off at WAL open (expected crash damage).",
            labels: Vec::new(),
            value: SampleValue::Counter(self.torn_tails.get()),
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use apc_obs::MetricsSnapshot;

    use super::*;

    fn snap(m: &StoreMetrics) -> MetricsSnapshot {
        MetricsSnapshot { samples: m.samples() }
    }

    #[test]
    fn tiers_are_separate_series() {
        let m = StoreMetrics::new();
        m.record_commit(ProgressClass::Vip, 4, 1_500, 0);
        m.record_commit(ProgressClass::Vip, 2, 900, 1);
        m.record_commit(ProgressClass::Guest, 8, 70_000, 0);
        let s = snap(&m);
        assert_eq!(s.value("store_commits_total", &[("tier", "vip")]), Some(2));
        assert_eq!(s.value("store_commits_total", &[("tier", "guest")]), Some(1));
        assert_eq!(s.value("store_moved_ops_total", &[("tier", "vip")]), Some(1));
        assert_eq!(s.value("store_moved_ops_total", &[("tier", "guest")]), Some(0));
        m.record_local_read(ProgressClass::Vip);
        m.record_replayed(ProgressClass::Vip, 3);
        m.record_replayed(ProgressClass::Guest, 0);
        let s = snap(&m);
        assert_eq!(s.value("store_local_reads_total", &[("tier", "vip")]), Some(1));
        assert_eq!(s.value("store_local_reads_total", &[("tier", "guest")]), Some(0));
        assert_eq!(s.value("store_replayed_cells_total", &[("tier", "vip")]), Some(3));
        assert_eq!(s.value("store_replayed_cells_total", &[("tier", "guest")]), Some(0));
        let vip_lat = s.histogram("store_commit_latency_ns", &[("tier", "vip")]).unwrap();
        assert_eq!(vip_lat.count, 2);
        let guest_ops = s.histogram("store_commit_ops", &[("tier", "guest")]).unwrap();
        assert_eq!(guest_ops.sum, 8);
    }

    #[test]
    fn reconfig_and_elastic_events_accumulate() {
        let m = StoreMetrics::new();
        m.record_split(3);
        m.record_merge(4);
        m.record_elastic(ElasticDecision::Split(0));
        m.record_elastic(ElasticDecision::Split(0));
        m.record_elastic(ElasticDecision::Merge(1));
        m.record_elastic(ElasticDecision::Hold);
        let s = snap(&m);
        assert_eq!(s.value("store_reconfigs_total", &[("kind", "split")]), Some(1));
        assert_eq!(s.value("store_reconfigs_total", &[("kind", "merge")]), Some(1));
        assert_eq!(s.value("store_reconfig_last_version", &[]), Some(4));
        assert_eq!(s.value("store_elastic_decisions_total", &[("decision", "split")]), Some(2));
        assert_eq!(s.value("store_elastic_decisions_total", &[("decision", "hold")]), Some(1));
    }

    #[test]
    fn persist_metrics_track_cycles() {
        let m = PersistMetrics::new();
        m.record_flush(2_000_000, true);
        m.record_flush(300_000_000, false);
        let s = MetricsSnapshot { samples: m.samples() };
        assert_eq!(s.value("store_persist_flushes_total", &[]), Some(2));
        assert_eq!(s.value("store_persist_flush_failures_total", &[]), Some(1));
        let lat = s.histogram("store_persist_flush_latency_ns", &[]).unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.sum, 302_000_000);
    }

    #[test]
    fn wal_metrics_track_appends_flushes_and_lifecycle() {
        let m = WalMetrics::new();
        m.record_append(64, crate::wal::DurabilityClass::Group);
        m.record_append(32, crate::wal::DurabilityClass::Group);
        m.record_append(48, crate::wal::DurabilityClass::Sync);
        m.record_flush(2_000_000, 3, true);
        m.record_flush(500_000_000, 1, false);
        m.record_rotation();
        m.record_truncation(4);
        m.record_sync_denied();
        m.set_replay_frames(7);
        m.record_torn_tail();
        let s = MetricsSnapshot { samples: m.samples() };
        assert_eq!(s.value("store_wal_appends_total", &[("class", "group")]), Some(2));
        assert_eq!(s.value("store_wal_appends_total", &[("class", "sync")]), Some(1));
        assert_eq!(s.value("store_wal_appended_bytes_total", &[]), Some(144));
        assert_eq!(s.value("store_wal_flushes_total", &[]), Some(2));
        assert_eq!(s.value("store_wal_flush_failures_total", &[]), Some(1));
        let group = s.histogram("store_wal_group_frames", &[]).unwrap();
        assert_eq!(group.count, 2);
        assert_eq!(group.sum, 4);
        let lat = s.histogram("store_wal_fsync_latency_ns", &[]).unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(s.value("store_wal_rotations_total", &[]), Some(1));
        assert_eq!(s.value("store_wal_segments_deleted_total", &[]), Some(4));
        assert_eq!(s.value("store_wal_sync_denied_total", &[]), Some(1));
        assert_eq!(s.value("store_wal_replay_frames", &[]), Some(7));
        assert_eq!(s.value("store_wal_torn_tails_total", &[]), Some(1));
    }

    #[test]
    fn elapsed_ns_is_monotone_and_total() {
        let t0 = std::time::Instant::now();
        let a = elapsed_ns(t0);
        let b = elapsed_ns(t0);
        assert!(b >= a);
    }
}
