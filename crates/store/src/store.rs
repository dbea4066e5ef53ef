//! The store itself: its builder and recovery, the round driver every
//! request arm commits through, and the wait-free dashboard. Three rules
//! have files of their own: the port door (`store/shard.rs`), the client
//! arms (`store/client.rs`) and the admin acts (`store/admin.rs`).
//!
//! A [`Store`] is a set of independent shards, each a [`ShardLog`]: a
//! universal log of [`ShardSpec`](crate::ops::ShardSpec) states driven by
//! `(y,x)`-live asymmetric consensus cells, fronted by the admission
//! layer's port discipline:
//!
//! * every shard exposes the same port slots, one replica each; VIP
//!   clients own a wait-free port exclusively, guest clients multiplex onto
//!   shared guest ports (serialized per port by a mutex — the
//!   obstruction-free tier is also the queued tier), and each VIP port
//!   carries a guest voice ([`Store::guest_voice`]): a guest process of its
//!   own that commits through the VIP's slot and replica, so the slot's
//!   owner can serve guest work without keeping a second replica. The log
//!   is `(2x + g, x)`-live — `x` VIPs, `g` shared guests, `x` voices — over
//!   `x + g` slots (see the [admission docs](crate::admission) for what
//!   the voices cost the VIP's helping bound);
//! * a client batch is split by the versioned
//!   [`ShardTopology`] into at most one log append per shard, so same-shard
//!   operations amortize consensus — and a sub-batch made only of reads
//!   takes none: it is answered from the port's own replica, caught up to
//!   the log tail observed at invocation
//!   ([`OwnedHandle::sync_read`]), with the same stale-plan bounce;
//! * each shard additionally keeps two plain words per port — the port's
//!   replay cursor and its replica's key count, stored by whoever holds
//!   the port — the VIP dashboard path: reading store-wide statistics is
//!   two loads per port and never touches the consensus log, so it
//!   completes even while guests hammer every shard.
//!
//! ## Live shard splits and merges
//!
//! The shard set is **elastic in both directions** ([`Store::split_shard`],
//! [`Store::merge_shard`], and [`Store::rebalance`] for an owner who
//! delegates the choice to a policy engine), and no commit stops for it: a
//! bump linearizes through the shard's own log in a
//! [`SealRecord`](apc_universal::SealRecord) cell with an operation, and a
//! batch planned before it bounces with [`StoreResp::Moved`] and is
//! re-planned against the published topology. The current `(topology, shards)` pair
//! is one view, published once per reconfiguration and kept for the
//! store's lifetime, so a request borrows it with one load: no lock, no
//! epoch pin, no reference count.
//!
//! **Consistency:** operations within one shard are linearizable (they go
//! through that shard's universal log). A multi-shard batch commits
//! per-shard atomically but is not a single cross-shard atomic action;
//! broadcast scans are per-shard-consistent merges. Splits and merges
//! preserve all of this: an operation is applied exactly once — on the
//! shard that owns its key at its linearization point — or bounced and
//! retried, never both.

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apc_core::liveness::Liveness;
use apc_progress_macros::progress;
use apc_registers::Generations;
use apc_universal::OwnedHandle;

use apc_obs::{Counter, MetricsSnapshot, Sample, SampleValue};

use crate::admission::{Admission, AdmissionConfig, AdmissionError, ClientTicket, ProgressClass};
use crate::metrics::{nanos, StoreMetrics};
use crate::ops::{
    keeps_spare_keys, read_sub_batch, recycle_keys, Batch, PackedBatch, ShardCmd, StoreOp,
    StoreResp,
};
use crate::persist::lock_unpoisoned;
use crate::replan::{Input, Replan, Responses, Transition};
use crate::router::ShardTopology;
use crate::wal::{DurabilityClass, Wal, WalFrame};

mod admin;
mod client;
mod shard;

pub use admin::{SealCadence, SEAL_EVERY, SEAL_PERIOD};
pub use client::Client;
use shard::{PortDigest, PortHandle, Shard, EVERY_IDLE_PORT};
pub use shard::{ShardDigest, ShardLog};

/// One routing generation: the topology and the shard handles it routes
/// to. Everything a client needs to place and commit a batch is reachable
/// from one wait-free load of the current view.
struct StoreView {
    topology: ShardTopology,
    shards: Vec<Arc<Shard>>,
}

/// Configures and builds a [`Store`].
///
/// # Examples
///
/// ```
/// use apc_store::StoreBuilder;
///
/// let store = StoreBuilder::new().shards(2).vip_capacity(1).build().unwrap();
/// let vip = store.admit_vip().unwrap();
/// let mut client = store.client(vip);
/// assert_eq!(client.put("k", 7), None);
/// assert_eq!(client.get("k"), Some(7));
/// ```
#[derive(Copy, Clone, Debug)]
pub struct StoreBuilder {
    shards: usize,
    admission: AdmissionConfig,
}

impl Default for StoreBuilder {
    fn default() -> Self {
        StoreBuilder { shards: 4, admission: AdmissionConfig::default() }
    }
}

impl StoreBuilder {
    /// A builder with the default sizing (4 shards, 2 VIP ports, 6 guest
    /// ports).
    pub fn new() -> Self {
        StoreBuilder::default()
    }

    /// Sets the initial shard count `S` (shards may be added later by
    /// [`Store::split_shard`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the bounded wait-free VIP port count `x` (per shard).
    pub fn vip_capacity(mut self, x: usize) -> Self {
        self.admission.vip_capacity = x;
        self
    }

    /// Sets the guest port count (per shard).
    pub fn guest_ports(mut self, g: usize) -> Self {
        self.admission.guest_ports = g;
        self
    }

    /// Builds the store: admission layer, topology, and `S` shard logs with
    /// their port pools and digest words.
    ///
    /// # Errors
    ///
    /// Propagates [`AdmissionError::BadConfig`] for unrealizable sizings
    /// (including `shards == 0`).
    pub fn build(self) -> Result<Store, AdmissionError> {
        self.build_from(None, None)
    }

    /// Builds the store with an op-granular [`Wal`] attached: every commit
    /// logs its resolved effects between checkpoints, closing the
    /// since-last-snapshot crash window, and VIP sessions may opt into
    /// synchronous durability ([`DurabilityClass::Sync`]). Pair the
    /// store with [`Persister::with_wal`](crate::persist::Persister::with_wal)
    /// so checkpoint seals rotate and truncate the log, and recover with
    /// [`StoreBuilder::recover_with_wal`].
    ///
    /// # Errors
    ///
    /// Same as [`StoreBuilder::build`].
    pub fn build_with_wal(self, wal: Arc<Wal>) -> Result<Store, AdmissionError> {
        self.build_from(None, Some(wal))
    }

    /// Rebuilds a store from a durable snapshot previously written by the
    /// [`persist`](crate::persist) layer (see
    /// [`Persister`](crate::persist::Persister) /
    /// [`StoreSnapshot::write_to`](crate::persist::StoreSnapshot::write_to)).
    ///
    /// The shard **topology** is taken from the snapshot — including every
    /// split installed before the flush, so post-split placement survives a
    /// crash — and the builder's own `shards` setting is ignored. The
    /// admission sizing (VIP capacity, guest ports) is taken from the
    /// builder: progress classes are a runtime serving choice, not
    /// persistent state. Each shard's universal log resumes at its
    /// checkpointed log index via
    /// [`Universal::recovered`](apc_universal::Universal::recovered), so
    /// boot-time replay work is O(delta), not O(history).
    ///
    /// # Errors
    ///
    /// [`RecoverError::Persist`](crate::persist::RecoverError::Persist) for
    /// any snapshot decode failure (missing file, bad magic/version,
    /// checksum mismatch, truncation),
    /// [`RecoverError::Admission`](crate::persist::RecoverError::Admission)
    /// for unrealizable admission sizings.
    /// Recovery first sweeps any orphaned `*.tmp` siblings a crash left
    /// next to the snapshot (a temp file that was written but never
    /// renamed is garbage by construction — it is neither trusted nor
    /// tripped over).
    pub fn recover(
        self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Store, crate::persist::RecoverError> {
        let path = path.as_ref();
        crate::persist::sweep_orphan_tmps(path);
        let snapshot = crate::persist::StoreSnapshot::read_from(path)?;
        Ok(self.build_from(Some(snapshot), None)?)
    }

    /// Full crash recovery: snapshot + WAL replay. Rebuilds the store from
    /// the snapshot at `path` (as [`StoreBuilder::recover`], including the
    /// orphaned-tmp sweep; a *missing* snapshot is a fresh store — the
    /// process may have died before its first checkpoint), then re-applies
    /// the effects `wal` recovered from the dead process's segments:
    /// frames sort into per-shard linearization order by their
    /// `(epoch, shard, cell)` stamps, collapse to one final effect per
    /// key, and replay **by key** through fresh routing — so replay is
    /// exact even across splits/merges installed after the snapshot, and
    /// idempotent where the snapshot already contains an effect. The
    /// replayed effects are re-logged into `wal`'s fresh segment, so a
    /// second crash during recovery loses nothing.
    ///
    /// On return, the store serves with `wal` attached (as
    /// [`StoreBuilder::build_with_wal`]).
    ///
    /// # Errors
    ///
    /// As [`StoreBuilder::recover`], except a missing snapshot file is not
    /// an error here. Corrupt WAL segments fail closed in
    /// [`Wal::open`] — before this is ever called.
    pub fn recover_with_wal(
        self,
        path: impl AsRef<std::path::Path>,
        wal: Arc<Wal>,
    ) -> Result<Store, crate::persist::RecoverError> {
        let path = path.as_ref();
        crate::persist::sweep_orphan_tmps(path);
        let snapshot = match crate::persist::StoreSnapshot::read_from(path) {
            Ok(snap) => Some(snap),
            Err(crate::persist::PersistError::Io {
                kind: std::io::ErrorKind::NotFound, ..
            }) => None,
            Err(e) => return Err(e.into()),
        };
        let recovery = wal.take_recovered();
        let store = self.build_from(snapshot, Some(wal))?;
        if let Some(recovery) = recovery {
            let effects = recovery.collapsed_effects();
            if !effects.is_empty() {
                let ops: Vec<StoreOp> = effects
                    .into_iter()
                    .map(|(key, effect)| match effect {
                        Some(value) => StoreOp::Put(key, value),
                        None => StoreOp::Remove(key),
                    })
                    .collect();
                // Replay rides a guest session: recovery is boot-time
                // work and must never consume a VIP port.
                store.client(store.admit_guest()).execute(ops);
            }
        }
        Ok(store)
    }

    fn build_from(
        self,
        snapshot: Option<crate::persist::StoreSnapshot>,
        wal: Option<Arc<Wal>>,
    ) -> Result<Store, AdmissionError> {
        let topology = match &snapshot {
            Some(snap) => snap.topology.clone(),
            None => {
                if self.shards == 0 {
                    return Err(AdmissionError::BadConfig("a store needs at least one shard"));
                }
                ShardTopology::fresh(self.shards)
            }
        };
        let admission = Admission::new(self.admission)?;
        let spec = admission.spec();
        let ports = admission.ports();
        // A recovered shard starts from its snapshot's state itself: every
        // port shares it, and nothing is admitted yet.
        let mut resumes = snapshot.map(|snap| snap.shards.into_iter());
        let shards = (0..topology.shards())
            .map(|s| {
                let node = topology.node(s);
                let shard_spec =
                    crate::ops::ShardSpec { seed: node.seed, created_at: node.created_at };
                let resume = resumes
                    .as_mut()
                    .and_then(Iterator::next)
                    .map(|shard| (shard.state, shard.log_index));
                Arc::new(Shard::build(shard_spec, spec, ports, 0, resume))
            })
            .collect();
        Ok(Store {
            core: Arc::new(StoreCore {
                admission,
                view: Generations::new(StoreView { topology, shards }),
                admin: Mutex::new(()),
                cadence_seals: Counter::new(),
            }),
            metrics: StoreMetrics::new(),
            wal,
            _settle: SettleAllocator,
        })
    }
}

/// An in-memory, sharded, progress-class-aware object service with live
/// hot-shard splitting.
///
/// See the [module docs](self) for the architecture and consistency model.
pub struct Store {
    /// What an admin act touches: the admission layer, the views and the
    /// admin lock. Behind one `Arc` so that the seal cadence's thread
    /// ([`Store::start_seal_cadence`]) can hold it by a `Weak`.
    core: Arc<StoreCore>,
    /// The always-on metric registry; every record path is wait-free, so
    /// instrumentation never weakens a commit path's progress class.
    metrics: StoreMetrics,
    /// The op-granular WAL, if attached ([`StoreBuilder::build_with_wal`]
    /// / [`StoreBuilder::recover_with_wal`]): every commit logs its
    /// resolved effects, and VIP sessions may demand fsync'd durability
    /// ([`DurabilityClass::Sync`]).
    wal: Option<Arc<Wal>>,
    /// Declared last, so dropped last: after everything above is freed.
    _settle: SettleAllocator,
}

/// The part of a [`Store`] that a seal act needs, shared with the seal
/// cadence's thread.
struct StoreCore {
    admission: Admission,
    /// The current `(topology, shards)` generation, published by splits
    /// and merges under the admin lock and borrowed by every operation with
    /// one load. Every view stays until the store drops: one per
    /// reconfiguration, so under [`Store::rebalance`] alone at most
    /// 2 × (`MAX_SHARDS` − initial shards) of them, each a topology and a
    /// `Vec` of `Arc`s — small next to the tombstoned `Shard` that every
    /// reconfiguration already keeps.
    view: Generations<StoreView>,
    /// Serializes admin operations (splits, merges, rebalances, store-wide
    /// checkpoints and cadence seals) so a durable snapshot's topology
    /// always matches its sealed states. An act that bumps a shard holds it
    /// until it publishes the bumped view, so it is also what the waiting
    /// arm waits on ([`Store::view_at_least`]). It guards no data, so a
    /// panic under it poisons nothing: every taker recovers the guard.
    admin: Mutex<()>,
    /// Shards sealed by [`Store::seal_due`], the cadence's step.
    cadence_seals: Counter,
}

impl StoreCore {
    /// VIP slots admitted so far, `0..admitted_vips()`: the slots a seal
    /// leaves alone. Stable under the admin lock, which admission takes.
    fn admitted_vips(&self) -> usize {
        self.admission.issued().0
    }
}

/// Makes a store's teardown pay for its own frees. Dropping a store frees
/// three small allocations per retained one-op log cell (its decided
/// record, its batch's ops and the key) and a ~3 KB segment per 64 cells.
/// glibc parks small frees in its fast bins and coalesces them only in
/// bulk, inside the next *large* request; left alone, that is the first
/// large allocation of whatever runs
/// after the teardown (the next store's build, say), which is then billed
/// for hundreds of thousands of chunks it never owned. One large request
/// here is that trigger. It is the allocator's own mechanism, not a tuning:
/// on an allocator without deferred coalescing it is one wasted
/// `malloc`/`free` per store lifetime.
struct SettleAllocator;

impl Drop for SettleAllocator {
    fn drop(&mut self) {
        drop(std::hint::black_box(Vec::<u8>::with_capacity(64 << 10)));
    }
}

impl Store {
    /// Starts configuring a store.
    pub fn builder() -> StoreBuilder {
        StoreBuilder::new()
    }

    /// Admits a wait-free VIP client (bounded by the configured capacity),
    /// and makes its port's replica its own on every shard, so that no
    /// visit of the VIP ever copies a replica.
    ///
    /// Blocking: admission takes the admin lock, so it may wait out an admin
    /// act (a checkpoint, a split, a merge) that is already running; a
    /// reactor admits its VIP when it is built, never in a turn.
    /// That is what keeps a seal off an admitted VIP's slot: a seal
    /// re-bases only the slots of VIPs not yet admitted when it runs.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::VipCapacityExhausted`] once all `x` ports are owned.
    #[progress(blocking)]
    pub fn admit_vip(&self) -> Result<ClientTicket, AdmissionError> {
        let _admin = lock_unpoisoned(&self.core.admin);
        let ticket = self.core.admission.admit(ProgressClass::Vip)?;
        // A slot never used, or re-based by a seal, shares the anchor's
        // state until it is written: the copy is made here, not on a visit.
        for shard in &self.core.view.newest().shards {
            shard.visit(ticket.port(), OwnedHandle::own_replica);
        }
        Ok(ticket)
    }

    /// Admits an obstruction-free guest client (never fails).
    #[progress(wait_free)]
    pub fn admit_guest(&self) -> ClientTicket {
        self.core.admission.admit_guest()
    }

    /// The guest voice of a VIP ticket ([`Admission::guest_voice`]): a
    /// guest-class ticket whose commits go through the VIP's own port slot
    /// and replica, under the voice's own guest pid — the guest protocol,
    /// never the VIP's wait-free one. Everything else about it is a guest
    /// ticket's: group durability only. `None` for a guest ticket.
    #[progress(wait_free)]
    pub fn guest_voice(&self, ticket: ClientTicket) -> Option<ClientTicket> {
        self.core.admission.guest_voice(ticket)
    }

    /// The bounded arms' view source: the current view if the topology a
    /// `Moved` rejection pointed at is published, [`Input::NotYet`] if not
    /// — one wait-free load, never a wait.
    #[progress(wait_free)]
    fn view_published(&self, min_version: u64) -> Result<&StoreView, Input> {
        Some(self.core.view.newest())
            .filter(|view| view.topology.version() >= min_version)
            .ok_or(Input::NotYet)
    }

    /// Number of shard slots in the current topology (live **and**
    /// retired — shard ids are dense and stable, so merged-away shards
    /// keep their slot as tombstones).
    pub fn shards(&self) -> usize {
        self.core.view.newest().topology.shards()
    }

    /// Number of live (routable) shards in the current topology.
    pub fn live_shards(&self) -> usize {
        self.core.view.newest().topology.live_shards()
    }

    /// A clone of the current shard topology (version, split tree, seeds).
    pub fn topology(&self) -> ShardTopology {
        self.core.view.newest().topology.clone()
    }

    /// The per-shard liveness specification.
    pub fn spec(&self) -> Liveness {
        self.core.admission.spec()
    }

    /// The admission layer (capacity inspection, guest layout).
    pub fn admission(&self) -> &Admission {
        &self.core.admission
    }

    /// The shard owning `key` under the current topology.
    pub fn shard_of(&self, key: &str) -> usize {
        self.core.view.newest().topology.shard_of(key)
    }

    /// Wait-free store-wide statistics: for each shard, the freshest
    /// per-port commit digest.
    ///
    /// This is the VIP dashboard path — it loads each port's digest words
    /// once and never touches the consensus log, so it completes in a
    /// bounded number of steps regardless of guest contention. It is
    /// also the hot-shard detector: a shard whose `commits` digest runs away
    /// from the others is the one to [`split`](Store::split_shard).
    #[progress(wait_free)]
    pub fn snapshot_stats(&self) -> Vec<ShardDigest> {
        Self::digests(self.core.view.newest())
    }

    /// Every shard's digest in `view`: the freshest per-port digest plus
    /// the shard's local reads.
    #[progress(wait_free)]
    fn digests(view: &StoreView) -> Vec<ShardDigest> {
        view.shards
            .iter()
            .map(|shard| {
                let mut digest = shard
                    .digests
                    .iter()
                    .map(PortDigest::load)
                    .max_by_key(|d| d.commits)
                    .unwrap_or_default();
                // RELAXED: a statistic; heat needs no ordering against the
                // reads it counts.
                digest.commits += shard.local_reads.load(Ordering::Relaxed);
                digest
            })
            .collect()
    }

    /// The **live** shard with the most committed log cells — the hot
    /// shard under a skewed workload, read wait-free from the per-port
    /// digests (tombstones stop taking real traffic, so they are
    /// excluded no matter what their historical digests say).
    ///
    /// **Determinism:** ties — including the all-zero digests of an idle
    /// or freshly built store — resolve to the **lowest** live shard id.
    /// Root shards never retire, so the lowest live id always exists and
    /// the answer is stable across repeated calls on a quiescent store
    /// (it does not depend on iterator or `max_by` tie-breaking order).
    #[progress(wait_free)]
    pub fn hottest_shard(&self) -> usize {
        let view = self.core.view.newest();
        hottest_live(view, &Self::digests(view))
    }

    /// A wait-free scrape of every exported metric series: the registry's
    /// commit/reconfig/elastic instruments plus scrape-time topology
    /// gauges, the per-shard digest series and, if a WAL is attached, its
    /// series ([`Wal::scrape`]), ready for
    /// [`encode_prometheus`](apc_obs::encode_prometheus).
    ///
    /// This is the dashboard entry point, and it keeps the VIP dashboard
    /// contract of [`Store::snapshot_stats`]: the whole scrape is a
    /// bounded number of the scraper's own steps — register and atomic
    /// loads only, never a consensus-log append, a port lock, or
    /// the admin lock — so a monitoring poller can never
    /// steal progress from VIP clients. `apc-lint --deny` enforces this
    /// transitively.
    #[progress(wait_free)]
    pub fn scrape(&self) -> MetricsSnapshot {
        // One view and one collect: the hottest-shard gauge and the
        // per-shard series describe the same topology and digests.
        let view = self.core.view.newest();
        let stats = Self::digests(view);
        let mut samples = self.metrics.samples();
        let gauges: [(&'static str, &'static str, u64); 4] = [
            (
                "store_topology_version",
                "Version of the currently published shard topology.",
                view.topology.version(),
            ),
            (
                "store_shards_total",
                "Shard slots in the topology (live and retired tombstones).",
                view.topology.shards() as u64,
            ),
            (
                "store_shards_live",
                "Live (routable) shards in the topology.",
                view.topology.live_shards() as u64,
            ),
            (
                "store_hottest_shard",
                "Live shard with the most heat: cells plus local reads (lowest id on ties).",
                hottest_live(view, &stats) as u64,
            ),
        ];
        for (name, help, value) in gauges {
            samples.push(Sample {
                name,
                help,
                labels: Vec::new(),
                value: SampleValue::Gauge(value),
            });
        }
        for (s, d) in stats.into_iter().enumerate() {
            let labels = || {
                vec![("shard", format!("{s}")), ("live", format!("{}", view.topology.is_live(s)))]
            };
            samples.push(Sample {
                name: "store_shard_commits",
                help: "Heat per shard: committed log cells plus locally answered read rounds.",
                labels: labels(),
                value: SampleValue::Gauge(d.commits),
            });
            samples.push(Sample {
                name: "store_shard_entries",
                help: "Live keys per shard (freshest port digest).",
                labels: labels(),
                value: SampleValue::Gauge(d.entries),
            });
            samples.push(Sample {
                name: "store_shard_unsealed_cells",
                help: "Cells the shard's log holds past its anchor (tail minus anchor index).",
                labels: labels(),
                value: SampleValue::Gauge(view.shards[s].unsealed_cells()),
            });
        }
        samples.push(Sample {
            name: "store_cadence_seals_total",
            help: "Shards sealed by the seal cadence's step (Store::seal_due).",
            labels: Vec::new(),
            value: SampleValue::Counter(self.core.cadence_seals.get()),
        });
        Vec::extend(&mut samples, self.wal.iter().flat_map(|wal| wal.scrape().samples));
        MetricsSnapshot { samples }
    }

    /// Per-shard latest-checkpoint log indices (0 where no checkpoint was
    /// ever sealed): where a fresh handle on each shard starts replaying.
    pub fn anchor_indices(&self) -> Vec<u64> {
        self.core.view.newest().shards.iter().map(|shard| shard.log.anchor_index()).collect()
    }

    /// Total log cells replayed by this store's port handles since build —
    /// the replay-work meter summed across all shards and ports. A store
    /// recovered from a checkpoint at index `k` starts near zero here even
    /// though its logs resume at `k`.
    ///
    /// Sums each port's published digest word and enters no port, so it
    /// never waits on a commit in flight and never locks a VIP's port.
    #[progress(wait_free)]
    pub fn replay_steps(&self) -> u64 {
        self.core
            .view
            .newest()
            .shards
            .iter()
            .flat_map(|shard| &shard.digests)
            // RELAXED: see `PortDigest::publish`.
            .map(|digest| digest.steps.load(Ordering::Relaxed))
            .sum()
    }

    /// A VIP-tier commit: one universal-log append through the client's
    /// exclusively-owned port plus a digest publication and its metrics, in
    /// a bounded number of the caller's own steps. It does no housekeeping:
    /// no checkpoint seal and no reconfiguration ride this path.
    #[progress(bounded_wait_free)]
    fn commit_vip(
        &self,
        shard: &Shard,
        shard_id: usize,
        port: usize,
        sub: &mut SubBatch,
        durability: DurabilityClass,
        clock: &mut Option<Instant>,
    ) -> Vec<StoreResp> {
        let ops = sub.ops.len() as u64;
        let start = lap_start(*clock);
        let resps = self.commit_on(shard, shard_id, port, ProgressClass::Vip, sub, durability);
        let latency_ns = lap_end(clock, start);
        self.metrics.record_commit(ProgressClass::Vip, ops, latency_ns, count_moved(&resps));
        resps
    }

    /// A guest-tier commit: the same log append over a **shared** port
    /// (queued behind the port mutex), and no more housekeeping than a VIP
    /// commit does.
    #[progress(obstruction_free)]
    fn commit_guest(
        &self,
        shard: &Shard,
        shard_id: usize,
        port: usize,
        sub: &mut SubBatch,
        durability: DurabilityClass,
        clock: &mut Option<Instant>,
    ) -> Vec<StoreResp> {
        let ops = sub.ops.len() as u64;
        let start = lap_start(*clock);
        let resps = self.commit_on(shard, shard_id, port, ProgressClass::Guest, sub, durability);
        let latency_ns = lap_end(clock, start);
        self.metrics.record_commit(ProgressClass::Guest, ops, latency_ns, count_moved(&resps));
        resps
    }

    /// The tier-independent round body — the single funnel every request
    /// arm reaches. A sub-batch of reads is answered from the port's own
    /// replica, caught up to the log tail observed at invocation
    /// ([`OwnedHandle::sync_read`]), straight from the plan's ops: no log
    /// cell, no batch, nothing for the other ports to replay, no WAL
    /// work. A sub-batch with any write is one universal-log append plus a
    /// WAL effect frame (if a WAL is attached).
    /// Either way the round publishes its digest ([`Shard::visit`]); it
    /// seals nothing, so a seal happens only in an admin act
    /// ([`Store::checkpoint`], the cadence's [`Store::seal_due`], a split, a
    /// merge, or [`Store::rebalance`]).
    fn commit_on(
        &self,
        shard: &Shard,
        shard_id: usize,
        port: usize,
        tier: ProgressClass,
        sub: &mut SubBatch,
        durability: DurabilityClass,
    ) -> Vec<StoreResp> {
        shard.visit(port, |handle| {
            let replayed = handle.replay_steps();
            let resps =
                match handle.sync_read(|state| read_sub_batch(state, sub.planned_at, &sub.ops)) {
                    Some(resps) => {
                        // RELAXED: heat statistic, read by `snapshot_stats`.
                        shard.local_reads.fetch_add(1, Ordering::Relaxed);
                        self.metrics.record_local_read(tier);
                        resps
                    }
                    None => self.append_on(handle, port, shard_id, sub, durability),
                };
            self.metrics.record_replayed(tier, handle.replay_steps() - replayed);
            resps
        })
    }

    /// The appending half of [`Store::commit_on`]: one universal-log append
    /// of `sub`'s ops as process `pid` through the locked port `handle`
    /// that holds it and, if a WAL is attached, the commit's effect frame.
    /// On a thread that decodes the keys it commits (a server's reactor,
    /// [`crate::ops::key_from`]) the cell keeps a [`PackedBatch`] copy and
    /// the ops stay `sub`'s, whose keys the round hands back to the
    /// thread's spares; any other caller's ops move into the cell as a
    /// [`Batch`], as allocated, rather than be copied and freed here, and a
    /// bounced append hands a copy of them back to `sub`.
    fn append_on(
        &self,
        handle: &mut PortHandle,
        pid: usize,
        shard_id: usize,
        sub: &mut SubBatch,
        durability: DurabilityClass,
    ) -> Vec<StoreResp> {
        let (cmd, moved) = if keeps_spare_keys(sub.ops.len()) {
            (ShardCmd::Packed(PackedBatch::new(sub.planned_at, &sub.ops)), None)
        } else {
            let batch = Batch::new(sub.planned_at, std::mem::take(&mut sub.ops));
            let ops = Arc::clone(&batch.ops);
            (ShardCmd::Batch(batch), Some(ops))
        };
        // Called by path so that apc-lint, which resolves `x.apply_as(..)`
        // by name, sees the one target.
        let resps = OwnedHandle::apply_as(handle, pid, cmd)
            .expect("the port door hands a pid the slot that holds it");
        if let Some(ops) = moved.as_ref().filter(|_| count_moved(&resps) > 0) {
            sub.ops.extend(ops.iter().cloned());
        }
        let ops = moved.as_deref().unwrap_or(&sub.ops[..]);
        if let Some(wal) = &self.wal {
            // Frame the commit's resolved effects while still holding the
            // port lock: the handle's replay cursor is exactly one past
            // this batch's log cell here, giving the frame its exact
            // per-shard linearization stamp. The enqueue is a bounded
            // encode-and-append into the group-commit buffer — fsync never
            // happens under a port lock; a VIP that wants it blocks in
            // `Client::request`, after every lock is released.
            let effects = crate::wal::resolved_effects(ops, &resps);
            if !effects.is_empty() {
                // APC-LINT: allow(progress): durability is its own progress class (the module's thesis): logging an effect frame is a bounded buffer append under the WAL mutex, whose critical sections are all bounded memcpys — never an fsync
                wal.enqueue(&WalFrame {
                    epoch: handle.local_state().epoch(),
                    shard: shard_id as u32,
                    cell: handle.replayed_cells(),
                    class: durability,
                    effects,
                });
            }
        }
        resps
    }

    /// Plans `ops` under `view` and commits one sub-batch per touched shard
    /// through `commit_sub`, on the session's `clock`: one round, whose
    /// responses come back in invocation order (stale sub-batches as
    /// [`StoreResp::Moved`]). The ops are the round's; each sub-batch's go
    /// to its commit, which hands them back if the shard bounced them, and
    /// only those operations are copied out for the retry. A round whose
    /// ops all route to one shard is planned in the router's one-shard
    /// form and commits through the same closure: its ops are the
    /// sub-batch and the shard's responses are the round's, so nothing is
    /// split or reassembled. The tier is the closure's: each request arm's
    /// names its own commit fn inside the arm's annotated body, which is
    /// where apc-lint reads the class.
    fn execute_in(
        view: &StoreView,
        ops: Vec<StoreOp>,
        clock: &mut Option<Instant>,
        mut commit_sub: impl FnMut(&Shard, usize, &mut SubBatch, &mut Option<Instant>) -> Vec<StoreResp>,
    ) -> Input {
        let planned_at = view.topology.version();
        let mut bounced: Vec<(usize, Vec<StoreOp>)> = Vec::new();
        let (resps, reassembly) = view.topology.plan(ops).commit_each(|s, ops| {
            let mut sub = SubBatch { planned_at, ops };
            let resps = commit_sub(&view.shards[s], s, &mut sub, clock);
            if count_moved(&resps) > 0 {
                bounced.push((s, sub.ops));
            } else {
                recycle_keys(sub.ops);
            }
            resps
        });
        let sub_batch = |s| bounced.iter().find(|(b, _)| *b == s).map(|(_, ops)| &ops[..]);
        let bounced = reassembly.bounced(&resps, sub_batch);
        Input::Landed { resps, bounced }
    }

    /// Drives `plan` to completion: the first round on the current view,
    /// then — while the engine answers [`Transition::Retry`] — a view from
    /// `seek_view` and another round over exactly the slots still bounced,
    /// so an applied operation is never re-issued. `commit_sub` carries the
    /// arm's tier ([`Store::execute_in`]), `seek_view` whether the arm waits
    /// for a topology ([`Store::view_at_least`]) or not
    /// ([`Store::view_published`]). Every commit is timed on the session's
    /// `clock` ([`Client::lend_clock`]). The deadline clock starts before
    /// the first round only if an envelope of the run carries a deadline —
    /// at the session's reading, if it was lent one — and
    /// [`Replan::advance`] reads it only for those envelopes' bounced
    /// slots, off a lent session's reading (the last commit's end) rather
    /// than a fresh one: a run without a deadline reads no clock for it.
    fn replan<'s>(
        &'s self,
        mut plan: Replan,
        clock: &mut Option<Instant>,
        mut commit_sub: impl FnMut(&Shard, usize, &mut SubBatch, &mut Option<Instant>) -> Vec<StoreResp>,
        mut seek_view: impl FnMut(u64) -> Result<&'s StoreView, Input>,
    ) -> Responses {
        let started = plan.has_deadline().then(|| lap_start(*clock));
        let mut view = Ok(self.core.view.newest());
        loop {
            let input = match view {
                Ok(view) => Store::execute_in(view, plan.due_ops(), clock, &mut commit_sub),
                Err(unpublished) => unpublished,
            };
            let elapsed = || {
                started.map_or(Duration::ZERO, |t| lap_start(*clock).saturating_duration_since(t))
            };
            match plan.advance(input, elapsed) {
                Transition::Retry { need } => view = seek_view(need),
                Transition::Done => return plan.into_responses(),
            }
        }
    }

    /// The attached op-granular WAL, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }
}

/// The live shard of `view` with the most heat in `stats` (one digest per
/// shard slot of `view`); ties go to the lowest id.
fn hottest_live(view: &StoreView, stats: &[ShardDigest]) -> usize {
    stats
        .iter()
        .enumerate()
        .filter(|&(s, _)| view.topology.is_live(s))
        .max_by_key(|&(s, d)| (d.commits, std::cmp::Reverse(s)))
        .map_or(0, |(s, _)| s)
}

/// One shard's part of a round, as a commit takes it: its operations, in
/// invocation order, and the topology version they were planned under. A
/// read-only one is answered from these ops where they are; only an append
/// takes them into a log cell ([`Store::append_on`]). If the shard bounces
/// the sub-batch, its ops are here again when the commit returns.
#[derive(Debug)]
struct SubBatch {
    planned_at: u64,
    ops: Vec<StoreOp>,
}

/// Where a commit starts on a session's clock: at the session's reading,
/// if its caller lent it one ([`Client::lend_clock`]), else at a fresh one.
#[progress(wait_free)]
fn lap_start(clock: Option<Instant>) -> Instant {
    clock.unwrap_or_else(Instant::now)
}

/// Ends a commit that started at `start`: one fresh reading, which a lent
/// session keeps as its reading. Returns the commit's nanoseconds.
#[progress(wait_free)]
fn lap_end(clock: &mut Option<Instant>, start: Instant) -> u64 {
    let end = Instant::now();
    if let Some(reading) = clock {
        *reading = end;
    }
    nanos(end.saturating_duration_since(start))
}

/// Operations in `resps` bounced by a reconfiguration epoch check.
fn count_moved(resps: &[StoreResp]) -> u64 {
    resps.iter().filter(|r| matches!(r, StoreResp::Moved { .. })).count() as u64
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let view = self.core.view.newest();
        f.debug_struct("Store")
            .field("shards", &view.topology.shards())
            .field("topology_version", &view.topology.version())
            .field("spec", &self.core.admission.spec())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Request, Response};
    use std::sync::atomic::AtomicU64;

    pub(super) fn small_store(shards: usize) -> Store {
        StoreBuilder::new().shards(shards).vip_capacity(2).guest_ports(4).build().unwrap()
    }

    /// The first `count` keys of the `key/NNNN` namespace that `topology`
    /// routes to `shard` — how a test aims its traffic at one shard.
    pub(super) fn keys_on_shard(
        topology: &ShardTopology,
        shard: usize,
        count: usize,
    ) -> Vec<String> {
        // Nothing routes to a tombstone, so the unbounded scan below would
        // spin forever on a retired shard; fail loudly instead.
        assert!(topology.is_live(shard), "shard {shard} is retired; no key routes to it");
        (0u64..)
            .map(|i| format!("key/{i:04}"))
            .filter(|k| topology.shard_of(k) == shard)
            .take(count)
            .collect()
    }

    #[test]
    fn builder_defaults_build() {
        let store = StoreBuilder::new().build().unwrap();
        assert_eq!(store.shards(), 4);
        assert_eq!(store.spec().x(), 2);
        assert_eq!(store.spec().y(), 10, "two VIPs, six guest ports, two voices");
        assert_eq!(store.admission().ports(), 8);
        assert_eq!(store.topology().version(), 0);
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(StoreBuilder::new().shards(0).build().is_err());
    }

    #[test]
    fn snapshot_stats_track_commits_wait_free() {
        let store = small_store(2);
        let before = store.snapshot_stats();
        assert_eq!(before.len(), 2);
        assert!(before.iter().all(|d| d.commits == 0 && d.entries == 0));
        let mut c = store.client(store.admit_vip().unwrap());
        for i in 0..8 {
            c.put(&format!("k{i}"), i);
        }
        let after = store.snapshot_stats();
        let total_entries: u64 = after.iter().map(|d| d.entries).sum();
        assert_eq!(total_entries, 8, "digests cover every committed key");
        assert!(after.iter().any(|d| d.commits > 0));
    }

    #[test]
    fn hottest_shard_on_all_zero_digests_is_the_lowest_live_id() {
        // A fresh store has all-zero digests: the documented answer is the
        // lowest live shard id (always 0 — roots never retire), stable
        // across calls, not an accident of max_by tie-breaking order.
        let store = small_store(3);
        assert!(store.snapshot_stats().iter().all(|d| d.commits == 0));
        assert_eq!(store.hottest_shard(), 0);
        assert_eq!(store.hottest_shard(), 0, "idle answer is stable");
    }

    #[test]
    fn hottest_shard_ties_resolve_to_the_lowest_id() {
        // One commit per shard: every digest ties, so the lowest id wins.
        let store = small_store(3);
        let mut c = store.client(store.admit_vip().unwrap());
        for shard in 0..3 {
            let key = (0..).map(|i| format!("t{i}")).find(|k| store.shard_of(k) == shard).unwrap();
            c.put(&key, 1);
        }
        let stats = store.snapshot_stats();
        assert!(stats.iter().all(|d| d.commits == stats[0].commits), "tie precondition");
        assert_eq!(store.hottest_shard(), 0);
    }

    #[test]
    fn hottest_shard_skips_retired_shards_and_tracks_heat() {
        let store = small_store(1);
        let mut c = store.client(store.admit_guest());
        for i in 0..8 {
            c.put(&format!("k{i}"), i);
        }
        let child = store.split_shard(0).unwrap();
        // Heat the child, then retire it: a tombstone's historical digests
        // must never elect it.
        let on_child = (0..).map(|i| format!("c{i}")).find(|k| store.shard_of(k) == child).unwrap();
        for i in 0..16 {
            c.put(&on_child, i);
        }
        assert_eq!(store.hottest_shard(), child);
        store.merge_shard(child).unwrap();
        assert_eq!(store.hottest_shard(), 0, "only live shards are eligible");
    }

    #[test]
    fn a_scrape_elects_its_hottest_shard_from_its_own_series() {
        use std::sync::atomic::AtomicBool;
        let store = small_store(2);
        let stop = AtomicBool::new(false);
        let mut scrapes = 0;
        std::thread::scope(|s| {
            let (store, stop) = (&store, &stop);
            s.spawn(move || {
                let mut c = store.client(store.admit_guest());
                for i in (0u64..).take_while(|_| !stop.load(Ordering::Acquire)) {
                    c.put(&format!("k{}", i % 64), i);
                }
            });
            s.spawn(move || {
                for _ in 0..32 {
                    let child = store.split_shard(0).unwrap();
                    std::thread::yield_now();
                    store.merge_shard(child).unwrap();
                }
                stop.store(true, Ordering::Release);
            });
            while !stop.load(Ordering::Acquire) || scrapes == 0 {
                let snap = store.scrape();
                let live: Vec<(u64, u64)> = snap
                    .samples
                    .iter()
                    .filter(|x| x.name == "store_shard_commits")
                    .filter(|x| x.labels.contains(&("live", "true".to_string())))
                    .map(|x| match x.value {
                        SampleValue::Gauge(commits) => (x.labels[0].1.parse().unwrap(), commits),
                        _ => panic!("store_shard_commits is a gauge"),
                    })
                    .collect();
                let most = live.iter().map(|&(_, commits)| commits).max().unwrap();
                let want = live.iter().filter(|&&(_, commits)| commits == most).min().unwrap().0;
                assert_eq!(snap.value("store_hottest_shard", &[]), Some(want), "{live:?}");
                scrapes += 1;
            }
        });
        assert!(scrapes > 0);
    }

    #[test]
    fn scrape_exports_tier_topology_and_shard_series() {
        let store = small_store(2);
        let mut v = store.client(store.admit_vip().unwrap());
        let mut g = store.client(store.admit_guest());
        for i in 0..5 {
            v.put(&format!("v{i}"), i);
        }
        for i in 0..3 {
            g.put(&format!("g{i}"), i);
        }
        let snap = store.scrape();
        let vip = snap.value("store_commits_total", &[("tier", "vip")]).unwrap();
        let guest = snap.value("store_commits_total", &[("tier", "guest")]).unwrap();
        assert_eq!(vip, 5, "one single-op batch per put, one commit each");
        assert_eq!(guest, 3);
        assert_eq!(snap.value("store_moved_ops_total", &[("tier", "vip")]), Some(0));
        let lat = snap.histogram("store_commit_latency_ns", &[("tier", "vip")]).unwrap();
        assert_eq!(lat.count, vip, "every commit is timed");
        let ops = snap.histogram("store_commit_ops", &[("tier", "guest")]).unwrap();
        assert_eq!(ops.sum, 3, "three single-op guest batches");
        assert_eq!(snap.value("store_topology_version", &[]), Some(0));
        assert_eq!(snap.value("store_shards_total", &[]), Some(2));
        assert_eq!(snap.value("store_shards_live", &[]), Some(2));
        let per_shard: u64 = (0..2)
            .map(|s| {
                let shard = format!("{s}");
                snap.value("store_shard_entries", &[("shard", &shard)]).unwrap()
            })
            .sum();
        assert_eq!(per_shard, 8, "per-shard entry gauges cover every key");
        let text = apc_obs::encode_prometheus(&snap);
        assert!(text.contains("store_commits_total{tier=\"vip\"} 5"));
        assert!(text.contains("# TYPE store_commit_latency_ns histogram"));
    }

    #[test]
    fn tier_counters_are_exact_under_a_concurrent_scrape() {
        use crate::router::splitmix64;
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        const VIPS: usize = 2;
        const GUESTS: usize = 4;
        const OPS: u64 = 200;
        let store = small_store(4);
        let tickets: Vec<ClientTicket> = (0..VIPS)
            .map(|_| store.admit_vip().unwrap())
            .chain((0..GUESTS).map(|_| store.admit_guest()))
            .collect();
        // Single-op requests over 32 keys: every op is one commit on one
        // shard, and the stream is a function of (client, step) alone.
        let op_of = |client: usize, step: u64| {
            let r = splitmix64((client as u64) << 32 | step);
            let key = format!("key/{:02}", r % 32);
            match (r >> 8) % 4 {
                0 => StoreOp::Get(key),
                1 => StoreOp::Put(key, step),
                2 => StoreOp::Cas { key, expect: None, new: step },
                _ => StoreOp::Remove(key),
            }
        };
        let reads_of = |clients: std::ops::Range<usize>| {
            clients
                .flat_map(|c| (0..OPS).map(move |step| (c, step)))
                .filter(|&(c, step)| op_of(c, step).is_read())
                .count() as u64
        };

        let start = Barrier::new(VIPS + GUESTS + 1);
        let stop = AtomicBool::new(false);
        let scrapes = AtomicU64::new(0);
        std::thread::scope(|s| {
            let (store, start, stop, scrapes) = (&store, &start, &stop, &scrapes);
            s.spawn(move || {
                // The poller: a full registry read + text encoding per
                // loop, from the first commit of the storm to the last.
                start.wait();
                let mut last = [0u64; 2];
                while !stop.load(Ordering::Acquire) {
                    let snap = store.scrape();
                    let text = apc_obs::encode_prometheus(&snap);
                    // Counted before anything below can fail: the clients
                    // wait on it.
                    scrapes.fetch_add(1, Ordering::Release);
                    assert!(!text.is_empty());
                    for (seen, (tier, clients)) in
                        last.iter_mut().zip([("vip", VIPS), ("guest", GUESTS)])
                    {
                        let now = snap.value("store_commits_total", &[("tier", tier)]).unwrap();
                        assert!(*seen <= now, "{tier} commits never run backwards");
                        assert!(now <= clients as u64 * OPS, "{tier} commits never run ahead");
                        *seen = now;
                    }
                }
            });
            let clients: Vec<_> = tickets
                .iter()
                .enumerate()
                .map(|(i, ticket)| {
                    s.spawn(move || {
                        let mut client = store.client(*ticket);
                        start.wait();
                        for step in 0..OPS {
                            if step == OPS / 2 {
                                // Hold the storm open until a scrape that
                                // began inside it has finished.
                                while scrapes.load(Ordering::Acquire) == 0 {
                                    std::thread::yield_now();
                                }
                            }
                            assert!(client.execute(vec![op_of(i, step)])[0].is_ok());
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join().expect("client thread");
            }
            stop.store(true, Ordering::Release);
        });

        let snap = store.scrape();
        for (tier, clients) in [("vip", 0..VIPS), ("guest", VIPS..VIPS + GUESTS)] {
            let labels = [("tier", tier)];
            let commits = snap.value("store_commits_total", &labels).unwrap();
            assert_eq!(commits, clients.len() as u64 * OPS, "every {tier} commit is counted once");
            let lat = snap.histogram("store_commit_latency_ns", &labels).unwrap();
            assert_eq!(lat.count, commits, "every {tier} commit is timed once");
            let local = snap.value("store_local_reads_total", &labels).unwrap();
            assert_eq!(local, reads_of(clients), "every {tier} read-only round is counted once");
        }
    }

    #[test]
    fn scrape_tracks_reconfig_events_and_tombstones() {
        let store = small_store(1);
        let mut c = store.client(store.admit_guest());
        for i in 0..8 {
            c.put(&format!("k{i}"), i);
        }
        let child = store.split_shard(0).unwrap();
        let snap = store.scrape();
        assert_eq!(snap.value("store_reconfigs_total", &[("kind", "split")]), Some(1));
        assert_eq!(snap.value("store_reconfig_last_version", &[]), Some(1));
        assert_eq!(snap.value("store_topology_version", &[]), Some(1));
        store.merge_shard(child).unwrap();
        let snap = store.scrape();
        assert_eq!(snap.value("store_reconfigs_total", &[("kind", "merge")]), Some(1));
        assert_eq!(snap.value("store_reconfig_last_version", &[]), Some(2));
        assert_eq!(snap.value("store_shards_total", &[]), Some(2));
        assert_eq!(snap.value("store_shards_live", &[]), Some(1));
        let tomb = snap.value("store_shard_commits", &[("shard", "1"), ("live", "false")]);
        assert!(tomb.is_some(), "retired shards stay exported, labelled live=\"false\"");
    }

    #[test]
    fn debug_renders() {
        let store = small_store(1);
        let c = store.client(store.admit_guest());
        assert!(format!("{store:?}").contains("Store"));
        assert!(format!("{c:?}").contains("Guest"));
    }

    /// A scratch file under the workspace target dir, unique per test.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-unit-tests");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    #[test]
    fn persist_and_recover_roundtrip() {
        let path = scratch("roundtrip.snapshot");
        let expected: Vec<(String, u64)> = {
            let store = small_store(2);
            let mut c = store.client(store.admit_vip().unwrap());
            for i in 0..16 {
                c.put(&format!("key/{i:02}"), i * 10);
            }
            c.remove("key/03");
            store.checkpoint().write_to(&path).unwrap();
            // Committed after the flush: must NOT survive the crash.
            c.put("late", 1);
            c.scan("", "z").into_iter().filter(|(k, _)| k != "late").collect()
        }; // store dropped = crash
        let recovered = StoreBuilder::new().vip_capacity(2).guest_ports(4).recover(&path).unwrap();
        assert_eq!(recovered.shards(), 2, "shard count restored from the snapshot");
        let mut c = recovered.client(recovered.admit_vip().unwrap());
        assert_eq!(c.scan("", "z"), expected);
        assert_eq!(c.get("late"), None, "post-flush ops are not durable");
        // The recovered store serves new commits.
        assert_eq!(c.put("fresh", 5), None);
        assert_eq!(c.get("fresh"), Some(5));
    }

    #[test]
    fn recovered_logs_resume_at_the_checkpointed_index() {
        let path = scratch("resume-index.snapshot");
        let snapshot = {
            let store = small_store(2);
            let mut c = store.client(store.admit_guest());
            for i in 0..12 {
                c.put(&format!("k{i}"), i);
            }
            let snapshot = store.checkpoint();
            snapshot.write_to(&path).unwrap();
            snapshot
        };
        let recovered = StoreBuilder::new().vip_capacity(2).guest_ports(4).recover(&path).unwrap();
        assert_eq!(
            recovered.anchor_indices(),
            snapshot.shards.iter().map(|s| s.log_index).collect::<Vec<_>>(),
            "each shard log resumes where its checkpoint sealed it"
        );
        assert_eq!(recovered.replay_steps(), 0, "recovery replays nothing at boot");
        let mut c = recovered.client(recovered.admit_guest());
        let _ = c.get("k0");
        assert!(
            recovered.replay_steps() <= 2,
            "first op after recovery costs O(1) replay, got {}",
            recovered.replay_steps()
        );
    }

    #[test]
    fn recovered_and_newborn_shards_report_their_keys_before_any_visit() {
        let path = scratch("seeded-digests.snapshot");
        let keys: Vec<String> = (0..20).map(|i| format!("k{i}")).collect();
        let snapshot = {
            let store = small_store(2);
            let mut c = store.client(store.admit_guest());
            for (i, key) in keys.iter().enumerate() {
                c.put(key, i as u64);
            }
            let snapshot = store.checkpoint();
            snapshot.write_to(&path).unwrap();
            snapshot
        };
        // Nothing has touched the recovered store: each shard reports the
        // state and the log index it resumed from.
        let recovered = StoreBuilder::new().vip_capacity(2).guest_ports(4).recover(&path).unwrap();
        let expected: Vec<ShardDigest> = snapshot
            .shards
            .iter()
            .map(|s| ShardDigest { commits: s.log_index, entries: s.state.entries().len() as u64 })
            .collect();
        assert_eq!(recovered.snapshot_stats(), expected);
        // The split's child reports its migrated keys before its first
        // commit, and the two halves still add up to every key.
        let child = recovered.split_shard(0).unwrap();
        let topology = recovered.topology();
        let on_child = keys.iter().filter(|k| topology.shard_of(k) == child).count() as u64;
        assert!(on_child > 0, "the split must migrate keys to the child");
        let stats = recovered.snapshot_stats();
        assert_eq!(stats[child], ShardDigest { commits: 0, entries: on_child });
        assert_eq!(stats.iter().map(|d| d.entries).sum::<u64>(), keys.len() as u64);
    }

    #[test]
    fn recover_missing_file_is_a_typed_error() {
        let err = StoreBuilder::new().recover(scratch("does-not-exist.snapshot")).unwrap_err();
        assert!(matches!(
            err,
            crate::persist::RecoverError::Persist(crate::persist::PersistError::Io { .. })
        ));
    }

    /// Concurrent `persist` calls take turns under the flush lock: each
    /// runs a cycle of its own, and the last file holds every key.
    #[test]
    fn concurrent_persists_each_run_their_own_cycle() {
        use crate::persist::Persister;
        let path = scratch("concurrent-persists.snapshot");
        let store = small_store(2);
        let mut c = store.client(store.admit_vip().unwrap());
        for i in 0..8 {
            c.put(&format!("k{i}"), i);
        }
        let persister = Persister::new(&path);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| persister.persist(&store).unwrap());
            }
        });
        assert_eq!(persister.flushes(), 8, "one cycle per call");
        let recovered = StoreBuilder::new().vip_capacity(2).guest_ports(4).recover(&path).unwrap();
        let mut check = recovered.client(recovered.admit_guest());
        assert_eq!(check.scan("", "z").len(), 8);
    }

    /// `replay_steps` enters no port: with a VIP's slot held by another
    /// thread (as its owner's commit would), it still answers at once,
    /// from the published digest words.
    #[test]
    fn replay_steps_never_waits_on_a_vip_port() {
        let store = small_store(2);
        let ticket = store.admit_vip().unwrap();
        let mut c = store.client(ticket);
        for i in 0..4 {
            c.put(&format!("k{i}"), i);
        }
        let steps = store.replay_steps();
        assert!(steps > 0);
        let view = store.core.view.newest();
        let held = view.shards[store.shard_of("k0")].ports[ticket.port()].lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let store = &store;
        let answer = std::thread::scope(|s| {
            s.spawn(move || tx.send(store.replay_steps()));
            let answer = rx.recv_timeout(Duration::from_secs(1));
            drop(held);
            answer
        });
        assert_eq!(answer, Ok(steps), "replay_steps waited on a VIP's port");
    }

    /// Every port's replay cursor on every shard, `[shard][port]`.
    pub(super) fn cursors(store: &Store) -> Vec<Vec<u64>> {
        store
            .core
            .view
            .newest()
            .shards
            .iter()
            .map(|sh| sh.ports.iter().map(|p| p.lock().unwrap().replayed_cells()).collect())
            .collect()
    }

    pub(super) fn tier_counter(store: &Store, name: &str) -> u64 {
        let snap = store.scrape();
        ["vip", "guest"].iter().map(|t| snap.value(name, &[("tier", t)]).unwrap()).sum()
    }

    pub(super) fn reads(keys: &[String]) -> Request {
        Request::new(keys.iter().cloned().map(StoreOp::Get).collect()).retry_budget(8)
    }

    #[test]
    fn read_only_rounds_take_no_log_cell() {
        let store = StoreBuilder::new().shards(2).vip_capacity(2).guest_ports(4).build().unwrap();
        let mut vip = store.client(store.admit_vip().unwrap());
        let mut guest = store.client(store.admit_guest());
        let keys: Vec<String> = (0..8).map(|i| format!("r/{i}")).collect();
        for (i, k) in keys.iter().enumerate() {
            guest.put(k, i as u64);
        }
        // Catch both sessions' ports up on both shards.
        assert_eq!(vip.scan("", "z").len(), 8);
        assert_eq!(guest.scan("", "z").len(), 8);
        let (cursors0, anchors0) = (cursors(&store), store.anchor_indices());
        let (steps0, rounds0) = (store.replay_steps(), tier_counter(&store, "store_commits_total"));
        let (local0, replayed0) = (
            tier_counter(&store, "store_local_reads_total"),
            tier_counter(&store, "store_replayed_cells_total"),
        );

        let mut issued = 0;
        for i in 0..250 {
            let k = &keys[i % keys.len()];
            assert_eq!(vip.get(k), Some((i % keys.len()) as u64));
            assert_eq!(
                guest.request_guest(reads(&keys[..1])).results[0],
                Ok(StoreResp::Value(Some(0)))
            );
            issued += 2;
            // A scan is one round per shard, and so is a two-shard batch.
            assert_eq!(vip.request_vip(reads(&keys)).results.len(), 8);
            assert_eq!(guest.scan("r/", "r/9").len(), 8);
            let many = guest.request_guest_many(vec![reads(&keys[..4]), reads(&keys[4..])]);
            assert!(many.iter().all(Response::is_ok));
            issued += 6;
        }
        assert!(issued >= 1_000);
        assert_eq!(cursors(&store), cursors0, "no port of any shard replayed a cell");
        assert_eq!(store.anchor_indices(), anchors0);
        assert_eq!(store.replay_steps(), steps0);
        assert_eq!(tier_counter(&store, "store_commits_total") - rounds0, issued);
        assert_eq!(tier_counter(&store, "store_local_reads_total") - local0, issued);
        assert_eq!(tier_counter(&store, "store_replayed_cells_total"), replayed0);
        // Had any read proposed, its cell would be decided and this put
        // would land past it.
        let shard = store.shard_of(&keys[0]);
        let tail = cursors0[shard].iter().copied().max().unwrap();
        vip.put(&keys[0], 99);
        assert_eq!(cursors(&store)[shard][vip.ticket().port()], tail + 1);
        assert_eq!(guest.get(&keys[0]), Some(99), "the other port catches up by reading");
    }

    #[test]
    fn mixed_envelope_appends_whole_and_reads_its_own_write() {
        let store = small_store(1);
        let mut c = store.client(store.admit_vip().unwrap());
        c.put("k", 1);
        let local0 = tier_counter(&store, "store_local_reads_total");
        let cells0 = cursors(&store)[0][c.ticket().port()];
        let resp = c.request(Request::new(vec![
            StoreOp::Get("k".into()),
            StoreOp::Put("k".into(), 5),
            StoreOp::Get("k".into()),
        ]));
        assert_eq!(
            resp.results,
            vec![
                Ok(StoreResp::Value(Some(1))),
                Ok(StoreResp::Value(Some(1))),
                Ok(StoreResp::Value(Some(5)))
            ]
        );
        assert_eq!(cursors(&store)[0][c.ticket().port()], cells0 + 1, "one cell for the lot");
        assert_eq!(tier_counter(&store, "store_local_reads_total"), local0);
    }

    #[test]
    fn a_read_planned_before_a_split_bounces_at_the_old_shard() {
        let store = small_store(2);
        let vip = store.admit_vip().unwrap();
        let mut c = store.client(vip);
        let keys: Vec<String> = (0..16).map(|i| format!("s/{i:02}")).collect();
        for (i, k) in keys.iter().enumerate() {
            c.put(k, i as u64);
        }
        let stale = store.core.view.newest();
        store.split_shard(1).unwrap();
        // The split driver absorbed its bump before it published, so the
        // reader's catch-up crosses it and the stale plan bounces whole at
        // shard 1. Shard 0 did not split and answers its part, and so its
        // half of the scan; the scan bounces all the same, because shard 1
        // bounced its copy — the retry's copy comes from there.
        let mut ops: Vec<StoreOp> = keys.iter().cloned().map(StoreOp::Get).collect();
        ops.push(StoreOp::Scan { from: "s/".into(), to: "s/99".into() });
        let round = Store::execute_in(stale, ops.clone(), &mut None, |shard, s, sub, clock| {
            store.commit_vip(shard, s, vip.port(), sub, DurabilityClass::Group, clock)
        });
        let Input::Landed { resps, bounced } = round else { panic!("a round over a view lands") };
        let split = |op: &StoreOp| op.routing_key().is_none_or(|k| stale.topology.shard_of(k) == 1);
        for ((op, resp), value) in ops.iter().zip(&resps).zip(0..) {
            let want = if split(op) {
                StoreResp::Moved { epoch: 1 }
            } else {
                StoreResp::Value(Some(value))
            };
            assert_eq!(resp, &want, "{op:?}");
        }
        // The retry carries exactly the bounced operations, unchanged and
        // in invocation order — copied back out of the sub-batch that
        // bounced them, the scan once.
        let want: Vec<StoreOp> = ops.iter().filter(|op| split(op)).cloned().collect();
        assert!(want.len() > 1 && want.len() < ops.len(), "both shards hold keys: {want:?}");
        assert_eq!(bounced, want);
        let fresh = c.request_vip(reads(&keys));
        let want: Vec<_> = (0..16).map(|i| Ok(StoreResp::Value(Some(i)))).collect();
        assert_eq!(fresh.results, want);
    }

    #[test]
    fn a_one_shard_write_planned_before_a_split_bounces_whole_and_lands_once() {
        let store = small_store(2);
        let vip = store.admit_vip().unwrap();
        let mut c = store.client(vip);
        let moved = |s: &Store| s.scrape().value("store_moved_ops_total", &[("tier", "vip")]);
        let stale = store.core.view.newest();
        let k = keys_on_shard(&stale.topology, 1, 2);
        store.split_shard(1).unwrap();
        let one = vec![StoreOp::Put(k[0].clone(), 1)];
        let two = vec![
            StoreOp::Put(k[1].clone(), 2),
            StoreOp::Cas { key: k[1].clone(), expect: Some(2), new: 3 },
        ];
        let mut landed = Vec::new();
        for ops in [one, two] {
            assert!(stale.topology.plan(ops.clone()).active_shards().eq([1]), "{ops:?}");
            let before = moved(&store).unwrap();
            // Planned under the stale view, the request is shard 1's
            // sub-batch as it came: it bounces whole, and the round hands
            // back exactly its ops, in order.
            let round = Store::execute_in(stale, ops.clone(), &mut None, |shard, s, sub, clock| {
                store.commit_vip(shard, s, vip.port(), sub, DurabilityClass::Group, clock)
            });
            let Input::Landed { resps, bounced } = round else {
                panic!("a round over a view lands")
            };
            assert_eq!(resps, vec![StoreResp::Moved { epoch: 1 }; ops.len()]);
            assert_eq!(bounced, ops);
            // Re-planned on the published view, each write lands once.
            landed.push(c.request_vip(Request::new(bounced).retry_budget(4)).results);
            assert_eq!(moved(&store).unwrap() - before, ops.len() as u64, "{ops:?}");
        }
        let cas = StoreResp::Cas { ok: true, actual: Some(2) };
        assert_eq!(landed[0], vec![Ok(StoreResp::Value(None))], "the put did not land twice");
        assert_eq!(landed[1], vec![Ok(StoreResp::Value(None)), Ok(cas)], "the CAS saw the put");
        assert_eq!((c.get(&k[0]), c.get(&k[1])), (Some(1), Some(3)));
    }
}
