//! The store itself: builder, shards, live splits, and client sessions.
//!
//! A [`Store`] is a set of independent shards, each a
//! [`Universal`]`<`[`ShardSpec`](crate::ops::ShardSpec)`>` driven by `(y,x)`-live
//! [`AsymmetricFactory`] consensus cells, fronted by the admission layer's
//! port discipline:
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
//! The shard set is **elastic in both directions**: [`Store::split_shard`]
//! carves a hot shard in two without stopping commits, and
//! [`Store::merge_shard`] retires a cold child back into its parent — the
//! inverse bump. A split installs a [`SplitSpec`] record through the
//! shard's own consensus log inside a sealed
//! [`ReconfigRecord`](apc_universal::ReconfigRecord) cell, so it
//! linearizes against every concurrent VIP/guest batch: commits before the
//! bump migrate with the sealed state, commits after it bounce with
//! [`StoreResp::Moved`] and are re-planned by the client against the newly
//! published topology. A merge crosses **both** logs: a sealed
//! [`MergeSpec`] retirement through the child (draining its state,
//! bouncing stragglers) followed by a sealed [`AdoptSpec`] through the
//! parent (folding the drained entries in) — each seal doubles as that
//! log's checkpoint anchor, so a merge also compacts both logs. The
//! store's current `(topology, shards)` pair is one view, published once
//! per reconfiguration and kept for the store's lifetime, so a request
//! borrows it with one load: no lock, no epoch pin, no reference count.
//!
//! [`Store::rebalance`] lets the owner delegate the choice to a policy
//! engine ([`ElasticEngine`]): it splits on sustained skew and merges cold
//! children back, with hysteresis and a cool-down so oscillating load
//! cannot thrash the topology. It is an admin act like the other two; no
//! commit carries it.
//!
//! **Consistency:** operations within one shard are linearizable (they go
//! through that shard's universal log). A multi-shard batch commits
//! per-shard atomically but is not a single cross-shard atomic action;
//! broadcast scans are per-shard-consistent merges. Splits and merges
//! preserve all of this: an operation is applied exactly once — on the
//! shard that owns its key at its linearization point — or bounced and
//! retried, never both.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apc_core::liveness::Liveness;
use apc_progress_macros::progress;
use apc_registers::Generations;
use apc_universal::{AsymmetricFactory, OwnedHandle, Universal};

use apc_obs::{MetricsSnapshot, Sample, SampleValue};

use crate::admission::{Admission, AdmissionConfig, AdmissionError, ClientTicket, ProgressClass};
use crate::api::{Request, Response, StoreError, TierCredential, UNBOUNDED_RETRIES};
use crate::elastic::{ElasticDecision, ElasticEngine};
use crate::metrics::{nanos, StoreMetrics};
use crate::ops::{
    read_sub_batch, AdoptSpec, Batch, MergeSpec, ShardCmd, ShardState, SplitSpec, StoreOp,
    StoreResp,
};
use crate::persist::lock_unpoisoned;
use crate::replan::{Input, Replan, Responses, Transition};
use crate::router::{MergeError, ShardTopology};
use crate::wal::{DurabilityClass, Wal, WalFrame};

/// How long the waiting arm waits for a bumped topology to publish.
const VIEW_WAIT: Duration = Duration::from_secs(60);

/// The universal-object type backing one shard.
pub type ShardLog = Universal<crate::ops::ShardSpec, AsymmetricFactory>;

/// One port's handle on a shard log, with the port's replica of the shard.
type PortHandle = OwnedHandle<crate::ops::ShardSpec, AsymmetricFactory>;

/// A monotone per-port commit digest, published into two of the port's
/// digest words after every visit.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ShardDigest {
    /// Log cells replayed by the publishing port (monotone version). As
    /// returned by [`Store::snapshot_stats`], plus the shard's rounds
    /// answered without a cell — the shard's heat, reads included.
    pub commits: u64,
    /// Number of live keys in the shard at publication time.
    pub entries: u64,
}

struct Shard {
    /// The shard's universal log (also co-owned by every port handle).
    log: Arc<ShardLog>,
    /// One slot per port; guests multiplex, VIPs own theirs exclusively,
    /// and a VIP slot's handle also holds the port's guest voice. Each
    /// handle co-owns the shard's universal log.
    ports: Vec<Mutex<PortHandle>>,
    /// Per-port digests, seeded from the state the shard is built from.
    /// Each has one writer at a time (whoever holds the port's mutex), and
    /// each reader folds monotone per-port values
    /// ([`Store::snapshot_stats`] keeps the maximum,
    /// [`Store::replay_steps`] the sum), so it needs each port's latest
    /// value and no atomicity across ports: one collect, not a snapshot
    /// scan.
    digests: Vec<PortDigest>,
    /// Rounds answered from a port's replica without a log cell. Read
    /// traffic is heat too: [`Store::snapshot_stats`] adds this to the
    /// digest's cell count, or a read-hot shard would never split.
    local_reads: AtomicU64,
}

impl Shard {
    /// **The one door to a port**: locks the slot of process `pid` — its
    /// own, or for a VIP port's guest voice the VIP's — runs `act` on the
    /// slot's handle, then publishes the handle's replayed position into
    /// the slot's digest words — in that order, always. Nothing else locks
    /// a port, so no path that advances a port's replica (commits, seals
    /// and reconfigurations alike) can leave the dashboard reporting the
    /// position it had before.
    fn visit<R>(&self, pid: usize, act: impl FnOnce(&mut PortHandle) -> R) -> R {
        let slot = self.slot(pid);
        // APC-LINT: allow(progress): a VIP slot's mutex is uncontended by construction (one exclusive owner, entering under its two pids one after the other, and reconfiguration never touches VIP ports), so the VIP path's lock is bounded; guest ports share theirs by design
        let mut handle = self.ports[slot].lock().expect("port slot poisoned");
        let out = act(&mut handle);
        self.digests[slot].publish(&handle);
        out
    }

    /// The slot whose handle holds process `pid`: a port's own, and for a
    /// guest voice (past the slots) its VIP port's.
    fn slot(&self, pid: usize) -> usize {
        pid.checked_sub(self.ports.len()).unwrap_or(pid)
    }

    /// The port seals and reconfigurations ride: the guest tier
    /// (`guest_ports ≥ 1`, so the last port is always a guest port), never a
    /// VIP's exclusive one.
    fn seal_port(&self) -> usize {
        self.ports.len() - 1
    }

    /// Builds one shard over `ports` port slots, optionally resuming from a
    /// recovered `(state, log_index)` pair (a snapshot's, or a split
    /// child's migrated keys at index 0). The log has one process per
    /// process of `liveness`; VIP slot `v` holds both the VIP and its
    /// guest voice, `ports + v` ([`Universal::owned_pair`]). Each port's
    /// digest starts at the state it resumes from, so the shard reports its
    /// keys before any visit.
    fn build(
        spec: crate::ops::ShardSpec,
        liveness: Liveness,
        ports: usize,
        resume: Option<(ShardState, u64)>,
    ) -> Self {
        let factory = AsymmetricFactory::new(liveness);
        let n = liveness.y();
        let log = Arc::new(match resume {
            Some((state, index)) => Universal::recovered(spec, factory, n, state, index),
            None => Universal::new(spec, factory, n),
        });
        let (port_slots, digests) = (0..ports)
            .map(|p| {
                let voice = if p < liveness.x() { ports + p } else { p };
                let handle = log.owned_pair(p, voice).expect("fresh log, every port available");
                let digest = PortDigest::default();
                digest.publish(&handle);
                (Mutex::new(handle), digest)
            })
            .unzip();
        Shard { log, ports: port_slots, digests, local_reads: AtomicU64::new(0) }
    }
}

/// One port's digest words. The writer stores the key count, then the
/// cursor; the reader loads them in the opposite order. The replay meter
/// is read on its own.
#[derive(Default)]
struct PortDigest {
    /// The port's replay cursor ([`OwnedHandle::replayed_cells`]).
    cursor: AtomicU64,
    /// Live keys in the port's replica.
    entries: AtomicU64,
    /// Cells the port's handle replayed itself
    /// ([`OwnedHandle::replay_steps`]).
    steps: AtomicU64,
}

impl PortDigest {
    /// Publishes `handle`'s position; the caller holds the port.
    fn publish(&self, handle: &PortHandle) {
        // RELAXED: ordered before the reader's view by the Release below.
        self.entries.store(handle.local_state().entries().len() as u64, Ordering::Relaxed);
        // RELAXED: a meter summed on its own by `Store::replay_steps`, which
        // needs each port's latest count and no order against other words.
        self.steps.store(handle.replay_steps(), Ordering::Relaxed);
        // Release: a reader that sees this cursor sees its key count.
        self.cursor.store(handle.replayed_cells(), Ordering::Release);
    }

    /// The latest published digest.
    fn load(&self) -> ShardDigest {
        let commits = self.cursor.load(Ordering::Acquire);
        // RELAXED: ordered after the cursor by the Acquire above.
        ShardDigest { commits, entries: self.entries.load(Ordering::Relaxed) }
    }
}

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
    /// checkpointed log index via [`Universal::recovered`], so boot-time
    /// replay work is O(delta), not O(history).
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
        let shards = (0..topology.shards())
            .map(|s| {
                let node = topology.node(s);
                let shard_spec =
                    crate::ops::ShardSpec { seed: node.seed, created_at: node.created_at };
                let resume = snapshot
                    .as_ref()
                    .map(|snap| (snap.shards[s].state.clone(), snap.shards[s].log_index));
                Arc::new(Shard::build(shard_spec, spec, ports, resume))
            })
            .collect();
        Ok(Store {
            admission,
            view: Generations::new(StoreView { topology, shards }),
            admin: Mutex::new(()),
            metrics: StoreMetrics::new(),
            wal,
            _settle: SettleAllocator,
        })
    }
}

/// Errors of [`Store::split_shard`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SplitError {
    /// The shard id does not exist in the current topology.
    NoSuchShard {
        /// The offending shard id.
        shard: usize,
        /// The current shard count.
        shards: usize,
    },
    /// The shard was retired by a merge; tombstones cannot split.
    RetiredShard {
        /// The offending shard id.
        shard: usize,
    },
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::NoSuchShard { shard, shards } => {
                write!(f, "no shard {shard} to split (store has {shards})")
            }
            SplitError::RetiredShard { shard } => {
                write!(f, "shard {shard} was retired by a merge and cannot split")
            }
        }
    }
}

impl std::error::Error for SplitError {}

/// An in-memory, sharded, progress-class-aware object service with live
/// hot-shard splitting.
///
/// See the [module docs](self) for the architecture and consistency model.
pub struct Store {
    admission: Admission,
    /// The current `(topology, shards)` generation, published by splits
    /// and merges under the admin lock and borrowed by every operation with
    /// one load. Every view stays until the store drops: one per
    /// reconfiguration, so under [`Store::rebalance`] alone at most
    /// 2 × (`MAX_SHARDS` − initial shards) of them, each a topology and a
    /// `Vec` of `Arc`s — small next to the tombstoned `Shard` that every
    /// reconfiguration already keeps.
    view: Generations<StoreView>,
    /// Serializes admin operations (splits, merges, rebalances and
    /// store-wide checkpoints) so a durable snapshot's topology always
    /// matches its sealed states. It guards no data, so a panic under it
    /// poisons nothing: every taker recovers the guard.
    admin: Mutex<()>,
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

    /// Admits a wait-free VIP client (bounded by the configured capacity).
    ///
    /// # Errors
    ///
    /// [`AdmissionError::VipCapacityExhausted`] once all `x` ports are owned.
    #[progress(lock_free)]
    pub fn admit_vip(&self) -> Result<ClientTicket, AdmissionError> {
        self.admission.admit(ProgressClass::Vip)
    }

    /// Admits an obstruction-free guest client (never fails).
    #[progress(wait_free)]
    pub fn admit_guest(&self) -> ClientTicket {
        self.admission.admit_guest()
    }

    /// The guest voice of a VIP ticket ([`Admission::guest_voice`]): a
    /// guest-class ticket whose commits go through the VIP's own port slot
    /// and replica, under the voice's own guest pid — the guest protocol,
    /// never the VIP's wait-free one. Everything else about it is a guest
    /// ticket's: group durability only. `None` for a guest ticket.
    #[progress(wait_free)]
    pub fn guest_voice(&self, ticket: ClientTicket) -> Option<ClientTicket> {
        self.admission.guest_voice(ticket)
    }

    /// Opens a client session for `ticket`.
    pub fn client(&self, ticket: ClientTicket) -> Client<'_> {
        Client { store: self, ticket, clock: None }
    }

    /// The bounded arms' view source: the current view if the topology a
    /// `Moved` rejection pointed at is published, [`Input::NotYet`] if not
    /// — one wait-free load, never a wait.
    #[progress(wait_free)]
    fn view_published(&self, min_version: u64) -> Result<&StoreView, Input> {
        Some(self.view.newest())
            .filter(|view| view.topology.version() >= min_version)
            .ok_or(Input::NotYet)
    }

    /// The waiting arm's view source: waits for a view of at least
    /// `min_version`. The split/merge driver publishes it right after
    /// installing the bump, so the wait is normally bounded by the
    /// driver's remaining migration work (microseconds in practice) and
    /// the first few yield-only spins catch it.
    ///
    /// The wait is **bounded** ([`VIEW_WAIT`]): a yield, then exponential
    /// backoff sleeps capped at 1ms, until the deadline.
    /// [`Input::Never`] past the deadline means the reconfiguration
    /// driver died between installing its bump and publishing the
    /// topology (the store's one cross-thread obligation); the engine
    /// turns that into the typed [`StoreError::Unavailable`] instead of
    /// aborting the client thread.
    #[progress(blocking)]
    fn view_at_least(&self, min_version: u64) -> Result<&StoreView, Input> {
        let deadline = std::time::Instant::now() + VIEW_WAIT;
        let mut backoff_ns: u64 = 0;
        loop {
            if let Ok(view) = self.view_published(min_version) {
                return Ok(view);
            }
            if std::time::Instant::now() >= deadline {
                return Err(Input::Never);
            }
            if backoff_ns == 0 {
                std::thread::yield_now();
                backoff_ns = 1_000;
            } else {
                std::thread::sleep(Duration::from_nanos(backoff_ns));
                backoff_ns = (backoff_ns * 2).min(1_000_000);
            }
        }
    }

    /// Number of shard slots in the current topology (live **and**
    /// retired — shard ids are dense and stable, so merged-away shards
    /// keep their slot as tombstones).
    pub fn shards(&self) -> usize {
        self.view.newest().topology.shards()
    }

    /// Number of live (routable) shards in the current topology.
    pub fn live_shards(&self) -> usize {
        self.view.newest().topology.live_shards()
    }

    /// A clone of the current shard topology (version, split tree, seeds).
    pub fn topology(&self) -> ShardTopology {
        self.view.newest().topology.clone()
    }

    /// The per-shard liveness specification.
    pub fn spec(&self) -> Liveness {
        self.admission.spec()
    }

    /// The admission layer (capacity inspection, guest layout).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The shard owning `key` under the current topology.
    pub fn shard_of(&self, key: &str) -> usize {
        self.view.newest().topology.shard_of(key)
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
        Self::digests(self.view.newest())
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
        let view = self.view.newest();
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
        let view = self.view.newest();
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
        }
        Vec::extend(&mut samples, self.wal.iter().flat_map(|wal| wal.scrape().samples));
        MetricsSnapshot { samples }
    }

    /// Splits shard `shard` **live**: commits keep flowing while the split
    /// installs. Returns the new shard's id.
    ///
    /// The sequence is:
    ///
    /// 1. compute the bumped topology (the new shard's rendezvous seed and
    ///    version);
    /// 2. install a [`SplitSpec`] bump through the split shard's own
    ///    consensus log inside a sealed reconfig cell
    ///    ([`OwnedHandle::reconfigure`]) — the linearization point of the
    ///    split. Everything committed before it is partitioned
    ///    deterministically (pairwise rendezvous); the keys the child wins
    ///    come back as the migration set, and the cell doubles as a
    ///    checkpoint anchor for the parent's log. Batches landing after the
    ///    bump under the old topology bounce with [`StoreResp::Moved`] and
    ///    are re-planned by their clients;
    /// 3. boot the child shard from the migrated entries (invisible to
    ///    routing until published, so initialization is uncontended);
    /// 4. atomically publish the new `(topology, shards)` view.
    ///
    /// The bump rides the guest tier of the split shard, so VIP ports never
    /// contend with it; placement is lock-free (each failed attempt is a
    /// client batch committing). Splits serialize with each other and with
    /// [`Store::checkpoint`] on the admin lock.
    ///
    /// # Errors
    ///
    /// [`SplitError::NoSuchShard`] if `shard` is out of range,
    /// [`SplitError::RetiredShard`] if a merge already tombstoned it.
    #[progress(blocking)]
    pub fn split_shard(&self, shard: usize) -> Result<usize, SplitError> {
        let _admin = lock_unpoisoned(&self.admin);
        self.split_locked(shard)
    }

    /// The body of [`Store::split_shard`]; the caller holds the admin lock.
    fn split_locked(&self, shard: usize) -> Result<usize, SplitError> {
        let view = self.view.newest();
        if shard >= view.topology.shards() {
            return Err(SplitError::NoSuchShard { shard, shards: view.topology.shards() });
        }
        if !view.topology.is_live(shard) {
            return Err(SplitError::RetiredShard { shard });
        }
        let (topology, child) = view.topology.split(shard);
        let split =
            SplitSpec { child_seed: topology.node(child).seed, version: topology.version() };
        // The linearization point: the bump agreed through the parent's own
        // log, returning exactly the pre-bump keys the child now owns.
        let parent = &view.shards[shard];
        let (_, mut resps) =
            parent.visit(parent.seal_port(), |handle| handle.reconfigure(ShardCmd::Split(split)));
        let outgoing = match resps.pop() {
            Some(StoreResp::Entries(entries)) => entries,
            other => unreachable!("a split bump answers with its migration set, got {other:?}"),
        };
        let node = topology.node(child);
        let child_shard = Arc::new(Shard::build(
            crate::ops::ShardSpec { seed: node.seed, created_at: node.created_at },
            self.admission.spec(),
            self.admission.ports(),
            Some((ShardState::with_entries(outgoing, node.created_at), 0)),
        ));
        let mut shards = view.shards.clone();
        shards.push(child_shard);
        self.metrics.record_split(topology.version());
        self.view.supersede(StoreView { topology, shards });
        Ok(child)
    }

    /// Merges shard `child` back into its parent **live** — the inverse of
    /// [`Store::split_shard`] — and returns the parent's id. Commits keep
    /// flowing while the merge installs.
    ///
    /// The sequence mirrors the split, with the bump crossing **both**
    /// logs:
    ///
    /// 1. compute the bumped topology (the child tombstoned at the new
    ///    version; structural eligibility per
    ///    [`ShardTopology::check_merge`] — merges unwind splits in
    ///    reverse);
    /// 2. install a [`MergeSpec`] retirement through the **child's** own
    ///    consensus log inside a sealed reconfig cell — the child-side
    ///    linearization point. Everything committed to the child before it
    ///    is drained out as the migration set; batches landing after it
    ///    under the old topology bounce with [`StoreResp::Moved`] and are
    ///    re-planned by their clients. The sealed cell compacts the
    ///    child's log (its last anchor seals an empty state);
    /// 3. install an [`AdoptSpec`] with the drained entries through the
    ///    **parent's** consensus log, also sealed — the parent-side
    ///    linearization point: the parent's anchor now carries the adopted
    ///    subtree, so the merge compacts the parent's log too (the
    ///    dual-log anchor). The parent's epoch is *not* bumped: its own
    ///    keys never move in a merge, so in-flight parent batches stay
    ///    valid;
    /// 4. atomically publish the new `(topology, shards)` view. The
    ///    retired shard keeps its slot (ids stay dense) and keeps
    ///    answering stale batches with `Moved`, but routing, broadcasts,
    ///    and the hot-shard detector skip it from now on.
    ///
    /// Clients whose keys lived on the child observe the same contract as
    /// across a split: an operation is applied exactly once — on the shard
    /// that owns its key at its linearization point — or bounced and
    /// retried, never both. Between the drain and the adoption the moved
    /// keys are reachable by **no** batch: old plans bounce at the child,
    /// and no client can plan against the merged topology until it is
    /// published, which happens only after the adoption installs.
    ///
    /// Both installs ride the guest tier and are lock-free (each failed
    /// placement attempt is a client batch committing); merges serialize
    /// with splits and checkpoints on the admin lock.
    ///
    /// # Errors
    ///
    /// Any [`MergeError`] from [`ShardTopology::check_merge`].
    #[progress(blocking)]
    pub fn merge_shard(&self, child: usize) -> Result<usize, MergeError> {
        let _admin = lock_unpoisoned(&self.admin);
        self.merge_locked(child)
    }

    /// The body of [`Store::merge_shard`]; the caller holds the admin lock.
    fn merge_locked(&self, child: usize) -> Result<usize, MergeError> {
        let view = self.view.newest();
        let (topology, parent) = view.topology.merge(child)?;
        let version = topology.version();
        // Child-side linearization point: retire through the child's own
        // log. Returns exactly the entries committed before the bump.
        let retiring = &view.shards[child];
        let (_, mut resps) = retiring.visit(retiring.seal_port(), |handle| {
            handle.reconfigure(ShardCmd::Merge(MergeSpec { version }))
        });
        let outgoing = match resps.pop() {
            Some(StoreResp::Entries(entries)) => entries,
            other => {
                unreachable!("a merge retirement answers with its migration set, got {other:?}")
            }
        };
        // Parent-side linearization point: adopt through the parent's log
        // (sealed — the dual-log anchor that also compacts the parent).
        let adopter = &view.shards[parent];
        let (_, resps) = adopter.visit(adopter.seal_port(), |handle| {
            handle.reconfigure(ShardCmd::Adopt(AdoptSpec { version, entries: Arc::new(outgoing) }))
        });
        debug_assert!(
            matches!(resps.first(), Some(StoreResp::Value(Some(_)))),
            "an adoption answers with its entry count"
        );
        self.metrics.record_merge(version);
        self.metrics.record_adopt();
        self.view.supersede(StoreView { topology, shards: view.shards.clone() });
        Ok(parent)
    }

    /// One act of the elasticity policy, which the store's owner delivers
    /// as it calls [`Store::split_shard`] or [`Store::checkpoint`]: no
    /// commit carries it. Under the admin lock, `engine` evaluates one read
    /// of [`Store::snapshot_stats`] at the digests' summed heat (the unit
    /// of its `min_window` and `cooldown`: every tier's cells and local
    /// reads), and the store applies the one split or merge it decides, if
    /// any. Returns the decision it applied, [`ElasticDecision::Hold`] if
    /// none. The engine is the caller's, and so are the cadence and the
    /// running totals ([`ElasticEngine::report`]).
    #[progress(blocking)]
    pub fn rebalance(&self, engine: &mut ElasticEngine) -> ElasticDecision {
        let _admin = lock_unpoisoned(&self.admin);
        let stats = self.snapshot_stats();
        let heat = stats.iter().map(|d| d.commits).sum();
        let decision = engine.evaluate(heat, &stats, &self.view.newest().topology);
        let applied = match decision {
            ElasticDecision::Split(shard) => self.split_locked(shard).is_ok(),
            ElasticDecision::Merge(shard) => self.merge_locked(shard).is_ok(),
            ElasticDecision::Hold => false,
        };
        self.metrics.record_elastic(decision, applied);
        if !applied {
            return ElasticDecision::Hold;
        }
        engine.note_reconfigured(decision, heat);
        decision
    }

    /// Seals a checkpoint cell on every shard log and returns the sealed
    /// per-shard states — the capture half of the
    /// [`persist`](crate::persist) layer — paired with the topology they
    /// were sealed under.
    ///
    /// Checkpoints ride the guest tier (the last port of each shard), so
    /// sealing never contends with a VIP's exclusive port; placement is
    /// lock-free — each failed attempt means a client batch committed
    /// instead. The sealed prefix becomes reclaimable, and is freed once
    /// every port of the shard has replayed past it.
    /// Serializes with [`Store::split_shard`] so the snapshot's topology
    /// always matches its sealed states.
    #[progress(blocking)]
    pub fn checkpoint(&self) -> crate::persist::StoreSnapshot {
        let _admin = lock_unpoisoned(&self.admin);
        let view = self.view.newest();
        let shards = view
            .shards
            .iter()
            .map(|shard| {
                shard.visit(shard.seal_port(), |handle| {
                    let log_index = handle.checkpoint();
                    crate::persist::ShardSnapshot { log_index, state: handle.local_state().clone() }
                })
            })
            .collect();
        crate::persist::StoreSnapshot { topology: view.topology.clone(), shards }
    }

    /// Per-shard latest-checkpoint log indices (0 where no checkpoint was
    /// ever sealed): where a fresh handle on each shard starts replaying.
    pub fn anchor_indices(&self) -> Vec<u64> {
        self.view.newest().shards.iter().map(|shard| shard.log.anchor_index()).collect()
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
        self.view
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
    /// cell, no [`Batch`], nothing for the other ports to replay, no WAL
    /// work. A sub-batch with any write is one universal-log append plus a
    /// WAL effect frame (if a WAL is attached).
    /// Either way the round publishes its digest ([`Shard::visit`]); it
    /// seals nothing, so a seal happens only in an admin act
    /// ([`Store::checkpoint`], a split, a merge, or [`Store::rebalance`]).
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
    /// of `sub`, moved into a [`Batch`], as process `pid` through the
    /// locked port `handle` that holds it and, if a WAL is attached, the
    /// commit's effect frame. A bounced append hands a copy of its ops back
    /// to `sub`: the batch's own are the log's now.
    fn append_on(
        &self,
        handle: &mut PortHandle,
        pid: usize,
        shard_id: usize,
        sub: &mut SubBatch,
        durability: DurabilityClass,
    ) -> Vec<StoreResp> {
        let batch = Batch::new(sub.planned_at, std::mem::take(&mut sub.ops));
        let ops = Arc::clone(&batch.ops);
        // Called by path so that apc-lint, which resolves `x.apply_as(..)`
        // by name, sees the one target.
        let resps = OwnedHandle::apply_as(handle, pid, ShardCmd::Batch(batch))
            .expect("the port door hands a pid the slot that holds it");
        if count_moved(&resps) > 0 {
            sub.ops.extend(ops.iter().cloned());
        }
        if let Some(wal) = &self.wal {
            // Frame the commit's resolved effects while still holding the
            // port lock: the handle's replay cursor is exactly one past
            // this batch's log cell here, giving the frame its exact
            // per-shard linearization stamp. The enqueue is a bounded
            // encode-and-append into the group-commit buffer — fsync never
            // happens under a port lock; a VIP that wants it blocks in
            // `Client::request`, after every lock is released.
            let effects = crate::wal::resolved_effects(&ops, &resps);
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
        let mut view = Ok(self.view.newest());
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
/// moves them into a [`Batch`]'s shared slice. If the shard bounces the
/// sub-batch, its ops are here again when the commit returns.
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
        let view = self.view.newest();
        f.debug_struct("Store")
            .field("shards", &view.topology.shards())
            .field("topology_version", &view.topology.version())
            .field("spec", &self.admission.spec())
            .finish()
    }
}

/// A client session: the operation surface of the store.
///
/// Sessions are cheap (`ticket` + store reference) and a single ticket may
/// open many sequential sessions; operations from sessions sharing a guest
/// port serialize on that port's slot.
///
/// A session times each commit it makes into `store_commit_latency_ns`. By
/// default each commit reads the clock at its start and at its end. A
/// caller that has just read the clock can lend the session that reading
/// ([`Client::lend_clock`]): each commit then starts at the session's
/// reading and reads the clock once, at its end, and that end is the
/// session's reading from then on ([`Client::clock`]).
#[derive(Copy, Clone)]
pub struct Client<'a> {
    store: &'a Store,
    ticket: ClientTicket,
    /// The reading the session was lent, advanced to the end of each
    /// commit since; `None` if it was never lent one.
    clock: Option<Instant>,
}

impl Client<'_> {
    /// This session's admission ticket.
    #[progress(wait_free)]
    pub fn ticket(&self) -> ClientTicket {
        self.ticket
    }

    /// The session's progress class.
    #[progress(wait_free)]
    pub fn class(&self) -> ProgressClass {
        self.ticket.class()
    }

    /// This session's own tier credential — what the in-process wrappers
    /// put into the [`Request`] envelope.
    #[progress(wait_free)]
    pub fn credential(&self) -> TierCredential {
        TierCredential::for_ticket(&self.ticket)
    }

    /// Lends the session the caller's latest clock reading, `now`. Each
    /// commit from here on starts at the session's reading instead of
    /// reading the clock, and reads it once, at its end; that end becomes
    /// the session's reading, and it is where the next commit, and a
    /// request's deadline, start. A session never lent a reading reads a
    /// commit's start and end itself.
    ///
    /// ```
    /// use std::time::Instant;
    /// use apc_store::{Request, StoreBuilder, StoreOp};
    ///
    /// let store = StoreBuilder::new().shards(1).build().unwrap();
    /// let mut client = store.client(store.admit_guest());
    /// let lent = Instant::now();
    /// client.lend_clock(lent);
    /// client.request(Request::new(vec![StoreOp::Put("k".into(), 1)]));
    /// // The commit's end reading is the session's now.
    /// assert!(client.clock().unwrap() >= lent);
    /// ```
    #[progress(wait_free)]
    pub fn lend_clock(&mut self, now: Instant) {
        self.clock = Some(now);
    }

    /// The session's latest clock reading: the one it was lent, or the end
    /// of its last commit since. `None` if it was never lent one.
    #[progress(wait_free)]
    pub fn clock(&self) -> Option<Instant> {
        self.clock
    }

    /// **The unified entry point**: executes one [`Request`] envelope and
    /// returns its [`Response`] — the same envelope the `apc-net` wire
    /// codec serializes, so a request behaves identically whether it
    /// arrived in process or over a connection.
    ///
    /// Routing, by the envelope's terms:
    ///
    /// * `retry_budget == `[`UNBOUNDED_RETRIES`] — the **waiting arm**:
    ///   `Moved` retries wait (bounded, 60 s) for the re-planned topology
    ///   to publish; this is what [`Client::execute`] wraps.
    /// * finite `retry_budget` — the **non-blocking bounded arms**
    ///   ([`Client::request_vip`] / [`Client::request_guest`]): no waits
    ///   anywhere; a spent budget or deadline surfaces as the typed
    ///   [`StoreError::RetryBudgetExhausted`] (the envelope's 429) instead
    ///   of blocking. The wire front-end always takes these arms.
    /// * `durability == `[`DurabilityClass::Sync`] — VIP-only; the
    ///   response additionally waits for the covering fsync, and a failed
    ///   flush downgrades applied operations to [`StoreError::Corrupt`]
    ///   ("applied but not durably acknowledged").
    ///
    /// The in-process ticket is authoritative: a request whose credential
    /// claims more than the session's admission is refused with
    /// [`StoreError::GuestTier`] on every operation.
    pub fn request(&mut self, req: Request) -> Response {
        let vip = matches!(self.ticket.class(), ProgressClass::Vip);
        // A guest's `Sync` is its arm's to refuse: nothing to wait for.
        let sync = vip && matches!(req.durability, DurabilityClass::Sync);
        if sync && self.store.wal().is_none() {
            return Response::fail_all(req.ops.len(), StoreError::Unavailable { version: 0 });
        }
        let mut resp = if req.retry_budget == UNBOUNDED_RETRIES {
            self.request_waiting(req)
        } else if vip {
            self.request_vip(req)
        } else {
            self.request_guest(req)
        };
        if sync {
            self.await_durability(&mut resp);
        }
        resp
    }

    /// Why the guest arm refuses `req`, if it does: it serves guest
    /// tickets only, and synchronous durability and a VIP credential are
    /// both claims a guest ticket cannot back.
    #[progress(wait_free)]
    fn guest_refusal(&self, req: &Request) -> Option<StoreError> {
        if self.ticket.class() != ProgressClass::Guest {
            return Some(StoreError::GuestTier);
        }
        if matches!(req.durability, DurabilityClass::Sync) {
            if let Some(wal) = self.store.wal() {
                wal.metrics().record_sync_denied();
            }
            return Some(StoreError::GuestTier);
        }
        (req.credential.class() == ProgressClass::Vip).then_some(StoreError::GuestTier)
    }

    /// The **bounded VIP arm**: executes the envelope in a bounded number
    /// of the caller's own steps — commits go through the exclusively
    /// owned port (`Store::commit_vip`), and the `Moved` re-plan loop
    /// never waits for a topology to publish: each round re-reads the
    /// current view and spends one unit of the request's `retry_budget`,
    /// so the budget is the a-priori step bound. A spent budget degrades
    /// exactly the still-bounced operations to
    /// [`StoreError::RetryBudgetExhausted`]; a deadline found expired at a
    /// re-plan boundary degrades them to
    /// [`StoreError::DeadlineExceeded`] instead — budget backpressure and
    /// timeout are distinct, typed outcomes.
    ///
    /// This is the arm the `apc-net` reactor pins with `apc-lint`: the
    /// wire front-end's VIP dispatch must stay on it, so no guest flood —
    /// and no reconfiguration — can make a VIP connection wait. The
    /// closures below are part of this body: one that named `commit_guest`
    /// or `view_at_least` would be a `progress` finding against this fn.
    ///
    /// Synchronous durability note: this arm stamps WAL frames with the
    /// requested class but never performs the (blocking) fsync wait
    /// itself; [`Client::request`] adds it. A direct caller that needs
    /// the sync acknowledgment must use [`Client::request`].
    #[progress(bounded_wait_free)]
    pub fn request_vip(&mut self, req: Request) -> Response {
        let refusal = (self.ticket.class() != ProgressClass::Vip).then_some(StoreError::GuestTier);
        let (store, port, durability) = (self.store, self.ticket.port(), req.durability);
        only(store.replan(
            Replan::new([(req, refusal)]),
            &mut self.clock,
            |shard, s, sub, clock| store.commit_vip(shard, s, port, sub, durability, clock),
            |need| store.view_published(need),
        ))
    }

    /// The **bounded guest arm**: [`Client::request_guest_many`] with one
    /// envelope.
    #[progress(obstruction_free)]
    pub fn request_guest(&mut self, req: Request) -> Response {
        only(self.request_guest_from([req]))
    }

    /// The **coalesced guest arm**, the obstruction-free twin of
    /// [`Client::request_vip`]: commits queue behind the shared guest
    /// port (`Store::commit_guest`), the `Moved` re-plan loop is the same
    /// non-waiting, budget-bounded round, and many guest envelopes execute
    /// as one planning-and-commit round — the combined operation list is planned
    /// once and costs ~one log append per touched shard for the *whole
    /// batch*, instead of one per envelope — while preserving every
    /// envelope's own service terms. This is what the `apc-net` reactor
    /// rides to batch the pipelined guest frames of one poll turn.
    ///
    /// Per-envelope semantics are kept intact:
    ///
    /// * each envelope's `retry_budget` is charged once per `Moved`
    ///   re-plan round *it participates in* (envelopes whose operations
    ///   all landed are never charged), and a spent budget degrades only
    ///   that envelope's bounced operations to
    ///   [`StoreError::RetryBudgetExhausted`];
    /// * each envelope's `deadline_ms` is checked at the same re-plan
    ///   boundaries and degrades its bounced operations to
    ///   [`StoreError::DeadlineExceeded`];
    /// * envelopes the guest tier must refuse (synchronous durability, a
    ///   VIP over-claim) are refused individually with
    ///   [`StoreError::GuestTier`] — they do not poison their batch-mates.
    ///
    /// Responses come back in envelope order, each with its results in
    /// invocation order: observationally equivalent to dispatching the
    /// envelopes one at a time, in order, on this session.
    #[progress(obstruction_free)]
    pub fn request_guest_many(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        self.request_guest_from(reqs).collect()
    }

    /// [`Client::request_guest_many`] over any source of envelopes, for a
    /// caller that keeps its envelope buffer from round to round and hands
    /// over `buffer.drain(..)` (the reactor, every turn). The responses
    /// are built as they are taken, so a caller that answers each as it
    /// comes holds no list of them.
    #[progress(obstruction_free)]
    pub fn request_guest_from(&mut self, reqs: impl IntoIterator<Item = Request>) -> Responses {
        let (store, port) = (self.store, self.ticket.port());
        let plan = Replan::new(reqs.into_iter().map(|req| {
            let refusal = self.guest_refusal(&req);
            (req, refusal)
        }));
        store.replan(
            plan,
            &mut self.clock,
            |shard, s, sub, clock| {
                store.commit_guest(shard, s, port, sub, DurabilityClass::Group, clock)
            },
            |need| store.view_published(need),
        )
    }

    /// The **waiting arm**: `Moved` retries wait — bounded, see
    /// [`Store::view_at_least`] — for the re-planned topology, and a
    /// publish that never comes degrades to [`StoreError::Unavailable`].
    /// Commits go through the session's own tier, and a guest session's
    /// envelope is refused as its bounded arm would refuse it.
    #[progress(blocking)]
    fn request_waiting(&mut self, req: Request) -> Response {
        let (class, port, durability) = (self.ticket.class(), self.ticket.port(), req.durability);
        let refusal = match class {
            ProgressClass::Vip => None,
            ProgressClass::Guest => self.guest_refusal(&req),
        };
        let store = self.store;
        only(store.replan(
            Replan::new([(req, refusal)]),
            &mut self.clock,
            |shard, s, sub, clock| match class {
                ProgressClass::Vip => store.commit_vip(shard, s, port, sub, durability, clock),
                ProgressClass::Guest => store.commit_guest(shard, s, port, sub, durability, clock),
            },
            |need| store.view_at_least(need),
        ))
    }

    /// The synchronous-durability tail of [`Client::request`]: waits for
    /// the WAL flush covering the envelope's commits; a failed flush
    /// downgrades every applied operation to [`StoreError::Corrupt`] —
    /// "applied but not durably acknowledged", the same contract as a
    /// failed [`Persister::persist`](crate::persist::Persister::persist).
    #[progress(blocking)]
    fn await_durability(&mut self, resp: &mut Response) {
        let Some(wal) = self.store.wal() else { return }; // gated upstream; total anyway
        if let Err(err) = wal.sync() {
            let detail = format!("durability flush failed: {err}");
            for slot in resp.results.iter_mut() {
                if slot.is_ok() {
                    *slot = Err(StoreError::Corrupt { detail: detail.clone() });
                }
            }
        }
    }

    /// Executes a batch of operations, one log append per touched shard,
    /// returning the envelope's per-operation results in invocation order.
    ///
    /// Sugar over [`Client::request`]: the envelope carries this session's
    /// own credential, group durability, and an unbounded retry budget
    /// (the waiting arm).
    ///
    /// If a shard split between planning and commit, the affected
    /// operations bounce from their old shard (nothing applied); the
    /// envelope's retry loop transparently re-plans exactly those
    /// operations against the newly published topology and patches their
    /// responses in place — already-applied operations are never
    /// re-issued, so nothing commits twice and nothing is dropped.
    ///
    /// The class below is the **floor** over admitted tiers: a guest
    /// session shares its port, so its commits queue behind the port
    /// mutex. A VIP session's commits are bounded wait-free
    /// (`Store::commit_vip`) except across a concurrent reconfiguration,
    /// where the `Moved` retry waits (bounded) for the new topology to
    /// publish; past the bound those operations come back
    /// [`StoreError::Unavailable`] instead of hanging or aborting.
    #[progress(obstruction_free)]
    pub fn execute(&mut self, ops: Vec<StoreOp>) -> Vec<Result<StoreResp, StoreError>> {
        let credential = self.credential();
        self.request(Request::new(ops).credential(credential)).results
    }

    /// Executes one operation; `None` if it failed (see
    /// [`Client::execute`] for the error).
    fn execute_one(&mut self, op: StoreOp) -> Option<StoreResp> {
        self.execute(vec![op]).pop()?.ok()
    }

    /// Reads `key`. `None` means absent — or, degenerately, that the
    /// operation failed (use [`Client::execute`] to distinguish).
    #[progress(obstruction_free)]
    pub fn get(&mut self, key: &str) -> Option<u64> {
        match self.execute_one(StoreOp::Get(key.into())) {
            Some(StoreResp::Value(v)) => v,
            _ => None,
        }
    }

    /// Writes `key`, returning the previous value (`None` if absent or
    /// failed — see [`Client::get`]).
    #[progress(obstruction_free)]
    pub fn put(&mut self, key: &str, value: u64) -> Option<u64> {
        match self.execute_one(StoreOp::Put(key.into(), value)) {
            Some(StoreResp::Value(v)) => v,
            _ => None,
        }
    }

    /// Removes `key`, returning the removed value (`None` if absent or
    /// failed — see [`Client::get`]).
    #[progress(obstruction_free)]
    pub fn remove(&mut self, key: &str) -> Option<u64> {
        match self.execute_one(StoreOp::Remove(key.into())) {
            Some(StoreResp::Value(v)) => v,
            _ => None,
        }
    }

    /// Compare-and-set on `key`; returns `(ok, actual)`. A failed
    /// operation reads as a failed CAS with `actual: None` — nothing was
    /// applied (use [`Client::execute`] to distinguish).
    #[progress(obstruction_free)]
    pub fn cas(&mut self, key: &str, expect: Option<u64>, new: u64) -> (bool, Option<u64>) {
        match self.execute_one(StoreOp::Cas { key: key.into(), expect, new }) {
            Some(StoreResp::Cas { ok, actual }) => (ok, actual),
            _ => (false, None),
        }
    }

    /// Range scan over `[from, to)` merged across all shards, in key
    /// order. A failed operation reads as an empty scan (use
    /// [`Client::execute`] to distinguish).
    #[progress(obstruction_free)]
    pub fn scan(&mut self, from: &str, to: &str) -> Vec<(String, u64)> {
        match self.execute_one(StoreOp::Scan { from: from.into(), to: to.into() }) {
            Some(StoreResp::Entries(entries)) => entries,
            _ => Vec::new(),
        }
    }
}

/// The response of a one-envelope run.
fn only(mut responses: Responses) -> Response {
    responses.next().unwrap_or(Response { results: Vec::new() })
}

impl fmt::Debug for Client<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("id", &self.ticket.id())
            .field("class", &self.ticket.class())
            .field("port", &self.ticket.port())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::ElasticityPolicy;

    fn small_store(shards: usize) -> Store {
        StoreBuilder::new().shards(shards).vip_capacity(2).guest_ports(4).build().unwrap()
    }

    /// The first `count` keys of the `key/NNNN` namespace that `topology`
    /// routes to `shard` — how a test aims its traffic at one shard.
    fn keys_on_shard(topology: &ShardTopology, shard: usize, count: usize) -> Vec<String> {
        // Nothing routes to a tombstone, so the unbounded scan below would
        // spin forever on a retired shard; fail loudly instead.
        assert!(topology.is_live(shard), "shard {shard} is retired; no key routes to it");
        (0u64..)
            .map(|i| format!("key/{i:04}"))
            .filter(|k| topology.shard_of(k) == shard)
            .take(count)
            .collect()
    }

    /// A shard log's cell is inline in its 64-cell segment, so its size is
    /// what every committed write keeps of it: the decision slot, one `⊥`
    /// pointer of guest rounds, the at-most-once mask and the liveness spec.
    #[test]
    fn a_log_cell_is_at_most_40_bytes() {
        type Cell = apc_core::consensus::AsymmetricConsensus<
            apc_universal::LogRecordOf<crate::ops::ShardSpec>,
        >;
        assert!(size_of::<Cell>() <= 40, "a log cell is {} B", size_of::<Cell>());
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
    fn vip_and_guest_sessions_see_each_other() {
        let store = small_store(2);
        let vip = store.admit_vip().unwrap();
        let guest = store.admit_guest();
        let mut v = store.client(vip);
        let mut g = store.client(guest);
        assert_eq!(v.put("alpha", 1), None);
        assert_eq!(g.get("alpha"), Some(1));
        assert_eq!(g.put("alpha", 2), Some(1));
        assert_eq!(v.get("alpha"), Some(2));
    }

    #[test]
    fn batches_span_shards_and_keep_invocation_order() {
        let store = small_store(3);
        let mut c = store.client(store.admit_guest());
        let ops: Vec<StoreOp> = (0..12).map(|i| StoreOp::Put(format!("k{i}"), i)).collect();
        let resps = c.execute(ops);
        assert_eq!(resps.len(), 12);
        assert!(resps.iter().all(|r| *r == Ok(StoreResp::Value(None))));
        let mut check = store.client(store.admit_guest());
        let all = check.scan("", "z");
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn cas_is_atomic_per_key() {
        let store = small_store(2);
        let mut c = store.client(store.admit_vip().unwrap());
        assert_eq!(c.cas("n", None, 1), (true, None));
        assert_eq!(c.cas("n", None, 2), (false, Some(1)));
        assert_eq!(c.cas("n", Some(1), 2), (true, Some(1)));
        assert_eq!(c.get("n"), Some(2));
    }

    #[test]
    fn guests_sharing_a_port_serialize_but_succeed() {
        // 1 guest port, many guest clients: all multiplex onto the same
        // port and every operation still commits.
        let store = StoreBuilder::new().shards(1).vip_capacity(1).guest_ports(1).build().unwrap();
        let tickets: Vec<_> = (0..4).map(|_| store.admit_guest()).collect();
        assert!(tickets.windows(2).all(|w| w[0].port() == w[1].port()));
        std::thread::scope(|s| {
            for (i, t) in tickets.iter().enumerate() {
                let store = &store;
                s.spawn(move || {
                    let mut c = store.client(*t);
                    for j in 0..10 {
                        c.put(&format!("g{i}/{j}"), j);
                    }
                });
            }
        });
        let mut check = store.client(store.admit_vip().unwrap());
        assert_eq!(check.scan("", "z").len(), 40);
    }

    #[test]
    fn concurrent_counter_is_exact_via_cas() {
        // Contended CAS increments across classes: the final value equals
        // the number of successful CASes (no lost updates).
        let store = small_store(2);
        let vip = store.admit_vip().unwrap();
        let guests: Vec<_> = (0..3).map(|_| store.admit_guest()).collect();
        let success = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in guests.iter().copied().chain([vip]) {
                let store = &store;
                let success = &success;
                s.spawn(move || {
                    let mut c = store.client(t);
                    for _ in 0..25 {
                        loop {
                            let cur = c.get("ctr");
                            let next = cur.unwrap_or(0) + 1;
                            if c.cas("ctr", cur, next).0 {
                                success.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                });
            }
        });
        let mut check = store.client(store.admit_guest());
        assert_eq!(check.get("ctr"), Some(100));
        assert_eq!(success.load(std::sync::atomic::Ordering::Relaxed), 100);
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
        assert_eq!(snap.value("store_reconfigs_total", &[("kind", "adopt")]), Some(1));
        assert_eq!(snap.value("store_reconfig_last_version", &[]), Some(2));
        assert_eq!(snap.value("store_shards_total", &[]), Some(2));
        assert_eq!(snap.value("store_shards_live", &[]), Some(1));
        let tomb = snap.value("store_shard_commits", &[("shard", "1"), ("live", "false")]);
        assert!(tomb.is_some(), "retired shards stay exported, labelled live=\"false\"");
    }

    #[test]
    fn removed_keys_disappear_from_scans() {
        let store = small_store(2);
        let mut c = store.client(store.admit_vip().unwrap());
        c.put("a", 1);
        c.put("b", 2);
        assert_eq!(c.remove("a"), Some(1));
        assert_eq!(c.scan("", "z"), vec![("b".to_string(), 2)]);
        assert_eq!(c.remove("a"), None);
    }

    #[test]
    fn debug_renders() {
        let store = small_store(1);
        let c = store.client(store.admit_guest());
        assert!(format!("{store:?}").contains("Store"));
        assert!(format!("{c:?}").contains("Guest"));
    }

    #[test]
    fn split_preserves_every_key_and_rebalances() {
        let store = small_store(2);
        let mut c = store.client(store.admit_vip().unwrap());
        for i in 0..64 {
            c.put(&format!("key/{i:02}"), i);
        }
        let before = store.client(store.admit_guest()).scan("", "z");
        let hot = store.hottest_shard();
        let child = store.split_shard(hot).unwrap();
        assert_eq!(child, 2, "splits append");
        assert_eq!(store.shards(), 3);
        assert_eq!(store.topology().version(), 1);
        // Nothing lost, nothing duplicated, order preserved.
        assert_eq!(store.client(store.admit_guest()).scan("", "z"), before);
        // The child actually owns keys now, and routing agrees with data.
        let stats = store.snapshot_stats();
        assert!(stats[child].entries > 0, "the split must migrate keys to the child");
        for i in 0..64 {
            let key = format!("key/{i:02}");
            assert_eq!(c.get(&key), Some(i), "{key} survives the split");
        }
        // Point ops keep landing on the right shards post-split.
        assert_eq!(c.put("post-split", 7), None);
        assert_eq!(c.get("post-split"), Some(7));
    }

    #[test]
    fn split_of_missing_shard_is_a_typed_error() {
        let store = small_store(1);
        assert_eq!(store.split_shard(5), Err(SplitError::NoSuchShard { shard: 5, shards: 1 }));
        assert!(store.split_shard(5).unwrap_err().to_string().contains("no shard 5"));
    }

    #[test]
    fn splits_stack_and_children_can_split() {
        let store = small_store(1);
        let mut c = store.client(store.admit_vip().unwrap());
        for i in 0..96 {
            c.put(&format!("k/{i:03}"), i);
        }
        let c1 = store.split_shard(0).unwrap();
        let c2 = store.split_shard(0).unwrap();
        let c3 = store.split_shard(c1).unwrap();
        assert_eq!((c1, c2, c3), (1, 2, 3));
        assert_eq!(store.topology().version(), 3);
        let all = store.client(store.admit_guest()).scan("", "z");
        assert_eq!(all.len(), 96, "three stacked splits lose nothing");
        let entries: u64 = store.snapshot_stats().iter().map(|d| d.entries).sum();
        assert_eq!(entries, 96);
    }

    #[test]
    fn split_races_concurrent_commits_without_loss_or_duplication() {
        // Writers hammer disjoint keys while the hot shard splits mid-run:
        // every put must survive exactly once, every CAS total stays exact.
        let store = small_store(2);
        let vip = store.admit_vip().unwrap();
        let guests: Vec<_> = (0..3).map(|_| store.admit_guest()).collect();
        let success = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for (w, t) in guests.iter().copied().chain([vip]).enumerate() {
                let store = &store;
                let success = &success;
                s.spawn(move || {
                    let mut c = store.client(t);
                    for i in 0..40 {
                        c.put(&format!("w{w}/{i:02}"), i);
                        loop {
                            let cur = c.get("shared/ctr");
                            if c.cas("shared/ctr", cur, cur.unwrap_or(0) + 1).0 {
                                success.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                });
            }
            let store = &store;
            s.spawn(move || {
                // Split both original shards while the writers run.
                store.split_shard(0).unwrap();
                store.split_shard(1).unwrap();
            });
        });
        assert_eq!(store.shards(), 4);
        let mut check = store.client(store.admit_guest());
        let puts = check.scan("w", "x");
        assert_eq!(puts.len(), 4 * 40, "every put survives the splits exactly once");
        assert_eq!(check.get("shared/ctr"), Some(160));
        assert_eq!(success.load(std::sync::atomic::Ordering::Relaxed), 160);
        // The audit dashboards agree with the data.
        let entries: u64 = store.snapshot_stats().iter().map(|d| d.entries).sum();
        assert_eq!(entries, check.scan("", "z").len() as u64);
    }

    #[test]
    fn merge_preserves_every_key_and_restores_placement() {
        let store = small_store(2);
        let mut c = store.client(store.admit_vip().unwrap());
        for i in 0..64 {
            c.put(&format!("key/{i:02}"), i);
        }
        let placement_before: Vec<usize> =
            (0..64).map(|i| store.shard_of(&format!("key/{i:02}"))).collect();
        let before = store.client(store.admit_guest()).scan("", "z");
        let child = store.split_shard(0).unwrap();
        let parent = store.merge_shard(child).unwrap();
        assert_eq!(parent, 0);
        assert_eq!(store.shards(), 3, "the tombstone keeps its slot");
        assert_eq!(store.live_shards(), 2);
        assert_eq!(store.topology().version(), 2);
        // Nothing lost, nothing duplicated, order preserved.
        assert_eq!(store.client(store.admit_guest()).scan("", "z"), before);
        // Placement is exactly what it was before the split.
        for (i, &was) in placement_before.iter().enumerate() {
            let key = format!("key/{i:02}");
            assert_eq!(store.shard_of(&key), was, "{key} must route as before the split");
            assert_eq!(c.get(&key), Some(i as u64), "{key} survives the round-trip");
        }
        // The tombstone holds no data; the stats dashboards agree.
        let stats = store.snapshot_stats();
        assert_eq!(stats[child].entries, 0, "the retired child drained everything");
        let entries: u64 = stats.iter().map(|d| d.entries).sum();
        assert_eq!(entries, 64);
        // The store keeps serving and splitting after a merge.
        assert_eq!(c.put("post-merge", 7), None);
        assert_eq!(c.get("post-merge"), Some(7));
        let next = store.split_shard(0).unwrap();
        assert_eq!(next, 3, "tombstoned slots are never reused");
    }

    #[test]
    fn merge_and_split_of_ineligible_shards_are_typed_errors() {
        let store = small_store(2);
        assert_eq!(
            store.merge_shard(9),
            Err(crate::router::MergeError::NoSuchShard { shard: 9, shards: 2 })
        );
        assert_eq!(store.merge_shard(1), Err(crate::router::MergeError::RootShard { shard: 1 }));
        let child = store.split_shard(0).unwrap();
        store.merge_shard(child).unwrap();
        assert_eq!(
            store.merge_shard(child),
            Err(crate::router::MergeError::AlreadyRetired { shard: child })
        );
        assert_eq!(store.split_shard(child), Err(SplitError::RetiredShard { shard: child }));
        assert!(store.split_shard(child).unwrap_err().to_string().contains("retired"));
    }

    #[test]
    fn merge_races_concurrent_commits_without_loss_or_duplication() {
        // Writers hammer disjoint keys while a split and its inverse merge
        // land mid-run: every put survives exactly once, the CAS total
        // stays exact, and the final placement equals the pre-split one.
        let store = small_store(2);
        let vip = store.admit_vip().unwrap();
        let guests: Vec<_> = (0..3).map(|_| store.admit_guest()).collect();
        let success = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for (w, t) in guests.iter().copied().chain([vip]).enumerate() {
                let store = &store;
                let success = &success;
                s.spawn(move || {
                    let mut c = store.client(t);
                    for i in 0..40 {
                        c.put(&format!("w{w}/{i:02}"), i);
                        loop {
                            let cur = c.get("shared/ctr");
                            if c.cas("shared/ctr", cur, cur.unwrap_or(0) + 1).0 {
                                success.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                });
            }
            let store = &store;
            s.spawn(move || {
                let child = store.split_shard(0).unwrap();
                std::thread::yield_now();
                store.merge_shard(child).unwrap();
            });
        });
        assert_eq!(store.shards(), 3);
        assert_eq!(store.live_shards(), 2, "the topology round-tripped");
        let mut check = store.client(store.admit_guest());
        let puts = check.scan("w", "x");
        assert_eq!(puts.len(), 4 * 40, "every put survives the split+merge exactly once");
        assert_eq!(check.get("shared/ctr"), Some(160));
        assert_eq!(success.load(std::sync::atomic::Ordering::Relaxed), 160);
        let entries: u64 = store.snapshot_stats().iter().map(|d| d.entries).sum();
        assert_eq!(entries, check.scan("", "z").len() as u64);
    }

    /// The policy the elasticity tests rebalance by: a 32-heat window and
    /// a 64-heat cool-down, so the tests stay fast. A single-threaded
    /// client round-robins its keys, so windows this small are burst-free.
    fn melt_policy() -> ElasticityPolicy {
        ElasticityPolicy { cooldown: 64, min_window: 32 }
    }

    /// Runs `round` and then one [`Store::rebalance`] until the engine
    /// applies a split; returns the rounds it took.
    fn rounds_until_split(
        store: &Store,
        engine: &mut ElasticEngine,
        mut round: impl FnMut(u64),
    ) -> u64 {
        for rounds in 0..500 {
            round(rounds);
            if let ElasticDecision::Split(_) = store.rebalance(engine) {
                return rounds + 1;
            }
        }
        panic!("500 rounds of melt and rebalance, and no split");
    }

    #[test]
    fn elastic_store_auto_splits_on_melt_and_auto_merges_on_cool() {
        let store = StoreBuilder::new().shards(4).vip_capacity(1).guest_ports(2).build().unwrap();
        let mut engine = ElasticEngine::new(melt_policy());
        let mut c = store.client(store.admit_guest());
        // Melt: hammer keys that all live on one shard under the fresh
        // topology. The engine must split it with no manual choice.
        let hot_keys = keys_on_shard(&store.topology(), 0, 4);
        rounds_until_split(&store, &mut engine, |round| {
            for key in &hot_keys {
                c.put(key, round);
            }
        });
        assert!(store.live_shards() > 4, "the engine grew the topology");
        let grown = store.shards();
        // Cool: move every bit of traffic to shards 1..: the children of
        // shard 0 go cold and the engine must retire them, unwinding to
        // the original live set.
        let cool_keys: Vec<String> =
            (1..4).flat_map(|s| keys_on_shard(&store.topology(), s, 3)).collect();
        let mut rounds = 0;
        while store.live_shards() > 4 {
            for key in &cool_keys {
                c.put(key, rounds);
            }
            store.rebalance(&mut engine);
            rounds += 1;
            assert!(rounds < 2000, "fading load must trigger the merges");
        }
        let report = engine.report();
        assert!(report.splits >= 1);
        assert!(report.merges >= 1);
        assert_eq!(store.live_shards(), 4, "the topology converged back");
        assert_eq!(store.shards(), grown, "tombstones keep their slots");
        // The data survived the whole elastic episode.
        for key in &hot_keys {
            assert!(c.get(key).is_some(), "{key} survives the split and the merge");
        }
    }

    /// A panic under the admin lock costs only its own operation. The
    /// thread below dies where a reconfiguration would, holding the admin
    /// lock: afterwards splits, merges and checkpoints still run, and
    /// [`Store::rebalance`] still splits a melting shard.
    #[test]
    fn a_poisoned_admin_lock_costs_only_its_own_operation() {
        let store = StoreBuilder::new().shards(4).vip_capacity(1).guest_ports(2).build().unwrap();
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let _admin = store.admin.lock().unwrap();
                panic!("a reconfiguration panics under the admin lock");
            })
            .join()
        });
        assert!(joined.is_err() && store.admin.is_poisoned());
        let child = store.split_shard(0).unwrap();
        assert_eq!(store.merge_shard(child).unwrap(), 0);
        assert_eq!(store.checkpoint().shards.len(), 5);
        let mut engine = ElasticEngine::new(melt_policy());
        let mut c = store.client(store.admit_guest());
        let hot_keys = keys_on_shard(&store.topology(), 1, 4);
        rounds_until_split(&store, &mut engine, |round| {
            for key in &hot_keys {
                c.put(key, round);
            }
        });
        assert!(store.live_shards() > 4);
    }

    /// A scratch file under the workspace target dir, unique per test.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-unit-tests");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    #[test]
    fn checkpoint_seals_every_shard_and_publishes_anchors() {
        let store = small_store(3);
        let mut c = store.client(store.admit_vip().unwrap());
        for i in 0..24 {
            c.put(&format!("k{i}"), i);
        }
        assert_eq!(store.anchor_indices(), vec![0, 0, 0]);
        let snapshot = store.checkpoint();
        assert_eq!(snapshot.shards.len(), 3);
        assert_eq!(snapshot.entries(), 24, "sealed states cover every committed key");
        let (anchors, stats) = (store.anchor_indices(), store.snapshot_stats());
        for (s, anchor) in anchors.iter().enumerate() {
            assert_eq!(
                *anchor,
                snapshot.shards[s].log_index + 1,
                "anchor points past shard {s}'s checkpoint cell"
            );
            // No reads so far, so heat is cells alone.
            assert_eq!(
                stats[s].commits,
                snapshot.shards[s].log_index + 1,
                "shard {s}'s seal published its digest"
            );
        }
        // The store keeps serving after a checkpoint.
        assert_eq!(c.get("k3"), Some(3));
        c.put("post", 99);
        assert_eq!(c.get("post"), Some(99));
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
        let view = store.view.newest();
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

    #[test]
    fn request_guest_many_matches_sequential_dispatch() {
        let batched_store = small_store(2);
        let sequential_store = small_store(2);
        let envelopes = || {
            vec![
                Request::new(vec![StoreOp::Put("m/a".into(), 1), StoreOp::Get("m/b".into())]),
                Request::new(vec![StoreOp::Put("m/b".into(), 2), StoreOp::Get("m/a".into())]),
                Request::new(vec![
                    StoreOp::Cas { key: "m/a".into(), expect: Some(1), new: 9 },
                    StoreOp::Remove("m/b".into()),
                    StoreOp::Get("m/a".into()),
                ]),
            ]
        };
        let mut batched = batched_store.client(batched_store.admit_guest());
        let got = batched.request_guest_many(envelopes());
        let mut sequential = sequential_store.client(sequential_store.admit_guest());
        let want: Vec<Response> =
            envelopes().into_iter().map(|req| sequential.request_guest(req)).collect();
        assert_eq!(got, want, "one coalesced round ≡ one envelope at a time");
        // Cross-envelope visibility inside the batch: envelope 2's Cas
        // saw envelope 0's Put, its Get sees its own Cas.
        assert_eq!(got[2].results[0], Ok(StoreResp::Cas { ok: true, actual: Some(1) }));
        assert_eq!(got[2].results[2], Ok(StoreResp::Value(Some(9))));
    }

    #[test]
    fn every_guest_arm_refuses_sync_and_vip_claims_one_envelope_at_a_time() {
        let store = small_store(1);
        let mut c = store.client(store.admit_guest());
        let put = |k: &str| Request::new(vec![StoreOp::Put(k.into(), 1)]).retry_budget(4);
        let refused = Response::fail_all(1, StoreError::GuestTier);
        let claims: [fn(Request) -> Request; 2] = [
            |r| r.durability(DurabilityClass::Sync),
            |r| r.credential(TierCredential::Vip { token: 7 }),
        ];
        let mut vip = store.client(store.admit_vip().unwrap());
        assert_eq!(vip.request_guest_many(vec![put("v")]), vec![refused.clone()]);
        assert_eq!(c.request_vip(put("v")), refused, "and neither session has the other's arm");
        for claim in claims {
            assert_eq!(c.request(claim(put("x"))), refused);
            assert_eq!(c.request_guest(claim(put("x"))), refused, "the n = 1 fold");
            let got = c.request_guest_many(vec![put("a"), claim(put("x")), put("a")]);
            assert_eq!(got[1], refused, "refused alone, not with its batch-mates");
            assert_eq!(got[2].results, vec![Ok(StoreResp::Value(Some(1)))], "which ran, in order");
            assert_eq!(c.get("x"), None, "the refused envelope committed nothing");
        }
    }

    /// Every port's replay cursor on every shard, `[shard][port]`.
    fn cursors(store: &Store) -> Vec<Vec<u64>> {
        store
            .view
            .newest()
            .shards
            .iter()
            .map(|sh| sh.ports.iter().map(|p| p.lock().unwrap().replayed_cells()).collect())
            .collect()
    }

    fn tier_counter(store: &Store, name: &str) -> u64 {
        let snap = store.scrape();
        ["vip", "guest"].iter().map(|t| snap.value(name, &[("tier", t)]).unwrap()).sum()
    }

    fn reads(keys: &[String]) -> Request {
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

    /// A VIP port's guest voice commits through the VIP's own slot: the
    /// VIP's replica absorbs each of the voice's cells once, as it writes
    /// it, so the VIP's next reads replay none of them. The voice's rounds
    /// are guest rounds, refused what a guest is refused.
    #[test]
    fn a_guest_voice_commits_through_the_vip_replica() {
        let store = small_store(2);
        let ticket = store.admit_vip().unwrap();
        let voice_ticket = store.guest_voice(ticket).unwrap();
        assert_eq!(store.guest_voice(store.admit_guest()), None);
        assert_eq!(voice_ticket.port(), store.admission().ports() + ticket.port());
        let (mut vip, mut voice) = (store.client(ticket), store.client(voice_ticket));
        let keys: Vec<String> = (0..32).map(|i| format!("v/{i:02}")).collect();
        let guest_rounds0 = store.scrape().value("store_commits_total", &[("tier", "guest")]);
        let steps0 = store.replay_steps();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(voice.put(k, i as u64), None);
        }
        let guest_rounds = store.scrape().value("store_commits_total", &[("tier", "guest")]);
        assert_eq!(
            guest_rounds.unwrap() - guest_rounds0.unwrap(),
            32,
            "a voice round is a guest's"
        );
        assert_eq!(
            store.replay_steps() - steps0,
            32,
            "each cell absorbed once, by the one replica"
        );
        let tails: Vec<u64> = store.view.newest().shards.iter().map(|sh| sh.log.tail()).collect();
        let vip_cursors: Vec<u64> = cursors(&store).iter().map(|c| c[ticket.port()]).collect();
        assert_eq!(vip_cursors, tails, "the VIP's slot is at every tail");
        let vip_replayed =
            |s: &Store| s.scrape().value("store_replayed_cells_total", &[("tier", "vip")]).unwrap();
        let before = vip_replayed(&store);
        let want: Vec<_> = (0..32).map(|i| Ok(StoreResp::Value(Some(i)))).collect();
        assert_eq!(vip.request_vip(reads(&keys)).results, want);
        assert_eq!(vip_replayed(&store), before, "the VIP replays none of its voice's cells");
        // A voice is a guest ticket: no synchronous durability, no VIP claim.
        let put = Request::new(vec![StoreOp::Put("v/x".into(), 1)]).retry_budget(4);
        let refused = Response::fail_all(1, StoreError::GuestTier);
        assert_eq!(voice.request_guest(put.clone().durability(DurabilityClass::Sync)), refused);
        assert_eq!(voice.request_vip(put), refused);
    }

    /// A VIP port's guest voice commits through the VIP's slot, and its
    /// cells are heat like any other: [`Store::rebalance`] splits the shard
    /// the voice melts, and the VIP reads every key across the split.
    #[test]
    fn a_voices_commits_are_heat_that_rebalance_acts_on() {
        let store = StoreBuilder::new().shards(4).vip_capacity(1).guest_ports(2).build().unwrap();
        let mut engine = ElasticEngine::new(melt_policy());
        let vip = store.admit_vip().unwrap();
        let mut c = store.client(store.guest_voice(vip).unwrap());
        let hot_keys = keys_on_shard(&store.topology(), 0, 4);
        let rounds = rounds_until_split(&store, &mut engine, |round| {
            for key in &hot_keys {
                c.put(key, round);
            }
        });
        assert!(store.live_shards() > 4);
        for key in &hot_keys {
            assert_eq!(store.client(vip).get(key), Some(rounds - 1), "{key} survives the split");
        }
    }

    /// Heat counts every tier: a shard that only VIPs write melts, and
    /// [`Store::rebalance`] splits it. No VIP commit did any of that work.
    #[test]
    fn a_vip_only_melt_is_rebalanced() {
        let store = StoreBuilder::new().shards(4).vip_capacity(1).guest_ports(2).build().unwrap();
        let mut engine = ElasticEngine::new(melt_policy());
        let mut vip = store.client(store.admit_vip().unwrap());
        let hot_keys = keys_on_shard(&store.topology(), 3, 4);
        rounds_until_split(&store, &mut engine, |round| {
            for key in &hot_keys {
                vip.put(key, round);
            }
        });
        assert_eq!(engine.report().splits, 1);
        assert_eq!(store.live_shards(), 5);
        for key in &hot_keys {
            assert!(vip.get(key).is_some(), "{key} survives the split");
        }
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
        let stale = store.view.newest();
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
        let stale = store.view.newest();
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

    /// Runs `issue` — a read of `keys` through one request arm — so that it
    /// plans under the pre-split view and reaches its port only after the
    /// split: the reader is parked on its port's lock, which this thread
    /// holds across the split. Returns what the arm answered.
    fn read_across_a_split(
        store: &Store,
        ticket: ClientTicket,
        issue: impl Fn(&mut Client<'_>) -> Response + Sync,
    ) -> Response {
        let tier = if ticket.class() == ProgressClass::Vip { "vip" } else { "guest" };
        let moved =
            |s: &Store| s.scrape().value("store_moved_ops_total", &[("tier", tier)]).unwrap();
        for _ in 0..50 {
            let before = moved(store);
            let live = store.topology();
            let victim = (0..live.shards()).find(|&s| live.is_live(s)).unwrap();
            let view = store.view.newest();
            assert_ne!(ticket.port(), view.shards[victim].ports.len() - 1, "the driver's port");
            let parked = view.shards[victim].ports[ticket.port()].lock().unwrap();
            let go = std::sync::Barrier::new(2);
            let resp = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    go.wait();
                    issue(&mut store.client(ticket))
                });
                go.wait();
                // Not load-bearing: it only makes it likely that the reader
                // has planned by now. If it had not, nothing bounces and
                // the loop goes round again.
                std::thread::sleep(Duration::from_millis(5));
                let child = store.split_shard(victim).unwrap();
                drop(parked);
                let resp = reader.join().unwrap();
                store.merge_shard(child).unwrap();
                resp
            });
            if moved(store) > before {
                return resp;
            }
        }
        panic!("the reader never planned before the split in 50 attempts");
    }

    #[test]
    fn stale_read_plans_return_through_every_replan_loop() {
        let store = small_store(1);
        let vip = store.admit_vip().unwrap();
        let guest = std::iter::repeat_with(|| store.admit_guest())
            .find(|t| t.port() != store.admission().ports() - 1)
            .unwrap();
        let keys: Vec<String> = (0..16).map(|i| format!("s/{i:02}")).collect();
        let mut c = store.client(vip);
        for (i, k) in keys.iter().enumerate() {
            c.put(k, i as u64);
        }
        let want: Vec<_> = (0..16).map(|i| Ok(StoreResp::Value(Some(i)))).collect();
        let local0 = tier_counter(&store, "store_local_reads_total");

        let got = read_across_a_split(&store, vip, |c| c.request_vip(reads(&keys)));
        assert_eq!(got.results, want, "VIP arm");
        let got = read_across_a_split(&store, guest, |c| c.request_guest(reads(&keys)));
        assert_eq!(got.results, want, "guest arm");
        let got = read_across_a_split(&store, guest, |c| {
            let mut many = c.request_guest_many(vec![reads(&keys[..8]), reads(&keys[8..])]);
            let tail = many.pop().unwrap();
            let mut head = many.pop().unwrap();
            head.results.extend(tail.results);
            head
        });
        assert_eq!(got.results, want, "coalesced guest arm");
        let got = read_across_a_split(&store, vip, |c| {
            c.request(Request::new(vec![StoreOp::Scan { from: "s/".into(), to: "s/99".into() }]))
        });
        let all: Vec<_> = keys.iter().cloned().zip(0..).collect();
        assert_eq!(got.results, vec![Ok(StoreResp::Entries(all))], "waiting arm, a scan");
        assert!(tier_counter(&store, "store_local_reads_total") > local0, "and none took a cell");
    }

    #[test]
    fn a_deadline_spent_parked_on_a_port_expires_at_the_replan_boundary() {
        // The reader's clock starts before its first round, so the 5 ms it
        // waits on its port's lock count against its 1 ms deadline when
        // the round comes back bounced: the bounced slots expire at the
        // re-plan boundary instead of being retried, and the rest land.
        let store = small_store(2);
        let vip = store.admit_vip().unwrap();
        let keys: Vec<String> = (0..16).map(|i| format!("s/{i:02}")).collect();
        let mut c = store.client(vip);
        for (i, k) in keys.iter().enumerate() {
            c.put(k, i as u64);
        }
        let got = read_across_a_split(&store, vip, |c| c.request_vip(reads(&keys).deadline_ms(1)));
        let victim = (0..store.topology().shards()).find(|&s| store.topology().is_live(s));
        let parked: Vec<bool> = keys.iter().map(|k| Some(store.shard_of(k)) == victim).collect();
        assert!(parked.contains(&true) && parked.contains(&false), "both shards hold keys");
        for ((result, parked), value) in got.results.iter().zip(parked).zip(0..) {
            let want = if parked {
                Err(StoreError::DeadlineExceeded { deadline_ms: 1 })
            } else {
                Ok(StoreResp::Value(Some(value)))
            };
            assert_eq!(result, &want);
        }
    }

    #[test]
    fn a_read_only_melt_is_heat_and_trips_an_auto_split() {
        let store = StoreBuilder::new().shards(4).vip_capacity(1).guest_ports(2).build().unwrap();
        let mut engine = ElasticEngine::new(melt_policy());
        let mut c = store.client(store.admit_guest());
        let hot_keys = keys_on_shard(&store.topology(), 2, 4);
        for key in &hot_keys {
            c.put(key, 7);
        }
        assert_eq!(store.hottest_shard(), 2);
        let cells = cursors(&store);
        // Reads alone move the detector to another shard...
        let other = keys_on_shard(&store.topology(), 1, 1);
        for _ in 0..8 {
            assert_eq!(c.get(&other[0]), None);
        }
        assert_eq!(store.hottest_shard(), 1);
        // ...and reads alone melt shard 2 until a rebalance splits it.
        rounds_until_split(&store, &mut engine, |_| {
            for key in &hot_keys {
                assert_eq!(c.get(key), Some(7));
            }
        });
        assert!(store.live_shards() > 4);
        assert_eq!(cursors(&store)[1], cells[1], "shard 1 took reads and no cell");
    }

    /// The commit-latency histogram of `tier`: (observations, sum).
    fn commit_latency(store: &Store, tier: &str) -> (u64, u64) {
        let snap = store.scrape();
        let h = snap.histogram("store_commit_latency_ns", &[("tier", tier)]).unwrap();
        (h.count, h.sum)
    }

    /// A session lent a reading times its commits on its own readings: a
    /// one-commit request is observed as the session's reading less the
    /// lent one, and a guest batch over every shard as one observation per
    /// commit, each starting where the last ended, so that they sum to the
    /// session's last reading less the lent one. A session lent nothing
    /// still times every commit, and holds no reading.
    #[test]
    fn a_lent_session_prices_its_commits_reading_to_reading() {
        let store = small_store(4);
        let mut vip = store.client(store.admit_vip().unwrap());
        let t0 = Instant::now();
        vip.lend_clock(t0);
        let put = Request::new(vec![StoreOp::Put("v".into(), 1)]).retry_budget(4);
        assert!(vip.request_vip(put.credential(vip.credential())).results[0].is_ok());
        let read = vip.clock().expect("a lent session keeps a reading");
        assert_eq!(commit_latency(&store, "vip"), (1, nanos(read - t0)));

        let topology = store.topology();
        let keys: Vec<String> = (0..4).map(|s| keys_on_shard(&topology, s, 1).remove(0)).collect();
        let reqs = |value| {
            keys.iter().map(|k| Request::new(vec![StoreOp::Put(k.clone(), value)])).collect()
        };
        let mut guest = store.client(store.admit_guest());
        let t1 = Instant::now();
        guest.lend_clock(t1);
        let landed = guest.request_guest_many(reqs(2));
        assert!(landed.iter().all(|resp| resp.results[0].is_ok()));
        let read = guest.clock().unwrap();
        assert_eq!(commit_latency(&store, "guest"), (4, nanos(read - t1)), "chained");

        let mut plain = store.client(store.admit_guest());
        assert_eq!(plain.request_guest_many(reqs(3)).len(), 4);
        assert_eq!(commit_latency(&store, "guest").0, 8, "one observation per commit");
        assert_eq!(plain.clock(), None);
    }
}
