//! The admin acts: splits, merges, the owner's rebalance, store-wide
//! checkpoints and the seal cadence's step. A topology moves only inside
//! one of them, under one hold of the admin lock from bump to publish, so
//! that lock is the one thing a bounced request waits on
//! ([`Store::view_at_least`]). A split and a merge move keys through one
//! step, `Store::seal_drain`.
//!
//! No commit seals, so a log nobody seals keeps every cell. The seal
//! cadence bounds that: [`Store::seal_due`] checkpoints every live shard
//! whose log holds [`SEAL_EVERY`] cells past its anchor, and
//! [`Store::start_seal_cadence`] runs it every [`SEAL_PERIOD`] on a thread
//! of its own (a `StoreServer` starts one), so the frees of the cells it
//! retires land there, never on a serving thread.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use apc_progress_macros::progress;

use super::{Shard, Store, StoreCore, StoreView, EVERY_IDLE_PORT};
use crate::elastic::{ElasticDecision, ElasticEngine};
use crate::ops::{AdoptSpec, DrainSpec, Key, ShardCmd, ShardSpec, ShardState, StoreResp};
use crate::persist::lock_unpoisoned;
use crate::replan::Input;
use crate::router::ReconfigError;

impl Store {
    /// The waiting arm's view source: a view of at least `min_version`. An
    /// act holds the admin lock from its bump to its publish, so if the
    /// published view is older, this takes the lock — waiting for the act
    /// to end — and reads the view once more. Still older means the act
    /// died between its bump and its publish: [`Input::Never`], which the
    /// engine turns into [`StoreError::Unavailable`](crate::StoreError).
    #[progress(blocking)]
    pub(super) fn view_at_least(&self, min_version: u64) -> Result<&StoreView, Input> {
        if let Ok(view) = self.view_published(min_version) {
            return Ok(view);
        }
        let _admin = lock_unpoisoned(&self.core.admin);
        self.view_published(min_version).map_err(|_| Input::Never)
    }

    /// Splits shard `shard` **live**: commits keep flowing while the split
    /// installs. Returns the new shard's id.
    ///
    /// The sequence is:
    ///
    /// 1. compute the bumped topology (the new shard's rendezvous seed and
    ///    version);
    /// 2. drain the keys the child wins out of the split shard through its
    ///    own consensus log (`Store::seal_drain`) — the linearization
    ///    point of the split. Everything committed before it is partitioned
    ///    deterministically (pairwise rendezvous); batches landing after
    ///    it under the old topology bounce with [`StoreResp::Moved`] and
    ///    are re-planned by their clients;
    /// 3. boot the child shard from the migrated entries (invisible to
    ///    routing until published, so initialization is uncontended);
    /// 4. atomically publish the new `(topology, shards)` view.
    ///
    /// Splits serialize with each other, with merges and with
    /// [`Store::checkpoint`] on the admin lock.
    ///
    /// # Errors
    ///
    /// [`ReconfigError::NoSuchShard`] or [`ReconfigError::Retired`] if
    /// `shard` is not a live shard id.
    #[progress(blocking)]
    pub fn split_shard(&self, shard: usize) -> Result<usize, ReconfigError> {
        let _admin = lock_unpoisoned(&self.core.admin);
        self.split_locked(shard)
    }

    /// The body of [`Store::split_shard`]; the caller holds the admin lock.
    fn split_locked(&self, shard: usize) -> Result<usize, ReconfigError> {
        let (bumped, child) = self.split_bump(shard)?;
        self.metrics.record_split(bumped.topology.version());
        self.core.view.supersede(bumped);
        Ok(child)
    }

    /// Steps 1–3 of a split of `shard` in the newest view: returns the view
    /// the split publishes and the child's id, and publishes nothing.
    fn split_bump(&self, shard: usize) -> Result<(StoreView, usize), ReconfigError> {
        let view = self.core.view.newest();
        let (topology, child) = view.topology.split(shard)?;
        let node = topology.node(child);
        let drain = DrainSpec { version: topology.version(), child_seed: Some(node.seed) };
        let outgoing = self.seal_drain(&view.shards[shard], drain);
        let born = Shard::build(
            ShardSpec { seed: node.seed, created_at: node.created_at },
            self.core.admission.spec(),
            self.core.admission.ports(),
            self.core.admitted_vips(),
            Some((Arc::new(ShardState::with_entries(outgoing, node.created_at)), 0)),
        );
        let shards = view.shards.iter().cloned().chain([Arc::new(born)]).collect();
        Ok((StoreView { topology, shards }, child))
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
    ///    [`check_merge`](crate::router::ShardTopology::check_merge) —
    ///    merges unwind splits in reverse);
    /// 2. drain every key out of the child through its own consensus log
    ///    (`Store::seal_drain`) — the child-side linearization point.
    ///    Batches landing after it under the old topology bounce with
    ///    [`StoreResp::Moved`] and are re-planned by their clients;
    /// 3. install an [`AdoptSpec`] with the drained entries through the
    ///    **parent's** consensus log, also sealed — the parent-side
    ///    linearization point. The parent's epoch is *not* bumped: its own
    ///    keys never move in a merge, so in-flight parent batches stay
    ///    valid;
    /// 4. atomically publish the new `(topology, shards)` view. The
    ///    retired shard keeps its slot (ids stay dense) and keeps
    ///    answering stale batches with `Moved`, but routing, broadcasts,
    ///    and the hot-shard detector skip it from now on.
    ///
    /// Between the drain and the adoption the moved keys are reachable by
    /// **no** batch: old plans bounce at the child, and no client can plan
    /// against the merged topology until it is published, which happens
    /// only after the adoption installs. Each seal anchors its log, so a
    /// merge compacts both.
    ///
    /// # Errors
    ///
    /// Any [`ReconfigError`] from
    /// [`check_merge`](crate::router::ShardTopology::check_merge).
    #[progress(blocking)]
    pub fn merge_shard(&self, child: usize) -> Result<usize, ReconfigError> {
        let _admin = lock_unpoisoned(&self.core.admin);
        self.merge_locked(child)
    }

    /// The body of [`Store::merge_shard`]; the caller holds the admin lock.
    fn merge_locked(&self, child: usize) -> Result<usize, ReconfigError> {
        let view = self.core.view.newest();
        let (topology, parent) = view.topology.merge(child)?;
        let version = topology.version();
        let drain = DrainSpec { version, child_seed: None };
        let entries = Arc::new(self.seal_drain(&view.shards[child], drain));
        let (_, resps) =
            view.shards[parent].seal_act(self.core.admitted_vips(), EVERY_IDLE_PORT, |handle| {
                handle.reconfigure(ShardCmd::Adopt(AdoptSpec { version, entries }))
            });
        debug_assert!(
            matches!(resps.first(), Some(StoreResp::Value(Some(_)))),
            "an adoption answers with its entry count"
        );
        self.metrics.record_merge(version);
        self.core.view.supersede(StoreView { topology, shards: view.shards.clone() });
        Ok(parent)
    }

    /// The step a split and a merge share: installs `drain` through
    /// `source`'s own consensus log as a seal with an operation
    /// ([`reconfigure`](apc_universal::OwnedHandle::reconfigure), on the
    /// seal port, so VIP ports never contend with it; placement is
    /// lock-free, each failed attempt a client batch committing) and
    /// returns the entries it drained. The seal is the act's
    /// linearization point on `source`, and becomes its log's anchor.
    fn seal_drain(&self, source: &Shard, drain: DrainSpec) -> Vec<(Key, u64)> {
        let (_, mut resps) =
            source.seal_act(self.core.admitted_vips(), EVERY_IDLE_PORT, |handle| {
                handle.reconfigure(ShardCmd::Drain(drain))
            });
        match resps.pop() {
            Some(StoreResp::Entries(entries)) => entries,
            other => unreachable!("a drain answers with its migration set, got {other:?}"),
        }
    }

    /// One act of the elasticity policy, which the store's owner delivers
    /// as it calls [`Store::split_shard`] or [`Store::checkpoint`]: no
    /// commit carries it. Under the admin lock, `engine` evaluates one read
    /// of the shards' digests ([`Store::snapshot_stats`]) at their summed
    /// heat (the unit of its `min_window` and `cooldown`: every tier's
    /// cells and local reads), and the store applies the one split or merge
    /// it decides, if any. Returns that decision. The engine is the
    /// caller's, and so are the cadence and the running totals
    /// ([`ElasticEngine::report`]).
    #[progress(blocking)]
    pub fn rebalance(&self, engine: &mut ElasticEngine) -> ElasticDecision {
        let _admin = lock_unpoisoned(&self.core.admin);
        let view = self.core.view.newest();
        let stats = Store::digests(view);
        let heat = stats.iter().map(|d| d.commits).sum();
        let decision = engine.evaluate(heat, &stats, &view.topology);
        self.metrics.record_elastic(decision);
        // The engine splits only a live shard and merges only what
        // `check_merge` accepts, on this view: neither act can refuse it.
        let applied = match decision {
            ElasticDecision::Split(shard) => self.split_locked(shard).is_ok(),
            ElasticDecision::Merge(shard) => self.merge_locked(shard).is_ok(),
            ElasticDecision::Hold => return ElasticDecision::Hold,
        };
        debug_assert!(applied, "the store refused the engine's {decision:?}");
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
    /// instead. The seal and the snapshot share the sealing port's replica:
    /// neither copies the map. After each shard's seal every idle port of
    /// it — free, behind the new anchor, and not an admitted VIP's — is
    /// re-based onto the anchor, so the sealed prefix is freed once the
    /// ports in use have replayed past it; an admitted VIP that has gone
    /// idle still holds it.
    /// Serializes with [`Store::split_shard`] so the snapshot's topology
    /// always matches its sealed states.
    ///
    /// This is the act for an owner who persists ([`Persister`] calls it):
    /// it seals every shard, due or not, and returns what it sealed. A store
    /// that only needs its memory bounded seals through the cadence's step,
    /// [`Store::seal_due`], which a `StoreServer` runs on its own.
    ///
    /// [`Persister`]: crate::persist::Persister
    #[progress(blocking)]
    pub fn checkpoint(&self) -> crate::persist::StoreSnapshot {
        let _admin = lock_unpoisoned(&self.core.admin);
        let view = self.core.view.newest();
        let shards = view
            .shards
            .iter()
            .map(|shard| {
                shard.seal_act(self.core.admitted_vips(), EVERY_IDLE_PORT, |handle| {
                    let log_index = handle.checkpoint();
                    crate::persist::ShardSnapshot { log_index, state: Arc::clone(handle.replica()) }
                })
            })
            .collect();
        crate::persist::StoreSnapshot { topology: view.topology.clone(), shards }
    }
}

/// Cells a live shard's log may hold past its anchor before
/// [`Store::seal_due`] seals it: 16 segments. Above every set-up the
/// benchmark times (a 400 000-key preload in 1024-key batches is 391 cells
/// per shard), so no cadence seal lands inside one.
pub const SEAL_EVERY: u64 = 1024;

/// How often the seal cadence's thread looks for a shard to seal.
pub const SEAL_PERIOD: Duration = Duration::from_millis(10);

/// The live shards of `view` whose log holds at least [`SEAL_EVERY`]
/// cells past its anchor: two loads per shard, no lock.
#[progress(wait_free)]
fn due_shards(view: &StoreView) -> impl Iterator<Item = &Arc<Shard>> {
    let live = view.shards.iter().enumerate().filter(|&(s, _)| view.topology.is_live(s));
    live.map(|(_, shard)| shard).filter(|shard| shard.unsealed_cells() >= SEAL_EVERY)
}

impl StoreCore {
    /// The body of [`Store::seal_due`].
    #[progress(blocking)]
    fn seal_due(&self) -> usize {
        let _admin = lock_unpoisoned(&self.admin);
        let admitted = self.admitted_vips();
        let mut sealed = 0;
        for shard in due_shards(self.view.newest()) {
            // A port that moved past the anchor this seal replaces is in
            // use: a re-base would make its next write copy the map. The
            // seal port itself, if in use, copies here instead.
            let idle_at = shard.log.anchor_index();
            shard.seal_act(admitted, idle_at, |handle| {
                let in_use = handle.replayed_cells() > idle_at;
                handle.checkpoint();
                if in_use {
                    handle.own_replica();
                }
            });
            sealed += 1;
        }
        self.cadence_seals.add(sealed as u64);
        sealed
    }
}

impl Store {
    /// The seal cadence's step, an admin act the owner calls as it calls
    /// [`Store::rebalance`] (a `StoreServer` calls it every [`SEAL_PERIOD`]
    /// on a thread of its own, [`Store::start_seal_cadence`]): under the
    /// admin lock, seals a checkpoint on every live shard whose log holds
    /// at least [`SEAL_EVERY`] cells past its anchor, through the seal act's
    /// door. So the ports idle since the shard's previous seal are re-based
    /// behind it, an admitted VIP's slot is never touched, and what the
    /// seals displace is freed on the calling thread. A port used since
    /// keeps its own replica and cursor, pinning no cell before that
    /// previous seal, so a shard holds at most about `2 × SEAL_EVERY`
    /// cells; and if the seal port is one in use, its replica, which the
    /// seal shares with the anchor, is copied here, not by its next write.
    /// It persists nothing: an owner who persists calls
    /// [`Store::checkpoint`]. Returns how many shards it sealed.
    #[progress(blocking)]
    pub fn seal_due(&self) -> usize {
        self.core.seal_due()
    }

    /// Starts the seal cadence: a housekeeping thread that wakes every
    /// [`SEAL_PERIOD`], loads each live shard's tail and anchor, and runs
    /// [`Store::seal_due`] when one of them is due. The thread holds the
    /// store by a `Weak`, so it never keeps a dropped store alive, and
    /// dropping the returned [`SealCadence`] stops and joins it. `None` if
    /// the thread cannot be spawned: the store then seals only when its
    /// owner does.
    pub fn start_seal_cadence(&self) -> Option<SealCadence> {
        let (stop, stopped) = mpsc::channel();
        let core = Arc::downgrade(&self.core);
        let thread = std::thread::Builder::new()
            .name("apc-seal-cadence".into())
            .spawn(move || SealCadence::cadence_loop(&core, &stopped))
            .ok()?;
        Some(SealCadence { stop: Some(stop), thread: Some(thread) })
    }
}

/// A running seal cadence ([`Store::start_seal_cadence`]). Dropping it
/// stops the thread and joins it.
#[derive(Debug)]
pub struct SealCadence {
    /// Never sent on: dropping it ends the thread's wait at once.
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl SealCadence {
    /// The thread's loop: waits a period for the stop, then, if the store
    /// is still there and a shard is due, seals.
    fn cadence_loop(core: &Weak<StoreCore>, stopped: &Receiver<()>) {
        while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(SEAL_PERIOD) {
            let Some(core) = core.upgrade() else { return };
            if due_shards(core.view.newest()).next().is_some() {
                core.seal_due();
            }
        }
    }
}

impl Drop for SealCadence {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            // A step that panicked ended the cadence, not the store.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::StoreError;
    use crate::elastic::ElasticityPolicy;
    use crate::ops::StoreOp;
    use crate::store::tests::{cursors, keys_on_shard, small_store};
    use crate::store::StoreBuilder;
    use std::time::{Duration, Instant};

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
        assert_eq!(store.split_shard(5), Err(ReconfigError::NoSuchShard { shard: 5, shards: 1 }));
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
        let missing = ReconfigError::NoSuchShard { shard: 9, shards: 2 };
        assert_eq!(store.merge_shard(9), Err(missing));
        assert_eq!(store.split_shard(9), Err(missing));
        assert_eq!(store.merge_shard(1), Err(ReconfigError::RootShard { shard: 1 }));
        let child = store.split_shard(0).unwrap();
        store.merge_shard(child).unwrap();
        let tombstone = ReconfigError::Retired { shard: child };
        assert_eq!(store.merge_shard(child), Err(tombstone));
        assert_eq!(store.split_shard(child), Err(tombstone));
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
                let _admin = store.core.admin.lock().unwrap();
                panic!("a reconfiguration panics under the admin lock");
            })
            .join()
        });
        assert!(joined.is_err() && store.core.admin.is_poisoned());
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

    /// Bumps shard 0 the way a split does, through the shard's own log,
    /// and publishes nothing: the caller holds the admin lock, as the act
    /// would. Returns the view the split would publish.
    fn bump_shard_0(store: &Store) -> StoreView {
        store.split_bump(0).unwrap().0
    }

    /// An act that dies between its bump and its publish leaves a shard
    /// that bounces every plan at a topology no one will publish. The
    /// waiting arm learns that from the admin lock the act held: it is
    /// free, the view is still old, so the bounced put is `Unavailable`
    /// at once instead of after a wait.
    #[test]
    fn a_bump_whose_act_died_is_unavailable_at_once() {
        let store = small_store(1);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _admin = store.core.admin.lock().unwrap();
                bump_shard_0(&store);
                panic!("the act dies between its bump and its publish");
            })
            .join()
        });
        assert!(died.is_err() && store.topology().version() == 0);
        let mut c = store.client(store.admit_vip().unwrap());
        let started = Instant::now();
        let got = c.execute(vec![StoreOp::Put("k".into(), 1)]);
        assert_eq!(got, vec![Err(StoreError::Unavailable { version: 1 })]);
        assert!(started.elapsed() < Duration::from_secs(5), "waited {:?}", started.elapsed());
    }

    /// A put that bounces off a live act's bump waits on the admin lock,
    /// and lands once the act has published and let go.
    #[test]
    fn a_bounce_waits_on_the_admin_lock_and_lands_after_the_publish() {
        let store = small_store(1);
        let moved = || store.scrape().value("store_moved_ops_total", &[("tier", "vip")]);
        let mut c = store.client(store.admit_vip().unwrap());
        let got = std::thread::scope(|s| {
            let admin = store.core.admin.lock().unwrap();
            let bumped = bump_shard_0(&store);
            let putter = s.spawn(move || c.execute(vec![StoreOp::Put("k".into(), 1)]));
            while moved() == Some(0) {
                std::thread::yield_now();
            }
            // Not load-bearing: it only makes it likely that the putter has
            // found the view old before the publish. If it has not, its
            // first look sees the publish, and the put lands all the same.
            std::thread::sleep(Duration::from_millis(20));
            store.core.view.supersede(bumped);
            drop(admin);
            putter.join().unwrap()
        });
        assert_eq!(got, vec![Ok(StoreResp::Value(None))], "the put landed once");
        assert_eq!(store.client(store.admit_guest()).get("k"), Some(1));
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

    /// The cadence's step frees the sealed prefix: the first cell's record
    /// — a batch whose ops slice only that cell holds — goes with the first
    /// segment once a step seals past it and re-bases every port (no VIP
    /// is admitted), and not before.
    #[test]
    fn the_cadence_step_frees_the_sealed_prefix() {
        let store = small_store(1);
        let guest = store.admit_guest();
        let batch = crate::ops::Batch::new(0, vec![StoreOp::Put("first".into(), 1)]);
        let first = Arc::downgrade(&batch.ops);
        let shard = Arc::clone(&store.core.view.newest().shards[0]);
        shard
            .visit(guest.port(), |handle| {
                apc_universal::OwnedHandle::apply_as(handle, guest.port(), ShardCmd::Batch(batch))
            })
            .unwrap();
        assert_eq!(store.seal_due(), 0, "one cell is not due");
        let mut client = store.client(guest);
        for i in 0..SEAL_EVERY {
            client.put(&format!("k{}", i % 8), i);
        }
        assert!(first.upgrade().is_some(), "the first cell went before any seal");
        assert_eq!(shard.unsealed_cells(), SEAL_EVERY + 1);
        assert_eq!(store.seal_due(), 1);
        assert!(first.upgrade().is_none(), "the first segment outlived the seal past it");
        assert_eq!(store.seal_due(), 0, "a sealed shard is not due again");
        assert_eq!(store.scrape().value("store_cadence_seals_total", &[]), Some(1));
    }

    /// A started cadence seals a due shard on its own thread; once the
    /// handle is dropped the thread is gone and seals nothing more; and a
    /// cadence that outlives its store ends too (it holds a `Weak`).
    #[test]
    fn a_seal_cadence_seals_what_is_due_and_stops_when_dropped() {
        let store = small_store(2);
        let seals = |store: &Store| store.scrape().value("store_cadence_seals_total", &[]).unwrap();
        let mut client = store.client(store.admit_guest());
        let mut write = |from: u64| {
            for i in from..from + 2 * SEAL_EVERY {
                let ops = (0..2).map(|s| StoreOp::Put(format!("{s}/{}", i % 8), i)).collect();
                client.execute(ops);
            }
        };
        write(0);
        let cadence = store.start_seal_cadence().expect("the thread spawns");
        let deadline = Instant::now() + Duration::from_secs(30);
        while seals(&store) < 2 && Instant::now() < deadline {
            std::thread::sleep(SEAL_PERIOD);
        }
        assert_eq!(seals(&store), 2, "both shards were due");
        drop(cadence);
        write(2 * SEAL_EVERY);
        std::thread::sleep(3 * SEAL_PERIOD);
        assert_eq!(seals(&store), 2, "a dropped cadence sealed");
        assert_eq!(store.seal_due(), 2, "the owner's step still seals");

        let cadence = store.start_seal_cadence().expect("the thread spawns");
        drop(store);
        drop(cadence);
    }

    /// The cadence's step reads the admitted VIPs under the admin lock, as
    /// admission changes them: a VIP admitted while a step waits for the
    /// lock is one the step leaves alone, so its replica stays its own. The
    /// admission is made by hand under the held lock, the way
    /// [`Store::admit_vip`] makes it, after the step has started.
    #[test]
    fn a_vip_admitted_while_a_cadence_step_waits_keeps_its_own_replica() {
        let store = small_store(1);
        let mut guest = store.client(store.admit_guest());
        for i in 0..SEAL_EVERY {
            guest.put(&format!("k{}", i % 8), i);
        }
        let shard = Arc::clone(&store.core.view.newest().shards[0]);
        std::thread::scope(|s| {
            let admin = store.core.admin.lock().unwrap();
            let step = s.spawn(|| store.seal_due());
            std::thread::sleep(Duration::from_millis(50));
            let vip = store.core.admission.admit(crate::admission::ProgressClass::Vip).unwrap();
            shard.visit(vip.port(), apc_universal::OwnedHandle::own_replica);
            drop(admin);
            assert_eq!(step.join().unwrap(), 1, "the shard was due");
            let slot = shard.ports[vip.port()].lock().unwrap();
            assert_eq!(Arc::strong_count(slot.replica()), 1, "the step re-based an admitted VIP");
        });
    }
}
