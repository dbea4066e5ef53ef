//! The port door: every path into a shard's replicas goes through
//! [`Shard::visit`]. A VIP's slot is its own (one owner, under its own pid
//! or its guest voice's, one at a time), a guest's is shared behind the
//! slot's mutex, and each visit publishes the slot's digest words before
//! it lets go.
//!
//! A seal goes through the door too ([`Shard::seal_act`]), and re-bases the
//! idle ports behind it: a port nobody uses holds the anchor's state,
//! shared, and pins no cell before the anchor. Only an admitted VIP's slot
//! is left alone, so a VIP visit never copies a replica and never waits on
//! a sealer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use apc_core::liveness::Liveness;
use apc_progress_macros::progress;
use apc_universal::{AsymmetricFactory, OwnedHandle, Universal};

use crate::ops::ShardState;

/// The universal-object type backing one shard.
pub type ShardLog = Universal<crate::ops::ShardSpec, AsymmetricFactory>;

/// One port's handle on a shard log, with the port's replica of the shard.
pub(super) type PortHandle = OwnedHandle<crate::ops::ShardSpec, AsymmetricFactory>;

/// The `idle_at` of a seal that re-bases every idle port behind it
/// ([`Shard::seal_act`]), however recently it moved.
pub(super) const EVERY_IDLE_PORT: u64 = u64::MAX;

/// A monotone per-port commit digest, published into two of the port's
/// digest words after every visit.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ShardDigest {
    /// Log cells replayed by the publishing port (monotone version). As
    /// returned by [`Store::snapshot_stats`](super::Store::snapshot_stats), plus the shard's rounds
    /// answered without a cell — the shard's heat, reads included.
    pub commits: u64,
    /// Number of live keys in the shard at publication time.
    pub entries: u64,
}

pub(super) struct Shard {
    /// The shard's universal log (also co-owned by every port handle).
    pub(super) log: Arc<ShardLog>,
    /// One slot per port; guests multiplex, VIPs own theirs exclusively,
    /// and a VIP slot's handle also holds the port's guest voice. Each
    /// handle co-owns the shard's universal log.
    pub(super) ports: Vec<Mutex<PortHandle>>,
    /// Per-port digests, seeded from the state the shard is built from.
    /// Each has one writer at a time (whoever holds the port's mutex), and
    /// each reader folds monotone per-port values
    /// ([`snapshot_stats`](super::Store::snapshot_stats) keeps the maximum,
    /// [`replay_steps`](super::Store::replay_steps) the sum), so it needs
    /// each port's latest value and no atomicity across ports: one collect,
    /// not a snapshot scan.
    pub(super) digests: Vec<PortDigest>,
    /// Rounds answered from a port's replica without a log cell. Read
    /// traffic is heat too: [`snapshot_stats`](super::Store::snapshot_stats)
    /// adds this to the digest's cell count, or a read-hot shard would
    /// never split.
    pub(super) local_reads: AtomicU64,
}

impl Shard {
    /// **The one door to a port**: locks the slot of process `pid` — its
    /// own, or for a VIP port's guest voice the VIP's — runs `act` on the
    /// slot's handle, then publishes the handle's replayed position into
    /// the slot's digest words — in that order, always. Nothing else locks
    /// a port, so no path that advances a port's replica (commits, seals
    /// and reconfigurations alike) can leave the dashboard reporting the
    /// position it had before.
    pub(super) fn visit<R>(&self, pid: usize, act: impl FnOnce(&mut PortHandle) -> R) -> R {
        let slot = self.slot(pid);
        // APC-LINT: allow(progress): a VIP slot's mutex is uncontended by construction (one exclusive owner, entering under its two pids one after the other; the one other party that may take a VIP slot is the sealer's re-base, only before the slot's VIP is admitted and only under the admin lock, which admission takes), so the VIP path's lock is bounded; guest ports share theirs by design
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

    /// Cells the shard's log holds past its anchor: what a seal would let
    /// the idle ports drop. Two loads, the anchor's first, so the tail read
    /// after it is never behind it (a seal raises the tail before it
    /// publishes the anchor, and both only grow).
    #[progress(wait_free)]
    pub(super) fn unsealed_cells(&self) -> u64 {
        let anchor = self.log.anchor_index();
        self.log.tail().saturating_sub(anchor)
    }

    /// The port seals and reconfigurations ride: the guest tier
    /// (`guest_ports ≥ 1`, so the last port is always a guest port), never a
    /// VIP's exclusive one.
    fn seal_port(&self) -> usize {
        self.ports.len() - 1
    }

    /// **The seal act's door**: runs `seal` — a checkpoint or a
    /// reconfiguration, which publishes the anchor — on the seal port
    /// through [`Shard::visit`], then re-bases the idle ports behind the
    /// new anchor ([`Shard::rebase_idle`]): those whose cursor is at or
    /// before cell `idle_at` ([`EVERY_IDLE_PORT`] for all of them). The
    /// caller holds the admin lock, so `admitted`, the VIPs admitted so
    /// far, cannot grow meanwhile.
    #[progress(blocking)]
    pub(super) fn seal_act<R>(
        &self,
        admitted: usize,
        idle_at: u64,
        seal: impl FnOnce(&mut PortHandle) -> R,
    ) -> R {
        let out = self.visit(self.seal_port(), seal);
        self.rebase_idle(admitted, idle_at);
        out
    }

    /// Re-bases ([`OwnedHandle::rebase`]) every port slot that is free (its
    /// `try_lock` succeeds), trails the published anchor, has not moved
    /// past cell `idle_at` and is not an admitted VIP's (slots
    /// `0..admitted`), and publishes its digest. A busy slot is skipped: it
    /// is in use, and the next seal looks again. So is one past `idle_at`:
    /// it has been used since, its replica is its own and its next write
    /// would copy the anchor's. What the re-bases displaced is dropped once
    /// every slot is released, so the free burst lands on this thread, the
    /// admin act's, and never under a port a client may be waiting on.
    #[progress(blocking)]
    fn rebase_idle(&self, admitted: usize, idle_at: u64) {
        let displaced: Vec<_> = (admitted..self.ports.len())
            .filter_map(|slot| {
                let mut handle = self.ports[slot].try_lock().ok()?;
                if handle.replayed_cells() > idle_at {
                    return None;
                }
                let displaced = OwnedHandle::rebase(&mut handle)?;
                self.digests[slot].publish(&handle);
                Some(displaced)
            })
            .collect();
        drop(displaced);
    }

    /// Builds one shard over `ports` port slots, optionally resuming from a
    /// recovered `(state, log_index)` pair (a snapshot's, or a split
    /// child's migrated keys at index 0). The log has one process per
    /// process of `liveness`; VIP slot `v` holds both the VIP and its
    /// guest voice, `ports + v` ([`Universal::owned_pair`]). Every port
    /// shares the state it resumes from, but the `admitted` VIPs' slots
    /// (`0..admitted`), which own theirs. Each port's digest starts at that
    /// state, so the shard reports its keys before any visit.
    pub(super) fn build(
        spec: crate::ops::ShardSpec,
        liveness: Liveness,
        ports: usize,
        admitted: usize,
        resume: Option<(Arc<ShardState>, u64)>,
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
                let mut handle = log.owned_pair(p, voice).expect("fresh log, every port available");
                if p < admitted {
                    handle.own_replica();
                }
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
pub(super) struct PortDigest {
    /// The port's replay cursor ([`OwnedHandle::replayed_cells`]).
    cursor: AtomicU64,
    /// Live keys in the port's replica.
    entries: AtomicU64,
    /// Cells the port's handle replayed itself
    /// ([`OwnedHandle::replay_steps`]).
    pub(super) steps: AtomicU64,
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
    pub(super) fn load(&self) -> ShardDigest {
        let commits = self.cursor.load(Ordering::Acquire);
        // RELAXED: ordered after the cursor by the Acquire above.
        ShardDigest { commits, entries: self.entries.load(Ordering::Relaxed) }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    use super::Shard;
    use crate::api::{Request, Response, StoreError};
    use crate::ops::{StoreOp, StoreResp};
    use crate::store::tests::{cursors, keys_on_shard, reads, small_store};
    use crate::store::{Store, StoreBuilder};
    use crate::wal::DurabilityClass;

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
        let tails: Vec<u64> =
            store.core.view.newest().shards.iter().map(|sh| sh.log.tail()).collect();
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

    /// The seal act's door re-bases every idle slot onto the anchor — the
    /// VIP slot nobody was admitted to, the guest slot that wrote and the
    /// ones nobody visited — and leaves the admitted VIP's slot as it was,
    /// though it trails the new anchor too.
    #[test]
    fn a_checkpoint_rebases_the_idle_ports_and_leaves_an_admitted_vips_alone() {
        // Default sizing: VIP slots 0 and 1, guest slots 2–7 (7 seals).
        let store = StoreBuilder::new().shards(2).build().unwrap();
        let view = store.core.view.newest();
        let owns = |slot: usize| {
            let replicas = view
                .shards
                .iter()
                .map(|shard| Arc::strong_count(shard.ports[slot].lock().unwrap().replica()) == 1);
            replicas.collect::<Vec<_>>() == [true, true]
        };
        let mut vip = store.client(store.admit_vip().unwrap());
        assert!(owns(0), "an admitted VIP's replica is shared");
        let mut guest = store.client(store.admit_guest());
        for i in 0..64 {
            vip.put(&format!("v/{i:02}"), i);
            guest.put(&format!("g/{i:02}"), i);
        }
        let vip_slot = |shard: &Shard| {
            let handle = shard.ports[0].lock().unwrap();
            (shard.digests[0].load().commits, Arc::as_ptr(handle.replica()))
        };
        let before: Vec<_> = view.shards.iter().map(|shard| vip_slot(shard)).collect();
        let snapshot = store.checkpoint();
        for (s, shard) in view.shards.iter().enumerate() {
            let anchor = shard.log.anchor_index();
            assert_eq!(anchor, snapshot.shards[s].log_index + 1);
            let digests: Vec<u64> = shard.digests.iter().map(|d| d.load().commits).collect();
            assert_eq!(digests[1..], [anchor; 7], "shard {s}: an idle slot trails the anchor");
            for (slot, port) in shard.ports.iter().enumerate().skip(1) {
                let replica = Arc::clone(port.lock().unwrap().replica());
                let shared = Arc::ptr_eq(&replica, &snapshot.shards[s].state);
                assert!(shared, "shard {s}, slot {slot}: an idle replica is not the sealed one");
            }
            assert!(before[s].0 < anchor);
            assert_eq!(vip_slot(shard), before[s], "shard {s}: the admitted VIP's slot moved");
        }
        assert_eq!(vip.get("g/07"), Some(7));
        assert_eq!(guest.get("v/09"), Some(9));
        // Admission copies the anchor's map the second VIP's slot shares,
        // and its first read replays nothing before the anchor.
        let mut second = store.client(store.admit_vip().unwrap());
        assert!(owns(0) && owns(1), "an admitted VIP's replica is shared");
        assert_eq!(second.get("g/63"), Some(63));
        let steps = |slot: usize| {
            view.shards.iter().map(|sh| sh.digests[slot].steps.load(Ordering::Relaxed)).sum::<u64>()
        };
        assert_eq!(steps(1), 0, "the second VIP replayed the sealed prefix");
    }

    /// Admission takes the admin lock, so a VIP admitted between two
    /// checkpoints of a loop is never re-based under its own visits: every
    /// put of both VIPs, each admitted while the loop runs, lands on every
    /// shard once — one cell per put and one per seal — and none is lost.
    #[test]
    fn a_vip_admitted_while_checkpoints_loop_commits_once_on_every_shard() {
        const ROUNDS: u64 = 40;
        let store = StoreBuilder::new().shards(4).build().unwrap();
        let keys: Vec<String> =
            (0..4).map(|s| keys_on_shard(&store.topology(), s, 1).remove(0)).collect();
        let mut guest = store.client(store.admit_guest());
        for key in &keys {
            assert_eq!(guest.put(key, 0), None);
        }
        let (done, sealed) = (AtomicBool::new(false), AtomicU64::new(0));
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    store.checkpoint();
                    sealed.fetch_add(1, Ordering::SeqCst);
                }
            });
            for v in 0..2 {
                let seen = sealed.load(Ordering::SeqCst);
                while sealed.load(Ordering::SeqCst) == seen {
                    std::thread::yield_now();
                }
                let mut vip = store.client(store.admit_vip().unwrap());
                for round in 1..=ROUNDS {
                    let value = v * ROUNDS + round;
                    for key in &keys {
                        assert_eq!(vip.put(key, value), Some(value - 1), "{key}: a put was lost");
                    }
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        let checkpoints = sealed.load(Ordering::SeqCst);
        for (s, shard) in store.core.view.newest().shards.iter().enumerate() {
            assert_eq!(shard.log.tail(), 1 + 2 * ROUNDS + checkpoints, "shard {s}: a doubled cell");
        }
    }
}
