//! The operation layer: store operations, responses, and same-shard
//! batching into a single universal-construction append.
//!
//! The unit the per-shard log agrees on is a [`ShardCmd`]: either a client
//! [`Batch`] (one log cell commits an entire batch of same-shard operations
//! atomically, so a client issuing `k` operations against one shard pays
//! for **one** consensus-backed append instead of `k`) or a
//! reconfiguration record installed through the same consensus path so it
//! linearizes against concurrent batches: a [`SplitSpec`] (the
//! topology-bump half of a live shard split), a [`MergeSpec`] (the
//! child-side retirement of a live merge, draining the child's state), or
//! an [`AdoptSpec`] (the parent-side adoption of those drained entries).
//!
//! Every batch is stamped with the topology version it was planned under
//! ([`Batch::planned_at`]). A shard state remembers the version of its own
//! last split ([`ShardState::epoch`]); a batch planned before that split
//! may route keys that have since moved away, so it is rejected whole with
//! [`StoreResp::Moved`] **at the linearization point** — deterministically,
//! by every replica — and the client re-plans it against the published
//! topology. This is what makes a split safe: an operation either commits
//! before the bump (and its keys migrate with the sealed state) or lands
//! after it (and is bounced to the shard that now owns its keys); it is
//! never applied twice and never dropped.

use apc_universal::seq::SequentialSpec;

use crate::keymap::KeyMap;
use crate::router::{key_digest, rendezvous_score};

/// A store key. Keys are routed to shards by
/// [`ShardTopology`](crate::router::ShardTopology).
pub type Key = String;

/// One client-visible store operation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum StoreOp {
    /// Read a key.
    Get(Key),
    /// Insert or replace a key; responds with the previous value.
    Put(Key, u64),
    /// Remove a key; responds with the removed value.
    Remove(Key),
    /// Compare-and-set: install `new` iff the current value equals `expect`
    /// (`None` = absent). Responds [`StoreResp::Cas`] with the outcome and
    /// the value actually observed.
    Cas {
        /// The key to update.
        key: Key,
        /// The expected current value (`None` for "absent").
        expect: Option<u64>,
        /// The value to install on a match.
        new: u64,
    },
    /// Range scan over `[from, to)`, merged across shards by the router.
    Scan {
        /// Inclusive lower bound.
        from: Key,
        /// Exclusive upper bound.
        to: Key,
    },
}

impl StoreOp {
    /// The key this operation routes by, or `None` for multi-shard ops
    /// (scans are broadcast to every shard).
    pub fn routing_key(&self) -> Option<&str> {
        match self {
            StoreOp::Get(k) | StoreOp::Put(k, _) | StoreOp::Remove(k) => Some(k),
            StoreOp::Cas { key, .. } => Some(key),
            StoreOp::Scan { .. } => None,
        }
    }

    /// Whether this operation leaves every shard state unchanged (`Get`,
    /// `Scan`). A sub-batch of reads is answered from the caller's replica
    /// ([`read_batch`]) instead of taking a log cell.
    pub fn is_read(&self) -> bool {
        matches!(self, StoreOp::Get(_) | StoreOp::Scan { .. })
    }
}

/// The response to one [`StoreOp`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreResp {
    /// Response of `Get` / `Put` / `Remove`: the (previous) value.
    Value(Option<u64>),
    /// Response of `Cas`.
    Cas {
        /// Whether the CAS installed its new value.
        ok: bool,
        /// The value observed at the linearization point.
        actual: Option<u64>,
    },
    /// Response of `Scan`: the matching entries in key order.
    Entries(Vec<(Key, u64)>),
    /// The shard split after this op's batch was planned: nothing was
    /// applied; re-plan against a topology of at least `epoch` and retry.
    /// This is the shard's answer at the linearization point; client
    /// sessions re-plan it away (every `Client::request*` arm), so callers
    /// only see it when driving sub-batches by hand.
    Moved {
        /// The rejecting shard's split epoch (the minimum topology version
        /// that routes correctly for it).
        epoch: u64,
    },
}

/// The per-shard state: an ordered map, scannable by range, plus the
/// topology **epoch** of the shard's last split.
///
/// The map is a [`KeyMap`]: sorted leaves of at most 64 entries (or 4 KiB of
/// long-key text — its two constants, `LEAF_ENTRIES` and `LEAF_BYTES`),
/// found through one fence index of the leaves' lower bounds. Each leaf is
/// one array of 20 B slots — a key's first 8 bytes as its head, its length
/// or text offset, its value — that the search walks, and one buffer with
/// the full text of the keys longer than 8 bytes. A replayed write is one
/// descent over two such arrays. Every port keeps a replica of this state
/// and every log cell is applied to each of them, so what a key costs here
/// is what it costs times the replicas: ~21 B for an 8-byte key in a full
/// leaf, ~40 B under random inserts, and a deep clone
/// ([`Store::checkpoint`](crate::store::Store::checkpoint), every cadence
/// seal, a new handle) is one `memcpy` per leaf of such keys, two with
/// longer ones.
///
/// Two states are equal when their epochs and their **entry sequences**
/// are, wherever their leaves happen to be cut: a replica that replayed a
/// log cell by cell and one rebuilt from a sealed state or a snapshot hold
/// the same map in different layouts, and replay checks and consensus on
/// sealed states compare exactly such pairs.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ShardState {
    map: KeyMap,
    /// The topology version of this shard's most recent split (or the
    /// version whose split created it). Batches planned earlier are stale.
    epoch: u64,
}

impl ShardState {
    /// An empty state at epoch 0.
    pub fn new() -> Self {
        ShardState::default()
    }

    /// A state preloaded with `entries` at the given split `epoch` — how a
    /// freshly split-off shard is born, and how recovery rebuilds one.
    /// Entries in key order are appended without a search each; any other
    /// order is accepted, a later duplicate winning.
    pub fn with_entries<K: AsRef<str>>(
        entries: impl IntoIterator<Item = (K, u64)>,
        epoch: u64,
    ) -> Self {
        ShardState { map: entries.into_iter().collect(), epoch }
    }

    /// The shard's entries.
    pub fn entries(&self) -> &KeyMap {
        &self.map
    }

    /// The topology version of this shard's most recent split.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Applies one operation to a shard state — the single place the
/// operational semantics live, shared by the real store, the sequential
/// oracle in tests, and the model commit path.
pub fn apply_op(state: &mut ShardState, op: &StoreOp) -> StoreResp {
    match op {
        StoreOp::Get(k) => read_get(state, k),
        StoreOp::Put(k, v) => StoreResp::Value(state.map.insert(k, *v)),
        StoreOp::Remove(k) => StoreResp::Value(state.map.remove(k)),
        StoreOp::Cas { key, expect, new } => {
            let actual = state.map.get(key);
            let ok = actual == *expect;
            if ok {
                state.map.insert(key, *new);
            }
            StoreResp::Cas { ok, actual }
        }
        StoreOp::Scan { from, to } => read_scan(state, from, to),
    }
}

/// Answers `op` from `state` if it is a read ([`StoreOp::is_read`]), `None`
/// otherwise. It shares its two arms with [`apply_op`], so the operational
/// semantics still live in one place; taking `&ShardState` is the proof
/// that a read changes nothing.
pub fn read_op(state: &ShardState, op: &StoreOp) -> Option<StoreResp> {
    match op {
        StoreOp::Get(k) => Some(read_get(state, k)),
        StoreOp::Scan { from, to } => Some(read_scan(state, from, to)),
        StoreOp::Put(..) | StoreOp::Remove(_) | StoreOp::Cas { .. } => None,
    }
}

fn read_get(state: &ShardState, key: &str) -> StoreResp {
    StoreResp::Value(state.map.get(key))
}

fn read_scan(state: &ShardState, from: &str, to: &str) -> StoreResp {
    StoreResp::Entries(state.map.range(from, to).map(owned).collect())
}

/// An entry as a response carries it.
fn owned((key, value): (&str, u64)) -> (Key, u64) {
    (key.to_owned(), value)
}

/// Answers `batch` from `state` if every operation in it is a read — what
/// [`ShardSpec::apply`] would answer for it at this point of the log,
/// without the log: the same `planned_at < epoch` → [`StoreResp::Moved`]
/// bounce, then [`read_op`] per operation. `None` if any operation writes:
/// the batch must be appended whole, because the read-after-write order
/// inside one shard's sub-batch is a promise.
pub fn read_batch(state: &ShardState, batch: &Batch) -> Option<Vec<StoreResp>> {
    if !batch.ops.iter().all(StoreOp::is_read) {
        return None;
    }
    if batch.planned_at < state.epoch {
        return Some(moved(batch, state.epoch));
    }
    batch.ops.iter().map(|op| read_op(state, op)).collect()
}

/// The whole-batch bounce of a plan older than the shard's `epoch`.
fn moved(batch: &Batch, epoch: u64) -> Vec<StoreResp> {
    batch.ops.iter().map(|_| StoreResp::Moved { epoch }).collect()
}

/// A batch of same-shard operations committed by **one** log append,
/// stamped with the topology version it was planned under.
///
/// The ops are one `Arc`-shared slice. Shared, because a batch is cloned
/// many times on its way through the log (the announce slot, every
/// consensus proposal, the agreed cell) and each of those clones must be
/// O(1), not a deep copy of every key string. One exact-size slice,
/// because the agreed cell keeps it for as long as the log keeps the cell:
/// a one-op batch retains one allocation of `16 + size_of::<StoreOp>()`
/// bytes, not the planner's growable buffer behind a second pointer.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Batch {
    /// The topology version the router used to place this batch's keys.
    pub planned_at: u64,
    /// The operations, in invocation order.
    pub ops: std::sync::Arc<[StoreOp]>,
}

impl Batch {
    /// A batch of `ops` planned under topology version `planned_at`. The
    /// ops move into the batch's own exact-size allocation; `ops`' buffer
    /// is released here, whatever its capacity was.
    pub fn new(planned_at: u64, ops: Vec<StoreOp>) -> Self {
        Batch { planned_at, ops: ops.into() }
    }
}

/// The topology-bump half of a live shard split, installed through the
/// shard's own consensus log (inside a sealed
/// [`ReconfigRecord`](apc_universal::ReconfigRecord) cell, see
/// [`Store::split_shard`](crate::store::Store::split_shard)).
///
/// Applying it partitions the shard's entries by pairwise rendezvous
/// between the shard's own seed and `child_seed`: the keys the child wins
/// are drained out of this shard and returned
/// ([`StoreResp::Entries`]) so the split driver can install them into the
/// new shard before publishing the bumped topology. It also advances the
/// shard's [`ShardState::epoch`] to `version`, after which older batches
/// bounce with [`StoreResp::Moved`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SplitSpec {
    /// The rendezvous seed of the new child shard.
    pub child_seed: u64,
    /// The bumped topology version.
    pub version: u64,
}

/// The child-side half of a live shard **merge**: the retirement record,
/// installed through the retiring child's own consensus log (sealed, like
/// a split bump — see [`Store::merge_shard`](crate::store::Store::merge_shard)).
///
/// Applying it drains **every** entry out of the child (returned as
/// [`StoreResp::Entries`], the migration set the merge driver hands to the
/// parent's [`AdoptSpec`]) and advances the child's
/// [`ShardState::epoch`] to `version`, after which any batch planned under
/// an older topology bounces with [`StoreResp::Moved`] — the retired shard
/// keeps answering, it just answers "moved".
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct MergeSpec {
    /// The bumped topology version (the child's retirement version).
    pub version: u64,
}

/// The parent-side half of a live shard merge: the adoption record,
/// installed through the **parent's** consensus log right after the
/// child's [`MergeSpec`] drained its state.
///
/// Applying it inserts the child's drained entries into the parent. The
/// parent's epoch is deliberately **not** advanced: keys that routed to
/// the parent before the merge still route to it after (a merge only adds
/// the child's keys back), so in-flight parent batches stay valid — the
/// bounce-and-re-plan cost is paid only by batches aimed at the retired
/// child, mirroring the split path's minimal disruption.
///
/// The entries are `Arc`-shared for the same reason [`Batch::ops`] is: the
/// record is cloned on every consensus propose/peek on its way through the
/// log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AdoptSpec {
    /// The topology version of the merge this adoption completes.
    pub version: u64,
    /// The child's drained entries, in key order.
    pub entries: std::sync::Arc<Vec<(Key, u64)>>,
}

/// One agreed log cell's command: a client batch or a reconfiguration
/// (split bump, merge retirement, or merge adoption — admin paths only).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ShardCmd {
    /// A client batch (the common case).
    Batch(Batch),
    /// A live-split topology bump (admin path only).
    Split(SplitSpec),
    /// A live-merge retirement: drain this (child) shard and start
    /// bouncing stale batches (admin path only).
    Merge(MergeSpec),
    /// A live-merge adoption: fold a retired child's drained entries into
    /// this (parent) shard (admin path only).
    Adopt(AdoptSpec),
}

/// The sequential specification of one shard: an ordered map whose log
/// entries are whole [`ShardCmd`]s. Each shard's spec carries its own
/// rendezvous `seed` (the split partition rule needs it) and the topology
/// version the shard was created at (its initial epoch).
#[derive(Copy, Clone, Debug, Default)]
pub struct ShardSpec {
    /// This shard's rendezvous seed.
    pub seed: u64,
    /// The topology version whose split created this shard (0 for roots).
    pub created_at: u64,
}

impl SequentialSpec for ShardSpec {
    type State = ShardState;
    type Op = ShardCmd;
    type Resp = Vec<StoreResp>;

    fn init(&self) -> ShardState {
        ShardState { map: KeyMap::new(), epoch: self.created_at }
    }

    fn apply(&self, state: &mut ShardState, cmd: &ShardCmd) -> Vec<StoreResp> {
        match cmd {
            ShardCmd::Batch(batch) => {
                if batch.planned_at < state.epoch {
                    // Planned before this shard's latest split: some of its
                    // keys may have moved. Reject deterministically; the
                    // client re-plans under the published topology.
                    return moved(batch, state.epoch);
                }
                batch.ops.iter().map(|op| apply_op(state, op)).collect()
            }
            ShardCmd::Split(split) => {
                // One pass in key order: the child's winners leave as the
                // migration set, the rest are appended to the map that
                // replaces this one.
                let mut kept = KeyMap::new();
                let mut outgoing = Vec::new();
                for (k, v) in state.map.iter() {
                    let digest = key_digest(k);
                    if rendezvous_score(split.child_seed, digest)
                        > rendezvous_score(self.seed, digest)
                    {
                        outgoing.push((k.to_owned(), v));
                    } else {
                        kept.push(k, v);
                    }
                }
                state.map = kept;
                state.epoch = split.version;
                vec![StoreResp::Entries(outgoing)]
            }
            ShardCmd::Merge(merge) => {
                // Retirement drains everything: the whole state is the
                // migration set, and the epoch bump makes every batch
                // planned before the merge bounce deterministically.
                let outgoing = state.map.iter().map(owned).collect();
                state.map.clear();
                state.epoch = merge.version;
                vec![StoreResp::Entries(outgoing)]
            }
            ShardCmd::Adopt(adopt) => {
                // Adoption folds the child's keys back in. The child owned
                // them exclusively, so this never overwrites a live entry;
                // the parent's epoch stays put (see [`AdoptSpec`]).
                // Both runs are in key order: one merge pass appends them
                // to the map that replaces this one.
                let old = std::mem::take(&mut state.map);
                let mut own = old.iter().peekable();
                for (k, v) in adopt.entries.iter() {
                    while let Some((key, value)) = own.next_if(|(key, _)| *key < k.as_str()) {
                        state.map.push(key, value);
                    }
                    own.next_if(|(key, _)| *key == k.as_str());
                    state.map.push(k, *v);
                }
                state.map.extend(own);
                vec![StoreResp::Value(Some(adopt.entries.len() as u64))]
            }
        }
    }

    /// What a replica does with a command somebody else is waiting on: a
    /// batch's writes go through [`apply_op`] and nothing else happens —
    /// no response vector, no lookup for a read, nothing at all for a batch
    /// a split has made stale (it bounces whole, changing nothing). A
    /// reconfiguration is rare and replays as it applies.
    fn replay(&self, state: &mut ShardState, cmd: &ShardCmd) {
        match cmd {
            ShardCmd::Batch(batch) => {
                if batch.planned_at < state.epoch {
                    return;
                }
                for op in batch.ops.iter().filter(|op| !op.is_read()) {
                    apply_op(state, op);
                }
            }
            reconfig => drop(self.apply(state, reconfig)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove_roundtrip() {
        let mut s = ShardState::new();
        assert_eq!(apply_op(&mut s, &StoreOp::Put("a".into(), 1)), StoreResp::Value(None));
        assert_eq!(apply_op(&mut s, &StoreOp::Get("a".into())), StoreResp::Value(Some(1)));
        assert_eq!(apply_op(&mut s, &StoreOp::Remove("a".into())), StoreResp::Value(Some(1)));
        assert_eq!(apply_op(&mut s, &StoreOp::Get("a".into())), StoreResp::Value(None));
    }

    #[test]
    fn cas_matches_and_mismatches() {
        let mut s = ShardState::new();
        let op = StoreOp::Cas { key: "k".into(), expect: None, new: 5 };
        assert_eq!(apply_op(&mut s, &op), StoreResp::Cas { ok: true, actual: None });
        let op = StoreOp::Cas { key: "k".into(), expect: Some(4), new: 6 };
        assert_eq!(apply_op(&mut s, &op), StoreResp::Cas { ok: false, actual: Some(5) });
        assert_eq!(s.map.get("k"), Some(5), "failed CAS must not write");
        let op = StoreOp::Cas { key: "k".into(), expect: Some(5), new: 6 };
        assert_eq!(apply_op(&mut s, &op), StoreResp::Cas { ok: true, actual: Some(5) });
        assert_eq!(s.map.get("k"), Some(6));
    }

    #[test]
    fn scan_is_half_open_and_ordered() {
        let mut s = ShardState::new();
        for (k, v) in [("a", 1u64), ("b", 2), ("c", 3), ("d", 4)] {
            s.map.insert(k, v);
        }
        let resp = apply_op(&mut s, &StoreOp::Scan { from: "b".into(), to: "d".into() });
        assert_eq!(resp, StoreResp::Entries(vec![("b".into(), 2), ("c".into(), 3)]));
        // Empty and inverted ranges yield nothing (no panic).
        let resp = apply_op(&mut s, &StoreOp::Scan { from: "d".into(), to: "b".into() });
        assert_eq!(resp, StoreResp::Entries(vec![]));
    }

    #[test]
    fn batch_applies_in_order() {
        let spec = ShardSpec::default();
        let mut s = spec.init();
        let batch = ShardCmd::Batch(Batch::new(
            0,
            vec![
                StoreOp::Put("x".into(), 1),
                StoreOp::Cas { key: "x".into(), expect: Some(1), new: 2 },
                StoreOp::Get("x".into()),
            ],
        ));
        let resps = spec.apply(&mut s, &batch);
        assert_eq!(
            resps,
            vec![
                StoreResp::Value(None),
                StoreResp::Cas { ok: true, actual: Some(1) },
                StoreResp::Value(Some(2)),
            ]
        );
    }

    #[test]
    fn stale_batches_bounce_whole() {
        let spec = ShardSpec { seed: 7, created_at: 0 };
        let mut s = spec.init();
        spec.apply(&mut s, &ShardCmd::Batch(Batch::new(0, vec![StoreOp::Put("a".into(), 1)])));
        spec.apply(&mut s, &ShardCmd::Split(SplitSpec { child_seed: 99, version: 3 }));
        assert_eq!(s.epoch(), 3);
        // A batch planned under the old topology bounces without applying.
        let resps = spec.apply(
            &mut s,
            &ShardCmd::Batch(Batch::new(
                2,
                vec![StoreOp::Put("b".into(), 2), StoreOp::Get("a".into())],
            )),
        );
        assert_eq!(resps, vec![StoreResp::Moved { epoch: 3 }, StoreResp::Moved { epoch: 3 }]);
        assert_eq!(s.map.get("b"), None, "a bounced batch must not write");
        // A re-planned batch at the new version applies.
        let resps =
            spec.apply(&mut s, &ShardCmd::Batch(Batch::new(3, vec![StoreOp::Get("b".into())])));
        assert_eq!(resps, vec![StoreResp::Value(None)]);
    }

    #[test]
    fn split_partitions_exactly_the_child_winners() {
        let spec = ShardSpec { seed: 42, created_at: 0 };
        let mut s = spec.init();
        for i in 0..64 {
            s.map.insert(&format!("key/{i:02}"), i);
        }
        let child_seed = 0xfeed;
        let expect_out: Vec<Key> = s
            .map
            .iter()
            .map(|(k, _)| k.to_owned())
            .filter(|k| {
                let digest = key_digest(k);
                rendezvous_score(child_seed, digest) > rendezvous_score(42, digest)
            })
            .collect();
        let resps = spec.apply(&mut s, &ShardCmd::Split(SplitSpec { child_seed, version: 1 }));
        let outgoing = match &resps[0] {
            StoreResp::Entries(entries) => entries.clone(),
            other => panic!("split returned {other:?}"),
        };
        assert_eq!(outgoing.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(), expect_out);
        assert!(!outgoing.is_empty(), "64 keys must yield some child winners");
        assert_eq!(outgoing.len() + s.map.len(), 64, "partition, not loss");
        for (k, _) in &outgoing {
            assert_eq!(s.map.get(k), None, "moved keys leave the parent");
        }
    }

    #[test]
    fn merge_drains_everything_and_bounces_older_batches() {
        let spec = ShardSpec { seed: 9, created_at: 1 };
        let mut s = spec.init();
        spec.apply(&mut s, &ShardCmd::Batch(Batch::new(1, vec![StoreOp::Put("a".into(), 1)])));
        spec.apply(&mut s, &ShardCmd::Batch(Batch::new(1, vec![StoreOp::Put("b".into(), 2)])));
        let resps = spec.apply(&mut s, &ShardCmd::Merge(MergeSpec { version: 4 }));
        assert_eq!(
            resps,
            vec![StoreResp::Entries(vec![("a".into(), 1), ("b".into(), 2)])],
            "the migration set is the whole state, in key order"
        );
        assert!(s.map.is_empty(), "retirement leaves the child empty");
        assert_eq!(s.epoch(), 4);
        // Anything planned before the merge bounces; the shard keeps
        // answering even though it is retired.
        let resps =
            spec.apply(&mut s, &ShardCmd::Batch(Batch::new(3, vec![StoreOp::Get("a".into())])));
        assert_eq!(resps, vec![StoreResp::Moved { epoch: 4 }]);
    }

    #[test]
    fn adopt_folds_entries_in_without_bumping_the_epoch() {
        let spec = ShardSpec { seed: 3, created_at: 0 };
        let mut s = spec.init();
        spec.apply(&mut s, &ShardCmd::Batch(Batch::new(0, vec![StoreOp::Put("own".into(), 7)])));
        let adopted = std::sync::Arc::new(vec![("a".to_string(), 1u64), ("b".to_string(), 2)]);
        let resps =
            spec.apply(&mut s, &ShardCmd::Adopt(AdoptSpec { version: 2, entries: adopted }));
        assert_eq!(resps, vec![StoreResp::Value(Some(2))], "adoption reports its entry count");
        assert_eq!(s.map.len(), 3);
        assert_eq!(s.epoch(), 0, "adoption must not invalidate in-flight parent batches");
        // A batch planned before the merge still applies on the parent.
        let resps =
            spec.apply(&mut s, &ShardCmd::Batch(Batch::new(0, vec![StoreOp::Get("a".into())])));
        assert_eq!(resps, vec![StoreResp::Value(Some(1))]);
    }

    #[test]
    fn split_then_merge_roundtrips_the_state() {
        // Drain via a split, then feed the migration set back via Adopt:
        // the parent state is exactly what it was (modulo epoch).
        let spec = ShardSpec { seed: 11, created_at: 0 };
        let mut s = spec.init();
        for i in 0..32 {
            s.map.insert(&format!("k{i:02}"), i);
        }
        let before: Vec<(Key, u64)> = s.map.iter().map(owned).collect();
        let resps =
            spec.apply(&mut s, &ShardCmd::Split(SplitSpec { child_seed: 0xfeed, version: 1 }));
        let outgoing = match &resps[0] {
            StoreResp::Entries(entries) => entries.clone(),
            other => panic!("split returned {other:?}"),
        };
        spec.apply(
            &mut s,
            &ShardCmd::Adopt(AdoptSpec { version: 2, entries: std::sync::Arc::new(outgoing) }),
        );
        let after: Vec<(Key, u64)> = s.map.iter().map(owned).collect();
        assert_eq!(after, before, "drain + adopt is the identity on the key set");
    }

    /// A key space small enough that commands collide: the empty key, a few
    /// prefixes of one another, and plain ones.
    fn key_of(n: u32) -> Key {
        match n % 8 {
            0 => "p".repeat(n as usize / 8),
            _ => format!("k{n:02}"),
        }
    }

    /// One command of a script: mostly batches of every operation against
    /// the small key space, planned at a version that may be older than
    /// the shard's epoch; now and then a split, a merge or an adoption.
    fn command(kind: u8, ops: &[(u8, u32, u64)], at: u64) -> ShardCmd {
        let op = |&(op, k, v): &(u8, u32, u64)| match op {
            0 => StoreOp::Get(key_of(k)),
            1 => StoreOp::Remove(key_of(k)),
            2 => StoreOp::Cas { key: key_of(k), expect: (v > 0).then_some(v), new: v + 1 },
            3 => StoreOp::Scan { from: key_of(k), to: key_of(k + 9) },
            _ => StoreOp::Put(key_of(k), v),
        };
        match kind {
            13 => ShardCmd::Split(SplitSpec { child_seed: at, version: at + 1 }),
            14 => ShardCmd::Merge(MergeSpec { version: at + 1 }),
            15 => {
                let entries: std::collections::BTreeMap<Key, u64> =
                    ops.iter().map(|&(_, k, v)| (key_of(k + 48), v)).collect();
                ShardCmd::Adopt(AdoptSpec {
                    version: at,
                    entries: std::sync::Arc::new(entries.into_iter().collect()),
                })
            }
            _ => ShardCmd::Batch(Batch::new(at, ops.iter().map(op).collect())),
        }
    }

    /// The cases a replay could get wrong, against `state`: a `Cas` that
    /// hits a stored value, one that misses it, a `Remove` of an absent key,
    /// a batch mixing reads and writes; then a split, a batch planned before
    /// it and one after, an adoption, a merge and a batch it made stale.
    fn landmarks(state: &ShardState) -> Vec<ShardCmd> {
        let (key, value) =
            state.entries().iter().next().map_or(("k01", None), |(k, v)| (k, Some(v)));
        let batch = |at: u64, ops: Vec<StoreOp>| ShardCmd::Batch(Batch::new(at, ops));
        let now = state.epoch();
        vec![
            batch(now, vec![StoreOp::Cas { key: key.into(), expect: value, new: 90 }]),
            batch(now, vec![StoreOp::Cas { key: key.into(), expect: Some(91), new: 92 }]),
            batch(now, vec![StoreOp::Remove("absent".into())]),
            batch(
                now,
                vec![
                    StoreOp::Get(key.into()),
                    StoreOp::Put(key.into(), 93),
                    StoreOp::Scan { from: String::new(), to: "z".into() },
                    StoreOp::Put("fresh".into(), 94),
                    StoreOp::Get("fresh".into()),
                ],
            ),
            command(13, &[], now),
            batch(now, vec![StoreOp::Put("stale".into(), 95)]),
            batch(now + 1, vec![StoreOp::Put("after-split".into(), 96)]),
            command(15, &[(4, 3, 97), (4, 11, 98)], now + 2),
            command(14, &[], now + 2),
            batch(now + 2, vec![StoreOp::Put("stale-after-merge".into(), 99)]),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Replaying any command leaves the state applying it leaves: from
        /// a random state, the landmark cases and then a random script,
        /// compared after every command.
        #[test]
        fn replay_leaves_the_state_apply_leaves(
            entries in proptest::collection::vec((0u32..48, 0u64..4), 0..40),
            epoch in 0u64..3,
            script in proptest::collection::vec(
                (0u8..16, proptest::collection::vec((0u8..6, 0u32..48, 0u64..4), 1..6), 0u64..5),
                1..24,
            ),
        ) {
            let spec = ShardSpec { seed: 5, created_at: 0 };
            let start =
                ShardState::with_entries(entries.iter().map(|&(k, v)| (key_of(k), v)), epoch);
            let random = script.iter().map(|(kind, ops, at)| command(*kind, ops, *at));
            let (mut applied, mut replayed) = (start.clone(), start.clone());
            for cmd in landmarks(&start).into_iter().chain(random) {
                spec.apply(&mut applied, &cmd);
                spec.replay(&mut replayed, &cmd);
                proptest::prop_assert_eq!(&replayed, &applied, "after {:?}", cmd);
            }
        }
    }

    #[test]
    fn routing_keys() {
        assert_eq!(StoreOp::Get("k".into()).routing_key(), Some("k"));
        assert_eq!(StoreOp::Scan { from: "a".into(), to: "b".into() }.routing_key(), None);
    }
}
