//! The operation layer: store operations, responses, and same-shard
//! batching into a single universal-construction append.
//!
//! The unit the per-shard log agrees on is a [`ShardCmd`]: either a client
//! batch (one log cell commits an entire batch of same-shard operations
//! atomically, so a client issuing `k` operations against one shard pays
//! for **one** consensus-backed append instead of `k`; a [`Batch`] of the
//! caller's own ops, or a [`PackedBatch`] from a thread that decodes its
//! keys) or a
//! reconfiguration record installed through the same consensus path so it
//! linearizes against concurrent batches: a [`DrainSpec`] (keys leave the
//! shard at a new topology version — the keys a split's child wins, or
//! every key of a merge's retiring child) or an [`AdoptSpec`] (the
//! parent-side adoption of a merge's drained entries).
//!
//! Every batch is stamped with the topology version it was planned under
//! ([`Batch::planned_at`]). A shard state remembers the version of its own
//! last drain ([`ShardState::epoch`]); a batch planned before that drain
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

/// How many spare keys a thread keeps for [`key_from`].
const SPARE_KEYS: usize = 4096;

std::thread_local! {
    /// The keys this thread's rounds let go of, kept for its next
    /// [`key_from`]; `None` until the thread first asks for one.
    static SPARE: std::cell::RefCell<Option<Vec<Key>>> =
        const { std::cell::RefCell::new(None) };
}

/// A key holding `text`, written into a key this thread's rounds let go of
/// if it kept one, else newly allocated.
///
/// A decoder calls this for every key it reads. On a thread that keeps
/// spare keys with room for a round's, the store packs the round's writes
/// into its log cell ([`PackedBatch`]) and hands the round's keys back
/// here when the round ends, so a thread that decodes and commits — a
/// server's reactor — reuses the same few buffers instead of allocating a
/// key per operation and freeing it one round later (or keeping it in the
/// log until a seal frees it on another thread). Freed, each such key
/// would sit in the allocator's small-chunk lists until the thread's next
/// large allocation sorted them all, which costs a saturated reactor more
/// than the key itself. A thread keeps at most 4096 spare keys, and none
/// until it first calls this; a round whose keys would not fit moves its
/// ops into the cell whole, as a [`Batch`], rather than copy and free
/// them.
pub fn key_from(text: &str) -> Key {
    let spare = SPARE.with(|spare| {
        let mut spare = spare.try_borrow_mut().ok()?;
        spare.get_or_insert_with(|| Vec::with_capacity(SPARE_KEYS)).pop()
    });
    match spare {
        Some(mut key) => {
            key.clear();
            key.push_str(text);
            key
        }
        None => text.to_owned(),
    }
}

/// Whether this thread would keep `n` more spare keys: it has asked
/// [`key_from`] for one, so it decodes the keys it commits, and its
/// spares are `n` short of their limit.
pub(crate) fn keeps_spare_keys(n: usize) -> bool {
    SPARE.with(|spare| {
        spare
            .try_borrow()
            .is_ok_and(|spare| spare.as_ref().is_some_and(|k| k.len() + n <= SPARE_KEYS))
    })
}

/// Ends a round's hold on `ops`: keeps their keys as this thread's spares
/// for [`key_from`], up to its limit, if the thread has asked for one;
/// frees the rest.
pub(crate) fn recycle_keys(ops: Vec<StoreOp>) {
    SPARE.with(|spare| {
        let Ok(mut spare) = spare.try_borrow_mut() else { return };
        let Some(keys) = spare.as_mut() else { return };
        for op in ops {
            let (key, second) = match op {
                StoreOp::Get(k) | StoreOp::Put(k, _) | StoreOp::Remove(k) => (k, None),
                StoreOp::Cas { key, .. } => (key, None),
                StoreOp::Scan { from, to } => (from, Some(to)),
            };
            for key in std::iter::once(key).chain(second) {
                if keys.len() < SPARE_KEYS {
                    keys.push(key);
                }
            }
        }
    });
}

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
    /// ([`read_sub_batch`]) instead of taking a log cell.
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
/// topology **epoch** of the shard's last drain.
///
/// The map is a [`KeyMap`]: sorted leaves of at most 64 entries (or 4 KiB of
/// long-key text — its two constants, `LEAF_ENTRIES` and `LEAF_BYTES`),
/// found through one fence index of the leaves' lower bounds and a top
/// index over every 16th of them. Each leaf keeps its keys' first 8 bytes
/// (their heads) back to back, a 12 B slot per key (its length or text
/// offset, its value) and one buffer with the full text of the keys longer
/// than 8 bytes. A replayed write is one descent: four counts over a few
/// cache lines of heads, none of whose loads waits on another, with the
/// leaf's slots read alongside its heads. Every port keeps a replica of
/// this state and every log cell is applied to each of them, so what a key
/// costs here is what it costs times the replicas: ~22 B for an 8-byte key
/// in a full leaf, ~40 B under random inserts, and a deep clone
/// ([`Store::checkpoint`](crate::store::Store::checkpoint), every seal, a
/// new handle) is one `memcpy` per buffer: two per leaf of such keys,
/// three with longer ones.
///
/// Two states are equal when their epochs and their **entry sequences**
/// are, wherever their leaves happen to be cut: a replica that replayed a
/// log cell by cell and one rebuilt from a sealed state or a snapshot hold
/// the same map in different layouts, and replay checks and consensus on
/// sealed states compare exactly such pairs.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ShardState {
    map: KeyMap,
    /// The topology version of this shard's most recent drain (or the
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

    /// The topology version of this shard's most recent drain.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Applies one operation to a shard state — the single place the
/// operational semantics live, shared by the real store, the sequential
/// oracle in tests, and the model commit path.
pub fn apply_op(state: &mut ShardState, op: &StoreOp) -> StoreResp {
    apply_ref(state, OpRef::from(op))
}

/// [`apply_op`] on a borrowed operation: what both batch forms replay.
fn apply_ref(state: &mut ShardState, op: OpRef<'_>) -> StoreResp {
    match op {
        OpRef::Get(k) => read_get(state, k),
        OpRef::Put(k, v) => StoreResp::Value(state.map.insert(k, v)),
        OpRef::Remove(k) => StoreResp::Value(state.map.remove(k)),
        OpRef::Cas { key, expect, new } => {
            let actual = state.map.get(key);
            let ok = actual == expect;
            if ok {
                state.map.insert(key, new);
            }
            StoreResp::Cas { ok, actual }
        }
        OpRef::Scan { from, to } => read_scan(state, from, to),
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

/// Answers a sub-batch from `state` if every operation in it is a read —
/// what [`ShardSpec::apply`] would answer for its [`Batch`] at this point of
/// the log, without the log: the same `planned_at < epoch` →
/// [`StoreResp::Moved`] bounce, then [`read_op`] per operation. `None` if any
/// operation writes: the sub-batch must be appended whole, because the
/// read-after-write order inside one shard's sub-batch is a promise. The
/// store answers a read-only sub-batch from the plan's own `Vec` this way,
/// and builds a batch's shared slice only for an append.
pub fn read_sub_batch(
    state: &ShardState,
    planned_at: u64,
    ops: &[StoreOp],
) -> Option<Vec<StoreResp>> {
    if !ops.iter().all(StoreOp::is_read) {
        return None;
    }
    if planned_at < state.epoch {
        return Some(moved(ops.iter(), state.epoch));
    }
    ops.iter().map(|op| read_op(state, op)).collect()
}

/// The whole-batch bounce of a plan older than the shard's `epoch`: one
/// [`StoreResp::Moved`] per operation of `ops`.
fn moved<T>(ops: impl Iterator<Item = T>, epoch: u64) -> Vec<StoreResp> {
    ops.map(|_| StoreResp::Moved { epoch }).collect()
}

/// A client batch's answers at its cell: the whole-batch bounce if it was
/// planned before the shard's epoch, else every operation applied in order.
fn apply_batch<'a>(
    state: &mut ShardState,
    planned_at: u64,
    ops: impl Iterator<Item = OpRef<'a>>,
) -> Vec<StoreResp> {
    if planned_at < state.epoch {
        // Planned before this shard's latest split: some of its keys may
        // have moved. Reject deterministically; the client re-plans it
        // under the published topology.
        return moved(ops, state.epoch);
    }
    ops.map(|op| apply_ref(state, op)).collect()
}

/// What a replica does with a client batch somebody else is waiting on:
/// its writes, and nothing for a batch a split has made stale (it bounces
/// whole, changing nothing).
fn replay_batch<'a>(state: &mut ShardState, planned_at: u64, ops: impl Iterator<Item = OpRef<'a>>) {
    if planned_at < state.epoch {
        return;
    }
    for op in ops.filter(|op| !op.is_read()) {
        apply_ref(state, op);
    }
}

/// A batch of same-shard operations committed by **one** log append,
/// stamped with the topology version it was planned under, as owned ops:
/// what an in-process caller's round appends, its ops moved in as they
/// were allocated, and what a stand-alone
/// [`ShardLog`](crate::store::ShardLog) is driven with. A thread that
/// decodes its keys appends a [`PackedBatch`] instead.
///
/// The ops are one `Arc`-shared slice. Shared, because a batch is cloned
/// many times on its way through the log (the announce slot, every
/// consensus proposal, the agreed cell) and each of those clones must be
/// O(1), not a deep copy of every key string. One exact-size slice:
/// a one-op batch retains one allocation of `16 + size_of::<StoreOp>()`
/// bytes and its key's, not the planner's growable buffer behind a second
/// pointer.
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

/// One operation as a [`PackedBatch`] hands it out: a [`StoreOp`] whose
/// keys are borrowed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OpRef<'a> {
    /// [`StoreOp::Get`].
    Get(&'a str),
    /// [`StoreOp::Put`].
    Put(&'a str, u64),
    /// [`StoreOp::Remove`].
    Remove(&'a str),
    /// [`StoreOp::Cas`].
    Cas {
        /// The key to update.
        key: &'a str,
        /// The expected current value (`None` for "absent").
        expect: Option<u64>,
        /// The value to install on a match.
        new: u64,
    },
    /// [`StoreOp::Scan`].
    Scan {
        /// Inclusive lower bound.
        from: &'a str,
        /// Exclusive upper bound.
        to: &'a str,
    },
}

impl OpRef<'_> {
    /// Whether this operation leaves every shard state unchanged
    /// ([`StoreOp::is_read`]).
    pub fn is_read(&self) -> bool {
        matches!(self, OpRef::Get(_) | OpRef::Scan { .. })
    }
}

impl<'a> From<&'a StoreOp> for OpRef<'a> {
    fn from(op: &'a StoreOp) -> Self {
        match op {
            StoreOp::Get(k) => OpRef::Get(k),
            StoreOp::Put(k, v) => OpRef::Put(k, *v),
            StoreOp::Remove(k) => OpRef::Remove(k),
            StoreOp::Cas { key, expect, new } => OpRef::Cas { key, expect: *expect, new: *new },
            StoreOp::Scan { from, to } => OpRef::Scan { from, to },
        }
    }
}

/// A client batch as the store appends it: a [`Batch`]'s operations and
/// stamp, with the operations encoded back to back — their keys' bytes
/// included — in **one** shared allocation.
///
/// The agreed cell keeps its command for as long as the log keeps the
/// cell, so what the command holds is what every write retains until a
/// seal lets the cell go, and what the thread that drops the sealed prefix
/// frees. A [`Batch`] of `k` puts holds `k + 1` allocations, one per key;
/// this holds one whatever `k` is, and the keys the committing caller
/// decoded stay the caller's, to be reused for its next decode
/// ([`key_from`]). Cloning it is one reference count, as a [`Batch`]'s is.
///
/// The buffer is a `u32` operation count, then per operation a tag byte
/// and its fields in [`StoreOp`]'s order: a key as a `u32` length and its
/// bytes, a value as a `u64`, all little-endian.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PackedBatch {
    /// The topology version the router used to place this batch's keys.
    pub planned_at: u64,
    bytes: std::sync::Arc<[u8]>,
}

const TAG_GET: u8 = 0;
const TAG_PUT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_CAS_ABSENT: u8 = 3;
const TAG_CAS: u8 = 4;
const TAG_SCAN: u8 = 5;

impl PackedBatch {
    /// `ops`, planned under topology version `planned_at`, encoded into one
    /// exact-size allocation; `ops` is left as it was.
    pub fn new(planned_at: u64, ops: &[StoreOp]) -> Self {
        let key = |k: &str| 4 + k.len();
        let len = 4 + ops
            .iter()
            .map(|op| {
                1 + match op {
                    StoreOp::Get(k) | StoreOp::Remove(k) => key(k),
                    StoreOp::Put(k, _) => key(k) + 8,
                    StoreOp::Cas { key: k, expect, .. } => {
                        key(k) + 8 * (1 + expect.is_some() as usize)
                    }
                    StoreOp::Scan { from, to } => key(from) + key(to),
                }
            })
            .sum::<usize>();
        // An exact-size iterator collects into one allocation, which is
        // unique here and so writable in place.
        let mut bytes: std::sync::Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        let mut out =
            Packer(std::sync::Arc::get_mut(&mut bytes).expect("a fresh buffer is unique"));
        out.pack_field(
            &u32::try_from(ops.len()).expect("a batch holds fewer than 2^32 ops").to_le_bytes(),
        );
        for op in ops {
            match op {
                StoreOp::Get(k) => out.pack_tag(TAG_GET).pack_key(k),
                StoreOp::Put(k, v) => {
                    out.pack_tag(TAG_PUT).pack_key(k).pack_field(&v.to_le_bytes())
                }
                StoreOp::Remove(k) => out.pack_tag(TAG_REMOVE).pack_key(k),
                StoreOp::Cas { key, expect: None, new } => {
                    out.pack_tag(TAG_CAS_ABSENT).pack_key(key).pack_field(&new.to_le_bytes())
                }
                StoreOp::Cas { key, expect: Some(expect), new } => out
                    .pack_tag(TAG_CAS)
                    .pack_key(key)
                    .pack_field(&expect.to_le_bytes())
                    .pack_field(&new.to_le_bytes()),
                StoreOp::Scan { from, to } => out.pack_tag(TAG_SCAN).pack_key(from).pack_key(to),
            };
        }
        PackedBatch { planned_at, bytes }
    }

    /// The operations, in invocation order.
    pub fn ops(&self) -> PackedOps<'_> {
        let (count, rest) = self.bytes.split_at(4);
        let left = u32::from_le_bytes(count.try_into().expect("four bytes")) as usize;
        PackedOps { left, rest }
    }
}

/// The unwritten rest of a [`PackedBatch`]'s buffer.
struct Packer<'a>(&'a mut [u8]);

impl Packer<'_> {
    fn pack_field(&mut self, field: &[u8]) -> &mut Self {
        let (head, rest) = std::mem::take(&mut self.0).split_at_mut(field.len());
        head.copy_from_slice(field);
        self.0 = rest;
        self
    }

    fn pack_tag(&mut self, tag: u8) -> &mut Self {
        self.pack_field(&[tag])
    }

    fn pack_key(&mut self, key: &str) -> &mut Self {
        let len = u32::try_from(key.len()).expect("a key is shorter than 4 GiB");
        self.pack_field(&len.to_le_bytes()).pack_field(key.as_bytes())
    }
}

/// The operations of a [`PackedBatch`], in invocation order
/// ([`PackedBatch::ops`]).
#[derive(Clone, Debug)]
pub struct PackedOps<'a> {
    left: usize,
    rest: &'a [u8],
}

impl<'a> PackedOps<'a> {
    fn unpack_bytes(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        head
    }

    fn unpack_word(&mut self) -> u64 {
        u64::from_le_bytes(self.unpack_bytes(8).try_into().expect("eight bytes"))
    }

    fn unpack_key(&mut self) -> &'a str {
        let n = u32::from_le_bytes(self.unpack_bytes(4).try_into().expect("four bytes")) as usize;
        std::str::from_utf8(self.unpack_bytes(n)).expect("a packed key is a key's bytes")
    }
}

impl<'a> Iterator for PackedOps<'a> {
    type Item = OpRef<'a>;

    fn next(&mut self) -> Option<OpRef<'a>> {
        self.left = self.left.checked_sub(1)?;
        let tag = self.unpack_bytes(1)[0];
        let key = self.unpack_key();
        Some(match tag {
            TAG_GET => OpRef::Get(key),
            TAG_PUT => OpRef::Put(key, self.unpack_word()),
            TAG_REMOVE => OpRef::Remove(key),
            TAG_CAS_ABSENT => OpRef::Cas { key, expect: None, new: self.unpack_word() },
            TAG_CAS => {
                OpRef::Cas { key, expect: Some(self.unpack_word()), new: self.unpack_word() }
            }
            TAG_SCAN => OpRef::Scan { from: key, to: self.unpack_key() },
            _ => unreachable!("PackedBatch::new writes no tag {tag}"),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for PackedOps<'_> {}

/// The one record that moves keys out of a shard: installed through the
/// shard's own consensus log (inside a
/// [`SealRecord`](apc_universal::SealRecord) cell with an operation) by a
/// split ([`Store::split_shard`](crate::store::Store::split_shard)) and by a
/// merge ([`Store::merge_shard`](crate::store::Store::merge_shard)).
///
/// Applying it drains the keys it takes, in one pass in key order, and
/// returns them ([`StoreResp::Entries`]) as the migration set. With a
/// `child_seed` it takes the keys that seed wins against the shard's own
/// seed by pairwise rendezvous: a split, whose new child boots from them.
/// Without one it takes every key: a merge's retirement, whose keys the
/// parent then takes in through an [`AdoptSpec`]. Either way it advances
/// the shard's [`ShardState::epoch`] to `version`, after which any batch
/// planned under an older topology bounces with [`StoreResp::Moved`] — a
/// retired shard keeps answering, it just answers "moved".
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct DrainSpec {
    /// The bumped topology version.
    pub version: u64,
    /// The rendezvous seed of a split's new child; `None` drains every key.
    pub child_seed: Option<u64>,
}

impl DrainSpec {
    /// Whether this drain takes `key` from a shard seeded `seed`.
    fn takes(&self, seed: u64, key: &str) -> bool {
        let Some(child_seed) = self.child_seed else { return true };
        let digest = key_digest(key);
        rendezvous_score(child_seed, digest) > rendezvous_score(seed, digest)
    }
}

/// The parent-side half of a live shard merge: the adoption record,
/// installed through the **parent's** consensus log right after a
/// [`DrainSpec`] without a child seed drained the child's state.
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
/// (a drain or a merge's adoption — admin paths only).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ShardCmd {
    /// A client batch of owned operations (an in-process caller's).
    Batch(Batch),
    /// A client batch packed into one buffer (a server's).
    Packed(PackedBatch),
    /// A split's or a merge's drain: move keys out of this shard and start
    /// bouncing stale batches (admin path only).
    Drain(DrainSpec),
    /// A live-merge adoption: fold a retired child's drained entries into
    /// this (parent) shard (admin path only).
    Adopt(AdoptSpec),
}

/// The sequential specification of one shard: an ordered map whose log
/// entries are whole [`ShardCmd`]s. Each shard's spec carries its own
/// rendezvous `seed` (a split's drain partitions by it) and the topology
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
                apply_batch(state, batch.planned_at, batch.ops.iter().map(OpRef::from))
            }
            ShardCmd::Packed(batch) => apply_batch(state, batch.planned_at, batch.ops()),
            ShardCmd::Drain(drain) => {
                // One pass in key order: the drained keys leave as the
                // migration set, the rest are appended to the map that
                // replaces this one.
                let mut kept = KeyMap::new();
                let mut outgoing = Vec::new();
                for (k, v) in state.map.iter() {
                    if drain.takes(self.seed, k) {
                        outgoing.push(owned((k, v)));
                    } else {
                        kept.push(k, v);
                    }
                }
                state.map = kept;
                state.epoch = drain.version;
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
                replay_batch(state, batch.planned_at, batch.ops.iter().map(OpRef::from))
            }
            ShardCmd::Packed(batch) => replay_batch(state, batch.planned_at, batch.ops()),
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
        spec.apply(&mut s, &ShardCmd::Drain(DrainSpec { version: 3, child_seed: Some(99) }));
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
        let resps = spec.apply(
            &mut s,
            &ShardCmd::Drain(DrainSpec { version: 1, child_seed: Some(child_seed) }),
        );
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
        let resps =
            spec.apply(&mut s, &ShardCmd::Drain(DrainSpec { version: 4, child_seed: None }));
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
        let resps = spec
            .apply(&mut s, &ShardCmd::Drain(DrainSpec { version: 1, child_seed: Some(0xfeed) }));
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
    /// the shard's epoch; now and then a drain of either shape (a split's
    /// or a merge's) or an adoption.
    fn command(kind: u8, ops: &[(u8, u32, u64)], at: u64) -> ShardCmd {
        let op = |&(op, k, v): &(u8, u32, u64)| match op {
            0 => StoreOp::Get(key_of(k)),
            1 => StoreOp::Remove(key_of(k)),
            2 => StoreOp::Cas { key: key_of(k), expect: (v > 0).then_some(v), new: v + 1 },
            3 => StoreOp::Scan { from: key_of(k), to: key_of(k + 9) },
            _ => StoreOp::Put(key_of(k), v),
        };
        match kind {
            13 => ShardCmd::Drain(DrainSpec { version: at + 1, child_seed: Some(at) }),
            14 => ShardCmd::Drain(DrainSpec { version: at + 1, child_seed: None }),
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// A packed batch hands back the operations it was built from, and
        /// a cell holding it answers and replays as the owned batch does.
        #[test]
        fn a_packed_batch_is_the_batch_it_packs(
            entries in proptest::collection::vec((0u32..48, 0u64..4), 0..40),
            epoch in 0u64..3,
            script in proptest::collection::vec(
                (proptest::collection::vec((0u8..6, 0u32..48, 0u64..4), 0..6), 0u64..5),
                1..24,
            ),
        ) {
            let spec = ShardSpec { seed: 5, created_at: 0 };
            let start =
                ShardState::with_entries(entries.iter().map(|&(k, v)| (key_of(k), v)), epoch);
            let (mut owned, mut packed) = (start.clone(), start.clone());
            let (mut owned_replica, mut packed_replica) = (start.clone(), start);
            for (ops, at) in &script {
                let ShardCmd::Batch(batch) = command(0, ops, *at) else { unreachable!() };
                let packing = PackedBatch::new(batch.planned_at, &batch.ops);
                let unpacked: Vec<OpRef<'_>> = packing.ops().collect();
                let expected: Vec<OpRef<'_>> = batch.ops.iter().map(OpRef::from).collect();
                proptest::prop_assert_eq!(unpacked, expected);
                proptest::prop_assert_eq!(packing.ops().len(), batch.ops.len());
                let packing = ShardCmd::Packed(packing);
                let batch = ShardCmd::Batch(batch);
                proptest::prop_assert_eq!(
                    spec.apply(&mut packed, &packing),
                    spec.apply(&mut owned, &batch)
                );
                spec.replay(&mut packed_replica, &packing);
                spec.replay(&mut owned_replica, &batch);
                proptest::prop_assert_eq!(&packed, &owned);
                proptest::prop_assert_eq!(&packed_replica, &owned);
                proptest::prop_assert_eq!(&owned_replica, &owned);
            }
        }
    }

    #[test]
    fn a_decoding_thread_writes_keys_into_the_ones_its_rounds_let_go_of() {
        std::thread::spawn(|| {
            // A thread that has not asked for a key keeps none.
            assert!(!keeps_spare_keys(0), "no spares before the first key");
            recycle_keys(vec![StoreOp::Put("kept?".into(), 1)]);
            let first = key_from("first");
            assert!(keeps_spare_keys(SPARE_KEYS), "room for a full set of spares");
            assert_eq!(first, "first");
            let buffer = first.as_ptr();
            recycle_keys(vec![StoreOp::Get(first)]);
            let reused = key_from("again");
            assert_eq!(reused, "again");
            assert_eq!(reused.as_ptr(), buffer, "the round's key was written over");
            let fresh = key_from("fresh");
            assert_ne!(fresh.as_ptr(), buffer, "one spare, handed out once");
            let scan = StoreOp::Scan { from: reused, to: fresh };
            let flood = (0..2 * SPARE_KEYS).map(|k| StoreOp::Remove(key_of(k as u32)));
            recycle_keys(std::iter::once(scan).chain(flood).collect());
            let kept = SPARE.with(|spare| spare.borrow().as_ref().map(Vec::len));
            assert_eq!(kept, Some(SPARE_KEYS), "a thread keeps at most its limit");
            assert!(keeps_spare_keys(0) && !keeps_spare_keys(1), "no room past the limit");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn routing_keys() {
        assert_eq!(StoreOp::Get("k".into()).routing_key(), Some("k"));
        assert_eq!(StoreOp::Scan { from: "a".into(), to: "b".into() }.routing_key(), None);
    }
}
