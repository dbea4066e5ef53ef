//! The shard router: rendezvous-hashed key placement over a **versioned
//! shard topology**, and batch planning.
//!
//! Placement is hierarchical rendezvous (HRW) hashing. The initial `S`
//! shards are the *roots*: a key belongs to the root whose seeded hash of
//! the key is highest (the classic highest-random-weight rule, replacing
//! the old static `FNV % S` map). A **live split** of shard `p` attaches a
//! fresh child shard `c` under `p`: keys currently owned by `p` re-rendezvous
//! pairwise between `p` and `c` — `c` takes exactly the keys whose
//! `c`-seeded hash beats their `p`-seeded hash (≈ half). Children are
//! consulted in split order, so a key's owner is a deterministic walk down
//! the split tree.
//!
//! Two properties fall out of this structure:
//!
//! * **minimal disruption** — a split moves keys *only* from the split
//!   shard *only* to the new shard; every other placement in the store is
//!   untouched (property-tested in `tests/store_oracle.rs`);
//! * **local migration** — the split shard's sealed state alone contains
//!   every key that moves, so a live split migrates from one shard's
//!   checkpoint without touching the others.
//!
//! The topology is also **elastic downward**: [`ShardTopology::merge`]
//! retires a child back into its parent — the inverse bump. A retired node
//! stays in the tree as a **tombstone** (shard ids are dense and stable, so
//! retirement never renumbers anything) but the placement walk skips it,
//! which is exactly what makes the merge minimally disruptive too: a merge
//! moves keys *only* from the retired child *only* back to its parent.
//! That inverse-exactness holds because merges must unwind splits in
//! reverse: only a **live leaf that is the last live child of its parent**
//! may retire. A split needs only a live shard. Both are judged here, and
//! [`ReconfigError`] names every way a candidate can fail. With
//! the last live child gone, the parent's descent considers exactly the
//! prefix of children it considered before that child's split, so
//! split-then-merge restores the parent's placement verbatim
//! (property-tested in `tests/store_oracle.rs`).
//!
//! Each topology carries a **version**, bumped by every split and every
//! merge. Batches are stamped with the version they were planned under
//! ([`Batch::planned_at`](crate::ops::Batch)); a shard whose state has seen
//! a later reconfiguration rejects stale sub-batches with
//! [`StoreResp::Moved`](crate::ops::StoreResp) at the linearization point,
//! and the client re-plans them against the published topology (see
//! [`Client::execute`](crate::store::Client::execute)).
//!
//! [`BatchPlan`] turns one client batch into at most one sub-batch per
//! **live** shard (the batching contract of the operation layer; tombstones
//! receive nothing) and remembers how to reassemble responses in invocation
//! order, merging broadcast scans across shards. A batch whose every op
//! routes to one shard — every one-op request — is planned in the
//! **one-shard form**: the batch's own ops `Vec` is that shard's sub-batch
//! and reassembly is the identity, so committing it builds no per-shard
//! vector, no slot list and no reassembled response vector. The router
//! alone picks the form; both answer every [`BatchPlan`] and
//! [`BatchReassembly`] call alike, and a sub-batch bounces whole in both.

use std::fmt;

use crate::frame::fnv1a64;
use crate::ops::{Key, StoreOp, StoreResp};

/// The digest every rendezvous score of `key` is mixed from: a key is
/// hashed once, however many shard seeds it is scored against.
pub(crate) fn key_digest(key: &str) -> u64 {
    fnv1a64(key.as_bytes())
}

/// The rendezvous score of the key with [`key_digest`] `digest` for a shard
/// with the given `seed`: the highest score in a candidate set owns the
/// key.
///
/// The digest is mixed with the seed through a SplitMix64 finalizer — FNV
/// alone has too little avalanche for *cross-seed ordering* to decorrelate
/// (a raw seeded FNV makes one seed win almost every key).
pub(crate) fn rendezvous_score(seed: u64, digest: u64) -> u64 {
    splitmix64(seed ^ digest)
}

/// One shard's entry in the topology tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TopoNode {
    /// The rendezvous seed identifying this shard.
    pub seed: u64,
    /// The shard this one was split off from (`None` for the initial
    /// roots).
    pub parent: Option<u32>,
    /// The topology version whose split created this shard (0 for roots).
    pub created_at: u64,
    /// The topology version whose merge retired this shard back into its
    /// parent (`None` while the shard is live). Retired nodes are
    /// tombstones: they keep their dense shard id but the placement walk
    /// skips them.
    pub retired_at: Option<u64>,
    /// Shards split off this one, in split order (live and retired).
    children: Vec<u32>,
}

impl TopoNode {
    /// Whether this shard is still part of the placement walk.
    pub fn is_live(&self) -> bool {
        self.retired_at.is_none()
    }
}

/// One persisted/transported topology node: everything
/// [`ShardTopology::from_nodes`] needs to rebuild a node, in shard-id
/// order. The inverse of reading [`ShardTopology::node`] fields.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TopoRecord {
    /// The node's rendezvous seed.
    pub seed: u64,
    /// The parent shard id (`None` for roots).
    pub parent: Option<u32>,
    /// The topology version whose split created the node.
    pub created_at: u64,
    /// The topology version whose merge retired the node (`None` = live).
    pub retired_at: Option<u64>,
}

/// Why a set of [`TopoRecord`]s does not rebuild into a valid topology.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TopologyError {
    /// No nodes at all.
    Empty,
    /// A child's parent id is at or above its own (ids grow down every
    /// path, which also rules out cycles).
    ForwardParent,
    /// A node's creation version exceeds the topology version.
    CreatedBeyondVersion,
    /// A tombstone on a root: roots can never retire.
    RetiredRoot,
    /// A tombstone's retirement version exceeds the topology version or
    /// precedes the node's creation.
    RetiredOutOfRange,
    /// A live node hangs under a retired parent (the walk could never
    /// reach it).
    LiveChildOfTombstone,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TopologyError::Empty => "a topology needs at least one shard",
            TopologyError::ForwardParent => "topology nodes do not form a split forest",
            TopologyError::CreatedBeyondVersion => {
                "a node's creation version exceeds the topology version"
            }
            TopologyError::RetiredRoot => "a root shard carries a retirement tombstone",
            TopologyError::RetiredOutOfRange => {
                "a retirement tombstone is outside the topology's version range"
            }
            TopologyError::LiveChildOfTombstone => "a live shard hangs under a retired parent",
        })
    }
}

impl std::error::Error for TopologyError {}

/// Why a shard cannot be reconfigured right now: the one error of
/// [`ShardTopology::split`] and [`ShardTopology::merge`] (and of the store's
/// [`split_shard`](crate::store::Store::split_shard) and
/// [`merge_shard`](crate::store::Store::merge_shard)).
///
/// Either act needs a live shard id. A merge also unwinds a split in
/// reverse: the candidate must be a non-root **leaf** (no live children of
/// its own) and the **last live child** of its parent's split order — only
/// then does retiring it return every one of its keys to the parent, and
/// nothing else moves.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReconfigError {
    /// The shard id does not exist in the topology.
    NoSuchShard {
        /// The offending shard id.
        shard: usize,
        /// The topology's shard count (live + retired).
        shards: usize,
    },
    /// The shard was retired by a merge; a tombstone neither splits nor
    /// merges.
    Retired {
        /// The offending shard id.
        shard: usize,
    },
    /// The shard is a root: there is no parent to merge into.
    RootShard {
        /// The offending shard id.
        shard: usize,
    },
    /// The shard still has live children; merge those first.
    HasLiveChildren {
        /// The offending shard id.
        shard: usize,
    },
    /// A later sibling is still live; splits unwind in reverse order.
    NotLastLiveChild {
        /// The offending shard id.
        shard: usize,
        /// The sibling that must merge first.
        last: usize,
    },
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigError::NoSuchShard { shard, shards } => {
                write!(f, "no shard {shard} (topology has {shards})")
            }
            ReconfigError::Retired { shard } => write!(f, "shard {shard} was retired by a merge"),
            ReconfigError::RootShard { shard } => {
                write!(f, "shard {shard} is a root and has no parent to merge into")
            }
            ReconfigError::HasLiveChildren { shard } => {
                write!(f, "shard {shard} still has live children; merge those first")
            }
            ReconfigError::NotLastLiveChild { shard, last } => {
                write!(f, "shard {shard} is not its parent's last live child (shard {last} is)")
            }
        }
    }
}

impl std::error::Error for ReconfigError {}

/// A versioned shard topology: the rendezvous tree keys route through.
///
/// Topologies are immutable values; a split or merge produces a *new*
/// topology with the version bumped (the store publishes it atomically next
/// to the shard handles, see [`Store`](crate::store::Store)). Shard ids are
/// dense (`0..shards()`) and stable: a split only appends, a merge only
/// tombstones.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardTopology {
    version: u64,
    nodes: Vec<TopoNode>,
}

impl ShardTopology {
    /// A fresh topology of `shards` root shards at version 0.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn fresh(shards: usize) -> Self {
        assert!(shards > 0, "a store needs at least one shard");
        ShardTopology {
            version: 0,
            nodes: (0..shards as u64)
                .map(|i| TopoNode {
                    seed: root_seed(i),
                    parent: None,
                    created_at: 0,
                    retired_at: None,
                    children: Vec::new(),
                })
                .collect(),
        }
    }

    /// Rebuilds a topology from persisted node [`TopoRecord`]s in shard-id
    /// order; the inverse of iterating [`ShardTopology::node`].
    ///
    /// # Errors
    ///
    /// A [`TopologyError`] naming the structural defect: records that do
    /// not form a forest, versions outside the topology's range, a retired
    /// root, or a live node unreachable under a retired parent.
    pub fn from_nodes(version: u64, records: &[TopoRecord]) -> Result<Self, TopologyError> {
        if records.is_empty() {
            return Err(TopologyError::Empty);
        }
        let mut nodes: Vec<TopoNode> = records
            .iter()
            .map(|r| TopoNode {
                seed: r.seed,
                parent: r.parent,
                created_at: r.created_at,
                retired_at: r.retired_at,
                children: Vec::new(),
            })
            .collect();
        for (id, r) in records.iter().enumerate() {
            if r.created_at > version {
                return Err(TopologyError::CreatedBeyondVersion);
            }
            if let Some(retired_at) = r.retired_at {
                if r.parent.is_none() {
                    return Err(TopologyError::RetiredRoot);
                }
                if retired_at > version || retired_at <= r.created_at {
                    return Err(TopologyError::RetiredOutOfRange);
                }
            }
            if let Some(p) = r.parent {
                // Children are always created after their parent, so a
                // well-formed forest has strictly increasing ids down every
                // path.
                if p as usize >= id {
                    return Err(TopologyError::ForwardParent);
                }
                if records[p as usize].retired_at.is_some() && r.retired_at.is_none() {
                    return Err(TopologyError::LiveChildOfTombstone);
                }
                nodes[p as usize].children.push(id as u32);
            }
        }
        Ok(ShardTopology { version, nodes })
    }

    /// The topology version (bumped by every split and merge).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of shard slots (live **and** retired — ids are dense and
    /// stable, so tombstones keep their slot).
    pub fn shards(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live shards (slots the placement walk can reach).
    pub fn live_shards(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_live()).count()
    }

    /// Whether shard `id` is live (routable) rather than a tombstone.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a shard id.
    pub fn is_live(&self, id: usize) -> bool {
        self.nodes[id].is_live()
    }

    /// The topology entry of shard `id`.
    pub fn node(&self, id: usize) -> &TopoNode {
        &self.nodes[id]
    }

    /// The shard owning `key`: rendezvous among the roots, then down the
    /// split tree (each **live** child claims the keys whose child-seeded
    /// score beats the parent-seeded score, in split order; tombstones are
    /// skipped, which is what hands a merged child's keys back to its
    /// parent).
    pub fn shard_of(&self, key: &str) -> usize {
        let digest = key_digest(key);
        let score = |shard: usize| rendezvous_score(self.nodes[shard].seed, digest);
        let mut owner =
            self.roots().max_by_key(|&r| (score(r), r)).expect("a topology has at least one root");
        'descend: loop {
            let here = score(owner);
            for &child in &self.nodes[owner].children {
                if self.nodes[child as usize].is_live() && score(child as usize) > here {
                    owner = child as usize;
                    continue 'descend;
                }
            }
            return owner;
        }
    }

    /// Splits shard `parent`: returns the bumped topology and the new
    /// shard's id (always `self.shards()` — splits append).
    ///
    /// # Errors
    ///
    /// [`ReconfigError::NoSuchShard`] or [`ReconfigError::Retired`] if
    /// `parent` is not a live shard id.
    pub fn split(&self, parent: usize) -> Result<(ShardTopology, usize), ReconfigError> {
        let parent_seed = self.live_node(parent)?.seed;
        let child = self.nodes.len();
        let version = self.version + 1;
        let mut nodes = self.nodes.clone();
        nodes[parent].children.push(child as u32);
        nodes.push(TopoNode {
            // Unique and deterministic: derived from the parent's seed and
            // the bump version, so a replayed split history yields the same
            // tree.
            seed: child_seed(parent_seed, version),
            parent: Some(parent as u32),
            created_at: version,
            retired_at: None,
            children: Vec::new(),
        });
        Ok((ShardTopology { version, nodes }, child))
    }

    /// The node of shard `id`, if `id` names a live shard: the check both
    /// reconfigurations start with.
    fn live_node(&self, id: usize) -> Result<&TopoNode, ReconfigError> {
        match self.nodes.get(id) {
            None => Err(ReconfigError::NoSuchShard { shard: id, shards: self.nodes.len() }),
            Some(node) if !node.is_live() => Err(ReconfigError::Retired { shard: id }),
            Some(node) => Ok(node),
        }
    }

    /// Checks whether shard `child` may merge back into its parent right
    /// now; returns the parent's id.
    ///
    /// # Errors
    ///
    /// A [`ReconfigError`] naming the obstruction. Merges unwind splits in
    /// reverse: the candidate must be live, non-root, a leaf (no live
    /// children), and the **last live child** in its parent's split order —
    /// exactly the condition under which retiring it returns all of its
    /// keys to the parent and moves nothing else.
    pub fn check_merge(&self, child: usize) -> Result<usize, ReconfigError> {
        let node = self.live_node(child)?;
        let Some(parent) = node.parent else {
            return Err(ReconfigError::RootShard { shard: child });
        };
        if node.children.iter().any(|&c| self.nodes[c as usize].is_live()) {
            return Err(ReconfigError::HasLiveChildren { shard: child });
        }
        let last_live = self.nodes[parent as usize]
            .children
            .iter()
            .copied()
            .rfind(|&c| self.nodes[c as usize].is_live())
            .expect("child is a live child of its parent");
        if last_live as usize != child {
            return Err(ReconfigError::NotLastLiveChild { shard: child, last: last_live as usize });
        }
        Ok(parent as usize)
    }

    /// Merges shard `child` back into its parent: returns the bumped
    /// topology (the child tombstoned at the new version) and the parent's
    /// id. The inverse of [`ShardTopology::split`]: placement after the
    /// merge equals placement before the child's split, restricted to the
    /// keys the child subtree ever owned.
    ///
    /// # Errors
    ///
    /// Any [`ReconfigError`] from [`ShardTopology::check_merge`].
    pub fn merge(&self, child: usize) -> Result<(ShardTopology, usize), ReconfigError> {
        let parent = self.check_merge(child)?;
        let version = self.version + 1;
        let mut nodes = self.nodes.clone();
        nodes[child].retired_at = Some(version);
        Ok((ShardTopology { version, nodes }, parent))
    }

    /// The initial (root) shard ids.
    fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes.iter().enumerate().filter(|(_, n)| n.parent.is_none()).map(|(i, _)| i)
    }

    /// Plans a batch: splits the ops into per-shard sub-batches, broadcast
    /// ops (scans) going to every **live** shard (tombstones hold no data
    /// and receive nothing). A batch whose every op routes to one shard is
    /// planned in the *one-shard form*: its ops `Vec` is that shard's
    /// sub-batch as it came, and its reassembly is the identity.
    pub fn plan(&self, ops: Vec<StoreOp>) -> BatchPlan {
        // The leading run of ops placed on the first op's shard: all of
        // them is the one-shard form, and the spread form reuses their
        // placement.
        let mut placed = ops.iter().map(|op| op.routing_key().map(|key| self.shard_of(key)));
        let first = placed.next().flatten();
        let run = first.map_or(0, |s| 1 + placed.take_while(|&p| p == Some(s)).count());
        match first {
            Some(shard) if run == ops.len() => {
                BatchPlan(Plan::OneShard { shard, shards: self.shards(), ops })
            }
            _ => self.spread(ops, first.map(|shard| (shard, run))),
        }
    }

    /// The spread form of a plan of `ops`: one sub-batch per shard slot.
    /// `lead`, if known, is `(shard, run)`: the first `run` ops route to
    /// `shard`.
    fn spread(&self, ops: Vec<StoreOp>, lead: Option<(usize, usize)>) -> BatchPlan {
        let mut per_shard: Vec<Vec<StoreOp>> = vec![Vec::new(); self.shards()];
        let mut slots = Vec::with_capacity(ops.len());
        for (i, op) in ops.into_iter().enumerate() {
            match op.routing_key() {
                Some(key) => {
                    let shard = match lead {
                        Some((shard, run)) if i < run => shard,
                        _ => self.shard_of(key),
                    };
                    slots.push(RespSlot::Single { shard, index: per_shard[shard].len() });
                    per_shard[shard].push(op);
                }
                None => {
                    // Every live shard but the last gets a copy; the last
                    // gets the op itself.
                    let last = (0..self.shards()).rfind(|&s| self.is_live(s));
                    let mut indices = Vec::with_capacity(self.nodes.len());
                    let mut op = Some(op);
                    for s in (0..self.shards()).filter(|&s| self.is_live(s)) {
                        indices.push((s, per_shard[s].len()));
                        per_shard[s].extend(if Some(s) == last { op.take() } else { op.clone() });
                    }
                    slots.push(RespSlot::Broadcast { indices });
                }
            }
        }
        BatchPlan(Plan::Spread { per_shard, slots })
    }
}

fn root_seed(i: u64) -> u64 {
    splitmix64(0x5eed_0000_0000_0000 ^ i)
}

fn child_seed(parent_seed: u64, version: u64) -> u64 {
    splitmix64(parent_seed ^ version.rotate_left(32))
}

/// SplitMix64 (reference constants): seed whitening for the rendezvous
/// identities here, deterministic op streams in the store's tests.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where one op's response comes from after the per-shard commits.
#[derive(Clone, PartialEq, Eq, Debug)]
enum RespSlot {
    /// The op went to a single shard, at `index` within its sub-batch.
    Single {
        /// The owning shard.
        shard: usize,
        /// Index within that shard's sub-batch.
        index: usize,
    },
    /// The op was broadcast to every live shard; each entry is a
    /// `(shard, index-within-that-shard's-sub-batch)` pair.
    Broadcast {
        /// The live shards the op went to, with its sub-batch index there.
        indices: Vec<(usize, usize)>,
    },
}

/// The result of [`ShardTopology::plan`]: per-shard sub-batches plus the
/// recipe for reassembling responses in the original invocation order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchPlan(Plan);

/// The two forms of a [`BatchPlan`].
#[derive(Clone, PartialEq, Eq, Debug)]
enum Plan {
    /// Every op routes to `shard`: the batch's ops, in invocation order,
    /// are that shard's sub-batch, and its responses are the batch's.
    OneShard {
        /// The one shard the batch touches.
        shard: usize,
        /// Shard slots of the planning topology (live and retired).
        shards: usize,
        /// The batch's ops, which are the sub-batch.
        ops: Vec<StoreOp>,
    },
    /// The ops span shards, or include a broadcast.
    Spread {
        /// One sub-batch per shard slot (empty if the shard is idle).
        per_shard: Vec<Vec<StoreOp>>,
        /// Where each op's response comes from, in invocation order.
        slots: Vec<RespSlot>,
    },
}

impl BatchPlan {
    /// The sub-batch destined for shard `s` (empty if the shard is idle).
    pub fn sub_batch(&self, s: usize) -> &[StoreOp] {
        match &self.0 {
            Plan::OneShard { shard, ops, .. } if *shard == s => ops,
            Plan::OneShard { .. } => &[],
            Plan::Spread { per_shard, .. } => &per_shard[s],
        }
    }

    /// Shards with at least one op, in index order.
    pub fn active_shards(&self) -> impl Iterator<Item = usize> + '_ {
        let (one, spread) = match &self.0 {
            Plan::OneShard { shard, .. } => (Some(*shard), None),
            Plan::Spread { per_shard, .. } => (None, Some(per_shard)),
        };
        let spread = spread.into_iter().flatten().enumerate();
        one.into_iter().chain(spread.filter(|(_, sub)| !sub.is_empty()).map(|(s, _)| s))
    }

    /// Takes ownership of the per-shard sub-batches (index = shard).
    pub fn into_sub_batches(self) -> (Vec<Vec<StoreOp>>, BatchReassembly) {
        match self.0 {
            Plan::OneShard { shard, shards, ops } => {
                let mut per_shard = vec![Vec::new(); shards];
                per_shard[shard] = ops;
                (per_shard, BatchReassembly(Reassembly::Identity { shard }))
            }
            Plan::Spread { per_shard, slots } => {
                (per_shard, BatchReassembly(Reassembly::Slots(slots)))
            }
        }
    }

    /// Hands each non-empty sub-batch to `commit` in shard order and
    /// returns the responses in invocation order, with the reassembly that
    /// ordered them. The one-shard form builds nothing around its one
    /// commit: the ops move in whole and the shard's responses are the
    /// batch's.
    pub(crate) fn commit_each(
        self,
        mut commit: impl FnMut(usize, Vec<StoreOp>) -> Vec<StoreResp>,
    ) -> (Vec<StoreResp>, BatchReassembly) {
        if let Plan::OneShard { shard, ops, .. } = self.0 {
            return (commit(shard, ops), BatchReassembly(Reassembly::Identity { shard }));
        }
        let (subs, reassembly) = self.into_sub_batches();
        let per_shard = subs
            .into_iter()
            .enumerate()
            .map(|(s, sub)| if sub.is_empty() { Vec::new() } else { commit(s, sub) })
            .collect();
        (reassembly.reassemble(per_shard), reassembly)
    }
}

/// Reassembles per-shard responses into invocation order; the second half
/// of a [`BatchPlan`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchReassembly(Reassembly);

/// The two forms of a [`BatchReassembly`], one per [`Plan`] form.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Reassembly {
    /// A one-shard plan's: the shard's responses are the batch's.
    Identity {
        /// The one shard the batch touched.
        shard: usize,
    },
    /// A spread plan's: where each op's response comes from.
    Slots(Vec<RespSlot>),
}

impl BatchReassembly {
    /// Merges `per_shard[s]` (responses of shard `s`'s sub-batch, in
    /// sub-batch order) back into one response vector in invocation order,
    /// moving each response out rather than copying it. Broadcast scans
    /// are merged across shards into key order; if any shard rejected its
    /// copy of a broadcast op as stale ([`StoreResp::Moved`]), the merged
    /// response is `Moved` so the client retries the whole (read-only) op
    /// against the fresh topology.
    ///
    /// # Panics
    ///
    /// Panics if the response shapes do not match the plan (a store bug).
    pub fn reassemble(&self, mut per_shard: Vec<Vec<StoreResp>>) -> Vec<StoreResp> {
        let slots = match &self.0 {
            Reassembly::Identity { shard } => return std::mem::take(&mut per_shard[*shard]),
            Reassembly::Slots(slots) => slots,
        };
        let mut take =
            |s: usize, i: usize| std::mem::replace(&mut per_shard[s][i], StoreResp::Value(None));
        slots
            .iter()
            .map(|slot| match slot {
                RespSlot::Single { shard, index } => take(*shard, *index),
                RespSlot::Broadcast { indices } => {
                    let mut merged: Vec<(Key, u64)> = Vec::new();
                    let mut moved_epoch = None;
                    for &(s, i) in indices {
                        match take(s, i) {
                            StoreResp::Entries(part) if merged.is_empty() => merged = part,
                            StoreResp::Entries(mut part) => merged.append(&mut part),
                            StoreResp::Moved { epoch } => {
                                moved_epoch =
                                    Some(moved_epoch.map_or(epoch, |e: u64| e.max(epoch)));
                            }
                            other => panic!("broadcast slot returned {other:?}"),
                        }
                    }
                    if let Some(epoch) = moved_epoch {
                        return StoreResp::Moved { epoch };
                    }
                    merged.sort_by(|a, b| a.0.cmp(&b.0));
                    StoreResp::Entries(merged)
                }
            })
            .collect()
    }

    /// The operation behind each slot that `resps` — this plan's
    /// reassembled responses — answers [`StoreResp::Moved`], in slot order.
    /// `sub_batch(s)` is the sub-batch shard `s` bounced, if it bounced
    /// one; a sub-batch bounces whole, so every bounced slot has a shard
    /// there holding its operation, and only these operations are copied.
    ///
    /// # Panics
    ///
    /// Panics if a bounced slot has no bounced sub-batch (a store bug).
    pub(crate) fn bounced<'a>(
        &self,
        resps: &[StoreResp],
        sub_batch: impl Fn(usize) -> Option<&'a [StoreOp]>,
    ) -> Vec<StoreOp> {
        let op = |(s, i): (usize, usize)| sub_batch(s).map(|ops| ops[i].clone());
        resps
            .iter()
            .enumerate()
            .filter(|(_, resp)| matches!(resp, StoreResp::Moved { .. }))
            .map(|(at, _)| {
                let op = match &self.0 {
                    Reassembly::Identity { shard } => op((*shard, at)),
                    Reassembly::Slots(slots) => match &slots[at] {
                        RespSlot::Single { shard, index } => op((*shard, *index)),
                        RespSlot::Broadcast { indices } => indices.iter().copied().find_map(op),
                    },
                };
                op.expect("a bounced slot's sub-batch bounced")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_stable_and_in_range() {
        let t = ShardTopology::fresh(4);
        for key in ["", "a", "alpha", "zebra", "key/with/path"] {
            let s = t.shard_of(key);
            assert!(s < 4);
            assert_eq!(s, t.shard_of(key), "stable placement for {key:?}");
        }
        // One shard routes everything to 0.
        let t1 = ShardTopology::fresh(1);
        assert_eq!(t1.shard_of("anything"), 0);
    }

    #[test]
    fn hashing_spreads_keys() {
        let t = ShardTopology::fresh(8);
        let mut seen = [false; 8];
        for i in 0..256 {
            seen[t.shard_of(&format!("key-{i}"))] = true;
        }
        assert!(seen.iter().all(|&b| b), "256 keys must touch all 8 shards");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardTopology::fresh(0);
    }

    #[test]
    fn split_moves_keys_only_to_the_new_shard() {
        let t = ShardTopology::fresh(4);
        let hot = 2;
        let (t2, fresh) = t.split(hot).unwrap();
        assert_eq!(fresh, 4);
        assert_eq!(t2.version(), 1);
        assert_eq!(t2.shards(), 5);
        let mut moved = 0;
        for i in 0..2048 {
            let key = format!("key/{i}");
            let before = t.shard_of(&key);
            let after = t2.shard_of(&key);
            if before != after {
                assert_eq!(after, fresh, "{key} may only move to the new shard");
                assert_eq!(before, hot, "{key} may only move away from the split shard");
                moved += 1;
            }
        }
        assert!(moved > 0, "a split must actually relieve the split shard");
    }

    #[test]
    fn repeated_splits_keep_balancing_the_same_shard() {
        // Splitting shard 0 twice: the second split moves keys only from
        // what shard 0 retained, never from the first child.
        let t0 = ShardTopology::fresh(2);
        let (t1, c1) = t0.split(0).unwrap();
        let (t2, c2) = t1.split(0).unwrap();
        assert_eq!((c1, c2), (2, 3));
        assert_eq!(t2.version(), 2);
        for i in 0..1024 {
            let key = format!("k{i}");
            let (a, b) = (t1.shard_of(&key), t2.shard_of(&key));
            if a != b {
                assert_eq!(b, c2);
                assert_eq!(a, 0, "the second split must not disturb the first child");
            }
        }
    }

    #[test]
    fn split_children_can_split_again() {
        let t0 = ShardTopology::fresh(1);
        let (t1, c1) = t0.split(0).unwrap();
        let (t2, c2) = t1.split(c1).unwrap();
        assert_eq!(t2.node(c2).parent, Some(c1 as u32));
        for i in 0..1024 {
            let key = format!("deep/{i}");
            let (a, b) = (t1.shard_of(&key), t2.shard_of(&key));
            if a != b {
                assert_eq!(b, c2);
                assert_eq!(a, c1, "a child split moves only the child's keys");
            }
        }
    }

    fn records_of(t: &ShardTopology) -> Vec<TopoRecord> {
        (0..t.shards())
            .map(|s| {
                let n = t.node(s);
                TopoRecord {
                    seed: n.seed,
                    parent: n.parent,
                    created_at: n.created_at,
                    retired_at: n.retired_at,
                }
            })
            .collect()
    }

    fn rec(seed: u64, parent: Option<u32>, created_at: u64, retired_at: Option<u64>) -> TopoRecord {
        TopoRecord { seed, parent, created_at, retired_at }
    }

    #[test]
    fn from_nodes_roundtrips_and_validates() {
        let (t, _) = ShardTopology::fresh(3).split(1).unwrap();
        let rebuilt =
            ShardTopology::from_nodes(t.version(), &records_of(&t)).expect("valid records");
        assert_eq!(rebuilt, t);
        for key in ["a", "b", "c", "key/17"] {
            assert_eq!(rebuilt.shard_of(key), t.shard_of(key));
        }
        // A child pointing at itself or a later id is rejected.
        assert_eq!(
            ShardTopology::from_nodes(1, &[rec(1, Some(0), 1, None), rec(2, Some(1), 1, None)]),
            Err(TopologyError::ForwardParent)
        );
        assert_eq!(
            ShardTopology::from_nodes(0, &[rec(1, Some(1), 0, None)]),
            Err(TopologyError::ForwardParent)
        );
        assert_eq!(ShardTopology::from_nodes(0, &[]), Err(TopologyError::Empty));
        // created_at beyond the topology version is rejected.
        assert_eq!(
            ShardTopology::from_nodes(0, &[rec(1, None, 0, None), rec(2, Some(0), 1, None)]),
            Err(TopologyError::CreatedBeyondVersion)
        );
    }

    #[test]
    fn from_nodes_validates_tombstones() {
        // A tombstoned topology round-trips.
        let (t1, child) = ShardTopology::fresh(2).split(0).unwrap();
        let (t2, _) = t1.merge(child).expect("fresh child merges");
        let rebuilt =
            ShardTopology::from_nodes(t2.version(), &records_of(&t2)).expect("valid tombstones");
        assert_eq!(rebuilt, t2);
        // A retired root is invalid.
        assert_eq!(
            ShardTopology::from_nodes(1, &[rec(1, None, 0, Some(1))]),
            Err(TopologyError::RetiredRoot)
        );
        // Retirement outside (created_at, version] is invalid.
        assert_eq!(
            ShardTopology::from_nodes(2, &[rec(1, None, 0, None), rec(2, Some(0), 1, Some(3))]),
            Err(TopologyError::RetiredOutOfRange)
        );
        assert_eq!(
            ShardTopology::from_nodes(2, &[rec(1, None, 0, None), rec(2, Some(0), 1, Some(1))]),
            Err(TopologyError::RetiredOutOfRange)
        );
        // A live node under a retired parent is unreachable.
        assert_eq!(
            ShardTopology::from_nodes(
                3,
                &[rec(1, None, 0, None), rec(2, Some(0), 1, Some(3)), rec(3, Some(1), 2, None),]
            ),
            Err(TopologyError::LiveChildOfTombstone)
        );
        // Errors render.
        for e in [
            TopologyError::Empty,
            TopologyError::ForwardParent,
            TopologyError::CreatedBeyondVersion,
            TopologyError::RetiredRoot,
            TopologyError::RetiredOutOfRange,
            TopologyError::LiveChildOfTombstone,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn merge_restores_the_parents_placement_exactly() {
        // Split shard 1 of 4, then merge the child back: every key routes
        // exactly where it did before the split.
        let t0 = ShardTopology::fresh(4);
        let (t1, child) = t0.split(1).unwrap();
        let (t2, parent) = t1.merge(child).expect("last live child merges");
        assert_eq!(parent, 1);
        assert_eq!(t2.version(), 2);
        assert_eq!(t2.shards(), 5, "tombstones keep their slot");
        assert_eq!(t2.live_shards(), 4);
        assert!(!t2.is_live(child));
        assert_eq!(t2.node(child).retired_at, Some(2));
        for i in 0..2048 {
            let key = format!("key/{i}");
            assert_eq!(
                t2.shard_of(&key),
                t0.shard_of(&key),
                "{key} must route as before the split"
            );
        }
    }

    #[test]
    fn merge_moves_keys_only_child_to_parent() {
        let (t1, child) = ShardTopology::fresh(3).split(2).unwrap();
        let (t2, parent) = t1.merge(child).expect("merge");
        let mut moved = 0;
        for i in 0..2048 {
            let key = format!("k{i}");
            let (before, after) = (t1.shard_of(&key), t2.shard_of(&key));
            if before != after {
                assert_eq!(before, child, "{key} may only leave the retired child");
                assert_eq!(after, parent, "{key} may only return to the parent");
                moved += 1;
            }
        }
        assert!(moved > 0, "the merge must actually hand keys back");
    }

    #[test]
    fn merge_eligibility_is_typed() {
        let t = ShardTopology::fresh(2);
        assert_eq!(
            t.check_merge(5),
            Err(ReconfigError::NoSuchShard { shard: 5, shards: 2 }),
            "{}",
            ReconfigError::NoSuchShard { shard: 5, shards: 2 }
        );
        assert_eq!(t.check_merge(0), Err(ReconfigError::RootShard { shard: 0 }));
        // Stack two splits of shard 0: children 2 then 3. Shard 2 is not
        // the last live child; shard 3 is; splitting 2 gives it a live
        // child of its own.
        let (t1, c1) = t.split(0).unwrap();
        let (t2, c2) = t1.split(0).unwrap();
        assert_eq!((c1, c2), (2, 3));
        assert_eq!(
            t2.check_merge(c1),
            Err(ReconfigError::NotLastLiveChild { shard: c1, last: c2 })
        );
        let (t3, c3) = t2.split(c1).unwrap();
        assert_eq!(t3.check_merge(c1), Err(ReconfigError::HasLiveChildren { shard: c1 }));
        assert_eq!(t3.check_merge(c3), Ok(c1), "a leaf last-live-child is eligible");
        // After merging c3 and c2, c1 becomes mergeable.
        let (t4, _) = t3.merge(c3).unwrap();
        assert_eq!(t4.check_merge(c3), Err(ReconfigError::Retired { shard: c3 }));
        let (t5, _) = t4.merge(c2).unwrap();
        let (t6, _) = t5.merge(c1).unwrap();
        assert_eq!(t6.live_shards(), 2, "the whole split stack unwinds");
        for i in 0..512 {
            let key = format!("unwind/{i}");
            assert_eq!(t6.shard_of(&key), t.shard_of(&key), "full unwind restores fresh placement");
        }
        // Every error renders.
        for e in [
            ReconfigError::NoSuchShard { shard: 1, shards: 1 },
            ReconfigError::RootShard { shard: 1 },
            ReconfigError::Retired { shard: 1 },
            ReconfigError::HasLiveChildren { shard: 1 },
            ReconfigError::NotLastLiveChild { shard: 1, last: 2 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn split_after_merge_reuses_no_slot_and_routes_fresh() {
        // Merge a child away, split the same parent again: the new child
        // gets a fresh slot (append-only ids) and its own seed.
        let (t1, c1) = ShardTopology::fresh(2).split(0).unwrap();
        let (t2, _) = t1.merge(c1).unwrap();
        let (t3, c2) = t2.split(0).unwrap();
        assert_eq!(c2, 3, "tombstoned slots are never reused");
        assert!(t3.is_live(c2));
        assert!(!t3.is_live(c1));
        assert_ne!(
            t3.node(c2).seed,
            t3.node(c1).seed,
            "the bump version differs, so the seed does"
        );
        // The new child takes keys only from the parent.
        for i in 0..1024 {
            let key = format!("re/{i}");
            let (a, b) = (t2.shard_of(&key), t3.shard_of(&key));
            if a != b {
                assert_eq!(b, c2);
                assert_eq!(a, 0);
            }
        }
    }

    #[test]
    fn split_eligibility_is_typed() {
        let (t1, child) = ShardTopology::fresh(1).split(0).unwrap();
        let (t2, _) = t1.merge(child).unwrap();
        assert_eq!(t2.split(child), Err(ReconfigError::Retired { shard: child }));
        assert_eq!(t2.split(7), Err(ReconfigError::NoSuchShard { shard: 7, shards: 2 }));
        // A tombstone or a missing id fails a merge the same way.
        assert_eq!(t2.check_merge(child), Err(ReconfigError::Retired { shard: child }));
        assert_eq!(t2.check_merge(7), Err(ReconfigError::NoSuchShard { shard: 7, shards: 2 }));
    }

    #[test]
    fn broadcasts_skip_tombstones() {
        let (t1, child) = ShardTopology::fresh(2).split(0).unwrap();
        let (t2, _) = t1.merge(child).unwrap();
        let plan = t2.plan(vec![StoreOp::Scan { from: "".into(), to: "z".into() }]);
        assert!(plan.sub_batch(child).is_empty(), "tombstones receive no broadcast copy");
        assert_eq!(plan.active_shards().count(), 2, "both live shards get the scan");
        let (subs, reassembly) = plan.into_sub_batches();
        let per_shard: Vec<Vec<StoreResp>> = subs
            .iter()
            .map(|sub| {
                let mut state = crate::ops::ShardState::new();
                sub.iter().map(|op| crate::ops::apply_op(&mut state, op)).collect()
            })
            .collect();
        assert_eq!(reassembly.reassemble(per_shard), vec![StoreResp::Entries(vec![])]);
    }

    /// A fresh topology, one after a split, and one after a merge that
    /// left a tombstone (shard 4) beside a live split child (shard 3).
    fn plan_topologies() -> [ShardTopology; 3] {
        let fresh = ShardTopology::fresh(3);
        let (split, child) = fresh.split(1).unwrap();
        let (twice, tomb) = split.split(0).unwrap();
        let (merged, _) = twice.merge(tomb).expect("the newest child merges");
        assert_eq!((child, tomb), (3, 4));
        [fresh, split, merged]
    }

    /// `n` keys `t` routes to `shard`.
    fn keys_on(t: &ShardTopology, shard: usize, n: usize) -> Vec<String> {
        (0..).map(|i| format!("k{i}")).filter(|k| t.shard_of(k) == shard).take(n).collect()
    }

    /// Commits the plan of `ops` on `t` against scratch shard states, the
    /// shards in `bounce` answering `Moved` for their whole sub-batch, and
    /// checks that the form the router picks gives what the spread form
    /// gives: the same sub-batches, reassembled responses and bounced
    /// operations — through the public calls and through the store's
    /// `commit_each`. Returns the responses.
    fn same_as_spread(t: &ShardTopology, ops: &[StoreOp], bounce: &[usize]) -> Vec<StoreResp> {
        let commit = |s: usize, sub: &[StoreOp]| -> Vec<StoreResp> {
            if bounce.contains(&s) {
                return vec![StoreResp::Moved { epoch: 9 }; sub.len()];
            }
            let mut state = crate::ops::ShardState::new();
            sub.iter().map(|op| crate::ops::apply_op(&mut state, op)).collect()
        };
        let land = |plan: BatchPlan| {
            let (subs, reassembly) = plan.into_sub_batches();
            let per_shard = subs.iter().enumerate().map(|(s, sub)| commit(s, sub)).collect();
            let resps = reassembly.reassemble(per_shard);
            let bounced = reassembly.bounced(&resps, |s| bounce.contains(&s).then(|| &subs[s][..]));
            (subs, resps, bounced)
        };
        let spread = land(t.spread(ops.to_vec(), None));
        assert_eq!(land(t.plan(ops.to_vec())), spread, "{ops:?}");
        let mut committed: Vec<(usize, Vec<StoreOp>)> = Vec::new();
        let (resps, reassembly) = t.plan(ops.to_vec()).commit_each(|s, sub| {
            let resps = commit(s, &sub);
            committed.push((s, sub));
            resps
        });
        let sub_batch = |s| committed.iter().find(|(c, _)| *c == s).map(|(_, sub)| &sub[..]);
        assert_eq!(resps, spread.1, "commit_each answers as the spread form: {ops:?}");
        assert_eq!(reassembly.bounced(&resps, sub_batch), spread.2, "{ops:?}");
        spread.1
    }

    fn is_one_shard(plan: &BatchPlan, on: usize) -> bool {
        matches!(plan.0, Plan::OneShard { shard, .. } if shard == on)
    }

    #[test]
    fn plan_routes_and_reassembles_in_order() {
        use StoreResp::{Moved, Value};
        for t in plan_topologies() {
            let ops = vec![
                StoreOp::Put("a".into(), 1),
                StoreOp::Put("b".into(), 2),
                StoreOp::Get("a".into()),
            ];
            let resps = same_as_spread(&t, &ops, &[]);
            assert_eq!(resps, vec![Value(None), Value(None), Value(Some(1))]);

            // Every live shard, the split child included, takes a one-op
            // and a several-op batch in the one-shard form; the several
            // ops keep their invocation order, and bounce whole.
            let live: Vec<usize> = (0..t.shards()).filter(|&s| t.is_live(s)).collect();
            assert_eq!(live.contains(&3), t.shards() > 3, "the split child is live");
            for &shard in &live {
                let k = keys_on(&t, shard, 2);
                let one = vec![StoreOp::Put(k[0].clone(), 1)];
                assert!(is_one_shard(&t.plan(one.clone()), shard));
                assert_eq!(t.plan(one.clone()).active_shards().collect::<Vec<_>>(), [shard]);
                assert_eq!(same_as_spread(&t, &one, &[]), [Value(None)]);
                assert_eq!(same_as_spread(&t, &one, &[shard]), [Moved { epoch: 9 }]);

                let several = vec![
                    StoreOp::Put(k[0].clone(), 1),
                    StoreOp::Get(k[1].clone()),
                    StoreOp::Cas { key: k[0].clone(), expect: Some(1), new: 2 },
                    StoreOp::Get(k[0].clone()),
                    StoreOp::Remove(k[0].clone()),
                ];
                let plan = t.plan(several.clone());
                assert!(is_one_shard(&plan, shard));
                assert_eq!(plan.sub_batch(shard), &several[..], "invocation order");
                assert!(live
                    .iter()
                    .filter(|&&s| s != shard)
                    .all(|&s| plan.sub_batch(s).is_empty()));
                assert_eq!(
                    same_as_spread(&t, &several, &[]),
                    [
                        Value(None),
                        Value(None),
                        StoreResp::Cas { ok: true, actual: Some(1) },
                        Value(Some(2)),
                        Value(Some(2)),
                    ]
                );
                let others: Vec<usize> = live.iter().copied().filter(|&s| s != shard).collect();
                assert_eq!(
                    same_as_spread(&t, &several, &others),
                    same_as_spread(&t, &several, &[])
                );
                assert_eq!(same_as_spread(&t, &several, &[shard]), vec![Moved { epoch: 9 }; 5]);

                // Single-key ops of one shard beside a scan stay spread.
                let mut scanned = several.clone();
                scanned.insert(2, StoreOp::Scan { from: "k".into(), to: "l".into() });
                assert!(matches!(t.plan(scanned.clone()).0, Plan::Spread { .. }));
                let resps = same_as_spread(&t, &scanned, &[]);
                assert!(matches!(resps[2], StoreResp::Entries(_)));
                same_as_spread(&t, &scanned, &[shard]);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any op list, on any of the three topologies and with any set of
        /// shards bouncing, plans to what the spread form gives; a list
        /// drawn from one shard's keys is planned in the one-shard form.
        #[test]
        fn every_plan_form_lands_as_the_spread_form(
            shape in (0usize..3, 0u8..2, 0u64..32),
            picks in proptest::collection::vec((0u8..5, 0usize..64, 0u64..4), 0..12),
        ) {
            let (which, one_shard, bounce) = shape;
            let t = &plan_topologies()[which];
            let live: Vec<usize> = (0..t.shards()).filter(|&s| t.is_live(s)).collect();
            let target = live[picks.len() % live.len()];
            let keys = if one_shard == 1 {
                keys_on(t, target, 64)
            } else {
                (0..64).map(|i| format!("k{i}")).collect()
            };
            let ops: Vec<StoreOp> = picks
                .iter()
                .map(|&(kind, key, value)| {
                    let key = keys[key].clone();
                    match kind {
                        0 => StoreOp::Get(key),
                        1 => StoreOp::Put(key, value),
                        2 => StoreOp::Remove(key),
                        3 => StoreOp::Cas { key, expect: Some(value), new: value + 1 },
                        _ => StoreOp::Scan { from: key, to: "z".into() },
                    }
                })
                .collect();
            let bounce: Vec<usize> = (0..t.shards()).filter(|s| bounce >> s & 1 == 1).collect();
            let resps = same_as_spread(t, &ops, &bounce);
            proptest::prop_assert_eq!(resps.len(), ops.len());
            let single = !ops.is_empty() && ops.iter().all(|op| op.routing_key().is_some());
            let planned = t.plan(ops.clone());
            if one_shard == 1 && single {
                proptest::prop_assert!(is_one_shard(&planned, target), "one shard's keys");
            } else if !single {
                let spread = matches!(planned.0, Plan::Spread { .. });
                proptest::prop_assert!(spread, "a scan or an empty list plans spread");
            }
        }
    }

    #[test]
    fn scans_broadcast_to_every_shard_and_merge_sorted() {
        let t = ShardTopology::fresh(4);
        let mut ops: Vec<StoreOp> = (0..16).map(|i| StoreOp::Put(format!("k{i:02}"), i)).collect();
        ops.push(StoreOp::Scan { from: "k00".into(), to: "k99".into() });
        let plan = t.plan(ops);
        for s in 0..4 {
            assert!(
                matches!(plan.sub_batch(s).last(), Some(StoreOp::Scan { .. })),
                "scan must reach shard {s}"
            );
        }
        let (subs, reassembly) = plan.into_sub_batches();
        let mut per_shard = Vec::new();
        for sub in &subs {
            let mut state = crate::ops::ShardState::new();
            per_shard.push(sub.iter().map(|op| crate::ops::apply_op(&mut state, op)).collect());
        }
        let resps = reassembly.reassemble(per_shard);
        match resps.last().unwrap() {
            StoreResp::Entries(entries) => {
                assert_eq!(entries.len(), 16, "scan sees every key across shards");
                let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                assert_eq!(keys, sorted, "merged scan is in key order");
            }
            other => panic!("scan returned {other:?}"),
        }
    }

    #[test]
    fn broadcast_reassembly_surfaces_staleness() {
        // If any shard rejected its copy of a scan as stale, the merged
        // response must be Moved (with the highest epoch seen), never a
        // silent partial merge.
        let t = ShardTopology::fresh(2);
        let plan = t.plan(vec![StoreOp::Scan { from: "".into(), to: "z".into() }]);
        let (_, reassembly) = plan.into_sub_batches();
        let resps = reassembly.reassemble(vec![
            vec![StoreResp::Entries(vec![("a".into(), 1)])],
            vec![StoreResp::Moved { epoch: 3 }],
        ]);
        assert_eq!(resps, vec![StoreResp::Moved { epoch: 3 }]);
    }

    /// The 64 keys of the placement pin: 8-byte benchmark keys, 16-byte
    /// keys with a common 8-byte prefix, short keys and the empty key, and
    /// multi-byte UTF-8.
    fn pinned_keys() -> Vec<String> {
        (0..64u32)
            .map(|i| match i % 4 {
                0 => format!("k{:07}", i * 7915),
                1 => format!("user:000{:08}", i * 7915),
                2 if i == 2 => String::new(),
                2 => format!("{i}"),
                _ => format!("é{i}ß/{}", "x".repeat(i as usize % 9)),
            })
            .collect()
    }

    /// Placement decides which shard's log, snapshot section and WAL frames
    /// hold a key, so it must never move: `shard_of` for 64 fixed keys on a
    /// fresh 4-root topology, after splitting root 0, after splitting that
    /// child, and after merging the grandchild back.
    #[test]
    fn placement_pin_across_split_and_merge() {
        #[rustfmt::skip]
        const FRESH: [usize; 64] = [
            0, 1, 3, 1, 2, 0, 1, 0, 2, 2, 1, 3, 1, 2, 0, 2,
            3, 2, 3, 0, 2, 3, 2, 3, 2, 0, 3, 0, 2, 3, 0, 0,
            3, 3, 3, 0, 1, 3, 2, 1, 3, 0, 3, 3, 1, 3, 3, 0,
            3, 3, 1, 2, 3, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1,
        ];
        #[rustfmt::skip]
        const SPLIT_0: [usize; 64] = [
            0, 1, 3, 1, 2, 4, 1, 0, 2, 2, 1, 3, 1, 2, 0, 2,
            3, 2, 3, 0, 2, 3, 2, 3, 2, 0, 3, 0, 2, 3, 4, 0,
            3, 3, 3, 0, 1, 3, 2, 1, 3, 0, 3, 3, 1, 3, 3, 0,
            3, 3, 1, 2, 3, 0, 4, 4, 0, 0, 0, 3, 4, 4, 0, 1,
        ];
        #[rustfmt::skip]
        const SPLIT_4: [usize; 64] = [
            0, 1, 3, 1, 2, 5, 1, 0, 2, 2, 1, 3, 1, 2, 0, 2,
            3, 2, 3, 0, 2, 3, 2, 3, 2, 0, 3, 0, 2, 3, 4, 0,
            3, 3, 3, 0, 1, 3, 2, 1, 3, 0, 3, 3, 1, 3, 3, 0,
            3, 3, 1, 2, 3, 0, 4, 4, 0, 0, 0, 3, 5, 4, 0, 1,
        ];
        #[rustfmt::skip]
        const MERGED: [usize; 64] = [
            0, 1, 3, 1, 2, 4, 1, 0, 2, 2, 1, 3, 1, 2, 0, 2,
            3, 2, 3, 0, 2, 3, 2, 3, 2, 0, 3, 0, 2, 3, 4, 0,
            3, 3, 3, 0, 1, 3, 2, 1, 3, 0, 3, 3, 1, 3, 3, 0,
            3, 3, 1, 2, 3, 0, 4, 4, 0, 0, 0, 3, 4, 4, 0, 1,
        ];
        let fresh = ShardTopology::fresh(4);
        let (split_0, child) = fresh.split(0).unwrap();
        let (split_4, grandchild) = split_0.split(child).unwrap();
        let (merged, _) = split_4.merge(grandchild).expect("the grandchild is a last live child");
        assert_eq!((child, grandchild), (4, 5));
        let keys = pinned_keys();
        for (name, topology, pin) in [
            ("fresh", &fresh, &FRESH),
            ("split(0)", &split_0, &SPLIT_0),
            ("split(4)", &split_4, &SPLIT_4),
            ("merge(5)", &merged, &MERGED),
        ] {
            let got: Vec<usize> = keys.iter().map(|k| topology.shard_of(k)).collect();
            assert_eq!(got, pin, "placement moved on the {name} topology");
        }
    }

    #[test]
    fn active_shards_skips_idle_ones() {
        let t = ShardTopology::fresh(4);
        let plan = t.plan(vec![StoreOp::Put("only".into(), 1)]);
        let active: Vec<usize> = plan.active_shards().collect();
        assert_eq!(active.len(), 1);
        assert_eq!(active[0], t.shard_of("only"));
    }
}
