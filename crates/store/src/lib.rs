//! # `apc-store` — a sharded, progress-class-aware object service
//!
//! The service layer that puts the paper's machinery to work for many
//! concurrent clients: an in-memory, sharded key→value store whose clients
//! are admitted into **asymmetric progress classes** — a bounded wait-free
//! VIP tier and an unbounded obstruction-free guest tier — over
//! `apc-universal`'s `(y,x)`-live universal construction.
//!
//! The layers:
//!
//! * [`admission`] — registers clients into the per-shard
//!   [`Liveness`](apc_core::liveness::Liveness) spec: VIPs own wait-free
//!   ports exclusively (capacity `x`, admission fails beyond it — hard
//!   guarantees are bounded, per Theorem 3), guests are unbounded and
//!   multiplex round-robin onto the guest ports;
//! * [`router`] — rendezvous-hashes keys over a **versioned shard
//!   topology** (HRW at the roots, pairwise HRW down the split tree,
//!   tombstones skipped) and plans client batches into at most one log
//!   append per live shard, merging broadcast scans; the topology is
//!   **elastic in both directions**:
//!   [`Store::split_shard`](store::Store::split_shard) grows it live
//!   and [`Store::merge_shard`](store::Store::merge_shard) retires a
//!   cold child back into its parent. Both move keys with one sealed
//!   log command, a [`DrainSpec`] through the source shard's own log (a
//!   merge then adopts the drained keys through the parent's), and both
//!   are judged by the topology and refused with one [`ReconfigError`].
//!   [`Store::rebalance`](store::Store::rebalance)
//!   lets the owner delegate the choice to the policy engine
//!   ([`elastic`]): split on sustained total-share skew, merge faded
//!   children back, hysteresis + cool-down against thrash;
//! * [`ops`] + [`store`] — read/write/CAS/scan operations, same-shard
//!   batching into single universal-construction appends, and wait-free
//!   statistics from three single-writer digest words per port (replay
//!   cursor, key count and replay meter) for the VIP dashboard path;
//! * [`keymap`] — the ordered map every shard replica is: sorted leaves
//!   behind one fence index with a top index over it, each searched by
//!   counting over a contiguous array of 8-byte key heads;
//! * [`frame`] — the byte format under the snapshot, the WAL and the
//!   `apc-net` wire codec: one checksummed frame shape, the little-endian
//!   primitives, and one bounds-checked cursor.
//!
//! The [`persist`] layer makes the store crash-recoverable: a flush seals a
//! **checkpoint cell** on every shard log (agreed through the same
//! consensus path as client batches), writes the sealed states as a
//! versioned, checksummed snapshot file, one seal cycle per flush call
//! (the [`wal`] is the one group commit), and
//! [`StoreBuilder::recover`] rebuilds the store with every shard log resuming
//! at its checkpointed index — boot-time replay is O(delta), never
//! O(history).
//!
//! The [`model`] module re-expresses the shard commit path as an
//! `apc-model` program so small instances can be *exhaustively* checked:
//! commit safety on every schedule (including a seal — a checkpoint or a
//! drain, which place alike — racing concurrent VIP/guest
//! commits), termination of every fair VIP schedule, and a positive
//! livelock witness for guest-only schedules — the asymmetric liveness
//! claim, machine-checked.
//!
//! ## Example
//!
//! ```
//! use apc_store::{StoreBuilder, StoreOp, StoreResp};
//!
//! let store = StoreBuilder::new().shards(2).vip_capacity(1).build().unwrap();
//!
//! // The wait-free tier is bounded…
//! let vip = store.admit_vip().unwrap();
//! assert!(store.admit_vip().is_err());
//! // …the obstruction-free tier is not.
//! let guest = store.admit_guest();
//!
//! let mut v = store.client(vip);
//! let mut g = store.client(guest);
//! v.put("user/1", 10);
//! g.put("user/2", 20);
//!
//! // Same-shard ops batch into one consensus-backed append per shard.
//! let resps = v.execute(vec![
//!     StoreOp::Get("user/1".into()),
//!     StoreOp::Cas { key: "user/2".into(), expect: Some(20), new: 21 },
//! ]);
//! assert_eq!(resps[0], Ok(StoreResp::Value(Some(10))));
//! assert_eq!(resps[1], Ok(StoreResp::Cas { ok: true, actual: Some(20) }));
//!
//! // Wait-free store-wide stats (never touches the consensus log).
//! let digests = store.snapshot_stats();
//! assert_eq!(digests.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod api;
pub mod elastic;
pub mod frame;
pub mod keymap;
pub mod metrics;
pub mod model;
pub mod ops;
pub mod persist;
mod replan;
pub mod router;
pub mod store;
pub mod wal;

pub use admission::{Admission, AdmissionConfig, AdmissionError, ClientTicket, ProgressClass};
pub use apc_obs::{
    encode_prometheus, Counter, FixedHistogram, Gauge, HistogramSnapshot, MetricsSnapshot, Sample,
    SampleValue,
};
pub use api::{Request, Response, StoreError, TierCredential, UNBOUNDED_RETRIES};
pub use elastic::{ElasticDecision, ElasticEngine, ElasticReport, ElasticityPolicy};
pub use keymap::KeyMap;
pub use ops::{
    apply_op, key_from, read_op, read_sub_batch, AdoptSpec, Batch, DrainSpec, Key, OpRef,
    PackedBatch, PackedOps, ShardCmd, ShardSpec, ShardState, StoreOp, StoreResp,
};
pub use persist::{PersistError, Persister, RecoverError, ShardSnapshot, StoreSnapshot};
pub use replan::Responses;
pub use router::{
    BatchPlan, BatchReassembly, ReconfigError, ShardTopology, TopoNode, TopoRecord, TopologyError,
};
pub use store::{
    Client, SealCadence, ShardDigest, ShardLog, Store, StoreBuilder, SEAL_EVERY, SEAL_PERIOD,
};
pub use wal::{DurabilityClass, Wal, WalConfig, WalFrame, WalRecovery};
