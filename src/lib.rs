//! # `asymmetric-progress` — facade crate
//!
//! A comprehensive Rust implementation of
//! *On Asymmetric Progress Conditions* (Damien Imbs, Michel Raynal,
//! Gadi Taubenfeld, PODC 2010): `(y,x)`-live objects, the arbiter object
//! type, group-based asymmetric consensus, the `(n,x)`-liveness hierarchy,
//! and the simulation/model-checking substrate used to reproduce the paper's
//! theorems.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`model`] — simulated asynchronous shared memory, schedulers, the
//!   exhaustive explorer, valence analysis, fairness/livelock analysis and
//!   non-termination certificates.
//! * [`registers`] — real lock-free atomic register substrate
//!   (set-once boxes and links, count-freed scaffolds, hazard-pointer
//!   slots, packed `u64` registers).
//! * [`core`] — the paper's contribution: liveness specifications,
//!   asymmetric consensus objects, the arbiter (Figure 4) and group-based
//!   asymmetric consensus (Figure 5), in both real-thread and model form.
//! * [`common2`] — Common2 objects (§3.5): Test&Set, Fetch&Add, Swap.
//! * [`universal`] — Herlihy's universal construction driven by symmetric or
//!   asymmetric consensus.
//! * [`hierarchy`] — executable theorem machinery for Theorems 1–4 and the
//!   `(n,x)`-liveness hierarchy (Corollary 1).
//! * [`store`] — the service layer: a sharded, linearizable-per-shard
//!   key→value store whose clients are admitted into asymmetric progress
//!   classes (bounded wait-free VIP tier, unbounded obstruction-free guest
//!   tier), built on the universal construction, with checkpoint-sealed
//!   crash-recoverable persistence (`store::persist`).
//! * [`net`] — the wire-protocol front-end: a length-prefixed binary codec
//!   for the store's unified `Request`/`Response` envelope, simulated
//!   connections, and a single-threaded reactor that preserves the
//!   asymmetric tiers across the network boundary (VIP dispatch stays
//!   bounded wait-free; guest overload sheds as typed backpressure).
//!
//! ## Quickstart
//!
//! Solve consensus among 6 threads where threads 0 and 1 are guaranteed
//! wait-freedom and the rest obstruction-freedom:
//!
//! ```
//! use asymmetric_progress::core::consensus::{AsymmetricConsensus, Consensus};
//! use asymmetric_progress::core::liveness::Liveness;
//!
//! let spec = Liveness::new_first_n(6, 2); // (6,2)-live: ports {0..5}, wait-free {0,1}
//! let cons: AsymmetricConsensus<u64> = AsymmetricConsensus::new(spec);
//! std::thread::scope(|s| {
//!     for t in 0..6u64 {
//!         let cons = &cons;
//!         s.spawn(move || {
//!             let decided = cons.propose(t as usize, t * 10).unwrap();
//!             assert!(decided % 10 == 0);
//!         });
//!     }
//! });
//! ```

pub use apc_common2 as common2;
pub use apc_core as core;
pub use apc_hierarchy as hierarchy;
pub use apc_model as model;
pub use apc_net as net;
pub use apc_registers as registers;
pub use apc_store as store;
pub use apc_universal as universal;
