//! # `apc-universal` — what consensus buys you
//!
//! Herlihy's universality theorem (reference \[7\] of the paper) says any
//! object with a sequential specification has a wait-free implementation
//! from consensus objects and registers. This crate implements that
//! construction and — the novel twist enabled by *asymmetric progress
//! conditions* — parameterizes it by the **consensus factory**:
//!
//! * plug in wait-free (`CasConsensus`) cells → the classic wait-free
//!   universal object;
//! * plug in `(n,x)`-live (`AsymmetricConsensus`) cells → an `(n,x)`-live
//!   universal object: operations by the `x` privileged processes are
//!   wait-free, everyone else is obstruction-free. This is the constructive
//!   reading of the paper's hierarchy (Theorem 3): `x+1` matters because it
//!   bounds which *groups of processes* can be given hard guarantees.
//!
//! The construction is the standard announce-and-help log: operations are
//! placed into a list of cells, allocated and linked 64 at a time, each
//! cell's order decided by one consensus instance; helping (cell `k` prefers the announcement of
//! process `k mod n`) makes placement wait-free whenever the cell consensus
//! is. There is **one handle type** ([`OwnedHandle`], one per process, or
//! one per pair of processes one owner runs in turn:
//! [`Universal::owned_pair`]) and
//! **one walk** of that log: every public operation decides the cell at the
//! handle's cursor and absorbs the agreed record in the same single step,
//! and the operations differ only in what they propose and when they stop.
//!
//! The log additionally supports **seal cells** ([`SealRecord`]): any port
//! can seal its fully-replayed state through the same consensus path, after
//! which fresh handles bootstrap from the sealed state and replay only the
//! suffix after it (O(delta) instead of O(history)), the retired prefix
//! becomes reclaimable, and a persistence layer can rebuild the object from
//! a durable snapshot via [`Universal::recovered`]. A seal without an
//! operation is a checkpoint ([`OwnedHandle::checkpoint`]); a seal with one
//! is a reconfiguration ([`OwnedHandle::reconfigure`]), so a service layer
//! can linearize a live reconfiguration (e.g. a shard-topology bump) against
//! concurrent operations in one agreed cell.
//!
//! ## Example
//!
//! ```
//! use apc_universal::{seq::Counter, Universal, CasFactory};
//! use apc_core::liveness::Liveness;
//! use std::sync::Arc;
//!
//! let obj = Arc::new(Universal::new(Counter, CasFactory::new(Liveness::new_first_n(2, 2)), 2));
//! let mut h0 = obj.owned_handle(0).unwrap();
//! let mut h1 = obj.owned_handle(1).unwrap();
//! h0.apply(apc_universal::seq::CounterOp::Add(2));
//! h1.apply(apc_universal::seq::CounterOp::Add(3));
//! assert_eq!(h1.apply(apc_universal::seq::CounterOp::Get), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod seq;

mod factory;
mod herlihy;

pub use factory::{AsymmetricFactory, CasFactory, ConsensusFactory};
pub use herlihy::{
    Displaced, LogRecord, LogRecordOf, OpRecord, OwnedHandle, SealRecord, Universal, UniversalError,
};
