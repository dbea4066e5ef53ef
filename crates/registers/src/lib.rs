//! # `apc-registers` — lock-free atomic register substrate
//!
//! The real-thread counterpart of the paper's "atomic read/write registers":
//! linearizable multi-writer multi-reader registers for arbitrary Rust
//! values, built on `AtomicPtr` with
//! [crossbeam-epoch](https://docs.rs/crossbeam-epoch) deferred reclamation,
//! and an allocation-free register for small values:
//!
//! * [`AtomicCell`] — an MWMR atomic register over `Option<T>` (a null
//!   pointer is the paper's `⊥`), with `load`/`store`/`swap` and the
//!   decision-slot primitive `set_if_bot` (compare-and-swap from `⊥`). The
//!   consensus objects' decision slots, adopt-commit's registers and the
//!   universal construction's log links are all `AtomicCell`s.
//! * [`PackedRegister`] — an allocation-free register for small values
//!   (`u64` minus one sentinel), for hot paths.
//!
//! All `unsafe` is confined to [`AtomicCell`]'s pointer management;
//! [`PackedRegister`] builds on std atomics.

#![warn(missing_docs)]

mod atomic_cell;
mod packed;

pub use atomic_cell::AtomicCell;
pub use packed::PackedRegister;
