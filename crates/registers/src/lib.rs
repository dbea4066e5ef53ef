//! # `apc-registers` — lock-free atomic register substrate
//!
//! The real-thread counterpart of the paper's "atomic read/write registers":
//! linearizable multi-writer multi-reader registers for arbitrary Rust
//! values, built on `AtomicPtr` with
//! [crossbeam-epoch](https://docs.rs/crossbeam-epoch) deferred reclamation,
//! a set-once link, and an allocation-free register for small values:
//!
//! * [`AtomicCell`] — an MWMR atomic register over `Option<T>` (a null
//!   pointer is the paper's `⊥`), with `load`/`store`/`swap` and the
//!   decision-slot primitive `set_if_bot` (compare-and-swap from `⊥`). The
//!   consensus objects' decision slots and adopt-commit's registers are
//!   `AtomicCell`s.
//! * [`OnceArc`] — a set-once link to an `Arc<T>`, installed by a
//!   CAS-from-`⊥` and never replaced while shared, so it needs no epoch and
//!   no box. The universal construction's log links its segments with it.
//! * [`PackedRegister`] — an allocation-free register for small values
//!   (`u64` minus one sentinel), for hot paths.
//!
//! All `unsafe` is confined to [`AtomicCell`]'s and [`OnceArc`]'s pointer
//! management; [`PackedRegister`] builds on std atomics.

#![warn(missing_docs)]

mod atomic_cell;
mod once_arc;
mod packed;

pub use atomic_cell::AtomicCell;
pub use once_arc::OnceArc;
pub use packed::PackedRegister;
