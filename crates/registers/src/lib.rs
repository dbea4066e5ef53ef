//! # `apc-registers` — lock-free atomic register substrate
//!
//! The real-thread counterpart of the paper's "atomic read/write registers":
//! linearizable multi-writer multi-reader registers for arbitrary Rust
//! values, built on `AtomicPtr` with
//! [crossbeam-epoch](https://docs.rs/crossbeam-epoch) deferred reclamation,
//! three registers that never free a value under a reader and so need no
//! epoch, and an allocation-free register for small values:
//!
//! * [`AtomicCell`] — an MWMR atomic register over `Option<T>` (a null
//!   pointer is the paper's `⊥`), with `load`/`store`/`swap` and a
//!   compare-and-swap from `⊥` (`set_if_bot`). It is for registers
//!   rewritten while readers may hold the old value, and two are left: the
//!   universal construction's announcements, and the guests' round 0 of a
//!   consensus cell (cleared when the rounds are retired).
//! * [`OnceBox`] — a set-once box, installed by a CAS-from-`⊥` and never
//!   replaced while shared, so a read borrows the value with one load and
//!   no epoch pin. The consensus objects' decision slots are `OnceBox`es,
//!   and so is every register written at most once, or only ever with one
//!   value: adopt-commit's, the Common2 constructions' and the group
//!   consensus's `VAL`/`ARB_VAL`.
//! * [`OnceArc`] — a set-once link to an `Arc<T>`, installed and read the
//!   same way, with no box of its own. The universal construction's log
//!   links its segments with it, and a guest's round 0 its later rounds.
//! * [`Generations`] — a register that keeps every value it is given, so
//!   a read borrows the newest with one load and no epoch pin. The store's
//!   routing view is one; it changes once per reconfiguration.
//! * [`PackedRegister`] — an allocation-free register for small values
//!   (`u64` minus one sentinel), for hot paths.
//!
//! All `unsafe` is confined to [`AtomicCell`]'s, [`OnceBox`]'s,
//! [`OnceArc`]'s and [`Generations`]' pointer management;
//! [`PackedRegister`] builds on std atomics.

#![warn(missing_docs)]

mod atomic_cell;
mod generations;
mod once_arc;
mod once_box;
mod packed;

pub use atomic_cell::AtomicCell;
pub use generations::Generations;
pub use once_arc::OnceArc;
pub use once_box::OnceBox;
pub use packed::PackedRegister;
