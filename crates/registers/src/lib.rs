//! # `apc-registers` — lock-free atomic register substrate
//!
//! The real-thread counterpart of the paper's "atomic read/write registers":
//! registers for arbitrary Rust values, built on `AtomicPtr`
//! and `AtomicU64`, none of which defers a free to an epoch. A value is
//! freed when nobody can read it any more, and each register knows when
//! that is in its own way: never while shared, when the last user counted
//! inside leaves, or when no reader's hazard pointer holds it.
//!
//! * [`OnceBox`] — a set-once box, installed by a CAS-from-`⊥` and never
//!   replaced while shared, so a read borrows the value with one load. The
//!   consensus objects' decision slots are `OnceBox`es, and so is every
//!   register written at most once, or only ever with one value:
//!   adopt-commit's proposals, the Common2 constructions' and the group
//!   consensus's `VAL`/`ARB_VAL`.
//! * [`OnceArc`] — a set-once link to an `Arc<T>`, installed and read the
//!   same way, with no box of its own. The universal construction's log
//!   links its segments with it, and a guest's round 0 its later rounds.
//! * [`Generations`] — a register that keeps every value it is given, so
//!   a read borrows the newest with one load. The store's routing view is
//!   one; it changes once per reconfiguration.
//! * [`Scaffold`] — a value built by the first user to enter and freed by
//!   the last to leave once the work is done, all in one `AtomicU64` (the
//!   value's 48-bit address, the count inside, a terminal `FREED` bit). A
//!   consensus cell's guest round 0 is one: the guests inside hold it, and
//!   the last of them out frees it once the cell is decided.
//! * [`HazardSlots`] — single-writer slots rewritten under readers: a
//!   reader borrows a value under a hazard pointer of its own, and the
//!   owner frees what it displaced once no hazard holds it. The universal
//!   construction's announcements are one.
//! * [`PackedRegister`] — an allocation-free register for small values
//!   (`u64` minus one sentinel), for hot paths.
//!
//! All `unsafe` is confined to [`OnceBox`]'s, [`OnceArc`]'s,
//! [`Generations`]', [`Scaffold`]'s and [`HazardSlots`]' pointer
//! management; [`PackedRegister`] builds on std atomics.

#![warn(missing_docs)]

mod generations;
mod hazard_slots;
mod once_arc;
mod once_box;
mod packed;
mod scaffold;

pub use generations::Generations;
pub use hazard_slots::{HazardSlots, SlotClaim};
pub use once_arc::OnceArc;
pub use once_box::OnceBox;
pub use packed::PackedRegister;
pub use scaffold::{Inside, Scaffold};
