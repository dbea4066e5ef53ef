//! Single-writer slots, read under the readers' own hazard pointers.

use std::cell::UnsafeCell;
use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use apc_progress_macros::progress;

/// Hands every [`HazardSlots`] a number of its own, stamped on its claims.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Up to 64 single-writer registers of boxed values, each rewritten by its
/// owner under concurrent readers, with no epoch and no lock: a reader
/// protects the value it reads with a hazard pointer of its own, and a
/// writer frees a value it displaced as soon as no hazard holds it.
///
/// A [`SlotClaim`] is the right to write some slots and to read under one
/// hazard; [`HazardSlots::claim`] hands out each slot once, and a store or
/// read takes the claim by `&mut`, so a slot has one writer and a hazard
/// one reader at a time.
///
/// * [`HazardSlots::store`] boxes the value, swaps it in, and frees every
///   value it displaced — this one and earlier ones a hazard still held at
///   its last store — that no hazard holds now. At most one value per
///   hazard is held at a time, so a slot's owner keeps at most `n`
///   displaced values waiting, and a store scans at most `n + 1` of them
///   against `n` hazards.
/// * [`HazardSlots::read`] loads the slot, publishes the pointer as its
///   hazard, and loads the slot **once** more: if it still holds that
///   pointer, no store can free the value until the hazard is cleared, and
///   the reader borrows it; if it changed, the reader gets `None`, as for
///   `⊥`. A read never waits for a writer, so it may miss a store that
///   overlaps it — it sees neither the old value nor the new one.
///
/// It is the universal construction's announcement array: a process
/// announces its next operation only after its previous one was applied,
/// so a helper that misses an overlapping announcement missed an operation
/// announced after its own step began.
///
/// # Examples
///
/// ```
/// use apc_registers::HazardSlots;
///
/// let slots: HazardSlots<String> = HazardSlots::new(2);
/// let mut writer = slots.claim(&[0]).unwrap();
/// let mut reader = slots.claim(&[1]).unwrap();
/// assert!(slots.claim(&[1, 0]).is_err());
/// slots.store(&mut writer, 0, "first".to_owned());
/// slots.store(&mut writer, 0, "second".to_owned());
/// assert_eq!(slots.read(&mut reader, 0, |v| v.cloned()), Some("second".to_owned()));
/// assert_eq!(slots.read(&mut reader, 1, |v| v.cloned()), None);
/// ```
pub struct HazardSlots<T> {
    slots: Box<[Slot<T>]>,
    /// Bit `i` is set once slot `i` is claimed; it is never cleared.
    claimed: AtomicU64,
    /// Stamped on every claim this register hands out.
    id: u64,
}

/// One slot: its owner's value, and the hazard of the reader whose claim
/// names this slot first.
struct Slot<T> {
    value: AtomicPtr<T>,
    hazard: AtomicPtr<T>,
    /// Values displaced from `value` that a hazard held at the owner's last
    /// store. Touched only through the slot's claim.
    displaced: UnsafeCell<Vec<*mut T>>,
}

/// The right to write a set of slots of one [`HazardSlots`], and to read
/// its slots under the hazard of the first slot claimed.
#[derive(Debug)]
pub struct SlotClaim {
    /// The register that handed the claim out.
    id: u64,
    /// Bit `i` for every slot this claim writes.
    writes: u64,
    /// The slot whose hazard this claim reads under.
    reader: usize,
}

// SAFETY: `value` and `hazard` are atomics. `displaced` is touched only by
// a store through the slot's one claim, taken by `&mut`, so never by two
// threads at once. Through a shared register every reader borrows values
// (`T: Sync`), and a value boxed on one thread is freed by whichever
// thread stores over it or drops the register (`T: Send`).
unsafe impl<T: Send + Sync> Sync for HazardSlots<T> {}
// SAFETY: the register owns its boxed values and displaced pointers; moving
// it moves that ownership (`T: Send`).
unsafe impl<T: Send> Send for HazardSlots<T> {}

impl<T> HazardSlots<T> {
    /// `n` empty (`⊥`) slots, none claimed.
    ///
    /// # Panics
    ///
    /// If `n > 64`.
    pub fn new(n: usize) -> Self {
        assert!(n <= 64, "at most 64 slots");
        let slots = (0..n)
            .map(|_| Slot {
                value: AtomicPtr::new(ptr::null_mut()),
                hazard: AtomicPtr::new(ptr::null_mut()),
                displaced: UnsafeCell::new(Vec::new()),
            })
            .collect();
        // RELAXED: the counter only has to hand out distinct numbers.
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        HazardSlots { slots, claimed: AtomicU64::new(0), id }
    }

    /// Claims `slots` for one owner, all or none: the claim writes each of
    /// them and reads under the hazard of the first.
    ///
    /// # Errors
    ///
    /// The first of `slots` already claimed; nothing is claimed then.
    ///
    /// # Panics
    ///
    /// If `slots` is empty or names a slot the register does not have.
    pub fn claim(&self, slots: &[usize]) -> Result<SlotClaim, usize> {
        assert!(!slots.is_empty() && slots.iter().all(|&s| s < self.slots.len()), "no such slot");
        let writes = slots.iter().fold(0u64, |bits, &s| bits | 1 << s);
        match self.claimed.fetch_update(Ordering::AcqRel, Ordering::Acquire, |held| {
            (held & writes == 0).then_some(held | writes)
        }) {
            Ok(_) => Ok(SlotClaim { id: self.id, writes, reader: slots[0] }),
            Err(held) => Err(slots.iter().copied().find(|&s| held & 1 << s != 0).unwrap_or(0)),
        }
    }

    /// Stores `value` in `slot`, which `claim` writes, and frees every
    /// value displaced from it that no hazard holds.
    ///
    /// # Panics
    ///
    /// If `claim` is another register's, or does not write `slot`.
    #[progress(wait_free)]
    pub fn store(&self, claim: &mut SlotClaim, slot: usize, value: T) {
        assert!(claim.id == self.id && claim.writes & 1 << slot != 0, "not this slot's claim");
        let s = &self.slots[slot];
        // SeqCst, here and on both sides of a read's hazard: either this
        // swap precedes the reader's second load, which then sees the new
        // pointer and backs off, or the reader's hazard store precedes the
        // scan below, which then sees it.
        let old = s.value.swap(Box::into_raw(Box::new(value)), Ordering::SeqCst);
        // SAFETY: `displaced` is touched only through the claim that writes
        // this slot, which is unique (`claim` hands each slot out once and
        // the id check above rules out another register's) and borrowed
        // mutably here.
        let displaced = unsafe { &mut *s.displaced.get() };
        if !displaced.is_empty() {
            self.retire(displaced);
        }
        if !old.is_null() {
            if self.held(old) {
                displaced.push(old);
            } else {
                // SAFETY: `old` came from `Box::into_raw` in a store, the
                // swap took it out of the slot so no new reader can reach
                // it, and no hazard holds it: nobody borrows it.
                drop(unsafe { Box::from_raw(old) });
            }
        }
    }

    /// Frees every pointer in `displaced` that no hazard holds, keeping the
    /// rest. Each leaves the list before it is freed, so a value whose drop
    /// panics is never freed twice.
    #[progress(wait_free)]
    fn retire(&self, displaced: &mut Vec<*mut T>) {
        let mut i = 0;
        while i < displaced.len() {
            if self.held(displaced[i]) {
                i += 1;
            } else {
                let old = displaced.swap_remove(i);
                // SAFETY: as in `store`: displaced, and no hazard holds it.
                drop(unsafe { Box::from_raw(old) });
            }
        }
    }

    /// Whether any reader's hazard holds `old`: one load per slot.
    fn held(&self, old: *mut T) -> bool {
        self.slots.iter().any(|s| s.hazard.load(Ordering::SeqCst) == old)
    }

    /// Reads `slot` under `claim`'s hazard: `f` borrows its value, or gets
    /// `None` if the slot is `⊥` or was stored over during the read.
    ///
    /// # Panics
    ///
    /// If `claim` is another register's.
    #[progress(wait_free)]
    pub fn read<R>(
        &self,
        claim: &mut SlotClaim,
        slot: usize,
        f: impl FnOnce(Option<&T>) -> R,
    ) -> R {
        assert!(claim.id == self.id, "another register's claim");
        let seen = self.slots[slot].value.load(Ordering::Acquire);
        self.read_seen(claim, slot, seen, f)
    }

    /// The rest of a read of `slot` whose first load saw `seen`: publish
    /// it as `claim`'s hazard, load the slot once more, and lend the value
    /// out only if the slot still holds it.
    fn read_seen<R>(
        &self,
        claim: &SlotClaim,
        slot: usize,
        seen: *mut T,
        f: impl FnOnce(Option<&T>) -> R,
    ) -> R {
        let value = &self.slots[slot].value;
        let hazard = &self.slots[claim.reader].hazard;
        if seen.is_null() {
            return f(None);
        }
        hazard.store(seen, Ordering::SeqCst);
        let out = if value.load(Ordering::SeqCst) == seen {
            // SAFETY: `seen` is a store's `Box::into_raw`, built before its
            // release (acquired above). The hazard was published before the
            // slot still held `seen`, so a displacing store's scan sees it;
            // it is cleared only after `f`, which the borrow cannot escape.
            let value = unsafe { &*seen };
            f(Some(value))
        } else {
            f(None)
        };
        // Release: a store that sees the hazard gone frees the value only
        // after `f`'s last access.
        hazard.store(ptr::null_mut(), Ordering::Release);
        out
    }
}

impl<T> Drop for HazardSlots<T> {
    fn drop(&mut self) {
        for s in self.slots.iter_mut() {
            let value = *s.value.get_mut();
            let displaced = s.displaced.get_mut().drain(..);
            for owned in displaced.chain((!value.is_null()).then_some(value)) {
                // SAFETY: `&mut self` excludes every reader and writer, and
                // each pointer — the slot's value, or one displaced from it
                // and not yet freed — came from `Box::into_raw` in a store
                // and is owned by the register alone.
                drop(unsafe { Box::from_raw(owned) });
            }
        }
    }
}

impl<T> fmt::Debug for HazardSlots<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HazardSlots")
            .field("len", &self.slots.len())
            .field("claimed", &format_args!("{:#x}", self.claimed.load(Ordering::Acquire)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier};

    /// A payload that counts its drops and knows whether it was dropped.
    struct Canary {
        seq: AtomicU64,
        alive: AtomicU64,
        drops: Arc<AtomicUsize>,
    }

    const ALIVE: u64 = 0xA11C_E5A1_1CE5_A11C;

    impl Canary {
        fn new(seq: u64, drops: &Arc<AtomicUsize>) -> Self {
            Canary {
                seq: AtomicU64::new(seq),
                alive: AtomicU64::new(ALIVE),
                drops: Arc::clone(drops),
            }
        }

        fn check(&self) -> u64 {
            assert_eq!(self.alive.load(Ordering::SeqCst), ALIVE, "a reader saw a dropped canary");
            self.seq.load(Ordering::SeqCst)
        }

        /// Reads the canary over and over, as a reader that holds it does:
        /// one freed under the reader dies, or is rebuilt as another.
        fn hold(&self) -> u64 {
            let seq = self.check();
            for _ in 0..64 {
                assert_eq!(self.check(), seq, "a borrowed value changed under its reader");
            }
            seq
        }
    }

    impl Drop for Canary {
        fn drop(&mut self) {
            self.check();
            self.alive.store(0, Ordering::SeqCst);
            self.seq.store(u64::MAX, Ordering::SeqCst);
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_slot_reads_what_its_owner_stored_last() {
        let drops = Arc::new(AtomicUsize::new(0));
        let slots = HazardSlots::new(3);
        let mut owner = slots.claim(&[0, 2]).unwrap();
        let mut reader = slots.claim(&[1]).unwrap();
        let read = |slots: &HazardSlots<Canary>, claim: &mut SlotClaim, slot| {
            slots.read(claim, slot, |v| v.map(Canary::check))
        };
        assert_eq!(read(&slots, &mut reader, 0), None);
        for seq in 1..=5 {
            slots.store(&mut owner, 0, Canary::new(seq, &drops));
            assert_eq!(read(&slots, &mut reader, 0), Some(seq));
            // The owner reads its own slot under its own hazard.
            assert_eq!(read(&slots, &mut owner, 0), Some(seq));
            // A displaced value nobody holds is freed by the store itself.
            assert_eq!(drops.load(Ordering::SeqCst), seq as usize - 1);
        }
        slots.store(&mut owner, 2, Canary::new(9, &drops));
        assert_eq!(read(&slots, &mut reader, 2), Some(9));
        assert_eq!(read(&slots, &mut reader, 1), None);
        drop(slots);
        assert_eq!(drops.load(Ordering::SeqCst), 6, "the register frees what it holds");
    }

    #[test]
    fn a_slot_is_claimed_once_and_all_or_none() {
        let slots: HazardSlots<u8> = HazardSlots::new(4);
        let _a = slots.claim(&[1]).unwrap();
        assert_eq!(slots.claim(&[2, 1]).unwrap_err(), 1);
        // The failed claim took nothing: slot 2 is still free.
        let mut b = slots.claim(&[2]).unwrap();
        assert_eq!(slots.claim(&[3, 2]).unwrap_err(), 2);
        slots.store(&mut b, 2, 7);
        assert_eq!(slots.read(&mut b, 2, |v| v.copied()), Some(7));
    }

    #[test]
    #[should_panic(expected = "not this slot's claim")]
    fn a_claim_writes_only_its_own_slots() {
        let slots: HazardSlots<u8> = HazardSlots::new(2);
        let mut claim = slots.claim(&[0]).unwrap();
        slots.store(&mut claim, 1, 0);
    }

    #[test]
    #[should_panic(expected = "not this slot's claim")]
    fn a_claim_writes_only_its_own_registers_slots() {
        let (first, second): (HazardSlots<u8>, HazardSlots<u8>) =
            (HazardSlots::new(1), HazardSlots::new(1));
        let mut claim = first.claim(&[0]).unwrap();
        second.store(&mut claim, 0, 0);
    }

    #[test]
    fn a_value_held_by_a_hazard_waits_for_a_later_store() {
        let drops = Arc::new(AtomicUsize::new(0));
        let slots = HazardSlots::new(2);
        let mut owner = slots.claim(&[0]).unwrap();
        let mut reader = slots.claim(&[1]).unwrap();
        slots.store(&mut owner, 0, Canary::new(1, &drops));
        slots.read(&mut reader, 0, |v| {
            let held = v.unwrap();
            // Two stores displace the value the reader borrows: neither
            // frees it, and the value between them is freed at once.
            slots.store(&mut owner, 0, Canary::new(2, &drops));
            slots.store(&mut owner, 0, Canary::new(3, &drops));
            assert_eq!(held.check(), 1);
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        });
        // The hazard is gone: the next store frees the held value too.
        slots.store(&mut owner, 0, Canary::new(4, &drops));
        assert_eq!(drops.load(Ordering::SeqCst), 3);
        drop(slots);
        assert_eq!(drops.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn a_read_that_overlaps_a_store_sees_neither_value() {
        // The read's first load sees canary 1, then a store displaces it
        // before the hazard is up — nothing holds it, so the store frees
        // it — and the read's second load finds the slot changed: it lends
        // out nothing, neither the freed value nor the new one.
        let drops = Arc::new(AtomicUsize::new(0));
        let slots = HazardSlots::new(2);
        let mut owner = slots.claim(&[0]).unwrap();
        let reader = slots.claim(&[1]).unwrap();
        slots.store(&mut owner, 0, Canary::new(1, &drops));
        let seen = slots.slots[0].value.load(Ordering::Acquire);
        slots.store(&mut owner, 0, Canary::new(2, &drops));
        assert_eq!(drops.load(Ordering::SeqCst), 1, "the displaced canary was freed");
        assert_eq!(slots.read_seen(&reader, 0, seen, |v| v.map(Canary::check)), None);
        assert!(slots.slots[1].hazard.load(Ordering::SeqCst).is_null(), "the hazard stayed up");
        assert!(slots.read_seen(&reader, 0, ptr::null_mut(), |v| v.is_none()));
    }

    #[test]
    fn racing_owners_and_readers_drop_every_value_once_and_read_none_dropped() {
        // Three owners rewrite their slots while three readers read every
        // slot: no reader may see a dropped canary, a slot never reads
        // backwards for one reader, and every value stored is dropped
        // exactly once — by a store or by the register.
        const OWNERS: usize = 3;
        const READERS: usize = 3;
        const STORES: u64 = 3_000;
        let drops = Arc::new(AtomicUsize::new(0));
        let mut slots = HazardSlots::new(OWNERS + READERS);
        let claims: Vec<SlotClaim> =
            (0..OWNERS + READERS).map(|i| slots.claim(&[i]).unwrap()).collect();
        let barrier = Barrier::new(OWNERS + READERS);
        std::thread::scope(|s| {
            for (i, mut claim) in claims.into_iter().enumerate() {
                let (slots, drops, barrier) = (&slots, &drops, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    if i < OWNERS {
                        for seq in 1..=STORES {
                            slots.store(&mut claim, i, Canary::new(seq, drops));
                        }
                    } else {
                        let mut last = [0u64; OWNERS];
                        for round in 0..STORES as usize * 2 {
                            let slot = round % OWNERS;
                            if let Some(seq) = slots.read(&mut claim, slot, |v| v.map(Canary::hold))
                            {
                                assert!(seq >= last[slot], "slot {slot} read backwards");
                                last[slot] = seq;
                            }
                        }
                    }
                });
            }
        });
        let stored = OWNERS * STORES as usize;
        // Every displaced value is freed by now or waits in a list: only a
        // value a hazard held at its owner's last store can still wait.
        let waiting: usize =
            slots.slots.iter_mut().map(|s| s.displaced.get_mut().len()).sum::<usize>();
        assert!(waiting <= OWNERS * READERS, "{waiting} displaced values still wait");
        assert_eq!(drops.load(Ordering::SeqCst), stored - OWNERS - waiting);
        drop(slots);
        assert_eq!(drops.load(Ordering::SeqCst), stored, "a value was dropped twice or leaked");
    }
}
