//! A set-once box: a decision slot read without an epoch.

use std::fmt;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

use apc_progress_macros::progress;

/// A set-once register holding a boxed `T`: `⊥` until one
/// [`OnceBox::set`] (or [`OnceBox::decide`]) installs a value with a
/// CAS-from-`⊥`, and never changed after that while it is shared.
///
/// It is the decision slot of a single-shot consensus object, and every
/// register written at most once — adopt-commit's, the Common2
/// constructions' — or only ever with one value, as the group
/// consensus's `VAL`/`ARB_VAL` entries are. A value that is never replaced is never retired under a reader, so [`OnceBox::get`]
/// lends it out for as long as the box is borrowed with one `Acquire` load
/// — no epoch pin, no clone — and the box frees it only when dropped, which
/// takes `&mut self`. A [`HazardSlots`](crate::HazardSlots) reader
/// publishes a hazard pointer on every read, which a register written many
/// times needs and a decision slot does not; an [`OnceArc`](crate::OnceArc)
/// would put a count header on every value for readers that only borrow.
///
/// Not [`std::sync::OnceLock`]: its `set` parks a concurrent setter until
/// the winner's initialization finishes, so a wait-free proposer could wait
/// on a guest. Here every call is one load or one CAS, whatever the other
/// callers do.
///
/// # Examples
///
/// ```
/// use apc_registers::OnceBox;
///
/// let slot: OnceBox<String> = OnceBox::new();
/// assert_eq!(slot.get(), None);
/// assert_eq!(slot.set("first".to_owned()), Ok(()));
/// // A losing setter gets its value back; the winner stays.
/// assert_eq!(slot.set("second".to_owned()), Err("second".to_owned()));
/// assert_eq!(slot.decide("third".to_owned()), "first");
/// assert_eq!(slot.get().map(String::as_str), Some("first"));
/// ```
pub struct OnceBox<T> {
    ptr: AtomicPtr<T>,
    /// The box owns the value it holds.
    _owns: PhantomData<Box<T>>,
}

// SAFETY: `ptr` is an atomic, and `_owns` is a marker with no data. Through
// it a shared `OnceBox` lends `&T` to every thread (`T: Sync`), and a value
// installed through `&self` on one thread is dropped by whichever thread
// drops the box (`T: Send`) — the bounds of `std::sync::OnceLock`.
unsafe impl<T: Send + Sync> Sync for OnceBox<T> {}

impl<T> OnceBox<T> {
    /// Creates an empty (`⊥`) box.
    pub const fn new() -> Self {
        OnceBox { ptr: AtomicPtr::new(ptr::null_mut()), _owns: PhantomData }
    }

    /// The installed value, or `None` while the box is `⊥`.
    #[progress(wait_free)]
    pub fn get(&self) -> Option<&T> {
        let ptr = self.ptr.load(Ordering::Acquire);
        // SAFETY: a non-null pointer came from `Box::into_raw` in
        // `install`, and the Acquire load pairs with that CAS's release, so
        // the value is fully built. It is never replaced or freed while the box is
        // shared — only `Drop`, through `&mut self`, frees it — so it lives
        // at least as long as this borrow of `self`.
        unsafe { ptr.as_ref() }
    }

    /// Installs `value` if the box is `⊥`.
    ///
    /// Under a race exactly one setter wins. A box already set is seen by
    /// one load, before anything is allocated.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` — the caller's own value, given back — if the box
    /// was already set.
    #[progress(wait_free)]
    pub fn set(&self, value: T) -> Result<(), T> {
        self.install(value).map(|_| ()).map_err(|(lost, _)| lost)
    }

    /// *Decides* the box: installs `value` if it is `⊥`, and lends out
    /// whatever value it holds afterwards — the winner's. A losing value is
    /// dropped. This is the decision-slot idiom of every consensus object in
    /// `apc-core`: one CAS and one read.
    #[progress(wait_free)]
    pub fn decide(&self, value: T) -> &T {
        match self.install(value) {
            Ok(won) => won,
            Err((_, winner)) => winner,
        }
    }

    /// One read, then — only if the box is `⊥` — one CAS: the installed
    /// value on a win, or the caller's value and the winner's on a loss.
    #[progress(wait_free)]
    pub(crate) fn install(&self, value: T) -> Result<&T, (T, &T)> {
        if let Some(winner) = self.get() {
            return Err((value, winner));
        }
        let new = Box::into_raw(Box::new(value));
        match self.ptr.compare_exchange(ptr::null_mut(), new, Ordering::AcqRel, Ordering::Acquire) {
            // SAFETY: `new` is the box's value now, and lives as long as the
            // borrow of `self`, as in `get`.
            Ok(_) => Ok(unsafe { &*new }),
            // SAFETY: `new` lost the race, so nothing else ever saw it: the
            // box it came from is still ours alone to take back. `winner` is
            // the non-null pointer of the winning `install`, lent out as in
            // `get`.
            Err(winner) => Err(unsafe { (*Box::from_raw(new), &*winner) }),
        }
    }

    /// Moves the value out (leaving `⊥`), for the iterative teardown of a
    /// chain of boxes, whose recursive `Drop` would overflow the stack.
    pub(crate) fn take_box(&mut self) -> Option<Box<T>> {
        let ptr = std::mem::replace(self.ptr.get_mut(), ptr::null_mut());
        // SAFETY: `&mut self` excludes every reader, and a non-null pointer
        // came from `Box::into_raw` in a winning `install`: the box owned it
        // alone and no longer refers to it.
        (!ptr.is_null()).then(|| unsafe { Box::from_raw(ptr) })
    }
}

impl<T> Default for OnceBox<T> {
    fn default() -> Self {
        OnceBox::new()
    }
}

impl<T> Drop for OnceBox<T> {
    fn drop(&mut self) {
        drop(self.take_box());
    }
}

impl<T: fmt::Debug> fmt::Debug for OnceBox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.get() {
            Some(v) => f.debug_tuple("OnceBox").field(v).finish(),
            None => f.debug_tuple("OnceBox").field(&"⊥").finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Barrier};

    /// Counts its drops in a shared counter and carries its setter's id.
    struct Tracked {
        id: usize,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn starts_bot_and_sets_once() {
        let slot: OnceBox<u64> = OnceBox::new();
        assert_eq!(slot.get(), None);
        assert_eq!(slot.set(5), Ok(()));
        assert_eq!(slot.get(), Some(&5));
        assert_eq!(slot.set(6), Err(6));
        assert_eq!(*slot.decide(7), 5);
        assert_eq!(slot.get(), Some(&5));
    }

    #[test]
    fn racing_setters_have_one_winner_and_losers_get_their_own_values_back() {
        const SETTERS: usize = 8;
        for _ in 0..50 {
            let slot: OnceBox<Tracked> = OnceBox::new();
            let drops = Arc::new(AtomicUsize::new(0));
            let barrier = Barrier::new(SETTERS);
            let outcomes: Vec<(usize, Result<(), Tracked>)> = std::thread::scope(|s| {
                let setters: Vec<_> = (0..SETTERS)
                    .map(|id| {
                        let (slot, drops, barrier) = (&slot, &drops, &barrier);
                        s.spawn(move || {
                            let value = Tracked { id, drops: Arc::clone(drops) };
                            barrier.wait();
                            (id, slot.set(value))
                        })
                    })
                    .collect();
                setters.into_iter().map(|t| t.join().unwrap()).collect()
            });
            let winners: Vec<usize> =
                outcomes.iter().filter(|(_, r)| r.is_ok()).map(|(id, _)| *id).collect();
            assert_eq!(winners.len(), 1, "exactly one setter wins");
            assert_eq!(slot.get().map(|v| v.id), Some(winners[0]), "the winner's value is held");
            for (id, outcome) in &outcomes {
                if let Err(lost) = outcome {
                    assert_eq!(lost.id, *id, "a loser gets its own value back");
                }
            }
            assert_eq!(drops.load(Ordering::SeqCst), 0, "the box freed no loser's value");
            drop(outcomes);
            assert_eq!(drops.load(Ordering::SeqCst), SETTERS - 1, "losers own their values");
            drop(slot);
            assert_eq!(drops.load(Ordering::SeqCst), SETTERS, "the box frees its value once");
        }
    }

    #[test]
    fn a_reader_on_another_thread_sees_the_value_fully_built() {
        // The value is large and written field by field before it is
        // installed; a reader spinning on `get` must see every field.
        const LEN: usize = 1024;
        for round in 0..50u64 {
            let slot: OnceBox<Vec<u64>> = OnceBox::new();
            std::thread::scope(|s| {
                let reader = s.spawn(|| loop {
                    if let Some(v) = slot.get() {
                        assert_eq!(v.len(), LEN);
                        assert!(v.iter().enumerate().all(|(i, &x)| x == round + i as u64));
                        break;
                    }
                    std::hint::spin_loop();
                });
                let value: Vec<u64> = (0..LEN as u64).map(|i| round + i).collect();
                assert_eq!(slot.set(value), Ok(()));
                reader.join().unwrap();
            });
        }
    }

    #[test]
    fn dropping_frees_the_value_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let slot = OnceBox::new();
        let winner = slot.decide(Tracked { id: 0, drops: Arc::clone(&drops) });
        assert_eq!(winner.id, 0);
        // `decide` drops a losing value itself.
        assert_eq!(slot.decide(Tracked { id: 1, drops: Arc::clone(&drops) }).id, 0);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(slot);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        // An empty box frees nothing.
        drop(OnceBox::<Tracked>::new());
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn debug_formats() {
        let slot: OnceBox<u8> = OnceBox::new();
        assert!(format!("{slot:?}").contains('⊥'));
        slot.set(3).unwrap();
        assert!(format!("{slot:?}").contains('3'));
    }
}
