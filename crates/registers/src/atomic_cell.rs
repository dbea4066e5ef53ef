//! An epoch-reclaimed MWMR atomic register over `Option<T>`.

use std::fmt;
use std::sync::atomic::Ordering;

use apc_progress_macros::progress;
use crossbeam_epoch::{self as epoch, Atomic, Owned, Shared};

/// A linearizable multi-writer multi-reader atomic register holding an
/// `Option<T>` — the real-thread analogue of the paper's atomic registers,
/// with a null pointer playing the role of `⊥`.
///
/// Readers clone the stored value under an epoch guard — or borrow it for
/// the length of a closure ([`AtomicCell::load_with`]) — and writers swing
/// an `AtomicPtr` and defer destruction of the previous value to
/// crossbeam-epoch. All operations are lock-free; none blocks.
///
/// The extra primitive [`AtomicCell::set_if_bot`] (compare-and-swap from
/// `⊥`) lets the first writer win and every process read the winner — the
/// decision-slot idiom, which the consensus objects run on the set-once
/// [`OnceBox`](crate::OnceBox) instead, since a slot that is never cleared
/// needs no epoch. Note that a CAS-backed register is strictly stronger than
/// a read/write register — the implementations in `apc-core` are explicit
/// about which primitive each algorithm needs, because the whole point of
/// the paper is that this difference matters.
///
/// # Examples
///
/// ```
/// use apc_registers::AtomicCell;
///
/// let cell: AtomicCell<String> = AtomicCell::new();
/// assert_eq!(cell.load(), None);
/// cell.store("hello".to_owned());
/// assert_eq!(cell.load().as_deref(), Some("hello"));
/// ```
pub struct AtomicCell<T> {
    inner: Atomic<T>,
}

impl<T> AtomicCell<T> {
    /// Creates an empty (`⊥`) cell.
    pub fn new() -> Self {
        AtomicCell { inner: Atomic::null() }
    }

    /// Creates a cell holding `value`.
    pub fn with_value(value: T) -> Self {
        AtomicCell { inner: Atomic::new(value) }
    }

    /// Whether the cell currently holds `⊥`.
    #[progress(wait_free)]
    pub fn is_bot(&self) -> bool {
        let guard = epoch::pin();
        self.inner.load(Ordering::Acquire, &guard).is_null()
    }

    /// Reads the current value **without cloning it**: `f` borrows the
    /// stored value (`None` for `⊥`) under the epoch guard and returns what
    /// it needs of it. This is the read for values whose `Clone` is not
    /// free — a collect that compares or copies one field of each slot
    /// should not deep-copy the slot to do it.
    ///
    /// The value `f` sees is the register's value at the load, exactly as
    /// for [`AtomicCell::load`]; a concurrent writer replaces the pointer
    /// and never mutates the value behind it.
    #[progress(wait_free)]
    pub fn load_with<R>(&self, f: impl FnOnce(Option<&T>) -> R) -> R {
        let guard = epoch::pin();
        let shared = self.inner.load(Ordering::Acquire, &guard);
        // SAFETY: `shared` is protected by `guard`, which outlives the call
        // to `f`: a writer that displaces the value only defers its
        // destruction, so it cannot be reclaimed while `f` borrows it. The
        // borrow cannot escape: `R` is chosen by the caller before the
        // reference's lifetime exists, so `f` cannot return the reference.
        f(unsafe { shared.as_ref() })
    }

    /// Stores a value, discarding the previous one.
    #[progress(wait_free)]
    pub fn store(&self, value: T) {
        let guard = epoch::pin();
        let old = self.inner.swap(Owned::new(value), Ordering::AcqRel, &guard);
        // SAFETY: `old` was produced by this cell and is no longer reachable
        // through it; epoch reclamation defers destruction until no thread
        // holds a guard that could still reference it.
        unsafe { defer_destroy(old, &guard) };
    }

    /// Clears the cell back to `⊥`. Clearing a `⊥` cell is one load: it
    /// neither writes the cell nor pins an epoch.
    #[progress(wait_free)]
    pub fn clear(&self) {
        // SAFETY: the pointer is only compared with null, never
        // dereferenced, so no guard has to keep its target alive.
        if unsafe { self.inner.load(Ordering::Acquire, epoch::unprotected()) }.is_null() {
            return;
        }
        let guard = epoch::pin();
        let old = self.inner.swap(Shared::null(), Ordering::AcqRel, &guard);
        // SAFETY: as in `store`.
        unsafe { defer_destroy(old, &guard) };
    }

    /// Sets the cell to `value` only if it is currently `⊥`.
    ///
    /// This is the wait-free decision-slot primitive: exactly one concurrent
    /// `set_if_bot` succeeds on an empty cell.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` (giving the value back) if the cell was already
    /// set.
    #[progress(wait_free)]
    pub fn set_if_bot(&self, value: T) -> Result<(), T> {
        let guard = epoch::pin();
        let new = Owned::new(value);
        match self.inner.compare_exchange(
            Shared::null(),
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
            &guard,
        ) {
            Ok(_) => Ok(()),
            Err(failure) => Err(*failure.new.into_box()),
        }
    }
}

impl<T: Clone> AtomicCell<T> {
    /// Reads the current value (cloning it), or `None` if the cell is `⊥`.
    #[progress(wait_free)]
    pub fn load(&self) -> Option<T> {
        self.load_with(|value| value.cloned())
    }

    /// Swaps in `value`, returning the previous value.
    #[progress(wait_free)]
    pub fn swap(&self, value: T) -> Option<T> {
        let guard = epoch::pin();
        let old = self.inner.swap(Owned::new(value), Ordering::AcqRel, &guard);
        // SAFETY: protected by `guard` for the clone; destruction deferred.
        let previous = unsafe { old.as_ref() }.cloned();
        unsafe { defer_destroy(old, &guard) };
        previous
    }

    /// Reads the value, initializing the cell with `init()` first if it is
    /// `⊥`. Returns the value that ended up being read.
    ///
    /// Under a race, exactly one initializer wins and all callers observe a
    /// single consistent value — unless the cell is cleared between the
    /// losing CAS and the read after it, when the caller gets its own value.
    #[progress(wait_free)]
    pub fn load_or_init(&self, init: impl FnOnce() -> T) -> T {
        if let Some(v) = self.load() {
            return v;
        }
        let value = init();
        match self.set_if_bot(value.clone()) {
            Ok(()) => value,
            Err(returned) => self.load().unwrap_or(returned),
        }
    }
}

/// # Safety
///
/// `old` must have been removed from the cell (unreachable for new readers)
/// and must not be destroyed twice.
unsafe fn defer_destroy<T>(old: Shared<'_, T>, guard: &epoch::Guard) {
    if !old.is_null() {
        guard.defer_destroy(old);
    }
}

impl<T> Default for AtomicCell<T> {
    fn default() -> Self {
        AtomicCell::new()
    }
}

impl<T> Drop for AtomicCell<T> {
    fn drop(&mut self) {
        // SAFETY: we have `&mut self`, so no other thread can access the
        // cell; the value can be dropped immediately.
        // RELAXED: exclusive access — no concurrent writer to order against.
        let shared = unsafe { self.inner.load(Ordering::Relaxed, epoch::unprotected()) };
        if !shared.is_null() {
            drop(unsafe { shared.into_owned() });
        }
    }
}

impl<T: Clone + fmt::Debug> fmt::Debug for AtomicCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.load() {
            Some(v) => f.debug_tuple("AtomicCell").field(&v).finish(),
            None => f.debug_tuple("AtomicCell").field(&"⊥").finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn starts_bot() {
        let cell: AtomicCell<u64> = AtomicCell::new();
        assert!(cell.is_bot());
        assert_eq!(cell.load(), None);
    }

    #[test]
    fn with_value_starts_set() {
        let cell = AtomicCell::with_value(9u64);
        assert!(!cell.is_bot());
        assert_eq!(cell.load(), Some(9));
    }

    #[test]
    fn store_load_roundtrip() {
        let cell = AtomicCell::new();
        cell.store(vec![1, 2, 3]);
        assert_eq!(cell.load(), Some(vec![1, 2, 3]));
        cell.store(vec![4]);
        assert_eq!(cell.load(), Some(vec![4]));
    }

    #[test]
    fn clear_resets_to_bot() {
        let cell = AtomicCell::with_value(1u8);
        cell.clear();
        assert!(cell.is_bot());
    }

    #[test]
    fn load_with_borrows_without_cloning() {
        struct NoClone(Vec<u8>);
        let cell: AtomicCell<NoClone> = AtomicCell::new();
        assert_eq!(cell.load_with(|v| v.map(|v| v.0.len())), None);
        cell.store(NoClone(vec![1, 2, 3]));
        assert_eq!(cell.load_with(|v| v.map(|v| v.0.len())), Some(3));
    }

    #[test]
    fn swap_returns_previous() {
        let cell = AtomicCell::new();
        assert_eq!(cell.swap(1u64), None);
        assert_eq!(cell.swap(2), Some(1));
        assert_eq!(cell.load(), Some(2));
    }

    #[test]
    fn set_if_bot_once() {
        let cell = AtomicCell::new();
        assert!(cell.set_if_bot(10u64).is_ok());
        assert_eq!(cell.set_if_bot(20), Err(20));
        assert_eq!(cell.load(), Some(10));
    }

    #[test]
    fn load_or_init_initializes_once() {
        let cell: AtomicCell<u64> = AtomicCell::new();
        assert_eq!(cell.load_or_init(|| 5), 5);
        assert_eq!(cell.load_or_init(|| 6), 5);
    }

    #[test]
    fn concurrent_set_if_bot_has_one_winner() {
        let cell: Arc<AtomicCell<usize>> = Arc::new(AtomicCell::new());
        let wins = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..8 {
                let cell = Arc::clone(&cell);
                let wins = Arc::clone(&wins);
                s.spawn(move || {
                    if cell.set_if_bot(t).is_ok() {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1);
        let winner = cell.load().unwrap();
        assert!(winner < 8);
    }

    #[test]
    fn concurrent_store_load_stress() {
        let cell: Arc<AtomicCell<u64>> = Arc::new(AtomicCell::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        cell.store(t * 10_000 + i);
                        let _ = cell.load();
                    }
                });
            }
        });
        let last = cell.load().unwrap();
        assert!(last % 10_000 < 1000, "last value was actually written: {last}");
    }

    #[test]
    fn drop_releases_value() {
        // Drop a cell holding an Arc and confirm the refcount falls.
        let tracked = Arc::new(());
        let cell = AtomicCell::with_value(Arc::clone(&tracked));
        assert_eq!(Arc::strong_count(&tracked), 2);
        drop(cell);
        assert_eq!(Arc::strong_count(&tracked), 1);
    }

    #[test]
    fn debug_formats() {
        let cell: AtomicCell<u8> = AtomicCell::new();
        assert!(format!("{cell:?}").contains("⊥"));
        cell.store(3);
        assert!(format!("{cell:?}").contains('3'));
    }
}
