//! A set-once link to a shared value.

use std::fmt;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use apc_progress_macros::progress;

/// A set-once register holding an `Arc<T>`: `⊥` until the first
/// [`OnceArc::load_or_init`] installs a value with a CAS-from-`⊥`, and never
/// changed after that while it is shared.
///
/// It is the link of a lazily built chain, read far more often than it is
/// set. The word it holds *is* the `Arc`'s pointer, so installing a value
/// allocates nothing beyond the `Arc` itself, and a read is one load and one
/// reference-count increment. No epoch is pinned: a value that is never
/// replaced is never retired under a reader, so no reader needs a
/// hazard pointer, as a [`HazardSlots`](crate::HazardSlots) reader does.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use apc_registers::OnceArc;
///
/// let link: OnceArc<u32> = OnceArc::new();
/// assert_eq!(link.load(), None);
/// let first = link.load_or_init(|| Arc::new(7));
/// let again = link.load_or_init(|| Arc::new(8));
/// assert!(Arc::ptr_eq(&first, &again));
/// ```
pub struct OnceArc<T> {
    ptr: AtomicPtr<T>,
    /// The link owns one strong count of the `Arc` it holds.
    _owns: PhantomData<Arc<T>>,
}

impl<T> OnceArc<T> {
    /// Creates an empty (`⊥`) link.
    pub const fn new() -> Self {
        OnceArc { ptr: AtomicPtr::new(ptr::null_mut()), _owns: PhantomData }
    }

    /// The linked value, or `None` while the link is `⊥`.
    #[progress(wait_free)]
    pub fn load(&self) -> Option<Arc<T>> {
        let ptr = self.ptr.load(Ordering::Acquire);
        // SAFETY: a non-null pointer came from `Arc::into_raw`, and the link
        // still owns that strong count: it gives it up only through
        // `&mut self`, which cannot coexist with this borrow.
        (!ptr.is_null()).then(|| unsafe { share(ptr) })
    }

    /// The linked value, installing `init()` first if the link is `⊥`.
    ///
    /// Under a race exactly one initializer's value is installed; every
    /// caller gets that one, and a losing initializer's value is dropped.
    #[progress(wait_free)]
    pub fn load_or_init(&self, init: impl FnOnce() -> Arc<T>) -> Arc<T> {
        if let Some(value) = self.load() {
            return value;
        }
        let new = Arc::into_raw(init()).cast_mut();
        match self.ptr.compare_exchange(ptr::null_mut(), new, Ordering::AcqRel, Ordering::Acquire) {
            // SAFETY: `new`'s count now belongs to the link, as in `load`.
            Ok(_) => unsafe { share(new) },
            // SAFETY: `new` lost the race, so its one count is still ours to
            // drop; `winner`'s count belongs to the link, as in `load`.
            Err(winner) => unsafe {
                drop(Arc::from_raw(new));
                share(winner)
            },
        }
    }

    /// Moves the value out of the link (leaving `⊥`).
    ///
    /// Requires `&mut self`, so no reader can be inside the link. This is
    /// the building block for *iterative* teardown of a long chain, whose
    /// recursive `Drop` would otherwise overflow the stack.
    #[progress(wait_free)]
    pub fn take_mut(&mut self) -> Option<Arc<T>> {
        let ptr = std::mem::replace(self.ptr.get_mut(), ptr::null_mut());
        // SAFETY: the link owned this strong count; `&mut self` hands it to
        // the caller, and the link no longer refers to it.
        (!ptr.is_null()).then(|| unsafe { Arc::from_raw(ptr) })
    }
}

/// A new strong count of the `Arc` behind `ptr`.
///
/// # Safety
///
/// `ptr` came from `Arc::into_raw`, and someone else keeps a strong count
/// of it for the duration of the call.
unsafe fn share<T>(ptr: *const T) -> Arc<T> {
    Arc::increment_strong_count(ptr);
    Arc::from_raw(ptr)
}

impl<T> Default for OnceArc<T> {
    fn default() -> Self {
        OnceArc::new()
    }
}

impl<T> Drop for OnceArc<T> {
    fn drop(&mut self) {
        drop(self.take_mut());
    }
}

impl<T: fmt::Debug> fmt::Debug for OnceArc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.load() {
            Some(v) => f.debug_tuple("OnceArc").field(&v).finish(),
            None => f.debug_tuple("OnceArc").field(&"⊥").finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_bot_and_initializes_once() {
        let link: OnceArc<u64> = OnceArc::new();
        assert_eq!(link.load(), None);
        let first = link.load_or_init(|| Arc::new(5));
        assert_eq!(*first, 5);
        let again = link.load_or_init(|| unreachable!("an installed link is never re-initialized"));
        assert!(Arc::ptr_eq(&first, &again));
        assert!(Arc::ptr_eq(&first, &link.load().unwrap()));
    }

    #[test]
    fn racing_initializers_install_one_value_and_drop_the_rest() {
        let link: OnceArc<Arc<()>> = OnceArc::new();
        let tracked = Arc::new(());
        let barrier = std::sync::Barrier::new(8);
        let got: Vec<Arc<Arc<()>>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        link.load_or_init(|| Arc::new(Arc::clone(&tracked)))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(got.iter().all(|v| Arc::ptr_eq(v, &got[0])), "the link resolved to two values");
        // The installed value holds the one extra count; every loser's
        // value was dropped.
        assert_eq!(Arc::strong_count(&tracked), 2);
        drop(got);
        drop(link);
        assert_eq!(Arc::strong_count(&tracked), 1, "dropping the link releases its value");
    }

    #[test]
    fn take_mut_moves_the_value_out() {
        let mut link = OnceArc::new();
        assert_eq!(link.take_mut(), None);
        link.load_or_init(|| Arc::new(vec![1, 2]));
        let taken = link.take_mut().unwrap();
        assert_eq!(Arc::strong_count(&taken), 1, "the link gave up its count");
        assert_eq!(link.load(), None);
    }

    #[test]
    fn debug_formats() {
        let link: OnceArc<u8> = OnceArc::new();
        assert!(format!("{link:?}").contains('⊥'));
        link.load_or_init(|| Arc::new(3));
        assert!(format!("{link:?}").contains('3'));
    }
}
