//! Offline stand-in for [`crossbeam-epoch`](https://docs.rs/crossbeam-epoch),
//! covering exactly the API surface this workspace uses: [`Atomic`],
//! [`Owned`], [`Shared`], [`Guard`], [`pin`] and [`unprotected`].
//!
//! Reclamation model: instead of per-thread epochs, retired pointers go to a
//! global garbage list and are freed when the global count of live guards
//! drops to zero. This is coarser than real epoch reclamation (garbage can
//! accumulate while any guard is pinned) but preserves the safety contract
//! the callers rely on: a pointer loaded under a live guard is never freed
//! while that guard is alive, because it was unlinked before retirement and
//! the guard count cannot reach zero before the guard drops.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A deferred-destruction record: a type-erased pointer plus its dropper.
struct Garbage {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
}

// SAFETY: the pointed-to value is only ever dropped once, by whichever
// thread drains the list; callers of `defer_destroy` accept (per its safety
// contract) that destruction may run on another thread.
unsafe impl Send for Garbage {}

static LIVE_GUARDS: AtomicUsize = AtomicUsize::new(0);
static GARBAGE: Mutex<Vec<Garbage>> = Mutex::new(Vec::new());
// Tracks GARBAGE's length so the hot path (guard drop with nothing retired)
// stays a single atomic load instead of taking the mutex.
static GARBAGE_LEN: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The buffer this thread last drained, emptied: swapped in as the next
    /// garbage list, so a drain hands the list a buffer that already has
    /// capacity instead of leaving the next retirement to allocate one.
    static SPARE: Cell<Vec<Garbage>> = const { Cell::new(Vec::new()) };
}

/// The garbage list. A poisoned lock is recovered, not propagated: every
/// critical section is one `push` or one buffer swap, so a panic inside one
/// cannot leave the list half-written.
fn garbage() -> MutexGuard<'static, Vec<Garbage>> {
    GARBAGE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn drain_garbage_if_quiescent() {
    if GARBAGE_LEN.load(Ordering::Acquire) == 0 {
        return;
    }
    drain_garbage();
}

// Out of line: the check above runs in every guard drop, which is inlined
// into every register operation; the drain itself need not be.
#[inline(never)]
fn drain_garbage() {
    let mut drained = {
        let mut garbage = garbage();
        if LIVE_GUARDS.load(Ordering::Acquire) != 0 {
            return;
        }
        GARBAGE_LEN.store(0, Ordering::Release);
        // A drain re-entered from a destructor below finds the spare
        // already taken and swaps in an empty `Vec`, which allocates nothing.
        let spare = SPARE.try_with(Cell::take).unwrap_or_default();
        std::mem::replace(&mut *garbage, spare)
    };
    // Destructors run after the lock is released: a retired value whose own
    // Drop pins/unpins (re-entering this function) must not deadlock. The
    // records are already unlinked and were retired before the count hit
    // zero, so no new guard can reach them.
    for g in drained.drain(..) {
        // SAFETY: each record is pushed exactly once and drained exactly
        // once; no guard was live at the takeover point, so no reader can
        // still hold the pointer.
        unsafe { (g.drop_fn)(g.ptr) };
    }
    let _ = SPARE.try_with(|spare| spare.set(drained));
}

/// A pinned-epoch witness. Pointers loaded while a guard is live remain
/// valid until the guard is dropped.
pub struct Guard {
    counted: bool,
}

impl Guard {
    /// Defers destruction of the value behind `shared` until no guard is
    /// live.
    ///
    /// # Safety
    ///
    /// `shared` must point to a live heap allocation created by
    /// [`Owned::new`]/[`Atomic::new`], must already be unreachable for new
    /// readers, and must not be retired twice.
    pub unsafe fn defer_destroy<T>(&self, shared: Shared<'_, T>) {
        unsafe fn drop_box<T>(ptr: *mut u8) {
            drop(Box::from_raw(ptr.cast::<T>()));
        }
        if !shared.ptr.is_null() {
            // APC-LINT: allow(progress): shim-only global garbage mutex, held for one push; upstream crossbeam-epoch retires into per-thread bags without locking
            let mut garbage = garbage();
            garbage.push(Garbage { ptr: shared.ptr.cast::<u8>(), drop_fn: drop_box::<T> });
            GARBAGE_LEN.store(garbage.len(), Ordering::Release);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.counted && LIVE_GUARDS.fetch_sub(1, Ordering::AcqRel) == 1 {
            drain_garbage_if_quiescent();
        }
    }
}

/// Pins the current thread, returning a guard under which loaded pointers
/// stay valid.
pub fn pin() -> Guard {
    LIVE_GUARDS.fetch_add(1, Ordering::AcqRel);
    Guard { counted: true }
}

/// Returns a guard usable without pinning.
///
/// # Safety
///
/// The caller must guarantee no concurrent access to the data structures the
/// guard is used with (e.g. holding `&mut` or being inside `Drop`).
pub unsafe fn unprotected() -> &'static Guard {
    static UNPROTECTED: Guard = Guard { counted: false };
    &UNPROTECTED
}

// SAFETY: `Guard` carries no thread-local state in this shim.
unsafe impl Sync for Guard {}

/// An owned heap value, not yet published.
pub struct Owned<T> {
    ptr: *mut T,
}

impl<T> Owned<T> {
    /// Allocates `value` on the heap.
    pub fn new(value: T) -> Self {
        Owned { ptr: Box::into_raw(Box::new(value)) }
    }

    /// Converts back into a `Box`.
    pub fn into_box(self) -> Box<T> {
        let ptr = self.ptr;
        std::mem::forget(self);
        // SAFETY: `ptr` came from `Box::into_raw` and ownership is unique.
        unsafe { Box::from_raw(ptr) }
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        // SAFETY: sole owner; the value was never published.
        drop(unsafe { Box::from_raw(self.ptr) });
    }
}

/// A shared pointer valid for the lifetime of a guard.
pub struct Shared<'g, T> {
    ptr: *mut T,
    _guard: PhantomData<&'g ()>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer.
    pub fn null() -> Self {
        Shared { ptr: std::ptr::null_mut(), _guard: PhantomData }
    }

    /// Whether this is the null pointer.
    pub fn is_null(&self) -> bool {
        self.ptr.is_null()
    }

    /// Dereferences, if non-null.
    ///
    /// # Safety
    ///
    /// The pointer must have been loaded under the guard `'g` is tied to,
    /// and the pointee must not be mutated concurrently.
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        self.ptr.as_ref()
    }

    /// Takes unique ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null, unreachable by other threads, and not
    /// already retired.
    pub unsafe fn into_owned(self) -> Owned<T> {
        Owned { ptr: self.ptr }
    }
}

/// Either an [`Owned`] or a [`Shared`] pointer, for APIs accepting both.
pub trait Pointer<T> {
    /// The raw pointer, without giving up ownership.
    fn as_ptr(&self) -> *mut T;
    /// Consumes `self`, returning the raw pointer.
    fn into_ptr(self) -> *mut T;
}

impl<T> Pointer<T> for Owned<T> {
    fn as_ptr(&self) -> *mut T {
        self.ptr
    }
    fn into_ptr(self) -> *mut T {
        let ptr = self.ptr;
        std::mem::forget(self);
        ptr
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn as_ptr(&self) -> *mut T {
        self.ptr
    }
    fn into_ptr(self) -> *mut T {
        self.ptr
    }
}

/// The failed result of [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value actually found in the atomic.
    pub current: Shared<'g, T>,
    /// The proposed new value, handed back to the caller.
    pub new: P,
}

/// An atomic nullable pointer to a heap `T`.
pub struct Atomic<T> {
    ptr: AtomicPtr<T>,
}

// SAFETY: mirrors crossbeam — the pointer may be handed between threads and
// the pointee shared, so both bounds are required.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// A null atomic pointer.
    pub fn null() -> Self {
        Atomic { ptr: AtomicPtr::new(std::ptr::null_mut()) }
    }

    /// Allocates `value` and stores the pointer.
    pub fn new(value: T) -> Self {
        Atomic { ptr: AtomicPtr::new(Box::into_raw(Box::new(value))) }
    }

    /// Loads the current pointer under `guard`.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared { ptr: self.ptr.load(ord), _guard: PhantomData }
    }

    /// Atomically swaps in `new`, returning the previous pointer.
    pub fn swap<'g, P: Pointer<T>>(
        &self,
        new: P,
        ord: Ordering,
        _guard: &'g Guard,
    ) -> Shared<'g, T> {
        Shared { ptr: self.ptr.swap(new.into_ptr(), ord), _guard: PhantomData }
    }

    /// Atomically replaces `current` with `new`, on failure handing `new`
    /// back in the error.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        // `new` must only be consumed if the CAS succeeds; on failure it is
        // handed back to the caller inside the error.
        match self.ptr.compare_exchange(current.ptr, new.as_ptr(), success, failure) {
            Ok(prev) => {
                let _ = new.into_ptr();
                Ok(Shared { ptr: prev, _guard: PhantomData })
            }
            Err(found) => Err(CompareExchangeError {
                current: Shared { ptr: found, _guard: PhantomData },
                new,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static DROPS: AtomicUsize = AtomicUsize::new(0);

    struct Counted;

    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Retires one value under a guard and drops the guard, which drains.
    fn retire_one() {
        let guard = pin();
        let shared = Shared { ptr: Owned::new(Counted).into_ptr(), _guard: PhantomData };
        // SAFETY: `shared` was never published, so nothing else can reach it.
        unsafe { guard.defer_destroy(shared) };
    }

    // One test: the statics are global to this binary.
    #[test]
    fn a_drain_recycles_its_buffer_and_survives_a_poisoned_lock() {
        retire_one();
        retire_one();
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
        // The first drain kept its buffer as the spare; the second swapped
        // it in as the list, so the next retirement pushes without allocating.
        assert!(garbage().capacity() > 0);

        let _ = std::thread::spawn(|| {
            let _held = GARBAGE.lock();
            panic!("poisoning the garbage list on purpose");
        })
        .join();
        assert!(GARBAGE.is_poisoned());
        retire_one();
        assert_eq!(DROPS.load(Ordering::SeqCst), 3, "a poisoned list still reclaims");
    }
}
