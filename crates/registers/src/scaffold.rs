//! A value built by its first user and freed by its last, once done.

use std::fmt;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

use apc_progress_macros::progress;

/// The value's address: the word's low 48 bits.
const ADDRESS: u64 = (1 << 48) - 1;
/// One user inside: the count of users inside is bits 48..63.
const ONE_INSIDE: u64 = 1 << 48;
/// The count's bits.
const INSIDE: u64 = ((1 << 15) - 1) * ONE_INSIDE;
/// Terminal: the value was freed and is never built again.
const FREED: u64 = 1 << 63;

/// Scaffolding for a piece of shared work: a value built lazily by the
/// first user to [`enter`](Scaffold::enter), shared by every user inside,
/// and freed by the last user to leave once the work is done — after
/// which the scaffold is *taken down* for good, and a late user learns so
/// from its entry and touches nothing.
///
/// The whole state is one `AtomicU64`: the value's address in the low 48
/// bits, the count of users inside in the next 15, and a terminal `FREED`
/// bit on top. A user enters with one `fetch_add` and leaves with one
/// `fetch_sub`; the one who builds the value installs its address with a
/// CAS, and the one who leaves last with the work done swings the word to
/// `FREED` with a CAS and frees the value. Nothing is pinned or deferred:
/// the count inside *is* the set of readers, so the value is freed the
/// moment the last of them is out.
///
/// It is the guests' round 0 of a consensus cell, whose work is done once
/// the cell is decided: every guest still inside holds it, and one that
/// arrives after it is freed reads the decision instead.
///
/// # Address width
///
/// The value's address must fit in 48 bits. User-space addresses do on
/// Linux x86-64 (4-level paging, and 5-level too unless a process maps
/// with an address hint above 2^47) and on aarch64 (48-bit virtual
/// addresses unless a process asks for more with a high hint), so a
/// `Box` the global allocator returns fits. [`Scaffold::enter`] asserts
/// it where the value is built.
///
/// # Capacity
///
/// At most 2^15 − 1 users may be inside at once, and as many may have
/// entered after the scaffold was taken down (each adds one to a count
/// nothing reads any more); a consensus cell has at most 64 proposers in
/// all.
///
/// # Examples
///
/// ```
/// use apc_registers::Scaffold;
///
/// let scaffold: Scaffold<Vec<u32>> = Scaffold::new();
/// let first = scaffold.enter(|| vec![1, 2]).unwrap();
/// let second = scaffold.enter(|| unreachable!("built once")).unwrap();
/// assert_eq!(*second, [1, 2]);
/// first.leave(true); // done, but `second` is still inside
/// assert!(!scaffold.holds_nothing());
/// second.leave(true); // the last one out frees it
/// assert!(scaffold.holds_nothing());
/// assert!(scaffold.enter(|| vec![3]).is_none()); // taken down for good
/// ```
pub struct Scaffold<T> {
    word: AtomicU64,
    /// The scaffold owns the value it holds.
    _owns: PhantomData<Box<T>>,
}

// SAFETY: `word` is an atomic, and `_owns` is a marker with no data.
// Through a shared `Scaffold` every user borrows the value (`T: Sync`), and
// a value built on one thread is freed by whichever thread leaves last
// (`T: Send`).
unsafe impl<T: Send + Sync> Sync for Scaffold<T> {}

/// A user inside a [`Scaffold`]: borrows its value until it leaves.
///
/// Dropped without [`Inside::leave`] (say, by a panic), it leaves with the
/// work not done.
pub struct Inside<'a, T> {
    scaffold: &'a Scaffold<T>,
    value: &'a T,
}

impl<T> Scaffold<T> {
    /// An empty scaffold: nothing built, nobody inside.
    pub const fn new() -> Self {
        Scaffold { word: AtomicU64::new(0), _owns: PhantomData }
    }

    /// Enters: the value, built by `build` first if nobody has built it
    /// yet, borrowed until the returned [`Inside`] leaves; `None` if the
    /// scaffold was taken down, and then `build` is not called.
    ///
    /// One `fetch_add`; a builder adds one CAS per user who entered or
    /// left meanwhile, so at most two per other user.
    ///
    /// # Panics
    ///
    /// If the built value's address does not fit in 48 bits (see the type
    /// docs).
    #[progress(wait_free)]
    pub fn enter(&self, build: impl FnOnce() -> T) -> Option<Inside<'_, T>> {
        // AcqRel: the Acquire pairs with the CAS that installed the value
        // (every later change of the word is a read-modify-write, so it
        // carries that release on), and the Release with the CAS of
        // whoever frees it.
        let mut word = self.word.fetch_add(ONE_INSIDE, Ordering::AcqRel).wrapping_add(ONE_INSIDE);
        if word & FREED != 0 {
            return None;
        }
        debug_assert!(word & INSIDE != 0, "more than 2^15 - 1 users inside a scaffold");
        if word & ADDRESS == 0 {
            let new = Box::into_raw(Box::new(build()));
            let address = new as u64;
            assert!(address & !ADDRESS == 0, "a heap address above 2^48: see Scaffold's docs");
            // Nobody frees the value while this user is counted inside, so
            // the word cannot turn `FREED` here: it only changes by other
            // users entering or leaving, at most twice each, or by another
            // builder's install, which ends the loop.
            loop {
                match self.word.compare_exchange(
                    word,
                    word | address,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        word |= address;
                        break;
                    }
                    Err(now) if now & ADDRESS != 0 => {
                        // SAFETY: `new` lost the race, so nothing else ever
                        // saw it: the box is still ours alone to free.
                        drop(unsafe { Box::from_raw(new) });
                        word = now;
                        break;
                    }
                    Err(now) => word = now,
                }
            }
        }
        let value = (word & ADDRESS) as *const T;
        // SAFETY: a non-zero address is a `Box` installed by the CAS above
        // or one this load acquired, and it is freed only by a user who
        // swings the word from "nobody inside" to `FREED`, which cannot
        // happen while this user is counted inside — until the `Inside`
        // leaves, and the borrow ends with it.
        Some(Inside { scaffold: self, value: unsafe { &*value } })
    }

    /// Leaves: one `fetch_sub`, and — if the work is `done` and nobody is
    /// left inside — one CAS to `FREED`; its winner frees the value.
    #[progress(wait_free)]
    fn leave(&self, done: bool) {
        let word = self.word.fetch_sub(ONE_INSIDE, Ordering::AcqRel) - ONE_INSIDE;
        if !done || word & INSIDE != 0 {
            return;
        }
        // The CAS fails if someone entered since (they free it when they
        // leave), or if another leaver took the scaffold down first.
        if self.word.compare_exchange(word, FREED, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            // SAFETY: the word held the value's address with nobody inside,
            // and the CAS made it `FREED`, which no entry or leave changes
            // back: nobody borrows the value now or ever will, and the
            // Acquire ordered every earlier user's last access (its
            // `fetch_sub`, a release) before this free.
            drop(unsafe { Box::from_raw((word & ADDRESS) as *mut T) });
        }
    }

    /// Whether the scaffold holds no value: none was built yet, or it was
    /// taken down.
    #[progress(wait_free)]
    pub fn holds_nothing(&self) -> bool {
        self.word.load(Ordering::Acquire) & ADDRESS == 0
    }

    /// Whether the scaffold was taken down: its value freed for good.
    #[cfg(test)]
    fn is_taken_down(&self) -> bool {
        self.word.load(Ordering::Acquire) & FREED != 0
    }
}

impl<T> Inside<'_, T> {
    /// Leaves the scaffold. With `done`, the work the value serves is
    /// finished — no user entering from now on will need it — and the
    /// last user out frees it; without, the value stays for whoever
    /// enters next.
    #[progress(wait_free)]
    pub fn leave(self, done: bool) {
        let this = ManuallyDrop::new(self);
        this.scaffold.leave(done);
    }
}

impl<T> Deref for Inside<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value
    }
}

impl<T> Drop for Inside<'_, T> {
    fn drop(&mut self) {
        self.scaffold.leave(false);
    }
}

impl<T> Default for Scaffold<T> {
    fn default() -> Self {
        Scaffold::new()
    }
}

impl<T> Drop for Scaffold<T> {
    fn drop(&mut self) {
        let word = *self.word.get_mut();
        if word & FREED == 0 && word & ADDRESS != 0 {
            // SAFETY: `&mut self` excludes every user (an `Inside` borrows
            // the scaffold), and a value not yet freed is the scaffold's.
            drop(unsafe { Box::from_raw((word & ADDRESS) as *mut T) });
        }
    }
}

impl<T> fmt::Debug for Scaffold<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let word = self.word.load(Ordering::Acquire);
        f.debug_struct("Scaffold")
            .field("built", &(word & ADDRESS != 0))
            .field("inside", &((word & INSIDE) / ONE_INSIDE))
            .field("taken_down", &(word & FREED != 0))
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
        id: AtomicU64,
        alive: AtomicU64,
        drops: Arc<AtomicUsize>,
    }

    const ALIVE: u64 = 0xA11C_E5A1_1CE5_A11C;

    /// Numbers every canary built, so one freed and rebuilt at the same
    /// address under a reader shows up as another canary.
    static NEXT_CANARY: AtomicU64 = AtomicU64::new(0);

    impl Canary {
        fn new(drops: &Arc<AtomicUsize>) -> Self {
            let id = NEXT_CANARY.fetch_add(1, Ordering::SeqCst);
            Canary {
                id: AtomicU64::new(id),
                alive: AtomicU64::new(ALIVE),
                drops: Arc::clone(drops),
            }
        }

        fn check(&self) -> u64 {
            assert_eq!(self.alive.load(Ordering::SeqCst), ALIVE, "a reader saw a dropped canary");
            self.id.load(Ordering::SeqCst)
        }
    }

    impl Drop for Canary {
        fn drop(&mut self) {
            self.check();
            self.alive.store(0, Ordering::SeqCst);
            self.id.store(u64::MAX, Ordering::SeqCst);
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn one_build_then_shared_then_freed_by_the_last_one_out() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scaffold = Scaffold::new();
        assert!(scaffold.holds_nothing() && !scaffold.is_taken_down());
        let a = scaffold.enter(|| Canary::new(&drops)).unwrap();
        let b = scaffold.enter(|| unreachable!("an entered scaffold is built")).unwrap();
        assert!(std::ptr::eq(&*a, &*b), "two users, two values");
        assert!(!scaffold.holds_nothing());
        a.leave(true);
        b.check();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed with a user inside");
        b.leave(true);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert!(scaffold.holds_nothing() && scaffold.is_taken_down());
        // Taken down for good: a late user builds nothing and is not inside.
        assert!(scaffold.enter(|| unreachable!("a taken-down scaffold builds")).is_none());
        drop(scaffold);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "freed twice");
    }

    #[test]
    fn a_user_leaving_undone_leaves_the_value_for_the_next_one_done() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scaffold = Scaffold::new();
        scaffold.enter(|| Canary::new(&drops)).unwrap().leave(false);
        assert!(!scaffold.holds_nothing(), "an undone leave freed the value");
        // The next user finds the same value, and frees it when done.
        let next = scaffold.enter(|| unreachable!("the value was kept")).unwrap();
        next.check();
        next.leave(true);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert!(scaffold.is_taken_down());
    }

    #[test]
    fn dropping_an_inside_leaves_undone_and_dropping_the_scaffold_frees_the_value() {
        let drops = Arc::new(AtomicUsize::new(0));
        let scaffold = Scaffold::new();
        drop(scaffold.enter(|| Canary::new(&drops)).unwrap());
        assert!(!scaffold.holds_nothing() && !scaffold.is_taken_down());
        drop(scaffold);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        // An empty scaffold frees nothing.
        drop(Scaffold::<Canary>::new());
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn racing_users_build_once_free_once_and_never_read_a_freed_value() {
        // Per scaffold: users enter at once, read the value, and leave done
        // or not. Every value built — the installed one and every losing
        // build — is dropped exactly once, and none while a user reads it.
        const USERS: usize = 6;
        for round in 0..300 {
            let drops = Arc::new(AtomicUsize::new(0));
            let builds = AtomicUsize::new(0);
            let scaffold = Scaffold::new();
            let barrier = Barrier::new(USERS);
            std::thread::scope(|s| {
                for user in 0..USERS {
                    let (scaffold, drops, builds, barrier) = (&scaffold, &drops, &builds, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let build = || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            Canary::new(drops)
                        };
                        if let Some(inside) = scaffold.enter(build) {
                            let id = inside.check();
                            for _ in 0..64 {
                                assert_eq!(inside.check(), id, "the value changed under a user");
                            }
                            inside.leave(user % 3 != 0 || round % 2 == 0);
                        }
                    });
                }
            });
            let built = builds.load(Ordering::SeqCst);
            assert!(built >= 1);
            if scaffold.is_taken_down() {
                assert_eq!(drops.load(Ordering::SeqCst), built, "round {round}");
            } else {
                assert_eq!(drops.load(Ordering::SeqCst), built - 1, "round {round}");
            }
            drop(scaffold);
            assert_eq!(drops.load(Ordering::SeqCst), built, "round {round}: a build leaked");
        }
    }

    #[test]
    fn debug_formats() {
        let scaffold: Scaffold<u8> = Scaffold::new();
        let inside = scaffold.enter(|| 3).unwrap();
        assert!(format!("{scaffold:?}").contains("inside: 1"));
        inside.leave(true);
        assert!(format!("{scaffold:?}").contains("taken_down: true"));
    }
}
