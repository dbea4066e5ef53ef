//! A register that keeps every value it was ever given.

use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

use apc_progress_macros::progress;

use crate::OnceBox;

/// A register whose writes are rare and whose reads are not: every value
/// it is given is kept until the register drops, so a read borrows the
/// newest one with one `Acquire` load — no epoch pin, no clone, no count —
/// and the borrow stays valid however many values are published after it.
///
/// The values form a grow-only chain of set-once [`OnceBox`] links, plus a
/// pointer to the newest. [`Generations::supersede`] links a value after
/// the newest and moves the pointer to it. Nothing is freed while the
/// register is shared, so it suits a value replaced a bounded number of
/// times over the register's life, such as a routing table that changes
/// once per reconfiguration. A value replaced on every write wants
/// [`HazardSlots`](crate::HazardSlots), which free the old one.
///
/// # Examples
///
/// ```
/// use apc_registers::Generations;
///
/// let view = Generations::new(1u32);
/// let first = view.newest();
/// view.supersede(2);
/// assert_eq!((*first, *view.newest()), (1, 2));
/// ```
pub struct Generations<T> {
    /// The oldest generation, which owns the rest through its link.
    chain: OnceBox<Generation<T>>,
    /// The newest generation: `chain`'s value or one linked after it.
    newest: AtomicPtr<Generation<T>>,
}

/// One value and the set-once link to the value published after it.
struct Generation<T> {
    value: T,
    next: OnceBox<Generation<T>>,
}

impl<T> Generations<T> {
    /// A register holding `value`.
    pub fn new(value: T) -> Self {
        let chain = OnceBox::new();
        let first = chain.decide(Generation { value, next: OnceBox::new() });
        Generations { newest: AtomicPtr::new(ptr::from_ref(first).cast_mut()), chain }
    }

    /// The newest value, borrowed for as long as the register is.
    #[progress(wait_free)]
    pub fn newest(&self) -> &T {
        &self.newest_generation().value
    }

    fn newest_generation(&self) -> &Generation<T> {
        // SAFETY: `newest` only ever points at a generation held by `chain`
        // or by a link after it, and a generation is freed only when the
        // register drops, which takes `&mut self`. The Acquire pairs with
        // the CAS that moved the pointer, made by a thread that had read
        // the link's release, so the generation is fully built.
        unsafe { &*self.newest.load(Ordering::Acquire) }
    }

    /// Publishes `value` as the newest: links it after the last generation,
    /// then moves the pointer forward one link at a time to the chain's
    /// end. Racing publishers each link their value, in some order, and
    /// help each other move the pointer, which never moves backward.
    #[progress(lock_free)]
    pub fn supersede(&self, mut value: T) {
        let mut at = self.newest_generation();
        while let Err((lost, next)) = at.next.install(Generation { value, next: OnceBox::new() }) {
            (value, at) = (lost.value, next);
        }
        loop {
            let at = self.newest_generation();
            let Some(next) = at.next.get() else { return };
            let (at, next) = (ptr::from_ref(at).cast_mut(), ptr::from_ref(next).cast_mut());
            // A failed CAS means another publisher moved the pointer on.
            let _ = self.newest.compare_exchange(at, next, Ordering::AcqRel, Ordering::Acquire);
        }
    }
}

impl<T> Drop for Generations<T> {
    fn drop(&mut self) {
        // Unlink the chain iteratively: a recursive drop of a long chain
        // would overflow the stack.
        let mut next = self.chain.take_box();
        while let Some(mut generation) = next {
            next = generation.next.take_box();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn a_borrowed_value_survives_later_publishes() {
        let view = Generations::new(vec![0u64; 4]);
        let first = view.newest();
        for i in 1..=100u64 {
            view.supersede(vec![i; 4]);
        }
        assert_eq!(first, &vec![0; 4], "the borrow outlived 100 publishes");
        assert_eq!(view.newest(), &vec![100; 4]);
    }

    #[test]
    fn readers_racing_a_publisher_see_every_value_whole_and_in_order() {
        // Each value is (i, i²); a reader must never see a torn pair or an
        // older value after a newer one.
        const WRITES: u64 = 2_000;
        let view = Generations::new((0u64, 0u64));
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut last = 0;
                    while last < WRITES {
                        let &(i, square) = view.newest();
                        assert_eq!(square, i * i, "a torn value");
                        assert!(i >= last, "went back from {last} to {i}");
                        last = i;
                    }
                });
            }
            s.spawn(|| {
                for i in 1..=WRITES {
                    view.supersede((i, i * i));
                }
            });
        });
    }

    #[test]
    fn racing_publishers_link_every_value_and_end_at_the_last() {
        let view = Generations::new(0usize);
        let publishing = AtomicUsize::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (view, publishing) = (&view, &publishing);
                s.spawn(move || {
                    for i in 0..500 {
                        view.supersede(1 + t * 500 + i);
                    }
                    publishing.fetch_sub(1, Ordering::SeqCst);
                });
            }
            // The pointer only moves forward: each generation it names is
            // reachable from the one it named before.
            s.spawn(|| {
                let mut last = view.newest_generation();
                while publishing.load(Ordering::SeqCst) > 0 {
                    let now = view.newest_generation();
                    let mut at = Some(last);
                    while at.is_some_and(|g| !ptr::eq(g, now)) {
                        at = at.and_then(|g| g.next.get());
                    }
                    assert!(at.is_some(), "the pointer moved backward");
                    last = now;
                }
            });
        });
        let mut seen = Vec::new();
        let mut at = view.chain.get();
        while let Some(generation) = at {
            seen.push(generation.value);
            at = generation.next.get();
        }
        assert_eq!(view.newest(), seen.last().unwrap(), "the pointer ends at the chain's end");
        seen.sort_unstable();
        assert_eq!(seen, (0..=2_000).collect::<Vec<_>>(), "every value linked exactly once");
    }

    #[test]
    fn a_long_chain_drops_without_overflowing_the_stack() {
        let drops = Arc::new(AtomicUsize::new(0));
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let view = Generations::new(Counted(Arc::clone(&drops)));
        for _ in 0..100_000 {
            view.supersede(Counted(Arc::clone(&drops)));
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "nothing is freed while shared");
        drop(view);
        assert_eq!(drops.load(Ordering::SeqCst), 100_001, "every value is freed once");
    }
}
