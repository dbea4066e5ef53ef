//! A lock-free fetch-and-add counter.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use apc_progress_macros::progress;

/// A wait-free fetch-and-add counter (consensus number 2).
///
/// Beyond being a Common2 citizen, fetch-and-add is the classic ticket
/// dispenser: `fetch_add(1)` hands out unique, gap-free tickets, e.g. one-shot
/// process identities for threads that arrive in no fixed order.
///
/// # Examples
///
/// ```
/// use apc_common2::FetchAndAdd;
/// let faa = FetchAndAdd::new(0);
/// assert_eq!(faa.fetch_add(2), 0);
/// assert_eq!(faa.fetch_add(1), 2);
/// assert_eq!(faa.read(), 3);
/// ```
#[derive(Default)]
pub struct FetchAndAdd {
    count: AtomicU64,
}

impl FetchAndAdd {
    /// Creates a counter with the given initial value.
    pub fn new(init: u64) -> Self {
        FetchAndAdd { count: AtomicU64::new(init) }
    }

    /// Atomically adds `delta`, returning the previous value.
    #[progress(wait_free)]
    pub fn fetch_add(&self, delta: u64) -> u64 {
        self.count.fetch_add(delta, Ordering::SeqCst)
    }

    /// Reads the counter.
    #[progress(wait_free)]
    pub fn read(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }
}

impl fmt::Debug for FetchAndAdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("FetchAndAdd").field(&self.read()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn sequential_accumulation() {
        let faa = FetchAndAdd::new(10);
        assert_eq!(faa.fetch_add(5), 10);
        assert_eq!(faa.fetch_add(0), 15);
        assert_eq!(faa.read(), 15);
    }

    #[test]
    fn tickets_are_unique_and_gap_free() {
        let faa = FetchAndAdd::new(0);
        let tickets = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let faa = &faa;
                let tickets = &tickets;
                s.spawn(move || {
                    for _ in 0..100 {
                        let t = faa.fetch_add(1);
                        assert!(tickets.lock().unwrap().insert(t), "duplicate ticket {t}");
                    }
                });
            }
        });
        let tickets = tickets.into_inner().unwrap();
        assert_eq!(tickets.len(), 800);
        assert_eq!(faa.read(), 800);
        for t in 0..800 {
            assert!(tickets.contains(&t), "gap at ticket {t}");
        }
    }
}
