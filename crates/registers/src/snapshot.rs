//! Wait-free single-writer atomic snapshot (Afek, Attiya, Dolev, Gafni,
//! Merritt, Shavit 1993).
//!
//! An *atomic snapshot* object has `n` components; process `i` updates
//! component `i` and any process can `scan()` all components **atomically**
//! despite concurrency. This is the canonical example of a non-trivial
//! object that registers *can* implement wait-free — the paper's possibility
//! baseline (`(n,n)`-liveness is achievable from registers for snapshots,
//! while consensus needs stronger objects).
//!
//! The construction is the classic one with **embedded scans**: every update
//! first performs a scan and publishes it next to the new value. A scanner
//! performs repeated double collects; if it sees a component change twice,
//! that component's writer performed a complete update inside the scan's
//! interval, so its embedded snapshot is a valid result.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use apc_progress_macros::progress;

use crate::atomic_cell::AtomicCell;

#[derive(Clone, Debug)]
struct SnapEntry<T> {
    seq: u64,
    value: T,
    embedded: Vec<T>,
}

/// A wait-free `n`-component single-writer atomic snapshot object.
///
/// Component `i` must be updated by one designated process at a time (the
/// single-writer discipline of the original construction); scans may run
/// from any thread concurrently.
///
/// # Examples
///
/// ```
/// use apc_registers::snapshot::SwmrSnapshot;
/// let snap = SwmrSnapshot::new(3, 0u64);
/// snap.update(1, 11);
/// assert_eq!(snap.scan(), vec![0, 11, 0]);
/// ```
pub struct SwmrSnapshot<T> {
    slots: Vec<AtomicCell<SnapEntry<T>>>,
    init: T,
    scans: AtomicU64,
    borrowed: AtomicU64,
}

impl<T: Clone> SwmrSnapshot<T> {
    /// Creates a snapshot object with `n` components initialized to `init`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, init: T) -> Self {
        assert!(n > 0, "snapshot needs at least one component");
        SwmrSnapshot {
            slots: (0..n).map(|_| AtomicCell::new()).collect(),
            init,
            scans: AtomicU64::new(0),
            borrowed: AtomicU64::new(0),
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Always false (at least one component).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Component `i`'s sequence number and value. The slot is borrowed, so
    /// the embedded scan next to the value is not copied.
    fn read_slot(&self, i: usize) -> (u64, T) {
        self.slots[i].load_with(|entry| match entry {
            Some(entry) => (entry.seq, entry.value.clone()),
            None => (0, self.init.clone()),
        })
    }

    fn collect_seqs(&self) -> Vec<(u64, T)> {
        (0..self.len()).map(|i| self.read_slot(i)).collect()
    }

    /// Updates component `i` to `value`.
    ///
    /// Performs an embedded [`scan`](Self::scan) first, making concurrent
    /// scans wait-free.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[progress(wait_free)]
    pub fn update(&self, i: usize, value: T) {
        let embedded = self.scan();
        let seq = self.slots[i].load_with(|entry| entry.map_or(0, |entry| entry.seq)) + 1;
        self.slots[i].store(SnapEntry { seq, value, embedded });
    }

    /// Returns an atomic snapshot of all components.
    ///
    /// Wait-free: after at most `n` observed interferences the scan borrows
    /// an embedded snapshot written entirely inside its own interval.
    #[progress(wait_free)]
    pub fn scan(&self) -> Vec<T> {
        // RELAXED: diagnostic counter; snapshot correctness rests on the
        // double collect below, not on this increment's ordering.
        self.scans.fetch_add(1, Ordering::Relaxed);
        let n = self.len();
        let mut moved = vec![0u32; n];
        let mut previous = self.collect_seqs();
        loop {
            let current = self.collect_seqs();
            let clean =
                previous.iter().zip(current.iter()).all(|((seq_a, _), (seq_b, _))| seq_a == seq_b);
            if clean {
                // Successful double collect: the values coexisted.
                return current.into_iter().map(|(_, v)| v).collect();
            }
            for i in 0..n {
                if previous[i].0 != current[i].0 {
                    moved[i] += 1;
                    if moved[i] >= 2 {
                        // Component i's writer performed a complete update
                        // inside this scan: borrow its embedded snapshot.
                        // RELAXED: diagnostic counter only.
                        self.borrowed.fetch_add(1, Ordering::Relaxed);
                        let embedded =
                            self.slots[i].load_with(|entry| entry.map(|e| e.embedded.clone()));
                        if let Some(embedded) = embedded {
                            return embedded;
                        }
                    }
                }
            }
            previous = current;
        }
    }

    /// Reads a single component (a plain register read, not a snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[progress(wait_free)]
    pub fn read(&self, i: usize) -> T {
        self.read_slot(i).1
    }

    /// Diagnostic: `(total scans started, scans resolved by borrowing)`.
    pub fn scan_stats(&self) -> (u64, u64) {
        // RELAXED: diagnostic counters; stale reads are fine.
        (self.scans.load(Ordering::Relaxed), self.borrowed.load(Ordering::Relaxed))
    }
}

impl<T: Clone + fmt::Debug> fmt::Debug for SwmrSnapshot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwmrSnapshot").field("components", &self.scan()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn initial_scan_is_all_init() {
        let snap = SwmrSnapshot::new(4, 9u32);
        assert_eq!(snap.scan(), vec![9, 9, 9, 9]);
    }

    #[test]
    fn update_visible_in_scan_and_read() {
        let snap = SwmrSnapshot::new(2, 0u32);
        snap.update(0, 5);
        assert_eq!(snap.read(0), 5);
        assert_eq!(snap.read(1), 0);
        assert_eq!(snap.scan(), vec![5, 0]);
    }

    #[test]
    fn sequential_updates_monotone() {
        let snap = SwmrSnapshot::new(1, 0u32);
        for v in 1..=10 {
            snap.update(0, v);
            assert_eq!(snap.scan(), vec![v]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn zero_components_rejected() {
        let _ = SwmrSnapshot::new(0, 0u8);
    }

    #[test]
    fn concurrent_scans_see_monotone_counters() {
        // Each writer increments its own component; snapshots must be
        // component-wise monotone over time for a fixed scanner (a standard
        // atomicity consequence for monotone writers).
        let n = 4;
        let snap = Arc::new(SwmrSnapshot::new(n, 0u64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for i in 0..n {
                let snap = Arc::clone(&snap);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut v = 0;
                    while !stop.load(Ordering::Relaxed) {
                        v += 1;
                        snap.update(i, v);
                    }
                });
            }
            let scanner = Arc::clone(&snap);
            let stopper = Arc::clone(&stop);
            s.spawn(move || {
                let mut last = vec![0u64; n];
                for _ in 0..2000 {
                    let now = scanner.scan();
                    for i in 0..n {
                        assert!(
                            now[i] >= last[i],
                            "component {i} went backwards: {:?} -> {:?}",
                            last,
                            now
                        );
                    }
                    last = now;
                }
                stopper.store(true, Ordering::Relaxed);
            });
        });
    }

    /// A value whose `Clone` counts, to price a collect.
    #[derive(Debug)]
    struct Counted(u32, Arc<AtomicU64>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.1.fetch_add(1, Ordering::Relaxed);
            Counted(self.0, Arc::clone(&self.1))
        }
    }

    #[test]
    fn an_update_clones_values_and_never_an_embedded_scan() {
        let n = 8;
        let clones = Arc::new(AtomicU64::new(0));
        let snap = SwmrSnapshot::new(n, Counted(0, Arc::clone(&clones)));
        for i in 0..n {
            snap.update(i, Counted(1, Arc::clone(&clones)));
        }
        // Every slot now carries an n-value embedded scan. One more update
        // is one clean double collect: 2n value clones. Cloning the slots
        // whole would add n more for each of them.
        let before = clones.load(Ordering::Relaxed);
        snap.update(3, Counted(2, Arc::clone(&clones)));
        assert_eq!(clones.load(Ordering::Relaxed) - before, 2 * n as u64);
        let before = clones.load(Ordering::Relaxed);
        assert_eq!(snap.read(3).0, 2);
        assert_eq!(clones.load(Ordering::Relaxed) - before, 1);
    }

    #[test]
    fn scan_stats_track_borrowing() {
        let snap = SwmrSnapshot::new(2, 0u8);
        let _ = snap.scan();
        let (scans, borrowed) = snap.scan_stats();
        assert!(scans >= 1);
        assert_eq!(borrowed, 0, "no contention, no borrowing");
    }
}
