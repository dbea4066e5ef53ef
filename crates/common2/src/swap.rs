//! A lock-free swap register.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use apc_progress_macros::progress;

/// The sentinel encoding `⊥` inside the word, as in
/// `apc_registers::PackedRegister`.
const BOT: u64 = u64::MAX;

/// A wait-free swap register over `u64` values in `0 ..= u64::MAX - 1`
/// (consensus number 2); one sentinel value encodes `⊥`.
///
/// `swap` atomically exchanges the content with a new value and returns the
/// previous one; the returned values over concurrent swaps form a chain, a
/// property the tests verify. The register is one word: a swap allocates
/// nothing and pins no epoch.
///
/// # Examples
///
/// ```
/// use apc_common2::SwapCell;
/// let cell = SwapCell::new();
/// assert_eq!(cell.swap(1), None);
/// assert_eq!(cell.swap(2), Some(1));
/// ```
pub struct SwapCell {
    word: AtomicU64,
}

impl SwapCell {
    /// Creates an empty swap register.
    pub fn new() -> Self {
        SwapCell { word: AtomicU64::new(BOT) }
    }

    /// Creates a swap register holding `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value == u64::MAX` (reserved for `⊥`).
    pub fn with_value(value: u64) -> Self {
        assert_ne!(value, BOT, "u64::MAX is reserved for ⊥");
        SwapCell { word: AtomicU64::new(value) }
    }

    /// Atomically installs `value`, returning the previous content.
    ///
    /// Uses `SeqCst`, as [`crate::TestAndSet`] does: a Common2 consensus
    /// protocol orders a register write before the swap and a register
    /// read after it.
    ///
    /// # Panics
    ///
    /// Panics if `value == u64::MAX` (reserved for `⊥`).
    #[progress(wait_free)]
    pub fn swap(&self, value: u64) -> Option<u64> {
        assert_ne!(value, BOT, "u64::MAX is reserved for ⊥");
        decode(self.word.swap(value, Ordering::SeqCst))
    }

    /// Reads the current content.
    #[progress(wait_free)]
    pub fn read(&self) -> Option<u64> {
        decode(self.word.load(Ordering::SeqCst))
    }
}

fn decode(word: u64) -> Option<u64> {
    (word != BOT).then_some(word)
}

impl Default for SwapCell {
    fn default() -> Self {
        SwapCell::new()
    }
}

impl fmt::Debug for SwapCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SwapCell").field(&self.read()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn sequential_chain() {
        let cell = SwapCell::new();
        assert_eq!(cell.swap(1), None);
        assert_eq!(cell.swap(2), Some(1));
        assert_eq!(cell.swap(3), Some(2));
        assert_eq!(cell.read(), Some(3));
    }

    #[test]
    fn with_value_starts_filled() {
        let cell = SwapCell::with_value(9);
        assert_eq!(cell.swap(1), Some(9));
    }

    #[test]
    fn concurrent_swaps_form_a_chain() {
        // Each swap returns the previous element: collecting (got -> put)
        // pairs must form one path covering all inserted values — i.e. every
        // value is returned at most once, and exactly one thread receives
        // `None` (the initial content).
        for _ in 0..100 {
            let cell: SwapCell = SwapCell::new();
            let results = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for t in 1..=8u64 {
                    let cell = &cell;
                    let results = &results;
                    s.spawn(move || {
                        let prev = cell.swap(t);
                        results.lock().unwrap().push((t, prev));
                    });
                }
            });
            let results = results.into_inner().unwrap();
            let nones = results.iter().filter(|(_, p)| p.is_none()).count();
            assert_eq!(nones, 1, "exactly one first swap: {results:?}");
            let mut returned: Vec<u64> = results.iter().filter_map(|(_, p)| *p).collect();
            returned.sort_unstable();
            returned.dedup();
            assert_eq!(returned.len(), results.len() - 1, "chain property: {results:?}");
            // The final content is one of the swapped values and was never
            // returned to anyone.
            let last = cell.read().unwrap();
            assert!(!returned.contains(&last));
        }
    }
}
