//! Allocation-free atomic register for small values.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use apc_progress_macros::progress;

/// The sentinel encoding `⊥` inside the packed word.
const BOT: u64 = u64::MAX;

/// A lock-free, allocation-free MWMR register holding `Option<u64>` values
/// in `0 ..= u64::MAX - 1` (one sentinel value encodes `⊥`).
///
/// A multi-writer register for `Option<u64>` with no allocation — useful
/// in hot paths and benchmark baselines.
///
/// # Examples
///
/// ```
/// use apc_registers::PackedRegister;
/// let r = PackedRegister::new();
/// assert_eq!(r.load(), None);
/// r.store(7);
/// assert_eq!(r.load(), Some(7));
/// ```
pub struct PackedRegister {
    word: AtomicU64,
}

impl PackedRegister {
    /// Creates an empty (`⊥`) register.
    pub fn new() -> Self {
        PackedRegister { word: AtomicU64::new(BOT) }
    }

    /// Creates a register holding `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value == u64::MAX` (reserved for `⊥`).
    pub fn with_value(value: u64) -> Self {
        assert_ne!(value, BOT, "u64::MAX is reserved for ⊥");
        PackedRegister { word: AtomicU64::new(value) }
    }

    /// Reads the register.
    #[progress(wait_free)]
    pub fn load(&self) -> Option<u64> {
        decode(self.word.load(Ordering::Acquire))
    }

    /// Writes the register.
    ///
    /// # Panics
    ///
    /// Panics if `value == u64::MAX` (reserved for `⊥`).
    #[progress(wait_free)]
    pub fn store(&self, value: u64) {
        assert_ne!(value, BOT, "u64::MAX is reserved for ⊥");
        self.word.store(value, Ordering::Release);
    }

    /// Resets the register to `⊥`.
    #[progress(wait_free)]
    pub fn clear(&self) {
        self.word.store(BOT, Ordering::Release);
    }

    /// Sets the register to `value` only if it is `⊥`; returns whether this
    /// call installed the value.
    ///
    /// # Panics
    ///
    /// Panics if `value == u64::MAX` (reserved for `⊥`).
    #[progress(wait_free)]
    pub fn set_if_bot(&self, value: u64) -> bool {
        assert_ne!(value, BOT, "u64::MAX is reserved for ⊥");
        self.word.compare_exchange(BOT, value, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }
}

fn decode(word: u64) -> Option<u64> {
    if word == BOT {
        None
    } else {
        Some(word)
    }
}

impl Default for PackedRegister {
    fn default() -> Self {
        PackedRegister::new()
    }
}

impl fmt::Debug for PackedRegister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.load() {
            Some(v) => f.debug_tuple("PackedRegister").field(&v).finish(),
            None => f.debug_tuple("PackedRegister").field(&"⊥").finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_bot() {
        assert_eq!(PackedRegister::new().load(), None);
    }

    #[test]
    fn store_load() {
        let r = PackedRegister::new();
        r.store(0);
        assert_eq!(r.load(), Some(0));
        r.store(123);
        assert_eq!(r.load(), Some(123));
    }

    #[test]
    fn clear_works() {
        let r = PackedRegister::with_value(5);
        r.clear();
        assert_eq!(r.load(), None);
    }

    #[test]
    #[should_panic(expected = "reserved for ⊥")]
    fn max_value_rejected() {
        PackedRegister::new().store(u64::MAX);
    }

    #[test]
    fn set_if_bot_single_winner() {
        let r = Arc::new(PackedRegister::new());
        let mut winners = 0;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let r = Arc::clone(&r);
                    s.spawn(move || r.set_if_bot(t))
                })
                .collect();
            for h in handles {
                if h.join().unwrap() {
                    winners += 1;
                }
            }
        });
        assert_eq!(winners, 1);
    }

    #[test]
    fn debug_formats() {
        let r = PackedRegister::new();
        assert!(format!("{r:?}").contains("⊥"));
    }
}
