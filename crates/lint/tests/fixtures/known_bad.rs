//! Known-bad fixture: one deliberate violation per rule.
//!
//! Never compiled — consumed by `tests/fixtures.rs` through
//! [`apc_lint::analyze_files`]. Expected findings:
//!
//! * `progress` — `entry` (wait-free) reaches `Mutex::lock` two call hops
//!   down (`entry → mid → deep`);
//! * `relaxed` — `Ordering::Relaxed` without a `// RELAXED:` justification;
//! * `panic` — `.unwrap()` in a strong-class (`lock_free`) body;
//! * `safety` — an `unsafe` block without a `// SAFETY:` comment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub struct Bad {
    mu: Mutex<u64>,
    n: AtomicU64,
}

impl Bad {
    #[apc_progress_macros::progress(wait_free)]
    pub fn entry(&self) -> u64 {
        self.mid()
    }

    fn mid(&self) -> u64 {
        self.deep()
    }

    fn deep(&self) -> u64 {
        *self.mu.lock().unwrap()
    }

    #[apc_progress_macros::progress(wait_free)]
    pub fn relaxed_unjustified(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }

    #[apc_progress_macros::progress(lock_free)]
    pub fn panicky(&self) -> u64 {
        self.try_value().unwrap()
    }

    fn try_value(&self) -> Option<u64> {
        Some(1)
    }

}

pub fn read_raw(p: *const u64) -> u64 {
    unsafe { *p }
}
