//! Fixture: **a shard map whose read path is not what its callers claim.**
//! `apc-store`'s VIP read reaches its ordered map through a field of a
//! known type (`state.map.get(key)`), so the sweep follows the call into
//! the map's own methods; they are held to the reader's class like any
//! other callee. Here the map's `get` takes a lock (reached from a
//! `bounded_wait_free` read two hops up) and its annotated `range` leans
//! on `expect` — the two ways a packed layout could quietly break the
//! read path: a latch around a leaf, or an index it trusts.
//!
//! Never compiled — consumed by `tests/fixtures.rs` through
//! [`apc_lint::analyze_files`]. Expected findings: one `progress`
//! violation (`read_vip → read_get → get → lock`) and one `panic`
//! violation (`LatchedMap::range` uses `expect`).

use std::sync::Mutex;

pub struct LatchedMap {
    fence: Vec<String>,
    leaves: Mutex<Vec<(String, u64)>>,
}

impl LatchedMap {
    /// Unannotated, so the sweep walks through it — and finds the latch.
    pub fn get(&self, key: &str) -> Option<u64> {
        let leaves = self.leaves.lock().ok()?;
        leaves.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Annotated, so its own body is held to the no-panic standard.
    #[apc_progress_macros::progress(wait_free)]
    pub fn range(&self, from: &str) -> usize {
        let first = self.fence.first().expect("a map has a first leaf");
        usize::from(first.as_str() < from)
    }
}

pub struct Replica {
    map: LatchedMap,
}

fn read_get(state: &Replica, key: &str) -> Option<u64> {
    state.map.get(key)
}

pub struct Port {
    replica: Replica,
}

impl Port {
    #[apc_progress_macros::progress(bounded_wait_free)]
    pub fn read_vip(&self, key: &str) -> Option<u64> {
        read_get(&self.replica, key)
    }
}
