//! Fixture: **the class rides a closure** — what `apc-store`'s one
//! execute path and one re-plan driver rest on. An unannotated
//! higher-order fn (`each_shard`) serves both tiers; which commit runs is
//! decided by the closure its caller hands it, and apc-lint scans a
//! closure body as part of the fn it is written in. `serve_mislabelled`
//! claims `bounded_wait_free` while its closure names the
//! obstruction-free commit and must be a finding; `serve_vip`, the same
//! shape naming the bounded commit, must be clean. Inside `each_shard`
//! the closure is called by its parameter name, which resolves to no fn.
//!
//! Never compiled — consumed by `tests/fixtures.rs` through
//! [`apc_lint::analyze_files`]. Expected findings: exactly one `progress`
//! violation (`serve_mislabelled` calls `commit_queued`).

pub struct Shards {
    cells: Vec<u64>,
}

impl Shards {
    #[apc_progress_macros::progress(bounded_wait_free)]
    pub fn serve_mislabelled(&self, batch: u64) -> u64 {
        // Wrong: the closure is this fn's body, and it queues.
        self.each_shard(|shard| self.commit_queued(shard, batch))
    }

    #[apc_progress_macros::progress(bounded_wait_free)]
    pub fn serve_vip(&self, batch: u64) -> u64 {
        self.each_shard(|shard| self.commit_owned(shard, batch))
    }

    fn each_shard(&self, mut commit_sub: impl FnMut(usize) -> u64) -> u64 {
        (0..self.cells.len()).map(|shard| commit_sub(shard)).sum()
    }

    #[apc_progress_macros::progress(bounded_wait_free)]
    fn commit_owned(&self, shard: usize, batch: u64) -> u64 {
        self.cells[shard] + batch
    }

    #[apc_progress_macros::progress(obstruction_free)]
    fn commit_queued(&self, shard: usize, batch: u64) -> u64 {
        self.cells[shard] + batch
    }
}
