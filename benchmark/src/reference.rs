//! The machine-speed reference: two small fixed kernels timed between
//! reactor turns, so that reactor time can be expressed at a reference
//! machine speed.
//!
//! The sandbox runs the same instructions 10–25% slower or faster from
//! one minute to the next. It is not time off the CPU: a fixed
//! memory-bound loop took 102–137 ms (5th to 95th percentile over a
//! minute) of *thread CPU time*, within 1% of its wall time, and a
//! compute-bound one moved a third as much. Whole runs sit in one mood,
//! so longer runs and medians do not remove it, and the benchmark's
//! contract refuses a metric whose ten-run spread exceeds 25%. Measured
//! clock against this one, interleaved on the same seeds (24 runs each
//! per workload), the widest ten-run spread of `guest_p50_us` on
//! `read-scan` was 44% against 11%, of `busy_us_per_req` on
//! `guest-flood` 22% against 8%; on `mixed-steady` the two were level.
//!
//! The yardstick is a compute-bound kernel (sorting and hashing in a
//! small buffer) and a memory-bound one (a B-tree of 100 000 string keys,
//! mostly cache misses, like the store's own maps), combined as their
//! geometric mean because the store's work is a mix of both. The kernels
//! are plain standard-library code in this crate and touch no allocator
//! after they are built, so the state the store leaves the heap in does
//! not move them. They do share the caches with the store: a change that
//! makes the store's footprint much larger would slow the tree kernel a
//! little and so hide a part of its own cost. `harness.slowdown` is
//! reported so that the measured figures can be had back.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use crate::stats::median;

/// The score of the sandbox this benchmark was written on when it is
/// quiet. It only fixes the unit: a factor of 1.0 means "as fast as
/// that", and no comparison on one machine depends on it.
pub const REFERENCE_SCORE_NS: f64 = 150_000.0;
/// Wall time between two measurements.
const INTERVAL: Duration = Duration::from_millis(10);
/// The factor is the median over this many latest scores.
const WINDOW: usize = 63;
const MAP_KEYS: u32 = 100_000;
const OPS: usize = 256;
const SORT_LEN: usize = 512;
const SORT_ROUNDS: usize = 8;

pub struct Reference {
    keys: Vec<String>,
    map: BTreeMap<String, u64>,
    scratch: Vec<u64>,
    rng: u64,
    recent: VecDeque<f64>,
    /// `recent` in order, kept so that taking a median allocates nothing.
    sorted: Vec<f64>,
    last: Instant,
    factor: f64,
}

impl Reference {
    /// Builds the kernels' data and takes a full window of scores.
    pub fn new() -> Reference {
        let keys: Vec<String> = (0..MAP_KEYS).map(|k| format!("k{k:07}")).collect();
        let map = keys.iter().cloned().zip(0..).collect();
        let mut reference = Reference {
            keys,
            map,
            scratch: vec![0; SORT_LEN],
            rng: 0x9e37_79b9_7f4a_7c15,
            recent: VecDeque::with_capacity(WINDOW + 1),
            sorted: Vec::with_capacity(WINDOW + 1),
            last: Instant::now(),
            factor: 1.0,
        };
        for _ in 0..WINDOW {
            reference.measure();
        }
        reference
    }

    /// How much slower than the reference the machine is running now:
    /// 1.2 means everything takes 1.2 times as long.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Takes a score if [`INTERVAL`] has passed since the last.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.measure();
        }
    }

    fn measure(&mut self) {
        let churn = self.churn();
        let tree = self.tree();
        self.recent.push_back((churn * tree).sqrt());
        if self.recent.len() > WINDOW {
            self.recent.pop_front();
        }
        self.sorted.clear();
        self.sorted.extend(&self.recent);
        self.factor = median(&mut self.sorted) / REFERENCE_SCORE_NS;
        self.last = Instant::now();
    }

    fn next(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.rng >> 16
    }

    /// Compute-bound: fill a small buffer, sort it, fold it.
    fn churn(&mut self) -> f64 {
        let started = Instant::now();
        let mut fold = 0u64;
        for _ in 0..SORT_ROUNDS {
            for i in 0..SORT_LEN {
                self.scratch[i] = self.next();
            }
            self.scratch.sort_unstable();
            fold = self.scratch.iter().fold(fold, |h, v| (h ^ v).wrapping_mul(0x100_0000_01b3));
        }
        std::hint::black_box(fold);
        started.elapsed().as_nanos() as f64
    }

    /// Memory-bound: look up and overwrite random keys of a B-tree too
    /// large for the cache.
    fn tree(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..OPS {
            let k = (self.next() % u64::from(MAP_KEYS)) as usize;
            if k.is_multiple_of(2) {
                std::hint::black_box(self.map.get(&self.keys[k]));
            } else if let Some(value) = self.map.get_mut(&self.keys[k]) {
                *value = self.rng;
            }
        }
        started.elapsed().as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_positive_and_follows_fresh_scores() {
        let mut reference = Reference::new();
        assert_eq!(reference.recent.len(), WINDOW);
        assert!(reference.factor() > 0.0);
        // Not due yet: nothing is measured.
        let before = reference.recent.clone();
        reference.tick();
        assert_eq!(reference.recent, before);
        std::thread::sleep(INTERVAL);
        reference.tick();
        assert_ne!(reference.recent, before);
        assert_eq!(reference.recent.len(), WINDOW);
    }
}
