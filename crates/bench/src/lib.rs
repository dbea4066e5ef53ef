//! # `apc-bench` — benchmark harness support
//!
//! Shared helpers for the criterion benches in `benches/`, which price the
//! paper-level constructions. They are ungated; the store and its wire are
//! measured by the stand-alone `benchmark/` workspace (`BENCHMARK.json`).
//!
//! | bench target | experiment |
//! |---|---|
//! | `consensus` | E7 — obstruction-free vs wait-free vs asymmetric latency |
//! | `arbiter` | E1/E9 — arbitrate latency vs camp sizes |
//! | `group` | E2/E9 — group consensus vs (n, x) and first-group index |
//! | `universal` | E8 — asymmetric universal object: VIP vs guest latency |
//! | `registers` | substrate — cells, stamped registers, snapshots |
//! | `model_checking` | E3/E5 — cost of exhaustive verification & valence |

#![forbid(unsafe_code)]

use std::sync::Mutex;

/// Runs `f(pid)` on `n` scoped threads and returns per-thread wall times in
/// nanoseconds — the building block of the contended benches.
pub fn timed_threads<F>(n: usize, f: F) -> Vec<u64>
where
    F: Fn(usize) + Sync,
{
    let times = Mutex::new(vec![0u64; n]);
    std::thread::scope(|s| {
        for pid in 0..n {
            let f = &f;
            let times = &times;
            s.spawn(move || {
                let t0 = std::time::Instant::now();
                f(pid);
                let dt = t0.elapsed().as_nanos() as u64;
                times.lock().unwrap()[pid] = dt;
            });
        }
    });
    times.into_inner().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_threads_reports_all() {
        let times = timed_threads(4, |_pid| {
            std::hint::black_box(1 + 1);
        });
        assert_eq!(times.len(), 4);
    }
}
