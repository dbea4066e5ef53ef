//! The reactor clock: time as the reactor experiences it.
//!
//! The driver and `StoreServer::poll` share one thread. The clock counts
//! only the measured duration of each `poll()` call, so whatever the
//! driver does between turns — generating, encoding, decoding, checking —
//! cannot appear in a latency, and the load generator cannot run late.
//!
//! The part of a turn the thread spent computing is counted at reference
//! machine speed (see `reference.rs`), so that offered load and latencies
//! do not move with the host's mood; the part it spent off the CPU —
//! waiting for an fsync or a lock — is counted as measured, because a
//! disk does not slow down when a neighbour takes the core.

use std::time::Instant;

use crate::sys::thread_cpu_ns;

/// Off-CPU time below this is clock jitter, not a wait.
const WAIT_FLOOR_NS: u64 = 20_000;

/// Nanoseconds of reactor time since the run began.
#[derive(Debug)]
pub struct ReactorClock {
    now_ns: u64,
    /// What two thread-CPU-clock reads around an empty turn report.
    cpu_clock_cost_ns: u64,
}

/// One turn's duration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Turn {
    /// As measured.
    pub wall_ns: u64,
    /// The part of `wall_ns` the thread spent off the CPU.
    pub waited_ns: u64,
    /// On the reactor clock: computing at reference speed plus waiting
    /// as measured.
    pub ns: u64,
    pub started: Instant,
}

impl Default for ReactorClock {
    fn default() -> ReactorClock {
        let mut cost = u64::MAX;
        for _ in 0..64 {
            if let (Some(from), Some(to)) = (thread_cpu_ns(), thread_cpu_ns()) {
                cost = cost.min(to - from);
            }
        }
        ReactorClock { now_ns: 0, cpu_clock_cost_ns: if cost == u64::MAX { 0 } else { cost } }
    }
}

impl ReactorClock {
    pub fn now(&self) -> u64 {
        self.now_ns
    }

    /// Runs one reactor turn and advances the clock by the time it took:
    /// its CPU time divided by `slowdown` (1.0 leaves it as measured)
    /// plus its off-CPU time as measured.
    pub fn turn<R>(&mut self, slowdown: f64, poll: impl FnOnce() -> R) -> (R, Turn) {
        let cpu_from = thread_cpu_ns();
        let started = Instant::now();
        let result = poll();
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let waited_ns = match (cpu_from, thread_cpu_ns()) {
            (Some(from), Some(to)) => {
                let cpu = (to - from).saturating_sub(self.cpu_clock_cost_ns);
                Some(wall_ns.saturating_sub(cpu)).filter(|w| *w >= WAIT_FLOOR_NS).unwrap_or(0)
            }
            // No thread CPU clock: the whole turn counts as computing.
            _ => 0,
        };
        let ns = ((wall_ns - waited_ns) as f64 / slowdown).round() as u64 + waited_ns;
        self.now_ns += ns;
        (result, Turn { wall_ns, waited_ns, ns, started })
    }

    /// Skips idle time: with nothing outstanding the reactor would only
    /// spin until the next arrival, so the clock moves straight to it.
    /// Never moves backwards.
    pub fn skip_idle_until(&mut self, due_ns: u64) {
        self.now_ns = self.now_ns.max(due_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(for_ms: u64) {
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(for_ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn the_clock_advances_only_inside_a_turn() {
        let mut clock = ReactorClock::default();
        // Driver work between turns costs wall time and no reactor time.
        spin(5);
        assert_eq!(clock.now(), 0);
        let ((), turn) = clock.turn(1.0, || spin(2));
        assert!(turn.ns >= 2_000_000, "the turn itself is counted in full");
        assert_eq!((clock.now(), turn.wall_ns), (turn.ns, turn.ns));
        spin(5);
        assert_eq!(clock.now(), turn.ns, "and nothing after it");
        let (_, again) = clock.turn(1.0, || ());
        assert_eq!(clock.now(), turn.ns + again.ns);
    }

    #[test]
    fn computing_counts_at_reference_speed_and_waiting_as_measured() {
        let Some(cpu_from) = thread_cpu_ns() else { return };
        let mut clock = ReactorClock::default();
        // 4 ms of this thread's CPU time, however often it is preempted.
        let burn = || {
            while thread_cpu_ns().is_some_and(|now| now - cpu_from < 4_000_000) {
                std::hint::spin_loop();
            }
        };
        let ((), computing) = clock.turn(1.25, burn);
        let saved = (computing.wall_ns - computing.ns) as f64;
        assert!(
            (saved - 800_000.0).abs() < 120_000.0,
            "4 ms of computing at 1.25x should count 0.8 ms less, not {saved} ns less"
        );
        let ((), waiting) = clock.turn(1.25, || std::thread::sleep(Duration::from_millis(4)));
        assert!(
            waiting.wall_ns - waiting.ns < 100_000,
            "4 ms of sleeping counts in full whatever the machine's speed: {} of {} ns",
            waiting.ns,
            waiting.wall_ns
        );
        assert!(waiting.waited_ns >= 3_900_000, "and is reported as waited");
    }

    #[test]
    fn idle_skips_move_forward_only() {
        let mut clock = ReactorClock::default();
        clock.skip_idle_until(1_000);
        assert_eq!(clock.now(), 1_000);
        clock.skip_idle_until(400);
        assert_eq!(clock.now(), 1_000);
    }
}
