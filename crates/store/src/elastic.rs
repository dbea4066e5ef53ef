//! The elasticity policy: when to split a hot shard and when to merge a
//! cold child back, decided from wait-free stats with hysteresis.
//!
//! The engine is **passive**: it owns no thread, and no commit drives it.
//! Its owner keeps it and hands it to
//! [`Store::rebalance`](crate::store::Store::rebalance) at whatever cadence
//! it likes, as it would call a split or a checkpoint. Each call is one
//! evaluation: it reads the per-shard heat deltas since the previous
//! evaluation out of the wait-free
//! [`snapshot_stats`](crate::store::Store::snapshot_stats) digests and
//! produces an [`ElasticDecision`], which the store applies under its admin
//! lock. Heat counts every tier's cells and local reads, and it is also the
//! engine's clock: [`ElasticityPolicy::min_window`] and
//! [`ElasticityPolicy::cooldown`] are both counted in it.
//!
//! Thrash control is two-fold, mirroring every control-loop textbook:
//!
//! * **hysteresis** — the split trigger (a shard drawing more than half of
//!   the evaluation window's total commits) and the merge trigger (a child
//!   drawing less than a quarter of the fair share) are far apart, so a
//!   shard sitting near the fair share triggers neither; and
//! * **a cool-down epoch** — after any reconfiguration the engine holds
//!   for [`ElasticityPolicy::cooldown`] units of heat, so an oscillating load
//!   can force at most one reconfiguration per cool-down window (unit
//!   tested with a synthetic oscillating trace below).
//!
//! Merge candidates additionally have to be structurally eligible
//! ([`ShardTopology::check_merge`]): a live leaf that is the last live
//! child of its parent — the policy unwinds splits in reverse, a ratchet
//! that loosens the way it tightened.

use crate::router::ShardTopology;
use crate::store::ShardDigest;

/// The **up** threshold: split the hottest live shard when its share of the
/// window's total commits exceeds this fraction — one shard carrying half
/// the store's traffic melts.
///
/// Deliberately a **fraction of the window's total traffic**, not a
/// multiple of the fair share: a fair-share baseline (`total /
/// live_shards`) shrinks as the topology grows, so any
/// concentrated-but-steady workload would look ever more "skewed" after
/// each split and the driver would run away to [`MAX_SHARDS`]. A total-share
/// trigger is scale-free — a shard that draws half of *all* traffic is
/// worth splitting whether the store has 4 shards or 40, and a shard that
/// draws a third of it never is.
const SPLIT_SHARE: f64 = 0.5;

/// The **down** threshold: merge an eligible child when its window delta
/// falls below this fraction of the fair share (`total / live_shards`).
///
/// Fair-share-relative (a cold child is one doing far less than its fair
/// part), which is equally scale-free in the other direction: under
/// uniform load every shard sits at exactly the fair share, so nothing
/// merges no matter how many shards there are. It must stay well below
/// 1.0: the distance between the two thresholds is the hysteresis band.
const MERGE_RATIO: f64 = 0.25;

/// The driver never grows the topology beyond this many shard slots (live
/// and retired).
const MAX_SHARDS: usize = 64;

/// Tuning knobs of the split/merge policy. The two trigger
/// thresholds are not among them: they are fixed (split above half of the
/// window's total commits, merge below a quarter of the fair share), so
/// the hysteresis band between them cannot be configured away.
///
/// One honest limitation: hotness below the router's resolution — a
/// single melted **key** — cannot be relieved by splitting (the hot key
/// lands wholly on one side). The cool-down and `MAX_SHARDS` (64) bound the
/// damage; fixing it takes key-level load tracking, which the wait-free
/// digests deliberately do not do.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ElasticityPolicy {
    /// Minimum heat a decision window must contain. Evaluations whose
    /// accumulated window is smaller just keep accumulating — deciding on
    /// a short window mistakes one thread's scheduler burst (which lands
    /// on one shard) for key-space skew. Size it to several times the
    /// longest plausible per-client burst.
    pub min_window: u64,
    /// Heat to hold for after any reconfiguration (the cool-down epoch):
    /// at most one split or merge per this much heat, summed over every
    /// shard, whatever tier made it.
    pub cooldown: u64,
}

impl Default for ElasticityPolicy {
    fn default() -> Self {
        ElasticityPolicy { min_window: 1024, cooldown: 512 }
    }
}

/// What one policy evaluation decided.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ElasticDecision {
    /// Split this (hottest) shard.
    Split(usize),
    /// Merge this (cold, structurally eligible) child into its parent.
    Merge(usize),
    /// Do nothing this window.
    Hold,
}

/// Running totals of an engine, for dashboards and assertions.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ElasticReport {
    /// Policy evaluations performed.
    pub evaluations: u64,
    /// Splits the policy decided (and the store applied).
    pub splits: u64,
    /// Merges the policy decided (and the store applied).
    pub merges: u64,
    /// Evaluations suppressed by the cool-down epoch.
    pub cooled_down: u64,
}

/// The decision engine: policy + the observation baseline it diffs
/// against. Pure bookkeeping — it never touches a store, which is what
/// makes the hysteresis unit-testable with synthetic traces.
#[derive(Clone, Debug)]
pub struct ElasticEngine {
    policy: ElasticityPolicy,
    /// Per-shard commit digests at the previous evaluation (grows as the
    /// topology does; new shards baseline at 0).
    last_commits: Vec<u64>,
    /// No reconfiguration before this clock reading.
    hold_until: u64,
    report: ElasticReport,
}

impl ElasticEngine {
    /// An engine for `policy` with an empty observation baseline.
    pub fn new(policy: ElasticityPolicy) -> Self {
        ElasticEngine {
            policy,
            last_commits: Vec::new(),
            hold_until: 0,
            report: ElasticReport::default(),
        }
    }

    /// The engine's policy.
    pub fn policy(&self) -> &ElasticityPolicy {
        &self.policy
    }

    /// The running totals.
    pub fn report(&self) -> ElasticReport {
        self.report
    }

    /// Rebases the observation window: the next deltas are measured from
    /// the digests as they are now.
    fn rebase(&mut self, stats: &[ShardDigest]) {
        for (slot, d) in self.last_commits.iter_mut().zip(stats) {
            *slot = d.commits;
        }
    }

    /// One policy evaluation at clock reading `total` (the store's summed
    /// heat), over the current per-shard digests and topology.
    /// The observation window accumulates across evaluations until it
    /// holds at least [`ElasticityPolicy::min_window`] commits; the caller
    /// applies the decision and, on success, calls
    /// [`ElasticEngine::note_reconfigured`].
    pub fn evaluate(
        &mut self,
        total: u64,
        stats: &[ShardDigest],
        topology: &ShardTopology,
    ) -> ElasticDecision {
        self.report.evaluations += 1;
        // Window deltas accumulated since the last rebase (new shards
        // start at 0, so a mid-window newborn counts its whole digest —
        // correct: those commits happened inside this window).
        self.last_commits.resize(stats.len(), 0);
        let deltas: Vec<u64> = stats
            .iter()
            .zip(&self.last_commits)
            .map(|(d, &last)| d.commits.saturating_sub(last))
            .collect();
        if total < self.hold_until {
            // Discard the cooldown window's traffic: the reconfiguration
            // just changed what a balanced window even looks like.
            self.rebase(stats);
            self.report.cooled_down += 1;
            return ElasticDecision::Hold;
        }
        let live = topology.live_shards();
        let window: u64 =
            (0..stats.len()).filter(|&s| topology.is_live(s)).map(|s| deltas[s]).sum();
        if live == 0 || window < self.policy.min_window.max(1) {
            // Too small to distinguish key-space skew from one thread's
            // scheduler burst: keep accumulating, decide later.
            return ElasticDecision::Hold;
        }
        self.rebase(stats);
        let fair = window as f64 / live as f64;

        // Split half: the hottest live shard vs its share of the whole
        // window (scale-free — see `SPLIT_SHARE` for why not fair-share).
        if topology.shards() < MAX_SHARDS {
            if let Some((hot, &d)) = deltas
                .iter()
                .enumerate()
                .filter(|&(s, _)| topology.is_live(s))
                .max_by_key(|&(s, &d)| (d, s))
            {
                if d as f64 > SPLIT_SHARE * window as f64 {
                    return ElasticDecision::Split(hot);
                }
            }
        }

        // Merge half: the coldest structurally eligible child vs the fair
        // share. Eligibility (leaf + last live child) unwinds splits in
        // reverse; a cold shard that is not yet eligible waits its turn.
        // Roots are never eligible, so the last live shard never merges.
        let candidate = (0..topology.shards())
            .filter(|&s| topology.check_merge(s).is_ok())
            .min_by_key(|&s| (deltas[s], s));
        if let Some(cold) = candidate {
            if (deltas[cold] as f64) < MERGE_RATIO * fair {
                return ElasticDecision::Merge(cold);
            }
        }
        ElasticDecision::Hold
    }

    /// Records that the store applied `decision`: bumps the counters and
    /// opens a fresh cool-down window starting at `total`.
    pub fn note_reconfigured(&mut self, decision: ElasticDecision, total: u64) {
        match decision {
            ElasticDecision::Split(_) => self.report.splits += 1,
            ElasticDecision::Merge(_) => self.report.merges += 1,
            ElasticDecision::Hold => return,
        }
        self.hold_until = total + self.policy.cooldown;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests(commits: &[u64]) -> Vec<ShardDigest> {
        commits.iter().map(|&c| ShardDigest { commits: c, entries: 0 }).collect()
    }

    fn policy() -> ElasticityPolicy {
        // Tiny min_window: these tests feed synthetic ~100-commit windows
        // and probe the thresholds, not the accumulation.
        ElasticityPolicy { cooldown: 100, min_window: 1 }
    }

    #[test]
    fn skewed_window_splits_the_hottest_shard() {
        let topo = ShardTopology::fresh(4);
        let mut engine = ElasticEngine::new(policy());
        // Warm-up evaluation establishes the baseline.
        assert_eq!(engine.evaluate(0, &digests(&[0, 0, 0, 0]), &topo), ElasticDecision::Hold);
        // 97 of 100 commits on shard 2: 97% of the window > the 50% trigger.
        assert_eq!(
            engine.evaluate(100, &digests(&[1, 1, 97, 1]), &topo),
            ElasticDecision::Split(2)
        );
    }

    #[test]
    fn balanced_window_holds() {
        let topo = ShardTopology::fresh(4);
        let mut engine = ElasticEngine::new(policy());
        engine.evaluate(0, &digests(&[0, 0, 0, 0]), &topo);
        assert_eq!(
            engine.evaluate(100, &digests(&[25, 26, 24, 25]), &topo),
            ElasticDecision::Hold,
            "uniform load must not reconfigure"
        );
        assert_eq!(engine.report().splits, 0);
    }

    #[test]
    fn cold_eligible_child_merges() {
        let (topo, child) = ShardTopology::fresh(4).split(0).unwrap();
        let mut engine = ElasticEngine::new(policy());
        engine.evaluate(0, &digests(&[0, 0, 0, 0, 0]), &topo);
        // Load on everything except the child (and it is the only
        // structurally eligible candidate).
        assert_eq!(
            engine.evaluate(100, &digests(&[25, 25, 25, 25, 0]), &topo),
            ElasticDecision::Merge(child)
        );
    }

    #[test]
    fn cold_root_never_merges() {
        let topo = ShardTopology::fresh(4);
        let mut engine = ElasticEngine::new(policy());
        engine.evaluate(0, &digests(&[0, 0, 0, 0]), &topo);
        // Shard 3 is stone cold but a root: hold. (Not a split either —
        // the hottest shard draws only 34% of the window.)
        assert_eq!(engine.evaluate(100, &digests(&[33, 33, 34, 0]), &topo), ElasticDecision::Hold);
    }

    #[test]
    fn max_shards_caps_the_split() {
        let topo = ShardTopology::fresh(MAX_SHARDS);
        let mut engine = ElasticEngine::new(policy());
        let mut commits = vec![0; MAX_SHARDS];
        engine.evaluate(0, &digests(&commits), &topo);
        commits[0] = 97;
        assert_eq!(
            engine.evaluate(100, &digests(&commits), &topo),
            ElasticDecision::Hold,
            "at the slot cap even a melted shard holds"
        );
    }

    #[test]
    fn cooldown_suppresses_and_then_releases() {
        let topo = ShardTopology::fresh(4);
        let mut engine = ElasticEngine::new(policy()); // cooldown 100
        engine.evaluate(0, &digests(&[0, 0, 0, 0]), &topo);
        let d = engine.evaluate(16, &digests(&[16, 0, 0, 0]), &topo);
        assert_eq!(d, ElasticDecision::Split(0));
        engine.note_reconfigured(d, 16);
        // Inside the window: suppressed despite identical skew.
        assert_eq!(engine.evaluate(100, &digests(&[100, 0, 0, 0]), &topo), ElasticDecision::Hold);
        assert_eq!(engine.report().cooled_down, 1);
        // Past the window: free to act again.
        assert_eq!(
            engine.evaluate(116, &digests(&[200, 0, 0, 0]), &topo),
            ElasticDecision::Split(0)
        );
    }

    /// The headline hysteresis guarantee: a synthetic oscillating load
    /// (hot ↔ cold every evaluation) can force at most one
    /// reconfiguration per cool-down window — the driver never thrashes.
    #[test]
    fn oscillating_load_reconfigures_at_most_once_per_cooldown_window() {
        let cooldown = 200u64;
        let step = 20u64; // commits per evaluation window
        let mut engine = ElasticEngine::new(ElasticityPolicy { cooldown, min_window: 1 });
        let mut topo = ShardTopology::fresh(4);
        let mut commits = vec![0u64; 4];
        let mut reconfig_times: Vec<u64> = Vec::new();
        let mut total = 0u64;
        for round in 0..200 {
            total += step;
            commits.resize(topo.shards(), 0);
            if round % 2 == 0 {
                // Hot phase: everything lands on shard 0.
                commits[0] += step;
            } else {
                // Cold phase: everything lands away from shard 0's subtree.
                commits[1] += step / 2;
                commits[2] += step - step / 2;
            }
            let d = engine.evaluate(total, &digests(&commits), &topo);
            match d {
                ElasticDecision::Split(s) => {
                    let (bumped, _) = topo.split(s).unwrap();
                    topo = bumped;
                    engine.note_reconfigured(d, total);
                    reconfig_times.push(total);
                }
                ElasticDecision::Merge(s) => {
                    let (bumped, _) = topo.merge(s).expect("engine only proposes eligible merges");
                    topo = bumped;
                    engine.note_reconfigured(d, total);
                    reconfig_times.push(total);
                }
                ElasticDecision::Hold => {}
            }
        }
        assert!(!reconfig_times.is_empty(), "the oscillation must trigger at least one reconfig");
        for pair in reconfig_times.windows(2) {
            assert!(
                pair[1] - pair[0] >= cooldown,
                "reconfigs at {} and {} violate the {}-commit cool-down",
                pair[0],
                pair[1],
                cooldown
            );
        }
        let report = engine.report();
        assert_eq!(report.splits + report.merges, reconfig_times.len() as u64);
        assert!(report.cooled_down > 0, "the oscillation must actually hit the cool-down");
        // Convergence, not runaway: the swings are bounded (at most one
        // reconfig per window), so the topology stays small.
        assert!(topo.shards() <= 4 + reconfig_times.len());
    }

    /// The burst-resistance property: short windows accumulate instead of
    /// deciding, so a scheduler burst that lands one client's stream on
    /// one shard does not read as key-space skew. Three consecutive
    /// 100-commit bursts on three *different* shards must yield one
    /// balanced 300-commit window — and Hold — where deciding per burst
    /// would have split three times.
    #[test]
    fn short_bursts_accumulate_instead_of_splitting() {
        let topo = ShardTopology::fresh(3);
        let mut engine = ElasticEngine::new(ElasticityPolicy { min_window: 300, ..policy() });
        engine.evaluate(0, &digests(&[0, 0, 0]), &topo);
        // Burst 1: all on shard 0. Too small to decide.
        assert_eq!(engine.evaluate(100, &digests(&[100, 0, 0]), &topo), ElasticDecision::Hold);
        // Burst 2: all on shard 1. Still accumulating.
        assert_eq!(engine.evaluate(200, &digests(&[100, 100, 0]), &topo), ElasticDecision::Hold);
        // Burst 3 completes a 300-commit window that is perfectly
        // balanced: Hold, with the window consumed.
        assert_eq!(engine.evaluate(300, &digests(&[100, 100, 100]), &topo), ElasticDecision::Hold);
        // A genuinely skewed full-size window still splits.
        assert_eq!(
            engine.evaluate(600, &digests(&[400, 100, 100]), &topo),
            ElasticDecision::Split(0)
        );
    }

    #[test]
    fn new_shards_baseline_at_zero_without_phantom_deltas() {
        let topo = ShardTopology::fresh(3);
        let mut engine = ElasticEngine::new(policy());
        engine.evaluate(0, &digests(&[0, 0, 0]), &topo);
        let (grown, _) = topo.split(0).unwrap();
        // The child appears mid-flight with 10 absolute commits; its whole
        // digest counts as this window's delta — which is correct, those
        // commits did happen since the last evaluation. The window is
        // balanced enough to hold (and the child is too warm to merge).
        let d = engine.evaluate(100, &digests(&[30, 30, 30, 10]), &grown);
        assert_eq!(d, ElasticDecision::Hold, "balanced across the grown topology");
        // And the next window diffs against the recorded baseline: shard 0
        // alone draws 100 of 100 commits (4× the fair share of 25).
        assert_eq!(
            engine.evaluate(200, &digests(&[130, 30, 30, 10]), &grown),
            ElasticDecision::Split(0)
        );
    }
}
