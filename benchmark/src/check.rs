//! Correctness of the program's outputs, checked on every run.
//!
//! Every written value is unique, `Put` answers with the value it
//! replaced and a successful `Cas` with the value it expected, so for
//! each key the acknowledged writes must link into one chain from the
//! preload value: a lost write leaves two writes replacing the same
//! value, a doubled one writes a value twice, and a value from nowhere
//! leaves a write the chain never reaches. Reads must land on the chain,
//! a final read-back on its end, and after a crash the recovered value
//! no earlier than the key's last `Sync`-acknowledged write.

use apc_net::WireResult;
use apc_store::{StoreError, StoreResp};

use crate::stream::{key_name, preload_value, OpSpec, ReqSpec};

/// One acknowledged write: `new` replaced `prev` on `key`, answered in
/// reactor turn `turn`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Write {
    pub key: u32,
    pub turn: u32,
    pub prev: u64,
    pub new: u64,
}

/// How a request ended.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    Ok,
    /// Refused with the typed 429 (`RetryBudgetExhausted`).
    Shed,
    /// Any other error.
    Failed,
}

/// Everything the run's responses claimed, for the end-of-run checks.
pub struct Ledger {
    pub writes: Vec<Write>,
    /// `(key, value)` every read returned.
    pub reads: Vec<(u32, u64)>,
    /// `(key, value)` of every write acknowledged as `Sync`-durable.
    pub sync_acked: Vec<(u32, u64)>,
}

impl Ledger {
    pub fn new(writes: Vec<Write>, reads: Vec<(u32, u64)>) -> Ledger {
        Ledger { writes, reads, sync_acked: Vec::new() }
    }

    /// Records the response to `spec`. `Err` means the response is
    /// malformed: the wrong number of results or a result of the wrong
    /// shape for its operation.
    pub fn record(
        &mut self,
        spec: &ReqSpec,
        results: &[WireResult],
        turn: u32,
    ) -> Result<Outcome, String> {
        let ops = spec.ops();
        if results.len() != ops.len() {
            return Err(format!("{} results for {} operations", results.len(), ops.len()));
        }
        if results.iter().any(Result::is_err) {
            let shed =
                results.iter().all(|r| matches!(r, Err(StoreError::RetryBudgetExhausted { .. })));
            return Ok(if shed { Outcome::Shed } else { Outcome::Failed });
        }
        for (op, result) in ops.iter().zip(results) {
            let Ok(resp) = result else { continue };
            match (*op, resp) {
                (OpSpec::Get { key }, StoreResp::Value(Some(v))) => self.reads.push((key, *v)),
                (OpSpec::Put { key, value }, StoreResp::Value(Some(prev))) => {
                    self.writes.push(Write { key, turn, prev: *prev, new: value });
                    if spec.sync {
                        self.sync_acked.push((key, value));
                    }
                }
                (OpSpec::Cas { key, expect, new }, StoreResp::Cas { ok, actual: Some(actual) }) => {
                    if *ok {
                        if *actual != expect {
                            return Err(format!(
                                "{}: Cas succeeded expecting {expect} but saw {actual}",
                                key_name(key)
                            ));
                        }
                        self.writes.push(Write { key, turn, prev: expect, new });
                    } else {
                        self.reads.push((key, *actual));
                    }
                }
                (OpSpec::Scan { from, len }, StoreResp::Entries(entries)) => {
                    if entries.len() != len as usize {
                        return Err(format!(
                            "Scan of {len} keys from {} returned {}",
                            key_name(from),
                            entries.len()
                        ));
                    }
                    for (i, (name, value)) in entries.iter().enumerate() {
                        let key = from + i as u32;
                        if *name != key_name(key) {
                            return Err(format!(
                                "Scan returned {name} where {} belongs",
                                key_name(key)
                            ));
                        }
                        self.reads.push((key, *value));
                    }
                }
                (op, resp) => return Err(format!("{op:?} answered with {resp:?}")),
            }
        }
        Ok(Outcome::Ok)
    }
}

/// The writes of a run linked into one chain per key.
pub struct Chains {
    /// Sorted by key, and within a key in chain order.
    writes: Vec<Write>,
    /// `writes[first[k]..first[k + 1]]` are key `k`'s.
    first: Vec<u32>,
}

/// What the crash-recovery check found.
#[derive(Debug, PartialEq, Eq)]
pub struct Recovered {
    /// Group-durability writes acknowledged but not recovered: the tail
    /// the flusher had not reached.
    pub lost_group_writes: u64,
}

impl Chains {
    /// Links `writes` into chains over `keys` keys, or says which key's
    /// writes do not form one.
    pub fn link(keys: u32, mut writes: Vec<Write>) -> Result<Chains, String> {
        writes.sort_unstable_by_key(|w| (w.key, w.prev));
        let mut first = vec![0u32; keys as usize + 1];
        for w in &writes {
            if w.key >= keys {
                return Err(format!("write to key {} outside the key space", w.key));
            }
            first[w.key as usize + 1] += 1;
        }
        for k in 0..keys as usize {
            first[k + 1] += first[k];
        }
        let mut news: Vec<u64> = Vec::new();
        let mut chain: Vec<Write> = Vec::new();
        for key in 0..keys {
            let (lo, hi) = (first[key as usize] as usize, first[key as usize + 1] as usize);
            let group = &mut writes[lo..hi];
            if group.is_empty() {
                continue;
            }
            let name = key_name(key);
            if let Some(pair) = group.windows(2).find(|p| p[0].prev == p[1].prev) {
                return Err(format!(
                    "{name}: lost write: {} and {} both replaced {}",
                    pair[0].new, pair[1].new, pair[0].prev
                ));
            }
            news.clear();
            news.extend(group.iter().map(|w| w.new));
            news.sort_unstable();
            if let Some(pair) = news.windows(2).find(|p| p[0] == p[1]) {
                return Err(format!("{name}: doubled write: {} was written twice", pair[0]));
            }
            chain.clear();
            let mut current = preload_value(key);
            // Terminates: every step moves to a distinct written value.
            while let Ok(at) = group.binary_search_by_key(&current, |w| w.prev) {
                chain.push(group[at]);
                current = group[at].new;
            }
            if chain.len() != group.len() {
                let stray = group.iter().find(|w| !chain.contains(w)).map_or(0, |w| w.prev);
                return Err(format!(
                    "{name}: foreign value: a write replaced {stray}, which the key never held \
                     ({} of {} writes link from the preload)",
                    chain.len(),
                    group.len()
                ));
            }
            group.copy_from_slice(&chain);
        }
        Ok(Chains { writes, first })
    }

    fn chain(&self, key: u32) -> &[Write] {
        &self.writes[self.first[key as usize] as usize..self.first[key as usize + 1] as usize]
    }

    /// How many writes into `key`'s chain `value` sits: 0 for the preload
    /// value, `None` if the key never held it.
    fn position(&self, key: u32, value: u64) -> Option<usize> {
        if value == preload_value(key) {
            return Some(0);
        }
        self.chain(key).iter().position(|w| w.new == value).map(|at| at + 1)
    }

    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Every read must have returned a value its key held at some point.
    pub fn check_reads(&self, reads: &[(u32, u64)]) -> Result<(), String> {
        for &(key, value) in reads {
            if self.position(key, value).is_none() {
                return Err(format!("{}: read {value}, which the key never held", key_name(key)));
            }
        }
        Ok(())
    }

    /// `finals[k]` is key `k` read back after the last response: it must
    /// be the end of the key's chain.
    pub fn check_finals(&self, finals: &[u64]) -> Result<(), String> {
        for (key, &value) in finals.iter().enumerate() {
            let key = key as u32;
            let end = self.chain(key).last().map_or(preload_value(key), |w| w.new);
            if value != end {
                return Err(format!(
                    "{}: read-back returned {value} but the chain ends at {end}",
                    key_name(key)
                ));
            }
        }
        Ok(())
    }

    /// `recovered[k]` is key `k` after the crash and recovery. Every
    /// `Sync`-acknowledged write must have survived, and the writes that
    /// did not must be a suffix of the run: none answered in an earlier
    /// turn than a write that survived.
    pub fn check_recovery(
        &self,
        sync_acked: &[(u32, u64)],
        recovered: &[u64],
    ) -> Result<Recovered, String> {
        let mut survived_to = Vec::with_capacity(recovered.len());
        for (key, &value) in recovered.iter().enumerate() {
            let key = key as u32;
            let Some(at) = self.position(key, value) else {
                return Err(format!(
                    "{}: recovered {value}, which the key never held",
                    key_name(key)
                ));
            };
            survived_to.push(at);
        }
        for &(key, value) in sync_acked {
            let at = self.position(key, value).unwrap_or(usize::MAX);
            if at > survived_to[key as usize] {
                return Err(format!(
                    "{}: Sync-acknowledged write of {value} did not survive the crash",
                    key_name(key)
                ));
            }
        }
        let (mut last_survivor, mut first_lost, mut lost) = (0u32, u32::MAX, 0u64);
        for key in 0..recovered.len() as u32 {
            for (at, w) in self.chain(key).iter().enumerate() {
                if at < survived_to[key as usize] {
                    last_survivor = last_survivor.max(w.turn);
                } else {
                    first_lost = first_lost.min(w.turn);
                    lost += 1;
                }
            }
        }
        if lost > 0 && first_lost < last_survivor {
            return Err(format!(
                "recovered state is not a prefix: a write of turn {first_lost} was lost while one \
                 of turn {last_survivor} survived"
            ));
        }
        Ok(Recovered { lost_group_writes: lost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Tier, MAX_OPS};

    const KEYS: u32 = 4;

    fn w(key: u32, turn: u32, prev: u64, new: u64) -> Write {
        Write { key, turn, prev, new }
    }

    /// Key 1 written three times, key 2 once.
    fn honest() -> Vec<Write> {
        let p1 = preload_value(1);
        vec![
            w(1, 3, 1001, 1002),
            w(2, 1, preload_value(2), 2001),
            w(1, 1, p1, 1001),
            w(1, 5, 1002, 1003),
        ]
    }

    #[test]
    fn an_honest_history_links_and_its_reads_and_finals_check() {
        let chains = Chains::link(KEYS, honest()).unwrap();
        assert_eq!(chains.len(), 4);
        assert_eq!(chains.chain(1).iter().map(|w| w.new).collect::<Vec<_>>(), [1001, 1002, 1003]);
        chains.check_reads(&[(1, preload_value(1)), (1, 1002), (0, preload_value(0))]).unwrap();
        chains.check_finals(&[preload_value(0), 1003, 2001, preload_value(3)]).unwrap();
    }

    #[test]
    fn a_lost_write_is_rejected() {
        // 1002 was acknowledged, then vanished: the next write replaced
        // 1001 again.
        let mut writes = honest();
        writes[3] = w(1, 5, 1001, 1003);
        let err = Chains::link(KEYS, writes).err().unwrap();
        assert!(err.contains("lost write"), "{err}");
    }

    #[test]
    fn a_doubled_write_is_rejected() {
        let mut writes = honest();
        writes.push(w(1, 6, 1003, 1002));
        let err = Chains::link(KEYS, writes).err().unwrap();
        assert!(err.contains("doubled write"), "{err}");
    }

    #[test]
    fn a_foreign_value_is_rejected() {
        let mut writes = honest();
        writes.push(w(2, 6, 777, 2002));
        let err = Chains::link(KEYS, writes).err().unwrap();
        assert!(err.contains("foreign value") && err.contains("777"), "{err}");
        // As a read and as a read-back, too.
        let chains = Chains::link(KEYS, honest()).unwrap();
        assert!(chains.check_reads(&[(2, 777)]).is_err());
        assert!(chains.check_finals(&[preload_value(0), 1002, 2001, preload_value(3)]).is_err());
    }

    #[test]
    fn recovery_may_lose_only_a_suffix_and_never_a_sync_write() {
        let chains = Chains::link(KEYS, honest()).unwrap();
        let all = [preload_value(0), 1003, 2001, preload_value(3)];
        assert_eq!(
            chains.check_recovery(&[(1, 1002)], &all),
            Ok(Recovered { lost_group_writes: 0 })
        );
        // The last write (turn 5) lost: a suffix.
        let tail_lost = [preload_value(0), 1002, 2001, preload_value(3)];
        assert_eq!(
            chains.check_recovery(&[(1, 1002)], &tail_lost),
            Ok(Recovered { lost_group_writes: 1 })
        );
        // ... unless it was Sync-acknowledged.
        let err = chains.check_recovery(&[(1, 1003)], &tail_lost).err().unwrap();
        assert!(err.contains("Sync-acknowledged"), "{err}");
        // Key 2's write of turn 1 lost while key 1's of turn 5 survived.
        let hole = [preload_value(0), 1003, preload_value(2), preload_value(3)];
        let err = chains.check_recovery(&[], &hole).err().unwrap();
        assert!(err.contains("not a prefix"), "{err}");
        // A value from nowhere.
        assert!(chains
            .check_recovery(&[], &[preload_value(0), 9, 2001, preload_value(3)])
            .is_err());
    }

    fn spec(ops: &[OpSpec]) -> ReqSpec {
        let mut spec = ReqSpec { nops: ops.len() as u8, tier: Tier::Guest, ..ReqSpec::EMPTY };
        spec.ops[..ops.len()].copy_from_slice(ops);
        assert!(ops.len() <= MAX_OPS);
        spec
    }

    #[test]
    fn responses_are_recorded_by_shape() {
        let mut ledger = Ledger::new(Vec::new(), Vec::new());
        let put = spec(&[OpSpec::Put { key: 1, value: 50 }, OpSpec::Get { key: 2 }]);
        let ok = [Ok(StoreResp::Value(Some(2))), Ok(StoreResp::Value(Some(3)))];
        assert_eq!(ledger.record(&put, &ok, 9), Ok(Outcome::Ok));
        assert_eq!(ledger.writes, [w(1, 9, 2, 50)]);
        assert_eq!(ledger.reads, [(2, 3)]);

        let shed = vec![Err(StoreError::RetryBudgetExhausted { budget: 16 }); 2];
        assert_eq!(ledger.record(&put, &shed, 9), Ok(Outcome::Shed));
        let failed = [Ok(StoreResp::Value(Some(2))), Err(StoreError::GuestTier)];
        assert_eq!(ledger.record(&put, &failed, 9), Ok(Outcome::Failed));
        assert_eq!(ledger.writes.len(), 1, "a failed request records nothing");

        assert!(ledger.record(&put, &ok[..1], 9).is_err(), "one result per operation");
        let absent = [Ok(StoreResp::Value(None)), Ok(StoreResp::Value(Some(3)))];
        assert!(ledger.record(&put, &absent, 9).is_err(), "every key is preloaded");

        let cas = spec(&[OpSpec::Cas { key: 1, expect: 50, new: 60 }]);
        let lost_race = [Ok(StoreResp::Cas { ok: false, actual: Some(55) })];
        assert_eq!(ledger.record(&cas, &lost_race, 10), Ok(Outcome::Ok));
        assert_eq!(ledger.reads.last(), Some(&(1, 55)));
        let won = [Ok(StoreResp::Cas { ok: true, actual: Some(50) })];
        assert_eq!(ledger.record(&cas, &won, 10), Ok(Outcome::Ok));
        assert_eq!(ledger.writes.last(), Some(&w(1, 10, 50, 60)));

        let scan = spec(&[OpSpec::Scan { from: 2, len: 2 }]);
        let entries = [Ok(StoreResp::Entries(vec![(key_name(2), 7), (key_name(3), 8)]))];
        assert_eq!(ledger.record(&scan, &entries, 11), Ok(Outcome::Ok));
        let short = [Ok(StoreResp::Entries(vec![(key_name(2), 7)]))];
        assert!(ledger.record(&scan, &short, 11).is_err());
    }
}
