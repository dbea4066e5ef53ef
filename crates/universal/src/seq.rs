//! Deterministic sequential object specifications.
//!
//! A [`SequentialSpec`] is the input to the universal construction: any
//! deterministic single-threaded object. The specs here double as the
//! example applications of the repository (a counter, a FIFO queue, a
//! key-value store, an append-only log).

use std::collections::VecDeque;

/// A deterministic sequential object: state, operations, responses.
pub trait SequentialSpec: Send + Sync {
    /// The object's state.
    ///
    /// `Eq + Send + Sync` because sealed state travels through seal cells: a
    /// [`SealRecord`](crate::SealRecord) is a consensus value, and consensus
    /// values are compared and shared across threads.
    type State: Clone + Eq + Send + Sync;
    /// Operation descriptors (the *invocation*, not the effect).
    type Op: Clone + Eq + Send + Sync;
    /// Operation responses.
    type Resp: Send;

    /// The initial state.
    fn init(&self) -> Self::State;

    /// Applies `op`, mutating the state and producing the response.
    fn apply(&self, state: &mut Self::State, op: &Self::Op) -> Self::Resp;

    /// Applies `op` for its effect alone: what a replica does with an
    /// operation somebody else is waiting on. It must leave `state` exactly
    /// as [`SequentialSpec::apply`] would; the default is `apply` with the
    /// response discarded. Override it where building the response, or an
    /// operation that changes nothing, costs something worth skipping.
    fn replay(&self, state: &mut Self::State, op: &Self::Op) {
        let _ = self.apply(state, op);
    }
}

/// A shared counter.
#[derive(Copy, Clone, Debug, Default)]
pub struct Counter;

/// Operations of [`Counter`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CounterOp {
    /// Add to the counter; responds with the new value.
    Add(u64),
    /// Read the counter.
    Get,
}

impl SequentialSpec for Counter {
    type State = u64;
    type Op = CounterOp;
    type Resp = u64;

    fn init(&self) -> u64 {
        0
    }

    fn apply(&self, state: &mut u64, op: &CounterOp) -> u64 {
        match op {
            CounterOp::Add(k) => {
                *state += k;
                *state
            }
            CounterOp::Get => *state,
        }
    }
}

/// A FIFO queue of `u64`s.
#[derive(Copy, Clone, Debug, Default)]
pub struct Queue;

/// Operations of [`Queue`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum QueueOp {
    /// Enqueue a value (responds `None`).
    Enqueue(u64),
    /// Dequeue the head (responds the removed value, or `None` if empty).
    Dequeue,
}

impl SequentialSpec for Queue {
    type State = VecDeque<u64>;
    type Op = QueueOp;
    type Resp = Option<u64>;

    fn init(&self) -> VecDeque<u64> {
        VecDeque::new()
    }

    fn apply(&self, state: &mut VecDeque<u64>, op: &QueueOp) -> Option<u64> {
        match op {
            QueueOp::Enqueue(v) => {
                state.push_back(*v);
                None
            }
            QueueOp::Dequeue => state.pop_front(),
        }
    }
}

/// A small key→value store over string keys.
#[derive(Copy, Clone, Debug, Default)]
pub struct KvStore;

/// Operations of [`KvStore`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum KvOp {
    /// Insert or replace a key (responds the previous value).
    Put(String, u64),
    /// Look up a key.
    Get(String),
    /// Remove a key (responds the removed value).
    Remove(String),
}

impl SequentialSpec for KvStore {
    type State = std::collections::BTreeMap<String, u64>;
    type Op = KvOp;
    type Resp = Option<u64>;

    fn init(&self) -> Self::State {
        std::collections::BTreeMap::new()
    }

    fn apply(&self, state: &mut Self::State, op: &KvOp) -> Option<u64> {
        match op {
            KvOp::Put(k, v) => state.insert(k.clone(), *v),
            KvOp::Get(k) => state.get(k).copied(),
            KvOp::Remove(k) => state.remove(k),
        }
    }

    fn replay(&self, state: &mut Self::State, op: &KvOp) {
        // A `Get` has no effect to replay.
        if !matches!(op, KvOp::Get(_)) {
            self.apply(state, op);
        }
    }
}

/// An append-only log: appends return the entry's index.
#[derive(Copy, Clone, Debug, Default)]
pub struct Logbook;

/// Operations of [`Logbook`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LogOp {
    /// Append an entry; responds with its index.
    Append(String),
    /// Read the current length.
    Len,
}

/// Response of [`Logbook`] operations.
pub type LogResp = u64;

impl SequentialSpec for Logbook {
    type State = Vec<String>;
    type Op = LogOp;
    type Resp = LogResp;

    fn init(&self) -> Vec<String> {
        Vec::new()
    }

    fn apply(&self, state: &mut Vec<String>, op: &LogOp) -> u64 {
        match op {
            LogOp::Append(entry) => {
                state.push(entry.clone());
                (state.len() - 1) as u64
            }
            LogOp::Len => state.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_spec() {
        let spec = Counter;
        let mut s = spec.init();
        assert_eq!(spec.apply(&mut s, &CounterOp::Add(2)), 2);
        assert_eq!(spec.apply(&mut s, &CounterOp::Add(3)), 5);
        assert_eq!(spec.apply(&mut s, &CounterOp::Get), 5);
    }

    #[test]
    fn queue_spec_fifo_order() {
        let spec = Queue;
        let mut s = spec.init();
        assert_eq!(spec.apply(&mut s, &QueueOp::Dequeue), None);
        spec.apply(&mut s, &QueueOp::Enqueue(1));
        spec.apply(&mut s, &QueueOp::Enqueue(2));
        assert_eq!(spec.apply(&mut s, &QueueOp::Dequeue), Some(1));
        assert_eq!(spec.apply(&mut s, &QueueOp::Dequeue), Some(2));
    }

    #[test]
    fn kv_spec() {
        let spec = KvStore;
        let mut s = spec.init();
        assert_eq!(spec.apply(&mut s, &KvOp::Put("a".into(), 1)), None);
        assert_eq!(spec.apply(&mut s, &KvOp::Put("a".into(), 2)), Some(1));
        assert_eq!(spec.apply(&mut s, &KvOp::Get("a".into())), Some(2));
        assert_eq!(spec.apply(&mut s, &KvOp::Remove("a".into())), Some(2));
        assert_eq!(spec.apply(&mut s, &KvOp::Get("a".into())), None);
    }

    #[test]
    fn kv_replay_leaves_what_apply_leaves() {
        let spec = KvStore;
        let ops = [
            KvOp::Put("a".into(), 1),
            KvOp::Get("a".into()),
            KvOp::Put("b".into(), 2),
            KvOp::Remove("a".into()),
            KvOp::Remove("z".into()),
            KvOp::Get("b".into()),
        ];
        let (mut applied, mut replayed) = (spec.init(), spec.init());
        for op in &ops {
            spec.apply(&mut applied, op);
            spec.replay(&mut replayed, op);
            assert_eq!(applied, replayed, "after {op:?}");
        }
    }

    #[test]
    fn logbook_spec() {
        let spec = Logbook;
        let mut s = spec.init();
        assert_eq!(spec.apply(&mut s, &LogOp::Append("x".into())), 0);
        assert_eq!(spec.apply(&mut s, &LogOp::Append("y".into())), 1);
        assert_eq!(spec.apply(&mut s, &LogOp::Len), 2);
    }
}
