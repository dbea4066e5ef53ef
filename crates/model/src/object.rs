//! Shared base objects of the simulated system.

use std::collections::VecDeque;
use std::fmt;

use crate::error::Fault;
use crate::op::{Op, OpOutcome};
use crate::pid::{ProcessId, ProcessSet};
use crate::value::Value;

/// Identifier of a shared object, dense within one [`crate::System`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(u16);

impl ObjectId {
    /// Creates an object id from a dense index.
    pub fn new(index: usize) -> Self {
        ObjectId(u16::try_from(index).expect("object index fits in u16"))
    }

    /// Returns the dense index of this object.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// State of a `(y,x)`-live consensus base object.
///
/// The object is **exactly** as live as the paper's definition (§2):
///
/// * **Validity** — the decided value is a proposed value.
/// * **Agreement** — a single value is ever decided.
/// * **Wait-free termination** for processes in `wait_free`: their proposal
///   completes in one event.
/// * **Obstruction-free termination** for the remaining ports: a guest
///   proposal first *registers* (one event) and thereafter completes only
///   when the `isolation_window` events on this object immediately preceding
///   the attempt were all the guest's own — the literal reading of
///   "executes alone during a long enough period of time". Once *any* value
///   is decided, every attempt completes immediately (the paper's remark:
///   "as soon as a value has been decided by a process, any process can
///   decide the very same value").
///
/// Crashed processes stop producing events, so they never block another
/// guest's isolation window — matching the paper's crash semantics.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LiveConsensusState {
    /// Port set `Y`: the only processes allowed to invoke `propose`.
    pub ports: ProcessSet,
    /// Wait-free set `X ⊆ Y`.
    pub wait_free: ProcessSet,
    /// Number of consecutive own events a guest needs before completing.
    pub isolation_window: u8,
    /// The decided value, once any proposal completes.
    pub decided: Option<Value>,
    /// Processes that have invoked `propose` (ports only), with their values.
    /// Kept sorted by process index for canonical state hashing.
    registered: Vec<(ProcessId, Value)>,
    /// The last `isolation_window` event authors on this object.
    recent: VecDeque<ProcessId>,
}

impl LiveConsensusState {
    /// Creates a fresh `(y,x)`-live consensus object.
    ///
    /// # Panics
    ///
    /// Panics if `wait_free ⊄ ports`.
    pub fn new(ports: ProcessSet, wait_free: ProcessSet, isolation_window: u8) -> Self {
        assert!(
            wait_free.is_subset(ports),
            "wait-free set {wait_free} must be a subset of the port set {ports}"
        );
        LiveConsensusState {
            ports,
            wait_free,
            isolation_window,
            decided: None,
            registered: Vec::new(),
            recent: VecDeque::new(),
        }
    }

    /// The value registered by `pid`, if it has proposed.
    pub fn registration(&self, pid: ProcessId) -> Option<Value> {
        self.registered.iter().find(|(p, _)| *p == pid).map(|(_, v)| *v)
    }

    /// Whether the guest `pid` currently satisfies the isolation criterion:
    /// the last `isolation_window` events on this object were all its own.
    fn isolated(&self, pid: ProcessId) -> bool {
        self.recent.len() >= self.isolation_window as usize && self.recent.iter().all(|p| *p == pid)
    }

    /// Records an event by `pid` on this object (for the isolation window).
    fn record_event(&mut self, pid: ProcessId) {
        if self.isolation_window == 0 {
            return;
        }
        if self.recent.len() == self.isolation_window as usize {
            self.recent.pop_front();
        }
        self.recent.push_back(pid);
    }

    /// One propose attempt by `pid` with value `v`.
    fn propose(&mut self, pid: ProcessId, v: Value) -> Result<OpOutcome, Fault> {
        if !self.ports.contains(pid) {
            return Err(Fault::NotAPort);
        }
        let registered_value = self.registration(pid);
        let first_attempt = registered_value.is_none();
        // A re-attempt with a different value would be a second propose().
        if let Some(prev) = registered_value {
            if prev != v {
                return Err(Fault::AlreadyProposed);
            }
        }

        // Already decided: everyone completes immediately (paper remark, §2).
        if let Some(d) = self.decided {
            self.record_event(pid);
            if first_attempt {
                self.register(pid, v);
            }
            return Ok(OpOutcome::Done(d));
        }

        if self.wait_free.contains(pid) {
            // Wait-free path: complete in one event; first completion decides.
            self.record_event(pid);
            self.register(pid, v);
            self.decided = Some(v);
            return Ok(OpOutcome::Done(v));
        }

        // Guest (obstruction-free) path.
        if first_attempt {
            // Registration event; never completes on the first attempt.
            self.register(pid, v);
            self.record_event(pid);
            return Ok(OpOutcome::Pending);
        }
        let isolated = self.isolated(pid);
        self.record_event(pid);
        if isolated {
            self.decided = Some(v);
            Ok(OpOutcome::Done(v))
        } else {
            Ok(OpOutcome::Pending)
        }
    }

    fn register(&mut self, pid: ProcessId, v: Value) {
        if self.registration(pid).is_none() {
            let at = self.registered.partition_point(|(p, _)| *p < pid);
            self.registered.insert(at, (pid, v));
        }
    }
}

/// State of one shared base object.
///
/// Each operation on an object is a single atomic event, matching the
/// paper's model. Registers have consensus number 1; `TestAndSet`,
/// `FetchAndAdd` and `Swap` have consensus number 2 (Common2, §3.5 of the
/// paper); `LiveConsensus` is the `(y,x)`-live consensus base object used by
/// Theorems 1–3.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ObjectState {
    /// A multi-writer multi-reader atomic register.
    Register {
        /// Current content.
        value: Value,
    },
    /// A `(y,x)`-live consensus object.
    LiveConsensus(LiveConsensusState),
    /// A test-and-set bit (initially unset).
    TestAndSet {
        /// Whether the bit has been set.
        set: bool,
    },
    /// A fetch-and-add counter.
    FetchAndAdd {
        /// Current count.
        count: u32,
    },
    /// A swap register.
    Swap {
        /// Current content.
        value: Value,
    },
}

impl ObjectState {
    /// Applies one operation attempt by `pid`.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] if the operation does not match the object kind,
    /// the process is not a port, or it proposes twice.
    pub fn apply(&mut self, pid: ProcessId, op: Op) -> Result<OpOutcome, Fault> {
        match (self, op) {
            (ObjectState::Register { value }, Op::Read(_)) => Ok(OpOutcome::Done(*value)),
            (ObjectState::Register { value }, Op::Write(_, v)) => {
                *value = v;
                Ok(OpOutcome::Done(Value::Bot))
            }
            (ObjectState::LiveConsensus(state), Op::Propose(_, v)) => state.propose(pid, v),
            // A peek reads the decision slot only: it is no event of the
            // guests' protocol, so it never breaks an isolation window.
            (ObjectState::LiveConsensus(state), Op::Read(_)) => {
                Ok(OpOutcome::Done(state.decided.unwrap_or(Value::Bot)))
            }
            (ObjectState::TestAndSet { set }, Op::TestAndSet(_)) => {
                let old = *set;
                *set = true;
                Ok(OpOutcome::Done(Value::Bit(old)))
            }
            (ObjectState::TestAndSet { set }, Op::Read(_)) => Ok(OpOutcome::Done(Value::Bit(*set))),
            (ObjectState::FetchAndAdd { count }, Op::FetchAndAdd(_, delta)) => {
                let old = *count;
                *count = count.wrapping_add(delta);
                Ok(OpOutcome::Done(Value::Num(old)))
            }
            (ObjectState::FetchAndAdd { count }, Op::FetchMax(_, floor)) => {
                let old = *count;
                *count = old.max(floor);
                Ok(OpOutcome::Done(Value::Num(old)))
            }
            (ObjectState::FetchAndAdd { count }, Op::Read(_)) => {
                Ok(OpOutcome::Done(Value::Num(*count)))
            }
            (ObjectState::Swap { value }, Op::Swap(_, v)) => {
                let old = *value;
                *value = v;
                Ok(OpOutcome::Done(old))
            }
            (ObjectState::Swap { value }, Op::Read(_)) => Ok(OpOutcome::Done(*value)),
            _ => Err(Fault::WrongObjectKind),
        }
    }

    /// The decided value of a consensus object, if this is one and it decided.
    pub fn consensus_decision(&self) -> Option<Value> {
        match self {
            ObjectState::LiveConsensus(s) => s.decided,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn register_read_write() {
        let mut obj = ObjectState::Register { value: Value::Bot };
        let o = ObjectId::new(0);
        assert_eq!(obj.apply(pid(0), Op::Read(o)).unwrap(), OpOutcome::Done(Value::Bot));
        obj.apply(pid(1), Op::Write(o, Value::Num(9))).unwrap();
        assert_eq!(obj.apply(pid(0), Op::Read(o)).unwrap(), OpOutcome::Done(Value::Num(9)));
    }

    #[test]
    fn register_rejects_propose() {
        let mut obj = ObjectState::Register { value: Value::Bot };
        let o = ObjectId::new(0);
        assert_eq!(obj.apply(pid(0), Op::Propose(o, Value::Num(1))), Err(Fault::WrongObjectKind));
    }

    #[test]
    fn tas_returns_old_bit_once() {
        let mut obj = ObjectState::TestAndSet { set: false };
        let o = ObjectId::new(0);
        assert_eq!(
            obj.apply(pid(0), Op::TestAndSet(o)).unwrap(),
            OpOutcome::Done(Value::Bit(false))
        );
        assert_eq!(
            obj.apply(pid(1), Op::TestAndSet(o)).unwrap(),
            OpOutcome::Done(Value::Bit(true))
        );
        assert_eq!(obj.apply(pid(2), Op::Read(o)).unwrap(), OpOutcome::Done(Value::Bit(true)));
    }

    #[test]
    fn faa_accumulates() {
        let mut obj = ObjectState::FetchAndAdd { count: 0 };
        let o = ObjectId::new(0);
        assert_eq!(
            obj.apply(pid(0), Op::FetchAndAdd(o, 2)).unwrap(),
            OpOutcome::Done(Value::Num(0))
        );
        assert_eq!(
            obj.apply(pid(1), Op::FetchAndAdd(o, 3)).unwrap(),
            OpOutcome::Done(Value::Num(2))
        );
        assert_eq!(obj.apply(pid(0), Op::Read(o)).unwrap(), OpOutcome::Done(Value::Num(5)));
    }

    #[test]
    fn fetch_max_only_raises() {
        let mut obj = ObjectState::FetchAndAdd { count: 2 };
        let o = ObjectId::new(0);
        assert_eq!(obj.apply(pid(0), Op::FetchMax(o, 5)).unwrap(), OpOutcome::Done(Value::Num(2)));
        assert_eq!(obj.apply(pid(1), Op::FetchMax(o, 3)).unwrap(), OpOutcome::Done(Value::Num(5)));
        assert_eq!(obj.apply(pid(0), Op::Read(o)).unwrap(), OpOutcome::Done(Value::Num(5)));
    }

    #[test]
    fn swap_exchanges() {
        let mut obj = ObjectState::Swap { value: Value::Bot };
        let o = ObjectId::new(0);
        assert_eq!(
            obj.apply(pid(0), Op::Swap(o, Value::Num(1))).unwrap(),
            OpOutcome::Done(Value::Bot)
        );
        assert_eq!(
            obj.apply(pid(1), Op::Swap(o, Value::Num(2))).unwrap(),
            OpOutcome::Done(Value::Num(1))
        );
    }

    fn live(ports: &[usize], wf: &[usize], window: u8) -> ObjectState {
        ObjectState::LiveConsensus(LiveConsensusState::new(
            ProcessSet::from_indices(ports.iter().copied()),
            ProcessSet::from_indices(wf.iter().copied()),
            window,
        ))
    }

    #[test]
    fn wait_free_member_decides_in_one_event() {
        let mut obj = live(&[0, 1, 2], &[0], 1);
        let o = ObjectId::new(0);
        assert_eq!(
            obj.apply(pid(0), Op::Propose(o, Value::Num(7))).unwrap(),
            OpOutcome::Done(Value::Num(7))
        );
        // A later wait-free propose gets the already-decided value.
        let mut obj2 = live(&[0, 1, 2], &[0, 1], 1);
        obj2.apply(pid(0), Op::Propose(o, Value::Num(7))).unwrap();
        assert_eq!(
            obj2.apply(pid(1), Op::Propose(o, Value::Num(8))).unwrap(),
            OpOutcome::Done(Value::Num(7))
        );
    }

    #[test]
    fn guest_needs_isolation() {
        let mut obj = live(&[0, 1], &[], 1);
        let o = ObjectId::new(0);
        // First attempt registers, pending.
        assert_eq!(obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(), OpOutcome::Pending);
        // Second solo attempt completes: the previous event was its own.
        assert_eq!(
            obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(),
            OpOutcome::Done(Value::Num(1))
        );
    }

    #[test]
    fn lockstep_guests_never_complete() {
        let mut obj = live(&[0, 1], &[], 1);
        let o = ObjectId::new(0);
        assert_eq!(obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(), OpOutcome::Pending);
        assert_eq!(obj.apply(pid(1), Op::Propose(o, Value::Num(2))).unwrap(), OpOutcome::Pending);
        for _ in 0..100 {
            assert_eq!(
                obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(),
                OpOutcome::Pending
            );
            assert_eq!(
                obj.apply(pid(1), Op::Propose(o, Value::Num(2))).unwrap(),
                OpOutcome::Pending
            );
        }
    }

    #[test]
    fn peek_reads_the_decision_without_breaking_isolation() {
        let mut obj = live(&[0, 1], &[], 1);
        let o = ObjectId::new(0);
        assert_eq!(obj.apply(pid(2), Op::Read(o)).unwrap(), OpOutcome::Done(Value::Bot));
        assert_eq!(obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(), OpOutcome::Pending);
        // A non-port peeks between the guest's two attempts: still isolated.
        assert_eq!(obj.apply(pid(2), Op::Read(o)).unwrap(), OpOutcome::Done(Value::Bot));
        assert_eq!(
            obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(),
            OpOutcome::Done(Value::Num(1))
        );
        assert_eq!(obj.apply(pid(2), Op::Read(o)).unwrap(), OpOutcome::Done(Value::Num(1)));
    }

    #[test]
    fn guest_completes_after_decision_exists() {
        let mut obj = live(&[0, 1], &[0], 1);
        let o = ObjectId::new(0);
        assert_eq!(obj.apply(pid(1), Op::Propose(o, Value::Num(2))).unwrap(), OpOutcome::Pending);
        assert_eq!(
            obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(),
            OpOutcome::Done(Value::Num(1))
        );
        // The guest's next attempt returns the decided value even without isolation.
        assert_eq!(
            obj.apply(pid(1), Op::Propose(o, Value::Num(2))).unwrap(),
            OpOutcome::Done(Value::Num(1))
        );
    }

    #[test]
    fn guest_with_larger_window_needs_more_solo_events() {
        let mut obj = live(&[0, 1], &[], 3);
        let o = ObjectId::new(0);
        assert_eq!(obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(), OpOutcome::Pending);
        // window=3 needs 3 consecutive own events before the completing attempt.
        assert_eq!(obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(), OpOutcome::Pending);
        assert_eq!(obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(), OpOutcome::Pending);
        assert_eq!(
            obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(),
            OpOutcome::Done(Value::Num(1))
        );
    }

    #[test]
    fn interference_resets_guest_window() {
        let mut obj = live(&[0, 1], &[], 2);
        let o = ObjectId::new(0);
        obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap();
        obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(); // would complete next
        obj.apply(pid(1), Op::Propose(o, Value::Num(2))).unwrap(); // interference
        assert_eq!(obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(), OpOutcome::Pending);
        assert_eq!(obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(), OpOutcome::Pending);
        assert_eq!(
            obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(),
            OpOutcome::Done(Value::Num(1))
        );
    }

    #[test]
    fn non_port_is_rejected() {
        let mut obj = live(&[0, 1], &[0], 1);
        let o = ObjectId::new(0);
        assert_eq!(obj.apply(pid(2), Op::Propose(o, Value::Num(3))), Err(Fault::NotAPort));
    }

    #[test]
    fn double_propose_different_value_is_rejected() {
        let mut obj = live(&[0, 1], &[], 1);
        let o = ObjectId::new(0);
        obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap();
        assert_eq!(obj.apply(pid(0), Op::Propose(o, Value::Num(2))), Err(Fault::AlreadyProposed));
    }

    #[test]
    #[should_panic(expected = "must be a subset")]
    fn wait_free_must_be_subset_of_ports() {
        let _ = LiveConsensusState::new(
            ProcessSet::from_indices([0, 1]),
            ProcessSet::from_indices([2]),
            1,
        );
    }

    #[test]
    fn validity_decided_is_registered() {
        let mut obj = live(&[0, 1, 2], &[1], 1);
        let o = ObjectId::new(0);
        obj.apply(pid(0), Op::Propose(o, Value::Num(10))).unwrap();
        obj.apply(pid(1), Op::Propose(o, Value::Num(20))).unwrap();
        let decision = obj.consensus_decision().unwrap();
        assert!(decision == Value::Num(10) || decision == Value::Num(20));
        assert_eq!(decision, Value::Num(20), "wait-free completion decides its own value");
    }

    #[test]
    fn zero_window_guest_completes_right_after_registration() {
        let mut obj = live(&[0, 1], &[], 0);
        let o = ObjectId::new(0);
        assert_eq!(obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(), OpOutcome::Pending);
        assert_eq!(
            obj.apply(pid(0), Op::Propose(o, Value::Num(1))).unwrap(),
            OpOutcome::Done(Value::Num(1))
        );
    }
}
