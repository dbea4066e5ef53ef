//! Shared-memory operations: the atomic events of the model.

use std::fmt;

use crate::object::ObjectId;
use crate::value::Value;

/// One shared-memory operation, performed as a single atomic event.
///
/// This mirrors the paper's event model (§3.3): read events, write events,
/// and accesses to stronger base objects. Every [`crate::Program`] step
/// performs at most one `Op`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Read an atomic register, a counter or a swap cell — or **peek** a
    /// consensus object: its decided value, `⊥` while undecided.
    Read(ObjectId),
    /// Write a value to an atomic register.
    Write(ObjectId, Value),
    /// Propose a value to a consensus object (at most once per process).
    Propose(ObjectId, Value),
    /// Test-and-set: returns the previous bit and sets it.
    TestAndSet(ObjectId),
    /// Fetch-and-add: returns the previous count and adds `delta`.
    FetchAndAdd(ObjectId, u32),
    /// Fetch-and-max on a fetch-and-add counter: returns the previous count
    /// and raises it to at least `floor` (`AtomicU64::fetch_max`).
    FetchMax(ObjectId, u32),
    /// Swap: returns the previous value and stores the new one.
    Swap(ObjectId, Value),
}

impl Op {
    /// The object this operation targets.
    pub fn object(self) -> ObjectId {
        match self {
            Op::Read(o)
            | Op::Write(o, _)
            | Op::Propose(o, _)
            | Op::TestAndSet(o)
            | Op::FetchAndAdd(o, _)
            | Op::FetchMax(o, _)
            | Op::Swap(o, _) => o,
        }
    }

    /// Whether this operation can mutate object state.
    pub fn is_mutating(self) -> bool {
        !matches!(self, Op::Read(_))
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read(o) => write!(f, "read({o})"),
            Op::Write(o, v) => write!(f, "write({o},{v})"),
            Op::Propose(o, v) => write!(f, "propose({o},{v})"),
            Op::TestAndSet(o) => write!(f, "test&set({o})"),
            Op::FetchAndAdd(o, d) => write!(f, "fetch&add({o},{d})"),
            Op::FetchMax(o, m) => write!(f, "fetch&max({o},{m})"),
            Op::Swap(o, v) => write!(f, "swap({o},{v})"),
        }
    }
}

/// Result of attempting an operation on an object.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum OpOutcome {
    /// The operation completed atomically and returned a value
    /// (writes return [`Value::Bot`]).
    Done(Value),
    /// The operation did not complete (a guest proposal on a `(y,x)`-live
    /// consensus object that is still waiting for isolation). The attempt
    /// itself counts as an event on the object; the process will retry on its
    /// next scheduled step.
    Pending,
}

impl OpOutcome {
    /// Whether the operation completed.
    pub fn is_done(self) -> bool {
        matches!(self, OpOutcome::Done(_))
    }

    /// The returned value, if completed.
    pub fn value(self) -> Option<Value> {
        match self {
            OpOutcome::Done(v) => Some(v),
            OpOutcome::Pending => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_extraction() {
        let o = ObjectId::new(3);
        assert_eq!(Op::Read(o).object(), o);
        assert_eq!(Op::Write(o, Value::Num(1)).object(), o);
        assert_eq!(Op::Propose(o, Value::Num(1)).object(), o);
        assert_eq!(Op::TestAndSet(o).object(), o);
        assert_eq!(Op::FetchAndAdd(o, 2).object(), o);
        assert_eq!(Op::FetchMax(o, 2).object(), o);
        assert_eq!(Op::Swap(o, Value::Bot).object(), o);
    }

    #[test]
    fn mutating_classification() {
        let o = ObjectId::new(0);
        assert!(!Op::Read(o).is_mutating());
        assert!(Op::Write(o, Value::Bot).is_mutating());
        assert!(Op::Propose(o, Value::Num(0)).is_mutating());
    }

    #[test]
    fn outcome_accessors() {
        assert!(OpOutcome::Done(Value::Num(1)).is_done());
        assert!(!OpOutcome::Pending.is_done());
        assert_eq!(OpOutcome::Done(Value::Num(1)).value(), Some(Value::Num(1)));
        assert_eq!(OpOutcome::Pending.value(), None);
    }

    #[test]
    fn display() {
        let o = ObjectId::new(2);
        assert_eq!(Op::Read(o).to_string(), "read(obj2)");
        assert_eq!(Op::Propose(o, Value::Num(9)).to_string(), "propose(obj2,9)");
    }
}
