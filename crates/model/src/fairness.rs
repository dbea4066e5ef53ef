//! Fair-termination analysis over the finite state graph.
//!
//! The paper's termination properties all have the shape "under conditions C,
//! every correct participating process eventually decides". In a finite state
//! graph this fails exactly when there is a reachable strongly-connected
//! component in which **every live process keeps taking steps yet some
//! required process never decides** — a *fair livelock*. (An infinite run in
//! a finite graph eventually stays inside one SCC; if it is fair, every live
//! process has steps inside that SCC.)
//!
//! [`fair_termination`] builds the reachable state graph, runs Tarjan's SCC
//! algorithm, and reports every fair livelock in which a required process is
//! still live. This machinery turns the paper's liveness *proofs*
//! (Lemmas 10, 12–14) into exhaustive small-configuration checks, and the
//! impossibility scenarios (Theorem 2's lockstep guests) into positive
//! livelock *witnesses*.

use std::collections::HashMap;

use crate::pid::{ProcessId, ProcessSet};
use crate::program::Program;
use crate::system::System;

/// One edge of the state graph: process `pid` steps from state `from` to
/// state `to` (indices into the graph's state table).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Edge {
    /// Source state index.
    pub from: usize,
    /// The process taking the step.
    pub pid: ProcessId,
    /// Destination state index.
    pub to: usize,
}

/// The explicit reachable state graph of a system (step transitions only;
/// crashes are applied up front by the caller if desired).
#[derive(Clone, Debug)]
pub struct StateGraph<P> {
    states: Vec<System<P>>,
    edges: Vec<Edge>,
    truncated: bool,
}

impl<P: Program> StateGraph<P> {
    /// Builds the reachable state graph from `initial`, up to `max_states`
    /// distinct states.
    pub fn build(initial: &System<P>, max_states: usize) -> Self {
        let mut index: HashMap<System<P>, usize> = HashMap::new();
        let mut states: Vec<System<P>> = Vec::new();
        let mut edges: Vec<Edge> = Vec::new();
        let mut truncated = false;

        index.insert(initial.clone(), 0);
        states.push(initial.clone());
        let mut frontier = vec![0usize];
        while let Some(at) = frontier.pop() {
            let state = states[at].clone();
            for pid in state.live_set().iter() {
                let mut next = state.clone();
                next.step(pid);
                let to = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        if states.len() >= max_states {
                            truncated = true;
                            continue;
                        }
                        let i = states.len();
                        index.insert(next.clone(), i);
                        states.push(next);
                        frontier.push(i);
                        i
                    }
                };
                edges.push(Edge { from: at, pid, to });
            }
        }
        StateGraph { states, edges, truncated }
    }

    /// The states of the graph (index 0 is the initial state).
    pub fn states(&self) -> &[System<P>] {
        &self.states
    }

    /// All step edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Whether the state budget truncated construction.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Strongly connected components (Tarjan), as lists of state indices.
    /// Components are returned in reverse topological order.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.states.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            adj[e.from].push(e.to);
        }
        tarjan(&adj)
    }
}

/// A *fair livelock*: an SCC in which every live process has internal steps,
/// so a fair scheduler can stay inside forever, yet the live processes never
/// decide.
#[derive(Clone, Debug)]
pub struct LivelockWitness {
    /// State indices of the SCC (into the graph's state table).
    pub scc: Vec<usize>,
    /// The processes still live throughout the SCC.
    pub live: ProcessSet,
    /// A sample state index from the SCC.
    pub sample_state: usize,
}

/// Finds every fair livelock in the graph.
///
/// An SCC qualifies when (1) it contains at least one edge, and (2) every
/// process that is live in its states has at least one edge *internal* to the
/// SCC. Statuses cannot change inside an SCC (deciding, halting and crashing
/// are irreversible), so the live set is constant across it.
pub fn fair_livelocks<P: Program>(graph: &StateGraph<P>) -> Vec<LivelockWitness> {
    let sccs = graph.sccs();
    let mut scc_of: Vec<usize> = vec![0; graph.states.len()];
    for (i, scc) in sccs.iter().enumerate() {
        for &s in scc {
            scc_of[s] = i;
        }
    }
    // Internal steppers of every SCC, in one pass over the edges.
    let mut internal = vec![ProcessSet::new(); sccs.len()];
    for e in &graph.edges {
        if scc_of[e.from] == scc_of[e.to] {
            internal[scc_of[e.from]].insert(e.pid);
        }
    }
    let mut witnesses = Vec::new();
    for (scc, internal) in sccs.iter().zip(internal) {
        let sample = scc[0];
        let live = graph.states[sample].live_set();
        // A live process stepping inside the SCC is also what makes it a
        // cycle: a non-empty `live ⊆ internal` implies an internal edge.
        if !live.is_empty() && live.is_subset(internal) {
            witnesses.push(LivelockWitness { scc: scc.clone(), live, sample_state: sample });
        }
    }
    witnesses
}

/// Result of a fair-termination check.
#[derive(Clone, Debug)]
pub enum FairTermination {
    /// Every fair run eventually has all required processes decided
    /// (within the explored graph).
    Holds {
        /// Number of states examined.
        states: usize,
    },
    /// A fair livelock exists in which a required process never decides.
    Livelock(LivelockWitness),
    /// A required process terminated without deciding (halted or faulted).
    WrongTermination {
        /// The offending process.
        pid: ProcessId,
        /// State index where it was observed.
        state: usize,
    },
    /// The state budget truncated graph construction; no verdict.
    Truncated,
}

impl FairTermination {
    /// Whether the property holds.
    pub fn holds(&self) -> bool {
        matches!(self, FairTermination::Holds { .. })
    }
}

/// Checks fair termination: in every fair run, every process selected by
/// `required` eventually decides (unless it crashes).
///
/// `required` receives each process id; return `true` for the processes the
/// paper's progress condition obliges to decide (e.g. "correct participating
/// processes").
pub fn fair_termination<P: Program>(
    graph: &StateGraph<P>,
    required: impl Fn(ProcessId) -> bool,
) -> FairTermination {
    if graph.truncated() {
        return FairTermination::Truncated;
    }
    // A required process must never halt or fault without deciding.
    for (idx, state) in graph.states().iter().enumerate() {
        for i in 0..state.n() {
            let pid = ProcessId::new(i);
            if !required(pid) {
                continue;
            }
            match state.status(pid) {
                crate::system::ProcStatus::Halted | crate::system::ProcStatus::Faulted(_) => {
                    return FairTermination::WrongTermination { pid, state: idx };
                }
                _ => {}
            }
        }
    }
    for witness in fair_livelocks(graph) {
        if witness.live.iter().any(&required) {
            return FairTermination::Livelock(witness);
        }
    }
    FairTermination::Holds { states: graph.states().len() }
}

/// Tarjan's strongly connected components algorithm (iterative).
fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeData {
        index: i64,
        lowlink: i64,
        on_stack: bool,
    }
    let n = adj.len();
    let mut data = vec![NodeData { index: -1, lowlink: -1, on_stack: false }; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut counter: i64 = 0;

    // Iterative DFS: (node, child cursor).
    for root in 0..n {
        if data[root].index != -1 {
            continue;
        }
        let mut call_stack: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = call_stack.last_mut() {
            if *cursor == 0 {
                data[v].index = counter;
                data[v].lowlink = counter;
                counter += 1;
                stack.push(v);
                data[v].on_stack = true;
            }
            if *cursor < adj[v].len() {
                let w = adj[v][*cursor];
                *cursor += 1;
                if data[w].index == -1 {
                    call_stack.push((w, 0));
                } else if data[w].on_stack {
                    data[v].lowlink = data[v].lowlink.min(data[w].index);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    let low = data[v].lowlink;
                    data[parent].lowlink = data[parent].lowlink.min(low);
                }
                if data[v].lowlink == data[v].index {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack non-empty");
                        data[w].on_stack = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pid::ProcessSet;
    use crate::programs::ProposeProgram;
    use crate::system::SystemBuilder;
    use crate::value::Value;

    fn consensus_system(wait_free: ProcessSet) -> System<ProposeProgram> {
        let mut b = SystemBuilder::new(2);
        let cons = b.add_live_consensus(ProcessSet::first_n(2), wait_free, 1);
        b.build(|pid| ProposeProgram::new(cons, Value::Num(pid.index() as u32)))
    }

    #[test]
    fn wait_free_consensus_has_no_livelock() {
        let sys = consensus_system(ProcessSet::first_n(2));
        let graph = StateGraph::build(&sys, 100_000);
        assert!(!graph.truncated());
        let verdict = fair_termination(&graph, |_| true);
        assert!(verdict.holds(), "{verdict:?}");
    }

    #[test]
    fn obstruction_free_guests_livelock() {
        // Two guests on a (2,0)-live object: the lockstep adversary keeps
        // them pending forever — a fair livelock must be found.
        let sys = consensus_system(ProcessSet::EMPTY);
        let graph = StateGraph::build(&sys, 100_000);
        assert!(!graph.truncated());
        let witnesses = fair_livelocks(&graph);
        assert!(!witnesses.is_empty(), "lockstep guests are a fair livelock");
        let verdict = fair_termination(&graph, |_| true);
        assert!(matches!(verdict, FairTermination::Livelock(_)));
    }

    #[test]
    fn one_wait_free_member_still_livelocks_the_other_guest_only_after_decision_helps() {
        // (2,1)-live object: the guest can always finish once the wait-free
        // member decided or once it runs alone; no fair livelock.
        let sys = consensus_system(ProcessSet::from_indices([0]));
        let graph = StateGraph::build(&sys, 100_000);
        let verdict = fair_termination(&graph, |_| true);
        assert!(verdict.holds(), "{verdict:?}");
    }

    #[test]
    fn tarjan_on_simple_cycle() {
        // 0 -> 1 -> 2 -> 0 and 3 alone.
        let adj = vec![vec![1], vec![2], vec![0], vec![]];
        let mut sccs = tarjan(&adj);
        for scc in &mut sccs {
            scc.sort_unstable();
        }
        sccs.sort();
        assert!(sccs.contains(&vec![0, 1, 2]));
        assert!(sccs.contains(&vec![3]));
    }

    #[test]
    fn tarjan_on_dag_gives_singletons() {
        let adj = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let sccs = tarjan(&adj);
        assert_eq!(sccs.len(), 4);
        assert!(sccs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn graph_build_reports_truncation() {
        let sys = consensus_system(ProcessSet::EMPTY);
        let graph = StateGraph::build(&sys, 3);
        assert!(graph.truncated());
        let verdict = fair_termination(&graph, |_| true);
        assert!(matches!(verdict, FairTermination::Truncated));
    }

    #[test]
    fn wrong_termination_detected_for_halting_required_process() {
        use crate::program::MaybeParticipant;
        // An absent process halts immediately; requiring it to decide fails.
        let mut b = SystemBuilder::new(1);
        let _ = b.add_register(Value::Bot);
        let sys = b.build(|_| MaybeParticipant::<ProposeProgram>::Absent);
        let graph = StateGraph::build(&sys, 1000);
        let verdict = fair_termination(&graph, |_| true);
        assert!(matches!(verdict, FairTermination::WrongTermination { .. }));
    }
}
