//! The shard commit path as an `apc-model` program, exhaustively checkable.
//!
//! The real commit path (see [`crate::store`]) is: a port proposes its batch
//! into the next free log cell's `(y,x)`-live consensus, applies the decided
//! batch, and publishes its commit digest. This module models exactly that
//! kernel with one atomic event per shared-memory access:
//!
//! * the **log cell** is a `(y,x)`-live consensus base object (the
//!   simulated object with *exactly* the paper's liveness: one-event
//!   completion for the wait-free set, isolation-window completion for
//!   guests);
//! * the **digest publication** is a register write;
//! * a committer *decides* the value its cell agreed on.
//!
//! Small instances verify the two claims the service layer makes
//! (Theorem 3 flavor):
//!
//! 1. **safety** — every schedule agrees on one committed batch per cell,
//!    and the committed batch was proposed (linearizability of the commit
//!    point);
//! 2. **asymmetric liveness** — every fair schedule in which a VIP
//!    participates terminates, while guest-only schedules admit a fair
//!    livelock (lockstep guests starve each other forever), which the model
//!    checker exhibits as a positive witness.
//!
//! The read path ([`SyncReadProgram`], [`sync_read_system`]) adds a third:
//!
//! 3. **reads that do not append** — a reader that loads the tail once and
//!    peeks the cells below it observes exactly the prefix `[0, tail)`,
//!    misses nothing that had completed before it started
//!    ([`PrefixSafety`]), and terminates in *every* schedule, the lockstep
//!    ones included: it never proposes to a cell.
//!
//! The segmented log ([`LogCells::segmented`], [`segmented_commit_system`],
//! [`segmented_sync_read_system`]) adds a fourth:
//!
//! 4. **the segment hand-off** — the real log allocates its cells 64 at a
//!    time and links each segment to the next with a CAS from `⊥`. With
//!    segments of two, every placer or reader that absorbs a segment's last
//!    cell proposes the segment it built to the boundary's link and walks
//!    on in the segment the link decided, and [`PlacementSafety`] and
//!    [`PrefixSafety`] hold over the log the links decide.
//!
//! A **seal** is one more value placed in the log: a checkpoint and a
//! drain (a split's or a merge's) are each one
//! [`SealRecord`](apc_universal::SealRecord) in the real log, agreed
//! through the same cells as batches. So the model has one seal marker,
//! `SEAL_BASE + pid`, and one race of batches against it
//! ([`seal_commit_system`]), which the read path and the segmented log run
//! too. Only the cross-log merge ([`merge_adopt_system`]) needs a second
//! marker from the same placer, the parent-side adoption
//! (`ADOPT_BASE + pid`), for [`MergeOrder`].

use std::sync::Arc;

use apc_model::{
    Either, MaybeParticipant, ObjectId, Op, ProcessSet, Program, ProgramAction, System,
    SystemBuilder, Value,
};

/// Object ids of one modeled shard commit instance.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CommitObjects {
    /// The next free log cell: a `(y,x)`-live consensus base object.
    pub cell: ObjectId,
    /// The digest register the winning committer publishes into.
    pub committed: ObjectId,
}

impl CommitObjects {
    /// Adds the shard-commit objects for `ports` ports with wait-free set
    /// `vips` and the given guest isolation window.
    pub fn add_to(
        builder: &mut SystemBuilder,
        ports: ProcessSet,
        vips: ProcessSet,
        isolation_window: u8,
    ) -> Self {
        let cell = builder.add_live_consensus(ports, vips, isolation_window);
        let committed = builder.add_register(Value::Bot);
        CommitObjects { cell, committed }
    }
}

/// One port committing one batch: propose to the cell, publish the decided
/// batch id, decide it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ShardCommitProgram {
    objs: CommitObjects,
    batch_id: u32,
    decided: Value,
    state: CommitState,
}

#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum CommitState {
    /// Next: propose my batch to the cell (retries while the cell keeps the
    /// guest pending — each retry is one atomic event).
    Start,
    /// Awaiting the cell's decision; next: publish it.
    GotDecision,
    /// Awaiting the publish acknowledgement; next: decide.
    Published,
}

impl ShardCommitProgram {
    /// A committer proposing batch `batch_id`.
    pub fn new(objs: CommitObjects, batch_id: u32) -> Self {
        ShardCommitProgram { objs, batch_id, decided: Value::Bot, state: CommitState::Start }
    }
}

impl Program for ShardCommitProgram {
    fn resume(&mut self, last: Option<Value>) -> ProgramAction {
        match self.state {
            CommitState::Start => {
                self.state = CommitState::GotDecision;
                ProgramAction::Invoke(Op::Propose(self.objs.cell, Value::Num(self.batch_id)))
            }
            CommitState::GotDecision => {
                self.decided = last.expect("propose completes with the decided batch");
                self.state = CommitState::Published;
                ProgramAction::Invoke(Op::Write(self.objs.committed, self.decided))
            }
            CommitState::Published => ProgramAction::Decide(self.decided),
        }
    }

    fn name(&self) -> &'static str {
        "shard-commit"
    }
}

/// Builds the modeled commit path for `ports` total ports of which the
/// first `vips` are wait-free, with participation restricted to
/// `participants` (absent ports never take a step).
///
/// Each participant `i` proposes batch id `100 + i`.
///
/// # Panics
///
/// Panics if `ports == 0` or `vips > ports`.
pub fn shard_commit_system(
    ports: usize,
    vips: usize,
    isolation_window: u8,
    participants: ProcessSet,
) -> (System<MaybeParticipant<ShardCommitProgram>>, CommitObjects) {
    assert!(ports > 0 && vips <= ports, "need 0 < ports and vips ≤ ports");
    let mut builder = SystemBuilder::new(ports);
    let objs = CommitObjects::add_to(
        &mut builder,
        ProcessSet::first_n(ports),
        ProcessSet::first_n(vips),
        isolation_window,
    );
    let system = builder.build(|pid| {
        if participants.contains(pid) {
            MaybeParticipant::Present(ShardCommitProgram::new(objs, 100 + pid.index() as u32))
        } else {
            MaybeParticipant::Absent
        }
    });
    (system, objs)
}

/// The proposal values of `participants` (for validity invariants).
pub fn proposed_batches(participants: ProcessSet) -> Vec<Value> {
    participants.iter().map(|p| Value::Num(100 + p.index() as u32)).collect()
}

// ---------------------------------------------------------------------------
// A seal racing concurrent commits: the multi-cell log model.
// ---------------------------------------------------------------------------

/// Batch ids are `100 + pid`; seal markers — a checkpoint or a split's or
/// merge's drain ([`ShardCmd::Drain`](crate::ops::ShardCmd)), which place
/// alike — are `SEAL_BASE + pid`.
pub const SEAL_BASE: u32 = 900;

/// Merge-adoption markers (the parent-side fold-in of a live merge) are
/// `ADOPT_BASE + pid` — the model of
/// [`ShardCmd::Adopt`](crate::ops::ShardCmd) placing in the parent's log.
pub const ADOPT_BASE: u32 = 600;

/// Segment ids — what a port proposes to a segment link: the segment it
/// built — are `SEGMENT_BASE + pid`.
pub const SEGMENT_BASE: u32 = 500;

/// Cells per segment of a modeled segmented log: two, so that three
/// placers, or two and a log that starts in mid-segment, cross a boundary.
/// (The real log's segments hold 64.)
pub const MODEL_SEGMENT_CELLS: usize = 2;

/// A modeled log as its walkers find it: the cells of its first segment,
/// from where the log starts in it, then one boundary per later segment.
///
/// At a boundary every port has a segment of its own, the one it would
/// build; crossing is one propose of `SEGMENT_BASE + pid` to the
/// boundary's **link**, a wait-free consensus object (the real link's CAS
/// from `⊥`), and the walk continues in the segment the link decided. A
/// flat log ([`LogCells::flat`]) is one long first segment with no
/// boundary. Whatever the schedule, the log is what
/// [`LogCells::linked_cells`] reads off the decided links.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LogCells {
    /// The first segment's cells from the log's start (all of a flat log).
    head: Vec<ObjectId>,
    boundaries: Vec<Boundary>,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Boundary {
    /// Decides which segment comes next.
    link: ObjectId,
    /// By pid: the segment that port proposes here.
    segments: Vec<Vec<ObjectId>>,
}

impl LogCells {
    /// A log of the given cells, in order, with no segment boundary.
    pub fn flat(cells: Vec<ObjectId>) -> Self {
        LogCells { head: cells, boundaries: Vec::new() }
    }

    /// Adds a segmented log for `ports` ports to `builder`: a first segment
    /// entered `start` cells in, then a boundary after each segment that
    /// ends inside a window of `len` cells. Each cell is made by
    /// `new_cell`.
    ///
    /// # Panics
    ///
    /// Panics if `start ≥ MODEL_SEGMENT_CELLS`.
    pub fn segmented(
        builder: &mut SystemBuilder,
        ports: usize,
        len: usize,
        start: usize,
        mut new_cell: impl FnMut(&mut SystemBuilder) -> ObjectId,
    ) -> Self {
        assert!(start < MODEL_SEGMENT_CELLS, "the log starts inside its first segment");
        let head: Vec<ObjectId> = (start..MODEL_SEGMENT_CELLS).map(|_| new_cell(builder)).collect();
        // One boundary after each segment whose last cell is in the window:
        // the walker that absorbs that cell crosses it, eagerly.
        let count = len.checked_sub(head.len()).map_or(0, |rest| rest / MODEL_SEGMENT_CELLS + 1);
        let all = ProcessSet::first_n(ports);
        let boundaries = (0..count)
            .map(|_| Boundary {
                link: builder.add_live_consensus(all, all, 0),
                segments: (0..ports)
                    .map(|_| (0..MODEL_SEGMENT_CELLS).map(|_| new_cell(builder)).collect())
                    .collect(),
            })
            .collect();
        LogCells { head, boundaries }
    }

    /// Log cell `index` for a walker in the segment `segment` built, if
    /// the window has it (`segment` is `None` in the first segment).
    fn cell_at(&self, index: usize, segment: Option<usize>) -> Option<ObjectId> {
        let Some(rest) = index.checked_sub(self.head.len()) else {
            return Some(self.head[index]);
        };
        let boundary = self.boundaries.get(rest / MODEL_SEGMENT_CELLS)?;
        Some(boundary.segments[segment?][rest % MODEL_SEGMENT_CELLS])
    }

    /// The link a walker crosses after absorbing cell `index`: `Some` iff
    /// that cell ends a segment and the window goes on.
    fn link_after(&self, index: usize) -> Option<ObjectId> {
        let rest = (index + 1).checked_sub(self.head.len())?;
        let boundary = self.boundaries.get(rest / MODEL_SEGMENT_CELLS)?;
        (rest % MODEL_SEGMENT_CELLS == 0).then_some(boundary.link)
    }

    /// The log in `sys`: the first segment's cells, then those of each
    /// segment a link decided, up to the first undecided link.
    pub fn linked_cells<P: Program>(&self, sys: &System<P>) -> Vec<ObjectId> {
        let mut cells = self.head.clone();
        for boundary in &self.boundaries {
            let Some(builder) = segment_builder(sys.object(boundary.link).consensus_decision())
            else {
                break;
            };
            cells.extend(&boundary.segments[builder]);
        }
        cells
    }
}

/// The port whose segment a link decided, from the link's decision.
fn segment_builder(decided: Option<Value>) -> Option<usize> {
    Some(decided?.as_num()?.checked_sub(SEGMENT_BASE)? as usize)
}

/// One port placing one value (a batch or a seal) into a multi-cell
/// log, exactly like the real universal construction walks its cells:
/// propose to the next free cell; if the cell agreed on someone else's
/// value, move on and re-propose; stop at the cell that agreed on mine.
/// Absorbing a segment's last cell crosses into the next segment first,
/// whoever's value the cell agreed on, as `Universal::advance` does: the
/// placer proposes the segment it built to the link and walks on in the
/// one the link decided.
///
/// With as many cells as participants, every participant places within the
/// window (each process wins at most one cell, so a process can lose at
/// most `participants − 1` times) — the model-checkable core of the claim
/// that a seal never drops or duplicates a committed op.
///
/// A placer built with [`LogPlaceProgram::publishing`] also does what
/// `OwnedHandle::apply` does for the read path: once it has absorbed the
/// cell that agreed on its own value (and crossed, if that cell ends a
/// segment) it raises the shared tail past it — once per placement, not
/// per cell — and it marks itself finished before it returns.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LogPlaceProgram {
    log: Arc<LogCells>,
    pid: usize,
    value: Value,
    next_cell: usize,
    /// Whose segment the cursor is in past the first one.
    segment: Option<usize>,
    step: PlaceStep,
    publish: Option<(TailObjects, u32)>,
}

#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum PlaceStep {
    /// Next: propose my value to `next_cell`.
    Propose,
    /// Awaiting the cell's decision; next: absorb it.
    Absorb,
    /// Awaiting the link's decision past the absorbed cell (which agreed on
    /// my value iff `mine`).
    Cross { mine: bool },
    /// Awaiting the tail raise past my own absorbed cell.
    Raise,
    /// Awaiting the finished mark; next: return.
    Return,
}

impl LogPlaceProgram {
    /// Port `pid` trying to place `value` into `log`, in order.
    pub fn new(log: Arc<LogCells>, pid: usize, value: Value) -> Self {
        LogPlaceProgram {
            log,
            pid,
            value,
            next_cell: 0,
            segment: None,
            step: PlaceStep::Propose,
            publish: None,
        }
    }

    /// The same placer, raising `objs.tail` past the cell that agreed on its
    /// value and adding `finished_bit` to `objs.finished` once it is placed.
    pub fn publishing(mut self, objs: TailObjects, finished_bit: u32) -> Self {
        self.publish = Some((objs, finished_bit));
        self
    }

    fn propose(&mut self) -> ProgramAction {
        self.step = PlaceStep::Absorb;
        match self.log.cell_at(self.next_cell, self.segment) {
            Some(cell) => ProgramAction::Invoke(Op::Propose(cell, self.value)),
            // Unreachable when cells ≥ participants (pigeonhole); reported
            // as a dropped placement by [`PlacementSafety`] if it happens.
            None => ProgramAction::Halt,
        }
    }

    /// After absorbing `next_cell`: cross into the next segment if the
    /// cell ends one, then — if the cell is mine — raise the tail.
    fn absorbed(&mut self, mine: bool) -> ProgramAction {
        match self.log.link_after(self.next_cell) {
            Some(link) => {
                self.step = PlaceStep::Cross { mine };
                let built = Value::Num(SEGMENT_BASE + self.pid as u32);
                ProgramAction::Invoke(Op::Propose(link, built))
            }
            None => self.raise(mine),
        }
    }

    fn raise(&mut self, mine: bool) -> ProgramAction {
        match self.publish {
            Some((objs, _)) if mine => {
                self.step = PlaceStep::Raise;
                let past = self.next_cell as u32 + 1;
                ProgramAction::Invoke(Op::FetchMax(objs.tail, past))
            }
            _ => self.advance(mine),
        }
    }

    /// The cursor moves past an absorbed cell: on to the next one, or, if
    /// the cell agreed on my value, home.
    fn advance(&mut self, mine: bool) -> ProgramAction {
        if !mine {
            self.next_cell += 1;
            return self.propose();
        }
        match self.publish {
            Some((objs, bit)) => {
                self.step = PlaceStep::Return;
                ProgramAction::Invoke(Op::FetchAndAdd(objs.finished, bit))
            }
            None => ProgramAction::Decide(self.value),
        }
    }
}

impl Program for LogPlaceProgram {
    fn resume(&mut self, last: Option<Value>) -> ProgramAction {
        match self.step {
            PlaceStep::Propose => self.propose(),
            PlaceStep::Absorb => {
                let mine = last.expect("propose completes with the decided value") == self.value;
                self.absorbed(mine)
            }
            PlaceStep::Cross { mine } => {
                self.segment = segment_builder(last);
                self.raise(mine)
            }
            PlaceStep::Raise => self.advance(true),
            PlaceStep::Return => ProgramAction::Decide(self.value),
        }
    }

    fn name(&self) -> &'static str {
        "log-place"
    }
}

/// The safety invariant of the sealed commit path, checked at every
/// reachable state:
///
/// 1. **no duplicate placement** — no value is agreed by two different log
///    cells (a committed batch or seal is never replayed twice);
/// 2. **cell validity** — every cell decision is some participant's
///    proposal;
/// 3. **placement before decision** — a port only decides a value some
///    cell of the log actually agreed on (in a segmented log, a cell of a
///    segment some link decided);
/// 4. **no dropped commit** — in a terminal state, every participant has
///    decided (its value was placed inside the log window).
#[derive(Clone, Debug)]
pub struct PlacementSafety {
    /// The log.
    pub log: LogCells,
    /// The participating ports.
    pub participants: ProcessSet,
    /// Every participant's proposal value.
    pub proposals: Vec<Value>,
}

impl<P: apc_model::Program> apc_model::explore::Invariant<P> for PlacementSafety {
    fn check(&self, sys: &System<P>) -> Result<(), String> {
        let placed: Vec<Value> = self
            .log
            .linked_cells(sys)
            .iter()
            .filter_map(|c| sys.object(*c).consensus_decision())
            .collect();
        for (i, v) in placed.iter().enumerate() {
            if placed[..i].contains(v) {
                return Err(format!("value {v} was agreed by two log cells"));
            }
            if !self.proposals.contains(v) {
                return Err(format!("cell agreed on unproposed value {v}"));
            }
        }
        for (pid, v) in sys.decisions() {
            if !placed.contains(&v) {
                return Err(format!("{pid} decided {v} but no cell agreed on it"));
            }
        }
        if sys.all_terminated() {
            for pid in self.participants.iter() {
                if sys.decision(pid).is_none() {
                    return Err(format!("terminal state dropped {pid}'s placement"));
                }
            }
        }
        Ok(())
    }

    fn name(&self) -> &str {
        "placement-safety"
    }
}

/// Builds the **seal race**: `committers` race their batches (`100 + pid`)
/// against each of `sealers`' seals (`SEAL_BASE + pid`) over a log window
/// of one `(ports,vips)`-live cell per participant — the model of a checkpoint
/// ([`Store::checkpoint`]) or a drain — a split's
/// ([`Store::split_shard`]) or a merge's child-side one
/// ([`Store::merge_shard`]) — racing concurrent VIP/guest batches through the
/// shard's own log. (The cross-log half of a merge — the drain *then* the
/// adoption — is [`merge_adopt_system`].) Pass one sealer (`Some(pid)`) for
/// a seal racing batches, or two for seals racing each other as well: a
/// split's seal carries its operation, so a checkpoint racing it does not
/// stop at it, and each places its own.
///
/// [`PlacementSafety`] over the result is the seal-safety claim: every seal
/// and every batch place **exactly once** (no committed op is dropped by
/// the seal, or replayed into both sides of a split or after a drain), and
/// terminal states place every participant.
///
/// Returns the system, the log cells, and the participants' proposal set.
///
/// # Panics
///
/// Panics if `ports == 0`, `vips > ports`, or a sealer is also a
/// committer.
///
/// [`Store::checkpoint`]: crate::store::Store::checkpoint
/// [`Store::split_shard`]: crate::store::Store::split_shard
/// [`Store::merge_shard`]: crate::store::Store::merge_shard
pub fn seal_commit_system(
    ports: usize,
    vips: usize,
    isolation_window: u8,
    committers: ProcessSet,
    sealers: impl IntoIterator<Item = usize>,
) -> (System<MaybeParticipant<LogPlaceProgram>>, Vec<ObjectId>, Vec<Value>) {
    let race = PlaceRace::new(ports, vips, isolation_window, committers, sealers, None);
    let (system, safety) = race.build(|place| place, |_| MaybeParticipant::Absent);
    (system, safety.log.head, safety.proposals)
}

/// One port placing a value in **each of two logs, in order**: the merge
/// driver's shape. Stage 0 walks the first log's cells until its drain
/// marker is agreed (the child-side retirement); only then does stage 1
/// begin walking the second log for the adoption marker (the parent-side
/// fold-in). Decides the adoption value once both are placed — the model
/// of [`Store::merge_shard`]'s two sequential `reconfigure` calls.
///
/// [`Store::merge_shard`]: crate::store::Store::merge_shard
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DualLogPlaceProgram {
    stages: [(Vec<ObjectId>, Value); 2],
    stage: usize,
    next_cell: usize,
    started: bool,
}

impl DualLogPlaceProgram {
    /// A driver placing `first_value` into `first_cells`, then
    /// `second_value` into `second_cells`.
    pub fn new(
        first_cells: Vec<ObjectId>,
        first_value: Value,
        second_cells: Vec<ObjectId>,
        second_value: Value,
    ) -> Self {
        DualLogPlaceProgram {
            stages: [(first_cells, first_value), (second_cells, second_value)],
            stage: 0,
            next_cell: 0,
            started: false,
        }
    }
}

impl Program for DualLogPlaceProgram {
    fn resume(&mut self, last: Option<Value>) -> ProgramAction {
        if self.started {
            let decided = last.expect("propose completes with the decided value");
            let (_, value) = &self.stages[self.stage];
            if decided == *value {
                if self.stage == 1 {
                    return ProgramAction::Decide(*value);
                }
                // The drain is placed; move to the adoption log.
                self.stage = 1;
                self.next_cell = 0;
            } else {
                self.next_cell += 1;
            }
        }
        self.started = true;
        let (cells, value) = &self.stages[self.stage];
        match cells.get(self.next_cell) {
            Some(cell) => ProgramAction::Invoke(Op::Propose(*cell, *value)),
            // Unreachable when each log has one cell per port placing in
            // it (pigeonhole); reported by [`PlacementSafety`] if not.
            None => ProgramAction::Halt,
        }
    }

    fn name(&self) -> &'static str {
        "dual-log-place"
    }
}

/// The program of one port in the cross-log merge model: a committer
/// placing a batch in one log, or the merge driver crossing both.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum MergePlaceProgram {
    /// A client batch placing into a single log.
    Commit(LogPlaceProgram),
    /// The merge driver: drain the child log, then adopt into the parent.
    Merge(DualLogPlaceProgram),
}

impl Program for MergePlaceProgram {
    fn resume(&mut self, last: Option<Value>) -> ProgramAction {
        match self {
            MergePlaceProgram::Commit(p) => p.resume(last),
            MergePlaceProgram::Merge(p) => p.resume(last),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            MergePlaceProgram::Commit(p) => p.name(),
            MergePlaceProgram::Merge(p) => p.name(),
        }
    }
}

/// The cross-log ordering invariant of a live merge: the adoption marker
/// may appear in the parent's log **only after** the drain marker is
/// agreed in the child's log. (The real driver proposes the adoption only
/// once the retirement cell decided; a schedule where the adoption showed
/// up first would mean adopted keys nobody drained.)
#[derive(Clone, Debug)]
pub struct MergeOrder {
    /// The child (drain) log's cells.
    pub child_cells: Vec<ObjectId>,
    /// The parent (adopt) log's cells.
    pub parent_cells: Vec<ObjectId>,
    /// The drain marker value.
    pub drain: Value,
    /// The adoption marker value.
    pub adopt: Value,
}

impl<P: apc_model::Program> apc_model::explore::Invariant<P> for MergeOrder {
    fn check(&self, sys: &System<P>) -> Result<(), String> {
        let placed = |cells: &[ObjectId], v: &Value| {
            cells.iter().any(|c| sys.object(*c).consensus_decision().as_ref() == Some(v))
        };
        if placed(&self.parent_cells, &self.adopt) && !placed(&self.child_cells, &self.drain) {
            return Err(format!(
                "adoption {} was agreed before drain {} — adopted keys nobody drained",
                self.adopt, self.drain
            ));
        }
        Ok(())
    }

    fn name(&self) -> &str {
        "merge-order"
    }
}

/// Builds the **cross-log merge race**: `child_committers` race batches in
/// the child's log and `parent_committers` race batches in the parent's
/// log while `merger` drains the child (`SEAL_BASE + pid`) and then
/// adopts into the parent (`ADOPT_BASE + pid`) — the dual-log shape of
/// [`Store::merge_shard`]. Each log has one `(ports,vips)`-live cell per
/// port placing into it.
///
/// Returns the system, the child cells, the parent cells, and the full
/// proposal set. Check [`PlacementSafety`] over the **union** of the cells
/// (no value places twice anywhere — in particular, nothing commits into
/// both sides of the merge) and [`MergeOrder`] for the cross-log ordering.
///
/// # Panics
///
/// Panics if `ports == 0`, `vips > ports`, the committer sets overlap, or
/// the merger is also a committer.
///
/// [`Store::merge_shard`]: crate::store::Store::merge_shard
#[allow(clippy::type_complexity)]
pub fn merge_adopt_system(
    ports: usize,
    vips: usize,
    isolation_window: u8,
    child_committers: ProcessSet,
    parent_committers: ProcessSet,
    merger: usize,
) -> (System<MaybeParticipant<MergePlaceProgram>>, Vec<ObjectId>, Vec<ObjectId>, Vec<Value>) {
    assert!(ports > 0 && vips <= ports, "need 0 < ports and vips ≤ ports");
    assert!(
        !child_committers.iter().any(|p| parent_committers.contains(p)),
        "a committer places in exactly one log"
    );
    assert!(
        !child_committers.iter().chain(parent_committers.iter()).any(|p| p.index() == merger),
        "the merger does not also commit a batch"
    );
    let mut builder = SystemBuilder::new(ports);
    let child_cells: Vec<ObjectId> = (0..child_committers.iter().count() + 1)
        .map(|_| {
            builder.add_live_consensus(
                ProcessSet::first_n(ports),
                ProcessSet::first_n(vips),
                isolation_window,
            )
        })
        .collect();
    let parent_cells: Vec<ObjectId> = (0..parent_committers.iter().count() + 1)
        .map(|_| {
            builder.add_live_consensus(
                ProcessSet::first_n(ports),
                ProcessSet::first_n(vips),
                isolation_window,
            )
        })
        .collect();
    let mut proposals: Vec<Value> = child_committers
        .iter()
        .chain(parent_committers.iter())
        .map(|p| Value::Num(100 + p.index() as u32))
        .collect();
    proposals.push(Value::Num(SEAL_BASE + merger as u32));
    proposals.push(Value::Num(ADOPT_BASE + merger as u32));
    let child_log = Arc::new(LogCells::flat(child_cells.clone()));
    let parent_log = Arc::new(LogCells::flat(parent_cells.clone()));
    let system = builder.build(|pid| {
        let batch = Value::Num(100 + pid.index() as u32);
        let commit = |log: &Arc<LogCells>| {
            let place = LogPlaceProgram::new(Arc::clone(log), pid.index(), batch);
            MaybeParticipant::Present(MergePlaceProgram::Commit(place))
        };
        if child_committers.contains(pid) {
            commit(&child_log)
        } else if parent_committers.contains(pid) {
            commit(&parent_log)
        } else if pid.index() == merger {
            MaybeParticipant::Present(MergePlaceProgram::Merge(DualLogPlaceProgram::new(
                child_cells.clone(),
                Value::Num(SEAL_BASE + merger as u32),
                parent_cells.clone(),
                Value::Num(ADOPT_BASE + merger as u32),
            )))
        } else {
            MaybeParticipant::Absent
        }
    });
    (system, child_cells, parent_cells, proposals)
}

/// The set-up shared by the single-log races: `committers` placing their
/// batches (`100 + pid`) against `sealers`' seals (`SEAL_BASE + pid`) over a
/// window of one `(ports,vips)`-live cell per placer — flat, or, if
/// `segmented` gives the log's start in its first segment, in segments.
struct PlaceRace {
    builder: SystemBuilder,
    placers: ProcessSet,
    log: Arc<LogCells>,
    /// What each port would place, by pid.
    values: Vec<Value>,
}

impl PlaceRace {
    fn new(
        ports: usize,
        vips: usize,
        isolation_window: u8,
        committers: ProcessSet,
        sealers: impl IntoIterator<Item = usize>,
        segmented: Option<usize>,
    ) -> Self {
        assert!(ports > 0 && vips <= ports, "need 0 < ports and vips ≤ ports");
        let sealers: ProcessSet = sealers.into_iter().collect();
        assert!(
            committers.intersection(sealers).is_empty(),
            "a sealer must not also commit a batch"
        );
        let placers = committers.union(sealers);
        let mut builder = SystemBuilder::new(ports);
        let cell = |b: &mut SystemBuilder| {
            b.add_live_consensus(
                ProcessSet::first_n(ports),
                ProcessSet::first_n(vips),
                isolation_window,
            )
        };
        let len = placers.iter().count();
        let log = match segmented {
            None => LogCells::flat((0..len).map(|_| cell(&mut builder)).collect()),
            Some(start) => LogCells::segmented(&mut builder, ports, len, start, cell),
        };
        let values = (0..ports)
            .map(|pid| {
                let base =
                    if sealers.contains(apc_model::ProcessId::new(pid)) { SEAL_BASE } else { 100 };
                Value::Num(base + pid as u32)
            })
            .collect();
        PlaceRace { builder, placers, log: Arc::new(log), values }
    }

    /// Builds the system: each placer runs `program` of its
    /// [`LogPlaceProgram`], everyone else `other(pid)`.
    fn build<P: Program>(
        self,
        program: impl Fn(LogPlaceProgram) -> P,
        mut other: impl FnMut(usize) -> MaybeParticipant<P>,
    ) -> (System<MaybeParticipant<P>>, PlacementSafety) {
        let PlaceRace { builder, placers, log, values } = self;
        let system = builder.build(|pid| {
            if placers.contains(pid) {
                let pid = pid.index();
                let place = LogPlaceProgram::new(Arc::clone(&log), pid, values[pid]);
                MaybeParticipant::Present(program(place))
            } else {
                other(pid.index())
            }
        });
        let proposals = placers.iter().map(|p| values[p.index()]).collect();
        (system, PlacementSafety { log: LogCells::clone(&log), participants: placers, proposals })
    }
}

/// Builds the **segment hand-off race**: `committers` place their batches
/// (`100 + pid`) and, optionally, `sealer` places a seal, into a log of [`MODEL_SEGMENT_CELLS`]-cell segments that starts
/// `start` cells into its first segment — the model of the real log's
/// 64-cell segments, where a handle that absorbs a segment's last cell
/// proposes the segment it built to the link and walks on in the one the
/// link decided.
///
/// Each placer runs `program` of its [`LogPlaceProgram`]: pass `|p| p` for
/// the placers as built, or a wrapper to check a variant of them. Returns
/// the system and the [`PlacementSafety`] over the log the links decide.
///
/// # Panics
///
/// Panics if `ports == 0`, `vips > ports`, the sealer also commits, or
/// `start ≥ MODEL_SEGMENT_CELLS`.
pub fn segmented_commit_system<P: Program>(
    ports: usize,
    vips: usize,
    isolation_window: u8,
    committers: ProcessSet,
    sealer: Option<usize>,
    start: usize,
    program: impl Fn(LogPlaceProgram) -> P,
) -> (System<MaybeParticipant<P>>, PlacementSafety) {
    let race = PlaceRace::new(ports, vips, isolation_window, committers, sealer, Some(start));
    race.build(program, |_| MaybeParticipant::Absent)
}

// ---------------------------------------------------------------------------
// The read path: a reader bounded by the tail racing the placers.
// ---------------------------------------------------------------------------

/// The shared objects of the read path, beside the log cells.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TailObjects {
    /// `Universal::tail`: a counter only ever raised ([`Op::FetchMax`]), to
    /// one past a cell its raiser has absorbed.
    pub tail: ObjectId,
    /// One bit per placer, added when the placer has placed its value and
    /// is about to return: "this op completed". A reader samples it before
    /// it starts, which is how [`PrefixSafety`] knows what the read must
    /// contain.
    pub finished: ObjectId,
}

/// What a [`SyncReadProgram`] saw, packed into its decision value.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ReadObservation {
    /// The `finished` bits sampled before the read was invoked.
    pub finished: u32,
    /// The tail loaded at invocation.
    pub tail: u32,
    /// Cells absorbed, from cell 0 (the reader starts with an empty
    /// replica); short of `tail` only if a cell below it was undecided.
    pub absorbed: u32,
}

impl ReadObservation {
    /// Packs the observation into one model value (a byte per field).
    pub fn pack(self) -> Value {
        assert!(self.finished < 256 && self.tail < 256 && self.absorbed < 256);
        Value::Num(self.finished << 16 | self.tail << 8 | self.absorbed)
    }

    /// The inverse of [`ReadObservation::pack`].
    pub fn unpack(v: Value) -> Option<Self> {
        let n = v.as_num()?;
        Some(ReadObservation { finished: n >> 16, tail: n >> 8 & 0xff, absorbed: n & 0xff })
    }
}

/// `sync_read` on a fresh replica, one atomic event per shared access:
/// sample the finished bits (the caller's "what had completed before I
/// asked"), load the tail **once**, peek the cells below it in order, and
/// emit the observation. It never proposes to a cell, so nothing can
/// obstruct it and its step count is fixed by the tail it loaded. Absorbing
/// a segment's last cell crosses into the next segment as a placer does —
/// one propose to the link, a wait-free object — and since a placer crosses
/// before it raises the tail, a reader below the tail finds the link
/// already decided.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SyncReadProgram {
    log: Arc<LogCells>,
    pid: usize,
    /// Whose segment the cursor is in past the first one.
    segment: Option<usize>,
    objs: TailObjects,
    seen: ReadObservation,
    step: ReadStep,
}

#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum ReadStep {
    /// Next: sample the finished bits.
    Sample,
    /// Awaiting the finished bits; next: load the tail.
    LoadTail,
    /// Awaiting the tail; next: peek cell 0 (or emit).
    CatchUp,
    /// Awaiting the peek of cell `absorbed`.
    Peek,
    /// Awaiting the link's decision past the last absorbed cell.
    Cross,
}

impl SyncReadProgram {
    /// Port `pid` reading `log`, bounded by the tail objects `objs`.
    pub fn new(log: Arc<LogCells>, pid: usize, objs: TailObjects) -> Self {
        let seen = ReadObservation { finished: 0, tail: 0, absorbed: 0 };
        SyncReadProgram { log, pid, segment: None, objs, seen, step: ReadStep::Sample }
    }

    /// `while cell_index < tail`: peek the next cell, or emit.
    fn catch_up(&mut self) -> ProgramAction {
        match self.log.cell_at(self.seen.absorbed as usize, self.segment) {
            Some(cell) if self.seen.absorbed < self.seen.tail => {
                self.step = ReadStep::Peek;
                ProgramAction::Invoke(Op::Read(cell))
            }
            _ => ProgramAction::Decide(self.seen.pack()),
        }
    }
}

impl Program for SyncReadProgram {
    fn resume(&mut self, last: Option<Value>) -> ProgramAction {
        let num = |v: Option<Value>| v.and_then(Value::as_num).expect("counters read as numbers");
        match self.step {
            ReadStep::Sample => {
                self.step = ReadStep::LoadTail;
                ProgramAction::Invoke(Op::Read(self.objs.finished))
            }
            ReadStep::LoadTail => {
                self.seen.finished = num(last);
                self.step = ReadStep::CatchUp;
                ProgramAction::Invoke(Op::Read(self.objs.tail))
            }
            ReadStep::CatchUp => {
                self.seen.tail = num(last);
                self.catch_up()
            }
            ReadStep::Peek => match last {
                // `peek() == None`: stay total, emit what was absorbed.
                None | Some(Value::Bot) => ProgramAction::Decide(self.seen.pack()),
                Some(_) => {
                    let index = self.seen.absorbed as usize;
                    self.seen.absorbed += 1;
                    match self.log.link_after(index) {
                        Some(link) => {
                            self.step = ReadStep::Cross;
                            let built = Value::Num(SEGMENT_BASE + self.pid as u32);
                            ProgramAction::Invoke(Op::Propose(link, built))
                        }
                        None => self.catch_up(),
                    }
                }
            },
            ReadStep::Cross => {
                self.segment = segment_builder(last);
                self.catch_up()
            }
        }
    }

    fn name(&self) -> &'static str {
        "sync-read"
    }
}

/// The program of one port in the read-path model: a placer that raises
/// the tail and marks itself finished, or the reader.
pub type ReadRaceProgram = Either<LogPlaceProgram, SyncReadProgram>;

/// Prefix safety of the read path, checked at every reachable state:
///
/// 1. **the tail invariant** — every cell below the tail is decided (in a
///    segmented log, in a segment the links decided), and a placer marked
///    finished has its value in a cell below the tail (every response that
///    depends on cell `i` happens after `tail > i`);
/// 2. **the observation is exactly `[0, T)`** — the reader absorbed every
///    cell below the tail it loaded, none undecided when it peeked;
/// 3. **nothing completed is missed** — the value of every placer that was
///    finished before the reader's first event is among those cells.
#[derive(Clone, Debug)]
pub struct PrefixSafety {
    /// The log.
    pub log: LogCells,
    /// The tail and finished counters.
    pub objs: TailObjects,
    /// The reading port.
    pub reader: usize,
    /// Each placer's finished bit and the value it places.
    pub placers: Vec<(u32, Value)>,
}

impl<P: apc_model::Program> apc_model::explore::Invariant<P> for PrefixSafety {
    fn check(&self, sys: &System<P>) -> Result<(), String> {
        let counter = |id: ObjectId| match sys.object(id) {
            apc_model::ObjectState::FetchAndAdd { count } => *count,
            other => panic!("{id} is not a counter: {other:?}"),
        };
        // The decided prefix: cells decide in order of absorption, and
        // nobody proposes past an undecided cell.
        let decided: Vec<Value> = self
            .log
            .linked_cells(sys)
            .iter()
            .map_while(|c| sys.object(*c).consensus_decision())
            .collect();
        let within = |finished: u32, tail: u32, what: &str| {
            if tail as usize > decided.len() {
                return Err(format!("{what} tail {tail} is past undecided cell {}", decided.len()));
            }
            for (bit, value) in &self.placers {
                if finished & bit != 0 && !decided[..tail as usize].contains(value) {
                    return Err(format!("{what}: finished value {value} is not below tail {tail}"));
                }
            }
            Ok(())
        };
        within(counter(self.objs.finished), counter(self.objs.tail), "shared")?;
        let Some(seen) = sys.decision(apc_model::ProcessId::new(self.reader)) else {
            return Ok(());
        };
        let seen = ReadObservation::unpack(seen).ok_or("the reader emits an observation")?;
        if seen.absorbed != seen.tail {
            return Err(format!(
                "the reader stopped at cell {} below its tail {}",
                seen.absorbed, seen.tail
            ));
        }
        within(seen.finished, seen.tail, "observed")
    }

    fn name(&self) -> &str {
        "prefix-safety"
    }
}

/// Builds the **read race**: `committers` place their batches (`100 + pid`)
/// and, optionally, `sealer` places a seal, each raising the tail past its
/// own cell before it finishes, while `reader` runs one [`SyncReadProgram`]
/// from an empty replica.
///
/// Returns the system and the [`PrefixSafety`] invariant over it.
///
/// # Panics
///
/// Panics if `ports == 0`, `vips > ports`, or `reader` also places.
pub fn sync_read_system(
    ports: usize,
    vips: usize,
    isolation_window: u8,
    committers: ProcessSet,
    sealer: Option<usize>,
    reader: usize,
) -> (System<MaybeParticipant<ReadRaceProgram>>, PrefixSafety) {
    read_race(ports, vips, isolation_window, committers, sealer, reader, None)
}

/// The read race of [`sync_read_system`] over the segmented log of
/// [`segmented_commit_system`], started `start` cells into its first
/// segment: the placers and the reader cross the boundary as the real
/// handles do.
///
/// # Panics
///
/// Panics if `ports == 0`, `vips > ports`, `reader` also places, or
/// `start ≥ MODEL_SEGMENT_CELLS`.
pub fn segmented_sync_read_system(
    ports: usize,
    vips: usize,
    isolation_window: u8,
    committers: ProcessSet,
    sealer: Option<usize>,
    reader: usize,
    start: usize,
) -> (System<MaybeParticipant<ReadRaceProgram>>, PrefixSafety) {
    read_race(ports, vips, isolation_window, committers, sealer, reader, Some(start))
}

/// Shared body of [`sync_read_system`] and [`segmented_sync_read_system`].
fn read_race(
    ports: usize,
    vips: usize,
    isolation_window: u8,
    committers: ProcessSet,
    sealer: Option<usize>,
    reader: usize,
    segmented: Option<usize>,
) -> (System<MaybeParticipant<ReadRaceProgram>>, PrefixSafety) {
    let mut race = PlaceRace::new(ports, vips, isolation_window, committers, sealer, segmented);
    assert!(!race.placers.iter().any(|p| p.index() == reader), "the reader does not place");
    let objs = TailObjects {
        tail: race.builder.add_fetch_and_add(0),
        finished: race.builder.add_fetch_and_add(0),
    };
    let log = Arc::clone(&race.log);
    let (system, placement) = race.build(
        |place| {
            let bit = 1 << place.pid;
            Either::Left(place.publishing(objs, bit))
        },
        |pid| {
            if pid == reader {
                let read = SyncReadProgram::new(Arc::clone(&log), reader, objs);
                MaybeParticipant::Present(Either::Right(read))
            } else {
                MaybeParticipant::Absent
            }
        },
    );
    let placers = placement
        .participants
        .iter()
        .zip(placement.proposals)
        .map(|(p, value)| (1 << p.index(), value))
        .collect();
    (system, PrefixSafety { log: placement.log, objs, reader, placers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_model::explore::{Agreement, ExploreConfig, Explorer, NoFaults, ValidityIn};
    use apc_model::fairness::{fair_livelocks, fair_termination, StateGraph};
    use apc_model::{ProcessId, Runner, Schedule};

    #[test]
    fn solo_vip_commits_immediately() {
        let (sys, objs) = shard_commit_system(3, 1, 1, ProcessSet::from_indices([0]));
        let mut runner = Runner::new(sys);
        runner.run_until_terminated(&Schedule::solo(ProcessId::new(0), 1), 100);
        assert_eq!(runner.system().decision(ProcessId::new(0)), Some(Value::Num(100)));
        assert_eq!(runner.system().object(objs.cell).consensus_decision(), Some(Value::Num(100)));
    }

    #[test]
    fn solo_guest_commits_given_isolation() {
        // Obstruction-freedom: a guest running alone terminates.
        let (sys, _) = shard_commit_system(3, 1, 2, ProcessSet::from_indices([2]));
        let mut runner = Runner::new(sys);
        // Absent processes are never scheduled; only the guest's own
        // termination matters.
        runner.run_until_terminated(&Schedule::solo(ProcessId::new(2), 1), 100);
        assert_eq!(
            runner.system().decision(ProcessId::new(2)),
            Some(Value::Num(102)),
            "a solo guest must commit"
        );
    }

    #[test]
    fn exhaustive_safety_small_shard() {
        let participants = ProcessSet::first_n(3);
        let (sys, _) = shard_commit_system(3, 1, 1, participants);
        let explorer = Explorer::new(ExploreConfig::default().with_max_states(200_000));
        let result = explorer.explore(
            &sys,
            &[&Agreement, &ValidityIn::new(proposed_batches(participants)), &NoFaults],
        );
        assert!(result.ok(), "violations: {:?}", result.violations.first());
        assert!(!result.truncated);
    }

    #[test]
    fn vip_participation_guarantees_termination() {
        // Any participation pattern containing the VIP (port 0) terminates
        // under every fair schedule.
        for mask in [0b001u8, 0b011, 0b101, 0b111] {
            let participants: ProcessSet = (0..3)
                .filter(|i| mask & (1 << i) != 0)
                .collect::<Vec<usize>>()
                .into_iter()
                .collect();
            let (sys, _) = shard_commit_system(3, 1, 1, participants);
            let graph = StateGraph::build(&sys, 200_000);
            assert!(!graph.truncated());
            let verdict = fair_termination(&graph, |pid| participants.contains(pid));
            assert!(verdict.holds(), "mask {mask:03b}: {verdict:?}");
        }
    }

    #[test]
    fn solo_vip_sealer_installs_its_seal() {
        let (sys, cells, _) = seal_commit_system(3, 1, 1, ProcessSet::EMPTY, Some(0));
        let mut runner = Runner::new(sys);
        runner.run_until_terminated(&Schedule::solo(ProcessId::new(0), 1), 100);
        assert_eq!(runner.system().decision(ProcessId::new(0)), Some(Value::Num(SEAL_BASE)));
        assert_eq!(
            runner.system().object(cells[0]).consensus_decision(),
            Some(Value::Num(SEAL_BASE)),
            "the seal occupies the first free cell"
        );
    }

    #[test]
    fn solo_guest_sealer_installs_its_seal() {
        let (sys, cells, _) = seal_commit_system(3, 1, 1, ProcessSet::EMPTY, Some(2));
        let mut runner = Runner::new(sys);
        runner.run_until_terminated(&Schedule::solo(ProcessId::new(2), 1), 100);
        assert_eq!(runner.system().decision(ProcessId::new(2)), Some(Value::Num(SEAL_BASE + 2)));
        assert_eq!(
            runner.system().object(cells[0]).consensus_decision(),
            Some(Value::Num(SEAL_BASE + 2)),
            "the seal occupies the first free cell"
        );
    }

    #[test]
    fn seal_race_small_exhaustive() {
        // VIP commit + guest commit + guest seal, every schedule.
        let committers = ProcessSet::from_indices([0, 1]);
        let (sys, cells, proposals) = seal_commit_system(3, 1, 1, committers, Some(2));
        let explorer = Explorer::new(ExploreConfig::default().with_max_states(400_000));
        let safety = PlacementSafety {
            log: LogCells::flat(cells),
            participants: ProcessSet::from_indices([0, 1, 2]),
            proposals,
        };
        let result = explorer.explore(&sys, &[&safety, &NoFaults]);
        assert!(result.ok(), "violations: {:?}", result.violations.first());
        assert!(!result.truncated);
    }

    #[test]
    fn solo_merger_installs_drain_then_adopt() {
        let (sys, child_cells, parent_cells, _) =
            merge_adopt_system(3, 1, 1, ProcessSet::EMPTY, ProcessSet::EMPTY, 2);
        let mut runner = Runner::new(sys);
        runner.run_until_terminated(&Schedule::solo(ProcessId::new(2), 1), 200);
        assert_eq!(
            runner.system().decision(ProcessId::new(2)),
            Some(Value::Num(ADOPT_BASE + 2)),
            "the merger decides once the adoption is placed"
        );
        assert_eq!(
            runner.system().object(child_cells[0]).consensus_decision(),
            Some(Value::Num(SEAL_BASE + 2)),
            "the drain occupies the child log's first free cell"
        );
        assert_eq!(
            runner.system().object(parent_cells[0]).consensus_decision(),
            Some(Value::Num(ADOPT_BASE + 2)),
            "the adoption occupies the parent log's first free cell"
        );
    }

    #[test]
    fn merge_adopt_small_exhaustive_with_order() {
        // One committer per log racing the dual-log merger: placement
        // safety over the union of the cells plus the cross-log ordering,
        // on every schedule.
        let child_committers = ProcessSet::from_indices([0]);
        let parent_committers = ProcessSet::from_indices([1]);
        let (sys, child_cells, parent_cells, proposals) =
            merge_adopt_system(3, 1, 1, child_committers, parent_committers, 2);
        let all_cells: Vec<ObjectId> =
            child_cells.iter().chain(parent_cells.iter()).copied().collect();
        let safety = PlacementSafety {
            log: LogCells::flat(all_cells),
            participants: ProcessSet::from_indices([0, 1, 2]),
            proposals,
        };
        let order = MergeOrder {
            child_cells,
            parent_cells,
            drain: Value::Num(SEAL_BASE + 2),
            adopt: Value::Num(ADOPT_BASE + 2),
        };
        let explorer = Explorer::new(ExploreConfig::default().with_max_states(2_000_000));
        let result = explorer.explore(&sys, &[&safety, &order, &NoFaults]);
        assert!(result.ok(), "violations: {:?}", result.violations.first());
        assert!(!result.truncated);
    }

    #[test]
    fn a_reader_after_a_finished_writer_observes_its_cell() {
        let (sys, safety) = sync_read_system(3, 1, 1, ProcessSet::from_indices([1]), None, 0);
        let mut runner = Runner::new(sys);
        // An empty log would be read in three events; run the guest writer
        // solo to completion first, then the reader.
        runner.run_until_terminated(&Schedule::solo(ProcessId::new(1), 1), 100);
        runner.run_until_terminated(&Schedule::solo(ProcessId::new(0), 1), 100);
        let seen = runner.system().decision(ProcessId::new(0)).and_then(ReadObservation::unpack);
        assert_eq!(seen, Some(ReadObservation { finished: 0b10, tail: 1, absorbed: 1 }));
        use apc_model::explore::Invariant;
        assert_eq!(safety.check(runner.system()), Ok(()));
    }

    #[test]
    fn read_race_small_exhaustive() {
        // VIP writer + guest sealer + guest reader, every schedule.
        let (sys, safety) = sync_read_system(3, 1, 1, ProcessSet::from_indices([0]), Some(1), 2);
        let explorer = Explorer::new(ExploreConfig::default().with_max_states(400_000));
        let result = explorer.explore(&sys, &[&safety, &NoFaults]);
        assert!(result.ok(), "violations: {:?}", result.violations.first());
        assert!(!result.truncated);
    }

    #[test]
    fn observations_pack_and_unpack() {
        let seen = ReadObservation { finished: 0b101, tail: 3, absorbed: 2 };
        assert_eq!(ReadObservation::unpack(seen.pack()), Some(seen));
        assert_eq!(ReadObservation::unpack(Value::Bot), None);
    }

    #[test]
    fn guest_only_schedules_can_livelock() {
        // The asymmetric caveat: without the VIP, lockstep guests starve
        // each other forever — a fair livelock the checker exhibits.
        let participants = ProcessSet::from_indices([1, 2]);
        let (sys, _) = shard_commit_system(3, 1, 1, participants);
        let graph = StateGraph::build(&sys, 200_000);
        assert!(!graph.truncated());
        let witnesses = fair_livelocks(&graph);
        assert!(!witnesses.is_empty(), "lockstep guests must admit a livelock witness");
        let verdict = fair_termination(&graph, |pid| participants.contains(pid));
        assert!(!verdict.holds(), "guest-only termination must NOT be guaranteed");
    }
}
