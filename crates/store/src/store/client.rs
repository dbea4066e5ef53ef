//! Client sessions and their arms. The arm a request takes decides whom
//! it may wait on: the bounded VIP arm on nobody, the guest arms only on
//! their shared port, and the waiting arm also on the admin lock.

use std::fmt;
use std::time::Instant;

use apc_progress_macros::progress;

use super::Store;
use crate::admission::{ClientTicket, ProgressClass};
use crate::api::{Request, Response, StoreError, TierCredential, UNBOUNDED_RETRIES};
use crate::ops::{StoreOp, StoreResp};
use crate::replan::{Replan, Responses};
use crate::wal::DurabilityClass;

/// A client session: the operation surface of the store.
///
/// Sessions are cheap (`ticket` + store reference) and a single ticket may
/// open many sequential sessions; operations from sessions sharing a guest
/// port serialize on that port's slot.
///
/// A session times each commit it makes into `store_commit_latency_ns`. By
/// default each commit reads the clock at its start and at its end. A
/// caller that has just read the clock can lend the session that reading
/// ([`Client::lend_clock`]): each commit then starts at the session's
/// reading and reads the clock once, at its end, and that end is the
/// session's reading from then on ([`Client::clock`]).
#[derive(Copy, Clone)]
pub struct Client<'a> {
    store: &'a Store,
    ticket: ClientTicket,
    /// The reading the session was lent, advanced to the end of each
    /// commit since; `None` if it was never lent one.
    clock: Option<Instant>,
}

impl Store {
    /// Opens a client session for `ticket`.
    pub fn client(&self, ticket: ClientTicket) -> Client<'_> {
        Client { store: self, ticket, clock: None }
    }
}

impl Client<'_> {
    /// This session's admission ticket.
    #[progress(wait_free)]
    pub fn ticket(&self) -> ClientTicket {
        self.ticket
    }

    /// The session's progress class.
    #[progress(wait_free)]
    pub fn class(&self) -> ProgressClass {
        self.ticket.class()
    }

    /// This session's own tier credential — what the in-process wrappers
    /// put into the [`Request`] envelope.
    #[progress(wait_free)]
    pub fn credential(&self) -> TierCredential {
        TierCredential::for_ticket(&self.ticket)
    }

    /// Lends the session the caller's latest clock reading, `now`. Each
    /// commit from here on starts at the session's reading instead of
    /// reading the clock, and reads it once, at its end; that end becomes
    /// the session's reading, and it is where the next commit, and a
    /// request's deadline, start. A session never lent a reading reads a
    /// commit's start and end itself.
    ///
    /// ```
    /// use std::time::Instant;
    /// use apc_store::{Request, StoreBuilder, StoreOp};
    ///
    /// let store = StoreBuilder::new().shards(1).build().unwrap();
    /// let mut client = store.client(store.admit_guest());
    /// let lent = Instant::now();
    /// client.lend_clock(lent);
    /// client.request(Request::new(vec![StoreOp::Put("k".into(), 1)]));
    /// // The commit's end reading is the session's now.
    /// assert!(client.clock().unwrap() >= lent);
    /// ```
    #[progress(wait_free)]
    pub fn lend_clock(&mut self, now: Instant) {
        self.clock = Some(now);
    }

    /// The session's latest clock reading: the one it was lent, or the end
    /// of its last commit since. `None` if it was never lent one.
    #[progress(wait_free)]
    pub fn clock(&self) -> Option<Instant> {
        self.clock
    }

    /// **The unified entry point**: executes one [`Request`] envelope and
    /// returns its [`Response`] — the same envelope the `apc-net` wire
    /// codec serializes, so a request behaves identically whether it
    /// arrived in process or over a connection.
    ///
    /// Routing, by the envelope's terms:
    ///
    /// * `retry_budget == `[`UNBOUNDED_RETRIES`] — the **waiting arm**:
    ///   `Moved` retries wait on the admin lock for the act that bumped the
    ///   topology to publish it; this is what [`Client::execute`] wraps.
    /// * finite `retry_budget` — the **non-blocking bounded arms**
    ///   ([`Client::request_vip`] / [`Client::request_guest`]): no waits
    ///   anywhere; a spent budget or deadline surfaces as the typed
    ///   [`StoreError::RetryBudgetExhausted`] (the envelope's 429) instead
    ///   of blocking. The wire front-end always takes these arms.
    /// * `durability == `[`DurabilityClass::Sync`] — VIP-only; the
    ///   response additionally waits for the covering fsync, and a failed
    ///   flush downgrades applied operations to [`StoreError::Corrupt`]
    ///   ("applied but not durably acknowledged").
    ///
    /// The in-process ticket is authoritative: a request whose credential
    /// claims more than the session's admission is refused with
    /// [`StoreError::GuestTier`] on every operation.
    pub fn request(&mut self, req: Request) -> Response {
        let vip = matches!(self.ticket.class(), ProgressClass::Vip);
        // A guest's `Sync` is its arm's to refuse: nothing to wait for.
        let sync = vip && matches!(req.durability, DurabilityClass::Sync);
        if sync && self.store.wal().is_none() {
            return Response::fail_all(req.ops.len(), StoreError::Unavailable { version: 0 });
        }
        let mut resp = if req.retry_budget == UNBOUNDED_RETRIES {
            self.request_waiting(req)
        } else if vip {
            self.request_vip(req)
        } else {
            self.request_guest(req)
        };
        if sync {
            self.await_durability(&mut resp);
        }
        resp
    }

    /// Why the guest arm refuses `req`, if it does: it serves guest
    /// tickets only, and synchronous durability and a VIP credential are
    /// both claims a guest ticket cannot back.
    #[progress(wait_free)]
    fn guest_refusal(&self, req: &Request) -> Option<StoreError> {
        if self.ticket.class() != ProgressClass::Guest {
            return Some(StoreError::GuestTier);
        }
        if matches!(req.durability, DurabilityClass::Sync) {
            if let Some(wal) = self.store.wal() {
                wal.metrics().record_sync_denied();
            }
            return Some(StoreError::GuestTier);
        }
        (req.credential.class() == ProgressClass::Vip).then_some(StoreError::GuestTier)
    }

    /// The **bounded VIP arm**: executes the envelope in a bounded number
    /// of the caller's own steps — commits go through the exclusively
    /// owned port (`Store::commit_vip`), and the `Moved` re-plan loop
    /// never waits for a topology to publish: each round re-reads the
    /// current view and spends one unit of the request's `retry_budget`,
    /// so the budget is the a-priori step bound. A spent budget degrades
    /// exactly the still-bounced operations to
    /// [`StoreError::RetryBudgetExhausted`]; a deadline found expired at a
    /// re-plan boundary degrades them to
    /// [`StoreError::DeadlineExceeded`] instead — budget backpressure and
    /// timeout are distinct, typed outcomes.
    ///
    /// This is the arm the `apc-net` reactor pins with `apc-lint`: the
    /// wire front-end's VIP dispatch must stay on it, so no guest flood —
    /// and no reconfiguration — can make a VIP connection wait. The
    /// closures below are part of this body: one that named `commit_guest`
    /// or `view_at_least` would be a `progress` finding against this fn.
    ///
    /// Synchronous durability note: this arm stamps WAL frames with the
    /// requested class but never performs the (blocking) fsync wait
    /// itself; [`Client::request`] adds it. A direct caller that needs
    /// the sync acknowledgment must use [`Client::request`].
    #[progress(bounded_wait_free)]
    pub fn request_vip(&mut self, req: Request) -> Response {
        let refusal = (self.ticket.class() != ProgressClass::Vip).then_some(StoreError::GuestTier);
        let (store, port, durability) = (self.store, self.ticket.port(), req.durability);
        only(store.replan(
            Replan::new([(req, refusal)]),
            &mut self.clock,
            |shard, s, sub, clock| store.commit_vip(shard, s, port, sub, durability, clock),
            |need| store.view_published(need),
        ))
    }

    /// The **bounded guest arm**: [`Client::request_guest_many`] with one
    /// envelope.
    #[progress(obstruction_free)]
    pub fn request_guest(&mut self, req: Request) -> Response {
        only(self.request_guest_from([req]))
    }

    /// The **coalesced guest arm**, the obstruction-free twin of
    /// [`Client::request_vip`]: commits queue behind the shared guest
    /// port (`Store::commit_guest`), the `Moved` re-plan loop is the same
    /// non-waiting, budget-bounded round, and many guest envelopes execute
    /// as one planning-and-commit round — the combined operation list is planned
    /// once and costs ~one log append per touched shard for the *whole
    /// batch*, instead of one per envelope — while preserving every
    /// envelope's own service terms. This is what the `apc-net` reactor
    /// rides to batch the pipelined guest frames of one poll turn.
    ///
    /// Per-envelope semantics are kept intact:
    ///
    /// * each envelope's `retry_budget` is charged once per `Moved`
    ///   re-plan round *it participates in* (envelopes whose operations
    ///   all landed are never charged), and a spent budget degrades only
    ///   that envelope's bounced operations to
    ///   [`StoreError::RetryBudgetExhausted`];
    /// * each envelope's `deadline_ms` is checked at the same re-plan
    ///   boundaries and degrades its bounced operations to
    ///   [`StoreError::DeadlineExceeded`];
    /// * envelopes the guest tier must refuse (synchronous durability, a
    ///   VIP over-claim) are refused individually with
    ///   [`StoreError::GuestTier`] — they do not poison their batch-mates.
    ///
    /// Responses come back in envelope order, each with its results in
    /// invocation order: observationally equivalent to dispatching the
    /// envelopes one at a time, in order, on this session.
    #[progress(obstruction_free)]
    pub fn request_guest_many(&mut self, reqs: Vec<Request>) -> Vec<Response> {
        self.request_guest_from(reqs).collect()
    }

    /// [`Client::request_guest_many`] over any source of envelopes, for a
    /// caller that keeps its envelope buffer from round to round and hands
    /// over `buffer.drain(..)` (the reactor, every turn). The responses
    /// are built as they are taken, so a caller that answers each as it
    /// comes holds no list of them.
    #[progress(obstruction_free)]
    pub fn request_guest_from(&mut self, reqs: impl IntoIterator<Item = Request>) -> Responses {
        let (store, port) = (self.store, self.ticket.port());
        let plan = Replan::new(reqs.into_iter().map(|req| {
            let refusal = self.guest_refusal(&req);
            (req, refusal)
        }));
        store.replan(
            plan,
            &mut self.clock,
            |shard, s, sub, clock| {
                store.commit_guest(shard, s, port, sub, DurabilityClass::Group, clock)
            },
            |need| store.view_published(need),
        )
    }

    /// The **waiting arm**: `Moved` retries wait on the admin lock for the
    /// re-planned topology ([`Store::view_at_least`]), and a bump whose act
    /// died before its publish degrades to [`StoreError::Unavailable`].
    /// Commits go through the session's own tier, and a guest session's
    /// envelope is refused as its bounded arm would refuse it.
    #[progress(blocking)]
    fn request_waiting(&mut self, req: Request) -> Response {
        let (class, port, durability) = (self.ticket.class(), self.ticket.port(), req.durability);
        let refusal = match class {
            ProgressClass::Vip => None,
            ProgressClass::Guest => self.guest_refusal(&req),
        };
        let store = self.store;
        only(store.replan(
            Replan::new([(req, refusal)]),
            &mut self.clock,
            |shard, s, sub, clock| match class {
                ProgressClass::Vip => store.commit_vip(shard, s, port, sub, durability, clock),
                ProgressClass::Guest => store.commit_guest(shard, s, port, sub, durability, clock),
            },
            |need| store.view_at_least(need),
        ))
    }

    /// The synchronous-durability tail of [`Client::request`]: waits for
    /// the WAL flush covering the envelope's commits; a failed flush
    /// downgrades every applied operation to [`StoreError::Corrupt`] —
    /// "applied but not durably acknowledged", the same contract as a
    /// failed [`Persister::persist`](crate::persist::Persister::persist).
    #[progress(blocking)]
    fn await_durability(&mut self, resp: &mut Response) {
        let Some(wal) = self.store.wal() else { return }; // gated upstream; total anyway
        if let Err(err) = wal.sync() {
            let detail = format!("durability flush failed: {err}");
            for slot in resp.results.iter_mut() {
                if slot.is_ok() {
                    *slot = Err(StoreError::Corrupt { detail: detail.clone() });
                }
            }
        }
    }

    /// Executes a batch of operations, one log append per touched shard,
    /// returning the envelope's per-operation results in invocation order.
    ///
    /// Sugar over [`Client::request`]: the envelope carries this session's
    /// own credential, group durability, and an unbounded retry budget
    /// (the waiting arm).
    ///
    /// If a shard split between planning and commit, the affected
    /// operations bounce from their old shard (nothing applied); the
    /// envelope's retry loop transparently re-plans exactly those
    /// operations against the newly published topology and patches their
    /// responses in place — already-applied operations are never
    /// re-issued, so nothing commits twice and nothing is dropped.
    ///
    /// The class below is the **floor** over admitted tiers: a guest
    /// session shares its port, so its commits queue behind the port
    /// mutex. A VIP session's commits are bounded wait-free
    /// (`Store::commit_vip`) except across a concurrent reconfiguration,
    /// where the `Moved` retry waits on the admin lock for the new topology;
    /// if its act died unpublished, those operations come back
    /// [`StoreError::Unavailable`] instead of hanging or aborting.
    #[progress(obstruction_free)]
    pub fn execute(&mut self, ops: Vec<StoreOp>) -> Vec<Result<StoreResp, StoreError>> {
        let credential = self.credential();
        self.request(Request::new(ops).credential(credential)).results
    }

    /// Executes one operation; `None` if it failed (see
    /// [`Client::execute`] for the error).
    fn execute_one(&mut self, op: StoreOp) -> Option<StoreResp> {
        self.execute(vec![op]).pop()?.ok()
    }

    /// Reads `key`. `None` means absent — or, degenerately, that the
    /// operation failed (use [`Client::execute`] to distinguish).
    #[progress(obstruction_free)]
    pub fn get(&mut self, key: &str) -> Option<u64> {
        match self.execute_one(StoreOp::Get(key.into())) {
            Some(StoreResp::Value(v)) => v,
            _ => None,
        }
    }

    /// Writes `key`, returning the previous value (`None` if absent or
    /// failed — see [`Client::get`]).
    #[progress(obstruction_free)]
    pub fn put(&mut self, key: &str, value: u64) -> Option<u64> {
        match self.execute_one(StoreOp::Put(key.into(), value)) {
            Some(StoreResp::Value(v)) => v,
            _ => None,
        }
    }

    /// Removes `key`, returning the removed value (`None` if absent or
    /// failed — see [`Client::get`]).
    #[progress(obstruction_free)]
    pub fn remove(&mut self, key: &str) -> Option<u64> {
        match self.execute_one(StoreOp::Remove(key.into())) {
            Some(StoreResp::Value(v)) => v,
            _ => None,
        }
    }

    /// Compare-and-set on `key`; returns `(ok, actual)`. A failed
    /// operation reads as a failed CAS with `actual: None` — nothing was
    /// applied (use [`Client::execute`] to distinguish).
    #[progress(obstruction_free)]
    pub fn cas(&mut self, key: &str, expect: Option<u64>, new: u64) -> (bool, Option<u64>) {
        match self.execute_one(StoreOp::Cas { key: key.into(), expect, new }) {
            Some(StoreResp::Cas { ok, actual }) => (ok, actual),
            _ => (false, None),
        }
    }

    /// Range scan over `[from, to)` merged across all shards, in key
    /// order. A failed operation reads as an empty scan (use
    /// [`Client::execute`] to distinguish).
    #[progress(obstruction_free)]
    pub fn scan(&mut self, from: &str, to: &str) -> Vec<(String, u64)> {
        match self.execute_one(StoreOp::Scan { from: from.into(), to: to.into() }) {
            Some(StoreResp::Entries(entries)) => entries,
            _ => Vec::new(),
        }
    }
}

/// The response of a one-envelope run.
fn only(mut responses: Responses) -> Response {
    responses.next().unwrap_or(Response { results: Vec::new() })
}

impl fmt::Debug for Client<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("id", &self.ticket.id())
            .field("class", &self.ticket.class())
            .field("port", &self.ticket.port())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::nanos;
    use crate::store::tests::{keys_on_shard, reads, small_store, tier_counter};
    use std::time::Duration;

    #[test]
    fn vip_and_guest_sessions_see_each_other() {
        let store = small_store(2);
        let vip = store.admit_vip().unwrap();
        let guest = store.admit_guest();
        let mut v = store.client(vip);
        let mut g = store.client(guest);
        assert_eq!(v.put("alpha", 1), None);
        assert_eq!(g.get("alpha"), Some(1));
        assert_eq!(g.put("alpha", 2), Some(1));
        assert_eq!(v.get("alpha"), Some(2));
    }

    #[test]
    fn batches_span_shards_and_keep_invocation_order() {
        let store = small_store(3);
        let mut c = store.client(store.admit_guest());
        let ops: Vec<StoreOp> = (0..12).map(|i| StoreOp::Put(format!("k{i}"), i)).collect();
        let resps = c.execute(ops);
        assert_eq!(resps.len(), 12);
        assert!(resps.iter().all(|r| *r == Ok(StoreResp::Value(None))));
        let mut check = store.client(store.admit_guest());
        let all = check.scan("", "z");
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn cas_is_atomic_per_key() {
        let store = small_store(2);
        let mut c = store.client(store.admit_vip().unwrap());
        assert_eq!(c.cas("n", None, 1), (true, None));
        assert_eq!(c.cas("n", None, 2), (false, Some(1)));
        assert_eq!(c.cas("n", Some(1), 2), (true, Some(1)));
        assert_eq!(c.get("n"), Some(2));
    }

    #[test]
    fn concurrent_counter_is_exact_via_cas() {
        // Contended CAS increments across classes: the final value equals
        // the number of successful CASes (no lost updates).
        let store = small_store(2);
        let vip = store.admit_vip().unwrap();
        let guests: Vec<_> = (0..3).map(|_| store.admit_guest()).collect();
        let success = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in guests.iter().copied().chain([vip]) {
                let store = &store;
                let success = &success;
                s.spawn(move || {
                    let mut c = store.client(t);
                    for _ in 0..25 {
                        loop {
                            let cur = c.get("ctr");
                            let next = cur.unwrap_or(0) + 1;
                            if c.cas("ctr", cur, next).0 {
                                success.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                });
            }
        });
        let mut check = store.client(store.admit_guest());
        assert_eq!(check.get("ctr"), Some(100));
        assert_eq!(success.load(std::sync::atomic::Ordering::Relaxed), 100);
    }

    #[test]
    fn removed_keys_disappear_from_scans() {
        let store = small_store(2);
        let mut c = store.client(store.admit_vip().unwrap());
        c.put("a", 1);
        c.put("b", 2);
        assert_eq!(c.remove("a"), Some(1));
        assert_eq!(c.scan("", "z"), vec![("b".to_string(), 2)]);
        assert_eq!(c.remove("a"), None);
    }

    #[test]
    fn request_guest_many_matches_sequential_dispatch() {
        let batched_store = small_store(2);
        let sequential_store = small_store(2);
        let envelopes = || {
            vec![
                Request::new(vec![StoreOp::Put("m/a".into(), 1), StoreOp::Get("m/b".into())]),
                Request::new(vec![StoreOp::Put("m/b".into(), 2), StoreOp::Get("m/a".into())]),
                Request::new(vec![
                    StoreOp::Cas { key: "m/a".into(), expect: Some(1), new: 9 },
                    StoreOp::Remove("m/b".into()),
                    StoreOp::Get("m/a".into()),
                ]),
            ]
        };
        let mut batched = batched_store.client(batched_store.admit_guest());
        let got = batched.request_guest_many(envelopes());
        let mut sequential = sequential_store.client(sequential_store.admit_guest());
        let want: Vec<Response> =
            envelopes().into_iter().map(|req| sequential.request_guest(req)).collect();
        assert_eq!(got, want, "one coalesced round ≡ one envelope at a time");
        // Cross-envelope visibility inside the batch: envelope 2's Cas
        // saw envelope 0's Put, its Get sees its own Cas.
        assert_eq!(got[2].results[0], Ok(StoreResp::Cas { ok: true, actual: Some(1) }));
        assert_eq!(got[2].results[2], Ok(StoreResp::Value(Some(9))));
    }

    #[test]
    fn every_guest_arm_refuses_sync_and_vip_claims_one_envelope_at_a_time() {
        let store = small_store(1);
        let mut c = store.client(store.admit_guest());
        let put = |k: &str| Request::new(vec![StoreOp::Put(k.into(), 1)]).retry_budget(4);
        let refused = Response::fail_all(1, StoreError::GuestTier);
        let claims: [fn(Request) -> Request; 2] = [
            |r| r.durability(DurabilityClass::Sync),
            |r| r.credential(TierCredential::Vip { token: 7 }),
        ];
        let mut vip = store.client(store.admit_vip().unwrap());
        assert_eq!(vip.request_guest_many(vec![put("v")]), vec![refused.clone()]);
        assert_eq!(c.request_vip(put("v")), refused, "and neither session has the other's arm");
        for claim in claims {
            assert_eq!(c.request(claim(put("x"))), refused);
            assert_eq!(c.request_guest(claim(put("x"))), refused, "the n = 1 fold");
            let got = c.request_guest_many(vec![put("a"), claim(put("x")), put("a")]);
            assert_eq!(got[1], refused, "refused alone, not with its batch-mates");
            assert_eq!(got[2].results, vec![Ok(StoreResp::Value(Some(1)))], "which ran, in order");
            assert_eq!(c.get("x"), None, "the refused envelope committed nothing");
        }
    }

    /// Runs `issue` — a read of `keys` through one request arm — so that it
    /// plans under the pre-split view and reaches its port only after the
    /// split: the reader is parked on its port's lock, which this thread
    /// holds across the split. Returns what the arm answered.
    fn read_across_a_split(
        store: &Store,
        ticket: ClientTicket,
        issue: impl Fn(&mut Client<'_>) -> Response + Sync,
    ) -> Response {
        let tier = if ticket.class() == ProgressClass::Vip { "vip" } else { "guest" };
        let moved =
            |s: &Store| s.scrape().value("store_moved_ops_total", &[("tier", tier)]).unwrap();
        for _ in 0..50 {
            let before = moved(store);
            let live = store.topology();
            let victim = (0..live.shards()).find(|&s| live.is_live(s)).unwrap();
            let view = store.core.view.newest();
            assert_ne!(ticket.port(), view.shards[victim].ports.len() - 1, "the driver's port");
            let parked = view.shards[victim].ports[ticket.port()].lock().unwrap();
            let go = std::sync::Barrier::new(2);
            let resp = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    go.wait();
                    issue(&mut store.client(ticket))
                });
                go.wait();
                // Not load-bearing: it only makes it likely that the reader
                // has planned by now. If it had not, nothing bounces and
                // the loop goes round again.
                std::thread::sleep(Duration::from_millis(5));
                let child = store.split_shard(victim).unwrap();
                drop(parked);
                let resp = reader.join().unwrap();
                store.merge_shard(child).unwrap();
                resp
            });
            if moved(store) > before {
                return resp;
            }
        }
        panic!("the reader never planned before the split in 50 attempts");
    }

    #[test]
    fn stale_read_plans_return_through_every_replan_loop() {
        let store = small_store(1);
        let vip = store.admit_vip().unwrap();
        let guest = std::iter::repeat_with(|| store.admit_guest())
            .find(|t| t.port() != store.admission().ports() - 1)
            .unwrap();
        let keys: Vec<String> = (0..16).map(|i| format!("s/{i:02}")).collect();
        let mut c = store.client(vip);
        for (i, k) in keys.iter().enumerate() {
            c.put(k, i as u64);
        }
        let want: Vec<_> = (0..16).map(|i| Ok(StoreResp::Value(Some(i)))).collect();
        let local0 = tier_counter(&store, "store_local_reads_total");

        let got = read_across_a_split(&store, vip, |c| c.request_vip(reads(&keys)));
        assert_eq!(got.results, want, "VIP arm");
        let got = read_across_a_split(&store, guest, |c| c.request_guest(reads(&keys)));
        assert_eq!(got.results, want, "guest arm");
        let got = read_across_a_split(&store, guest, |c| {
            let mut many = c.request_guest_many(vec![reads(&keys[..8]), reads(&keys[8..])]);
            let tail = many.pop().unwrap();
            let mut head = many.pop().unwrap();
            head.results.extend(tail.results);
            head
        });
        assert_eq!(got.results, want, "coalesced guest arm");
        let got = read_across_a_split(&store, vip, |c| {
            c.request(Request::new(vec![StoreOp::Scan { from: "s/".into(), to: "s/99".into() }]))
        });
        let all: Vec<_> = keys.iter().cloned().zip(0..).collect();
        assert_eq!(got.results, vec![Ok(StoreResp::Entries(all))], "waiting arm, a scan");
        assert!(tier_counter(&store, "store_local_reads_total") > local0, "and none took a cell");
    }

    #[test]
    fn a_deadline_spent_parked_on_a_port_expires_at_the_replan_boundary() {
        // The reader's clock starts before its first round, so the 5 ms it
        // waits on its port's lock count against its 1 ms deadline when
        // the round comes back bounced: the bounced slots expire at the
        // re-plan boundary instead of being retried, and the rest land.
        let store = small_store(2);
        let vip = store.admit_vip().unwrap();
        let keys: Vec<String> = (0..16).map(|i| format!("s/{i:02}")).collect();
        let mut c = store.client(vip);
        for (i, k) in keys.iter().enumerate() {
            c.put(k, i as u64);
        }
        let got = read_across_a_split(&store, vip, |c| c.request_vip(reads(&keys).deadline_ms(1)));
        let victim = (0..store.topology().shards()).find(|&s| store.topology().is_live(s));
        let parked: Vec<bool> = keys.iter().map(|k| Some(store.shard_of(k)) == victim).collect();
        assert!(parked.contains(&true) && parked.contains(&false), "both shards hold keys");
        for ((result, parked), value) in got.results.iter().zip(parked).zip(0..) {
            let want = if parked {
                Err(StoreError::DeadlineExceeded { deadline_ms: 1 })
            } else {
                Ok(StoreResp::Value(Some(value)))
            };
            assert_eq!(result, &want);
        }
    }

    /// The commit-latency histogram of `tier`: (observations, sum).
    fn commit_latency(store: &Store, tier: &str) -> (u64, u64) {
        let snap = store.scrape();
        let h = snap.histogram("store_commit_latency_ns", &[("tier", tier)]).unwrap();
        (h.count, h.sum)
    }

    /// A session lent a reading times its commits on its own readings: a
    /// one-commit request is observed as the session's reading less the
    /// lent one, and a guest batch over every shard as one observation per
    /// commit, each starting where the last ended, so that they sum to the
    /// session's last reading less the lent one. A session lent nothing
    /// still times every commit, and holds no reading.
    #[test]
    fn a_lent_session_prices_its_commits_reading_to_reading() {
        let store = small_store(4);
        let mut vip = store.client(store.admit_vip().unwrap());
        let t0 = Instant::now();
        vip.lend_clock(t0);
        let put = Request::new(vec![StoreOp::Put("v".into(), 1)]).retry_budget(4);
        assert!(vip.request_vip(put.credential(vip.credential())).results[0].is_ok());
        let read = vip.clock().expect("a lent session keeps a reading");
        assert_eq!(commit_latency(&store, "vip"), (1, nanos(read - t0)));

        let topology = store.topology();
        let keys: Vec<String> = (0..4).map(|s| keys_on_shard(&topology, s, 1).remove(0)).collect();
        let reqs = |value| {
            keys.iter().map(|k| Request::new(vec![StoreOp::Put(k.clone(), value)])).collect()
        };
        let mut guest = store.client(store.admit_guest());
        let t1 = Instant::now();
        guest.lend_clock(t1);
        let landed = guest.request_guest_many(reqs(2));
        assert!(landed.iter().all(|resp| resp.results[0].is_ok()));
        let read = guest.clock().unwrap();
        assert_eq!(commit_latency(&store, "guest"), (4, nanos(read - t1)), "chained");

        let mut plain = store.client(store.admit_guest());
        assert_eq!(plain.request_guest_many(reqs(3)).len(), 4);
        assert_eq!(commit_latency(&store, "guest").0, 8, "one observation per commit");
        assert_eq!(plain.clock(), None);
    }
}
