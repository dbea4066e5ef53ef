//! The unified `Request → Response` envelope: one operation surface for
//! the in-process [`Client`](crate::store::Client) and the wire protocol.
//!
//! * [`Request`] — `{ ops, credential, durability, deadline_ms,
//!   retry_budget }`, the envelope shared **verbatim** by
//!   [`Client::request`](crate::store::Client::request) and the `apc-net`
//!   wire frames;
//! * [`Response`] — per-operation `Result<StoreResp, StoreError>` in
//!   invocation order;
//! * [`StoreError`] — the one error surface, `#[non_exhaustive]`, with
//!   **stable wire discriminants**.
//!
//! [`Client::execute`](crate::store::Client::execute) and the
//! `get`/`put`/`cas`/`remove`/`scan` helpers are sugar: they send the
//! envelope [`Request::new`] describes and hand back its results.
//!
//! ## Errors
//!
//! | error                                  | raised when                                                        | wire |
//! |----------------------------------------|--------------------------------------------------------------------|------|
//! | [`StoreError::Moved`] `{ epoch }`      | a shard bounced the operation ([`StoreResp::Moved`]) and nobody re-planned it | `1` |
//! | [`StoreError::GuestTier`]              | a guest asked for `Sync` durability or presented a VIP credential  | `2`  |
//! | [`StoreError::RetryBudgetExhausted`]   | the retry budget was spent, or the wire front-end shed the frame   | `3`  |
//! | [`StoreError::Unavailable`] `{ version }` | the re-planned topology never published; `Sync` without a WAL (`version: 0`) | `4` |
//! | [`StoreError::Corrupt`]                | the covering durability flush failed; codec/persist corruption     | `5`  |
//! | [`StoreError::DeadlineExceeded`]       | the request's deadline passed at a re-plan boundary or in the queue | `6` |
//!
//! `Moved` never escapes the in-process arms (the re-plan loop consumes
//! it); it exists so a wire peer that implements its own re-plan loop can
//! see the bounce. `RetryBudgetExhausted` is the envelope's 429: the typed
//! "try again later" that the guest tier surfaces **instead of blocking**.
//! `DeadlineExceeded` is its timeout twin: the request's own patience (not
//! the store's) ran out — retrying immediately with the same deadline is
//! pointless, which is exactly why the two are distinct discriminants.
//!
//! [`StoreResp::Moved`]: crate::ops::StoreResp::Moved

use std::fmt;

use crate::admission::{ClientTicket, ProgressClass};
use crate::ops::{StoreOp, StoreResp};
use crate::wal::DurabilityClass;

/// Sentinel retry budget: "retry until the topology publishes, waiting if
/// needed" — the waiting arm. [`Client::request`] routes requests carrying
/// this budget through it (blocking: each round waits, so the 4e9 rounds
/// it pays for are never spent), and any finite budget through the
/// non-blocking bounded arms; handed to a bounded arm directly it is that
/// arm's step bound like any other. The wire front-end
/// always clamps budgets to a finite value, so no reactor thread ever
/// waits.
///
/// [`Client::request`]: crate::store::Client::request
pub const UNBOUNDED_RETRIES: u32 = u32::MAX;

/// How a connection (or in-process session) identifies its progress tier.
///
/// On the wire this is the **handshake**: VIP service is keyed by the
/// credential's token, which the server maps to one admitted VIP port —
/// guests cannot occupy a VIP slot no matter how many connect, so a flood
/// of guests can never starve a VIP port. In process, the session's
/// [`ClientTicket`] is authoritative; the credential merely must not
/// *over-claim* (a guest ticket presenting a VIP credential is refused
/// with [`StoreError::GuestTier`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TierCredential {
    /// Claims a bounded-wait-free VIP port, keyed by `token`.
    Vip {
        /// The credential key: the server maps each accepted token to one
        /// admitted VIP port (connections sharing a token share the port).
        token: u64,
    },
    /// Claims only the obstruction-free shared guest tier (never refused).
    Guest,
}

impl TierCredential {
    /// The progress class this credential claims.
    pub fn class(&self) -> ProgressClass {
        match self {
            TierCredential::Vip { .. } => ProgressClass::Vip,
            TierCredential::Guest => ProgressClass::Guest,
        }
    }

    /// The credential a session's own ticket vouches for.
    pub fn for_ticket(ticket: &ClientTicket) -> TierCredential {
        match ticket.class() {
            ProgressClass::Vip => TierCredential::Vip { token: ticket.id() },
            ProgressClass::Guest => TierCredential::Guest,
        }
    }
}

/// The unified request envelope: a batch of operations plus the service
/// terms they are executed under. One `Request` is one wire frame and one
/// [`Client::request`](crate::store::Client::request) call — the two paths
/// share this struct verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Operations, answered in invocation order.
    pub ops: Vec<StoreOp>,
    /// The claimed progress tier (see [`TierCredential`]).
    pub credential: TierCredential,
    /// WAL durability class the commit's effect frames carry.
    /// [`DurabilityClass::Sync`] additionally makes
    /// [`Client::request`](crate::store::Client::request) wait for the
    /// covering fsync — VIP-only.
    pub durability: DurabilityClass,
    /// Relative patience in milliseconds, measured from dispatch; `None`
    /// means no deadline. Enforced at every `Moved` re-plan boundary and
    /// by the wire front-end (a request that out-waits its deadline in a
    /// backpressure queue is shed before dispatch); expiry surfaces as
    /// the typed [`StoreError::DeadlineExceeded`]. The waiting arm
    /// (`retry_budget == UNBOUNDED_RETRIES`) checks it at the same
    /// boundaries, after each of its bounded waits for a topology.
    pub deadline_ms: Option<u32>,
    /// How many `Moved` re-plan rounds the request will pay for before the
    /// remaining operations come back
    /// [`StoreError::RetryBudgetExhausted`]. Finite budgets make the VIP
    /// arm *bounded* wait-free end to end — the budget is the a-priori
    /// step bound. [`UNBOUNDED_RETRIES`] selects the waiting arm.
    pub retry_budget: u32,
}

impl Request {
    /// A guest-tier, group-durability request with unbounded retries — the
    /// waiting arm, which is what `Client::execute` sends. Chain the
    /// builder methods to tighten the terms.
    pub fn new(ops: Vec<StoreOp>) -> Request {
        Request {
            ops,
            credential: TierCredential::Guest,
            durability: DurabilityClass::Group,
            deadline_ms: None,
            retry_budget: UNBOUNDED_RETRIES,
        }
    }

    /// Sets the tier credential.
    pub fn credential(mut self, credential: TierCredential) -> Request {
        self.credential = credential;
        self
    }

    /// Sets the durability class.
    pub fn durability(mut self, durability: DurabilityClass) -> Request {
        self.durability = durability;
        self
    }

    /// Sets the relative deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: u32) -> Request {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets a finite retry budget (routing the request through the
    /// non-blocking bounded arms).
    pub fn retry_budget(mut self, budget: u32) -> Request {
        self.retry_budget = budget;
        self
    }
}

/// The unified response envelope: one `Result` per requested operation,
/// in invocation order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Per-operation outcomes.
    pub results: Vec<Result<StoreResp, StoreError>>,
}

impl Response {
    /// A response failing every one of `n` operations with `err`.
    pub fn fail_all(n: usize, err: StoreError) -> Response {
        Response { results: (0..n).map(|_| Err(err.clone())).collect() }
    }

    /// True when every operation succeeded.
    pub fn is_ok(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }
}

/// The consolidated store error surface, with **stable wire
/// discriminants** (see [`StoreError::wire_discriminant`] and
/// `docs/WIRE.md`). `#[non_exhaustive]`: future variants may be added
/// without a breaking release; unknown discriminants received over the
/// wire fail closed in the codec.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The operation's shard split or merged between planning and commit;
    /// nothing was applied. `epoch` is the topology version the retry must
    /// plan against. Wire discriminant `1`.
    Moved {
        /// Minimum topology version a re-plan needs.
        epoch: u64,
    },
    /// The request claimed a service class its tier is not entitled to —
    /// a guest presenting a VIP credential, or requesting VIP-only
    /// synchronous durability. Wire discriminant `2`.
    GuestTier,
    /// The store's patience ran out: the request's `Moved` retry budget
    /// was spent, or the guest tier's backpressure shed it — the typed
    /// 429. Nothing beyond the reported operations was applied; try again
    /// later. (A passed *deadline* is the distinct
    /// [`StoreError::DeadlineExceeded`].) Wire discriminant `3`.
    RetryBudgetExhausted {
        /// The budget the request arrived with.
        budget: u32,
    },
    /// The store could not serve the operation: the re-planned topology
    /// never published (dead reconfiguration driver), or a required
    /// subsystem (e.g. a WAL for synchronous durability) is absent.
    /// Wire discriminant `4`.
    Unavailable {
        /// Topology version that failed to publish (0 when the failure is
        /// not topology-related).
        version: u64,
    },
    /// Data integrity failure: the covering durability flush failed
    /// ("applied but not durably acknowledged"), or a wire frame failed
    /// its checksum/structure checks. Wire discriminant `5`.
    Corrupt {
        /// Human-readable failure description.
        detail: String,
    },
    /// The request's deadline passed before the reported operations could
    /// be served: the wire front-end shed the frame before dispatch, or a
    /// `Moved` re-plan boundary found the deadline already behind it.
    /// Distinct from [`StoreError::RetryBudgetExhausted`] — budget may
    /// well remain; it is *time* that ran out, so re-sending with the
    /// same deadline is pointless. Wire discriminant `6`.
    DeadlineExceeded {
        /// The deadline budget the request carried, in milliseconds (as
        /// seen by the arm that expired it — the wire front-end debits
        /// queue wait before dispatch).
        deadline_ms: u32,
    },
}

impl StoreError {
    /// The stable one-byte wire discriminant (pinned by `docs/WIRE.md`
    /// and the codec tests; never renumber).
    pub fn wire_discriminant(&self) -> u8 {
        match self {
            StoreError::Moved { .. } => 1,
            StoreError::GuestTier => 2,
            StoreError::RetryBudgetExhausted { .. } => 3,
            StoreError::Unavailable { .. } => 4,
            StoreError::Corrupt { .. } => 5,
            StoreError::DeadlineExceeded { .. } => 6,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Moved { epoch } => {
                write!(f, "moved: re-plan against topology version {epoch}")
            }
            StoreError::GuestTier => {
                write!(f, "guest tier: the claimed service class is VIP-only")
            }
            StoreError::RetryBudgetExhausted { budget } => {
                write!(f, "retry budget exhausted (budget {budget}): try again later")
            }
            StoreError::Unavailable { version } => {
                write!(f, "unavailable (topology version {version} never published)")
            }
            StoreError::Corrupt { detail } => write!(f, "corrupt: {detail}"),
            StoreError::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline exceeded ({deadline_ms} ms): the request out-waited itself")
            }
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_discriminants_are_pinned() {
        // The wire contract: these numbers may never change.
        assert_eq!(StoreError::Moved { epoch: 3 }.wire_discriminant(), 1);
        assert_eq!(StoreError::GuestTier.wire_discriminant(), 2);
        assert_eq!(StoreError::RetryBudgetExhausted { budget: 8 }.wire_discriminant(), 3);
        assert_eq!(StoreError::Unavailable { version: 9 }.wire_discriminant(), 4);
        assert_eq!(StoreError::Corrupt { detail: "x".into() }.wire_discriminant(), 5);
        assert_eq!(StoreError::DeadlineExceeded { deadline_ms: 50 }.wire_discriminant(), 6);
    }

    #[test]
    fn request_builder_defaults_are_the_waiting_arm() {
        let req = Request::new(vec![StoreOp::Get("k".into())]);
        assert_eq!(req.credential, TierCredential::Guest);
        assert_eq!(req.retry_budget, UNBOUNDED_RETRIES);
        assert!(req.deadline_ms.is_none());
        let req = req.retry_budget(4).deadline_ms(10);
        assert_eq!(req.retry_budget, 4);
        assert_eq!(req.deadline_ms, Some(10));
    }
}
