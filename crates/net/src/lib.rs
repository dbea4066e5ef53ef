//! # `apc-net` — the wire-protocol front-end for `apc-store`
//!
//! Puts the store's unified [`Request`](apc_store::Request)`→`
//! [`Response`](apc_store::Response) envelope on a wire: a length-prefixed
//! binary codec ([`codec`]), simulated in-memory connections ([`conn`] —
//! the offline stand-in for TCP), and a hand-rolled single-threaded
//! reactor ([`reactor`]) that multiplexes thousands of connections onto
//! the admission layer's asymmetric tiers.
//!
//! The design carries the paper's asymmetric progress guarantees across
//! the network boundary instead of flattening them:
//!
//! * **VIP isolation** — admission is keyed by connection credential
//!   (a token from [`ServerConfig::vip_tokens`]). A VIP request is served
//!   where it is decoded, through a lint-verified `bounded_wait_free`
//!   dispatch path; a guest request is queued once. Each reactor turn
//!   drains the ready VIP connections first, serving their requests
//!   before it drains any guest, handshake or HTTP connection; then
//!   drains every other ready connection, serving a VIP admitted there
//!   as its frames decode; then dispatches guests. Guest load never makes
//!   a VIP request wait on guest progress, nor, once its connection is
//!   admitted, on guest ingest within its turn.
//! * **Idle connections cost nothing** — a connection rings one bit of
//!   the reactor's ready set when its client sends or hangs up, and a
//!   turn visits only the connections whose bits are set.
//! * **Backpressure as a value** — guest overload is shed with a typed
//!   [`StoreError::RetryBudgetExhausted`](apc_store::StoreError) response
//!   (the wire's 429), and every wire retry budget is clamped finite so
//!   the in-process API's blocking arm is unreachable from the network.
//! * **Fail-closed framing** — the codec mirrors the WAL's torn-tail
//!   policy: incomplete frames wait, structurally wrong frames (bad
//!   checksum, oversized prefix, unknown discriminant) poison the
//!   connection.
//!
//! The reactor's listener also answers plain `GET /metrics` with the
//! merged store + `store_net_*` Prometheus scrape (see `METRICS.md`), so
//! one simulated port serves both the binary protocol and observability.
//!
//! Protocol spec: `docs/WIRE.md`.
//!
//! ## Example
//!
//! ```
//! use apc_net::{NetClient, ServerConfig, StoreServer};
//! use apc_store::{Request, StoreBuilder, StoreOp, StoreResp, TierCredential};
//!
//! let store = StoreBuilder::new().shards(2).vip_capacity(1).build().unwrap();
//! let cfg = ServerConfig { vip_tokens: vec![0xfeed], ..ServerConfig::default() };
//! let mut server = StoreServer::new(&store, cfg);
//!
//! let vip = TierCredential::Vip { token: 0xfeed };
//! let mut client = NetClient::connect(&mut server, vip);
//! client.send(&Request::new(vec![
//!     StoreOp::Put("wire/1".into(), 11),
//!     StoreOp::Get("wire/1".into()),
//! ]).credential(vip));
//!
//! server.poll();
//! let responses = client.drain().unwrap();
//! assert_eq!(responses[0].1[1], Ok(StoreResp::Value(Some(11))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod conn;
pub mod metrics;
pub mod reactor;

pub use codec::{
    decode_message, encode_hello, encode_request, encode_response, encode_response_into,
    CodecError, FrameReader, Message, WireResult, MAX_WIRE_LIST, MAX_WIRE_PAYLOAD, WIRE_VERSION,
};
pub use conn::{sim_pair, ConnEnd};
pub use metrics::{NetMetrics, NET_LATENCY_NS_BOUNDS};
pub use reactor::{NetClient, PollStats, ServerConfig, StoreServer};
