//! Set-up: the store, its preload, the durable workload's WAL and
//! snapshot, and the handshaken connections. Timed as `setup_s`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use apc_net::{
    decode_message, encode_hello, ConnEnd, FrameReader, Message, ServerConfig, StoreServer,
};
use apc_store::{
    Persister, Request, Store, StoreBuilder, StoreOp, StoreResp, TierCredential, Wal, WalConfig,
};

use crate::stream::{key_name, preload_value, vip_token, OpSpec, ReqSpec, Tier, Workload};

/// Keys per preload batch: one log append per shard per batch.
const PRELOAD_BATCH: u32 = 1024;

/// Correlation ids at and above this are the harness's own (set-up and
/// read-back frames), never a generated request's.
pub const HARNESS_ID_BASE: u64 = 1 << 62;

/// Where a run keeps its scratch files: `benchmark/out/tmp/<workload>-<pid>`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn scratch_dir(wl: &Workload) -> PathBuf {
    out_dir().join("tmp").join(format!("{}-{}", wl.name, std::process::id()))
}

/// The durable workload's files and the objects writing them.
pub struct Durable {
    pub wal: Arc<Wal>,
    pub persister: Persister,
    pub wal_dir: PathBuf,
    pub snapshot: PathBuf,
}

/// Builds the store (with a WAL under `dir` on the durable workload),
/// preloads every key and, when durable, writes the initial snapshot.
pub fn build_store(wl: &Workload, dir: &Path) -> Result<(Store, Option<Durable>), String> {
    let builder = StoreBuilder::new();
    let (store, durable) = if wl.durable {
        let wal_dir = dir.join("wal");
        let snapshot = dir.join("store.snapshot");
        let wal = Wal::open(&wal_dir, WalConfig::default()).map_err(|e| format!("WAL: {e}"))?;
        let store = builder.build_with_wal(Arc::clone(&wal)).map_err(|e| format!("store: {e}"))?;
        let persister = Persister::new(&snapshot).with_wal(Arc::clone(&wal));
        (store, Some(Durable { wal, persister, wal_dir, snapshot }))
    } else {
        (builder.build().map_err(|e| format!("store: {e}"))?, None)
    };
    let mut client = store.client(store.admit_guest());
    let mut from = 0;
    while from < wl.keys {
        let to = (from + PRELOAD_BATCH).min(wl.keys);
        let ops = (from..to).map(|k| StoreOp::Put(key_name(k), preload_value(k))).collect();
        if !client.request(Request::new(ops)).is_ok() {
            return Err(format!("preload of keys {from}..{to} failed"));
        }
        from = to;
    }
    if let Some(durable) = &durable {
        durable.persister.persist(&store).map_err(|e| format!("initial snapshot: {e}"))?;
    }
    Ok((store, durable))
}

/// The server configuration of every workload: the defaults (256 guest
/// dispatches per poll, backlog 1024, batching on) plus the VIP tokens.
pub fn server_config(wl: &Workload) -> ServerConfig {
    ServerConfig { vip_tokens: (0..wl.vip.conns).map(vip_token).collect(), ..Default::default() }
}

pub fn credential(wl: &Workload, conn: usize) -> TierCredential {
    match wl.tier_of(conn) {
        Tier::Vip => TierCredential::Vip { token: vip_token(conn) },
        Tier::Guest => TierCredential::Guest,
    }
}

/// The request every connection sends once during set-up: a one-key
/// `Scan`, which visits every shard and so makes the connection's port
/// replay the preload on each of them before anything is timed.
pub fn setup_request(wl: &Workload, conn: usize) -> ReqSpec {
    let mut spec = ReqSpec { tier: wl.tier_of(conn), conn: conn as u16, nops: 1, ..ReqSpec::EMPTY };
    spec.ops[0] = OpSpec::Scan { from: 0, len: 1 };
    spec
}

/// The client side of one connection.
pub struct Conn {
    pub end: ConnEnd,
    pub reader: FrameReader,
}

impl Conn {
    /// Decodes every complete response buffered on the connection and
    /// hands `(id, payload, results)` to `each`.
    pub fn drain(
        &mut self,
        scratch: &mut Vec<u8>,
        mut each: impl FnMut(u64, &[u8], Vec<apc_net::WireResult>) -> Result<(), String>,
    ) -> Result<(), String> {
        scratch.clear();
        if self.end.drain_into(scratch) == 0 {
            return Ok(());
        }
        self.reader.push(scratch);
        while let Some(payload) = self.reader.next_payload().map_err(|e| format!("frame: {e}"))? {
            match decode_message(&payload).map_err(|e| format!("decode: {e}"))? {
                Message::Response { id, results } => each(id, &payload, results)?,
                other => return Err(format!("server sent {other:?}")),
            }
        }
        Ok(())
    }
}

/// Opens and handshakes every connection of the workload (VIPs first),
/// then sends [`setup_request`] on each and checks its answer.
pub fn open_conns(server: &mut StoreServer<'_>, wl: &Workload) -> Result<Vec<Conn>, String> {
    let mut conns: Vec<Conn> = (0..wl.conns())
        .map(|conn| {
            let end = server.connect();
            end.send(&encode_hello(&credential(wl, conn)));
            Conn { end, reader: FrameReader::new() }
        })
        .collect();
    server.poll();
    for (conn, c) in conns.iter().enumerate() {
        c.end.send(&setup_request(wl, conn).encode(HARNESS_ID_BASE + conn as u64));
    }
    server.poll();
    let expected = vec![Ok(StoreResp::Entries(vec![(key_name(0), preload_value(0))]))];
    let mut scratch = Vec::new();
    for (conn, c) in conns.iter_mut().enumerate() {
        let mut answered = false;
        c.drain(&mut scratch, |id, _, results| {
            answered = id == HARNESS_ID_BASE + conn as u64 && results == expected;
            Ok(())
        })?;
        if !answered {
            return Err(format!("connection {conn}: set-up request not answered as expected"));
        }
    }
    Ok(conns)
}
