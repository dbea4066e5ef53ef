//! Simulated duplex connections: the offline stand-in for TCP sockets.
//!
//! The build environment has no network access (and the workspace
//! deliberately hand-rolls its reactor instead of pulling in tokio), so a
//! "connection" here is a pair of in-memory byte pipes shared between a
//! client thread and the reactor. The surface is socket-shaped — send
//! bytes, drain bytes, half-aware close — so a real TCP transport can
//! replace [`sim_pair`] without touching the codec or the reactor logic.
//!
//! Pipes are deliberately *blocking-free*: every operation drains or
//! appends under a short mutex hold and returns immediately — there is no
//! "wait for data" primitive, because the reactor must never park. A
//! poisoned pipe mutex (a peer thread panicked mid-append) degrades to
//! the poisoned guard's data rather than propagating the panic.
//!
//! ## The readiness hook
//!
//! `StoreServer::connect` hooks the client→server pipe to one bit of the
//! reactor's ready set: every [`ConnEnd::send`] into that pipe, and the
//! client's [`ConnEnd::close`], sets the bit with one wait-free `fetch_or`
//! after the pipe has changed. The reactor swaps a word of the set to 0
//! *before* it drains the connections the word names, so a write that
//! lands after the swap leaves its bit set for the next turn: no wakeup is
//! lost, at worst a turn visits a connection whose bytes an earlier turn
//! already took. A pair made by [`sim_pair`] has no hook.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One direction of a duplex connection.
#[derive(Debug, Default)]
struct Pipe {
    buf: VecDeque<u8>,
    closed: bool,
    /// The reader's ready bit: set on every write and on the writer's close.
    wake: Option<Wake>,
}

impl Pipe {
    /// Sets the reader's ready bit, if the pipe is hooked.
    fn ring(&self) {
        if let Some(w) = &self.wake {
            // SEQCST: pairs with the reactor's swap, so a turn that sees
            // the bit also sees the pipe change that set it, and a client
            // that rang before it saw a turn end is seen by the next turn.
            w.word.fetch_or(w.bit, Ordering::SeqCst);
        }
    }
}

/// One connection's bit in a reactor's ready set.
#[derive(Debug)]
struct Wake {
    /// The set's word for this connection's block of 64.
    word: Arc<AtomicU64>,
    bit: u64,
}

fn locked(pipe: &Mutex<Pipe>) -> MutexGuard<'_, Pipe> {
    match pipe.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One endpoint of a simulated duplex connection (cheaply cloneable;
/// clones share the same pipes, like `dup`ed file descriptors).
#[derive(Clone, Debug)]
pub struct ConnEnd {
    /// Bytes this end writes; the peer drains them.
    tx: Arc<Mutex<Pipe>>,
    /// Bytes the peer writes; this end drains them.
    rx: Arc<Mutex<Pipe>>,
}

/// Creates a connected pair of endpoints.
pub fn sim_pair() -> (ConnEnd, ConnEnd) {
    pair(None)
}

/// A connected pair `(client, server)` whose client→server pipe sets `bit`
/// of `word` whenever the client sends or closes.
pub(crate) fn hooked_pair(word: Arc<AtomicU64>, bit: u64) -> (ConnEnd, ConnEnd) {
    pair(Some(Wake { word, bit }))
}

fn pair(wake: Option<Wake>) -> (ConnEnd, ConnEnd) {
    let a2b = Arc::new(Mutex::new(Pipe { wake, ..Pipe::default() }));
    let b2a = Arc::new(Mutex::new(Pipe::default()));
    (ConnEnd { tx: Arc::clone(&a2b), rx: Arc::clone(&b2a) }, ConnEnd { tx: b2a, rx: a2b })
}

impl ConnEnd {
    /// Appends `bytes` to the outbound pipe. Returns `false` — without
    /// writing — once either side has closed.
    pub fn send(&self, bytes: &[u8]) -> bool {
        let mut pipe = locked(&self.tx);
        if pipe.closed {
            return false;
        }
        pipe.buf.extend(bytes);
        pipe.ring();
        true
    }

    /// Drains every available inbound byte into `out`, returning how many
    /// arrived. Never waits.
    pub fn drain_into(&self, out: &mut Vec<u8>) -> usize {
        let mut pipe = locked(&self.rx);
        let n = pipe.buf.len();
        // The ring's two runs, copied whole: the front, then the wrapped back.
        let (front, back) = pipe.buf.as_slices();
        out.extend_from_slice(front);
        out.extend_from_slice(back);
        pipe.buf.clear();
        n
    }

    /// Hangs up both directions. Buffered inbound bytes remain drainable
    /// (a close with a part-written frame is exactly the torn tail the
    /// codec's close-time check catches).
    pub fn close(&self) {
        // The inbound side first: a reader woken by the outbound side's
        // bit must already see the whole hang-up.
        locked(&self.rx).closed = true;
        let mut tx = locked(&self.tx);
        tx.closed = true;
        tx.ring();
    }

    /// True once either side has hung up.
    pub fn is_closed(&self) -> bool {
        locked(&self.tx).closed
    }

    /// Inbound bytes currently buffered and undrained.
    pub fn pending(&self) -> usize {
        locked(&self.rx).buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_flow_both_ways() {
        let (a, b) = sim_pair();
        assert!(a.send(b"ping"));
        assert!(b.send(b"pong"));
        let mut buf = Vec::new();
        assert_eq!(b.drain_into(&mut buf), 4);
        assert_eq!(buf, b"ping");
        buf.clear();
        assert_eq!(a.drain_into(&mut buf), 4);
        assert_eq!(buf, b"pong");
        assert_eq!(a.drain_into(&mut buf), 0);
    }

    #[test]
    fn close_stops_sends_but_keeps_buffered_bytes() {
        let (a, b) = sim_pair();
        assert!(a.send(b"tail"));
        a.close();
        assert!(!a.send(b"late"));
        assert!(!b.send(b"either"), "close hangs up both directions");
        assert!(b.is_closed());
        let mut buf = Vec::new();
        assert_eq!(b.drain_into(&mut buf), 4, "pre-close bytes survive for torn-tail checks");
    }

    #[test]
    fn the_hook_rings_on_the_clients_send_and_close_only() {
        let word = Arc::new(AtomicU64::new(0));
        // RELAXED: one thread rings and reads.
        let rung = || word.swap(0, Ordering::Relaxed);
        let (client, server) = hooked_pair(Arc::clone(&word), 1 << 5);
        assert!(server.send(b"reply"));
        assert_eq!(rung(), 0, "the server's writes ring nothing");
        assert!(client.send(b"x"));
        assert_eq!(rung(), 1 << 5);
        client.close();
        assert_eq!(rung(), 1 << 5, "a hang-up rings");
        assert!(server.is_closed(), "and is whole by the time it rings");
        let (_client, server) = hooked_pair(Arc::clone(&word), 1);
        server.close();
        assert_eq!(rung(), 0, "the server's own close rings nothing");
    }

    #[test]
    fn a_drain_across_the_rings_wrap_point_returns_every_byte_in_order() {
        let (a, b) = sim_pair();
        let bytes: Vec<u8> = (0..=255).cycle().take(4096).collect();
        assert!(a.send(&bytes[..600]));
        // Part of the pipe is read: the ring's head moves off its start.
        locked(&b.rx).buf.drain(..500);
        // Fill the ring to its capacity, so the new bytes wrap around its end.
        let room = locked(&b.rx).buf.capacity() - 100;
        assert!(a.send(&bytes[600..600 + room]));
        assert!(!locked(&b.rx).buf.as_slices().1.is_empty(), "the queued bytes wrap");
        let mut out = Vec::new();
        assert_eq!(b.drain_into(&mut out), 100 + room);
        assert_eq!(out, bytes[500..600 + room], "every byte, in order");
        assert_eq!(b.pending(), 0, "and the pipe is empty");
    }

    #[test]
    fn clones_share_the_pipes() {
        let (a, b) = sim_pair();
        let a2 = a.clone();
        assert!(a2.send(b"x"));
        assert_eq!(b.pending(), 1);
    }
}
