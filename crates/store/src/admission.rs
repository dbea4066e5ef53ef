//! The admission layer: who gets which progress class.
//!
//! A store serves two tiers of clients against every shard's
//! `(2x + g, x)`-live universal object, for `x` VIP ports and `g` guest
//! ports:
//!
//! * a **bounded VIP tier** — each VIP client owns one port of the shard
//!   spec's wait-free set `X` exclusively, so its operations are wait-free.
//!   Capacity is `x` per store: admission *fails* once `X` is exhausted,
//!   which is exactly the paper's point that hard guarantees only scale to
//!   `x` processes (Theorem 3: consensus number `x+1`);
//! * an **unbounded guest tier** — guests are obstruction-free. Any number
//!   of guest clients are admitted; they are multiplexed round-robin onto
//!   the `g` shared guest ports;
//! * one **guest voice** per VIP port ([`Admission::guest_voice`]): a
//!   guest process of its own, `x + g + v` for VIP port `v`, that the VIP
//!   port's owner may run between its own operations. It commits through
//!   the VIP's port slot and replica, so an owner that serves guest work
//!   too (the wire reactor) keeps one replica, not two; but it runs the
//!   guest consensus protocol, never the VIP's wait-free path.
//!
//! So the log has `y = 2x + g` processes — VIPs, then shared guests, then
//! voices, numbered in that order — over `x + g` port slots
//! ([`Admission::ports`]). The voices cost the VIPs something: the helping
//! rule places an announced operation within ~`y` to `2y` cells, so a
//! VIP's worst-case bound grows with them (10 processes instead of 8 at the
//! default sizing), while its usual path no longer replays its own
//! owner's guest writes.
//!
//! [`Admission`] owns the per-shard [`Liveness`] specification; every shard
//! of one store uses the same spec, so a ticket's port is valid on all
//! shards.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use apc_progress_macros::progress;

use apc_core::liveness::Liveness;
use apc_model::ProcessSet;

/// The progress class a client was admitted into.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ProgressClass {
    /// Wait-free: the client owns a port of the wait-free set `X`.
    Vip,
    /// Obstruction-free: the client shares a guest port.
    Guest,
}

impl fmt::Display for ProgressClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProgressClass::Vip => "vip",
            ProgressClass::Guest => "guest",
        })
    }
}

/// Sizing of the admission layer (per shard; every shard is identical).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AdmissionConfig {
    /// `x`: the bounded wait-free VIP port count.
    pub vip_capacity: usize,
    /// Number of obstruction-free guest ports clients multiplex onto.
    pub guest_ports: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { vip_capacity: 2, guest_ports: 6 }
    }
}

/// Errors of the admission layer.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AdmissionError {
    /// All `x` VIP ports are taken; the wait-free tier is bounded by design.
    VipCapacityExhausted {
        /// The configured capacity.
        capacity: usize,
    },
    /// The configuration is unrealizable.
    BadConfig(&'static str),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::VipCapacityExhausted { capacity } => {
                write!(f, "all {capacity} wait-free VIP ports are taken")
            }
            AdmissionError::BadConfig(msg) => write!(f, "bad admission config: {msg}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// A client's admission ticket: identity, class, and port placement.
///
/// Tickets are `Copy`: they are capabilities describing placement, not
/// handles. The port is valid on every shard of the issuing store.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ClientTicket {
    id: u64,
    class: ProgressClass,
    port: usize,
}

impl ClientTicket {
    /// The client id within the issuing store, unique per admission; a
    /// guest voice ([`Admission::guest_voice`]) carries its VIP's.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The admitted progress class.
    pub fn class(&self) -> ProgressClass {
        self.class
    }

    /// The per-shard process this client operates as: its port, or, for a
    /// guest voice, the voice's own pid past the port slots.
    pub fn port(&self) -> usize {
        self.port
    }
}

/// The admission state of one store.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    spec: Liveness,
    next_id: AtomicU64,
    vips_issued: AtomicUsize,
    guests_issued: AtomicU64,
}

impl Admission {
    /// Builds the admission layer, deriving the per-shard [`Liveness`] spec
    /// (`(2 · vip_capacity + guest_ports, vip_capacity)`-live: the VIPs,
    /// the guest ports, and one guest voice per VIP port).
    ///
    /// # Errors
    ///
    /// [`AdmissionError::BadConfig`] if there are no guest ports or the
    /// process count leaves the representable range (`1..=64`).
    pub fn new(cfg: AdmissionConfig) -> Result<Self, AdmissionError> {
        if cfg.guest_ports == 0 {
            return Err(AdmissionError::BadConfig("guest_ports must be at least 1"));
        }
        let processes = 2 * cfg.vip_capacity + cfg.guest_ports;
        if processes > 64 {
            return Err(AdmissionError::BadConfig("2 · vip_capacity + guest_ports must be ≤ 64"));
        }
        let spec =
            Liveness::new(ProcessSet::first_n(processes), ProcessSet::first_n(cfg.vip_capacity))
                .map_err(|_| AdmissionError::BadConfig("liveness spec rejected the port sets"))?;
        Ok(Admission {
            cfg,
            spec,
            next_id: AtomicU64::new(0),
            vips_issued: AtomicUsize::new(0),
            guests_issued: AtomicU64::new(0),
        })
    }

    /// The per-shard liveness specification
    /// (`(2 · vip_capacity + guest_ports, vip_capacity)`-live).
    pub fn spec(&self) -> Liveness {
        self.spec
    }

    /// Port slots per shard, `vip_capacity + guest_ports`: one replica
    /// each. A VIP slot also carries its port's guest voice, so this is
    /// `y` of the spec less one per VIP.
    pub fn ports(&self) -> usize {
        self.cfg.vip_capacity + self.cfg.guest_ports
    }

    /// The guest voice of a VIP ticket: a guest-class ticket for the VIP
    /// port's own guest process, `x + g + v` for port `v`, which commits
    /// through the VIP's port slot and replica under the guest protocol.
    /// `None` for a guest ticket (a voice is a VIP port's, and a voice
    /// ticket is itself a guest's).
    #[progress(wait_free)]
    pub fn guest_voice(&self, ticket: ClientTicket) -> Option<ClientTicket> {
        (ticket.class == ProgressClass::Vip).then(|| ClientTicket {
            id: ticket.id,
            class: ProgressClass::Guest,
            port: self.ports() + ticket.port,
        })
    }

    /// Admits a client into `class`. Crate-private: a VIP is admitted only
    /// through [`Store::admit_vip`](crate::Store::admit_vip), which holds
    /// the admin lock across it and makes the VIP's replica its own, so no
    /// seal ever touches an admitted VIP's slot.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::VipCapacityExhausted`] when a VIP is requested and
    /// all wait-free ports are taken. Guest admission never fails.
    /// Lock-free, not wait-free: the VIP arm's `fetch_update` is a CAS retry
    /// loop, so one admission can be starved by others — but some admission
    /// always completes. Guest admission is a single `fetch_add`.
    #[progress(lock_free)]
    pub(crate) fn admit(&self, class: ProgressClass) -> Result<ClientTicket, AdmissionError> {
        match class {
            ProgressClass::Vip => {
                let capacity = self.cfg.vip_capacity;
                let slot = self
                    .vips_issued
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                        (v < capacity).then_some(v + 1)
                    })
                    .map_err(|_| AdmissionError::VipCapacityExhausted { capacity })?;
                Ok(ClientTicket {
                    // RELAXED: the RMW's atomicity alone guarantees unique
                    // ids; no other state is published through this counter.
                    id: self.next_id.fetch_add(1, Ordering::Relaxed),
                    class: ProgressClass::Vip,
                    port: slot,
                })
            }
            ProgressClass::Guest => Ok(self.admit_guest()),
        }
    }

    /// Admits a guest directly. Guest admission is unbounded, so unlike a
    /// VIP's admission it cannot fail — and it is wait-free:
    /// two unconditional `fetch_add`s, no retry loop.
    #[progress(wait_free)]
    pub fn admit_guest(&self) -> ClientTicket {
        // RELAXED: round-robin distribution needs only atomicity — any
        // interleaving of increments yields a valid slot.
        let k = self.guests_issued.fetch_add(1, Ordering::Relaxed);
        let guest_slot = (k % self.cfg.guest_ports as u64) as usize;
        ClientTicket {
            // RELAXED: unique ids via atomicity, as in the VIP arm.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            class: ProgressClass::Guest,
            port: self.cfg.vip_capacity + guest_slot,
        }
    }

    /// How many clients of each class have been admitted so far
    /// (`(vips, guests)`).
    #[progress(wait_free)]
    pub fn issued(&self) -> (usize, u64) {
        // RELAXED: the guest counter is diagnostic; only the VIP count
        // gates capacity and it is read with Acquire.
        (self.vips_issued.load(Ordering::Acquire), self.guests_issued.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(v: usize, g: usize) -> AdmissionConfig {
        AdmissionConfig { vip_capacity: v, guest_ports: g }
    }

    #[test]
    fn spec_matches_config() {
        let a = Admission::new(cfg(2, 6)).unwrap();
        assert_eq!(a.spec().y(), 10, "two VIPs, six guest ports, two voices");
        assert_eq!(a.spec().x(), 2);
        assert_eq!(a.ports(), 8);
    }

    #[test]
    fn a_vip_ports_voice_is_a_guest_past_the_port_slots() {
        let a = Admission::new(cfg(2, 3)).unwrap();
        let vips = [a.admit(ProgressClass::Vip).unwrap(), a.admit(ProgressClass::Vip).unwrap()];
        for (v, vip) in vips.into_iter().enumerate() {
            let voice = a.guest_voice(vip).unwrap();
            assert_eq!(
                (voice.class(), voice.port(), voice.id()),
                (ProgressClass::Guest, 5 + v, vip.id())
            );
            assert!(a.spec().is_port(voice.port()));
            assert!(!a.spec().is_wait_free_for(voice.port()), "a voice is no VIP");
        }
        assert_eq!(a.guest_voice(a.admit_guest()), None, "a guest ticket has no voice");
        let voice = a.guest_voice(vips[0]).unwrap();
        assert_eq!(a.guest_voice(voice), None, "nor does a voice");
    }

    #[test]
    fn round_robin_guests_never_get_a_voice() {
        let a = Admission::new(cfg(3, 4)).unwrap();
        for _ in 0..3 * 4 {
            let port = a.admit_guest().port();
            assert!((3..7).contains(&port), "guest port {port} is a shared guest slot");
        }
    }

    #[test]
    fn vip_tier_is_bounded() {
        let a = Admission::new(cfg(2, 2)).unwrap();
        let t0 = a.admit(ProgressClass::Vip).unwrap();
        let t1 = a.admit(ProgressClass::Vip).unwrap();
        assert_eq!((t0.port(), t1.port()), (0, 1), "VIPs own distinct wait-free ports");
        assert_eq!(
            a.admit(ProgressClass::Vip),
            Err(AdmissionError::VipCapacityExhausted { capacity: 2 })
        );
        assert!(a.spec().is_wait_free_for(t0.port()));
    }

    #[test]
    fn guest_tier_is_unbounded_and_round_robins() {
        let a = Admission::new(cfg(1, 3)).unwrap();
        let ports: Vec<usize> =
            (0..7).map(|_| a.admit(ProgressClass::Guest).unwrap().port()).collect();
        assert_eq!(ports, vec![1, 2, 3, 1, 2, 3, 1], "round-robin over guest ports");
        for port in ports {
            assert!(!a.spec().is_wait_free_for(port));
            assert!(a.spec().is_port(port));
        }
        assert_eq!(a.issued(), (0, 7));
    }

    #[test]
    fn tickets_have_unique_ids() {
        let a = Admission::new(cfg(1, 2)).unwrap();
        let ids: Vec<u64> = [
            a.admit(ProgressClass::Vip).unwrap().id(),
            a.admit(ProgressClass::Guest).unwrap().id(),
            a.admit(ProgressClass::Guest).unwrap().id(),
        ]
        .into();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(Admission::new(cfg(1, 0)).is_err());
        assert!(Admission::new(cfg(60, 8)).is_err());
        // 34 ports, but 65 processes once each VIP port has its voice.
        assert!(matches!(Admission::new(cfg(31, 3)), Err(AdmissionError::BadConfig(_))));
        assert_eq!(Admission::new(cfg(31, 2)).unwrap().spec().y(), 64);
    }
}
