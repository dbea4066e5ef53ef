//! Quickstart: asymmetric progress in five minutes.
//!
//! Run with: `cargo run --example quickstart`
//!
//! The example walks the paper's spectrum end to end:
//! 1. a `(6,2)`-live consensus object across 6 threads (wait-freedom for
//!    processes 0 and 1, obstruction-freedom for the rest);
//! 2. the arbiter object type (Figure 4);
//! 3. group-based asymmetric consensus (Figure 5);
//! 4. the consensus-number arithmetic of Theorem 3;
//! 5. the service layer's unified request envelope: one `Request` →
//!    `Response` API carrying tier credential, durability, deadline and
//!    retry budget — the same envelope the wire protocol speaks.

use asymmetric_progress::core::arbiter::{Arbiter, Role};
use asymmetric_progress::core::consensus::{AsymmetricConsensus, Consensus};
use asymmetric_progress::core::group::GroupConsensus;
use asymmetric_progress::core::liveness::Liveness;
use asymmetric_progress::model::ProcessSet;
use asymmetric_progress::store::{
    Request, StoreBuilder, StoreError, StoreOp, StoreResp, TierCredential,
};

fn main() {
    banner("1. A (6,2)-live consensus object");
    let spec = Liveness::new_first_n(6, 2);
    println!("spec: {spec}");
    println!("consensus number (Theorem 3): {}", spec.consensus_number());
    let cons: AsymmetricConsensus<String> = AsymmetricConsensus::new(spec);
    std::thread::scope(|s| {
        for pid in 0..6usize {
            let cons = &cons;
            s.spawn(move || {
                let role = if spec.is_wait_free_for(pid) { "wait-free" } else { "guest" };
                let decided = cons.propose(pid, format!("value-of-p{pid}")).unwrap();
                println!("  p{pid} ({role:9}) decided {decided}");
            });
        }
    });

    banner("2. The arbiter object type (Figure 4)");
    let arbiter = Arbiter::new(ProcessSet::from_indices([0, 1]));
    std::thread::scope(|s| {
        for pid in 0..2usize {
            let arbiter = &arbiter;
            s.spawn(move || {
                let w = arbiter.arbitrate(pid, Role::Owner).unwrap();
                println!("  owner p{pid} sees winner: {w}");
            });
        }
        for pid in 2..5usize {
            let arbiter = &arbiter;
            s.spawn(move || {
                let w = arbiter.arbitrate(pid, Role::Guest).unwrap();
                println!("  guest p{pid} sees winner: {w}");
            });
        }
    });

    banner("3. Group-based asymmetric consensus (Figure 5)");
    // 6 processes, (2,2)-live objects → 3 ordered groups of 2.
    let group: GroupConsensus<u64> = GroupConsensus::new(6, 2).unwrap();
    println!("layout: {}", group.layout());
    std::thread::scope(|s| {
        for pid in 0..6usize {
            let group = &group;
            s.spawn(move || {
                let decided = group.propose(pid, 100 + pid as u64).unwrap();
                println!("  p{pid} (group {}) decided {decided}", group.layout().group_of(pid));
            });
        }
    });
    println!("final decision: {:?}", group.peek());

    banner("4. The hierarchy (Corollary 1)");
    let n = 6;
    for x in [0, 1, 2, n - 1, n] {
        let spec = Liveness::new_first_n(n, x);
        println!("  ({n},{x})-live consensus has consensus number {}", spec.consensus_number());
    }
    println!("  ⇒ (6,0) ≺ (6,1) ≺ (6,2) ≺ … ≺ (6,5) ≃ (6,6)");

    banner("5. The service layer: one envelope, two tiers");
    let store = StoreBuilder::new().shards(2).vip_capacity(1).build().unwrap();
    let mut vip = store.client(store.admit_vip().unwrap());
    let mut guest = store.client(store.admit_guest());

    // One Request carries the ops, the tier credential, and a finite
    // retry budget; the Response answers per-op with typed results.
    let resp = vip.request(
        Request::new(vec![
            StoreOp::Put("config/epoch".into(), 1),
            StoreOp::Get("config/epoch".into()),
        ])
        .credential(vip.credential())
        .retry_budget(4),
    );
    assert_eq!(resp.results[1], Ok(StoreResp::Value(Some(1))));
    println!("  VIP envelope served on the bounded wait-free arm: {:?}", resp.results[1]);

    // Failure is a value: a guest claiming the VIP tier is refused with a
    // typed error, not blocked or panicked.
    let denied = guest.request(
        Request::new(vec![StoreOp::Get("config/epoch".into())])
            .credential(TierCredential::Vip { token: 0 }),
    );
    assert_eq!(denied.results[0], Err(StoreError::GuestTier));
    println!("  guest claiming VIP refused with: {:?}", denied.results[0]);
    println!("  (the wire protocol in `apc-net` ships this exact envelope — see docs/WIRE.md)");
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}
