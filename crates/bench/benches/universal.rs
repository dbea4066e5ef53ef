//! Experiment E8: the asymmetric universal object — the hierarchy's
//! constructive face.
//!
//! Series:
//! * sequential ops/sec of the universal counter: wait-free cells vs
//!   asymmetric cells (same machinery, different progress conditions);
//! * under contention, per-class latency on an `(n,1)`-live universal
//!   object: the VIP's operations stay flat, guests degrade — the
//!   user-visible meaning of "wait-free for x, obstruction-free for the
//!   rest".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use apc_core::liveness::Liveness;
use apc_universal::seq::{Counter, CounterOp};
use apc_universal::{AsymmetricFactory, CasFactory, Universal};

fn sequential_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("E8/sequential-counter-ops");
    g.bench_function("wait-free-cells", |b| {
        b.iter_batched(
            || Arc::new(Universal::new(Counter, CasFactory::new(Liveness::new_first_n(4, 4)), 4)),
            |obj| {
                let mut h = obj.owned_handle(0).unwrap();
                for _ in 0..50 {
                    black_box(h.apply(CounterOp::Add(1)));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("asymmetric-cells-vip", |b| {
        b.iter_batched(
            || {
                Arc::new(Universal::new(
                    Counter,
                    AsymmetricFactory::new(Liveness::new_first_n(4, 1)),
                    4,
                ))
            },
            |obj| {
                let mut h = obj.owned_handle(0).unwrap();
                for _ in 0..50 {
                    black_box(h.apply(CounterOp::Add(1)));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("asymmetric-cells-guest", |b| {
        b.iter_batched(
            || {
                Arc::new(Universal::new(
                    Counter,
                    AsymmetricFactory::new(Liveness::new_first_n(4, 1)),
                    4,
                ))
            },
            |obj| {
                let mut h = obj.owned_handle(2).unwrap();
                for _ in 0..50 {
                    black_box(h.apply(CounterOp::Add(1)));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn contended_classes(c: &mut Criterion) {
    let mut g = c.benchmark_group("E8/contended-class-latency");
    g.sample_size(10);
    for guests in [2usize, 4] {
        g.bench_with_input(BenchmarkId::new("vip-plus-guests", guests), &guests, |b, &guests| {
            b.iter_batched(
                || {
                    Arc::new(Universal::new(
                        Counter,
                        AsymmetricFactory::new(Liveness::new_first_n(guests + 1, 1)),
                        guests + 1,
                    ))
                },
                |obj| {
                    let times = apc_bench::timed_threads(guests + 1, |pid| {
                        let mut h = obj.owned_handle(pid).unwrap();
                        for _ in 0..20 {
                            let _ = h.apply(CounterOp::Add(1));
                        }
                    });
                    // Position 0 is the VIP's wall time; the series compares
                    // it to the guests' mean.
                    black_box(times)
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, sequential_ops, contended_classes);
criterion_main!(benches);
