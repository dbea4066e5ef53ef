//! One run of one workload: pre-fault, set up, drive, check, recover,
//! report — and, when traced, replay the layers.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use apc_net::StoreServer;
use apc_store::{
    encode_prometheus, MetricsSnapshot, Request, StoreBuilder, StoreResp, StoreSnapshot,
    TierCredential, Wal, WalConfig,
};

use crate::check::Chains;
use crate::driver::{drive, Buffers, Phase, Sample, Trace, READBACK_KEYS};
use crate::layers::replay;
use crate::metrics::{result_json, END_TO_END, PER_LAYER};
use crate::reference::Reference;
use crate::spans::{Span, SpanLog, ROOT};
use crate::stats::{median, percentile_sorted, Windowed};
use crate::stream::{key_name, stream_digest, OpSpec, Tier, Workload, NOMINAL_SECONDS};
use crate::sys;
use crate::world::{build_store, open_conns, out_dir, scratch_dir, server_config};

/// Set-up is repeated and its median reported: the builder's contract
/// asks for that, so that one slow allocation does not decide `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Heap faulted in before set-up: room for the largest preload and its
/// repeats, plus what a nominal run's requests retain (1536 MiB in all
/// at nominal scale).
const PREFAULT_BASE_MIB: f64 = 512.0;
const PREFAULT_PER_RUN_MIB: f64 = 1024.0;
/// A run whose reactor thread took more minor faults than this across
/// the measured phase timed page faults, not the store.
const MAX_MINOR_FAULTS: u64 = 100;
/// The layer replay covers this many leading requests, or 15% of a
/// shorter run.
const REPLAY_REQUESTS: u64 = 100_000;

pub struct RunArgs {
    pub wl: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1 for a first attempt; see [`Refusal::repeat`].
    pub attempt: u32,
}

/// Why a run reports no metrics.
pub struct Refusal {
    pub reason: String,
    /// Guests were shed on a paced workload and nothing else went wrong:
    /// some turn lasted longer than the backlog holds arrivals for. The
    /// same seed's stream is worth repeating in a fresh process: a long
    /// turn the program makes (a rehash, a log replay) comes back at the
    /// same request on every attempt, one the host made does not.
    pub repeat: bool,
}

impl From<String> for Refusal {
    fn from(reason: String) -> Refusal {
        Refusal { reason, repeat: false }
    }
}

/// The crash-recovery half of the durable workload.
struct Recovery {
    seconds: f64,
    snapshot_ms: f64,
    replay_frames: u64,
    lost_group_writes: u64,
}

fn micros(ns: f64) -> f64 {
    ns / 1e3
}

/// Window-median percentiles of one tier's measured latencies.
fn latencies(samples: &[Sample], tier: Tier, phase: &Phase, windows: usize) -> Windowed {
    let of_tier = samples.iter().filter(|s| s.tier == tier && s.ok).map(|s| (s.due, s.latency_ns));
    Windowed::new(of_tier, phase.measure_from, phase.measure_to, windows)
}

/// Reads every key of a recovered store through an in-process VIP
/// session.
fn read_all(wl: &Workload, store: &apc_store::Store) -> Result<Vec<u64>, String> {
    let ticket = store.admit_vip().map_err(|e| format!("recovered store: {e}"))?;
    let mut client = store.client(ticket);
    let mut values = Vec::with_capacity(wl.keys as usize);
    let mut from = 0;
    while from < wl.keys {
        let to = (from + READBACK_KEYS).min(wl.keys);
        let ops = (from..to).map(|key| OpSpec::Get { key }.to_op()).collect();
        let req =
            Request::new(ops).credential(TierCredential::for_ticket(&ticket)).retry_budget(16);
        for (key, result) in (from..to).zip(client.request(req).results) {
            match result {
                Ok(StoreResp::Value(Some(v))) => values.push(v),
                other => return Err(format!("recovered {}: {other:?}", key_name(key))),
            }
        }
        from = to;
    }
    Ok(values)
}

/// Reopens the crashed WAL, recovers the store from snapshot plus WAL,
/// and checks what survived against what was acknowledged.
fn recover_and_check(
    wl: &Workload,
    wal_dir: &Path,
    snapshot: &Path,
    chains: &Chains,
    sync_acked: &[(u32, u64)],
) -> Result<Recovery, String> {
    let started = Instant::now();
    let wal = Wal::open(wal_dir, WalConfig::default()).map_err(|e| format!("reopen WAL: {e}"))?;
    let replay_frames = wal.scrape().value("store_wal_replay_frames", &[]).unwrap_or(0);
    let store = StoreBuilder::new()
        .recover_with_wal(snapshot, wal)
        .map_err(|e| format!("recovery: {e}"))?;
    let seconds = started.elapsed().as_secs_f64();
    let survived = chains.check_recovery(sync_acked, &read_all(wl, &store)?)?;
    drop(store);
    // What of `seconds` the snapshot alone costs: read and decode it
    // once more, stand-alone.
    let started = Instant::now();
    StoreSnapshot::read_from(snapshot).map_err(|e| format!("snapshot: {e}"))?;
    Ok(Recovery {
        seconds,
        snapshot_ms: started.elapsed().as_secs_f64() * 1e3,
        replay_frames,
        lost_group_writes: survived.lost_group_writes,
    })
}

fn counter(snapshot: &Option<MetricsSnapshot>, name: &str, labels: &[(&str, &str)]) -> f64 {
    snapshot.as_ref().and_then(|s| s.value(name, labels)).unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A run that breaks a promise reports no metrics.
fn guard_rails(wl: &Workload, phase: &Phase, heap_retained: bool) -> Result<(), Refusal> {
    let [vip, guest] = phase.tallies;
    if vip.failed + vip.shed > 0 {
        return Err(format!("{} VIP requests failed or were shed", vip.failed + vip.shed).into());
    }
    if guest.failed > 0 || (wl.paced() && guest.shed > 0) {
        let reason = format!(
            "{} guest requests failed and {} were shed{} (longest turn {:.1} ms at {:.3} s, {} the \
             CPU by the guest's clock; {} turns spent 10 ms or more off it)",
            guest.failed,
            guest.shed,
            if wl.paced() { " on a paced workload" } else { "" },
            phase.longest_turn_ns as f64 / 1e6,
            phase.longest_turn_at as f64 / 1e9,
            if phase.longest_turn_stalled { "off" } else { "on" },
            phase.stalled_turns
        );
        return Err(Refusal { reason, repeat: guest.failed == 0 });
    }
    if phase.deadline_shed > 0 {
        return Err(format!(
            "reactor.deadline_shed = {}: no request carries a deadline",
            phase.deadline_shed
        )
        .into());
    }
    if heap_retained && phase.minor_faults.is_some_and(|f| f > MAX_MINOR_FAULTS) {
        return Err(format!(
            "harness.reactor_minor_faults = {}: the run timed page faults",
            phase.minor_faults.unwrap_or(0)
        )
        .into());
    }
    Ok(())
}

/// Runs the workload once and prints its report; the last line of
/// standard output is the result object. `Err` carries the reason a run
/// is refused: nothing is printed for a run that cannot be trusted.
pub fn run(args: &RunArgs) -> Result<(), Refusal> {
    let wl = args.wl;
    let scale = args.seconds / NOMINAL_SECONDS;
    let host = sys::host_info();
    let dir = scratch_dir(wl);
    // A repeated attempt keeps its process id, and so its directory.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    let prefault = sys::prefault_heap((PREFAULT_BASE_MIB + PREFAULT_PER_RUN_MIB * scale) as usize);
    let mut buffers = Buffers::new(wl, scale);
    let mut reference = Reference::new();
    let replay_requests = REPLAY_REQUESTS.min((wl.total_requests(scale) as f64 * 0.15) as u64);
    let mut trace = args.trace.then(|| {
        let spans = replay_requests as usize * 16 + wl.total_requests(scale) as usize;
        let blank = Span {
            trace: 0,
            id: 0,
            parent: ROOT,
            name: "",
            start_ns: 0,
            end_ns: 0,
            count: 0,
            stats: [0; 4],
        };
        Trace::new(SpanLog::with_capacity(sys::presized(spans, blank)), replay_requests)
    });

    // Set-up, repeated; the last repeat's store is the one driven.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let (phase, heap_base, wal_scrape, snapshot_bytes, durable_files) = loop {
        let rep_dir = dir.join(format!("setup{}", setup_s.len()));
        let heap_base = sys::heap_in_use();
        // As measured: much of it is the allocator and, on `durable`,
        // the initial snapshot's fsyncs, which no yardstick prices.
        let started = Instant::now();
        let (store, durable) = build_store(wl, &rep_dir)?;
        let mut server = StoreServer::new(&store, server_config(wl));
        let conns = open_conns(&mut server, wl)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if setup_s.len() < SETUP_REPEATS {
            continue;
        }
        let phase = drive(
            wl,
            args.seed,
            scale,
            &store,
            &mut server,
            conns,
            durable.as_ref(),
            &mut buffers,
            trace.as_mut(),
            &mut reference,
        )?;
        let wal_scrape = durable.as_ref().map(|d| d.wal.scrape());
        let snapshot_bytes = durable
            .as_ref()
            .and_then(|d| std::fs::metadata(&d.snapshot).ok())
            .map_or(0, |m| m.len());
        let files = durable.as_ref().map(|d| (d.wal_dir.clone(), d.snapshot.clone()));
        break (phase, heap_base, wal_scrape, snapshot_bytes, files);
    };

    guard_rails(wl, &phase, prefault.retained)?;
    let [vip, guest] = phase.tallies;
    let Buffers { ledger, samples, mut turn_ns, .. } = buffers;
    let writes = ledger.writes.len();
    let chains = Chains::link(wl.keys, ledger.writes)?;
    chains.check_reads(&ledger.reads)?;
    chains.check_finals(&phase.finals)?;
    let recovery = match &durable_files {
        Some((wal_dir, snapshot)) => {
            Some(recover_and_check(wl, wal_dir, snapshot, &chains, &ledger.sync_acked)?)
        }
        None => None,
    };

    // End-to-end metrics.
    let windows = ((wl.windows as f64 * scale).round() as usize).max(1);
    let vip_lat = latencies(&samples, Tier::Vip, &phase, windows);
    let guest_lat = latencies(&samples, Tier::Guest, &phase, windows);
    let phase_s = (phase.measure_to - phase.measure_from) as f64 / 1e9;
    let us = |w: &Windowed, q: f64| w.percentile(q).map(micros);
    // The ISSUE's ten; `metrics.rs` says which of them carry a bound.
    let headline: Vec<(&'static str, Option<f64>)> = vec![
        ("setup_s", Some(median(&mut setup_s))),
        ("vip_p50_us", us(&vip_lat, 0.50)),
        ("vip_p95_us", us(&vip_lat, 0.95)),
        ("vip_p99_us", us(&vip_lat, 0.99)),
        ("guest_p50_us", us(&guest_lat, 0.50)),
        ("guest_p95_us", us(&guest_lat, 0.95)),
        ("goodput_rps", Some(ratio(phase.ok_responses as f64, phase_s))),
        ("busy_us_per_req", Some(micros(ratio(phase.busy_ns as f64, phase.responses as f64)))),
        ("heap_mib", Some((phase.heap_to.saturating_sub(heap_base)) as f64 / (1u64 << 20) as f64)),
        ("recover_s", recovery.as_ref().map(|r| r.seconds)),
    ];

    // Per-layer metrics: what the drive itself saw, then the replay's.
    let mut layer_values: Vec<(&'static str, f64)> = Vec::new();
    let mut replay_note = String::new();
    if let Some(trace) = trace.as_mut() {
        turn_ns.sort_unstable();
        let turn_us = |q: f64| {
            if turn_ns.is_empty() {
                0.0
            } else {
                micros(f64::from(percentile_sorted(&turn_ns, q)))
            }
        };
        let served = (phase.responses - phase.shed) as f64;
        let commits = |s: &Option<MetricsSnapshot>| {
            counter(s, "store_commits_total", &[("tier", "vip")])
                + counter(s, "store_commits_total", &[("tier", "guest")])
        };
        let moved = |s: &Option<MetricsSnapshot>| {
            counter(s, "store_moved_ops_total", &[("tier", "vip")])
                + counter(s, "store_moved_ops_total", &[("tier", "guest")])
        };
        let attempted = (vip.attempted + guest.attempted) as f64;
        let wal = |name: &str, labels: &[(&str, &str)]| counter(&wal_scrape, name, labels);
        let wal_frames = wal("store_wal_appends_total", &[("class", "group")])
            + wal("store_wal_appends_total", &[("class", "sync")]);
        let wal_fsyncs = wal("store_wal_flushes_total", &[]);
        // A write's user bytes: its key and its 8-byte value.
        let user_bytes = writes as f64 * (key_name(0).len() + 8) as f64;
        // Median over slices, so that a slice with an fsync or a
        // checkpoint stall in it does not decide the comparison.
        let slice_median = |traced: bool| {
            let mut of: Vec<f64> =
                trace.slices.iter().filter(|(t, _)| *t == traced).map(|(_, ns)| *ns).collect();
            if of.is_empty() {
                0.0
            } else {
                median(&mut of)
            }
        };
        layer_values.extend(headline.iter().map(|(name, v)| (*name, v.unwrap_or(0.0))));
        layer_values.extend([
            ("codec.bytes_in_per_req", ratio(phase.bytes_in as f64, attempted)),
            ("codec.bytes_out_per_req", ratio(phase.bytes_out as f64, attempted)),
            ("reactor.turns", phase.turns as f64),
            ("reactor.frames_per_turn", ratio(phase.frames as f64, phase.turns as f64)),
            ("reactor.turn_us_p50", turn_us(0.50)),
            ("reactor.turn_us_p99", turn_us(0.99)),
            ("reactor.util", ratio(phase.busy_ns as f64 / 1e9, phase_s)),
            ("reactor.shed_ratio", ratio(phase.shed as f64, phase.responses as f64)),
            (
                "reactor.batch_envelopes_mean",
                ratio(phase.guest_served as f64, phase.batches as f64),
            ),
            ("reactor.queue_depth_max", phase.queue_depth_max as f64),
            ("reactor.deadline_shed", phase.deadline_shed as f64),
            (
                "store.commits_per_req",
                ratio(commits(&trace.scrape_to) - commits(&trace.scrape_from), served),
            ),
            ("store.moved_ops", moved(&trace.scrape_to) - moved(&trace.scrape_from)),
            (
                "universal.replay_steps_per_commit",
                ratio(phase.replay_steps as f64, commits(&trace.scrape_to)),
            ),
            ("wal.frames", wal_frames),
            ("wal.fsyncs", wal_fsyncs),
            ("wal.frames_per_fsync", ratio(wal_frames, wal_fsyncs)),
            (
                "wal.bytes_per_user_byte",
                ratio(wal("store_wal_appended_bytes_total", &[]), user_bytes),
            ),
            (
                "persist.checkpoint_ms",
                ratio(phase.checkpoint_ms.iter().sum(), phase.checkpoint_ms.len() as f64),
            ),
            ("persist.snapshot_bytes", snapshot_bytes as f64),
            ("persist.stall_us_max", micros(phase.stall_ns_max as f64)),
            ("persist.recover_snapshot_ms", recovery.as_ref().map_or(0.0, |r| r.snapshot_ms)),
            (
                "persist.recover_wal_ms",
                recovery.as_ref().map_or(0.0, |r| (r.seconds * 1e3 - r.snapshot_ms).max(0.0)),
            ),
            (
                "persist.wal_replay_frames",
                recovery.as_ref().map_or(0.0, |r| r.replay_frames as f64),
            ),
            ("obs.scrape_us", trace.scrape_us),
            (
                "mem.heap_bytes_per_req",
                ratio(phase.heap_to.saturating_sub(phase.heap_from) as f64, phase.responses as f64),
            ),
            (
                "harness.driver_ns_per_req",
                ratio((phase.loop_ns - phase.poll_ns) as f64, phase.requests as f64),
            ),
            ("harness.reactor_minor_faults", phase.minor_faults.unwrap_or(0) as f64),
            ("harness.prefault_s", prefault.seconds),
            ("harness.slowdown", ratio(phase.busy_wall_ns as f64, phase.busy_ns as f64)),
            ("harness.stalled_turns", phase.stalled_turns as f64),
            ("harness.attempts", f64::from(args.attempt)),
            (
                "harness.trace_overhead_pct",
                (ratio(slice_median(true), slice_median(false)) - 1.0) * 100.0,
            ),
        ]);

        let replayed = replay(wl, trace, &dir)?;
        if replayed.mismatches > 0 {
            return Err(format!(
                "layer replay: {} of {} responses differ from the reactor's",
                replayed.mismatches, replayed.requests
            )
            .into());
        }
        layer_values.extend(replayed.metrics);
        let spans_csv = out_dir().join(format!("{}-spans.csv", wl.name));
        trace.spans.write_csv(&spans_csv).map_err(|e| format!("{}: {e}", spans_csv.display()))?;
        if let Some(scrape) = &trace.scrape_to {
            let counts = out_dir().join(format!("{}-scrape.prom", wl.name));
            std::fs::write(&counts, encode_prometheus(scrape))
                .map_err(|e| format!("{}: {e}", counts.display()))?;
        }
        write!(
            replay_note,
            "replayed {} requests in {} turns, every response identical; {} spans in {}",
            replayed.requests,
            trace.turns.len(),
            trace.spans.spans().len(),
            spans_csv.display()
        )
        .expect("writing to a String");
    }

    // The report.
    println!(
        "# apc-benchmark workload={} seed={} stream={:016x} seconds={} trace={} nproc={} kernel={} \
         libc={:?} commit={}",
        wl.name,
        args.seed,
        stream_digest(wl, args.seed, 10_000),
        args.seconds,
        args.trace as u8,
        host.nproc,
        host.kernel,
        host.libc,
        host.commit
    );
    println!("# why: {}", wl.why);
    if args.attempt > 1 {
        println!(
            "# attempt {}: the earlier ones shed guests after a long turn (see stderr)",
            args.attempt
        );
    }
    if !prefault.retained {
        println!(
            "# FLAGGED: not glibc, heap not pre-faulted: timings include first-touch page faults"
        );
    }
    for (name, t) in [("vip", vip), ("guest", guest)] {
        println!(
            "# {name}: attempted={} ok={} shed={} failed={}",
            t.attempted, t.ok, t.shed, t.failed
        );
    }
    println!(
        "# checks: {} writes link into per-key chains, {} reads on their chains, {} keys read back{}",
        chains.len(),
        ledger.reads.len(),
        phase.finals.len(),
        recovery.as_ref().map_or(String::new(), |r| format!(
            "; crash recovery kept every Sync write, lost the last {} Group writes \
             (flush policy: {:?})",
            r.lost_group_writes,
            WalConfig::default()
        ))
    );
    println!(
        "# measured {:.3} s of reactor time, {} turns (longest of the run {:.1} ms at {:.3} s), {} \
         responses; samples per window: vip {:?} guest {:?}",
        phase_s,
        phase.turns,
        phase.longest_turn_ns as f64 / 1e6,
        phase.longest_turn_at as f64 / 1e9,
        phase.responses,
        vip_lat.counts(),
        guest_lat.counts()
    );
    println!(
        "# harness: machine at {:.3}x the reference's time per unit of work, prefault {:.3} s, reactor \
         minor faults {:?}, {} turns stalled off the CPU, driver {:.0} ns/req outside the clock",
        ratio(phase.busy_wall_ns as f64, phase.busy_ns as f64),
        prefault.seconds,
        phase.minor_faults,
        phase.stalled_turns,
        ratio((phase.loop_ns - phase.poll_ns) as f64, phase.requests as f64)
    );
    if wl.durable {
        println!(
            "# durable: {} checkpoints of {:.0} ms mean on the helper thread, longest turn beside \
             one {:.1} ms, guest backlog peaked at {} of {}",
            phase.checkpoint_ms.len(),
            ratio(phase.checkpoint_ms.iter().sum(), phase.checkpoint_ms.len() as f64),
            phase.stall_ns_max as f64 / 1e6,
            phase.queue_depth_max,
            server_config(wl).guest_queue_depth + server_config(wl).guest_dispatch_per_poll
        );
    }
    if !replay_note.is_empty() {
        println!("# {replay_note}");
    }

    let mut metrics: Vec<(&'static str, &'static str, f64)> = Vec::new();
    if args.trace {
        for m in &PER_LAYER {
            let value = layer_values.iter().find(|(n, _)| *n == m.name).map_or(0.0, |(_, v)| *v);
            metrics.push((m.name, m.unit, value));
        }
    } else {
        for m in &END_TO_END {
            match headline.iter().find(|(n, _)| *n == m.name).and_then(|(_, v)| *v) {
                Some(value) => metrics.push((m.name, m.unit, value)),
                None => println!(
                    "# {}: not reported: a window has fewer than {} samples beyond it at this length",
                    m.name,
                    crate::stats::MIN_SAMPLES_BEYOND
                ),
            }
        }
    }
    for (name, unit, value) in &metrics {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    let attempted = vip.attempted + guest.attempted;
    let failed = vip.failed + guest.failed;
    println!("{}", result_json(true, attempted, failed, &metrics));

    // Scratch files go only on success; a failed run leaves them to look at.
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(dir.parent().unwrap_or(&dir));
    Ok(())
}
