//! The names, units, directions and bounds of every metric the benchmark
//! reports: the single source `BENCHMARK.json` is checked against.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` states a direction; the test below holds it
    /// to this one.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// What a user of the store sees. Every workload reports every one.
///
/// The benchmark's contract wants a bound three times the widest spread
/// (quartile distance over median, ten seeds) its metric shows on any
/// workload, and caps it at 25%. On the development sandbox, whose speed
/// wanders by 10–25% from minute to minute, the time metrics spread up
/// to 18% even on the reference clock, so they sit at the cap; `heap_mib`
/// spread up to 1.9%. `README.md` lists the spreads.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("vip_p50_us", "us", "lower", 0.25),
    e2e("guest_p50_us", "us", "lower", 0.25),
    e2e("goodput_rps", "1/s", "higher", 0.25),
    e2e("busy_us_per_req", "us", "lower", 0.25),
    e2e("heap_mib", "MiB", "lower", 0.05),
];

/// Single layers, from the traced run. The first four are end to end by
/// nature and carry no bound: the p95s spread up to 20% (VIPs) and 70%
/// (guests on `durable`, where they sit on the edge of the fsyncs'
/// shadow) between runs of one commit, `durable` has too few VIP samples
/// for a p99, only `durable` recovers, and the contract has every
/// workload report every end-to-end metric.
pub const PER_LAYER: [PerLayer; 56] = [
    layer("vip_p95_us", "us", "lower"),
    layer("vip_p99_us", "us", "lower"),
    layer("guest_p95_us", "us", "lower"),
    layer("recover_s", "s", "lower"),
    layer("codec.decode_ns", "ns", "lower"),
    layer("codec.encode_ns", "ns", "lower"),
    layer("codec.bytes_in_per_req", "B", "lower"),
    layer("codec.bytes_out_per_req", "B", "lower"),
    layer("conn.pipe_ns", "ns", "lower"),
    layer("reactor.turns", "count", "lower"),
    layer("reactor.frames_per_turn", "count", "higher"),
    layer("reactor.turn_us_p50", "us", "lower"),
    layer("reactor.turn_us_p99", "us", "lower"),
    layer("reactor.util", "ratio", "lower"),
    layer("reactor.self_ns_per_req", "ns", "lower"),
    layer("reactor.shed_ratio", "ratio", "lower"),
    layer("reactor.batch_envelopes_mean", "count", "higher"),
    layer("reactor.queue_depth_max", "count", "lower"),
    layer("reactor.deadline_shed", "count", "lower"),
    layer("reactor.idle_sweep_ns_per_conn", "ns", "lower"),
    layer("admission.admit_ns", "ns", "lower"),
    layer("router.plan_ns", "ns", "lower"),
    layer("router.shards_per_req", "count", "lower"),
    layer("store.request_vip_ns", "ns", "lower"),
    layer("store.request_guest_ns", "ns", "lower"),
    layer("store.request_many_ns_per_env", "ns", "lower"),
    layer("store.self_ns_per_req", "ns", "lower"),
    layer("store.commits_per_req", "ratio", "lower"),
    layer("store.moved_ops", "count", "lower"),
    layer("universal.append_ns", "ns", "lower"),
    layer("universal.replay_steps_per_commit", "ratio", "lower"),
    layer("ops.apply_get_ns", "ns", "lower"),
    layer("ops.apply_put_ns", "ns", "lower"),
    layer("ops.apply_scan_ns", "ns", "lower"),
    layer("wal.enqueue_ns", "ns", "lower"),
    layer("wal.sync_us", "us", "lower"),
    layer("wal.frames", "count", "lower"),
    layer("wal.fsyncs", "count", "lower"),
    layer("wal.frames_per_fsync", "ratio", "higher"),
    layer("wal.bytes_per_user_byte", "ratio", "lower"),
    layer("persist.checkpoint_ms", "ms", "lower"),
    layer("persist.snapshot_bytes", "B", "lower"),
    layer("persist.stall_us_max", "us", "lower"),
    layer("persist.recover_snapshot_ms", "ms", "lower"),
    layer("persist.recover_wal_ms", "ms", "lower"),
    layer("persist.wal_replay_frames", "count", "lower"),
    layer("obs.scrape_us", "us", "lower"),
    layer("mem.heap_bytes_per_req", "B", "lower"),
    layer("harness.driver_ns_per_req", "ns", "lower"),
    layer("harness.reactor_minor_faults", "count", "lower"),
    layer("harness.prefault_s", "s", "lower"),
    layer("harness.slowdown", "ratio", "lower"),
    layer("harness.stalled_turns", "count", "lower"),
    layer("harness.attempts", "count", "lower"),
    layer("harness.trace_overhead_pct", "%", "lower"),
    layer("harness.ledger_gap_pct", "%", "lower"),
];

/// One result line: the JSON object the driver reads from the last line
/// of standard output.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads metric `name`'s value back out of a [`result_json`] line.
pub fn value_in(line: &str, name: &str) -> Option<f64> {
    let after = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    after[..after.find(',')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{NOMINAL_SECONDS, WORKLOADS};

    /// Every entry is one line of the file, in the tables' order.
    #[test]
    fn benchmark_json_at_the_repository_root_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut expected = vec![format!("\"run_seconds\": {NOMINAL_SECONDS},")];
        for w in &WORKLOADS {
            expected.push(format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why));
        }
        for m in &END_TO_END {
            expected.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            ));
        }
        for m in &PER_LAYER {
            expected.push(format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            ));
        }
        let entries: Vec<&str> = on_disk
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"name\"") || l.starts_with("\"run_seconds\""))
            .collect();
        for (i, (on_disk, table)) in entries.iter().zip(&expected).enumerate() {
            assert_eq!(*on_disk, table.trim_end_matches(','), "entry {i}");
        }
        assert_eq!(entries.len(), expected.len());
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
            assert!(name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric or workload name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25), "the contract caps a bound at 25%");
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn a_result_line_round_trips_its_values() {
        let line = result_json(true, 10, 0, &[("a_us", "us", 1.25), ("b.c", "1/s", 3e5)]);
        assert_eq!(value_in(&line, "a_us"), Some(1.25));
        assert_eq!(value_in(&line, "b.c"), Some(300000.0));
        assert_eq!(value_in(&line, "absent"), None);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
    }
}
