//! The workloads and the request streams they generate.
//!
//! A stream is a pure function of `(workload, seed)`: connection `c`'s
//! `j`-th request is the same bytes on every run, and an open-loop
//! connection's `j`-th request is due at the same reactor-clock instant.
//! The program under test sees only the encoded frames.

use apc_net::encode_request;
use apc_store::{DurabilityClass, Request, StoreOp, TierCredential};

/// The `--seconds` value at which a workload runs the request counts
/// written in its definition; other values scale the counts linearly.
pub const NOMINAL_SECONDS: f64 = 10.0;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Tier {
    Vip,
    Guest,
}

/// What one request frame carries.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Shape {
    Get,
    Put,
    Cas,
    /// Two `Get`s and two `Put`s on four independent keys.
    Mixed4,
    /// Four `Get`s on four independent keys (several shards).
    Get4,
    /// One `Scan` over [`SCAN_KEYS`] consecutive keys (every shard).
    Scan,
}

pub const SCAN_KEYS: u32 = 16;

impl Shape {
    /// Values a response to this shape reads back (for pre-sizing).
    fn reads(self) -> f64 {
        match self {
            Shape::Get | Shape::Put | Shape::Cas => 1.0,
            Shape::Mixed4 | Shape::Get4 => 4.0,
            Shape::Scan => f64::from(SCAN_KEYS),
        }
    }
}

/// How a tier's connections offer load.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Load {
    /// Poisson arrivals at `rate` requests per reactor-clock second over
    /// all of the tier's connections, independent of completions, until
    /// `requests` have been sent (`None`: until the other tier is done).
    Open { rate: f64, requests: Option<u64> },
    /// Every connection keeps `pipeline` requests in flight and sends the
    /// next the moment any response arrives, until the tier has received
    /// `responses` responses.
    Closed { pipeline: usize, responses: u64 },
}

#[derive(Copy, Clone, Debug)]
pub struct TierLoad {
    pub conns: usize,
    pub load: Load,
    /// Shapes with their share in percent; shares sum to 100.
    pub mix: &'static [(Shape, u32)],
}

#[derive(Copy, Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Preloaded keys; requests pick among them.
    pub keys: u32,
    /// 80% of picks fall in the first 20% of the key space.
    pub skewed: bool,
    pub vip: TierLoad,
    pub guest: TierLoad,
    /// Windows the measured phase is cut into for window-median
    /// percentiles, at [`NOMINAL_SECONDS`].
    pub windows: usize,
    /// A WAL is attached, every VIP request waits for its fsync
    /// (`DurabilityClass::Sync`), checkpoints run on a helper thread, and
    /// the run ends with a crash and a recovery.
    pub durable: bool,
}

impl Workload {
    /// True when every request is expected to succeed: any shed guest
    /// request invalidates the run.
    pub fn paced(&self) -> bool {
        matches!(self.guest.load, Load::Open { .. })
    }

    /// VIP connections come first.
    pub fn conns(&self) -> usize {
        self.vip.conns + self.guest.conns
    }

    pub fn tier_of(&self, conn: usize) -> Tier {
        if conn < self.vip.conns {
            Tier::Vip
        } else {
            Tier::Guest
        }
    }

    pub fn tier(&self, tier: Tier) -> &TierLoad {
        match tier {
            Tier::Vip => &self.vip,
            Tier::Guest => &self.guest,
        }
    }

    /// Requests the whole run sends, at `scale` (an upper bound for the
    /// unbounded VIP side of a closed-loop workload).
    pub fn total_requests(&self, scale: f64) -> u64 {
        let side = |t: &TierLoad| match t.load {
            Load::Open { requests: Some(n), .. } => scaled(n, scale),
            Load::Open { requests: None, .. } => 0,
            Load::Closed { pipeline, responses } => {
                scaled(responses, scale) + (pipeline * t.conns) as u64
            }
        };
        let unbounded_vip = match (self.vip.load, self.guest.load) {
            // The VIP side runs for as long as the guests do; the guests
            // answer no slower than 100 000 responses per second.
            (Load::Open { rate, requests: None }, Load::Closed { responses, .. }) => {
                (rate * scaled(responses, scale) as f64 / 100_000.0) as u64
            }
            _ => 0,
        };
        side(&self.vip) + side(&self.guest) + unbounded_vip
    }

    /// Expected values read back per request (for pre-sizing).
    pub fn reads_per_request(&self) -> f64 {
        self.guest.mix.iter().map(|(s, pct)| s.reads() * f64::from(*pct) / 100.0).sum()
    }
}

pub fn scaled(count: u64, scale: f64) -> u64 {
    ((count as f64 * scale).round() as u64).max(1)
}

const GET_PUT: &[(Shape, u32)] = &[(Shape::Get, 50), (Shape::Put, 50)];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mixed-steady",
        why: "Open loop at utilisation ~0.2, about one frame per turn: the unbatched per-request \
              path (decode, plan, one log append, apply, encode) and cross-tier replay.",
        keys: 100_000,
        skewed: false,
        vip: TierLoad {
            conns: 2,
            load: Load::Open { rate: 3_000.0, requests: Some(60_000) },
            mix: GET_PUT,
        },
        guest: TierLoad {
            conns: 16,
            load: Load::Open { rate: 30_000.0, requests: Some(600_000) },
            mix: &[(Shape::Get, 45), (Shape::Put, 45), (Shape::Cas, 5), (Shape::Mixed4, 5)],
        },
        windows: 16,
        durable: false,
    },
    Workload {
        name: "guest-flood",
        why: "Closed population of 1536 pipelined guests saturates the reactor: ingest, backlog, \
              shedding and batched dispatch do the work while VIPs must never fail.",
        keys: 100_000,
        skewed: false,
        vip: TierLoad {
            conns: 2,
            load: Load::Open { rate: 2_000.0, requests: None },
            mix: GET_PUT,
        },
        guest: TierLoad {
            conns: 64,
            load: Load::Closed { pipeline: 24, responses: 4_000_000 },
            mix: GET_PUT,
        },
        windows: 8,
        durable: false,
    },
    Workload {
        name: "read-scan",
        why: "Skewed reads, multi-shard gets and broadcast scans over 400k keys: router \
              fan-out/merge, deeper maps, large responses; reads that append.",
        keys: 400_000,
        skewed: true,
        vip: TierLoad {
            conns: 2,
            load: Load::Open { rate: 2_500.0, requests: Some(50_000) },
            mix: &[(Shape::Get, 100)],
        },
        guest: TierLoad {
            conns: 16,
            load: Load::Open { rate: 25_000.0, requests: Some(500_000) },
            mix: &[(Shape::Get, 70), (Shape::Get4, 20), (Shape::Scan, 5), (Shape::Put, 5)],
        },
        windows: 16,
        durable: false,
    },
    Workload {
        name: "durable",
        why:
            "Write-only with a WAL: enqueue, group flusher, fsync on the reactor thread for a Sync \
              VIP, checkpoints in the background, then a crash and a timed recovery.",
        keys: 200_000,
        skewed: false,
        vip: TierLoad {
            conns: 1,
            load: Load::Open { rate: 50.0, requests: Some(1_000) },
            mix: &[(Shape::Put, 100)],
        },
        guest: TierLoad {
            conns: 16,
            load: Load::Open { rate: 20_000.0, requests: Some(400_000) },
            mix: &[(Shape::Put, 100)],
        },
        // 300 VIP samples each: a p95 with fifteen beyond it.
        windows: 3,
        durable: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The value key `k` holds after the preload; written values never
/// collide with it (see [`Generator::unique_value`]).
pub fn preload_value(key: u32) -> u64 {
    u64::from(key) + 1
}

pub fn key_name(key: u32) -> String {
    format!("k{key:07}")
}

/// The token VIP connection `conn` presents.
pub fn vip_token(conn: usize) -> u64 {
    0xA5_0000 + conn as u64
}

/// One operation of a request, compact and `Copy` so that in-flight
/// requests live in a pre-sized ring.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OpSpec {
    Get { key: u32 },
    Put { key: u32, value: u64 },
    Cas { key: u32, expect: u64, new: u64 },
    Scan { from: u32, len: u32 },
}

impl OpSpec {
    pub fn to_op(self) -> StoreOp {
        match self {
            OpSpec::Get { key } => StoreOp::Get(key_name(key)),
            OpSpec::Put { key, value } => StoreOp::Put(key_name(key), value),
            OpSpec::Cas { key, expect, new } => {
                StoreOp::Cas { key: key_name(key), expect: Some(expect), new }
            }
            OpSpec::Scan { from, len } => {
                StoreOp::Scan { from: key_name(from), to: key_name(from + len) }
            }
        }
    }
}

pub const MAX_OPS: usize = 4;

/// One generated request.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ReqSpec {
    pub ops: [OpSpec; MAX_OPS],
    pub nops: u8,
    pub tier: Tier,
    pub conn: u16,
    /// The request waits for its fsync: the durable workload's VIP.
    pub sync: bool,
}

impl ReqSpec {
    pub const EMPTY: ReqSpec = ReqSpec {
        ops: [OpSpec::Get { key: 0 }; MAX_OPS],
        nops: 0,
        tier: Tier::Guest,
        conn: 0,
        sync: false,
    };

    pub fn ops(&self) -> &[OpSpec] {
        &self.ops[..usize::from(self.nops)]
    }

    pub fn request(&self) -> Request {
        let req = Request::new(self.ops().iter().map(|op| op.to_op()).collect());
        match self.tier {
            Tier::Guest => req,
            Tier::Vip => {
                let req =
                    req.credential(TierCredential::Vip { token: vip_token(self.conn.into()) });
                if self.sync {
                    req.durability(DurabilityClass::Sync)
                } else {
                    req
                }
            }
        }
    }

    pub fn encode(&self, id: u64) -> Vec<u8> {
        encode_request(id, &self.request())
    }
}

/// SplitMix64: small, seedable, and good enough to pick keys.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// An exponential gap with the given mean, at least 1 ns.
    fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        ((-self.unit().ln() * mean_ns) as u64).max(1)
    }
}

/// Generates each connection's requests.
pub struct Generator {
    wl: &'static Workload,
    rngs: Vec<Rng>,
    sent: Vec<u64>,
    /// The value the generator last wrote to each key, in generation
    /// order: what a `Cas` expects. A `Cas` that loses a race to a
    /// request served before it simply reports `ok: false`.
    last: Vec<u64>,
}

impl Generator {
    pub fn new(wl: &'static Workload, seed: u64) -> Generator {
        let mut root = Rng::new(seed ^ fnv1a(wl.name.as_bytes()));
        Generator {
            wl,
            rngs: (0..wl.conns()).map(|_| Rng::new(root.next_u64())).collect(),
            sent: vec![0; wl.conns()],
            last: (0..wl.keys).map(preload_value).collect(),
        }
    }

    fn pick_key(wl: &Workload, rng: &mut Rng) -> u32 {
        if wl.skewed {
            let hot = wl.keys / 5;
            if rng.below(100) < 80 {
                rng.below(hot)
            } else {
                hot + rng.below(wl.keys - hot)
            }
        } else {
            rng.below(wl.keys)
        }
    }

    /// Every written value is used once in a run: the connection, the
    /// request's index on it and the op's index in the request, above
    /// every preload value.
    fn unique_value(conn: usize, seq: u64, op: usize) -> u64 {
        ((conn as u64 + 1) << 40) | (seq << 2) | op as u64
    }

    /// The next request of connection `conn`.
    pub fn next(&mut self, conn: usize) -> ReqSpec {
        let wl = self.wl;
        let tier = wl.tier_of(conn);
        let rng = &mut self.rngs[conn];
        let seq = self.sent[conn];
        self.sent[conn] += 1;
        let mut roll = rng.below(100);
        let mut shape = Shape::Put;
        for (candidate, pct) in wl.tier(tier).mix {
            shape = *candidate;
            if roll < *pct {
                break;
            }
            roll -= pct;
        }
        let sync = wl.durable && tier == Tier::Vip;
        let mut spec = ReqSpec { tier, conn: conn as u16, sync, ..ReqSpec::EMPTY };
        let put = |last: &mut Vec<u64>, key: u32, op: usize| {
            let value = Generator::unique_value(conn, seq, op);
            last[key as usize] = value;
            OpSpec::Put { key, value }
        };
        match shape {
            Shape::Get => {
                spec.ops[0] = OpSpec::Get { key: Generator::pick_key(wl, rng) };
                spec.nops = 1;
            }
            Shape::Put => {
                let key = Generator::pick_key(wl, rng);
                spec.ops[0] = put(&mut self.last, key, 0);
                spec.nops = 1;
            }
            Shape::Cas => {
                let key = Generator::pick_key(wl, rng);
                let new = Generator::unique_value(conn, seq, 0);
                spec.ops[0] = OpSpec::Cas { key, expect: self.last[key as usize], new };
                self.last[key as usize] = new;
                spec.nops = 1;
            }
            Shape::Mixed4 => {
                for op in 0..MAX_OPS {
                    let key = Generator::pick_key(wl, rng);
                    spec.ops[op] = if op % 2 == 0 {
                        OpSpec::Get { key }
                    } else {
                        put(&mut self.last, key, op)
                    };
                }
                spec.nops = MAX_OPS as u8;
            }
            Shape::Get4 => {
                for op in 0..MAX_OPS {
                    spec.ops[op] = OpSpec::Get { key: Generator::pick_key(wl, rng) };
                }
                spec.nops = MAX_OPS as u8;
            }
            Shape::Scan => {
                let from = Generator::pick_key(wl, rng).min(wl.keys - SCAN_KEYS);
                spec.ops[0] = OpSpec::Scan { from, len: SCAN_KEYS };
                spec.nops = 1;
            }
        }
        spec
    }
}

/// The arrival schedule of the open-loop connections: a fixed function
/// of the seed, independent of completions.
pub struct Schedule {
    /// Per connection: the reactor-clock instant its next request is due,
    /// or `None` once the connection has no more to send.
    next_due: Vec<Option<u64>>,
    mean_gap_ns: Vec<f64>,
    rngs: Vec<Rng>,
    /// Requests each tier may still send (`None`: unbounded), VIPs
    /// first.
    quota: [Option<u64>; 2],
    tiers: Vec<Tier>,
}

impl Schedule {
    pub fn new(wl: &'static Workload, seed: u64, scale: f64) -> Schedule {
        let mut root = Rng::new(!seed ^ fnv1a(wl.name.as_bytes()));
        let mut sched = Schedule {
            next_due: vec![None; wl.conns()],
            mean_gap_ns: vec![0.0; wl.conns()],
            rngs: (0..wl.conns()).map(|_| Rng::new(root.next_u64())).collect(),
            quota: [None; 2],
            tiers: (0..wl.conns()).map(|conn| wl.tier_of(conn)).collect(),
        };
        for tier in [Tier::Vip, Tier::Guest] {
            if let Load::Open { requests, .. } = wl.tier(tier).load {
                sched.quota[tier as usize] = requests.map(|n| scaled(n, scale));
            }
        }
        for conn in 0..wl.conns() {
            let side = wl.tier(wl.tier_of(conn));
            if let Load::Open { rate, .. } = side.load {
                sched.mean_gap_ns[conn] = 1e9 * side.conns as f64 / rate;
                sched.next_due[conn] = Some(sched.rngs[conn].exp_ns(sched.mean_gap_ns[conn]));
            }
        }
        sched
    }

    /// The earliest pending arrival as `(due, conn)`.
    pub fn peek(&self) -> Option<(u64, usize)> {
        self.next_due
            .iter()
            .enumerate()
            .filter_map(|(conn, due)| due.map(|due| (due, conn)))
            .filter(|&(_, conn)| self.quota[self.tiers[conn] as usize] != Some(0))
            .min()
    }

    /// Consumes the arrival [`Schedule::peek`] returned.
    pub fn pop(&mut self, conn: usize) {
        if let Some(left) = &mut self.quota[self.tiers[conn] as usize] {
            *left -= 1;
        }
        let gap = self.rngs[conn].exp_ns(self.mean_gap_ns[conn]);
        self.next_due[conn] = self.next_due[conn].map(|due| due + gap);
    }

    /// Stops every open-loop VIP connection.
    pub fn stop_vips(&mut self) {
        self.quota[Tier::Vip as usize] = Some(0);
    }

    /// True once every bounded stream has sent its quota.
    pub fn bounded_done(&self) -> bool {
        self.quota.iter().all(|q| q.is_none_or(|left| left == 0))
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// A digest of the first `n` requests of the stream in a canonical order:
/// open-loop arrivals by due time, then closed-loop connections round
/// robin. Identifies the stream a seed produces.
pub fn stream_digest(wl: &'static Workload, seed: u64, n: u64) -> u64 {
    let mut gen = Generator::new(wl, seed);
    let mut sched = Schedule::new(wl, seed, 1.0);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        digest = (digest ^ fnv1a(bytes)).wrapping_mul(0x100_0000_01b3);
    };
    let closed: Vec<usize> = (0..wl.conns())
        .filter(|&c| matches!(wl.tier(wl.tier_of(c)).load, Load::Closed { .. }))
        .collect();
    for id in 0..n {
        if id % 2 == 0 || closed.is_empty() {
            if let Some((due, conn)) = sched.peek() {
                sched.pop(conn);
                mix(&due.to_le_bytes());
                mix(&gen.next(conn).encode(id));
                continue;
            }
        }
        if !closed.is_empty() {
            let conn = closed[(id as usize / 2) % closed.len()];
            mix(&gen.next(conn).encode(id));
        }
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_stream_and_another_seed_does_not() {
        for wl in &WORKLOADS {
            let a = stream_digest(wl, 7, 5_000);
            assert_eq!(a, stream_digest(wl, 7, 5_000), "{}: same seed, same stream", wl.name);
            assert_ne!(a, stream_digest(wl, 8, 5_000), "{}: another seed, another stream", wl.name);
        }
    }

    #[test]
    fn mixes_sum_to_one_hundred_percent() {
        for wl in &WORKLOADS {
            for side in [&wl.vip, &wl.guest] {
                assert_eq!(side.mix.iter().map(|(_, pct)| pct).sum::<u32>(), 100, "{}", wl.name);
            }
        }
    }

    #[test]
    fn written_values_are_unique_and_above_every_preload_value() {
        let wl = workload("mixed-steady").unwrap();
        let mut gen = Generator::new(wl, 3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..20_000 {
            let spec = gen.next(i % wl.conns());
            for op in spec.ops() {
                let written = match *op {
                    OpSpec::Put { value, .. } => Some(value),
                    OpSpec::Cas { new, .. } => Some(new),
                    _ => None,
                };
                if let Some(v) = written {
                    assert!(v > preload_value(wl.keys), "written value collides with a preload");
                    assert!(seen.insert(v), "value {v} written twice");
                }
            }
        }
    }

    #[test]
    fn open_loop_schedule_holds_its_rate_and_quota() {
        let wl = workload("mixed-steady").unwrap();
        let mut sched = Schedule::new(wl, 11, 0.1);
        let (mut vip, mut guest, mut last_due) = (0u64, 0u64, 0u64);
        while let Some((due, conn)) = sched.peek() {
            assert!(due >= last_due, "arrivals come in due order");
            last_due = due;
            sched.pop(conn);
            match wl.tier_of(conn) {
                Tier::Vip => vip += 1,
                Tier::Guest => guest += 1,
            }
        }
        assert_eq!((vip, guest), (6_000, 60_000));
        assert!(sched.bounded_done());
        let rate = (vip + guest) as f64 / (last_due as f64 / 1e9);
        assert!((rate - 33_000.0).abs() < 1_000.0, "offered rate was {rate}");
    }

    #[test]
    fn skew_puts_four_fifths_of_picks_in_the_hot_fifth() {
        let wl = workload("read-scan").unwrap();
        let mut rng = Rng::new(5);
        let hot = (0..50_000).filter(|_| Generator::pick_key(wl, &mut rng) < wl.keys / 5).count();
        assert!((39_000..41_000).contains(&hot), "hot picks: {hot}");
    }
}
