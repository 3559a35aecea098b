//! The six named workloads, each a closed, fixed-size run to quiescence
//! driven only through the simulator's public API.
//!
//! A rep builds its machines, loads programs, runs them, snapshots their
//! stats and checks the outputs; the next rep starts when the previous
//! one has finished. Every call into the simulator sits inside a span
//! (see [`crate::spans`]), so the end-to-end and per-layer host times of
//! a rep are read off its spans afterwards. Inputs come from the seed
//! alone, so every rep of one seed simulates exactly the same thing and
//! must produce the same model digest.

use std::time::Instant;

use voyager::api::{request_transfer, BasicMsg, ReadRegion, RecvBasic, SendBasic};
use voyager::app::{AppEventKind, Delay, Seq};
use voyager::arctic::{QosParams, VcArbitration};
use voyager::blockxfer::{dst_addr_for, run_block_transfer, A1Recv, A1Send, XferSpec, SRC_ADDR};
use voyager::firmware::proto::{Approach, XferReq};
use voyager::membus::MemoryArray;
use voyager::metrics::XferPoint;
use voyager::sim::ckpt::fnv1a64;
use voyager::sim::DetRng;
use voyager::{
    DeltaCheckpoint, Machine, MachineBuilder, MachineStats, Parallelism, RunOutcome, SchedPolicy,
    ShardPolicy, SystemParams, TenancyParams,
};

use crate::layers::{fold_digest, model_digest, Counts};
use crate::report::{peak_rss_mb, reset_peak_rss};
use crate::spans::{SpanId, Spans};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Staggered pairs on 2048 nodes: space-idle, one pair active at a time.
    Pairs,
    /// Synchronized ring on 256 nodes over two workers: time-idle bursts.
    Ring,
    /// Tenant mix, 16 nodes × 64 tenants: rx-queue-cache misses.
    Tenants,
    /// Incast with virtual channels on 64 nodes: link queues and credits.
    Incast,
    /// The paper's block-transfer sweep, A1–A5 × Figure 4 sizes.
    Blockxfer,
    /// Full and delta checkpoints of staggered pairs on 512 nodes.
    Ckpt,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 6] = [
        Workload::Pairs,
        Workload::Ring,
        Workload::Tenants,
        Workload::Incast,
        Workload::Blockxfer,
        Workload::Ckpt,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pairs => "pairs_2048",
            Workload::Ring => "ring_256_w2",
            Workload::Tenants => "tenants_16x64",
            Workload::Incast => "incast_qos_64",
            Workload::Blockxfer => "blockxfer_fig34",
            Workload::Ckpt => "ckpt_512",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings shared by every rep of one run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Input seed: permutations, payload bytes, incast victim, confined
    /// tenant and [`SystemParams::seed`] (blockxfer's data pattern).
    pub seed: u64,
    /// Tiny sizes that finish in seconds, for tests.
    pub smoke: bool,
    /// Workers of the ring workload. Always explicit, never
    /// [`Parallelism::Auto`], so `VOYAGER_WORKERS` cannot change it.
    pub ring_par: Parallelism,
}

impl Config {
    /// The benchmark's settings for `seed`.
    pub fn new(seed: u64, smoke: bool) -> Config {
        Config {
            seed,
            smoke,
            ring_par: Parallelism::Fixed(2),
        }
    }

    fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    fn params(&self) -> SystemParams {
        SystemParams {
            seed: self.seed,
            ..SystemParams::default()
        }
    }

    /// The input generator of one workload; `salt` keeps workloads'
    /// streams apart.
    fn rng(&self, salt: u64) -> DetRng {
        DetRng::new(self.seed ^ salt)
    }
}

/// Stagger between pair activations, and messages per pair (S2/S6).
const STAGGER_NS: u64 = 20_000;
const PAIR_MSGS: u32 = 4;
/// Compute gap between ring rounds.
const RING_GAP_NS: u64 = 50_000;
/// Delta cuts per checkpoint rep.
const DELTA_CUTS: usize = 8;
/// Simulated-time cap of every run. Several times the longest
/// workload's quiescence time, so only a hang reaches it.
const RUN_CAP_NS: u64 = 200_000_000;
/// Runs advance in slices of simulated time, each its own span, so the
/// report can take every slice's fastest rep. About 32 per run.
const PAIRS_SLICE_NS: u64 = 640_000;
const RING_SLICE_NS: u64 = 200_000;
const TENANTS_SLICE_NS: u64 = 75_000;
const INCAST_SLICE_NS: u64 = 1_600_000;
const CKPT_SLICE_NS: u64 = 150_000;

/// What one rep produced besides its spans.
#[derive(Debug, Clone, Default)]
pub struct RepOutcome {
    /// Operations the rep checked: messages, transfers and restores.
    pub attempted: u64,
    /// Operations that were lost, corrupted, duplicated, hung or whose
    /// check failed.
    pub failed: u64,
    /// [`model_digest`] of every machine in the rep, folded.
    pub digest: u64,
    /// Work counted by the rep's machines.
    pub counts: Counts,
    /// Size of the full snapshot, bytes (checkpoint workload).
    pub ckpt_full_bytes: u64,
    /// Size of each delta cut after the base, bytes.
    pub ckpt_delta_bytes: Vec<u64>,
    /// Sender plus receiver aP busy time over all transfers, simulated ns.
    pub xfer_ap_busy_ns: u64,
    /// Bytes of transfers whose destination matched the source.
    pub xfer_bytes_verified: u64,
    /// Peak resident set during the rep, MiB.
    pub peak_rss_mb: f64,
    /// What went wrong, for the report.
    pub problems: Vec<String>,
}

/// One message a check expects: sent by `src`, arriving at `dst`
/// exactly once with `payload`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Expect {
    /// Receiving node.
    pub dst: u16,
    /// Sending node.
    pub src: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Payload of message `seq` from `src`: sender and sequence number first,
/// so every message of a run is distinct, then seeded filler.
fn payload(rng: &mut DetRng, src: u16, seq: u32, len: usize) -> Vec<u8> {
    let mut p = Vec::with_capacity(len);
    p.extend_from_slice(&src.to_le_bytes());
    p.extend_from_slice(&seq.to_le_bytes());
    while p.len() < len {
        p.push(rng.next_u32() as u8);
    }
    p.truncate(len);
    p
}

/// A Basic message of `len` seeded bytes from `src` to virtual
/// destination `dest`, which reaches node `dst`; recorded in `expect`.
fn expected_msg(
    expect: &mut Vec<Expect>,
    rng: &mut DetRng,
    (src, dest, dst): (u16, u16, u16),
    seq: u32,
    len: usize,
) -> BasicMsg {
    let p = payload(rng, src, seq, len);
    expect.push(Expect {
        dst,
        src,
        payload: p.clone(),
    });
    BasicMsg::new(dest, p)
}

/// Count `(only in a, only in b)` of two sorted multisets.
fn multiset_diff<T: Ord>(a: &[T], b: &[T]) -> (u64, u64) {
    let (mut i, mut j, mut only_a, mut only_b) = (0, 0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => (only_a, i) = (only_a + 1, i + 1),
            std::cmp::Ordering::Greater => (only_b, j) = (only_b + 1, j + 1),
            std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
        }
    }
    (only_a + (a.len() - i) as u64, only_b + (b.len() - j) as u64)
}

/// Expected messages that did not arrive exactly once with the right
/// bytes, plus arrivals nobody sent.
pub fn delivery_failures(m: &Machine, expect: &[Expect]) -> u64 {
    let mut want: Vec<(u16, u16, &[u8])> = expect
        .iter()
        .map(|e| (e.dst, e.src, &e.payload[..]))
        .collect();
    want.sort_unstable();
    let mut got = Vec::new();
    for dst in 0..m.nodes.len() as u16 {
        for (src, data) in m.received_messages(dst) {
            got.push((dst, src, data.to_vec()));
        }
    }
    got.sort_unstable();
    let got: Vec<(u16, u16, &[u8])> = got.iter().map(|(d, s, p)| (*d, *s, &p[..])).collect();
    let (missing, extra) = multiset_diff(&want, &got);
    missing + extra
}

/// Messages per class for which `sent != delivered + dropped`, summed
/// machine-wide.
pub fn conservation_deficit(s: &MachineStats) -> u64 {
    let classes = s.nodes.first().map_or(0, |n| n.niu.classes.len());
    (0..classes)
        .map(|c| {
            let (mut sent, mut arrived) = (0u64, 0u64);
            for n in &s.nodes {
                sent += n.niu.classes[c].sent;
                arrived += n.niu.classes[c].delivered + n.niu.classes[c].dropped;
            }
            sent.abs_diff(arrived)
        })
        .sum()
}

/// Stagger `n` nodes into pairs by a seeded rank→node permutation: pair
/// `k` exchanges [`PAIR_MSGS`] Basic messages at `k ×` [`STAGGER_NS`]
/// while every other node idles in a delay or has finished.
///
/// The permutation only shuffles within aligned blocks of 16 nodes, so
/// pairs still activate in node order at machine scale, as in S2/S6:
/// finished nodes pile up at low ids, which is what makes the sequential
/// loop's cost grow with the node count. A fully random permutation
/// hides that cost (10x less run time at 2048 nodes).
fn load_pairs(m: &mut Machine, rng: &mut DetRng) -> Vec<Expect> {
    let n = m.nodes.len() as u16;
    let mut perm: Vec<u16> = (0..n).collect();
    for block in perm.chunks_mut(16) {
        rng.shuffle(block);
    }
    let mut expect = Vec::new();
    for (k, pair) in perm.chunks_exact(2).enumerate() {
        let (a, b) = (pair[0], pair[1]);
        let start = k as u64 * STAGGER_NS;
        let (lib_a, lib_b) = (m.lib(a), m.lib(b));
        let route = (a, lib_a.user_dest(b), b);
        let msgs = (0..PAIR_MSGS)
            .map(|seq| expected_msg(&mut expect, rng, route, seq, 16))
            .collect();
        m.load_program(
            a,
            Seq::new(vec![
                Box::new(Delay(start)),
                Box::new(SendBasic::new(&lib_a, msgs)),
            ]),
        );
        m.load_program(
            b,
            Seq::new(vec![
                Box::new(Delay(start)),
                Box::new(RecvBasic::expecting(&lib_b, PAIR_MSGS as usize)),
            ]),
        );
    }
    expect
}

/// A ring in seeded order: every node computes for [`RING_GAP_NS`],
/// sends one Basic message to its successor and receives one from its
/// predecessor, `rounds` times.
fn load_ring(m: &mut Machine, rng: &mut DetRng, rounds: u16) -> Vec<Expect> {
    let n = m.nodes.len() as u16;
    let mut perm: Vec<u16> = (0..n).collect();
    rng.shuffle(&mut perm);
    let mut expect = Vec::new();
    for i in 0..perm.len() {
        let (node, next) = (perm[i], perm[(i + 1) % perm.len()]);
        let lib = m.lib(node);
        let mut parts: Vec<Box<dyn voyager::Program>> = Vec::new();
        let route = (node, lib.user_dest(next), next);
        for r in 0..rounds {
            let msg = expected_msg(&mut expect, rng, route, r.into(), 16);
            parts.push(Box::new(Delay(RING_GAP_NS)));
            parts.push(Box::new(SendBasic::resuming(&lib, vec![msg], r)));
            parts.push(Box::new(RecvBasic::resuming(&lib, 1, r)));
        }
        m.load_program(node, Seq::new(parts));
    }
    expect
}

/// Incast: every node but a seeded victim sends `per_sender` Low-class
/// 88-byte messages to it, and one seeded sender interleaves `probes`
/// High-class probes — the shape of `workloads::load_hot_spot` with the
/// victim, probe sender and payload bytes drawn from the seed.
fn load_incast(m: &mut Machine, rng: &mut DetRng, per_sender: u32, probes: u32) -> Vec<Expect> {
    let n = m.nodes.len() as u16;
    let victim = rng.below(u64::from(n)) as u16;
    let senders: Vec<u16> = (0..n).filter(|&i| i != victim).collect();
    let prober = *rng.choose(&senders);
    let gap = (per_sender / probes.max(1)).max(1);
    let mut expect = Vec::new();
    for &s in &senders {
        let lib = m.lib(s);
        let mut items = Vec::new();
        let mut sent_hi = 0;
        let (low, high) = (
            (s, lib.user_dest(victim), victim),
            (s, lib.user_dest_hi(victim), victim),
        );
        for j in 0..per_sender {
            items.push(expected_msg(&mut expect, rng, low, j, 88));
            if s == prober && sent_hi < probes && j % gap == gap - 1 {
                let seq = 0x8000_0000 | sent_hi;
                items.push(expected_msg(&mut expect, rng, high, seq, 8));
                sent_hi += 1;
            }
        }
        m.load_program(s, SendBasic::new(&lib, items));
    }
    let total = expect.len();
    let lib = m.lib(victim);
    m.load_program(victim, RecvBasic::expecting(&lib, total));
    expect
}

/// Load one block transfer of `len` bytes from node 0 to node 1 exactly
/// as `blockxfer::run_block_transfer` does.
fn load_transfer(m: &mut Machine, approach: Approach, len: u32, dst: u64, pattern_seed: u64) {
    m.nodes[0]
        .mem
        .fill_pattern(SRC_ADDR, len as usize, pattern_seed);
    let (lib0, lib1) = (m.lib(0), m.lib(1));
    match approach {
        Approach::ApDirect => {
            m.load_program(0, A1Send::new(&lib0, 1, SRC_ADDR, dst, len));
            m.load_program(
                1,
                Seq::new(vec![
                    Box::new(A1Recv::new(&lib1, len)),
                    Box::new(ReadRegion::new(dst, len)),
                ]),
            );
        }
        _ => {
            let req = XferReq {
                approach,
                xfer_id: 1,
                src_addr: SRC_ADDR,
                dst_addr: dst,
                len,
                dst_node: 1,
                notify_lq: 1,
            };
            m.load_program(0, request_transfer(&lib0, &req));
            m.load_program(
                1,
                Seq::new(vec![
                    Box::new(RecvBasic::expecting(&lib1, 1)),
                    Box::new(ReadRegion::new(dst, len)),
                ]),
            );
        }
    }
}

/// The approaches and sizes of the block-transfer sweep.
fn xfer_specs(cfg: &Config) -> Vec<XferSpec> {
    let sizes: &[u32] = cfg.pick(
        &[
            1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576,
        ],
        &[1024, 4096],
    );
    [
        Approach::ApDirect,
        Approach::SpManaged,
        Approach::BlockHw,
        Approach::OptimisticSp,
        Approach::OptimisticHw,
    ]
    .into_iter()
    .flat_map(|approach| {
        sizes.iter().map(move |&len| XferSpec {
            approach,
            len,
            verify: true,
        })
    })
    .collect()
}

/// One rep's span context and tallies.
struct Rep<'a> {
    spans: &'a mut Spans,
    out: RepOutcome,
}

impl Rep<'_> {
    fn build(&mut self, b: MachineBuilder) -> Machine {
        let id = self.spans.enter("core.machine.build");
        let m = b.build();
        self.spans.exit(id);
        self.spans.arg(id, "nodes", m.nodes.len() as u64);
        m
    }

    fn load<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.spans.time("core.app.load", f)
    }

    /// Run to quiescence, or to [`RUN_CAP_NS`] if the machine hangs,
    /// one span per `slice_ns` of simulated time. A run resumed at a
    /// slice boundary probes the same cycles as an uninterrupted one, so
    /// slicing changes no result.
    fn run(&mut self, m: &mut Machine, slice_ns: u64) -> RunOutcome {
        let start = m.now.ns();
        loop {
            let t0 = m.now.ns();
            let id = self.spans.enter("core.runloop.run");
            let out = m.run_capped(slice_ns.min(RUN_CAP_NS));
            self.spans.exit(id);
            self.spans.arg(id, "sim_ns", m.now.ns() - t0);
            match out {
                RunOutcome::Hung(t) if t.ns() - start < RUN_CAP_NS => {}
                _ => return out,
            }
        }
    }

    fn run_for(&mut self, m: &mut Machine, ns: u64) {
        let t0 = m.now.ns();
        let id = self.spans.enter("core.runloop.run");
        m.run_for(ns);
        self.spans.exit(id);
        self.spans.arg(id, "sim_ns", m.now.ns() - t0);
    }

    /// `Machine::stats`, with the headline counts attached to its span.
    fn stats(&mut self, m: &Machine) -> MachineStats {
        let id = self.spans.enter("core.stats.snapshot");
        let s = m.stats();
        self.spans.exit(id);
        let c = Counts::of(&s);
        for (k, v) in [
            ("node_ticks", c.node_ticks),
            ("wake_republishes", c.wake_republishes),
            ("packets", c.packets),
            ("msgs_delivered", c.msgs_delivered),
            ("fw_handled", c.fw_handled),
            ("bus_tenures", c.bus_tenures),
        ] {
            self.spans.arg(id, k, v);
        }
        s
    }

    /// Free a machine, with its stats and inputs, inside a span: at 2048
    /// nodes that is real time.
    fn drop_machine<T>(&mut self, m: Machine, rest: T) {
        self.spans
            .time("core.machine.drop", move || drop((m, rest)));
    }

    /// Count `attempted` operations, `failed` of them lost; a run that
    /// hung fails at least one.
    fn tally(&mut self, what: &str, attempted: u64, mut failed: u64, outcome: RunOutcome) {
        if let RunOutcome::Hung(t) = outcome {
            self.out.problems.push(format!("{what}: hung at {t}"));
            failed = failed.max(1);
        }
        if failed > 0 {
            self.out
                .problems
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
        self.out.attempted += attempted;
        self.out.failed += failed.min(attempted);
    }

    /// Check a message workload's one machine and record its digest and
    /// counts.
    fn check_messages(
        &mut self,
        what: &str,
        m: &Machine,
        s: &MachineStats,
        outcome: RunOutcome,
        expect: &[Expect],
    ) {
        let id = self.spans.enter("check");
        let failed = delivery_failures(m, expect) + conservation_deficit(s);
        self.tally(what, expect.len() as u64, failed, outcome);
        self.out.digest = model_digest(s);
        self.out.counts = Counts::of(s);
        self.spans.exit(id);
    }
}

/// Runs one workload's reps, keeping what must persist between them.
pub struct Bench {
    workload: Workload,
    cfg: Config,
    /// `run_block_transfer`'s results, computed in the warm-up; every
    /// measured transfer must reproduce them.
    xfer_reference: Vec<XferPoint>,
}

impl Bench {
    /// A fresh runner.
    pub fn new(workload: Workload, cfg: Config) -> Bench {
        Bench {
            workload,
            cfg,
            xfer_reference: Vec::new(),
        }
    }

    /// One discarded warm-up rep, then measured reps until `seconds` of
    /// wall time have passed and at least `min_reps` ran.
    pub fn run(&mut self, spans: &mut Spans, seconds: f64, min_reps: usize) -> Vec<RepOutcome> {
        let w = spans.enter("workload");
        self.rep(spans, 0);
        let t0 = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < min_reps || t0.elapsed().as_secs_f64() < seconds {
            let index = reps.len() as u32 + 1;
            reps.push(self.rep(spans, index));
        }
        spans.exit(w);
        reps
    }

    /// Rep `index`; rep 0 is the warm-up, which runs the two largest
    /// workloads at 64 nodes.
    pub fn rep(&mut self, spans: &mut Spans, index: u32) -> RepOutcome {
        reset_peak_rss();
        let id: SpanId = spans.enter_rep(index);
        let mut r = Rep {
            spans,
            out: RepOutcome::default(),
        };
        let cfg = self.cfg;
        let warm = index == 0;
        let nodes = |full: u16, smoke: u16| {
            let n = cfg.pick(full, smoke);
            if warm {
                n.min(64)
            } else {
                n
            }
        };
        match self.workload {
            Workload::Pairs => pairs(&mut r, &cfg, nodes(2048, 16)),
            Workload::Ring => ring(&mut r, &cfg),
            Workload::Tenants => tenants(&mut r, &cfg),
            Workload::Incast => incast(&mut r, &cfg),
            Workload::Blockxfer if warm => self.xfer_reference = xfer_reference(&mut r, &cfg),
            Workload::Blockxfer => blockxfer(&mut r, &cfg, &self.xfer_reference),
            Workload::Ckpt => ckpt(&mut r, &cfg, nodes(512, 32)),
        }
        let mut out = r.out;
        spans.exit(id);
        out.peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
        out
    }
}

/// A message workload: one machine, loaded by `load`, run to quiescence
/// and checked message by message.
fn messages(
    r: &mut Rep<'_>,
    what: &str,
    b: MachineBuilder,
    slice_ns: u64,
    load: impl FnOnce(&mut Machine) -> Vec<Expect>,
) {
    let mut m = r.build(b);
    let expect = r.load(|| load(&mut m));
    let outcome = r.run(&mut m, slice_ns);
    let s = r.stats(&m);
    r.check_messages(what, &m, &s, outcome, &expect);
    r.drop_machine(m, (s, expect));
}

fn pairs(r: &mut Rep<'_>, cfg: &Config, n: u16) {
    let b = Machine::builder(n.into())
        .params(cfg.params())
        .parallelism(Parallelism::Sequential);
    messages(r, "pairs", b, PAIRS_SLICE_NS, |m| {
        load_pairs(m, &mut cfg.rng(0x5041_4952))
    });
}

fn ring(r: &mut Rep<'_>, cfg: &Config) {
    let (n, rounds) = cfg.pick((256, 120), (16, 6));
    let b = Machine::builder(n)
        .params(cfg.params())
        .parallelism(cfg.ring_par)
        .shard_policy(ShardPolicy::BySubtree);
    messages(r, "ring", b, RING_SLICE_NS, |m| {
        load_ring(m, &mut cfg.rng(0x5249_4E47), rounds)
    });
}

fn incast(r: &mut Rep<'_>, cfg: &Config) {
    let (n, per_sender) = cfg.pick((64, 600), (8, 20));
    let qos = QosParams {
        vcs: 2,
        credits_per_vc: 2,
        arbitration: VcArbitration::Priority,
    };
    let b = Machine::builder(n)
        .params(cfg.params())
        .network_qos(qos)
        .parallelism(Parallelism::Sequential);
    messages(r, "incast", b, INCAST_SLICE_NS, |m| {
        load_incast(m, &mut cfg.rng(0x4943_4153), per_sender, 8)
    });
}

fn tenants(r: &mut Rep<'_>, cfg: &Config) {
    let (n, tenants, msgs) = cfg.pick((16u16, 64u16, 48), (4, 16, 6));
    // Tenant 0 is the Latency class; the misbehaving one is any other.
    let confined = 1 + cfg.rng(0x5445_4E54).below(u64::from(tenants - 1)) as u16;
    let tp = TenancyParams {
        tenants_per_node: tenants,
        policy: SchedPolicy::WeightedTimeSlice { quantum_ns: 20_000 },
        confined: Some(confined),
    };
    let mut m = r.build(
        Machine::builder(n.into())
            .params(cfg.params())
            .tenants(tp)
            .parallelism(Parallelism::Sequential),
    );
    let scheduled = r.load(|| voyager::workloads::load_tenant_mix(&mut m, msgs));
    let outcome = r.run(&mut m, TENANTS_SLICE_NS);
    let s = r.stats(&m);
    let id = r.spans.enter("check");
    // Every tenant job finishes, every message a tenant sent arrives,
    // and each node contains exactly one protection violation: the
    // confined tenant's out-of-slice message.
    let (mut sent, mut unfinished, mut violations) = (0u64, 0u64, 0u64);
    for node in &s.nodes {
        violations += node.niu.violations;
        for t in node.tenants.iter().flat_map(|t| &t.tenants) {
            sent += t.sent_msgs;
            unfinished += 1 - t.done.min(1);
        }
    }
    let failed = scheduled.abs_diff(sent)
        + unfinished
        + violations.abs_diff(u64::from(n))
        + conservation_deficit(&s);
    r.tally("tenants", scheduled, failed, outcome);
    r.out.digest = model_digest(&s);
    r.out.counts = Counts::of(&s);
    r.spans.exit(id);
    r.drop_machine(m, s);
}

/// `run_block_transfer` over the whole sweep: the warm-up, and the
/// results every measured transfer is checked against.
fn xfer_reference(r: &mut Rep<'_>, cfg: &Config) -> Vec<XferPoint> {
    let p = cfg.params();
    xfer_specs(cfg)
        .into_iter()
        .map(|spec| {
            r.spans
                .time("core.blockxfer.reference", || run_block_transfer(p, spec))
        })
        .collect()
}

/// The sweep, one transfer at a time through the same public calls
/// `run_block_transfer` makes, so build, load and run are timed apart.
fn blockxfer(r: &mut Rep<'_>, cfg: &Config, reference: &[XferPoint]) {
    let p = cfg.params();
    for (i, spec) in xfer_specs(cfg).into_iter().enumerate() {
        let (approach, len) = (spec.approach, spec.len);
        let t = r.spans.enter("core.blockxfer.transfer");
        r.spans.arg(t, "approach", approach as u64);
        r.spans.arg(t, "bytes", u64::from(len));
        let mut m = r.build(Machine::builder(2).params(p));
        let pattern_seed = p.seed ^ u64::from(len);
        let dst = dst_addr_for(&p, approach);
        r.load(|| load_transfer(&mut m, approach, len, dst, pattern_seed));
        let outcome = r.run(&mut m, RUN_CAP_NS);
        let s = r.stats(&m);

        let c = r.spans.enter("check");
        let end = outcome.time();
        let on_node = |node: u16, f: &dyn Fn(&AppEventKind) -> bool| {
            m.event_time(node, f).unwrap_or(end).ns()
        };
        let notify = on_node(1, &|k| matches!(k, AppEventKind::NotifyReceived { .. }));
        let used = on_node(
            1,
            &|k| matches!(k, AppEventKind::RegionDone { addr, .. } if *addr == dst),
        );
        let ap_busy = on_node(0, &|k| matches!(k, AppEventKind::ProgramDone))
            + on_node(1, &|k| matches!(k, AppEventKind::ProgramDone));
        let got = m.mem_read(1, dst, len as usize);
        let mut want = MemoryArray::new();
        want.fill_pattern(0, len as usize, pattern_seed);
        let verified = got == want.read_vec(0, len as usize);
        let matches_reference = reference.get(i).is_some_and(|x| {
            (
                x.latency_notify_ns,
                x.latency_use_ns,
                x.sp_busy_ns,
                x.verified,
            ) == (notify, used, m.total_sp_busy_ns(), verified)
        });
        r.tally(
            &format!("blockxfer A{} {len} B", approach as u8),
            1,
            u64::from(!(verified && matches_reference)),
            outcome,
        );
        r.out.xfer_ap_busy_ns += ap_busy;
        if verified {
            r.out.xfer_bytes_verified += u64::from(len);
        }
        r.out.digest = fold_digest(fold_digest(r.out.digest, model_digest(&s)), fnv1a64(&got));
        r.out.counts = r.out.counts.plus(Counts::of(&s));
        r.spans.exit(c);
        r.drop_machine(m, (s, got, want));
        r.spans.exit(t);
    }
}

/// Run a machine restored from a cut whose counts were `at_cut` to the
/// end; it must finish with the donor's stats (`want`, as JSON), and
/// its snapshot must have been `well_formed`.
fn finish_restored(
    r: &mut Rep<'_>,
    what: &str,
    restored: Result<Machine, voyager::ApiError>,
    at_cut: Counts,
    want: &str,
    well_formed: bool,
) {
    let mut m = match restored {
        Ok(m) => m,
        Err(e) => {
            r.out.problems.push(format!("{what}: refused: {e}"));
            r.out.attempted += 1;
            r.out.failed += 1;
            return;
        }
    };
    let outcome = r.run(&mut m, CKPT_SLICE_NS);
    let s = r.stats(&m);
    let id = r.spans.enter("check");
    let ok = well_formed && s.to_json() == want;
    r.tally(what, 1, u64::from(!ok), outcome);
    r.out.counts = r.out.counts.plus(Counts::of(&s).since(at_cut));
    r.spans.exit(id);
    r.drop_machine(m, s);
}

/// Staggered pairs run to a quarter of their slots; a full checkpoint
/// there, and a delta chain opened there and cut [`DELTA_CUTS`] times,
/// one slot apart. The donor then finishes; the full snapshot and the
/// chain are each restored and run to the end, and must finish with the
/// donor's stats.
fn ckpt(r: &mut Rep<'_>, cfg: &Config, n: u16) {
    let restorer = || Machine::builder(1).parallelism(Parallelism::Sequential);
    let mut m = r.build(
        Machine::builder(n.into())
            .params(cfg.params())
            .parallelism(Parallelism::Sequential),
    );
    let expect = r.load(|| load_pairs(&mut m, &mut cfg.rng(0x434B_5054)));
    r.run_for(&mut m, u64::from(n / 8) * STAGGER_NS);

    let at_save = Counts::of(&r.stats(&m));
    let full = r.spans.time("sim.ckpt.save", || m.checkpoint());
    r.out.ckpt_full_bytes = full.len() as u64;
    let base = r.spans.time("sim.ckpt.delta_cut", || m.checkpoint_delta());
    // The first cut opens the chain with a base; every later cut must
    // be a delta on it.
    let mut chain_ok = base.is_base();
    let mut deltas = Vec::with_capacity(DELTA_CUTS);
    for _ in 0..DELTA_CUTS {
        r.run_for(&mut m, STAGGER_NS);
        match r.spans.time("sim.ckpt.delta_cut", || m.checkpoint_delta()) {
            DeltaCheckpoint::Delta(d) => {
                r.out.ckpt_delta_bytes.push(d.len() as u64);
                deltas.push(d);
            }
            DeltaCheckpoint::Base(_) => chain_ok = false,
        }
    }
    let at_cut = Counts::of(&r.stats(&m));

    let outcome = r.run(&mut m, CKPT_SLICE_NS);
    let s = r.stats(&m);
    r.check_messages("ckpt donor", &m, &s, outcome, &expect);
    let want = r.spans.time("check", || s.to_json());
    r.drop_machine(m, (s, expect));

    let restored = r
        .spans
        .time("sim.ckpt.restore", move || restorer().restore(&full));
    finish_restored(r, "ckpt restore", restored, at_save, &want, true);
    let chained = r.spans.time("sim.ckpt.restore_chain", move || {
        restorer().restore_chain(base.bytes(), &deltas)
    });
    finish_restored(r, "ckpt chain restore", chained, at_cut, &want, chain_ok);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_receiver_expecting_one_more_message_is_one_failure_not_a_panic() {
        let mut spans = Spans::new();
        let rep = spans.enter_rep(1);
        let mut r = Rep {
            spans: &mut spans,
            out: RepOutcome::default(),
        };
        let b = Machine::builder(2).parallelism(Parallelism::Sequential);
        messages(&mut r, "short sender", b, RUN_CAP_NS / 4, |m| {
            let mut rng = DetRng::new(7);
            let expect: Vec<Expect> = (0..4)
                .map(|seq| Expect {
                    dst: 1,
                    src: 0,
                    payload: payload(&mut rng, 0, seq, 16),
                })
                .collect();
            let lib = m.lib(0);
            let sent = expect[..3]
                .iter()
                .map(|e| BasicMsg::new(lib.user_dest(1), e.payload.clone()))
                .collect();
            m.load_program(0, SendBasic::new(&lib, sent));
            m.load_program(1, RecvBasic::expecting(&m.lib(1), expect.len()));
            expect
        });
        let out = r.out;
        spans.exit(rep);
        assert_eq!((out.failed, out.attempted), (1, 4));
        assert!(out.problems.iter().any(|p| p.contains("hung")));

        // The benchmark carries on: the next rep is clean.
        let mut bench = Bench::new(Workload::Pairs, Config::new(3, true));
        let next = bench.rep(&mut spans, 2);
        assert_eq!(next.failed, 0);
        assert_eq!(next.attempted, 8 * u64::from(PAIR_MSGS));
    }

    #[test]
    fn delivery_check_counts_missing_duplicate_and_corrupt_messages() {
        let e = |src: u16, b: u8| (1u16, src, vec![b; 4]);
        let want = [e(0, 1), e(0, 2), e(2, 3)];
        let got = [e(0, 1), e(0, 1), e(2, 9)];
        let (mut w, mut g) = (want.to_vec(), got.to_vec());
        w.sort();
        g.sort();
        // Missing: (0,2) and (2,3). Extra: the duplicate and the corrupt one.
        assert_eq!(multiset_diff(&w, &g), (2, 2));
    }

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        let inputs = |seed: u64| {
            let cfg = Config::new(seed, true);
            let mut m = Machine::builder(8).build();
            load_incast(&mut m, &mut cfg.rng(1), 4, 2)
        };
        assert_eq!(inputs(5), inputs(5));
        assert_ne!(inputs(5), inputs(6));
    }
}
