//! The machine's run loops: one event loop, and the cycle-stepped loop
//! kept as its reference oracle.
//!
//! The oracle ([`crate::MachineBuilder::cycle_stepped`]) ticks every node
//! on every 66 MHz bus cycle. That is simple and obviously correct, but
//! most cycles in realistic workloads are *idle*: every engine's gate is
//! blocked (a busy-timer has not expired, a queue is empty, a window is
//! full), so the tick mutates nothing. The event loop (the default)
//! exploits exactly that property:
//!
//! **Superset execution.** Every per-cycle engine in the machine (CPU
//! step, bus pipeline, NIU engines, sP firmware) is a pure check when its
//! gate is blocked. Ticking a component on a cycle where it has nothing
//! to do is a no-op, so executing a *superset* of the state-changing
//! cycles is always safe; only *skipping* a state-changing cycle is not.
//! Each component therefore exposes a conservative `next_event_cycle`
//! (see [`crate::node::Node::next_event_cycle`]): the earliest future
//! cycle at which it *might* change state. The event loop advances
//! directly to the minimum over all nodes and the network, executes that
//! one cycle with the exact same per-cycle sequence as the oracle, and
//! recomputes. The same holds per engine: a due node runs its NIU and
//! its firmware only when their own wakes are due (`Node::tick_due`),
//! while the oracle's [`Machine::step`] runs every engine of every
//! node. The two loops are bit-identical by construction, which the
//! equivalence tests in `tests/` assert end to end.
//!
//! **Shards.** The event loop always runs over *shards*. Each shard owns
//! its member nodes, its own [`sv_sim::WakeIndex`], and its own arrival
//! mailbox for the duration of a run. [`Parallelism::Sequential`] and
//! `Fixed(1)` run exactly one shard on the calling thread. With more
//! workers the nodes are partitioned — by default into aligned Arctic
//! fat-tree subtrees ([`ShardPolicy::BySubtree`]), so that the nodes that
//! exchange the cheapest, most frequent traffic (2-hop, through their
//! shared leaf switch) land in the same shard and cross-shard traffic has
//! to climb the tree ([`sv_arctic::FatTree::min_cross_subtree_hops`]).
//! Shards move wholesale between the scheduler and the pool threads over
//! channels, so no node is ever visible to two threads at once and the
//! loop needs no locks.
//!
//! Synchronization is conservative-lookahead PDES. Nodes only interact
//! through the network, and the network has a *lookahead* `L`
//! ([`sv_arctic::Network::lookahead_ns`]): a packet injected at time `t`
//! cannot affect any delivery before `t + L`. `L` is the global bound —
//! two nodes on the same leaf already reach each other in `L` — so `L`
//! caps the window span regardless of sharding. What the *cross-shard*
//! latency ([`sv_arctic::Network::cross_subtree_latency_ns`]) buys is
//! slack between shards: the shard map is sized so that traffic between
//! different shards needs at least two full windows in flight, which
//! keeps windows usefully populated instead of ping-ponging single
//! deliveries across the barrier. Each step of the loop is one of:
//!
//! - **Bursts.** When exactly one shard can act and no network event
//!   comes first, that shard runs alone against the committed network
//!   until anything else could matter. With one shard this is nearly
//!   every step.
//! - **Inline cycles.** When fewer than two shards have work inside the
//!   next window span but a network event is due, the scheduler executes
//!   that one event cycle in place — the exact oracle per-cycle sequence
//!   over the sharded structures, with no harvest and no channel traffic.
//! - **Parallel windows** `[w0, w1)` with span strictly below `L`:
//!   1. **Harvest** — the committed network (already advanced to the
//!      window start) advances to the window end in place with an undo
//!      journal armed, then rolls back exactly what the advance changed
//!      ([`sv_arctic::Network::harvest`]), so the cost follows the
//!      window's events, not the fabric's size. Everything it delivered
//!      is scheduled onto the owning shard at the exact cycle the oracle
//!      would deliver it. Injections made *inside* the window cannot
//!      produce deliveries inside it (the lookahead invariant), so this
//!      pre-computed schedule is complete.
//!   2. **Execute** — every shard with a wake or an arrival in the
//!      window runs its event cycles on its owner thread, recording
//!      packet injections as `(cycle, node, seq)`. Shard `si` of a run
//!      on `t` threads is owned by thread `si % t`, where thread 0 is
//!      the scheduler itself: it sends each active pool-owned shard down
//!      its owner's task channel, runs its own active shards in place,
//!      then collects the pool's shards from one shared results channel.
//!      The owner is a pure function of the shard map, so a shard's
//!      nodes stay on one thread (and in its core's cache) from window
//!      to window. A waiting thread polls its channel for a few µs
//!      before it blocks, since the next message usually comes sooner
//!      than a sleeping thread wakes. Arrivals and injections travel in
//!      buffers owned by the shard, so a warm window allocates nothing.
//!   3. **Commit** — the scheduler merges all injections in the global
//!      order the oracle would have produced (cycle, then node index,
//!      then per-node FIFO) and replays them into the committed network,
//!      interleaved with `advance` calls so link arbitration — and the
//!      fault model's RNG draws — see events in exactly the oracle's
//!      order. Debug builds check that the commit delivers the harvested
//!      `(time, src, dst)` sequence, and that each harvest left the
//!      fabric's snapshot bytes and dirty flag untouched.
//!
//! Every step of the protocol is deterministic — window placement, the
//! burst/inline/parallel choice, and the merge order are pure functions
//! of simulation state, never of thread scheduling — so a run is
//! bit-identical at every worker count and under every shard policy,
//! which in turn is bit-identical to the oracle. The equivalence-matrix
//! tests in `tests/` assert this on full
//! [`crate::stats::MachineStats`] snapshots, with faults armed.
//!
//! **Run entries.** The shard wake indexes, and each node's cached NIU
//! and firmware wakes, persist from one run entry to the next: a run
//! ends with every kept wake at or past its end, and nothing changes a
//! node until the next entry except a write through
//! [`Machine::nodes`], which sets its touched mark
//! ([`crate::machine::Nodes`]). Each entry records which list it held,
//! so a list moved in whole from another machine, whose mark is clear,
//! is not trusted either. An entry therefore primes the indexes, with
//! one O(n) scan, only when the mark is set, the list is not the one the
//! kept wakes were derived from, the shard map was built or the kept
//! shards are missing; otherwise it only re-attaches
//! the nodes, and debug builds check every kept wake against a fresh
//! one. Each entry advances in one go to its target. Quiescence is
//! checked only when the run stopped because nothing was scheduled, and
//! the 32-cycle boundary the oracle would have stopped at is
//! reconstructed exactly (see [`Machine::run_to_quiescence_capped`]).

use crate::machine::Machine;
use crate::node::Node;
use crate::ApiError;

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};
use sv_arctic::{Network, Packet};
use sv_niu::msg::NetPayload;
use sv_sim::ckpt::{SnapWriter, StateSave};
use sv_sim::trace::Subsys;
use sv_sim::{Clock, Time, WakeIndex};

/// A packet the fabric delivered, stamped with its delivery time.
type Delivery = (Time, Packet<NetPayload>);

/// How many workers the event loop shards the machine across. Set it at
/// build time with [`MachineBuilder::parallelism`]; combined with a
/// [`ShardPolicy`] it fully determines the execution plan, and every
/// choice produces bit-identical simulation results.
///
/// [`MachineBuilder::parallelism`]: crate::machine::MachineBuilder::parallelism
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One thread, one shard — the default. The same event loop as every
    /// other choice, run on the calling thread without pool threads;
    /// the fastest option for small and mostly idle machines.
    #[default]
    Sequential,
    /// Run on this many threads, the calling thread included: it
    /// schedules and runs its own share of the shards, and `n - 1` pool
    /// threads run the rest (fewer when the machine has fewer shards
    /// than `n`). `Fixed(1)` is `Sequential`.
    /// [`MachineBuilder::try_build`] rejects `Fixed(0)`
    /// ([`ApiError::WorkerCountZero`]) and worker counts exceeding the
    /// finest shard partition — one shard per node
    /// ([`ApiError::WorkersExceedShards`]).
    ///
    /// [`MachineBuilder::try_build`]: crate::machine::MachineBuilder::try_build
    Fixed(usize),
    /// `Fixed(n)` with `n` taken from the host:
    /// [`std::thread::available_parallelism`], clamped to the node
    /// count. Results are still bit-identical to every other setting —
    /// only wall-clock speed varies.
    Auto,
}

impl Parallelism {
    /// Resolve to a concrete worker count for a machine of `nodes`
    /// nodes.
    pub(crate) fn resolve(self, nodes: usize) -> Result<usize, ApiError> {
        let n = nodes.max(1);
        match self {
            Parallelism::Sequential => Ok(1),
            Parallelism::Fixed(0) => Err(ApiError::WorkerCountZero),
            // The finest partition any policy can produce is one shard
            // per node; more workers than that can never all be used and
            // is a config bug worth surfacing.
            Parallelism::Fixed(k) if k > n => Err(ApiError::WorkersExceedShards {
                workers: k,
                shards: n,
            }),
            Parallelism::Fixed(k) => Ok(k),
            Parallelism::Auto => {
                Ok(std::thread::available_parallelism().map_or(1, |p| p.get().min(n)))
            }
        }
    }
}

/// How nodes are partitioned into shards for parallel execution. Every
/// policy yields bit-identical simulation results (the commit protocol
/// guarantees it); the policy only affects wall-clock speed. One worker
/// always runs one shard, whatever the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// Aligned Arctic fat-tree subtrees — the default. Keeps 2-hop
    /// same-leaf traffic inside a shard and sizes shards so cross-shard
    /// packets spend at least two lookahead windows in flight
    /// ([`sv_arctic::Network::cross_subtree_latency_ns`]).
    #[default]
    BySubtree,
    /// Node `i` goes to shard `i mod workers` — deliberately
    /// topology-blind. Kept as the A/B baseline for measuring what
    /// subtree alignment buys; never faster, always bit-identical.
    RoundRobin,
}

/// The fully-resolved execution plan a machine runs under: the stepped
/// oracle or the event loop, and for the event loop how many workers it
/// uses and how it shards the nodes. Built once by
/// `MachineBuilder::try_build`, so the run loops never re-validate
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExecPlan {
    /// Tick every node every cycle (the oracle) instead of running the
    /// event loop.
    pub stepped: bool,
    /// Resolved worker count; `1` runs one shard on the calling thread.
    pub workers: usize,
    /// Node-to-shard assignment policy for `workers > 1`.
    pub policy: ShardPolicy,
}

/// What a capped run ended with. Produced by [`Machine::run`] and
/// [`Machine::run_capped`] — the non-panicking alternative to
/// [`Machine::run_to_quiescence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a Hung outcome usually indicates a protocol bug"]
pub enum RunOutcome {
    /// Every component drained; the time is the quiescence time.
    Quiesced(Time),
    /// The cap elapsed with work still pending (protocol hang); the time
    /// is where the run stopped.
    Hung(Time),
}

impl RunOutcome {
    /// The simulated time the run ended at, regardless of outcome.
    pub fn time(self) -> Time {
        match self {
            RunOutcome::Quiesced(t) | RunOutcome::Hung(t) => t,
        }
    }

    /// True if the machine drained.
    pub fn is_quiesced(self) -> bool {
        matches!(self, RunOutcome::Quiesced(_))
    }

    /// The quiescence time; panics on [`RunOutcome::Hung`].
    #[track_caller]
    pub fn expect_quiesced(self) -> Time {
        match self {
            RunOutcome::Quiesced(t) => t,
            RunOutcome::Hung(t) => panic!("machine failed to quiesce by {t}"),
        }
    }
}

/// The node-to-shard assignment a run executes under: a pure function of
/// (node count, topology, policy, worker count), never of runtime state,
/// so the same machine always shards the same way.
pub(crate) struct ShardMap {
    /// Number of shards.
    pub shards: usize,
    /// `owner[node] = (shard, local index within the shard)`. Local
    /// indices are dense and ascend with node id inside each shard.
    pub owner: Vec<(u32, u32)>,
}

/// The event loop's buffers, owned by the [`Machine`] and reused by every
/// run entry, so entering a run allocates nothing per node once the
/// machine has run before.
#[derive(Default)]
pub(crate) struct RunScratch {
    /// The plan's shard map, built on first use. Every map yields
    /// identical results, so the cache only has to match the node count.
    map: Option<ShardMap>,
    /// Per-shard wake index and due list; member lists are empty between
    /// runs. The wake indexes are kept for the next run entry, which
    /// trusts them unless the nodes were touched since.
    shards: Vec<Shard<'static>>,
    /// The node list the kept wakes were derived from (0 before the
    /// first run); an entry that holds another list primes.
    nodes_id: u64,
    /// The scheduler's copy of each shard's next wake.
    wakes: Vec<Option<u64>>,
    /// Fabric deliveries of the current cycle or harvest.
    delivered: Vec<Delivery>,
    /// Due nodes of an inline cycle: `(node id, shard, local index)`.
    merged: Vec<(u16, u32, u32)>,
    /// Shards an inline cycle drained.
    drained: Vec<usize>,
    /// A parallel window's injections, awaiting commit.
    injections: Vec<(u64, u16, Packet<NetPayload>)>,
    /// Debug builds only: the `(time, src, dst)` sequence of a parallel
    /// window's harvest, which its commit must reproduce.
    harvested: Vec<(Time, u16, u16)>,
    /// Run-loop work since the machine was built.
    work: WindowWork,
}

/// The run loop's work since the machine was built that the statistics
/// leave out, for the work gates: the parallel windows it ran, and the
/// node wakes its run entries derived. Deterministic for a given plan
/// and sequence of run entries, but they differ between plans and
/// between slicings of the same run, so they live beside the run loop's
/// buffers and never reach the statistics or a snapshot.
#[doc(hidden)]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowWork {
    /// Node wakes run entries derived to prime the shard wake indexes:
    /// every node's, at each entry that found its kept wakes untrusted.
    pub entry_wakes: u64,
    /// Parallel windows executed.
    pub windows: u64,
    /// Windows each shard executed in, by shard index.
    pub shard_runs: Vec<u64>,
    /// Shard windows handed to a pool thread rather than run on the
    /// scheduler thread.
    pub handoffs: u64,
}

/// Run [`Network::harvest`] on `net`. Debug builds also check that it
/// left the fabric's snapshot bytes, dirty flag and delta record (which
/// carries the per-link dirty bits) exactly as they were. The check
/// keeps its two snapshot buffers between harvests, so all it allocates
/// per window is the event queue's pop-order copy inside each snapshot.
fn checked_harvest(net: &mut Network<NetPayload>, horizon: Time, out: &mut Vec<Delivery>) {
    if !cfg!(debug_assertions) {
        return net.harvest(horizon, out);
    }
    thread_local! {
        static SNAPSHOTS: RefCell<[Vec<u8>; 2]> = const { RefCell::new([Vec::new(), Vec::new()]) };
    }
    let snapshot = |net: &Network<NetPayload>, buf: &mut Vec<u8>| {
        let mut w = SnapWriter::reusing(std::mem::take(buf));
        net.save(&mut w);
        net.save_delta(&mut w);
        *buf = w.finish();
    };
    SNAPSHOTS.with_borrow_mut(|[before, after]| {
        let was_dirty = net.ckpt_dirty();
        snapshot(net, before);
        net.harvest(horizon, out);
        snapshot(net, after);
        assert!(
            before == after && was_dirty == net.ckpt_dirty(),
            "harvest changed the committed fabric"
        );
    });
}

/// Hand a delivered packet to its destination's NIU at `cycle`.
fn deliver(node: &mut Node, cycle: u64, now: Time, pkt: Packet<NetPayload>) {
    if node.tracer.enabled() {
        node.tracer.record(
            now,
            Subsys::Net,
            format!("rx {}B from node {}", pkt.wire_bytes, pkt.src),
        );
    }
    node.push_arrival_packet(cycle, pkt);
}

/// Pass every packet `node`'s NIU has ready at `cycle` to `send`, in
/// FIFO order.
fn egress(node: &mut Node, cycle: u64, now: Time, mut send: impl FnMut(Packet<NetPayload>)) {
    while let Some(pkt) = node.pop_ready_packet(cycle) {
        if node.tracer.enabled() {
            node.tracer.record(
                now,
                Subsys::Net,
                format!("tx {}B to node {}", pkt.wire_bytes, pkt.dst),
            );
        }
        send(pkt);
    }
}

impl Machine {
    /// Advance one bus cycle, ticking every node: the oracle's step.
    pub fn step(&mut self) {
        let now = self.clock.edge(self.cycle);
        self.now = now;
        let cycle = self.cycle;
        let net = &mut self.network;
        net.advance(now);
        net.drain_delivered_into(&mut self.scratch.delivered);
        for (_, pkt) in self.scratch.delivered.drain(..) {
            deliver(&mut self.nodes[pkt.dst as usize], cycle, now, pkt);
        }
        // The stepped loop visits every node every cycle by definition;
        // it maintains no wake index, so republishes stay untouched.
        self.runstats.node_ticks += self.nodes.len() as u64;
        for node in &mut self.nodes {
            node.tick(cycle, now);
        }
        for node in &mut self.nodes {
            egress(node, cycle, now, |pkt| net.inject(now, pkt));
        }
        self.cycle += 1;
    }

    /// True when nothing in the machine has work left: no packets in
    /// flight and every node's engines are drained. Debug builds check
    /// it against the wake computation: a machine that reports idle
    /// must have nothing scheduled, or a run loop would stop with work
    /// still queued.
    pub(crate) fn quiescent(&self) -> bool {
        let idle =
            self.network.next_event_time().is_none() && self.nodes.iter().all(|n| !n.has_work());
        if cfg!(debug_assertions) && idle {
            let next = self.next_exec_cycle();
            assert!(
                next.is_none(),
                "quiescent at cycle {} with work scheduled at cycle {next:?}",
                self.cycle
            );
        }
        idle
    }

    /// Earliest cycle (`>= self.cycle`) at which any node or the fabric
    /// might change state, or `None` if the machine is idle forever. A
    /// plain scan over every node, made only by debug assertions: the
    /// event loop reads the wakes it keeps across run entries instead.
    fn next_exec_cycle(&self) -> Option<u64> {
        let (c, clock) = (self.cycle, self.clock);
        let net = self
            .network
            .next_event_time()
            .map(|t| clock.edge_at_or_after(t).max(c));
        self.nodes
            .iter()
            .filter_map(|n| n.next_event_cycle(c, &clock))
            .chain(net)
            .min()
    }

    /// Jump to `target` without executing anything, maintaining the
    /// `now == edge(cycle - 1)` invariant the stepped loop establishes.
    fn land_on(&mut self, target: u64) {
        debug_assert!(
            self.next_exec_cycle().is_none_or(|c| c >= target),
            "landing past an executable cycle"
        );
        if target > self.cycle {
            self.cycle = target;
        }
        if self.cycle > 0 {
            self.now = self.clock.edge(self.cycle - 1);
        }
    }

    /// Run for `ns` nanoseconds of simulated time.
    pub fn run_for(&mut self, ns: u64) {
        let until = self.now.plus(ns);
        if self.plan.stepped {
            while self.clock.edge(self.cycle) <= until {
                self.step();
            }
        } else {
            // First cycle whose edge lies beyond `until` — exactly
            // where the stepped loop stops.
            let target = self.clock.edge_at_or_after(until.plus(1));
            self.advance_to(target.max(self.cycle));
        }
    }

    /// Run until nothing in the machine has work left, or `max_ns` of
    /// simulated time elapse. Returns the quiescence time, or `Err` with
    /// the cap time if the machine never settled (protocol hang).
    ///
    /// The stepped oracle checks for quiescence every 32 cycles. The
    /// event loop instead advances in one go to the cap boundary, which
    /// it leaves early only when nothing is scheduled, and
    /// *reconstructs* the boundary the oracle would have stopped at:
    /// machine state is frozen after the last executed cycle `c_last`, so
    /// if the machine is quiescent at the run's end it has been quiescent
    /// at every boundary past `c_last` — and at none before (quiescence
    /// is absorbing: a quiescent machine can never execute again). The
    /// first boundary `b` with `b - 1 >= c_last` is therefore exactly
    /// where the oracle returns, and the cursor is rewound to it. A
    /// quiescent machine schedules nothing, so the O(n) quiescence scan
    /// runs only when the run stopped for that reason. The run reads the
    /// wakes kept from earlier entries, derived afresh only after a write
    /// through [`Machine::nodes`] (see [`crate::runloop`]).
    pub fn run_to_quiescence_capped(&mut self, max_ns: u64) -> Result<Time, Time> {
        let cap = self.now.plus(max_ns);
        if self.plan.stepped {
            // The oracle, stepped cycle by cycle. Quiescence is only
            // evaluated on *absolute* 32-cycle boundaries of the machine
            // clock (not boundaries relative to run entry), so a run
            // resumed mid-window — e.g. from a checkpoint — probes the
            // same boundaries as the uninterrupted run and reports the
            // identical quiescence cycle. Entered at cycle 0 this is
            // exactly the classic check-every-32-steps loop.
            loop {
                self.step();
                if !self.cycle.is_multiple_of(32) {
                    continue;
                }
                if self.quiescent() {
                    return Ok(self.now);
                }
                if self.now > cap {
                    return Err(self.now);
                }
            }
        }
        // `first` is the lowest probe boundary strictly past run entry;
        // `b_cap` the first boundary b with edge(b - 1) > cap, where the
        // oracle reports a hang.
        let first = self.cycle / 32 + 1;
        let cap_cycle = self.clock.edge_at_or_after(cap.plus(1));
        let b_cap = 32 * (cap_cycle + 1).div_ceil(32).max(first);
        // Run to the cap boundary in one go: past quiescence nothing
        // executes, and a run that reaches the cap with work still
        // scheduled stops where the oracle gives up.
        let WindowsResult {
            last_exec, idle, ..
        } = self.advance_to(b_cap);
        // Nothing scheduled: the machine either drained or is hung with
        // silent work pending.
        if idle && self.quiescent() {
            let b_q = 32 * last_exec.map_or(first, |cl| (cl + 1).div_ceil(32).max(first));
            debug_assert!(b_q <= b_cap);
            self.cycle = b_q;
            self.now = self.clock.edge(b_q - 1);
            return Ok(self.now);
        }
        Err(self.now)
    }

    /// Run to quiescence with a generous default cap (1 s of simulated
    /// time); panics on a hang, which always indicates a protocol bug.
    /// Prefer [`Machine::run`] where a hang should be handled.
    pub fn run_to_quiescence(&mut self) -> Time {
        self.run_capped(1_000_000_000).expect_quiesced()
    }

    /// Run to quiescence with the default 1 s cap, reporting a hang as a
    /// value instead of panicking.
    pub fn run(&mut self) -> RunOutcome {
        self.run_capped(1_000_000_000)
    }

    /// Run to quiescence or until `max_ns` of simulated time elapse.
    pub fn run_capped(&mut self, max_ns: u64) -> RunOutcome {
        match self.run_to_quiescence_capped(max_ns) {
            Ok(t) => RunOutcome::Quiesced(t),
            Err(t) => RunOutcome::Hung(t),
        }
    }

    /// The parallel windows this machine has run since it was built.
    #[doc(hidden)]
    pub fn window_work(&self) -> &WindowWork {
        &self.scratch.work
    }

    /// Largest window span (in bus cycles) safe under lookahead `la_ns`:
    /// `edge(c + w - 1) - edge(c) < la_ns` for every `c`, so injections
    /// inside a window can never produce deliveries inside it.
    fn window_cycles(&self, la_ns: u64) -> u64 {
        // edge(k) - edge(0) <= edge(w) + 1 for any k-span of w cycles
        // (floor jitter), so requiring edge(w) <= la_ns - 1 suffices.
        self.clock
            .edge_at_or_after(Time::from_ns(la_ns))
            .saturating_sub(1)
            .max(1)
    }

    /// Build the node-to-shard assignment for the machine's plan.
    ///
    /// [`ShardPolicy::BySubtree`] makes every aligned `4^k`-node chunk —
    /// which *is* a height-`k` subtree — one shard, at the level `k` the
    /// fabric picks for the worker count
    /// ([`sv_arctic::Network::shard_level`]).
    pub(crate) fn shard_map(&self) -> ShardMap {
        let n = self.nodes.len();
        let workers = self.plan.workers.max(1);
        match self.plan.policy {
            ShardPolicy::BySubtree if workers > 1 => {
                let span = sv_arctic::FatTree::subtree_span(self.network.shard_level(workers));
                ShardMap {
                    shards: n.div_ceil(span),
                    owner: (0..n)
                        .map(|i| ((i / span) as u32, (i % span) as u32))
                        .collect(),
                }
            }
            // Round-robin over the workers. At one worker, under either
            // policy, this is the single shard holding every node.
            _ => {
                let shards = workers.min(n.max(1));
                ShardMap {
                    shards,
                    owner: (0..n)
                        .map(|i| ((i % shards) as u32, (i / shards) as u32))
                        .collect(),
                }
            }
        }
    }

    /// Advance the event loop to `target` (exclusive), or less far if
    /// nothing is scheduled before it; the cursor lands on `target`
    /// either way.
    fn advance_to(&mut self, target: u64) -> WindowsResult {
        if target <= self.cycle {
            self.land_on(target);
            return WindowsResult::default();
        }
        if (self.scratch.map.as_ref()).is_none_or(|m| m.owner.len() != self.nodes.len()) {
            self.scratch.map = Some(self.shard_map());
            // The kept wake indexes belong to the old map's shards.
            self.scratch.shards.clear();
        }
        let window = self.window_cycles(self.network.lookahead_ns());
        let (clock, start) = (self.clock, self.cycle);
        let (touched, nodes) = self.nodes.hold(&mut self.scratch.nodes_id);
        let res = run_sharded(
            nodes,
            touched,
            &mut self.network,
            &mut self.scratch,
            clock,
            start,
            target,
            self.plan.workers,
            window,
        );
        self.nodes.release();
        self.cycle = target;
        self.now = clock.edge(target - 1);
        self.runstats.node_ticks += res.ticks;
        self.runstats.wake_republishes += res.republishes;
        res
    }
}

/// One shard of the machine during a run: exclusive ownership of its
/// member nodes (ascending node id), its own wake index, and drain
/// scratch. Shards move wholesale between the scheduler and their owner
/// pool threads (`std::mem::take` + channels), so no node is ever
/// aliased across threads and the loop needs no locks.
#[derive(Default)]
struct Shard<'a> {
    /// The shard's nodes, local index -> disjoint `&mut` borrow.
    members: Vec<&'a mut Node>,
    /// Wake index over local indices. Stays valid across windows the
    /// shard sits out: its nodes are frozen until it executes again.
    wake: WakeIndex,
    /// `drain_due` scratch, reused across windows.
    due: Vec<u32>,
    /// Harvested arrivals of the next window: `(cycle, local index,
    /// packet)`, ascending by cycle. Travels with the shard to its
    /// owner thread and back, so its buffer is reused.
    arrivals: Vec<(u64, u32, Packet<NetPayload>)>,
    /// Packets popped from NIUs in the last window: `(cycle, node id,
    /// packet)`, in per-node FIFO order; drained at commit.
    injections: Vec<(u64, u16, Packet<NetPayload>)>,
}

impl Shard<'_> {
    /// Release the member borrows at the end of a run, keeping every
    /// buffer for the next one.
    fn detach(self) -> Shard<'static> {
        debug_assert!(self.arrivals.is_empty() && self.injections.is_empty());
        let mut members = self.members;
        members.clear();
        Shard {
            // Collecting an emptied vector into an element type of the
            // same layout reuses its buffer.
            members: members.into_iter().map(|_| unreachable!()).collect(),
            wake: self.wake,
            due: self.due,
            arrivals: self.arrivals,
            injections: self.injections,
        }
    }

    /// Execute cycle `ce` (at time `now`) for every member due by then —
    /// the oracle's per-cycle sequence after deliveries: tick the due
    /// members in id order (each running only its due engines), pass
    /// their egress to `send` as `(node id, packet)` in per-node FIFO
    /// order, and republish their wakes. Returns how many members ran.
    fn run_due(
        &mut self,
        ce: u64,
        now: Time,
        clock: &Clock,
        mut send: impl FnMut(u16, Packet<NetPayload>),
    ) -> u64 {
        self.wake.drain_due(ce, &mut self.due);
        for &i in &self.due {
            self.members[i as usize].tick_due(ce, now);
        }
        for &i in &self.due {
            let node = &mut *self.members[i as usize];
            let id = node.id;
            egress(node, ce, now, |pkt| send(id, pkt));
        }
        for &i in &self.due {
            let w = self.members[i as usize].wake(ce + 1, clock);
            self.wake.publish(i as usize, w);
        }
        self.due.len() as u64
    }
}

/// One window of work for a shard: execute `[cursor, w1)` with the
/// shard's harvested arrivals.
struct ShardTask<'a> {
    si: usize,
    shard: Shard<'a>,
    w1: u64,
}

/// A shard coming back from a pool thread, its injections in its
/// buffer.
struct ShardOut<'a> {
    si: usize,
    shard: Shard<'a>,
    w: WindowOut,
}

/// What executing one shard window produced.
struct WindowOut {
    /// The shard's next event cycle at the window end (state is frozen
    /// until the shard executes again, so this stays valid across
    /// windows the shard sits out).
    next_wake: Option<u64>,
    /// Last cycle this shard executed in the window, if any.
    last_exec: Option<u64>,
    /// Node ticks this shard executed in the window.
    ticks: u64,
    /// Arrival + post-tick wake publishes this window (priming excluded
    /// so the count is the same under every shard map).
    republishes: u64,
}

/// What [`run_sharded`] hands back to the machine.
#[derive(Default)]
struct WindowsResult {
    /// Last cycle on which anything executed, if any did.
    last_exec: Option<u64>,
    /// Node ticks executed across all shards.
    ticks: u64,
    /// Arrival + post-tick wake publishes across all shards.
    republishes: u64,
    /// The run stopped before its target because nothing was scheduled:
    /// no shard wake and no fabric event.
    idle: bool,
}

impl WindowsResult {
    /// Add one shard's burst or window.
    fn absorb(&mut self, w: &WindowOut) {
        self.last_exec = self.last_exec.max(w.last_exec);
        self.ticks += w.ticks;
        self.republishes += w.republishes;
    }
}

/// Execute one shard's window up to `w1` (exclusive): its pre-scheduled
/// arrivals interleaved with its own event cycles — the exact per-cycle
/// sequence of [`Machine::step`], restricted to this shard. Injections
/// are appended to the shard's buffer in per-node FIFO order.
fn exec_window(shard: &mut Shard<'_>, clock: &Clock, w1: u64) -> WindowOut {
    let mut last_exec = None;
    let mut ticks = 0u64;
    let mut republishes = 0u64;
    // Lift both buffers out while `run_due` borrows the shard; they go
    // back, emptied and filled, below.
    let mut arrivals = std::mem::take(&mut shard.arrivals);
    let mut injections = std::mem::take(&mut shard.injections);
    let mut arr = arrivals.drain(..).peekable();
    loop {
        // Next cycle on which this shard can act: its own engines'
        // wake-ups plus pre-scheduled packet arrivals.
        let mut nx = shard.wake.min();
        if let Some(&(ac, _, _)) = arr.peek() {
            nx = Some(nx.map_or(ac, |v| v.min(ac)));
        }
        let Some(ce) = nx else { break };
        if ce >= w1 {
            break;
        }
        let now = clock.edge(ce);
        // Same per-cycle sequence as Machine::step, restricted to the
        // due nodes of this shard: deliveries, ticks, egress.
        while arr.peek().is_some_and(|&(ac, _, _)| ac == ce) {
            let (_, li, pkt) = arr.next().expect("peeked");
            let node = &mut *shard.members[li as usize];
            debug_assert_eq!(node.id, pkt.dst, "arrival routed to the wrong shard slot");
            deliver(node, ce, now, pkt);
            shard.wake.publish(li as usize, Some(ce));
            republishes += 1;
        }
        let ran = shard.run_due(ce, now, clock, |id, pkt| injections.push((ce, id, pkt)));
        ticks += ran;
        republishes += ran;
        last_exec = Some(ce);
    }
    drop(arr);
    shard.arrivals = arrivals;
    shard.injections = injections;
    // All live wakes are >= w1 here (the loop above drained anything
    // earlier), so the index min IS the shard's wake at the window
    // end — no rescan.
    let next_wake = shard.wake.min();
    debug_assert!(next_wake.is_none_or(|w| w >= w1));
    WindowOut {
        next_wake,
        last_exec,
        ticks,
        republishes,
    }
}

/// Run one shard alone against the *committed* network until `bound`
/// (exclusive) — the fast path the scheduler takes when no other shard
/// and no network event can act first. Because this shard is the only
/// actor, global order is its order: packets it pops are injected
/// straight into the network at their exact cycles, and the bound
/// shrinks to the network's next event cycle after any injection so no
/// dispatch or delivery is ever overrun. Returns the cycle the run
/// established quiet up to (the final bound) plus the usual window
/// accounting.
fn exec_burst(
    shard: &mut Shard<'_>,
    net: &mut Network<NetPayload>,
    clock: &Clock,
    mut bound: u64,
) -> (u64, WindowOut) {
    let mut last_exec = None;
    let mut ticks = 0u64;
    let mut republishes = 0u64;
    while let Some(ce) = shard.wake.min() {
        if ce >= bound {
            break;
        }
        let now = clock.edge(ce);
        let mut injected = false;
        let ran = shard.run_due(ce, now, clock, |_, pkt| {
            if !injected {
                // First egress this cycle: bring the network up to now
                // (a no-op walk — it has no event before `bound`) so the
                // injection lands at its exact cycle, as in the oracle's
                // step.
                net.advance(now);
                injected = true;
            }
            net.inject(now, pkt);
        });
        ticks += ran;
        republishes += ran;
        last_exec = Some(ce);
        if injected {
            // The injection scheduled new network events; the quiet
            // horizon this burst may claim ends where they begin.
            if let Some(t) = net.next_event_time() {
                bound = bound.min(clock.edge_at_or_after(t).max(ce + 1));
            }
        }
    }
    let next_wake = shard.wake.min();
    debug_assert!(next_wake.is_none_or(|w| w >= bound));
    (
        bound,
        WindowOut {
            next_wake,
            last_exec,
            ticks,
            republishes,
        },
    )
}

/// How long a thread waiting on a channel polls it before it blocks. A
/// pool thread's next shard usually arrives within the scheduler's
/// serial part of a window (harvest and commit, a few µs), and the
/// pool's results within the scheduler's own share of it; a blocking
/// receive costs a sleep and a wake-up, several µs on a virtual machine.
const POLL: Duration = Duration::from_micros(20);

/// Receive from `rx`: poll for [`POLL`], yielding the core between tries
/// so that hosts with more threads than cores keep moving, then block.
/// `None` once every sender is gone.
fn recv_polled<T>(rx: &mpsc::Receiver<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Empty) if start.elapsed() < POLL => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv().ok(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
}

/// Pool thread loop: run each shard window that arrives on this thread's
/// own task channel and hand the shard back on the shared results
/// channel. A panic inside a window (a program's own) goes back in place
/// of the shard for the scheduler to re-raise; a shard that never came
/// back would leave the scheduler waiting forever.
fn shard_worker<'a>(
    clock: Clock,
    tasks: mpsc::Receiver<ShardTask<'a>>,
    out: mpsc::Sender<std::thread::Result<ShardOut<'a>>>,
) {
    while let Some(ShardTask { si, mut shard, w1 }) = recv_polled(&tasks) {
        let w = panic::catch_unwind(AssertUnwindSafe(|| exec_window(&mut shard, &clock, w1)));
        if out.send(w.map(|w| ShardOut { si, shard, w })).is_err() {
            return;
        }
    }
}

/// Drive `nodes` from cycle `start` to `target` under the shard map in
/// `scratch`, on up to `workers` threads: this one and `workers - 1` pool
/// threads. See the module docs for the protocol and its determinism
/// argument. The shard wake indexes kept from the last run are primed
/// afresh only when `touched` (the nodes were written since, or are not
/// the list they were derived from) or when they are missing.
///
/// Each iteration runs one shard in a burst, executes one event cycle
/// inline (when at most one shard has work inside the next window span —
/// the oracle's per-cycle sequence over the sharded structures, no
/// harvest, no channel traffic), or runs one parallel
/// harvest/execute/commit window across every active shard. With one
/// shard only the first two ever happen.
#[allow(clippy::too_many_arguments)]
fn run_sharded<'a>(
    nodes: &'a mut [Node],
    touched: bool,
    net: &mut Network<NetPayload>,
    scratch: &mut RunScratch,
    clock: Clock,
    start: u64,
    target: u64,
    workers: usize,
    window: u64,
) -> WindowsResult {
    let RunScratch {
        map,
        shards: kept,
        nodes_id: _,
        wakes,
        delivered,
        merged,
        drained,
        injections,
        harvested,
        work,
    } = scratch;
    let map = map.as_ref().expect("shard map built before the run");
    debug_assert_eq!(map.owner.len(), nodes.len());
    // Attach the nodes: disjoint &mut borrows, ascending node id within
    // each shard (both policies assign local indices in id order).
    let mut shards: Vec<Shard<'a>> = std::mem::take(kept);
    // No kept shards: the first run, a new map, or a run that unwound.
    let prime = touched || shards.len() != map.shards;
    shards.resize_with(map.shards, Shard::default);
    for (i, node) in nodes.iter_mut().enumerate() {
        let (si, li) = map.owner[i];
        debug_assert_eq!(shards[si as usize].members.len(), li as usize);
        shards[si as usize].members.push(node);
    }
    if prime {
        // Prime each shard's wake index (left out of the statistics:
        // republish counters only track in-run maintenance, which is the
        // same under every map and every slicing of a run).
        for sh in &mut shards {
            sh.wake.reset(sh.members.len());
            for (li, nd) in sh.members.iter_mut().enumerate() {
                sh.wake.publish(li, nd.prime_wake(start, &clock));
            }
        }
        work.entry_wakes += map.owner.len() as u64;
    } else if cfg!(debug_assertions) {
        // The last run left every kept wake at or past `start`, and
        // nothing has touched the nodes since.
        for sh in &shards {
            for (li, nd) in sh.members.iter().enumerate() {
                assert_eq!(
                    sh.wake.get(li),
                    nd.next_event_cycle(start, &clock),
                    "node {}: kept wake is stale at run entry (cycle {start})",
                    nd.id
                );
            }
        }
    }
    // Scheduler-side wake cache: exact per shard, refreshed whenever the
    // shard executes (its nodes are frozen in between).
    wakes.clear();
    wakes.extend(shards.iter_mut().map(|s| s.wake.min()));
    work.shard_runs.resize(map.shards, 0);
    // Shard `si` runs on thread `si % threads`; thread 0 is this one.
    let threads = workers.min(map.shards).max(1);
    let mut res = WindowsResult::default();
    std::thread::scope(|scope| {
        // The pool and its channels are created lazily on the first
        // parallel window, so runs that never leave bursts and inline
        // cycles (one shard, sparse phases) never pay thread startup.
        // One task channel per pool thread; one results channel for all.
        let mut pool = None;
        let mut cursor = start;
        loop {
            // Next cycle anything can happen, shard wakes or network.
            let net_cycle = net
                .next_event_time()
                .map(|t| clock.edge_at_or_after(t).max(cursor));
            let Some(nx) = wakes.iter().flatten().copied().chain(net_cycle).min() else {
                res.idle = true;
                break;
            };
            if nx >= target {
                break;
            }
            debug_assert!(nx >= cursor, "stale shard wake behind the cursor");
            let w1 = (nx + window).min(target);
            let wake_active = wakes.iter().filter(|w| w.is_some_and(|c| c < w1)).count();
            if wake_active < 2 && net_cycle != Some(nx) {
                // ---- Burst ----
                // Exactly one shard can act and no network event
                // intervenes before it does: run that shard alone
                // against the committed network until anything else
                // could matter. No window span limit applies — this is
                // sequential execution, not a concurrent window — so
                // sparse phases (staggered senders, drain-out) run at
                // full event-loop speed with zero scheduling overhead.
                let si = wakes
                    .iter()
                    .position(|w| *w == Some(nx))
                    .expect("nx must come from a shard wake");
                let others = wakes.iter().enumerate().filter(|&(sj, _)| sj != si);
                let bound = others
                    .filter_map(|(_, w)| *w)
                    .chain(net_cycle)
                    .fold(target, u64::min);
                debug_assert!(nx < bound);
                let (end, w) = exec_burst(&mut shards[si], net, &clock, bound);
                wakes[si] = w.next_wake;
                res.absorb(&w);
                cursor = end;
            } else if wake_active < 2 {
                // ---- Inline event cycle at `nx` ----
                // At most one shard can act before the window end, so a
                // parallel window would buy nothing; execute the one
                // cycle exactly as the oracle would.
                let now = clock.edge(nx);
                net.advance(now);
                net.drain_delivered_into(delivered);
                for (_, pkt) in delivered.drain(..) {
                    let (si, li) = map.owner[pkt.dst as usize];
                    let sh = &mut shards[si as usize];
                    deliver(&mut *sh.members[li as usize], nx, now, pkt);
                    sh.wake.publish(li as usize, Some(nx));
                    res.republishes += 1;
                    wakes[si as usize] = Some(wakes[si as usize].map_or(nx, |w| w.min(nx)));
                }
                drained.clear();
                drained.extend((0..shards.len()).filter(|&si| wakes[si].is_some_and(|w| w <= nx)));
                // Merge the due members of every due shard in global
                // node-id order — the oracle's visit order.
                // (BySubtree shards are contiguous so this is already
                // sorted; RoundRobin interleaves, hence the sort.)
                merged.clear();
                for &si in drained.iter() {
                    let sh = &mut shards[si];
                    sh.wake.drain_due(nx, &mut sh.due);
                    for &li in &sh.due {
                        merged.push((sh.members[li as usize].id, si as u32, li));
                    }
                }
                merged.sort_unstable_by_key(|&(id, _, _)| id);
                for &(_, si, li) in merged.iter() {
                    shards[si as usize].members[li as usize].tick_due(nx, now);
                }
                for &(_, si, li) in merged.iter() {
                    let node = &mut *shards[si as usize].members[li as usize];
                    egress(node, nx, now, |pkt| net.inject(now, pkt));
                }
                for &(_, si, li) in merged.iter() {
                    let sh = &mut shards[si as usize];
                    let w = sh.members[li as usize].wake(nx + 1, &clock);
                    sh.wake.publish(li as usize, w);
                }
                let ran = merged.len() as u64;
                res.ticks += ran;
                res.republishes += ran;
                for &si in drained.iter() {
                    wakes[si] = shards[si].wake.min();
                }
                if ran > 0 {
                    res.last_exec = res.last_exec.max(Some(nx));
                }
                cursor = nx + 1;
            } else {
                // ---- Parallel window [nx, w1) ----
                let w0 = nx;
                let horizon = clock.edge(w1 - 1);
                // Harvest: everything the committed network will deliver
                // in this window, scheduled at exact delivery cycles.
                // Window spans are below the lookahead bound, so this
                // window's own injections cannot add to the set.
                if net.next_event_time().is_some_and(|t| t <= horizon) {
                    checked_harvest(net, horizon, delivered);
                }
                if cfg!(debug_assertions) {
                    harvested.clear();
                    harvested.extend(delivered.iter().map(|(t, p)| (*t, p.src, p.dst)));
                }
                for (t, pkt) in delivered.drain(..) {
                    let c = clock.edge_at_or_after(t).max(w0);
                    debug_assert!(c < w1, "delivery past the window end");
                    let (si, li) = map.owner[pkt.dst as usize];
                    shards[si as usize].arrivals.push((c, li, pkt));
                }
                let (task_txs, out_rx) = pool.get_or_insert_with(|| {
                    let (out_tx, out_rx) = mpsc::channel();
                    let task_txs = (1..threads)
                        .map(|_| {
                            let (task_tx, task_rx) = mpsc::channel();
                            let out_tx = out_tx.clone();
                            scope.spawn(move || shard_worker(clock, task_rx, out_tx));
                            task_tx
                        })
                        .collect::<Vec<_>>();
                    (task_txs, out_rx)
                });
                // Execute every shard with work in the window on its
                // owner thread; the rest stay in place, frozen, their
                // cached wakes still exact. The pool's shards go out
                // first, so the pool runs them while this thread runs
                // its own.
                let active = |sh: &Shard<'_>, wake: Option<u64>| {
                    !sh.arrivals.is_empty() || wake.is_some_and(|w| w < w1)
                };
                work.windows += 1;
                let mut handed = 0usize;
                for si in 0..shards.len() {
                    if !active(&shards[si], wakes[si]) {
                        continue;
                    }
                    work.shard_runs[si] += 1;
                    if let Some(owner) = (si % threads).checked_sub(1) {
                        let shard = std::mem::take(&mut shards[si]);
                        task_txs[owner]
                            .send(ShardTask { si, shard, w1 })
                            .expect("pool thread exited early");
                        handed += 1;
                    }
                }
                work.handoffs += handed as u64;
                for si in (0..shards.len()).step_by(threads) {
                    if active(&shards[si], wakes[si]) {
                        let w = exec_window(&mut shards[si], &clock, w1);
                        wakes[si] = w.next_wake;
                        res.absorb(&w);
                        injections.append(&mut shards[si].injections);
                    }
                }
                for _ in 0..handed {
                    let out = recv_polled(out_rx).expect("pool thread exited early");
                    // A window that panicked re-raises here. Unwinding
                    // drops the task channels, so the pool threads exit
                    // and the scope joins them before the panic leaves
                    // the run.
                    let ShardOut { si, mut shard, w } =
                        out.unwrap_or_else(|payload| panic::resume_unwind(payload));
                    wakes[si] = w.next_wake;
                    res.absorb(&w);
                    injections.append(&mut shard.injections);
                    shards[si] = shard;
                }
                // Commit: replay injections in the order the oracle
                // would have produced them (cycle, then node index, then
                // per-node FIFO — the sort is stable, and one node's
                // injections all come from one shard in FIFO order, so
                // the order shards were collected in does not matter),
                // interleaving network advances so link arbitration and
                // fault RNG draws see events in time order.
                injections.sort_by_key(|&(c, src, _)| (c, src));
                let mut advanced_to: Option<u64> = None;
                for (c, _, pkt) in injections.drain(..) {
                    if advanced_to != Some(c) {
                        net.advance(clock.edge(c));
                        advanced_to = Some(c);
                    }
                    net.inject(clock.edge(c), pkt);
                }
                net.advance(horizon);
                // These deliveries are exactly the ones harvested above,
                // in the same order, and already executed by the shards.
                net.drain_delivered_into(delivered);
                debug_assert!(
                    delivered
                        .iter()
                        .map(|(t, p)| (*t, p.src, p.dst))
                        .eq(harvested.iter().copied()),
                    "commit/harvest disagree"
                );
                delivered.clear();
                cursor = w1;
            }
        }
        // Closing the task channels lets the pool threads exit before
        // the scope joins them.
        drop(pool);
    });
    // Detach the nodes, keeping every buffer for the next run.
    *kept = shards.into_iter().map(Shard::detach).collect();
    res
}
