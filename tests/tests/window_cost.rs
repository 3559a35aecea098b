//! Cost of the parallel run loop's windows, gated on work rather than
//! time. A counting global allocator compares the heap allocations a
//! ring makes during `run()` under `Fixed(2)` + `BySubtree` with the same
//! ring under `Sequential`. Both runs do the same simulated work, so any
//! excess is per-window overhead: harvesting the network's deliveries,
//! handing shards to their owner threads and committing their
//! injections. Warm, a window allocates nothing, so the two counts stay
//! close. The 256-node ring's window work is pinned too: how many
//! parallel windows it runs, and that only the shards a pool thread owns
//! travel over a channel.
//!
//! Its own test binary because the allocator is process-global: keep it
//! to this one test so nothing else allocates concurrently.

use sv_tests::{allocations, Counting};
use voyager::api::{BasicMsg, RecvBasic, SendBasic};
use voyager::app::{Delay, Seq};
use voyager::runloop::WindowWork;
use voyager::{Machine, Parallelism, Program, ShardPolicy};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Compute gap before every send, ns.
const GAP_NS: u64 = 50_000;

/// Largest allowed ratio of `Fixed(2)` to `Sequential` allocations.
const MAX_RATIO: f64 = 1.10;

/// Parallel windows the 256-node, 10-round ring runs under `Fixed(2)`.
/// Window placement is a pure function of simulation state, so this
/// only moves when the ring's simulated behaviour or the window rule
/// changes.
const RING_256_WINDOWS: u64 = 174;

/// A ring visiting the nodes in the order `97·k mod n`, so neighbours
/// sit in different subtrees and shards: every round, each node computes
/// for [`GAP_NS`], sends one 16-byte Basic message to its successor and
/// receives one from its predecessor.
fn load_ring(m: &mut Machine, rounds: u16) {
    let n = m.nodes.len();
    let order = |k: usize| (97 * k % n) as u16;
    for k in 0..n {
        let (node, next) = (order(k), order(k + 1));
        let lib = m.lib(node);
        let mut parts: Vec<Box<dyn Program>> = Vec::new();
        for r in 0..rounds {
            let msg = BasicMsg::new(lib.user_dest(next), vec![r as u8; 16]);
            parts.push(Box::new(Delay(GAP_NS)));
            parts.push(Box::new(SendBasic::resuming(&lib, vec![msg], r)));
            parts.push(Box::new(RecvBasic::resuming(&lib, 1, r)));
        }
        m.load_program(node, Seq::new(parts));
    }
}

/// Allocations made during `run()`, the stats JSON the run ends with,
/// and the machine's window work.
fn run(nodes: usize, rounds: u16, par: Parallelism) -> (u64, String, WindowWork, usize) {
    let mut m = Machine::builder(nodes)
        .parallelism(par)
        .shard_policy(ShardPolicy::BySubtree)
        .build();
    load_ring(&mut m, rounds);
    let before = allocations();
    let out = m.run();
    let allocs = allocations() - before;
    assert!(
        out.is_quiesced(),
        "{nodes}-node ring under {par:?}: {out:?}"
    );
    let threads = m.workers().min(m.shard_count());
    (
        allocs,
        m.stats().to_json(),
        m.window_work().clone(),
        threads,
    )
}

#[test]
fn parallel_windows_allocate_like_sequential() {
    // Measure both sizes before judging either, so a failure still
    // prints every count.
    let runs: Vec<(usize, f64, WindowWork, usize)> = [(64, 20), (256, 10)]
        .into_iter()
        .map(|(nodes, rounds)| {
            let (seq, seq_stats, _, _) = run(nodes, rounds, Parallelism::Sequential);
            let (par, par_stats, work, threads) = run(nodes, rounds, Parallelism::Fixed(2));
            assert_eq!(seq_stats, par_stats, "{nodes}-node ring: stats differ");
            let ratio = par as f64 / seq as f64;
            println!(
                "ring of {nodes} nodes x {rounds} rounds: Sequential {seq} allocations, \
                 Fixed(2) {par} ({ratio:.2}x); {} parallel windows, shard runs {:?}, \
                 {} handed to the pool",
                work.windows, work.shard_runs, work.handoffs
            );
            (nodes, ratio, work, threads)
        })
        .collect();
    for (nodes, ratio, work, threads) in &runs {
        assert!(
            *ratio <= MAX_RATIO,
            "{nodes}-node ring: Fixed(2) makes {ratio:.2}x the allocations of Sequential \
             (budget {MAX_RATIO}x)"
        );
        // Shard `si` runs on thread `si % threads`, and thread 0 is the
        // scheduler, which runs its own shards in place: only the runs
        // of the pool's shards cross a channel.
        let all: u64 = work.shard_runs.iter().sum();
        let pool: u64 = (work.shard_runs.iter().enumerate())
            .filter(|&(si, _)| !si.is_multiple_of(*threads))
            .map(|(_, runs)| runs)
            .sum();
        assert_eq!(
            work.handoffs, pool,
            "{nodes}-node ring: hand-offs are not the pool-owned shards' runs"
        );
        assert!(
            2 * work.handoffs <= all,
            "{nodes}-node ring: {} of {all} shard runs were handed to the pool",
            work.handoffs
        );
    }
    assert_eq!(
        runs[1].2.windows, RING_256_WINDOWS,
        "256-node ring: parallel windows"
    );
}
