//! A 1-D Jacobi stencil with halo exchange — the canonical cluster
//! application pattern the paper's introduction motivates. Each node
//! owns a slab of the global vector; every iteration it exchanges
//! boundary cells with its neighbors over Basic messages, relaxes its
//! interior, and joins an all-reduce on the residual.
//!
//! Run with: `cargo run --release -p sv-examples --bin halo_exchange`

use voyager::api::{BasicMsg, RecvBasic, SendBasic};
use voyager::app::{AppEventKind, Env, Program, Step};
use voyager::collectives::{AllReduce, ReduceOp};
use voyager::{Machine, NodeLib, Parallelism};

const NODES: usize = 4;
const CELLS_PER_NODE: usize = 64;
const ITERS: usize = 5;

/// One node's stencil worker: compute + halo exchange, `ITERS` times,
/// then contribute its slab checksum to an all-reduce.
struct Stencil {
    lib: NodeLib,
    slab: Vec<f64>,
    left: Option<u16>,
    right: Option<u16>,
    iter: usize,
    phase: Phase,
    halo_left: f64,
    halo_right: f64,
    inner: Option<Box<dyn Program>>,
}

enum Phase {
    SendHalos,
    RecvHalos,
    Compute,
    Reduce,
    Done,
}

impl Stencil {
    fn new(lib: &NodeLib) -> Self {
        let me = lib.node as usize;
        // Initial condition: a step function across the global domain.
        let slab = (0..CELLS_PER_NODE)
            .map(|i| {
                if (me * CELLS_PER_NODE + i) < NODES * CELLS_PER_NODE / 2 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        Stencil {
            lib: *lib,
            slab,
            left: (me > 0).then(|| (me - 1) as u16),
            right: (me + 1 < NODES).then(|| (me + 1) as u16),
            iter: 0,
            phase: Phase::SendHalos,
            halo_left: 1.0,
            halo_right: 0.0,
            inner: None,
        }
    }

    fn expected_halos(&self) -> usize {
        self.left.is_some() as usize + self.right.is_some() as usize
    }
}

impl Program for Stencil {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        loop {
            // Drive any sub-program (send/recv/reduce) to completion first.
            if let Some(p) = &mut self.inner {
                match p.step(env) {
                    Step::Done => self.inner = None,
                    s => return s,
                }
            }
            match self.phase {
                Phase::SendHalos => {
                    let mut items = Vec::new();
                    if let Some(l) = self.left {
                        items.push(BasicMsg::new(
                            self.lib.user_dest(l),
                            [b"R".as_slice(), &self.slab[0].to_le_bytes()].concat(),
                        ));
                    }
                    if let Some(r) = self.right {
                        items.push(BasicMsg::new(
                            self.lib.user_dest(r),
                            [
                                b"L".as_slice(),
                                &self.slab[CELLS_PER_NODE - 1].to_le_bytes(),
                            ]
                            .concat(),
                        ));
                    }
                    let produced = (self.iter * self.expected_halos()) as u16;
                    self.inner = Some(Box::new(SendBasic::resuming(&self.lib, items, produced)));
                    self.phase = Phase::RecvHalos;
                }
                Phase::RecvHalos => {
                    // The hardware queue's consumer pointer persists across
                    // phases; resume from where the previous iteration left
                    // the cursor.
                    let consumed = (self.iter * self.expected_halos()) as u16;
                    self.inner = Some(Box::new(RecvBasic::resuming(
                        &self.lib,
                        self.expected_halos(),
                        consumed,
                    )));
                    self.phase = Phase::Compute;
                }
                Phase::Compute => {
                    // Pull the received halos out of this iteration's events.
                    let received = env
                        .events
                        .iter()
                        .rev()
                        .filter_map(|e| match &e.kind {
                            AppEventKind::Received { data, .. } => Some(data.clone()),
                            _ => None,
                        })
                        .take(self.expected_halos())
                        .collect::<Vec<_>>();
                    for d in received {
                        let v = f64::from_le_bytes(d[1..9].try_into().expect("8-byte halo"));
                        match d[0] {
                            b'L' => self.halo_left = v,  // from our left neighbor
                            b'R' => self.halo_right = v, // from our right neighbor
                            _ => {}
                        }
                    }
                    // Jacobi relaxation over the slab.
                    let next: Vec<f64> = (0..CELLS_PER_NODE)
                        .map(|i| {
                            let l = if i == 0 {
                                self.halo_left
                            } else {
                                self.slab[i - 1]
                            };
                            let r = if i + 1 == CELLS_PER_NODE {
                                self.halo_right
                            } else {
                                self.slab[i + 1]
                            };
                            0.5 * (l + r)
                        })
                        .collect();
                    self.slab = next;
                    self.iter += 1;
                    // Charge the arithmetic (~2 ops/cell at a few ns each).
                    self.phase = if self.iter < ITERS {
                        Phase::SendHalos
                    } else {
                        Phase::Reduce
                    };
                    return Step::Compute(CELLS_PER_NODE as u64 * 12);
                }
                Phase::Reduce => {
                    // Checksum in fixed point so the u64 all-reduce applies.
                    let sum: f64 = self.slab.iter().sum();
                    let fixed = (sum * 1000.0).round() as u64;
                    self.inner = Some(Box::new(AllReduce::new(&self.lib, ReduceOp::Sum, fixed)));
                    self.phase = Phase::Done;
                }
                Phase::Done => return Step::Done,
            }
        }
    }
}

fn main() {
    // Auto takes the thread count from the host; results are
    // bit-identical at any worker count.
    let mut m = Machine::builder(NODES)
        .parallelism(Parallelism::Auto)
        .build();
    for i in 0..NODES as u16 {
        let lib = m.lib(i);
        m.load_program(i, Stencil::new(&lib));
    }
    let t = m.run_to_quiescence();

    // Mass is conserved by the interior relaxation up to boundary flux;
    // every node must agree on the global checksum.
    let sums: Vec<u64> = (0..NODES as u16)
        .map(|i| {
            m.events(i)
                .iter()
                .find_map(|e| match e.kind {
                    AppEventKind::Result { value, .. } => Some(value),
                    _ => None,
                })
                .expect("reduce result")
        })
        .collect();
    assert!(
        sums.windows(2).all(|w| w[0] == w[1]),
        "nodes disagree: {sums:?}"
    );

    println!(
        "{NODES} nodes x {CELLS_PER_NODE} cells, {ITERS} Jacobi iterations with halo \
         exchange: finished at {t}"
    );
    println!(
        "global checksum (agreed by all nodes via all-reduce): {:.3}",
        sums[0] as f64 / 1000.0
    );
    let s = m.stats();
    let (net, cpu) = (&s.network, &s.nodes[0].cpu);
    println!(
        "network: {} packets, mean latency {:.0} ns; node 0 aP utilization {:.1}%",
        net.delivered,
        net.latency_sum_ns as f64 / net.latency_count.max(1) as f64,
        100.0 * (cpu.compute_ns + cpu.mem_stall_ns) as f64 / s.sim_time_ns.max(1) as f64
    );
}
