//! Multiprogramming and protection, tenant-style: every node runs a
//! deterministic scheduler multiplexing a mix of tenant jobs — bulk
//! streams, paced latency probes, bursty senders — plus one confined
//! *misbehaving* tenant whose invalid destination shuts its own tx
//! queue down without disturbing anyone else. This is the scenario the
//! paper's protected multi-queue design exists for, scaled from "a few
//! jobs" to a serving layer of tenants per node.
//!
//! Run with: `cargo run --release -p sv-examples --bin multiprogramming`

use voyager::tenancy::CONFINED_TX_Q;
use voyager::workloads::{load_tenant_mix, measure_tenant_mix};
use voyager::{Machine, SchedPolicy, SystemParams, TenancyParams, TenantClass};

fn main() {
    // 8 tenants per node on a 4-node machine; tenant 5 is the
    // misbehaving one, pinned to the masked tx queue. The weighted
    // policy gives the latency-sensitive tenant (tenant 0, weight 4) a
    // longer slice at each scheduling point.
    let tenancy = TenancyParams {
        tenants_per_node: 8,
        policy: SchedPolicy::WeightedTimeSlice { quantum_ns: 20_000 },
        confined: Some(5),
    };
    let mut m = Machine::builder(4)
        .params(SystemParams::default())
        .tenants(tenancy)
        .build();
    let scheduled = load_tenant_mix(&mut m, 12);
    let end = m.run_to_quiescence();
    println!("{scheduled} tenant messages scheduled; machine quiet at {end}\n");

    // Per-tenant view on node 0: the scheduler's occupancy report plus
    // the NIU's rx-queue-cache attribution for each tenant's queue.
    let stats = m.stats();
    let node0 = stats.nodes[0].tenants.as_ref().expect("tenancy armed");
    println!("node 0, per tenant:");
    println!("  id class        weight slices active_ns sent hits misses done");
    for t in &node0.tenants {
        let class = match t.class {
            0 => "bulk",
            1 => "latency",
            2 => "bursty",
            _ => "misbehaving",
        };
        println!(
            "  {:>2} {:<12} {:>6} {:>6} {:>9} {:>4} {:>4} {:>6} {}",
            t.id,
            class,
            t.weight,
            t.slices,
            t.active_ns,
            t.sent_msgs,
            t.rq_hits,
            t.rq_misses,
            t.done
        );
    }

    // The misbehaving tenant's fault was contained: its masked tx queue
    // is shut, the firmware logged the interrupt, and every other
    // tenant's job still ran to completion on every node.
    let q = CONFINED_TX_Q as usize;
    let n0 = &m.nodes[0];
    println!(
        "\nconfined tenant: tx queue {q} enabled={}, violations={}, fw saw {} interrupt(s)",
        n0.niu.ctrl.tx[q].enabled,
        n0.niu.ctrl.tx[q].violations.get(),
        n0.fw.stats.violations_seen.get()
    );
    assert!(!n0.niu.ctrl.tx[q].enabled);
    let tp = m.tenancy().expect("tenancy armed");
    for node in &stats.nodes {
        for t in &node.tenants.as_ref().expect("armed").tenants {
            if tp.tenant_class(t.id as u16) != TenantClass::Misbehaving {
                assert_eq!(t.done, 1, "tenant {} should have finished", t.id);
            }
        }
    }

    // Machine-wide serving metrics — what the S10 scaling study sweeps.
    let out = measure_tenant_mix(&m);
    println!(
        "\nserving layer: hit rate {:.1}% ({} hits / {} misses, {} diversions, {} rebinds)",
        out.hit_rate * 100.0,
        out.rq_hits,
        out.rq_misses,
        out.diversions,
        out.rebinds
    );
    println!(
        "tail latency: p99 {} ns (hit-path {} ns, miss-path {} ns); latency class {} ns vs others {} ns",
        out.p99_ns, out.hit_p99_ns, out.miss_p99_ns, out.latency_class_p99_ns, out.other_class_p99_ns
    );
    println!("\nisolation held: one tenant's fault never touched the others' traffic.");
}
