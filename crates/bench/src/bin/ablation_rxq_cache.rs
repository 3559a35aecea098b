//! **Ablation A1** — receive-queue caching (paper §4: "selectively
//! caching queues enables the NIU to support a large number of logical
//! destinations efficiently").
//!
//! A sender sprays messages round-robin over K logical destination
//! queues at the receiver. Twelve hardware slots are available for
//! binding; queues beyond the hot set go through the miss/overflow queue
//! and firmware. As K exceeds the hardware capacity, the firmware-
//! serviced fraction grows and per-message cost rises — the cost the
//! hardware cache avoids for hot destinations.

use sv_bench::print_table;
use voyager::workloads::{load_rxq_spray, RXQ_MSGS_PER_QUEUE};
use voyager::{Machine, SystemParams};

/// Hardware rx slots bound to logical queues.
const HW_SLOTS: usize = 12;

fn run(k: usize) -> (f64, u64, u64) {
    let mut m = Machine::builder(2).params(SystemParams::default()).build();
    let total = load_rxq_spray(&mut m, k);
    let t = m.run_to_quiescence();
    let fw_serviced = m.nodes[1].fw.stats.miss_msgs.get();
    let hw_hits = m.nodes[1].niu.ctrl.rx_cache.hits.get();
    (t.ns() as f64 / total as f64, hw_hits, fw_serviced)
}

fn main() {
    let mut rows = Vec::new();
    let mut baseline = 0.0;
    for k in [1usize, 4, 8, 12, 16, 24, 32, 48] {
        let (ns_per_msg, hw, fw) = run(k);
        // Every message is delivered exactly once, and the firmware
        // serves exactly the queues the hardware slots cannot hold.
        let per_q = RXQ_MSGS_PER_QUEUE as u64;
        assert_eq!(hw + fw, per_q * k as u64, "k = {k}: hw {hw} + fw {fw}");
        assert_eq!(fw, per_q * k.saturating_sub(HW_SLOTS) as u64, "k = {k}");
        if k == 1 {
            baseline = ns_per_msg;
        }
        rows.push(vec![
            k.to_string(),
            format!("{:.0}", ns_per_msg),
            hw.to_string(),
            fw.to_string(),
            format!("{:.0}%", 100.0 * fw as f64 / (hw + fw).max(1) as f64),
            format!("{:.2}x", ns_per_msg / baseline),
        ]);
    }
    print_table(
        "A1: receive-queue caching (12 hardware slots available)",
        &[
            "logical queues",
            "ns/msg",
            "hw-cached",
            "fw-serviced",
            "miss frac",
            "slowdown",
        ],
        &rows,
    );
    println!("\nshape check: miss fraction 0 while the hot set fits, grows past 12 ✓");
}
