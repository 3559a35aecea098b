//! Shared memory on StarT-Voyager: a producer/consumer exchange through
//! the S-COMA region, and NUMA loads/stores — all driven by ordinary
//! loads and stores from the application processors, with the NIU and
//! firmware doing the coherence work underneath.
//!
//! Run with: `cargo run --release -p sv-examples --bin shared_memory`

use voyager::app::{Env, FnProgram, Step, StoreData};
use voyager::workloads::{numa_load_latency, scoma_latencies, scoma_read_3hop};
use voyager::{Machine, SystemParams};

fn main() {
    let params = SystemParams::default();

    // ---- S-COMA producer/consumer ----
    // Node 0 writes a value into a global S-COMA line (homed on node 1);
    // node 2 then reads it. The directory protocol recalls the dirty
    // line from node 0 through the home — no application involvement.
    let mut m = Machine::builder(4).params(params).build();
    let addr = params.map.scoma_base + 0x1000;
    m.load_program(
        0,
        FnProgram({
            let mut done = false;
            move |_env: &mut Env<'_>| {
                if done {
                    return Step::Done;
                }
                done = true;
                Step::Store {
                    addr,
                    data: StoreData::U64(0x1234_5678),
                }
            }
        }),
    );
    m.run_to_quiescence();
    println!(
        "node 0 wrote 0x12345678 to S-COMA line {:#x} (home: node 1)",
        addr
    );

    let seen = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let seen2 = seen.clone();
    let mut phase = 0;
    m.load_program(
        2,
        FnProgram(move |env: &mut Env<'_>| match phase {
            0 => {
                phase = 1;
                Step::Load { addr, bytes: 8 }
            }
            _ => {
                seen2.store(env.last_load, std::sync::atomic::Ordering::Relaxed);
                Step::Done
            }
        }),
    );
    let t = m.run_to_quiescence();
    println!(
        "node 2 read {:#x} via a 3-hop recall, finishing at {t}",
        seen.load(std::sync::atomic::Ordering::Relaxed)
    );
    println!(
        "  (home stats: {} recalls, {} data grants, {} writebacks)",
        m.nodes[1].fw.scoma.stats.recalls.get(),
        m.nodes[1].fw.scoma.stats.grants_data.get(),
        m.nodes[1].fw.scoma.stats.writebacks.get(),
    );

    // ---- latency summary ----
    let (miss2, hit, upgrade) = scoma_latencies(params);
    let miss3 = scoma_read_3hop(params);
    let numa_remote = numa_load_latency(params, true);
    println!("\noperation latencies (ns):");
    println!("  S-COMA local hit (clsSRAM check passes) : {hit}");
    println!("  S-COMA 2-hop read miss                  : {miss2}");
    println!("  S-COMA 3-hop read miss (owner recall)   : {miss3}");
    println!("  S-COMA write upgrade                    : {upgrade}");
    println!("  NUMA remote load (firmware both ends)   : {numa_remote}");
    println!(
        "\nS-COMA turns local DRAM into an L3 cache: after the first miss, the line\n\
         is local and the aBIU's clsSRAM check adds nothing observable; NUMA pays\n\
         the firmware path on every access."
    );
}
