//! The paper's §6 experiment in miniature: move a buffer from node 0 to
//! node 1 with each of the five block-transfer implementations and
//! compare latency, bandwidth and processor occupancy.
//!
//! Run with: `cargo run --release -p sv-examples --bin block_transfer [bytes]`

use voyager::blockxfer::{run_block_transfer, XferSpec};
use voyager::firmware::proto::Approach;
use voyager::SystemParams;

fn main() {
    let len: u32 = match std::env::args().nth(1) {
        None => 128 * 1024,
        Some(s) => match s.parse() {
            Ok(v) if v > 0 && v % 32 == 0 => v,
            Ok(v) => {
                eprintln!("error: size must be a positive multiple of 32 bytes (got {v})");
                std::process::exit(2);
            }
            Err(_) => {
                eprintln!("error: '{s}' is not a number; usage: block_transfer [bytes]");
                std::process::exit(2);
            }
        },
    };
    println!("transferring {len} bytes node 0 -> node 1 with every approach\n");
    println!(
        "{:<18} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "approach", "notify (us)", "use (us)", "BW MB/s", "sP busy(us)", "verified"
    );
    for (a, label) in [
        (Approach::ApDirect, "1: aP-direct"),
        (Approach::SpManaged, "2: sP-managed"),
        (Approach::BlockHw, "3: block-hw"),
        (Approach::OptimisticSp, "4: optimistic-sP"),
        (Approach::OptimisticHw, "5: optimistic-hw"),
    ] {
        let p = run_block_transfer(
            SystemParams::default(),
            XferSpec {
                approach: a,
                len,
                verify: true,
            },
        );
        println!(
            "{:<18} {:>12.1} {:>12.1} {:>10.1} {:>12.1} {:>10}",
            label,
            p.latency_notify_ns as f64 / 1000.0,
            p.latency_use_ns as f64 / 1000.0,
            p.bandwidth_mb_s,
            p.sp_busy_ns as f64 / 1000.0,
            p.verified
        );
    }
    println!(
        "\nthe paper's result: approach 1 is worst (data crosses each aP bus twice per\n\
         side), approach 2 shifts the cost to the sPs, approach 3 runs at hardware\n\
         speed, and the optimistic approaches (4, 5) hide transfer latency behind the\n\
         receiver's own reads via S-COMA clsSRAM gating."
    );
}
