//! Quickstart: build a two-node StarT-Voyager machine, send messages
//! with each mechanism, and read the results.
//!
//! Run with: `cargo run --release -p sv-examples --bin quickstart`

use voyager::api::{BasicMsg, RecvBasic, RecvExpress, SendBasic, SendExpress};
use voyager::app::{AppEventKind, Seq};
use voyager::Machine;

fn main() {
    // A two-node machine with the default 1998-calibrated parameters:
    // 166 MHz 604e aPs, 66 MHz bus, 160 MB/s Arctic links.
    let mut m = Machine::builder(2).build();
    let lib0 = m.lib(0);
    let lib1 = m.lib(1);

    // Node 0: one Basic message, one Basic+TagOn message, then three
    // Express messages, all to node 1.
    let basic = vec![
        BasicMsg::new(lib0.user_dest(1), b"hello from node 0".to_vec()),
        BasicMsg::new(lib0.user_dest(1), b"with 48B of TagOn ->".to_vec())
            .with_tagon((0..48).collect()),
    ];
    let express: Vec<(u16, u8, u32)> = (0..3)
        .map(|i| (lib0.express_dest(1), i as u8, 0xC0DE + i))
        .collect();
    m.load_program(
        0,
        Seq::new(vec![
            Box::new(SendBasic::new(&lib0, basic)),
            Box::new(SendExpress::new(&lib0, express)),
        ]),
    );

    // Node 1: receive two Basic messages, then three Express messages.
    m.load_program(
        1,
        Seq::new(vec![
            Box::new(RecvBasic::expecting(&lib1, 2)),
            Box::new(RecvExpress::expecting(&lib1, 3)),
        ]),
    );

    let end = m.run_to_quiescence();
    println!("simulation finished at {end}");

    for (src, data) in m.received_messages(1) {
        println!(
            "basic message from node {src}: {:?} ({} bytes)",
            String::from_utf8_lossy(&data[..data.len().min(20)]),
            data.len()
        );
    }
    for e in m.events(1) {
        if let AppEventKind::ExpressReceived { src, tag, word } = e.kind {
            println!(
                "express message from node {src}: tag={tag} word={:#x} (at {})",
                u32::from_le_bytes(word),
                e.at
            );
        }
    }

    // Every measurement hook is available afterward:
    println!(
        "\nnetwork: {} packets, mean latency {} ns; node 1 NIU delivered {} messages",
        m.network.stats.delivered.get(),
        m.network.stats.latency.mean().unwrap_or(0.0),
        m.nodes[1].niu.ctrl.stats.msgs_delivered.get(),
    );
}
