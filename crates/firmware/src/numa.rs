//! NUMA firmware protocol.
//!
//! The default NUMA mechanism of the paper: the aBIU passes every aP bus
//! operation in the 1 GB NUMA region to the sP; firmware forwards it to
//! the home node, whose firmware performs the actual DRAM access through
//! the ordered command queue and (for loads) sends the data back. Loads
//! stall the aP via bus retries until the reply arrives; stores are
//! posted.
//!
//! Reply composition uses the staging pattern the hardware encourages:
//! write the message meta into sSRAM, BusRead the data beside it, then a
//! SendMsg that reads the completed message — all in one ordered queue.

use crate::engine::{staging, Firmware, Q_PROTO};
use crate::proto::{encode_addr_msg, op};
use bytes::Bytes;
use sv_arctic::Priority;
use sv_niu::msg::MsgHeader;
use sv_niu::{LocalCmd, Niu, SramSel};
use sv_sim::stats::Counter;

/// NUMA service statistics.
#[derive(Debug, Default)]
pub struct NumaService {
    /// Load misses.
    pub load_misses: Counter,
    /// Stores forwarded.
    pub stores_forwarded: Counter,
    /// Home reads.
    pub home_reads: Counter,
    /// Home writes.
    pub home_writes: Counter,
    /// Replies delivered.
    pub replies: Counter,
}

/// Layout of the 24-byte NUMA reply/write message:
/// `[op:u64][addr:u64][data:u64]`.
fn encode_meta(opcode: u8) -> u64 {
    opcode as u64
}

/// Decode a 24-byte `[op][addr][data]` message.
pub fn decode_numa24(b: &[u8]) -> Option<(u8, u64, u64)> {
    if b.len() < 24 {
        return None;
    }
    Some((
        b[0],
        u64::from_le_bytes(b[8..16].try_into().ok()?),
        u64::from_le_bytes(b[16..24].try_into().ok()?),
    ))
}

impl Firmware {
    /// Requester side: a NUMA load missed; ask the home node.
    pub(crate) fn numa_on_load_miss(&mut self, cycle: u64, addr: u64, niu: &mut Niu) {
        self.numa.load_misses.bump();
        let home = self.cfg.numa_home(addr);
        let svc_lq = self.cfg.svc_lq;
        niu.sp().push_cmd(
            Q_PROTO,
            LocalCmd::SendDirect {
                node: home,
                logical_q: svc_lq,
                priority: Priority::Low,
                data: encode_addr_msg(op::NUMA_READ, addr),
                tagon: None,
            },
        );
        self.charge(cycle, self.params.numa_req_cycles);
    }

    /// Requester side: forward a posted NUMA store to its home.
    pub(crate) fn numa_on_store(&mut self, cycle: u64, addr: u64, data: Bytes, niu: &mut Niu) {
        self.numa.stores_forwarded.bump();
        let home = self.cfg.numa_home(addr);
        let mut word = [0u8; 8];
        word[..data.len().min(8)].copy_from_slice(&data[..data.len().min(8)]);
        let mut msg = Vec::with_capacity(24);
        msg.extend_from_slice(&encode_meta(op::NUMA_WRITE).to_le_bytes());
        msg.extend_from_slice(&addr.to_le_bytes());
        msg.extend_from_slice(&word);
        let svc_lq = self.cfg.svc_lq;
        niu.sp().push_cmd(
            Q_PROTO,
            LocalCmd::SendDirect {
                node: home,
                logical_q: svc_lq,
                priority: Priority::Low,
                data: Bytes::from(msg),
                tagon: None,
            },
        );
        self.charge(cycle, self.params.numa_req_cycles);
    }

    /// Home side: service a read — fetch the word from home DRAM and
    /// reply with the data (high priority, so replies never deadlock
    /// behind requests).
    pub(crate) fn numa_on_home_read(&mut self, cycle: u64, src: u16, data: &Bytes, niu: &mut Niu) {
        let Some((_, addr)) = crate::proto::decode_addr_msg(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        self.numa.home_reads.bump();
        let st = staging::NUMA_READ;
        let svc_lq = self.cfg.svc_lq;
        let mut sp = niu.sp();
        sp.push_cmd(
            Q_PROTO,
            LocalCmd::WriteSramU64 {
                sram: SramSel::S,
                addr: st,
                data: encode_meta(op::NUMA_DATA),
            },
        );
        sp.push_cmd(
            Q_PROTO,
            LocalCmd::WriteSramU64 {
                sram: SramSel::S,
                addr: st + 8,
                data: addr,
            },
        );
        sp.push_cmd(
            Q_PROTO,
            LocalCmd::BusRead {
                dram_addr: addr & !7,
                sram: SramSel::S,
                sram_addr: st + 16,
                len: 8,
            },
        );
        sp.push_cmd(
            Q_PROTO,
            LocalCmd::SendMsg {
                header: MsgHeader::basic(0, 24),
                sram: SramSel::S,
                addr: st,
                raw_node: Some((src, svc_lq, Priority::High)),
            },
        );
        self.charge(cycle, self.params.numa_home_cycles);
    }

    /// Home side: land a posted store in home DRAM.
    pub(crate) fn numa_on_home_write(&mut self, cycle: u64, data: &Bytes, niu: &mut Niu) {
        let Some((_, addr, word)) = decode_numa24(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        self.numa.home_writes.bump();
        let st = staging::NUMA_WRITE;
        let mut sp = niu.sp();
        sp.push_cmd(
            Q_PROTO,
            LocalCmd::WriteSramU64 {
                sram: SramSel::S,
                addr: st,
                data: word,
            },
        );
        sp.push_cmd(
            Q_PROTO,
            LocalCmd::BusWrite {
                dram_addr: addr & !7,
                sram: SramSel::S,
                sram_addr: st,
                len: 8,
            },
        );
        self.charge(cycle, self.params.numa_home_cycles);
    }

    /// Requester side: the reply arrived; release the stalled aP load.
    pub(crate) fn numa_on_data(&mut self, cycle: u64, data: &Bytes, niu: &mut Niu) {
        let Some((_, addr, word)) = decode_numa24(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        self.numa.replies.bump();
        niu.sp()
            .numa_supply(addr, Bytes::copy_from_slice(&word.to_le_bytes()));
        self.charge(cycle, self.params.numa_req_cycles);
    }
}

sv_sim::checkpointed! {
    struct NumaService {
        load_misses,
        stores_forwarded,
        home_reads,
        home_writes,
        replies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numa24_decode() {
        let mut b = Vec::new();
        b.extend_from_slice(&(op::NUMA_DATA as u64).to_le_bytes());
        b.extend_from_slice(&0x1234u64.to_le_bytes());
        b.extend_from_slice(&0x5678u64.to_le_bytes());
        assert_eq!(decode_numa24(&b), Some((op::NUMA_DATA, 0x1234, 0x5678)));
        assert_eq!(decode_numa24(&b[..10]), None);
    }
}
