//! The five block-transfer implementations (paper §6) and their
//! experiment driver.
//!
//! Approach 1 lives here entirely (aP programs that packetize into Basic
//! messages); approaches 2–5 are requests to the firmware
//! (`sv-firmware::xfer`) issued through the layer-0 API. The driver
//! [`run_block_transfer`] measures one `(approach, size)` point: latency
//! to the completion notification, latency until the receiver has
//! actually read every byte, achieved bandwidth, processor occupancies,
//! and end-to-end data verification.

use crate::api::{request_transfer, ReadRegion, RecvBasic};
use crate::app::{AppEventKind, Env, Program, Seq, Step, StoreData};
use crate::machine::{Machine, NodeLib};
use crate::metrics::{XferMeasurement, XferPoint};
use crate::params::SystemParams;
use sv_firmware::proto::{Approach, XferReq};
use sv_niu::msg::MsgHeader;

/// Source buffer address in the sender's DRAM.
pub const SRC_ADDR: u64 = 0x0010_0000;
/// Destination address in the receiver's DRAM (approaches 1–3).
pub const DST_ADDR_DRAM: u64 = 0x0020_0000;
/// Destination offset inside the S-COMA region (approaches 4–5, which
/// rely on clsSRAM gating of the destination).
pub const DST_SCOMA_OFF: u64 = 0x0010_0000;

/// Default data bytes per approach-1 Basic message (8 bytes of the
/// 88-byte payload carry the destination address).
pub const A1_CHUNK: u32 = 80;

/// Largest per-message data chunk approach 1 can carry: the 88-byte
/// Basic wire format minus the 8-byte destination-address meta word.
/// Also well under the `u8` message-length header field, so a validated
/// chunk can never truncate the header encoding.
pub const A1_CHUNK_MAX: u32 = 80;

/// Destination address for an approach.
pub fn dst_addr_for(params: &SystemParams, approach: Approach) -> u64 {
    match approach {
        Approach::OptimisticSp | Approach::OptimisticHw => params.map.scoma_base + DST_SCOMA_OFF,
        _ => DST_ADDR_DRAM,
    }
}

// =========================================================================
// Approach 1: the aPs move everything.
// =========================================================================

#[derive(Debug, Clone, Copy, PartialEq)]
enum A1SendState {
    Next,
    PollSpace,
    ReadData { off: u32 },
    WriteHeader,
    WriteMeta,
    WritePayload { off: u32 },
    PtrUpdate,
}

/// Approach-1 sender: read each chunk from DRAM, packetize it into a
/// Basic message (8-byte destination-address meta + 80 bytes of data),
/// launch.
pub struct A1Send {
    lib: NodeLib,
    dst_node: u16,
    src_addr: u64,
    dst_addr: u64,
    len: u32,
    sent: u32,
    state: A1SendState,
    chunk: Vec<u8>,
    /// Data bytes per message; validated ≤ [`A1_CHUNK_MAX`] at
    /// construction so the `8 + chunk` Basic header length can neither
    /// exceed the wire format nor silently truncate to `u8`.
    chunk_bytes: u32,
    producer: u16,
    consumer_seen: u16,
}

impl A1Send {
    /// Transfer `[src_addr, +len)` to `dst_addr` at `dst_node` using the
    /// default [`A1_CHUNK`]-byte chunks.
    pub fn new(lib: &NodeLib, dst_node: u16, src_addr: u64, dst_addr: u64, len: u32) -> Self {
        Self::try_with_chunk(lib, dst_node, src_addr, dst_addr, len, A1_CHUNK)
            .expect("A1_CHUNK is a valid chunk size")
    }

    /// Transfer with an explicit per-message chunk size, validating it
    /// at construction: `chunk_bytes` must be a nonzero multiple of 8
    /// no larger than [`A1_CHUNK_MAX`]. Before this check existed an
    /// oversized chunk truncated the Basic header's `u8` length field
    /// (e.g. a 256-byte chunk encoded as length 8), silently corrupting
    /// the stream at the receiver.
    pub fn try_with_chunk(
        lib: &NodeLib,
        dst_node: u16,
        src_addr: u64,
        dst_addr: u64,
        len: u32,
        chunk_bytes: u32,
    ) -> Result<Self, crate::api::ApiError> {
        assert_eq!(len % 8, 0);
        if chunk_bytes == 0 || !chunk_bytes.is_multiple_of(8) || chunk_bytes > A1_CHUNK_MAX {
            return Err(crate::api::ApiError::BadChunkSize {
                chunk: chunk_bytes as usize,
                max: A1_CHUNK_MAX as usize,
            });
        }
        Ok(A1Send {
            lib: *lib,
            dst_node,
            src_addr,
            dst_addr,
            len,
            sent: 0,
            state: A1SendState::Next,
            chunk: Vec::with_capacity(chunk_bytes as usize),
            chunk_bytes,
            producer: 0,
            consumer_seen: 0,
        })
    }

    fn chunk_len(&self) -> u32 {
        self.chunk_bytes.min(self.len - self.sent)
    }
}

impl Program for A1Send {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        loop {
            match self.state {
                A1SendState::Next => {
                    if self.sent >= self.len {
                        return Step::Done;
                    }
                    if self.producer.wrapping_sub(self.consumer_seen) >= self.lib.basic_tx.entries {
                        self.state = A1SendState::PollSpace;
                        return Step::Load {
                            addr: self.lib.asram(self.lib.basic_tx.shadow_off),
                            bytes: 8,
                        };
                    }
                    self.chunk.clear();
                    self.state = A1SendState::ReadData { off: 0 };
                }
                A1SendState::PollSpace => {
                    self.consumer_seen = env.last_load as u16;
                    self.state = A1SendState::Next;
                    if self.producer.wrapping_sub(self.consumer_seen) >= self.lib.basic_tx.entries {
                        return Step::Compute(30);
                    }
                }
                A1SendState::ReadData { off } => {
                    if off > 0 {
                        self.chunk.extend_from_slice(&env.last_load.to_le_bytes());
                    }
                    if off < self.chunk_len() {
                        let a = self.src_addr + (self.sent + off) as u64;
                        self.state = A1SendState::ReadData { off: off + 8 };
                        return Step::Load { addr: a, bytes: 8 };
                    }
                    self.chunk.truncate(self.chunk_len() as usize);
                    self.state = A1SendState::WriteHeader;
                }
                A1SendState::WriteHeader => {
                    let dest = self.lib.user_dest(self.dst_node);
                    // In range by construction: chunk_bytes ≤ A1_CHUNK_MAX,
                    // so 8 + chunk_len() ≤ 88 — the cast cannot truncate.
                    debug_assert!(8 + self.chunk_len() <= u8::MAX as u32);
                    let hdr = MsgHeader::basic(dest, (8 + self.chunk_len()) as u8);
                    let slot = self.lib.basic_tx.slot_off(self.producer);
                    self.state = A1SendState::WriteMeta;
                    return Step::Store {
                        addr: self.lib.asram(slot),
                        data: StoreData::Bytes(hdr.encode().to_vec()),
                    };
                }
                A1SendState::WriteMeta => {
                    let slot = self.lib.basic_tx.slot_off(self.producer);
                    let meta = self.dst_addr + self.sent as u64;
                    self.state = A1SendState::WritePayload { off: 0 };
                    return Step::Store {
                        addr: self.lib.asram(slot + 8),
                        data: StoreData::U64(meta),
                    };
                }
                A1SendState::WritePayload { off } => {
                    if (off as usize) < self.chunk.len() {
                        let end = (off as usize + 8).min(self.chunk.len());
                        let bytes = self.chunk[off as usize..end].to_vec();
                        let slot = self.lib.basic_tx.slot_off(self.producer);
                        self.state = A1SendState::WritePayload { off: off + 8 };
                        return Step::Store {
                            addr: self.lib.asram(slot + 16 + off),
                            data: StoreData::Bytes(bytes),
                        };
                    }
                    self.state = A1SendState::PtrUpdate;
                }
                A1SendState::PtrUpdate => {
                    self.sent += self.chunk_len().min(self.len - self.sent);
                    self.producer = self.producer.wrapping_add(1);
                    let q = self.lib.basic_tx.q;
                    self.state = A1SendState::Next;
                    return Step::Store {
                        addr: self.lib.map.ptr_update_addr(false, q, self.producer),
                        data: StoreData::U64(0),
                    };
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum A1RecvState {
    Poll,
    CheckPoll,
    ReadHeader,
    CheckHeader,
    ReadMeta,
    ReadBody { off: u32 },
    WriteBody { off: u32 },
    PtrUpdate,
}

/// Approach-1 receiver: read each message out of the receive queue and
/// copy its data to the destination address it names.
pub struct A1Recv {
    lib: NodeLib,
    total: u32,
    received: u32,
    state: A1RecvState,
    consumer: u16,
    producer_seen: u16,
    cur_dst: u64,
    cur_len: u32,
    buf: Vec<u8>,
}

impl A1Recv {
    /// Expect `total` bytes of transfer data.
    pub fn new(lib: &NodeLib, total: u32) -> Self {
        A1Recv {
            lib: *lib,
            total,
            received: 0,
            state: A1RecvState::Poll,
            consumer: 0,
            producer_seen: 0,
            cur_dst: 0,
            cur_len: 0,
            buf: Vec::new(),
        }
    }
}

impl Program for A1Recv {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        loop {
            match self.state {
                A1RecvState::Poll => {
                    if self.received >= self.total {
                        // Copy complete: this *is* the notification.
                        env.emit(AppEventKind::NotifyReceived { xfer_id: 0 });
                        return Step::Done;
                    }
                    if self.consumer != self.producer_seen {
                        self.state = A1RecvState::ReadHeader;
                        continue;
                    }
                    self.state = A1RecvState::CheckPoll;
                    return Step::Load {
                        addr: self.lib.asram(self.lib.basic_rx.shadow_off),
                        bytes: 8,
                    };
                }
                A1RecvState::CheckPoll => {
                    self.producer_seen = env.last_load as u16;
                    if self.consumer == self.producer_seen {
                        self.state = A1RecvState::Poll;
                        return Step::Compute(30);
                    }
                    self.state = A1RecvState::ReadHeader;
                }
                A1RecvState::ReadHeader => {
                    let slot = self.lib.basic_rx.slot_off(self.consumer);
                    self.state = A1RecvState::CheckHeader;
                    return Step::Load {
                        addr: self.lib.asram(slot),
                        bytes: 8,
                    };
                }
                A1RecvState::CheckHeader => {
                    let hdr = env.last_load.to_le_bytes();
                    let (_src, _lq, len) = sv_niu::niu::decode_rx_slot(&hdr);
                    self.cur_len = len as u32 - 8;
                    self.state = A1RecvState::ReadMeta;
                    let slot = self.lib.basic_rx.slot_off(self.consumer);
                    return Step::Load {
                        addr: self.lib.asram(slot + 8),
                        bytes: 8,
                    };
                }
                A1RecvState::ReadMeta => {
                    self.cur_dst = env.last_load;
                    self.buf.clear();
                    self.state = A1RecvState::ReadBody { off: 0 };
                }
                A1RecvState::ReadBody { off } => {
                    if off > 0 {
                        self.buf.extend_from_slice(&env.last_load.to_le_bytes());
                    }
                    if off < self.cur_len {
                        let slot = self.lib.basic_rx.slot_off(self.consumer);
                        self.state = A1RecvState::ReadBody { off: off + 8 };
                        return Step::Load {
                            addr: self.lib.asram(slot + 16 + off),
                            bytes: 8,
                        };
                    }
                    self.buf.truncate(self.cur_len as usize);
                    self.state = A1RecvState::WriteBody { off: 0 };
                }
                A1RecvState::WriteBody { off } => {
                    if (off as usize) < self.buf.len() {
                        let end = (off as usize + 8).min(self.buf.len());
                        let bytes = self.buf[off as usize..end].to_vec();
                        let a = self.cur_dst + off as u64;
                        self.state = A1RecvState::WriteBody { off: off + 8 };
                        return Step::Store {
                            addr: a,
                            data: StoreData::Bytes(bytes),
                        };
                    }
                    self.received += self.cur_len;
                    self.state = A1RecvState::PtrUpdate;
                }
                A1RecvState::PtrUpdate => {
                    self.consumer = self.consumer.wrapping_add(1);
                    let q = self.lib.basic_rx.q;
                    self.state = A1RecvState::Poll;
                    return Step::Store {
                        addr: self.lib.map.ptr_update_addr(true, q, self.consumer),
                        data: StoreData::U64(0),
                    };
                }
            }
        }
    }
}

// =========================================================================
// Experiment driver
// =========================================================================

/// One `(approach, size)` experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct XferSpec {
    /// Transfer approach (1-5).
    pub approach: Approach,
    /// Length in bytes.
    pub len: u32,
    /// Verify the destination bytes against the source pattern.
    pub verify: bool,
}

/// Load one `len`-byte transfer from node 0 to node 1 of `m`: the source
/// pattern at [`SRC_ADDR`], the sender, and a receiver that awaits the
/// data (approach 1) or the notification, then reads the destination
/// region. Returns the destination address.
pub fn load_block_transfer(
    m: &mut Machine,
    approach: Approach,
    len: u32,
    pattern_seed: u64,
) -> u64 {
    m.nodes[0]
        .mem
        .fill_pattern(SRC_ADDR, len as usize, pattern_seed);
    let dst = dst_addr_for(&m.params, approach);
    let lib0 = m.lib(0);
    let lib1 = m.lib(1);
    let recv: Box<dyn Program> = match approach {
        Approach::ApDirect => {
            m.load_program(0, A1Send::new(&lib0, 1, SRC_ADDR, dst, len));
            Box::new(A1Recv::new(&lib1, len))
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
            Box::new(RecvBasic::expecting(&lib1, 1))
        }
    };
    m.load_program(1, Seq::new(vec![recv, Box::new(ReadRegion::new(dst, len))]));
    dst
}

/// Run one block transfer between node 0 (sender) and node 1 (receiver)
/// and measure it.
pub fn run_block_transfer(params: SystemParams, spec: XferSpec) -> XferPoint {
    let mut m = Machine::builder(2).params(params).build();
    let pattern_seed = params.seed ^ spec.len as u64;
    let dst = load_block_transfer(&mut m, spec.approach, spec.len, pattern_seed);

    let end = match m.run_to_quiescence_capped(10_000_000_000) {
        Ok(t) => t,
        Err(t) => panic!("approach {:?} size {} hung at {t}", spec.approach, spec.len),
    };

    let notify = m
        .event_time(1, |k| matches!(k, AppEventKind::NotifyReceived { .. }))
        .unwrap_or(end);
    let used = m
        .event_time(
            1,
            |k| matches!(k, AppEventKind::RegionDone { addr, .. } if *addr == dst),
        )
        .unwrap_or(end);
    let sender_done = m
        .event_time(0, |k| matches!(k, AppEventKind::ProgramDone))
        .unwrap_or(end);
    let receiver_done = m
        .event_time(1, |k| matches!(k, AppEventKind::ProgramDone))
        .unwrap_or(end);

    let verified = !spec.verify || {
        let got = m.mem_read(1, dst, spec.len as usize);
        let mut want = sv_membus::MemoryArray::new();
        want.fill_pattern(0, spec.len as usize, pattern_seed);
        got == want.read_vec(0, spec.len as usize)
    };

    // Bandwidth: for approaches 1-3 the notification marks "all data
    // arrived", the quantity Figure 4 plots. For the optimistic
    // approaches the notification is deliberately early, so their
    // bandwidth is measured over time-to-use (which overlaps the
    // receiver's reading with the tail of the transfer).
    let bw_window = match spec.approach {
        Approach::OptimisticSp | Approach::OptimisticHw => used.ns(),
        _ => notify.ns(),
    };
    XferPoint {
        approach: spec.approach as u8,
        bytes: spec.len,
        latency_notify_ns: notify.ns(),
        latency_use_ns: used.ns(),
        bandwidth_mb_s: sv_sim::stats::mb_per_s(spec.len as u64, bw_window.max(1)),
        sender_ap_busy_ns: sender_done.ns(),
        receiver_ap_busy_ns: receiver_done.ns(),
        sp_busy_ns: m.total_sp_busy_ns(),
        verified,
    }
}

/// Run one approach-1 transfer with an explicit chunk size (test hook
/// for the chunk-size validation path).
#[doc(hidden)]
pub fn run_a1_with_chunk(
    params: SystemParams,
    len: u32,
    chunk_bytes: u32,
) -> Result<bool, crate::api::ApiError> {
    let mut m = Machine::builder(2).params(params).build();
    let pattern_seed = params.seed ^ len as u64;
    m.nodes[0]
        .mem
        .fill_pattern(SRC_ADDR, len as usize, pattern_seed);
    let lib0 = m.lib(0);
    let lib1 = m.lib(1);
    let send = A1Send::try_with_chunk(&lib0, 1, SRC_ADDR, DST_ADDR_DRAM, len, chunk_bytes)?;
    m.load_program(0, send);
    m.load_program(1, A1Recv::new(&lib1, len));
    m.run_to_quiescence_capped(10_000_000_000)
        .unwrap_or_else(|t| panic!("a1 chunk {chunk_bytes} hung at {t}"));
    let got = m.mem_read(1, DST_ADDR_DRAM, len as usize);
    let mut want = sv_membus::MemoryArray::new();
    want.fill_pattern(0, len as usize, pattern_seed);
    Ok(got == want.read_vec(0, len as usize))
}

/// Sweep one approach across transfer sizes.
pub fn sweep_sizes(params: SystemParams, approach: Approach, sizes: &[u32]) -> XferMeasurement {
    let points = sizes
        .iter()
        .map(|&len| {
            run_block_transfer(
                params,
                XferSpec {
                    approach,
                    len,
                    verify: true,
                },
            )
        })
        .collect();
    XferMeasurement {
        approach: approach as u8,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiError;

    #[test]
    fn oversized_chunk_is_rejected_not_truncated() {
        // Regression: 8 + 256 encoded as `(264) as u8` == 8, a header
        // announcing an empty payload — the receiver would copy zero
        // bytes per message and spin forever. Construction now rejects
        // every chunk the u8-length Basic header cannot carry.
        let m = Machine::builder(2).build();
        let lib = m.lib(0);
        for bad in [0u32, 12, 88, 256, 1024] {
            let r = A1Send::try_with_chunk(&lib, 1, SRC_ADDR, DST_ADDR_DRAM, 1024, bad);
            assert!(
                matches!(r, Err(ApiError::BadChunkSize { chunk, max: 80 }) if chunk == bad as usize),
                "chunk {bad} must be rejected"
            );
        }
    }

    #[test]
    fn valid_small_chunk_transfers_correctly() {
        // A non-default (but valid) chunk size still moves every byte:
        // 40-byte chunks over a 720-byte transfer = 18 messages.
        let ok = run_a1_with_chunk(SystemParams::default(), 720, 40).unwrap();
        assert!(ok, "destination bytes must match the source pattern");
    }

    #[test]
    fn default_chunk_is_valid() {
        let m = Machine::builder(2).build();
        let lib = m.lib(0);
        assert!(A1Send::try_with_chunk(&lib, 1, SRC_ADDR, DST_ADDR_DRAM, 1024, A1_CHUNK).is_ok());
    }
}
