//! Block-transfer firmware: approaches 2–5 of the paper's evaluation.
//!
//! | Approach | Sender side | Receiver side |
//! |---|---|---|
//! | 2 | firmware issues `BusRead` + TagOn `SendDirect` per chunk, alternating the two command queues for overlap | firmware issues `BusWrite` straight out of the receive slot + an in-order pointer update per chunk; completion notify after the queue quiesces |
//! | 3 | firmware issues one chained `Block(ReadTx)` per page; the hardware streams | none — data lands through the remote command queue; the notify rides the same ordered stream after the last page |
//! | 4 | as 3, but each page's `ReadTx` carries a page marker to the *receiver's sP*, which updates clsSRAM states as data arrives and notifies the job early at 25% | per-page `SetClsRange(ReadWrite)` + early notify |
//! | 5 | as 3 with `set_cls` delegated to the destination aBIU (`WriteDramSetCls`), early notify attached to the page crossing 25% | setup only (`SetClsRange(Pending)` + GO) |
//!
//! Approach 1 involves no firmware at all: the aP library packetizes into
//! Basic messages itself (see `voyager::blockxfer`).

use crate::engine::{asram_staging, Firmware, Q_PROTO, Q_SVC};
use crate::proto::{
    encode_addr_msg, encode_notify, op, Approach, XferData, XferPage, XferReq, XferSetup,
    XFER_DATA_LEN,
};
use bytes::Bytes;
use std::collections::HashMap;
use sv_arctic::Priority;
use sv_membus::CACHE_LINE;
use sv_niu::{BlockOp, ClsState, LocalCmd, Niu, SramSel};
use sv_sim::stats::Counter;

/// Approach-2 chunk size: the XferData header (18 B) plus the chunk must
/// fit the 88-byte packet payload.
pub const A2_CHUNK: u32 = 64;

/// Deepest a command queue may be for a transfer step to feed it. A step
/// pushes at most three commands, so the queues stay clear of the 48-deep
/// backpressure stall in [`Firmware::tick`].
const XFER_CMDQ_LIMIT: usize = 40;

/// Sender progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendPhase {
    /// Approaches 4/5: waiting for the receiver's GO after setup.
    WaitGo,
    Streaming,
}

/// One outbound transfer.
#[derive(Debug)]
pub struct SendXfer {
    /// The originating request.
    pub req: XferReq,
    /// Bytes sent so far.
    pub sent: u32,
    phase: SendPhase,
    /// Approach 2: which command queue takes the next chunk.
    toggle: usize,
    /// Approach 5: the early notify has been attached to a page.
    notify25_sent: bool,
}

/// One inbound transfer (approach 2 data tracking, approach 4 state
/// management).
#[derive(Debug)]
pub struct RecvXfer {
    /// Total transfer size in bytes.
    pub total: u32,
    /// Bytes received so far.
    pub received: u32,
    /// Logical queue that receives the completion notification.
    pub notify_lq: u16,
    /// Transfer approach (1-5).
    pub approach: u8,
    /// Whether the (early) notification has been delivered.
    pub notified: bool,
    /// Approach 2: all data seen; notify once the write queue quiesces.
    want_quiesce_notify: bool,
}

/// An active tracked-region flush (the diff-ing extension): a sweep over
/// the clsSRAM recording of `[base, +len)`, shipping only dirty lines.
#[derive(Debug)]
pub struct FlushXfer {
    /// Transfer identifier.
    pub xfer_id: u16,
    /// First clsSRAM line of the region.
    pub first_line: u64,
    /// Lines in the region.
    pub count: u64,
    /// Next line to examine.
    pub cursor: u64,
    /// Region base address.
    pub base: u64,
    /// Destination byte address.
    pub dst_addr: u64,
    /// Destination node.
    pub dst_node: u16,
    /// Logical queue that receives the completion notification.
    pub notify_lq: u16,
    /// Lines sent.
    pub lines_sent: u64,
}

/// Transfer service state + statistics.
#[derive(Debug, Default)]
pub struct XferService {
    sends: Vec<SendXfer>,
    recvs: HashMap<(u16, u16), RecvXfer>,
    flushes: Vec<FlushXfer>,
    rr: usize,
    /// Transfer requests accepted.
    pub requests: Counter,
    /// Completed sends.
    pub completed_sends: Counter,
    /// Chunks sent.
    pub chunks_sent: Counter,
    /// Pages issued.
    pub pages_issued: Counter,
    /// Completion notifications sent.
    pub notifies: Counter,
    /// Dirty lines shipped by tracked-region flushes.
    pub flush_lines_sent: Counter,
    /// Clean lines skipped by tracked-region flushes (the bytes diff-ing
    /// saved).
    pub flush_lines_skipped: Counter,
}

impl XferService {
    /// Whether any transfer is still in flight on this node.
    pub fn has_work(&self) -> bool {
        !self.sends.is_empty() || !self.recvs.is_empty() || !self.flushes.is_empty()
    }

    /// Whether `Firmware::step_xfers` would make progress now. Built
    /// from the step's own gates, so a transfer that waits asks for no
    /// engagement: on a command queue past `XFER_CMDQ_LIMIT` (40), a
    /// busy block unit, an in-order wait, the receiver's GO or an
    /// approach-4 receive's pages. Each of those clears through the NIU,
    /// and the event loop derives the firmware's wake again whenever the
    /// NIU runs or a bus completion reaches it.
    pub fn has_actionable(&self, niu: &Niu) -> bool {
        self.flush_ready(niu)
            || self.quiesce_notify_ready(niu)
            || self.sends.iter().any(|s| s.ready(niu))
    }

    /// A tracked-region flush is active and its command queue has room.
    fn flush_ready(&self, niu: &Niu) -> bool {
        !self.flushes.is_empty() && niu.ctrl.cmdq[Q_PROTO].len() <= XFER_CMDQ_LIMIT
    }

    /// An approach-2 receive has all its data and the service command
    /// queue has drained, so its completion notify can go.
    fn quiesce_notify_ready(&self, niu: &Niu) -> bool {
        niu.ctrl.cmd_quiescent(Q_SVC)
            && (self.recvs.values()).any(|e| e.want_quiesce_notify && !e.notified)
    }
}

impl SendXfer {
    /// Whether [`Firmware::step_xfers`] would issue this send's next
    /// chunk or page now.
    fn ready(&self, niu: &Niu) -> bool {
        let room = |q: usize| niu.ctrl.cmdq[q].len() <= XFER_CMDQ_LIMIT;
        self.phase == SendPhase::Streaming
            && match self.req.approach {
                Approach::SpManaged => room(self.toggle),
                // One chained block operation per page: wait for the units.
                Approach::BlockHw | Approach::OptimisticSp | Approach::OptimisticHw => {
                    niu.ctrl.block_read.is_none() && niu.ctrl.block_tx.is_none() && room(Q_PROTO)
                }
                Approach::ApDirect => false,
            }
    }
}

impl Firmware {
    /// A local aP asked for a block transfer.
    pub(crate) fn xfer_on_request(&mut self, cycle: u64, data: &Bytes, niu: &mut Niu) {
        let Some(req) = XferReq::decode(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        // Malformed geometry is rejected, not asserted: a hardened
        // firmware survives a buggy (or adversarial) library.
        if req.src_addr % 8 != 0 || req.dst_addr % 8 != 0 || req.len % 8 != 0 {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        }
        self.xfer.requests.bump();
        let phase = match req.approach {
            Approach::SpManaged | Approach::BlockHw => SendPhase::Streaming,
            Approach::OptimisticSp | Approach::OptimisticHw => {
                if req.len % CACHE_LINE as u32 != 0 {
                    // Optimistic transfers are line-granular.
                    self.stats.proto_errors.bump();
                    self.charge(cycle, self.params.dispatch_cycles);
                    return;
                }
                let svc_lq = self.cfg.svc_lq;
                let setup = XferSetup {
                    xfer_id: req.xfer_id,
                    dst_addr: req.dst_addr,
                    len: req.len,
                    notify_lq: req.notify_lq,
                    approach: req.approach as u8,
                };
                niu.sp().push_cmd(
                    Q_PROTO,
                    LocalCmd::SendDirect {
                        node: req.dst_node,
                        logical_q: svc_lq,
                        priority: Priority::Low,
                        data: setup.encode(),
                        tagon: None,
                    },
                );
                SendPhase::WaitGo
            }
            Approach::ApDirect => {
                // Approach 1 never enters firmware; a request here is a
                // library bug.
                self.stats.proto_errors.bump();
                self.charge(cycle, self.params.dispatch_cycles);
                return;
            }
        };
        self.xfer.sends.push(SendXfer {
            req,
            sent: 0,
            phase,
            toggle: 0,
            notify25_sent: false,
        });
        self.charge(cycle, self.params.xfer_setup_cycles);
    }

    /// Approach 4/5 receiver: prepare the destination region.
    pub(crate) fn xfer_on_setup(&mut self, cycle: u64, src: u16, data: &Bytes, niu: &mut Niu) {
        let Some(s) = XferSetup::decode(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        let first = niu.map.scoma_line(s.dst_addr);
        let count = (s.len as u64) / CACHE_LINE;
        let svc_lq = self.cfg.svc_lq;
        let mut sp = niu.sp();
        sp.push_cmd(
            Q_PROTO,
            LocalCmd::SetClsRange {
                first,
                count,
                state: ClsState::Pending,
            },
        );
        // GO is ordered after the range update in the same queue, so the
        // sender can never race data ahead of the gating states.
        sp.push_cmd(
            Q_PROTO,
            LocalCmd::SendDirect {
                node: src,
                logical_q: svc_lq,
                priority: Priority::High,
                data: encode_addr_msg(op::XFER_GO, s.xfer_id as u64),
                tagon: None,
            },
        );
        if s.approach == Approach::OptimisticSp as u8 {
            self.xfer.recvs.insert(
                (src, s.xfer_id),
                RecvXfer {
                    total: s.len,
                    received: 0,
                    notify_lq: s.notify_lq,
                    approach: 4,
                    notified: false,
                    want_quiesce_notify: false,
                },
            );
        }
        self.charge(cycle, self.params.xfer_setup_cycles);
    }

    /// Approach 4/5 sender: receiver says go.
    pub(crate) fn xfer_on_go(&mut self, cycle: u64, data: &Bytes, niu: &mut Niu) {
        let _ = niu;
        if let Some((_, xfer_id)) = crate::proto::decode_addr_msg(data) {
            for s in &mut self.xfer.sends {
                if s.req.xfer_id == xfer_id as u16 && s.phase == SendPhase::WaitGo {
                    s.phase = SendPhase::Streaming;
                    break;
                }
            }
        } else {
            self.stats.proto_errors.bump();
        }
        self.charge(cycle, self.params.dispatch_cycles);
    }

    /// Approach 2 receiver: one data chunk arrived in the service queue.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn xfer_on_data(
        &mut self,
        cycle: u64,
        src: u16,
        data: &Bytes,
        sel: SramSel,
        payload_addr: u32,
        next_ptr: u16,
        niu: &mut Niu,
    ) {
        let svc_q = self.cfg.svc_q;
        let Some(hdr) = XferData::decode(data) else {
            // Still must free the slot.
            self.stats.proto_errors.bump();
            niu.sp().push_cmd(
                Q_SVC,
                LocalCmd::RxPtrUpdate {
                    q: svc_q,
                    consumer: next_ptr,
                },
            );
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        let chunk = (data.len() - XFER_DATA_LEN) as u32;
        let entry = self
            .xfer
            .recvs
            .entry((src, hdr.xfer_id))
            .or_insert(RecvXfer {
                total: hdr.total,
                received: 0,
                notify_lq: hdr.notify_lq,
                approach: 2,
                notified: false,
                want_quiesce_notify: false,
            });
        entry.received += chunk;
        if entry.received >= entry.total {
            entry.want_quiesce_notify = true;
        }
        // Write the chunk from the receive slot straight into DRAM, then
        // free the slot — ordered, so the buffer cannot be recycled under
        // the bus write.
        let mut sp = niu.sp();
        sp.push_cmd(
            Q_SVC,
            LocalCmd::BusWrite {
                dram_addr: hdr.dst_addr,
                sram: sel,
                sram_addr: payload_addr + XFER_DATA_LEN as u32,
                len: chunk,
            },
        );
        sp.push_cmd(
            Q_SVC,
            LocalCmd::RxPtrUpdate {
                q: svc_q,
                consumer: next_ptr,
            },
        );
        self.charge(cycle, self.params.dma_recv_chunk_cycles);
    }

    /// Approach 4 receiver: a page of data has landed (marker is ordered
    /// behind the data on the remote-command stream).
    pub(crate) fn xfer_on_page(&mut self, cycle: u64, src: u16, data: &Bytes, niu: &mut Niu) {
        let Some(p) = XferPage::decode(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        let first = niu.map.scoma_line(p.addr);
        let count = (p.len as u64) / CACHE_LINE;
        niu.sp().push_cmd(
            Q_PROTO,
            LocalCmd::SetClsRange {
                first,
                count,
                state: ClsState::ReadWrite,
            },
        );
        let node = self.cfg.node;
        let mut notify = None;
        let mut done = false;
        if let Some(entry) = self.xfer.recvs.get_mut(&(src, p.xfer_id)) {
            entry.received += p.len;
            if !entry.notified && entry.received as u64 * 4 >= entry.total as u64 {
                entry.notified = true;
                notify = Some((entry.notify_lq, p.xfer_id));
            }
            done = entry.received >= entry.total;
        }
        if let Some((lq, xid)) = notify {
            self.xfer.notifies.bump();
            // Ordered after the SetClsRange above: by the time the job
            // sees the notify, the early states are in place.
            niu.sp().push_cmd(
                Q_PROTO,
                LocalCmd::SendDirect {
                    node,
                    logical_q: lq,
                    priority: Priority::Low,
                    data: encode_notify(xid),
                    tagon: None,
                },
            );
        }
        if done {
            self.xfer.recvs.remove(&(src, p.xfer_id));
        }
        self.charge(cycle, self.params.a4_page_cycles);
    }

    /// A local aP requested a tracked-region flush.
    pub(crate) fn xfer_on_flush(&mut self, cycle: u64, data: &Bytes, niu: &mut Niu) {
        let Some(f) = crate::proto::XferFlush::decode(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        if !f.base.is_multiple_of(CACHE_LINE) || !(f.len as u64).is_multiple_of(CACHE_LINE) {
            // Flush regions must be line-aligned; reject rather than panic.
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        }
        let first_line = niu.map.scoma_line(f.base);
        self.xfer.flushes.push(FlushXfer {
            xfer_id: f.xfer_id,
            first_line,
            count: f.len as u64 / CACHE_LINE,
            cursor: 0,
            base: f.base,
            dst_addr: f.dst_addr,
            dst_node: f.dst_node,
            notify_lq: f.notify_lq,
            lines_sent: 0,
        });
        self.charge(cycle, self.params.xfer_setup_cycles);
    }

    /// Make one unit of progress on an active flush; returns whether
    /// work was done.
    fn step_one_flush(&mut self, cycle: u64, niu: &mut Niu) -> bool {
        if !self.xfer.flush_ready(niu) {
            return false;
        }
        let scan_rate = self.params.flush_scan_lines_per_cycle.max(1);
        // Sweep clean lines until a dirty one (or the end) is found.
        let mut scanned = 0u64;
        let mut skipped = 0u64;
        let mut dirty: Option<u64> = None;
        {
            let f = &mut self.xfer.flushes[0];
            while f.cursor < f.count {
                let line = f.first_line + f.cursor;
                scanned += 1;
                if niu.clssram.get(line) == ClsState::ReadWrite {
                    dirty = Some(f.cursor);
                    break;
                }
                f.cursor += 1;
                skipped += 1;
                if scanned >= 16 * scan_rate {
                    break; // bounded work per engagement
                }
            }
        }
        self.xfer.flush_lines_skipped.add(skipped);
        let f = &mut self.xfer.flushes[0];
        match dirty {
            Some(off_lines) => {
                let off = off_lines * CACHE_LINE;
                let line = f.first_line + off_lines;
                let (node, src, dst) = (f.dst_node, f.base + off, f.dst_addr + off);
                f.cursor += 1;
                f.lines_sent += 1;
                self.xfer.flush_lines_sent.bump();
                let st = crate::engine::staging::SCOMA_GRANT;
                let mut sp = niu.sp();
                // Read the line (snoop-pushing any dirty cached copy),
                // ship it, and mark it clean — ordered.
                sp.push_cmd(
                    Q_PROTO,
                    LocalCmd::BusRead {
                        dram_addr: src,
                        sram: SramSel::S,
                        sram_addr: st,
                        len: CACHE_LINE as u32,
                    },
                );
                sp.push_cmd(
                    Q_PROTO,
                    LocalCmd::SendRemoteWrite {
                        node,
                        remote_addr: dst,
                        sram: SramSel::S,
                        sram_addr: st,
                        len: CACHE_LINE as u32,
                        set_cls: None,
                    },
                );
                sp.push_cmd(
                    Q_PROTO,
                    LocalCmd::SetCls {
                        line,
                        state: ClsState::Invalid,
                    },
                );
                self.charge(cycle, self.params.flush_line_cycles + scanned / scan_rate);
                true
            }
            None => {
                if f.cursor >= f.count {
                    // Sweep complete: notify the requesting job (ordered
                    // after the final line's commands in the same queue).
                    let (node, lq, xid) = (self.cfg.node, f.notify_lq, f.xfer_id);
                    self.xfer.flushes.remove(0);
                    self.xfer.notifies.bump();
                    niu.sp().push_cmd(
                        Q_PROTO,
                        LocalCmd::SendDirect {
                            node,
                            logical_q: lq,
                            priority: Priority::Low,
                            data: encode_notify(xid),
                            tagon: None,
                        },
                    );
                    self.charge(cycle, self.params.notify_cycles);
                } else {
                    // Scanned a clean stretch; charge the sweep.
                    self.charge(cycle, (scanned / scan_rate).max(1));
                }
                true
            }
        }
    }

    /// Step active transfers: one unit of progress per engagement.
    /// Returns whether work was done.
    pub(crate) fn step_xfers(&mut self, cycle: u64, niu: &mut Niu) -> bool {
        if self.step_one_flush(cycle, niu) {
            return true;
        }
        // Approach-2 completion notifies waiting for queue quiescence.
        if self.xfer.quiesce_notify_ready(niu) {
            let node = self.cfg.node;
            let mut fire = None;
            for (k, e) in self.xfer.recvs.iter_mut() {
                if e.want_quiesce_notify && !e.notified {
                    e.notified = true;
                    fire = Some((*k, e.notify_lq));
                    break;
                }
            }
            if let Some((k, lq)) = fire {
                self.xfer.notifies.bump();
                niu.sp().push_cmd(
                    Q_PROTO,
                    LocalCmd::SendDirect {
                        node,
                        logical_q: lq,
                        priority: Priority::Low,
                        data: encode_notify(k.1),
                        tagon: None,
                    },
                );
                self.xfer.recvs.remove(&k);
                self.charge(cycle, self.params.notify_cycles);
                return true;
            }
        }
        if self.xfer.sends.is_empty() {
            return false;
        }
        let n = self.xfer.sends.len();
        for k in 0..n {
            let i = (self.xfer.rr + k) % n;
            if self.step_one_send(cycle, i, niu) {
                self.xfer.rr = (i + 1) % n.max(1);
                return true;
            }
        }
        false
    }

    /// Try to make progress on send `i`; returns whether work was done.
    fn step_one_send(&mut self, cycle: u64, i: usize, niu: &mut Niu) -> bool {
        let (approach, sent, total) = {
            let s = &self.xfer.sends[i];
            if !s.ready(niu) {
                return false;
            }
            (s.req.approach, s.sent, s.req.len)
        };
        match approach {
            Approach::SpManaged => {
                let qi = self.xfer.sends[i].toggle;
                let s = &mut self.xfer.sends[i];
                s.toggle ^= 1;
                let stage = asram_staging::A2[qi];
                let chunk = A2_CHUNK.min(total - sent);
                let hdr = XferData {
                    xfer_id: s.req.xfer_id,
                    dst_addr: s.req.dst_addr + sent as u64,
                    total,
                    notify_lq: s.req.notify_lq,
                };
                let (src_addr, dst_node) = (s.req.src_addr, s.req.dst_node);
                s.sent += chunk;
                let done = s.sent >= total;
                let svc_lq = self.cfg.svc_lq;
                let mut sp = niu.sp();
                sp.push_cmd(
                    qi,
                    LocalCmd::BusRead {
                        dram_addr: src_addr + sent as u64,
                        sram: SramSel::A,
                        sram_addr: stage,
                        len: chunk,
                    },
                );
                sp.push_cmd(
                    qi,
                    LocalCmd::SendDirect {
                        node: dst_node,
                        logical_q: svc_lq,
                        priority: Priority::Low,
                        data: hdr.encode(),
                        tagon: Some((SramSel::A, stage, chunk as u8)),
                    },
                );
                self.xfer.chunks_sent.bump();
                if done {
                    self.xfer.sends.remove(i);
                    self.xfer.completed_sends.bump();
                }
                self.charge(cycle, self.params.dma_chunk_cycles);
                true
            }
            Approach::BlockHw | Approach::OptimisticSp | Approach::OptimisticHw => {
                let page = self.cfg.page;
                let svc_lq = self.cfg.svc_lq;
                let s = &mut self.xfer.sends[i];
                let page_len = page.min(total - sent);
                let last = sent + page_len >= total;
                let notify = match approach {
                    Approach::BlockHw => {
                        last.then(|| (s.req.notify_lq, encode_notify(s.req.xfer_id)))
                    }
                    Approach::OptimisticSp => Some((
                        svc_lq,
                        XferPage {
                            xfer_id: s.req.xfer_id,
                            addr: s.req.dst_addr + sent as u64,
                            len: page_len,
                        }
                        .encode(),
                    )),
                    Approach::OptimisticHw => {
                        let quarter = (total as u64).div_ceil(4);
                        if !s.notify25_sent && (sent + page_len) as u64 >= quarter {
                            s.notify25_sent = true;
                            Some((s.req.notify_lq, encode_notify(s.req.xfer_id)))
                        } else {
                            None
                        }
                    }
                    Approach::SpManaged | Approach::ApDirect => unreachable!(),
                };
                let set_cls = (approach == Approach::OptimisticHw).then_some(ClsState::ReadWrite);
                let op = BlockOp::ReadTx {
                    dram_addr: s.req.src_addr + sent as u64,
                    len: page_len,
                    sram_addr: asram_staging::BLOCK,
                    node: s.req.dst_node,
                    remote_addr: s.req.dst_addr + sent as u64,
                    set_cls,
                    notify,
                };
                s.sent += page_len;
                let done = s.sent >= total;
                niu.sp().push_cmd(Q_PROTO, LocalCmd::Block(op));
                self.xfer.pages_issued.bump();
                if done {
                    self.xfer.sends.remove(i);
                    self.xfer.completed_sends.bump();
                }
                self.charge(cycle, self.params.block_issue_cycles);
                true
            }
            Approach::ApDirect => false,
        }
    }
}

sv_sim::checkpointed! {
    enum SendPhase {
        0 => WaitGo,
        1 => Streaming,
    }
}

sv_sim::checkpointed! {
    struct SendXfer {
        req,
        sent,
        phase,
        toggle,
        notify25_sent,
    }
    // The approach-2 toggle indexes the two command queues.
    validate: |s: &SendXfer| s.toggle <= 1
}

sv_sim::checkpointed! {
    struct RecvXfer {
        total,
        received,
        notify_lq,
        approach,
        notified,
        want_quiesce_notify,
    }
}

sv_sim::checkpointed! {
    struct FlushXfer {
        xfer_id,
        first_line,
        count,
        cursor,
        base,
        dst_addr,
        dst_node,
        notify_lq,
        lines_sent,
    }
}

sv_sim::checkpointed! {
    struct XferService {
        sends,
        recvs,
        flushes,
        rr,
        requests,
        completed_sends,
        chunks_sent,
        pages_issued,
        notifies,
        flush_lines_sent,
        flush_lines_skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FwConfig;
    use crate::params::FwParams;
    use sv_niu::ctrl::BlockTxState;
    use sv_niu::{AddressMap, NiuParams, QueueId};

    fn node0() -> (Firmware, Niu) {
        let fw = Firmware::new(FwConfig::new(0, 2), FwParams::default());
        let niu = Niu::new(0, NiuParams::default(), AddressMap::default());
        (fw, niu)
    }

    fn request(approach: Approach, dst_addr: u64) -> Bytes {
        XferReq {
            approach,
            xfer_id: 7,
            src_addr: 0x10_0000,
            dst_addr,
            len: 16 * 1024,
            dst_node: 1,
            notify_lq: 1,
        }
        .encode()
    }

    /// Fill command queue `q` to `depth` with harmless commands.
    fn fill(niu: &mut Niu, q: usize, depth: usize) {
        while niu.ctrl.cmdq[q].len() < depth {
            let cmd = LocalCmd::SetTxEnabled {
                q: QueueId(0),
                enabled: true,
            };
            assert!(niu.sp().push_cmd(q, cmd));
        }
    }

    #[test]
    fn an_approach_2_send_behind_a_deep_queue_asks_for_no_engagement() {
        let (mut fw, mut niu) = node0();
        fw.xfer_on_request(0, &request(Approach::SpManaged, 0x20_0000), &mut niu);
        let busy = fw.next_wake(0, &niu).expect("a fresh send streams");
        // Past the step's limit but short of the 48-deep backpressure
        // stall, which re-arms the sP at every expiry.
        fill(&mut niu, Q_SVC, XFER_CMDQ_LIMIT + 1);
        assert_eq!(fw.next_wake(0, &niu), None);
        fill(&mut niu, Q_SVC, 48);
        assert_eq!(fw.next_wake(0, &niu), None);
        niu.ctrl.cmdq[Q_SVC].truncate(XFER_CMDQ_LIMIT);
        assert_eq!(fw.next_wake(0, &niu), Some(busy));
    }

    #[test]
    fn a_receiver_awaiting_pages_asks_for_no_engagement() {
        for approach in [Approach::OptimisticSp, Approach::OptimisticHw] {
            let (mut fw, mut niu) = node0();
            let setup = XferSetup {
                xfer_id: 7,
                dst_addr: niu.map.scoma_base,
                len: 16 * 1024,
                notify_lq: 1,
                approach: approach as u8,
            };
            fw.xfer_on_setup(0, 1, &setup.encode(), &mut niu);
            if approach == Approach::OptimisticSp {
                assert!(fw.xfer.has_work(), "quiescence still waits for the pages");
            }
            assert_eq!(fw.next_wake(0, &niu), None, "{approach:?} receiver");
        }
    }

    #[test]
    fn a_send_awaiting_go_asks_for_no_engagement_until_it_arrives() {
        let (mut fw, mut niu) = node0();
        let dst = niu.map.scoma_base;
        fw.xfer_on_request(0, &request(Approach::OptimisticSp, dst), &mut niu);
        assert!(fw.has_work(&niu));
        assert_eq!(fw.next_wake(0, &niu), None, "WaitGo send");
        fw.xfer_on_go(0, &encode_addr_msg(op::XFER_GO, 7), &mut niu);
        assert!(fw.next_wake(0, &niu).is_some(), "streaming send");
        // A busy block unit holds the next page back.
        niu.ctrl.block_tx = Some(BlockTxState {
            sram_addr: 0,
            total: 64,
            sent: 0,
            node: 1,
            remote_addr: dst,
            set_cls: None,
            notify: None,
            watermark: 64,
        });
        assert_eq!(fw.next_wake(0, &niu), None, "block unit busy");
    }
}
