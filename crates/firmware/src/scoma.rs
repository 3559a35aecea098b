//! S-COMA firmware protocol.
//!
//! The paper's S-COMA mechanism lets a region of local DRAM act as a
//! level-3 cache of a global address space: the aBIU checks the clsSRAM
//! state of every aP bus operation in the region, retrying (ARTRY) the
//! operation and notifying the sP when the line is missing or held in
//! the wrong state. This module is the firmware half: a home-based MSI
//! directory protocol.
//!
//! - The *requester* marks the line Pending (so retries stop re-notifying)
//!   and sends a read or write request to the line's home.
//! - The *home* keeps a directory entry per line (semantically in home
//!   DRAM; costs charged per handler). Clean lines are granted straight
//!   from home memory; owned lines are **recalled** from their owner;
//!   shared lines are **invalidated** (with BusFlush forcing the sharer's
//!   aP caches to give the line up) before a write grant.
//! - Data grants travel as `WriteDramSetCls` remote commands on the
//!   high-priority network: the destination NIU lands the line in DRAM
//!   and flips the clsSRAM state with *no firmware on the critical
//!   receive path*, exactly the paper's design ("data supplied by a
//!   remote node for a pending read can be received via the remote
//!   command queue to avoid firmware execution on the return").
//! - Per-line transactions are serialized at the home: requests that
//!   arrive while one is pending queue behind it.

use crate::engine::{staging, Firmware, Q_PROTO};
use crate::proto::{encode_addr2_msg, encode_addr_msg, op};
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use sv_arctic::Priority;
use sv_membus::CACHE_LINE;
use sv_niu::msg::{MsgHeader, RemoteCmdKind};
use sv_niu::{ClsState, LocalCmd, Niu, SramSel};
use sv_sim::stats::Counter;

/// Directory state of one line at its home.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// Only home memory holds the line.
    Uncached,
    /// Read-only copies at these nodes (home memory valid).
    Shared(Vec<u16>),
    /// One node holds the line writable (home memory stale).
    Owned(u16),
}

/// An in-flight transaction at the home.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pending {
    /// The node that asked.
    pub requester: u16,
    /// Whether the access is a write.
    pub write: bool,
    /// Invalidation acks still outstanding.
    pub acks_left: u16,
    /// Requester already holds a read-only copy: grant by state change
    /// only, no data transfer.
    pub upgrade: bool,
}

/// Directory entry.
#[derive(Debug)]
pub struct DirEntry {
    /// clsSRAM state to set.
    pub state: DirState,
    /// In-flight transaction, if any.
    pub pending: Option<Pending>,
    /// Requests queued behind the pending transaction.
    pub waiting: VecDeque<(u16, bool)>,
}

impl Default for DirEntry {
    fn default() -> Self {
        DirEntry {
            state: DirState::Uncached,
            pending: None,
            waiting: VecDeque::new(),
        }
    }
}

/// S-COMA statistics.
#[derive(Debug, Default)]
pub struct ScomaStats {
    /// Local misses.
    pub local_misses: Counter,
    /// Home reads.
    pub home_reads: Counter,
    /// Home writes.
    pub home_writes: Counter,
    /// Owner recalls issued.
    pub recalls: Counter,
    /// Sharer invalidations issued.
    pub invals: Counter,
    /// Grants data.
    pub grants_data: Counter,
    /// Grants upgrade.
    pub grants_upgrade: Counter,
    /// Writebacks serviced.
    pub writebacks: Counter,
    /// Directory state transitions (every mutation of a line's
    /// [`DirState`], including sharer-set growth).
    pub transitions: Counter,
}

/// Per-node S-COMA service state.
#[derive(Debug, Default)]
pub struct ScomaService {
    /// Directory for lines homed here.
    pub dir: HashMap<u64, DirEntry>,
    /// Running statistics.
    pub stats: ScomaStats,
}

impl ScomaService {
    /// Whether any transaction is in flight or queued at this home.
    pub fn has_pending(&self) -> bool {
        self.dir
            .values()
            .any(|e| e.pending.is_some() || !e.waiting.is_empty())
    }
}

impl Firmware {
    fn line_addr(&self, niu: &Niu, line: u64) -> u64 {
        niu.map.scoma_base + line * CACHE_LINE
    }

    /// Requester side: the aBIU reported a state-check failure.
    pub(crate) fn scoma_on_local_miss(
        &mut self,
        cycle: u64,
        line: u64,
        write: bool,
        niu: &mut Niu,
    ) {
        self.scoma.stats.local_misses.bump();
        // Pending blocks further notifications (and stalls the aP's
        // retries without re-entering firmware).
        niu.sp().set_cls(line, ClsState::Pending);
        let home = self.cfg.scoma_home(line);
        let opcode = if write {
            op::SCOMA_WRITE
        } else {
            op::SCOMA_READ
        };
        let svc_lq = self.cfg.svc_lq;
        niu.sp().push_cmd(
            Q_PROTO,
            LocalCmd::SendDirect {
                node: home,
                logical_q: svc_lq,
                priority: Priority::Low,
                data: encode_addr_msg(opcode, line),
                tagon: None,
            },
        );
        self.charge(cycle, self.params.scoma_miss_cycles);
    }

    /// Home side: a read or write request arrived.
    pub(crate) fn scoma_on_home_req(
        &mut self,
        cycle: u64,
        src: u16,
        data: &Bytes,
        write: bool,
        niu: &mut Niu,
    ) {
        let Some((_, line)) = crate::proto::decode_addr_msg(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        if write {
            self.scoma.stats.home_writes.bump();
        } else {
            self.scoma.stats.home_reads.bump();
        }
        let busy = {
            let e = self.scoma.dir.entry(line).or_default();
            if e.pending.is_some() {
                e.waiting.push_back((src, write));
                true
            } else {
                false
            }
        };
        if !busy {
            self.scoma_dispatch(line, src, write, niu);
        }
        self.charge(cycle, self.params.scoma_home_cycles);
    }

    /// Start servicing one request for `line` (entry must not be pending).
    /// The entry is (re-)created on demand: a hardened home treats a
    /// request for an unknown line as a request for an uncached one.
    fn scoma_dispatch(&mut self, line: u64, src: u16, write: bool, niu: &mut Niu) {
        let state = self.scoma.dir.entry(line).or_default().state.clone();
        match state {
            DirState::Uncached => {
                self.scoma_grant_data(line, src, write, niu);
                self.scoma.stats.transitions.bump();
                self.scoma.dir.entry(line).or_default().state = if write {
                    DirState::Owned(src)
                } else {
                    DirState::Shared(vec![src])
                };
            }
            DirState::Shared(sharers) => {
                if !write {
                    self.scoma_grant_data(line, src, false, niu);
                    let e = self.scoma.dir.entry(line).or_default();
                    if let DirState::Shared(s) = &mut e.state {
                        if !s.contains(&src) {
                            s.push(src);
                            self.scoma.stats.transitions.bump();
                        }
                    }
                    return;
                }
                let upgrade = sharers.contains(&src);
                let others: Vec<u16> = sharers.iter().copied().filter(|&s| s != src).collect();
                if others.is_empty() {
                    if upgrade {
                        self.scoma_grant_upgrade(line, src, niu);
                    } else {
                        self.scoma_grant_data(line, src, true, niu);
                    }
                    self.scoma.stats.transitions.bump();
                    self.scoma.dir.entry(line).or_default().state = DirState::Owned(src);
                    return;
                }
                let svc_lq = self.cfg.svc_lq;
                for s in &others {
                    self.scoma.stats.invals.bump();
                    niu.sp().push_cmd(
                        Q_PROTO,
                        LocalCmd::SendDirect {
                            node: *s,
                            logical_q: svc_lq,
                            priority: Priority::Low,
                            data: encode_addr_msg(op::SCOMA_INV, line),
                            tagon: None,
                        },
                    );
                }
                self.scoma.dir.entry(line).or_default().pending = Some(Pending {
                    requester: src,
                    write: true,
                    acks_left: others.len() as u16,
                    upgrade,
                });
            }
            DirState::Owned(owner) => {
                if owner == src {
                    // The owner re-requesting: its DRAM copy is the valid
                    // one; grant by state change alone.
                    self.scoma_grant_upgrade_state(line, src, write, niu);
                    return;
                }
                self.scoma.stats.recalls.bump();
                let svc_lq = self.cfg.svc_lq;
                niu.sp().push_cmd(
                    Q_PROTO,
                    LocalCmd::SendDirect {
                        node: owner,
                        logical_q: svc_lq,
                        priority: Priority::Low,
                        data: encode_addr2_msg(op::SCOMA_RECALL, line, write as u64),
                        tagon: None,
                    },
                );
                self.scoma.dir.entry(line).or_default().pending = Some(Pending {
                    requester: src,
                    write,
                    acks_left: 0,
                    upgrade: false,
                });
            }
        }
    }

    /// Grant with data from home memory: BusRead the line into staging,
    /// then ship it with a state-setting remote write.
    fn scoma_grant_data(&mut self, line: u64, to: u16, write: bool, niu: &mut Niu) {
        self.scoma.stats.grants_data.bump();
        let addr = self.line_addr(niu, line);
        let st = staging::SCOMA_GRANT;
        let state = if write {
            ClsState::ReadWrite
        } else {
            ClsState::ReadOnly
        };
        let mut sp = niu.sp();
        sp.push_cmd(
            Q_PROTO,
            LocalCmd::BusRead {
                dram_addr: addr,
                sram: SramSel::S,
                sram_addr: st,
                len: CACHE_LINE as u32,
            },
        );
        sp.push_cmd(
            Q_PROTO,
            LocalCmd::SendRemoteWrite {
                node: to,
                remote_addr: addr,
                sram: SramSel::S,
                sram_addr: st,
                len: CACHE_LINE as u32,
                set_cls: Some(state),
            },
        );
    }

    /// Grant a write upgrade (requester already has the data): state
    /// change only.
    fn scoma_grant_upgrade(&mut self, line: u64, to: u16, niu: &mut Niu) {
        self.scoma.stats.grants_upgrade.bump();
        niu.sp().push_cmd(
            Q_PROTO,
            LocalCmd::SendRemoteCmd {
                node: to,
                cmd: RemoteCmdKind::SetCls {
                    line,
                    state: ClsState::ReadWrite.bits(),
                },
            },
        );
    }

    /// Grant to the current owner by state change (read or write).
    fn scoma_grant_upgrade_state(&mut self, line: u64, to: u16, write: bool, niu: &mut Niu) {
        self.scoma.stats.grants_upgrade.bump();
        let state = if write {
            ClsState::ReadWrite
        } else {
            ClsState::ReadOnly
        };
        niu.sp().push_cmd(
            Q_PROTO,
            LocalCmd::SendRemoteCmd {
                node: to,
                cmd: RemoteCmdKind::SetCls {
                    line,
                    state: state.bits(),
                },
            },
        );
    }

    /// Owner side: the home recalled a line we own.
    pub(crate) fn scoma_on_recall(&mut self, cycle: u64, home: u16, data: &Bytes, niu: &mut Niu) {
        let Some((_, line, write)) = crate::proto::decode_addr2_msg(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        let write = write != 0;
        self.scoma.stats.writebacks.bump();
        let addr = self.line_addr(niu, line);
        let st = staging::SCOMA_RECALL;
        let svc_lq = self.cfg.svc_lq;
        {
            let mut sp = niu.sp();
            // Force our aP caches to push any dirty data to local DRAM,
            // read the line, and ship it home — all ordered.
            sp.push_cmd(Q_PROTO, LocalCmd::BusFlush { addr });
            sp.push_cmd(
                Q_PROTO,
                LocalCmd::WriteSramU64 {
                    sram: SramSel::S,
                    addr: st,
                    data: op::SCOMA_WB as u64,
                },
            );
            sp.push_cmd(
                Q_PROTO,
                LocalCmd::WriteSramU64 {
                    sram: SramSel::S,
                    addr: st + 8,
                    data: line,
                },
            );
            sp.push_cmd(
                Q_PROTO,
                LocalCmd::BusRead {
                    dram_addr: addr,
                    sram: SramSel::S,
                    sram_addr: st + 16,
                    len: CACHE_LINE as u32,
                },
            );
            sp.push_cmd(
                Q_PROTO,
                LocalCmd::SendMsg {
                    header: MsgHeader::basic(0, 16 + CACHE_LINE as u8),
                    sram: SramSel::S,
                    addr: st,
                    raw_node: Some((home, svc_lq, Priority::High)),
                },
            );
            // Downgrade our copy.
            sp.set_cls(
                line,
                if write {
                    ClsState::Invalid
                } else {
                    ClsState::ReadOnly
                },
            );
        }
        self.charge(cycle, self.params.scoma_recall_cycles);
    }

    /// Home side: the owner's writeback arrived; land it in home memory
    /// and complete the pending request.
    pub(crate) fn scoma_on_writeback(
        &mut self,
        cycle: u64,
        owner: u16,
        data: &Bytes,
        niu: &mut Niu,
    ) {
        if data.len() < 16 + CACHE_LINE as usize {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        }
        let line = u64::from_le_bytes(data[8..16].try_into().expect("len checked"));
        let payload = &data[16..16 + CACHE_LINE as usize];
        let addr = self.line_addr(niu, line);
        let st = staging::SCOMA_WB;
        {
            let mut sp = niu.sp();
            // Land the payload in staging *through the ordered queue*: an
            // immediate write here would race a previous writeback's
            // still-queued SendRemoteWrite reading the same staging and
            // corrupt its grant.
            for (k, word) in payload.chunks(8).enumerate() {
                sp.push_cmd(
                    Q_PROTO,
                    LocalCmd::WriteSramU64 {
                        sram: SramSel::S,
                        addr: st + 8 * k as u32,
                        data: u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
                    },
                );
            }
            sp.push_cmd(
                Q_PROTO,
                LocalCmd::BusWrite {
                    dram_addr: addr,
                    sram: SramSel::S,
                    sram_addr: st,
                    len: CACHE_LINE as u32,
                },
            );
        }
        let pend = self.scoma.dir.get_mut(&line).and_then(|e| e.pending.take());
        if let Some(p) = pend {
            self.scoma.stats.grants_data.bump();
            let state = if p.write {
                ClsState::ReadWrite
            } else {
                ClsState::ReadOnly
            };
            niu.sp().push_cmd(
                Q_PROTO,
                LocalCmd::SendRemoteWrite {
                    node: p.requester,
                    remote_addr: addr,
                    sram: SramSel::S,
                    sram_addr: st,
                    len: CACHE_LINE as u32,
                    set_cls: Some(state),
                },
            );
            self.scoma.stats.transitions.bump();
            let e = self.scoma.dir.entry(line).or_default();
            e.state = if p.write {
                DirState::Owned(p.requester)
            } else {
                DirState::Shared(vec![owner, p.requester])
            };
        } else {
            // Unsolicited writeback (no recall outstanding) — e.g. a
            // stale duplicate. The data landed in home memory above,
            // which is harmless (the owner's copy is authoritative), but
            // no grant follows; count the protocol inconsistency.
            self.stats.proto_errors.bump();
        }
        self.scoma_run_waiters(line, niu);
        self.charge(cycle, self.params.scoma_home_cycles);
    }

    /// Sharer side: invalidate our read-only copy and ack.
    pub(crate) fn scoma_on_inv(&mut self, cycle: u64, home: u16, data: &Bytes, niu: &mut Niu) {
        let Some((_, line)) = crate::proto::decode_addr_msg(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        let addr = self.line_addr(niu, line);
        let svc_lq = self.cfg.svc_lq;
        let mut sp = niu.sp();
        sp.push_cmd(Q_PROTO, LocalCmd::BusFlush { addr });
        sp.push_cmd(
            Q_PROTO,
            LocalCmd::SendDirect {
                node: home,
                logical_q: svc_lq,
                priority: Priority::High,
                data: encode_addr_msg(op::SCOMA_INV_ACK, line),
                tagon: None,
            },
        );
        sp.set_cls(line, ClsState::Invalid);
        self.charge(cycle, self.params.scoma_recall_cycles);
    }

    /// Home side: an invalidation ack arrived. Acks for lines with no
    /// entry, no pending transaction, or no acks outstanding are stale
    /// (e.g. a duplicate that slipped past the network's dedup, or a
    /// malformed message) — they are counted and dropped, never allowed
    /// to underflow the ack count or panic the home.
    pub(crate) fn scoma_on_inv_ack(&mut self, cycle: u64, data: &Bytes, niu: &mut Niu) {
        let Some((_, line)) = crate::proto::decode_addr_msg(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        let done = {
            let Some(p) = self
                .scoma
                .dir
                .get_mut(&line)
                .and_then(|e| e.pending.as_mut())
            else {
                self.stats.proto_errors.bump();
                self.charge(cycle, self.params.dispatch_cycles);
                return;
            };
            if p.acks_left == 0 {
                self.stats.proto_errors.bump();
                self.charge(cycle, self.params.dispatch_cycles);
                return;
            }
            p.acks_left -= 1;
            p.acks_left == 0
        };
        if done {
            let pend = self.scoma.dir.get_mut(&line).and_then(|e| e.pending.take());
            if let Some(p) = pend {
                if p.upgrade {
                    self.scoma_grant_upgrade(line, p.requester, niu);
                } else {
                    self.scoma_grant_data(line, p.requester, true, niu);
                }
                self.scoma.stats.transitions.bump();
                self.scoma.dir.entry(line).or_default().state = DirState::Owned(p.requester);
                self.scoma_run_waiters(line, niu);
            }
        }
        self.charge(cycle, self.params.scoma_home_cycles);
    }

    /// Dispatch queued requests for `line` until one blocks again.
    fn scoma_run_waiters(&mut self, line: u64, niu: &mut Niu) {
        loop {
            let next = {
                let Some(e) = self.scoma.dir.get_mut(&line) else {
                    break;
                };
                if e.pending.is_some() {
                    break;
                }
                e.waiting.pop_front()
            };
            let Some((src, write)) = next else {
                break;
            };
            self.scoma_dispatch(line, src, write, niu);
        }
    }
}

sv_sim::checkpointed! {
    enum DirState {
        0 => Uncached,
        1 => Shared(nodes),
        2 => Owned(node),
    }
}

sv_sim::checkpointed! {
    struct Pending {
        requester,
        write,
        acks_left,
        upgrade,
    }
}

sv_sim::checkpointed! {
    struct DirEntry {
        state,
        pending,
        waiting,
    }
}

sv_sim::checkpointed! {
    struct ScomaStats {
        local_misses,
        home_reads,
        home_writes,
        recalls,
        invals,
        grants_data,
        grants_upgrade,
        writebacks,
        transitions,
    }
}

sv_sim::checkpointed! {
    struct ScomaService {
        dir,
        stats,
    }
}
