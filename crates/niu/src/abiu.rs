//! The aP-side bus interface unit (aBIU).
//!
//! The aBIU sits between the aP's 604 bus and CTRL. In every bus cycle it
//! observes the current address tenure and decides — from the address map,
//! the clsSRAM state, and its pending tables — whether to ignore the
//! operation, claim and service it from SRAM, transform it into CTRL
//! commands (pointer updates, Express compose), retry it (ARTRY), or
//! forward it to the sP. It also *masters* the bus on behalf of CTRL:
//! block operations and remote commands become [`AbiuRequest`]s that the
//! node issues as real bus transactions.
//!
//! This module holds the aBIU's state and pure decision logic; the
//! side-effectful servicing lives in [`crate::niu`] where SRAM and CTRL
//! state are reachable.

use crate::addrmap::{AddressMap, Region};
use crate::sram::{ClsState, SramSel};
use bytes::Bytes;
use std::collections::{HashMap, HashSet, VecDeque};
use sv_membus::{BusOp, BusOpKind, MasterId, SnoopVerdict};
use sv_sim::stats::Counter;

/// How the aBIU reacts to an observed aP bus operation (classification
/// only; servicing happens at completion time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// Variant fields are named self-descriptively; the variants themselves
// are documented above each one.
#[allow(missing_docs)]
pub enum ClaimKind {
    /// Not ours; the memory controller or another agent handles it.
    Ignore,
    /// Claimed: serviced from SRAM (buffer window, shadow pointers).
    Sram { off: u32 },
    /// Claimed: a pointer-update store (all information in the address).
    PtrUpdate { is_rx: bool, q: u8, value: u16 },
    /// Claimed: Express transmit store.
    ExpressTx { q: u8, dest: u16, tag: u8 },
    /// Claimed: Express receive load.
    ExpressRx { q: u8 },
    /// Claimed NUMA operation (store captured / load supplied from the
    /// reply buffer).
    Numa,
    /// S-COMA / NUMA retry: the operation is ARTRY'd.
    Retry,
}

/// Functional data movement the node performs when an aBIU-mastered bus
/// operation completes.
#[derive(Debug, Clone, PartialEq)]
pub enum DataMove {
    /// Copy DRAM → SRAM (block read, command-queue BusRead).
    DramToSram {
        /// DRAM byte address.
        dram: u64,
        /// Which SRAM bank.
        sram: SramSel,
        /// SRAM byte address.
        sram_addr: u32,
        /// Length in bytes.
        len: u32,
    },
    /// Copy SRAM → DRAM (command-queue BusWrite).
    SramToDram {
        /// Which SRAM bank.
        sram: SramSel,
        /// SRAM byte address.
        sram_addr: u32,
        /// DRAM byte address.
        dram: u64,
        /// Length in bytes.
        len: u32,
    },
    /// Write carried bytes into DRAM (remote command data landing).
    BytesToDram {
        /// Destination DRAM address.
        dram: u64,
        /// Bytes to write.
        data: Bytes,
    },
    /// No data movement (address-only operations).
    None,
}

/// A bus-master request from the NIU to the node: issue this operation on
/// the aP bus, perform `move_` when it completes, then hand `id` back via
/// `Niu::abiu_completed`.
#[derive(Debug, Clone, PartialEq)]
pub struct AbiuRequest {
    /// Request identifier.
    pub id: u64,
    /// Bus-operation kind.
    pub kind: BusOpKind,
    /// Target byte address.
    pub addr: u64,
    /// Size in bytes.
    pub bytes: u32,
    /// Functional data movement to perform at completion.
    pub move_: DataMove,
}

impl AbiuRequest {
    /// The bus operation this request issues.
    pub fn bus_op(&self) -> BusOp {
        match self.kind {
            BusOpKind::SingleRead | BusOpKind::SingleWrite => {
                BusOp::single(self.kind, self.addr, self.bytes, MasterId::ABiu, self.id)
            }
            k if k.is_burst() => BusOp::burst(k, self.addr, MasterId::ABiu, self.id),
            k => BusOp::addr_only(k, self.addr, MasterId::ABiu, self.id),
        }
    }
}

/// Requests the aBIU forwards to the sP through the aBIU→sBIU queue.
// Variant fields are named self-descriptively; the variants themselves
// are documented above each one.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum SpRequest {
    /// A NUMA-region load the sP must satisfy (aP is retrying meanwhile).
    NumaLoad { addr: u64, bytes: u32 },
    /// A NUMA-region store whose data the aBIU captured.
    NumaStore { addr: u64, data: Bytes },
    /// An S-COMA state-check failure: line missing or held in the wrong
    /// state for a write.
    ScomaMiss { line: u64, write: bool },
    /// A transmit-queue protection violation shut queue `q` down.
    Violation { q: u8 },
    /// A captured reflective-memory store to propagate (firmware mode;
    /// the enhanced-aBIU mode ships it without sP involvement).
    ReflectStore {
        peer: u16,
        peer_addr: u64,
        data: Bytes,
    },
}

/// A reflective-memory mapping (paper §5: Shrimp / Memory Channel
/// emulation): stores into `[local_off, +len)` of the reflective region
/// are propagated to `peer_base + (offset)` at `peer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReflectiveWindow {
    /// Offset of this window within the reflective region.
    pub local_off: u64,
    /// Length in bytes.
    pub len: u64,
    /// Peer node.
    pub peer: u16,
    /// Destination physical address of the window's first byte at `peer`.
    pub peer_base: u64,
}

/// A NUMA load the sP has not yet satisfied.
#[derive(Debug, Clone)]
struct NumaPending {
    data: Option<Bytes>,
}

/// aBIU statistics.
#[derive(Debug, Clone, Default)]
pub struct AbiuStats {
    /// Bus operations this unit claimed.
    pub claimed: Counter,
    /// ARTRY retries observed.
    pub retries: Counter,
    /// Scoma checks.
    pub scoma_checks: Counter,
    /// Scoma misses.
    pub scoma_misses: Counter,
    /// Numa loads.
    pub numa_loads: Counter,
    /// Numa stores.
    pub numa_stores: Counter,
    /// Express tx.
    pub express_tx: Counter,
    /// Express rx.
    pub express_rx: Counter,
}

/// aBIU state. Decision logic is pure; see module docs.
#[derive(Debug)]
pub struct ABiu {
    /// Physical address map.
    pub map: AddressMap,
    /// Whether the S-COMA state check is enabled.
    pub scoma_enabled: bool,
    /// Whether NUMA forwarding is enabled.
    pub numa_enabled: bool,
    /// Write-tracking mode (the "diff-ing" extension, paper §5): instead
    /// of gating S-COMA-region accesses, the aBIU *records* written
    /// lines in clsSRAM so firmware can later flush only the dirty ones.
    pub write_tracking: bool,
    /// Enhanced-aBIU reflective memory: captured stores are shipped as
    /// remote commands directly by hardware (no sP engagement).
    pub reflect_hw: bool,
    /// Configured reflective windows.
    pub reflect_windows: Vec<ReflectiveWindow>,
    /// Outstanding NUMA loads keyed by (8-byte-aligned) address.
    numa_pending: HashMap<u64, NumaPending>,
    /// S-COMA lines already reported to the sP (retry without re-notify —
    /// the paper's "configurable table that decides whether an operation
    /// is actually passed to the sP").
    scoma_notified: HashSet<u64>,
    /// Bus-master requests waiting to be picked up by the node.
    requests: VecDeque<AbiuRequest>,
    /// Requests issued but not yet completed.
    outstanding: usize,
    next_req_id: u64,
    /// Running statistics.
    pub stats: AbiuStats,
}

impl ABiu {
    /// An aBIU over the given address map.
    pub fn new(map: AddressMap) -> Self {
        ABiu {
            map,
            scoma_enabled: true,
            numa_enabled: true,
            write_tracking: false,
            reflect_hw: false,
            reflect_windows: Vec::new(),
            numa_pending: HashMap::new(),
            scoma_notified: HashSet::new(),
            requests: VecDeque::new(),
            outstanding: 0,
            next_req_id: 1,
            stats: AbiuStats::default(),
        }
    }

    /// Classify an aP-issued operation and produce the snoop-time verdict
    /// plus any sP notification. `cls` is the clsSRAM state of the line
    /// (read in parallel with the snoop, as in hardware).
    pub fn classify(
        &mut self,
        op: &BusOp,
        cls: Option<ClsState>,
    ) -> (ClaimKind, SnoopVerdict, Option<SpRequest>) {
        debug_assert_eq!(op.master, MasterId::Ap);
        match self.map.classify(op.addr) {
            Region::Dram => (ClaimKind::Ignore, SnoopVerdict::default(), None),
            Region::Hole => (ClaimKind::Ignore, SnoopVerdict::default(), None),
            // Reflective windows are local DRAM plus a store capture that
            // happens at completion time; the snoop itself is passive.
            Region::Reflect => (ClaimKind::Ignore, SnoopVerdict::default(), None),
            Region::Scoma => self.scoma_check(op, cls),
            Region::Numa => self.numa_check(op),
            Region::Asram(off) => {
                self.stats.claimed.bump();
                (
                    ClaimKind::Sram { off },
                    SnoopVerdict {
                        supply_latency: 0, // filled by Niu with params
                        ..Default::default()
                    },
                    None,
                )
            }
            Region::PtrUpdate { is_rx, q, value } => {
                self.stats.claimed.bump();
                (
                    ClaimKind::PtrUpdate { is_rx, q, value },
                    SnoopVerdict::default(),
                    None,
                )
            }
            Region::ExpressTx { q, dest, tag } => {
                self.stats.claimed.bump();
                (
                    ClaimKind::ExpressTx { q, dest, tag },
                    SnoopVerdict::default(),
                    None,
                )
            }
            Region::ExpressRx { q } => {
                self.stats.claimed.bump();
                (ClaimKind::ExpressRx { q }, SnoopVerdict::default(), None)
            }
        }
    }

    /// S-COMA: consult the clsSRAM state against the operation kind.
    fn scoma_check(
        &mut self,
        op: &BusOp,
        cls: Option<ClsState>,
    ) -> (ClaimKind, SnoopVerdict, Option<SpRequest>) {
        if !self.scoma_enabled {
            return (ClaimKind::Ignore, SnoopVerdict::default(), None);
        }
        self.stats.scoma_checks.bump();
        let state = cls.expect("clsSRAM state must accompany S-COMA ops");
        let line = self.map.scoma_line(op.addr);
        let write = matches!(
            op.kind,
            BusOpKind::Rwitm | BusOpKind::Kill | BusOpKind::SingleWrite | BusOpKind::WriteLine
        );
        let ok = match state {
            ClsState::ReadWrite => true,
            ClsState::ReadOnly => !write,
            ClsState::Invalid | ClsState::Pending => {
                // Castouts of lines the protocol already invalidated are
                // allowed to proceed (stale victim writebacks).
                op.kind == BusOpKind::WriteLine
            }
        };
        if ok {
            // Data is supplied by local DRAM; line no longer missing.
            self.scoma_notified.remove(&line);
            return (ClaimKind::Ignore, SnoopVerdict::default(), None);
        }
        self.stats.retries.bump();
        let notify = if state != ClsState::Pending && self.scoma_notified.insert(line) {
            self.stats.scoma_misses.bump();
            Some(SpRequest::ScomaMiss { line, write })
        } else {
            None
        };
        (ClaimKind::Retry, SnoopVerdict::retry(), notify)
    }

    /// NUMA: loads retry until the sP supplies data; stores are captured.
    fn numa_check(&mut self, op: &BusOp) -> (ClaimKind, SnoopVerdict, Option<SpRequest>) {
        if !self.numa_enabled {
            return (ClaimKind::Ignore, SnoopVerdict::default(), None);
        }
        match op.kind {
            BusOpKind::SingleRead | BusOpKind::Read | BusOpKind::Rwitm => {
                let key = op.addr & !7;
                match self.numa_pending.get(&key) {
                    Some(p) if p.data.is_some() => {
                        // Reply arrived: claim and supply.
                        (ClaimKind::Numa, SnoopVerdict::default(), None)
                    }
                    Some(_) => {
                        self.stats.retries.bump();
                        (ClaimKind::Retry, SnoopVerdict::retry(), None)
                    }
                    None => {
                        self.stats.retries.bump();
                        self.stats.numa_loads.bump();
                        self.numa_pending.insert(key, NumaPending { data: None });
                        (
                            ClaimKind::Retry,
                            SnoopVerdict::retry(),
                            Some(SpRequest::NumaLoad {
                                addr: key,
                                bytes: op.bytes.max(8),
                            }),
                        )
                    }
                }
            }
            BusOpKind::SingleWrite | BusOpKind::WriteLine => {
                // Stores are posted: captured at completion, forwarded then.
                self.stats.numa_stores.bump();
                (ClaimKind::Numa, SnoopVerdict::default(), None)
            }
            _ => (ClaimKind::Ignore, SnoopVerdict::default(), None),
        }
    }

    /// The sP supplies data for a pending NUMA load.
    pub fn numa_supply(&mut self, addr: u64, data: Bytes) {
        let key = addr & !7;
        if let Some(p) = self.numa_pending.get_mut(&key) {
            p.data = Some(data);
        }
    }

    /// Take the reply data for a completed NUMA load.
    pub fn numa_take(&mut self, addr: u64) -> Option<Bytes> {
        let key = addr & !7;
        match self.numa_pending.get(&key) {
            Some(p) if p.data.is_some() => self.numa_pending.remove(&key).and_then(|p| p.data),
            _ => None,
        }
    }

    /// Number of NUMA loads awaiting data.
    pub fn numa_pending_count(&self) -> usize {
        self.numa_pending.len()
    }

    /// Clear the S-COMA notified marker for `line` (called when the line's
    /// state becomes valid, so a later miss re-notifies).
    pub fn scoma_clear_notified(&mut self, line: u64) {
        self.scoma_notified.remove(&line);
    }

    /// Translate a reflective-region address to its mapped peer
    /// location, if any window covers it.
    pub fn reflect_lookup(&self, addr: u64) -> Option<(u16, u64)> {
        let off = addr.checked_sub(self.map.reflect_base)?;
        self.reflect_windows
            .iter()
            .find(|w| off >= w.local_off && off < w.local_off + w.len)
            .map(|w| (w.peer, w.peer_base + (off - w.local_off)))
    }

    // ---- bus mastering ----

    /// Enqueue a bus-master request; returns its id.
    pub fn push_request(&mut self, kind: BusOpKind, addr: u64, bytes: u32, move_: DataMove) -> u64 {
        let id = self.next_req_id;
        self.next_req_id += 1;
        self.requests.push_back(AbiuRequest {
            id,
            kind,
            addr,
            bytes,
            move_,
        });
        id
    }

    /// Pop the next request if the outstanding window allows.
    pub fn pop_request(&mut self, max_outstanding: usize) -> Option<AbiuRequest> {
        if self.outstanding >= max_outstanding {
            return None;
        }
        let r = self.requests.pop_front()?;
        self.outstanding += 1;
        Some(r)
    }

    /// Whether [`ABiu::pop_request`] would hand out a request now: one is
    /// queued and the outstanding window has room.
    pub fn request_ready(&self, max_outstanding: usize) -> bool {
        self.outstanding < max_outstanding && !self.requests.is_empty()
    }

    /// Mark a mastered request complete.
    pub fn request_completed(&mut self) {
        debug_assert!(self.outstanding > 0);
        self.outstanding -= 1;
    }

    /// Requests waiting plus in flight.
    pub fn requests_pending(&self) -> usize {
        self.requests.len() + self.outstanding
    }

    /// In-flight mastered operations.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }
}

sv_sim::checkpointed! {
    enum DataMove {
        0 => DramToSram { dram, sram, sram_addr, len },
        1 => SramToDram { sram, sram_addr, dram, len },
        2 => BytesToDram { dram, data },
        3 => None,
    }
}

sv_sim::checkpointed! {
    struct AbiuRequest {
        id,
        kind,
        addr,
        bytes,
        move_,
    }
}

sv_sim::checkpointed! {
    enum SpRequest {
        0 => NumaLoad { addr, bytes },
        1 => NumaStore { addr, data },
        2 => ScomaMiss { line, write },
        3 => Violation { q },
        4 => ReflectStore { peer, peer_addr, data },
    }
}

sv_sim::checkpointed! {
    struct ReflectiveWindow {
        local_off,
        len,
        peer,
        peer_base,
    }
}

sv_sim::checkpointed! {
    struct NumaPending {
        data,
    }
}

sv_sim::checkpointed! {
    struct AbiuStats {
        claimed,
        retries,
        scoma_checks,
        scoma_misses,
        numa_loads,
        numa_stores,
        express_tx,
        express_rx,
    }
}

sv_sim::checkpointed! {
    struct ABiu {
        map,
        scoma_enabled,
        numa_enabled,
        write_tracking,
        reflect_hw,
        reflect_windows,
        numa_pending,
        scoma_notified,
        requests,
        outstanding,
        next_req_id,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abiu() -> ABiu {
        ABiu::new(AddressMap::default())
    }

    fn ap_read(addr: u64) -> BusOp {
        BusOp::burst(BusOpKind::Read, addr, MasterId::Ap, 0)
    }

    fn ap_store(addr: u64) -> BusOp {
        BusOp::single(BusOpKind::SingleWrite, addr, 8, MasterId::Ap, 0)
    }

    #[test]
    fn dram_ignored() {
        let mut a = abiu();
        let (c, v, n) = a.classify(&ap_read(0x1000), None);
        assert_eq!(c, ClaimKind::Ignore);
        assert!(!v.artry);
        assert!(n.is_none());
    }

    #[test]
    fn scoma_hit_proceeds() {
        let mut a = abiu();
        let (c, v, n) = a.classify(&ap_read(0x4000_0000), Some(ClsState::ReadOnly));
        assert_eq!(c, ClaimKind::Ignore);
        assert!(!v.artry);
        assert!(n.is_none());
    }

    #[test]
    fn scoma_read_miss_notifies_once_then_keeps_retrying() {
        let mut a = abiu();
        let (c, v, n) = a.classify(&ap_read(0x4000_0000), Some(ClsState::Invalid));
        assert_eq!(c, ClaimKind::Retry);
        assert!(v.artry);
        assert_eq!(
            n,
            Some(SpRequest::ScomaMiss {
                line: 0,
                write: false
            })
        );
        // Retry of the same line: no second notification.
        let (_, v2, n2) = a.classify(&ap_read(0x4000_0000), Some(ClsState::Invalid));
        assert!(v2.artry);
        assert!(n2.is_none());
        assert_eq!(a.stats.scoma_misses.get(), 1);
    }

    #[test]
    fn scoma_write_to_readonly_is_upgrade_miss() {
        let mut a = abiu();
        let op = BusOp::burst(BusOpKind::Rwitm, 0x4000_0020, MasterId::Ap, 0);
        let (c, _, n) = a.classify(&op, Some(ClsState::ReadOnly));
        assert_eq!(c, ClaimKind::Retry);
        assert_eq!(
            n,
            Some(SpRequest::ScomaMiss {
                line: 1,
                write: true
            })
        );
    }

    #[test]
    fn scoma_pending_never_renotifies() {
        let mut a = abiu();
        let (c, _, n) = a.classify(&ap_read(0x4000_0000), Some(ClsState::Pending));
        assert_eq!(c, ClaimKind::Retry);
        assert!(n.is_none());
    }

    #[test]
    fn scoma_castout_of_invalidated_line_proceeds() {
        let mut a = abiu();
        let op = BusOp::burst(BusOpKind::WriteLine, 0x4000_0000, MasterId::Ap, 0);
        let (c, v, _) = a.classify(&op, Some(ClsState::Invalid));
        assert_eq!(c, ClaimKind::Ignore);
        assert!(!v.artry);
    }

    #[test]
    fn numa_load_retries_until_supplied() {
        let mut a = abiu();
        let op = BusOp::single(BusOpKind::SingleRead, 0x8000_0100, 8, MasterId::Ap, 0);
        let (c, v, n) = a.classify(&op, None);
        assert_eq!(c, ClaimKind::Retry);
        assert!(v.artry);
        assert!(matches!(
            n,
            Some(SpRequest::NumaLoad {
                addr: 0x8000_0100,
                ..
            })
        ));
        // Still pending: retry without renotify.
        let (_, _, n2) = a.classify(&op, None);
        assert!(n2.is_none());
        // Supply and retry again: claimed.
        a.numa_supply(0x8000_0100, Bytes::from_static(&[1, 2, 3, 4, 5, 6, 7, 8]));
        let (c3, v3, _) = a.classify(&op, None);
        assert_eq!(c3, ClaimKind::Numa);
        assert!(!v3.artry);
        assert_eq!(a.numa_take(0x8000_0100).unwrap().len(), 8);
        assert_eq!(a.numa_pending_count(), 0);
    }

    #[test]
    fn numa_store_is_posted() {
        let mut a = abiu();
        let (c, v, n) = a.classify(&ap_store(0x8000_0200), None);
        assert_eq!(c, ClaimKind::Numa);
        assert!(!v.artry);
        assert!(n.is_none());
        assert_eq!(a.stats.numa_stores.get(), 1);
    }

    #[test]
    fn niu_window_claims() {
        let mut a = abiu();
        let m = a.map;
        let (c, _, _) = a.classify(&ap_store(m.ptr_update_addr(false, 3, 17)), None);
        assert_eq!(
            c,
            ClaimKind::PtrUpdate {
                is_rx: false,
                q: 3,
                value: 17
            }
        );
        let (c, _, _) = a.classify(&ap_store(m.express_tx_addr(1, 42, 7)), None);
        assert_eq!(
            c,
            ClaimKind::ExpressTx {
                q: 1,
                dest: 42,
                tag: 7
            }
        );
        let op = BusOp::single(
            BusOpKind::SingleRead,
            m.express_rx_addr(2),
            8,
            MasterId::Ap,
            0,
        );
        let (c, _, _) = a.classify(&op, None);
        assert_eq!(c, ClaimKind::ExpressRx { q: 2 });
        let (c, _, _) = a.classify(&ap_store(m.asram_addr(0x100)), None);
        assert_eq!(c, ClaimKind::Sram { off: 0x100 });
    }

    #[test]
    fn request_window_limits_outstanding() {
        let mut a = abiu();
        for i in 0..6u64 {
            a.push_request(BusOpKind::SingleWrite, i * 8, 8, DataMove::None);
        }
        assert_eq!(a.requests_pending(), 6);
        assert!(a.pop_request(2).is_some());
        assert!(a.pop_request(2).is_some());
        assert!(a.pop_request(2).is_none(), "window full");
        a.request_completed();
        assert!(a.pop_request(2).is_some());
        assert_eq!(a.outstanding(), 2);
        assert_eq!(a.requests_pending(), 5);
    }

    #[test]
    fn disabled_mechanisms_ignore() {
        let mut a = abiu();
        a.scoma_enabled = false;
        a.numa_enabled = false;
        let (c, _, _) = a.classify(&ap_read(0x4000_0000), Some(ClsState::Invalid));
        assert_eq!(c, ClaimKind::Ignore);
        let (c, _, _) = a.classify(&ap_read(0x8000_0000), None);
        assert_eq!(c, ClaimKind::Ignore);
    }
}
