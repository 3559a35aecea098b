//! Bus operation vocabulary.
//!
//! A pruned but faithful subset of the 60X transaction set — the
//! operations the StarT-Voyager mechanisms actually exercise. Addresses
//! are physical. Burst operations always move one 32-byte cache line;
//! single-beat operations move 1–8 bytes (uncached loads/stores, pointer
//! updates, Express messages).

/// Physical address.
pub type Addr = u64;

/// Cache-line size in bytes (604e: 32 B lines).
pub const CACHE_LINE: u64 = 32;

/// Data-bus width in bytes (64-bit 60X data bus).
pub const BEAT_BYTES: u64 = 8;

/// Align an address down to its cache line.
#[inline]
pub fn line_of(addr: Addr) -> Addr {
    addr & !(CACHE_LINE - 1)
}

/// Identity of a bus master on one node's memory bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MasterId {
    /// The application processor (via its cache-miss machine).
    Ap,
    /// The NIU's aP-side bus interface unit, mastering on behalf of CTRL,
    /// the sP, or remote command-queue operations.
    ABiu,
}

/// Bus transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusOpKind {
    /// Burst read of a cache line (cacheable load miss).
    Read,
    /// Burst read with intent to modify (cacheable store miss).
    Rwitm,
    /// Address-only invalidate: upgrade S→M without data transfer.
    Kill,
    /// Burst write of a dirty line back to memory (castout / snoop push).
    WriteLine,
    /// Single-beat uncached read (1–8 bytes).
    SingleRead,
    /// Single-beat uncached write (1–8 bytes).
    SingleWrite,
    /// Address-only flush: force writeback + invalidate in all caches.
    Flush,
    /// Address-only clean: force writeback, leave shared.
    Clean,
}

impl BusOpKind {
    /// Whether this transaction carries data on the data bus.
    pub fn has_data(self) -> bool {
        !matches!(self, BusOpKind::Kill | BusOpKind::Flush | BusOpKind::Clean)
    }

    /// Whether the master *receives* data (reads) rather than drives it.
    pub fn is_read(self) -> bool {
        matches!(
            self,
            BusOpKind::Read | BusOpKind::Rwitm | BusOpKind::SingleRead
        )
    }

    /// Whether this is a burst (full cache line) transaction.
    pub fn is_burst(self) -> bool {
        matches!(
            self,
            BusOpKind::Read | BusOpKind::Rwitm | BusOpKind::WriteLine
        )
    }
}

/// One bus transaction request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusOp {
    /// Bus-operation kind.
    pub kind: BusOpKind,
    /// Target byte address.
    pub addr: Addr,
    /// Transfer size in bytes: [`CACHE_LINE`] for bursts, 1–8 for singles,
    /// 0 for address-only operations.
    pub bytes: u32,
    /// Issuing bus master.
    pub master: MasterId,
    /// Master-chosen tag returned on completion, so the master can match
    /// split-transaction completions to its outstanding requests.
    pub tag: u64,
}

impl BusOp {
    /// A burst transaction on the line containing `addr`.
    pub fn burst(kind: BusOpKind, addr: Addr, master: MasterId, tag: u64) -> Self {
        debug_assert!(kind.is_burst());
        BusOp {
            kind,
            addr: line_of(addr),
            bytes: CACHE_LINE as u32,
            master,
            tag,
        }
    }

    /// A single-beat transaction.
    pub fn single(kind: BusOpKind, addr: Addr, bytes: u32, master: MasterId, tag: u64) -> Self {
        debug_assert!(matches!(
            kind,
            BusOpKind::SingleRead | BusOpKind::SingleWrite
        ));
        debug_assert!(bytes >= 1 && bytes <= BEAT_BYTES as u32);
        BusOp {
            kind,
            addr,
            bytes,
            master,
            tag,
        }
    }

    /// An address-only transaction.
    pub fn addr_only(kind: BusOpKind, addr: Addr, master: MasterId, tag: u64) -> Self {
        debug_assert!(!kind.has_data());
        BusOp {
            kind,
            addr: line_of(addr),
            bytes: 0,
            master,
            tag,
        }
    }

    /// Number of data-bus beats this transfer occupies.
    pub fn beats(&self) -> u64 {
        if !self.kind.has_data() {
            0
        } else {
            (self.bytes as u64).div_ceil(BEAT_BYTES)
        }
    }
}

/// The combined snoop verdict for one address tenure, assembled by the
/// node orchestrator from every snooper's individual response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnoopVerdict {
    /// Some snooper asserted ARTRY: the tenure is aborted and the master
    /// will re-arbitrate. (S-COMA's stall-until-data mechanism; also a
    /// cache holding the line Modified, which pushes it out first.)
    pub artry: bool,
    /// Some snooper holds the line Shared/Exclusive (drives SHD).
    pub shared: bool,
    /// Extra cycles before the data supplier can begin driving data
    /// (DRAM access latency, SRAM port latency, or castout-push delay).
    pub supply_latency: u64,
}

impl SnoopVerdict {
    /// Merge another snooper's response into the verdict (wired-OR, max
    /// of supplier latencies).
    pub fn merge(&mut self, other: SnoopVerdict) {
        self.artry |= other.artry;
        self.shared |= other.shared;
        self.supply_latency = self.supply_latency.max(other.supply_latency);
    }

    /// Convenience: an ARTRY verdict.
    pub fn retry() -> Self {
        SnoopVerdict {
            artry: true,
            ..Default::default()
        }
    }
}

sv_sim::checkpointed! {
    enum MasterId {
        0 => Ap,
        1 => ABiu,
    }
}

sv_sim::checkpointed! {
    enum BusOpKind {
        0 => Read,
        1 => Rwitm,
        2 => Kill,
        3 => WriteLine,
        4 => SingleRead,
        5 => SingleWrite,
        6 => Flush,
        7 => Clean,
    }
}

sv_sim::checkpointed! {
    struct BusOp {
        kind,
        addr,
        bytes,
        master,
        tag,
    }
}

sv_sim::checkpointed! {
    struct SnoopVerdict {
        artry,
        shared,
        supply_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_alignment() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(31), 0);
        assert_eq!(line_of(32), 32);
        assert_eq!(line_of(0x1234_5678), 0x1234_5660);
    }

    #[test]
    fn op_beats() {
        let r = BusOp::burst(BusOpKind::Read, 100, MasterId::Ap, 0);
        assert_eq!(r.addr, 96);
        assert_eq!(r.beats(), 4);
        let s = BusOp::single(BusOpKind::SingleWrite, 8, 4, MasterId::ABiu, 0);
        assert_eq!(s.beats(), 1);
        let k = BusOp::addr_only(BusOpKind::Kill, 64, MasterId::Ap, 0);
        assert_eq!(k.beats(), 0);
        assert!(!BusOpKind::Kill.has_data());
        assert!(BusOpKind::Rwitm.is_read() && BusOpKind::Rwitm.is_burst());
    }

    #[test]
    fn verdict_merge_is_wired_or() {
        let mut v = SnoopVerdict::default();
        v.merge(SnoopVerdict {
            artry: false,
            shared: true,
            supply_latency: 3,
        });
        v.merge(SnoopVerdict {
            artry: true,
            shared: false,
            supply_latency: 8,
        });
        assert!(v.artry && v.shared);
        assert_eq!(v.supply_latency, 8);
        assert!(SnoopVerdict::retry().artry);
    }
}
