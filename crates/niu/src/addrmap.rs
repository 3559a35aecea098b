//! The node's physical address map, as seen by the aP and decoded by the
//! aBIU on every bus operation.
//!
//! | Range | Owner | Purpose |
//! |---|---|---|
//! | `0 .. dram_len` | memory controller | ordinary DRAM |
//! | `scoma_base .. +scoma_len` | memory controller (data) + aBIU (clsSRAM check) | S-COMA region: local DRAM used as an L3 cache of global lines |
//! | `numa_base .. +numa_len` | aBIU | NUMA region: operations forwarded to the sP |
//! | `niu_base + ASRAM_OFF` | aBIU | aSRAM window: message buffers, pointer shadows |
//! | `niu_base + PTR_OFF` | aBIU | queue-pointer updates — all information is encoded in the *address* of the store |
//! | `niu_base + EXPRESS_TX_OFF` | aBIU | Express transmit: one store composes and launches a message |
//! | `niu_base + EXPRESS_RX_OFF` | aBIU | Express receive: one load pops a message |
//!
//! The map decides which agent claims an operation; region sizes are
//! configurable per machine.

/// Offsets within the NIU window.
pub const ASRAM_OFF: u64 = 0x0000_0000;
/// Pointer-update region offset.
pub const PTR_OFF: u64 = 0x0100_0000;
/// Express transmit region offset. The region spans `[q:2][dest:16]
/// [tag:8][align:3]` = 2^29 bytes so a single store can address any
/// destination the 16-bit translation namespace can name; machines at
/// or below 256 nodes only ever touch the bottom of it.
pub const EXPRESS_TX_OFF: u64 = 0x0300_0000;
/// Express receive region offset.
pub const EXPRESS_RX_OFF: u64 = EXPRESS_TX_OFF + (1 << 29);
/// Size of the whole NIU window.
pub const NIU_WIN_LEN: u64 = 0x4000_0000;

/// What region an address falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// Variant fields are named self-descriptively; the variants themselves
// are documented above each one.
#[allow(missing_docs)]
pub enum Region {
    /// Ordinary DRAM, owned by the memory controller.
    Dram,
    /// S-COMA region: local DRAM gated by the clsSRAM state check.
    Scoma,
    /// NUMA region: operations forwarded to the sP.
    Numa,
    /// aSRAM window; carries the offset into aSRAM.
    Asram(u32),
    /// Pointer update; carries `(is_rx, queue, value)` decoded from the
    /// address.
    PtrUpdate { is_rx: bool, q: u8, value: u16 },
    /// Express transmit; carries `(queue, dest, tag)`.
    ExpressTx { q: u8, dest: u16, tag: u8 },
    /// Express receive; carries the hardware queue index.
    ExpressRx { q: u8 },
    /// Reflective-memory window (Shrimp / Memory Channel emulation,
    /// paper §5): reads are local DRAM; stores are written through the
    /// bus, captured by the aBIU, and propagated to the mapped peer.
    Reflect,
    /// Address hit no mapped region.
    Hole,
}

/// The address map of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    /// Bytes of ordinary DRAM starting at address 0.
    pub dram_len: u64,
    /// Base of the S-COMA region.
    pub scoma_base: u64,
    /// Size of the S-COMA region, bytes.
    pub scoma_len: u64,
    /// Base of the NUMA region.
    pub numa_base: u64,
    /// Size of the NUMA region, bytes.
    pub numa_len: u64,
    /// Base of the memory-mapped NIU window.
    pub niu_base: u64,
    /// Base of the reflective-memory region.
    pub reflect_base: u64,
    /// Size of the reflective-memory region, bytes.
    pub reflect_len: u64,
}

impl Default for AddressMap {
    fn default() -> Self {
        AddressMap {
            dram_len: 512 << 20,
            scoma_base: 0x4000_0000,
            scoma_len: 256 << 20,
            numa_base: 0x8000_0000,
            numa_len: 1 << 30,
            niu_base: 0xF000_0000,
            reflect_base: 0xE000_0000,
            reflect_len: 16 << 20,
        }
    }
}

impl AddressMap {
    /// Encode a pointer-update store address: everything CTRL needs is in
    /// the address, so the store carries no meaningful data.
    pub fn ptr_update_addr(&self, is_rx: bool, q: u8, value: u16) -> u64 {
        self.niu_base
            + PTR_OFF
            + (((is_rx as u64) << 23) | ((q as u64 & 0xF) << 19) | ((value as u64) << 3))
    }

    /// Encode an Express-transmit store address.
    pub fn express_tx_addr(&self, q: u8, dest: u16, tag: u8) -> u64 {
        self.niu_base
            + EXPRESS_TX_OFF
            + (((q as u64 & 0b11) << 27) | crate::msg::express::tx_offset(dest, tag))
    }

    /// Encode an Express-receive load address.
    pub fn express_rx_addr(&self, q: u8) -> u64 {
        self.niu_base + EXPRESS_RX_OFF + ((q as u64 & 0xF) << 3)
    }

    /// Address of aSRAM offset `off` in the aP's view.
    pub fn asram_addr(&self, off: u32) -> u64 {
        self.niu_base + ASRAM_OFF + off as u64
    }

    /// Classify a physical address.
    pub fn classify(&self, addr: u64) -> Region {
        if addr < self.dram_len {
            return Region::Dram;
        }
        if addr >= self.scoma_base && addr < self.scoma_base + self.scoma_len {
            return Region::Scoma;
        }
        if addr >= self.numa_base && addr < self.numa_base + self.numa_len {
            return Region::Numa;
        }
        if addr >= self.reflect_base && addr < self.reflect_base + self.reflect_len {
            return Region::Reflect;
        }
        if addr >= self.niu_base && addr < self.niu_base + NIU_WIN_LEN {
            let off = addr - self.niu_base;
            return match off {
                o if o < PTR_OFF => Region::Asram(o as u32),
                o if o < EXPRESS_TX_OFF => {
                    let bits = o - PTR_OFF;
                    Region::PtrUpdate {
                        is_rx: (bits >> 23) & 1 != 0,
                        q: ((bits >> 19) & 0xF) as u8,
                        value: ((bits >> 3) & 0xFFFF) as u16,
                    }
                }
                o if o < EXPRESS_RX_OFF => {
                    let bits = o - EXPRESS_TX_OFF;
                    let q = ((bits >> 27) & 0b11) as u8;
                    let (dest, tag) = crate::msg::express::decode_tx_offset(bits & ((1 << 27) - 1));
                    Region::ExpressTx { q, dest, tag }
                }
                o if o < EXPRESS_RX_OFF + 0x100 => Region::ExpressRx {
                    q: (((o - EXPRESS_RX_OFF) >> 3) & 0xF) as u8,
                },
                _ => Region::Hole,
            };
        }
        Region::Hole
    }

    /// Whether the memory controller supplies data for `addr` (DRAM, the
    /// S-COMA region, and reflective windows — all backed by local DRAM).
    pub fn is_memory_backed(&self, addr: u64) -> bool {
        matches!(
            self.classify(addr),
            Region::Dram | Region::Scoma | Region::Reflect
        )
    }

    /// clsSRAM line index for an S-COMA address.
    pub fn scoma_line(&self, addr: u64) -> u64 {
        debug_assert!(matches!(self.classify(addr), Region::Scoma));
        (addr - self.scoma_base) / sv_membus::CACHE_LINE
    }
}

sv_sim::checkpointed! {
    struct AddressMap {
        dram_len,
        scoma_base,
        scoma_len,
        numa_base,
        numa_len,
        niu_base,
        reflect_base,
        reflect_len,
    }
    validate: AddressMap::spans_fit
}

impl AddressMap {
    /// `classify` computes `base + len` for every region on every bus
    /// operation; a forged map that wraps the address space would panic
    /// there (debug) or misclassify everything (release).
    fn spans_fit(&self) -> bool {
        [
            (self.scoma_base, self.scoma_len),
            (self.numa_base, self.numa_len),
            (self.reflect_base, self.reflect_len),
            (self.niu_base, NIU_WIN_LEN),
        ]
        .iter()
        .all(|&(b, l)| b.checked_add(l).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_basic_regions() {
        let m = AddressMap::default();
        assert_eq!(m.classify(0x1000), Region::Dram);
        assert_eq!(m.classify(0x4000_0000), Region::Scoma);
        assert_eq!(m.classify(0x8000_0000), Region::Numa);
        assert_eq!(m.classify(0x3000_0000), Region::Hole);
        assert!(m.is_memory_backed(0x4000_0040));
        assert!(!m.is_memory_backed(0x8000_0000));
    }

    #[test]
    fn ptr_update_roundtrip() {
        let m = AddressMap::default();
        for is_rx in [false, true] {
            for q in [0u8, 7, 15] {
                for v in [0u16, 1, 0xFFFF] {
                    let a = m.ptr_update_addr(is_rx, q, v);
                    match m.classify(a) {
                        Region::PtrUpdate {
                            is_rx: r,
                            q: qq,
                            value,
                        } => {
                            assert_eq!((r, qq, value), (is_rx, q, v));
                        }
                        other => panic!("misclassified as {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn express_tx_roundtrip() {
        let m = AddressMap::default();
        // Both a legacy-range destination and one past the old 10-bit
        // field (a wide-machine Express class base) must round-trip.
        for dest in [300u16, 2 * 4096 + 300] {
            let a = m.express_tx_addr(2, dest, 0xAB);
            match m.classify(a) {
                Region::ExpressTx { q, dest: d, tag } => {
                    assert_eq!((q, d, tag), (2, dest, 0xAB));
                }
                other => panic!("misclassified as {other:?}"),
            }
        }
    }

    #[test]
    fn express_rx_roundtrip() {
        let m = AddressMap::default();
        match m.classify(m.express_rx_addr(9)) {
            Region::ExpressRx { q } => assert_eq!(q, 9),
            other => panic!("misclassified as {other:?}"),
        }
    }

    #[test]
    fn asram_window() {
        let m = AddressMap::default();
        assert_eq!(m.classify(m.asram_addr(0x4F00)), Region::Asram(0x4F00));
    }

    #[test]
    fn reflect_region() {
        let m = AddressMap::default();
        assert_eq!(m.classify(0xE000_0000), Region::Reflect);
        assert_eq!(m.classify(0xE100_0000 - 1), Region::Reflect);
        assert_eq!(m.classify(0xE100_0000), Region::Hole);
        assert!(m.is_memory_backed(0xE000_1000));
    }

    #[test]
    fn scoma_line_index() {
        let m = AddressMap::default();
        assert_eq!(m.scoma_line(0x4000_0000), 0);
        assert_eq!(m.scoma_line(0x4000_0000 + 32 * 7 + 5), 7);
    }
}
