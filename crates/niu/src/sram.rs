//! NIU memories: the dual-ported aSRAM/sSRAM banks and the single-ported
//! clsSRAM cache-line-state memory.
//!
//! The dual-ported SRAMs hold message buffers and translation tables; one
//! port faces a 604 bus (aP or sP side), the other faces the IBus. Port
//! contention on the IBus side is modeled by CTRL's IBus tracker, not
//! here — this module provides functional contents plus bounds checking.
//!
//! clsSRAM holds four state bits per cache line of the S-COMA region,
//! read by the aBIU on *every* aP bus operation and written under sP (or,
//! with the approach-5 extension, aBIU hardware) control.

use sv_membus::MemoryArray;

/// Which dual-ported SRAM bank an address refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SramSel {
    /// aSRAM: the bank whose second port faces the aP bus.
    A,
    /// sSRAM: the bank whose second port faces the sP bus.
    S,
}

/// One dual-ported SRAM bank.
#[derive(Debug)]
pub struct Sram {
    bytes: u32,
    mem: MemoryArray,
}

impl Sram {
    /// A zeroed bank of `bytes` bytes.
    pub fn new(bytes: u32) -> Self {
        Sram {
            bytes,
            mem: MemoryArray::new(),
        }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> u32 {
        self.bytes
    }

    /// Whether the bank has zero capacity (never in a real NIU; for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    #[inline]
    fn check(&self, addr: u32, len: usize) {
        assert!(
            (addr as u64) + len as u64 <= self.bytes as u64,
            "SRAM access [{addr:#x}, +{len}) out of bounds ({:#x})",
            self.bytes
        );
    }

    /// Read `buf.len()` bytes at `addr`.
    pub fn read(&self, addr: u32, buf: &mut [u8]) {
        self.check(addr, buf.len());
        self.mem.read(addr as u64, buf);
    }

    /// Write `buf` at `addr`.
    pub fn write(&mut self, addr: u32, buf: &[u8]) {
        self.check(addr, buf.len());
        self.mem.write(addr as u64, buf);
    }

    /// Read into a fresh vector.
    pub fn read_vec(&self, addr: u32, len: usize) -> Vec<u8> {
        self.check(addr, len);
        self.mem.read_vec(addr as u64, len)
    }

    /// Little-endian u64 accessors.
    pub fn read_u64(&self, addr: u32) -> u64 {
        self.check(addr, 8);
        self.mem.read_u64(addr as u64)
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, addr: u32, v: u64) {
        self.check(addr, 8);
        self.mem.write_u64(addr as u64, v);
    }

    /// True if any page has been written since the last
    /// [`Sram::clear_dirty`]. Delegates to the backing [`MemoryArray`].
    pub fn has_dirty(&self) -> bool {
        self.mem.has_dirty()
    }

    /// Forget all dirty marks.
    pub fn clear_dirty(&mut self) {
        self.mem.clear_dirty();
    }

    /// Emit only the written lines of the backing array.
    pub fn save_delta(&self, w: &mut SnapWriter) {
        self.mem.save_delta(w);
    }

    /// Apply a delta produced by [`Sram::save_delta`]. A page past the
    /// bank is [`SnapshotError::Corrupt`] at the delta's start.
    pub fn apply_delta(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let at = r.offset();
        self.mem.apply_delta(r)?;
        if !self.mem.lies_below(self.bytes.into()) {
            return Err(SnapshotError::Corrupt { offset: at });
        }
        Ok(())
    }
}

/// S-COMA cache-line states kept in clsSRAM.
///
/// Four bits are available per line in the hardware; the default S-COMA
/// protocol uses these four states. The aBIU's reaction table maps
/// `(bus operation, state)` to `{retry?, notify sP?}` exactly as in the
/// paper ("two bits encode the possible reactions").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ClsState {
    /// No valid copy: any access must be retried and the sP notified.
    Invalid = 0,
    /// Readable copy: reads proceed, writes retry + notify (upgrade).
    ReadOnly = 1,
    /// Writable copy: everything proceeds.
    ReadWrite = 2,
    /// A miss is outstanding: accesses retry *without* re-notifying.
    Pending = 3,
}

impl ClsState {
    /// Decode from the 4-bit field (upper two bits reserved for
    /// experiment-defined protocols).
    pub fn from_bits(b: u8) -> Self {
        match b & 0b11 {
            0 => ClsState::Invalid,
            1 => ClsState::ReadOnly,
            2 => ClsState::ReadWrite,
            _ => ClsState::Pending,
        }
    }

    /// Encode to the 4-bit field.
    pub fn bits(self) -> u8 {
        self as u8
    }
}

/// The single-ported cache-line-state SRAM.
///
/// Stored sparsely (most experiments touch a tiny fraction of the
/// 256 MB-region's 8 M lines); unset lines read as [`ClsState::Invalid`].
#[derive(Debug)]
pub struct ClsSram {
    lines: std::collections::HashMap<u64, u8>,
    capacity_lines: u64,
    /// Whole-section dirty flag: any `set` since the last checkpoint cut.
    /// Runtime bookkeeping, never serialized; fresh and loaded instances
    /// start conservatively dirty.
    dirty: bool,
}

impl Default for ClsSram {
    fn default() -> Self {
        ClsSram {
            lines: Default::default(),
            capacity_lines: 0,
            dirty: true,
        }
    }
}

impl ClsSram {
    /// State storage covering `capacity_lines` cache lines.
    pub fn new(capacity_lines: u64) -> Self {
        ClsSram {
            lines: Default::default(),
            capacity_lines,
            dirty: true,
        }
    }

    #[inline]
    fn check(&self, line: u64) {
        assert!(
            line < self.capacity_lines,
            "clsSRAM line {line} out of range ({})",
            self.capacity_lines
        );
    }

    /// Current state of `line`.
    pub fn get(&self, line: u64) -> ClsState {
        self.check(line);
        ClsState::from_bits(self.lines.get(&line).copied().unwrap_or(0))
    }

    /// Set the state of `line`.
    pub fn set(&mut self, line: u64, state: ClsState) {
        self.check(line);
        self.dirty = true;
        if state == ClsState::Invalid {
            self.lines.remove(&line);
        } else {
            self.lines.insert(line, state.bits());
        }
    }

    /// Set a contiguous range of lines (block-operation support used by
    /// transfer approaches 4 and 5).
    pub fn set_range(&mut self, first_line: u64, count: u64, state: ClsState) {
        for l in first_line..first_line + count {
            self.set(l, state);
        }
    }

    /// Number of lines in a non-Invalid state.
    pub fn populated(&self) -> usize {
        self.lines.len()
    }

    /// Total lines this SRAM covers (the bound `get`/`set` assert).
    pub fn capacity_lines(&self) -> u64 {
        self.capacity_lines
    }

    /// True if any line changed since the last [`ClsSram::clear_dirty`].
    pub fn has_dirty(&self) -> bool {
        self.dirty
    }

    /// Forget the dirty mark.
    pub fn clear_dirty(&mut self) {
        self.dirty = false;
    }
}

use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError, StateLoad, StateSave};

sv_sim::checkpointed! {
    enum SramSel {
        0 => A,
        1 => S,
    }
}

impl StateSave for Sram {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(self.bytes);
        w.save(&self.mem);
    }
}
impl StateLoad for Sram {
    /// A page past the bank is [`SnapshotError::Corrupt`] at the bank's
    /// start: no write puts one there.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let at = r.offset();
        let bytes = r.u32()?;
        let mem: MemoryArray = r.load()?;
        if !mem.lies_below(bytes.into()) {
            return Err(SnapshotError::Corrupt { offset: at });
        }
        Ok(Sram { bytes, mem })
    }
}

sv_sim::checkpointed! {
    enum ClsState {
        0 => Invalid,
        1 => ReadOnly,
        2 => ReadWrite,
        3 => Pending,
    }
}

sv_sim::checkpointed! {
    struct ClsSram {
        capacity_lines,
        lines,
    }
    skip { dirty: true }
    // An out-of-range line would trip the bounds assert on the next
    // access; reject it here instead.
    validate: |c: &ClsSram| c.lines.keys().all(|&l| l < c.capacity_lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_roundtrip() {
        let mut s = Sram::new(1024);
        s.write(100, &[1, 2, 3, 4]);
        assert_eq!(s.read_vec(100, 4), vec![1, 2, 3, 4]);
        s.write_u64(0, 0xABCD);
        assert_eq!(s.read_u64(0), 0xABCD);
        assert_eq!(s.len(), 1024);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sram_bounds_checked() {
        let s = Sram::new(64);
        let mut b = [0u8; 8];
        s.read(60, &mut b);
    }

    #[test]
    fn cls_state_codec() {
        for s in [
            ClsState::Invalid,
            ClsState::ReadOnly,
            ClsState::ReadWrite,
            ClsState::Pending,
        ] {
            assert_eq!(ClsState::from_bits(s.bits()), s);
        }
        // Upper bits ignored.
        assert_eq!(ClsState::from_bits(0b1101), ClsState::ReadOnly);
    }

    #[test]
    fn cls_sram_defaults_invalid() {
        let mut c = ClsSram::new(100);
        assert_eq!(c.get(5), ClsState::Invalid);
        c.set(5, ClsState::ReadWrite);
        assert_eq!(c.get(5), ClsState::ReadWrite);
        c.set(5, ClsState::Invalid);
        assert_eq!(c.populated(), 0);
    }

    #[test]
    fn cls_range_set() {
        let mut c = ClsSram::new(100);
        c.set_range(10, 5, ClsState::Pending);
        assert_eq!(c.get(9), ClsState::Invalid);
        for l in 10..15 {
            assert_eq!(c.get(l), ClsState::Pending);
        }
        assert_eq!(c.get(15), ClsState::Invalid);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cls_bounds() {
        let c = ClsSram::new(10);
        let _ = c.get(10);
    }
}
