//! DRAM timing model and functional memory contents.
//!
//! [`DramTimer`] models the memory controller as a single-ported resource
//! with a fixed first-access latency: concurrent accesses queue behind
//! each other. [`MemoryArray`] is the sparse byte store holding the
//! *functional* contents of a node's DRAM; it is also reused by the NIU
//! crate for SRAM contents.

use crate::op::Addr;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// DRAM timing parameters, in bus cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramParams {
    /// Cycles from snoop resolution to the first data beat.
    pub first_access_cycles: u64,
    /// Cycles the controller stays busy after starting an access (bank
    /// occupancy), independent of the data-bus transfer itself.
    pub occupancy_cycles: u64,
}

impl Default for DramParams {
    fn default() -> Self {
        DramParams {
            first_access_cycles: 8,
            occupancy_cycles: 6,
        }
    }
}

/// Memory-controller availability tracker.
#[derive(Debug, Default)]
pub struct DramTimer {
    busy_until: u64,
    /// Accesses performed.
    pub accesses: u64,
    /// Queue delay cycles.
    pub queue_delay_cycles: u64,
}

impl DramTimer {
    /// Supply latency (in cycles, relative to `cycle`) for an access
    /// arbitrated at `cycle`, accounting for controller occupancy.
    pub fn supply_latency(&mut self, cycle: u64, params: &DramParams) -> u64 {
        self.accesses += 1;
        let start = self.busy_until.max(cycle);
        self.queue_delay_cycles += start - cycle;
        self.busy_until = start + params.occupancy_cycles;
        (start - cycle) + params.first_access_cycles
    }
}

const PAGE: usize = 4096;

/// Granule of dirty tracking: a page's 64 lines fit one `u64` mask.
const LINE: usize = PAGE / 64;

/// Page indices an address can reach.
const PAGES: u64 = u64::MAX / PAGE as u64 + 1;

/// Mask of the lines that the `n > 0` bytes at page offset `po` touch.
fn line_mask(po: usize, n: usize) -> u64 {
    let (first, last) = (po / LINE, (po + n - 1) / LINE);
    (u64::MAX >> (63 - last)) & (u64::MAX << first)
}

/// Byte ranges within a page of the lines set in `mask`, ascending.
fn masked_lines(mask: u64) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..64)
        .filter(move |l| mask >> l & 1 == 1)
        .map(|l| l * LINE..(l + 1) * LINE)
}

/// One page of a [`MemoryArray`] and the mask of its lines written since
/// the last [`MemoryArray::clear_dirty`]. glibc's allocator serves 4,104
/// bytes from the same 4,112-byte chunk as a bare 4 KiB page, so the
/// mask costs the host no memory there.
#[derive(Debug, Clone)]
struct Page {
    bytes: [u8; PAGE],
    dirty: u64,
}

impl Page {
    fn zeroed() -> Box<Page> {
        Box::new(Page {
            bytes: [0; PAGE],
            dirty: 0,
        })
    }
}

/// Page table of a [`MemoryArray`], hashed with fixed keys. Under std's
/// per-process random keys, dropping or cloning an array visits its
/// pages in a different order in every process, so the allocator's free
/// lists, and with them the host's resident set, differ from one run of
/// the same simulation to the next.
type Pages = HashMap<u64, Box<Page>, BuildHasherDefault<DefaultHasher>>;

/// Sparse byte-addressable memory. Unwritten bytes read as zero.
///
/// Every write also records the 64-byte lines it touched in its page's
/// line mask, so delta snapshots can emit only the lines changed since
/// the last checkpoint cut; the lookup that finds the page finds the
/// mask, so tracking costs a write no hash operation. The marks are
/// runtime bookkeeping: they are never serialized, and a loaded array
/// starts conservatively all-dirty.
#[derive(Debug, Clone, Default)]
pub struct MemoryArray {
    pages: Pages,
    /// Pages whose line mask is nonzero, each listed once, in the order
    /// of their first write since the last [`MemoryArray::clear_dirty`].
    dirty: Vec<u64>,
}

impl MemoryArray {
    /// An empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        let mut a = addr;
        let mut off = 0;
        while off < buf.len() {
            let page = a / PAGE as u64;
            let po = (a % PAGE as u64) as usize;
            let n = (PAGE - po).min(buf.len() - off);
            match self.pages.get(&page) {
                Some(p) => buf[off..off + n].copy_from_slice(&p.bytes[po..po + n]),
                None => buf[off..off + n].fill(0),
            }
            a += n as u64;
            off += n;
        }
    }

    /// Write `buf` starting at `addr`.
    pub fn write(&mut self, addr: Addr, buf: &[u8]) {
        let mut a = addr;
        let mut off = 0;
        while off < buf.len() {
            let page = a / PAGE as u64;
            let po = (a % PAGE as u64) as usize;
            let n = (PAGE - po).min(buf.len() - off);
            let p = self.pages.entry(page).or_insert_with(Page::zeroed);
            p.bytes[po..po + n].copy_from_slice(&buf[off..off + n]);
            if p.dirty == 0 {
                self.dirty.push(page);
            }
            p.dirty |= line_mask(po, n);
            a += n as u64;
            off += n;
        }
    }

    /// Read a little-endian u64.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Read `len` bytes into a fresh vector.
    pub fn read_vec(&self, addr: Addr, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v);
        v
    }

    /// Fill `[addr, addr+len)` with a deterministic pattern derived from
    /// `seed` — used by tests and workloads to verify end-to-end transfers.
    pub fn fill_pattern(&mut self, addr: Addr, len: usize, seed: u64) {
        let mut buf = vec![0u8; len];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
                >> 32) as u8;
        }
        self.write(addr, &buf);
    }

    /// Number of backing pages allocated so far.
    pub fn pages_allocated(&self) -> usize {
        self.pages.len()
    }

    /// True if any page has been written since the last
    /// [`MemoryArray::clear_dirty`].
    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Forget all dirty marks — called when a checkpoint cut captures the
    /// current contents.
    pub fn clear_dirty(&mut self) {
        for i in self.dirty.drain(..) {
            if let Some(p) = self.pages.get_mut(&i) {
                p.dirty = 0;
            }
        }
    }

    /// Emit only the dirty lines: each dirty page's index, its nonzero
    /// line mask and the masked lines, pages in ascending index order so
    /// identical change sets produce identical delta bytes.
    pub fn save_delta(&self, w: &mut SnapWriter) {
        let mut idx = self.dirty.clone();
        idx.sort_unstable();
        w.usize_(idx.len());
        for i in idx {
            let p = &self.pages[&i];
            w.u64(i);
            w.u64(p.dirty);
            for line in masked_lines(p.dirty) {
                w.raw(&p.bytes[line]);
            }
        }
    }

    /// Whether every stored page lies below byte address `end`.
    pub fn lies_below(&self, end: Addr) -> bool {
        self.pages.keys().all(|&p| p < end.div_ceil(PAGE as u64))
    }

    /// Apply a delta produced by [`MemoryArray::save_delta`], overwriting
    /// the listed lines; a page the array lacks starts as zeros, as it
    /// did in the writer. A page index out of order or a line mask of 0
    /// is [`SnapshotError::Corrupt`] at its offset, so a delta has one
    /// encoding. Applied lines are re-marked dirty; callers clear the
    /// marks once the whole chain has been applied.
    pub fn apply_delta(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let n = r.count()?;
        let mut prev = None;
        for _ in 0..n {
            let i = page_index(r, prev)?;
            let at = r.offset();
            let mask = r.u64()?;
            if mask == 0 {
                return Err(SnapshotError::Corrupt { offset: at });
            }
            let p = self.pages.entry(i).or_insert_with(Page::zeroed);
            for line in masked_lines(mask) {
                let len = line.len();
                p.bytes[line].copy_from_slice(r.take(len)?);
            }
            if p.dirty == 0 {
                self.dirty.push(i);
            }
            p.dirty |= mask;
            prev = Some(i);
        }
        Ok(())
    }
}

/// Read a page index that must exceed `prev`, the one read before it:
/// an index out of order, repeated or unreachable is
/// [`SnapshotError::Corrupt`] at its offset.
fn page_index(r: &mut SnapReader<'_>, prev: Option<u64>) -> Result<u64, SnapshotError> {
    let at = r.offset();
    match r.u64()? {
        i if i < PAGES && prev.is_none_or(|p| i > p) => Ok(i),
        _ => Err(SnapshotError::Corrupt { offset: at }),
    }
}

use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError, StateLoad, StateSave};

sv_sim::checkpointed! {
    struct DramParams {
        first_access_cycles,
        occupancy_cycles,
    }
}

sv_sim::checkpointed! {
    struct DramTimer {
        busy_until,
        accesses,
        queue_delay_cycles,
    }
}

impl StateSave for MemoryArray {
    /// Pages are written in ascending index order so identical memory
    /// images produce identical snapshot bytes.
    fn save(&self, w: &mut SnapWriter) {
        w.usize_(self.pages.len());
        let mut idx: Vec<u64> = self.pages.keys().copied().collect();
        idx.sort_unstable();
        for i in idx {
            w.u64(i);
            w.raw(&self.pages[&i].bytes);
        }
    }
}
impl StateLoad for MemoryArray {
    /// Pages must come in ascending index order, as they are written: a
    /// page out of order or repeated is [`SnapshotError::Corrupt`] at its
    /// index, so an accepted array re-saves byte-identically.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.count()?;
        // Each page takes its index and 4 KiB: reserve no more than fit.
        let fit = n.min(r.remaining() / (8 + PAGE));
        let mut pages = Pages::with_capacity_and_hasher(fit, Default::default());
        let mut dirty = Vec::with_capacity(fit);
        for _ in 0..n {
            let i = page_index(r, dirty.last().copied())?;
            let mut p = Page::zeroed();
            p.bytes.copy_from_slice(r.take(PAGE)?);
            // Conservative: a freshly loaded array counts as all-dirty
            // until the next checkpoint cut clears it.
            p.dirty = u64::MAX;
            pages.insert(i, p);
            dirty.push(i);
        }
        Ok(MemoryArray { pages, dirty })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let m = MemoryArray::new();
        let mut b = [0xAA; 16];
        m.read(0x1_0000, &mut b);
        assert_eq!(b, [0; 16]);
    }

    #[test]
    fn every_array_visits_its_pages_in_the_same_order() {
        let fill = || {
            let mut m = MemoryArray::new();
            for i in 0..64u64 {
                m.write(i * 3 * PAGE as u64, &[1]);
            }
            m
        };
        let order = |m: &MemoryArray| m.pages.keys().copied().collect::<Vec<_>>();
        assert_eq!(order(&fill()), order(&fill()));
    }

    #[test]
    fn write_read_roundtrip_across_pages() {
        let mut m = MemoryArray::new();
        let data: Vec<u8> = (0..=255).collect();
        // Straddle a page boundary.
        m.write(4096 - 100, &data);
        assert_eq!(m.read_vec(4096 - 100, 256), data);
        assert_eq!(m.pages_allocated(), 2);
    }

    #[test]
    fn u64_accessors() {
        let mut m = MemoryArray::new();
        m.write_u64(8, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read_u64(8), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read_u64(0), 0);
    }

    #[test]
    fn pattern_is_deterministic_and_seed_sensitive() {
        let mut a = MemoryArray::new();
        let mut b = MemoryArray::new();
        a.fill_pattern(0, 64, 42);
        b.fill_pattern(0, 64, 42);
        assert_eq!(a.read_vec(0, 64), b.read_vec(0, 64));
        b.fill_pattern(0, 64, 43);
        assert_ne!(a.read_vec(0, 64), b.read_vec(0, 64));
    }

    fn delta(m: &MemoryArray) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.save_delta(&mut w);
        w.finish()
    }

    #[test]
    fn a_delta_carries_only_the_lines_written() {
        let mut m = MemoryArray::new();
        m.write(3 * PAGE as u64 - 8, &[7; 16]); // the last line of page 2 and the first of 3
        m.write(2 * PAGE as u64 + 64, &[1; 8]); // line 1 of page 2, after leaving it
        m.write(3 * PAGE as u64 + 200, &[2; 100]); // lines 3 and 4 of page 3
        let d = delta(&m);
        // Count; then per page its index, its mask and 64 bytes per line.
        assert_eq!(d.len(), 8 + 2 * 16 + 5 * LINE);
        let word = |k: usize| u64::from_le_bytes(d[8 * k..8 * k + 8].try_into().unwrap());
        assert_eq!((word(0), word(1), word(2)), (2, 2, 1 << 63 | 1 << 1));
        let second = 8 + 16 + 2 * LINE;
        let at = |o: usize| u64::from_le_bytes(d[o..o + 8].try_into().unwrap());
        assert_eq!((at(second), at(second + 8)), (3, 0b11001));
        let mut back = MemoryArray::new();
        back.apply_delta(&mut SnapReader::new(&d)).unwrap();
        assert_eq!(back.read_vec(0, 4 * PAGE), m.read_vec(0, 4 * PAGE));
        assert_eq!(delta(&back), d, "applied lines are marked dirty again");
        m.clear_dirty();
        assert!(!m.has_dirty());
        assert_eq!(delta(&m), 0u64.to_le_bytes());
    }

    #[test]
    fn a_partial_page_absent_from_the_base_restores_as_zeros_around_its_lines() {
        let mut donor = MemoryArray::new();
        donor.write(0x10, &[1; 4]);
        let mut w = SnapWriter::new();
        donor.save(&mut w);
        let base = w.finish();
        donor.clear_dirty();
        donor.write(5 * PAGE as u64 + 130, &[9; 3]);
        donor.write(0x10, &[2; 4]);
        let mut m: MemoryArray = SnapReader::new(&base).load().unwrap();
        m.write(5 * PAGE as u64, &[0xEE; PAGE]); // the replica's own garbage...
        let mut fresh: MemoryArray = SnapReader::new(&base).load().unwrap();
        fresh
            .apply_delta(&mut SnapReader::new(&delta(&donor)))
            .unwrap();
        assert_eq!(fresh.pages_allocated(), 2);
        assert_eq!(fresh.read_vec(0, 6 * PAGE), donor.read_vec(0, 6 * PAGE));
        // ...is overwritten only on the line the delta carries, 128..192.
        m.apply_delta(&mut SnapReader::new(&delta(&donor))).unwrap();
        assert_eq!(m.read_vec(5 * PAGE as u64 + 126, 5), [0xEE, 0xEE, 0, 0, 9]);
        assert_eq!(m.read_vec(5 * PAGE as u64 + 192, 1), [0xEE]);
    }

    #[test]
    fn a_zero_mask_or_a_page_out_of_order_is_corrupt_at_its_offset() {
        let mut m = MemoryArray::new();
        m.write(0, &[1]);
        m.write(PAGE as u64, &[2]);
        let d = delta(&m);
        let apply = |d: &[u8]| MemoryArray::new().apply_delta(&mut SnapReader::new(d));
        assert_eq!(apply(&d), Ok(()));
        let second = 8 + 16 + LINE;
        let forge = |at: usize, v: u64| {
            let mut bad = d.clone();
            bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
            bad
        };
        let corrupt = |offset| Err(SnapshotError::Corrupt { offset });
        assert_eq!(apply(&forge(16, 0)), corrupt(16), "zero mask");
        assert_eq!(apply(&forge(second, 0)), corrupt(second), "repeated page");
        assert_eq!(
            apply(&forge(second, u64::MAX)),
            corrupt(second),
            "no such page"
        );
    }

    #[test]
    fn a_delta_cut_inside_a_masked_page_is_truncated_at_its_line() {
        let mut m = MemoryArray::new();
        m.write(0, &[1]);
        m.write(PAGE as u64 + 3 * LINE as u64, &[2; 100]);
        let d = delta(&m);
        let apply = |d: &[u8]| MemoryArray::new().apply_delta(&mut SnapReader::new(d));
        assert_eq!(apply(&d), Ok(()));
        // Cut anywhere, a typed error; inside a masked line, truncation
        // at that line: the first page's line at 24, the second page's
        // two lines after its index and mask.
        for cut in 0..d.len() {
            assert!(apply(&d[..cut]).is_err(), "cut {cut}");
        }
        let second = 24 + LINE + 16;
        for line in [24, second, second + LINE] {
            for cut in [line, line + 1, line + LINE - 1] {
                let got = apply(&d[..cut]);
                let want = SnapshotError::Truncated {
                    offset: line,
                    need: LINE,
                };
                assert_eq!(got, Err(want), "cut {cut}");
            }
        }
    }

    #[test]
    fn a_full_array_lists_its_pages_in_ascending_order_only() {
        let mut m = MemoryArray::new();
        m.write(0, &[1]);
        m.write(PAGE as u64, &[2]);
        let mut w = SnapWriter::new();
        m.save(&mut w);
        let mut bytes = w.finish();
        let load = |b: &[u8]| SnapReader::new(b).load::<MemoryArray>().map(|_| ());
        assert_eq!(load(&bytes), Ok(()));
        let second = 16 + PAGE;
        bytes[second..second + 8].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(load(&bytes), Err(SnapshotError::Corrupt { offset: second }));
    }

    #[test]
    fn dram_timer_queues_contending_accesses() {
        let p = DramParams::default();
        let mut t = DramTimer::default();
        // Back-to-back accesses at the same cycle: the second queues.
        assert_eq!(t.supply_latency(100, &p), 8);
        assert_eq!(t.supply_latency(100, &p), 8 + 6);
        assert_eq!(t.queue_delay_cycles, 6);
        // A later access after the controller freed sees base latency.
        assert_eq!(t.supply_latency(200, &p), 8);
        assert_eq!(t.accesses, 3);
    }
}
