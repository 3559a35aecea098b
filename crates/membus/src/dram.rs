//! DRAM timing model and functional memory contents.
//!
//! [`DramTimer`] models the memory controller as a single-ported resource
//! with a fixed first-access latency: concurrent accesses queue behind
//! each other. [`MemoryArray`] is the sparse byte store holding the
//! *functional* contents of a node's DRAM; it is also reused by the NIU
//! crate for SRAM contents.

use crate::op::Addr;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// DRAM timing parameters, in bus cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// Sentinel for the "last page marked dirty" micro-cache: no page.
const NO_PAGE: u64 = u64::MAX;

/// Page table of a [`MemoryArray`], hashed with fixed keys. Under std's
/// per-process random keys, dropping or cloning an array visits its
/// pages in a different order in every process, so the allocator's free
/// lists, and with them the host's resident set, differ from one run of
/// the same simulation to the next.
type Pages = HashMap<u64, Box<[u8; PAGE]>, BuildHasherDefault<DefaultHasher>>;

/// Sparse byte-addressable memory. Unwritten bytes read as zero.
///
/// Every write also records the touched page in a dirty set so delta
/// snapshots can emit only pages changed since the last checkpoint cut.
/// The dirty set is runtime bookkeeping: it is never serialized, and a
/// loaded array starts conservatively all-dirty.
#[derive(Debug, Clone)]
pub struct MemoryArray {
    pages: Pages,
    /// Pages written since the last [`MemoryArray::clear_dirty`].
    dirty: HashSet<u64>,
    /// Last page inserted into `dirty` — writes are bursty and page-local,
    /// so this skips the hash insert on the (hot) repeated-page case.
    last_dirty: u64,
}

impl Default for MemoryArray {
    fn default() -> Self {
        MemoryArray {
            pages: Pages::default(),
            dirty: HashSet::new(),
            last_dirty: NO_PAGE,
        }
    }
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
                Some(p) => buf[off..off + n].copy_from_slice(&p[po..po + n]),
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
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE]));
            p[po..po + n].copy_from_slice(&buf[off..off + n]);
            if self.last_dirty != page {
                self.dirty.insert(page);
                self.last_dirty = page;
            }
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
        self.dirty.clear();
        self.last_dirty = NO_PAGE;
    }

    /// Emit only dirty pages, in ascending index order so identical change
    /// sets produce identical delta bytes.
    pub fn save_delta(&self, w: &mut SnapWriter) {
        let mut idx: Vec<u64> = self
            .dirty
            .iter()
            .copied()
            .filter(|i| self.pages.contains_key(i))
            .collect();
        idx.sort_unstable();
        w.usize_(idx.len());
        for i in idx {
            w.u64(i);
            w.raw(&self.pages[&i][..]);
        }
    }

    /// Whether every stored page lies below byte address `end`.
    pub fn lies_below(&self, end: Addr) -> bool {
        self.pages.keys().all(|&p| p < end.div_ceil(PAGE as u64))
    }

    /// Apply a delta produced by [`MemoryArray::save_delta`], overwriting
    /// the listed pages. Applied pages are re-marked dirty; callers clear
    /// the marks once the whole chain has been applied.
    pub fn apply_delta(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let n = r.count()?;
        for _ in 0..n {
            let i = r.u64()?;
            let at = r.offset();
            let body: [u8; PAGE] = r
                .take(PAGE)?
                .try_into()
                .map_err(|_| SnapshotError::Corrupt { offset: at })?;
            self.pages.insert(i, Box::new(body));
            self.dirty.insert(i);
        }
        self.last_dirty = NO_PAGE;
        Ok(())
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
            w.raw(&self.pages[&i][..]);
        }
    }
}
impl StateLoad for MemoryArray {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.count()?;
        let mut pages = Pages::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let i = r.u64()?;
            let at = r.offset();
            let body: [u8; PAGE] = r
                .take(PAGE)?
                .try_into()
                .map_err(|_| SnapshotError::Corrupt { offset: at })?;
            if pages.insert(i, Box::new(body)).is_some() {
                return Err(SnapshotError::Corrupt { offset: at });
            }
        }
        // Conservative: a freshly loaded array counts as all-dirty until
        // the next checkpoint cut clears it.
        let dirty = pages.keys().copied().collect();
        Ok(MemoryArray {
            pages,
            dirty,
            last_dirty: NO_PAGE,
        })
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
