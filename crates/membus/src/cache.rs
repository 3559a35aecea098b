//! Set-associative snoopy MESI cache.
//!
//! Used for the 604e's L1 data cache and the in-line L2. The cache is a
//! *timing and coherence-state* model: functional data lives in the
//! node's [`crate::dram::MemoryArray`] and is logically written through at
//! completion instants (the simulation is globally ordered, so
//! write-through functional data with MESI-governed timing is
//! indistinguishable from a writeback data model — while being far
//! simpler). What the MESI states govern is what the paper's experiments
//! measure: which accesses hit locally and which become bus transactions.
//!
//! Snoop behaviour on an external operation follows the 604 discipline,
//! with cache-to-cache supply modeled as a supplier latency rather than
//! an ARTRY-writeback-retry loop (timing-equivalent to first order, and
//! it keeps ARTRY free for its load-bearing role in S-COMA).
//!
//! Way slots are stored flat and set-major (set `s` owns slots
//! `s * ways .. (s + 1) * ways`), one zero-initialised array per field.
//! Every field is encoded so that all-zero bytes mean "never used": the
//! state byte 0 is [`Mesi::Invalid`] and tags are stored bit-inverted, so
//! a zero reads as the never-used tag `u64::MAX`. A fresh cache is thus
//! three `calloc`s whose untouched pages cost no resident memory.

use crate::op::{line_of, Addr, BusOpKind, SnoopVerdict, CACHE_LINE};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use sv_sim::stats::Counter;

/// MESI coherence states. The discriminants are the slot-array encoding
/// (`Invalid` is 0 so zeroed memory is an empty cache); snapshots use
/// their own fixed byte codes (`SNAP_STATE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum Mesi {
    /// Exclusive and dirty.
    Modified = 1,
    /// Sole clean copy.
    Exclusive = 2,
    /// Another agent holds the line (drives SHD).
    Shared = 3,
    /// No valid copy.
    Invalid = 0,
}

impl Mesi {
    /// Decode a slot-array state byte.
    #[inline]
    fn from_slot(b: u8) -> Mesi {
        match b {
            1 => Mesi::Modified,
            2 => Mesi::Exclusive,
            3 => Mesi::Shared,
            _ => Mesi::Invalid,
        }
    }
}

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheParams {
    /// Size bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Cycles a snoop hit needs before this cache can supply a modified
    /// line to the bus.
    pub push_latency_cycles: u64,
}

impl CacheParams {
    /// 604e L1 data cache: 32 KB, 4-way.
    pub fn l1_604e() -> Self {
        CacheParams {
            size_bytes: 32 * 1024,
            ways: 4,
            push_latency_cycles: 2,
        }
    }

    /// 512 KB in-line L2 card, direct-mapped.
    pub fn l2_voyager() -> Self {
        CacheParams {
            size_bytes: 512 * 1024,
            ways: 1,
            push_latency_cycles: 3,
        }
    }

    /// Whether this geometry has at least one set: zero ways, or fewer
    /// lines than ways, leave nothing to index an address into.
    pub fn validate(&self) -> bool {
        self.ways != 0 && self.sets() != 0
    }

    fn sets(&self) -> usize {
        (self.size_bytes / CACHE_LINE) as usize / self.ways
    }
}

/// Per-cache statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: Counter,
    /// Lookup misses.
    pub misses: Counter,
    /// Lines evicted.
    pub evictions: Counter,
    /// Dirty evictions.
    pub dirty_evictions: Counter,
    /// Snoop hits.
    pub snoop_hits: Counter,
    /// Snoop pushes.
    pub snoop_pushes: Counter,
}

/// Outcome of snooping an external bus operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnoopOutcome {
    /// Merged snoop verdict.
    pub verdict: SnoopVerdict,
    /// A modified line was pushed out; the owning node should count a
    /// writeback (functional data is already in memory — see module docs).
    pub pushed_dirty: bool,
}

/// Sets per dirty-tracking chunk: deltas snapshot the way arrays in
/// groups of this many consecutive sets.
const CHUNK_SETS: usize = 64;

/// One level of snoopy MESI cache.
#[derive(Debug)]
pub struct SnoopyCache {
    /// Timing/geometry parameters.
    pub params: CacheParams,
    /// Number of sets.
    sets: usize,
    /// Per slot, the line number bit-inverted (`!tag`): zero reads as the
    /// never-used tag `u64::MAX`. Invalidation keeps the stale tag.
    tags: Vec<u64>,
    /// Per slot, the [`Mesi`] discriminant (0 = `Invalid`).
    states: Vec<u8>,
    /// Per slot, the LRU age: larger = more recently used.
    lru: Vec<u64>,
    tick: u64,
    /// Running statistics.
    pub stats: CacheStats,
    /// Bitmap over [`CHUNK_SETS`]-set chunks: bit set = some way in the
    /// chunk changed since the last checkpoint cut. Runtime bookkeeping,
    /// never serialized; a fresh cache starts all-dirty.
    dirty_chunks: Vec<u64>,
    /// `tick` or `stats` changed since the last checkpoint cut.
    dirty_meta: bool,
}

impl SnoopyCache {
    /// An empty cache with the given geometry. Starts all-dirty: callers
    /// that swap in a fresh cache mid-run (e.g. a flush) must not be able
    /// to hide the replacement from delta snapshots.
    ///
    /// Panics if the geometry has no sets ([`CacheParams::validate`]).
    pub fn new(params: CacheParams) -> Self {
        assert!(params.validate(), "cache geometry has no sets: {params:?}");
        let sets = params.sets();
        let slots = sets * params.ways;
        let words = sets.div_ceil(CHUNK_SETS).div_ceil(64);
        SnoopyCache {
            params,
            sets,
            tags: vec![0; slots],
            states: vec![0; slots],
            lru: vec![0; slots],
            tick: 0,
            stats: CacheStats::default(),
            dirty_chunks: vec![u64::MAX; words],
            dirty_meta: true,
        }
    }

    #[inline]
    fn index(&self, addr: Addr) -> (usize, u64) {
        let line = line_of(addr) / CACHE_LINE;
        let set = (line as usize) % self.sets;
        (set, line)
    }

    /// The slot range of `set`.
    #[inline]
    fn slots(&self, set: usize) -> Range<usize> {
        let lo = set * self.params.ways;
        lo..lo + self.params.ways
    }

    /// The slot in `set` holding a valid copy of line `tag`, if any.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        self.slots(set)
            .find(|&i| self.tags[i] == !tag && self.states[i] != Mesi::Invalid as u8)
    }

    #[inline]
    fn mark_set(&mut self, set: usize) {
        let chunk = set / CHUNK_SETS;
        self.dirty_chunks[chunk / 64] |= 1u64 << (chunk % 64);
    }

    /// Current state of the line containing `addr`, without touching LRU.
    pub fn peek(&self, addr: Addr) -> Mesi {
        let (set, tag) = self.index(addr);
        self.find(set, tag)
            .map_or(Mesi::Invalid, |i| Mesi::from_slot(self.states[i]))
    }

    /// Look up `addr`, updating LRU and hit/miss statistics.
    pub fn lookup(&mut self, addr: Addr) -> Mesi {
        self.tick += 1;
        self.dirty_meta = true;
        let (set, tag) = self.index(addr);
        let Some(i) = self.find(set, tag) else {
            self.stats.misses.bump();
            return Mesi::Invalid;
        };
        self.lru[i] = self.tick;
        self.stats.hits.bump();
        self.mark_set(set);
        Mesi::from_slot(self.states[i])
    }

    /// Change the state of a resident line (e.g. S→M after a Kill). No-op
    /// if the line is absent.
    pub fn set_state(&mut self, addr: Addr, state: Mesi) {
        let (set, tag) = self.index(addr);
        if let Some(i) = self.find(set, tag) {
            self.states[i] = state as u8;
            self.mark_set(set);
        }
    }

    /// Install a line in `state`, evicting the LRU way if the set is full.
    /// Returns the evicted line `(addr, was_dirty)` if any.
    pub fn install(&mut self, addr: Addr, state: Mesi) -> Option<(Addr, bool)> {
        assert_ne!(state, Mesi::Invalid);
        self.tick += 1;
        self.dirty_meta = true;
        let (set, tag) = self.index(addr);
        self.mark_set(set);
        // Already resident: just update. Otherwise take a free way, or
        // evict the least recently used one.
        let slots = self.slots(set);
        let i = self
            .find(set, tag)
            .or_else(|| {
                slots
                    .clone()
                    .find(|&i| self.states[i] == Mesi::Invalid as u8)
            })
            .unwrap_or_else(|| slots.min_by_key(|&i| self.lru[i]).expect("nonzero ways"));
        let mut evicted = None;
        if self.states[i] != Mesi::Invalid as u8 && self.tags[i] != !tag {
            let dirty = self.states[i] == Mesi::Modified as u8;
            self.stats.evictions.bump();
            if dirty {
                self.stats.dirty_evictions.bump();
            }
            evicted = Some((!self.tags[i] * CACHE_LINE, dirty));
        }
        self.tags[i] = !tag;
        self.states[i] = state as u8;
        self.lru[i] = self.tick;
        evicted
    }

    /// Drop the line containing `addr`; returns whether it was dirty.
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let (set, tag) = self.index(addr);
        let i = self.find(set, tag)?;
        let dirty = self.states[i] == Mesi::Modified as u8;
        self.states[i] = Mesi::Invalid as u8;
        self.mark_set(set);
        Some(dirty)
    }

    /// React to an external bus operation (issued by another master).
    pub fn snoop(&mut self, kind: BusOpKind, addr: Addr) -> SnoopOutcome {
        let (set, tag) = self.index(addr);
        let Some(i) = self.find(set, tag) else {
            return SnoopOutcome::default();
        };
        self.stats.snoop_hits.bump();
        self.dirty_meta = true;
        self.mark_set(set);
        let state = Mesi::from_slot(self.states[i]);
        let mut out = SnoopOutcome::default();
        let next = match kind {
            BusOpKind::Read | BusOpKind::SingleRead | BusOpKind::Clean => {
                out.verdict.shared = true;
                Mesi::Shared
            }
            BusOpKind::Rwitm | BusOpKind::Flush | BusOpKind::SingleWrite | BusOpKind::WriteLine => {
                Mesi::Invalid
            }
            BusOpKind::Kill => {
                // Kill is only legal when no other cache holds M; losing
                // dirty data here would be a protocol bug upstream.
                debug_assert_ne!(state, Mesi::Modified, "Kill hit a Modified line");
                Mesi::Invalid
            }
        };
        if state == Mesi::Modified && kind != BusOpKind::Kill {
            out.pushed_dirty = true;
            out.verdict.supply_latency = self.params.push_latency_cycles;
            self.stats.snoop_pushes.bump();
        }
        self.states[i] = next as u8;
        out
    }

    /// Number of resident (non-invalid) lines; test/diagnostic helper.
    pub fn resident_lines(&self) -> usize {
        self.states
            .iter()
            .filter(|&&s| s != Mesi::Invalid as u8)
            .count()
    }
}

use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError, StateSave};

sv_sim::checkpointed! {
    struct CacheParams {
        size_bytes,
        ways,
        push_latency_cycles,
    }
    validate: CacheParams::validate
}

sv_sim::checkpointed! {
    struct CacheStats {
        hits,
        misses,
        evictions,
        dirty_evictions,
        snoop_hits,
        snoop_pushes,
    }
}

impl StateSave for SnoopyCache {
    /// Geometry is rebuilt from params; only the ways (tag, state, LRU
    /// age) and the LRU tick are snapshotted.
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.tick);
        w.save(&self.stats);
        self.save_slots(w, 0..self.tags.len());
    }
}

/// Slots moved through one [`SnapWriter::raw`] / [`SnapReader::take`]
/// call by the slot codec.
const BLOCK_SLOTS: usize = 256;

/// Encoded size of one slot: `tag: u64`, the state byte, `lru: u64`.
const SLOT_BYTES: usize = 17;

/// Snapshot state byte for each slot-array state byte. The snapshot
/// codes (M=0 E=1 S=2 I=3) predate the slot encoding (I=0 M=1 E=2 S=3)
/// and are part of the format.
const SNAP_STATE: [u8; 4] = [3, 0, 1, 2];

/// Slot-array state byte for each snapshot state byte; the inverse of
/// [`SNAP_STATE`]. Any other snapshot byte is corrupt.
const SLOT_STATE: [u8; 4] = [1, 2, 3, 0];

impl SnoopyCache {
    /// Emit `slots` in order, per way `tag: u64` (plain, including the
    /// stale tag an invalidated way keeps), the snapshot state byte and
    /// `lru: u64`, encoding [`BLOCK_SLOTS`] slots per write.
    fn save_slots(&self, w: &mut SnapWriter, slots: Range<usize>) {
        let mut buf = [0u8; BLOCK_SLOTS * SLOT_BYTES];
        for lo in slots.clone().step_by(BLOCK_SLOTS) {
            let hi = (lo + BLOCK_SLOTS).min(slots.end);
            let out = &mut buf[..(hi - lo) * SLOT_BYTES];
            let ways = self.tags[lo..hi]
                .iter()
                .zip(&self.states[lo..hi])
                .zip(&self.lru[lo..hi]);
            for (((tag, &state), lru), o) in ways.zip(out.chunks_exact_mut(SLOT_BYTES)) {
                o[..8].copy_from_slice(&(!tag).to_le_bytes());
                o[8] = SNAP_STATE[usize::from(state)];
                o[9..].copy_from_slice(&lru.to_le_bytes());
            }
            w.raw(out);
        }
    }

    /// Inverse of [`SnoopyCache::save_slots`]. A state byte outside the
    /// snapshot codes is [`SnapshotError::Corrupt`] at its own offset.
    fn load_slots(
        &mut self,
        r: &mut SnapReader<'_>,
        slots: Range<usize>,
    ) -> Result<(), SnapshotError> {
        for lo in slots.clone().step_by(BLOCK_SLOTS) {
            let hi = (lo + BLOCK_SLOTS).min(slots.end);
            let at = r.offset();
            let block = r.take((hi - lo) * SLOT_BYTES)?;
            let ways = self.tags[lo..hi]
                .iter_mut()
                .zip(&mut self.states[lo..hi])
                .zip(&mut self.lru[lo..hi]);
            for (k, (((tag, state), lru), b)) in
                ways.zip(block.chunks_exact(SLOT_BYTES)).enumerate()
            {
                let Some(&s) = SLOT_STATE.get(usize::from(b[8])) else {
                    return Err(SnapshotError::Corrupt {
                        offset: at + k * SLOT_BYTES + 8,
                    });
                };
                *tag = !u64::from_le_bytes(b[..8].try_into().expect("8-byte tag"));
                *state = s;
                *lru = u64::from_le_bytes(b[9..].try_into().expect("8-byte LRU age"));
            }
        }
        Ok(())
    }

    /// Overwrite this cache from a full snapshot taken under its own
    /// geometry. The result is conservatively all-dirty (inherited from
    /// [`SnoopyCache::new`]) until the next checkpoint cut.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let mut cache = SnoopyCache::new(self.params);
        cache.tick = r.u64()?;
        cache.stats = r.load()?;
        cache.load_slots(r, 0..cache.tags.len())?;
        *self = cache;
        Ok(())
    }

    /// Number of [`CHUNK_SETS`]-set chunks covering this geometry.
    fn chunk_count(&self) -> usize {
        self.sets.div_ceil(CHUNK_SETS)
    }

    /// The slot range of chunk `c`.
    fn chunk_slots(&self, c: usize) -> Range<usize> {
        let lo = c * CHUNK_SETS;
        let hi = (lo + CHUNK_SETS).min(self.sets);
        lo * self.params.ways..hi * self.params.ways
    }

    /// True if anything (ways, tick, or stats) changed since the last
    /// checkpoint cut.
    pub fn has_dirty(&self) -> bool {
        self.dirty_meta || self.dirty_chunks.iter().any(|w| *w != 0)
    }

    /// Forget all dirty marks — called when a checkpoint cut captures the
    /// current contents.
    pub fn clear_dirty(&mut self) {
        self.dirty_meta = false;
        self.dirty_chunks.fill(0);
    }

    /// Emit the LRU tick, stats, and only the dirty chunks of the way
    /// array, in ascending chunk order (deterministic bytes).
    pub fn save_delta(&self, w: &mut SnapWriter) {
        w.u64(self.tick);
        w.save(&self.stats);
        let dirty = || {
            (0..self.chunk_count()).filter(|c| self.dirty_chunks[c / 64] & (1u64 << (c % 64)) != 0)
        };
        w.usize_(dirty().count());
        for c in dirty() {
            w.u64(c as u64);
            self.save_slots(w, self.chunk_slots(c));
        }
    }

    /// Apply a delta produced by [`SnoopyCache::save_delta`] under the
    /// same geometry. Applied chunks are re-marked dirty; callers clear
    /// the marks once the whole chain has been applied.
    pub fn apply_delta(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.tick = r.u64()?;
        self.stats = r.load()?;
        self.dirty_meta = true;
        let n = r.count()?;
        let chunks = self.chunk_count();
        for _ in 0..n {
            let at = r.offset();
            let c = r.u64()?;
            if c as usize >= chunks {
                return Err(SnapshotError::Corrupt { offset: at });
            }
            let c = c as usize;
            self.load_slots(r, self.chunk_slots(c))?;
            self.dirty_chunks[c / 64] |= 1u64 << (c % 64);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SnoopyCache {
        // 8 sets x 2 ways x 32B = 512 B.
        SnoopyCache::new(CacheParams {
            size_bytes: 512,
            ways: 2,
            push_latency_cycles: 2,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(0x100), Mesi::Invalid);
        c.install(0x100, Mesi::Exclusive);
        assert_eq!(c.lookup(0x100), Mesi::Exclusive);
        assert_eq!(c.lookup(0x11f), Mesi::Exclusive); // same line
        assert_eq!(c.stats.hits.get(), 2);
        assert_eq!(c.stats.misses.get(), 1);
    }

    #[test]
    fn lru_eviction_prefers_least_recent() {
        let mut c = small();
        // Set stride is 8 lines * 32 B = 256 B.
        c.install(0x000, Mesi::Exclusive);
        c.install(0x100, Mesi::Exclusive); // same set, second way
        c.lookup(0x000); // make 0x000 most recent
        let evicted = c.install(0x200, Mesi::Exclusive).expect("eviction");
        assert_eq!(evicted, (0x100, false));
        assert_eq!(c.peek(0x000), Mesi::Exclusive);
        assert_eq!(c.peek(0x100), Mesi::Invalid);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.install(0x000, Mesi::Modified);
        c.install(0x100, Mesi::Exclusive);
        let (addr, dirty) = c.install(0x200, Mesi::Exclusive).unwrap();
        assert_eq!(addr, 0x000);
        assert!(dirty);
        assert_eq!(c.stats.dirty_evictions.get(), 1);
    }

    #[test]
    fn snoop_read_demotes_and_supplies() {
        let mut c = small();
        c.install(0x40, Mesi::Modified);
        let o = c.snoop(BusOpKind::Read, 0x40);
        assert!(o.pushed_dirty);
        assert!(o.verdict.shared);
        assert_eq!(o.verdict.supply_latency, 2);
        assert_eq!(c.peek(0x40), Mesi::Shared);
        // Second read: shared, no push.
        let o2 = c.snoop(BusOpKind::Read, 0x40);
        assert!(!o2.pushed_dirty);
        assert!(o2.verdict.shared);
    }

    #[test]
    fn snoop_rwitm_invalidates() {
        let mut c = small();
        c.install(0x40, Mesi::Shared);
        let o = c.snoop(BusOpKind::Rwitm, 0x40);
        assert!(!o.pushed_dirty);
        assert_eq!(c.peek(0x40), Mesi::Invalid);
    }

    #[test]
    fn snoop_single_write_pushes_modified() {
        // The remote command queue writing into DRAM must flush the aP's
        // dirty copy first; the cache reacts to the snooped single write.
        let mut c = small();
        c.install(0x80, Mesi::Modified);
        let o = c.snoop(BusOpKind::SingleWrite, 0x84);
        assert!(o.pushed_dirty);
        assert_eq!(c.peek(0x80), Mesi::Invalid);
    }

    #[test]
    fn snoop_miss_is_silent() {
        let mut c = small();
        let o = c.snoop(BusOpKind::Read, 0x40);
        assert_eq!(o, SnoopOutcome::default());
        assert_eq!(c.stats.snoop_hits.get(), 0);
    }

    #[test]
    fn set_state_upgrade() {
        let mut c = small();
        c.install(0x40, Mesi::Shared);
        c.set_state(0x40, Mesi::Modified);
        assert_eq!(c.peek(0x40), Mesi::Modified);
        c.set_state(0x999999, Mesi::Modified); // absent: no-op
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = small();
        c.install(0x40, Mesi::Modified);
        assert_eq!(c.invalidate(0x40), Some(true));
        assert_eq!(c.invalidate(0x40), None);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn reinstall_updates_in_place() {
        let mut c = small();
        c.install(0x40, Mesi::Shared);
        assert!(c.install(0x40, Mesi::Modified).is_none());
        assert_eq!(c.peek(0x40), Mesi::Modified);
        assert_eq!(c.resident_lines(), 1);
    }

    /// `save` and `save_delta` bytes, pinned as literal hex: per way,
    /// set-major, `tag: u64`, the snapshot `Mesi` byte (M=0 E=1 S=2 I=3)
    /// and `lru: u64`, all little-endian. Covers a never-used way (tag
    /// `u64::MAX`), an invalidated way keeping its stale tag, and an LRU
    /// eviction; restoring either form re-saves the same bytes.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let mut c = small();
        c.install(0x000, Mesi::Exclusive); // set 0, tick 1
        c.install(0x100, Mesi::Modified); // set 0, tick 2
        c.install(0x0e0, Mesi::Shared); // set 7, tick 3
        assert_eq!(c.invalidate(0x0e0), Some(false));
        c.lookup(0x000); // hit, tick 4
        c.lookup(0x300); // miss, tick 5
        assert_eq!(c.install(0x200, Mesi::Exclusive), Some((0x100, true))); // tick 6
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let u64s = |vs: &[u64]| vs.iter().map(|v| hex(&v.to_le_bytes())).collect::<String>();
        let empty = "ffffffffffffffff030000000000000000";
        let set7 = ["0700000000000000030300000000000000", empty].concat();
        // tick, then hits/misses/evictions/dirty/snoop_hits/snoop_pushes.
        let want_save = [
            u64s(&[6, 1, 1, 1, 1, 0, 0]),
            "0000000000000000010400000000000000".into(), // set 0: line 0, E
            "1000000000000000010600000000000000".into(), // line 16, E
            empty.repeat(12),                            // sets 1..=6
            set7.clone(),                                // stale line 7, I
        ]
        .concat();
        let mut w = SnapWriter::new();
        c.save(&mut w);
        let full = w.finish();
        assert_eq!(hex(&full), want_save);
        let mut r = small();
        r.restore(&mut SnapReader::new(&full)).unwrap();
        let mut w = SnapWriter::new();
        r.save(&mut w);
        assert_eq!(w.finish(), full);

        c.clear_dirty();
        c.snoop(BusOpKind::Read, 0x200); // E -> S in set 0, chunk 0
        let want_delta = [
            u64s(&[6, 1, 1, 1, 1, 1, 0]),
            u64s(&[1, 0]), // one dirty chunk: chunk 0
            "0000000000000000010400000000000000".into(),
            "1000000000000000020600000000000000".into(),
            empty.repeat(12),
            set7,
        ]
        .concat();
        let mut w = SnapWriter::new();
        c.save_delta(&mut w);
        let delta = w.finish();
        assert_eq!(hex(&delta), want_delta);
        let mut r = small();
        r.apply_delta(&mut SnapReader::new(&delta)).unwrap();
        let mut w = SnapWriter::new();
        r.save_delta(&mut w);
        assert_eq!(w.finish(), delta);
    }

    /// Bytes before the first slot of a full snapshot: the LRU tick and
    /// the six stats counters.
    const META: usize = 7 * 8;

    /// A full snapshot of an L1-geometry cache (1024 slots, four codec
    /// blocks) holding every state, stale tags and never-used ways.
    fn l1_snapshot() -> Vec<u8> {
        let mut c = SnoopyCache::new(CacheParams::l1_604e());
        let states = [Mesi::Modified, Mesi::Exclusive, Mesi::Shared];
        for line in 0..700u64 {
            c.install(line * 7 * CACHE_LINE, states[line as usize % 3]);
        }
        for line in (0..700u64).step_by(5) {
            c.invalidate(line * 7 * CACHE_LINE);
        }
        let mut w = SnapWriter::new();
        c.save(&mut w);
        w.finish()
    }

    #[test]
    fn slot_codec_rejects_a_bad_state_byte_at_its_offset() {
        let full = l1_snapshot();
        let restore =
            |b: &[u8]| SnoopyCache::new(CacheParams::l1_604e()).restore(&mut SnapReader::new(b));
        assert_eq!(restore(&full), Ok(()));
        for k in [0, 1, 255, 256, 700, 1023] {
            let at = META + k * SLOT_BYTES + 8;
            for b in 4..=u8::MAX {
                let mut bad = full.clone();
                bad[at] = b;
                assert_eq!(
                    restore(&bad),
                    Err(SnapshotError::Corrupt { offset: at }),
                    "slot {k}, state byte {b}"
                );
            }
        }
        // The delta form decodes through the same codec: chunk 0 follows
        // the chunk count and the chunk index.
        let mut c = small();
        c.install(0x40, Mesi::Shared);
        let mut w = SnapWriter::new();
        c.save_delta(&mut w);
        let delta = w.finish();
        for k in [0, 15] {
            let at = META + 16 + k * SLOT_BYTES + 8;
            let mut bad = delta.clone();
            bad[at] = 4;
            assert_eq!(
                small().apply_delta(&mut SnapReader::new(&bad)),
                Err(SnapshotError::Corrupt { offset: at }),
                "delta slot {k}"
            );
        }
    }

    #[test]
    fn slot_codec_truncation_through_two_blocks_is_typed() {
        let full = l1_snapshot();
        for cut in 0..=META + 2 * BLOCK_SLOTS * SLOT_BYTES {
            let got = SnoopyCache::new(CacheParams::l1_604e())
                .restore(&mut SnapReader::new(&full[..cut]));
            assert!(
                matches!(got, Err(SnapshotError::Truncated { .. })),
                "cut at {cut}: {got:?}"
            );
        }
    }

    #[test]
    fn geometry_604e() {
        let l1 = SnoopyCache::new(CacheParams::l1_604e());
        assert_eq!((l1.sets, l1.tags.len()), (256, 1024));
        let l2 = SnoopyCache::new(CacheParams::l2_voyager());
        assert_eq!((l2.sets, l2.tags.len()), (16384, 16384));
    }

    #[test]
    fn geometry_without_sets_is_invalid() {
        let p = |size_bytes, ways| CacheParams {
            size_bytes,
            ways,
            push_latency_cycles: 1,
        };
        assert!(p(512, 2).validate());
        assert!(!p(512, 0).validate());
        assert!(!p(64, 4).validate()); // 2 lines over 4 ways
        assert!(!p(0, 1).validate());
    }
}
