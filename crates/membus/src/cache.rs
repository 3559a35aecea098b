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
//! Way slots are grouped in chunks of [`CHUNK_SETS`] consecutive sets,
//! the unit delta snapshots track. A chunk's ways are allocated, in one
//! allocation of exactly that chunk, by the first `install` into it; a
//! chunk never installed into holds no memory and reads as never-used
//! ways, so a node pays host memory only for the sets its run touches.
//! Each slot is kept in its snapshot encoding, so an allocated chunk
//! saves and loads as one copy.

use crate::op::{line_of, Addr, BusOpKind, SnoopVerdict, CACHE_LINE};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use sv_sim::stats::Counter;

/// MESI coherence states. The discriminants are the state bytes of
/// the slot encoding, which is also the snapshot's (M=0 E=1 S=2 I=3,
/// part of the format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum Mesi {
    /// Exclusive and dirty.
    Modified = 0,
    /// Sole clean copy.
    Exclusive = 1,
    /// Another agent holds the line (drives SHD).
    Shared = 2,
    /// No valid copy.
    Invalid = 3,
}

impl Mesi {
    /// Decode a slot state byte. Loads reject any byte above 3, so no
    /// stored slot holds one.
    #[inline]
    fn from_byte(b: u8) -> Mesi {
        match b {
            0 => Mesi::Modified,
            1 => Mesi::Exclusive,
            2 => Mesi::Shared,
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

/// Sets per chunk: the unit a cache allocates its ways in, and the unit
/// deltas snapshot them in.
const CHUNK_SETS: usize = 64;

/// Encoded size of one way slot: `tag: u64`, the state byte, `lru: u64`.
const SLOT_BYTES: usize = 17;

/// One way in its snapshot encoding: the plain `tag: u64` (an
/// invalidated way keeps its stale tag), the [`Mesi`] byte and
/// `lru: u64` (larger = more recently used), little-endian.
type Slot = [u8; SLOT_BYTES];

/// Offset of the [`Mesi`] byte in a [`Slot`].
const STATE: usize = 8;

/// Encode one way.
const fn slot(tag: u64, state: Mesi, lru: u64) -> Slot {
    let (tag, lru) = (tag.to_le_bytes(), lru.to_le_bytes());
    let mut s = [state as u8; SLOT_BYTES];
    let mut i = 0;
    while i < 8 {
        s[i] = tag[i];
        s[STATE + 1 + i] = lru[i];
        i += 1;
    }
    s
}

/// A way no line was ever installed in: tag `u64::MAX`, state I, LRU
/// age 0. Every slot of an unallocated chunk reads as this.
const NEVER_USED: Slot = slot(u64::MAX, Mesi::Invalid, 0);

/// Never-used slots written per [`SnapWriter::raw`] call for an
/// unallocated chunk.
const BLOCK_SLOTS: usize = 256;

/// [`BLOCK_SLOTS`] never-used slots.
static NEVER_USED_BLOCK: [Slot; BLOCK_SLOTS] = [NEVER_USED; BLOCK_SLOTS];

#[inline]
fn tag_of(s: &Slot) -> u64 {
    u64::from_le_bytes(s[..STATE].try_into().expect("8-byte tag"))
}

#[inline]
fn lru_of(s: &Slot) -> u64 {
    u64::from_le_bytes(s[STATE + 1..].try_into().expect("8-byte LRU age"))
}

/// Whether slot `s` holds a valid copy of line `tag`.
#[inline]
fn holds(s: &Slot, tag: u64) -> bool {
    s[STATE] != Mesi::Invalid as u8 && tag_of(s) == tag
}

/// One level of snoopy MESI cache.
#[derive(Debug)]
pub struct SnoopyCache {
    /// Timing/geometry parameters.
    pub params: CacheParams,
    /// Number of sets.
    sets: usize,
    /// Per [`CHUNK_SETS`]-set chunk, its way slots, set-major (the
    /// chunk's `k`-th set owns slots `k * ways .. (k + 1) * ways`);
    /// `None` until the first `install` into the chunk.
    chunks: Vec<Option<Box<[Slot]>>>,
    tick: u64,
    /// Running statistics.
    pub stats: CacheStats,
    /// Bitmap over chunks: bit set = some way in the chunk changed since
    /// the last checkpoint cut. Runtime bookkeeping, never serialized; a
    /// fresh cache starts all-dirty.
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
        let chunks = sets.div_ceil(CHUNK_SETS);
        SnoopyCache {
            params,
            sets,
            chunks: vec![None; chunks],
            tick: 0,
            stats: CacheStats::default(),
            dirty_chunks: vec![u64::MAX; chunks.div_ceil(64)],
            dirty_meta: true,
        }
    }

    #[inline]
    fn index(&self, addr: Addr) -> (usize, u64) {
        let line = line_of(addr) / CACHE_LINE;
        let set = (line as usize) % self.sets;
        (set, line)
    }

    /// The chunk holding `set`, and the range of the set's slots in it.
    #[inline]
    fn place(&self, set: usize) -> (usize, Range<usize>) {
        let lo = set % CHUNK_SETS * self.params.ways;
        (set / CHUNK_SETS, lo..lo + self.params.ways)
    }

    /// The way in `set` holding a valid copy of line `tag`, if any. A
    /// set in an unallocated chunk holds nothing.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<&Slot> {
        let (c, ways) = self.place(set);
        self.chunks[c].as_deref()?[ways]
            .iter()
            .find(|s| holds(s, tag))
    }

    /// [`SnoopyCache::find`], for update.
    #[inline]
    fn find_mut(&mut self, set: usize, tag: u64) -> Option<&mut Slot> {
        let (c, ways) = self.place(set);
        self.chunks[c].as_deref_mut()?[ways]
            .iter_mut()
            .find(|s| holds(s, tag))
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
            .map_or(Mesi::Invalid, |s| Mesi::from_byte(s[STATE]))
    }

    /// Look up `addr`, updating LRU and hit/miss statistics.
    pub fn lookup(&mut self, addr: Addr) -> Mesi {
        self.tick += 1;
        self.dirty_meta = true;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        let hit = self.find_mut(set, tag).map(|s| {
            s[STATE + 1..].copy_from_slice(&tick.to_le_bytes());
            Mesi::from_byte(s[STATE])
        });
        let Some(state) = hit else {
            self.stats.misses.bump();
            return Mesi::Invalid;
        };
        self.stats.hits.bump();
        self.mark_set(set);
        state
    }

    /// Change the state of a resident line (e.g. S→M after a Kill). No-op
    /// if the line is absent.
    pub fn set_state(&mut self, addr: Addr, state: Mesi) {
        let (set, tag) = self.index(addr);
        if let Some(s) = self.find_mut(set, tag) {
            s[STATE] = state as u8;
            self.mark_set(set);
        }
    }

    /// Install a line in `state`, evicting the LRU way if the set is full.
    /// Returns the evicted line `(addr, was_dirty)` if any. The first
    /// install into a chunk allocates the chunk's ways.
    pub fn install(&mut self, addr: Addr, state: Mesi) -> Option<(Addr, bool)> {
        assert_ne!(state, Mesi::Invalid);
        self.tick += 1;
        self.dirty_meta = true;
        let (set, tag) = self.index(addr);
        self.mark_set(set);
        let (c, r) = self.place(set);
        let len = self.chunk_len(c);
        let ways = &mut self.chunks[c].get_or_insert_with(|| vec![NEVER_USED; len].into())[r];
        // Already resident: just update. Otherwise take a free way, or
        // evict the least recently used one.
        let i = ways
            .iter()
            .position(|s| holds(s, tag))
            .or_else(|| ways.iter().position(|s| s[STATE] == Mesi::Invalid as u8))
            .unwrap_or_else(|| {
                (0..ways.len())
                    .min_by_key(|&i| lru_of(&ways[i]))
                    .expect("nonzero ways")
            });
        let way = &mut ways[i];
        let mut evicted = None;
        if way[STATE] != Mesi::Invalid as u8 && tag_of(way) != tag {
            let dirty = way[STATE] == Mesi::Modified as u8;
            self.stats.evictions.bump();
            if dirty {
                self.stats.dirty_evictions.bump();
            }
            evicted = Some((tag_of(way) * CACHE_LINE, dirty));
        }
        *way = slot(tag, state, self.tick);
        evicted
    }

    /// Drop the line containing `addr`; returns whether it was dirty.
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let (set, tag) = self.index(addr);
        let s = self.find_mut(set, tag)?;
        let dirty = s[STATE] == Mesi::Modified as u8;
        s[STATE] = Mesi::Invalid as u8;
        self.mark_set(set);
        Some(dirty)
    }

    /// React to an external bus operation (issued by another master).
    pub fn snoop(&mut self, kind: BusOpKind, addr: Addr) -> SnoopOutcome {
        let (set, tag) = self.index(addr);
        let Some(s) = self.find_mut(set, tag) else {
            return SnoopOutcome::default();
        };
        let state = Mesi::from_byte(s[STATE]);
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
        s[STATE] = next as u8;
        self.stats.snoop_hits.bump();
        self.dirty_meta = true;
        self.mark_set(set);
        if state == Mesi::Modified && kind != BusOpKind::Kill {
            out.pushed_dirty = true;
            out.verdict.supply_latency = self.params.push_latency_cycles;
            self.stats.snoop_pushes.bump();
        }
        out
    }

    /// Number of resident (non-invalid) lines; test/diagnostic helper.
    pub fn resident_lines(&self) -> usize {
        self.chunks
            .iter()
            .flatten()
            .flat_map(|c| c.iter())
            .filter(|s| s[STATE] != Mesi::Invalid as u8)
            .count()
    }

    /// Number of allocated chunks.
    #[cfg(test)]
    fn allocated_chunks(&self) -> usize {
        self.chunks.iter().flatten().count()
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
        for c in 0..self.chunks.len() {
            self.save_chunk(w, c);
        }
    }
}

impl SnoopyCache {
    /// Number of slots in chunk `c` (the last chunk of a geometry whose
    /// set count is not a multiple of [`CHUNK_SETS`] is short).
    fn chunk_len(&self, c: usize) -> usize {
        let lo = c * CHUNK_SETS;
        ((lo + CHUNK_SETS).min(self.sets) - lo) * self.params.ways
    }

    /// Emit chunk `c`'s slots in order: an allocated chunk's bytes as
    /// they are, an unallocated one as never-used slots.
    fn save_chunk(&self, w: &mut SnapWriter, c: usize) {
        match &self.chunks[c] {
            Some(slots) => w.raw(slots.as_flattened()),
            None => {
                let len = self.chunk_len(c);
                for lo in (0..len).step_by(BLOCK_SLOTS) {
                    let n = (len - lo).min(BLOCK_SLOTS);
                    w.raw(NEVER_USED_BLOCK[..n].as_flattened());
                }
            }
        }
    }

    /// Inverse of [`SnoopyCache::save_chunk`]. A state byte outside
    /// [`Mesi`]'s codes is [`SnapshotError::Corrupt`] at its own offset.
    /// An unallocated chunk whose slots all read never-used stays
    /// unallocated; any other slot allocates it.
    fn load_chunk(&mut self, r: &mut SnapReader<'_>, c: usize) -> Result<(), SnapshotError> {
        let len = self.chunk_len(c);
        let at = r.offset();
        let bytes = r.take(len * SLOT_BYTES)?;
        let mut states = bytes[STATE..].iter().step_by(SLOT_BYTES);
        if let Some(k) = states.position(|&b| b > Mesi::Invalid as u8) {
            return Err(SnapshotError::Corrupt {
                offset: at + k * SLOT_BYTES + STATE,
            });
        }
        let block = NEVER_USED_BLOCK.as_flattened();
        let never_used = bytes.chunks(block.len()).all(|b| b == &block[..b.len()]);
        let slots = match &mut self.chunks[c] {
            Some(slots) => slots,
            None if never_used => return Ok(()),
            empty => empty.insert(vec![NEVER_USED; len].into()),
        };
        slots.as_flattened_mut().copy_from_slice(bytes);
        Ok(())
    }

    /// Overwrite this cache, in place, from a full snapshot taken under
    /// its own geometry; allocated chunks stay allocated. The result is
    /// conservatively all-dirty until the next checkpoint cut. On error
    /// the cache is partly overwritten (still well-formed); callers
    /// discard it.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.tick = r.u64()?;
        self.stats = r.load()?;
        for c in 0..self.chunks.len() {
            self.load_chunk(r, c)?;
        }
        self.dirty_chunks.fill(u64::MAX);
        self.dirty_meta = true;
        Ok(())
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
            (0..self.chunks.len()).filter(|c| self.dirty_chunks[c / 64] & (1u64 << (c % 64)) != 0)
        };
        w.usize_(dirty().count());
        for c in dirty() {
            w.u64(c as u64);
            self.save_chunk(w, c);
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
        for _ in 0..n {
            let at = r.offset();
            let c = r.u64()?;
            if c as usize >= self.chunks.len() {
                return Err(SnapshotError::Corrupt { offset: at });
            }
            let c = c as usize;
            self.load_chunk(r, c)?;
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
        assert_eq!((l1.sets, l1.chunks.len(), l1.chunk_len(0)), (256, 4, 256));
        let l2 = SnoopyCache::new(CacheParams::l2_voyager());
        assert_eq!(
            (l2.sets, l2.chunks.len(), l2.chunk_len(0)),
            (16384, 256, 64)
        );
    }

    /// Full-snapshot bytes of `c`.
    fn saved(c: &SnoopyCache) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save(&mut w);
        w.finish()
    }

    /// Delta bytes of `c`.
    fn saved_delta(c: &SnoopyCache) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save_delta(&mut w);
        w.finish()
    }

    #[test]
    fn chunk_untouched_sets_miss_without_allocating() {
        let mut c = SnoopyCache::new(CacheParams::l2_voyager());
        let addr = 0x0012_3440;
        assert_eq!(c.peek(addr), Mesi::Invalid);
        assert_eq!(c.lookup(addr), Mesi::Invalid);
        for kind in [BusOpKind::Read, BusOpKind::Rwitm, BusOpKind::Kill] {
            assert_eq!(c.snoop(kind, addr), SnoopOutcome::default());
        }
        c.set_state(addr, Mesi::Modified);
        assert_eq!(c.invalidate(addr), None);
        assert_eq!(c.peek(addr), Mesi::Invalid);
        assert_eq!((c.stats.misses.get(), c.stats.snoop_hits.get()), (1, 0));
        assert_eq!(c.allocated_chunks(), 0);
        c.install(addr, Mesi::Shared);
        assert_eq!(c.allocated_chunks(), 1);
        assert_eq!(c.peek(addr), Mesi::Shared);
        // The next set is in the same 64-set chunk.
        c.install(addr + CACHE_LINE, Mesi::Shared);
        assert_eq!((c.allocated_chunks(), c.resident_lines()), (1, 2));
    }

    #[test]
    fn chunk_restore_of_an_untouched_cache_allocates_nothing() {
        let mut c = SnoopyCache::new(CacheParams::l2_voyager());
        c.lookup(0x40); // a miss moves the tick and stats, not the ways
        let (full, delta) = (saved(&c), saved_delta(&c));
        let mut r = SnoopyCache::new(CacheParams::l2_voyager());
        r.restore(&mut SnapReader::new(&full)).unwrap();
        assert_eq!(r.allocated_chunks(), 0);
        assert_eq!(saved(&r), full);
        // A fresh cache is all-dirty, so its delta carries every chunk.
        let mut r = SnoopyCache::new(CacheParams::l2_voyager());
        r.apply_delta(&mut SnapReader::new(&delta)).unwrap();
        assert_eq!(r.allocated_chunks(), 0);
        assert_eq!(saved_delta(&r), delta);
    }

    #[test]
    fn chunk_holding_only_a_stale_invalidated_way_is_restored() {
        let mut c = small();
        c.install(0x0e0, Mesi::Shared);
        assert_eq!(c.invalidate(0x0e0), Some(false));
        assert_eq!(c.resident_lines(), 0);
        let full = saved(&c);
        let mut r = small();
        r.restore(&mut SnapReader::new(&full)).unwrap();
        assert_eq!(r.allocated_chunks(), 1);
        assert_eq!(saved(&r), full);
    }

    #[test]
    fn chunk_apply_delta_of_never_used_slots_overwrites_an_allocated_chunk() {
        let donor = small();
        let delta = saved_delta(&donor);
        let mut c = small();
        c.install(0x40, Mesi::Modified);
        c.apply_delta(&mut SnapReader::new(&delta)).unwrap();
        assert_eq!(c.peek(0x40), Mesi::Invalid);
        assert_eq!(
            c.allocated_chunks(),
            1,
            "an allocated chunk stays allocated"
        );
        assert_eq!(saved(&c), saved(&donor));
    }

    /// Eight ways: each 64-set chunk is 512 slots, written as two
    /// never-used blocks while unallocated.
    #[test]
    fn chunk_of_eight_ways_round_trips_with_only_its_second_block_used() {
        let eight = || {
            SnoopyCache::new(CacheParams {
                size_bytes: 64 * 1024,
                ways: 8,
                push_latency_cycles: 1,
            })
        };
        let mut c = eight();
        assert_eq!((c.chunks.len(), c.chunk_len(0)), (4, 2 * BLOCK_SLOTS));
        // Sets 32 and 63 own slots 256.. of chunk 0: its second block.
        c.install(32 * CACHE_LINE, Mesi::Exclusive);
        c.install(63 * CACHE_LINE, Mesi::Modified);
        let (full, delta) = (saved(&c), saved_delta(&c));
        let first_block = META..META + BLOCK_SLOTS * SLOT_BYTES;
        assert_eq!(&full[first_block], NEVER_USED_BLOCK.as_flattened());
        let mut r = eight();
        r.restore(&mut SnapReader::new(&full)).unwrap();
        assert_eq!(r.allocated_chunks(), 1);
        assert_eq!(r.peek(32 * CACHE_LINE), Mesi::Exclusive);
        assert_eq!(r.peek(63 * CACHE_LINE), Mesi::Modified);
        assert_eq!(saved(&r), full);
        let mut r = eight();
        r.apply_delta(&mut SnapReader::new(&delta)).unwrap();
        assert_eq!(r.allocated_chunks(), 1);
        assert_eq!(saved_delta(&r), delta);
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
