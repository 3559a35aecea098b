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
//! Way slots are grouped in chunks of 64 consecutive sets (`CHUNK_SETS`),
//! the unit snapshots list. A chunk's ways are allocated, in one
//! allocation of exactly that chunk, by the first `install` into it; a
//! chunk never installed into holds no memory and reads as never-used
//! ways, so a node pays host memory only for the sets its run touches.
//! A full snapshot lists only the chunks holding a slot that is not
//! never-used, and a delta only the dirty ones, so a node pays snapshot
//! bytes for the same sets. Each slot is kept in its snapshot encoding,
//! so a listed chunk saves and loads as one copy.

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
/// snapshots list them in.
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
    /// Geometry is rebuilt from params. The LRU tick and the stats are
    /// written, then every chunk that holds a slot that is not never-used:
    /// a run that touches few sets saves only those.
    fn save(&self, w: &mut SnapWriter) {
        self.save_listed(w, |c| {
            self.chunks[c]
                .as_deref()
                .is_some_and(|slots| !never_used(slots.as_flattened()))
        });
    }
}

/// Whether encoded slots all read never-used.
fn never_used(bytes: &[u8]) -> bool {
    let block = NEVER_USED_BLOCK.as_flattened();
    bytes.chunks(block.len()).all(|b| b == &block[..b.len()])
}

impl SnoopyCache {
    /// Number of slots in chunk `c` (the last chunk of a geometry whose
    /// set count is not a multiple of [`CHUNK_SETS`] is short).
    fn chunk_len(&self, c: usize) -> usize {
        let lo = c * CHUNK_SETS;
        ((lo + CHUNK_SETS).min(self.sets) - lo) * self.params.ways
    }

    /// The layout shared by full snapshots and deltas: the LRU tick, the
    /// stats, a `u64` entry count, then per chunk `listed` picks, in
    /// ascending order, its `u64` index and its slots.
    fn save_listed(&self, w: &mut SnapWriter, listed: impl Fn(usize) -> bool) {
        w.u64(self.tick);
        w.save(&self.stats);
        let entries = || (0..self.chunks.len()).filter(|&c| listed(c));
        w.usize_(entries().count());
        for c in entries() {
            w.u64(c as u64);
            self.save_chunk(w, c);
        }
    }

    /// Inverse of [`SnoopyCache::save_listed`]; marks every listed chunk
    /// dirty. An index out of range, repeated or out of order is
    /// [`SnapshotError::Corrupt`] at its offset, and so, when `full`, is
    /// an entry whose slots all read never-used: a full snapshot never
    /// lists one, so each full snapshot has exactly one encoding.
    fn load_listed(&mut self, r: &mut SnapReader<'_>, full: bool) -> Result<(), SnapshotError> {
        self.tick = r.u64()?;
        self.stats = r.load()?;
        self.dirty_meta = true;
        let mut prev = None;
        for _ in 0..r.list_len(self.chunks.len())? {
            let at = r.offset();
            let c = r.ascending_index(prev, self.chunks.len())?;
            prev = Some(c);
            if self.load_chunk(r, c)? && full {
                return Err(SnapshotError::Corrupt { offset: at });
            }
            self.dirty_chunks[c / 64] |= 1u64 << (c % 64);
        }
        Ok(())
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

    /// Inverse of [`SnoopyCache::save_chunk`]; returns whether every
    /// slot read never-used. A state byte outside [`Mesi`]'s codes is
    /// [`SnapshotError::Corrupt`] at its own offset. An unallocated chunk
    /// whose slots all read never-used stays unallocated; any other slot
    /// allocates it.
    fn load_chunk(&mut self, r: &mut SnapReader<'_>, c: usize) -> Result<bool, SnapshotError> {
        let len = self.chunk_len(c);
        let at = r.offset();
        let bytes = r.take(len * SLOT_BYTES)?;
        let mut states = bytes[STATE..].iter().step_by(SLOT_BYTES);
        if let Some(k) = states.position(|&b| b > Mesi::Invalid as u8) {
            return Err(SnapshotError::Corrupt {
                offset: at + k * SLOT_BYTES + STATE,
            });
        }
        let unused = never_used(bytes);
        let slots = match &mut self.chunks[c] {
            Some(slots) => slots,
            None if unused => return Ok(true),
            empty => empty.insert(vec![NEVER_USED; len].into()),
        };
        slots.as_flattened_mut().copy_from_slice(bytes);
        Ok(unused)
    }

    /// Overwrite this cache, in place, from a full snapshot taken under
    /// its own geometry; allocated chunks stay allocated, and those the
    /// snapshot does not list read never-used. The result is
    /// conservatively all-dirty until the next checkpoint cut. On error
    /// the cache is partly overwritten (still well-formed); callers
    /// discard it.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        for slots in self.chunks.iter_mut().flatten() {
            slots.fill(NEVER_USED);
        }
        self.load_listed(r, true)?;
        self.dirty_chunks.fill(u64::MAX);
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
    /// array, in the layout of a full snapshot.
    pub fn save_delta(&self, w: &mut SnapWriter) {
        self.save_listed(w, |c| self.dirty_chunks[c / 64] & (1u64 << (c % 64)) != 0);
    }

    /// Apply a delta produced by [`SnoopyCache::save_delta`] under the
    /// same geometry. Unlike a full snapshot's, a listed chunk may read
    /// all never-used: a cache replaced by a fresh one mid-chain (a
    /// flush) must erase what the copy holds there. Applied chunks are
    /// re-marked dirty; callers clear the marks once the whole chain has
    /// been applied.
    pub fn apply_delta(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.load_listed(r, false)
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

    /// 128 sets x 2 ways: two chunks of 64 sets.
    fn two_chunks() -> SnoopyCache {
        SnoopyCache::new(CacheParams {
            size_bytes: 8192,
            ways: 2,
            push_latency_cycles: 2,
        })
    }

    /// `save` and `save_delta` bytes, pinned as literal hex: the LRU tick
    /// and the six stats counters, a `u64` entry count, then per listed
    /// chunk its `u64` index and its slots; per way, set-major,
    /// `tag: u64`, the snapshot `Mesi` byte (M=0 E=1 S=2 I=3) and
    /// `lru: u64`, all little-endian. A full snapshot lists the chunks
    /// holding a slot that is not never-used, a delta the dirty ones.
    /// Covers a never-used way (tag `u64::MAX`), an invalidated way
    /// keeping its stale tag, an LRU eviction and an untouched chunk left
    /// out; restoring either form re-saves the same bytes.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let u64s = |vs: &[u64]| vs.iter().map(|v| hex(&v.to_le_bytes())).collect::<String>();
        assert_eq!(hex(&saved(&two_chunks())), u64s(&[0; 8]), "no chunk listed");
        let mut c = two_chunks();
        c.install(0x800, Mesi::Exclusive); // line 64, set 64 (chunk 1), tick 1
        c.install(0x1800, Mesi::Modified); // line 192, set 64, tick 2
        c.install(0x8e0, Mesi::Shared); // line 71, set 71, tick 3
        assert_eq!(c.invalidate(0x8e0), Some(false));
        c.lookup(0x800); // hit, tick 4
        c.lookup(0x2300); // miss in chunk 0, which stays unallocated; tick 5
        assert_eq!(c.install(0x2800, Mesi::Exclusive), Some((0x1800, true))); // tick 6
        let empty = "ffffffffffffffff030000000000000000";
        let tail = [
            empty.repeat(12),                            // sets 65..=70
            "4700000000000000030300000000000000".into(), // stale line 71, I
            empty.repeat(1 + 2 * 56),                    // sets 71..=127
        ]
        .concat();
        // tick, then hits/misses/evictions/dirty/snoop_hits/snoop_pushes.
        let want_save = [
            u64s(&[6, 1, 1, 1, 1, 0, 0]),
            u64s(&[1, 1]),                               // one entry: chunk 1
            "4000000000000000010400000000000000".into(), // set 64: line 64, E
            "4001000000000000010600000000000000".into(), // line 320, E
            tail.clone(),
        ]
        .concat();
        let full = saved(&c);
        assert_eq!(hex(&full), want_save);
        let mut r = two_chunks();
        r.restore(&mut SnapReader::new(&full)).unwrap();
        assert_eq!((r.allocated_chunks(), saved(&r)), (1, full));

        c.clear_dirty();
        c.snoop(BusOpKind::Read, 0x2800); // E -> S in set 64, chunk 1
        let want_delta = [
            u64s(&[6, 1, 1, 1, 1, 1, 0]),
            u64s(&[1, 1]), // one dirty chunk: chunk 1
            "4000000000000000010400000000000000".into(),
            "4001000000000000020600000000000000".into(),
            tail,
        ]
        .concat();
        let delta = saved_delta(&c);
        assert_eq!(hex(&delta), want_delta);
        let mut r = two_chunks();
        r.clear_dirty();
        r.apply_delta(&mut SnapReader::new(&delta)).unwrap();
        assert_eq!(saved_delta(&r), delta);
    }

    /// Bytes before the first slot of a full snapshot: the LRU tick and
    /// the six stats counters.
    const META: usize = 7 * 8;

    /// A full snapshot of an L1-geometry cache (1024 slots in four
    /// 256-slot chunks, all listed) holding every state, stale tags and
    /// never-used ways.
    fn l1_snapshot() -> Vec<u8> {
        let mut c = SnoopyCache::new(CacheParams::l1_604e());
        let states = [Mesi::Modified, Mesi::Exclusive, Mesi::Shared];
        for line in 0..700u64 {
            c.install(line * 7 * CACHE_LINE, states[line as usize % 3]);
        }
        for line in (0..700u64).step_by(5) {
            c.invalidate(line * 7 * CACHE_LINE);
        }
        saved(&c)
    }

    /// Offset of slot `k`'s state byte in [`l1_snapshot`]: past the meta
    /// block, the entry count and one index per chunk up to slot `k`'s.
    fn l1_state_at(k: usize) -> usize {
        META + 8 + (k / BLOCK_SLOTS + 1) * 8 + k * SLOT_BYTES + STATE
    }

    #[test]
    fn slot_codec_rejects_a_bad_state_byte_at_its_offset() {
        let full = l1_snapshot();
        let restore =
            |b: &[u8]| SnoopyCache::new(CacheParams::l1_604e()).restore(&mut SnapReader::new(b));
        assert_eq!(restore(&full), Ok(()));
        for k in [0, 1, 255, 256, 700, 1023] {
            let at = l1_state_at(k);
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
        let delta = saved_delta(&c);
        for k in [0, 15] {
            let at = META + 16 + k * SLOT_BYTES + STATE;
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
        // Through the second chunk entry, each one 256-slot block.
        for cut in 0..l1_state_at(2 * BLOCK_SLOTS) - STATE {
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

    /// Eight ways: each 64-set chunk is 512 slots, two codec blocks.
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
        // One entry, chunk 0, whose first block is never-used slots.
        assert_eq!(
            full[META..META + 16],
            [[1u8, 0, 0, 0, 0, 0, 0, 0], [0; 8]].concat()
        );
        let first_block = META + 16..META + 16 + BLOCK_SLOTS * SLOT_BYTES;
        assert_eq!(&full[first_block], NEVER_USED_BLOCK.as_flattened());
        assert_eq!(full.len(), META + 16 + 2 * BLOCK_SLOTS * SLOT_BYTES);
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

    /// An L1-geometry snapshot listing chunks 1 and 2, and the offsets of
    /// its two chunk indices.
    fn two_listed() -> (Vec<u8>, [usize; 2]) {
        let mut c = SnoopyCache::new(CacheParams::l1_604e());
        c.install(64 * CACHE_LINE, Mesi::Exclusive);
        c.install(130 * CACHE_LINE, Mesi::Modified);
        let at = META + 8;
        (saved(&c), [at, at + 8 + BLOCK_SLOTS * SLOT_BYTES])
    }

    #[test]
    fn chunk_list_out_of_range_repeated_or_out_of_order_is_corrupt_at_the_index() {
        let (full, [first, second]) = two_listed();
        let index = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        assert_eq!((index(&full, first), index(&full, second)), (1, 2));
        let set = |at: usize, v: u64| {
            let mut b = full.clone();
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
            b
        };
        let l1 = || SnoopyCache::new(CacheParams::l1_604e());
        for (bytes, at, what) in [
            (set(second, 4), second, "out of range"),
            (set(first, u64::MAX), first, "far out of range"),
            (set(second, 1), second, "repeated"),
            (set(first, 3), second, "out of order"),
        ] {
            let want = Err(SnapshotError::Corrupt { offset: at });
            assert_eq!(l1().restore(&mut SnapReader::new(&bytes)), want, "{what}");
            // A delta lists its chunks in the same layout, under the same
            // rule.
            assert_eq!(
                l1().apply_delta(&mut SnapReader::new(&bytes)),
                want,
                "delta {what}"
            );
        }
        let mut r = l1();
        r.restore(&mut SnapReader::new(&full)).unwrap();
        assert_eq!(saved(&r), full);
    }

    #[test]
    fn chunk_list_entry_reading_all_never_used_is_corrupt_only_in_a_full_snapshot() {
        let (full, [first, _]) = two_listed();
        let mut bytes = full.clone();
        let slots = first + 8..first + 8 + BLOCK_SLOTS * SLOT_BYTES;
        bytes[slots].copy_from_slice(NEVER_USED_BLOCK.as_flattened());
        let l1 = || SnoopyCache::new(CacheParams::l1_604e());
        assert_eq!(
            l1().restore(&mut SnapReader::new(&bytes)),
            Err(SnapshotError::Corrupt { offset: first })
        );
        let mut r = l1();
        r.apply_delta(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(
            r.allocated_chunks(),
            1,
            "the never-used entry allocates nothing"
        );
        assert_eq!(r.peek(64 * CACHE_LINE), Mesi::Invalid);
        assert_eq!(r.peek(130 * CACHE_LINE), Mesi::Modified);
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
