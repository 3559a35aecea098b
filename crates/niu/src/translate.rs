//! Destination translation and receive-queue caching.
//!
//! **Transmit side**: after the per-queue AND/OR mask, the virtual
//! destination indexes a translation table kept in sSRAM. Each entry
//! yields the physical node, the logical receive queue at that node, the
//! network priority, and a valid bit — the protection boundary: a process
//! can only name destinations its OS installed in the table slice its
//! masks confine it to.
//!
//! **Receive side**: the logical receive-queue namespace (256 queues) is
//! larger than the 16 hardware queues, so CTRL performs a cache-tag-style
//! lookup mapping logical → hardware queue. Misses go to the
//! firmware-serviced miss queue, which is how the machine supports many
//! logical destinations (multitasking) with bounded hardware.

use crate::queues::QueueId;
use std::sync::Arc;
use sv_arctic::Priority;
use sv_sim::stats::Counter;

/// One translation-table entry (8 bytes in sSRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XlateEntry {
    /// Whether the entry is valid.
    pub valid: bool,
    /// Physical destination node.
    pub node: u16,
    /// Logical receive queue at the destination.
    pub logical_q: u16,
    /// Network priority class for this destination.
    pub high_priority: bool,
}

/// The entry every slot of a fresh or grown table holds.
const INVALID: XlateEntry = XlateEntry {
    valid: false,
    node: 0,
    logical_q: 0,
    high_priority: false,
};

/// Bits of the 8-byte encoding that no field uses: 2–15 and 48–63.
const RESERVED_BITS: u64 = 0xffff_0000_0000_fffc;

impl XlateEntry {
    /// Encode to the 8-byte sSRAM representation.
    pub fn encode(&self) -> u64 {
        (self.valid as u64)
            | ((self.high_priority as u64) << 1)
            | ((self.node as u64) << 16)
            | ((self.logical_q as u64) << 32)
    }

    /// Decode from the 8-byte sSRAM representation; `None` if a reserved
    /// bit is set, so every decoded entry re-encodes to the same word.
    pub fn decode(v: u64) -> Option<Self> {
        (v & RESERVED_BITS == 0).then_some(XlateEntry {
            valid: v & 1 != 0,
            high_priority: v & 2 != 0,
            node: (v >> 16) as u16,
            logical_q: (v >> 32) as u16,
        })
    }

    /// Network priority of this entry.
    pub fn priority(&self) -> Priority {
        if self.high_priority {
            Priority::High
        } else {
            Priority::Low
        }
    }
}

/// The transmit-side translation table. The table semantically lives in
/// sSRAM (and the lookup is charged an IBus access by the tx engine);
/// contents are kept structured here.
///
/// Entries are shared copy-on-write: a clone shares the entry array
/// (an `Arc`, since nodes move between worker threads) and the first
/// `install` or growing `grow_to` on either side copies it. A machine
/// fills one table with its conventions and gives every node a clone,
/// so building `n` nodes costs one table, not `n`. The lookup counters
/// stay per table. A snapshot stream writes each distinct entry array
/// once and names it by index after that, so a restore shares equal
/// tables by construction. A delta snapshot carries the entries only
/// when an `install` or a growing `grow_to` changed them since the last
/// cut.
#[derive(Debug, Clone)]
pub struct XlateTable {
    entries: Entries,
    /// Lookups performed.
    pub lookups: Counter,
    /// Translation faults (protection violations).
    pub faults: Counter,
}

/// A table's entry array, shared copy-on-write, and whether it changed
/// since the last checkpoint cut. The mark is runtime bookkeeping, never
/// serialized; a fresh or loaded array counts as changed.
#[derive(Debug, Clone)]
struct Entries {
    array: Arc<Vec<XlateEntry>>,
    changed: bool,
}

impl Entries {
    /// The array for update, copied first if shared, and marked changed.
    fn make_mut(&mut self) -> &mut Vec<XlateEntry> {
        self.changed = true;
        Arc::make_mut(&mut self.array)
    }

    fn has_dirty(&self) -> bool {
        self.changed
    }

    fn clear_dirty(&mut self) {
        self.changed = false;
    }
}

impl XlateTable {
    /// A table of `size` invalid entries.
    pub fn new(size: usize) -> Self {
        XlateTable {
            entries: Entries {
                array: Arc::new(vec![INVALID; size]),
                changed: true,
            },
            lookups: Counter::default(),
            faults: Counter::default(),
        }
    }

    /// Grow the table to at least `size` entries (privileged; new slots
    /// are invalid). Growing never disturbs installed entries, and a
    /// `size` at or below the current length is a no-op — tables never
    /// shrink, so snapshots taken before a grow stay restorable.
    pub fn grow_to(&mut self, size: usize) {
        if size > self.len() {
            self.entries.make_mut().resize(size, INVALID);
        }
    }

    /// Whether this table and `other` hold one entry array.
    pub fn shares_entries_with(&self, other: &XlateTable) -> bool {
        Arc::ptr_eq(&self.entries.array, &other.entries.array)
    }

    /// Offer this table's entry array to a delta restore: a table the
    /// delta carries with equal entries then shares it instead of
    /// loading a copy.
    pub fn hold_entries(&self, r: &mut SnapReader<'_>) {
        r.hold(&self.entries.array);
    }

    /// Install an entry (privileged: OS/firmware only). An index past the
    /// current capacity grows the table to reach it — consistent with
    /// [`XlateTable::grow_to`]'s never-shrink contract — instead of
    /// panicking the way the old direct indexing did.
    pub fn install(&mut self, virt: u16, entry: XlateEntry) {
        let i = usize::from(virt);
        let entries = self.entries.make_mut();
        if i >= entries.len() {
            entries.resize(i + 1, INVALID);
        }
        entries[i] = entry;
    }

    /// Translate a masked virtual destination. `None` is a protection
    /// fault (invalid entry or out-of-table index).
    pub fn lookup(&mut self, virt: u16) -> Option<XlateEntry> {
        self.lookups.bump();
        let e = self.entries.array.get(virt as usize).copied();
        match e {
            Some(e) if e.valid => Some(e),
            _ => {
                self.faults.bump();
                None
            }
        }
    }

    /// Table capacity.
    pub fn len(&self) -> usize {
        self.entries.array.len()
    }

    /// Whether the table has zero capacity (never true in practice; for
    /// clippy's benefit).
    pub fn is_empty(&self) -> bool {
        self.entries.array.is_empty()
    }
}

/// Receive-side logical→hardware queue cache.
///
/// `bindings[logical]` gives the hardware queue currently caching that
/// logical queue, if any. Binding changes are privileged operations
/// performed by firmware when it decides to swap the hot set.
#[derive(Debug, Clone)]
pub struct RxQueueCache {
    bindings: Vec<Option<QueueId>>,
    /// Reverse map: which logical queue each hardware slot serves.
    reverse: Vec<Option<u16>>,
    /// Lookup hits.
    pub hits: Counter,
    /// Lookup misses.
    pub misses: Counter,
    /// Per-logical-queue attribution (hits/misses/diversions), armed only
    /// under tenancy so the unarmed hot path stays a pair of counter
    /// bumps.
    pub per_lq: Option<PerLqStats>,
}

/// Per-logical-queue cache attribution, recorded only when armed (see
/// [`RxQueueCache::arm_per_lq`]). Indexed by logical queue number.
#[derive(Debug, Clone, Default)]
pub struct PerLqStats {
    /// Cache hits per logical queue.
    pub hits: Vec<u64>,
    /// Cache misses per logical queue.
    pub misses: Vec<u64>,
    /// Full-hardware-slot diversions to the miss queue per logical queue
    /// (the message *hit* the cache but its slot was full under the
    /// Divert policy).
    pub diversions: Vec<u64>,
}

impl RxQueueCache {
    /// A cache over `logical` logical queues and `hw` hardware slots.
    pub fn new(logical: usize, hw: usize) -> Self {
        RxQueueCache {
            bindings: vec![None; logical],
            reverse: vec![None; hw],
            hits: Counter::default(),
            misses: Counter::default(),
            per_lq: None,
        }
    }

    /// Arm per-logical-queue hit/miss/diversion attribution (one vector
    /// slot per logical queue). Idempotent; never disarmed once armed so
    /// counts stay monotonic.
    pub fn arm_per_lq(&mut self) {
        if self.per_lq.is_none() {
            let n = self.bindings.len();
            self.per_lq = Some(PerLqStats {
                hits: vec![0; n],
                misses: vec![0; n],
                diversions: vec![0; n],
            });
        }
    }

    /// Note a divert-on-full of a message for logical queue `l` (counted
    /// only when per-lq attribution is armed).
    pub fn note_diversion(&mut self, l: u16) {
        if let Some(p) = &mut self.per_lq {
            if let Some(d) = p.diversions.get_mut(l as usize) {
                *d += 1;
            }
        }
    }

    /// Forward lookup without touching any counter (firmware uses this to
    /// decide whether a missed logical queue still needs a rebind).
    pub fn peek(&self, l: u16) -> Option<QueueId> {
        self.bindings.get(l as usize).copied().flatten()
    }

    /// Bind logical queue `l` to hardware slot `hw`, unbinding whatever
    /// occupied either side before.
    pub fn bind(&mut self, l: u16, hw: QueueId) {
        if let Some(old) = self.reverse[hw.0 as usize] {
            self.bindings[old as usize] = None;
        }
        if let Some(oldhw) = self.bindings[l as usize] {
            self.reverse[oldhw.0 as usize] = None;
        }
        self.bindings[l as usize] = Some(hw);
        self.reverse[hw.0 as usize] = Some(l);
    }

    /// Remove the binding of logical queue `l`, if any.
    pub fn unbind(&mut self, l: u16) {
        if let Some(hw) = self.bindings[l as usize].take() {
            self.reverse[hw.0 as usize] = None;
        }
    }

    /// The tag lookup performed on every arrival: hardware slot caching
    /// logical queue `l`, or `None` (miss → firmware's miss queue).
    pub fn translate(&mut self, l: u16) -> Option<QueueId> {
        let r = self.bindings.get(l as usize).copied().flatten();
        match r {
            Some(q) => {
                self.hits.bump();
                if let Some(p) = &mut self.per_lq {
                    if let Some(h) = p.hits.get_mut(l as usize) {
                        *h += 1;
                    }
                }
                Some(q)
            }
            None => {
                self.misses.bump();
                if let Some(p) = &mut self.per_lq {
                    if let Some(m) = p.misses.get_mut(l as usize) {
                        *m += 1;
                    }
                }
                None
            }
        }
    }

    /// Logical queue currently bound to hardware slot `hw`.
    pub fn bound_logical(&self, hw: QueueId) -> Option<u16> {
        self.reverse[hw.0 as usize]
    }
}

use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError, StateLoad, StateSave};

impl StateSave for XlateEntry {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.encode());
    }
}
impl StateLoad for XlateEntry {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let at = r.offset();
        XlateEntry::decode(r.u64()?).ok_or(SnapshotError::Corrupt { offset: at })
    }
}

impl StateSave for Entries {
    fn save(&self, w: &mut SnapWriter) {
        w.save(&self.array);
    }
}
impl StateLoad for Entries {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Entries {
            array: r.load()?,
            changed: true,
        })
    }
}

// The counters move with every lookup and ride in the NIU's small state;
// the entries, a few KiB at large node counts, only when they changed.
sv_sim::checkpointed! {
    pub(crate) struct XlateTable {
        entries: presence,
        lookups,
        faults,
    }
    delta {}
}

impl StateLoad for XlateTable {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut table = XlateTable::new(0);
        table.restore(r)?;
        Ok(table)
    }
}

sv_sim::checkpointed! {
    struct PerLqStats {
        hits,
        misses,
        diversions,
    }
    // The three vectors are indexed in lockstep by logical queue.
    validate: |p: &PerLqStats| p.hits.len() == p.misses.len() && p.hits.len() == p.diversions.len()
}

impl StateSave for RxQueueCache {
    fn save(&self, w: &mut SnapWriter) {
        w.save(&self.bindings);
        w.save(&self.reverse);
        w.save(&self.hits);
        w.save(&self.misses);
        w.save(&self.per_lq);
    }
}
impl StateLoad for RxQueueCache {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let at = r.offset();
        let bindings: Vec<Option<QueueId>> = r.load()?;
        let reverse: Vec<Option<u16>> = r.load()?;
        // Cross-bounds: `bind`/`unbind` index each map with values read
        // from the other.
        let bad_binding = bindings
            .iter()
            .flatten()
            .any(|q| q.0 as usize >= reverse.len());
        let bad_reverse = reverse
            .iter()
            .flatten()
            .any(|&l| l as usize >= bindings.len());
        if bad_binding || bad_reverse {
            return Err(SnapshotError::Corrupt { offset: at });
        }
        let hits = r.load()?;
        let misses = r.load()?;
        let per_lq: Option<PerLqStats> = r.load()?;
        // An armed attribution vector spans the logical namespace.
        if let Some(p) = &per_lq {
            if p.hits.len() != bindings.len() {
                return Err(SnapshotError::Corrupt { offset: at });
            }
        }
        Ok(RxQueueCache {
            bindings,
            reverse,
            hits,
            misses,
            per_lq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_sim::ckpt::roundtrip;

    #[test]
    fn xlate_entry_roundtrip() {
        let e = XlateEntry {
            valid: true,
            node: 0xBEEF,
            logical_q: 0x1234,
            high_priority: true,
        };
        assert_eq!(XlateEntry::decode(e.encode()), Some(e));
        assert_eq!(e.priority(), Priority::High);
    }

    #[test]
    fn table_lookup_and_fault() {
        let mut t = XlateTable::new(16);
        t.install(
            3,
            XlateEntry {
                valid: true,
                node: 1,
                logical_q: 7,
                high_priority: false,
            },
        );
        assert_eq!(t.lookup(3).unwrap().node, 1);
        assert!(t.lookup(4).is_none(), "invalid entry faults");
        assert!(t.lookup(99).is_none(), "out of range faults");
        assert_eq!(t.faults.get(), 2);
        assert_eq!(t.lookups.get(), 3);
        assert_eq!(t.len(), 16);
    }

    #[test]
    fn install_past_capacity_grows_instead_of_panicking() {
        // Regression: `install` used to index `entries[virt]` directly and
        // panic on any index past the table's capacity.
        let mut t = XlateTable::new(16);
        t.install(
            100,
            XlateEntry {
                valid: true,
                node: 2,
                logical_q: 9,
                high_priority: false,
            },
        );
        assert_eq!(t.len(), 101, "grown exactly to reach the slot");
        assert_eq!(t.lookup(100).unwrap().logical_q, 9);
        // Growth never disturbs the existing (invalid) entries.
        assert!(t.lookup(15).is_none());
        // In-range installs do not grow.
        t.install(
            5,
            XlateEntry {
                valid: true,
                node: 0,
                logical_q: 1,
                high_priority: false,
            },
        );
        assert_eq!(t.len(), 101);
    }

    fn saved(t: &XlateTable) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.save(t);
        w.finish()
    }

    fn entry(node: u16) -> XlateEntry {
        XlateEntry {
            valid: true,
            node,
            logical_q: 1,
            high_priority: node % 2 == 1,
        }
    }

    #[test]
    fn xlate_reserved_bits_are_corrupt_at_their_entry() {
        let mut t = XlateTable::new(16);
        t.install(3, entry(0xBEEF));
        let bytes = saved(&t);
        assert_eq!(saved(&roundtrip(&t).unwrap()), bytes);
        // The stream's table index and a u64 entry count, then one
        // little-endian u64 per entry.
        for k in [0usize, 3, 15] {
            let at = 16 + 8 * k;
            for bit in [2, 15, 48, 63] {
                let mut bad = bytes.clone();
                bad[at + bit / 8] ^= 1 << (bit % 8);
                let got = SnapReader::new(&bad).load::<XlateTable>();
                assert_eq!(
                    got.err(),
                    Some(SnapshotError::Corrupt { offset: at }),
                    "entry {k}, bit {bit}"
                );
            }
        }
    }

    /// Tables as one snapshot stream writes them, node after node.
    fn saved_all(tables: &[&XlateTable]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        for t in tables {
            w.save(*t);
        }
        w.finish()
    }

    fn load_all(bytes: &[u8], n: usize) -> Result<Vec<XlateTable>, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        let tables = (0..n)
            .map(|_| r.load())
            .collect::<Result<Vec<XlateTable>, _>>()?;
        r.finish()?;
        Ok(tables)
    }

    #[test]
    fn a_stream_writes_each_distinct_table_once_and_shares_it_on_load() {
        let shared = XlateTable::new(16);
        let mut private = shared.clone();
        private.install(3, entry(5));
        // Reinstalling an entry unchanged copies the array: equal
        // entries in an allocation of its own.
        let mut copy = shared.clone();
        copy.install(0, INVALID);
        assert!(!copy.shares_entries_with(&shared));
        let bytes = saved_all(&[&private, &shared, &copy, &shared]);
        // Index, count, 16 entries and two counters; a table named
        // again costs its index and counters.
        let whole = saved(&shared).len();
        let named = whole - 8 * 17;
        assert_eq!(bytes.len(), 2 * whole + 2 * named);
        assert_eq!(bytes[2 * whole..2 * whole + 8], 1u64.to_le_bytes());
        let back = load_all(&bytes, 4).unwrap();
        assert!(back[1].shares_entries_with(&back[2]) && back[1].shares_entries_with(&back[3]));
        assert!(!back[0].shares_entries_with(&back[1]));
        assert_eq!(saved_all(&back.iter().collect::<Vec<_>>()), bytes);
    }

    #[test]
    fn a_forged_table_index_is_corrupt_at_its_offset() {
        let shared = XlateTable::new(16);
        let bytes = saved_all(&[&shared, &shared]);
        assert!(load_all(&bytes, 2).is_ok());
        let second = saved(&shared).len();
        for forged in [2u64, 7, u64::MAX] {
            let mut bad = bytes.clone();
            bad[second..second + 8].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(
                load_all(&bad, 2).err(),
                Some(SnapshotError::Corrupt { offset: second }),
                "index {forged}"
            );
        }
    }

    #[test]
    fn a_new_table_equal_to_an_earlier_one_is_corrupt() {
        let first = XlateTable::new(16);
        let mut second = first.clone();
        second.install(2, entry(9));
        let bytes = saved_all(&[&first, &second]);
        assert!(load_all(&bytes, 2).is_ok());
        // Give the second table, written new as index 1, the first's
        // entries: the writer would have named it by index 0.
        let at = saved(&first).len();
        let entries = 16..16 + 8 * 16;
        let mut bad = bytes.clone();
        bad[at + entries.start..at + entries.end].copy_from_slice(&bytes[entries]);
        assert_eq!(
            load_all(&bad, 2).err(),
            Some(SnapshotError::Corrupt { offset: at })
        );
    }

    #[test]
    fn xlate_clone_saves_the_bytes_of_an_installed_table() {
        let mut filled = XlateTable::new(16);
        let mut shared = XlateTable::new(16);
        for (v, node) in [(2, 5), (20, 6)] {
            filled.install(v, entry(node));
            shared.install(v, entry(node));
        }
        let mut clone = shared.clone();
        assert_eq!(saved(&clone), saved(&filled));
        // The first install copies: the table it was cloned from keeps
        // its bytes.
        clone.install(7, entry(8));
        assert_eq!(saved(&shared), saved(&filled));
        assert_eq!(clone.lookup(7), Some(entry(8)));
        assert_eq!(shared.lookup(7), None);
    }

    #[test]
    fn per_lq_attribution_is_armed_only() {
        let mut c = RxQueueCache::new(256, 16);
        c.bind(10, QueueId(2));
        let _ = c.translate(10);
        let _ = c.translate(11);
        assert!(c.per_lq.is_none(), "unarmed: no per-lq state");
        c.arm_per_lq();
        let _ = c.translate(10);
        let _ = c.translate(11);
        c.note_diversion(10);
        let p = c.per_lq.as_ref().unwrap();
        assert_eq!(p.hits[10], 1, "only post-arm lookups counted");
        assert_eq!(p.misses[11], 1);
        assert_eq!(p.diversions[10], 1);
        assert_eq!(c.hits.get(), 2, "aggregate counters unchanged by arming");
        assert_eq!(c.misses.get(), 2);
        // Peek never counts.
        assert_eq!(c.peek(10), Some(QueueId(2)));
        assert_eq!(c.hits.get(), 2);
    }

    #[test]
    fn rx_cache_bind_translate() {
        let mut c = RxQueueCache::new(256, 16);
        assert_eq!(c.translate(10), None);
        c.bind(10, QueueId(2));
        assert_eq!(c.translate(10), Some(QueueId(2)));
        assert_eq!(c.bound_logical(QueueId(2)), Some(10));
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 1);
    }

    #[test]
    fn rebinding_evicts_both_sides() {
        let mut c = RxQueueCache::new(256, 16);
        c.bind(10, QueueId(2));
        c.bind(11, QueueId(2)); // steals the slot
        assert_eq!(c.translate(10), None);
        assert_eq!(c.translate(11), Some(QueueId(2)));
        c.bind(11, QueueId(3)); // moves to a new slot
        assert_eq!(c.bound_logical(QueueId(2)), None);
        assert_eq!(c.translate(11), Some(QueueId(3)));
    }

    #[test]
    fn unbind() {
        let mut c = RxQueueCache::new(256, 16);
        c.bind(5, QueueId(1));
        c.unbind(5);
        assert_eq!(c.translate(5), None);
        assert_eq!(c.bound_logical(QueueId(1)), None);
        c.unbind(5); // idempotent
    }
}
