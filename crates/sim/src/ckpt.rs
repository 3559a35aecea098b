//! Versioned binary machine snapshots: the checkpoint/restore substrate.
//!
//! This module defines the *format*, not the policy: a little-endian,
//! length-prefixed byte stream with a fixed header (magic, format
//! version, parameter hash, node count) and a pair of traits —
//! [`StateSave`] / [`StateLoad`]. Stateful components do not implement
//! the traits by hand: each *declares* its state once, in its own
//! module, with [`checkpointed!`](crate::checkpointed) — the ordered
//! field list, an optional `validate` hook, and (for the delta-tracked
//! `Node`/`Niu`) each field's delta granularity — and the macro
//! generates save, load and delta codecs from that one list. Only the
//! primitive and container impls below, and the few codecs that must
//! run a constructor or recurse, stay hand-written. The top-level
//! `voyager::Machine` stitches the component streams together into one
//! snapshot.
//!
//! Design rules, in decreasing order of importance:
//!
//! 1. **Restores are bit-faithful or they are errors.** A snapshot holds
//!    every live bit of simulator state (RNG words, Go-Back-N windows,
//!    in-flight packets, cache LRU ticks, statistics counters), so that a
//!    restored machine's future — including its final stats JSON — is
//!    byte-identical to the uninterrupted run's. Anything that cannot be
//!    restored exactly must fail loudly with a [`SnapshotError`].
//! 2. **Hostile bytes never panic.** Every read is bounds-checked
//!    ([`SnapshotError::Truncated`]), every enum tag validated
//!    ([`SnapshotError::Corrupt`]), every collection count checked
//!    against the remaining byte budget *before* allocation so a
//!    bit-flipped length cannot OOM the process.
//! 3. **Versioned, not self-describing.** The format is a plain field
//!    concatenation; compatibility is governed by the single
//!    [`FORMAT_VERSION`] number (bumped on any layout change) plus the
//!    parameter hash, which pins a snapshot to the exact `SystemParams`
//!    it was taken under. There is no schema evolution — a simulator
//!    snapshot is a cache, cheap to regenerate, so mismatches are
//!    rejected rather than migrated.
//!
//! Derivable state (clock rationals, topology routing tables, wake-index
//! heaps) is deliberately *not* serialized: the restorer rebuilds it from
//! the parameters, which keeps snapshots small and makes it impossible
//! for a stale copy to disagree with the authoritative one.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use bytes::Bytes;

use crate::time::Time;

/// Leading magic for every snapshot: `SVCK` (StarT-Voyager ChecKpoint).
pub const MAGIC: [u8; 4] = *b"SVCK";

/// Current snapshot format version. Bump on **any** layout change, even
/// a reordered field — restores across versions are rejected, never
/// migrated (see the module docs for why).
pub const FORMAT_VERSION: u32 = 5;

/// Typed failure surface for snapshot encode/decode.
///
/// Every variant is `Copy` so the error can travel inside the (also
/// `Copy`) `voyager::ApiError`. None of these are panics: hostile or
/// stale snapshot bytes must always land here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The first four bytes were not [`MAGIC`] — not a snapshot at all.
    BadMagic {
        /// The bytes actually found (zero-padded if the input was short).
        found: [u8; 4],
    },
    /// The snapshot was written by a different format version.
    Version {
        /// Version number recorded in the snapshot.
        found: u32,
        /// Version this binary understands ([`FORMAT_VERSION`]).
        expected: u32,
    },
    /// The parameter hash does not match the serialized parameters —
    /// either the params section was corrupted or the header was.
    ParamHash {
        /// Hash recorded in the header.
        found: u64,
        /// Hash recomputed over the params section.
        expected: u64,
    },
    /// The node count in the header is outside the supportable range.
    NodeCount {
        /// Count recorded in the header.
        found: u64,
    },
    /// The stream ended before a read could complete.
    Truncated {
        /// Byte offset at which the read began.
        offset: usize,
        /// Bytes the read needed.
        need: usize,
    },
    /// The stream decoded fully but bytes were left over — a layout
    /// mismatch that happened to parse.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A validity check failed mid-stream: bad enum tag, non-boolean
    /// bool, oversized count, or an internal invariant violation.
    Corrupt {
        /// Byte offset of the offending field.
        offset: usize,
    },
    /// A node carried a running program that does not support
    /// checkpointing (e.g. a closure-based `FnProgram`).
    UnsupportedProgram {
        /// Node whose program cannot be snapshotted.
        node: u16,
    },
    /// A delta snapshot names a different base snapshot than the one it
    /// is being applied to.
    BaseMismatch {
        /// Base id recorded in the delta header.
        found: u64,
        /// Id of the base snapshot actually provided.
        expected: u64,
    },
    /// A delta chain is discontinuous: a link's sequence number or
    /// starting cycle does not follow from the previous link.
    ChainBroken {
        /// Sequence number the chain required next.
        expected: u64,
        /// Sequence number actually found in the delta header.
        found: u64,
    },
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            SnapshotError::BadMagic { found } => {
                write!(
                    f,
                    "not a snapshot: bad magic {found:02x?} (want {MAGIC:02x?})"
                )
            }
            SnapshotError::Version { found, expected } => {
                write!(
                    f,
                    "snapshot format version {found} (this build reads {expected})"
                )
            }
            SnapshotError::ParamHash { found, expected } => write!(
                f,
                "parameter hash mismatch: header {found:#018x}, params section {expected:#018x}"
            ),
            SnapshotError::NodeCount { found } => {
                write!(f, "unsupportable node count {found} in snapshot header")
            }
            SnapshotError::Truncated { offset, need } => {
                write!(
                    f,
                    "snapshot truncated: needed {need} byte(s) at offset {offset}"
                )
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(
                    f,
                    "snapshot has {extra} trailing byte(s) after the final section"
                )
            }
            SnapshotError::Corrupt { offset } => {
                write!(f, "snapshot corrupt at offset {offset}")
            }
            SnapshotError::UnsupportedProgram { node } => write!(
                f,
                "node {node} runs a program that does not support checkpointing"
            ),
            SnapshotError::BaseMismatch { found, expected } => write!(
                f,
                "delta targets base snapshot {found:#018x}, but base {expected:#018x} was provided"
            ),
            SnapshotError::ChainBroken { expected, found } => write!(
                f,
                "delta chain broken: expected link {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash, used to fingerprint the serialized parameter
/// block in the snapshot header. Not cryptographic — it guards against
/// accidental corruption and stale-snapshot reuse, not adversaries.
/// Byte-serial, so only for short inputs: whole snapshots are
/// fingerprinted by [`snapshot_id`].
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of a complete snapshot byte stream: the base id that
/// pins every delta of a chain to its base ([`DeltaHeader::base_id`]).
///
/// Four independent 64-bit lanes consume 32-byte blocks as
/// little-endian words, each step `lane = (lane ^ word) * ODD` rotated
/// left; the lanes, the byte length and the zero-padded tail words are
/// then folded into one value by the same step and a final mix. Every
/// step is a bijection of the running value and of the word, so a
/// change confined to one aligned 8-byte word — any single-byte flip —
/// always changes the id. Like [`fnv1a64`] it guards against accidents,
/// not adversaries; unlike it, the lanes run in parallel, so a
/// multi-megabyte base hashes about ten times faster.
#[must_use]
pub fn snapshot_id(bytes: &[u8]) -> u64 {
    const ODD: u64 = 0x9e37_79b1_85eb_ca87;
    let step = |acc: u64, w: u64| (acc ^ w).wrapping_mul(ODD).rotate_left(31);
    let word = |b: &[u8]| {
        let mut w = [0u8; 8];
        w[..b.len()].copy_from_slice(b);
        u64::from_le_bytes(w)
    };
    let mut lanes: [u64; 4] = [
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
        0x85eb_ca77_c2b2_ae63,
        0x27d4_eb2f_1656_67c5,
    ];
    let blocks = bytes.chunks_exact(32);
    let tail = blocks.remainder();
    for block in blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    let mut h = lanes.into_iter().fold(bytes.len() as u64, step);
    for w in tail.chunks(8) {
        h = step(h, word(w));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// The fixed-size snapshot header: everything a restorer must validate
/// before trusting the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapHeader {
    /// Format version the snapshot was written with.
    pub version: u32,
    /// [`fnv1a64`] over the serialized parameter section.
    pub param_hash: u64,
    /// Number of nodes in the snapshotted machine.
    pub nodes: u64,
}

/// Serialize `header` (magic first) into `w`.
pub fn write_header(w: &mut SnapWriter, header: &SnapHeader) {
    w.raw(&MAGIC);
    w.u32(header.version);
    w.u64(header.param_hash);
    w.u64(header.nodes);
}

/// Read and validate a snapshot header: checks magic and format version,
/// returns the rest for the caller (who knows the expected param hash
/// and node-count bounds) to judge.
pub fn read_header(r: &mut SnapReader<'_>) -> Result<SnapHeader, SnapshotError> {
    let mut found = [0u8; 4];
    let got = r.take(4).map_err(|_| {
        let avail = r.rest();
        found[..avail.len()].copy_from_slice(avail);
        SnapshotError::BadMagic { found }
    })?;
    if got != MAGIC {
        found.copy_from_slice(got);
        return Err(SnapshotError::BadMagic { found });
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::Version {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let param_hash = r.u64()?;
    let nodes = r.u64()?;
    Ok(SnapHeader {
        version,
        param_hash,
        nodes,
    })
}

/// Leading magic for every delta snapshot: `SVDK` (StarT-Voyager Delta
/// checKpoint). Distinct from [`MAGIC`] so a delta can never be mistaken
/// for (or restored as) a full snapshot, and vice versa.
pub const DELTA_MAGIC: [u8; 4] = *b"SVDK";

/// The fixed-size delta-snapshot header: the same identity fields as
/// [`SnapHeader`] plus the chain linkage that pins a delta to one
/// position after one specific base snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaHeader {
    /// Format version the delta was written with.
    pub version: u32,
    /// [`fnv1a64`] over the serialized parameter section of the base.
    pub param_hash: u64,
    /// Number of nodes in the snapshotted machine.
    pub nodes: u64,
    /// [`snapshot_id`] of the complete base snapshot byte stream.
    pub base_id: u64,
    /// 1-based position of this delta in its chain; applying out of
    /// order fails with [`SnapshotError::ChainBroken`].
    pub seq: u64,
    /// Cycle the previous cut (the base for `seq == 1`) was taken at.
    pub from_cycle: u64,
    /// Cycle this cut was taken at.
    pub to_cycle: u64,
}

/// Serialize a delta `header` (magic first) into `w`.
pub fn write_delta_header(w: &mut SnapWriter, header: &DeltaHeader) {
    w.raw(&DELTA_MAGIC);
    w.u32(header.version);
    w.u64(header.param_hash);
    w.u64(header.nodes);
    w.u64(header.base_id);
    w.u64(header.seq);
    w.u64(header.from_cycle);
    w.u64(header.to_cycle);
}

/// Read and validate a delta header: checks magic and format version,
/// returns the rest (hashes, chain position, cycle span) for the caller
/// to judge against the base it holds.
pub fn read_delta_header(r: &mut SnapReader<'_>) -> Result<DeltaHeader, SnapshotError> {
    let mut found = [0u8; 4];
    let got = r.take(4).map_err(|_| {
        let avail = r.rest();
        found[..avail.len()].copy_from_slice(avail);
        SnapshotError::BadMagic { found }
    })?;
    if got != DELTA_MAGIC {
        found.copy_from_slice(got);
        return Err(SnapshotError::BadMagic { found });
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::Version {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    Ok(DeltaHeader {
        version,
        param_hash: r.u64()?,
        nodes: r.u64()?,
        base_id: r.u64()?,
        seq: r.u64()?,
        from_cycle: r.u64()?,
        to_cycle: r.u64()?,
    })
}

/// A shared value as a snapshot stream remembers it: type-erased, so one
/// list serves every `Arc<T>` the stream meets.
type Shared = Arc<dyn Any + Send + Sync>;

/// Whether `a` and `b` are one allocation.
fn same_allocation<T>(a: &Shared, b: &Arc<T>) -> bool {
    std::ptr::addr_eq(Arc::as_ptr(a), Arc::as_ptr(b))
}

/// Append-only little-endian byte sink for snapshot encoding.
///
/// Writing is infallible; all validation happens on the read side.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
    /// Every allocation [`SnapWriter::shared`] has met, with the stream
    /// index of the value it holds; equal values share an index.
    shared: Vec<(Shared, u64)>,
    /// Distinct shared values written so far: the next new index.
    distinct: u64,
}

impl SnapWriter {
    /// A fresh, empty writer.
    #[must_use]
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// An empty writer that appends into `buf`'s existing capacity, so
    /// a caller snapshotting repeatedly can recycle what
    /// [`SnapWriter::finish`] returned instead of growing a new buffer.
    #[must_use]
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        SnapWriter {
            buf,
            ..SnapWriter::default()
        }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes with no length prefix (fixed-size fields only).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (the format is 64-bit regardless of
    /// host width).
    pub fn usize_(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a `u64` length prefix followed by the bytes.
    pub fn lp_bytes(&mut self, bytes: &[u8]) {
        self.usize_(bytes.len());
        self.raw(bytes);
    }

    /// Serialize any [`StateSave`] value in place.
    pub fn save<T: StateSave + ?Sized>(&mut self, v: &T) {
        v.save(self);
    }

    /// Write a shared value once per stream: a `u64` index into the
    /// distinct values this stream has written, in first-use order, and
    /// the value itself after an index it has not used before. Values
    /// are told apart by content, a shared allocation first, so the
    /// bytes depend on the values alone and never on which of them
    /// happen to share an allocation.
    pub fn shared<T: StateSave + PartialEq + Send + Sync + 'static>(&mut self, v: &Arc<T>) {
        let index_where = |w: &Self, same: &dyn Fn(&Shared) -> bool| {
            w.shared.iter().find(|(s, _)| same(s)).map(|&(_, i)| i)
        };
        if let Some(index) = index_where(self, &|s| same_allocation(s, v)) {
            return self.u64(index);
        }
        let equal = index_where(self, &|s| s.downcast_ref::<T>() == Some(&**v));
        let index = equal.unwrap_or(self.distinct);
        self.u64(index);
        if equal.is_none() {
            self.distinct += 1;
            T::save(v, self);
        }
        self.shared.push((Arc::clone(v) as Shared, index));
    }
}

/// Bounds-checked little-endian cursor over snapshot bytes.
///
/// Every accessor returns [`SnapshotError::Truncated`] instead of
/// reading past the end, and the collection-count helper
/// ([`SnapReader::count`]) rejects counts that could not possibly fit in
/// the remaining bytes, so a corrupted length can never trigger a huge
/// allocation.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The shared values this stream has read, in first-use order.
    shared: Vec<Shared>,
    /// Values held before the stream began ([`SnapReader::hold`]).
    held: Vec<Shared>,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader {
            buf,
            pos: 0,
            shared: Vec::new(),
            held: Vec::new(),
        }
    }

    /// Current byte offset from the start of the buffer.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The unconsumed tail of the buffer (does not advance).
    #[must_use]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Consume `n` bytes or fail with [`SnapshotError::Truncated`].
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                offset: self.pos,
                need: n,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u64` back into a host `usize`, rejecting values that do
    /// not fit.
    pub fn usize_(&mut self) -> Result<usize, SnapshotError> {
        let at = self.pos;
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt { offset: at })
    }

    /// Read a collection count and sanity-check it against the bytes
    /// actually left: every element of every collection in this format
    /// encodes to at least one byte, so `count > remaining` proves
    /// corruption *before* any allocation happens.
    pub fn count(&mut self) -> Result<usize, SnapshotError> {
        let at = self.pos;
        let n = self.usize_()?;
        if n > self.remaining() {
            return Err(SnapshotError::Corrupt { offset: at });
        }
        Ok(n)
    }

    /// Read the entry count of an ascending entry list over `bound`
    /// indices ([`SnapReader::ascending_index`]): a count above `bound`
    /// is [`SnapshotError::Corrupt`] at its offset. The bound, not the
    /// bytes left, limits it, so a list cut short fails as
    /// [`SnapshotError::Truncated`] at the entry where the bytes end.
    pub fn list_len(&mut self, bound: usize) -> Result<usize, SnapshotError> {
        let at = self.pos;
        match self.usize_()? {
            n if n <= bound => Ok(n),
            _ => Err(SnapshotError::Corrupt { offset: at }),
        }
    }

    /// Read the next index of an ascending entry list (the sparse
    /// sections of a snapshot: cache chunks, network links): a `u64`
    /// below `bound` and above `prev`, the index read before it. An index
    /// out of range, repeated or out of order is
    /// [`SnapshotError::Corrupt`] at its own offset, so a list has one
    /// encoding and an accepted one re-saves byte-identically.
    pub fn ascending_index(
        &mut self,
        prev: Option<usize>,
        bound: usize,
    ) -> Result<usize, SnapshotError> {
        let at = self.pos;
        match usize::try_from(self.u64()?) {
            Ok(i) if i < bound && prev.is_none_or(|p| i > p) => Ok(i),
            _ => Err(SnapshotError::Corrupt { offset: at }),
        }
    }

    /// Read a `u64`-length-prefixed byte run.
    pub fn lp_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.count()?;
        self.take(n)
    }

    /// Deserialize any [`StateLoad`] value in place.
    pub fn load<T: StateLoad>(&mut self) -> Result<T, SnapshotError> {
        T::load(self)
    }

    /// Offer a value held before this stream: a new shared value the
    /// stream carries that equals it loads as `v` itself, not as a copy.
    /// A delta restore offers the values its machine already holds.
    pub fn hold<T: Send + Sync + 'static>(&mut self, v: &Arc<T>) {
        if !self.held.iter().any(|h| same_allocation(h, v)) {
            self.held.push(Arc::clone(v) as Shared);
        }
    }

    /// Read a value written by [`SnapWriter::shared`]. An index past the
    /// values read so far, or naming one of another type, is
    /// [`SnapshotError::Corrupt`] at its offset, and so is a new value
    /// equal to an earlier one, which the writer would have named by
    /// index: a stream has one encoding. Equal values share one
    /// allocation, a held one if there is one.
    pub fn shared<T: StateLoad + PartialEq + Send + Sync + 'static>(
        &mut self,
    ) -> Result<Arc<T>, SnapshotError> {
        let at = self.pos;
        let corrupt = SnapshotError::Corrupt { offset: at };
        let index = self.u64()?;
        if let Some(s) = usize::try_from(index).ok().and_then(|i| self.shared.get(i)) {
            return Arc::clone(s).downcast::<T>().map_err(|_| corrupt);
        }
        if index != self.shared.len() as u64 {
            return Err(corrupt);
        }
        let v = T::load(self)?;
        if self
            .shared
            .iter()
            .any(|s| s.downcast_ref::<T>() == Some(&v))
        {
            return Err(corrupt);
        }
        let v = match self.held.iter().find(|h| h.downcast_ref::<T>() == Some(&v)) {
            Some(h) => Arc::clone(h).downcast::<T>().map_err(|_| corrupt)?,
            None => Arc::new(v),
        };
        self.shared.push(Arc::clone(&v) as Shared);
        Ok(v)
    }

    /// Fail with [`SnapshotError::Corrupt`] at the current offset —
    /// for callers that detect an invariant violation after a
    /// structurally valid read.
    pub fn corrupt<T>(&self) -> Result<T, SnapshotError> {
        Err(SnapshotError::Corrupt { offset: self.pos })
    }

    /// Require the stream to be fully consumed
    /// ([`SnapshotError::TrailingBytes`] otherwise).
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Serialize into a snapshot stream. Infallible by design: if a value is
/// in memory, it can be written; all validation lives on the load side.
pub trait StateSave {
    /// Append this value's encoding to `w`.
    fn save(&self, w: &mut SnapWriter);
}

/// Deserialize from a snapshot stream, validating as you go.
pub trait StateLoad: Sized {
    /// Decode one value from `r`, consuming exactly the bytes
    /// [`StateSave::save`] produced for it.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

/// Declare a type's checkpointed state once and generate its codec.
///
/// Every form lists the serialized fields in stream order, one per
/// line; the declaration *is* the format. Each listed field is written
/// and read with its own [`StateSave`] / [`StateLoad`] impl, and the
/// grammar needs at least one field, so every declared value encodes to
/// at least one byte (the assumption behind [`SnapReader::count`]). An
/// optional trailing `validate: f` names a `fn(&Self) -> bool`
/// invariant; a value that fails it loads as
/// [`SnapshotError::Corrupt`] at the offset where it began.
///
/// ```
/// use sv_sim::checkpointed;
/// use sv_sim::ckpt::roundtrip;
///
/// #[derive(Debug, PartialEq)]
/// struct Span {
///     lo: u64,
///     hi: u64,
/// }
/// // Plain struct (an optional single type parameter is bounded by the
/// // traits). `skip { field: expr }` initializes unserialized fields.
/// checkpointed! {
///     struct Span {
///         lo,
///         hi,
///     }
///     validate: |s: &Span| s.lo <= s.hi
/// }
///
/// #[derive(Debug, PartialEq)]
/// struct Counter(u64);
/// // Tuple struct: the names are local bindings, in field order.
/// checkpointed! { struct Counter(value) }
///
/// #[derive(Debug, PartialEq)]
/// enum Event {
///     Idle,
///     Rx(u16),
///     Read { addr: u64, len: u32 },
/// }
/// // Tag enum: one `u8` tag per variant; an unknown tag is `Corrupt`
/// // at the tag's offset.
/// checkpointed! {
///     enum Event {
///         0 => Idle,
///         1 => Rx(q),
///         4 => Read { addr, len },
///     }
/// }
///
/// assert_eq!(roundtrip(&Span { lo: 1, hi: 2 }), Ok(Span { lo: 1, hi: 2 }));
/// assert!(roundtrip(&Span { lo: 2, hi: 1 }).is_err());
/// assert_eq!(roundtrip(&Counter(7)), Ok(Counter(7)));
/// let read = Event::Read { addr: 8, len: 32 };
/// assert_eq!(roundtrip(&read), Ok(read));
/// ```
///
/// The delta form (`$vis struct .. delta { .. }`, where `$vis` is the
/// visibility of the generated methods) is for the two components that
/// take part in SVDK delta snapshots, `Node` and `Niu`.
/// Each field is marked with its delta granularity:
///
/// - *(unmarked)* — whole: rewritten in every delta record;
/// - `pages` — a memory array tracked per 64-byte line (`save_delta` /
///   `apply_delta`);
/// - `chunks` — a dirty-chunk array rebuilt under its own geometry on
///   a full restore (`restore` / `save_delta` / `apply_delta`);
/// - `presence` — a presence byte, then the whole value if it changed;
/// - `nested` — another delta-form component.
///
/// A delta record is a *head* (whole fields, and nested heads, in field
/// order) followed by a *tail* (the dirty-tracked fields, in field
/// order or in the order `tail: [..]` names). The form generates
/// [`StateSave`], an in-place full `restore`, `delta_save` /
/// `delta_apply` (plus their `_head` / `_tail` halves, for nesting),
/// and `ckpt_is_dirty` / `ckpt_clear_dirty` over the whole-section
/// flag named by `dirty:` and every tracked field. A component nested
/// only to place a tracked field of its own in its owner's tail (the
/// NIU's CTRL and translation table) names no `dirty:` flag: its head
/// is rewritten whenever its owner is dirty. `validate` runs after a
/// full restore and after each delta half.
#[macro_export]
macro_rules! checkpointed {
    // ---- internal: post-load invariant check ----
    (@validate $x:expr, $at:ident $(, $v:expr)?) => {
        $(if !($v)($x) {
            return Err($crate::ckpt::SnapshotError::Corrupt { offset: $at });
        })?
        let _ = $at;
    };

    // ---- internal: per-granularity field operations (delta form) ----
    (@restore [chunks] $x:expr, $r:ident) => { $x.restore($r)? };
    (@restore [nested] $x:expr, $r:ident) => { $x.restore($r)? };
    (@restore [$($k:ident)?] $x:expr, $r:ident) => { $x = $r.load()? };

    (@head_save [] $x:expr, $w:ident) => { $crate::ckpt::StateSave::save(&$x, $w) };
    (@head_save [nested] $x:expr, $w:ident) => { $x.delta_save_head($w) };
    (@head_save [$k:ident] $x:expr, $w:ident) => {};

    (@head_apply [] $x:expr, $r:ident) => { $x = $r.load()? };
    (@head_apply [nested] $x:expr, $r:ident) => { $x.delta_apply_head($r)? };
    (@head_apply [$k:ident] $x:expr, $r:ident) => {};

    (@tail_save [] $x:expr, $w:ident) => {};
    (@tail_save [presence] $x:expr, $w:ident) => {
        if $x.has_dirty() {
            $w.u8(1);
            $crate::ckpt::StateSave::save(&$x, $w);
        } else {
            $w.u8(0);
        }
    };
    (@tail_save [nested] $x:expr, $w:ident) => { $x.delta_save_tail($w) };
    (@tail_save [$k:ident] $x:expr, $w:ident) => { $x.save_delta($w) };

    (@tail_apply [] $x:expr, $r:ident) => {};
    (@tail_apply [presence] $x:expr, $r:ident) => {{
        let at = $r.offset();
        match $r.u8()? {
            0 => {}
            1 => $x = $r.load()?,
            _ => return Err($crate::ckpt::SnapshotError::Corrupt { offset: at }),
        }
    }};
    (@tail_apply [nested] $x:expr, $r:ident) => { $x.delta_apply_tail($r)? };
    (@tail_apply [$k:ident] $x:expr, $r:ident) => { $x.apply_delta($r)? };

    (@dirty [] $x:expr) => { false };
    (@dirty [nested] $x:expr) => { $x.ckpt_is_dirty() };
    (@dirty [$k:ident] $x:expr) => { $x.has_dirty() };

    (@clear [] $x:expr) => {};
    (@clear [nested] $x:expr) => { $x.ckpt_clear_dirty() };
    (@clear [$k:ident] $x:expr) => { $x.clear_dirty() };

    // Tail in field order, or in the explicitly named order.
    (@tail_list $io:ident, $op:ident, $s:ident, [$($f:ident [$($k:ident)?])+]) => {
        $($crate::checkpointed!(@$op [$($k)?] $s.$f, $io);)+
    };
    (@tail_list $io:ident, $op:ident, $s:ident, [$($f:ident [$($k:ident)?])+] [$($tf:ident [$tk:ident])+]) => {
        $($crate::checkpointed!(@$op [$tk] $s.$tf, $io);)+
    };

    // ---- tag enum ----
    (
        enum $name:ident {
            $($tag:literal => $var:ident $(( $($t:ident),+ ))? $({ $($f:ident),+ $(,)? })?),+ $(,)?
        }
        $(validate: $v:expr)?
    ) => {
        impl $crate::ckpt::StateSave for $name {
            fn save(&self, w: &mut $crate::ckpt::SnapWriter) {
                match self {
                    $(Self::$var $(($($t),+))? $({ $($f),+ })? => {
                        w.u8($tag);
                        $($($crate::ckpt::StateSave::save($t, w);)+)?
                        $($($crate::ckpt::StateSave::save($f, w);)+)?
                    })+
                }
            }
        }
        impl $crate::ckpt::StateLoad for $name {
            fn load(
                r: &mut $crate::ckpt::SnapReader<'_>,
            ) -> Result<Self, $crate::ckpt::SnapshotError> {
                let at = r.offset();
                let value = match r.u8()? {
                    $($tag => {
                        $($(let $t = r.load()?;)+)?
                        $($(let $f = r.load()?;)+)?
                        Self::$var $(($($t),+))? $({ $($f),+ })?
                    })+
                    _ => return Err($crate::ckpt::SnapshotError::Corrupt { offset: at }),
                };
                $crate::checkpointed!(@validate &value, at $(, $v)?);
                Ok(value)
            }
        }
    };

    // ---- tuple struct ----
    (
        struct $name:ident $(<$g:ident>)? ( $($f:ident),+ $(,)? )
        $(validate: $v:expr)?
    ) => {
        impl<$($g: $crate::ckpt::StateSave)?> $crate::ckpt::StateSave for $name<$($g)?> {
            fn save(&self, w: &mut $crate::ckpt::SnapWriter) {
                let Self($($f),+) = self;
                $($crate::ckpt::StateSave::save($f, w);)+
            }
        }
        impl<$($g: $crate::ckpt::StateLoad)?> $crate::ckpt::StateLoad for $name<$($g)?> {
            fn load(
                r: &mut $crate::ckpt::SnapReader<'_>,
            ) -> Result<Self, $crate::ckpt::SnapshotError> {
                let at = r.offset();
                $(let $f = r.load()?;)+
                let value = Self($($f),+);
                $crate::checkpointed!(@validate &value, at $(, $v)?);
                Ok(value)
            }
        }
    };

    // ---- plain struct ----
    (
        struct $name:ident $(<$g:ident>)? { $($f:ident),+ $(,)? }
        $(skip { $($sf:ident: $se:expr),+ $(,)? })?
        $(validate: $v:expr)?
    ) => {
        impl<$($g: $crate::ckpt::StateSave)?> $crate::ckpt::StateSave for $name<$($g)?> {
            fn save(&self, w: &mut $crate::ckpt::SnapWriter) {
                $($crate::ckpt::StateSave::save(&self.$f, w);)+
            }
        }
        impl<$($g: $crate::ckpt::StateLoad)?> $crate::ckpt::StateLoad for $name<$($g)?> {
            fn load(
                r: &mut $crate::ckpt::SnapReader<'_>,
            ) -> Result<Self, $crate::ckpt::SnapshotError> {
                let at = r.offset();
                $(let $f = r.load()?;)+
                let value = Self { $($f,)+ $($($sf: $se,)+)? };
                $crate::checkpointed!(@validate &value, at $(, $v)?);
                Ok(value)
            }
        }
    };

    // ---- delta-tracked struct ----
    (
        $vis:vis struct $name:ident { $($f:ident $(: $k:ident)?),+ $(,)? }
        delta {
            $(dirty: $dirty:ident)?
            $(, tail: [$($tf:ident: $tk:ident),+ $(,)?])?
            $(,)?
        }
        $(validate: $v:expr)?
    ) => {
        impl $crate::ckpt::StateSave for $name {
            fn save(&self, w: &mut $crate::ckpt::SnapWriter) {
                $($crate::ckpt::StateSave::save(&self.$f, w);)+
            }
        }
        impl $name {
            /// Overwrite this value from a full snapshot (the inverse of
            /// its [`StateSave`] impl); tracked arrays keep their own
            /// geometry.
            $vis fn restore(
                &mut self,
                r: &mut $crate::ckpt::SnapReader<'_>,
            ) -> Result<(), $crate::ckpt::SnapshotError> {
                let at = r.offset();
                $($crate::checkpointed!(@restore [$($k)?] self.$f, r);)+
                $(self.$dirty = true;)?
                $crate::checkpointed!(@validate &*self, at $(, $v)?);
                Ok(())
            }

            /// Delta record head: every whole field, in field order.
            $vis fn delta_save_head(&self, w: &mut $crate::ckpt::SnapWriter) {
                $($crate::checkpointed!(@head_save [$($k)?] self.$f, w);)+
            }

            /// Delta record tail: every dirty-tracked field's delta.
            $vis fn delta_save_tail(&self, w: &mut $crate::ckpt::SnapWriter) {
                $crate::checkpointed!(@tail_list w, tail_save, self,
                    [$($f [$($k)?])+] $([$($tf [$tk])+])?);
            }

            /// Apply a head written by `delta_save_head`.
            $vis fn delta_apply_head(
                &mut self,
                r: &mut $crate::ckpt::SnapReader<'_>,
            ) -> Result<(), $crate::ckpt::SnapshotError> {
                let at = r.offset();
                $($crate::checkpointed!(@head_apply [$($k)?] self.$f, r);)+
                $(self.$dirty = true;)?
                $crate::checkpointed!(@validate &*self, at $(, $v)?);
                Ok(())
            }

            /// Apply a tail written by `delta_save_tail`.
            $vis fn delta_apply_tail(
                &mut self,
                r: &mut $crate::ckpt::SnapReader<'_>,
            ) -> Result<(), $crate::ckpt::SnapshotError> {
                let at = r.offset();
                $crate::checkpointed!(@tail_list r, tail_apply, self,
                    [$($f [$($k)?])+] $([$($tf [$tk])+])?);
                $crate::checkpointed!(@validate &*self, at $(, $v)?);
                Ok(())
            }

            /// A whole delta record: head, then tail.
            $vis fn delta_save(&self, w: &mut $crate::ckpt::SnapWriter) {
                self.delta_save_head(w);
                self.delta_save_tail(w);
            }

            /// Apply a record written by `delta_save` on top of this
            /// (base-restored) value.
            $vis fn delta_apply(
                &mut self,
                r: &mut $crate::ckpt::SnapReader<'_>,
            ) -> Result<(), $crate::ckpt::SnapshotError> {
                self.delta_apply_head(r)?;
                self.delta_apply_tail(r)
            }

            /// True if anything changed since the last checkpoint cut:
            /// the whole-section flag or any tracked field.
            $vis fn ckpt_is_dirty(&self) -> bool {
                false $(|| self.$dirty)? $(|| $crate::checkpointed!(@dirty [$($k)?] self.$f))+
            }

            /// Forget every dirty mark: a cut captured the contents.
            $vis fn ckpt_clear_dirty(&mut self) {
                $(self.$dirty = false;)?
                $($crate::checkpointed!(@clear [$($k)?] self.$f);)+
            }
        }
    };

}

macro_rules! int_state {
    ($($t:ty => $w:ident),* $(,)?) => {$(
        impl StateSave for $t {
            fn save(&self, w: &mut SnapWriter) {
                w.$w(*self);
            }
        }
        impl StateLoad for $t {
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                r.$w()
            }
        }
    )*};
}

int_state!(u8 => u8, u16 => u16, u32 => u32, u64 => u64);

impl StateSave for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.usize_(*self);
    }
}
impl StateLoad for usize {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.usize_()
    }
}

impl StateSave for i64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
}
impl StateLoad for i64 {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.u64()? as i64)
    }
}

impl StateSave for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(u8::from(*self));
    }
}
impl StateLoad for bool {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let at = r.offset();
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt { offset: at }),
        }
    }
}

impl StateSave for Time {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.0);
    }
}
impl StateLoad for Time {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Time(r.u64()?))
    }
}

impl<T: StateSave> StateSave for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
}
impl<T: StateLoad> StateLoad for Option<T> {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let at = r.offset();
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            _ => Err(SnapshotError::Corrupt { offset: at }),
        }
    }
}

// A shared value is written once per stream and named by index after
// that (`SnapWriter::shared`); equal values load as one allocation.
impl<T: StateSave + PartialEq + Send + Sync + 'static> StateSave for Arc<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.shared(self);
    }
}
impl<T: StateLoad + PartialEq + Send + Sync + 'static> StateLoad for Arc<T> {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.shared()
    }
}

impl<T: StateSave> StateSave for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize_(self.len());
        for v in self {
            v.save(w);
        }
    }
}
impl<T: StateLoad> StateLoad for Vec<T> {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: StateSave> StateSave for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize_(self.len());
        for v in self {
            v.save(w);
        }
    }
}
impl<T: StateLoad> StateLoad for VecDeque<T> {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.count()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl StateSave for String {
    fn save(&self, w: &mut SnapWriter) {
        w.lp_bytes(self.as_bytes());
    }
}
impl StateLoad for String {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let at = r.offset();
        let bytes = r.lp_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt { offset: at })
    }
}

impl StateSave for Bytes {
    fn save(&self, w: &mut SnapWriter) {
        w.lp_bytes(self);
    }
}
impl StateLoad for Bytes {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Bytes::copy_from_slice(r.lp_bytes()?))
    }
}

impl<T: StateSave, const N: usize> StateSave for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
}
impl<T: StateLoad, const N: usize> StateLoad for [T; N] {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        // Length is exactly N by construction; the Err arm is unreachable.
        out.try_into()
            .map_err(|_| SnapshotError::Corrupt { offset: 0 })
    }
}

impl<A: StateSave, B: StateSave> StateSave for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
}
impl<A: StateLoad, B: StateLoad> StateLoad for (A, B) {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: StateSave, B: StateSave, C: StateSave> StateSave for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
}
impl<A: StateLoad, B: StateLoad, C: StateLoad> StateLoad for (A, B, C) {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<K: StateSave, V: StateSave> StateSave for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize_(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
}
impl<K: StateLoad + Ord, V: StateLoad> StateLoad for BTreeMap<K, V> {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.count()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            if out.insert(k, v).is_some() {
                return r.corrupt();
            }
        }
        Ok(out)
    }
}

// Hash containers are serialized in sorted key order so that two
// machines with identical logical state produce identical snapshot
// bytes regardless of hasher seeding or insertion history.
impl<K: StateSave + Ord, V: StateSave> StateSave for HashMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize_(self.len());
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }
}
impl<K: StateLoad + Ord + std::hash::Hash + Eq, V: StateLoad> StateLoad for HashMap<K, V> {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.count()?;
        let mut out = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            if out.insert(k, v).is_some() {
                return r.corrupt();
            }
        }
        Ok(out)
    }
}

impl<T: StateSave + Ord> StateSave for HashSet<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize_(self.len());
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        for v in items {
            v.save(w);
        }
    }
}
impl<T: StateLoad + Ord + std::hash::Hash + Eq> StateLoad for HashSet<T> {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.count()?;
        let mut out = HashSet::with_capacity(n);
        for _ in 0..n {
            if !out.insert(T::load(r)?) {
                return r.corrupt();
            }
        }
        Ok(out)
    }
}

/// Round-trip helper for tests and assertions: encode `v`, decode it
/// back, and require exact stream consumption.
pub fn roundtrip<T: StateSave + StateLoad>(v: &T) -> Result<T, SnapshotError> {
    let mut w = SnapWriter::new();
    v.save(&mut w);
    let bytes = w.finish();
    let mut r = SnapReader::new(&bytes);
    let out = T::load(&mut r)?;
    r.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(roundtrip(&0xAAu8).unwrap(), 0xAA);
        assert_eq!(roundtrip(&0xBEEFu16).unwrap(), 0xBEEF);
        assert_eq!(roundtrip(&0xDEAD_BEEFu32).unwrap(), 0xDEAD_BEEF);
        assert_eq!(roundtrip(&u64::MAX).unwrap(), u64::MAX);
        assert_eq!(roundtrip(&usize::MAX).unwrap(), usize::MAX);
        assert!(roundtrip(&true).unwrap());
        assert_eq!(roundtrip(&Time::from_ns(17)).unwrap(), Time::from_ns(17));
        assert_eq!(roundtrip(&-5i64).unwrap(), -5);
    }

    #[test]
    fn container_roundtrips() {
        assert_eq!(roundtrip(&Some(7u32)).unwrap(), Some(7));
        assert_eq!(roundtrip(&Option::<u32>::None).unwrap(), None);
        assert_eq!(roundtrip(&vec![1u16, 2, 3]).unwrap(), vec![1, 2, 3]);
        let dq: VecDeque<u8> = [9u8, 8, 7].into_iter().collect();
        assert_eq!(roundtrip(&dq).unwrap(), dq);
        assert_eq!(roundtrip(&"héllo".to_string()).unwrap(), "héllo");
        assert_eq!(roundtrip(&[1u8, 2, 3, 4]).unwrap(), [1u8, 2, 3, 4]);
        assert_eq!(roundtrip(&(1u8, 2u64)).unwrap(), (1, 2));
        let mut bt = BTreeMap::new();
        bt.insert(3u16, 30u64);
        bt.insert(1u16, 10u64);
        assert_eq!(roundtrip(&bt).unwrap(), bt);
        let hm: HashMap<u64, u8> = [(5, 50), (2, 20)].into_iter().collect();
        assert_eq!(roundtrip(&hm).unwrap(), hm);
        let hs: HashSet<u32> = [4, 1, 9].into_iter().collect();
        assert_eq!(roundtrip(&hs).unwrap(), hs);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(roundtrip(&b).unwrap(), b);
    }

    #[test]
    fn arc_saves_the_bytes_of_its_value() {
        let v = vec![3u64, 1, 4, 1, 5];
        let shared = Arc::new(v.clone());
        let _other = Arc::clone(&shared);
        let (mut plain, mut arc) = (SnapWriter::new(), SnapWriter::new());
        // The stream's first shared value: index 0, then the value.
        plain.u64(0);
        v.save(&mut plain);
        shared.save(&mut arc);
        assert_eq!(plain.finish(), arc.finish());
        let back = roundtrip(&shared).unwrap();
        assert_eq!((*back == v, Arc::strong_count(&back)), (true, 1));
    }

    #[test]
    fn a_stream_writes_each_shared_value_once_by_content() {
        let a = Arc::new(vec![1u16, 2]);
        let equal = Arc::new(vec![1u16, 2]);
        let other = Arc::new(vec![9u16]);
        let mut w = SnapWriter::new();
        for v in [&a, &equal, &other, &a, &other] {
            w.save(v);
        }
        let bytes = w.finish();
        let mut want = SnapWriter::new();
        want.u64(0);
        want.save(&*a);
        want.u64(0);
        want.u64(1);
        want.save(&*other);
        want.u64(0);
        want.u64(1);
        assert_eq!(bytes, want.finish());
        let mut r = SnapReader::new(&bytes);
        let back: Vec<Arc<Vec<u16>>> = (0..5).map(|_| r.load().unwrap()).collect();
        r.finish().unwrap();
        assert!(Arc::ptr_eq(&back[0], &back[1]) && Arc::ptr_eq(&back[0], &back[3]));
        assert!(Arc::ptr_eq(&back[2], &back[4]) && !Arc::ptr_eq(&back[0], &back[2]));
        assert_eq!((*back[1] == *a, *back[2] == *other), (true, true));
    }

    #[test]
    fn a_forged_or_repeated_shared_value_is_corrupt_at_its_index() {
        let mut w = SnapWriter::new();
        w.save(&Arc::new(7u32));
        w.save(&Arc::new(8u32));
        let bytes = w.finish();
        let load2 = |b: &[u8]| {
            let mut r = SnapReader::new(b);
            let first: Arc<u32> = r.load()?;
            let second: Arc<u32> = r.load()?;
            r.finish().map(|()| (*first, *second))
        };
        assert_eq!(load2(&bytes), Ok((7, 8)));
        let corrupt = Err(SnapshotError::Corrupt { offset: 12 });
        for index in [2u64, 9, u64::MAX] {
            let mut bad = bytes.clone();
            bad[12..20].copy_from_slice(&index.to_le_bytes());
            assert_eq!(load2(&bad), corrupt, "index {index}");
        }
        // A second value written new but equal to the first: the writer
        // names it by index, so no snapshot holds this.
        let mut bad = bytes.clone();
        bad[20..24].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(load2(&bad), corrupt);
        // An index naming a value of another type.
        let mut w = SnapWriter::new();
        w.save(&Arc::new(7u64));
        w.u64(0);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let _: Arc<u64> = r.load().unwrap();
        assert_eq!(
            r.load::<Arc<u32>>().err(),
            Some(SnapshotError::Corrupt { offset: 16 })
        );
    }

    #[test]
    fn a_new_shared_value_equal_to_a_held_one_loads_as_it() {
        let held = Arc::new(vec![5u8; 3]);
        let mut w = SnapWriter::new();
        w.save(&Arc::new(vec![5u8; 3]));
        w.save(&Arc::new(vec![6u8]));
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        r.hold(&held);
        r.hold(&held);
        let same: Arc<Vec<u8>> = r.load().unwrap();
        let other: Arc<Vec<u8>> = r.load().unwrap();
        assert!(Arc::ptr_eq(&same, &held) && !Arc::ptr_eq(&other, &held));
    }

    #[test]
    fn hash_containers_serialize_sorted() {
        let a: HashMap<u32, u8> = (0..64).map(|i| (i * 7919 % 64, i as u8)).collect();
        let mut w1 = SnapWriter::new();
        a.save(&mut w1);
        let mut pairs: Vec<(u32, u8)> = a.iter().map(|(k, v)| (*k, *v)).collect();
        pairs.reverse();
        let b: HashMap<u32, u8> = pairs.into_iter().collect();
        let mut w2 = SnapWriter::new();
        b.save(&mut w2);
        assert_eq!(w1.finish(), w2.finish());
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            let res = Vec::<u64>::load(&mut r);
            assert!(res.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn oversized_count_rejected_before_allocation() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // preposterous element count
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Vec::<u8>::load(&mut r),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn invalid_tags_are_corrupt() {
        let mut r = SnapReader::new(&[2u8]);
        assert!(matches!(
            bool::load(&mut r),
            Err(SnapshotError::Corrupt { .. })
        ));
        let mut r = SnapReader::new(&[9u8, 0]);
        assert!(matches!(
            Option::<u8>::load(&mut r),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = SnapReader::new(&[0u8; 3]);
        assert_eq!(r.finish(), Err(SnapshotError::TrailingBytes { extra: 3 }));
    }

    #[derive(Debug, PartialEq)]
    struct Span {
        lo: u32,
        hi: u32,
        label: Option<String>,
    }

    fn ordered(s: &Span) -> bool {
        s.lo <= s.hi
    }

    crate::checkpointed! {
        struct Span {
            lo,
            hi,
            label,
        }
        validate: ordered
    }

    #[derive(Debug, PartialEq)]
    struct Wrapped<T>(T, u8);

    crate::checkpointed! { struct Wrapped<T>(inner, extra) }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line(u16, u16),
        Rect { w: u32, h: u32 },
    }

    crate::checkpointed! {
        enum Shape {
            0 => Dot,
            1 => Line(a, b),
            7 => Rect { w, h },
        }
    }

    fn encode<T: StateSave>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        w.finish()
    }

    #[test]
    fn declared_types_roundtrip_in_declared_order() {
        let s = Span {
            lo: 1,
            hi: 0x0203_0405,
            label: Some("x".into()),
        };
        assert_eq!(roundtrip(&s).unwrap(), s);
        // The declaration is the layout: lo, hi, then the option.
        assert_eq!(&encode(&s)[..9], &[1, 0, 0, 0, 5, 4, 3, 2, 1]);
        let w = Wrapped(vec![3u16], 9);
        assert_eq!(roundtrip(&w).unwrap(), w);
        for shape in [Shape::Dot, Shape::Line(1, 2), Shape::Rect { w: 3, h: 4 }] {
            assert_eq!(roundtrip(&shape).unwrap(), shape);
        }
        assert_eq!(encode(&Shape::Rect { w: 3, h: 4 })[0], 7);
    }

    #[test]
    fn declared_validate_hook_rejects_at_value_start() {
        let bad = Span {
            lo: 5,
            hi: 4,
            label: None,
        };
        let mut bytes = vec![0xEE];
        bytes.extend(encode(&bad));
        let mut r = SnapReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(
            Span::load(&mut r),
            Err(SnapshotError::Corrupt { offset: 1 })
        );
    }

    #[test]
    fn declared_enum_unknown_tag_fails_at_the_tag() {
        for tag in [2u8, 6, 8, 0xFF] {
            let bytes = [0u8, 0, 0, tag, 0, 0, 0, 0];
            let mut r = SnapReader::new(&bytes);
            r.take(3).unwrap();
            assert_eq!(
                Shape::load(&mut r),
                Err(SnapshotError::Corrupt { offset: 3 }),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn declared_values_truncated_anywhere_are_errors() {
        let span = encode(&Span {
            lo: 1,
            hi: 2,
            label: Some("abc".into()),
        });
        let rect = encode(&Shape::Rect { w: 3, h: 4 });
        let wrapped = encode(&Wrapped(vec![1u64, 2], 3));
        for cut in 0..span.len() {
            assert!(Span::load(&mut SnapReader::new(&span[..cut])).is_err());
        }
        for cut in 0..rect.len() {
            assert!(Shape::load(&mut SnapReader::new(&rect[..cut])).is_err());
        }
        for cut in 0..wrapped.len() {
            let mut r = SnapReader::new(&wrapped[..cut]);
            assert!(Wrapped::<Vec<u64>>::load(&mut r).is_err());
        }
    }

    #[test]
    fn header_roundtrip_and_rejections() {
        let h = SnapHeader {
            version: FORMAT_VERSION,
            param_hash: 0x1234_5678_9ABC_DEF0,
            nodes: 8,
        };
        let mut w = SnapWriter::new();
        write_header(&mut w, &h);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(read_header(&mut r).unwrap(), h);
        r.finish().unwrap();

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_header(&mut SnapReader::new(&bad)),
            Err(SnapshotError::BadMagic { .. })
        ));
        // Wrong version.
        let mut bad = bytes.clone();
        bad[4] = bad[4].wrapping_add(1);
        assert!(matches!(
            read_header(&mut SnapReader::new(&bad)),
            Err(SnapshotError::Version { .. })
        ));
        // Too short for even the magic.
        assert!(matches!(
            read_header(&mut SnapReader::new(b"SV")),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn format_4_snapshots_and_deltas_are_refused_as_version() {
        for found in [3, 4] {
            let version = Some(SnapshotError::Version { found, expected: 5 });
            let mut w = SnapWriter::new();
            write_header(
                &mut w,
                &SnapHeader {
                    version: found,
                    param_hash: 1,
                    nodes: 8,
                },
            );
            assert_eq!(
                read_header(&mut SnapReader::new(&w.finish())).err(),
                version
            );
            let mut w = SnapWriter::new();
            write_delta_header(
                &mut w,
                &DeltaHeader {
                    version: found,
                    param_hash: 1,
                    nodes: 8,
                    base_id: 2,
                    seq: 1,
                    from_cycle: 0,
                    to_cycle: 9,
                },
            );
            let got = read_delta_header(&mut SnapReader::new(&w.finish()));
            assert_eq!(got.err(), version);
        }
    }

    #[test]
    fn ascending_lists_reject_a_bad_count_or_index_at_its_offset() {
        let mut w = SnapWriter::new();
        for v in [3u64, 1, 4, 4, 2, 9, u64::MAX] {
            w.u64(v);
        }
        let bytes = w.finish();
        let corrupt = |k: usize| Err(SnapshotError::Corrupt { offset: 8 * k });
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.list_len(3), Ok(3));
        assert_eq!(r.ascending_index(None, 5), Ok(1));
        assert_eq!(r.ascending_index(Some(1), 5), Ok(4));
        assert_eq!(r.ascending_index(Some(4), 5), corrupt(3), "repeated");
        assert_eq!(r.ascending_index(Some(4), 5), corrupt(4), "out of order");
        assert_eq!(r.ascending_index(None, 5), corrupt(5), "out of range");
        assert_eq!(r.ascending_index(None, 5), corrupt(6), "far out of range");
        assert_eq!(SnapReader::new(&bytes).list_len(2), corrupt(0));
        // A list cut short is truncated, not corrupt: the count is held
        // to the index range, not to the bytes left.
        let mut r = SnapReader::new(&bytes[..8]);
        assert_eq!(r.list_len(5), Ok(3));
        assert!(matches!(
            r.ascending_index(None, 5),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn snapshot_id_vectors() {
        // Pinned: a changed value re-ids every base, so every delta cut
        // by an older build is refused as `BaseMismatch`.
        let pattern = |n: u8| (0..n).collect::<Vec<u8>>();
        assert_eq!(snapshot_id(b""), 0x92f0_eb78_48f9_5b73);
        assert_eq!(snapshot_id(&pattern(1)), 0xc295_5c37_e140_a2b7);
        assert_eq!(snapshot_id(&pattern(31)), 0x5505_6c7d_1b10_22fa);
        assert_eq!(snapshot_id(&pattern(32)), 0xb71c_e913_3854_e212);
        assert_eq!(snapshot_id(&pattern(33)), 0x840a_b361_b366_c167);
    }

    #[test]
    fn snapshot_id_changes_with_any_single_byte() {
        // 100 bytes: three full blocks on all four lanes, then a tail of
        // whole and partial words.
        let base: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37)).collect();
        let id = snapshot_id(&base);
        for pos in 0..base.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut b = base.clone();
                b[pos] ^= flip;
                assert_ne!(snapshot_id(&b), id, "flip {flip:#x} at {pos}");
            }
        }
        // The length is folded in: zero padding cannot alias.
        assert_ne!(
            snapshot_id(&base[..99]),
            snapshot_id(&[&base[..99], &[0]].concat())
        );
    }
}
