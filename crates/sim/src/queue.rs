//! Deterministic event queue.
//!
//! A thin wrapper around a binary min-heap keyed by `(Time, sequence)`.
//! The monotonically increasing sequence number guarantees that events
//! scheduled for the same instant pop in the order they were pushed,
//! which makes whole-machine simulations bit-for-bit reproducible — a
//! property every experiment in this repository depends on.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event scheduled for a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    at: Time,
    seq: u64,
}

impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered queue of events of type `E`.
///
/// ```
/// use sv_sim::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(30), "late");
/// q.push(Time::from_ns(10), "early");
/// q.push(Time::from_ns(10), "early-second");
/// assert_eq!(q.pop(), Some((Time::from_ns(10), "early")));
/// assert_eq!(q.pop(), Some((Time::from_ns(10), "early-second")));
/// assert_eq!(q.pop(), Some((Time::from_ns(30), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(Key, EventSlot<E>)>>,
    next_seq: u64,
    /// Latest time popped so far; used to catch scheduling into the past.
    horizon: Time,
}

/// Wrapper that ignores the payload for ordering purposes so `E` does not
/// need to implement `Ord`.
#[derive(Debug, Clone)]
struct EventSlot<E>(E);

impl<E> PartialEq for EventSlot<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventSlot<E> {}
impl<E> PartialOrd for EventSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventSlot<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E: Clone> Clone for EventQueue<E> {
    fn clone(&self) -> Self {
        EventQueue {
            heap: self.heap.clone(),
            ..*self
        }
    }

    /// Copies `source` into this queue's existing heap buffer, so a queue
    /// kept as a savepoint is refreshed without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.heap.clone_from(&source.heap);
        self.next_seq = source.next_seq;
        self.horizon = source.horizon;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            horizon: Time::ZERO,
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// In debug builds, panics if `at` is earlier than the latest time
    /// already popped (scheduling into the past).
    pub fn push(&mut self, at: Time, event: E) {
        debug_assert!(
            at >= self.horizon,
            "event scheduled at {at} before horizon {}",
            self.horizon
        );
        let key = Key {
            at,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Reverse((key, EventSlot(event))));
    }

    /// Remove and return the earliest event, advancing the horizon.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse((k, e))| {
            self.horizon = k.at;
            (k.at, e.0)
        })
    }

    /// Time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((k, _))| k.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Latest time returned by [`EventQueue::pop`] so far.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Drop all pending events (the horizon is preserved).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E: crate::ckpt::StateSave + Clone> crate::ckpt::StateSave for EventQueue<E> {
    /// Events are written in exact pop order — `(at, seq)` — so the
    /// restored queue replays them identically. Absolute sequence
    /// numbers are *not* preserved: the restorer renumbers from zero,
    /// which keeps every relative ordering (restored events precede any
    /// event pushed after the restore at the same instant, exactly as
    /// the originals preceded later pushes).
    fn save(&self, w: &mut crate::ckpt::SnapWriter) {
        w.save(&self.horizon);
        w.usize_(self.heap.len());
        let mut heap = self.heap.clone();
        while let Some(Reverse((k, slot))) = heap.pop() {
            w.save(&k.at);
            slot.0.save(w);
        }
    }
}

impl<E: crate::ckpt::StateLoad> crate::ckpt::StateLoad for EventQueue<E> {
    fn load(r: &mut crate::ckpt::SnapReader<'_>) -> Result<Self, crate::ckpt::SnapshotError> {
        let horizon: Time = r.load()?;
        let n = r.count()?;
        let mut q = EventQueue {
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
            horizon,
        };
        let mut prev = horizon;
        for _ in 0..n {
            let at: Time = r.load()?;
            // Entries were written in pop order and can never precede
            // the horizon; anything else is a forged stream.
            if at < prev {
                return r.corrupt();
            }
            prev = at;
            let event = E::load(r)?;
            let key = Key {
                at,
                seq: q.next_seq,
            };
            q.next_seq += 1;
            q.heap.push(Reverse((key, EventSlot(event))));
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::StateLoad;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(Time(5), 'b');
        q.push(Time(5), 'c');
        q.push(Time(1), 'a');
        q.push(Time(9), 'd');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time(7), ());
        q.push(Time(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Time(7)));
    }

    #[test]
    fn horizon_tracks_pops() {
        let mut q = EventQueue::new();
        q.push(Time(10), ());
        q.push(Time(20), ());
        assert_eq!(q.horizon(), Time::ZERO);
        q.pop();
        assert_eq!(q.horizon(), Time(10));
        // Scheduling at the horizon (same instant) is allowed.
        q.push(Time(10), ());
        assert_eq!(q.pop().unwrap().0, Time(10));
    }

    #[test]
    #[should_panic(expected = "before horizon")]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(Time(10), ());
        q.pop();
        q.push(Time(5), ());
    }

    #[test]
    fn clear_keeps_horizon() {
        let mut q = EventQueue::new();
        q.push(Time(4), 1);
        q.pop();
        q.push(Time(9), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.horizon(), Time(4));
    }

    #[test]
    fn clone_from_restores_pending_events_and_horizon() {
        let mut q = EventQueue::new();
        q.push(Time(10), 1u32);
        q.push(Time(5), 2);
        q.pop(); // horizon -> 5
        let mut saved = EventQueue::new();
        saved.push(Time(99), 7); // stale contents are replaced
        saved.clone_from(&q);
        q.push(Time(10), 3);
        q.pop();
        std::mem::swap(&mut q, &mut saved);
        assert_eq!(q.horizon(), Time(5));
        // A push after the restore still loses its tie to the event that
        // was pending when the copy was taken.
        q.push(Time(10), 4);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 4]);
    }

    #[test]
    fn snapshot_preserves_pop_order_and_horizon() {
        let mut q = EventQueue::new();
        q.push(Time(10), 1u32);
        q.push(Time(5), 2);
        q.push(Time(5), 3);
        q.pop(); // horizon -> 5, leaves [(5,3),(10,1)]
        let restored: EventQueue<u32> = crate::ckpt::roundtrip(&q).unwrap();
        assert_eq!(restored.horizon(), Time(5));
        let mut restored = restored;
        // Pushes after restore must still lose ties to restored events.
        restored.push(Time(5), 9);
        let order: Vec<u32> = std::iter::from_fn(|| restored.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 9, 1]);
    }

    #[test]
    fn snapshot_rejects_unsorted_entries() {
        let mut w = crate::ckpt::SnapWriter::new();
        w.save(&Time(50)); // horizon
        w.usize_(1);
        w.save(&Time(10)); // before the horizon: forged
        w.u32(0);
        let bytes = w.finish();
        let mut r = crate::ckpt::SnapReader::new(&bytes);
        assert!(matches!(
            EventQueue::<u32>::load(&mut r),
            Err(crate::ckpt::SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn large_interleaving_is_stable() {
        // Push events at interleaved times and check global stability.
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(Time(i % 10), i);
        }
        let mut last: Option<(Time, u64)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt);
                if t == lt {
                    assert!(i > li, "FIFO violated at {t:?}: {li} then {i}");
                }
            }
            last = Some((t, i));
        }
    }
}
