//! Wake-time index: the scheduling core of the event-driven run loop.
//!
//! A [`WakeIndex`] tracks, for a fixed set of members (nodes, or the
//! nodes of one shard), the earliest cycle at which each member might
//! change state — its *advertised wake*. The run loop asks two questions
//! millions of times per simulated second:
//!
//! 1. **"What is the next cycle anything can happen?"** — [`WakeIndex::min`],
//!    O(1) amortized instead of an O(N) scan over every member.
//! 2. **"Who is due at cycle `c`?"** — [`WakeIndex::drain_due`], which
//!    yields exactly the members whose advertised wake is `<= c`, in
//!    ascending member order (the order a cycle-stepped loop visits
//!    them), at O(log N) per due member instead of touching all N.
//!
//! The index is a binary min-heap keyed by `(cycle, member)` with **lazy
//! invalidation**: republishing a member's wake pushes a fresh heap entry
//! and records it as current; stale entries are discarded when they
//! surface at the top. A member's advertised wake only needs to change
//! when the member itself executes or an external event (packet arrival)
//! reaches it, so the caller republishes on exactly those edges and the
//! heap never needs random-access deletion.
//!
//! Correctness contract (matching `Node::next_event_cycle`): an
//! advertised wake must be **conservative** — never later than the
//! member's first state-changing cycle. Too-early wakes only cost a
//! no-op visit; the member is then republished with a fresh value, so
//! the index self-heals without ever skipping a state change.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "member advertises no wake" (idle until an external
/// event republishes it).
const NEVER: u64 = u64::MAX;

/// A dirty-tracking min-index over member wake cycles. See the module
/// docs for the contract.
#[derive(Debug, Clone, Default)]
pub struct WakeIndex {
    /// Current advertised wake per member; `NEVER` = none.
    current: Vec<u64>,
    /// Lazy heap of `(cycle, member)` entries; an entry is live iff it
    /// matches `current[member]`.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl WakeIndex {
    /// An index over `members` members, all initially without a wake.
    pub fn new(members: usize) -> Self {
        WakeIndex {
            current: vec![NEVER; members],
            heap: BinaryHeap::with_capacity(members + 1),
        }
    }

    /// Number of members tracked.
    pub fn members(&self) -> usize {
        self.current.len()
    }

    /// Member `i`'s advertised wake, `None` when it has none.
    pub fn get(&self, i: usize) -> Option<u64> {
        Some(self.current[i]).filter(|&c| c != NEVER)
    }

    /// Forget every advertised wake (keeps allocations), resizing to
    /// `members`. Used when the caller can no longer vouch for its
    /// memoized wakes (external mutation between runs).
    pub fn reset(&mut self, members: usize) {
        self.current.clear();
        self.current.resize(members, NEVER);
        self.heap.clear();
    }

    /// Publish member `i`'s advertised wake. `None` clears it (the
    /// member is idle until externally republished).
    #[inline]
    pub fn publish(&mut self, i: usize, wake: Option<u64>) {
        match wake {
            Some(c) => {
                // Re-publishing an unchanged wake is common (a blocked
                // engine re-advertising its gate); skip the heap push
                // when the live entry already says exactly this.
                if self.current[i] != c {
                    self.current[i] = c;
                    self.heap.push(Reverse((c, i as u32)));
                }
            }
            None => self.current[i] = NEVER,
        }
    }

    /// Earliest advertised wake over all members, or `None` if every
    /// member is idle. Amortized O(1): each stale entry is discarded
    /// exactly once.
    #[inline]
    pub fn min(&mut self) -> Option<u64> {
        while let Some(&Reverse((c, i))) = self.heap.peek() {
            if self.current[i as usize] == c {
                return Some(c);
            }
            self.heap.pop();
        }
        None
    }

    /// Pop every member whose advertised wake is `<= cycle` into `due`,
    /// ascending by member index (the visit order of a cycle-stepped
    /// loop). The popped members' wakes are cleared; the caller visits
    /// each and republishes its fresh wake. `due` is cleared first and
    /// reused across calls — the steady state allocates nothing.
    pub fn drain_due(&mut self, cycle: u64, due: &mut Vec<u32>) {
        due.clear();
        while let Some(&Reverse((c, i))) = self.heap.peek() {
            if c > cycle {
                break;
            }
            self.heap.pop();
            if self.current[i as usize] == c {
                self.current[i as usize] = NEVER;
                due.push(i);
            }
        }
        due.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_tracks_republishes() {
        let mut w = WakeIndex::new(3);
        assert_eq!(w.min(), None);
        w.publish(0, Some(10));
        w.publish(1, Some(5));
        w.publish(2, Some(7));
        assert_eq!(w.min(), Some(5));
        // Moving member 1 later invalidates its old entry lazily.
        w.publish(1, Some(20));
        assert_eq!(w.min(), Some(7));
        w.publish(2, None);
        assert_eq!(w.min(), Some(10));
        assert_eq!((w.get(1), w.get(2)), (Some(20), None));
        w.publish(0, None);
        w.publish(1, None);
        assert_eq!(w.min(), None);
    }

    #[test]
    fn drain_due_is_ascending_and_exact() {
        let mut w = WakeIndex::new(5);
        w.publish(3, Some(4));
        w.publish(0, Some(4));
        w.publish(2, Some(9));
        w.publish(4, Some(2));
        let mut due = Vec::new();
        w.drain_due(4, &mut due);
        assert_eq!(due, vec![0, 3, 4]);
        // Drained members lost their wake; the rest are untouched.
        assert_eq!(w.min(), Some(9));
        w.drain_due(8, &mut due);
        assert!(due.is_empty());
        w.drain_due(9, &mut due);
        assert_eq!(due, vec![2]);
        assert_eq!(w.min(), None);
    }

    #[test]
    fn stale_entries_never_duplicate_a_member() {
        let mut w = WakeIndex::new(2);
        w.publish(0, Some(3));
        w.publish(0, Some(8));
        w.publish(0, Some(6));
        let mut due = Vec::new();
        w.drain_due(10, &mut due);
        assert_eq!(due, vec![0], "one live entry despite three publishes");
        w.drain_due(10, &mut due);
        assert!(due.is_empty());
    }

    #[test]
    fn unchanged_republish_is_free() {
        let mut w = WakeIndex::new(1);
        w.publish(0, Some(5));
        for _ in 0..1000 {
            w.publish(0, Some(5));
        }
        assert!(w.heap.len() <= 1, "no heap growth on unchanged wakes");
        assert_eq!(w.min(), Some(5));
    }

    #[test]
    fn reset_clears_state() {
        let mut w = WakeIndex::new(2);
        w.publish(0, Some(1));
        w.reset(4);
        assert_eq!(w.min(), None);
        assert_eq!(w.members(), 4);
    }
}
