//! Bounded FIFO model.
//!
//! Every hardware queue in the NIU — transmit/receive message queues,
//! command queues, the TxU/RxU staging FIFOs, the aBIU↔sBIU queue — is a
//! bounded FIFO with producer/consumer semantics. [`BoundedFifo`] models
//! exactly that, with occupancy statistics (high-water mark, full-stall
//! counts) that feed the contention analyses in the bench harness.

use crate::stats::Counter;
use std::collections::VecDeque;

/// A bounded FIFO queue of `T` with occupancy accounting.
#[derive(Debug, Clone)]
pub struct BoundedFifo<T> {
    items: VecDeque<T>,
    capacity: usize,
    /// Highest occupancy ever observed.
    high_water: usize,
    /// Number of pushes rejected because the queue was full.
    pub full_rejections: Counter,
    /// Total accepted pushes.
    pub accepted: Counter,
}

impl<T> BoundedFifo<T> {
    /// A FIFO holding at most `capacity` items (`capacity > 0`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FIFO capacity must be positive");
        BoundedFifo {
            items: VecDeque::with_capacity(capacity),
            capacity,
            high_water: 0,
            full_rejections: Counter::default(),
            accepted: Counter::default(),
        }
    }

    /// Attempt to enqueue; returns `Err(item)` (and counts a rejection)
    /// if the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            self.full_rejections.bump();
            return Err(item);
        }
        self.items.push_back(item);
        self.accepted.bump();
        if self.items.len() > self.high_water {
            self.high_water = self.items.len();
        }
        Ok(())
    }

    /// Dequeue the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Oldest item without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Remaining space.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Iterate oldest-to-newest without consuming.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

crate::checkpointed! {
    struct BoundedFifo<T> {
        capacity,
        high_water,
        full_rejections,
        accepted,
        items,
    }
    validate: BoundedFifo::is_consistent
}

impl<T> BoundedFifo<T> {
    /// The contents and high-water mark fit the (nonzero) capacity.
    fn is_consistent(&self) -> bool {
        self.capacity != 0 && self.items.len() <= self.capacity && self.high_water <= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_ordering() {
        let mut f = BoundedFifo::new(4);
        for i in 0..4 {
            f.push(i).unwrap();
        }
        assert_eq!(f.pop(), Some(0));
        assert_eq!(f.pop(), Some(1));
        f.push(9).unwrap();
        assert_eq!([f.pop(), f.pop(), f.pop()], [Some(2), Some(3), Some(9)]);
        assert!(f.is_empty());
    }

    #[test]
    fn rejects_when_full() {
        let mut f = BoundedFifo::new(2);
        f.push('a').unwrap();
        f.push('b').unwrap();
        assert_eq!(f.free(), 0);
        assert_eq!(f.push('c'), Err('c'));
        assert_eq!(f.full_rejections.get(), 1);
        assert_eq!(f.accepted.get(), 2);
        f.pop();
        assert!(f.push('c').is_ok());
    }

    #[test]
    fn high_water_and_free() {
        let mut f = BoundedFifo::new(3);
        f.push(1).unwrap();
        f.push(2).unwrap();
        f.pop();
        f.pop();
        assert_eq!(f.high_water(), 2);
        assert_eq!(f.free(), 3);
        assert_eq!(f.capacity(), 3);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut f = BoundedFifo::new(2);
        f.push(7).unwrap();
        assert_eq!(f.peek(), Some(&7));
        assert_eq!(f.len(), 1);
        assert_eq!(f.iter().copied().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedFifo::<u8>::new(0);
    }

    #[test]
    fn snapshot_roundtrip_keeps_contents_and_counters() {
        let mut f = BoundedFifo::new(4);
        for i in 0..4u8 {
            f.push(i).unwrap();
        }
        let _ = f.push(9); // rejection
        f.pop();
        let g: BoundedFifo<u8> = crate::ckpt::roundtrip(&f).unwrap();
        assert_eq!(g.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(g.capacity(), 4);
        assert_eq!(g.high_water(), 4);
        assert_eq!(g.full_rejections.get(), 1);
        assert_eq!(g.accepted.get(), 4);
    }
}
