//! Hardware message-queue descriptors.
//!
//! Buffer space lives in the dual-ported SRAMs; *control state* —
//! producer/consumer pointers, modes, protection — lives inside CTRL,
//! exactly as in the hardware ("control state for these queues resides
//! inside the CTRL ASIC"). Pointers are free-running counters compared
//! modulo the queue size, the standard full/empty disambiguation.

use crate::sram::SramSel;
use sv_sim::stats::Counter;

/// Index of a hardware queue (0..16 for both tx and rx).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueId(pub u8);

/// What happens when a message arrives for a full receive queue
/// (paper §4: "options include dropping the packet, holding on to it …
/// or diverting it into the overflow queue").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxFullPolicy {
    /// Discard the packet (counted).
    Drop,
    /// Hold the packet at the head of the RxU, stalling the receive
    /// engine until space frees (can back-pressure the network).
    Retry,
    /// Divert into the firmware-serviced miss/overflow queue.
    Divert,
}

/// Who consumes a receive queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxService {
    /// Application processor polls the shadow producer pointer.
    ApPolled,
    /// Service processor polls (queue buffer normally in sSRAM).
    SpPolled,
    /// Message arrival raises an sP interrupt.
    Interrupt,
}

/// Common buffer geometry for a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueBuffer {
    /// Which SRAM bank holds the buffer.
    pub sram: SramSel,
    /// Byte address of the buffer base in that bank.
    pub base: u32,
    /// Number of entries (power of two).
    pub entries: u16,
    /// Bytes per entry (96 for message queues, 8 for Express queues).
    pub entry_bytes: u32,
}

impl QueueBuffer {
    /// SRAM byte address of the slot for free-running pointer `ptr`.
    #[inline]
    pub fn slot_addr(&self, ptr: u16) -> u32 {
        self.base + (ptr % self.entries) as u32 * self.entry_bytes
    }
}

/// A transmit queue descriptor.
#[derive(Debug, Clone)]
pub struct TxQueue {
    /// Buffer geometry.
    pub buf: QueueBuffer,
    /// Free-running producer (advanced by the sender's pointer update).
    pub producer: u16,
    /// Free-running consumer (advanced by CTRL as messages launch).
    pub consumer: u16,
    /// Disabled queues neither arbitrate nor accept pointer updates;
    /// protection violations shut the queue down.
    pub enabled: bool,
    /// Whether destination translation applies (OS can disable per queue).
    pub translate: bool,
    /// AND mask applied to the virtual destination before table lookup.
    pub and_mask: u16,
    /// OR mask applied after the AND.
    pub or_mask: u16,
    /// Whether this queue may send RAW (untranslated) messages.
    pub raw_allowed: bool,
    /// Arbitration priority (higher wins; ties round-robin). Lives in the
    /// dynamically reconfigurable priority system register.
    pub priority: u8,
    /// Express queue: 8-byte entries composed by the aBIU from a single
    /// uncached store, instead of 96-byte software-composed messages.
    pub express: bool,
    /// SRAM location where CTRL shadows the consumer pointer so senders
    /// can poll for buffer space without touching CTRL state.
    pub shadow_addr: Option<(SramSel, u32)>,
    /// Bytes sent so far.
    pub sent: Counter,
    /// Protection violations observed on this queue.
    pub violations: Counter,
    /// Messages enqueued (producer-pointer advances, in entries).
    pub enqueued: Counter,
    /// Launch stalls because the buffer was full (Express backpressure
    /// retries of the launching store).
    pub full_stalls: Counter,
}

impl TxQueue {
    /// A queue over `buf`, translation on, default priority.
    pub fn new(buf: QueueBuffer) -> Self {
        TxQueue {
            buf,
            producer: 0,
            consumer: 0,
            enabled: true,
            translate: true,
            and_mask: 0xFFFF,
            or_mask: 0,
            raw_allowed: false,
            priority: 0,
            express: false,
            shadow_addr: None,
            sent: Counter::default(),
            violations: Counter::default(),
            enqueued: Counter::default(),
            full_stalls: Counter::default(),
        }
    }

    /// Messages composed but not yet launched.
    #[inline]
    pub fn pending(&self) -> u16 {
        self.producer.wrapping_sub(self.consumer)
    }

    /// Whether the buffer has room for another message.
    #[inline]
    pub fn has_space(&self) -> bool {
        self.pending() < self.buf.entries
    }

    /// Set the (free-running) producer pointer, counting the advance as
    /// enqueues. Senders publish absolute pointer values, so the enqueue
    /// count is the wrapping distance from the previous value.
    #[inline]
    pub fn producer_update(&mut self, value: u16) {
        self.enqueued.add(value.wrapping_sub(self.producer) as u64);
        self.producer = value;
    }

    /// Masked (post AND/OR) virtual destination.
    #[inline]
    pub fn masked_dest(&self, dest: u16) -> u16 {
        (dest & self.and_mask) | self.or_mask
    }
}

/// A receive queue descriptor.
#[derive(Debug, Clone)]
pub struct RxQueue {
    /// Buffer geometry.
    pub buf: QueueBuffer,
    /// Advanced by CTRL as messages land.
    pub producer: u16,
    /// Advanced by the consumer's pointer update.
    pub consumer: u16,
    /// Whether the queue is enabled.
    pub enabled: bool,
    /// Who consumes this queue.
    pub service: RxService,
    /// Full policy.
    pub full_policy: RxFullPolicy,
    /// Express queue: 8-byte packed entries.
    pub express: bool,
    /// SRAM location where CTRL shadows the producer pointer so pollers
    /// never cross into CTRL state.
    pub shadow_addr: Option<(SramSel, u32)>,
    /// Bytes received so far.
    pub received: Counter,
    /// Messages dropped.
    pub dropped: Counter,
    /// Messages diverted to the miss queue.
    pub diverted: Counter,
    /// Messages dequeued (consumer-pointer advances, in entries).
    pub dequeued: Counter,
    /// Delivery attempts stalled because the queue was full under the
    /// Retry policy (one per receive-engine retry).
    pub full_stalls: Counter,
}

impl RxQueue {
    /// A queue over `buf`, aP-polled, diverting when full.
    pub fn new(buf: QueueBuffer) -> Self {
        RxQueue {
            buf,
            producer: 0,
            consumer: 0,
            enabled: true,
            service: RxService::ApPolled,
            full_policy: RxFullPolicy::Divert,
            express: false,
            shadow_addr: None,
            received: Counter::default(),
            dropped: Counter::default(),
            diverted: Counter::default(),
            dequeued: Counter::default(),
            full_stalls: Counter::default(),
        }
    }

    /// Messages delivered but not yet consumed.
    #[inline]
    pub fn pending(&self) -> u16 {
        self.producer.wrapping_sub(self.consumer)
    }

    /// Whether another message fits.
    #[inline]
    pub fn has_space(&self) -> bool {
        self.pending() < self.buf.entries
    }

    /// Set the (free-running) consumer pointer, counting the advance as
    /// dequeues (wrapping distance from the previous value).
    #[inline]
    pub fn consumer_update(&mut self, value: u16) {
        self.dequeued.add(value.wrapping_sub(self.consumer) as u64);
        self.consumer = value;
    }
}

sv_sim::checkpointed! { struct QueueId(index) }

sv_sim::checkpointed! {
    enum RxFullPolicy {
        0 => Drop,
        1 => Retry,
        2 => Divert,
    }
}

sv_sim::checkpointed! {
    enum RxService {
        0 => ApPolled,
        1 => SpPolled,
        2 => Interrupt,
    }
}

sv_sim::checkpointed! {
    struct QueueBuffer {
        sram,
        base,
        entries,
        entry_bytes,
    }
    // `slot_addr` divides by `entries`.
    validate: |b: &QueueBuffer| b.entries != 0
}

sv_sim::checkpointed! {
    struct TxQueue {
        buf,
        producer,
        consumer,
        enabled,
        translate,
        and_mask,
        or_mask,
        raw_allowed,
        priority,
        express,
        shadow_addr,
        sent,
        violations,
        enqueued,
        full_stalls,
    }
}

sv_sim::checkpointed! {
    struct RxQueue {
        buf,
        producer,
        consumer,
        enabled,
        service,
        full_policy,
        express,
        shadow_addr,
        received,
        dropped,
        diverted,
        dequeued,
        full_stalls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf() -> QueueBuffer {
        QueueBuffer {
            sram: SramSel::A,
            base: 0x1000,
            entries: 4,
            entry_bytes: 96,
        }
    }

    #[test]
    fn slot_addresses_wrap() {
        let b = buf();
        assert_eq!(b.slot_addr(0), 0x1000);
        assert_eq!(b.slot_addr(3), 0x1000 + 3 * 96);
        assert_eq!(b.slot_addr(4), 0x1000);
        assert_eq!(b.slot_addr(7), 0x1000 + 3 * 96);
    }

    #[test]
    fn tx_occupancy_and_wraparound() {
        let mut q = TxQueue::new(buf());
        assert_eq!(q.pending(), 0);
        q.producer = 3;
        assert_eq!(q.pending(), 3);
        assert!(q.has_space());
        q.producer = 4;
        assert!(!q.has_space());
        // Free-running counters survive u16 wraparound.
        q.producer = 2;
        q.consumer = 0xFFFF;
        assert_eq!(q.pending(), 3);
    }

    #[test]
    fn masked_destination() {
        let mut q = TxQueue::new(buf());
        q.and_mask = 0x00FF;
        q.or_mask = 0x0300;
        // High byte forced to 0x03 regardless of what the user wrote:
        // this is how the OS confines a process to its destination set.
        assert_eq!(q.masked_dest(0xAB12), 0x0312);
    }

    #[test]
    fn pointer_updates_count_enqueues_and_dequeues() {
        let mut t = TxQueue::new(buf());
        t.producer_update(3);
        t.producer_update(3);
        assert_eq!(t.enqueued.get(), 3);
        let mut r = RxQueue::new(buf());
        r.producer = 4;
        r.consumer_update(2);
        assert_eq!(r.dequeued.get(), 2);
        // Wrapping pointers count the wrapping distance.
        r.consumer = 0xFFFE;
        r.consumer_update(1);
        assert_eq!(r.dequeued.get(), 5);
    }

    #[test]
    fn rx_occupancy() {
        let mut q = RxQueue::new(buf());
        q.producer = 4;
        assert!(!q.has_space());
        q.consumer = 2;
        assert_eq!(q.pending(), 2);
        assert!(q.has_space());
    }
}
