//! Contention-free reference network.
//!
//! [`Network::set_ideal`](crate::Network::set_ideal) arms an
//! `IdealNetwork` inside the Arctic model, which then carries every
//! packet through it: each is delivered after a fixed latency plus its
//! own serialization time, with no queueing anywhere. It is *not* used
//! by the main experiments — it exists so ablations can separate NIU-side
//! costs from network-side costs, and so tests have an analytically exact
//! baseline.

use crate::network::LinkParams;
use crate::packet::Packet;
use sv_sim::{EventQueue, Time};

/// A network with infinite internal bandwidth: per-packet latency is
/// `fixed_latency_ns + serialize_ns(wire_bytes)` and packets never queue
/// (not even at the source). It ignores the fault injector and QoS.
#[derive(Debug, Clone)]
pub(crate) struct IdealNetwork<P> {
    fixed_latency_ns: u64,
    params: LinkParams,
    /// Attached nodes; restore refuses a pipe whose count differs from
    /// the tree's.
    pub(crate) nodes: usize,
    events: EventQueue<Packet<P>>,
    delivered: Vec<(Time, Packet<P>)>,
    /// Whole-section dirty flag for delta snapshots; runtime bookkeeping,
    /// never serialized. Fresh and restored instances start dirty.
    pub(crate) dirty: bool,
    /// [`IdealNetwork::harvest`]'s copy of `events`, kept so refreshing
    /// it reuses the buffer. Never serialized.
    saved: EventQueue<Packet<P>>,
}

impl<P> IdealNetwork<P> {
    /// An ideal network over `nodes` endpoints.
    pub(crate) fn new(nodes: usize, fixed_latency_ns: u64, params: LinkParams) -> Self {
        IdealNetwork {
            fixed_latency_ns,
            params,
            nodes,
            events: EventQueue::new(),
            delivered: Vec::new(),
            dirty: true,
            saved: EventQueue::new(),
        }
    }

    /// Inject a packet; it will be delivered after the fixed pipe delay.
    pub(crate) fn inject(&mut self, now: Time, mut packet: Packet<P>) {
        assert!((packet.dst as usize) < self.nodes);
        packet.injected_at = now;
        self.dirty = true;
        let at = now.plus(self.fixed_latency_ns + self.params.serialize_ns(packet.wire_bytes));
        self.events.push(at, packet);
    }

    /// Time of the next delivery, if any.
    pub(crate) fn next_event_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Move every packet due at or before `until` to the delivered list.
    pub(crate) fn advance(&mut self, until: Time) {
        while let Some(t) = self.events.peek_time() {
            if t > until {
                break;
            }
            let (t, p) = self.events.pop().expect("peeked");
            self.dirty = true;
            self.delivered.push((t, p));
        }
    }

    /// Append to `out` every delivery up to `horizon` — first any still
    /// undrained, then those `advance(horizon)` would make — and leave
    /// the network as it was. The pipe has no link state: an advance only
    /// pops events, so saving and restoring the queue is the whole
    /// rollback (see [`crate::Network::harvest`]).
    pub(crate) fn harvest(&mut self, horizon: Time, out: &mut Vec<(Time, Packet<P>)>)
    where
        P: Clone,
    {
        let (pending, dirty) = (self.delivered.len(), self.dirty);
        self.saved.clone_from(&self.events);
        self.advance(horizon);
        out.extend_from_slice(&self.delivered[..pending]);
        out.extend(self.delivered.drain(pending..));
        std::mem::swap(&mut self.events, &mut self.saved);
        self.dirty = dirty;
    }

    /// Drain delivered packets into a caller-owned buffer, in delivery
    /// order; both buffers keep their capacity (see
    /// [`crate::Network::drain_delivered_into`]).
    pub(crate) fn drain_delivered_into(&mut self, out: &mut Vec<(Time, Packet<P>)>) {
        if !self.delivered.is_empty() {
            self.dirty = true;
        }
        out.append(&mut self.delivered);
    }

    /// Conservative lookahead: the ideal pipe has no shared resources, so
    /// an injection at `t` affects exactly one delivery, at
    /// `t + fixed_latency_ns + serialize_ns(wire)`, which is at least
    /// this bound (every packet carries the header).
    pub(crate) fn lookahead_ns(&self) -> u64 {
        self.fixed_latency_ns + self.params.serialize_ns(crate::packet::PACKET_HEADER_BYTES)
    }
}

use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError, StateLoad, StateSave};

impl<P: StateSave + Clone> StateSave for IdealNetwork<P> {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.fixed_latency_ns);
        w.save(&self.params);
        w.usize_(self.nodes);
        w.save(&self.events);
        w.save(&self.delivered);
    }
}
impl<P: StateLoad + Clone> StateLoad for IdealNetwork<P> {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let fixed_latency_ns = r.u64()?;
        let params: LinkParams = r.load()?;
        let at = r.offset();
        let nodes = r.usize_()?;
        if nodes == 0 || nodes > u16::MAX as usize + 1 {
            return Err(SnapshotError::Corrupt { offset: at });
        }
        let net = IdealNetwork {
            fixed_latency_ns,
            params,
            nodes,
            events: r.load()?,
            delivered: r.load()?,
            dirty: true,
            saved: EventQueue::new(),
        };
        // Delivered packets are handed to the embedding machine, which
        // indexes its node array by `dst`; range-check every packet so a
        // forged snapshot cannot smuggle one past the `inject` assert.
        let bad = |p: &Packet<P>| (p.src as usize) >= net.nodes || (p.dst as usize) >= net.nodes;
        if net.delivered.iter().any(|(_, p)| bad(p)) {
            return Err(SnapshotError::Corrupt { offset: at });
        }
        let mut probe = net.events.clone();
        while let Some((_, p)) = probe.pop() {
            if bad(&p) {
                return Err(SnapshotError::Corrupt { offset: at });
            }
        }
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use crate::packet::Priority;
    use crate::{LinkParams, Network, Packet, RoutingPolicy};
    use sv_sim::ckpt::{SnapWriter, StateSave};
    use sv_sim::Time;

    /// A `nodes`-node network with a `fixed_latency_ns` pipe armed.
    fn pipe<P>(nodes: usize, fixed_latency_ns: u64) -> Network<P> {
        let mut n = Network::new(nodes, LinkParams::default(), RoutingPolicy::HashSpread);
        n.set_ideal(fixed_latency_ns);
        n
    }

    #[test]
    fn fixed_latency_plus_serialization() {
        let mut n = pipe(2, 500);
        n.inject(Time::ZERO, Packet::new(0, 1, Priority::Low, 88, ()));
        n.advance(Time::from_ns(10_000));
        let got = n.take_delivered();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0.ns(), 500 + 600);
    }

    #[test]
    fn no_contention_between_flows() {
        let mut n = pipe(3, 100);
        // Two packets to the same destination at the same instant arrive
        // at the same instant: the ideal network has no shared resources.
        n.inject(Time::ZERO, Packet::new(0, 2, Priority::Low, 88, 1u8));
        n.inject(Time::ZERO, Packet::new(1, 2, Priority::Low, 88, 2u8));
        n.advance(Time::from_ns(10_000));
        let got = n.take_delivered();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, got[1].0);
    }

    #[test]
    fn harvest_matches_a_cloned_advance_and_rolls_back() {
        let mut n = pipe(4, 300);
        let mut twin = n.clone();
        let snapshot = |n: &Network<u32>| {
            let mut w = SnapWriter::new();
            n.save(&mut w);
            n.save_delta(&mut w);
            w.finish()
        };
        let mut out = Vec::new();
        for step in 0..20u64 {
            let now = Time::from_ns(step * 200);
            for net in [&mut n, &mut twin] {
                net.advance(now);
                if step % 3 != 0 {
                    net.take_delivered();
                }
                if step % 2 == 0 {
                    net.ckpt_clear_dirty();
                }
                let s = (step % 4) as u16;
                let p = Packet::new(
                    s,
                    (s + 1) % 4,
                    Priority::Low,
                    8 * (step % 11) as u32,
                    step as u32,
                );
                net.inject(now, p);
            }
            for ahead in [0, 400, 2_000] {
                let horizon = now.plus(ahead);
                let mut probe = twin.clone();
                probe.advance(horizon);
                out.clear();
                n.harvest(horizon, &mut out);
                assert_eq!(format!("{out:?}"), format!("{:?}", probe.take_delivered()));
                assert!(
                    snapshot(&n) == snapshot(&twin),
                    "step {step}: snapshot changed"
                );
                assert_eq!(n.ckpt_dirty(), twin.ckpt_dirty());
                assert_eq!(n.next_event_time(), twin.next_event_time());
            }
        }
        // The tree carried nothing.
        assert_eq!(n.stats.injected.get(), 0);
    }

    #[test]
    fn advance_respects_bound() {
        let mut n = pipe(2, 1000);
        n.inject(Time::ZERO, Packet::new(0, 1, Priority::High, 0, ()));
        n.advance(Time::from_ns(10));
        assert!(n.take_delivered().is_empty());
        assert!(n.next_event_time().is_some());
        n.advance(Time::from_ns(100_000));
        assert_eq!(n.take_delivered().len(), 1);
    }
}
