//! NIC-resident collectives: barrier, broadcast, reduce, all-reduce
//! sequenced entirely on the sP.
//!
//! The aP-driven collectives in `voyager::collectives` burn aP cycles
//! and bus crossings on every fan-in step; here the whole tree protocol
//! lives in firmware, the way Quadrics/Myrinet NIC-based collectives
//! ran theirs on the NIC processor. An aP's entire involvement is one
//! Basic message into its own service queue (COLL_START) and one
//! message out of its receive queue (COLL_RESULT); every intermediate
//! combine, fan-in wait and fan-out travels sP-to-sP as COLL_UP /
//! COLL_DOWN service messages — ordinary Basic traffic, so the
//! Go-Back-N reliable layer covers it under hostile fabrics.
//!
//! ## Tree shape
//!
//! The fan-in/fan-out tree is the Arctic fat tree's own 4-ary recursion
//! ([`sv_arctic::topology::RADIX`]): in rank space (rank = node rotated
//! by the root), rank `r` is a level-`k` leader iff `r % 4^k == 0`, and
//! its children are the other three level-`(k-1)` leaders of each
//! aligned 4-chunk it leads. With root 0 every child→parent hop stays
//! inside the smallest enclosing fat-tree subtree, so fan-in traffic
//! converges along the same subtrees the sharded run loop partitions
//! by. Depth is ⌈log₄ N⌉; a node combines at most `3·depth` fan-in
//! contributions.
//!
//! ## Sequencing
//!
//! Collectives carry a per-node sequence number assigned by the
//! firmware in COLL_START arrival order. Every participating aP issues
//! the same collectives in the same order (the usual MPI communicator
//! contract), so sequence numbers agree machine-wide and a fast
//! subtree's seq-`s+1` fan-in can overtake a slow sibling's seq-`s`
//! without confusion: group state is keyed by seq and created by
//! whichever message touches it first.

use crate::engine::{Firmware, Q_PROTO};
use crate::proto::{encode_coll_result, op, CollKind, CollMsg, CollOp, CollStart};
use bytes::Bytes;
use std::collections::BTreeMap;
use sv_arctic::topology::RADIX;
use sv_arctic::Priority;
use sv_niu::{LocalCmd, Niu};
use sv_sim::stats::Counter;

/// The widest child span of `rank`: the largest `4^k < size` such that
/// `rank` leads an aligned `4^(k+1)`-chunk, or `None` for a leaf.
fn top_span(r: usize, n: usize) -> Option<usize> {
    if n <= 1 || !r.is_multiple_of(RADIX) {
        return None;
    }
    let mut span = 1;
    while span * RADIX < n && r.is_multiple_of(span * RADIX * RADIX) {
        span *= RADIX;
    }
    Some(span)
}

/// Number of tree children of `rank` in a `size`-node collective.
pub fn n_children(rank: u16, size: u16) -> u16 {
    let (r, n) = (rank as usize, size as usize);
    let Some(mut span) = top_span(r, n) else {
        return 0;
    };
    let mut count = 0;
    loop {
        for j in 1..RADIX {
            if r + j * span < n {
                count += 1;
            }
        }
        if span == 1 {
            break;
        }
        span /= RADIX;
    }
    count as u16
}

/// The `idx`-th tree child of `rank`, or `None` past the end. The order
/// is deliberate: widest subtree first, so result fan-out reaches the
/// leaders with the most downstream work earliest and their subtrees'
/// distribution overlaps the remaining sends (latency pipelining; the
/// same order also retires the longest fan-in chains soonest).
pub fn child_at(rank: u16, size: u16, idx: u16) -> Option<u16> {
    let (r, n) = (rank as usize, size as usize);
    let mut span = top_span(r, n)?;
    let mut seen = 0;
    loop {
        for j in 1..RADIX {
            let c = r + j * span;
            if c < n {
                if seen == idx {
                    return Some(c as u16);
                }
                seen += 1;
            }
        }
        if span == 1 {
            break;
        }
        span /= RADIX;
    }
    None
}

/// The tree parent of nonzero `rank`: its leading multiple of the next
/// 4-power up.
pub fn parent_rank(rank: u16) -> u16 {
    debug_assert_ne!(rank, 0, "rank 0 is the tree root");
    let r = rank as usize;
    let mut span = 1;
    while r.is_multiple_of(span * RADIX) {
        span *= RADIX;
    }
    (r - r % (span * RADIX)) as u16
}

/// Placeholder root for group state created by a tree message before the
/// local COLL_START named the real one. Tree messages carry no root (14
/// bytes on the wire matters on the serialization-bound critical path);
/// contributions fold fine without it, and no tree *geometry* decision is
/// needed until the local start arrives.
pub const UNKNOWN_ROOT: u16 = u16::MAX;

/// One in-flight collective's group state on one node. All of it lives
/// on the sP; the aP never touches intermediate values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollState {
    /// Which collective.
    pub kind: CollKind,
    /// Reduction operator.
    pub op: CollOp,
    /// Root node, or [`UNKNOWN_ROOT`] until the local COLL_START.
    pub root: u16,
    /// Partial reduction over the local value and received children.
    pub acc: u64,
    /// Children contributions folded so far.
    pub kids_got: u16,
    /// The local aP has issued its COLL_START.
    pub local_in: bool,
    /// Logical queue for the COLL_RESULT (valid once `local_in`).
    pub notify_lq: u16,
    /// Fan-in contribution has been sent to the parent.
    pub up_sent: bool,
    /// Final result, once known at this node.
    pub down: Option<u64>,
    /// Next child index for result fan-out.
    pub fanout_next: u16,
    /// COLL_RESULT has been sent to the local aP.
    pub delivered: bool,
}

impl CollState {
    fn new(kind: CollKind, op: CollOp, root: u16) -> Self {
        CollState {
            kind,
            op,
            root,
            acc: op.identity(),
            kids_got: 0,
            local_in: false,
            notify_lq: 0,
            up_sent: false,
            down: None,
            fanout_next: 0,
            delivered: false,
        }
    }

    /// This node's rank in the root-rotated tree.
    fn rank(&self, node: u16, nodes: u16) -> u16 {
        (node + nodes - self.root % nodes) % nodes
    }

    /// Whether every expected contribution (local + children) is in.
    fn fanin_done(&self, rank: u16, nodes: u16) -> bool {
        match self.kind {
            CollKind::Bcast => true,
            _ => self.local_in && self.kids_got >= n_children(rank, nodes),
        }
    }

    /// Whether this node distributes the result to tree children.
    fn fans_out(&self) -> bool {
        !matches!(self.kind, CollKind::Reduce)
    }

    /// What the stepper could do right now, if anything.
    fn action(&self, node: u16, nodes: u16) -> Option<Action> {
        if self.root == UNKNOWN_ROOT {
            // Only tree messages have touched this collective so far; no
            // send or delivery is decidable until the local COLL_START
            // supplies the tree geometry.
            return None;
        }
        let rank = self.rank(node, nodes);
        if self.kind != CollKind::Bcast && rank != 0 && !self.up_sent {
            if self.fanin_done(rank, nodes) {
                return Some(Action::SendUp);
            }
        } else if self.kind != CollKind::Bcast
            && rank == 0
            && self.down.is_none()
            && self.fanin_done(rank, nodes)
        {
            return Some(Action::Complete);
        }
        if let Some(v) = self.down {
            if self.fans_out() && child_at(rank, nodes, self.fanout_next).is_some() {
                return Some(Action::FanOut(v));
            }
            if self.local_in && !self.delivered {
                return Some(Action::Deliver(v));
            }
        }
        None
    }

    /// Whether nothing more can ever happen to this state.
    fn terminal(&self, node: u16, nodes: u16) -> bool {
        let rank = self.rank(node, nodes);
        let fanout_done = !self.fans_out()
            || self.down.is_none()
            || child_at(rank, nodes, self.fanout_next).is_none();
        let up_done = rank == 0 || self.kind == CollKind::Bcast || self.up_sent;
        self.delivered && fanout_done && up_done && self.fanin_done(rank, nodes)
    }
}

/// The stepper's next move for one collective.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Fan-in complete at a non-root: push the partial up the tree.
    SendUp,
    /// Fan-in complete at the root: the accumulator is the result.
    Complete,
    /// Result known: send it to the next tree child.
    FanOut(u64),
    /// Result known and the local aP is waiting: deliver COLL_RESULT.
    Deliver(u64),
}

/// Collective service state + statistics.
#[derive(Debug, Default)]
pub struct CollService {
    /// Sequence number the next local COLL_START receives.
    pub next_seq: u32,
    /// In-flight collectives keyed by sequence number.
    pub states: BTreeMap<u32, CollState>,
    /// COLL_STARTs accepted from the local aP.
    pub started: Counter,
    /// Results delivered to the local aP.
    pub completed: Counter,
    /// Fan-in (COLL_UP) messages sent.
    pub ups_sent: Counter,
    /// Fan-out (COLL_DOWN) messages sent.
    pub downs_sent: Counter,
    /// Contributions that arrived while the fan-in was still incomplete
    /// (the wait depth the sP absorbed so the aPs did not have to).
    pub fanin_stalls: Counter,
    /// sP busy time attributed to collective handlers, ns.
    pub busy_ns: u64,
}

impl CollService {
    /// Whether any collective is still in flight on this node.
    pub fn has_pending(&self) -> bool {
        !self.states.is_empty()
    }

    /// Whether the stepper has something to do *now* (as opposed to
    /// waiting on future service-queue messages, which wake the
    /// firmware by themselves).
    pub fn has_actionable(&self, node: u16, nodes: u16) -> bool {
        self.states
            .values()
            .any(|st| st.action(node, nodes).is_some())
    }
}

impl Firmware {
    /// Charge a collective handler: ordinary sP occupancy, plus the
    /// attribution counter the S8 experiment reads.
    fn charge_coll(&mut self, cycle: u64, base: u64) {
        self.charge(cycle, base);
        self.coll.busy_ns += self.params.cost(base) * 15;
    }

    /// The local aP joined a collective (opcode COLL_START).
    pub(crate) fn coll_on_start(&mut self, cycle: u64, data: &Bytes, _niu: &mut Niu) {
        let Some(s) = CollStart::decode(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        if s.root >= self.cfg.nodes {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        }
        let seq = self.coll.next_seq;
        self.coll.next_seq = self.coll.next_seq.wrapping_add(1);
        let (node, nodes) = (self.cfg.node, self.cfg.nodes);
        let st = self
            .coll
            .states
            .entry(seq)
            .or_insert_with(|| CollState::new(s.kind, s.op, s.root));
        if st.kind != s.kind || st.op != s.op || st.local_in {
            // A child's earlier fan-in described a different collective
            // for this slot (or the aP started the same seq twice): the
            // group is inconsistent; refuse rather than corrupt it.
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        }
        // Tree messages carry no root; the local start supplies it. Any
        // contributions folded before now must fit this rank's child
        // count, or the slot saw traffic for some other group.
        st.root = s.root;
        let rank = st.rank(node, nodes);
        if st.kids_got > n_children(rank, nodes) {
            st.root = UNKNOWN_ROOT;
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        }
        self.coll.started.bump();
        st.local_in = true;
        st.notify_lq = s.notify_lq;
        match s.kind {
            CollKind::Bcast => {
                if rank == 0 {
                    st.down = Some(s.value);
                }
            }
            _ => {
                st.acc = st.op.apply(st.acc, s.value);
                if !st.fanin_done(rank, nodes) {
                    self.coll.fanin_stalls.bump();
                }
            }
        }
        self.charge_coll(cycle, self.params.coll_start_cycles);
    }

    /// A child's fan-in contribution arrived (opcode COLL_UP).
    pub(crate) fn coll_on_up(&mut self, cycle: u64, data: &Bytes, _niu: &mut Niu) {
        let Some(m) = CollMsg::decode(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        if m.opcode != op::COLL_UP || m.kind == CollKind::Bcast {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        }
        let (node, nodes) = (self.cfg.node, self.cfg.nodes);
        let st = self
            .coll
            .states
            .entry(m.seq)
            .or_insert_with(|| CollState::new(m.kind, m.op, UNKNOWN_ROOT));
        if st.kind != m.kind || st.op != m.op {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        }
        if st.root != UNKNOWN_ROOT {
            let rank = st.rank(node, nodes);
            if st.kids_got >= n_children(rank, nodes) {
                // More contributions than this rank has children: stale
                // or forged traffic for a finished fan-in.
                self.stats.proto_errors.bump();
                self.charge(cycle, self.params.dispatch_cycles);
                return;
            }
            st.kids_got += 1;
            st.acc = st.op.apply(st.acc, m.value);
            if !st.fanin_done(rank, nodes) {
                self.coll.fanin_stalls.bump();
            }
        } else {
            // No local start yet, so no child count to check against; the
            // bound is enforced when COLL_START supplies the geometry.
            st.kids_got = st.kids_got.saturating_add(1);
            st.acc = st.op.apply(st.acc, m.value);
            self.coll.fanin_stalls.bump();
        }
        self.charge_coll(cycle, self.params.coll_combine_cycles);
    }

    /// The parent's fan-out result arrived (opcode COLL_DOWN).
    pub(crate) fn coll_on_down(&mut self, cycle: u64, data: &Bytes, _niu: &mut Niu) {
        let Some(m) = CollMsg::decode(data) else {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        };
        if m.opcode != op::COLL_DOWN || m.kind == CollKind::Reduce {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        }
        let st = self
            .coll
            .states
            .entry(m.seq)
            .or_insert_with(|| CollState::new(m.kind, m.op, UNKNOWN_ROOT));
        if st.kind != m.kind || st.op != m.op || st.down.is_some() {
            self.stats.proto_errors.bump();
            self.charge(cycle, self.params.dispatch_cycles);
            return;
        }
        st.down = Some(m.value);
        self.charge_coll(cycle, self.params.coll_combine_cycles);
    }

    /// Step the collective engine: one tree message or one delivery per
    /// engagement, lowest sequence number first. Returns whether work
    /// was done.
    pub(crate) fn step_coll(&mut self, cycle: u64, niu: &mut Niu) -> bool {
        if self.coll.states.is_empty() {
            return false;
        }
        if niu.sp().cmd_depth(Q_PROTO) > 40 {
            return false;
        }
        let (node, nodes) = (self.cfg.node, self.cfg.nodes);
        let svc_lq = self.cfg.svc_lq;
        let Some((&seq, _)) = self
            .coll
            .states
            .iter()
            .find(|(_, st)| st.action(node, nodes).is_some())
        else {
            return false;
        };
        let st = self.coll.states.get_mut(&seq).expect("state just found");
        let rank = st.rank(node, nodes);
        match st.action(node, nodes).expect("action just found") {
            Action::SendUp => {
                st.up_sent = true;
                let msg = CollMsg {
                    opcode: op::COLL_UP,
                    kind: st.kind,
                    op: st.op,
                    seq,
                    value: st.acc,
                };
                // A non-root Reduce participant is finished once its
                // subtree's partial is on the wire: complete it with a
                // zero value (only the root sees the reduction).
                if st.kind == CollKind::Reduce {
                    st.down = Some(0);
                }
                let parent = (parent_rank(rank) + st.root) % nodes;
                self.coll.ups_sent.bump();
                niu.sp().push_cmd(
                    Q_PROTO,
                    LocalCmd::SendDirect {
                        node: parent,
                        logical_q: svc_lq,
                        priority: Priority::High,
                        data: msg.encode(),
                        tagon: None,
                    },
                );
                self.charge_coll(cycle, self.params.coll_send_cycles);
            }
            Action::Complete => {
                // Root fan-in done: the accumulator is the result. For
                // a Reduce the root is also the only consumer.
                st.down = Some(st.acc);
                self.charge_coll(cycle, self.params.coll_combine_cycles);
            }
            Action::FanOut(v) => {
                let child = child_at(rank, nodes, st.fanout_next).expect("action said fan out");
                st.fanout_next += 1;
                let msg = CollMsg {
                    opcode: op::COLL_DOWN,
                    kind: st.kind,
                    op: st.op,
                    seq,
                    value: v,
                };
                let dst = (child + st.root) % nodes;
                self.coll.downs_sent.bump();
                niu.sp().push_cmd(
                    Q_PROTO,
                    LocalCmd::SendDirect {
                        node: dst,
                        logical_q: svc_lq,
                        priority: Priority::High,
                        data: msg.encode(),
                        tagon: None,
                    },
                );
                self.charge_coll(cycle, self.params.coll_send_cycles);
            }
            Action::Deliver(v) => {
                st.delivered = true;
                let (kind, lq) = (st.kind, st.notify_lq);
                self.coll.completed.bump();
                niu.sp().push_cmd(
                    Q_PROTO,
                    LocalCmd::SendDirect {
                        node,
                        logical_q: lq,
                        priority: Priority::Low,
                        data: encode_coll_result(kind, seq, v),
                        tagon: None,
                    },
                );
                self.charge_coll(cycle, self.params.coll_deliver_cycles);
            }
        }
        // Retire the state once nothing more can touch it; every tree
        // message it was owed has been consumed, so the seq can never
        // be resurrected by in-order traffic.
        if self.coll.states[&seq].terminal(node, nodes) {
            self.coll.states.remove(&seq);
        }
        true
    }
}

sv_sim::checkpointed! {
    struct CollState {
        kind,
        op,
        root,
        acc,
        kids_got,
        local_in,
        notify_lq,
        up_sent,
        down,
        fanout_next,
        delivered,
    }
}

sv_sim::checkpointed! {
    struct CollService {
        next_seq,
        states,
        started,
        completed,
        ups_sent,
        downs_sent,
        fanin_stalls,
        busy_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference child list, for checking the allocation-free walkers.
    fn children(rank: u16, size: u16) -> Vec<u16> {
        (0..).map_while(|i| child_at(rank, size, i)).collect()
    }

    #[test]
    fn tree_is_subtree_aligned() {
        // 16 nodes: rank 0 leads the whole tree, ranks 4/8/12 lead the
        // aligned 4-chunks, everyone else is a leaf. Enumeration is
        // widest-subtree-first (see `child_at`).
        assert_eq!(children(0, 16), vec![4, 8, 12, 1, 2, 3]);
        assert_eq!(children(4, 16), vec![5, 6, 7]);
        assert_eq!(children(12, 16), vec![13, 14, 15]);
        assert_eq!(children(5, 16), Vec::<u16>::new());
        assert_eq!(parent_rank(5), 4);
        assert_eq!(parent_rank(12), 0);
        assert_eq!(parent_rank(20), 16);
        // 64 nodes: the root leads at every level; chunk leaders first.
        assert_eq!(children(0, 64), vec![16, 32, 48, 4, 8, 12, 1, 2, 3]);
        assert_eq!(children(48, 64), vec![52, 56, 60, 49, 50, 51]);
        // Non-4-power sizes truncate cleanly.
        assert_eq!(children(0, 5), vec![4, 1, 2, 3]);
        assert_eq!(children(4, 5), Vec::<u16>::new());
    }

    #[test]
    fn every_rank_reaches_the_root() {
        for size in [1u16, 2, 3, 4, 5, 16, 17, 64, 200, 256] {
            for rank in 1..size {
                let mut r = rank;
                let mut hops = 0;
                while r != 0 {
                    let p = parent_rank(r);
                    assert!(p < r, "parents descend toward 0");
                    // The child must appear in its parent's child list.
                    assert!(
                        children(p, size).contains(&r),
                        "rank {r} missing from parent {p} (size {size})"
                    );
                    r = p;
                    hops += 1;
                    assert!(hops <= 8, "tree depth bounded by log4");
                }
            }
        }
    }

    #[test]
    fn child_counts_match_child_walks() {
        for size in [1u16, 4, 6, 16, 64, 100, 256] {
            let mut total = 0usize;
            for rank in 0..size {
                let kids = children(rank, size);
                assert_eq!(kids.len(), n_children(rank, size) as usize);
                total += kids.len();
            }
            // Every rank but 0 is someone's child exactly once.
            assert_eq!(total, size as usize - 1, "size {size}");
        }
    }
}
