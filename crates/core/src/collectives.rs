//! Collective operations over Express messages — the kind of library
//! the paper's layer 0 anticipates ("we will provide an MPI library that
//! presents the usual MPI interface ... but uses the underlying NIU
//! support").
//!
//! Express messages are ideal for collectives: a send is one uncached
//! store, a receive is one uncached load, and the program needs no queue
//! cursor state. A 64-bit value travels as two express messages whose
//! tags encode `(round, half)`; out-of-order arrivals (a partner racing
//! ahead a round) are buffered by tag.
//!
//! Provided: [`AllReduce`] (sum/min/max, recursive doubling,
//! power-of-two node counts), [`barrier`], and [`Broadcast`] (binomial
//! tree, any node count).

use crate::api::{BasicRx, BasicTx, ExpressPoll, Outgoing, RecvState, Rx, Tx, POLL_GAP_NS};
use crate::app::{AppEventKind, Env, Program, Step, StoreData};
use crate::machine::NodeLib;
use std::collections::HashMap;

/// Reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Wrapping addition.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl ReduceOp {
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

impl From<ReduceOp> for sv_firmware::proto::CollOp {
    fn from(op: ReduceOp) -> Self {
        match op {
            ReduceOp::Sum => sv_firmware::proto::CollOp::Sum,
            ReduceOp::Min => sv_firmware::proto::CollOp::Min,
            ReduceOp::Max => sv_firmware::proto::CollOp::Max,
        }
    }
}

/// Tag encoding: bit 0 = which half of the u64, bits 1..7 = round.
fn tag_of(round: u32, half: u8) -> u8 {
    ((round as u8) << 1) | half
}

fn split_tag(tag: u8) -> (u32, u8) {
    ((tag >> 1) as u32, tag & 1)
}

/// Shared express-exchange plumbing: send a u64 as two messages, collect
/// two halves per (round) from a specific sequence of partners.
struct Exchange {
    lib: NodeLib,
    /// Buffered halves keyed by `(round, half)`.
    pending: HashMap<(u32, u8), u32>,
    /// Which half of the current send remains (2 = both, 1 = low sent).
    send_left: u8,
    poll: ExpressPoll,
}

impl Exchange {
    fn new(lib: NodeLib) -> Self {
        Exchange {
            lib,
            pending: HashMap::new(),
            send_left: 0,
            poll: ExpressPoll::default(),
        }
    }

    /// Begin sending a value: both halves remain.
    fn start_send(&mut self) {
        self.send_left = 2;
    }

    /// Next send step, or `None` when both halves are out.
    fn send_step(&mut self, peer: u16, round: u32, value: u64) -> Option<Step> {
        if self.send_left == 0 {
            return None;
        }
        let half = 2 - self.send_left; // 0 then 1
        let word = if half == 0 {
            value as u32
        } else {
            (value >> 32) as u32
        };
        self.send_left -= 1;
        let dest = self.lib.express_dest(peer);
        Some(Step::Store {
            addr: self
                .lib
                .map
                .express_tx_addr(self.lib.express_tx_q, dest, tag_of(round, half)),
            data: StoreData::Bytes(word.to_le_bytes().to_vec()),
        })
    }

    /// Whether both halves of `round` have arrived.
    fn have_round(&self, round: u32) -> bool {
        self.pending.contains_key(&(round, 0)) && self.pending.contains_key(&(round, 1))
    }

    /// Take the assembled value for `round`.
    fn take_round(&mut self, round: u32) -> u64 {
        let lo = self.pending.remove(&(round, 0)).expect("low half") as u64;
        let hi = self.pending.remove(&(round, 1)).expect("high half") as u64;
        (hi << 32) | lo
    }

    /// Poll step: issue a receive load, or absorb its result. Returns
    /// `Some(step)` while more polling is needed to complete `round`.
    fn recv_step(&mut self, env: &mut Env<'_>, round: u32) -> Option<Step> {
        match self.poll.take(env) {
            // The load went out only while `round` was incomplete, and
            // nothing has arrived since: back off.
            Err(gap) => return Some(gap),
            Ok(Some((_src, tag, word))) => {
                let (r, half) = split_tag(tag);
                self.pending.insert((r, half), u32::from_le_bytes(word));
            }
            Ok(None) => {}
        }
        if self.have_round(round) {
            return None;
        }
        Some(self.poll.issue(&self.lib))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Send,
    Recv,
    Done,
}

/// Recursive-doubling all-reduce over `size` nodes (must be a power of
/// two). Every node ends with the reduction of all contributions,
/// reported as [`AppEventKind::Result`] with label `"allreduce"`.
pub struct AllReduce {
    ex: Exchange,
    rank: u16,
    op: ReduceOp,
    value: u64,
    round: u32,
    rounds: u32,
    phase: Phase,
}

impl AllReduce {
    /// One node's share of the collective.
    pub fn new(lib: &NodeLib, op: ReduceOp, value: u64) -> Self {
        let size = lib.nodes;
        assert!(size.is_power_of_two(), "recursive doubling needs 2^k nodes");
        let rounds = size.trailing_zeros();
        let mut ex = Exchange::new(*lib);
        if rounds > 0 {
            ex.start_send();
        }
        AllReduce {
            ex,
            rank: lib.node,
            op,
            value,
            round: 0,
            rounds,
            phase: if rounds == 0 {
                Phase::Done
            } else {
                Phase::Send
            },
        }
    }

    fn partner(&self) -> u16 {
        self.rank ^ (1 << self.round)
    }
}

impl Program for AllReduce {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        loop {
            match self.phase {
                Phase::Send => {
                    let peer = self.partner();
                    match self.ex.send_step(peer, self.round, self.value) {
                        Some(s) => return s,
                        None => self.phase = Phase::Recv,
                    }
                }
                Phase::Recv => {
                    if let Some(s) = self.ex.recv_step(env, self.round) {
                        return s;
                    }
                    let theirs = self.ex.take_round(self.round);
                    self.value = self.op.apply(self.value, theirs);
                    self.round += 1;
                    if self.round >= self.rounds {
                        self.phase = Phase::Done;
                    } else {
                        self.ex.start_send();
                        self.phase = Phase::Send;
                    }
                }
                Phase::Done => {
                    env.emit(AppEventKind::Result {
                        label: "allreduce",
                        value: self.value,
                    });
                    return Step::Done;
                }
            }
        }
    }
}

/// A barrier is an all-reduce of nothing.
pub fn barrier(lib: &NodeLib) -> AllReduce {
    AllReduce::new(lib, ReduceOp::Sum, 0)
}

/// Binomial-tree broadcast of a u64 from `root`; every node reports the
/// received value as [`AppEventKind::Result`] with label `"broadcast"`.
pub struct Broadcast {
    ex: Exchange,
    rank: u16,
    size: u16,
    root: u16,
    value: Option<u64>,
    round: u32,
    rounds: u32,
    phase: Phase,
}

impl Broadcast {
    /// One node's share. `value` is used only at the root.
    pub fn new(lib: &NodeLib, root: u16, value: u64) -> Self {
        let size = lib.nodes;
        // rounds = ceil(log2(size)).
        let mut r = 0;
        while (1u32 << r) < size as u32 {
            r += 1;
        }
        let rel = (lib.node + size - root) % size;
        let has = rel == 0;
        Broadcast {
            ex: Exchange::new(*lib),
            rank: lib.node,
            size,
            root,
            value: has.then_some(value),
            round: 0,
            rounds: r,
            phase: if r == 0 { Phase::Done } else { Phase::Recv },
        }
    }

    /// Rank relative to the root.
    fn rel(&self) -> u16 {
        (self.rank + self.size - self.root) % self.size
    }
}

impl Program for Broadcast {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        loop {
            if self.round >= self.rounds {
                self.phase = Phase::Done;
            }
            match self.phase {
                // In round k, relative ranks < 2^k hold the value and send
                // to rel + 2^k; ranks in [2^k, 2^(k+1)) receive.
                Phase::Recv => {
                    let rel = self.rel();
                    let k = self.round;
                    let lo = 1u32 << k;
                    if (rel as u32) < lo {
                        // We hold the value: send if the partner exists.
                        let dst_rel = rel as u32 + lo;
                        if dst_rel < self.size as u32 {
                            self.ex.start_send();
                            self.phase = Phase::Send;
                            continue;
                        }
                        self.round += 1;
                        continue;
                    }
                    if (rel as u32) < 2 * lo {
                        // Our turn to receive.
                        if let Some(s) = self.ex.recv_step(env, k) {
                            return s;
                        }
                        self.value = Some(self.ex.take_round(k));
                        self.round += 1;
                        continue;
                    }
                    // Not participating yet this round.
                    self.round += 1;
                }
                Phase::Send => {
                    let rel = self.rel();
                    let dst_rel = rel as u32 + (1u32 << self.round);
                    let peer = ((dst_rel as u16) + self.root) % self.size;
                    let v = self.value.expect("sender holds the value");
                    match self.ex.send_step(peer, self.round, v) {
                        Some(s) => return s,
                        None => {
                            self.round += 1;
                            self.phase = Phase::Recv;
                        }
                    }
                }
                Phase::Done => {
                    env.emit(AppEventKind::Result {
                        label: "broadcast",
                        value: self.value.expect("broadcast completed"),
                    });
                    return Step::Done;
                }
            }
        }
    }
}

/// Recursive-doubling all-reduce over **Basic** messages — the aP-driven
/// baseline ROADMAP item 2 names for the firmware collective comparison.
///
/// Where the Express variant ([`AllReduce`]) pays one uncached store per
/// 32-bit half, this one composes a full Basic message per round (header
/// store, payload stores, producer pointer update) and polls the receive
/// queue's header/body slots back out — the general-purpose path an MPI
/// layer would take for payloads wider than an Express tag. Every round
/// still burns aP cycles and bus crossings on every node; the firmware
/// engine ([`crate::api::CollReq`]) exists to take exactly this work off
/// the aPs.
pub struct BasicAllReduce {
    lib: NodeLib,
    rank: u16,
    op: ReduceOp,
    value: u64,
    round: u32,
    rounds: u32,
    phase: Phase,
    tx: BasicTx,
    /// Received values buffered by round (a fast partner can race a
    /// round ahead; per-peer in-order delivery does not serialize
    /// *across* peers).
    pending: HashMap<u32, u64>,
    rx: BasicRx,
}

impl BasicAllReduce {
    /// Payload bytes per round: `[round: u32 | value: u64]`.
    const PAYLOAD: usize = 12;

    /// One node's share of the collective.
    pub fn new(lib: &NodeLib, op: ReduceOp, value: u64) -> Self {
        let size = lib.nodes;
        assert!(size.is_power_of_two(), "recursive doubling needs 2^k nodes");
        let rounds = size.trailing_zeros();
        BasicAllReduce {
            lib: *lib,
            rank: lib.node,
            op,
            value,
            round: 0,
            rounds,
            phase: if rounds == 0 {
                Phase::Done
            } else {
                Phase::Send
            },
            tx: BasicTx::resuming(lib.basic_tx, 0),
            pending: HashMap::new(),
            rx: BasicRx::resuming(0),
        }
    }

    /// A barrier built on the Basic path: an all-reduce of nothing.
    pub fn barrier(lib: &NodeLib) -> Self {
        Self::new(lib, ReduceOp::Sum, 0)
    }

    fn partner(&self) -> u16 {
        self.rank ^ (1 << self.round)
    }
}

impl Program for BasicAllReduce {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        loop {
            match self.phase {
                Phase::Send => {
                    let mut payload = [0u8; Self::PAYLOAD];
                    payload[..4].copy_from_slice(&self.round.to_le_bytes());
                    payload[4..].copy_from_slice(&self.value.to_le_bytes());
                    let msg = Outgoing {
                        dest: self.lib.user_dest(self.partner()),
                        word: None,
                        bytes: &payload,
                        tagon: &[],
                    };
                    match self.tx.step(&self.lib, env, &msg) {
                        Tx::Busy(s) => return s,
                        Tx::Launched(s) => {
                            self.phase = Phase::Recv;
                            return s;
                        }
                    }
                }
                // Receive until this round's value is buffered, checking
                // between messages.
                Phase::Recv
                    if self.rx.state != RecvState::Poll
                        || !self.pending.contains_key(&self.round) =>
                {
                    match self.rx.step(&self.lib, env) {
                        Rx::Busy(s) => return s,
                        Rx::Empty => return Step::Compute(POLL_GAP_NS),
                        Rx::Message => {
                            if let Some(b) = self.rx.buf.get(..Self::PAYLOAD) {
                                let (round, value) = b.split_at(4);
                                self.pending.insert(
                                    u32::from_le_bytes(round.try_into().expect("round")),
                                    u64::from_le_bytes(value.try_into().expect("value")),
                                );
                            }
                        }
                    }
                }
                Phase::Recv => {
                    let theirs = self.pending.remove(&self.round).expect("round buffered");
                    self.value = self.op.apply(self.value, theirs);
                    self.round += 1;
                    self.phase = if self.round >= self.rounds {
                        Phase::Done
                    } else {
                        Phase::Send
                    };
                }
                Phase::Done => {
                    env.emit(AppEventKind::Result {
                        label: "allreduce_basic",
                        value: self.value,
                    });
                    return Step::Done;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_codec() {
        for round in 0..64u32 {
            for half in 0..2u8 {
                assert_eq!(split_tag(tag_of(round, half)), (round, half));
            }
        }
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.apply(3, 4), 7);
        assert_eq!(ReduceOp::Min.apply(3, 4), 3);
        assert_eq!(ReduceOp::Max.apply(3, 4), 4);
        assert_eq!(ReduceOp::Sum.apply(u64::MAX, 1), 0, "wrapping sum");
    }
}
