//! Layer-0 library: user-level programs over the NIU's memory-mapped
//! interface.
//!
//! Each type here is a [`Program`] that drives the communication
//! mechanisms exactly the way user code on the real machine would —
//! composing messages with stores into the mapped aSRAM window, updating
//! queue pointers with address-encoded stores, polling shadow pointers,
//! launching Express messages with single stores. Nothing in this module
//! touches simulator internals; everything goes through loads and stores.
//!
//! The Basic-queue protocol is written once, as two crate-private
//! engines. The send engine waits for a free slot by polling the
//! consumer shadow, writes a TagOn attachment into user scratch, stores
//! the header and the payload in chunks of at most 8 bytes, then stores
//! the producer pointer. The receive engine polls the producer shadow,
//! loads the header and the body, and stores the consumer pointer once
//! its caller is done with the message. [`SendBasic`], [`RecvBasic`] and
//! [`CollWait`], approach 1's sender and receiver
//! ([`crate::blockxfer`]), the Basic all-reduce
//! ([`crate::collectives::BasicAllReduce`]) and the tenant scheduler's
//! transmit muxes drive them and keep only their own work around the
//! queue. Express receivers share one poll helper the same way.

use crate::app::{AppEventKind, Env, Program, Step, StoreData};
use crate::machine::{NodeLib, QueueView, USER_SCRATCH};
use bytes::Bytes;
use sv_firmware::proto::{self, XferReq};
use sv_niu::msg::{express, MsgHeader, TAGON_LARGE, TAGON_SMALL};
use sv_niu::niu::decode_rx_slot;

/// Gap between polls of an empty queue, ns (amortizes bus traffic the
/// way a real polling loop's loop overhead does). Every polling program
/// in the crate waits this long.
pub(crate) const POLL_GAP_NS: u64 = 30;

/// What a layer-0 library call can reject. The panicking constructors
/// ([`BasicMsg::new`], [`SendBasic::to_node`], …) delegate to `try_`
/// variants returning this, so applications that build messages from
/// untrusted sizes can handle the failure instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ApiError {
    /// Basic payloads are at most 88 bytes on the wire.
    PayloadTooLarge {
        /// Offending payload length.
        len: usize,
        /// The format's limit.
        max: usize,
    },
    /// TagOn attachments are exactly 1.5 or 2.5 cache lines.
    BadTagOnSize {
        /// Offending attachment length.
        len: usize,
    },
    /// Payload plus TagOn attachment exceed one Basic message.
    MessageTooLarge {
        /// Payload length.
        payload: usize,
        /// Attachment length.
        tagon: usize,
        /// Combined limit.
        max: usize,
    },
    /// The destination node does not exist in this machine.
    DestinationOutOfRange {
        /// Requested node.
        dest: u16,
        /// Number of nodes in the machine.
        nodes: u16,
    },
    /// A machine snapshot could not be taken or restored (see
    /// [`sv_sim::ckpt::SnapshotError`] for the specific failure).
    Snapshot(sv_sim::ckpt::SnapshotError),
    /// [`crate::Parallelism::Fixed`]`(0)` was requested; zero workers
    /// cannot run anything. Use [`crate::Parallelism::Sequential`] for a
    /// one-thread run.
    WorkerCountZero,
    /// More workers were requested than the finest shard partition (one
    /// shard per node) can occupy; the surplus could never run.
    WorkersExceedShards {
        /// Requested worker count.
        workers: usize,
        /// Maximum shard count for this machine.
        shards: usize,
    },
    /// [`crate::MachineBuilder::network_qos`] was given zero virtual
    /// channels; every packet needs a VC to ride.
    ZeroVirtualChannels,
    /// [`crate::MachineBuilder::network_qos`] was given zero credits per
    /// VC; a zero-slot buffer can never accept a packet, so the first
    /// multi-hop transmission would stall forever.
    ZeroCredits,
    /// A block-transfer chunk size was invalid: zero, not a multiple of
    /// 8, or too large for the Basic wire format (whose header length
    /// field covers `8 + chunk` bytes).
    BadChunkSize {
        /// Requested chunk size, bytes.
        chunk: usize,
        /// Largest representable chunk, bytes.
        max: usize,
    },
    /// [`crate::MachineBuilder::tenants`] was given zero tenants per
    /// node; an empty tenancy layer cannot schedule anything.
    TenantCountZero,
    /// [`crate::tenancy::TenancyParams::confined`] named a tenant that
    /// does not exist on the node.
    ConfinedTenantOutOfRange {
        /// The confined tenant index requested.
        tenant: u16,
        /// Tenants per node actually configured.
        tenants: u16,
    },
    /// The per-tenant translation-table slices do not fit in the 16-bit
    /// destination namespace at this node count.
    TenantNamespaceOverflow {
        /// Tenants per node requested.
        tenants: u16,
        /// Largest tenant count that fits for this machine size.
        capacity: u32,
    },
    /// [`crate::SystemParams`]'s `l1` or `l2` geometry has no sets (zero
    /// ways, or fewer lines than ways; see
    /// [`sv_membus::cache::CacheParams::validate`]).
    BadCacheGeometry {
        /// Cache level: 1 or 2.
        level: u8,
    },
}

impl From<sv_sim::ckpt::SnapshotError> for ApiError {
    fn from(e: sv_sim::ckpt::SnapshotError) -> Self {
        ApiError::Snapshot(e)
    }
}

impl core::fmt::Display for ApiError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            ApiError::PayloadTooLarge { len, max } => {
                write!(f, "Basic payload is at most {max} bytes (got {len})")
            }
            ApiError::BadTagOnSize { len } => write!(
                f,
                "TagOn attachments are 1.5 or 2.5 cache lines (48 or 80 bytes), got {len}"
            ),
            ApiError::MessageTooLarge {
                payload,
                tagon,
                max,
            } => write!(
                f,
                "payload ({payload}B) + TagOn ({tagon}B) exceed the {max}B Basic message"
            ),
            ApiError::DestinationOutOfRange { dest, nodes } => {
                write!(
                    f,
                    "destination node {dest} out of range (machine has {nodes})"
                )
            }
            ApiError::Snapshot(e) => write!(f, "snapshot: {e}"),
            ApiError::WorkerCountZero => {
                write!(
                    f,
                    "Parallelism::Fixed(0) is invalid; use Parallelism::Sequential"
                )
            }
            ApiError::WorkersExceedShards { workers, shards } => {
                write!(
                    f,
                    "{workers} workers exceed the finest shard partition ({shards} shards)"
                )
            }
            ApiError::ZeroVirtualChannels => {
                write!(f, "QosParams.vcs must be at least 1")
            }
            ApiError::ZeroCredits => {
                write!(
                    f,
                    "QosParams.credits_per_vc must be at least 1; a zero-slot \
                     buffer deadlocks the first multi-hop transmission"
                )
            }
            ApiError::BadChunkSize { chunk, max } => {
                write!(
                    f,
                    "block-transfer chunk must be a nonzero multiple of 8 \
                     at most {max} bytes (got {chunk})"
                )
            }
            ApiError::TenantCountZero => {
                write!(f, "TenancyParams.tenants_per_node must be at least 1")
            }
            ApiError::ConfinedTenantOutOfRange { tenant, tenants } => {
                write!(
                    f,
                    "confined tenant {tenant} out of range (node hosts {tenants})"
                )
            }
            ApiError::TenantNamespaceOverflow { tenants, capacity } => {
                write!(
                    f,
                    "{tenants} tenants/node overflow the 16-bit destination \
                     namespace (at most {capacity} fit at this node count)"
                )
            }
            ApiError::BadCacheGeometry { level } => {
                write!(
                    f,
                    "L{level} cache geometry has no sets: ways must be nonzero \
                     and at most size_bytes / 32"
                )
            }
        }
    }
}

impl std::error::Error for ApiError {}

/// One message for [`SendBasic`].
#[derive(Debug, Clone)]
pub struct BasicMsg {
    /// Destination (virtual unless RAW).
    pub dest: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Optional TagOn attachment (must be 48 or 80 bytes; written to the
    /// user scratch region first, then picked up by CTRL).
    pub tagon: Option<Vec<u8>>,
}

/// Hard wire-format limit of one Basic message (header excluded).
const BASIC_MAX: usize = 88;

impl BasicMsg {
    /// A plain message. Panics on an over-long payload; see
    /// [`BasicMsg::try_new`] for the checked form.
    pub fn new(dest: u16, payload: Vec<u8>) -> Self {
        Self::try_new(dest, payload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A plain message, rejecting payloads over 88 bytes.
    pub fn try_new(dest: u16, payload: Vec<u8>) -> Result<Self, ApiError> {
        if payload.len() > BASIC_MAX {
            return Err(ApiError::PayloadTooLarge {
                len: payload.len(),
                max: BASIC_MAX,
            });
        }
        Ok(BasicMsg {
            dest,
            payload,
            tagon: None,
        })
    }

    /// Attach TagOn data (48 or 80 bytes). Panics on a bad size; see
    /// [`BasicMsg::try_with_tagon`] for the checked form.
    pub fn with_tagon(self, tagon: Vec<u8>) -> Self {
        self.try_with_tagon(tagon).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Attach TagOn data, rejecting sizes other than 48/80 bytes and
    /// combinations that overflow the message.
    pub fn try_with_tagon(mut self, tagon: Vec<u8>) -> Result<Self, ApiError> {
        if tagon.len() != TAGON_SMALL as usize && tagon.len() != TAGON_LARGE as usize {
            return Err(ApiError::BadTagOnSize { len: tagon.len() });
        }
        if self.payload.len() + tagon.len() > BASIC_MAX {
            return Err(ApiError::MessageTooLarge {
                payload: self.payload.len(),
                tagon: tagon.len(),
                max: BASIC_MAX,
            });
        }
        self.tagon = Some(tagon);
        Ok(self)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SendState {
    Next,
    PollSpace,
    WriteTagon { off: u32 },
    WriteHeader,
    WritePayload { off: u32 },
    PtrUpdate,
}

/// One message as the send engine composes it.
pub(crate) struct Outgoing<'a> {
    /// Destination (virtual unless RAW).
    pub(crate) dest: u16,
    /// A first payload word stored whole, as one `U64` store (approach
    /// 1's destination address), ahead of `bytes`.
    pub(crate) word: Option<u64>,
    /// Payload bytes (after `word`).
    pub(crate) bytes: &'a [u8],
    /// TagOn attachment; empty for none.
    pub(crate) tagon: &'a [u8],
}

impl<'a> Outgoing<'a> {
    /// `msg` as it goes out: its payload, then its attachment.
    pub(crate) fn of(msg: &'a BasicMsg) -> Self {
        Outgoing {
            dest: msg.dest,
            word: None,
            bytes: &msg.payload,
            tagon: msg.tagon.as_deref().unwrap_or_default(),
        }
    }

    fn len(&self) -> u32 {
        (self.bytes.len() + self.word.map_or(0, |_| 8)) as u32
    }

    /// The payload store at `off`, if the payload reaches it: the
    /// leading word whole, then at most 8 bytes.
    fn chunk(&self, off: u32) -> Option<StoreData> {
        match self.word {
            Some(w) if off < 8 => Some(StoreData::U64(w)),
            Some(_) => chunk(self.bytes, off - 8),
            None => chunk(self.bytes, off),
        }
    }
}

/// The store of at most 8 bytes of `b` at `off`, if `off` is inside it.
fn chunk(b: &[u8], off: u32) -> Option<StoreData> {
    let at = off as usize;
    (at < b.len()).then(|| StoreData::Bytes(b[at..(at + 8).min(b.len())].to_vec()))
}

/// What the send engine asks of the CPU.
pub(crate) enum Tx {
    /// A step of the message in flight.
    Busy(Step),
    /// The producer-pointer store: it hands the slot to the NIU, and the
    /// message is sent.
    Launched(Step),
}

/// The send half of the Basic-queue protocol on one transmit queue, one
/// message at a time (see the module docs). Its state, producer and
/// consumer-shadow cursors are the checkpointed part of every sender.
#[derive(Debug)]
pub(crate) struct BasicTx {
    pub(crate) view: QueueView,
    pub(crate) state: SendState,
    pub(crate) producer: u16,
    pub(crate) consumer_seen: u16,
}

impl BasicTx {
    /// An engine resuming at `producer` on the queue `view`.
    pub(crate) fn resuming(view: QueueView, producer: u16) -> Self {
        // A queue that may have wrapped polls the consumer shadow before
        // its first compose (conservative: we do not know how much the
        // NIU has drained). A queue that has seen fewer than `entries`
        // messages in its lifetime can never be full — the consumer is
        // at least 0 — so no initial poll is needed; `saturating_sub`
        // encodes exactly that.
        BasicTx {
            view,
            state: SendState::Next,
            producer,
            consumer_seen: producer.saturating_sub(view.entries),
        }
    }

    fn full(&self) -> bool {
        self.producer.wrapping_sub(self.consumer_seen) >= self.view.entries
    }

    /// Wait for a free slot: `Some` shadow poll, or the gap after one
    /// that found the queue full; `None` once the next message (with a
    /// TagOn attachment if `tagon`) can be composed. [`BasicTx::step`]
    /// starts here; a caller with work between the check and the header
    /// (approach 1's DRAM reads) calls it first.
    pub(crate) fn room(&mut self, lib: &NodeLib, env: &Env<'_>, tagon: bool) -> Option<Step> {
        match self.state {
            SendState::Next if self.full() => {
                self.state = SendState::PollSpace;
                return Some(Step::Load {
                    addr: lib.asram(self.view.shadow_off),
                    bytes: 8,
                });
            }
            SendState::PollSpace => {
                self.consumer_seen = env.last_load as u16;
                if self.full() {
                    self.state = SendState::Next;
                    return Some(Step::Compute(POLL_GAP_NS));
                }
            }
            SendState::Next => {}
            _ => return None,
        }
        self.state = if tagon {
            SendState::WriteTagon { off: 0 }
        } else {
            SendState::WriteHeader
        };
        None
    }

    /// The next step of sending `msg`: the space check of
    /// [`BasicTx::room`], then the message's stores.
    pub(crate) fn step(&mut self, lib: &NodeLib, env: &Env<'_>, msg: &Outgoing<'_>) -> Tx {
        let store = |addr, data| Tx::Busy(Step::Store { addr, data });
        loop {
            match self.state {
                SendState::Next | SendState::PollSpace => {
                    if let Some(s) = self.room(lib, env, !msg.tagon.is_empty()) {
                        return Tx::Busy(s);
                    }
                }
                SendState::WriteTagon { off } => {
                    if let Some(data) = chunk(msg.tagon, off) {
                        self.state = SendState::WriteTagon { off: off + 8 };
                        return store(lib.asram(USER_SCRATCH + off), data);
                    }
                    self.state = SendState::WriteHeader;
                }
                SendState::WriteHeader => {
                    // At most 88 bytes: the callers validate their sizes.
                    let mut hdr = MsgHeader::basic(msg.dest, msg.len() as u8);
                    if !msg.tagon.is_empty() {
                        hdr = hdr.with_tagon(USER_SCRATCH, msg.tagon.len() as u8);
                    }
                    self.state = SendState::WritePayload { off: 0 };
                    let slot = self.view.slot_off(self.producer);
                    return store(lib.asram(slot), StoreData::Bytes(hdr.encode().to_vec()));
                }
                SendState::WritePayload { off } => {
                    if let Some(data) = msg.chunk(off) {
                        self.state = SendState::WritePayload { off: off + 8 };
                        let slot = self.view.slot_off(self.producer);
                        return store(lib.asram(slot + 8 + off), data);
                    }
                    self.state = SendState::PtrUpdate;
                }
                SendState::PtrUpdate => {
                    self.producer = self.producer.wrapping_add(1);
                    self.state = SendState::Next;
                    // All information rides in the address.
                    return Tx::Launched(Step::Store {
                        addr: lib.map.ptr_update_addr(false, self.view.q, self.producer),
                        data: StoreData::U64(0),
                    });
                }
            }
        }
    }
}

/// Send a sequence of Basic messages on the user transmit queue.
pub struct SendBasic {
    lib: NodeLib,
    items: std::collections::VecDeque<BasicMsg>,
    tx: BasicTx,
}

impl SendBasic {
    /// Send `items` in order.
    pub fn new(lib: &NodeLib, items: Vec<BasicMsg>) -> Self {
        Self::resuming(lib, items, 0)
    }

    /// Like [`SendBasic::new`], but resuming from an existing producer
    /// position — required when a long-lived application sends in phases,
    /// because the hardware queue's pointers persist across program
    /// objects.
    pub fn resuming(lib: &NodeLib, items: Vec<BasicMsg>, producer: u16) -> Self {
        SendBasic {
            lib: *lib,
            items: items.into(),
            tx: BasicTx::resuming(lib.basic_tx, producer),
        }
    }

    /// Convenience: one plain message to node `dest`'s user queue.
    /// Panics on a bad destination or payload; see
    /// [`SendBasic::try_to_node`] for the checked form.
    pub fn to_node(lib: &NodeLib, dest: u16, payload: Vec<u8>) -> Self {
        Self::try_to_node(lib, dest, payload).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked form of [`SendBasic::to_node`]: rejects destinations
    /// outside the machine and over-long payloads.
    pub fn try_to_node(lib: &NodeLib, dest: u16, payload: Vec<u8>) -> Result<Self, ApiError> {
        if dest >= lib.nodes {
            return Err(ApiError::DestinationOutOfRange {
                dest,
                nodes: lib.nodes,
            });
        }
        let d = lib.user_dest(dest);
        Ok(Self::new(lib, vec![BasicMsg::try_new(d, payload)?]))
    }
}

impl Program for SendBasic {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        let Some(msg) = self.items.front() else {
            return Step::Done;
        };
        match self.tx.step(&self.lib, env, &Outgoing::of(msg)) {
            Tx::Busy(s) => s,
            Tx::Launched(s) => {
                let msg = self.items.pop_front().expect("message");
                let bytes = (msg.payload.len() + msg.tagon.map_or(0, |t| t.len())) as u32;
                env.emit(AppEventKind::Sent {
                    q: self.tx.view.q,
                    dest: msg.dest,
                    bytes,
                });
                s
            }
        }
    }

    fn snapshot(&self) -> Option<ProgramSnapshot> {
        Some(ProgramSnapshot::record(0, |w| {
            w.save(&self.items);
            w.save(&self.tx.state);
            w.u16(self.tx.producer);
            w.u16(self.tx.consumer_seen);
        }))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RecvState {
    Poll,
    CheckPoll,
    ReadHeader,
    CheckHeader,
    ReadBody { off: u32 },
    PtrUpdate,
}

/// What the receive engine asks of its caller.
pub(crate) enum Rx {
    /// Issue this step.
    Busy(Step),
    /// The producer shadow showed no message: poll again after a gap of
    /// the caller's choosing.
    Empty,
    /// A whole message is in `buf`. The next step, once the caller is
    /// done with it, frees its slot.
    Message,
}

/// The receive half of the Basic-queue protocol on the user receive
/// queue (see the module docs). Its state, cursors and the message read
/// so far are the checkpointed part of every receiver.
#[derive(Debug)]
pub(crate) struct BasicRx {
    pub(crate) state: RecvState,
    consumer: u16,
    producer_seen: u16,
    /// Source of the message being read.
    src: u16,
    /// Its length: the rx slot's one-byte field.
    len: u32,
    /// Its body, as far as it has been read.
    pub(crate) buf: Vec<u8>,
}

impl BasicRx {
    /// An engine resuming at `consumer`.
    pub(crate) fn resuming(consumer: u16) -> Self {
        BasicRx {
            state: RecvState::Poll,
            consumer,
            producer_seen: consumer,
            src: 0,
            len: 0,
            buf: Vec::new(),
        }
    }

    /// The next step of receiving on `lib`'s user queue.
    pub(crate) fn step(&mut self, lib: &NodeLib, env: &Env<'_>) -> Rx {
        let view = lib.basic_rx;
        let load = |off| {
            Rx::Busy(Step::Load {
                addr: lib.asram(off),
                bytes: 8,
            })
        };
        loop {
            match self.state {
                RecvState::Poll if self.consumer == self.producer_seen => {
                    self.state = RecvState::CheckPoll;
                    return load(view.shadow_off);
                }
                RecvState::CheckPoll => {
                    self.producer_seen = env.last_load as u16;
                    if self.consumer == self.producer_seen {
                        self.state = RecvState::Poll;
                        return Rx::Empty;
                    }
                    self.state = RecvState::ReadHeader;
                }
                RecvState::Poll | RecvState::ReadHeader => {
                    self.state = RecvState::CheckHeader;
                    return load(view.slot_off(self.consumer));
                }
                RecvState::CheckHeader => {
                    let (src, _lq, len) = decode_rx_slot(&env.last_load.to_le_bytes());
                    (self.src, self.len) = (src, u32::from(len));
                    self.buf.clear();
                    self.state = RecvState::ReadBody { off: 0 };
                }
                RecvState::ReadBody { off } => {
                    if off > 0 {
                        // Collect the previous load's bytes.
                        let take = (self.len - (off - 8)).min(8) as usize;
                        self.buf
                            .extend_from_slice(&env.last_load.to_le_bytes()[..take]);
                    }
                    if off < self.len {
                        self.state = RecvState::ReadBody { off: off + 8 };
                        return load(view.slot_off(self.consumer) + 8 + off);
                    }
                    self.state = RecvState::PtrUpdate;
                    return Rx::Message;
                }
                RecvState::PtrUpdate => {
                    self.consumer = self.consumer.wrapping_add(1);
                    self.state = RecvState::Poll;
                    return Rx::Busy(Step::Store {
                        addr: lib.map.ptr_update_addr(true, view.q, self.consumer),
                        data: StoreData::U64(0),
                    });
                }
            }
        }
    }

    /// Checkpoint the engine; the message source only `with_src`.
    fn save(&self, w: &mut SnapWriter, with_src: bool) {
        w.save(&self.state);
        w.u16(self.consumer);
        w.u16(self.producer_seen);
        if with_src {
            w.u16(self.src);
        }
        w.u32(self.len);
        w.save(&self.buf);
    }

    /// Decode an engine written by [`BasicRx::save`].
    fn load(r: &mut SnapReader<'_>, with_src: bool) -> Result<Self, SnapshotError> {
        Ok(BasicRx {
            state: r.load()?,
            consumer: r.u16()?,
            producer_seen: r.u16()?,
            src: if with_src { r.u16()? } else { 0 },
            len: r.u32()?,
            buf: r.load()?,
        })
    }

    /// Whether a restored engine can step: `len` only ever holds the rx
    /// slot's one-byte length, and `ReadBody` computes `len - (off - 8)`
    /// and `off + 8`.
    fn valid(&self) -> bool {
        let body_ok = match self.state {
            RecvState::ReadBody { off } => off == 0 || (off >= 8 && off - 8 <= self.len),
            _ => true,
        };
        self.len <= u32::from(u8::MAX) && body_ok
    }
}

/// Receive `expect` Basic messages from the user receive queue,
/// recording [`AppEventKind::Received`] (and `NotifyReceived` for
/// transfer-notification payloads).
pub struct RecvBasic {
    lib: NodeLib,
    expect: usize,
    got: usize,
    rx: BasicRx,
}

impl RecvBasic {
    /// Expect `expect` messages, then finish.
    pub fn expecting(lib: &NodeLib, expect: usize) -> Self {
        Self::resuming(lib, expect, 0)
    }

    /// Like [`RecvBasic::expecting`], but resuming from an existing
    /// consumer position. Long-lived applications that receive in phases
    /// must carry the queue cursor across phases — the hardware queue's
    /// pointers persist even though the program object does not.
    pub fn resuming(lib: &NodeLib, expect: usize, consumer: u16) -> Self {
        RecvBasic {
            lib: *lib,
            expect,
            got: 0,
            rx: BasicRx::resuming(consumer),
        }
    }
}

impl Program for RecvBasic {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        loop {
            if self.rx.state == RecvState::Poll && self.got >= self.expect {
                return Step::Done;
            }
            match self.rx.step(&self.lib, env) {
                Rx::Busy(s) => return s,
                Rx::Empty => return Step::Compute(POLL_GAP_NS),
                Rx::Message => {
                    let data = Bytes::from(std::mem::take(&mut self.rx.buf));
                    if let Some(xid) = proto::decode_notify(&data) {
                        env.emit(AppEventKind::NotifyReceived { xfer_id: xid });
                    }
                    env.emit(AppEventKind::Received {
                        q: self.lib.basic_rx.q,
                        src: self.rx.src,
                        data,
                    });
                    self.got += 1;
                }
            }
        }
    }

    fn snapshot(&self) -> Option<ProgramSnapshot> {
        Some(ProgramSnapshot::record(1, |w| {
            w.usize_(self.expect);
            w.usize_(self.got);
            self.rx.save(w, true);
        }))
    }
}

/// Send Express messages: one uncached store each.
pub struct SendExpress {
    lib: NodeLib,
    items: std::collections::VecDeque<(u16, u8, u32)>,
}

impl SendExpress {
    /// Send `(virtual dest, tag, word)` triples.
    pub fn new(lib: &NodeLib, items: Vec<(u16, u8, u32)>) -> Self {
        SendExpress {
            lib: *lib,
            items: items.into(),
        }
    }
}

impl Program for SendExpress {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        let Some((dest, tag, word)) = self.items.pop_front() else {
            return Step::Done;
        };
        env.emit(AppEventKind::Sent {
            q: self.lib.express_tx_q,
            dest,
            bytes: 5,
        });
        Step::Store {
            addr: self
                .lib
                .map
                .express_tx_addr(self.lib.express_tx_q, dest, tag),
            data: StoreData::Bytes(word.to_le_bytes().to_vec()),
        }
    }

    fn snapshot(&self) -> Option<ProgramSnapshot> {
        Some(ProgramSnapshot::record(2, |w| w.save(&self.items)))
    }
}

/// The Express receive poll every Express receiver shares: one uncached
/// load of the receive queue, whose result arrives at the next step
/// (the canonical-empty convention marks an empty queue).
#[derive(Debug, Default)]
pub(crate) struct ExpressPoll {
    /// A poll is outstanding: `env.last_load` holds its result.
    pub(crate) primed: bool,
}

impl ExpressPoll {
    /// The outstanding poll's `(src, tag, word)`, if any; `Err` holds
    /// the gap to wait after a poll that found the queue empty.
    pub(crate) fn take(&mut self, env: &Env<'_>) -> Result<Option<(u16, u8, [u8; 4])>, Step> {
        if !std::mem::take(&mut self.primed) {
            return Ok(None);
        }
        express::unpack_rx(env.last_load)
            .map(Some)
            .ok_or(Step::Compute(POLL_GAP_NS))
    }

    /// Issue a poll of `lib`'s Express receive queue.
    pub(crate) fn issue(&mut self, lib: &NodeLib) -> Step {
        self.primed = true;
        Step::Load {
            addr: lib.map.express_rx_addr(lib.express_rx_q),
            bytes: 8,
        }
    }
}

/// Receive `expect` Express messages: one uncached load each (polling
/// with the canonical-empty convention).
pub struct RecvExpress {
    lib: NodeLib,
    expect: usize,
    got: usize,
    poll: ExpressPoll,
}

impl RecvExpress {
    /// Expect `expect` Express messages.
    pub fn expecting(lib: &NodeLib, expect: usize) -> Self {
        RecvExpress {
            lib: *lib,
            expect,
            got: 0,
            poll: ExpressPoll::default(),
        }
    }
}

impl Program for RecvExpress {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        match self.poll.take(env) {
            Err(gap) => return gap,
            Ok(Some((src, tag, word))) => {
                env.emit(AppEventKind::ExpressReceived { src, tag, word });
                self.got += 1;
            }
            Ok(None) => {}
        }
        if self.got >= self.expect {
            return Step::Done;
        }
        self.poll.issue(&self.lib)
    }

    fn snapshot(&self) -> Option<ProgramSnapshot> {
        // A primed receiver is waiting on an in-flight load; the restored
        // machine replays that load because the pending CPU operation is
        // checkpointed alongside the program.
        Some(ProgramSnapshot::record(3, |w| {
            w.usize_(self.expect);
            w.usize_(self.got);
            w.save(&self.poll.primed);
        }))
    }
}

/// Issue a block-transfer request to the local sP (the DMA mechanism):
/// a single Basic message into the local service queue.
pub fn request_transfer(lib: &NodeLib, req: &XferReq) -> SendBasic {
    let dest = lib.svc_dest(lib.node);
    SendBasic::new(lib, vec![BasicMsg::new(dest, req.encode().to_vec())])
}

/// Issue a tracked-region flush request (the diff-ing extension): ship
/// only the clsSRAM-recorded dirty lines of a write-tracked region.
pub fn request_flush(lib: &NodeLib, req: &sv_firmware::proto::XferFlush) -> SendBasic {
    let dest = lib.svc_dest(lib.node);
    SendBasic::new(lib, vec![BasicMsg::new(dest, req.encode().to_vec())])
}

/// One NIC-resident collective operation (see [`sv_firmware::coll`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollReq {
    /// Which collective.
    pub kind: proto::CollKind,
    /// Reduction operator (ignored by barrier/broadcast).
    pub op: proto::CollOp,
    /// Root node (must be 0 for barrier/all-reduce, whose result is
    /// symmetric).
    pub root: u16,
    /// This node's contribution (the payload for a broadcast root).
    pub value: u64,
}

impl CollReq {
    /// All nodes rendezvous; every node's result is 0.
    pub fn barrier() -> Self {
        CollReq {
            kind: proto::CollKind::Barrier,
            op: proto::CollOp::Sum,
            root: 0,
            value: 0,
        }
    }

    /// `root`'s `value` delivered to every node.
    pub fn broadcast(root: u16, value: u64) -> Self {
        CollReq {
            kind: proto::CollKind::Bcast,
            op: proto::CollOp::Sum,
            root,
            value,
        }
    }

    /// Reduction of every node's contribution, delivered to `root` only
    /// (other nodes complete with result 0).
    pub fn reduce(op: proto::CollOp, root: u16, value: u64) -> Self {
        CollReq {
            kind: proto::CollKind::Reduce,
            op,
            root,
            value,
        }
    }

    /// Reduction of every node's contribution, delivered to every node.
    pub fn allreduce(op: proto::CollOp, value: u64) -> Self {
        CollReq {
            kind: proto::CollKind::AllReduce,
            op,
            root: 0,
            value,
        }
    }

    /// The result label [`CollWait`] emits for this collective.
    pub fn label(&self) -> &'static str {
        coll_label(self.kind as u8)
    }
}

fn coll_label(kind: u8) -> &'static str {
    match kind {
        0 => "coll_barrier",
        1 => "coll_broadcast",
        2 => "coll_reduce",
        _ => "coll_allreduce",
    }
}

/// Wait for a firmware COLL_RESULT on the user Basic receive queue and
/// emit it as [`AppEventKind::Result`]. The aP side of a NIC-resident
/// collective is exactly this: the start was one store-composed Basic
/// message ([`NodeLib::coll_program`]), and completion is this polling
/// loop — the aP touches no intermediate data.
pub struct CollWait {
    lib: NodeLib,
    /// Expected [`proto::CollKind`] as its wire byte.
    kind: u8,
    rx: BasicRx,
    done: bool,
    /// Consecutive empty shadow polls; drives the poll backoff.
    idle_polls: u32,
}

/// Widest [`CollWait`] poll gap: the collective runs sP-to-sP for
/// microseconds, so the waiting aP backs off its uncached shadow polls
/// exponentially (30 → 240 ns) instead of hammering the bus — the point
/// of the offload is that the aP has better things to do. Bounded so
/// completion is still noticed promptly.
const COLL_POLL_GAP_MAX_NS: u64 = 240;

impl CollWait {
    /// Wait for a `kind` result, consuming the receive queue from
    /// `consumer` (the queue cursor persists across program objects;
    /// each collective consumes exactly one slot).
    pub fn resuming(lib: &NodeLib, kind: proto::CollKind, consumer: u16) -> Self {
        CollWait {
            lib: *lib,
            kind: kind as u8,
            rx: BasicRx::resuming(consumer),
            done: false,
            idle_polls: 0,
        }
    }
}

impl Program for CollWait {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        loop {
            if self.rx.state == RecvState::Poll && self.done {
                return Step::Done;
            }
            let polled = self.rx.state == RecvState::CheckPoll;
            match self.rx.step(&self.lib, env) {
                Rx::Busy(s) => {
                    if polled {
                        // The poll found a message.
                        self.idle_polls = 0;
                    }
                    return s;
                }
                Rx::Empty => {
                    let gap = (POLL_GAP_NS << self.idle_polls.min(3)).min(COLL_POLL_GAP_MAX_NS);
                    self.idle_polls = self.idle_polls.saturating_add(1);
                    return Step::Compute(gap);
                }
                Rx::Message => {
                    // A result of the expected kind finishes the wait;
                    // anything else in the queue is consumed and skipped
                    // (the queue is dedicated to collective results for
                    // the duration of a collective program).
                    if let Some((kind, _seq, value)) = proto::decode_coll_result(&self.rx.buf) {
                        if kind as u8 == self.kind {
                            env.emit(AppEventKind::Result {
                                label: coll_label(self.kind),
                                value,
                            });
                            self.done = true;
                        }
                    }
                    self.rx.buf.clear();
                }
            }
        }
    }

    fn snapshot(&self) -> Option<ProgramSnapshot> {
        Some(ProgramSnapshot::record(8, |w| {
            w.u8(self.kind);
            self.rx.save(w, false);
            w.save(&self.done);
            w.u32(self.idle_polls);
        }))
    }
}

impl NodeLib {
    /// Run `reqs` as NIC-resident collectives, in order. Each collective
    /// is one Basic message into the local sP service queue
    /// (COLL_START) followed by a [`CollWait`] for its COLL_RESULT; the
    /// firmware sequences the whole fan-in/fan-out tree. Every
    /// participating node must issue the same collectives in the same
    /// order (the usual communicator contract), and the user Basic
    /// queues are dedicated to the collective program while it runs
    /// (each collective advances both queue cursors by exactly one).
    pub fn coll_program(&self, reqs: Vec<CollReq>) -> crate::app::Seq {
        let mut parts: Vec<Box<dyn Program>> = Vec::with_capacity(reqs.len() * 2);
        for (i, req) in reqs.iter().enumerate() {
            let start = proto::CollStart {
                kind: req.kind,
                op: req.op,
                root: req.root,
                notify_lq: self.basic_rx.q as u16,
                value: req.value,
            };
            parts.push(Box::new(SendBasic::resuming(
                self,
                vec![BasicMsg::new(
                    self.svc_dest(self.node),
                    start.encode().to_vec(),
                )],
                i as u16,
            )));
            parts.push(Box::new(CollWait::resuming(self, req.kind, i as u16)));
        }
        crate::app::Seq::new(parts)
    }

    /// One firmware barrier (see [`CollReq::barrier`]).
    pub fn coll_barrier(&self) -> crate::app::Seq {
        self.coll_program(vec![CollReq::barrier()])
    }

    /// One firmware broadcast (see [`CollReq::broadcast`]).
    pub fn coll_broadcast(&self, root: u16, value: u64) -> crate::app::Seq {
        self.coll_program(vec![CollReq::broadcast(root, value)])
    }

    /// One firmware reduce (see [`CollReq::reduce`]).
    pub fn coll_reduce(&self, op: proto::CollOp, root: u16, value: u64) -> crate::app::Seq {
        self.coll_program(vec![CollReq::reduce(op, root, value)])
    }

    /// One firmware all-reduce (see [`CollReq::allreduce`]).
    pub fn coll_allreduce(&self, op: proto::CollOp, value: u64) -> crate::app::Seq {
        self.coll_program(vec![CollReq::allreduce(op, value)])
    }
}

/// Read a memory region through the caches (one load per cache line),
/// emitting [`AppEventKind::RegionDone`] when finished. Under S-COMA
/// gating this stalls on lines that have not arrived — the measured
/// "time to use" of optimistic transfers.
pub struct ReadRegion {
    addr: u64,
    len: u32,
    off: u32,
}

impl ReadRegion {
    /// Read `[addr, addr+len)`.
    pub fn new(addr: u64, len: u32) -> Self {
        ReadRegion { addr, len, off: 0 }
    }
}

impl Program for ReadRegion {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        if self.off < self.len {
            let a = self.addr + self.off as u64;
            // Saturating: a walk that would step past `u32::MAX` ends
            // there instead of overflowing.
            self.off = self.off.saturating_add(32);
            return Step::Load { addr: a, bytes: 8 };
        }
        env.emit(AppEventKind::RegionDone {
            addr: self.addr,
            len: self.len,
        });
        Step::Done
    }

    fn snapshot(&self) -> Option<ProgramSnapshot> {
        Some(ProgramSnapshot::record(4, |w| w.save(self)))
    }
}

/// Write a pattern to a memory region through the caches (8 bytes per
/// store), emitting [`AppEventKind::RegionDone`] when finished.
pub struct WriteRegion {
    addr: u64,
    data: Vec<u8>,
    off: usize,
}

impl WriteRegion {
    /// Write `data` at `addr` (length must be a multiple of 8).
    pub fn new(addr: u64, data: Vec<u8>) -> Self {
        assert_eq!(data.len() % 8, 0);
        WriteRegion { addr, data, off: 0 }
    }
}

impl Program for WriteRegion {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        if self.off < self.data.len() {
            let chunk = self.data[self.off..self.off + 8].to_vec();
            let a = self.addr + self.off as u64;
            self.off += 8;
            return Step::Store {
                addr: a,
                data: StoreData::Bytes(chunk),
            };
        }
        env.emit(AppEventKind::RegionDone {
            addr: self.addr,
            len: self.data.len() as u32,
        });
        Step::Done
    }

    fn snapshot(&self) -> Option<ProgramSnapshot> {
        Some(ProgramSnapshot::record(5, |w| w.save(self)))
    }
}

use crate::app::{Delay, Seq};
use crate::tenancy::TenantScheduler;
use std::collections::VecDeque;
use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError, StateLoad, StateSave};

/// A checkpointed program: the record a layer-0 library program (or a
/// composition of them) writes from its own fields in
/// [`Program::snapshot`] — a tag naming the program kind, then its
/// execution state, detached from its [`NodeLib`].
///
/// The machine checkpoint copies the record as written, and
/// [`crate::MachineBuilder::restore`] decodes it straight into a program
/// on the restored node's library handle. The contents are opaque.
#[derive(Debug, Clone)]
pub struct ProgramSnapshot(Vec<u8>);

impl ProgramSnapshot {
    /// The record of one program: `tag`, then the fields `save` writes.
    pub(crate) fn record(tag: u8, save: impl FnOnce(&mut SnapWriter)) -> Self {
        let mut w = SnapWriter::new();
        w.u8(tag);
        save(&mut w);
        ProgramSnapshot(w.finish())
    }
}

impl StateSave for ProgramSnapshot {
    fn save(&self, w: &mut SnapWriter) {
        w.raw(&self.0);
    }
}

/// Nested [`Seq`] records, and tenant child bodies, deeper than this are
/// rejected as corrupt: decoding recurses, and a forged snapshot must not
/// be able to drive the decoder's stack arbitrarily deep.
pub(crate) const MAX_SEQ_DEPTH: u32 = 64;

/// Decode one program record, written by [`Program::snapshot`], and
/// build the program on `lib` (the restored machine's library handle for
/// the same node). `depth` is the record's nesting depth: 0 for a node's
/// program, one more for each enclosing `Seq` or tenant scheduler. Each
/// kind's checks refuse, as [`SnapshotError::Corrupt`], states its steps
/// would index or overflow on.
pub(crate) fn load_program(
    r: &mut SnapReader<'_>,
    lib: &NodeLib,
    depth: u32,
) -> Result<Box<dyn Program>, SnapshotError> {
    let at = r.offset();
    let corrupt = SnapshotError::Corrupt { offset: at };
    Ok(match r.u8()? {
        0 => {
            let items: VecDeque<BasicMsg> = r.load()?;
            let state = r.load()?;
            // The send loop indexes the front message (and its TagOn
            // attachment) in every state but `Next`: a live sender polls
            // for space only with a message queued.
            let front_ok = match state {
                SendState::Next => true,
                SendState::WriteTagon { .. } => items.front().is_some_and(|m| m.tagon.is_some()),
                SendState::PollSpace
                | SendState::WriteHeader
                | SendState::WritePayload { .. }
                | SendState::PtrUpdate => !items.is_empty(),
            };
            if !front_ok {
                return Err(corrupt);
            }
            let tx = BasicTx {
                view: lib.basic_tx,
                state,
                producer: r.u16()?,
                consumer_seen: r.u16()?,
            };
            Box::new(SendBasic {
                lib: *lib,
                items,
                tx,
            })
        }
        1 => {
            let (expect, got) = (r.usize_()?, r.usize_()?);
            let rx = BasicRx::load(r, true)?;
            // `got` reaches `expect` only on the step into `PtrUpdate`;
            // every other state still counts a message, `got += 1`.
            let count_ok = match rx.state {
                RecvState::Poll | RecvState::PtrUpdate => got <= expect,
                _ => got < expect,
            };
            if !rx.valid() || !count_ok {
                return Err(corrupt);
            }
            Box::new(RecvBasic {
                lib: *lib,
                expect,
                got,
                rx,
            })
        }
        2 => Box::new(SendExpress {
            lib: *lib,
            items: r.load()?,
        }),
        3 => {
            let p = RecvExpress {
                lib: *lib,
                expect: r.usize_()?,
                got: r.usize_()?,
                poll: ExpressPoll { primed: r.load()? },
            };
            // A primed receiver still counts the message its load returns.
            if p.got > p.expect || (p.poll.primed && p.got == p.expect) {
                return Err(corrupt);
            }
            Box::new(p)
        }
        4 => Box::new(r.load::<ReadRegion>()?),
        5 => Box::new(r.load::<WriteRegion>()?),
        6 => {
            if depth >= MAX_SEQ_DEPTH {
                return Err(corrupt);
            }
            let n = r.count()?;
            let parts = (0..n).map(|_| load_program(r, lib, depth + 1));
            Box::new(Seq::new(parts.collect::<Result<_, _>>()?))
        }
        7 => Box::new(r.load::<Delay>()?),
        8 => {
            let p = CollWait {
                lib: *lib,
                kind: r.u8()?,
                rx: BasicRx::load(r, false)?,
                done: r.load()?,
                idle_polls: r.u32()?,
            };
            // The kind byte indexes the result-label table.
            if p.kind > 3 || !p.rx.valid() {
                return Err(corrupt);
            }
            Box::new(p)
        }
        9 => Box::new(TenantScheduler::load(r, lib, depth)?),
        _ => return Err(corrupt),
    })
}

sv_sim::checkpointed! {
    struct ReadRegion {
        addr,
        len,
        off,
    }
    // The region walk computes `addr + off`.
    validate: |p: &ReadRegion| p.addr.checked_add(u64::from(p.len)).is_some()
}

sv_sim::checkpointed! {
    struct WriteRegion {
        addr,
        data,
        off,
    }
    // The write loop slices `data[off..off + 8]` and computes `addr + off`.
    validate: |p: &WriteRegion| {
        p.data.len().is_multiple_of(8)
            && p.off.is_multiple_of(8)
            && p.off <= p.data.len()
            && p.addr.checked_add(p.data.len() as u64).is_some()
    }
}

impl StateSave for BasicMsg {
    fn save(&self, w: &mut SnapWriter) {
        w.u16(self.dest);
        w.save(&self.payload);
        w.save(&self.tagon);
    }
}
impl StateLoad for BasicMsg {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let at = r.offset();
        let dest = r.u16()?;
        let payload: Vec<u8> = r.load()?;
        let tagon: Option<Vec<u8>> = r.load()?;
        // Re-check the `try_new`/`try_with_tagon` invariants: a forged
        // message must not smuggle sizes past the wire-format limits.
        let mut m =
            BasicMsg::try_new(dest, payload).map_err(|_| SnapshotError::Corrupt { offset: at })?;
        if let Some(t) = tagon {
            m = m
                .try_with_tagon(t)
                .map_err(|_| SnapshotError::Corrupt { offset: at })?;
        }
        Ok(m)
    }
}

sv_sim::checkpointed! {
    enum SendState {
        0 => Next,
        1 => PollSpace,
        2 => WriteTagon { off },
        3 => WriteHeader,
        4 => WritePayload { off },
        5 => PtrUpdate,
    }
}

sv_sim::checkpointed! {
    enum RecvState {
        0 => Poll,
        1 => CheckPoll,
        2 => ReadHeader,
        3 => CheckHeader,
        4 => ReadBody { off },
        5 => PtrUpdate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    /// Decode a hand-built program record as node 0's program.
    fn decode(record: SnapWriter) -> Result<Box<dyn Program>, SnapshotError> {
        let lib = Machine::builder(2).build().lib(0);
        let bytes = record.finish();
        let mut r = SnapReader::new(&bytes);
        let p = load_program(&mut r, &lib, 0)?;
        r.finish()?;
        Ok(p)
    }

    fn step(p: &mut dyn Program) -> Step {
        step_with(p, 0)
    }

    /// Step `p` with `last_load` as the previous load's result.
    fn step_with(p: &mut dyn Program, last_load: u64) -> Step {
        let mut events = Vec::new();
        p.step(&mut Env {
            now: sv_sim::Time::ZERO,
            node: 0,
            last_load,
            events: &mut events,
        })
    }

    #[test]
    fn a_full_queue_is_polled_with_gaps_until_the_consumer_moves() {
        // A sender resumed one full wrap in polls the consumer shadow;
        // while the shadow shows the queue full it waits a poll gap and
        // polls again, and once it shows a free slot it composes.
        let lib = Machine::builder(2).build().lib(0);
        let tx = lib.basic_tx;
        let mut p = SendBasic::resuming(&lib, vec![BasicMsg::new(5, vec![7; 9])], tx.entries);
        let poll = Step::Load {
            addr: lib.asram(tx.shadow_off),
            bytes: 8,
        };
        let slot = lib.asram(tx.slot_off(tx.entries));
        let store = |addr, data| Step::Store { addr, data };
        let got: Vec<Step> = [0, 0, 0, 1, 0, 0, 0, 0]
            .into_iter()
            .map(|consumer| step_with(&mut p, consumer))
            .collect();
        let hdr = MsgHeader::basic(5, 9).encode().to_vec();
        let ptr = lib.map.ptr_update_addr(false, tx.q, tx.entries + 1);
        assert_eq!(
            got,
            [
                poll.clone(),
                Step::Compute(POLL_GAP_NS),
                poll,
                store(slot, StoreData::Bytes(hdr)),
                store(slot + 8, StoreData::Bytes(vec![7; 8])),
                store(slot + 16, StoreData::Bytes(vec![7])),
                store(ptr, StoreData::U64(0)),
                Step::Done,
            ]
        );
    }

    #[test]
    fn a_region_walk_ending_past_u32_max_finishes() {
        // Regression: the walk's `off += 32` overflowed after the last
        // load of a region ending within 32 bytes of `u32::MAX`.
        let mut w = SnapWriter::new();
        w.u8(4);
        w.u64(0);
        w.u32(u32::MAX);
        w.u32(u32::MAX - 1);
        let mut p = decode(w).expect("a valid walk");
        let addr = u64::from(u32::MAX - 1);
        assert_eq!(step(&mut *p), Step::Load { addr, bytes: 8 });
        assert_eq!(step(&mut *p), Step::Done);
    }

    /// A `RecvBasic` record expecting one message, in `state`.
    fn recv_basic(state: RecvState, cur_len: u32) -> Result<(), SnapshotError> {
        recv_basic_counting(1, 0, state, cur_len)
    }

    /// A `RecvBasic` record that has received `got` of `expect` messages.
    fn recv_basic_counting(
        expect: usize,
        got: usize,
        state: RecvState,
        cur_len: u32,
    ) -> Result<(), SnapshotError> {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.usize_(expect);
        w.usize_(got);
        w.save(&state);
        w.raw(&[0; 6]); // consumer, producer_seen, cur_src
        w.u32(cur_len);
        w.save(&Vec::<u8>::new());
        decode(w).map(drop)
    }

    /// A barrier `CollWait` record in `state`.
    fn coll_wait(state: RecvState, cur_len: u32) -> Result<(), SnapshotError> {
        let mut w = SnapWriter::new();
        w.u8(8);
        w.u8(0); // kind
        w.save(&state);
        w.raw(&[0; 4]); // consumer, producer_seen
        w.u32(cur_len);
        w.save(&Vec::<u8>::new());
        w.save(&false); // done
        w.u32(0); // idle_polls
        decode(w).map(drop)
    }

    #[test]
    fn a_receive_length_past_one_byte_is_corrupt() {
        // Regression: `cur_len` only ever holds the rx slot's one-byte
        // length, yet a restored `u32::MAX` passed the `ReadBody` check
        // at `off: u32::MAX - 3` and overflowed at `off + 8`.
        for record in [recv_basic, coll_wait] {
            assert_eq!(record(RecvState::ReadBody { off: 16 }, 255), Ok(()));
            for (state, cur_len) in [
                (RecvState::ReadBody { off: u32::MAX - 3 }, u32::MAX),
                (RecvState::Poll, 256),
            ] {
                assert!(
                    matches!(record(state, cur_len), Err(SnapshotError::Corrupt { .. })),
                    "{state:?} with cur_len {cur_len} accepted"
                );
            }
        }
    }

    #[test]
    fn a_sender_polling_for_space_without_a_message_is_corrupt() {
        // Regression: `PollSpace` with no queued message was accepted, and
        // its step panicked on the missing front message once the shadow
        // showed space. A live sender polls only with a message queued.
        let send_basic = |items: Vec<BasicMsg>| {
            let mut w = SnapWriter::new();
            w.u8(0);
            w.save(&VecDeque::from(items));
            w.save(&SendState::PollSpace);
            w.u16(1); // producer
            w.u16(0); // consumer_seen
            decode(w)
        };
        assert!(matches!(
            send_basic(vec![]),
            Err(SnapshotError::Corrupt { .. })
        ));
        let mut p = send_basic(vec![BasicMsg::new(0, vec![7; 8])]).expect("a queued message");
        // The shadow reads consumer 0 behind producer 1: there is space,
        // and the step writes the message's header.
        assert!(matches!(step(&mut *p), Step::Store { .. }));
    }

    #[test]
    fn a_receiver_whose_count_is_met_mid_message_is_corrupt() {
        // Regression: a restored receiver with `got == expect ==
        // usize::MAX`, in a state that still counts a message, overflowed
        // on `got += 1`. No live receiver reaches those states, nor one
        // with `got` past `expect`.
        let max = usize::MAX;
        let corrupt = |got| matches!(got, Err(SnapshotError::Corrupt { .. }));
        for state in [RecvState::Poll, RecvState::PtrUpdate] {
            assert_eq!(recv_basic_counting(max, max, state, 0), Ok(()));
        }
        for (expect, got, state) in [
            (max, max, RecvState::ReadBody { off: 0 }),
            (max, max, RecvState::CheckPoll),
            (1, 2, RecvState::Poll),
        ] {
            assert!(
                corrupt(recv_basic_counting(expect, got, state, 0)),
                "RecvBasic {got} of {expect} in {state:?} accepted"
            );
        }
        let recv_express = |expect: usize, got: usize, primed: bool| {
            let mut w = SnapWriter::new();
            w.u8(3);
            w.usize_(expect);
            w.usize_(got);
            w.save(&primed);
            decode(w).map(drop)
        };
        assert_eq!(recv_express(max, max, false), Ok(()));
        assert_eq!(recv_express(max, max - 1, true), Ok(()));
        assert!(corrupt(recv_express(max, max, true)), "primed at its count");
        assert!(corrupt(recv_express(1, 2, false)), "past its count");
    }

    #[test]
    fn resuming_below_queue_depth_needs_no_initial_poll() {
        // Regression: `wrapping_sub` made `producer - consumer_seen`
        // equal the queue depth for every producer in 1..entries, so a
        // phased send always began with a pointless shadow poll. A queue
        // that has carried fewer than `entries` messages can never be
        // full (the consumer cannot run backwards from 0).
        let m = Machine::builder(2).build();
        let lib = m.lib(0);
        let entries = lib.basic_tx.entries;
        for producer in [1, 2, entries / 2, entries - 1] {
            let s = SendBasic::resuming(&lib, vec![], producer);
            assert!(
                s.tx.producer.wrapping_sub(s.tx.consumer_seen) < entries,
                "producer {producer} must not force a poll"
            );
        }
        // At or past one full wrap the consumer really is unknown: the
        // conservative poll must stay.
        for producer in [entries, entries + 1, entries * 3] {
            let s = SendBasic::resuming(&lib, vec![], producer);
            assert!(
                s.tx.producer.wrapping_sub(s.tx.consumer_seen) >= entries,
                "producer {producer} must poll the shadow first"
            );
        }
    }

    #[test]
    fn api_error_display_is_stable() {
        assert_eq!(
            ApiError::PayloadTooLarge { len: 90, max: 88 }.to_string(),
            "Basic payload is at most 88 bytes (got 90)"
        );
        assert_eq!(
            ApiError::DestinationOutOfRange { dest: 9, nodes: 4 }.to_string(),
            "destination node 9 out of range (machine has 4)"
        );
    }
}
