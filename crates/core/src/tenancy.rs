//! Multi-tenant serving: per-node tenant namespaces and a deterministic
//! per-node job scheduler.
//!
//! The tenancy subsystem carves two protected namespaces per node so
//! that hundreds of tenant programs can share one aP + NIU without being
//! able to name each other's resources:
//!
//! - **Logical receive queues.** Tenant `t` owns exactly one logical rx
//!   queue per node, `TENANT_LQ_BASE + t`. The 16 hardware rx slots
//!   cache these hundreds of logical queues: slots
//!   [`TENANT_SLOT_LO`]`..=`[`TENANT_SLOT_HI`] are managed as an LRU
//!   cache by the sP firmware ([`sv_firmware::engine::FwTenant`]), and
//!   messages whose logical queue is not resident take the miss-queue
//!   path — the scaling phenomenon the S10 study measures.
//! - **Translation-table slices.** Tenant `t`'s virtual destinations
//!   live in `[xlate_base + t * slice, +slice)`; entry `d` of a slice
//!   targets node `d`'s copy of the *same tenant's* logical queue. A
//!   confined tenant sends through tx queue 3, whose AND/OR destination
//!   masks pin every lookup inside the tenant's own slice — it cannot
//!   name another tenant's destinations even with forged values, and a
//!   lookup of an uninstalled in-slice hole shuts the queue down
//!   (protection violation), which is exactly the misbehaving-tenant
//!   demonstration in `examples/multiprogramming.rs`.
//!
//! On the aP, one [`TenantScheduler`] multiplexes every tenant's job
//! ([`JobBody`]) over the shared hardware: a deterministic round-robin
//! or weighted-time-slice rotation ([`SchedPolicy`]) with
//! message-granularity preemption, attributing elapsed aP time, steps,
//! scheduling slices and sent messages per tenant. Determinism is
//! inherited from the [`Program`] contract: the scheduler is a pure
//! state machine over `Env { now, last_load }`, so per-tenant stats are
//! byte-identical across run modes, worker counts and shard policies.

use crate::api::{load_program, ApiError, BasicMsg, ProgramSnapshot, MAX_SEQ_DEPTH};
use crate::app::{AppEventKind, Env, Program, Step, StoreData};
use crate::machine::{dest, shadow, NodeLib, QueueView};
use std::collections::VecDeque;
use sv_niu::msg::MsgHeader;
use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError, StateLoad, StateSave};

/// First logical rx queue owned by a tenant (`TENANT_LQ_BASE + t` is
/// tenant `t`'s inbox on every node). Queues 0–2 keep their historical
/// meanings (service / user Basic / Express).
pub const TENANT_LQ_BASE: u16 = 8;

/// First hardware rx slot the firmware manages as tenant-queue cache.
pub const TENANT_SLOT_LO: u8 = 3;

/// Last managed hardware rx slot (slot 15 is the miss queue).
pub const TENANT_SLOT_HI: u8 = 14;

/// Transmit queue a confined tenant is pinned to (destination masks
/// force every lookup into the tenant's own translation slice).
pub const CONFINED_TX_Q: u8 = 3;

/// Workload class of a tenant, fixed by [`TenancyParams::tenant_class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantClass {
    /// Back-to-back large Basic transfers.
    Bulk,
    /// Latency-sensitive: paced small messages riding the network's
    /// High class (its translation entries set the priority bit).
    Latency,
    /// Delay-gated bursts.
    Bursty,
    /// Confined to tx queue 3; eventually trips a protection violation.
    Misbehaving,
}

impl TenantClass {
    /// Stable integer code (emitted in stats JSON).
    pub fn code(self) -> u8 {
        match self {
            TenantClass::Bulk => 0,
            TenantClass::Latency => 1,
            TenantClass::Bursty => 2,
            TenantClass::Misbehaving => 3,
        }
    }

    /// Scheduler weight under [`SchedPolicy::WeightedTimeSlice`].
    pub fn weight(self) -> u32 {
        match self {
            TenantClass::Latency => 4,
            _ => 1,
        }
    }
}

/// One tenant as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant index on its node (`0..tenants_per_node`).
    pub id: u16,
    /// Workload class.
    pub class: TenantClass,
    /// Weight under [`SchedPolicy::WeightedTimeSlice`].
    pub weight: u32,
}

/// How the per-node scheduler rotates among ready tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Rotate to the next ready tenant at every scheduling point.
    RoundRobin,
    /// Keep the running tenant until it has accumulated
    /// `quantum_ns × weight` of attributed aP time in its slice.
    WeightedTimeSlice {
        /// Base quantum, ns (multiplied by each tenant's weight).
        quantum_ns: u64,
    },
}

impl SchedPolicy {
    /// Stable integer code (emitted in stats JSON): 0 round-robin,
    /// 1 weighted time slice.
    pub fn code(self) -> u8 {
        match self {
            SchedPolicy::RoundRobin => 0,
            SchedPolicy::WeightedTimeSlice { .. } => 1,
        }
    }

    /// The quantum, or 0 under round-robin (emitted in stats JSON).
    pub fn quantum_ns(self) -> u64 {
        match self {
            SchedPolicy::RoundRobin => 0,
            SchedPolicy::WeightedTimeSlice { quantum_ns } => quantum_ns,
        }
    }
}

/// Tenancy configuration, passed to
/// [`crate::MachineBuilder::tenants`]. Applies identically to every
/// node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenancyParams {
    /// Tenants per node (each owns one logical rx queue and one
    /// translation slice).
    pub tenants_per_node: u16,
    /// Scheduler rotation policy.
    pub policy: SchedPolicy,
    /// Tenant confined to the masked tx queue 3, if any (the
    /// misbehaving tenant of the job mix).
    pub confined: Option<u16>,
}

impl Default for TenancyParams {
    fn default() -> Self {
        TenancyParams {
            tenants_per_node: 4,
            policy: SchedPolicy::RoundRobin,
            confined: None,
        }
    }
}

impl TenancyParams {
    /// The fixed class convention of the job mix: tenant 0 is the
    /// latency-sensitive tenant, the confined tenant (when configured)
    /// is misbehaving, and the rest alternate bursty/bulk by parity.
    /// The machine uses the same convention to decide which translation
    /// slices get the high-priority bit.
    pub fn tenant_class(&self, t: u16) -> TenantClass {
        if self.confined == Some(t) {
            TenantClass::Misbehaving
        } else if t == 0 {
            TenantClass::Latency
        } else if t % 2 == 1 {
            TenantClass::Bursty
        } else {
            TenantClass::Bulk
        }
    }

    /// The [`TenantSpec`] of tenant `t` under this configuration.
    pub fn tenant_spec(&self, t: u16) -> TenantSpec {
        let class = self.tenant_class(t);
        TenantSpec {
            id: t,
            class,
            weight: class.weight(),
        }
    }
}

impl StateSave for SchedPolicy {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(self.code());
        w.u64(self.quantum_ns());
    }
}
impl StateLoad for SchedPolicy {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let at = r.offset();
        match (r.u8()?, r.u64()?) {
            // Round-robin serializes a zero quantum.
            (0, 0) => Ok(SchedPolicy::RoundRobin),
            (1, quantum_ns) => Ok(SchedPolicy::WeightedTimeSlice { quantum_ns }),
            _ => Err(SnapshotError::Corrupt { offset: at }),
        }
    }
}

sv_sim::checkpointed! {
    struct TenancyParams {
        tenants_per_node,
        policy,
        confined,
    }
    // Re-run the build-time validation: a forged snapshot must not
    // smuggle an unbuildable configuration past `try_new`.
    validate: |p: &TenancyParams| {
        p.tenants_per_node > 0 && p.confined.is_none_or(|c| c < p.tenants_per_node)
    }
}

/// The per-node tenant namespace carving: which logical rx queues and
/// which translation-table slice each tenant owns. Pure arithmetic over
/// the machine size and [`TenancyParams`]; every node's registry is
/// identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantRegistry {
    /// Number of nodes in the machine.
    pub nodes: u16,
    /// Tenants per node.
    pub count: u16,
    /// First tenant logical rx queue ([`TENANT_LQ_BASE`]).
    pub lq_base: u16,
    /// First virtual destination of tenant 0's translation slice.
    pub xlate_base: u16,
    /// Virtual destinations per tenant slice (a power of two at least
    /// `nodes + 1`, so every slice contains at least one uninstalled
    /// hole for the protection-violation demonstration).
    pub slice: u16,
}

impl TenantRegistry {
    /// Carve the namespace for an `nodes`-node machine, rejecting
    /// configurations that do not fit the 16-bit destination space or
    /// name a confined tenant that does not exist.
    pub fn try_new(nodes: u16, params: &TenancyParams) -> Result<Self, ApiError> {
        let count = params.tenants_per_node;
        if count == 0 {
            return Err(ApiError::TenantCountZero);
        }
        if let Some(c) = params.confined {
            if c >= count {
                return Err(ApiError::ConfinedTenantOutOfRange {
                    tenant: c,
                    tenants: count,
                });
            }
        }
        let slice = (nodes as u32 + 1).next_power_of_two();
        let xlate_base = 4 * dest::stride(nodes) as u32;
        let end = xlate_base + count as u32 * slice;
        if end > 1 << 16 {
            return Err(ApiError::TenantNamespaceOverflow {
                tenants: count,
                capacity: ((1u32 << 16) - xlate_base) / slice,
            });
        }
        Ok(TenantRegistry {
            nodes,
            count,
            lq_base: TENANT_LQ_BASE,
            xlate_base: xlate_base as u16,
            slice: slice as u16,
        })
    }

    /// Tenant `t`'s logical rx queue (same index on every node).
    pub fn lq(&self, t: u16) -> u16 {
        self.lq_base + t
    }

    /// One past the last tenant logical rx queue.
    pub fn lq_end(&self) -> u16 {
        self.lq_base + self.count
    }

    /// Tenant `t`'s virtual destination naming its own logical queue on
    /// node `d`.
    pub fn tenant_dest(&self, t: u16, d: u16) -> u16 {
        self.xlate_base + t * self.slice + d
    }

    /// One past the last installed virtual destination.
    pub fn xlate_end(&self) -> usize {
        self.xlate_base as usize + self.count as usize * self.slice as usize
    }
}

/// Per-tenant handle on one node — the tenancy analogue of
/// [`NodeLib`]: everything a tenant job needs to name its own
/// destinations (and nothing that names anyone else's).
#[derive(Debug, Clone, Copy)]
pub struct TenantLib {
    /// The node's library view.
    pub lib: NodeLib,
    /// This tenant's index.
    pub tenant: u16,
    /// The node's namespace carving.
    pub registry: TenantRegistry,
}

impl TenantLib {
    /// Virtual destination of this tenant's inbox on node `d`.
    pub fn dest(&self, d: u16) -> u16 {
        self.registry.tenant_dest(self.tenant, d)
    }

    /// This tenant's logical rx queue index.
    pub fn lq(&self) -> u16 {
        self.registry.lq(self.tenant)
    }
}

/// One item of a [`JobBody::Stream`] job.
#[derive(Debug, Clone)]
pub enum StreamItem {
    /// Go idle for this many ns (the tenant is not schedulable until
    /// the delay elapses; the aP is free for other tenants).
    Delay(u64),
    /// Send one Basic message through the scheduler's shared tx mux.
    Msg(BasicMsg),
}

/// What a tenant runs.
pub enum JobBody {
    /// A declarative delay/send schedule (the job-mix classes).
    Stream(VecDeque<StreamItem>),
    /// An arbitrary nested program, stepped under the tenant's identity
    /// (its loads are routed back to it, its time attributed to it).
    Child(Box<dyn Program>),
}

impl std::fmt::Debug for JobBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobBody::Stream(items) => f.debug_tuple("Stream").field(&items.len()).finish(),
            JobBody::Child(_) => f.write_str("Child(..)"),
        }
    }
}

/// Scheduler-side occupancy counters for one tenant, surfaced into
/// [`crate::MachineStats`] through [`Program::tenant_report`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantSchedStat {
    /// Tenant index.
    pub id: u16,
    /// Class code ([`TenantClass::code`]).
    pub class: u8,
    /// Scheduler weight.
    pub weight: u32,
    /// Times the scheduler selected this tenant at a scheduling point.
    pub slices: u64,
    /// Program steps executed on the tenant's behalf.
    pub steps: u64,
    /// aP time attributed to the tenant, ns.
    pub active_ns: u64,
    /// Basic messages the tenant completed through the tx muxes.
    pub sent_msgs: u64,
    /// Whether the tenant's job ran to completion.
    pub done: bool,
}

/// Gap between space polls of a full transmit queue, ns (mirrors the
/// layer-0 library's polling cadence).
const MUX_POLL_GAP_NS: u64 = 30;

/// The confined tenant's transmit-queue view. Geometry is the default
/// aSRAM carving ([`sv_niu::ctrl::Ctrl::new`]): tx queue `q` at
/// `q * 4096`, 32 entries of 96 bytes; the consumer shadow is installed
/// by the machine when tenancy is armed.
fn confined_tx_view() -> QueueView {
    QueueView {
        q: CONFINED_TX_Q,
        base: CONFINED_TX_Q as u32 * 4096,
        entries: 32,
        entry_bytes: 96,
        shadow_off: shadow::tx_consumer(CONFINED_TX_Q),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MuxState {
    Idle,
    PollSpace,
    WriteHeader,
    WritePayload { off: u32 },
    PtrUpdate,
}

/// A shared Basic-transmit engine: replays the layer-0
/// [`crate::api::SendBasic`] store/load sequence for one message at a
/// time on behalf of whichever tenant owns the in-flight message.
/// Message-granularity atomicity is the preemption unit: once a header
/// store has been issued, the scheduler finishes the message before
/// rotating (interleaving two tenants' stores into one hardware slot
/// would corrupt the queue).
#[derive(Debug)]
struct BasicTxMux {
    view: QueueView,
    state: MuxState,
    producer: u16,
    consumer_seen: u16,
    owner: u16,
    msg: Option<BasicMsg>,
}

impl BasicTxMux {
    fn new(view: QueueView) -> Self {
        BasicTxMux {
            view,
            state: MuxState::Idle,
            producer: 0,
            consumer_seen: 0,
            owner: 0,
            msg: None,
        }
    }

    fn busy(&self) -> bool {
        self.state != MuxState::Idle
    }

    /// Checkpoint the mux: a state code, the payload offset (0 outside
    /// `WritePayload`), the queue cursors, the owner and the in-flight
    /// message. The queue view is the scheduler's to supply on load.
    fn save(&self, w: &mut SnapWriter) {
        let (code, off) = match self.state {
            MuxState::Idle => (0, 0),
            MuxState::PollSpace => (1, 0),
            MuxState::WriteHeader => (2, 0),
            MuxState::WritePayload { off } => (3, off),
            MuxState::PtrUpdate => (4, 0),
        };
        w.u8(code);
        w.u32(off);
        w.u16(self.producer);
        w.u16(self.consumer_seen);
        w.u16(self.owner);
        w.save(&self.msg);
    }

    /// Decode a mux written by [`BasicTxMux::save`] onto queue `view`.
    fn load(r: &mut SnapReader<'_>, view: QueueView) -> Result<Self, SnapshotError> {
        let corrupt = SnapshotError::Corrupt { offset: r.offset() };
        let (code, off) = (r.u8()?, r.u32()?);
        let state = match code {
            0 => MuxState::Idle,
            1 => MuxState::PollSpace,
            2 => MuxState::WriteHeader,
            3 => MuxState::WritePayload { off },
            4 => MuxState::PtrUpdate,
            _ => return Err(corrupt),
        };
        let m = BasicTxMux {
            view,
            state,
            producer: r.u16()?,
            consumer_seen: r.u16()?,
            owner: r.u16()?,
            msg: r.load()?,
        };
        // Every non-idle state dereferences the in-flight message; a
        // forged snapshot must not reach those expects (and an idle mux
        // holding a message would never release it).
        if m.busy() != m.msg.is_some() {
            return Err(corrupt);
        }
        Ok(m)
    }

    fn begin(&mut self, owner: u16, msg: BasicMsg) {
        debug_assert!(!self.busy());
        self.owner = owner;
        self.msg = Some(msg);
        self.state = MuxState::WriteHeader;
    }

    /// Advance the in-flight message by one step. `Some(step)` is the
    /// aP operation to issue (attributed to `self.owner`); `None` means
    /// the message completed and the mux is idle again.
    fn step(&mut self, lib: &NodeLib, env: &mut Env<'_>) -> Option<Step> {
        loop {
            match self.state {
                MuxState::Idle => return None,
                MuxState::WriteHeader => {
                    if self.producer.wrapping_sub(self.consumer_seen) >= self.view.entries {
                        self.state = MuxState::PollSpace;
                        return Some(Step::Load {
                            addr: lib.asram(self.view.shadow_off),
                            bytes: 8,
                        });
                    }
                    let msg = self.msg.as_ref().expect("mux message");
                    let hdr = MsgHeader::basic(msg.dest, msg.payload.len() as u8);
                    let slot = self.view.slot_off(self.producer);
                    self.state = MuxState::WritePayload { off: 0 };
                    return Some(Step::Store {
                        addr: lib.asram(slot),
                        data: StoreData::Bytes(hdr.encode().to_vec()),
                    });
                }
                MuxState::PollSpace => {
                    self.consumer_seen = env.last_load as u16;
                    if self.producer.wrapping_sub(self.consumer_seen) >= self.view.entries {
                        // Still full: hold the header state and retry
                        // after a beat.
                        self.state = MuxState::WriteHeader;
                        return Some(Step::Compute(MUX_POLL_GAP_NS));
                    }
                    self.state = MuxState::WriteHeader;
                }
                MuxState::WritePayload { off } => {
                    let msg = self.msg.as_ref().expect("mux message");
                    if (off as usize) < msg.payload.len() {
                        let end = (off as usize + 8).min(msg.payload.len());
                        let chunk = msg.payload[off as usize..end].to_vec();
                        let slot = self.view.slot_off(self.producer);
                        self.state = MuxState::WritePayload { off: off + 8 };
                        return Some(Step::Store {
                            addr: lib.asram(slot + 8 + off),
                            data: StoreData::Bytes(chunk),
                        });
                    }
                    self.state = MuxState::PtrUpdate;
                }
                MuxState::PtrUpdate => {
                    let msg = self.msg.take().expect("mux message");
                    self.producer = self.producer.wrapping_add(1);
                    let q = self.view.q;
                    env.emit(AppEventKind::Sent {
                        q,
                        dest: msg.dest,
                        bytes: msg.payload.len() as u32,
                    });
                    self.state = MuxState::Idle;
                    return Some(Step::Store {
                        addr: lib.map.ptr_update_addr(false, q, self.producer),
                        data: StoreData::U64(0),
                    });
                }
            }
        }
    }
}

#[derive(Debug)]
struct TenantTask {
    spec: TenantSpec,
    /// Routes this tenant's messages through the masked tx queue 3.
    confined: bool,
    /// Earliest ns the task is schedulable again ([`StreamItem::Delay`]).
    ready_at: u64,
    done: bool,
    active_ns: u64,
    slices: u64,
    steps: u64,
    sent_msgs: u64,
    body: JobBody,
}

/// Which entity the previous yielded step belongs to (time attribution
/// and load-result routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entity {
    /// The shared user-queue mux.
    Mux1,
    /// The confined tx-3 mux.
    Mux3,
    /// A tenant's child program.
    Task(u16),
}

/// The per-node tenant scheduler: one [`Program`] multiplexing every
/// tenant's job over the node's aP and transmit queues. Built by
/// [`TenantScheduler::new`] from per-tenant [`JobBody`]s (see
/// [`crate::workloads::load_tenant_mix`] for the canonical job mix).
pub struct TenantScheduler {
    lib: NodeLib,
    policy: SchedPolicy,
    tasks: Vec<TenantTask>,
    mux1: BasicTxMux,
    /// Present only when some tenant is confined.
    mux3: Option<BasicTxMux>,
    /// Rotation cursor: next task index considered at a scheduling
    /// point.
    cursor: u16,
    /// Currently scheduled task (weighted-time-slice affinity).
    current: Option<u16>,
    /// `active_ns` of `current` when its slice started.
    slice_start_ns: u64,
    /// Entity whose step the aP is executing (time attribution).
    attr: Option<Entity>,
    /// Entity that must receive the next step because its previous step
    /// was a [`Step::Load`] (the result arrives in `env.last_load`).
    sticky: Option<Entity>,
    last_now: u64,
}

impl TenantScheduler {
    /// Build a scheduler over `jobs` (one per tenant, in tenant order)
    /// for one node. When [`TenancyParams::confined`] is set, the
    /// confined tenant's messages go through the masked tx queue 3
    /// (whose shadow and masks the machine installs when tenancy is
    /// armed — see [`crate::MachineBuilder::tenants`]).
    pub fn new(lib: NodeLib, params: &TenancyParams, jobs: Vec<JobBody>) -> Self {
        let view3 = params.confined.is_some().then(confined_tx_view);
        assert_eq!(
            jobs.len(),
            params.tenants_per_node as usize,
            "one job per tenant"
        );
        let tasks = jobs
            .into_iter()
            .enumerate()
            .map(|(t, body)| {
                let t = t as u16;
                TenantTask {
                    spec: params.tenant_spec(t),
                    confined: params.confined == Some(t),
                    ready_at: 0,
                    done: false,
                    active_ns: 0,
                    slices: 0,
                    steps: 0,
                    sent_msgs: 0,
                    body,
                }
            })
            .collect();
        TenantScheduler {
            lib,
            policy: params.policy,
            tasks,
            mux1: BasicTxMux::new(lib.basic_tx),
            mux3: view3.map(BasicTxMux::new),
            cursor: 0,
            current: None,
            slice_start_ns: 0,
            attr: None,
            sticky: None,
            last_now: 0,
        }
    }

    fn charge(&mut self, now: u64) {
        let dt = now.saturating_sub(self.last_now);
        self.last_now = now;
        if dt == 0 {
            return;
        }
        if let Some(e) = self.attr {
            let owner = match e {
                Entity::Mux1 => self.mux1.owner,
                Entity::Mux3 => self.mux3.as_ref().map_or(0, |m| m.owner),
                Entity::Task(t) => t,
            };
            if let Some(task) = self.tasks.get_mut(owner as usize) {
                task.active_ns = task.active_ns.saturating_add(dt);
            }
        }
    }

    /// Yield `step` produced by `e`, recording attribution and (for
    /// loads) the sticky continuation.
    fn yield_step(&mut self, e: Entity, step: Step) -> Step {
        let owner = match e {
            Entity::Mux1 => self.mux1.owner,
            Entity::Mux3 => self.mux3.as_ref().map_or(0, |m| m.owner),
            Entity::Task(t) => t,
        };
        if let Some(task) = self.tasks.get_mut(owner as usize) {
            task.steps = task.steps.saturating_add(1);
        }
        self.attr = Some(e);
        self.sticky = matches!(step, Step::Load { .. }).then_some(e);
        step
    }

    /// Drive the entity's underlying state machine one step.
    fn step_entity(&mut self, e: Entity, env: &mut Env<'_>) -> Option<Step> {
        match e {
            Entity::Mux1 => {
                let lib = self.lib;
                let s = self.mux1.step(&lib, env)?;
                // The final pointer-update store leaves the mux idle:
                // the message is complete as of this step.
                let completed = !self.mux1.busy();
                let owner = self.mux1.owner as usize;
                let step = self.yield_step(Entity::Mux1, s);
                if completed {
                    if let Some(t) = self.tasks.get_mut(owner) {
                        t.sent_msgs = t.sent_msgs.saturating_add(1);
                    }
                }
                Some(step)
            }
            Entity::Mux3 => {
                let lib = self.lib;
                let m = self.mux3.as_mut()?;
                let s = m.step(&lib, env)?;
                let completed = !m.busy();
                let owner = m.owner as usize;
                let step = self.yield_step(Entity::Mux3, s);
                if completed {
                    if let Some(t) = self.tasks.get_mut(owner) {
                        t.sent_msgs = t.sent_msgs.saturating_add(1);
                    }
                }
                Some(step)
            }
            Entity::Task(t) => {
                let task = &mut self.tasks[t as usize];
                let JobBody::Child(p) = &mut task.body else {
                    return None;
                };
                let s = p.step(env);
                if s == Step::Done {
                    task.done = true;
                    None
                } else {
                    Some(self.yield_step(Entity::Task(t), s))
                }
            }
        }
    }

    /// Pick the task to run at a scheduling point, honouring the
    /// policy. Returns `None` when no task is ready.
    fn pick(&mut self, now: u64) -> Option<u16> {
        let n = self.tasks.len() as u16;
        let ready = |task: &TenantTask| !task.done && task.ready_at <= now;
        // Weighted time slice: stick with the current task while it is
        // ready and within its quantum.
        if let SchedPolicy::WeightedTimeSlice { quantum_ns } = self.policy {
            if let Some(c) = self.current {
                let task = &self.tasks[c as usize];
                // Saturating: a quantum too large to scale never preempts.
                if ready(task)
                    && task.active_ns.saturating_sub(self.slice_start_ns)
                        < quantum_ns.saturating_mul(u64::from(task.spec.weight))
                {
                    return Some(c);
                }
            }
        }
        for k in 0..n {
            let i = (self.cursor + k) % n;
            if ready(&self.tasks[i as usize]) {
                let task = &mut self.tasks[i as usize];
                self.cursor = (i + 1) % n;
                self.current = Some(i);
                self.slice_start_ns = task.active_ns;
                task.slices = task.slices.saturating_add(1);
                return Some(i);
            }
        }
        None
    }

    /// Per-tenant occupancy counters, in tenant order.
    pub fn report(&self) -> Vec<TenantSchedStat> {
        self.tasks
            .iter()
            .map(|t| TenantSchedStat {
                id: t.spec.id,
                class: t.spec.class.code(),
                weight: t.spec.weight,
                slices: t.slices,
                steps: t.steps,
                active_ns: t.active_ns,
                sent_msgs: t.sent_msgs,
                done: t.done,
            })
            .collect()
    }
}

impl Program for TenantScheduler {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        let now = env.now.ns();
        self.charge(now);
        // A load's result must reach the entity that issued it.
        if let Some(e) = self.sticky.take() {
            if let Some(s) = self.step_entity(e, env) {
                return s;
            }
        }
        loop {
            // In-flight messages complete before the rotation moves on
            // (message-granularity atomicity on the shared queues).
            if self.mux1.busy() {
                if let Some(s) = self.step_entity(Entity::Mux1, env) {
                    return s;
                }
                continue;
            }
            if self.mux3.as_ref().is_some_and(|m| m.busy()) {
                if let Some(s) = self.step_entity(Entity::Mux3, env) {
                    return s;
                }
                continue;
            }
            let Some(t) = self.pick(now) else {
                // Nothing ready now. If a delayed task exists, sleep to
                // its ready point (unattributed idle); otherwise done.
                let next = self
                    .tasks
                    .iter()
                    .filter(|task| !task.done)
                    .map(|task| task.ready_at)
                    .min();
                self.attr = None;
                return match next {
                    Some(at) => Step::Compute(at.saturating_sub(now).max(1)),
                    None => Step::Done,
                };
            };
            if matches!(self.tasks[t as usize].body, JobBody::Child(_)) {
                if let Some(s) = self.step_entity(Entity::Task(t), env) {
                    return s;
                }
                continue;
            }
            let task = &mut self.tasks[t as usize];
            let JobBody::Stream(items) = &mut task.body else {
                unreachable!("child handled above")
            };
            match items.pop_front() {
                None => task.done = true,
                Some(StreamItem::Delay(ns)) => {
                    // Delays cost no aP time; the tenant simply
                    // becomes unschedulable until `now + ns`. A delay
                    // past the end of time parks it for good.
                    task.ready_at = now.saturating_add(ns);
                    self.current = None;
                }
                Some(StreamItem::Msg(msg)) => {
                    if task.confined {
                        if let Some(m) = self.mux3.as_mut() {
                            m.begin(t, msg);
                        } else {
                            // No confined queue configured: the
                            // message cannot be sent safely; drop
                            // the job to avoid cross-slice sends.
                            task.done = true;
                        }
                    } else {
                        self.mux1.begin(t, msg);
                    }
                }
            }
        }
    }

    fn snapshot(&self) -> Option<ProgramSnapshot> {
        // Every child must itself be snapshottable.
        let mut children = Vec::new();
        for t in &self.tasks {
            if let JobBody::Child(p) = &t.body {
                children.push(p.snapshot()?);
            }
        }
        let mut children = children.iter();
        Some(ProgramSnapshot::record(9, |w| {
            w.save(&self.policy);
            w.usize_(self.tasks.len());
            for t in &self.tasks {
                w.save(&t.spec);
                w.save(&t.confined);
                w.u64(t.ready_at);
                w.save(&t.done);
                w.u64(t.active_ns);
                w.u64(t.slices);
                w.u64(t.steps);
                w.u64(t.sent_msgs);
                match &t.body {
                    JobBody::Stream(items) => {
                        w.u8(0);
                        w.save(items);
                    }
                    JobBody::Child(_) => {
                        w.u8(1);
                        w.save(children.next().expect("one record per child"));
                    }
                }
            }
            self.mux1.save(w);
            w.save(&self.mux3.is_some());
            if let Some(m) = &self.mux3 {
                m.save(w);
            }
            w.u16(self.cursor);
            w.save(&self.current);
            w.u64(self.slice_start_ns);
            w.save(&self.attr.map(Entity::code));
            w.save(&self.sticky.map(Entity::code));
            w.u64(self.last_now);
        }))
    }

    fn tenant_report(&self) -> Option<Vec<TenantSchedStat>> {
        Some(self.report())
    }
}

impl TenantScheduler {
    /// Decode a scheduler record (wire tag 9, past its tag) and build the
    /// scheduler on `lib`, the restored node's library handle; the
    /// confined tx queue's geometry is the fixed default carving.
    /// `depth` is the record's nesting depth: child job bodies decode one
    /// level deeper, under the same [`MAX_SEQ_DEPTH`] guard as `Seq`.
    pub(crate) fn load(
        r: &mut SnapReader<'_>,
        lib: &NodeLib,
        depth: u32,
    ) -> Result<Self, SnapshotError> {
        let corrupt = SnapshotError::Corrupt { offset: r.offset() };
        let policy = r.load()?;
        let n = r.count()?;
        if n == 0 || n > usize::from(u16::MAX) {
            return Err(corrupt);
        }
        let mut tasks = Vec::with_capacity(n);
        for _ in 0..n {
            tasks.push(TenantTask {
                spec: r.load()?,
                confined: r.load()?,
                ready_at: r.u64()?,
                done: r.load()?,
                active_ns: r.u64()?,
                slices: r.u64()?,
                steps: r.u64()?,
                sent_msgs: r.u64()?,
                body: match r.u8()? {
                    0 => JobBody::Stream(r.load()?),
                    1 if depth + 1 < MAX_SEQ_DEPTH => {
                        JobBody::Child(load_program(r, lib, depth + 1)?)
                    }
                    _ => return Err(corrupt),
                },
            });
        }
        let mux1 = BasicTxMux::load(r, lib.basic_tx)?;
        let mux3 = match r.load()? {
            true => Some(BasicTxMux::load(r, confined_tx_view())?),
            false => None,
        };
        let cursor = r.u16()?;
        let current: Option<u16> = r.load()?;
        let slice_start_ns = r.u64()?;
        let attr: Option<u8> = r.load()?;
        let sticky: Option<u8> = r.load()?;
        let last_now = r.u64()?;
        // Indices must address the task vector.
        let n = n as u16;
        if cursor >= n
            || current.is_some_and(|c| c >= n)
            || mux1.owner >= n
            || mux3.as_ref().is_some_and(|m| m.owner >= n)
        {
            return Err(corrupt);
        }
        // Entity codes must decode, and name `Mux3` only when it exists.
        // A task entity is the current task: a child's load routes back
        // to it before any rotation.
        let entity = |code: Option<u8>| match code {
            None => Ok(None),
            Some(0) => Ok(Some(Entity::Mux1)),
            Some(1) if mux3.is_some() => Ok(Some(Entity::Mux3)),
            Some(2) => Ok(Some(Entity::Task(current.unwrap_or(0)))),
            Some(_) => Err(corrupt),
        };
        Ok(TenantScheduler {
            lib: *lib,
            policy,
            tasks,
            attr: entity(attr)?,
            sticky: entity(sticky)?,
            mux1,
            mux3,
            cursor,
            current,
            slice_start_ns,
            last_now,
        })
    }
}

impl Entity {
    /// Checkpoint code: the task index is not written (see
    /// [`TenantScheduler::load`]).
    fn code(self) -> u8 {
        match self {
            Entity::Mux1 => 0,
            Entity::Mux3 => 1,
            Entity::Task(_) => 2,
        }
    }
}

sv_sim::checkpointed! {
    enum TenantClass {
        0 => Bulk,
        1 => Latency,
        2 => Bursty,
        3 => Misbehaving,
    }
}

sv_sim::checkpointed! {
    struct TenantSpec {
        id,
        class,
        weight,
    }
}

sv_sim::checkpointed! {
    enum StreamItem {
        0 => Delay(ns),
        1 => Msg(msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_sim::Time;

    fn mini_lib() -> NodeLib {
        let m = crate::Machine::builder(2).build();
        m.lib(0)
    }

    /// Step `sched` up to `steps` times, advancing time by each compute
    /// step and 10 ns per other step.
    fn drive(sched: &mut TenantScheduler, steps: usize) {
        let mut events = Vec::new();
        let mut now = 0u64;
        for _ in 0..steps {
            let mut env = Env {
                now: Time::from_ns(now),
                node: 0,
                last_load: 0,
                events: &mut events,
            };
            match sched.step(&mut env) {
                Step::Done => break,
                Step::Compute(ns) => now += ns,
                _ => now += 10,
            }
        }
    }

    fn stream(msgs: usize, dest: u16) -> JobBody {
        JobBody::Stream(
            (0..msgs)
                .map(|_| StreamItem::Msg(BasicMsg::new(dest, vec![1u8; 16])))
                .collect(),
        )
    }

    #[test]
    fn registry_carves_disjoint_slices() {
        let tp = TenancyParams {
            tenants_per_node: 8,
            ..TenancyParams::default()
        };
        let reg = TenantRegistry::try_new(4, &tp).unwrap();
        assert_eq!(reg.lq(0), TENANT_LQ_BASE);
        assert_eq!(reg.lq_end(), TENANT_LQ_BASE + 8);
        // Slices do not overlap and leave a hole past the node count.
        assert!(reg.slice >= 5);
        for t in 0..8u16 {
            for d in 0..4u16 {
                let v = reg.tenant_dest(t, d);
                assert!(v >= reg.xlate_base + t * reg.slice);
                assert!(v < reg.xlate_base + (t + 1) * reg.slice);
            }
        }
    }

    #[test]
    fn registry_rejects_bad_configs() {
        let zero = TenancyParams {
            tenants_per_node: 0,
            ..TenancyParams::default()
        };
        assert!(matches!(
            TenantRegistry::try_new(4, &zero),
            Err(ApiError::TenantCountZero)
        ));
        let confined = TenancyParams {
            tenants_per_node: 4,
            confined: Some(4),
            ..TenancyParams::default()
        };
        assert!(matches!(
            TenantRegistry::try_new(4, &confined),
            Err(ApiError::ConfinedTenantOutOfRange {
                tenant: 4,
                tenants: 4
            })
        ));
        // 16-bit destination space: 4 * stride(256) = 1024 base,
        // slice(256 nodes) = 512 → 126 tenants fit, 127 do not.
        let over = TenancyParams {
            tenants_per_node: 127,
            ..TenancyParams::default()
        };
        assert!(matches!(
            TenantRegistry::try_new(256, &over),
            Err(ApiError::TenantNamespaceOverflow { .. })
        ));
        let fits = TenancyParams {
            tenants_per_node: 126,
            ..TenancyParams::default()
        };
        assert!(TenantRegistry::try_new(256, &fits).is_ok());
    }

    #[test]
    fn class_convention_is_stable() {
        let tp = TenancyParams {
            tenants_per_node: 6,
            confined: Some(1),
            ..TenancyParams::default()
        };
        assert_eq!(tp.tenant_class(0), TenantClass::Latency);
        assert_eq!(tp.tenant_class(1), TenantClass::Misbehaving);
        assert_eq!(tp.tenant_class(2), TenantClass::Bulk);
        assert_eq!(tp.tenant_class(3), TenantClass::Bursty);
        assert_eq!(tp.tenant_spec(0).weight, 4);
        assert_eq!(tp.tenant_spec(2).weight, 1);
    }

    #[test]
    fn round_robin_interleaves_streams() {
        let lib = mini_lib();
        let tp = TenancyParams {
            tenants_per_node: 2,
            ..TenancyParams::default()
        };
        let mut sched = TenantScheduler::new(lib, &tp, vec![stream(2, 1), stream(2, 1)]);
        let mut events = Vec::new();
        let mut order = Vec::new();
        let mut now = 0u64;
        for _ in 0..200 {
            let mut env = Env {
                now: Time::from_ns(now),
                node: 0,
                last_load: 0,
                events: &mut events,
            };
            match sched.step(&mut env) {
                Step::Done => break,
                Step::Compute(ns) => now += ns,
                _ => now += 10,
            }
            if let Some(Entity::Mux1) = sched.attr {
                order.push(sched.mux1.owner);
            }
        }
        let report = sched.report();
        assert_eq!(report[0].sent_msgs, 2);
        assert_eq!(report[1].sent_msgs, 2);
        assert!(report[0].steps > 0 && report[1].steps > 0);
        // Message-granularity alternation: both owners appear, and the
        // owner changes between messages (round-robin).
        assert!(order.contains(&0) && order.contains(&1));
        assert!(report.iter().all(|t| t.done));
    }

    #[test]
    fn weighted_slice_prefers_heavy_tenant() {
        let lib = mini_lib();
        let tp = TenancyParams {
            tenants_per_node: 2,
            policy: SchedPolicy::WeightedTimeSlice { quantum_ns: 10_000 },
            ..TenancyParams::default()
        };
        // Tenant 0 (Latency, weight 4) and tenant 1 (Bursty, weight 1)
        // both run compute-only children; the heavy tenant accumulates
        // more attributed time before each rotation.
        let mut sched = TenantScheduler::new(
            lib,
            &tp,
            vec![
                JobBody::Child(Box::new(crate::app::Delay(40_000))),
                JobBody::Child(Box::new(crate::app::Delay(40_000))),
            ],
        );
        drive(&mut sched, 100);
        let report = sched.report();
        assert!(report.iter().all(|t| t.done));
        assert_eq!(report[0].active_ns, 40_000);
        assert_eq!(report[1].active_ns, 40_000);
        assert!(report[0].slices >= 1 && report[1].slices >= 1);
    }

    #[test]
    fn task_counters_saturate() {
        // Regression: a restored task's counters at `u64::MAX` overflowed
        // on its next slice, step, sent message or charged nanosecond.
        let tp = TenancyParams {
            tenants_per_node: 1,
            ..TenancyParams::default()
        };
        let mut sched = TenantScheduler::new(mini_lib(), &tp, vec![stream(1, 1)]);
        let t = &mut sched.tasks[0];
        (t.slices, t.steps, t.sent_msgs, t.active_ns) = (u64::MAX, u64::MAX, u64::MAX, u64::MAX);
        drive(&mut sched, 100);
        let r = sched.report()[0];
        assert!(r.done);
        assert_eq!([r.slices, r.steps, r.sent_msgs, r.active_ns], [u64::MAX; 4]);
    }

    #[test]
    fn a_delay_past_the_end_of_time_parks_the_tenant() {
        // Regression: `now + ns` overflowed on a delay near `u64::MAX`,
        // which a stream takes from any caller and a restore from a
        // record.
        let tp = TenancyParams {
            tenants_per_node: 2,
            ..TenancyParams::default()
        };
        let parked = JobBody::Stream(VecDeque::from([
            StreamItem::Delay(5),
            StreamItem::Delay(u64::MAX),
        ]));
        let mut sched = TenantScheduler::new(mini_lib(), &tp, vec![parked, stream(3, 1)]);
        let mut events = Vec::new();
        let (mut now, mut sleep) = (0u64, None);
        for _ in 0..1_000 {
            let mut env = Env {
                now: Time::from_ns(now),
                node: 0,
                last_load: 0,
                events: &mut events,
            };
            match sched.step(&mut env) {
                Step::Compute(ns) if ns > 1 << 62 => {
                    sleep = Some(ns);
                    break;
                }
                Step::Compute(ns) => now += ns,
                Step::Done => panic!("the parked tenant finished"),
                _ => now += 10,
            }
        }
        // The other tenant's messages all went out, and the scheduler
        // sleeps to the end of time with the parked tenant not done.
        let report = sched.report();
        assert_eq!((report[1].sent_msgs, report[1].done), (3, true));
        assert!(!report[0].done);
        assert_eq!(sleep, Some(u64::MAX - now));
    }

    #[test]
    fn delay_gates_readiness_without_attribution() {
        let lib = mini_lib();
        let tp = TenancyParams {
            tenants_per_node: 1,
            ..TenancyParams::default()
        };
        let mut sched = TenantScheduler::new(
            lib,
            &tp,
            vec![JobBody::Stream(VecDeque::from([
                StreamItem::Delay(5_000),
                StreamItem::Msg(BasicMsg::new(1, vec![2u8; 8])),
            ]))],
        );
        let mut events = Vec::new();
        let mut env = Env {
            now: Time::ZERO,
            node: 0,
            last_load: 0,
            events: &mut events,
        };
        // First step: the only tenant is delayed, so the scheduler
        // sleeps (unattributed) to the ready point.
        let s = sched.step(&mut env);
        assert_eq!(s, Step::Compute(5_000));
        assert_eq!(sched.report()[0].active_ns, 0);
    }
}
