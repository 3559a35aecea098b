//! The application-processor program VM.
//!
//! An aP "application" is a [`Program`]: a state machine that, each time
//! the core is ready, yields one [`Step`] — compute for some time, issue
//! a load, issue a store, or finish. The node executes the step against
//! the simulated memory system with full timing (cache hits, bus
//! transactions, NIU claims, S-COMA retries), so a program's performance
//! is determined by the machine exactly as on real hardware.
//!
//! Programs record [`AppEvent`]s; benches and tests read the event log
//! for both data verification and timestamps.

use crate::api::ProgramSnapshot;
use bytes::Bytes;
use sv_sim::Time;

/// What a program asks the core to do next.
#[derive(Debug, Clone, PartialEq)]
// Variant fields are named self-descriptively; the variants themselves
// are documented above each one.
#[allow(missing_docs)]
pub enum Step {
    /// Execute for `ns` nanoseconds without touching memory.
    Compute(u64),
    /// Load `bytes` (1–8) from `addr`. The result is delivered in
    /// [`Env::last_load`] at the next step.
    Load { addr: u64, bytes: u32 },
    /// Store `data` at `addr` (1–8 bytes).
    Store { addr: u64, data: StoreData },
    /// Nothing to do right now; step again next tick (used sparingly —
    /// polling loops should issue real loads).
    Idle,
    /// The program has finished.
    Done,
}

/// Store payload: an integer word or explicit bytes (≤ 8).
#[derive(Debug, Clone, PartialEq)]
pub enum StoreData {
    /// U64.
    U64(u64),
    /// Total bytes moved.
    Bytes(Vec<u8>),
}

impl StoreData {
    /// Width of the store in bytes.
    pub fn len(&self) -> u32 {
        match self {
            StoreData::U64(_) => 8,
            StoreData::Bytes(b) => b.len() as u32,
        }
    }

    /// Whether the store carries no bytes (never true for valid stores).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes to write.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            StoreData::U64(v) => v.to_le_bytes().to_vec(),
            StoreData::Bytes(b) => b.clone(),
        }
    }
}

/// Events recorded by programs (with simulation timestamps).
#[derive(Debug, Clone, PartialEq)]
pub struct AppEvent {
    /// Timestamp.
    pub at: Time,
    /// Bus-operation kind.
    pub kind: AppEventKind,
}

/// Event payloads.
#[derive(Debug, Clone, PartialEq)]
// Variant fields are named self-descriptively; the variants themselves
// are documented above each one.
#[allow(missing_docs)]
pub enum AppEventKind {
    /// A message was fully composed and launched.
    Sent { q: u8, dest: u16, bytes: u32 },
    /// A message was received and read out: `(queue, source, payload)`.
    Received { q: u8, src: u16, data: Bytes },
    /// An express message was received: `(src, tag, word)`.
    ExpressReceived { src: u16, tag: u8, word: [u8; 4] },
    /// A transfer-completion notification arrived.
    NotifyReceived { xfer_id: u16 },
    /// A region read/write finished (used for latency-to-use metrics).
    RegionDone { addr: u64, len: u32 },
    /// The program ran to completion.
    ProgramDone,
    /// A computed result (collectives report through this).
    Result { label: &'static str, value: u64 },
    /// Free-form marker for tests.
    Marker(&'static str),
}

/// Per-step context handed to programs.
pub struct Env<'a> {
    /// Current simulated time.
    pub now: Time,
    /// This node's id.
    pub node: u16,
    /// Result of the previous [`Step::Load`].
    pub last_load: u64,
    /// Event sink.
    pub events: &'a mut Vec<AppEvent>,
}

impl Env<'_> {
    /// Record an event at the current time.
    pub fn emit(&mut self, kind: AppEventKind) {
        self.events.push(AppEvent { at: self.now, kind });
    }
}

/// An application program.
pub trait Program: Send {
    /// Produce the next step. Called once per engagement; `env.last_load`
    /// holds the result of the previous load.
    fn step(&mut self, env: &mut Env<'_>) -> Step;

    /// Write this program's checkpoint record — a kind tag, then its
    /// execution state, straight from its own fields — or `None` when
    /// the program cannot be snapshotted (the default, e.g. closure-based
    /// [`FnProgram`]s). The layer-0 library's programs, [`Seq`] and
    /// [`Delay`] write records; restore decodes them on the restored
    /// node. A `None` from a program that has not finished makes
    /// [`crate::Machine::try_checkpoint`] fail with
    /// [`sv_sim::ckpt::SnapshotError::UnsupportedProgram`].
    fn snapshot(&self) -> Option<ProgramSnapshot> {
        None
    }

    /// Per-tenant scheduler accounting, when this program is a
    /// [`crate::tenancy::TenantScheduler`] (the default `None` marks
    /// ordinary single-tenant programs). Queried by the stats layer
    /// after a run to attribute node activity to tenants.
    fn tenant_report(&self) -> Option<Vec<crate::tenancy::TenantSchedStat>> {
        None
    }
}

/// Run `programs` one after another.
pub struct Seq {
    parts: Vec<Box<dyn Program>>,
    idx: usize,
}

impl Seq {
    /// A sequential composition.
    pub fn new(parts: Vec<Box<dyn Program>>) -> Self {
        Seq { parts, idx: 0 }
    }
}

impl Program for Seq {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        while self.idx < self.parts.len() {
            match self.parts[self.idx].step(env) {
                Step::Done => self.idx += 1,
                s => return s,
            }
        }
        Step::Done
    }

    fn snapshot(&self) -> Option<ProgramSnapshot> {
        // Exhausted parts carry no future behaviour; only the remainder
        // is captured. Every remaining part must itself be snapshottable.
        let rest: Vec<ProgramSnapshot> = self.parts[self.idx..]
            .iter()
            .map(|p| p.snapshot())
            .collect::<Option<_>>()?;
        Some(ProgramSnapshot::record(6, |w| w.save(&rest)))
    }
}

/// Compute for a fixed time, then finish.
pub struct Delay(pub u64);

impl Program for Delay {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        let _ = env;
        if self.0 == 0 {
            return Step::Done;
        }
        let d = self.0;
        self.0 = 0;
        Step::Compute(d)
    }

    fn snapshot(&self) -> Option<ProgramSnapshot> {
        Some(ProgramSnapshot::record(7, |w| w.save(self)))
    }
}

/// A program built from a closure returning steps (for tests and ad-hoc
/// drivers).
pub struct FnProgram<F: FnMut(&mut Env<'_>) -> Step + Send>(pub F);

impl<F: FnMut(&mut Env<'_>) -> Step + Send> Program for FnProgram<F> {
    fn step(&mut self, env: &mut Env<'_>) -> Step {
        self.0(env)
    }
}

use std::collections::BTreeSet;
use std::sync::Mutex;
use sv_sim::ckpt::{SnapReader, SnapWriter, SnapshotError, StateLoad, StateSave};

sv_sim::checkpointed! {
    enum StoreData {
        0 => U64(v),
        1 => Bytes(b),
    }
}

sv_sim::checkpointed! { struct Delay(ns) }

sv_sim::checkpointed! {
    struct AppEvent {
        at,
        kind,
    }
}

/// Restore a `&'static str` label. Labels come from string literals in
/// program code, so a process sees few distinct ones: each is leaked
/// once, the first time it is loaded, and every later restore or delta
/// apply shares that copy.
fn intern_label(r: &mut SnapReader<'_>) -> Result<&'static str, SnapshotError> {
    static LABELS: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let s: String = r.load()?;
    // Every update is one insert, so a set poisoned by a panicking
    // holder is still valid.
    let mut labels = LABELS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&label) = labels.get(s.as_str()) {
        return Ok(label);
    }
    let label: &'static str = Box::leak(s.into_boxed_str());
    labels.insert(label);
    Ok(label)
}

impl StateSave for AppEventKind {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            AppEventKind::Sent { q, dest, bytes } => {
                w.u8(0);
                w.u8(*q);
                w.u16(*dest);
                w.u32(*bytes);
            }
            AppEventKind::Received { q, src, data } => {
                w.u8(1);
                w.u8(*q);
                w.u16(*src);
                w.save(data);
            }
            AppEventKind::ExpressReceived { src, tag, word } => {
                w.u8(2);
                w.u16(*src);
                w.u8(*tag);
                w.raw(word);
            }
            AppEventKind::NotifyReceived { xfer_id } => {
                w.u8(3);
                w.u16(*xfer_id);
            }
            AppEventKind::RegionDone { addr, len } => {
                w.u8(4);
                w.u64(*addr);
                w.u32(*len);
            }
            AppEventKind::ProgramDone => w.u8(5),
            AppEventKind::Result { label, value } => {
                w.u8(6);
                w.save(&label.to_string());
                w.u64(*value);
            }
            AppEventKind::Marker(label) => {
                w.u8(7);
                w.save(&label.to_string());
            }
        }
    }
}
impl StateLoad for AppEventKind {
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => AppEventKind::Sent {
                q: r.u8()?,
                dest: r.u16()?,
                bytes: r.u32()?,
            },
            1 => AppEventKind::Received {
                q: r.u8()?,
                src: r.u16()?,
                data: r.load()?,
            },
            2 => {
                let src = r.u16()?;
                let tag = r.u8()?;
                let at = r.offset();
                let word: [u8; 4] = r
                    .take(4)?
                    .try_into()
                    .map_err(|_| SnapshotError::Corrupt { offset: at })?;
                AppEventKind::ExpressReceived { src, tag, word }
            }
            3 => AppEventKind::NotifyReceived { xfer_id: r.u16()? },
            4 => AppEventKind::RegionDone {
                addr: r.u64()?,
                len: r.u32()?,
            },
            5 => AppEventKind::ProgramDone,
            6 => AppEventKind::Result {
                label: intern_label(r)?,
                value: r.u64()?,
            },
            7 => AppEventKind::Marker(intern_label(r)?),
            _ => return r.corrupt(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_steps(p: &mut dyn Program, n: usize) -> Vec<Step> {
        let mut events = Vec::new();
        let mut out = Vec::new();
        for _ in 0..n {
            let mut env = Env {
                now: Time::ZERO,
                node: 0,
                last_load: 0,
                events: &mut events,
            };
            let s = p.step(&mut env);
            let done = s == Step::Done;
            out.push(s);
            if done {
                break;
            }
        }
        out
    }

    #[test]
    fn store_data_width() {
        assert_eq!(StoreData::U64(5).len(), 8);
        assert_eq!(StoreData::Bytes(vec![1, 2, 3]).len(), 3);
        assert_eq!(StoreData::U64(5).to_bytes(), 5u64.to_le_bytes().to_vec());
        assert!(!StoreData::U64(0).is_empty());
    }

    #[test]
    fn seq_runs_parts_in_order() {
        let mut s = Seq::new(vec![Box::new(Delay(10)), Box::new(Delay(20))]);
        let steps = run_steps(&mut s, 10);
        assert_eq!(
            steps,
            vec![Step::Compute(10), Step::Compute(20), Step::Done]
        );
    }

    #[test]
    fn delay_is_one_shot() {
        let mut d = Delay(7);
        let steps = run_steps(&mut d, 5);
        assert_eq!(steps, vec![Step::Compute(7), Step::Done]);
    }

    #[test]
    fn env_emit_stamps_time() {
        let mut events = Vec::new();
        let mut env = Env {
            now: Time::from_ns(99),
            node: 1,
            last_load: 0,
            events: &mut events,
        };
        env.emit(AppEventKind::Marker("x"));
        assert_eq!(events[0].at, Time::from_ns(99));
    }
}
