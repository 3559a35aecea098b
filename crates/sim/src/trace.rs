//! Lightweight simulation tracing.
//!
//! A fixed-capacity ring buffer of `(time, subsystem, message)` records.
//! Tracing is *pull*-based: nothing is formatted unless the trace is
//! actually dumped, and when the tracer is disabled a record costs one
//! branch. Used heavily while debugging protocol interleavings; disabled
//! in benchmarks.

use crate::time::Time;

/// Subsystem tags for trace filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsys {
    /// Memory bus transactions.
    Bus,
    /// CTRL ASIC activity.
    Ctrl,
    /// aBIU / sBIU activity.
    Biu,
    /// Service-processor firmware.
    Firmware,
    /// Arctic network.
    Net,
    /// Application processor / program VM.
    App,
    /// Anything else.
    Other,
}

/// One trace record. The message is a `String` built lazily by the caller
/// only when the tracer is enabled (see [`Tracer::enabled`]).
#[derive(Debug, Clone)]
pub struct Record {
    /// Timestamp.
    pub at: Time,
    /// Subsystem tag.
    pub subsys: Subsys,
    /// The rendered trace message text.
    pub msg: String,
}

/// Ring-buffer tracer.
///
/// Retains the last `capacity` records; older ones are overwritten but
/// still counted in [`Tracer::total_recorded`]:
///
/// ```
/// use sv_sim::trace::{Subsys, Tracer};
/// use sv_sim::Time;
///
/// let mut t = Tracer::new(2);
/// t.set_enabled(true);
/// for i in 0..3u64 {
///     t.record(Time::from_ns(i), Subsys::Net, format!("pkt {i}"));
/// }
/// // Only the newest two survive, oldest first.
/// let kept: Vec<&str> = t.dump().iter().map(|r| r.msg.as_str()).collect();
/// assert_eq!(kept, ["pkt 1", "pkt 2"]);
/// assert_eq!(t.total_recorded(), 3);
/// ```
#[derive(Debug)]
pub struct Tracer {
    records: Vec<Record>,
    capacity: usize,
    next: usize,
    wrapped: bool,
    enabled: bool,
    total: u64,
}

impl Tracer {
    /// A tracer retaining the last `capacity` records; starts disabled.
    /// Allocates nothing: the ring grows on the first enabled record.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            records: Vec::new(),
            capacity: capacity.max(1),
            next: 0,
            wrapped: false,
            enabled: false,
            total: 0,
        }
    }

    /// Turn tracing on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether records are currently captured. Call this before building
    /// an expensive message:
    ///
    /// ```
    /// # use sv_sim::trace::{Tracer, Subsys};
    /// # use sv_sim::Time;
    /// # let mut tracer = Tracer::new(16);
    /// if tracer.enabled() {
    ///     tracer.record(Time::ZERO, Subsys::Bus, format!("op {:x}", 0xbeef));
    /// }
    /// ```
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Capture a record (no-op while disabled).
    pub fn record(&mut self, at: Time, subsys: Subsys, msg: String) {
        if !self.enabled {
            return;
        }
        self.total += 1;
        let rec = Record { at, subsys, msg };
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.records[self.next] = rec;
            self.wrapped = true;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Records in chronological order (oldest retained first).
    pub fn dump(&self) -> Vec<&Record> {
        if !self.wrapped {
            self.records.iter().collect()
        } else {
            self.records[self.next..]
                .iter()
                .chain(self.records[..self.next].iter())
                .collect()
        }
    }

    /// Total records ever captured (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Render the retained records as lines, optionally filtered by subsystem.
    pub fn render(&self, filter: Option<Subsys>) -> String {
        let mut out = String::new();
        for r in self.dump() {
            if filter.is_none_or(|f| f == r.subsys) {
                out.push_str(&format!("[{}] {:?}: {}\n", r.at, r.subsys, r.msg));
            }
        }
        out
    }
}

crate::checkpointed! {
    enum Subsys {
        0 => Bus,
        1 => Ctrl,
        2 => Biu,
        3 => Firmware,
        4 => Net,
        5 => App,
        6 => Other,
    }
}

crate::checkpointed! {
    struct Record {
        at,
        subsys,
        msg,
    }
}

crate::checkpointed! {
    struct Tracer {
        capacity,
        next,
        wrapped,
        enabled,
        total,
        records,
    }
    validate: Tracer::ring_is_consistent
}

impl Tracer {
    /// The ring cursor and contents fit the (nonzero) capacity.
    fn ring_is_consistent(&self) -> bool {
        self.capacity != 0 && self.records.len() <= self.capacity && self.next < self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_captures_nothing() {
        let mut t = Tracer::new(8);
        t.record(Time::ZERO, Subsys::Bus, "x".into());
        assert_eq!(t.total_recorded(), 0);
        assert!(t.dump().is_empty());
        // ...and a tracer that was never enabled owns no ring memory.
        assert_eq!(t.records.capacity(), 0);
    }

    #[test]
    fn ring_keeps_latest() {
        let mut t = Tracer::new(3);
        t.set_enabled(true);
        for i in 0..5u64 {
            t.record(Time(i), Subsys::Ctrl, format!("e{i}"));
        }
        let msgs: Vec<&str> = t.dump().iter().map(|r| r.msg.as_str()).collect();
        assert_eq!(msgs, vec!["e2", "e3", "e4"]);
        assert_eq!(t.total_recorded(), 5);
    }

    #[test]
    fn render_filters_by_subsystem() {
        let mut t = Tracer::new(8);
        t.set_enabled(true);
        t.record(Time(1), Subsys::Bus, "bus-ev".into());
        t.record(Time(2), Subsys::Net, "net-ev".into());
        let bus_only = t.render(Some(Subsys::Bus));
        assert!(bus_only.contains("bus-ev"));
        assert!(!bus_only.contains("net-ev"));
        let all = t.render(None);
        assert!(all.contains("bus-ev") && all.contains("net-ev"));
    }

    #[test]
    fn chronological_order_before_wrap() {
        let mut t = Tracer::new(10);
        t.set_enabled(true);
        for i in 0..4u64 {
            t.record(Time(i), Subsys::App, i.to_string());
        }
        let times: Vec<Time> = t.dump().iter().map(|r| r.at).collect();
        assert_eq!(times, vec![Time(0), Time(1), Time(2), Time(3)]);
    }
}
