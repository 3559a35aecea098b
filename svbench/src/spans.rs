//! In-memory spans recorded around the benchmark's calls into the
//! simulator's public API.
//!
//! A span is a name, a start and end on one monotonic clock, the span
//! that encloses it, the rep it belongs to, and integer counts attached
//! at its boundary. Spans are kept in a `Vec` for the whole run and
//! written once, at exit, as Chrome trace-event JSON
//! ([`Spans::write_chrome`] consumes the recorder, so a second write does
//! not compile). Recording costs two clock reads and one push per span,
//! so the same timings feed the end-to-end metrics whether or not the
//! trace is written.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use voyager::sim::JsonWriter;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name, e.g. `core.runloop.run`.
    pub name: &'static str,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Rep the span belongs to (0 is the discarded warm-up); `None` for
    /// the workload span that encloses every rep.
    pub rep: Option<u32>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created; equal to `start_ns` while
    /// the span is open.
    pub end_ns: u64,
    /// Counts attached at the span's boundary.
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall time the span covers, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The value attached under `key`, if any.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    rep: Option<u32>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_ns: now,
            end_ns: now,
            args: Vec::new(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        if self.spans[id].name == "rep" {
            self.rep = None;
        }
    }

    /// Open the span of rep `rep`; every span opened until it closes
    /// carries the same rep id.
    pub fn enter_rep(&mut self, rep: u32) -> SpanId {
        self.rep = Some(rep);
        self.enter("rep")
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Attach a count to span `id`.
    pub fn arg(&mut self, id: SpanId, key: &'static str, value: u64) {
        self.spans[id].args.push((key, value));
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall time of `id` not covered by its direct children, ns.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    /// Ids of the `rep` spans, in order.
    pub fn reps(&self) -> Vec<SpanId> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == "rep")
            .collect()
    }

    /// Spans named `name` inside rep `rep`, in opening order.
    pub fn in_rep<'a>(&'a self, rep: u32, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.rep == Some(rep) && s.name == name)
    }

    /// Share of each rep's wall covered by its direct children, in rep
    /// order.
    pub fn rep_coverage(&self) -> Vec<f64> {
        self.reps()
            .into_iter()
            .map(|r| {
                let dur = self.spans[r].dur_ns();
                let covered = dur - self.self_ns(r);
                if dur == 0 {
                    1.0
                } else {
                    covered as f64 / dur as f64
                }
            })
            .collect()
    }

    /// Durations of the phases matching `pred`, ns, for each measured rep
    /// (rep ≥ 1) in rep order. A phase is a leaf span: one with no
    /// children.
    pub fn phases(&self, pred: impl Fn(&Span) -> bool) -> Vec<Vec<u64>> {
        let mut has_children = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_children[p] = true;
            }
        }
        let mut per_rep: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(r) = s.rep.filter(|&r| r >= 1) {
                let durs = per_rep.entry(r).or_default();
                if !has_children[i] && pred(s) {
                    durs.push(s.dur_ns());
                }
            }
        }
        per_rep.into_values().collect()
    }

    /// The fastest observation of each phase matching `pred`, ns.
    ///
    /// The reps of one run make the same calls in the same order on the
    /// same inputs, so the k-th matching phase did the same work in every
    /// rep, and any difference between reps is host noise, which only
    /// ever adds time. Entry k is the k-th phase's smallest duration over
    /// the reps. If the reps' phase lists differ in length (a failing rep
    /// took another path), the result is the one total of the fastest
    /// rep.
    pub fn best_phases(&self, pred: impl Fn(&Span) -> bool) -> Vec<u64> {
        let reps = self.phases(pred);
        let Some(first) = reps.first() else {
            return Vec::new();
        };
        if reps.iter().all(|v| v.len() == first.len()) {
            (0..first.len())
                .map(|k| reps.iter().map(|v| v[k]).min().unwrap_or(0))
                .collect()
        } else {
            vec![reps.iter().map(|v| v.iter().sum()).min().unwrap_or(0)]
        }
    }

    /// Self time summed per span name over the measured reps (rep ≥ 1),
    /// ns, in name order.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.rep.is_some_and(|r| r >= 1) {
                *out.entry(s.name).or_insert(0) += self.self_ns(i);
            }
        }
        out
    }

    /// Write every span as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto). `ts`/`dur` are whole microseconds as the format wants;
    /// the exact nanosecond bounds, span id, parent id and rep id sit in
    /// `args` next to the attached counts.
    pub fn write_chrome(self, path: &Path) -> std::io::Result<()> {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("traceEvents").begin_arr();
        for (id, s) in self.spans.iter().enumerate() {
            w.begin_obj();
            w.field_str("name", s.name);
            w.field_str("cat", "svbench");
            w.field_str("ph", "X");
            w.field_u64("pid", 1);
            w.field_u64("tid", 1);
            w.field_u64("ts", s.start_ns / 1000);
            w.field_u64("dur", s.dur_ns() / 1000);
            w.key("args").begin_obj();
            w.field_u64("id", id as u64);
            if let Some(p) = s.parent {
                w.field_u64("parent", p as u64);
            }
            if let Some(r) = s.rep {
                w.field_u64("rep", u64::from(r));
            }
            w.field_u64("start_ns", s.start_ns);
            w.field_u64("end_ns", s.end_ns);
            for &(k, v) in &s.args {
                w.field_u64(k, v);
            }
            w.end_obj();
            w.end_obj();
        }
        w.end_arr();
        w.field_str("displayTimeUnit", "ms");
        w.end_obj();
        let mut text = w.finish();
        text.push('\n');
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new();
        let rep = s.enter_rep(1);
        let outer = s.enter("outer");
        s.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit(outer);
        s.exit(rep);
        let inner = 2;
        assert_eq!(s.spans()[inner].parent, Some(outer));
        assert_eq!(s.spans()[inner].rep, Some(1));
        assert_eq!(
            s.self_ns(outer),
            s.spans()[outer].dur_ns() - s.spans()[inner].dur_ns()
        );
        assert!(s.rep_coverage()[0] > 0.0);
        assert_eq!(
            s.phases(|sp| sp.name == "inner"),
            vec![vec![s.spans()[inner].dur_ns()]]
        );
    }

    #[test]
    fn best_phases_takes_each_phase_from_its_fastest_rep() {
        let pause = |ms| move || std::thread::sleep(std::time::Duration::from_millis(ms));
        let mut s = Spans::new();
        for (rep, (a, b)) in [(1, (2, 8)), (2, (8, 2))] {
            let r = s.enter_rep(rep);
            s.time("a", pause(a));
            s.time("b", pause(b));
            s.exit(r);
        }
        let best = s.best_phases(|_| true);
        assert_eq!(best.len(), 2);
        assert!(best.iter().all(|&ns| ns >= 2_000_000));
        // Both reps took about 10 ms; the best phases add up to about 4.
        assert!(best.iter().sum::<u64>() < 8_000_000);
        assert_eq!(s.best_phases(|sp| sp.name == "b").len(), 1);

        // A rep that took another path: the fastest rep's total instead.
        let r = s.enter_rep(3);
        s.time("a", pause(1));
        s.exit(r);
        let fallback = s.best_phases(|_| true);
        assert_eq!(fallback.len(), 1);
        assert!(fallback[0] < 8_000_000);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut s = Spans::new();
        let a = s.enter("a");
        let _b = s.enter("b");
        s.exit(a);
    }
}
