//! Measurement primitives.
//!
//! The paper's evaluation hinges on three kinds of numbers: end-to-end
//! **latencies**, sustained **bandwidths**, and component **occupancy**
//! (what fraction of time the aP, sP, memory bus, IBus and links were
//! busy). This module provides the corresponding accumulators. All of them
//! are plain-old-data, cheap to update on the simulation fast path, and
//! serializable so the bench harness can dump experiment records.

use crate::time::Time;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Running summary statistics (count / min / max / mean) over `u64` samples,
/// plus the sum for rate computations. Stores no per-sample data, so it is
/// safe to use for millions of events.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of lines.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample seen.
    pub min: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Summary {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Arithmetic mean, or `None` if no samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Whether no samples have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest sample, or `None` if empty. The raw `min` field is the
    /// `u64::MAX` sentinel before the first sample; reports must use this
    /// accessor (or [`Summary::min_or_zero`]) so the sentinel never leaks
    /// into exported numbers.
    pub fn observed_min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Smallest sample, normalized to 0 when empty (for serialization).
    #[inline]
    pub fn min_or_zero(&self) -> u64 {
        if self.count > 0 {
            self.min
        } else {
            0
        }
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A power-of-two bucketed histogram for latency-like quantities.
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))`; bucket 0 additionally
/// holds zero. 64 buckets cover the entire `u64` range.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    /// Per-power-of-two sample counts.
    pub buckets: Vec<u64>,
    /// Running summary of samples.
    pub summary: Summary,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: vec![0; 64],
            summary: Summary::default(),
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let b = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[b] += 1;
        self.summary.record(v);
    }

    /// Approximate p-quantile (0.0–1.0), reported as the *upper bound* of the
    /// bucket containing it. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.summary.count == 0 {
            return None;
        }
        let target = ((self.summary.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                });
            }
        }
        Some(u64::MAX)
    }
}

/// Tracks how long a resource was busy: utilization over a run is
/// `busy_ns` over the run's length.
///
/// Call [`Occupancy::busy_at`] with each busy interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct Occupancy {
    /// Total busy time, ns.
    pub busy_ns: u64,
    /// Number of distinct busy intervals.
    pub intervals: u64,
    /// End of the latest busy interval, ns. Nothing reads it; snapshot
    /// format 5 carries it.
    pub last_end_ns: u64,
}

impl Occupancy {
    /// Account a busy interval starting at `start_ns` and lasting
    /// `dur_ns`.
    #[inline]
    pub fn busy_at(&mut self, start_ns: u64, dur_ns: u64) {
        self.busy_ns += dur_ns;
        self.intervals += 1;
        let end = start_ns + dur_ns;
        if end > self.last_end_ns {
            self.last_end_ns = end;
        }
    }
}

/// Byte-flow tracker: total bytes moved plus first/last event times, from
/// which sustained bandwidth is derived.
#[derive(Debug, Clone, Copy, Default)]
pub struct Throughput {
    /// Size in bytes.
    pub bytes: u64,
    /// Application event log.
    pub events: u64,
    /// First clsSRAM line.
    pub first: Option<Time>,
    /// Time of the most recent event.
    pub last: Option<Time>,
}

impl Throughput {
    /// Record `bytes` moved at time `at`.
    pub fn record(&mut self, at: Time, bytes: u64) {
        self.bytes += bytes;
        self.events += 1;
        if self.first.is_none() {
            self.first = Some(at);
        }
        self.last = Some(at);
    }

    /// Sustained rate in MB/s between the first and last events, or `None`
    /// if fewer than two distinct instants were observed.
    pub fn mb_per_s(&self) -> Option<f64> {
        let (f, l) = (self.first?, self.last?);
        let dt = l.since(f);
        if dt == 0 {
            return None;
        }
        Some(self.bytes as f64 / (dt as f64 / 1e9) / 1e6)
    }
}

/// Sustained rate in MB/s for `bytes` moved in `ns` nanoseconds.
pub fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return f64::INFINITY;
    }
    bytes as f64 / (ns as f64 / 1e9) / 1e6
}

crate::checkpointed! { struct Counter(value) }

crate::checkpointed! {
    struct Summary {
        count,
        sum,
        min,
        max,
    }
}

crate::checkpointed! {
    struct Log2Histogram {
        buckets,
        summary,
    }
}

crate::checkpointed! {
    struct Occupancy {
        busy_ns,
        intervals,
        last_end_ns,
    }
}

crate::checkpointed! {
    struct Throughput {
        bytes,
        events,
        first,
        last,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_ops() {
        let mut c = Counter::default();
        c.bump();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn summary_tracks_extremes_and_mean() {
        let mut s = Summary::default();
        assert_eq!(s.mean(), None);
        for v in [3u64, 9, 6] {
            s.record(v);
        }
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 9);
        assert_eq!(s.mean(), Some(6.0));
    }

    #[test]
    fn summary_merge() {
        let mut a = Summary::default();
        a.record(1);
        a.record(5);
        let mut b = Summary::default();
        b.record(10);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 10);
        assert_eq!(a.sum, 16);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2 and 3
        assert_eq!(h.buckets[10], 1); // 1024
        assert_eq!(h.summary.count, 5);
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=100u64 {
            h.record(v);
        }
        // Median of 1..=100 is ~50, whose bucket [32,64) upper bound is 63.
        assert_eq!(h.quantile(0.5), Some(63));
        assert_eq!(h.quantile(1.0), Some(127)); // max 100 in [64,128)
    }

    #[test]
    fn empty_summary_exports_no_sentinel_min() {
        let s = Summary::default();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.observed_min(), None);
        assert_eq!(s.min_or_zero(), 0);
        // Merging an empty summary must not disturb the receiver.
        let mut a = Summary::default();
        a.record(7);
        a.merge(&s);
        assert_eq!((a.count, a.min, a.max), (1, 7, 7));
        let mut e = Summary::default();
        e.merge(&a);
        assert_eq!(e.observed_min(), Some(7));
    }

    #[test]
    fn occupancy_busy_at_accumulates_and_keeps_the_latest_end() {
        let mut o = Occupancy::default();
        o.busy_at(0, 100);
        o.busy_at(900, 200);
        assert_eq!((o.busy_ns, o.intervals), (300, 2));
        assert_eq!(o.last_end_ns, 1100);
    }

    #[test]
    fn throughput_rate() {
        let mut t = Throughput::default();
        assert_eq!(t.mb_per_s(), None);
        t.record(Time::from_ns(0), 1_000_000);
        assert_eq!(t.mb_per_s(), None); // single instant
        t.record(Time::from_ns(10_000_000), 1_000_000);
        // 2 MB over 10 ms = 200 MB/s
        let r = t.mb_per_s().unwrap();
        assert!((r - 200.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn helper_rate() {
        assert!((mb_per_s(160, 1000) - 160.0).abs() < 1e-9);
        assert!(mb_per_s(1, 0).is_infinite());
    }
}
