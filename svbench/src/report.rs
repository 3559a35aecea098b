//! Named metrics computed from a run's reps and spans, and their
//! human-readable and JSON renderings.
//!
//! Every timing's reported value is the sum of each phase's fastest
//! observation over the run's reps ([`Spans::best_phases`]): the reps
//! repeat identical work, and a shared host's noise only ever adds time.
//! The per-rep samples behind it are printed too, as median, min, max
//! and n.

use std::fmt::Write as _;

use crate::layers::{per_layer, HostTimes};
use crate::spans::{Span, Spans};
use crate::workloads::{RepOutcome, Workload};

/// Median, extremes and sample count of one metric's per-rep samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median sample.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarize `xs`; all zero when empty.
    pub fn of(xs: &[f64]) -> Summary {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = match n {
            0 => 0.0,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        Summary {
            median,
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
            n,
        }
    }
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value: best-of-phase for timings, the smallest
    /// per-rep peak for memory, the median for counts.
    pub value: f64,
    /// The per-rep samples.
    pub s: Summary,
}

/// Metrics as `(name, unit, value)`.
type List = Vec<(String, &'static str, f64)>;

/// End-to-end, per-layer and extra metrics.
type Lists = [List; 3];

/// Durations of the phases matching a predicate, ns: one rep's, or the
/// fastest of each over all reps.
type Phases<'a> = dyn Fn(&dyn Fn(&Span) -> bool) -> Vec<u64> + 'a;

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Every metric computed from `phases`, the rep's counts `out`, the
/// simulated ns and nodes built per rep, and the peak resident set.
fn metrics(
    workload: Workload,
    phases: &Phases<'_>,
    spans: &Spans,
    out: &RepOutcome,
    (sim_ns, nodes_built, rss_mb): (u64, u64, f64),
) -> Lists {
    let spent = |pred: &dyn Fn(&Span) -> bool| secs(phases(pred).iter().sum());
    let named = |name: &'static str| spent(&|s: &Span| s.name == name);
    let h = HostTimes {
        build_s: named("core.machine.build"),
        nodes_built,
        load_s: named("core.app.load"),
        run_s: named("core.runloop.run"),
        snapshot_s: named("core.stats.snapshot"),
    };
    let e2e = vec![
        ("setup_s".into(), "s", h.build_s + h.load_s),
        ("rep_s".into(), "s", spent(&|s: &Span| s.name != "check")),
        (
            "sim_mns_per_s".into(),
            "Mns/s",
            sim_ns as f64 / h.run_s / 1e6,
        ),
        ("peak_rss_mb".into(), "MiB", rss_mb),
    ];
    let deltas = &out.ckpt_delta_bytes;
    let delta_mean = deltas.iter().sum::<u64>() / deltas.len().max(1) as u64;
    let layer = per_layer(
        &h,
        &out.counts,
        (out.ckpt_full_bytes, delta_mean),
        (out.xfer_ap_busy_ns, out.xfer_bytes_verified),
    )
    .into_iter()
    .map(|(name, unit, v)| (name.to_string(), unit, v))
    .collect();
    let mut extra = Vec::new();
    match workload {
        Workload::Blockxfer => {
            let approach = |s: &Span| s.parent.and_then(|p| spans.spans()[p].arg("approach"));
            for a in 1..=5u64 {
                let t = spent(&|s: &Span| s.name != "check" && approach(s) == Some(a));
                extra.push((format!("core.blockxfer.a{a}_s"), "s", t));
            }
        }
        Workload::Ckpt => {
            let (save, restore, chain) = (
                named("sim.ckpt.save"),
                named("sim.ckpt.restore"),
                named("sim.ckpt.restore_chain"),
            );
            // The first cut opens the chain; the rest are deltas.
            let cuts = phases(&|s: &Span| s.name == "sim.ckpt.delta_cut");
            let (base, deltas) = cuts.split_first().unwrap_or((&0, &[]));
            let delta_ms = deltas.iter().sum::<u64>() as f64 / deltas.len().max(1) as f64 / 1e6;
            let mb = out.ckpt_full_bytes as f64 / 1e6;
            extra.extend([
                ("ckpt_save_s".into(), "s", save),
                ("ckpt_restore_s".into(), "s", restore),
                ("chain_restore_s".into(), "s", chain),
                ("delta_save_ms".into(), "ms", delta_ms),
                ("sim.ckpt.base_cut_s".into(), "s", secs(*base)),
                ("sim.ckpt.chain_apply_s".into(), "s", chain - restore),
                ("sim.ckpt.save_mb_per_s".into(), "MB/s", mb / save),
                ("sim.ckpt.restore_mb_per_s".into(), "MB/s", mb / restore),
            ]);
        }
        _ => {}
    }
    [e2e, layer, extra]
}

/// Everything one workload run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Operations checked over the measured reps.
    pub attempted: u64,
    /// Operations that failed, plus reps whose digest differed.
    pub failed: u64,
    /// Model digest of the first measured rep.
    pub digest: u64,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics every workload reports.
    pub layer: Vec<Metric>,
    /// Per-layer timings only this workload has (per-approach transfer
    /// time, checkpoint phases).
    pub extra: Vec<Metric>,
    /// Self time per span name over the measured reps, s.
    pub self_times: Vec<(&'static str, f64)>,
    /// Smallest share of a rep's wall covered by its child spans.
    pub min_coverage: f64,
    /// What went wrong.
    pub problems: Vec<String>,
}

impl Report {
    /// Compute every metric of a run whose measured reps are `reps`
    /// (rep ids 1..) and whose spans are `spans`.
    pub fn new(workload: Workload, spans: &Spans, reps: &[RepOutcome]) -> Report {
        let mut problems = Vec::new();
        let digest = reps.first().map_or(0, |r| r.digest);
        let (mut attempted, mut failed) = (0, 0);
        for (i, out) in reps.iter().enumerate() {
            attempted += out.attempted;
            failed += out.failed;
            problems.extend(out.problems.iter().map(|p| format!("rep {}: {p}", i + 1)));
            if out.digest != digest {
                failed += 1;
                problems.push(format!(
                    "rep {}: model digest {:#018x} differs from rep 1's",
                    i + 1,
                    out.digest
                ));
            }
        }

        // Simulated time and machine sizes are the same in every rep.
        let arg_sum = |name: &str, key: &str| -> u64 {
            spans.in_rep(1, name).filter_map(|s| s.arg(key)).sum()
        };
        let sim_ns = arg_sum("core.runloop.run", "sim_ns");
        let nodes = arg_sum("core.machine.build", "nodes");
        let mut samples: [Vec<List>; 3] = Default::default();
        for (i, out) in reps.iter().enumerate() {
            let own = |pred: &dyn Fn(&Span) -> bool| {
                spans.phases(pred).into_iter().nth(i).unwrap_or_default()
            };
            let lists = metrics(workload, &own, spans, out, (sim_ns, nodes, out.peak_rss_mb));
            for (k, list) in lists.into_iter().enumerate() {
                samples[k].push(list);
            }
        }
        // Heap the allocator kept from earlier reps only adds to a rep's
        // resident set, so the smallest per-rep peak is the rep's own.
        let rss = reps
            .iter()
            .map(|r| r.peak_rss_mb)
            .fold(f64::INFINITY, f64::min);
        let best = |pred: &dyn Fn(&Span) -> bool| spans.best_phases(pred);
        let first = reps.first().cloned().unwrap_or_default();
        let values = metrics(workload, &best, spans, &first, (sim_ns, nodes, rss));
        let mut samples = samples.into_iter();
        let [e2e, layer, extra] = values.map(|list| {
            let per_rep = samples.next().unwrap_or_default();
            list.into_iter()
                .enumerate()
                .map(|(j, (name, unit, value))| {
                    let xs: Vec<f64> = per_rep
                        .iter()
                        .filter_map(|rep| rep.get(j))
                        .map(|&(_, _, v)| finite(v))
                        .collect();
                    Metric {
                        name,
                        unit,
                        value: finite(value),
                        s: Summary::of(&xs),
                    }
                })
                .collect()
        });

        Report {
            workload,
            attempted,
            failed,
            digest,
            e2e,
            layer,
            extra,
            self_times: spans
                .self_times()
                .into_iter()
                .map(|(name, ns)| (name, secs(ns)))
                .collect(),
            min_coverage: spans.rep_coverage().into_iter().fold(1.0, f64::min),
            problems,
        }
    }

    /// Failed ÷ attempted operations.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable report: one `<kind> <name> = <value> <unit>`
    /// line per metric, then the digest, failures and span self times.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let reps = self.e2e.first().map_or(0, |m| m.s.n);
        let _ = writeln!(
            s,
            "== {}: {reps} measured reps after 1 warm-up ==",
            self.workload.name()
        );
        for (kind, list) in [
            ("e2e", &self.e2e),
            ("layer", &self.layer),
            ("extra", &self.extra),
        ] {
            for m in list {
                let _ = writeln!(
                    s,
                    "{kind} {} = {} {}  (per rep: median {}, min {}, max {}, n {})",
                    m.name, m.value, m.unit, m.s.median, m.s.min, m.s.max, m.s.n
                );
            }
        }
        let _ = writeln!(s, "model_digest = {:#018x}", self.digest);
        let _ = writeln!(
            s,
            "fail_frac = {} ({} failed of {} attempted)",
            self.fail_frac(),
            self.failed,
            self.attempted
        );
        for p in &self.problems {
            let _ = writeln!(s, "problem: {p}");
        }
        for (name, t) in &self.self_times {
            let _ = writeln!(s, "self {name} = {t} s");
        }
        let _ = writeln!(s, "span_coverage_min = {}", self.min_coverage);
        s
    }

    /// The one-line result: end-to-end metrics, or per-layer ones when
    /// `trace` is set.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace { &self.layer } else { &self.e2e };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }

    /// Every metric with its per-rep summary, for the results file.
    pub fn results_json(&self, seed: u64, smoke: bool) -> String {
        let list = |ms: &[Metric]| {
            ms.iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"unit\": \"{}\", \"value\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
                        m.name, m.unit, m.value, m.s.median, m.s.min, m.s.max, m.s.n
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let self_times = self
            .self_times
            .iter()
            .map(|(n, t)| format!("\"{n}\": {t}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"smoke\": {smoke}, \"attempted\": {}, \"failed\": {}, \"model_digest\": \"{:#018x}\", \"e2e\": {{{}}}, \"layer\": {{{}}}, \"extra\": {{{}}}, \"self_s\": {{{self_times}}}, \"span_coverage_min\": {}}}\n",
            self.workload.name(),
            self.attempted,
            self.failed,
            self.digest,
            list(&self.e2e),
            list(&self.layer),
            list(&self.extra),
            self.min_coverage
        )
    }
}

/// Peak resident set of this process since start or since the last
/// [`reset_peak_rss`] (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Restart [`peak_rss_mb`] from the current resident set, so each rep
/// reports its own peak rather than one that grows with the rep count.
/// Where the kernel refuses, the peak stays process-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_sample_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        let s = Summary::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn peak_rss_is_per_rep_after_a_reset() {
        let before = peak_rss_mb().expect("Linux /proc");
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        assert!(peak_rss_mb().expect("read") >= before + 60.0);
        reset_peak_rss();
        assert!(peak_rss_mb().expect("read") < before + 60.0);
    }
}
