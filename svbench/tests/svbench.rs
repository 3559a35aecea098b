//! End-to-end checks of the `svbench` binary and its span recorder on
//! the smoke-sized workloads.

use std::path::{Path, PathBuf};
use std::process::Command;

use svbench::spans::Spans;
use svbench::workloads::{Bench, Config, Workload};
use voyager::Parallelism;

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test output dir");
    dir
}

/// Run the binary; return its stdout, which must end in a result line.
fn svbench(args: &[&str], out: &Path) -> String {
    let o = Command::new(env!("CARGO_BIN_EXE_svbench"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("run svbench");
    let stdout = String::from_utf8(o.stdout).expect("utf-8 output");
    assert!(
        o.status.success(),
        "svbench {args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&o.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "result line: {last}"
    );
    stdout
}

/// `(name, unit)` of every metric listed under `section` in the
/// repository's `BENCHMARK.json`.
fn listed_metrics(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// The `model_digest` line of each workload, in run order.
fn digests(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("model_digest = "))
        .map(str::to_string)
        .collect()
}

#[test]
fn smoke_prints_every_metric_with_its_unit_and_fails_nothing() {
    let out = out_dir("smoke");
    let traced = svbench(&["--smoke", "--trace", "1"], &out);
    let plain = svbench(&["--smoke"], &out);

    for w in Workload::ALL {
        let report = traced
            .split("== ")
            .find(|s| s.starts_with(w.name()))
            .unwrap_or_else(|| panic!("{} ran", w.name()));
        for (kind, section) in [("e2e", "end_to_end"), ("layer", "per_layer")] {
            for (name, unit) in listed_metrics(section) {
                let prefix = format!("{kind} {name} = ");
                let line = report
                    .lines()
                    .find(|l| l.starts_with(&prefix))
                    .unwrap_or_else(|| panic!("{}: no {kind} {name}", w.name()));
                let value = line[prefix.len()..].split(' ').next().expect("value");
                value.parse::<f64>().expect("numeric value");
                assert!(
                    line[prefix.len()..].split(' ').nth(1) == Some(unit.as_str()),
                    "{}: {line} should be in {unit}",
                    w.name()
                );
            }
        }
        assert!(
            report
                .lines()
                .any(|l| l.starts_with("fail_frac = 0 (0 failed")),
            "{} failed operations",
            w.name()
        );
        assert!(traced.contains(&format!("overhead {} rep_s = ", w.name())));
    }

    // Two traced-and-untraced runs per workload in the first invocation,
    // one untraced in the second: all agree.
    let (t, p) = (digests(&traced), digests(&plain));
    assert_eq!(t.len(), 12);
    assert_eq!(p.len(), 6);
    for (i, d) in p.iter().enumerate() {
        assert_eq!(&t[2 * i], d, "untraced digest repeats");
        assert_eq!(&t[2 * i + 1], d, "traced digest equals untraced");
    }

    let reseeded = svbench(&["--smoke", "--seed", "2"], &out);
    for (a, b) in digests(&reseeded).iter().zip(&p) {
        assert_ne!(a, b, "a new seed makes new inputs");
    }
}

#[test]
fn ring_digest_is_the_same_on_one_worker_and_two() {
    let digest = |par: Parallelism| {
        let cfg = Config {
            ring_par: par,
            ..Config::new(1, true)
        };
        let rep = Bench::new(Workload::Ring, cfg).rep(&mut Spans::new(), 1);
        assert_eq!(rep.failed, 0);
        rep.digest
    };
    assert_eq!(
        digest(Parallelism::Sequential),
        digest(Parallelism::Fixed(2))
    );
}

#[test]
fn spans_cover_each_rep_and_the_trace_is_written_once_at_exit() {
    let out = out_dir("spans");
    for w in Workload::ALL {
        let mut spans = Spans::new();
        let reps = Bench::new(w, Config::new(1, true)).run(&mut spans, 0.0, 2);
        assert_eq!(reps.len(), 2);
        for (r, cov) in spans.rep_coverage().into_iter().enumerate() {
            assert!(cov >= 0.95, "{} rep {r}: spans cover {cov}", w.name());
        }
        for (id, s) in spans.spans().iter().enumerate() {
            assert!(s.end_ns >= s.start_ns);
            assert!(
                spans.self_ns(id) + children_ns(&spans, id) == s.dur_ns(),
                "{}: children of {} overrun it",
                w.name(),
                s.name
            );
            if let Some(rep) = s.rep {
                let rep_span = spans.reps()[rep as usize];
                assert!(s.name == "rep" || is_inside(&spans, id, rep_span));
            }
        }

        let path = out.join(format!("{}.trace.json", w.name()));
        assert!(!path.exists(), "nothing is written while the run goes on");
        let n = spans.spans().len();
        spans.write_chrome(&path).expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        assert_eq!(text.matches("\"ph\":\"X\"").count(), n);
        assert_eq!(text.matches("\"name\":\"rep\"").count(), 3, "warm-up + 2");
    }
}

fn children_ns(spans: &Spans, id: usize) -> u64 {
    spans
        .spans()
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.dur_ns())
        .sum()
}

fn is_inside(spans: &Spans, mut id: usize, ancestor: usize) -> bool {
    while let Some(p) = spans.spans()[id].parent {
        if p == ancestor {
            return true;
        }
        id = p;
    }
    false
}
