//! `svbench`: run the benchmark's workloads and print their metrics.
//!
//! ```text
//! svbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! ```
//!
//! With `--workload`, the process runs that one workload: a warm-up rep,
//! then measured reps until `--seconds` have passed (at least three). It
//! prints every metric as `<kind> <name> = <value> <unit>`, writes them
//! to `DIR/<workload>-seed<N>.json`, and ends with one JSON line holding
//! the end-to-end metrics, or the per-layer ones under `--trace 1`, which
//! also writes the spans as Chrome trace JSON. Without `--workload`,
//! every workload runs in a child process of its own, one at a time; with
//! `--trace 1` each runs untraced and then traced, and the tracing
//! overhead is printed.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use svbench::report::{peak_rss_mb, Report};
use svbench::spans::Spans;
use svbench::workloads::{Bench, Config, Workload};

const USAGE: &str =
    "usage: svbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n\
workloads: pairs_2048 ring_256_w2 tenants_16x64 incast_qos_64 blockxfer_fig34 ckpt_512";

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            smoke: false,
            out: PathBuf::from("target/svbench"),
        };
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                a.smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    a.workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
                }
                "--seed" => a.seed = number()?,
                "--seconds" => a.seconds = Some(number()?),
                "--trace" => {
                    a.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                "--out" => a.out = PathBuf::from(value),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(a)
    }

    /// Measured wall time per workload: 15 s, or just the minimum reps
    /// under `--smoke`.
    fn seconds(&self) -> u64 {
        self.seconds.unwrap_or(if self.smoke { 0 } else { 15 })
    }
}

/// Run one workload in this process.
fn run_one(w: Workload, a: &Args) -> Result<(), String> {
    peak_rss_mb()?;
    let cfg = Config::new(a.seed, a.smoke);
    let min_reps = if a.smoke { 2 } else { 3 };
    let mut spans = Spans::new();
    let reps = Bench::new(w, cfg).run(&mut spans, a.seconds() as f64, min_reps);
    let report = Report::new(w, &spans, &reps);
    print!("{}", report.render());

    std::fs::create_dir_all(&a.out).map_err(|e| format!("creating {}: {e}", a.out.display()))?;
    let stem = format!(
        "{}-seed{}{}{}",
        w.name(),
        a.seed,
        if a.smoke { "-smoke" } else { "" },
        if a.trace { "-traced" } else { "" }
    );
    let results = a.out.join(format!("{stem}.json"));
    std::fs::write(&results, report.results_json(a.seed, a.smoke))
        .map_err(|e| format!("writing {}: {e}", results.display()))?;
    if a.trace {
        let path = a.out.join(format!("{stem}.trace.json"));
        spans
            .write_chrome(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace = {}", path.display());
    }
    println!("{}", report.result_line(a.trace));
    Ok(())
}

/// What the parent keeps of a child's output.
struct ChildRun {
    /// `e2e` metrics: name, value, unit.
    e2e: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
    digest: String,
}

/// Run workload `w` in a child process, echoing its output.
fn child(exe: &Path, a: &Args, w: Workload, trace: bool) -> Result<ChildRun, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &a.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out)
        .stdout(Stdio::piped());
    if let Some(s) = a.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if a.smoke {
        cmd.arg("--smoke");
    }
    let mut proc = cmd
        .spawn()
        .map_err(|e| format!("starting {}: {e}", exe.display()))?;
    let stdout = proc.stdout.take().expect("stdout is piped");
    let mut run = ChildRun {
        e2e: Vec::new(),
        attempted: 0,
        failed: 0,
        digest: String::new(),
    };
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading {}'s output: {e}", w.name()))?;
        println!("{line}");
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["e2e", name, "=", v, unit, ..] => {
                run.e2e
                    .push((name.to_string(), v.parse().unwrap_or(0.0), unit.to_string()));
            }
            ["model_digest", "=", d] => run.digest = d.to_string(),
            ["fail_frac", "=", _, f, "failed", "of", n, "attempted)"] => {
                run.failed = f.trim_start_matches('(').parse().unwrap_or(0);
                run.attempted = n.parse().unwrap_or(0);
            }
            _ => {}
        }
    }
    let status = proc
        .wait()
        .map_err(|e| format!("waiting for {}: {e}", w.name()))?;
    if !status.success() {
        return Err(format!("{} exited with {status}", w.name()));
    }
    Ok(run)
}

/// Run every workload, each in its own child process, one at a time.
fn run_all(a: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating svbench: {e}"))?;
    let mut summary = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let plain = child(&exe, a, w, false)?;
        if a.trace {
            let traced = child(&exe, a, w, true)?;
            for ((name, v, _), (_, tv, _)) in plain.e2e.iter().zip(&traced.e2e) {
                let pct = (tv / v - 1.0) * 100.0;
                summary.push(format!("overhead {} {name} = {pct:+.2}%", w.name()));
            }
        }
        attempted += plain.attempted;
        failed += plain.failed;
        let cols: Vec<String> = plain
            .e2e
            .iter()
            .map(|(n, v, u)| format!("{n} {v:.4} {u}"))
            .collect();
        summary.push(format!(
            "summary {}: {}; {} failed of {}; model_digest {}",
            w.name(),
            cols.join(", "),
            plain.failed,
            plain.attempted,
            plain.digest
        ));
        for (n, v, u) in plain.e2e {
            metrics.push(format!(
                "\"{}.{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}",
                w.name()
            ));
        }
    }
    for line in summary {
        println!("{line}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        metrics.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("svbench: {e}");
            ExitCode::FAILURE
        }
    }
}
