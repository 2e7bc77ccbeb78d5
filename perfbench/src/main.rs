//! SSDM benchmark: one command, three closed-loop workloads over
//! seeded BISTAB-shaped data, every answer checked against an oracle.
//!
//! ```text
//! ssdm-perfbench --workload interactive|analytic|ingest --seed N
//!                --seconds S --trace 0|1 [--quick]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `README.md` next to this crate for the workloads and metrics.

mod analytic;
mod gen;
mod ingest;
mod interactive;
mod metrics;
mod net;
mod ops;
mod probes;
mod served;
mod setup;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

use metrics::Outcome;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny data and short windows: the self-test size.
    pub quick: bool,
    /// Per-run scratch directory (removed on exit).
    pub run_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ssdm-perfbench --workload interactive|analytic|ingest --seed N --seconds S \
         --trace 0|1 [--quick]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("--seconds takes a number")),
                )
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--quick" => quick = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !["interactive", "analytic", "ingest"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let run_dir =
        PathBuf::from(".perfbench-run").join(format!("{workload}-{}", std::process::id()));
    Args {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        workload,
        seconds,
        quick,
        run_dir,
    }
}

/// The checkout's revision, read from `.git` without running git.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".to_string(),
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
            })
            .unwrap_or_else(|| format!("unknown ({r})")),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, m)| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_environment(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} quick={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );
    println!(
        "perfbench: rev={} nproc={nproc} cpu={:?}",
        git_revision(),
        cpu_model()
    );
    let mut env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SSDM_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    env.sort();
    if env.is_empty() {
        println!("perfbench: env no SSDM_* variables set");
    } else {
        println!(
            "perfbench: env {} (overridden by the pinned configuration)",
            env.join(" ")
        );
    }
}

/// Removes the run directory however the run ends.
struct RunDir<'a>(&'a Path);

impl Drop for RunDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let args = parse_args();
    print_environment(&args);
    std::fs::create_dir_all(&args.run_dir).expect("create run directory");
    let _cleanup = RunDir(&args.run_dir);
    let outcome: Outcome = match args.workload.as_str() {
        "interactive" => interactive::run(&args),
        "analytic" => analytic::run(&args),
        _ => ingest::run(&args),
    };
    outcome.print(args.trace);
}
