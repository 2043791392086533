//! `hasco-perfbench` — the end-to-end and per-layer benchmark of the
//! HASCO co-design stack.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run repeats untraced passes over the workload's
//! requests for `--seconds` and reports the end-to-end metrics. With
//! `--trace 1` it runs one untraced and one traced pass and reports the
//! per-layer split. Every pass is checked (see `check.rs`); the last
//! line of standard output is one JSON object, and any failed check
//! makes the exit code non-zero. `perfbench/README.md` documents the
//! workloads and metrics.

mod check;
mod report;
mod sample;
mod stats;
mod swmap;
mod t3;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use trace::{secs, Clock};

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for persisted images (inside the checkout).
    pub work_dir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["t3-analytic-cold", "t3-staged-warm", "sw-map"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = sample::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work_dir = PathBuf::from("perfbench/work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                };
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
    })
}

/// Worker threads per job: every core, with one job slot.
pub fn threads() -> usize {
    runtime::resolve_threads(0)
}

/// Runs `setup` `times` times and returns the last result with every
/// set-up's wall time.
pub fn repeat_setup<S>(
    times: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let clock = Clock::new();
    let mut durations = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let start = clock.ns();
        last = Some(setup()?);
        durations.push(secs(start, clock.ns()));
    }
    Ok((last.expect("at least one set-up ran"), durations))
}

/// Runs passes until `seconds` have elapsed and at least `min_passes`
/// have run.
pub fn measure<P>(seconds: f64, min_passes: usize, mut pass: impl FnMut() -> P) -> Vec<P> {
    let clock = Clock::new();
    let mut out = Vec::new();
    while out.len() < min_passes || (clock.ns() as f64) / 1e9 < seconds {
        out.push(pass());
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hasco-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result: Result<Report, String> = match args.workload.as_str() {
        "t3-analytic-cold" => t3::run(t3::Mode::AnalyticCold, &args),
        "t3-staged-warm" => t3::run(t3::Mode::StagedWarm, &args),
        _ => swmap::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hasco-perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} on {} thread(s), trace {}",
        args.workload,
        args.seed,
        threads(),
        u8::from(args.trace)
    );
    for line in &report.notes {
        println!("{line}");
    }
    let failed = report.failures.len();
    println!(
        "failed_ratio   {} ({failed} of {} attempted)",
        failed as f64 / report.attempted.max(1) as f64,
        report.attempted
    );
    for f in report.failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    for m in &report.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
