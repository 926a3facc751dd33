//! `campaign-bench`: the end-to-end and per-layer benchmark of a cochar
//! consolidation campaign.
//!
//! ```text
//! cargo run --release --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload heatmap-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds` with
//! tracing off; `--trace 1` runs a fixed number of traced jobs and
//! reports the per-layer metrics. Either way the last line of standard
//! output is the JSON result. Scratch stores live under
//! `.campaign-bench/` in the working directory and are removed on exit;
//! a traced run leaves its spans there. See README.md for the workloads
//! and what each metric should move.

mod campaign;
mod report;
mod spans;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use campaign::{Bench, Workload, DEFAULT_SEED};
use cochar_fabric::{run_worker, WorkerConfig};
use report::Report;

/// First argument that turns this binary into a fabric worker: the
/// sweep-cold coordinator re-runs the benchmark itself as its workers.
pub const WORKER_ARG: &str = "fabric-worker";

/// Output directory, relative to the working directory.
const OUT_DIR: &str = ".campaign-bench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Engine phase statistics and chaos injection change the program being
/// measured; refuse to measure while any of them is armed.
fn check_environment() -> Result<(), String> {
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy();
        if key == "COCHAR_ENGINE_STATS" || key.starts_with("COCHAR_CHAOS_") {
            return Err(format!(
                "{key} is set; unset it to measure the shipped program"
            ));
        }
    }
    Ok(())
}

/// The process's high-water resident set, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args, out_dir: &Path, scratch: PathBuf) -> Result<Report, String> {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let bench = Bench::new(args.seed, host_cpus, scratch, exe);
    let mut report = Report::default();
    report.notes.push(format!(
        "workload {} seed {} trace {} host_cpus {host_cpus}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if args.trace {
        campaign::run_traced(&bench, args.workload, out_dir, &mut report)?;
    } else {
        let timed = campaign::run_timed(&bench, args.workload, args.seconds, &mut report)?;
        campaign::end_to_end(&timed, peak_rss_mb()?, &mut report);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(WORKER_ARG) {
        return worker(&argv[1..]);
    }
    let args = match parse_args(&argv).and_then(|a| check_environment().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = match std::env::current_dir() {
        Ok(cwd) => cwd.join(OUT_DIR),
        Err(e) => {
            eprintln!("campaign-bench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("campaign-bench: creating {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    // Libraries and fabric workers put their own scratch stores under
    // the temp dir; keep those inside the working directory too. No
    // thread exists yet, so changing the environment is safe.
    std::env::set_var("TMPDIR", &scratch);
    let result = run(&args, &out_dir, scratch.clone());
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(&out_dir);
    match result {
        Ok(report) => {
            for line in report.render() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Worker mode: the flags `run_campaign` appends to a worker command.
fn worker(args: &[String]) -> ExitCode {
    let mut cfg = WorkerConfig::new(String::new());
    let mut it = args.iter();
    while let (Some(flag), Some(value)) = (it.next(), it.next()) {
        match flag.as_str() {
            "--connect" => cfg.connect = value.clone(),
            "--worker-store" => cfg.store_dir = Some(PathBuf::from(value)),
            "--label" => cfg.label = value.clone(),
            "--pin-cpu" => cfg.pin_cpu = value.parse().ok(),
            _ => {
                eprintln!("campaign-bench worker: unknown flag {flag}");
                return ExitCode::from(2);
            }
        }
    }
    match run_worker(&cfg) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign-bench worker {}: {e}", cfg.label);
            ExitCode::FAILURE
        }
    }
}
