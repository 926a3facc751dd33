//! `cochar bench --cluster` — the cluster event loop's speed harness
//! behind `BENCH_cluster.json`.
//!
//! Runs the `cluster compare` acceptance sweep — every policy ×
//! {measured, predicted} knowledge at 1000 nodes × 2 slots, 10 000 jobs,
//! job seed 7, the command's defaults otherwise — on a fixed 5×5 matrix
//! pair, so no machine simulation runs and the wall time is the event
//! loop alone.
//!
//! Each entry records two deterministic fields, gated exactly: the
//! number of jobs simulated and a stable hash of the rendered regret
//! report (JSON then CSV). Two timings, gated within `--tolerance`:
//! µs per simulated job and jobs per second, from the best of `--reps`
//! sweeps. `host_cpus` rides along so a reader can tell which host a
//! timing came from. `--pin ID` and `--check` work as in the engine
//! harness ([`super::bench`]).

use std::process::ExitCode;
use std::time::Instant;

use cochar_cluster::{compare_sweep, Compose, RegretReport, Scenario, SimConfig, Workload};
use cochar_machine::StableHasher;
use cochar_sched::CostMatrix;
use cochar_store::json::Json;

use super::bench::{check_params, entries_of, read_file, round3};
use crate::opts::Opts;

/// Schema marker of the trajectory file.
const SCHEMA: &str = "cochar-bench-cluster v1";

const APPS: [&str; 5] = ["G-CC", "CIFAR", "mcf", "fotonik3d", "LSTM"];
const NODES: usize = 1000;
const SLOTS: usize = 2;
const JOBS: usize = 10_000;
const SEED: u64 = 7;
const UTIL: f64 = 0.7;
const MEAN_WORK: f64 = 8.0;
const QOS_CAP: f64 = 1.5;
const SLO_STRETCH: f64 = 2.0;
const DEFRAG_PERIOD: f64 = 25.0;

/// The truth matrix (row: victim, column: co-runner).
const TRUTH: [[f64; 5]; 5] = [
    [1.32, 1.08, 1.41, 1.87, 1.12],
    [1.05, 1.10, 1.06, 1.21, 1.03],
    [1.29, 1.07, 1.38, 1.66, 1.09],
    [1.11, 1.02, 1.19, 1.47, 0.98],
    [1.04, 1.06, 1.05, 1.13, 1.02],
];

/// A perturbed copy standing in for the predictor's output.
const PREDICTED: [[f64; 5]; 5] = [
    [1.27, 1.11, 1.36, 1.79, 1.15],
    [1.07, 1.08, 1.09, 1.25, 1.04],
    [1.33, 1.05, 1.44, 1.58, 1.10],
    [1.14, 1.04, 1.16, 1.52, 1.01],
    [1.03, 1.09, 1.07, 1.18, 1.04],
];

fn matrix(slow: &[[f64; 5]; 5]) -> CostMatrix {
    CostMatrix {
        names: APPS.iter().map(|s| s.to_string()).collect(),
        slow: slow.iter().map(|row| row.to_vec()).collect(),
    }
}

/// One measurement: best sweep wall time plus the deterministic fields.
struct Measured {
    sim_s: f64,
    jobs: u64,
    report_hash: String,
    host_cpus: u64,
}

impl Measured {
    fn us_per_job(&self) -> f64 {
        round3(self.sim_s * 1e6 / self.jobs as f64)
    }
    fn jobs_per_sec(&self) -> f64 {
        round3(self.jobs as f64 / self.sim_s)
    }
}

pub fn run(opts: &Opts, pin: Option<&str>, reps: u32, tolerance: f64) -> Result<ExitCode, String> {
    let path = opts.flag("json").unwrap_or("BENCH_cluster.json");
    let m = measure(reps)?;
    println!(
        "bench: cluster event loop ({reps} rep(s), best wall time, host has {} cpu(s))",
        m.host_cpus
    );
    println!(
        "  {} jobs in {:.3}s = {:.3} us/job, {:.1} jobs/s",
        m.jobs,
        m.sim_s,
        m.us_per_job(),
        m.jobs_per_sec()
    );
    println!("  report hash {}", m.report_hash);

    let existing = read_file(path)?;
    match (pin, existing) {
        (Some(id), existing) => {
            let doc = pin_entry(existing, &m, id)?;
            std::fs::write(path, doc.render() + "\n")
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("bench: pinned cluster entry {id:?} in {path}");
            Ok(ExitCode::SUCCESS)
        }
        (None, Some(doc)) => check_against(&doc, &m, tolerance),
        (None, None) => {
            println!("bench: no {path} yet; rerun with --pin <id> to record a baseline");
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Runs the sweep `reps` times; the wall time keeps the best rep, the
/// report hash must agree across reps exactly.
fn measure(reps: u32) -> Result<Measured, String> {
    let (truth, predicted) = (matrix(&TRUTH), matrix(&PREDICTED));
    let rate = Workload::rate_for_utilization(UTIL, NODES, SLOTS, MEAN_WORK);
    let jobs = Workload { arrival_rate: rate, mean_work: MEAN_WORK, seed: SEED }
        .generate(JOBS, APPS.len());
    let cfg = SimConfig {
        nodes: NODES,
        slots: SLOTS,
        qos_cap: QOS_CAP,
        slo_stretch: SLO_STRETCH,
        compose: Compose::Max,
        defrag_period: Some(DEFRAG_PERIOD),
        ..SimConfig::default()
    };
    let scenario = Scenario {
        nodes: NODES,
        slots: SLOTS,
        jobs: JOBS,
        seed: SEED,
        arrival_rate: rate,
        mean_work: MEAN_WORK,
        qos_cap: QOS_CAP,
        slo_stretch: SLO_STRETCH,
        compose: Compose::Max.to_string(),
        defrag_period: Some(DEFRAG_PERIOD),
        apps: APPS.iter().map(|s| s.to_string()).collect(),
    };
    let mut best: Option<Measured> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let runs = compare_sweep(&truth, &predicted, &jobs, &cfg, SEED)
            .map_err(|e| e.to_string())?;
        let sim_s = t0.elapsed().as_secs_f64();
        let simulated = runs.iter().map(|r| r.outcome.jobs as u64).sum();
        let report = RegretReport::new(scenario.clone(), runs);
        let mut hasher = StableHasher::new();
        hasher.write_str(&report.to_json());
        hasher.write_str(&report.to_csv());
        let rep = Measured {
            sim_s,
            jobs: simulated,
            report_hash: format!("{:016x}", hasher.finish()),
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        };
        best = Some(match best {
            None => rep,
            Some(prev) if (prev.jobs, &prev.report_hash) != (rep.jobs, &rep.report_hash) => {
                return Err(format!(
                    "nondeterministic cluster sweep between reps: \
                     {} jobs hash {} vs {} jobs hash {}",
                    prev.jobs, prev.report_hash, rep.jobs, rep.report_hash
                ));
            }
            Some(prev) => Measured { sim_s: prev.sim_s.min(rep.sim_s), ..rep },
        });
    }
    Ok(best.expect("reps >= 1"))
}

/// The scenario parameters that must match for entries (and checks) to
/// be comparable.
fn params_json() -> Vec<(String, Json)> {
    vec![
        ("apps".into(), Json::Arr(APPS.iter().map(|a| Json::str(*a)).collect())),
        ("nodes".into(), Json::u64(NODES as u64)),
        ("slots".into(), Json::u64(SLOTS as u64)),
        ("jobs_per_run".into(), Json::u64(JOBS as u64)),
        ("seed".into(), Json::u64(SEED)),
        ("compose".into(), Json::str(Compose::Max.as_str())),
    ]
}

/// Appends (or replaces, same id) an entry.
fn pin_entry(existing: Option<Json>, m: &Measured, id: &str) -> Result<Json, String> {
    let mut entries = match &existing {
        Some(doc) => {
            check_params(doc, &params_json())?;
            entries_of(doc)?
        }
        None => Vec::new(),
    };
    entries.retain(|e| e.get("id").and_then(|v| v.as_str().ok()) != Some(id));
    let mut entry = vec![
        ("id".into(), Json::str(id)),
        ("sim_s".into(), Json::f64(round3(m.sim_s))),
        ("jobs".into(), Json::u64(m.jobs)),
        ("us_per_job".into(), Json::f64(m.us_per_job())),
        ("jobs_per_sec".into(), Json::f64(m.jobs_per_sec())),
        ("report_hash".into(), Json::str(&m.report_hash)),
        ("host_cpus".into(), Json::u64(m.host_cpus)),
    ];
    if let Some(baseline) = entries.first() {
        let base = baseline.field("us_per_job").and_then(|v| v.as_f64());
        let base = base.map_err(|e| format!("bench file: {e}"))?;
        let speedup = base / m.us_per_job();
        println!("bench: cluster speedup vs baseline entry: {speedup:.2}x");
        entry.push(("speedup_vs_baseline".into(), Json::f64(round3(speedup))));
    }
    entries.push(Json::Obj(entry));
    let mut pairs = vec![("schema".into(), Json::str(SCHEMA))];
    pairs.extend(params_json());
    pairs.push(("entries".into(), Json::Arr(entries)));
    Ok(Json::Obj(pairs))
}

/// Compares a fresh measurement against the last pinned entry: jobs and
/// report hash exactly (exit 4), both timings within `tolerance` (exit 5).
fn check_against(doc: &Json, m: &Measured, tolerance: f64) -> Result<ExitCode, String> {
    check_params(doc, &params_json())?;
    let entries = entries_of(doc)?;
    let last = entries.last().ok_or("bench file has no entries; --pin one first")?;
    let id = last.field("id").and_then(|v| v.as_str()).unwrap_or("?").to_string();
    let num = |key: &str| last.field(key).and_then(|v| v.as_f64()).map_err(|e| e.to_string());
    let want_jobs = last.field("jobs").and_then(|v| v.as_u64()).map_err(|e| e.to_string())?;
    let want_hash =
        last.field("report_hash").and_then(|v| v.as_str()).map_err(|e| e.to_string())?;
    if want_jobs != m.jobs || want_hash != m.report_hash {
        eprintln!(
            "bench: CLUSTER DETERMINISM MISMATCH vs entry {id:?}: pinned {want_jobs} jobs \
             hash {want_hash}, measured {} jobs hash {}",
            m.jobs, m.report_hash
        );
        eprintln!("bench: the regret report changed; re-pin deliberately");
        return Ok(ExitCode::from(4));
    }
    let us_ceiling = num("us_per_job")? * (1.0 + tolerance);
    let jobs_floor = num("jobs_per_sec")? * (1.0 - tolerance);
    if m.us_per_job() > us_ceiling || m.jobs_per_sec() < jobs_floor {
        eprintln!(
            "bench: CLUSTER REGRESSION vs entry {id:?}: {:.3} us/job (ceiling {us_ceiling:.3}), \
             {:.1} jobs/s (floor {jobs_floor:.1}), tolerance {:.0}%",
            m.us_per_job(),
            m.jobs_per_sec(),
            tolerance * 100.0
        );
        return Ok(ExitCode::from(5));
    }
    println!(
        "bench: cluster OK vs entry {id:?}: report hash matches, {:.3} us/job \
         (ceiling {us_ceiling:.3}), {:.1} jobs/s (floor {jobs_floor:.1})",
        m.us_per_job(),
        m.jobs_per_sec()
    );
    Ok(ExitCode::SUCCESS)
}
