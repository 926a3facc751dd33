//! `cochar bench` — the engine speed harness behind `BENCH_engine.json`.
//!
//! Measures the simulator's end-to-end throughput in two phases:
//!
//! * **solo**: every app of a fixed cross-domain set run alone (one run =
//!   one *cell*), the shape `cochar solo` and signature collection use;
//! * **pair**: a full FG×BG sweep over a 4-app subset (16 cells), the
//!   shape every heatmap campaign is built from.
//!
//! Reported per phase: cells/sec (wall) and simulated cycles/sec (how
//! much machine time the engine retires per wall second), plus two
//! *deterministic* workload fields — total simulated cycles and a stable
//! hash over every run's canonical-JSON `RunOutcome` encoding — which
//! must be byte-identical across reruns at a fixed seed. Nondeterminism
//! between measurement reps is a hard error, never averaged away.
//!
//! Modes:
//!
//! * `--pin ID` measures and appends (or replaces) an entry in the JSON
//!   trajectory file, recording the PR-over-PR perf history;
//! * `--check` (the default when the file exists) measures and compares
//!   against the **last** pinned entry: deterministic fields must match
//!   exactly, and neither pair nor solo cells/sec may regress by more
//!   than `--tolerance` (default 0.10). Both phases gate: a change that
//!   speeds the contended sweep by slowing every solo run (or vice
//!   versa) is a trade-off to make deliberately via `--pin`, not an
//!   accident to slip through. The file is never rewritten, so reruns
//!   leave it byte-identical.
//!
//! `--campaign` measures the fabric's worker scaling instead, and
//! `--cluster` the cluster event loop ([`super::cluster_bench`], its own
//! `BENCH_cluster.json` trajectory).
//!
//! The run store is deliberately rejected here: cached runs would
//! measure the journal, not the engine.

use std::process::ExitCode;
use std::time::Instant;

use cochar_machine::StableHasher;
use cochar_store::codec::encode_outcome;
use cochar_store::json::Json;

use crate::opts::Opts;

/// Default work scale: smoke-sized so the harness (and the CI check)
/// completes in seconds while still simulating hundreds of Mcycles.
pub const DEFAULT_WORK: f64 = 0.25;

/// Schema marker of the trajectory file.
const SCHEMA: &str = "cochar-bench-engine v1";

/// Solo phase: one run per app, cross-domain (graph, DL, PARSEC, SPEC,
/// HPC) so the measurement covers latency-bound, bandwidth-bound, and
/// compute-bound engine behaviour.
const SOLO_APPS: [&str; 10] = [
    "G-PR", "G-CC", "P-PR", "CIFAR", "LSTM", "blackscholes", "streamcluster", "mcf",
    "fotonik3d", "AMG2006",
];

/// Pair phase: FG×BG over offenders and victims — 16 co-run cells.
const PAIR_APPS: [&str; 4] = ["G-CC", "CIFAR", "mcf", "fotonik3d"];

/// Campaign phase (`--campaign`): the fabric's scaling measurement —
/// a 25-cell heatmap sharded over 1/2/4/8 worker processes.
const CAMPAIGN_APPS: [&str; 5] = ["G-CC", "CIFAR", "mcf", "fotonik3d", "LSTM"];

/// Worker counts of the campaign scaling series.
const CAMPAIGN_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// One full measurement at the current build.
struct Measured {
    solo_wall_s: f64,
    pair_wall_s: f64,
    solo_sim_cycles: u64,
    pair_sim_cycles: u64,
    outcome_hash: String,
}

impl Measured {
    fn solo_cells_per_sec(&self) -> f64 {
        round3(SOLO_APPS.len() as f64 / self.solo_wall_s)
    }
    fn pair_cells_per_sec(&self) -> f64 {
        round3(PAIR_APPS.len().pow(2) as f64 / self.pair_wall_s)
    }
    fn solo_sim_cycles_per_sec(&self) -> f64 {
        round3(self.solo_sim_cycles as f64 / self.solo_wall_s)
    }
    fn pair_sim_cycles_per_sec(&self) -> f64 {
        round3(self.pair_sim_cycles as f64 / self.pair_wall_s)
    }
}

pub(super) fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

pub fn run(opts: &Opts) -> Result<ExitCode, String> {
    if opts.flag("store").is_some() {
        return Err("bench measures the engine, not the journal: drop --store".into());
    }
    let path = opts.flag("json").unwrap_or("BENCH_engine.json").to_string();
    let reps: u32 = opts.flag_parse("reps", 2)?;
    let tolerance: f64 = opts.flag_parse("tolerance", 0.10)?;
    if reps == 0 {
        return Err("--reps must be positive".into());
    }
    let pin = opts.flag("pin");
    let check = opts.switch("check");
    if pin.is_some() && check {
        return Err("--pin and --check are mutually exclusive".into());
    }
    if opts.switch("campaign") {
        // The fabric scaling series is its own aspect: it measures
        // process-level parallelism, not single-engine throughput.
        return campaign(opts, &path, pin, check);
    }
    if opts.switch("cluster") {
        // The cluster event loop runs on a fixed matrix: no engine work.
        return super::cluster_bench::run(opts, pin, reps, tolerance);
    }

    let m = measure(opts, reps)?;
    println!("bench: engine throughput ({} rep(s), best wall time)", reps);
    println!(
        "  solo: {:>3} cells in {:.3}s = {:.3} cells/s, {:.1} Msim-cycles/s",
        SOLO_APPS.len(),
        m.solo_wall_s,
        m.solo_cells_per_sec(),
        m.solo_sim_cycles_per_sec() / 1e6,
    );
    println!(
        "  pair: {:>3} cells in {:.3}s = {:.3} cells/s, {:.1} Msim-cycles/s",
        PAIR_APPS.len().pow(2),
        m.pair_wall_s,
        m.pair_cells_per_sec(),
        m.pair_sim_cycles_per_sec() / 1e6,
    );
    println!("  outcome hash {}", m.outcome_hash);

    let existing = read_file(&path)?;
    match (pin, &existing) {
        (Some(id), _) => {
            let doc = pin_entry(opts, existing, &m, id)?;
            std::fs::write(&path, doc.render() + "\n")
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("bench: pinned entry {id:?} in {path}");
            Ok(ExitCode::SUCCESS)
        }
        (None, Some(doc)) => check_against(opts, doc, &m, tolerance),
        (None, None) => {
            println!("bench: no {path} yet; rerun with --pin <id> to record a baseline");
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Runs the two phases `reps` times on fresh studies; wall times keep the
/// best (min) rep, deterministic fields must agree across reps exactly.
fn measure(opts: &Opts, reps: u32) -> Result<Measured, String> {
    let mut best: Option<Measured> = None;
    for _ in 0..reps {
        let study = crate::build_study(opts, DEFAULT_WORK)?;
        for name in SOLO_APPS.iter().chain(PAIR_APPS.iter()) {
            if study.registry().get(name).is_none() {
                return Err(format!("bench app {name:?} missing from the registry"));
            }
        }

        let mut hasher = StableHasher::new();
        let mut solo_sim_cycles = 0u64;
        cochar_machine::engine_stats_reset();
        let t0 = Instant::now();
        for name in SOLO_APPS {
            let solo = study.solo(name);
            solo_sim_cycles += solo.outcome.horizon;
            hasher.write_str(&encode_outcome(&solo.outcome).render());
        }
        let solo_wall_s = t0.elapsed().as_secs_f64();
        // Phase shares ride along when COCHAR_ENGINE_STATS=1 (one line
        // per phase per rep); timer overhead inflates the wall numbers,
        // so stats-enabled runs are for steering, never for gating.
        if let Some(report) = cochar_machine::engine_stats_report() {
            eprintln!("  solo {report}");
        }

        let mut pair_sim_cycles = 0u64;
        cochar_machine::engine_stats_reset();
        let t0 = Instant::now();
        for fg in PAIR_APPS {
            for bg in PAIR_APPS {
                let pair = study.pair(fg, bg);
                pair_sim_cycles += pair.outcome.horizon;
                hasher.write_str(&encode_outcome(&pair.outcome).render());
            }
        }
        let pair_wall_s = t0.elapsed().as_secs_f64();
        if let Some(report) = cochar_machine::engine_stats_report() {
            eprintln!("  pair {report}");
        }

        let rep = Measured {
            solo_wall_s,
            pair_wall_s,
            solo_sim_cycles,
            pair_sim_cycles,
            outcome_hash: format!("{:016x}", hasher.finish()),
        };
        best = Some(match best {
            None => rep,
            Some(prev) => {
                if (prev.solo_sim_cycles, prev.pair_sim_cycles, &prev.outcome_hash)
                    != (rep.solo_sim_cycles, rep.pair_sim_cycles, &rep.outcome_hash)
                {
                    return Err(format!(
                        "nondeterministic workload between reps: \
                         {}/{} cycles, hash {} vs {}/{} cycles, hash {}",
                        prev.solo_sim_cycles,
                        prev.pair_sim_cycles,
                        prev.outcome_hash,
                        rep.solo_sim_cycles,
                        rep.pair_sim_cycles,
                        rep.outcome_hash
                    ));
                }
                Measured {
                    solo_wall_s: prev.solo_wall_s.min(rep.solo_wall_s),
                    pair_wall_s: prev.pair_wall_s.min(rep.pair_wall_s),
                    ..rep
                }
            }
        });
    }
    Ok(best.expect("reps >= 1"))
}

/// The measurement parameters that must match for entries (and checks)
/// to be comparable.
fn params_json(opts: &Opts) -> Result<Vec<(String, Json)>, String> {
    Ok(vec![
        ("machine".into(), Json::str(opts.flag("machine").unwrap_or("bench"))),
        ("work".into(), Json::f64(opts.flag_parse("work", DEFAULT_WORK)?)),
        ("threads".into(), Json::u64(opts.flag_parse("threads", 4u64)?)),
        ("trials".into(), Json::u64(opts.flag_parse("trials", 1u64)?)),
        ("seed".into(), Json::u64(opts.flag_parse("seed", 1u64)?)),
        ("solo_apps".into(), Json::Arr(SOLO_APPS.iter().map(|a| Json::str(*a)).collect())),
        ("pair_apps".into(), Json::Arr(PAIR_APPS.iter().map(|a| Json::str(*a)).collect())),
        ("solo_cells".into(), Json::u64(SOLO_APPS.len() as u64)),
        ("pair_cells".into(), Json::u64(PAIR_APPS.len().pow(2) as u64)),
    ])
}

fn entry_json(id: &str, m: &Measured, speedup: Option<f64>) -> Json {
    let mut pairs = vec![
        ("id".into(), Json::str(id)),
        ("solo_wall_s".into(), Json::f64(round3(m.solo_wall_s))),
        ("pair_wall_s".into(), Json::f64(round3(m.pair_wall_s))),
        ("solo_cells_per_sec".into(), Json::f64(m.solo_cells_per_sec())),
        ("pair_cells_per_sec".into(), Json::f64(m.pair_cells_per_sec())),
        ("solo_sim_cycles_per_sec".into(), Json::f64(m.solo_sim_cycles_per_sec())),
        ("pair_sim_cycles_per_sec".into(), Json::f64(m.pair_sim_cycles_per_sec())),
        ("solo_sim_cycles".into(), Json::u64(m.solo_sim_cycles)),
        ("pair_sim_cycles".into(), Json::u64(m.pair_sim_cycles)),
        ("outcome_hash".into(), Json::str(&m.outcome_hash)),
    ];
    if let Some(s) = speedup {
        pairs.push(("pair_speedup_vs_baseline".into(), Json::f64(round3(s))));
    }
    Json::Obj(pairs)
}

pub(super) fn read_file(path: &str) -> Result<Option<Json>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)
            .map(Some)
            .map_err(|e| format!("{path} is not valid bench JSON: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read {path}: {e}")),
    }
}

/// Errors unless `doc` was pinned with exactly these `params`: entries
/// measured under other parameters are not comparable.
pub(super) fn check_params(doc: &Json, params: &[(String, Json)]) -> Result<(), String> {
    for (key, want) in params {
        let found = doc.field(key).map_err(|e| format!("bench file: {e}"))?;
        if found.render() != want.render() {
            return Err(format!(
                "bench file was pinned with {key}={}, this run uses {}; \
                 delete the file to start a new trajectory",
                found.render(),
                want.render()
            ));
        }
    }
    Ok(())
}

pub(super) fn entries_of(doc: &Json) -> Result<Vec<Json>, String> {
    Ok(doc
        .field("entries")
        .and_then(|e| e.as_arr())
        .map_err(|e| format!("bench file: {e}"))?
        .to_vec())
}

/// Appends (or replaces, same id) an entry; verifies the file's recorded
/// parameters match the current invocation so entries stay comparable.
fn pin_entry(opts: &Opts, existing: Option<Json>, m: &Measured, id: &str) -> Result<Json, String> {
    let params = params_json(opts)?;
    let mut entries = match &existing {
        Some(doc) => {
            check_params(doc, &params)?;
            entries_of(doc)?
        }
        None => Vec::new(),
    };
    entries.retain(|e| e.get("id").and_then(|v| v.as_str().ok()) != Some(id));
    let speedup = entries.first().map(|baseline| -> Result<f64, String> {
        let base = baseline
            .field("pair_cells_per_sec")
            .and_then(|v| v.as_f64())
            .map_err(|e| format!("bench file: {e}"))?;
        Ok(m.pair_cells_per_sec() / base)
    });
    let speedup = speedup.transpose()?;
    if let Some(s) = speedup {
        println!("bench: pair-sweep speedup vs baseline entry: {s:.2}x");
    }
    entries.push(entry_json(id, m, speedup));

    let mut pairs = vec![("schema".into(), Json::str(SCHEMA))];
    pairs.extend(params);
    pairs.push(("entries".into(), Json::Arr(entries)));
    // A campaign section pinned by `--campaign --pin` rides along.
    if let Some(c) = existing.as_ref().and_then(|doc| doc.get("campaign")) {
        pairs.push(("campaign".into(), c.clone()));
    }
    Ok(Json::Obj(pairs))
}

/// Compares a fresh measurement against the last pinned entry:
/// deterministic fields exactly, throughput within `tolerance`.
fn check_against(
    opts: &Opts,
    doc: &Json,
    m: &Measured,
    tolerance: f64,
) -> Result<ExitCode, String> {
    check_params(doc, &params_json(opts)?)?;
    let entries = entries_of(doc)?;
    let last = entries.last().ok_or("bench file has no entries; --pin one first")?;
    let id = last.field("id").and_then(|v| v.as_str()).unwrap_or("?").to_string();
    let want_cycles = (
        last.field("solo_sim_cycles").and_then(|v| v.as_u64()).map_err(|e| e.to_string())?,
        last.field("pair_sim_cycles").and_then(|v| v.as_u64()).map_err(|e| e.to_string())?,
    );
    let want_hash =
        last.field("outcome_hash").and_then(|v| v.as_str()).map_err(|e| e.to_string())?;
    if want_cycles != (m.solo_sim_cycles, m.pair_sim_cycles) || want_hash != m.outcome_hash {
        eprintln!(
            "bench: DETERMINISM MISMATCH vs entry {id:?}: \
             pinned {}/{} cycles hash {}, measured {}/{} cycles hash {}",
            want_cycles.0,
            want_cycles.1,
            want_hash,
            m.solo_sim_cycles,
            m.pair_sim_cycles,
            m.outcome_hash
        );
        eprintln!("bench: the engine's measurement semantics changed; re-pin deliberately");
        return Ok(ExitCode::from(4));
    }
    // Both throughput phases gate within the same tolerance: pair (the
    // sweep shape campaigns run) and solo (the shape signature collection
    // runs). A regression in either is a failure even if the other holds.
    let gates = [
        ("pair", "pair_cells_per_sec", m.pair_cells_per_sec()),
        ("solo", "solo_cells_per_sec", m.solo_cells_per_sec()),
    ];
    let mut summary = Vec::new();
    for (phase, key, fresh) in gates {
        let base = last.field(key).and_then(|v| v.as_f64()).map_err(|e| e.to_string())?;
        let floor = base * (1.0 - tolerance);
        if fresh < floor {
            eprintln!(
                "bench: REGRESSION vs entry {id:?}: {fresh:.3} {phase} cells/s < {floor:.3} \
                 (pinned {base:.3}, tolerance {:.0}%)",
                tolerance * 100.0
            );
            return Ok(ExitCode::from(5));
        }
        summary.push(format!("{fresh:.3} {phase} cells/s (pinned {base:.3}, floor {floor:.3})"));
    }
    println!("bench: OK vs entry {id:?}: {}", summary.join(", "));
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// Campaign scaling (`--campaign`): cells/sec of one sharded sweep at
// 1/2/4/8 worker processes.

/// One campaign-scaling measurement: wall time per worker count plus the
/// deterministic CSV hash (identical across counts by construction).
struct CampaignMeasured {
    wall_s: Vec<f64>,
    csv_hash: String,
    host_cpus: u64,
}

impl CampaignMeasured {
    fn cells_per_sec(&self, i: usize) -> f64 {
        round3(CAMPAIGN_APPS.len().pow(2) as f64 / self.wall_s[i])
    }

    /// Throughput at `workers` relative to one worker.
    fn speedup(&self, workers: usize) -> Option<f64> {
        let i = CAMPAIGN_WORKERS.iter().position(|&w| w == workers)?;
        Some(round3(self.wall_s[0] / self.wall_s[i]))
    }
}

fn campaign(opts: &Opts, path: &str, pin: Option<&str>, check: bool) -> Result<ExitCode, String> {
    let m = measure_campaign(opts)?;
    println!(
        "bench: campaign scaling ({} cells, host has {} cpu(s))",
        CAMPAIGN_APPS.len().pow(2),
        m.host_cpus
    );
    for (i, &w) in CAMPAIGN_WORKERS.iter().enumerate() {
        println!(
            "  {w} worker(s): {:.3}s = {:.3} cells/s ({:.2}x vs 1 worker)",
            m.wall_s[i],
            m.cells_per_sec(i),
            m.wall_s[0] / m.wall_s[i]
        );
    }
    println!("  csv hash {}", m.csv_hash);

    let existing = read_file(path)?;
    if let Some(id) = pin {
        let doc = pin_campaign(opts, existing, &m, id)?;
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("bench: pinned campaign entry {id:?} in {path}");
        return Ok(ExitCode::SUCCESS);
    }
    let Some(doc) = existing else {
        println!("bench: no {path} yet; rerun with --pin <id> to record a baseline");
        return Ok(ExitCode::SUCCESS);
    };
    let Some(pinned) = doc.get("campaign") else {
        if check {
            return Err(format!("{path} has no campaign section; --campaign --pin one first"));
        }
        println!("bench: no campaign section in {path}; rerun with --pin <id>");
        return Ok(ExitCode::SUCCESS);
    };
    check_campaign(pinned, &m)
}

/// Runs the 25-cell campaign once per worker count over a fresh scratch
/// store (cached cells would measure the journal, not the fabric).
fn measure_campaign(opts: &Opts) -> Result<CampaignMeasured, String> {
    use cochar_fabric::{run_campaign, CampaignSpec, FabricConfig, WorkerCmd};

    let spec = CampaignSpec {
        machine: opts.flag("machine").unwrap_or("bench").to_string(),
        work: opts.flag_parse("work", DEFAULT_WORK)?,
        threads: opts.flag_parse("threads", 4usize)?,
        trials: opts.flag_parse("trials", 1u32)?,
        seed: opts.flag_parse("seed", 1u64)?,
        msr: 0,
        names: CAMPAIGN_APPS.iter().map(|s| s.to_string()).collect(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;

    let mut wall_s = Vec::with_capacity(CAMPAIGN_WORKERS.len());
    let mut csv: Option<String> = None;
    for &workers in &CAMPAIGN_WORKERS {
        let dir = std::env::temp_dir().join(format!(
            "cochar-bench-campaign-{}-{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = cochar_store::RunStore::open(&dir).map_err(|e| e.to_string())?;
        let study = spec.build_study(Some(store))?;
        let cfg = FabricConfig {
            workers,
            worker_cmd: Some(WorkerCmd { exe: exe.clone(), args: vec!["fabric".into(), "work".into()] }),
            ..FabricConfig::default()
        };
        let outcome = run_campaign(&study, &spec, &cfg, |_, _| {})?;
        drop(study);
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(f) = outcome.failures.first() {
            return Err(format!(
                "campaign cell {} failed at {workers} worker(s): {}",
                f.spec, f.cause
            ));
        }
        let this_csv = outcome.heatmap.to_csv();
        match &csv {
            None => csv = Some(this_csv),
            Some(first) if *first != this_csv => {
                return Err(format!(
                    "campaign CSV differs between 1 and {workers} worker(s): \
                     the sweep is nondeterministic"
                ));
            }
            Some(_) => {}
        }
        wall_s.push(round3(outcome.pair_wall.as_secs_f64()));
    }
    let mut hasher = StableHasher::new();
    hasher.write_str(csv.as_deref().unwrap_or(""));
    Ok(CampaignMeasured {
        wall_s,
        csv_hash: format!("{:016x}", hasher.finish()),
        host_cpus,
    })
}

fn campaign_json(opts: &Opts, m: &CampaignMeasured, id: &str) -> Result<Json, String> {
    Ok(Json::Obj(vec![
        ("id".into(), Json::str(id)),
        ("apps".into(), Json::Arr(CAMPAIGN_APPS.iter().map(|a| Json::str(*a)).collect())),
        ("cells".into(), Json::u64(CAMPAIGN_APPS.len().pow(2) as u64)),
        (
            "workers".into(),
            Json::Arr(CAMPAIGN_WORKERS.iter().map(|&w| Json::u64(w as u64)).collect()),
        ),
        ("work".into(), Json::f64(opts.flag_parse("work", DEFAULT_WORK)?)),
        ("host_cpus".into(), Json::u64(m.host_cpus)),
        ("wall_s".into(), Json::Arr(m.wall_s.iter().map(|&w| Json::f64(w)).collect())),
        (
            "cells_per_sec".into(),
            Json::Arr((0..CAMPAIGN_WORKERS.len()).map(|i| Json::f64(m.cells_per_sec(i))).collect()),
        ),
        ("speedup_2w".into(), Json::f64(m.speedup(2).unwrap_or(0.0))),
        ("speedup_4w".into(), Json::f64(m.speedup(4).unwrap_or(0.0))),
        ("speedup_8w".into(), Json::f64(m.speedup(8).unwrap_or(0.0))),
        ("csv_hash".into(), Json::str(&m.csv_hash)),
    ]))
}

/// Sets (or replaces) the document's `campaign` section, preserving the
/// engine-throughput entries and checking parameter comparability.
fn pin_campaign(
    opts: &Opts,
    existing: Option<Json>,
    m: &CampaignMeasured,
    id: &str,
) -> Result<Json, String> {
    let params = params_json(opts)?;
    let entries = match &existing {
        Some(doc) => {
            check_params(doc, &params)?;
            entries_of(doc)?
        }
        None => Vec::new(),
    };
    let mut pairs = vec![("schema".into(), Json::str(SCHEMA))];
    pairs.extend(params);
    pairs.push(("entries".into(), Json::Arr(entries)));
    pairs.push(("campaign".into(), campaign_json(opts, m, id)?));
    Ok(Json::Obj(pairs))
}

/// Checks a fresh campaign measurement against the pinned section: the
/// CSV hash must match exactly (exit 4 on drift — the sweep's semantics
/// changed), and on hosts with >= 4 CPUs the 4-worker speedup must reach
/// 3x (exit 5). Single-core hosts can only verify determinism, so the
/// speedup gate is recorded but not enforced there.
fn check_campaign(pinned: &Json, m: &CampaignMeasured) -> Result<ExitCode, String> {
    let id = pinned.get("id").and_then(|v| v.as_str().ok()).unwrap_or("?").to_string();
    let want_hash =
        pinned.field("csv_hash").and_then(|v| v.as_str()).map_err(|e| e.to_string())?;
    if want_hash != m.csv_hash {
        eprintln!(
            "bench: CAMPAIGN DETERMINISM MISMATCH vs {id:?}: pinned csv hash {want_hash}, \
             measured {}",
            m.csv_hash
        );
        eprintln!("bench: the sweep's measurement semantics changed; re-pin deliberately");
        return Ok(ExitCode::from(4));
    }
    if m.host_cpus >= 4 {
        let s = m.speedup(4).unwrap_or(0.0);
        if s < 3.0 {
            eprintln!(
                "bench: CAMPAIGN SCALING REGRESSION vs {id:?}: {s:.2}x at 4 workers \
                 (need >= 3.00x on a {}-cpu host)",
                m.host_cpus
            );
            return Ok(ExitCode::from(5));
        }
        println!("bench: campaign OK vs {id:?}: csv hash matches, {s:.2}x at 4 workers");
    } else {
        println!(
            "bench: campaign OK vs {id:?}: csv hash matches \
             (speedup gate skipped: host has {} cpu(s))",
            m.host_cpus
        );
    }
    Ok(ExitCode::SUCCESS)
}
