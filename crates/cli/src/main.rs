//! `cochar` — command-line driver for the interference characterization
//! suite.
//!
//! ```text
//! cochar list
//! cochar solo G-CC
//! cochar pair G-CC fotonik3d
//! cochar heatmap G-CC CIFAR fotonik3d blackscholes --csv heat.csv
//! cochar scalability fotonik3d --max-threads 8
//! cochar prefetch streamcluster --breakdown
//! cochar bubble G-PR
//! cochar schedule G-CC CIFAR fotonik3d mcf swaptions blackscholes --policy optimal
//! cochar throttle G-CC fotonik3d --pads 0,20,60,120
//! cochar timeline G-CC stream
//! cochar cluster compare --nodes 1000 --jobs 10000 --seed 7 --json report.json
//! ```
//!
//! Global flags: `--machine bench|scaled|paper`, `--work <f64>`,
//! `--threads <n>`, `--trials <n>`, `--seed <n>`, plus the run-store
//! trio `--store <dir>`, `--resume`, `--no-cache`, and the sweep
//! supervisor's `--max-retries <n>` / `--keep-going` / `--fail-fast`.
//!
//! Exit codes: 0 success; 1 usage or fatal error; 2 the sweep completed
//! but some cells failed (holes in the output); 3 the run store degraded
//! to cache-less operation mid-sweep (results are complete but were not
//! all persisted — takes precedence over 2).
//!
//! Fault injection for end-to-end tests (inert unless set):
//! `COCHAR_CHAOS_CELL="fg/bg[@N]"` panics that heatmap cell until attempt
//! `N` (default: always), and `COCHAR_CHAOS_STORE="<plan>"` arms journal
//! append faults (`enospc@2`, `short@1:20`, `flip@0:13`, `kill@3:7`,
//! `transient@1`, comma-separated).

mod commands;
mod opts;

use std::process::ExitCode;
use std::sync::Arc;

use cochar_colocation::Study;
use cochar_machine::MachineConfig;
use cochar_store::RunStore;
use cochar_workloads::{Registry, Scale};

use opts::Opts;

const USAGE: &str = "\
cochar — co-running interference characterization

commands:
  list                         workloads and their models
  solo <app>                   no-interference profile (CPI, MPKI, GB/s, ...)
  pair <fg> <bg>               co-run fg against looping bg; slowdown + metrics
  heatmap <apps...>            pairwise matrix + classification [--csv FILE]
  sweep <apps...>              heatmap sharded over N worker processes
                               [--workers N (default: host CPUs)]
                               [--lease-timeout-ms T]
                               (CSV is byte-identical to `heatmap`)
  fabric serve <apps...>       coordinator only [--bind HOST:PORT] [--workers N]
  fabric work --connect ADDR   worker only [--label L]
                               [--pin-cpu N] [--connect-retry-ms T (default 5000)]
                               [--max-reconnects N (default 8)]
  scalability <app>            1..N thread sweep [--max-threads N]
  prefetch <app>               prefetcher sensitivity [--breakdown]
  bubble <app>                 Bubble-Up pressure sensitivity curve
  schedule <apps...>           consolidation plan [--policy naive|greedy|optimal|stable]
                               [--predict: plan from bubble curves] [--validate]
  throttle <victim> <offender> offender-throttling trade-off [--pads 0,20,...]
  timeline <fg> <bg>           per-epoch bandwidth timeline of a co-run
  predict train [apps...]      fit counter-signature slowdown model; show weights
  predict evaluate [apps...]   MAE/RMSE/Spearman vs measured heatmap [--csv FILE]
  predict matrix [apps...]     predicted NxN from solo signatures [--train-apps K]
                               [--csv FILE] [--json FILE]
                               (shared: --train-frac F --lambda L)
  cluster run [apps...]        discrete-event cluster sim, one policy
                               [--policy random|first-fit|best-fit|spread|
                                interference-aware|defrag]
                               [--knowledge measured|predicted|FILE]
  cluster compare [apps...]    every policy x {measured, predicted} knowledge;
                               per-policy regret vs the informed baseline
                               (shared: --nodes N --slots K --jobs J --util F
                                --rate R --mean-work W --qos C --slo S
                                --compose max|product --defrag-period T
                                --trace FILE --trace-out FILE --train-apps K
                                --json FILE --csv FILE)
  store ls|gc|verify           inspect or compact a run store (needs --store)
  bench                        engine throughput harness (solo + pair sweep)
                               [--json FILE (default BENCH_engine.json)]
                               [--pin ID: record an entry] [--check]
                               [--tolerance F (default 0.10)] [--reps N]
                               [--cluster: time the cluster compare sweep
                                instead (default BENCH_cluster.json)]

global flags: --machine bench|scaled|paper   --work F   --threads N
              --trials N   --seed N
store flags:  --store DIR   journal completed runs to DIR and reuse them
              --resume      print what a prior (possibly killed) sweep left;
                            with sweep/fabric serve, re-adopt the store's cells
                            and refuse a store journaled by different flags
              --no-cache    simulate fresh but still journal results
sweep flags:  --max-retries N  retry failed cells up to N times (reseeded)
              --keep-going     failed cells become holes; sweep continues (default)
              --fail-fast      stop claiming new cells after the first failure

exit codes: 0 ok; 1 error; 2 sweep completed with failed cells;
            3 run store degraded to cache-less operation (wins over 2)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args)?;
    if opts.command.is_empty() || opts.command == "help" {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    if opts.command == "store" {
        // Store maintenance needs no machine or registry.
        return commands::store::run(&opts).map(|()| ExitCode::SUCCESS);
    }
    if opts.command == "bench" {
        // The bench harness builds its own fresh study per measurement
        // rep (study-level caches would otherwise hide engine cost).
        return commands::bench::run(&opts);
    }
    if opts.command == "sweep" || opts.command == "fabric" {
        // The fabric owns its exit-code mapping (worker processes, lease
        // ledger, merge accounting) — it bypasses the single-study path.
        return commands::fabric::run(&opts);
    }
    let study = build_study(&opts, 1.0)?;
    if opts.switch("resume") {
        let store = study.store().expect("build_study enforces --store with --resume");
        let report = store.replay_report();
        println!(
            "store: resuming from {} ({} cached run(s), {} corrupt, {} torn)",
            store.dir().display(),
            store.len(),
            report.corrupt,
            report.torn
        );
    }
    let mut failed_cells = 0usize;
    let result = match opts.command.as_str() {
        "list" => commands::list::run(&study),
        "solo" => commands::solo::run(&study, &opts),
        "pair" => commands::pair::run(&study, &opts),
        "heatmap" => commands::heatmap::run(&study, &opts).map(|failed| failed_cells = failed),
        "scalability" => commands::scalability::run(&study, &opts),
        "prefetch" => commands::prefetch::run(&study, &opts),
        "bubble" => commands::bubble::run(&study, &opts),
        "schedule" => commands::schedule::run(&study, &opts),
        "throttle" => commands::throttle::run(&study, &opts),
        "timeline" => commands::timeline::run(&study, &opts),
        "predict" => commands::predict::run(&study, &opts),
        "cluster" => commands::cluster::run(&study, &opts),
        other => Err(format!("unknown command {other:?}")),
    };
    if result.is_ok() {
        if let Some(store) = study.store() {
            // The one-line ledger CI greps: a fully-cached second pass
            // must report 0 simulated.
            let (simulated, cached) = study.run_counts();
            println!(
                "store: {simulated} simulated, {cached} cached ({} resident in {})",
                store.len(),
                store.dir().display()
            );
        }
    }
    result.map(|()| exit_code(study.store_degraded(), failed_cells))
}

/// Maps a finished command to its exit code, announcing codes 2 and 3 on
/// stderr. Degradation wins: an unpersisted sweep is the bigger surprise
/// for whoever plans to resume it.
pub(crate) fn exit_code(store_degraded: bool, failed_cells: usize) -> ExitCode {
    if store_degraded {
        eprintln!("exit: run store degraded mid-sweep (code 3)");
        ExitCode::from(3)
    } else if failed_cells > 0 {
        eprintln!("exit: {failed_cells} cell(s) failed (code 2)");
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// Builds the study from the global flags. `default_work` is the work
/// scale used when `--work` is absent (1.0 for measurement commands,
/// smoke scale for `bench`).
pub(crate) fn build_study(opts: &Opts, default_work: f64) -> Result<Study, String> {
    let cfg = match opts.flag("machine").unwrap_or("bench") {
        "bench" => MachineConfig::bench(),
        "scaled" => MachineConfig::scaled(),
        "paper" => MachineConfig::paper(),
        other => return Err(format!("unknown machine {other:?} (bench|scaled|paper)")),
    };
    let work: f64 = opts.flag_parse("work", default_work)?;
    let seed: u64 = opts.flag_parse("seed", 1)?;
    let threads: usize = opts.flag_parse("threads", 4)?;
    let trials: u32 = opts.flag_parse("trials", 1)?;
    if threads == 0 || trials == 0 {
        return Err("--threads and --trials must be positive".into());
    }
    let scale = Scale::for_config(&cfg).with_work(work);
    let registry = Arc::new(Registry::new(scale));
    let mut study = Study::new(cfg, registry)
        .with_threads(threads)
        .with_trials(trials)
        .with_seed(seed);
    if let Some(dir) = opts.flag("store") {
        let store = match std::env::var("COCHAR_CHAOS_STORE") {
            Ok(plan) => {
                let plan = cochar_store::FaultPlan::parse(&plan)
                    .map_err(|e| format!("COCHAR_CHAOS_STORE: {e}"))?;
                eprintln!("chaos: store fault plan armed");
                RunStore::open_with_faults(dir, plan)
            }
            Err(_) => RunStore::open(dir),
        }
        .map_err(|e| e.to_string())?;
        study = study.with_store(store).with_store_reads(!opts.switch("no-cache"));
    } else if opts.switch("resume") || opts.switch("no-cache") {
        return Err("--resume and --no-cache require --store DIR".into());
    }
    if let Ok(cell) = std::env::var("COCHAR_CHAOS_CELL") {
        study = arm_chaos_cell(study, &cell)?;
    }
    Ok(study)
}

/// Arms `COCHAR_CHAOS_CELL="fg/bg[@N]"`: the named pair cell panics on
/// attempts below `N` (omitted `N` means the cell always panics).
fn arm_chaos_cell(study: Study, spec: &str) -> Result<Study, String> {
    let (fg, bg, succeed_from) = commands::fabric::parse_chaos_cell(spec)?;
    eprintln!("chaos: cell {fg}/{bg} armed (succeeds from attempt {succeed_from})");
    Ok(study.with_chaos_cell(&fg, &bg, succeed_from))
}
