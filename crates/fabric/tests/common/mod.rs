//! Helpers shared by the fabric test binaries: a tiny campaign, and
//! in-process workers on plain `std::thread`s that call [`run_worker`]
//! against the coordinator's ephemeral listen port.

#![allow(dead_code)]

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cochar_colocation::{Heatmap, Study};
use cochar_fabric::{
    run_campaign, run_worker, CampaignSpec, FabricConfig, FabricOutcome, WorkerConfig,
    WorkerSummary,
};

pub const NAMES: [&str; 3] = ["blackscholes", "swaptions", "stream"];

pub fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        machine: "tiny".into(),
        work: 0.1,
        threads: 1,
        trials: 1,
        seed: 7,
        msr: 0,
        names: NAMES.iter().map(|s| s.to_string()).collect(),
    }
}

pub type Worker = JoinHandle<Result<WorkerSummary, String>>;

/// Starts an in-process worker on its own thread. Not scoped: a
/// hang-chaos worker sleeps forever and must not block test exit.
pub fn spawn_worker(cfg: WorkerConfig) -> Worker {
    std::thread::spawn(move || run_worker(&cfg))
}

/// Joins the workers once the campaign is over and asserts each one
/// returned `Ok`. Exactly `hung` of them are expected never to return
/// (hang chaos); they are left running.
pub fn join_workers(mut workers: Vec<Worker>, hung: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while workers.len() > hung && Instant::now() < deadline {
        let (done, running): (Vec<Worker>, Vec<Worker>) =
            workers.into_iter().partition(|w| w.is_finished());
        for w in done {
            w.join().expect("worker thread").expect("worker exits Ok");
        }
        workers = running;
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(workers.len(), hung, "workers still running after the campaign");
}

/// Runs `spec` through the fabric over `study` with `n` in-process
/// workers, each configured by `mk_cfg(i, addr)`, of which `hung` never
/// return.
pub fn run_on(
    study: &Study,
    spec: &CampaignSpec,
    cfg: FabricConfig,
    n: usize,
    hung: usize,
    mk_cfg: impl Fn(usize, &str) -> WorkerConfig,
) -> FabricOutcome {
    let (tx, rx) = mpsc::channel();
    let cfg = FabricConfig { on_bound: Some(tx), ..cfg };
    std::thread::scope(|scope| {
        let coord = scope.spawn(|| run_campaign(study, spec, &cfg, |_, _| {}));
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("coordinator publishes its address");
        let workers = (0..n).map(|i| spawn_worker(mk_cfg(i, &addr))).collect();
        let outcome = coord.join().expect("coordinator thread").expect("campaign succeeds");
        join_workers(workers, hung);
        outcome
    })
}

/// [`run_on`] over a fresh store-less study.
pub fn run_distributed(
    spec: &CampaignSpec,
    cfg: FabricConfig,
    n: usize,
    hung: usize,
    mk_cfg: impl Fn(usize, &str) -> WorkerConfig,
) -> FabricOutcome {
    let study = spec.build_study(None).expect("spec builds");
    run_on(&study, spec, cfg, n, hung, mk_cfg)
}

pub fn reference_csv(spec: &CampaignSpec) -> String {
    let study = spec.build_study(None).expect("spec builds");
    let names: Vec<&str> = spec.names.iter().map(|s| s.as_str()).collect();
    Heatmap::compute(&study, &names).to_csv()
}
