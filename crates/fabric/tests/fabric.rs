//! End-to-end fabric tests with in-process workers: the coordinator runs
//! on the test thread, workers run on plain `std::thread`s that call
//! [`run_worker`] against the ephemeral listen port. The only subprocess
//! here is `false` standing in for a local worker that dies at once (the
//! CLI e2e suite covers real worker death); these tests pin down the
//! protocol, the retry policy split, and CSV byte-identity.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cochar_colocation::{Heatmap, SweepPolicy};
use cochar_fabric::{
    run_campaign, run_worker, CampaignSpec, FabricConfig, WirePlan, WorkerChaos, WorkerCmd,
    WorkerConfig, WorkerSummary,
};

const NAMES: [&str; 3] = ["blackscholes", "swaptions", "stream"];

fn tiny_spec() -> CampaignSpec {
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

type Worker = JoinHandle<Result<WorkerSummary, String>>;

/// Starts an in-process worker on its own thread. Not scoped: a
/// hang-chaos worker sleeps forever and must not block test exit.
fn spawn_worker(cfg: WorkerConfig) -> Worker {
    std::thread::spawn(move || run_worker(&cfg))
}

/// Joins the workers once the campaign is over and asserts each one
/// returned `Ok`. Exactly `hung` of them are expected never to return
/// (hang chaos); they are left running.
fn join_workers(mut workers: Vec<Worker>, hung: usize) {
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

/// Runs `spec` through the fabric with `n` in-process workers, each
/// configured by `mk_cfg(i, addr)`, of which `hung` never return.
fn run_distributed(
    spec: &CampaignSpec,
    cfg: FabricConfig,
    n: usize,
    hung: usize,
    mk_cfg: impl Fn(usize, &str) -> WorkerConfig,
) -> cochar_fabric::FabricOutcome {
    let (tx, rx) = mpsc::channel();
    let cfg = FabricConfig { on_bound: Some(tx), ..cfg };
    let study = spec.build_study(None).expect("spec builds");
    std::thread::scope(|scope| {
        let spec2 = spec.clone();
        let coord = scope.spawn(move || run_campaign(&study, &spec2, &cfg, |_, _| {}));
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("coordinator publishes its address");
        let workers = (0..n).map(|i| spawn_worker(mk_cfg(i, &addr))).collect();
        let outcome = coord.join().expect("coordinator thread").expect("campaign succeeds");
        join_workers(workers, hung);
        outcome
    })
}

fn reference_csv(spec: &CampaignSpec) -> String {
    let study = spec.build_study(None).expect("spec builds");
    let names: Vec<&str> = spec.names.iter().map(|s| s.as_str()).collect();
    Heatmap::compute(&study, &names).to_csv()
}

#[test]
fn distributed_equals_local() {
    let spec = tiny_spec();
    let outcome = run_distributed(&spec, FabricConfig::default(), 2, 0, |i, addr| {
        let mut c = WorkerConfig::new(addr);
        c.label = format!("w{i}");
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
    assert!(outcome.ledger.workers >= 1);
    assert!(outcome.ledger.leases_issued as usize >= NAMES.len() * NAMES.len());
    assert!(!outcome.store_degraded);
}

#[test]
fn workers_sharing_a_label_get_separate_scratch_stores() {
    // Two in-process workers share a pid and here a label too, so only
    // the per-process counter keeps their scratch stores (and store
    // locks) apart; both must serve and exit Ok.
    let spec = tiny_spec();
    let outcome = run_distributed(&spec, FabricConfig::default(), 2, 0, |_, addr| {
        let mut c = WorkerConfig::new(addr);
        c.label = "twin".into();
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
}

#[test]
fn campaign_fails_fast_when_every_local_worker_exits() {
    // Workers that exit at once: once the respawn budget is spent and no
    // connection is open, the coordinator must give up with the exits,
    // not wait out the 300 s stall timeout.
    let spec = tiny_spec();
    let study = spec.build_study(None).expect("spec builds");
    let cfg = FabricConfig {
        workers: 2,
        worker_cmd: Some(WorkerCmd { exe: "false".into(), args: vec![] }),
        ..FabricConfig::default()
    };
    let start = Instant::now();
    let Err(err) = run_campaign(&study, &spec, &cfg, |_, _| {}) else {
        panic!("no worker can run a cell, yet the campaign succeeded");
    };
    assert!(start.elapsed() < Duration::from_secs(30), "took {:?}", start.elapsed());
    assert!(err.contains("9 cell(s) unsettled"), "{err}");
    assert!(err.contains("w0 exit status") && err.contains("w3 exit status"), "{err}");
}

#[test]
fn panicking_cell_is_retried_by_coordinator() {
    let spec = tiny_spec();
    let cfg = FabricConfig {
        policy: SweepPolicy { max_retries: 1, keep_going: true },
        ..FabricConfig::default()
    };
    // The worker's chaos cell panics on attempt 0 and succeeds from
    // attempt 1 — so the CSV only matches the reference if the
    // coordinator actually re-issues with a bumped attempt.
    let outcome = run_distributed(&spec, cfg, 1, 0, |_, addr| {
        let mut c = WorkerConfig::new(addr);
        c.chaos_cell = Some(("swaptions".into(), "stream".into(), 1));
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert!(outcome.ledger.cell_retries >= 1);
    // The retried cell reseeds with attempt 1, so the reference is a
    // single-process *supervised* sweep under the same chaos cell — the
    // fabric must agree with it byte-for-byte, including the retry.
    let ref_study = spec
        .build_study(None)
        .expect("spec builds")
        .with_chaos_cell("swaptions", "stream", 1);
    let names: Vec<&str> = spec.names.iter().map(|s| s.as_str()).collect();
    let (ref_map, ref_failures) = Heatmap::compute_supervised(
        &ref_study,
        &names,
        SweepPolicy { max_retries: 1, keep_going: true },
        |_, _| {},
    );
    assert!(ref_failures.is_empty());
    assert_eq!(outcome.heatmap.to_csv(), ref_map.to_csv());
}

#[test]
fn exhausted_retries_leave_a_hole() {
    let spec = tiny_spec();
    let cfg = FabricConfig {
        policy: SweepPolicy { max_retries: 1, keep_going: true },
        ..FabricConfig::default()
    };
    // Succeeds only from attempt 5, budget allows attempts 0 and 1.
    let outcome = run_distributed(&spec, cfg, 1, 0, |_, addr| {
        let mut c = WorkerConfig::new(addr);
        c.chaos_cell = Some(("swaptions".into(), "stream".into(), 5));
        c
    });
    assert_eq!(outcome.failures.len(), 1);
    let f = &outcome.failures[0];
    assert_eq!(f.spec, "swaptions/stream");
    assert_eq!(f.attempts, 2, "max_retries 1 means exactly two attempts");
    let csv = outcome.heatmap.to_csv();
    assert!(csv.contains("NaN") || csv.contains("nan"), "hole in csv: {csv}");
}

#[test]
fn hung_worker_lease_expires_and_cell_is_reissued() {
    let spec = tiny_spec();
    let cfg = FabricConfig {
        lease_timeout: Duration::from_millis(400),
        ..FabricConfig::default()
    };
    // Both workers arm the same hang cell: chaos fires only on the first
    // issue, so whichever worker draws the trigger cell silences its
    // heartbeat and sleeps — the other must pick up the expired lease and
    // compute the re-issue (issue 1) normally.
    let outcome = run_distributed(&spec, cfg, 2, 1, |i, addr| {
        let mut c = WorkerConfig::new(addr);
        c.label = format!("w{i}");
        c.chaos_worker =
            Some(WorkerChaos::Hang { fg: "blackscholes".into(), bg: "swaptions".into() });
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert!(outcome.ledger.leases_reissued >= 1, "ledger: {:?}", outcome.ledger);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
}

#[test]
fn store_backed_campaign_is_cached_on_rerun() {
    let dir = std::env::temp_dir()
        .join(format!("cochar-fabric-test-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = tiny_spec();
    let store = cochar_store::RunStore::open(&dir).expect("store opens");
    let study = spec.build_study(Some(store)).expect("spec builds");

    let (tx, rx) = mpsc::channel();
    let cfg = FabricConfig { on_bound: Some(tx), ..FabricConfig::default() };
    let first = std::thread::scope(|scope| {
        let coord = scope.spawn(|| run_campaign(&study, &spec, &cfg, |_, _| {}));
        let addr = rx.recv_timeout(Duration::from_secs(30)).expect("bound");
        let worker = spawn_worker(WorkerConfig::new(&addr));
        let outcome = coord.join().expect("join").expect("campaign succeeds");
        join_workers(vec![worker], 0);
        outcome
    });
    assert!(first.failures.is_empty());
    assert!(first.ledger.records_merged > 0, "worker results land in the store");

    // Second run over the same store, now with --resume: every cell
    // resolves from cache, no listener, no workers — the CSV is
    // byte-identical, and the ledger log shows the prior run.
    let cfg2 = FabricConfig { resume: true, ..FabricConfig::default() };
    let second = run_campaign(&study, &spec, &cfg2, |_, _| {}).expect("cached rerun");
    assert_eq!(second.ledger.cells_cached as usize, NAMES.len() * NAMES.len());
    assert_eq!(second.ledger.leases_issued, 0);
    assert_eq!(first.heatmap.to_csv(), second.heatmap.to_csv());
    let prior = second.resumed.expect("resume reads the ledger log");
    assert!(prior.runs >= 1, "prior: {prior:?}");
    assert_eq!(prior.ledger.records_merged, first.ledger.records_merged);

    drop(study);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_different_campaign() {
    let dir = std::env::temp_dir()
        .join(format!("cochar-fabric-test-refuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The store was journaled for the canonical tiny campaign...
    std::fs::create_dir_all(&dir).unwrap();
    cochar_fabric::recover::save_campaign(&dir, &tiny_spec()).expect("journal campaign");
    // ...but the resuming command line describes a different one.
    let mut other = tiny_spec();
    other.seed = 99;
    let store = cochar_store::RunStore::open(&dir).expect("store opens");
    let study = other.build_study(Some(store)).expect("spec builds");
    let cfg = FabricConfig { resume: true, ..FabricConfig::default() };
    let err = match run_campaign(&study, &other, &cfg, |_, _| {}) {
        Err(e) => e,
        Ok(_) => panic!("mismatched --resume must refuse to run"),
    };
    assert!(err.contains("--resume refused"), "unexpected error: {err}");

    drop(study);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicated_result_is_dismissed_exactly_once() {
    let spec = tiny_spec();
    // Outbound frame 1 is the worker's first result; `dup@1` sends it
    // twice. The coordinator must settle the cell once, dismiss the
    // replay, and the CSV must be unaffected.
    let outcome = run_distributed(&spec, FabricConfig::default(), 1, 0, |_, addr| {
        let mut c = WorkerConfig::new(addr);
        c.chaos_wire = Some(WirePlan::parse("dup@1").unwrap());
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert_eq!(outcome.ledger.results_duplicate, 1, "ledger: {:?}", outcome.ledger);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
}

#[test]
fn corrupted_frame_forces_reconnect_and_resend() {
    let spec = tiny_spec();
    // Bit 40 lands in the frame checksum, so the coordinator sees a
    // checksum mismatch on the worker's first result, drops the
    // connection, and the worker must reconnect and resend the
    // unacknowledged result.
    let outcome = run_distributed(&spec, FabricConfig::default(), 1, 0, |_, addr| {
        let mut c = WorkerConfig::new(addr);
        c.chaos_wire = Some(WirePlan::parse("flip@1:40").unwrap());
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert!(outcome.ledger.wire_faults >= 1, "ledger: {:?}", outcome.ledger);
    assert!(outcome.ledger.reconnects >= 1, "ledger: {:?}", outcome.ledger);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
}

#[test]
fn injected_close_is_survived_by_reconnect() {
    let spec = tiny_spec();
    let outcome = run_distributed(&spec, FabricConfig::default(), 1, 0, |_, addr| {
        let mut c = WorkerConfig::new(addr);
        c.chaos_wire = Some(WirePlan::parse("close@2").unwrap());
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert!(outcome.ledger.reconnects >= 1, "ledger: {:?}", outcome.ledger);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
}

#[test]
fn mismatched_fingerprint_claim_is_dismissed() {
    use cochar_fabric::wire::{write_frame, Frame, FrameReader, Msg};

    let spec = tiny_spec();
    let (tx, rx) = mpsc::channel();
    let cfg = FabricConfig { on_bound: Some(tx), ..FabricConfig::default() };
    let study = spec.build_study(None).expect("spec builds");
    let outcome = std::thread::scope(|scope| {
        let coord = scope.spawn(|| run_campaign(&study, &spec, &cfg, |_, _| {}));
        let addr = rx.recv_timeout(Duration::from_secs(30)).expect("bound");

        // A raw client that echoes the wrong fingerprint: it must get
        // `done` (dismissal), never a lease.
        let stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = FrameReader::new(stream);
        let fp = loop {
            match reader.next_frame().expect("hello frame") {
                Frame::Msg(Msg::Hello { fp, .. }) => break fp,
                Frame::Idle => continue,
                other => panic!("expected hello, got {other:?}"),
            }
        };
        let claim =
            Msg::Claim { fp: fp ^ 1, worker: "impostor".into(), session: 0, faults: 0 };
        write_frame(&mut writer, &claim).expect("claim");
        let reply = loop {
            match reader.next_frame().expect("reply frame") {
                Frame::Msg(m) => break m,
                Frame::Idle => continue,
                Frame::Eof => panic!("eof before reply"),
            }
        };
        assert!(matches!(reply, Msg::Done), "impostor got {reply:?}");

        // An honest worker then completes the campaign.
        let worker = spawn_worker(WorkerConfig::new(&addr));
        let outcome = coord.join().expect("join").expect("campaign succeeds");
        join_workers(vec![worker], 0);
        outcome
    });
    assert!(outcome.failures.is_empty());
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
}

#[test]
fn out_of_range_result_is_a_wire_fault() {
    use cochar_fabric::wire::{write_frame, CellOutcome, Frame, FrameReader, Msg, WireCell};
    use cochar_colocation::CellStatus;

    let spec = tiny_spec();
    let (tx, rx) = mpsc::channel();
    let cfg = FabricConfig { on_bound: Some(tx), ..FabricConfig::default() };
    let study = spec.build_study(None).expect("spec builds");
    let outcome = std::thread::scope(|scope| {
        let coord = scope.spawn(|| run_campaign(&study, &spec, &cfg, |_, _| {}));
        let addr = rx.recv_timeout(Duration::from_secs(30)).expect("bound");

        // A raw client claims a lease honestly, then reports a cell
        // outside the 3 x 3 campaign: (0, 3) must not land on row-major
        // index 3, cell (1, 0). The coordinator must drop the link.
        let stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = FrameReader::new(stream);
        let mut next = || loop {
            match reader.next_frame() {
                Ok(Frame::Idle) => continue,
                other => break other,
            }
        };
        let Ok(Frame::Msg(Msg::Hello { fp, .. })) = next() else { panic!("expected hello") };
        let claim = Msg::Claim { fp, worker: "rogue".into(), session: 0, faults: 0 };
        write_frame(&mut writer, &claim).expect("claim");
        let Ok(Frame::Msg(Msg::Lease { id, .. })) = next() else { panic!("expected a lease") };
        let result = Msg::Result {
            lease: id,
            cell: WireCell { fg: 0, bg: 3, attempt: 0, issue: 0 },
            outcome: CellOutcome::Value { value: 99.0, status: CellStatus::Ok },
            records: vec![],
        };
        write_frame(&mut writer, &result).expect("result");
        let reply = next();
        drop((writer, reader));

        // An honest worker then completes the campaign.
        let worker = spawn_worker(WorkerConfig::new(&addr));
        let outcome = coord.join().expect("join").expect("campaign succeeds");
        join_workers(vec![worker], 0);
        (outcome, reply)
    });
    let (outcome, reply) = outcome;
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert!(!matches!(reply, Ok(Frame::Msg(_))), "out-of-range result was answered: {reply:?}");
    assert!(outcome.ledger.wire_faults >= 1, "ledger: {:?}", outcome.ledger);
}
