//! The fabric writes no scratch directory: neither a campaign without a
//! store nor any worker leaves an entry under `TMPDIR`, even when the
//! campaign fails or a worker never returns.
//!
//! This binary holds one test because it points the process-global
//! `TMPDIR` at a directory of its own.

mod common;

use std::time::Duration;

use cochar_fabric::{run_campaign, FabricConfig, WorkerChaos, WorkerCmd, WorkerConfig};
use common::{run_distributed, tiny_spec};

#[test]
fn campaigns_leave_nothing_in_tmpdir() {
    let tmp = std::env::temp_dir()
        .join(format!("cochar-fabric-no-scratch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    std::env::set_var("TMPDIR", &tmp);
    let spec = tiny_spec();

    // Every local worker exits at once: the campaign fails through its
    // early-return path.
    let study = spec.build_study(None).expect("spec builds");
    let cfg = FabricConfig {
        workers: 2,
        worker_cmd: Some(WorkerCmd { exe: "false".into(), args: vec![] }),
        ..FabricConfig::default()
    };
    assert!(run_campaign(&study, &spec, &cfg, |_, _| {}).is_err());

    // One in-process worker hangs and never returns; the other finishes
    // the campaign.
    let cfg = FabricConfig { lease_timeout: Duration::from_millis(400), ..FabricConfig::default() };
    let outcome = run_distributed(&spec, cfg, 2, 1, |i, addr| {
        let mut c = WorkerConfig::new(addr);
        c.label = format!("w{i}");
        c.chaos_worker =
            Some(WorkerChaos::Hang { fg: "blackscholes".into(), bg: "swaptions".into() });
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);

    let left: Vec<_> = std::fs::read_dir(&tmp).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert!(left.is_empty(), "campaigns left {left:?} in TMPDIR");
    std::fs::remove_dir(&tmp).unwrap();
}
