//! Golden regret reports.
//!
//! Three compare sweeps — every policy × {measured, predicted} knowledge
//! on a fixed 5×5 matrix pair at 200 nodes — must render the checked-in
//! CSVs under `tests/golden/` byte for byte. Beside each CSV, a `.debug`
//! file holds every run's outcome in `{:?}` form, whose floats round-trip
//! exactly: it catches low-bit drift the CSV's six decimals would round
//! away (a reordered float sum, say). The sweeps cover both
//! composition estimators, two to four slots per node, and a defrag
//! period short enough that migrations happen, so any change to the
//! event loop's float accumulation order, its placement decisions, or
//! its defragmentation plan shows up here as a diff.
//!
//! The CSVs were rendered by the engine before it cached per-job rates
//! and per-node QoS state; matching them is what "the incremental engine
//! is behaviour-preserving" means.

use cochar_cluster::{
    compare_sweep, Compose, RegretReport, RunRecord, Scenario, SimConfig, Workload,
};
use cochar_sched::CostMatrix;

const APPS: [&str; 5] = ["G-CC", "CIFAR", "mcf", "fotonik3d", "LSTM"];
const NODES: usize = 200;
const JOBS: usize = 3000;
const SEED: u64 = 7;
const UTIL: f64 = 0.7;
const MEAN_WORK: f64 = 8.0;
const QOS_CAP: f64 = 1.5;
const SLO_STRETCH: f64 = 2.0;

/// Directed slowdowns the engine runs on (row: victim, column:
/// co-runner). One constructive entry (fotonik3d next to LSTM).
fn truth() -> CostMatrix {
    matrix([
        [1.32, 1.08, 1.41, 1.87, 1.12],
        [1.05, 1.10, 1.06, 1.21, 1.03],
        [1.29, 1.07, 1.38, 1.66, 1.09],
        [1.11, 1.02, 1.19, 1.47, 0.98],
        [1.04, 1.06, 1.05, 1.13, 1.02],
    ])
}

/// A perturbed copy standing in for the predictor's output.
fn predicted() -> CostMatrix {
    matrix([
        [1.27, 1.11, 1.36, 1.79, 1.15],
        [1.07, 1.08, 1.09, 1.25, 1.04],
        [1.33, 1.05, 1.44, 1.58, 1.10],
        [1.14, 1.04, 1.16, 1.52, 1.01],
        [1.03, 1.09, 1.07, 1.18, 1.04],
    ])
}

fn matrix(slow: [[f64; 5]; 5]) -> CostMatrix {
    CostMatrix {
        names: APPS.iter().map(|s| s.to_string()).collect(),
        slow: slow.iter().map(|row| row.to_vec()).collect(),
    }
}

/// One golden sweep.
struct Case {
    name: &'static str,
    slots: usize,
    compose: Compose,
    defrag_period: f64,
}

const CASES: [Case; 3] = [
    Case { name: "k2_max", slots: 2, compose: Compose::Max, defrag_period: 25.0 },
    Case { name: "k3_product", slots: 3, compose: Compose::Product, defrag_period: 25.0 },
    Case { name: "k4_max_defrag", slots: 4, compose: Compose::Max, defrag_period: 2.0 },
];

/// Runs the `cluster compare` sweep for `case`.
fn sweep(case: &Case) -> RegretReport {
    let (truth, predicted) = (truth(), predicted());
    let rate = Workload::rate_for_utilization(UTIL, NODES, case.slots, MEAN_WORK);
    let jobs = Workload { arrival_rate: rate, mean_work: MEAN_WORK, seed: SEED }
        .generate(JOBS, APPS.len());
    let cfg = SimConfig {
        nodes: NODES,
        slots: case.slots,
        qos_cap: QOS_CAP,
        slo_stretch: SLO_STRETCH,
        compose: case.compose,
        defrag_period: Some(case.defrag_period),
        ..SimConfig::default()
    };
    let runs = compare_sweep(&truth, &predicted, &jobs, &cfg, SEED)
        .unwrap_or_else(|e| panic!("{}: {e}", case.name));
    let scenario = Scenario {
        nodes: NODES,
        slots: case.slots,
        jobs: JOBS,
        seed: SEED,
        arrival_rate: rate,
        mean_work: MEAN_WORK,
        qos_cap: QOS_CAP,
        slo_stretch: SLO_STRETCH,
        compose: case.compose.to_string(),
        defrag_period: Some(case.defrag_period),
        apps: APPS.iter().map(|s| s.to_string()).collect(),
    };
    RegretReport::new(scenario, runs)
}

fn golden(file: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every run's outcome, one `{:?}` line each.
fn outcomes(report: &RegretReport) -> String {
    let line = |r: &RunRecord| format!("{}/{}: {:?}\n", r.policy, r.knowledge, r.outcome);
    report.runs.iter().map(line).collect()
}

/// Asserts `rendered` equals the golden file `file`.
fn assert_golden(file: &str, rendered: &str) {
    let want = golden(file);
    if rendered != want {
        let line = rendered.lines().zip(want.lines()).position(|(a, b)| a != b);
        panic!(
            "{file} drifted from the golden (first differing line {line:?}):\n\
             rendered:\n{rendered}\ngolden:\n{want}"
        );
    }
}

/// Asserts `case` renders its golden CSV and outcomes; returns the report.
fn check(case: &Case) -> RegretReport {
    let report = sweep(case);
    assert_golden(&format!("{}.csv", case.name), &report.to_csv());
    assert_golden(&format!("{}.debug", case.name), &outcomes(&report));
    report
}

#[test]
fn two_slot_max_report_is_byte_identical() {
    check(&CASES[0]);
}

#[test]
fn three_slot_product_report_is_byte_identical() {
    check(&CASES[1]);
}

#[test]
fn four_slot_defrag_report_is_byte_identical_and_migrates() {
    let report = check(&CASES[2]);
    // The golden only guards the defragmentation plan if it moved jobs.
    for run in report.runs.iter().filter(|r| r.policy == "defrag") {
        assert!(run.outcome.migrations > 0, "{}: no migrations", run.knowledge);
    }
}
