//! Cross-check: at two slots per node, the cluster engine must reproduce
//! the retired two-slot engine, cochar-sched's `online::simulate`. Its
//! outputs were recorded in `tests/golden/online_k2.txt` before it was
//! removed; each scenario here replays the same job list through the
//! cluster engine at `slots: 2, Compose::Max` and must match every
//! recorded metric to within 1e-9. The old engine re-derived the next
//! completion every loop, this one schedules predicted events and
//! re-aims on drift, so this agreement is what makes the old loop a
//! special case of this one rather than a fork.

use cochar_cluster::policy::{InterferenceAware, Spread};
use cochar_cluster::{simulate, ClusterPolicy, Compose, Job, SimConfig, Workload};
use cochar_sched::CostMatrix;

const QOS_CAP: f64 = 1.5;

/// Four apps with asymmetric directed slowdowns, including a
/// constructive (sub-1.0) co-run and pairs straddling the QoS cap.
fn matrix() -> CostMatrix {
    CostMatrix {
        names: vec!["a".into(), "b".into(), "c".into(), "d".into()],
        slow: vec![
            vec![1.05, 1.80, 0.90, 1.30],
            vec![1.20, 1.10, 2.20, 1.45],
            vec![1.60, 1.90, 1.00, 1.15],
            vec![1.10, 1.55, 1.25, 1.02],
        ],
    }
}

/// The recorded metrics of the run named `case`, in file order:
/// makespan, mean stretch, node-seconds, QoS-violation time.
fn recorded(case: &str) -> [f64; 4] {
    let text = include_str!("golden/online_k2.txt");
    let line = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.split_whitespace().next() == Some(case))
        .unwrap_or_else(|| panic!("no recorded run {case}"));
    let mut values = line.split_whitespace().skip(1).map(|field| {
        let (_, v) = field.split_once('=').expect("field is name=value");
        v.parse::<f64>().expect("recorded value is a float")
    });
    std::array::from_fn(|_| values.next().expect("four recorded metrics"))
}

/// The recorded policy's cluster counterpart.
fn policy(name: &str) -> Box<dyn ClusterPolicy> {
    match name {
        "first-fit" => Box::new(Spread),
        "interference-aware" => Box::new(InterferenceAware::new(QOS_CAP)),
        other => panic!("no cluster counterpart for {other}"),
    }
}

/// Runs `jobs` through the cluster engine under the policy the case
/// names and asserts every metric matches the recording to 1e-9.
fn check(case: &str, jobs: &[Job], nodes: usize) {
    let m = matrix();
    let cfg = SimConfig {
        nodes,
        slots: 2,
        qos_cap: QOS_CAP,
        compose: Compose::Max,
        ..SimConfig::default()
    };
    let (_, name) = case.split_once('/').expect("case is scenario/policy");
    let out = simulate(&m, &m, policy(name).as_mut(), jobs, &cfg).unwrap();
    let got = [out.makespan, out.mean_stretch, out.node_seconds, out.qos_violation_time];
    let what = ["makespan", "mean_stretch", "node_seconds", "qos_violation_time"];
    for ((old, new), what) in recorded(case).into_iter().zip(got).zip(what) {
        assert!(
            (old - new).abs() <= 1e-9,
            "{case}: {what} diverged: recorded {old:?} vs engine {new:?}"
        );
    }
}

fn poisson(seed: u64, count: usize, rate: f64) -> Vec<Job> {
    Workload { arrival_rate: rate, mean_work: 8.0, seed }.generate(count, matrix().len())
}

#[test]
fn first_fit_agrees_across_engines() {
    for seed in [1, 7, 42] {
        check(&format!("seed{seed}/first-fit"), &poisson(seed, 300, 3.0), 16);
    }
}

#[test]
fn interference_aware_agrees_across_engines() {
    for seed in [1, 7, 42] {
        check(&format!("seed{seed}/interference-aware"), &poisson(seed, 300, 3.0), 16);
    }
}

#[test]
fn overloaded_cluster_with_queueing_agrees() {
    // Few nodes, hot arrival rate: the queue is exercised hard.
    let jobs = poisson(11, 200, 2.5);
    check("overloaded/first-fit", &jobs, 4);
    check("overloaded/interference-aware", &jobs, 4);
}

#[test]
fn simultaneous_arrivals_agree() {
    // Arrival ties stress the engine's batching epsilon.
    let apps = matrix().len();
    let jobs: Vec<Job> = (0..40)
        .map(|i| Job { app: i % apps, arrival: (i / 8) as f64 * 4.0, work: 5.0 + (i % 3) as f64 })
        .collect();
    check("simultaneous/first-fit", &jobs, 8);
}

#[test]
fn longer_run_agrees_under_both_policies() {
    let jobs = poisson(23, 400, 3.0);
    check("n400/first-fit", &jobs, 12);
    check("n400/interference-aware", &jobs, 12);
}
