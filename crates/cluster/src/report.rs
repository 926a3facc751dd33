//! Policy-regret reporting.
//!
//! A compare sweep runs every policy over the same job list twice — once
//! deciding from the *measured* matrix, once from the *predicted* one —
//! while the engine always runs rates on the measured truth. Each run's
//! **regret** is its metric minus the offline-informed baseline's
//! (interference-aware placement with measured knowledge). The headline
//! number is the predicted-vs-measured stretch gap of the
//! interference-aware policy itself: how much placement quality the O(N)
//! prediction pipeline gives up against O(N²) measurement.
//!
//! Rendering is byte-deterministic: fixed key order, floats at six
//! decimals, no timestamps.

use cochar_sched::CostMatrix;
use cochar_store::json::Json;

use crate::job::Job;
use crate::policy::PolicyKind;
use crate::sim::{simulate, ClusterOutcome, SimConfig, SimError};

/// Knowledge-matrix label for a measured-matrix run.
pub const MEASURED: &str = "measured";
/// Knowledge-matrix label for a predicted-matrix run.
pub const PREDICTED: &str = "predicted";

/// The scenario a report's runs share.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Cluster width.
    pub nodes: usize,
    /// Slots per node.
    pub slots: usize,
    /// Jobs simulated.
    pub jobs: usize,
    /// Workload / stochastic-policy seed.
    pub seed: u64,
    /// Mean arrivals per time unit.
    pub arrival_rate: f64,
    /// Mean solo runtime.
    pub mean_work: f64,
    /// QoS cap.
    pub qos_cap: f64,
    /// SLO stretch threshold.
    pub slo_stretch: f64,
    /// k-way composition estimator name.
    pub compose: String,
    /// Defragmentation period, if the defrag policy ran.
    pub defrag_period: Option<f64>,
    /// Application names, matrix order.
    pub apps: Vec<String>,
}

/// One (policy, knowledge) simulation result.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Policy name.
    pub policy: String,
    /// Knowledge label ([`MEASURED`], [`PREDICTED`], or a file path).
    pub knowledge: String,
    /// The engine's outcome.
    pub outcome: ClusterOutcome,
}

/// The compare sweep: every [`PolicyKind`] in report order, each deciding
/// once from the measured (`truth`) and once from the `predicted`
/// matrix, while progress always runs on `truth`. `cfg.defrag_period` is
/// the defrag policy's period; the other policies run without
/// defragmentation. `seed` feeds the stochastic policies.
pub fn compare_sweep(
    truth: &CostMatrix,
    predicted: &CostMatrix,
    jobs: &[Job],
    cfg: &SimConfig,
    seed: u64,
) -> Result<Vec<RunRecord>, SimError> {
    let mut runs = Vec::new();
    for kind in PolicyKind::all() {
        let cfg = SimConfig {
            defrag_period: cfg.defrag_period.filter(|_| kind.wants_defrag()),
            ..*cfg
        };
        for (label, knowledge) in [(MEASURED, truth), (PREDICTED, predicted)] {
            let mut policy = kind.build(seed, cfg.qos_cap);
            let outcome = simulate(truth, knowledge, policy.as_mut(), jobs, &cfg)?;
            runs.push(RunRecord { policy: kind.to_string(), knowledge: label.into(), outcome });
        }
    }
    Ok(runs)
}

/// A full compare sweep: scenario, runs, and the baseline they are
/// scored against.
#[derive(Clone, Debug)]
pub struct RegretReport {
    /// Shared scenario.
    pub scenario: Scenario,
    /// Baseline policy name (offline-informed).
    pub baseline_policy: String,
    /// Baseline knowledge label.
    pub baseline_knowledge: String,
    /// All runs, report order.
    pub runs: Vec<RunRecord>,
}

impl RegretReport {
    /// A report scored against the offline-informed default baseline:
    /// interference-aware placement with measured knowledge.
    pub fn new(scenario: Scenario, runs: Vec<RunRecord>) -> Self {
        RegretReport {
            scenario,
            baseline_policy: "interference-aware".to_string(),
            baseline_knowledge: MEASURED.to_string(),
            runs,
        }
    }

    /// The baseline run, if the sweep included it.
    pub fn baseline(&self) -> Option<&RunRecord> {
        self.runs
            .iter()
            .find(|r| r.policy == self.baseline_policy && r.knowledge == self.baseline_knowledge)
    }

    fn find(&self, policy: &str, knowledge: &str) -> Option<&RunRecord> {
        self.runs.iter().find(|r| r.policy == policy && r.knowledge == knowledge)
    }

    /// `run`'s regret vs the baseline as (stretch, node-seconds, energy)
    /// deltas; zeros when the baseline is absent (degenerate sweep).
    pub fn regret(&self, run: &RunRecord) -> (f64, f64, f64) {
        match self.baseline() {
            Some(b) => (
                run.outcome.mean_stretch - b.outcome.mean_stretch,
                run.outcome.node_seconds - b.outcome.node_seconds,
                run.outcome.energy - b.outcome.energy,
            ),
            None => (0.0, 0.0, 0.0),
        }
    }

    /// The headline number: mean-stretch gap of interference-aware
    /// placement deciding from predictions instead of measurements.
    /// Positive means prediction error cost placement quality.
    pub fn predicted_gap(&self) -> Option<f64> {
        let p = self.find(&self.baseline_policy, PREDICTED)?;
        let m = self.find(&self.baseline_policy, MEASURED)?;
        Some(p.outcome.mean_stretch - m.outcome.mean_stretch)
    }

    /// Deterministic JSON rendering (fixed key order, 6-decimal floats).
    pub fn to_json(&self) -> String {
        let num = |v: f64| Json::Num(format!("{v:.6}"));
        let s = &self.scenario;
        let mut scenario = vec![
            ("nodes".to_string(), Json::u64(s.nodes as u64)),
            ("slots".to_string(), Json::u64(s.slots as u64)),
            ("jobs".to_string(), Json::u64(s.jobs as u64)),
            ("seed".to_string(), Json::u64(s.seed)),
            ("arrival_rate".to_string(), num(s.arrival_rate)),
            ("mean_work".to_string(), num(s.mean_work)),
            ("qos_cap".to_string(), num(s.qos_cap)),
            ("slo_stretch".to_string(), num(s.slo_stretch)),
            ("compose".to_string(), Json::str(&s.compose)),
        ];
        if let Some(p) = s.defrag_period {
            scenario.push(("defrag_period".to_string(), num(p)));
        }
        scenario.push((
            "apps".to_string(),
            Json::Arr(s.apps.iter().map(Json::str).collect()),
        ));

        let runs = self
            .runs
            .iter()
            .map(|r| {
                let o = &r.outcome;
                let (rs, rn, re) = self.regret(r);
                Json::Obj(vec![
                    ("policy".to_string(), Json::str(&r.policy)),
                    ("knowledge".to_string(), Json::str(&r.knowledge)),
                    ("mean_stretch".to_string(), num(o.mean_stretch)),
                    ("min_stretch".to_string(), num(o.min_stretch)),
                    ("p50_stretch".to_string(), num(o.p50_stretch)),
                    ("p95_stretch".to_string(), num(o.p95_stretch)),
                    ("p99_stretch".to_string(), num(o.p99_stretch)),
                    ("max_stretch".to_string(), num(o.max_stretch)),
                    ("slo_frac".to_string(), num(o.slo_frac())),
                    ("qos_violation_time".to_string(), num(o.qos_violation_time)),
                    ("makespan".to_string(), num(o.makespan)),
                    ("node_seconds".to_string(), num(o.node_seconds)),
                    ("slot_seconds".to_string(), num(o.slot_seconds)),
                    ("energy".to_string(), num(o.energy)),
                    ("peak_active_nodes".to_string(), Json::u64(o.peak_active_nodes as u64)),
                    ("peak_queue".to_string(), Json::u64(o.peak_queue as u64)),
                    ("migrations".to_string(), Json::u64(o.migrations as u64)),
                    ("regret_mean_stretch".to_string(), num(rs)),
                    ("regret_node_seconds".to_string(), num(rn)),
                    ("regret_energy".to_string(), num(re)),
                ])
            })
            .collect();

        let mut top = vec![
            ("scenario".to_string(), Json::Obj(scenario)),
            (
                "baseline".to_string(),
                Json::str(format!("{}/{}", self.baseline_policy, self.baseline_knowledge)),
            ),
            ("runs".to_string(), Json::Arr(runs)),
        ];
        if let Some(gap) = self.predicted_gap() {
            top.push((
                "headline".to_string(),
                Json::Obj(vec![(
                    "predicted_vs_measured_stretch_gap".to_string(),
                    num(gap),
                )]),
            ));
        }
        let mut out = Json::Obj(top).render();
        out.push('\n');
        out
    }

    /// CSV rendering, one row per run, same columns as the JSON runs.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "policy,knowledge,mean_stretch,min_stretch,p50_stretch,p95_stretch,p99_stretch,\
             max_stretch,slo_frac,qos_violation_time,makespan,node_seconds,\
             slot_seconds,energy,peak_active_nodes,peak_queue,migrations,\
             regret_mean_stretch,regret_node_seconds,regret_energy\n",
        );
        for r in &self.runs {
            let o = &r.outcome;
            let (rs, rn, re) = self.regret(r);
            out.push_str(&format!(
                "{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},\
                 {:.6},{:.6},{},{},{},{:.6},{:.6},{:.6}\n",
                r.policy,
                r.knowledge,
                o.mean_stretch,
                o.min_stretch,
                o.p50_stretch,
                o.p95_stretch,
                o.p99_stretch,
                o.max_stretch,
                o.slo_frac(),
                o.qos_violation_time,
                o.makespan,
                o.node_seconds,
                o.slot_seconds,
                o.energy,
                o.peak_active_nodes,
                o.peak_queue,
                o.migrations,
                rs,
                rn,
                re,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(mean_stretch: f64, node_seconds: f64, energy: f64) -> ClusterOutcome {
        ClusterOutcome {
            jobs: 10,
            makespan: 100.0,
            mean_stretch,
            min_stretch: 1.0,
            p50_stretch: mean_stretch,
            p95_stretch: mean_stretch * 1.5,
            p99_stretch: mean_stretch * 2.0,
            max_stretch: mean_stretch * 2.0,
            slo_violations: 1,
            qos_violation_time: 3.0,
            node_seconds,
            slot_seconds: node_seconds * 1.5,
            energy,
            peak_active_nodes: 4,
            peak_queue: 2,
            migrations: 0,
        }
    }

    fn report() -> RegretReport {
        let scenario = Scenario {
            nodes: 4,
            slots: 2,
            jobs: 10,
            seed: 7,
            arrival_rate: 1.0,
            mean_work: 8.0,
            qos_cap: 1.5,
            slo_stretch: 2.0,
            compose: "max".to_string(),
            defrag_period: None,
            apps: vec!["a".to_string(), "b".to_string()],
        };
        let run = |policy: &str, knowledge: &str, stretch: f64| RunRecord {
            policy: policy.to_string(),
            knowledge: knowledge.to_string(),
            outcome: outcome(stretch, 200.0, 300.0),
        };
        RegretReport::new(
            scenario,
            vec![
                run("first-fit", MEASURED, 1.8),
                run("interference-aware", MEASURED, 1.2),
                run("interference-aware", PREDICTED, 1.35),
            ],
        )
    }

    #[test]
    fn regret_is_relative_to_the_informed_baseline() {
        let r = report();
        let baseline = r.baseline().expect("baseline present");
        assert_eq!(baseline.policy, "interference-aware");
        let (ds, _, _) = r.regret(&r.runs[0]);
        assert!((ds - 0.6).abs() < 1e-12, "first-fit regret {ds}");
        // The baseline's own regret is exactly zero.
        let (ds, dn, de) = r.regret(&baseline.clone());
        assert_eq!((ds, dn, de), (0.0, 0.0, 0.0));
    }

    #[test]
    fn predicted_gap_is_the_headline() {
        let r = report();
        let gap = r.predicted_gap().expect("both IA runs present");
        assert!((gap - 0.15).abs() < 1e-12, "gap {gap}");
    }

    #[test]
    fn json_is_deterministic_and_parses_back() {
        let r = report();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        let parsed = Json::parse(&a).expect("valid JSON");
        assert_eq!(
            parsed.field("baseline").unwrap(),
            &Json::str("interference-aware/measured")
        );
        let runs = match parsed.field("runs").unwrap() {
            Json::Arr(v) => v,
            other => panic!("runs not an array: {other:?}"),
        };
        assert_eq!(runs.len(), 3);
        let gap = parsed
            .field("headline")
            .unwrap()
            .field("predicted_vs_measured_stretch_gap")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((gap - 0.15).abs() < 1e-9);
    }

    #[test]
    fn csv_has_one_row_per_run_and_matching_columns() {
        let r = report();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row {row:?}");
        }
    }

    #[test]
    fn missing_baseline_degrades_to_zero_regret() {
        let mut r = report();
        r.runs.retain(|run| run.policy != "interference-aware");
        assert!(r.baseline().is_none());
        assert_eq!(r.regret(&r.runs[0].clone()), (0.0, 0.0, 0.0));
        assert!(r.predicted_gap().is_none());
        // Still renders.
        assert!(Json::parse(&r.to_json()).is_ok());
    }
}
