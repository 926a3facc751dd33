//! `cochar cluster <run|compare> [apps...]`
//!
//! Cluster-scale placement simulation over the measured interference
//! matrix:
//!
//! * `run` — one policy, one knowledge matrix; prints the outcome.
//! * `compare` — every policy × {measured, predicted} knowledge, scored
//!   against the offline-informed baseline (interference-aware placement
//!   deciding from the measured matrix). The headline is the
//!   interference-aware policy's predicted-vs-measured stretch gap: what
//!   O(N) prediction gives up against O(N²) measurement at cluster
//!   scale.
//!
//! The engine always runs job progress on the *measured* (truth) matrix;
//! `--knowledge` only changes what the policy sees.
//!
//! Scenario flags: `--nodes N` `--slots K` `--jobs J` `--util F` (target
//! utilization; `--rate R` overrides) `--mean-work W` `--qos C` `--slo S`
//! `--compose max|product` `--defrag-period T`.
//! Workload flags: `--trace FILE` (CSV `arrival,app,work`; `#` comments)
//! replaces generation; `--trace-out FILE` saves the generated list.
//! Run flags: `--policy P` `--knowledge measured|predicted|FILE`.
//! Prediction: `--train-apps K` (fit on the first K apps only).
//! Output: `--json FILE` `--csv FILE` (deterministic regret report).

use cochar_cluster::{
    compare_sweep, parse_trace, render_trace, simulate, Compose, Job, PolicyKind, RegretReport,
    RunRecord, Scenario, SimConfig, Workload, MEASURED, PREDICTED,
};
use cochar_colocation::report::table::{f2, Table};
use cochar_colocation::Study;
use cochar_predict::{Predictor, PredictorConfig};
use cochar_sched::CostMatrix;

use crate::opts::Opts;

/// The default application roster (the `schedule` example set).
const DEFAULT_APPS: [&str; 6] =
    ["G-CC", "CIFAR", "fotonik3d", "mcf", "swaptions", "blackscholes"];

pub fn run(study: &Study, opts: &Opts) -> Result<(), String> {
    let sub = opts.pos(0, "cluster subcommand (run|compare)")?.to_string();
    if !matches!(sub.as_str(), "run" | "compare") {
        return Err(format!("unknown cluster subcommand {sub:?} (run|compare)"));
    }
    let names = app_list(study, &opts.positional[1..])?;
    let setup = Setup::from_opts(opts, names.len())?;
    // Reject a bad --policy before the O(N²) matrix measurement.
    if let Some(name) = opts.flag("policy") {
        PolicyKind::parse(name)?;
    }

    println!(
        "measuring the {n}x{n} interference matrix...",
        n = names.len()
    );
    let measured = CostMatrix::measure(study, &names);

    let jobs = match opts.flag("trace") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {path}: {e}"))?;
            parse_trace(&text, &measured)?
        }
        None => setup.workload().generate(setup.jobs, names.len()),
    };
    if let Some(path) = opts.flag("trace-out") {
        std::fs::write(path, render_trace(&jobs, &measured))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }

    match sub.as_str() {
        "run" => run_one(study, opts, &setup, &names, &measured, &jobs),
        _ => compare(study, opts, &setup, &names, &measured, &jobs),
    }
}

/// Parsed scenario knobs shared by both subcommands.
struct Setup {
    nodes: usize,
    slots: usize,
    jobs: usize,
    mean_work: f64,
    arrival_rate: f64,
    qos_cap: f64,
    slo_stretch: f64,
    compose: Compose,
    defrag_period: f64,
    seed: u64,
    train_apps: usize,
}

impl Setup {
    fn from_opts(opts: &Opts, apps: usize) -> Result<Setup, String> {
        let nodes: usize = opts.flag_parse("nodes", 64)?;
        let slots: usize = opts.flag_parse("slots", 2)?;
        let jobs: usize = opts.flag_parse("jobs", 1000)?;
        let mean_work: f64 = opts.flag_parse("mean-work", 8.0)?;
        let util: f64 = opts.flag_parse("util", 0.7)?;
        let qos_cap: f64 = opts.flag_parse("qos", 1.5)?;
        let slo_stretch: f64 = opts.flag_parse("slo", 2.0)?;
        let defrag_period: f64 = opts.flag_parse("defrag-period", 25.0)?;
        let seed: u64 = opts.flag_parse("seed", 7)?;
        let train_apps: usize = opts.flag_parse("train-apps", 4.min(apps))?;
        if nodes == 0 || slots == 0 || jobs == 0 {
            return Err("--nodes, --slots, and --jobs must be positive".into());
        }
        if !(mean_work > 0.0 && mean_work.is_finite()) {
            return Err("--mean-work must be positive".into());
        }
        if !(util > 0.0 && util.is_finite()) {
            return Err("--util must be positive".into());
        }
        if !(defrag_period > 0.0 && defrag_period.is_finite()) {
            return Err("--defrag-period must be positive".into());
        }
        if !(qos_cap > 0.0 && qos_cap.is_finite()) {
            return Err("--qos must be positive and finite".into());
        }
        if !(slo_stretch > 0.0 && slo_stretch.is_finite()) {
            return Err("--slo must be positive and finite".into());
        }
        if !(2..=apps).contains(&train_apps) {
            return Err(format!("--train-apps must be in [2, {apps}]"));
        }
        let arrival_rate = match opts.flag("rate") {
            Some(_) => opts.flag_parse("rate", 0.0)?,
            None => Workload::rate_for_utilization(util, nodes, slots, mean_work),
        };
        if !(arrival_rate > 0.0 && arrival_rate.is_finite()) {
            return Err("--rate must be positive".into());
        }
        let compose = Compose::parse(opts.flag("compose").unwrap_or("max"))?;
        Ok(Setup {
            nodes,
            slots,
            jobs,
            mean_work,
            arrival_rate,
            qos_cap,
            slo_stretch,
            compose,
            defrag_period,
            seed,
            train_apps,
        })
    }

    fn workload(&self) -> Workload {
        Workload {
            arrival_rate: self.arrival_rate,
            mean_work: self.mean_work,
            seed: self.seed,
        }
    }

    fn sim_config(&self, kind: PolicyKind) -> SimConfig {
        SimConfig {
            nodes: self.nodes,
            slots: self.slots,
            qos_cap: self.qos_cap,
            slo_stretch: self.slo_stretch,
            compose: self.compose,
            defrag_period: kind.wants_defrag().then_some(self.defrag_period),
            ..SimConfig::default()
        }
    }

    fn scenario(&self, apps: &[&str], jobs: usize, defrag: bool) -> Scenario {
        Scenario {
            nodes: self.nodes,
            slots: self.slots,
            jobs,
            seed: self.seed,
            arrival_rate: self.arrival_rate,
            mean_work: self.mean_work,
            qos_cap: self.qos_cap,
            slo_stretch: self.slo_stretch,
            compose: self.compose.to_string(),
            defrag_period: defrag.then_some(self.defrag_period),
            apps: apps.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Predicts the full matrix from solo signatures, training on the first
/// `train_apps` applications only (the O(N) path).
fn predicted_matrix(study: &Study, names: &[&str], setup: &Setup) -> CostMatrix {
    let config = PredictorConfig { seed: setup.seed, ..PredictorConfig::default() };
    Predictor::export_matrix(study, names, setup.train_apps, config)
}

/// Resolves `--knowledge` to a matrix the policy will decide from.
fn knowledge_matrix(
    study: &Study,
    opts: &Opts,
    setup: &Setup,
    names: &[&str],
    measured: &CostMatrix,
) -> Result<(String, CostMatrix), String> {
    match opts.flag("knowledge").unwrap_or(MEASURED) {
        MEASURED => Ok((MEASURED.to_string(), measured.clone())),
        PREDICTED => {
            println!(
                "predicting the matrix from solo signatures (training on {} apps)...",
                setup.train_apps
            );
            Ok((PREDICTED.to_string(), predicted_matrix(study, names, setup)))
        }
        path => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {path}: {e}"))?;
            let m = CostMatrix::from_json(&text)?;
            if m.names != measured.names {
                return Err(format!(
                    "knowledge matrix {path} covers {:?}, scenario needs {:?}",
                    m.names, measured.names
                ));
            }
            Ok((path.to_string(), m))
        }
    }
}

fn run_one(
    study: &Study,
    opts: &Opts,
    setup: &Setup,
    names: &[&str],
    measured: &CostMatrix,
    jobs: &[Job],
) -> Result<(), String> {
    let kind = PolicyKind::parse(opts.flag("policy").unwrap_or("interference-aware"))?;
    let (knowledge_label, knowledge) = knowledge_matrix(study, opts, setup, names, measured)?;
    let mut policy = kind.build(setup.seed, setup.qos_cap);
    let outcome = simulate(measured, &knowledge, policy.as_mut(), jobs, &setup.sim_config(kind))
        .map_err(|e| e.to_string())?;

    println!(
        "\n{} jobs on {} nodes x {} slots ({} placement, {} knowledge, {} composition):",
        outcome.jobs, setup.nodes, setup.slots, kind, knowledge_label, setup.compose
    );
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["makespan".into(), f2(outcome.makespan)]);
    t.row(vec!["mean stretch".into(), f2(outcome.mean_stretch)]);
    t.row(vec!["p95 stretch".into(), f2(outcome.p95_stretch)]);
    t.row(vec!["p99 stretch".into(), f2(outcome.p99_stretch)]);
    t.row(vec![
        format!("SLO violations (>{:.1}x)", setup.slo_stretch),
        format!("{} ({:.1}%)", outcome.slo_violations, outcome.slo_frac() * 100.0),
    ]);
    t.row(vec!["QoS violation time".into(), f2(outcome.qos_violation_time)]);
    t.row(vec!["node-seconds".into(), f2(outcome.node_seconds)]);
    t.row(vec!["energy (idle-aware)".into(), f2(outcome.energy)]);
    t.row(vec!["peak active nodes".into(), outcome.peak_active_nodes.to_string()]);
    t.row(vec!["peak queue".into(), outcome.peak_queue.to_string()]);
    t.row(vec!["migrations".into(), outcome.migrations.to_string()]);
    println!("{}", t.render());

    let report = RegretReport::new(
        setup.scenario(names, jobs.len(), kind.wants_defrag()),
        vec![RunRecord { policy: kind.to_string(), knowledge: knowledge_label, outcome }],
    );
    write_reports(opts, &report)
}

fn compare(
    study: &Study,
    opts: &Opts,
    setup: &Setup,
    names: &[&str],
    measured: &CostMatrix,
    jobs: &[Job],
) -> Result<(), String> {
    println!(
        "predicting the matrix from solo signatures (training on {} apps)...",
        setup.train_apps
    );
    let predicted = predicted_matrix(study, names, setup);
    println!(
        "simulating {} jobs on {} nodes x {} slots, {} policies x 2 knowledge matrices...",
        jobs.len(),
        setup.nodes,
        setup.slots,
        PolicyKind::all().len()
    );

    // The defrag kind's config carries the period; the sweep hands it to
    // the defrag runs only.
    let cfg = setup.sim_config(PolicyKind::Defrag);
    let runs = compare_sweep(measured, &predicted, jobs, &cfg, setup.seed)
        .map_err(|e| e.to_string())?;
    let report = RegretReport::new(setup.scenario(names, jobs.len(), true), runs);

    let mut t = Table::new(vec![
        "policy", "knowledge", "stretch", "p95", "SLO%", "QoS time", "node-sec", "energy",
        "regret",
    ]);
    for r in &report.runs {
        let o = &r.outcome;
        let (regret, _, _) = report.regret(r);
        t.row(vec![
            r.policy.clone(),
            r.knowledge.clone(),
            f2(o.mean_stretch),
            f2(o.p95_stretch),
            format!("{:.1}", o.slo_frac() * 100.0),
            f2(o.qos_violation_time),
            f2(o.node_seconds),
            f2(o.energy),
            format!("{regret:+.3}"),
        ]);
    }
    println!("{}", t.render());
    println!("regret: mean stretch vs the offline-informed baseline ({})", {
        format!("{}/{}", report.baseline_policy, report.baseline_knowledge)
    });
    if let Some(gap) = report.predicted_gap() {
        println!(
            "headline: interference-aware placement loses {gap:+.4} mean stretch \
             deciding from predictions instead of measurements"
        );
    }
    write_reports(opts, &report)
}

fn write_reports(opts: &Opts, report: &RegretReport) -> Result<(), String> {
    if let Some(path) = opts.flag("json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    crate::commands::maybe_write_csv(opts, &report.to_csv())
}

/// Resolves the positional app list; empty means the default roster.
fn app_list<'a>(study: &Study, positional: &'a [String]) -> Result<Vec<&'a str>, String> {
    if positional.is_empty() {
        for n in DEFAULT_APPS {
            assert!(study.registry().get(n).is_some(), "default roster app {n} missing");
        }
        return Ok(DEFAULT_APPS.to_vec());
    }
    if positional.len() < 2 {
        return Err("cluster scenarios need at least two applications".into());
    }
    let mut names = Vec::with_capacity(positional.len());
    for n in positional {
        if study.registry().get(n).is_none() {
            return Err(format!("unknown application {n:?}; try `cochar list`"));
        }
        names.push(n.as_str());
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(args: &[&str]) -> Result<Setup, String> {
        let mut argv = vec!["cluster".to_string(), "compare".to_string()];
        argv.extend(args.iter().map(|s| s.to_string()));
        Setup::from_opts(&Opts::parse(&argv)?, 6)
    }

    #[test]
    fn scenario_numbers_must_be_positive_and_finite() {
        assert!(setup(&[]).is_ok());
        for (flag, value) in
            [("--qos", "nan"), ("--qos", "inf"), ("--qos", "0"), ("--slo", "-1"), ("--slo", "NaN")]
        {
            let err = setup(&[flag, value]).err();
            let err = err.unwrap_or_else(|| panic!("{flag} {value} accepted"));
            assert!(err.contains(flag), "{flag} {value}: {err}");
        }
    }
}
