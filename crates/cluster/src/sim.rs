//! The discrete-event cluster engine.
//!
//! Thousands of k-slot nodes, a binary-heap event loop
//! ([`crate::event`]), and exact fluid progress between events: every
//! running job advances at `1 / slowdown` where its slowdown is composed
//! from pairwise directed entries of the **truth** matrix
//! ([`crate::compose`]). The placement policy decides from a separate
//! **knowledge** matrix; handing it the predicted matrix while the world
//! runs on the measured one is how predicted-placement regret is
//! quantified.
//!
//! At two slots per node this engine reproduces
//! `cochar_sched::online::simulate` to within floating-point noise
//! (pinned at 1e-9 by `tests/crosscheck.rs`), which is what licenses
//! demoting the old path to a fast special case.
//!
//! The engine is incremental. Each running job's rate and each node's
//! QoS-violation flag are cached, and the caches are refreshed only in
//! `reschedule`, over the event's dirty nodes (every node whose
//! membership `start`, `complete_due` or `defragment` changed);
//! `advance` only reads them, and debug builds check on every `advance`
//! that both caches are bit-equal to a fresh computation. The ledger in
//! `advance` walks every node in index order on purpose: its float sums
//! are order-sensitive, and the report's bytes depend on them.

use std::collections::VecDeque;

use cochar_sched::CostMatrix;

use crate::compose::Compose;
use crate::event::{Event, EventQueue};
use crate::job::Job;
use crate::policy::{ClusterPolicy, ClusterView, Placement};

/// Completion epsilon on remaining work, matching `sched::online`.
const DONE: f64 = 1e-9;

/// Simultaneity window for arrival batching, matching `sched::online`.
const TIE: f64 = 1e-12;

/// Scenario knobs for one simulation.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// Job slots per node (k).
    pub slots: usize,
    /// Composed slowdowns at or above this cap count as QoS violations.
    pub qos_cap: f64,
    /// Per-job SLO: a stretch above this threshold is an SLO violation.
    pub slo_stretch: f64,
    /// How pairwise slowdowns compose to k-way degradation.
    pub compose: Compose,
    /// If set, a defragmentation event fires every this many time units.
    pub defrag_period: Option<f64>,
    /// Idle-node power as a fraction of an active node's (energy ledger).
    pub idle_power: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 64,
            slots: 2,
            qos_cap: 1.5,
            slo_stretch: 2.0,
            compose: Compose::Max,
            defrag_period: None,
            idle_power: 0.3,
        }
    }
}

/// Why a simulation could not produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The policy made an impossible decision (placed onto a missing or
    /// full node, or left jobs queued with capacity free).
    Policy {
        /// Name of the offending policy.
        policy: String,
        /// What it did.
        detail: String,
    },
    /// A job or the scenario configuration is malformed.
    Config {
        /// What is wrong.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Policy { policy, detail } => {
                write!(f, "policy error ({policy}): {detail}")
            }
            SimError::Config { detail } => write!(f, "config error: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate result of one simulation.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// Jobs simulated.
    pub jobs: usize,
    /// Completion time of the last job.
    pub makespan: f64,
    /// Mean of per-job `(finish - arrival) / work` (1.0 is perfect; below
    /// 1.0 is possible under constructive co-runs).
    pub mean_stretch: f64,
    /// Best stretch (below 1.0 only when a sub-1.0 matrix entry let a
    /// constructive co-run finish a job faster than solo).
    pub min_stretch: f64,
    /// Median stretch.
    pub p50_stretch: f64,
    /// 95th-percentile stretch.
    pub p95_stretch: f64,
    /// 99th-percentile stretch.
    pub p99_stretch: f64,
    /// Worst stretch.
    pub max_stretch: f64,
    /// Jobs whose stretch exceeded the SLO threshold.
    pub slo_violations: usize,
    /// Time-integrated count of nodes hosting a bundle whose composed
    /// truth slowdown reaches the QoS cap.
    pub qos_violation_time: f64,
    /// Time-integrated count of non-empty nodes (consolidation ledger).
    pub node_seconds: f64,
    /// Time-integrated count of occupied slots.
    pub slot_seconds: f64,
    /// Energy proxy: active nodes at power 1.0, idle nodes at
    /// `idle_power`, integrated until the last completion.
    pub energy: f64,
    /// Most nodes simultaneously non-empty.
    pub peak_active_nodes: usize,
    /// Longest the arrival queue ever got.
    pub peak_queue: usize,
    /// Jobs moved by defragmentation events.
    pub migrations: usize,
}

impl ClusterOutcome {
    /// Fraction of jobs that violated the SLO.
    pub fn slo_frac(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.slo_violations as f64 / self.jobs as f64
        }
    }
}

/// Runs `jobs` through `policy` on a cluster of `cfg.nodes` × `cfg.slots`
/// slots. `truth` drives actual progress rates and QoS accounting;
/// `knowledge` is what the policy sees (pass the same matrix for an
/// informed policy, a predicted one to measure prediction regret).
pub fn simulate(
    truth: &CostMatrix,
    knowledge: &CostMatrix,
    policy: &mut dyn ClusterPolicy,
    jobs: &[Job],
    cfg: &SimConfig,
) -> Result<ClusterOutcome, SimError> {
    let config_err = |detail: String| Err(SimError::Config { detail });
    if cfg.nodes == 0 || cfg.slots == 0 {
        return config_err(format!("{} nodes x {} slots is an empty cluster", cfg.nodes, cfg.slots));
    }
    if !(cfg.qos_cap.is_finite() && cfg.qos_cap > 0.0) {
        return config_err(format!("QoS cap {} must be positive and finite", cfg.qos_cap));
    }
    if !(cfg.slo_stretch.is_finite() && cfg.slo_stretch > 0.0) {
        return config_err(format!("SLO stretch {} must be positive and finite", cfg.slo_stretch));
    }
    if !(0.0..=1.0).contains(&cfg.idle_power) {
        return config_err(format!("idle power {} must lie in [0, 1]", cfg.idle_power));
    }
    if knowledge.len() != truth.len() {
        return config_err(format!(
            "knowledge matrix covers {} apps, truth covers {}",
            knowledge.len(),
            truth.len()
        ));
    }
    for (i, j) in jobs.iter().enumerate() {
        if j.app >= truth.len() {
            return config_err(format!("job {i}: app {} outside the {}-app matrix", j.app, truth.len()));
        }
        if !(j.work.is_finite() && j.work > 0.0) {
            return config_err(format!("job {i}: work {} must be positive and finite", j.work));
        }
        if !(j.arrival.is_finite() && j.arrival >= 0.0) {
            return config_err(format!("job {i}: arrival {} must be non-negative", j.arrival));
        }
    }

    let mut e = Engine {
        truth,
        knowledge,
        jobs,
        cfg: *cfg,
        node_members: vec![Vec::new(); cfg.nodes],
        node_apps: vec![Vec::new(); cfg.nodes],
        running: Vec::new(),
        left: Vec::new(),
        rate_of: Vec::new(),
        run_slot: vec![usize::MAX; jobs.len()],
        violating: vec![false; cfg.nodes],
        node_of: vec![usize::MAX; jobs.len()],
        epoch: vec![0; jobs.len()],
        finish: vec![f64::NAN; jobs.len()],
        queue: VecDeque::new(),
        events: EventQueue::new(),
        pending_arrivals: jobs.len(),
        now: 0.0,
        makespan: 0.0,
        qos_violation_time: 0.0,
        node_seconds: 0.0,
        slot_seconds: 0.0,
        energy: 0.0,
        peak_active: 0,
        peak_queue: 0,
        migrations: 0,
    };

    // Arrival events in (time, index) order so simultaneous arrivals are
    // processed in job-list order, like sched::online's stable sort.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| jobs[a].arrival.total_cmp(&jobs[b].arrival).then(a.cmp(&b)));
    for &j in &order {
        e.events.push(jobs[j].arrival, Event::JobArrival { job: j });
    }
    if let Some(period) = cfg.defrag_period {
        if !(period.is_finite() && period > 0.0) {
            return config_err(format!("defrag period {period} must be positive"));
        }
        e.events.push(period, Event::Defragmentation);
    }

    e.run(policy)?;
    Ok(e.into_outcome())
}

struct Engine<'a> {
    truth: &'a CostMatrix,
    knowledge: &'a CostMatrix,
    jobs: &'a [Job],
    cfg: SimConfig,
    /// Job indices on each node.
    node_members: Vec<Vec<usize>>,
    /// Apps on each node (parallel to `node_members`; what policies see).
    node_apps: Vec<Vec<usize>>,
    /// The running table: job ids plus, in the same order, each job's
    /// remaining work and its progress rate as of the last `reschedule`.
    /// Parallel arrays so the per-event sweeps read memory sequentially.
    running: Vec<usize>,
    left: Vec<f64>,
    rate_of: Vec<f64>,
    /// Each job's index in the running table (`usize::MAX` when not
    /// running).
    run_slot: Vec<usize>,
    /// Whether each node's bundle breaches the QoS cap, as of the last
    /// `reschedule`.
    violating: Vec<bool>,
    node_of: Vec<usize>,
    epoch: Vec<u64>,
    finish: Vec<f64>,
    queue: VecDeque<usize>,
    events: EventQueue,
    pending_arrivals: usize,
    now: f64,
    makespan: f64,
    qos_violation_time: f64,
    node_seconds: f64,
    slot_seconds: f64,
    energy: f64,
    peak_active: usize,
    peak_queue: usize,
    migrations: usize,
}

impl Engine<'_> {
    /// Progress rate of running job `j`: `1 / composed truth slowdown`.
    fn rate(&self, j: usize) -> f64 {
        let node = self.node_of[j];
        let members = &self.node_members[node];
        if members.len() < 2 {
            return 1.0;
        }
        let me = self.jobs[j].app;
        let others = members.iter().filter(|&&m| m != j).map(|&m| self.jobs[m].app);
        1.0 / self.cfg.compose.slowdown(self.truth, me, others)
    }

    /// True while `node`'s bundle breaches the QoS cap under truth.
    fn node_in_violation(&self, node: usize) -> bool {
        let apps = &self.node_apps[node];
        apps.len() >= 2 && self.cfg.compose.bundle_cost(self.truth, apps) >= self.cfg.qos_cap
    }

    /// Advances every running job by `dt` and accrues the time-integrated
    /// ledgers, mirroring sched::online's accounting loop shape. Reads the
    /// rate and violation caches only; debug builds recompute both and
    /// demand bit equality.
    fn advance(&mut self, dt: f64) {
        debug_assert!(self.caches_fresh(), "rate or violation cache went stale");
        for (left, &rate) in self.left.iter_mut().zip(&self.rate_of) {
            *left -= dt * rate;
        }
        // The ledger walks every node in index order on purpose: the
        // `slot_seconds` sum is order-sensitive, so a `dt * count` shortcut
        // would change the report's bytes.
        let mut active = 0usize;
        for node in 0..self.cfg.nodes {
            let occ = self.node_members[node].len();
            if occ == 0 {
                continue;
            }
            active += 1;
            self.node_seconds += dt;
            self.slot_seconds += dt * occ as f64;
            if self.violating[node] {
                self.qos_violation_time += dt;
            }
        }
        self.energy +=
            dt * (active as f64 + self.cfg.idle_power * (self.cfg.nodes - active) as f64);
        self.peak_active = self.peak_active.max(active);
    }

    /// Completes every running job whose work is exhausted.
    fn complete_due(&mut self, dirty: &mut Vec<usize>) {
        let mut i = 0;
        while let Some(skip) = self.left[i..].iter().position(|&left| left <= DONE) {
            i += skip;
            let j = self.running.swap_remove(i);
            self.left.swap_remove(i);
            self.rate_of.swap_remove(i);
            if let Some(&moved) = self.running.get(i) {
                self.run_slot[moved] = i;
            }
            self.run_slot[j] = usize::MAX;
            self.finish[j] = self.now;
            self.makespan = self.makespan.max(self.now);
            let node = self.node_of[j];
            let pos = self.node_members[node]
                .iter()
                .position(|&m| m == j)
                .expect("member bookkeeping");
            self.node_members[node].remove(pos);
            self.node_apps[node].remove(pos);
            self.node_of[j] = usize::MAX;
            self.epoch[j] += 1; // invalidate its pending JobEnd
            dirty.push(node);
        }
    }

    fn view(&self, app: usize) -> ClusterView<'_> {
        ClusterView {
            knowledge: self.knowledge,
            nodes: &self.node_apps,
            slots: self.cfg.slots,
            app,
            compose: self.cfg.compose,
            qos_cap: self.cfg.qos_cap,
        }
    }

    /// Starts `job` on `node`, validating the policy's decision.
    fn start(
        &mut self,
        policy_name: &str,
        job: usize,
        node: usize,
        dirty: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        if node >= self.cfg.nodes {
            return Err(SimError::Policy {
                policy: policy_name.to_string(),
                detail: format!("placed job {job} onto node {node} of {}", self.cfg.nodes),
            });
        }
        if self.node_members[node].len() >= self.cfg.slots {
            return Err(SimError::Policy {
                policy: policy_name.to_string(),
                detail: format!(
                    "placed job {job} onto full node {node} ({}/{} slots)",
                    self.node_members[node].len(),
                    self.cfg.slots
                ),
            });
        }
        self.node_members[node].push(job);
        self.node_apps[node].push(self.jobs[job].app);
        self.node_of[job] = node;
        self.run_slot[job] = self.running.len();
        self.running.push(job);
        self.left.push(self.jobs[job].work);
        self.rate_of.push(1.0); // refreshed by `reschedule` (`node` is dirty)
        dirty.push(node);
        Ok(())
    }

    /// Asks the policy about `job`; places it or queues it.
    fn place_or_queue(
        &mut self,
        policy: &mut dyn ClusterPolicy,
        job: usize,
        dirty: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let decision = policy.place(&self.view(self.jobs[job].app));
        match decision {
            Placement::Queue => {
                self.queue.push_back(job);
                self.peak_queue = self.peak_queue.max(self.queue.len());
            }
            Placement::Node(node) => self.start(policy.name(), job, node, dirty)?,
        }
        Ok(())
    }

    /// Offers queued jobs (FIFO) to the policy until it declines.
    fn drain_queue(
        &mut self,
        policy: &mut dyn ClusterPolicy,
        dirty: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        while let Some(&j) = self.queue.front() {
            match policy.place(&self.view(self.jobs[j].app)) {
                Placement::Queue => break,
                Placement::Node(node) => {
                    self.queue.pop_front();
                    self.start(policy.name(), j, node, dirty)?;
                }
            }
        }
        Ok(())
    }

    /// Refreshes the rate and violation caches of the touched nodes and
    /// re-predicts completion times for their still-running members (their
    /// rates may have changed). The only writer of both caches.
    fn reschedule(&mut self, dirty: &mut Vec<usize>) {
        dirty.sort_unstable();
        dirty.dedup();
        for &node in dirty.iter() {
            self.violating[node] = self.node_in_violation(node);
            for i in 0..self.node_members[node].len() {
                let j = self.node_members[node][i];
                let slot = self.run_slot[j];
                let rate = self.rate(j);
                self.rate_of[slot] = rate;
                self.epoch[j] += 1;
                let eta = self.now + self.left[slot].max(0.0) / rate;
                self.events.push(eta, Event::JobEnd { job: j, epoch: self.epoch[j] });
            }
        }
        dirty.clear();
    }

    /// True if every cached rate and violation flag is bit-equal to a
    /// fresh computation (the invariant `advance` relies on).
    fn caches_fresh(&self) -> bool {
        let rates_fresh = self.running.iter().zip(&self.rate_of).enumerate().all(
            |(slot, (&j, &rate))| {
                self.run_slot[j] == slot && rate.to_bits() == self.rate(j).to_bits()
            },
        );
        rates_fresh
            && (0..self.cfg.nodes).all(|n| self.violating[n] == self.node_in_violation(n))
    }

    /// Periodic consolidation: migrate jobs off lightly-loaded nodes onto
    /// more-loaded ones whenever the *knowledge* matrix says every
    /// affected bundle stays under the QoS cap, emptying nodes (and their
    /// idle-power share of the energy ledger). All-or-nothing per source
    /// node; migrations are modeled as free (state fits in slot memory).
    fn defragment(&mut self, dirty: &mut Vec<usize>) {
        let (compose, knowledge) = (self.cfg.compose, self.knowledge);
        let mut plan: Vec<(usize, usize)> = Vec::new(); // (job, target)
        loop {
            // Source: the least-occupied non-empty node (ties: highest
            // index, so tail nodes empty first).
            let mut source: Option<(usize, usize)> = None; // (occupancy, node)
            for (n, members) in self.node_members.iter().enumerate() {
                if members.is_empty() {
                    continue;
                }
                if source.is_none_or(|(occ, _)| members.len() <= occ) {
                    source = Some((members.len(), n));
                }
            }
            let Some((_, src)) = source else { break };
            // Plan a full evacuation, tentatively pushing each mover's app
            // onto its target so intra-plan moves see each other; an
            // infeasible plan is popped back off.
            plan.clear();
            let mut feasible = true;
            for i in 0..self.node_members[src].len() {
                let job = self.node_members[src][i];
                let app = self.jobs[job].app;
                let mut best: Option<(usize, f64)> = None;
                for (t, apps) in self.node_apps.iter().enumerate() {
                    if t == src || apps.is_empty() || apps.len() >= self.cfg.slots {
                        continue;
                    }
                    let cost = compose.bundle_cost_with(knowledge, apps, app);
                    if cost < self.cfg.qos_cap && best.is_none_or(|(_, c)| cost < c) {
                        best = Some((t, cost));
                    }
                }
                match best {
                    Some((t, _)) => {
                        self.node_apps[t].push(app);
                        plan.push((job, t));
                    }
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible || plan.is_empty() {
                for &(_, t) in plan.iter().rev() {
                    self.node_apps[t].pop();
                }
                break;
            }
            for &(job, target) in &plan {
                let pos = self.node_members[src]
                    .iter()
                    .position(|&m| m == job)
                    .expect("defrag bookkeeping");
                self.node_members[src].remove(pos);
                self.node_apps[src].remove(pos);
                self.node_members[target].push(job);
                self.node_of[job] = target;
                self.migrations += 1;
                dirty.push(target);
            }
            dirty.push(src);
        }
    }

    fn run(&mut self, policy: &mut dyn ClusterPolicy) -> Result<(), SimError> {
        let mut dirty: Vec<usize> = Vec::new();
        while let Some((t, ev)) = self.pop_valid() {
            let dt = t - self.now;
            if dt > 0.0 {
                self.advance(dt);
            }
            self.now = t;
            // Completions first (frees capacity), then the FIFO queue,
            // then arrivals due at this instant — sched::online's order.
            self.complete_due(&mut dirty);
            self.drain_queue(policy, &mut dirty)?;
            match ev {
                Event::JobArrival { job } => {
                    self.pending_arrivals -= 1;
                    self.place_or_queue(policy, job, &mut dirty)?;
                }
                Event::JobEnd { job, .. } => {
                    if self.finish[job].is_nan() {
                        // Prediction drift left a sliver of work: re-aim.
                        // A fresh rate, not `rate_of`: this instant's
                        // completions may have changed the job's node, and
                        // the cache catches up only in `reschedule`.
                        self.epoch[job] += 1;
                        let left = self.left[self.run_slot[job]];
                        let eta = self.now + left.max(0.0) / self.rate(job);
                        self.events.push(eta, Event::JobEnd { job, epoch: self.epoch[job] });
                    }
                }
                Event::Defragmentation => {
                    self.defragment(&mut dirty);
                    if self.pending_arrivals > 0
                        || !self.running.is_empty()
                        || !self.queue.is_empty()
                    {
                        let period = self.cfg.defrag_period.expect("defrag event without period");
                        self.events.push(self.now + period, Event::Defragmentation);
                    }
                }
            }
            // Simultaneous arrivals join this instant's batch.
            while let Some((t2, Event::JobArrival { job })) = self.events.peek() {
                if t2 > self.now + TIE {
                    break;
                }
                self.events.pop();
                self.pending_arrivals -= 1;
                self.place_or_queue(policy, job, &mut dirty)?;
            }
            self.reschedule(&mut dirty);
        }
        if !self.queue.is_empty() {
            let free: usize =
                self.node_members.iter().map(|m| self.cfg.slots - m.len()).sum();
            return Err(SimError::Policy {
                policy: policy.name().to_string(),
                detail: format!(
                    "left {} job(s) queued with the cluster idle ({} free slot(s))",
                    self.queue.len(),
                    free
                ),
            });
        }
        Ok(())
    }

    /// Pops the next event, skipping stale completion predictions.
    fn pop_valid(&mut self) -> Option<(f64, Event)> {
        while let Some((t, ev)) = self.events.pop() {
            if let Event::JobEnd { job, epoch } = ev {
                if epoch != self.epoch[job] || !self.finish[job].is_nan() {
                    continue;
                }
            }
            return Some((t, ev));
        }
        None
    }

    fn into_outcome(self) -> ClusterOutcome {
        let n = self.jobs.len();
        let mut stretches: Vec<f64> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (self.finish[i] - j.arrival) / j.work)
            .collect();
        stretches.sort_by(f64::total_cmp);
        let pct = |q: f64| -> f64 {
            if stretches.is_empty() {
                return 1.0;
            }
            let idx = ((q * stretches.len() as f64).ceil() as usize).max(1) - 1;
            stretches[idx.min(stretches.len() - 1)]
        };
        let mean_stretch =
            if n == 0 { 1.0 } else { stretches.iter().sum::<f64>() / n as f64 };
        let slo_violations = stretches.iter().filter(|&&s| s > self.cfg.slo_stretch).count();
        ClusterOutcome {
            jobs: n,
            makespan: self.makespan,
            mean_stretch,
            min_stretch: stretches.first().copied().unwrap_or(1.0),
            p50_stretch: pct(0.50),
            p95_stretch: pct(0.95),
            p99_stretch: pct(0.99),
            max_stretch: stretches.last().copied().unwrap_or(1.0),
            slo_violations,
            qos_violation_time: self.qos_violation_time,
            node_seconds: self.node_seconds,
            slot_seconds: self.slot_seconds,
            energy: self.energy,
            peak_active_nodes: self.peak_active,
            peak_queue: self.peak_queue,
            migrations: self.migrations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BestFit, FirstFit, InterferenceAware, Spread};

    fn matrix() -> CostMatrix {
        CostMatrix {
            names: vec!["quiet".into(), "loud".into()],
            slow: vec![vec![1.05, 2.0], vec![2.0, 1.05]],
        }
    }

    fn burst(apps: &[usize]) -> Vec<Job> {
        apps.iter().map(|&app| Job { app, arrival: 0.0, work: 10.0 }).collect()
    }

    fn cfg(nodes: usize, slots: usize) -> SimConfig {
        SimConfig { nodes, slots, ..SimConfig::default() }
    }

    #[test]
    fn single_job_runs_at_solo_speed() {
        let m = matrix();
        let out = simulate(&m, &m, &mut FirstFit, &burst(&[0]), &cfg(2, 2)).unwrap();
        assert!((out.makespan - 10.0).abs() < 1e-9);
        assert!((out.mean_stretch - 1.0).abs() < 1e-9);
        assert_eq!(out.peak_active_nodes, 1);
    }

    #[test]
    fn toxic_pair_on_one_node_runs_at_half_speed() {
        let m = matrix();
        // first-fit packs both onto node 0: each runs at 1/2 speed.
        let out = simulate(&m, &m, &mut FirstFit, &burst(&[0, 1]), &cfg(2, 2)).unwrap();
        assert!((out.makespan - 20.0).abs() < 1e-9, "makespan {}", out.makespan);
        assert!(out.qos_violation_time > 19.0);
        // spread puts them on separate nodes: solo speed, no violations.
        let out = simulate(&m, &m, &mut Spread, &burst(&[0, 1]), &cfg(2, 2)).unwrap();
        assert!((out.makespan - 10.0).abs() < 1e-9, "makespan {}", out.makespan);
        assert_eq!(out.qos_violation_time, 0.0);
    }

    #[test]
    fn four_slot_node_composes_kway_degradation() {
        // Four "loud" jobs on one 4-slot node, diagonal 1.05.
        let m = matrix();
        let jobs = burst(&[1, 1, 1, 1]);
        // Max composition: slowdown 1.05 regardless of co-runner count.
        let out = simulate(&m, &m, &mut FirstFit, &jobs, &cfg(1, 4)).unwrap();
        assert!((out.makespan - 10.5).abs() < 1e-9, "max makespan {}", out.makespan);
        // Product composition: 1.05^3 per job.
        let c = SimConfig { compose: Compose::Product, ..cfg(1, 4) };
        let out = simulate(&m, &m, &mut FirstFit, &jobs, &c).unwrap();
        let expect = 10.0 * 1.05f64.powi(3);
        assert!((out.makespan - expect).abs() < 1e-9, "product makespan {}", out.makespan);
    }

    #[test]
    fn queue_drains_when_capacity_frees() {
        let m = matrix();
        let jobs = burst(&[0, 0, 0, 0, 0]); // 5 jobs, 1 node x 2 slots
        let out = simulate(&m, &m, &mut FirstFit, &jobs, &cfg(1, 2)).unwrap();
        assert!(out.makespan > 20.0, "makespan {}", out.makespan);
        assert_eq!(out.peak_queue, 3);
        assert!(out.mean_stretch > 1.5);
    }

    #[test]
    fn knowledge_truth_split_measures_prediction_quality() {
        let truth = matrix();
        // A maximally wrong knowledge matrix: thinks cross-pairs are fine
        // and self-pairs are toxic.
        let wrong = CostMatrix {
            names: truth.names.clone(),
            slow: vec![vec![2.0, 1.05], vec![1.05, 2.0]],
        };
        let jobs = burst(&[0, 1, 1, 0]);
        let mut informed = InterferenceAware::new(1.5);
        let good = simulate(&truth, &truth, &mut informed, &jobs, &cfg(2, 2)).unwrap();
        let mut misled = InterferenceAware::new(1.5);
        let bad = simulate(&truth, &wrong, &mut misled, &jobs, &cfg(2, 2)).unwrap();
        assert!(
            bad.mean_stretch > good.mean_stretch + 0.3,
            "misleading knowledge must cost stretch: {} vs {}",
            bad.mean_stretch,
            good.mean_stretch
        );
        // Truth-based QoS accounting sees the violations either way.
        assert!(bad.qos_violation_time > 0.0);
        assert_eq!(good.qos_violation_time, 0.0);
    }

    #[test]
    fn defragmentation_consolidates_and_counts_migrations() {
        // Plenty of harmless jobs spread across nodes; defrag packs them.
        let m = CostMatrix {
            names: vec!["calm".into()],
            slow: vec![vec![1.0]],
        };
        let jobs: Vec<Job> =
            (0..8).map(|i| Job { app: 0, arrival: i as f64 * 0.25, work: 40.0 }).collect();
        let base = cfg(8, 2);
        let nodefrag = simulate(&m, &m, &mut Spread, &jobs, &base).unwrap();
        let c = SimConfig { defrag_period: Some(5.0), ..base };
        let defrag = simulate(&m, &m, &mut Spread, &jobs, &c).unwrap();
        assert!(defrag.migrations > 0, "no migrations happened");
        assert!(
            defrag.node_seconds < nodefrag.node_seconds - 1.0,
            "defrag should save node-seconds: {} vs {}",
            defrag.node_seconds,
            nodefrag.node_seconds
        );
        assert!(defrag.energy < nodefrag.energy);
        // Same work either way.
        assert!((defrag.slot_seconds - nodefrag.slot_seconds).abs() < 1e-6);
    }

    #[test]
    fn defrag_respects_the_qos_cap() {
        let m = matrix();
        // One quiet + one loud on separate nodes: merging them would
        // breach the 1.5 cap, so defrag must leave them alone.
        let jobs = burst(&[0, 1]);
        let c = SimConfig { defrag_period: Some(1.0), ..cfg(2, 2) };
        let out = simulate(&m, &m, &mut Spread, &jobs, &c).unwrap();
        assert_eq!(out.migrations, 0);
        assert_eq!(out.qos_violation_time, 0.0);
    }

    #[test]
    fn bad_placements_are_policy_errors_not_corruption() {
        struct Always(usize);
        impl ClusterPolicy for Always {
            fn name(&self) -> &'static str {
                "always"
            }
            fn place(&mut self, _: &ClusterView<'_>) -> Placement {
                Placement::Node(self.0)
            }
        }
        let m = matrix();
        let jobs = burst(&[0, 0, 0]);
        // Out of range.
        let err = simulate(&m, &m, &mut Always(99), &jobs, &cfg(2, 2)).unwrap_err();
        assert!(matches!(err, SimError::Policy { .. }), "{err}");
        assert!(err.to_string().contains("policy error (always)"), "{err}");
        // Onto a full node.
        let err = simulate(&m, &m, &mut Always(0), &jobs, &cfg(2, 2)).unwrap_err();
        assert!(err.to_string().contains("full node 0"), "{err}");
    }

    #[test]
    fn deadlocked_queue_with_free_capacity_is_a_policy_error() {
        struct RefuseAll;
        impl ClusterPolicy for RefuseAll {
            fn name(&self) -> &'static str {
                "refuse-all"
            }
            fn place(&mut self, _: &ClusterView<'_>) -> Placement {
                Placement::Queue
            }
        }
        let m = matrix();
        let err = simulate(&m, &m, &mut RefuseAll, &burst(&[0]), &cfg(2, 2)).unwrap_err();
        assert!(err.to_string().contains("queued"), "{err}");
    }

    #[test]
    fn malformed_jobs_and_configs_are_config_errors() {
        let m = matrix();
        let bad_app = vec![Job { app: 7, arrival: 0.0, work: 1.0 }];
        assert!(matches!(
            simulate(&m, &m, &mut FirstFit, &bad_app, &cfg(1, 2)),
            Err(SimError::Config { .. })
        ));
        let bad_work = vec![Job { app: 0, arrival: 0.0, work: 0.0 }];
        assert!(simulate(&m, &m, &mut FirstFit, &bad_work, &cfg(1, 2)).is_err());
        assert!(simulate(&m, &m, &mut FirstFit, &[], &cfg(0, 2)).is_err());
        let mismatched = CostMatrix { names: vec!["x".into()], slow: vec![vec![1.0]] };
        assert!(simulate(&m, &mismatched, &mut FirstFit, &[], &cfg(1, 2)).is_err());
    }

    #[test]
    fn non_finite_or_out_of_range_scenario_numbers_are_config_errors() {
        let m = matrix();
        let jobs = burst(&[0, 1]);
        let bad = [
            SimConfig { qos_cap: f64::NAN, ..cfg(2, 2) },
            SimConfig { qos_cap: f64::INFINITY, ..cfg(2, 2) },
            SimConfig { qos_cap: 0.0, ..cfg(2, 2) },
            SimConfig { slo_stretch: -1.0, ..cfg(2, 2) },
            SimConfig { slo_stretch: f64::NAN, ..cfg(2, 2) },
            SimConfig { idle_power: -0.1, ..cfg(2, 2) },
            SimConfig { idle_power: 1.5, ..cfg(2, 2) },
            SimConfig { idle_power: f64::NAN, ..cfg(2, 2) },
        ];
        for c in bad {
            match simulate(&m, &m, &mut FirstFit, &jobs, &c) {
                Err(SimError::Config { .. }) => {}
                other => panic!("{c:?} gave {other:?}"),
            }
        }
        // The boundaries of the idle-power range are fine.
        for idle_power in [0.0, 1.0] {
            let c = SimConfig { idle_power, ..cfg(2, 2) };
            assert!(simulate(&m, &m, &mut FirstFit, &jobs, &c).is_ok());
        }
    }

    #[test]
    fn best_fit_consolidates_harder_than_spread() {
        let m = CostMatrix {
            names: vec!["calm".into()],
            slow: vec![vec![1.1]],
        };
        let jobs: Vec<Job> =
            (0..6).map(|i| Job { app: 0, arrival: i as f64 * 0.1, work: 20.0 }).collect();
        let bf = simulate(&m, &m, &mut BestFit, &jobs, &cfg(6, 2)).unwrap();
        let sp = simulate(&m, &m, &mut Spread, &jobs, &cfg(6, 2)).unwrap();
        assert!(
            bf.node_seconds < sp.node_seconds,
            "best-fit {} vs spread {}",
            bf.node_seconds,
            sp.node_seconds
        );
        assert!(bf.energy < sp.energy);
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let m = matrix();
        let w = crate::job::Workload { arrival_rate: 3.0, mean_work: 8.0, seed: 11 };
        let jobs = w.generate(200, m.len());
        let a = simulate(&m, &m, &mut InterferenceAware::new(1.5), &jobs, &cfg(16, 2)).unwrap();
        let b = simulate(&m, &m, &mut InterferenceAware::new(1.5), &jobs, &cfg(16, 2)).unwrap();
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.mean_stretch.to_bits(), b.mean_stretch.to_bits());
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        assert_eq!(a.qos_violation_time.to_bits(), b.qos_violation_time.to_bits());
    }
}
