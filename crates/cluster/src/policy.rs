//! Online placement policies over k-slot nodes.
//!
//! A policy sees the cluster through a [`ClusterView`] — node occupancy
//! plus the *knowledge* matrix (measured, predicted, or loaded from a
//! file) — and returns a concrete [`Placement`]. The engine validates
//! every decision; an impossible one is a policy error, never silent
//! bookkeeping corruption.
//!
//! The policy's knowledge matrix may differ from the truth matrix the
//! engine runs rates on: that gap is exactly what the regret report
//! quantifies (placing from O(N) predictions vs O(N²) measurement).

use cochar_sched::CostMatrix;
use cochar_trace::Lcg;

use crate::compose::Compose;

/// Where an arriving job goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Start on this node (engine-validated: must exist and have a free
    /// slot).
    Node(usize),
    /// Wait in the FIFO queue until capacity frees up.
    Queue,
}

/// The cluster state a policy decides from.
pub struct ClusterView<'a> {
    /// What the policy believes about pairwise interference.
    pub knowledge: &'a CostMatrix,
    /// Apps currently on each node (length = cluster size, each at most
    /// `slots` long).
    pub nodes: &'a [Vec<usize>],
    /// Slots per node.
    pub slots: usize,
    /// The arriving job's app.
    pub app: usize,
    /// k-way composition the scenario runs under.
    pub compose: Compose,
    /// The scenario's QoS cap (informational; policies may carry their
    /// own).
    pub qos_cap: f64,
}

impl ClusterView<'_> {
    /// True if `node` has a free slot.
    pub fn has_free_slot(&self, node: usize) -> bool {
        self.nodes[node].len() < self.slots
    }

    /// Lowest-index empty node, if any.
    pub fn first_empty(&self) -> Option<usize> {
        self.nodes.iter().position(|n| n.is_empty())
    }

    /// Bundle cost of adding the arriving app to `node`: the worst
    /// composed slowdown any member of the hypothetical bundle would
    /// suffer, judged by the knowledge matrix. At two slots this equals
    /// `CostMatrix::cost(app, occupant)`.
    pub fn placement_cost(&self, node: usize) -> f64 {
        self.compose.bundle_cost_with(self.knowledge, &self.nodes[node], self.app)
    }
}

/// An online k-slot placement policy.
pub trait ClusterPolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;
    /// Decides where the arriving job goes (`&mut` so seeded stochastic
    /// policies can carry their generator).
    fn place(&mut self, view: &ClusterView<'_>) -> Placement;
}

/// Uniformly random free-slotted node (seeded, deterministic).
pub struct Random {
    rng: Lcg,
}

impl Random {
    /// A random policy drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        Random { rng: Lcg::new(seed) }
    }
}

impl ClusterPolicy for Random {
    fn name(&self) -> &'static str {
        "random"
    }

    fn place(&mut self, view: &ClusterView<'_>) -> Placement {
        let free = || (0..view.nodes.len()).filter(|&n| view.has_free_slot(n));
        let count = free().count();
        if count == 0 {
            return Placement::Queue;
        }
        let pick = self.rng.next_below(count as u64) as usize;
        Placement::Node(free().nth(pick).expect("pick is below the free count"))
    }
}

/// First (lowest-index) node with a free slot: densest packing near the
/// front, oblivious to interference.
pub struct FirstFit;

impl ClusterPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn place(&mut self, view: &ClusterView<'_>) -> Placement {
        match (0..view.nodes.len()).find(|&n| view.has_free_slot(n)) {
            Some(n) => Placement::Node(n),
            None => Placement::Queue,
        }
    }
}

/// Most-loaded node with a free slot (ties: lowest index) — classic
/// consolidation bin-packing, minimizes the number of active nodes.
pub struct BestFit;

impl ClusterPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn place(&mut self, view: &ClusterView<'_>) -> Placement {
        let mut best: Option<(usize, usize)> = None; // (occupancy, node)
        for (n, members) in view.nodes.iter().enumerate() {
            if members.len() >= view.slots {
                continue;
            }
            if best.is_none_or(|(occ, _)| members.len() > occ) {
                best = Some((members.len(), n));
            }
        }
        match best {
            Some((_, n)) => Placement::Node(n),
            None => Placement::Queue,
        }
    }
}

/// Least-loaded node first (ties: lowest index) — spread for latency. At
/// two slots this is empty nodes first, then half-full ones.
pub struct Spread;

impl ClusterPolicy for Spread {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn place(&mut self, view: &ClusterView<'_>) -> Placement {
        let mut best: Option<(usize, usize)> = None; // (occupancy, node)
        for (n, members) in view.nodes.iter().enumerate() {
            if members.len() >= view.slots {
                continue;
            }
            if best.is_none_or(|(occ, _)| members.len() < occ) {
                best = Some((members.len(), n));
            }
        }
        match best {
            Some((_, n)) => Placement::Node(n),
            None => Placement::Queue,
        }
    }
}

/// Interference-aware: the occupied free-slotted node with the cheapest
/// composed bundle cost if it stays under the QoS cap; otherwise an
/// empty node; only breach the cap when nothing else is available and
/// `strict` is off.
pub struct InterferenceAware {
    /// Bundles at or above this cost are avoided.
    pub qos_cap: f64,
    /// If set, queue rather than ever breach the cap.
    pub strict: bool,
}

impl InterferenceAware {
    /// A non-strict policy with the given QoS cap.
    pub fn new(qos_cap: f64) -> Self {
        InterferenceAware { qos_cap, strict: false }
    }
}

impl ClusterPolicy for InterferenceAware {
    fn name(&self) -> &'static str {
        "interference-aware"
    }

    fn place(&mut self, view: &ClusterView<'_>) -> Placement {
        // Cheapest *occupied* node with a free slot (first minimum wins).
        let mut best: Option<(usize, f64)> = None;
        for (n, members) in view.nodes.iter().enumerate() {
            if members.is_empty() || members.len() >= view.slots {
                continue;
            }
            let cost = view.placement_cost(n);
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((n, cost));
            }
        }
        if let Some((node, cost)) = best {
            if cost < self.qos_cap {
                return Placement::Node(node);
            }
        }
        if let Some(node) = view.first_empty() {
            return Placement::Node(node);
        }
        match (best, self.strict) {
            (Some((node, _)), false) => Placement::Node(node),
            _ => Placement::Queue,
        }
    }
}

/// The policy roster `cochar cluster compare` sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`Random`].
    Random,
    /// [`FirstFit`].
    FirstFit,
    /// [`BestFit`].
    BestFit,
    /// [`Spread`].
    Spread,
    /// [`InterferenceAware`] (non-strict).
    InterferenceAware,
    /// [`BestFit`] placement plus periodic defragmentation migrations.
    Defrag,
}

impl PolicyKind {
    /// Parses a `--policy` flag value.
    pub fn parse(s: &str) -> Result<PolicyKind, String> {
        match s {
            "random" => Ok(PolicyKind::Random),
            "first-fit" => Ok(PolicyKind::FirstFit),
            "best-fit" => Ok(PolicyKind::BestFit),
            "spread" => Ok(PolicyKind::Spread),
            "interference-aware" => Ok(PolicyKind::InterferenceAware),
            "defrag" => Ok(PolicyKind::Defrag),
            other => Err(format!(
                "unknown policy {other:?} \
                 (random|first-fit|best-fit|spread|interference-aware|defrag)"
            )),
        }
    }

    /// Every policy, in report order.
    pub fn all() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Random,
            PolicyKind::FirstFit,
            PolicyKind::BestFit,
            PolicyKind::Spread,
            PolicyKind::InterferenceAware,
            PolicyKind::Defrag,
        ]
    }

    /// Builds the policy. `seed` feeds stochastic policies; `qos_cap`
    /// parameterizes interference-aware ones.
    pub fn build(&self, seed: u64, qos_cap: f64) -> Box<dyn ClusterPolicy> {
        match self {
            PolicyKind::Random => Box::new(Random::new(seed)),
            PolicyKind::FirstFit => Box::new(FirstFit),
            PolicyKind::BestFit | PolicyKind::Defrag => Box::new(BestFit),
            PolicyKind::Spread => Box::new(Spread),
            PolicyKind::InterferenceAware => Box::new(InterferenceAware::new(qos_cap)),
        }
    }

    /// True if this kind wants the engine's periodic defragmentation.
    pub fn wants_defrag(&self) -> bool {
        matches!(self, PolicyKind::Defrag)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PolicyKind::Random => "random",
            PolicyKind::FirstFit => "first-fit",
            PolicyKind::BestFit => "best-fit",
            PolicyKind::Spread => "spread",
            PolicyKind::InterferenceAware => "interference-aware",
            PolicyKind::Defrag => "defrag",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> CostMatrix {
        CostMatrix {
            names: vec!["quiet".into(), "loud".into()],
            slow: vec![vec![1.05, 2.0], vec![2.0, 1.05]],
        }
    }

    fn view<'a>(m: &'a CostMatrix, nodes: &'a [Vec<usize>], app: usize) -> ClusterView<'a> {
        ClusterView { knowledge: m, nodes, slots: 2, app, compose: Compose::Max, qos_cap: 1.5 }
    }

    #[test]
    fn first_fit_takes_lowest_index_free_slot() {
        let m = matrix();
        let nodes = vec![vec![0, 0], vec![1], vec![]];
        let mut p = FirstFit;
        assert_eq!(p.place(&view(&m, &nodes, 0)), Placement::Node(1));
    }

    #[test]
    fn best_fit_prefers_the_most_loaded_open_node() {
        let m = matrix();
        let nodes = vec![vec![], vec![0], vec![]];
        let mut p = BestFit;
        assert_eq!(p.place(&view(&m, &nodes, 0)), Placement::Node(1));
    }

    #[test]
    fn spread_prefers_empty_nodes_then_half_full() {
        let m = matrix();
        let mut p = Spread;
        let nodes = vec![vec![0], vec![], vec![0, 0]];
        assert_eq!(p.place(&view(&m, &nodes, 1)), Placement::Node(1));
        let full = vec![vec![0], vec![1], vec![0, 0]];
        assert_eq!(p.place(&view(&m, &full, 1)), Placement::Node(0));
    }

    #[test]
    fn interference_aware_picks_the_cheapest_safe_bundle() {
        let m = matrix();
        let nodes = vec![vec![1], vec![0], vec![0, 0]];
        // A "quiet" arrival: sharing with node 1's "quiet" costs 1.05,
        // sharing with node 0's "loud" costs 2.0.
        let mut p = InterferenceAware::new(1.5);
        assert_eq!(p.place(&view(&m, &nodes, 0)), Placement::Node(1));
        // A "loud" arrival: the loud/loud self-pair on node 0 costs only
        // the 1.05 diagonal, cheaper than 2.0 next to "quiet" on node 1.
        assert_eq!(p.place(&view(&m, &nodes, 1)), Placement::Node(0));
        // Strict queues when every option breaches and nothing is empty.
        let toxic = vec![vec![0], vec![0, 0]];
        let mut strict = InterferenceAware { qos_cap: 1.5, strict: true };
        assert_eq!(strict.place(&view(&m, &toxic, 1)), Placement::Queue);
    }

    #[test]
    fn random_is_seed_deterministic_and_only_picks_free_slots() {
        let m = matrix();
        let nodes = vec![vec![0, 0], vec![1], vec![], vec![0, 1]];
        let mut a = Random::new(9);
        let mut b = Random::new(9);
        for _ in 0..50 {
            let (pa, pb) = (a.place(&view(&m, &nodes, 0)), b.place(&view(&m, &nodes, 0)));
            assert_eq!(pa, pb);
            match pa {
                Placement::Node(n) => assert!(n == 1 || n == 2),
                Placement::Queue => panic!("free slots exist"),
            }
        }
    }

    #[test]
    fn full_cluster_queues_under_every_policy() {
        let m = matrix();
        let nodes = vec![vec![0, 1], vec![1, 1]];
        for kind in PolicyKind::all() {
            let mut p = kind.build(3, 1.5);
            assert_eq!(
                p.place(&view(&m, &nodes, 0)),
                Placement::Queue,
                "{kind} placed into a full cluster"
            );
        }
    }

    #[test]
    fn kind_parses_its_own_display() {
        for kind in PolicyKind::all() {
            assert_eq!(PolicyKind::parse(&kind.to_string()).unwrap(), kind);
        }
        assert!(PolicyKind::parse("nope").is_err());
    }
}
