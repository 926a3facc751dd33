//! cochar-cluster: a discrete-event cluster-scale placement simulator
//! with policy-regret accounting.
//!
//! The paper measures pairwise interference on one node; this crate asks
//! the operational question that measurement exists to answer: **how much
//! does interference knowledge buy at cluster scale, and how much of that
//! survives when the knowledge is predicted instead of measured?**
//!
//! The pieces:
//!
//! * [`event`] — binary-heap event queue (arrivals, predicted
//!   completions with epoch-based lazy invalidation, defrag ticks).
//! * [`compose`] — k-way degradation composed from pairwise directed
//!   slowdowns ([`Compose::Max`] / [`Compose::Product`]).
//! * [`job`] — seeded Poisson workload generation and the CSV trace
//!   format.
//! * [`policy`] — pluggable placement policies (random, first-fit,
//!   best-fit, spread, interference-aware, defrag) over k-slot nodes.
//! * [`sim`] — the engine: truth matrix drives progress rates, knowledge
//!   matrix drives decisions; per-job stretch/SLO accounting plus
//!   time-integrated node-count, QoS-violation, and energy ledgers.
//! * [`report`] — the compare sweep ([`compare_sweep`]) and its
//!   deterministic JSON/CSV regret report against the offline-informed
//!   baseline.
//! * [`compat`] — adapter running unmodified `sched::online` policies in
//!   this engine (the cross-check harness).
//!
//! At `slots = 2` the engine reproduces `cochar_sched::online::simulate`
//! to within 1e-9 on makespan, mean stretch, and node-seconds
//! (`tests/crosscheck.rs`), so results here extend — rather than fork —
//! the two-slot story.

#![warn(missing_docs)]

pub mod compat;
pub mod compose;
pub mod event;
pub mod job;
pub mod policy;
pub mod report;
pub mod sim;

pub use compat::OnlineAdapter;
pub use compose::Compose;
pub use event::{Event, EventQueue};
pub use job::{parse_trace, render_trace, Job, Workload};
pub use policy::{ClusterPolicy, ClusterView, Placement, PolicyKind};
pub use report::{compare_sweep, RegretReport, RunRecord, Scenario, MEASURED, PREDICTED};
pub use sim::{simulate, ClusterOutcome, SimConfig, SimError};
