//! # cochar-fabric
//!
//! The distributed sweep fabric: shard one characterization campaign
//! (a heatmap's worth of pair cells) across N worker *processes* over the
//! shared content-addressed run store.
//!
//! The design leans on two properties the rest of the suite already
//! guarantees:
//!
//! 1. **Determinism** — every cell is a pure function of the campaign
//!    spec, so it does not matter *which* worker computes a cell, or how
//!    many times: the bytes come out the same. The final CSV is therefore
//!    byte-identical to a single-process sweep by construction.
//! 2. **Content addressing** — every `Machine::run` is keyed by its
//!    [`cochar_store::RunKey`] fingerprint, so merging the journal
//!    records that ride on worker results into the canonical store is
//!    pure dedup: records are either new or byte-identical duplicates,
//!    never conflicts.
//!
//! The moving parts:
//!
//! * [`CampaignSpec`] — the wire-portable description of a campaign
//!   (machine preset, work scale, threads, trials, seed, MSR, app names),
//!   fingerprinted so a worker can refuse a coordinator it does not match.
//! * [`wire`] — the length-prefixed JSON frame protocol
//!   (`claim → lease{cells, deadline} → result|heartbeat → ack`).
//! * [`coord`] — the coordinator: partitions cells into leases, spawns
//!   local workers, accepts remote ones over TCP, re-issues expired
//!   leases, and merges each result's records into the canonical store.
//! * [`worker`] — the worker loop: connect (with retry), claim, compute
//!   each leased cell under panic isolation, stream journal records back,
//!   and reconnect through connection loss.
//! * [`recover`] — coordinator crash recovery: durable campaign metadata
//!   and a per-run ledger log beside the store, consumed by `--resume`.
//! * [`chaos`] — wire-level fault injection ([`WirePlan`], armed from
//!   `COCHAR_CHAOS_WIRE`) that the resilience tests drive.

#![warn(missing_docs)]

pub mod chaos;
pub mod coord;
pub mod recover;
pub mod wire;
pub mod worker;

use std::sync::Arc;

use cochar_colocation::Study;
use cochar_machine::{MachineConfig, Msr, StableHasher};
use cochar_store::{RunStore, SCHEMA_VERSION};
use cochar_workloads::{Registry, Scale};

pub use chaos::{WireFault, WirePlan};
pub use coord::{run_campaign, FabricConfig, FabricLedger, FabricOutcome, WorkerCmd};
pub use recover::ResumePrior;
pub use worker::{run_worker, WorkerChaos, WorkerConfig, WorkerSummary};

/// Everything a worker needs to rebuild the coordinator's [`Study`] from
/// scratch — the campaign is described by value, never by reference to
/// coordinator-local state, so a worker only needs a socket address.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Machine preset name (`bench` | `scaled` | `paper` | `tiny`).
    pub machine: String,
    /// Global work multiplier (the `--work` flag).
    pub work: f64,
    /// Threads per application.
    pub threads: usize,
    /// Trials per measurement (median-of-N).
    pub trials: u32,
    /// Base RNG seed.
    pub seed: u64,
    /// Raw prefetcher MSR value.
    pub msr: u64,
    /// Application names, row/column order of the heatmap.
    pub names: Vec<String>,
}

impl CampaignSpec {
    /// A stable fingerprint over every field (plus the store schema
    /// version): the coordinator sends it in `hello`, workers echo it in
    /// `claim`, and a mismatch is refused — a worker built from different
    /// code or flags must not contribute cells.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u32(SCHEMA_VERSION);
        h.write_str(&self.machine);
        h.write_f64(self.work);
        h.write_usize(self.threads);
        h.write_u32(self.trials);
        h.write_u64(self.seed);
        h.write_u64(self.msr);
        h.write_usize(self.names.len());
        for n in &self.names {
            h.write_str(n);
        }
        h.finish()
    }

    /// The machine configuration for this campaign's preset.
    pub fn machine_config(&self) -> Result<MachineConfig, String> {
        match self.machine.as_str() {
            "bench" => Ok(MachineConfig::bench()),
            "scaled" => Ok(MachineConfig::scaled()),
            "paper" => Ok(MachineConfig::paper()),
            "tiny" => Ok(MachineConfig::tiny()),
            other => Err(format!("unknown machine preset {other:?} (bench|scaled|paper|tiny)")),
        }
    }

    /// Builds the study this spec describes. Coordinator and workers call
    /// this from the same spec, so their run keys agree — that is what
    /// makes journal merge pure dedup.
    pub fn build_study(&self, store: Option<RunStore>) -> Result<Study, String> {
        let cfg = self.machine_config()?;
        if self.threads == 0 || self.trials == 0 {
            return Err("campaign threads and trials must be positive".into());
        }
        let scale = if self.machine == "tiny" {
            Scale::tiny().with_work(self.work)
        } else {
            Scale::for_config(&cfg).with_work(self.work)
        };
        let registry = Arc::new(Registry::new(scale));
        for n in &self.names {
            if registry.get(n).is_none() {
                return Err(format!("unknown application {n:?} in campaign"));
            }
        }
        let mut study = Study::new(cfg, registry)
            .with_threads(self.threads)
            .with_trials(self.trials)
            .with_seed(self.seed)
            .with_msr(Msr::from_raw(self.msr));
        if let Some(store) = store {
            study = study.with_store(store);
        }
        Ok(study)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tiny_spec(names: &[&str]) -> CampaignSpec {
        CampaignSpec {
            machine: "tiny".into(),
            work: 0.1,
            threads: 1,
            trials: 1,
            seed: 1,
            msr: 0,
            names: names.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = tiny_spec(&["blackscholes", "swaptions"]);
        let b = tiny_spec(&["blackscholes", "swaptions"]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.seed = 2;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.names.reverse();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn build_study_rejects_unknowns() {
        let mut s = tiny_spec(&["blackscholes"]);
        s.machine = "warp9".into();
        assert!(s.build_study(None).is_err());
        let s = tiny_spec(&["no-such-app"]);
        assert!(s.build_study(None).is_err());
    }

    #[test]
    fn build_study_matches_spec() {
        let spec = tiny_spec(&["blackscholes", "swaptions"]);
        let study = spec.build_study(None).unwrap();
        assert_eq!(study.threads(), 1);
        assert_eq!(study.msr().raw(), 0);
    }
}
