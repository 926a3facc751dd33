//! Equivalence suite: every run of the optimized engine must be
//! **byte-identical** to the same run on a deliberately naive model of
//! the machine, compared through the store's canonical codec.
//!
//! The model lives in `tests/reference`: it consumes one slot at a time,
//! uses plain two-scan caches with no MRU hint or miss plan, keeps
//! in-flight lines in a never-pruned `HashMap`, sums retired
//! instructions over all cores on every pop, takes every turn through
//! the heap and sweeps every core on back-invalidation. Every shortcut
//! the engine carries is legitimate only while `render(encode(outcome))`
//! of engine and model agree. This file checks that over fixed cases
//! drawn from the real workload registry, over adversarial fixed cases
//! (more cores than the owner mask has bits; runs where the stall
//! watchdog and the livelock guard decide the outcome), and over random
//! machine configurations, MSR masks, app mixes and cycle caps. The
//! cache's fast paths are also checked operation by operation against
//! the naive cache.

mod reference;

use std::sync::{Arc, OnceLock};

use cochar::machine::cache::Cache;
use cochar::machine::{CacheConfig, LINE_BYTES};
use cochar::prelude::*;
use cochar_store::codec::encode_outcome;
use proptest::prelude::*;

use reference::cache::NaiveCache;

const FG_BASE: u64 = 1 << 40;
const BG_BASE: u64 = 2 << 40;

/// Random machine configurations per run of the property below: a few in
/// a debug build, many in a release build.
const RANDOM_CASES: u32 = if cfg!(debug_assertions) { 16 } else { 128 };

fn registry() -> Arc<Registry> {
    static REGISTRY: OnceLock<Arc<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Arc::new(Registry::new(Scale::tiny()))).clone()
}

fn app(spec: &WorkloadSpec, role: Role, base: u64, seed: u64, threads: usize) -> AppSpec {
    AppSpec { name: spec.name.into(), factory: spec.factory.clone(), threads, role, base, seed }
}

/// Runs `apps` on both the engine and the naive model, asserts that the
/// canonical renderings agree, and returns the engine's outcome.
fn check(cfg: &MachineConfig, msr: Msr, apps: &[AppSpec], case: &dyn std::fmt::Debug) -> RunOutcome {
    let out = Machine::new(cfg.clone()).with_msr(msr).run(apps);
    let engine = encode_outcome(&out).render();
    let model = encode_outcome(&reference::run(cfg, msr, apps)).render();
    assert!(
        engine == model,
        "engine and naive model diverged on {case:#?}\nengine: {engine}\nmodel:  {model}"
    );
    out
}

/// SplitMix64 — deterministic pair sampling without external crates.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn every_workload_solo_run_is_byte_identical_across_engines() {
    let reg = registry();
    let cfg = MachineConfig::tiny();
    for spec in reg.all() {
        let apps = vec![app(spec, Role::Foreground, FG_BASE, 1, 1)];
        check(&cfg, Msr::all_on(), &apps, &format!("solo {}", spec.name));
    }
}

#[test]
fn seeded_pair_sample_is_byte_identical_across_engines() {
    let reg = registry();
    let cfg = MachineConfig::tiny();
    let all = reg.all();
    let mut rng = Rng(0x7a1e_5eed);
    // 12 seeded fg/bg pairs across the registry, multiple trial seeds.
    for round in 0..12 {
        let fg = &all[(rng.next() as usize) % all.len()];
        let bg = &all[(rng.next() as usize) % all.len()];
        let seed = 1 + rng.next() % 1000;
        let apps = vec![
            app(fg, Role::Foreground, FG_BASE, seed, 1),
            app(bg, Role::Background, BG_BASE, seed ^ 0x5EED, 1),
        ];
        let case = format!("pair {}/{} (round {round}, seed {seed})", fg.name, bg.name);
        check(&cfg, Msr::all_on(), &apps, &case);
    }
}

#[test]
fn multithreaded_pair_is_byte_identical_across_engines() {
    // 2+2 threads exercises the heap with real cross-core interleavings
    // (the stay-on-core fast path's trickiest regime) plus inclusive
    // back-invalidation.
    let reg = registry();
    let mut cfg = MachineConfig::tiny();
    cfg.cores = 4;
    for (fg, bg) in [("stream", "mcf"), ("G-CC", "CIFAR")] {
        let fg = reg.get(fg).unwrap();
        let bg = reg.get(bg).unwrap();
        let apps =
            vec![app(fg, Role::Foreground, FG_BASE, 7, 2), app(bg, Role::Background, BG_BASE, 7 ^ 0x5EED, 2)];
        check(&cfg, Msr::all_on(), &apps, &format!("pair {}/{}", fg.name, bg.name));
    }
}

#[test]
fn truncated_runs_are_byte_identical_across_engines() {
    // A cycle cap that lands mid-quantum: the engine consumes slots in
    // private QUANTUM-sized windows, so the cap must cut it off at
    // exactly the architectural point where the per-slot model stops —
    // any over-consumption past the cap would leak into counters.
    let reg = registry();
    let mut cfg = MachineConfig::tiny();
    cfg.max_cycles = 61_337;
    for name in ["mcf", "fotonik3d"] {
        let spec = reg.get(name).unwrap();
        let apps = vec![app(spec, Role::Foreground, FG_BASE, 11, 1)];
        let out = check(&cfg, Msr::all_on(), &apps, &format!("truncated {name}"));
        assert!(out.truncated, "cap must actually truncate {name}");
    }
}

#[test]
fn prefetcher_off_runs_are_byte_identical_across_engines() {
    // MSR all-off drives different cache/inflight traffic mixes.
    let reg = registry();
    let spec = reg.get("fotonik3d").unwrap();
    let apps = vec![app(spec, Role::Foreground, FG_BASE, 3, 1)];
    check(&MachineConfig::tiny(), Msr::all_off(), &apps, &"prefetcher-off fotonik3d");
}

#[test]
fn cores_past_the_owner_mask_width_are_byte_identical_across_engines() {
    // 40 cores: cores 31..39 all share the owner mask's saturated top
    // bit, so the back-invalidation filter must stay conservative, never
    // wrong, for the nine cores that cannot be told apart.
    let reg = registry();
    let mut cfg = MachineConfig::tiny();
    cfg.cores = 40;
    assert!(cfg.llc_inclusive);
    for (fg, bg) in [("stream", "mcf"), ("G-CC", "CIFAR")] {
        let fg = reg.get(fg).unwrap();
        let bg = reg.get(bg).unwrap();
        let apps = vec![
            app(fg, Role::Foreground, FG_BASE, 5, 20),
            app(bg, Role::Background, BG_BASE, 5 ^ 0x5EED, 20),
        ];
        check(&cfg, Msr::all_on(), &apps, &format!("40-core pair {}/{}", fg.name, bg.name));
    }
}

/// A stream that yields zero-cost slots forever: no forward progress.
struct DeadSpin;
impl SlotStream for DeadSpin {
    fn next_slot(&mut self) -> Option<Slot> {
        Some(Slot::Compute(0))
    }
}

fn dead_spin(role: Role, base: u64) -> AppSpec {
    let factory: Arc<dyn StreamFactory> =
        Arc::new(|_: &StreamParams| Box::new(DeadSpin) as Box<dyn SlotStream>);
    AppSpec { name: "spin".into(), factory, threads: 1, role, base, seed: 1 }
}

#[test]
fn stalled_and_livelocked_runs_are_byte_identical_across_engines() {
    // A small watchdog window, so the running retired-instruction total
    // decides when each of these runs ends.
    let reg = registry();
    let mut cfg = MachineConfig::tiny();
    cfg.stall_cycles = 150_000;
    let mcf = reg.get("mcf").unwrap();

    // Alone: the livelock guard idles the core and the watchdog fires.
    let out = check(&cfg, Msr::all_on(), &[dead_spin(Role::Foreground, FG_BASE)], &"spin alone");
    assert!(out.stalled, "a lone spinning foreground must stall");

    // The spinner takes core 0 below, so only retirements on another
    // core keep the watchdog quiet.

    // Beside a foreground that finishes: the run stalls once only the
    // spinner is left.
    let apps = [dead_spin(Role::Foreground, BG_BASE), app(mcf, Role::Foreground, FG_BASE, 2, 1)];
    let out = check(&cfg, Msr::all_on(), &apps, &"spin beside foreground mcf");
    assert!(out.stalled, "the spinner must stall the run after mcf finishes");
    assert!(out.horizon > out.apps[1].elapsed_cycles + cfg.stall_cycles, "mcf must finish before the stall");

    // As a background co-runner: the guard fires on every quantum of the
    // spinner, but the foreground retires, so the run completes.
    let apps = [dead_spin(Role::Background, BG_BASE), app(mcf, Role::Foreground, FG_BASE, 2, 1)];
    let out = check(&cfg, Msr::all_on(), &apps, &"spin as background of mcf");
    assert!(!out.stalled && !out.truncated, "mcf must finish beside a spinning background");
    assert!(out.apps[0].counters.idle_cycles > 0, "the livelock guard must fire");
}

/// One application of a random case.
#[derive(Debug)]
struct DrawnApp {
    name: &'static str,
    threads: usize,
    role: Role,
    seed: u64,
}

/// One random case: everything the property below runs, printed in full
/// on a divergence (the proptest shim does not shrink).
#[derive(Debug)]
struct Case {
    cfg: MachineConfig,
    msr: u64,
    apps: Vec<DrawnApp>,
}

/// A cache level with a power-of-two set count between `2^sets.start()`
/// and `2^sets.end()` and up to `max_ways` ways.
fn level(
    sets: std::ops::RangeInclusive<u32>,
    max_ways: u32,
    latency: u32,
) -> impl Strategy<Value = CacheConfig> {
    (sets, 1..=max_ways).prop_map(move |(log_sets, ways)| CacheConfig {
        bytes: (1u64 << log_sets) * u64::from(ways) * LINE_BYTES,
        ways,
        latency,
    })
}

fn machine_config() -> impl Strategy<Value = MachineConfig> {
    let caches = (level(1..=4, 4, 4), level(2..=5, 8, 10), level(3..=7, 16, 35));
    let core = (2usize..=8, 1u32..=8, 1u32..=4);
    let shared = (any::<bool>(), any::<bool>(), 1u64..400);
    let cap = (any::<bool>(), 2_000u64..200_000);
    (caches, core, shared, cap).prop_map(
        |(
            (l1d, l2, llc),
            (cores, mlp, channels),
            (llc_inclusive, throttle, throttle_cycles),
            (capped, cap),
        )| {
            let mut cfg = MachineConfig::tiny();
            cfg.l1d = l1d;
            cfg.l2 = l2;
            cfg.llc = llc;
            cfg.cores = cores;
            cfg.mlp = mlp;
            cfg.channels = channels;
            cfg.llc_inclusive = llc_inclusive;
            cfg.prefetch_throttle_cycles = if throttle { throttle_cycles } else { 0 };
            if capped {
                cfg.max_cycles = cap;
            }
            cfg
        },
    )
}

fn random_case() -> impl Strategy<Value = Case> {
    let apps = prop::collection::vec((any::<u64>(), 1usize..=8, any::<bool>(), 1u64..1000), 1..4);
    (machine_config(), 0u64..16, apps).prop_map(|(cfg, msr, drawn)| {
        let reg = registry();
        let all = reg.all();
        let count = drawn.len().min(cfg.cores);
        let mut free = cfg.cores;
        let apps = drawn
            .into_iter()
            .take(count)
            .enumerate()
            .map(|(k, (pick, threads, background, seed))| {
                // Leave at least one core for each app still to come.
                let max = free - (count - k - 1);
                let threads = 1 + (threads - 1) % max;
                free -= threads;
                let role = if k > 0 && background { Role::Background } else { Role::Foreground };
                DrawnApp { name: all[(pick % all.len() as u64) as usize].name, threads, role, seed }
            })
            .collect();
        Case { cfg, msr, apps }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(RANDOM_CASES))]

    #[test]
    fn random_configs_are_byte_identical_across_engines(case in random_case()) {
        case.cfg.validate().unwrap_or_else(|e| panic!("invalid drawn config ({e}): {case:#?}"));
        let reg = registry();
        let apps: Vec<AppSpec> = case
            .apps
            .iter()
            .enumerate()
            .map(|(k, a)| app(reg.get(a.name).unwrap(), a.role, (k as u64 + 1) << 40, a.seed, a.threads))
            .collect();
        check(&case.cfg, Msr::from_raw(case.msr), &apps, &case);
    }
}

/// The 4-set, 2-way geometry the cache properties below run on.
fn small_cache() -> CacheConfig {
    CacheConfig { bytes: 4 * 2 * 64, ways: 2, latency: 1 }
}

/// Property: the cache's MRU hint, fused insert and miss plans return
/// exactly what the naive cache returns, operation by operation.
#[test]
fn cache_fast_paths_match_naive_cache_property() {
    let mut slow = NaiveCache::new(&small_cache());
    let mut quick = Cache::new(&small_cache());
    let mut rng = Rng(0x5eed);
    for step in 0..8000 {
        let line = rng.next() % 24;
        match rng.next() % 9 {
            0 | 1 => {
                assert_eq!(slow.access(line), quick.access(line), "step {step}");
            }
            2 => {
                let d = rng.next().is_multiple_of(2);
                let p = rng.next().is_multiple_of(4);
                assert_eq!(slow.insert(line, d, p), quick.insert(line, d, p), "step {step}");
            }
            3 => {
                slow.mark_dirty(line);
                quick.mark_dirty(line);
            }
            4 => {
                assert_eq!(slow.contains(line), quick.probe(line), "step {step}");
            }
            5 => {
                assert_eq!(slow.invalidate(line), quick.invalidate(line), "step {step}");
            }
            6 => {
                let c = (rng.next() % 8) as usize;
                assert_eq!(slow.access_owned(line, c), quick.access_owned(line, c), "step {step}");
            }
            7 => {
                let c = (rng.next() % 8) as usize;
                let d = rng.next().is_multiple_of(2);
                assert_eq!(
                    slow.insert_owned(line, d, false, c),
                    quick.insert_owned(line, d, false, c),
                    "step {step}"
                );
            }
            _ => {
                let c = (rng.next() % 8) as usize;
                assert_eq!(slow.probe_owned(line, c), quick.probe_owned(line, c), "step {step}");
            }
        }
        assert_eq!(slow.contains(line), quick.contains(line), "step {step}");
        assert_eq!(slow.occupancy(), quick.occupancy(), "step {step}");
    }
}

/// The miss-plan shortcut (probe miss, then an insert of the same line
/// that skips its scan) must evict exactly what naive inserts evict, with
/// and without intervening mutations that invalidate the plan.
#[test]
fn planned_insert_matches_naive_insert() {
    let mut slow = NaiveCache::new(&small_cache());
    let mut quick = Cache::new(&small_cache());
    let mut rng = Rng(0x9_1a4);
    for step in 0..6000 {
        let line = rng.next() % 24;
        assert_eq!(slow.contains(line), quick.probe(line), "step {step}");
        // Half the time, mutate between probe and insert so the plan
        // goes stale and the fallback scan must take over.
        if rng.next().is_multiple_of(2) {
            let other = rng.next() % 24;
            match rng.next() % 3 {
                0 => {
                    assert_eq!(slow.access(other), quick.access(other), "step {step}");
                }
                1 => {
                    assert_eq!(
                        slow.insert(other, false, false),
                        quick.insert(other, false, false),
                        "step {step}"
                    );
                }
                _ => {
                    assert_eq!(slow.invalidate(other), quick.invalidate(other), "step {step}");
                }
            }
        }
        let d = rng.next().is_multiple_of(2);
        assert_eq!(slow.insert(line, d, false), quick.insert(line, d, false), "step {step}");
        assert_eq!(slow.occupancy(), quick.occupancy(), "step {step}");
    }
}
