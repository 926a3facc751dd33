//! A deliberately naive model of `cochar_machine::Machine::run`, kept on
//! the test side so the production engine carries no verification
//! branches.
//!
//! It simulates the same machine — private L1D/L2 and prefetch unit per
//! core, an optionally inclusive shared LLC, the memory controller, MSHR
//! and dependent-load stalls, background restarts, the cycle cap, the
//! stall watchdog and the livelock guard — in the plainest code shape
//! rather than the fastest:
//!
//! * a core consumes one slot at a time through `next_slot`;
//! * caches are [`NaiveCache`]s: a per-set scan, two-scan inserts;
//! * in-flight lines live in a `HashMap` that is never pruned;
//! * the watchdog sums retired instructions over all cores on every pop;
//! * every turn goes through the heap, with no stay-on-core shortcut;
//! * an inclusive LLC eviction sweeps every core's private caches.
//!
//! It reuses only the public pieces that have no fast/slow split:
//! [`MemoryController`] (whose cached-epoch path checks itself with a
//! `debug_assert_eq!` on every request), [`PrefetchUnit`], the counter
//! types, [`MachineConfig`] and [`LoopingStream`].

pub mod cache;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use cochar::machine::counters::PcCounters;
use cochar::machine::memctrl::MemoryController;
use cochar::machine::prefetch::{AccessObservation, PrefetchUnit};
use cochar::machine::{AppResult, AppSpec, CoreCounters, MachineConfig, Msr, Role, RunOutcome, LINE_BYTES};
use cochar::trace::{LoopingStream, Slot, SlotStream, StreamParams};

use cache::NaiveCache;

/// How far a core may run privately before it yields its turn; the same
/// bound as the engine's, since it decides when cores interleave.
const QUANTUM: u64 = 20_000;

/// Consecutive `Compute(0)` slots after which a core idles out the rest
/// of its quantum (the livelock guard).
const ZERO_PROGRESS_SLOTS: u32 = 4096;

enum Stream {
    Finite(Box<dyn SlotStream>),
    Looping(LoopingStream),
}

/// An L1 miss waiting for its core's next turn at the shared levels.
struct Pending {
    line: u64,
    is_store: bool,
    pc: u32,
}

struct Core {
    app: usize,
    stream: Stream,
    time: u64,
    /// Completion cycles of outstanding misses (the MSHRs).
    outstanding: Vec<u64>,
    last_load_completion: u64,
    /// End of the last pending-cycle interval already counted.
    watermark: u64,
    ctr: CoreCounters,
    pcs: BTreeMap<u32, PcCounters>,
    pending: Option<Pending>,
    finished: bool,
    l1: NaiveCache,
    l2: NaiveCache,
    pf: PrefetchUnit,
}

impl Core {
    fn pc(&mut self, pc: u32) -> &mut PcCounters {
        self.pcs.entry(pc).or_insert_with(|| PcCounters { pc, ..PcCounters::default() })
    }

    /// Stalls until an MSHR is free.
    fn wait_for_mshr(&mut self, mlp: u32) {
        let now = self.time;
        self.outstanding.retain(|&c| c > now);
        if self.outstanding.len() >= mlp as usize {
            let earliest = *self.outstanding.iter().min().expect("mlp >= 1");
            if earliest > self.time {
                self.ctr.mlp_stall_cycles += earliest - self.time;
                self.time = earliest;
            }
        }
    }

    /// Counts `[max(now, watermark), completion)` as pending cycles.
    fn count_pending(&mut self, now: u64, completion: u64, pc: u32) {
        let start = now.max(self.watermark);
        if completion > start {
            self.ctr.pending_cycles += completion - start;
            self.pc(pc).pending_cycles += completion - start;
            self.watermark = completion;
        }
    }
}

struct Model<'a> {
    cfg: &'a MachineConfig,
    cores: Vec<Core>,
    llc: NaiveCache,
    mem: MemoryController,
    /// `line -> fill completion cycle`.
    inflight: HashMap<u64, u64>,
}

/// Runs `apps` on the naive model of a machine with `cfg` and `msr`.
pub fn run(cfg: &MachineConfig, msr: Msr, apps: &[AppSpec]) -> RunOutcome {
    let mut cores = Vec::new();
    for (app, spec) in apps.iter().enumerate() {
        for thread in 0..spec.threads {
            let params = StreamParams { thread, threads: spec.threads, base: spec.base, seed: spec.seed };
            let stream = match spec.role {
                Role::Foreground => Stream::Finite(spec.factory.build(&params)),
                Role::Background => Stream::Looping(LoopingStream::new(spec.factory.clone(), params)),
            };
            cores.push(Core {
                app,
                stream,
                time: 0,
                outstanding: Vec::new(),
                last_load_completion: 0,
                watermark: 0,
                ctr: CoreCounters::default(),
                pcs: BTreeMap::new(),
                pending: None,
                finished: false,
                l1: NaiveCache::new(&cfg.l1d),
                l2: NaiveCache::new(&cfg.l2),
                pf: PrefetchUnit::new(msr),
            });
        }
    }
    let mem = MemoryController::with_channels(
        cfg.line_service_millicycles,
        cfg.dram_latency,
        cfg.epoch_cycles,
        apps.len(),
        cfg.channels,
    );
    let model = Model { cfg, cores, llc: NaiveCache::new(&cfg.llc), mem, inflight: HashMap::new() };
    model.run(apps)
}

impl Model<'_> {
    fn run(mut self, apps: &[AppSpec]) -> RunOutcome {
        let is_fg = |app: usize| apps[app].role == Role::Foreground;
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..self.cores.len()).map(|i| Reverse((0, i))).collect();
        let mut fg_cores_left = self.cores.iter().filter(|c| is_fg(c.app)).count();
        let mut app_finish = vec![0u64; apps.len()];
        let (mut truncated, mut stalled, mut horizon) = (false, false, 0u64);
        let (mut last_retired, mut retired_at) = (0u64, 0u64);

        while let Some(Reverse((t, i))) = heap.pop() {
            if fg_cores_left == 0 {
                break;
            }
            if t > self.cfg.max_cycles {
                truncated = true;
                horizon = t;
                break;
            }
            let retired: u64 = self.cores.iter().map(|c| c.ctr.instructions).sum();
            if retired > last_retired {
                last_retired = retired;
                retired_at = t;
            } else if self.cfg.stall_cycles > 0 && t.saturating_sub(retired_at) > self.cfg.stall_cycles {
                stalled = true;
                horizon = t;
                break;
            }
            if let Some(p) = self.cores[i].pending.take() {
                self.shared_access(i, p);
            }
            if !self.advance(i) {
                heap.push(Reverse((self.cores[i].time, i)));
                continue;
            }
            let core = &self.cores[i];
            if is_fg(core.app) {
                fg_cores_left -= 1;
                app_finish[core.app] = app_finish[core.app].max(core.time);
                if fg_cores_left == 0 {
                    horizon = (0..apps.len()).filter(|&a| is_fg(a)).map(|a| app_finish[a]).max().unwrap_or(0);
                }
            }
        }

        for core in &mut self.cores {
            core.ctr.cycles = core.time.max(1);
            core.ctr.pc_stats = core.pcs.values().filter(|p| p.accesses > 0).cloned().collect();
        }
        let results = apps
            .iter()
            .enumerate()
            .map(|(app, spec)| {
                let mine: Vec<&Core> = self.cores.iter().filter(|c| c.app == app).collect();
                let mut counters = CoreCounters::default();
                for core in &mine {
                    counters.merge(&core.ctr);
                }
                let unfinished = mine.iter().any(|c| !c.finished);
                let elapsed_cycles = match spec.role {
                    Role::Foreground if unfinished => horizon.max(app_finish[app]).max(1),
                    Role::Foreground => app_finish[app].max(1),
                    Role::Background => horizon.max(1),
                };
                AppResult {
                    name: spec.name.clone(),
                    role: spec.role,
                    threads: spec.threads,
                    elapsed_cycles,
                    counters,
                    per_core: mine.iter().map(|c| c.ctr.clone()).collect(),
                    bg_iterations: mine
                        .iter()
                        .map(|c| match &c.stream {
                            Stream::Finite(_) => 0,
                            Stream::Looping(s) => s.iterations(),
                        })
                        .sum(),
                    read_bytes: self.mem.epochs().iter().map(|e| e.read_bytes[app]).sum(),
                    write_bytes: self.mem.epochs().iter().map(|e| e.write_bytes[app]).sum(),
                }
            })
            .collect();
        RunOutcome {
            apps: results,
            horizon: horizon.max(1),
            truncated,
            stalled,
            epochs: self.mem.epochs().to_vec(),
            epoch_cycles: self.mem.epoch_cycles(),
            freq_ghz: self.cfg.freq_ghz,
        }
    }

    /// Runs core `i` one slot at a time until it misses L1, its quantum
    /// expires or its stream ends. Returns whether the stream ended.
    fn advance(&mut self, i: usize) -> bool {
        let (mlp, l1_latency) = (self.cfg.mlp, u64::from(self.cfg.l1d.latency));
        let core = &mut self.cores[i];
        let deadline = core.time + QUANTUM;
        let mut zero_slots = 0u32;
        loop {
            if core.time >= deadline {
                return false;
            }
            if zero_slots >= ZERO_PROGRESS_SLOTS {
                core.ctr.idle_cycles += deadline - core.time;
                core.time = deadline;
                return false;
            }
            let slot = match &mut core.stream {
                Stream::Finite(s) => s.next_slot(),
                Stream::Looping(s) => s.next_slot(),
            };
            match slot {
                None => {
                    let drain = core.outstanding.iter().copied().max().unwrap_or(0);
                    core.time = core.time.max(drain).max(1);
                    core.outstanding.clear();
                    core.finished = true;
                    return true;
                }
                Some(Slot::Compute(n)) => {
                    core.time += u64::from(n);
                    core.ctr.instructions += u64::from(n);
                    zero_slots = if n == 0 { zero_slots + 1 } else { 0 };
                }
                Some(Slot::Load { addr, pc, dep }) => {
                    zero_slots = 0;
                    core.ctr.instructions += 1;
                    core.ctr.loads += 1;
                    if dep && core.last_load_completion > core.time {
                        core.ctr.dep_stall_cycles += core.last_load_completion - core.time;
                        core.time = core.last_load_completion;
                    }
                    let line = addr / LINE_BYTES;
                    let Some(hit) = core.l1.access(line) else {
                        core.wait_for_mshr(mlp);
                        core.pending = Some(Pending { line, is_store: false, pc });
                        return false;
                    };
                    core.ctr.l1_hits += 1;
                    core.pc(pc).accesses += 1;
                    if hit.was_prefetched {
                        core.ctr.prefetch_useful += 1;
                    }
                    core.last_load_completion = core.time + l1_latency;
                    core.time += 1;
                }
                Some(Slot::Store { addr, pc }) => {
                    zero_slots = 0;
                    core.ctr.instructions += 1;
                    core.ctr.stores += 1;
                    let line = addr / LINE_BYTES;
                    if core.l1.access(line).is_none() {
                        core.wait_for_mshr(mlp);
                        core.pending = Some(Pending { line, is_store: true, pc });
                        return false;
                    }
                    core.ctr.l1_hits += 1;
                    core.pc(pc).accesses += 1;
                    core.l1.mark_dirty(line);
                    core.time += 1;
                }
            }
        }
    }

    /// Completion cycle of an in-flight fill of `line` later than `after`.
    fn inflight_after(&self, line: u64, after: u64) -> Option<u64> {
        self.inflight.get(&line).copied().filter(|&c| c > after)
    }

    /// Serves core `i`'s L1 miss from L2, the LLC or memory at the core's
    /// current time, fills the private levels and trains the prefetchers.
    fn shared_access(&mut self, i: usize, Pending { line, is_store, pc }: Pending) {
        let now = self.cores[i].time;
        let app = self.cores[i].app;
        self.cores[i].pc(pc).accesses += 1;

        let l2_hit = self.cores[i].l2.access(line);
        let completion = if let Some(hit) = l2_hit {
            let ready = now + u64::from(self.cfg.l2.latency);
            let inflight = self.inflight_after(line, ready);
            let core = &mut self.cores[i];
            if hit.was_prefetched {
                core.ctr.prefetch_useful += 1;
            }
            match inflight {
                // The line's prefetch is installed but its data has not
                // arrived: the demand waits for it, as a merged L2 miss.
                Some(c) => {
                    core.ctr.l2_misses += 1;
                    core.ctr.inflight_merges += 1;
                    core.ctr.prefetch_late += 1;
                    core.pc(pc).l2_misses += 1;
                    core.count_pending(now, c, pc);
                    c
                }
                None => {
                    core.ctr.l2_hits += 1;
                    ready
                }
            }
        } else {
            self.cores[i].ctr.l2_misses += 1;
            let llc_hit = self.llc.access(line);
            let completion = match (llc_hit, self.inflight_after(line, now)) {
                (_, Some(c)) => {
                    self.cores[i].ctr.inflight_merges += 1;
                    self.cores[i].ctr.prefetch_late += 1;
                    if llc_hit.is_none() {
                        self.insert_llc(line, false, now, app);
                    }
                    c.max(now + u64::from(self.cfg.llc.latency))
                }
                (Some(hit), None) => {
                    self.cores[i].ctr.llc_hits += 1;
                    if hit.was_prefetched {
                        self.cores[i].ctr.prefetch_useful += 1;
                    }
                    now + u64::from(self.cfg.llc.latency)
                }
                (None, None) => {
                    self.cores[i].ctr.llc_misses += 1;
                    let grant = self.mem.request_read_line(now, app, line);
                    self.inflight.insert(line, grant.completion);
                    self.insert_llc(line, false, now, app);
                    grant.completion
                }
            };
            let core = &mut self.cores[i];
            core.pc(pc).l2_misses += 1;
            if !is_store {
                core.count_pending(now, completion, pc);
            }
            self.fill_l2(i, line, false, now, app);
            completion
        };
        self.fill_l1(i, line, is_store, false, now, app);

        let core = &mut self.cores[i];
        core.outstanding.push(completion);
        if !is_store {
            core.last_load_completion = completion;
        }
        core.time += 1;

        let mut requests = Vec::new();
        let obs = AccessObservation { pc, line, l1_hit: false, l2_hit: l2_hit.is_some() };
        core.pf.observe(&obs, &mut requests);
        for req in requests {
            self.prefetch(i, req.line, req.into_l1, now, app);
        }
    }

    /// Installs `line` in the LLC. With an inclusive LLC the victim is
    /// removed from every core's private caches; a dirty copy anywhere
    /// makes the eviction a write-back.
    fn insert_llc(&mut self, line: u64, prefetched: bool, now: u64, app: usize) {
        let Some(ev) = self.llc.insert(line, false, prefetched) else {
            return;
        };
        let mut writeback = ev.dirty;
        if self.cfg.llc_inclusive {
            for core in &mut self.cores {
                writeback |= core.l1.invalidate(ev.line) == Some(true);
                writeback |= core.l2.invalidate(ev.line) == Some(true);
            }
        }
        if writeback {
            self.mem.request_write_line(now, app, ev.line);
        }
    }

    /// Fills core `i`'s L2; a dirty victim goes to the LLC if it holds
    /// the line, otherwise to memory.
    fn fill_l2(&mut self, i: usize, line: u64, prefetched: bool, now: u64, app: usize) {
        let Some(ev) = self.cores[i].l2.insert(line, false, prefetched) else {
            return;
        };
        if ev.dirty {
            if self.llc.contains(ev.line) {
                self.llc.mark_dirty(ev.line);
            } else {
                self.mem.request_write_line(now, app, ev.line);
            }
        }
    }

    /// Fills core `i`'s L1; a dirty victim goes to the nearest level
    /// below that holds the line, otherwise to memory.
    fn fill_l1(&mut self, i: usize, line: u64, dirty: bool, prefetched: bool, now: u64, app: usize) {
        let Some(ev) = self.cores[i].l1.insert(line, dirty, prefetched) else {
            return;
        };
        if ev.dirty {
            if self.cores[i].l2.contains(ev.line) {
                self.cores[i].l2.mark_dirty(ev.line);
            } else if self.llc.contains(ev.line) {
                self.llc.mark_dirty(ev.line);
            } else {
                self.mem.request_write_line(now, app, ev.line);
            }
        }
    }

    /// Issues one prefetch candidate of core `i`.
    fn prefetch(&mut self, i: usize, line: u64, into_l1: bool, now: u64, app: usize) {
        if self.inflight_after(line, now).is_some() {
            return;
        }
        if self.cores[i].l2.contains(line) {
            if into_l1 && !self.cores[i].l1.contains(line) {
                self.fill_l1(i, line, false, true, now, app);
            }
            return;
        }
        let from_memory = !self.llc.contains(line);
        if from_memory {
            if self.cfg.prefetch_throttle_cycles > 0
                && self.mem.queue_delay(now) > self.cfg.prefetch_throttle_cycles
            {
                self.cores[i].ctr.prefetch_throttled += 1;
                return;
            }
            let grant = self.mem.request_read_line(now, app, line);
            self.inflight.insert(line, grant.completion);
            self.insert_llc(line, true, now, app);
        }
        self.fill_l2(i, line, true, now, app);
        if into_l1 {
            self.fill_l1(i, line, false, true, now, app);
        }
        if from_memory {
            self.cores[i].ctr.prefetch_issued += 1;
        }
    }
}
