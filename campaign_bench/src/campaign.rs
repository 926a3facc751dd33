//! The four workloads and the per-layer probes of the traced run.
//!
//! Every workload runs the ROADMAP's pinned campaign spec — `G-CC CIFAR
//! mcf fotonik3d LSTM` on the bench machine, work 0.25, 4 threads per
//! app, 1 trial — with the study seed taken from `--seed`:
//!
//! * `heatmap-cold`: the `heatmap` command's in-process sweep into a
//!   fresh store;
//! * `sweep-cold`: the same campaign through `cochar_fabric::run_campaign`
//!   with local worker processes;
//! * `resume-warm`: rounds that reopen a journaled store, resolve every
//!   cell from cache, and render the CSV;
//! * `placement`: the `cluster compare` path from a warm store — train
//!   the predictor, then simulate every policy with measured and
//!   predicted knowledge.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cochar_cluster::{
    simulate, Compose, PolicyKind, RegretReport, RunRecord, Scenario, SimConfig, MEASURED,
    PREDICTED,
};
use cochar_colocation::{CellStatus, Heatmap, Study, SweepPolicy};
use cochar_fabric::wire::{write_frame, CellOutcome, Frame, FrameReader, Msg, WireCell};
use cochar_fabric::{run_campaign, CampaignSpec, FabricConfig, WorkerCmd};
use cochar_machine::{AppSpec, Machine, MachineConfig, Msr, Role, RunOutcome, StableHasher};
use cochar_predict::{CounterSignature, Evaluation, Predictor, PredictorConfig};
use cochar_sched::CostMatrix;
use cochar_store::codec::{decode_outcome, encode_outcome};
use cochar_store::json::Json;
use cochar_store::RunStore;
use cochar_trace::{SlotBuf, StreamParams};
use cochar_workloads::{Registry, Scale};

use crate::report::{median, percentile, Kind, Report, END_TO_END, PER_LAYER};
use crate::spans::{self, Recorder, Span};

/// The pinned campaign spec.
pub const APPS: [&str; 5] = ["G-CC", "CIFAR", "mcf", "fotonik3d", "LSTM"];
const WORK: f64 = 0.25;
const APP_THREADS: usize = 4;
/// The study seed the campaign CSV hash was pinned at.
pub const DEFAULT_SEED: u64 = 1;
const PINNED_CSV_HASH: &str = "422e129f9a0e94aa";

/// How a `Study` lays out one run (address bases and the background
/// seed salt). The machine probe re-issues the study's runs itself, and
/// the probe's CSV check fails if these drift from the study's own.
const FG_BASE: u64 = 1 << 40;
const BG_BASE: u64 = 2 << 40;
const BG_SEED_SALT: u64 = 0x5EED;

/// `cochar cluster compare` at its acceptance settings: 1000 nodes,
/// 10000 jobs, job seed 7, and the command's defaults otherwise.
const NODES: usize = 1000;
const SLOTS: usize = 2;
const CLUSTER_JOBS: usize = 10_000;
const JOB_SEED: u64 = 7;
const UTIL: f64 = 0.7;
const MEAN_WORK: f64 = 8.0;
const QOS_CAP: f64 = 1.5;
const SLO_STRETCH: f64 = 2.0;
const DEFRAG_PERIOD: f64 = 25.0;
const TRAIN_APPS: usize = 4;

/// Set-ups per run of a workload whose set-up is shared by its jobs.
const SETUP_REPS: usize = 3;
/// Traced jobs per traced run: their exact counts must agree.
const TRACED_JOBS: usize = 2;
/// Result-frame round trips timed by the wire probe.
const FRAME_REPS: u32 = 500;

/// Per-layer values of one traced job, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HeatmapCold,
    SweepCold,
    ResumeWarm,
    Placement,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HeatmapCold,
        Workload::SweepCold,
        Workload::ResumeWarm,
        Workload::Placement,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HeatmapCold => "heatmap-cold",
            Workload::SweepCold => "sweep-cold",
            Workload::ResumeWarm => "resume-warm",
            Workload::Placement => "placement",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What every workload shares: the seed, the host, and a scratch area.
pub struct Bench {
    pub seed: u64,
    pub host_cpus: usize,
    /// Scratch root; every store lives below it.
    pub scratch: PathBuf,
    /// This executable, re-run as a fabric worker.
    pub exe: PathBuf,
    next_dir: AtomicU64,
}

impl Bench {
    pub fn new(seed: u64, host_cpus: usize, scratch: PathBuf, exe: PathBuf) -> Self {
        Bench {
            seed,
            host_cpus,
            scratch,
            exe,
            next_dir: AtomicU64::new(0),
        }
    }

    /// A fresh, empty directory under the scratch root, removed on drop.
    fn fresh_dir(&self, tag: &str) -> ScratchDir {
        let n = self.next_dir.fetch_add(1, Ordering::Relaxed);
        let dir = self.scratch.join(format!("{tag}-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn spec(&self) -> CampaignSpec {
        CampaignSpec {
            machine: "bench".into(),
            work: WORK,
            threads: APP_THREADS,
            trials: 1,
            seed: self.seed,
            msr: 0,
            names: APPS.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The study `CampaignSpec::build_study` would build, over an
    /// already-built registry.
    fn study(&self, registry: &Arc<Registry>, store: Option<RunStore>) -> Study {
        let study = Study::new(MachineConfig::bench(), Arc::clone(registry))
            .with_threads(APP_THREADS)
            .with_trials(1)
            .with_seed(self.seed)
            .with_msr(Msr::from_raw(0));
        match store {
            Some(store) => study.with_store(store),
            None => study,
        }
    }

    /// Checks a campaign CSV: byte-identical to the first one this run
    /// produced (or was given), and at the default seed hashing to the
    /// pinned value.
    fn check_csv(&self, csv: &str, reference: &mut Option<String>) -> Result<(), String> {
        if self.seed == DEFAULT_SEED && csv_hash(csv) != PINNED_CSV_HASH {
            return Err(format!(
                "campaign CSV hash {} differs from the pinned {PINNED_CSV_HASH}",
                csv_hash(csv)
            ));
        }
        same_as(reference, csv)
    }
}

/// A scratch directory deleted when dropped. Keep it the last field of
/// a struct so stores inside it close first.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Byte identity against the first output seen.
fn same_as(reference: &mut Option<String>, text: &str) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(text.to_string());
            Ok(())
        }
        Some(first) if first == text => Ok(()),
        Some(_) => Err("output differs from the run's first output byte for byte".into()),
    }
}

pub fn csv_hash(csv: &str) -> String {
    let mut h = StableHasher::new();
    h.write_str(csv);
    format!("{:016x}", h.finish())
}

fn new_registry() -> Arc<Registry> {
    Arc::new(Registry::new(
        Scale::for_config(&MachineConfig::bench()).with_work(WORK),
    ))
}

fn open_store(dir: &Path) -> Result<RunStore, String> {
    RunStore::open(dir).map_err(|e| format!("opening store {}: {e}", dir.display()))
}

/// The `heatmap` command's sweep: supervised, keep-going, no retries.
/// Any failed, truncated or stalled cell is an error.
fn heatmap(study: &Study, on_cell: impl Fn(usize, usize) + Sync) -> Result<Heatmap, String> {
    let policy = SweepPolicy {
        max_retries: 0,
        keep_going: true,
    };
    let (heat, failures) = Heatmap::compute_supervised(study, &APPS, policy, on_cell);
    if let Some(f) = failures.first() {
        return Err(format!("cell {} failed: {}", f.spec, f.cause));
    }
    let (truncated, stalled, failed) = heat.status_counts();
    if truncated + stalled + failed > 0 {
        return Err(format!(
            "{truncated} truncated, {stalled} stalled, {failed} failed cells"
        ));
    }
    Ok(heat)
}

/// Maps `f` over `items` on `threads` host threads, keeping item order.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, items.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                out.lock().expect("result slots poisoned")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// Times the moment fewer cells remain than host threads until the last
/// cell completes, from a sweep's progress callback.
struct TailClock {
    threads: usize,
    /// When the tail began, and the latest completion.
    marks: Mutex<(Option<Instant>, Option<Instant>)>,
}

impl TailClock {
    fn new(threads: usize) -> Self {
        TailClock {
            threads,
            marks: Mutex::new((None, None)),
        }
    }

    fn tick(&self, completed: usize, total: usize) {
        let now = Instant::now();
        let mut marks = self.marks.lock().expect("tail clock poisoned");
        if total - completed < self.threads {
            marks.0.get_or_insert(now);
        }
        marks.1 = Some(now);
    }

    fn seconds(&self) -> f64 {
        match *self.marks.lock().expect("tail clock poisoned") {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

fn cell_status(stalled: bool, truncated: bool) -> CellStatus {
    if stalled {
        CellStatus::Stalled
    } else if truncated {
        CellStatus::Truncated
    } else {
        CellStatus::Ok
    }
}

// ---------------------------------------------------------------------
// Workload plumbing

/// One workload: how it is set up, and what one job does, plain and
/// traced. A job returns its output text (a CSV or a regret report),
/// which must be byte-identical across the jobs of a run.
trait Campaign: Sized {
    /// True when every job needs its own set-up (a cold store).
    const SETUP_PER_JOB: bool;
    /// Jobs per timed run, at least.
    const MIN_JOBS: usize;
    /// Whether the output is the campaign CSV (hash-pinned at the
    /// default seed).
    const CSV: bool;

    fn setup(b: &Bench) -> Result<Self, String>;
    /// The output every job must reproduce, if known before the first.
    fn reference(&self, b: &Bench) -> Result<Option<String>, String>;
    fn job(&mut self, b: &Bench) -> Result<String, String>;
    /// The job with a span on every layer call under `root`. It closes
    /// `root` where the job's own path ends, then runs its layer probes
    /// outside it.
    fn traced_job(
        &mut self,
        b: &Bench,
        rec: &Recorder,
        root: usize,
    ) -> Result<(String, Layers), String>;
    /// The last plain job's tail time, where the workload has one.
    fn tail_s(&self) -> f64 {
        0.0
    }
}

/// Set-up and job samples of a timed run.
pub struct Timed {
    pub setup_s: Vec<f64>,
    pub job_s: Vec<f64>,
}

pub fn run_timed(
    b: &Bench,
    w: Workload,
    seconds: f64,
    report: &mut Report,
) -> Result<Timed, String> {
    match w {
        Workload::HeatmapCold => timed::<HeatmapCold>(b, seconds, report),
        Workload::SweepCold => timed::<SweepCold>(b, seconds, report),
        Workload::ResumeWarm => timed::<ResumeWarm>(b, seconds, report),
        Workload::Placement => timed::<Placement>(b, seconds, report),
    }
}

pub fn run_traced(
    b: &Bench,
    w: Workload,
    out_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    match w {
        Workload::HeatmapCold => traced::<HeatmapCold>(b, w, out_dir, report),
        Workload::SweepCold => traced::<SweepCold>(b, w, out_dir, report),
        Workload::ResumeWarm => traced::<ResumeWarm>(b, w, out_dir, report),
        Workload::Placement => traced::<Placement>(b, w, out_dir, report),
    }
}

fn check_output<C: Campaign>(
    b: &Bench,
    text: &str,
    reference: &mut Option<String>,
) -> Result<(), String> {
    if C::CSV {
        b.check_csv(text, reference)
    } else {
        same_as(reference, text)
    }
}

fn timed<C: Campaign>(b: &Bench, seconds: f64, report: &mut Report) -> Result<Timed, String> {
    let mut setup_s = Vec::new();
    let mut job_s = Vec::new();
    let mut setup = || -> Result<C, String> {
        let t = Instant::now();
        let state = C::setup(b)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(state)
    };
    let mut state = setup()?;
    if !C::SETUP_PER_JOB {
        for _ in 1..SETUP_REPS {
            drop(state);
            state = setup()?;
        }
    }
    let mut reference = state.reference(b)?;
    let start = Instant::now();
    while job_s.len() < C::MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        if C::SETUP_PER_JOB && !job_s.is_empty() {
            drop(state);
            state = setup()?;
        }
        let t = Instant::now();
        let out = state.job(b);
        job_s.push(t.elapsed().as_secs_f64());
        report.record(out.and_then(|text| check_output::<C>(b, &text, &mut reference)));
    }
    Ok(Timed { setup_s, job_s })
}

fn traced<C: Campaign>(
    b: &Bench,
    w: Workload,
    out_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // One plain job first: the output reference, the tail time, and the
    // baseline for the tracing overhead.
    let mut state = C::setup(b)?;
    let mut reference = state.reference(b)?;
    let t = Instant::now();
    let plain = state.job(b);
    let plain_s = t.elapsed().as_secs_f64();
    let tail_s = state.tail_s();
    report.record(plain.and_then(|text| check_output::<C>(b, &text, &mut reference)));

    let mut runs: Vec<Layers> = Vec::new();
    let mut last_spans = Vec::new();
    for _ in 0..TRACED_JOBS {
        if C::SETUP_PER_JOB {
            drop(state);
            state = C::setup(b)?;
        }
        let rec = Recorder::new(w.name());
        rec.time("workloads.registry_build", None, new_registry);
        let root = rec.open("bench.job", None);
        let (text, mut layers) = state.traced_job(b, &rec, root)?;
        let spans = rec.spans();
        span_metrics(&spans, &mut layers, plain_s);
        layers.insert("colocation.tail_s", tail_s);
        layers.insert("bench.host_cpus", b.host_cpus as f64);
        report.record(check_output::<C>(b, &text, &mut reference));
        runs.push(layers);
        last_spans = spans;
    }
    let first = &runs[0];
    let last = runs.last().expect("at least one traced job");
    for &(name, _, kind) in PER_LAYER {
        let (a, z) = (
            first.get(name).copied().unwrap_or(0.0),
            last.get(name).copied().unwrap_or(0.0),
        );
        if kind == Kind::Exact {
            report.record(if a.to_bits() == z.to_bits() {
                Ok(())
            } else {
                Err(format!(
                    "exact count {name} differs between traced jobs: {a} vs {z}"
                ))
            });
        }
    }
    for &(name, unit, _) in PER_LAYER {
        report.push(name, unit, last.get(name).copied().unwrap_or(0.0), 1);
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("spans-{}.jsonl", w.name()));
    std::fs::write(&path, spans::render_jsonl(&last_spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report
        .notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}

/// Self time per layer, the benchmark's own glue, and the tracing
/// overhead (the traced job's root span against the plain job).
fn span_metrics(spans: &[Span], layers: &mut Layers, plain_s: f64) {
    let selfs = spans::self_times(spans);
    for &(name, _, _) in PER_LAYER {
        if let Some(layer) = name.strip_suffix(".self_s") {
            layers.insert(name, spans::self_seconds(spans, &selfs, layer));
        }
    }
    layers.insert(
        "workloads.registry_build_s",
        spans::total_seconds(spans, "workloads.registry_build").0,
    );
    layers.insert(
        "bench.glue_s",
        spans::self_seconds(spans, &selfs, "bench.job"),
    );
    let (job_s, _) = spans::total_seconds(spans, "bench.job");
    layers.insert("bench.trace_overhead_s", job_s - plain_s);
}

/// The untraced run's end-to-end metrics.
pub fn end_to_end(t: &Timed, peak_rss_mb: f64, report: &mut Report) {
    let values = [median(&t.setup_s), median(&t.job_s), peak_rss_mb];
    let samples = [t.setup_s.len(), t.job_s.len(), 1];
    for (i, &(name, unit)) in END_TO_END.iter().enumerate() {
        report.push(name, unit, values[i], samples[i]);
    }
    for p in [0.99, 0.9] {
        if let Some(v) = percentile(&t.job_s, p) {
            report.notes.push(format!(
                "job_p{} = {v} s (n={}, tail reported only with >= 10 samples beyond it)",
                (p * 100.0).round(),
                t.job_s.len()
            ));
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Layer probes: the benchmark calls one crate's public functions
// directly and times them.

/// The solo runs of every app, then every ordered pair, laid out as the
/// study lays them out.
fn campaign_runs(registry: &Registry, seed: u64) -> Vec<Vec<AppSpec>> {
    let app = |name: &str, role, base, seed| {
        let spec = registry.get(name).expect("campaign apps are registered");
        AppSpec {
            name: name.to_string(),
            factory: Arc::clone(&spec.factory),
            threads: APP_THREADS,
            role,
            base,
            seed,
        }
    };
    let mut runs: Vec<Vec<AppSpec>> = APPS
        .iter()
        .map(|a| vec![app(a, Role::Foreground, FG_BASE, seed)])
        .collect();
    for (i, j) in Heatmap::pair_cells(APPS.len()) {
        runs.push(vec![
            app(APPS[i], Role::Foreground, FG_BASE, seed),
            app(APPS[j], Role::Background, BG_BASE, seed ^ BG_SEED_SALT),
        ]);
    }
    runs
}

/// `trace`: drains every app's foreground streams through
/// `SlotStream::fill`, one span per app.
fn probe_trace(b: &Bench, registry: &Registry, rec: &Recorder, m: &mut Layers) {
    let mut slots = 0u64;
    for name in APPS {
        let spec = registry.get(name).expect("campaign apps are registered");
        slots += rec.time("trace.fill", None, || {
            let mut n = 0u64;
            let mut buf = SlotBuf::new();
            for thread in 0..APP_THREADS {
                let params = StreamParams {
                    thread,
                    threads: APP_THREADS,
                    base: FG_BASE,
                    seed: b.seed,
                };
                let mut stream = spec.factory.build(&params);
                loop {
                    buf.clear();
                    let pulled = stream.fill(&mut buf);
                    if pulled == 0 {
                        break;
                    }
                    n += pulled as u64;
                }
            }
            std::hint::black_box(n)
        });
    }
    let (fill_s, _) = spans::total_seconds(&rec.spans(), "trace.fill");
    m.insert("trace.slots", slots as f64);
    m.insert("trace.fill_s", fill_s);
    m.insert("trace.ns_per_slot", fill_s * 1e9 / slots as f64);
}

/// `machine`: re-runs every run of the campaign through `Machine::run`
/// on the host threads, one span per run, and checks the CSV those
/// outcomes imply against the campaign's.
fn probe_machine(
    b: &Bench,
    registry: &Registry,
    rec: &Recorder,
    csv: &str,
    m: &mut Layers,
) -> Result<(), String> {
    let machine = Machine::new(MachineConfig::bench()).with_msr(Msr::from_raw(0));
    let runs = campaign_runs(registry, b.seed);
    let outcomes = parallel_map(&runs, b.host_cpus, |apps| {
        rec.time("machine.run", None, || machine.run(apps))
    });
    let (run_s, _) = spans::total_seconds(&rec.spans(), "machine.run");
    machine_counts(&outcomes, run_s, m);
    let n = APPS.len();
    let cells = Heatmap::pair_cells(n)
        .into_iter()
        .zip(&outcomes[n..])
        .map(|((i, j), o)| {
            let status = cell_status(o.stalled, o.truncated);
            let solo = outcomes[i].apps[0].elapsed_cycles as f64;
            (i, j, o.apps[0].elapsed_cycles as f64 / solo, status)
        });
    let names = APPS.iter().map(|s| s.to_string()).collect();
    if Heatmap::from_cells(names, cells).to_csv() != csv {
        return Err(
            "CSV rebuilt from direct Machine::run outcomes differs from the campaign's".into(),
        );
    }
    Ok(())
}

fn machine_counts(outcomes: &[RunOutcome], run_s: f64, m: &mut Layers) {
    // Counts stay below 2^53, so f64 sums are exact.
    for o in outcomes {
        *m.entry("machine.runs").or_default() += 1.0;
        *m.entry("machine.sim_cycles").or_default() += o.horizon as f64;
        for app in &o.apps {
            let k = &app.counters;
            for (name, v) in [
                ("machine.accesses", k.accesses()),
                ("machine.l1_hits", k.l1_hits),
                ("machine.l2_hits", k.l2_hits),
                ("machine.llc_hits", k.llc_hits),
                ("machine.llc_misses", k.llc_misses),
                ("machine.prefetch_issued", k.prefetch_issued),
                ("machine.prefetch_useful", k.prefetch_useful),
                ("machine.mem_bytes", app.read_bytes + app.write_bytes),
            ] {
                *m.entry(name).or_default() += v as f64;
            }
        }
    }
    let ratio = m["machine.prefetch_useful"] / m["machine.prefetch_issued"];
    let per_access = run_s * 1e9 / m["machine.accesses"];
    let per_cycle = run_s * 1e9 / m["machine.sim_cycles"];
    m.insert("machine.prefetch_useful_ratio", ratio);
    m.insert("machine.run_s", run_s);
    m.insert("machine.ns_per_access", per_access);
    m.insert("machine.ns_per_sim_cycle", per_cycle);
}

/// `store` writes: the campaign store's append counts and journal size,
/// and the time of re-appending its records into a fresh store through
/// `RunStore::put`.
fn probe_store_writes(
    b: &Bench,
    campaign: &RunStore,
    rec: &Recorder,
    m: &mut Layers,
) -> Result<(), String> {
    let dir = b.fresh_dir("put-probe");
    let probe = open_store(dir.path())?;
    for (key, outcome) in campaign.entries() {
        rec.time("store.put", None, || probe.put(key, outcome))
            .map_err(|e| format!("probe append: {e}"))?;
    }
    let (put_s, puts) = spans::total_seconds(&rec.spans(), "store.put");
    let journal = campaign.dir().join(cochar_store::journal::JOURNAL_FILE);
    let bytes = std::fs::metadata(&journal)
        .map_err(|e| format!("{}: {e}", journal.display()))?
        .len();
    m.insert("store.appends", campaign.stats().puts as f64);
    m.insert("store.append_bytes", bytes as f64);
    m.insert("store.us_per_append", put_s * 1e6 / puts as f64);
    Ok(())
}

/// `store` lookups: `RunStore::get` hits and misses so far.
fn store_lookups(store: &RunStore, m: &mut Layers) {
    let stats = store.stats();
    m.insert("store.hits", stats.hits as f64);
    m.insert("store.misses", stats.misses as f64);
    m.insert(
        "store.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses) as f64,
    );
}

/// `store` reads: replay size and time of the job's `RunStore::open`,
/// hit counts, and a codec round trip of every resident record.
fn probe_store_reads(store: &RunStore, rec: &Recorder, m: &mut Layers) -> Result<(), String> {
    let spans_now = rec.spans();
    let (open_s, _) = spans::total_seconds(&spans_now, "store.open");
    let records = store.replay_report().valid;
    m.insert("store.replay_records", records as f64);
    m.insert("store.us_per_replay_record", open_s * 1e6 / records as f64);
    store_lookups(store, m);
    let entries = store.entries();
    for (_, outcome) in &entries {
        let text = rec.time("store.encode", None, || encode_outcome(outcome).render());
        let back = rec.time("store.decode", None, || {
            Json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|v| decode_outcome(&v).map_err(|e| e.to_string()))
        })?;
        if encode_outcome(&back).render() != text {
            return Err("codec round trip changed a record".into());
        }
    }
    let spans_now = rec.spans();
    let (enc_s, n) = spans::total_seconds(&spans_now, "store.encode");
    let (dec_s, _) = spans::total_seconds(&spans_now, "store.decode");
    m.insert("store.us_per_encode", enc_s * 1e6 / n as f64);
    m.insert("store.us_per_decode", dec_s * 1e6 / n as f64);
    Ok(())
}

/// `colocation`: span totals of the study calls the job made, plus the
/// study's run counts.
fn colocation_metrics(study: &Study, rec: &Recorder, m: &mut Layers) {
    let spans_now = rec.spans();
    let cells = spans::durations(&spans_now, "colocation.pair");
    m.insert(
        "colocation.solo_s",
        spans::total_seconds(&spans_now, "colocation.solo").0,
    );
    m.insert("colocation.pair_s", cells.iter().sum());
    if !cells.is_empty() {
        m.insert("colocation.cell_p50_s", median(&cells));
        m.insert(
            "colocation.cell_max_s",
            cells.iter().copied().fold(0.0, f64::max),
        );
    }
    m.insert(
        "colocation.csv_s",
        spans::total_seconds(&spans_now, "colocation.csv").0,
    );
    let (simulated, cached) = study.run_counts();
    m.insert("colocation.simulated_runs", simulated as f64);
    m.insert("colocation.cached_runs", cached as f64);
}

/// The heatmap sweep composed from the study's own calls, one span per
/// call: solos first, then every pair cell on the host threads.
fn traced_sweep(b: &Bench, study: &Study, rec: &Recorder, root: usize) -> String {
    for name in APPS {
        rec.time("colocation.solo", Some(root), || study.solo(name));
    }
    let cells = Heatmap::pair_cells(APPS.len());
    let values = parallel_map(&cells, b.host_cpus, |&(i, j)| {
        let pair = rec.time("colocation.pair", Some(root), || {
            study.pair(APPS[i], APPS[j])
        });
        (pair.fg_slowdown, cell_status(pair.stalled, pair.truncated))
    });
    rec.time("colocation.csv", Some(root), || {
        let names = APPS.iter().map(|s| s.to_string()).collect();
        let cells = cells
            .iter()
            .zip(values)
            .map(|(&(i, j), (v, st))| (i, j, v, st));
        Heatmap::from_cells(names, cells).to_csv()
    })
}

// ---------------------------------------------------------------------
// heatmap-cold

/// A fresh registry, store and study: one cold campaign's set-up.
struct HeatmapCold {
    registry: Arc<Registry>,
    study: Study,
    tail_s: f64,
    _dir: ScratchDir,
}

impl Campaign for HeatmapCold {
    const SETUP_PER_JOB: bool = true;
    const MIN_JOBS: usize = 3;
    const CSV: bool = true;

    fn setup(b: &Bench) -> Result<Self, String> {
        let registry = new_registry();
        let dir = b.fresh_dir("heatmap");
        let study = b.study(&registry, Some(open_store(dir.path())?));
        Ok(HeatmapCold {
            registry,
            study,
            tail_s: 0.0,
            _dir: dir,
        })
    }

    fn reference(&self, _: &Bench) -> Result<Option<String>, String> {
        Ok(None)
    }

    fn job(&mut self, b: &Bench) -> Result<String, String> {
        let tail = TailClock::new(b.host_cpus);
        let heat = heatmap(&self.study, |done, total| tail.tick(done, total))?;
        self.tail_s = tail.seconds();
        Ok(heat.to_csv())
    }

    fn traced_job(
        &mut self,
        b: &Bench,
        rec: &Recorder,
        root: usize,
    ) -> Result<(String, Layers), String> {
        let csv = traced_sweep(b, &self.study, rec, root);
        rec.close(root);
        let mut m = Layers::new();
        colocation_metrics(&self.study, rec, &mut m);
        let store = self.study.store().expect("cold study has a store");
        store_lookups(store, &mut m);
        probe_store_writes(b, store, rec, &mut m)?;
        probe_trace(b, &self.registry, rec, &mut m);
        probe_machine(b, &self.registry, rec, &csv, &mut m)?;
        Ok((csv, m))
    }

    fn tail_s(&self) -> f64 {
        self.tail_s
    }
}

// ---------------------------------------------------------------------
// sweep-cold

/// A fresh store-backed study for one fabric campaign.
struct SweepCold {
    registry: Arc<Registry>,
    study: Study,
    _dir: ScratchDir,
}

impl SweepCold {
    fn fabric(&self, b: &Bench) -> Result<cochar_fabric::FabricOutcome, String> {
        let cfg = FabricConfig {
            workers: b.host_cpus.min(2),
            worker_cmd: Some(WorkerCmd {
                exe: b.exe.clone(),
                args: vec![crate::WORKER_ARG.into()],
            }),
            // Fail well inside the run's time limit if the fabric wedges.
            stall_timeout: std::time::Duration::from_secs(60),
            ..FabricConfig::default()
        };
        let outcome = run_campaign(&self.study, &b.spec(), &cfg, |_, _| {})?;
        if let Some(f) = outcome.failures.first() {
            return Err(format!("fabric cell {} failed: {}", f.spec, f.cause));
        }
        Ok(outcome)
    }
}

impl Campaign for SweepCold {
    const SETUP_PER_JOB: bool = true;
    const MIN_JOBS: usize = 3;
    const CSV: bool = true;

    fn setup(b: &Bench) -> Result<Self, String> {
        let registry = new_registry();
        let dir = b.fresh_dir("sweep");
        let study = b.study(&registry, Some(open_store(dir.path())?));
        Ok(SweepCold {
            registry,
            study,
            _dir: dir,
        })
    }

    /// The in-process sweep of the same spec, into no store.
    fn reference(&self, b: &Bench) -> Result<Option<String>, String> {
        let local = b.study(&self.registry, None);
        let csv = heatmap(&local, |_, _| {})?.to_csv();
        let mut none = None;
        b.check_csv(&csv, &mut none)?;
        Ok(Some(csv))
    }

    fn job(&mut self, b: &Bench) -> Result<String, String> {
        Ok(self.fabric(b)?.heatmap.to_csv())
    }

    fn traced_job(
        &mut self,
        b: &Bench,
        rec: &Recorder,
        root: usize,
    ) -> Result<(String, Layers), String> {
        let t = Instant::now();
        let outcome = rec.time("fabric.campaign", Some(root), || self.fabric(b))?;
        let campaign_s = t.elapsed().as_secs_f64();
        let csv = rec.time("colocation.csv", Some(root), || outcome.heatmap.to_csv());
        rec.close(root);
        let mut m = Layers::new();
        let l = &outcome.ledger;
        let solo_s = outcome.solo_wall.as_secs_f64();
        m.insert("fabric.solo_wall_s", solo_s);
        m.insert("fabric.pair_wall_s", outcome.pair_wall.as_secs_f64());
        m.insert("fabric.serial_frac", solo_s / campaign_s);
        m.insert("fabric.leases_issued", l.leases_issued as f64);
        m.insert("fabric.leases_reissued", l.leases_reissued as f64);
        m.insert("fabric.records_merged", l.records_merged as f64);
        m.insert("fabric.records_duplicate", l.records_duplicate as f64);
        m.insert(
            "fabric.merge_useful_ratio",
            l.records_merged as f64 / (l.records_merged + l.records_duplicate) as f64,
        );
        probe_frame(&self.study, &outcome.heatmap, rec, &mut m)?;
        colocation_metrics(&self.study, rec, &mut m);
        let store = self.study.store().expect("sweep study has a store");
        store_lookups(store, &mut m);
        probe_store_writes(b, store, rec, &mut m)?;
        probe_trace(b, &self.registry, rec, &mut m);
        probe_machine(b, &self.registry, rec, &csv, &mut m)?;
        Ok((csv, m))
    }
}

/// `fabric` wire: round trips of one cell's result frame — its value and
/// journal record — through `write_frame` and `FrameReader`.
fn probe_frame(
    study: &Study,
    heat: &Heatmap,
    rec: &Recorder,
    m: &mut Layers,
) -> Result<(), String> {
    let store = study.store().expect("sweep study has a store");
    let key = study.pair_keys(APPS[0], APPS[1], 0);
    let key = key.first().ok_or("cell (0, 1) has no run key")?.to_hex();
    let journal = store.dir().join(cochar_store::journal::JOURNAL_FILE);
    let text =
        std::fs::read_to_string(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    let record = text
        .lines()
        .find(|l| l.contains(&key))
        .ok_or("cell (0, 1) record not journaled")?;
    let msg = Msg::Result {
        lease: 1,
        cell: WireCell {
            fg: 0,
            bg: 1,
            attempt: 0,
            issue: 0,
        },
        outcome: CellOutcome::Value {
            value: heat.cell(0, 1),
            status: heat.cell_status(0, 1),
        },
        records: vec![record.to_string()],
    };
    let ok = rec.time("fabric.frame", None, || -> Result<bool, String> {
        let mut all = true;
        let mut buf = Vec::new();
        for _ in 0..FRAME_REPS {
            buf.clear();
            write_frame(&mut buf, &msg).map_err(|e| e.to_string())?;
            let back = FrameReader::new(buf.as_slice())
                .next_frame()
                .map_err(|e| format!("{e:?}"))?;
            all &= matches!(back, Frame::Msg(ref got) if *got == msg);
        }
        Ok(all)
    })?;
    if !ok {
        return Err("result frame did not survive a wire round trip".into());
    }
    let (frame_s, _) = spans::total_seconds(&rec.spans(), "fabric.frame");
    m.insert("fabric.frame_us", frame_s * 1e6 / f64::from(FRAME_REPS));
    Ok(())
}

// ---------------------------------------------------------------------
// resume-warm and placement: jobs against a journaled store

/// A store holding the campaign's runs (and, for placement, the
/// predictor's signature runs), plus the registry built with it.
struct Warm {
    registry: Arc<Registry>,
    csv: String,
    dir: ScratchDir,
}

impl Warm {
    fn build(b: &Bench, signatures: bool) -> Result<Warm, String> {
        let registry = new_registry();
        let dir = b.fresh_dir("warm");
        let study = b.study(&registry, Some(open_store(dir.path())?));
        let csv = heatmap(&study, |_, _| {})?.to_csv();
        if signatures {
            let threads = PredictorConfig::default().scalability_threads;
            parallel_map(&APPS, b.host_cpus, |name| {
                CounterSignature::extract(&study, name, threads)
            });
        }
        drop(study);
        Ok(Warm { registry, csv, dir })
    }

    fn open(&self, b: &Bench) -> Result<Study, String> {
        Ok(b.study(&self.registry, Some(open_store(self.dir.path())?)))
    }
}

struct ResumeWarm(Warm);

impl Campaign for ResumeWarm {
    const SETUP_PER_JOB: bool = false;
    const MIN_JOBS: usize = 100;
    const CSV: bool = true;

    fn setup(b: &Bench) -> Result<Self, String> {
        Warm::build(b, false).map(ResumeWarm)
    }

    fn reference(&self, b: &Bench) -> Result<Option<String>, String> {
        let mut reference = None;
        b.check_csv(&self.0.csv, &mut reference)?;
        Ok(reference)
    }

    fn job(&mut self, b: &Bench) -> Result<String, String> {
        let study = self.0.open(b)?;
        let csv = heatmap(&study, |_, _| {})?.to_csv();
        no_simulation(&study)?;
        Ok(csv)
    }

    fn traced_job(
        &mut self,
        b: &Bench,
        rec: &Recorder,
        root: usize,
    ) -> Result<(String, Layers), String> {
        let store = rec.time("store.open", Some(root), || open_store(self.0.dir.path()))?;
        let study = b.study(&self.0.registry, Some(store.clone()));
        let csv = traced_sweep(b, &study, rec, root);
        rec.close(root);
        no_simulation(&study)?;
        let mut m = Layers::new();
        colocation_metrics(&study, rec, &mut m);
        probe_store_reads(&store, rec, &mut m)?;
        Ok((csv, m))
    }
}

fn no_simulation(study: &Study) -> Result<(), String> {
    match study.run_counts() {
        (0, _) => Ok(()),
        (n, _) => Err(format!(
            "a warm job simulated {n} run(s); every run should be cached"
        )),
    }
}

struct Placement(Warm);

/// What one placement pass leaves behind for the traced run's metrics.
struct Pass {
    text: String,
    study: Study,
    store: RunStore,
    measured: Heatmap,
    predicted: CostMatrix,
    runs: Vec<RunRecord>,
}

impl Placement {
    /// The `cluster compare` path from the warm store, with a span on
    /// every call. The output is the regret report, JSON then CSV.
    fn pass(&self, b: &Bench, rec: &Recorder, root: usize) -> Result<Pass, String> {
        let store = rec.time("store.open", Some(root), || open_store(self.0.dir.path()))?;
        let study = b.study(&self.0.registry, Some(store.clone()));
        let measured = rec.time("colocation.heatmap", Some(root), || {
            heatmap(&study, |_, _| {})
        })?;
        let measured_matrix = CostMatrix::from_heatmap(&measured);
        let config = PredictorConfig {
            seed: JOB_SEED,
            ..PredictorConfig::default()
        };
        let (predictor, _) = rec.time("predict.train", Some(root), || {
            Predictor::train(&study, &APPS[..TRAIN_APPS], config)
        });
        let predicted = rec.time("predict.predict_for", Some(root), || {
            predictor.predict_for(&study, &APPS)
        });
        let rate = cochar_cluster::Workload::rate_for_utilization(UTIL, NODES, SLOTS, MEAN_WORK);
        let workload = cochar_cluster::Workload {
            arrival_rate: rate,
            mean_work: MEAN_WORK,
            seed: JOB_SEED,
        };
        let jobs = workload.generate(CLUSTER_JOBS, APPS.len());
        let mut runs = Vec::new();
        for kind in PolicyKind::all() {
            for (label, knowledge) in [(MEASURED, &measured_matrix), (PREDICTED, &predicted)] {
                let cfg = SimConfig {
                    nodes: NODES,
                    slots: SLOTS,
                    qos_cap: QOS_CAP,
                    slo_stretch: SLO_STRETCH,
                    compose: Compose::Max,
                    defrag_period: kind.wants_defrag().then_some(DEFRAG_PERIOD),
                    ..SimConfig::default()
                };
                let mut policy = kind.build(JOB_SEED, QOS_CAP);
                let outcome = rec
                    .time("cluster.simulate", Some(root), || {
                        simulate(&measured_matrix, knowledge, policy.as_mut(), &jobs, &cfg)
                    })
                    .map_err(|e| e.to_string())?;
                runs.push(RunRecord {
                    policy: kind.to_string(),
                    knowledge: label.to_string(),
                    outcome,
                });
            }
        }
        let scenario = Scenario {
            nodes: NODES,
            slots: SLOTS,
            jobs: jobs.len(),
            seed: JOB_SEED,
            arrival_rate: rate,
            mean_work: MEAN_WORK,
            qos_cap: QOS_CAP,
            slo_stretch: SLO_STRETCH,
            compose: Compose::Max.to_string(),
            defrag_period: Some(DEFRAG_PERIOD),
            apps: APPS.iter().map(|s| s.to_string()).collect(),
        };
        let text = rec.time("cluster.report", Some(root), || {
            let report = RegretReport::new(scenario, runs.clone());
            report.to_json() + &report.to_csv()
        });
        rec.close(root);
        no_simulation(&study)?;
        Ok(Pass {
            text,
            study,
            store,
            measured,
            predicted,
            runs,
        })
    }
}

impl Campaign for Placement {
    const SETUP_PER_JOB: bool = false;
    const MIN_JOBS: usize = 2;
    const CSV: bool = false;

    fn setup(b: &Bench) -> Result<Self, String> {
        Warm::build(b, true).map(Placement)
    }

    fn reference(&self, _: &Bench) -> Result<Option<String>, String> {
        Ok(None)
    }

    fn job(&mut self, b: &Bench) -> Result<String, String> {
        self.pass(b, &Recorder::off(), 0).map(|p| p.text)
    }

    fn traced_job(
        &mut self,
        b: &Bench,
        rec: &Recorder,
        root: usize,
    ) -> Result<(String, Layers), String> {
        let p = self.pass(b, rec, root)?;
        let mut m = Layers::new();
        let spans_now = rec.spans();
        let (train_s, _) = spans::total_seconds(&spans_now, "predict.train");
        let (predict_s, _) = spans::total_seconds(&spans_now, "predict.predict_for");
        let eval = Evaluation::of_matrix(&p.predicted, &p.measured);
        m.insert("predict.train_s", train_s + predict_s);
        m.insert("predict.mae", eval.mae);
        m.insert("predict.spearman", eval.spearman);
        let (sim_s, sims) = spans::total_seconds(&spans_now, "cluster.simulate");
        let placed: usize = p.runs.iter().map(|r| r.outcome.jobs).sum();
        m.insert("cluster.sims", sims as f64);
        m.insert("cluster.jobs", placed as f64);
        m.insert("cluster.sim_s", sim_s);
        m.insert("cluster.us_per_job", sim_s * 1e6 / placed as f64);
        m.insert(
            "cluster.migrations",
            p.runs.iter().map(|r| r.outcome.migrations as f64).sum(),
        );
        colocation_metrics(&p.study, rec, &mut m);
        probe_store_reads(&p.store, rec, &mut m)?;
        Ok((p.text, m))
    }
}
