//! The campaign coordinator.
//!
//! One coordinator owns one campaign: the row-major list of heatmap pair
//! cells over the campaign's names. Cells are handed to workers in
//! *leases* (one cell with a deadline), results stream back one cell at a
//! time, and the coordinator is the only writer of campaign state —
//! workers are stateless cell evaluators.
//!
//! The campaign rules are the single-process sweep's own: the coordinator
//! drives the same [`Supervisor`] that `supervised_map` does, and adds
//! only leases, connections and the ledger around it.
//!
//! * A cell that *panics* inside a worker comes back as a `result` with a
//!   panic cause, and the supervisor applies the [`SweepPolicy`] retry
//!   budget (attempt + 1, deterministic reseed) or records the final
//!   [`CellFailure`] — workers never retry on their own, so no cell ever
//!   simulates more than `max_retries + 1` attempts campaign-wide.
//! * A *worker* that dies (socket EOF) or goes silent (lease deadline
//!   passes without a heartbeat) loses its lease, and the supervisor
//!   re-queues the ticket with an incremented issue count; a cell whose
//!   lease is lost more than [`FabricConfig::max_issues`] times fails
//!   with a delivery error instead of cycling forever.
//!
//! Results reach the canonical store one way only: the journal lines of
//! a cell's own runs ride on its `result` frame and are verified and
//! merged as they arrive, by pure dedup on run fingerprint. A campaign
//! without a store of its own uses an in-memory one, so the fabric writes
//! no scratch directory at all.
//!
//! The coordinator itself is recoverable: a store-backed campaign writes
//! `campaign.json` before issuing any cell and appends its ledger to
//! `fabric.ledger.jsonl` on completion (see [`crate::recover`]), so a
//! SIGKILLed coordinator can be rerun with [`FabricConfig::resume`] — the
//! cached-cell resolution pass re-adopts every cell whose runs already
//! landed in the journal, and only the missing ones are re-issued.
//! Duplicate results (a reconnecting worker resending an unacked result,
//! or a chaos-duplicated frame) are dismissed by the settled-cell check
//! and counted in [`FabricLedger::results_duplicate`]; the record merge
//! underneath is content-addressed dedup either way, so nothing is ever
//! double-merged.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cochar_colocation::sweep::{Reported, Supervisor, Ticket};
use cochar_colocation::{CellFailure, CellStatus, Heatmap, Study, SweepPolicy};
use cochar_store::journal::{parse_record, render_record};
use cochar_store::RunStore;

use crate::recover::{self, ResumePrior};
use crate::wire::{write_frame, CellOutcome, Frame, FrameReader, Msg, WireCell, WireError};
use crate::CampaignSpec;

/// How a local worker process is launched: the executable plus the
/// arguments that put it in worker mode (the CLI passes its own binary
/// and `["fabric", "work"]`). The coordinator appends `--connect ADDR`,
/// `--label wN`, and `--pin-cpu N` (the worker's slot number; see
/// [`crate::WorkerConfig::pin_cpu`]).
#[derive(Clone, Debug)]
pub struct WorkerCmd {
    /// Executable to spawn.
    pub exe: PathBuf,
    /// Leading arguments selecting worker mode.
    pub args: Vec<String>,
}

/// Coordinator knobs.
#[derive(Clone)]
pub struct FabricConfig {
    /// Local worker processes to spawn (0 = remote workers only).
    pub workers: usize,
    /// Listen address (`127.0.0.1:0` for an ephemeral local port).
    pub bind: String,
    /// Lease lifetime; heartbeats extend it.
    pub lease_timeout: Duration,
    /// Retry policy for panicking cells (same semantics as the
    /// single-process supervisor).
    pub policy: SweepPolicy,
    /// Give up on a cell when a lease for it is lost with this many
    /// re-issues already spent.
    pub max_issues: u32,
    /// How to launch local workers (required when `workers > 0`).
    pub worker_cmd: Option<WorkerCmd>,
    /// Resolve cells whose runs are already in the store locally (cache
    /// replay, no lease). Disabled by the CLI when a chaos cell is armed
    /// so fault-injection tests always exercise the wire path.
    pub resolve_cached: bool,
    /// Abort the campaign when no worker claims, results, or heartbeats
    /// for this long (dead fabric watchdog).
    pub stall_timeout: Duration,
    /// Resume a store-backed campaign after a coordinator crash: verify
    /// `campaign.json` matches these flags (refuse on mismatch), adopt
    /// cached cells, and report the prior runs' ledgers. Without a store
    /// this is a no-op.
    pub resume: bool,
    /// Receives the actual listen address once bound — how remote-worker
    /// tests (and a `--bind 127.0.0.1:0` serve) learn the ephemeral port.
    pub on_bound: Option<std::sync::mpsc::Sender<String>>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            workers: 0,
            bind: "127.0.0.1:0".into(),
            lease_timeout: Duration::from_secs(30),
            policy: SweepPolicy::default(),
            max_issues: 5,
            worker_cmd: None,
            resolve_cached: true,
            stall_timeout: Duration::from_secs(300),
            resume: false,
            on_bound: None,
        }
    }
}

/// Campaign accounting, printed as the fabric ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricLedger {
    /// Distinct worker connections that claimed work.
    pub workers: u64,
    /// Connections lost while holding a lease.
    pub worker_deaths: u64,
    /// Replacement local workers spawned after a death.
    pub respawns: u64,
    /// Workers that reconnected to the campaign after losing their
    /// connection (claims with `session > 0`).
    pub reconnects: u64,
    /// Leases handed out.
    pub leases_issued: u64,
    /// Leases lost (death or deadline) whose cells were re-queued.
    pub leases_reissued: u64,
    /// Panicking cells re-queued with a new attempt number.
    pub cell_retries: u64,
    /// Cells answered from the coordinator's store without a lease.
    pub cells_cached: u64,
    /// Journal records merged into the canonical store off the wire.
    pub records_merged: u64,
    /// Records that were already resident (dedup hits).
    pub records_duplicate: u64,
    /// Result frames dismissed because their cell was already settled —
    /// resent after a reconnect, duplicated on the wire, or landed after
    /// the lease was re-issued — or because they report a panic for a
    /// ticket that was superseded. Dismissed, never double-merged.
    pub results_duplicate: u64,
    /// Wire protocol errors observed (coordinator-side frame corruption
    /// plus worker-reported counts riding in on claims).
    pub wire_faults: u64,
}

/// What a finished campaign hands back.
pub struct FabricOutcome {
    /// The assembled heatmap (failed cells are NaN holes).
    pub heatmap: Heatmap,
    /// Final per-cell failures, in row-major cell order.
    pub failures: Vec<CellFailure>,
    /// The campaign ledger.
    pub ledger: FabricLedger,
    /// Wall-clock of the lease-dispatch phase (pair cells only).
    pub pair_wall: Duration,
    /// Wall-clock of the sequential solo pre-seeding phase.
    pub solo_wall: Duration,
    /// The store could not persist everything (mirrors CLI exit code 3).
    pub store_degraded: bool,
    /// Set when [`FabricConfig::resume`] found a ledger log: the prior
    /// runs' accounting (this run's own ledger is `ledger`).
    pub resumed: Option<ResumePrior>,
}

/// One outstanding lease: a single ticket held by connection `conn`.
struct LeaseRec {
    conn: u64,
    deadline: Instant,
    ticket: Ticket,
}

struct CoordState {
    /// The campaign rules: queue, retries, settlement.
    sup: Supervisor<(f64, CellStatus)>,
    leases: HashMap<u64, LeaseRec>,
    /// Stop serving: every cell settled, or the campaign was aborted.
    done: bool,
    next_lease: u64,
    ledger: FabricLedger,
    last_activity: Instant,
    /// Worker connections whose handler is still running.
    open_conns: usize,
}

struct Coord {
    state: Mutex<CoordState>,
    cv: Condvar,
    store: RunStore,
    spec: CampaignSpec,
    fp: u64,
    cfg: FabricConfig,
    next_conn: AtomicU64,
    merge_failed: Mutex<Option<String>>,
    /// High-water mark of each worker's self-reported wire fault count
    /// (by label), so re-claims fold only the delta into the ledger.
    fault_reports: Mutex<HashMap<String, u64>>,
}

impl Coord {
    fn lock(&self) -> std::sync::MutexGuard<'_, CoordState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The cell index of an untrusted wire cell, or `None` when either
    /// coordinate is out of range.
    fn cell_index(&self, cell: WireCell) -> Option<usize> {
        let n = self.spec.names.len();
        (cell.fg < n && cell.bg < n).then(|| cell.fg * n + cell.bg)
    }

    /// Hands the ticket of every lease matching `lost` (worker death or
    /// deadline expiry) back to the supervisor; returns how many.
    fn lose_leases(&self, st: &mut CoordState, lost: impl Fn(&LeaseRec) -> bool) -> usize {
        let mut tickets = Vec::new();
        st.leases.retain(|_, l| {
            let gone = lost(l);
            if gone {
                tickets.push(l.ticket);
            }
            !gone
        });
        for &t in &tickets {
            st.ledger.leases_reissued += 1;
            st.sup.lose(t, self.cfg.max_issues);
        }
        self.after_settle(st);
        tickets.len()
    }

    fn after_settle(&self, st: &mut CoordState) {
        if st.sup.unsettled() == 0 {
            st.done = true;
            self.cv.notify_all();
        }
    }

    /// Leases the next ticket to `conn`, if any work is available.
    fn carve(&self, st: &mut CoordState, conn: u64) -> Option<(u64, WireCell)> {
        if st.done {
            return None;
        }
        let ticket = st.sup.take()?;
        let n = self.spec.names.len();
        let cell = WireCell {
            fg: ticket.index / n,
            bg: ticket.index % n,
            attempt: ticket.attempt,
            issue: ticket.issue,
        };
        let id = st.next_lease;
        st.next_lease += 1;
        st.leases.insert(
            id,
            LeaseRec { conn, deadline: Instant::now() + self.cfg.lease_timeout, ticket },
        );
        st.ledger.leases_issued += 1;
        Some((id, cell))
    }

    /// Merges journal lines that rode in on a result frame.
    fn merge_wire_records(&self, records: &[String]) {
        let mut parsed = Vec::with_capacity(records.len());
        for line in records {
            match parse_record(line) {
                Ok((key, outcome)) => parsed.push((key, Arc::new(outcome))),
                Err(e) => eprintln!("fabric: dropping unverifiable worker record: {e}"),
            }
        }
        match self.store.merge_records(parsed) {
            Ok(report) => {
                let mut st = self.lock();
                st.ledger.records_merged += report.added;
                st.ledger.records_duplicate += report.duplicates;
            }
            Err(e) => {
                let mut failed = self.merge_failed.lock().unwrap_or_else(|p| p.into_inner());
                if failed.is_none() {
                    eprintln!(
                        "warning: fabric could not persist worker records ({e}); \
                         results are unaffected, but this campaign will not be resumable"
                    );
                    *failed = Some(e.to_string());
                }
            }
        }
    }

    /// Applies one worker result; `on_cell` ticks settled progress.
    /// Returns `false` for a cell outside the campaign: that link cannot
    /// be trusted and is dropped.
    fn settle_result(
        &self,
        lease_id: u64,
        cell: WireCell,
        outcome: CellOutcome,
        on_cell: &(impl Fn(usize, usize) + Sync),
    ) -> bool {
        let mut st = self.lock();
        st.last_activity = Instant::now();
        let Some(index) = self.cell_index(cell) else {
            st.ledger.wire_faults += 1;
            return false;
        };
        // The lease may already be gone if it expired and was re-issued:
        // the late result still counts if the cell is unsettled, the work
        // is deterministic either way.
        if st.leases.get(&lease_id).is_some_and(|l| l.ticket.index == index) {
            st.leases.remove(&lease_id);
        }
        let ticket = Ticket { index, attempt: cell.attempt, issue: cell.issue };
        let reported = match outcome {
            CellOutcome::Value { value, status } => st.sup.succeed(index, (value, status)),
            CellOutcome::Panic { cause } => st.sup.fail(ticket, cause),
        };
        match reported {
            Reported::Settled(completed) => {
                self.after_settle(&mut st);
                drop(st);
                on_cell(completed, self.spec.names.len().pow(2));
            }
            Reported::Requeued => st.ledger.cell_retries += 1,
            // A resent (unacked), chaos-duplicated, or expired-lease
            // result: the records that rode along were already deduped
            // by the content-addressed merge, so nothing is
            // double-counted downstream.
            Reported::Dismissed | Reported::Skipped => st.ledger.results_duplicate += 1,
        }
        true
    }

    /// Folds a worker's self-reported cumulative wire fault count into
    /// the ledger, crediting only what is new since its last claim.
    fn fold_worker_faults(&self, worker: &str, reported: u64) {
        let delta = {
            let mut map =
                self.fault_reports.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let prev = map.entry(worker.to_string()).or_insert(0);
            let delta = reported.saturating_sub(*prev);
            *prev = (*prev).max(reported);
            delta
        };
        if delta > 0 {
            self.lock().ledger.wire_faults += delta;
        }
    }

    /// One worker connection, handled on its own thread.
    fn handle_conn(
        &self,
        stream: TcpStream,
        solo_lines: &[String],
        on_cell: &(impl Fn(usize, usize) + Sync),
    ) {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(1000)));
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let hello = Msg::Hello {
            fp: self.fp,
            lease_ms: self.cfg.lease_timeout.as_millis() as u64,
            campaign: self.spec.clone(),
            solo: solo_lines.to_vec(),
        };
        if write_frame(&mut writer, &hello).is_err() {
            return;
        }
        let mut reader = FrameReader::new(stream);
        let mut claimed = false;
        loop {
            let frame = match reader.next_frame() {
                Ok(frame) => frame,
                Err(WireError::Protocol(e)) => {
                    // Corrupt or desynced bytes: this link cannot be
                    // trusted any further. Drop it — the tail below
                    // requeues whatever it held, and the worker side
                    // reconnects on its own.
                    eprintln!("fabric: dropping connection after wire fault: {e}");
                    self.lock().ledger.wire_faults += 1;
                    break;
                }
                Err(WireError::Io(e)) => {
                    eprintln!("fabric: connection read failed: {e}");
                    break;
                }
            };
            match frame {
                Frame::Idle => {
                    if self.lock().done {
                        break;
                    }
                }
                Frame::Eof => break,
                Frame::Msg(Msg::Claim { fp, worker, session, faults }) => {
                    if fp != self.fp {
                        eprintln!(
                            "fabric: worker {worker:?} echoed fingerprint {fp:016x}, \
                             campaign is {:016x}; dismissing it",
                            self.fp
                        );
                        let _ = write_frame(&mut writer, &Msg::Done);
                        break;
                    }
                    self.fold_worker_faults(&worker, faults);
                    let reply = {
                        let mut st = self.lock();
                        st.last_activity = Instant::now();
                        if !claimed {
                            claimed = true;
                            if session == 0 {
                                st.ledger.workers += 1;
                            } else {
                                st.ledger.reconnects += 1;
                                eprintln!(
                                    "fabric: worker {worker:?} reconnected (session {session})"
                                );
                            }
                        }
                        if st.done {
                            Msg::Done
                        } else {
                            match self.carve(&mut st, conn) {
                                Some((id, cell)) => Msg::Lease {
                                    id,
                                    deadline_ms: self.cfg.lease_timeout.as_millis() as u64,
                                    cells: vec![cell],
                                },
                                None => Msg::Wait { ms: 100 },
                            }
                        }
                    };
                    let finished = matches!(reply, Msg::Done);
                    if write_frame(&mut writer, &reply).is_err() || finished {
                        break;
                    }
                }
                Frame::Msg(Msg::Result { lease, cell, outcome, records }) => {
                    self.merge_wire_records(&records);
                    if !self.settle_result(lease, cell, outcome, on_cell) {
                        let at = (cell.fg, cell.bg);
                        eprintln!("fabric: dropping connection after a result for {at:?}, \
                                   a cell outside the campaign");
                        break;
                    }
                    if write_frame(&mut writer, &Msg::Ack).is_err() {
                        break;
                    }
                }
                Frame::Msg(Msg::Heartbeat { lease }) => {
                    let mut st = self.lock();
                    st.last_activity = Instant::now();
                    let deadline = Instant::now() + self.cfg.lease_timeout;
                    if let Some(l) = st.leases.get_mut(&lease) {
                        l.deadline = deadline;
                    }
                }
                Frame::Msg(other) => {
                    eprintln!("fabric: unexpected message from worker: {other:?}");
                    break;
                }
            }
        }
        // Connection is gone (or being dismissed): anything it still
        // holds goes back on the queue.
        let mut st = self.lock();
        if !st.done && self.lose_leases(&mut st, |l| l.conn == conn) > 0 {
            st.ledger.worker_deaths += 1;
        }
    }

    /// Expires overdue leases; runs every 100 ms on its own thread.
    fn expire_overdue(&self) {
        let now = Instant::now();
        self.lose_leases(&mut self.lock(), |l| l.deadline < now);
    }
}

/// Runs one sharded campaign to completion.
///
/// `study` supplies the store (an in-memory store stands in when it has
/// none), the solo pre-seed runs, and cached-cell resolution; it must
/// describe the same measurement protocol as `spec` — the CLI builds both
/// from the same flags. `on_cell(settled, total)` ticks as pair cells
/// settle.
pub fn run_campaign(
    study: &Study,
    spec: &CampaignSpec,
    cfg: &FabricConfig,
    on_cell: impl Fn(usize, usize) + Sync,
) -> Result<FabricOutcome, String> {
    if spec.names.len() < 2 {
        return Err("a campaign needs at least two applications".into());
    }
    for n in &spec.names {
        if study.registry().get(n.as_str()).is_none() {
            return Err(format!("unknown application {n:?}; try `cochar list`"));
        }
    }
    if cfg.workers > 0 && cfg.worker_cmd.is_none() {
        return Err("local workers requested but no worker command configured".into());
    }

    // The canonical store: the study's own, or an in-memory one that only
    // lives for this campaign (worker results still need a merge target).
    let store = study.store().cloned().unwrap_or_else(RunStore::in_memory);
    // A store-less study cannot journal its solos; run the campaign
    // through a store-backed twin so solo pre-seeding lands in `store`.
    let seeded_study;
    let study: &Study = if study.store().is_some() {
        study
    } else {
        seeded_study = spec.build_study(Some(store.clone()))?;
        &seeded_study
    };

    // --- Phase 0: durable campaign metadata (crash recovery). Only a
    // campaign with an on-disk store is resumable — an in-memory store
    // dies with the process, so there is nothing to journal toward.
    let persistent = !store.is_in_memory();
    let mut resumed: Option<ResumePrior> = None;
    if persistent {
        let dir = store.dir().to_path_buf();
        let recorded = recover::load_campaign(&dir).unwrap_or_else(|e| {
            eprintln!("warning: {e}; ignoring recorded campaign metadata");
            None
        });
        let here = spec.fingerprint();
        match recorded {
            Some((fp, recorded_spec)) => {
                // The recorded spec must re-fingerprint to its recorded
                // value (else the schema changed underneath the store)
                // AND match the flags on this command line.
                let matches = fp == here && recorded_spec.fingerprint() == here;
                if !matches && cfg.resume {
                    return Err(format!(
                        "--resume refused: store {} was journaled by campaign {fp:016x}, \
                         but these flags describe campaign {here:016x}; rerun without \
                         --resume to repurpose the store",
                        dir.display()
                    ));
                }
            }
            None if cfg.resume => {
                eprintln!(
                    "fabric: no {} in {}; resuming on cache contents alone",
                    recover::CAMPAIGN_FILE,
                    dir.display()
                );
            }
            None => {}
        }
        if let Err(e) = recover::save_campaign(&dir, spec) {
            eprintln!("warning: {e}; this campaign will not be resumable");
        }
        if cfg.resume {
            resumed = Some(recover::load_ledger_log(&dir));
        }
    }

    // --- Phase 1: solo pre-seeding (sequential, excluded from pair timing).
    // Every pair cell divides by its foreground's solo time; computing the
    // solos once here and shipping the records in `hello` means workers
    // answer them from cache instead of each re-simulating all N.
    let solo_start = Instant::now();
    study.preseed_solos(&spec.names);
    let solo_wall = solo_start.elapsed();
    let mut solo_lines = Vec::new();
    for name in &spec.names {
        for key in study.solo_keys(name.as_str()) {
            if let Some(outcome) = store.get(key) {
                solo_lines.push(render_record(key, &outcome));
            }
        }
    }

    // --- Phase 2: settle cached cells locally; the rest stay queued.
    let names: Vec<&str> = spec.names.iter().map(|s| s.as_str()).collect();
    let total = names.len() * names.len();
    let mut st = CoordState {
        sup: Supervisor::new(total, cfg.policy),
        leases: HashMap::new(),
        done: false,
        next_lease: 1,
        ledger: FabricLedger::default(),
        last_activity: Instant::now(),
        open_conns: 0,
    };
    let pair_start = Instant::now();
    if cfg.resolve_cached {
        for (idx, (i, j)) in Heatmap::pair_cells(names.len()).into_iter().enumerate() {
            let keys = study.pair_keys(names[i], names[j], 0);
            if keys.is_empty() || !keys.iter().all(|&k| store.contains(k)) {
                continue;
            }
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Heatmap::measure_cell(study, names[i], names[j], 0)
            }));
            if let Ok(cell) = got {
                st.sup.succeed(idx, cell);
                st.ledger.cells_cached += 1;
            }
        }
    }
    if st.ledger.cells_cached > 0 {
        on_cell(st.ledger.cells_cached as usize, total);
    }
    let all_cached = st.sup.unsettled() == 0;
    st.done = all_cached;

    let coord = Coord {
        state: Mutex::new(st),
        cv: Condvar::new(),
        store: store.clone(),
        spec: spec.clone(),
        fp: spec.fingerprint(),
        cfg: cfg.clone(),
        next_conn: AtomicU64::new(1),
        merge_failed: Mutex::new(None),
        fault_reports: Mutex::new(HashMap::new()),
    };

    if !all_cached {
        serve(&coord, cfg, &solo_lines, &on_cell)?;
    }
    let pair_wall = pair_start.elapsed();

    let merge_failed = coord.merge_failed.lock().unwrap_or_else(|p| p.into_inner()).is_some();
    let st = coord.state.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    let ledger = st.ledger;
    let report = st.sup.into_report(|idx| Heatmap::cell_label(&spec.names, idx));
    let (heatmap, failures) = Heatmap::from_report(spec.names.clone(), report);
    let store_degraded = study.store_degraded() || merge_failed;
    if persistent {
        // Journal this run's ledger for whoever resumes or audits the
        // campaign next. The run index is informational only.
        let dir = store.dir().to_path_buf();
        let run = recover::load_ledger_log(&dir).runs + 1;
        if let Err(e) = recover::append_ledger(&dir, run, &ledger) {
            eprintln!("warning: {e}");
        }
    }
    Ok(FabricOutcome { heatmap, failures, ledger, pair_wall, solo_wall, store_degraded, resumed })
}

/// Phase 3: run the listener + local workers until every cell settles.
fn serve(
    coord: &Coord,
    cfg: &FabricConfig,
    solo_lines: &[String],
    on_cell: &(impl Fn(usize, usize) + Sync),
) -> Result<(), String> {
    let listener =
        TcpListener::bind(&cfg.bind).map_err(|e| format!("bind {}: {e}", cfg.bind))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    if let Some(tx) = &cfg.on_bound {
        let _ = tx.send(addr.clone());
    }

    std::thread::scope(|scope| -> Result<(), String> {
        // Accept loop: one handler thread per connection, all inside this
        // scope so they are joined before serve() returns.
        scope.spawn(|| {
            while let Ok((stream, _)) = listener.accept() {
                {
                    let mut st = coord.lock();
                    if st.done {
                        // Poke connection or a late worker: greet it
                        // with done semantics via a normal handler —
                        // it will claim once and be dismissed.
                        drop(stream);
                        break;
                    }
                    st.open_conns += 1;
                }
                scope.spawn(|| {
                    coord.handle_conn(stream, solo_lines, on_cell);
                    coord.lock().open_conns -= 1;
                });
            }
        });
        // Lease-expiry sweeper.
        scope.spawn(|| loop {
            std::thread::sleep(Duration::from_millis(100));
            if coord.lock().done {
                break;
            }
            coord.expire_overdue();
        });

        // Local worker processes.
        let mut children: Vec<std::process::Child> = Vec::new();
        let mut next_worker = 0usize;
        let mut spawn_worker = |children: &mut Vec<std::process::Child>| -> Result<(), String> {
            let cmd = cfg.worker_cmd.as_ref().expect("checked in run_campaign");
            let label = format!("w{next_worker}");
            let child = std::process::Command::new(&cmd.exe)
                .args(&cmd.args)
                .arg("--connect")
                .arg(&addr)
                .arg("--label")
                .arg(&label)
                .arg("--pin-cpu")
                .arg(next_worker.to_string())
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawning worker {}: {e}", cmd.exe.display()))?;
            next_worker += 1;
            children.push(child);
            Ok(())
        };
        for _ in 0..cfg.workers {
            spawn_worker(&mut children)?;
        }

        // Wait for settlement, respawning dead local workers (budget: one
        // replacement per original slot) and watching for a dead fabric:
        // no activity for `stall_timeout`, or every local worker gone for
        // good with no connection left that could still settle a cell.
        let respawn_budget = cfg.workers;
        let abort: Option<String> = loop {
            let mut st = coord.lock();
            if st.done {
                break None;
            }
            if st.last_activity.elapsed() > cfg.stall_timeout {
                let unsettled = st.sup.unsettled();
                st.done = true;
                break Some(format!(
                    "fabric stalled: {unsettled} cell(s) unsettled and no worker \
                     activity for {:?} (no workers connected, or all of them hung)",
                    cfg.stall_timeout
                ));
            }
            drop(
                coord
                    .cv
                    .wait_timeout(st, Duration::from_millis(250))
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            // Local pool upkeep, outside the state lock: exited children
            // stay in `children`, so `len - workers` is the respawn count
            // and any excess of deaths over respawns means a slot is
            // empty. Top it up one child per tick while budget remains.
            let exits: Vec<String> = children
                .iter_mut()
                .enumerate()
                .filter_map(|(i, c)| Some(format!("w{i} {}", c.try_wait().ok()??)))
                .collect();
            let respawned_so_far = children.len() - cfg.workers;
            if respawned_so_far < respawn_budget {
                if exits.len() > respawned_so_far && !coord.lock().done {
                    spawn_worker(&mut children)?;
                    coord.lock().ledger.respawns += 1;
                }
            } else if !children.is_empty() && exits.len() == children.len() {
                let mut st = coord.lock();
                if !st.done && st.open_conns == 0 {
                    let unsettled = st.sup.unsettled();
                    st.done = true;
                    break Some(format!(
                        "fabric failed: {unsettled} cell(s) unsettled, every local worker \
                         exited ({}) with the respawn budget spent and no worker connected",
                        exits.join(", ")
                    ));
                }
            }
        };

        // Settled (or stalled): wake everything up and tear down.
        coord.cv.notify_all();
        // Poke the accept loop so it observes `done`.
        let _ = TcpStream::connect(&addr);

        // Give local workers a moment to claim, hear `done`, and exit;
        // then kill whatever is left (hung chaos workers, stuck leases).
        let grace = Instant::now();
        loop {
            let all_gone =
                children.iter_mut().all(|c| matches!(c.try_wait(), Ok(Some(_))));
            if all_gone || grace.elapsed() > Duration::from_secs(5) {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        for child in children.iter_mut() {
            if !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        if let Some(msg) = abort {
            return Err(msg);
        }
        Ok(())
    })
}
