//! The worker loop: a stateless cell evaluator that survives its link.
//!
//! A worker connects, receives the campaign spec in `hello`, rebuilds the
//! exact same [`cochar_colocation::Study`] the coordinator holds (same
//! run keys — that is the merge invariant), pre-seeds its store (in
//! memory unless [`WorkerConfig::store_dir`] names one) with the solo
//! records that rode in, and then claims leases until the coordinator
//! says `done`. Each leased cell is computed under panic isolation; the
//! coordinator owns all retry policy, so the worker just reports what
//! happened. The `result` frame is the only way a run reaches the
//! canonical store: it carries the journal records of that cell's own
//! runs.
//!
//! While a lease is held, a heartbeat thread extends it every
//! `lease_ms / 3`, so a slow cell does not get re-issued out from under a
//! healthy worker — only a dead or hung one.
//!
//! # Reconnect
//!
//! Losing the connection is not fatal. The worker runs *sessions*: each
//! session is one connection's lifetime, and when a session ends in
//! connection loss (EOF, a wire fault, an unacknowledged result) the
//! worker reconnects with bounded exponential backoff + jitter and
//! re-Hellos. The campaign fingerprint must match the one it was working
//! — a restarted coordinator offering a *different* campaign is refused.
//! The one in-flight result that was sent but never acknowledged is
//! resent verbatim at the start of the new session; the coordinator
//! dismisses it if the cell already settled (counted in the ledger) and
//! the records it carries are content-addressed, so the resend is
//! idempotent by construction. Study and store persist across sessions —
//! reconnecting costs one TCP handshake and one hello, not a rebuild.
//!
//! The first connect also retries within [`WorkerConfig::connect_retry`],
//! so a worker racing `fabric serve` startup (or a coordinator mid-solo
//! phase) waits for the listener instead of failing instantly.
//!
//! Chaos hooks (armed by the CLI from `COCHAR_CHAOS_WORKER` and
//! `COCHAR_CHAOS_WIRE`, inert otherwise) let the test suite kill or hang
//! a worker at a precise cell, or sabotage its outbound frames on a
//! schedule (see [`crate::chaos`]): `die` raises SIGKILL mid-lease — the
//! crash the lease machinery exists for — and `hang` silences the
//! heartbeat and sleeps forever, which is how lease *expiry* (as opposed
//! to connection death) is exercised.

use std::io::Write;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cochar_colocation::sweep::{panic_message, pin_slot};
use cochar_colocation::{Heatmap, Study};
use cochar_store::journal::{parse_record, render_record};
use cochar_store::RunStore;

use crate::chaos::{ChaosState, ChaosStream, WirePlan};
use crate::wire::{write_frame, CellOutcome, Frame, FrameReader, Msg, WireCell, WireError};

/// Worker-side fault injection, armed per-cell (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerChaos {
    /// SIGKILL this process when first issued the `(fg, bg)` cell.
    Die {
        /// Foreground name of the trigger cell.
        fg: String,
        /// Background name of the trigger cell.
        bg: String,
    },
    /// Stop heartbeating and sleep forever when first issued the cell.
    Hang {
        /// Foreground name of the trigger cell.
        fg: String,
        /// Background name of the trigger cell.
        bg: String,
    },
}

impl WorkerChaos {
    /// Parses the `COCHAR_CHAOS_WORKER` grammar: `die@fg/bg` | `hang@fg/bg`.
    pub fn parse(spec: &str) -> Result<WorkerChaos, String> {
        let (kind, pair) = spec
            .split_once('@')
            .ok_or_else(|| format!("expected die@fg/bg or hang@fg/bg, got {spec:?}"))?;
        let (fg, bg) = pair
            .split_once('/')
            .ok_or_else(|| format!("expected fg/bg after @, got {pair:?}"))?;
        let (fg, bg) = (fg.to_string(), bg.to_string());
        match kind {
            "die" => Ok(WorkerChaos::Die { fg, bg }),
            "hang" => Ok(WorkerChaos::Hang { fg, bg }),
            other => Err(format!("unknown worker chaos {other:?} (die|hang)")),
        }
    }
}

/// How a worker runs.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub connect: String,
    /// Private store directory; when absent (as for every worker the
    /// coordinator spawns), the store lives in memory.
    pub store_dir: Option<PathBuf>,
    /// Label echoed in `claim` (diagnostics only).
    pub label: String,
    /// Executor slot to pin this process for, as sweep pool thread `i`
    /// would be (the coordinator passes the worker's number; see
    /// [`cochar_colocation::sweep::pin_slot`]).
    pub pin_cpu: Option<usize>,
    /// Cell-level fault injection (the study's chaos cell), as
    /// `(fg, bg, succeed_from)`.
    pub chaos_cell: Option<(String, String, u32)>,
    /// Worker-level fault injection.
    pub chaos_worker: Option<WorkerChaos>,
    /// Wire-level fault injection over outbound frames (the
    /// `COCHAR_CHAOS_WIRE` plan).
    pub chaos_wire: Option<WirePlan>,
    /// Total budget for (re)connect attempts before giving up — covers
    /// both racing a coordinator's startup and riding out its restart.
    pub connect_retry: Duration,
    /// How many lost connections to survive before giving up.
    pub max_reconnects: u32,
    /// How long to wait for the coordinator's reply to a claim or result
    /// before treating the session as lost. Replies are normally
    /// immediate; this bounds the damage of a dropped frame.
    pub reply_timeout: Duration,
}

impl WorkerConfig {
    /// A plain worker aimed at `connect`.
    pub fn new(connect: impl Into<String>) -> Self {
        WorkerConfig {
            connect: connect.into(),
            store_dir: None,
            label: "worker".into(),
            pin_cpu: None,
            chaos_cell: None,
            chaos_worker: None,
            chaos_wire: None,
            connect_retry: Duration::from_secs(5),
            max_reconnects: 8,
            reply_timeout: Duration::from_secs(10),
        }
    }
}

/// What a worker did before the coordinator dismissed it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leases processed.
    pub leases: u64,
    /// Cells that computed to a value.
    pub cells: u64,
    /// Cells that panicked (reported, not retried here).
    pub panics: u64,
    /// Sessions re-established after connection loss.
    pub reconnects: u64,
    /// Wire protocol errors observed on the inbound side.
    pub wire_faults: u64,
}

/// How one session (one connection's lifetime) ended.
enum SessionEnd {
    /// The coordinator said `done`: the campaign settled, exit cleanly.
    Dismissed,
    /// The connection is gone or untrustworthy; reconnect and continue.
    Lost(String),
    /// Something no reconnect can fix (wrong campaign, bad lease).
    Fatal(String),
}

/// The one result sent but not yet acknowledged — resent verbatim on the
/// next session so a result lost with its connection still lands.
#[derive(Clone)]
struct PendingResult {
    lease: u64,
    cell: WireCell,
    outcome: CellOutcome,
    records: Vec<String>,
}

/// Worker state that survives across sessions.
struct WorkerState {
    fp: Option<u64>,
    study: Option<Study>,
    names: Vec<String>,
    pending: Option<PendingResult>,
    session: u32,
    summary: WorkerSummary,
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// What [`recv`] yielded.
enum Recv {
    Msg(Msg),
    /// The connection ended or turned untrustworthy (reason inside).
    Closed(String),
    /// No frame within the deadline.
    Timeout,
}

/// Waits for the next message, riding out read-timeout idles up to
/// `deadline`. Inbound protocol errors are counted and reported as a
/// closed (untrustworthy) connection — the reconnect machinery owns the
/// recovery, never the parser.
fn recv(reader: &mut FrameReader<TcpStream>, deadline: Duration, wire_faults: &mut u64) -> Recv {
    let start = Instant::now();
    loop {
        match reader.next_frame() {
            Ok(Frame::Msg(m)) => return Recv::Msg(m),
            Ok(Frame::Eof) => return Recv::Closed("connection closed".into()),
            Ok(Frame::Idle) => {
                if start.elapsed() > deadline {
                    return Recv::Timeout;
                }
            }
            Err(WireError::Protocol(e)) => {
                *wire_faults += 1;
                return Recv::Closed(format!("wire fault: {e}"));
            }
            Err(WireError::Io(e)) => return Recv::Closed(e),
        }
    }
}

fn send_to(writer: &SharedWriter, msg: &Msg) -> bool {
    let mut w = writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    write_frame(&mut *w, msg).is_ok()
}

/// Journal lines of the runs of one cell attempt that are resident in
/// `store`: what the coordinator needs to answer the cell from cache.
fn cell_records(study: &Study, store: &RunStore, fg: &str, bg: &str, attempt: u32) -> Vec<String> {
    let keys = study.pair_keys(fg, bg, attempt);
    keys.into_iter().filter_map(|k| Some(render_record(k, store.get(k)?.as_ref()))).collect()
}

#[cfg(unix)]
fn kill_self_hard() {
    extern "C" {
        fn getpid() -> i32;
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(getpid(), 9); // SIGKILL: no destructors, no flushes
    }
}

#[cfg(not(unix))]
fn kill_self_hard() {}

/// Connects with exponential backoff + jitter inside a total `budget`.
///
/// The backoff doubles from 25 ms to a 1 s cap; jitter (±25%, from a
/// cheap xorshift seeded per-process) de-synchronizes a fleet of workers
/// all racing the same coordinator startup.
fn connect_with_retry(addr: &str, budget: Duration) -> Result<TcpStream, String> {
    let start = Instant::now();
    let mut delay = Duration::from_millis(25);
    let mut rng: u64 = u64::from(std::process::id()) ^ 0x9e37_79b9_7f4a_7c15;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if start.elapsed() >= budget {
                    return Err(format!(
                        "connect {addr}: {e} (gave up after {:.1?} of retries)",
                        start.elapsed()
                    ));
                }
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let base = delay.as_millis() as u64;
                let jitter = (base / 2).max(1);
                let ms = base - jitter / 2 + rng % (jitter + 1);
                let remaining = budget.saturating_sub(start.elapsed());
                std::thread::sleep(Duration::from_millis(ms).min(remaining));
                delay = (delay * 2).min(Duration::from_secs(1));
            }
        }
    }
}

/// Connects to a coordinator and works until dismissed, reconnecting
/// through connection loss (see the module docs).
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerSummary, String> {
    if let Some(slot) = cfg.pin_cpu {
        // Best effort: an over-subscribed host just leaves it to the OS.
        pin_slot(slot);
    }
    // Private store, pre-seeded with the solos so this worker never
    // simulates a denominator. Opened once; sessions share it.
    let store = match &cfg.store_dir {
        Some(dir) => RunStore::open(dir).map_err(|e| e.to_string())?,
        None => RunStore::in_memory(),
    };
    // One chaos state for the whole process: frame indices keep counting
    // across reconnects, so each scheduled fault fires exactly once.
    let chaos = cfg
        .chaos_wire
        .as_ref()
        .filter(|plan| !plan.is_empty())
        .map(|plan| Arc::new(Mutex::new(ChaosState::new(plan.clone()))));

    let mut st = WorkerState {
        fp: None,
        study: None,
        names: Vec::new(),
        pending: None,
        session: 0,
        summary: WorkerSummary::default(),
    };
    let result = loop {
        let stream = match connect_with_retry(&cfg.connect, cfg.connect_retry) {
            Ok(stream) => stream,
            Err(e) if st.session == 0 => break Err(e),
            Err(e) => {
                // We already worked for this coordinator and now it is
                // unreachable: the likeliest story is that the campaign
                // settled and it exited. Every acknowledged result landed;
                // an unacknowledged one is re-issued by a live coordinator.
                eprintln!(
                    "fabric: worker {}: coordinator unreachable after {} session(s) \
                     ({e}); assuming the campaign is over",
                    cfg.label,
                    st.session
                );
                break Ok(());
            }
        };
        match run_session(cfg, &store, &mut st, stream, chaos.as_ref()) {
            SessionEnd::Dismissed => break Ok(()),
            SessionEnd::Fatal(e) => break Err(e),
            SessionEnd::Lost(why) => {
                st.session += 1;
                st.summary.reconnects += 1;
                if st.session > cfg.max_reconnects {
                    break Err(format!(
                        "connection lost {} times (last: {why}); giving up",
                        st.session
                    ));
                }
                eprintln!(
                    "fabric: worker {} lost its connection ({why}); reconnecting \
                     (session {})",
                    cfg.label, st.session
                );
            }
        }
    };
    result.map(|()| st.summary)
}

/// Runs one session: hello, (re)build state on the first one, resend the
/// pending result if any, then claim until dismissed or disconnected.
fn run_session(
    cfg: &WorkerConfig,
    store: &RunStore,
    st: &mut WorkerState,
    stream: TcpStream,
    chaos: Option<&Arc<Mutex<ChaosState>>>,
) -> SessionEnd {
    let _ = stream.set_nodelay(true);
    if let Err(e) = stream.set_read_timeout(Some(Duration::from_millis(250))) {
        return SessionEnd::Lost(format!("set_read_timeout: {e}"));
    }
    let raw = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => return SessionEnd::Lost(format!("cloning stream: {e}")),
    };
    let writer: SharedWriter = Arc::new(Mutex::new(match chaos {
        Some(state) => Box::new(ChaosStream::new(raw, Arc::clone(state))),
        None => Box::new(raw),
    }));
    let mut reader = FrameReader::new(stream);

    // Greeting: the campaign by value, plus solo pre-seed records.
    let hello = match recv(&mut reader, cfg.reply_timeout, &mut st.summary.wire_faults) {
        Recv::Msg(m) => m,
        Recv::Closed(why) => return SessionEnd::Lost(format!("before hello: {why}")),
        Recv::Timeout => return SessionEnd::Lost("no hello within the reply timeout".into()),
    };
    let (fp, lease_ms, campaign, solo) = match hello {
        Msg::Hello { fp, lease_ms, campaign, solo } => (fp, lease_ms, campaign, solo),
        other => return SessionEnd::Fatal(format!("expected hello, got {other:?}")),
    };
    match st.fp {
        // A coordinator restart must resume the *same* campaign; cells we
        // already journaled belong to the old fingerprint.
        Some(known) if known != fp => {
            return SessionEnd::Fatal(format!(
                "coordinator now offers campaign {fp:016x}, but this worker was \
                 computing {known:016x}; dismissing myself"
            ))
        }
        _ => st.fp = Some(fp),
    }
    if st.study.is_none() {
        let mut seeds = Vec::with_capacity(solo.len());
        for line in &solo {
            match parse_record(line) {
                Ok((key, outcome)) => seeds.push((key, Arc::new(outcome))),
                Err(e) => eprintln!("worker {}: dropping bad solo record: {e}", cfg.label),
            }
        }
        if let Err(e) = store.merge_records(seeds) {
            return SessionEnd::Fatal(e.to_string());
        }
        let mut study = match campaign.build_study(Some(store.clone())) {
            Ok(s) => s,
            Err(e) => return SessionEnd::Fatal(e),
        };
        if let Some((fg, bg, succeed_from)) = &cfg.chaos_cell {
            study = study.with_chaos_cell(fg, bg, *succeed_from);
        }
        st.names = campaign.names.clone();
        st.study = Some(study);
    }

    // Heartbeat thread: extends whichever lease is current. Writes share
    // the frame writer's mutex, so heartbeats never interleave with a
    // result frame. Per-session: it dies with this connection.
    let current_lease = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let beat = {
        let writer = Arc::clone(&writer);
        let current_lease = Arc::clone(&current_lease);
        let stop = Arc::clone(&stop);
        let interval = Duration::from_millis((lease_ms / 3).max(100));
        std::thread::spawn(move || {
            let mut slept = Duration::ZERO;
            loop {
                std::thread::sleep(Duration::from_millis(50));
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                slept += Duration::from_millis(50);
                if slept < interval {
                    continue;
                }
                slept = Duration::ZERO;
                let lease = current_lease.load(Ordering::Relaxed);
                if lease != 0 {
                    let _ = send_to(&writer, &Msg::Heartbeat { lease });
                }
            }
        })
    };

    let end = session_loop(cfg, store, st, &writer, &mut reader, &current_lease);
    stop.store(true, Ordering::Relaxed);
    let _ = beat.join();
    end
}

/// The claim/compute/report loop of one established session.
fn session_loop(
    cfg: &WorkerConfig,
    store: &RunStore,
    st: &mut WorkerState,
    writer: &SharedWriter,
    reader: &mut FrameReader<TcpStream>,
    current_lease: &AtomicU64,
) -> SessionEnd {
    let WorkerState { fp, study, names, pending, session, summary } = st;
    let fp = fp.expect("hello recorded the fingerprint");
    let study = study.as_ref().expect("hello built the study");

    // Resend the result the previous session never got acknowledged —
    // idempotent: the coordinator dismisses it if the cell settled
    // meanwhile, and the records dedup by content either way.
    if let Some(p) = pending.clone() {
        eprintln!(
            "fabric: worker {} resending unacknowledged result for cell ({}, {})",
            cfg.label, p.cell.fg, p.cell.bg
        );
        let msg = Msg::Result {
            lease: p.lease,
            cell: p.cell,
            outcome: p.outcome,
            records: p.records,
        };
        if !send_to(writer, &msg) {
            return SessionEnd::Lost("resending unacknowledged result".into());
        }
        match await_ack(reader, cfg.reply_timeout, &mut summary.wire_faults) {
            AckEnd::Acked => *pending = None,
            AckEnd::End(end) => return end,
        }
    }

    loop {
        let claim = Msg::Claim {
            fp,
            worker: cfg.label.clone(),
            session: *session,
            faults: summary.wire_faults,
        };
        if !send_to(writer, &claim) {
            return SessionEnd::Lost("sending claim".into());
        }
        let reply = loop {
            match recv(reader, cfg.reply_timeout, &mut summary.wire_faults) {
                // A stray ack (e.g. the echo of a chaos-duplicated result
                // frame) is not the claim reply; keep waiting.
                Recv::Msg(Msg::Ack) => continue,
                Recv::Msg(m) => break m,
                Recv::Closed(why) => return SessionEnd::Lost(why),
                Recv::Timeout => {
                    return SessionEnd::Lost("no reply to claim (reply timeout)".into())
                }
            }
        };
        match reply {
            Msg::Done => return SessionEnd::Dismissed,
            Msg::Wait { ms } => std::thread::sleep(Duration::from_millis(ms.min(1000))),
            Msg::Lease { id, cells, .. } => {
                summary.leases += 1;
                current_lease.store(id, Ordering::Relaxed);
                for cell in cells {
                    let (Some(fg), Some(bg)) = (names.get(cell.fg), names.get(cell.bg))
                    else {
                        return SessionEnd::Fatal(format!(
                            "lease cell ({}, {}) out of range for {} names",
                            cell.fg,
                            cell.bg,
                            names.len()
                        ));
                    };
                    apply_worker_chaos(cfg, current_lease, fg, bg, cell);
                    let computed = catch_unwind(AssertUnwindSafe(|| {
                        Heatmap::measure_cell(study, fg, bg, cell.attempt)
                    }));
                    let outcome = match computed {
                        Ok((value, status)) => {
                            summary.cells += 1;
                            CellOutcome::Value { value, status }
                        }
                        Err(e) => {
                            summary.panics += 1;
                            CellOutcome::Panic { cause: panic_message(e.as_ref()) }
                        }
                    };
                    let records = cell_records(study, store, fg, bg, cell.attempt);
                    *pending = Some(PendingResult {
                        lease: id,
                        cell,
                        outcome: outcome.clone(),
                        records: records.clone(),
                    });
                    if !send_to(writer, &Msg::Result { lease: id, cell, outcome, records }) {
                        return SessionEnd::Lost("sending result".into());
                    }
                    match await_ack(reader, cfg.reply_timeout, &mut summary.wire_faults) {
                        AckEnd::Acked => *pending = None,
                        AckEnd::End(end) => return end,
                    }
                }
                current_lease.store(0, Ordering::Relaxed);
            }
            other => return SessionEnd::Lost(format!("unexpected message {other:?}")),
        }
    }
}

/// What [`await_ack`] concluded.
enum AckEnd {
    Acked,
    End(SessionEnd),
}

/// Waits for the ack of a just-sent result. Anything else ends the
/// session: `done` is dismissal, an unexpected frame means this link is
/// out of step (e.g. a buffered reply to a chaos-duplicated claim) and is
/// cheaper to re-establish than to re-synchronize.
fn await_ack(
    reader: &mut FrameReader<TcpStream>,
    deadline: Duration,
    wire_faults: &mut u64,
) -> AckEnd {
    match recv(reader, deadline, wire_faults) {
        Recv::Msg(Msg::Ack) => AckEnd::Acked,
        Recv::Msg(Msg::Done) => AckEnd::End(SessionEnd::Dismissed),
        Recv::Msg(other) => {
            AckEnd::End(SessionEnd::Lost(format!("expected ack, got {other:?}")))
        }
        Recv::Closed(why) => AckEnd::End(SessionEnd::Lost(why)),
        Recv::Timeout => {
            AckEnd::End(SessionEnd::Lost("result unacknowledged (reply timeout)".into()))
        }
    }
}

/// Fires the armed worker chaos if this is its trigger cell, first issue.
///
/// Only `issue == 0` triggers: the re-issued lease for the same cell must
/// compute normally, which is exactly the recovery the tests assert.
fn apply_worker_chaos(
    cfg: &WorkerConfig,
    current_lease: &AtomicU64,
    fg: &str,
    bg: &str,
    cell: WireCell,
) {
    if cell.issue != 0 {
        return;
    }
    match &cfg.chaos_worker {
        Some(WorkerChaos::Die { fg: cfg_fg, bg: cfg_bg }) if cfg_fg == fg && cfg_bg == bg => {
            eprintln!("chaos: worker {} dying on cell {fg}/{bg}", cfg.label);
            kill_self_hard();
            // Unreachable on unix; elsewhere fall through to an abort so
            // the test still observes a dead worker.
            std::process::abort();
        }
        Some(WorkerChaos::Hang { fg: cfg_fg, bg: cfg_bg }) if cfg_fg == fg && cfg_bg == bg => {
            eprintln!("chaos: worker {} hanging on cell {fg}/{bg}", cfg.label);
            // Silence the heartbeat so the lease genuinely expires, then
            // sleep out the campaign (the coordinator reaps us at exit —
            // or, for an in-process test worker, the thread just leaks).
            current_lease.store(0, Ordering::Relaxed);
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_grammar_parses() {
        assert_eq!(
            WorkerChaos::parse("die@G-CC/mcf").unwrap(),
            WorkerChaos::Die { fg: "G-CC".into(), bg: "mcf".into() }
        );
        assert_eq!(
            WorkerChaos::parse("hang@a/b").unwrap(),
            WorkerChaos::Hang { fg: "a".into(), bg: "b".into() }
        );
        assert!(WorkerChaos::parse("explode@a/b").is_err());
        assert!(WorkerChaos::parse("die@ab").is_err());
        assert!(WorkerChaos::parse("die").is_err());
    }

    #[test]
    fn connect_retry_gives_up_within_budget() {
        // Port 1 is never listening; the budget bounds the wait.
        let start = Instant::now();
        let err = connect_with_retry("127.0.0.1:1", Duration::from_millis(200)).unwrap_err();
        assert!(err.contains("connect"), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5), "took {:?}", start.elapsed());
    }
}
