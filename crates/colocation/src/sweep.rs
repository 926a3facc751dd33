//! Parallel sweep driver for independent simulations.
//!
//! Every cell of the 25 x 25 heatmap (and every point of the scalability
//! and sensitivity sweeps) is a simulation of its own. The campaign
//! rules live in one type, the [`Supervisor`]: the cell queue, the cells
//! held behind a prerequisite, the [`SweepPolicy`] retry budget (with the
//! attempt number threaded into the cell function for deterministic
//! reseeding), the final [`CellFailure`], the fail-fast skip of unclaimed
//! cells, and the settle-once check. Two executors drive it:
//! [`supervised_map`], a pool of host threads that runs each cell under
//! `catch_unwind` — so one panicking simulation cannot take down the
//! other 624 cells of a heatmap — and the distributed fabric's
//! coordinator. Failures come back as data, leaving callers to decide
//! between holes in the output (`--keep-going`) and stopping the sweep
//! (`--fail-fast`).
//!
//! Executors pin slot `i` to the `i`-th CPU the process is allowed to
//! run on, round-robin ([`pin_slot`]): sweep cells are themselves
//! timing-sensitive simulations, and keeping each worker on one core
//! avoids migration-induced wall-clock noise in the measured cells. Set
//! `COCHAR_NO_PIN` to leave scheduling to the OS.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// One cell that exhausted its attempts (or was skipped by fail-fast).
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// Position of the cell in the input slice.
    pub index: usize,
    /// Human-readable cell label (e.g. `"fluidanimate/stream"`).
    pub spec: String,
    /// The final panic message, or a skip marker.
    pub cause: String,
    /// Attempts actually made (0 when skipped by fail-fast).
    pub attempts: u32,
}

/// Failure-handling policy for a supervised sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPolicy {
    /// Retries after the first failed attempt (so a cell runs at most
    /// `max_retries + 1` times). The attempt index reaches the cell
    /// function, which is expected to reseed deterministically.
    pub max_retries: u32,
    /// With `true` (the default), a failed cell becomes a hole and the
    /// sweep continues; with `false`, remaining unclaimed cells are
    /// skipped once any cell fails.
    pub keep_going: bool,
}

impl Default for SweepPolicy {
    fn default() -> Self {
        SweepPolicy { max_retries: 0, keep_going: true }
    }
}

/// The outcome of a supervised sweep: one slot per input, in input order.
#[derive(Debug)]
pub struct SweepReport<R> {
    /// Per-cell results; `Err` cells exhausted their attempts or were
    /// skipped by fail-fast.
    pub results: Vec<Result<R, CellFailure>>,
}

impl<R> SweepReport<R> {
    /// The failed cells, in input order.
    pub fn failures(&self) -> Vec<&CellFailure> {
        self.results.iter().filter_map(|r| r.as_ref().err()).collect()
    }

    /// Number of failed cells.
    pub fn failure_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }

    /// Unwraps every cell, panicking with the first failure's cause.
    ///
    /// This restores pre-supervisor semantics for callers that treat any
    /// failure as fatal — but only *after* the sweep completed, so cells
    /// that succeeded have already been journaled to the run store.
    pub fn unwrap_all(self) -> Vec<R> {
        self.results
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(f) => panic!(
                    "sweep cell {} failed after {} attempt(s): {}",
                    f.spec, f.attempts, f.cause
                ),
            })
            .collect()
    }
}

/// Renders an unwind payload; panics almost always carry a message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One unit of work handed out by a [`Supervisor`]: run cell `index` as
/// retry `attempt`, on its `issue`-th delivery (re-deliveries follow a
/// lost executor, e.g. a fabric lease that expired).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket {
    /// Position of the cell in the campaign.
    pub index: usize,
    /// Retry number; the cell function reseeds from it.
    pub attempt: u32,
    /// Times this attempt was handed out before, without a report.
    pub issue: u32,
}

/// What a report did to its cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reported {
    /// The cell settled (a value or its final failure): the progress
    /// count of cells settled so far.
    Settled(usize),
    /// Queued again, as `attempt + 1` after a failure or `issue + 1`
    /// after a loss.
    Requeued,
    /// A lost ticket's cell was skipped under fail-fast (not progress).
    Skipped,
    /// The cell had already settled, or the ticket was superseded.
    Dismissed,
}

#[derive(Debug)]
enum Slot<R> {
    /// Unsettled; holds the cell's newest ticket.
    Open(Ticket),
    Done(R),
    Failed { cause: String, attempts: u32 },
}

/// The campaign rules, shared by every executor: which cell runs next,
/// what a failure or a lost ticket does to it, and when it has settled.
///
/// Each cell settles exactly once. A cell is handed out as at most
/// `max_retries + 1` attempts, and each attempt at most `max_issues + 1`
/// times (issues `0..=max_issues`). Failures and losses are honoured
/// only for the cell's newest ticket, so a late report from a superseded
/// ticket never queues a second copy of a cell; a late *value* still
/// settles an open cell, since every attempt is deterministic.
///
/// A cell may name another cell as its prerequisite (its *gate*): it is
/// held, not handed out, until the gate settles, with a value or a final
/// failure. Fail-fast skips held cells like queued ones.
#[derive(Debug)]
pub struct Supervisor<R> {
    policy: SweepPolicy,
    queue: VecDeque<Ticket>,
    slots: Vec<Slot<R>>,
    /// The cells each cell gates, queued when it settles.
    held: Vec<Vec<usize>>,
    /// Cells settled by a value or a final failure (progress).
    completed: usize,
    /// Cells skipped by fail-fast.
    skipped: usize,
    /// Fail-fast fired: the queue was drained, and nothing is requeued.
    stopped: bool,
}

impl<R> Supervisor<R> {
    /// A campaign of `gates.len()` cells, all at attempt 0: cell `k` is
    /// queued in order when `gates[k]` is `None`, else held until cell
    /// `gates[k]` settles. The gates must not form a cycle, or the cells
    /// on it are never handed out.
    pub fn new(gates: Vec<Option<usize>>, policy: SweepPolicy) -> Self {
        let total = gates.len();
        let mut queue = VecDeque::new();
        let mut held = vec![Vec::new(); total];
        for (index, gate) in gates.into_iter().enumerate() {
            match gate {
                None => queue.push_back(Ticket { index, attempt: 0, issue: 0 }),
                Some(g) => held[g].push(index),
            }
        }
        let slots =
            (0..total).map(|index| Slot::Open(Ticket { index, attempt: 0, issue: 0 })).collect();
        Supervisor { policy, queue, slots, held, completed: 0, skipped: 0, stopped: false }
    }

    /// The next ticket to run, if any. `None` once the queue is empty
    /// (other tickets may still be out), which fail-fast makes it for
    /// good. Cells settled while queued are passed over.
    pub fn take(&mut self) -> Option<Ticket> {
        while let Some(t) = self.queue.pop_front() {
            if matches!(self.slots[t.index], Slot::Open(_)) {
                return Some(t);
            }
        }
        None
    }

    /// Cells not yet settled; the campaign is over at 0.
    pub fn unsettled(&self) -> usize {
        self.slots.len() - self.completed - self.skipped
    }

    /// Cell `index` computed `value` (from any of its tickets).
    pub fn succeed(&mut self, index: usize, value: R) -> Reported {
        if !matches!(self.slots[index], Slot::Open(_)) {
            return Reported::Dismissed;
        }
        self.slots[index] = Slot::Done(value);
        self.completed += 1;
        self.release(index);
        Reported::Settled(self.completed)
    }

    /// Ticket `t` failed with `cause`: retried while the policy allows
    /// (and fail-fast has not fired), else the cell's final failure.
    pub fn fail(&mut self, t: Ticket, cause: String) -> Reported {
        if !self.is_current(t) {
            return Reported::Dismissed;
        }
        if t.attempt < self.policy.max_retries && !self.stopped {
            self.requeue(Ticket { attempt: t.attempt + 1, ..t })
        } else {
            self.settle_failure(t.index, cause, t.attempt + 1)
        }
    }

    /// Ticket `t` was handed out but its executor vanished without a
    /// report: it goes out again as `issue + 1`, unless that would exceed
    /// `max_issues`, in which case the cell fails with a delivery error.
    pub fn lose(&mut self, t: Ticket, max_issues: u32) -> Reported {
        if !self.is_current(t) {
            return Reported::Dismissed;
        }
        let issue = t.issue + 1;
        if issue > max_issues {
            let cause = format!("lease lost {issue} times without a result (workers dying?)");
            self.settle_failure(t.index, cause, t.attempt)
        } else if self.stopped {
            self.skip(t.index);
            Reported::Skipped
        } else {
            self.requeue(Ticket { issue, ..t })
        }
    }

    /// The per-cell results in cell order; `label(index)` names failed
    /// cells.
    pub fn into_report(self, label: impl Fn(usize) -> String) -> SweepReport<R> {
        let results = self
            .slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                let (cause, attempts) = match slot {
                    Slot::Done(v) => return Ok(v),
                    Slot::Failed { cause, attempts } => (cause, attempts),
                    Slot::Open(_) => ("never settled".to_string(), 0),
                };
                Err(CellFailure { index, spec: label(index), cause, attempts })
            })
            .collect();
        SweepReport { results }
    }

    fn is_current(&self, t: Ticket) -> bool {
        matches!(self.slots[t.index], Slot::Open(current) if current == t)
    }

    fn requeue(&mut self, t: Ticket) -> Reported {
        self.slots[t.index] = Slot::Open(t);
        self.queue.push_back(t);
        Reported::Requeued
    }

    fn skip(&mut self, index: usize) {
        if matches!(self.slots[index], Slot::Open(_)) {
            self.slots[index] =
                Slot::Failed { cause: "skipped (fail-fast)".to_string(), attempts: 0 };
            self.skipped += 1;
        }
    }

    /// Queues the cells `gate` held, now that it has settled, in order at
    /// the front: they were next in line when the gate was handed out,
    /// and sending them to the back would run a slow gate's (often slow)
    /// cells last, as the campaign's tail.
    fn release(&mut self, gate: usize) {
        for index in std::mem::take(&mut self.held[gate]).into_iter().rev() {
            if let Slot::Open(t) = self.slots[index] {
                self.queue.push_front(t);
            }
        }
    }

    /// Records a final failure; under fail-fast, stops the campaign and
    /// skips every queued and held cell.
    fn settle_failure(&mut self, index: usize, cause: String, attempts: u32) -> Reported {
        self.slots[index] = Slot::Failed { cause, attempts };
        self.completed += 1;
        self.release(index);
        if !self.policy.keep_going {
            self.stopped = true;
            let held: Vec<usize> = self.held.iter_mut().flat_map(std::mem::take).collect();
            let queued = std::mem::take(&mut self.queue).into_iter().map(|t| t.index);
            for index in queued.chain(held) {
                self.skip(index);
            }
        }
        Reported::Settled(self.completed)
    }
}

/// Locks ignoring poison: the supervisor is updated in single calls that
/// leave it valid, and a panic inside a cell is caught before it could
/// poison anything.
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wakes the waiting pool threads when its thread leaves the pool, by
/// unwinding too: a panic outside a cell (in `on_done`, say) poisons the
/// supervisor, and the woken threads then leave instead of waiting for a
/// report that never comes.
struct WakeOnExit<'a>(&'a Condvar);

impl Drop for WakeOnExit<'_> {
    fn drop(&mut self) {
        self.0.notify_all();
    }
}

/// Maps `f` over `items` under panic isolation with retries, on a pool
/// of up to `available_parallelism` pinned threads driving `sup`, a
/// campaign of `items.len()` cells.
///
/// `spec_label(i, item)` names cell `i` for failure records;
/// `f(item, attempt)` runs one attempt (attempt 0 first); `on_done`
/// ticks after every *settled* cell — success or final failure, but not
/// fail-fast skips, so progress counts real work. Ticks arrive in order.
pub fn supervised_map<T, R, L, F, P>(
    items: &[T],
    sup: Supervisor<R>,
    spec_label: L,
    f: F,
    on_done: P,
) -> SweepReport<R>
where
    T: Sync,
    R: Send,
    L: Fn(usize, &T) -> String + Sync,
    F: Fn(&T, u32) -> R + Sync,
    P: Fn(usize, usize) + Sync,
{
    let total = items.len();
    assert_eq!(sup.slots.len(), total, "one supervisor cell per item");
    let sup = Mutex::new(sup);
    // Signalled after every report: a settled gate or a requeue may have
    // queued work, and the last settlement ends the campaign.
    let reported = Condvar::new();
    let threads = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(1)
        .min(total.max(1));
    std::thread::scope(|s| {
        for slot in 0..threads {
            let (sup, reported, f, on_done) = (&sup, &reported, &f, &on_done);
            s.spawn(move || {
                // Best-effort: an unpinnable thread still sweeps.
                pin_slot(slot);
                // A thread with nothing to take waits rather than leaves
                // while cells are unsettled: held cells are released
                // only when their gate settles, and a whole released row
                // must not fall to one thread.
                let _wake = WakeOnExit(reported);
                let mut guard = lock_tolerant(sup);
                while guard.unsettled() > 0 && !sup.is_poisoned() {
                    let Some(t) = guard.take() else {
                        guard = reported.wait(guard).unwrap_or_else(PoisonError::into_inner);
                        continue;
                    };
                    drop(guard);
                    let run = catch_unwind(AssertUnwindSafe(|| f(&items[t.index], t.attempt)));
                    guard = lock_tolerant(sup);
                    let outcome = match run {
                        Ok(r) => guard.succeed(t.index, r),
                        Err(payload) => guard.fail(t, panic_message(payload.as_ref())),
                    };
                    if let Reported::Settled(done) = outcome {
                        on_done(done, total);
                    }
                    reported.notify_all();
                }
            });
        }
    });
    sup.into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_report(|i| spec_label(i, &items[i]))
}

/// Maps `f` over `items` using up to `available_parallelism` host threads,
/// preserving order.
///
/// A panicking item still fails the whole map (callers of this simple
/// API expect infallible cells), but only after every other cell has
/// settled — completed cells reach the run store either way.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    supervised_map(
        items,
        Supervisor::new(vec![None; items.len()], SweepPolicy::default()),
        |i, _| format!("cell {i}"),
        |item, _attempt| f(item),
        |_, _| {},
    )
    .unwrap_all()
}

/// Pins the calling thread for executor slot `slot` (a pool thread's or
/// a fabric worker's number) to the `slot % len`-th CPU the thread may
/// run on, so every executor spreads over the allowed cpuset the same
/// way. Returns the CPU, or `None` when nothing was pinned — including
/// under `COCHAR_NO_PIN`, which leaves scheduling to the OS.
pub fn pin_slot(slot: usize) -> Option<usize> {
    if std::env::var_os("COCHAR_NO_PIN").is_some() {
        return None;
    }
    let cpus = affinity::allowed_cpus();
    let cpu = *cpus.get(slot % cpus.len().max(1))?;
    affinity::pin_to(cpu).then_some(cpu)
}

/// Worker→CPU pinning through `sched_{get,set}affinity(2)`, declared
/// directly against the C library (the workspace deliberately carries no
/// `libc` crate). Best-effort everywhere: any failure — syscall error,
/// restricted cpuset, non-Linux host — degrades to unpinned workers.
#[cfg(target_os = "linux")]
pub mod affinity {
    /// Bits in a kernel `cpu_set_t` (glibc default: 1024 CPUs).
    const SET_WORDS: usize = 1024 / 64;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// CPU indices the calling process may run on, in ascending order.
    /// Empty when the query fails (callers then skip pinning).
    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; SET_WORDS];
        let rc = unsafe {
            sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr())
        };
        if rc != 0 {
            return Vec::new();
        }
        (0..SET_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    /// Pins the calling thread to `cpu`. Returns whether the kernel
    /// accepted the new mask.
    pub fn pin_to(cpu: usize) -> bool {
        if cpu >= SET_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; SET_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

/// Stub for non-Linux hosts: nothing is ever pinned.
#[cfg(not(target_os = "linux"))]
pub mod affinity {
    /// Always empty: pinning is unsupported here.
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    /// Always `false`: pinning is unsupported here.
    pub fn pin_to(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use proptest::prelude::*;

    use super::*;

    /// A campaign of `total` cells with no gates.
    fn flat<R>(total: usize, policy: SweepPolicy) -> Supervisor<R> {
        Supervisor::new(vec![None; total], policy)
    }

    /// On Linux the process must be allowed on at least one CPU, and
    /// pinning a thread to an allowed CPU must succeed. Run on a scratch
    /// thread so the pin does not outlive the test.
    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_to_an_allowed_cpu_succeeds() {
        let cpus = affinity::allowed_cpus();
        assert!(!cpus.is_empty(), "process has no allowed CPUs?");
        let first = cpus[0];
        let pinned = std::thread::spawn(move || affinity::pin_to(first))
            .join()
            .expect("pin thread panicked");
        assert!(pinned, "pinning to allowed CPU {first} failed");
        assert!(!affinity::pin_to(usize::MAX), "out-of-range CPU must be rejected");
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let items: Vec<u64> = vec![];
        let out = parallel_map(&items, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        let out = parallel_map(&[7], |&x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn heavy_closure_runs_once_per_item() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items: Vec<u64> = (0..37).collect();
        let out = parallel_map(&items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 37);
        assert_eq!(calls.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn one_panicking_cell_does_not_sink_the_sweep() {
        let items: Vec<u64> = (0..40).collect();
        let report = supervised_map(
            &items,
            flat(items.len(), SweepPolicy::default()),
            |_, &x| format!("item {x}"),
            |&x, _| {
                if x == 13 {
                    panic!("unlucky cell");
                }
                x * 2
            },
            |_, _| {},
        );
        assert_eq!(report.failure_count(), 1);
        let fail = report.failures()[0];
        assert_eq!((fail.index, fail.attempts), (13, 1));
        assert_eq!(fail.spec, "item 13");
        assert!(fail.cause.contains("unlucky"), "{}", fail.cause);
        for (i, r) in report.results.iter().enumerate() {
            if i != 13 {
                assert_eq!(*r.as_ref().unwrap(), items[i] * 2);
            }
        }
    }

    #[test]
    fn retries_rerun_the_cell_with_the_attempt_number() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let report = supervised_map(
            &[5u64],
            flat(1, SweepPolicy { max_retries: 2, keep_going: true }),
            |i, _| format!("cell {i}"),
            |&x, attempt| {
                calls.fetch_add(1, Ordering::Relaxed);
                if attempt < 2 {
                    panic!("flaky (attempt {attempt})");
                }
                x + u64::from(attempt)
            },
            |_, _| {},
        );
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(*report.results[0].as_ref().unwrap(), 7);
    }

    #[test]
    fn exhausted_retries_report_the_last_cause_and_attempt_count() {
        let report = supervised_map(
            &[1u64],
            flat(1, SweepPolicy { max_retries: 1, keep_going: true }),
            |i, _| format!("cell {i}"),
            |_, attempt| -> u64 { panic!("always broken (attempt {attempt})") },
            |_, _| {},
        );
        let fail = report.failures()[0];
        assert_eq!(fail.attempts, 2);
        assert!(fail.cause.contains("attempt 1"), "{}", fail.cause);
    }

    #[test]
    fn fail_fast_skips_unclaimed_cells() {
        // Every cell fails, so under fail-fast the sweep must stop early;
        // cells are either real failures (attempts 1) or skips
        // (attempts 0), never successes.
        let items: Vec<u64> = (0..200).collect();
        let report = supervised_map(
            &items,
            flat(items.len(), SweepPolicy { max_retries: 0, keep_going: false }),
            |i, _| format!("cell {i}"),
            |_, _| -> u64 { panic!("doomed") },
            |_, _| {},
        );
        assert_eq!(report.failure_count(), 200);
        let skipped = report
            .failures()
            .iter()
            .filter(|f| f.cause.contains("skipped"))
            .count();
        assert!(skipped > 0, "fail-fast never engaged over 200 doomed cells");
        for f in report.failures() {
            assert!(f.attempts <= 1);
        }
    }

    #[test]
    fn progress_ticks_count_failures_but_not_skips() {
        // (cells, failing cells as every n-th, or none): every settled
        // cell ticks once, and the running count stays in 1..=total and
        // reaches the total — on a full pool, and on a pool of one.
        for (len, every) in [(30u64, Some(3u64)), (53, None), (1, None)] {
            let ticks = AtomicUsize::new(0);
            let max_seen = AtomicUsize::new(0);
            let items: Vec<u64> = (0..len).collect();
            let report = supervised_map(
                &items,
                flat(items.len(), SweepPolicy::default()),
                |i, _| format!("cell {i}"),
                |&x, _| {
                    if every.is_some_and(|n| x % n == 0) {
                        panic!("every n-th");
                    }
                    x + 1
                },
                |completed, total| {
                    assert_eq!(total, items.len());
                    assert!(completed >= 1 && completed <= total);
                    ticks.fetch_add(1, Ordering::Relaxed);
                    max_seen.fetch_max(completed, Ordering::Relaxed);
                },
            );
            let failing = every.map_or(0, |n| len.div_ceil(n)) as usize;
            assert_eq!(report.failure_count(), failing, "{len} cells");
            assert_eq!(ticks.load(Ordering::Relaxed), items.len(), "every settled cell ticks");
            assert_eq!(max_seen.load(Ordering::Relaxed), items.len());
            for (r, &x) in report.results.iter().zip(&items) {
                if let Ok(v) = r {
                    assert_eq!(*v, x + 1);
                }
            }
        }
    }

    #[test]
    fn a_released_row_spreads_over_the_pool() {
        // Eight cells held behind one head, every cell ~20 ms: pool
        // threads that found nothing to take while the head ran must
        // still be there to share the released cells, not leave the row
        // to one thread.
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        let ran_on = Mutex::new(std::collections::HashSet::new());
        let gates = std::iter::once(None).chain([Some(0); 8]).collect();
        let items: Vec<u64> = (0..9).collect();
        let report = supervised_map(
            &items,
            Supervisor::new(gates, SweepPolicy::default()),
            |i, _| format!("cell {i}"),
            |&x, _| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                if x > 0 {
                    ran_on.lock().unwrap().insert(std::thread::current().id());
                }
                x
            },
            |_, _| {},
        );
        assert_eq!(report.unwrap_all(), items);
        let threads = ran_on.lock().unwrap().len();
        assert!(threads >= 2, "released cells ran on {threads} thread(s)");
    }

    #[test]
    #[should_panic]
    fn a_panic_outside_a_cell_ends_the_pool() {
        // Threads waiting on held cells must not outlive a pool thread
        // that panicked with the cells' head in hand: the sweep fails
        // instead of hanging.
        let gates = std::iter::once(None).chain([Some(0); 4]).collect();
        let items: Vec<u64> = (0..5).collect();
        let _ = supervised_map(
            &items,
            Supervisor::new(gates, SweepPolicy::default()),
            |i, _| format!("cell {i}"),
            |&x, _| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                x
            },
            |_, _| panic!("progress callback"),
        );
    }

    #[test]
    #[should_panic(expected = "sweep cell cell 3 failed")]
    fn simple_api_still_fails_loudly_on_a_panicking_cell() {
        let items: Vec<u64> = (0..8).collect();
        let _ = parallel_map(&items, |&x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }

    /// The value a drawn schedule's "success" computes for ticket `t`.
    fn value(t: Ticket) -> u64 {
        t.index as u64 * 100 + u64::from(t.attempt)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The campaign rules under any interleaving an executor can
        /// produce, with no threads and no clocks, over cells that may be
        /// held behind a drawn prerequisite: steps take a ticket, report
        /// one handed-out ticket as a success, a panic or a lost lease,
        /// or replay an old report late (a resent or duplicated result).
        /// A final drain then succeeds everything still open.
        #[test]
        fn supervisor_settles_every_cell_once_under_any_schedule(
            total in 0usize..10,
            max_retries in 0u32..3,
            max_issues in 0u32..3,
            keep_going in any::<bool>(),
            gate_picks in prop::collection::vec(any::<u64>(), 10),
            steps in prop::collection::vec((0u8..5, any::<u64>()), 0..80),
        ) {
            // One prerequisite per cell, or none (a pick of `total`); a
            // gate's own gate is always `None`, so the gating is acyclic.
            let mut gates: Vec<Option<usize>> = vec![None; total];
            for k in 0..total {
                let g = (gate_picks[k] % (total as u64 + 1)) as usize;
                if g < total && g != k && gates[g].is_none() && !gates.contains(&Some(k)) {
                    gates[k] = Some(g);
                }
            }
            let mut sup: Supervisor<u64> =
                Supervisor::new(gates.clone(), SweepPolicy { max_retries, keep_going });
            let mut out: Vec<Ticket> = Vec::new(); // handed out, unreported
            let mut past: Vec<Ticket> = Vec::new(); // reported or lost
            let settles: Vec<Cell<usize>> = vec![Cell::new(0); total];
            let mut values: Vec<Option<u64>> = vec![None; total];
            let mut ticks = 0usize;
            let stopped = Cell::new(false); // fail-fast fired
            let mut held_at_stop: Vec<usize> = Vec::new();

            let take = |sup: &mut Supervisor<u64>, out: &mut Vec<Ticket>| {
                let t = sup.take();
                prop_assert!(t.is_none() || !stopped.get(), "{t:?} handed out after fail-fast");
                let t = t?;
                if let Some(g) = gates[t.index] {
                    prop_assert_eq!(settles[g].get(), 1, "{:?} taken before gate {} settled", t, g);
                }
                prop_assert!(t.attempt <= max_retries, "{t:?} past the retry budget");
                prop_assert!(t.issue <= max_issues, "{t:?} past the issue budget");
                prop_assert!(!out.contains(&t), "{t:?} handed out twice");
                out.push(t);
                Some(t)
            };
            let mut observe = |r: Reported, t: Ticket, value: Option<u64>| match r {
                Reported::Settled(n) => {
                    ticks += 1;
                    prop_assert_eq!(n, ticks, "progress counts settlements in order");
                    let cell = &settles[t.index];
                    cell.set(cell.get() + 1);
                    prop_assert_eq!(cell.get(), 1, "cell {} settled twice", t.index);
                    values[t.index] = value;
                    if value.is_none() && !keep_going && !stopped.replace(true) {
                        held_at_stop = (0..total)
                            .filter(|&k| gates[k].is_some_and(|g| settles[g].get() == 0))
                            .collect();
                    }
                }
                Reported::Requeued => prop_assert_eq!(settles[t.index].get(), 0),
                Reported::Skipped => prop_assert!(!keep_going),
                Reported::Dismissed => {}
            };

            for &(kind, pick) in &steps {
                if kind == 0 {
                    take(&mut sup, &mut out);
                    continue;
                }
                if kind == 4 {
                    // A late duplicate of an earlier report.
                    if past.is_empty() {
                        continue;
                    }
                    let t = past[pick as usize % past.len()];
                    if pick % 2 == 0 {
                        observe(sup.succeed(t.index, value(t)), t, Some(value(t)));
                    } else {
                        observe(sup.fail(t, "late panic".into()), t, None);
                    }
                    continue;
                }
                if out.is_empty() {
                    continue;
                }
                let t = out.swap_remove(pick as usize % out.len());
                past.push(t);
                match kind {
                    1 => observe(sup.succeed(t.index, value(t)), t, Some(value(t))),
                    2 => observe(sup.fail(t, format!("panic {}", t.attempt)), t, None),
                    _ => observe(sup.lose(t, max_issues), t, None),
                }
            }
            while sup.unsettled() > 0 {
                if take(&mut sup, &mut out).is_none() {
                    let t = out.pop().expect("open cells, yet nothing queued or handed out");
                    observe(sup.succeed(t.index, value(t)), t, Some(value(t)));
                }
            }

            let report = sup.into_report(|i| format!("cell {i}"));
            prop_assert_eq!(report.results.len(), total);
            let mut skips = 0;
            for (i, r) in report.results.iter().enumerate() {
                let skipped = matches!(r, Err(f) if f.cause == "skipped (fail-fast)");
                prop_assert!(skipped || !held_at_stop.contains(&i), "held cell {} not skipped", i);
                match r {
                    Ok(v) => {
                        prop_assert_eq!(settles[i].get(), 1);
                        prop_assert_eq!(values[i], Some(*v), "cell {} kept its first value", i);
                    }
                    Err(f) if skipped => {
                        prop_assert!(!keep_going && settles[i].get() == 0 && f.attempts == 0);
                        skips += 1;
                    }
                    Err(f) => {
                        prop_assert_eq!((f.index, settles[i].get()), (i, 1));
                        prop_assert!(f.attempts <= max_retries + 1, "{f:?}");
                    }
                }
            }
            prop_assert_eq!(ticks, total - skips, "skips are not progress");
        }
    }
}
