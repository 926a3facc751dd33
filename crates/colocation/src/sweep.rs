//! Parallel sweep driver for independent simulations.
//!
//! Every cell of the 25 x 25 heatmap (and every point of the scalability
//! and sensitivity sweeps) is an independent simulation, so sweeps
//! parallelize across host cores with a simple work-stealing index queue.
//!
//! The driver is a *supervisor*, not just a thread pool: each cell runs
//! under `catch_unwind`, so one panicking simulation cannot take down the
//! other 624 cells of a heatmap (or poison the result slots — every lock
//! here is poison-tolerant). Failed cells are retried up to a policy
//! bound with the attempt number threaded into the cell function for
//! deterministic reseeding, and whatever still fails is returned as a
//! typed [`CellFailure`] instead of an unwind, leaving callers to decide
//! between holes-in-the-output (`--keep-going`) and stopping the sweep
//! (`--fail-fast`).
//!
//! Workers pin themselves round-robin onto the host CPUs the process is
//! allowed to run on (see [`affinity`]): sweep cells are themselves
//! timing-sensitive simulations, and keeping each worker on one core
//! avoids migration-induced wall-clock noise in the measured cells. Set
//! `COCHAR_NO_PIN` to leave scheduling to the OS.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks ignoring poison: slots hold plain data, and the panic that
/// poisoned a lock has already been converted to a [`CellFailure`].
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maps `f` over `items` under panic isolation with retries.
///
/// `spec_label(i, item)` names cell `i` for failure records;
/// `f(item, attempt)` runs one attempt (attempt 0 first); `on_done`
/// ticks after every *settled* cell — success or final failure, but not
/// fail-fast skips, so progress counts real work.
pub fn supervised_map<T, R, L, F, P>(
    items: &[T],
    policy: SweepPolicy,
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
    let done = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let run_cell = |i: usize, item: &T| -> Result<R, CellFailure> {
        let mut cause = String::new();
        let mut attempts = 0;
        for attempt in 0..=policy.max_retries {
            attempts = attempt + 1;
            match catch_unwind(AssertUnwindSafe(|| f(item, attempt))) {
                Ok(r) => return Ok(r),
                Err(payload) => cause = panic_message(payload),
            }
        }
        Err(CellFailure { index: i, spec: spec_label(i, item), cause, attempts })
    };
    let settle = |res: &Result<R, CellFailure>| {
        if res.is_err() && !policy.keep_going {
            stop.store(true, Ordering::Relaxed);
        }
        on_done(done.fetch_add(1, Ordering::Relaxed) + 1, total);
    };
    let skipped = |i: usize, item: &T| CellFailure {
        index: i,
        spec: spec_label(i, item),
        cause: "skipped (fail-fast)".to_string(),
        attempts: 0,
    };

    let workers = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(1)
        .min(total.max(1));
    if workers <= 1 || total <= 1 {
        let mut results = Vec::with_capacity(total);
        for (i, item) in items.iter().enumerate() {
            if stop.load(Ordering::Relaxed) {
                results.push(Err(skipped(i, item)));
                continue;
            }
            let res = run_cell(i, item);
            settle(&res);
            results.push(res);
        }
        return SweepReport { results };
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, CellFailure>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let cpus = if std::env::var_os("COCHAR_NO_PIN").is_none() {
        affinity::allowed_cpus()
    } else {
        Vec::new()
    };
    std::thread::scope(|s| {
        for w in 0..workers {
            let (stop, next, slots) = (&stop, &next, &slots);
            let (run_cell, settle) = (&run_cell, &settle);
            let cpus = &cpus;
            s.spawn(move || {
                if let Some(&cpu) = cpus.get(w % cpus.len().max(1)) {
                    // Best-effort: an unpinnable worker still sweeps.
                    affinity::pin_to(cpu);
                }
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let res = run_cell(i, &items[i]);
                    settle(&res);
                    *lock_tolerant(&slots[i]) = Some(res);
                }
            });
        }
    });
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            lock_tolerant(&m)
                .take()
                .unwrap_or_else(|| Err(skipped(i, &items[i])))
        })
        .collect();
    SweepReport { results }
}

/// Maps `f` over `items` using up to `available_parallelism` host threads,
/// preserving order. Falls back to sequential execution for small inputs.
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
        SweepPolicy::default(),
        |i, _| format!("cell {i}"),
        |item, _attempt| f(item),
        |_, _| {},
    )
    .unwrap_all()
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
    use super::*;

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
            SweepPolicy::default(),
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
            SweepPolicy { max_retries: 2, keep_going: true },
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
            SweepPolicy { max_retries: 1, keep_going: true },
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
            SweepPolicy { max_retries: 0, keep_going: false },
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
        // reaches the total — threaded, and on the one-cell sequential
        // path.
        for (len, every) in [(30u64, Some(3u64)), (53, None), (1, None)] {
            let ticks = AtomicUsize::new(0);
            let max_seen = AtomicUsize::new(0);
            let items: Vec<u64> = (0..len).collect();
            let report = supervised_map(
                &items,
                SweepPolicy::default(),
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
}
