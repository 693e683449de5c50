//! Scoped worker pool shared by `minidb`'s morsel-driven executor and
//! `neuro`'s conv/linear output-channel loops.
//!
//! The pool is `std::thread::scope`-based: each parallel region spawns up
//! to `workers - 1` helper threads that pull task indices from a shared
//! atomic counter (work stealing over a fixed task list) while the calling
//! thread works too, and joins them before returning. Results come back in
//! task order, so any operator that concatenates per-morsel outputs in
//! index order is deterministic regardless of scheduling.
//!
//! A process-wide default parallelism knob lets embedders (the collab
//! strategies, the bench harnesses) turn on kernel parallelism without
//! threading a configuration value through every call site; it defaults to
//! `1`, which runs every region inline on the calling thread.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static DEFAULT_PARALLELISM: AtomicUsize = AtomicUsize::new(1);

// Process-wide pool counters, exported through [`stats`] so the
// observability registry can report scheduler behavior without the pool
// depending on any other crate.
static REGIONS: AtomicU64 = AtomicU64::new(0);
static TASKS: AtomicU64 = AtomicU64::new(0);
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);
static PEAK_WORKERS: AtomicU64 = AtomicU64::new(0);
static CAUGHT_PANICS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Index of the pool worker driving this thread inside a parallel
    /// region: `0` for the calling thread, `1..` for spawned helpers.
    static WORKER_ID: Cell<u32> = const { Cell::new(0) };
}

/// The pool-worker index of the current thread within the innermost
/// parallel region (`0` outside any region or on the calling thread).
pub fn current_worker() -> u32 {
    WORKER_ID.with(Cell::get)
}

/// Cumulative scheduler counters since process start (or the last
/// [`reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel regions entered (including inline ones).
    pub regions: u64,
    /// Tasks executed across all regions.
    pub tasks: u64,
    /// Summed wall time spent inside task closures, in nanoseconds.
    pub busy_nanos: u64,
    /// Largest worker count any region ran with.
    pub peak_workers: u64,
    /// Worker panics caught by the `try_run_*` entry points and turned
    /// into typed errors.
    pub caught_panics: u64,
}

impl PoolStats {
    /// Busy time as a [`Duration`].
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos)
    }
}

/// Snapshot of the process-wide pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        regions: REGIONS.load(Ordering::Relaxed),
        tasks: TASKS.load(Ordering::Relaxed),
        busy_nanos: BUSY_NANOS.load(Ordering::Relaxed),
        peak_workers: PEAK_WORKERS.load(Ordering::Relaxed),
        caught_panics: CAUGHT_PANICS.load(Ordering::Relaxed),
    }
}

/// Zeroes the process-wide pool counters (benches isolating a phase).
pub fn reset_stats() {
    REGIONS.store(0, Ordering::Relaxed);
    TASKS.store(0, Ordering::Relaxed);
    BUSY_NANOS.store(0, Ordering::Relaxed);
    PEAK_WORKERS.store(0, Ordering::Relaxed);
    CAUGHT_PANICS.store(0, Ordering::Relaxed);
}

fn note_region(workers: u64, tasks: u64) {
    REGIONS.fetch_add(1, Ordering::Relaxed);
    TASKS.fetch_add(tasks, Ordering::Relaxed);
    PEAK_WORKERS.fetch_max(workers, Ordering::Relaxed);
}

/// The process-wide default worker count consulted by kernels that have no
/// per-call configuration (e.g. `neuro`'s conv loops). Starts at `1`.
pub fn default_parallelism() -> usize {
    DEFAULT_PARALLELISM.load(Ordering::Relaxed)
}

/// Sets the process-wide default worker count. `0` is clamped to `1`.
pub fn set_default_parallelism(workers: usize) {
    DEFAULT_PARALLELISM.store(workers.max(1), Ordering::Relaxed);
}

/// The hardware thread count, with a fallback of 1.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `0..n` into ranges of at most `chunk` elements (the executor's
/// morsels, a kernel's output-channel blocks). `chunk == 0` is clamped
/// to 1; `n == 0` yields no ranges.
pub fn split_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    let mut out = Vec::with_capacity(n.div_ceil(chunk));
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

/// Runs `f(0), f(1), ..., f(tasks - 1)` on up to `workers` threads and
/// returns the results in task order.
///
/// With `workers <= 1` or fewer than two tasks everything runs inline on
/// the calling thread, in index order. Otherwise scoped threads pull
/// indices from a shared counter. A panic in any task is re-raised on the
/// calling thread, with its original payload, once the region has joined.
pub fn run_indexed<T, F>(workers: usize, tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    region(workers, tasks, f).unwrap_or_else(|payload| resume_unwind(payload))
}

/// A worker panic caught by [`try_run_indexed`], carrying the panic
/// message. The pool itself stays fully usable afterwards — each region
/// joins its scoped threads before returning, so nothing is poisoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicError {
    /// The panic payload, when it was a string; a placeholder otherwise.
    pub message: String,
}

impl fmt::Display for PanicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for PanicError {}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Panic-safe [`run_indexed`]: a panic in any task is caught, the other
/// workers stop claiming tasks, the scope joins cleanly, and the first
/// panic comes back as a typed [`PanicError`] instead of unwinding
/// through (or hanging) the caller.
pub fn try_run_indexed<T, F>(workers: usize, tasks: usize, f: F) -> Result<Vec<T>, PanicError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    region(workers, tasks, f).map_err(|payload| {
        CAUGHT_PANICS.fetch_add(1, Ordering::Relaxed);
        PanicError { message: panic_message(payload) }
    })
}

/// [`try_run_indexed`] over explicit ranges: runs `f` once per range,
/// returning results in range order.
pub fn try_run_ranges<T, F>(
    workers: usize,
    ranges: &[Range<usize>],
    f: F,
) -> Result<Vec<T>, PanicError>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    try_run_indexed(workers, ranges.len(), |i| f(ranges[i].clone()))
}

/// The one scheduler loop behind [`try_run_indexed`] and a multi-worker
/// [`run_indexed`]: runs the tasks, inline or on scoped threads, catching
/// panics, and returns their results in task order or the payload of the
/// first task that panicked. After a panic no worker claims another task.
fn region<T, F>(workers: usize, tasks: usize, f: F) -> Result<Vec<T>, Box<dyn Any + Send>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // One `catch_unwind` around a whole loop of tasks, inline or per
    // worker, not around each task: wrapped per task, `f` stopped being
    // inlined into the loop and `neuro`'s conv kernels ran up to 8% slower.
    if workers <= 1 || tasks <= 1 {
        note_region(1, tasks as u64);
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| (0..tasks).map(&f).collect()));
        BUSY_NANOS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        return out;
    }
    let threads = workers.min(tasks);
    note_region(threads as u64, tasks as u64);
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let work = |busy: &mut u64| {
        while !failed.load(Ordering::Acquire) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            let start = Instant::now();
            let value = f(i);
            *busy += start.elapsed().as_nanos() as u64;
            *slots[i].lock().expect("result slot poisoned") = Some(value);
        }
    };
    let guarded = || {
        let mut busy = 0u64;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(&mut busy))) {
            first_panic.lock().expect("panic slot poisoned").get_or_insert(payload);
            failed.store(true, Ordering::Release);
        }
        BUSY_NANOS.fetch_add(busy, Ordering::Relaxed);
    };
    std::thread::scope(|scope| {
        let guarded = &guarded;
        for w in 1..threads {
            scope.spawn(move || {
                WORKER_ID.with(|id| id.set(w as u32));
                guarded();
            });
        }
        guarded();
    });
    if let Some(payload) = first_panic.into_inner().expect("panic slot poisoned") {
        return Err(payload);
    }
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task index was claimed and completed")
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that run pool regions. `stats()` counts over
    /// the whole process and the test harness runs tests on parallel
    /// threads, so a test asserting exact deltas must not overlap another
    /// test's regions.
    fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn split_covers_everything_in_order() {
        assert_eq!(split_ranges(0, 4), vec![]);
        assert_eq!(split_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(split_ranges(4, 4), vec![0..4]);
        assert_eq!(split_ranges(3, 0), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn run_indexed_preserves_task_order() {
        let _pool = pool_lock();
        for workers in [1, 2, 8] {
            let out = run_indexed(workers, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn default_parallelism_roundtrip() {
        assert!(default_parallelism() >= 1);
        set_default_parallelism(3);
        assert_eq!(default_parallelism(), 3);
        set_default_parallelism(0);
        assert_eq!(default_parallelism(), 1);
        set_default_parallelism(1);
    }

    #[test]
    fn stats_count_regions_tasks_and_workers() {
        let _pool = pool_lock();
        let before = stats();
        let ids = run_indexed(4, 64, |_| current_worker());
        let after = stats();
        assert_eq!(after.regions, before.regions + 1);
        assert_eq!(after.tasks, before.tasks + 64);
        assert!(after.peak_workers >= 4);
        assert!(ids.iter().all(|&w| (w as usize) < 4));
        // The calling thread keeps worker id 0 outside regions.
        assert_eq!(current_worker(), 0);
    }

    #[test]
    fn try_run_catches_panics_and_pool_stays_usable() {
        let _pool = pool_lock();
        for workers in [1, 2, 8] {
            let before = stats().caught_panics;
            let err = try_run_indexed(workers, 64, |i| {
                if i == 17 {
                    panic!("injected morsel failure");
                }
                i * 2
            })
            .unwrap_err();
            assert!(err.message.contains("injected morsel failure"), "{err}");
            assert_eq!(stats().caught_panics, before + 1);
            // The pool is immediately reusable after a caught panic.
            let ok = try_run_indexed(workers, 16, |i| i + 1).unwrap();
            assert_eq!(ok, (1..=16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_run_ranges_matches_sequential_on_success() {
        let _pool = pool_lock();
        let ranges = split_ranges(500, 32);
        let serial: Vec<usize> = ranges.iter().map(|r| r.clone().sum()).collect();
        let parallel = try_run_ranges(4, &ranges, |r| r.sum::<usize>()).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn panics_propagate() {
        let _pool = pool_lock();
        for workers in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_indexed(workers, 8, |i| {
                    if i == 5 {
                        panic!("boom");
                    }
                    i
                })
            });
            // The task's own payload reaches the caller.
            let payload = caught.unwrap_err();
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"), "workers={workers}");
        }
    }
}
