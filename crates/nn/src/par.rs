//! Data-parallel execution layer: deterministic row-chunked fan-out over a
//! pool of persistent worker threads, with zero external dependencies.
//!
//! # Determinism contract
//!
//! Every parallel routine in `cpsmon` is built on [`run_chunks`], which
//! guarantees **bit-identical results for every thread count**, including 1:
//!
//! 1. Work is split into chunks whose boundaries are a pure function of the
//!    input size and a *fixed* chunk size — never of the thread count.
//! 2. Each chunk is computed independently (workers pull chunk indices from
//!    an atomic counter, so *scheduling* is nondeterministic, but no chunk's
//!    result depends on another's).
//! 3. Results are merged in ascending chunk order.
//!
//! Consequently `CPSMON_THREADS=1` and `CPSMON_THREADS=32` produce the same
//! bits, and the observable effect of the thread count is wall-clock time
//! only. Row-independent maps (forward passes, softmax, FGSM sign steps) are
//! additionally bit-identical to the *unchunked* computation; chunked
//! gradient *accumulation* regroups floating-point sums, so training results
//! are pinned to the fixed chunk grid rather than to the legacy whole-batch
//! grouping (batches of at most [`GRAD_CHUNK`] rows take the legacy
//! single-chunk path unchanged).
//!
//! The contract is independent of the kernel backend ([`crate::simd`]):
//! both the scalar and the AVX2+FMA kernels compute each output element as
//! a pure function of its mathematical inputs (strictly `k`-ascending
//! accumulation, position-invariant tails), so chunk boundaries stay
//! invisible under either backend — thread invariance and backend choice
//! compose orthogonally.
//!
//! # Thread-count resolution
//!
//! [`max_threads`] reads the `CPSMON_THREADS` environment variable on every
//! call (a positive integer; invalid values are ignored) and falls back to
//! [`std::thread::available_parallelism`], which is resolved once per
//! process. Nested fan-outs run serially: a worker thread that reaches
//! another `run_chunks` call executes it inline, so grid-level parallelism
//! (robustness sweeps) composes with batch-level parallelism (chunked
//! prediction) without oversubscription.
//!
//! # Workers
//!
//! A fan-out over `t` threads is one job of `t` shares. It runs on the
//! calling thread and on up to `t − 1` of the pool's workers: threads
//! spawned the first time a fan-out needs that many and parked between
//! fan-outs, so a fan-out wakes threads instead of spawning them. The
//! caller queues its job, wakes workers, and then itself runs every share
//! that no worker has claimed, so it never waits for a worker that is busy
//! elsewhere; it returns once every share a worker claimed has finished.
//! Several threads may fan out at once: they share the workers, and none
//! waits on another's job. While the caller runs a share it counts as a
//! worker (nested fan-outs inline) until the share returns or unwinds. A
//! panicking share re-raises on the caller, after every other claimed
//! share has finished; the worker that ran it lives on.
//!
//! After each job a worker frees its thread-local GEMM scratch (pack
//! buffers and transpose buffer), as the short-lived threads it replaced
//! did on exit: kept across idle periods, those buffers pinned freed
//! memory in the worker's malloc arena. Between fan-outs a worker holds
//! its stack and whatever free memory its arena keeps.

use crate::matrix::Matrix;
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread};

/// Rows per chunk for parallel prediction (forward passes are
/// row-independent, so this affects scheduling granularity only).
pub const PREDICT_CHUNK: usize = 64;

/// Rows per chunk for parallel gradient accumulation. Gradients of batches
/// up to this size take the legacy single-chunk path bit-exactly.
pub const GRAD_CHUNK: usize = 64;

/// Rows per chunk for the pooled stateful LSTM step
/// ([`LstmNet::step_stream`](crate::LstmNet::step_stream)): each chunk runs
/// its whole layer stack as one work item. The step is row-independent,
/// so this affects scheduling granularity only. Every chunk reads the
/// panels each layer caches, so the chunk size does not change how much
/// packing a tick does; 256 rows gives a 1000-session tick four work
/// items.
pub const STEP_CHUNK: usize = 256;

thread_local! {
    /// Set while a thread runs a fan-out's worker share, so nested fan-outs
    /// run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Upper bound on worker threads for the next fan-out: `CPSMON_THREADS` if
/// set to a positive integer, else the machine's available parallelism.
/// Returns 1 inside a parallel worker (nested fan-outs are serial).
pub fn max_threads() -> usize {
    // `available_parallelism` reads cgroup files on Linux (tens of µs per
    // call), so it is resolved once; the variable is read on every call so
    // that `ThreadsGuard` keeps working.
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    if let Ok(v) = std::env::var("CPSMON_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Marks the current thread as running a worker share until dropped. The
/// drop restores the previous mark, also when the share unwinds, so a
/// panicking share cannot leave the calling thread pinned to one thread.
struct WorkerMark(bool);

impl WorkerMark {
    fn enter() -> Self {
        Self(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// A panic payload, as `catch_unwind` returns it.
type Panic = Box<dyn Any + Send>;

/// One fan-out as the workers see it: `shares` calls of `task`, each
/// claimed once by index.
struct Job {
    /// The fan-out's share body, lent by [`Job::lend`].
    task: *const (dyn Fn() + Sync),
    shares: usize,
    claimed: AtomicUsize,
    finished: AtomicUsize,
    /// The first panic of a share a worker ran.
    panic: Mutex<Option<Panic>>,
    /// The fan-out's calling thread, unparked when a worker finishes the
    /// last share.
    caller: Thread,
}

// SAFETY: `task` is the only field that is not `Send + Sync` by itself. It
// points at a `Sync` closure, so calling it from any thread is sound while
// the closure lives, and `Job::lend` states why it lives for every call.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// A job of `shares` calls of `task`, posted by the calling thread.
    ///
    /// # Safety
    ///
    /// This erases `task`'s lifetime so that workers can hold the job, and
    /// it is sound only as [`fan_out`] uses it. Workers call `task` only
    /// for a share they claimed ([`Job::claim`]), and finish each such
    /// share before the count `finished` includes it. `fan_out` claims
    /// every share it finds unclaimed, so once its claim loop ends no share
    /// is left to claim, and it then waits until `finished` counts all
    /// `shares` before it returns or re-raises a panic, since every share
    /// runs under `catch_unwind`. So no call of `task` starts after the
    /// borrow ends. The job itself may outlive the borrow, in the queue or
    /// in a worker's hands, but then only its counters are read.
    unsafe fn lend<'a>(task: &'a (dyn Fn() + Sync + 'a), shares: usize) -> Arc<Self> {
        type Lent<'a> = *const (dyn Fn() + Sync + 'a);
        Arc::new(Self {
            task: std::mem::transmute::<Lent<'a>, Lent<'static>>(task),
            shares,
            claimed: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            panic: Mutex::new(None),
            caller: thread::current(),
        })
    }

    /// Claims the next share, if one is left.
    fn claim(&self) -> bool {
        self.claimed.fetch_add(1, Ordering::Relaxed) < self.shares
    }

    /// Whether every share has been claimed.
    fn exhausted(&self) -> bool {
        self.claimed.load(Ordering::Relaxed) >= self.shares
    }

    /// A worker's part: runs shares while one is left to claim, keeping
    /// the first panic for the caller.
    fn run_shares(&self) {
        while self.claim() {
            // SAFETY: the share is claimed and not yet counted finished, so
            // the task is alive (see `Job::lend`).
            let task = unsafe { &*self.task };
            if let Err(p) = panic::catch_unwind(AssertUnwindSafe(task)) {
                let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert(p);
            }
            if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.shares {
                self.caller.unpark();
            }
        }
    }
}

/// The shared worker pool: a queue of jobs with unclaimed shares and the
/// number of workers spawned so far.
struct Pool {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued; idle workers wait on it.
    posted: Condvar,
}

struct Queue {
    jobs: VecDeque<Arc<Job>>,
    workers: usize,
}

static POOL: Pool = Pool {
    queue: Mutex::new(Queue {
        jobs: VecDeque::new(),
        workers: 0,
    }),
    posted: Condvar::new(),
};

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Nothing panics while the lock is held, but a poisoned queue is
        // still consistent.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `job` and wakes up to `helpers` workers, first spawning
    /// workers until the pool has `helpers` of them. A worker that cannot
    /// be spawned is not waited for: the caller runs its shares.
    fn post(&self, job: &Arc<Job>, helpers: usize) {
        let mut queue = self.lock();
        while queue.workers < helpers {
            let name = format!("cpsmon-par-{}", queue.workers);
            if thread::Builder::new()
                .name(name)
                .spawn(|| POOL.work())
                .is_err()
            {
                break;
            }
            queue.workers += 1;
        }
        queue.jobs.push_back(Arc::clone(job));
        drop(queue);
        for _ in 0..helpers {
            self.posted.notify_one();
        }
    }

    /// A worker's life: take the oldest job with a share left, run what it
    /// can claim of it, free its thread-local GEMM scratch, and park while
    /// the queue is empty.
    fn work(&self) {
        IN_WORKER.with(|w| w.set(true));
        loop {
            let job = {
                let mut queue = self.lock();
                loop {
                    while queue.jobs.front().is_some_and(|job| job.exhausted()) {
                        queue.jobs.pop_front();
                    }
                    if let Some(job) = queue.jobs.front() {
                        break Arc::clone(job);
                    }
                    queue = self
                        .posted
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.run_shares();
            crate::simd::free_pack_bufs();
            crate::matrix::free_pack_scratch();
        }
    }
}

/// Runs `share` `threads` times at once, on the calling thread and on up
/// to `threads − 1` pool workers (see the module docs). Once every share
/// has finished it re-raises the caller's first panic, else a worker's.
fn fan_out(threads: usize, share: &(dyn Fn() + Sync)) {
    // SAFETY: the claim loop below leaves no share unclaimed, and the wait
    // after it outlasts every share a worker claimed — the contract of
    // `Job::lend`.
    let job = unsafe { Job::lend(share, threads) };
    // The caller claims a share before the job is queued, so it always
    // runs one itself.
    let mut claimed = job.claim();
    POOL.post(&job, threads - 1);
    let mut panicked = None;
    {
        let _mark = WorkerMark::enter();
        while claimed {
            if panicked.is_none() {
                panicked = panic::catch_unwind(AssertUnwindSafe(share)).err();
            }
            job.finished.fetch_add(1, Ordering::Release);
            claimed = job.claim();
        }
    }
    while job.finished.load(Ordering::Acquire) < threads {
        thread::park();
    }
    let worker_panic = || {
        job.panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    };
    if let Some(p) = panicked.or_else(worker_panic) {
        panic::resume_unwind(p);
    }
}

/// Splits `0..n` into ranges of `chunk` items (the last may be shorter).
/// The boundaries depend only on `n` and `chunk` — see the module docs.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    if n == 0 {
        return Vec::new();
    }
    (0..n.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(n))
        .collect()
}

/// Runs `worker` over every chunk of `0..n` and returns the results in
/// ascending chunk order, regardless of which thread computed what.
///
/// With one chunk or one thread the workers run inline on the calling
/// thread, in order — the results are identical either way (see the module
/// docs for the determinism contract).
///
/// # Panics
///
/// Panics if `chunk == 0`, and re-raises any panic from `worker`.
pub fn run_chunks<T, F>(n: usize, chunk: usize, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = chunk_ranges(n, chunk);
    let threads = max_threads().min(ranges.len());
    if threads <= 1 {
        return ranges.into_iter().map(worker).collect();
    }
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(ranges.len()));
    fan_out(threads, &|| {
        let mut local = Vec::new();
        while let Some(range) = ranges.get(next.fetch_add(1, Ordering::Relaxed)) {
            local.push((range.start, worker(range.clone())));
        }
        // A share that panicked never gets here, and `fan_out` re-raises.
        done.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(&mut local);
    });
    let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    done.sort_unstable_by_key(|&(start, _)| start);
    assert_eq!(done.len(), ranges.len(), "every chunk ran exactly once");
    done.into_iter().map(|(_, value)| value).collect()
}

/// Runs `worker` once on each of `parts`, spread over up to
/// [`max_threads`] threads like [`run_chunks`]: the form for work that
/// writes in place. The caller cuts its buffers into disjoint per-chunk
/// views first (`chunks_mut`), so each part owns its rows outright. With
/// one part or one thread the parts run inline, in order.
///
/// Which thread runs which part is unspecified, so each part's result must
/// depend on that part alone; with parts cut on a grid that depends only on
/// the input size, the module's determinism contract holds.
///
/// # Panics
///
/// Re-raises any panic from `worker`.
pub fn for_each_part<T, F>(parts: Vec<T>, worker: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let threads = max_threads().min(parts.len());
    if threads <= 1 {
        parts.into_iter().for_each(worker);
        return;
    }
    let queue = Mutex::new(parts.into_iter());
    // A closure so the guard drops before the part runs; `IntoIter::next`
    // cannot panic, so the lock is never poisoned.
    let claim = || {
        queue
            .lock()
            .expect("part queue lock held only across IntoIter::next")
            .next()
    };
    fan_out(threads, &|| {
        while let Some(part) = claim() {
            worker(part);
        }
    });
}

/// Applies a row-chunk transform to `x` in parallel and stacks the results.
///
/// `f` receives each chunk's row range within `x` plus the chunk itself and
/// must return a matrix with one output row per input row (column count may
/// differ but must agree across chunks). With a single chunk, `f` is called
/// directly on `x` without copying.
///
/// # Panics
///
/// Panics if `chunk == 0` or the chunk outputs disagree in shape.
pub fn map_rows<F>(x: &Matrix, chunk: usize, f: F) -> Matrix
where
    F: Fn(Range<usize>, &Matrix) -> Matrix + Sync,
{
    let n = x.rows();
    if n <= chunk {
        let out = f(0..n, x);
        assert_eq!(out.rows(), n, "map_rows output must keep the row count");
        return out;
    }
    let parts = run_chunks(n, chunk, |r| {
        let piece = x.slice_rows(r.start, r.end);
        let out = f(r.clone(), &piece);
        assert_eq!(
            out.rows(),
            r.len(),
            "map_rows output must keep the row count"
        );
        out
    });
    let cols = parts[0].cols();
    let mut out = Matrix::zeros(n, cols);
    let mut row = 0;
    for part in &parts {
        assert_eq!(
            part.cols(),
            cols,
            "map_rows chunk outputs disagree in width"
        );
        for r in 0..part.rows() {
            out.row_mut(row).copy_from_slice(part.row(r));
            row += 1;
        }
    }
    out
}

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Test helper: sets `CPSMON_THREADS` for the guard's lifetime and restores
/// the previous value on drop, holding a process-wide lock so concurrent
/// tests cannot race on the variable.
///
/// Results never depend on the thread count (that is the point of the
/// determinism contract), so a racing *reader* is harmless — the lock only
/// serializes tests that each want a specific setting.
pub struct ThreadsGuard {
    prev: Option<String>,
    /// `None` only for a guard nested inside one that holds the lock.
    _lock: Option<MutexGuard<'static, ()>>,
}

impl ThreadsGuard {
    /// Pins the fan-out width to `n` threads until the guard is dropped.
    pub fn set(n: usize) -> Self {
        let lock = ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        Self::swap(n, Some(lock))
    }

    /// Sets the variable and remembers its previous value; `lock` is
    /// `ENV_LOCK`'s guard, or `None` when the caller already holds it.
    fn swap(n: usize, lock: Option<MutexGuard<'static, ()>>) -> Self {
        let prev = std::env::var("CPSMON_THREADS").ok();
        std::env::set_var("CPSMON_THREADS", n.to_string());
        Self { prev, _lock: lock }
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        match &self.prev {
            Some(v) => std::env::set_var("CPSMON_THREADS", v),
            None => std::env::remove_var("CPSMON_THREADS"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        assert_eq!(chunk_ranges(0, 4), vec![]);
        assert_eq!(chunk_ranges(3, 4), vec![0..3]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(9, 4), vec![0..4, 4..8, 8..9]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = chunk_ranges(5, 0);
    }

    #[test]
    fn run_chunks_preserves_chunk_order() {
        let _guard = ThreadsGuard::set(4);
        let out = run_chunks(103, 10, |r| r.start);
        let expected: Vec<usize> = (0..11).map(|i| i * 10).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn run_chunks_same_result_across_thread_counts() {
        let serial = {
            let _guard = ThreadsGuard::set(1);
            run_chunks(57, 8, |r| r.map(|i| i * i).sum::<usize>())
        };
        for threads in [2usize, 3, 8] {
            let _guard = ThreadsGuard::set(threads);
            assert_eq!(
                run_chunks(57, 8, |r| r.map(|i| i * i).sum::<usize>()),
                serial
            );
        }
    }

    #[test]
    fn nested_fanout_runs_serially() {
        let _guard = ThreadsGuard::set(4);
        let out = run_chunks(4, 1, |outer| {
            // Inside a worker, max_threads() must report 1 so that nested
            // fan-outs execute inline, on the thread running the share.
            assert_eq!(max_threads(), 1);
            let me = thread::current().id();
            let mut seen = vec![None; 2];
            let parts: Vec<_> = seen.iter_mut().collect();
            for_each_part(parts, |slot| *slot = Some(thread::current().id()));
            assert_eq!(
                seen,
                vec![Some(me); 2],
                "nested for_each_part ran elsewhere"
            );
            run_chunks(3, 1, move |inner| {
                assert_eq!(
                    thread::current().id(),
                    me,
                    "nested run_chunks ran elsewhere"
                );
                outer.start * 10 + inner.start
            })
        });
        assert_eq!(
            out,
            vec![
                vec![0, 1, 2],
                vec![10, 11, 12],
                vec![20, 21, 22],
                vec![30, 31, 32]
            ]
        );
    }

    #[test]
    fn map_rows_matches_direct_apply() {
        let x = Matrix::from_vec(10, 3, (0..30).map(|v| v as f64).collect());
        let direct = x.map(|v| v * 2.0);
        let _guard = ThreadsGuard::set(3);
        let mapped = map_rows(&x, 4, |_, chunk| chunk.map(|v| v * 2.0));
        assert_eq!(mapped, direct);
    }

    #[test]
    fn map_rows_passes_global_ranges() {
        let x = Matrix::zeros(9, 2);
        let out = map_rows(&x, 4, |range, chunk| {
            let mut m = chunk.clone();
            for r in 0..m.rows() {
                m.set(r, 0, (range.start + r) as f64);
            }
            m
        });
        for r in 0..9 {
            assert_eq!(out.get(r, 0), r as f64);
        }
    }

    #[test]
    fn threads_guard_restores_previous_value() {
        // The outer guard holds ENV_LOCK for the whole test, so no other
        // guard can restore an exported value between the checks, and its
        // drop puts back whatever the process started with.
        let _held = ThreadsGuard::set(1);
        std::env::remove_var("CPSMON_THREADS");
        {
            let _guard = ThreadsGuard::swap(7, None);
            assert_eq!(max_threads(), 7);
        }
        assert!(std::env::var("CPSMON_THREADS").is_err());
        std::env::set_var("CPSMON_THREADS", "5");
        {
            let _guard = ThreadsGuard::swap(7, None);
            assert_eq!(max_threads(), 7);
        }
        assert_eq!(std::env::var("CPSMON_THREADS").as_deref(), Ok("5"));
    }

    #[test]
    fn caller_is_not_left_pinned_after_fanout() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        use std::time::Duration;
        let _guard = ThreadsGuard::set(2);
        // The barrier makes each of the two threads run exactly one chunk,
        // so the calling thread's own worker share always runs.
        let barrier = Barrier::new(2);
        let out = run_chunks(2, 1, |r| {
            barrier.wait();
            r.start
        });
        assert_eq!(out, vec![0, 1]);
        assert_eq!(max_threads(), 2);
        let barrier = Barrier::new(2);
        let caught = panic::catch_unwind(|| {
            run_chunks(2, 1, |_| -> usize {
                barrier.wait();
                panic!("share exploded")
            })
        });
        assert!(caught.is_err());
        assert_eq!(max_threads(), 2);
        // A panic in the caller's chunk, then in the worker's: either way
        // it re-raises on the caller only after the other chunk finished,
        // and leaves the caller unpinned.
        let caller = thread::current().id();
        for caller_panics in [true, false] {
            let barrier = Barrier::new(2);
            let other_finished = AtomicBool::new(false);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                run_chunks(2, 1, |_| {
                    barrier.wait();
                    if (thread::current().id() == caller) == caller_panics {
                        panic!("share exploded");
                    }
                    thread::sleep(Duration::from_millis(50));
                    other_finished.store(true, Ordering::SeqCst);
                })
            }));
            let case = format!("caller panics: {caller_panics}");
            let payload = caught.expect_err(&case);
            assert_eq!(payload.downcast_ref(), Some(&"share exploded"), "{case}");
            assert!(
                other_finished.load(Ordering::SeqCst),
                "re-raised early, {case}"
            );
            assert_eq!(max_threads(), 2, "{case}");
        }
    }

    #[test]
    fn concurrent_fanouts_share_the_workers() {
        // Eight threads fan out at once, many times over; each fan-out
        // gets all its results in order, and the pool spawns no worker
        // beyond the `t − 1` a fan-out asks for.
        for threads in [2usize, 3] {
            let _guard = ThreadsGuard::set(threads);
            run_chunks(threads, 1, |r| r.start);
            let workers = POOL.lock().workers;
            assert!(workers >= threads - 1);
            thread::scope(|s| {
                for t in 0..8usize {
                    s.spawn(move || {
                        for i in 0..200usize {
                            let n = 1 + (7 * t + i) % 40;
                            let f = |r: Range<usize>| r.map(|v| v * v + t).collect::<Vec<_>>();
                            let want: Vec<_> = chunk_ranges(n, 3).into_iter().map(f).collect();
                            assert_eq!(run_chunks(n, 3, f), want, "run_chunks {t}/{i}");
                            let mut data = vec![0usize; n];
                            let parts: Vec<_> = data.chunks_mut(4).enumerate().collect();
                            for_each_part(parts, |(j, part)| {
                                for (q, v) in part.iter_mut().enumerate() {
                                    *v = 4 * j + q + i;
                                }
                            });
                            let want: Vec<_> = (0..n).map(|v| v + i).collect();
                            assert_eq!(data, want, "for_each_part {t}/{i}");
                        }
                    });
                }
            });
            assert_eq!(POOL.lock().workers, workers, "{threads} threads");
        }
    }

    #[test]
    fn for_each_part_runs_every_part_once() {
        let want: Vec<usize> = (0..50).map(|j| j / 8 + 1).collect();
        for threads in [1usize, 2, 3] {
            let _guard = ThreadsGuard::set(threads);
            let mut data = vec![0usize; 50];
            let parts: Vec<_> = data.chunks_mut(8).enumerate().collect();
            for_each_part(parts, |(i, part)| part.iter_mut().for_each(|v| *v += i + 1));
            assert_eq!(data, want);
        }
    }

    #[test]
    fn invalid_env_value_is_ignored() {
        let _guard = ThreadsGuard::set(2);
        std::env::set_var("CPSMON_THREADS", "not-a-number");
        assert!(max_threads() >= 1);
        std::env::set_var("CPSMON_THREADS", "2");
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panics_propagate() {
        let _guard = ThreadsGuard::set(2);
        let _ = run_chunks(8, 1, |r| {
            if r.start == 5 {
                panic!("worker exploded");
            }
            r.start
        });
    }
}
