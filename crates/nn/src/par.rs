//! Data-parallel execution layer: deterministic row-chunked fan-out on
//! `std::thread::scope`, with zero external dependencies.
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
//! A fan-out over `t` threads spawns `t − 1` scoped workers and runs the
//! remaining worker share on the calling thread, which counts as a worker
//! (nested fan-outs inline) until its share returns or unwinds.

use crate::matrix::Matrix;
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Rows per chunk for parallel prediction (forward passes are
/// row-independent, so this affects scheduling granularity only).
pub const PREDICT_CHUNK: usize = 64;

/// Rows per chunk for parallel gradient accumulation. Gradients of batches
/// up to this size take the legacy single-chunk path bit-exactly.
pub const GRAD_CHUNK: usize = 64;

/// Rows per chunk for the pooled stateful LSTM step
/// ([`LstmNet::step_stream`](crate::LstmNet::step_stream) and
/// [`LstmNetF32::step_stream`](crate::LstmNetF32::step_stream)): each chunk
/// runs its whole layer stack as one work item. The step is row-independent,
/// so this affects scheduling granularity only. A tick packs each layer's
/// weights once and every chunk reads the same panels, so the chunk size
/// does not change how much packing a tick does; 256 rows gives a
/// 1000-session tick four work items.
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

/// Runs `share` on `threads` threads at once — `threads − 1` scoped
/// workers plus the calling thread — and returns every share's result,
/// re-raising a worker's panic.
fn fan_out<R: Send>(threads: usize, share: impl Fn() -> R + Sync) -> Vec<R> {
    let share = &share;
    let run = move || {
        let _mark = WorkerMark::enter();
        share()
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|_| s.spawn(run)).collect();
        let mut results = vec![run()];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
        );
        results
    })
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
    let per_thread = fan_out(threads, || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(range) = ranges.get(i) else {
                break;
            };
            local.push((i, worker(range.clone())));
        }
        local
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(ranges.len()).collect();
    for (i, value) in per_thread.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every chunk index was claimed exactly once"))
        .collect()
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
    fan_out(threads, || {
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
            // run_chunks calls execute inline.
            assert_eq!(max_threads(), 1);
            run_chunks(3, 1, move |inner| outer.start * 10 + inner.start)
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
        use std::sync::Barrier;
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
        let caught = std::panic::catch_unwind(|| {
            run_chunks(2, 1, |_| -> usize {
                barrier.wait();
                panic!("share exploded")
            })
        });
        assert!(caught.is_err());
        assert_eq!(max_threads(), 2);
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
