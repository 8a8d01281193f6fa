//! The prediction robustness error metric (Eq. 5 of the paper).
//!
//! ```text
//!                    Σᵢ I(f_θ(xᵢ) ≠ f_θ(xᵢ + Δx))
//! robustness error = ───────────────────────────────
//!                              Σⱼ Nⱼ
//! ```
//!
//! i.e. the fraction of samples whose *predicted class flips* when the
//! perturbation is applied. It needs no ground truth — it measures
//! prediction stability, not correctness.

use cpsmon_nn::par;

/// Fraction of rows whose predictions differ between two label vectors.
///
/// # Panics
///
/// Panics if the vectors differ in length.
pub fn robustness_error(clean_preds: &[usize], perturbed_preds: &[usize]) -> f64 {
    assert_eq!(
        clean_preds.len(),
        perturbed_preds.len(),
        "prediction length mismatch"
    );
    if clean_preds.is_empty() {
        return 0.0;
    }
    let flips = clean_preds
        .iter()
        .zip(perturbed_preds)
        .filter(|(a, b)| a != b)
        .count();
    flips as f64 / clean_preds.len() as f64
}

/// Evaluates every sweep item — one grid cell of a robustness sweep —
/// through `eval`, fanning the items out across the data-parallel workers
/// of [`cpsmon_nn::par`] (one item per work unit).
///
/// The output order always matches the input order and every item is
/// evaluated exactly once, so the result is identical to
/// `items.iter().map(eval).collect()` regardless of the thread count
/// (`CPSMON_THREADS` honored). Item evaluation may itself use the parallel
/// layer: nested fan-out automatically degrades to inline execution, so
/// grid-level and batch-level parallelism compose without oversubscription.
///
/// Sweeps whose cells share expensive inputs (one loss gradient across an
/// ε sweep, one noise field per seed) should hoist them into
/// `cpsmon_attack::SweepContext`, whose `sweep` method precomputes the
/// shared halves and then fans the cheap per-cell materializations out
/// through this function.
pub fn sweep_parallel<T: Sync, R: Send>(items: &[T], eval: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if items.len() <= 1 || par::max_threads() <= 1 {
        // No parallelism to exploit: skip the chunk grid (range vector,
        // per-chunk result merge) and map directly. Identical output —
        // per-cell evaluation is independent and run_chunks with a
        // single-item chunk visits items in the same order.
        return items.iter().map(&eval).collect();
    }
    // One item per chunk → the chunk-result list is exactly the item list.
    par::run_chunks(items.len(), 1, |r| eval(&items[r.start]))
}

/// Per-class flip rates `(flips in class j) / N_j`, keyed by the clean
/// prediction. Useful for diagnosing whether attacks mainly silence alarms
/// (unsafe → safe) or fabricate them.
pub fn per_class_flip_rates(
    clean_preds: &[usize],
    perturbed_preds: &[usize],
    classes: usize,
) -> Vec<f64> {
    assert_eq!(
        clean_preds.len(),
        perturbed_preds.len(),
        "prediction length mismatch"
    );
    let mut flips = vec![0usize; classes];
    let mut totals = vec![0usize; classes];
    for (&c, &p) in clean_preds.iter().zip(perturbed_preds) {
        totals[c] += 1;
        if c != p {
            flips[c] += 1;
        }
    }
    flips
        .into_iter()
        .zip(totals)
        .map(|(f, t)| if t == 0 { 0.0 } else { f as f64 / t as f64 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_predictions_have_zero_error() {
        let preds = vec![0, 1, 1, 0];
        assert_eq!(robustness_error(&preds, &preds), 0.0);
    }

    #[test]
    fn all_flipped_is_one() {
        assert_eq!(robustness_error(&[0, 1], &[1, 0]), 1.0);
    }

    #[test]
    fn partial_flips() {
        assert_eq!(robustness_error(&[0, 0, 1, 1], &[0, 1, 1, 0]), 0.5);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(robustness_error(&[], &[]), 0.0);
    }

    #[test]
    fn per_class_rates() {
        let clean = vec![0, 0, 0, 1, 1];
        let pert = vec![1, 0, 0, 0, 1];
        let rates = per_class_flip_rates(&clean, &pert, 2);
        assert!((rates[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((rates[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_class_handles_empty_class() {
        let rates = per_class_flip_rates(&[0, 0], &[0, 1], 3);
        assert_eq!(rates[1], 0.0);
        assert_eq!(rates[2], 0.0);
    }

    #[test]
    fn sweep_parallel_preserves_order_and_coverage() {
        let items: Vec<usize> = (0..17).collect();
        let out = sweep_parallel(&items, |&i| i * i);
        assert_eq!(out, items.iter().map(|&i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_parallel_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(sweep_parallel(&empty, |&v| v).is_empty());
        assert_eq!(sweep_parallel(&[7u32], |&v| v + 1), vec![8]);
    }

    #[test]
    fn sweep_parallel_matches_serial_across_thread_counts() {
        let items: Vec<usize> = (0..31).collect();
        let expect: Vec<usize> = items.iter().map(|&i| i.wrapping_mul(2654435761)).collect();
        for threads in [1usize, 4] {
            let _guard = cpsmon_nn::par::ThreadsGuard::set(threads);
            assert_eq!(
                sweep_parallel(&items, |&i| i.wrapping_mul(2654435761)),
                expect
            );
        }
    }
}
