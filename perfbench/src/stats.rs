//! Order statistics the harness reports.
//!
//! One quantile definition is used everywhere: linear interpolation between
//! the two closest ranks (numpy's default, and Python's
//! `statistics.quantiles(method="inclusive")`).

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, which it sorts in place.
///
/// # Panics
///
/// Panics if `samples` is empty, holds a NaN, or `q` is outside `[0, 1]`.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples hold no NaN"));
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// The median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(quantile(&mut xs, 0.5), 2.5);
        // pos = 0.25 · 3 = 0.75 → 1 + 0.75 · (2 − 1)
        assert_eq!(quantile(&mut xs, 0.25), 1.75);
    }

    #[test]
    fn quantile_matches_python_inclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4, method="inclusive")
        // == [3.25, 5.5, 7.75]
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.25), 3.25);
        assert_eq!(quantile(&mut xs, 0.5), 5.5);
        assert_eq!(quantile(&mut xs, 0.75), 7.75);
    }

    #[test]
    fn p99_of_hundred_and_one_samples_is_the_second_largest() {
        let mut xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        assert_eq!(quantile(&mut [7.5], 0.99), 7.5);
        assert_eq!(median(&mut [7.5]), 7.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        quantile(&mut [], 0.5);
    }
}
