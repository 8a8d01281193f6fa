//! White-box adversarial perturbations: the Fast Gradient Sign Method.

use crate::GRAD_CHUNK;
use cpsmon_nn::{par, GradModel, Matrix};

/// The FGSM attack (Goodfellow et al., Eq. 3–4 of the paper):
///
/// ```text
/// x_adv = x + ε · sign(∇_x J(x, ȳ))
/// ```
///
/// The perturbation maximizes the model's loss against the label ȳ and is
/// bounded by ε in the `L∞` norm. Unlike the Gaussian model, FGSM touches
/// *every* input feature — sensors and control commands alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fgsm {
    epsilon: f64,
}

impl Fgsm {
    /// Creates an attack with the given `L∞` budget ε.
    ///
    /// # Panics
    ///
    /// Panics if ε is negative or non-finite.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be finite and non-negative"
        );
        Self { epsilon }
    }

    /// The configured ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Crafts adversarial examples against `model` for a batch with known
    /// labels (the paper's setting: the attacker maximizes the loss against
    /// the true class).
    ///
    /// Composed as [`grad_sign`] (one backward pass, ε-independent)
    /// followed by [`apply_sign`] (the cheap `x + ε·S` step) — the exact
    /// decomposition the amortized sweep engine
    /// ([`SweepContext`](crate::SweepContext)) reuses, which is what makes
    /// cached-vs-direct bit-identity hold by construction.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()`.
    pub fn attack(&self, model: &dyn GradModel, x: &Matrix, labels: &[usize]) -> Matrix {
        apply_sign(x, &grad_sign(model, x, labels), self.epsilon)
    }

    /// Crafts adversarial examples using the model's *own predictions* as
    /// labels — the label-free variant an attacker without ground truth
    /// would run. (Identical to [`attack`](Self::attack) wherever the model
    /// is correct.)
    pub fn attack_self_labeled(&self, model: &dyn GradModel, x: &Matrix) -> Matrix {
        let preds = model.predict_labels(x);
        self.attack(model, x, &preds)
    }
}

/// The ε-independent half of FGSM: the sign matrix `S = sign(∇_x J(x, ȳ))`
/// of the loss gradient. One backward pass per `GRAD_CHUNK` rows — this is
/// where essentially all of the attack's cost lives, so a multi-ε sweep
/// should compute it once and reuse it via [`apply_sign`].
///
/// Each fixed-size chunk is crafted independently (possibly on its own
/// worker thread). The per-chunk gradient differs from the whole-batch
/// gradient only by a positive scale (the 1/N of the mean loss), which the
/// sign step erases — so chunking is exactly transparent.
///
/// # Panics
///
/// Panics if `labels.len() != x.rows()`.
pub fn grad_sign(model: &dyn GradModel, x: &Matrix, labels: &[usize]) -> Matrix {
    assert_eq!(labels.len(), x.rows(), "label count mismatch");
    par::map_rows(x, GRAD_CHUNK, |r, chunk| {
        let mut sign = model.input_gradient(chunk, &labels[r]);
        sign.map_inplace(f64::signum);
        sign
    })
}

/// The cheap per-ε half of FGSM: `x + ε·S` element-wise, where `S` is a
/// sign matrix from [`grad_sign`]. The per-element expression is exactly
/// the one the fused attack historically evaluated (`v + ε·sign(g)`), so
/// composing the two halves is bit-identical to a direct attack.
///
/// # Panics
///
/// Panics if the shapes differ or ε is negative or non-finite.
pub fn apply_sign(x: &Matrix, sign: &Matrix, epsilon: f64) -> Matrix {
    assert!(
        epsilon.is_finite() && epsilon >= 0.0,
        "epsilon must be finite and non-negative"
    );
    assert_eq!(
        (x.rows(), x.cols()),
        (sign.rows(), sign.cols()),
        "sign matrix shape mismatch"
    );
    let mut adv = x.clone();
    for (v, &s) in adv.as_mut_slice().iter_mut().zip(sign.as_slice()) {
        *v += epsilon * s;
    }
    adv
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsmon_nn::rng::SmallRng;
    use cpsmon_nn::{init::random_normal, AdamTrainer, MlpConfig, MlpNet, Network};

    fn trained_net(seed: u64) -> (MlpNet, Matrix, Vec<usize>) {
        // Separable blobs: first feature decides the class.
        let mut rng = SmallRng::new(seed);
        let n = 60;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let y = rng.bernoulli(0.5) as usize;
            let c = if y == 1 { 1.5 } else { -1.5 };
            rows.push(vec![
                c + rng.normal_with(0.0, 0.3),
                rng.normal(),
                rng.normal(),
                rng.normal(),
            ]);
            labels.push(y);
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&refs);
        let mut net = MlpNet::new(&MlpConfig {
            input_dim: 4,
            hidden: vec![16],
            classes: 2,
            seed,
        });
        let mut tr = AdamTrainer::new(net.param_count(), 0.02);
        for _ in 0..120 {
            net.train_batch(&x, &labels, None, &mut tr);
        }
        (net, x, labels)
    }

    #[test]
    fn linf_bound_is_exact() {
        let (net, x, labels) = trained_net(1);
        let eps = 0.07;
        let adv = Fgsm::new(eps).attack(&net, &x, &labels);
        let delta = (&adv - &x).max_abs();
        assert!(delta <= eps + 1e-12, "L∞ {delta} exceeds ε {eps}");
        // And the bound is achieved somewhere (gradient almost never all-zero).
        assert!(
            delta > eps * 0.99,
            "perturbation suspiciously small: {delta}"
        );
    }

    #[test]
    fn attack_increases_loss_and_flips_predictions() {
        let (net, x, labels) = trained_net(2);
        let clean_loss = net.eval_loss(&x, &labels, None);
        // ε = 2 is enough to carry any blob point across the boundary.
        let adv = Fgsm::new(2.0).attack(&net, &x, &labels);
        let adv_loss = net.eval_loss(&adv, &labels, None);
        assert!(
            adv_loss > clean_loss,
            "loss did not increase: {clean_loss} → {adv_loss}"
        );
        let clean_preds = net.predict_labels(&x);
        let adv_preds = net.predict_labels(&adv);
        let flips = clean_preds
            .iter()
            .zip(&adv_preds)
            .filter(|(a, b)| a != b)
            .count();
        assert!(flips > 0, "strong FGSM flipped nothing");
    }

    #[test]
    fn stronger_epsilon_flips_at_least_as_many() {
        let (net, x, labels) = trained_net(3);
        let count_flips = |eps: f64| {
            let adv = Fgsm::new(eps).attack(&net, &x, &labels);
            net.predict_labels(&x)
                .iter()
                .zip(net.predict_labels(&adv).iter())
                .filter(|(a, b)| a != b)
                .count()
        };
        // Not strictly monotone in general, but ε=0 must flip nothing and a
        // large ε should flip plenty on a blob task.
        assert_eq!(count_flips(0.0), 0);
        assert!(count_flips(1.5) >= count_flips(0.05));
    }

    #[test]
    fn self_labeled_matches_true_labeled_when_model_is_right() {
        let (net, x, _) = trained_net(4);
        let preds = net.predict_labels(&x);
        let a = Fgsm::new(0.1).attack(&net, &x, &preds);
        let b = Fgsm::new(0.1).attack_self_labeled(&net, &x);
        assert_eq!(a, b);
    }

    #[test]
    fn chunking_is_transparent() {
        // Batches larger than GRAD_CHUNK produce the same result as row-wise.
        let (net, _, _) = trained_net(5);
        let mut rng = SmallRng::new(9);
        let big = random_normal(GRAD_CHUNK + 10, 4, 1.0, &mut rng);
        let labels = vec![0usize; GRAD_CHUNK + 10];
        let whole = Fgsm::new(0.1).attack(&net, &big, &labels);
        for r in [0usize, GRAD_CHUNK - 1, GRAD_CHUNK, GRAD_CHUNK + 9] {
            let row = big.slice_rows(r, r + 1);
            let single = Fgsm::new(0.1).attack(&net, &row, &labels[r..r + 1]);
            assert_eq!(whole.row(r), single.row(0), "row {r} differs");
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_negative_epsilon() {
        let _ = Fgsm::new(-0.1);
    }
}
