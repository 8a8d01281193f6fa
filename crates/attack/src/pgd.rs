//! Projected Gradient Descent (iterative FGSM) — the stronger white-box
//! attack of Kurakin et al. ("Adversarial examples in the physical world",
//! cited by the paper) and the natural next step of its future-work
//! section on broader robustness testing.
//!
//! PGD takes `steps` gradient-sign steps of size `alpha`, projecting back
//! into the `L∞` ε-ball after each step:
//!
//! ```text
//! x₀ = x,   x_{t+1} = clip_{x,ε}( x_t + α·sign(∇_x J(x_t, ȳ)) )
//! ```
//!
//! With `steps = 1` and `alpha = ε` it degenerates to FGSM.

use crate::GRAD_CHUNK;
use cpsmon_nn::{par, GradModel, Matrix};

/// The PGD attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pgd {
    epsilon: f64,
    alpha: f64,
    steps: usize,
}

impl Pgd {
    /// Creates an attack with `L∞` budget ε, step size α, and `steps`
    /// iterations.
    ///
    /// # Panics
    ///
    /// Panics if ε or α is negative/non-finite or `steps == 0`.
    pub fn new(epsilon: f64, alpha: f64, steps: usize) -> Self {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be finite and non-negative"
        );
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be finite and non-negative"
        );
        assert!(steps > 0, "steps must be positive");
        Self {
            epsilon,
            alpha,
            steps,
        }
    }

    /// The usual tuning: `α = ε/4`, 10 iterations.
    pub fn standard(epsilon: f64) -> Self {
        Self::new(epsilon, epsilon / 4.0, 10)
    }

    /// The `L∞` budget.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Crafts adversarial examples against `model` for labeled inputs.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()`.
    pub fn attack(&self, model: &dyn GradModel, x: &Matrix, labels: &[usize]) -> Matrix {
        assert_eq!(labels.len(), x.rows(), "label count mismatch");
        // Every row's trajectory depends only on its own gradient signs
        // (forward passes are row-independent and the mean-loss 1/N scale is
        // positive), so running the full step loop per fixed-size chunk —
        // one chunk per worker — reproduces the whole-batch iteration
        // bit for bit.
        par::map_rows(x, GRAD_CHUNK, |r, chunk| {
            let mut adv = chunk.clone();
            for _ in 0..self.steps {
                let grad = model.input_gradient(&adv, &labels[r.clone()]);
                for row in 0..adv.rows() {
                    for c in 0..adv.cols() {
                        let stepped = adv.get(row, c) + self.alpha * grad.get(row, c).signum();
                        // Project back into the ε-ball around the original x.
                        let center = chunk.get(row, c);
                        adv.set(
                            row,
                            c,
                            stepped.clamp(center - self.epsilon, center + self.epsilon),
                        );
                    }
                }
            }
            adv
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgsm::Fgsm;
    use cpsmon_nn::rng::SmallRng;
    use cpsmon_nn::{AdamTrainer, MlpConfig, MlpNet, Network};

    fn trained_net(seed: u64) -> (MlpNet, Matrix, Vec<usize>) {
        let mut rng = SmallRng::new(seed);
        let n = 60;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let y = rng.bernoulli(0.5) as usize;
            let c = if y == 1 { 1.2 } else { -1.2 };
            rows.push(vec![
                c + rng.normal_with(0.0, 0.4),
                rng.normal(),
                rng.normal(),
            ]);
            labels.push(y);
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&refs);
        let mut net = MlpNet::new(&MlpConfig {
            input_dim: 3,
            hidden: vec![12],
            classes: 2,
            seed,
        });
        let mut tr = AdamTrainer::new(net.param_count(), 0.02);
        for _ in 0..150 {
            net.train_batch(&x, &labels, None, &mut tr);
        }
        (net, x, labels)
    }

    #[test]
    fn pgd_respects_epsilon_ball() {
        let (net, x, labels) = trained_net(1);
        let adv = Pgd::standard(0.1).attack(&net, &x, &labels);
        assert!((&adv - &x).max_abs() <= 0.1 + 1e-12);
    }

    #[test]
    fn single_step_full_alpha_equals_fgsm() {
        let (net, x, labels) = trained_net(2);
        let pgd = Pgd::new(0.07, 0.07, 1).attack(&net, &x, &labels);
        let fgsm = Fgsm::new(0.07).attack(&net, &x, &labels);
        assert_eq!(pgd, fgsm);
    }

    #[test]
    fn pgd_is_at_least_as_strong_as_fgsm() {
        let (net, x, labels) = trained_net(3);
        let eps = 0.6;
        let loss_fgsm = net.eval_loss(&Fgsm::new(eps).attack(&net, &x, &labels), &labels, None);
        let loss_pgd = net.eval_loss(&Pgd::standard(eps).attack(&net, &x, &labels), &labels, None);
        assert!(
            loss_pgd >= loss_fgsm - 1e-6,
            "PGD loss {loss_pgd} below FGSM loss {loss_fgsm}"
        );
    }

    #[test]
    fn zero_epsilon_is_identity() {
        let (net, x, labels) = trained_net(4);
        let adv = Pgd::new(0.0, 0.0, 3).attack(&net, &x, &labels);
        assert_eq!(adv, x);
    }

    #[test]
    #[should_panic(expected = "steps must be positive")]
    fn rejects_zero_steps() {
        let _ = Pgd::new(0.1, 0.05, 0);
    }
}
