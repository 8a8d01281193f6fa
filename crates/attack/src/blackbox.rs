//! Black-box attacks via a substitute model (§III, "Black-box Attacks").
//!
//! The attacker cannot read the target monitor's weights; they can only
//! query it and know which features it consumes. Following the paper (and
//! the transferability literature it cites), the attack:
//!
//! 1. queries the target on attacker-held inputs to collect labels;
//! 2. trains a **substitute** two-layer MLP (128-64) on those query pairs;
//! 3. crafts white-box FGSM perturbations *on the substitute*;
//! 4. transfers the perturbed inputs to the target.

use crate::fgsm::Fgsm;
use cpsmon_nn::rng::SmallRng;
use cpsmon_nn::{AdamTrainer, GradModel, Matrix, MlpConfig, MlpNet, Network};

/// Configuration and state of a substitute-model black-box attack.
#[derive(Debug, Clone)]
pub struct SubstituteAttack {
    /// Substitute hidden sizes; the paper uses `[128, 64]`.
    pub hidden: Vec<usize>,
    /// Substitute training epochs.
    pub epochs: usize,
    /// Substitute minibatch size.
    pub batch_size: usize,
    /// Substitute Adam learning rate.
    pub lr: f64,
    /// Seed for substitute init/shuffling.
    pub seed: u64,
}

impl Default for SubstituteAttack {
    fn default() -> Self {
        Self {
            hidden: vec![128, 64],
            epochs: 10,
            batch_size: 128,
            lr: 1e-3,
            seed: 0,
        }
    }
}

impl SubstituteAttack {
    /// Creates the paper's substitute configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trains a substitute model by querying `target` on `query_x`.
    ///
    /// Returns the substitute together with its agreement rate on the
    /// query set (fraction of inputs where substitute and target agree) —
    /// a sanity signal for the transfer attack.
    pub fn train_substitute(&self, target: &dyn GradModel, query_x: &Matrix) -> (MlpNet, f64) {
        let labels = target.predict_labels(query_x);
        let mut net = MlpNet::new(&MlpConfig {
            input_dim: query_x.cols(),
            hidden: self.hidden.clone(),
            classes: target.classes(),
            seed: self.seed ^ 0x7375_6273_7469_7475,
        });
        let mut trainer = AdamTrainer::new(net.param_count(), self.lr);
        let mut rng = SmallRng::new(self.seed ^ 0x6262_7472_6169_6e00);
        for _ in 0..self.epochs {
            net.train_epoch(
                query_x,
                &labels,
                None,
                self.batch_size,
                &mut trainer,
                &mut rng,
            );
        }
        let sub_preds = net.predict_labels(query_x);
        let agree = sub_preds
            .iter()
            .zip(&labels)
            .filter(|(a, b)| a == b)
            .count();
        (net, agree as f64 / query_x.rows().max(1) as f64)
    }

    /// Full black-box pipeline: train a substitute on `query_x`, then craft
    /// ε-FGSM adversarial versions of `attack_x` *on the substitute* (using
    /// the target's query answers as labels). The returned batch is what
    /// the attacker would feed the real monitor.
    pub fn craft(
        &self,
        target: &dyn GradModel,
        query_x: &Matrix,
        attack_x: &Matrix,
        epsilon: f64,
    ) -> Matrix {
        let (substitute, _) = self.train_substitute(target, query_x);
        let labels = target.predict_labels(attack_x); // query access only
        Fgsm::new(epsilon).attack(&substitute, attack_x, &labels)
    }

    /// Multi-ε variant of [`craft`](Self::craft) for sweep drivers: trains
    /// the substitute **once**, queries the target's labels on `attack_x`
    /// **once**, runs **one** backward pass on the substitute, and
    /// materializes every ε from the shared sign matrix. Each returned
    /// batch is bit-identical to `craft(target, query_x, attack_x, ε)` —
    /// [`Fgsm::attack`] is the same [`crate::fgsm::grad_sign`] +
    /// [`crate::fgsm::apply_sign`] composition — at `1/E` of the training
    /// and gradient cost for `E` budgets.
    ///
    /// Also returns the substitute's agreement rate on the query set.
    pub fn craft_sweep(
        &self,
        target: &dyn GradModel,
        query_x: &Matrix,
        attack_x: &Matrix,
        epsilons: &[f64],
    ) -> (Vec<Matrix>, f64) {
        let (substitute, agreement) = self.train_substitute(target, query_x);
        let labels = target.predict_labels(attack_x); // query access only
        let sign = crate::fgsm::grad_sign(&substitute, attack_x, &labels);
        let batches = epsilons
            .iter()
            .map(|&eps| crate::fgsm::apply_sign(attack_x, &sign, eps))
            .collect();
        (batches, agreement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsmon_nn::rng::SmallRng;

    /// A simple "target" the attacker cannot introspect: threshold on x₀.
    struct Threshold;

    impl GradModel for Threshold {
        fn classes(&self) -> usize {
            2
        }
        fn input_width(&self) -> usize {
            4
        }
        fn predict_proba(&self, x: &Matrix) -> Matrix {
            let mut p = Matrix::zeros(x.rows(), 2);
            for r in 0..x.rows() {
                let unsafe_p = if x.get(r, 0) > 0.0 { 0.9 } else { 0.1 };
                p.set(r, 0, 1.0 - unsafe_p);
                p.set(r, 1, unsafe_p);
            }
            p
        }
        fn input_gradient(&self, _x: &Matrix, _labels: &[usize]) -> Matrix {
            unreachable!("black-box target gradient must never be called")
        }
    }

    fn sample_inputs(n: usize, seed: u64) -> Matrix {
        let mut rng = SmallRng::new(seed);
        cpsmon_nn::init::random_normal(n, 4, 1.0, &mut rng)
    }

    #[test]
    fn substitute_learns_the_target_boundary() {
        let queries = sample_inputs(400, 1);
        let atk = SubstituteAttack {
            epochs: 20,
            ..SubstituteAttack::default()
        };
        let (_, agreement) = atk.train_substitute(&Threshold, &queries);
        assert!(agreement > 0.95, "substitute agreement only {agreement}");
    }

    #[test]
    fn craft_never_touches_target_gradient() {
        // Threshold::input_gradient panics if called; craft must succeed.
        let queries = sample_inputs(200, 2);
        let attack_points = sample_inputs(50, 3);
        let adv = SubstituteAttack::new().craft(&Threshold, &queries, &attack_points, 0.1);
        assert_eq!(adv.shape(), attack_points.shape());
    }

    #[test]
    fn transferred_attack_flips_some_predictions() {
        let queries = sample_inputs(400, 4);
        let attack_points = sample_inputs(100, 5);
        let target = Threshold;
        let adv = SubstituteAttack::new().craft(&target, &queries, &attack_points, 0.6);
        let clean = target.predict_labels(&attack_points);
        let pert = target.predict_labels(&adv);
        let flips = clean.iter().zip(&pert).filter(|(a, b)| a != b).count();
        assert!(flips > 0, "transfer attack flipped nothing");
        // And the perturbation respects the L∞ budget.
        assert!((&adv - &attack_points).max_abs() <= 0.6 + 1e-12);
    }

    #[test]
    fn craft_sweep_matches_craft_per_epsilon() {
        let queries = sample_inputs(150, 8);
        let attack_points = sample_inputs(30, 9);
        let atk = SubstituteAttack::new();
        let epsilons = [0.01, 0.1, 0.2];
        let (batches, agreement) = atk.craft_sweep(&Threshold, &queries, &attack_points, &epsilons);
        assert_eq!(batches.len(), epsilons.len());
        assert!((0.0..=1.0).contains(&agreement));
        for (adv, &eps) in batches.iter().zip(&epsilons) {
            assert_eq!(
                *adv,
                atk.craft(&Threshold, &queries, &attack_points, eps),
                "ε = {eps} drifted from the one-shot pipeline"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let queries = sample_inputs(100, 6);
        let attack_points = sample_inputs(20, 7);
        let atk = SubstituteAttack::new();
        let a = atk.craft(&Threshold, &queries, &attack_points, 0.2);
        let b = atk.craft(&Threshold, &queries, &attack_points, 0.2);
        assert_eq!(a, b);
    }
}
