//! The multi-layer-perceptron monitor network.
//!
//! Architecture per the paper (§IV-A): fully connected layers of 256 and
//! 128 units with ReLU activations, followed by a softmax output layer,
//! trained with Adam and sparse categorical cross-entropy. The "Custom"
//! variant adds the semantic-loss term (Eq. 2) through the optional
//! indicator argument of [`Network::train_batch`].

use crate::activation::{relu, relu_grad_mask, relu_inplace, softmax_rows_inplace};
use crate::dense::Dense;
use crate::loss::SemanticLoss;
use crate::matrix::Matrix;
use crate::model::Network;
use crate::rng::SmallRng;

/// Configuration for [`MlpNet::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpConfig {
    /// Width of a flattened input row.
    pub input_dim: usize,
    /// Hidden-layer sizes; the paper uses `[256, 128]`.
    pub hidden: Vec<usize>,
    /// Number of output classes (2 for safe/unsafe).
    pub classes: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl MlpConfig {
    /// The paper's monitor architecture (256-128) for the given input width.
    pub fn paper(input_dim: usize) -> Self {
        Self {
            input_dim,
            hidden: vec![256, 128],
            classes: 2,
            seed: 0,
        }
    }
}

/// Reusable per-layer activation buffers for
/// [`MlpNet::predict_proba_scratch`]. After the first call with a given
/// batch size, subsequent calls allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    acts: Vec<Matrix>,
}

/// A feed-forward softmax classifier with ReLU hidden layers.
#[derive(Debug, Clone)]
pub struct MlpNet {
    layers: Vec<Dense>,
    /// Optional semantic loss used when an indicator batch is supplied.
    pub semantic: SemanticLoss,
}

impl MlpNet {
    /// Builds the network described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim`, `classes`, or any hidden width is zero.
    pub fn new(config: &MlpConfig) -> Self {
        assert!(config.input_dim > 0, "input_dim must be positive");
        assert!(config.classes > 0, "classes must be positive");
        assert!(
            config.hidden.iter().all(|&h| h > 0),
            "hidden widths must be positive"
        );
        let mut rng = SmallRng::new(config.seed ^ 0x6d6c_705f_6e65_7400);
        let mut layers = Vec::with_capacity(config.hidden.len() + 1);
        let mut prev = config.input_dim;
        for &h in &config.hidden {
            layers.push(Dense::new(prev, h, &mut rng));
            prev = h;
        }
        layers.push(Dense::new(prev, config.classes, &mut rng));
        Self {
            layers,
            semantic: SemanticLoss::default(),
        }
    }

    /// Builds a network from its dense layers in forward order (used by
    /// deserialization), with the default semantic loss.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: no layers, a
    /// zero width, or consecutive layers whose widths do not chain.
    pub(crate) fn from_layers(layers: Vec<Dense>) -> Result<Self, String> {
        if layers.is_empty() {
            return Err("network must have at least one layer".into());
        }
        for (i, layer) in layers.iter().enumerate() {
            if layer.input_dim() == 0 || layer.output_dim() == 0 {
                return Err(format!("dense{i} has a zero width"));
            }
            if i > 0 && layers[i - 1].output_dim() != layer.input_dim() {
                return Err(format!(
                    "dense{i} input width {} != dense{} output width {}",
                    layer.input_dim(),
                    i - 1,
                    layers[i - 1].output_dim()
                ));
            }
        }
        Ok(Self {
            layers,
            semantic: SemanticLoss::default(),
        })
    }

    /// The dense layers in forward order (hidden layers then the head).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Class probabilities through caller-owned scratch buffers — the
    /// single-row/small-batch prediction fast path used by streaming
    /// monitor sessions. Runs the same kernels as the batch path
    /// ([`Dense::forward_into`], [`relu_inplace`], [`softmax_rows_inplace`])
    /// so the result is bit-identical to
    /// [`predict_proba`](crate::GradModel::predict_proba) on the same rows, but
    /// performs no allocation once the scratch is warm.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the network input width.
    pub fn predict_proba_scratch<'s>(&self, x: &Matrix, scratch: &'s mut MlpScratch) -> &'s Matrix {
        assert_eq!(x.cols(), self.layers[0].input_dim(), "input width mismatch");
        let n = x.rows();
        let last = self.layers.len() - 1;
        scratch
            .acts
            .resize_with(self.layers.len(), || Matrix::zeros(0, 0));
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, todo) = scratch.acts.split_at_mut(i);
            let input = if i == 0 { x } else { &done[i - 1] };
            let out = &mut todo[0];
            out.reset_shape(n, layer.output_dim());
            layer.forward_into(input, out);
            if i != last {
                relu_inplace(out);
            }
        }
        let probs = &mut scratch.acts[last];
        softmax_rows_inplace(probs);
        probs
    }
}

impl Network for MlpNet {
    /// The input to every layer, then every hidden layer's pre-activation
    /// (kept for the ReLU mask, so the backward pass does not redo the
    /// forward matmuls).
    type Cache = (Vec<Matrix>, Vec<Matrix>);

    fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    fn output_dim(&self) -> usize {
        self.layers.last().expect("at least one layer").output_dim()
    }

    fn semantic(&self) -> &SemanticLoss {
        &self.semantic
    }

    /// No intermediate clones, ReLU applied in place.
    fn logits(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.layers[0].input_dim(), "input width mismatch");
        let last = self.layers.len() - 1;
        let mut cur = self.layers[0].forward(x);
        if last > 0 {
            relu_inplace(&mut cur);
        }
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            cur = layer.forward(&cur);
            if i != last {
                relu_inplace(&mut cur);
            }
        }
        cur
    }

    fn forward_cached(&self, x: &Matrix) -> (Matrix, Self::Cache) {
        assert_eq!(x.cols(), self.layers[0].input_dim(), "input width mismatch");
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut zs = Vec::with_capacity(self.layers.len() - 1);
        let mut cur = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let z = layer.forward(&cur);
            inputs.push(cur);
            if i + 1 == self.layers.len() {
                return (z, (inputs, zs));
            }
            cur = relu(&z);
            zs.push(z);
        }
        unreachable!("network has at least one layer");
    }

    fn backward(&self, (inputs, zs): &Self::Cache, mut dz: Matrix) -> Vec<Matrix> {
        let mut grads = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate().rev() {
            // The first layer's input gradient would be dropped.
            let (g, dx) = layer.backward(&inputs[i], &dz, i > 0);
            grads.push(g);
            if let Some(dx) = dx {
                dz = dx.hadamard(&relu_grad_mask(&zs[i - 1]));
            }
        }
        grads.into_iter().rev().flatten().collect()
    }

    /// Skips the weight-gradient matmuls.
    fn backward_input(&self, (_, zs): &Self::Cache, mut dz: Matrix) -> Matrix {
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let dx = dz.matmul_tb(layer.weights());
            dz = if i > 0 {
                dx.hadamard(&relu_grad_mask(&zs[i - 1]))
            } else {
                dx
            };
        }
        dz
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        self.layers.iter_mut().flat_map(Dense::params_mut).collect()
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::AdamTrainer;
    use crate::gradcheck::{max_relative_error, numeric_input_grad};
    use crate::init::random_normal;
    use crate::loss::cross_entropy;
    use crate::model::GradModel;

    fn tiny_net(seed: u64) -> MlpNet {
        MlpNet::new(&MlpConfig {
            input_dim: 4,
            hidden: vec![8, 6],
            classes: 2,
            seed,
        })
    }

    #[test]
    fn proba_rows_sum_to_one() {
        let net = tiny_net(1);
        let x = random_normal(5, 4, 1.0, &mut SmallRng::new(2));
        let p = net.predict_proba(&x);
        for r in 0..5 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let net = tiny_net(3);
        let mut rng = SmallRng::new(4);
        let x = random_normal(3, 4, 0.8, &mut rng);
        let labels = vec![0usize, 1, 0];
        let ana = net.input_gradient(&x, &labels);
        let num = numeric_input_grad(&x, 1e-6, |xp| {
            cross_entropy(&net.predict_proba(xp), &labels)
        });
        let err = max_relative_error(&ana, &num);
        assert!(err < 1e-5, "input-grad error {err}");
    }

    #[test]
    fn training_reduces_loss_on_toy_task() {
        // Linearly separable blobs.
        let mut rng = SmallRng::new(5);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..40 {
            let y = rng.bernoulli(0.5) as usize;
            let center = if y == 1 { 2.0 } else { -2.0 };
            rows.push(vec![
                rng.normal_with(center, 0.5),
                rng.normal_with(-center, 0.5),
                rng.normal(),
                rng.normal(),
            ]);
            labels.push(y);
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&refs);
        let mut net = tiny_net(6);
        let mut trainer = AdamTrainer::new(net.param_count(), 0.01);
        let before = net.eval_loss(&x, &labels, None);
        for _ in 0..100 {
            net.train_batch(&x, &labels, None, &mut trainer);
        }
        let after = net.eval_loss(&x, &labels, None);
        assert!(after < before * 0.2, "loss {before} → {after}");
        // And classify nearly everything correctly.
        let preds = net.predict_labels(&x);
        let correct = preds.iter().zip(&labels).filter(|(p, y)| p == y).count();
        assert!(correct >= 38, "only {correct}/40 correct");
    }

    #[test]
    fn semantic_indicator_pulls_predictions() {
        // With a large semantic weight and indicator fixed at 1, the model
        // should predict "unsafe" even where labels say safe.
        let x = Matrix::from_rows(&[&[1.0, 0.0, 0.0, 0.0]]);
        let labels = vec![0usize];
        let ind = vec![1.0f64];
        let mut net = tiny_net(7);
        net.semantic = SemanticLoss::new(10.0);
        let mut trainer = AdamTrainer::new(net.param_count(), 0.05);
        for _ in 0..200 {
            net.train_batch(&x, &labels, Some(&ind), &mut trainer);
        }
        let p = net.predict_proba(&x);
        assert!(p.get(0, 1) > 0.5, "semantic term failed to dominate: {p:?}");
    }

    #[test]
    fn paper_architecture_has_expected_param_count() {
        let net = MlpNet::new(&MlpConfig::paper(36));
        // 36·256+256 + 256·128+128 + 128·2+2
        assert_eq!(
            net.param_count(),
            36 * 256 + 256 + 256 * 128 + 128 + 128 * 2 + 2
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tiny_net(9);
        let b = tiny_net(9);
        let x = random_normal(2, 4, 1.0, &mut SmallRng::new(1));
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn rejects_wrong_input_width() {
        let net = tiny_net(10);
        let x = Matrix::zeros(1, 3);
        let _ = net.predict_proba(&x);
    }

    #[test]
    fn scratch_path_bit_identical_to_batch() {
        let net = tiny_net(13);
        let x = random_normal(7, 4, 1.0, &mut SmallRng::new(14));
        let batch = net.predict_proba(&x);
        let mut scratch = MlpScratch::default();
        // Row by row through the reused scratch: every probability must
        // match the batch result bit for bit.
        for r in 0..x.rows() {
            let row = x.slice_rows(r, r + 1);
            let p = net.predict_proba_scratch(&row, &mut scratch);
            assert_eq!(p.as_slice(), batch.row(r), "row {r} diverged");
        }
        // And a small multi-row batch through the same scratch.
        let sub = x.slice_rows(2, 6);
        let p = net.predict_proba_scratch(&sub, &mut scratch);
        assert_eq!(p.as_slice(), batch.slice_rows(2, 6).as_slice());
    }
}
