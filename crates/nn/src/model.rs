//! The [`GradModel`] trait: the common surface monitors and attacks rely on,
//! and the [`Network`] scaffold that implements it, plus training, once for
//! every network architecture.

use crate::activation::softmax_rows;
use crate::adam::AdamTrainer;
use crate::loss::{cross_entropy, softmax_ce_grad, SemanticLoss};
use crate::matrix::Matrix;
use crate::par;
use crate::rng::SmallRng;
use crate::spare;

/// A differentiable classifier over flat feature rows.
///
/// Sequence models (the LSTM network) also implement this by flattening the
/// window time-major (`[t0 features..., t1 features..., …]`), so attacks can
/// treat every monitor uniformly: a batch is always an `N × input_width`
/// matrix and the input gradient comes back in the same shape.
///
/// This trait is object-safe; the attack toolkit works with
/// `&dyn GradModel`. Every [`Network`] implements it.
///
/// `Sync` is a supertrait so that attack crafting and robustness sweeps can
/// share one model across the data-parallel workers of [`crate::par`]
/// (`&dyn GradModel` must cross thread boundaries).
pub trait GradModel: Sync {
    /// Number of output classes.
    fn classes(&self) -> usize;

    /// Width of a flattened input row.
    fn input_width(&self) -> usize;

    /// Class probabilities for a batch (`N × classes`, rows sum to 1).
    fn predict_proba(&self, x: &Matrix) -> Matrix;

    /// Gradient of the mean cross-entropy loss `J(x, labels)` with respect
    /// to the input batch — the `∇_x J` of FGSM (Eq. 4 of the paper).
    fn input_gradient(&self, x: &Matrix, labels: &[usize]) -> Matrix;

    /// Hard class predictions (argmax of [`predict_proba`](Self::predict_proba)).
    fn predict_labels(&self, x: &Matrix) -> Vec<usize> {
        self.predict_proba(x).argmax_rows()
    }
}

/// A softmax classifier described by its architecture alone: a network
/// supplies its forward and backward passes and its parameter list, and
/// this trait supplies minibatch training ([`train_batch`], [`train_epoch`]),
/// [`eval_loss`] and, through a blanket impl, [`GradModel`].
///
/// The shared code fixes the bits: batches of more than [`par::GRAD_CHUNK`]
/// rows are split on that fixed grid, each chunk's gradients are computed
/// in parallel, and the chunks merge in chunk order (the first scaled in
/// place by `rows/n`, the rest added with [`Matrix::add_scaled`]), so
/// training is bit-identical at any thread count.
///
/// [`train_batch`]: Network::train_batch
/// [`train_epoch`]: Network::train_epoch
/// [`eval_loss`]: Network::eval_loss
pub trait Network: Sync {
    /// What the forward pass keeps for the backward passes.
    type Cache;

    /// Width of a flattened input row.
    fn input_dim(&self) -> usize;

    /// Number of output classes.
    fn output_dim(&self) -> usize;

    /// The semantic-loss term added when training gets an indicator batch.
    fn semantic(&self) -> &SemanticLoss;

    /// Logits for a batch, keeping nothing for a backward pass.
    fn logits(&self, x: &Matrix) -> Matrix;

    /// Logits for a batch and the cache the backward passes read.
    fn forward_cached(&self, x: &Matrix) -> (Matrix, Self::Cache);

    /// Weight gradients from the logits gradient `dz`, in
    /// [`params_mut`](Self::params_mut) order.
    fn backward(&self, cache: &Self::Cache, dz: Matrix) -> Vec<Matrix>;

    /// The gradient with respect to the input batch only (the attack path,
    /// which skips every weight-gradient product).
    fn backward_input(&self, cache: &Self::Cache, dz: Matrix) -> Matrix;

    /// Every trainable tensor in Adam-slot order.
    fn params_mut(&mut self) -> Vec<&mut Matrix>;

    /// Total number of trainable scalars (for sizing an [`AdamTrainer`]).
    fn param_count(&self) -> usize;

    /// One minibatch of training. `indicator` is the per-row safety-rule
    /// truth value; when present, the semantic loss (Eq. 2) is added with
    /// weight [`semantic`](Self::semantic). Returns the batch loss.
    ///
    /// Batches of at most [`par::GRAD_CHUNK`] rows take the whole-batch
    /// path; larger ones merge per-chunk gradients with weights
    /// `chunk_rows / batch_rows` as described on [`Network`].
    ///
    /// # Panics
    ///
    /// Panics on shape/label mismatches.
    fn train_batch(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        indicator: Option<&[f64]>,
        trainer: &mut AdamTrainer,
    ) -> f64 {
        assert_eq!(labels.len(), x.rows(), "label count mismatch");
        let n = x.rows();
        let ranges = par::chunk_ranges(n, par::GRAD_CHUNK);
        let (loss, grads) = if ranges.len() <= 1 {
            batch_grads(self, x, labels, indicator)
        } else {
            let parts = par::run_chunks(n, par::GRAD_CHUNK, |r| {
                let chunk = x.slice_rows(r.start, r.end);
                batch_grads(
                    self,
                    &chunk,
                    &labels[r.clone()],
                    indicator.map(|ind| &ind[r]),
                )
            });
            let mut loss = 0.0;
            let mut merged: Option<Vec<Matrix>> = None;
            for (range, (chunk_loss, chunk_grads)) in ranges.iter().zip(parts) {
                let weight = range.len() as f64 / n as f64;
                loss += weight * chunk_loss;
                match &mut merged {
                    None => {
                        let mut scaled = chunk_grads;
                        for g in &mut scaled {
                            g.map_inplace(|v| v * weight);
                        }
                        merged = Some(scaled);
                    }
                    Some(acc) => {
                        for (a, g) in acc.iter_mut().zip(&chunk_grads) {
                            a.add_scaled(g, weight);
                        }
                    }
                }
            }
            (loss, merged.expect("at least one chunk"))
        };
        trainer.begin_step();
        let mut off = 0;
        for (param, grad) in self.params_mut().into_iter().zip(&grads) {
            off = trainer.update(off, param, grad);
        }
        debug_assert_eq!(off, trainer.param_count());
        loss
    }

    /// One epoch of minibatch training: shuffles the row order `0..n` with
    /// `rng`, then runs [`train_batch`](Self::train_batch) on consecutive
    /// `batch_size`-row slices of it, gathering each batch's rows, labels
    /// and (when given) indicators. Batches reuse one another's large
    /// scratch buffers for the length of the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `labels` or `indicators` is shorter than `x` has rows.
    fn train_epoch(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        indicators: Option<&[f64]>,
        batch_size: usize,
        trainer: &mut AdamTrainer,
        rng: &mut SmallRng,
    ) {
        let _spares = spare::keep();
        let mut idx: Vec<usize> = (0..x.rows()).collect();
        rng.shuffle(&mut idx);
        for batch in idx.chunks(batch_size.max(1)) {
            let bx = x.select_rows(batch);
            let by: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
            let bi: Option<Vec<f64>> =
                indicators.map(|ind| batch.iter().map(|&i| ind[i]).collect());
            self.train_batch(&bx, &by, bi.as_deref(), trainer);
        }
    }

    /// Mean training loss of a batch without updating weights.
    fn eval_loss(&self, x: &Matrix, labels: &[usize], indicator: Option<&[f64]>) -> f64 {
        let probs = self.predict_proba(x);
        let mut loss = cross_entropy(&probs, labels);
        if let Some(ind) = indicator {
            loss += self.semantic().penalty(&probs, ind);
        }
        loss
    }
}

/// Loss and weight gradients of one (sub-)batch, without updating.
fn batch_grads<N: Network + ?Sized>(
    net: &N,
    x: &Matrix,
    labels: &[usize],
    indicator: Option<&[f64]>,
) -> (f64, Vec<Matrix>) {
    let (logits, cache) = net.forward_cached(x);
    let (probs, mut dz) = softmax_ce_grad(&logits, labels);
    let mut loss = cross_entropy(&probs, labels);
    if let Some(ind) = indicator {
        loss += net.semantic().penalty(&probs, ind);
        net.semantic().add_grad(&probs, ind, &mut dz);
    }
    (loss, net.backward(&cache, dz))
}

impl<N: Network + ?Sized> GradModel for N {
    fn classes(&self) -> usize {
        self.output_dim()
    }

    fn input_width(&self) -> usize {
        self.input_dim()
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        // Softmax is per-row, so fusing it into the chunk map keeps one
        // parallel pass and stays bit-identical to the serial pipeline.
        par::map_rows(x, par::PREDICT_CHUNK, |_, chunk| {
            softmax_rows(&self.logits(chunk))
        })
    }

    fn input_gradient(&self, x: &Matrix, labels: &[usize]) -> Matrix {
        assert_eq!(labels.len(), x.rows(), "label count mismatch");
        let n = x.rows();
        let _spares = spare::keep();
        par::map_rows(x, par::GRAD_CHUNK, |r, chunk| {
            let (logits, cache) = self.forward_cached(chunk);
            let (_, dz) = softmax_ce_grad(&logits, &labels[r.clone()]);
            let mut dx = self.backward_input(&cache, dz);
            if r.len() != n {
                // Per-chunk gradients carry a 1/chunk_rows mean factor;
                // reweight to the batch mean. (Positive scaling — the FGSM
                // sign is unaffected either way.)
                let weight = r.len() as f64 / n as f64;
                dx.map_inplace(|v| v * weight);
            }
            dx
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Constant;

    impl GradModel for Constant {
        fn classes(&self) -> usize {
            2
        }
        fn input_width(&self) -> usize {
            3
        }
        fn predict_proba(&self, x: &Matrix) -> Matrix {
            let mut p = Matrix::zeros(x.rows(), 2);
            for r in 0..x.rows() {
                p.set(r, 0, 0.25);
                p.set(r, 1, 0.75);
            }
            p
        }
        fn input_gradient(&self, x: &Matrix, _labels: &[usize]) -> Matrix {
            Matrix::zeros(x.rows(), x.cols())
        }
    }

    #[test]
    fn default_predict_labels_uses_argmax() {
        let m = Constant;
        let x = Matrix::zeros(4, 3);
        assert_eq!(m.predict_labels(&x), vec![1, 1, 1, 1]);
    }

    #[test]
    fn train_epoch_is_a_shuffled_minibatch_loop() {
        // One epoch = `train_batch` on consecutive slices of the row order
        // `rng` shuffles, each batch carrying its rows' labels and
        // indicators; the shuffled order visits every row once.
        use crate::{init::random_normal, MlpConfig, MlpNet};
        let mut rng = SmallRng::new(3);
        let x = random_normal(10, 3, 1.0, &mut rng);
        let labels: Vec<usize> = (0..10).map(|_| rng.index(2)).collect();
        let ind: Vec<f64> = (0..10).map(|_| rng.index(2) as f64).collect();
        let net = MlpNet::new(&MlpConfig {
            input_dim: 3,
            hidden: vec![4],
            classes: 2,
            seed: 1,
        });
        let mut epoch = net.clone();
        let mut tr = AdamTrainer::new(net.param_count(), 1e-2);
        epoch.train_epoch(&x, &labels, Some(&ind), 4, &mut tr, &mut SmallRng::new(9));

        let mut order: Vec<usize> = (0..10).collect();
        SmallRng::new(9).shuffle(&mut order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        let mut manual = net;
        let mut tr = AdamTrainer::new(manual.param_count(), 1e-2);
        for batch in order.chunks(4) {
            let y: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
            let i: Vec<f64> = batch.iter().map(|&i| ind[i]).collect();
            manual.train_batch(&x.select_rows(batch), &y, Some(&i), &mut tr);
        }
        assert_eq!(epoch.predict_proba(&x), manual.predict_proba(&x));
    }

    #[test]
    fn trait_is_object_safe() {
        let m = Constant;
        let dyn_m: &dyn GradModel = &m;
        assert_eq!(dyn_m.classes(), 2);
    }
}
