//! The stacked-recurrent monitor network, generic over its cell.
//!
//! Architecture per the paper (§IV-A): stacked recurrent layers over an
//! input window of fixed length, followed by a fully connected softmax
//! layer, trained with Adam and sparse categorical cross-entropy (plus the
//! optional semantic loss for the "Custom" variant). The paper's monitor is
//! the two-layer LSTM ([`LstmNet`](crate::LstmNet), 128-64 units over 6
//! timesteps); the GRU ([`GruNet`](crate::GruNet)) is the
//! architecture-ablation cell.
//!
//! Inputs are flat `N × (timesteps · feature_dim)` matrices laid out
//! time-major; [`RecurrentNet`] splits them internally. This keeps one
//! uniform input representation across every monitor architecture so the
//! attack toolkit can perturb any of them through the same
//! [`GradModel`](crate::GradModel) interface.

use crate::dense::Dense;
use crate::loss::SemanticLoss;
use crate::matrix::Matrix;
use crate::model::Network;
use crate::rng::SmallRng;

/// One recurrent layer type a [`RecurrentNet`] can stack: its
/// construction, its passes over a sequence, its parameter list, and its
/// `cpsmon-net` file-format names.
pub trait RecurrentCell: Sized + Sync {
    /// The net kind in the `cpsmon-net` magic, the layer-count key
    /// (`<KIND>s`) and the tensor-name prefix (`<KIND><i>.<tensor>`).
    const KIND: &'static str;

    /// Per-layer tensor names, in [`params`](Self::params) order.
    const TENSORS: &'static [&'static str];

    /// Salt XORed into the config seed before a network draws its weights.
    const SEED_SALT: u64;

    /// What [`forward`](Self::forward) keeps for the backward passes.
    type Cache;

    /// A layer with freshly initialized weights drawn from `rng`.
    fn new(input_dim: usize, hidden_dim: usize, rng: &mut SmallRng) -> Self;

    /// Rebuilds a layer from the tensors of [`params`](Self::params)
    /// order (used by deserialization).
    ///
    /// # Errors
    ///
    /// Returns a description of the first shape inconsistency, if any.
    fn from_params(tensors: Vec<Matrix>) -> Result<Self, String>;

    /// Input width.
    fn input_dim(&self) -> usize;

    /// Hidden-state width.
    fn hidden_dim(&self) -> usize;

    /// Runs the layer over a sequence (`xs[t]` is the `N × input_dim` batch
    /// at timestep `t`) from zero state. Returns the hidden state at every
    /// timestep and the cache for the backward passes.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or any step has the wrong width.
    fn forward(&self, xs: &[Matrix]) -> (Vec<Matrix>, Self::Cache);

    /// [`forward`](Self::forward) keeping only the hidden states (the
    /// prediction path).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or any step has the wrong width.
    fn forward_only(&self, xs: &[Matrix]) -> Vec<Matrix>;

    /// Backpropagation through time. `dhs[t]` is the loss gradient with
    /// respect to the hidden state emitted at step `t` (zeros for unused
    /// steps). Returns the weight gradients in [`params`](Self::params)
    /// order and, when `input_grads`, `dxs[t]`, the gradient with respect
    /// to each input step (the bottom layer of a training pass has no use
    /// for them and skips their products).
    ///
    /// # Panics
    ///
    /// Panics if `dhs.len()` differs from the cached timestep count.
    fn backward(
        &self,
        cache: &Self::Cache,
        dhs: &[Matrix],
        input_grads: bool,
    ) -> (Vec<Matrix>, Option<Vec<Matrix>>);

    /// [`backward`](Self::backward) computing only the input gradients
    /// (the attack path, with the weights frozen).
    ///
    /// # Panics
    ///
    /// Panics if `dhs.len()` differs from the cached timestep count.
    fn backward_input_only(&self, cache: &Self::Cache, dhs: &[Matrix]) -> Vec<Matrix>;

    /// The trainable tensors in Adam-slot and file order.
    fn params(&self) -> Vec<&Matrix>;

    /// [`params`](Self::params), mutably.
    fn params_mut(&mut self) -> Vec<&mut Matrix>;
}

/// Configuration for [`RecurrentNet::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrentConfig {
    /// Features per timestep.
    pub feature_dim: usize,
    /// Number of timesteps in the input window; the paper uses 6.
    pub timesteps: usize,
    /// Stacked hidden sizes; the paper uses `[128, 64]`.
    pub hidden: Vec<usize>,
    /// Number of output classes (2 for safe/unsafe).
    pub classes: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl RecurrentConfig {
    /// The paper's monitor architecture (128-64, 6 steps).
    pub fn paper(feature_dim: usize) -> Self {
        Self {
            feature_dim,
            timesteps: 6,
            hidden: vec![128, 64],
            classes: 2,
            seed: 0,
        }
    }
}

/// A stacked-recurrent softmax classifier over fixed-length windows.
#[derive(Debug, Clone)]
pub struct RecurrentNet<C> {
    pub(crate) cells: Vec<C>,
    pub(crate) head: Dense,
    pub(crate) feature_dim: usize,
    pub(crate) timesteps: usize,
    /// Optional semantic loss used when an indicator batch is supplied.
    pub semantic: SemanticLoss,
}

impl<C: RecurrentCell> RecurrentNet<C> {
    /// Builds the network described by `config`: the cells bottom-up, then
    /// the head, all drawn from one RNG seeded with
    /// `config.seed ^ C::SEED_SALT`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `hidden` is empty.
    pub fn new(config: &RecurrentConfig) -> Self {
        assert!(config.feature_dim > 0, "feature_dim must be positive");
        assert!(config.timesteps > 0, "timesteps must be positive");
        assert!(config.classes > 0, "classes must be positive");
        assert!(
            !config.hidden.is_empty(),
            "need at least one recurrent layer"
        );
        assert!(
            config.hidden.iter().all(|&h| h > 0),
            "hidden widths must be positive"
        );
        let mut rng = SmallRng::new(config.seed ^ C::SEED_SALT);
        let mut prev = config.feature_dim;
        let mut cells = Vec::with_capacity(config.hidden.len());
        for &h in &config.hidden {
            cells.push(C::new(prev, h, &mut rng));
            prev = h;
        }
        let head = Dense::new(prev, config.classes, &mut rng);
        Self {
            cells,
            head,
            feature_dim: config.feature_dim,
            timesteps: config.timesteps,
            semantic: SemanticLoss::default(),
        }
    }

    /// Number of timesteps per window.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// Features per timestep.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The dense softmax head.
    pub fn head(&self) -> &Dense {
        &self.head
    }

    /// Splits a flat time-major batch into per-timestep matrices.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != timesteps · feature_dim`.
    fn split_steps(&self, x: &Matrix) -> Vec<Matrix> {
        assert_eq!(
            x.cols(),
            self.timesteps * self.feature_dim,
            "input width mismatch: expected {}·{}",
            self.timesteps,
            self.feature_dim
        );
        (0..self.timesteps)
            .map(|t| x.slice_cols(t * self.feature_dim, (t + 1) * self.feature_dim))
            .collect()
    }

    /// Re-assembles per-timestep gradients into the flat input layout.
    fn join_steps(&self, dxs: &[Matrix]) -> Matrix {
        let n = dxs[0].rows();
        let mut out = Matrix::zeros(n, self.timesteps * self.feature_dim);
        for (t, dx) in dxs.iter().enumerate() {
            out.set_cols(t * self.feature_dim, dx);
        }
        out
    }

    /// Seed gradient for the stacked backward passes: only the last
    /// timestep of the top layer receives signal from the head.
    fn seed_dhs(&self, dh_last: Matrix) -> Vec<Matrix> {
        let n = dh_last.rows();
        let top = self.cells.last().expect("at least one layer").hidden_dim();
        let mut dhs: Vec<Matrix> = (0..self.timesteps).map(|_| Matrix::zeros(n, top)).collect();
        dhs[self.timesteps - 1] = dh_last;
        dhs
    }
}

impl<C: RecurrentCell> Network for RecurrentNet<C> {
    /// Every layer's cache, then the top layer's last hidden state (the
    /// head's input).
    type Cache = (Vec<C::Cache>, Matrix);

    fn input_dim(&self) -> usize {
        self.timesteps * self.feature_dim
    }

    fn output_dim(&self) -> usize {
        self.head.output_dim()
    }

    fn semantic(&self) -> &SemanticLoss {
        &self.semantic
    }

    fn logits(&self, x: &Matrix) -> Matrix {
        let mut seq = self.split_steps(x);
        for cell in &self.cells {
            seq = cell.forward_only(&seq);
        }
        let last_h = seq.pop().expect("at least one timestep");
        self.head.forward(&last_h)
    }

    fn forward_cached(&self, x: &Matrix) -> (Matrix, Self::Cache) {
        let mut seq = self.split_steps(x);
        let mut caches = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let (hs, cache) = cell.forward(&seq);
            caches.push(cache);
            seq = hs;
        }
        let last_h = seq.pop().expect("at least one timestep");
        (self.head.forward(&last_h), (caches, last_h))
    }

    fn backward(&self, (caches, last_h): &Self::Cache, dz: Matrix) -> Vec<Matrix> {
        let (head_grads, dh_last) = self.head.backward(last_h, &dz, true);
        let mut dseq = self.seed_dhs(dh_last.expect("input grad requested"));
        let mut cell_grads = Vec::with_capacity(self.cells.len());
        for (l, (cell, cache)) in self.cells.iter().zip(caches).enumerate().rev() {
            // The bottom layer's input gradients would be dropped.
            let (grads, dxs) = cell.backward(cache, &dseq, l > 0);
            cell_grads.push(grads);
            if let Some(dxs) = dxs {
                dseq = dxs;
            }
        }
        cell_grads
            .into_iter()
            .rev()
            .flatten()
            .chain(head_grads)
            .collect()
    }

    fn backward_input(&self, (caches, _): &Self::Cache, dz: Matrix) -> Matrix {
        let dh_last = dz.matmul_tb(self.head.weights());
        let mut dseq = self.seed_dhs(dh_last);
        for (cell, cache) in self.cells.iter().zip(caches).rev() {
            dseq = cell.backward_input_only(cache, &dseq);
        }
        self.join_steps(&dseq)
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let cells = self.cells.iter_mut().flat_map(C::params_mut);
        cells.chain(self.head.params_mut()).collect()
    }

    fn param_count(&self) -> usize {
        let cells: usize = self.cells.iter().flat_map(C::params).map(Matrix::len).sum();
        cells + self.head.param_count()
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
    use crate::{Gru, Lstm};

    fn tiny_net<C: RecurrentCell>(seed: u64) -> RecurrentNet<C> {
        RecurrentNet::new(&RecurrentConfig {
            feature_dim: 3,
            timesteps: 4,
            hidden: vec![6, 5],
            classes: 2,
            seed,
        })
    }

    #[test]
    fn proba_rows_sum_to_one() {
        fn check<C: RecurrentCell>() {
            let x = random_normal(4, 12, 1.0, &mut SmallRng::new(2));
            let p = tiny_net::<C>(1).predict_proba(&x);
            assert_eq!(p.shape(), (4, 2));
            for r in 0..4 {
                let s: f64 = p.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-12);
            }
        }
        check::<Lstm>();
        check::<Gru>();
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        fn check<C: RecurrentCell>() {
            let net = tiny_net::<C>(3);
            let x = random_normal(2, 12, 0.6, &mut SmallRng::new(4));
            let labels = vec![1usize, 0];
            let ana = net.input_gradient(&x, &labels);
            let num = numeric_input_grad(&x, 1e-6, |xp| {
                cross_entropy(&net.predict_proba(xp), &labels)
            });
            let err = max_relative_error(&ana, &num);
            assert!(err < 1e-5, "{} input-grad error {err}", C::KIND);
        }
        check::<Lstm>();
        check::<Gru>();
    }

    #[test]
    fn gradient_reaches_every_timestep() {
        fn check<C: RecurrentCell>() {
            let x = random_normal(1, 12, 0.6, &mut SmallRng::new(6));
            let g = tiny_net::<C>(5).input_gradient(&x, &[1]);
            for t in 0..4 {
                let step = g.slice_cols(t * 3, (t + 1) * 3);
                assert!(
                    step.max_abs() > 0.0,
                    "no {} gradient at timestep {t}",
                    C::KIND
                );
            }
        }
        check::<Lstm>();
        check::<Gru>();
    }

    #[test]
    fn training_learns_sequence_rule() {
        // Label = 1 iff the *first* timestep's first feature is positive —
        // forces memory across the sequence.
        fn check<C: RecurrentCell>() {
            let mut rng = SmallRng::new(7);
            let mut rows = Vec::new();
            let mut labels = Vec::new();
            for _ in 0..60 {
                let y = rng.bernoulli(0.5) as usize;
                let mut row = vec![0.0; 12];
                for (i, v) in row.iter_mut().enumerate() {
                    *v = rng.normal_with(0.0, 0.3);
                    if i == 0 {
                        *v = if y == 1 { 1.5 } else { -1.5 } + rng.normal_with(0.0, 0.2);
                    }
                }
                rows.push(row);
                labels.push(y);
            }
            let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let x = Matrix::from_rows(&refs);
            let mut net = tiny_net::<C>(8);
            let mut trainer = AdamTrainer::new(net.param_count(), 0.02);
            for _ in 0..150 {
                net.train_batch(&x, &labels, None, &mut trainer);
            }
            let preds = net.predict_labels(&x);
            let correct = preds.iter().zip(&labels).filter(|(p, y)| p == y).count();
            assert!(correct >= 55, "{}: only {correct}/60 correct", C::KIND);
        }
        check::<Lstm>();
        check::<Gru>();
    }

    #[test]
    fn epoch_reusing_spare_buffers_matches_fresh_batches() {
        // `train_epoch` lets batches reuse one another's cache and scratch
        // buffers, stale contents included; a loop of `train_batch` calls
        // outside any epoch allocates them fresh. The weights must agree
        // bit for bit, with 64-row chunks, a ragged last chunk and a
        // ragged last batch.
        fn check<C: RecurrentCell>() {
            let mut rng = SmallRng::new(21);
            let x = random_normal(300, 12, 1.0, &mut rng);
            let labels: Vec<usize> = (0..300).map(|_| rng.index(2)).collect();
            let mut epoch = tiny_net::<C>(22);
            let mut tr = AdamTrainer::new(epoch.param_count(), 1e-2);
            epoch.train_epoch(&x, &labels, None, 140, &mut tr, &mut SmallRng::new(23));

            let mut order: Vec<usize> = (0..300).collect();
            SmallRng::new(23).shuffle(&mut order);
            let mut fresh = tiny_net::<C>(22);
            let mut tr = AdamTrainer::new(fresh.param_count(), 1e-2);
            for batch in order.chunks(140) {
                let y: Vec<usize> = batch.iter().map(|&i| labels[i]).collect();
                fresh.train_batch(&x.select_rows(batch), &y, None, &mut tr);
            }
            let bits = |n: &mut RecurrentNet<C>| -> Vec<u64> {
                let params = n.params_mut();
                params
                    .iter()
                    .flat_map(|m| m.as_slice())
                    .map(|v| v.to_bits())
                    .collect()
            };
            assert_eq!(bits(&mut epoch), bits(&mut fresh), "{}", C::KIND);
        }
        check::<Lstm>();
        check::<Gru>();
    }

    #[test]
    fn paper_architecture_has_expected_param_count() {
        let lstm = RecurrentNet::<Lstm>::new(&RecurrentConfig::paper(6));
        let lstm1 = 4 * (6 * 128 + 128 * 128 + 128);
        let lstm2 = 4 * (128 * 64 + 64 * 64 + 64);
        let head = 64 * 2 + 2;
        assert_eq!(lstm.param_count(), lstm1 + lstm2 + head);
        let gru = RecurrentNet::<Gru>::new(&RecurrentConfig::paper(6));
        let gru1 = 3 * (6 * 128 + 128 * 128 + 128);
        let gru2 = 3 * (128 * 64 + 64 * 64 + 64);
        assert_eq!(gru.param_count(), gru1 + gru2 + head);
    }

    #[test]
    fn deterministic_given_seed() {
        fn check<C: RecurrentCell>() {
            let x = random_normal(2, 12, 1.0, &mut SmallRng::new(1));
            let (a, b) = (tiny_net::<C>(11), tiny_net::<C>(11));
            assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
        }
        check::<Lstm>();
        check::<Gru>();
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn rejects_wrong_input_width() {
        let _ = tiny_net::<Lstm>(12).predict_proba(&Matrix::zeros(1, 11));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn gru_rejects_wrong_input_width() {
        let _ = tiny_net::<Gru>(12).predict_proba(&Matrix::zeros(1, 11));
    }
}
