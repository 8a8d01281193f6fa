//! The stacked-LSTM monitor network and its LSTM-only serving paths.
//!
//! [`LstmNet`] is the paper's monitor (§IV-A: two stacked LSTM layers of
//! 128 and 64 units over 6 timesteps and a softmax head): the
//! [`RecurrentNet`] with [`Lstm`] cells, so it trains, differentiates and
//! saves through the shared scaffold. This module adds what only the LSTM
//! serves: the allocation-free windowed prediction path
//! ([`LstmNet::predict_proba_scratch`]) and the stateful streaming step
//! ([`LstmNet::step_stream`]).

use crate::activation::softmax_rows_inplace;
use crate::lstm::{Lstm, LstmScratch};
use crate::matrix::Matrix;
use crate::par;
use crate::recurrent_net::{RecurrentConfig, RecurrentNet};
use crate::simd;

/// The stacked-LSTM softmax classifier over fixed-length windows.
pub type LstmNet = RecurrentNet<Lstm>;

/// Configuration for [`LstmNet::new`].
pub type LstmConfig = RecurrentConfig;

/// Reusable forward buffers for [`LstmNet::predict_proba_scratch`]: the
/// split input timesteps, each layer's hidden-state sequence, per-layer
/// [`LstmScratch`]es, and the logits. After the first call with a given
/// batch size, subsequent calls allocate nothing.
#[derive(Debug, Clone)]
pub struct LstmNetScratch {
    steps: Vec<Matrix>,
    seqs: Vec<Vec<Matrix>>,
    layers: Vec<LstmScratch>,
    logits: Matrix,
}

impl Default for LstmNetScratch {
    fn default() -> Self {
        Self {
            steps: Vec::new(),
            seqs: Vec::new(),
            layers: Vec::new(),
            logits: Matrix::zeros(0, 0),
        }
    }
}

impl LstmNet {
    /// The stacked LSTM layers in forward order.
    pub fn lstm_layers(&self) -> &[Lstm] {
        &self.cells
    }

    /// Class probabilities through caller-owned scratch buffers — the
    /// single-row/small-batch prediction fast path used by streaming
    /// monitor sessions. Runs the same kernels as the batch path
    /// ([`Lstm::forward_only_into`], [`Dense::forward_into`],
    /// [`softmax_rows_inplace`]) so the result is bit-identical to
    /// [`predict_proba`](crate::GradModel::predict_proba) on the same rows,
    /// but performs no allocation once the scratch is warm.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != timesteps · feature_dim`.
    ///
    /// [`Dense::forward_into`]: crate::Dense::forward_into
    pub fn predict_proba_scratch<'s>(
        &self,
        x: &Matrix,
        scratch: &'s mut LstmNetScratch,
    ) -> &'s Matrix {
        assert_eq!(
            x.cols(),
            self.timesteps * self.feature_dim,
            "input width mismatch: expected {}·{}",
            self.timesteps,
            self.feature_dim
        );
        let n = x.rows();
        scratch
            .steps
            .resize_with(self.timesteps, || Matrix::zeros(0, 0));
        for (t, step) in scratch.steps.iter_mut().enumerate() {
            step.reset_shape(n, self.feature_dim);
            x.slice_cols_into(t * self.feature_dim, (t + 1) * self.feature_dim, step);
        }
        scratch.seqs.resize_with(self.cells.len(), Vec::new);
        scratch
            .layers
            .resize_with(self.cells.len(), LstmScratch::default);
        for (i, lstm) in self.cells.iter().enumerate() {
            let (done, todo) = scratch.seqs.split_at_mut(i);
            let input: &[Matrix] = if i == 0 { &scratch.steps } else { &done[i - 1] };
            lstm.forward_only_into(input, &mut todo[0], &mut scratch.layers[i]);
        }
        let last_h = scratch
            .seqs
            .last()
            .and_then(|seq| seq.last())
            .expect("at least one layer and timestep");
        scratch.logits.reset_shape(n, self.head.output_dim());
        self.head.forward_into(last_h, &mut scratch.logits);
        softmax_rows_inplace(&mut scratch.logits);
        &scratch.logits
    }
}

/// Carried recurrent state for a batch of independent streaming sessions,
/// laid out structure-of-arrays: row `r` of every per-layer `h`/`c` matrix
/// is session `r`'s state.
///
/// The `z`/`probs` buffers are per-tick scratch, fully overwritten by each
/// step. A step cuts `h`, `c`, `z` and `probs` into [`par::STEP_CHUNK`]-row
/// views and runs each chunk's whole layer stack as one
/// [`par::for_each_part`] work item, so the buffers stay here and are
/// split, not reallocated. Every chunk reads each layer's `Wx` and `Wh` as
/// the panels the layer caches. After the first tick at a given row count
/// a step allocates only what the fan-out itself needs: the list of
/// per-chunk views (plus one small vector of layer views per chunk) and,
/// when there are several chunks and several threads, the fan-out's job.
#[derive(Debug, Clone)]
pub struct LstmStreamState {
    h: Vec<Matrix>,
    c: Vec<Matrix>,
    z: Vec<f64>,
    probs: Matrix,
    rows: usize,
}

impl Default for LstmStreamState {
    fn default() -> Self {
        Self {
            h: Vec::new(),
            c: Vec::new(),
            z: Vec::new(),
            probs: Matrix::zeros(0, 0),
            rows: 0,
        }
    }
}

/// One row chunk's disjoint views of a step's per-row buffers: the unit of
/// work [`LstmNet::step_stream`] fans out.
struct StepChunk<'a> {
    /// The chunk's records, `rows × feature_dim`.
    x: &'a [f64],
    /// Each layer's carried `(h, c)` rows.
    layers: Vec<(&'a mut [f64], &'a mut [f64])>,
    /// Gate scratch, at least `rows × 4·hidden` for every layer.
    z: &'a mut [f64],
    /// Class probabilities, `rows × classes`.
    probs: &'a mut [f64],
}

impl LstmStreamState {
    /// Number of session rows this state carries.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Zeroes row `i`'s hidden and cell state across all layers — a fresh
    /// session in that slot.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn reset_row(&mut self, i: usize) {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        for m in self.h.iter_mut().chain(self.c.iter_mut()) {
            m.row_mut(i).fill(0.0);
        }
    }

    /// Zeroes every row (all sessions restart).
    pub fn reset(&mut self) {
        for m in self.h.iter_mut().chain(self.c.iter_mut()) {
            m.map_inplace(|_| 0.0);
        }
    }

    /// Packs rows `idx` of `src` into this state (resizing to
    /// `idx.len()` rows) — the pool's gather step before a batched tick.
    ///
    /// # Panics
    ///
    /// Panics if the two states belong to different architectures or any
    /// index is out of range.
    pub fn gather_from(&mut self, src: &LstmStreamState, idx: &[usize]) {
        assert_eq!(self.h.len(), src.h.len(), "layer count mismatch");
        let n = idx.len();
        for (dst, s) in self.h.iter_mut().zip(&src.h) {
            dst.reset_shape(n, s.cols());
            for (r, &i) in idx.iter().enumerate() {
                dst.row_mut(r).copy_from_slice(s.row(i));
            }
        }
        for (dst, s) in self.c.iter_mut().zip(&src.c) {
            dst.reset_shape(n, s.cols());
            for (r, &i) in idx.iter().enumerate() {
                dst.row_mut(r).copy_from_slice(s.row(i));
            }
        }
        self.rows = n;
    }

    /// Writes this state's rows back into rows `idx` of `dst` — the pool's
    /// scatter step after a batched tick.
    ///
    /// # Panics
    ///
    /// Panics on architecture mismatch, `idx.len() != rows()`, or any index
    /// out of range.
    pub fn scatter_to(&self, dst: &mut LstmStreamState, idx: &[usize]) {
        assert_eq!(idx.len(), self.rows, "index count mismatch");
        for (s, d) in self.h.iter().zip(dst.h.iter_mut()) {
            for (r, &i) in idx.iter().enumerate() {
                d.row_mut(i).copy_from_slice(s.row(r));
            }
        }
        for (s, d) in self.c.iter().zip(dst.c.iter_mut()) {
            for (r, &i) in idx.iter().enumerate() {
                d.row_mut(i).copy_from_slice(s.row(r));
            }
        }
    }
}

impl LstmNet {
    /// Fresh zeroed recurrent state for `rows` streaming sessions.
    pub fn stream_state(&self, rows: usize) -> LstmStreamState {
        LstmStreamState {
            h: self
                .cells
                .iter()
                .map(|l| Matrix::zeros(rows, l.hidden_dim()))
                .collect(),
            c: self
                .cells
                .iter()
                .map(|l| Matrix::zeros(rows, l.hidden_dim()))
                .collect(),
            rows,
            ..LstmStreamState::default()
        }
    }

    /// Advances every session row by one timestep and returns the class
    /// probabilities per row (`rows × classes`).
    ///
    /// Unlike the windowed [`predict_proba_scratch`] path — which recomputes
    /// the whole fixed-length window every step — this *carries* `h`/`c`
    /// across calls, costing one timestep of compute per record. Verdicts
    /// therefore reflect the entire stream since the session started (or
    /// since [`LstmStreamState::reset_row`]), not a sliding window, and are
    /// emitted from the very first record (zero initial state).
    ///
    /// The batch runs in [`par::STEP_CHUNK`]-row chunks, each chunk's whole
    /// layer stack one [`par::for_each_part`] work item reading the layers'
    /// cached weight panels; a batch of one chunk runs inline. The chunk
    /// boundaries depend only on the row count, and every kernel invoked
    /// here is row-wise with a fixed per-element operation sequence, so row
    /// `r`'s outputs are bit-identical whether stepped alone or batched
    /// with any other sessions, on any number of threads — the pooled
    /// engine's core invariant.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `state.rows() × feature_dim`.
    ///
    /// [`predict_proba_scratch`]: Self::predict_proba_scratch
    pub fn step_stream<'s>(&self, x: &Matrix, state: &'s mut LstmStreamState) -> &'s Matrix {
        assert_eq!(x.cols(), self.feature_dim, "step width mismatch");
        assert_eq!(state.h.len(), self.cells.len(), "state layer mismatch");
        let n = x.rows();
        assert_eq!(n, state.rows, "state row-count mismatch");
        let widest = self.cells.iter().map(Lstm::hidden_dim).max();
        let gate_width = 4 * widest.expect("at least one layer");
        let classes = self.head.output_dim();
        let rows = par::STEP_CHUNK;
        state.z.resize(n * gate_width, 0.0);
        state.probs.reset_shape(n, classes);
        let mut chunks: Vec<StepChunk<'_>> = x
            .as_slice()
            .chunks(rows * x.cols())
            .zip(state.z.chunks_mut(rows * gate_width))
            .zip(state.probs.as_mut_slice().chunks_mut(rows * classes))
            .map(|((x, z), probs)| StepChunk {
                x,
                layers: Vec::with_capacity(self.cells.len()),
                z,
                probs,
            })
            .collect();
        for (h, c) in state.h.iter_mut().zip(&mut state.c) {
            let len = rows * h.cols();
            let views = h.as_mut_slice().chunks_mut(len);
            let views = views.zip(c.as_mut_slice().chunks_mut(len));
            for (chunk, hc) in chunks.iter_mut().zip(views) {
                chunk.layers.push(hc);
            }
        }
        par::for_each_part(chunks, |chunk| self.step_chunk(chunk));
        &state.probs
    }

    /// One row chunk of [`step_stream`](Self::step_stream): per layer the
    /// fused gate GEMM pair (`x·Wx + b`, then `h·Wh` into the same `z`) and
    /// `lstm_step_row`, then the head GEMM and softmax.
    fn step_chunk(&self, chunk: StepChunk<'_>) {
        let StepChunk {
            x,
            mut layers,
            z,
            probs,
        } = chunk;
        let rows = x.len() / self.feature_dim;
        for (i, lstm) in self.cells.iter().enumerate() {
            let (done, todo) = layers.split_at_mut(i);
            let input: &[f64] = done.last().map_or(x, |(h, _)| &**h);
            let (h, c) = &mut todo[0];
            let z = &mut z[..rows * 4 * lstm.hidden_dim()];
            lstm.step_slices(input, h, c, z);
        }
        let (last_h, _) = layers.last().expect("at least one layer");
        self.head.forward_rows(last_h, rows, probs);
        let classes = self.head.output_dim();
        probs.chunks_exact_mut(classes).for_each(simd::softmax_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_normal;
    use crate::model::GradModel;
    use crate::rng::SmallRng;

    fn tiny_net(seed: u64) -> LstmNet {
        LstmNet::new(&LstmConfig {
            feature_dim: 3,
            timesteps: 4,
            hidden: vec![6, 5],
            classes: 2,
            seed,
        })
    }

    #[test]
    fn scratch_path_bit_identical_to_batch() {
        let net = tiny_net(13);
        let x = random_normal(5, 12, 1.0, &mut SmallRng::new(14));
        let batch = net.predict_proba(&x);
        let mut scratch = LstmNetScratch::default();
        for r in 0..x.rows() {
            let row = x.slice_rows(r, r + 1);
            let p = net.predict_proba_scratch(&row, &mut scratch);
            assert_eq!(p.as_slice(), batch.row(r), "row {r} diverged");
        }
        let sub = x.slice_rows(1, 4);
        let p = net.predict_proba_scratch(&sub, &mut scratch);
        assert_eq!(p.as_slice(), batch.slice_rows(1, 4).as_slice());
    }

    /// `(pool size, threads)` cases for the pooled-step tests: a pool of
    /// `small` rows (one chunk), then three chunks, the last one ragged, at
    /// 1, 2 and 3 threads.
    fn pooled_cases(small: usize) -> [(usize, usize); 4] {
        let big = 2 * par::STEP_CHUNK + 3;
        [(small, 1), (big, 1), (big, 2), (big, 3)]
    }

    #[test]
    fn step_stream_pooled_rows_bit_identical_to_individual() {
        let net = tiny_net(21);
        for (n, threads) in pooled_cases(5) {
            let _guard = par::ThreadsGuard::set(threads);
            let ticks: Vec<Matrix> = (0..7)
                .map(|t| random_normal(n, 3, 1.0, &mut SmallRng::new(100 + t)))
                .collect();
            let mut pooled = net.stream_state(n);
            let mut singles: Vec<_> = (0..n).map(|_| net.stream_state(1)).collect();
            for x in &ticks {
                let batch = net.step_stream(x, &mut pooled).clone();
                for (r, st) in singles.iter_mut().enumerate() {
                    let row = x.slice_rows(r, r + 1);
                    let p = net.step_stream(&row, st);
                    for (a, b) in p.as_slice().iter().zip(batch.row(r)) {
                        assert_eq!(a.to_bits(), b.to_bits(), "row {r} diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn step_stream_from_zero_state_matches_windowed_forward() {
        // A fresh state stepped through a window's records ends where the
        // windowed forward pass over that window ends: both start from zero
        // state and apply the same kernels per timestep. This pins the
        // chunked step's values, not only its pooled == solo invariance.
        let net = tiny_net(25);
        let n = 2 * par::STEP_CHUNK + 3;
        let windows = random_normal(n, 12, 1.0, &mut SmallRng::new(500));
        let want = net.predict_proba(&windows);
        let _guard = par::ThreadsGuard::set(2);
        let mut state = net.stream_state(n);
        for t in 0..4 {
            let x = windows.slice_cols(t * 3, (t + 1) * 3);
            net.step_stream(&x, &mut state);
        }
        for (a, b) in state.probs.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "stateful {a} vs windowed {b}");
        }
    }

    #[test]
    fn paper_width_paths_bit_identical_around_pack_threshold() {
        // The paper's monitor (128-64 units, 6 features over 6 steps) runs
        // 512- and 256-wide gate GEMMs and k = 512 backward products. At
        // row counts on both sides of `simd::PACK_MIN_M` every path — the
        // windowed batch and scratch forwards, the stateful step from zero
        // state and the cached training forward — must give the same bits,
        // and gradients and a training step must not depend on the thread
        // count.
        use crate::activation::softmax_rows;
        use crate::adam::AdamTrainer;
        use crate::model::Network;
        let net = LstmNet::new(&LstmConfig::paper(6));
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let train_once = |x: &Matrix, labels: &[usize]| {
            let mut net = net.clone();
            let mut trainer = AdamTrainer::new(net.param_count(), 1e-3);
            net.train_batch(x, labels, None, &mut trainer);
            let params = net.params_mut();
            params.iter().flat_map(|m| bits(m)).collect::<Vec<_>>()
        };
        for rows in [1, 63, 64, 65, 300] {
            let x = random_normal(rows, 36, 1.0, &mut SmallRng::new(rows as u64));
            let labels: Vec<usize> = (0..rows).map(|r| r % 2).collect();
            let proba = bits(&net.predict_proba(&x));
            let mut scratch = LstmNetScratch::default();
            let scratch_proba = net.predict_proba_scratch(&x, &mut scratch);
            assert_eq!(bits(scratch_proba), proba, "scratch forward, {rows} rows");
            let mut state = net.stream_state(rows);
            for t in 0..6 {
                net.step_stream(&x.slice_cols(t * 6, (t + 1) * 6), &mut state);
            }
            assert_eq!(bits(&state.probs), proba, "stateful steps, {rows} rows");
            let (logits, _) = net.forward_cached(&x);
            assert_eq!(bits(&logits), bits(&net.logits(&x)), "logits, {rows} rows");
            assert_eq!(
                bits(&softmax_rows(&logits)),
                proba,
                "cached forward, {rows} rows"
            );

            let grad = bits(&net.input_gradient(&x, &labels));
            let trained = train_once(&x, &labels);
            let _one = par::ThreadsGuard::set(1);
            assert_eq!(
                bits(&net.predict_proba(&x)),
                proba,
                "1-thread predict, {rows} rows"
            );
            let grad_one = bits(&net.input_gradient(&x, &labels));
            assert_eq!(grad_one, grad, "input gradient, {rows} rows");
            assert_eq!(train_once(&x, &labels), trained, "train_batch, {rows} rows");
        }
    }

    #[test]
    fn gather_scatter_roundtrip_and_reset_row() {
        let net = tiny_net(24);
        let n = 6;
        let mut master = net.stream_state(n);
        let x = random_normal(n, 3, 1.0, &mut SmallRng::new(400));
        net.step_stream(&x, &mut master);
        // Gather a ragged subset, advance it, scatter back: untouched rows
        // must be unchanged and gathered rows must match a full-batch step
        // of the same inputs.
        let idx = [4usize, 1, 5];
        let mut packed = net.stream_state(0);
        packed.gather_from(&master, &idx);
        assert_eq!(packed.rows(), 3);
        let x2 = random_normal(n, 3, 1.0, &mut SmallRng::new(401));
        let mut reference = master.clone();
        let xsub = Matrix::from_rows(&[x2.row(4), x2.row(1), x2.row(5)]);
        let p_packed = net.step_stream(&xsub, &mut packed).clone();
        let p_full = net.step_stream(&x2, &mut reference).clone();
        for (r, &i) in idx.iter().enumerate() {
            for (a, b) in p_packed.row(r).iter().zip(p_full.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "gathered row {i} diverged");
            }
        }
        packed.scatter_to(&mut master, &idx);
        // Scattered-back state must step identically to the reference state.
        let x3 = random_normal(n, 3, 1.0, &mut SmallRng::new(402));
        let q1 = net.step_stream(&x3, &mut master).clone();
        let q2 = net.step_stream(&x3, &mut reference).clone();
        let touched: Vec<usize> = idx.to_vec();
        for i in touched {
            for (a, b) in q1.row(i).iter().zip(q2.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "post-scatter row {i}");
            }
        }
        // reset_row gives the same verdict stream as a brand-new session.
        master.reset_row(2);
        let mut fresh = net.stream_state(1);
        let x4 = random_normal(n, 3, 1.0, &mut SmallRng::new(403));
        let pm = net.step_stream(&x4, &mut master).clone();
        let pf = net.step_stream(&x4.slice_rows(2, 3), &mut fresh).clone();
        for (a, b) in pm.row(2).iter().zip(pf.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "reset row diverged");
        }
    }
}
