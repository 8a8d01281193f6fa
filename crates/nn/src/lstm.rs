//! A standard LSTM layer with full backpropagation through time (BPTT).
//!
//! Gate layout inside the fused pre-activation `z = x·Wx + h·Wh + b`
//! (shape `N × 4H`) is `[input, forget, cell, output]`. The forget-gate bias
//! is initialized to 1.0, the usual trick to avoid vanishing cell gradients
//! early in training.

use crate::activation::{sigmoid, tanh};
use crate::init::xavier_uniform;
use crate::matrix::{seed_rows, Matrix};
use crate::recurrent_net::RecurrentCell;
use crate::rng::SmallRng;
use crate::simd;

/// Reusable buffers for [`Lstm::forward_only_into`]: the fused-gate
/// pre-activation `z`, the running cell state `c`, and the zero initial
/// hidden state. After the first call with a given batch size, subsequent
/// calls allocate nothing.
#[derive(Debug, Clone)]
pub struct LstmScratch {
    z: Matrix,
    c: Matrix,
    h0: Matrix,
}

impl Default for LstmScratch {
    fn default() -> Self {
        Self {
            z: Matrix::zeros(0, 0),
            c: Matrix::zeros(0, 0),
            h0: Matrix::zeros(0, 0),
        }
    }
}

/// Advances the LSTM state one timestep from the fused pre-activation `z`
/// (`N × 4H`, gate order `[i, f, g, o]`), updating `c` in place and writing
/// the new hidden state into `h`.
///
/// Element-wise this computes exactly `c ← f⊙c + i⊙g; h ← o⊙tanh(c)` with
/// the same operation order and the same dispatched per-element
/// transcendentals as the gate-matrix formulation, so every forward path
/// funnelled through here produces identical bits (row-wise kernel:
/// [`cpsmon_nn::simd::lstm_step_row`](crate::simd::lstm_step_row)).
pub(crate) fn step_state(z: &[f64], c: &mut [f64], h: &mut [f64], h_dim: usize) {
    assert_eq!(c.len(), h.len(), "cell/hidden state shape mismatch");
    assert_eq!(z.len(), 4 * c.len(), "gate pre-activation shape mismatch");
    for ((zr, cr), hr) in z
        .chunks_exact(4 * h_dim)
        .zip(c.chunks_exact_mut(h_dim))
        .zip(h.chunks_exact_mut(h_dim))
    {
        simd::lstm_step_row(zr, cr, hr, h_dim);
    }
}

/// One LSTM layer (`input_dim → hidden_dim`).
#[derive(Debug, Clone, PartialEq)]
pub struct Lstm {
    wx: Matrix,
    wh: Matrix,
    b: Matrix,
    input_dim: usize,
    hidden_dim: usize,
}

/// Per-timestep intermediate values cached for the backward pass.
#[derive(Debug, Clone)]
struct StepCache {
    x: Matrix,
    h_prev: Matrix,
    c_prev: Matrix,
    i: Matrix,
    f: Matrix,
    g: Matrix,
    o: Matrix,
    tc: Matrix,
}

/// Forward-pass cache consumed by the backward passes of [`Lstm`].
#[derive(Debug, Clone)]
pub struct LstmCache {
    steps: Vec<StepCache>,
}

impl LstmCache {
    /// Number of timesteps this cache covers.
    pub fn timesteps(&self) -> usize {
        self.steps.len()
    }
}

impl Lstm {
    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// [`RecurrentCell::forward_only`] writing the per-step hidden
    /// states into caller-owned buffers. `hs` is resized to `xs.len()`
    /// matrices of shape `N × hidden`; with a warm `scratch` and correctly
    /// sized `hs` no allocation occurs — the per-step latency path for
    /// streaming monitor sessions.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or any step has the wrong width.
    pub fn forward_only_into(
        &self,
        xs: &[Matrix],
        hs: &mut Vec<Matrix>,
        scratch: &mut LstmScratch,
    ) {
        assert!(!xs.is_empty(), "LSTM forward needs at least one timestep");
        let n = xs[0].rows();
        let h_dim = self.hidden_dim;
        hs.resize_with(xs.len(), || Matrix::zeros(0, 0));
        scratch.z.reset_shape(n, 4 * h_dim);
        scratch.c.reset_shape(n, h_dim);
        scratch.c.map_inplace(|_| 0.0);
        scratch.h0.reset_shape(n, h_dim);
        scratch.h0.map_inplace(|_| 0.0);
        for (t, x) in xs.iter().enumerate() {
            assert_eq!(x.cols(), self.input_dim, "timestep width mismatch");
            assert_eq!(x.rows(), n, "timestep batch-size mismatch");
            x.matmul_add_bias_into(&self.wx, &self.b, &mut scratch.z);
            let (done, todo) = hs.split_at_mut(t);
            let h_prev = if t == 0 { &scratch.h0 } else { &done[t - 1] };
            h_prev.matmul_acc(&self.wh, &mut scratch.z);
            let h_t = &mut todo[0];
            h_t.reset_shape(n, h_dim);
            step_state(
                scratch.z.as_slice(),
                scratch.c.as_mut_slice(),
                h_t.as_mut_slice(),
                h_dim,
            );
        }
    }

    /// Advances `rows` independent recurrent states by **one** timestep:
    /// `z = x·Wx + b + h·Wh`, then the fused gate update rewrites `h` and
    /// `c` in place. `x` is `N × input_dim`; `h` and `c` are `N × hidden`
    /// (row `r` is session `r`'s carried state); `z` is an `N × 4H` scratch
    /// fully overwritten here.
    ///
    /// Row `r` of the batch goes through exactly the per-element operation
    /// sequence a 1-row call would apply (the GEMM accumulates ascending-`k`
    /// per element and [`simd::lstm_step_row`] is row-wise), so batching
    /// sessions together never changes any session's bits — the invariant
    /// the pooled streaming engine's equivalence tests pin down.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn step_rows(&self, x: &Matrix, h: &mut Matrix, c: &mut Matrix, z: &mut Matrix) {
        let n = x.rows();
        assert_eq!(x.cols(), self.input_dim, "step input width mismatch");
        assert_eq!(h.shape(), (n, self.hidden_dim), "hidden state shape");
        assert_eq!(c.shape(), (n, self.hidden_dim), "cell state shape");
        z.reset_shape(n, 4 * self.hidden_dim);
        self.step_slices(
            x.as_slice(),
            h.as_mut_slice(),
            c.as_mut_slice(),
            z.as_mut_slice(),
        );
    }

    /// [`step_rows`](Self::step_rows) on row-major slices, the form each
    /// row chunk of the pooled stateful step takes: `x` is
    /// `rows × input_dim`, `h` and `c` are `rows × hidden`, and `z` is a
    /// `rows × 4·hidden` scratch fully overwritten here.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub(crate) fn step_slices(&self, x: &[f64], h: &mut [f64], c: &mut [f64], z: &mut [f64]) {
        let rows = h.len() / self.hidden_dim;
        let gates = 4 * self.hidden_dim;
        seed_rows(z, self.b.as_slice());
        simd::gemm_acc(x, rows, self.input_dim, self.wx.as_slice(), gates, z);
        simd::gemm_acc(h, rows, self.hidden_dim, self.wh.as_slice(), gates, z);
        step_state(z, c, h, self.hidden_dim);
    }

    /// BPTT over `cache`; the weight gradients `[dWx, dWh, db]` only when
    /// `want_weight_grads`.
    fn backward_impl(
        &self,
        cache: &LstmCache,
        dhs: &[Matrix],
        want_weight_grads: bool,
    ) -> (Option<[Matrix; 3]>, Vec<Matrix>) {
        assert_eq!(dhs.len(), cache.steps.len(), "dhs/timestep count mismatch");
        let h_dim = self.hidden_dim;
        let t_len = cache.steps.len();
        let n = cache.steps[0].x.rows();
        let mut grads = want_weight_grads.then(|| {
            [
                Matrix::zeros(self.input_dim, 4 * h_dim),
                Matrix::zeros(h_dim, 4 * h_dim),
                Matrix::zeros(1, 4 * h_dim),
            ]
        });
        let mut dxs = vec![Matrix::zeros(0, 0); t_len];
        let mut dh_next = Matrix::zeros(n, h_dim);
        let mut dc_next = Matrix::zeros(n, h_dim);
        for t in (0..t_len).rev() {
            let s = &cache.steps[t];
            let dh = &dhs[t] + &dh_next;
            // h = o ⊙ tanh(c)
            let d_o = dh.hadamard(&s.tc);
            let dtc = dh.hadamard(&s.o);
            // d tanh(c) = (1 - tanh(c)^2)
            let mut dc = s.tc.map(|v| 1.0 - v * v).hadamard(&dtc);
            dc += &dc_next;
            // c = f ⊙ c_prev + i ⊙ g
            let d_i = dc.hadamard(&s.g);
            let d_g = dc.hadamard(&s.i);
            let d_f = dc.hadamard(&s.c_prev);
            dc_next = dc.hadamard(&s.f);
            // Through the gate nonlinearities: σ' = σ(1−σ), tanh' = 1−tanh².
            let dz_i = d_i.hadamard(&s.i).hadamard(&s.i.map(|v| 1.0 - v));
            let dz_f = d_f.hadamard(&s.f).hadamard(&s.f.map(|v| 1.0 - v));
            let dz_g = d_g.hadamard(&s.g.map(|v| 1.0 - v * v));
            let dz_o = d_o.hadamard(&s.o).hadamard(&s.o.map(|v| 1.0 - v));
            let mut dz = Matrix::zeros(n, 4 * h_dim);
            dz.set_cols(0, &dz_i);
            dz.set_cols(h_dim, &dz_f);
            dz.set_cols(2 * h_dim, &dz_g);
            dz.set_cols(3 * h_dim, &dz_o);
            if let Some([dwx, dwh, db]) = grads.as_mut() {
                *dwx += &s.x.transpose_matmul(&dz);
                *dwh += &s.h_prev.transpose_matmul(&dz);
                *db += &dz.sum_rows();
            }
            dxs[t] = dz.matmul_tb(&self.wx);
            dh_next = dz.matmul_tb(&self.wh);
        }
        (grads, dxs)
    }

    /// Input-to-hidden weights (`input_dim × 4·hidden`).
    pub fn wx(&self) -> &Matrix {
        &self.wx
    }

    /// Hidden-to-hidden weights (`hidden × 4·hidden`).
    pub fn wh(&self) -> &Matrix {
        &self.wh
    }

    /// Fused gate bias (`1 × 4·hidden`).
    pub fn gate_bias(&self) -> &Matrix {
        &self.b
    }

    /// Test-only access to mutate a weight (used by finite-difference checks).
    #[doc(hidden)]
    pub fn perturb_wx(&mut self, r: usize, c: usize, delta: f64) {
        self.wx.set(r, c, self.wx.get(r, c) + delta);
    }

    /// Test-only access to mutate a recurrent weight.
    #[doc(hidden)]
    pub fn perturb_wh(&mut self, r: usize, c: usize, delta: f64) {
        self.wh.set(r, c, self.wh.get(r, c) + delta);
    }
}

impl RecurrentCell for Lstm {
    const KIND: &'static str = "lstm";
    const TENSORS: &'static [&'static str] = &["wx", "wh", "b"];
    const SEED_SALT: u64 = 0x6c73_746d_5f6e_6574;
    type Cache = LstmCache;

    /// Xavier-uniform weights, zero biases, and forget-gate bias 1.0.
    fn new(input_dim: usize, hidden_dim: usize, rng: &mut SmallRng) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden_dim);
        for c in hidden_dim..2 * hidden_dim {
            b.set(0, c, 1.0);
        }
        Self {
            wx: xavier_uniform(input_dim, 4 * hidden_dim, rng),
            wh: xavier_uniform(hidden_dim, 4 * hidden_dim, rng),
            b,
            input_dim,
            hidden_dim,
        }
    }

    /// Expects `[wx: I×4H, wh: H×4H, b: 1×4H]` with `I, H > 0`.
    fn from_params(tensors: Vec<Matrix>) -> Result<Self, String> {
        let [wx, wh, b]: [Matrix; 3] = tensors
            .try_into()
            .map_err(|t: Vec<Matrix>| format!("expected 3 tensors, got {}", t.len()))?;
        let (input_dim, hidden_dim) = (wx.rows(), wh.rows());
        if input_dim == 0 || hidden_dim == 0 {
            return Err("LSTM dimensions must be positive".into());
        }
        let gates = 4 * hidden_dim;
        if wh.cols() != gates || wx.cols() != gates || b.rows() != 1 || b.cols() != gates {
            return Err(format!(
                "gate shapes inconsistent: wx {}x{}, wh {}x{}, b {}x{} (want I×{gates}, \
                 {hidden_dim}×{gates}, 1×{gates})",
                wx.rows(),
                wx.cols(),
                wh.rows(),
                wh.cols(),
                b.rows(),
                b.cols()
            ));
        }
        Ok(Self {
            wx,
            wh,
            b,
            input_dim,
            hidden_dim,
        })
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    fn forward(&self, xs: &[Matrix]) -> (Vec<Matrix>, LstmCache) {
        assert!(!xs.is_empty(), "LSTM forward needs at least one timestep");
        let n = xs[0].rows();
        let h_dim = self.hidden_dim;
        let mut h = Matrix::zeros(n, h_dim);
        let mut c = Matrix::zeros(n, h_dim);
        let mut hs = Vec::with_capacity(xs.len());
        let mut steps = Vec::with_capacity(xs.len());
        // One fused-gate scratch buffer reused across all timesteps.
        let mut z = Matrix::zeros(n, 4 * h_dim);
        for x in xs {
            assert_eq!(x.cols(), self.input_dim, "timestep width mismatch");
            assert_eq!(x.rows(), n, "timestep batch-size mismatch");
            x.matmul_add_bias_into(&self.wx, &self.b, &mut z);
            h.matmul_acc(&self.wh, &mut z);
            let i = sigmoid(&z.slice_cols(0, h_dim));
            let f = sigmoid(&z.slice_cols(h_dim, 2 * h_dim));
            let g = tanh(&z.slice_cols(2 * h_dim, 3 * h_dim));
            let o = sigmoid(&z.slice_cols(3 * h_dim, 4 * h_dim));
            let c_new = &f.hadamard(&c) + &i.hadamard(&g);
            let tc = tanh(&c_new);
            let h_new = o.hadamard(&tc);
            steps.push(StepCache {
                x: x.clone(),
                h_prev: h,
                c_prev: c,
                i,
                f,
                g,
                o,
                tc,
            });
            hs.push(h_new.clone());
            h = h_new;
            c = c_new;
        }
        (hs, LstmCache { steps })
    }

    /// Skips every backward-cache clone (`x`, `h_prev`, `c_prev`, the gate
    /// activations) that [`forward`](RecurrentCell::forward) must retain.
    /// Thin wrapper over [`forward_only_into`](Lstm::forward_only_into), so
    /// batch and streaming predictions share one code path.
    fn forward_only(&self, xs: &[Matrix]) -> Vec<Matrix> {
        let mut hs = Vec::new();
        let mut scratch = LstmScratch::default();
        self.forward_only_into(xs, &mut hs, &mut scratch);
        hs
    }

    fn backward(&self, cache: &LstmCache, dhs: &[Matrix]) -> (Vec<Matrix>, Vec<Matrix>) {
        let (grads, dxs) = self.backward_impl(cache, dhs, true);
        (grads.expect("weight grads requested").into(), dxs)
    }

    /// Skips the three weight-gradient matmuls per timestep.
    fn backward_input_only(&self, cache: &LstmCache, dhs: &[Matrix]) -> Vec<Matrix> {
        self.backward_impl(cache, dhs, false).1
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.wx, &self.wh, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{max_relative_error, numeric_input_grad};
    use crate::init::random_normal;

    fn objective(lstm: &Lstm, xs: &[Matrix]) -> f64 {
        // Scalar objective: sum of all hidden states over all steps.
        let (hs, _) = lstm.forward(xs);
        hs.iter().map(Matrix::sum).sum()
    }

    #[test]
    fn forward_shapes() {
        let mut rng = SmallRng::new(1);
        let lstm = Lstm::new(3, 5, &mut rng);
        let xs: Vec<Matrix> = (0..4).map(|_| random_normal(2, 3, 1.0, &mut rng)).collect();
        let (hs, cache) = lstm.forward(&xs);
        assert_eq!(hs.len(), 4);
        assert_eq!(cache.timesteps(), 4);
        for h in &hs {
            assert_eq!(h.shape(), (2, 5));
        }
    }

    #[test]
    fn hidden_state_bounded_by_one() {
        // h = o·tanh(c) with o ∈ (0,1) ⇒ |h| < 1 always.
        let mut rng = SmallRng::new(2);
        let lstm = Lstm::new(2, 4, &mut rng);
        let xs: Vec<Matrix> = (0..10)
            .map(|_| random_normal(3, 2, 10.0, &mut rng))
            .collect();
        let (hs, _) = lstm.forward(&xs);
        for h in &hs {
            assert!(h.max_abs() < 1.0);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = SmallRng::new(3);
        let lstm = Lstm::new(3, 4, &mut rng);
        let xs: Vec<Matrix> = (0..3).map(|_| random_normal(2, 3, 0.5, &mut rng)).collect();
        let (hs, cache) = lstm.forward(&xs);
        let dhs: Vec<Matrix> = hs
            .iter()
            .map(|h| Matrix::filled(h.rows(), h.cols(), 1.0))
            .collect();
        let (_, dxs) = lstm.backward(&cache, &dhs);
        for t in 0..3 {
            let num = numeric_input_grad(&xs[t], 1e-5, |xp| {
                let mut xs2 = xs.clone();
                xs2[t] = xp.clone();
                objective(&lstm, &xs2)
            });
            let err = max_relative_error(&dxs[t], &num);
            assert!(err < 1e-6, "step {t} input-grad error {err}");
        }
    }

    #[test]
    fn weight_gradients_match_finite_difference() {
        let mut rng = SmallRng::new(4);
        let lstm = Lstm::new(2, 3, &mut rng);
        let xs: Vec<Matrix> = (0..3).map(|_| random_normal(2, 2, 0.5, &mut rng)).collect();
        let (hs, cache) = lstm.forward(&xs);
        let dhs: Vec<Matrix> = hs
            .iter()
            .map(|h| Matrix::filled(h.rows(), h.cols(), 1.0))
            .collect();
        let (grads, _) = lstm.backward(&cache, &dhs);
        let h = 1e-5;
        // Check a sample of wx entries.
        for (r, c) in [(0, 0), (1, 5), (0, 11), (1, 7)] {
            let mut plus = lstm.clone();
            plus.perturb_wx(r, c, h);
            let mut minus = lstm.clone();
            minus.perturb_wx(r, c, -h);
            let num = (objective(&plus, &xs) - objective(&minus, &xs)) / (2.0 * h);
            let ana = grads[0].get(r, c);
            assert!((ana - num).abs() < 1e-6, "dwx({r},{c}): {ana} vs {num}");
        }
        // And wh entries (these exercise the recurrent path).
        for (r, c) in [(0, 0), (2, 4), (1, 9)] {
            let mut plus = lstm.clone();
            plus.perturb_wh(r, c, h);
            let mut minus = lstm.clone();
            minus.perturb_wh(r, c, -h);
            let num = (objective(&plus, &xs) - objective(&minus, &xs)) / (2.0 * h);
            let ana = grads[1].get(r, c);
            assert!((ana - num).abs() < 1e-6, "dwh({r},{c}): {ana} vs {num}");
        }
    }

    #[test]
    fn last_step_only_gradient_flows_back() {
        // Gradient injected only at the last step must still reach x_0
        // through the recurrent connections.
        let mut rng = SmallRng::new(5);
        let lstm = Lstm::new(2, 3, &mut rng);
        let xs: Vec<Matrix> = (0..4).map(|_| random_normal(1, 2, 0.5, &mut rng)).collect();
        let (hs, cache) = lstm.forward(&xs);
        let mut dhs: Vec<Matrix> = hs
            .iter()
            .map(|h| Matrix::zeros(h.rows(), h.cols()))
            .collect();
        let last = dhs.len() - 1;
        dhs[last] = Matrix::filled(1, 3, 1.0);
        let (_, dxs) = lstm.backward(&cache, &dhs);
        assert!(
            dxs[0].max_abs() > 0.0,
            "no gradient reached the first input"
        );
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = SmallRng::new(6);
        let lstm = Lstm::new(2, 3, &mut rng);
        for c in 3..6 {
            assert_eq!(lstm.b.get(0, c), 1.0);
        }
        for c in 0..3 {
            assert_eq!(lstm.b.get(0, c), 0.0);
        }
    }

    #[test]
    fn deterministic_construction() {
        let a = Lstm::new(4, 8, &mut SmallRng::new(77));
        let b = Lstm::new(4, 8, &mut SmallRng::new(77));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one timestep")]
    fn forward_rejects_empty_sequence() {
        let lstm = Lstm::new(2, 3, &mut SmallRng::new(7));
        let _ = lstm.forward(&[]);
    }

    #[test]
    fn forward_only_matches_cached_forward() {
        let mut rng = SmallRng::new(8);
        let lstm = Lstm::new(3, 5, &mut rng);
        let xs: Vec<Matrix> = (0..6).map(|_| random_normal(2, 3, 1.0, &mut rng)).collect();
        let (hs, _) = lstm.forward(&xs);
        assert_eq!(lstm.forward_only(&xs), hs);
    }

    #[test]
    fn warm_scratch_stays_bit_identical() {
        let mut rng = SmallRng::new(9);
        let lstm = Lstm::new(3, 4, &mut rng);
        let a: Vec<Matrix> = (0..4).map(|_| random_normal(2, 3, 1.0, &mut rng)).collect();
        let b: Vec<Matrix> = (0..4).map(|_| random_normal(2, 3, 1.0, &mut rng)).collect();
        let mut hs = Vec::new();
        let mut scratch = LstmScratch::default();
        lstm.forward_only_into(&a, &mut hs, &mut scratch);
        // Second pass through the now-dirty scratch must match a fresh run.
        lstm.forward_only_into(&b, &mut hs, &mut scratch);
        assert_eq!(hs, lstm.forward_only(&b));
    }
}
