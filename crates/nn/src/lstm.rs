//! A standard LSTM layer with full backpropagation through time (BPTT).
//!
//! Gate layout inside the fused pre-activation `z = x·Wx + h·Wh + b`
//! (shape `N × 4H`) is `[input, forget, cell, output]`. The forget-gate bias
//! is initialized to 1.0, the usual trick to avoid vanishing cell gradients
//! early in training.

use crate::init::xavier_uniform;
use crate::matrix::{seed_rows, transpose_matmul_acc, Matrix};
use crate::recurrent_net::RecurrentCell;
use crate::rng::SmallRng;
use crate::simd::{self, PackedB};
use crate::spare;
use crate::weights::Weights;

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

/// One LSTM layer (`input_dim → hidden_dim`). `Wx` and `Wh` keep their
/// GEMM panel layout once a product has needed it.
#[derive(Debug, Clone, PartialEq)]
pub struct Lstm {
    wx: Weights,
    wh: Weights,
    b: Matrix,
    input_dim: usize,
    hidden_dim: usize,
}

/// Forward-pass cache consumed by the backward passes of [`Lstm`]: five
/// flat buffers per layer, each holding one row-major block per timestep
/// (for `T` steps of `N` rows, `I` inputs and `H` hidden units):
///
/// - `xs`: `T` blocks of `N × I`, the inputs;
/// - `hs`, `cs`: `T + 1` blocks of `N × H`, the hidden and cell state
///   entering step `t` (block 0 is the zero initial state; block `T` is
///   the final state);
/// - `acts`: `T` blocks of `N × 4H`, the activated gates `[i, f, g, o]`;
/// - `tcs`: `T` blocks of `N × H`, `tanh(c)` after step `t`.
///
/// The buffers come from and return to the crate's spare buffers, so a
/// training epoch reuses them batch after batch.
#[derive(Debug, Clone)]
pub struct LstmCache {
    rows: usize,
    timesteps: usize,
    xs: Vec<f64>,
    hs: Vec<f64>,
    cs: Vec<f64>,
    acts: Vec<f64>,
    tcs: Vec<f64>,
}

impl LstmCache {
    /// Number of timesteps this cache covers.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }
}

impl Drop for LstmCache {
    fn drop(&mut self) {
        let bufs = [
            &mut self.xs,
            &mut self.hs,
            &mut self.cs,
            &mut self.acts,
            &mut self.tcs,
        ];
        spare::give(bufs.map(std::mem::take));
    }
}

/// `wᵀ` packed for a backward pass of `rows` rows: the right operand of
/// every per-timestep `dz·Wᵀ` product.
fn packed_transpose(w: &Matrix, rows: usize) -> PackedB {
    let mut t = PackedB::default();
    t.pack_transposed(w.as_slice(), w.cols(), w.rows(), rows);
    t
}

/// `dw += aᵀ·dz` with the product formed fresh in `scratch` and then
/// added: the per-timestep weight-gradient order (`a` is `rows × cols`,
/// `dz` is `rows × dz_cols`).
fn add_step_product(
    dw: &mut Matrix,
    a: &[f64],
    rows: usize,
    cols: usize,
    dz: &[f64],
    dz_cols: usize,
    scratch: &mut [f64],
) {
    let step = &mut scratch[..cols * dz_cols];
    step.fill(0.0);
    transpose_matmul_acc(a, rows, cols, dz, dz_cols, step);
    for (d, &v) in dw.as_mut_slice().iter_mut().zip(step.iter()) {
        *d += v;
    }
}

/// One timestep of BPTT through the gates, fused into a single pass.
/// From the hidden-state gradient `dh = dh_in + dh_next` and the carried
/// cell gradient `dc_next`, writes the pre-activation gradient `dz`
/// (`[dz_i, dz_f, dz_g, dz_o]` per row) and replaces `dc_next` with the
/// gradient reaching the previous step's cell state. Each element goes
/// through the operations of the gate equations in the order written
/// below, rounding after every multiply and add.
#[allow(clippy::too_many_arguments)]
fn gate_grads(
    acts: &[f64],
    tc: &[f64],
    c_prev: &[f64],
    dh_in: &[f64],
    dh_next: &[f64],
    dc_next: &mut [f64],
    dz: &mut [f64],
    h_dim: usize,
) {
    let g4 = 4 * h_dim;
    for (r, (dz_row, a)) in dz
        .chunks_exact_mut(g4)
        .zip(acts.chunks_exact(g4))
        .enumerate()
    {
        let span = r * h_dim..(r + 1) * h_dim;
        let (tc, c_prev) = (&tc[span.clone()], &c_prev[span.clone()]);
        let (dh_in, dh_next) = (&dh_in[span.clone()], &dh_next[span.clone()]);
        let dc_next = &mut dc_next[span];
        let (gi, gf, gg, go) = (
            &a[..h_dim],
            &a[h_dim..2 * h_dim],
            &a[2 * h_dim..3 * h_dim],
            &a[3 * h_dim..],
        );
        let (dz_i, rest) = dz_row.split_at_mut(h_dim);
        let (dz_f, rest) = rest.split_at_mut(h_dim);
        let (dz_g, dz_o) = rest.split_at_mut(h_dim);
        for j in 0..h_dim {
            let (i, f, g, o) = (gi[j], gf[j], gg[j], go[j]);
            let dh = dh_in[j] + dh_next[j];
            // h = o ⊙ tanh(c)
            let d_o = dh * tc[j];
            let dtc = dh * o;
            // tanh'(c) = 1 − tanh²(c), plus the gradient carried from t+1.
            let dc = (1.0 - tc[j] * tc[j]) * dtc + dc_next[j];
            // c = f ⊙ c_prev + i ⊙ g
            dc_next[j] = dc * f;
            // Through the gate nonlinearities: σ' = σ(1−σ), tanh' = 1−tanh².
            dz_i[j] = dc * g * i * (1.0 - i);
            dz_f[j] = dc * c_prev[j] * f * (1.0 - f);
            dz_g[j] = dc * i * (1.0 - g * g);
            dz_o[j] = d_o * o * (1.0 - o);
        }
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

    /// The gate pre-activation `z = b + x·Wx + h·Wh` of `rows` rows (`x` is
    /// `rows × input`, `h` is `rows × hidden`, `z` is `rows × 4·hidden`):
    /// each element is the bias followed by the ascending-`k` multiply-adds
    /// of `x·Wx`, then those of `h·Wh` (see [`Weights::gemm_acc`]).
    fn gates(&self, x: &[f64], h: &[f64], rows: usize, z: &mut [f64]) {
        seed_rows(z, self.b.as_slice());
        self.wx.gemm_acc(x, rows, z);
        self.wh.gemm_acc(h, rows, z);
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
            let (done, todo) = hs.split_at_mut(t);
            let h_prev = if t == 0 { &scratch.h0 } else { &done[t - 1] };
            let z = scratch.z.as_mut_slice();
            self.gates(x.as_slice(), h_prev.as_slice(), n, z);
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
        let z = z.as_mut_slice();
        self.step_slices(x.as_slice(), h.as_mut_slice(), c.as_mut_slice(), z);
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
        self.gates(x, h, rows, z);
        step_state(z, c, h, self.hidden_dim);
    }

    /// BPTT over `cache`: the weight gradients `[dWx, dWh, db]` when
    /// `weight_grads`, the input gradients `dxs[t]` when `input_grads`.
    ///
    /// Per timestep (last first): one fused [`gate_grads`] pass, then the
    /// GEMMs. Each weight gradient gains its step's product formed fresh
    /// (`dW += x_tᵀ·dz_t`, never-fused), `db` its step's row sum, and
    /// `dxs[t] = dz·Wxᵀ`, `dh_next = dz·Whᵀ` run through
    /// [`simd::gemm_acc_packed`] against weights transposed and packed once
    /// per call. Step 0's `dz·Whᵀ` would feed no earlier step and is
    /// skipped.
    fn backward_impl(
        &self,
        cache: &LstmCache,
        dhs: &[Matrix],
        weight_grads: bool,
        input_grads: bool,
    ) -> (Option<[Matrix; 3]>, Option<Vec<Matrix>>) {
        let t_len = cache.timesteps;
        assert_eq!(dhs.len(), t_len, "dhs/timestep count mismatch");
        let n = cache.rows;
        let (i_dim, h_dim) = (self.input_dim, self.hidden_dim);
        let g4 = 4 * h_dim;
        let (nx, nh) = (n * i_dim, n * h_dim);
        let wx_t = input_grads.then(|| packed_transpose(self.wx(), n));
        let wh_t = packed_transpose(self.wh(), n);
        let mut grads = weight_grads.then(|| {
            [
                Matrix::zeros(i_dim, g4),
                Matrix::zeros(h_dim, g4),
                Matrix::zeros(1, g4),
            ]
        });
        let step_len = if weight_grads {
            i_dim.max(h_dim) * g4
        } else {
            0
        };
        let mut dw_step = spare::take(step_len);
        let mut db_step = vec![0.0; g4];
        let mut dxs = input_grads.then(|| vec![Matrix::zeros(0, 0); t_len]);
        let mut dz = spare::take(n * g4);
        let mut dh_next = spare::take(nh);
        dh_next.fill(0.0);
        let mut dc_next = spare::take(nh);
        dc_next.fill(0.0);
        for t in (0..t_len).rev() {
            assert_eq!(dhs[t].shape(), (n, h_dim), "dh shape mismatch");
            let block = t * nh..(t + 1) * nh;
            gate_grads(
                &cache.acts[t * n * g4..(t + 1) * n * g4],
                &cache.tcs[block.clone()],
                &cache.cs[block.clone()],
                dhs[t].as_slice(),
                &dh_next,
                &mut dc_next,
                &mut dz,
                h_dim,
            );
            if let Some([dwx, dwh, db]) = grads.as_mut() {
                let x = &cache.xs[t * nx..(t + 1) * nx];
                add_step_product(dwx, x, n, i_dim, &dz, g4, &mut dw_step);
                add_step_product(dwh, &cache.hs[block], n, h_dim, &dz, g4, &mut dw_step);
                db_step.fill(0.0);
                for row in dz.chunks_exact(g4) {
                    for (s, &v) in db_step.iter_mut().zip(row) {
                        *s += v;
                    }
                }
                for (d, &s) in db.as_mut_slice().iter_mut().zip(&db_step) {
                    *d += s;
                }
            }
            if let (Some(dxs), Some(wx_t)) = (dxs.as_mut(), wx_t.as_ref()) {
                let mut dx = Matrix::zeros(n, i_dim);
                simd::gemm_acc_packed(&dz, n, wx_t, dx.as_mut_slice());
                dxs[t] = dx;
            }
            if t > 0 {
                dh_next.fill(0.0);
                simd::gemm_acc_packed(&dz, n, &wh_t, &mut dh_next);
            }
        }
        spare::give([dw_step, dz, dh_next, dc_next]);
        (grads, dxs)
    }

    /// Input-to-hidden weights (`input_dim × 4·hidden`).
    pub fn wx(&self) -> &Matrix {
        self.wx.matrix()
    }

    /// Hidden-to-hidden weights (`hidden × 4·hidden`).
    pub fn wh(&self) -> &Matrix {
        self.wh.matrix()
    }

    /// Fused gate bias (`1 × 4·hidden`).
    pub fn gate_bias(&self) -> &Matrix {
        &self.b
    }

    /// Test-only access to mutate a weight (used by finite-difference checks).
    #[doc(hidden)]
    pub fn perturb_wx(&mut self, r: usize, c: usize, delta: f64) {
        let wx = self.wx.get_mut();
        wx.set(r, c, wx.get(r, c) + delta);
    }

    /// Test-only access to mutate a recurrent weight.
    #[doc(hidden)]
    pub fn perturb_wh(&mut self, r: usize, c: usize, delta: f64) {
        let wh = self.wh.get_mut();
        wh.set(r, c, wh.get(r, c) + delta);
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
            wx: Weights::new(xavier_uniform(input_dim, 4 * hidden_dim, rng)),
            wh: Weights::new(xavier_uniform(hidden_dim, 4 * hidden_dim, rng)),
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
            wx: Weights::new(wx),
            wh: Weights::new(wh),
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

    /// Per timestep: the gate pre-activation `z = x·Wx + b + h·Wh` (the
    /// same GEMMs as [`Lstm::forward_only_into`]), then one gate pass per
    /// row
    /// (`simd::lstm_step_row_cached`) that advances `c` and `h` with
    /// [`simd::lstm_step_row`]'s per-element operations and writes the
    /// gates and `tanh(c)` into the cache.
    fn forward(&self, xs: &[Matrix]) -> (Vec<Matrix>, LstmCache) {
        assert!(!xs.is_empty(), "LSTM forward needs at least one timestep");
        let n = xs[0].rows();
        let (i_dim, h_dim) = (self.input_dim, self.hidden_dim);
        let g4 = 4 * h_dim;
        let (nx, nh, ng) = (n * i_dim, n * h_dim, n * g4);
        let t_len = xs.len();
        let mut cache = LstmCache {
            rows: n,
            timesteps: t_len,
            xs: spare::take(t_len * nx),
            hs: spare::take((t_len + 1) * nh),
            cs: spare::take((t_len + 1) * nh),
            acts: spare::take(t_len * ng),
            tcs: spare::take(t_len * nh),
        };
        // Zero initial state; every other block is written below.
        cache.hs[..nh].fill(0.0);
        cache.cs[..nh].fill(0.0);
        // One fused-gate scratch buffer reused across all timesteps.
        let mut z = spare::take(ng);
        for (t, x) in xs.iter().enumerate() {
            assert_eq!(x.cols(), i_dim, "timestep width mismatch");
            assert_eq!(x.rows(), n, "timestep batch-size mismatch");
            cache.xs[t * nx..(t + 1) * nx].copy_from_slice(x.as_slice());
            let (h_prev, h) = cache.hs[t * nh..(t + 2) * nh].split_at_mut(nh);
            self.gates(x.as_slice(), h_prev, n, &mut z);
            let (c_prev, c) = cache.cs[t * nh..(t + 2) * nh].split_at_mut(nh);
            c.copy_from_slice(c_prev);
            let rows = z
                .chunks_exact(g4)
                .zip(c.chunks_exact_mut(h_dim))
                .zip(h.chunks_exact_mut(h_dim))
                .zip(cache.acts[t * ng..(t + 1) * ng].chunks_exact_mut(g4))
                .zip(cache.tcs[t * nh..(t + 1) * nh].chunks_exact_mut(h_dim));
            for ((((zr, cr), hr), ar), tr) in rows {
                simd::lstm_step_row_cached(zr, cr, hr, ar, tr, h_dim);
            }
        }
        spare::give([z]);
        let hs = (1..=t_len)
            .map(|t| Matrix::from_vec(n, h_dim, cache.hs[t * nh..(t + 1) * nh].to_vec()))
            .collect();
        (hs, cache)
    }

    /// Keeps none of the inputs, states and gates that
    /// [`forward`](RecurrentCell::forward) caches. Thin wrapper over [`forward_only_into`](Lstm::forward_only_into), so
    /// batch and streaming predictions share one code path.
    fn forward_only(&self, xs: &[Matrix]) -> Vec<Matrix> {
        let mut hs = Vec::new();
        let mut scratch = LstmScratch::default();
        self.forward_only_into(xs, &mut hs, &mut scratch);
        hs
    }

    fn backward(
        &self,
        cache: &LstmCache,
        dhs: &[Matrix],
        input_grads: bool,
    ) -> (Vec<Matrix>, Option<Vec<Matrix>>) {
        let (grads, dxs) = self.backward_impl(cache, dhs, true, input_grads);
        (grads.expect("weight grads requested").into(), dxs)
    }

    /// Skips the three weight-gradient products per timestep.
    fn backward_input_only(&self, cache: &LstmCache, dhs: &[Matrix]) -> Vec<Matrix> {
        let (_, dxs) = self.backward_impl(cache, dhs, false, true);
        dxs.expect("input grads requested")
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![self.wx.matrix(), self.wh.matrix(), &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![self.wx.get_mut(), self.wh.get_mut(), &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{max_relative_error, numeric_input_grad};
    use crate::init::random_normal;

    /// The hadamard-chain LSTM step: per-timestep gate matrices and
    /// element-wise passes, with a `transpose_matmul` per weight gradient
    /// and a `matmul_tb` per `dz·Wᵀ`. The fused training cell must match
    /// it bit for bit.
    mod reference {
        use crate::activation::{sigmoid, tanh};
        use crate::{Lstm, Matrix};

        pub struct Step {
            x: Matrix,
            h_prev: Matrix,
            c_prev: Matrix,
            i: Matrix,
            f: Matrix,
            g: Matrix,
            o: Matrix,
            tc: Matrix,
        }

        pub fn forward(lstm: &Lstm, xs: &[Matrix]) -> (Vec<Matrix>, Vec<Step>) {
            let n = xs[0].rows();
            let h_dim = lstm.hidden_dim();
            let mut h = Matrix::zeros(n, h_dim);
            let mut c = Matrix::zeros(n, h_dim);
            let mut hs = Vec::new();
            let mut steps = Vec::new();
            let mut z = Matrix::zeros(n, 4 * h_dim);
            for x in xs {
                x.matmul_add_bias_into(lstm.wx(), lstm.gate_bias(), &mut z);
                h.matmul_acc(lstm.wh(), &mut z);
                let i = sigmoid(&z.slice_cols(0, h_dim));
                let f = sigmoid(&z.slice_cols(h_dim, 2 * h_dim));
                let g = tanh(&z.slice_cols(2 * h_dim, 3 * h_dim));
                let o = sigmoid(&z.slice_cols(3 * h_dim, 4 * h_dim));
                let c_new = &f.hadamard(&c) + &i.hadamard(&g);
                let tc = tanh(&c_new);
                let h_new = o.hadamard(&tc);
                steps.push(Step {
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
            (hs, steps)
        }

        pub fn backward(lstm: &Lstm, steps: &[Step], dhs: &[Matrix]) -> ([Matrix; 3], Vec<Matrix>) {
            let h_dim = lstm.hidden_dim();
            let n = steps[0].x.rows();
            let mut dwx = Matrix::zeros(lstm.input_dim(), 4 * h_dim);
            let mut dwh = Matrix::zeros(h_dim, 4 * h_dim);
            let mut db = Matrix::zeros(1, 4 * h_dim);
            let mut dxs = vec![Matrix::zeros(0, 0); steps.len()];
            let mut dh_next = Matrix::zeros(n, h_dim);
            let mut dc_next = Matrix::zeros(n, h_dim);
            for t in (0..steps.len()).rev() {
                let s = &steps[t];
                let dh = &dhs[t] + &dh_next;
                let d_o = dh.hadamard(&s.tc);
                let dtc = dh.hadamard(&s.o);
                let mut dc = s.tc.map(|v| 1.0 - v * v).hadamard(&dtc);
                dc += &dc_next;
                let d_i = dc.hadamard(&s.g);
                let d_g = dc.hadamard(&s.i);
                let d_f = dc.hadamard(&s.c_prev);
                dc_next = dc.hadamard(&s.f);
                let dz_i = d_i.hadamard(&s.i).hadamard(&s.i.map(|v| 1.0 - v));
                let dz_f = d_f.hadamard(&s.f).hadamard(&s.f.map(|v| 1.0 - v));
                let dz_g = d_g.hadamard(&s.g.map(|v| 1.0 - v * v));
                let dz_o = d_o.hadamard(&s.o).hadamard(&s.o.map(|v| 1.0 - v));
                let mut dz = Matrix::zeros(n, 4 * h_dim);
                dz.set_cols(0, &dz_i);
                dz.set_cols(h_dim, &dz_f);
                dz.set_cols(2 * h_dim, &dz_g);
                dz.set_cols(3 * h_dim, &dz_o);
                dwx += &s.x.transpose_matmul(&dz);
                dwh += &s.h_prev.transpose_matmul(&dz);
                db += &dz.sum_rows();
                dxs[t] = dz.matmul_tb(lstm.wx());
                dh_next = dz.matmul_tb(lstm.wh());
            }
            ([dwx, dwh, db], dxs)
        }
    }

    fn bits(ms: &[Matrix]) -> Vec<(usize, usize, Vec<u64>)> {
        ms.iter()
            .map(|m| {
                let b = m.as_slice().iter().map(|v| v.to_bits()).collect();
                (m.rows(), m.cols(), b)
            })
            .collect()
    }

    #[test]
    fn fused_cell_bit_identical_to_hadamard_reference() {
        // H = 5 and 13 reach the 8- and 4-lane gate blocks and the scalar
        // tails; N = 67 reaches the passes that pack their weights once
        // (at least `simd::PACK_MIN_M` rows) and the GEMM's row remainder.
        for h_dim in [5, 13] {
            for n in [1, 3, 67] {
                for t_len in [1, 6] {
                    let case = format!("H={h_dim} N={n} T={t_len}");
                    let mut rng = SmallRng::new((100 * h_dim + 10 * n + t_len) as u64);
                    let lstm = Lstm::new(4, h_dim, &mut rng);
                    let xs: Vec<Matrix> = (0..t_len)
                        .map(|_| random_normal(n, 4, 2.0, &mut rng))
                        .collect();
                    let dhs: Vec<Matrix> = (0..t_len)
                        .map(|_| random_normal(n, h_dim, 1.0, &mut rng))
                        .collect();
                    let (hs, cache) = lstm.forward(&xs);
                    let (ref_hs, steps) = reference::forward(&lstm, &xs);
                    assert_eq!(bits(&hs), bits(&ref_hs), "hidden states, {case}");

                    let (grads, dxs) = lstm.backward(&cache, &dhs, true);
                    let (ref_grads, ref_dxs) = reference::backward(&lstm, &steps, &dhs);
                    assert_eq!(bits(&grads), bits(&ref_grads), "[dWx, dWh, db], {case}");
                    let dxs = dxs.expect("input grads requested");
                    assert_eq!(bits(&dxs), bits(&ref_dxs), "dxs, {case}");

                    let (grads_only, none) = lstm.backward(&cache, &dhs, false);
                    assert!(none.is_none());
                    assert_eq!(bits(&grads_only), bits(&ref_grads), "no-dxs grads, {case}");
                    let dxs_only = lstm.backward_input_only(&cache, &dhs);
                    assert_eq!(bits(&dxs_only), bits(&ref_dxs), "input-only dxs, {case}");
                }
            }
        }
    }

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
        let dxs = lstm
            .backward(&cache, &dhs, true)
            .1
            .expect("input grads requested");
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
        let (grads, _) = lstm.backward(&cache, &dhs, false);
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
        let dxs = lstm
            .backward(&cache, &dhs, true)
            .1
            .expect("input grads requested");
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
