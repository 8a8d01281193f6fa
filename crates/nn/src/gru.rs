//! A GRU layer (Cho et al., 2014) with full backpropagation through time.
//!
//! Provided as the architecture-ablation counterpart to [`crate::lstm`]:
//! the paper evaluates MLP vs LSTM and leaves broader architecture studies
//! to future work; the GRU is the standard lighter-weight recurrent cell
//! to compare against.
//!
//! Gates (original formulation, reset applied to the hidden state before
//! the candidate matmul):
//!
//! ```text
//! z = σ(x·Wxz + h·Whz + bz)          update gate
//! r = σ(x·Wxr + h·Whr + br)          reset gate
//! n = tanh(x·Wxn + (r⊙h)·Whn + bn)   candidate
//! h' = (1−z)⊙n + z⊙h
//! ```

use crate::activation::{sigmoid, tanh};
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::recurrent_net::{RecurrentCell, RecurrentConfig, RecurrentNet};
use crate::rng::SmallRng;

/// The stacked-GRU classifier: the architecture-ablation sibling of
/// [`LstmNet`](crate::LstmNet), with the same interface, training and file
/// format.
pub type GruNet = RecurrentNet<Gru>;

/// Configuration for [`GruNet::new`].
pub type GruConfig = RecurrentConfig;

/// One GRU layer (`input_dim → hidden_dim`).
#[derive(Debug, Clone, PartialEq)]
pub struct Gru {
    wxz: Matrix,
    wxr: Matrix,
    wxn: Matrix,
    whz: Matrix,
    whr: Matrix,
    whn: Matrix,
    bz: Matrix,
    br: Matrix,
    bn: Matrix,
    input_dim: usize,
    hidden_dim: usize,
}

/// Per-timestep values cached for the backward pass.
#[derive(Debug, Clone)]
struct StepCache {
    x: Matrix,
    h_prev: Matrix,
    z: Matrix,
    r: Matrix,
    n: Matrix,
    rh: Matrix,
}

/// Forward-pass cache consumed by the backward passes of [`Gru`].
#[derive(Debug, Clone)]
pub struct GruCache {
    steps: Vec<StepCache>,
}

impl RecurrentCell for Gru {
    const KIND: &'static str = "gru";
    const TENSORS: &'static [&'static str] =
        &["wxz", "wxr", "wxn", "whz", "whr", "whn", "bz", "br", "bn"];
    const SEED_SALT: u64 = 0x6772_755f_6e65_7400;
    type Cache = GruCache;

    /// Xavier-uniform weights and zero biases.
    fn new(input_dim: usize, hidden_dim: usize, rng: &mut SmallRng) -> Self {
        Self {
            wxz: xavier_uniform(input_dim, hidden_dim, rng),
            wxr: xavier_uniform(input_dim, hidden_dim, rng),
            wxn: xavier_uniform(input_dim, hidden_dim, rng),
            whz: xavier_uniform(hidden_dim, hidden_dim, rng),
            whr: xavier_uniform(hidden_dim, hidden_dim, rng),
            whn: xavier_uniform(hidden_dim, hidden_dim, rng),
            bz: Matrix::zeros(1, hidden_dim),
            br: Matrix::zeros(1, hidden_dim),
            bn: Matrix::zeros(1, hidden_dim),
            input_dim,
            hidden_dim,
        }
    }

    /// Expects `[wxz, wxr, wxn: I×H, whz, whr, whn: H×H, bz, br, bn: 1×H]`
    /// with `I, H > 0`.
    fn from_params(tensors: Vec<Matrix>) -> Result<Gru, String> {
        let [wxz, wxr, wxn, whz, whr, whn, bz, br, bn]: [Matrix; 9] = tensors
            .try_into()
            .map_err(|t: Vec<Matrix>| format!("expected 9 tensors, got {}", t.len()))?;
        let input_dim = wxz.rows();
        let hidden_dim = wxz.cols();
        if input_dim == 0 || hidden_dim == 0 {
            return Err("GRU dimensions must be positive".into());
        }
        for (name, m) in [("wxr", &wxr), ("wxn", &wxn)] {
            if m.rows() != input_dim || m.cols() != hidden_dim {
                return Err(format!("{name} shape inconsistent with wxz"));
            }
        }
        for (name, m) in [("whz", &whz), ("whr", &whr), ("whn", &whn)] {
            if m.rows() != hidden_dim || m.cols() != hidden_dim {
                return Err(format!("{name} must be hidden×hidden"));
            }
        }
        for (name, m) in [("bz", &bz), ("br", &br), ("bn", &bn)] {
            if m.rows() != 1 || m.cols() != hidden_dim {
                return Err(format!("{name} must be a 1×hidden row vector"));
            }
        }
        Ok(Gru {
            wxz,
            wxr,
            wxn,
            whz,
            whr,
            whn,
            bz,
            br,
            bn,
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

    fn forward(&self, xs: &[Matrix]) -> (Vec<Matrix>, GruCache) {
        assert!(!xs.is_empty(), "GRU forward needs at least one timestep");
        let n_rows = xs[0].rows();
        let mut h = Matrix::zeros(n_rows, self.hidden_dim);
        let mut hs = Vec::with_capacity(xs.len());
        let mut steps = Vec::with_capacity(xs.len());
        // Pre-activation scratch reused across timesteps.
        let mut pre = Matrix::zeros(n_rows, self.hidden_dim);
        for x in xs {
            assert_eq!(x.cols(), self.input_dim, "timestep width mismatch");
            x.matmul_add_bias_into(&self.wxz, &self.bz, &mut pre);
            h.matmul_acc(&self.whz, &mut pre);
            let z = sigmoid(&pre);
            x.matmul_add_bias_into(&self.wxr, &self.br, &mut pre);
            h.matmul_acc(&self.whr, &mut pre);
            let r = sigmoid(&pre);
            let rh = r.hadamard(&h);
            x.matmul_add_bias_into(&self.wxn, &self.bn, &mut pre);
            rh.matmul_acc(&self.whn, &mut pre);
            let n = tanh(&pre);
            // h' = (1−z)⊙n + z⊙h
            let h_new = &n.hadamard(&z.map(|v| 1.0 - v)) + &z.hadamard(&h);
            steps.push(StepCache {
                x: x.clone(),
                h_prev: h,
                z,
                r,
                n,
                rh,
            });
            hs.push(h_new.clone());
            h = h_new;
        }
        (hs, GruCache { steps })
    }

    /// No backward caches, no per-step clones.
    fn forward_only(&self, xs: &[Matrix]) -> Vec<Matrix> {
        assert!(!xs.is_empty(), "GRU forward needs at least one timestep");
        let n_rows = xs[0].rows();
        let mut h = Matrix::zeros(n_rows, self.hidden_dim);
        let mut hs = Vec::with_capacity(xs.len());
        let mut pre = Matrix::zeros(n_rows, self.hidden_dim);
        for x in xs {
            assert_eq!(x.cols(), self.input_dim, "timestep width mismatch");
            x.matmul_add_bias_into(&self.wxz, &self.bz, &mut pre);
            h.matmul_acc(&self.whz, &mut pre);
            let z = sigmoid(&pre);
            x.matmul_add_bias_into(&self.wxr, &self.br, &mut pre);
            h.matmul_acc(&self.whr, &mut pre);
            let r = sigmoid(&pre);
            let rh = r.hadamard(&h);
            x.matmul_add_bias_into(&self.wxn, &self.bn, &mut pre);
            rh.matmul_acc(&self.whn, &mut pre);
            let n = tanh(&pre);
            h = &n.hadamard(&z.map(|v| 1.0 - v)) + &z.hadamard(&h);
            hs.push(h.clone());
        }
        hs
    }

    fn backward(
        &self,
        cache: &GruCache,
        dhs: &[Matrix],
        input_grads: bool,
    ) -> (Vec<Matrix>, Option<Vec<Matrix>>) {
        let (grads, dxs) = self.backward_impl(cache, dhs, true, input_grads);
        (grads.expect("weight grads requested"), dxs)
    }

    /// Skips the six weight-gradient matmuls per timestep.
    fn backward_input_only(&self, cache: &GruCache, dhs: &[Matrix]) -> Vec<Matrix> {
        let (_, dxs) = self.backward_impl(cache, dhs, false, true);
        dxs.expect("input grads requested")
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![
            &self.wxz, &self.wxr, &self.wxn, &self.whz, &self.whr, &self.whn, &self.bz, &self.br,
            &self.bn,
        ]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![
            &mut self.wxz,
            &mut self.wxr,
            &mut self.wxn,
            &mut self.whz,
            &mut self.whr,
            &mut self.whn,
            &mut self.bz,
            &mut self.br,
            &mut self.bn,
        ]
    }
}

impl Gru {
    /// BPTT over `cache`; the weight gradients (in
    /// [`params`](RecurrentCell::params) order) only when
    /// `want_weight_grads`, the input gradients only when
    /// `want_input_grads`.
    fn backward_impl(
        &self,
        cache: &GruCache,
        dhs: &[Matrix],
        want_weight_grads: bool,
        want_input_grads: bool,
    ) -> (Option<Vec<Matrix>>, Option<Vec<Matrix>>) {
        assert_eq!(dhs.len(), cache.steps.len(), "dhs/timestep count mismatch");
        let t_len = cache.steps.len();
        let n_rows = cache.steps[0].x.rows();
        let mut grads = want_weight_grads.then(|| {
            let params = RecurrentCell::params(self);
            params
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect::<Vec<_>>()
        });
        let mut dxs = want_input_grads.then(|| vec![Matrix::zeros(0, 0); t_len]);
        let mut dh_next = Matrix::zeros(n_rows, self.hidden_dim);
        for t in (0..t_len).rev() {
            let s = &cache.steps[t];
            let dh = &dhs[t] + &dh_next;
            // h' = (1−z)⊙n + z⊙h_prev
            let dz = dh.hadamard(&(&s.h_prev - &s.n));
            let dn = dh.hadamard(&s.z.map(|v| 1.0 - v));
            let mut dh_prev = dh.hadamard(&s.z);
            // Candidate path: n = tanh(zn), zn = x·Wxn + rh·Whn + bn.
            let dzn = dn.hadamard(&s.n.map(|v| 1.0 - v * v));
            let drh = dzn.matmul_tb(&self.whn);
            let dr = drh.hadamard(&s.h_prev);
            dh_prev += &drh.hadamard(&s.r);
            // Gate paths.
            let dzz = dz.hadamard(&s.z).hadamard(&s.z.map(|v| 1.0 - v));
            let dzr = dr.hadamard(&s.r).hadamard(&s.r.map(|v| 1.0 - v));
            if let Some(g) = grads.as_mut() {
                g[0] += &s.x.transpose_matmul(&dzz);
                g[1] += &s.x.transpose_matmul(&dzr);
                g[2] += &s.x.transpose_matmul(&dzn);
                g[3] += &s.h_prev.transpose_matmul(&dzz);
                g[4] += &s.h_prev.transpose_matmul(&dzr);
                g[5] += &s.rh.transpose_matmul(&dzn);
                g[6] += &dzz.sum_rows();
                g[7] += &dzr.sum_rows();
                g[8] += &dzn.sum_rows();
            }
            if let Some(dxs) = dxs.as_mut() {
                let mut dx = dzn.matmul_tb(&self.wxn);
                dx += &dzz.matmul_tb(&self.wxz);
                dx += &dzr.matmul_tb(&self.wxr);
                dxs[t] = dx;
            }
            dh_prev += &dzz.matmul_tb(&self.whz);
            dh_prev += &dzr.matmul_tb(&self.whr);
            dh_next = dh_prev;
        }
        (grads, dxs)
    }

    /// Test-only weight perturbation (finite-difference checks).
    #[doc(hidden)]
    pub fn perturb(&mut self, which: usize, r: usize, c: usize, delta: f64) {
        let m = match which {
            0 => &mut self.wxz,
            1 => &mut self.wxr,
            2 => &mut self.wxn,
            3 => &mut self.whz,
            4 => &mut self.whr,
            _ => &mut self.whn,
        };
        m.set(r, c, m.get(r, c) + delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{max_relative_error, numeric_input_grad};
    use crate::init::random_normal;

    fn objective(gru: &Gru, xs: &[Matrix]) -> f64 {
        let (hs, _) = gru.forward(xs);
        hs.iter().map(Matrix::sum).sum()
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let mut rng = SmallRng::new(1);
        let gru = Gru::new(3, 5, &mut rng);
        let xs: Vec<Matrix> = (0..4).map(|_| random_normal(2, 3, 1.0, &mut rng)).collect();
        let (hs, cache) = gru.forward(&xs);
        assert_eq!(hs.len(), 4);
        assert_eq!(cache.steps.len(), 4);
        for h in &hs {
            assert_eq!(h.shape(), (2, 5));
            // h is a convex combination of tanh values and prior h ⇒ |h| < 1.
            assert!(h.max_abs() <= 1.0);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = SmallRng::new(2);
        let gru = Gru::new(3, 4, &mut rng);
        let xs: Vec<Matrix> = (0..3).map(|_| random_normal(2, 3, 0.5, &mut rng)).collect();
        let (hs, cache) = gru.forward(&xs);
        let dhs: Vec<Matrix> = hs
            .iter()
            .map(|h| Matrix::filled(h.rows(), h.cols(), 1.0))
            .collect();
        let dxs = gru
            .backward(&cache, &dhs, true)
            .1
            .expect("input grads requested");
        for t in 0..3 {
            let num = numeric_input_grad(&xs[t], 1e-5, |xp| {
                let mut xs2 = xs.clone();
                xs2[t] = xp.clone();
                objective(&gru, &xs2)
            });
            let err = max_relative_error(&dxs[t], &num);
            assert!(err < 1e-6, "step {t} input-grad error {err}");
        }
    }

    #[test]
    fn weight_gradients_match_finite_difference() {
        let mut rng = SmallRng::new(3);
        let gru = Gru::new(2, 3, &mut rng);
        let xs: Vec<Matrix> = (0..3).map(|_| random_normal(2, 2, 0.5, &mut rng)).collect();
        let (hs, cache) = gru.forward(&xs);
        let dhs: Vec<Matrix> = hs
            .iter()
            .map(|h| Matrix::filled(h.rows(), h.cols(), 1.0))
            .collect();
        let (grads, _) = gru.backward(&cache, &dhs, false);
        let h = 1e-5;
        // Sample entries from every weight tensor, including recurrent ones.
        for (which, r, c) in [
            (0usize, 0, 0),
            (1, 1, 2),
            (2, 0, 1),
            (3, 2, 0),
            (4, 1, 1),
            (5, 0, 2),
        ] {
            let mut plus = gru.clone();
            plus.perturb(which, r, c, h);
            let mut minus = gru.clone();
            minus.perturb(which, r, c, -h);
            let num = (objective(&plus, &xs) - objective(&minus, &xs)) / (2.0 * h);
            let ana = grads[which].get(r, c);
            assert!(
                (ana - num).abs() < 1e-6,
                "dw[{which}]({r},{c}): {ana} vs {num}"
            );
        }
    }

    #[test]
    fn gradient_flows_to_first_input_from_last_step() {
        let mut rng = SmallRng::new(4);
        let gru = Gru::new(2, 3, &mut rng);
        let xs: Vec<Matrix> = (0..4).map(|_| random_normal(1, 2, 0.5, &mut rng)).collect();
        let (hs, cache) = gru.forward(&xs);
        let mut dhs: Vec<Matrix> = hs
            .iter()
            .map(|h| Matrix::zeros(h.rows(), h.cols()))
            .collect();
        let last = dhs.len() - 1;
        dhs[last] = Matrix::filled(1, 3, 1.0);
        let dxs = gru
            .backward(&cache, &dhs, true)
            .1
            .expect("input grads requested");
        assert!(dxs[0].max_abs() > 0.0);
    }

    #[test]
    fn deterministic_construction() {
        assert_eq!(
            Gru::new(3, 4, &mut SmallRng::new(6)),
            Gru::new(3, 4, &mut SmallRng::new(6))
        );
    }
}
