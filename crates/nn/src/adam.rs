//! The Adam optimizer (Kingma & Ba, 2015) with bias correction.
//!
//! The paper trains all monitors with Adam at the Keras default learning
//! rate of `0.001`; we use the same defaults
//! (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).

use crate::matrix::Matrix;

/// Adam optimizer state over a model's flattened parameter vector.
///
/// The trainer tracks first/second moment estimates for `param_count`
/// scalars. Networks apply it by calling [`AdamTrainer::begin_step`] once
/// per minibatch and then [`AdamTrainer::update`] for each parameter tensor
/// in a fixed order, passing the running offset.
#[derive(Debug, Clone)]
pub struct AdamTrainer {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl AdamTrainer {
    /// Creates an optimizer for `param_count` scalars with learning rate `lr`
    /// and the standard `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not a positive finite number.
    pub fn new(param_count: usize, lr: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; param_count],
            v: vec![0.0; param_count],
        }
    }

    /// Number of scalars this trainer manages.
    pub fn param_count(&self) -> usize {
        self.m.len()
    }

    /// Number of optimizer steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Advances the step counter; call once per minibatch before the
    /// per-tensor [`update`](Self::update) calls.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Applies one Adam update to `param` given its gradient, using moment
    /// slots starting at `offset`. Returns the offset just past this tensor,
    /// so call sites can chain: `off = trainer.update(off, &mut w, &dw);`.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch, the slots run past `param_count`, or
    /// [`begin_step`](Self::begin_step) has not been called.
    pub fn update(&mut self, offset: usize, param: &mut Matrix, grad: &Matrix) -> usize {
        assert_eq!(param.shape(), grad.shape(), "param/grad shape mismatch");
        assert!(self.t > 0, "begin_step must be called before update");
        let len = param.len();
        assert!(
            offset + len <= self.m.len(),
            "optimizer slots exhausted: offset {offset} + {len} > {}",
            self.m.len()
        );
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (m, v) = (
            &mut self.m[offset..offset + len],
            &mut self.v[offset..offset + len],
        );
        for ((p, &g), (mi, vi)) in param
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_slice())
            .zip(m.iter_mut().zip(v.iter_mut()))
        {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let m_hat = *mi / bc1;
            let v_hat = *vi / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
        offset + len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_moves_by_lr() {
        // With bias correction, the very first Adam step has magnitude ≈ lr
        // regardless of gradient scale.
        let mut t = AdamTrainer::new(1, 0.1);
        let mut p = Matrix::row_vector(&[1.0]);
        let g = Matrix::row_vector(&[123.0]);
        t.begin_step();
        t.update(0, &mut p, &g);
        assert!(
            (p.get(0, 0) - (1.0 - 0.1)).abs() < 1e-6,
            "param was {}",
            p.get(0, 0)
        );
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimize f(x) = (x-3)^2; grad = 2(x-3).
        let mut t = AdamTrainer::new(1, 0.1);
        let mut p = Matrix::row_vector(&[0.0]);
        for _ in 0..500 {
            let g = Matrix::row_vector(&[2.0 * (p.get(0, 0) - 3.0)]);
            t.begin_step();
            t.update(0, &mut p, &g);
        }
        assert!(
            (p.get(0, 0) - 3.0).abs() < 1e-3,
            "param was {}",
            p.get(0, 0)
        );
    }

    #[test]
    fn offsets_chain_across_tensors() {
        let mut t = AdamTrainer::new(6, 0.01);
        let mut a = Matrix::zeros(1, 2);
        let mut b = Matrix::zeros(2, 2);
        let ga = Matrix::filled(1, 2, 1.0);
        let gb = Matrix::filled(2, 2, 1.0);
        t.begin_step();
        let off = t.update(0, &mut a, &ga);
        assert_eq!(off, 2);
        let off = t.update(off, &mut b, &gb);
        assert_eq!(off, 6);
    }

    #[test]
    #[should_panic(expected = "slots exhausted")]
    fn rejects_overflowing_offsets() {
        let mut t = AdamTrainer::new(2, 0.01);
        let mut a = Matrix::zeros(2, 2);
        let g = Matrix::zeros(2, 2);
        t.begin_step();
        t.update(0, &mut a, &g);
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn update_requires_begin_step() {
        let mut t = AdamTrainer::new(1, 0.01);
        let mut a = Matrix::zeros(1, 1);
        let g = Matrix::zeros(1, 1);
        t.update(0, &mut a, &g);
    }
}
