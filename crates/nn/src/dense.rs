//! Fully connected (dense) layers.

use crate::init::he_uniform;
use crate::matrix::{seed_rows, Matrix};
use crate::rng::SmallRng;
use crate::weights::Weights;

/// A fully connected layer computing `z = x·W + b` (no activation — the
/// caller applies ReLU/softmax so that backward passes can compose cleanly).
/// `W` keeps its GEMM panel layout once a product has needed it.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    w: Weights,
    b: Matrix,
}

impl Dense {
    /// Creates a layer with He-uniform weights and zero bias.
    pub fn new(input_dim: usize, output_dim: usize, rng: &mut SmallRng) -> Self {
        Self {
            w: Weights::new(he_uniform(input_dim, output_dim, rng)),
            b: Matrix::zeros(1, output_dim),
        }
    }

    /// Builds a layer from explicit parameters (used by deserialization).
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch if `b` is not `1 × w.cols()`.
    pub fn from_params(w: Matrix, b: Matrix) -> Result<Self, String> {
        if b.rows() != 1 || b.cols() != w.cols() {
            return Err(format!(
                "bias is {}x{}, expected 1x{}",
                b.rows(),
                b.cols(),
                w.cols()
            ));
        }
        Ok(Self {
            w: Weights::new(w),
            b,
        })
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.weights().rows()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.weights().cols()
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.weights().len() + self.b.len()
    }

    /// Borrow of the weight matrix.
    pub fn weights(&self) -> &Matrix {
        self.w.matrix()
    }

    /// Borrow of the bias row.
    pub fn bias(&self) -> &Matrix {
        &self.b
    }

    /// Forward pass: `z = x·W + b` in one pass over `z`, each element the
    /// bias followed by the ascending-`k` multiply-adds of `x·W` (the bits
    /// of [`Matrix::matmul_add_bias`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != input_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.output_dim());
        self.forward_into(x, &mut out);
        out
    }

    /// [`forward`](Self::forward) writing into a caller-owned scratch buffer
    /// of shape `x.rows() × output_dim`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols(), self.input_dim(), "dense input width mismatch");
        assert_eq!(out.shape(), (x.rows(), self.output_dim()), "output shape");
        self.forward_rows(x.as_slice(), x.rows(), out.as_mut_slice());
    }

    /// [`forward_into`](Self::forward_into) on row-major slices: `x` is
    /// `rows × input_dim`, `out` is `rows × output_dim`.
    pub(crate) fn forward_rows(&self, x: &[f64], rows: usize, out: &mut [f64]) {
        seed_rows(out, self.b.as_slice());
        self.w.gemm_acc(x, rows, out);
    }

    /// Backward pass given the upstream gradient `dz` and the cached input
    /// `x` of the forward pass. Returns the weight gradients `[dW, db]`
    /// and, when `input_grad`, the gradient w.r.t. the input (for deeper
    /// layers / FGSM; a network's first layer in training skips it).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn backward(
        &self,
        x: &Matrix,
        dz: &Matrix,
        input_grad: bool,
    ) -> ([Matrix; 2], Option<Matrix>) {
        assert_eq!(dz.cols(), self.output_dim(), "dz width mismatch");
        assert_eq!(x.rows(), dz.rows(), "batch size mismatch");
        let dw = x.transpose_matmul(dz);
        let db = dz.sum_rows();
        let dx = input_grad.then(|| dz.matmul_tb(self.weights()));
        ([dw, db], dx)
    }

    /// The trainable tensors `[W, b]`, in the order of the gradients
    /// [`backward`](Self::backward) returns.
    pub(crate) fn params_mut(&mut self) -> [&mut Matrix; 2] {
        [self.w.get_mut(), &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::numeric_input_grad;

    #[test]
    fn forward_matches_manual_computation() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let b = Matrix::row_vector(&[0.5, -0.5]);
        let layer = Dense::from_params(w, b).unwrap();
        let x = Matrix::from_rows(&[&[3.0, 4.0]]);
        let z = layer.forward(&x);
        assert_eq!(z, Matrix::from_rows(&[&[3.5, 7.5]]));
    }

    #[test]
    fn backward_input_grad_matches_finite_difference() {
        let mut rng = SmallRng::new(42);
        let layer = Dense::new(4, 3, &mut rng);
        let x = crate::init::random_normal(2, 4, 1.0, &mut rng);
        // Scalar objective: sum of outputs.
        let dz = Matrix::filled(2, 3, 1.0);
        let (_, dx) = layer.backward(&x, &dz, true);
        let dx = dx.expect("input grad requested");
        let num = numeric_input_grad(&x, 1e-5, |xp| layer.forward(xp).sum());
        for (a, n) in dx.as_slice().iter().zip(num.as_slice()) {
            assert!((a - n).abs() < 1e-5, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn backward_weight_grad_matches_finite_difference() {
        let mut rng = SmallRng::new(43);
        let layer = Dense::new(3, 2, &mut rng);
        let x = crate::init::random_normal(4, 3, 1.0, &mut rng);
        let dz = Matrix::filled(4, 2, 1.0);
        let ([dw, _], dx) = layer.backward(&x, &dz, false);
        assert!(dx.is_none());
        let h = 1e-5;
        for r in 0..3 {
            for c in 0..2 {
                let mut wp = layer.weights().clone();
                wp.set(r, c, wp.get(r, c) + h);
                let mut wm = layer.weights().clone();
                wm.set(r, c, wm.get(r, c) - h);
                let lp = Dense::from_params(wp, layer.b.clone()).unwrap();
                let lm = Dense::from_params(wm, layer.b.clone()).unwrap();
                let num = (lp.forward(&x).sum() - lm.forward(&x).sum()) / (2.0 * h);
                assert!((dw.get(r, c) - num).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn bias_grad_is_column_sum() {
        let mut rng = SmallRng::new(44);
        let layer = Dense::new(2, 2, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let dz = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let ([_, db], _) = layer.backward(&x, &dz, false);
        assert_eq!(db, Matrix::row_vector(&[9.0, 12.0]));
    }

    #[test]
    fn param_count_counts_all() {
        let mut rng = SmallRng::new(45);
        let layer = Dense::new(10, 7, &mut rng);
        assert_eq!(layer.param_count(), 10 * 7 + 7);
    }
}
