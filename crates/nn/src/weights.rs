//! A layer's weight matrix together with its cached GEMM panel layout.
//!
//! Under the AVX-512 backend every forward product `x·W` with at least one
//! full panel of columns reads `W` as the kernel's panels
//! ([`simd::panels_fit`]), whatever its row count: a 64-row block keeps a
//! 32 KiB panel slice in L1, and a single row reads each `k` step's 256
//! contiguous bytes instead of a row pitch that is a multiple of 4 KiB.
//! Laying `W` out costs about as much as reading it once, so [`Weights`]
//! keeps one layout per matrix, built on the first product and dropped
//! whenever the matrix is lent out mutably: a training step or an edit
//! through `params_mut` can never leave stale panels behind. A clone
//! starts without panels and builds its own on first use.

use std::sync::OnceLock;

use crate::matrix::Matrix;
use crate::simd;

/// A weight matrix `W` (`k × n`, the right operand of `x·W`) with its
/// panel layout cached.
pub(crate) struct Weights {
    w: Matrix,
    panels: OnceLock<Vec<f64>>,
}

impl Weights {
    pub(crate) fn new(w: Matrix) -> Self {
        Self {
            w,
            panels: OnceLock::new(),
        }
    }

    /// The matrix.
    pub(crate) fn matrix(&self) -> &Matrix {
        &self.w
    }

    /// The matrix, mutably; drops the cached panels first.
    pub(crate) fn get_mut(&mut self) -> &mut Matrix {
        self.panels = OnceLock::new();
        &mut self.w
    }

    /// `out += a · W` for `m` rows of `a`: through the cached panels when
    /// `W` has them ([`simd::panels_fit`], laid out on first use), else
    /// reading `W` in place. Either way each element gets the bits
    /// [`simd::gemm_acc`] gives it.
    ///
    /// # Panics
    ///
    /// Panics if a buffer length disagrees with the shapes.
    pub(crate) fn gemm_acc(&self, a: &[f64], m: usize, out: &mut [f64]) {
        let (k, n) = self.w.shape();
        if simd::panels_fit(n) {
            let panels = self
                .panels
                .get_or_init(|| simd::panels_of(self.w.as_slice(), k, n));
            simd::gemm_acc_panels(a, m, k, n, panels, out);
        } else {
            simd::gemm_acc(a, m, k, self.w.as_slice(), n, out);
        }
    }
}

impl Clone for Weights {
    fn clone(&self) -> Self {
        Self::new(self.w.clone())
    }
}

impl std::fmt::Debug for Weights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.w.fmt(f)
    }
}

impl PartialEq for Weights {
    fn eq(&self, other: &Self) -> bool {
        self.w == other.w
    }
}

#[cfg(test)]
mod tests {
    use crate::adam::AdamTrainer;
    use crate::init::random_normal;
    use crate::model::{GradModel, Network};
    use crate::rng::SmallRng;
    use crate::{LstmConfig, LstmNet, Matrix, MlpConfig, MlpNet};

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Trains `net` one step and then edits it in place through
    /// `params_mut`, on `rows` rows, after a prediction has laid out its
    /// panels. After each change the net must predict exactly like one
    /// rebuilt from its parameters (`rebuild`, through the cpsmon-net
    /// format), and a clone taken before the step must keep predicting
    /// with the old weights.
    fn check_never_stale<N: Network + Clone>(mut net: N, rows: usize, rebuild: impl Fn(&N) -> N) {
        let mut rng = SmallRng::new(rows as u64);
        let x = random_normal(rows, net.input_dim(), 1.0, &mut rng);
        let labels: Vec<usize> = (0..rows).map(|r| r % 2).collect();
        let before = bits(&net.predict_proba(&x));
        let old = net.clone();
        let mut trainer = AdamTrainer::new(net.param_count(), 1e-2);
        net.train_batch(&x, &labels, None, &mut trainer);
        let trained = bits(&net.predict_proba(&x));
        assert_ne!(trained, before, "the step moved no prediction, {rows} rows");
        assert_eq!(
            trained,
            bits(&rebuild(&net).predict_proba(&x)),
            "trained, {rows} rows"
        );
        assert_eq!(bits(&old.predict_proba(&x)), before, "clone, {rows} rows");
        for w in net.params_mut() {
            w.map_inplace(|v| -0.5 * v);
        }
        let edited = bits(&net.predict_proba(&x));
        assert_ne!(edited, trained, "the edit moved no prediction, {rows} rows");
        assert_eq!(
            edited,
            bits(&rebuild(&net).predict_proba(&x)),
            "edited, {rows} rows"
        );
    }

    #[test]
    fn cached_panels_never_go_stale() {
        // 64 rows make one prediction chunk; 300 rows four full chunks and
        // a ragged one, and more than one training chunk.
        for rows in [64, 300] {
            let mlp = MlpNet::new(&MlpConfig::paper(36));
            check_never_stale(mlp, rows, |net| {
                let mut file = Vec::new();
                net.save(&mut file).expect("in-memory write");
                MlpNet::load(&mut file.as_slice()).expect("own output loads")
            });
            let lstm = LstmNet::new(&LstmConfig::paper(6));
            check_never_stale(lstm, rows, |net| {
                let mut file = Vec::new();
                net.save(&mut file).expect("in-memory write");
                LstmNet::load(&mut file.as_slice()).expect("own output loads")
            });
        }
    }
}
