//! Property-based tests of the linear-algebra and activation invariants
//! the training and attack code relies on.

use cpsmon_nn::activation::{relu, sigmoid_scalar, softmax_rows};
use cpsmon_nn::rng::SmallRng;
use cpsmon_nn::Matrix;
use proptest::prelude::*;

/// Strategy: a matrix of the given shape with bounded entries.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// One ascending-k multiply-add step with the *active backend's* rounding:
/// unfused for the scalar kernels, fused (`mul_add`) under AVX2+FMA. The
/// bit-identity contract of the GEMM entry points is stated against this.
fn madd(acc: f64, a: f64, b: f64) -> f64 {
    if cpsmon_nn::simd::fma_active() {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// Reference GEMM implementation (naive jki order, backend-matched
/// multiply-add) to check the optimized loop ordering against.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc = madd(acc, a.get(i, k), b.get(k, j));
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Never-fused naive GEMM, the reference for the kernel that never fuses
/// under any backend (`transpose_matmul`).
fn naive_matmul_plain(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #[test]
    fn matmul_matches_naive(a in matrix(4, 3), b in matrix(3, 5)) {
        prop_assert!(approx_eq(&a.matmul(&b), &naive_matmul(&a, &b), 1e-12));
    }

    #[test]
    fn matmul_associative(a in matrix(3, 3), b in matrix(3, 3), c in matrix(3, 3)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(approx_eq(&left, &right, 1e-9));
    }

    #[test]
    fn matmul_distributes_over_add(a in matrix(3, 4), b in matrix(4, 2), c in matrix(4, 2)) {
        let left = a.matmul(&(&b + &c));
        let right = &a.matmul(&b) + &a.matmul(&c);
        prop_assert!(approx_eq(&left, &right, 1e-10));
    }

    #[test]
    fn transpose_of_product(a in matrix(3, 4), b in matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(approx_eq(&left, &right, 1e-12));
    }

    #[test]
    fn fused_transpose_kernels_agree(a in matrix(4, 3), b in matrix(4, 5)) {
        // aᵀ·b via the fused kernel vs explicit transpose.
        prop_assert!(approx_eq(&a.transpose_matmul(&b), &a.transpose().matmul(&b), 1e-12));
        // a·cᵀ via the fused kernel vs explicit transpose.
        let c = Matrix::from_vec(5, 3, b.slice_rows(0, 3).transpose().into_vec());
        prop_assert!(approx_eq(&a.matmul_tb(&c), &a.matmul(&c.transpose()), 1e-12));
    }

    #[test]
    fn identity_is_neutral(a in matrix(4, 4)) {
        prop_assert!(approx_eq(&a.matmul(&Matrix::identity(4)), &a, 0.0));
        prop_assert!(approx_eq(&Matrix::identity(4).matmul(&a), &a, 0.0));
    }

    #[test]
    fn softmax_rows_are_distributions(a in matrix(5, 4)) {
        let p = softmax_rows(&a);
        for r in 0..p.rows() {
            let sum: f64 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_preserves_argmax(a in matrix(3, 5)) {
        let p = softmax_rows(&a);
        prop_assert_eq!(a.argmax_rows(), p.argmax_rows());
    }

    #[test]
    fn relu_is_idempotent_and_nonnegative(a in matrix(4, 4)) {
        let r = relu(&a);
        prop_assert!(r.as_slice().iter().all(|&v| v >= 0.0));
        prop_assert!(approx_eq(&relu(&r), &r, 0.0));
    }

    #[test]
    fn sigmoid_is_monotone(a in -20.0f64..20.0, b in -20.0f64..20.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(sigmoid_scalar(lo) <= sigmoid_scalar(hi));
    }

    #[test]
    fn rng_uniform_respects_bounds(seed in any::<u64>(), lo in -100.0f64..0.0, width in 0.001f64..100.0) {
        let mut rng = SmallRng::new(seed);
        let hi = lo + width;
        for _ in 0..50 {
            let v = rng.uniform_range(lo, hi);
            prop_assert!((lo..hi).contains(&v));
        }
    }

    #[test]
    fn frobenius_triangle_inequality(a in matrix(3, 3), b in matrix(3, 3)) {
        let sum = &a + &b;
        prop_assert!(sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-9);
    }

    #[test]
    fn select_rows_matches_manual(a in matrix(5, 3), idx in proptest::collection::vec(0usize..5, 1..6)) {
        let sel = a.select_rows(&idx);
        for (i, &r) in idx.iter().enumerate() {
            prop_assert_eq!(sel.row(i), a.row(r));
        }
    }
}

/// Reference A·Bᵀ with the same strictly-ascending-k accumulation (and
/// backend-matched multiply-add) the kernels guarantee.
fn naive_matmul_tb(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc = madd(acc, a.get(i, k), b.get(j, k));
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Strategy: matrix dimensions that cross the kernels' unroll width (4) and
/// cache-block size (128) boundaries.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..9, prop_oneof![1usize..9, 120usize..140], 1usize..9)
}

/// Strategy for `(k×m)ᵀ·(k×n)`: small shapes, plus shapes around the
/// paper's (`k` = 64 rows, `m` ∈ {6, 64, 128}, `n` ∈ {256, 512}) that
/// cross the never-fused GEMM's 16/8/4/1 column tiles, its 4-row blocks,
/// its m ≥ 64 B-pack path and the 128-deep k panel.
fn transpose_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        prop_oneof![1usize..9, 60usize..70, 126usize..134],
        prop_oneof![1usize..9, 60usize..72, 126usize..130],
        prop_oneof![1usize..9, 14usize..40, 250usize..260, 510usize..514],
    )
}

proptest! {
    // The blocked/unrolled kernels accumulate every output element in
    // strictly ascending k order, so they are BIT-identical to the naive
    // triple loop — not merely close. prop_assert_eq!, not approx_eq.
    #[test]
    fn blocked_matmul_is_bit_identical((m, k, n) in dims(), seed in any::<u64>()) {
        let mut rng = SmallRng::new(seed);
        let a = cpsmon_nn::init::random_normal(m, k, 1.0, &mut rng);
        let b = cpsmon_nn::init::random_normal(k, n, 1.0, &mut rng);
        prop_assert_eq!(a.matmul(&b), naive_matmul(&a, &b));
    }

    #[test]
    fn matmul_tb_is_bit_identical((m, k, n) in dims(), seed in any::<u64>()) {
        let mut rng = SmallRng::new(seed);
        let a = cpsmon_nn::init::random_normal(m, k, 1.0, &mut rng);
        let b = cpsmon_nn::init::random_normal(n, k, 1.0, &mut rng);
        prop_assert_eq!(a.matmul_tb(&b), naive_matmul_tb(&a, &b));
    }

    #[test]
    fn transpose_matmul_is_bit_identical((k, m, n) in transpose_dims(), seed in any::<u64>()) {
        let mut rng = SmallRng::new(seed);
        let a = cpsmon_nn::init::random_normal(m, k, 1.0, &mut rng);
        let b = cpsmon_nn::init::random_normal(m, n, 1.0, &mut rng);
        prop_assert_eq!(a.transpose_matmul(&b), naive_matmul_plain(&a.transpose(), &b));
    }

    #[test]
    fn matmul_acc_accumulates_bit_exactly((m, k, n) in dims(), seed in any::<u64>()) {
        let mut rng = SmallRng::new(seed);
        let a = cpsmon_nn::init::random_normal(m, k, 1.0, &mut rng);
        let b = cpsmon_nn::init::random_normal(k, n, 1.0, &mut rng);
        let mut out = cpsmon_nn::init::random_normal(m, n, 1.0, &mut rng);
        let mut expect = out.clone();
        a.matmul_acc(&b, &mut out);
        // Reference: seed-first accumulation in the same ascending k order.
        for i in 0..m {
            for j in 0..n {
                let mut acc = expect.get(i, j);
                for kk in 0..k {
                    acc = madd(acc, a.get(i, kk), b.get(kk, j));
                }
                expect.set(i, j, acc);
            }
        }
        prop_assert_eq!(out, expect);
    }
}

// ---------------------------------------------------------------------------
// SIMD vs scalar agreement: both kernel families must compute the same
// mathematical function to well under 1e-6 relative tolerance on random
// shapes, and the vector lanes must be bit-identical to their scalar-tail
// mirrors (offset/length invariance).
// ---------------------------------------------------------------------------

fn rel_close(x: f64, y: f64, tol: f64) -> bool {
    (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0)
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

proptest! {
    #[test]
    fn simd_gemm_agrees_with_scalar_gemm((m, k, n) in dims(), seed in any::<u64>()) {
        #[cfg(target_arch = "x86_64")]
        {
            if avx2_available() {
                let mut rng = SmallRng::new(seed);
                let a = cpsmon_nn::init::random_normal(m, k, 1.0, &mut rng).into_vec();
                let b = cpsmon_nn::init::random_normal(k, n, 1.0, &mut rng).into_vec();
                let mut scalar = vec![0.0; m * n];
                let mut simd = vec![0.0; m * n];
                cpsmon_nn::simd::gemm_acc_scalar(&a, m, k, &b, n, &mut scalar);
                cpsmon_nn::simd::gemm_acc_fma(&a, m, k, &b, n, &mut simd);
                for (i, (&s, &v)) in scalar.iter().zip(&simd).enumerate() {
                    prop_assert!(rel_close(s, v, 1e-6), "gemm elem {}: scalar {} vs simd {}", i, s, v);
                }
            }
        }
        let _ = (m, k, n, seed);
    }

    #[test]
    fn simd_transcendental_mirrors_agree_with_libm(vals in proptest::collection::vec(-40.0f64..40.0, 1..40)) {
        // The scalar mirrors of the vector lanes vs the libm scalar kernels
        // (what the two backends respectively compute per element).
        for &v in &vals {
            prop_assert!(rel_close(cpsmon_nn::simd::sigmoid_m(v), sigmoid_scalar(v), 1e-9), "sigmoid({})", v);
            prop_assert!(rel_close(cpsmon_nn::simd::tanh_m(v), v.tanh(), 1e-9), "tanh({})", v);
            prop_assert!(rel_close(cpsmon_nn::simd::exp_m(-v.abs()), (-v.abs()).exp(), 1e-9), "exp({})", -v.abs());
        }
    }

    #[test]
    fn simd_softmax_agrees_with_scalar(vals in proptest::collection::vec(-15.0f64..15.0, 1..24)) {
        let mut scalar = vals.clone();
        cpsmon_nn::simd::softmax_row_scalar(&mut scalar);
        #[cfg(target_arch = "x86_64")]
        {
            if avx2_available() {
                // Dispatch resolves per process; exercise the AVX2 row kernel
                // through the full slice vs the scalar reference.
                let mut row = vals.clone();
                cpsmon_nn::simd::softmax_row(&mut row);
                for (i, (&s, &v)) in scalar.iter().zip(&row).enumerate() {
                    prop_assert!(rel_close(s, v, 1e-6), "softmax elem {}: {} vs {}", i, s, v);
                }
            }
        }
        let sum: f64 = scalar.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn simd_lstm_step_agrees_with_scalar(h_dim in 1usize..17, seed in any::<u64>()) {
        let mut rng = SmallRng::new(seed);
        let z = cpsmon_nn::init::random_normal(1, 4 * h_dim, 2.0, &mut rng).into_vec();
        let c0 = cpsmon_nn::init::random_normal(1, h_dim, 1.0, &mut rng).into_vec();
        let mut c_scalar = c0.clone();
        let mut h_scalar = vec![0.0; h_dim];
        cpsmon_nn::simd::lstm_step_row_scalar(&z, &mut c_scalar, &mut h_scalar, h_dim);
        let mut c_any = c0.clone();
        let mut h_any = vec![0.0; h_dim];
        cpsmon_nn::simd::lstm_step_row(&z, &mut c_any, &mut h_any, h_dim);
        for j in 0..h_dim {
            prop_assert!(rel_close(c_scalar[j], c_any[j], 1e-6), "c[{}]", j);
            prop_assert!(rel_close(h_scalar[j], h_any[j], 1e-6), "h[{}]", j);
        }
    }

    #[test]
    fn simd_slices_are_offset_invariant(vals in proptest::collection::vec(-30.0f64..30.0, 2..40), cut in 1usize..8) {
        // Processing the same values at a different offset/length must give
        // the same bits per value — the lane/tail mirror invariant that
        // makes streaming (1-row) inference bit-identical to batch.
        let cut = cut.min(vals.len() - 1);
        let mut whole = vals.clone();
        cpsmon_nn::simd::sigmoid_slice(&mut whole);
        let mut tail = vals[cut..].to_vec();
        cpsmon_nn::simd::sigmoid_slice(&mut tail);
        for (i, &v) in tail.iter().enumerate() {
            prop_assert_eq!(v.to_bits(), whole[cut + i].to_bits(), "sigmoid offset {}", i);
        }
        let mut whole_t = vals.clone();
        cpsmon_nn::simd::tanh_slice(&mut whole_t);
        let mut tail_t = vals[cut..].to_vec();
        cpsmon_nn::simd::tanh_slice(&mut tail_t);
        for (i, &v) in tail_t.iter().enumerate() {
            prop_assert_eq!(v.to_bits(), whole_t[cut + i].to_bits(), "tanh offset {}", i);
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-count invariance: the determinism contract of `cpsmon_nn::par`.
// Every data-parallel entry point must return bit-identical results for
// CPSMON_THREADS=1 and CPSMON_THREADS>1. Fewer cases: each one trains nets.
// ---------------------------------------------------------------------------

use cpsmon_nn::par::{ThreadsGuard, GRAD_CHUNK, PREDICT_CHUNK};
use cpsmon_nn::{AdamTrainer, GradModel, GruNet, LstmConfig, LstmNet, MlpConfig, MlpNet, Network};

fn labeled_batch(rows: usize, cols: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = SmallRng::new(seed);
    let x = cpsmon_nn::init::random_normal(rows, cols, 1.0, &mut rng);
    let labels = (0..rows).map(|_| rng.index(2)).collect();
    (x, labels)
}

/// `net`'s probabilities, input gradient, one training step's loss and the
/// post-step probabilities, computed at `threads` worker threads.
fn run_at_threads<N: Network + Clone>(
    net: &N,
    x: &Matrix,
    labels: &[usize],
    threads: usize,
) -> (Matrix, Matrix, f64, Matrix) {
    let _guard = ThreadsGuard::set(threads);
    let proba = net.predict_proba(x);
    let grad = net.input_gradient(x, labels);
    let mut trained = net.clone();
    let mut tr = AdamTrainer::new(net.param_count(), 1e-3);
    let loss = trained.train_batch(x, labels, None, &mut tr);
    (proba, grad, loss, trained.predict_proba(x))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn mlp_is_thread_count_invariant(seed in any::<u64>(), extra in 0usize..40) {
        // Enough rows to force several PREDICT_CHUNK/GRAD_CHUNK chunks.
        let rows = 2 * GRAD_CHUNK.max(PREDICT_CHUNK) + 1 + extra;
        let (x, labels) = labeled_batch(rows, 10, seed);
        let net = MlpNet::new(&MlpConfig { input_dim: 10, hidden: vec![12], classes: 2, seed });
        let run = |threads: usize| {
            let _guard = ThreadsGuard::set(threads);
            let proba = net.predict_proba(&x);
            let grad = net.input_gradient(&x, &labels);
            let mut trained = net.clone();
            let mut tr = AdamTrainer::new(trained.param_count(), 1e-3);
            let loss = trained.train_batch(&x, &labels, None, &mut tr);
            (proba, grad, loss, trained.predict_proba(&x))
        };
        let serial = run(1);
        for threads in [2usize, 4, 8] {
            let parallel = run(threads);
            prop_assert_eq!(&serial.0, &parallel.0, "predict_proba differs at {} threads", threads);
            prop_assert_eq!(&serial.1, &parallel.1, "input_gradient differs at {} threads", threads);
            prop_assert_eq!(serial.2, parallel.2, "train loss differs at {} threads", threads);
            prop_assert_eq!(&serial.3, &parallel.3, "post-train predictions differ at {} threads", threads);
        }
    }

    #[test]
    fn lstm_is_thread_count_invariant(seed in any::<u64>()) {
        // The stacked LSTM and a GRU of the same shape share the recurrent
        // scaffold; both must be thread-count invariant.
        let rows = 2 * GRAD_CHUNK + 3;
        let (x, labels) = labeled_batch(rows, 8, seed);
        let config = LstmConfig {
            feature_dim: 2, timesteps: 4, hidden: vec![5], classes: 2, seed,
        };
        let lstm = LstmNet::new(&config);
        let gru = GruNet::new(&config);
        for (serial, parallel) in [
            (run_at_threads(&lstm, &x, &labels, 1), run_at_threads(&lstm, &x, &labels, 4)),
            (run_at_threads(&gru, &x, &labels, 1), run_at_threads(&gru, &x, &labels, 4)),
        ] {
            prop_assert_eq!(serial.0, parallel.0);
            prop_assert_eq!(serial.1, parallel.1);
            prop_assert_eq!(serial.2, parallel.2);
            prop_assert_eq!(serial.3, parallel.3);
        }
    }

    #[test]
    fn big_batch_predict_equals_rowwise_predict(seed in any::<u64>(), extra in 0usize..20) {
        // Chunked prediction must equal predicting each row alone: forward
        // passes are row-independent and chunking never mixes rows.
        let rows = PREDICT_CHUNK + 1 + extra;
        let (x, _) = labeled_batch(rows, 10, seed);
        let net = MlpNet::new(&MlpConfig { input_dim: 10, hidden: vec![9], classes: 2, seed });
        let whole = net.predict_proba(&x);
        for r in [0, PREDICT_CHUNK - 1, PREDICT_CHUNK, rows - 1] {
            let single = net.predict_proba(&x.slice_rows(r, r + 1));
            prop_assert_eq!(whole.row(r), single.row(0), "row {} differs", r);
        }
    }
}
