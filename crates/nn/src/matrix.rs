//! Row-major `f64` matrices with the handful of kernels the networks need.
//!
//! This is deliberately *not* a general linear-algebra library: it provides
//! exactly the operations used by the dense and LSTM layers, with shapes
//! validated eagerly (panicking on mismatch, like indexing out of bounds)
//! so that shape bugs surface at the call site instead of corrupting
//! training.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

use crate::simd::{gemm_acc, gemm_acc_unfused};

thread_local! {
    /// Reusable transpose-pack buffer for [`Matrix::matmul_tb`] and
    /// [`Matrix::transpose_matmul`]. Per thread so the backward passes'
    /// per-timestep products stop paying a fresh `k·n` allocation (and the
    /// allocator-layout jitter it induced on the output buffer) on every
    /// call.
    static PACK_SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Frees this thread's transpose-pack buffer (see [`crate::par`]'s
/// workers).
pub(crate) fn free_pack_scratch() {
    let _ = PACK_SCRATCH.try_with(|cell| std::mem::take(&mut *cell.borrow_mut()));
}

/// Writes the transpose of the row-major `rows × cols` matrix `src` into
/// `dst` (`cols × rows`, row-major).
///
/// The loop walks `dst` in order: contiguous writes, strided reads. The
/// other way round scatters writes at a stride of `8·rows` bytes and
/// stalls on a read-for-ownership round trip per element (measured ~6×
/// the cost on the 256×36 backward shape).
pub(crate) fn transpose_into(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    assert_eq!(src.len(), rows * cols, "transpose source length mismatch");
    assert_eq!(dst.len(), rows * cols, "transpose target length mismatch");
    let sp = src.as_ptr();
    for (c, dst_row) in dst.chunks_exact_mut(rows.max(1)).enumerate() {
        for (r, d) in dst_row.iter_mut().enumerate() {
            // SAFETY: r < rows and c < cols, so r·cols + c < src.len().
            *d = unsafe { *sp.add(r * cols + c) };
        }
    }
}

/// `out += aᵀ·b` for row-major `a` (`k × m`) and `b` (`k × n`): `aᵀ` is
/// packed into the thread's pack scratch and the product runs through the
/// never-fused GEMM ([`gemm_acc_unfused`]), so every element of `out`
/// gains `Σ_r a[r][i]·b[r][j]` as one rounded multiply and one rounded
/// add per row `r`, in ascending `r`.
pub(crate) fn transpose_matmul_acc(
    a: &[f64],
    k: usize,
    m: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    PACK_SCRATCH.with(|cell| {
        let mut packed = cell.borrow_mut();
        if packed.len() < m * k {
            packed.resize(m * k, 0.0);
        }
        transpose_into(a, k, m, &mut packed[..m * k]);
        gemm_acc_unfused(&packed[..m * k], m, k, b, n, out);
    })
}

/// Seeds every `bias.len()`-wide row of the row-major `out` with `bias`:
/// the accumulator start of a fused `x·W + b`.
pub(crate) fn seed_rows(out: &mut [f64], bias: &[f64]) {
    for row in out.chunks_exact_mut(bias.len()) {
        row.copy_from_slice(bias);
    }
}

/// A dense, row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use cpsmon_nn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for c in 0..max_cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(r, c))?;
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Self {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a single-row matrix from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view of the underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Extracts a copy of rows `[start, end)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > rows`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "invalid row range {start}..{end} for {} rows",
            self.rows
        );
        Matrix::from_vec(
            end - start,
            self.cols,
            self.data[start * self.cols..end * self.cols].to_vec(),
        )
    }

    /// Extracts a copy of columns `[start, end)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > cols`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        let mut out = Matrix::zeros(self.rows, end.saturating_sub(start));
        self.slice_cols_into(start, end, &mut out);
        out
    }

    /// [`slice_cols`](Self::slice_cols) writing into a caller-owned buffer
    /// of shape `rows × (end − start)` (scratch-reuse variant for the
    /// streaming prediction path).
    ///
    /// # Panics
    ///
    /// Panics if `start > end`, `end > cols`, or `out` has the wrong shape.
    pub fn slice_cols_into(&self, start: usize, end: usize, out: &mut Matrix) {
        assert!(
            start <= end && end <= self.cols,
            "invalid col range {start}..{end} for {} cols",
            self.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, end - start),
            "output shape mismatch"
        );
        for r in 0..self.rows {
            let src = &self.row(r)[start..end];
            out.row_mut(r).copy_from_slice(src);
        }
    }

    /// Reshapes this matrix to `rows × cols`, reusing the existing buffer
    /// when the element count is unchanged. The contents are unspecified
    /// afterwards — intended for scratch buffers that the next kernel fully
    /// overwrites.
    ///
    /// # Panics
    ///
    /// Panics if `rows · cols` overflows `usize`.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        if self.data.len() != len {
            self.data.resize(len, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Writes `block` into columns `[start, start + block.cols())`.
    ///
    /// # Panics
    ///
    /// Panics on row-count mismatch or if the block does not fit.
    pub fn set_cols(&mut self, start: usize, block: &Matrix) {
        assert_eq!(self.rows, block.rows, "row count mismatch");
        assert!(
            start + block.cols <= self.cols,
            "block does not fit at column {start}"
        );
        for r in 0..self.rows {
            let cols = self.cols;
            self.data[r * cols + start..r * cols + start + block.cols]
                .copy_from_slice(block.row(r));
        }
    }

    /// Builds a new matrix keeping only the rows whose index is in `idx`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "column mismatch in vstack");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        transpose_into(&self.data, self.rows, self.cols, &mut out.data);
        out
    }

    /// Matrix product `self · rhs` via the cache-blocked, runtime-dispatched
    /// GEMM kernel ([`cpsmon_nn::simd::gemm_acc`](crate::simd::gemm_acc)).
    ///
    /// Accumulation over `k` is strictly ascending per output element under
    /// both kernel backends, so the result is bit-identical to the naive
    /// triple loop written with the active backend's multiply-add (unfused
    /// `+=a*b` for the scalar backend, [`f64::mul_add`] for AVX2+FMA) —
    /// blocking, vector width, and batch slicing change only the memory
    /// schedule, never the bits.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm_acc(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        out
    }

    /// Accumulates `self · rhs` into `out` (`out += self · rhs`), reusing
    /// `out`'s buffer. Same kernel and accumulation order as [`matmul`].
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    ///
    /// [`matmul`]: Self::matmul
    pub fn matmul_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul_acc output shape mismatch"
        );
        gemm_acc(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
    }

    /// Fused `self · rhs + bias` (bias broadcast over rows), the dense-layer
    /// forward kernel. The accumulator is *seeded* with the bias, so each
    /// element is `bias_j + Σ_k a·b` — one pass over the output instead of
    /// a product pass plus a broadcast pass. (This regroups the additions
    /// relative to `matmul` + [`add_row_broadcast`], so results may differ
    /// from the unfused pair in the last ulp.)
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or if `bias` is not `1 × rhs.cols()`.
    ///
    /// [`add_row_broadcast`]: Self::add_row_broadcast
    pub fn matmul_add_bias(&self, rhs: &Matrix, bias: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_add_bias_into(rhs, bias, &mut out);
        out
    }

    /// [`matmul_add_bias`] writing into a caller-owned buffer, so hot loops
    /// (LSTM/GRU timesteps) can reuse one scratch matrix instead of
    /// allocating per step. `out` is overwritten, not accumulated into.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    ///
    /// [`matmul_add_bias`]: Self::matmul_add_bias
    pub fn matmul_add_bias_into(&self, rhs: &Matrix, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, rhs.cols, "bias width mismatch");
        assert_eq!(out.shape(), (self.rows, rhs.cols), "output shape mismatch");
        seed_rows(&mut out.data, &bias.data);
        gemm_acc(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
    }

    /// `self · rhsᵀ` (the backward-pass and attack workhorse: `dx = dz·Wᵀ`).
    ///
    /// The transposed operand is packed once per call into a row-major
    /// `k × n` panel and the product then runs through the same dispatched
    /// GEMM kernel as [`matmul`](Self::matmul) — column-major strided reads
    /// of `rhs` happen exactly once (during packing) instead of once per
    /// `self` row, and the multiply itself gets the vectorized kernel.
    ///
    /// Each output element accumulates in strictly ascending `k` order, so
    /// the result is bit-identical to the naive row-dot implementation
    /// written with the active backend's multiply-add.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_tb(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_tb shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let k = self.cols;
        let n = rhs.rows;
        // Reusing one long-lived pack buffer keeps the allocator pattern
        // identical to `matmul` (interleaving a fresh `k·n` chunk with the
        // output allocation measurably perturbed how the output buffer
        // itself was served, costing more than the pack).
        PACK_SCRATCH.with(|cell| {
            let mut packed = cell.borrow_mut();
            if packed.len() < k * n {
                packed.resize(k * n, 0.0);
            }
            transpose_into(&rhs.data, n, k, &mut packed[..k * n]);
            let mut out = Matrix::zeros(self.rows, n);
            gemm_acc(&self.data, self.rows, k, &packed[..k * n], n, &mut out.data);
            out
        })
    }

    /// `selfᵀ · rhs` (the weight-grad kernel: `dW = xᵀ·dz`).
    ///
    /// `selfᵀ` is packed once into a thread-local scratch and the product
    /// runs through the dispatched never-fused GEMM
    /// ([`gemm_acc_unfused`]): each output
    /// element accumulates over the shared row index in strictly ascending
    /// order, one rounded multiply and one rounded add per row, under every
    /// backend — bit-identical to the naive `acc += a*b` loop.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "transpose_matmul shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        transpose_matmul_acc(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        out
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a * b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Returns a copy with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a copy scaled by `k`.
    pub fn scale(&self, k: f64) -> Matrix {
        self.map(|v| v * k)
    }

    /// Adds `rhs * k` into `self` (axpy).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, rhs: &Matrix, k: f64) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b * k;
        }
    }

    /// Adds `bias` (a `1 × cols` row vector) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × cols`.
    pub fn add_row_broadcast(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            let cols = self.cols;
            for (v, &b) in self.data[r * cols..(r + 1) * cols]
                .iter_mut()
                .zip(bias.data.iter())
            {
                *v += b;
            }
        }
    }

    /// Sums over rows, producing a `1 × cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum absolute element; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum::<f64>().sqrt()
    }

    /// Index of the maximum entry in each row (first maximum wins).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Returns `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.add_scaled(rhs, 1.0);
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, k: f64) -> Matrix {
        self.scale(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, -2.0, 0.0]]);
        assert_eq!(a.matmul_tb(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_matmul_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 2.0], &[0.0, 3.0]]);
        assert_eq!(a.transpose_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn row_broadcast_adds_bias() {
        let mut a = Matrix::zeros(2, 3);
        let b = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        a.add_row_broadcast(&b);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_rows_collapses() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[10.0, 20.0]]);
        assert_eq!(a.sum_rows(), Matrix::row_vector(&[11.0, 22.0]));
    }

    #[test]
    fn argmax_rows_first_max_wins() {
        let a = Matrix::from_rows(&[&[0.3, 0.7], &[0.5, 0.5], &[0.9, 0.1]]);
        assert_eq!(a.argmax_rows(), vec![1, 0, 0]);
    }

    #[test]
    fn slice_and_set_cols_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]]);
        let block = a.slice_cols(1, 3);
        assert_eq!(block, Matrix::from_rows(&[&[2.0, 3.0], &[6.0, 7.0]]));
        let mut b = Matrix::zeros(2, 4);
        b.set_cols(1, &block);
        assert_eq!(b.get(0, 1), 2.0);
        assert_eq!(b.get(1, 2), 7.0);
        assert_eq!(b.get(0, 0), 0.0);
    }

    #[test]
    fn select_rows_picks_subset() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(a.select_rows(&[2, 0]), Matrix::from_rows(&[&[3.0], &[1.0]]));
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = a.vstack(&b);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_rejects_out_of_bounds() {
        let a = Matrix::zeros(2, 2);
        let _ = a.get(2, 0);
    }

    /// Naive reference product with per-element ascending-k accumulation
    /// using the *active backend's* multiply-add (unfused for scalar,
    /// [`f64::mul_add`] under AVX2+FMA) — the order and rounding the
    /// dispatched GEMM promises to reproduce bit-for-bit.
    fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let fma = crate::simd::fma_active();
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    if fma {
                        acc = a.get(i, k).mul_add(b.get(k, j), acc);
                    } else {
                        acc += a.get(i, k) * b.get(k, j);
                    }
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Plain (never-fused) naive reference, for the kernel that never
    /// fuses under any backend (`transpose_matmul`).
    fn reference_matmul_plain(a: &Matrix, b: &Matrix) -> Matrix {
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

    fn arbitrary_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn blocked_matmul_bit_identical_to_reference() {
        // Sizes straddling both the 4-k unroll remainder and the KC panel
        // boundary (k = 300 > GEMM_KC = 128).
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (7, 300, 9), (5, 129, 4)] {
            let a = arbitrary_matrix(m, k, 11 + m as u64);
            let b = arbitrary_matrix(k, n, 17 + n as u64);
            let fast = a.matmul(&b);
            let reference = reference_matmul(&a, &b);
            assert_eq!(fast.as_slice(), reference.as_slice(), "{m}x{k}·{k}x{n}");
        }
    }

    #[test]
    fn matmul_tb_bit_identical_to_reference() {
        for (m, k, n) in [(1, 3, 1), (4, 7, 6), (3, 130, 10)] {
            let a = arbitrary_matrix(m, k, 23);
            let b = arbitrary_matrix(n, k, 29);
            let fast = a.matmul_tb(&b);
            let reference = reference_matmul(&a, &b.transpose());
            assert_eq!(fast.as_slice(), reference.as_slice(), "{m}x{k}·({n}x{k})ᵀ");
        }
    }

    #[test]
    fn transpose_matmul_bit_identical_to_reference() {
        // `(k×m)ᵀ·(k×n)` runs a GEMM with m rows, k depth and n columns.
        // The four paper shapes (the LSTM's `x_tᵀ·dz` and `h_prevᵀ·dz` at
        // 64 rows), then ragged shapes reaching the 16-column zmm tile, the
        // 8/4/scalar column tails, the 1-3 row remainder, the m ≥ 64 B-pack
        // path and the 128-deep k panel boundary.
        for (k, m, n) in [
            (1, 2, 2),
            (6, 4, 5),
            (131, 3, 8),
            (64, 6, 512),
            (64, 128, 512),
            (64, 128, 256),
            (64, 64, 256),
            (67, 65, 31),
            (130, 70, 45),
            (5, 63, 29),
            (64, 7, 16),
            (3, 66, 17),
            (129, 64, 12),
        ] {
            let a = arbitrary_matrix(k, m, 31);
            let b = arbitrary_matrix(k, n, 37);
            let fast = a.transpose_matmul(&b);
            let reference = reference_matmul_plain(&a.transpose(), &b);
            assert_eq!(fast.as_slice(), reference.as_slice(), "({k}x{m})ᵀ·{k}x{n}");
        }
    }

    #[test]
    fn matmul_acc_accumulates() {
        let a = arbitrary_matrix(3, 4, 41);
        let b = arbitrary_matrix(4, 5, 43);
        let seed = arbitrary_matrix(3, 5, 47);
        let mut out = seed.clone();
        a.matmul_acc(&b, &mut out);
        // Bit-identity: accumulating onto `seed` element-wise in ascending-k
        // order (with the active backend's multiply-add) equals the
        // reference loop seeded the same way.
        let fma = crate::simd::fma_active();
        let mut reference = seed;
        for i in 0..3 {
            for j in 0..5 {
                let mut acc = reference.get(i, j);
                for k in 0..4 {
                    if fma {
                        acc = a.get(i, k).mul_add(b.get(k, j), acc);
                    } else {
                        acc += a.get(i, k) * b.get(k, j);
                    }
                }
                reference.set(i, j, acc);
            }
        }
        assert_eq!(out, reference);
    }

    #[test]
    fn matmul_add_bias_close_to_unfused() {
        let a = arbitrary_matrix(6, 9, 53);
        let b = arbitrary_matrix(9, 7, 59);
        let bias = arbitrary_matrix(1, 7, 61);
        let fused = a.matmul_add_bias(&b, &bias);
        let mut unfused = a.matmul(&b);
        unfused.add_row_broadcast(&bias);
        for (f, u) in fused.as_slice().iter().zip(unfused.as_slice()) {
            // The fused kernel seeds the accumulator with the bias, so the
            // grouping differs; agreement must still be at rounding level.
            assert!((f - u).abs() <= 1e-12 * u.abs().max(1.0), "{f} vs {u}");
        }
    }

    #[test]
    fn matmul_add_bias_into_reuses_buffer() {
        let a = arbitrary_matrix(2, 3, 67);
        let b = arbitrary_matrix(3, 4, 71);
        let bias = arbitrary_matrix(1, 4, 73);
        let mut scratch = Matrix::filled(2, 4, f64::NAN);
        a.matmul_add_bias_into(&b, &bias, &mut scratch);
        assert_eq!(scratch, a.matmul_add_bias(&b, &bias));
    }

    #[test]
    #[should_panic(expected = "matmul_acc output shape mismatch")]
    fn matmul_acc_rejects_bad_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 5);
        a.matmul_acc(&b, &mut out);
    }

    #[test]
    fn norms_and_stats() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.sum(), -1.0);
        assert_eq!(a.mean(), -0.5);
    }
}
