//! Runtime-dispatched SIMD microkernels with scalar fallbacks.
//!
//! Every hot inner kernel — the blocked GEMM behind [`Matrix::matmul`],
//! the sigmoid/tanh/softmax element-wise passes, and the fused LSTM state
//! update — exists in up to three implementations:
//!
//! - a **scalar** kernel, identical to the original portable code (libm
//!   transcendentals, unfused multiply-add), which every non-x86 host
//!   (`aarch64` included) runs,
//! - an **AVX2+FMA** kernel (256-bit lanes), and
//! - an **AVX-512F** kernel (512-bit lanes, same ascending-`k` FMA chains
//!   as the AVX2 tier so the two x86 vector tiers are bit-identical per
//!   element).
//!
//! The active backend is resolved once per process (see [`backend`]) from
//! the `CPSMON_SIMD` environment variable and the CPU's feature flags:
//!
//! | `CPSMON_SIMD`    | effect                                              |
//! |------------------|-----------------------------------------------------|
//! | `0`, `off`, `scalar` | force the portable scalar kernels               |
//! | `avx2`           | cap at AVX2+FMA (scalar if unsupported)             |
//! | `avx512`         | request AVX-512 (degrades to AVX2+FMA, then scalar) |
//! | `max`, `1`, unset, anything else | widest backend the CPU supports     |
//!
//! # Determinism contract
//!
//! Within a backend, every kernel computes each output element with a
//! *fixed* operation sequence that depends only on that element's
//! mathematical inputs — never on its position in the buffer, the batch
//! size, or the thread count:
//!
//! - GEMM accumulates in strictly ascending `k` order per element; the
//!   AVX2 variant's scalar column tail uses [`f64::mul_add`], which rounds
//!   identically to the vector `vfmadd` lanes, so an output column produces
//!   the same bits whether it lands in a vector lane or the tail.
//! - [`gemm_acc_unfused`] runs the same microkernels with every
//!   multiply-add split into a rounded multiply and a rounded add (tails:
//!   `acc + a*b`), so under every backend it gives the bits of the naive
//!   unfused loop.
//! - The vector transcendentals (`exp`/`sigmoid`/`tanh`) have scalar
//!   mirrors (`exp_m`/`sigmoid_m`/`tanh_m`) built from the *same* operation
//!   sequence (fused multiply-adds included), used for slice tails; a value
//!   therefore maps to the same bits at any offset and slice length.
//!
//! Consequently the existing guarantees — streaming == batch inference,
//! bit-identical results for any `CPSMON_THREADS` — hold under both
//! backends. Results *across* backends differ in the last ulps (FMA fuses
//! rounding steps; the polynomial `exp` is not libm's), which is why the
//! backend is a process-wide constant rather than a per-call choice.
//!
//! [`Matrix::matmul`]: crate::Matrix::matmul

use std::cell::RefCell;
use std::sync::OnceLock;

/// Which kernel family [`backend`] resolved to for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar kernels (libm transcendentals, unfused mul+add).
    Scalar,
    /// AVX2 + FMA vector kernels with bit-mirroring scalar tails.
    Avx2Fma,
    /// AVX-512F vector kernels (512-bit GEMM tiles, 8-lane
    /// transcendentals); per element bit-identical to [`Backend::Avx2Fma`].
    Avx512,
}

impl Backend {
    /// Short human-readable name, used in logs and bench metadata.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2Fma => "avx2+fma",
            Backend::Avx512 => "avx512",
        }
    }

    /// Native `f64` vector width of the backend's registers. Batched
    /// structure-of-arrays passes (e.g. the cohort ODE integrators in
    /// `cpsmon-sim`) use this to size their lane blocks.
    pub fn f64_lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Avx2Fma => 4,
            Backend::Avx512 => 8,
        }
    }
}

/// CPU capability snapshot feeding [`resolve`]; factored out so the policy
/// is unit-testable without mutating process environment.
#[derive(Debug, Clone, Copy, Default)]
struct Caps {
    avx2_fma: bool,
    avx512: bool,
}

/// Pure backend resolution from the `CPSMON_SIMD` setting and the detected
/// CPU capabilities. Forced backends degrade gracefully to the next-widest
/// supported tier rather than aborting, so CI can set `CPSMON_SIMD=avx512`
/// on heterogeneous runners.
fn resolve(simd_env: Option<&str>, caps: Caps) -> Backend {
    let widest = if caps.avx512 {
        Backend::Avx512
    } else if caps.avx2_fma {
        Backend::Avx2Fma
    } else {
        Backend::Scalar
    };
    let v = match simd_env.map(str::trim) {
        Some(v) => v,
        None => return widest,
    };
    if v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("scalar") {
        Backend::Scalar
    } else if v.eq_ignore_ascii_case("avx2") {
        if caps.avx2_fma {
            Backend::Avx2Fma
        } else {
            Backend::Scalar
        }
    } else if v.eq_ignore_ascii_case("avx512") {
        if caps.avx512 {
            Backend::Avx512
        } else if caps.avx2_fma {
            Backend::Avx2Fma
        } else {
            Backend::Scalar
        }
    } else {
        // `max`, `1`, or anything unrecognised: widest available.
        widest
    }
}

fn detect_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// AVX-512 here means `avx512f` *plus* AVX2+FMA: the 512-bit kernels use
/// 256-bit registers for their mid-width tails.
fn detect_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f") && detect_avx2_fma()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect_caps() -> Caps {
    Caps {
        avx2_fma: detect_avx2_fma(),
        avx512: detect_avx512(),
    }
}

/// The process-wide kernel backend: resolved once on first use from
/// `CPSMON_SIMD` and the CPU's feature flags (see the module table) and
/// cached — changing the environment variable afterwards has no effect,
/// which keeps every computation in a process on one numerical profile.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| resolve(std::env::var("CPSMON_SIMD").ok().as_deref(), detect_caps()))
}

/// Whether the active backend fuses multiply-adds. Tests use this to pick
/// the matching bit-identity reference.
pub fn fma_active() -> bool {
    backend() != Backend::Scalar
}

/// `k`-panel height of the blocked GEMM: a `KC × n` slab of `b` (up to
/// ~256 KiB at `n = 256`) is reused across all `m` rows before the kernel
/// moves to the next panel, keeping it resident in L2.
pub(crate) const GEMM_KC: usize = 128;

// ---------------------------------------------------------------------------
// GEMM: out[m×n] += a[m×k] · b[k×n]
// ---------------------------------------------------------------------------

fn check_gemm_shapes(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &[f64]) {
    assert_eq!(a.len(), m * k, "gemm lhs buffer length mismatch");
    assert_eq!(b.len(), k * n, "gemm rhs buffer length mismatch");
    assert_eq!(out.len(), m * n, "gemm output buffer length mismatch");
}

/// Dispatched `out += a · b` (row-major, `a` is `m×k`, `b` is `k×n`).
///
/// Per output element the multiply-adds are applied in strictly ascending
/// `k` order under both backends; the scalar backend uses unfused
/// `acc += a*b`, the AVX2 backend fused `acc = fma(a, b, acc)`.
///
/// # Panics
///
/// Panics if any buffer length disagrees with the stated shape.
pub fn gemm_acc(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    check_gemm_shapes(a, m, k, b, n, out);
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { avx512::gemm_acc::<true>(a, m, k, b, n, out) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => unsafe { gemm_acc_avx2::<true>(a, m, k, b, n, out) },
        _ => gemm_acc_scalar(a, m, k, b, n, out),
    }
}

/// Dispatched `out += a · b` that never fuses: under every backend each
/// `k` step is a rounded multiply followed by a rounded add, in strictly
/// ascending `k` order per element — bit-identical to the naive
/// `acc += a*b` triple loop. The vector backends run the same
/// microkernels as [`gemm_acc`] with each `vfmadd` split in two; the
/// scalar backend is [`gemm_acc_scalar`], which is already unfused. This
/// is the weight-gradient kernel behind
/// [`Matrix::transpose_matmul`](crate::Matrix::transpose_matmul).
///
/// # Panics
///
/// Panics if any buffer length disagrees with the stated shape.
pub fn gemm_acc_unfused(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    check_gemm_shapes(a, m, k, b, n, out);
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { avx512::gemm_acc::<false>(a, m, k, b, n, out) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => unsafe { gemm_acc_avx2::<false>(a, m, k, b, n, out) },
        _ => gemm_acc_scalar(a, m, k, b, n, out),
    }
}

/// Row count from which a GEMM lays its right operand out as the AVX-512
/// kernel's panels for one call or pass: below it laying B out costs more
/// than the contiguous, L1-resident panel loads save. The per-call pack
/// inside [`gemm_acc`] and the backward passes' transposed [`PackedB`] use
/// this threshold; a layer's cached weight panels, laid out once, serve
/// every row count.
pub const PACK_MIN_M: usize = 64;

/// Column width of one packed B panel. `GEMM_KC` rows of a panel are
/// 32 KiB, which fits in L1 next to the rows streaming past it.
const PANEL: usize = 32;

/// Whether a right operand `n` columns wide has a panel layout: the
/// AVX-512 backend and at least one full panel of columns. A weight
/// matrix that has one keeps it ([`panels_of`]).
pub(crate) fn panels_fit(n: usize) -> bool {
    n >= PANEL && backend() == Backend::Avx512
}

/// Whether an `m`-row product by a right operand `n` columns wide lays it
/// out as panels for the one pass: at least [`PACK_MIN_M`] rows and
/// [`panels_fit`].
pub(crate) fn packs(m: usize, n: usize) -> bool {
    m >= PACK_MIN_M && panels_fit(n)
}

/// Row-major `b` (`k × n`) laid out as the AVX-512 kernel's panels in a
/// buffer of its own: the form a weight matrix keeps when
/// [`panels_fit`] (see [`gemm_acc_panels`]).
pub(crate) fn panels_of(b: &[f64], k: usize, n: usize) -> Vec<f64> {
    assert_eq!(b.len(), k * n, "packed operand length mismatch");
    let mut panels = vec![0.0; k * n];
    pack_panels(b, k, n, &mut panels);
    panels
}

/// `out += a · B` for B (`k × n`) laid out by [`panels_of`]: `a` is
/// `m × k`, `out` is `m × n`. Bit-identical per element to [`gemm_acc`]
/// on the row-major B.
///
/// # Panics
///
/// Panics if a buffer length disagrees with the stated shape, or if the
/// backend is not AVX-512 (panels are laid out only under it).
pub(crate) fn gemm_acc_panels(
    a: &[f64],
    m: usize,
    k: usize,
    n: usize,
    panels: &[f64],
    out: &mut [f64],
) {
    check_gemm_shapes(a, m, k, panels, n, out);
    assert_eq!(backend(), Backend::Avx512, "panels need the AVX-512 kernel");
    // SAFETY: the backend resolved to AVX-512, so the CPU has AVX-512F,
    // AVX2 and FMA, and the shapes were checked above.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        avx512::gemm_panels::<true>(a, m, k, n, panels, out)
    }
}

/// Idle pack buffers a thread keeps: enough for an LSTM backward pass's
/// two transposed weights and the per-call pack of its weight-gradient
/// products.
const MAX_PACK_BUFS: usize = 3;

thread_local! {
    /// This thread's idle pack buffers. The per-call pack inside
    /// [`gemm_acc`] and every [`PackedB`] take their storage from here and
    /// give it back, so one set of buffers serves both, and a thread
    /// allocates only when it holds more packed operands at once than it
    /// ever did.
    static PACK_BUFS: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// A buffer of `len` elements with unspecified contents from this
/// thread's pack buffers: the smallest that holds `len`, else the largest,
/// grown. Growing rather than adding a buffer keeps a thread at one buffer
/// per operand it holds at once.
fn take_pack_buf(len: usize) -> Vec<f64> {
    let mut buf = PACK_BUFS.with(|bufs| {
        let mut bufs = bufs.borrow_mut();
        let fits = (0..bufs.len()).filter(|&i| bufs[i].capacity() >= len);
        let pick = fits.min_by_key(|&i| bufs[i].capacity());
        let pick = pick.or_else(|| (0..bufs.len()).max_by_key(|&i| bufs[i].capacity()));
        pick.map(|i| bufs.swap_remove(i)).unwrap_or_default()
    });
    buf.resize(len, 0.0);
    buf
}

/// Returns a buffer to this thread's pack buffers, or frees it when the
/// thread already keeps [`MAX_PACK_BUFS`] (or is exiting).
fn give_pack_buf(buf: Vec<f64>) {
    if buf.capacity() == 0 {
        return;
    }
    let _ = PACK_BUFS.try_with(|bufs| {
        let mut bufs = bufs.borrow_mut();
        if bufs.len() < MAX_PACK_BUFS {
            bufs.push(buf);
        }
    });
}

/// Frees this thread's idle pack buffers (see [`crate::par`]'s workers).
pub(crate) fn free_pack_bufs() {
    let _ = PACK_BUFS.try_with(|bufs| std::mem::take(&mut *bufs.borrow_mut()));
}

/// Writes B (`k × n`) in the panel layout into `dst` (`k · n` long):
/// first each full `PANEL`-column panel as `k` contiguous `PANEL`-wide rows
/// (kk-major), then the `n % PANEL` tail columns as a row-major
/// `k × (n % PANEL)` block. `fill(kk, j, row)` writes B's row `kk`,
/// columns `j..j + row.len()`, into `row`. Read in place, the monitors'
/// B (n = 256 or 512) steps a multiple of 4 KiB per `k`, so a column
/// strip's rows all map to the same L1 sets; a contiguous panel does not.
fn lay_out_panels(k: usize, n: usize, dst: &mut [f64], fill: impl Fn(usize, usize, &mut [f64])) {
    debug_assert_eq!(dst.len(), k * n);
    let full = n - n % PANEL;
    let (panels, tail) = dst.split_at_mut(full * k);
    for (p, panel) in panels.chunks_exact_mut(PANEL * k).enumerate() {
        for (kk, row) in panel.chunks_exact_mut(PANEL).enumerate() {
            fill(kk, p * PANEL, row);
        }
    }
    for (kk, row) in tail.chunks_exact_mut((n - full).max(1)).enumerate() {
        fill(kk, full, row);
    }
}

/// Lays out row-major `b` (`k × n`) as panels in `dst`
/// (see [`lay_out_panels`]).
fn pack_panels(b: &[f64], k: usize, n: usize, dst: &mut [f64]) {
    lay_out_panels(k, n, dst, |kk, j, row| {
        row.copy_from_slice(&b[kk * n + j..kk * n + j + row.len()]);
    });
}

/// Lays out `wᵀ` as panels in `dst`, where `w` is row-major `n × k`.
fn pack_panels_transposed(w: &[f64], k: usize, n: usize, dst: &mut [f64]) {
    lay_out_panels(k, n, dst, |kk, j, row| {
        for (c, v) in row.iter_mut().enumerate() {
            *v = w[(j + c) * k + kk];
        }
    });
}

/// A backward pass's right operand `Wᵀ` (`k × n`, from a weight `w` that
/// is `n × k`) transposed and laid out once for every `dz·Wᵀ` product of
/// the pass. When the pass has at least [`PACK_MIN_M`] rows and `Wᵀ` one
/// full panel of columns under the AVX-512 backend, it is stored as the
/// kernel's panels, so the products skip [`gemm_acc`]'s per-call pack;
/// otherwise row-major for the active backend's kernel. The storage comes
/// from the packing thread's pack buffers and goes back to the dropping
/// thread's, so a pass that packs allocates nothing once its threads are
/// warm.
///
/// Layout never changes results: [`gemm_acc_packed`] gives every element
/// the bits [`gemm_acc`] gives it on the row-major `Wᵀ`.
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    k: usize,
    n: usize,
    panels: bool,
    buf: Vec<f64>,
}

impl Drop for PackedB {
    fn drop(&mut self) {
        give_pack_buf(std::mem::take(&mut self.buf));
    }
}

impl PackedB {
    /// Stores `wᵀ`, where `w` is row-major `n × k`, for a pass of
    /// `rows`-row products.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != k · n`.
    pub fn pack_transposed(&mut self, w: &[f64], k: usize, n: usize, rows: usize) {
        assert_eq!(w.len(), k * n, "packed operand length mismatch");
        self.k = k;
        self.n = n;
        self.panels = packs(rows, n);
        if self.buf.capacity() < k * n {
            give_pack_buf(std::mem::take(&mut self.buf));
            self.buf = take_pack_buf(k * n);
        }
        self.buf.resize(k * n, 0.0);
        if self.panels {
            pack_panels_transposed(w, k, n, &mut self.buf);
        } else {
            crate::matrix::transpose_into(w, n, k, &mut self.buf);
        }
    }
}

/// Dispatched `out += a · b` for a right operand packed once per pass:
/// `a` is `m × b.k`, `out` is `m × b.n`. Bit-identical per element to
/// [`gemm_acc`] on the row-major B.
///
/// # Panics
///
/// Panics if any buffer length disagrees with the stated shape.
pub fn gemm_acc_packed(a: &[f64], m: usize, b: &PackedB, out: &mut [f64]) {
    if b.panels {
        gemm_acc_panels(a, m, b.k, b.n, &b.buf, out);
    } else {
        gemm_acc(a, m, b.k, &b.buf, b.n, out);
    }
}

/// The portable blocked `ikj` GEMM with a 4-wide unroll over `k` —
/// bit-identical to the naive triple loop (sequential `+=` per element)
/// over whatever `out` was seeded with.
pub fn gemm_acc_scalar(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    check_gemm_shapes(a, m, k, b, n, out);
    for k0 in (0..k).step_by(GEMM_KC) {
        let k1 = (k0 + GEMM_KC).min(k);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            let mut kk = k0;
            while kk + 4 <= k1 {
                let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
                let b0 = &b[kk * n..(kk + 1) * n];
                let b1 = &b[(kk + 1) * n..(kk + 2) * n];
                let b2 = &b[(kk + 2) * n..(kk + 3) * n];
                let b3 = &b[(kk + 3) * n..(kk + 4) * n];
                for j in 0..n {
                    // Sequential adds: ascending-k order, one load/store of
                    // the output per four multiply-adds.
                    let mut acc = out_row[j];
                    acc += a0 * b0[j];
                    acc += a1 * b1[j];
                    acc += a2 * b2[j];
                    acc += a3 * b3[j];
                    out_row[j] = acc;
                }
                kk += 4;
            }
            while kk < k1 {
                let a_val = a_row[kk];
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_val * bv;
                }
                kk += 1;
            }
        }
    }
}

/// AVX2+FMA GEMM through the safe entry used by tests and benches.
///
/// # Panics
///
/// Panics if the CPU does not support AVX2+FMA or a buffer length
/// disagrees with the stated shape.
#[cfg(target_arch = "x86_64")]
pub fn gemm_acc_fma(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    assert!(detect_avx2_fma(), "AVX2+FMA not supported on this CPU");
    check_gemm_shapes(a, m, k, b, n, out);
    unsafe { gemm_acc_avx2::<true>(a, m, k, b, n, out) }
}

/// One multiply-add step `acc + a·b` of a GEMM chain: [`f64::mul_add`]
/// (one rounding, like a `vfmadd` lane) when `FUSED`, else a rounded
/// multiply then a rounded add (like the split vector form).
#[inline(always)]
fn madd<const FUSED: bool>(a: f64, b: f64, acc: f64) -> f64 {
    if FUSED {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// The 4-lane form of [`madd`]: `vfmadd` when `FUSED`, else `vmul` then
/// `vadd`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn madd256<const FUSED: bool>(
    a: std::arch::x86_64::__m256d,
    b: std::arch::x86_64::__m256d,
    c: std::arch::x86_64::__m256d,
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    if FUSED {
        _mm256_fmadd_pd(a, b, c)
    } else {
        _mm256_add_pd(c, _mm256_mul_pd(a, b))
    }
}

/// The last `w < 4` columns of a 4-row block, where B row `kk` starts at
/// `b + kk · bs` and `a[r]`, `o[r]` point at row `r` of the left operand
/// and at its first tail column of the output. Each column width gets its
/// own tile ([`tail_4xw`]).
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tail_4<const FUSED: bool>(
    a: [*const f64; 4],
    ks: std::ops::Range<usize>,
    (b, bs): (*const f64, usize),
    w: usize,
    o: [*mut f64; 4],
) {
    match w {
        0 => {}
        1 => tail_4xw::<FUSED, 1>(a, ks, b, bs, o),
        2 => tail_4xw::<FUSED, 2>(a, ks, b, bs, o),
        3 => tail_4xw::<FUSED, 3>(a, ks, b, bs, o),
        _ => unreachable!("a column tail is narrower than four lanes"),
    }
}

/// Four rows across `W` columns, the 4·`W` accumulator chains advancing
/// together in one `k` loop: each element still takes its own
/// ascending-`k` chain of [`madd`]s, so it gets the bits a vector lane
/// gives it, while the other chains hide each multiply-add's latency. A
/// 2-class head (`n = 2`) runs entirely here.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn tail_4xw<const FUSED: bool, const W: usize>(
    a: [*const f64; 4],
    ks: std::ops::Range<usize>,
    b: *const f64,
    bs: usize,
    o: [*mut f64; 4],
) {
    let mut c = [[0.0; W]; 4];
    for (row, &or) in c.iter_mut().zip(&o) {
        for (q, acc) in row.iter_mut().enumerate() {
            *acc = *or.add(q);
        }
    }
    for kk in ks {
        let bk = b.add(kk * bs);
        let bv: [f64; W] = std::array::from_fn(|q| *bk.add(q));
        for (row, &ar) in c.iter_mut().zip(&a) {
            let av = *ar.add(kk);
            for (acc, &bq) in row.iter_mut().zip(&bv) {
                *acc = madd::<FUSED>(av, bq, *acc);
            }
        }
    }
    for (row, &or) in c.iter().zip(&o) {
        for (q, &acc) in row.iter().enumerate() {
            *or.add(q) = acc;
        }
    }
}

/// Vectorized GEMM with a 4-row × 8-column register microkernel: four `a`
/// rows share every load of a `b` panel line (¼ the L2 traffic of a
/// row-at-a-time loop), and each of the eight accumulator chains takes one
/// multiply-add ([`madd256`]) per `k` step. Row remainders fall back to a
/// single-row vector loop; the last `n % 4` columns of a 4-row block run
/// through [`tail_4`], whose [`madd`] chains mirror the lanes.
/// Per element the chain is strictly `k`-ascending regardless of which
/// micro-tile computed it, so results are independent of blocking, batch
/// slicing, and lane/tail position. `FUSED` picks fused multiply-adds
/// ([`gemm_acc`]) or split ones ([`gemm_acc_unfused`]).
///
/// # Safety
///
/// Requires AVX2 and FMA; buffer lengths must match the stated shapes
/// (checked by the safe wrappers).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_acc_avx2<const FUSED: bool>(
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let op = out.as_mut_ptr();
    for k0 in (0..k).step_by(GEMM_KC) {
        let k1 = (k0 + GEMM_KC).min(k);
        let mut i = 0;
        while i + 4 <= m {
            let a0 = ap.add(i * k);
            let a1 = ap.add((i + 1) * k);
            let a2 = ap.add((i + 2) * k);
            let a3 = ap.add((i + 3) * k);
            let o0 = op.add(i * n);
            let o1 = op.add((i + 1) * n);
            let o2 = op.add((i + 2) * n);
            let o3 = op.add((i + 3) * n);
            let mut j = 0;
            while j + 8 <= n {
                let mut c00 = _mm256_loadu_pd(o0.add(j));
                let mut c01 = _mm256_loadu_pd(o0.add(j + 4));
                let mut c10 = _mm256_loadu_pd(o1.add(j));
                let mut c11 = _mm256_loadu_pd(o1.add(j + 4));
                let mut c20 = _mm256_loadu_pd(o2.add(j));
                let mut c21 = _mm256_loadu_pd(o2.add(j + 4));
                let mut c30 = _mm256_loadu_pd(o3.add(j));
                let mut c31 = _mm256_loadu_pd(o3.add(j + 4));
                for kk in k0..k1 {
                    let b0 = _mm256_loadu_pd(bp.add(kk * n + j));
                    let b1 = _mm256_loadu_pd(bp.add(kk * n + j + 4));
                    let av = _mm256_set1_pd(*a0.add(kk));
                    c00 = madd256::<FUSED>(av, b0, c00);
                    c01 = madd256::<FUSED>(av, b1, c01);
                    let av = _mm256_set1_pd(*a1.add(kk));
                    c10 = madd256::<FUSED>(av, b0, c10);
                    c11 = madd256::<FUSED>(av, b1, c11);
                    let av = _mm256_set1_pd(*a2.add(kk));
                    c20 = madd256::<FUSED>(av, b0, c20);
                    c21 = madd256::<FUSED>(av, b1, c21);
                    let av = _mm256_set1_pd(*a3.add(kk));
                    c30 = madd256::<FUSED>(av, b0, c30);
                    c31 = madd256::<FUSED>(av, b1, c31);
                }
                _mm256_storeu_pd(o0.add(j), c00);
                _mm256_storeu_pd(o0.add(j + 4), c01);
                _mm256_storeu_pd(o1.add(j), c10);
                _mm256_storeu_pd(o1.add(j + 4), c11);
                _mm256_storeu_pd(o2.add(j), c20);
                _mm256_storeu_pd(o2.add(j + 4), c21);
                _mm256_storeu_pd(o3.add(j), c30);
                _mm256_storeu_pd(o3.add(j + 4), c31);
                j += 8;
            }
            while j + 4 <= n {
                let mut c0 = _mm256_loadu_pd(o0.add(j));
                let mut c1 = _mm256_loadu_pd(o1.add(j));
                let mut c2 = _mm256_loadu_pd(o2.add(j));
                let mut c3 = _mm256_loadu_pd(o3.add(j));
                for kk in k0..k1 {
                    let b0 = _mm256_loadu_pd(bp.add(kk * n + j));
                    c0 = madd256::<FUSED>(_mm256_set1_pd(*a0.add(kk)), b0, c0);
                    c1 = madd256::<FUSED>(_mm256_set1_pd(*a1.add(kk)), b0, c1);
                    c2 = madd256::<FUSED>(_mm256_set1_pd(*a2.add(kk)), b0, c2);
                    c3 = madd256::<FUSED>(_mm256_set1_pd(*a3.add(kk)), b0, c3);
                }
                _mm256_storeu_pd(o0.add(j), c0);
                _mm256_storeu_pd(o1.add(j), c1);
                _mm256_storeu_pd(o2.add(j), c2);
                _mm256_storeu_pd(o3.add(j), c3);
                j += 4;
            }
            // Scalar tail: `madd` rounds exactly like the vector lanes, so
            // column position cannot change bits.
            let o = [o0, o1, o2, o3].map(|or| or.add(j));
            tail_4::<FUSED>([a0, a1, a2, a3], k0..k1, (bp.add(j), n), n - j, o);
            i += 4;
        }
        while i < m {
            // Row remainder in ikj order: broadcast `a` elements and axpy
            // across the contiguous `b` rows, keeping the out row hot in L1 —
            // the single-row (streaming-session) shape would otherwise
            // stream the whole `b` panel with stride-`n` loads. Per element
            // this performs the same strictly `k`-ascending FMA chain as the
            // register micro-kernel, so the bits cannot differ.
            let a_row = &a[i * k..(i + 1) * k];
            let or = op.add(i * n);
            let mut kk = k0;
            while kk + 4 <= k1 {
                // Four k-steps per pass over the out row: one load/store of
                // the accumulator amortizes four FMAs (the single-row
                // streaming-session shape is otherwise store-bound at three
                // memory ops per FMA). Per element the chain is still four
                // ascending-k FMAs, exactly as if applied in four passes.
                let av0 = _mm256_set1_pd(a_row[kk]);
                let av1 = _mm256_set1_pd(a_row[kk + 1]);
                let av2 = _mm256_set1_pd(a_row[kk + 2]);
                let av3 = _mm256_set1_pd(a_row[kk + 3]);
                let b0 = bp.add(kk * n);
                let b1 = bp.add((kk + 1) * n);
                let b2 = bp.add((kk + 2) * n);
                let b3 = bp.add((kk + 3) * n);
                let mut j = 0;
                while j + 8 <= n {
                    // Two independent accumulators per pass hide the FMA
                    // latency of the four-deep chains.
                    let mut c0 = _mm256_loadu_pd(or.add(j));
                    let mut c1 = _mm256_loadu_pd(or.add(j + 4));
                    c0 = madd256::<FUSED>(av0, _mm256_loadu_pd(b0.add(j)), c0);
                    c1 = madd256::<FUSED>(av0, _mm256_loadu_pd(b0.add(j + 4)), c1);
                    c0 = madd256::<FUSED>(av1, _mm256_loadu_pd(b1.add(j)), c0);
                    c1 = madd256::<FUSED>(av1, _mm256_loadu_pd(b1.add(j + 4)), c1);
                    c0 = madd256::<FUSED>(av2, _mm256_loadu_pd(b2.add(j)), c0);
                    c1 = madd256::<FUSED>(av2, _mm256_loadu_pd(b2.add(j + 4)), c1);
                    c0 = madd256::<FUSED>(av3, _mm256_loadu_pd(b3.add(j)), c0);
                    c1 = madd256::<FUSED>(av3, _mm256_loadu_pd(b3.add(j + 4)), c1);
                    _mm256_storeu_pd(or.add(j), c0);
                    _mm256_storeu_pd(or.add(j + 4), c1);
                    j += 8;
                }
                while j + 4 <= n {
                    let mut c = _mm256_loadu_pd(or.add(j));
                    c = madd256::<FUSED>(av0, _mm256_loadu_pd(b0.add(j)), c);
                    c = madd256::<FUSED>(av1, _mm256_loadu_pd(b1.add(j)), c);
                    c = madd256::<FUSED>(av2, _mm256_loadu_pd(b2.add(j)), c);
                    c = madd256::<FUSED>(av3, _mm256_loadu_pd(b3.add(j)), c);
                    _mm256_storeu_pd(or.add(j), c);
                    j += 4;
                }
                while j < n {
                    let mut acc = *or.add(j);
                    acc = madd::<FUSED>(a_row[kk], *b0.add(j), acc);
                    acc = madd::<FUSED>(a_row[kk + 1], *b1.add(j), acc);
                    acc = madd::<FUSED>(a_row[kk + 2], *b2.add(j), acc);
                    acc = madd::<FUSED>(a_row[kk + 3], *b3.add(j), acc);
                    *or.add(j) = acc;
                    j += 1;
                }
                kk += 4;
            }
            while kk < k1 {
                let av = _mm256_set1_pd(a_row[kk]);
                let br = bp.add(kk * n);
                let mut j = 0;
                while j + 4 <= n {
                    let c0 = _mm256_loadu_pd(or.add(j));
                    let c0 = madd256::<FUSED>(av, _mm256_loadu_pd(br.add(j)), c0);
                    _mm256_storeu_pd(or.add(j), c0);
                    j += 4;
                }
                while j < n {
                    *or.add(j) = madd::<FUSED>(a_row[kk], *br.add(j), *or.add(j));
                    j += 1;
                }
                kk += 1;
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Vector transcendentals and their bit-mirroring scalar forms
// ---------------------------------------------------------------------------

// Cephes-style expression of exp(x): range reduction x = n·ln2 + r followed
// by a rational approximation of exp(r) on |r| ≤ ln2/2. The same constants
// and operation order are used by the scalar mirror (`exp_m`) and the AVX2
// lanes (`exp_pd`), so both produce identical bits for identical inputs.
const EXP_LOG2E: f64 = std::f64::consts::LOG2_E;
const EXP_C1: f64 = 6.931_457_519_531_25e-1;
const EXP_C2: f64 = 1.428_606_820_309_417_2e-6;
const EXP_P0: f64 = 1.261_771_930_748_105_9e-4;
const EXP_P1: f64 = 3.029_944_077_074_419_6e-2;
const EXP_P2: f64 = 9.999_999_999_999_999e-1;
const EXP_Q0: f64 = 3.001_985_051_386_644_6e-6;
const EXP_Q1: f64 = 2.524_483_403_496_841e-3;
const EXP_Q2: f64 = 2.272_655_482_081_550_3e-1;
const EXP_Q3: f64 = 2.000_000_000_000_000_2;
/// Clamp bounds keeping `2^n` representable as a plain exponent-field
/// bit pattern (no overflow/denormal scaling needed). Saturates at
/// `exp(±708)`; all in-repo callers (softmax, sigmoid, tanh) pass
/// non-positive arguments, where the low clamp only affects results that
/// are ≈ 1e-308 anyway.
const EXP_CLAMP: f64 = 708.0;

/// Scalar mirror of the AVX2 `exp` lanes: same polynomial, same fused
/// multiply-add sequence ([`f64::mul_add`] rounds like `vfmadd`), so for
/// any input it returns exactly the bits a vector lane would. Used for
/// slice tails under the AVX2 backend. Accuracy vs libm `exp` is a few
/// ulp over the clamped range.
pub fn exp_m(x: f64) -> f64 {
    let x = x.clamp(-EXP_CLAMP, EXP_CLAMP);
    let px = (EXP_LOG2E * x + 0.5).floor();
    let n = px as i64;
    // x -= px*C1; x -= px*C2 — fused, matching _mm256_fnmadd_pd.
    let x = (-px).mul_add(EXP_C1, x);
    let x = (-px).mul_add(EXP_C2, x);
    let xx = x * x;
    let p = x * EXP_P0.mul_add(xx, EXP_P1).mul_add(xx, EXP_P2);
    let q = EXP_Q0
        .mul_add(xx, EXP_Q1)
        .mul_add(xx, EXP_Q2)
        .mul_add(xx, EXP_Q3);
    let r = p / (q - p);
    let r = 2.0f64.mul_add(r, 1.0);
    r * f64::from_bits(((n + 1023) as u64) << 52)
}

/// Scalar mirror of the AVX2 sigmoid lanes: `e/(1+e)` with
/// `e = exp_m(-|v|)`, numerator 1 for `v ≥ 0`.
pub fn sigmoid_m(v: f64) -> f64 {
    let e = exp_m(-v.abs());
    let num = if v >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

/// Threshold below which `tanh(v) = v` to double precision (error is
/// `v³/3`, relatively `v²/3 ≈ 3e-17` at the cutover), avoiding the
/// `1 - e` cancellation of the exponential form near zero.
const TANH_TINY: f64 = 1e-8;

/// Scalar mirror of the AVX2 tanh lanes: `(1-e)/(1+e)` with
/// `e = exp_m(-2|v|)`, sign restored by copysign, identity below
/// `TANH_TINY`.
pub fn tanh_m(v: f64) -> f64 {
    let a = v.abs();
    if a < TANH_TINY {
        return v;
    }
    let e = exp_m(-2.0 * a);
    let t = (1.0 - e) / (1.0 + e);
    t.copysign(v)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The vector lanes behind the AVX2 backend. Each `_pd` helper is the
    //! four-lane transliteration of its `_m` scalar mirror in the parent
    //! module — same constants, same operation order — so lane and tail
    //! results are bit-identical per element.
    #![allow(unsafe_op_in_unsafe_fn)]

    use super::*;
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn exp_pd(x: __m256d) -> __m256d {
        let clamp = _mm256_set1_pd(EXP_CLAMP);
        let x = _mm256_min_pd(
            _mm256_max_pd(x, _mm256_sub_pd(_mm256_setzero_pd(), clamp)),
            clamp,
        );
        let px = _mm256_floor_pd(_mm256_add_pd(
            _mm256_mul_pd(_mm256_set1_pd(EXP_LOG2E), x),
            _mm256_set1_pd(0.5),
        ));
        // px holds small exact integers: cvtpd_epi32 is exact; widen to i64
        // and build 2^n directly in the exponent field.
        let n32 = _mm256_cvtpd_epi32(px);
        let n64 = _mm256_cvtepi32_epi64(n32);
        let pow2 = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(
            n64,
            _mm256_set1_epi64x(1023),
        )));
        let x = _mm256_fnmadd_pd(px, _mm256_set1_pd(EXP_C1), x);
        let x = _mm256_fnmadd_pd(px, _mm256_set1_pd(EXP_C2), x);
        let xx = _mm256_mul_pd(x, x);
        let p = _mm256_fmadd_pd(_mm256_set1_pd(EXP_P0), xx, _mm256_set1_pd(EXP_P1));
        let p = _mm256_fmadd_pd(p, xx, _mm256_set1_pd(EXP_P2));
        let p = _mm256_mul_pd(x, p);
        let q = _mm256_fmadd_pd(_mm256_set1_pd(EXP_Q0), xx, _mm256_set1_pd(EXP_Q1));
        let q = _mm256_fmadd_pd(q, xx, _mm256_set1_pd(EXP_Q2));
        let q = _mm256_fmadd_pd(q, xx, _mm256_set1_pd(EXP_Q3));
        let r = _mm256_div_pd(p, _mm256_sub_pd(q, p));
        let r = _mm256_fmadd_pd(_mm256_set1_pd(2.0), r, _mm256_set1_pd(1.0));
        _mm256_mul_pd(r, pow2)
    }

    const SIGN_MASK: i64 = i64::MIN; // 0x8000_0000_0000_0000

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sigmoid_pd(v: __m256d) -> __m256d {
        let sign = _mm256_castsi256_pd(_mm256_set1_epi64x(SIGN_MASK));
        let abs = _mm256_andnot_pd(sign, v);
        let e = exp_pd(_mm256_sub_pd(_mm256_setzero_pd(), abs));
        let one = _mm256_set1_pd(1.0);
        // v ≥ 0 → numerator 1, else e (matches the stable scalar form).
        let nonneg = _mm256_cmp_pd::<_CMP_GE_OQ>(v, _mm256_setzero_pd());
        let num = _mm256_blendv_pd(e, one, nonneg);
        _mm256_div_pd(num, _mm256_add_pd(one, e))
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tanh_pd(v: __m256d) -> __m256d {
        let sign_bit = _mm256_castsi256_pd(_mm256_set1_epi64x(SIGN_MASK));
        let abs = _mm256_andnot_pd(sign_bit, v);
        let e = exp_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), abs));
        let one = _mm256_set1_pd(1.0);
        let t = _mm256_div_pd(_mm256_sub_pd(one, e), _mm256_add_pd(one, e));
        // copysign(t, v): take |t| (t ≥ 0 here) and v's sign bit.
        let signed = _mm256_or_pd(t, _mm256_and_pd(sign_bit, v));
        // |v| < TANH_TINY → identity, dodging the 1-e cancellation.
        let tiny = _mm256_cmp_pd::<_CMP_LT_OQ>(abs, _mm256_set1_pd(TANH_TINY));
        _mm256_blendv_pd(signed, v, tiny)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sigmoid_slice(xs: &mut [f64]) {
        let p = xs.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= xs.len() {
            _mm256_storeu_pd(p.add(i), sigmoid_pd(_mm256_loadu_pd(p.add(i))));
            i += 4;
        }
        for v in &mut xs[i..] {
            *v = sigmoid_m(*v);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tanh_slice(xs: &mut [f64]) {
        let p = xs.as_mut_ptr();
        let mut i = 0;
        while i + 4 <= xs.len() {
            _mm256_storeu_pd(p.add(i), tanh_pd(_mm256_loadu_pd(p.add(i))));
            i += 4;
        }
        for v in &mut xs[i..] {
            *v = tanh_m(*v);
        }
    }

    /// Softmax of one row: vector max / exp / sum with a fixed
    /// lane-reduction order (pairwise within the final register, then the
    /// tail elements in ascending order), then the division pass.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn softmax_row(row: &mut [f64]) {
        let n = row.len();
        let p = row.as_mut_ptr();
        // Row maximum: vector fold then ordered tail.
        let mut i = 0;
        let mut max = f64::NEG_INFINITY;
        if n >= 4 {
            let mut mv = _mm256_loadu_pd(p);
            i = 4;
            while i + 4 <= n {
                mv = _mm256_max_pd(mv, _mm256_loadu_pd(p.add(i)));
                i += 4;
            }
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), mv);
            max = lanes[0].max(lanes[1]).max(lanes[2]).max(lanes[3]);
        }
        for &v in &row[i..] {
            max = max.max(v);
        }
        // Exponentiate shifted values and accumulate the sum: lane partial
        // sums folded pairwise, tail added in ascending order afterwards —
        // a fixed order for a given row, independent of anything else.
        let mv = _mm256_set1_pd(max);
        let mut i = 0;
        let mut sum;
        if n >= 4 {
            let mut sv = _mm256_setzero_pd();
            while i + 4 <= n {
                let e = exp_pd(_mm256_sub_pd(_mm256_loadu_pd(p.add(i)), mv));
                _mm256_storeu_pd(p.add(i), e);
                sv = _mm256_add_pd(sv, e);
                i += 4;
            }
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), sv);
            sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        } else {
            sum = 0.0;
        }
        for v in &mut row[i..] {
            *v = exp_m(*v - max);
            sum += *v;
        }
        let sv = _mm256_set1_pd(sum);
        let mut i = 0;
        while i + 4 <= n {
            _mm256_storeu_pd(p.add(i), _mm256_div_pd(_mm256_loadu_pd(p.add(i)), sv));
            i += 4;
        }
        for v in &mut row[i..] {
            *v /= sum;
        }
    }

    /// Fused LSTM state update for one row — the vector form of
    /// [`lstm_step_row_scalar`](super::lstm_step_row_scalar) under the
    /// AVX2 transcendentals. The gate algebra deliberately uses *unfused*
    /// mul/add, the element-wise form `f⊙c + i⊙g` of the gate equations.
    /// When `CACHE`, the activated gates `[i, f, g, o]` also go to `acts`
    /// and `tanh(c)` to `tc` (otherwise both may be empty).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn lstm_step_row<const CACHE: bool>(
        z: &[f64],
        c: &mut [f64],
        h: &mut [f64],
        acts: &mut [f64],
        tc: &mut [f64],
        h_dim: usize,
    ) {
        let zp = z.as_ptr();
        let cp = c.as_mut_ptr();
        let hp = h.as_mut_ptr();
        let ap = acts.as_mut_ptr();
        let tp = tc.as_mut_ptr();
        let mut j = 0;
        while j + 4 <= h_dim {
            let i_g = sigmoid_pd(_mm256_loadu_pd(zp.add(j)));
            let f_g = sigmoid_pd(_mm256_loadu_pd(zp.add(h_dim + j)));
            let g_g = tanh_pd(_mm256_loadu_pd(zp.add(2 * h_dim + j)));
            let o_g = sigmoid_pd(_mm256_loadu_pd(zp.add(3 * h_dim + j)));
            let c_new = _mm256_add_pd(
                _mm256_mul_pd(f_g, _mm256_loadu_pd(cp.add(j))),
                _mm256_mul_pd(i_g, g_g),
            );
            _mm256_storeu_pd(cp.add(j), c_new);
            let t = tanh_pd(c_new);
            if CACHE {
                _mm256_storeu_pd(ap.add(j), i_g);
                _mm256_storeu_pd(ap.add(h_dim + j), f_g);
                _mm256_storeu_pd(ap.add(2 * h_dim + j), g_g);
                _mm256_storeu_pd(ap.add(3 * h_dim + j), o_g);
                _mm256_storeu_pd(tp.add(j), t);
            }
            _mm256_storeu_pd(hp.add(j), _mm256_mul_pd(o_g, t));
            j += 4;
        }
        while j < h_dim {
            let i_g = sigmoid_m(z[j]);
            let f_g = sigmoid_m(z[h_dim + j]);
            let g_g = tanh_m(z[2 * h_dim + j]);
            let o_g = sigmoid_m(z[3 * h_dim + j]);
            let c_new = f_g * c[j] + i_g * g_g;
            c[j] = c_new;
            let t = tanh_m(c_new);
            if CACHE {
                cache_gates(acts, tc, h_dim, j, [i_g, f_g, g_g, o_g], t);
            }
            h[j] = o_g * t;
            j += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! The 512-bit kernel tier. The GEMM applies the same strictly
    //! `k`-ascending one-multiply-add-per-step chain per output element as
    //! the AVX2 tier (fused or split, per `FUSED`), and the 8-lane
    //! transcendentals are transliterations of the same `_m` scalar
    //! mirrors — so every kernel here is bit-identical per element to its
    //! AVX2 counterpart; only throughput differs.
    #![allow(unsafe_op_in_unsafe_fn)]

    use super::*;
    use std::arch::x86_64::*;
    use std::ops::Range;

    /// Rows per block of the panel kernel: one `GEMM_KC × PANEL` panel of
    /// B (32 KiB, resident in L1) serves this many rows, 16 register tiles,
    /// before the kernel moves to the next panel.
    const ROW_BLOCK: usize = 64;

    /// The 8-lane form of [`madd`](super::madd).
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    unsafe fn madd512<const FUSED: bool>(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        if FUSED {
            _mm512_fmadd_pd(a, b, c)
        } else {
            _mm512_add_pd(c, _mm512_mul_pd(a, b))
        }
    }

    /// `out += a · b` with a per-call pack. With at least `PACK_MIN_M` rows
    /// and one full panel of columns, B is first laid out as panels in one
    /// of the thread's pack buffers and the product runs through
    /// [`gemm_panels`]; otherwise [`gemm_rows`] reads B in place. Per
    /// element both are the same ascending-`k` chain of `FUSED`
    /// multiply-adds.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F plus AVX2+FMA; buffer lengths must match the
    /// stated shapes (checked by the safe wrappers).
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_acc<const FUSED: bool>(
        a: &[f64],
        m: usize,
        k: usize,
        b: &[f64],
        n: usize,
        out: &mut [f64],
    ) {
        if m >= PACK_MIN_M && n >= PANEL {
            let mut buf = take_pack_buf(k * n);
            pack_panels(b, k, n, &mut buf);
            gemm_panels::<FUSED>(a, m, k, n, &buf, out);
            give_pack_buf(buf);
        } else {
            gemm_rows::<FUSED>(a, m, k, b, n, out);
        }
    }

    /// `out += a · B` with B (`k × n`) in the panel layout of
    /// [`pack_panels`](super::pack_panels), run panel-major: for each
    /// `GEMM_KC` k-panel, for each `ROW_BLOCK`-row block, for each 32-column
    /// panel, the block's 4-row × 32-column register tiles ([`tile_4x32`]).
    /// The panel's KC rows are 32 KiB, so they stay in L1 while the block's
    /// tiles stream past. The `n % 32` tail columns take the 16/8/4/scalar
    /// tiles of [`cols_4`], and the `m % 4` remainder rows the single-row
    /// [`row_axpy`], both reading the packed tail block.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F plus AVX2+FMA; `a` is `m × k`, `out` is `m × n`
    /// and `pack` holds `k · n` values in the panel layout.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_panels<const FUSED: bool>(
        a: &[f64],
        m: usize,
        k: usize,
        n: usize,
        pack: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(pack.len(), k * n);
        let ap = a.as_ptr();
        let pp = pack.as_ptr();
        let op = out.as_mut_ptr();
        let full = n - n % PANEL;
        let tw = n - full;
        let tail = pp.add(full * k);
        let m4 = m - m % 4;
        for k0 in (0..k).step_by(GEMM_KC) {
            let k1 = (k0 + GEMM_KC).min(k);
            for i0 in (0..m4).step_by(ROW_BLOCK) {
                let i1 = (i0 + ROW_BLOCK).min(m4);
                for j0 in (0..full).step_by(PANEL) {
                    let panel = pp.add(j0 * k);
                    for i in (i0..i1).step_by(4) {
                        tile_4x32::<FUSED>(ap.add(i * k), k, k0..k1, panel, op.add(i * n + j0), n);
                    }
                }
                if tw > 0 {
                    for i in (i0..i1).step_by(4) {
                        let o = op.add(i * n + full);
                        cols_4::<FUSED>(ap.add(i * k), k, k0..k1, (tail, tw), tw, o, n);
                    }
                }
            }
            for i in m4..m {
                let a_row = ap.add(i * k);
                for j0 in (0..full).step_by(PANEL) {
                    let o = op.add(i * n + j0);
                    row_axpy::<FUSED>(a_row, k0..k1, (pp.add(j0 * k), PANEL), PANEL, o);
                }
                if tw > 0 {
                    row_axpy::<FUSED>(a_row, k0..k1, (tail, tw), tw, op.add(i * n + full));
                }
            }
        }
    }

    /// `out += a · b` reading B rows in place: for each `GEMM_KC` k-panel,
    /// 4-row blocks across all `n` columns ([`cols_4`]), then the `m % 4`
    /// remainder rows ([`row_axpy`]).
    ///
    /// # Safety
    ///
    /// Requires AVX-512F plus AVX2+FMA; buffer lengths must match the
    /// stated shapes.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn gemm_rows<const FUSED: bool>(
        a: &[f64],
        m: usize,
        k: usize,
        b: &[f64],
        n: usize,
        out: &mut [f64],
    ) {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        for k0 in (0..k).step_by(GEMM_KC) {
            let k1 = (k0 + GEMM_KC).min(k);
            let mut i = 0;
            while i + 4 <= m {
                cols_4::<FUSED>(ap.add(i * k), k, k0..k1, (bp, n), n, op.add(i * n), n);
                i += 4;
            }
            while i < m {
                row_axpy::<FUSED>(ap.add(i * k), k0..k1, (bp, n), n, op.add(i * n));
                i += 1;
            }
        }
    }

    /// The 4-row × 32-column register tile: 16 zmm accumulators, and per
    /// `k` step four panel loads, four broadcasts of `a` and 16
    /// multiply-adds. `a` is row `i` of the `k`-wide left operand, `panel`
    /// a kk-major `PANEL`-wide panel and `o` row `i`, column `j0` of the
    /// `n`-wide output.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    unsafe fn tile_4x32<const FUSED: bool>(
        a: *const f64,
        k: usize,
        ks: Range<usize>,
        panel: *const f64,
        o: *mut f64,
        n: usize,
    ) {
        let mut c = [[_mm512_setzero_pd(); 4]; 4];
        for (r, row) in c.iter_mut().enumerate() {
            for (q, acc) in row.iter_mut().enumerate() {
                *acc = _mm512_loadu_pd(o.add(r * n + 8 * q));
            }
        }
        for kk in ks {
            let bk = panel.add(kk * PANEL);
            let b = [
                _mm512_loadu_pd(bk),
                _mm512_loadu_pd(bk.add(8)),
                _mm512_loadu_pd(bk.add(16)),
                _mm512_loadu_pd(bk.add(24)),
            ];
            for (r, row) in c.iter_mut().enumerate() {
                let av = _mm512_set1_pd(*a.add(r * k + kk));
                for (acc, &bq) in row.iter_mut().zip(&b) {
                    *acc = madd512::<FUSED>(av, bq, *acc);
                }
            }
        }
        for (r, row) in c.iter().enumerate() {
            for (q, &acc) in row.iter().enumerate() {
                _mm512_storeu_pd(o.add(r * n + 8 * q), acc);
            }
        }
    }

    /// Four rows across `w` columns of B, where B row `kk` starts at
    /// `b.0 + kk · b.1`: 4 × 16 tiles (8 zmm accumulators), then 8- and 4-
    /// (ymm) column tiles and the interleaved scalar tail
    /// ([`tail_4`](super::tail_4)). `a` and `o` are as for [`tile_4x32`].
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    unsafe fn cols_4<const FUSED: bool>(
        a: *const f64,
        k: usize,
        ks: Range<usize>,
        (bp, bs): (*const f64, usize),
        w: usize,
        o: *mut f64,
        n: usize,
    ) {
        let (a0, a1, a2, a3) = (a, a.add(k), a.add(2 * k), a.add(3 * k));
        let (o0, o1, o2, o3) = (o, o.add(n), o.add(2 * n), o.add(3 * n));
        let mut j = 0;
        while j + 16 <= w {
            let mut c00 = _mm512_loadu_pd(o0.add(j));
            let mut c01 = _mm512_loadu_pd(o0.add(j + 8));
            let mut c10 = _mm512_loadu_pd(o1.add(j));
            let mut c11 = _mm512_loadu_pd(o1.add(j + 8));
            let mut c20 = _mm512_loadu_pd(o2.add(j));
            let mut c21 = _mm512_loadu_pd(o2.add(j + 8));
            let mut c30 = _mm512_loadu_pd(o3.add(j));
            let mut c31 = _mm512_loadu_pd(o3.add(j + 8));
            for kk in ks.clone() {
                let b0 = _mm512_loadu_pd(bp.add(kk * bs + j));
                let b1 = _mm512_loadu_pd(bp.add(kk * bs + j + 8));
                let av = _mm512_set1_pd(*a0.add(kk));
                c00 = madd512::<FUSED>(av, b0, c00);
                c01 = madd512::<FUSED>(av, b1, c01);
                let av = _mm512_set1_pd(*a1.add(kk));
                c10 = madd512::<FUSED>(av, b0, c10);
                c11 = madd512::<FUSED>(av, b1, c11);
                let av = _mm512_set1_pd(*a2.add(kk));
                c20 = madd512::<FUSED>(av, b0, c20);
                c21 = madd512::<FUSED>(av, b1, c21);
                let av = _mm512_set1_pd(*a3.add(kk));
                c30 = madd512::<FUSED>(av, b0, c30);
                c31 = madd512::<FUSED>(av, b1, c31);
            }
            _mm512_storeu_pd(o0.add(j), c00);
            _mm512_storeu_pd(o0.add(j + 8), c01);
            _mm512_storeu_pd(o1.add(j), c10);
            _mm512_storeu_pd(o1.add(j + 8), c11);
            _mm512_storeu_pd(o2.add(j), c20);
            _mm512_storeu_pd(o2.add(j + 8), c21);
            _mm512_storeu_pd(o3.add(j), c30);
            _mm512_storeu_pd(o3.add(j + 8), c31);
            j += 16;
        }
        while j + 8 <= w {
            let mut c0 = _mm512_loadu_pd(o0.add(j));
            let mut c1 = _mm512_loadu_pd(o1.add(j));
            let mut c2 = _mm512_loadu_pd(o2.add(j));
            let mut c3 = _mm512_loadu_pd(o3.add(j));
            for kk in ks.clone() {
                let b0 = _mm512_loadu_pd(bp.add(kk * bs + j));
                c0 = madd512::<FUSED>(_mm512_set1_pd(*a0.add(kk)), b0, c0);
                c1 = madd512::<FUSED>(_mm512_set1_pd(*a1.add(kk)), b0, c1);
                c2 = madd512::<FUSED>(_mm512_set1_pd(*a2.add(kk)), b0, c2);
                c3 = madd512::<FUSED>(_mm512_set1_pd(*a3.add(kk)), b0, c3);
            }
            _mm512_storeu_pd(o0.add(j), c0);
            _mm512_storeu_pd(o1.add(j), c1);
            _mm512_storeu_pd(o2.add(j), c2);
            _mm512_storeu_pd(o3.add(j), c3);
            j += 8;
        }
        while j + 4 <= w {
            let mut c0 = _mm256_loadu_pd(o0.add(j));
            let mut c1 = _mm256_loadu_pd(o1.add(j));
            let mut c2 = _mm256_loadu_pd(o2.add(j));
            let mut c3 = _mm256_loadu_pd(o3.add(j));
            for kk in ks.clone() {
                let b0 = _mm256_loadu_pd(bp.add(kk * bs + j));
                c0 = madd256::<FUSED>(_mm256_set1_pd(*a0.add(kk)), b0, c0);
                c1 = madd256::<FUSED>(_mm256_set1_pd(*a1.add(kk)), b0, c1);
                c2 = madd256::<FUSED>(_mm256_set1_pd(*a2.add(kk)), b0, c2);
                c3 = madd256::<FUSED>(_mm256_set1_pd(*a3.add(kk)), b0, c3);
            }
            _mm256_storeu_pd(o0.add(j), c0);
            _mm256_storeu_pd(o1.add(j), c1);
            _mm256_storeu_pd(o2.add(j), c2);
            _mm256_storeu_pd(o3.add(j), c3);
            j += 4;
        }
        let o = [o0, o1, o2, o3].map(|or| or.add(j));
        tail_4::<FUSED>([a0, a1, a2, a3], ks, (bp.add(j), bs), w - j, o);
    }

    /// One row across `w` columns of B (laid out as for [`cols_4`]): an
    /// axpy over the out row, four `k` steps per pass (see the AVX2 kernel
    /// for the rationale — identical per-element chains, twice the lane
    /// width). `a_row` is the row of the left operand, `o` its out row.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    unsafe fn row_axpy<const FUSED: bool>(
        a_row: *const f64,
        ks: Range<usize>,
        (bp, bs): (*const f64, usize),
        w: usize,
        o: *mut f64,
    ) {
        let mut kk = ks.start;
        while kk + 4 <= ks.end {
            let av0 = _mm512_set1_pd(*a_row.add(kk));
            let av1 = _mm512_set1_pd(*a_row.add(kk + 1));
            let av2 = _mm512_set1_pd(*a_row.add(kk + 2));
            let av3 = _mm512_set1_pd(*a_row.add(kk + 3));
            let b0 = bp.add(kk * bs);
            let b1 = bp.add((kk + 1) * bs);
            let b2 = bp.add((kk + 2) * bs);
            let b3 = bp.add((kk + 3) * bs);
            let mut j = 0;
            while j + 16 <= w {
                let mut c0 = _mm512_loadu_pd(o.add(j));
                let mut c1 = _mm512_loadu_pd(o.add(j + 8));
                c0 = madd512::<FUSED>(av0, _mm512_loadu_pd(b0.add(j)), c0);
                c1 = madd512::<FUSED>(av0, _mm512_loadu_pd(b0.add(j + 8)), c1);
                c0 = madd512::<FUSED>(av1, _mm512_loadu_pd(b1.add(j)), c0);
                c1 = madd512::<FUSED>(av1, _mm512_loadu_pd(b1.add(j + 8)), c1);
                c0 = madd512::<FUSED>(av2, _mm512_loadu_pd(b2.add(j)), c0);
                c1 = madd512::<FUSED>(av2, _mm512_loadu_pd(b2.add(j + 8)), c1);
                c0 = madd512::<FUSED>(av3, _mm512_loadu_pd(b3.add(j)), c0);
                c1 = madd512::<FUSED>(av3, _mm512_loadu_pd(b3.add(j + 8)), c1);
                _mm512_storeu_pd(o.add(j), c0);
                _mm512_storeu_pd(o.add(j + 8), c1);
                j += 16;
            }
            while j + 8 <= w {
                let mut c = _mm512_loadu_pd(o.add(j));
                c = madd512::<FUSED>(av0, _mm512_loadu_pd(b0.add(j)), c);
                c = madd512::<FUSED>(av1, _mm512_loadu_pd(b1.add(j)), c);
                c = madd512::<FUSED>(av2, _mm512_loadu_pd(b2.add(j)), c);
                c = madd512::<FUSED>(av3, _mm512_loadu_pd(b3.add(j)), c);
                _mm512_storeu_pd(o.add(j), c);
                j += 8;
            }
            while j < w {
                let mut acc = *o.add(j);
                acc = madd::<FUSED>(*a_row.add(kk), *b0.add(j), acc);
                acc = madd::<FUSED>(*a_row.add(kk + 1), *b1.add(j), acc);
                acc = madd::<FUSED>(*a_row.add(kk + 2), *b2.add(j), acc);
                acc = madd::<FUSED>(*a_row.add(kk + 3), *b3.add(j), acc);
                *o.add(j) = acc;
                j += 1;
            }
            kk += 4;
        }
        while kk < ks.end {
            let a_val = *a_row.add(kk);
            let av = _mm512_set1_pd(a_val);
            let br = bp.add(kk * bs);
            let mut j = 0;
            while j + 8 <= w {
                let c = _mm512_loadu_pd(o.add(j));
                let c = madd512::<FUSED>(av, _mm512_loadu_pd(br.add(j)), c);
                _mm512_storeu_pd(o.add(j), c);
                j += 8;
            }
            while j < w {
                *o.add(j) = madd::<FUSED>(a_val, *br.add(j), *o.add(j));
                j += 1;
            }
            kk += 1;
        }
    }

    const SIGN_MASK: i64 = i64::MIN;

    /// floor + suppress-exceptions immediate for `_mm512_roundscale_pd`.
    const FLOOR_IMM: i32 = 0x09; // _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC

    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn exp_pd(x: __m512d) -> __m512d {
        let clamp = _mm512_set1_pd(EXP_CLAMP);
        let x = _mm512_min_pd(
            _mm512_max_pd(x, _mm512_sub_pd(_mm512_setzero_pd(), clamp)),
            clamp,
        );
        let px = _mm512_roundscale_pd::<FLOOR_IMM>(_mm512_add_pd(
            _mm512_mul_pd(_mm512_set1_pd(EXP_LOG2E), x),
            _mm512_set1_pd(0.5),
        ));
        let n32 = _mm512_cvtpd_epi32(px);
        let n64 = _mm512_cvtepi32_epi64(n32);
        let pow2 = _mm512_castsi512_pd(_mm512_slli_epi64::<52>(_mm512_add_epi64(
            n64,
            _mm512_set1_epi64(1023),
        )));
        let x = _mm512_fnmadd_pd(px, _mm512_set1_pd(EXP_C1), x);
        let x = _mm512_fnmadd_pd(px, _mm512_set1_pd(EXP_C2), x);
        let xx = _mm512_mul_pd(x, x);
        let p = _mm512_fmadd_pd(_mm512_set1_pd(EXP_P0), xx, _mm512_set1_pd(EXP_P1));
        let p = _mm512_fmadd_pd(p, xx, _mm512_set1_pd(EXP_P2));
        let p = _mm512_mul_pd(x, p);
        let q = _mm512_fmadd_pd(_mm512_set1_pd(EXP_Q0), xx, _mm512_set1_pd(EXP_Q1));
        let q = _mm512_fmadd_pd(q, xx, _mm512_set1_pd(EXP_Q2));
        let q = _mm512_fmadd_pd(q, xx, _mm512_set1_pd(EXP_Q3));
        let r = _mm512_div_pd(p, _mm512_sub_pd(q, p));
        let r = _mm512_fmadd_pd(_mm512_set1_pd(2.0), r, _mm512_set1_pd(1.0));
        _mm512_mul_pd(r, pow2)
    }

    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    unsafe fn abs_pd(v: __m512d) -> __m512d {
        _mm512_castsi512_pd(_mm512_andnot_si512(
            _mm512_set1_epi64(SIGN_MASK),
            _mm512_castpd_si512(v),
        ))
    }

    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn sigmoid_pd(v: __m512d) -> __m512d {
        let abs = abs_pd(v);
        let e = exp_pd(_mm512_sub_pd(_mm512_setzero_pd(), abs));
        let one = _mm512_set1_pd(1.0);
        let nonneg = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(v, _mm512_setzero_pd());
        let num = _mm512_mask_blend_pd(nonneg, e, one);
        _mm512_div_pd(num, _mm512_add_pd(one, e))
    }

    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn tanh_pd(v: __m512d) -> __m512d {
        let abs = abs_pd(v);
        let e = exp_pd(_mm512_mul_pd(_mm512_set1_pd(-2.0), abs));
        let one = _mm512_set1_pd(1.0);
        let t = _mm512_div_pd(_mm512_sub_pd(one, e), _mm512_add_pd(one, e));
        // copysign(t, v): t ≥ 0 here, so OR in v's sign bit.
        let sign = _mm512_set1_epi64(SIGN_MASK);
        let signed = _mm512_castsi512_pd(_mm512_or_si512(
            _mm512_castpd_si512(t),
            _mm512_and_si512(sign, _mm512_castpd_si512(v)),
        ));
        let tiny = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(abs, _mm512_set1_pd(TANH_TINY));
        _mm512_mask_blend_pd(tiny, signed, v)
    }

    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn sigmoid_slice(xs: &mut [f64]) {
        let p = xs.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= xs.len() {
            _mm512_storeu_pd(p.add(i), sigmoid_pd(_mm512_loadu_pd(p.add(i))));
            i += 8;
        }
        for v in &mut xs[i..] {
            *v = sigmoid_m(*v);
        }
    }

    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn tanh_slice(xs: &mut [f64]) {
        let p = xs.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= xs.len() {
            _mm512_storeu_pd(p.add(i), tanh_pd(_mm512_loadu_pd(p.add(i))));
            i += 8;
        }
        for v in &mut xs[i..] {
            *v = tanh_m(*v);
        }
    }

    /// Softmax of one row; same shape as the AVX2 kernel with 8-lane
    /// blocks. The lane partial sums fold pairwise
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` — a fixed order for a given
    /// row, independent of everything else.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn softmax_row(row: &mut [f64]) {
        let n = row.len();
        let p = row.as_mut_ptr();
        let mut i = 0;
        let mut max = f64::NEG_INFINITY;
        if n >= 8 {
            let mut mv = _mm512_loadu_pd(p);
            i = 8;
            while i + 8 <= n {
                mv = _mm512_max_pd(mv, _mm512_loadu_pd(p.add(i)));
                i += 8;
            }
            // max is exact under any association.
            max = _mm512_reduce_max_pd(mv);
        }
        for &v in &row[i..] {
            max = max.max(v);
        }
        let mv = _mm512_set1_pd(max);
        let mut i = 0;
        let mut sum;
        if n >= 8 {
            let mut sv = _mm512_setzero_pd();
            while i + 8 <= n {
                let e = exp_pd(_mm512_sub_pd(_mm512_loadu_pd(p.add(i)), mv));
                _mm512_storeu_pd(p.add(i), e);
                sv = _mm512_add_pd(sv, e);
                i += 8;
            }
            let mut lanes = [0.0f64; 8];
            _mm512_storeu_pd(lanes.as_mut_ptr(), sv);
            sum = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
        } else {
            sum = 0.0;
        }
        for v in &mut row[i..] {
            *v = exp_m(*v - max);
            sum += *v;
        }
        let sv = _mm512_set1_pd(sum);
        let mut i = 0;
        while i + 8 <= n {
            _mm512_storeu_pd(p.add(i), _mm512_div_pd(_mm512_loadu_pd(p.add(i)), sv));
            i += 8;
        }
        for v in &mut row[i..] {
            *v /= sum;
        }
    }

    /// Fused LSTM state update for one row — the 8-lane form of the AVX2
    /// kernel, with the same unfused gate algebra and the same `CACHE`
    /// outputs.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub unsafe fn lstm_step_row<const CACHE: bool>(
        z: &[f64],
        c: &mut [f64],
        h: &mut [f64],
        acts: &mut [f64],
        tc: &mut [f64],
        h_dim: usize,
    ) {
        let zp = z.as_ptr();
        let cp = c.as_mut_ptr();
        let hp = h.as_mut_ptr();
        let ap = acts.as_mut_ptr();
        let tp = tc.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= h_dim {
            let i_g = sigmoid_pd(_mm512_loadu_pd(zp.add(j)));
            let f_g = sigmoid_pd(_mm512_loadu_pd(zp.add(h_dim + j)));
            let g_g = tanh_pd(_mm512_loadu_pd(zp.add(2 * h_dim + j)));
            let o_g = sigmoid_pd(_mm512_loadu_pd(zp.add(3 * h_dim + j)));
            let c_new = _mm512_add_pd(
                _mm512_mul_pd(f_g, _mm512_loadu_pd(cp.add(j))),
                _mm512_mul_pd(i_g, g_g),
            );
            _mm512_storeu_pd(cp.add(j), c_new);
            let t = tanh_pd(c_new);
            if CACHE {
                _mm512_storeu_pd(ap.add(j), i_g);
                _mm512_storeu_pd(ap.add(h_dim + j), f_g);
                _mm512_storeu_pd(ap.add(2 * h_dim + j), g_g);
                _mm512_storeu_pd(ap.add(3 * h_dim + j), o_g);
                _mm512_storeu_pd(tp.add(j), t);
            }
            _mm512_storeu_pd(hp.add(j), _mm512_mul_pd(o_g, t));
            j += 8;
        }
        while j < h_dim {
            let i_g = sigmoid_m(z[j]);
            let f_g = sigmoid_m(z[h_dim + j]);
            let g_g = tanh_m(z[2 * h_dim + j]);
            let o_g = sigmoid_m(z[3 * h_dim + j]);
            let c_new = f_g * c[j] + i_g * g_g;
            c[j] = c_new;
            let t = tanh_m(c_new);
            if CACHE {
                cache_gates(acts, tc, h_dim, j, [i_g, f_g, g_g, o_g], t);
            }
            h[j] = o_g * t;
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatched element-wise kernels
// ---------------------------------------------------------------------------

/// In-place logistic sigmoid over a slice, dispatched by [`backend`]. The
/// scalar backend is the numerically-stable libm form
/// ([`sigmoid_scalar`](crate::activation::sigmoid_scalar)).
pub fn sigmoid_slice(xs: &mut [f64]) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { avx512::sigmoid_slice(xs) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => unsafe { avx2::sigmoid_slice(xs) },
        _ => {
            for v in xs {
                *v = crate::activation::sigmoid_scalar(*v);
            }
        }
    }
}

/// In-place hyperbolic tangent over a slice, dispatched by [`backend`].
/// The scalar backend is libm [`f64::tanh`].
pub fn tanh_slice(xs: &mut [f64]) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { avx512::tanh_slice(xs) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => unsafe { avx2::tanh_slice(xs) },
        _ => {
            for v in xs {
                *v = v.tanh();
            }
        }
    }
}

/// In-place softmax of one row (max-subtraction form), dispatched by
/// [`backend`]. Operates on the row slice only, so a row maps to the same
/// result in a 1-row and an n-row batch.
pub fn softmax_row(row: &mut [f64]) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { avx512::softmax_row(row) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => unsafe { avx2::softmax_row(row) },
        _ => softmax_row_scalar(row),
    }
}

/// The portable softmax row kernel (libm `exp`, strictly ascending sum).
pub fn softmax_row_scalar(row: &mut [f64]) {
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Fused LSTM state update for one row: given the pre-activation row `z`
/// (`4·h_dim` wide, gate order `i|f|g|o`), updates `c ← σ(f)⊙c + σ(i)⊙tanh(g)`
/// and `h ← σ(o)⊙tanh(c)` in place. Dispatched by [`backend`]; both
/// implementations use the same per-element transcendentals as
/// [`sigmoid_slice`]/[`tanh_slice`], so the fused path stays bit-identical
/// to the unfused matrix-at-a-time path under either backend.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `h_dim`.
pub fn lstm_step_row(z: &[f64], c: &mut [f64], h: &mut [f64], h_dim: usize) {
    assert_eq!(z.len(), 4 * h_dim, "gate row width mismatch");
    assert_eq!(c.len(), h_dim, "cell row width mismatch");
    assert_eq!(h.len(), h_dim, "hidden row width mismatch");
    lstm_step_row_dispatch::<false>(z, c, h, &mut [], &mut [], h_dim);
}

/// [`lstm_step_row`] for the training forward: the same per-element
/// operations (so `c` and `h` get the same bits), also keeping what
/// backpropagation through time reads — the activated gates `[i, f, g, o]`
/// in `acts` (`4·h_dim` wide) and `tanh(c)` in `tc`.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `h_dim`.
pub(crate) fn lstm_step_row_cached(
    z: &[f64],
    c: &mut [f64],
    h: &mut [f64],
    acts: &mut [f64],
    tc: &mut [f64],
    h_dim: usize,
) {
    assert_eq!(z.len(), 4 * h_dim, "gate row width mismatch");
    assert_eq!(c.len(), h_dim, "cell row width mismatch");
    assert_eq!(h.len(), h_dim, "hidden row width mismatch");
    assert_eq!(acts.len(), 4 * h_dim, "gate cache width mismatch");
    assert_eq!(tc.len(), h_dim, "tanh(c) cache width mismatch");
    lstm_step_row_dispatch::<true>(z, c, h, acts, tc, h_dim);
}

fn lstm_step_row_dispatch<const CACHE: bool>(
    z: &[f64],
    c: &mut [f64],
    h: &mut [f64],
    acts: &mut [f64],
    tc: &mut [f64],
    h_dim: usize,
) {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { avx512::lstm_step_row::<CACHE>(z, c, h, acts, tc, h_dim) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => unsafe { avx2::lstm_step_row::<CACHE>(z, c, h, acts, tc, h_dim) },
        _ => lstm_step_row_libm::<CACHE>(z, c, h, acts, tc, h_dim),
    }
}

/// Stores one column's activated gates and `tanh(c)` into the step cache
/// of [`lstm_step_row_cached`].
#[inline(always)]
fn cache_gates(acts: &mut [f64], tc: &mut [f64], h_dim: usize, j: usize, gates: [f64; 4], t: f64) {
    for (q, v) in gates.into_iter().enumerate() {
        acts[q * h_dim + j] = v;
    }
    tc[j] = t;
}

/// The portable LSTM state update (libm transcendentals) — the original
/// fused step loop.
pub fn lstm_step_row_scalar(z: &[f64], c: &mut [f64], h: &mut [f64], h_dim: usize) {
    lstm_step_row_libm::<false>(z, c, h, &mut [], &mut [], h_dim);
}

fn lstm_step_row_libm<const CACHE: bool>(
    z: &[f64],
    c: &mut [f64],
    h: &mut [f64],
    acts: &mut [f64],
    tc: &mut [f64],
    h_dim: usize,
) {
    use crate::activation::sigmoid_scalar;
    for j in 0..h_dim {
        let i = sigmoid_scalar(z[j]);
        let f = sigmoid_scalar(z[h_dim + j]);
        let g = z[2 * h_dim + j].tanh();
        let o = sigmoid_scalar(z[3 * h_dim + j]);
        let c_new = f * c[j] + i * g;
        c[j] = c_new;
        let t = c_new.tanh();
        if CACHE {
            cache_gates(acts, tc, h_dim, j, [i, f, g, o], t);
        }
        h[j] = o * t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_policy() {
        let x86_512 = Caps {
            avx2_fma: true,
            avx512: true,
        };
        let x86_256 = Caps {
            avx2_fma: true,
            avx512: false,
        };
        let arm = Caps {
            avx2_fma: false,
            avx512: false,
        };
        let none = Caps::default();
        // Unset / max / unrecognised: widest available.
        assert_eq!(resolve(None, x86_512), Backend::Avx512);
        assert_eq!(resolve(None, x86_256), Backend::Avx2Fma);
        assert_eq!(resolve(None, none), Backend::Scalar);
        assert_eq!(resolve(Some("max"), x86_512), Backend::Avx512);
        assert_eq!(resolve(Some("1"), x86_256), Backend::Avx2Fma);
        assert_eq!(resolve(Some("1"), none), Backend::Scalar);
        // Forced scalar.
        assert_eq!(resolve(Some("0"), x86_512), Backend::Scalar);
        assert_eq!(resolve(Some("off"), x86_512), Backend::Scalar);
        assert_eq!(resolve(Some(" 0 "), x86_512), Backend::Scalar);
        assert_eq!(resolve(Some("scalar"), x86_512), Backend::Scalar);
        // Forced tiers cap below the widest...
        assert_eq!(resolve(Some("avx2"), x86_512), Backend::Avx2Fma);
        // ...and degrade gracefully when the CPU lacks them.
        assert_eq!(resolve(Some("avx512"), x86_512), Backend::Avx512);
        assert_eq!(resolve(Some("avx512"), x86_256), Backend::Avx2Fma);
        assert_eq!(resolve(Some("avx512"), none), Backend::Scalar);
        assert_eq!(resolve(Some("avx2"), arm), Backend::Scalar);
        assert_eq!(resolve(Some("AVX512"), x86_512), Backend::Avx512);
        assert_eq!(Backend::Scalar.label(), "scalar");
        assert_eq!(Backend::Avx2Fma.label(), "avx2+fma");
        assert_eq!(Backend::Avx512.label(), "avx512");
    }

    #[test]
    fn exp_mirror_tracks_libm() {
        // A few ulp of libm over the range our callers use (args ≤ 0).
        let mut x = -700.0;
        while x <= 0.0 {
            let got = exp_m(x);
            let want = x.exp();
            assert!(
                (got - want).abs() <= 1e-13 * want.abs(),
                "exp_m({x}) = {got} vs libm {want}"
            );
            x += 0.37;
        }
        assert_eq!(exp_m(0.0), 1.0);
        // Saturation below the clamp, still positive.
        assert!(exp_m(-1000.0) > 0.0);
        assert!(exp_m(-1000.0) < 1e-300);
    }

    #[test]
    fn sigmoid_tanh_mirrors_track_libm() {
        let mut v = -30.0;
        while v <= 30.0 {
            let s = sigmoid_m(v);
            let s_ref = crate::activation::sigmoid_scalar(v);
            assert!((s - s_ref).abs() <= 1e-12, "sigmoid_m({v})");
            let t = tanh_m(v);
            let t_ref = v.tanh();
            assert!((t - t_ref).abs() <= 1e-12, "tanh_m({v})");
            v += 0.173;
        }
        assert_eq!(sigmoid_m(0.0), 0.5);
        assert_eq!(tanh_m(0.0), 0.0);
        assert_eq!(tanh_m(-0.0).to_bits(), (-0.0f64).to_bits());
        // Tiny arguments take the identity branch exactly.
        assert_eq!(tanh_m(1e-9), 1e-9);
        assert_eq!(tanh_m(-1e-9), -1e-9);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_lanes_mirror_scalar_tails_bitwise() {
        if !detect_avx2_fma() {
            return;
        }
        // Values at every lane position and an odd tail: lane/tail identity
        // means results are independent of offset and slice length.
        let vals: Vec<f64> = (0..23)
            .map(|i| (i as f64 - 11.0) * 1.7 + 0.013 * i as f64)
            .collect();
        let mut sig = vals.clone();
        let mut th = vals.clone();
        unsafe {
            avx2::sigmoid_slice(&mut sig);
            avx2::tanh_slice(&mut th);
        }
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(sig[i].to_bits(), sigmoid_m(v).to_bits(), "sigmoid lane {i}");
            assert_eq!(th[i].to_bits(), tanh_m(v).to_bits(), "tanh lane {i}");
        }
        // Same values pushed through at a different offset (drop the first
        // element) must give the same bits per value.
        let mut shifted = vals[1..].to_vec();
        unsafe { avx2::sigmoid_slice(&mut shifted) };
        for (i, &v) in shifted.iter().enumerate() {
            assert_eq!(v.to_bits(), sig[i + 1].to_bits(), "offset invariance {i}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Deterministic `m × k` and `k × n` operands with mixed signs.
    fn operands(m: usize, k: usize, n: usize) -> (Vec<f64>, Vec<f64>) {
        let a = (0..m * k).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = (0..k * n).map(|i| (i as f64 * 0.61).cos()).collect();
        (a, b)
    }

    /// The narrow shapes: every column tail width (`n % 4` of 1 to 3, alone
    /// and after a 4-wide tile, the 2-class heads among them) at row
    /// counts around the 4-row tile and `PACK_MIN_M`, and depths from one
    /// step to past the KC panel.
    fn narrow_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        let ms = [1, 3, 4, 5, 63, 64, 65, 256];
        let ks = [1, 64, 128, 130];
        let ns = [1, 2, 3, 5, 6, 7];
        ms.into_iter()
            .flat_map(move |m| ks.into_iter().map(move |k| (m, k)))
            .flat_map(move |(m, k)| ns.into_iter().map(move |n| (m, k, n)))
    }

    /// The AVX2 kernel against the naive ascending-`k` loop of [`madd`]
    /// steps, compared by bits.
    #[cfg(target_arch = "x86_64")]
    fn check_avx2_gemm<const FUSED: bool>(m: usize, k: usize, n: usize) {
        let (a, b) = operands(m, k, n);
        let mut out = vec![0.25; m * n];
        let mut want = out.clone();
        unsafe { gemm_acc_avx2::<FUSED>(&a, m, k, &b, n, &mut out) };
        for i in 0..m {
            for j in 0..n {
                let mut acc = want[i * n + j];
                for kk in 0..k {
                    acc = madd::<FUSED>(a[i * k + kk], b[kk * n + j], acc);
                }
                want[i * n + j] = acc;
            }
        }
        assert_eq!(bits(&out), bits(&want), "FUSED={FUSED} {m}x{k}·{k}x{n}");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_gemm_matches_mul_add_reference() {
        if !detect_avx2_fma() {
            return;
        }
        // Shapes crossing the 16- and 4-column vector widths and the KC
        // panel boundary, then the narrow shapes.
        let wide = [(1, 1, 1), (3, 5, 18), (2, 130, 21), (4, 7, 3)];
        for (m, k, n) in wide.into_iter().chain(narrow_shapes()) {
            check_avx2_gemm::<true>(m, k, n);
            check_avx2_gemm::<false>(m, k, n);
        }
        let (a, b) = operands(4, 7, 3);
        let mut out = vec![0.25; 12];
        let mut want = out.clone();
        gemm_acc_fma(&a, 4, 7, &b, 3, &mut out);
        unsafe { gemm_acc_avx2::<true>(&a, 4, 7, &b, 3, &mut want) };
        assert_eq!(bits(&out), bits(&want), "safe entry");
    }

    /// Runs every AVX-512 GEMM form on one shape against the AVX2 kernel,
    /// comparing bits: the dispatched entry (which packs per call from
    /// `PACK_MIN_M` rows), the panel kernel on operands packed beforehand
    /// (from B, and transposed from Bᵀ), and the unpacked kernel.
    #[cfg(target_arch = "x86_64")]
    fn check_avx512_gemm<const FUSED: bool>(m: usize, k: usize, n: usize) {
        let (a, b) = operands(m, k, n);
        let case = format!("FUSED={FUSED} {m}x{k}·{k}x{n}");
        let run = |f: &dyn Fn(&mut [f64])| {
            let mut out = vec![0.25; m * n];
            f(&mut out);
            bits(&out)
        };
        let want = run(&|out| unsafe { gemm_acc_avx2::<FUSED>(&a, m, k, &b, n, out) });
        let per_call = run(&|out| unsafe { avx512::gemm_acc::<FUSED>(&a, m, k, &b, n, out) });
        assert_eq!(per_call, want, "per-call packed, {case}");
        let unpacked = run(&|out| unsafe { avx512::gemm_rows::<FUSED>(&a, m, k, &b, n, out) });
        assert_eq!(unpacked, want, "unpacked, {case}");
        let mut pack = vec![0.0; k * n];
        pack_panels(&b, k, n, &mut pack);
        let prepacked =
            run(&|out| unsafe { avx512::gemm_panels::<FUSED>(&a, m, k, n, &pack, out) });
        assert_eq!(prepacked, want, "prepacked, {case}");
        let mut bt = vec![0.0; k * n];
        crate::matrix::transpose_into(&b, k, n, &mut bt);
        pack_panels_transposed(&bt, k, n, &mut pack);
        let transposed =
            run(&|out| unsafe { avx512::gemm_panels::<FUSED>(&a, m, k, n, &pack, out) });
        assert_eq!(transposed, want, "prepacked from Bᵀ, {case}");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_kernels_bit_identical_to_avx2() {
        if !detect_avx512() {
            return;
        }
        // GEMM: both tiers are one-FMA-per-k-step ascending chains, so the
        // 512-bit kernels must reproduce the 256-bit kernel exactly. Small
        // shapes cross the 32/16/8/4-lane tiles, the 4-row tile boundary and
        // the KC panel boundary.
        for (m, k, n) in [
            (1, 1, 1),
            (5, 9, 37),
            (4, 130, 16),
            (7, 33, 19),
            (64, 10, 16),
            (70, 5, 37),
            (129, 130, 48),
        ] {
            check_avx512_gemm::<true>(m, k, n);
        }
        // The monitors' shapes, around the PACK_MIN_M threshold and at a
        // stateful chunk's 232/256 rows: the 512- and 256-wide gate
        // outputs, the K = 6 input projection, and the k = 4H backward
        // products (`dz·Wᵀ`, k = 512 > KC).
        for m in [63, 64, 65, 232, 256] {
            for (k, n) in [
                (6, 512),
                (128, 512),
                (128, 256),
                (64, 256),
                (512, 128),
                (512, 6),
                (256, 64),
            ] {
                check_avx512_gemm::<true>(m, k, n);
            }
            // Ragged widths: one column short of and past a panel, a panel
            // and a half, and a tail past sixteen panels.
            for n in [31, 33, 48, 520] {
                check_avx512_gemm::<true>(m, 130, n);
            }
        }
        // The never-fused weight-gradient products `dW = xᵀ·dz` of the
        // paper LSTM's layers on a 64-row chunk, plus ragged rows.
        for (m, k, n) in [(128, 64, 512), (64, 64, 256), (65, 64, 520), (6, 64, 512)] {
            check_avx512_gemm::<false>(m, k, n);
        }
        // The narrow column tails, the 2-class heads among them, under both
        // multiply-add forms.
        for (m, k, n) in narrow_shapes() {
            check_avx512_gemm::<true>(m, k, n);
            check_avx512_gemm::<false>(m, k, n);
        }
        // Transcendental lanes mirror the scalar `_m` forms (and therefore
        // the AVX2 lanes) bitwise, at every lane position.
        let vals: Vec<f64> = (0..29)
            .map(|i| (i as f64 - 14.0) * 1.3 + 0.017 * i as f64)
            .collect();
        let mut sig = vals.clone();
        let mut th = vals.clone();
        unsafe {
            avx512::sigmoid_slice(&mut sig);
            avx512::tanh_slice(&mut th);
        }
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(sig[i].to_bits(), sigmoid_m(v).to_bits(), "sigmoid lane {i}");
            assert_eq!(th[i].to_bits(), tanh_m(v).to_bits(), "tanh lane {i}");
        }
        // Fused LSTM step: identical to the AVX2 kernel per element.
        for h_dim in [1usize, 7, 8, 9, 16, 21] {
            let z: Vec<f64> = (0..4 * h_dim)
                .map(|i| (i as f64 * 0.7).sin() * 3.0)
                .collect();
            let c0: Vec<f64> = (0..h_dim).map(|i| (i as f64 * 0.3).cos()).collect();
            let mut c_512 = c0.clone();
            let mut h_512 = vec![0.0; h_dim];
            let mut c_256 = c0.clone();
            let mut h_256 = vec![0.0; h_dim];
            unsafe {
                avx512::lstm_step_row::<false>(&z, &mut c_512, &mut h_512, &mut [], &mut [], h_dim);
                avx2::lstm_step_row::<false>(&z, &mut c_256, &mut h_256, &mut [], &mut [], h_dim);
            }
            for j in 0..h_dim {
                assert_eq!(c_512[j].to_bits(), c_256[j].to_bits(), "{h_dim} c[{j}]");
                assert_eq!(h_512[j].to_bits(), h_256[j].to_bits(), "{h_dim} h[{j}]");
            }
        }
        // Softmax: same max-shift/exp/normalize; lane sums fold pairwise so
        // values agree to ulps (association differs from 4-lane AVX2).
        for n in [1usize, 2, 7, 8, 9, 16, 19] {
            let base: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).sin() * 4.0).collect();
            let mut got = base.clone();
            let mut want = base.clone();
            unsafe {
                avx512::softmax_row(&mut got);
                avx2::softmax_row(&mut want);
            }
            for i in 0..n {
                assert!(
                    (got[i] - want[i]).abs() <= 1e-14 * want[i].max(1e-300),
                    "n={n} lane {i}: {} vs {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn softmax_row_scalar_matches_definition() {
        let mut row = [1.0, 2.0, 3.0];
        softmax_row_scalar(&mut row);
        let s: f64 = row.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(row[2] > row[1] && row[1] > row[0]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_softmax_close_to_scalar() {
        if !detect_avx2_fma() {
            return;
        }
        for n in [1usize, 2, 3, 4, 5, 8, 11] {
            let base: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).sin() * 4.0).collect();
            let mut simd = base.clone();
            let mut scalar = base.clone();
            unsafe { avx2::softmax_row(&mut simd) };
            softmax_row_scalar(&mut scalar);
            let sum: f64 = simd.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "n={n} sum {sum}");
            for i in 0..n {
                assert!(
                    (simd[i] - scalar[i]).abs() <= 1e-12 * scalar[i].max(1e-300),
                    "n={n} lane {i}: {} vs {}",
                    simd[i],
                    scalar[i]
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_lstm_step_close_to_scalar_and_tail_consistent() {
        if !detect_avx2_fma() {
            return;
        }
        for h_dim in [1usize, 3, 4, 5, 8, 13] {
            let z: Vec<f64> = (0..4 * h_dim)
                .map(|i| (i as f64 * 0.7).sin() * 3.0)
                .collect();
            let c0: Vec<f64> = (0..h_dim).map(|i| (i as f64 * 0.3).cos()).collect();
            let mut c_simd = c0.clone();
            let mut h_simd = vec![0.0; h_dim];
            unsafe {
                avx2::lstm_step_row::<false>(&z, &mut c_simd, &mut h_simd, &mut [], &mut [], h_dim)
            };
            let mut c_scalar = c0.clone();
            let mut h_scalar = vec![0.0; h_dim];
            lstm_step_row_scalar(&z, &mut c_scalar, &mut h_scalar, h_dim);
            for j in 0..h_dim {
                assert!(
                    (c_simd[j] - c_scalar[j]).abs() <= 1e-9,
                    "h_dim={h_dim} c[{j}]"
                );
                assert!(
                    (h_simd[j] - h_scalar[j]).abs() <= 1e-9,
                    "h_dim={h_dim} h[{j}]"
                );
            }
        }
    }

    #[test]
    fn dispatched_kernels_run_under_active_backend() {
        // Smoke: whatever backend() resolves to in this process, the
        // dispatched entry points must produce sane values.
        let mut s = vec![-2.0, -0.5, 0.0, 0.5, 2.0];
        sigmoid_slice(&mut s);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!((s[2] - 0.5).abs() < 1e-12);

        let mut t = vec![-1.0, 0.0, 1.0];
        tanh_slice(&mut t);
        assert!((t[1]).abs() < 1e-15 && t[0] < 0.0 && t[2] > 0.0);

        let mut row = vec![0.3, 1.1];
        softmax_row(&mut row);
        assert!((row[0] + row[1] - 1.0).abs() < 1e-12);

        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0; 4];
        gemm_acc(&a, 2, 2, &b, 2, &mut out);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }
}
