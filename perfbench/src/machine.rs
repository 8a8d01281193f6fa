//! The environment stamp printed with every result, the FMA peak the
//! GFLOP/s figures are read against, and peak-memory readings.

use std::time::{Duration, Instant};

use cpsmon_nn::{par, simd};

/// Facts a result depends on besides the code.
pub struct Stamp {
    /// `cpsmon_nn::par::max_threads()` in the harness process.
    pub threads: usize,
    /// `std::thread::available_parallelism()`.
    pub nproc: usize,
    /// The kernel backend `cpsmon_nn::simd` dispatches to.
    pub backend: simd::Backend,
    /// Detected CPU features relevant to the kernels.
    pub cpu_features: String,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub git_rev: String,
}

impl Stamp {
    /// Reads the stamp from the running process and machine.
    pub fn read() -> Stamp {
        Stamp {
            threads: par::max_threads(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: simd::backend(),
            cpu_features: cpu_features(),
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One JSON object, printed on its own stdout line before the result.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"env\":{{\"par_threads\":{},\"nproc\":{},\"simd_backend\":\"{}\",\
             \"cpu_features\":\"{}\",\"git_rev\":\"{}\"}}}}",
            self.threads,
            self.nproc,
            self.backend.label(),
            self.cpu_features,
            self.git_rev
        )
    }
}

/// The commit `.git/HEAD` of the working directory names, read from the
/// repository files themselves so nothing outside the checkout is touched.
fn git_rev() -> Option<String> {
    let git = std::path::Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> String {
    format!(
        "avx2={} fma={} avx512f={}",
        is_x86_feature_detected!("avx2"),
        is_x86_feature_detected!("fma"),
        is_x86_feature_detected!("avx512f")
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> String {
    std::env::consts::ARCH.to_string()
}

/// Independent accumulator chains per loop: enough to cover the FMA
/// latency × throughput product of current x86 cores.
const CHAINS: usize = 12;

/// Runs `iters` rounds of `CHAINS` independent 512-bit FMAs; returns a
/// value derived from the accumulators so the loop cannot be elided.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_chains_avx512(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let a = _mm512_set1_pd(0.999_999_9);
    let b = _mm512_set1_pd(1e-9);
    let mut acc = [_mm512_set1_pd(1.0); CHAINS];
    for _ in 0..iters {
        for r in acc.iter_mut() {
            *r = _mm512_fmadd_pd(*r, a, b);
        }
    }
    acc.iter().map(|&r| _mm512_reduce_add_pd(r)).sum()
}

/// [`fma_chains_avx512`] with 256-bit vectors.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_pd(0.999_999_9);
    let b = _mm256_set1_pd(1e-9);
    let mut acc = [_mm256_set1_pd(1.0); CHAINS];
    for _ in 0..iters {
        for r in acc.iter_mut() {
            *r = _mm256_fmadd_pd(*r, a, b);
        }
    }
    let mut lanes = [0.0f64; 4];
    let mut total = 0.0;
    for r in acc {
        _mm256_storeu_pd(lanes.as_mut_ptr(), r);
        total += lanes.iter().sum::<f64>();
    }
    total
}

/// Scalar multiply-add chains (no FMA unit assumed).
fn fma_chains_scalar(iters: u64) -> f64 {
    let (a, b) = (
        std::hint::black_box(0.999_999_9),
        std::hint::black_box(1e-9),
    );
    let mut acc = [1.0f64; CHAINS];
    for _ in 0..iters {
        for r in acc.iter_mut() {
            *r = *r * a + b;
        }
    }
    acc.iter().sum()
}

/// The widest multiply-add loop this CPU runs, as `(flops per iteration,
/// loop)`.
fn widest_fma() -> (f64, fn(u64) -> f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was detected on this CPU just above.
            return ((CHAINS * 8 * 2) as f64, |n| unsafe { fma_chains_avx512(n) });
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: AVX2 and FMA support were detected on this CPU just above.
            return ((CHAINS * 4 * 2) as f64, |n| unsafe { fma_chains_avx2(n) });
        }
    }
    ((CHAINS * 2) as f64, fma_chains_scalar)
}

/// Peak f64 multiply-add rate of the machine in GFLOP/s: the widest FMA
/// loop the CPU supports, run on `threads` threads at once for about
/// `budget`, best of three rounds.
pub fn fma_peak_gflops(threads: usize, budget: Duration) -> f64 {
    let (flops_per_iter, run) = widest_fma();
    // Calibrate the iteration count to the budget on one thread.
    let mut iters = 1u64 << 12;
    loop {
        let t0 = Instant::now();
        std::hint::black_box(run(std::hint::black_box(iters)));
        if t0.elapsed() * 8 >= budget / 3 || iters >= 1 << 40 {
            let per = t0.elapsed().as_secs_f64() / iters as f64;
            iters = ((budget.as_secs_f64() / 3.0) / per).max(1.0) as u64;
            break;
        }
        iters *= 4;
    }
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads.max(1))
                .map(|_| s.spawn(move || std::hint::black_box(run(std::hint::black_box(iters)))))
                .collect();
            for w in workers {
                w.join().expect("FMA worker panicked");
            }
        });
        let flops = flops_per_iter * iters as f64 * threads.max(1) as f64;
        best = best.max(flops / t0.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Peak resident set size (`VmHWM`) of process `pid` in MB, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
