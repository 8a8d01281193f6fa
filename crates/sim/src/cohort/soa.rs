//! Structure-of-arrays physiological state for the cohort engine.
//!
//! Each patient model's dynamic state and per-patient constants are packed
//! into parallel `Vec<f64>` columns so one control step advances every
//! cohort member in a fused pass over contiguous lanes: each lane block
//! loads its state once, runs all Euler substeps with the state resident
//! in registers, and stores once. The batched scalar kernels in this file
//! replicate the per-patient integrators' expression trees *operation for
//! operation* (same literals, same association, same floors) — that is
//! the transparency guarantee: reordering the loops from
//! `for patient { for substep }` to `for block { for substep }` leaves
//! every individual patient's floating-point op sequence unchanged
//! (patients are independent within a step), so batched trajectories are
//! bit-identical to [`crate::engine::ClosedLoop`] runs. The AVX2/AVX-512
//! kernels in [`super::kernels`] mirror these scalar kernels with
//! IEEE-exact element-wise intrinsics (no FMA — the scalar code never
//! contracts) and are therefore bit-identical too.

use crate::glucosym::GlucosymPatient;
use crate::patient::{PatientModel, STEP_MINUTES, SUBSTEPS};
use crate::t1ds::T1dsPatient;
use cpsmon_nn::simd::Backend;

/// Euler substep length in minutes; equals the per-patient integrators'
/// `STEP_MINUTES / SUBSTEPS as f64` (1.0) by construction.
pub(crate) const DT: f64 = STEP_MINUTES / SUBSTEPS as f64;

/// Lanes per integration tile on the vector backends.
///
/// 64 lanes keep the widest model's full working set (T1DS2013: 13 state
/// plus ~35 parameter columns, about 25 KB) L1-resident across the fused
/// substep loop while giving each kernel call several independent vector
/// blocks to overlap dependency chains across.
#[cfg(target_arch = "x86_64")]
const TILE_LANES: usize = 64;

/// Lanes per parallel work chunk when the cohort is large enough to fan
/// integration out across `cpsmon_nn::par` workers. A multiple of both
/// vector widths (4 and 8) and of [`TILE_LANES`], so chunk boundaries fall
/// exactly where the serial tile walk would already split: every lane sees
/// the same vector-vs-scalar-tail partition and the same op sequence as
/// the single-threaded sweep, which is what keeps parallel integration
/// bit-identical for any `CPSMON_THREADS`.
pub(super) const PAR_BLOCK: usize = 256;

/// Shares a raw SoA pointer with `par` workers. Sound only because
/// [`run_chunks`](cpsmon_nn::par::run_chunks) hands every worker a
/// *disjoint* lane range and `integrate_range` touches nothing outside its
/// range (the kernels in [`super::kernels`] load/store lanes
/// `j..j + lanes` exclusively).
struct SyncPtr<T>(*mut T);
unsafe impl<T> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// The wrapped pointer. A method (not field access) so closures
    /// capture the `Sync` wrapper, not the bare `*mut T`.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Fans `integrate_range` out over [`PAR_BLOCK`]-lane chunks. Inlined to a
/// plain serial call by `run_chunks` when only one worker (or one chunk)
/// is available, so small cohorts pay no thread overhead.
fn integrate_chunked<S: Send + Sync>(
    soa: &mut S,
    n: usize,
    range: impl Fn(&mut S, usize, usize) + Sync,
) {
    let ptr = SyncPtr(soa as *mut S);
    cpsmon_nn::par::run_chunks(n, PAR_BLOCK, |r| {
        // SAFETY: chunks partition 0..n into disjoint lane ranges and
        // `range` only reads/writes lanes inside r (see SyncPtr).
        let soa = unsafe { &mut *ptr.get() };
        range(soa, r.start, r.end);
    });
}

/// SoA state of a Glucosym (extended Bergman minimal model) cohort.
///
/// Column order groups the hot dynamic state first; `neg_*` columns hold
/// pre-negated parameters so kernels mirror the scalar `-p.x * y` unary
/// negation exactly (sign flips are IEEE-exact).
#[derive(Debug, Clone, Default)]
pub(crate) struct GlucosymSoa {
    // Dynamic state.
    pub(crate) g: Vec<f64>,
    pub(crate) x: Vec<f64>,
    pub(crate) i: Vec<f64>,
    pub(crate) q1: Vec<f64>,
    pub(crate) q2: Vec<f64>,
    pub(crate) iob: Vec<f64>,
    // Per-patient constants.
    pub(crate) neg_p1: Vec<f64>,
    pub(crate) gb: Vec<f64>,
    pub(crate) neg_p2: Vec<f64>,
    pub(crate) p3: Vec<f64>,
    pub(crate) ib: Vec<f64>,
    pub(crate) neg_n: Vec<f64>,
    pub(crate) neg_ka: Vec<f64>,
    pub(crate) ka: Vec<f64>,
    pub(crate) fka: Vec<f64>,
    pub(crate) vg: Vec<f64>,
    pub(crate) vi: Vec<f64>,
    pub(crate) basal_mu: Vec<f64>,
    pub(crate) iob_decay: Vec<f64>,
    // Per-step scratch (recomputed by `begin_step`).
    pub(crate) u_term: Vec<f64>,
    pub(crate) iob_d: Vec<f64>,
}

impl GlucosymSoa {
    pub(crate) fn len(&self) -> usize {
        self.g.len()
    }

    /// Appends one patient's state and derived constants.
    pub(crate) fn push(&mut self, patient: &GlucosymPatient) {
        let (g, x, i, q1, q2) = patient.state();
        let p = *patient.params();
        let basal_rate = patient.therapy().basal_rate;
        self.g.push(g);
        self.x.push(x);
        self.i.push(i);
        self.q1.push(q1);
        self.q2.push(q2);
        self.iob.push(patient.iob_tracker().value());
        self.neg_p1.push(-p.p1);
        self.gb.push(p.gb);
        self.neg_p2.push(-p.p2);
        self.p3.push(p.p3);
        self.ib.push(patient.ib());
        self.neg_n.push(-p.n);
        self.neg_ka.push(-p.ka);
        self.ka.push(p.ka);
        self.fka.push(p.f * p.ka);
        self.vg.push(p.vg);
        self.vi.push(p.vi);
        self.basal_mu.push(basal_rate * 1000.0 / 60.0);
        self.iob_decay.push(patient.iob_tracker().decay_per_min());
        self.u_term.push(0.0);
        self.iob_d.push(0.0);
    }

    /// Per-step precompute mirroring `GlucosymPatient::step`'s prologue:
    /// clamps the rate, hoists the (substep-invariant) insulin forcing term
    /// and IOB increment, and lands the meal in the first gut compartment.
    pub(crate) fn begin_step(&mut self, delivered: &[f64], carbs: &[f64]) {
        // Branch-free over re-sliced columns so the loop autovectorizes
        // (per-lane IEEE semantics are unchanged by vectorization).
        let n = self.len();
        let u_term = &mut self.u_term[..n];
        let iob_d = &mut self.iob_d[..n];
        let q1 = &mut self.q1[..n];
        let basal_mu = &self.basal_mu[..n];
        let vi = &self.vi[..n];
        let delivered = &delivered[..n];
        let carbs = &carbs[..n];
        for j in 0..n {
            let rate = delivered[j].max(0.0);
            let u_mu_per_min = rate * 1000.0 / 60.0;
            u_term[j] = (u_mu_per_min - basal_mu[j]) / vi[j];
            iob_d[j] = rate / 60.0 * DT;
            q1[j] += carbs[j] * 1000.0;
        }
    }

    /// Advances every lane through one whole control step (all
    /// [`SUBSTEPS`] Euler substeps), via the selected backend.
    ///
    /// Cohorts above [`PAR_BLOCK`] lanes fan the lane range out across
    /// `cpsmon_nn::par` workers in fixed [`PAR_BLOCK`] chunks. The chunk
    /// grid is independent of the worker count and chunk boundaries are
    /// multiples of both vector widths, so every lane's op sequence — and
    /// therefore the whole cohort's state — is bit-identical for any
    /// `CPSMON_THREADS` (and to the serial sweep).
    pub(crate) fn integrate(&mut self, backend: Backend) {
        let n = self.len();
        if n <= PAR_BLOCK {
            self.integrate_range(backend, 0, n);
        } else {
            integrate_chunked(self, n, |s, lo, hi| s.integrate_range(backend, lo, hi));
        }
    }

    /// [`integrate`](Self::integrate) restricted to lanes `lo..hi`
    /// (`lo` must be a multiple of the vector widths; chunk boundaries
    /// are).
    ///
    /// Vector lanes are walked in L1-resident tiles of [`TILE_LANES`]:
    /// within a tile the substep loop is outermost, so each substep
    /// sweeps several independent vector blocks back to back — their
    /// dependency chains overlap in the out-of-order core — while every
    /// column the tile touches stays in L1 between substeps and streams
    /// from L2 only once per step. Patients are independent, so the
    /// loop-nest order leaves each lane's op sequence unchanged.
    fn integrate_range(&mut self, backend: Backend, lo: usize, hi: usize) {
        let mut j = lo;
        #[cfg(target_arch = "x86_64")]
        match backend {
            Backend::Avx512 => {
                // With `lo` a multiple of 8, this is exactly the serial
                // sweep's `n / 8 * 8` boundary restricted to the range.
                let full = lo + (hi - lo) / 8 * 8;
                while j < full {
                    let lanes = (full - j).min(TILE_LANES);
                    // SAFETY: Avx512 is only selected when avx512f is
                    // available (simd::backend() / with_backend both
                    // check); `lanes` is a multiple of 8 within bounds.
                    unsafe { super::kernels::glucosym_step_avx512(self, j, lanes) };
                    j += lanes;
                }
            }
            Backend::Avx2Fma => {
                let full = lo + (hi - lo) / 4 * 4;
                while j < full {
                    let lanes = (full - j).min(TILE_LANES);
                    // SAFETY: as above, for avx2; `lanes` is a multiple
                    // of 4 within bounds.
                    unsafe { super::kernels::glucosym_step_avx2(self, j, lanes) };
                    j += lanes;
                }
            }
            Backend::Scalar => {}
        }
        let _ = backend;
        self.integrate_scalar(j, hi);
    }

    /// Batched scalar whole-step kernel for lanes `lo..hi`; the
    /// bit-identity reference the vector kernels mirror. The substep
    /// expression trees copy `GlucosymPatient::derivs`/`step` verbatim;
    /// state lives in locals across the fused substep loop.
    pub(crate) fn integrate_scalar(&mut self, lo: usize, hi: usize) {
        for j in lo..hi {
            let ib = self.ib[j];
            let fka = self.fka[j];
            let neg_p1 = self.neg_p1[j];
            let gb = self.gb[j];
            let vg = self.vg[j];
            let neg_p2 = self.neg_p2[j];
            let p3 = self.p3[j];
            let neg_n = self.neg_n[j];
            let u_term = self.u_term[j];
            let neg_ka = self.neg_ka[j];
            let ka = self.ka[j];
            let iob_d = self.iob_d[j];
            let iob_decay = self.iob_decay[j];
            let mut gv = self.g[j];
            let mut xv = self.x[j];
            let mut iv = self.i[j];
            let mut q1v = self.q1[j];
            let mut q2v = self.q2[j];
            let mut iob = self.iob[j];
            for _ in 0..SUBSTEPS {
                let i_ib = iv - ib;
                let ra = fka * q2v;
                let dg = neg_p1 * (gv - gb) - xv * gv + ra / vg;
                let dx = neg_p2 * xv + p3 * i_ib;
                let di = neg_n * i_ib + u_term;
                let dq1 = neg_ka * q1v;
                let dq2 = ka * (q1v - q2v);
                gv = (gv + dg * DT).max(10.0);
                xv += dx * DT;
                iv = (iv + di * DT).max(0.0);
                q1v = (q1v + dq1 * DT).max(0.0);
                q2v = (q2v + dq2 * DT).max(0.0);
                let mut io = iob + iob_d;
                io -= io * iob_decay;
                iob = if io < 0.0 { 0.0 } else { io };
            }
            self.g[j] = gv;
            self.x[j] = xv;
            self.i[j] = iv;
            self.q1[j] = q1v;
            self.q2[j] = q2v;
            self.iob[j] = iob;
        }
    }
}

/// SoA state of a T1DS2013 (reduced Dalla Man) cohort.
#[derive(Debug, Clone, Default)]
pub(crate) struct T1dsSoa {
    // Dynamic state.
    pub(crate) gp: Vec<f64>,
    pub(crate) gt: Vec<f64>,
    pub(crate) ip: Vec<f64>,
    pub(crate) il: Vec<f64>,
    pub(crate) isc1: Vec<f64>,
    pub(crate) isc2: Vec<f64>,
    pub(crate) i1: Vec<f64>,
    pub(crate) id: Vec<f64>,
    pub(crate) x: Vec<f64>,
    pub(crate) qsto1: Vec<f64>,
    pub(crate) qsto2: Vec<f64>,
    pub(crate) qgut: Vec<f64>,
    pub(crate) iob: Vec<f64>,
    // Per-patient constants.
    pub(crate) kgri: Vec<f64>,
    pub(crate) neg_kgri: Vec<f64>,
    pub(crate) kempt: Vec<f64>,
    pub(crate) kabs: Vec<f64>,
    pub(crate) fkabs: Vec<f64>,
    pub(crate) bw: Vec<f64>,
    pub(crate) neg_kdka1: Vec<f64>,
    pub(crate) kd: Vec<f64>,
    pub(crate) ka1: Vec<f64>,
    pub(crate) ka2: Vec<f64>,
    pub(crate) neg_m13: Vec<f64>,
    pub(crate) neg_m24: Vec<f64>,
    pub(crate) m1: Vec<f64>,
    pub(crate) m2: Vec<f64>,
    pub(crate) vi: Vec<f64>,
    pub(crate) neg_ki: Vec<f64>,
    pub(crate) p2u: Vec<f64>,
    pub(crate) neg_p2u: Vec<f64>,
    pub(crate) ib: Vec<f64>,
    pub(crate) kp1: Vec<f64>,
    pub(crate) kp2: Vec<f64>,
    pub(crate) kp3: Vec<f64>,
    pub(crate) fsnc: Vec<f64>,
    pub(crate) ke1: Vec<f64>,
    pub(crate) ke2: Vec<f64>,
    pub(crate) vm0: Vec<f64>,
    pub(crate) vmx: Vec<f64>,
    pub(crate) km0: Vec<f64>,
    pub(crate) k1: Vec<f64>,
    pub(crate) k2: Vec<f64>,
    pub(crate) gp_floor: Vec<f64>,
    pub(crate) vg: Vec<f64>,
    pub(crate) iob_decay: Vec<f64>,
    // Per-step scratch (recomputed by `begin_step`).
    pub(crate) iir: Vec<f64>,
    pub(crate) iob_d: Vec<f64>,
}

impl T1dsSoa {
    pub(crate) fn len(&self) -> usize {
        self.gp.len()
    }

    /// The 12 dynamic-state columns, in `T1dsPatient::state` packing
    /// order.
    fn state_columns(&mut self) -> [&mut Vec<f64>; 12] {
        [
            &mut self.gp,
            &mut self.gt,
            &mut self.ip,
            &mut self.il,
            &mut self.isc1,
            &mut self.isc2,
            &mut self.i1,
            &mut self.id,
            &mut self.x,
            &mut self.qsto1,
            &mut self.qsto2,
            &mut self.qgut,
        ]
    }

    /// Lane `j`'s dynamic state, in `T1dsPatient::state` packing order.
    pub(crate) fn lane_state(&mut self, j: usize) -> [f64; 12] {
        self.state_columns().map(|col| col[j])
    }

    /// Appends one patient's state and derived constants.
    pub(crate) fn push(&mut self, patient: &T1dsPatient) {
        for (col, v) in self.state_columns().into_iter().zip(patient.state()) {
            col.push(v);
        }
        let p = *patient.params();
        self.iob.push(patient.iob_tracker().value());
        self.kgri.push(p.kgri);
        self.neg_kgri.push(-p.kgri);
        self.kempt.push(p.kempt);
        self.kabs.push(p.kabs);
        self.fkabs.push(p.f * p.kabs);
        self.bw.push(p.bw);
        self.neg_kdka1.push(-(p.kd + p.ka1));
        self.kd.push(p.kd);
        self.ka1.push(p.ka1);
        self.ka2.push(p.ka2);
        self.neg_m13.push(-(p.m1 + p.m3));
        self.neg_m24.push(-(p.m2 + p.m4));
        self.m1.push(p.m1);
        self.m2.push(p.m2);
        self.vi.push(p.vi);
        self.neg_ki.push(-p.ki);
        self.p2u.push(p.p2u);
        self.neg_p2u.push(-p.p2u);
        self.ib.push(patient.ib());
        self.kp1.push(p.kp1);
        self.kp2.push(p.kp2);
        self.kp3.push(p.kp3);
        self.fsnc.push(p.fsnc);
        self.ke1.push(p.ke1);
        self.ke2.push(p.ke2);
        self.vm0.push(p.vm0);
        self.vmx.push(p.vmx);
        self.km0.push(p.km0);
        self.k1.push(p.k1);
        self.k2.push(p.k2);
        self.gp_floor.push(15.0 * p.vg);
        self.vg.push(p.vg);
        self.iob_decay.push(patient.iob_tracker().decay_per_min());
        self.iir.push(0.0);
        self.iob_d.push(0.0);
    }

    /// Re-seeds lane `j` in place from `patient`: its dynamic state, its
    /// IOB and `ib`, the one per-patient constant that depends on the
    /// basal rate. The lane must hold a patient of the same parameters.
    pub(crate) fn reseed(&mut self, j: usize, patient: &T1dsPatient) {
        for (col, v) in self.state_columns().into_iter().zip(patient.state()) {
            col[j] = v;
        }
        self.iob[j] = patient.iob_tracker().value();
        self.ib[j] = patient.ib();
    }

    /// Per-step precompute mirroring `T1dsPatient::step`'s prologue.
    pub(crate) fn begin_step(&mut self, delivered: &[f64], carbs: &[f64]) {
        // Branch-free over re-sliced columns so the loop autovectorizes
        // (per-lane IEEE semantics are unchanged by vectorization).
        let n = self.len();
        let iir = &mut self.iir[..n];
        let iob_d = &mut self.iob_d[..n];
        let qsto1 = &mut self.qsto1[..n];
        let bw = &self.bw[..n];
        let delivered = &delivered[..n];
        let carbs = &carbs[..n];
        for j in 0..n {
            let rate = delivered[j].max(0.0);
            iir[j] = rate * 6000.0 / 60.0 / bw[j];
            iob_d[j] = rate / 60.0;
            qsto1[j] += carbs[j] * 1000.0;
        }
    }

    /// Advances every lane through one whole control step (all
    /// [`SUBSTEPS`] Euler substeps), via the selected backend. See
    /// [`GlucosymSoa::integrate`] for the chunking/tile rationale and why
    /// both the loop-nest order and the parallel fan-out are
    /// bit-transparent.
    pub(crate) fn integrate(&mut self, backend: Backend) {
        let n = self.len();
        if n <= PAR_BLOCK {
            self.integrate_range(backend, 0, n, 1);
        } else {
            integrate_chunked(self, n, |s, lo, hi| s.integrate_range(backend, lo, hi, 1));
        }
    }

    /// [`integrate`](Self::integrate) restricted to lanes `lo..hi` and
    /// repeated for `steps` control steps (`lo` must be a multiple of the
    /// vector widths; chunk boundaries are). The steps all run at the
    /// inputs the last [`begin_step`](Self::begin_step) set: its meal
    /// lands once, before the first, and its rate holds throughout. The
    /// engine runs one step per call; calibration runs a whole open-loop
    /// warm-up in one, with state and constants in registers throughout.
    pub(super) fn integrate_range(&mut self, backend: Backend, lo: usize, hi: usize, steps: usize) {
        let mut j = lo;
        #[cfg(target_arch = "x86_64")]
        match backend {
            Backend::Avx512 => {
                let full = lo + (hi - lo) / 8 * 8;
                while j < full {
                    let lanes = (full - j).min(TILE_LANES);
                    // SAFETY: Avx512 is only selected when avx512f is
                    // available (simd::backend() / with_backend both
                    // check); `lanes` is a multiple of 8 within bounds.
                    unsafe { super::kernels::t1ds_step_avx512(self, j, lanes, steps) };
                    j += lanes;
                }
            }
            Backend::Avx2Fma => {
                let full = lo + (hi - lo) / 4 * 4;
                while j < full {
                    let lanes = (full - j).min(TILE_LANES);
                    // SAFETY: as above, for avx2; `lanes` is a multiple
                    // of 4 within bounds.
                    unsafe { super::kernels::t1ds_step_avx2(self, j, lanes, steps) };
                    j += lanes;
                }
            }
            Backend::Scalar => {}
        }
        let _ = backend;
        self.integrate_scalar(j, hi, steps);
    }

    /// Batched scalar kernel: `steps` whole control steps for lanes
    /// `lo..hi`. The substep expression trees copy
    /// `T1dsPatient::advance_minute` verbatim (all derivatives read the
    /// pre-update state, updates and floors follow). State lives in
    /// locals across the fused substep loop.
    pub(crate) fn integrate_scalar(&mut self, lo: usize, hi: usize, steps: usize) {
        for j in lo..hi {
            let neg_kgri = self.neg_kgri[j];
            let kgri = self.kgri[j];
            let kempt = self.kempt[j];
            let kabs = self.kabs[j];
            let fkabs = self.fkabs[j];
            let bw = self.bw[j];
            let neg_kdka1 = self.neg_kdka1[j];
            let iir = self.iir[j];
            let kd = self.kd[j];
            let ka1 = self.ka1[j];
            let ka2 = self.ka2[j];
            let neg_m13 = self.neg_m13[j];
            let neg_m24 = self.neg_m24[j];
            let m1 = self.m1[j];
            let m2 = self.m2[j];
            let vi = self.vi[j];
            let neg_ki = self.neg_ki[j];
            let neg_p2u = self.neg_p2u[j];
            let p2u = self.p2u[j];
            let ib = self.ib[j];
            let kp1 = self.kp1[j];
            let kp2 = self.kp2[j];
            let kp3 = self.kp3[j];
            let uii = self.fsnc[j];
            let ke1 = self.ke1[j];
            let ke2 = self.ke2[j];
            let vm0 = self.vm0[j];
            let vmx = self.vmx[j];
            let km0 = self.km0[j];
            let k1 = self.k1[j];
            let k2 = self.k2[j];
            let gp_floor = self.gp_floor[j];
            let iob_d = self.iob_d[j];
            let iob_decay = self.iob_decay[j];
            let mut gp = self.gp[j];
            let mut gt = self.gt[j];
            let mut ip = self.ip[j];
            let mut il = self.il[j];
            let mut isc1 = self.isc1[j];
            let mut isc2 = self.isc2[j];
            let mut i1 = self.i1[j];
            let mut id = self.id[j];
            let mut x = self.x[j];
            let mut qsto1 = self.qsto1[j];
            let mut qsto2 = self.qsto2[j];
            let mut qgut = self.qgut[j];
            let mut iob = self.iob[j];
            for _ in 0..steps * SUBSTEPS {
                // Oral absorption.
                let dqsto1 = neg_kgri * qsto1;
                let dqsto2 = kgri * qsto1 - kempt * qsto2;
                let dqgut = kempt * qsto2 - kabs * qgut;
                let ra = fkabs * qgut / bw;
                // Insulin subsystem.
                let disc1 = neg_kdka1 * isc1 + iir;
                let disc2 = kd * isc1 - ka2 * isc2;
                let rai = ka1 * isc1 + ka2 * isc2;
                let dil = neg_m13 * il + m2 * ip;
                let dip = neg_m24 * ip + m1 * il + rai;
                let i_conc = ip / vi;
                let di1 = neg_ki * (i1 - i_conc);
                let did = neg_ki * (id - i1);
                let dx = neg_p2u * x + p2u * (i_conc - ib);
                // Glucose subsystem.
                let egp = (kp1 - kp2 * gp - kp3 * id).max(0.0);
                let e = if gp > ke2 { ke1 * (gp - ke2) } else { 0.0 };
                let vm = (vm0 + vmx * x).max(0.0);
                let uid = vm * gt / (km0 + gt);
                let k1gp = k1 * gp;
                let k2gt = k2 * gt;
                let dgp = egp + ra - uii - e - k1gp + k2gt;
                let dgt = -uid + k1gp - k2gt;
                // Euler step (dt = 1 min) with the scalar model's floors.
                qsto1 = (qsto1 + dqsto1).max(0.0);
                qsto2 = (qsto2 + dqsto2).max(0.0);
                qgut = (qgut + dqgut).max(0.0);
                isc1 = (isc1 + disc1).max(0.0);
                isc2 = (isc2 + disc2).max(0.0);
                il = (il + dil).max(0.0);
                ip = (ip + dip).max(0.0);
                i1 += di1;
                id += did;
                x += dx;
                gp = (gp + dgp).max(gp_floor);
                gt = (gt + dgt).max(1.0);
                let mut io = iob + iob_d;
                io -= io * iob_decay;
                iob = if io < 0.0 { 0.0 } else { io };
            }
            self.gp[j] = gp;
            self.gt[j] = gt;
            self.ip[j] = ip;
            self.il[j] = il;
            self.isc1[j] = isc1;
            self.isc2[j] = isc2;
            self.i1[j] = i1;
            self.id[j] = id;
            self.x[j] = x;
            self.qsto1[j] = qsto1;
            self.qsto2[j] = qsto2;
            self.qgut[j] = qgut;
            self.iob[j] = iob;
        }
    }
}
