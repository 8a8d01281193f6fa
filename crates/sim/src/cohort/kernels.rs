//! AVX2 / AVX-512 integration kernels for the cohort SoA state.
//!
//! Each kernel advances a batch of lanes through a whole control step —
//! all [`SUBSTEPS`] Euler substeps — using one of two schedules chosen
//! by model size:
//!
//! * **Glucosym** (6 state + 13 parameter columns): the substep loop is
//!   outermost over an L1-resident tile of vector blocks. Each block's
//!   substep is a short dependency chain, so sweeping independent blocks
//!   back to back lets the out-of-order core overlap several chains,
//!   and the tile's columns stay in L1 between substeps.
//! * **T1DS2013** (13 state + ~35 parameter columns): per-substep μop
//!   count is too large for cross-block overlap to survive the
//!   scheduler window, so instead state and parameters are hoisted into
//!   registers (spilling the excess to one stack frame) across a fused
//!   substep loop, and a const-generic `P` interleaves the dependency
//!   chains of `P` blocks through that loop. These kernels run a caller-
//!   given number of control steps at the inputs the last `begin_step`
//!   set (its meal lands once, before the first): the engine asks for
//!   one, the basal calibrator for a whole 288-step warm-up, whose state
//!   then never leaves registers.
//!
//! Either reordering is bit-transparent: patients are independent within
//! a step, so each lane still sees exactly the per-patient integrator's
//! op sequence.
//!
//! Every kernel mirrors the batched scalar kernel in [`super::soa`]
//! operation for operation with element-wise IEEE-754 intrinsics:
//!
//! * only `vaddpd`/`vsubpd`/`vmulpd`/`vdivpd` — **no FMA**, because the
//!   scalar integrators never contract multiply-adds;
//! * negation is a sign-bit XOR (exact, like Rust's unary `-`);
//! * `f64::max(v, w)` floors become `cmp_lt` + blend (`v < w ? w : v`),
//!   which matches `maxnum` for the finite states these dynamics produce
//!   (the floors keep every compartment non-negative and finite);
//! * the IOB clamp `if iob < 0.0 { 0.0 }` becomes `cmp_lt` + blend to zero.
//!
//! Lanes are packed from contiguous SoA columns with unaligned loads; the
//! caller hands each kernel a whole-blocks lane count and routes the
//! ragged tail through the batched scalar kernel.
#![cfg(target_arch = "x86_64")]
#![allow(unsafe_op_in_unsafe_fn)]

use super::soa::{GlucosymSoa, T1dsSoa, DT};
use crate::patient::SUBSTEPS;
use core::arch::x86_64::*;

/// One full Glucosym control step (all substeps) for lanes
/// `j0..j0 + lanes`.
///
/// # Safety
///
/// Requires AVX2, `lanes % 4 == 0`, and `j0 + lanes <= s.len()`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn glucosym_step_avx2(s: &mut GlucosymSoa, j0: usize, lanes: usize) {
    macro_rules! ld {
        ($f:ident, $j:expr) => {
            _mm256_loadu_pd(s.$f.as_ptr().add($j))
        };
    }
    macro_rules! st {
        ($f:ident, $j:expr, $v:expr) => {
            _mm256_storeu_pd(s.$f.as_mut_ptr().add($j), $v)
        };
    }
    macro_rules! vmax {
        ($v:expr, $w:expr) => {{
            let v = $v;
            let w = $w;
            _mm256_blendv_pd(v, w, _mm256_cmp_pd::<_CMP_LT_OQ>(v, w))
        }};
    }
    let dt = _mm256_set1_pd(DT);
    let zero = _mm256_setzero_pd();
    let g_floor = _mm256_set1_pd(10.0);
    for _ in 0..SUBSTEPS {
        let mut j = j0;
        while j < j0 + lanes {
            let g = ld!(g, j);
            let x = ld!(x, j);
            let i = ld!(i, j);
            let q1 = ld!(q1, j);
            let q2 = ld!(q2, j);
            let iob = ld!(iob, j);
            let i_ib = _mm256_sub_pd(i, ld!(ib, j));
            let ra = _mm256_mul_pd(ld!(fka, j), q2);
            let dg = _mm256_add_pd(
                _mm256_sub_pd(
                    _mm256_mul_pd(ld!(neg_p1, j), _mm256_sub_pd(g, ld!(gb, j))),
                    _mm256_mul_pd(x, g),
                ),
                _mm256_div_pd(ra, ld!(vg, j)),
            );
            let dx = _mm256_add_pd(
                _mm256_mul_pd(ld!(neg_p2, j), x),
                _mm256_mul_pd(ld!(p3, j), i_ib),
            );
            let di = _mm256_add_pd(_mm256_mul_pd(ld!(neg_n, j), i_ib), ld!(u_term, j));
            let dq1 = _mm256_mul_pd(ld!(neg_ka, j), q1);
            let dq2 = _mm256_mul_pd(ld!(ka, j), _mm256_sub_pd(q1, q2));
            st!(
                g,
                j,
                vmax!(_mm256_add_pd(g, _mm256_mul_pd(dg, dt)), g_floor)
            );
            st!(x, j, _mm256_add_pd(x, _mm256_mul_pd(dx, dt)));
            st!(i, j, vmax!(_mm256_add_pd(i, _mm256_mul_pd(di, dt)), zero));
            st!(
                q1,
                j,
                vmax!(_mm256_add_pd(q1, _mm256_mul_pd(dq1, dt)), zero)
            );
            st!(
                q2,
                j,
                vmax!(_mm256_add_pd(q2, _mm256_mul_pd(dq2, dt)), zero)
            );
            let mut io = _mm256_add_pd(iob, ld!(iob_d, j));
            io = _mm256_sub_pd(io, _mm256_mul_pd(io, ld!(iob_decay, j)));
            st!(
                iob,
                j,
                _mm256_blendv_pd(io, zero, _mm256_cmp_pd::<_CMP_LT_OQ>(io, zero))
            );
            j += 4;
        }
    }
}

/// One full Glucosym control step (all substeps) for lanes
/// `j0..j0 + lanes`.
///
/// # Safety
///
/// Requires AVX-512F, `lanes % 8 == 0`, and `j0 + lanes <= s.len()`.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn glucosym_step_avx512(s: &mut GlucosymSoa, j0: usize, lanes: usize) {
    macro_rules! ld {
        ($f:ident, $j:expr) => {
            _mm512_loadu_pd(s.$f.as_ptr().add($j))
        };
    }
    macro_rules! st {
        ($f:ident, $j:expr, $v:expr) => {
            _mm512_storeu_pd(s.$f.as_mut_ptr().add($j), $v)
        };
    }
    macro_rules! vmax {
        ($v:expr, $w:expr) => {{
            let v = $v;
            let w = $w;
            _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(v, w), v, w)
        }};
    }
    let dt = _mm512_set1_pd(DT);
    let zero = _mm512_setzero_pd();
    let g_floor = _mm512_set1_pd(10.0);
    for _ in 0..SUBSTEPS {
        let mut j = j0;
        while j < j0 + lanes {
            let g = ld!(g, j);
            let x = ld!(x, j);
            let i = ld!(i, j);
            let q1 = ld!(q1, j);
            let q2 = ld!(q2, j);
            let iob = ld!(iob, j);
            let i_ib = _mm512_sub_pd(i, ld!(ib, j));
            let ra = _mm512_mul_pd(ld!(fka, j), q2);
            let dg = _mm512_add_pd(
                _mm512_sub_pd(
                    _mm512_mul_pd(ld!(neg_p1, j), _mm512_sub_pd(g, ld!(gb, j))),
                    _mm512_mul_pd(x, g),
                ),
                _mm512_div_pd(ra, ld!(vg, j)),
            );
            let dx = _mm512_add_pd(
                _mm512_mul_pd(ld!(neg_p2, j), x),
                _mm512_mul_pd(ld!(p3, j), i_ib),
            );
            let di = _mm512_add_pd(_mm512_mul_pd(ld!(neg_n, j), i_ib), ld!(u_term, j));
            let dq1 = _mm512_mul_pd(ld!(neg_ka, j), q1);
            let dq2 = _mm512_mul_pd(ld!(ka, j), _mm512_sub_pd(q1, q2));
            st!(
                g,
                j,
                vmax!(_mm512_add_pd(g, _mm512_mul_pd(dg, dt)), g_floor)
            );
            st!(x, j, _mm512_add_pd(x, _mm512_mul_pd(dx, dt)));
            st!(i, j, vmax!(_mm512_add_pd(i, _mm512_mul_pd(di, dt)), zero));
            st!(
                q1,
                j,
                vmax!(_mm512_add_pd(q1, _mm512_mul_pd(dq1, dt)), zero)
            );
            st!(
                q2,
                j,
                vmax!(_mm512_add_pd(q2, _mm512_mul_pd(dq2, dt)), zero)
            );
            let mut io = _mm512_add_pd(iob, ld!(iob_d, j));
            io = _mm512_sub_pd(io, _mm512_mul_pd(io, ld!(iob_decay, j)));
            st!(
                iob,
                j,
                _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(io, zero), io, zero)
            );
            j += 8;
        }
    }
}

/// `steps` full T1DS2013 control steps (all substeps each) for lanes
/// `j0..j0 + lanes`, at the inputs the last `begin_step` set.
///
/// # Safety
///
/// Requires AVX2, `lanes % 4 == 0`, and `j0 + lanes <= s.len()`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn t1ds_step_avx2(s: &mut T1dsSoa, j0: usize, lanes: usize, steps: usize) {
    let mut j = j0;
    // 16 ymm registers cannot hold even one block's 13 state vectors, so
    // interleaving is counterproductive here: single blocks only.
    while j < j0 + lanes {
        t1ds_blocks_avx2::<1>(s, j, steps);
        j += 4;
    }
}

/// `P` interleaved 4-lane T1DS2013 blocks through `steps` fused control
/// steps.
///
/// # Safety
///
/// Requires AVX2 and `j0 + 4 * P <= s.len()`.
#[target_feature(enable = "avx2")]
unsafe fn t1ds_blocks_avx2<const P: usize>(s: &mut T1dsSoa, j0: usize, steps: usize) {
    macro_rules! ld {
        ($f:ident) => {{
            let mut a = [_mm256_setzero_pd(); P];
            for (u, slot) in a.iter_mut().enumerate() {
                *slot = _mm256_loadu_pd(s.$f.as_ptr().add(j0 + 4 * u));
            }
            a
        }};
    }
    macro_rules! st {
        ($f:ident, $a:expr) => {
            for (u, v) in $a.iter().enumerate() {
                _mm256_storeu_pd(s.$f.as_mut_ptr().add(j0 + 4 * u), *v);
            }
        };
    }
    macro_rules! vmax {
        ($v:expr, $w:expr) => {{
            let v = $v;
            let w = $w;
            _mm256_blendv_pd(v, w, _mm256_cmp_pd::<_CMP_LT_OQ>(v, w))
        }};
    }
    let zero = _mm256_setzero_pd();
    let one = _mm256_set1_pd(1.0);
    let neg0 = _mm256_set1_pd(-0.0);
    let mut gp = ld!(gp);
    let mut gt = ld!(gt);
    let mut ip = ld!(ip);
    let mut il = ld!(il);
    let mut isc1 = ld!(isc1);
    let mut isc2 = ld!(isc2);
    let mut i1 = ld!(i1);
    let mut id = ld!(id);
    let mut x = ld!(x);
    let mut qsto1 = ld!(qsto1);
    let mut qsto2 = ld!(qsto2);
    let mut qgut = ld!(qgut);
    let mut iob = ld!(iob);
    // Parameter columns hoisted once per call; with more live vectors
    // than registers LLVM spills the cold ones to one contiguous stack
    // frame, which still beats re-walking the SoA columns per substep.
    let neg_kgri = ld!(neg_kgri);
    let kgri = ld!(kgri);
    let kempt = ld!(kempt);
    let kabs = ld!(kabs);
    let fkabs = ld!(fkabs);
    let bw = ld!(bw);
    let neg_kdka1 = ld!(neg_kdka1);
    let iir = ld!(iir);
    let kd = ld!(kd);
    let ka1 = ld!(ka1);
    let ka2 = ld!(ka2);
    let neg_m13 = ld!(neg_m13);
    let m2 = ld!(m2);
    let neg_m24 = ld!(neg_m24);
    let m1 = ld!(m1);
    let vi = ld!(vi);
    let neg_ki = ld!(neg_ki);
    let neg_p2u = ld!(neg_p2u);
    let p2u = ld!(p2u);
    let ib = ld!(ib);
    let kp1 = ld!(kp1);
    let kp2 = ld!(kp2);
    let kp3 = ld!(kp3);
    let ke1 = ld!(ke1);
    let ke2 = ld!(ke2);
    let vm0 = ld!(vm0);
    let vmx = ld!(vmx);
    let km0 = ld!(km0);
    let k1 = ld!(k1);
    let k2 = ld!(k2);
    let fsnc = ld!(fsnc);
    let gp_floor = ld!(gp_floor);
    let iob_d = ld!(iob_d);
    let iob_decay = ld!(iob_decay);
    for _ in 0..steps * SUBSTEPS {
        for u in 0..P {
            // Oral absorption.
            let dqsto1 = _mm256_mul_pd(neg_kgri[u], qsto1[u]);
            let dqsto2 = _mm256_sub_pd(
                _mm256_mul_pd(kgri[u], qsto1[u]),
                _mm256_mul_pd(kempt[u], qsto2[u]),
            );
            let dqgut = _mm256_sub_pd(
                _mm256_mul_pd(kempt[u], qsto2[u]),
                _mm256_mul_pd(kabs[u], qgut[u]),
            );
            let ra = _mm256_div_pd(_mm256_mul_pd(fkabs[u], qgut[u]), bw[u]);
            // Insulin subsystem.
            let disc1 = _mm256_add_pd(_mm256_mul_pd(neg_kdka1[u], isc1[u]), iir[u]);
            let ka2 = ka2[u];
            let disc2 = _mm256_sub_pd(_mm256_mul_pd(kd[u], isc1[u]), _mm256_mul_pd(ka2, isc2[u]));
            let rai = _mm256_add_pd(_mm256_mul_pd(ka1[u], isc1[u]), _mm256_mul_pd(ka2, isc2[u]));
            let dil = _mm256_add_pd(
                _mm256_mul_pd(neg_m13[u], il[u]),
                _mm256_mul_pd(m2[u], ip[u]),
            );
            let dip = _mm256_add_pd(
                _mm256_add_pd(
                    _mm256_mul_pd(neg_m24[u], ip[u]),
                    _mm256_mul_pd(m1[u], il[u]),
                ),
                rai,
            );
            let i_conc = _mm256_div_pd(ip[u], vi[u]);
            let neg_ki = neg_ki[u];
            let di1 = _mm256_mul_pd(neg_ki, _mm256_sub_pd(i1[u], i_conc));
            let did = _mm256_mul_pd(neg_ki, _mm256_sub_pd(id[u], i1[u]));
            let dx = _mm256_add_pd(
                _mm256_mul_pd(neg_p2u[u], x[u]),
                _mm256_mul_pd(p2u[u], _mm256_sub_pd(i_conc, ib[u])),
            );
            // Glucose subsystem.
            let egp = vmax!(
                _mm256_sub_pd(
                    _mm256_sub_pd(kp1[u], _mm256_mul_pd(kp2[u], gp[u])),
                    _mm256_mul_pd(kp3[u], id[u])
                ),
                zero
            );
            let ke2 = ke2[u];
            let e_val = _mm256_mul_pd(ke1[u], _mm256_sub_pd(gp[u], ke2));
            let e = _mm256_blendv_pd(zero, e_val, _mm256_cmp_pd::<_CMP_GT_OQ>(gp[u], ke2));
            let vm = vmax!(_mm256_add_pd(vm0[u], _mm256_mul_pd(vmx[u], x[u])), zero);
            let uid = _mm256_div_pd(_mm256_mul_pd(vm, gt[u]), _mm256_add_pd(km0[u], gt[u]));
            let k1gp = _mm256_mul_pd(k1[u], gp[u]);
            let k2gt = _mm256_mul_pd(k2[u], gt[u]);
            let dgp = _mm256_add_pd(
                _mm256_sub_pd(
                    _mm256_sub_pd(_mm256_sub_pd(_mm256_add_pd(egp, ra), fsnc[u]), e),
                    k1gp,
                ),
                k2gt,
            );
            let neg_uid = _mm256_xor_pd(uid, neg0);
            let dgt = _mm256_sub_pd(_mm256_add_pd(neg_uid, k1gp), k2gt);
            // Euler step (dt = 1 min) with the scalar model's floors.
            qsto1[u] = vmax!(_mm256_add_pd(qsto1[u], dqsto1), zero);
            qsto2[u] = vmax!(_mm256_add_pd(qsto2[u], dqsto2), zero);
            qgut[u] = vmax!(_mm256_add_pd(qgut[u], dqgut), zero);
            isc1[u] = vmax!(_mm256_add_pd(isc1[u], disc1), zero);
            isc2[u] = vmax!(_mm256_add_pd(isc2[u], disc2), zero);
            il[u] = vmax!(_mm256_add_pd(il[u], dil), zero);
            ip[u] = vmax!(_mm256_add_pd(ip[u], dip), zero);
            i1[u] = _mm256_add_pd(i1[u], di1);
            id[u] = _mm256_add_pd(id[u], did);
            x[u] = _mm256_add_pd(x[u], dx);
            gp[u] = vmax!(_mm256_add_pd(gp[u], dgp), gp_floor[u]);
            gt[u] = vmax!(_mm256_add_pd(gt[u], dgt), one);
            let mut io = _mm256_add_pd(iob[u], iob_d[u]);
            io = _mm256_sub_pd(io, _mm256_mul_pd(io, iob_decay[u]));
            iob[u] = _mm256_blendv_pd(io, zero, _mm256_cmp_pd::<_CMP_LT_OQ>(io, zero));
        }
    }
    st!(gp, gp);
    st!(gt, gt);
    st!(ip, ip);
    st!(il, il);
    st!(isc1, isc1);
    st!(isc2, isc2);
    st!(i1, i1);
    st!(id, id);
    st!(x, x);
    st!(qsto1, qsto1);
    st!(qsto2, qsto2);
    st!(qgut, qgut);
    st!(iob, iob);
}

/// `steps` full T1DS2013 control steps (all substeps each) for lanes
/// `j0..j0 + lanes`, at the inputs the last `begin_step` set.
///
/// # Safety
///
/// Requires AVX-512F, `lanes % 8 == 0`, and `j0 + lanes <= s.len()`.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn t1ds_step_avx512(s: &mut T1dsSoa, j0: usize, lanes: usize, steps: usize) {
    let mut j = j0;
    // Pairs of interleaved blocks (two dependency chains in flight),
    // then lone blocks; per-lane op sequences are identical either way.
    while j + 16 <= j0 + lanes {
        t1ds_blocks_avx512::<2>(s, j, steps);
        j += 16;
    }
    while j + 8 <= j0 + lanes {
        t1ds_blocks_avx512::<1>(s, j, steps);
        j += 8;
    }
}

/// `P` interleaved 8-lane T1DS2013 blocks through `steps` fused control
/// steps.
///
/// # Safety
///
/// Requires AVX-512F and `j0 + 8 * P <= s.len()`.
#[target_feature(enable = "avx512f")]
unsafe fn t1ds_blocks_avx512<const P: usize>(s: &mut T1dsSoa, j0: usize, steps: usize) {
    macro_rules! ld {
        ($f:ident) => {{
            let mut a = [_mm512_setzero_pd(); P];
            for (u, slot) in a.iter_mut().enumerate() {
                *slot = _mm512_loadu_pd(s.$f.as_ptr().add(j0 + 8 * u));
            }
            a
        }};
    }
    macro_rules! st {
        ($f:ident, $a:expr) => {
            for (u, v) in $a.iter().enumerate() {
                _mm512_storeu_pd(s.$f.as_mut_ptr().add(j0 + 8 * u), *v);
            }
        };
    }
    macro_rules! vmax {
        ($v:expr, $w:expr) => {{
            let v = $v;
            let w = $w;
            _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(v, w), v, w)
        }};
    }
    let zero = _mm512_setzero_pd();
    let one = _mm512_set1_pd(1.0);
    let neg0 = _mm512_castpd_si512(_mm512_set1_pd(-0.0));
    let mut gp = ld!(gp);
    let mut gt = ld!(gt);
    let mut ip = ld!(ip);
    let mut il = ld!(il);
    let mut isc1 = ld!(isc1);
    let mut isc2 = ld!(isc2);
    let mut i1 = ld!(i1);
    let mut id = ld!(id);
    let mut x = ld!(x);
    let mut qsto1 = ld!(qsto1);
    let mut qsto2 = ld!(qsto2);
    let mut qgut = ld!(qgut);
    let mut iob = ld!(iob);
    // Parameter columns hoisted once per call; with more live vectors
    // than registers LLVM spills the cold ones to one contiguous stack
    // frame, which still beats re-walking the SoA columns per substep.
    let neg_kgri = ld!(neg_kgri);
    let kgri = ld!(kgri);
    let kempt = ld!(kempt);
    let kabs = ld!(kabs);
    let fkabs = ld!(fkabs);
    let bw = ld!(bw);
    let neg_kdka1 = ld!(neg_kdka1);
    let iir = ld!(iir);
    let kd = ld!(kd);
    let ka1 = ld!(ka1);
    let ka2 = ld!(ka2);
    let neg_m13 = ld!(neg_m13);
    let m2 = ld!(m2);
    let neg_m24 = ld!(neg_m24);
    let m1 = ld!(m1);
    let vi = ld!(vi);
    let neg_ki = ld!(neg_ki);
    let neg_p2u = ld!(neg_p2u);
    let p2u = ld!(p2u);
    let ib = ld!(ib);
    let kp1 = ld!(kp1);
    let kp2 = ld!(kp2);
    let kp3 = ld!(kp3);
    let ke1 = ld!(ke1);
    let ke2 = ld!(ke2);
    let vm0 = ld!(vm0);
    let vmx = ld!(vmx);
    let km0 = ld!(km0);
    let k1 = ld!(k1);
    let k2 = ld!(k2);
    let fsnc = ld!(fsnc);
    let gp_floor = ld!(gp_floor);
    let iob_d = ld!(iob_d);
    let iob_decay = ld!(iob_decay);
    for _ in 0..steps * SUBSTEPS {
        for u in 0..P {
            // Oral absorption.
            let dqsto1 = _mm512_mul_pd(neg_kgri[u], qsto1[u]);
            let dqsto2 = _mm512_sub_pd(
                _mm512_mul_pd(kgri[u], qsto1[u]),
                _mm512_mul_pd(kempt[u], qsto2[u]),
            );
            let dqgut = _mm512_sub_pd(
                _mm512_mul_pd(kempt[u], qsto2[u]),
                _mm512_mul_pd(kabs[u], qgut[u]),
            );
            let ra = _mm512_div_pd(_mm512_mul_pd(fkabs[u], qgut[u]), bw[u]);
            // Insulin subsystem.
            let disc1 = _mm512_add_pd(_mm512_mul_pd(neg_kdka1[u], isc1[u]), iir[u]);
            let ka2 = ka2[u];
            let disc2 = _mm512_sub_pd(_mm512_mul_pd(kd[u], isc1[u]), _mm512_mul_pd(ka2, isc2[u]));
            let rai = _mm512_add_pd(_mm512_mul_pd(ka1[u], isc1[u]), _mm512_mul_pd(ka2, isc2[u]));
            let dil = _mm512_add_pd(
                _mm512_mul_pd(neg_m13[u], il[u]),
                _mm512_mul_pd(m2[u], ip[u]),
            );
            let dip = _mm512_add_pd(
                _mm512_add_pd(
                    _mm512_mul_pd(neg_m24[u], ip[u]),
                    _mm512_mul_pd(m1[u], il[u]),
                ),
                rai,
            );
            let i_conc = _mm512_div_pd(ip[u], vi[u]);
            let neg_ki = neg_ki[u];
            let di1 = _mm512_mul_pd(neg_ki, _mm512_sub_pd(i1[u], i_conc));
            let did = _mm512_mul_pd(neg_ki, _mm512_sub_pd(id[u], i1[u]));
            let dx = _mm512_add_pd(
                _mm512_mul_pd(neg_p2u[u], x[u]),
                _mm512_mul_pd(p2u[u], _mm512_sub_pd(i_conc, ib[u])),
            );
            // Glucose subsystem.
            let egp = vmax!(
                _mm512_sub_pd(
                    _mm512_sub_pd(kp1[u], _mm512_mul_pd(kp2[u], gp[u])),
                    _mm512_mul_pd(kp3[u], id[u])
                ),
                zero
            );
            let ke2 = ke2[u];
            let e_val = _mm512_mul_pd(ke1[u], _mm512_sub_pd(gp[u], ke2));
            let e = _mm512_maskz_mov_pd(_mm512_cmp_pd_mask::<_CMP_GT_OQ>(gp[u], ke2), e_val);
            let vm = vmax!(_mm512_add_pd(vm0[u], _mm512_mul_pd(vmx[u], x[u])), zero);
            let uid = _mm512_div_pd(_mm512_mul_pd(vm, gt[u]), _mm512_add_pd(km0[u], gt[u]));
            let k1gp = _mm512_mul_pd(k1[u], gp[u]);
            let k2gt = _mm512_mul_pd(k2[u], gt[u]);
            let dgp = _mm512_add_pd(
                _mm512_sub_pd(
                    _mm512_sub_pd(_mm512_sub_pd(_mm512_add_pd(egp, ra), fsnc[u]), e),
                    k1gp,
                ),
                k2gt,
            );
            // Sign-bit XOR via integer ops: `_mm512_xor_pd` needs AVX512DQ,
            // which we do not assume — AVX512F integer XOR is exact on the
            // bit pattern.
            let neg_uid = _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(uid), neg0));
            let dgt = _mm512_sub_pd(_mm512_add_pd(neg_uid, k1gp), k2gt);
            // Euler step (dt = 1 min) with the scalar model's floors.
            qsto1[u] = vmax!(_mm512_add_pd(qsto1[u], dqsto1), zero);
            qsto2[u] = vmax!(_mm512_add_pd(qsto2[u], dqsto2), zero);
            qgut[u] = vmax!(_mm512_add_pd(qgut[u], dqgut), zero);
            isc1[u] = vmax!(_mm512_add_pd(isc1[u], disc1), zero);
            isc2[u] = vmax!(_mm512_add_pd(isc2[u], disc2), zero);
            il[u] = vmax!(_mm512_add_pd(il[u], dil), zero);
            ip[u] = vmax!(_mm512_add_pd(ip[u], dip), zero);
            i1[u] = _mm512_add_pd(i1[u], di1);
            id[u] = _mm512_add_pd(id[u], did);
            x[u] = _mm512_add_pd(x[u], dx);
            gp[u] = vmax!(_mm512_add_pd(gp[u], dgp), gp_floor[u]);
            gt[u] = vmax!(_mm512_add_pd(gt[u], dgt), one);
            let mut io = _mm512_add_pd(iob[u], iob_d[u]);
            io = _mm512_sub_pd(io, _mm512_mul_pd(io, iob_decay[u]));
            iob[u] = _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(io, zero), io, zero);
        }
    }
    st!(gp, gp);
    st!(gt, gt);
    st!(ip, ip);
    st!(il, il);
    st!(isc1, isc1);
    st!(isc2, isc2);
    st!(i1, i1);
    st!(id, id);
    st!(x, x);
    st!(qsto1, qsto1);
    st!(qsto2, qsto2);
    st!(qgut, qgut);
    st!(iob, iob);
}
