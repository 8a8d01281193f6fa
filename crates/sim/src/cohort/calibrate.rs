//! Batched basal-rate calibration of T1DS2013 patients.
//!
//! A T1DS patient's basal rate is bisected until its 24-hour open-loop
//! steady state lands on the profile's target glucose `gb`: 14 rounds of a
//! 288-step warm-up from `T1dsPatient::new` at the round's midpoint rate,
//! then a final warm-up at the last midpoint. [`calibrate_t1ds`] runs that
//! bisection for a whole population in lockstep on the cohort engine's
//! [`T1dsSoa`] step kernels: each lane keeps its own `lo`/`hi` bracket, is
//! re-seeded in place at its own midpoint every round, and is tested with
//! the per-patient `bg() > gb` comparison (`gp / vg > gb`). A round's
//! warm-up is one kernel call of 288 steps, so state and constants stay in
//! registers for the whole day instead of round-tripping through the SoA
//! columns every step.
//!
//! Members come out bit-identical to the per-member bisection for the
//! same two reasons the engine's trajectories do (see the `soa` module):
//! lanes never read each other, and every backend's step kernel mirrors
//! `T1dsPatient::step` operation for operation. A warm-up's rate is the
//! same at every step, so the prologue `begin_step` computes once yields
//! the operands every per-step prologue would. Its meal is empty, and the
//! per-step `qsto1 += 0.0` that the per-member warm-up adds and one
//! batched call skips changes no bits: `qsto1` starts at +0 and stays
//! there (`-kgri · +0 = -0`, `+0 + -0 = +0`, and the floor keeps +0). A
//! lane's rounds therefore see the same midpoints, the same warm-up bits
//! and the same branch outcomes as the member would alone, whatever the
//! batch around it.

use super::soa::{T1dsSoa, PAR_BLOCK};
use crate::patient::TherapyProfile;
use crate::t1ds::{T1dsParams, T1dsPatient};
use cpsmon_nn::simd::Backend;

/// Bisection rounds; the final warm-up runs at the midpoint they leave.
const ROUNDS: usize = 14;

/// Open-loop warm-up per round: 24 h of 5-minute steps.
const WARM_UP_STEPS: usize = 288;

/// The basal-rate bracket the bisection starts from (U/h).
const BASAL_BRACKET: (f64, f64) = (0.1, 4.0);

/// Calibrates every member's basal rate (`therapy.basal_rate` is
/// overwritten) and returns the patients warmed up to that equilibrium,
/// in input order.
///
/// The members fan out once over [`PAR_BLOCK`]-lane blocks, and each
/// block runs all of its rounds serially on its own SoA, so a worker is
/// woken once per block rather than once per step. `backend` picks the
/// step kernel, as [`super::CohortEngine::with_backend`] does for the
/// engine; the callers pass the process-wide [`cpsmon_nn::simd::backend`].
pub(crate) fn calibrate_t1ds(
    members: &[(T1dsParams, TherapyProfile)],
    backend: Backend,
) -> Vec<T1dsPatient> {
    cpsmon_nn::par::run_chunks(members.len(), PAR_BLOCK, |r| {
        calibrate_block(&members[r], backend)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// [`calibrate_t1ds`] for one block of at most [`PAR_BLOCK`] members.
fn calibrate_block(members: &[(T1dsParams, TherapyProfile)], backend: Backend) -> Vec<T1dsPatient> {
    let n = members.len();
    let seeded = |j: usize, basal_rate: f64| {
        let (params, therapy) = members[j];
        T1dsPatient::new(
            params,
            TherapyProfile {
                basal_rate,
                ..therapy
            },
        )
    };
    // Only the state and `ib` depend on the basal rate, and `reseed`
    // rewrites both every round; the constants are packed once.
    let mut soa = T1dsSoa::default();
    for (params, therapy) in members {
        soa.push(&T1dsPatient::new(*params, *therapy));
    }
    let mut lo = vec![BASAL_BRACKET.0; n];
    let mut hi = vec![BASAL_BRACKET.1; n];
    let mut basal = vec![0.0; n];
    let carbs = vec![0.0; n];
    for round in 0..=ROUNDS {
        for j in 0..n {
            basal[j] = 0.5 * (lo[j] + hi[j]);
            soa.reseed(j, &seeded(j, basal[j]));
        }
        soa.begin_step(&basal, &carbs);
        soa.integrate_range(backend, 0, n, WARM_UP_STEPS);
        if round == ROUNDS {
            break;
        }
        for (j, (params, _)) in members.iter().enumerate() {
            if soa.gp[j] / soa.vg[j] > params.gb {
                lo[j] = basal[j]; // need more insulin
            } else {
                hi[j] = basal[j];
            }
        }
    }
    (0..n)
        .map(|j| {
            let mut patient = seeded(j, basal[j]);
            patient.set_state(soa.lane_state(j), soa.iob[j]);
            patient
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::{available_backends, Cohort};
    use super::*;
    use crate::patient::PatientModel;
    use cpsmon_nn::par::ThreadsGuard;
    use cpsmon_nn::rng::SmallRng;

    /// The per-member bisection the batched calibrator replaced: the
    /// reference it must match bit for bit.
    fn calibrated_one(params: T1dsParams, mut therapy: TherapyProfile) -> T1dsPatient {
        let (mut lo, mut hi) = BASAL_BRACKET;
        for _ in 0..ROUNDS {
            let mid = 0.5 * (lo + hi);
            therapy.basal_rate = mid;
            let mut p = T1dsPatient::new(params, therapy);
            p.warm_up(WARM_UP_STEPS);
            if p.bg() > params.gb {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        therapy.basal_rate = 0.5 * (lo + hi);
        let mut p = T1dsPatient::new(params, therapy);
        p.warm_up(WARM_UP_STEPS);
        p
    }

    /// Every field the calibration writes, as bits: the parameters, the
    /// therapy (its basal rate above all), `ib`, the 12 states and IOB.
    fn bits(p: &T1dsPatient) -> Vec<u64> {
        let q = p.params();
        let params = [
            q.bw, q.vg, q.k1, q.k2, q.kp1, q.kp2, q.kp3, q.ki, q.fsnc, q.vm0, q.vmx, q.km0, q.p2u,
            q.m1, q.m2, q.m3, q.m4, q.kd, q.ka1, q.ka2, q.vi, q.ke1, q.ke2, q.kgri, q.kempt,
            q.kabs, q.f, q.iob_tau, q.gb,
        ];
        let t = p.therapy();
        let therapy = [t.basal_rate, t.isf, t.carb_ratio, t.target_bg];
        let tracker = p.iob_tracker();
        let iob = [tracker.value(), tracker.decay_per_min(), p.ib()];
        params
            .into_iter()
            .chain(therapy)
            .chain(p.state())
            .chain(iob)
            .map(f64::to_bits)
            .collect()
    }

    /// Batched calibration of `members` equals the per-member reference
    /// in every field, on every available backend at 1, 2 and 3 threads.
    fn assert_matches_reference(members: &[(T1dsParams, TherapyProfile)], what: &str) {
        let reference: Vec<Vec<u64>> = members
            .iter()
            .map(|&(params, therapy)| bits(&calibrated_one(params, therapy)))
            .collect();
        for backend in available_backends() {
            for threads in [1, 2, 3] {
                let _guard = ThreadsGuard::set(threads);
                let batched = calibrate_t1ds(members, backend);
                assert_eq!(batched.len(), members.len());
                for (j, (b, r)) in batched.iter().zip(&reference).enumerate() {
                    assert!(
                        bits(b) == *r,
                        "{what}: member {j} of {} diverged on {} at {threads} threads",
                        members.len(),
                        backend.label()
                    );
                }
            }
        }
    }

    #[test]
    fn batched_calibration_matches_per_member_bisection() {
        // Sizes around the vector widths (8 lanes), the block size (256)
        // and a multi-block cohort; three seeds at the small sizes.
        for seed in [3, 2022, 77] {
            for n in [1, 7, 8, 9, 255, 256, 257] {
                let members = Cohort::t1ds_lhs(seed, n);
                assert_matches_reference(&members, &format!("seed {seed}, n {n}"));
            }
        }
        let members = Cohort::t1ds_lhs(5, 1000);
        assert_matches_reference(&members, "seed 5, n 1000");
    }

    #[test]
    fn range_corners_calibrate_bit_identically() {
        // Members on the corners of the sampler's box, where the bisection
        // runs toward either end of the basal bracket: each axis alone at
        // either bound (the rest mid-range), the two corners that push the
        // basal rate furthest down and up, every axis at its low bound,
        // every axis at its high bound, and seeded mixes.
        let axes = Cohort::t1ds_axes();
        let mid = axes.map(|(lo, hi)| 0.5 * (lo + hi));
        let mut corners: Vec<_> = (0..axes.len())
            .flat_map(|d| {
                [axes[d].0, axes[d].1].map(|bound| {
                    let mut v = mid;
                    v[d] = bound;
                    Cohort::t1ds_member(v)
                })
            })
            .collect();
        let basal_rates = |members: &[(T1dsParams, TherapyProfile)]| -> Vec<f64> {
            calibrate_t1ds(members, Backend::Scalar)
                .iter()
                .map(|p| p.therapy().basal_rate)
                .collect()
        };
        // Whether an axis's low bound calls for less basal insulin.
        let probe = basal_rates(&corners);
        let lowers: [bool; 27] = std::array::from_fn(|d| probe[2 * d] < probe[2 * d + 1]);
        let toward = |low_basal: bool| {
            Cohort::t1ds_member(std::array::from_fn(|d| {
                if lowers[d] == low_basal {
                    axes[d].0
                } else {
                    axes[d].1
                }
            }))
        };
        corners.extend([toward(true), toward(false)]);
        corners.push(Cohort::t1ds_member(axes.map(|(lo, _)| lo)));
        corners.push(Cohort::t1ds_member(axes.map(|(_, hi)| hi)));
        let mut rng = SmallRng::new(0x636f_726e);
        for _ in 0..30 {
            corners.push(Cohort::t1ds_member(axes.map(|(lo, hi)| {
                if rng.bernoulli(0.5) {
                    hi
                } else {
                    lo
                }
            })));
        }
        assert_matches_reference(&corners, "range corners");
        let rates = basal_rates(&corners);
        let (min, max) = rates
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), &v| (a.min(v), b.max(v)));
        assert!(
            min < BASAL_BRACKET.0 + 0.15 && max > BASAL_BRACKET.1 - 0.15,
            "corners calibrate to {min}..{max} U/h, short of the bracket's ends"
        );
    }
}
