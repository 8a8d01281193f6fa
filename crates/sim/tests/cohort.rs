//! Property-based bit-identity tests for the structure-of-arrays cohort
//! engine: campaigns run on it must reproduce every member's own
//! [`ClosedLoop`](cpsmon_sim::ClosedLoop) run (`CampaignConfig::member`)
//! *to the bit* — for both simulators, arbitrary campaign shapes, and
//! every SIMD backend this machine can run. The CI matrix additionally
//! re-runs this suite under `CPSMON_SIMD=0` and `CPSMON_SIMD=max`, which
//! drives the engine's *default* backend through the same properties.

use cpsmon_sim::trace::{traces_bit_identical, SimTrace};
use cpsmon_sim::{available_backends, CampaignConfig, Cohort, PatientModel, SimulatorKind};
use proptest::prelude::*;

/// Every member of a `patients × runs` campaign, rebuilt as its own
/// closed loop, in campaign order.
fn member_runs(cfg: &CampaignConfig, patients: usize, runs: usize) -> Vec<SimTrace> {
    (0..patients)
        .flat_map(|p| (0..runs).map(move |r| cfg.member(p, r).run()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any Glucosym campaign shape: the cohort engine == each member's
    /// closed loop, bit for bit.
    #[test]
    fn glucosym_campaign_batched_is_bit_identical(
        patients in 1usize..4,
        runs in 1usize..4,
        steps in 4usize..48,
        seed in 0u64..1000,
        fault_pct in 0u8..=10,
    ) {
        let cfg = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(patients)
            .runs_per_patient(runs)
            .steps(steps)
            .fault_ratio(f64::from(fault_pct) / 10.0)
            .seed(seed);
        let members = member_runs(&cfg, patients, runs);
        prop_assert!(traces_bit_identical(&cfg.run(), &members).is_ok());
    }

    /// Any T1DS2013 campaign shape: the cohort engine == each member's
    /// closed loop, bit for bit. The engine's profiles calibrate in one
    /// batch and each member's alone.
    #[test]
    fn t1ds_campaign_batched_is_bit_identical(
        patients in 1usize..4,
        runs in 1usize..4,
        steps in 4usize..48,
        seed in 0u64..1000,
        fault_pct in 0u8..=10,
    ) {
        let cfg = CampaignConfig::new(SimulatorKind::T1ds2013)
            .patients(patients)
            .runs_per_patient(runs)
            .steps(steps)
            .fault_ratio(f64::from(fault_pct) / 10.0)
            .seed(seed);
        let members = member_runs(&cfg, patients, runs);
        prop_assert!(traces_bit_identical(&cfg.run(), &members).is_ok());
    }

    /// Every available SIMD backend agrees with the batched-scalar kernel
    /// bit for bit, for sampled cohorts of both simulators and sizes that
    /// exercise full vector blocks plus ragged tails.
    #[test]
    fn all_backends_agree_bitwise(
        kind_t1ds in 0u8..2,
        n in 1usize..20,
        steps in 4usize..24,
        seed in 0u64..1000,
    ) {
        let kind = if kind_t1ds == 1 { SimulatorKind::T1ds2013 } else { SimulatorKind::Glucosym };
        let cohort = Cohort::sample(kind, seed, n);
        let reference = cohort
            .engine(steps, seed, 0.3)
            .with_backend(cpsmon_nn::simd::Backend::Scalar)
            .run();
        for backend in available_backends() {
            let traces = cohort.engine(steps, seed, 0.3).with_backend(backend).run();
            prop_assert!(
                traces_bit_identical(&traces, &reference).is_ok(),
                "backend {} diverged: {:?}",
                backend.label(),
                traces_bit_identical(&traces, &reference)
            );
        }
    }

    /// Parallel lane-block work is bit-transparent: cohorts large enough
    /// to fan out across `par` workers (above the 256-lane chunk size)
    /// produce bit-identical traces for any `CPSMON_THREADS`, on every
    /// backend this machine can run. Each cohort is sampled at the thread
    /// count it runs at, so the T1DS basal calibration fans out as well as
    /// the integration.
    #[test]
    fn large_cohort_is_thread_invariant(seed in 0u64..100) {
        use cpsmon_nn::par::ThreadsGuard;
        // Both last chunks are ragged: Glucosym's [256, 300) ends in a
        // 4-lane scalar tail on AVX-512, and T1DS's third block
        // [512, 523) in a 3-lane one on AVX-512 and AVX2 alike.
        for (kind, n) in [(SimulatorKind::Glucosym, 300), (SimulatorKind::T1ds2013, 523)] {
            let cohorts = [1usize, 2, 5].map(|threads| {
                let _guard = ThreadsGuard::set(threads);
                (threads, Cohort::sample(kind, seed, n))
            });
            for backend in available_backends() {
                let run = |(threads, cohort): &(usize, Cohort)| {
                    let _guard = ThreadsGuard::set(*threads);
                    cohort.engine(8, seed, 0.2).with_backend(backend).run()
                };
                let reference = run(&cohorts[0]);
                for pair in &cohorts[1..] {
                    let traces = run(pair);
                    prop_assert!(
                        traces_bit_identical(&traces, &reference).is_ok(),
                        "{} backend {} with {} threads diverged: {:?}",
                        kind,
                        backend.label(),
                        pair.0,
                        traces_bit_identical(&traces, &reference)
                    );
                }
            }
        }
    }

    /// The latin-hypercube sampler is order-stable: member `j` of a size-n
    /// cohort has the same parameters regardless of when it is read, and
    /// resampling with the same seed reproduces it exactly.
    #[test]
    fn sampler_is_deterministic(seed in 0u64..1000, n in 1usize..32) {
        let a = Cohort::sample(SimulatorKind::Glucosym, seed, n);
        let b = Cohort::sample(SimulatorKind::Glucosym, seed, n);
        for (pa, pb) in a.patients().iter().zip(b.patients()) {
            match (pa, pb) {
                (
                    cpsmon_sim::CohortPatient::Glucosym(x),
                    cpsmon_sim::CohortPatient::Glucosym(y),
                ) => {
                    prop_assert_eq!(x.params(), y.params());
                    prop_assert_eq!(x.therapy(), y.therapy());
                }
                _ => prop_assert!(false, "wrong patient kind"),
            }
        }
    }
}
