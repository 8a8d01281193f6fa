//! Property-based tests of the stateful pooled-LSTM engine (DESIGN.md §12):
//! pool transparency. A [`LstmSessionPool`] of any size, driven by any push
//! schedule — lockstep, ragged, or a single session — must emit verdicts
//! bit-identical to running each session individually through
//! [`LstmStreamSession`]. This is the guarantee that lets deployments batch
//! aggressively without re-validating monitor behaviour.

use cpsmon_core::{FeatureConfig, LstmEngine, LstmSessionPool, LstmStreamSession, Normalizer};
use cpsmon_nn::init::random_normal;
use cpsmon_nn::par::STEP_CHUNK;
use cpsmon_nn::rng::SmallRng;
use cpsmon_nn::{LstmConfig, LstmNet};
use cpsmon_sim::StepRecord;
use proptest::prelude::*;

const FEATURES_PER_STEP: usize = 6;

/// A small (but real) stacked LSTM plus featurization fitted on the same
/// synthetic distribution the records are drawn from.
fn fixture(seed: u64) -> (FeatureConfig, Normalizer, LstmNet) {
    let cfg = FeatureConfig::default();
    let mut rng = SmallRng::new(seed ^ 0xf17);
    let fit = random_normal(64, cfg.window * FEATURES_PER_STEP, 1.0, &mut rng);
    let norm = Normalizer::fit(&fit);
    let net = LstmNet::new(&LstmConfig {
        feature_dim: FEATURES_PER_STEP,
        timesteps: cfg.window,
        hidden: vec![10, 7],
        classes: 2,
        seed,
    });
    (cfg, norm, net)
}

fn record_strategy() -> impl Strategy<Value = StepRecord> {
    (
        40.0f64..400.0,
        -3.0f64..3.0,
        0.0f64..5.0,
        0.0f64..5.0,
        any::<bool>(),
    )
        .prop_map(|(bg, noise, iob, rate, carb)| StepRecord {
            bg_true: bg,
            bg_sensor: bg + noise,
            iob,
            commanded_rate: rate,
            delivered_rate: rate,
            carbs: if carb { 45.0 } else { 0.0 },
        })
}

/// Pool size plus a per-tick / per-session push mask (the ragged schedule).
/// Besides small pools (one row chunk of the stateful step), the sizes
/// straddle the step's chunk boundaries: one chunk less one row, exactly
/// one chunk, one row over, and three chunks with a ragged last one.
fn schedule_strategy() -> impl Strategy<Value = (usize, Vec<Vec<bool>>)> {
    let chunk = STEP_CHUNK;
    prop_oneof![
        1usize..6,
        Just(chunk - 1),
        Just(chunk),
        Just(chunk + 1),
        Just(2 * chunk + 3),
    ]
    .prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(proptest::collection::vec(any::<bool>(), n), 1..10),
        )
    })
}

/// Drives one pool and `n` individual sessions through the same schedule
/// and asserts bit-identical verdicts tick by tick.
fn assert_pool_transparent(seed: u64, n: usize, schedule: &[Vec<bool>], records: &[StepRecord]) {
    let (cfg, norm, net) = fixture(seed);
    let mut pool = LstmSessionPool::new(LstmEngine::F64(&net), cfg, &norm, n);
    let mut singles: Vec<LstmStreamSession<'_>> = (0..n)
        .map(|_| LstmStreamSession::new(LstmEngine::F64(&net), cfg, &norm))
        .collect();
    let mut rec_idx = 0usize;
    for tick in schedule {
        let mut expected: Vec<Option<(usize, u64, usize)>> = vec![None; n];
        for (i, &push) in tick.iter().enumerate() {
            if push {
                let rec = records[rec_idx % records.len()];
                rec_idx += 1;
                pool.push(i, &rec);
                let v = singles[i].step(&rec);
                expected[i] = Some((v.label, v.proba.to_bits(), v.step));
            }
        }
        let out = pool.drain_ready();
        for (i, want) in expected.iter().enumerate() {
            match (want, &out[i]) {
                (None, None) => {}
                (Some((label, proba_bits, step)), Some(got)) => {
                    assert_eq!(got.verdict.label, *label, "session {i} label");
                    assert_eq!(
                        got.verdict.proba.to_bits(),
                        *proba_bits,
                        "session {i} proba bits"
                    );
                    assert_eq!(got.verdict.step, *step, "session {i} step index");
                }
                (want, got) => {
                    panic!(
                        "session {i}: individual={want:?} pooled-emitted={}",
                        got.is_some()
                    );
                }
            }
        }
    }
}

proptest! {
    // Each case trains nothing (random weights are fine for bit-identity)
    // but steps two full engines; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pooled_f64_engine_is_bit_identical_to_individual_sessions(
        seed in 0u64..1_000,
        (n, schedule) in schedule_strategy(),
        records in proptest::collection::vec(record_strategy(), 48),
    ) {
        assert_pool_transparent(seed, n, &schedule, &records);
    }

    #[test]
    fn pool_of_one_matches_single_session_in_lockstep(
        seed in 0u64..1_000,
        ticks in 1usize..20,
        records in proptest::collection::vec(record_strategy(), 20),
    ) {
        let schedule: Vec<Vec<bool>> = vec![vec![true]; ticks];
        assert_pool_transparent(seed, 1, &schedule, &records);
    }
}
