//! Fault-injection and graceful-degradation property suite.
//!
//! Three contracts from the fault subsystem:
//!
//! 1. **Zero-fault transparency** — with no faults injected, a guarded
//!    [`PipelineSession`] emits verdicts bit-identical to an unguarded
//!    [`MonitorSession`], for every monitor kind and both simulators; the
//!    guard never flags a clean campaign record (including paper-scale
//!    campaigns with pump faults, boluses, and suspensions).
//! 2. **Degradation & recovery** — under a stuck-at or dropout campaign
//!    the session reaches `Fallback`, emits the rule monitor's verdicts,
//!    and recovers to `Healthy` after the fault clears.
//! 3. **Determinism** — injection is a pure function of
//!    `(FaultPlan, trace identity)`: bit-identical across repeated runs,
//!    trace iteration orders, and worker thread counts.

use cpsmon::core::guard::{GuardPolicy, HealthState, InputGuard};
use cpsmon::core::{
    DatasetBuilder, LabeledDataset, MonitorKind, MonitorSession, PipelineSession, TrainConfig,
};
use cpsmon::nn::par::ThreadsGuard;
use cpsmon::sim::faults::{ChannelFault, FaultModel, FaultPlan, SensorChannel};
use cpsmon::sim::{CampaignConfig, SimTrace, SimulatorKind};
use cpsmon::stl::RuleMonitor;

fn campaign(kind: SimulatorKind, seed: u64) -> Vec<SimTrace> {
    CampaignConfig::new(kind)
        .patients(2)
        .runs_per_patient(2)
        .steps(96)
        .fault_ratio(0.5)
        .seed(seed)
        .run()
}

fn dataset_for(kind: SimulatorKind, seed: u64) -> (Vec<SimTrace>, LabeledDataset) {
    let traces = campaign(kind, seed);
    let ds = DatasetBuilder::new()
        .build(&traces)
        .expect("campaign yields a usable dataset");
    (traces, ds)
}

/// NaN-safe bit view of the injectable channels of a trace.
fn channel_bits(t: &SimTrace) -> Vec<[u64; 3]> {
    t.records()
        .iter()
        .map(|r| {
            [
                r.bg_sensor.to_bits(),
                r.iob.to_bits(),
                r.delivered_rate.to_bits(),
            ]
        })
        .collect()
}

/// Contract 1, strong form: for every monitor of Table III on both
/// simulators, a guarded session over a clean trace is bit-identical to
/// the unguarded session — same readiness, steps, labels, and probability
/// bits — and reports `Healthy` with nothing imputed at every step.
#[test]
fn zero_faults_guarded_sessions_bit_identical_everywhere() {
    for (kind, seed) in [
        (SimulatorKind::Glucosym, 211),
        (SimulatorKind::T1ds2013, 213),
    ] {
        let (traces, ds) = dataset_for(kind, seed);
        for mk in MonitorKind::ALL {
            let monitor = mk
                .train(&ds, &TrainConfig::quick_test())
                .expect("training succeeds");
            let mut plain = MonitorSession::for_dataset(&monitor, &ds);
            let mut guarded = PipelineSession::new(MonitorSession::for_dataset(&monitor, &ds))
                .with_guard(GuardPolicy::aps(), RuleMonitor::new(ds.rules));
            for trace in &traces {
                plain.reset();
                guarded.reset();
                for (t, rec) in trace.records().iter().enumerate() {
                    match (plain.step(rec), guarded.step(rec)) {
                        (Some(a), Some(b)) => {
                            assert_eq!(
                                b.health,
                                HealthState::Healthy,
                                "{kind} {mk} trace p{}r{} step {t}",
                                trace.patient_id,
                                trace.run_id
                            );
                            assert!(!b.imputed);
                            assert_eq!(a.step, b.verdict.step);
                            assert_eq!(a.label, b.verdict.label, "{kind} {mk} step {t}");
                            assert_eq!(
                                a.proba.to_bits(),
                                b.verdict.proba.to_bits(),
                                "{kind} {mk} step {t} proba bits"
                            );
                        }
                        (None, None) => {}
                        other => panic!("readiness mismatch at {kind} {mk} step {t}: {other:?}"),
                    }
                }
            }
        }
    }
}

/// Contract 1, coverage form: the guard's validity thresholds never flag a
/// record of the registry's paper-scale campaigns (20 patients × 4 runs ×
/// 288 steps, 50% pump-fault ratio — overdoses, suspensions, boluses and
/// all). This is what makes the strong form hold at any scale.
#[test]
fn guard_never_flags_clean_paper_scale_campaigns() {
    for kind in SimulatorKind::ALL {
        let traces = CampaignConfig::new(kind)
            .patients(20)
            .runs_per_patient(4)
            .steps(288)
            .fault_ratio(0.5)
            .seed(2022)
            .run();
        let mut guard = InputGuard::new(GuardPolicy::aps());
        for trace in &traces {
            guard.reset();
            for (t, rec) in trace.records().iter().enumerate() {
                let (out, status) = guard.sanitize(rec);
                assert!(
                    !status.any_imputed(),
                    "{kind} p{}r{} step {t}: clean record flagged (bg={}, iob={}, rate={})",
                    trace.patient_id,
                    trace.run_id,
                    rec.bg_sensor,
                    rec.iob,
                    rec.delivered_rate
                );
                assert_eq!(status.health, HealthState::Healthy);
                assert_eq!(&out, rec, "sanitized record must be bit-identical");
            }
        }
    }
}

/// Drives one faulted trace through a guarded session, collecting the
/// per-step health states and checking fallback verdicts against an
/// independent rule monitor.
fn degradation_run(fault: FaultModel, start: usize, duration: usize) -> (Vec<HealthState>, bool) {
    let (traces, ds) = dataset_for(SimulatorKind::Glucosym, 217);
    let monitor = MonitorKind::Mlp
        .train(&ds, &TrainConfig::quick_test())
        .expect("training succeeds");
    let plan = FaultPlan::new(0xDE6).with(ChannelFault::new(
        SensorChannel::BgSensor,
        fault,
        start,
        duration,
    ));
    let faulted = plan.inject(&traces[0]);
    let rules = RuleMonitor::new(ds.rules);
    let mut guarded = PipelineSession::new(MonitorSession::for_dataset(&monitor, &ds))
        .with_guard(GuardPolicy::aps(), RuleMonitor::new(ds.rules));
    let mut states = Vec::new();
    let mut fallback_checked = false;
    for rec in faulted.records() {
        if let Some(v) = guarded.step(rec) {
            if v.health == HealthState::Fallback {
                let expect = rules.predict(&guarded.core().window().context());
                assert_eq!(v.verdict.label, expect, "fallback verdict is the rule's");
                assert_eq!(v.verdict.proba, expect as f64);
                fallback_checked = true;
            }
            states.push(v.health);
        }
    }
    (states, fallback_checked)
}

/// Contract 2: a long stuck-at window exhausts the staleness budget
/// (Degraded → Fallback with rule verdicts), and the session re-arms to
/// Healthy once clean samples resume.
#[test]
fn stuck_at_campaign_degrades_to_fallback_and_recovers() {
    let (states, fallback_checked) = degradation_run(FaultModel::StuckAt { duration: 40 }, 20, 40);
    assert!(
        states.contains(&HealthState::Degraded),
        "freeze detection must degrade first: {states:?}"
    );
    assert!(states.contains(&HealthState::Fallback), "{states:?}");
    assert!(
        fallback_checked,
        "fallback verdicts were emitted and checked"
    );
    assert_eq!(
        *states.last().unwrap(),
        HealthState::Healthy,
        "session recovers after the fault clears: {states:?}"
    );
    // Order sanity: the final Healthy run comes after the last Fallback.
    let last_fb = states.iter().rposition(|&h| h == HealthState::Fallback);
    let first_h = states.iter().position(|&h| h == HealthState::Healthy);
    assert!(
        first_h.unwrap() < last_fb.unwrap(),
        "healthy before the fault too"
    );
}

/// Contract 2 for total CGM loss: dropout with p = 1 imputes every step
/// until the budget runs out, then falls back, then recovers.
#[test]
fn total_dropout_campaign_degrades_to_fallback_and_recovers() {
    let (states, fallback_checked) = degradation_run(FaultModel::Dropout { p: 1.0 }, 20, 40);
    assert!(states.contains(&HealthState::Degraded), "{states:?}");
    assert!(states.contains(&HealthState::Fallback), "{states:?}");
    assert!(fallback_checked);
    assert_eq!(*states.last().unwrap(), HealthState::Healthy, "{states:?}");
}

/// Contract 3: repeated injection, reversed trace order, and different
/// worker thread counts all produce bit-identical perturbed traces.
#[test]
fn injection_is_deterministic_across_order_and_threads() {
    let traces = campaign(SimulatorKind::T1ds2013, 219);
    let plan = FaultPlan::new(0x5EED)
        .with(ChannelFault::new(
            SensorChannel::BgSensor,
            FaultModel::Dropout { p: 0.3 },
            10,
            50,
        ))
        .with(ChannelFault::new(
            SensorChannel::BgSensor,
            FaultModel::Spike { magnitude: 80.0 },
            40,
            40,
        ))
        .with(ChannelFault::new(
            SensorChannel::DeliveredRate,
            FaultModel::Bias { offset: 0.7 },
            0,
            96,
        ));
    let one = {
        let _t = ThreadsGuard::set(1);
        plan.inject_all(&traces)
    };
    let two = {
        let _t = ThreadsGuard::set(2);
        plan.inject_all(&traces)
    };
    let rerun = plan.inject_all(&traces);
    let reversed: Vec<SimTrace> = {
        let mut rev: Vec<SimTrace> = traces.iter().rev().cloned().collect();
        rev = plan.inject_all(&rev);
        rev.reverse();
        rev
    };
    let bits: Vec<Vec<[u64; 3]>> = one.iter().map(channel_bits).collect();
    for (label, other) in [("threads", &two), ("rerun", &rerun), ("order", &reversed)] {
        let other_bits: Vec<Vec<[u64; 3]>> = other.iter().map(channel_bits).collect();
        assert_eq!(bits, other_bits, "injection differs under {label}");
    }
}
