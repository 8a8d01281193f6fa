//! Sensor-channel fault injection: realistic (non-adversarial) failure
//! modes for robustness testing.
//!
//! The paper perturbs monitor inputs with Gaussian noise and FGSM — both
//! *adversarial* models. A deployed APS monitor also faces *natural*
//! sensor faults: dropped CGM samples, stuck-at readings, spikes from
//! calibration events, slow drift, quantization, and transport delay. This
//! module provides a seeded, deterministic injector for those fault
//! classes, applied to a recorded [`SimTrace`] ([`FaultPlan::inject`]) or
//! record by record as a run streams ([`FaultPlan::injector_for`]).
//!
//! Two fault families live here:
//!
//! - [`PumpFault`] models *pump-side* actuation faults that alter the
//!   physics of the run (overdose, suspension) — the paper's §III threat
//!   model, applied on the command path by [`crate::pump::InsulinPump`].
//! - [`FaultPlan`]/[`ChannelFault`] corrupt only what the *monitor
//!   observes* — the patient dynamics are untouched, which is exactly the
//!   property a robustness sweep needs (ground-truth labels stay valid).
//!
//! ## Determinism contract
//!
//! Injection is a pure function of `(FaultPlan, trace identity)`: the
//! injector RNG is seeded from the plan seed and a stream key derived from
//! `(simulator, patient_id, run_id)`, and each fault in the plan draws
//! from its own forked stream. Injecting the same plan into the same
//! traces therefore yields bit-identical results regardless of iteration
//! order or thread count.
//!
//! ## Example
//!
//! ```
//! use cpsmon_sim::faults::{ChannelFault, FaultModel, FaultPlan, SensorChannel};
//! use cpsmon_sim::{CampaignConfig, SimulatorKind};
//!
//! let traces = CampaignConfig::new(SimulatorKind::Glucosym)
//!     .patients(1)
//!     .steps(48)
//!     .seed(7)
//!     .run();
//! let plan = FaultPlan::new(0xFA01).with(ChannelFault::new(
//!     SensorChannel::BgSensor,
//!     FaultModel::Bias { offset: 40.0 },
//!     10,
//!     20,
//! ));
//! let faulted = plan.inject(&traces[0]);
//! assert_eq!(faulted.records()[15].bg_sensor, traces[0].records()[15].bg_sensor + 40.0);
//! assert_eq!(faulted.records()[5], traces[0].records()[5]); // outside the window
//! ```

use std::collections::VecDeque;

use crate::trace::{SimTrace, StepRecord};
use cpsmon_nn::rng::SmallRng;

/// Per-step firing probability of an active [`FaultModel::Spike`] fault
/// (intermittent glitches, not a solid block of outliers).
pub const SPIKE_PROB: f64 = 0.2;

/// Seed salt mixed into every injector RNG so fault streams are decoupled
/// from the campaign streams that produced the traces.
const FAULT_SALT: u64 = 0x7365_6e73_6f72_666c; // "sensorfl"

/// A monitor-observable sensor channel of a [`StepRecord`].
///
/// Only the three channels the monitors featurize are injectable;
/// `bg_true` (labeling ground truth) and `commanded_rate`/`carbs` are
/// never touched, so hazard labels remain valid on faulted traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorChannel {
    /// The CGM glucose reading (`bg_sensor`, mg/dL).
    BgSensor,
    /// The pump insulin-on-board estimate (`iob`, U).
    Iob,
    /// The delivered insulin rate on the actuation bus
    /// (`delivered_rate`, U/h).
    DeliveredRate,
}

impl SensorChannel {
    /// Reads this channel from a record.
    pub fn get(&self, rec: &StepRecord) -> f64 {
        match self {
            SensorChannel::BgSensor => rec.bg_sensor,
            SensorChannel::Iob => rec.iob,
            SensorChannel::DeliveredRate => rec.delivered_rate,
        }
    }

    /// The physical floor the channel's transducer enforces (the CGM never
    /// reports below 1 mg/dL — see [`crate::sensor::Cgm`] — and IOB/rate
    /// are non-negative). Finite injected values are clamped here;
    /// non-finite values (dropouts) pass through unclamped.
    pub fn floor(&self) -> f64 {
        match self {
            SensorChannel::BgSensor => 1.0,
            SensorChannel::Iob | SensorChannel::DeliveredRate => 0.0,
        }
    }

    /// Returns a copy of `rec` with this channel set to `v` (clamped to
    /// [`floor`](Self::floor) when finite).
    pub fn set(&self, rec: &StepRecord, v: f64) -> StepRecord {
        let v = if v.is_finite() {
            v.max(self.floor())
        } else {
            v
        };
        let mut out = *rec;
        match self {
            SensorChannel::BgSensor => out.bg_sensor = v,
            SensorChannel::Iob => out.iob = v,
            SensorChannel::DeliveredRate => out.delivered_rate = v,
        }
        out
    }

    /// Short label for tables (`bg` / `iob` / `rate`).
    pub fn label(&self) -> &'static str {
        match self {
            SensorChannel::BgSensor => "bg",
            SensorChannel::Iob => "iob",
            SensorChannel::DeliveredRate => "rate",
        }
    }
}

/// A sensor fault class, parameterized by its intensity.
///
/// All models are standard CPS fault-injection fare (cf. the sensor-fault
/// robustness studies in `PAPERS.md`): they corrupt the *observed* value
/// of a channel without feeding back into the plant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultModel {
    /// Each active step is dropped (replaced by `NaN`) with probability
    /// `p` — a lost CGM transmission.
    Dropout {
        /// Per-step drop probability in `[0, 1]`.
        p: f64,
    },
    /// The channel freezes at its current value for `duration` steps, then
    /// re-latches — a stuck transducer that occasionally resamples.
    StuckAt {
        /// Steps each latched value is held for (≥ 1 enforced).
        duration: usize,
    },
    /// Each active step fires an additive outlier of `±magnitude` with
    /// probability [`SPIKE_PROB`] — calibration glitches.
    Spike {
        /// Absolute outlier amplitude (channel units).
        magnitude: f64,
    },
    /// Linearly accumulating offset: `rate` channel-units per step since
    /// fault onset — uncalibrated sensor drift.
    Drift {
        /// Drift slope (channel units per 5-minute step).
        rate: f64,
    },
    /// Constant additive offset — a miscalibrated sensor.
    Bias {
        /// The offset (channel units).
        offset: f64,
    },
    /// Values are rounded to the nearest multiple of `step` — coarse ADC
    /// quantization.
    Quantize {
        /// Quantization step (> 0, channel units).
        step: f64,
    },
    /// The channel reports the value from `steps` steps ago (the earliest
    /// seen value while history is still shorter) — transport or
    /// processing delay.
    Delay {
        /// Delay depth in steps.
        steps: usize,
    },
}

impl FaultModel {
    /// Short label for tables (`dropout`, `stuck`, `spike`, `drift`,
    /// `bias`, `quantize`, `delay`).
    pub fn label(&self) -> &'static str {
        match self {
            FaultModel::Dropout { .. } => "dropout",
            FaultModel::StuckAt { .. } => "stuck",
            FaultModel::Spike { .. } => "spike",
            FaultModel::Drift { .. } => "drift",
            FaultModel::Bias { .. } => "bias",
            FaultModel::Quantize { .. } => "quantize",
            FaultModel::Delay { .. } => "delay",
        }
    }

    /// The model's scalar intensity (the grid axis of the `fault_sweep`
    /// experiment).
    pub fn intensity(&self) -> f64 {
        match *self {
            FaultModel::Dropout { p } => p,
            FaultModel::StuckAt { duration } => duration as f64,
            FaultModel::Spike { magnitude } => magnitude,
            FaultModel::Drift { rate } => rate,
            FaultModel::Bias { offset } => offset,
            FaultModel::Quantize { step } => step,
            FaultModel::Delay { steps } => steps as f64,
        }
    }
}

/// One fault applied to one channel over one step interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelFault {
    /// The corrupted channel.
    pub channel: SensorChannel,
    /// The fault class and intensity.
    pub model: FaultModel,
    /// First affected step (0-based).
    pub start_step: usize,
    /// Number of affected steps.
    pub duration_steps: usize,
}

impl ChannelFault {
    /// Creates a fault active on `[start_step, start_step + duration_steps)`.
    pub fn new(
        channel: SensorChannel,
        model: FaultModel,
        start_step: usize,
        duration_steps: usize,
    ) -> Self {
        Self {
            channel,
            model,
            start_step,
            duration_steps,
        }
    }

    /// Whether the fault is active at step `t`.
    pub fn active_at(&self, t: usize) -> bool {
        t >= self.start_step && t < self.start_step + self.duration_steps
    }
}

/// A fault-injection campaign: a seed plus any number of [`ChannelFault`]s,
/// composable per channel and per interval (faults are applied in plan
/// order, each seeing its predecessors' output).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The campaign faults, in application order.
    pub faults: Vec<ChannelFault>,
    /// Root seed; all injector randomness derives from it.
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            faults: Vec::new(),
            seed,
        }
    }

    /// Adds a fault (builder style).
    #[must_use]
    pub fn with(mut self, fault: ChannelFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// A stateful injector on an explicit RNG stream. Prefer
    /// [`injector_for`](Self::injector_for), which derives the stream from
    /// the trace identity.
    pub fn injector(&self, stream: u64) -> FaultInjector {
        let mut root = SmallRng::new(self.seed ^ FAULT_SALT).fork(stream);
        let states = (0..self.faults.len() as u64)
            .map(|i| FaultState::new(root.fork(i)))
            .collect();
        FaultInjector {
            faults: self.faults.clone(),
            states,
            t: 0,
        }
    }

    /// A stateful injector keyed to one trace's identity, so injection is
    /// independent of trace iteration order and thread count.
    pub fn injector_for(&self, simulator: &str, patient_id: usize, run_id: usize) -> FaultInjector {
        self.injector(trace_stream(simulator, patient_id, run_id))
    }

    /// Rewrites one trace's sensor channels. Ground truth (`bg_true`),
    /// commanded rate, carbs, labels-relevant metadata, and the pump-fault
    /// annotation are preserved.
    pub fn inject(&self, trace: &SimTrace) -> SimTrace {
        let mut inj = self.injector_for(trace.simulator, trace.patient_id, trace.run_id);
        let records = trace.records().iter().map(|r| inj.apply(r)).collect();
        SimTrace::new(
            trace.simulator,
            trace.controller,
            trace.patient_id,
            trace.run_id,
            trace.fault,
            records,
        )
    }

    /// [`inject`](Self::inject) over a whole campaign.
    pub fn inject_all(&self, traces: &[SimTrace]) -> Vec<SimTrace> {
        traces.iter().map(|t| self.inject(t)).collect()
    }
}

/// Per-fault mutable state.
#[derive(Debug, Clone)]
struct FaultState {
    rng: SmallRng,
    /// Latched value and steps it remains held (stuck-at).
    stuck: Option<(f64, usize)>,
    /// Raw channel history (delay).
    history: VecDeque<f64>,
}

impl FaultState {
    fn new(rng: SmallRng) -> Self {
        Self {
            rng,
            stuck: None,
            history: VecDeque::new(),
        }
    }
}

/// Stateful sequential injector for one trace/stream: feed records in step
/// order via [`apply`](Self::apply). Created by [`FaultPlan::injector`] /
/// [`FaultPlan::injector_for`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    faults: Vec<ChannelFault>,
    states: Vec<FaultState>,
    t: usize,
}

impl FaultInjector {
    /// Steps consumed so far.
    pub fn steps_seen(&self) -> usize {
        self.t
    }

    /// Applies the plan to the next record (step index = records fed so
    /// far) and returns the corrupted copy.
    pub fn apply(&mut self, rec: &StepRecord) -> StepRecord {
        let t = self.t;
        self.t += 1;
        let mut out = *rec;
        for (fault, state) in self.faults.iter().zip(&mut self.states) {
            // Later faults compose over earlier faults' output.
            let raw = fault.channel.get(&out);
            if let FaultModel::Delay { steps } = fault.model {
                // Delay history tracks the channel at *every* step so the
                // fault window can reach back before its own onset.
                state.history.push_back(raw);
                while state.history.len() > steps + 1 {
                    state.history.pop_front();
                }
            }
            if !fault.active_at(t) {
                state.stuck = None;
                continue;
            }
            let age = t - fault.start_step;
            let v = match fault.model {
                FaultModel::Dropout { p } => {
                    if state.rng.bernoulli(p) {
                        f64::NAN
                    } else {
                        raw
                    }
                }
                FaultModel::StuckAt { duration } => {
                    let (held, left) = match state.stuck {
                        Some((held, left)) if left > 0 => (held, left),
                        _ => (raw, duration.max(1)),
                    };
                    state.stuck = Some((held, left - 1));
                    held
                }
                FaultModel::Spike { magnitude } => {
                    if state.rng.bernoulli(SPIKE_PROB) {
                        let sign = if state.rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                        raw + sign * magnitude
                    } else {
                        raw
                    }
                }
                FaultModel::Drift { rate } => raw + rate * (age + 1) as f64,
                FaultModel::Bias { offset } => raw + offset,
                FaultModel::Quantize { step } => (raw / step).round() * step,
                FaultModel::Delay { steps } => {
                    // History ends with the current raw value; the value
                    // `steps` back (or the earliest seen) is reported.
                    let n = state.history.len();
                    state.history[n.saturating_sub(steps + 1)]
                }
            };
            out = fault.channel.set(&out, v);
        }
        out
    }
}

/// The kinds of pump-command corruption we can inject.
///
/// The paper's threat model (§III) includes an attacker who "can remotely
/// login to an insulin pump and change the output control commands" and
/// accidental malfunctions where "the pump can deliver an incorrect insulin
/// dosage". We model both as transformations applied to the commanded rate
/// during a contiguous window of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PumpFaultKind {
    /// Attacker forces a fixed high delivery rate regardless of commands
    /// (insulin overdose → hypoglycemia). Absolute, so the controller's
    /// defensive suspension cannot neutralize it — the attacker owns the
    /// pump.
    Overdose {
        /// Forced delivery rate (U/h).
        rate: f64,
    },
    /// Rate multiplied by a factor < 1 (underdose → hyperglycemia).
    Underdose {
        /// Multiplicative factor (< 1).
        factor: f64,
    },
    /// Pump ignores new commands and keeps delivering the rate it had when
    /// the fault began.
    StuckRate,
    /// Delivery suspended entirely.
    Suspend,
}

/// A pump-side fault occurrence: what, when, and for how long.
///
/// Unlike the sensor-side [`FaultPlan`], a pump fault changes the plant's
/// actual insulin delivery, so the physiological trajectory (and its hazard
/// labels) change with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PumpFault {
    /// The corruption applied.
    pub kind: PumpFaultKind,
    /// First affected step.
    pub start_step: usize,
    /// Number of affected steps.
    pub duration_steps: usize,
}

impl PumpFault {
    /// Whether `step` falls inside the fault window.
    pub fn active_at(&self, step: usize) -> bool {
        step >= self.start_step && step < self.start_step + self.duration_steps
    }

    /// Samples a random fault for a scenario of `steps` steps.
    ///
    /// `reference_rate` is the patient's basal rate; overdose attacks force
    /// a multiple of it. The window starts in the 15–60 % span of the
    /// scenario and lasts 1–6 hours, so there is always clean lead-in data
    /// and room for the hazard to develop — mirroring the paper's
    /// fault-injection campaigns.
    pub fn sample(steps: usize, reference_rate: f64, rng: &mut SmallRng) -> Self {
        let kind = match rng.index(4) {
            0 => PumpFaultKind::Overdose {
                rate: reference_rate * rng.uniform_range(3.0, 8.0),
            },
            1 => PumpFaultKind::Underdose {
                factor: rng.uniform_range(0.0, 0.4),
            },
            2 => PumpFaultKind::StuckRate,
            _ => PumpFaultKind::Suspend,
        };
        let start = (steps as f64 * rng.uniform_range(0.15, 0.60)) as usize;
        let duration = ((rng.uniform_range(60.0, 360.0) / 5.0) as usize).max(1);
        Self {
            kind,
            start_step: start,
            duration_steps: duration,
        }
    }

    /// Short label for reports ("overdose", "suspend", …).
    pub fn label(&self) -> &'static str {
        match self.kind {
            PumpFaultKind::Overdose { .. } => "overdose",
            PumpFaultKind::Underdose { .. } => "underdose",
            PumpFaultKind::StuckRate => "stuck",
            PumpFaultKind::Suspend => "suspend",
        }
    }
}

/// FNV-1a stream key over a trace identity, mixing the simulator label and
/// both indices so every trace of a campaign gets a decoupled RNG stream.
fn trace_stream(simulator: &str, patient_id: usize, run_id: usize) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in simulator
        .bytes()
        .chain((patient_id as u64).to_le_bytes())
        .chain((run_id as u64).to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, SimulatorKind};

    fn trace() -> SimTrace {
        CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(1)
            .runs_per_patient(1)
            .steps(60)
            .seed(11)
            .run()
            .remove(0)
    }

    fn bg_fault(model: FaultModel) -> FaultPlan {
        FaultPlan::new(0xFA).with(ChannelFault::new(SensorChannel::BgSensor, model, 10, 30))
    }

    #[test]
    fn empty_plan_is_identity() {
        let t = trace();
        assert_eq!(FaultPlan::new(1).inject(&t), t);
    }

    /// Bit-level view of a trace's injectable channels (NaN-safe, unlike
    /// `PartialEq` on records).
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

    #[test]
    fn injection_is_deterministic() {
        let t = trace();
        let plan = bg_fault(FaultModel::Dropout { p: 0.5 });
        assert_eq!(
            channel_bits(&plan.inject(&t)),
            channel_bits(&plan.inject(&t))
        );
    }

    #[test]
    fn seed_changes_dropout_pattern() {
        let t = trace();
        let a = bg_fault(FaultModel::Dropout { p: 0.5 }).inject(&t);
        let mut b_plan = bg_fault(FaultModel::Dropout { p: 0.5 });
        b_plan.seed = 0xFB;
        assert_ne!(channel_bits(&a), channel_bits(&b_plan.inject(&t)));
    }

    #[test]
    fn fault_window_is_respected() {
        let t = trace();
        let out = bg_fault(FaultModel::Bias { offset: 50.0 }).inject(&t);
        for (i, (a, b)) in t.records().iter().zip(out.records()).enumerate() {
            if (10..40).contains(&i) {
                assert_eq!(b.bg_sensor, (a.bg_sensor + 50.0).max(1.0), "step {i}");
            } else {
                assert_eq!(a, b, "step {i} outside window must be untouched");
            }
            assert_eq!(a.bg_true, b.bg_true, "ground truth must never change");
            assert_eq!(a.iob, b.iob);
            assert_eq!(a.delivered_rate, b.delivered_rate);
        }
    }

    #[test]
    fn dropout_rate_tracks_p() {
        let t = trace();
        let out = bg_fault(FaultModel::Dropout { p: 1.0 }).inject(&t);
        let nans = out.records()[10..40]
            .iter()
            .filter(|r| r.bg_sensor.is_nan())
            .count();
        assert_eq!(nans, 30, "p=1 drops every active step");
        let none = bg_fault(FaultModel::Dropout { p: 0.0 }).inject(&t);
        assert_eq!(none, t);
    }

    #[test]
    fn stuck_at_latches_and_relatches() {
        let t = trace();
        let out = bg_fault(FaultModel::StuckAt { duration: 10 }).inject(&t);
        let r = out.records();
        let first = t.records()[10].bg_sensor;
        for (i, held) in r.iter().enumerate().take(20).skip(10) {
            assert_eq!(held.bg_sensor, first, "held value at step {i}");
        }
        let second = t.records()[20].bg_sensor;
        assert_eq!(r[20].bg_sensor, second, "re-latched at step 20");
        assert_ne!(first, second, "CGM noise makes equal readings implausible");
    }

    #[test]
    fn drift_accumulates_linearly() {
        let t = trace();
        let out = bg_fault(FaultModel::Drift { rate: 2.0 }).inject(&t);
        assert_eq!(out.records()[10].bg_sensor, t.records()[10].bg_sensor + 2.0);
        assert_eq!(
            out.records()[39].bg_sensor,
            t.records()[39].bg_sensor + 60.0
        );
    }

    #[test]
    fn quantize_rounds_to_grid() {
        let t = trace();
        let out = bg_fault(FaultModel::Quantize { step: 25.0 }).inject(&t);
        for r in &out.records()[10..40] {
            let q = r.bg_sensor / 25.0;
            assert_eq!(q, q.round());
        }
    }

    #[test]
    fn delay_replays_old_values() {
        let t = trace();
        let out = bg_fault(FaultModel::Delay { steps: 3 }).inject(&t);
        for i in 10..40 {
            assert_eq!(
                out.records()[i].bg_sensor,
                t.records()[i - 3].bg_sensor,
                "step {i} reports the value 3 steps back"
            );
        }
        assert_eq!(out.records()[9], t.records()[9]);
    }

    #[test]
    fn faults_compose_in_plan_order() {
        let t = trace();
        let plan = FaultPlan::new(1)
            .with(ChannelFault::new(
                SensorChannel::BgSensor,
                FaultModel::Bias { offset: 7.0 },
                0,
                60,
            ))
            .with(ChannelFault::new(
                SensorChannel::BgSensor,
                FaultModel::Quantize { step: 10.0 },
                0,
                60,
            ));
        let out = plan.inject(&t);
        for (a, b) in t.records().iter().zip(out.records()) {
            assert_eq!(b.bg_sensor, ((a.bg_sensor + 7.0) / 10.0).round() * 10.0);
        }
    }

    #[test]
    fn other_channels_injectable() {
        let t = trace();
        let plan = FaultPlan::new(2).with(ChannelFault::new(
            SensorChannel::DeliveredRate,
            FaultModel::Bias { offset: 1.5 },
            0,
            60,
        ));
        let out = plan.inject(&t);
        for (a, b) in t.records().iter().zip(out.records()) {
            assert_eq!(b.delivered_rate, a.delivered_rate + 1.5);
            assert_eq!(b.bg_sensor, a.bg_sensor);
        }
    }

    #[test]
    fn floor_clamps_finite_but_not_nan() {
        let rec = StepRecord {
            bg_true: 100.0,
            bg_sensor: 100.0,
            iob: 1.0,
            commanded_rate: 1.0,
            delivered_rate: 1.0,
            carbs: 0.0,
        };
        let clamped = SensorChannel::BgSensor.set(&rec, -50.0);
        assert_eq!(clamped.bg_sensor, 1.0);
        let dropped = SensorChannel::BgSensor.set(&rec, f64::NAN);
        assert!(dropped.bg_sensor.is_nan());
    }

    #[test]
    fn observer_matches_offline_injection() {
        // An injector keyed like the trace, applied record by record as a
        // run streams them (the way a mitigating observer perturbs its
        // input), must equal the offline inject() of the recorded trace.
        let plan = bg_fault(FaultModel::StuckAt { duration: 8 });
        let clean = trace();
        let offline = plan.inject(&clean);
        let mut injector = plan.injector_for(clean.simulator, clean.patient_id, clean.run_id);
        let live: Vec<StepRecord> = clean.records().iter().map(|r| injector.apply(r)).collect();
        assert_eq!(live, offline.records());
    }

    #[test]
    fn pump_fault_active_window() {
        let f = PumpFault {
            kind: PumpFaultKind::Suspend,
            start_step: 10,
            duration_steps: 5,
        };
        assert!(!f.active_at(9));
        assert!(f.active_at(10));
        assert!(f.active_at(14));
        assert!(!f.active_at(15));
    }

    #[test]
    fn pump_fault_sample_within_bounds() {
        let mut rng = SmallRng::new(5);
        for _ in 0..200 {
            let f = PumpFault::sample(288, 1.0, &mut rng);
            assert!(
                f.start_step >= 43 && f.start_step <= 173,
                "start {}",
                f.start_step
            );
            assert!(f.duration_steps >= 12 && f.duration_steps <= 72);
            match f.kind {
                PumpFaultKind::Overdose { rate } => assert!(rate > 1.0),
                PumpFaultKind::Underdose { factor } => assert!(factor < 1.0),
                _ => {}
            }
        }
    }

    #[test]
    fn pump_fault_sample_covers_all_kinds() {
        let mut rng = SmallRng::new(6);
        let mut seen = [false; 4];
        for _ in 0..100 {
            match PumpFault::sample(288, 1.0, &mut rng).kind {
                PumpFaultKind::Overdose { .. } => seen[0] = true,
                PumpFaultKind::Underdose { .. } => seen[1] = true,
                PumpFaultKind::StuckRate => seen[2] = true,
                PumpFaultKind::Suspend => seen[3] = true,
            }
        }
        assert!(seen.iter().all(|&s| s), "kinds seen: {seen:?}");
    }

    #[test]
    fn stream_keys_differ_per_trace() {
        assert_ne!(
            trace_stream("glucosym", 0, 0),
            trace_stream("glucosym", 0, 1)
        );
        assert_ne!(
            trace_stream("glucosym", 0, 0),
            trace_stream("glucosym", 1, 0)
        );
        assert_ne!(
            trace_stream("glucosym", 0, 0),
            trace_stream("t1ds2013", 0, 0)
        );
    }
}
