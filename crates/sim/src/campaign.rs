//! Seeded multi-patient simulation campaigns.
//!
//! A campaign reproduces the paper's data-collection setup: many runs per
//! patient profile, a configurable fraction of them with injected pump
//! faults, using the simulator/controller pairing of the paper
//! (Glucosym + OpenAPS, T1DS2013 + Basal-Bolus).
//!
//! [`CampaignConfig::run`] simulates every member at once on the
//! [`CohortEngine`]. [`CampaignConfig::member`] rebuilds one member as a
//! [`ClosedLoop`]: the per-member reference the engine is tested against,
//! and the loop a mitigating observer drives. Both equip their members
//! through one recipe, as do sampled cohorts ([`crate::Cohort::engine`]):
//! each member's RNG stream is forked off the seed in member order, then
//! draws the meal schedule, the CGM stream and the pump fault, in that
//! order.

use crate::basal_bolus::BasalBolusController;
use crate::cohort::{calibrate_t1ds, CohortEngine, CohortMember, CohortPatient};
use crate::engine::{ClosedLoop, StepObserver};
use crate::faults::PumpFault;
use crate::glucosym::GlucosymPatient;
use crate::meal::MealSchedule;
use crate::openaps::OpenApsController;
use crate::pump::InsulinPump;
use crate::sensor::Cgm;
use crate::t1ds::{T1dsParams, T1dsPatient};
use crate::trace::SimTrace;
use cpsmon_nn::rng::SmallRng;
use std::ops::Range;

/// Salt mixed into the seed before forking per-member RNG streams.
const CAMPAIGN_SALT: u64 = 0x6361_6d70_6169_676e;

/// The per-member RNG streams of a campaign or cohort: one root stream
/// per seed, forked once per member in member order.
pub(crate) struct MemberStreams(SmallRng);

impl MemberStreams {
    pub(crate) fn new(seed: u64) -> Self {
        Self(SmallRng::new(seed ^ CAMPAIGN_SALT))
    }

    /// Forks the stream of run `run` of patient `pid`. Forking advances
    /// the root, so a member's stream depends on every earlier fork.
    pub(crate) fn fork(&mut self, pid: usize, run: usize) -> SmallRng {
        self.0.fork((pid * 10_007 + run) as u64)
    }

    /// Forks member `(pid, run)`'s stream and equips the member from it:
    /// the meal schedule, then the CGM stream, then the pump-fault draw
    /// (with probability `fault_ratio`, sized against the patient's basal
    /// rate).
    pub(crate) fn equip(
        &mut self,
        pid: usize,
        run: usize,
        steps: usize,
        basal_rate: f64,
        fault_ratio: f64,
    ) -> CohortMember {
        let mut rng = self.fork(pid, run);
        let meals = MealSchedule::generate(steps, &mut rng);
        let cgm = Cgm::typical(rng.fork(1));
        let pump = match rng
            .bernoulli(fault_ratio)
            .then(|| PumpFault::sample(steps, basal_rate, &mut rng))
        {
            Some(f) => InsulinPump::with_fault(f),
            None => InsulinPump::healthy(),
        };
        CohortMember {
            patient_id: pid,
            run_id: run,
            cgm,
            pump,
            meals,
        }
    }
}

/// The two APS simulation environments of the paper (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimulatorKind {
    /// Glucosym-style patients driven by the OpenAPS-like controller.
    Glucosym,
    /// UVA-Padova-style patients driven by the Basal-Bolus protocol.
    T1ds2013,
}

impl SimulatorKind {
    /// Label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            SimulatorKind::Glucosym => "glucosym",
            SimulatorKind::T1ds2013 => "t1ds2013",
        }
    }

    /// Both simulators, in paper order.
    pub const ALL: [SimulatorKind; 2] = [SimulatorKind::Glucosym, SimulatorKind::T1ds2013];
}

impl std::fmt::Display for SimulatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Builder for a simulation campaign.
///
/// # Examples
///
/// ```
/// use cpsmon_sim::{CampaignConfig, SimulatorKind};
///
/// let traces = CampaignConfig::new(SimulatorKind::T1ds2013)
///     .patients(1)
///     .runs_per_patient(1)
///     .steps(48)
///     .seed(3)
///     .run();
/// assert_eq!(traces.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    pub(crate) kind: SimulatorKind,
    pub(crate) patients: usize,
    pub(crate) runs_per_patient: usize,
    pub(crate) steps: usize,
    pub(crate) fault_ratio: f64,
    pub(crate) seed: u64,
}

impl CampaignConfig {
    /// Creates a campaign for the given simulator with paper-style
    /// defaults: 20 patients, 10 runs each, 24-hour scenarios, half of the
    /// runs fault-injected.
    pub fn new(kind: SimulatorKind) -> Self {
        Self {
            kind,
            patients: 20,
            runs_per_patient: 10,
            steps: 288,
            fault_ratio: 0.5,
            seed: 0,
        }
    }

    /// Number of patient profiles (max 20, matching the paper).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above 20.
    pub fn patients(mut self, n: usize) -> Self {
        assert!((1..=20).contains(&n), "patients must be in 1..=20");
        self.patients = n;
        self
    }

    /// Number of runs per patient.
    pub fn runs_per_patient(mut self, n: usize) -> Self {
        assert!(n > 0, "runs_per_patient must be positive");
        self.runs_per_patient = n;
        self
    }

    /// Steps per run (5-minute steps).
    pub fn steps(mut self, n: usize) -> Self {
        assert!(n > 0, "steps must be positive");
        self.steps = n;
        self
    }

    /// Fraction of runs that get an injected pump fault.
    pub fn fault_ratio(mut self, r: f64) -> Self {
        assert!((0.0..=1.0).contains(&r), "fault_ratio must be in [0,1]");
        self.fault_ratio = r;
        self
    }

    /// Campaign seed; everything downstream is derived from it.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// The simulator kind.
    pub fn kind(&self) -> SimulatorKind {
        self.kind
    }

    /// Total number of runs this campaign will produce.
    pub fn total_runs(&self) -> usize {
        self.patients * self.runs_per_patient
    }

    /// Executes the campaign on the [`CohortEngine`], returning one trace
    /// per run, patient-major.
    pub fn run(&self) -> Vec<SimTrace> {
        CohortEngine::from_campaign(self).run()
    }

    /// Patient profiles `pids` of this campaign's simulator, in order.
    /// T1DS profiles calibrate together, in one batch.
    pub(crate) fn profiles(&self, pids: Range<usize>) -> Vec<CohortPatient> {
        match self.kind {
            SimulatorKind::Glucosym => pids
                .map(|pid| GlucosymPatient::from_profile(pid, self.seed).into())
                .collect(),
            SimulatorKind::T1ds2013 => {
                let members: Vec<_> = pids
                    .map(|pid| T1dsParams::profile(pid, self.seed))
                    .collect();
                calibrate_t1ds(&members, cpsmon_nn::simd::backend())
                    .into_iter()
                    .map(CohortPatient::from)
                    .collect()
            }
        }
    }

    /// Reassembles one campaign member in isolation as a [`ClosedLoop`]:
    /// the exact patient, pump (with any drawn fault), CGM stream, and meal
    /// schedule that [`run`](Self::run) gives run `run` of patient `pid` —
    /// so a single member can be re-simulated under an observer (e.g. a
    /// mitigating monitor) and, with a no-op observer, reproduce the
    /// campaign trace bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= patients` or `run >= runs_per_patient`.
    pub fn member(&self, pid: usize, run: usize) -> MemberLoop {
        assert!(pid < self.patients, "pid {pid} out of range");
        assert!(run < self.runs_per_patient, "run {run} out of range");
        // Forking advances the root stream: replay every earlier fork.
        let mut streams = MemberStreams::new(self.seed);
        let runs = self.runs_per_patient;
        let earlier = (0..self.patients).flat_map(|p| (0..runs).map(move |r| (p, r)));
        for (p, r) in earlier.take(pid * runs + run) {
            streams.fork(p, r);
        }
        let patient = self.profiles(pid..pid + 1).remove(0);
        let basal = patient.therapy().basal_rate;
        let CohortMember {
            cgm, pump, meals, ..
        } = streams.equip(pid, run, self.steps, basal, self.fault_ratio);
        let inner = match patient {
            CohortPatient::Glucosym(p) => MemberLoopInner::Glucosym(Box::new(ClosedLoop::new(
                p,
                OpenApsController::new(),
                pump,
                cgm,
                meals,
            ))),
            CohortPatient::T1ds(p) => MemberLoopInner::T1ds(Box::new(ClosedLoop::new(
                p,
                BasalBolusController::new(),
                pump,
                cgm,
                meals,
            ))),
        };
        MemberLoop {
            inner,
            steps: self.steps,
            label: self.kind.label(),
            pid,
            run,
        }
    }
}

/// The simulator-specific closed loop inside a [`MemberLoop`].
enum MemberLoopInner {
    Glucosym(Box<ClosedLoop<GlucosymPatient, OpenApsController>>),
    T1ds(Box<ClosedLoop<T1dsPatient, BasalBolusController>>),
}

/// One campaign member ready to run, produced by
/// [`CampaignConfig::member`]. Running it with a no-op observer reproduces
/// the corresponding [`CampaignConfig::run`] trace bit for bit; running it
/// with a mitigating observer is how an alarm gets to change the simulated
/// patient's future.
pub struct MemberLoop {
    inner: MemberLoopInner,
    steps: usize,
    label: &'static str,
    pid: usize,
    run: usize,
}

impl MemberLoop {
    /// Steps this member's run covers.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Runs the member to completion without an observer.
    pub fn run(self) -> SimTrace {
        let mut noop = |_: usize, _: &crate::trace::StepRecord| {};
        self.run_observed(&mut noop)
    }

    /// Runs the member with a monitor-in-the-loop observer (see
    /// [`crate::engine::StepObserver`]); mitigation commands the observer
    /// returns are applied to the pump on the next control step.
    pub fn run_observed(self, observer: &mut dyn StepObserver) -> SimTrace {
        match self.inner {
            MemberLoopInner::Glucosym(cl) => {
                cl.run_observed(self.steps, self.label, self.pid, self.run, observer)
            }
            MemberLoopInner::T1ds(cl) => {
                cl.run_observed(self.steps, self.label, self.pid, self.run, observer)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hazard::HazardConfig;

    #[test]
    fn campaign_produces_expected_count() {
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(3)
            .steps(36)
            .seed(1)
            .run();
        assert_eq!(traces.len(), 6);
        assert!(traces.iter().all(|t| t.len() == 36));
        assert!(traces.iter().all(|t| t.simulator == "glucosym"));
    }

    #[test]
    fn fault_ratio_zero_means_no_faults() {
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(2)
            .steps(24)
            .fault_ratio(0.0)
            .seed(2)
            .run();
        assert!(traces.iter().all(|t| t.fault.is_none()));
    }

    #[test]
    fn fault_ratio_one_means_all_faulty() {
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(2)
            .steps(24)
            .fault_ratio(1.0)
            .seed(3)
            .run();
        assert!(traces.iter().all(|t| t.fault.is_some()));
    }

    #[test]
    fn campaigns_are_deterministic() {
        let mk = || {
            CampaignConfig::new(SimulatorKind::Glucosym)
                .patients(1)
                .runs_per_patient(2)
                .steps(48)
                .seed(11)
                .run()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn member_loops_reproduce_campaign_traces() {
        for kind in SimulatorKind::ALL {
            let cfg = CampaignConfig::new(kind)
                .patients(2)
                .runs_per_patient(3)
                .steps(36)
                .fault_ratio(0.5)
                .seed(9);
            let traces = cfg.run();
            for pid in 0..2 {
                for run in 0..3 {
                    let solo = cfg.member(pid, run).run();
                    assert_eq!(solo, traces[pid * 3 + run], "{kind} pid {pid} run {run}");
                }
            }
        }
    }

    #[test]
    fn faulty_campaign_produces_positive_labels() {
        // 24h runs with faults must generate hazardous stretches.
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(2)
            .steps(288)
            .fault_ratio(1.0)
            .seed(5)
            .run();
        let hc = HazardConfig::default();
        let positives: usize = traces
            .iter()
            .map(|t| hc.labels(t).iter().sum::<usize>())
            .sum();
        let total: usize = traces.iter().map(SimTrace::len).sum();
        let ratio = positives as f64 / total as f64;
        assert!(
            ratio > 0.05,
            "fault campaign produced almost no hazards ({ratio})"
        );
    }
}
