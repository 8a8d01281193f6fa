//! The composable session pipeline: `Guard → Featurize → Monitor →
//! Mitigate`.
//!
//! [`PipelineSession`] is the solo composition of the four stages:
//!
//! 1. **Guard** — optional input sanitization ([`InputGuard`]) and the
//!    Healthy → Degraded → Fallback state machine, with the rule monitor
//!    as the degraded-mode verdict source;
//! 2. **Featurize** ([`crate::stream::WindowStream`]) — the incremental
//!    windowed featurizer;
//! 3. **Monitor** ([`MonitorSession`]) — the trained classifier over the
//!    normalized window;
//! 4. **Mitigate** ([`Mitigator`]) — optional rule- and
//!    trajectory-grounded corrective action derivation.
//!
//! The pooled engines ([`crate::stream::SessionPool`],
//! [`crate::stream::LstmSessionPool`] and the serving shard) all run the
//! same stage graph through one batched executor,
//! [`crate::executor::Executor`]: they accept the same guard policy and
//! [`Mitigator`], and share one copy of the per-slot decision logic, with
//! only the classifier stage batched. The solo session stays separate so
//! the transparency suites have an independent reference to compare the
//! executor against.
//!
//! ## Closing the loop
//!
//! A [`Verdict`](crate::stream::Verdict) now carries a typed
//! [`Action`]. [`MitigatedObserver`]
//! turns a [`PipelineSession`] into a
//! [`cpsmon_sim::StepObserver`] whose [`StepObserver::mitigation`] hook
//! feeds the action back into
//! [`cpsmon_sim::ClosedLoop::run_observed`] as a
//! [`PumpCommand`] — the first point in this codebase where an alarm
//! changes the simulated patient's future (DESIGN.md §14).
//!
//! ## Bit-identity contract
//!
//! The mitigation stage is pure post-processing: it never alters a
//! verdict's `label` or `proba`, and a pipeline without a mitigator takes
//! exactly the pre-pipeline code path. Zero-mitigation pipeline sessions
//! are therefore bitwise equal to the bare `MonitorSession` (guarded ones
//! on clean input included; property-tested in the workspace `mitigation`
//! and `faults` suites), and mitigated runs are deterministic:
//! [`Mitigator::decide`] is a pure function of the verdict and the window
//! context, so mitigated traces are identical across thread counts and
//! SIMD backends.

use std::time::{Duration, Instant};

use crate::guard::{GuardPolicy, HealthState, InputGuard};
use crate::stream::{GuardedVerdict, MonitorSession};
use cpsmon_sim::trace::StepRecord;
use cpsmon_sim::{PumpCommand, StepObserver};
use cpsmon_stl::{ApsContext, ApsRules, HazardType, RuleMonitor};

/// A typed corrective action attached to every
/// [`Verdict`](crate::stream::Verdict).
///
/// Actions only ever *withhold* insulin: a runtime monitor can safely
/// refuse to deliver (the patient's liver raises glucose), but cannot
/// safely add insulin on its own authority — so hyperglycemia-side (H2)
/// alarms map to [`Action::None`] and are left to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Action {
    /// No corrective action.
    #[default]
    None,
    /// Suspend basal delivery entirely for `steps` control steps.
    SuspendBasal {
        /// Duration of the suspension in 5-minute control steps.
        steps: usize,
    },
    /// Cap the delivered rate at `max_rate` U/h for `steps` control steps.
    CapRate {
        /// Delivery ceiling (U/h).
        max_rate: f64,
        /// Duration of the cap in 5-minute control steps.
        steps: usize,
    },
}

impl Action {
    /// Whether this is [`Action::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, Action::None)
    }

    /// Table label (`none` / `suspend_basal` / `cap_rate`).
    pub fn label(&self) -> &'static str {
        match self {
            Action::None => "none",
            Action::SuspendBasal { .. } => "suspend_basal",
            Action::CapRate { .. } => "cap_rate",
        }
    }

    /// The pump command implementing this action (`None` for
    /// [`Action::None`]).
    pub fn to_command(self) -> Option<PumpCommand> {
        match self {
            Action::None => None,
            Action::SuspendBasal { steps } => Some(PumpCommand::suspend(steps)),
            Action::CapRate { max_rate, steps } => Some(PumpCommand::cap(max_rate, steps)),
        }
    }
}

/// Where a verdict's wall-clock latency went, stage by stage.
///
/// The invariant `queue + compute + mitigation == Verdict::latency` holds
/// exactly (the summed field *is* the latency) for solo and pooled
/// sessions alike; the workspace `streaming`/`mitigation` suites pin it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyAttribution {
    /// Time between the record's push and the start of classification
    /// (zero for solo sessions; the batch queue wait for pooled ones).
    pub queue: Duration,
    /// Featurization plus classification — for pooled sessions, the
    /// batched forward pass divided by the rows that shared it.
    pub compute: Duration,
    /// Time spent deriving the corrective [`Action`] (zero when no
    /// mitigator is armed).
    pub mitigation: Duration,
}

impl LatencyAttribution {
    /// Attribution for a solo session: everything is compute.
    pub fn compute_only(compute: Duration) -> Self {
        Self {
            compute,
            ..Self::default()
        }
    }

    /// End-to-end latency: `queue + compute + mitigation`.
    pub fn total(&self) -> Duration {
        self.queue + self.compute + self.mitigation
    }
}

/// Thresholds and action shapes for the [`Mitigator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationPolicy {
    /// Minimum alarm probability before any action is considered. The
    /// rule monitor reports hard 0/1, so it clears any threshold ≤ 1.
    pub threshold: f64,
    /// Hypoglycemia threshold (mg/dL) for the trajectory check.
    pub hypo: f64,
    /// Linear-extrapolation horizon (control steps) for the
    /// predicted-trajectory action.
    pub horizon_steps: usize,
    /// Duration of a basal suspension (control steps).
    pub suspend_steps: usize,
    /// Delivery ceiling for [`Action::CapRate`] (U/h).
    pub cap_rate: f64,
    /// Duration of a rate cap (control steps).
    pub cap_steps: usize,
}

impl Default for MitigationPolicy {
    /// APS deployment defaults: act on any alarm (`threshold` 0.5 — both
    /// argmax labels and hard rule labels clear it), suspend for 30
    /// minutes when hypoglycemia is current or predicted within one hour,
    /// cap at 0.5 U/h for 30 minutes on falling-BG/rising-IOB contexts.
    fn default() -> Self {
        Self {
            threshold: 0.5,
            hypo: 70.0,
            horizon_steps: 12,
            suspend_steps: 6,
            cap_rate: 0.5,
            cap_steps: 6,
        }
    }
}

/// The mitigation stage: derives a corrective [`Action`] from an alarm
/// and the window's rule context.
///
/// Two grounds for acting, both hypoglycemia-side (see [`Action`]):
///
/// - **rule-based** — the fired Table I rule implies hazard H1 (too much
///   insulin): suspend basal, the strongest withhold;
/// - **predicted-trajectory** — current BG, or BG linearly extrapolated
///   over [`MitigationPolicy::horizon_steps`], crosses the hypo
///   threshold: suspend; a falling-BG / rising-IOB context that has not
///   yet crossed gets the softer rate cap.
///
/// `decide` is a pure function of its inputs (no internal state), so
/// mitigated runs replay deterministically.
#[derive(Debug, Clone, Copy)]
pub struct Mitigator {
    rules: ApsRules,
    policy: MitigationPolicy,
}

impl Mitigator {
    /// Creates a mitigator with explicit rules and policy.
    pub fn new(rules: ApsRules, policy: MitigationPolicy) -> Self {
        Self { rules, policy }
    }

    /// The APS defaults ([`ApsRules::default`] +
    /// [`MitigationPolicy::default`]).
    pub fn aps() -> Self {
        Self::new(ApsRules::default(), MitigationPolicy::default())
    }

    /// The policy this mitigator acts under.
    pub fn policy(&self) -> &MitigationPolicy {
        &self.policy
    }

    /// Derives the action for one verdict. `ctx` is evaluated lazily —
    /// only alarms pay for context aggregation, so the armed-but-quiet
    /// per-step overhead is a branch.
    pub fn decide(&self, label: usize, proba: f64, ctx: impl FnOnce() -> ApsContext) -> Action {
        if label != 1 || proba < self.policy.threshold {
            return Action::None;
        }
        let ctx = ctx();
        if let Some(id) = self.rules.violated_rule(&ctx) {
            if ApsRules::hazard_of(id) == HazardType::H1 {
                return Action::SuspendBasal {
                    steps: self.policy.suspend_steps,
                };
            }
        }
        let predicted = ctx.bg + ctx.dbg * self.policy.horizon_steps as f64;
        if ctx.bg <= self.policy.hypo || predicted <= self.policy.hypo {
            return Action::SuspendBasal {
                steps: self.policy.suspend_steps,
            };
        }
        if ctx.dbg < -self.rules.bg_trend_eps && ctx.diob > self.rules.iob_eps {
            return Action::CapRate {
                max_rate: self.policy.cap_rate,
                steps: self.policy.cap_steps,
            };
        }
        Action::None
    }
}

/// The solo composition of the stage graph: optional guard, the monitor
/// core, optional mitigator.
///
/// `MonitorSession` behavior is `PipelineSession::new(core)`; the
/// deployment form for unreliable inputs adds `.with_guard(..)`: every
/// record is sanitized first (invalid samples imputed within the policy's
/// staleness budget), and while the guard reports
/// [`HealthState::Fallback`] the emitted label/probability come from the
/// knowledge-only [`RuleMonitor`] evaluated on the imputed window context
/// — the paper's robust fallback. Recovery is automatic after the
/// policy's clean-step run, and on a fully clean stream the guard passes
/// every record through bit-identically (property-tested in the
/// workspace `faults` suite). The closed-loop deployment form adds
/// `.with_mitigator(..)` and wraps the whole thing in a
/// [`MitigatedObserver`].
#[derive(Debug, Clone)]
pub struct PipelineSession<'m> {
    /// The input guard and the rules that take over while it reports
    /// [`HealthState::Fallback`].
    guard: Option<(InputGuard, RuleMonitor)>,
    core: MonitorSession<'m>,
    mitigator: Option<Mitigator>,
}

impl<'m> PipelineSession<'m> {
    /// Wraps a monitor core with no guard and no mitigator (equivalent to
    /// the bare [`MonitorSession`], emitting [`GuardedVerdict`]s with
    /// `Healthy` health).
    pub fn new(core: MonitorSession<'m>) -> Self {
        Self {
            guard: None,
            core,
            mitigator: None,
        }
    }

    /// Arms the guard stage.
    pub fn with_guard(mut self, policy: GuardPolicy, fallback: RuleMonitor) -> Self {
        self.guard = Some((InputGuard::new(policy), fallback));
        self
    }

    /// Arms the mitigation stage.
    pub fn with_mitigator(mut self, mitigator: Mitigator) -> Self {
        self.mitigator = Some(mitigator);
        self
    }

    /// The monitor core.
    pub fn core(&self) -> &MonitorSession<'m> {
        &self.core
    }

    /// Current guard health ([`HealthState::Healthy`] when no guard is
    /// armed).
    pub fn health(&self) -> HealthState {
        self.guard
            .as_ref()
            .map_or(HealthState::Healthy, |(g, _)| g.health())
    }

    /// Feeds one record through every armed stage; returns a verdict once
    /// the window is full.
    ///
    /// # Panics
    ///
    /// With no guard armed, panics on non-finite sensor input (see
    /// [`WindowStream::push`](crate::stream::WindowStream::push)); a
    /// guarded pipeline imputes instead. Use [`try_step`](Self::try_step)
    /// when the input is untrusted.
    pub fn step(&mut self, rec: &StepRecord) -> Option<GuardedVerdict> {
        match self.try_step(rec) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`step`](Self::step) for untrusted per-step input: with a
    /// guard armed the error is unreachable (invalid samples are imputed
    /// and, past the staleness budget, surface as
    /// [`HealthState::Fallback`] rule verdicts); without one, non-finite
    /// input returns the typed [`InvalidSample`](crate::stream::InvalidSample)
    /// error instead of aborting the session.
    pub fn try_step(
        &mut self,
        rec: &StepRecord,
    ) -> Result<Option<GuardedVerdict>, crate::stream::InvalidSample> {
        let (clean, status) = match &mut self.guard {
            Some((g, _)) => {
                let (clean, status) = g.sanitize(rec);
                (clean, Some(status))
            }
            None => (*rec, None),
        };
        let Some((mut verdict, mut ended)) = self.core.try_step_timed(&clean)? else {
            return Ok(None);
        };
        let (health, imputed) = status.map_or((HealthState::Healthy, false), |s| {
            (s.health, s.any_imputed())
        });
        if health == HealthState::Fallback {
            let (_, rules) = self.guard.as_ref().expect("fallback implies a guard");
            let label = rules.predict(&self.core.window().context());
            verdict.label = label;
            verdict.proba = label as f64;
            ended = Instant::now(); // keep the fallback work out of mitigation
        }
        // An alarm-free verdict skips the stage entirely (decide is the
        // identity there), so the armed-but-quiet cost is one branch —
        // not even a clock read; alarms pay exactly one, timed against
        // the instant the core's compute measurement ended.
        if let Some(m) = &self.mitigator {
            if verdict.label == 1 {
                verdict.action = m.decide(verdict.label, verdict.proba, || {
                    self.core.window().context()
                });
                verdict.attribution.mitigation = ended.elapsed();
                verdict.latency = verdict.attribution.total();
            }
        }
        Ok(Some(GuardedVerdict {
            verdict,
            health,
            imputed,
        }))
    }

    /// Resets every armed stage (the monitor and scratch stay warm).
    pub fn reset(&mut self) {
        if let Some((g, _)) = &mut self.guard {
            g.reset();
        }
        self.core.reset();
    }
}

/// `(step, verdict)` pairs collected by a [`MitigatedObserver`].
pub type StepVerdicts = Vec<(usize, GuardedVerdict)>;

/// `(step, action)` pairs for every non-[`Action::None`] action a
/// [`MitigatedObserver`] issued.
pub type StepActions = Vec<(usize, Action)>;

/// Turns a [`PipelineSession`] into a monitor-in-the-loop
/// [`StepObserver`] whose alarms feed back into the pump: when the
/// session's verdict carries an [`Action`], the corresponding
/// [`PumpCommand`] is handed to
/// [`cpsmon_sim::ClosedLoop::run_observed`], which applies it from the
/// *next* control step.
///
/// `perturb` maps each recorded step to what the *monitor sees* — the
/// robustness-testing seam. Identity (`|_, r| *r`) monitors the true
/// trace; noise/attack/fault models perturb only the monitored copy, so
/// the plant dynamics stay those of the underlying run while the monitor
/// operates on corrupted inputs.
pub struct MitigatedObserver<'s, 'm, F> {
    session: &'s mut PipelineSession<'m>,
    perturb: F,
    verdicts: Vec<(usize, GuardedVerdict)>,
    actions: Vec<(usize, Action)>,
    pending: Option<PumpCommand>,
}

impl<'s, 'm, F: FnMut(usize, &StepRecord) -> StepRecord> MitigatedObserver<'s, 'm, F> {
    /// Wraps a session. `perturb` transforms each record before the
    /// monitor sees it (use `|_, r| *r` for a faithful view).
    pub fn new(session: &'s mut PipelineSession<'m>, perturb: F) -> Self {
        Self {
            session,
            perturb,
            verdicts: Vec::new(),
            actions: Vec::new(),
            pending: None,
        }
    }

    /// `(step, verdict)` pairs collected so far.
    pub fn verdicts(&self) -> &[(usize, GuardedVerdict)] {
        &self.verdicts
    }

    /// `(step, action)` pairs for every non-`None` action issued.
    pub fn actions(&self) -> &[(usize, Action)] {
        &self.actions
    }

    /// Consumes the observer, returning verdicts and issued actions.
    pub fn into_parts(self) -> (StepVerdicts, StepActions) {
        (self.verdicts, self.actions)
    }
}

impl<F: FnMut(usize, &StepRecord) -> StepRecord> StepObserver for MitigatedObserver<'_, '_, F> {
    fn on_step(&mut self, step: usize, record: &StepRecord) {
        let seen = (self.perturb)(step, record);
        if let Some(v) = self.session.step(&seen) {
            if !v.verdict.action.is_none() {
                self.actions.push((step, v.verdict.action));
                self.pending = v.verdict.action.to_command();
            }
            self.verdicts.push((step, v));
        }
    }

    fn mitigation(&mut self) -> Option<PumpCommand> {
        self.pending.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsmon_stl::Command;

    fn ctx(bg: f64, dbg: f64, diob: f64, command: Command) -> ApsContext {
        ApsContext {
            bg,
            dbg,
            diob,
            command,
        }
    }

    #[test]
    fn no_action_without_alarm() {
        let m = Mitigator::aps();
        let c = ctx(60.0, -3.0, 0.2, Command::KeepInsulin);
        assert_eq!(m.decide(0, 0.0, || c), Action::None);
        assert_eq!(m.decide(1, 0.2, || c), Action::None, "below threshold");
    }

    #[test]
    fn h1_rule_alarm_suspends_basal() {
        let m = Mitigator::aps();
        // Rule 10: hypo while not stopping insulin.
        let c = ctx(60.0, 0.5, 0.2, Command::KeepInsulin);
        assert_eq!(m.decide(1, 1.0, || c), Action::SuspendBasal { steps: 6 });
    }

    #[test]
    fn h2_rule_alarm_takes_no_action() {
        let m = Mitigator::aps();
        // Rule 9: stopping insulin while hyperglycemic — H2, nothing a
        // monitor can safely deliver.
        let c = ctx(200.0, 0.0, 0.0, Command::StopInsulin);
        assert_eq!(m.decide(1, 1.0, || c), Action::None);
    }

    #[test]
    fn predicted_trajectory_suspends_before_crossing() {
        let m = Mitigator::aps();
        // BG 95 falling 3 mg/dL per step: 95 - 36 = 59 < 70 within the
        // 12-step horizon. No Table I rule fires (in range, keep, IOB
        // flat would be rule-free), so this is the trajectory ground.
        let c = ctx(95.0, -3.0, 0.0, Command::KeepInsulin);
        assert_eq!(m.decide(1, 1.0, || c), Action::SuspendBasal { steps: 6 });
    }

    #[test]
    fn falling_with_rising_iob_caps_rate() {
        let m = Mitigator::aps();
        // Falling but not projected to cross: 150 - 2*12 = 126 > 70, with
        // IOB still rising — soften with a cap.
        let c = ctx(150.0, -2.0, 0.2, Command::KeepInsulin);
        assert_eq!(
            m.decide(1, 1.0, || c),
            Action::CapRate {
                max_rate: 0.5,
                steps: 6
            }
        );
    }

    #[test]
    fn action_to_command_round_trip() {
        assert_eq!(Action::None.to_command(), None);
        assert_eq!(
            Action::SuspendBasal { steps: 4 }.to_command(),
            Some(PumpCommand::suspend(4))
        );
        assert_eq!(
            Action::CapRate {
                max_rate: 0.8,
                steps: 3
            }
            .to_command(),
            Some(PumpCommand::cap(0.8, 3))
        );
        assert!(Action::None.is_none());
        assert_eq!(Action::SuspendBasal { steps: 1 }.label(), "suspend_basal");
    }
}
