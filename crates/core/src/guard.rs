//! Input guarding and graceful degradation for deployed monitor sessions.
//!
//! A monitor in the control loop cannot assume its inputs are valid: CGM
//! samples drop out, transducers freeze, calibration glitches inject
//! spikes (see `cpsmon_sim::faults`). This module puts an [`InputGuard`]
//! in front of the featurizer that, per channel:
//!
//! 1. **flags** invalid samples — non-finite values, out-of-physical-range
//!    values ([`crate::detectors::InvariantRange`] semantics), implausible
//!    jumps, and frozen (stuck-at) runs;
//! 2. **imputes** flagged samples via hold-last or linear extrapolation,
//!    within a bounded *staleness budget*;
//! 3. **degrades** to the knowledge-only rule monitor once any channel's
//!    budget is exhausted (the paper's own resilience result: the
//!    rule-based monitor is the robust fallback), and
//! 4. **recovers** automatically after a configurable run of clean steps.
//!
//! Each step reports a [`HealthState`]:
//!
//! ```text
//!            any channel imputed                 budget exhausted
//!  Healthy ─────────────────────▶ Degraded ─────────────────────▶ Fallback
//!     ▲                              │                               │
//!     │        clean step            │      recovery_steps clean     │
//!     └──────────────────────────────┴───────────────────────────────┘
//! ```
//!
//! The guard's fast path is engineered for the zero-fault case: a clean
//! sample costs a handful of comparisons and three stores, and the
//! sanitized record is **bit-identical** to the input — guarded sessions
//! therefore produce exactly the verdicts unguarded ones do on clean
//! traces (property-tested in the `faults` suite).

use crate::detectors::InvariantRange;
use cpsmon_sim::trace::StepRecord;

/// Session health reported with every guarded verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// All channels clean; the ML monitor's verdict is authoritative.
    Healthy,
    /// At least one channel was imputed this step, within budget; the ML
    /// monitor still runs, on repaired inputs.
    Degraded,
    /// A staleness budget was exhausted; verdicts come from the rule-based
    /// fallback until the input stream proves clean again.
    Fallback,
}

impl HealthState {
    /// Table label (`healthy` / `degraded` / `fallback`).
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Fallback => "fallback",
        }
    }
}

/// How flagged samples are repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Imputation {
    /// Repeat the last accepted value.
    HoldLast,
    /// Extrapolate the last two accepted values linearly (clamped to the
    /// channel's physical range); falls back to hold-last with fewer than
    /// two accepted samples.
    Linear,
}

/// Validity policy for one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelPolicy {
    /// Physical range; samples outside `[lo, hi]` are flagged. `max_step`
    /// bounds the jump check when `check_jump` is set.
    pub range: InvariantRange,
    /// Whether implausible jumps (vs. the last accepted value) are
    /// flagged. Only meaningful for channels with bounded slew (CGM);
    /// actuation channels jump legitimately (boluses).
    pub check_jump: bool,
    /// Flag the channel as frozen after this many *consecutive repeats*
    /// of the same bit pattern (`None` disables — e.g. a suspended pump
    /// legitimately reports 0.0 for hours).
    pub freeze_steps: Option<usize>,
    /// Imputation value when no sample was ever accepted.
    pub neutral: f64,
}

/// Guard policy for the three monitor-observable channels plus the
/// degradation state machine's budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardPolicy {
    /// CGM glucose policy.
    pub bg: ChannelPolicy,
    /// Insulin-on-board policy.
    pub iob: ChannelPolicy,
    /// Delivered-rate policy.
    pub rate: ChannelPolicy,
    /// Consecutive imputed steps tolerated per channel before the session
    /// degrades to the rule fallback.
    pub staleness_budget: usize,
    /// Consecutive fully-clean steps required to leave `Fallback`.
    pub recovery_steps: usize,
    /// Repair strategy for flagged samples.
    pub imputation: Imputation,
}

impl GuardPolicy {
    /// The APS deployment defaults.
    ///
    /// Ranges are deliberately *looser* than the detector defaults
    /// ([`InvariantRange::cgm`] is a detector, not a validity gate): the
    /// guard must never flag values a real run can produce, or guarded
    /// sessions would diverge from unguarded ones on clean traces. CGM
    /// readings are accepted down to the sensor floor and up to 1000
    /// mg/dL with jumps up to 100 mg/dL per step; IOB and delivered rate
    /// accept anything finite in `[0, 250]` (the pump hardware clamp is
    /// 130 U/h) with no jump or freeze checks — boluses jump by design,
    /// and a suspended pump reports exactly 0.0 indefinitely.
    pub fn aps() -> Self {
        GuardPolicy {
            bg: ChannelPolicy {
                range: InvariantRange::new(0.5, 1000.0, 100.0),
                check_jump: true,
                freeze_steps: Some(6),
                neutral: 120.0,
            },
            iob: ChannelPolicy {
                range: InvariantRange::new(0.0, 250.0, f64::INFINITY),
                check_jump: false,
                freeze_steps: None,
                neutral: 0.0,
            },
            rate: ChannelPolicy {
                range: InvariantRange::new(0.0, 250.0, f64::INFINITY),
                check_jump: false,
                freeze_steps: None,
                neutral: 0.0,
            },
            staleness_budget: 6,
            recovery_steps: 6,
            imputation: Imputation::HoldLast,
        }
    }
}

impl Default for GuardPolicy {
    fn default() -> Self {
        Self::aps()
    }
}

/// Per-step guard outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardStatus {
    /// Session health after this step.
    pub health: HealthState,
    /// Which channels were imputed this step (`[bg, iob, rate]`).
    pub imputed: [bool; 3],
}

impl GuardStatus {
    /// Whether any channel was imputed this step.
    pub fn any_imputed(&self) -> bool {
        self.imputed.iter().any(|&b| b)
    }
}

/// Validity + imputation state for one channel.
#[derive(Debug, Clone, Copy)]
struct ChannelGuard {
    policy: ChannelPolicy,
    /// Last admitted value (accepted or imputed) — the jump reference and
    /// hold-last source.
    last_good: Option<f64>,
    /// The admitted value before `last_good` (linear extrapolation).
    prev_good: Option<f64>,
    /// Last *raw* sample (freeze detection and jump resynchronization).
    last_raw: Option<f64>,
    /// Consecutive raw samples bit-identical to their predecessor.
    freeze_run: usize,
    /// Consecutive imputed steps.
    stale_run: usize,
}

impl ChannelGuard {
    fn new(policy: ChannelPolicy) -> Self {
        Self {
            policy,
            last_good: None,
            prev_good: None,
            last_raw: None,
            freeze_run: 0,
            stale_run: 0,
        }
    }

    fn reset(&mut self) {
        self.last_good = None;
        self.prev_good = None;
        self.last_raw = None;
        self.freeze_run = 0;
        self.stale_run = 0;
    }

    /// Admits one raw sample: returns the sanitized value and whether it
    /// was imputed.
    fn admit(&mut self, v: f64, imputation: Imputation) -> (f64, bool) {
        let prev_raw = self.last_raw;
        let mut flagged = !v.is_finite();
        if !flagged {
            // Freeze tracking runs on the raw stream (bit equality: CGM
            // calibration noise makes natural exact repeats implausible).
            if let Some(n) = self.policy.freeze_steps {
                match prev_raw {
                    Some(p) if p.to_bits() == v.to_bits() => self.freeze_run += 1,
                    _ => self.freeze_run = 0,
                }
                flagged = self.freeze_run >= n;
            }
            self.last_raw = Some(v);
            if !flagged {
                let inv = self.policy.range;
                if v < inv.lo || v > inv.hi {
                    flagged = true;
                } else if self.policy.check_jump {
                    // Jump vs. the last *admitted* value — but resync when
                    // the raw stream is self-consistent (e.g. the first
                    // sample after a stuck-at window jumps relative to our
                    // imputed state, not relative to its raw predecessor).
                    let jumped = self.last_good.is_some_and(|g| (v - g).abs() > inv.max_step);
                    let raw_consistent = prev_raw.is_some_and(|p| (v - p).abs() <= inv.max_step);
                    flagged = jumped && !raw_consistent;
                }
            }
        }
        if !flagged {
            self.stale_run = 0;
            self.prev_good = self.last_good;
            self.last_good = Some(v);
            return (v, false);
        }
        self.stale_run += 1;
        let inv = self.policy.range;
        let imputed = match (imputation, self.last_good, self.prev_good) {
            (_, None, _) => self.policy.neutral,
            (Imputation::HoldLast, Some(l), _) | (Imputation::Linear, Some(l), None) => l,
            (Imputation::Linear, Some(l), Some(p)) => (2.0 * l - p).clamp(inv.lo, inv.hi),
        };
        self.prev_good = self.last_good;
        self.last_good = Some(imputed);
        (imputed, true)
    }
}

/// The guard in front of a monitor session: sanitizes each [`StepRecord`]
/// and runs the Healthy → Degraded → Fallback state machine.
#[derive(Debug, Clone)]
pub struct InputGuard {
    policy: GuardPolicy,
    bg: ChannelGuard,
    iob: ChannelGuard,
    rate: ChannelGuard,
    health: HealthState,
    clean_streak: usize,
}

impl InputGuard {
    /// Creates a guard with the given policy.
    pub fn new(policy: GuardPolicy) -> Self {
        Self {
            policy,
            bg: ChannelGuard::new(policy.bg),
            iob: ChannelGuard::new(policy.iob),
            rate: ChannelGuard::new(policy.rate),
            health: HealthState::Healthy,
            clean_streak: 0,
        }
    }

    /// The policy the guard was built with.
    pub fn policy(&self) -> &GuardPolicy {
        &self.policy
    }

    /// Current health (as of the last sanitized step).
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// Sanitizes one record: every monitor-observable channel is admitted
    /// or imputed, and the health state machine advances. Channels the
    /// monitor never featurizes (`bg_true`, `commanded_rate`, `carbs`)
    /// pass through untouched.
    ///
    /// For a fully clean record the output is bit-identical to the input.
    pub fn sanitize(&mut self, rec: &StepRecord) -> (StepRecord, GuardStatus) {
        let imp = self.policy.imputation;
        let (bg, bg_i) = self.bg.admit(rec.bg_sensor, imp);
        let (iob, iob_i) = self.iob.admit(rec.iob, imp);
        let (rate, rate_i) = self.rate.admit(rec.delivered_rate, imp);
        let any = bg_i || iob_i || rate_i;
        if any {
            self.clean_streak = 0;
        } else {
            self.clean_streak += 1;
        }
        let max_stale = self
            .bg
            .stale_run
            .max(self.iob.stale_run)
            .max(self.rate.stale_run);
        self.health = if max_stale > self.policy.staleness_budget {
            HealthState::Fallback
        } else if self.health == HealthState::Fallback
            && self.clean_streak < self.policy.recovery_steps
        {
            // Budget refills only after a sustained clean run.
            HealthState::Fallback
        } else if any {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        };
        let mut out = *rec;
        out.bg_sensor = bg;
        out.iob = iob;
        out.delivered_rate = rate;
        (
            out,
            GuardStatus {
                health: self.health,
                imputed: [bg_i, iob_i, rate_i],
            },
        )
    }

    /// Forgets all channel state and re-arms as `Healthy` (e.g. at a
    /// patient hand-over).
    pub fn reset(&mut self) {
        self.bg.reset();
        self.iob.reset();
        self.rate.reset();
        self.health = HealthState::Healthy;
        self.clean_streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bg: f64, iob: f64, rate: f64) -> StepRecord {
        StepRecord {
            bg_true: bg,
            bg_sensor: bg,
            iob,
            commanded_rate: rate,
            delivered_rate: rate,
            carbs: 0.0,
        }
    }

    /// A clean, slightly wiggling record stream (unique bg bits per step).
    fn clean(step: usize) -> StepRecord {
        rec(120.0 + (step as f64) * 0.25, 1.0, 1.5)
    }

    #[test]
    fn clean_stream_passes_bit_identical() {
        let mut g = InputGuard::new(GuardPolicy::aps());
        for t in 0..50 {
            let r = clean(t);
            let (out, status) = g.sanitize(&r);
            assert_eq!(out, r, "clean step {t} must pass through unmodified");
            assert_eq!(status.health, HealthState::Healthy);
            assert!(!status.any_imputed());
        }
    }

    #[test]
    fn nan_is_imputed_hold_last() {
        let mut g = InputGuard::new(GuardPolicy::aps());
        let (_, _) = g.sanitize(&clean(0));
        let mut bad = clean(1);
        bad.bg_sensor = f64::NAN;
        let (out, status) = g.sanitize(&bad);
        assert_eq!(out.bg_sensor, clean(0).bg_sensor);
        assert_eq!(status.health, HealthState::Degraded);
        assert_eq!(status.imputed, [true, false, false]);
    }

    #[test]
    fn neutral_imputation_without_history() {
        let mut g = InputGuard::new(GuardPolicy::aps());
        let mut bad = clean(0);
        bad.bg_sensor = f64::INFINITY;
        let (out, status) = g.sanitize(&bad);
        assert_eq!(out.bg_sensor, 120.0, "neutral value with no history");
        assert!(status.any_imputed());
    }

    #[test]
    fn linear_imputation_extrapolates() {
        let mut policy = GuardPolicy::aps();
        policy.imputation = Imputation::Linear;
        let mut g = InputGuard::new(policy);
        g.sanitize(&rec(100.0, 1.0, 1.0));
        g.sanitize(&rec(110.0, 1.0, 1.0));
        let mut bad = rec(0.0, 1.0, 1.0);
        bad.bg_sensor = f64::NAN;
        let (out, _) = g.sanitize(&bad);
        assert_eq!(out.bg_sensor, 120.0, "linear continuation of 100, 110");
        let (out2, _) = g.sanitize(&bad);
        assert_eq!(out2.bg_sensor, 130.0, "slope persists across imputed steps");
    }

    #[test]
    fn out_of_range_and_jump_are_imputed() {
        let mut g = InputGuard::new(GuardPolicy::aps());
        g.sanitize(&rec(150.0, 1.0, 1.0));
        let (out, s) = g.sanitize(&rec(1500.0, 1.0, 1.0));
        assert_eq!(out.bg_sensor, 150.0);
        assert!(s.any_imputed());
        // +500 in one step: implausible jump even though in range.
        let (out2, s2) = g.sanitize(&rec(650.0, 1.0, 1.0));
        assert_eq!(out2.bg_sensor, 150.0);
        assert!(s2.any_imputed());
    }

    #[test]
    fn jump_resyncs_on_consistent_raw_stream() {
        let mut g = InputGuard::new(GuardPolicy::aps());
        g.sanitize(&rec(150.0, 1.0, 1.0));
        // A spike is rejected…
        let (_, s) = g.sanitize(&rec(400.0, 1.0, 1.0));
        assert!(s.any_imputed());
        // …and a second sample near the spike is raw-consistent with it, so
        // the guard resynchronizes instead of imputing forever.
        let (out, s2) = g.sanitize(&rec(395.0, 1.0, 1.0));
        assert!(!s2.any_imputed());
        assert_eq!(out.bg_sensor, 395.0);
    }

    #[test]
    fn freeze_detection_flags_stuck_bg() {
        let mut g = InputGuard::new(GuardPolicy::aps());
        let frozen = rec(140.0, 1.0, 1.0);
        let mut flagged_at = None;
        for t in 0..12 {
            let (_, s) = g.sanitize(&frozen);
            if s.any_imputed() && flagged_at.is_none() {
                flagged_at = Some(t);
            }
        }
        assert_eq!(flagged_at, Some(6), "seventh identical sample is flagged");
    }

    #[test]
    fn rate_may_freeze_legitimately() {
        // A suspended pump reports exactly 0.0 indefinitely: never flagged.
        let mut g = InputGuard::new(GuardPolicy::aps());
        for t in 0..60 {
            let (_, s) = g.sanitize(&rec(120.0 + t as f64 * 0.1, 0.0, 0.0));
            assert!(!s.any_imputed(), "step {t}");
        }
    }

    #[test]
    fn budget_exhaustion_reaches_fallback_then_recovers() {
        let p = GuardPolicy::aps();
        let mut g = InputGuard::new(p);
        g.sanitize(&clean(0));
        let mut bad = clean(1);
        bad.bg_sensor = f64::NAN;
        let mut states = Vec::new();
        for _ in 0..(p.staleness_budget + 2) {
            let (_, s) = g.sanitize(&bad);
            states.push(s.health);
        }
        assert!(states[..p.staleness_budget]
            .iter()
            .all(|&h| h == HealthState::Degraded));
        assert_eq!(*states.last().unwrap(), HealthState::Fallback);
        // Clean steps: stays Fallback during the probation window, then
        // recovers.
        for t in 0..p.recovery_steps - 1 {
            let (_, s) = g.sanitize(&clean(100 + t));
            assert_eq!(s.health, HealthState::Fallback, "probation step {t}");
        }
        let (_, s) = g.sanitize(&clean(200));
        assert_eq!(s.health, HealthState::Healthy);
        assert_eq!(g.health(), HealthState::Healthy);
    }

    #[test]
    fn reset_rearms_healthy() {
        let mut g = InputGuard::new(GuardPolicy::aps());
        let mut bad = clean(0);
        bad.bg_sensor = f64::NAN;
        for _ in 0..20 {
            g.sanitize(&bad);
        }
        assert_eq!(g.health(), HealthState::Fallback);
        g.reset();
        assert_eq!(g.health(), HealthState::Healthy);
        let (_, s) = g.sanitize(&clean(5));
        assert_eq!(s.health, HealthState::Healthy);
    }
}
