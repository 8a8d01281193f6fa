//! The patient-model abstraction and per-patient therapy settings.

use cpsmon_nn::rng::SmallRng;

/// Minutes per simulation step (the paper's sampling period).
pub const STEP_MINUTES: f64 = 5.0;

/// Internal ODE sub-steps per simulation step (1-minute Euler grid).
pub const SUBSTEPS: usize = 5;

/// A virtual diabetic patient: a glucose–insulin dynamic model advanced in
/// 5-minute steps under insulin infusion and carbohydrate intake.
///
/// Implementations must be deterministic: identical construction and input
/// sequences produce identical trajectories.
pub trait PatientModel {
    /// Current plasma blood glucose (mg/dL) — the ground-truth value used
    /// for hazard detection (the CGM adds noise on top).
    fn bg(&self) -> f64;

    /// Current insulin on board (U): insulin delivered but not yet acted.
    fn iob(&self) -> f64;

    /// Advances the model by one 5-minute step.
    ///
    /// `insulin_rate` is the pump rate in U/h held during the step;
    /// `carbs_g` is the carbohydrate intake (grams) ingested at the
    /// beginning of the step.
    fn step(&mut self, insulin_rate: f64, carbs_g: f64);

    /// The patient's therapy settings, used by the controllers.
    fn therapy(&self) -> &TherapyProfile;

    /// Runs the model to (approximate) steady state under basal insulin
    /// and no meals. Call before starting a scenario so that different
    /// initial conditions do not leak into the evaluation.
    fn warm_up(&mut self, steps: usize) {
        let basal = self.therapy().basal_rate;
        for _ in 0..steps {
            self.step(basal, 0.0);
        }
    }
}

/// Clinician-style therapy parameters attached to each patient profile.
///
/// These drive the controllers: `basal_rate` is the open-loop maintenance
/// rate, `isf` the insulin sensitivity factor (expected BG drop in mg/dL
/// per unit of insulin), and `carb_ratio` the grams of carbohydrate covered
/// by one unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TherapyProfile {
    /// Basal insulin rate (U/h).
    pub basal_rate: f64,
    /// Insulin sensitivity factor (mg/dL per U).
    pub isf: f64,
    /// Carbohydrate ratio (g per U).
    pub carb_ratio: f64,
    /// Controller target BG (mg/dL).
    pub target_bg: f64,
}

impl TherapyProfile {
    /// Samples a plausible therapy profile.
    ///
    /// Ranges follow typical adult type-1 regimens: basal 0.6–1.6 U/h,
    /// ISF 35–65 mg/dL/U, carb ratio 8–15 g/U. The target is fixed at
    /// 120 mg/dL, the `BGT` used by the Table I rules.
    pub fn sample(rng: &mut SmallRng) -> Self {
        Self {
            basal_rate: rng.uniform_range(0.6, 1.6),
            isf: rng.uniform_range(35.0, 65.0),
            carb_ratio: rng.uniform_range(8.0, 15.0),
            target_bg: 120.0,
        }
    }
}

/// Simple exponential insulin-on-board tracker shared by both patient
/// models.
///
/// Real pumps estimate IOB from delivery history with an insulin-action
/// curve; a first-order decay with a ~2-hour time constant is the standard
/// lightweight approximation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IobTracker {
    iob: f64,
    decay_per_min: f64,
}

impl IobTracker {
    /// Creates a tracker with the given action time constant in minutes.
    ///
    /// # Panics
    ///
    /// Panics if `tau_minutes` is not positive.
    pub fn new(tau_minutes: f64) -> Self {
        assert!(tau_minutes > 0.0, "IOB time constant must be positive");
        Self {
            iob: 0.0,
            decay_per_min: 1.0 / tau_minutes,
        }
    }

    /// Current insulin on board (U).
    pub fn value(&self) -> f64 {
        self.iob
    }

    /// The per-minute decay fraction (`1 / tau_minutes`). The cohort
    /// engine reads this to mirror [`advance_minute`](Self::advance_minute)
    /// across structure-of-arrays lanes.
    pub fn decay_per_min(&self) -> f64 {
        self.decay_per_min
    }

    /// Overwrites the current insulin on board (U); the batched T1DS
    /// calibrator hands a warmed-up lane's IOB back through this.
    pub(crate) fn set_value(&mut self, iob: f64) {
        self.iob = iob;
    }

    /// Advances one minute with `delivered` units infused during it.
    pub fn advance_minute(&mut self, delivered: f64) {
        self.iob += delivered;
        self.iob -= self.iob * self.decay_per_min;
        if self.iob < 0.0 {
            self.iob = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn therapy_sample_in_ranges() {
        let mut rng = SmallRng::new(3);
        for _ in 0..100 {
            let t = TherapyProfile::sample(&mut rng);
            assert!((0.6..=1.6).contains(&t.basal_rate));
            assert!((35.0..=65.0).contains(&t.isf));
            assert!((8.0..=15.0).contains(&t.carb_ratio));
            assert_eq!(t.target_bg, 120.0);
        }
    }

    #[test]
    fn iob_decays_to_zero() {
        let mut iob = IobTracker::new(120.0);
        iob.advance_minute(2.0);
        assert!(iob.value() > 1.9);
        for _ in 0..1000 {
            iob.advance_minute(0.0);
        }
        assert!(iob.value() < 1e-3);
    }

    #[test]
    fn iob_steady_state_under_constant_rate() {
        // At constant delivery d per minute, steady state is d·tau.
        let mut iob = IobTracker::new(100.0);
        for _ in 0..5000 {
            iob.advance_minute(0.01);
        }
        assert!((iob.value() - 1.0).abs() < 0.02, "iob was {}", iob.value());
    }

    #[test]
    fn iob_never_negative() {
        let mut iob = IobTracker::new(60.0);
        for _ in 0..10 {
            iob.advance_minute(0.0);
        }
        assert!(iob.value() >= 0.0);
    }
}
