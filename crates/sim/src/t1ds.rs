//! T1DS2013-style patient: a reduced UVA-Padova (Dalla Man) model.
//!
//! The UVA/Padova Type 1 Diabetes Simulator is licensed MATLAB software; we
//! substitute a from-scratch implementation of the published Dalla Man
//! model family it is built on (Dalla Man et al., *IEEE TBME* 2007; 2014
//! new-features update), reduced to the compartments that matter for
//! closed-loop control:
//!
//! - two-compartment plasma/tissue glucose kinetics with endogenous
//!   glucose production, insulin-independent utilization, renal excretion,
//!   and Michaelis–Menten insulin-dependent utilization;
//! - two-compartment subcutaneous insulin absorption feeding
//!   liver/plasma insulin kinetics, remote insulin action `X`, and the
//!   delayed insulin signal `Id` attenuating EGP;
//! - three-compartment oral glucose absorption (stomach solid/liquid,
//!   gut).
//!
//! Population parameters follow the published adult averages with
//! per-patient spread, except that the split between insulin-independent
//! utilization (`Vm0`) and insulin-driven effects (`Vmx`, `kp3`) is
//! re-tuned: dropping the compartments of the full model makes the
//! published averages behave like a non-diabetic (glucose balances with
//! almost no insulin), so we shift utilization onto the insulin-dependent
//! terms until the reduced model exhibits type-1 behaviour — insulin
//! suspension drifts toward severe hyperglycemia, overdose causes
//! hypoglycemia. The basal rate of each profile is then *calibrated* by
//! bisection so the closed-loop experiments start from a clinically
//! sensible steady state (see [`T1dsPatient::calibrated`]).
//!
//! The structural difference from [`crate::glucosym`] (two glucose pools,
//! subcutaneous insulin delays, slower meal path) yields a visibly
//! different sensor-data distribution — the property the paper attributes
//! its per-simulator result differences to.

use crate::patient::{IobTracker, PatientModel, TherapyProfile, STEP_MINUTES, SUBSTEPS};
use cpsmon_nn::rng::SmallRng;

/// Parameters of one T1DS-style virtual patient (units follow Dalla Man:
/// glucose masses in mg/kg, insulin in pmol/kg, rates per minute).
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // field names follow the published model symbols
pub struct T1dsParams {
    pub bw: f64,
    pub vg: f64,
    pub k1: f64,
    pub k2: f64,
    pub kp1: f64,
    pub kp2: f64,
    pub kp3: f64,
    pub ki: f64,
    pub fsnc: f64,
    pub vm0: f64,
    pub vmx: f64,
    pub km0: f64,
    pub p2u: f64,
    pub m1: f64,
    pub m2: f64,
    pub m3: f64,
    pub m4: f64,
    pub kd: f64,
    pub ka1: f64,
    pub ka2: f64,
    pub vi: f64,
    pub ke1: f64,
    pub ke2: f64,
    pub kgri: f64,
    pub kempt: f64,
    pub kabs: f64,
    pub f: f64,
    pub iob_tau: f64,
    /// Target steady-state glucose used to calibrate the basal rate.
    pub gb: f64,
}

impl T1dsParams {
    /// Samples patient `id` around the published adult-average parameters.
    pub fn profile(id: usize, seed: u64) -> (Self, TherapyProfile) {
        let mut rng = SmallRng::new(seed ^ 0x7431_6473_3230_3133).fork(id as u64);
        fn v(rng: &mut SmallRng, center: f64, spread: f64) -> f64 {
            center * rng.uniform_range(1.0 - spread, 1.0 + spread)
        }
        let bw = rng.uniform_range(55.0, 95.0);
        let params = Self {
            bw,
            vg: v(&mut rng, 1.88, 0.10),
            k1: v(&mut rng, 0.065, 0.15),
            k2: v(&mut rng, 0.079, 0.15),
            kp1: v(&mut rng, 2.90, 0.10),
            kp2: v(&mut rng, 0.0021, 0.15),
            kp3: v(&mut rng, 0.012, 0.15),
            ki: v(&mut rng, 0.0079, 0.15),
            fsnc: 1.0,
            vm0: v(&mut rng, 0.80, 0.15),
            vmx: v(&mut rng, 0.060, 0.25),
            km0: v(&mut rng, 225.59, 0.10),
            p2u: v(&mut rng, 0.0331, 0.15),
            m1: v(&mut rng, 0.190, 0.10),
            m2: v(&mut rng, 0.484, 0.10),
            m3: v(&mut rng, 0.277, 0.10),
            m4: v(&mut rng, 0.194, 0.10),
            kd: v(&mut rng, 0.0164, 0.15),
            ka1: v(&mut rng, 0.0018, 0.15),
            ka2: v(&mut rng, 0.0182, 0.15),
            vi: v(&mut rng, 0.05, 0.10),
            ke1: 0.0005,
            ke2: 339.0,
            kgri: v(&mut rng, 0.0558, 0.15),
            kempt: v(&mut rng, 0.035, 0.20),
            kabs: v(&mut rng, 0.057, 0.20),
            f: 0.90,
            iob_tau: rng.uniform_range(100.0, 140.0),
            gb: rng.uniform_range(110.0, 145.0),
        };
        let therapy = TherapyProfile::sample(&mut rng);
        (params, therapy)
    }
}

/// State of a T1DS-style patient.
#[derive(Debug, Clone, PartialEq)]
pub struct T1dsPatient {
    params: T1dsParams,
    therapy: TherapyProfile,
    /// Basal plasma insulin concentration (pmol/L), fixed at calibration.
    ib: f64,
    gp: f64,
    gt: f64,
    ip: f64,
    il: f64,
    isc1: f64,
    isc2: f64,
    i1: f64,
    id: f64,
    x: f64,
    qsto1: f64,
    qsto2: f64,
    qgut: f64,
    iob: IobTracker,
}

impl T1dsPatient {
    /// Creates a patient with the given basal rate already reflected in the
    /// insulin-subsystem steady state (but glucose *not* yet equilibrated —
    /// use [`calibrated`](Self::calibrated) or
    /// [`PatientModel::warm_up`]).
    pub fn new(params: T1dsParams, therapy: TherapyProfile) -> Self {
        // Subcutaneous + plasma insulin steady state under the basal rate.
        let iir = therapy.basal_rate * 6000.0 / 60.0 / params.bw; // pmol/kg/min
        let isc1 = iir / (params.kd + params.ka1);
        let isc2 = params.kd * isc1 / params.ka2;
        let rai = params.ka1 * isc1 + params.ka2 * isc2;
        let il_per_ip = params.m2 / (params.m1 + params.m3);
        let ip = rai / (params.m2 + params.m4 - params.m1 * il_per_ip);
        let il = il_per_ip * ip;
        let ib = ip / params.vi;
        let gp = params.gb * params.vg;
        Self {
            params,
            therapy,
            ib,
            gp,
            gt: gp * 0.75,
            ip,
            il,
            isc1,
            isc2,
            i1: ib,
            id: ib,
            x: 0.0,
            qsto1: 0.0,
            qsto2: 0.0,
            qgut: 0.0,
            iob: IobTracker::new(params.iob_tau),
        }
    }

    /// Builds patient `id` of the cohort with its basal rate calibrated by
    /// bisection so that the open-loop steady state lands near the
    /// profile's `gb`, then warms the state up to that equilibrium.
    pub fn calibrated(id: usize, seed: u64) -> Self {
        let (params, therapy) = T1dsParams::profile(id, seed);
        Self::calibrated_from(params, therapy)
    }

    /// [`calibrated`](Self::calibrated) for explicit parameters: bisects
    /// the basal rate (`therapy.basal_rate` is overwritten) until the
    /// 24-hour open-loop steady state lands near `params.gb`, then warms
    /// up to that equilibrium. The bisection runs as a one-member batch
    /// of the cohort's calibrator, which [`crate::Cohort::sample`] runs
    /// over a whole population at once.
    pub fn calibrated_from(params: T1dsParams, therapy: TherapyProfile) -> Self {
        crate::cohort::calibrate_t1ds(&[(params, therapy)], cpsmon_nn::simd::backend())
            .pop()
            .expect("one member in, one patient out")
    }

    /// The model parameters.
    pub fn params(&self) -> &T1dsParams {
        &self.params
    }

    /// The dynamic state in packing order
    /// `[gp, gt, ip, il, isc1, isc2, i1, id, x, qsto1, qsto2, qgut]` —
    /// read by the cohort engine when packing a patient into
    /// structure-of-arrays buffers.
    pub(crate) fn state(&self) -> [f64; 12] {
        [
            self.gp, self.gt, self.ip, self.il, self.isc1, self.isc2, self.i1, self.id, self.x,
            self.qsto1, self.qsto2, self.qgut,
        ]
    }

    /// Overwrites the dynamic state (packing order of
    /// [`state`](Self::state)) and the insulin on board: how the batched
    /// calibrator hands a warmed-up SoA lane back as a patient.
    pub(crate) fn set_state(&mut self, state: [f64; 12], iob: f64) {
        [
            self.gp, self.gt, self.ip, self.il, self.isc1, self.isc2, self.i1, self.id, self.x,
            self.qsto1, self.qsto2, self.qgut,
        ] = state;
        self.iob.set_value(iob);
    }

    /// Basal plasma insulin concentration (pmol/L), fixed at calibration.
    pub(crate) fn ib(&self) -> f64 {
        self.ib
    }

    /// The internal IOB tracker (value + decay), for SoA packing.
    pub(crate) fn iob_tracker(&self) -> &IobTracker {
        &self.iob
    }

    fn advance_minute(&mut self, iir: f64, delivered_u: f64) {
        let p = &self.params;
        // Oral absorption.
        let dqsto1 = -p.kgri * self.qsto1;
        let dqsto2 = p.kgri * self.qsto1 - p.kempt * self.qsto2;
        let dqgut = p.kempt * self.qsto2 - p.kabs * self.qgut;
        let ra = p.f * p.kabs * self.qgut / p.bw;
        // Insulin subsystem.
        let disc1 = -(p.kd + p.ka1) * self.isc1 + iir;
        let disc2 = p.kd * self.isc1 - p.ka2 * self.isc2;
        let rai = p.ka1 * self.isc1 + p.ka2 * self.isc2;
        let dil = -(p.m1 + p.m3) * self.il + p.m2 * self.ip;
        let dip = -(p.m2 + p.m4) * self.ip + p.m1 * self.il + rai;
        let i_conc = self.ip / p.vi;
        let di1 = -p.ki * (self.i1 - i_conc);
        let did = -p.ki * (self.id - self.i1);
        let dx = -p.p2u * self.x + p.p2u * (i_conc - self.ib);
        // Glucose subsystem.
        let egp = (p.kp1 - p.kp2 * self.gp - p.kp3 * self.id).max(0.0);
        let uii = p.fsnc;
        let e = if self.gp > p.ke2 {
            p.ke1 * (self.gp - p.ke2)
        } else {
            0.0
        };
        let vm = (p.vm0 + p.vmx * self.x).max(0.0);
        let uid = vm * self.gt / (p.km0 + self.gt);
        let dgp = egp + ra - uii - e - p.k1 * self.gp + p.k2 * self.gt;
        let dgt = -uid + p.k1 * self.gp - p.k2 * self.gt;
        // Euler step (dt = 1 min).
        self.qsto1 = (self.qsto1 + dqsto1).max(0.0);
        self.qsto2 = (self.qsto2 + dqsto2).max(0.0);
        self.qgut = (self.qgut + dqgut).max(0.0);
        self.isc1 = (self.isc1 + disc1).max(0.0);
        self.isc2 = (self.isc2 + disc2).max(0.0);
        self.il = (self.il + dil).max(0.0);
        self.ip = (self.ip + dip).max(0.0);
        self.i1 += di1;
        self.id += did;
        self.x += dx;
        // Floor plasma glucose at ~15 mg/dL (counter-regulation keeps real
        // patients above this even in severe hypoglycemia).
        self.gp = (self.gp + dgp).max(15.0 * p.vg);
        self.gt = (self.gt + dgt).max(1.0);
        self.iob.advance_minute(delivered_u);
    }
}

impl PatientModel for T1dsPatient {
    fn bg(&self) -> f64 {
        self.gp / self.params.vg
    }

    fn iob(&self) -> f64 {
        self.iob.value()
    }

    fn step(&mut self, insulin_rate: f64, carbs_g: f64) {
        let rate = insulin_rate.max(0.0);
        let iir = rate * 6000.0 / 60.0 / self.params.bw; // pmol/kg/min
        let delivered_per_min = rate / 60.0;
        self.qsto1 += carbs_g * 1000.0; // stomach compartments hold absolute mg
        debug_assert_eq!(SUBSTEPS as f64 * 1.0, STEP_MINUTES);
        for _ in 0..SUBSTEPS {
            self.advance_minute(iir, delivered_per_min);
        }
    }

    fn therapy(&self) -> &TherapyProfile {
        &self.therapy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patient() -> T1dsPatient {
        T1dsPatient::calibrated(0, 42)
    }

    #[test]
    fn calibrated_patient_starts_near_target() {
        let p = patient();
        let gb = p.params().gb;
        assert!(
            (p.bg() - gb).abs() < 10.0,
            "calibration missed: bg {} vs gb {gb}",
            p.bg()
        );
    }

    #[test]
    fn basal_holds_equilibrium() {
        let mut p = patient();
        let g0 = p.bg();
        let basal = p.therapy().basal_rate;
        for _ in 0..288 {
            p.step(basal, 0.0);
        }
        assert!((p.bg() - g0).abs() < 5.0, "drifted from {g0} to {}", p.bg());
    }

    #[test]
    fn meal_raises_glucose() {
        let mut p = patient();
        let basal = p.therapy().basal_rate;
        let g0 = p.bg();
        p.step(basal, 60.0);
        let mut peak = g0;
        for _ in 0..36 {
            p.step(basal, 0.0);
            peak = peak.max(p.bg());
        }
        assert!(
            peak > g0 + 25.0,
            "meal only moved BG from {g0} to peak {peak}"
        );
    }

    #[test]
    fn extra_insulin_lowers_glucose() {
        let mut a = patient();
        let mut b = patient();
        let basal = a.therapy().basal_rate;
        for _ in 0..48 {
            a.step(basal, 0.0);
            b.step(basal + 2.0, 0.0);
        }
        assert!(
            b.bg() < a.bg() - 15.0,
            "insulin had weak effect: {} vs {}",
            a.bg(),
            b.bg()
        );
    }

    #[test]
    fn suspension_raises_glucose() {
        let mut a = patient();
        let mut b = patient();
        let basal = a.therapy().basal_rate;
        for _ in 0..48 {
            a.step(basal, 0.0);
            b.step(0.0, 0.0);
        }
        assert!(
            b.bg() > a.bg() + 10.0,
            "suspension had weak effect: {} vs {}",
            a.bg(),
            b.bg()
        );
    }

    #[test]
    fn profiles_are_deterministic_and_distinct() {
        let (pa, _) = T1dsParams::profile(2, 9);
        let (pb, _) = T1dsParams::profile(2, 9);
        assert_eq!(pa, pb);
        let (pc, _) = T1dsParams::profile(3, 9);
        assert_ne!(pa, pc);
    }

    #[test]
    fn glucose_floor_respected_under_overdose() {
        let mut p = patient();
        for _ in 0..288 {
            p.step(15.0, 0.0);
        }
        assert!(p.bg() >= 10.0);
        assert!(
            p.bg() < 70.0,
            "overdose should produce hypoglycemia, bg={}",
            p.bg()
        );
    }

    #[test]
    fn distribution_differs_from_glucosym() {
        // Same nominal scenario, different model family ⇒ different meal
        // response shape. Peak times should differ noticeably.
        let mut t1 = patient();
        let mut gl = crate::glucosym::GlucosymPatient::from_profile(0, 42);
        let (bt1, bgl) = (t1.therapy().basal_rate, gl.therapy().basal_rate);
        t1.step(bt1, 50.0);
        gl.step(bgl, 50.0);
        let mut peak_t1 = (0, 0.0f64);
        let mut peak_gl = (0, 0.0f64);
        for s in 1..48 {
            t1.step(bt1, 0.0);
            gl.step(bgl, 0.0);
            if t1.bg() > peak_t1.1 {
                peak_t1 = (s, t1.bg());
            }
            if gl.bg() > peak_gl.1 {
                peak_gl = (s, gl.bg());
            }
        }
        assert_ne!(peak_t1.0, peak_gl.0, "identical peak step is suspicious");
    }
}
