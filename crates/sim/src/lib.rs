//! # cpsmon-sim — closed-loop Artificial Pancreas System simulators
//!
//! The paper evaluates its monitors on traces from two closed-loop APS
//! simulation environments: the Glucosym simulator paired with the OpenAPS
//! controller, and the UVA-Padova T1DS2013 simulator paired with a
//! Basal-Bolus controller, each with 20 diabetic patient profiles. Neither
//! simulator is available as reusable open source (Glucosym is an archived
//! JS service; UVA-Padova is licensed MATLAB), so this crate implements
//! both from scratch (see `DESIGN.md` for the substitution argument):
//!
//! - [`glucosym::GlucosymPatient`] — an extended Bergman minimal-model
//!   glucose–insulin ODE.
//! - [`t1ds::T1dsPatient`] — a reduced Dalla-Man-style multi-compartment
//!   model (the physiology family behind the UVA-Padova simulator).
//! - [`openaps::OpenApsController`] / [`basal_bolus::BasalBolusController`]
//!   — the two control algorithms.
//! - [`sensor::Cgm`] — a continuous glucose monitor with calibration noise.
//! - [`pump::InsulinPump`] + [`faults::PumpFault`] — actuation with
//!   accidental/malicious fault injection (overdose, underdose, stuck rate,
//!   suspension).
//! - [`faults::FaultPlan`] — seeded *sensor-side* fault injection (dropout,
//!   stuck-at, spikes, drift, bias, quantization, delay) for robustness
//!   testing of monitors.
//! - [`engine::ClosedLoop`] — wires everything together and records a
//!   [`trace::SimTrace`].
//! - [`cohort::CohortEngine`] — a structure-of-arrays engine that steps a
//!   whole population of closed loops together, bit-identical to running
//!   each member through `ClosedLoop` alone; [`cohort::Cohort`] samples
//!   such populations.
//! - [`campaign::CampaignConfig`] — seeded multi-patient simulation
//!   campaigns producing labeled trace sets, run on the cohort engine;
//!   `CampaignConfig::member` rebuilds any one member as a `ClosedLoop`.
//!
//! Time base: one simulation step is **5 minutes** (matching the paper's
//! "each simulation step equals 5 minutes"); the ODE integrators internally
//! subsample at 1 minute.
//!
//! ## Example
//!
//! ```
//! use cpsmon_sim::{CampaignConfig, SimulatorKind};
//!
//! let traces = CampaignConfig::new(SimulatorKind::Glucosym)
//!     .patients(1)
//!     .runs_per_patient(2)
//!     .steps(60)
//!     .seed(1)
//!     .run();
//! assert_eq!(traces.len(), 2);
//! assert!(traces[0].records().len() == 60);
//! ```

#![warn(missing_docs)]

pub mod basal_bolus;
pub mod campaign;
pub mod cohort;
pub mod controller;
pub mod engine;
pub mod faults;
pub mod glucosym;
pub mod hazard;
pub mod meal;
pub mod openaps;
pub mod patient;
pub mod pump;
pub mod sensor;
pub mod t1ds;
pub mod trace;

pub use campaign::{CampaignConfig, MemberLoop, SimulatorKind};
pub use cohort::{
    available_backends, Cohort, CohortEngine, CohortMember, CohortObserver, CohortPatient,
};
pub use controller::{Controller, Observation};
pub use engine::{ClosedLoop, StepObserver};
pub use faults::{
    ChannelFault, FaultInjector, FaultModel, FaultPlan, PumpFault, PumpFaultKind, SensorChannel,
};
pub use hazard::{HazardConfig, HazardEpisode};
pub use patient::{PatientModel, TherapyProfile};
pub use pump::{InsulinPump, PumpCommand};
pub use sensor::{Cgm, CgmFault, CgmFaultKind};
pub use trace::{SimTrace, StepRecord};
