//! # cpsmon — robustness testing of data & knowledge driven anomaly detection in CPS
//!
//! `cpsmon` is a from-scratch Rust reproduction of *"Robustness Testing of
//! Data and Knowledge Driven Anomaly Detection in Cyber-Physical Systems"*
//! (Zhou, Kouzel, Alemzadeh — DSN 2022). It provides everything needed to
//! train ML-based safety monitors for closed-loop Artificial Pancreas
//! Systems (APS), integrate control-theoretic domain knowledge through a
//! semantic loss function, and stress the resulting monitors with accidental
//! (Gaussian) and adversarial (FGSM, white- and black-box) perturbations.
//!
//! This umbrella crate re-exports the five sub-crates:
//!
//! - [`nn`] — a small, deterministic neural-network library (dense + LSTM
//!   layers, Adam, softmax/cross-entropy, exact input gradients for FGSM).
//! - [`stl`] — the paper's Table I context-dependent safety rules, written
//!   once as a table, and a rule-based monitor.
//! - [`sim`] — two closed-loop APS simulators (Glucosym-like minimal model
//!   and a reduced UVA-Padova-style model), two controllers (OpenAPS-like
//!   and Basal-Bolus), sensor/pump models, and fault injection.
//! - [`core`] — the safety-monitor layer: feature pipeline, MLP/LSTM
//!   monitors, semantic-loss training, tolerance-window metrics, and the
//!   robustness-error metric.
//! - [`attack`] — the perturbation toolkit: Gaussian noise, white-box FGSM,
//!   and black-box substitute-model attacks.
//! - [`bench`](mod@bench) — the experiment registry behind the `cpsmon` CLI
//!   (`cargo run --release --bin cpsmon -- run table3`): one named entry
//!   per paper table/figure, a shared cache-aware experiment context, and
//!   the monitor-bundle cache.
//! - [`serve`] — the monitor-fleet daemon (`cpsmon serve`): sharded
//!   session tables over a binary TCP protocol, closed-loop overload
//!   control with rule-fallback load shedding, and hot bundle reloads.
//!
//! ## Quickstart
//!
//! ```
//! use cpsmon::core::{DatasetBuilder, MonitorKind, TrainConfig};
//! use cpsmon::sim::{CampaignConfig, SimulatorKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Simulate a tiny closed-loop campaign and build a labeled dataset.
//! let campaign = CampaignConfig::new(SimulatorKind::Glucosym)
//!     .patients(2)
//!     .runs_per_patient(2)
//!     .steps(120)
//!     .seed(7);
//! let traces = campaign.run();
//! let dataset = DatasetBuilder::new().build(&traces)?;
//!
//! // Train a small baseline MLP monitor.
//! let config = TrainConfig::quick_test();
//! let monitor = MonitorKind::Mlp.train(&dataset, &config)?;
//! let report = monitor.evaluate(&dataset.test);
//! assert!(report.accuracy() > 0.0);
//! # Ok(())
//! # }
//! ```

pub use cpsmon_attack as attack;
pub use cpsmon_bench as bench;
pub use cpsmon_core as core;
pub use cpsmon_nn as nn;
pub use cpsmon_serve as serve;
pub use cpsmon_sim as sim;
pub use cpsmon_stl as stl;
