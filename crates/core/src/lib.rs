//! # cpsmon-core — ML safety monitors with knowledge integration
//!
//! This crate is the paper's primary contribution layer. It turns raw
//! closed-loop traces from [`cpsmon_sim`] into windowed, labeled datasets;
//! trains the four ML monitors of the paper (MLP, LSTM, and their "Custom"
//! variants with the Eq. 2 semantic loss); wraps the knowledge-only
//! rule-based monitor from [`cpsmon_stl`]; and computes the paper's two
//! metric families:
//!
//! - **prediction accuracy** with the *sample level with tolerance window*
//!   confusion matrix of Table II ([`metrics`]);
//! - **prediction robustness error** (Eq. 5), the fraction of samples whose
//!   predicted class flips under an input perturbation ([`robustness`]).
//!
//! ## Pipeline
//!
//! ```
//! use cpsmon_core::{DatasetBuilder, MonitorKind, TrainConfig};
//! use cpsmon_sim::{CampaignConfig, SimulatorKind};
//!
//! # fn main() -> Result<(), cpsmon_core::CoreError> {
//! let traces = CampaignConfig::new(SimulatorKind::Glucosym)
//!     .patients(2)
//!     .runs_per_patient(2)
//!     .steps(96)
//!     .seed(9)
//!     .run();
//! let dataset = DatasetBuilder::new().build(&traces)?;
//! let monitor = MonitorKind::Mlp.train(&dataset, &TrainConfig::quick_test())?;
//! let report = monitor.evaluate(&dataset.test);
//! println!("F1 = {:.3}", report.f1());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod dataset;
pub mod detectors;
pub mod error;
pub mod executor;
pub mod features;
pub mod guard;
pub mod metrics;
pub mod monitor;
pub mod pipeline;
pub mod robustness;
pub mod stream;
pub mod train;

pub use artifact::{dataset_fingerprint, train_config_hash, ArtifactError, MonitorBundle};
pub use dataset::{Dataset, DatasetBuilder, LabeledDataset};
pub use error::CoreError;
pub use executor::{Engine, Executor, SlotStream};
pub use features::{FeatureConfig, Normalizer, FEATURES_PER_STEP};
pub use guard::{GuardPolicy, GuardStatus, HealthState, Imputation, InputGuard};
pub use metrics::{ConfusionCounts, EvalReport};
pub use monitor::{MonitorKind, TrainedMonitor};
pub use pipeline::{
    Action, LatencyAttribution, MitigatedObserver, MitigationPolicy, Mitigator, PipelineSession,
};
pub use robustness::{robustness_error, sweep_parallel};
pub use stream::{
    CohortLstmBridge, GuardedVerdict, InvalidSample, LstmEngine, LstmSessionPool,
    LstmStreamSession, MonitorSession, SessionPool, StepStream, Verdict, WindowStream,
};
pub use train::TrainConfig;
