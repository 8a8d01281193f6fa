//! Experiment scales: quick (CI, committed `_quick` tables) and full
//! (paper-style).

use cpsmon_core::TrainConfig;
use cpsmon_sim::{CampaignConfig, SimulatorKind};

/// How big an experiment run should be.
///
/// The paper's campaigns (8 800 simulations, 1.32 M samples per simulator)
/// are out of reach for a single-core reproduction; `Full` is sized to
/// preserve the statistics (20 patient profiles, 24-hour scenarios,
/// O(10⁴) samples) while finishing in minutes, `Quick` is a smoke-test
/// scale for CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small smoke-test scale (seconds per experiment).
    Quick,
    /// Paper-style scale (minutes per experiment).
    Full,
}

impl Scale {
    /// Reads `CPSMON_SCALE` (`quick`/`full`, default quick).
    pub fn from_env() -> Scale {
        match std::env::var("CPSMON_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// The CSV stem an experiment's tables are written under at this
    /// scale: the bare name at full scale, `<name>_quick` at quick scale,
    /// so a quick run never overwrites a full-scale table.
    pub fn csv_stem(self, name: &str) -> String {
        match self {
            Scale::Quick => format!("{name}_quick"),
            Scale::Full => name.to_string(),
        }
    }

    /// The simulation campaign for one simulator at this scale.
    pub fn campaign(self, kind: SimulatorKind) -> CampaignConfig {
        match self {
            Scale::Quick => CampaignConfig::new(kind)
                .patients(3)
                .runs_per_patient(4)
                .steps(144)
                .fault_ratio(0.5)
                .seed(2022),
            Scale::Full => CampaignConfig::new(kind)
                .patients(20)
                .runs_per_patient(4)
                .steps(288)
                .fault_ratio(0.5)
                .seed(2022),
        }
    }

    /// Monitor training hyper-parameters at this scale.
    pub fn train_config(self) -> TrainConfig {
        match self {
            Scale::Quick => TrainConfig {
                epochs: 10,
                lr: 2e-3,
                mlp_hidden: vec![64, 32],
                lstm_hidden: vec![32, 16],
                ..TrainConfig::default()
            },
            Scale::Full => TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
        }
    }

    /// Label used in report headers.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_uses_paper_architectures() {
        let cfg = Scale::Full.train_config();
        assert_eq!(cfg.mlp_hidden, vec![256, 128]);
        assert_eq!(cfg.lstm_hidden, vec![128, 64]);
    }

    #[test]
    fn quick_campaign_is_small() {
        let c = Scale::Quick.campaign(SimulatorKind::Glucosym);
        assert!(c.total_runs() <= 12);
    }
}
