//! Training configuration and loops for the ML monitors.

use crate::dataset::LabeledDataset;
use cpsmon_nn::rng::SmallRng;
use cpsmon_nn::{AdamTrainer, LstmConfig, LstmNet, MlpConfig, MlpNet, Network, SemanticLoss};

/// Hyper-parameters for monitor training.
///
/// Defaults follow §IV-A of the paper: MLP 256-128, stacked LSTM 128-64
/// over 6 timesteps, Adam at learning rate 0.001, sparse categorical
/// cross-entropy. The semantic weight `w` of Eq. 2 is not published; we
/// default to 1.0 from the `cpsmon-bench` ablation sweep: it preserves
/// clean F1 (within ±0.04 of the baselines on both simulators) while
/// cutting FGSM robustness error by ~10–30 %; `w = 2` roughly doubles the
/// reduction at a visible clean-F1 cost.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Semantic-loss weight `w` (used by the Custom variants).
    pub semantic_weight: f64,
    /// MLP hidden-layer sizes.
    pub mlp_hidden: Vec<usize>,
    /// LSTM stacked hidden sizes.
    pub lstm_hidden: Vec<usize>,
    /// Weight-init and shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            batch_size: 128,
            lr: 1e-3,
            semantic_weight: 1.0,
            mlp_hidden: vec![256, 128],
            lstm_hidden: vec![128, 64],
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// A down-scaled configuration for unit tests and doc examples: tiny
    /// networks, few epochs. Not representative of paper results.
    pub fn quick_test() -> Self {
        Self {
            epochs: 3,
            batch_size: 64,
            lr: 5e-3,
            semantic_weight: 1.0,
            mlp_hidden: vec![32, 16],
            lstm_hidden: vec![16, 8],
            seed: 0,
        }
    }
}

/// Trains `net` for `cfg.epochs` epochs of shuffled `cfg.batch_size`
/// minibatches of `ds.train` with Adam at `cfg.lr`; `custom` feeds the rule
/// indicators to the Eq. 2 semantic loss. The shuffle draws from one RNG
/// seeded with `cfg.seed ^ salt`, a constant per monitor architecture.
pub fn fit(
    net: &mut impl Network,
    ds: &LabeledDataset,
    cfg: &TrainConfig,
    custom: bool,
    salt: u64,
) {
    let mut trainer = AdamTrainer::new(net.param_count(), cfg.lr);
    let mut rng = SmallRng::new(cfg.seed ^ salt);
    let train = &ds.train;
    let indicators = custom.then_some(train.indicators.as_slice());
    for _ in 0..cfg.epochs {
        net.train_epoch(
            &train.x,
            &train.labels,
            indicators,
            cfg.batch_size,
            &mut trainer,
            &mut rng,
        );
    }
}

/// Trains an MLP monitor; `custom` enables the Eq. 2 semantic loss.
pub fn train_mlp(ds: &LabeledDataset, cfg: &TrainConfig, custom: bool) -> MlpNet {
    let mut net = MlpNet::new(&MlpConfig {
        input_dim: ds.feature_dim(),
        hidden: cfg.mlp_hidden.clone(),
        classes: 2,
        seed: cfg.seed,
    });
    net.semantic = SemanticLoss::new(cfg.semantic_weight);
    fit(&mut net, ds, cfg, custom, 0x6d6c_7074_7261_696e);
    net
}

/// Trains an LSTM monitor; `custom` enables the Eq. 2 semantic loss.
pub fn train_lstm(ds: &LabeledDataset, cfg: &TrainConfig, custom: bool) -> LstmNet {
    let window = ds.feature_config.window;
    let feature_dim = ds.feature_dim() / window;
    let mut net = LstmNet::new(&LstmConfig {
        feature_dim,
        timesteps: window,
        hidden: cfg.lstm_hidden.clone(),
        classes: 2,
        seed: cfg.seed,
    });
    net.semantic = SemanticLoss::new(cfg.semantic_weight);
    fit(&mut net, ds, cfg, custom, 0x6c73_7472_6169_6e00);
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use cpsmon_nn::GradModel;
    use cpsmon_sim::{CampaignConfig, SimulatorKind};

    fn dataset() -> LabeledDataset {
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(3)
            .steps(144)
            .fault_ratio(0.6)
            .seed(21)
            .run();
        DatasetBuilder::new().build(&traces).unwrap()
    }

    #[test]
    fn mlp_training_beats_majority_class() {
        let ds = dataset();
        let net = train_mlp(&ds, &TrainConfig::quick_test(), false);
        let preds = net.predict_labels(&ds.train.x);
        let correct = preds
            .iter()
            .zip(&ds.train.labels)
            .filter(|(p, l)| p == l)
            .count();
        let acc = correct as f64 / preds.len() as f64;
        let majority = 1.0
            - ds.train
                .positive_ratio()
                .min(1.0 - ds.train.positive_ratio());
        assert!(
            acc > majority.max(0.6),
            "train acc {acc} vs majority {majority}"
        );
    }

    #[test]
    fn lstm_training_beats_majority_class() {
        let ds = dataset();
        let net = train_lstm(&ds, &TrainConfig::quick_test(), false);
        let preds = net.predict_labels(&ds.train.x);
        let correct = preds
            .iter()
            .zip(&ds.train.labels)
            .filter(|(p, l)| p == l)
            .count();
        let acc = correct as f64 / preds.len() as f64;
        assert!(acc > 0.6, "train acc {acc}");
    }

    #[test]
    fn custom_training_accepts_indicators() {
        let ds = dataset();
        let net = train_mlp(&ds, &TrainConfig::quick_test(), true);
        // Should still predict sensibly (smoke test).
        let preds = net.predict_labels(&ds.test.x);
        assert_eq!(preds.len(), ds.test.len());
    }

    #[test]
    fn training_is_deterministic() {
        let ds = dataset();
        let cfg = TrainConfig::quick_test();
        let a = train_mlp(&ds, &cfg, false);
        let b = train_mlp(&ds, &cfg, false);
        assert_eq!(a.predict_proba(&ds.test.x), b.predict_proba(&ds.test.x));
    }
}
