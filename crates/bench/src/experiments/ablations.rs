//! Ablations beyond the paper, covering the design choices `DESIGN.md`
//! calls out:
//!
//! - **semantic-loss weight `w`** (the paper does not publish its value);
//! - **window length** (6 steps in the paper);
//! - **tolerance window δ** of the Table II metric;
//! - **adversarial training** as an alternative defense, the comparison
//!   the related-work section argues about (defense cost vs accuracy).

use crate::context::Context;
use crate::report::{fmt3, Table};
use cpsmon_attack::Fgsm;
use cpsmon_core::monitor::evaluate_predictions;
use cpsmon_core::{robustness_error, DatasetBuilder, FeatureConfig, MonitorKind, TrainConfig};
use cpsmon_nn::rng::SmallRng;
use cpsmon_nn::{AdamTrainer, GradModel, MlpConfig, MlpNet, Network, SemanticLoss};
use cpsmon_sim::SimulatorKind;

/// FGSM strength used by the robustness columns of the ablations.
const ABLATION_EPS: f64 = 0.1;

/// Semantic-loss weight sweep: clean F1 and robustness error of an
/// MLP-Custom monitor as `w` varies (`w = 0` is the baseline MLP).
pub fn weight_sweep(ctx: &Context) -> Table {
    let sim = ctx.sim(SimulatorKind::Glucosym);
    let mut table = Table::new(
        format!(
            "Ablation — semantic weight w (MLP, glucosym, {} scale)",
            ctx.scale.label()
        ),
        &["w", "clean F1", "robustness error @ FGSM ε=0.1"],
    );
    for w in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let cfg = TrainConfig {
            semantic_weight: w,
            ..ctx.scale.train_config()
        };
        let monitor = MonitorKind::MlpCustom
            .train(&sim.ds, &cfg)
            .expect("training succeeds");
        let model = monitor.as_grad_model().expect("differentiable");
        let clean_preds = monitor.predict_x(&sim.ds.test.x);
        let f1 = evaluate_predictions(&sim.ds.test, &clean_preds, 6).f1();
        let adv = Fgsm::new(ABLATION_EPS).attack(model, &sim.ds.test.x, &sim.ds.test.labels);
        let err = robustness_error(&clean_preds, &monitor.predict_x(&adv));
        table.row(vec![w.to_string(), fmt3(f1), fmt3(err)]);
    }
    table
}

/// Window-length sweep: rebuilds the dataset at several window sizes and
/// retrains the baseline MLP.
pub fn window_sweep(ctx: &Context) -> Table {
    let sim = ctx.sim(SimulatorKind::Glucosym);
    let mut table = Table::new(
        format!(
            "Ablation — window length (MLP, glucosym, {} scale)",
            ctx.scale.label()
        ),
        &["window (steps)", "feature dim", "clean F1"],
    );
    for window in [3usize, 6, 12] {
        let ds = DatasetBuilder::new()
            .feature_config(FeatureConfig {
                window,
                ..FeatureConfig::default()
            })
            .seed(2022)
            .build(&sim.traces)
            .expect("dataset builds at every window size");
        let monitor = MonitorKind::Mlp
            .train(&ds, &ctx.scale.train_config())
            .expect("training succeeds");
        let report = monitor.evaluate(&ds.test);
        table.row(vec![
            window.to_string(),
            ds.feature_dim().to_string(),
            fmt3(report.f1()),
        ]);
    }
    table
}

/// Tolerance-window sweep: how sensitive the Table II scores are to δ.
pub fn tolerance_sweep(ctx: &Context) -> Table {
    let sim = ctx.sim(SimulatorKind::Glucosym);
    let mut table = Table::new(
        format!(
            "Ablation — metric tolerance δ (glucosym, {} scale)",
            ctx.scale.label()
        ),
        &["Model", "δ=0", "δ=3", "δ=6", "δ=12"],
    );
    for mk in MonitorKind::ALL {
        let monitor = sim.expect_monitor(mk);
        let preds = monitor.predict(&sim.ds.test);
        let mut cells = vec![mk.label().to_string()];
        for delta in [0usize, 3, 6, 12] {
            cells.push(fmt3(evaluate_predictions(&sim.ds.test, &preds, delta).f1()));
        }
        table.row(cells);
    }
    table
}

/// Adversarial training vs semantic loss: trains an MLP whose minibatches
/// are half FGSM-perturbed (the standard defense the related work cites)
/// and compares clean F1 / robustness error against the baseline and the
/// semantic-loss monitor.
pub fn adversarial_training(ctx: &Context) -> Table {
    let sim = ctx.sim(SimulatorKind::Glucosym);
    let cfg = ctx.scale.train_config();
    // Train the adversarially-hardened MLP.
    let mut net = MlpNet::new(&MlpConfig {
        input_dim: sim.ds.feature_dim(),
        hidden: cfg.mlp_hidden.clone(),
        classes: 2,
        seed: cfg.seed,
    });
    net.semantic = SemanticLoss::new(0.0);
    let mut trainer = AdamTrainer::new(net.param_count(), cfg.lr);
    let mut rng = SmallRng::new(0x6164_7674_7261_696e);
    let train = &sim.ds.train;
    let fgsm = Fgsm::new(ABLATION_EPS);
    for _ in 0..cfg.epochs {
        let mut idx: Vec<usize> = (0..train.len()).collect();
        rng.shuffle(&mut idx);
        for batch in idx.chunks(cfg.batch_size) {
            let x = train.x.select_rows(batch);
            let labels: Vec<usize> = batch.iter().map(|&i| train.labels[i]).collect();
            // Standard adversarial training: replace half the batch with
            // adversarial versions crafted against the current weights.
            let half = batch.len() / 2;
            if half > 0 {
                let x_adv_part = fgsm.attack(&net, &x.slice_rows(0, half), &labels[..half]);
                let x_mixed = x_adv_part.vstack(&x.slice_rows(half, batch.len()));
                net.train_batch(&x_mixed, &labels, None, &mut trainer);
            } else {
                net.train_batch(&x, &labels, None, &mut trainer);
            }
        }
    }
    // Compare three defenses.
    let mut table = Table::new(
        format!(
            "Ablation — adversarial training vs semantic loss (MLP, glucosym, {} scale)",
            ctx.scale.label()
        ),
        &["defense", "clean F1", "robustness error @ FGSM ε=0.1"],
    );
    let eval_net = |net: &dyn GradModel, label: &str, table: &mut Table| {
        let clean_preds = net.predict_labels(&sim.ds.test.x);
        let f1 = evaluate_predictions(&sim.ds.test, &clean_preds, 6).f1();
        let adv = fgsm.attack(net, &sim.ds.test.x, &sim.ds.test.labels);
        let err = robustness_error(&clean_preds, &net.predict_labels(&adv));
        table.row(vec![label.to_string(), fmt3(f1), fmt3(err)]);
    };
    let baseline = sim
        .expect_monitor(MonitorKind::Mlp)
        .as_grad_model()
        .expect("differentiable");
    let custom = sim
        .expect_monitor(MonitorKind::MlpCustom)
        .as_grad_model()
        .expect("differentiable");
    eval_net(baseline, "none (baseline MLP)", &mut table);
    eval_net(custom, "semantic loss (MLP-Custom)", &mut table);
    eval_net(&net, "adversarial training", &mut table);
    table
}

/// Runs all four ablations.
pub fn run(ctx: &Context) -> Vec<Table> {
    vec![
        weight_sweep(ctx),
        window_sweep(ctx),
        tolerance_sweep(ctx),
        adversarial_training(ctx),
    ]
}
