//! **Extension — GRU vs LSTM monitor architecture.**
//!
//! The paper compares MLP vs LSTM and attributes part of the robustness
//! difference to "neural network architectures"; the GRU — the standard
//! lighter recurrent cell — is the obvious next data point. This
//! experiment trains a stacked GRU with the same hidden sizes as the
//! paper's LSTM and compares clean F1 and robustness error.

use crate::context::Context;
use crate::report::{fmt3, Table};
use cpsmon_attack::{Perturbation, SweepContext};
use cpsmon_core::monitor::evaluate_predictions;
use cpsmon_core::monitor::MonitorModel;
use cpsmon_core::robustness_error;
use cpsmon_core::train::fit;
use cpsmon_core::MonitorKind;
use cpsmon_nn::{GradModel, GruConfig, GruNet, Network};

/// Trains a GRU with the context's train config (baseline loss).
fn train_gru(ctx: &Context, sim: &crate::context::SimContext) -> GruNet {
    let cfg = ctx.scale.train_config();
    let window = sim.ds.feature_config.window;
    let mut net = GruNet::new(&GruConfig {
        feature_dim: sim.ds.feature_dim() / window,
        timesteps: window,
        hidden: cfg.lstm_hidden.clone(),
        classes: 2,
        seed: cfg.seed,
    });
    fit(&mut net, &sim.ds, &cfg, false, 0x6772_7574_7261_696e);
    net
}

/// Runs the experiment.
pub fn run(ctx: &Context) -> Table {
    let mut table = Table::new(
        format!(
            "Extension — GRU vs LSTM monitors ({} scale)",
            ctx.scale.label()
        ),
        &[
            "Simulator",
            "Model",
            "params",
            "clean F1",
            "rob.err FGSM ε=0.1",
            "rob.err FGSM ε=0.2",
        ],
    );
    for sim in &ctx.sims {
        // LSTM rows come from the shared context; GRU is trained here.
        let MonitorModel::Lstm(lstm) = &sim.expect_monitor(MonitorKind::Lstm).model else {
            unreachable!("the LSTM monitor holds an LSTM network");
        };
        let gru = train_gru(ctx, sim);
        let rows: Vec<(&str, &dyn GradModel, usize)> = vec![
            ("LSTM", lstm, lstm.param_count()),
            ("GRU", &gru, gru.param_count()),
        ];
        for (name, model, params) in rows {
            let clean = model.predict_labels(&sim.ds.test.x);
            let f1 = evaluate_predictions(&sim.ds.test, &clean, 6).f1();
            let mut cells = vec![
                sim.kind.label().to_string(),
                name.to_string(),
                params.to_string(),
                fmt3(f1),
            ];
            // Both ε cells share one backward pass via the sweep context.
            let sweep = SweepContext::new(model, &sim.ds.test.x, &sim.ds.test.labels);
            for eps in [0.1, 0.2] {
                let adv = sweep.materialize(&Perturbation::Fgsm { epsilon: eps });
                cells.push(fmt3(robustness_error(&clean, &model.predict_labels(&adv))));
            }
            table.row(cells);
        }
    }
    table
}
