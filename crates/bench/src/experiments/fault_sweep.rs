//! **Extension** — sensor-fault robustness sweep: a fault-type × intensity
//! grid (the natural-fault analogue of the Fig. 9 σ×ε heat-map) over all
//! five monitors of Table III, replayed through guarded streaming
//! sessions.
//!
//! For every simulator, monitor, fault class, and intensity level the
//! experiment injects a seeded `cpsmon_sim::faults` campaign into the CGM
//! channel of a fixed trace subset, replays the traces through a guarded
//! [`PipelineSession`], and reports the **robustness error**: the fraction
//! of verdict steps whose label flips relative to the clean replay (the
//! streaming counterpart of Eq. 5). A summary table adds how often the
//! guard imputed inputs and how often sessions degraded to the rule
//! fallback.
//!
//! Expected shape, mirroring the paper's resilience result: the rule-based
//! monitor (and the Custom variants) flip least; blunt faults the guard
//! can repair (dropout, spikes) cost little; faults that corrupt values
//! *within* physical plausibility (drift, bias, quantize, delay) are the
//! ones that flip ML verdicts.
//!
//! Determinism: injection is keyed per trace identity, every cell is an
//! independent seeded replay, and cells fan out through
//! [`sweep_parallel`] — results are bit-identical for any thread count,
//! which CI checks by diffing the CSVs of two consecutive runs.

use crate::context::{Context, SimContext};
use crate::report::{fmt3, Table};
use crate::scale::Scale;
use cpsmon_core::guard::{GuardPolicy, HealthState};
use cpsmon_core::{sweep_parallel, MonitorKind, MonitorSession, PipelineSession};
use cpsmon_sim::faults::{ChannelFault, FaultModel, FaultPlan, SensorChannel};
use cpsmon_sim::SimTrace;
use cpsmon_stl::RuleMonitor;

/// Root seed of every injected fault campaign.
pub const FAULT_SEED: u64 = 0x2026_0807;

/// Intensity-level labels, low → high.
const LEVELS: [&str; 3] = ["low", "med", "high"];

/// The fault grid: every `cpsmon_sim::faults::FaultModel` class at three
/// intensities (chosen so "low" is plausibly repairable and "high" is a
/// gross failure).
fn fault_grid() -> [(&'static str, [FaultModel; 3]); 7] {
    [
        (
            "dropout",
            [
                FaultModel::Dropout { p: 0.1 },
                FaultModel::Dropout { p: 0.3 },
                FaultModel::Dropout { p: 0.8 },
            ],
        ),
        (
            "stuck",
            [
                FaultModel::StuckAt { duration: 4 },
                FaultModel::StuckAt { duration: 12 },
                FaultModel::StuckAt { duration: 48 },
            ],
        ),
        (
            "spike",
            [
                FaultModel::Spike { magnitude: 30.0 },
                FaultModel::Spike { magnitude: 80.0 },
                FaultModel::Spike { magnitude: 200.0 },
            ],
        ),
        (
            "drift",
            [
                FaultModel::Drift { rate: 0.5 },
                FaultModel::Drift { rate: 2.0 },
                FaultModel::Drift { rate: 8.0 },
            ],
        ),
        (
            "bias",
            [
                FaultModel::Bias { offset: 10.0 },
                FaultModel::Bias { offset: 40.0 },
                FaultModel::Bias { offset: 120.0 },
            ],
        ),
        (
            "quantize",
            [
                FaultModel::Quantize { step: 5.0 },
                FaultModel::Quantize { step: 25.0 },
                FaultModel::Quantize { step: 80.0 },
            ],
        ),
        (
            "delay",
            [
                FaultModel::Delay { steps: 2 },
                FaultModel::Delay { steps: 6 },
                FaultModel::Delay { steps: 12 },
            ],
        ),
    ]
}

/// The fixed trace subset a sweep replays (keeps the LSTM cells affordable
/// at quick scale while spanning several patients).
fn trace_subset(sim: &SimContext, scale: Scale) -> &[SimTrace] {
    let n = match scale {
        Scale::Quick => 4,
        Scale::Full => 8,
    };
    &sim.traces[..n.min(sim.traces.len())]
}

/// One replay of `traces` through a guarded session: per-step verdict
/// labels plus imputation/fallback step counts.
struct Replay {
    labels: Vec<usize>,
    imputed_steps: usize,
    fallback_steps: usize,
    verdict_steps: usize,
}

fn replay(sim: &SimContext, mk: MonitorKind, traces: &[SimTrace]) -> Replay {
    let monitor = sim.expect_monitor(mk);
    let mut session = PipelineSession::new(MonitorSession::for_dataset(monitor, &sim.ds))
        .with_guard(GuardPolicy::aps(), RuleMonitor::new(sim.ds.rules));
    let mut out = Replay {
        labels: Vec::new(),
        imputed_steps: 0,
        fallback_steps: 0,
        verdict_steps: 0,
    };
    for trace in traces {
        session.reset();
        for rec in trace.records() {
            if let Some(v) = session.step(rec) {
                out.labels.push(v.verdict.label);
                out.verdict_steps += 1;
                out.imputed_steps += usize::from(v.imputed);
                out.fallback_steps += usize::from(v.health == HealthState::Fallback);
            }
        }
    }
    out
}

/// One grid cell's outcome.
struct CellResult {
    error: f64,
    imputed_frac: f64,
    fallback_frac: f64,
}

/// Computes the whole grid. Cells are independent seeded replays fanned
/// out via [`sweep_parallel`]; the clean reference replay per
/// `(simulator, monitor)` is hoisted out of the grid.
fn compute(ctx: &Context) -> Vec<(String, MonitorKind, &'static str, Vec<CellResult>)> {
    let grid = fault_grid();
    let mut out = Vec::new();
    for sim in &ctx.sims {
        let traces = trace_subset(sim, ctx.scale);
        // The injected window: skip the warm-up fifth, corrupt half the
        // trace (every subset trace has the campaign's step count).
        let steps = traces.first().map_or(0, SimTrace::len);
        let (start, duration) = (steps / 5, steps / 2);
        for mk in MonitorKind::ALL {
            let clean = replay(sim, mk, traces);
            let cells: Vec<FaultModel> = grid
                .iter()
                .flat_map(|(_, models)| models.iter().copied())
                .collect();
            let results = sweep_parallel(&cells, |model| {
                let plan = FaultPlan::new(FAULT_SEED).with(ChannelFault::new(
                    SensorChannel::BgSensor,
                    *model,
                    start,
                    duration,
                ));
                let faulted = replay(sim, mk, &plan.inject_all(traces));
                assert_eq!(faulted.labels.len(), clean.labels.len());
                let flips = clean
                    .labels
                    .iter()
                    .zip(&faulted.labels)
                    .filter(|(a, b)| a != b)
                    .count();
                let n = faulted.verdict_steps.max(1) as f64;
                CellResult {
                    error: flips as f64 / n,
                    imputed_frac: faulted.imputed_steps as f64 / n,
                    fallback_frac: faulted.fallback_steps as f64 / n,
                }
            });
            let mut results = results.into_iter();
            for (fault, _) in &grid {
                let row: Vec<CellResult> = results.by_ref().take(LEVELS.len()).collect();
                out.push((sim.kind.label().to_string(), mk, *fault, row));
            }
        }
    }
    out
}

/// Runs the experiment: the robustness-error grid plus a per-monitor
/// degradation summary.
pub fn run(ctx: &Context) -> (Table, Table) {
    let data = compute(ctx);
    let mut headers: Vec<String> = vec!["Simulator".into(), "Model".into(), "Fault".into()];
    headers.extend(LEVELS.iter().map(|l| format!("err {l}")));
    headers.push("fallback% high".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!(
            "Fault sweep — streaming robustness error by fault type × intensity ({} scale)",
            ctx.scale.label()
        ),
        &header_refs,
    );
    for (sim, mk, fault, cells) in &data {
        let mut row = vec![sim.clone(), mk.label().to_string(), (*fault).to_string()];
        row.extend(cells.iter().map(|c| fmt3(c.error)));
        row.push(format!(
            "{:.1}",
            cells.last().map_or(0.0, |c| c.fallback_frac * 100.0)
        ));
        table.row(row);
    }
    let mut summary = Table::new(
        "Fault sweep summary — mean over the grid, per monitor",
        &[
            "Simulator",
            "Model",
            "mean err",
            "max err",
            "imputed %",
            "fallback %",
        ],
    );
    for sim_label in ctx.sims.iter().map(|s| s.kind.label()) {
        for mk in MonitorKind::ALL {
            let cells: Vec<&CellResult> = data
                .iter()
                .filter(|(s, m, _, _)| s == sim_label && *m == mk)
                .flat_map(|(_, _, _, row)| row.iter())
                .collect();
            let n = cells.len().max(1) as f64;
            let mean = cells.iter().map(|c| c.error).sum::<f64>() / n;
            let max = cells.iter().map(|c| c.error).fold(0.0, f64::max);
            let imputed = cells.iter().map(|c| c.imputed_frac).sum::<f64>() / n * 100.0;
            let fallback = cells.iter().map(|c| c.fallback_frac).sum::<f64>() / n * 100.0;
            summary.row(vec![
                sim_label.to_string(),
                mk.label().to_string(),
                fmt3(mean),
                fmt3(max),
                format!("{imputed:.1}"),
                format!("{fallback:.1}"),
            ]);
        }
    }
    (table, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsmon_nn::par::ThreadsGuard;

    fn table_cells(t: &Table) -> String {
        t.to_csv()
    }

    #[test]
    fn fault_sweep_is_thread_invariant() {
        let ctx = Context::build(Scale::Quick).unwrap();
        let (serial_grid, serial_sum) = {
            let _t = ThreadsGuard::set(1);
            run(&ctx)
        };
        let (par_grid, par_sum) = {
            let _t = ThreadsGuard::set(3);
            run(&ctx)
        };
        assert_eq!(table_cells(&serial_grid), table_cells(&par_grid));
        assert_eq!(table_cells(&serial_sum), table_cells(&par_sum));
        // 2 sims × 5 monitors × 7 fault classes.
        assert_eq!(serial_grid.len(), 70);
        assert_eq!(serial_sum.len(), 10);
    }
}
