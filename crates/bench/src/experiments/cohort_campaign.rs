//! **Extension** — population screening campaign on the SoA cohort engine
//! (DESIGN.md §13): a latin-hypercube–sampled virtual population stepped
//! in lockstep through the batched simulator with the trained LSTM
//! monitor in the loop via [`CohortLstmBridge`].
//!
//! For each simulator the experiment samples a cohort, runs the full
//! closed-loop campaign through [`cpsmon_sim::CohortEngine`], streams
//! every member's records into a pooled stateful LSTM fleet, and reports
//! population outcomes: mean glucose, time-in-range, members that ever go
//! hypo-/hyperglycemic, and the monitor's alarm rate. A final column
//! re-runs the identical cohort on the batched *scalar* kernel and checks
//! the traces match bit for bit — the experiment-level witness of the
//! engine's transparency guarantee (the property tests in
//! `crates/sim/tests/cohort.rs` cover arbitrary shapes).
//!
//! Determinism: sampling, meal/CGM streams, and fault assignment are all
//! derived from [`COHORT_SEED`], and SIMD batching is bit-transparent, so
//! the CSV is identical across runs, thread counts, and kernel backends —
//! CI diffs two consecutive runs. Throughput numbers are wall-clock
//! measurements, so they go to stderr with the other progress lines and
//! never into stdout or the CSV.

use crate::context::Context;
use crate::report::Table;
use crate::scale::Scale;
use cpsmon_core::monitor::MonitorModel;
use cpsmon_core::{CohortLstmBridge, LstmEngine, LstmSessionPool, MonitorKind};
use cpsmon_nn::simd::Backend;
use cpsmon_sim::trace::traces_bit_identical;
use cpsmon_sim::{Cohort, SimTrace, SimulatorKind};
use std::time::Instant;

/// Root seed of the sampled population (parameters, meals, CGM noise, and
/// pump-fault assignment all fork from it).
pub const COHORT_SEED: u64 = 0x2026_0808;

/// Fraction of members assigned a sampled pump fault, as in the data
/// campaigns.
const FAULT_RATIO: f64 = 0.25;

/// Cohort size and horizon per simulator and scale. T1DS cohorts are
/// smaller: per-member basal calibration dominates their setup cost.
fn population(kind: SimulatorKind, scale: Scale) -> (usize, usize) {
    match (kind, scale) {
        (SimulatorKind::Glucosym, Scale::Quick) => (48, 48),
        (SimulatorKind::Glucosym, Scale::Full) => (256, 288),
        (SimulatorKind::T1ds2013, Scale::Quick) => (12, 48),
        (SimulatorKind::T1ds2013, Scale::Full) => (64, 288),
    }
}

/// Population outcomes aggregated over one cohort's traces.
struct Outcomes {
    mean_bg: f64,
    tir_pct: f64,
    hypo_members: usize,
    hyper_members: usize,
}

fn outcomes(traces: &[SimTrace]) -> Outcomes {
    let (mut sum, mut in_range, mut n) = (0.0, 0usize, 0usize);
    let (mut hypo, mut hyper) = (0usize, 0usize);
    for trace in traces {
        let (mut saw_hypo, mut saw_hyper) = (false, false);
        for rec in trace.records() {
            sum += rec.bg_true;
            n += 1;
            in_range += usize::from((70.0..=180.0).contains(&rec.bg_true));
            saw_hypo |= rec.bg_true < 70.0;
            saw_hyper |= rec.bg_true > 250.0;
        }
        hypo += usize::from(saw_hypo);
        hyper += usize::from(saw_hyper);
    }
    let n = n.max(1) as f64;
    Outcomes {
        mean_bg: sum / n,
        tir_pct: in_range as f64 / n * 100.0,
        hypo_members: hypo,
        hyper_members: hyper,
    }
}

/// Runs the campaign: one population-outcome table. Wall-clock throughput
/// is reported on stderr so stdout stays byte-identical across runs.
pub fn run(ctx: &Context) -> Table {
    let mut table = Table::new(
        format!(
            "Cohort campaign — SoA population screening with LSTM monitor in the loop ({} scale)",
            ctx.scale.label()
        ),
        &[
            "Simulator",
            "members",
            "steps",
            "mean BG",
            "TIR %",
            "hypo members",
            "hyper members",
            "alarm %",
            "scalar parity",
        ],
    );
    for sim in &ctx.sims {
        let (members, steps) = population(sim.kind, ctx.scale);
        let cohort = Cohort::sample(sim.kind, COHORT_SEED, members);
        let net = match &sim.expect_monitor(MonitorKind::Lstm).model {
            MonitorModel::Lstm(net) => net,
            _ => unreachable!("LSTM monitor holds an LSTM net"),
        };
        let mut pool = LstmSessionPool::for_dataset(LstmEngine::F64(net), &sim.ds, members);
        let mut bridge = CohortLstmBridge::new(&mut pool);
        let t0 = Instant::now();
        let traces = cohort
            .engine(steps, COHORT_SEED, FAULT_RATIO)
            .run_observed(&mut bridge);
        let elapsed = t0.elapsed();
        let verdicts = bridge.take_verdicts();
        let alarms = verdicts
            .iter()
            .filter(|(_, _, v)| v.verdict.label == 1)
            .count();
        let alarm_pct = alarms as f64 / verdicts.len().max(1) as f64 * 100.0;
        let reference = cohort
            .engine(steps, COHORT_SEED, FAULT_RATIO)
            .with_backend(Backend::Scalar)
            .run();
        let parity = if traces_bit_identical(&traces, &reference).is_ok() {
            "yes"
        } else {
            "NO"
        };
        let out = outcomes(&traces);
        table.row(vec![
            sim.kind.label().to_string(),
            members.to_string(),
            steps.to_string(),
            format!("{:.1}", out.mean_bg),
            format!("{:.1}", out.tir_pct),
            out.hypo_members.to_string(),
            out.hyper_members.to_string(),
            format!("{alarm_pct:.1}"),
            parity.to_string(),
        ]);
        let patient_steps = (members * steps) as f64;
        eprintln!(
            "[cpsmon-bench] cohort_campaign {:<9} {} members x {} steps (monitored, backend {}): {:.1}k patient-steps/s",
            sim.kind.label(),
            members,
            steps,
            cpsmon_nn::simd::backend().label(),
            patient_steps / elapsed.as_secs_f64() / 1e3,
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_campaign_is_deterministic_and_bit_transparent() {
        let ctx = Context::build(Scale::Quick).unwrap();
        let a = run(&ctx);
        let b = run(&ctx);
        assert_eq!(a.to_csv(), b.to_csv());
        // Two simulators, one row each; every row must witness parity.
        assert_eq!(a.len(), 2);
        assert!(a.to_csv().lines().skip(1).all(|l| l.ends_with("yes")));
    }
}
