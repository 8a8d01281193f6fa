//! **Extension** — deterministic chaos campaign against the `cpsmon
//! serve` shard engine (DESIGN.md §15): transport fault storms and
//! sustained overload driven straight into the sans-IO [`Shard`], with
//! the closed-loop overload controller deciding when ML inference is
//! shed to the Table-I rule path.
//!
//! Five conditions per run: a clean baseline, a seeded drop/dup/reorder
//! storm, a 2× and a 4×-with-storm overload, and a hot bundle reload in
//! the middle of a storm. For every condition the experiment replays the
//! *accepted* record subsequence (after the session-level sequence
//! high-water mark) through the offline
//! [`PipelineSession`] and counts verdicts
//! that disagree — the `unshed_mismatch` column is the degradation-
//! transparency witness and must be 0: whatever the storm does to
//! delivery, the verdicts the service emits while not shedding are
//! bit-identical to the offline pipeline on the same records.
//!
//! Determinism: the shard runs with `tick_budget: None` (no clock
//! reading reaches an event, a counter or the controller), chaos plans
//! are pure seeded functions, and the serving traces come from a
//! fixed-seed campaign — the CSV is byte-identical across runs and CI
//! diffs two consecutive invocations.

use crate::context::Context;
use crate::report::Table;
use crate::scale::Scale;
use cpsmon_core::artifact::MonitorBundle;
use cpsmon_core::stream::MonitorSession;
use cpsmon_core::{GuardPolicy, MonitorKind, PipelineSession};
use cpsmon_serve::{
    ChaosPlan, IngestItem, IngestKind, OutEvent, ServiceHealth, ServingBundle, Shard, ShardConfig,
};
use cpsmon_sim::{CampaignConfig, SimulatorKind, StepRecord};

/// Seed of the serving campaign (distinct from the training context).
const SERVE_SEED: u64 = 0x5e7e;

/// One load/fault condition.
struct Condition {
    name: &'static str,
    /// Offers per tick (the drain budget is 64, so >64 is overload).
    per_tick: usize,
    chaos: Option<ChaosPlan>,
    /// Install the second bundle halfway through the item stream.
    reload_midway: bool,
}

fn conditions() -> Vec<Condition> {
    vec![
        Condition {
            name: "clean",
            per_tick: 48,
            chaos: None,
            reload_midway: false,
        },
        Condition {
            name: "storm",
            per_tick: 48,
            chaos: Some(ChaosPlan::storm(9)),
            reload_midway: false,
        },
        Condition {
            name: "overload2x",
            per_tick: 128,
            chaos: None,
            reload_midway: false,
        },
        Condition {
            name: "storm_overload4x",
            per_tick: 256,
            chaos: Some(ChaosPlan::storm(10)),
            reload_midway: false,
        },
        Condition {
            name: "reload_mid_storm",
            per_tick: 48,
            chaos: Some(ChaosPlan::storm(11)),
            reload_midway: true,
        },
    ]
}

fn shard_config() -> ShardConfig {
    ShardConfig {
        queue_cap: 256,
        drain_max: 64,
        tick_budget: None, // deterministic: no clock-driven decisions
        max_sessions: 64,
        ..ShardConfig::default()
    }
}

fn serving_items(scale: Scale) -> (usize, Vec<IngestItem>) {
    let (patients, steps) = match scale {
        Scale::Quick => (6, 64),
        Scale::Full => (8, 160),
    };
    let traces: Vec<Vec<StepRecord>> = CampaignConfig::new(SimulatorKind::Glucosym)
        .patients(patients)
        .runs_per_patient(1)
        .steps(steps)
        .fault_ratio(0.3)
        .seed(SERVE_SEED)
        .run()
        .into_iter()
        .map(|t| t.records().to_vec())
        .collect();
    let mut items = Vec::new();
    for step in 0..steps {
        for (pid, t) in traces.iter().enumerate() {
            if let Some(rec) = t.get(step) {
                items.push(IngestItem {
                    conn: 1,
                    patient: pid as u64,
                    seq: step as u32,
                    kind: IngestKind::Step(*rec),
                });
            }
        }
    }
    (patients, items)
}

/// Offline verdicts for the accepted subsequence of each patient, keyed
/// as `(patient, step) -> (label, proba)`.
fn offline_reference(
    bundle: &MonitorBundle,
    items: &[IngestItem],
    patients: usize,
) -> std::collections::HashMap<(u64, u32), (u8, f64)> {
    let serving = ServingBundle::new(bundle.clone());
    let mut reference = std::collections::HashMap::new();
    for pid in 0..patients as u64 {
        let mut hw: Option<u32> = None;
        let core = MonitorSession::new(
            &bundle.monitor,
            serving.feature_config(),
            bundle.normalizer.clone(),
        );
        let mut session =
            PipelineSession::new(core).with_guard(GuardPolicy::aps(), *serving.fallback());
        let mut accepted = 0u32;
        for item in items {
            let IngestKind::Step(rec) = item.kind else {
                continue;
            };
            if item.patient != pid || hw.is_some_and(|h| item.seq <= h) {
                continue;
            }
            hw = Some(item.seq);
            if let Some(gv) = session.step(&rec) {
                reference.insert((pid, accepted), (gv.verdict.label as u8, gv.verdict.proba));
            }
            accepted += 1;
        }
    }
    reference
}

/// Runs one condition and returns its result row.
#[allow(clippy::too_many_lines)]
fn run_condition(
    cond: &Condition,
    items: &[IngestItem],
    patients: usize,
    bundle_a: &MonitorBundle,
    bundle_b: &MonitorBundle,
) -> Vec<String> {
    let config = shard_config();
    let mut shard = Shard::new(config, ServingBundle::new(bundle_a.clone()));
    let delivered = match &cond.chaos {
        Some(plan) => plan.mangle_items(items),
        None => items.to_vec(),
    };
    let reference = offline_reference(bundle_a, &delivered, patients);

    let reload_at = delivered.len() / 2;
    let mut events: Vec<OutEvent> = Vec::new();
    let mut offered_at = 0usize;
    let mut shed_ticks = 0u64;
    let mut peak_queue = 0usize;
    // Events up to this index were produced by bundle A; after a midway
    // reload bundle B serves different weights and the offline reference
    // no longer applies.
    let mut compare_until = usize::MAX;
    while offered_at < delivered.len() {
        if cond.reload_midway && compare_until == usize::MAX && offered_at >= reload_at {
            compare_until = events.len();
            shard
                .install_bundle(ServingBundle::new(bundle_b.clone()))
                .expect("same-fingerprint reload");
        }
        let end = (offered_at + cond.per_tick).min(delivered.len());
        for item in &delivered[offered_at..end] {
            let _ = shard.offer(*item); // rejections are counted in stats
        }
        offered_at = end;
        peak_queue = peak_queue.max(shard.queue_len());
        events.extend(shard.tick());
        if shard.health() == ServiceHealth::Shedding {
            shed_ticks += 1;
        }
    }
    while shard.queue_len() > 0 {
        events.extend(shard.tick());
    }

    // Transparency check: every unshedded verdict produced while bundle A
    // was serving must equal the offline replay bit for bit.
    let mut unshed = 0usize;
    let mut mismatches = 0usize;
    for ev in events.iter().take(compare_until) {
        let OutEvent::Verdict {
            patient,
            step,
            label,
            proba,
            shed,
            ..
        } = ev
        else {
            continue;
        };
        if *shed {
            continue;
        }
        unshed += 1;
        match reference.get(&(*patient, *step)) {
            Some(&(want_label, want_proba)) => {
                if *label != want_label || *proba != want_proba {
                    mismatches += 1;
                }
            }
            None => mismatches += 1,
        }
    }

    // Recovery: calm ticks until Healthy, bounded by the hysteresis
    // budget (2 × recovery_intervals).
    let budget = 2 * config.overload.recovery_intervals;
    let mut calm = 0u32;
    while shard.health() != ServiceHealth::Healthy && calm < budget {
        shard.tick();
        calm += 1;
    }
    let recovered = shard.health() == ServiceHealth::Healthy;

    let stats = shard.stats();
    let shed_pct = if stats.verdicts == 0 {
        0.0
    } else {
        stats.shed_verdicts as f64 / stats.verdicts as f64 * 100.0
    };
    vec![
        cond.name.to_string(),
        stats.offered.to_string(),
        stats.rejected_busy.to_string(),
        stats.dropped_stale.to_string(),
        peak_queue.to_string(),
        stats.verdicts.to_string(),
        format!("{shed_pct:.1}"),
        shed_ticks.to_string(),
        unshed.to_string(),
        mismatches.to_string(),
        stats.reloads.to_string(),
        shard.controller().transitions().to_string(),
        u8::from(recovered).to_string(),
    ]
}

/// Runs the chaos campaign on the Glucosym context.
pub fn run(ctx: &Context) -> Table {
    let sc = ctx.sim(SimulatorKind::Glucosym);
    let bundle_a = MonitorBundle::new(
        sc.expect_monitor(MonitorKind::Mlp).clone(),
        &sc.ds,
        &sc.train_config,
    );
    // Same dataset → same fingerprint: hot-reload compatible.
    let bundle_b = MonitorBundle::new(
        sc.expect_monitor(MonitorKind::MlpCustom).clone(),
        &sc.ds,
        &sc.train_config,
    );
    let (patients, items) = serving_items(ctx.scale);

    let mut table = Table::new(
        format!(
            "serve_chaos: shard degradation under fault storms ({} items, Glucosym MLP)",
            items.len()
        ),
        &[
            "condition",
            "offered",
            "busy_rejects",
            "stale_drops",
            "peak_queue",
            "verdicts",
            "shed_pct",
            "shed_ticks",
            "unshed_compared",
            "unshed_mismatch",
            "reloads",
            "transitions",
            "recovered",
        ],
    );
    for cond in conditions() {
        table.row(run_condition(&cond, &items, patients, &bundle_a, &bundle_b));
    }
    table
}
