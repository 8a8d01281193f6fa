//! Session lifecycle inside single shard ticks: a session's last record
//! and its close landing in the same tick, slot reuse by the next
//! patient, and the controller's idle recovery.

use cpsmon_core::artifact::MonitorBundle;
use cpsmon_core::stream::MonitorSession;
use cpsmon_core::{
    DatasetBuilder, GuardPolicy, HealthState, LabeledDataset, MonitorKind, PipelineSession,
    TrainConfig,
};
use cpsmon_serve::{
    IngestItem, IngestKind, OutEvent, ServiceHealth, ServingBundle, Shard, ShardConfig,
};
use cpsmon_sim::{CampaignConfig, SimulatorKind, StepRecord};

/// An MLP bundle trained on its own `seed`ed campaign, so bundles of
/// different seeds differ in normalizer as well as weights.
fn mlp_bundle(seed: u64) -> MonitorBundle {
    let traces = CampaignConfig::new(SimulatorKind::Glucosym)
        .patients(2)
        .runs_per_patient(2)
        .steps(144)
        .fault_ratio(0.5)
        .seed(seed)
        .run();
    let ds: LabeledDataset = DatasetBuilder::new().seed(seed).build(&traces).unwrap();
    let cfg = TrainConfig::quick_test();
    let monitor = MonitorKind::Mlp.train(&ds, &cfg).unwrap();
    MonitorBundle::new(monitor, &ds, &cfg)
}

fn serve_traces(patients: usize, steps: usize) -> Vec<Vec<StepRecord>> {
    CampaignConfig::new(SimulatorKind::Glucosym)
        .patients(patients)
        .runs_per_patient(1)
        .steps(steps)
        .fault_ratio(0.3)
        .seed(77)
        .run()
        .into_iter()
        .map(|t| t.records().to_vec())
        .collect()
}

fn step(patient: u64, seq: usize, rec: StepRecord) -> IngestItem {
    IngestItem {
        conn: 1,
        patient,
        seq: seq as u32,
        kind: IngestKind::Step(rec),
    }
}

/// `(step, label, proba, health)` per verdict, as the wire carries them.
type Flat = (u32, u8, f64, u8);

fn offline_replay(bundle: &MonitorBundle, records: &[StepRecord]) -> Vec<Flat> {
    let serving = ServingBundle::new(bundle.clone());
    let core = MonitorSession::new(
        &bundle.monitor,
        serving.feature_config(),
        bundle.normalizer.clone(),
    );
    let mut session =
        PipelineSession::new(core).with_guard(GuardPolicy::aps(), *serving.fallback());
    records
        .iter()
        .filter_map(|rec| session.step(rec))
        .map(|gv| {
            let health = match gv.health {
                HealthState::Healthy => 0,
                HealthState::Degraded => 1,
                HealthState::Fallback => 2,
            };
            let v = gv.verdict;
            (v.step as u32, v.label as u8, v.proba, health)
        })
        .collect()
}

fn verdicts_of(events: &[OutEvent], who: u64) -> Vec<Flat> {
    events
        .iter()
        .filter_map(|e| match *e {
            OutEvent::Verdict {
                patient,
                step,
                label,
                proba,
                health,
                ..
            } if patient == who => Some((step, label, proba, health)),
            _ => None,
        })
        .collect()
}

#[test]
fn last_step_and_end_in_one_tick_keep_the_verdict_and_free_a_clean_slot() {
    let bundle = mlp_bundle(41);
    let traces = serve_traces(2, 40);
    // Patient 0 loses its CGM for its last 12 records, so its guard ends
    // in Fallback; a slot reused without a reset would carry that over.
    let mut first = traces[0].clone();
    let n = first.len();
    for rec in &mut first[n - 12..] {
        rec.bg_sensor = f64::NAN;
    }
    let second = &traces[1][..12];

    // One slot only: patient 1 can be admitted solely into the slot
    // patient 0's End frees.
    let config = ShardConfig {
        max_sessions: 1,
        ..ShardConfig::default()
    };
    let mut shard = Shard::new(config, ServingBundle::new(bundle.clone()));
    for (k, rec) in first[..n - 1].iter().enumerate() {
        shard.offer(step(0, k, *rec)).unwrap();
    }
    let mut events = shard.tick();

    // One tick: patient 0's last step, its End, then patient 1.
    shard.offer(step(0, n - 1, first[n - 1])).unwrap();
    shard
        .offer(IngestItem {
            conn: 1,
            patient: 0,
            seq: n as u32,
            kind: IngestKind::End,
        })
        .unwrap();
    for (k, rec) in second.iter().enumerate() {
        shard.offer(step(1, k, *rec)).unwrap();
    }
    let last_tick = shard.tick();
    assert!(
        !last_tick
            .iter()
            .any(|e| matches!(e, OutEvent::SessionRefused { .. })),
        "the freed slot admits patient 1"
    );
    events.extend(last_tick);
    assert_eq!(shard.sessions(), 1);
    assert_eq!(shard.stats().sessions_closed, 1);

    let got0 = verdicts_of(&events, 0);
    assert_eq!(got0, offline_replay(&bundle, &first), "patient 0");
    assert_eq!(
        got0.last().map(|v| (v.0, v.3)),
        Some(((n - 1) as u32, 2)),
        "the closing tick still emits the last step, in Fallback"
    );

    let got1 = verdicts_of(&events, 1);
    assert_eq!(got1, offline_replay(&bundle, second), "patient 1");
    let window = ServingBundle::new(bundle).feature_config().window;
    assert_eq!(
        got1.first().map(|v| v.0),
        Some(window as u32 - 1),
        "patient 1 starts from an empty window"
    );
}

#[test]
fn idle_ticks_walk_a_shedding_shard_back_to_healthy() {
    let bundle = mlp_bundle(41);
    let traces = serve_traces(8, 60);
    let config = ShardConfig {
        queue_cap: 256,
        drain_max: 64,
        max_sessions: 64,
        ..ShardConfig::default()
    };
    let mut shard = Shard::new(config, ServingBundle::new(bundle));
    assert!(!shard.needs_tick(), "a fresh shard is idle and Healthy");

    // A burst at 4× the drain budget fills the queue past shed_pressure.
    let items: Vec<IngestItem> = (0..60)
        .flat_map(|k| (0..8).map(move |p| (p, k)))
        .map(|(p, k)| step(p as u64, k, traces[p][k]))
        .collect();
    let mut shed_seen = false;
    for chunk in items.chunks(4 * config.drain_max) {
        for item in chunk {
            let _ = shard.offer(*item);
        }
        shard.tick();
        shed_seen |= shard.health() == ServiceHealth::Shedding;
    }
    assert!(shed_seen, "the burst must drive the shard to Shedding");
    while shard.queue_len() > 0 {
        shard.tick();
    }
    assert_ne!(shard.health(), ServiceHealth::Healthy);
    assert!(shard.needs_tick(), "a recovering shard keeps ticking");

    let budget = 2 * config.overload.recovery_intervals;
    let mut idle = 0;
    while shard.needs_tick() {
        let events = shard.tick();
        assert!(events.is_empty(), "idle ticks emit nothing: {events:?}");
        idle += 1;
        assert!(idle <= budget, "recovery exceeded 2 × recovery_intervals");
    }
    assert_eq!(shard.health(), ServiceHealth::Healthy);
    assert_eq!(shard.queue_len(), 0);
}

#[test]
fn a_reload_reaches_slots_freed_before_it() {
    let bundle_a = mlp_bundle(41);
    let bundle_b = mlp_bundle(43);
    assert_ne!(bundle_a.normalizer, bundle_b.normalizer);
    let traces = serve_traces(2, 30);
    let config = ShardConfig {
        max_sessions: 1,
        ..ShardConfig::default()
    };
    let mut shard = Shard::new(config, ServingBundle::new(bundle_a));
    for (k, rec) in traces[0].iter().enumerate() {
        shard.offer(step(0, k, *rec)).unwrap();
    }
    shard
        .offer(IngestItem {
            conn: 1,
            patient: 0,
            seq: traces[0].len() as u32,
            kind: IngestKind::End,
        })
        .unwrap();
    shard.tick();
    assert_eq!(shard.sessions(), 0, "patient 0's slot is free");

    shard
        .install_bundle(ServingBundle::new(bundle_b.clone()))
        .expect("same feature width");
    for (k, rec) in traces[1].iter().enumerate() {
        shard.offer(step(1, k, *rec)).unwrap();
    }
    let events = shard.tick();
    assert_eq!(
        verdicts_of(&events, 1),
        offline_replay(&bundle_b, &traces[1]),
        "the reused slot normalizes with the installed bundle"
    );
}
