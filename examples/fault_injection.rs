//! Sensor fault injection + graceful degradation, end to end: train a
//! monitor, corrupt a held-out trace with a seeded
//! [`FaultPlan`](cpsmon::sim::faults::FaultPlan) (a CGM dropout burst
//! followed by a stuck-at window), and replay the corrupted stream through
//! a guarded [`PipelineSession`](cpsmon::core::PipelineSession). The guard imputes
//! the bad samples, degrades to the Table I rule monitor when its
//! staleness budget is exhausted, and recovers automatically once the
//! sensor comes back — every health transition is printed as it happens.
//!
//! Injection is seed-deterministic: rerunning this example reproduces the
//! same corrupted samples, verdicts, and transitions bit for bit.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use cpsmon::core::{
    DatasetBuilder, GuardPolicy, HealthState, MonitorKind, MonitorSession, PipelineSession,
    TrainConfig,
};
use cpsmon::sim::faults::{ChannelFault, FaultModel, FaultPlan, SensorChannel};
use cpsmon::sim::{CampaignConfig, SimulatorKind};
use cpsmon::stl::RuleMonitor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train an MLP monitor on a small mixed campaign.
    let traces = CampaignConfig::new(SimulatorKind::Glucosym)
        .patients(3)
        .runs_per_patient(4)
        .steps(144)
        .fault_ratio(0.5)
        .seed(23)
        .run();
    let dataset = DatasetBuilder::new().build(&traces)?;
    let config = TrainConfig {
        epochs: 10,
        lr: 2e-3,
        mlp_hidden: vec![64, 32],
        ..TrainConfig::default()
    };
    let monitor = MonitorKind::Mlp.train(&dataset, &config)?;

    // Corrupt the CGM channel of one clean trace: a 12-step dropout burst
    // (samples replaced by NaN with p = 0.7), then a 18-step stuck-at
    // window. Both faults draw from the plan's seeded RNG, so the
    // corruption pattern is a pure function of (seed, trace identity).
    let trace = &traces[0];
    let plan = FaultPlan::new(0xFA17)
        .with(ChannelFault::new(
            SensorChannel::BgSensor,
            FaultModel::Dropout { p: 0.7 },
            40,
            12,
        ))
        .with(ChannelFault::new(
            SensorChannel::BgSensor,
            FaultModel::StuckAt { duration: 18 },
            90,
            18,
        ));
    let faulted = plan.inject(trace);
    let corrupted = trace
        .records()
        .iter()
        .zip(faulted.records())
        .filter(|(a, b)| a.bg_sensor.to_bits() != b.bg_sensor.to_bits())
        .count();
    println!(
        "injected faults into {corrupted}/{} CGM samples of trace {}/{}\n",
        trace.len(),
        trace.patient_id,
        trace.run_id
    );

    // Replay the corrupted stream through a guarded session and narrate
    // every health transition.
    let mut session = PipelineSession::new(MonitorSession::for_dataset(&monitor, &dataset))
        .with_guard(GuardPolicy::aps(), RuleMonitor::new(dataset.rules));
    let mut health = HealthState::Healthy;
    let mut imputed_steps = 0;
    let mut fallback_alarms = 0;
    for (step, rec) in faulted.records().iter().enumerate() {
        let Some(v) = session.step(rec) else { continue };
        if v.imputed {
            imputed_steps += 1;
        }
        if v.health == HealthState::Fallback && v.verdict.label == 1 {
            fallback_alarms += 1;
        }
        if v.health != health {
            println!(
                "step {step:>3}: {} -> {}  (raw BG = {:>8.2}, p_unsafe = {:.3})",
                health.label(),
                v.health.label(),
                rec.bg_sensor,
                v.verdict.proba
            );
            health = v.health;
        }
    }
    println!(
        "\n{imputed_steps} steps served on imputed inputs, \
         {fallback_alarms} alarms raised by the rule-based fallback"
    );
    assert_eq!(
        session.health(),
        HealthState::Healthy,
        "guard should recover once the sensor stream is clean again"
    );
    println!(
        "guard recovered to {} by end of trace",
        session.health().label()
    );
    Ok(())
}
