//! Knowledge-only monitoring: evaluate the Table I safety rules on a
//! live simulation trace, step by step, with rule-level explanations.
//!
//! ```sh
//! cargo run --release --example rule_monitor
//! ```

use cpsmon::sim::faults::{PumpFault, PumpFaultKind};
use cpsmon::sim::glucosym::GlucosymPatient;
use cpsmon::sim::meal::MealSchedule;
use cpsmon::sim::openaps::OpenApsController;
use cpsmon::sim::pump::InsulinPump;
use cpsmon::sim::sensor::Cgm;
use cpsmon::sim::{ClosedLoop, HazardConfig};
use cpsmon::stl::{ApsContext, Command, RuleMonitor, TABLE_I};
use cpsmon_nn::rng::SmallRng;

fn main() {
    // One 12-hour run with a pump-suspension attack at 10:00.
    let patient = GlucosymPatient::from_profile(0, 42);
    let fault = PumpFault {
        kind: PumpFaultKind::Suspend,
        start_step: 120,
        duration_steps: 24,
    };
    let mut rng = SmallRng::new(5);
    let meals = MealSchedule::generate(144, &mut rng);
    let trace = ClosedLoop::new(
        patient,
        OpenApsController::new(),
        InsulinPump::with_fault(fault),
        Cgm::typical(rng.fork(1)),
        meals,
    )
    .run(144, "glucosym", 0, 0);

    // Print the rule table in STL notation, then monitor the trace with it.
    let monitor = RuleMonitor::default();
    println!("Table I safety rules:");
    for rule in &TABLE_I {
        let formula = monitor.rules().formula(rule);
        println!("  rule {:>2} ({}): {formula}", rule.id, rule.hazard);
    }

    let hazards = HazardConfig::default();
    let records = trace.records();
    let mut alarms = 0;
    println!("\nstep  BG(sensor)  rate  verdict");
    for (t, r) in records.iter().enumerate().skip(1) {
        let prev = &records[t - 1];
        let ctx = ApsContext {
            bg: r.bg_sensor,
            dbg: r.bg_sensor - prev.bg_sensor,
            diob: r.iob - prev.iob,
            command: Command::from_rate_change(
                r.delivered_rate,
                r.delivered_rate - prev.delivered_rate,
                0.05,
            ),
        };
        if let Some(rule_id) = monitor.explain(&ctx) {
            alarms += 1;
            // Only print the first alarm of each contiguous burst.
            if alarms == 1 || t % 12 == 0 {
                println!(
                    "{t:>4}  {:>10.1}  {:>4.2}  UNSAFE (rule {rule_id})",
                    r.bg_sensor, r.delivered_rate
                );
            }
        }
    }
    let labels = hazards.labels(&trace);
    println!(
        "\n{alarms} unsafe-control-action alarms; {} steps actually lead to a hazard within 60 min",
        labels.iter().sum::<usize>()
    );
}
