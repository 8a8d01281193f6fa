//! Regression tests for guard reset semantics at trace boundaries.
//!
//! A deployed monitor is reused across patient hand-overs: the session is
//! `reset` between traces. The guard's degradation state machine carries
//! three kinds of per-trace state — per-channel staleness runs, the
//! session health, and the clean-step recovery counter — and a reset that
//! forgets any one of them but not the others leaks the old trace's
//! trouble into the new one. The sharpest edge: a session that entered
//! [`HealthState::Fallback`] and was *mid-recovery* (clean-step counter
//! partially filled) when the reset landed must come back with a full
//! staleness budget and no recovery debt.

use cpsmon_core::guard::{GuardPolicy, HealthState, InputGuard};
use cpsmon_sim::trace::StepRecord;

fn rec(bg: f64) -> StepRecord {
    StepRecord {
        bg_true: bg,
        bg_sensor: bg,
        iob: 1.0,
        commanded_rate: 1.0,
        delivered_rate: 1.0,
        carbs: 0.0,
    }
}

/// Unique-bits clean sample per step (defeats freeze detection).
fn clean(step: usize) -> StepRecord {
    rec(120.0 + step as f64 * 0.25)
}

fn nan_bg(step: usize) -> StepRecord {
    let mut r = clean(step);
    r.bg_sensor = f64::NAN;
    r
}

/// Drives a guard into Fallback, then partway through recovery.
fn drive_to_mid_recovery(guard: &mut InputGuard) {
    let p = *guard.policy();
    guard.sanitize(&clean(0));
    for t in 0..p.staleness_budget + 2 {
        guard.sanitize(&nan_bg(1 + t));
    }
    assert_eq!(guard.health(), HealthState::Fallback);
    // A *partial* clean run: recovery counter spans the reset below.
    for t in 0..p.recovery_steps - 2 {
        guard.sanitize(&clean(100 + t));
        assert_eq!(guard.health(), HealthState::Fallback, "still on probation");
    }
}

#[test]
fn reset_mid_recovery_restores_full_staleness_budget() {
    let policy = GuardPolicy::aps();
    let mut guard = InputGuard::new(policy);
    drive_to_mid_recovery(&mut guard);
    guard.reset();
    assert_eq!(guard.health(), HealthState::Healthy);
    // Next trace: the full budget must be available again. With a stale
    // budget the session would hit Fallback `recovery-deficit` steps
    // early.
    guard.sanitize(&clean(0));
    for t in 0..policy.staleness_budget {
        let (_, status) = guard.sanitize(&nan_bg(1 + t));
        assert_eq!(
            status.health,
            HealthState::Degraded,
            "imputed step {t} within a fresh budget must be Degraded, not Fallback"
        );
    }
    let (_, status) = guard.sanitize(&nan_bg(99));
    assert_eq!(status.health, HealthState::Fallback, "budget spent again");
}

#[test]
fn reset_mid_recovery_owes_no_probation_on_next_trace() {
    let mut guard = InputGuard::new(GuardPolicy::aps());
    drive_to_mid_recovery(&mut guard);
    guard.reset();
    // A single imputed blip in the new trace must read as Degraded and
    // clear on the next clean step — no leftover Fallback probation.
    guard.sanitize(&clean(0));
    let (_, s) = guard.sanitize(&nan_bg(1));
    assert_eq!(s.health, HealthState::Degraded);
    let (_, s) = guard.sanitize(&clean(2));
    assert_eq!(
        s.health,
        HealthState::Healthy,
        "no recovery debt after reset"
    );
}
