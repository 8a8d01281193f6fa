//! Service-level overload state machine.
//!
//! [`OverloadController`] generalizes the per-session
//! [`cpsmon_core::HealthState`] ladder to the whole shard: instead of
//! watching one session's sensor staleness, it watches ingest-queue
//! pressure and tick-deadline overruns, and decides when the shard
//! trades ML inference for the always-cheap Table-I rule path.
//!
//! Escalation is immediate (a saturated queue must shed *now*),
//! de-escalation is hysteretic (one level per
//! [`OverloadPolicy::recovery_intervals`] consecutive calm
//! observations), so a fleet oscillating around the shed threshold does
//! not flap between code paths. Full recovery from `Shedding` therefore
//! takes at most `2 × recovery_intervals` calm ticks — the "hysteresis
//! budget" asserted by the chaos tests.

use std::fmt;

/// Shard-level serving condition, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceHealth {
    /// Nominal: every session gets its configured monitor.
    Healthy,
    /// Elevated pressure: serving normally, but the controller is one
    /// sustained spike away from shedding; operators should scale out.
    Degraded,
    /// Overloaded: ML inference is shed and all verdicts come from the
    /// rule path until pressure drains.
    Shedding,
}

impl ServiceHealth {
    /// Stable lowercase token for logs, CSV columns, and `/stats`.
    pub fn label(self) -> &'static str {
        match self {
            ServiceHealth::Healthy => "healthy",
            ServiceHealth::Degraded => "degraded",
            ServiceHealth::Shedding => "shedding",
        }
    }
}

impl fmt::Display for ServiceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Thresholds governing the overload state machine. Pressures are
/// post-drain queue occupancy fractions in `[0, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct OverloadPolicy {
    /// At or above this pressure the shard reports `Degraded`.
    pub degrade_pressure: f64,
    /// At or above this pressure the shard jumps straight to `Shedding`.
    pub shed_pressure: f64,
    /// Recovery credit only accrues strictly below this pressure; the
    /// gap between `recover_pressure` and `degrade_pressure` is the
    /// hysteresis band.
    pub recover_pressure: f64,
    /// Consecutive calm observations needed to step down one severity
    /// level.
    pub recovery_intervals: u32,
    /// Consecutive deadline-overrun ticks that force `Shedding` even at
    /// low queue pressure (the queue can be short while each tick blows
    /// its budget, e.g. a pathological bundle).
    pub overrun_intervals: u32,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy {
            degrade_pressure: 0.5,
            shed_pressure: 0.9,
            recover_pressure: 0.25,
            recovery_intervals: 6,
            overrun_intervals: 3,
        }
    }
}

/// Closed-loop controller: feed it one observation per shard tick, read
/// back the [`ServiceHealth`] the *next* tick must serve under.
///
/// Pure state machine — no clock, no IO — so chaos experiments replay
/// identical decision sequences from identical load traces.
#[derive(Debug, Clone)]
pub struct OverloadController {
    policy: OverloadPolicy,
    state: ServiceHealth,
    calm_streak: u32,
    overrun_streak: u32,
    transitions: u64,
    shed_ticks: u64,
    ticks: u64,
}

impl OverloadController {
    /// A controller starting `Healthy` under `policy`.
    pub fn new(policy: OverloadPolicy) -> Self {
        OverloadController {
            policy,
            state: ServiceHealth::Healthy,
            calm_streak: 0,
            overrun_streak: 0,
            transitions: 0,
            shed_ticks: 0,
            ticks: 0,
        }
    }

    /// The condition the shard is currently serving under.
    pub fn health(&self) -> ServiceHealth {
        self.state
    }

    /// The governing policy.
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
    }

    /// Total state transitions observed (flap indicator for `/stats`).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Ticks spent in `Shedding` over the controller's lifetime.
    pub fn shed_ticks(&self) -> u64 {
        self.shed_ticks
    }

    /// Total observations fed in.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Records one end-of-tick observation and returns the health the
    /// next tick must serve under. `pressure` is post-drain queue
    /// occupancy / capacity; `deadline_overrun` is whether this tick
    /// exceeded its step budget.
    pub fn observe(&mut self, pressure: f64, deadline_overrun: bool) -> ServiceHealth {
        self.ticks += 1;
        if self.state == ServiceHealth::Shedding {
            self.shed_ticks += 1;
        }
        if deadline_overrun {
            self.overrun_streak = self.overrun_streak.saturating_add(1);
        } else {
            self.overrun_streak = 0;
        }

        let p = &self.policy;
        // Escalation is immediate and clears any recovery credit.
        let escalated = if pressure >= p.shed_pressure || self.overrun_streak >= p.overrun_intervals
        {
            Some(ServiceHealth::Shedding)
        } else if pressure >= p.degrade_pressure {
            Some(ServiceHealth::Degraded)
        } else {
            None
        };
        if let Some(target) = escalated {
            self.calm_streak = 0;
            if target > self.state {
                self.set(target);
            }
            return self.state;
        }

        // Calm tick: accrue recovery credit, step down one level at a
        // time once the streak fills.
        if pressure < p.recover_pressure && !deadline_overrun {
            self.calm_streak = self.calm_streak.saturating_add(1);
            if self.calm_streak >= p.recovery_intervals && self.state != ServiceHealth::Healthy {
                let next = match self.state {
                    ServiceHealth::Shedding => ServiceHealth::Degraded,
                    _ => ServiceHealth::Healthy,
                };
                self.set(next);
                self.calm_streak = 0;
            }
        } else {
            // In the hysteresis band: hold state, reset credit.
            self.calm_streak = 0;
        }
        self.state
    }

    fn set(&mut self, next: ServiceHealth) {
        if next != self.state {
            self.state = next;
            self.transitions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> OverloadController {
        OverloadController::new(OverloadPolicy::default())
    }

    #[test]
    fn escalates_immediately_on_saturation() {
        let mut c = controller();
        assert_eq!(c.observe(0.95, false), ServiceHealth::Shedding);
        assert_eq!(c.transitions(), 1);
    }

    #[test]
    fn degrades_then_sheds_then_recovers_one_level_at_a_time() {
        let mut c = controller();
        assert_eq!(c.observe(0.6, false), ServiceHealth::Degraded);
        assert_eq!(c.observe(0.92, false), ServiceHealth::Shedding);
        // Six calm ticks step down to Degraded, six more to Healthy.
        for _ in 0..5 {
            assert_eq!(c.observe(0.1, false), ServiceHealth::Shedding);
        }
        assert_eq!(c.observe(0.1, false), ServiceHealth::Degraded);
        for _ in 0..5 {
            assert_eq!(c.observe(0.1, false), ServiceHealth::Degraded);
        }
        assert_eq!(c.observe(0.1, false), ServiceHealth::Healthy);
    }

    #[test]
    fn hysteresis_band_holds_state_without_credit() {
        let mut c = controller();
        c.observe(0.95, false);
        // 0.3 is below degrade but above recover: hold Shedding forever.
        for _ in 0..50 {
            assert_eq!(c.observe(0.3, false), ServiceHealth::Shedding);
        }
        // A single spike resets an almost-complete calm streak.
        for _ in 0..5 {
            c.observe(0.1, false);
        }
        c.observe(0.6, false);
        for _ in 0..5 {
            assert_eq!(c.observe(0.1, false), ServiceHealth::Shedding);
        }
        assert_eq!(c.observe(0.1, false), ServiceHealth::Degraded);
    }

    #[test]
    fn sustained_overruns_force_shedding_at_low_pressure() {
        let mut c = controller();
        assert_eq!(c.observe(0.0, true), ServiceHealth::Healthy);
        assert_eq!(c.observe(0.0, true), ServiceHealth::Healthy);
        assert_eq!(c.observe(0.0, true), ServiceHealth::Shedding);
    }

    #[test]
    fn overrun_during_calm_blocks_recovery_credit() {
        let mut c = controller();
        c.observe(0.95, false);
        for _ in 0..4 {
            c.observe(0.1, false);
        }
        c.observe(0.1, true); // overrun wipes the streak
        for _ in 0..5 {
            assert_eq!(c.observe(0.1, false), ServiceHealth::Shedding);
        }
        assert_eq!(c.observe(0.1, false), ServiceHealth::Degraded);
    }

    #[test]
    fn full_recovery_fits_the_hysteresis_budget() {
        let p = OverloadPolicy::default();
        let mut c = OverloadController::new(p);
        c.observe(1.0, false);
        let mut calm = 0u32;
        while c.health() != ServiceHealth::Healthy {
            c.observe(0.0, false);
            calm += 1;
            assert!(calm <= 2 * p.recovery_intervals, "recovery exceeded budget");
        }
        assert_eq!(calm, 2 * p.recovery_intervals);
    }
}
