//! Table I of the paper: context-dependent safety specifications for APS.
//!
//! Each rule describes a system context (blood glucose `BG`, its trend
//! `BG' = dBG/dt`, insulin-on-board trend `IOB' = dIOB/dt`) under which a
//! control action `u₁…u₄` is *unsafe* and would contribute to one of two
//! hazards:
//!
//! - **H1** — too much insulin → BG falls → hypoglycemia;
//! - **H2** — too little insulin → BG rises → hyperglycemia.
//!
//! Every rule is a conjunction of atoms over one aggregated context, so the
//! table is written once, as data: [`TABLE_I`] holds one row of atoms per
//! rule, and an [`ApsRules`] supplies the thresholds at evaluation time.
//! [`ApsRules::violated_rule`] finds the rule that fires (for explanations
//! and the closed-loop mitigator), and [`ApsRules::violated`], the Eq. 2
//! indicator and the rule-based monitor's verdict, asks whether one does.
//! [`ApsRules::hazard_of`], [`ApsRules::formula`] (the rows in the paper's
//! STL notation) and the mitigator's falling-BG, rising-IOB test read the
//! same rows and atoms.

use std::fmt;

/// The four discrete control actions a monitor distinguishes (per Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// `u₁` — decrease the insulin rate.
    DecreaseInsulin,
    /// `u₂` — increase the insulin rate.
    IncreaseInsulin,
    /// `u₃` — stop insulin delivery entirely.
    StopInsulin,
    /// `u₄` — keep the current insulin rate.
    KeepInsulin,
}

impl Command {
    /// All four commands, in `u₁..u₄` order.
    pub const ALL: [Command; 4] = [
        Command::DecreaseInsulin,
        Command::IncreaseInsulin,
        Command::StopInsulin,
        Command::KeepInsulin,
    ];

    /// Index in `u₁..u₄` order (0-based).
    pub fn index(self) -> usize {
        match self {
            Command::DecreaseInsulin => 0,
            Command::IncreaseInsulin => 1,
            Command::StopInsulin => 2,
            Command::KeepInsulin => 3,
        }
    }

    /// Classifies a pump-rate transition into a command: `rate == 0` is
    /// *stop*; otherwise the sign of `delta` picks decrease/increase/keep.
    pub fn from_rate_change(rate: f64, delta: f64, eps: f64) -> Command {
        if rate <= eps {
            Command::StopInsulin
        } else if delta > eps {
            Command::IncreaseInsulin
        } else if delta < -eps {
            Command::DecreaseInsulin
        } else {
            Command::KeepInsulin
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Command::DecreaseInsulin => "decrease_insulin",
            Command::IncreaseInsulin => "increase_insulin",
            Command::StopInsulin => "stop_insulin",
            Command::KeepInsulin => "keep_insulin",
        };
        f.write_str(s)
    }
}

/// Hazard classes of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HazardType {
    /// Too much insulin → hypoglycemia risk.
    H1,
    /// Too little insulin → hyperglycemia risk.
    H2,
}

impl fmt::Display for HazardType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HazardType::H1 => f.write_str("H1"),
            HazardType::H2 => f.write_str("H2"),
        }
    }
}

/// The `BG` atom of a Table I row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BgAtom {
    /// `BG > BGT`.
    High,
    /// `BG < BGT`.
    Low,
    /// `BG < hypo` (rule 10).
    Hypo,
}

impl BgAtom {
    /// Truth of the atom for `bg` under `rules`' thresholds.
    pub fn holds(self, rules: &ApsRules, bg: f64) -> bool {
        match self {
            BgAtom::High => bg > rules.bgt,
            BgAtom::Low => bg < rules.bgt,
            BgAtom::Hypo => bg < rules.hypo,
        }
    }
}

/// The `BG'` atom of a Table I row, outside the
/// [`ApsRules::bg_trend_eps`] deadband.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendAtom {
    /// `BG' > 0`, read as `dbg > bg_trend_eps`.
    Rising,
    /// `BG' < 0`, read as `dbg < -bg_trend_eps`.
    Falling,
}

impl TrendAtom {
    /// Truth of the atom for `dbg` under `rules`' deadband.
    pub fn holds(self, rules: &ApsRules, dbg: f64) -> bool {
        match self {
            TrendAtom::Rising => dbg > rules.bg_trend_eps,
            TrendAtom::Falling => dbg < -rules.bg_trend_eps,
        }
    }
}

/// The `IOB'` atom of a Table I row, with the [`ApsRules::iob_eps`]
/// tolerance standing in for zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IobAtom {
    /// `IOB' > 0`, read as `diob > iob_eps`.
    Up,
    /// `IOB' < 0`, read as `diob < -iob_eps`.
    Down,
    /// `IOB' = 0`, read as `|diob| <= iob_eps`.
    Flat,
    /// `IOB' ≤ 0` (rule 11), read as `diob <= iob_eps`.
    NotUp,
    /// `IOB' ≥ 0` (rule 12), read as `diob >= -iob_eps`.
    NotDown,
}

impl IobAtom {
    /// Truth of the atom for `diob` under `rules`' tolerance.
    pub fn holds(self, rules: &ApsRules, diob: f64) -> bool {
        let eps = rules.iob_eps;
        match self {
            IobAtom::Up => diob > eps,
            IobAtom::Down => diob < -eps,
            IobAtom::Flat => diob.abs() <= eps,
            IobAtom::NotUp => diob <= eps,
            IobAtom::NotDown => diob >= -eps,
        }
    }
}

/// The command atom of a Table I row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandAtom {
    /// This one command.
    Is(Command),
    /// Any command but [`Command::StopInsulin`] (rule 10).
    AnyButStop,
}

impl CommandAtom {
    /// Truth of the atom for `command`.
    pub fn holds(self, command: Command) -> bool {
        match self {
            CommandAtom::Is(c) => command == c,
            CommandAtom::AnyButStop => command != Command::StopInsulin,
        }
    }
}

/// One row of Table I: the conjunction of its atoms makes the command
/// unsafe. `None` leaves the trend or `IOB'` unconstrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyRule {
    /// Rule number (1–12, matching Table I).
    pub id: usize,
    /// The `BG` atom.
    pub bg: BgAtom,
    /// The `BG'` atom, if any.
    pub trend: Option<TrendAtom>,
    /// The `IOB'` atom, if any.
    pub iob: Option<IobAtom>,
    /// The command atom.
    pub command: CommandAtom,
    /// Hazard the unsafe action would contribute to.
    pub hazard: HazardType,
}

impl SafetyRule {
    /// Does this rule fire on `ctx` under `rules`' thresholds?
    fn fires(&self, rules: &ApsRules, ctx: &ApsContext) -> bool {
        self.command.holds(ctx.command)
            && self.bg.holds(rules, ctx.bg)
            && self.trend.is_none_or(|t| t.holds(rules, ctx.dbg))
            && self.iob.is_none_or(|i| i.holds(rules, ctx.diob))
    }
}

/// The 12 rules of Table I, in id order.
pub const TABLE_I: [SafetyRule; 12] = {
    use BgAtom::{High, Hypo, Low};
    use Command::{
        DecreaseInsulin as U1, IncreaseInsulin as U2, KeepInsulin as U4, StopInsulin as U3,
    };
    use CommandAtom::{AnyButStop, Is};
    use HazardType::{H1, H2};
    use IobAtom::{Down, Flat, NotDown, NotUp, Up};
    use TrendAtom::{Falling, Rising};
    const fn rule(
        id: usize,
        bg: BgAtom,
        trend: Option<TrendAtom>,
        iob: Option<IobAtom>,
        command: CommandAtom,
        hazard: HazardType,
    ) -> SafetyRule {
        SafetyRule {
            id,
            bg,
            trend,
            iob,
            command,
            hazard,
        }
    }
    [
        rule(1, High, Some(Rising), Some(Down), Is(U1), H2),
        rule(2, High, Some(Rising), Some(Flat), Is(U1), H2),
        rule(3, High, Some(Falling), Some(Up), Is(U1), H2),
        rule(4, High, Some(Falling), Some(Down), Is(U1), H2),
        rule(5, High, Some(Falling), Some(Flat), Is(U1), H2),
        rule(6, Low, Some(Falling), Some(Up), Is(U2), H1),
        rule(7, Low, Some(Falling), Some(Down), Is(U2), H1),
        rule(8, Low, Some(Falling), Some(Flat), Is(U2), H1),
        rule(9, High, None, None, Is(U3), H2),
        rule(10, Hypo, None, None, AnyButStop, H1),
        rule(11, High, Some(Rising), Some(NotUp), Is(U4), H2),
        rule(12, Low, Some(Falling), Some(NotDown), Is(U4), H1),
    ]
};

/// The aggregated system context a rule is evaluated against.
///
/// Matches Eq. 2's `f(μ(X_t))`: window-aggregated state estimates plus the
/// control command issued at the end of the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApsContext {
    /// Blood glucose estimate (mg/dL).
    pub bg: f64,
    /// BG trend `dBG/dt` (mg/dL per step).
    pub dbg: f64,
    /// IOB trend `dIOB/dt` (U per step).
    pub diob: f64,
    /// The control action under scrutiny.
    pub command: Command,
}

/// Parameters of the Table I rule set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApsRules {
    /// BG target value `BGT` (mg/dL). The controllers drive BG here.
    pub bgt: f64,
    /// Hypoglycemia threshold used by rule 10 (mg/dL).
    pub hypo: f64,
    /// Tolerance band for the `IOB' = 0` contexts.
    pub iob_eps: f64,
    /// Deadband for the BG trend (mg/dL per step): `BG' > 0` means
    /// `dbg > bg_trend_eps`, `BG' < 0` means `dbg < -bg_trend_eps`. Table I
    /// writes exact sign tests, but on noisy sampled CGM data a literal
    /// sign test turns sensor jitter into rule verdicts; the deadband is
    /// the same concession the table itself makes for `IOB' = 0`.
    pub bg_trend_eps: f64,
}

impl Default for ApsRules {
    fn default() -> Self {
        Self {
            bgt: 120.0,
            hypo: 70.0,
            iob_eps: 1e-3,
            bg_trend_eps: 1.5,
        }
    }
}

impl ApsRules {
    /// Fast direct evaluation: does *any* of the 12 rules fire for `ctx`?
    ///
    /// This is the Eq. 2 indicator `I(⋁_Φh f(μ(X_t)) ⊨ Φ_h)`.
    pub fn violated(&self, ctx: &ApsContext) -> bool {
        self.violated_rule(ctx).is_some()
    }

    /// Like [`violated`](Self::violated) but reports *which* rule fired,
    /// for explainability: the first matching row of the command-specific
    /// rules in id order, then the catch-all rule 10.
    pub fn violated_rule(&self, ctx: &ApsContext) -> Option<usize> {
        let catch_all = |r: &&SafetyRule| r.command == CommandAtom::AnyButStop;
        TABLE_I
            .iter()
            .filter(|r| !catch_all(r))
            .chain(TABLE_I.iter().filter(catch_all))
            .find(|r| r.fires(self, ctx))
            .map(|r| r.id)
    }

    /// Hazard class of Table I rule `id` (rules 6–8, 10 and 12 are the
    /// too-much-insulin H1 contexts).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a rule number (1–12).
    pub fn hazard_of(id: usize) -> HazardType {
        TABLE_I[id - 1].hazard
    }

    /// `rule` in the paper's STL notation under these thresholds, with the
    /// commands as 0/1-valued signals `u1`…`u4`.
    pub fn formula(&self, rule: &SafetyRule) -> impl fmt::Display {
        Formula {
            rules: *self,
            rule: *rule,
        }
    }
}

/// A Table I row printed in the paper's STL notation; see
/// [`ApsRules::formula`].
struct Formula {
    rules: ApsRules,
    rule: SafetyRule,
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ApsRules {
            bgt,
            hypo,
            iob_eps: eps,
            bg_trend_eps: teps,
        } = self.rules;
        let bg = match self.rule.bg {
            BgAtom::High => format!("(bg > {bgt})"),
            BgAtom::Low => format!("(bg < {bgt})"),
            BgAtom::Hypo => format!("(bg < {hypo})"),
        };
        let trend = self.rule.trend.map(|t| match t {
            TrendAtom::Rising => format!("(dbg > {teps})"),
            TrendAtom::Falling => format!("(dbg < {})", -teps),
        });
        let iob = self.rule.iob.map(|i| match i {
            IobAtom::Up => format!("(diob > {eps})"),
            IobAtom::Down => format!("(diob < {})", -eps),
            IobAtom::Flat => format!("((diob <= {eps}) ∧ (diob >= {}))", -eps),
            IobAtom::NotUp => format!("(diob <= {eps})"),
            IobAtom::NotDown => format!("(diob >= {})", -eps),
        });
        let command = match self.rule.command {
            CommandAtom::Is(c) => format!("(u{} > 0.5)", c.index() + 1),
            CommandAtom::AnyButStop => "¬(u3 > 0.5)".to_string(),
        };
        let atoms: Vec<String> = [Some(bg), trend, iob, Some(command)]
            .into_iter()
            .flatten()
            .collect();
        write!(f, "({})", atoms.join(" ∧ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx(bg: f64, dbg: f64, diob: f64, command: Command) -> ApsContext {
        ApsContext {
            bg,
            dbg,
            diob,
            command,
        }
    }

    #[test]
    fn rule1_decrease_while_high_and_rising() {
        let rules = ApsRules::default();
        let c = ctx(200.0, 2.0, -0.1, Command::DecreaseInsulin);
        assert_eq!(rules.violated_rule(&c), Some(1));
    }

    #[test]
    fn rules_2_to_5_cover_decrease_contexts() {
        let rules = ApsRules::default();
        assert_eq!(
            rules.violated_rule(&ctx(200.0, 2.0, 0.0, Command::DecreaseInsulin)),
            Some(2)
        );
        assert_eq!(
            rules.violated_rule(&ctx(200.0, -2.0, 0.1, Command::DecreaseInsulin)),
            Some(3)
        );
        assert_eq!(
            rules.violated_rule(&ctx(200.0, -2.0, -0.1, Command::DecreaseInsulin)),
            Some(4)
        );
        assert_eq!(
            rules.violated_rule(&ctx(200.0, -2.0, 0.0, Command::DecreaseInsulin)),
            Some(5)
        );
    }

    #[test]
    fn decrease_when_low_is_fine() {
        let rules = ApsRules::default();
        assert_eq!(
            rules.violated_rule(&ctx(100.0, -2.0, 0.0, Command::DecreaseInsulin)),
            None
        );
    }

    #[test]
    fn rules_6_to_8_cover_increase_contexts() {
        let rules = ApsRules::default();
        assert_eq!(
            rules.violated_rule(&ctx(90.0, -2.0, 0.1, Command::IncreaseInsulin)),
            Some(6)
        );
        assert_eq!(
            rules.violated_rule(&ctx(90.0, -2.0, -0.1, Command::IncreaseInsulin)),
            Some(7)
        );
        assert_eq!(
            rules.violated_rule(&ctx(90.0, -2.0, 0.0, Command::IncreaseInsulin)),
            Some(8)
        );
        // Increasing insulin while high is the right move.
        assert_eq!(
            rules.violated_rule(&ctx(200.0, 2.0, 0.0, Command::IncreaseInsulin)),
            None
        );
    }

    #[test]
    fn rule9_stop_while_high() {
        let rules = ApsRules::default();
        assert_eq!(
            rules.violated_rule(&ctx(200.0, 0.0, 0.0, Command::StopInsulin)),
            Some(9)
        );
        assert_eq!(
            rules.violated_rule(&ctx(100.0, 0.0, 0.0, Command::StopInsulin)),
            None
        );
    }

    #[test]
    fn rule10_anything_but_stop_when_hypo() {
        let rules = ApsRules::default();
        assert_eq!(
            rules.violated_rule(&ctx(60.0, 0.5, 0.2, Command::KeepInsulin)),
            Some(10)
        );
        assert_eq!(
            rules.violated_rule(&ctx(60.0, 0.5, 0.2, Command::IncreaseInsulin)),
            Some(10)
        );
        assert_eq!(
            rules.violated_rule(&ctx(60.0, 0.5, 0.2, Command::StopInsulin)),
            None
        );
    }

    #[test]
    fn rules_11_12_keep_contexts() {
        let rules = ApsRules::default();
        assert_eq!(
            rules.violated_rule(&ctx(200.0, 2.0, -0.1, Command::KeepInsulin)),
            Some(11)
        );
        assert_eq!(
            rules.violated_rule(&ctx(200.0, 2.0, 0.0, Command::KeepInsulin)),
            Some(11)
        );
        assert_eq!(
            rules.violated_rule(&ctx(90.0, -2.0, 0.1, Command::KeepInsulin)),
            Some(12)
        );
        assert_eq!(
            rules.violated_rule(&ctx(90.0, -2.0, 0.0, Command::KeepInsulin)),
            Some(12)
        );
        // Keep while stable and in range is safe.
        assert_eq!(
            rules.violated_rule(&ctx(120.0, 0.0, 0.0, Command::KeepInsulin)),
            None
        );
    }

    /// Table I as a hand-written match: the reference the evaluator is
    /// checked against, rule id and precedence included.
    fn reference(rules: &ApsRules, ctx: &ApsContext) -> Option<usize> {
        let ApsContext {
            bg,
            dbg,
            diob,
            command,
        } = *ctx;
        let eps = rules.iob_eps;
        let high = bg > rules.bgt;
        let low = bg < rules.bgt;
        let rising = dbg > rules.bg_trend_eps;
        let falling = dbg < -rules.bg_trend_eps;
        let iob_up = diob > eps;
        let iob_down = diob < -eps;
        let iob_flat = diob.abs() <= eps;
        let rule = match command {
            Command::DecreaseInsulin => {
                if high && rising && iob_down {
                    Some(1)
                } else if high && rising && iob_flat {
                    Some(2)
                } else if high && falling && iob_up {
                    Some(3)
                } else if high && falling && iob_down {
                    Some(4)
                } else if high && falling && iob_flat {
                    Some(5)
                } else {
                    None
                }
            }
            Command::IncreaseInsulin => {
                if low && falling && iob_up {
                    Some(6)
                } else if low && falling && iob_down {
                    Some(7)
                } else if low && falling && iob_flat {
                    Some(8)
                } else {
                    None
                }
            }
            Command::StopInsulin => {
                if high {
                    Some(9)
                } else {
                    None
                }
            }
            Command::KeepInsulin => {
                if high && rising && diob <= eps {
                    Some(11)
                } else if low && falling && diob >= -eps {
                    Some(12)
                } else {
                    None
                }
            }
        };
        // Rule 10 applies to any command other than stop.
        if rule.is_none() && bg < rules.hypo && command != Command::StopInsulin {
            return Some(10);
        }
        rule
    }

    /// The floats just below, at and just above each threshold, plus 0,
    /// ±∞ and NaN.
    fn straddle(thresholds: [f64; 2]) -> Vec<f64> {
        let mut values = vec![0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for t in thresholds {
            values.extend([t.next_down(), t, t.next_up()]);
        }
        values
    }

    #[test]
    fn evaluator_matches_reference_on_threshold_grid() {
        // With `hypo > bgt`, rule 10 overlaps rules 1–5, 9 and 11, so the
        // grid also pins the precedence of the command rules over rule 10.
        let overlapping = ApsRules {
            hypo: 130.0,
            ..ApsRules::default()
        };
        for rules in [ApsRules::default(), overlapping] {
            let mut fired = [0usize; 13];
            let mut shadowed = 0;
            for bg in straddle([rules.bgt, rules.hypo]) {
                for dbg in straddle([rules.bg_trend_eps, -rules.bg_trend_eps]) {
                    for diob in straddle([rules.iob_eps, -rules.iob_eps]) {
                        for command in Command::ALL {
                            let c = ctx(bg, dbg, diob, command);
                            let want = reference(&rules, &c);
                            assert_eq!(rules.violated_rule(&c), want, "{rules:?} at {c:?}");
                            assert_eq!(rules.violated(&c), want.is_some(), "{rules:?} at {c:?}");
                            fired[want.unwrap_or(0)] += 1;
                            if bg < rules.hypo && command != Command::StopInsulin {
                                shadowed += usize::from(want != Some(10));
                            }
                        }
                    }
                }
            }
            assert!(fired[1..].iter().all(|&n| n > 0), "{rules:?}: {fired:?}");
            assert!(shadowed > 0, "{rules:?}: no rule shadows rule 10");
        }
    }

    #[test]
    fn table_lists_the_twelve_ids_in_order() {
        let ids: Vec<usize> = TABLE_I.iter().map(|r| r.id).collect();
        assert_eq!(ids, (1..=12).collect::<Vec<_>>());
    }

    #[test]
    fn command_from_rate_change() {
        assert_eq!(
            Command::from_rate_change(0.0, 0.0, 1e-6),
            Command::StopInsulin
        );
        assert_eq!(
            Command::from_rate_change(1.0, 0.5, 1e-6),
            Command::IncreaseInsulin
        );
        assert_eq!(
            Command::from_rate_change(1.0, -0.5, 1e-6),
            Command::DecreaseInsulin
        );
        assert_eq!(
            Command::from_rate_change(1.0, 0.0, 1e-6),
            Command::KeepInsulin
        );
    }

    #[test]
    fn hazard_types_match_table() {
        let h1: Vec<usize> = TABLE_I
            .iter()
            .filter(|r| r.hazard == HazardType::H1)
            .map(|r| r.id)
            .collect();
        assert_eq!(h1, vec![6, 7, 8, 10, 12]);
        for r in &TABLE_I {
            assert_eq!(ApsRules::hazard_of(r.id), r.hazard, "rule {}", r.id);
        }
    }

    #[test]
    fn formulas_print_in_table_i_notation() {
        let expected = [
            "((bg > 120) ∧ (dbg > 1.5) ∧ (diob < -0.001) ∧ (u1 > 0.5))",
            "((bg > 120) ∧ (dbg > 1.5) ∧ ((diob <= 0.001) ∧ (diob >= -0.001)) ∧ (u1 > 0.5))",
            "((bg > 120) ∧ (dbg < -1.5) ∧ (diob > 0.001) ∧ (u1 > 0.5))",
            "((bg > 120) ∧ (dbg < -1.5) ∧ (diob < -0.001) ∧ (u1 > 0.5))",
            "((bg > 120) ∧ (dbg < -1.5) ∧ ((diob <= 0.001) ∧ (diob >= -0.001)) ∧ (u1 > 0.5))",
            "((bg < 120) ∧ (dbg < -1.5) ∧ (diob > 0.001) ∧ (u2 > 0.5))",
            "((bg < 120) ∧ (dbg < -1.5) ∧ (diob < -0.001) ∧ (u2 > 0.5))",
            "((bg < 120) ∧ (dbg < -1.5) ∧ ((diob <= 0.001) ∧ (diob >= -0.001)) ∧ (u2 > 0.5))",
            "((bg > 120) ∧ (u3 > 0.5))",
            "((bg < 70) ∧ ¬(u3 > 0.5))",
            "((bg > 120) ∧ (dbg > 1.5) ∧ (diob <= 0.001) ∧ (u4 > 0.5))",
            "((bg < 120) ∧ (dbg < -1.5) ∧ (diob >= -0.001) ∧ (u4 > 0.5))",
        ];
        let rules = ApsRules::default();
        for (rule, want) in TABLE_I.iter().zip(expected) {
            assert_eq!(rules.formula(rule).to_string(), want, "rule {}", rule.id);
        }
    }

    fn context() -> impl Strategy<Value = ApsContext> {
        (20.0f64..400.0, -10.0f64..10.0, -1.0f64..1.0, 0usize..4)
            .prop_map(|(bg, dbg, diob, cmd)| ctx(bg, dbg, diob, Command::ALL[cmd]))
    }

    proptest! {
        #[test]
        fn table1_evaluator_matches_reference(c in context()) {
            let rules = ApsRules::default();
            let want = reference(&rules, &c);
            prop_assert_eq!(rules.violated_rule(&c), want, "context {:?}", c);
            prop_assert_eq!(rules.violated(&c), want.is_some(), "context {:?}", c);
        }
    }
}
