//! # cpsmon-stl — the APS safety rules of Table I
//!
//! The paper integrates domain knowledge into ML monitors by encoding
//! context-dependent safety specifications — derived from STPA hazard
//! analysis — as Signal Temporal Logic (STL) formulas (Table I), then
//! folding their truth value into a semantic loss (Eq. 2). Each of the 12
//! formulas is a conjunction of atoms over one window-aggregated context,
//! with no temporal operator, so this crate holds them as data:
//!
//! - [`TABLE_I`]: the 12 rules, one row of `BG`, `BG'`, `IOB'` and command
//!   atoms plus a hazard each.
//! - [`ApsRules`]: the thresholds the atoms compare against, the evaluator
//!   behind the Eq. 2 indicator, and a printer of each row in the paper's
//!   STL notation.
//! - [`RuleMonitor`]: a purely knowledge-driven baseline monitor (the
//!   "Rule-based" row of Table III).
//!
//! ## Example
//!
//! ```
//! use cpsmon_stl::{ApsContext, Command, HazardType, RuleMonitor, TABLE_I};
//!
//! // Stopping insulin while BG is above target fires rule 9, a
//! // hyperglycemia (H2) context.
//! let monitor = RuleMonitor::default();
//! let ctx = ApsContext { bg: 200.0, dbg: 0.0, diob: 0.0, command: Command::StopInsulin };
//! assert_eq!(monitor.explain(&ctx), Some(9));
//! let rule = &TABLE_I[9 - 1];
//! assert_eq!(rule.hazard, HazardType::H2);
//! let printed = monitor.rules().formula(rule).to_string();
//! assert_eq!(printed, "((bg > 120) ∧ (u3 > 0.5))");
//! ```

#![warn(missing_docs)]

pub mod monitor;
pub mod rules;

pub use monitor::RuleMonitor;
pub use rules::{
    ApsContext, ApsRules, BgAtom, Command, CommandAtom, HazardType, IobAtom, SafetyRule, TrendAtom,
    TABLE_I,
};
