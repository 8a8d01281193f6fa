//! Property-based tests of the Table I rules through the public API: the
//! hazard-free command below the hypo threshold, and the silence of the
//! rules inside the safe band.

use cpsmon_stl::{ApsContext, ApsRules, Command};
use proptest::prelude::*;

proptest! {
    #[test]
    fn at_most_one_hazard_free_command_when_hypo(bg in 20.0f64..69.9, dbg in -10.0f64..10.0, diob in -1.0f64..1.0) {
        // Below the hypo threshold, every command except stop must fire a rule.
        let rules = ApsRules::default();
        for command in Command::ALL {
            let ctx = ApsContext { bg, dbg, diob, command };
            if command == Command::StopInsulin {
                continue;
            }
            prop_assert!(rules.violated(&ctx), "{command} accepted at BG {bg}");
        }
    }

    #[test]
    fn in_range_stable_context_is_safe(bg in 70.0f64..119.9, diob in -1.0f64..1.0) {
        // Rising BG inside the safe band with keep: no rule should fire.
        let rules = ApsRules::default();
        let ctx = ApsContext { bg, dbg: 1.0, diob, command: Command::KeepInsulin };
        prop_assert!(!rules.violated(&ctx));
    }
}
