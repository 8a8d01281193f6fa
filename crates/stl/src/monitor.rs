//! The purely knowledge-driven baseline monitor ("Rule-based" in Table III).
//!
//! The paper notes that the Table I formulas "can be also synthesized into
//! logic to design a rule-based safety monitor solely based on domain
//! knowledge". This monitor does exactly that: it flags a control action as
//! unsafe iff any rule fires on the current context. It needs no training
//! and is applicable to any controller with the same functional spec —
//! which is also why its accuracy trails the ML monitors (Table III):
//! it has no access to patient-specific dynamics.

use crate::rules::{ApsContext, ApsRules};
use cpsmon_nn::par;

/// A stateless rule-based anomaly detector over [`ApsContext`]s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RuleMonitor {
    rules: ApsRules,
}

impl RuleMonitor {
    /// Creates a monitor with the given rule parameters.
    pub fn new(rules: ApsRules) -> Self {
        Self { rules }
    }

    /// The underlying rule set.
    pub fn rules(&self) -> &ApsRules {
        &self.rules
    }

    /// Predicts 1 (unsafe) iff any Table I rule fires.
    pub fn predict(&self, ctx: &ApsContext) -> usize {
        usize::from(self.rules.violated(ctx))
    }

    /// Batch prediction over many contexts.
    ///
    /// Large batches are split into fixed [`RULE_CHUNK`]-sized chunks
    /// evaluated in parallel over [`cpsmon_nn::par`] and re-assembled in
    /// chunk order. Rule evaluation is per-context, so the chunk grid is
    /// bit-transparent: the result is identical to the serial map for any
    /// `CPSMON_THREADS`. Batches of at most one chunk skip the fan-out
    /// entirely.
    pub fn predict_batch(&self, ctxs: &[ApsContext]) -> Vec<usize> {
        if ctxs.len() <= RULE_CHUNK {
            return ctxs.iter().map(|c| self.predict(c)).collect();
        }
        let chunks = par::run_chunks(ctxs.len(), RULE_CHUNK, |r| {
            ctxs[r].iter().map(|c| self.predict(c)).collect::<Vec<_>>()
        });
        let mut out = Vec::with_capacity(ctxs.len());
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }

    /// Explains a prediction: the id of the rule that fired, if any.
    pub fn explain(&self, ctx: &ApsContext) -> Option<usize> {
        self.rules.violated_rule(ctx)
    }
}

/// Contexts per parallel chunk in [`RuleMonitor::predict_batch`]. Rule
/// evaluation is a few dozen float comparisons, so chunks must be large for
/// the fan-out to beat its overhead.
pub const RULE_CHUNK: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Command;

    #[test]
    fn predicts_unsafe_on_rule_fire() {
        let m = RuleMonitor::default();
        let unsafe_ctx = ApsContext {
            bg: 200.0,
            dbg: 3.0,
            diob: -0.1,
            command: Command::DecreaseInsulin,
        };
        assert_eq!(m.predict(&unsafe_ctx), 1);
        assert_eq!(m.explain(&unsafe_ctx), Some(1));
    }

    #[test]
    fn predicts_safe_otherwise() {
        let m = RuleMonitor::default();
        let safe_ctx = ApsContext {
            bg: 120.0,
            dbg: 0.0,
            diob: 0.0,
            command: Command::KeepInsulin,
        };
        assert_eq!(m.predict(&safe_ctx), 0);
        assert_eq!(m.explain(&safe_ctx), None);
    }

    #[test]
    fn batch_matches_pointwise() {
        let m = RuleMonitor::default();
        let ctxs = vec![
            ApsContext {
                bg: 200.0,
                dbg: 0.0,
                diob: 0.0,
                command: Command::StopInsulin,
            },
            ApsContext {
                bg: 100.0,
                dbg: 0.0,
                diob: 0.0,
                command: Command::StopInsulin,
            },
        ];
        assert_eq!(m.predict_batch(&ctxs), vec![1, 0]);
    }

    fn synthetic_ctxs(n: usize) -> Vec<ApsContext> {
        (0..n)
            .map(|i| ApsContext {
                bg: 40.0 + (i % 50) as f64 * 5.0,
                dbg: ((i % 11) as f64 - 5.0) / 2.0,
                diob: ((i % 7) as f64 - 3.0) / 10.0,
                command: match i % 4 {
                    0 => Command::StopInsulin,
                    1 => Command::DecreaseInsulin,
                    2 => Command::KeepInsulin,
                    _ => Command::IncreaseInsulin,
                },
            })
            .collect()
    }

    #[test]
    fn parallel_batch_bit_identical_to_serial() {
        let m = RuleMonitor::default();
        let ctxs = synthetic_ctxs(3 * RULE_CHUNK + 17);
        let serial: Vec<usize> = ctxs.iter().map(|c| m.predict(c)).collect();
        for threads in [1, 2, 5] {
            let _guard = cpsmon_nn::par::ThreadsGuard::set(threads);
            assert_eq!(m.predict_batch(&ctxs), serial, "{threads} threads");
        }
    }
}
