//! The experiment registry: every table/figure of the paper as a named,
//! discoverable entry behind one [`Experiment`] trait.
//!
//! The registry replaces the former 15 per-figure binaries: the single
//! `cpsmon` CLI resolves names against [`REGISTRY`] (`cpsmon list`,
//! `cpsmon run <name…>`, `cpsmon run-all`). Experiments receive a
//! pre-built [`Context`] — trained monitors come from the artifact
//! cache when warm — and return [`Artifacts`]: tables (printed and written
//! to `results/<name>[_i].csv`, or `<name>_quick[_i].csv` at quick scale)
//! plus free-form notes (ASCII sketches) that are printed only.

use crate::context::Context;
use crate::experiments as exp;
use crate::report::Table;

/// Everything an experiment produces: tables (CSV-exported) and free-form
/// notes (stdout only).
#[derive(Debug, Clone, Default)]
pub struct Artifacts {
    /// Result tables, in emission order.
    pub tables: Vec<Table>,
    /// Pre-rendered text blocks (e.g. the Fig. 3 boundary sketch).
    pub notes: Vec<String>,
}

impl Artifacts {
    /// Artifacts holding the given tables and no notes.
    pub fn tables(tables: Vec<Table>) -> Artifacts {
        Artifacts {
            tables,
            notes: Vec::new(),
        }
    }

    /// Artifacts holding one table.
    pub fn table(table: Table) -> Artifacts {
        Self::tables(vec![table])
    }

    /// Adds a note block.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Artifacts {
        self.notes.push(note.into());
        self
    }
}

/// A named, registered experiment over a shared [`Context`].
pub trait Experiment: Sync {
    /// Registry name (the former binary name, e.g. `table3`).
    fn name(&self) -> &'static str;
    /// One-line description shown by `cpsmon list`.
    fn description(&self) -> &'static str;
    /// Runs the experiment.
    fn run(&self, ctx: &Context) -> Artifacts;
}

/// A registry entry: a plain-function experiment.
struct Entry {
    name: &'static str,
    description: &'static str,
    run: fn(&Context) -> Artifacts,
}

impl Experiment for Entry {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn run(&self, ctx: &Context) -> Artifacts {
        (self.run)(ctx)
    }
}

/// All registered experiments, in paper order (the former binaries).
pub static REGISTRY: [&dyn Experiment; 18] = [
    &Entry {
        name: "table3",
        description: "Table III: clean accuracy of all five monitors on both simulators",
        run: |ctx| Artifacts::table(exp::table3::run(ctx)),
    },
    &Entry {
        name: "fig2_example",
        description: "Fig. 2: example trace with monitor alarms vs ground truth",
        run: |ctx| Artifacts::table(exp::fig2_example::run(ctx)),
    },
    &Entry {
        name: "fig3_boundary",
        description: "Fig. 3: decision boundaries of MLP vs MLP-Custom (with ASCII sketch)",
        run: |ctx| {
            let (table, sketch) = exp::fig3_boundary::run(ctx);
            Artifacts::table(table).with_note(sketch)
        },
    },
    &Entry {
        name: "fig4_noise_dist",
        description: "Fig. 4: prediction distribution under Gaussian sensor noise",
        run: |ctx| Artifacts::table(exp::fig4_noise_dist::run(ctx)),
    },
    &Entry {
        name: "fig5_gaussian",
        description: "Fig. 5: robustness error vs Gaussian noise level σ",
        run: |ctx| Artifacts::table(exp::fig5_gaussian::run(ctx)),
    },
    &Entry {
        name: "fig6_pr",
        description: "Fig. 6: precision/recall under perturbation",
        run: |ctx| Artifacts::table(exp::fig6_pr::run(ctx)),
    },
    &Entry {
        name: "fig7_adv_trace",
        description: "Fig. 7: adversarial trace walkthrough (streaming replay)",
        run: |ctx| Artifacts::table(exp::fig7_adv_trace::run(ctx)),
    },
    &Entry {
        name: "fig8_fgsm",
        description: "Fig. 8: robustness error vs FGSM ε",
        run: |ctx| Artifacts::table(exp::fig8_fgsm::run(ctx)),
    },
    &Entry {
        name: "fig9_heatmap",
        description: "Fig. 9: σ×ε robustness-error heat-map plus summary",
        run: |ctx| {
            let (table, summary) = exp::fig9_heatmap::run(ctx);
            Artifacts::tables(vec![table, summary])
        },
    },
    &Entry {
        name: "fig10_blackbox",
        description: "Fig. 10: black-box substitute-model attack transferability",
        run: |ctx| Artifacts::table(exp::fig10_blackbox::run(ctx)),
    },
    &Entry {
        name: "detector_evasion",
        description: "Extension: CUSUM/invariant detector evasion under attack",
        run: |ctx| Artifacts::table(exp::detector_evasion::run(ctx)),
    },
    &Entry {
        name: "pgd_extension",
        description: "Extension: PGD attack vs FGSM on all ML monitors",
        run: |ctx| Artifacts::table(exp::pgd_extension::run(ctx)),
    },
    &Entry {
        name: "gru_extension",
        description: "Extension: GRU vs LSTM monitor architecture",
        run: |ctx| Artifacts::table(exp::gru_extension::run(ctx)),
    },
    &Entry {
        name: "ablations",
        description: "Ablations: semantic weight, window length, tolerance, adversarial training",
        run: |ctx| Artifacts::tables(exp::ablations::run(ctx)),
    },
    &Entry {
        name: "fault_sweep",
        description:
            "Extension: sensor-fault type × intensity robustness sweep through guarded sessions",
        run: |ctx| {
            let (grid, summary) = exp::fault_sweep::run(ctx);
            Artifacts::tables(vec![grid, summary])
        },
    },
    &Entry {
        name: "mitigation_sweep",
        description:
            "Extension: closed-loop mitigation — hazards averted vs false-stop harm, per monitor × trace condition",
        run: |ctx| {
            let (grid, summary) = exp::mitigation_sweep::run(ctx);
            Artifacts::tables(vec![grid, summary])
        },
    },
    &Entry {
        name: "cohort_campaign",
        description:
            "Extension: SoA cohort screening campaign — population outcomes, LSTM alarm rate, scalar parity",
        run: |ctx| Artifacts::table(exp::cohort_campaign::run(ctx)),
    },
    &Entry {
        name: "serve_chaos",
        description:
            "Extension: serve-shard degradation under fault storms, overload, and hot reloads",
        run: |ctx| Artifacts::table(exp::serve_chaos::run(ctx)),
    },
];

/// Looks up a registered experiment by name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().copied().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 18);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18, "duplicate registry names");
        assert!(find("table3").is_some());
        assert!(find("fig9_heatmap").is_some());
        assert!(find("fault_sweep").is_some());
        assert!(find("mitigation_sweep").is_some());
        assert!(find("cohort_campaign").is_some());
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn descriptions_are_nonempty() {
        for e in REGISTRY {
            assert!(!e.description().is_empty(), "{}", e.name());
        }
    }
}
