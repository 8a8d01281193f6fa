//! # cpsmon-bench — the experiment harness
//!
//! One registry entry per table/figure of the paper. Each experiment is
//! exposed two ways:
//!
//! - a library function in [`experiments`] returning formatted tables;
//! - the `cpsmon` CLI (`cargo run --release --bin cpsmon -- run table3`),
//!   which resolves names against the [`registry`] and runs at the scale
//!   selected by `--scale`/`CPSMON_SCALE` (`quick` or `full`). A quick run
//!   writes `<name>_quick[_i].csv`, and `cpsmon run-all --scale quick`
//!   regenerates every committed quick table.
//!
//! The one bench target, `perf`, times the library's hot paths
//! (`cargo bench -p cpsmon-bench --bench perf`).
//!
//! Experiment context (campaigns, datasets, trained monitors) is built by
//! [`context::Context::load_or_build`], which serves trained monitors from
//! the versioned bundle cache under `results/cache/` — the first process
//! trains and persists, every later process loads in milliseconds, with
//! bit-identical predictions (`CPSMON_CACHE=0` forces retraining).
//!
//! Results are also written as CSV into `results/` at the workspace root.

#![warn(missing_docs)]

pub mod context;
pub mod error;
pub mod experiments;
pub mod registry;
pub mod report;
pub mod scale;

pub use context::{Context, SimContext};
pub use error::BenchError;
pub use registry::{Artifacts, Experiment, REGISTRY};
pub use report::Table;
pub use scale::Scale;

/// Emits one experiment's artifacts: notes and tables go to stdout, tables
/// are additionally written to `results/<csv_stem>[_i].csv` (the CSV naming
/// of the former per-figure binaries).
pub fn emit_artifacts(csv_stem: &str, artifacts: &Artifacts) {
    for note in &artifacts.notes {
        println!("{note}");
    }
    for (i, table) in artifacts.tables.iter().enumerate() {
        println!("{table}");
        let suffix = if artifacts.tables.len() > 1 {
            format!("{csv_stem}_{i}")
        } else {
            csv_stem.to_string()
        };
        table.write_csv(&suffix);
    }
}

/// Runs one registered experiment on a shared context and emits its
/// artifacts under `csv_stem`.
///
/// # Errors
///
/// [`BenchError::UnknownExperiment`] if `name` is not registered.
pub fn run_registered_on(ctx: &Context, name: &str, csv_stem: &str) -> Result<(), BenchError> {
    let experiment =
        registry::find(name).ok_or_else(|| BenchError::UnknownExperiment(name.to_string()))?;
    let started = std::time::Instant::now();
    emit_artifacts(csv_stem, &experiment.run(ctx));
    eprintln!(
        "[cpsmon-bench] {name} finished in {:.1?}",
        started.elapsed()
    );
    Ok(())
}
