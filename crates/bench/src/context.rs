//! Shared experiment context: campaigns, datasets, and trained monitors,
//! backed by the content-addressed artifact cache.

use crate::error::BenchError;
use crate::scale::Scale;
use cpsmon_core::{
    dataset_fingerprint, train_config_hash, DatasetBuilder, LabeledDataset, MonitorBundle,
    MonitorKind, TrainConfig, TrainedMonitor,
};
use cpsmon_sim::{SimTrace, SimulatorKind};
use std::path::{Path, PathBuf};

/// Seed shared by the campaigns and the dataset split (part of the cache
/// key).
pub const CONTEXT_SEED: u64 = 2022;

/// Everything the experiments need for one simulator.
#[derive(Debug, Clone)]
pub struct SimContext {
    /// Which simulator/controller pairing this is.
    pub kind: SimulatorKind,
    /// The raw campaign traces (some figures plot trace-level signals).
    pub traces: Vec<SimTrace>,
    /// The windowed train/test dataset.
    pub ds: LabeledDataset,
    /// All five monitors of Table III, trained on `ds.train`.
    pub monitors: Vec<TrainedMonitor>,
    /// Hyper-parameters the monitors were trained with (needed to build
    /// bundles from them).
    pub train_config: TrainConfig,
}

impl SimContext {
    /// Looks up a monitor by kind, if it was trained in this context.
    pub fn monitor(&self, kind: MonitorKind) -> Option<&TrainedMonitor> {
        self.monitors.iter().find(|m| m.kind == kind)
    }

    /// Looks up a monitor by kind, panicking with the *caller's* location
    /// if it is missing — the ergonomic accessor for experiment code, where
    /// a missing monitor is a harness bug, not a runtime condition.
    ///
    /// # Panics
    ///
    /// Panics if the monitor is missing (cannot happen for contexts built
    /// by [`Context::build`] or [`Context::load_or_build`]).
    #[track_caller]
    pub fn expect_monitor(&self, kind: MonitorKind) -> &TrainedMonitor {
        self.monitor(kind)
            .unwrap_or_else(|| panic!("monitor {kind} not trained in this context"))
    }
}

/// The full two-simulator experiment context.
#[derive(Debug, Clone)]
pub struct Context {
    /// Scale the context was built at.
    pub scale: Scale,
    /// One context per simulator, in paper order (Glucosym, T1DS2013).
    pub sims: Vec<SimContext>,
}

/// Whether the bundle cache is enabled (`CPSMON_CACHE`, default on;
/// `CPSMON_CACHE=0` forces retraining).
fn cache_enabled() -> bool {
    !matches!(std::env::var("CPSMON_CACHE").as_deref(), Ok("0"))
}

/// The bundle cache directory: `CPSMON_CACHE_DIR` if set, otherwise
/// `results/cache/` at the workspace root.
pub fn default_cache_dir() -> PathBuf {
    match std::env::var_os("CPSMON_CACHE_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => crate::report::results_dir().join("cache"),
    }
}

/// Cache file for one monitor bundle, keyed by
/// `(simulator, scale, seed, train-config hash)` plus the monitor kind.
fn bundle_path(
    dir: &Path,
    sim: SimulatorKind,
    scale: Scale,
    cfg_hash: u64,
    kind: MonitorKind,
) -> PathBuf {
    dir.join(format!(
        "{}-{}-seed{}-{:016x}-{}.bundle",
        sim.label().to_lowercase(),
        scale.label(),
        CONTEXT_SEED,
        cfg_hash,
        kind.tag()
    ))
}

impl Context {
    /// Runs both campaigns, builds datasets, and trains all monitors from
    /// scratch, ignoring the bundle cache.
    ///
    /// This is the expensive step (seconds at quick scale, minutes at full
    /// scale); prefer [`load_or_build`](Self::load_or_build), which
    /// amortizes it across processes.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError`] if a campaign yields a degenerate dataset or
    /// training fails.
    pub fn build(scale: Scale) -> Result<Context, BenchError> {
        Self::load_or_build_in(scale, None)
    }

    /// Like [`build`](Self::build), but serves monitors from the on-disk
    /// bundle cache when possible: the first process trains and persists,
    /// every later process loads in milliseconds. Cached monitors are
    /// validated against the live dataset's fingerprint, so predictions are
    /// bit-identical to freshly trained ones; corrupt or stale bundles are
    /// discarded with a warning and retrained.
    ///
    /// Controlled by `CPSMON_CACHE` (`0` disables) and `CPSMON_CACHE_DIR`
    /// (default `results/cache/`).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError`] if a campaign yields a degenerate dataset or
    /// training fails. Cache problems never fail the build — they degrade
    /// to retraining.
    pub fn load_or_build(scale: Scale) -> Result<Context, BenchError> {
        let dir = cache_enabled().then(default_cache_dir);
        Self::load_or_build_in(scale, dir.as_deref())
    }

    /// [`load_or_build`](Self::load_or_build) with an explicit cache
    /// directory (`None` disables caching entirely).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError`] if a campaign yields a degenerate dataset or
    /// training fails.
    pub fn load_or_build_in(scale: Scale, cache: Option<&Path>) -> Result<Context, BenchError> {
        let mut sims = Vec::new();
        for kind in SimulatorKind::ALL {
            sims.push(build_sim(kind, scale, cache)?);
        }
        Ok(Context { scale, sims })
    }

    /// The context for one simulator.
    ///
    /// # Panics
    ///
    /// Panics if the simulator is missing from the context.
    pub fn sim(&self, kind: SimulatorKind) -> &SimContext {
        self.sims
            .iter()
            .find(|s| s.kind == kind)
            .unwrap_or_else(|| panic!("no context for {kind}"))
    }
}

/// Builds one simulator's context, serving monitors from `cache` when
/// possible.
fn build_sim(
    kind: SimulatorKind,
    scale: Scale,
    cache: Option<&Path>,
) -> Result<SimContext, BenchError> {
    eprintln!(
        "[cpsmon-bench] simulating {kind} campaign ({})...",
        scale.label()
    );
    let traces = scale.campaign(kind).run();
    let ds = DatasetBuilder::new().seed(CONTEXT_SEED).build(&traces)?;
    let cfg = scale.train_config();
    let fingerprint = dataset_fingerprint(&ds);
    let cfg_hash = train_config_hash(&cfg);
    let mut monitors = Vec::with_capacity(MonitorKind::ALL.len());
    for mk in MonitorKind::ALL {
        let path = cache.map(|dir| bundle_path(dir, kind, scale, cfg_hash, mk));
        if let Some(monitor) = path.as_deref().and_then(|p| try_load(p, fingerprint, mk)) {
            monitors.push(monitor);
            continue;
        }
        eprintln!("[cpsmon-bench] training {mk} on {kind}...");
        let monitor = mk.train(&ds, &cfg)?;
        if let Some(p) = &path {
            let bundle = MonitorBundle::new(monitor, &ds, &cfg);
            if let Err(e) = bundle.save_to_path(p) {
                eprintln!(
                    "[cpsmon-bench] warning: cannot persist bundle {}: {e}",
                    p.display()
                );
            }
            monitors.push(bundle.monitor);
        } else {
            monitors.push(monitor);
        }
    }
    Ok(SimContext {
        kind,
        traces,
        ds,
        monitors,
        train_config: cfg,
    })
}

/// Attempts to serve one monitor from a cached bundle. Any failure —
/// missing file, corrupt content, stale fingerprint, kind mismatch —
/// degrades to `None` (the caller retrains); only genuinely unexpected
/// states warn.
fn try_load(path: &Path, fingerprint: u64, mk: MonitorKind) -> Option<TrainedMonitor> {
    if !path.exists() {
        return None;
    }
    match MonitorBundle::load_from_path(path, fingerprint) {
        Ok(bundle) if bundle.monitor.kind == mk => {
            eprintln!("[cpsmon-bench] cache hit: {}", path.display());
            Some(bundle.monitor)
        }
        Ok(bundle) => {
            eprintln!(
                "[cpsmon-bench] warning: bundle {} holds a {} monitor, expected {mk}; retraining",
                path.display(),
                bundle.monitor.kind
            );
            None
        }
        Err(e) => {
            eprintln!(
                "[cpsmon-bench] warning: discarding unusable bundle {}: {e}; retraining",
                path.display()
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unique-per-process scratch directory (no external tempdir crate).
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cpsmon-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn predict_all(ctx: &Context) -> Vec<Vec<f64>> {
        let mut out = Vec::new();
        for sim in &ctx.sims {
            for m in &sim.monitors {
                match m.as_grad_model() {
                    Some(model) => {
                        out.push(model.predict_proba(&sim.ds.test.x).as_slice().to_vec())
                    }
                    None => out.push(
                        m.predict(&sim.ds.test)
                            .into_iter()
                            .map(|p| p as f64)
                            .collect(),
                    ),
                }
            }
        }
        out
    }

    #[test]
    fn quick_context_builds_everything() {
        let ctx = Context::build(Scale::Quick).unwrap();
        assert_eq!(ctx.sims.len(), 2);
        for sim in &ctx.sims {
            assert_eq!(sim.monitors.len(), 5);
            assert!(!sim.ds.train.is_empty());
            assert!(!sim.ds.test.is_empty());
            // Lookup by kind works for every variant.
            for mk in MonitorKind::ALL {
                assert_eq!(sim.expect_monitor(mk).kind, mk);
                assert!(sim.monitor(mk).is_some());
            }
        }
    }

    #[test]
    fn cached_context_is_bit_identical_and_skips_training() {
        let dir = scratch_dir("roundtrip");
        let cold = Context::load_or_build_in(Scale::Quick, Some(&dir)).unwrap();
        // All ten bundles must have been persisted.
        let bundles = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(bundles, 10, "expected 10 bundles in {}", dir.display());
        // The warm build must serve bit-identical monitors from the cache.
        let warm = Context::load_or_build_in(Scale::Quick, Some(&dir)).unwrap();
        assert_eq!(predict_all(&cold), predict_all(&warm));
        // …and bit-identical to a cache-less build as well.
        let fresh = Context::load_or_build_in(Scale::Quick, None).unwrap();
        assert_eq!(predict_all(&fresh), predict_all(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_bundle_degrades_to_retraining() {
        let dir = scratch_dir("corrupt");
        let cold = Context::load_or_build_in(Scale::Quick, Some(&dir)).unwrap();
        // Corrupt every cached bundle.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            std::fs::write(&path, "cpsmon-bundle v1\nkind mlp\ngarbage\n").unwrap();
        }
        let rebuilt = Context::load_or_build_in(Scale::Quick, Some(&dir)).unwrap();
        assert_eq!(predict_all(&cold), predict_all(&rebuilt));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
