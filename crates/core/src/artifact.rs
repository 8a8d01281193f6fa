//! Versioned on-disk artifacts for trained monitors.
//!
//! The paper's pipeline trains five monitors per simulator and then runs
//! ~15 experiments over them; deployment-oriented follow-ups treat the
//! trained monitor as a *persisted, reusable artifact* rather than a
//! per-run byproduct. This module is that artifact layer: a
//! [`MonitorBundle`] packages everything needed to serve a monitor —
//! the model weights (including the rule-monitor parameters), the fitted
//! [`Normalizer`], the [`TrainConfig`] it was trained with, and a
//! fingerprint of the dataset it was trained on — in one versioned,
//! self-describing file.
//!
//! The format extends the line-oriented `cpsmon-net` text format of
//! [`cpsmon_nn::serialize`] (plain text is lossless for `f64` thanks to
//! shortest-round-trip formatting):
//!
//! ```text
//! cpsmon-bundle v1
//! kind mlp-custom
//! fingerprint 8d1c0f3a9b2e4d57
//! epochs 10
//! batch-size 128
//! lr 0.002
//! semantic-weight 1
//! seed 0
//! mlp-hidden 64 32
//! lstm-hidden 32 16
//! normalizer-mean <one float per column>
//! normalizer-std <one float per column>
//! rules 120 70 0.001 1.5          # rule-based bundles
//! cpsmon-net v1 mlp               # ML bundles embed the network document
//! …
//! ```
//!
//! Loading validates the magic, the format version, and — through
//! [`MonitorBundle::load_validated`] — the dataset fingerprint, so a stale
//! bundle can never silently serve a monitor trained on a mismatched
//! dataset. `v1` is the only format version: any other, including the
//! retired quantized `v2`, fails with [`ArtifactError::UnsupportedVersion`].

use crate::dataset::LabeledDataset;
use crate::features::Normalizer;
use crate::monitor::{MonitorKind, MonitorModel, TrainedMonitor};
use crate::train::TrainConfig;
use cpsmon_nn::serialize::LoadError;
use cpsmon_nn::{LstmNet, MlpNet};
use cpsmon_stl::{ApsRules, RuleMonitor};
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Magic token opening every bundle file.
const MAGIC: &str = "cpsmon-bundle";

/// The bundle format version this build reads and writes.
const VERSION: &str = "v1";

/// Errors arising while loading a monitor bundle.
#[derive(Debug)]
#[non_exhaustive]
pub enum ArtifactError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream did not match the bundle format.
    Parse {
        /// Line number (1-based) where parsing failed.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The file does not start with the `cpsmon-bundle` magic.
    BadMagic(String),
    /// The file is a bundle, but of a format version this build cannot
    /// read.
    UnsupportedVersion(String),
    /// The bundle's dataset fingerprint differs from the dataset it was
    /// asked to serve.
    FingerprintMismatch {
        /// Fingerprint of the live dataset.
        expected: u64,
        /// Fingerprint recorded in the bundle.
        found: u64,
    },
    /// The embedded network document failed to load.
    Net(LoadError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "i/o error while loading bundle: {e}"),
            ArtifactError::Parse { line, message } => {
                write!(f, "malformed bundle at line {line}: {message}")
            }
            ArtifactError::BadMagic(got) => {
                write!(f, "not a cpsmon-bundle file (starts with '{got}')")
            }
            ArtifactError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported bundle format version '{v}' (expected {VERSION})"
                )
            }
            ArtifactError::FingerprintMismatch { expected, found } => write!(
                f,
                "bundle was trained on a different dataset \
                 (fingerprint {found:016x}, expected {expected:016x})"
            ),
            ArtifactError::Net(e) => write!(f, "embedded network failed to load: {e}"),
        }
    }
}

impl Error for ArtifactError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            ArtifactError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<LoadError> for ArtifactError {
    fn from(e: LoadError) -> Self {
        ArtifactError::Net(e)
    }
}

/// FNV-1a accumulation of raw bytes.
fn fnv1a(state: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *state ^= u64::from(b);
        *state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_u64(state: &mut u64, v: u64) {
    fnv1a(state, &v.to_le_bytes());
}

fn fnv_f64(state: &mut u64, v: f64) {
    fnv_u64(state, v.to_bits());
}

/// Content fingerprint of a labeled dataset: shapes, every feature bit of
/// both splits, labels, indicators, normalizer statistics, and the rule
/// parameters. Two datasets fingerprint equal iff a monitor trained on one
/// is interchangeable with a monitor trained on the other.
pub fn dataset_fingerprint(ds: &LabeledDataset) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for split in [&ds.train, &ds.test] {
        fnv_u64(&mut h, split.x.rows() as u64);
        fnv_u64(&mut h, split.x.cols() as u64);
        for r in 0..split.x.rows() {
            for &v in split.x.row(r) {
                fnv_f64(&mut h, v);
            }
        }
        for &l in &split.labels {
            fnv_u64(&mut h, l as u64);
        }
        for &i in &split.indicators {
            fnv_f64(&mut h, i);
        }
    }
    for &v in ds.normalizer.mean() {
        fnv_f64(&mut h, v);
    }
    for &v in ds.normalizer.std() {
        fnv_f64(&mut h, v);
    }
    for v in [
        ds.rules.bgt,
        ds.rules.hypo,
        ds.rules.iob_eps,
        ds.rules.bg_trend_eps,
    ] {
        fnv_f64(&mut h, v);
    }
    h
}

/// Stable hash of a training configuration — the train-config component of
/// the bundle cache key.
pub fn train_config_hash(cfg: &TrainConfig) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv_u64(&mut h, cfg.epochs as u64);
    fnv_u64(&mut h, cfg.batch_size as u64);
    fnv_f64(&mut h, cfg.lr);
    fnv_f64(&mut h, cfg.semantic_weight);
    fnv_u64(&mut h, cfg.seed);
    for widths in [&cfg.mlp_hidden, &cfg.lstm_hidden] {
        fnv_u64(&mut h, widths.len() as u64);
        for &w in widths {
            fnv_u64(&mut h, w as u64);
        }
    }
    h
}

/// A trained monitor packaged with everything needed to redeploy it.
#[derive(Debug, Clone)]
pub struct MonitorBundle {
    /// The trained monitor (kind + model weights).
    pub monitor: TrainedMonitor,
    /// Normalizer fitted on the training split the monitor was trained on.
    pub normalizer: Normalizer,
    /// Hyper-parameters the monitor was trained with.
    pub train_config: TrainConfig,
    /// [`dataset_fingerprint`] of the training dataset.
    pub fingerprint: u64,
}

impl MonitorBundle {
    /// Packages a freshly trained monitor with its dataset's normalizer and
    /// fingerprint.
    pub fn new(monitor: TrainedMonitor, ds: &LabeledDataset, cfg: &TrainConfig) -> MonitorBundle {
        MonitorBundle {
            monitor,
            normalizer: ds.normalizer.clone(),
            train_config: cfg.clone(),
            fingerprint: dataset_fingerprint(ds),
        }
    }

    /// Writes the bundle in the `cpsmon-bundle v1` format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "{MAGIC} {VERSION}")?;
        writeln!(w, "kind {}", self.monitor.kind.tag())?;
        writeln!(w, "fingerprint {:016x}", self.fingerprint)?;
        let cfg = &self.train_config;
        writeln!(w, "epochs {}", cfg.epochs)?;
        writeln!(w, "batch-size {}", cfg.batch_size)?;
        writeln!(w, "lr {}", cfg.lr)?;
        writeln!(w, "semantic-weight {}", cfg.semantic_weight)?;
        writeln!(w, "seed {}", cfg.seed)?;
        writeln!(w, "mlp-hidden {}", join_usizes(&cfg.mlp_hidden))?;
        writeln!(w, "lstm-hidden {}", join_usizes(&cfg.lstm_hidden))?;
        writeln!(w, "normalizer-mean {}", join_floats(self.normalizer.mean()))?;
        writeln!(w, "normalizer-std {}", join_floats(self.normalizer.std()))?;
        match &self.monitor.model {
            MonitorModel::Rule(rule) => {
                let r = rule.rules();
                writeln!(
                    w,
                    "rules {}",
                    join_floats(&[r.bgt, r.hypo, r.iob_eps, r.bg_trend_eps])
                )?;
            }
            MonitorModel::Mlp(net) => net.save(w)?,
            MonitorModel::Lstm(net) => net.save(w)?,
        }
        // Explicit trailer so truncation anywhere — even inside the final
        // payload line — is detectable.
        writeln!(w, "end")?;
        Ok(())
    }

    /// Convenience wrapper: saves atomically to `path` (write to a
    /// temporary sibling, then rename), creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_to_path(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("tmp");
        let mut file = io::BufWriter::new(std::fs::File::create(&tmp)?);
        self.save(&mut file)?;
        file.flush()?;
        drop(file);
        std::fs::rename(&tmp, path)
    }

    /// Reads a bundle previously written by [`save`](Self::save), without
    /// checking the fingerprint (inspection path — use
    /// [`load_validated`](Self::load_validated) to serve a dataset).
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] on I/O failure, bad magic, unsupported
    /// version, or malformed content.
    pub fn load(r: &mut impl BufRead) -> Result<MonitorBundle, ArtifactError> {
        let mut lines = BundleLines { line: 0 };
        let magic = lines.next(r)?;
        let mut magic_parts = magic.split_whitespace();
        if magic_parts.next() != Some(MAGIC) {
            return Err(ArtifactError::BadMagic(magic.clone()));
        }
        let version = magic_parts.next().unwrap_or("");
        if version != VERSION {
            return Err(ArtifactError::UnsupportedVersion(version.into()));
        }
        let kind_tag = lines.read_kv(r, "kind")?;
        let kind = MonitorKind::from_tag(kind_tag.first().map_or("", String::as_str))
            .ok_or_else(|| lines.err(format!("unknown monitor kind '{}'", kind_tag.join(" "))))?;
        let fp_hex = lines.read_kv(r, "fingerprint")?;
        let fingerprint = u64::from_str_radix(fp_hex.first().map_or("", String::as_str), 16)
            .map_err(|_| lines.err("bad fingerprint"))?;
        let epochs = lines.read_usize(r, "epochs")?;
        let batch_size = lines.read_usize(r, "batch-size")?;
        let lr = lines.read_f64(r, "lr")?;
        let semantic_weight = lines.read_f64(r, "semantic-weight")?;
        let seed = lines.read_usize(r, "seed")? as u64;
        let mlp_hidden = lines.read_usizes(r, "mlp-hidden")?;
        let lstm_hidden = lines.read_usizes(r, "lstm-hidden")?;
        let mean = lines.read_f64s(r, "normalizer-mean")?;
        let std = lines.read_f64s(r, "normalizer-std")?;
        let normalizer =
            Normalizer::from_params(mean, std).map_err(|e| lines.err(e.to_string()))?;
        let model = match kind {
            MonitorKind::RuleBased => {
                let params = lines.read_f64s(r, "rules")?;
                let [bgt, hypo, iob_eps, bg_trend_eps]: [f64; 4] = params
                    .try_into()
                    .map_err(|_| lines.err("rules line must hold exactly four parameters"))?;
                if !bgt.is_finite() || !hypo.is_finite() {
                    return Err(lines.err("rule thresholds bgt and hypo must be finite"));
                }
                if ![iob_eps, bg_trend_eps]
                    .iter()
                    .all(|t| t.is_finite() && *t >= 0.0)
                {
                    return Err(lines.err("rule tolerances must be finite and non-negative"));
                }
                MonitorModel::Rule(RuleMonitor::new(ApsRules {
                    bgt,
                    hypo,
                    iob_eps,
                    bg_trend_eps,
                }))
            }
            MonitorKind::Mlp | MonitorKind::MlpCustom => MonitorModel::Mlp(MlpNet::load(r)?),
            MonitorKind::Lstm | MonitorKind::LstmCustom => MonitorModel::Lstm(LstmNet::load(r)?),
        };
        let trailer = lines
            .next(r)
            .map_err(|_| lines.err("missing 'end' trailer (bundle truncated mid-payload?)"))?;
        if trailer != "end" {
            return Err(lines.err(format!("expected 'end' trailer, got '{trailer}'")));
        }
        Ok(MonitorBundle {
            monitor: TrainedMonitor { kind, model },
            normalizer,
            train_config: TrainConfig {
                epochs,
                batch_size,
                lr,
                semantic_weight,
                mlp_hidden,
                lstm_hidden,
                seed,
            },
            fingerprint,
        })
    }

    /// Loads a bundle and rejects it unless its recorded fingerprint equals
    /// `expected` — the serving path: a stale bundle can never silently
    /// stand in for a monitor of a different dataset.
    ///
    /// # Errors
    ///
    /// Everything [`load`](Self::load) reports, plus
    /// [`ArtifactError::FingerprintMismatch`].
    pub fn load_validated(
        r: &mut impl BufRead,
        expected: u64,
    ) -> Result<MonitorBundle, ArtifactError> {
        let bundle = Self::load(r)?;
        if bundle.fingerprint != expected {
            return Err(ArtifactError::FingerprintMismatch {
                expected,
                found: bundle.fingerprint,
            });
        }
        Ok(bundle)
    }

    /// [`load_validated`](Self::load_validated) from a file path.
    ///
    /// # Errors
    ///
    /// Everything [`load_validated`](Self::load_validated) reports;
    /// a missing file surfaces as [`ArtifactError::Io`].
    pub fn load_from_path(path: &Path, expected: u64) -> Result<MonitorBundle, ArtifactError> {
        let file = std::fs::File::open(path)?;
        Self::load_validated(&mut io::BufReader::new(file), expected)
    }
}

fn join_floats(vs: &[f64]) -> String {
    vs.iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn join_usizes(vs: &[usize]) -> String {
    vs.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Minimal position-tracking line reader for the bundle header. The
/// embedded network document is parsed by [`cpsmon_nn::serialize`] from the
/// same underlying reader once the header has been consumed.
struct BundleLines {
    line: usize,
}

impl BundleLines {
    fn next(&mut self, r: &mut impl BufRead) -> Result<String, ArtifactError> {
        let mut buf = String::new();
        let n = r.read_line(&mut buf)?;
        self.line += 1;
        if n == 0 {
            return Err(self.err("unexpected end of file"));
        }
        Ok(buf.trim_end().to_string())
    }

    fn err(&self, message: impl Into<String>) -> ArtifactError {
        ArtifactError::Parse {
            line: self.line,
            message: message.into(),
        }
    }

    fn read_kv(&mut self, r: &mut impl BufRead, key: &str) -> Result<Vec<String>, ArtifactError> {
        let line = self.next(r)?;
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some(k) if k == key => Ok(parts.map(str::to_string).collect()),
            other => Err(self.err(format!("expected '{key}', got '{}'", other.unwrap_or("")))),
        }
    }

    fn read_usize(&mut self, r: &mut impl BufRead, key: &str) -> Result<usize, ArtifactError> {
        self.read_kv(r, key)?
            .first()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| self.err(format!("bad value for '{key}'")))
    }

    fn read_f64(&mut self, r: &mut impl BufRead, key: &str) -> Result<f64, ArtifactError> {
        self.read_kv(r, key)?
            .first()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| self.err(format!("bad value for '{key}'")))
    }

    fn read_usizes(
        &mut self,
        r: &mut impl BufRead,
        key: &str,
    ) -> Result<Vec<usize>, ArtifactError> {
        self.read_kv(r, key)?
            .iter()
            .map(|v| v.parse().ok())
            .collect::<Option<Vec<usize>>>()
            .ok_or_else(|| self.err(format!("bad value for '{key}'")))
    }

    fn read_f64s(&mut self, r: &mut impl BufRead, key: &str) -> Result<Vec<f64>, ArtifactError> {
        self.read_kv(r, key)?
            .iter()
            .map(|v| v.parse().ok())
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| self.err(format!("bad value for '{key}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use cpsmon_sim::{CampaignConfig, SimulatorKind};
    use std::io::BufReader;

    fn dataset() -> LabeledDataset {
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(3)
            .steps(144)
            .fault_ratio(0.6)
            .seed(17)
            .run();
        DatasetBuilder::new().build(&traces).unwrap()
    }

    #[test]
    fn fingerprint_is_deterministic_and_discriminating() {
        let ds = dataset();
        assert_eq!(dataset_fingerprint(&ds), dataset_fingerprint(&ds));
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(3)
            .steps(144)
            .fault_ratio(0.6)
            .seed(18)
            .run();
        let other = DatasetBuilder::new().build(&traces).unwrap();
        assert_ne!(dataset_fingerprint(&ds), dataset_fingerprint(&other));
    }

    #[test]
    fn train_config_hash_tracks_fields() {
        let a = TrainConfig::quick_test();
        let mut b = a.clone();
        assert_eq!(train_config_hash(&a), train_config_hash(&b));
        b.lr *= 2.0;
        assert_ne!(train_config_hash(&a), train_config_hash(&b));
        let mut c = a.clone();
        c.mlp_hidden.push(8);
        assert_ne!(train_config_hash(&a), train_config_hash(&c));
    }

    #[test]
    fn rule_bundle_roundtrips() {
        let ds = dataset();
        let cfg = TrainConfig::quick_test();
        let monitor = MonitorKind::RuleBased.train(&ds, &cfg).unwrap();
        let bundle = MonitorBundle::new(monitor, &ds, &cfg);
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();
        let loaded =
            MonitorBundle::load_validated(&mut BufReader::new(buf.as_slice()), bundle.fingerprint)
                .unwrap();
        assert_eq!(loaded.monitor.kind, MonitorKind::RuleBased);
        assert_eq!(
            loaded.monitor.predict(&ds.test),
            bundle.monitor.predict(&ds.test)
        );
        assert_eq!(loaded.normalizer, bundle.normalizer);
        assert_eq!(loaded.train_config, cfg);
    }

    #[test]
    fn load_rejects_bad_magic() {
        let err = MonitorBundle::load(&mut BufReader::new(b"cpsmon-net v1 mlp\n".as_slice()))
            .unwrap_err();
        assert!(matches!(err, ArtifactError::BadMagic(_)), "{err}");
    }

    #[test]
    fn load_rejects_future_version() {
        let err = MonitorBundle::load(&mut BufReader::new(
            b"cpsmon-bundle v9\nkind mlp\n".as_slice(),
        ))
        .unwrap_err();
        assert!(matches!(err, ArtifactError::UnsupportedVersion(v) if v == "v9"));
    }

    #[test]
    fn load_rejects_fingerprint_mismatch() {
        let ds = dataset();
        let cfg = TrainConfig::quick_test();
        let monitor = MonitorKind::RuleBased.train(&ds, &cfg).unwrap();
        let bundle = MonitorBundle::new(monitor, &ds, &cfg);
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();
        let err = MonitorBundle::load_validated(
            &mut BufReader::new(buf.as_slice()),
            bundle.fingerprint ^ 1,
        )
        .unwrap_err();
        assert!(
            matches!(err, ArtifactError::FingerprintMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn error_source_chain_reaches_net_errors() {
        let ds = dataset();
        let cfg = TrainConfig::quick_test();
        let monitor = MonitorKind::Mlp.train(&ds, &cfg).unwrap();
        let bundle = MonitorBundle::new(monitor, &ds, &cfg);
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();
        buf.truncate(buf.len() - buf.len() / 4);
        let err = MonitorBundle::load(&mut BufReader::new(buf.as_slice())).unwrap_err();
        assert!(matches!(err, ArtifactError::Net(_)), "{err}");
        assert!(err.source().is_some());
    }
}
