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
//! dataset.
//!
//! ## Quantized bundles (v2)
//!
//! Bundles saved with [`MonitorBundle::with_precision`] at
//! [`WeightPrecision::F16`] or [`WeightPrecision::Int8`] use the
//! `cpsmon-bundle v2` magic, add a `precision <f16|int8>` line after
//! `kind`, and embed a v2 network document with `tensor16`/`tensor8`
//! encodings (see [`cpsmon_nn::serialize`]). Exact-f64 bundles keep
//! writing v1, so artifacts stay readable by older builds. Loading always
//! dequantizes to f64; [`MonitorBundle::lstm_engine`] then picks the
//! serving engine — f64 for exact bundles, the native f32 engine for
//! quantized ones. Quantized bundles are additionally held to a
//! documented accuracy contract ([`F16_F1_TOLERANCE`] /
//! [`INT8_F1_TOLERANCE`]) enforced by
//! [`MonitorBundle::validate_accuracy`] and the artifact test suite, and
//! an int8 tensor with a corrupted scale fails at parse time rather than
//! silently mispredicting.

use crate::dataset::{Dataset, LabeledDataset};
use crate::features::Normalizer;
use crate::monitor::{MonitorKind, MonitorModel, TrainedMonitor};
use crate::stream::LstmEngine;
use crate::train::TrainConfig;
use cpsmon_nn::serialize::LoadError;
use cpsmon_nn::{LstmNet, MlpNet, WeightPrecision};
use cpsmon_stl::{ApsRules, RuleMonitor};
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Magic token opening every bundle file.
const MAGIC: &str = "cpsmon-bundle";

/// Format version written for exact-f64 bundles (and the only version
/// older builds can read).
const VERSION: &str = "v1";

/// Format version written for quantized bundles: adds a `precision` line
/// after `kind` and embeds a v2 network document.
const VERSION_V2: &str = "v2";

/// Maximum F1 drift (vs the exact-f64 monitor, on the bundle's test split)
/// a **f16** bundle may exhibit before the accuracy gate rejects it.
/// Binary16 keeps ~11 mantissa bits, which perturbs well-trained decision
/// boundaries by far less than a thousandth of F1 in practice; anything
/// larger indicates a broken tensor, not expected rounding.
pub const F16_F1_TOLERANCE: f64 = 0.005;

/// Maximum F1 drift for an **int8** bundle. Symmetric per-tensor
/// quantization to 8 bits costs noticeably more than f16 — the documented
/// serving contract is "within two F1 points of the exact monitor".
pub const INT8_F1_TOLERANCE: f64 = 0.02;

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
    /// A quantized bundle's monitor drifted further from its exact-f64
    /// reference than the precision's documented tolerance allows.
    AccuracyDrift {
        /// Measured |ΔF1| between the bundle's monitor and the reference.
        delta: f64,
        /// The documented tolerance for the bundle's precision.
        tolerance: f64,
    },
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
                    "unsupported bundle format version '{v}' \
                     (expected {VERSION} or {VERSION_V2})"
                )
            }
            ArtifactError::FingerprintMismatch { expected, found } => write!(
                f,
                "bundle was trained on a different dataset \
                 (fingerprint {found:016x}, expected {expected:016x})"
            ),
            ArtifactError::Net(e) => write!(f, "embedded network failed to load: {e}"),
            ArtifactError::AccuracyDrift { delta, tolerance } => write!(
                f,
                "quantized bundle drifted {delta:.4} F1 from its exact reference \
                 (tolerance {tolerance})"
            ),
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
    /// The trained monitor (kind + model weights). Always f64 in memory:
    /// quantized bundles are dequantized at load; the native f32 serving
    /// engine is obtained via [`lstm_engine`](Self::lstm_engine).
    pub monitor: TrainedMonitor,
    /// Normalizer fitted on the training split the monitor was trained on.
    pub normalizer: Normalizer,
    /// Hyper-parameters the monitor was trained with.
    pub train_config: TrainConfig,
    /// [`dataset_fingerprint`] of the training dataset.
    pub fingerprint: u64,
    /// Weight precision the bundle stores (or was loaded from). Only ML
    /// monitors can be quantized; rule bundles are always
    /// [`WeightPrecision::F64`].
    pub precision: WeightPrecision,
}

impl MonitorBundle {
    /// Packages a freshly trained monitor with its dataset's normalizer and
    /// fingerprint, at exact f64 precision.
    pub fn new(monitor: TrainedMonitor, ds: &LabeledDataset, cfg: &TrainConfig) -> MonitorBundle {
        MonitorBundle {
            monitor,
            normalizer: ds.normalizer.clone(),
            train_config: cfg.clone(),
            fingerprint: dataset_fingerprint(ds),
            precision: WeightPrecision::F64,
        }
    }

    /// Switches the precision the bundle's weights will be *stored* at.
    /// The in-memory monitor is unchanged — quantization happens in
    /// [`save`](Self::save), so round-tripping a quantized bundle is what
    /// realizes the precision loss.
    ///
    /// # Panics
    ///
    /// Panics when asked to quantize a rule-based monitor (it has no
    /// weight tensors).
    pub fn with_precision(mut self, precision: WeightPrecision) -> MonitorBundle {
        assert!(
            precision == WeightPrecision::F64
                || !matches!(self.monitor.model, MonitorModel::Rule(_)),
            "rule-based bundles have no weights to quantize"
        );
        self.precision = precision;
        self
    }

    /// The documented F1-drift tolerance for a storage precision (see
    /// [`F16_F1_TOLERANCE`] / [`INT8_F1_TOLERANCE`]; exact f64 tolerates
    /// zero drift).
    pub fn f1_tolerance(precision: WeightPrecision) -> f64 {
        match precision {
            WeightPrecision::F64 => 0.0,
            WeightPrecision::F16 => F16_F1_TOLERANCE,
            WeightPrecision::Int8 => INT8_F1_TOLERANCE,
        }
    }

    /// The accuracy-delta gate: compares this bundle's monitor against the
    /// exact reference on `test` and rejects the bundle if F1 drifted
    /// beyond its precision's documented tolerance. Returns the measured
    /// |ΔF1| when the gate passes.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::AccuracyDrift`] when the drift exceeds
    /// [`f1_tolerance`](Self::f1_tolerance).
    pub fn validate_accuracy(
        &self,
        reference: &TrainedMonitor,
        test: &Dataset,
    ) -> Result<f64, ArtifactError> {
        let delta = (self.monitor.evaluate(test).f1() - reference.evaluate(test).f1()).abs();
        let tolerance = Self::f1_tolerance(self.precision);
        if delta > tolerance {
            return Err(ArtifactError::AccuracyDrift { delta, tolerance });
        }
        Ok(delta)
    }

    /// The load-time dequant-or-native choice for LSTM bundles: an exact
    /// bundle serves through the f64 engine (bit-identical to training);
    /// a quantized one through the native f32 engine, whose extra rounding
    /// is already inside the precision's accuracy tolerance. `None` for
    /// non-LSTM monitors.
    pub fn lstm_engine(&self) -> Option<LstmEngine<'_>> {
        match &self.monitor.model {
            MonitorModel::Lstm(net) => Some(match self.precision {
                WeightPrecision::F64 => LstmEngine::F64(net),
                _ => LstmEngine::f32_from(net),
            }),
            _ => None,
        }
    }

    /// Writes the bundle: `cpsmon-bundle v1` for exact-f64 bundles (the
    /// format older builds read), `v2` with a `precision` line and a
    /// quantized network document otherwise.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        if self.precision == WeightPrecision::F64 {
            writeln!(w, "{MAGIC} {VERSION}")?;
        } else {
            writeln!(w, "{MAGIC} {VERSION_V2}")?;
        }
        writeln!(w, "kind {}", self.monitor.kind.tag())?;
        if self.precision != WeightPrecision::F64 {
            writeln!(w, "precision {}", self.precision.label())?;
        }
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
            MonitorModel::Mlp(net) => {
                if self.precision == WeightPrecision::F64 {
                    net.save(w)?;
                } else {
                    net.save_quantized(w, self.precision)?;
                }
            }
            MonitorModel::Lstm(net) => {
                if self.precision == WeightPrecision::F64 {
                    net.save(w)?;
                } else {
                    net.save_quantized(w, self.precision)?;
                }
            }
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
        let v2 = match magic_parts.next() {
            Some(VERSION) => false,
            Some(VERSION_V2) => true,
            v => return Err(ArtifactError::UnsupportedVersion(v.unwrap_or("").into())),
        };
        let kind_tag = lines.read_kv(r, "kind")?;
        let kind = MonitorKind::from_tag(kind_tag.first().map_or("", String::as_str))
            .ok_or_else(|| lines.err(format!("unknown monitor kind '{}'", kind_tag.join(" "))))?;
        let precision = if v2 {
            lines
                .read_kv(r, "precision")?
                .first()
                .and_then(|t| WeightPrecision::from_label(t))
                .ok_or_else(|| lines.err("bad precision token"))?
        } else {
            WeightPrecision::F64
        };
        if precision != WeightPrecision::F64 && kind == MonitorKind::RuleBased {
            return Err(lines.err("rule-based bundles cannot be quantized"));
        }
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
            MonitorKind::Mlp | MonitorKind::MlpCustom => {
                let (net, p) = MlpNet::load_with_precision(r)?;
                if p != precision {
                    return Err(lines.err(format!(
                        "bundle precision {} disagrees with embedded network precision {}",
                        precision.label(),
                        p.label()
                    )));
                }
                MonitorModel::Mlp(net)
            }
            MonitorKind::Lstm | MonitorKind::LstmCustom => {
                let (net, p) = LstmNet::load_with_precision(r)?;
                if p != precision {
                    return Err(lines.err(format!(
                        "bundle precision {} disagrees with embedded network precision {}",
                        precision.label(),
                        p.label()
                    )));
                }
                MonitorModel::Lstm(net)
            }
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
            precision,
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
    fn quantized_lstm_bundle_roundtrips_and_passes_accuracy_gate() {
        let ds = dataset();
        let cfg = TrainConfig::quick_test();
        let monitor = MonitorKind::Lstm.train(&ds, &cfg).unwrap();
        let reference = monitor.clone();
        for precision in [WeightPrecision::F16, WeightPrecision::Int8] {
            let bundle = MonitorBundle::new(monitor.clone(), &ds, &cfg).with_precision(precision);
            let mut buf = Vec::new();
            bundle.save(&mut buf).unwrap();
            let text = String::from_utf8(buf.clone()).unwrap();
            assert!(text.starts_with("cpsmon-bundle v2\n"), "quantized → v2");
            let loaded = MonitorBundle::load_validated(
                &mut BufReader::new(buf.as_slice()),
                bundle.fingerprint,
            )
            .unwrap();
            assert_eq!(loaded.precision, precision);
            let delta = loaded.validate_accuracy(&reference, &ds.test).unwrap();
            assert!(
                delta <= MonitorBundle::f1_tolerance(precision),
                "{} drift {delta} above documented tolerance",
                precision.label()
            );
            // The dequant-or-native choice: quantized bundles serve f32.
            let engine = loaded.lstm_engine().expect("lstm bundle");
            assert_eq!(engine.label(), "f32");
        }
        // Exact bundles keep the v1 format and the f64 engine.
        let exact = MonitorBundle::new(monitor.clone(), &ds, &cfg);
        let mut buf = Vec::new();
        exact.save(&mut buf).unwrap();
        assert!(String::from_utf8(buf)
            .unwrap()
            .starts_with("cpsmon-bundle v1\n"));
        assert_eq!(exact.lstm_engine().expect("lstm bundle").label(), "f64");
    }

    #[test]
    fn corrupted_int8_scale_fails_load_validated() {
        // The regression the gate exists for: a corrupted scale must fail
        // loudly, not dequantize to garbage and silently mispredict.
        let ds = dataset();
        let cfg = TrainConfig::quick_test();
        let monitor = MonitorKind::Lstm.train(&ds, &cfg).unwrap();
        let bundle = MonitorBundle::new(monitor, &ds, &cfg).with_precision(WeightPrecision::Int8);
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let corrupted: Vec<String> = text
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("tensor8 lstm0.wh ") {
                    let mut parts: Vec<&str> = rest.split_whitespace().collect();
                    let n = parts.len();
                    parts[n - 1] = "inf";
                    format!("tensor8 lstm0.wh {}", parts.join(" "))
                } else {
                    l.to_string()
                }
            })
            .collect();
        let joined = corrupted.join("\n");
        let err = MonitorBundle::load_validated(
            &mut BufReader::new(joined.as_bytes()),
            bundle.fingerprint,
        )
        .unwrap_err();
        assert!(matches!(err, ArtifactError::Net(_)), "{err}");
        assert!(err.to_string().contains("scale") || err.source().is_some());
    }

    #[test]
    fn accuracy_gate_rejects_drifted_monitor() {
        // Pair an int8 bundle with a deliberately wrong reference (the rule
        // monitor) so the F1 delta exceeds the tolerance.
        let ds = dataset();
        let cfg = TrainConfig::quick_test();
        let lstm = MonitorKind::Lstm.train(&ds, &cfg).unwrap();
        let rule = MonitorKind::RuleBased.train(&ds, &cfg).unwrap();
        let f1_gap = (lstm.evaluate(&ds.test).f1() - rule.evaluate(&ds.test).f1()).abs();
        assert!(
            f1_gap > INT8_F1_TOLERANCE,
            "fixture monitors too close (gap {f1_gap}) to exercise the gate"
        );
        let bundle = MonitorBundle::new(lstm, &ds, &cfg).with_precision(WeightPrecision::Int8);
        let err = bundle.validate_accuracy(&rule, &ds.test).unwrap_err();
        assert!(matches!(err, ArtifactError::AccuracyDrift { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "no weights to quantize")]
    fn rule_bundles_refuse_quantization() {
        let ds = dataset();
        let cfg = TrainConfig::quick_test();
        let monitor = MonitorKind::RuleBased.train(&ds, &cfg).unwrap();
        let _ = MonitorBundle::new(monitor, &ds, &cfg).with_precision(WeightPrecision::F16);
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
