//! Saving and loading trained networks.
//!
//! A deployed safety monitor must be trainable offline and shipped to the
//! device, so the networks support (de)serialization. The format is a
//! small line-oriented text format rather than an external one: no
//! serialization-format crate is available in the offline dependency set,
//! and Rust's shortest-round-trip float formatting makes plain text
//! lossless (`f64 → string → f64` is exact).
//!
//! ```text
//! cpsmon-net v1 mlp
//! semantic 0.25
//! classes 2
//! tensors 6
//! tensor dense0.w 36 256
//! <one row of space-separated floats per line>
//! …
//! ```
//!
//! ## Format v2: quantized tensors
//!
//! Version 2 of the format (magic `cpsmon-net v2 <kind>`) adds a
//! `precision <f64|f16|int8>` line after the magic and two quantized
//! tensor encodings beside the exact `tensor` one:
//!
//! ```text
//! cpsmon-net v2 lstm
//! precision int8
//! semantic 0.25
//! shape 6 6
//! lstms 2
//! tensor16 lstm0.wx 6 512        ← rows of 4-hex-digit IEEE f16 bits
//! tensor8  lstm0.wh 128 512 0.0123 ← per-tensor scale, rows of i8 ints
//! …
//! ```
//!
//! - `tensor16`: each value is the IEEE binary16 bit pattern (round to
//!   nearest even from the f64 weight), written as 4 hex digits.
//! - `tensor8`: symmetric per-tensor affine quantization — `scale`
//!   = max-abs / 127, each value the nearest integer of `v / scale`
//!   clamped to ±127, dequantized as `q × scale`. A non-finite or
//!   non-positive scale is rejected at parse time, so a corrupted file
//!   fails loudly instead of silently mispredicting.
//!
//! Readers accept v1 and v2 interchangeably ([`MlpNet::load`] /
//! [`RecurrentNet::load`] report which precision was stored via
//! [`load_with_precision`](RecurrentNet::load_with_precision)); writers
//! emit v1 for exact f64 saves ([`save`](RecurrentNet::save)) and v2 for
//! quantized ones ([`save_quantized`](RecurrentNet::save_quantized)), so
//! artifacts produced by older builds keep loading unchanged.
//!
//! Every recurrent network ([`LstmNet`](crate::LstmNet),
//! [`GruNet`](crate::GruNet)) shares one layout, named by its cell's
//! [`RecurrentCell::KIND`] and [`RecurrentCell::TENSORS`]:
//!
//! ```text
//! cpsmon-net v1 gru
//! semantic 0.5
//! shape <feature_dim> <timesteps>
//! grus <layers>
//! tensor gru0.wxz 6 128
//! …                                ← every layer's tensors, then
//! tensor head.w 64 2               ← the dense head
//! tensor head.b 1 2
//! ```
//!
//! A file whose tensors parse but do not fit together (a bias of the wrong
//! width, layers whose widths do not chain, a zero dimension) is rejected
//! with [`LoadError::Parse`], never a panic.

use crate::dense::Dense;
use crate::loss::SemanticLoss;
use crate::matrix::Matrix;
use crate::mlp_net::MlpNet;
use crate::recurrent_net::{RecurrentCell, RecurrentNet};
use std::fmt;
use std::io::{self, BufRead, Write};

/// Errors arising while loading a serialized network.
#[derive(Debug)]
#[non_exhaustive]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream did not match the expected format.
    Parse {
        /// Line number (1-based) where parsing failed.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error while loading network: {e}"),
            LoadError::Parse { line, message } => {
                write!(f, "malformed network file at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Weight storage precision of a serialized network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightPrecision {
    /// Exact f64 weights (`tensor`, lossless roundtrip).
    F64,
    /// IEEE binary16 weights (`tensor16`, ~3 decimal digits).
    F16,
    /// Symmetric int8 weights with a per-tensor scale (`tensor8`).
    Int8,
}

impl WeightPrecision {
    /// The token used in the v2 `precision` line.
    pub fn label(&self) -> &'static str {
        match self {
            WeightPrecision::F64 => "f64",
            WeightPrecision::F16 => "f16",
            WeightPrecision::Int8 => "int8",
        }
    }

    /// Parses a `precision` token.
    pub fn from_label(s: &str) -> Option<WeightPrecision> {
        match s {
            "f64" => Some(WeightPrecision::F64),
            "f16" => Some(WeightPrecision::F16),
            "int8" => Some(WeightPrecision::Int8),
            _ => None,
        }
    }
}

/// Converts an f64 to IEEE binary16 bits, rounding to nearest even
/// (through f32 first — exact, since binary16 precision is far below
/// binary32's and double rounding cannot occur at these widths).
pub fn f16_bits_from_f64(v: f64) -> u16 {
    let x = (v as f32).to_bits();
    let sign = ((x >> 16) & 0x8000) as u16;
    let exp = ((x >> 23) & 0xff) as i32;
    let man = x & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN (keep NaN distinguishable from Inf).
        return sign | 0x7c00 | u16::from(man != 0) << 9;
    }
    let e16 = exp - 127 + 15;
    if e16 >= 0x1f {
        return sign | 0x7c00; // overflow → ±Inf
    }
    if e16 <= 0 {
        if e16 < -10 {
            return sign; // underflow → ±0
        }
        // Subnormal: shift the (implicit-1) mantissa into place.
        let man = man | 0x0080_0000;
        let shift = (14 - e16) as u32;
        let half = (man >> shift) as u16;
        let rem = man & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let round_up = rem > halfway || (rem == halfway && half & 1 == 1);
        return sign | (half + u16::from(round_up));
    }
    let half = ((e16 as u32) << 10 | man >> 13) as u16;
    let rem = man & 0x1fff;
    let round_up = rem > 0x1000 || (rem == 0x1000 && half & 1 == 1);
    // A mantissa carry correctly bumps the exponent (up to ±Inf).
    sign | (half + u16::from(round_up))
}

/// Converts IEEE binary16 bits to f64 (exact: every finite binary16 value
/// is representable in binary64).
pub fn f64_from_f16_bits(bits: u16) -> f64 {
    let sign = if bits & 0x8000 != 0 { -1.0 } else { 1.0 };
    let exp = ((bits >> 10) & 0x1f) as i32;
    let man = f64::from(bits & 0x3ff);
    let mag = match exp {
        0 => man * 2f64.powi(-24),
        0x1f => {
            if man == 0.0 {
                f64::INFINITY
            } else {
                f64::NAN
            }
        }
        _ => (1.0 + man / 1024.0) * 2f64.powi(exp - 15),
    };
    sign * mag
}

/// The symmetric per-tensor int8 scale: max-abs / 127, or 1 for an
/// all-zero tensor so dequantization stays well-defined.
pub fn int8_scale(m: &Matrix) -> f64 {
    let max_abs = m.as_slice().iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / 127.0
    }
}

fn write_matrix(w: &mut impl Write, name: &str, m: &Matrix) -> io::Result<()> {
    writeln!(w, "tensor {name} {} {}", m.rows(), m.cols())?;
    for r in 0..m.rows() {
        let row: Vec<String> = m.row(r).iter().map(|v| format!("{v}")).collect();
        writeln!(w, "{}", row.join(" "))?;
    }
    Ok(())
}

/// Writes one tensor in the encoding `precision` selects (`F64` is the v1
/// `tensor` encoding).
fn write_matrix_q(
    w: &mut impl Write,
    name: &str,
    m: &Matrix,
    precision: WeightPrecision,
) -> io::Result<()> {
    match precision {
        WeightPrecision::F64 => write_matrix(w, name, m),
        WeightPrecision::F16 => {
            writeln!(w, "tensor16 {name} {} {}", m.rows(), m.cols())?;
            for r in 0..m.rows() {
                let row: Vec<String> = m
                    .row(r)
                    .iter()
                    .map(|&v| format!("{:04x}", f16_bits_from_f64(v)))
                    .collect();
                writeln!(w, "{}", row.join(" "))?;
            }
            Ok(())
        }
        WeightPrecision::Int8 => {
            let scale = int8_scale(m);
            writeln!(w, "tensor8 {name} {} {} {scale}", m.rows(), m.cols())?;
            for r in 0..m.rows() {
                let row: Vec<String> = m
                    .row(r)
                    .iter()
                    .map(|&v| format!("{}", (v / scale).round().clamp(-127.0, 127.0) as i32))
                    .collect();
                writeln!(w, "{}", row.join(" "))?;
            }
            Ok(())
        }
    }
}

/// Writes a dense layer's `<prefix>.w` and `<prefix>.b` tensors.
fn write_dense(
    w: &mut impl Write,
    prefix: &str,
    layer: &Dense,
    precision: WeightPrecision,
) -> io::Result<()> {
    write_matrix_q(w, &format!("{prefix}.w"), layer.weights(), precision)?;
    write_matrix_q(w, &format!("{prefix}.b"), layer.bias(), precision)
}

/// Writes the magic (v1 for `None`, v2 plus its `precision` line for a
/// quantized save) and the `semantic` line every net kind opens with.
fn write_header(
    w: &mut impl Write,
    kind: &str,
    precision: Option<WeightPrecision>,
    semantic: &SemanticLoss,
) -> io::Result<()> {
    match precision {
        None => writeln!(w, "cpsmon-net v1 {kind}")?,
        Some(p) => {
            writeln!(w, "cpsmon-net v2 {kind}")?;
            writeln!(w, "precision {}", p.label())?;
        }
    }
    writeln!(w, "semantic {}", semantic.weight)
}

/// Streaming line reader with position tracking for error messages.
struct Lines<R> {
    reader: R,
    line: usize,
}

impl<R: BufRead> Lines<R> {
    fn new(reader: R) -> Self {
        Self { reader, line: 0 }
    }

    fn next(&mut self) -> Result<String, LoadError> {
        let mut buf = String::new();
        let n = self.reader.read_line(&mut buf)?;
        self.line += 1;
        if n == 0 {
            return Err(self.err("unexpected end of file"));
        }
        Ok(buf.trim_end().to_string())
    }

    fn err(&self, message: impl Into<String>) -> LoadError {
        LoadError::Parse {
            line: self.line,
            message: message.into(),
        }
    }

    /// Reads one tensor in any encoding the format version allows:
    /// `tensor` always, `tensor16` / `tensor8` only in v2 files. All
    /// encodings dequantize to an f64 [`Matrix`] here — loading is the
    /// "dequant" half of the dequant-or-native choice; the native f32
    /// engine is built separately from the dequantized network.
    fn read_matrix(&mut self, expected_name: &str, v2: bool) -> Result<Matrix, LoadError> {
        let header = self.next()?;
        let parts: Vec<&str> = header.split_whitespace().collect();
        let kind = parts.first().copied().unwrap_or("");
        let quantized = kind == "tensor16" || kind == "tensor8";
        if !(kind == "tensor" || (v2 && quantized)) {
            return Err(self.err(format!("expected tensor header, got '{header}'")));
        }
        let expected_len = if kind == "tensor8" { 5 } else { 4 };
        if parts.len() != expected_len {
            return Err(self.err(format!("malformed {kind} header '{header}'")));
        }
        if parts[1] != expected_name {
            return Err(self.err(format!(
                "expected tensor '{expected_name}', got '{}'",
                parts[1]
            )));
        }
        let rows: usize = parts[2].parse().map_err(|_| self.err("bad row count"))?;
        let cols: usize = parts[3].parse().map_err(|_| self.err("bad column count"))?;
        let scale = if kind == "tensor8" {
            let s: f64 = parts[4]
                .parse()
                .map_err(|_| self.err(format!("bad int8 scale '{}'", parts[4])))?;
            if !s.is_finite() || s <= 0.0 {
                return Err(self.err(format!(
                    "corrupted int8 scale {s} for tensor '{expected_name}' \
                     (must be finite and positive)"
                )));
            }
            s
        } else {
            1.0
        };
        // The header's size is untrusted: reserve only what the rows read
        // so far prove exists.
        let mut data = Vec::new();
        for _ in 0..rows {
            let line = self.next()?;
            let before = data.len();
            for tok in line.split_whitespace() {
                let v = match kind {
                    "tensor16" => f64_from_f16_bits(
                        u16::from_str_radix(tok, 16)
                            .map_err(|_| self.err(format!("bad f16 bits '{tok}'")))?,
                    ),
                    "tensor8" => {
                        let q: i32 = tok
                            .parse()
                            .map_err(|_| self.err(format!("bad int8 value '{tok}'")))?;
                        if !(-127..=127).contains(&q) {
                            return Err(self.err(format!("int8 value {q} out of range")));
                        }
                        f64::from(q) * scale
                    }
                    _ => tok
                        .parse()
                        .map_err(|_| self.err(format!("bad float '{tok}'")))?,
                };
                data.push(v);
            }
            if data.len() - before != cols {
                return Err(self.err(format!(
                    "expected {cols} values in row, got {}",
                    data.len() - before
                )));
            }
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// Reads a dense layer's `<prefix>.w` and `<prefix>.b` tensors.
    fn read_dense(&mut self, prefix: &str, v2: bool) -> Result<Dense, LoadError> {
        let w = self.read_matrix(&format!("{prefix}.w"), v2)?;
        let b = self.read_matrix(&format!("{prefix}.b"), v2)?;
        Dense::from_params(w, b).map_err(|m| self.err(format!("{prefix}: {m}")))
    }

    /// Reads a `<key> <n>` line holding one positive count.
    fn read_count(&mut self, key: &str) -> Result<usize, LoadError> {
        let count: usize = self
            .read_kv(key)?
            .first()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| self.err(format!("bad {key} count")))?;
        if count == 0 {
            return Err(self.err(format!("{key} count must be positive")));
        }
        Ok(count)
    }

    fn read_kv(&mut self, key: &str) -> Result<Vec<String>, LoadError> {
        let line = self.next()?;
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some(k) if k == key => Ok(parts.map(str::to_string).collect()),
            other => Err(self.err(format!("expected '{key}', got '{}'", other.unwrap_or("")))),
        }
    }
}

/// Parses the header [`write_header`] writes for `kind`: returns the stored
/// precision (v1 is implicitly [`WeightPrecision::F64`]; v2 reads the
/// `precision` line that follows the magic) and the semantic loss.
fn read_header(
    lines: &mut Lines<impl BufRead>,
    kind: &str,
) -> Result<(WeightPrecision, SemanticLoss), LoadError> {
    let magic = lines.next()?;
    let precision = if magic == format!("cpsmon-net v1 {kind}") {
        WeightPrecision::F64
    } else if magic == format!("cpsmon-net v2 {kind}") {
        let token = lines.read_kv("precision")?;
        token
            .first()
            .and_then(|t| WeightPrecision::from_label(t))
            .ok_or_else(|| lines.err("bad precision token"))?
    } else {
        return Err(lines.err(format!("bad magic '{magic}'")));
    };
    let weight = lines
        .read_kv("semantic")?
        .first()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|w| w.is_finite() && *w >= 0.0)
        .ok_or_else(|| lines.err("bad semantic weight"))?;
    Ok((precision, SemanticLoss::new(weight)))
}

impl MlpNet {
    /// Writes the network to `w` in the cpsmon-net v1 format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        self.write(w, None)
    }

    /// Writes the network to `w` in the cpsmon-net v2 format with weights
    /// stored at `precision`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save_quantized(&self, w: &mut impl Write, precision: WeightPrecision) -> io::Result<()> {
        self.write(w, Some(precision))
    }

    fn write(&self, w: &mut impl Write, precision: Option<WeightPrecision>) -> io::Result<()> {
        write_header(w, "mlp", precision, &self.semantic)?;
        writeln!(w, "layers {}", self.layers().len())?;
        let precision = precision.unwrap_or(WeightPrecision::F64);
        for (i, layer) in self.layers().iter().enumerate() {
            write_dense(w, &format!("dense{i}"), layer, precision)?;
        }
        Ok(())
    }

    /// Reads a network previously written by [`save`](Self::save) or
    /// [`save_quantized`](Self::save_quantized) (v1 or v2, any precision —
    /// quantized weights are dequantized to f64).
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] on I/O failure or malformed input.
    pub fn load(r: &mut impl BufRead) -> Result<MlpNet, LoadError> {
        Self::load_with_precision(r).map(|(net, _)| net)
    }

    /// Like [`load`](Self::load), also reporting the precision the file
    /// stored its weights at.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] on I/O failure or malformed input.
    pub fn load_with_precision(
        r: &mut impl BufRead,
    ) -> Result<(MlpNet, WeightPrecision), LoadError> {
        let mut lines = Lines::new(r);
        let (precision, semantic) = read_header(&mut lines, "mlp")?;
        let v2 = precision != WeightPrecision::F64;
        let count = lines.read_count("layers")?;
        let layers = (0..count)
            .map(|i| lines.read_dense(&format!("dense{i}"), v2))
            .collect::<Result<Vec<_>, _>>()?;
        let mut net = MlpNet::from_layers(layers).map_err(|m| lines.err(m))?;
        net.semantic = semantic;
        Ok((net, precision))
    }
}

impl<C: RecurrentCell> RecurrentNet<C> {
    /// Writes the network to `w` in the cpsmon-net v1 format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        self.write(w, None)
    }

    /// Writes the network to `w` in the cpsmon-net v2 format with weights
    /// stored at `precision`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save_quantized(&self, w: &mut impl Write, precision: WeightPrecision) -> io::Result<()> {
        self.write(w, Some(precision))
    }

    fn write(&self, w: &mut impl Write, precision: Option<WeightPrecision>) -> io::Result<()> {
        write_header(w, C::KIND, precision, &self.semantic)?;
        writeln!(w, "shape {} {}", self.feature_dim, self.timesteps)?;
        writeln!(w, "{}s {}", C::KIND, self.cells.len())?;
        let precision = precision.unwrap_or(WeightPrecision::F64);
        for (i, cell) in self.cells.iter().enumerate() {
            for (name, m) in C::TENSORS.iter().zip(cell.params()) {
                write_matrix_q(w, &format!("{}{i}.{name}", C::KIND), m, precision)?;
            }
        }
        write_dense(w, "head", &self.head, precision)
    }

    /// Reads a network previously written by [`save`](Self::save) or
    /// [`save_quantized`](Self::save_quantized) (v1 or v2, any precision —
    /// quantized weights are dequantized to f64).
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] on I/O failure or malformed input.
    pub fn load(r: &mut impl BufRead) -> Result<Self, LoadError> {
        Self::load_with_precision(r).map(|(net, _)| net)
    }

    /// Like [`load`](Self::load), also reporting the precision the file
    /// stored its weights at.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] on I/O failure or malformed input.
    pub fn load_with_precision(r: &mut impl BufRead) -> Result<(Self, WeightPrecision), LoadError> {
        let mut lines = Lines::new(r);
        let (precision, semantic) = read_header(&mut lines, C::KIND)?;
        let v2 = precision != WeightPrecision::F64;
        let shape = lines.read_kv("shape")?;
        let dims: Vec<usize> = shape.iter().filter_map(|v| v.parse().ok()).collect();
        let &[feature_dim, timesteps] = dims.as_slice() else {
            return Err(lines.err("bad shape line"));
        };
        if feature_dim == 0 || timesteps == 0 {
            return Err(lines.err("shape dimensions must be positive"));
        }
        let count = lines.read_count(&format!("{}s", C::KIND))?;
        let mut cells = Vec::new();
        let mut prev = feature_dim;
        for i in 0..count {
            let name = format!("{}{i}", C::KIND);
            let tensors = C::TENSORS
                .iter()
                .map(|t| lines.read_matrix(&format!("{name}.{t}"), v2))
                .collect::<Result<Vec<_>, _>>()?;
            let cell = C::from_params(tensors).map_err(|m| lines.err(format!("{name}: {m}")))?;
            if cell.input_dim() != prev {
                return Err(lines.err(format!(
                    "{name} input width {} != expected {prev}",
                    cell.input_dim()
                )));
            }
            prev = cell.hidden_dim();
            cells.push(cell);
        }
        let head = lines.read_dense("head", v2)?;
        if head.input_dim() != prev || head.output_dim() == 0 {
            return Err(lines.err(format!(
                "head is {}x{}, expected {prev} rows and at least one class",
                head.input_dim(),
                head.output_dim()
            )));
        }
        let net = RecurrentNet {
            cells,
            head,
            feature_dim,
            timesteps,
            semantic,
        };
        Ok((net, precision))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_normal;
    use crate::model::{GradModel, Network};
    use crate::rng::SmallRng;
    use crate::{GruConfig, GruNet, LstmConfig, LstmNet, MlpConfig};
    use std::io::BufReader;

    #[test]
    fn mlp_roundtrip_is_exact() {
        let net = MlpNet::new(&MlpConfig {
            input_dim: 5,
            hidden: vec![7, 3],
            classes: 2,
            seed: 9,
        });
        let mut buf = Vec::new();
        net.save(&mut buf).unwrap();
        let loaded = MlpNet::load(&mut BufReader::new(buf.as_slice())).unwrap();
        let x = random_normal(4, 5, 1.0, &mut SmallRng::new(1));
        assert_eq!(net.predict_proba(&x), loaded.predict_proba(&x));
        assert_eq!(net.semantic, loaded.semantic);
    }

    #[test]
    fn lstm_roundtrip_is_exact() {
        let net = LstmNet::new(&LstmConfig {
            feature_dim: 3,
            timesteps: 4,
            hidden: vec![6, 5],
            classes: 2,
            seed: 11,
        });
        let mut buf = Vec::new();
        net.save(&mut buf).unwrap();
        let loaded = LstmNet::load(&mut BufReader::new(buf.as_slice())).unwrap();
        let x = random_normal(3, 12, 1.0, &mut SmallRng::new(2));
        assert_eq!(net.predict_proba(&x), loaded.predict_proba(&x));
    }

    #[test]
    fn gru_roundtrip_is_exact() {
        let mut net = GruNet::new(&GruConfig {
            feature_dim: 3,
            timesteps: 4,
            hidden: vec![6, 5],
            classes: 2,
            seed: 13,
        });
        net.semantic = SemanticLoss::new(0.5);
        let mut buf = Vec::new();
        net.save(&mut buf).unwrap();
        let loaded = GruNet::load(&mut BufReader::new(buf.as_slice())).unwrap();
        let x = random_normal(5, 12, 1.0, &mut SmallRng::new(3));
        assert_eq!(net.predict_proba(&x), loaded.predict_proba(&x));
        assert_eq!(net.semantic, loaded.semantic);
        assert_eq!(net.param_count(), loaded.param_count());
    }

    #[test]
    fn gru_load_rejects_truncated_file() {
        let net = GruNet::new(&GruConfig {
            feature_dim: 2,
            timesteps: 3,
            hidden: vec![4],
            classes: 2,
            seed: 1,
        });
        let mut buf = Vec::new();
        net.save(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let err = GruNet::load(&mut BufReader::new(buf.as_slice())).unwrap_err();
        assert!(matches!(err, LoadError::Parse { .. }), "{err}");
    }

    #[test]
    fn load_rejects_bad_magic() {
        let data = b"not-a-network\n";
        let err = MlpNet::load(&mut BufReader::new(data.as_slice())).unwrap_err();
        assert!(matches!(err, LoadError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn load_rejects_truncated_file() {
        let net = MlpNet::new(&MlpConfig {
            input_dim: 3,
            hidden: vec![4],
            classes: 2,
            seed: 1,
        });
        let mut buf = Vec::new();
        net.save(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let err = MlpNet::load(&mut BufReader::new(buf.as_slice())).unwrap_err();
        assert!(matches!(err, LoadError::Parse { .. }), "{err}");
    }

    #[test]
    fn load_rejects_corrupt_float() {
        let net = MlpNet::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![2],
            classes: 2,
            seed: 1,
        });
        let mut buf = Vec::new();
        net.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap().replacen("0.", "xx.", 1);
        let err = MlpNet::load(&mut BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, LoadError::Parse { .. }), "{err}");
    }

    fn lstm_fixture(seed: u64) -> LstmNet {
        LstmNet::new(&LstmConfig {
            feature_dim: 3,
            timesteps: 4,
            hidden: vec![6, 5],
            classes: 2,
            seed,
        })
    }

    #[test]
    fn f16_bits_roundtrip_through_f64_exactly() {
        // Every finite binary16 value must survive f16 → f64 → f16.
        for bits in 0..=u16::MAX {
            let v = f64_from_f16_bits(bits);
            if v.is_nan() {
                continue;
            }
            assert_eq!(f16_bits_from_f64(v), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn f16_conversion_rounds_to_nearest_even() {
        assert_eq!(f16_bits_from_f64(1.0), 0x3c00);
        assert_eq!(f16_bits_from_f64(-2.0), 0xc000);
        // 1 + 2^-11 is exactly halfway between 1.0 and the next f16; ties
        // go to the even mantissa (1.0).
        assert_eq!(f16_bits_from_f64(1.0 + 2f64.powi(-11)), 0x3c00);
        // Slightly above the halfway point rounds up.
        assert_eq!(f16_bits_from_f64(1.0 + 2f64.powi(-11) * 1.01), 0x3c01);
        // Overflow saturates to infinity, tiny values flush to zero.
        assert_eq!(f16_bits_from_f64(1e6), 0x7c00);
        assert_eq!(f16_bits_from_f64(-1e6), 0xfc00);
        assert_eq!(f16_bits_from_f64(1e-12), 0x0000);
    }

    #[test]
    fn lstm_v2_f64_roundtrip_is_exact() {
        let net = lstm_fixture(31);
        let mut buf = Vec::new();
        net.save_quantized(&mut buf, WeightPrecision::F64).unwrap();
        let (loaded, precision) =
            LstmNet::load_with_precision(&mut BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(precision, WeightPrecision::F64);
        let x = random_normal(3, 12, 1.0, &mut SmallRng::new(2));
        assert_eq!(net.predict_proba(&x), loaded.predict_proba(&x));
    }

    #[test]
    fn lstm_quantized_roundtrips_within_precision() {
        let net = lstm_fixture(33);
        let x = random_normal(4, 12, 1.0, &mut SmallRng::new(5));
        let exact = net.predict_proba(&x);
        for (precision, tol) in [(WeightPrecision::F16, 5e-3), (WeightPrecision::Int8, 5e-2)] {
            let mut buf = Vec::new();
            net.save_quantized(&mut buf, precision).unwrap();
            let (loaded, p) =
                LstmNet::load_with_precision(&mut BufReader::new(buf.as_slice())).unwrap();
            assert_eq!(p, precision);
            let probs = loaded.predict_proba(&x);
            for (a, b) in exact.as_slice().iter().zip(probs.as_slice()) {
                assert!(
                    (a - b).abs() < tol,
                    "{} drifted: {a} vs {b}",
                    precision.label()
                );
            }
        }
    }

    #[test]
    fn mlp_quantized_roundtrips_within_precision() {
        let net = MlpNet::new(&MlpConfig {
            input_dim: 5,
            hidden: vec![7, 3],
            classes: 2,
            seed: 9,
        });
        let x = random_normal(4, 5, 1.0, &mut SmallRng::new(1));
        let exact = net.predict_proba(&x);
        let mut buf = Vec::new();
        net.save_quantized(&mut buf, WeightPrecision::F16).unwrap();
        let (loaded, p) = MlpNet::load_with_precision(&mut BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(p, WeightPrecision::F16);
        for (a, b) in exact
            .as_slice()
            .iter()
            .zip(loaded.predict_proba(&x).as_slice())
        {
            assert!((a - b).abs() < 5e-3, "f16 mlp drifted: {a} vs {b}");
        }
    }

    #[test]
    fn corrupted_int8_scale_is_rejected() {
        let net = lstm_fixture(35);
        let mut buf = Vec::new();
        net.save_quantized(&mut buf, WeightPrecision::Int8).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for bad in ["0", "-1", "nan", "inf"] {
            // Replace the first tensor8 scale with a corrupted value.
            let corrupted: Vec<String> = text
                .lines()
                .map(|l| {
                    if let Some(rest) = l.strip_prefix("tensor8 lstm0.wx ") {
                        let mut parts: Vec<&str> = rest.split_whitespace().collect();
                        let n = parts.len();
                        parts[n - 1] = bad;
                        format!("tensor8 lstm0.wx {}", parts.join(" "))
                    } else {
                        l.to_string()
                    }
                })
                .collect();
            let joined = corrupted.join("\n");
            let err = LstmNet::load(&mut BufReader::new(joined.as_bytes())).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("scale"),
                "scale {bad} must be rejected with a scale error, got: {msg}"
            );
        }
    }

    #[test]
    fn v1_reader_rejects_quantized_tensors() {
        // A v1 magic with v2 tensor encodings must not parse.
        let net = lstm_fixture(37);
        let mut buf = Vec::new();
        net.save_quantized(&mut buf, WeightPrecision::F16).unwrap();
        let text = String::from_utf8(buf).unwrap().replacen(
            "cpsmon-net v2 lstm\nprecision f16\n",
            "cpsmon-net v1 lstm\n",
            1,
        );
        let err = LstmNet::load(&mut BufReader::new(text.as_bytes())).unwrap_err();
        assert!(matches!(err, LoadError::Parse { .. }), "{err}");
    }

    #[test]
    #[allow(clippy::excessive_precision)]
    fn extreme_values_roundtrip() {
        // Shortest-roundtrip float formatting must survive subnormals and
        // large magnitudes.
        let net = MlpNet::from_layers(vec![
            Dense::from_params(
                Matrix::from_rows(&[&[1e-308, -1e300], &[std::f64::consts::PI, 0.0]]),
                Matrix::row_vector(&[f64::MIN_POSITIVE, 123.456_789_012_345_68]),
            )
            .unwrap(),
            Dense::from_params(
                Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
                Matrix::row_vector(&[0.0, 0.0]),
            )
            .unwrap(),
        ])
        .unwrap();
        let mut buf = Vec::new();
        net.save(&mut buf).unwrap();
        let loaded = MlpNet::load(&mut BufReader::new(buf.as_slice())).unwrap();
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        assert_eq!(net.predict_proba(&x), loaded.predict_proba(&x));
    }

    /// `text` with tensor `name` replaced by `rows`, one string of
    /// space-separated values per row.
    fn with_tensor(text: &str, name: &str, rows: &[&str]) -> String {
        let mut out = Vec::new();
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            let header: Vec<&str> = line.split_whitespace().collect();
            if header.get(1) == Some(&name) {
                let old_rows: usize = header[2].parse().unwrap();
                lines.by_ref().take(old_rows).for_each(drop);
                let cols = rows[0].split_whitespace().count();
                out.push(format!("tensor {name} {} {cols}", rows.len()));
                out.extend(rows.iter().map(|r| r.to_string()));
            } else {
                out.push(line.to_string());
            }
        }
        out.join("\n") + "\n"
    }

    fn saved(save: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
        let mut buf = Vec::new();
        save(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn expect_parse_error<T>(loaded: Result<T, LoadError>) -> String {
        match loaded {
            Err(e @ LoadError::Parse { .. }) => e.to_string(),
            Err(e) => panic!("expected a parse error, got {e}"),
            Ok(_) => panic!("a mis-shaped file loaded"),
        }
    }

    fn load_mlp(text: &str) -> Result<MlpNet, LoadError> {
        MlpNet::load(&mut BufReader::new(text.as_bytes()))
    }

    fn tiny_mlp() -> String {
        let net = MlpNet::new(&MlpConfig {
            input_dim: 2,
            hidden: vec![3],
            classes: 2,
            seed: 1,
        });
        saved(|w| net.save(w))
    }

    fn tiny_recurrent() -> LstmConfig {
        LstmConfig {
            feature_dim: 2,
            timesteps: 2,
            hidden: vec![1],
            classes: 2,
            seed: 1,
        }
    }

    #[test]
    fn mlp_load_rejects_unchained_layer_widths() {
        let text = with_tensor(&tiny_mlp(), "dense1.w", &["1 1", "1 1"]);
        let msg = expect_parse_error(load_mlp(&text));
        assert!(msg.contains("dense1 input width 2"), "{msg}");
    }

    #[test]
    fn mlp_load_rejects_mis_sized_bias() {
        let text = with_tensor(&tiny_mlp(), "dense0.b", &["0 0"]);
        let msg = expect_parse_error(load_mlp(&text));
        assert!(msg.contains("dense0: bias is 1x2, expected 1x3"), "{msg}");
    }

    #[test]
    fn lstm_load_rejects_two_row_gate_bias() {
        let net = LstmNet::new(&tiny_recurrent());
        let text = with_tensor(&saved(|w| net.save(w)), "lstm0.b", &["0 1 0 0"; 2]);
        let msg = expect_parse_error(LstmNet::load(&mut BufReader::new(text.as_bytes())));
        assert!(msg.contains("lstm0: gate shapes inconsistent"), "{msg}");
    }

    #[test]
    fn lstm_load_rejects_mis_sized_head_bias() {
        let net = LstmNet::new(&tiny_recurrent());
        let text = with_tensor(&saved(|w| net.save(w)), "head.b", &["0 0 0"]);
        let msg = expect_parse_error(LstmNet::load(&mut BufReader::new(text.as_bytes())));
        assert!(msg.contains("head: bias is 1x3, expected 1x2"), "{msg}");
    }

    #[test]
    fn gru_load_rejects_mis_sized_head_bias() {
        let net = GruNet::new(&tiny_recurrent());
        let text = with_tensor(&saved(|w| net.save(w)), "head.b", &["0 0 0"]);
        let msg = expect_parse_error(GruNet::load(&mut BufReader::new(text.as_bytes())));
        assert!(msg.contains("head: bias is 1x3, expected 1x2"), "{msg}");
    }

    #[test]
    fn load_rejects_out_of_range_header_values() {
        let mlp = tiny_mlp();
        for bad in [
            mlp.replacen("semantic 0.5", "semantic NaN", 1),
            mlp.replacen("semantic 0.5", "semantic", 1),
            mlp.replacen("layers 2", "layers", 1),
            with_tensor(&with_tensor(&mlp, "dense0.w", &["", ""]), "dense0.b", &[""]),
            mlp.replacen(
                "tensor dense0.w 2 3",
                "tensor dense0.w 99999999999 99999999999",
                1,
            ),
        ] {
            expect_parse_error(load_mlp(&bad));
        }
        let lstm = saved(|w| LstmNet::new(&tiny_recurrent()).save(w));
        let bad = lstm.replacen("shape 2 2", "shape 2 0", 1);
        expect_parse_error(LstmNet::load(&mut BufReader::new(bad.as_bytes())));
    }
}
