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
//! layers 3
//! tensor dense0.w 36 256
//! <one row of space-separated floats per line>
//! …
//! ```
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
//! `v1` is the only format version: any other magic, including the retired
//! quantized `v2`, is a [`LoadError::Parse`] at line 1. A file whose
//! tensors parse but do not fit together (a bias of the wrong width, layers
//! whose widths do not chain, a zero dimension) is rejected with
//! [`LoadError::Parse`] too, never a panic.

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

fn write_matrix(w: &mut impl Write, name: &str, m: &Matrix) -> io::Result<()> {
    writeln!(w, "tensor {name} {} {}", m.rows(), m.cols())?;
    for r in 0..m.rows() {
        let row: Vec<String> = m.row(r).iter().map(|v| format!("{v}")).collect();
        writeln!(w, "{}", row.join(" "))?;
    }
    Ok(())
}

/// Writes a dense layer's `<prefix>.w` and `<prefix>.b` tensors.
fn write_dense(w: &mut impl Write, prefix: &str, layer: &Dense) -> io::Result<()> {
    write_matrix(w, &format!("{prefix}.w"), layer.weights())?;
    write_matrix(w, &format!("{prefix}.b"), layer.bias())
}

/// Writes the magic and the `semantic` line every net kind opens with.
fn write_header(w: &mut impl Write, kind: &str, semantic: &SemanticLoss) -> io::Result<()> {
    writeln!(w, "cpsmon-net v1 {kind}")?;
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

    /// Reads one `tensor` block into a [`Matrix`].
    fn read_matrix(&mut self, expected_name: &str) -> Result<Matrix, LoadError> {
        let header = self.next()?;
        let parts: Vec<&str> = header.split_whitespace().collect();
        if parts.first() != Some(&"tensor") {
            return Err(self.err(format!("expected tensor header, got '{header}'")));
        }
        if parts.len() != 4 {
            return Err(self.err(format!("malformed tensor header '{header}'")));
        }
        if parts[1] != expected_name {
            return Err(self.err(format!(
                "expected tensor '{expected_name}', got '{}'",
                parts[1]
            )));
        }
        let rows: usize = parts[2].parse().map_err(|_| self.err("bad row count"))?;
        let cols: usize = parts[3].parse().map_err(|_| self.err("bad column count"))?;
        // The header's size is untrusted: reserve only what the rows read
        // so far prove exists.
        let mut data = Vec::new();
        for _ in 0..rows {
            let line = self.next()?;
            let before = data.len();
            for tok in line.split_whitespace() {
                data.push(
                    tok.parse()
                        .map_err(|_| self.err(format!("bad float '{tok}'")))?,
                );
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
    fn read_dense(&mut self, prefix: &str) -> Result<Dense, LoadError> {
        let w = self.read_matrix(&format!("{prefix}.w"))?;
        let b = self.read_matrix(&format!("{prefix}.b"))?;
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

/// Parses the header [`write_header`] writes for `kind` and returns the
/// semantic loss.
fn read_header(lines: &mut Lines<impl BufRead>, kind: &str) -> Result<SemanticLoss, LoadError> {
    let magic = lines.next()?;
    if magic != format!("cpsmon-net v1 {kind}") {
        return Err(lines.err(format!("bad magic '{magic}'")));
    }
    let weight = lines
        .read_kv("semantic")?
        .first()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|w| w.is_finite() && *w >= 0.0)
        .ok_or_else(|| lines.err("bad semantic weight"))?;
    Ok(SemanticLoss::new(weight))
}

impl MlpNet {
    /// Writes the network to `w` in the cpsmon-net v1 format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        write_header(w, "mlp", &self.semantic)?;
        writeln!(w, "layers {}", self.layers().len())?;
        for (i, layer) in self.layers().iter().enumerate() {
            write_dense(w, &format!("dense{i}"), layer)?;
        }
        Ok(())
    }

    /// Reads a network previously written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] on I/O failure or malformed input.
    pub fn load(r: &mut impl BufRead) -> Result<MlpNet, LoadError> {
        let mut lines = Lines::new(r);
        let semantic = read_header(&mut lines, "mlp")?;
        let count = lines.read_count("layers")?;
        let layers = (0..count)
            .map(|i| lines.read_dense(&format!("dense{i}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut net = MlpNet::from_layers(layers).map_err(|m| lines.err(m))?;
        net.semantic = semantic;
        Ok(net)
    }
}

impl<C: RecurrentCell> RecurrentNet<C> {
    /// Writes the network to `w` in the cpsmon-net v1 format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        write_header(w, C::KIND, &self.semantic)?;
        writeln!(w, "shape {} {}", self.feature_dim, self.timesteps)?;
        writeln!(w, "{}s {}", C::KIND, self.cells.len())?;
        for (i, cell) in self.cells.iter().enumerate() {
            for (name, m) in C::TENSORS.iter().zip(cell.params()) {
                write_matrix(w, &format!("{}{i}.{name}", C::KIND), m)?;
            }
        }
        write_dense(w, "head", &self.head)
    }

    /// Reads a network previously written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] on I/O failure or malformed input.
    pub fn load(r: &mut impl BufRead) -> Result<Self, LoadError> {
        let mut lines = Lines::new(r);
        let semantic = read_header(&mut lines, C::KIND)?;
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
                .map(|t| lines.read_matrix(&format!("{name}.{t}")))
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
        let head = lines.read_dense("head")?;
        if head.input_dim() != prev || head.output_dim() == 0 {
            return Err(lines.err(format!(
                "head is {}x{}, expected {prev} rows and at least one class",
                head.input_dim(),
                head.output_dim()
            )));
        }
        Ok(RecurrentNet {
            cells,
            head,
            feature_dim,
            timesteps,
            semantic,
        })
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
    fn v1_reader_rejects_quantized_tensors() {
        // The retired v2 format (a `precision` line after a v2 magic, and
        // `tensor16`/`tensor8` encodings) must not parse.
        let text = saved(|w| lstm_fixture(37).save(w));
        let load = |text: &str| LstmNet::load(&mut BufReader::new(text.as_bytes()));
        let v2 = text.replacen(
            "cpsmon-net v1 lstm\n",
            "cpsmon-net v2 lstm\nprecision f16\n",
            1,
        );
        let err = load(&v2).unwrap_err();
        assert!(matches!(err, LoadError::Parse { line: 1, .. }), "{err}");
        for header in ["tensor16 lstm0.wx 3 24", "tensor8 lstm0.wx 3 24 0.01"] {
            let quantized = text.replacen("tensor lstm0.wx 3 24", header, 1);
            assert_ne!(quantized, text, "fixture has no '{header}' site");
            expect_parse_error(load(&quantized));
        }
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
