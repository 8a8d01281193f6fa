//! # cpsmon-nn — a small, deterministic neural-network substrate
//!
//! The paper trains its safety monitors with TensorFlow; no comparable
//! framework exists in the offline Rust ecosystem, so this crate implements
//! the required subset from scratch:
//!
//! - [`Matrix`]: a row-major `f64` matrix with a blocked GEMM kernel.
//! - [`simd`]: runtime-dispatched AVX2+FMA microkernels behind the GEMM,
//!   softmax, sigmoid/tanh, and fused-LSTM-step hot loops, with the
//!   portable scalar kernels as fallback (`CPSMON_SIMD=0` forces them).
//! - [`Dense`]: fully connected layers with ReLU / linear activations.
//! - [`Lstm`] / [`Gru`]: recurrent layers with full backpropagation through
//!   time.
//! - [`MlpNet`] / [`LstmNet`]: the two monitor architectures used in the
//!   paper (MLP 256-128 and stacked LSTM 128-64 over 6 timesteps), both with
//!   softmax heads trained by sparse categorical cross-entropy and Adam.
//!   [`LstmNet`] and the ablation's [`GruNet`] are one [`RecurrentNet`],
//!   generic over its [`RecurrentCell`].
//! - [`Network`]: what each architecture supplies (forward and backward
//!   passes, parameter list) and the training, evaluation and
//!   [`GradModel`] code written once over it.
//! - [`SemanticLoss`]: the knowledge-integration term of Eq. 2 of the paper,
//!   `loss = loss_ex + w·|p_unsafe − I(φ)|`.
//! - **Input gradients**: every network exposes `input_gradient`, the exact
//!   gradient of the loss with respect to the *input*, which is what the
//!   FGSM attack (Eq. 3–4) needs.
//!
//! Everything is deterministic: all stochastic operations take an explicit
//! seed through [`rng::SmallRng`]; there is no global RNG and no
//! platform-dependent behaviour.
//!
//! ## Example
//!
//! ```
//! use cpsmon_nn::{GradModel, Matrix, MlpNet, MlpConfig, Network};
//!
//! // Learn XOR with a tiny MLP.
//! let x = Matrix::from_rows(&[&[0., 0.], &[0., 1.], &[1., 0.], &[1., 1.]]);
//! let y = vec![0usize, 1, 1, 0];
//! let mut net = MlpNet::new(&MlpConfig {
//!     input_dim: 2,
//!     hidden: vec![16, 16],
//!     classes: 2,
//!     seed: 1,
//! });
//! let mut trainer = cpsmon_nn::AdamTrainer::new(net.param_count(), 0.05);
//! for _ in 0..400 {
//!     net.train_batch(&x, &y, None, &mut trainer);
//! }
//! let p = net.predict_proba(&x);
//! assert!(p.get(0, 0) > 0.5 && p.get(1, 1) > 0.5);
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod adam;
pub mod dense;
pub mod error;
pub mod gradcheck;
pub mod gru;
pub mod init;
pub mod loss;
pub mod lstm;
pub mod lstm_net;
pub mod matrix;
pub mod mlp_net;
pub mod model;
pub mod par;
pub mod recurrent_net;
pub mod rng;
pub mod serialize;
pub mod simd;
mod spare;
mod weights;

pub use adam::AdamTrainer;
pub use dense::Dense;
pub use error::NnError;
pub use gru::{Gru, GruConfig, GruNet};
pub use loss::SemanticLoss;
pub use lstm::{Lstm, LstmScratch};
pub use lstm_net::{LstmConfig, LstmNet, LstmNetScratch, LstmStreamState};
pub use matrix::Matrix;
pub use mlp_net::{MlpConfig, MlpNet, MlpScratch};
pub use model::{GradModel, Network};
pub use recurrent_net::{RecurrentCell, RecurrentConfig, RecurrentNet};
pub use serialize::LoadError;
