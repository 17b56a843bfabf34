//! Minimal neural-network stack for the RL-CCD reproduction.
//!
//! The paper's models (EP-GNN, an LSTM encoder, a pointer-style attention
//! decoder) are built in PyTorch; no equivalent ecosystem exists for this
//! port, so this crate provides the required pieces from scratch:
//!
//! * [`Tensor`] — dense row-major `f32` matrices;
//! * [`Csr`] — sparse matrices for neighbourhood aggregation / cone readout;
//! * [`Op`] / [`TapeOps`] — the one forward op set those models need
//!   (including a masked log-softmax for pointer attention), evaluated
//!   through one kernel call per op by both executors: [`Tape`] records
//!   it for reverse-mode autodiff, [`NoGradTape`] keeps values only for
//!   inference;
//! * [`Linear`] / [`LstmCell`] — layers whose parameters live in a named
//!   [`ParamSet`] with text serialization (transfer learning);
//! * [`Adam`] / [`Sgd`] — optimizers consuming accumulated [`GradSet`]s.
//!
//! # Example: fit a tiny regression
//! ```
//! use rl_ccd_nn::{Adam, GradSet, ParamSet, Tape, TapeOps, Tensor};
//!
//! let mut params = ParamSet::new();
//! params.insert("w", Tensor::zeros(1, 1));
//! let mut adam = Adam::new(0.05);
//! for _ in 0..200 {
//!     let mut tape = Tape::new();
//!     let binding = params.bind(&mut tape);
//!     let w = binding.var("w");
//!     let t = tape.leaf(Tensor::from_vec(1, 1, vec![-3.0]));
//!     let diff = tape.add(w, t); // w − 3
//!     let loss = tape.mul(diff, diff);
//!     let mut grads = tape.backward(loss);
//!     let mut gs = GradSet::new();
//!     gs.accumulate(&binding, &mut grads);
//!     adam.step(&mut params, &gs);
//! }
//! let w = params.get("w").expect("w").data()[0];
//! assert!((w - 3.0).abs() < 0.05);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gru;
pub mod init;
pub mod kernels;
pub mod linear;
pub mod lstm;
pub mod module;
pub mod optim;
pub mod sparse;
pub mod tape;
pub mod tensor;

pub use gru::GruCell;
pub use init::{uniform, xavier};
pub use kernels::{BufferPool, KernelMode};
pub use linear::Linear;
pub use lstm::{LstmCell, LstmState};
pub use module::{GradSet, LoadParamsError, ParamBinding, ParamSet};
pub use optim::{Adam, Sgd};
pub use sparse::{Csr, SharedCsr};
pub use tape::{Gradients, NoGradTape, Op, Tape, TapeOps, Var};
pub use tensor::Tensor;
