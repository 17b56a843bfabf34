//! RL-CCD: concurrent clock-and-data optimization via attention-based
//! self-supervised reinforcement learning (DAC 2023) — the paper's core
//! contribution, reproduced end to end.
//!
//! Given a placed design, RL-CCD selects a subset of violating timing
//! endpoints to prioritize for useful-skew optimization: their timing is
//! worsened to the design WNS with margins so the clock engine over-fixes
//! them, the margins are removed, and the rest of placement optimization
//! runs unchanged. The agent is built from:
//!
//! * [`EpGnn`] — endpoint-oriented GNN (Eqs. 2–3) over Table I features,
//!   re-encoded every step on the training tapes and patched in place by
//!   [`IncrementalEncoder`] on the inference path (one selection loop,
//!   [`RlCcd`]'s, runs both);
//! * [`ActionEncoder`] — an LSTM encoding past selections (Eq. 4);
//! * [`AttentionDecoder`] — pointer-style attention producing the sampling
//!   distribution over endpoints (Eqs. 5–6);
//! * [`SelectionMask`] — fan-in-cone overlap masking with threshold ρ
//!   (Fig. 3);
//! * [`reinforce`] — REINFORCE with parallel rollouts and early stopping
//!   (Eq. 7, Algorithm 1);
//! * [`transfer`] — EP-GNN weight reuse on unseen designs (§IV-B).
//!
//! The front door is [`Session`]: it bundles the design, recipe, RL
//! configuration and an optional observability recorder, and exposes
//! [`Session::run_flow`] and [`Session::train`] with the unified
//! [`enum@Error`].
//!
//! # Quick start
//! ```no_run
//! use rl_ccd::Session;
//! use rl_ccd_netlist::{generate, DesignSpec, TechNode};
//!
//! let design = generate(&DesignSpec::new("demo", 800, TechNode::N7, 1));
//! let session = Session::builder().design(design).build()?;
//! let outcome = session.train()?;
//! println!(
//!     "best TNS {:.1} ps with {} prioritized endpoints",
//!     outcome.best_result.final_qor.tns_ps,
//!     outcome.best_selection.len()
//! );
//! # Ok::<(), rl_ccd::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agent;
pub mod baselines;
pub mod checkpoint;
pub mod config;
pub mod decoder;
pub mod encoder;
pub mod env;
pub mod epgnn;
pub mod error;
pub mod eval;
pub mod executor;
pub mod fault;
pub mod features;
pub mod gate;
pub mod incremental;
pub mod infer;
pub mod masking;
pub mod reinforce;
pub mod session;
pub mod transfer;

pub use agent::{ReplayError, RlCcd, Rollout};
pub use baselines::Baseline;
pub use checkpoint::{
    fnv1a64, load_training_state, save_training_state, training_state_exists, verify_manifest,
    CheckpointError, TrainingState,
};
pub use config::{EncoderKind, RlConfig};
pub use decoder::AttentionDecoder;
pub use encoder::{ActionEncoder, EncoderState};
pub use env::CcdEnv;
pub use epgnn::EpGnn;
pub use error::Error;
pub use eval::{evaluate_policy, PolicyEval};
pub use executor::{
    ExecutedRollout, ExecutorBatch, LocalExecutor, RolloutExecutor, RolloutRequest,
};
pub use fault::{FaultKind, FaultPlan, InjectedFault, RolloutFault};
pub use features::{NodeFeatures, FEATURE_DIM, MASKED_COL};
pub use gate::{run_eval_gate, DesignScore, GateSpec, GateVerdict};
pub use incremental::{EpGraph, Frontier, IncrementalEncoder, StoredEncode};
pub use infer::{sample_endpoints, select_endpoints, InferSession};
pub use masking::{EndpointStatus, SelectionMask};
pub use reinforce::{
    reinforce_update, resume_train_with, train_or_resume_with, try_train, try_train_with,
    IterationStats, TrainError, TrainOutcome, TrainSession, UpdateOutcome,
};
pub use session::{Session, SessionBuilder};
pub use transfer::{load_params, save_params, with_pretrained_gnn, zero_shot_selection};
