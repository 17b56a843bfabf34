//! Closed-loop learning for RL-CCD: experience logging, replay, and
//! offline retraining wired into gated promotion.
//!
//! Serving generates exactly the data self-supervised RL needs — sampled
//! selections, their behavior log-probs, and (cheaply recomputable)
//! realized QoR — and this crate turns that exhaust into policy
//! improvement without ever putting an unvetted model in front of a
//! tenant. The loop has four stages, one module each:
//!
//! 1. **Log** ([`sink`]): an [`ExpSink`] installed on the server's
//!    experience hook appends one content-addressed `rl-ccd-exp v1`
//!    record ([`record`]) per completed sampled query, off the request
//!    path.
//! 2. **Buffer** ([`buffer`]): a [`ReplayBuffer`] dedups by content id,
//!    bounds policy-version staleness, and hands out a seed-deterministic
//!    training order.
//! 3. **Retrain** ([`mod@retrain`]): importance-weighted offline REINFORCE
//!    replays logged trajectories under the current parameters and
//!    commits a versioned checkpoint. Same log + same seed →
//!    bit-identical `state.txt`.
//! 4. **Promote**: the emitted checkpoint enters the daemon as a
//!    *challenger* and reaches tenants only through the existing eval
//!    gate / canary / rollback machinery — a bad retrain is a rejected
//!    challenger, never an outage.
//!
//! Environment reconstruction ([`rebuild`]) is the determinism hinge both
//! the sink and the trainer share: a design key rebuilds the identical
//! [`rl_ccd::CcdEnv`] the server answered from, cross-checked by the
//! feature fingerprint carried in every record.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod rebuild;
pub mod record;
pub mod retrain;
pub mod sink;

pub use buffer::{BufferStats, ReplayBuffer};
pub use rebuild::feature_fingerprint;
pub use record::{
    validate_exp_jsonl, ExpRecord, ExpSummary, EXP_SCHEMA, MAX_LINE_BYTES, MAX_SELECTION,
};
pub use retrain::{retrain, RetrainConfig, RetrainReport};
pub use rl_ccd_serve::build_env;
pub use sink::{ExpSink, SinkReport};

/// Everything that can go wrong while logging, loading, or retraining.
#[derive(Debug)]
pub enum ExpError {
    /// The log file (or checkpoint directory) could not be read/written.
    Io(std::io::Error),
    /// A log line failed schema validation (1-based line number).
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// What the codec rejected.
        message: String,
    },
    /// The base checkpoint failed manifest or state verification.
    Checkpoint(rl_ccd::CheckpointError),
    /// The checkpoint does not describe a complete, servable model.
    Serve(rl_ccd_serve::ServeError),
    /// The retrain could not proceed (e.g. no usable records).
    Retrain(String),
}

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(err) => write!(f, "i/o error: {err}"),
            Self::Parse { line, message } => write!(f, "line {line}: {message}"),
            Self::Checkpoint(err) => write!(f, "checkpoint error: {err}"),
            Self::Serve(err) => write!(f, "serve error: {err}"),
            Self::Retrain(message) => write!(f, "retrain refused: {message}"),
        }
    }
}

impl std::error::Error for ExpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            Self::Checkpoint(err) => Some(err),
            Self::Serve(err) => Some(err),
            Self::Parse { .. } | Self::Retrain(_) => None,
        }
    }
}

impl From<std::io::Error> for ExpError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

impl From<rl_ccd::CheckpointError> for ExpError {
    fn from(err: rl_ccd::CheckpointError) -> Self {
        Self::Checkpoint(err)
    }
}

impl From<rl_ccd_serve::ServeError> for ExpError {
    fn from(err: rl_ccd_serve::ServeError) -> Self {
        Self::Serve(err)
    }
}
