//! rl-ccd-serve: a concurrent endpoint-selection inference service.
//!
//! Trained RL-CCD checkpoints answer "which timing endpoints should the
//! clock path over-fix on this design?" to many concurrent callers:
//!
//! * [`ModelRegistry`] — versioned models loaded from checkpoints through
//!   the same FNV-1a manifest gate as training resume;
//! * [`protocol`] — a length-prefixed framed TCP protocol with a version
//!   token and typed rejections;
//! * [`Server`] — a std-only worker pool with **cross-request backlog
//!   batching** (configurable batch size), bounded queues with
//!   `busy`/`deadline` backpressure, and graceful drain;
//! * [`EnvCache`] / [`SelectionCache`] — LRU memoization of per-design
//!   feature extraction, cone-overlap masks, and greedy selections;
//! * [`ServeHandle`] (in-process) and [`ServeClient`] (TCP) clients.
//!
//! Selections are computed on the inference-only no-grad fast path
//! ([`rl_ccd::select_endpoints`]), which is bit-identical to the training
//! forward pass — so a served answer equals what `evaluate_policy` reports
//! offline, regardless of batching, concurrency, or cache state
//! (`tests/serve_parity.rs` pins this).
//!
//! ```no_run
//! use rl_ccd_serve::{ModelRegistry, ServeConfig, Server};
//! use rl_ccd_serve::protocol::{DesignKey, Mode, QueryRequest};
//!
//! let registry = ModelRegistry::new();
//! registry.load("default", "ckpt/", 0.3)?;
//! let server = Server::start(registry, ServeConfig::default());
//! let reply = server.handle().query(QueryRequest {
//!     model: "default".into(),
//!     design: "demo:800:7nm:1".parse::<DesignKey>().unwrap(),
//!     mode: Mode::Greedy,
//!     deadline_ms: Some(5_000),
//!     auth: None,
//! });
//! println!("{reply:?}");
//! server.shutdown();
//! # Ok::<(), rl_ccd_serve::ServeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod client;
pub mod experience;
pub mod protocol;
pub mod registry;
mod scheduler;
pub mod server;

pub use cache::{build_env, EncodeCache, EnvCache, LruCache, SelectionCache};
pub use client::{ClientBuilder, ServeClient};
pub use experience::{ExperienceEvent, ExperienceHook};
pub use protocol::{
    Credentials, DesignKey, HealthReply, Mode, ModelVersion, QueryReply, QueryRequest, RejectKind,
    Request, Response, PROTOCOL_VERSION,
};
pub use registry::{ModelRegistry, ServeModel};
pub use server::{DrainReport, ServeConfig, ServeHandle, ServeStats, Server};

use std::fmt;

/// Errors raised while building a server (loading models, binding).
/// Request-time failures are never this type — they travel to the client
/// as typed [`RejectKind`] responses instead.
#[derive(Debug)]
pub enum ServeError {
    /// Checkpoint verification or parsing failed.
    Checkpoint(rl_ccd::CheckpointError),
    /// The checkpoint verified but does not describe a complete model.
    Registry(String),
    /// Socket-level failure.
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ServeError::Registry(msg) => write!(f, "registry: {msg}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Checkpoint(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Registry(_) => None,
        }
    }
}

impl From<rl_ccd::CheckpointError> for ServeError {
    fn from(e: rl_ccd::CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
