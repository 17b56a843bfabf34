//! # RL-CCD reproduction — umbrella crate
//!
//! A from-scratch Rust reproduction of *RL-CCD: Concurrent Clock and Data
//! Optimization using Attention-Based Self-Supervised Reinforcement
//! Learning* (DAC 2023). This crate re-exports the whole stack and hosts
//! the repository-level examples, integration tests, and the `rlccd` CLI.
//!
//! The layers, bottom-up:
//!
//! * [`netlist`] — gate-level netlist substrate: typed graph, synthetic
//!   technology libraries, the seeded design generator, fan-in cones,
//!   GNN message-graph transformation, placement & power models.
//! * [`sta`] — slew-aware static timing analysis: arrivals, required times,
//!   per-register clock schedules, margins, WNS/TNS/NVE.
//! * [`flow`] — the "commercial tool" substrate: the useful-skew engine,
//!   the budgeted data-path optimizer, and the full placement optimization
//!   flow of the paper's Fig. 1.
//! * [`nn`] — tape-based autodiff, Linear/LSTM/GRU, Adam, serialization.
//! * [`agent`] — the paper's contribution: EP-GNN, LSTM encoder, pointer
//!   attention, cone-overlap masking, REINFORCE training, transfer
//!   learning.
//!
//! # End-to-end in eight lines
//! ```no_run
//! use rl_ccd_repro::prelude::*;
//!
//! let design = generate(&DesignSpec::new("demo", 1200, TechNode::N7, 42));
//! let session = Session::builder().design(design).build()?;
//! let default = session.run_flow()?;
//! let outcome = session.train()?;
//! println!(
//!     "TNS {:.2} → {:.2} ns ({:+.1}%)",
//!     default.final_qor.tns_ns(),
//!     outcome.best_result.final_qor.tns_ns(),
//!     outcome.best_result.tns_gain_over(&default),
//! );
//! # Ok::<(), rl_ccd::Error>(())
//! ```
//!
//! Pass an observability [`obs::Recorder`] to the builder (or `--trace-out`
//! to any binary) to capture hierarchical spans and metrics from every
//! layer as a versioned JSONL trace.

#![warn(missing_docs)]

/// Gate-level netlist substrate (re-export of [`rl_ccd_netlist`]).
pub use rl_ccd_netlist as netlist;

/// Static timing analysis engine (re-export of [`rl_ccd_sta`]).
pub use rl_ccd_sta as sta;

/// Placement-optimization flow simulator (re-export of [`rl_ccd_flow`]).
pub use rl_ccd_flow as flow;

/// Neural-network stack (re-export of [`rl_ccd_nn`]).
pub use rl_ccd_nn as nn;

/// The RL-CCD agent and trainer (re-export of [`rl_ccd`]).
pub use rl_ccd as agent;

/// Observability layer: spans, metrics, JSONL traces (re-export of
/// [`rl_ccd_obs`]).
pub use rl_ccd_obs as obs;

/// The most common imports for working with the reproduction end to end.
pub mod prelude {
    pub use rl_ccd::{
        try_train, with_pretrained_gnn, Baseline, CcdEnv, EncoderKind, Error, RlCcd, RlConfig,
        Session, TrainSession,
    };
    pub use rl_ccd_flow::{FlowRecipe, MarginMode};
    pub use rl_ccd_netlist::{
        block_suite, generate, DesignSpec, DesignStats, GeneratedDesign, TechNode,
    };
    pub use rl_ccd_obs::Recorder;
    pub use rl_ccd_sta::{analyze, ClockSchedule, Constraints, EndpointMargins, TimingGraph};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_the_stack() {
        use crate::prelude::*;
        let design = generate(&DesignSpec::new("facade", 300, TechNode::N12, 1));
        let env = CcdEnv::new(design, FlowRecipe::default(), 24);
        assert!(!env.pool().is_empty());
    }
}
