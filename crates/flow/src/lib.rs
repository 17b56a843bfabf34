//! Placement-optimization / CCD flow simulator — the "commercial tool"
//! substrate of the RL-CCD reproduction.
//!
//! The paper integrates with Synopsys ICC2; this crate provides the open
//! replacement: a useful-skew engine (iterative, hold-aware slack balancing
//! of per-register clock arrivals), a budgeted data-path optimizer (sizing,
//! buffering, pin-swap restructuring, power recovery), endpoint-margin
//! prioritization, and the full placement-optimization flow of the paper's
//! Fig. 1 with its single point of difference: which endpoints are
//! prioritized for useful skew.
//!
//! # Quick start
//! ```
//! use rl_ccd_netlist::{generate, DesignSpec, TechNode};
//! use rl_ccd_flow::FlowRecipe;
//!
//! let design = generate(&DesignSpec::new("demo", 400, TechNode::N7, 1));
//! let result = FlowRecipe::default().run(&design, &[]);
//! assert!(result.final_qor.tns_ps >= result.begin.tns_ps);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod datapath;
pub mod flow;
pub mod margin;
pub mod metrics;
pub mod useful_skew;

pub use datapath::{optimize_datapath, recover_power, DatapathOpts, OpStats};
pub use flow::{FlowRecipe, FlowTrace, StageSnapshot};
pub use margin::{prioritization_margins, MarginMode};
pub use metrics::{FlowResult, Qor};
pub use useful_skew::{run_useful_skew, skew_histogram, SkewOutcome, UsefulSkewOpts};
