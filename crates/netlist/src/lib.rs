//! Gate-level netlist substrate for the RL-CCD reproduction.
//!
//! The paper (*RL-CCD*, DAC 2023) runs inside Synopsys ICC2 on confidential
//! industrial designs. This crate provides the open substrate that replaces
//! both: a typed netlist graph bound to synthetic-but-consistent technology
//! libraries, a seeded generator emitting designs with the structural
//! heterogeneity the paper's decision problem depends on, and the netlist
//! analyses RL-CCD consumes (fan-in cones, cone overlap, GNN message-passing
//! transformation, placement and power metrics).
//!
//! # Quick start
//! ```
//! use rl_ccd_netlist::{generate, DesignSpec, TechNode, DesignStats};
//!
//! let spec = DesignSpec::new("demo", 600, TechNode::N7, 7);
//! let design = generate(&spec);
//! let stats = DesignStats::of(&design.netlist);
//! assert!(stats.flops > 0 && stats.endpoints > 0);
//! println!("{stats}, period {} ps", design.period_ps);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod cell;
pub mod cone;
pub mod generate;
pub mod graph;
pub mod ids;
pub mod library;
pub mod placement;
pub mod power;
pub mod serialize;
pub mod stats;
pub mod transform;
pub mod verilog;

pub use builder::{BuildNetlistError, NetlistBuilder};
pub use cell::{Drive, GateKind, Point};
pub use cone::{fanin_cone, Cone, ConeSet};
pub use generate::{
    block_suite, generate, ClusterClass, DesignSpec, GeneratedDesign, MIN_TARGET_CELLS,
};
pub use graph::{Cell, Endpoint, Net, Netlist, Startpoint};
pub use ids::{CellId, EndpointId, LibCellId, NetId, StartpointId};
pub use library::{LibCell, Library, TechNode, WireModel};
pub use power::{analyze_power, topological_comb, PowerReport};
pub use serialize::{read_netlist, write_netlist, ParseNetlistError};
pub use stats::DesignStats;
pub use transform::{cone_readout, message_graph, Adjacency};
pub use verilog::write_verilog;
