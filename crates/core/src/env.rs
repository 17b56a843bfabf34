//! The RL environment: a design plus the flow that produces rewards.
//!
//! Built once per design, it caches everything the selection loop needs —
//! the violating-endpoint pool, their fan-in cones, the GNN message graph,
//! the cone-readout matrix, and the normalized Table I features — and turns
//! a selection into a reward by running the full placement-optimization
//! flow (the trajectory reward of Algorithm 1 line 17).

use crate::features::NodeFeatures;
use crate::incremental::EpGraph;
use rl_ccd_flow::{FlowRecipe, FlowResult};
use rl_ccd_netlist::{
    cone_readout, fanin_cone, message_graph, CellId, Cone, ConeSet, EndpointId, GeneratedDesign,
};
use rl_ccd_nn::{Csr, SharedCsr};
use rl_ccd_sta::{analyze, Constraints, EndpointMargins, TimingGraph};
use std::sync::Arc;

/// A ready-to-train RL-CCD environment for one design.
#[derive(Clone, Debug)]
pub struct CcdEnv {
    design: GeneratedDesign,
    recipe: FlowRecipe,
    pool: Vec<EndpointId>,
    pool_cells: Vec<CellId>,
    cones: ConeSet,
    graph: EpGraph,
    features: NodeFeatures,
}

impl CcdEnv {
    /// Prepares the environment: runs the begin STA, collects the violating
    /// endpoints (the action pool), traces their cones, builds the GNN
    /// graphs (and the reverse indices the incremental encoder walks), and
    /// extracts features.
    pub fn new(design: GeneratedDesign, recipe: FlowRecipe, fanout_cap: usize) -> Self {
        let netlist = &design.netlist;
        let graph = TimingGraph::new(netlist);
        let clocks = recipe.clock_schedule(netlist, design.period_ps);
        let constraints = Constraints::with_period(design.period_ps);
        let report = analyze(
            netlist,
            &graph,
            &constraints,
            &clocks,
            &EndpointMargins::zero(netlist),
        );
        let pool: Vec<EndpointId> = report
            .violating_endpoints()
            .into_iter()
            .map(EndpointId::new)
            .collect();
        let pool_cells: Vec<CellId> = pool.iter().map(|&e| netlist.endpoint(e).cell()).collect();
        let cones = ConeSet::new(netlist, &pool);
        let cone_vec: Vec<Cone> = pool
            .iter()
            .map(|&e| fanin_cone(netlist, netlist.endpoint(e)))
            .collect();
        let adj = message_graph(netlist, fanout_cap);
        let (indptr, indices, weights) = adj.as_csr();
        let adjacency: SharedCsr = Arc::new(Csr::new(
            adj.node_count(),
            adj.node_count(),
            indptr.to_vec(),
            indices.to_vec(),
            weights.to_vec(),
        ));
        let ro = cone_readout(netlist.cell_count(), &pool_cells, &cone_vec);
        let (indptr, indices, weights) = ro.as_csr();
        let readout: SharedCsr = Arc::new(Csr::new(
            pool.len(),
            netlist.cell_count(),
            indptr.to_vec(),
            indices.to_vec(),
            weights.to_vec(),
        ));
        let features = NodeFeatures::extract(netlist, &report, design.period_ps, recipe.seed);
        Self {
            design,
            recipe,
            pool,
            pool_cells,
            cones,
            graph: EpGraph::new(adjacency, readout),
            features,
        }
    }

    /// The design under optimization.
    pub fn design(&self) -> &GeneratedDesign {
        &self.design
    }

    /// The shared flow recipe.
    pub fn recipe(&self) -> &FlowRecipe {
        &self.recipe
    }

    /// The action pool: violating endpoints at the begin state, worst first.
    pub fn pool(&self) -> &[EndpointId] {
        &self.pool
    }

    /// Cells owning the pool endpoints (aligned with [`CcdEnv::pool`]).
    pub fn pool_cells(&self) -> &[CellId] {
        &self.pool_cells
    }

    /// Fan-in cones of the pool endpoints (local indices).
    pub fn cones(&self) -> &ConeSet {
        &self.cones
    }

    /// Mean-normalized message-passing adjacency (V×V).
    pub fn adjacency(&self) -> &SharedCsr {
        self.graph.adjacency()
    }

    /// Cone-readout matrix (|pool|×V) implementing Eq. 3's pooling.
    pub fn readout(&self) -> &SharedCsr {
        self.graph.readout()
    }

    /// Both GNN graphs with their reverse indices.
    pub fn graph(&self) -> &EpGraph {
        &self.graph
    }

    /// Normalized Table I features.
    pub fn features(&self) -> &NodeFeatures {
        &self.features
    }

    /// Runs the full flow with the given prioritization and returns the
    /// complete result.
    ///
    /// One rollout costs one full STA propagation (building the flow's
    /// [`rl_ccd_sta::IncrementalTimer`]) plus incremental re-timing for
    /// every skew move, sizing edit, and margin change, with full
    /// recomputes only at structural escape hatches (buffer insertion,
    /// signoff legalization).
    pub fn evaluate(&self, selected: &[EndpointId]) -> FlowResult {
        self.recipe.run(&self.design, selected)
    }

    /// The native tool flow (no prioritization).
    pub fn default_flow(&self) -> FlowResult {
        self.evaluate(&[])
    }

    /// Trajectory reward: the final TNS in ps (≤ 0; higher is better).
    pub fn reward(&self, selected: &[EndpointId]) -> f64 {
        self.evaluate(selected).final_qor.tns_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_ccd_netlist::{generate, DesignSpec, TechNode};

    fn env() -> CcdEnv {
        let d = generate(&DesignSpec::new("env", 700, TechNode::N7, 21));
        CcdEnv::new(d, FlowRecipe::default(), 24)
    }

    #[test]
    fn pool_holds_violating_endpoints_worst_first() {
        let e = env();
        assert!(!e.pool().is_empty());
        assert_eq!(e.pool().len(), e.pool_cells().len());
        assert_eq!(e.cones().len(), e.pool().len());
        assert_eq!(e.readout().rows(), e.pool().len());
        assert_eq!(e.adjacency().rows(), e.design().netlist.cell_count());
        assert_eq!(e.features().node_count(), e.design().netlist.cell_count());
    }

    #[test]
    fn reward_matches_flow_and_differs_by_selection() {
        let e = env();
        let base = e.default_flow();
        assert_eq!(e.reward(&[]), base.final_qor.tns_ps);
        // Select the mildest violations: their margin-to-WNS is largest, so
        // the flow outcome must move.
        let some: Vec<EndpointId> = e.pool().iter().rev().copied().take(6).collect();
        let with_sel = e.reward(&some);
        assert_ne!(with_sel, base.final_qor.tns_ps);
    }
}
