//! EP-GNN: the endpoint-oriented graph neural network (paper Eqs. 2–3).
//!
//! Three graph-convolution layers combine a self-projection with a
//! mean-aggregation of the message-passing neighbourhood, gated by a
//! trainable scalar γ (Eq. 2); a final fully-connected layer maps
//! `f_e + Σ_{j∈cone(e)} f_j` — computed as one sparse product with the cone
//! readout matrix — to the endpoint embeddings (Eq. 3).

use crate::config::RlConfig;
use crate::features::FEATURE_DIM;
use rand::rngs::StdRng;
use rl_ccd_nn::{Linear, ParamBinding, ParamSet, SharedCsr, TapeOps, Tensor, Var};

/// Parameter name prefix shared by all EP-GNN tensors; transfer learning
/// copies exactly the parameters under this prefix.
pub const GNN_PREFIX: &str = "gnn.";

/// The EP-GNN model (structure only; parameters live in a [`ParamSet`]).
#[derive(Clone, Debug)]
pub struct EpGnn {
    proj: Vec<Linear>,
    agg: Vec<Linear>,
    fc: Linear,
}

impl EpGnn {
    /// Creates the model and registers freshly-initialized parameters.
    pub fn init(config: &RlConfig, params: &mut ParamSet, rng: &mut StdRng) -> Self {
        let mut proj = Vec::new();
        let mut agg = Vec::new();
        let mut in_dim = FEATURE_DIM;
        for l in 0..3 {
            proj.push(Linear::init(
                format!("{GNN_PREFIX}l{l}.proj"),
                in_dim,
                config.gnn_hidden,
                params,
                rng,
            ));
            agg.push(Linear::init(
                format!("{GNN_PREFIX}l{l}.agg"),
                in_dim,
                config.gnn_hidden,
                params,
                rng,
            ));
            // Gate starts at γ = sigmoid(0) = 0.5: equal mix.
            params.insert(format!("{GNN_PREFIX}l{l}.gamma"), Tensor::zeros(1, 1));
            in_dim = config.gnn_hidden;
        }
        let fc = Linear::init(
            format!("{GNN_PREFIX}fc"),
            config.gnn_hidden,
            config.embed_dim,
            params,
            rng,
        );
        Self { proj, agg, fc }
    }

    /// Re-attaches to parameters already present in `params` (e.g. after a
    /// transfer-learning reload).
    ///
    /// # Panics
    /// Panics if any EP-GNN parameter is missing.
    pub fn attach(params: &ParamSet) -> Self {
        let proj = (0..3)
            .map(|l| Linear::attach(format!("{GNN_PREFIX}l{l}.proj"), params))
            .collect();
        let agg = (0..3)
            .map(|l| Linear::attach(format!("{GNN_PREFIX}l{l}.agg"), params))
            .collect();
        let fc = Linear::attach(format!("{GNN_PREFIX}fc"), params);
        Self { proj, agg, fc }
    }

    /// Endpoint embedding width.
    pub fn embed_dim(&self) -> usize {
        self.fc.out_dim()
    }

    /// Forward pass: node features `x` (V×13), mean-normalized adjacency
    /// (V×V), cone readout matrix (E×V) → endpoint embeddings (E×embed).
    pub fn forward<T: TapeOps>(
        &self,
        tape: &mut T,
        binding: &ParamBinding,
        x: Var,
        adjacency: &SharedCsr,
        readout: &SharedCsr,
    ) -> Var {
        let mut h = x;
        for l in 0..3 {
            let gamma = self.gate(tape, binding, l);
            h = self.layer(tape, binding, l, gamma, h, adjacency, h);
        }
        self.embed(tape, binding, readout, h)
    }

    /// Layer `l`'s mixing gate γ = sigmoid(γ_raw) (1×1).
    pub(crate) fn gate<T: TapeOps>(&self, tape: &mut T, binding: &ParamBinding, l: usize) -> Var {
        let gamma_raw = binding.var(&format!("{GNN_PREFIX}l{l}.gamma"));
        tape.sigmoid(gamma_raw)
    }

    /// Eq. 2 for the rows of `own`: σ(γ·proj(own) + (1−γ)·agg(graph·all)),
    /// with the γ-gating fused into one tape op (tapes persist per RL step,
    /// so intermediate count dominates training memory). `graph` has one
    /// row per row of `own` and one column per row of `all`; the dense pass
    /// hands the whole layer input in as both.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn layer<T: TapeOps>(
        &self,
        tape: &mut T,
        binding: &ParamBinding,
        l: usize,
        gamma: Var,
        own: Var,
        graph: &SharedCsr,
        all: Var,
    ) -> Var {
        let self_term = self.proj[l].forward(tape, binding, own);
        let neigh = tape.spmm(graph, all);
        let agg_term = self.agg[l].forward(tape, binding, neigh);
        let combined = tape.mix(gamma, self_term, agg_term);
        tape.sigmoid(combined)
    }

    /// Eq. 3 for the endpoints `readout` has rows for: FC over endpoint +
    /// fan-in-cone sum of the last layer's rows `h`.
    pub(crate) fn embed<T: TapeOps>(
        &self,
        tape: &mut T,
        binding: &ParamBinding,
        readout: &SharedCsr,
        h: Var,
    ) -> Var {
        let pooled = tape.spmm(readout, h);
        self.fc.forward(tape, binding, pooled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rl_ccd_nn::Tape;
    use rl_ccd_nn::{Csr, GradSet};
    use std::sync::Arc;

    /// 3 nodes in a line (0-1-2), both endpoints read node 2 + cone {1}.
    fn tiny_graphs() -> (SharedCsr, SharedCsr) {
        // Mean-normalized adjacency.
        let adj = Csr::new(
            3,
            3,
            vec![0, 1, 3, 4],
            vec![1, 0, 2, 1],
            vec![1.0, 0.5, 0.5, 1.0],
        );
        let readout = Csr::new(2, 3, vec![0, 2, 3], vec![2, 1, 2], vec![1.0, 1.0, 1.0]);
        (Arc::new(adj), Arc::new(readout))
    }

    fn build() -> (ParamSet, EpGnn, RlConfig) {
        let cfg = RlConfig::fast();
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = ParamSet::new();
        let gnn = EpGnn::init(&cfg, &mut params, &mut rng);
        (params, gnn, cfg)
    }

    #[test]
    fn forward_shapes() {
        let (params, gnn, cfg) = build();
        let (adj, readout) = tiny_graphs();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let x = tape.leaf(Tensor::zeros(3, FEATURE_DIM));
        let e = gnn.forward(&mut tape, &binding, x, &adj, &readout);
        assert_eq!(tape.value(e).shape(), (2, cfg.embed_dim));
        assert_eq!(gnn.embed_dim(), cfg.embed_dim);
    }

    #[test]
    fn gradients_reach_all_gnn_parameters() {
        let (params, gnn, _) = build();
        let (adj, readout) = tiny_graphs();
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let mut x = Tensor::zeros(3, FEATURE_DIM);
        for i in 0..x.len() {
            x.data_mut()[i] = (i as f32 * 0.37).sin();
        }
        let x = tape.leaf(x);
        let e = gnn.forward(&mut tape, &binding, x, &adj, &readout);
        // Scalar loss: sum of embeddings.
        let dims = tape.value(e).cols();
        let ones_c = tape.leaf(Tensor::from_vec(dims, 1, vec![1.0; dims]));
        let col = tape.matmul(e, ones_c);
        let ones_r = tape.leaf(Tensor::from_vec(1, 2, vec![1.0; 2]));
        let loss = tape.matmul(ones_r, col);
        let mut grads = tape.backward(loss);
        let mut gs = GradSet::new();
        gs.accumulate(&binding, &mut grads);
        for (name, _) in params.iter() {
            assert!(
                gs.get(name).map(|g| g.norm() > 0.0).unwrap_or(false),
                "parameter {name} received no gradient"
            );
        }
    }

    #[test]
    fn attach_rebuilds_same_structure() {
        let (params, gnn, _) = build();
        let re = EpGnn::attach(&params);
        assert_eq!(re.embed_dim(), gnn.embed_dim());
    }

    #[test]
    fn masked_flag_changes_embeddings() {
        // The dynamic column must influence the output (the state the agent
        // sees changes after masking).
        let (params, gnn, _) = build();
        let (adj, readout) = tiny_graphs();
        let embed = |flag: f32| {
            let mut tape = Tape::new();
            let binding = params.bind(&mut tape);
            let mut x = Tensor::zeros(3, FEATURE_DIM);
            x.set(2, crate::features::MASKED_COL, flag);
            let x = tape.leaf(x);
            let e = gnn.forward(&mut tape, &binding, x, &adj, &readout);
            tape.value(e).clone()
        };
        assert_ne!(embed(0.0).data(), embed(1.0).data());
    }
}
