//! Hyper-parameters of the RL-CCD framework.

/// Which past-actions encoder the agent uses (paper: LSTM; the others are
/// ablation variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EncoderKind {
    /// The paper's LSTM encoder (Eq. 4).
    #[default]
    Lstm,
    /// A GRU (lighter recurrence, same role).
    Gru,
    /// No history: the attention query is a constant zero vector.
    None,
}

/// All knobs of the RL-CCD agent and its training loop.
///
/// Defaults follow the paper where stated: GNN hidden width 32, endpoint
/// embeddings 16, overlap threshold ρ = 0.3, 8 parallel rollout workers,
/// early stop after 3 non-improving iterations.
#[derive(Clone, Debug, PartialEq)]
pub struct RlConfig {
    /// Hidden width of the three EP-GNN graph-convolution layers.
    pub gnn_hidden: usize,
    /// Endpoint embedding width (EP-GNN FC output).
    pub embed_dim: usize,
    /// LSTM encoder hidden width (the attention query width).
    pub lstm_hidden: usize,
    /// Attention projection width of the decoder.
    pub attn_dim: usize,
    /// Fan-in-cone overlap masking threshold ρ (paper default 0.3).
    pub rho: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Parallel rollout workers per training iteration (paper: 8 processes).
    pub workers: usize,
    /// Hard cap on training iterations.
    pub max_iterations: usize,
    /// Stop when the best reward has not improved for this many consecutive
    /// iterations (paper: 3).
    pub patience: usize,
    /// Message-passing fanout cap for the netlist transformation.
    pub fanout_cap: usize,
    /// Master seed for weight init and rollout sampling.
    pub seed: u64,
    /// Past-actions encoder architecture.
    pub encoder: EncoderKind,
    /// Minimum surviving rollouts an iteration needs after quarantine.
    /// `None` (the default) means half the workers, rounded up; `Some(0)`
    /// disables the quorum entirely (an all-fault iteration becomes a
    /// logged no-op instead of an error).
    pub quorum: Option<usize>,
}

impl Default for RlConfig {
    fn default() -> Self {
        Self {
            gnn_hidden: 32,
            embed_dim: 16,
            lstm_hidden: 32,
            attn_dim: 32,
            rho: 0.3,
            learning_rate: 3e-3,
            grad_clip: 5.0,
            workers: 8,
            max_iterations: 40,
            patience: 3,
            fanout_cap: 24,
            seed: 0xCCD,
            encoder: EncoderKind::Lstm,
            quorum: None,
        }
    }
}

impl RlConfig {
    /// The quorum actually enforced: the configured value (capped at the
    /// worker count), or half the workers rounded up when unset.
    pub fn effective_quorum(&self) -> usize {
        let workers = self.workers.max(1);
        match self.quorum {
            Some(q) => q.min(workers),
            None => workers.div_ceil(2),
        }
    }

    /// A configuration scaled down for fast unit tests.
    pub fn fast() -> Self {
        Self {
            gnn_hidden: 8,
            embed_dim: 4,
            lstm_hidden: 8,
            attn_dim: 8,
            workers: 2,
            max_iterations: 3,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RlConfig::default();
        assert_eq!(c.gnn_hidden, 32);
        assert_eq!(c.embed_dim, 16);
        assert_eq!(c.rho, 0.3);
        assert_eq!(c.workers, 8);
        assert_eq!(c.patience, 3);
    }

    #[test]
    fn fast_config_is_smaller() {
        let f = RlConfig::fast();
        assert!(f.gnn_hidden < RlConfig::default().gnn_hidden);
        assert!(f.max_iterations < RlConfig::default().max_iterations);
    }

    #[test]
    fn quorum_defaults_to_half_the_workers() {
        let mut c = RlConfig::default();
        assert_eq!(c.workers, 8);
        assert_eq!(c.effective_quorum(), 4);
        c.workers = 5;
        assert_eq!(c.effective_quorum(), 3);
        c.quorum = Some(0);
        assert_eq!(c.effective_quorum(), 0);
        c.quorum = Some(99);
        assert_eq!(c.effective_quorum(), 5, "quorum capped at worker count");
    }
}
