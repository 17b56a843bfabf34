//! The RL-CCD agent: model assembly and the selection-loop rollout
//! (paper Fig. 4, Algorithm 1 lines 5–13).

use crate::config::RlConfig;
use crate::decoder::AttentionDecoder;
use crate::encoder::ActionEncoder;
use crate::env::CcdEnv;
use crate::epgnn::EpGnn;
use crate::incremental::{IncrementalEncoder, StoredEncode};
use crate::masking::SelectionMask;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd_netlist::{CellId, EndpointId};
use rl_ccd_nn::{GradSet, NoGradTape, ParamBinding, ParamSet, Tape, TapeOps, Tensor, Var};
use std::sync::Arc;

/// The assembled RL-CCD model: EP-GNN + LSTM encoder + attention decoder.
#[derive(Clone, Debug)]
pub struct RlCcd {
    /// Hyper-parameters the model was built with.
    pub config: RlConfig,
    gnn: EpGnn,
    encoder: ActionEncoder,
    decoder: AttentionDecoder,
}

impl RlCcd {
    /// Builds the model and a freshly-initialized parameter set
    /// (Algorithm 1 line 2).
    pub fn init(config: RlConfig) -> (Self, ParamSet) {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut params = ParamSet::new();
        let gnn = EpGnn::init(&config, &mut params, &mut rng);
        let encoder = ActionEncoder::init(&config, &mut params, &mut rng);
        let decoder = AttentionDecoder::init(&config, &mut params, &mut rng);
        (
            Self {
                config,
                gnn,
                encoder,
                decoder,
            },
            params,
        )
    }

    /// Direct access to the EP-GNN forward pass (used by benchmarks and
    /// embedding inspection): node features → endpoint embeddings.
    pub fn gnn_forward(
        &self,
        tape: &mut Tape,
        binding: &ParamBinding,
        x: Var,
        adjacency: &rl_ccd_nn::SharedCsr,
        readout: &rl_ccd_nn::SharedCsr,
    ) -> Var {
        self.gnn.forward(tape, binding, x, adjacency, readout)
    }

    /// Runs one complete selection trajectory on `env` (Algorithm 1
    /// lines 3–13): EP-GNN re-encodes the netlist each step (the masked
    /// flags changed), the LSTM encodes past actions, the attention decoder
    /// samples the next endpoint, and cone-overlap masking prunes the pool
    /// until nothing is selectable. An empty pool yields a zero-step
    /// trajectory whose `total_log_prob` is a constant 0.
    pub fn rollout(&self, params: &ParamSet, env: &CcdEnv, rng: &mut StdRng) -> Rollout {
        self.rollout_with_tape(params, env, Some(rng), Tape::new())
    }

    /// Runs the deterministic greedy trajectory (argmax at every step).
    /// Used for policy evaluation: unlike sampled rollouts it reflects what
    /// the policy has actually learned.
    pub fn rollout_greedy(&self, params: &ParamSet, env: &CcdEnv) -> Rollout {
        self.rollout_with_tape(params, env, None, Tape::new())
    }

    /// [`RlCcd::rollout`] with `Some(rng)`, [`RlCcd::rollout_greedy`] with
    /// `None`, recording onto a caller-provided tape — a
    /// [`Tape::scalar_reference`] tape runs the whole trajectory, and its
    /// backward pass, through the pinned scalar kernels.
    pub fn rollout_with_tape(
        &self,
        params: &ParamSet,
        env: &CcdEnv,
        rng: Option<&mut StdRng>,
        tape: Tape,
    ) -> Rollout {
        self.dense_rollout(params, env, Actions::policy(rng), tape)
            .expect("only a replayed trajectory can be rejected")
    }

    /// [`RlCcd::trajectory`] with the dense per-step encode on its own
    /// gradient tape, kept for the backward pass.
    fn dense_rollout(
        &self,
        params: &ParamSet,
        env: &CcdEnv,
        actions: Actions<'_>,
        mut tape: Tape,
    ) -> Result<Rollout, ReplayError> {
        let binding = params.bind(&mut tape);
        let t = self.trajectory(&mut tape, &binding, env, actions, Encode::Dense)?;
        Ok(Rollout {
            selected: t.selected,
            tape,
            binding,
            total_log_prob: t.total_log_prob,
        })
    }

    /// The selection loop of Algorithm 1 (lines 5–13), behind every
    /// rollout, replay and served query. Each step brings the endpoint
    /// embeddings up to date with the current flags as `encode` says,
    /// steps the past-actions encoder, and decodes one action from
    /// `actions`. A policy runs until nothing is selectable; a replay runs
    /// until its actions are spent, rejecting each one that is not in the
    /// pool or is masked before that step records anything. An empty pool
    /// runs no encode and yields a zero-step trajectory whose
    /// `total_log_prob` is a constant 0.
    ///
    /// Every value the trajectory computes stays on `tape`, whose bound
    /// parameters are `binding`; [`crate::infer::InferSession`] truncates
    /// its tape once per request, so one bound tape serves many.
    pub(crate) fn trajectory<T: TapeOps>(
        &self,
        tape: &mut T,
        binding: &ParamBinding,
        env: &CcdEnv,
        mut actions: Actions<'_>,
        encode: Encode<'_>,
    ) -> Result<Trajectory, ReplayError> {
        let pool = env.pool();
        let mut mask = SelectionMask::new(pool.len(), self.config.rho);
        let (mut state, mut prev_embed) = self.encoder.start(tape);
        let mut incremental: Option<IncrementalEncoder<'_>> = None;
        // The cells the last step flagged: what a patch has to catch up on.
        let mut newly_flagged: Vec<u32> = Vec::new();
        let mut selected = Vec::new();
        let mut log_probs = Vec::new();
        let mut total_log_prob: Option<Var> = None;
        loop {
            let forced = match &mut actions {
                Actions::Replay(rest) => {
                    let Some((&endpoint, tail)) = rest.split_first() else {
                        break;
                    };
                    *rest = tail;
                    let local = pool
                        .iter()
                        .position(|&e| e == endpoint)
                        .ok_or(ReplayError::UnknownEndpoint(endpoint))?;
                    if !mask.valid_mask()[local] {
                        return Err(ReplayError::MaskedAction(endpoint));
                    }
                    Some(local)
                }
                _ if mask.any_valid() => None,
                _ => break,
            };
            // State s_t: endpoint embeddings with current masked flags.
            let embeddings = match encode {
                Encode::Dense => {
                    let flag_cells: Vec<CellId> = mask
                        .flagged()
                        .iter()
                        .map(|&i| env.pool_cells()[i])
                        .collect();
                    let x = tape.leaf(env.features().with_flags(&flag_cells));
                    self.gnn
                        .forward(tape, binding, x, env.adjacency(), env.readout())
                }
                Encode::Incremental(stored) => {
                    let gnn = match incremental.as_mut() {
                        Some(gnn) => {
                            gnn.flag(tape, binding, &newly_flagged);
                            gnn
                        }
                        None => {
                            let (graph, base) = (env.graph(), env.features().base());
                            incremental.insert(match stored {
                                Some(stored) => IncrementalEncoder::resume(
                                    &self.gnn, tape, binding, graph, base, stored,
                                ),
                                None => {
                                    IncrementalEncoder::start(&self.gnn, tape, binding, graph, base)
                                }
                            })
                        }
                    };
                    gnn.embeddings(tape)
                }
            };
            // Query q_t from the past-actions encoder.
            state = self.encoder.step(tape, binding, prev_embed, state);
            let query = state.query();
            // Action a_t.
            let valid = mask.valid_mask();
            let step = match (&mut actions, forced) {
                (_, Some(local)) => self
                    .decoder
                    .decode_forced(tape, binding, embeddings, query, &valid, local),
                (Actions::Sample(rng), None) => self
                    .decoder
                    .decode(tape, binding, embeddings, query, &valid, rng),
                (_, None) => self
                    .decoder
                    .decode_greedy(tape, binding, embeddings, query, &valid),
            };
            let mut flagged = mask.select(step.action, env.cones());
            flagged.push(step.action);
            newly_flagged = flagged
                .iter()
                .map(|&i| env.pool_cells()[i].index() as u32)
                .collect();
            selected.push(pool[step.action]);
            log_probs.push(tape.value(step.action_log_prob).data()[0]);
            prev_embed = tape.gather_rows(embeddings, Arc::new(vec![step.action as u32]));
            total_log_prob = Some(match total_log_prob {
                Some(acc) => tape.add(acc, step.action_log_prob),
                None => step.action_log_prob,
            });
        }
        let total_log_prob = total_log_prob.unwrap_or_else(|| tape.leaf(Tensor::zeros(1, 1)));
        Ok(Trajectory {
            selected,
            log_probs,
            total_log_prob,
        })
    }

    /// The step-0 EP-GNN encode of `env` under the parameters bound on
    /// `tape`, copied off it: what [`Encode::Incremental`] resumes from.
    pub(crate) fn encode_in(
        &self,
        tape: &mut NoGradTape,
        binding: &ParamBinding,
        env: &CcdEnv,
    ) -> StoredEncode {
        IncrementalEncoder::encode(&self.gnn, tape, binding, env.graph(), env.features().base())
    }

    /// Teacher-forced replay of a logged action sequence on a gradient
    /// tape: the same forward pass as [`RlCcd::rollout`], but at every step
    /// the action is the next endpoint from `actions` instead of a sample.
    /// Returns a [`Rollout`] whose `total_log_prob` is Σ_t log π_θ(a_t|s_t)
    /// under the *current* parameters — the quantity offline retraining
    /// differentiates and importance-weights against the logged behavior
    /// log-probs.
    ///
    /// Actions are global [`EndpointId`]s (as emitted by serve replies and
    /// experience records); they are mapped back to pool-local indices
    /// through `env.pool()`. A record that disagrees with the rebuilt
    /// environment — an endpoint not in the pool, or one the cone-overlap
    /// mask had already pruned at that step — yields an error instead of a
    /// bogus gradient.
    pub fn replay_trajectory(
        &self,
        params: &ParamSet,
        env: &CcdEnv,
        actions: &[EndpointId],
    ) -> Result<Rollout, ReplayError> {
        if actions.is_empty() {
            return Err(ReplayError::Empty);
        }
        self.dense_rollout(params, env, Actions::Replay(actions), Tape::new())
    }
}

/// Where a trajectory's actions come from.
pub(crate) enum Actions<'a> {
    /// Sampled from the policy: one draw of the rng per step.
    Sample(&'a mut StdRng),
    /// The policy's argmax at every step.
    Greedy,
    /// Teacher-forced: the logged endpoints still to replay, in order.
    Replay(&'a [EndpointId]),
}

impl<'a> Actions<'a> {
    /// The policy's own actions: sampled with `Some(rng)`, greedy with
    /// `None`.
    pub(crate) fn policy(rng: Option<&'a mut StdRng>) -> Self {
        match rng {
            Some(rng) => Actions::Sample(rng),
            None => Actions::Greedy,
        }
    }
}

/// How a trajectory keeps the endpoint embeddings current.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Encode<'s> {
    /// Every step runs [`EpGnn::forward`] on the features with the current
    /// flags: the training tapes' encode, whose gradients reach EP-GNN.
    Dense,
    /// The first step starts an [`IncrementalEncoder`] (resuming from the
    /// stored encode, if any) and every later step patches it with the
    /// cells the step before flagged. The same values as `Dense`, bit for
    /// bit; not differentiable through the patches.
    Incremental(Option<&'s StoredEncode>),
}

/// What [`RlCcd::trajectory`] selected and the log-probabilities it
/// assigned.
pub(crate) struct Trajectory {
    /// Selected endpoints, in selection order.
    pub(crate) selected: Vec<EndpointId>,
    /// log π(a_t | s_t) per step, read off the tape.
    pub(crate) log_probs: Vec<f32>,
    /// Σ_t log π(a_t | s_t) on the tape.
    pub(crate) total_log_prob: Var,
}

/// Why a logged trajectory could not be replayed against a rebuilt
/// environment (see [`RlCcd::replay_trajectory`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The record carried no actions; there is nothing to learn from.
    Empty,
    /// A logged endpoint is not in the environment's violating-endpoint
    /// pool — the record was produced against a different design.
    UnknownEndpoint(EndpointId),
    /// A logged endpoint was valid when served but is pruned by the
    /// cone-overlap mask at this step — the selection order is corrupt.
    MaskedAction(EndpointId),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Empty => write!(f, "empty action sequence"),
            ReplayError::UnknownEndpoint(e) => {
                write!(f, "endpoint {e:?} is not in the environment pool")
            }
            ReplayError::MaskedAction(e) => {
                write!(f, "endpoint {e:?} is masked at its replay step")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// One finished selection trajectory, with its tape kept alive so the
/// trainer can weight the log-probabilities by the achieved reward and
/// backpropagate (Eq. 7).
#[derive(Debug)]
pub struct Rollout {
    /// Selected endpoints, in selection order.
    pub selected: Vec<EndpointId>,
    /// The autodiff tape of the whole trajectory.
    pub tape: Tape,
    /// Parameter handles on that tape.
    pub binding: ParamBinding,
    /// Σ_t log π(a_t | s_t) as a differentiable scalar.
    pub total_log_prob: Var,
}

impl Rollout {
    /// Number of selection steps taken.
    pub fn steps(&self) -> usize {
        self.selected.len()
    }

    /// `∇ Σ_t log π(a_t | s_t)` for every parameter: the backward pass of
    /// `total_log_prob`, accumulated per bound parameter. The tape is freed
    /// on return.
    pub fn log_prob_grads(self) -> GradSet {
        let mut grads = self.tape.backward(self.total_log_prob);
        let mut set = GradSet::new();
        set.accumulate(&self.binding, &mut grads);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_ccd_flow::FlowRecipe;
    use rl_ccd_netlist::{generate, DesignSpec, TechNode};

    fn env() -> CcdEnv {
        let d = generate(&DesignSpec::new("agent", 600, TechNode::N7, 33));
        CcdEnv::new(d, FlowRecipe::default(), 24)
    }

    /// `trajectory`'s selection, per-step log-probs and total log-prob,
    /// as bits.
    fn run<T: TapeOps>(
        model: &RlCcd,
        params: &ParamSet,
        env: &CcdEnv,
        mut tape: T,
        actions: Actions<'_>,
        encode: Encode<'_>,
    ) -> (Vec<EndpointId>, Vec<u32>, u32) {
        let binding = params.bind(&mut tape);
        let t = model
            .trajectory(&mut tape, &binding, env, actions, encode)
            .expect("a policy's own selection replays");
        let total = tape.value(t.total_log_prob).data()[0];
        let bits = t.log_probs.iter().map(|lp| lp.to_bits()).collect();
        (t.selected, bits, total.to_bits())
    }

    /// The one loop, every way it runs: each encode, on both tapes and
    /// both kernel lanes, sampling, greedy, or replaying the sampled
    /// selection, gives the same endpoints and the same log-probabilities
    /// by `to_bits` as the dense training rollout.
    #[test]
    fn every_encode_tape_and_action_source_runs_one_trajectory() {
        let env = env();
        let (model, params) = RlCcd::init(RlConfig::fast());
        let mut tape = NoGradTape::new();
        let binding = params.bind(&mut tape);
        let stored = model.encode_in(&mut tape, &binding, &env);
        let seed = || StdRng::seed_from_u64(5);
        let sampled = run(
            &model,
            &params,
            &env,
            Tape::new(),
            Actions::Sample(&mut seed()),
            Encode::Dense,
        );
        let greedy = run(
            &model,
            &params,
            &env,
            Tape::new(),
            Actions::Greedy,
            Encode::Dense,
        );
        assert!(sampled.0.len() >= 2 && greedy.0.len() >= 2);
        let encodes = [
            Encode::Dense,
            Encode::Incremental(None),
            Encode::Incremental(Some(&stored)),
        ];
        for encode in encodes {
            for lane in 0..4 {
                for (kind, want) in [
                    ("sample", &sampled),
                    ("greedy", &greedy),
                    ("replay", &sampled),
                ] {
                    let mut rng = seed();
                    let actions = match kind {
                        "sample" => Actions::Sample(&mut rng),
                        "greedy" => Actions::Greedy,
                        _ => Actions::Replay(&sampled.0),
                    };
                    let (m, p, e) = (&model, &params, &env);
                    let got = match lane {
                        0 => run(m, p, e, Tape::new(), actions, encode),
                        1 => run(m, p, e, Tape::scalar_reference(), actions, encode),
                        2 => run(m, p, e, NoGradTape::new(), actions, encode),
                        _ => run(m, p, e, NoGradTape::scalar_reference(), actions, encode),
                    };
                    assert_eq!(&got, want, "{kind} on tape {lane} with {encode:?}");
                }
            }
        }
    }

    #[test]
    fn rollout_selects_until_pool_exhausted() {
        let env = env();
        let (model, params) = RlCcd::init(RlConfig::fast());
        let mut rng = StdRng::seed_from_u64(1);
        let ro = model.rollout(&params, &env, &mut rng);
        assert!(ro.steps() >= 1);
        assert!(ro.steps() <= env.pool().len());
        // Selected endpoints are unique and from the pool.
        let mut uniq: Vec<_> = ro.selected.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), ro.selected.len());
        for e in &ro.selected {
            assert!(env.pool().contains(e));
        }
        // The log-probability is a finite negative scalar.
        let lp = ro.tape.value(ro.total_log_prob).data()[0];
        assert!(lp.is_finite() && lp <= 0.0, "log prob {lp}");
    }

    #[test]
    fn rollouts_are_seed_deterministic() {
        let env = env();
        let (model, params) = RlCcd::init(RlConfig::fast());
        let a = model.rollout(&params, &env, &mut StdRng::seed_from_u64(9));
        let b = model.rollout(&params, &env, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.selected, b.selected);
        let c = model.rollout(&params, &env, &mut StdRng::seed_from_u64(10));
        // Different seeds usually explore differently (not guaranteed, but
        // with dozens of endpoints a collision is vanishingly unlikely).
        assert!(
            a.selected != c.selected || a.steps() <= 1,
            "different seeds gave identical trajectories"
        );
    }

    #[test]
    fn replay_reproduces_the_sampled_log_prob_bit_for_bit() {
        let env = env();
        let (model, params) = RlCcd::init(RlConfig::fast());
        let mut rng = StdRng::seed_from_u64(5);
        let ro = model.rollout(&params, &env, &mut rng);
        let replayed = model
            .replay_trajectory(&params, &env, &ro.selected)
            .expect("a fresh rollout must replay");
        assert_eq!(replayed.selected, ro.selected);
        let lp = ro.tape.value(ro.total_log_prob).data()[0];
        let lp_replay = replayed.tape.value(replayed.total_log_prob).data()[0];
        assert_eq!(lp.to_bits(), lp_replay.to_bits());
        // And the replay tape is differentiable all the way down.
        let mut grads = replayed.tape.backward(replayed.total_log_prob);
        let any = replayed
            .binding
            .iter()
            .any(|(_, var)| grads.take(var).map(|g| g.norm() > 0.0).unwrap_or(false));
        assert!(any, "no gradient flowed through the replay");
    }

    #[test]
    fn replay_rejects_corrupt_action_sequences() {
        let env = env();
        let (model, params) = RlCcd::init(RlConfig::fast());
        assert_eq!(
            model.replay_trajectory(&params, &env, &[]).unwrap_err(),
            ReplayError::Empty
        );
        let mut rng = StdRng::seed_from_u64(6);
        let ro = model.rollout(&params, &env, &mut rng);
        // An endpoint from outside the pool.
        let bogus = EndpointId::new(u32::MAX as usize);
        assert_eq!(
            model
                .replay_trajectory(&params, &env, &[bogus])
                .unwrap_err(),
            ReplayError::UnknownEndpoint(bogus)
        );
        // Selecting the same endpoint twice: masked at the second step.
        let first = ro.selected[0];
        assert_eq!(
            model
                .replay_trajectory(&params, &env, &[first, first])
                .unwrap_err(),
            ReplayError::MaskedAction(first)
        );
    }

    #[test]
    fn gradient_flows_from_log_prob_to_all_components() {
        let env = env();
        let (model, params) = RlCcd::init(RlConfig::fast());
        let mut rng = StdRng::seed_from_u64(2);
        let ro = model.rollout(&params, &env, &mut rng);
        let mut grads = ro.tape.backward(ro.total_log_prob);
        let mut got_gnn = false;
        let mut got_enc = false;
        let mut got_dec = false;
        for (name, var) in ro.binding.iter() {
            if grads.take(var).map(|g| g.norm() > 0.0).unwrap_or(false) {
                got_gnn |= name.starts_with("gnn.");
                got_enc |= name.starts_with("enc.");
                got_dec |= name.starts_with("dec.");
            }
        }
        assert!(got_gnn, "no gradient reached EP-GNN");
        assert!(got_dec, "no gradient reached the decoder");
        // Encoder gradients require ≥2 steps (the first query ignores
        // actions); designs from this generator always violate enough.
        if ro.steps() >= 2 {
            assert!(got_enc, "no gradient reached the encoder");
        }
    }
}
