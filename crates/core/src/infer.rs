//! Inference-only endpoint selection — the serving fast path.
//!
//! Training records every forward op on a [`Tape`](rl_ccd_nn::Tape) so
//! REINFORCE can backpropagate; a server answering "which endpoints should
//! the clock path over-fix?" needs none of that. [`InferSession`] runs the
//! one selection loop (`RlCcd::trajectory`, behind every rollout too) on a
//! [`rl_ccd_nn::NoGradTape`] — no gradient bookkeeping, no Adam state —
//! and encodes the netlist once: EP-GNN runs densely on the unflagged
//! features, then [`crate::incremental::IncrementalEncoder`] patches in
//! place only the rows within three hops of each step's newly flagged
//! cells and the endpoint readouts they touch. The dense encode is a pure
//! function of (parameters, design), so a session can run it once
//! ([`InferSession::encode`]) and start every later request from a copy
//! ([`InferSession::hold`]) — the server keeps those per
//! (model fingerprint, design). A request's memory is the encoder's copy
//! of the step-0 encode plus its tape: each patch's compact rows and the
//! decoder intermediates; a session truncates its tape back to the
//! parameter leaves once per request.
//!
//! Every recomputed row runs through the kernels the dense pass uses, in
//! the same in-row order, and every other row is the dense pass's value
//! (computed in this request or copied from a stored encode — never
//! recomputed differently), so the selections are **bit-identical** to
//! [`RlCcd::rollout_greedy`] / [`RlCcd::rollout`] (which re-encode densely
//! every step) on the same parameters and seeds — pinned by the tests in
//! this module and in `agent.rs`, by
//! `tests/proptest_incremental_encoder.rs`, by `tests/serve_parity.rs` and
//! by `tests/differential_oracle.rs`.

use crate::agent::{Actions, Encode, RlCcd};
use crate::env::CcdEnv;
use crate::incremental::StoredEncode;
use rand::rngs::StdRng;
use rl_ccd_netlist::EndpointId;
use rl_ccd_nn::{NoGradTape, ParamBinding, ParamSet};
use std::sync::Arc;

/// Deterministic greedy selection (argmax at every step) without any
/// gradient bookkeeping. Bit-identical to
/// `model.rollout_greedy(params, env).selected`, but with one dense encode
/// per trajectory instead of one per step; an empty endpoint pool yields
/// an empty selection instead of panicking.
pub fn select_endpoints(model: &RlCcd, params: &ParamSet, env: &CcdEnv) -> Vec<EndpointId> {
    InferSession::new(model, params).select(env)
}

/// Stochastic selection sampled from the policy distribution, consuming
/// exactly one RNG draw per step — bit-identical to
/// `model.rollout(params, env, rng).selected` for the same `rng` state.
pub fn sample_endpoints(
    model: &RlCcd,
    params: &ParamSet,
    env: &CcdEnv,
    rng: &mut StdRng,
) -> Vec<EndpointId> {
    InferSession::new(model, params).sample(env, rng)
}

/// A reusable inference context: parameters bound once onto one
/// [`NoGradTape`], then many selections served through it.
///
/// [`select_endpoints`] / [`sample_endpoints`] construct a fresh tape and
/// re-bind every parameter (one tensor clone each) per call; a server
/// answering a batch of queries against the same model pays that cost once
/// by building a session and calling [`InferSession::select`] /
/// [`InferSession::sample`] per request. Each request starts by truncating
/// the tape back to the parameter leaves, which returns the previous
/// request's values (its step-0 encode plus its frontier rows) to the
/// tape's pool in the order the next request will ask for them.
///
/// A session whose requests are all on one design need not run the dense
/// encode per request: [`InferSession::encode`] runs it once and
/// [`InferSession::hold`] makes every later request start from that copy.
/// Selections are bit-identical to the free functions either way (same
/// leaves, same kernels, same values, same RNG discipline).
#[derive(Debug)]
pub struct InferSession<'a> {
    model: &'a RlCcd,
    tape: NoGradTape,
    binding: ParamBinding,
    base: usize,
    held: Option<Arc<StoredEncode>>,
}

impl<'a> InferSession<'a> {
    /// Binds `params` once and returns a session ready to serve requests.
    pub fn new(model: &'a RlCcd, params: &ParamSet) -> Self {
        Self::with_tape(model, params, NoGradTape::new())
    }

    /// Like [`InferSession::new`] but executing through the pinned scalar
    /// reference kernels — the oracle the fast kernels are held
    /// bit-identical to.
    pub fn scalar_reference(model: &'a RlCcd, params: &ParamSet) -> Self {
        Self::with_tape(model, params, NoGradTape::scalar_reference())
    }

    fn with_tape(model: &'a RlCcd, params: &ParamSet, mut tape: NoGradTape) -> Self {
        let binding = params.bind(&mut tape);
        let base = tape.len();
        Self {
            model,
            tape,
            binding,
            base,
            held: None,
        }
    }

    /// Runs the step-0 dense encode of `env` under this session's
    /// parameters and returns its outputs — a pure function of
    /// (parameters, design), so it may be kept and shared for as long as
    /// both are.
    pub fn encode(&mut self, env: &CcdEnv) -> StoredEncode {
        self.tape.truncate(self.base);
        self.model.encode_in(&mut self.tape, &self.binding, env)
    }

    /// Makes every later request start from `encode` instead of running
    /// the dense pass. `encode` must be [`InferSession::encode`]'s result
    /// for these parameters and for the design every later request names
    /// (a design of another size panics; the same size and other contents
    /// would answer wrongly).
    pub fn hold(&mut self, encode: Arc<StoredEncode>) {
        self.held = Some(encode);
    }

    /// Deterministic greedy selection; bit-identical to
    /// [`select_endpoints`] on the same model/params/env.
    pub fn select(&mut self, env: &CcdEnv) -> Vec<EndpointId> {
        self.request(env, None).0
    }

    /// Stochastic selection consuming one RNG draw per step; bit-identical
    /// to [`sample_endpoints`] for the same `rng` state.
    pub fn sample(&mut self, env: &CcdEnv, rng: &mut StdRng) -> Vec<EndpointId> {
        self.request(env, Some(rng)).0
    }

    /// Like [`InferSession::sample`] but also returning the behavior
    /// log-probability of each selected action, in selection order — the
    /// raw material of an experience record. The selection (and the RNG
    /// stream consumed) is bit-identical to [`InferSession::sample`]:
    /// capturing a log-prob is a tape read, not a tape op.
    pub fn sample_logged(&mut self, env: &CcdEnv, rng: &mut StdRng) -> (Vec<EndpointId>, Vec<f32>) {
        self.request(env, Some(rng))
    }

    fn request(&mut self, env: &CcdEnv, rng: Option<&mut StdRng>) -> (Vec<EndpointId>, Vec<f32>) {
        self.tape.truncate(self.base);
        let actions = Actions::policy(rng);
        let encode = Encode::Incremental(self.held.as_deref());
        let t = self
            .model
            .trajectory(&mut self.tape, &self.binding, env, actions, encode)
            .expect("only a replayed trajectory can be rejected");
        (t.selected, t.log_probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EncoderKind, RlConfig};
    use rand::SeedableRng;
    use rl_ccd_flow::FlowRecipe;
    use rl_ccd_netlist::{generate, DesignSpec, TechNode};

    fn env() -> CcdEnv {
        let d = generate(&DesignSpec::new("infer", 600, TechNode::N7, 33));
        CcdEnv::new(d, FlowRecipe::default(), 24)
    }

    #[test]
    fn greedy_inference_matches_training_forward_bit_for_bit() {
        let env = env();
        for kind in [EncoderKind::Lstm, EncoderKind::Gru, EncoderKind::None] {
            let mut cfg = RlConfig::fast();
            cfg.encoder = kind;
            let (model, params) = RlCcd::init(cfg);
            let trained = model.rollout_greedy(&params, &env).selected;
            let inferred = select_endpoints(&model, &params, &env);
            assert_eq!(trained, inferred, "encoder {kind:?}");
        }
    }

    #[test]
    fn sampled_inference_matches_training_forward_on_fixed_seeds() {
        let env = env();
        let (model, params) = RlCcd::init(RlConfig::fast());
        for seed in [0u64, 7, 1234] {
            let trained = model
                .rollout(&params, &env, &mut StdRng::seed_from_u64(seed))
                .selected;
            let inferred =
                sample_endpoints(&model, &params, &env, &mut StdRng::seed_from_u64(seed));
            assert_eq!(trained, inferred, "seed {seed}");
        }
    }

    #[test]
    fn session_reuse_matches_free_functions_bit_for_bit() {
        let env = env();
        let (model, params) = RlCcd::init(RlConfig::fast());
        let mut session = InferSession::new(&model, &params);
        // Repeated greedy requests through one session match the one-shot
        // path every time (truncation fully resets the request state).
        for round in 0..3 {
            assert_eq!(
                session.select(&env),
                select_endpoints(&model, &params, &env),
                "greedy request {round} diverged"
            );
        }
        // Sampled requests interleaved on one session stay stream-exact.
        for seed in [0u64, 7, 1234] {
            let via_session = session.sample(&env, &mut StdRng::seed_from_u64(seed));
            let one_shot =
                sample_endpoints(&model, &params, &env, &mut StdRng::seed_from_u64(seed));
            assert_eq!(via_session, one_shot, "seed {seed}");
        }
        // The scalar-reference session agrees bit-for-bit too.
        let mut scalar = InferSession::scalar_reference(&model, &params);
        assert_eq!(scalar.select(&env), select_endpoints(&model, &params, &env));
    }

    #[test]
    fn a_session_holding_a_stored_encode_answers_bit_for_bit() {
        let env = env();
        let cfg = RlConfig::fast();
        let (hidden, embed) = (cfg.gnn_hidden, cfg.embed_dim);
        let (model, params) = RlCcd::init(cfg);
        let mut plain = InferSession::new(&model, &params);
        // Written through the scalar kernels, read through the fast ones,
        // by a fresh session and by one that has already served.
        let stored = Arc::new(InferSession::scalar_reference(&model, &params).encode(&env));
        let (cells, endpoints) = (env.features().base().rows(), env.pool().len());
        assert_eq!(stored.bytes(), (3 * cells * hidden + endpoints * embed) * 4);
        let mut fresh = InferSession::new(&model, &params);
        fresh.hold(stored.clone());
        let mut warm = InferSession::new(&model, &params);
        warm.select(&env);
        warm.hold(stored);
        for session in [&mut fresh, &mut warm] {
            assert_eq!(session.select(&env), plain.select(&env));
            for seed in [0u64, 7, 1234] {
                let rng = || StdRng::seed_from_u64(seed);
                let (want, want_lp) = plain.sample_logged(&env, &mut rng());
                assert_eq!(session.sample(&env, &mut rng()), want, "seed {seed}");
                let (got, got_lp) = session.sample_logged(&env, &mut rng());
                assert_eq!(got, want, "seed {seed}");
                let bits = |lp: &[f32]| lp.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got_lp), bits(&want_lp), "seed {seed}");
            }
        }
    }

    #[test]
    fn logged_sampling_matches_unlogged_and_the_training_tape() {
        let env = env();
        let (model, params) = RlCcd::init(RlConfig::fast());
        let mut session = InferSession::new(&model, &params);
        for seed in [3u64, 99] {
            let plain = session.sample(&env, &mut StdRng::seed_from_u64(seed));
            let (logged, log_probs) = session.sample_logged(&env, &mut StdRng::seed_from_u64(seed));
            assert_eq!(plain, logged, "seed {seed}: selections diverged");
            assert_eq!(log_probs.len(), logged.len());
            assert!(log_probs.iter().all(|lp| lp.is_finite() && *lp <= 0.0));
            // The logged per-step values sum to the training rollout's
            // total log-prob (same kernels, same order of additions).
            let ro = model.rollout(&params, &env, &mut StdRng::seed_from_u64(seed));
            let total = ro.tape.value(ro.total_log_prob).data()[0];
            let fold = log_probs
                .iter()
                .copied()
                .reduce(|a, b| a + b)
                .expect("at least one step");
            assert_eq!(total.to_bits(), fold.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn sampled_inference_consumes_the_same_rng_stream() {
        // After a trajectory, both paths must leave the RNG in the same
        // state (one draw per step) — a server interleaving sampled
        // requests on one seeded stream relies on this.
        let env = env();
        let (model, params) = RlCcd::init(RlConfig::fast());
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let a = model.rollout(&params, &env, &mut rng_a).selected;
        let b = sample_endpoints(&model, &params, &env, &mut rng_b);
        assert_eq!(a, b);
        use rand::Rng;
        let next_a: f64 = rng_a.gen_range(0.0..1.0);
        let next_b: f64 = rng_b.gen_range(0.0..1.0);
        assert_eq!(next_a, next_b, "RNG streams diverged");
    }
}
