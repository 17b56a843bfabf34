//! The [`RolloutExecutor`] abstraction — where an iteration's rollouts run.
//!
//! The trainer ([`crate::reinforce`]) decides *what* to run each
//! iteration: one `(slot, seed)` pair per configured worker, with seeds a
//! pure function of the config seed and the iteration index. An executor
//! decides *where* those rollouts run: [`LocalExecutor`] runs them on one
//! in-process thread per core (the paper's single-machine setting), while
//! `rl-ccd-dist` ships them to worker processes over TCP.
//!
//! # The determinism contract
//!
//! Every executor must return, for each surviving `(slot, seed)` pair,
//! the *exact* rollout a single-process run would have produced: the
//! trajectory, reward and `∇ Σ log π` gradient are pure functions of
//! `(params, env, seed)`, so where and when the rollout ran — and whether
//! it was retried after a worker failure — cannot change its value.
//! Executors may return rollouts in any order; the trainer sorts by slot
//! before reducing, so gradient aggregation is fixed by seed index, never
//! by completion order. Together these make training bit-identical across
//! executors, worker counts, timing, and retries.

use crate::agent::RlCcd;
use crate::config::RlConfig;
use crate::env::CcdEnv;
use crate::fault::{FaultKind, FaultPlan, InjectedFault, RolloutFault};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd_netlist::EndpointId;
use rl_ccd_nn::{GradSet, ParamSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One iteration's worth of rollout work, as handed to an executor.
#[derive(Debug)]
pub struct RolloutRequest<'a> {
    /// Training iteration index (tags fault records and addresses the
    /// fault plan).
    pub iteration: usize,
    /// `(slot, seed)` pairs to run — slot is the worker index within the
    /// iteration, seed fully determines the rollout.
    pub pairs: &'a [(usize, u64)],
    /// Current policy parameters.
    pub params: &'a ParamSet,
    /// The model architecture (local executors share the trainer's
    /// instance; remote workers hold their own copy built from the same
    /// config).
    pub model: &'a RlCcd,
    /// The environment (remote workers hold their own copy built from the
    /// same design and recipe).
    pub env: &'a CcdEnv,
    /// The RL configuration (remote workers rebuild the model from it).
    pub config: &'a RlConfig,
    /// Deterministic fault injection; [`FaultPlan::none`] outside tests.
    pub plan: &'a FaultPlan,
}

/// One executed rollout, slim enough to cross a process boundary: the
/// flow result is *not* carried — the trainer recomputes the champion's
/// [`rl_ccd_flow::FlowResult`] from the selection (deterministically),
/// so only the reward travels.
#[derive(Clone, Debug)]
pub struct ExecutedRollout {
    /// The worker slot this rollout was assigned to.
    pub slot: usize,
    /// The rollout's sampling seed.
    pub seed: u64,
    /// Selected endpoints, in selection order.
    pub selected: Vec<EndpointId>,
    /// Trajectory length.
    pub steps: usize,
    /// Trajectory reward: final TNS in ps.
    pub reward: f64,
    /// Gradient of the trajectory's total log-probability (unscaled; the
    /// trainer scales by −advantage and merges in slot order).
    pub log_prob_grads: GradSet,
}

/// What an executor hands back for one iteration.
#[derive(Debug, Default)]
pub struct ExecutorBatch {
    /// Surviving rollouts (any order; the trainer sorts by slot).
    pub rollouts: Vec<ExecutedRollout>,
    /// One record per quarantined rollout.
    pub faults: Vec<RolloutFault>,
}

/// Where an iteration's rollouts run. See the module docs for the
/// determinism contract implementations must uphold.
pub trait RolloutExecutor: Send + fmt::Debug {
    /// Runs every `(slot, seed)` pair of `req` and returns survivors and
    /// fault records. Must not panic on worker failure — failures are
    /// quarantined into [`RolloutFault`] records.
    fn run_batch(&mut self, req: &RolloutRequest<'_>) -> ExecutorBatch;
}

/// The in-process executor (paper §IV-A: 8 parallel processes per design,
/// CPU only), and the one rollout runner: `rl-ccd-dist` workers call it
/// for their share of the slots.
///
/// The pairs run on `min(pairs, available_parallelism())` scoped threads,
/// each taking the next pair from a shared index — so at most one tape per
/// core is alive at a time, however many slots an iteration has. A rollout
/// backpropagates `∇ Σ_t log π(a_t)` on its own thread, so its tape is
/// freed before the flow scores the selection; REINFORCE gradients are
/// linear in the advantage, so the trainer scales the returned gradient
/// afterwards. Results are stored by pair position, so the batch comes
/// back in pair order whichever thread ran what.
///
/// Every rollout is supervised: a panic is caught with `catch_unwind`, and
/// a non-finite reward or gradient element fails validation. Either way
/// the rollout is *quarantined* — dropped from the batch and recorded as a
/// [`RolloutFault`] tagged with its slot — and the trainer decides whether
/// enough survived (the quorum rule in [`crate::reinforce`]). The thread
/// that ran it goes on to its next pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalExecutor;

impl RolloutExecutor for LocalExecutor {
    fn run_batch(&mut self, req: &RolloutRequest<'_>) -> ExecutorBatch {
        // Hand the driver's recorder (if any) to every rollout thread: each
        // attaches its own clone, records into its thread-local span
        // buffer, and merges back when its rollout span closes.
        let recorder = rl_ccd_obs::current();
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(req.pairs.len());
        let next = AtomicUsize::new(0);
        let mut results: Vec<(usize, Result<ExecutedRollout, RolloutFault>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let (recorder, next) = (recorder.clone(), &next);
                        scope.spawn(move || {
                            let _obs = recorder.as_ref().map(rl_ccd_obs::attach);
                            let mut done = Vec::new();
                            loop {
                                let at = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&(slot, seed)) = req.pairs.get(at) else {
                                    break done;
                                };
                                done.push((at, supervised(req, slot, seed)));
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| {
                        h.join()
                            .expect("supervised rollouts cannot panic past catch_unwind")
                    })
                    .collect()
            });
        results.sort_unstable_by_key(|&(at, _)| at);
        let mut batch = ExecutorBatch::default();
        for (_, result) in results {
            match result {
                Ok(rollout) => batch.rollouts.push(rollout),
                Err(fault) => batch.faults.push(fault),
            }
        }
        batch
    }
}

/// One rollout under supervision: its span, `catch_unwind`, and the
/// finiteness checks.
fn supervised(
    req: &RolloutRequest<'_>,
    slot: usize,
    seed: u64,
) -> Result<ExecutedRollout, RolloutFault> {
    let iteration = req.iteration;
    let mut span = rl_ccd_obs::span!(
        "train.rollout",
        iteration = iteration,
        worker = slot,
        seed = seed,
    );
    let fault = |kind, detail| RolloutFault {
        iteration,
        worker: slot,
        seed,
        kind,
        detail,
    };
    let result = match catch_unwind(AssertUnwindSafe(|| run_one(req, slot, seed))) {
        Err(payload) => Err(fault(
            FaultKind::WorkerPanic,
            panic_message(payload.as_ref()),
        )),
        Ok(r) if !r.reward.is_finite() => Err(fault(
            FaultKind::NonFiniteReward,
            format!("reward {}", r.reward),
        )),
        Ok(r) if !r.log_prob_grads.all_finite() => {
            let bad = r
                .log_prob_grads
                .iter()
                .find(|(_, t)| !t.all_finite())
                .map(|(n, _)| n.to_string())
                .unwrap_or_default();
            Err(fault(
                FaultKind::NonFiniteGradient,
                format!("non-finite gradient in {bad}"),
            ))
        }
        Ok(r) => Ok(r),
    };
    match &result {
        Ok(r) => {
            span.record("reward", r.reward);
            span.record("steps", r.steps);
            rl_ccd_obs::observe!("train.rollout.reward", r.reward);
        }
        Err(f) => {
            span.record("fault", format!("{:?}", f.kind));
            rl_ccd_obs::counter!("train.fault.quarantined", 1);
        }
    }
    result
}

/// The rollout body: one sampled trajectory, its backward pass, and the
/// flow evaluation — with the test-only fault hooks applied at the exact
/// points real faults would strike.
fn run_one(req: &RolloutRequest<'_>, slot: usize, seed: u64) -> ExecutedRollout {
    let (iteration, plan) = (req.iteration, req.plan);
    if plan.injects(iteration, slot, InjectedFault::WorkerPanic) {
        panic!("injected worker panic (fault plan, iter {iteration} worker {slot})");
    }
    let rollout = req
        .model
        .rollout(req.params, req.env, &mut StdRng::seed_from_u64(seed));
    let selected = rollout.selected.clone();
    // Backward while the tape is hot; the tape goes with the rollout.
    let mut log_prob_grads = rollout.log_prob_grads();
    let mut reward = req.env.reward(&selected);
    if plan.injects(iteration, slot, InjectedFault::NanReward) {
        reward = f64::NAN;
    }
    if plan.injects(iteration, slot, InjectedFault::PoisonedGradient) {
        poison_first_element(&mut log_prob_grads);
    }
    ExecutedRollout {
        slot,
        seed,
        steps: selected.len(),
        selected,
        reward,
        log_prob_grads,
    }
}

/// Replaces the first gradient element with NaN (fault-plan support).
fn poison_first_element(grads: &mut GradSet) {
    let first = grads.iter().next().map(|(n, t)| (n.to_string(), t.clone()));
    if let Some((name, mut t)) = first {
        t.data_mut()[0] = f32::NAN;
        grads.set(name, t);
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_ccd_flow::FlowRecipe;
    use rl_ccd_netlist::{generate, DesignSpec, TechNode};

    /// Returns rollouts in an adversarial order (reversed, then rotated by
    /// one) — a stand-in for a distributed executor whose workers finish
    /// in arbitrary order.
    #[derive(Debug)]
    struct ShufflingExecutor;

    impl RolloutExecutor for ShufflingExecutor {
        fn run_batch(&mut self, req: &RolloutRequest<'_>) -> ExecutorBatch {
            let mut batch = LocalExecutor.run_batch(req);
            batch.rollouts.reverse();
            if batch.rollouts.len() > 1 {
                batch.rollouts.rotate_left(1);
            }
            batch
        }
    }

    /// The reduction-order pin: gradient aggregation is fixed by seed
    /// index, never by completion order, so an executor that returns
    /// rollouts in any order trains bit-identically.
    #[test]
    fn gradient_reduction_order_is_fixed_by_slot_not_completion() {
        use crate::reinforce::{try_train_with, TrainSession};
        let env = env("exec-order", 450, 62);
        let config = RlConfig {
            workers: 4,
            ..RlConfig::fast()
        };
        let ordered =
            try_train_with(&env, &config, TrainSession::default(), &mut LocalExecutor).unwrap();
        let shuffled = try_train_with(
            &env,
            &config,
            TrainSession::default(),
            &mut ShufflingExecutor,
        )
        .unwrap();
        assert_eq!(
            ordered.params, shuffled.params,
            "final parameters must be bit-identical regardless of rollout return order"
        );
        assert_eq!(ordered.best_selection, shuffled.best_selection);
        assert_eq!(
            ordered.best_result.final_qor.tns_ps,
            shuffled.best_result.final_qor.tns_ps
        );
    }

    fn env(name: &str, cells: usize, seed: u64) -> CcdEnv {
        let d = generate(&DesignSpec::new(name, cells, TechNode::N7, seed));
        CcdEnv::new(d, FlowRecipe::default(), 24)
    }

    /// One [`LocalExecutor`] batch of `seeds` (slot = position) under a
    /// fresh `RlConfig::fast()` model.
    fn run(env: &CcdEnv, iteration: usize, seeds: &[u64], plan: &FaultPlan) -> ExecutorBatch {
        let config = RlConfig::fast();
        let (model, params) = RlCcd::init(config.clone());
        let pairs: Vec<(usize, u64)> = seeds.iter().copied().enumerate().collect();
        LocalExecutor.run_batch(&RolloutRequest {
            iteration,
            pairs: &pairs,
            params: &params,
            model: &model,
            env,
            config: &config,
            plan,
        })
    }

    #[test]
    fn local_executor_matches_serial_rollouts() {
        let env = env("par", 500, 55);
        let batch = run(&env, 0, &[100, 101], &FaultPlan::none());
        assert!(batch.faults.is_empty());
        assert_eq!(batch.rollouts.len(), 2);
        let (model, params) = RlCcd::init(RlConfig::fast());
        for (r, (slot, seed)) in batch.rollouts.iter().zip([(0, 100), (1, 101)]) {
            assert_eq!((r.slot, r.seed), (slot, seed));
            // Rerun the slot serially: identical trajectory, reward, gradient.
            let serial = model.rollout(&params, &env, &mut StdRng::seed_from_u64(seed));
            assert_eq!(serial.selected, r.selected);
            assert_eq!(serial.steps(), r.steps);
            assert!(r.steps >= 1);
            assert_eq!(env.reward(&serial.selected), r.reward);
            assert!(r.reward <= 0.0 && r.reward.is_finite());
            let grads = serial.log_prob_grads();
            for (name, g) in grads.iter() {
                let other = r.log_prob_grads.get(name).expect("same params");
                assert_eq!(g.data(), other.data(), "gradient mismatch for {name}");
            }
        }
    }

    #[test]
    fn more_pairs_than_threads_all_come_back_in_order() {
        let env = env("pool", 500, 56);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let seeds: Vec<u64> = (0..threads as u64 + 3).collect();
        let batch = run(&env, 0, &seeds, &FaultPlan::none());
        assert!(batch.faults.is_empty());
        let got: Vec<(usize, u64)> = batch.rollouts.iter().map(|r| (r.slot, r.seed)).collect();
        let want: Vec<(usize, u64)> = seeds.iter().copied().enumerate().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_panic_quarantines_only_its_own_slot() {
        let env = env("panic5", 450, 59);
        let plan = FaultPlan::none().with_worker_panic(0, 1);
        let seeds = [30, 31, 32, 33, 34];
        let batch = run(&env, 0, &seeds, &plan);
        let faulted: Vec<(usize, FaultKind)> =
            batch.faults.iter().map(|f| (f.worker, f.kind)).collect();
        assert_eq!(faulted, vec![(1, FaultKind::WorkerPanic)]);
        // The thread that caught the panic went on: every other slot ran.
        let kept: Vec<usize> = batch.rollouts.iter().map(|r| r.slot).collect();
        assert_eq!(kept, vec![0, 2, 3, 4]);
    }

    #[test]
    fn injected_panic_is_quarantined_not_fatal() {
        let env = env("panic", 450, 57);
        let plan = FaultPlan::none().with_worker_panic(3, 1);
        let batch = run(&env, 3, &[10, 11, 12], &plan);
        assert_eq!(batch.rollouts.len(), 2);
        assert_eq!(batch.faults.len(), 1);
        let f = &batch.faults[0];
        assert_eq!((f.iteration, f.worker, f.seed), (3, 1, 11));
        assert_eq!(f.kind, FaultKind::WorkerPanic);
        assert!(f.detail.contains("injected"), "{}", f.detail);
        // Survivors keep their slots and seeds.
        let kept: Vec<(usize, u64)> = batch.rollouts.iter().map(|r| (r.slot, r.seed)).collect();
        assert_eq!(kept, vec![(0, 10), (2, 12)]);
    }

    #[test]
    fn injected_nan_reward_and_gradient_are_quarantined() {
        let env = env("nanq", 450, 58);
        let plan = FaultPlan::none()
            .with_nan_reward(0, 0)
            .with_poisoned_gradient(0, 2);
        let batch = run(&env, 0, &[20, 21, 22], &plan);
        assert_eq!(batch.rollouts.len(), 1);
        assert_eq!(batch.rollouts[0].slot, 1);
        let kinds: Vec<FaultKind> = batch.faults.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            vec![FaultKind::NonFiniteReward, FaultKind::NonFiniteGradient]
        );
        for r in &batch.rollouts {
            assert!(r.reward.is_finite());
            assert!(r.log_prob_grads.all_finite());
        }
    }
}
