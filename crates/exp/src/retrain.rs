//! Offline importance-weighted retraining: the trainer half of the
//! closed loop.
//!
//! [`retrain`] is a pure function of `(base checkpoint, experience log,
//! config)` — nothing reads the clock, the filesystem beyond its two
//! inputs, or any unseeded RNG — so two retrains from the same inputs
//! produce **bit-identical** checkpoints (`cmp` the `state.txt` files).
//! That is the property the CI loop-smoke job pins.
//!
//! The update rule is off-policy REINFORCE. For each logged record the
//! current policy replays the logged action sequence with teacher
//! forcing ([`rl_ccd::RlCcd::replay_trajectory`]), giving
//! `Σ_t log π_θ(a_t|s_t)` on a gradient tape. The behavior policy's
//! log-probs were captured at serve time, so the importance weight is
//! `w = exp(Σ log π_θ − Σ log π_b)`, clamped to `w_max` to bound the
//! variance of stale records. Rewards are standardized across the batch
//! and each record contributes `−(w · advantage) · ∇ Σ_t log π_θ`: the
//! step is [`rl_ccd::reinforce_update`], the function the online trainer
//! calls with `w ≡ 1` — population-std advantages, no update (and no
//! backward pass) for a degenerate batch, averaging, global-norm
//! clipping, Adam, and the non-finite guards with snapshot-restore and
//! learning-rate decay.

use crate::buffer::ReplayBuffer;
use crate::rebuild::feature_fingerprint;
use crate::record::ExpRecord;
use crate::ExpError;
use rl_ccd::{
    load_training_state, reinforce_update, save_training_state, CcdEnv, IterationStats,
    TrainingState, UpdateOutcome,
};
use rl_ccd_netlist::EndpointId;
use rl_ccd_serve::{build_env, DesignKey, ModelRegistry};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::Path;

/// Knobs for one offline retraining run. Everything here feeds the
/// deterministic recipe; two runs with equal configs and inputs are
/// bit-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetrainConfig {
    /// Seed for the buffer's deterministic iteration order.
    pub seed: u64,
    /// Offline update steps to take (the version bump is exactly this).
    pub steps: usize,
    /// Records per update step (the buffer is cycled when smaller).
    pub batch: usize,
    /// Maximum policy-version distance a record may have from the base
    /// checkpoint before it is evicted as stale.
    pub max_staleness: usize,
    /// Clamp on the importance weight `exp(Σlogπ_θ − Σlogπ_b)`.
    pub w_max: f32,
    /// Override for the optimizer learning rate (`None` keeps the rate
    /// the base checkpoint's Adam state carries).
    pub learning_rate: Option<f32>,
    /// Global-norm gradient clip, matching the online trainer's knob.
    pub grad_clip: f32,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        Self {
            seed: 0xE1,
            steps: 4,
            batch: 8,
            max_staleness: 16,
            w_max: 10.0,
            learning_rate: None,
            grad_clip: 5.0,
        }
    }
}

/// What one retraining run did with its inputs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RetrainReport {
    /// Version (training iteration) of the base checkpoint.
    pub base_version: usize,
    /// Version of the emitted checkpoint (`base + steps`).
    pub new_version: usize,
    /// Records admitted to the replay buffer.
    pub records_loaded: usize,
    /// Duplicate records the buffer collapsed.
    pub duplicates: usize,
    /// Records skipped for claiming a policy version newer than the base.
    pub unknown_version: usize,
    /// Records evicted for exceeding the staleness bound.
    pub stale: usize,
    /// Records skipped because their rho/fanout-cap disagreed with the
    /// first record (one retrain = one serving configuration).
    pub config_mismatch: usize,
    /// Records skipped because the rebuilt environment disagreed with the
    /// logged feature fingerprint or rejected the action sequence.
    pub replay_failures: usize,
    /// Update steps actually applied to the parameters (degenerate and
    /// guarded batches advance the version without stepping Adam).
    pub steps_taken: usize,
    /// Steps the non-finite guards intercepted.
    pub guarded_steps: usize,
    /// Mean clamped importance weight over every replayed record.
    pub mean_importance_weight: f64,
    /// Effective sample size of those weights, `(Σw)² / Σw²`: how many
    /// equally weighted records the weighted batch is worth.
    pub effective_sample_size: f64,
    /// Share of replayed records whose raw weight exceeded `w_max` and was
    /// clamped.
    pub clamped_share: f64,
}

/// Running sums over the clamped importance weights of every replay.
#[derive(Debug, Default)]
struct WeightStats {
    sum: f64,
    sum_sq: f64,
    count: u64,
    clamped: u64,
}

impl WeightStats {
    fn record(&mut self, weight: f32, clamped: bool) {
        let w = f64::from(weight);
        self.sum += w;
        self.sum_sq += w * w;
        self.count += 1;
        self.clamped += u64::from(clamped);
    }

    /// Writes the mean, the effective sample size and the clamped share
    /// (all left at zero when nothing was replayed).
    fn report_into(&self, report: &mut RetrainReport) {
        if self.count == 0 {
            return;
        }
        report.mean_importance_weight = self.sum / self.count as f64;
        if self.sum_sq > 0.0 {
            report.effective_sample_size = self.sum * self.sum / self.sum_sq;
        }
        report.clamped_share = self.clamped as f64 / self.count as f64;
    }
}

/// Retrains the checkpoint in `base_dir` from the experience log at
/// `log_path`, committing the result to `out_dir` (atomic
/// `state.txt` + manifest, same format the daemon promotes from).
///
/// # Errors
/// [`ExpError::Checkpoint`] when the base checkpoint fails verification,
/// [`ExpError::Parse`]/[`ExpError::Io`] when the log is corrupt or
/// unreadable, [`ExpError::Serve`] when the checkpoint does not describe
/// a complete model, and [`ExpError::Retrain`] when no record survives
/// filtering (an empty retrain would silently re-emit the base — better
/// to refuse).
pub fn retrain(
    base_dir: impl AsRef<Path>,
    log_path: impl AsRef<Path>,
    out_dir: impl AsRef<Path>,
    cfg: &RetrainConfig,
) -> Result<RetrainReport, ExpError> {
    let state = load_training_state(&base_dir)?;
    let file = std::fs::File::open(&log_path)?;
    let mut records = Vec::new();
    for (idx, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let record = ExpRecord::parse(&line).map_err(|message| ExpError::Parse {
            line: idx + 1,
            message,
        })?;
        records.push(record);
    }
    let Some(first) = records.first() else {
        return Err(ExpError::Retrain("experience log holds no records".into()));
    };
    let (rho, fanout_cap) = (first.rho, first.fanout_cap);
    let serve_model = ModelRegistry::prepare("retrain", &base_dir, rho)?;
    let mut report = RetrainReport {
        base_version: serve_model.version,
        new_version: serve_model.version + cfg.steps,
        ..RetrainReport::default()
    };

    let mut buffer = ReplayBuffer::new(serve_model.version, cfg.max_staleness);
    for record in records {
        if record.rho != rho || record.fanout_cap != fanout_cap {
            report.config_mismatch += 1;
            continue;
        }
        buffer.push(record);
    }
    let stats = buffer.stats();
    report.records_loaded = stats.accepted;
    report.duplicates = stats.duplicates;
    report.unknown_version = stats.unknown_version;
    report.stale = stats.evicted_stale;

    // Environments are rebuilt once per distinct design and cross-checked
    // against the logged feature fingerprint: a record whose rebuilt
    // features hash differently was logged against a different generator
    // or STA and would replay a trajectory the server never ran.
    let mut envs: BTreeMap<String, Option<CcdEnv>> = BTreeMap::new();
    let ordered = buffer.iter_shuffled(cfg.seed);
    let mut usable: Vec<&ExpRecord> = Vec::with_capacity(ordered.len());
    for record in ordered {
        let env = envs.entry(record.design.clone()).or_insert_with(|| {
            record
                .design
                .parse::<DesignKey>()
                .ok()
                .and_then(|key| build_env(&key, fanout_cap).ok())
        });
        let ok = env
            .as_ref()
            .is_some_and(|env| feature_fingerprint(env) == record.feat_fp);
        if ok {
            usable.push(record);
        } else {
            report.replay_failures += 1;
            rl_ccd_obs::counter!("exp.retrain.replay_failed", 1);
        }
    }
    if usable.is_empty() {
        return Err(ExpError::Retrain(format!(
            "no usable records after filtering ({stats:?}, {} replay failures)",
            report.replay_failures
        )));
    }

    let model = &serve_model.model;
    let mut params = state.params.clone();
    let mut adam = state.adam.clone();
    if let Some(lr) = cfg.learning_rate {
        adam.lr = lr;
    }
    let mut best_reward = state.best_reward;
    let mut best_selection = state.best_selection.clone();
    let mut history = state.history.clone();
    let mut weights = WeightStats::default();

    for step in 0..cfg.steps {
        let _span = rl_ccd_obs::span!("exp.retrain.step", iteration = step as u64);
        // Cycle the shuffled buffer, deduping within the batch so a short
        // log cannot produce a zero-variance batch of one repeated record.
        let mut indices: Vec<usize> = Vec::with_capacity(cfg.batch);
        for j in 0..cfg.batch.max(1) {
            let idx = (step * cfg.batch.max(1) + j) % usable.len();
            if !indices.contains(&idx) {
                indices.push(idx);
            }
        }
        let mut replays = Vec::with_capacity(indices.len());
        for idx in indices {
            let record = usable[idx];
            let env = envs
                .get(&record.design)
                .and_then(Option::as_ref)
                .expect("usable records have environments");
            let actions: Vec<EndpointId> = record
                .selection
                .iter()
                .map(|&v| EndpointId::new(v as usize))
                .collect();
            let rollout = match model.replay_trajectory(&params, env, &actions) {
                Ok(rollout) => rollout,
                Err(_) => {
                    report.replay_failures += 1;
                    rl_ccd_obs::counter!("exp.retrain.replay_failed", 1);
                    continue;
                }
            };
            let lp_theta = rollout.tape.value(rollout.total_log_prob).data()[0];
            let raw = (lp_theta - record.behavior_log_prob()).exp();
            let weight = raw.min(cfg.w_max);
            if !weight.is_finite() {
                report.replay_failures += 1;
                rl_ccd_obs::counter!("exp.retrain.replay_failed", 1);
                continue;
            }
            weights.record(weight, raw > cfg.w_max);
            if record.reward_tns_ps > best_reward {
                best_reward = record.reward_tns_ps;
                best_selection = actions.clone();
            }
            replays.push((record, rollout, weight));
        }

        let rewards: Vec<f64> = replays.iter().map(|(r, _, _)| r.reward_tns_ps).collect();
        let iteration = state.next_iteration + step;
        if replays.is_empty() {
            history.push(IterationStats {
                iteration,
                mean_reward: f64::NEG_INFINITY,
                batch_best: f64::NEG_INFINITY,
                greedy_reward: f64::NEG_INFINITY,
                best_so_far: best_reward,
                steps: Vec::new(),
                rewards: Vec::new(),
            });
            continue;
        }
        let mean = rewards.iter().sum::<f64>() / rewards.len() as f64;
        let batch_best = rewards.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let steps = replays.iter().map(|(r, _, _)| r.selection.len()).collect();
        // The online update, with the importance weight as each record's
        // weight; a degenerate batch runs no backward pass.
        let update = reinforce_update(
            &mut params,
            &mut adam,
            cfg.grad_clip,
            &rewards,
            replays
                .into_iter()
                .map(|(_, rollout, weight)| (rollout.log_prob_grads(), weight)),
        );
        match update {
            UpdateOutcome::Stepped => report.steps_taken += 1,
            UpdateOutcome::NonFiniteGradient | UpdateOutcome::Diverged => {
                report.guarded_steps += 1;
                rl_ccd_obs::counter!("exp.retrain.guarded", 1);
            }
            UpdateOutcome::Degenerate => {}
        }
        history.push(IterationStats {
            iteration,
            mean_reward: mean,
            batch_best,
            greedy_reward: batch_best,
            best_so_far: best_reward,
            steps,
            rewards,
        });
    }

    weights.report_into(&mut report);
    let new_state = TrainingState {
        next_iteration: state.next_iteration + cfg.steps,
        seed_base: state.seed_base,
        best_reward,
        best_mean: state.best_mean,
        stale: state.stale,
        best_selection,
        params,
        adam,
        history,
        faults: state.faults,
    };
    save_training_state(&new_state, &out_dir)?;
    rl_ccd_obs::counter!("exp.retrain.committed", 1);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rl_ccd::{InferSession, RlCcd, RlConfig};
    use rl_ccd_nn::Adam;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rl_ccd_exp_retrain_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    /// A base checkpoint at version 3 plus an experience log of `n`
    /// genuinely-sampled trajectories from that policy.
    fn seed_loop_inputs(tag: &str, n: u64) -> (PathBuf, PathBuf, RlConfig) {
        let dir = tmp_dir(tag);
        let config = RlConfig::fast();
        let (model, params) = RlCcd::init(config.clone());
        let state = TrainingState {
            next_iteration: 3,
            seed_base: config.seed,
            best_reward: -1.0e9,
            best_mean: -1.0e9,
            stale: 0,
            best_selection: vec![],
            params: params.clone(),
            adam: Adam::new(config.learning_rate),
            history: vec![],
            faults: vec![],
        };
        save_training_state(&state, &dir).expect("save base");
        let key: DesignKey = "retrain:360:7nm:5".parse().expect("key");
        let env = build_env(&key, 24).expect("env");
        let feat_fp = feature_fingerprint(&env);
        let log_path = dir.join("exp.jsonl");
        let mut log = std::fs::File::create(&log_path).expect("log");
        let mut session = InferSession::new(&model, &params);
        for seed in 0..n {
            let mut rng = StdRng::seed_from_u64(seed);
            let (selection, log_probs) = session.sample_logged(&env, &mut rng);
            if selection.is_empty() {
                continue;
            }
            let realized = env.evaluate(&selection);
            let record = ExpRecord {
                design: key.to_string(),
                feat_fp,
                model: "champion".into(),
                policy_version: 3,
                policy_fp: 0xbeef,
                rho: config.rho,
                fanout_cap: 24,
                seed,
                selection: selection.iter().map(|e| e.index() as u32).collect(),
                log_probs,
                reward_tns_ps: realized.final_qor.tns_ps,
                base_tns_ps: 0.0,
                wns_delta_ps: 0.0,
            };
            writeln!(log, "{}", record.to_jsonl()).expect("write record");
        }
        (dir, log_path, config)
    }

    /// The report's weight statistics for raw weights `raw`, clamped at
    /// `w_max` the way [`retrain`] clamps them.
    fn weight_report(raw: &[f32], w_max: f32) -> RetrainReport {
        let mut stats = WeightStats::default();
        for &w in raw {
            stats.record(w.min(w_max), w > w_max);
        }
        let mut report = RetrainReport::default();
        stats.report_into(&mut report);
        report
    }

    #[test]
    fn effective_sample_size_and_clamped_share() {
        let equal = weight_report(&[0.5; 4], 10.0);
        assert_eq!(equal.effective_sample_size, 4.0);
        assert_eq!(equal.clamped_share, 0.0);
        assert_eq!(equal.mean_importance_weight, 0.5);
        // One weight over the clamp: w = [1, 1, 1, 2] after clamping.
        let clamped = weight_report(&[1.0, 1.0, 30.0, 1.0], 2.0);
        assert_eq!(clamped.clamped_share, 0.25);
        assert_eq!(clamped.effective_sample_size, 25.0 / 7.0);
        // One weight dominating: the batch is worth barely one record.
        let skewed = weight_report(&[1e-3, 1e-3, 1e-3, 1.0], 10.0);
        assert!(skewed.effective_sample_size < 1.01);
        // Nothing replayed: everything stays zero.
        assert_eq!(weight_report(&[], 10.0), RetrainReport::default());
    }

    #[test]
    fn double_retrain_is_bit_identical_and_moves_the_params() {
        let (base, log, _config) = seed_loop_inputs("twice", 6);
        let out_a = tmp_dir("twice_a");
        let out_b = tmp_dir("twice_b");
        let cfg = RetrainConfig {
            steps: 2,
            batch: 4,
            ..RetrainConfig::default()
        };
        let report_a = retrain(&base, &log, &out_a, &cfg).expect("retrain a");
        let report_b = retrain(&base, &log, &out_b, &cfg).expect("retrain b");
        assert_eq!(report_a, report_b);
        assert_eq!(report_a.base_version, 3);
        assert_eq!(report_a.new_version, 5);
        assert!(report_a.steps_taken > 0, "{report_a:?}");
        assert_eq!(report_a.replay_failures, 0, "{report_a:?}");
        let bytes_a = std::fs::read(out_a.join("state.txt")).expect("state a");
        let bytes_b = std::fs::read(out_b.join("state.txt")).expect("state b");
        assert_eq!(bytes_a, bytes_b, "same log + seed must be bit-identical");
        let base_state = load_training_state(&base).expect("base");
        let new_state = load_training_state(&out_a).expect("new");
        assert_eq!(new_state.next_iteration, 5);
        assert_ne!(new_state.params, base_state.params, "no learning happened");
        assert!(new_state.params.all_finite());
        assert_eq!(new_state.history.len(), base_state.history.len() + 2);
        // A different seed orders the buffer differently → different bytes.
        let out_c = tmp_dir("twice_c");
        let other = RetrainConfig { seed: 0xE2, ..cfg };
        retrain(&base, &log, &out_c, &other).expect("retrain c");
        let bytes_c = std::fs::read(out_c.join("state.txt")).expect("state c");
        assert_ne!(bytes_a, bytes_c, "seed does not reach the recipe");
        for dir in [base, out_a, out_b, out_c] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn empty_and_unusable_logs_are_refused() {
        let (base, log, config) = seed_loop_inputs("refuse", 2);
        let out = tmp_dir("refuse_out");
        std::fs::write(&log, b"").expect("truncate");
        let err = retrain(&base, &log, &out, &RetrainConfig::default()).unwrap_err();
        assert!(matches!(err, ExpError::Retrain(_)), "{err:?}");
        // Records whose fingerprint disagrees with the rebuilt env are
        // replay failures, and a log of only those is refused too.
        let key: DesignKey = "retrain:360:7nm:5".parse().expect("key");
        let record = ExpRecord {
            design: key.to_string(),
            feat_fp: 0xDEAD,
            model: "champion".into(),
            policy_version: 3,
            policy_fp: 0xbeef,
            rho: config.rho,
            fanout_cap: 24,
            seed: 1,
            selection: vec![0],
            log_probs: vec![-0.5],
            reward_tns_ps: -10.0,
            base_tns_ps: 0.0,
            wns_delta_ps: 0.0,
        };
        std::fs::write(&log, format!("{}\n", record.to_jsonl())).expect("write");
        let err = retrain(&base, &log, &out, &RetrainConfig::default()).unwrap_err();
        let ExpError::Retrain(message) = err else {
            panic!("expected retrain refusal, got {err:?}")
        };
        assert!(message.contains("1 replay failures"), "{message}");
        assert!(!out.join("state.txt").exists(), "refusal must not commit");
        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn stale_and_future_records_are_filtered_not_fatal() {
        let (base, log, config) = seed_loop_inputs("filter", 4);
        let out = tmp_dir("filter_out");
        // Append one future-version and one ancient record.
        let key: DesignKey = "retrain:360:7nm:5".parse().expect("key");
        let env = build_env(&key, 24).expect("env");
        let feat_fp = feature_fingerprint(&env);
        let mut extra = ExpRecord {
            design: key.to_string(),
            feat_fp,
            model: "champion".into(),
            policy_version: 9,
            policy_fp: 0xbeef,
            rho: config.rho,
            fanout_cap: 24,
            seed: 99,
            selection: vec![0],
            log_probs: vec![-0.5],
            reward_tns_ps: -10.0,
            base_tns_ps: 0.0,
            wns_delta_ps: 0.0,
        };
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&log)
            .expect("append");
        writeln!(file, "{}", extra.to_jsonl()).expect("future record");
        extra.policy_version = 0;
        extra.seed = 100;
        writeln!(file, "{}", extra.to_jsonl()).expect("stale record");
        drop(file);
        let cfg = RetrainConfig {
            steps: 1,
            batch: 4,
            max_staleness: 1,
            ..RetrainConfig::default()
        };
        let report = retrain(&base, &log, &out, &cfg).expect("retrain");
        assert_eq!(report.unknown_version, 1, "{report:?}");
        assert_eq!(report.stale, 1, "{report:?}");
        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_dir_all(&out).ok();
    }
}
