//! Held-out evaluation gate for champion/challenger promotion.
//!
//! Before a serving daemon promotes a freshly loaded checkpoint
//! ("challenger") over the one currently answering traffic ("champion"),
//! both are scored on a fixed, seeded set of held-out designs.  The score
//! per design is the **greedy** trajectory's final TNS (ps) — the same
//! deterministic no-grad path the server answers queries with — so the
//! gate measures exactly what production traffic would see, and two runs
//! of the same gate on the same checkpoints are bit-identical.

use crate::agent::RlCcd;
use crate::env::CcdEnv;
use crate::infer::select_endpoints;
use rl_ccd_flow::FlowRecipe;
use rl_ccd_netlist::{generate, DesignSpec, TechNode};
use rl_ccd_nn::ParamSet;

/// Which designs to score and how strict the gate is.
#[derive(Clone, Debug)]
pub struct GateSpec {
    /// Held-out design generators; everything about each design is
    /// deterministic given its spec.
    pub designs: Vec<DesignSpec>,
    /// Fan-out cap used when building each [`CcdEnv`].
    pub fanout_cap: usize,
    /// Slack granted to the challenger: it passes when its mean greedy
    /// TNS is at least `champion_mean - tolerance` (TNS is ≤ 0; higher
    /// is better).
    pub tolerance: f64,
}

impl GateSpec {
    /// A small two-design gate suitable for tests and smoke runs.
    pub fn quick(seed: u64) -> Self {
        GateSpec {
            designs: vec![
                DesignSpec::new("gate_a", 360, TechNode::N7, seed.wrapping_add(1)),
                DesignSpec::new("gate_b", 420, TechNode::N7, seed.wrapping_add(2)),
            ],
            fanout_cap: 24,
            tolerance: 1.0,
        }
    }
}

/// Greedy scores for one held-out design.
#[derive(Clone, Debug)]
pub struct DesignScore {
    /// Design name from the spec.
    pub design: String,
    /// Champion greedy TNS (ps).
    pub champion: f64,
    /// Challenger greedy TNS (ps).
    pub challenger: f64,
}

/// Outcome of one gate run.
#[derive(Clone, Debug)]
pub struct GateVerdict {
    /// Per-design scores, in spec order.
    pub scores: Vec<DesignScore>,
    /// Mean champion greedy TNS across the designs.
    pub champion_mean: f64,
    /// Mean challenger greedy TNS across the designs.
    pub challenger_mean: f64,
    /// Tolerance the verdict was judged with (copied from the spec).
    pub tolerance: f64,
    /// `challenger_mean >= champion_mean - tolerance`.
    pub passed: bool,
}

impl GateVerdict {
    /// One-line human summary, e.g. for audit logs.
    pub fn summary(&self) -> String {
        format!(
            "{}: challenger {:.3} vs champion {:.3} (tolerance {:.3}, {} designs)",
            if self.passed { "pass" } else { "fail" },
            self.challenger_mean,
            self.champion_mean,
            self.tolerance,
            self.scores.len()
        )
    }
}

/// Scores `challenger` against `champion` on the held-out designs in
/// `spec`.  Deterministic: the same inputs always produce the same
/// verdict, bit for bit.
pub fn run_eval_gate(
    champion: (&RlCcd, &ParamSet),
    challenger: (&RlCcd, &ParamSet),
    spec: &GateSpec,
) -> GateVerdict {
    let mut scores = Vec::with_capacity(spec.designs.len());
    let mut champ_sum = 0.0;
    let mut chall_sum = 0.0;
    for design in &spec.designs {
        let env = CcdEnv::new(generate(design), FlowRecipe::default(), spec.fanout_cap);
        let greedy_tns = |(model, params): (&RlCcd, &ParamSet)| {
            env.evaluate(&select_endpoints(model, params, &env))
                .final_qor
                .tns_ps
        };
        let champ = greedy_tns(champion);
        let chall = greedy_tns(challenger);
        champ_sum += champ;
        chall_sum += chall;
        scores.push(DesignScore {
            design: design.name.clone(),
            champion: champ,
            challenger: chall,
        });
    }
    let n = spec.designs.len().max(1) as f64;
    let champion_mean = champ_sum / n;
    let challenger_mean = chall_sum / n;
    GateVerdict {
        scores,
        champion_mean,
        challenger_mean,
        tolerance: spec.tolerance,
        passed: challenger_mean >= champion_mean - spec.tolerance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RlConfig;

    #[test]
    fn identical_checkpoints_always_pass() {
        let (model, params) = RlCcd::init(RlConfig::fast());
        let spec = GateSpec::quick(9);
        let verdict = run_eval_gate((&model, &params), (&model, &params), &spec);
        assert!(verdict.passed, "{}", verdict.summary());
        assert_eq!(verdict.champion_mean, verdict.challenger_mean);
        assert_eq!(verdict.scores.len(), 2);
        for s in &verdict.scores {
            assert_eq!(s.champion, s.challenger);
        }
    }

    #[test]
    fn gate_is_deterministic_and_tolerance_gates_regressions() {
        let (model, params) = RlCcd::init(RlConfig::fast());
        let (model2, params2) = RlCcd::init(RlConfig {
            seed: 99,
            ..RlConfig::fast()
        });
        let spec = GateSpec::quick(5);
        let a = run_eval_gate((&model, &params), (&model2, &params2), &spec);
        let b = run_eval_gate((&model, &params), (&model2, &params2), &spec);
        assert_eq!(a.champion_mean, b.champion_mean);
        assert_eq!(a.challenger_mean, b.challenger_mean);
        assert_eq!(a.passed, b.passed);
        // An infinitely strict gate fails any challenger that is even
        // marginally worse; an infinitely lax gate passes anything.
        let strict = GateSpec {
            tolerance: -f64::INFINITY,
            ..spec.clone()
        };
        let lax = GateSpec {
            tolerance: f64::INFINITY,
            ..spec
        };
        assert!(!run_eval_gate((&model, &params), (&model2, &params2), &strict).passed);
        assert!(run_eval_gate((&model, &params), (&model2, &params2), &lax).passed);
    }
}
