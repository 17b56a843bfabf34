//! The placement-optimization flow (paper Fig. 1).
//!
//! Both columns of Fig. 1 — the default tool flow and the RL-enhanced flow —
//! run the *same* sequence of optimization steps; the only difference is the
//! endpoint-prioritization hook before useful skew. [`FlowRecipe::run`]
//! implements that shared sequence:
//!
//! 1. snapshot begin QoR (post global placement),
//! 2. a light pre-CCD data-path pass,
//! 3. **prioritization hook**: margin the selected endpoints to WNS
//!    (empty selection = the native flow),
//! 4. useful-skew optimization (margins applied),
//! 5. remove margins,
//! 6. main data-path optimization (buffering / sizing / pin swaps),
//! 7. useful-skew touch-up,
//! 8. power recovery,
//! 9. legalization jitter + final signoff STA.

use crate::datapath::{optimize_datapath, recover_power, DatapathOpts};
use crate::margin::{prioritization_margins, MarginMode};
use crate::metrics::{FlowResult, Qor};
use crate::useful_skew::{run_useful_skew, UsefulSkewOpts};
use rl_ccd_netlist::{analyze_power, placement, EndpointId, GeneratedDesign, Netlist};
use rl_ccd_sta::{ClockSchedule, Constraints, EndpointMargins, IncrementalTimer, TimingReport};
use std::time::Instant;

/// Every knob of the placement-optimization recipe. The *same* recipe must
/// be used for the default and the RL-enhanced flow (the paper stresses the
/// apples-to-apples comparison).
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRecipe {
    /// Main useful-skew engine options.
    pub skew: UsefulSkewOpts,
    /// Touch-up useful-skew options (after data-path optimization).
    pub skew_touchup: UsefulSkewOpts,
    /// Light pre-CCD data-path pass.
    pub pre_datapath: DatapathOpts,
    /// Main data-path optimization.
    pub main_datapath: DatapathOpts,
    /// Slack floor (ps) for power recovery.
    pub recovery_slack: f32,
    /// How prioritized endpoints are margined.
    pub margin_mode: MarginMode,
    /// Clock insertion latency as a fraction of the period.
    pub clock_insertion_frac: f32,
    /// Clock-tree latency variation as a fraction of the period.
    pub clock_variation_frac: f32,
    /// Useful-skew bound as a fraction of the period.
    pub skew_bound_frac: f32,
    /// Legalization displacement, µm.
    pub legalize_disp: f32,
    /// Seed shared by the whole flow run (the paper pins the seed to remove
    /// run-to-run noise).
    pub seed: u64,
}

impl Default for FlowRecipe {
    fn default() -> Self {
        Self {
            skew: UsefulSkewOpts::default(),
            skew_touchup: UsefulSkewOpts {
                sweeps: 2,
                move_budget_frac: 0.02,
                ..UsefulSkewOpts::default()
            },
            pre_datapath: DatapathOpts {
                passes: 1,
                ops_per_pass: 0,
                ops_per_kcell: 80.0,
                ops_per_endpoint: 3,
                ..DatapathOpts::default()
            },
            main_datapath: DatapathOpts {
                passes: 5,
                ops_per_pass: 0,
                ops_per_kcell: 160.0,
                ..DatapathOpts::default()
            },
            recovery_slack: 40.0,
            margin_mode: MarginMode::OverFixToWns,
            clock_insertion_frac: 0.10,
            clock_variation_frac: 0.015,
            skew_bound_frac: 0.45,
            legalize_disp: 1.0,
            seed: 0xF10,
        }
    }
}

impl FlowRecipe {
    /// Builds the flow's clock schedule for `netlist` at `period` ps.
    pub fn clock_schedule(&self, netlist: &Netlist, period: f32) -> ClockSchedule {
        ClockSchedule::balanced(
            netlist,
            self.clock_insertion_frac * period,
            self.clock_variation_frac * period,
            self.skew_bound_frac * period,
            self.seed,
        )
    }

    /// Runs the complete placement-optimization flow on a fresh clone of
    /// `design`'s netlist, prioritizing `prioritized` endpoints for useful
    /// skew (pass an empty slice for the native tool flow).
    ///
    /// Returns the begin/final QoR, operation statistics, the final skew
    /// distribution, and the runtime.
    pub fn run(&self, design: &GeneratedDesign, prioritized: &[EndpointId]) -> FlowResult {
        self.run_traced(design, prioritized).0
    }

    /// Like [`FlowRecipe::run`], additionally returning the per-stage QoR
    /// trace — where in the flow each selection pays off (or doesn't).
    pub fn run_traced(
        &self,
        design: &GeneratedDesign,
        prioritized: &[EndpointId],
    ) -> (FlowResult, FlowTrace) {
        run_flow_impl(design, self, prioritized)
    }
}

fn qor(netlist: &Netlist, report: &TimingReport, period: f32, seed: u64) -> Qor {
    Qor {
        wns_ps: report.wns(),
        tns_ps: report.tns(),
        nve: report.nve(),
        power_mw: analyze_power(netlist, period, seed).total(),
    }
}

/// One stage checkpoint of a traced flow run.
#[derive(Clone, Debug, PartialEq)]
pub struct StageSnapshot {
    /// Stage name ("begin", "pre-datapath", "useful-skew", …).
    pub stage: &'static str,
    /// Worst negative slack after the stage, ps.
    pub wns_ps: f32,
    /// Total negative slack after the stage, ps.
    pub tns_ps: f64,
    /// Violating endpoints after the stage.
    pub nve: usize,
}

/// Per-stage QoR trace of one flow run, in execution order.
pub type FlowTrace = Vec<StageSnapshot>;

/// Records a stage boundary: pushes the trace snapshot and annotates the
/// stage's span with post-stage QoR and the TNS delta the stage produced.
fn end_stage(
    trace: &mut FlowTrace,
    span: &mut rl_ccd_obs::SpanGuard,
    stage: &'static str,
    wns_ps: f32,
    tns_ps: f64,
    nve: usize,
) {
    let prev_tns = trace.last().map_or(tns_ps, |s| s.tns_ps);
    span.record("wns_ps", wns_ps);
    span.record("tns_ps", tns_ps);
    span.record("tns_delta_ps", tns_ps - prev_tns);
    span.record("nve", nve);
    trace.push(StageSnapshot {
        stage,
        wns_ps,
        tns_ps,
        nve,
    });
}

fn run_flow_impl(
    design: &GeneratedDesign,
    recipe: &FlowRecipe,
    prioritized: &[EndpointId],
) -> (FlowResult, FlowTrace) {
    let start = Instant::now();
    let mut flow_span = rl_ccd_obs::span!(
        "flow.run",
        cells = design.netlist.cell_count(),
        period_ps = design.period_ps,
        prioritized = prioritized.len(),
    );
    let mut trace: FlowTrace = Vec::with_capacity(8);
    let mut netlist = design.netlist.clone();
    let period = design.period_ps;
    let constraints = Constraints::with_period(period);
    let mut clocks = recipe.clock_schedule(&netlist, period);
    let mut margins = EndpointMargins::zero(&netlist);

    // One incremental timer serves the whole flow: its construction is the
    // single full STA pass, every stage after that applies deltas through
    // it (with full recomputes only at the structural escape hatches:
    // buffer insertion inside datapath passes and legalization at signoff).
    // (1) Begin snapshot.
    let mut timer = {
        let mut span = rl_ccd_obs::span!("flow.begin_sta");
        let timer = IncrementalTimer::new(&netlist, &constraints, &clocks, &margins);
        end_stage(
            &mut trace,
            &mut span,
            "begin",
            timer.report().wns(),
            timer.report().tns(),
            timer.report().nve(),
        );
        timer
    };
    let begin = qor(&netlist, timer.report(), period, recipe.seed);

    // (2) Light pre-CCD data-path pass.
    let pre_report = {
        let mut span = rl_ccd_obs::span!("flow.pre_datapath");
        let (_, pre_report) = optimize_datapath(&mut netlist, &mut timer, &recipe.pre_datapath);
        end_stage(
            &mut trace,
            &mut span,
            "pre-datapath",
            pre_report.wns(),
            pre_report.tns(),
            pre_report.nve(),
        );
        pre_report
    };

    // (3) Prioritization hook: margin selected endpoints (Alg. 1 line 14).
    if !prioritized.is_empty() {
        let _span = rl_ccd_obs::span!("flow.margin", endpoints = prioritized.len());
        margins = prioritization_margins(&pre_report, prioritized, recipe.margin_mode, margins);
        timer.set_margins_from(&netlist, &margins);
    }

    // (4) Useful skew with margins applied, then (5) remove margins
    // (Alg. 1 line 16).
    let skew_out = {
        let mut span = rl_ccd_obs::span!("flow.useful_skew");
        let skew_out = run_useful_skew(&netlist, &mut clocks, &mut timer, &recipe.skew);
        margins.clear();
        timer.set_margins_from(&netlist, &margins);
        span.record("sweeps", skew_out.sweeps);
        span.record("moves", skew_out.moves);
        end_stage(
            &mut trace,
            &mut span,
            "useful-skew",
            timer.report().wns(),
            timer.report().tns(),
            timer.report().nve(),
        );
        skew_out
    };

    // (6) Main data-path optimization.
    let op_stats = {
        let mut span = rl_ccd_obs::span!("flow.main_datapath");
        let (op_stats, main_report) =
            optimize_datapath(&mut netlist, &mut timer, &recipe.main_datapath);
        span.record("ops", op_stats.total());
        end_stage(
            &mut trace,
            &mut span,
            "main-datapath",
            main_report.wns(),
            main_report.tns(),
            main_report.nve(),
        );
        op_stats
    };

    // (7) Useful-skew touch-up.
    let touchup_out = {
        let mut span = rl_ccd_obs::span!("flow.skew_touchup");
        let out = run_useful_skew(&netlist, &mut clocks, &mut timer, &recipe.skew_touchup);
        span.record("sweeps", out.sweeps);
        span.record("moves", out.moves);
        out
    };

    // (8) Power recovery.
    let downsizes = {
        let mut span = rl_ccd_obs::span!("flow.power_recovery");
        let (downsizes, _) = recover_power(&mut netlist, &mut timer, recipe.recovery_slack);
        span.record("downsizes", downsizes);
        downsizes
    };

    // (9) Legalization + signoff. Legalization moves every cell (all wire
    // loads change), so this is the full-recompute escape hatch.
    let final_qor = {
        let mut span = rl_ccd_obs::span!("flow.signoff");
        placement::legalize_jitter(&mut netlist, recipe.legalize_disp, recipe.seed);
        timer.full_recompute(&netlist);
        let final_report = timer.report();
        end_stage(
            &mut trace,
            &mut span,
            "signoff",
            final_report.wns(),
            final_report.tns(),
            final_report.nve(),
        );
        qor(&netlist, timer.report(), period, recipe.seed)
    };

    flow_span.record("wns_ps", final_qor.wns_ps);
    flow_span.record("tns_ps", final_qor.tns_ps);
    flow_span.record("tns_gain_pct", final_qor.tns_gain_pct(&begin));
    (
        FlowResult {
            begin,
            final_qor,
            op_stats,
            downsizes,
            skew_sweeps: skew_out.sweeps + touchup_out.sweeps,
            skews: clocks.skews().to_vec(),
            runtime_s: start.elapsed().as_secs_f64(),
        },
        trace,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_ccd_netlist::{generate, DesignSpec, TechNode};
    use rl_ccd_sta::{analyze, TimingGraph};

    fn design(seed: u64) -> GeneratedDesign {
        generate(&DesignSpec::new("flow", 900, TechNode::N7, seed))
    }

    #[test]
    fn default_flow_improves_begin_qor() {
        let d = design(41);
        let res = FlowRecipe::default().run(&d, &[]);
        assert!(
            res.final_qor.tns_ps > res.begin.tns_ps,
            "flow should improve TNS: {} -> {}",
            res.begin.tns_ps,
            res.final_qor.tns_ps
        );
        assert!(res.final_qor.wns_ps >= res.begin.wns_ps);
        assert!(res.op_stats.total() > 0);
        assert!(res.runtime_s > 0.0);
        assert_eq!(res.skews.len(), d.netlist.flops().len());
    }

    #[test]
    fn trace_covers_all_stages_in_order() {
        let d = design(44);
        let (res, trace) = FlowRecipe::default().run_traced(&d, &[]);
        let stages: Vec<&str> = trace.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![
                "begin",
                "pre-datapath",
                "useful-skew",
                "main-datapath",
                "signoff"
            ]
        );
        // Trace endpoints agree with the result's begin/final QoR.
        assert_eq!(trace[0].tns_ps, res.begin.tns_ps);
        assert_eq!(
            trace.last().expect("non-empty").tns_ps,
            res.final_qor.tns_ps
        );
        // Signoff is at least as good as the begin state.
        assert!(trace.last().expect("non-empty").tns_ps >= trace[0].tns_ps);
    }

    #[test]
    fn flow_is_deterministic_given_seed() {
        let d = design(42);
        let a = FlowRecipe::default().run(&d, &[]);
        let b = FlowRecipe::default().run(&d, &[]);
        assert_eq!(a.final_qor.tns_ps, b.final_qor.tns_ps);
        assert_eq!(a.final_qor.nve, b.final_qor.nve);
        assert_eq!(a.skews, b.skews);
    }

    #[test]
    fn prioritization_changes_the_outcome() {
        let d = design(43);
        let base = FlowRecipe::default().run(&d, &[]);
        // Prioritize the worst handful of begin violations.
        let graph = TimingGraph::new(&d.netlist);
        let recipe = FlowRecipe::default();
        let clocks = recipe.clock_schedule(&d.netlist, d.period_ps);
        let rep = analyze(
            &d.netlist,
            &graph,
            &Constraints::with_period(d.period_ps),
            &clocks,
            &EndpointMargins::zero(&d.netlist),
        );
        // Pick the mildest violations: their margin-to-WNS is largest, so
        // the skew queue must reorder.
        let chosen: Vec<EndpointId> = rep
            .violating_endpoints()
            .into_iter()
            .rev()
            .take(8)
            .map(EndpointId::new)
            .collect();
        let prio = recipe.run(&d, &chosen);
        assert_ne!(
            base.final_qor.tns_ps, prio.final_qor.tns_ps,
            "prioritization must alter the result"
        );
        // Begin state is identical either way.
        assert_eq!(base.begin.tns_ps, prio.begin.tns_ps);
    }
}
