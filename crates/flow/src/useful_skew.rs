//! The useful-skew engine: criticality-ordered, effort-limited, hold-aware
//! scheduling of per-register clock arrivals.
//!
//! This models the clock-path half of commercial CCD faithfully in the three
//! behaviours the paper's prioritization mechanism relies on:
//!
//! 1. **Criticality order** — each sweep serves registers whose (margined)
//!    endpoint slack is worst first. Margining an endpoint to WNS therefore
//!    pushes its capture register to the front of the queue.
//! 2. **Fix-to-zero target** — the engine shifts a register's clock just far
//!    enough to bring its (margined) violation to zero, never beyond: real
//!    engines do not waste skew headroom. This is exactly why worsening an
//!    endpoint to WNS makes the engine *over-fix* its true slack by the
//!    margin amount.
//! 3. **Bounded effort** — a total move budget limits how many registers can
//!    be served. Under scarcity, *which* endpoints are served first changes
//!    the final QoR — the gap RL-CCD exploits.
//!
//! Shifts are limited by the launch-side headroom of the register (its Q
//! slack), the skew bound, and a hold-slack floor.

use rl_ccd_netlist::Netlist;
use rl_ccd_sta::{ClockSchedule, IncrementalTimer, TimingReport};

/// Tuning knobs of the useful-skew engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UsefulSkewOpts {
    /// Number of sweeps; each sweep runs one STA and serves the queue.
    pub sweeps: usize,
    /// Fraction of the computed shift applied per serve (damping).
    pub rate: f32,
    /// Hold slack floor: a positive clock shift never pushes the register's
    /// own hold slack below this many ps.
    pub hold_floor: f32,
    /// Launch-side floor: a positive shift never pushes the register's
    /// launch (Q) slack below this many ps.
    pub launch_floor: f32,
    /// Shifts smaller than this many ps are not counted as moves.
    pub tolerance: f32,
    /// Total move budget as a fraction of the *initially violating*
    /// registers; once spent, the engine stops. Basing the budget on
    /// violations (not total registers) keeps the scarcity — which is what
    /// makes prioritization matter — independent of design scale.
    pub move_budget_frac: f32,
    /// Registers served per sweep, as a fraction of the initially
    /// violating registers.
    pub serves_per_sweep_frac: f32,
}

impl Default for UsefulSkewOpts {
    fn default() -> Self {
        Self {
            sweeps: 12,
            rate: 0.9,
            hold_floor: 2.0,
            launch_floor: 12.0,
            tolerance: 0.05,
            move_budget_frac: 0.7,
            serves_per_sweep_frac: 0.15,
        }
    }
}

/// Outcome of a useful-skew run.
#[derive(Clone, Debug)]
pub struct SkewOutcome {
    /// Sweeps actually executed (may stop early on convergence).
    pub sweeps: usize,
    /// Clock moves applied (shifts larger than the tolerance).
    pub moves: usize,
    /// Timing report after the final sweep (margins still applied).
    pub report: TimingReport,
}

/// Runs the useful-skew engine, mutating `clocks` in place and re-timing
/// through `timer`.
///
/// # Examples
/// ```
/// use rl_ccd_flow::{run_useful_skew, FlowRecipe, UsefulSkewOpts};
/// use rl_ccd_netlist::{generate, DesignSpec, TechNode};
/// use rl_ccd_sta::{Constraints, EndpointMargins, IncrementalTimer};
///
/// let d = generate(&DesignSpec::new("skew", 300, TechNode::N7, 1));
/// let cons = Constraints::with_period(d.period_ps);
/// let recipe = FlowRecipe::default();
/// let mut clocks = recipe.clock_schedule(&d.netlist, d.period_ps);
/// let margins = EndpointMargins::zero(&d.netlist);
/// let mut timer = IncrementalTimer::new(&d.netlist, &cons, &clocks, &margins);
/// let before = timer.report().clone();
/// let out = run_useful_skew(&d.netlist, &mut clocks, &mut timer, &UsefulSkewOpts::default());
/// assert!(out.report.tns() >= before.tns());
/// ```
///
/// Each sweep reads timing from `timer` (with the margins it holds), ranks
/// registers by the worse of their capture-side (D endpoint) and
/// launch-side (Q pin) margined slack, and serves the most critical ones: delaying the clock to erase a
/// capture violation (bounded by launch headroom, the hold floor, and the
/// skew bound) or advancing it to erase a launch violation (bounded by
/// capture headroom).
///
/// Margins reorder the queue (a margined endpoint sits at WNS, i.e. at the
/// very front) but do **not** add effort: margined serves consume the same
/// move budget as everything else, preserving the paper's apples-to-apples
/// property — prioritization redirects the engine, it never enlarges it.
/// The engine stops when the move budget is exhausted or a sweep applies
/// no move.
///
/// Each sweep's clock moves are applied to `clocks` and then synced to the
/// timer in one incremental propagation, so only the moved registers'
/// cones are re-timed. The timer must already reflect `clocks` and the
/// margins the caller wants applied; on return it reflects the final
/// schedule (the returned report is a clone of the timer's).
pub fn run_useful_skew(
    netlist: &Netlist,
    clocks: &mut ClockSchedule,
    timer: &mut IncrementalTimer,
    opts: &UsefulSkewOpts,
) -> SkewOutcome {
    let n_regs = netlist.flops().len();
    let mut sweeps = 0;
    let mut moves = 0usize;
    // Effort scales with the violation load the engine starts with.
    let initially_violating = (0..n_regs)
        .filter(|&r| {
            let d = timer
                .report()
                .endpoint_slack(timer.graph().endpoint_of_flop(r));
            let q = timer.report().cell_slack(netlist.flops()[r]);
            d.min(q) < -opts.tolerance
        })
        .count();
    let mut budget = ((initially_violating as f32 * opts.move_budget_frac).ceil() as usize).max(1);
    let serves_per_sweep =
        ((initially_violating as f32 * opts.serves_per_sweep_frac).ceil() as usize).max(1);
    for _ in 0..opts.sweeps {
        if budget == 0 {
            break;
        }
        sweeps += 1;
        // Rank: most critical (lowest margined slack on either side) first.
        let mut order: Vec<(usize, f32)> = (0..n_regs)
            .map(|r| {
                let d = timer
                    .report()
                    .endpoint_slack(timer.graph().endpoint_of_flop(r));
                let q = timer.report().cell_slack(netlist.flops()[r]);
                (r, d.min(q))
            })
            .filter(|&(_, key)| key < -opts.tolerance)
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));

        let mut sweep_moves = 0usize;
        let sweep_tns = timer.report().tns();
        let mut applied_moves: Vec<(usize, f32)> = Vec::new();
        for &(r, _) in order.iter() {
            // A serve slot is only consumed by an actual move; registers
            // clamped to no motion (no launch/hold headroom left, or already
            // balanced) are skipped so they cannot clog the queue.
            if budget == 0 || sweep_moves >= serves_per_sweep {
                break;
            }
            let ei = timer.graph().endpoint_of_flop(r);
            let d_slack = timer.report().endpoint_slack(ei);
            let q_slack = timer.report().cell_slack(netlist.flops()[r]);
            let hold_headroom = {
                let hold = timer.report().endpoint_hold_slack(ei);
                if hold.is_finite() {
                    (hold - opts.hold_floor).max(0.0)
                } else {
                    f32::INFINITY
                }
            };
            let delta = if d_slack < 0.0 && q_slack >= 0.0 {
                // Serve the capture side: delay the clock to lift the
                // (margined) violation to zero — never beyond — within
                // launch headroom and the hold floor.
                let want = (-d_slack)
                    .min((q_slack - opts.launch_floor).max(0.0))
                    .min(hold_headroom);
                opts.rate * want
            } else {
                // Advancing the clock erodes hold slack at the registers
                // this one launches into, 1:1 — bound by that headroom.
                let dn_hold = {
                    let h = timer.report().downstream_hold_slack(netlist.flops()[r]);
                    if h.is_finite() {
                        (h - opts.hold_floor).max(0.0)
                    } else {
                        f32::INFINITY
                    }
                };
                if q_slack < 0.0 && d_slack >= 0.0 {
                    // Serve the launch side: advance the clock, within
                    // capture headroom and the downstream hold headroom.
                    let want = (-q_slack).min(d_slack).min(dn_hold);
                    -opts.rate * want
                } else if d_slack < 0.0 && q_slack < 0.0 {
                    // Both sides violate: balance, shifting criticality
                    // toward the healthier side. The step is additionally
                    // capped at a fraction of the receiving side's violation
                    // — a sane engine never wrecks one critical side to
                    // serve the other, margins or not (this is what keeps a
                    // mis-prioritized chain endpoint wasteful rather than
                    // catastrophic).
                    let bal = 0.5 * (q_slack - d_slack);
                    if bal > 0.0 {
                        opts.rate * bal.min(hold_headroom).min(0.3 * -q_slack)
                    } else {
                        opts.rate * bal.max(-dn_hold).max(0.3 * d_slack)
                    }
                } else {
                    0.0
                }
            };
            let applied = clocks.adjust(r, delta);
            if applied.abs() > opts.tolerance {
                applied_moves.push((r, applied));
                sweep_moves += 1;
                budget -= 1;
            }
        }
        moves += sweep_moves;
        if sweep_moves == 0 {
            break;
        }
        // One incremental propagation re-times every moved register's cone
        // (replacing the full per-sweep `analyze` this engine used to run).
        timer.set_clocks_from(netlist, clocks);
        // Guard: a sweep must not regress the engine's own (margined)
        // objective. Per-serve deltas assume a 1:1 trade with a single
        // downstream cone; a register launching into several violating
        // cones loses k:1, and a sweep dominated by such serves ends worse
        // than it started. A sane engine never ships that — revert the
        // sweep and stop. (Margined arms judge margined TNS, so deliberate
        // over-fixing of true slack is unaffected.)
        if timer.report().tns() < sweep_tns - 1e-3 {
            for &(r, applied) in applied_moves.iter().rev() {
                clocks.adjust(r, -applied);
            }
            timer.set_clocks_from(netlist, clocks);
            moves -= sweep_moves;
            rl_ccd_obs::counter!("flow.useful_skew.reverted_sweeps", 1);
            break;
        }
    }
    rl_ccd_obs::counter!("flow.useful_skew.sweeps", sweeps);
    rl_ccd_obs::counter!("flow.useful_skew.moves", moves);
    SkewOutcome {
        sweeps,
        moves,
        report: timer.report().clone(),
    }
}

/// Builds a symmetric histogram of clock-arrival adjustments with
/// `2·half_buckets` buckets covering `[-bound, +bound]` (paper Fig. 5).
/// Returns `(bucket_edges, counts)` where `bucket_edges[i]..bucket_edges[i+1]`
/// bounds bucket `i`.
pub fn skew_histogram(clocks: &ClockSchedule, half_buckets: usize) -> (Vec<f32>, Vec<usize>) {
    let buckets = half_buckets * 2;
    let bound = clocks.bound().max(1e-6);
    let width = 2.0 * bound / buckets as f32;
    let edges: Vec<f32> = (0..=buckets).map(|i| -bound + i as f32 * width).collect();
    let mut counts = vec![0usize; buckets];
    for &s in clocks.skews() {
        let idx = (((s + bound) / width) as usize).min(buckets - 1);
        counts[idx] += 1;
    }
    (edges, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_ccd_netlist::{generate, DesignSpec, TechNode};
    use rl_ccd_sta::{analyze, Constraints, EndpointMargins, TimingGraph};

    fn setup(
        seed: u64,
    ) -> (
        rl_ccd_netlist::Netlist,
        TimingGraph,
        Constraints,
        ClockSchedule,
    ) {
        let d = generate(&DesignSpec::new("us", 800, TechNode::N7, seed));
        let graph = TimingGraph::new(&d.netlist);
        let cons = Constraints::with_period(d.period_ps);
        let clocks = ClockSchedule::balanced(&d.netlist, 80.0, 4.0, 0.15 * d.period_ps, 5);
        (d.netlist, graph, cons, clocks)
    }

    #[test]
    fn nan_margin_does_not_panic_the_skew_engine() {
        // Regression: the per-sweep criticality sort used
        // `partial_cmp().expect(...)`; a poisoned (NaN) margin must flow
        // through the timer and the ranking without a panic, and the NaN
        // register simply never gets served.
        let (nl, _, cons, mut clocks) = setup(23);
        let mut margins = EndpointMargins::zero(&nl);
        margins.set(0, f32::NAN);
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks, &margins);
        let out = run_useful_skew(&nl, &mut clocks, &mut timer, &UsefulSkewOpts::default());
        assert!(out.report.wns().is_finite());
        assert!(out.report.tns().is_finite());
        assert!(out.report.endpoint_slack(0).is_nan());
    }

    #[test]
    fn useful_skew_improves_tns() {
        let (nl, graph, cons, mut clocks) = setup(30);
        let margins = EndpointMargins::zero(&nl);
        let before = analyze(&nl, &graph, &cons, &clocks, &margins);
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks, &margins);
        let out = run_useful_skew(&nl, &mut clocks, &mut timer, &UsefulSkewOpts::default());
        assert!(
            out.report.tns() > before.tns(),
            "TNS should improve: {} -> {}",
            before.tns(),
            out.report.tns()
        );
        assert!(out.sweeps >= 1);
        assert!(out.moves >= 1);
        assert!(clocks.total_adjustment() > 0.0);
    }

    #[test]
    fn skews_respect_bound() {
        let (nl, _, cons, mut clocks) = setup(22);
        let margins = EndpointMargins::zero(&nl);
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks, &margins);
        run_useful_skew(&nl, &mut clocks, &mut timer, &UsefulSkewOpts::default());
        let bound = clocks.bound();
        for &s in clocks.skews() {
            assert!(s.abs() <= bound + 1e-4);
        }
    }

    #[test]
    fn move_budget_is_respected() {
        let (nl, _, cons, mut clocks) = setup(26);
        let margins = EndpointMargins::zero(&nl);
        let opts = UsefulSkewOpts {
            move_budget_frac: 0.1,
            ..UsefulSkewOpts::default()
        };
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks, &margins);
        let out = run_useful_skew(&nl, &mut clocks, &mut timer, &opts);
        // The budget basis is the violating-register count, which can never
        // exceed the register count.
        let cap = ((nl.flops().len() as f32 * 0.1).ceil() as usize).max(1);
        assert!(out.moves <= cap, "{} moves > cap {}", out.moves, cap);
    }

    #[test]
    fn no_hold_violations_created() {
        let (nl, graph, cons, mut clocks) = setup(23);
        let margins = EndpointMargins::zero(&nl);
        let before = analyze(&nl, &graph, &cons, &clocks, &margins);
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks, &margins);
        let out = run_useful_skew(&nl, &mut clocks, &mut timer, &UsefulSkewOpts::default());
        for i in 0..nl.endpoints().len() {
            let h = out.report.endpoint_hold_slack(i);
            if h.is_finite() && before.endpoint_hold_slack(i) > 0.0 {
                assert!(h > -1e-3, "endpoint {i} hold slack went negative: {h}");
            }
        }
    }

    #[test]
    fn engine_does_not_overfix_without_margins() {
        // Fix-to-zero: served endpoints end near or below zero slack, not
        // far above it (no wasted headroom).
        let (nl, graph, cons, mut clocks) = setup(27);
        let margins = EndpointMargins::zero(&nl);
        let before = analyze(&nl, &graph, &cons, &clocks, &margins);
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks, &margins);
        let out = run_useful_skew(&nl, &mut clocks, &mut timer, &UsefulSkewOpts::default());
        for (r, _) in nl.flops().iter().enumerate() {
            let ei = graph.endpoint_of_flop(r);
            if before.endpoint_slack(ei) < 0.0 && clocks.skew(r) > 0.0 {
                // Once positive, the engine had no reason to push further
                // than a single (damped) overshoot.
                assert!(
                    out.report.endpoint_slack(ei) < 0.25 * cons.period,
                    "endpoint {ei} absurdly over-fixed without margins"
                );
            }
        }
    }

    #[test]
    fn margins_redirect_skew_allocation() {
        // With a tight budget, margining an endpoint must pull service
        // toward its capture register.
        let (nl, graph, cons, clocks0) = setup(24);
        let zero = EndpointMargins::zero(&nl);
        let base_rep = analyze(&nl, &graph, &cons, &clocks0, &zero);
        let viol = base_rep.violating_endpoints();
        assert!(!viol.is_empty());
        // Pick the *least* critical violating register endpoint: under a
        // tight budget the plain engine likely never reaches it.
        let ei = *viol
            .iter()
            .rev()
            .find(|&&i| nl.endpoints()[i].is_register())
            .expect("violating register endpoint exists");
        let reg = nl
            .flop_index(nl.endpoints()[ei].cell())
            .expect("register index");
        let opts = UsefulSkewOpts {
            move_budget_frac: 0.15,
            serves_per_sweep_frac: 0.05,
            ..UsefulSkewOpts::default()
        };

        let mut clocks_plain = clocks0.clone();
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks_plain, &zero);
        run_useful_skew(&nl, &mut clocks_plain, &mut timer, &opts);

        let mut margined = EndpointMargins::zero(&nl);
        margined.set(ei, base_rep.endpoint_slack(ei) - base_rep.wns());
        let mut clocks_m = clocks0.clone();
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks_m, &margined);
        run_useful_skew(&nl, &mut clocks_m, &mut timer, &opts);
        assert!(
            clocks_m.skew(reg) > clocks_plain.skew(reg) - 1e-3,
            "margin should pull the capture clock later: {} vs {}",
            clocks_m.skew(reg),
            clocks_plain.skew(reg)
        );
        assert!(
            clocks_m.skew(reg) > 0.0,
            "margined register should be served"
        );
    }

    #[test]
    fn histogram_covers_all_registers() {
        let (nl, _, cons, mut clocks) = setup(25);
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks, &EndpointMargins::zero(&nl));
        run_useful_skew(&nl, &mut clocks, &mut timer, &UsefulSkewOpts::default());
        let (edges, counts) = skew_histogram(&clocks, 8);
        assert_eq!(edges.len(), 17);
        assert_eq!(counts.len(), 16);
        assert_eq!(counts.iter().sum::<usize>(), nl.flops().len());
    }
}
