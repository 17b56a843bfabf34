//! Parity property test for the incremental timer: after an arbitrary
//! interleaving of clock moves, margin edits, and cell touches (resizes
//! and pin swaps), the timer's report must match a from-scratch
//! [`analyze`] on the mutated design bit for bit. Only TNS, which the
//! timer keeps by per-endpoint deltas, is compared within a relative
//! tolerance.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_ccd_netlist::{generate, CellId, DesignSpec, Netlist, TechNode};
use rl_ccd_sta::{
    analyze, ClockSchedule, Constraints, EndpointMargins, IncrementalTimer, TimingGraph,
    TimingReport,
};

/// The same bits (so `-0.0 != 0.0`, and two equal infinities agree).
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits()
}

fn assert_parity(
    netlist: &Netlist,
    constraints: &Constraints,
    clocks: &ClockSchedule,
    margins: &EndpointMargins,
    timer: &IncrementalTimer,
    step: usize,
) {
    let graph = TimingGraph::new(netlist);
    let full: TimingReport = analyze(netlist, &graph, constraints, clocks, margins);
    let inc = timer.report();
    assert_eq!(inc.nve(), full.nve(), "nve diverged at step {step}");
    assert!(
        same(inc.wns(), full.wns()),
        "wns diverged at step {step}: {} vs {}",
        inc.wns(),
        full.wns()
    );
    // TNS is an f64 accumulation; incremental updates sum in a different
    // order than the full pass, so allow a small relative slop on top.
    let tns_tol = 1e-3_f64.max(1e-6 * full.tns().abs());
    assert!(
        (inc.tns() - full.tns()).abs() < tns_tol,
        "tns diverged at step {step}: {} vs {}",
        inc.tns(),
        full.tns()
    );
    for ei in 0..netlist.endpoints().len() {
        assert!(
            same(inc.endpoint_slack(ei), full.endpoint_slack(ei)),
            "endpoint {ei} slack diverged at step {step}: {} vs {}",
            inc.endpoint_slack(ei),
            full.endpoint_slack(ei)
        );
        assert!(
            same(inc.endpoint_arrival(ei), full.endpoint_arrival(ei)),
            "endpoint {ei} arrival diverged at step {step}"
        );
        assert!(
            same(inc.endpoint_hold_slack(ei), full.endpoint_hold_slack(ei)),
            "endpoint {ei} hold diverged at step {step}"
        );
    }
    for c in netlist.cell_ids() {
        assert!(
            same(inc.out_arrival(c), full.out_arrival(c)),
            "cell {c:?} arrival diverged at step {step}: {} vs {}",
            inc.out_arrival(c),
            full.out_arrival(c)
        );
        assert!(
            same(inc.out_slew(c), full.out_slew(c)),
            "cell {c:?} slew diverged at step {step}"
        );
        assert!(
            same(inc.cell_slack(c), full.cell_slack(c)),
            "cell {c:?} slack diverged at step {step}: {} vs {}",
            inc.cell_slack(c),
            full.cell_slack(c)
        );
        assert!(
            same(inc.downstream_hold_slack(c), full.downstream_hold_slack(c)),
            "cell {c:?} downstream hold diverged at step {step}"
        );
        assert!(
            same(inc.worst_in_slew(c), full.worst_in_slew(c)),
            "cell {c:?} worst input slew diverged at step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_mutation_sequences_keep_parity_with_full_analyze(seed in 0u64..256) {
        let d = generate(&DesignSpec::new("inc-prop", 400, TechNode::N7, seed));
        let mut netlist = d.netlist;
        let constraints = Constraints::with_period(d.period_ps);
        let mut clocks =
            ClockSchedule::balanced(&netlist, 0.1 * d.period_ps, 2.0, d.period_ps, seed);
        let mut margins = EndpointMargins::zero(&netlist);
        let mut timer = IncrementalTimer::new(&netlist, &constraints, &clocks, &margins);

        let comb: Vec<CellId> = netlist
            .cell_ids()
            .filter(|&c| netlist.kind(c).is_combinational())
            .collect();
        let n_regs = netlist.flops().len();
        let n_eps = netlist.endpoints().len();
        prop_assume!(n_regs > 0 && n_eps > 0 && !comb.is_empty());

        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        const STEPS: usize = 120;
        for step in 0..STEPS {
            match rng.gen_range(0..4u32) {
                0 => {
                    // Clock move: adjust (clamped by the schedule), then
                    // hand the timer the absolute arrival it landed on.
                    let r = rng.gen_range(0..n_regs);
                    let delta = rng.gen_range(-30.0f32..30.0);
                    clocks.adjust(r, delta);
                    timer.set_clock_arrival(&netlist, r, clocks.arrival(r));
                }
                1 => {
                    let ei = rng.gen_range(0..n_eps);
                    let m = rng.gen_range(0.0f32..80.0);
                    margins.set(ei, m);
                    timer.set_margin(&netlist, ei, m);
                }
                2 => {
                    // Resize a combinational cell (up if possible, else
                    // down), then touch it.
                    let c = comb[rng.gen_range(0..comb.len())];
                    let lc = netlist.cell(c).lib;
                    let next = netlist
                        .library()
                        .upsize(lc)
                        .or_else(|| netlist.library().downsize(lc));
                    if let Some(next) = next {
                        netlist.resize(c, next);
                        timer.touch_cell(&netlist, c);
                    }
                }
                _ => {
                    // Pin swap on a multi-input cell, then touch it.
                    let c = comb[rng.gen_range(0..comb.len())];
                    let n_in = netlist.cell(c).inputs.len();
                    if n_in >= 2 {
                        let pin = rng.gen_range(1..n_in);
                        netlist.swap_pins(c, 0, pin as u8);
                        timer.touch_cell(&netlist, c);
                    }
                }
            }
            if step % 40 == 39 {
                assert_parity(&netlist, &constraints, &clocks, &margins, &timer, step);
            }
        }
        assert_parity(&netlist, &constraints, &clocks, &margins, &timer, STEPS);
        // The whole sequence must have stayed incremental: construction is
        // the only full pass.
        prop_assert_eq!(timer.stats().full_passes, 1);
    }
}
