//! The data-path optimization engine: gate sizing, buffer insertion, and
//! pin-swap restructuring under a shared effort budget, plus the power
//! recovery pass that downsizes comfortable cells.
//!
//! The budget is the flow-wise coupling the paper exploits: endpoints that
//! useful skew already over-fixed drop out of the violation list, so their
//! share of the budget flows to the endpoints that genuinely need logic
//! fixes.

use rl_ccd_netlist::{CellId, Netlist};
use rl_ccd_sta::{worst_path, IncrementalTimer, TimingReport};

/// Tuning knobs of the data-path optimizer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatapathOpts {
    /// Optimization passes; each re-runs STA and walks the violation list.
    pub passes: usize,
    /// Total operation budget per pass (shared across endpoints).
    pub ops_per_pass: usize,
    /// Additional per-pass budget per 1000 cells (commercial tools scale
    /// effort with design size). Zero = purely absolute budget.
    pub ops_per_kcell: f32,
    /// Maximum operations spent on a single endpoint per pass.
    pub ops_per_endpoint: usize,
    /// Minimum driver→sink segment length (µm) that justifies a buffer.
    pub buffer_min_len: f32,
    /// Minimum estimated gain (ps) for an upsize to be applied.
    pub min_gain: f32,
}

impl Default for DatapathOpts {
    fn default() -> Self {
        Self {
            passes: 3,
            ops_per_pass: 400,
            ops_per_kcell: 0.0,
            ops_per_endpoint: 6,
            buffer_min_len: 30.0,
            min_gain: 0.5,
        }
    }
}

impl DatapathOpts {
    /// The effective per-pass budget for a design with `cells` cells.
    pub fn pass_budget(&self, cells: usize) -> usize {
        self.ops_per_pass + (self.ops_per_kcell * cells as f32 / 1000.0) as usize
    }
}

/// Counts of applied data-path operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Gates replaced by a stronger drive.
    pub upsizes: usize,
    /// Gates replaced by a weaker drive (power recovery).
    pub downsizes: usize,
    /// Input pins swapped (late signal moved to the fast pin).
    pub pin_swaps: usize,
    /// Buffers inserted on long segments.
    pub buffers: usize,
    /// Inverters absorbed into their NAND/NOR drivers (restructuring).
    pub restructures: usize,
}

impl OpStats {
    /// Total operations applied.
    pub fn total(&self) -> usize {
        self.upsizes + self.downsizes + self.pin_swaps + self.buffers + self.restructures
    }
}

/// Attempts one improvement on `cell` (a combinational cell on a violating
/// path). Returns `true` if an operation was applied. `dirty` is set when
/// the netlist gained cells (graph rebuild needed); cells changed in place
/// are appended to `touched` so the caller can re-time them incrementally.
fn try_improve_cell(
    netlist: &mut Netlist,
    report: &TimingReport,
    cell: CellId,
    opts: &DatapathOpts,
    stats: &mut OpStats,
    dirty: &mut bool,
    touched: &mut Vec<CellId>,
) -> bool {
    let n_inputs = netlist.cell(cell).inputs.len();

    // --- Pin swap: move the latest-arriving input to pin 0 (fast pin). ---
    if n_inputs > 1 {
        let arrivals: Vec<f32> = netlist
            .cell(cell)
            .inputs
            .iter()
            .map(|&net| report.out_arrival(netlist.net(net).driver))
            .collect();
        let worst_pin = (0..n_inputs)
            .max_by(|&a, &b| arrivals[a].total_cmp(&arrivals[b]))
            .expect("has inputs");
        if worst_pin != 0 && arrivals[worst_pin] > arrivals[0] + 1e-3 {
            netlist.swap_pins(cell, 0, worst_pin as u8);
            stats.pin_swaps += 1;
            touched.push(cell);
            return true;
        }
    }

    // --- Restructure: absorb a critical single-load inverter into its
    // NAND2/NOR2 driver (NAND+INV ≡ AND, NOR+INV ≡ OR), removing one logic
    // level. The bypassed inverter stays as an unswept dead cell — its
    // input capacitance remains on the driver net, like a real pre-cleanup
    // netlist state.
    if netlist.kind(cell) == rl_ccd_netlist::GateKind::Inv {
        let in_net = netlist.cell(cell).inputs[0];
        let drv = netlist.net(in_net).driver;
        let single_load = netlist.net(in_net).sinks.len() == 1;
        let absorbed = match netlist.kind(drv) {
            rl_ccd_netlist::GateKind::Nand2 => Some(rl_ccd_netlist::GateKind::And2),
            rl_ccd_netlist::GateKind::Nor2 => Some(rl_ccd_netlist::GateKind::Or2),
            _ => None,
        };
        if single_load {
            if let Some(new_kind) = absorbed {
                let drive = netlist.library().cell(netlist.cell(drv).lib).drive;
                let new_lib = netlist.library().variant(new_kind, drive);
                netlist.remap(drv, new_lib);
                let inv_out = netlist.cell(cell).output.expect("inverter drives");
                netlist.transfer_sinks(inv_out, in_net);
                stats.restructures += 1;
                touched.push(drv);
                touched.push(cell);
                return true;
            }
        }
    }

    // --- Upsize: worth it when resistance·load dominates the cap penalty. --
    let upsize_to = {
        let lib = netlist.library();
        let lc_id = netlist.cell(cell).lib;
        lib.upsize(lc_id).and_then(|bigger| {
            let out_net = netlist.cell(cell).output.expect("comb cell drives");
            let load = netlist.net_load(out_net);
            let old = lib.cell(lc_id);
            let new = lib.cell(bigger);
            // Gain at this cell minus the extra input capacitance pushed
            // onto *every* input driver. Any driver may carry the critical
            // path, and when several pins share one net (a register launch
            // net feeding many side pins is common) the per-pin penalties
            // on that driver genuinely add up — counting only the
            // worst-arrival driver lets a sweep of individually-"improving"
            // upsizes overload a shared launch net and regress TNS.
            let upstream_penalty: f32 = netlist
                .cell(cell)
                .inputs
                .iter()
                .map(|&net| {
                    let d = netlist.net(net).driver;
                    lib.cell(netlist.cell(d).lib).resistance * (new.input_cap - old.input_cap)
                })
                .sum();
            let gain = (old.resistance - new.resistance) * load - upstream_penalty
                + (old.intrinsic - new.intrinsic);
            (gain > opts.min_gain).then_some(bigger)
        })
    };
    if let Some(bigger) = upsize_to {
        netlist.resize(cell, bigger);
        stats.upsizes += 1;
        touched.push(cell);
        return true;
    }

    // --- Buffer the longest input segment, if splitting it actually wins. -
    // Wire delay is quadratic in length, so halving a long segment helps —
    // but the buffer adds its own intrinsic + drive delay and swaps the
    // sink's pin cap for its own on the driver net. Inserting without this
    // check turns marginal (≈`buffer_min_len`) segments into net losses.
    let mut best: Option<(usize, f32)> = None;
    for (pin, &net) in netlist.cell(cell).inputs.iter().enumerate() {
        let len = netlist.segment_length(net, cell);
        if len >= opts.buffer_min_len && best.map(|(_, l)| len > l).unwrap_or(true) {
            best = Some((pin, len));
        }
    }
    if let Some((pin, len)) = best {
        let net = netlist.cell(cell).inputs[pin];
        let drv = netlist.net(net).driver;
        let lib = netlist.library();
        let buf_lib = lib.variant(rl_ccd_netlist::GateKind::Buf, rl_ccd_netlist::Drive::X4);
        let buf = lib.cell(buf_lib);
        let sink_cap = lib.cell(netlist.cell(cell).lib).input_cap;
        let wire = lib.wire();
        let half = 0.5 * len;
        let old_delay = wire.delay(len, sink_cap);
        let new_delay = wire.delay(half, buf.input_cap)
            + buf.intrinsic
            + buf.resistance * (wire.cap(half) + sink_cap)
            + wire.delay(half, sink_cap);
        let driver_delta = lib.cell(netlist.cell(drv).lib).resistance * (buf.input_cap - sink_cap);
        if old_delay - new_delay - driver_delta > opts.min_gain {
            let mid = netlist.cell(drv).loc.midpoint(netlist.cell(cell).loc);
            netlist.insert_buffer(net, &[(cell, pin as u8)], buf_lib, mid);
            stats.buffers += 1;
            *dirty = true;
            return true;
        }
    }
    false
}

/// Runs the budgeted data-path optimizer.
///
/// Each pass reads timing from `timer`, walks violating endpoints
/// worst-first, and applies up to `ops_per_endpoint` improving operations
/// along each endpoint's worst path until the pass budget runs out.
/// In-place operations (sizing, pin swaps, restructures) are re-timed per
/// pass via `touch_cells`; only buffer insertion — which adds cells —
/// falls back to the timer's `full_recompute` escape hatch. The timer must
/// already reflect the netlist and the clocks/margins the caller wants
/// applied; on return it reflects the optimized netlist. Returns the
/// operation counts and the final timing report.
pub fn optimize_datapath(
    netlist: &mut Netlist,
    timer: &mut IncrementalTimer,
    opts: &DatapathOpts,
) -> (OpStats, TimingReport) {
    let mut stats = OpStats::default();
    for _ in 0..opts.passes {
        // The whole pass works from a snapshot of timing at pass start
        // (matching the previous per-pass `analyze` semantics); edits are
        // synced to the timer in one batch at pass end.
        let report = timer.report().clone();
        if report.nve() == 0 {
            break;
        }
        let pass_budget = opts.pass_budget(netlist.cell_count());
        let mut budget = pass_budget;
        let mut dirty = false;
        let mut touched: Vec<CellId> = Vec::new();
        for ei in report.violating_endpoints() {
            if budget == 0 {
                break;
            }
            let path = worst_path(netlist, &report, ei);
            let mut spent = 0usize;
            // Walk from the endpoint backwards: fixes near the endpoint act
            // on the largest load accumulation first.
            for hop in path.iter().rev() {
                if spent >= opts.ops_per_endpoint || budget == 0 {
                    break;
                }
                if !netlist.kind(hop.cell).is_combinational() {
                    continue;
                }
                if try_improve_cell(
                    netlist,
                    &report,
                    hop.cell,
                    opts,
                    &mut stats,
                    &mut dirty,
                    &mut touched,
                ) {
                    spent += 1;
                    budget -= 1;
                }
            }
        }
        if dirty {
            timer.full_recompute(netlist);
        } else if !touched.is_empty() {
            timer.touch_cells(netlist, &touched);
        }
        if budget == pass_budget {
            break; // nothing applied; further passes are no-ops
        }
    }
    rl_ccd_obs::with_recorder(|r| {
        let m = r.metrics();
        m.counter("flow.datapath.upsizes").add(stats.upsizes as u64);
        m.counter("flow.datapath.pin_swaps")
            .add(stats.pin_swaps as u64);
        m.counter("flow.datapath.buffers").add(stats.buffers as u64);
        m.counter("flow.datapath.restructures")
            .add(stats.restructures as u64);
    });
    (stats, timer.report().clone())
}

/// Power recovery: downsizes combinational cells whose worst-path slack
/// in `timer`'s current report exceeds `slack_floor` ps, as long as the
/// estimated delay increase fits in half the available slack. The applied
/// downsizes are re-timed in one incremental batch. Returns the number of
/// downsizes applied and the final report.
pub fn recover_power(
    netlist: &mut Netlist,
    timer: &mut IncrementalTimer,
    slack_floor: f32,
) -> (usize, TimingReport) {
    let report = timer.report().clone();
    let mut applied = 0usize;
    let lib = netlist.library().clone();
    let candidates: Vec<CellId> = netlist
        .cell_ids()
        .filter(|&c| netlist.kind(c).is_combinational())
        .filter(|&c| {
            let s = report.cell_slack(c);
            s.is_finite() && s > slack_floor
        })
        .collect();
    let mut touched: Vec<CellId> = Vec::new();
    for cell in candidates {
        let lc_id = netlist.cell(cell).lib;
        if let Some(smaller) = lib.downsize(lc_id) {
            let out_net = netlist.cell(cell).output.expect("comb drives");
            let load = netlist.net_load(out_net);
            let old = lib.cell(lc_id);
            let new = lib.cell(smaller);
            let delay_increase =
                (new.resistance - old.resistance) * load + (new.intrinsic - old.intrinsic);
            if delay_increase < 0.5 * (report.cell_slack(cell) - slack_floor) {
                netlist.resize(cell, smaller);
                touched.push(cell);
                applied += 1;
            }
        }
    }
    if !touched.is_empty() {
        timer.touch_cells(netlist, &touched);
    }
    rl_ccd_obs::counter!("flow.power.downsizes", applied);
    (applied, timer.report().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_ccd_netlist::{analyze_power, generate, DesignSpec, TechNode};
    use rl_ccd_sta::{analyze, ClockSchedule, Constraints, EndpointMargins, TimingGraph};

    fn setup(
        seed: u64,
    ) -> (
        rl_ccd_netlist::Netlist,
        TimingGraph,
        Constraints,
        ClockSchedule,
    ) {
        let d = generate(&DesignSpec::new("dp", 800, TechNode::N7, seed));
        let graph = TimingGraph::new(&d.netlist);
        let cons = Constraints::with_period(d.period_ps);
        let clocks = ClockSchedule::balanced(&d.netlist, 80.0, 4.0, 0.15 * d.period_ps, 5);
        (d.netlist, graph, cons, clocks)
    }

    #[test]
    fn datapath_improves_tns() {
        let (mut nl, graph, cons, clocks) = setup(31);
        let margins = EndpointMargins::zero(&nl);
        let before = analyze(&nl, &graph, &cons, &clocks, &margins);
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks, &margins);
        let (stats, after) = optimize_datapath(&mut nl, &mut timer, &DatapathOpts::default());
        assert!(stats.total() > 0, "optimizer should act: {stats:?}");
        assert!(
            after.tns() > before.tns(),
            "TNS should improve: {} -> {}",
            before.tns(),
            after.tns()
        );
        assert!(nl.check().is_empty(), "{:?}", nl.check());
    }

    #[test]
    fn budget_limits_work() {
        let (mut nl, _, cons, clocks) = setup(32);
        let margins = EndpointMargins::zero(&nl);
        let tight = DatapathOpts {
            passes: 1,
            ops_per_pass: 5,
            ..DatapathOpts::default()
        };
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks, &margins);
        let (stats, _) = optimize_datapath(&mut nl, &mut timer, &tight);
        assert!(stats.total() <= 5, "budget exceeded: {stats:?}");
    }

    #[test]
    fn power_recovery_reduces_power_without_breaking_timing() {
        let (mut nl, _, cons, clocks) = setup(33);
        let margins = EndpointMargins::zero(&nl);
        // First fix timing a bit so there is slack to recover.
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks, &margins);
        optimize_datapath(&mut nl, &mut timer, &DatapathOpts::default());
        let before_power = analyze_power(&nl, cons.period, 1).total();
        let before = analyze(&nl, timer.graph(), &cons, &clocks, &margins);
        let (applied, after) = recover_power(&mut nl, &mut timer, 40.0);
        assert!(applied > 0, "some cells should downsize");
        let after_power = analyze_power(&nl, cons.period, 1).total();
        assert!(after_power < before_power, "power should drop");
        // TNS does not get dramatically worse.
        assert!(
            after.tns() >= before.tns() * 1.2 - 1.0,
            "{} vs {}",
            after.tns(),
            before.tns()
        );
        assert!(nl.check().is_empty());
    }

    #[test]
    fn restructure_absorbs_inverter_and_shortens_path() {
        use rl_ccd_netlist::{Drive, GateKind, Library, NetlistBuilder, Point};
        // pi -> NAND2 -> INV -> flop, second NAND input from the flop.
        let mut b = NetlistBuilder::new("restruct", Library::new(rl_ccd_netlist::TechNode::N7));
        let pi = b.input(Point::new(0.0, 0.0));
        let nand = b.gate(GateKind::Nand2, Drive::X1, Point::new(10.0, 0.0));
        let inv = b.gate(GateKind::Inv, Drive::X1, Point::new(20.0, 0.0));
        let f = b.flop(Drive::X1, Point::new(30.0, 0.0));
        b.drive(pi, nand);
        b.drive(f, nand);
        b.drive(nand, inv);
        b.drive(inv, f);
        let mut nl = b.finish().expect("valid");
        let graph = TimingGraph::new(&nl);
        // A period tight enough that the single endpoint violates.
        let cons = Constraints::with_period(30.0);
        let clocks = rl_ccd_sta::ClockSchedule::balanced(&nl, 0.0, 0.0, 0.0, 1);
        let margins = EndpointMargins::zero(&nl);
        let before = analyze(&nl, &graph, &cons, &clocks, &margins);
        let mut timer = IncrementalTimer::new(&nl, &cons, &clocks, &margins);
        let (stats, after) = optimize_datapath(
            &mut nl,
            &mut timer,
            &DatapathOpts {
                passes: 1,
                ops_per_pass: 4,
                buffer_min_len: 1e9, // disable buffering for a clean check
                ..DatapathOpts::default()
            },
        );
        assert!(
            stats.restructures >= 1,
            "inverter should be absorbed: {stats:?}"
        );
        // The NAND became an AND and the flop now hangs off its net.
        let and_cell = nl
            .cell_ids()
            .find(|&c| nl.kind(c) == GateKind::And2)
            .expect("remapped to AND2");
        let and_net = nl.cell(and_cell).output.expect("drives");
        assert!(nl
            .net(and_net)
            .sinks
            .iter()
            .any(|&(c, _)| nl.kind(c) == GateKind::Dff));
        // One level shorter → endpoint slack improves.
        assert!(after.endpoint_slack(0) > before.endpoint_slack(0));
        assert!(nl.check().is_empty());
    }

    #[test]
    fn op_stats_total_sums_fields() {
        let s = OpStats {
            upsizes: 1,
            downsizes: 2,
            pin_swaps: 3,
            buffers: 4,
            restructures: 5,
        };
        assert_eq!(s.total(), 15);
    }
}
