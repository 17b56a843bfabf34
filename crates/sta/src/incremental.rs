//! Incremental static timing analysis.
//!
//! [`analyze`](crate::analyze) recomputes the whole design on every call,
//! which makes the useful-skew sweep and the datapath sizing loop quadratic:
//! each candidate move re-times every cell even though a single clock edit
//! only disturbs the fanout cone of one register. [`IncrementalTimer`] owns
//! the same arrays a [`TimingReport`] holds and exposes three mutators —
//! [`set_clock_arrival`](IncrementalTimer::set_clock_arrival),
//! [`set_margin`](IncrementalTimer::set_margin), and
//! [`touch_cell`](IncrementalTimer::touch_cell) — that push the affected
//! cells onto levelized worklists and re-propagate only the dirty region:
//! arrivals and slews forward through the fanout cone, required times and
//! hold headroom backward through the fan-in frontier. WNS/TNS/NVE are
//! maintained from per-endpoint slack deltas (with a lazy worst-slack
//! rescan), so after every edit the embedded report is equal to what a
//! fresh full [`analyze`](crate::analyze) would produce.
//!
//! A full pass — construction and
//! [`full_recompute`](IncrementalTimer::full_recompute) — *is* the pass
//! behind [`analyze`](crate::analyze), so it agrees by construction. The
//! per-cell re-timing after an edit repeats that pass's expressions in the
//! same reduction order, so converged values are bit-identical, not
//! merely close; the parity property test in `crates/sta/tests` compares
//! them by bits over random edit sequences (TNS, kept by deltas, within a
//! relative tolerance). The timer owns the design's [`TimingGraph`]
//! ([`graph`](IncrementalTimer::graph)). Structural netlist changes
//! (buffer insertion, placement legalization) invalidate it and the load
//! model — callers handle those through the `full_recompute` escape
//! hatch, which rebuilds the graph, and the timer also re-times from
//! scratch on its own whenever it observes that the cell count changed
//! under it.

use crate::analysis::{full_pass, FullPass};
use crate::clock::ClockSchedule;
use crate::constraints::{Constraints, EndpointMargins};
use crate::delay::{cell_delay, edge_timing, output_slew};
use crate::{TimingGraph, TimingReport};
use rl_ccd_netlist::{CellId, Endpoint, GateKind, Netlist};

/// Counters describing how much work the timer has done; useful for
/// benchmarks and for asserting that the incremental path is exercised.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimerStats {
    /// Number of full (non-incremental) propagation passes.
    pub full_passes: u64,
    /// Number of incremental edits applied (clock moves, margin edits,
    /// cell touches).
    pub edits: u64,
    /// Cells re-timed by the forward pass across all incremental edits.
    pub cells_retimed: u64,
}

/// An incrementally-maintained timing view of one netlist.
///
/// Create with [`IncrementalTimer::new`] (runs one full pass), then apply
/// edits through the mutators. [`report`](IncrementalTimer::report) is
/// always consistent with the edits applied so far.
#[derive(Clone, Debug)]
pub struct IncrementalTimer {
    // --- structure (rebuilt by full_recompute) ---
    graph: TimingGraph,
    /// Forward level per cell: sources 0, combinational cells
    /// `1 + max(level of input drivers)`.
    level: Vec<u32>,
    /// Endpoint index per cell (`u32::MAX` when the cell is no endpoint).
    endpoint_of_cell: Vec<u32>,
    /// Whether the cell has an output pin (false only for output ports).
    has_output: Vec<bool>,

    // --- constraint state owned by the timer ---
    constraints: Constraints,
    clock_arrival: Vec<f32>,
    margins: Vec<f32>,

    // --- caches mirroring the full pass ---
    load: Vec<f32>,
    out_arrival_min: Vec<f32>,
    endpoint_required: Vec<f32>,
    required_out: Vec<f32>,
    report: TimingReport,

    // --- worklists (persistent scratch, level-indexed) ---
    fwd_buckets: Vec<Vec<u32>>,
    bwd_buckets: Vec<Vec<u32>>,
    fwd_in: Vec<bool>,
    bwd_in: Vec<bool>,
    ep_dirty: Vec<bool>,
    ep_list: Vec<u32>,
    wns_stale: bool,

    stats: TimerStats,
}

impl IncrementalTimer {
    /// Builds a timer and runs one full propagation so the embedded report
    /// matches `analyze(netlist, …)` for the given constraint state.
    pub fn new(
        netlist: &Netlist,
        constraints: &Constraints,
        clocks: &ClockSchedule,
        margins: &EndpointMargins,
    ) -> Self {
        let mut timer = Self {
            graph: TimingGraph::new(netlist),
            level: Vec::new(),
            endpoint_of_cell: Vec::new(),
            has_output: Vec::new(),
            constraints: *constraints,
            clock_arrival: (0..netlist.flops().len())
                .map(|r| clocks.arrival(r))
                .collect(),
            margins: (0..netlist.endpoints().len())
                .map(|ei| margins.get(ei))
                .collect(),
            load: Vec::new(),
            out_arrival_min: Vec::new(),
            endpoint_required: Vec::new(),
            required_out: Vec::new(),
            report: TimingReport::default(),
            fwd_buckets: Vec::new(),
            bwd_buckets: Vec::new(),
            fwd_in: Vec::new(),
            bwd_in: Vec::new(),
            ep_dirty: Vec::new(),
            ep_list: Vec::new(),
            wns_stale: false,
            stats: TimerStats::default(),
        };
        timer.retime_all(netlist);
        timer
    }

    /// The timing topology of the netlist as of the last full pass.
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// The timing report reflecting every edit applied so far.
    pub fn report(&self) -> &TimingReport {
        &self.report
    }

    /// The clock arrival the timer currently assumes for register `r`.
    pub fn clock_arrival(&self, r: usize) -> f32 {
        self.clock_arrival[r]
    }

    /// The margin the timer currently assumes for endpoint `ei`.
    pub fn margin(&self, ei: usize) -> f32 {
        self.margins[ei]
    }

    /// Work counters (full passes, edits, cells re-timed).
    pub fn stats(&self) -> TimerStats {
        self.stats
    }

    /// Sets register `r`'s clock arrival to `t` (absolute, ps) and
    /// re-times the affected cone.
    pub fn set_clock_arrival(&mut self, netlist: &Netlist, r: usize, t: f32) {
        self.clock_arrival[r] = t;
        if self.structure_stale(netlist) {
            self.full_recompute(netlist);
            return;
        }
        // Q-side launch arrival changes (forward cone) and the D-side
        // capture check changes (required + hold) — mark_fwd on a register
        // covers both because registers are endpoints too.
        self.mark_fwd(netlist.flops()[r]);
        self.propagate(netlist);
    }

    /// Sets endpoint `ei`'s required-time margin to `m` and re-times the
    /// affected fan-in frontier.
    pub fn set_margin(&mut self, netlist: &Netlist, ei: usize, m: f32) {
        self.margins[ei] = m;
        if self.structure_stale(netlist) {
            self.full_recompute(netlist);
            return;
        }
        self.mark_ep(ei);
        self.propagate(netlist);
    }

    /// Copies every margin from `margins`, re-timing only endpoints whose
    /// value actually changed.
    pub fn set_margins_from(&mut self, netlist: &Netlist, margins: &EndpointMargins) {
        if self.structure_stale(netlist) {
            for ei in 0..self.margins.len() {
                self.margins[ei] = margins.get(ei);
            }
            self.full_recompute(netlist);
            return;
        }
        for ei in 0..self.margins.len() {
            let m = margins.get(ei);
            if m != self.margins[ei] {
                self.margins[ei] = m;
                self.mark_ep(ei);
            }
        }
        self.propagate(netlist);
    }

    /// Copies every clock arrival from `clocks`, re-timing only registers
    /// whose arrival actually changed.
    pub fn set_clocks_from(&mut self, netlist: &Netlist, clocks: &ClockSchedule) {
        if self.structure_stale(netlist) {
            for r in 0..self.clock_arrival.len() {
                self.clock_arrival[r] = clocks.arrival(r);
            }
            self.full_recompute(netlist);
            return;
        }
        for r in 0..self.clock_arrival.len() {
            let t = clocks.arrival(r);
            if t != self.clock_arrival[r] {
                self.clock_arrival[r] = t;
                self.mark_fwd(netlist.flops()[r]);
            }
        }
        self.propagate(netlist);
    }

    /// Re-times around cell `c` after an in-place change (resize, pin swap,
    /// local rewire): refreshes the loads of its adjacent nets and marks
    /// the local frontier dirty. Structural changes that *add* cells
    /// (buffer insertion) or move many cells (legalization) need
    /// [`full_recompute`](Self::full_recompute) instead; if the cell count
    /// changed, this method falls back to a full pass on its own.
    pub fn touch_cell(&mut self, netlist: &Netlist, c: CellId) {
        if self.structure_stale(netlist) {
            self.full_recompute(netlist);
            return;
        }
        self.mark_touched(netlist, c);
        self.propagate(netlist);
    }

    /// Applies several cell touches as one propagation (cheaper than
    /// calling [`touch_cell`](Self::touch_cell) per cell when a pass edits
    /// a batch before needing fresh timing).
    pub fn touch_cells(&mut self, netlist: &Netlist, cells: &[CellId]) {
        if self.structure_stale(netlist) {
            self.full_recompute(netlist);
            return;
        }
        for &c in cells {
            self.mark_touched(netlist, c);
        }
        self.propagate(netlist);
    }

    /// Marks the dirty frontier around an in-place cell change: refreshed
    /// loads for every adjacent net, forward marks for the cell, its input
    /// drivers, and its output sinks, and backward marks for the input
    /// drivers (a pin swap changes a driver's required time even when no
    /// forward value moves).
    fn mark_touched(&mut self, netlist: &Netlist, c: CellId) {
        let cell = netlist.cell(c);
        if let Some(net) = cell.output {
            self.load[c.index()] = netlist.net_load(net);
            for si in 0..netlist.net(net).sinks.len() {
                let (s, _) = netlist.net(net).sinks[si];
                self.mark_fwd(s);
            }
        }
        self.mark_fwd(c);
        self.mark_bwd(c);
        for ni in 0..cell.inputs.len() {
            let net = netlist.cell(c).inputs[ni];
            let drv = netlist.net(net).driver;
            self.load[drv.index()] = netlist.net_load(net);
            self.mark_fwd(drv);
            self.mark_bwd(drv);
        }
    }

    /// Escape hatch: rebuilds the timing graph and load caches and
    /// re-times the whole design from scratch. Required after netlist
    /// mutations the incremental model cannot see — buffer insertion (new
    /// cells) and placement legalization (every wire length changes).
    pub fn full_recompute(&mut self, netlist: &Netlist) {
        self.graph = TimingGraph::new(netlist);
        self.retime_all(netlist);
    }

    /// Re-indexes levels and endpoints over `self.graph` and runs the full
    /// pass with the timer's own clock arrivals and margins.
    fn retime_all(&mut self, netlist: &Netlist) {
        self.stats.full_passes += 1;
        rl_ccd_obs::counter!("sta.incremental.full_recomputes", 1);
        let _obs_span = rl_ccd_obs::span!("sta.full_recompute", cells = netlist.cell_count());
        let n = netlist.cell_count();
        let eps = netlist.endpoints();

        self.endpoint_of_cell = vec![u32::MAX; n];
        for (ei, ep) in eps.iter().enumerate() {
            self.endpoint_of_cell[ep.cell().index()] = ei as u32;
        }
        self.has_output = (0..n)
            .map(|i| netlist.cell(CellId::new(i)).output.is_some())
            .collect();
        self.level = vec![0u32; n];
        for &id in self.graph.topo() {
            let mut lvl = 0u32;
            for &net in &netlist.cell(id).inputs {
                lvl = lvl.max(self.level[netlist.net(net).driver.index()]);
            }
            self.level[id.index()] = lvl + 1;
        }
        let max_level = self.level.iter().copied().max().unwrap_or(0) as usize;
        self.fwd_buckets = vec![Vec::new(); max_level + 1];
        self.bwd_buckets = vec![Vec::new(); max_level + 1];
        self.fwd_in = vec![false; n];
        self.bwd_in = vec![false; n];
        self.ep_dirty = vec![false; eps.len()];
        self.ep_list.clear();
        self.wns_stale = false;

        let FullPass {
            report,
            load,
            out_arrival_min,
            endpoint_required,
            required_out,
        } = full_pass(
            netlist,
            &self.graph,
            &self.constraints,
            |r| self.clock_arrival[r],
            |ei| self.margins[ei],
        );
        self.report = report;
        self.load = load;
        self.out_arrival_min = out_arrival_min;
        self.endpoint_required = endpoint_required;
        self.required_out = required_out;
    }

    // --- internals ----------------------------------------------------------

    fn structure_stale(&self, netlist: &Netlist) -> bool {
        netlist.cell_count() != self.level.len()
    }

    fn mark_fwd(&mut self, c: CellId) {
        let i = c.index();
        let ei = self.endpoint_of_cell[i];
        if ei != u32::MAX {
            self.mark_ep(ei as usize);
        }
        if self.has_output[i] && !self.fwd_in[i] {
            self.fwd_in[i] = true;
            self.fwd_buckets[self.level[i] as usize].push(i as u32);
        }
    }

    fn mark_bwd(&mut self, c: CellId) {
        let i = c.index();
        if self.has_output[i] && !self.bwd_in[i] {
            self.bwd_in[i] = true;
            self.bwd_buckets[self.level[i] as usize].push(i as u32);
        }
    }

    fn mark_ep(&mut self, ei: usize) {
        if !self.ep_dirty[ei] {
            self.ep_dirty[ei] = true;
            self.ep_list.push(ei as u32);
        }
    }

    /// Drains the dirty worklists: forward by ascending level, then the
    /// dirty endpoints, then backward by descending level, then the lazy
    /// WNS rescan.
    fn propagate(&mut self, netlist: &Netlist) {
        self.stats.edits += 1;
        let retimed_before = self.stats.cells_retimed;

        // Forward: pushes always go to strictly higher levels (or to the
        // endpoint list), so one ascending sweep converges.
        for lvl in 0..self.fwd_buckets.len() {
            let mut bucket = std::mem::take(&mut self.fwd_buckets[lvl]);
            for &ci in &bucket {
                self.fwd_in[ci as usize] = false;
                self.retime_forward(netlist, CellId::new(ci as usize));
            }
            bucket.clear();
            self.fwd_buckets[lvl] = bucket;
        }

        // Endpoint checks: may mark drivers backward-dirty.
        let eps = std::mem::take(&mut self.ep_list);
        for &ei in &eps {
            self.ep_dirty[ei as usize] = false;
            self.recheck_endpoint(netlist, ei as usize);
        }
        let mut eps = eps;
        eps.clear();
        self.ep_list = eps;

        // Backward: pushes always go to strictly lower levels, so one
        // descending sweep converges.
        for lvl in (0..self.bwd_buckets.len()).rev() {
            let mut bucket = std::mem::take(&mut self.bwd_buckets[lvl]);
            for &ci in &bucket {
                self.bwd_in[ci as usize] = false;
                self.retime_backward(netlist, CellId::new(ci as usize));
            }
            bucket.clear();
            self.bwd_buckets[lvl] = bucket;
        }

        if self.wns_stale {
            self.wns_stale = false;
            let mut wns = 0.0f32;
            for &s in &self.report.endpoint_slack {
                if s < wns {
                    wns = s;
                }
            }
            self.report.wns = wns;
        }

        rl_ccd_obs::counter!("sta.incremental.moves", 1);
        rl_ccd_obs::observe!(
            "sta.incremental.frontier_cells",
            self.stats.cells_retimed - retimed_before
        );
    }

    /// Recomputes one cell's forward values (arrival, min arrival, slew,
    /// worst input slew) with the full pass's arithmetic; on change, pushes
    /// combinational sinks forward, marks endpoint sinks, and queues the
    /// cell for the backward pass.
    fn retime_forward(&mut self, netlist: &Netlist, id: CellId) {
        self.stats.cells_retimed += 1;
        let lib = netlist.library();
        let i = id.index();
        let cell = netlist.cell(id);
        let lc = lib.cell(cell.lib);
        let my_load = self.load[i];
        let (a, a_min, slew, wslew) = match lc.kind {
            GateKind::Input => {
                let a = self.constraints.input_delay + lc.resistance * my_load;
                (a, a, output_slew(lc, my_load), self.report.worst_in_slew[i])
            }
            GateKind::Dff => {
                let r = netlist.flop_index(id).expect("flop has register index");
                let a = self.clock_arrival[r] + lc.intrinsic + lc.resistance * my_load;
                (a, a, output_slew(lc, my_load), self.report.worst_in_slew[i])
            }
            GateKind::Output => return,
            _ => {
                let late = self.constraints.derate_late;
                let early = self.constraints.derate_early;
                let mut max_a = f32::NEG_INFINITY;
                let mut min_a = f32::INFINITY;
                let mut wslew = 0.0f32;
                for (pin, &net) in cell.inputs.iter().enumerate() {
                    let drv = netlist.net(net).driver;
                    let et = edge_timing(netlist, net, id, self.report.out_slew[drv.index()]);
                    let d = cell_delay(lib, lc, pin as u8, my_load, et.pin_slew);
                    max_a = max_a
                        .max(self.report.out_arrival[drv.index()] + late * (et.wire_delay + d));
                    min_a =
                        min_a.min(self.out_arrival_min[drv.index()] + early * (et.wire_delay + d));
                    wslew = wslew.max(et.pin_slew);
                }
                (max_a, min_a, output_slew(lc, my_load), wslew)
            }
        };
        let changed = a != self.report.out_arrival[i]
            || a_min != self.out_arrival_min[i]
            || slew != self.report.out_slew[i]
            || wslew != self.report.worst_in_slew[i];
        self.report.out_arrival[i] = a;
        self.out_arrival_min[i] = a_min;
        self.report.out_slew[i] = slew;
        self.report.worst_in_slew[i] = wslew;
        if !changed {
            return;
        }
        if let Some(net) = cell.output {
            // Collect sink ids first: marking needs `&mut self`.
            for si in 0..netlist.net(net).sinks.len() {
                let (s, _) = netlist.net(net).sinks[si];
                let ei = self.endpoint_of_cell[s.index()];
                if ei != u32::MAX {
                    self.mark_ep(ei as usize);
                }
                if !matches!(netlist.kind(s), GateKind::Dff | GateKind::Output) {
                    self.mark_fwd(s);
                }
            }
        }
        self.mark_bwd(id);
    }

    /// Re-checks one endpoint with the full pass's arithmetic and folds
    /// the slack delta into WNS/TNS/NVE; marks the driver backward-dirty
    /// when its required-time or hold contribution changed.
    fn recheck_endpoint(&mut self, netlist: &Netlist, ei: usize) {
        let lib = netlist.library();
        let late = self.constraints.derate_late;
        let early = self.constraints.derate_early;
        let ep = &netlist.endpoints()[ei];
        let cell = ep.cell();
        let net = netlist.cell(cell).inputs[0];
        let drv = netlist.net(net).driver;
        let rep = &mut self.report;
        let et = edge_timing(netlist, net, cell, rep.out_slew[drv.index()]);
        let arr = rep.out_arrival[drv.index()] + late * et.wire_delay;
        let arr_min = self.out_arrival_min[drv.index()] + early * et.wire_delay;
        // The full pass folds the pin slew in with `max`; endpoint cells
        // start at zero and are written nowhere else, so assignment is
        // identical.
        rep.worst_in_slew[cell.index()] = et.pin_slew;
        let old_hold = rep.endpoint_hold_slack[ei];
        let required = match ep {
            Endpoint::FlopD(f) => {
                let r = netlist.flop_index(*f).expect("register");
                let lc = lib.cell(netlist.cell(*f).lib);
                rep.endpoint_hold_slack[ei] = arr_min - (self.clock_arrival[r] + lc.hold);
                self.constraints.period + self.clock_arrival[r]
                    - lc.setup
                    - self.constraints.uncertainty
                    - self.margins[ei]
            }
            Endpoint::PrimaryOut(_) => {
                self.constraints.period - self.constraints.output_delay - self.margins[ei]
            }
        };
        let old_slack = rep.endpoint_slack[ei];
        let new_slack = required - arr;
        let hold_changed = rep.endpoint_hold_slack[ei] != old_hold;
        rep.endpoint_arrival[ei] = arr;
        rep.endpoint_slack[ei] = new_slack;
        let req_changed = required != self.endpoint_required[ei];
        self.endpoint_required[ei] = required;
        if new_slack != old_slack {
            self.note_slack_change(old_slack, new_slack);
        }
        if req_changed || hold_changed {
            self.mark_bwd(drv);
        }
    }

    fn note_slack_change(&mut self, old: f32, new: f32) {
        if old < 0.0 {
            self.report.tns -= old as f64;
            self.report.nve -= 1;
        }
        if new < 0.0 {
            self.report.tns += new as f64;
            self.report.nve += 1;
        }
        if new < self.report.wns {
            self.report.wns = new;
        } else if old == self.report.wns && new > old {
            // The worst endpoint improved; rescan lazily after propagation.
            self.wns_stale = true;
        }
        if self.report.nve == 0 {
            self.report.tns = 0.0;
            self.report.wns = 0.0;
            self.wns_stale = false;
        }
    }

    /// Recomputes one cell's required time, downstream hold headroom, and
    /// slack from its sinks; on change, marks its input drivers
    /// backward-dirty.
    fn retime_backward(&mut self, netlist: &Netlist, id: CellId) {
        let lib = netlist.library();
        let late = self.constraints.derate_late;
        let i = id.index();
        let cell = netlist.cell(id);
        let Some(net) = cell.output else { return };
        let mut req = f32::INFINITY;
        let mut dnh = f32::INFINITY;
        for &(s, pin) in &netlist.net(net).sinks {
            let et = edge_timing(netlist, net, s, self.report.out_slew[i]);
            let ei = self.endpoint_of_cell[s.index()];
            if ei != u32::MAX {
                let r = self.endpoint_required[ei as usize] - late * et.wire_delay;
                if r < req {
                    req = r;
                }
                let h = self.report.endpoint_hold_slack[ei as usize];
                if h.is_finite() && h < dnh {
                    dnh = h;
                }
            } else {
                if self.required_out[s.index()] < f32::INFINITY {
                    let slc = lib.cell(netlist.cell(s).lib);
                    let d = cell_delay(lib, slc, pin, self.load[s.index()], et.pin_slew);
                    let r = self.required_out[s.index()] - late * (d + et.wire_delay);
                    if r < req {
                        req = r;
                    }
                }
                let h = self.report.downstream_hold[s.index()];
                if h < dnh {
                    dnh = h;
                }
            }
        }
        let changed = req != self.required_out[i] || dnh != self.report.downstream_hold[i];
        self.required_out[i] = req;
        self.report.downstream_hold[i] = dnh;
        self.report.cell_slack[i] = if req < f32::INFINITY {
            req - self.report.out_arrival[i]
        } else {
            f32::INFINITY
        };
        if !changed {
            return;
        }
        for &net in &cell.inputs {
            self.mark_bwd(netlist.net(net).driver);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use rl_ccd_netlist::{generate, DesignSpec, TechNode};

    fn assert_parity(timer: &IncrementalTimer, fresh: &TimingReport, what: &str) {
        assert_eq!(timer.report().nve(), fresh.nve(), "{what}: nve");
        assert!(
            (timer.report().wns() - fresh.wns()).abs() < 1e-4,
            "{what}: wns {} vs {}",
            timer.report().wns(),
            fresh.wns()
        );
        assert!(
            (timer.report().tns() - fresh.tns()).abs() < 1e-3 * (1.0 + fresh.tns().abs()),
            "{what}: tns {} vs {}",
            timer.report().tns(),
            fresh.tns()
        );
        for ei in 0..fresh.endpoint_slacks().len() {
            assert!(
                (timer.report().endpoint_slack(ei) - fresh.endpoint_slack(ei)).abs() < 1e-4,
                "{what}: endpoint {ei} slack {} vs {}",
                timer.report().endpoint_slack(ei),
                fresh.endpoint_slack(ei)
            );
            let (th, fh) = (
                timer.report().endpoint_hold_slack(ei),
                fresh.endpoint_hold_slack(ei),
            );
            assert!(
                (th.is_infinite() && fh.is_infinite()) || (th - fh).abs() < 1e-4,
                "{what}: endpoint {ei} hold {th} vs {fh}"
            );
        }
        for i in 0..fresh.endpoint_slacks().len() {
            assert!(
                (timer.report().endpoint_arrival(i) - fresh.endpoint_arrival(i)).abs() < 1e-4,
                "{what}: endpoint {i} arrival"
            );
        }
    }

    #[test]
    fn fresh_timer_matches_full_analyze() {
        let d = generate(&DesignSpec::new("inc", 600, TechNode::N7, 9));
        let graph = TimingGraph::new(&d.netlist);
        let cons = Constraints::with_period(d.period_ps);
        let clocks = ClockSchedule::balanced(&d.netlist, 80.0, 4.0, 0.12 * d.period_ps, 5);
        let margins = EndpointMargins::zero(&d.netlist);
        let timer = IncrementalTimer::new(&d.netlist, &cons, &clocks, &margins);
        let fresh = analyze(&d.netlist, &graph, &cons, &clocks, &margins);
        assert_parity(&timer, &fresh, "fresh");
        // Cell-level arrays match too.
        for id in d.netlist.cell_ids() {
            assert!((timer.report().out_arrival(id) - fresh.out_arrival(id)).abs() < 1e-4);
            assert!((timer.report().out_slew(id) - fresh.out_slew(id)).abs() < 1e-4);
            let (tc, fc) = (timer.report().cell_slack(id), fresh.cell_slack(id));
            assert!(
                (tc.is_infinite() && fc.is_infinite()) || (tc - fc).abs() < 1e-4,
                "cell {id} slack {tc} vs {fc}"
            );
            let (td, fd) = (
                timer.report().downstream_hold_slack(id),
                fresh.downstream_hold_slack(id),
            );
            assert!((td.is_infinite() && fd.is_infinite()) || (td - fd).abs() < 1e-4);
        }
    }

    #[test]
    fn clock_moves_track_full_analyze() {
        let d = generate(&DesignSpec::new("incclk", 500, TechNode::N7, 17));
        let graph = TimingGraph::new(&d.netlist);
        let cons = Constraints::with_period(d.period_ps);
        let mut clocks = ClockSchedule::balanced(&d.netlist, 80.0, 4.0, 0.12 * d.period_ps, 5);
        let margins = EndpointMargins::zero(&d.netlist);
        let mut timer = IncrementalTimer::new(&d.netlist, &cons, &clocks, &margins);
        let n_regs = d.netlist.flops().len();
        for step in 0..20 {
            let r = (step * 7) % n_regs;
            let delta = if step % 2 == 0 { 9.5 } else { -6.25 };
            let t = clocks.arrival(r) + delta;
            clocks.adjust(r, delta);
            timer.set_clock_arrival(&d.netlist, r, t);
        }
        let fresh = analyze(&d.netlist, &graph, &cons, &clocks, &margins);
        assert_parity(&timer, &fresh, "after clock moves");
        assert_eq!(timer.stats().full_passes, 1, "edits must stay incremental");
        assert_eq!(timer.stats().edits, 20);
    }

    #[test]
    fn margin_edits_track_full_analyze() {
        let d = generate(&DesignSpec::new("incmar", 400, TechNode::N7, 23));
        let graph = TimingGraph::new(&d.netlist);
        let cons = Constraints::with_period(d.period_ps);
        let clocks = ClockSchedule::balanced(&d.netlist, 80.0, 4.0, 0.12 * d.period_ps, 5);
        let mut margins = EndpointMargins::zero(&d.netlist);
        let mut timer = IncrementalTimer::new(&d.netlist, &cons, &clocks, &margins);
        let n_eps = d.netlist.endpoints().len();
        for step in 0..15 {
            let ei = (step * 11) % n_eps;
            let m = (step % 4) as f32 * 7.5;
            margins.set(ei, m);
            timer.set_margin(&d.netlist, ei, m);
        }
        let fresh = analyze(&d.netlist, &graph, &cons, &clocks, &margins);
        assert_parity(&timer, &fresh, "after margin edits");
    }

    #[test]
    fn bulk_sync_only_retimes_changes() {
        let d = generate(&DesignSpec::new("incbulk", 300, TechNode::N7, 31));
        let cons = Constraints::with_period(d.period_ps);
        let mut clocks = ClockSchedule::balanced(&d.netlist, 80.0, 4.0, 0.12 * d.period_ps, 5);
        let margins = EndpointMargins::zero(&d.netlist);
        let mut timer = IncrementalTimer::new(&d.netlist, &cons, &clocks, &margins);
        // Syncing an identical schedule re-times nothing.
        let before = timer.stats().cells_retimed;
        timer.set_clocks_from(&d.netlist, &clocks);
        assert_eq!(timer.stats().cells_retimed, before);
        // One changed register re-times only its cone.
        clocks.adjust(0, 5.0);
        timer.set_clocks_from(&d.netlist, &clocks);
        let retimed = timer.stats().cells_retimed - before;
        assert!(
            (retimed as usize) < d.netlist.cell_count() / 2,
            "cone re-time touched {retimed} of {} cells",
            d.netlist.cell_count()
        );
        let fresh = analyze(
            &d.netlist,
            &TimingGraph::new(&d.netlist),
            &cons,
            &clocks,
            &margins,
        );
        assert_parity(&timer, &fresh, "after bulk sync");
    }

    #[test]
    fn full_recompute_escape_hatch_recovers_structure_changes() {
        let mut d = generate(&DesignSpec::new("incesc", 300, TechNode::N7, 37));
        let cons = Constraints::with_period(d.period_ps);
        let clocks = ClockSchedule::balanced(&d.netlist, 80.0, 4.0, 0.12 * d.period_ps, 5);
        let margins = EndpointMargins::zero(&d.netlist);
        let mut timer = IncrementalTimer::new(&d.netlist, &cons, &clocks, &margins);
        // Structural change: insert a buffer on some multi-sink net.
        let buf_lib = d
            .netlist
            .library()
            .variant(GateKind::Buf, rl_ccd_netlist::Drive::X2);
        let target = d
            .netlist
            .cell_ids()
            .find(|&c| {
                d.netlist
                    .cell(c)
                    .output
                    .is_some_and(|n| d.netlist.net(n).sinks.len() >= 2)
            })
            .expect("some net has fanout");
        let net = d.netlist.cell(target).output.expect("has output");
        let moved = vec![d.netlist.net(net).sinks[0]];
        let loc = d.netlist.cell(target).loc;
        d.netlist.insert_buffer(net, &moved, buf_lib, loc);
        timer.full_recompute(&d.netlist);
        let graph = TimingGraph::new(&d.netlist);
        assert_eq!(timer.graph().topo(), graph.topo(), "graph rebuilt");
        let fresh = analyze(&d.netlist, &graph, &cons, &clocks, &margins);
        assert_parity(&timer, &fresh, "after buffer insertion + full_recompute");
    }
}
