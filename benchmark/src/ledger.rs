//! In-memory spans recorded by the benchmark's own files around calls into
//! public product functions, and the ledger that divides a path's wall time
//! among its layers with the unexplained remainder as an explicit row.

use rl_ccd_bench::Json;
use std::time::Instant;

/// One timed interval; `parent` indexes the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Spans of one traced run, kept in memory and written out when it ends.
/// When `enabled` is false (the untraced end-to-end run) recording is a
/// no-op, so both runs execute the same harness code.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished interval and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.origin).as_secs_f64() * 1e6,
        });
        Some(self.spans.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of span `i`: its duration minus what its children cover.
    pub fn self_us(&self, i: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::duration_us)
            .sum();
        self.spans[i].duration_us() - children
    }

    /// Self times of every span called `name`, in recording order.
    pub fn self_ms_of(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_us(i) / 1e3)
            .collect()
    }

    /// What recording one span costs, measured on a scratch trace: the
    /// basis of `bench.trace_overhead_share`.
    pub fn cost_per_span_us() -> f64 {
        const N: usize = 20_000;
        let mut scratch = Trace::new(true);
        let started = Instant::now();
        for _ in 0..N {
            let a = Instant::now();
            let b = Instant::now();
            std::hint::black_box(scratch.record("probe", None, a, b));
        }
        started.elapsed().as_secs_f64() * 1e6 / N as f64
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Obj(vec![
                        Json::field("id", Json::Num(id as f64)),
                        Json::field("name", Json::Str(s.name.into())),
                        Json::field(
                            "parent",
                            s.parent.map_or(Json::Num(-1.0), |p| Json::Num(p as f64)),
                        ),
                        Json::field("start_us", Json::Num(s.start_us)),
                        Json::field("end_us", Json::Num(s.end_us)),
                    ])
                })
                .collect(),
        )
    }
}

/// A path's wall time divided among layer rows. The rows never have to add
/// up on their own: whatever they leave is reported as `unattributed`, so
/// rows + remainder equal the wall by construction.
#[derive(Clone, Debug)]
pub struct Ledger {
    pub path: &'static str,
    pub wall_ms: f64,
    pub rows: Vec<(String, f64)>,
}

impl Ledger {
    pub fn new(path: &'static str, wall_ms: f64) -> Self {
        Self {
            path,
            wall_ms,
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, layer: &str, self_ms: f64) -> &mut Self {
        self.rows.push((layer.to_string(), self_ms));
        self
    }

    pub fn attributed_ms(&self) -> f64 {
        self.rows.iter().map(|(_, ms)| ms).sum()
    }

    pub fn unattributed_ms(&self) -> f64 {
        self.wall_ms - self.attributed_ms()
    }

    /// 1 − Σ layer self time ÷ path wall. Negative when the staged pieces
    /// cost more than the real path (they ran with colder caches).
    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ms() / self.wall_ms
    }

    pub fn to_json(&self) -> Json {
        let mut rows: Vec<Json> = self
            .rows
            .iter()
            .map(|(layer, ms)| {
                Json::Obj(vec![
                    Json::field("layer", Json::Str(layer.clone())),
                    Json::field("self_ms", Json::Num(*ms)),
                ])
            })
            .collect();
        rows.push(Json::Obj(vec![
            Json::field("layer", Json::Str("unattributed".into())),
            Json::field("self_ms", Json::Num(self.unattributed_ms())),
        ]));
        Json::Obj(vec![
            Json::field("path", Json::Str(self.path.into())),
            Json::field("wall_ms", Json::Num(self.wall_ms)),
            Json::field("rows", Json::Arr(rows)),
        ])
    }

    pub fn print(&self) {
        println!("  ledger {} (wall {:.3} ms)", self.path, self.wall_ms);
        for (layer, ms) in &self.rows {
            println!(
                "    {layer:<34} {ms:>10.3} ms  {:>5.1} %",
                100.0 * ms / self.wall_ms
            );
        }
        println!(
            "    {:<34} {:>10.3} ms  {:>5.1} %",
            "unattributed",
            self.unattributed_ms(),
            100.0 * self.unattributed_share()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn rows_plus_unattributed_equal_the_wall() {
        let mut ledger = Ledger::new("train", 10.0);
        ledger.row("a", 3.25).row("b", 1.5).row("c", 0.125);
        assert_eq!(ledger.attributed_ms() + ledger.unattributed_ms(), 10.0);
        assert_eq!(ledger.unattributed_ms(), 5.125);
        assert_eq!(ledger.unattributed_share(), 0.5125);
        // The rendered rows carry the remainder as their last entry.
        let Json::Obj(fields) = ledger.to_json() else {
            panic!("ledger renders an object")
        };
        let Json::Arr(rows) = &fields[2].1 else {
            panic!("rows is an array")
        };
        let total: f64 = rows
            .iter()
            .map(|r| match r {
                Json::Obj(f) => f[1].1.as_num().unwrap(),
                _ => unreachable!(),
            })
            .sum();
        assert_eq!(total, 10.0);
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn overspent_rows_give_a_negative_remainder_not_a_clamp() {
        let mut ledger = Ledger::new("query", 2.0);
        ledger.row("a", 1.5).row("b", 1.0);
        assert_eq!(ledger.unattributed_ms(), -0.5);
        assert_eq!(ledger.attributed_ms() + ledger.unattributed_ms(), 2.0);
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let mut trace = Trace::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let iter = trace.record("iteration", None, at(0), at(10));
        trace.record("run_batch", iter, at(1), at(7));
        let other = trace.record("iteration", None, at(10), at(14));
        assert_eq!(other, Some(2));
        let selfs = trace.self_ms_of("iteration");
        assert!((selfs[0] - 4.0).abs() < 1e-6, "{selfs:?}");
        assert!((selfs[1] - 4.0).abs() < 1e-6, "{selfs:?}");
        assert!((trace.self_ms_of("run_batch")[0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn a_disabled_trace_records_nothing() {
        let mut trace = Trace::new(false);
        let now = Instant::now();
        assert_eq!(trace.record("x", None, now, now), None);
        assert_eq!(trace.len(), 0);
    }
}
