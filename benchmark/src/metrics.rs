//! The metric glossary: every number the benchmark reports, with its unit,
//! its direction, the bound by which an end-to-end metric may worsen, and
//! for a layer metric the end-to-end metric it should move. `BENCHMARK.json`
//! lists the same names; a unit test keeps the two in step.

use rl_ccd_bench::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By how much `after` is worse than `before`, as a share of `before`
    /// (negative when it is better).
    pub fn worsening(self, before: f64, after: f64) -> f64 {
        match self {
            Better::Lower => (after - before) / before,
            Better::Higher => (before - after) / before,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) a change to this layer should
    /// move, written down before anything was measured.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, what: "median of the run's set-ups: designs picked and built, checkpoint and log L0 written, daemon/server and worker fleets started and warmed" },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Lower, bound: 0.20, what: "VmHWM of the workload process at exit" },
    EndToEnd { name: "train_rollouts_per_s", unit: "1/s", better: Higher, bound: 0.25, what: "rollouts (trajectory + backward + flow reward) per second of try_train wall, in-process executor; median over rounds" },
    EndToEnd { name: "train_iter_p50_ms", unit: "ms", better: Lower, bound: 0.25, what: "median training-iteration wall, in-process executor" },
    EndToEnd { name: "dist_rollouts_per_s", unit: "1/s", better: Higher, bound: 0.25, what: "the same training runs through DistExecutor over C loopback workers; median over rounds" },
    EndToEnd { name: "query_rps", unit: "1/s", better: Higher, bound: 0.25, what: "Ok replies per second at C closed-loop clients; median over rounds" },
    EndToEnd { name: "query_p50_ms", unit: "ms", better: Lower, bound: 0.25, what: "client-observed query latency, median" },
    EndToEnd { name: "query_p95_ms", unit: "ms", better: Lower, bound: 0.25, what: "client-observed query latency: p95 of each third of a round, median over all rounds' windows" },
    EndToEnd { name: "retrain_records_per_s", unit: "1/s", better: Higher, bound: 0.25, what: "trajectories replayed (steps x batch) per second of retrain() wall, load/parse/rebuild/commit included; median over rounds" },
];

pub const PER_LAYER: &[PerLayer] = &[
    PerLayer { name: "netlist.generate_ms", unit: "ms", better: Lower, moves: "setup_s on both; query_p50_ms on large_cold (env-cache misses only)" },
    PerLayer { name: "core.env.build_ms", unit: "ms", better: Lower, moves: "setup_s on both; query_p50_ms on large_cold (env-cache misses only)" },
    PerLayer { name: "sta.analyze_full_ms", unit: "ms", better: Lower, moves: "via flow: train_rollouts_per_s on small_hot only" },
    PerLayer { name: "sta.incremental.move_us", unit: "us", better: Lower, moves: "via flow: train_rollouts_per_s on small_hot only" },
    PerLayer { name: "flow.evaluate_ms", unit: "ms", better: Lower, moves: "train_rollouts_per_s on small_hot; none on large_cold" },
    PerLayer { name: "flow.share_of_rollout", unit: "ratio", better: Lower, moves: "the share flow.evaluate_ms can save of a rollout" },
    PerLayer { name: "core.features.with_flags_us", unit: "us", better: Lower, moves: "per-step fixed cost: train_* and query_p50_ms on small_hot" },
    PerLayer { name: "core.masking.select_us", unit: "us", better: Lower, moves: "per-step fixed cost: train_* and query_p50_ms on small_hot" },
    PerLayer { name: "core.epgnn.forward_ms", unit: "ms", better: Lower, moves: "train_rollouts_per_s, train_iter_p50_ms, peak_rss_mib, query_p50_ms, retrain_records_per_s on large_cold" },
    PerLayer { name: "core.epgnn.share_of_rollout", unit: "ratio", better: Lower, moves: "the share core.epgnn.forward_ms can save of a forward trajectory" },
    PerLayer { name: "core.agent.steps_per_rollout", unit: "count", better: Lower, moves: "exact count; work per rollout on both" },
    PerLayer { name: "core.agent.rollout_ms", unit: "ms", better: Lower, moves: "train_* on both" },
    PerLayer { name: "core.agent.decode_other_ms", unit: "ms", better: Lower, moves: "train_* on both" },
    PerLayer { name: "nn.tape.backward_ms", unit: "ms", better: Lower, moves: "train_* on both; retrain_records_per_s" },
    PerLayer { name: "nn.tape.nodes", unit: "count", better: Lower, moves: "exact count; peak_rss_mib on large_cold" },
    PerLayer { name: "nn.gradset.reduce_us", unit: "us", better: Lower, moves: "train_* on small_hot only" },
    PerLayer { name: "nn.adam.step_us", unit: "us", better: Lower, moves: "train_* on small_hot only" },
    PerLayer { name: "core.parallel.batch_ms", unit: "ms", better: Lower, moves: "train_rollouts_per_s, train_iter_p50_ms on both" },
    PerLayer { name: "core.parallel.efficiency", unit: "ratio", better: Higher, moves: "train_rollouts_per_s on both: staged serial work / (min(8, nproc) x batch wall)" },
    PerLayer { name: "core.reinforce.update_ms", unit: "ms", better: Lower, moves: "train_iter_p50_ms on small_hot" },
    PerLayer { name: "core.checkpoint.save_ms", unit: "ms", better: Lower, moves: "retrain_records_per_s, setup_s" },
    PerLayer { name: "core.checkpoint.load_ms", unit: "ms", better: Lower, moves: "retrain_records_per_s" },
    PerLayer { name: "core.infer.sample_ms", unit: "ms", better: Lower, moves: "query_p50_ms, query_rps on large_cold about 1:1; little on small_hot" },
    PerLayer { name: "core.infer.greedy_ms", unit: "ms", better: Lower, moves: "setup_s (cache warm-up); selection-cache misses only" },
    PerLayer { name: "serve.scheduler.added_p50_ms", unit: "ms", better: Lower, moves: "query_p50_ms on both (carries the 2 ms batch window)" },
    PerLayer { name: "serve.scheduler.batch_p50", unit: "count", better: Higher, moves: "query_rps under load" },
    PerLayer { name: "serve.shed", unit: "count", better: Lower, moves: "failed (any shed is a failed query)" },
    PerLayer { name: "serve.evicted", unit: "count", better: Lower, moves: "failed" },
    PerLayer { name: "serve.deadline_expired", unit: "count", better: Lower, moves: "failed" },
    PerLayer { name: "serve.cache.env_hit_share", unit: "ratio", better: Higher, moves: "query_p50_ms: 1.0 on small_hot, about a third on large_cold" },
    PerLayer { name: "serve.cache.env_build_ms", unit: "ms", better: Lower, moves: "query_p50_ms on large_cold" },
    PerLayer { name: "serve.cache.selection_hit_share", unit: "ratio", better: Higher, moves: "query_p50_ms on small_hot (greedy half of the mix); 0 on large_cold" },
    PerLayer { name: "serve.protocol.codec_us", unit: "us", better: Lower, moves: "query_p50_ms on small_hot only" },
    PerLayer { name: "wire.frame.roundtrip_us", unit: "us", better: Lower, moves: "query_p50_ms on small_hot only" },
    PerLayer { name: "serve.front_blocking.added_p50_ms", unit: "ms", better: Lower, moves: "no end-to-end workload rides it: before/after row for the front-end collapse" },
    PerLayer { name: "serve.front_reactor.added_p50_ms", unit: "ms", better: Lower, moves: "no end-to-end workload rides it: before/after row for the front-end collapse" },
    PerLayer { name: "daemon.front.added_p50_ms", unit: "ms", better: Lower, moves: "query_p50_ms, query_rps on small_hot; none on large_cold" },
    PerLayer { name: "daemon.tenant.admit_us", unit: "us", better: Lower, moves: "query_p50_ms on small_hot" },
    PerLayer { name: "daemon.usage.accepted", unit: "count", better: Higher, moves: "equals the queries the tenant port answered" },
    PerLayer { name: "dist.round.added_ms", unit: "ms", better: Lower, moves: "dist_rollouts_per_s; never train_*" },
    PerLayer { name: "dist.protocol.codec_ms", unit: "ms", better: Lower, moves: "dist_rollouts_per_s on small_hot" },
    PerLayer { name: "dist.bytes_per_round", unit: "count", better: Lower, moves: "dist_rollouts_per_s on small_hot" },
    PerLayer { name: "dist.net.retries", unit: "count", better: Lower, moves: "dist_rollouts_per_s; 0 on loopback" },
    PerLayer { name: "dist.net.reconnects", unit: "count", better: Lower, moves: "dist_rollouts_per_s; 0 on loopback" },
    PerLayer { name: "exp.record.codec_us", unit: "us", better: Lower, moves: "retrain_records_per_s" },
    PerLayer { name: "exp.buffer.push_us", unit: "us", better: Lower, moves: "retrain_records_per_s" },
    PerLayer { name: "exp.rebuild.env_ms", unit: "ms", better: Lower, moves: "retrain_records_per_s" },
    PerLayer { name: "exp.sink.ingest_records_per_s", unit: "1/s", better: Higher, moves: "setup_s (building L0); query_p50_ms on large_cold (the sink shares the cores)" },
    PerLayer { name: "exp.sink.dropped", unit: "count", better: Lower, moves: "experience lost under load on large_cold" },
    PerLayer { name: "exp.retrain.load_ms", unit: "ms", better: Lower, moves: "retrain_records_per_s" },
    PerLayer { name: "core.replay.teacher_forced_ms", unit: "ms", better: Lower, moves: "retrain_records_per_s" },
    PerLayer { name: "train.unattributed_share", unit: "ratio", better: Lower, moves: "how much of the staged train iteration no row explains" },
    PerLayer { name: "query.unattributed_share", unit: "ratio", better: Lower, moves: "how much of query_p50_ms at C clients one client's onion does not explain" },
    PerLayer { name: "retrain.unattributed_share", unit: "ratio", better: Lower, moves: "how much of retrain() wall the staged pieces do not explain" },
    PerLayer { name: "bench.trace_overhead_share", unit: "ratio", better: Lower, moves: "must stay below 0.02" },
];

/// Named values in reporting order.
#[derive(Clone, Debug, Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object of the result line: every registry name with
    /// its value and unit, in registry order.
    ///
    /// # Panics
    /// When a registry metric was never set or is not a finite number:
    /// a run that cannot report a metric must not look like one that did.
    pub fn to_json(&self, registry: &[(&'static str, &'static str)]) -> Json {
        Json::Obj(
            registry
                .iter()
                .map(|&(name, unit)| {
                    let value = self
                        .get(name)
                        .unwrap_or_else(|| panic!("metric {name} was never measured"));
                    assert!(value.is_finite(), "metric {name} is {value}");
                    Json::field(
                        name,
                        Json::Obj(vec![
                            Json::field("value", Json::Num(value)),
                            Json::field("unit", Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    pub fn print(&self, registry: &[(&'static str, &'static str)]) {
        for &(name, unit) in registry {
            if let Some(value) = self.get(name) {
                println!("  {name:<36} {value:>14.4} {unit}");
            }
        }
    }
}

/// Every metric with what it measures (end-to-end) or which end-to-end
/// metric it should move (per layer).
pub fn print_glossary() {
    println!("end-to-end (name, unit, better, bound): what it measures");
    for m in END_TO_END {
        println!(
            "  {:<24} {:<6} {:<6} {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            100.0 * m.bound,
            m.what
        );
    }
    println!("per layer (name, unit, better): what a change to it should move");
    for m in PER_LAYER {
        println!(
            "  {:<36} {:<6} {:<6}  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

pub fn end_to_end_units() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_units() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

/// Looks `key` up in a JSON object (metric names contain dots, so the
/// shared lib's dotted-path lookup cannot be used).
pub fn field<'a>(json: &'a Json, key: &str) -> Option<&'a Json> {
    match json {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_registry_rendered() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            crate::report::manifest(),
            "regenerate with `perf_ledger manifest > BENCHMARK.json`"
        );
        Json::parse(&on_disk).expect("BENCHMARK.json parses");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        for w in crate::workload::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(Better::Lower.worsening(10.0, 11.0), 0.1);
        assert_eq!(Better::Higher.worsening(10.0, 9.0), 0.1);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn a_missing_metric_is_not_reported_as_a_result() {
        Values::default().to_json(&[("setup_s", "s")]);
    }
}
