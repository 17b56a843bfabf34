//! The experience sink: the serve-side half of the closed loop.
//!
//! [`ExpSink`] implements [`ExperienceHook`], so installing it on a
//! [`rl_ccd_serve::ServeConfig`] makes every completed sampled query emit
//! one [`ExpRecord`] line. The hot path pays exactly one bounded enqueue
//! (`try_send`; a full channel drops the event and bumps a counter —
//! experience is best-effort, replies are not). Everything expensive
//! happens on the sink's own thread, mirroring the obs sink machinery:
//! rebuild the environment from the design key, run the flow to realize
//! the selection's TNS/WNS delta, content-address the record, dedup
//! against everything already in the file, and append JSONL. The thread
//! keeps the few most recently used environments and, apart from them,
//! every design's default-flow baseline (three scalars), so evicting an
//! environment costs one rebuild and never a second default flow.
//!
//! Re-opening an existing log preloads its content ids, so a restarted
//! daemon never duplicates records it already has.

use crate::rebuild::feature_fingerprint;
use crate::record::ExpRecord;
use rl_ccd::CcdEnv;
use rl_ccd_serve::{build_env, DesignKey, ExperienceEvent, ExperienceHook, LruCache};
use std::collections::BTreeSet;
use std::io::{BufRead, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// How many rebuilt environments the sink thread keeps warm, evicting the
/// least recently used (environments are large; traffic is usually a few
/// hot designs).
const WARM_ENVS: usize = 8;

/// How many designs' [`Baseline`]s the sink thread remembers. Three
/// scalars each, so this outlives any env working set: a design's default
/// flow runs once per log, not once per env eviction.
const KNOWN_BASELINES: usize = 4096;

/// Final accounting of a drained sink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkReport {
    /// Records appended to the log.
    pub written: u64,
    /// Events whose record was already in the log (content-id dedup).
    pub deduped: u64,
    /// Events dropped on the request path because the channel was full
    /// (or the sink already finished).
    pub dropped: u64,
    /// Events skipped because the selection was empty (nothing to learn
    /// from a clean design).
    pub skipped_empty: u64,
    /// Events skipped because the environment could not be rebuilt, the
    /// realized metrics were non-finite, or the write failed.
    pub failed: u64,
}

/// A background experience logger; install via
/// [`rl_ccd_serve::ServeConfig::experience`].
#[derive(Debug)]
pub struct ExpSink {
    tx: Mutex<Option<SyncSender<ExperienceEvent>>>,
    dropped: AtomicU64,
    worker: Mutex<Option<JoinHandle<SinkReport>>>,
    path: PathBuf,
}

impl ExpSink {
    /// Opens (or creates) the log at `path` in append mode with the
    /// default channel capacity, preloading existing content ids for
    /// dedup. Unparsable existing lines are ignored here — `rlccd
    /// exp-validate` is the strict gate.
    ///
    /// # Errors
    /// Propagates file-open failures.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Arc<Self>> {
        Self::with_capacity(path, 256)
    }

    /// [`ExpSink::create`] with an explicit bounded-channel capacity.
    ///
    /// # Errors
    /// Propagates file-open failures.
    pub fn with_capacity(path: impl AsRef<Path>, capacity: usize) -> std::io::Result<Arc<Self>> {
        let path = path.as_ref().to_path_buf();
        let mut seen = BTreeSet::new();
        if let Ok(file) = std::fs::File::open(&path) {
            for line in std::io::BufReader::new(file).lines() {
                let Ok(line) = line else { break };
                if let Ok(record) = ExpRecord::parse(&line) {
                    seen.insert(record.content_id());
                }
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        let recorder = rl_ccd_obs::current();
        let worker = std::thread::Builder::new()
            .name("exp-sink".into())
            .spawn(move || sink_loop(rx, file, seen, recorder))
            .expect("spawn exp sink");
        Ok(Arc::new(Self {
            tx: Mutex::new(Some(tx)),
            dropped: AtomicU64::new(0),
            worker: Mutex::new(Some(worker)),
            path,
        }))
    }

    /// The log file this sink appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Closes the channel, drains the backlog, joins the worker, and
    /// returns the final accounting. Idempotent: the first caller gets
    /// the report, later calls get `None`. Events arriving after finish
    /// are counted as dropped.
    pub fn finish(&self) -> Option<SinkReport> {
        self.tx.lock().expect("exp sink tx lock").take()?;
        let worker = self.worker.lock().expect("exp sink worker lock").take()?;
        let mut report = worker.join().expect("exp sink thread");
        report.dropped = self.dropped.load(Ordering::SeqCst);
        Some(report)
    }
}

impl ExperienceHook for ExpSink {
    fn on_sample(&self, event: ExperienceEvent) {
        let guard = self.tx.lock().expect("exp sink tx lock");
        let sent = match guard.as_ref() {
            Some(tx) => match tx.try_send(event) {
                Ok(()) => true,
                Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => false,
            },
            None => false,
        };
        drop(guard);
        if sent {
            rl_ccd_obs::counter!("exp.sink.enqueued", 1);
        } else {
            self.dropped.fetch_add(1, Ordering::SeqCst);
            rl_ccd_obs::counter!("exp.sink.dropped", 1);
        }
    }
}

/// What a record carries about its design besides the realized reward:
/// the feature fingerprint and the default flow's result. Computed once
/// per design and kept apart from the (large, evictable) environment.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Baseline {
    feat_fp: u64,
    base_tns_ps: f64,
    base_wns_ps: f32,
}

/// The sink thread's per-design state.
struct Designs {
    envs: LruCache<DesignKey, CcdEnv>,
    baselines: LruCache<DesignKey, Baseline>,
    /// Baselines computed, i.e. default flows run.
    default_flows: u64,
}

impl Designs {
    fn new(env_cap: usize) -> Self {
        Self {
            envs: LruCache::new(env_cap),
            baselines: LruCache::new(KNOWN_BASELINES),
            default_flows: 0,
        }
    }

    /// The environment and baseline of design `key`, rebuilding the
    /// former if it was evicted and computing the latter if it never was.
    fn resolve(
        &mut self,
        key: &DesignKey,
        fanout_cap: usize,
    ) -> Result<(&CcdEnv, Baseline), String> {
        if self.envs.get(key).is_none() {
            self.envs.insert(key.clone(), build_env(key, fanout_cap)?);
        }
        let env = self.envs.get(key).expect("inserted above");
        let baseline = match self.baselines.get(key) {
            Some(known) => *known,
            None => {
                let base = env.default_flow();
                self.default_flows += 1;
                let fresh = Baseline {
                    feat_fp: feature_fingerprint(env),
                    base_tns_ps: base.final_qor.tns_ps,
                    base_wns_ps: base.final_qor.wns_ps,
                };
                self.baselines.insert(key.clone(), fresh);
                fresh
            }
        };
        Ok((env, baseline))
    }
}

fn sink_loop(
    rx: Receiver<ExperienceEvent>,
    file: std::fs::File,
    mut seen: BTreeSet<u64>,
    recorder: Option<rl_ccd_obs::Recorder>,
) -> SinkReport {
    let _obs = recorder.as_ref().map(rl_ccd_obs::attach);
    let mut out = BufWriter::new(file);
    let mut designs = Designs::new(WARM_ENVS);
    let mut report = SinkReport::default();
    while let Ok(event) = rx.recv() {
        if event.selection.is_empty() {
            report.skipped_empty += 1;
            continue;
        }
        let Ok((env, baseline)) = designs.resolve(&event.design, event.fanout_cap) else {
            report.failed += 1;
            rl_ccd_obs::counter!("exp.sink.failed", 1);
            continue;
        };
        let _span = rl_ccd_obs::span!("exp.sink.realize", steps = event.selection.len() as u64);
        let realized = env.evaluate(&event.selection);
        let reward_tns_ps = realized.final_qor.tns_ps;
        let wns_delta_ps = (realized.final_qor.wns_ps - baseline.base_wns_ps) as f64;
        if !reward_tns_ps.is_finite()
            || !wns_delta_ps.is_finite()
            || !event.log_probs.iter().all(|v| v.is_finite())
        {
            report.failed += 1;
            rl_ccd_obs::counter!("exp.sink.failed", 1);
            continue;
        }
        let record = ExpRecord {
            design: event.design.to_string(),
            feat_fp: baseline.feat_fp,
            model: event.model,
            policy_version: event.version,
            policy_fp: event.fingerprint,
            rho: event.rho,
            fanout_cap: event.fanout_cap,
            seed: event.seed,
            selection: event.selection.iter().map(|e| e.index() as u32).collect(),
            log_probs: event.log_probs,
            reward_tns_ps,
            base_tns_ps: baseline.base_tns_ps,
            wns_delta_ps,
        };
        if !seen.insert(record.content_id()) {
            report.deduped += 1;
            rl_ccd_obs::counter!("exp.sink.deduped", 1);
            continue;
        }
        if writeln!(out, "{}", record.to_jsonl())
            .and_then(|()| out.flush())
            .is_err()
        {
            report.failed += 1;
            rl_ccd_obs::counter!("exp.sink.failed", 1);
            continue;
        }
        report.written += 1;
        rl_ccd_obs::counter!("exp.sink.written", 1);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::validate_exp_jsonl;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rl_ccd::{sample_endpoints, RlCcd, RlConfig};

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rl_ccd_exp_sink_{tag}.jsonl"))
    }

    fn event_for(key: &rl_ccd_serve::DesignKey, seed: u64) -> ExperienceEvent {
        let env = build_env(key, 24).expect("env");
        let (model, params) = RlCcd::init(RlConfig::fast());
        let mut rng = StdRng::seed_from_u64(seed);
        let selection = sample_endpoints(&model, &params, &env, &mut rng);
        let log_probs = vec![-0.5; selection.len()];
        ExperienceEvent {
            design: key.clone(),
            model: "champion".into(),
            version: 3,
            fingerprint: 0xfeed,
            rho: 0.3,
            fanout_cap: 24,
            seed,
            selection,
            log_probs,
        }
    }

    #[test]
    fn sink_writes_valid_deduped_records_and_survives_restart() {
        let path = tmp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        let key: rl_ccd_serve::DesignKey = "sink:360:7nm:5".parse().expect("key");
        let sink = ExpSink::create(&path).expect("create");
        let event = event_for(&key, 7);
        sink.on_sample(event.clone());
        sink.on_sample(event.clone()); // identical → deduped
        sink.on_sample(event_for(&key, 8));
        // Empty selections carry no signal.
        let mut empty = event.clone();
        empty.selection.clear();
        empty.log_probs.clear();
        sink.on_sample(empty);
        let report = sink.finish().expect("first finish");
        assert_eq!(report.written, 2, "{report:?}");
        assert_eq!(report.deduped, 1);
        assert_eq!(report.skipped_empty, 1);
        assert_eq!(report.dropped, 0);
        assert!(sink.finish().is_none(), "finish is idempotent");
        let file = std::fs::File::open(&path).expect("log exists");
        let summary = validate_exp_jsonl(std::io::BufReader::new(file)).expect("valid log");
        assert_eq!(summary.records, 2);
        assert_eq!(summary.unique, 2);
        assert_eq!(summary.versions.get(&3), Some(&2));
        // Restart: the same event is deduped against the existing file.
        let sink = ExpSink::create(&path).expect("reopen");
        sink.on_sample(event);
        let report = sink.finish().expect("second finish");
        assert_eq!(report.written, 0);
        assert_eq!(report.deduped, 1);
        let file = std::fs::File::open(&path).expect("log exists");
        let summary = validate_exp_jsonl(std::io::BufReader::new(file)).expect("still valid");
        assert_eq!(summary.records, 2, "restart duplicated records");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn env_eviction_is_least_recently_used_and_keeps_every_baseline() {
        let keys: Vec<rl_ccd_serve::DesignKey> = ["a", "b", "c"]
            .iter()
            .map(|n| format!("sink-{n}:360:7nm:9").parse().expect("key"))
            .collect();
        let (a, b, c) = (&keys[0], &keys[1], &keys[2]);
        let mut designs = Designs::new(2);
        let mut baseline = |key| designs.resolve(key, 24).expect("resolve").1;
        let first_b = baseline(b);
        baseline(a);
        baseline(b); // refresh b; a is now the least recently used
        baseline(c); // a third design evicts a — and only a
        assert_eq!(designs.envs.len(), 2);
        assert!(designs.envs.get(b).is_some() && designs.envs.get(c).is_some());
        assert!(designs.envs.get(a).is_none());
        assert_eq!(designs.default_flows, 3);
        // Rebuilding the evicted env runs no default flow: its baseline
        // outlived it.
        let (env, again_a) = designs.resolve(a, 24).expect("rebuild a");
        let want = build_env(a, 24).expect("env");
        assert_eq!(env.pool(), want.pool());
        assert_eq!(again_a.feat_fp, feature_fingerprint(&want));
        assert_eq!(again_a.base_tns_ps, want.default_flow().final_qor.tns_ps);
        assert_eq!(designs.default_flows, 3);
        assert_eq!(designs.resolve(b, 24).expect("b").1, first_b);
        assert!(designs
            .resolve(&"x:360:3nm:1".parse().expect("key"), 24)
            .is_err());
    }

    #[test]
    fn events_after_finish_are_counted_dropped() {
        let path = tmp_path("dropped");
        std::fs::remove_file(&path).ok();
        let key: rl_ccd_serve::DesignKey = "sink:360:7nm:6".parse().expect("key");
        let sink = ExpSink::create(&path).expect("create");
        let event = event_for(&key, 1);
        assert!(sink.finish().is_some());
        sink.on_sample(event);
        assert_eq!(sink.dropped.load(Ordering::SeqCst), 1);
        std::fs::remove_file(&path).ok();
    }
}
