//! Training checkpoints: the versioned, atomically-written
//! [`TrainingState`] that makes a run resumable bit-for-bit after a kill
//! at any iteration.
//!
//! # Atomicity protocol
//!
//! `state.txt` is never written in place. The writer serializes the whole
//! state into memory, writes it to `state.txt.tmp`, fsyncs, renames over
//! `state.txt`, and then commits a `manifest.txt` (same protocol) holding
//! the byte length and FNV-1a 64 checksum of the state file. A crash at
//! any point leaves either the previous consistent pair or the new one; a
//! torn temp file is simply ignored by the loader. The loader verifies
//! length and checksum before parsing and returns a typed
//! [`CheckpointError`] — which is `Send + Sync`, so it crosses thread
//! boundaries — on any mismatch.

use crate::fault::{FaultKind, RolloutFault};
use crate::reinforce::IterationStats;
use rl_ccd_netlist::EndpointId;
use rl_ccd_nn::{Adam, ParamSet};
use std::fmt;
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Error produced by checkpoint I/O and validation. `Send + Sync` so it
/// can cross worker-thread boundaries.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file exists but its content is malformed, truncated, or fails
    /// the manifest checksum.
    Corrupt(String),
    /// A stored endpoint index does not exist in the design.
    OutOfRange {
        /// The offending stored index.
        index: usize,
        /// Number of endpoints the design actually has.
        max: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::OutOfRange { index, max } => write!(
                f,
                "endpoint index {index} out of range (design has {max} endpoints)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt(msg.into())
}

/// Everything needed to continue a training run exactly where it stopped:
/// parameters, full Adam moments, loop counters, champion, per-iteration
/// telemetry, and the fault log. The per-worker rollout seeds are derived
/// deterministically from `seed_base` and the iteration index, so they
/// need no storage — resuming at iteration *k* replays the identical seed
/// stream the uninterrupted run would have used.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainingState {
    /// The next iteration index to execute.
    pub next_iteration: usize,
    /// The `RlConfig::seed` the run was started with (validated on resume;
    /// it is the base of every per-worker rollout seed).
    pub seed_base: u64,
    /// Champion reward so far (TNS ps).
    pub best_reward: f64,
    /// Best batch-mean reward so far (early-stopping progress signal).
    pub best_mean: f64,
    /// Consecutive non-improving iterations so far.
    pub stale: usize,
    /// Champion endpoint selection.
    pub best_selection: Vec<EndpointId>,
    /// Current model parameters.
    pub params: ParamSet,
    /// Full optimizer state (step count + both moment sets).
    pub adam: Adam,
    /// Telemetry of every completed iteration.
    pub history: Vec<IterationStats>,
    /// Every quarantined rollout and guarded update so far.
    pub faults: Vec<RolloutFault>,
}

const STATE_FILE: &str = "state.txt";
const STATE_TMP: &str = "state.txt.tmp";
const MANIFEST_FILE: &str = "manifest.txt";
const MANIFEST_TMP: &str = "manifest.txt.tmp";

/// FNV-1a 64-bit checksum (dependency-free, stable across platforms).
/// FNV-1a 64-bit hash — the checksum the manifest protocol pins the state
/// file with. Public so other consumers of verified checkpoints (e.g. the
/// serve registry) can fingerprint the exact bytes they loaded.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl TrainingState {
    /// Serializes the state to the versioned text format.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::new();
        let _ = writeln!(w, "rl-ccd-train-state v1");
        let _ = writeln!(w, "next_iteration {}", self.next_iteration);
        let _ = writeln!(w, "seed_base {}", self.seed_base);
        let _ = writeln!(w, "best_reward {}", self.best_reward);
        let _ = writeln!(w, "best_mean {}", self.best_mean);
        let _ = writeln!(w, "stale {}", self.stale);
        let _ = write!(w, "selection {}", self.best_selection.len());
        for e in &self.best_selection {
            let _ = write!(w, " {}", e.index());
        }
        let _ = writeln!(w);
        let _ = writeln!(w, "history {}", self.history.len());
        for h in &self.history {
            let _ = write!(
                w,
                "{} {} {} {} {} {}",
                h.iteration,
                h.mean_reward,
                h.batch_best,
                h.greedy_reward,
                h.best_so_far,
                h.steps.len()
            );
            for s in &h.steps {
                let _ = write!(w, " {s}");
            }
            let _ = write!(w, " {}", h.rewards.len());
            for r in &h.rewards {
                let _ = write!(w, " {r}");
            }
            let _ = writeln!(w);
        }
        let _ = writeln!(w, "faults {}", self.faults.len());
        for f in &self.faults {
            let detail: String = f
                .detail
                .chars()
                .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
                .collect();
            let _ = writeln!(
                w,
                "{} {} {} {} {}",
                f.iteration,
                f.worker,
                f.seed,
                f.kind.as_str(),
                detail
            );
        }
        let _ = writeln!(w, "params");
        let _ = self.params.save(&mut w);
        let _ = writeln!(w, "adam");
        let _ = self.adam.save(&mut w);
        w
    }

    /// Parses the format written by [`TrainingState::to_bytes`].
    fn from_reader<R: BufRead>(mut r: R) -> Result<Self, CheckpointError> {
        let mut line = String::new();
        let next_line = |r: &mut R, line: &mut String| -> Result<String, CheckpointError> {
            line.clear();
            let n = r.read_line(line)?;
            if n == 0 {
                return Err(corrupt("truncated training state"));
            }
            Ok(line.trim_end().to_string())
        };
        let header = next_line(&mut r, &mut line)?;
        if header != "rl-ccd-train-state v1" {
            return Err(corrupt(format!("bad header: {header:?}")));
        }
        fn field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, CheckpointError> {
            let rest = line
                .strip_prefix(key)
                .ok_or_else(|| corrupt(format!("expected `{key}`, got {line:?}")))?;
            rest.trim()
                .parse()
                .map_err(|_| corrupt(format!("bad value in `{line}`")))
        }
        let next_iteration: usize = field(&next_line(&mut r, &mut line)?, "next_iteration")?;
        let seed_base: u64 = field(&next_line(&mut r, &mut line)?, "seed_base")?;
        let best_reward: f64 = field(&next_line(&mut r, &mut line)?, "best_reward")?;
        let best_mean: f64 = field(&next_line(&mut r, &mut line)?, "best_mean")?;
        let stale: usize = field(&next_line(&mut r, &mut line)?, "stale")?;

        let sel_line = next_line(&mut r, &mut line)?;
        let mut parts = sel_line.split_whitespace();
        if parts.next() != Some("selection") {
            return Err(corrupt("missing selection section"));
        }
        let n: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| corrupt("bad selection count"))?;
        let mut best_selection = Vec::with_capacity(n);
        for _ in 0..n {
            let idx: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| corrupt("short selection list"))?;
            best_selection.push(EndpointId::new(idx));
        }

        let hist_line = next_line(&mut r, &mut line)?;
        let n: usize = field(&hist_line, "history")?;
        let mut history = Vec::with_capacity(n);
        for _ in 0..n {
            let row = next_line(&mut r, &mut line)?;
            let mut p = row.split_whitespace();
            let mut take = |what: &str| -> Result<String, CheckpointError> {
                p.next()
                    .map(str::to_string)
                    .ok_or_else(|| corrupt(format!("history row missing {what}")))
            };
            let iteration: usize = take("iteration")?
                .parse()
                .map_err(|_| corrupt("bad history iteration"))?;
            let mean_reward: f64 = take("mean")?.parse().map_err(|_| corrupt("bad mean"))?;
            let batch_best: f64 = take("batch_best")?
                .parse()
                .map_err(|_| corrupt("bad batch_best"))?;
            let greedy_reward: f64 = take("greedy")?.parse().map_err(|_| corrupt("bad greedy"))?;
            let best_so_far: f64 = take("best")?.parse().map_err(|_| corrupt("bad best"))?;
            let nsteps: usize = take("step count")?
                .parse()
                .map_err(|_| corrupt("bad step count"))?;
            let mut steps = Vec::with_capacity(nsteps);
            for _ in 0..nsteps {
                steps.push(
                    take("step")?
                        .parse()
                        .map_err(|_| corrupt("bad step value"))?,
                );
            }
            let nrewards: usize = take("reward count")?
                .parse()
                .map_err(|_| corrupt("bad reward count"))?;
            let mut rewards = Vec::with_capacity(nrewards);
            for _ in 0..nrewards {
                rewards.push(
                    take("reward")?
                        .parse()
                        .map_err(|_| corrupt("bad reward value"))?,
                );
            }
            history.push(IterationStats {
                iteration,
                mean_reward,
                batch_best,
                greedy_reward,
                best_so_far,
                steps,
                rewards,
            });
        }

        let faults_line = next_line(&mut r, &mut line)?;
        let n: usize = field(&faults_line, "faults")?;
        let mut faults = Vec::with_capacity(n);
        for _ in 0..n {
            let row = next_line(&mut r, &mut line)?;
            let mut p = row.splitn(5, ' ');
            let iteration: usize = p
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| corrupt("bad fault iteration"))?;
            let worker: usize = p
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| corrupt("bad fault worker"))?;
            let seed: u64 = p
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| corrupt("bad fault seed"))?;
            let kind = p
                .next()
                .and_then(FaultKind::parse)
                .ok_or_else(|| corrupt("bad fault kind"))?;
            let detail = p.next().unwrap_or("").to_string();
            faults.push(RolloutFault {
                iteration,
                worker,
                seed,
                kind,
                detail,
            });
        }

        if next_line(&mut r, &mut line)? != "params" {
            return Err(corrupt("missing params section"));
        }
        let params = ParamSet::load(&mut r).map_err(|e| corrupt(format!("params section: {e}")))?;
        if next_line(&mut r, &mut line)? != "adam" {
            return Err(corrupt("missing adam section"));
        }
        let adam = Adam::load(&mut r).map_err(|e| corrupt(format!("adam section: {e}")))?;

        Ok(Self {
            next_iteration,
            seed_base,
            best_reward,
            best_mean,
            stale,
            best_selection,
            params,
            adam,
            history,
            faults,
        })
    }
}

/// Durably commits `bytes` to `dir/final_name` via temp file + fsync +
/// rename (+ best-effort directory fsync).
fn commit_file(dir: &Path, tmp_name: &str, final_name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(tmp_name);
    let mut f = fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, dir.join(final_name))?;
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Atomically writes the training state plus its checksum manifest into
/// `dir` (created if missing). See the module docs for the protocol.
///
/// # Errors
/// Propagates I/O errors as [`CheckpointError::Io`].
pub fn save_training_state(
    state: &TrainingState,
    dir: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let dir = dir.as_ref();
    let commit_start = std::time::Instant::now();
    let mut span = rl_ccd_obs::span!("train.checkpoint.commit", iteration = state.next_iteration,);
    fs::create_dir_all(dir)?;
    let bytes = state.to_bytes();
    span.record("bytes", bytes.len());
    commit_file(dir, STATE_TMP, STATE_FILE, &bytes)?;
    let manifest = format!(
        "rl-ccd-manifest v1\n{STATE_FILE} {} {:016x}\n",
        bytes.len(),
        fnv1a64(&bytes)
    );
    commit_file(dir, MANIFEST_TMP, MANIFEST_FILE, manifest.as_bytes())?;
    rl_ccd_obs::counter!("train.checkpoint.commits", 1);
    rl_ccd_obs::observe!(
        "train.checkpoint.commit_ms",
        commit_start.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

/// Fault-injection support: simulates a crash *during* the checkpoint
/// write by leaving a half-written `state.txt.tmp` behind and never
/// renaming it. The previously committed `state.txt`/`manifest.txt` pair
/// is untouched — which is exactly what the atomicity protocol guarantees
/// about a real torn write.
///
/// # Errors
/// Propagates I/O errors as [`CheckpointError::Io`].
pub fn write_torn_training_state(
    state: &TrainingState,
    dir: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let bytes = state.to_bytes();
    let mut f = fs::File::create(dir.join(STATE_TMP))?;
    f.write_all(&bytes[..bytes.len() / 2])?;
    f.sync_all()?;
    Ok(())
}

/// Whether `dir` holds a committed training state (manifest present).
pub fn training_state_exists(dir: impl AsRef<Path>) -> bool {
    let dir = dir.as_ref();
    dir.join(MANIFEST_FILE).exists() && dir.join(STATE_FILE).exists()
}

/// Loads and validates a training state written by
/// [`save_training_state`]: the manifest must parse, and the state file's
/// length and FNV-1a checksum must match before parsing is attempted.
///
/// # Errors
/// [`CheckpointError::Io`] on filesystem failure, [`CheckpointError::Corrupt`]
/// on any validation or parse failure.
pub fn load_training_state(dir: impl AsRef<Path>) -> Result<TrainingState, CheckpointError> {
    let bytes = verify_manifest(dir)?;
    TrainingState::from_reader(BufReader::new(&bytes[..]))
}

/// Reads the committed `manifest.txt` / `state.txt` pair in `dir`,
/// validates the manifest header, entry name, byte length, and FNV-1a 64
/// checksum, and returns the verified state bytes. Both the training
/// resume path ([`load_training_state`]) and the serve model registry use
/// this as the single integrity gate before parsing.
///
/// # Errors
/// [`CheckpointError::Io`] when either file is unreadable,
/// [`CheckpointError::Corrupt`] on any header/length/checksum mismatch.
pub fn verify_manifest(dir: impl AsRef<Path>) -> Result<Vec<u8>, CheckpointError> {
    let dir = dir.as_ref();
    let manifest = fs::read_to_string(dir.join(MANIFEST_FILE))?;
    let mut lines = manifest.lines();
    if lines.next() != Some("rl-ccd-manifest v1") {
        return Err(corrupt("bad manifest header"));
    }
    let entry = lines.next().ok_or_else(|| corrupt("empty manifest"))?;
    let mut parts = entry.split_whitespace();
    let name = parts.next().ok_or_else(|| corrupt("manifest entry name"))?;
    if name != STATE_FILE {
        return Err(corrupt(format!("unexpected manifest entry {name:?}")));
    }
    let len: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| corrupt("manifest length"))?;
    let sum = parts
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| corrupt("manifest checksum"))?;
    let bytes = fs::read(dir.join(STATE_FILE))?;
    if bytes.len() != len {
        return Err(corrupt(format!(
            "state file is {} bytes, manifest says {len}",
            bytes.len()
        )));
    }
    let actual = fnv1a64(&bytes);
    if actual != sum {
        return Err(corrupt(format!(
            "state checksum {actual:016x} does not match manifest {sum:016x}"
        )));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    fn demo_state() -> TrainingState {
        let mut params = ParamSet::new();
        params.insert(
            "w",
            rl_ccd_nn::Tensor::from_vec(1, 3, vec![0.5, -1.25, 3.0e-7]),
        );
        TrainingState {
            next_iteration: 4,
            seed_base: 0xCCD,
            best_reward: -1234.5,
            best_mean: f64::NEG_INFINITY,
            stale: 1,
            best_selection: vec![EndpointId::new(3), EndpointId::new(0)],
            params,
            adam: Adam::new(3e-3),
            history: vec![IterationStats {
                iteration: 0,
                mean_reward: -2000.125,
                batch_best: -1234.5,
                greedy_reward: -1500.0,
                best_so_far: -1234.5,
                steps: vec![3, 4],
                rewards: vec![-2765.75, -1234.5],
            }],
            faults: vec![RolloutFault {
                iteration: 0,
                worker: 1,
                seed: 99,
                kind: FaultKind::WorkerPanic,
                detail: "injected\nnewline".into(),
            }],
        }
    }

    #[test]
    fn errors_are_send_sync() {
        assert_send_sync::<CheckpointError>();
    }

    #[test]
    fn training_state_roundtrips_atomically() {
        let dir = std::env::temp_dir().join("rl_ccd_state_rt");
        let _ = fs::remove_dir_all(&dir);
        let state = demo_state();
        save_training_state(&state, &dir).expect("save");
        assert!(training_state_exists(&dir));
        let loaded = load_training_state(&dir).expect("load");
        // The newline in the fault detail is flattened on write.
        let mut expected = state.clone();
        expected.faults[0].detail = "injected newline".into();
        assert_eq!(loaded, expected);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let dir = std::env::temp_dir().join("rl_ccd_state_sum");
        let _ = fs::remove_dir_all(&dir);
        save_training_state(&demo_state(), &dir).expect("save");
        // Flip one byte of the committed state.
        let path = dir.join("state.txt");
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 2;
        bytes[last] = bytes[last].wrapping_add(1);
        fs::write(&path, &bytes).expect("write");
        let err = load_training_state(&dir).expect_err("must fail checksum");
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_preserves_previous_state() {
        let dir = std::env::temp_dir().join("rl_ccd_state_torn");
        let _ = fs::remove_dir_all(&dir);
        let state = demo_state();
        save_training_state(&state, &dir).expect("save");
        let mut newer = state.clone();
        newer.next_iteration = 9;
        write_torn_training_state(&newer, &dir).expect("torn write");
        // The torn tmp file is ignored; the committed state still loads.
        let loaded = load_training_state(&dir).expect("load after tear");
        assert_eq!(loaded.next_iteration, state.next_iteration);
        fs::remove_dir_all(&dir).ok();
    }
}
