//! Workspace-wide observability: hierarchical spans, a metrics registry and
//! pluggable trace sinks.
//!
//! The layer is built around three pieces:
//!
//! * **Spans** — `span!("flow.useful_skew", sweep = i)` opens a timed,
//!   hierarchical region. Spans are buffered in a per-thread stack (no locks
//!   on the hot path) and merged into the attached [`Recorder`] whenever the
//!   outermost span on a thread closes — i.e. once per rollout / flow run.
//! * **Metrics** — a process-wide style registry of named counters, gauges
//!   and histograms ([`Registry`]) with cheap atomic updates, e.g.
//!   `counter!("sta.incremental.edits", 1)`.
//! * **Sinks** — a human-readable [`summary`](Recorder::summary) table and a
//!   versioned JSONL event stream ([`Recorder::write_jsonl`], validated by
//!   [`validate_jsonl`]).
//!
//! # Zero overhead when disabled
//!
//! Nothing is recorded unless a [`Recorder`] is *attached* to the current
//! thread ([`attach`]). Every instrumentation macro first checks a single
//! relaxed atomic (`enabled()`); when no recorder is attached anywhere in the
//! process this is the entire cost — field expressions are not even
//! evaluated. `tests/obs_detach.rs` (at the workspace root) checks that a
//! traced session leaves no recorder attached, so a later untraced run
//! really takes this path.
//!
//! # Example
//!
//! ```
//! use rl_ccd_obs as obs;
//!
//! let rec = obs::Recorder::new();
//! {
//!     let _g = obs::attach(&rec);
//!     let _root = obs::span!("work", items = 3_u64);
//!     obs::counter!("demo.items", 3);
//! }
//! assert_eq!(rec.spans().len(), 1);
//! let mut out = Vec::new();
//! rec.write_jsonl(&mut out).unwrap();
//! obs::validate_jsonl(&out[..]).unwrap();
//! ```

#![warn(missing_docs)]

mod metrics;
mod schema;
mod sink;
mod span;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricValue, Registry,
};
pub use schema::{
    validate_jsonl, Json, SchemaError, TraceSummary, TRACE_SCHEMA_NAME, TRACE_SCHEMA_VERSION,
};
pub use sink::escape_json;
pub use span::{FieldValue, SpanGuard, SpanRecord};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of recorders currently attached across all threads. The disabled
/// fast path is a single relaxed load of this counter.
static ATTACHED: AtomicUsize = AtomicUsize::new(0);

/// Monotonically increasing small integer naming each thread that records.
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// Stack of recorders attached to this thread (innermost last).
    static CURRENT: RefCell<Vec<Recorder>> = const { RefCell::new(Vec::new()) };
    /// Small per-thread id used to label span records.
    static THREAD_ID: u32 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// Returns `true` when at least one [`Recorder`] is attached somewhere in
/// the process. This is the cheap guard instrumentation sites check before
/// doing any work; when it returns `false` the cost of an instrumentation
/// macro is exactly this relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ATTACHED.load(Ordering::Relaxed) != 0
}

/// Runs `f` with the recorder attached to the *current thread*, if any.
/// Does nothing (and does not touch thread-local storage) when no recorder
/// is attached anywhere in the process.
#[inline]
pub fn with_recorder<F: FnOnce(&Recorder)>(f: F) {
    if !enabled() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(rec) = c.borrow().last() {
            f(rec);
        }
    });
}

/// Returns a clone of the recorder attached to the current thread, if any.
/// Used to propagate the recorder into spawned worker threads (each worker
/// calls [`attach`] on its own copy).
pub fn current() -> Option<Recorder> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Attaches `rec` to the current thread until the returned guard drops.
/// Attachments nest; the innermost recorder wins. Dropping the guard flushes
/// any spans still buffered on this thread into the recorder.
#[must_use = "recording stops when the guard drops"]
pub fn attach(rec: &Recorder) -> AttachGuard {
    CURRENT.with(|c| c.borrow_mut().push(rec.clone()));
    ATTACHED.fetch_add(1, Ordering::Relaxed);
    AttachGuard { _priv: () }
}

/// RAII guard returned by [`attach`]; detaches the recorder on drop.
pub struct AttachGuard {
    _priv: (),
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        span::flush_thread_buffer();
        ATTACHED.fetch_sub(1, Ordering::Relaxed);
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Small per-thread integer used to label span records in the trace.
pub(crate) fn thread_id() -> u32 {
    THREAD_ID.with(|t| *t)
}

struct Shared {
    epoch: Instant,
    metrics: Registry,
    spans: Mutex<Vec<SpanRecord>>,
    meta: Mutex<BTreeMap<String, String>>,
    next_span_id: AtomicU64,
}

/// Collects spans and metrics for one run. Cheap to clone (`Arc` inside);
/// clones share all state, so a recorder can be handed to worker threads
/// and inspected from the driver.
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("spans", &self.shared.spans.lock().unwrap().len())
            .field("metrics", &self.shared.metrics.snapshot().len())
            .finish()
    }
}

impl Recorder {
    /// Creates an empty recorder; its epoch (span timestamp zero) is now.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                metrics: Registry::new(),
                spans: Mutex::new(Vec::new()),
                meta: Mutex::new(BTreeMap::new()),
                next_span_id: AtomicU64::new(0),
            }),
        }
    }

    /// The metrics registry backing `counter!`/`gauge!`/`observe!`.
    pub fn metrics(&self) -> &Registry {
        &self.shared.metrics
    }

    /// Nanoseconds since this recorder was created.
    pub(crate) fn elapsed_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    /// Attaches a key/value pair to the trace header (command line, seed…).
    pub fn set_meta(&self, key: &str, value: &str) {
        self.shared
            .meta
            .lock()
            .expect("obs meta lock")
            .insert(key.to_string(), value.to_string());
    }

    /// Snapshot of the header metadata.
    pub fn meta(&self) -> BTreeMap<String, String> {
        self.shared.meta.lock().expect("obs meta lock").clone()
    }

    /// Merges a thread's span buffer, assigning process-unique span ids.
    /// `records` use buffer-local ids/parents starting at 0.
    pub(crate) fn merge_spans(&self, mut records: Vec<SpanRecord>) {
        if records.is_empty() {
            return;
        }
        let base = self
            .shared
            .next_span_id
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        for r in &mut records {
            r.id += base;
            if let Some(p) = r.parent.as_mut() {
                *p += base;
            }
        }
        self.shared
            .spans
            .lock()
            .expect("obs span lock")
            .extend(records);
    }

    /// Snapshot of all merged span records, ordered by start time.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut v = self.shared.spans.lock().expect("obs span lock").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// True when nothing was recorded (no spans, no metrics).
    pub fn is_empty(&self) -> bool {
        self.spans().is_empty()
            && self.metrics().snapshot().is_empty()
            && self.metrics().snapshot_labeled().is_empty()
    }

    /// Renders the human-readable end-of-run summary table.
    pub fn summary(&self) -> String {
        sink::summary(self)
    }

    /// Streams the versioned JSONL trace (header, span and metric events,
    /// end marker) to `w`. See `DESIGN.md` §11 for the schema.
    ///
    /// # Errors
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: std::io::Write>(&self, w: W) -> std::io::Result<()> {
        sink::write_jsonl(self, w)
    }

    /// Writes the JSONL trace to `path` (creating or truncating the file).
    ///
    /// # Errors
    /// Propagates file-creation and write errors.
    pub fn write_jsonl_to_path<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        let f = std::fs::File::create(path)?;
        let mut buf = std::io::BufWriter::new(f);
        self.write_jsonl(&mut buf)?;
        use std::io::Write as _;
        buf.flush()
    }
}

/// Opens a timed hierarchical span; returns an RAII guard that closes the
/// span when dropped. Field expressions are evaluated only when a recorder
/// is attached.
///
/// ```
/// # use rl_ccd_obs as obs;
/// let _span = obs::span!("flow.useful_skew", sweep = 3_u64, moves = 17_u64);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter(
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

/// Adds `n` to the named counter on the attached recorder (no-op when
/// disabled). The amount expression is evaluated only when enabled.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {
        $crate::with_recorder(|r| r.metrics().counter($name).add($n as u64))
    };
}

/// Sets the named gauge to `v` on the attached recorder (no-op when
/// disabled).
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {
        $crate::with_recorder(|r| r.metrics().gauge($name).set($v as f64))
    };
}

/// Records one observation into the named histogram on the attached
/// recorder (no-op when disabled).
#[macro_export]
macro_rules! observe {
    ($name:expr, $v:expr) => {
        $crate::with_recorder(|r| r.metrics().histogram($name).observe($v as f64))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_macros_record_nothing() {
        let rec = Recorder::new();
        // Recorder exists but is *not* attached: nothing must be recorded.
        {
            let _s = span!("ghost", n = 1_u64);
            counter!("ghost.count", 5);
            gauge!("ghost.gauge", 1.5);
            observe!("ghost.hist", 2.0);
        }
        assert!(rec.is_empty(), "unattached recorder must stay empty");
    }

    #[test]
    fn attach_guard_nests_and_restores() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        let g1 = attach(&outer);
        {
            let _g2 = attach(&inner);
            counter!("x", 1);
        }
        counter!("x", 2);
        drop(g1);
        counter!("x", 4); // detached: dropped on the floor
        let get = |r: &Recorder| {
            r.metrics()
                .snapshot()
                .iter()
                .find(|m| m.0 == "x")
                .map(|m| m.2.clone())
        };
        assert_eq!(get(&inner), Some(MetricValue::Counter(1)));
        assert_eq!(get(&outer), Some(MetricValue::Counter(2)));
    }

    #[test]
    fn spans_nest_and_merge_per_thread() {
        let rec = Recorder::new();
        {
            let _g = attach(&rec);
            {
                let _root = span!("root", size = 2_u64);
                {
                    let _a = span!("child_a");
                }
                let _b = span!("child_b", ok = true);
            }
            {
                let _root2 = span!("root");
            }
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let a = spans.iter().find(|s| s.name == "child_a").unwrap();
        let b = spans.iter().find(|s| s.name == "child_b").unwrap();
        assert_eq!(a.parent, Some(root.id));
        assert_eq!(b.parent, Some(root.id));
        assert!(root.dur_ns >= a.dur_ns + b.dur_ns - 1);
        let root2 = spans
            .iter()
            .find(|s| s.name == "root" && s.parent.is_none() && s.id != root.id)
            .unwrap();
        assert_eq!(root2.parent, None);
    }

    #[test]
    fn recorder_propagates_to_worker_threads() {
        let rec = Recorder::new();
        let _g = attach(&rec);
        let handoff = current().expect("recorder attached");
        std::thread::scope(|scope| {
            for w in 0..3_u64 {
                let worker_rec = handoff.clone();
                scope.spawn(move || {
                    let _g = attach(&worker_rec);
                    let _s = span!("worker", index = w);
                    counter!("worker.done", 1);
                });
            }
        });
        assert_eq!(rec.spans().iter().filter(|s| s.name == "worker").count(), 3);
        let snap = rec.metrics().snapshot();
        let done = snap.iter().find(|m| m.0 == "worker.done").unwrap();
        assert_eq!(done.2, MetricValue::Counter(3));
    }

    #[test]
    fn jsonl_roundtrip_validates() {
        let rec = Recorder::new();
        rec.set_meta("command", "unit \"test\"");
        {
            let _g = attach(&rec);
            let _s = span!("run", label = "a\\b");
            counter!("c", 2);
            gauge!("g", -1.25);
            observe!("h", 3.0);
            observe!("h", 5.0);
        }
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let sum = validate_jsonl(&out[..]).expect("schema-valid trace");
        assert_eq!(sum.version, TRACE_SCHEMA_VERSION);
        assert_eq!(sum.spans, 1);
        assert_eq!(sum.metrics, 3);
        assert!(sum.span_names.contains(&"run".to_string()));
        assert!(sum.metric_names.contains(&"h".to_string()));
    }
}
