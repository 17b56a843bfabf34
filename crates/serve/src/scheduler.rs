//! Bounded request queue with cross-request dynamic batching.
//!
//! Submissions land in one `Mutex<VecDeque>` guarded by a `Condvar`. A
//! worker asking for work blocks until a first job arrives, then keeps
//! collecting until either the batch is full (`max_batch`) or the batching
//! window has elapsed since the first job was picked up — the classic
//! latency/throughput dial: window 0 still batches whatever is already
//! queued (pure backlog batching), larger windows trade a bounded delay
//! for bigger batches.
//!
//! Under sustained traffic the windows tile: a batch opened less than one
//! window after the previous one closed ends one window after *that
//! close*, not after its own pickup. No job waits longer for it, batches
//! leave on a fixed cadence of one per window, and a closed-loop client's
//! cycle is the window itself — not the window plus however long its
//! reply and next request take to cross the threads in between, which
//! varies with the machine's wake-up latencies. A queue idle for longer
//! than a window gives its first job a full window.
//!
//! Backpressure is typed, not silent: a full queue rejects with
//! [`RejectKind::Busy`] at submit time, a draining queue with
//! [`RejectKind::ShuttingDown`], and a request whose deadline passes
//! before dispatch is answered with [`RejectKind::Deadline`] by the worker
//! (the reply is still delivered — drain accounting counts it as
//! completed, never dropped).

use crate::protocol::{QueryRequest, RejectKind, Response};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where a finished job's response goes: a one-shot callback run on the
/// thread that has the answer (a batch worker, or the submitter itself on
/// a rejection). The in-process handle sends into a channel; the TCP
/// front-end completes a `Reply`.
pub(crate) struct ReplySink(Box<dyn FnOnce(Response) + Send>);

impl ReplySink {
    pub(crate) fn new(f: impl FnOnce(Response) + Send + 'static) -> Self {
        ReplySink(Box::new(f))
    }

    /// Delivers the response. A receiver that hung up is not an error the
    /// worker can act on, so delivery is best-effort by design.
    pub(crate) fn send(self, response: Response) {
        (self.0)(response);
    }
}

impl std::fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReplySink")
    }
}

/// One queued request plus everything needed to answer it.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) request: QueryRequest,
    pub(crate) reply: ReplySink,
    pub(crate) enqueued: Instant,
    pub(crate) deadline: Option<Instant>,
}

#[derive(Debug, Default)]
struct QueueState {
    queue: VecDeque<Job>,
    draining: bool,
    /// When the last batch closed (its window's scheduled end when it
    /// timed out, so the cadence does not drift with wake-up latency).
    last_close: Option<Instant>,
}

/// The shared submission queue.
#[derive(Debug)]
pub(crate) struct Scheduler {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
}

impl Scheduler {
    /// A queue admitting at most `capacity` undispatched jobs. Capacity 0
    /// is legal and sheds every submission — the deterministic way to
    /// exercise (and test) the overload path.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues a job, or hands its reply sink back with the typed
    /// backpressure reason so the caller can answer it.
    pub(crate) fn submit(&self, job: Job) -> Result<(), (RejectKind, ReplySink)> {
        let mut st = self.state.lock().expect("scheduler lock");
        if st.draining {
            return Err((RejectKind::ShuttingDown, job.reply));
        }
        if st.queue.len() >= self.capacity {
            return Err((RejectKind::Busy, job.reply));
        }
        st.queue.push_back(job);
        rl_ccd_obs::gauge!("serve.queue.depth", st.queue.len() as f64);
        // notify_all: a worker sleeping inside its batching window must
        // also wake to absorb the new job into its batch.
        self.available.notify_all();
        Ok(())
    }

    /// Blocks until work is available and returns up to `max_batch` jobs
    /// collected within `window` of the first one; `None` once the queue
    /// is drained and no more work will ever arrive (worker exit signal).
    pub(crate) fn next_batch(&self, max_batch: usize, window: Duration) -> Option<Vec<Job>> {
        let max_batch = max_batch.max(1);
        let mut st = self.state.lock().expect("scheduler lock");
        loop {
            if let Some(first) = st.queue.pop_front() {
                let mut batch = vec![first];
                let now = Instant::now();
                // Tile with the previous window when this batch opens
                // inside what would have been the next one.
                let close_at = match st.last_close {
                    Some(last) if now < last + window => last + window,
                    _ => now + window,
                };
                while batch.len() < max_batch {
                    if let Some(job) = st.queue.pop_front() {
                        batch.push(job);
                        continue;
                    }
                    if st.draining {
                        break; // nothing more will ever arrive
                    }
                    let now = Instant::now();
                    if now >= close_at {
                        break;
                    }
                    let (guard, timeout) = self
                        .available
                        .wait_timeout(st, close_at - now)
                        .expect("scheduler lock");
                    st = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
                rl_ccd_obs::gauge!("serve.queue.depth", st.queue.len() as f64);
                let closed = close_at.min(Instant::now());
                st.last_close = Some(st.last_close.map_or(closed, |last| last.max(closed)));
                return Some(batch);
            }
            if st.draining {
                return None;
            }
            st = self.available.wait(st).expect("scheduler lock");
        }
    }

    /// Marks the queue as draining: submissions start rejecting with
    /// `ShuttingDown`; workers finish the backlog, then exit.
    pub(crate) fn drain(&self) {
        self.state.lock().expect("scheduler lock").draining = true;
        self.available.notify_all();
    }

    /// Jobs currently queued (not yet dispatched).
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().expect("scheduler lock").queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DesignKey, Mode};
    use std::sync::{mpsc, Arc};

    fn job() -> (Job, mpsc::Receiver<Response>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                request: QueryRequest {
                    model: "m".into(),
                    design: DesignKey {
                        name: "d".into(),
                        cells: 10,
                        tech: "7nm".into(),
                        seed: 1,
                    },
                    mode: Mode::Greedy,
                    deadline_ms: None,
                    auth: None,
                },
                reply: ReplySink::new(move |r| {
                    let _ = tx.send(r);
                }),
                enqueued: Instant::now(),
                deadline: None,
            },
            rx,
        )
    }

    #[test]
    fn full_queue_rejects_busy_and_draining_rejects_shutting_down() {
        let s = Scheduler::new(1);
        let (j1, _r1) = job();
        let (j2, _r2) = job();
        assert!(s.submit(j1).is_ok());
        assert_eq!(s.submit(j2).unwrap_err().0, RejectKind::Busy);
        s.drain();
        let (j3, _r3) = job();
        assert_eq!(s.submit(j3).unwrap_err().0, RejectKind::ShuttingDown);
    }

    #[test]
    fn zero_window_still_batches_the_backlog() {
        let s = Scheduler::new(16);
        for _ in 0..5 {
            let (j, _r) = job();
            std::mem::forget(_r); // keep senders alive without receivers
            s.submit(j).unwrap();
        }
        let batch = s.next_batch(4, Duration::ZERO).unwrap();
        assert_eq!(batch.len(), 4, "max_batch caps a zero-window batch");
        let rest = s.next_batch(4, Duration::ZERO).unwrap();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn window_absorbs_late_arrivals_into_the_batch() {
        let s = Arc::new(Scheduler::new(16));
        let (j, _r) = job();
        s.submit(j).unwrap();
        let producer = {
            let s = s.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                let (j, r) = job();
                std::mem::forget(r);
                s.submit(j).unwrap();
            })
        };
        let batch = s.next_batch(8, Duration::from_millis(400)).unwrap();
        producer.join().unwrap();
        assert_eq!(batch.len(), 2, "late arrival inside the window joined");
    }

    #[test]
    fn windows_tile_under_sustained_traffic_and_restart_when_idle() {
        let window = Duration::from_millis(200);
        let s = Scheduler::new(16);
        let submit = || {
            let (j, r) = job();
            std::mem::forget(r);
            s.submit(j).unwrap();
        };
        submit();
        s.next_batch(8, window).unwrap();
        let first_close = Instant::now();
        // Half a window later: the batch ends with the tiled window, about
        // half a window after its pickup, not a whole one.
        std::thread::sleep(window / 2);
        submit();
        s.next_batch(8, window).unwrap();
        let second_close = Instant::now();
        let gap = second_close - first_close;
        assert!(gap >= window * 9 / 10, "closed early: {gap:?}");
        assert!(
            gap < window * 14 / 10,
            "window restarted at pickup: {gap:?}"
        );
        // More than a window of silence: a full window from pickup again.
        std::thread::sleep(window * 3 / 2);
        let picked = Instant::now();
        submit();
        s.next_batch(8, window).unwrap();
        assert!(picked.elapsed() >= window * 9 / 10);
    }

    #[test]
    fn drained_empty_queue_releases_workers() {
        let s = Arc::new(Scheduler::new(4));
        let worker = {
            let s = s.clone();
            std::thread::spawn(move || s.next_batch(4, Duration::from_millis(1)))
        };
        std::thread::sleep(Duration::from_millis(20));
        s.drain();
        assert!(worker.join().unwrap().is_none());
    }
}
