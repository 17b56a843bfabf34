//! Bounded request queue with cross-request backlog batching.
//!
//! Submissions land in one `Mutex<VecDeque>` guarded by a `Condvar`. A
//! worker asking for work blocks until a first job arrives, then takes up
//! to `max_batch` jobs that are already queued and returns at once: it
//! never waits for more to arrive. Batches form from the backlog that
//! builds while every worker is busy; an idle worker answers a lone query
//! without delay. The work a batch shares (environment, step-0 encode,
//! memoized selections) lives in caches that outlast the batch, so a
//! smaller batch costs no repeated work.
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
use std::time::Instant;

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
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until work is available and returns up to `max_batch` of
    /// the jobs queued at that moment; `None` once the queue is drained
    /// and no more work will ever arrive (worker exit signal).
    pub(crate) fn next_batch(&self, max_batch: usize) -> Option<Vec<Job>> {
        let mut st = self.state.lock().expect("scheduler lock");
        loop {
            if !st.queue.is_empty() {
                let take = st.queue.len().min(max_batch.max(1));
                let batch: Vec<Job> = st.queue.drain(..take).collect();
                rl_ccd_obs::gauge!("serve.queue.depth", st.queue.len() as f64);
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
    use std::time::Duration;

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
    fn takes_the_queued_backlog_up_to_max_batch() {
        let s = Scheduler::new(16);
        let submit = || {
            let (j, r) = job();
            std::mem::forget(r); // keep senders alive without receivers
            s.submit(j).unwrap();
        };
        for _ in 0..5 {
            submit();
        }
        let batch = s.next_batch(4).unwrap();
        assert_eq!(batch.len(), 4, "max_batch caps a batch");
        let rest = s.next_batch(4).unwrap();
        assert_eq!(rest.len(), 1, "the remainder goes out without company");
        // A lone job is a batch of one: nothing holds it back for more.
        submit();
        assert_eq!(s.next_batch(4).unwrap().len(), 1);
    }

    #[test]
    fn drained_empty_queue_releases_workers() {
        let s = Arc::new(Scheduler::new(4));
        let worker = {
            let s = s.clone();
            std::thread::spawn(move || s.next_batch(4))
        };
        std::thread::sleep(Duration::from_millis(20));
        s.drain();
        assert!(worker.join().unwrap().is_none());
    }
}
