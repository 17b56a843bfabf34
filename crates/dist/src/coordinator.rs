//! The coordinator side: [`DistExecutor`], a [`RolloutExecutor`] that
//! shards each iteration's `(slot, seed)` pairs across worker processes.
//!
//! # Determinism
//!
//! Each rollout's value is a pure function of `(params, env, seed)`, and
//! workers run the identical rollout code a single-process trainer runs.
//! The coordinator therefore only has to guarantee *coverage*, not
//! placement: every pair must be served by *some* live worker, and pairs
//! whose worker fails — dies mid-batch, stalls past the deadline, or
//! writes a torn frame — are re-queued onto the survivors. The trainer
//! reduces gradients in slot order, so which worker served a pair, when it
//! replied, and how often it was retried cannot change the training
//! trajectory: distributed runs are bit-identical to single-process runs
//! for any worker count.
//!
//! # Failure model
//!
//! A failed roundtrip is first *retried*: the coordinator backs off
//! (seeded exponential backoff, [`RetryPolicy`]), reconnects to the same
//! worker, and re-issues the identical request. Re-issue is safe because
//! requests carry a coordinator-unique `req_id` and workers replay the
//! cached reply for a repeated id — and because rollouts are pure, even a
//! recomputed reply is bit-identical. Only when retries are exhausted (or
//! the reconnect itself fails) is the worker quarantined for the rest of
//! the run and its pairs re-queued onto the survivors.
//!
//! Transport failures recovered by retry or re-queuing are *not* training
//! faults — they leave no [`RolloutFault`] record, only observability
//! counters ([`NetStats`]) — because a single-process run of the same
//! seeds has no such record either, and fault records are part of the
//! checkpointed state. Only a pair that no live worker can serve becomes
//! a [`FaultKind::WorkerLost`] record; if that drops the batch below the
//! quorum, the trainer fails with `TrainError::QuorumLost` exactly as it
//! does when local rollouts are quarantined.
//!
//! Every socket operation runs under a read *and* write timeout derived
//! from the configured deadline, so a silent or stalled peer can never
//! hang the trainer, and health probes ([`DistExecutor::probe`]) exclude
//! unreachable workers before the expensive init broadcast.
//!
//! # Transport
//!
//! Worker connections are [`FramedTcp`] — the one blocking connection
//! type of [`rl_ccd_wire::transport`], shared with `serve::client` and
//! the worker's accept path — so chaos wrapping and reconnect frame-numbering
//! live in one place. Scatter-gather is one scoped thread per dispatch,
//! each running the blocking retry loop (`exchange`) to completion: a
//! fleet is a handful of workers, and a round's cost is reading and
//! decoding each worker's megabyte-scale reply, which per-worker threads
//! do in parallel where a single multiplexing thread would serialise it.

use crate::protocol::{
    decode_response, encode_request, InitRequest, Inject, Request, Response, RunRequest,
    DIST_MAX_FRAME_LEN,
};
use rl_ccd::{
    ExecutedRollout, ExecutorBatch, FaultKind, FaultPlan, InjectedFault, RolloutExecutor,
    RolloutFault, RolloutRequest,
};
use rl_ccd_netlist::{write_netlist, EndpointId};
use rl_ccd_obs as obs;
use rl_ccd_wire::{Endpoint, FramedTcp, NetFault, NetFaultPlan, RetryPolicy};
use std::fmt;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// One worker process as the coordinator sees it.
#[derive(Debug)]
struct Worker {
    addr: String,
    /// `None` once the worker is quarantined (dead or abandoned).
    conn: Option<FramedTcp>,
}

/// Transport-layer failure counters for one executor: what the network
/// did to the run, independent of training faults. Exposed for bench and
/// CLI reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Roundtrips re-issued after a transport failure.
    pub retries: u64,
    /// Fresh connections dialed to replace a suspect one.
    pub reconnects: u64,
    /// Pairs re-queued onto surviving workers after retries ran out.
    pub requeued: u64,
    /// Workers quarantined for the rest of the run.
    pub quarantined: u64,
    /// Health probes that went unanswered.
    pub probes_failed: u64,
}

/// A [`RolloutExecutor`] that dispatches rollouts to worker processes over
/// the `rl-ccd-dist v1` protocol.
#[derive(Debug)]
pub struct DistExecutor {
    workers: Vec<Worker>,
    deadline: Duration,
    init_deadline: Duration,
    initialized: bool,
    retry: RetryPolicy,
    next_req_id: u64,
    stats: NetStats,
}

/// What one dispatch hands back: the worker index, its chunk (for
/// re-queuing), the surviving connection (`None` = unusable), the
/// decoded result, and the retry counters the exchange burned.
struct Exchange {
    widx: usize,
    chunk: Vec<(usize, u64)>,
    conn: Option<FramedTcp>,
    result: Result<Response, String>,
    retries: u64,
    reconnects: u64,
}

/// One worker's slice of a dispatch round, ready to scatter: the encoded
/// request (shared, not cloned per worker), the connection to send it on,
/// and any one-shot wire faults the training plan addressed to this
/// connection.
struct Dispatch {
    widx: usize,
    chunk: Vec<(usize, u64)>,
    conn: FramedTcp,
    payload: Arc<Vec<u8>>,
    wire: Vec<NetFault>,
}

impl DistExecutor {
    /// Connects to every worker address (e.g. `"127.0.0.1:7401"`).
    /// Workers are initialized lazily on the first batch, when the design
    /// is known.
    ///
    /// # Errors
    /// `InvalidInput` when `addrs` is empty; otherwise the first
    /// connection failure.
    pub fn connect<S: AsRef<str>>(addrs: &[S]) -> io::Result<Self> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "DistExecutor needs at least one worker address",
            ));
        }
        let mut workers = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let conn = Endpoint::resolve(addr.as_ref())?.connect(None)?;
            workers.push(Worker {
                addr: addr.as_ref().to_string(),
                conn: Some(conn),
            });
        }
        Ok(Self {
            workers,
            deadline: Duration::from_secs(120),
            init_deadline: Duration::from_secs(600),
            initialized: false,
            retry: RetryPolicy::seeded(0),
            next_req_id: 0,
            stats: NetStats::default(),
        })
    }

    /// Per-request deadline: a worker that has not replied within it is
    /// retried, then quarantined and its pairs re-queued (default 120 s).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline.max(Duration::from_millis(1));
        self
    }

    /// Replaces the retry policy (default: [`RetryPolicy::seeded`] with
    /// seed 0). [`RetryPolicy::none`] restores quarantine-on-first-failure.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches a chaos plan to every worker connection; worker index is
    /// the plan's connection id. Reconnects keep frame numbering, so plan
    /// coordinates stay stable across retries.
    #[must_use]
    pub fn with_chaos(mut self, plan: Arc<NetFaultPlan>) -> Self {
        for (widx, worker) in self.workers.iter_mut().enumerate() {
            if let Some(conn) = worker.conn.as_mut() {
                conn.rewire_chaos(Arc::clone(&plan), widx as u64);
            }
        }
        self
    }

    /// Workers still eligible for dispatch.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.conn.is_some()).count()
    }

    /// Transport-layer failure counters accumulated so far.
    pub fn net_stats(&self) -> NetStats {
        self.stats
    }

    /// Probes every live worker with [`Request::Health`] and quarantines
    /// the ones that do not answer, so the expensive init broadcast (and
    /// everything after it) only targets reachable workers. Returns the
    /// live count after the probe. A `ready=false` answer is still alive:
    /// workers are not initialized until the first batch.
    pub fn probe(&mut self) -> usize {
        let payload = encode_request(&Request::Health);
        // Probes answer inline from the accept loop; a worker that needs
        // more than a few seconds for that is not healthy.
        let deadline = self.deadline.min(Duration::from_secs(5));
        for worker in &mut self.workers {
            let Some(mut conn) = worker.conn.take() else {
                continue;
            };
            match roundtrip(&mut conn, &payload, deadline) {
                Ok(Response::HealthAck { .. }) => worker.conn = Some(conn),
                Ok(_) | Err(_) => {
                    self.stats.probes_failed += 1;
                    self.stats.quarantined += 1;
                    obs::counter!("dist.probe_failed", 1);
                    obs::counter!("dist.workers_dead", 1);
                    eprintln!(
                        "dist: worker {} failed its health probe, quarantined",
                        worker.addr
                    );
                }
            }
        }
        self.live_workers()
    }

    /// Sends `Shutdown` to every live worker and drops the connections.
    /// Called automatically on drop.
    pub fn shutdown(&mut self) {
        let payload = encode_request(&Request::Shutdown);
        for worker in &mut self.workers {
            if let Some(conn) = worker.conn.take() {
                // Bypass any chaos plan: shutdown is best-effort cleanup,
                // written raw past the framed transport.
                let mut stream = conn.stream();
                let _ = crate::protocol::write_message(&mut stream, &payload);
            }
        }
    }

    /// Sends `Init` to every live worker in parallel; quarantines any that
    /// fail or disagree on the endpoint pool.
    fn init_workers(&mut self, req: &RolloutRequest<'_>) {
        let _span = obs::span!("dist.init", workers = self.live_workers() as u64);
        // Cull unreachable workers before shipping them a full netlist.
        self.probe();
        let design = req.env.design();
        let mut netlist_bytes = Vec::new();
        write_netlist(&design.netlist, &mut netlist_bytes).expect("in-memory write");
        let payload = Arc::new(encode_request(&Request::Init(InitRequest {
            period_ps: design.period_ps,
            recipe: req.env.recipe().clone(),
            config: req.config.clone(),
            netlist_text: String::from_utf8(netlist_bytes).expect("netlist text is UTF-8"),
        })));
        let expected_pool = req.env.pool().len();
        let round: Vec<Dispatch> = self
            .workers
            .iter_mut()
            .enumerate()
            .filter_map(|(i, w)| {
                w.conn.take().map(|conn| Dispatch {
                    widx: i,
                    chunk: Vec::new(),
                    conn,
                    payload: Arc::clone(&payload),
                    wire: Vec::new(),
                })
            })
            .collect();
        let outcomes = scatter(round, self.init_deadline, &self.retry);
        for out in outcomes {
            self.note_recovery(&out);
            match out.result {
                Ok(Response::InitAck { pool, .. }) if pool == expected_pool => {
                    self.workers[out.widx].conn = out.conn;
                }
                Ok(Response::InitAck { pool, .. }) => {
                    self.quarantine_note(
                        out.widx,
                        &format!("rebuilt a different design (pool {pool} vs {expected_pool})"),
                    );
                }
                Ok(Response::Err { message }) => {
                    self.quarantine_note(out.widx, &format!("failed init: {message}"));
                }
                Ok(_) => {
                    self.quarantine_note(out.widx, "answered init with the wrong message");
                }
                Err(why) => {
                    self.quarantine_note(out.widx, &format!("unreachable during init: {why}"));
                }
            }
        }
        self.initialized = true;
    }

    /// Folds one exchange's retry/reconnect tallies into the stats and the
    /// observability registry — here, on the coordinator thread, because
    /// the dispatch threads the exchange ran on carry no recorder.
    fn note_recovery(&mut self, out: &Exchange) {
        self.stats.retries += out.retries;
        self.stats.reconnects += out.reconnects;
        if out.retries > 0 {
            obs::counter!("dist.retries", out.retries);
        }
        if out.reconnects > 0 {
            obs::counter!("dist.reconnects", out.reconnects);
        }
    }

    fn quarantine_note(&mut self, widx: usize, why: &str) {
        self.stats.quarantined += 1;
        obs::counter!("dist.workers_dead", 1);
        eprintln!(
            "dist: worker {} {why}, quarantined",
            self.workers[widx].addr
        );
    }

    /// The injections a run request to worker-process `widx` must carry:
    /// process-level faults addressed to that process, plus slot-level
    /// faults for the slots in its chunk.
    fn injects_for(
        plan: &FaultPlan,
        iteration: usize,
        widx: usize,
        chunk: &[(usize, u64)],
        deadline: Duration,
    ) -> Vec<Inject> {
        let mut injects = Vec::new();
        if plan.injects(iteration, widx, InjectedFault::WorkerDrop) {
            injects.push(Inject::Drop);
        }
        if plan.injects(iteration, widx, InjectedFault::TornFrame) {
            injects.push(Inject::Torn);
        }
        if plan.injects(iteration, widx, InjectedFault::SlowWorker) {
            // Stall well past the deadline so the coordinator definitely
            // abandons the connection first.
            let ms = deadline.as_millis() as u64 * 3 + 50;
            injects.push(Inject::SleepMs(ms));
        }
        for &(slot, _) in chunk {
            if plan.injects(iteration, slot, InjectedFault::WorkerPanic) {
                injects.push(Inject::Panic(slot));
            }
            if plan.injects(iteration, slot, InjectedFault::NanReward) {
                injects.push(Inject::NanReward(slot));
            }
            if plan.injects(iteration, slot, InjectedFault::PoisonedGradient) {
                injects.push(Inject::Poison(slot));
            }
        }
        injects
    }

    /// Wire-level faults the training [`FaultPlan`] addresses to this
    /// worker's connection, translated into one-shot transport injections.
    fn wire_injects_for(plan: &FaultPlan, iteration: usize, widx: usize) -> Vec<NetFault> {
        plan.net_injects(iteration, widx)
            .into_iter()
            .map(|(fault, arg)| match fault {
                InjectedFault::NetDelay => NetFault::Delay(arg),
                InjectedFault::NetReset => NetFault::Reset,
                InjectedFault::NetStall => NetFault::Stall(arg),
                InjectedFault::NetTorn => NetFault::Torn,
                other => unreachable!("net_injects returned non-net fault {other:?}"),
            })
            .collect()
    }
}

impl RolloutExecutor for DistExecutor {
    fn run_batch(&mut self, req: &RolloutRequest<'_>) -> ExecutorBatch {
        if !self.initialized {
            self.init_workers(req);
        }
        let _span = obs::span!(
            "dist.run_batch",
            iteration = req.iteration as u64,
            pairs = req.pairs.len() as u64
        );
        let mut batch = ExecutorBatch::default();
        let mut pending: Vec<(usize, u64)> = req.pairs.to_vec();
        while !pending.is_empty() {
            pending.sort_by_key(|&(slot, _)| slot);
            let live: Vec<usize> = self
                .workers
                .iter()
                .enumerate()
                .filter_map(|(i, w)| w.conn.is_some().then_some(i))
                .collect();
            obs::gauge!("dist.live_workers", live.len() as f64);
            if live.is_empty() {
                obs::counter!("dist.worker_lost", pending.len() as u64);
                for (slot, seed) in pending.drain(..) {
                    batch.faults.push(RolloutFault {
                        iteration: req.iteration,
                        worker: slot,
                        seed,
                        kind: FaultKind::WorkerLost,
                        detail: "no live worker left to serve the rollout".into(),
                    });
                }
                break;
            }
            // Contiguous chunks over the live workers, sizes within one of
            // each other — a pure function of (pending, live set).
            let per = pending.len().div_ceil(live.len());
            let mut round: Vec<Dispatch> = Vec::new();
            for (chunk, &widx) in pending.chunks(per).zip(&live) {
                let injects =
                    Self::injects_for(req.plan, req.iteration, widx, chunk, self.deadline);
                self.next_req_id += 1;
                let payload = Arc::new(encode_request(&Request::Run(RunRequest {
                    iteration: req.iteration,
                    req_id: self.next_req_id,
                    budget_ms: Some(self.deadline.as_millis().max(1) as u64),
                    pairs: chunk.to_vec(),
                    injects,
                    params: req.params.clone(),
                })));
                let wire = Self::wire_injects_for(req.plan, req.iteration, widx);
                let Some(conn) = self.workers[widx].conn.take() else {
                    continue;
                };
                round.push(Dispatch {
                    widx,
                    chunk: chunk.to_vec(),
                    conn,
                    payload,
                    wire,
                });
            }
            pending.clear();
            let outcomes = scatter(round, self.deadline, &self.retry);
            for out in outcomes {
                self.note_recovery(&out);
                match out.result {
                    Ok(Response::Batch(b)) => {
                        obs::counter!("dist.rollouts", b.items.len() as u64);
                        self.workers[out.widx].conn = out.conn;
                        batch
                            .rollouts
                            .extend(b.items.into_iter().map(|item| ExecutedRollout {
                                slot: item.slot,
                                seed: item.seed,
                                selected:
                                    item.selection.iter().map(|&i| EndpointId::new(i)).collect(),
                                steps: item.steps,
                                reward: item.reward,
                                log_prob_grads: item.grads,
                            }));
                        batch.faults.extend(b.faults);
                    }
                    Ok(Response::Err { message }) => {
                        self.requeue_note(
                            out.widx,
                            &out.chunk,
                            &format!("rejected the batch: {message}"),
                        );
                        pending.extend(out.chunk);
                    }
                    Ok(_) => {
                        self.requeue_note(out.widx, &out.chunk, "answered with the wrong message");
                        pending.extend(out.chunk);
                    }
                    Err(why) => {
                        self.requeue_note(
                            out.widx,
                            &out.chunk,
                            &format!("failed mid-batch ({why})"),
                        );
                        pending.extend(out.chunk);
                    }
                }
            }
        }
        // Slot order, so fault records land in the checkpoint in the same
        // order a single-process run writes them.
        batch.rollouts.sort_by_key(|r| r.slot);
        batch.faults.sort_by_key(|f| (f.worker, f.seed));
        batch
    }
}

impl DistExecutor {
    fn requeue_note(&mut self, widx: usize, chunk: &[(usize, u64)], why: &str) {
        self.stats.quarantined += 1;
        self.stats.requeued += chunk.len() as u64;
        obs::counter!("dist.workers_dead", 1);
        obs::counter!("dist.requeued", chunk.len() as u64);
        eprintln!(
            "dist: worker {} {why}; re-queuing {} rollouts",
            self.workers[widx].addr,
            chunk.len()
        );
    }
}

impl Drop for DistExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Scatters one dispatch round and gathers its outcomes: one scoped
/// thread per dispatch, each running the blocking retry loop to
/// completion, so a stalled worker costs the others nothing.
fn scatter(round: Vec<Dispatch>, deadline: Duration, retry: &RetryPolicy) -> Vec<Exchange> {
    std::thread::scope(|s| {
        let handles: Vec<_> = round
            .into_iter()
            .map(|mut d| {
                s.spawn(move || {
                    for fault in d.wire.drain(..) {
                        d.conn.inject_once(fault);
                    }
                    let mut out = exchange(d.widx, d.conn, &d.payload, deadline, retry);
                    out.chunk = d.chunk;
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dispatch thread"))
            .collect()
    })
}

/// One request with retry-and-reconnect: roundtrip, and on a transport
/// failure back off, dial a fresh connection to the same worker (frame
/// numbering resumes, so chaos-plan coordinates stay stable), and re-issue
/// the identical payload. Gives up — connection dropped, caller
/// quarantines — when attempts run out or the reconnect itself fails.
fn exchange(
    widx: usize,
    mut conn: FramedTcp,
    payload: &[u8],
    deadline: Duration,
    retry: &RetryPolicy,
) -> Exchange {
    let mut out = Exchange {
        widx,
        chunk: Vec::new(),
        conn: None,
        result: Err("unreachable".into()),
        retries: 0,
        reconnects: 0,
    };
    let mut attempt: u32 = 0;
    loop {
        attempt += 1;
        match roundtrip(&mut conn, payload, deadline) {
            Ok(resp) => {
                out.conn = Some(conn);
                out.result = Ok(resp);
                return out;
            }
            Err(why) => {
                if attempt >= retry.max_attempts {
                    out.result = Err(why);
                    return out;
                }
                std::thread::sleep(retry.backoff(widx as u64, attempt));
                // The old connection is suspect; re-issue on a fresh one.
                match conn.reconnect(None) {
                    Ok(()) => {
                        out.reconnects += 1;
                        out.retries += 1;
                        // No obs counters here: exchange runs on dispatch
                        // threads with no recorder attached. The caller
                        // emits them from `out` on the recording thread.
                    }
                    Err(e) => {
                        out.result = Err(format!("{why}; reconnect: {e}"));
                        return out;
                    }
                }
            }
        }
    }
}

/// One request/response exchange under read *and* write deadlines. Any
/// failure — write error, timeout, torn frame, decode error — is returned
/// as a description; the caller retries or quarantines the worker.
fn roundtrip(conn: &mut FramedTcp, payload: &[u8], deadline: Duration) -> Result<Response, String> {
    let stream = conn.stream();
    stream
        .set_read_timeout(Some(deadline))
        .map_err(|e| format!("set read deadline: {e}"))?;
    stream
        .set_write_timeout(Some(deadline))
        .map_err(|e| format!("set write deadline: {e}"))?;
    conn.write_frame_limited(payload, DIST_MAX_FRAME_LEN)
        .map_err(|e| format!("send: {e}"))?;
    let reply = conn
        .read_frame_limited(DIST_MAX_FRAME_LEN)
        .map_err(|e| format!("receive: {e}"))?;
    decode_response(&reply).map_err(|e| format!("decode: {e}"))
}

impl fmt::Display for DistExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DistExecutor({} workers, {} live)",
            self.workers.len(),
            self.live_workers()
        )
    }
}
