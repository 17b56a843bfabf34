//! The server: worker pool, batch execution, TCP port, graceful drain.
//!
//! Life of a request: a client (in-process [`ServeHandle`] or a TCP
//! connection held by the shared [`rl_ccd_wire::front`]) submits a
//! [`QueryRequest`] with a one-shot reply callback; the
//! scheduler queues it (or rejects with typed backpressure); a worker
//! takes what is queued as one batch, groups it by (model, design) so
//! each group resolves its environment **once** through the LRU cache,
//! computes each selection on the inference-only no-grad fast path, and
//! sends every reply. Greedy results are memoized per (model
//! fingerprint, design), sampled ones per (model fingerprint, design,
//! seed); a query that has to be computed starts from the step-0 EP-GNN
//! encode stored per (model fingerprint, design), which only the first
//! such query runs.
//!
//! Shutdown is a drain, never a drop: [`Server::shutdown`] flips the queue
//! to draining (new submissions get `shutting_down`), wakes everything,
//! joins the workers after they empty the backlog, and returns a
//! [`DrainReport`] whose `dropped()` is zero exactly when every accepted
//! request was answered.

use crate::cache::{EncodeCache, EnvCache, SelectionCache};
use crate::experience::{ExperienceEvent, ExperienceHook};
use crate::protocol::{
    DesignKey, HealthReply, Mode, QueryReply, QueryRequest, RejectKind, Request, Response,
};
use crate::registry::{ModelRegistry, ServeModel};
use crate::scheduler::{Job, ReplySink, Scheduler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd::{CcdEnv, InferSession};
use rl_ccd_netlist::EndpointId;
use rl_ccd_wire::front::{self, Front, FrontCounters, FrontOptions, Reply};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Estimated time for one sweep of the worker pool over `workers ×
/// max_batch` queued jobs, in ms: the unit of the shed backoff hint. An
/// estimate of a warm batch, not a measurement of the running server.
const SWEEP_MS_ESTIMATE: u64 = 2;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Largest batch a worker dispatches at once.
    pub max_batch: usize,
    /// Bounded queue capacity; submissions beyond it get `busy`.
    pub queue_capacity: usize,
    /// Worker threads executing batches.
    pub workers: usize,
    /// LRU capacity of the design-environment cache.
    pub env_cache: usize,
    /// LRU capacity of the memoized-selection cache: this many greedy
    /// answers and this many seeded samples.
    pub selection_cache: usize,
    /// Message-passing fanout cap for environment construction.
    pub fanout_cap: usize,
    /// How long a response write may block before the connection is
    /// evicted as a slow client (its response buffer is the bound on
    /// per-connection memory: one frame, never an unbounded backlog).
    pub write_timeout: Duration,
    /// Kernel send-buffer cap (`SO_SNDBUF`) applied to each accepted
    /// connection; `None` keeps the kernel's autotuned default. Bounding
    /// it keeps per-connection kernel memory predictable with thousands
    /// of sockets, and makes a client that stops reading hit the
    /// write-stall eviction instead of hiding in autotuned buffers.
    pub sock_send_buffer: Option<usize>,
    /// Experience hook called once per completed sampled query (the
    /// closed-loop learning seam); `None` serves without logging.
    pub experience: Option<Arc<dyn ExperienceHook>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            queue_capacity: 64,
            workers: 2,
            env_cache: 4,
            selection_cache: 64,
            fanout_cap: 24,
            write_timeout: Duration::from_secs(5),
            sock_send_buffer: None,
            experience: None,
        }
    }
}

impl ServeConfig {
    /// The backoff hint attached to `Overloaded` sheds: the estimated
    /// time to drain a full queue through the worker pool, at an
    /// estimated 2 ms per sweep of `workers × max_batch` jobs.
    /// Deterministic in the config, so tests can pin it.
    pub fn shed_retry_after_ms(&self) -> u64 {
        let per_sweep = (self.workers.max(1) * self.max_batch.max(1)) as u64;
        let sweeps = (self.queue_capacity as u64).div_ceil(per_sweep).max(1);
        sweeps * SWEEP_MS_ESTIMATE
    }
}

/// Atomic lifetime counters plus the per-batch-size census.
#[derive(Debug, Default)]
pub(crate) struct Stats {
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected_busy: AtomicU64,
    rejected_shutdown: AtomicU64,
    deadline_expired: AtomicU64,
    shed: AtomicU64,
    health_probes: AtomicU64,
    batches: Mutex<BTreeMap<usize, u64>>,
}

/// A point-in-time copy of the server's counters.
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests answered (selections, deadline errors, internal errors —
    /// every delivered reply).
    pub completed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected_busy: u64,
    /// Submissions rejected because the server was draining.
    pub rejected_shutdown: u64,
    /// Accepted requests whose deadline passed before dispatch.
    pub deadline_expired: u64,
    /// Submissions shed with a typed `Overloaded` response (a subset of
    /// `rejected_busy`: every shed is a busy rejection answered with the
    /// machine-readable backoff hint).
    pub shed: u64,
    /// Connections evicted because a response write outlived
    /// [`ServeConfig::write_timeout`] (slow clients).
    pub evicted: u64,
    /// Health probes answered.
    pub health_probes: u64,
    /// Front-end event-loop poll returns.
    pub reactor_polls: u64,
    /// Front-end readiness events processed. Stays proportional to
    /// *active* connections: idle sockets never produce an event.
    pub reactor_events: u64,
    /// batch size → number of batches dispatched at that size.
    pub batches: BTreeMap<usize, u64>,
    /// Computed query groups that started from a stored step-0 encode.
    pub encode_hits: u64,
    /// Computed query groups that ran the dense encode (and stored it):
    /// `encode_hits + encode_misses` groups were computed, `encode_misses`
    /// dense encodes were run for them.
    pub encode_misses: u64,
    /// Bytes of step-0 encodes stored now.
    pub encode_bytes: usize,
}

impl std::fmt::Display for ServeStats {
    /// One line: the lifetime counters, the batch-size census as
    /// `size×count`, and the encode store.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} accepted, {} completed, {} busy-rejected, {} shed, {} evicted, \
             {} deadline-expired, {} health-probed, batch p50 {} [",
            self.accepted,
            self.completed,
            self.rejected_busy,
            self.shed,
            self.evicted,
            self.deadline_expired,
            self.health_probes,
            self.batch_p50()
        )?;
        for (i, (size, count)) in self.batches.iter().enumerate() {
            write!(f, "{}{size}×{count}", if i == 0 { "" } else { " " })?;
        }
        write!(
            f,
            "], encode store {} hit / {} miss / {} bytes",
            self.encode_hits, self.encode_misses, self.encode_bytes
        )
    }
}

impl ServeStats {
    /// Weighted median batch size (0 when no batch was dispatched) — the
    /// acceptance metric for "backlog batching actually batches".
    pub fn batch_p50(&self) -> usize {
        let total: u64 = self.batches.values().sum();
        if total == 0 {
            return 0;
        }
        let mut seen = 0;
        for (&size, &count) in &self.batches {
            seen += count;
            if seen * 2 >= total {
                return size;
            }
        }
        0
    }
}

/// Drain outcome returned by [`Server::shutdown`].
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Final counters.
    pub stats: ServeStats,
    /// Jobs still queued after the workers exited (must be 0).
    pub abandoned_queue: usize,
}

impl DrainReport {
    /// Accepted requests that never got a reply — 0 on a clean drain.
    pub fn dropped(&self) -> u64 {
        (self.stats.accepted - self.stats.completed) + self.abandoned_queue as u64
    }
}

pub(crate) struct Shared {
    registry: ModelRegistry,
    scheduler: Scheduler,
    envs: EnvCache,
    selections: SelectionCache,
    encodes: EncodeCache,
    stats: Stats,
    /// The TCP port's counters (all zero until [`Server::bind`]).
    front: Arc<FrontCounters>,
    draining: AtomicBool,
    recorder: Option<rl_ccd_obs::Recorder>,
    queue_capacity: usize,
    shed_retry_after_ms: u64,
    write_timeout: Duration,
    sock_send_buffer: Option<usize>,
    fanout_cap: usize,
    experience: Option<Arc<dyn ExperienceHook>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("models", &self.registry.names())
            .field("queue_depth", &self.scheduler.depth())
            .finish()
    }
}

/// A running inference server.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    front: Option<Front>,
}

/// Cheap in-process client — the same queue and typed rejections as TCP,
/// minus the socket. Clone freely across threads.
#[derive(Clone, Debug)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl Server {
    /// Starts the worker pool over `registry` and returns the running
    /// server. The current observability recorder (if one is attached on
    /// the calling thread) is captured and re-attached inside every
    /// worker and connection thread.
    pub fn start(registry: ModelRegistry, config: ServeConfig) -> Self {
        Self::start_with(registry, config, EncodeCache::default())
    }

    /// [`Server::start`] over a given encode store (tests shrink its
    /// budget).
    pub(crate) fn start_with(
        registry: ModelRegistry,
        config: ServeConfig,
        encodes: EncodeCache,
    ) -> Self {
        let shared = Arc::new(Shared {
            registry,
            scheduler: Scheduler::new(config.queue_capacity),
            envs: EnvCache::new(config.env_cache, config.fanout_cap),
            selections: SelectionCache::new(config.selection_cache),
            encodes,
            stats: Stats::default(),
            front: Arc::default(),
            draining: AtomicBool::new(false),
            recorder: rl_ccd_obs::current(),
            queue_capacity: config.queue_capacity,
            shed_retry_after_ms: config.shed_retry_after_ms(),
            write_timeout: config.write_timeout,
            sock_send_buffer: config.sock_send_buffer,
            fanout_cap: config.fanout_cap,
            experience: config.experience.clone(),
        });
        let workers = (0..config.workers.max(1))
            .map(|w| {
                let shared = shared.clone();
                let max_batch = config.max_batch;
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, max_batch))
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            shared,
            workers,
            front: None,
        }
    }

    /// An in-process client handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: self.shared.clone(),
        }
    }

    /// The live model registry. Entries can be hot-swapped
    /// ([`ModelRegistry::install`]) while the server runs; in-flight
    /// batches finish on the entry they resolved.
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.snapshot()
    }

    /// Binds the TCP port (e.g. `"127.0.0.1:0"` for an ephemeral port) on
    /// the workspace's shared front-end and starts accepting framed
    /// connections. Returns the bound address. Same protocol, typed
    /// backpressure and slow-client eviction (a response unsent for
    /// [`ServeConfig::write_timeout`] evicts) on every platform; batch
    /// execution stays on the worker pool.
    ///
    /// # Errors
    /// Propagates bind and event-loop setup failures.
    pub fn bind(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let options = FrontOptions {
            name: "serve",
            max_frame_len: crate::protocol::MAX_FRAME_LEN,
            write_timeout: self.shared.write_timeout,
            sock_send_buffer: self.shared.sock_send_buffer,
        };
        let shared = self.shared.clone();
        let front = front::bind(
            addr,
            options,
            self.shared.front.clone(),
            move |payload, reply| serve_frame(&shared, &payload, reply),
        )?;
        let local = front.local_addr();
        self.front = Some(front);
        Ok(local)
    }

    /// Alias of [`Server::bind`]. Exists only because
    /// `benchmark/src/serve.rs`, which this workspace may not edit, still
    /// calls it; the next benchmark PR removes the call and this with it.
    ///
    /// # Errors
    /// See [`Server::bind`].
    pub fn bind_reactor(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        self.bind(addr)
    }

    /// The bound TCP address, when [`Server::bind`] was called.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.front.as_ref().map(Front::local_addr)
    }

    /// Whether a client has sent the admin `shutdown` request (the CLI
    /// polls this and then calls [`Server::shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop accepting, answer everything already queued,
    /// join all threads, report the final accounting.
    pub fn shutdown(self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.scheduler.drain();
        if let Some(front) = self.front {
            // The workers are still running and finish the backlog, so
            // the front-end can flush every response it owes.
            front.shutdown();
            let evicted = self.shared.front.evicted();
            if evicted > 0 {
                rl_ccd_obs::counter!("serve.evicted", evicted);
            }
        }
        for worker in self.workers {
            let _ = worker.join();
        }
        let abandoned_queue = self.shared.scheduler.depth();
        DrainReport {
            stats: self.shared.snapshot(),
            abandoned_queue,
        }
    }
}

impl ServeHandle {
    /// Submits a query and blocks for its response. Typed rejections
    /// (shutting down, deadline) come back as [`Response::Err`] and a
    /// full queue as [`Response::Overloaded`] — never a panic or a hang.
    pub fn query(&self, request: QueryRequest) -> Response {
        let (tx, rx) = mpsc::channel();
        self.submit(request, move |response| {
            let _ = tx.send(response);
        });
        rx.recv().unwrap_or_else(|_| {
            Response::reject(RejectKind::Internal, "worker dropped the reply channel")
        })
    }

    /// Submits a query without blocking: `reply` runs exactly once with
    /// the response — on a worker thread when the query was queued, on
    /// this thread when it was rejected at the door.
    pub fn submit(&self, request: QueryRequest, reply: impl FnOnce(Response) + Send + 'static) {
        self.shared.submit(request, ReplySink::new(reply));
    }

    /// Answers a health probe from the live server state (never queued).
    pub fn health(&self) -> HealthReply {
        self.shared.health_reply()
    }

    /// The live model registry (shared with the server), for hot reloads
    /// from a controlling process like the daemon.
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.snapshot()
    }
}

impl Shared {
    /// Queues the request, or answers it on the spot with the typed
    /// rejection (a full queue becomes the load-shedding answer with its
    /// backoff hint).
    fn submit(&self, request: QueryRequest, reply: ReplySink) {
        let now = Instant::now();
        let deadline = request
            .deadline_ms
            .map(|ms| now + Duration::from_millis(ms));
        let job = Job {
            request,
            reply,
            enqueued: now,
            deadline,
        };
        let Err((kind, reply)) = self.scheduler.submit(job) else {
            self.stats.accepted.fetch_add(1, Ordering::SeqCst);
            return;
        };
        rl_ccd_obs::counter!("serve.rejected", 1);
        let response = if kind == RejectKind::Busy {
            self.stats.rejected_busy.fetch_add(1, Ordering::SeqCst);
            self.stats.shed.fetch_add(1, Ordering::SeqCst);
            rl_ccd_obs::counter!("serve.shed", 1);
            Response::Overloaded {
                retry_after_ms: self.shed_retry_after_ms,
            }
        } else {
            self.stats.rejected_shutdown.fetch_add(1, Ordering::SeqCst);
            Response::reject(kind, "server is draining")
        };
        reply.send(response);
    }

    /// A point-in-time health reply.
    fn health_reply(&self) -> HealthReply {
        self.stats.health_probes.fetch_add(1, Ordering::SeqCst);
        rl_ccd_obs::counter!("serve.health_probes", 1);
        HealthReply {
            ready: !self.draining.load(Ordering::SeqCst),
            queue_depth: self.scheduler.depth(),
            queue_capacity: self.queue_capacity,
            models: self.registry.len(),
            active: self.registry.versions(),
        }
    }

    fn snapshot(&self) -> ServeStats {
        let (encode_hits, encode_misses, encode_bytes) = self.encodes.stats();
        ServeStats {
            accepted: self.stats.accepted.load(Ordering::SeqCst),
            completed: self.stats.completed.load(Ordering::SeqCst),
            rejected_busy: self.stats.rejected_busy.load(Ordering::SeqCst),
            rejected_shutdown: self.stats.rejected_shutdown.load(Ordering::SeqCst),
            deadline_expired: self.stats.deadline_expired.load(Ordering::SeqCst),
            shed: self.stats.shed.load(Ordering::SeqCst),
            evicted: self.front.evicted(),
            health_probes: self.stats.health_probes.load(Ordering::SeqCst),
            reactor_polls: self.front.polls(),
            reactor_events: self.front.events(),
            batches: self
                .stats
                .batches
                .lock()
                .expect("batch census lock")
                .clone(),
            encode_hits,
            encode_misses,
            encode_bytes,
        }
    }

    /// A session for one (model, design) group of a batch, holding the
    /// group's step-0 encode: the stored one, or — for the first computed
    /// query on this (fingerprint, design) — one run here and stored.
    fn open_session<'m>(
        &self,
        model: &'m ServeModel,
        design: &DesignKey,
        env: &CcdEnv,
    ) -> InferSession<'m> {
        let mut session = InferSession::new(&model.model, &model.params);
        // An empty pool is answered before anything is encoded.
        if !env.pool().is_empty() {
            let encode = self
                .encodes
                .get_or_encode(model.fingerprint, design, || session.encode(env));
            session.hold(encode);
        }
        session
    }
}

fn worker_loop(shared: &Shared, max_batch: usize) {
    let _obs = shared.recorder.as_ref().map(rl_ccd_obs::attach);
    while let Some(batch) = shared.scheduler.next_batch(max_batch) {
        let _span = rl_ccd_obs::span!("serve.batch", size = batch.len() as u64);
        rl_ccd_obs::observe!("serve.batch.size", batch.len() as f64);
        *shared
            .stats
            .batches
            .lock()
            .expect("batch census lock")
            .entry(batch.len())
            .or_insert(0) += 1;
        execute_batch(shared, batch);
    }
}

/// Answers every job in the batch. Jobs are grouped by (model, design) so
/// each group resolves its environment once; within a group the greedy
/// selection is computed at most once and memoized across batches.
fn execute_batch(shared: &Shared, batch: Vec<Job>) {
    let batch_size = batch.len();
    let now = Instant::now();
    let mut groups: BTreeMap<(String, String), Vec<Job>> = BTreeMap::new();
    let mut live: Vec<Job> = Vec::with_capacity(batch.len());
    for job in batch {
        if job.deadline.is_some_and(|d| now > d) {
            shared.stats.deadline_expired.fetch_add(1, Ordering::SeqCst);
            rl_ccd_obs::counter!("serve.deadline_expired", 1);
            finish(
                shared,
                job,
                Response::reject(RejectKind::Deadline, "deadline passed in queue"),
            );
            continue;
        }
        live.push(job);
    }
    for job in live {
        let key = (job.request.model.clone(), job.request.design.to_string());
        groups.entry(key).or_default().push(job);
    }
    for ((model_name, _), jobs) in groups {
        let Some(model) = shared.registry.get(&model_name) else {
            for job in jobs {
                let msg = format!("no model {model_name:?} in the registry");
                finish(shared, job, Response::reject(RejectKind::UnknownModel, msg));
            }
            continue;
        };
        // One environment resolution for the whole group.
        let env = match shared.envs.get_or_build(&jobs[0].request.design) {
            Ok(env) => env,
            Err(msg) => {
                for job in jobs {
                    finish(
                        shared,
                        job,
                        Response::reject(RejectKind::BadRequest, msg.clone()),
                    );
                }
                continue;
            }
        };
        // Bind the model's parameters once for the whole group: every job
        // in it executes through the same no-grad tape, whose buffers are
        // recycled between requests (the batched no-grad path), from the
        // same step-0 encode.
        let design = jobs[0].request.design.clone();
        let bind = || shared.open_session(&model, &design, &env);
        let mut session: Option<InferSession<'_>> = None;
        let mut greedy: Option<Arc<Vec<EndpointId>>> = None;
        let mut greedy_was_cached = false;
        for job in jobs {
            let (selection, cached) = match job.request.mode {
                Mode::Greedy => {
                    if greedy.is_none() {
                        let key = &job.request.design;
                        if let Some(hit) = shared.selections.get(model.fingerprint, key) {
                            greedy = Some(hit);
                            greedy_was_cached = true;
                        } else {
                            let fresh = Arc::new(session.get_or_insert_with(bind).select(&env));
                            shared
                                .selections
                                .insert(model.fingerprint, key, fresh.clone());
                            greedy = Some(fresh);
                        }
                    }
                    (
                        greedy.clone().expect("greedy computed above"),
                        greedy_was_cached,
                    )
                }
                Mode::Sample(seed) => {
                    let key = &job.request.design;
                    let mut rng = StdRng::seed_from_u64(seed);
                    if let Some(hook) = &shared.experience {
                        // Every logged query is computed: its event needs
                        // the log-probs, which the memo does not keep. The
                        // logged path is bit-identical to the plain one;
                        // the hook call is the one enqueue the request
                        // path pays for closed-loop learning.
                        let (sel, log_probs) = session
                            .get_or_insert_with(bind)
                            .sample_logged(&env, &mut rng);
                        hook.on_sample(ExperienceEvent {
                            design: key.clone(),
                            model: model.name.clone(),
                            version: model.version,
                            fingerprint: model.fingerprint,
                            rho: model.model.config.rho,
                            fanout_cap: shared.fanout_cap,
                            seed,
                            selection: sel.clone(),
                            log_probs,
                        });
                        (Arc::new(sel), false)
                    } else if let Some(hit) =
                        shared.selections.get_sampled(model.fingerprint, key, seed)
                    {
                        // A seed named twice (a retry, a re-asked stage)
                        // is the same pure function as a greedy query.
                        (hit, true)
                    } else {
                        let fresh =
                            Arc::new(session.get_or_insert_with(bind).sample(&env, &mut rng));
                        shared.selections.insert_sampled(
                            model.fingerprint,
                            key,
                            seed,
                            fresh.clone(),
                        );
                        (fresh, false)
                    }
                }
            };
            let reply = QueryReply {
                model: model.name.clone(),
                version: model.version,
                steps: selection.len(),
                batch: batch_size,
                cached,
                selection: selection.iter().map(|e| e.index()).collect(),
            };
            finish(shared, job, Response::Ok(reply));
        }
    }
}

/// Delivers a reply and records completion + latency. A client that hung
/// up is still a completed request — the server held up its side.
fn finish(shared: &Shared, job: Job, response: Response) {
    let latency_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
    rl_ccd_obs::observe!("serve.request.latency_ms", latency_ms);
    rl_ccd_obs::counter!("serve.completed", 1);
    shared.stats.completed.fetch_add(1, Ordering::SeqCst);
    job.reply.send(response);
}

/// The serve port's frame handler: decode, answer probes and rejections
/// on the spot, hand queries to the scheduler with the `Reply` as their
/// completion.
fn serve_frame(shared: &Shared, payload: &[u8], reply: Reply) {
    let _obs = shared.recorder.as_ref().map(rl_ccd_obs::attach);
    let response = match Request::decode(payload) {
        Err(msg) => Response::reject(RejectKind::BadRequest, msg),
        Ok(Request::Health) => Response::Health(shared.health_reply()),
        Ok(Request::Shutdown) => {
            // Acknowledge and hang up; the controlling process sees the
            // flag and calls Server::shutdown.
            shared.draining.store(true, Ordering::SeqCst);
            let ack = Response::Ok(QueryReply {
                model: String::new(),
                version: 0,
                steps: 0,
                batch: 0,
                cached: false,
                selection: vec![],
            });
            return reply.send_and_close(ack.encode());
        }
        Ok(Request::Query(q)) => {
            return shared.submit(
                q,
                ReplySink::new(move |response| reply.send(response.encode())),
            );
        }
    };
    reply.send(response.encode());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::DesignKey;
    use rl_ccd::{RlCcd, RlConfig};

    fn design(name: &str, seed: u64) -> DesignKey {
        DesignKey {
            name: name.into(),
            cells: 360,
            tech: "7nm".into(),
            seed,
        }
    }

    fn registry() -> ModelRegistry {
        let (_, params) = RlCcd::init(RlConfig::fast());
        let reg = ModelRegistry::new();
        reg.insert_params("default", params, 0.3).expect("insert");
        reg
    }

    fn query(model: &str, design_key: DesignKey, mode: Mode) -> QueryRequest {
        QueryRequest {
            model: model.into(),
            design: design_key,
            mode,
            deadline_ms: None,
            auth: None,
        }
    }

    #[test]
    fn serves_greedy_and_sampled_selections_in_process() {
        let server = Server::start(registry(), ServeConfig::default());
        let handle = server.handle();
        let greedy = handle.query(query("default", design("srv", 5), Mode::Greedy));
        let Response::Ok(g) = greedy else {
            panic!("greedy failed: {greedy:?}")
        };
        assert_eq!(g.steps, g.selection.len());
        assert!(!g.selection.is_empty());
        let sampled = handle.query(query("default", design("srv", 5), Mode::Sample(3)));
        let Response::Ok(s) = sampled else {
            panic!("sample failed: {sampled:?}")
        };
        assert!(!s.selection.is_empty());
        // Second greedy on the same design: memoized.
        let again = handle.query(query("default", design("srv", 5), Mode::Greedy));
        let Response::Ok(a) = again else {
            panic!("repeat failed: {again:?}")
        };
        assert!(a.cached, "repeat greedy query must hit the selection cache");
        assert_eq!(a.selection, g.selection);
        let report = server.shutdown();
        assert_eq!(report.dropped(), 0);
        assert_eq!(report.stats.completed, 3);
    }

    #[test]
    fn a_design_too_small_to_generate_is_a_bad_request_and_the_worker_lives() {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(registry(), config);
        let handle = server.handle();
        let tiny: DesignKey = "tiny:5:7nm:1".parse().expect("key");
        let r = handle.query(query("default", tiny, Mode::Greedy));
        assert!(
            matches!(
                r,
                Response::Err {
                    kind: RejectKind::BadRequest,
                    ..
                }
            ),
            "{r:?}"
        );
        // The one worker is still there to answer the next query.
        ok(handle.query(query("default", design("after", 1), Mode::Greedy)));
        assert_eq!(server.shutdown().dropped(), 0);
    }

    #[test]
    fn unknown_model_and_bad_tech_are_typed_errors() {
        let server = Server::start(registry(), ServeConfig::default());
        let handle = server.handle();
        let r = handle.query(query("missing", design("srv", 5), Mode::Greedy));
        assert!(matches!(
            r,
            Response::Err {
                kind: RejectKind::UnknownModel,
                ..
            }
        ));
        let mut bad = design("srv", 5);
        bad.tech = "3nm".into();
        let r = handle.query(query("default", bad, Mode::Greedy));
        assert!(matches!(
            r,
            Response::Err {
                kind: RejectKind::BadRequest,
                ..
            }
        ));
        assert_eq!(server.shutdown().dropped(), 0);
    }

    #[test]
    fn shutdown_rejects_new_queries_and_reports_clean_drain() {
        let server = Server::start(registry(), ServeConfig::default());
        let handle = server.handle();
        let ok = handle.query(query("default", design("drain", 8), Mode::Greedy));
        assert!(matches!(ok, Response::Ok(_)));
        let report = server.shutdown();
        assert_eq!(report.dropped(), 0);
        let after = handle.query(query("default", design("drain", 8), Mode::Greedy));
        assert!(matches!(
            after,
            Response::Err {
                kind: RejectKind::ShuttingDown,
                ..
            }
        ));
    }

    /// Occupies a single-worker server with a cold design (environment
    /// build plus dense encode) and returns once the worker has taken it,
    /// so whatever is submitted next queues behind it as a backlog.
    fn occupy_the_worker(server: &Server) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        let mut cold = design("cold", 99);
        cold.cells = 4000;
        server
            .handle()
            .submit(query("default", cold, Mode::Greedy), move |r| {
                let _ = tx.send(r);
            });
        while server.shared.scheduler.depth() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        rx
    }

    #[test]
    fn expired_deadline_is_answered_not_dropped() {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(registry(), config);
        let handle = server.handle();
        // The job sits in the queue behind the busy worker past its
        // deadline of 0 ms: already expired by the time a worker gets it.
        let busy = occupy_the_worker(&server);
        let mut req = query("default", design("busy", 12), Mode::Greedy);
        req.deadline_ms = Some(0);
        let late = handle.query(req);
        assert!(matches!(
            late,
            Response::Err {
                kind: RejectKind::Deadline,
                ..
            }
        ));
        assert!(matches!(busy.recv().unwrap(), Response::Ok(_)));
        let report = server.shutdown();
        assert_eq!(
            report.dropped(),
            0,
            "deadline errors still count as answered"
        );
        assert!(report.stats.deadline_expired >= 1);
    }

    #[test]
    fn full_queue_sheds_with_typed_overloaded_and_backoff_hint() {
        // Zero queue capacity: every submission is a shed — the
        // deterministic way to pin the typed response.
        let config = ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        let hint = config.shed_retry_after_ms();
        assert!(hint >= 1);
        // 64 queued jobs, 2 workers × 8 per batch: four sweeps of 2 ms.
        assert_eq!(ServeConfig::default().shed_retry_after_ms(), 8);
        let server = Server::start(registry(), config);
        let handle = server.handle();
        let r = handle.query(query("default", design("shed", 1), Mode::Greedy));
        let Response::Overloaded { retry_after_ms } = r else {
            panic!("expected typed Overloaded, got {r:?}");
        };
        assert_eq!(retry_after_ms, hint);
        let stats = handle.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.rejected_busy, 1, "sheds are busy rejections");
        let report = server.shutdown();
        assert_eq!(report.dropped(), 0, "nothing was accepted, nothing owed");
    }

    #[test]
    fn health_probe_reflects_readiness_and_drain() {
        let server = Server::start(registry(), ServeConfig::default());
        let handle = server.handle();
        let h = handle.health();
        assert!(h.ready);
        assert_eq!(h.queue_capacity, ServeConfig::default().queue_capacity);
        assert_eq!(h.models, 1);
        assert_eq!(h.active.len(), 1);
        assert_eq!(h.active[0].name, "default");
        let report = server.shutdown();
        assert_eq!(report.dropped(), 0);
        let h = handle.health();
        assert!(!h.ready, "a draining server is not ready");
        assert_eq!(handle.stats().health_probes, 2);
    }

    #[test]
    fn experience_hook_sees_sampled_queries_with_matching_log_probs() {
        #[derive(Debug, Default)]
        struct Capture(Mutex<Vec<ExperienceEvent>>);
        impl ExperienceHook for Capture {
            fn on_sample(&self, event: ExperienceEvent) {
                self.0.lock().expect("capture lock").push(event);
            }
        }
        let hook = Arc::new(Capture::default());
        let config = ServeConfig {
            experience: Some(hook.clone() as Arc<dyn ExperienceHook>),
            ..ServeConfig::default()
        };
        let server = Server::start(registry(), config);
        let handle = server.handle();
        // A greedy query emits nothing; a sampled one emits one event.
        let g = handle.query(query("default", design("hooked", 4), Mode::Greedy));
        assert!(matches!(g, Response::Ok(_)));
        let r = handle.query(query("default", design("hooked", 4), Mode::Sample(77)));
        let Response::Ok(reply) = r else {
            panic!("sample failed: {r:?}")
        };
        let report = server.shutdown();
        assert_eq!(report.dropped(), 0);
        let events = hook.0.lock().expect("capture lock");
        assert_eq!(events.len(), 1, "one sampled query, one event");
        let e = &events[0];
        assert_eq!(e.model, "default");
        assert_eq!(e.seed, 77);
        assert_eq!(e.design, design("hooked", 4));
        // The event's selection is the one the client got, with log-probs
        // aligned per step.
        let global: Vec<usize> = e.selection.iter().map(|x| x.index()).collect();
        assert_eq!(global, reply.selection);
        assert_eq!(e.log_probs.len(), e.selection.len());
        assert!(e.log_probs.iter().all(|lp| lp.is_finite() && *lp <= 0.0));
        assert_eq!(e.rho, 0.3);
        assert_eq!(e.fanout_cap, ServeConfig::default().fanout_cap);
        // Logged sampling must not have perturbed the served selection:
        // an unhooked server gives the same answer for the same seed.
        let plain = Server::start(registry(), ServeConfig::default());
        let p = plain
            .handle()
            .query(query("default", design("hooked", 4), Mode::Sample(77)));
        let Response::Ok(plain_reply) = p else {
            panic!("plain sample failed: {p:?}")
        };
        assert_eq!(plain_reply.selection, reply.selection);
        assert_eq!(plain.shutdown().dropped(), 0);
    }

    #[test]
    fn a_repeated_seed_is_answered_from_the_memo_unless_it_is_logged() {
        #[derive(Debug, Default)]
        struct Count(AtomicU64);
        impl ExperienceHook for Count {
            fn on_sample(&self, _: ExperienceEvent) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let ask = |handle: &ServeHandle, seed| {
            let r = handle.query(query("default", design("memo", 6), Mode::Sample(seed)));
            let Response::Ok(reply) = r else {
                panic!("sample failed: {r:?}")
            };
            reply
        };
        let plain = Server::start(registry(), ServeConfig::default());
        let first = ask(&plain.handle(), 9);
        let again = ask(&plain.handle(), 9);
        let other = ask(&plain.handle(), 10);
        assert!(!first.cached && again.cached && !other.cached);
        assert_eq!(first.selection, again.selection);
        assert_eq!(plain.shutdown().dropped(), 0);

        // With a hook every sampled query is computed and logged, and the
        // answer is the one the memo would have given.
        let hook = Arc::new(Count::default());
        let config = ServeConfig {
            experience: Some(hook.clone() as Arc<dyn ExperienceHook>),
            ..ServeConfig::default()
        };
        let logged = Server::start(registry(), config);
        let a = ask(&logged.handle(), 9);
        let b = ask(&logged.handle(), 9);
        assert!(!a.cached && !b.cached);
        assert_eq!(a.selection, first.selection);
        assert_eq!(b.selection, first.selection);
        assert_eq!(logged.shutdown().dropped(), 0);
        assert_eq!(hook.0.load(Ordering::SeqCst), 2);
    }

    fn ok(response: Response) -> QueryReply {
        match response {
            Response::Ok(reply) => reply,
            other => panic!("query was not answered: {other:?}"),
        }
    }

    fn indices(selection: &[EndpointId]) -> Vec<usize> {
        selection.iter().map(|e| e.index()).collect()
    }

    #[test]
    fn a_re_registered_model_never_reads_the_old_models_encode() {
        let server = Server::start(registry(), ServeConfig::default());
        let handle = server.handle();
        let key = design("reload", 9);
        // The old parameters warm the store (and both memos).
        ok(handle.query(query("default", key.clone(), Mode::Greedy)));
        ok(handle.query(query("default", key.clone(), Mode::Sample(5))));
        assert_eq!(handle.stats().encode_misses, 1);
        // Same name, same design (so the same shapes), other weights.
        let (model, params) = RlCcd::init(RlConfig {
            seed: 99,
            ..RlConfig::fast()
        });
        server
            .registry()
            .insert_params("default", params.clone(), 0.3)
            .expect("re-register");
        let env = EnvCache::new(1, ServeConfig::default().fanout_cap)
            .get_or_build(&key)
            .expect("env");
        let greedy = ok(handle.query(query("default", key.clone(), Mode::Greedy)));
        assert!(!greedy.cached);
        assert_eq!(
            greedy.selection,
            indices(&rl_ccd::select_endpoints(&model, &params, &env))
        );
        let sampled = ok(handle.query(query("default", key, Mode::Sample(5))));
        assert!(!sampled.cached);
        let want = rl_ccd::sample_endpoints(&model, &params, &env, &mut StdRng::seed_from_u64(5));
        assert_eq!(sampled.selection, indices(&want));
        let stats = server.shutdown().stats;
        assert_eq!(
            (stats.encode_misses, stats.encode_hits),
            (2, 2),
            "one dense encode per fingerprint: {stats}"
        );
    }

    #[test]
    fn an_encode_larger_than_the_budget_is_answered_and_not_stored() {
        let server = Server::start_with(
            registry(),
            ServeConfig::default(),
            EncodeCache::with_budget(1),
        );
        let handle = server.handle();
        let key = design("oversize", 3);
        let (model, params) = RlCcd::init(RlConfig::fast());
        let env = EnvCache::new(1, ServeConfig::default().fanout_cap)
            .get_or_build(&key)
            .expect("env");
        let greedy = ok(handle.query(query("default", key.clone(), Mode::Greedy)));
        assert_eq!(
            greedy.selection,
            indices(&rl_ccd::select_endpoints(&model, &params, &env))
        );
        let sampled = ok(handle.query(query("default", key, Mode::Sample(8))));
        let want = rl_ccd::sample_endpoints(&model, &params, &env, &mut StdRng::seed_from_u64(8));
        assert_eq!(sampled.selection, indices(&want));
        let stats = server.shutdown().stats;
        assert_eq!(
            (stats.encode_hits, stats.encode_misses, stats.encode_bytes),
            (0, 2, 0),
            "{stats}"
        );
    }

    #[test]
    fn an_empty_pool_stores_nothing_and_answers_with_an_empty_selection() {
        // No DesignKey names a clean design (generation calibrates the
        // period to violate), so relax one by hand and open the group's
        // session the way a batch does.
        let mut clean = rl_ccd_netlist::generate(&rl_ccd_netlist::DesignSpec::new(
            "clean",
            300,
            rl_ccd_netlist::TechNode::N7,
            5,
        ));
        clean.period_ps *= 8.0;
        let env = CcdEnv::new(clean, rl_ccd_flow::FlowRecipe::default(), 24);
        assert!(env.pool().is_empty());
        let server = Server::start(registry(), ServeConfig::default());
        let model = server.registry().get("default").expect("registered");
        let mut session = server
            .shared
            .open_session(&model, &design("clean", 5), &env);
        assert!(session.select(&env).is_empty());
        assert!(session
            .sample(&env, &mut StdRng::seed_from_u64(1))
            .is_empty());
        assert!(server.shared.encodes.is_empty());
        let stats = server.shutdown().stats;
        assert_eq!((stats.encode_hits, stats.encode_misses), (0, 0));
    }

    #[test]
    fn batch_census_tracks_dispatch_sizes() {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(registry(), config);
        let handle = server.handle();
        // Warm the env cache so the backlog's queries are fast.
        let _ = handle.query(query("default", design("census", 2), Mode::Greedy));
        // Six queries submitted while the only worker is busy form a
        // backlog, which goes out as batches once it is free.
        let busy = occupy_the_worker(&server);
        let replies: Vec<_> = (0..6)
            .map(|seed| {
                let (tx, rx) = mpsc::channel();
                handle.submit(
                    query("default", design("census", 2), Mode::Sample(seed)),
                    move |r| {
                        let _ = tx.send(r);
                    },
                );
                rx
            })
            .collect();
        assert!(matches!(busy.recv().unwrap(), Response::Ok(_)));
        for rx in replies {
            assert!(matches!(rx.recv().unwrap(), Response::Ok(_)));
        }
        let report = server.shutdown();
        assert_eq!(report.dropped(), 0);
        let total: u64 = report.stats.batches.values().sum();
        assert!(total >= 1);
        let sized: u64 = report
            .stats
            .batches
            .iter()
            .map(|(size, count)| *size as u64 * count)
            .sum();
        assert_eq!(
            sized, report.stats.completed,
            "every reply came out of a batch"
        );
        assert!(
            report.stats.batches.keys().any(|&size| size >= 2),
            "no batch held two requests: {:?}",
            report.stats.batches
        );
    }
}
