//! The daemon proper: a multi-tenant front-end wrapped around the serve
//! core, plus the admin port that drives hot reload and promotion.
//!
//! Two ports, two protocols, one listener implementation — both are
//! [`rl_ccd_wire::front`] (the same front-end the serve port binds) with
//! a different frame handler:
//!
//! * the **tenant port** speaks `rl-ccd-serve v1` — every query must
//!   carry [`Credentials`](rl_ccd_serve::Credentials); the
//!   [`TenantBook`] authenticates and
//!   throttles it, canary routing may rewrite the champion slot to the
//!   challenger, and only then does the request enter the serving queue
//!   with the connection's `Reply` as its completion;
//! * the **admin port** speaks `rl-ccd-admin v1` — checkpoint loads,
//!   gate runs, promote/rollback, tenant CRUD, drain. Every command runs
//!   on a thread of its own, so `status` answers while a `gate` or a
//!   `retrain` is still running on another connection.
//!
//! Promotion is zero-downtime by construction: `load` verifies and warms
//! the challenger off the request path, `promote` is one atomic registry
//! swap, and in-flight batches finish on the model version they resolved.

use crate::admin::{AdminReply, AdminRequest, DaemonStatus};
use crate::clock::Clock;
use crate::promotion::{Promoter, CHALLENGER, CHAMPION};
use crate::tenant::{constant_time_eq, Admission, TenantBook, TenantConfig, TenantSummary};
use rl_ccd::gate::GateSpec;
use rl_ccd_obs::escape_json;
use rl_ccd_serve::{
    DrainReport, ModelRegistry, ModelVersion, RejectKind, Request, Response, ServeConfig,
    ServeHandle, Server,
};
use rl_ccd_wire::fields::quote;
use rl_ccd_wire::front::{self, Front, FrontOptions, Reply, Threads};
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon tuning: the serving core's knobs plus tenancy and promotion.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Serving-core configuration (batching, queue, workers, caches).
    pub serve: ServeConfig,
    /// Cone-overlap threshold applied to admin-loaded checkpoints when
    /// the `load` command does not override it.
    pub rho: f32,
    /// The held-out eval gate promotion is scored with.
    pub gate: GateSpec,
    /// Admin-port auth token; `None` trusts the (loopback) peer.
    pub admin_token: Option<String>,
    /// Where promote/rollback/canary audit records are appended (JSONL).
    pub audit_path: Option<PathBuf>,
    /// Where per-tenant usage is flushed (JSONL) — at shutdown, and
    /// periodically when [`DaemonConfig::usage_flush_ms`] is non-zero.
    pub usage_path: Option<PathBuf>,
    /// Flush per-tenant usage every this many clock milliseconds (0
    /// disables periodic flushing; shutdown always flushes). A crashed
    /// daemon then loses at most one window of usage accounting.
    pub usage_flush_ms: u64,
    /// Where sampled-query experience records are appended
    /// (`rl-ccd-exp v1` JSONL). When set, the daemon installs an
    /// [`rl_ccd_exp::ExpSink`] on the serving core and drains it at
    /// shutdown — the logging half of the closed learning loop.
    pub experience_path: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            serve: ServeConfig::default(),
            rho: 0.3,
            gate: GateSpec::quick(0xCCD),
            admin_token: None,
            audit_path: None,
            usage_path: None,
            usage_flush_ms: 0,
            experience_path: None,
        }
    }
}

/// Final accounting returned by [`Daemon::shutdown`].
#[derive(Clone, Debug)]
pub struct DaemonReport {
    /// The serving core's drain report (`dropped()` must be 0).
    pub drain: DrainReport,
    /// Every tenant's final usage counters.
    pub tenants: Vec<TenantSummary>,
    /// The experience sink's accounting, when experience logging was on.
    pub experience: Option<rl_ccd_exp::SinkReport>,
}

struct DaemonShared {
    handle: ServeHandle,
    tenants: TenantBook,
    promoter: Promoter,
    rho: f32,
    admin_token: Option<String>,
    /// The daemon is shutting down (set by [`Daemon::shutdown`]).
    draining: AtomicBool,
    /// An admin asked for a drain (the daemon's owner polls this).
    drain_requested: AtomicBool,
    recorder: Option<rl_ccd_obs::Recorder>,
    write_timeout: Duration,
    sock_send_buffer: Option<usize>,
    /// Admin commands still running.
    admin_jobs: Threads,
}

impl std::fmt::Debug for DaemonShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonShared")
            .field("tenants", &self.tenants.len())
            .field("draining", &self.draining.load(Ordering::SeqCst))
            .finish()
    }
}

/// A running multi-tenant daemon.
#[derive(Debug)]
pub struct Daemon {
    server: Server,
    shared: Arc<DaemonShared>,
    usage_path: Option<PathBuf>,
    experience: Option<Arc<rl_ccd_exp::ExpSink>>,
    usage_flusher: Option<JoinHandle<()>>,
    query_front: Option<Front>,
    admin_front: Option<Front>,
}

impl Daemon {
    /// Starts the daemon over `registry` (typically with the champion
    /// slot already loaded). `clock` drives rate limits and quotas —
    /// [`crate::SystemClock`] in production, [`crate::ManualClock`] in
    /// tests.
    ///
    /// # Panics
    /// When [`DaemonConfig::experience_path`] is set but the log file
    /// cannot be opened — a daemon asked to log experience must not come
    /// up silently lossy.
    pub fn start(registry: ModelRegistry, config: DaemonConfig, clock: Arc<dyn Clock>) -> Self {
        let (write_timeout, sock_send_buffer) =
            (config.serve.write_timeout, config.serve.sock_send_buffer);
        let mut serve_config = config.serve.clone();
        let experience = config
            .experience_path
            .as_ref()
            .map(|path| rl_ccd_exp::ExpSink::create(path).expect("open experience log"));
        if let Some(sink) = &experience {
            serve_config.experience = Some(sink.clone() as Arc<dyn rl_ccd_serve::ExperienceHook>);
        }
        let server = Server::start(registry, serve_config);
        let shared = Arc::new(DaemonShared {
            handle: server.handle(),
            tenants: TenantBook::new(clock.clone()),
            promoter: Promoter::new(config.gate, clock.clone(), config.audit_path),
            rho: config.rho,
            admin_token: config.admin_token,
            draining: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            recorder: rl_ccd_obs::current(),
            write_timeout,
            sock_send_buffer,
            admin_jobs: Threads::default(),
        });
        let usage_flusher = match (&config.usage_path, config.usage_flush_ms) {
            (Some(path), interval_ms) if interval_ms > 0 => Some(spawn_usage_flusher(
                shared.clone(),
                path.clone(),
                clock,
                interval_ms,
            )),
            _ => None,
        };
        Self {
            server,
            shared,
            usage_path: config.usage_path,
            experience,
            usage_flusher,
            query_front: None,
            admin_front: None,
        }
    }

    /// The tenant table (admin port and CLI mutate it through here).
    pub fn tenants(&self) -> &TenantBook {
        &self.shared.tenants
    }

    /// The promotion state machine.
    pub fn promoter(&self) -> &Promoter {
        &self.shared.promoter
    }

    /// The live model registry (shared with the serving core).
    pub fn registry(&self) -> &ModelRegistry {
        self.server.registry()
    }

    /// An in-process serving handle that bypasses tenancy — for the
    /// owning process only; network tenants always pass the book.
    pub fn handle(&self) -> ServeHandle {
        self.server.handle()
    }

    /// Whether an admin `drain` command has been received; the owner
    /// polls this and then calls [`Daemon::shutdown`].
    pub fn drain_requested(&self) -> bool {
        self.shared.drain_requested.load(Ordering::SeqCst)
    }

    /// Binds the tenant query port. Returns the bound address.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind_query(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let front = self.bind_port(addr, "daemon-query", tenant_frame)?;
        Ok(self.query_front.insert(front).local_addr())
    }

    /// Binds the admin control port. Returns the bound address.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind_admin(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let front = self.bind_port(addr, "daemon-admin", admin_frame)?;
        Ok(self.admin_front.insert(front).local_addr())
    }

    /// One port on the shared front-end, with the serving core's
    /// connection limits and `handler` run on every frame.
    fn bind_port(
        &self,
        addr: &str,
        name: &'static str,
        handler: fn(&Arc<DaemonShared>, &[u8], Reply),
    ) -> std::io::Result<Front> {
        let options = FrontOptions {
            name,
            max_frame_len: rl_ccd_wire::MAX_FRAME_LEN,
            write_timeout: self.shared.write_timeout,
            sock_send_buffer: self.shared.sock_send_buffer,
        };
        let shared = self.shared.clone();
        front::bind(addr, options, Arc::default(), move |payload, reply| {
            let _obs = shared.recorder.as_ref().map(rl_ccd_obs::attach);
            handler(&shared, &payload, reply);
        })
    }

    /// The bound tenant-port address, if [`Daemon::bind_query`] ran.
    pub fn query_addr(&self) -> Option<SocketAddr> {
        self.query_front.as_ref().map(Front::local_addr)
    }

    /// The bound admin-port address, if [`Daemon::bind_admin`] ran.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_front.as_ref().map(Front::local_addr)
    }

    /// Graceful shutdown: stop accepting, answer everything in flight, flush
    /// per-tenant usage to the configured JSONL file, drain the serving
    /// core and the experience sink, and report the final accounting.
    pub fn shutdown(self) -> DaemonReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        // The serving core and the admin jobs are still running, so both
        // ports can deliver every answer they owe before they close.
        for front in [self.query_front, self.admin_front].into_iter().flatten() {
            front.shutdown();
        }
        self.shared.admin_jobs.join_all();
        if let Some(flusher) = self.usage_flusher {
            let _ = flusher.join();
        }
        let tenants = self.shared.tenants.summaries();
        if let Some(path) = &self.usage_path {
            let _ = write_usage_jsonl(path, &tenants);
        }
        let drain = self.server.shutdown();
        // The serving core is drained, so every sampled query's event has
        // been enqueued; finish() drains the sink's backlog in turn.
        let experience = self.experience.and_then(|sink| sink.finish());
        DaemonReport {
            drain,
            tenants,
            experience,
        }
    }
}

/// Flushes per-tenant usage counters as versioned JSONL. The write is
/// atomic (temp file + rename) so a crash mid-flush can only lose the
/// window being written, never corrupt the previous snapshot.
fn write_usage_jsonl(path: &PathBuf, tenants: &[TenantSummary]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        for t in tenants {
            writeln!(
                f,
                "{{\"v\":\"rl-ccd-usage v1\",\"tenant\":\"{}\",\"accepted\":{},\"denied\":{},\"throttled\":{},\"used_in_window\":{},\"monthly_quota\":{}}}",
                escape_json(&t.id),
                t.usage.accepted,
                t.usage.denied,
                t.usage.throttled,
                t.usage.used_in_window,
                t.monthly_quota
            )?;
        }
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Spawns the periodic usage flusher: every `interval_ms` *clock*
/// milliseconds it snapshots tenant usage to `path`. The thread polls
/// the injected clock with short real sleeps, so tests drive it with a
/// [`crate::ManualClock`] and production gets wall-clock cadence.
fn spawn_usage_flusher(
    shared: Arc<DaemonShared>,
    path: PathBuf,
    clock: Arc<dyn Clock>,
    interval_ms: u64,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("daemon-usage-flush".into())
        .spawn(move || {
            let _obs = shared.recorder.as_ref().map(rl_ccd_obs::attach);
            let mut last_flush = clock.now_ms();
            while !shared.draining.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(10));
                let now = clock.now_ms();
                if now.saturating_sub(last_flush) >= interval_ms {
                    last_flush = now;
                    if write_usage_jsonl(&path, &shared.tenants.summaries()).is_ok() {
                        rl_ccd_obs::counter!("daemon.usage.flushed", 1);
                    }
                }
            }
        })
        .expect("spawn usage flusher")
}

/// The tenant port's frame handler: decode, admit, canary, then queue
/// the query with the `Reply` as its completion. Everything short of a
/// granted query is answered on the spot.
fn tenant_frame(shared: &Arc<DaemonShared>, payload: &[u8], reply: Reply) {
    let response = match Request::decode(payload) {
        Err(msg) => Response::reject(RejectKind::BadRequest, msg),
        Ok(Request::Health) => Response::Health(shared.handle.health()),
        Ok(Request::Shutdown) => Response::reject(
            RejectKind::Denied,
            "admin operations are not available on the tenant port",
        ),
        Ok(Request::Query(mut q)) => match q.auth.take() {
            None => Response::reject(RejectKind::Denied, "credentials required"),
            Some(creds) => match shared.tenants.admit(&creds) {
                Admission::Denied(msg) => {
                    tenant_counter("daemon.tenant.denied", &creds.tenant);
                    Response::reject(RejectKind::Denied, msg)
                }
                Admission::Throttled { retry_after_ms } => {
                    tenant_counter("daemon.tenant.throttled", &creds.tenant);
                    Response::QuotaExceeded { retry_after_ms }
                }
                Admission::Granted => {
                    // Canary: a tenant-stable fraction of champion traffic
                    // is answered by the challenger, when one is staged.
                    if q.model == CHAMPION
                        && shared.promoter.routes_to_challenger(&creds.tenant)
                        && shared.handle.registry().get(CHALLENGER).is_some()
                    {
                        q.model = CHALLENGER.to_string();
                    }
                    let started = Instant::now();
                    // Runs on the serve worker that has the answer (it
                    // carries the same recorder), or right here on a shed.
                    return shared.handle.submit(q, move |response| {
                        tenant_counter("daemon.tenant.accepted", &creds.tenant);
                        rl_ccd_obs::with_recorder(|r| {
                            r.metrics()
                                .labeled_histogram("daemon.tenant.latency_ms", &creds.tenant)
                                .observe(started.elapsed().as_secs_f64() * 1e3);
                        });
                        reply.send(response.encode());
                    });
                }
            },
        },
    };
    reply.send(response.encode());
}

fn tenant_counter(name: &'static str, tenant: &str) {
    rl_ccd_obs::with_recorder(|r| {
        r.metrics().labeled_counter(name, tenant).add(1);
    });
}

fn slot_identity(registry: &ModelRegistry, slot: &str) -> Option<ModelVersion> {
    registry.get(slot).map(|m| ModelVersion {
        name: m.name.clone(),
        version: m.version,
        fingerprint: m.fingerprint,
    })
}

/// The admin port's frame handler: decode and authenticate on the spot,
/// then run the command on a thread of its own — a gate or a retrain
/// takes seconds to minutes, and the thread that called this handler is
/// the one every other admin connection is waiting on.
fn admin_frame(shared: &Arc<DaemonShared>, payload: &[u8], reply: Reply) {
    let refuse = |reply: Reply, msg: String| reply.send(AdminReply::Err { msg }.encode());
    let (request, token) = match AdminRequest::decode(payload) {
        Ok(decoded) => decoded,
        Err(msg) => return refuse(reply, msg),
    };
    if let Some(expected) = &shared.admin_token {
        let provided = token.unwrap_or_default();
        if !constant_time_eq(provided.as_bytes(), expected.as_bytes()) {
            return refuse(reply, "unauthorized".into());
        }
    }
    let job = shared.clone();
    // If the thread cannot be spawned the closure (and the `Reply` in it)
    // is dropped, which closes the connection.
    let _ = shared.admin_jobs.spawn("daemon-admin-job".into(), move || {
        let _obs = job.recorder.as_ref().map(rl_ccd_obs::attach);
        reply.send(run_admin_command(&job, request).encode());
    });
}

/// Executes one authenticated admin command.
fn run_admin_command(shared: &DaemonShared, request: AdminRequest) -> AdminReply {
    let registry = shared.handle.registry();
    match request {
        AdminRequest::Status => {
            let health = shared.handle.health();
            AdminReply::Status(DaemonStatus {
                ready: health.ready && !shared.draining.load(Ordering::SeqCst),
                queue_depth: health.queue_depth,
                champion: slot_identity(registry, CHAMPION),
                challenger: slot_identity(registry, CHALLENGER),
                canary: shared.promoter.canary_fraction(),
                tenants: shared.tenants.len(),
            })
        }
        AdminRequest::Load { slot, dir, rho } => {
            if slot != CHAMPION && slot != CHALLENGER {
                return AdminReply::Err {
                    msg: format!("slot must be {CHAMPION:?} or {CHALLENGER:?}, got {slot:?}"),
                };
            }
            let rho = if rho.is_finite() && rho > 0.0 {
                rho
            } else {
                shared.rho
            };
            // Verify + assemble on this job's thread, off the request
            // path; install is the atomic pointer swap.
            match ModelRegistry::prepare(&slot, &dir, rho) {
                Ok(entry) => {
                    let identity = ModelVersion {
                        name: entry.name.clone(),
                        version: entry.version,
                        fingerprint: entry.fingerprint,
                    };
                    registry.install(entry);
                    shared
                        .promoter
                        .note("load", format!("{slot} <- {dir}: {identity}"));
                    AdminReply::Ok {
                        info: format!("loaded {identity}"),
                    }
                }
                Err(e) => AdminReply::Err {
                    msg: format!("load {dir}: {e}"),
                },
            }
        }
        AdminRequest::Gate => match shared.promoter.run_gate(registry) {
            Ok(verdict) => AdminReply::Ok {
                info: verdict.summary(),
            },
            Err(msg) => AdminReply::Err { msg },
        },
        AdminRequest::Promote { force } => match shared.promoter.promote(registry, force) {
            Ok((verdict, identity)) => AdminReply::Ok {
                info: format!(
                    "promoted {identity}; gate: {}",
                    verdict.map_or("skipped (no champion)".to_string(), |v| v.summary())
                ),
            },
            Err(msg) => AdminReply::Err { msg },
        },
        AdminRequest::Rollback => match shared.promoter.rollback(registry) {
            Ok(identity) => AdminReply::Ok {
                info: format!("rolled back to {identity}"),
            },
            Err(msg) => AdminReply::Err { msg },
        },
        AdminRequest::Canary { fraction } => match shared.promoter.set_canary(fraction) {
            Ok(()) => AdminReply::Ok {
                info: format!("canary fraction {fraction}"),
            },
            Err(msg) => AdminReply::Err { msg },
        },
        AdminRequest::TenantAdd { spec } => match spec.parse::<TenantConfig>() {
            Ok(config) => {
                let id = config.id.clone();
                let replaced = shared.tenants.add(config);
                AdminReply::Ok {
                    info: format!(
                        "{} tenant {id}",
                        if replaced { "replaced" } else { "added" }
                    ),
                }
            }
            Err(msg) => AdminReply::Err { msg },
        },
        AdminRequest::TenantDel { id } => {
            if shared.tenants.remove(&id) {
                AdminReply::Ok {
                    info: format!("removed tenant {id}"),
                }
            } else {
                AdminReply::Err {
                    msg: format!("no tenant {}", quote(&id)),
                }
            }
        }
        AdminRequest::TenantList => AdminReply::Tenants(shared.tenants.summaries()),
        AdminRequest::Retrain {
            base,
            log,
            out,
            seed,
            steps,
        } => {
            let cfg = rl_ccd_exp::RetrainConfig {
                seed,
                steps,
                ..rl_ccd_exp::RetrainConfig::default()
            };
            // Retraining happens on this job's thread, off the request
            // path; tenants keep being served by the installed models.
            match rl_ccd_exp::retrain(&base, &log, &out, &cfg) {
                Ok(report) => match ModelRegistry::prepare(CHALLENGER, &out, shared.rho) {
                    Ok(entry) => {
                        let identity = ModelVersion {
                            name: entry.name.clone(),
                            version: entry.version,
                            fingerprint: entry.fingerprint,
                        };
                        registry.install(entry);
                        shared.promoter.note(
                            "retrain",
                            format!(
                                "challenger <- {out}: {identity} ({} records, {} offline steps)",
                                report.records_loaded, report.steps_taken
                            ),
                        );
                        AdminReply::Ok {
                            info: format!(
                                "retrained and staged {identity}: {} records, {} offline steps, \
                                 mean importance weight {:.3}, effective sample size {:.2}, \
                                 clamped share {:.3}",
                                report.records_loaded,
                                report.steps_taken,
                                report.mean_importance_weight,
                                report.effective_sample_size,
                                report.clamped_share
                            ),
                        }
                    }
                    Err(e) => AdminReply::Err {
                        msg: format!("retrained but could not stage {out}: {e}"),
                    },
                },
                Err(e) => AdminReply::Err {
                    msg: format!("retrain: {e}"),
                },
            }
        }
        AdminRequest::Drain => {
            shared.drain_requested.store(true, Ordering::SeqCst);
            AdminReply::Ok {
                info: "draining".into(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::AdminClient;
    use crate::clock::ManualClock;
    use rl_ccd::{RlCcd, RlConfig};
    use rl_ccd_serve::protocol::{Credentials, DesignKey, Mode, QueryRequest};
    use rl_ccd_serve::ServeClient;

    fn registry() -> ModelRegistry {
        let (_, params) = RlCcd::init(RlConfig::fast());
        let reg = ModelRegistry::new();
        reg.insert_params(CHAMPION, params, 0.3).expect("insert");
        reg
    }

    fn query(auth: Option<Credentials>) -> QueryRequest {
        QueryRequest {
            model: CHAMPION.into(),
            design: DesignKey {
                name: "dmn".into(),
                cells: 360,
                tech: "7nm".into(),
                seed: 5,
            },
            mode: Mode::Greedy,
            deadline_ms: Some(30_000),
            auth,
        }
    }

    fn creds(tenant: &str, token: &str) -> Option<Credentials> {
        Some(Credentials {
            tenant: tenant.into(),
            token: token.into(),
        })
    }

    fn started_daemon(clock: &ManualClock) -> Daemon {
        let mut daemon =
            Daemon::start(registry(), DaemonConfig::default(), Arc::new(clock.clone()));
        daemon
            .tenants()
            .add("acme:s3cret:1000:1000:1000000".parse().unwrap());
        daemon.bind_query("127.0.0.1:0").expect("bind query");
        daemon.bind_admin("127.0.0.1:0").expect("bind admin");
        daemon
    }

    #[test]
    fn tenant_port_requires_valid_credentials() {
        let clock = ManualClock::at(0);
        let daemon = started_daemon(&clock);
        let addr = daemon.query_addr().unwrap();
        let mut client = ServeClient::connect(addr).expect("connect");
        // No credentials.
        let r = client.query(query(None)).unwrap();
        assert!(
            matches!(&r, Response::Err { kind: RejectKind::Denied, msg } if msg.contains("credentials")),
            "{r:?}"
        );
        // Admin operations are not served here, whoever asks.
        let r = client.shutdown().unwrap();
        assert!(
            matches!(&r, Response::Err { kind: RejectKind::Denied, msg } if msg.contains("tenant port")),
            "{r:?}"
        );
        // Bad token.
        let r = client.query(query(creds("acme", "wrong"))).unwrap();
        assert!(matches!(
            r,
            Response::Err {
                kind: RejectKind::Denied,
                ..
            }
        ));
        // Valid credentials reach the model.
        let r = client.query(query(creds("acme", "s3cret"))).unwrap();
        let Response::Ok(reply) = r else {
            panic!("expected selection, got {r:?}")
        };
        assert_eq!(reply.model, CHAMPION);
        assert!(!reply.selection.is_empty());
        let report = daemon.shutdown();
        assert_eq!(report.drain.dropped(), 0);
        let acme = &report.tenants[0];
        assert_eq!(acme.usage.accepted, 1);
        assert_eq!(acme.usage.denied, 1);
    }

    #[test]
    fn tenant_port_answers_with_a_thousand_idle_connections_parked() {
        let clock = ManualClock::at(0);
        let daemon = started_daemon(&clock);
        let addr = daemon.query_addr().unwrap();
        let idle: Vec<std::net::TcpStream> = (0..1000)
            .map(|i| {
                std::net::TcpStream::connect(addr)
                    .unwrap_or_else(|e| panic!("idle tenant connection {i}: {e}"))
            })
            .collect();
        let mut client = ServeClient::connect(addr).expect("connect");
        let r = client.query(query(creds("acme", "s3cret"))).unwrap();
        assert!(matches!(r, Response::Ok(_)), "{r:?}");
        drop(idle);
        assert_eq!(daemon.shutdown().drain.dropped(), 0);
    }

    #[test]
    fn admin_status_answers_while_a_gate_runs_on_another_connection() {
        use rl_ccd_netlist::{DesignSpec, TechNode};
        use rl_ccd_wire::{read_frame, write_frame};
        // A gate heavy enough (six 1 500-cell designs, scored twice) to
        // outlast a status roundtrip by orders of magnitude.
        let gate = GateSpec {
            designs: (0..6)
                .map(|i| DesignSpec::new(format!("slow{i}"), 1500, TechNode::N7, 40 + i))
                .collect(),
            ..GateSpec::quick(0xCCD)
        };
        let config = DaemonConfig {
            gate,
            ..DaemonConfig::default()
        };
        let mut daemon = Daemon::start(registry(), config, Arc::new(ManualClock::at(0)));
        daemon.bind_admin("127.0.0.1:0").expect("bind admin");
        let (_, params) = RlCcd::init(RlConfig::fast());
        daemon
            .registry()
            .insert_params(CHALLENGER, params, 0.3)
            .expect("stage challenger");
        let addr = daemon.admin_addr().unwrap();
        // Connection one asks for a gate run and does not wait for it.
        let mut gate = std::net::TcpStream::connect(addr).expect("connect");
        write_frame(&mut gate, &AdminRequest::Gate.encode(None)).expect("send gate");
        // Connection two gets its status while the gate is still running:
        // were the gate run on the thread that serves the port, this call
        // would return only after the gate's answer had been written.
        let admin = AdminClient::new(addr, None);
        let status = admin.call(&AdminRequest::Status).unwrap();
        assert!(matches!(status, AdminReply::Status(_)), "{status:?}");
        gate.set_nonblocking(true).expect("nonblocking");
        let mut probe = [0u8; 1];
        let early = gate.peek(&mut probe);
        assert!(
            matches!(&early, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
            "gate answered before status did: {early:?}"
        );
        gate.set_nonblocking(false).expect("blocking");
        let verdict = AdminReply::decode(&read_frame(&mut gate).expect("gate reply")).unwrap();
        assert!(matches!(verdict, AdminReply::Ok { .. }), "{verdict:?}");
        assert_eq!(daemon.shutdown().drain.dropped(), 0);
    }

    #[test]
    fn throttled_tenant_gets_quota_exceeded_with_the_refill_hint() {
        let clock = ManualClock::at(0);
        let mut daemon =
            Daemon::start(registry(), DaemonConfig::default(), Arc::new(clock.clone()));
        // 1 req/s, burst 1: the second immediate request throttles.
        daemon.tenants().add("slow:tok:1:1:100".parse().unwrap());
        let addr = daemon.bind_query("127.0.0.1:0").expect("bind");
        let mut client = ServeClient::connect(addr).expect("connect");
        assert!(matches!(
            client.query(query(creds("slow", "tok"))).unwrap(),
            Response::Ok(_)
        ));
        let r = client.query(query(creds("slow", "tok"))).unwrap();
        let Response::QuotaExceeded { retry_after_ms } = r else {
            panic!("expected QuotaExceeded, got {r:?}")
        };
        assert_eq!(retry_after_ms, 1_000, "one token at 1/s is a second away");
        assert_eq!(daemon.shutdown().drain.dropped(), 0);
    }

    #[test]
    fn admin_port_drives_status_tenants_and_drain() {
        let clock = ManualClock::at(0);
        let daemon = started_daemon(&clock);
        let admin = AdminClient::new(daemon.admin_addr().unwrap(), None);
        let AdminReply::Status(status) = admin.call(&AdminRequest::Status).unwrap() else {
            panic!("expected status")
        };
        assert!(status.ready);
        assert_eq!(status.tenants, 1);
        assert_eq!(status.champion.as_ref().unwrap().name, CHAMPION);
        assert!(status.challenger.is_none());
        assert_eq!(status.canary, 0.0);
        // Tenant CRUD over the wire.
        let r = admin
            .call(&AdminRequest::TenantAdd {
                spec: "globex:tok2:5:5:10".into(),
            })
            .unwrap();
        assert!(matches!(r, AdminReply::Ok { .. }), "{r:?}");
        let AdminReply::Tenants(list) = admin.call(&AdminRequest::TenantList).unwrap() else {
            panic!("expected tenants")
        };
        assert_eq!(list.len(), 2);
        assert_eq!(list[1].id, "globex");
        let r = admin
            .call(&AdminRequest::TenantDel {
                id: "globex".into(),
            })
            .unwrap();
        assert!(matches!(r, AdminReply::Ok { .. }));
        let r = admin
            .call(&AdminRequest::TenantDel {
                id: "globex".into(),
            })
            .unwrap();
        assert!(matches!(r, AdminReply::Err { .. }), "double delete errors");
        // Drain request is surfaced to the owner, not executed inline.
        assert!(!daemon.drain_requested());
        let r = admin.call(&AdminRequest::Drain).unwrap();
        assert!(matches!(r, AdminReply::Ok { .. }));
        assert!(daemon.drain_requested());
        assert_eq!(daemon.shutdown().drain.dropped(), 0);
    }

    #[test]
    fn admin_token_gates_every_command() {
        let clock = ManualClock::at(0);
        let mut daemon = Daemon::start(
            registry(),
            DaemonConfig {
                admin_token: Some("hunter2".into()),
                ..DaemonConfig::default()
            },
            Arc::new(clock.clone()),
        );
        let addr = daemon.bind_admin("127.0.0.1:0").expect("bind admin");
        let anonymous = AdminClient::new(addr, None);
        let r = anonymous.call(&AdminRequest::Status).unwrap();
        assert!(
            matches!(&r, AdminReply::Err { msg } if msg == "unauthorized"),
            "{r:?}"
        );
        let wrong = AdminClient::new(addr, Some("guess".into()));
        assert!(matches!(
            wrong.call(&AdminRequest::Status).unwrap(),
            AdminReply::Err { .. }
        ));
        let authed = AdminClient::new(addr, Some("hunter2".into()));
        assert!(matches!(
            authed.call(&AdminRequest::Status).unwrap(),
            AdminReply::Status(_)
        ));
        assert_eq!(daemon.shutdown().drain.dropped(), 0);
    }

    #[test]
    fn usage_flushes_periodically_on_the_injected_clock() {
        let dir = std::env::temp_dir().join("rl_ccd_daemon_usage_periodic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("usage.jsonl");
        std::fs::remove_file(&path).ok();
        let clock = ManualClock::at(0);
        let mut daemon = Daemon::start(
            registry(),
            DaemonConfig {
                usage_path: Some(path.clone()),
                usage_flush_ms: 1_000,
                ..DaemonConfig::default()
            },
            Arc::new(clock.clone()),
        );
        daemon.tenants().add("acme:tok:10:10:100".parse().unwrap());
        let addr = daemon.bind_query("127.0.0.1:0").expect("bind");
        let mut client = ServeClient::connect(addr).expect("connect");
        assert!(matches!(
            client.query(query(creds("acme", "tok"))).unwrap(),
            Response::Ok(_)
        ));
        assert!(!path.exists(), "no window elapsed, nothing flushed yet");
        // One window elapses on the manual clock; the flusher (which
        // polls with short real sleeps) must snapshot without a shutdown.
        clock.advance(1_001);
        let mut flushed = String::new();
        for _ in 0..500 {
            std::thread::sleep(Duration::from_millis(10));
            if let Ok(text) = std::fs::read_to_string(&path) {
                if !text.is_empty() {
                    flushed = text;
                    break;
                }
            }
        }
        assert!(
            flushed.contains("\"tenant\":\"acme\"") && flushed.contains("\"accepted\":1"),
            "periodic flush missing or wrong: {flushed:?}"
        );
        daemon.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn experience_logging_feeds_retrain_which_stages_the_challenger() {
        use rl_ccd::{save_training_state, TrainingState};
        let dir = std::env::temp_dir().join("rl_ccd_daemon_closed_loop");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let base_dir = dir.join("base");
        let out_dir = dir.join("retrained");
        let exp_path = dir.join("exp.jsonl");
        let config = RlConfig::fast();
        let (_, params) = RlCcd::init(config.clone());
        let state = TrainingState {
            next_iteration: 0,
            seed_base: config.seed,
            best_reward: -1.0e9,
            best_mean: -1.0e9,
            stale: 0,
            best_selection: vec![],
            params,
            adam: rl_ccd_nn::Adam::new(config.learning_rate),
            history: vec![],
            faults: vec![],
        };
        save_training_state(&state, &base_dir).expect("save base");
        let serve_one = |exp_on: bool| {
            let reg = ModelRegistry::new();
            reg.load(CHAMPION, &base_dir, 0.3).expect("load champion");
            let mut daemon = Daemon::start(
                reg,
                DaemonConfig {
                    experience_path: exp_on.then(|| exp_path.clone()),
                    ..DaemonConfig::default()
                },
                Arc::new(ManualClock::at(0)),
            );
            daemon
                .tenants()
                .add("acme:tok:100:100:1000".parse().unwrap());
            let addr = daemon.bind_query("127.0.0.1:0").expect("bind");
            let mut client = ServeClient::connect(addr).expect("connect");
            for seed in 0..4u64 {
                let mut q = query(creds("acme", "tok"));
                q.mode = Mode::Sample(seed);
                assert!(matches!(client.query(q).unwrap(), Response::Ok(_)));
            }
            daemon
        };
        // Phase 1: serve sampled traffic with logging on; the drain
        // report accounts for every record.
        let report = serve_one(true).shutdown();
        let sink = report.experience.expect("sink report");
        assert!(sink.written >= 1, "{sink:?}");
        assert_eq!(sink.dropped, 0);
        assert_eq!(sink.failed, 0);
        // Phase 2: a fresh daemon retrains from the captured log over the
        // admin port; the result lands in the challenger slot only.
        let reg = ModelRegistry::new();
        reg.load(CHAMPION, &base_dir, 0.3).expect("load champion");
        let mut daemon = Daemon::start(reg, DaemonConfig::default(), Arc::new(ManualClock::at(0)));
        daemon.bind_admin("127.0.0.1:0").expect("bind admin");
        let admin = AdminClient::new(daemon.admin_addr().unwrap(), None);
        let reply = admin
            .call(&AdminRequest::Retrain {
                base: base_dir.display().to_string(),
                log: exp_path.display().to_string(),
                out: out_dir.display().to_string(),
                seed: 0xE1,
                steps: 2,
            })
            .unwrap();
        let AdminReply::Ok { info } = reply else {
            panic!("retrain failed: {reply:?}")
        };
        assert!(info.contains("staged"), "{info}");
        let AdminReply::Status(status) = admin.call(&AdminRequest::Status).unwrap() else {
            panic!("expected status")
        };
        assert_eq!(status.champion.as_ref().unwrap().version, 0);
        let challenger = status.challenger.expect("challenger staged");
        assert_eq!(challenger.version, 2, "version bumps by the step count");
        // Phase 3: promotion is the only path to tenants.
        let reply = admin.call(&AdminRequest::Promote { force: true }).unwrap();
        assert!(matches!(reply, AdminReply::Ok { .. }), "{reply:?}");
        let AdminReply::Status(status) = admin.call(&AdminRequest::Status).unwrap() else {
            panic!("expected status")
        };
        assert_eq!(status.champion.as_ref().unwrap().version, 2);
        assert_eq!(daemon.shutdown().drain.dropped(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_flushes_usage_jsonl() {
        let dir = std::env::temp_dir().join("rl_ccd_daemon_usage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("usage.jsonl");
        std::fs::remove_file(&path).ok();
        let clock = ManualClock::at(0);
        let mut daemon = Daemon::start(
            registry(),
            DaemonConfig {
                usage_path: Some(path.clone()),
                ..DaemonConfig::default()
            },
            Arc::new(clock.clone()),
        );
        daemon.tenants().add("acme:tok:10:10:100".parse().unwrap());
        let addr = daemon.bind_query("127.0.0.1:0").expect("bind");
        let mut client = ServeClient::connect(addr).expect("connect");
        assert!(matches!(
            client.query(query(creds("acme", "tok"))).unwrap(),
            Response::Ok(_)
        ));
        daemon.shutdown();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"v\":\"rl-ccd-usage v1\""), "{text}");
        assert!(text.contains("\"tenant\":\"acme\""), "{text}");
        assert!(text.contains("\"accepted\":1"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
