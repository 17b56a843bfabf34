//! The query path: closed-loop clients against the serving core at every
//! depth it can be entered (direct inference, in-process handle, the two
//! TCP front-ends, the daemon's tenant port), the offline oracle every
//! reply is checked against, and the standalone costs of the pieces a
//! front-end adds.

use crate::design::{Picked, Query};
use crate::stats::{median, window_tails};
use crate::train::ms_since;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd::{sample_endpoints, select_endpoints, InferSession, RlConfig};
use rl_ccd_daemon::{Admission, Daemon, DaemonConfig, SystemClock, TenantBook, CHAMPION};
use rl_ccd_serve::protocol::{read_frame, write_frame};
use rl_ccd_serve::{
    Credentials, DesignKey, EnvCache, ExperienceHook, Mode, ModelRegistry, QueryRequest, Request,
    Response, SelectionCache, ServeClient, ServeConfig, ServeHandle, ServeModel, Server,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The tail latency reported: p95. The tenant path's latencies come in
/// 4 ms steps above a 44 ms floor, and 0.2-0.7 % of its queries wait a
/// second delayed-ACK period (88 ms and up), so a p99 flips between 52 and
/// 88 ms with the run; p95 is clear of that edge.
const TAIL: f64 = 0.95;
/// Windows a closed-loop round is cut into for the tail latency.
const TAIL_WINDOWS: usize = 3;
/// Generous enough that a deadline never sheds a benchmark query.
const DEADLINE_MS: u64 = 300_000;

/// Registers a freshly initialised paper-width policy under `CHAMPION`.
pub fn champion_registry(config: &RlConfig) -> (ModelRegistry, Arc<ServeModel>) {
    let (_, params) = rl_ccd::RlCcd::init(config.clone());
    let registry = ModelRegistry::new();
    let entry = registry
        .insert_params(CHAMPION, params, config.rho)
        .expect("a fresh parameter set is a complete model");
    (registry, entry)
}

pub fn serve_config(experience: Option<Arc<dyn ExperienceHook>>) -> ServeConfig {
    ServeConfig {
        // Closed-loop clients never have more than one query in flight
        // each, so nothing sheds; a shed would be a failure.
        queue_capacity: 256,
        experience,
        ..ServeConfig::default()
    }
}

/// The credentials of closed-loop tenant `i`.
pub fn tenant_credentials(i: usize) -> Credentials {
    Credentials {
        tenant: format!("tenant{i}"),
        token: format!("token{i}"),
    }
}

/// Starts the daemon with `tenants` admitted tenants (limits far above
/// what a closed loop can send: the path's cost is measured, not its
/// throttling) and binds the tenant port on loopback.
pub fn start_daemon(
    registry: ModelRegistry,
    config: &RlConfig,
    tenants: usize,
) -> (Daemon, SocketAddr) {
    let mut daemon = Daemon::start(
        registry,
        DaemonConfig {
            serve: serve_config(None),
            rho: config.rho,
            ..DaemonConfig::default()
        },
        Arc::new(SystemClock),
    );
    for t in 0..tenants {
        let creds = tenant_credentials(t);
        let spec = format!(
            "{}:{}:1000000:1000000:1000000000",
            creds.tenant, creds.token
        );
        daemon.tenants().add(spec.parse().expect("tenant spec"));
    }
    let addr = daemon.bind_query("127.0.0.1:0").expect("bind tenant port");
    (daemon, addr)
}

/// Anything a closed-loop client can send a query through.
pub type QueryFn = Box<dyn FnMut(QueryRequest) -> Result<Response, String> + Send>;

pub fn handle_client(handle: ServeHandle) -> QueryFn {
    Box::new(move |req| Ok(handle.query(req)))
}

pub fn tcp_client(addr: SocketAddr) -> QueryFn {
    let mut client = ServeClient::connect(addr).expect("connect to a front-end this process bound");
    Box::new(move |req| client.query(req).map_err(|e| e.to_string()))
}

/// One answered query: the request and the selection that came back.
#[derive(Clone, Debug)]
pub struct Answer {
    pub query: Query,
    pub selection: Vec<usize>,
}

/// What a closed-loop phase saw from the clients' side.
#[derive(Debug, Default)]
pub struct Load {
    pub wall_s: f64,
    pub latencies_ms: Vec<f64>,
    /// When each answered query was sent, in seconds since its round began.
    pub sent_s: Vec<f64>,
    /// [`TAIL`] percentile of each window of each round (see
    /// [`window_tails`]).
    pub window_tail_ms: Vec<f64>,
    pub answers: Vec<Answer>,
    /// Queries that came back as anything but `Ok` (transport error, shed,
    /// throttle, typed rejection), with the first few reasons.
    pub refused: usize,
    pub reasons: Vec<String>,
}

impl Load {
    pub fn sent(&self) -> usize {
        self.answers.len() + self.refused
    }

    pub fn rps(&self) -> f64 {
        self.answers.len() as f64 / self.wall_s
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms)
    }

    /// The tail a typical stretch of the run saw: median over the windows
    /// of all rounds of each window's [`TAIL`] percentile.
    pub fn tail_ms(&self) -> f64 {
        median(&self.window_tail_ms)
    }

    /// Folds another round's load into this one.
    pub fn absorb(&mut self, round: Load) {
        self.wall_s += round.wall_s;
        self.latencies_ms.extend(round.latencies_ms);
        self.sent_s.extend(round.sent_s);
        self.window_tail_ms.extend(round.window_tail_ms);
        self.answers.extend(round.answers);
        self.refused += round.refused;
        self.reasons.extend(round.reasons);
    }
}

/// Runs one closed-loop client per entry of `clients` for `duration`: each
/// sends its own request sequence from `cursors[client]` on (cycled if it
/// runs out; the cursor is advanced), the next query only after the
/// previous answer. Clients start together on a barrier; the scope joins
/// every thread before this returns.
pub fn closed_loop(
    clients: Vec<QueryFn>,
    requests: &[Vec<Query>],
    cursors: &mut [usize],
    keys: &[DesignKey],
    auth: bool,
    duration: Duration,
) -> Load {
    let barrier = Barrier::new(clients.len() + 1);
    let mut total = Load::default();
    let started = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .into_iter()
            .zip(cursors)
            .enumerate()
            .map(|(c, (mut send, cursor))| {
                let (barrier, sequence) = (&barrier, &requests[c]);
                scope.spawn(move || {
                    let mut load = Load::default();
                    barrier.wait();
                    let started = Instant::now();
                    while started.elapsed() < duration {
                        let query = sequence[*cursor % sequence.len()];
                        *cursor += 1;
                        let request = QueryRequest {
                            model: CHAMPION.into(),
                            design: keys[query.design].clone(),
                            mode: query.mode,
                            deadline_ms: Some(DEADLINE_MS),
                            auth: auth.then(|| tenant_credentials(c)),
                        };
                        let sent = Instant::now();
                        let outcome = send(request);
                        let latency = ms_since(sent);
                        match outcome {
                            Ok(Response::Ok(reply)) => {
                                load.latencies_ms.push(latency);
                                load.sent_s.push((sent - started).as_secs_f64());
                                load.answers.push(Answer {
                                    query,
                                    selection: reply.selection,
                                });
                            }
                            other => {
                                load.refused += 1;
                                if load.reasons.len() < 4 {
                                    load.reasons.push(format!("client {c}: {other:?}"));
                                }
                            }
                        }
                    }
                    load
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        for thread in threads {
            total.absorb(thread.join().expect("client thread panicked"));
        }
        started
    });
    total.wall_s = started.elapsed().as_secs_f64();
    total.window_tail_ms = window_tails(
        &total.sent_s,
        &total.latencies_ms,
        duration.as_secs_f64(),
        TAIL_WINDOWS,
        TAIL,
    );
    total
}

/// Offline answers to check replies against: the selection the policy
/// gives for (design, mode), computed with `select_endpoints` /
/// `sample_endpoints` outside any server.
#[derive(Debug)]
pub struct Oracle {
    model: Arc<ServeModel>,
    known: BTreeMap<(usize, Option<u64>), Vec<usize>>,
}

impl Oracle {
    pub fn new(model: Arc<ServeModel>) -> Self {
        Self {
            model,
            known: BTreeMap::new(),
        }
    }

    pub fn expected(&mut self, designs: &[Picked], query: Query) -> &[usize] {
        let seed = match query.mode {
            Mode::Greedy => None,
            Mode::Sample(seed) => Some(seed),
        };
        self.known.entry((query.design, seed)).or_insert_with(|| {
            let env = &designs[query.design].env;
            let selection = match seed {
                None => select_endpoints(&self.model.model, &self.model.params, env),
                Some(seed) => sample_endpoints(
                    &self.model.model,
                    &self.model.params,
                    env,
                    &mut StdRng::seed_from_u64(seed),
                ),
            };
            selection.iter().map(|e| e.index()).collect()
        })
    }

    /// Checks every `stride`-th answer against the oracle and all of them
    /// for shape (non-empty, no endpoint twice, every endpoint in the
    /// design's pool). Returns how many answers were wrong.
    pub fn count_wrong(
        &mut self,
        designs: &[Picked],
        answers: &[Answer],
        stride: usize,
        reasons: &mut Vec<String>,
    ) -> usize {
        let mut wrong = 0;
        for (i, answer) in answers.iter().enumerate() {
            let pool = designs[answer.query.design].env.pool();
            let mut seen = answer.selection.clone();
            seen.sort_unstable();
            seen.dedup();
            let shaped = !answer.selection.is_empty()
                && seen.len() == answer.selection.len()
                && answer
                    .selection
                    .iter()
                    .all(|&e| pool.iter().any(|p| p.index() == e));
            let matches =
                i % stride != 0 || self.expected(designs, answer.query) == answer.selection;
            if !(shaped && matches) {
                wrong += 1;
                if reasons.len() < 4 {
                    reasons.push(format!(
                        "reply to {:?} disagrees with the oracle",
                        answer.query
                    ));
                }
            }
        }
        wrong
    }
}

/// Depth d0 of the onion: the same request sequence answered by an
/// [`InferSession`] with nothing around it. Returns per-query ms, split by
/// mode.
pub fn direct_inference(
    model: &ServeModel,
    designs: &[Picked],
    sequence: &[Query],
    limit: Duration,
) -> (Vec<f64>, Vec<f64>) {
    let mut session = InferSession::new(&model.model, &model.params);
    let (mut greedy, mut sample) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for query in sequence {
        if started.elapsed() >= limit {
            break;
        }
        let env = &designs[query.design].env;
        let t = Instant::now();
        match query.mode {
            Mode::Greedy => {
                black_box(session.select(env));
                greedy.push(ms_since(t));
            }
            Mode::Sample(seed) => {
                black_box(session.sample(env, &mut StdRng::seed_from_u64(seed)));
                sample.push(ms_since(t));
            }
        }
    }
    (greedy, sample)
}

/// Depths d1 (handle), d2 (blocking TCP), d2r (reactor TCP) on a fresh
/// server and d3 (daemon tenant port) on a fresh daemon: one closed-loop
/// client each, same sequence, p50 in ms. A front-end the platform lacks
/// reports NaN.
#[derive(Clone, Copy, Debug, Default)]
pub struct Onion {
    pub d1_ms: f64,
    pub d2_ms: f64,
    pub d2r_ms: f64,
    pub d3_ms: f64,
    /// Queries the d3 daemon's tenant book accepted.
    pub d3_accepted: u64,
}

pub fn onion(
    config: &RlConfig,
    keys: &[DesignKey],
    sequence: &[Query],
    per_depth: Duration,
) -> Onion {
    let one = |client: QueryFn, auth: bool| {
        closed_loop(
            vec![client],
            &[sequence.to_vec()],
            &mut [0],
            keys,
            auth,
            per_depth,
        )
        .p50_ms()
    };
    let mut out = Onion::default();

    let (registry, _) = champion_registry(config);
    let mut server = Server::start(registry, serve_config(None));
    out.d1_ms = one(handle_client(server.handle()), false);
    let addr = server.bind("127.0.0.1:0").expect("bind blocking front-end");
    out.d2_ms = one(tcp_client(addr), false);
    server.shutdown();

    let (registry, _) = champion_registry(config);
    let mut server = Server::start(registry, serve_config(None));
    out.d2r_ms = match server.bind_reactor("127.0.0.1:0") {
        Ok(addr) => one(tcp_client(addr), false),
        Err(_) => f64::NAN,
    };
    server.shutdown();

    let (registry, _) = champion_registry(config);
    let (daemon, addr) = start_daemon(registry, config, 1);
    out.d3_ms = one(tcp_client(addr), true);
    out.d3_accepted = daemon
        .shutdown()
        .tenants
        .iter()
        .map(|t| t.usage.accepted)
        .sum();
    out
}

/// Standalone costs of what a front-end adds per query, and what the two
/// caches would do over a request sequence.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontCosts {
    pub codec_us: f64,
    pub frame_roundtrip_us: f64,
    pub admit_us: f64,
    pub env_build_ms: f64,
    pub env_hit_share: f64,
    pub selection_hit_share: f64,
}

pub fn front_costs(
    model: &Arc<ServeModel>,
    designs: &[Picked],
    sequences: &[Vec<Query>],
    serve: &ServeConfig,
) -> FrontCosts {
    let mut out = FrontCosts::default();
    let key = designs[0].key.clone();
    let request = Request::Query(QueryRequest {
        model: CHAMPION.into(),
        design: key.clone(),
        mode: Mode::Sample(7),
        deadline_ms: Some(DEADLINE_MS),
        auth: Some(tenant_credentials(0)),
    });
    let mut oracle = Oracle::new(model.clone());
    let response = Response::Ok(rl_ccd_serve::QueryReply {
        model: CHAMPION.into(),
        version: 0,
        steps: 0,
        batch: 1,
        cached: false,
        selection: oracle.expected(designs, sequences[0][1]).to_vec(),
    });

    const REPS: usize = 2_000;
    let t = Instant::now();
    for _ in 0..REPS {
        let wire = request.encode();
        black_box(Request::decode(&wire).expect("own request decodes"));
        let wire = response.encode();
        black_box(Response::decode(&wire).expect("own response decodes"));
    }
    out.codec_us = ms_since(t) * 1e3 / REPS as f64;

    // One framed request out and one framed response back over a loopback
    // socket pair, echo thread on the far side.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("loopback addr");
    let reply_bytes = response.encode();
    let echo = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("accept loopback");
        peer.set_nodelay(true).ok();
        while read_frame(&mut peer).is_ok() {
            if write_frame(&mut peer, &reply_bytes).is_err() {
                break;
            }
        }
    });
    let mut near = TcpStream::connect(addr).expect("connect loopback");
    near.set_nodelay(true).ok();
    let request_bytes = request.encode();
    let trips: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            write_frame(&mut near, &request_bytes).expect("loopback write");
            black_box(read_frame(&mut near).expect("loopback read"));
            ms_since(t) * 1e3
        })
        .collect();
    out.frame_roundtrip_us = median(&trips);
    drop(near);
    echo.join().expect("echo thread");

    let book = TenantBook::new(Arc::new(SystemClock));
    let creds = tenant_credentials(0);
    book.add(
        format!(
            "{}:{}:1000000:1000000:1000000000",
            creds.tenant, creds.token
        )
        .parse()
        .expect("tenant spec"),
    );
    let t = Instant::now();
    for _ in 0..REPS {
        assert_eq!(book.admit(&creds), Admission::Granted);
    }
    out.admit_us = ms_since(t) * 1e3 / REPS as f64;

    // Replay the clients' sequences, interleaved as a closed loop sends
    // them, over caches of the server's own sizes.
    let envs = EnvCache::new(serve.env_cache, serve.fanout_cap);
    let selections = SelectionCache::new(serve.selection_cache);
    let mut builds = Vec::new();
    let mut last: BTreeMap<DesignKey, Arc<rl_ccd::CcdEnv>> = BTreeMap::new();
    let (mut env_hits, mut lookups, mut sel_hits, mut greedy) = (0usize, 0usize, 0usize, 0usize);
    let longest = sequences.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for sequence in sequences {
            let Some(query) = sequence.get(i) else {
                continue;
            };
            let key = &designs[query.design].key;
            let t = Instant::now();
            let env = envs.get_or_build(key).expect("picked design builds");
            let took = ms_since(t);
            lookups += 1;
            // A hit hands back the very allocation handed out last time
            // (kept alive in `last`, so its address cannot be reused).
            if last.get(key).is_some_and(|prev| Arc::ptr_eq(prev, &env)) {
                env_hits += 1;
            } else {
                builds.push(took);
            }
            last.insert(key.clone(), env.clone());
            if query.mode == Mode::Greedy {
                greedy += 1;
                if selections.get(model.fingerprint, key).is_some() {
                    sel_hits += 1;
                } else {
                    selections.insert(model.fingerprint, key, Arc::new(env.pool().to_vec()));
                }
            }
        }
    }
    out.env_build_ms = median(&builds);
    out.env_hit_share = env_hits as f64 / lookups.max(1) as f64;
    out.selection_hit_share = if greedy == 0 {
        0.0
    } else {
        sel_hits as f64 / greedy as f64
    };
    out
}
