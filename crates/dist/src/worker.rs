//! The rollout worker: one process serving `RunRollouts` requests.
//!
//! A worker is stateless until the coordinator's [`Request::Init`]
//! arrives; it then rebuilds the *same* environment and model the trainer
//! holds — the design from the netlist text, the model from the config's
//! seed and widths — and keeps them across requests, so the expensive
//! setup (STA, endpoint pool, GNN graphs, features) is paid exactly once
//! per training run, not per iteration.
//!
//! Each [`Request::Run`] then hands its `(slot, seed)` pairs to
//! [`LocalExecutor::run_batch`] — the *identical* code path a
//! single-process run takes, which is what makes distributed training
//! bit-identical to local training.
//!
//! Accepted sockets come back as [`FramedTcp`] through a
//! [`FramedListener`], so a [`NetFaultPlan`] can cover the worker's
//! *accept* path ([`WorkerNet`]). One epoll loop ([`Poller`]) holds the
//! listener and every connection, so a parked coordinator connection
//! costs no wakeups. That loop also runs each batch, so a health probe
//! that arrives mid-batch is answered when the batch finishes. Frame
//! operations themselves stay blocking, so chaos injection wraps them
//! exactly as it wraps a dialed [`FramedTcp`].

use crate::protocol::{
    decode_request, encode_response, BatchResponse, Inject, Request, Response, RolloutItem,
    DIST_MAX_FRAME_LEN,
};
use rl_ccd::{CcdEnv, FaultPlan, LocalExecutor, RlCcd, RlConfig, RolloutExecutor, RolloutRequest};
use rl_ccd_netlist::{read_netlist, ClusterClass, DesignSpec, GeneratedDesign};
use rl_ccd_obs as obs;
use rl_ccd_wire::reactor::Interest;
use rl_ccd_wire::{FramedListener, FramedTcp, NetFaultPlan, Poller};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// The design, environment and model a worker builds on `Init` and reuses
/// for every subsequent request.
struct WorkerState {
    env: CcdEnv,
    model: RlCcd,
    config: RlConfig,
}

/// Everything a worker keeps across connections: the built environment
/// plus the reply cache that makes retried dispatches idempotent.
#[derive(Default)]
struct WorkerSession {
    state: Option<WorkerState>,
    /// The last identified run's `(req_id, encoded reply)`. A retried
    /// dispatch (same non-zero `req_id`, typically on a fresh connection
    /// after a transport failure) replays the cached bytes instead of
    /// recomputing the batch. One slot is enough: the coordinator issues
    /// at most one in-flight request per worker.
    last_reply: Option<(u64, Vec<u8>)>,
}

/// What handling one message tells the serving loop to do next.
enum Step {
    /// Message answered (or ignored); keep serving this connection.
    Served,
    /// The peer hung up (or the transport died); close this connection.
    Close,
    /// A `Shutdown` request (or an injected death): stop serving.
    Exit,
}

/// Network-side configuration for a worker: how accepted connections are
/// wrapped. The default is a plain wire; attaching a [`NetFaultPlan`]
/// routes every *accepted* connection through chaos — the same fault
/// vocabulary the coordinator side injects — numbered sequentially from
/// `conn_base` in accept order.
#[derive(Clone, Debug, Default)]
pub struct WorkerNet {
    /// Fault plan applied to every accepted connection (`None` = plain).
    pub chaos: Option<Arc<NetFaultPlan>>,
    /// Connection id of the first accepted connection in the plan's
    /// addressing; subsequent accepts count up from here.
    pub conn_base: u64,
}

/// Serves rollout requests on `listener` until a `Shutdown` request or an
/// injected worker death. Blocks the calling thread; run it in a process
/// of its own (`rlccd worker`) or a test thread.
///
/// # Errors
/// Propagates fatal accept-loop I/O errors. Per-connection errors are
/// answered with [`Response::Err`] or end that connection only.
pub fn serve_worker(listener: TcpListener) -> io::Result<()> {
    serve_worker_with(listener, WorkerNet::default())
}

/// [`serve_worker`] with explicit network wrapping: accepted connections
/// come through a [`FramedListener`], so `net.chaos` covers the worker's
/// accept path. Multiplexes connections over the [`Poller`]; a batch
/// runs on the poll thread, so a probe waits for the batch in flight.
///
/// # Errors
/// Same contract as [`serve_worker`], plus the epoll setup failure.
pub fn serve_worker_with(listener: TcpListener, net: WorkerNet) -> io::Result<()> {
    let mut flistener = FramedListener::new(listener);
    if let Some(plan) = net.chaos {
        flistener = flistener.with_chaos(plan, net.conn_base);
    }
    serve_multiplexed(&Poller::new()?, flistener, &mut WorkerSession::default())
}

const LISTENER_TOKEN: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 1;

/// The readiness-multiplexed loop: the listener and every accepted
/// connection share one epoll set. A readable connection gets one
/// blocking frame read + dispatch per event (level-triggered readiness
/// re-reports buffered pipelined requests), so frame operations — and
/// chaos injection — stay blocking.
fn serve_multiplexed(
    poller: &Poller,
    mut listener: FramedListener,
    session: &mut WorkerSession,
) -> io::Result<()> {
    listener.get_ref().set_nonblocking(true)?;
    poller.register(listener.get_ref(), LISTENER_TOKEN, Interest::READABLE)?;
    let mut conns: HashMap<u64, (FramedTcp, String)> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = Vec::new();
    loop {
        poller.poll(&mut events, None)?;
        for ev in &events {
            match ev.token {
                LISTENER_TOKEN => loop {
                    match listener.accept() {
                        Ok((conn, peer)) => {
                            obs::counter!("dist.worker.connections", 1);
                            // Accepted sockets must block: frame reads and
                            // writes run to completion once readiness fires.
                            if conn.stream().set_nonblocking(false).is_err() {
                                continue;
                            }
                            let token = next_token;
                            next_token += 1;
                            if poller
                                .register(conn.stream(), token, Interest::READABLE)
                                .is_ok()
                            {
                                conns.insert(token, (conn, peer.to_string()));
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        // Per-connection accept failures must not kill the
                        // worker.
                        Err(_) => break,
                    }
                },
                token => {
                    let Some((conn, peer)) = conns.get_mut(&token) else {
                        continue;
                    };
                    let step = if ev.readable {
                        let _span = obs::span!("dist.worker.serve", peer = peer.clone());
                        handle_message(conn, session)
                    } else if ev.hangup {
                        Step::Close
                    } else {
                        Step::Served
                    };
                    match step {
                        Step::Served => {}
                        Step::Close => {
                            if let Some((conn, _)) = conns.remove(&token) {
                                let _ = poller.deregister(conn.stream());
                            }
                        }
                        Step::Exit => return Ok(()),
                    }
                }
            }
        }
    }
}

/// Reads and answers one message on `conn`. Blocking: once the socket is
/// readable, the frame is read to completion.
fn handle_message(conn: &mut FramedTcp, session: &mut WorkerSession) -> Step {
    let payload = match conn.read_frame_limited(DIST_MAX_FRAME_LEN) {
        Ok(p) => p,
        // EOF or a broken pipe: the coordinator hung up (normal when
        // it abandoned this connection past a deadline).
        Err(_) => return Step::Close,
    };
    let request = match decode_request(&payload) {
        Ok(r) => r,
        Err(why) => {
            send(conn, &Response::Err { message: why });
            return Step::Served;
        }
    };
    match request {
        Request::Shutdown => Step::Exit,
        Request::Health => {
            obs::counter!("dist.worker.health_probes", 1);
            send(
                conn,
                &Response::HealthAck {
                    ready: session.state.is_some(),
                },
            );
            Step::Served
        }
        Request::Init(init) => {
            let response =
                match build_state(init.period_ps, &init.netlist_text, init.recipe, init.config) {
                    Ok(built) => {
                        let ack = Response::InitAck {
                            endpoints: built.env.design().netlist.endpoints().len(),
                            pool: built.env.pool().len(),
                        };
                        session.state = Some(built);
                        ack
                    }
                    Err(why) => Response::Err { message: why },
                };
            send(conn, &response);
            Step::Served
        }
        Request::Run(run) => {
            let Some(st) = session.state.as_ref() else {
                send(
                    conn,
                    &Response::Err {
                        message: "run before init".into(),
                    },
                );
                return Step::Served;
            };
            // A coordinator that has already given up is not worth
            // blocking on: bound the reply write by its budget.
            if let Some(ms) = run.budget_ms {
                let _ = conn
                    .stream()
                    .set_write_timeout(Some(Duration::from_millis(ms.max(1))));
            }
            // Idempotent re-issue: a retried dispatch replays the
            // cached reply bit-for-bit instead of recomputing.
            if run.req_id != 0 {
                if let Some((id, reply)) = &session.last_reply {
                    if *id == run.req_id {
                        obs::counter!("dist.worker.replayed_replies", 1);
                        let reply = reply.clone();
                        let _ = conn.write_frame_limited(&reply, DIST_MAX_FRAME_LEN);
                        return Step::Served;
                    }
                }
            }
            // Process-level injections (test harness): die, tear the
            // reply frame, or stall past the coordinator's deadline.
            if run.injects.contains(&Inject::Drop) {
                obs::counter!("dist.worker.injected_drops", 1);
                return Step::Exit;
            }
            if run.injects.contains(&Inject::Torn) {
                obs::counter!("dist.worker.injected_torn", 1);
                // A length prefix promising 64 bytes, backed by 8 — raw
                // bytes on the socket, past any chaos wrapping.
                let mut stream = conn.stream();
                let _ = stream.write_all(&64u32.to_be_bytes());
                let _ = stream.write_all(b"truncate");
                let _ = stream.flush();
                return Step::Exit;
            }
            let batch = run_batch(st, &run.params, &run.pairs, run.iteration, &run.injects);
            if let Some(ms) = run.injects.iter().find_map(|i| match i {
                Inject::SleepMs(ms) => Some(*ms),
                _ => None,
            }) {
                obs::counter!("dist.worker.injected_stalls", 1);
                std::thread::sleep(Duration::from_millis(ms));
            }
            let payload = encode_response(&Response::Batch(batch));
            if run.req_id != 0 {
                session.last_reply = Some((run.req_id, payload.clone()));
            }
            let _ = conn.write_frame_limited(&payload, DIST_MAX_FRAME_LEN);
            Step::Served
        }
    }
}

fn send(conn: &mut FramedTcp, response: &Response) {
    let payload = encode_response(response);
    let _ = conn.write_frame_limited(&payload, DIST_MAX_FRAME_LEN);
}

fn build_state(
    period_ps: f32,
    netlist_text: &str,
    recipe: rl_ccd_flow::FlowRecipe,
    config: RlConfig,
) -> Result<WorkerState, String> {
    let _span = obs::span!("dist.worker.init");
    let netlist =
        read_netlist(netlist_text.as_bytes()).map_err(|e| format!("bad netlist text: {e}"))?;
    // Spec and cluster classes are diagnostics only — nothing in the
    // rollout path reads them — so a synthetic spec keeps the wire format
    // down to what determinism actually needs: netlist + period.
    let spec = DesignSpec::new(
        netlist.name().to_string(),
        netlist.cell_count(),
        netlist.library().tech(),
        0,
    );
    let endpoint_class = vec![ClusterClass::Normal; netlist.endpoints().len()];
    let design = GeneratedDesign {
        netlist,
        period_ps,
        spec,
        endpoint_class,
    };
    let env = CcdEnv::new(design, recipe, config.fanout_cap);
    let (model, _initial) = RlCcd::init(config.clone());
    Ok(WorkerState { env, model, config })
}

fn run_batch(
    st: &WorkerState,
    params: &rl_ccd_nn::ParamSet,
    pairs: &[(usize, u64)],
    iteration: usize,
    injects: &[Inject],
) -> BatchResponse {
    let _span = obs::span!(
        "dist.worker.run_batch",
        iteration = iteration as u64,
        pairs = pairs.len() as u64
    );
    // Slot-level injections become a local fault plan, so quarantine runs
    // through the same supervisor a single-process run uses.
    let mut plan = FaultPlan::none();
    for inject in injects {
        plan = match *inject {
            Inject::Panic(slot) => plan.with_worker_panic(iteration, slot),
            Inject::NanReward(slot) => plan.with_nan_reward(iteration, slot),
            Inject::Poison(slot) => plan.with_poisoned_gradient(iteration, slot),
            _ => plan,
        };
    }
    let batch = LocalExecutor.run_batch(&RolloutRequest {
        iteration,
        pairs,
        params,
        model: &st.model,
        env: &st.env,
        config: &st.config,
        plan: &plan,
    });
    obs::counter!("dist.worker.rollouts", batch.rollouts.len() as u64);
    BatchResponse {
        items: batch
            .rollouts
            .into_iter()
            .map(|r| RolloutItem {
                slot: r.slot,
                seed: r.seed,
                steps: r.steps,
                reward: r.reward,
                selection: r.selected.iter().map(|e| e.index()).collect(),
                grads: r.log_prob_grads,
            })
            .collect(),
        faults: batch.faults,
    }
}
