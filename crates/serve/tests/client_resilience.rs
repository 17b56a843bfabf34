//! End-to-end tests for the TCP client against a live server's port:
//! queries, probes and the shutdown request are answered and accounted
//! for, silent peers time out instead of hanging, connection resets are
//! retried transparently, and overload sheds with a typed backoff hint.
//! (What the port does with sockets — pipelining, torn frames, slow
//! clients, idle connections, drain — is `rl-ccd-wire`'s
//! `tests/front.rs`.)

use rl_ccd::{RlCcd, RlConfig};
use rl_ccd_serve::protocol::{DesignKey, Mode, QueryRequest};
use rl_ccd_serve::{ModelRegistry, Response, ServeClient, ServeConfig, Server};
use rl_ccd_wire::{NetFaultPlan, RetryPolicy};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn registry() -> ModelRegistry {
    let (_, params) = RlCcd::init(RlConfig::fast());
    let reg = ModelRegistry::new();
    reg.insert_params("default", params, 0.3).expect("insert");
    reg
}

fn query(deadline_ms: Option<u64>) -> QueryRequest {
    QueryRequest {
        model: "default".into(),
        design: DesignKey {
            name: "resil".into(),
            cells: 360,
            tech: "7nm".into(),
            seed: 5,
        },
        mode: Mode::Greedy,
        deadline_ms,
        auth: None,
    }
}

fn bound_server(config: ServeConfig) -> (Server, std::net::SocketAddr) {
    let mut server = Server::start(registry(), config);
    let addr = server.bind("127.0.0.1:0").expect("bind");
    (server, addr)
}

#[test]
fn silent_peer_times_out_instead_of_hanging() {
    // A listener that accepts and then never speaks: the failure mode
    // that used to hang the client forever.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));

    let mut client = ServeClient::connect(addr).expect("connect");
    let started = Instant::now();
    let err = client.query(query(Some(300))).expect_err("must time out");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
        ),
        "unexpected error: {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline budget was not enforced: took {:?}",
        started.elapsed()
    );
    drop(client);
    let _ = hold.join();
}

#[test]
fn connection_reset_is_retried_to_success() {
    let (server, addr) = bound_server(ServeConfig::default());
    let plan = Arc::new(NetFaultPlan::none().with_reset(7, 0));
    let mut client = ServeClient::builder()
        .addr(addr)
        .retry(RetryPolicy::seeded(1).with_attempts(3))
        .chaos(Arc::clone(&plan), 7)
        .connect()
        .expect("connect");
    let response = client.query(query(Some(30_000))).expect("query");
    assert!(matches!(response, Response::Ok(_)), "got {response:?}");
    assert_eq!(client.retries(), 1, "exactly one re-issue after the reset");
    assert_eq!(client.reconnects(), 1);
    assert_eq!(plan.fired(), 1, "the planned reset fired exactly once");
    let report = server.shutdown();
    assert_eq!(report.dropped(), 0);
}

#[test]
fn overload_shed_is_typed_and_carries_the_configured_hint() {
    // Capacity 0 sheds every submission deterministically.
    let config = ServeConfig {
        queue_capacity: 0,
        workers: 1,
        ..ServeConfig::default()
    };
    let hint = config.shed_retry_after_ms();
    let (server, addr) = bound_server(config);
    let mut client = ServeClient::builder()
        .addr(addr)
        .retry(RetryPolicy::seeded(2).with_attempts(2))
        .connect()
        .expect("connect");
    let response = client.query(query(Some(30_000))).expect("query");
    let Response::Overloaded { retry_after_ms } = response else {
        panic!("expected typed shed, got {response:?}");
    };
    assert_eq!(retry_after_ms, hint);
    assert_eq!(client.retries(), 1, "one overload retry before giving up");
    assert_eq!(client.reconnects(), 0, "overload never tears the socket");
    let stats = server.stats();
    assert_eq!(stats.shed, 2, "both attempts were shed");
    server.shutdown();
}

#[test]
fn tcp_port_serves_queries_and_health_and_drains_clean() {
    let (server, addr) = bound_server(ServeConfig::default());
    let mut client = ServeClient::connect(addr).expect("connect");
    let first = client.query(query(None)).expect("query");
    let Response::Ok(g) = first else {
        panic!("greedy failed: {first:?}")
    };
    assert_eq!(g.steps, g.selection.len());
    assert!(!g.selection.is_empty());
    let again = client.query(query(None)).expect("query");
    let Response::Ok(a) = again else {
        panic!("repeat failed: {again:?}")
    };
    assert!(a.cached, "repeat greedy must hit the selection cache");
    assert_eq!(a.selection, g.selection);
    assert!(client.health().expect("health").ready);
    let report = server.shutdown();
    assert_eq!(report.dropped(), 0, "clean drain");
    assert_eq!(report.stats.completed, 2);
    assert!(
        report.stats.reactor_polls > 0 && report.stats.reactor_events > 0,
        "ServeStats is fed from the front-end's counters: {:?}",
        report.stats
    );
}

#[test]
fn shutdown_request_acks_and_sets_draining() {
    let (server, addr) = bound_server(ServeConfig::default());
    let mut client = ServeClient::connect(addr).expect("connect");
    client.shutdown().expect("shutdown ack");
    assert!(server.shutdown_requested(), "drain flag set by the request");
    assert_eq!(server.shutdown().dropped(), 0);
}

#[test]
fn health_probe_answers_over_tcp() {
    let (server, addr) = bound_server(ServeConfig::default());
    let mut client = ServeClient::connect(addr).expect("connect");
    let health = client.health().expect("probe");
    assert!(health.ready);
    assert_eq!(health.models, 1);
    assert_eq!(health.queue_depth, 0);
    server.shutdown();
}
