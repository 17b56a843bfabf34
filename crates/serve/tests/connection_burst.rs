//! One replica under a connection burst, over real TCP into the serve
//! port: every connection is opened and held, one query is written down
//! each before any reply is read, then every reply is collected — so the
//! server really holds N sockets with up to N requests in flight when the
//! burst lands.
//!
//! With a roomy queue every query is answered; with a bounded one the
//! overflow is shed as a typed `Overloaded` with a real backoff hint, and
//! nothing fails or is dropped either way. Soaks, so ignored by default;
//! they need about two file descriptors per connection:
//! `ulimit -n 16384 && cargo test --release -p rl-ccd-serve --test
//! connection_burst -- --ignored`.

use rl_ccd::{RlCcd, RlConfig};
use rl_ccd_serve::protocol::{read_frame, write_frame};
use rl_ccd_serve::{
    DesignKey, Mode, ModelRegistry, QueryRequest, Request, Response, ServeConfig, Server,
};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// What one burst got back, and what the drain reported.
#[derive(Debug, Default)]
struct Burst {
    ok: usize,
    shed: usize,
    failed: usize,
    dropped: u64,
}

fn query(key: &DesignKey, mode: Mode, deadline_ms: Option<u64>) -> Request {
    Request::Query(QueryRequest {
        model: "default".into(),
        design: key.clone(),
        mode,
        deadline_ms,
        auth: None,
    })
}

/// Bursts one query (alternately greedy and seeded) down each of
/// `connections` sockets over two designs of `cells` cells.
fn burst(connections: usize, queue_capacity: usize, cells: usize) -> Burst {
    let (_, params) = RlCcd::init(RlConfig::fast());
    let registry = ModelRegistry::new();
    registry
        .insert_params("default", params, RlConfig::fast().rho)
        .expect("register model");
    let mut server = Server::start(
        registry,
        ServeConfig {
            queue_capacity,
            ..ServeConfig::default()
        },
    );
    let addr = server.bind("127.0.0.1:0").expect("bind server");
    let keys: Vec<DesignKey> = (0..2)
        .map(|d| DesignKey {
            name: format!("conn{d}"),
            cells,
            tech: "7nm".into(),
            seed: d + 1,
        })
        .collect();

    // Warm the env cache through the front door, so the burst measures
    // inference and transport, not redundant design builds.
    let mut warm = TcpStream::connect(addr).expect("warm-up connect");
    warm.set_read_timeout(Some(Duration::from_secs(120))).ok();
    for key in &keys {
        write_frame(&mut warm, &query(key, Mode::Greedy, None).encode()).expect("warm-up send");
        let reply = read_frame(&mut warm).expect("warm-up receive");
        let resp = Response::decode(&reply).expect("warm-up decode");
        assert!(matches!(resp, Response::Ok(_)), "warm-up query: {resp:?}");
    }
    drop(warm);

    let opened = Instant::now();
    let mut conns: Vec<TcpStream> = (0..connections)
        .map(|i| {
            let conn = TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("connection {i}/{connections} refused: {e}"));
            conn.set_nodelay(true).ok();
            conn.set_read_timeout(Some(Duration::from_secs(300))).ok();
            conn.set_write_timeout(Some(Duration::from_secs(300))).ok();
            conn
        })
        .collect();
    let open_s = opened.elapsed().as_secs_f64();

    let started = Instant::now();
    for (i, conn) in conns.iter_mut().enumerate() {
        let mode = if i % 2 == 0 {
            Mode::Greedy
        } else {
            Mode::Sample(i as u64)
        };
        // A generous deadline: shedding must come from queue capacity,
        // not from queued work aging out mid-burst.
        let request = query(&keys[i % keys.len()], mode, Some(300_000));
        write_frame(conn, &request.encode()).unwrap_or_else(|e| panic!("send on {i}: {e}"));
    }
    let mut got = Burst::default();
    for (i, conn) in conns.iter_mut().enumerate() {
        let outcome = read_frame(conn)
            .map_err(|e| format!("receive: {e}"))
            .and_then(|reply| Response::decode(&reply));
        match outcome {
            Ok(Response::Ok(_)) => got.ok += 1,
            Ok(Response::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms > 0, "connection {i}: a zero backoff hint");
                got.shed += 1;
            }
            other => {
                eprintln!("connection {i}: {other:?}");
                got.failed += 1;
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    drop(conns);
    let report = server.shutdown();
    got.dropped = report.dropped();
    println!(
        "{connections} connections (queue {queue_capacity}) opened in {open_s:.2} s, \
         burst answered in {wall_s:.2} s: {got:?}"
    );
    got
}

#[test]
#[ignore = "5000-connection soak; run in release with --ignored and ulimit -n 16384"]
fn one_replica_answers_every_query_of_a_5000_connection_burst() {
    let got = burst(5000, 5001, 300);
    assert_eq!(got.ok, 5000, "{got:?}");
    assert_eq!((got.shed, got.failed, got.dropped), (0, 0, 0), "{got:?}");
}

#[test]
#[ignore = "2000-connection soak; run in release with --ignored"]
fn a_bounded_queue_sheds_the_burst_typed_and_drops_nothing() {
    let got = burst(2000, 64, 250);
    assert!(got.ok >= 1, "the burst was shed entirely: {got:?}");
    assert!(got.shed >= 1, "the queue never filled: {got:?}");
    assert_eq!(got.ok + got.shed, 2000, "{got:?}");
    assert_eq!((got.failed, got.dropped), (0, 0), "{got:?}");
}
