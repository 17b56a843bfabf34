//! **Serve load generator**: throughput and tail latency of the
//! endpoint-selection inference service under concurrent load.
//!
//! Spins up an in-process [`Server`], hammers it from `--workers` client
//! threads alternating greedy and seeded-sample requests across
//! `--designs` distinct designs, and reports throughput plus p50/p99
//! client-observed latency as CSV, along with the server's batch-size
//! census (the dynamic-batching proof: under load the median dispatched
//! batch should exceed one request).
//!
//! Usage:
//! ```text
//! serve_load [--workers 8] [--requests 40] [--designs 2] [--cells 300]
//!            [--max-batch 8] [--window-ms 2] [--queue N]
//!            [--connections N] [--tenants N]
//!            [--csv serve_load.csv] [--json BENCH_serve.json]
//!            [--assert-batching] [--assert-shedding]
//!            [--trace-out run.jsonl]
//! ```
//!
//! With `--assert-batching` the process exits nonzero unless the batch
//! size p50 is at least 2 and the drain left zero in-flight requests
//! behind — the acceptance gate CI can hold the server to.
//!
//! With `--assert-shedding` (meant for an overload run, e.g. `--queue 1`)
//! the process instead demands that the server answered the excess with
//! typed `Overloaded` responses — at least one shed, no untyped failures,
//! and nothing dropped at drain — proving overload degrades gracefully
//! rather than hanging or erroring.
//!
//! With `--connections N` the bench switches to **connection scaling**
//! over real TCP against the serve port: it opens N
//! concurrent connections, fires one pipelined query down every one of
//! them at once, and collects every reply — measuring how one replica
//! behaves holding thousands of sockets. Results merge into the same
//! `--json` artifact as `conn_*` metrics (`connections`, `conn_rps`,
//! `conn_p50_ms`, `conn_p99_ms`, `conn_shed`, …). `--assert-shedding`
//! composes: run with a small `--queue` and the burst must shed typed,
//! drop nothing, and still answer someone.
//!
//! With `--tenants N` the bench instead exercises the **multi-tenant
//! daemon path**: a [`rl_ccd_daemon::Daemon`] fronts the same serving
//! core, N authenticated tenants hammer the tenant port over TCP
//! (credentials checked, token buckets and quotas charged, per-tenant
//! metrics recorded on every request), and the run reports `tenant_rps`
//! plus latency percentiles — the cost of the full admission path,
//! comparable against `throughput_rps` (in-process, no tenancy). Results
//! merge into the same `--json` artifact as `tenant_*` metrics and land
//! in `--csv` (default `serve_tenants.csv`).

use rl_ccd::{RlCcd, RlConfig};
use rl_ccd_bench::{percentile, sort_metrics, write_csv, write_json, Cli, Json};
use rl_ccd_daemon::{Daemon, DaemonConfig, SystemClock, CHAMPION};
use rl_ccd_serve::protocol::{read_frame, write_frame};
use rl_ccd_serve::{
    Credentials, DesignKey, Mode, ModelRegistry, QueryRequest, Request, Response, ServeClient,
    ServeConfig, Server,
};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let cli = Cli::from_env();
    let _obs = cli.attach();
    let workers = cli.workers(8);
    let requests: usize = cli.value("--requests", 40);
    let designs: usize = cli.value("--designs", 2usize).max(1);
    let cells: usize = cli.value("--cells", 300);
    let assert_batching = std::env::args().any(|a| a == "--assert-batching");
    let assert_shedding = std::env::args().any(|a| a == "--assert-shedding");
    let connections: usize = cli.value("--connections", 0usize);
    if connections > 0 {
        return run_connection_scaling(&cli, connections, designs, cells, assert_shedding);
    }
    let tenants: usize = cli.value("--tenants", 0usize);
    if tenants > 0 {
        return run_tenant_load(&cli, tenants, requests, designs, cells);
    }
    let csv = cli.csv("serve_load.csv");

    let config = RlConfig::fast();
    let rho = config.rho;
    let (_, params) = RlCcd::init(config);
    let registry = ModelRegistry::new();
    registry
        .insert_params("default", params, rho)
        .expect("register model");

    let serve_config = ServeConfig {
        max_batch: cli.value("--max-batch", 8),
        window: Duration::from_millis(cli.value("--window-ms", 2u64)),
        // Roomy by default (nothing sheds); pin it low with --queue to
        // drive the server into overload on purpose.
        queue_capacity: cli.value("--queue", workers * requests + 1),
        workers: cli.value("--serve-workers", 2usize),
        ..ServeConfig::default()
    };
    let server = Server::start(registry, serve_config);

    let keys: Vec<DesignKey> = (0..designs)
        .map(|d| DesignKey {
            name: format!("load{d}"),
            cells,
            tech: "7nm".into(),
            seed: d as u64 + 1,
        })
        .collect();

    let started = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let handle = server.handle();
            let keys = keys.clone();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(requests);
                let mut failures = 0usize;
                let mut shed = 0usize;
                for r in 0..requests {
                    let k = (w + r) % keys.len();
                    let mode = if r % 2 == 0 {
                        Mode::Greedy
                    } else {
                        Mode::Sample((w * requests + r) as u64)
                    };
                    let t = Instant::now();
                    let resp = handle.query(QueryRequest {
                        model: "default".into(),
                        design: keys[k].clone(),
                        mode,
                        deadline_ms: None,
                        auth: None,
                    });
                    latencies.push(t.elapsed().as_secs_f64() * 1e3);
                    match resp {
                        Response::Err { .. } => failures += 1,
                        Response::Overloaded { .. } => shed += 1,
                        _ => {}
                    }
                }
                (latencies, failures, shed)
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut failures = 0usize;
    let mut shed = 0usize;
    for h in handles {
        let (l, f, s) = h.join().expect("client thread panicked");
        latencies.extend(l);
        failures += f;
        shed += s;
    }
    let wall_s = started.elapsed().as_secs_f64();
    let report = server.shutdown();

    sort_metrics(&mut latencies);
    let total = latencies.len();
    let throughput = total as f64 / wall_s;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let batch_p50 = report.stats.batch_p50();

    println!(
        "{total} requests from {workers} threads over {designs} designs in {wall_s:.2}s \
         ({throughput:.1} req/s), {failures} failed, {shed} shed"
    );
    println!("latency p50 {p50:.2} ms, p99 {p99:.2} ms");
    print!("batch census (size:count):");
    for (size, count) in &report.stats.batches {
        print!(" {size}:{count}");
    }
    println!(" — p50 {batch_p50}");
    println!(
        "drain: {} accepted, {} completed, {} shed, {} evicted, {} deadline-expired, {} dropped",
        report.stats.accepted,
        report.stats.completed,
        report.stats.shed,
        report.stats.evicted,
        report.stats.deadline_expired,
        report.dropped()
    );

    let rows = vec![format!(
        "{workers},{requests},{designs},{cells},{total},{throughput:.2},{p50:.3},{p99:.3},{batch_p50},{shed},{},{}",
        report.stats.evicted,
        report.dropped()
    )];
    write_csv(
        &csv,
        "workers,requests_per_worker,designs,cells,total,throughput_rps,p50_ms,p99_ms,batch_p50,shed,evicted,dropped",
        &rows,
    )
    .expect("write csv");
    println!("wrote {csv}");

    let json_path: String = cli.value("--json", "BENCH_serve.json".to_string());
    let report_json = Json::Obj(vec![
        Json::field("bench", Json::Str("serve_load".into())),
        Json::field("client_threads", Json::Num(workers as f64)),
        Json::field("requests_per_thread", Json::Num(requests as f64)),
        Json::field("designs", Json::Num(designs as f64)),
        Json::field("cells", Json::Num(cells as f64)),
        Json::field("total_requests", Json::Num(total as f64)),
        Json::field("wall_s", Json::Num(wall_s)),
        Json::field("throughput_rps", Json::Num(throughput)),
        Json::field("p50_ms", Json::Num(p50)),
        Json::field("p99_ms", Json::Num(p99)),
        Json::field("batch_p50", Json::Num(batch_p50 as f64)),
        Json::field("failures", Json::Num(failures as f64)),
        Json::field("shed", Json::Num(shed as f64)),
        Json::field("server_shed", Json::Num(report.stats.shed as f64)),
        Json::field("evicted", Json::Num(report.stats.evicted as f64)),
        Json::field(
            "deadline_expired",
            Json::Num(report.stats.deadline_expired as f64),
        ),
        Json::field(
            "health_probes",
            Json::Num(report.stats.health_probes as f64),
        ),
        Json::field("dropped", Json::Num(report.dropped() as f64)),
    ]);
    write_json(&json_path, &report_json).expect("write json");
    println!("wrote {json_path}");
    if let Err(e) = cli.finish() {
        eprintln!("trace: {e}");
        return ExitCode::FAILURE;
    }

    if failures > 0 {
        eprintln!("{failures} request(s) failed");
        return ExitCode::FAILURE;
    }
    if assert_shedding {
        if shed == 0 {
            eprintln!("overload run shed nothing: queue never filled, raise load or lower --queue");
            return ExitCode::FAILURE;
        }
        if report.dropped() > 0 {
            eprintln!("drain dropped {} in-flight request(s)", report.dropped());
            return ExitCode::FAILURE;
        }
    }
    if assert_batching {
        if batch_p50 < 2 {
            eprintln!("batch p50 {batch_p50} < 2: dynamic batching did not engage");
            return ExitCode::FAILURE;
        }
        if report.dropped() > 0 {
            eprintln!("drain dropped {} in-flight request(s)", report.dropped());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Connection-scaling mode: N concurrent TCP connections into the serve
/// port, one pipelined query each — all writes first, then all reads
/// — so the server really holds N sockets with up to N requests in flight
/// at the moment the burst lands.
fn run_connection_scaling(
    cli: &Cli,
    connections: usize,
    designs: usize,
    cells: usize,
    assert_shedding: bool,
) -> ExitCode {
    let config = RlConfig::fast();
    let rho = config.rho;
    let (_, params) = RlCcd::init(config);
    let registry = ModelRegistry::new();
    registry
        .insert_params("default", params, rho)
        .expect("register model");
    let serve_config = ServeConfig {
        max_batch: cli.value("--max-batch", 8),
        window: Duration::from_millis(cli.value("--window-ms", 2u64)),
        // Roomy by default: every query queues. Pin it low with --queue
        // to make the burst overflow into typed shedding.
        queue_capacity: cli.value("--queue", connections + 1),
        workers: cli.value("--serve-workers", 2usize),
        ..ServeConfig::default()
    };
    let mut server = Server::start(registry, serve_config);
    let addr = server.bind("127.0.0.1:0").expect("bind server");

    let keys: Vec<DesignKey> = (0..designs)
        .map(|d| DesignKey {
            name: format!("conn{d}"),
            cells,
            tech: "7nm".into(),
            seed: d as u64 + 1,
        })
        .collect();

    // Warm the env cache through the front door, so burst latencies
    // measure inference + transport, not N redundant design builds.
    {
        let mut warm = TcpStream::connect(addr).expect("warmup connect");
        warm.set_read_timeout(Some(Duration::from_secs(120))).ok();
        for key in &keys {
            let req = Request::Query(QueryRequest {
                model: "default".into(),
                design: key.clone(),
                mode: Mode::Greedy,
                deadline_ms: None,
                auth: None,
            });
            write_frame(&mut warm, &req.encode()).expect("warmup send");
            let reply = read_frame(&mut warm).expect("warmup receive");
            let resp = Response::decode(&reply).expect("warmup decode");
            assert!(matches!(resp, Response::Ok(_)), "warmup query: {resp:?}");
        }
    }

    // Phase 1: open every connection and keep it open.
    let opened = Instant::now();
    let mut conns: Vec<TcpStream> = Vec::with_capacity(connections);
    for i in 0..connections {
        let conn = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("connection {i}/{connections} refused: {e}"));
        conn.set_nodelay(true).ok();
        conn.set_read_timeout(Some(Duration::from_secs(300))).ok();
        conn.set_write_timeout(Some(Duration::from_secs(300))).ok();
        conns.push(conn);
    }
    let open_s = opened.elapsed().as_secs_f64();

    // Phase 2: the burst — one query written down every connection before
    // any reply is read.
    let started = Instant::now();
    for (i, conn) in conns.iter_mut().enumerate() {
        let req = Request::Query(QueryRequest {
            model: "default".into(),
            design: keys[i % keys.len()].clone(),
            mode: if i % 2 == 0 {
                Mode::Greedy
            } else {
                Mode::Sample(i as u64)
            },
            // Generous: shedding should come from queue capacity, not
            // from queued work aging out mid-burst.
            deadline_ms: Some(300_000),
            auth: None,
        });
        write_frame(conn, &req.encode()).unwrap_or_else(|e| panic!("send on connection {i}: {e}"));
    }

    // Phase 3: collect every reply. Completion time is measured from the
    // burst start — the client-observed wait under full contention.
    let mut latencies = Vec::with_capacity(connections);
    let mut ok = 0usize;
    let mut shed = 0usize;
    let mut failures = 0usize;
    for (i, conn) in conns.iter_mut().enumerate() {
        let outcome = read_frame(conn)
            .map_err(|e| format!("receive on connection {i}: {e}"))
            .and_then(|reply| Response::decode(&reply));
        latencies.push(started.elapsed().as_secs_f64() * 1e3);
        match outcome {
            Ok(Response::Ok(_)) => ok += 1,
            Ok(Response::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms > 0, "backoff hint is a real number");
                shed += 1;
            }
            Ok(other) => {
                eprintln!("connection {i}: unexpected answer {other:?}");
                failures += 1;
            }
            Err(e) => {
                eprintln!("connection {i}: {e}");
                failures += 1;
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    drop(conns);
    let report = server.shutdown();

    sort_metrics(&mut latencies);
    let conn_rps = connections as f64 / wall_s;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    println!(
        "{connections} connections opened in {open_s:.2}s; burst answered in {wall_s:.2}s \
         ({conn_rps:.1} conn/s): {ok} ok, {shed} shed, {failures} failed"
    );
    println!("completion p50 {p50:.2} ms, p99 {p99:.2} ms");
    println!(
        "drain: {} accepted, {} completed, {} shed, {} evicted, {} deadline-expired, {} dropped",
        report.stats.accepted,
        report.stats.completed,
        report.stats.shed,
        report.stats.evicted,
        report.stats.deadline_expired,
        report.dropped()
    );

    let csv: String = cli.value("--csv", "serve_conns.csv".to_string());
    let rows = vec![format!(
        "{connections},{designs},{cells},{conn_rps:.2},{p50:.3},{p99:.3},{ok},{shed},{failures},{},{}",
        report.stats.evicted,
        report.dropped()
    )];
    write_csv(
        &csv,
        "connections,designs,cells,conn_rps,conn_p50_ms,conn_p99_ms,ok,shed,failures,evicted,dropped",
        &rows,
    )
    .expect("write csv");
    println!("wrote {csv}");

    // Merge the connection metrics into the (possibly existing) bench
    // artifact instead of clobbering the in-process serve_load fields.
    let json_path: String = cli.value("--json", "BENCH_serve.json".to_string());
    let conn_fields = vec![
        Json::field("connections", Json::Num(connections as f64)),
        Json::field("conn_open_s", Json::Num(open_s)),
        Json::field("conn_wall_s", Json::Num(wall_s)),
        Json::field("conn_rps", Json::Num(conn_rps)),
        Json::field("conn_p50_ms", Json::Num(p50)),
        Json::field("conn_p99_ms", Json::Num(p99)),
        Json::field("conn_ok", Json::Num(ok as f64)),
        Json::field("conn_shed", Json::Num(shed as f64)),
        Json::field("conn_failures", Json::Num(failures as f64)),
        Json::field("conn_evicted", Json::Num(report.stats.evicted as f64)),
        Json::field("conn_dropped", Json::Num(report.dropped() as f64)),
    ];
    let mut fields = match std::fs::read_to_string(&json_path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
    {
        Some(Json::Obj(existing)) => existing
            .into_iter()
            .filter(|(k, _)| !conn_fields.iter().any(|(nk, _)| nk == k))
            .collect(),
        _ => vec![Json::field("bench", Json::Str("serve_load".into()))],
    };
    fields.extend(conn_fields);
    write_json(&json_path, &Json::Obj(fields)).expect("write json");
    println!("wrote {json_path}");
    if let Err(e) = cli.finish() {
        eprintln!("trace: {e}");
        return ExitCode::FAILURE;
    }

    if failures > 0 {
        eprintln!("{failures} connection(s) failed");
        return ExitCode::FAILURE;
    }
    if assert_shedding {
        if shed == 0 {
            eprintln!("overload burst shed nothing: queue never filled, lower --queue");
            return ExitCode::FAILURE;
        }
        if ok == 0 {
            eprintln!("burst was shed entirely: capacity gated to zero");
            return ExitCode::FAILURE;
        }
        if report.dropped() > 0 {
            eprintln!("drain dropped {} in-flight request(s)", report.dropped());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Multi-tenant daemon mode: N authenticated tenants over real TCP into
/// a [`Daemon`]'s tenant port, `--requests` queries each. Every request
/// pays for the full admission path — credential check (constant-time),
/// token bucket, quota window, per-tenant metrics — before it reaches the
/// same serving core the other modes measure, so `tenant_rps` vs
/// `throughput_rps` is the price of tenancy.
fn run_tenant_load(
    cli: &Cli,
    tenants: usize,
    requests: usize,
    designs: usize,
    cells: usize,
) -> ExitCode {
    let config = RlConfig::fast();
    let rho = config.rho;
    let (_, params) = RlCcd::init(config);
    let registry = ModelRegistry::new();
    registry
        .insert_params(CHAMPION, params, rho)
        .expect("register model");
    let serve_config = ServeConfig {
        max_batch: cli.value("--max-batch", 8),
        window: Duration::from_millis(cli.value("--window-ms", 2u64)),
        queue_capacity: cli.value("--queue", tenants * requests + 1),
        workers: cli.value("--serve-workers", 2usize),
        ..ServeConfig::default()
    };
    let mut daemon = Daemon::start(
        registry,
        DaemonConfig {
            serve: serve_config,
            rho,
            ..DaemonConfig::default()
        },
        Arc::new(SystemClock),
    );
    // Generous limits: the bench measures the admission path's cost, not
    // its throttling (the tenancy tests pin that behavior).
    for t in 0..tenants {
        daemon.tenants().add(
            format!("bench{t}:tok{t}:1000000:1000000:1000000000")
                .parse()
                .expect("tenant spec"),
        );
    }
    let addr = daemon.bind_query("127.0.0.1:0").expect("bind tenant port");

    let keys: Vec<DesignKey> = (0..designs)
        .map(|d| DesignKey {
            name: format!("tenant{d}"),
            cells,
            tech: "7nm".into(),
            seed: d as u64 + 1,
        })
        .collect();

    let started = Instant::now();
    let handles: Vec<_> = (0..tenants)
        .map(|t| {
            let keys = keys.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect tenant");
                let mut latencies = Vec::with_capacity(requests);
                let mut ok = 0usize;
                let mut throttled = 0usize;
                let mut failures = 0usize;
                for r in 0..requests {
                    let req = QueryRequest {
                        model: CHAMPION.into(),
                        design: keys[(t + r) % keys.len()].clone(),
                        mode: if r % 2 == 0 {
                            Mode::Greedy
                        } else {
                            Mode::Sample((t * requests + r) as u64)
                        },
                        deadline_ms: Some(300_000),
                        auth: Some(Credentials {
                            tenant: format!("bench{t}"),
                            token: format!("tok{t}"),
                        }),
                    };
                    let at = Instant::now();
                    match client.query(req) {
                        Ok(Response::Ok(_)) => ok += 1,
                        Ok(Response::QuotaExceeded { .. } | Response::Overloaded { .. }) => {
                            throttled += 1
                        }
                        Ok(other) => {
                            eprintln!("tenant bench{t}: unexpected answer {other:?}");
                            failures += 1;
                        }
                        Err(e) => {
                            eprintln!("tenant bench{t}: {e}");
                            failures += 1;
                        }
                    }
                    latencies.push(at.elapsed().as_secs_f64() * 1e3);
                }
                (latencies, ok, throttled, failures)
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut ok = 0usize;
    let mut throttled = 0usize;
    let mut failures = 0usize;
    for h in handles {
        let (l, o, t, f) = h.join().expect("tenant thread panicked");
        latencies.extend(l);
        ok += o;
        throttled += t;
        failures += f;
    }
    let wall_s = started.elapsed().as_secs_f64();
    let report = daemon.shutdown();

    sort_metrics(&mut latencies);
    let total = latencies.len();
    let tenant_rps = total as f64 / wall_s;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    println!(
        "{total} authenticated requests from {tenants} tenants over {designs} designs \
         in {wall_s:.2}s ({tenant_rps:.1} req/s): {ok} ok, {throttled} throttled, \
         {failures} failed"
    );
    println!("latency p50 {p50:.2} ms, p99 {p99:.2} ms");
    let accepted: u64 = report.tenants.iter().map(|t| t.usage.accepted).sum();
    println!(
        "drain: {} tenants, {} accepted by the book, {} dropped",
        report.tenants.len(),
        accepted,
        report.drain.dropped()
    );

    let csv: String = cli.value("--csv", "serve_tenants.csv".to_string());
    let rows = vec![format!(
        "{tenants},{requests},{designs},{cells},{total},{tenant_rps:.2},{p50:.3},{p99:.3},{ok},{throttled},{failures},{}",
        report.drain.dropped()
    )];
    write_csv(
        &csv,
        "tenants,requests_per_tenant,designs,cells,total,tenant_rps,tenant_p50_ms,tenant_p99_ms,ok,throttled,failures,dropped",
        &rows,
    )
    .expect("write csv");
    println!("wrote {csv}");

    // Merge into the shared artifact alongside throughput_rps/conn_rps.
    let json_path: String = cli.value("--json", "BENCH_serve.json".to_string());
    let tenant_fields = vec![
        Json::field("tenants", Json::Num(tenants as f64)),
        Json::field("tenant_requests", Json::Num(total as f64)),
        Json::field("tenant_wall_s", Json::Num(wall_s)),
        Json::field("tenant_rps", Json::Num(tenant_rps)),
        Json::field("tenant_p50_ms", Json::Num(p50)),
        Json::field("tenant_p99_ms", Json::Num(p99)),
        Json::field("tenant_ok", Json::Num(ok as f64)),
        Json::field("tenant_throttled", Json::Num(throttled as f64)),
        Json::field("tenant_failures", Json::Num(failures as f64)),
        Json::field("tenant_dropped", Json::Num(report.drain.dropped() as f64)),
    ];
    let mut fields = match std::fs::read_to_string(&json_path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
    {
        Some(Json::Obj(existing)) => existing
            .into_iter()
            .filter(|(k, _)| !tenant_fields.iter().any(|(nk, _)| nk == k))
            .collect(),
        _ => vec![Json::field("bench", Json::Str("serve_load".into()))],
    };
    fields.extend(tenant_fields);
    write_json(&json_path, &Json::Obj(fields)).expect("write json");
    println!("wrote {json_path}");
    if let Err(e) = cli.finish() {
        eprintln!("trace: {e}");
        return ExitCode::FAILURE;
    }

    if failures > 0 {
        eprintln!("{failures} request(s) failed");
        return ExitCode::FAILURE;
    }
    if report.drain.dropped() > 0 {
        eprintln!(
            "drain dropped {} in-flight request(s)",
            report.drain.dropped()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
