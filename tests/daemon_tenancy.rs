//! Tenancy edges through the daemon's TCP path: quota and rate limits
//! answered as typed `QuotaExceeded` with honest hints, and canary
//! routing at its 0.0/1.0 boundaries.
//!
//! All timing runs on a [`ManualClock`] shared between the test and the
//! daemon — no wall-clock sleeps decide admissions, so every hint is
//! asserted exactly.

use rl_ccd::{RlCcd, RlConfig};
use rl_ccd_daemon::{
    AdminReply, AdminRequest, Daemon, DaemonConfig, ManualClock, CHALLENGER, CHAMPION,
    QUOTA_WINDOW_MS,
};
use rl_ccd_serve::{
    Credentials, DesignKey, Mode, ModelRegistry, QueryRequest, Response, ServeClient,
};
use rl_ccd_wire::{read_frame, write_frame, MAX_FRAME_LEN};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn registry(slots: &[&str]) -> ModelRegistry {
    let (_, params) = RlCcd::init(RlConfig::fast());
    let reg = ModelRegistry::new();
    for slot in slots {
        reg.insert_params(*slot, params.clone(), 0.3)
            .expect("insert");
    }
    reg
}

fn query_as(tenant: &str, token: &str) -> QueryRequest {
    QueryRequest {
        model: CHAMPION.into(),
        design: DesignKey {
            name: "tenancy".into(),
            cells: 220,
            tech: "7nm".into(),
            seed: 3,
        },
        mode: Mode::Greedy,
        deadline_ms: Some(30_000),
        auth: Some(Credentials {
            tenant: tenant.into(),
            token: token.into(),
        }),
    }
}

fn daemon_with(slots: &[&str], tenants: &[&str], clock: &ManualClock) -> Daemon {
    let mut daemon = Daemon::start(
        registry(slots),
        DaemonConfig::default(),
        Arc::new(clock.clone()),
    );
    for spec in tenants {
        daemon.tenants().add(spec.parse().expect("tenant spec"));
    }
    daemon.bind_query("127.0.0.1:0").expect("bind query");
    daemon
}

/// A zero-quota tenant authenticates but every query is `QuotaExceeded`
/// with the remainder of the 30-day window as the hint — far above the
/// client's retryable ceiling, so it surfaces instead of sleeping.
#[test]
fn zero_quota_tenant_is_quota_exceeded_over_the_wire() {
    let clock = ManualClock::at(12_345);
    let daemon = daemon_with(&[CHAMPION], &["frozen:tok:10:5:0"], &clock);
    let addr = daemon.query_addr().unwrap();
    let mut client = ServeClient::connect(addr).expect("connect");

    let r = client.query(query_as("frozen", "tok")).unwrap();
    let Response::QuotaExceeded { retry_after_ms } = r else {
        panic!("zero quota must be QuotaExceeded, got {r:?}")
    };
    assert_eq!(retry_after_ms, QUOTA_WINDOW_MS - 12_345);
    assert!(
        retry_after_ms > ServeClient::MAX_RETRYABLE_HINT_MS,
        "a spent quota's horizon must not be slept on by clients"
    );
    // Auth still gates first: a wrong token is a denial, not a throttle.
    let r = client.query(query_as("frozen", "wrong")).unwrap();
    assert!(
        matches!(r, Response::Err { .. }),
        "bad token is denied even for a disabled account: {r:?}"
    );

    let report = daemon.shutdown();
    assert_eq!(report.drain.dropped(), 0);
    assert_eq!(report.tenants[0].usage.throttled, 1);
    assert_eq!(report.tenants[0].usage.accepted, 0);
}

/// The token bucket refills with explicit clock steps, observed entirely
/// through TCP: burst drains, the hint is the exact refill horizon,
/// honoring it admits exactly one more request, and stepping one
/// millisecond short of the horizon still throttles.
#[test]
fn bucket_refill_is_driven_by_clock_steps_not_wall_time() {
    let clock = ManualClock::at(0);
    // 2 req/s, burst 3.
    let daemon = daemon_with(&[CHAMPION], &["acme:tok:2:3:1000000"], &clock);
    let addr = daemon.query_addr().unwrap();
    let mut client = ServeClient::connect(addr).expect("connect");

    for i in 0..3 {
        let r = client.query(query_as("acme", "tok")).unwrap();
        assert!(matches!(r, Response::Ok(_)), "burst request {i}: {r:?}");
    }
    let r = client.query(query_as("acme", "tok")).unwrap();
    let Response::QuotaExceeded { retry_after_ms } = r else {
        panic!("empty bucket must throttle, got {r:?}")
    };
    assert_eq!(
        retry_after_ms, 500,
        "one token at 2/s is half a second away"
    );

    // One millisecond short of the horizon: still throttled, the hint
    // shrunk to the last sliver of the refill.
    clock.advance(499);
    let r = client.query(query_as("acme", "tok")).unwrap();
    let Response::QuotaExceeded { retry_after_ms } = r else {
        panic!("499 ms is not enough, got {r:?}")
    };
    assert!(
        (1..=2).contains(&retry_after_ms),
        "last-sliver hint, got {retry_after_ms}"
    );

    // Honoring the hint fills the token exactly.
    clock.advance(retry_after_ms);
    let r = client.query(query_as("acme", "tok")).unwrap();
    assert!(matches!(r, Response::Ok(_)), "{r:?}");

    // A long idle caps at burst: exactly 3 more, then throttled again.
    clock.advance(3_600_000);
    for i in 0..3 {
        let r = client.query(query_as("acme", "tok")).unwrap();
        assert!(matches!(r, Response::Ok(_)), "post-idle request {i}: {r:?}");
    }
    assert!(matches!(
        client.query(query_as("acme", "tok")).unwrap(),
        Response::QuotaExceeded { .. }
    ));

    let report = daemon.shutdown();
    assert_eq!(report.drain.dropped(), 0);
    assert_eq!(report.tenants[0].usage.accepted, 7);
    assert_eq!(report.tenants[0].usage.throttled, 3);
}

/// Canary boundaries over the wire: fraction 0.0 routes every tenant to
/// the champion, 1.0 routes every tenant to the challenger, and the
/// answering slot is visible in each reply's `model` field.
#[test]
fn canary_zero_and_one_route_nobody_and_everybody() {
    let clock = ManualClock::at(0);
    let tenants = ["t0", "t1", "t2", "t3", "t4"];
    let specs: Vec<String> = tenants
        .iter()
        .map(|t| format!("{t}:tok:100:100:1000"))
        .collect();
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let daemon = daemon_with(&[CHAMPION, CHALLENGER], &spec_refs, &clock);
    let addr = daemon.query_addr().unwrap();
    let mut client = ServeClient::connect(addr).expect("connect");

    let answered_by = |client: &mut ServeClient, tenant: &str| -> String {
        match client.query(query_as(tenant, "tok")).unwrap() {
            Response::Ok(reply) => reply.model,
            other => panic!("canary query for {tenant} rejected: {other:?}"),
        }
    };

    // Default fraction is 0.0: nobody routes to the challenger.
    for t in &tenants {
        assert_eq!(answered_by(&mut client, t), CHAMPION, "fraction 0.0");
    }
    // 1.0: everybody does, tenant hash notwithstanding.
    daemon.promoter().set_canary(1.0).unwrap();
    for t in &tenants {
        assert_eq!(answered_by(&mut client, t), CHALLENGER, "fraction 1.0");
    }
    // Back to 0.0: the rewrite stops immediately.
    daemon.promoter().set_canary(0.0).unwrap();
    for t in &tenants {
        assert_eq!(answered_by(&mut client, t), CHAMPION, "fraction reset");
    }

    let report = daemon.shutdown();
    assert_eq!(report.drain.dropped(), 0);
    let accepted: u64 = report.tenants.iter().map(|t| t.usage.accepted).sum();
    assert_eq!(accepted, 15, "three rounds across five tenants");
}

/// Tenant specs reach the admin port up to a frame long. A 600 KB id, and
/// a malformed spec that fills the frame, each get a short typed `err`,
/// and the same connection answers the next command. Ids ride back in
/// every `tenant_list` reply, where two ids that size would not fit a
/// frame.
#[test]
fn oversized_tenant_specs_get_a_typed_error_on_a_live_connection() {
    let mut daemon = Daemon::start(
        registry(&[CHAMPION]),
        DaemonConfig::default(),
        Arc::new(ManualClock::at(0)),
    );
    let addr = daemon.bind_admin("127.0.0.1:0").expect("bind admin");
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut call = |request: &AdminRequest| {
        write_frame(&mut conn, &request.encode(None)).expect("send");
        let payload = read_frame(&mut conn).expect("answered on the same connection");
        AdminReply::decode(&payload).expect("admin reply")
    };
    let long_id = format!("{}:tok:1:1:1", "x".repeat(600 * 1024));
    let malformed = "y".repeat(MAX_FRAME_LEN - 1024);
    for spec in [long_id, malformed] {
        let len = spec.len();
        let reply = call(&AdminRequest::TenantAdd { spec });
        assert!(
            matches!(&reply, AdminReply::Err { msg } if msg.len() < 256),
            "a {len}-byte spec must be refused with a short error: {reply:?}"
        );
    }
    let reply = call(&AdminRequest::TenantList);
    assert!(
        matches!(&reply, AdminReply::Tenants(list) if list.is_empty()),
        "{reply:?}"
    );
    daemon.shutdown();
}
