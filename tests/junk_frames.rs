//! A junk frame gets a typed answer, not a dropped connection.
//!
//! Decoder errors quote the input that caused them, handlers echo request
//! values (`no model "…"`, `load DIR: …`), and the three `wire::front`
//! ports copy both into their rejection. Before the field layer bounded
//! the quote and the tail, a single ~1 MiB token or value was answered by
//! a reply larger than `MAX_FRAME_LEN`, which the front-end could not send
//! and treated as a dead connection. Each port must instead answer every
//! junk shape with a decodable rejection — promptly: the decoders run on
//! the reactor thread, ahead of authentication — and keep serving the same
//! connection.

use rl_ccd::{RlCcd, RlConfig};
use rl_ccd_daemon::{
    AdminReply, AdminRequest, Daemon, DaemonConfig, SystemClock, ADMIN_PROTOCOL_VERSION, CHAMPION,
};
use rl_ccd_serve::protocol::{read_frame, write_frame, MAX_FRAME_LEN};
use rl_ccd_serve::{
    ModelRegistry, RejectKind, Request, Response, ServeConfig, Server, PROTOCOL_VERSION,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn registry() -> ModelRegistry {
    let (_, params) = RlCcd::init(RlConfig::fast());
    let reg = ModelRegistry::new();
    reg.insert_params(CHAMPION, params, 0.3).expect("insert");
    reg
}

/// `version\nverb AAAA…`: one no-`=` token filling the largest frame the
/// port reads, so a reply that echoes it cannot fit in one.
fn junk(version: &str, verb: &str) -> Vec<u8> {
    let mut payload = format!("{version}\n{verb} ").into_bytes();
    payload.resize(MAX_FRAME_LEN, b'A');
    payload
}

/// `version\nverb 0=1 1=1 2=1 …`: a full frame of distinct keys, which an
/// uncapped repeated-key check reads in quadratic time (16 s).
fn distinct_keys(version: &str, verb: &str) -> Vec<u8> {
    let mut payload = format!("{version}\n{verb}").into_bytes();
    for i in 0.. {
        let field = format!(" {i}=1");
        if payload.len() + field.len() > MAX_FRAME_LEN {
            break;
        }
        payload.extend_from_slice(field.as_bytes());
    }
    payload
}

/// A well-formed head whose `{}` is a value filling the frame: it decodes,
/// and the handler's answer echoes it.
fn huge_value(version: &str, head: &str) -> Vec<u8> {
    let room = MAX_FRAME_LEN - version.len() - head.len();
    format!("{version}\n{}", head.replace("{}", &"A".repeat(room))).into_bytes()
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

fn exchange(stream: &mut TcpStream, payload: &[u8]) -> Vec<u8> {
    write_frame(stream, payload).expect("send");
    read_frame(stream).expect("the port must answer, not hang up")
}

/// Every junk shape, then a health probe, on one serve-protocol
/// connection. `echo` is what answers the huge-but-valid query: the serve
/// port looks the model up, the tenant port wants credentials first.
fn serve_protocol_port_survives_junk(addr: SocketAddr, echo: RejectKind) {
    let mut stream = connect(addr);
    let query = "query model={} design=d:100:7nm:1 mode=greedy\n";
    for (payload, kind, says) in [
        (
            junk(PROTOCOL_VERSION, "query"),
            RejectKind::BadRequest,
            "not key=value",
        ),
        (
            distinct_keys(PROTOCOL_VERSION, "query"),
            RejectKind::BadRequest,
            "more than",
        ),
        (huge_value(PROTOCOL_VERSION, query), echo, ""),
    ] {
        let started = Instant::now();
        let reply = exchange(&mut stream, &payload);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{:?}",
            started.elapsed()
        );
        match Response::decode(&reply).expect("decodable rejection") {
            Response::Err { kind: got, msg } => {
                assert_eq!(got, kind, "{msg}");
                assert!(msg.contains(says), "{msg}");
                assert!(msg.len() < 8192, "the echo is bounded: {} bytes", msg.len());
            }
            other => panic!("expected {kind}, got {other:?}"),
        }
    }
    let reply = exchange(&mut stream, &Request::Health.encode());
    assert!(
        matches!(Response::decode(&reply), Ok(Response::Health(_))),
        "the connection must answer the next request"
    );
}

#[test]
fn the_serve_port_answers_oversized_junk_with_bad_request() {
    let mut server = Server::start(registry(), ServeConfig::default());
    let addr = server.bind("127.0.0.1:0").expect("bind");
    serve_protocol_port_survives_junk(addr, RejectKind::UnknownModel);
    server.shutdown();
}

#[test]
fn the_tenant_and_admin_ports_answer_oversized_junk_with_typed_errors() {
    let mut daemon = Daemon::start(registry(), DaemonConfig::default(), Arc::new(SystemClock));
    let tenant_addr = daemon.bind_query("127.0.0.1:0").expect("bind query");
    let admin_addr = daemon.bind_admin("127.0.0.1:0").expect("bind admin");
    serve_protocol_port_survives_junk(tenant_addr, RejectKind::Denied);

    let mut stream = connect(admin_addr);
    let load = "load slot=challenger dir={} rho=0.3\n";
    for (payload, says) in [
        (junk(ADMIN_PROTOCOL_VERSION, "load"), "not key=value"),
        (distinct_keys(ADMIN_PROTOCOL_VERSION, "load"), "more than"),
        (huge_value(ADMIN_PROTOCOL_VERSION, load), "load AAAA"),
    ] {
        let started = Instant::now();
        let reply = exchange(&mut stream, &payload);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{:?}",
            started.elapsed()
        );
        match AdminReply::decode(&reply).expect("decodable rejection") {
            AdminReply::Err { msg } => {
                assert!(msg.contains(says), "{msg}");
                assert!(msg.len() < 8192, "the echo is bounded: {} bytes", msg.len());
            }
            other => panic!("expected err, got {other:?}"),
        }
    }
    let reply = exchange(&mut stream, &AdminRequest::Status.encode(None));
    assert!(
        matches!(AdminReply::decode(&reply), Ok(AdminReply::Status(_))),
        "the connection must answer the next request"
    );
    daemon.shutdown();
}
