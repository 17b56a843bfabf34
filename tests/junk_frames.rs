//! A junk frame gets a typed answer, not a dropped connection.
//!
//! Decoder errors quote the input that caused them, and the three
//! `wire::front` ports copy that error into their rejection. Before the
//! field layer bounded the quote, a single ~1 MiB token was answered by a
//! reply larger than `MAX_FRAME_LEN`, which the front-end could not send
//! and treated as a dead connection. Each port must instead answer with a
//! decodable rejection and keep serving the same connection.

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
use std::time::Duration;

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

/// Junk, then a health probe, on one serve-protocol connection.
fn serve_protocol_port_survives_junk(addr: SocketAddr) {
    let mut stream = connect(addr);
    let reply = exchange(&mut stream, &junk(PROTOCOL_VERSION, "query"));
    match Response::decode(&reply).expect("decodable rejection") {
        Response::Err { kind, msg } => {
            assert_eq!(kind, RejectKind::BadRequest);
            assert!(msg.contains("not key=value"), "{msg}");
            assert!(msg.len() < 256, "the quote is bounded: {} bytes", msg.len());
        }
        other => panic!("expected bad_request, got {other:?}"),
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
    serve_protocol_port_survives_junk(addr);
    server.shutdown();
}

#[test]
fn the_tenant_and_admin_ports_answer_oversized_junk_with_typed_errors() {
    let mut daemon = Daemon::start(registry(), DaemonConfig::default(), Arc::new(SystemClock));
    let tenant_addr = daemon.bind_query("127.0.0.1:0").expect("bind query");
    let admin_addr = daemon.bind_admin("127.0.0.1:0").expect("bind admin");
    serve_protocol_port_survives_junk(tenant_addr);

    let mut stream = connect(admin_addr);
    let reply = exchange(&mut stream, &junk(ADMIN_PROTOCOL_VERSION, "load"));
    match AdminReply::decode(&reply).expect("decodable rejection") {
        AdminReply::Err { msg } => {
            assert!(msg.contains("not key=value"), "{msg}");
            assert!(msg.len() < 256, "the quote is bounded: {} bytes", msg.len());
        }
        other => panic!("expected err, got {other:?}"),
    }
    let reply = exchange(&mut stream, &AdminRequest::Status.encode(None));
    assert!(
        matches!(AdminReply::decode(&reply), Ok(AdminReply::Status(_))),
        "the connection must answer the next request"
    );
    daemon.shutdown();
}
