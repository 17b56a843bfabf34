//! The front-end contract: every case runs against `front::bind`, the
//! epoll reactor every listening port in the workspace is built on.

use rl_ccd_wire::front::{self, Front, FrontCounters, FrontOptions, Reply};
use rl_ccd_wire::{read_frame, write_frame};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

type Handler = Box<dyn Fn(Vec<u8>, Reply) + Send + Sync>;

const MAX_FRAME: usize = 64 * 1024;

fn options() -> FrontOptions {
    FrontOptions {
        name: "test",
        max_frame_len: MAX_FRAME,
        write_timeout: Duration::from_secs(5),
        sock_send_buffer: None,
    }
}

struct Port {
    front: Front,
    addr: SocketAddr,
    counters: Arc<FrontCounters>,
}

fn start(options: FrontOptions, handler: Handler) -> Port {
    let counters = Arc::new(FrontCounters::default());
    let front = front::bind("127.0.0.1:0", options, counters.clone(), handler).expect("bind");
    Port {
        addr: front.local_addr(),
        front,
        counters,
    }
}

fn echo() -> Handler {
    Box::new(|payload, reply| reply.send(payload))
}

/// A handler that answers nothing itself: every frame and its `Reply` are
/// handed to the test thread, which decides when (and whether) to answer.
fn parked() -> (Handler, mpsc::Receiver<(Vec<u8>, Reply)>) {
    let (tx, rx) = mpsc::channel();
    let tx = Mutex::new(tx);
    let handler: Handler = Box::new(move |payload, reply| {
        tx.lock()
            .expect("park lock")
            .send((payload, reply))
            .expect("test thread is listening");
    });
    (handler, rx)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .expect("write timeout");
    stream
}

fn roundtrip(stream: &mut TcpStream, payload: &[u8]) -> Vec<u8> {
    write_frame(stream, payload).expect("send");
    read_frame(stream).expect("reply")
}

/// True once the server has closed the connection (EOF or reset).
fn closed_by_server(stream: &mut TcpStream) -> bool {
    let mut byte = [0u8; 1];
    !matches!(stream.read(&mut byte), Ok(n) if n > 0)
}

#[test]
fn pipelined_requests_are_all_answered() {
    let port = start(options(), echo());
    let mut stream = connect(port.addr);
    let sent: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 10 + i as usize]).collect();
    let mut burst = Vec::new();
    for payload in &sent {
        write_frame(&mut burst, payload).expect("encode");
    }
    stream.write_all(&burst).expect("send burst");
    let got: Vec<Vec<u8>> = (0..sent.len())
        .map(|_| read_frame(&mut stream).expect("reply frame"))
        .collect();
    assert_eq!(got, sent, "inline replies come back in order");
    port.front.shutdown();
}

#[test]
fn oversize_prefix_and_torn_frame_close_only_their_connection() {
    let port = start(options(), echo());
    let mut healthy = connect(port.addr);
    assert_eq!(roundtrip(&mut healthy, b"before"), b"before");

    let mut oversize = connect(port.addr);
    oversize
        .write_all(&(MAX_FRAME as u32 + 1).to_be_bytes())
        .expect("forged prefix");
    assert!(closed_by_server(&mut oversize), "oversize prefix");

    let mut torn = connect(port.addr);
    torn.write_all(&100u32.to_be_bytes()).expect("prefix");
    torn.write_all(&[7u8; 10]).expect("partial payload");
    torn.shutdown(Shutdown::Write).expect("half-close");
    assert!(closed_by_server(&mut torn), "torn frame");

    assert_eq!(roundtrip(&mut healthy, b"after"), b"after");
    assert_eq!(roundtrip(&mut connect(port.addr), b"new"), b"new");
    port.front.shutdown();
}

#[test]
fn unanswered_reply_closes_the_connection() {
    let port = start(options(), Box::new(|_payload, reply| drop(reply)));
    let mut stream = connect(port.addr);
    write_frame(&mut stream, b"anyone?").expect("send");
    assert!(closed_by_server(&mut stream));
    port.front.shutdown();
}

#[test]
fn send_and_close_flushes_then_hangs_up() {
    let port = start(
        options(),
        Box::new(|payload, reply| reply.send_and_close(payload)),
    );
    let mut stream = connect(port.addr);
    assert_eq!(roundtrip(&mut stream, b"bye"), b"bye");
    assert!(closed_by_server(&mut stream));
    port.front.shutdown();
}

#[test]
fn write_stall_evicts_and_counts() {
    // A client that floods requests and never reads a byte: once the
    // kernel buffers fill, a response stays unsent past write_timeout and
    // the connection must be evicted — not buffered without bound, not
    // kept forever.
    let stalling = FrontOptions {
        write_timeout: Duration::from_millis(150),
        // Cap the kernel send buffer so the stall surfaces as write
        // backpressure instead of vanishing into autotuned buffers.
        sock_send_buffer: Some(16 * 1024),
        ..options()
    };
    let port = start(stalling, echo());
    let mut flood = connect(port.addr);
    let mut burst = Vec::new();
    for _ in 0..256 {
        write_frame(&mut burst, &[9u8; MAX_FRAME]).expect("encode");
    }
    // The server may evict us mid-send; a reset while we still write
    // is this test passing, not failing.
    let _ = flood.write_all(&burst);
    let deadline = Instant::now() + Duration::from_secs(30);
    while port.counters.evicted() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        port.counters.evicted() >= 1,
        "a response unsent for write_timeout must evict the client"
    );
    // Nobody else is affected.
    assert_eq!(roundtrip(&mut connect(port.addr), b"ok"), b"ok");
    drop(flood);
    port.front.shutdown();
}

#[test]
fn reply_completed_from_another_thread_reaches_the_client() {
    let (handler, parked) = parked();
    let port = start(options(), handler);
    let mut stream = connect(port.addr);
    write_frame(&mut stream, b"deferred").expect("send");
    // The handler has returned and the reactor is back in a poll with
    // no timer armed: only the completion's wake can deliver this.
    let (payload, reply) = parked
        .recv_timeout(Duration::from_secs(10))
        .expect("handler ran");
    reply.send(payload);
    assert_eq!(read_frame(&mut stream).expect("reply"), b"deferred");
    assert!(port.counters.polls() > 0, "the reactor actually polled");
    port.front.shutdown();
}

#[test]
fn shutdown_delivers_every_owed_reply() {
    let (handler, parked) = parked();
    let port = start(options(), handler);
    // Three connections each owed one reply, and one idle one.
    let mut owed: Vec<TcpStream> = (0..3u8)
        .map(|i| {
            let mut stream = connect(port.addr);
            write_frame(&mut stream, &[i; 4]).expect("send");
            stream
        })
        .collect();
    let replies: Vec<(Vec<u8>, Reply)> = (0..3)
        .map(|_| {
            parked
                .recv_timeout(Duration::from_secs(10))
                .expect("handler ran")
        })
        .collect();
    let mut idle = connect(port.addr);
    assert_eq!(roundtrip_parked(&mut idle, &parked), b"idle");

    let front = port.front;
    let drain = std::thread::spawn(move || front.shutdown());
    // The drain has begun once the idle connection is hung up on; it
    // cannot finish while three replies are outstanding.
    assert!(closed_by_server(&mut idle), "idle closed by drain");
    assert!(!drain.is_finished(), "drain waits for owed replies");
    for (payload, reply) in replies {
        reply.send(payload);
    }
    let mut got: Vec<Vec<u8>> = owed
        .iter_mut()
        .map(|stream| read_frame(stream).expect("owed reply delivered"))
        .collect();
    got.sort();
    assert_eq!(got, vec![vec![0u8; 4], vec![1u8; 4], vec![2u8; 4]]);
    drain.join().expect("drain thread");
    for stream in &mut owed {
        assert!(closed_by_server(stream), "closed after delivery");
    }
}

/// One request/response on a port whose handler parks replies: answers
/// the parked reply from this thread.
fn roundtrip_parked(stream: &mut TcpStream, parked: &mpsc::Receiver<(Vec<u8>, Reply)>) -> Vec<u8> {
    write_frame(stream, b"idle").expect("send");
    let (payload, reply) = parked
        .recv_timeout(Duration::from_secs(10))
        .expect("handler ran");
    reply.send(payload);
    read_frame(stream).expect("reply")
}

#[test]
fn thousand_idle_connections_add_no_readiness_events() {
    let port = start(options(), echo());
    let idle: Vec<TcpStream> = (0..1000)
        .map(|i| TcpStream::connect(port.addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();
    // Connections are accepted in order, so once this last one is
    // answered every idle one has been accepted and registered.
    let mut active = connect(port.addr);
    assert_eq!(roundtrip(&mut active, b"warm"), b"warm");
    let before = port.counters.events();

    const ROUNDTRIPS: u64 = 50;
    for i in 0..ROUNDTRIPS {
        let payload = i.to_be_bytes();
        assert_eq!(roundtrip(&mut active, &payload), payload);
    }
    let delta = port.counters.events() - before;
    // A roundtrip costs a readable event and a completion wake. 1000
    // idle sockets must contribute nothing: the O(open-connections)
    // failure mode would put delta in the tens of thousands.
    let bound = ROUNDTRIPS * 4 + 16;
    assert!(
        delta <= bound,
        "{delta} events for {ROUNDTRIPS} roundtrips with 1000 idle conns (bound {bound})"
    );
    drop(idle);
    drop(active);
    port.front.shutdown();
}

#[test]
fn half_closed_client_gets_its_late_reply_without_a_poll_spin() {
    // The client sends, shuts down its write side, and waits; the answer
    // comes 200 ms later from another thread. The reactor must hold the
    // connection for the reply without polling the half-close in a loop.
    let handler: Handler = Box::new(|payload, reply| {
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            reply.send(payload);
        });
    });
    let port = start(options(), handler);
    let mut stream = connect(port.addr);
    let before = port.counters.polls();
    write_frame(&mut stream, b"late").expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    assert_eq!(read_frame(&mut stream).expect("reply"), b"late");
    assert!(closed_by_server(&mut stream), "closed after delivery");
    let polls = port.counters.polls() - before;
    assert!(
        polls < 50,
        "{polls} polls while a half-closed client waited 200 ms"
    );
    port.front.shutdown();
}
