//! The workspace's one TCP front-end: a listener parameterised by a frame
//! handler. The serve port, the daemon's tenant port and its admin port
//! are all this module with three different handlers.
//!
//! The front-end owns the sockets and the framing and knows nothing about
//! any protocol. For every complete inbound frame it calls the handler
//! with the payload and a one-shot [`Reply`]; the handler answers by
//! completing the `Reply` — inline, or later from any thread (a batch
//! worker, a spawned admin job). Responses go out in completion order.
//!
//! [`bind`] starts one thread that multiplexes every connection with
//! epoll: a [`FramedConn`] per socket, a [`TimerWheel`] for write stalls,
//! and a completion channel plus [`Waker`] to bring replies back onto the
//! loop. Its contract:
//!
//! * an oversized length prefix or a torn frame closes that connection
//!   and no other;
//! * a response the peer does not drain within
//!   [`FrontOptions::write_timeout`] evicts the connection and counts in
//!   [`FrontCounters::evicted`];
//! * [`Front::shutdown`] stops accepting, closes idle connections, and
//!   returns only after every `Reply` handed out has been completed and
//!   its response flushed (or its connection found dead);
//! * a `Reply` dropped without an answer closes its connection, so a
//!   handler bug shows up as an EOF at the client, never as a hang.
//!
//! The dist rollout worker is deliberately not a caller: its loop issues
//! chaos-wrapped *blocking* frame operations on accepted sockets, writes
//! raw torn frames and exits the process on command — serving it from
//! here would make this module branch on its caller.

use crate::frames::FramedConn;
use crate::reactor::{set_backlog, set_send_buffer, Interest, PollEvent, Poller, Waker};
use crate::timer::{TimerId, TimerWheel};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTENER: u64 = 0;
const WAKER: u64 = 1;
const FIRST_CONN: u64 = 2;

/// What a caller fixes about its port.
#[derive(Clone, Debug)]
pub struct FrontOptions {
    /// Thread-name prefix (`"{name}-front"`).
    pub name: &'static str,
    /// Frame cap in both directions.
    pub max_frame_len: usize,
    /// How long a response may sit unsent before the connection is
    /// evicted as a slow client.
    pub write_timeout: Duration,
    /// Kernel send-buffer cap (`SO_SNDBUF`) per accepted socket; `None`
    /// keeps the kernel's autotuned default.
    pub sock_send_buffer: Option<usize>,
}

/// Lifetime counters of one front-end, shared with whoever reports them.
#[derive(Debug, Default)]
pub struct FrontCounters {
    polls: AtomicU64,
    events: AtomicU64,
    evicted: AtomicU64,
}

impl FrontCounters {
    /// Poll returns of the event loop.
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Readiness events processed. Idle connections contribute nothing
    /// here.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Connections evicted on a write stall.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// One finished [`Reply`] on its way back to the connection's owner.
struct Done {
    token: u64,
    /// `None`: the reply was dropped unanswered; close the connection.
    payload: Option<Vec<u8>>,
    /// Close the connection once the response is flushed.
    close: bool,
}

/// The one-shot answer slot for one inbound frame. `Send`: complete it
/// from whichever thread has the answer.
#[derive(Debug)]
pub struct Reply {
    token: u64,
    /// Taken by the first completion; still present in `drop` means the
    /// handler never answered.
    done: Option<mpsc::Sender<Done>>,
    waker: Waker,
}

impl Reply {
    /// Answers the frame with `payload`.
    pub fn send(mut self, payload: Vec<u8>) {
        self.complete(Some(payload), false);
    }

    /// Answers the frame with `payload` and closes the connection once it
    /// is flushed.
    pub fn send_and_close(mut self, payload: Vec<u8>) {
        self.complete(Some(payload), true);
    }

    fn complete(&mut self, payload: Option<Vec<u8>>, close: bool) {
        let Some(done) = self.done.take() else { return };
        // A send can only fail once the front-end is gone, and then the
        // connection is closed already.
        let _ = done.send(Done {
            token: self.token,
            payload,
            close,
        });
        self.waker.wake();
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        self.complete(None, true);
    }
}

/// Threads that get joined: the finished ones on every later spawn, the
/// rest by [`Threads::join_all`]. The list tracks live threads, so a
/// long-lived process that spawns one per admin command does not
/// accumulate a handle for each one it ever started.
#[derive(Debug, Default)]
pub struct Threads(Mutex<Vec<JoinHandle<()>>>);

impl Threads {
    /// Spawns `f` on a named thread and keeps its handle.
    ///
    /// # Errors
    /// The OS refusing the thread.
    pub fn spawn(&self, name: String, f: impl FnOnce() + Send + 'static) -> io::Result<()> {
        let handle = std::thread::Builder::new().name(name).spawn(f)?;
        let mut live = self.0.lock().expect("thread list lock");
        let (finished, mut running): (Vec<_>, Vec<_>) =
            live.drain(..).partition(JoinHandle::is_finished);
        for h in finished {
            let _ = h.join();
        }
        running.push(handle);
        *live = running;
        Ok(())
    }

    /// Joins every thread still tracked.
    pub fn join_all(&self) {
        let live = std::mem::take(&mut *self.0.lock().expect("thread list lock"));
        for h in live {
            let _ = h.join();
        }
    }
}

#[derive(Debug)]
struct Ctl {
    draining: AtomicBool,
    /// Interrupts the reactor's poll.
    waker: Waker,
}

/// A bound, running front-end.
#[derive(Debug)]
pub struct Front {
    addr: SocketAddr,
    ctl: Arc<Ctl>,
    thread: JoinHandle<()>,
}

impl Front {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, close idle connections, deliver
    /// every response still owed, join every thread. Whatever produces
    /// the owed answers (a worker pool, admin jobs) must still be running.
    pub fn shutdown(self) {
        self.ctl.draining.store(true, Ordering::SeqCst);
        self.ctl.waker.wake();
        let _ = self.thread.join();
    }
}

/// Binds `addr` and serves it with `handler` on one reactor thread.
///
/// # Errors
/// Bind and epoll/eventfd setup failures, reported here on the caller
/// rather than inside the loop thread.
pub fn bind<H>(
    addr: &str,
    options: FrontOptions,
    counters: Arc<FrontCounters>,
    handler: H,
) -> io::Result<Front>
where
    H: Fn(Vec<u8>, Reply) + Send + Sync + 'static,
{
    let poller = Poller::new()?;
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    // A connection burst beyond std's hardcoded backlog of 128 would see
    // resets; re-arm to a depth matching what one loop can hold.
    let _ = set_backlog(&listener, 4096);
    listener.set_nonblocking(true)?;
    let waker = Waker::new()?;
    poller.register(&listener, LISTENER, Interest::READABLE)?;
    poller.register(&waker, WAKER, Interest::READABLE)?;
    let ctl = Arc::new(Ctl {
        draining: AtomicBool::new(false),
        waker: waker.clone(),
    });
    let (done_tx, done_rx) = mpsc::channel();
    let reactor = Reactor {
        poller,
        waker,
        ctl: ctl.clone(),
        options,
        counters,
        wheel: TimerWheel::with_ms_ticks(),
        conns: HashMap::new(),
        next_token: FIRST_CONN,
        owed: 0,
        done_tx,
        done_rx,
    };
    let thread = std::thread::Builder::new()
        .name(format!("{}-front", reactor.options.name))
        .spawn(move || reactor.run(&listener, &handler))?;
    Ok(Front {
        addr: local,
        ctl,
        thread,
    })
}

struct Conn {
    io: FramedConn,
    /// Replies handed to the handler and not yet completed.
    inflight: usize,
    /// Armed while the send buffer is non-empty; fires an eviction.
    stall: Option<TimerId>,
    /// Close once the send buffer drains.
    closing: bool,
    /// The interest the connection is registered with now.
    armed: Interest,
}

impl Conn {
    /// What to wait for: frames until the peer's EOF, write readiness
    /// while a response is unsent. After EOF only a hangup or an error is
    /// reported, so a half-closed peer still owed a reply does not keep
    /// the level-triggered poll returning.
    fn interest(&self) -> Interest {
        match (self.io.is_eof(), self.io.wants_write()) {
            (false, false) => Interest::READABLE,
            (false, true) => Interest::BOTH,
            (true, false) => Interest::NONE,
            (true, true) => Interest::WRITABLE,
        }
    }

    /// True when the connection has nothing left to do: a closing
    /// response flushed, or the peer closed and nothing is owed.
    fn done(&self) -> bool {
        !self.io.wants_write() && (self.closing || (self.io.is_eof() && self.inflight == 0))
    }
}

struct Reactor {
    poller: Poller,
    waker: Waker,
    ctl: Arc<Ctl>,
    options: FrontOptions,
    counters: Arc<FrontCounters>,
    wheel: TimerWheel,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Replies outstanding across all connections, dead ones included:
    /// the drain waits for this to reach zero.
    owed: usize,
    done_tx: mpsc::Sender<Done>,
    done_rx: mpsc::Receiver<Done>,
}

impl Reactor {
    /// Runs until drained: `draining` set, every owed response delivered
    /// (or its connection gone), every socket closed.
    fn run(mut self, listener: &TcpListener, handler: &dyn Fn(Vec<u8>, Reply)) {
        let mut events = Vec::new();
        let mut expired = Vec::new();
        let mut accepting = true;
        loop {
            if self.ctl.draining.load(Ordering::SeqCst) {
                if accepting {
                    let _ = self.poller.deregister(listener);
                    accepting = false;
                }
                // Idle connections see EOF now; ones still owed a
                // response (or still flushing one) stay until delivered.
                let idle: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| c.inflight == 0 && !c.io.wants_write())
                    .map(|(t, _)| *t)
                    .collect();
                for token in idle {
                    self.drop_conn(token);
                }
                if self.conns.is_empty() && self.owed == 0 {
                    return;
                }
            }
            let timeout = self.wheel.next_timeout(Instant::now());
            if self.poller.poll(&mut events, timeout).is_err() {
                return;
            }
            self.counters.polls.fetch_add(1, Ordering::Relaxed);
            self.counters
                .events
                .fetch_add(events.len() as u64, Ordering::Relaxed);
            for ev in &events {
                match ev.token {
                    LISTENER => {
                        if accepting {
                            self.accept_burst(listener);
                        }
                    }
                    WAKER => self.waker.drain(),
                    _ => self.conn_event(ev, handler),
                }
            }
            // Completions: the ones handlers made inline just now, and
            // the ones other threads announced through the waker.
            while let Ok(done) = self.done_rx.try_recv() {
                self.owed -= 1;
                // An evicted or hung-up connection's reply has nowhere to go.
                let Some(conn) = self.conns.get_mut(&done.token) else {
                    continue;
                };
                conn.inflight -= 1;
                conn.closing |= done.close;
                let dead = match done.payload {
                    Some(payload) => conn.io.send_frame(&payload).is_err(),
                    None => true,
                };
                self.settle(done.token, dead);
            }
            expired.clear();
            self.wheel.poll_expired(Instant::now(), &mut expired);
            for &token in &expired {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                conn.stall = None;
                if conn.io.wants_write() {
                    // The client has not drained its socket for a full
                    // write_timeout: evict it rather than buffer forever.
                    self.counters.evicted.fetch_add(1, Ordering::Relaxed);
                    self.drop_conn(token);
                }
            }
        }
    }

    /// Readiness on one connection: decode and hand out every complete
    /// frame, flush what the socket now takes.
    fn conn_event(&mut self, ev: &PollEvent, handler: &dyn Fn(Vec<u8>, Reply)) {
        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return;
        };
        let was_eof = conn.io.is_eof();
        let mut dead = false;
        if ev.readable {
            dead = conn.io.on_readable().is_err();
            while !dead {
                match conn.io.next_frame() {
                    Ok(Some(payload)) => {
                        conn.inflight += 1;
                        self.owed += 1;
                        let reply = Reply {
                            token: ev.token,
                            done: Some(self.done_tx.clone()),
                            waker: self.waker.clone(),
                        };
                        handler(payload, reply);
                    }
                    Ok(None) => break,
                    // Framing is lost (oversized prefix) or the peer tore
                    // a frame.
                    Err(_) => dead = true,
                }
            }
        }
        if !dead && ev.writable {
            dead = conn.io.flush().is_err();
        }
        // Past EOF the registration has no read interest, so a hangup is
        // the peer gone both ways; before it, only one with nothing owed.
        if !dead && ev.hangup && (was_eof || (!conn.io.wants_write() && conn.inflight == 0)) {
            dead = true;
        }
        self.settle(ev.token, dead);
    }

    fn accept_burst(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Some(bytes) = self.options.sock_send_buffer {
                        let _ = set_send_buffer(&stream, bytes);
                    }
                    let Ok(io) = FramedConn::new(stream, self.options.max_frame_len) else {
                        continue;
                    };
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(io.stream(), token, Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            io,
                            inflight: 0,
                            stall: None,
                            closing: false,
                            armed: Interest::READABLE,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // WouldBlock ends the burst; a per-connection accept
                // failure (the peer already reset) must not kill the loop.
                Err(_) => break,
            }
        }
    }

    /// After any activity on a connection: drop it when dead or done,
    /// otherwise reconcile epoll interest and the stall timer with the
    /// send buffer's state.
    fn settle(&mut self, token: u64, dead: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if dead || conn.done() {
            self.drop_conn(token);
            return;
        }
        let interest = conn.interest();
        if interest != conn.armed
            && self
                .poller
                .reregister(conn.io.stream(), token, interest)
                .is_ok()
        {
            conn.armed = interest;
        }
        if conn.io.wants_write() {
            if conn.stall.is_none() {
                conn.stall = Some(self.wheel.schedule_after(self.options.write_timeout, token));
            }
        } else if let Some(id) = conn.stall.take() {
            self.wheel.cancel(id);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if let Some(id) = conn.stall {
                self.wheel.cancel(id);
            }
            let _ = self.poller.deregister(conn.io.stream());
        }
    }
}
