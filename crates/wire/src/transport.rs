//! One place where chaos wrapping, retry reconnects, and deadline arming
//! happen, instead of three hand-rolled stream stacks (`serve::client`,
//! `dist::coordinator`, `dist::worker`).
//!
//! Two connection types speak the same frames:
//!
//! * **Blocking**: [`FramedTcp`], a [`ChaosTransport`]-wrapped
//!   `TcpStream` dialed from an [`Endpoint`] (resolved addresses + chaos
//!   addressing). [`FramedTcp::reconnect`] dials a fresh socket and
//!   resumes the old connection's frame numbering, so [`NetFaultPlan`]
//!   coordinates stay stable across retries. Accepted (server-side)
//!   sockets get the same wrapping through [`FramedListener`], which
//!   assigns each accepted connection a sequential chaos connection id —
//!   that is what lets a fault plan cover a worker's accept path.
//! * **Reactor**: [`FramedConn`] (see [`frames`]), the non-blocking
//!   state-machine counterpart driven by a [`reactor::Poller`] inside
//!   [`front`](crate::front). It speaks the identical frames; the loop
//!   owns readiness and deadlines (via the [`timer`] wheel) instead of
//!   socket timeouts.
//!
//! [`frames`]: crate::frames
//! [`timer`]: crate::timer
//! [`reactor::Poller`]: crate::reactor::Poller
//! [`FramedConn`]: crate::FramedConn

use crate::{ChaosTransport, DeadlineBudget, NetFault, NetFaultPlan};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Where a client dials and how chaos addresses the connection — the
/// reusable part of a connection, kept across reconnects.
#[derive(Clone, Debug, Default)]
pub struct Endpoint {
    addrs: Vec<SocketAddr>,
    chaos: Option<(Arc<NetFaultPlan>, u64)>,
}

impl Endpoint {
    /// Resolves `addr` once; every (re)connect tries the resolved
    /// addresses in order.
    ///
    /// # Errors
    /// Resolution failures, or `InvalidInput` when nothing resolves.
    pub fn resolve(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        Ok(Endpoint { addrs, chaos: None })
    }

    /// Addresses chaos injections at this endpoint's connections as
    /// connection `conn` of `plan`.
    #[must_use]
    pub fn with_chaos(mut self, plan: Arc<NetFaultPlan>, conn: u64) -> Self {
        self.chaos = Some((plan, conn));
        self
    }

    /// The resolved addresses.
    #[must_use]
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The chaos addressing, if any.
    #[must_use]
    pub fn chaos(&self) -> Option<(&Arc<NetFaultPlan>, u64)> {
        self.chaos.as_ref().map(|(p, c)| (p, *c))
    }

    /// Dials the first reachable address (nodelay set), wrapped per this
    /// endpoint's chaos addressing. `timeout` bounds each connect attempt.
    ///
    /// # Errors
    /// The last address's connection failure.
    pub fn connect(&self, timeout: Option<Duration>) -> io::Result<FramedTcp> {
        let stream = connect_any(&self.addrs, timeout)?;
        Ok(FramedTcp {
            inner: wrap(stream, &self.chaos),
            endpoint: self.clone(),
        })
    }
}

fn wrap(stream: TcpStream, chaos: &Option<(Arc<NetFaultPlan>, u64)>) -> ChaosTransport<TcpStream> {
    let t = ChaosTransport::new(stream);
    match chaos {
        Some((plan, conn)) => t.with_plan(Arc::clone(plan), *conn),
        None => t,
    }
}

/// Connects to the first reachable address, with nodelay set.
///
/// # Errors
/// The last address's failure, or `InvalidInput` when `addrs` is empty.
pub fn connect_any(addrs: &[SocketAddr], timeout: Option<Duration>) -> io::Result<TcpStream> {
    let mut last_err = None;
    for addr in addrs {
        let attempt = match timeout {
            Some(t) => TcpStream::connect_timeout(addr, t),
            None => TcpStream::connect(addr),
        };
        match attempt {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to")))
}

/// The blocking transport: a chaos-wrapped framed `TcpStream` that knows
/// how to replace itself on reconnect without losing chaos coordinates.
#[derive(Debug)]
pub struct FramedTcp {
    inner: ChaosTransport<TcpStream>,
    endpoint: Endpoint,
}

impl FramedTcp {
    /// Wraps an accepted (server-side) stream. `chaos` addresses the
    /// connection in a server-side fault plan; `None` is a plain wire.
    pub fn from_accepted(stream: TcpStream, chaos: Option<(Arc<NetFaultPlan>, u64)>) -> Self {
        stream.set_nodelay(true).ok();
        let endpoint = Endpoint {
            addrs: Vec::new(),
            chaos: chaos.clone(),
        };
        FramedTcp {
            inner: wrap(stream, &chaos),
            endpoint,
        }
    }

    /// Dials a fresh connection to the endpoint and resumes this
    /// connection's frame numbering, so plan coordinates stay stable.
    ///
    /// # Errors
    /// Connection failures, or `Unsupported` for an accepted transport
    /// (there is nothing to dial back to).
    pub fn reconnect(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        if self.endpoint.addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "an accepted connection cannot reconnect",
            ));
        }
        let stream = connect_any(&self.endpoint.addrs, timeout)?;
        let frame = self.inner.frame_index();
        self.inner = wrap(stream, &self.endpoint.chaos).resume_at(frame);
        Ok(())
    }

    /// Re-addresses chaos on the live connection (keeps the socket and
    /// the frame counter), for callers that attach a plan after
    /// connecting (`DistExecutor::with_chaos`).
    pub fn rewire_chaos(&mut self, plan: Arc<NetFaultPlan>, conn: u64) {
        self.inner.set_plan(Arc::clone(&plan), conn);
        self.endpoint.chaos = Some((plan, conn));
    }

    /// The endpoint this transport dials.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Queues a one-shot fault ahead of any plan schedule.
    pub fn inject_once(&mut self, fault: NetFault) {
        self.inner.inject_once(fault);
    }

    /// The frame index the next frame operation will carry.
    #[must_use]
    pub fn frame_index(&self) -> u64 {
        self.inner.frame_index()
    }

    /// The underlying socket.
    #[must_use]
    pub fn stream(&self) -> &TcpStream {
        self.inner.get_ref()
    }

    /// Writes one length-prefixed frame under `max_len`.
    ///
    /// # Errors
    /// `InvalidInput` for an oversized payload; transport errors
    /// (including injected chaos faults).
    pub fn write_frame_limited(&mut self, payload: &[u8], max_len: usize) -> io::Result<()> {
        self.inner.write_frame_limited(payload, max_len)
    }

    /// Reads one length-prefixed frame under `max_len`.
    ///
    /// # Errors
    /// `InvalidData` for an oversized prefix; transport errors
    /// (including injected chaos faults).
    pub fn read_frame_limited(&mut self, max_len: usize) -> io::Result<Vec<u8>> {
        self.inner.read_frame_limited(max_len)
    }

    /// Sets the read and write timeouts bounding every subsequent
    /// blocking frame operation (`None` = block indefinitely).
    ///
    /// # Errors
    /// The socket's timeout-setting failure.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        let stream = self.inner.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)
    }

    /// Arms the connection with a deadline budget: timeouts are clamped
    /// to the budget's remaining time, with `fallback` as the cap when the
    /// budget is unbounded.
    ///
    /// # Errors
    /// `TimedOut` when the budget is already spent; otherwise the
    /// timeout-setting failure.
    pub fn arm(&self, budget: &DeadlineBudget, fallback: Option<Duration>) -> io::Result<()> {
        self.set_io_timeout(budget.timeout_with(fallback)?)
    }
}

/// One blocking request/response exchange: arm the deadline, send, read.
///
/// # Errors
/// Whatever arming, the write, or the read reports.
pub fn roundtrip(
    transport: &mut FramedTcp,
    payload: &[u8],
    max_len: usize,
    budget: &DeadlineBudget,
    fallback: Option<Duration>,
) -> io::Result<Vec<u8>> {
    transport.arm(budget, fallback)?;
    transport.write_frame_limited(payload, max_len)?;
    transport.read_frame_limited(max_len)
}

/// A listener whose accepted connections come back as [`FramedTcp`] with
/// server-side chaos addressing: connection ids are assigned
/// sequentially from `base_conn`, so a [`NetFaultPlan`] can target "the
/// second connection this worker accepts" deterministically.
#[derive(Debug)]
pub struct FramedListener {
    inner: TcpListener,
    chaos: Option<Arc<NetFaultPlan>>,
    base_conn: u64,
    accepted: u64,
}

impl FramedListener {
    /// Wraps a bound listener with no chaos attached.
    pub fn new(listener: TcpListener) -> Self {
        FramedListener {
            inner: listener,
            chaos: None,
            base_conn: 0,
            accepted: 0,
        }
    }

    /// Applies `plan` to every accepted connection, numbering them
    /// `base_conn`, `base_conn + 1`, … in accept order.
    #[must_use]
    pub fn with_chaos(mut self, plan: Arc<NetFaultPlan>, base_conn: u64) -> Self {
        self.chaos = Some(plan);
        self.base_conn = base_conn;
        self
    }

    /// Accepts one connection, wrapped per the chaos plan.
    ///
    /// # Errors
    /// The underlying accept failure (including `WouldBlock` on a
    /// non-blocking listener).
    pub fn accept(&mut self) -> io::Result<(FramedTcp, SocketAddr)> {
        let (stream, peer) = self.inner.accept()?;
        let chaos = self
            .chaos
            .as_ref()
            .map(|plan| (Arc::clone(plan), self.base_conn + self.accepted));
        self.accepted += 1;
        Ok((FramedTcp::from_accepted(stream, chaos), peer))
    }

    /// Connections accepted so far.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// The wrapped listener (for registration with a poller).
    #[must_use]
    pub fn get_ref(&self) -> &TcpListener {
        &self.inner
    }

    /// The bound address.
    ///
    /// # Errors
    /// The underlying `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_FRAME_LEN;

    fn echo_once(listener: TcpListener) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = FramedTcp::from_accepted(stream, None);
            let frame = t.read_frame_limited(MAX_FRAME_LEN).unwrap();
            t.write_frame_limited(&frame, MAX_FRAME_LEN).unwrap();
        })
    }

    #[test]
    fn endpoint_dials_and_roundtrips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = echo_once(listener);
        let mut t = Endpoint::resolve(addr).unwrap().connect(None).unwrap();
        let reply = roundtrip(
            &mut t,
            b"ping",
            MAX_FRAME_LEN,
            &DeadlineBudget::from_ms(5_000),
            None,
        )
        .unwrap();
        assert_eq!(reply, b"ping");
        server.join().unwrap();
    }

    #[test]
    fn reconnect_resumes_frame_numbering_for_chaos_coordinates() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Plan: reset the client's frame 1 (its second op), then delay
        // frame 2 — which must still fire on the reconnected socket.
        let plan = Arc::new(NetFaultPlan::none().with_reset(4, 1).with_delay(4, 2, 1));
        let server = std::thread::spawn(move || {
            // First connection: one frame arrives, then the client's
            // injected reset kills its second op client-side.
            let (stream, _) = listener.accept().unwrap();
            let mut t = FramedTcp::from_accepted(stream, None);
            assert_eq!(t.read_frame_limited(MAX_FRAME_LEN).unwrap(), b"one");
            // Second connection: the resumed transport's frame 2.
            let (stream, _) = listener.accept().unwrap();
            let mut t = FramedTcp::from_accepted(stream, None);
            assert_eq!(t.read_frame_limited(MAX_FRAME_LEN).unwrap(), b"two");
        });
        let mut t = Endpoint::resolve(addr)
            .unwrap()
            .with_chaos(Arc::clone(&plan), 4)
            .connect(None)
            .unwrap();
        t.write_frame_limited(b"one", MAX_FRAME_LEN).unwrap();
        let err = t.write_frame_limited(b"never", MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        t.reconnect(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(t.frame_index(), 2, "frame numbering resumed");
        t.write_frame_limited(b"two", MAX_FRAME_LEN).unwrap();
        assert_eq!(plan.fired(), 2, "reset and delay both hit");
        server.join().unwrap();
    }

    #[test]
    fn accepted_transports_cannot_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let _c = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(50));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut t = FramedTcp::from_accepted(stream, None);
        let err = t.reconnect(None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        client.join().unwrap();
    }

    #[test]
    fn framed_listener_numbers_accepted_connections_for_the_plan() {
        // Fault the *second* accepted connection's first read.
        let plan = Arc::new(NetFaultPlan::none().with_reset(11, 0));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut flistener = FramedListener::new(listener).with_chaos(Arc::clone(&plan), 10);
        let client = std::thread::spawn(move || {
            let mut a = Endpoint::resolve(addr).unwrap().connect(None).unwrap();
            a.write_frame_limited(b"first conn", MAX_FRAME_LEN).unwrap();
            let mut b = Endpoint::resolve(addr).unwrap().connect(None).unwrap();
            b.write_frame_limited(b"second conn", MAX_FRAME_LEN)
                .unwrap();
            std::thread::sleep(Duration::from_millis(50));
        });
        let (mut first, _) = flistener.accept().unwrap();
        assert_eq!(
            first.read_frame_limited(MAX_FRAME_LEN).unwrap(),
            b"first conn",
            "conn 10 is untouched by the plan"
        );
        let (mut second, _) = flistener.accept().unwrap();
        let err = second.read_frame_limited(MAX_FRAME_LEN).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(flistener.accepted(), 2);
        assert_eq!(plan.fired(), 1);
        client.join().unwrap();
    }
}
