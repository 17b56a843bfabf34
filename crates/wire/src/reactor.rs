//! A single-threaded epoll readiness reactor: [`Poller`], [`Waker`], and
//! the [`Interest`]/[`PollEvent`] vocabulary shared by the workspace's
//! two event loops (the [`front`](crate::front) every port binds, and
//! the dist rollout worker's accept loop).
//!
//! The design is deliberately the smallest thing that scales: one epoll
//! instance per loop, level-triggered interest, a `u64` token per
//! registration chosen by the caller, and an `eventfd`-backed [`Waker`]
//! so other threads (the batch scheduler's workers, a shutdown path) can
//! interrupt a blocked [`Poller::poll`]. There are no callbacks and no
//! executor — the caller owns the loop, reads the returned events, and
//! drives its own connection state machines, which keeps borrow scopes
//! flat and lets blocking and non-blocking frame I/O share one loop.
//!
//! Everything is std-only: the kernel interface is a thin `extern "C"`
//! shim over the handful of syscalls std does not expose
//! (`epoll_create1`/`epoll_ctl`/`epoll_wait`, `eventfd`, `listen`), using
//! the libc std already links. Linux is the one supported platform:
//! building for any other target stops at the `compile_error!` below.

#[cfg(not(target_os = "linux"))]
compile_error!(
    "rl-ccd-wire supports Linux only: its reactor is built on epoll and eventfd, \
     and there is no other engine"
);

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::time::Duration;

/// Readiness interest for a registration: readable, writable, both, or
/// neither. Read interest includes the peer's half-close; hangup and error
/// conditions are always reported regardless of interest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Read-readiness only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-readiness only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither direction: only hangup and error conditions.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    /// True when read-readiness is requested.
    #[must_use]
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// True when write-readiness is requested.
    #[must_use]
    pub fn is_writable(&self) -> bool {
        self.writable
    }
}

/// One readiness event out of [`Poller::poll`].
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// The peer has data (or an accept) ready.
    pub readable: bool,
    /// The socket can take more bytes without blocking.
    pub writable: bool,
    /// Hangup or error: the connection is dead or half-closed. Readers
    /// should drain to EOF and drop the registration.
    pub hangup: bool,
}

mod sys {
    use std::os::raw::{c_int, c_uint};

    // The subset of the kernel interface std does not expose. std
    // already links libc on Linux, so these resolve without any
    // external crate.
    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn listen(sockfd: c_int, backlog: c_int) -> c_int;
        pub fn setsockopt(
            sockfd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_int,
            optlen: u32,
        ) -> c_int;
    }

    pub const SOL_SOCKET: c_int = 1;
    pub const SO_SNDBUF: c_int = 7;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    /// The kernel's `struct epoll_event`. Packed on x86, where the
    /// kernel ABI has no padding between `events` and `data`.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn interest_bits(interest: Interest) -> u32 {
    let mut bits = 0;
    if interest.is_readable() {
        bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if interest.is_writable() {
        bits |= sys::EPOLLOUT;
    }
    bits
}

/// A level-triggered epoll instance. See the module docs for the
/// intended loop shape.
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Creates the epoll instance (close-on-exec).
    ///
    /// # Errors
    /// The `epoll_create1` failure.
    pub fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        // SAFETY: epoll_create1 returned a fresh descriptor we own.
        Ok(Poller {
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, event: Option<sys::EpollEvent>) -> io::Result<()> {
        let mut ev = event.unwrap_or(sys::EpollEvent { events: 0, data: 0 });
        cvt(unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    /// The underlying `epoll_ctl` failure (e.g. an already-registered
    /// descriptor).
    pub fn register(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_ADD,
            fd.as_raw_fd(),
            Some(sys::EpollEvent {
                events: interest_bits(interest),
                data: token,
            }),
        )
    }

    /// Changes the interest (and token) of an already-registered `fd`.
    ///
    /// # Errors
    /// The underlying `epoll_ctl` failure.
    pub fn reregister(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_MOD,
            fd.as_raw_fd(),
            Some(sys::EpollEvent {
                events: interest_bits(interest),
                data: token,
            }),
        )
    }

    /// Removes `fd` from the instance. Dropping the last duplicate of
    /// a descriptor removes it implicitly; this is for removing an fd
    /// that stays open.
    ///
    /// # Errors
    /// The underlying `epoll_ctl` failure.
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd.as_raw_fd(), None)
    }

    /// Blocks until readiness or `timeout` (forever when `None`),
    /// appending up to 1024 events to `events` (cleared first).
    /// Returns the number of events delivered; 0 means the timeout
    /// elapsed. `EINTR` is retried internally.
    ///
    /// # Errors
    /// The underlying `epoll_wait` failure.
    pub fn poll(
        &self,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        const CAP: usize = 1024;
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; CAP];
        // Round sub-millisecond timeouts up so a near deadline does
        // not spin at timeout 0.
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
        };
        let n = loop {
            let ret = unsafe {
                sys::epoll_wait(
                    self.epfd.as_raw_fd(),
                    raw.as_mut_ptr(),
                    CAP as i32,
                    timeout_ms,
                )
            };
            match cvt(ret) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &raw[..n] {
            let bits = ev.events;
            events.push(PollEvent {
                token: ev.data,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

/// A cross-thread wake handle for a [`Poller`]: an `eventfd`
/// registered like any other readable descriptor. Clone freely; all
/// clones share the one descriptor.
#[derive(Clone, Debug)]
pub struct Waker {
    fd: Arc<std::fs::File>,
}

impl Waker {
    /// Creates the eventfd (non-blocking, close-on-exec).
    ///
    /// # Errors
    /// The `eventfd` failure.
    pub fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        // SAFETY: eventfd returned a fresh descriptor we own.
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Waker {
            fd: Arc::new(std::fs::File::from(owned)),
        })
    }

    /// Makes the next (or current) [`Poller::poll`] return with a
    /// readable event on this waker's token. Coalesces: any number of
    /// wakes before the drain produce one event.
    pub fn wake(&self) {
        // A full counter (EAGAIN) already guarantees a wakeup.
        let _ = (&*self.fd).write_all(&1u64.to_ne_bytes());
    }

    /// Clears the wake signal; call when the waker's token polls
    /// readable, before processing whatever the wake announced.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&*self.fd).read(&mut buf);
    }
}

impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

/// Re-arms `listener`'s accept backlog to `backlog` (Linux allows
/// re-calling `listen` on a listening socket). std hardcodes 128,
/// which a multi-thousand-connection burst overflows.
///
/// # Errors
/// The underlying `listen` failure.
pub fn set_backlog(listener: &std::net::TcpListener, backlog: i32) -> io::Result<()> {
    cvt(unsafe { sys::listen(listener.as_raw_fd(), backlog) })?;
    Ok(())
}

/// Caps the socket's kernel send buffer (`SO_SNDBUF`; the kernel
/// doubles the value for bookkeeping and enforces a floor). Bounding
/// it keeps per-connection kernel memory predictable on a server
/// holding thousands of sockets, and makes a stalled reader surface
/// as write backpressure instead of disappearing into autotuned
/// buffers.
///
/// # Errors
/// The underlying `setsockopt` failure.
pub fn set_send_buffer(socket: &impl AsRawFd, bytes: usize) -> io::Result<()> {
    let val = bytes.min(i32::MAX as usize) as i32;
    cvt(unsafe {
        sys::setsockopt(
            socket.as_raw_fd(),
            sys::SOL_SOCKET,
            sys::SO_SNDBUF,
            &val,
            std::mem::size_of::<i32>() as u32,
        )
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poll_reports_accept_and_data_readiness() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.register(&listener, 1, Interest::READABLE).unwrap();
        let mut events = Vec::new();
        // Nothing pending: a short poll times out empty.
        assert_eq!(
            poller
                .poll(&mut events, Some(Duration::from_millis(5)))
                .unwrap(),
            0
        );
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller.register(&server_side, 2, Interest::BOTH).unwrap();
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        // Level-triggered: the data event stays up until read.
        poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events
            .iter()
            .find(|e| e.token == 2)
            .expect("connection event");
        assert!(ev.readable && ev.writable);
        let mut buf = [0u8; 4];
        (&server_side).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        // Hangup is reported once the peer closes.
        drop(client);
        poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.hangup));
        poller.deregister(&server_side).unwrap();
        let _ = server_side.as_raw_fd();
    }

    #[test]
    fn waker_interrupts_and_coalesces() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(&waker, 7, Interest::READABLE).unwrap();
        let remote = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
            remote.wake();
            remote.wake();
        });
        let mut events = Vec::new();
        poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        waker.drain();
        // Coalesced: after the drain the level-triggered signal is gone.
        assert_eq!(
            poller
                .poll(&mut events, Some(Duration::from_millis(5)))
                .unwrap(),
            0
        );
        t.join().unwrap();
    }

    #[test]
    fn reregister_moves_interest() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nonblocking(true).unwrap();
        poller.register(&client, 1, Interest::WRITABLE).unwrap();
        let mut events = Vec::new();
        poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        // Read-only interest on an idle socket: no events.
        poller.reregister(&client, 9, Interest::READABLE).unwrap();
        assert_eq!(
            poller
                .poll(&mut events, Some(Duration::from_millis(5)))
                .unwrap(),
            0
        );
    }
}
