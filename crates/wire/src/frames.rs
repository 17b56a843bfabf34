//! The non-blocking framed-stream state machine: incremental decode and
//! buffered write of the same 4-byte-big-endian-length frames the
//! blocking [`read_frame_limited`]/[`write_frame_limited`] speak, for
//! connections driven by the readiness [`reactor`].
//!
//! [`RecvBuf`] accumulates whatever bytes the kernel has — one byte of a
//! header or a dozen pipelined frames — and yields complete frames;
//! [`SendBuf`] queues encoded frames and flushes as much as the socket
//! accepts. Neither ever blocks: `WouldBlock` is a normal return, and the
//! caller re-arms interest with the poller. [`FramedConn`] bundles both
//! around a non-blocking `TcpStream` as the per-connection unit every
//! reactor loop in the workspace uses.
//!
//! Memory is bounded by construction: a frame beyond the cap is rejected
//! from its header alone (the payload is never buffered), and a fill
//! stops once [`RecvBuf`] holds a cap's worth of unparsed bytes — with a
//! level-triggered poller the remainder re-announces itself on the next
//! poll, so a pipelining peer cannot balloon the buffer.
//!
//! [`reactor`]: crate::reactor
//! [`read_frame_limited`]: crate::read_frame_limited
//! [`write_frame_limited`]: crate::write_frame_limited

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Incremental frame decoder.
#[derive(Debug)]
pub struct RecvBuf {
    buf: VecDeque<u8>,
    max_len: usize,
    eof: bool,
}

impl RecvBuf {
    /// A decoder enforcing `max_len` as the payload cap.
    #[must_use]
    pub fn new(max_len: usize) -> Self {
        RecvBuf {
            buf: VecDeque::new(),
            max_len,
            eof: false,
        }
    }

    /// Reads from `r` until it would block, hits EOF, errors, or this
    /// buffer holds a full cap's worth of unparsed bytes. Returns the
    /// number of bytes consumed this call.
    ///
    /// `WouldBlock` is absorbed (it is the normal end of a readiness
    /// burst); real errors propagate. After EOF, [`RecvBuf::is_eof`]
    /// turns true once buffered frames are drained by `pop_frame`.
    ///
    /// # Errors
    /// Transport errors other than `WouldBlock`/`Interrupted`.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        let mut total = 0;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            // Never buffer more than one cap's worth of unparsed bytes:
            // bound each read by the room left, so a pipelining peer that
            // lands in one giant readiness burst still cannot balloon us.
            let room = self
                .max_len
                .saturating_add(4)
                .saturating_sub(self.buf.len());
            if room == 0 {
                break;
            }
            let want = room.min(chunk.len());
            match r.read(&mut chunk[..want]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.buf.extend(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    /// Pops the next complete frame, or `Ok(None)` while one is still
    /// partially buffered.
    ///
    /// # Errors
    /// `InvalidData` when the buffered length prefix exceeds the cap
    /// (the connection is unrecoverable: framing is lost);
    /// `UnexpectedEof` when the peer closed mid-frame.
    pub fn pop_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return self.incomplete();
        }
        let mut header = [0u8; 4];
        for (i, b) in self.buf.iter().take(4).enumerate() {
            header[i] = *b;
        }
        let len = u32::from_be_bytes(header) as usize;
        if len > self.max_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds the {}-byte cap", self.max_len),
            ));
        }
        if self.buf.len() < 4 + len {
            return self.incomplete();
        }
        self.buf.drain(..4);
        let payload: Vec<u8> = self.buf.drain(..len).collect();
        Ok(Some(payload))
    }

    fn incomplete(&self) -> io::Result<Option<Vec<u8>>> {
        if self.eof && !self.buf.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed mid-frame",
            ));
        }
        Ok(None)
    }

    /// Unparsed bytes currently buffered.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// True once the peer has closed and every buffered frame was popped.
    #[must_use]
    pub fn is_eof(&self) -> bool {
        self.eof && self.buf.is_empty()
    }
}

/// Buffered frame writer.
#[derive(Debug, Default)]
pub struct SendBuf {
    buf: VecDeque<u8>,
}

impl SendBuf {
    /// An empty write queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one frame (length prefix + payload) for flushing.
    ///
    /// # Errors
    /// `InvalidInput` when the payload exceeds `max_len`.
    pub fn push_frame(&mut self, payload: &[u8], max_len: usize) -> io::Result<()> {
        if payload.len() > max_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame of {} bytes exceeds the {max_len}-byte cap",
                    payload.len()
                ),
            ));
        }
        self.buf.extend((payload.len() as u32).to_be_bytes());
        self.buf.extend(payload.iter().copied());
        Ok(())
    }

    /// Writes as much queued data as `w` accepts. Returns true when the
    /// queue is fully drained; false means the socket pushed back
    /// (`WouldBlock`) and the caller should arm write interest.
    ///
    /// # Errors
    /// Transport errors other than `WouldBlock`/`Interrupted`.
    pub fn flush_to<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while !self.buf.is_empty() {
            let (front, _) = self.buf.as_slices();
            match w.write(front) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.buf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Bytes still queued.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// True when a flush is still owed.
    #[must_use]
    pub fn wants_write(&self) -> bool {
        !self.buf.is_empty()
    }
}

/// One reactor-driven connection: a non-blocking `TcpStream` plus its
/// receive and send state machines. This is the reactor-side counterpart
/// of the blocking [`FramedTcp`] transport.
///
/// [`FramedTcp`]: crate::FramedTcp
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    recv: RecvBuf,
    send: SendBuf,
    max_len: usize,
}

impl FramedConn {
    /// Wraps `stream` (switched to non-blocking, nodelay) with `max_len`
    /// as the frame cap in both directions.
    ///
    /// # Errors
    /// The `set_nonblocking` failure.
    pub fn new(stream: TcpStream, max_len: usize) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(FramedConn {
            stream,
            recv: RecvBuf::new(max_len),
            send: SendBuf::new(),
            max_len,
        })
    }

    /// Handles a readable event: pulls whatever the kernel has into the
    /// receive buffer. Returns bytes consumed (0 is normal: spurious
    /// wakeup or EOF).
    ///
    /// # Errors
    /// Fatal transport errors; the caller drops the connection.
    pub fn on_readable(&mut self) -> io::Result<usize> {
        self.recv.fill_from(&mut self.stream)
    }

    /// Pops the next complete inbound frame.
    ///
    /// # Errors
    /// See [`RecvBuf::pop_frame`].
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.recv.pop_frame()
    }

    /// Queues an outbound frame and immediately flushes what fits.
    /// Returns true when the queue drained; false means write interest
    /// should be armed.
    ///
    /// # Errors
    /// `InvalidInput` for an oversized payload; fatal transport errors.
    pub fn send_frame(&mut self, payload: &[u8]) -> io::Result<bool> {
        self.send.push_frame(payload, self.max_len)?;
        self.flush()
    }

    /// Flushes queued bytes; true when fully drained.
    ///
    /// # Errors
    /// Fatal transport errors.
    pub fn flush(&mut self) -> io::Result<bool> {
        self.send.flush_to(&mut self.stream)
    }

    /// True when a flush is still owed (arm write interest).
    #[must_use]
    pub fn wants_write(&self) -> bool {
        self.send.wants_write()
    }

    /// True once the peer has closed and all inbound frames were popped.
    #[must_use]
    pub fn is_eof(&self) -> bool {
        self.recv.is_eof()
    }

    /// The underlying socket (e.g. to register with a poller).
    #[must_use]
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that yields its script one bounded chunk at a time, with
    /// `WouldBlock` between chunks — adversarial segmentation.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        seg: usize,
        blocked: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.blocked {
                self.blocked = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "trickle"));
            }
            self.blocked = false;
            let n = (self.data.len() - self.pos).min(self.seg).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn reassembles_frames_from_single_byte_segments() {
        let mut wire_bytes = Vec::new();
        crate::write_frame(&mut wire_bytes, b"alpha").unwrap();
        crate::write_frame(&mut wire_bytes, b"").unwrap();
        crate::write_frame(&mut wire_bytes, &[7u8; 300]).unwrap();
        let total = wire_bytes.len();
        let mut src = Trickle {
            data: wire_bytes,
            pos: 0,
            seg: 1,
            blocked: false,
        };
        let mut recv = RecvBuf::new(crate::MAX_FRAME_LEN);
        let mut frames = Vec::new();
        let mut fed = 0;
        while fed < total {
            fed += recv.fill_from(&mut src).unwrap();
            while let Some(frame) = recv.pop_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"alpha");
        assert_eq!(frames[1], b"");
        assert_eq!(frames[2], vec![7u8; 300]);
    }

    #[test]
    fn oversized_prefix_is_rejected_from_the_header_alone() {
        let mut recv = RecvBuf::new(64);
        let forged = 65u32.to_be_bytes();
        recv.fill_from(&mut &forged[..]).unwrap();
        let err = recv.pop_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn eof_mid_frame_is_unexpected_eof_but_clean_eof_is_quiet() {
        let mut wire_bytes = Vec::new();
        crate::write_frame(&mut wire_bytes, b"whole").unwrap();
        let torn_at = wire_bytes.len() - 2;
        let mut recv = RecvBuf::new(crate::MAX_FRAME_LEN);
        // A live socket hands over the torn bytes then pushes back with
        // WouldBlock (a slice would report EOF the moment it ran dry).
        let mut src = Trickle {
            data: wire_bytes[..torn_at].to_vec(),
            pos: 0,
            seg: usize::MAX,
            blocked: true,
        };
        recv.fill_from(&mut src).unwrap();
        assert!(recv.pop_frame().unwrap().is_none(), "not yet EOF");
        recv.fill_from(&mut src).unwrap(); // EOF lands
        let err = recv.pop_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // A clean close between frames is just is_eof.
        let mut recv = RecvBuf::new(crate::MAX_FRAME_LEN);
        recv.fill_from(&mut &wire_bytes[..]).unwrap();
        assert_eq!(recv.pop_frame().unwrap().unwrap(), b"whole");
        assert!(recv.pop_frame().unwrap().is_none());
        assert!(recv.is_eof());
    }

    #[test]
    fn fill_stops_at_the_memory_bound_and_resumes() {
        let cap = 16usize;
        let mut wire_bytes = Vec::new();
        for i in 0..20u8 {
            crate::write_frame_limited(&mut wire_bytes, &[i; 8], cap).unwrap();
        }
        let mut recv = RecvBuf::new(cap);
        let mut src = &wire_bytes[..];
        let consumed = recv.fill_from(&mut src).unwrap();
        assert!(
            consumed < wire_bytes.len(),
            "a fill must stop at the bound, not swallow the pipeline"
        );
        assert!(recv.pending() <= cap + 4 + 16 * 1024, "bounded buffer");
        // Draining frames makes room; the stream finishes over more fills.
        let mut frames = 0;
        loop {
            while let Some(_f) = recv.pop_frame().unwrap() {
                frames += 1;
            }
            if recv.fill_from(&mut src).unwrap() == 0 {
                break;
            }
        }
        while let Some(_f) = recv.pop_frame().unwrap() {
            frames += 1;
        }
        assert_eq!(frames, 20);
    }

    /// A writer accepting at most `cap` bytes per call, pushing back with
    /// `WouldBlock` every other call.
    struct Choky {
        out: Vec<u8>,
        cap: usize,
        blocked: bool,
    }

    impl Write for Choky {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !self.blocked {
                self.blocked = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "choky"));
            }
            self.blocked = false;
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_buf_flushes_through_backpressure_bit_identically() {
        let mut send = SendBuf::new();
        send.push_frame(b"first", crate::MAX_FRAME_LEN).unwrap();
        send.push_frame(&[9u8; 100], crate::MAX_FRAME_LEN).unwrap();
        let mut sink = Choky {
            out: Vec::new(),
            cap: 3,
            blocked: false,
        };
        let mut rounds = 0;
        while !send.flush_to(&mut sink).unwrap() {
            rounds += 1;
            assert!(rounds < 1000, "flush must make progress");
        }
        assert!(!send.wants_write());
        let mut expect = Vec::new();
        crate::write_frame(&mut expect, b"first").unwrap();
        crate::write_frame(&mut expect, &[9u8; 100]).unwrap();
        assert_eq!(sink.out, expect);
    }

    #[test]
    fn send_buf_enforces_the_cap() {
        let mut send = SendBuf::new();
        let err = send.push_frame(&[0u8; 10], 9).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(send.pending(), 0, "a rejected frame queues nothing");
    }
}
