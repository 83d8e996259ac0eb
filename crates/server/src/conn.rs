//! Per-connection state machine for the epoll reactors: incremental
//! frame assembly on the read side, a bounded buffered queue on the
//! write side, and the backpressure valve between them.
//!
//! A [`Conn`] owns a non-blocking `TcpStream` and two byte buffers. The
//! reactor drives it with three calls per readiness event:
//!
//! 1. [`Conn::fill`] — read until `WouldBlock`/EOF into the assembly
//!    buffer.
//! 2. [`Conn::next_frame`] — pop complete frames one at a time (the
//!    pipelining loop: a single `fill` may have delivered many frames,
//!    or the tail of one and the head of the next).
//! 3. [`Conn::flush`] — push the write buffer out until `WouldBlock`
//!    or empty.
//!
//! Both directions are zero-copy past the socket: `next_frame` returns
//! a *range* into the assembly buffer (no per-frame `Vec`), and
//! responses are encoded straight into the write buffer behind a
//! reserved length prefix (`wire::begin_frame`/`end_frame`) — borrow
//! both sides at once with [`Conn::frame_and_wbuf`]. Responses are
//! appended in the order their requests were parsed, which is what
//! makes pipelining safe: the protocol has no request IDs, so FIFO
//! execution + FIFO buffering *is* the ordering guarantee.
//!
//! ## Backpressure invariant
//!
//! The reactor stops parsing (and therefore executing) frames for a
//! connection whose write buffer holds at least `write_budget` bytes —
//! see [`Conn::should_pause`]. Reads pause with parsing, so a client
//! that pipelines faster than it drains responses is throttled by its
//! own TCP window instead of ballooning server memory. The buffer can
//! still overshoot the budget by one response (a SCAN reply is checked
//! *after* it is queued, not split), so the budget is a watermark, not
//! a hard cap; `MAX_FRAME` bounds the overshoot.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use crate::wire::{split_frame, FrameSplit};

/// Free space offered to each read syscall; big enough that a burst of
/// pipelined GETs (13-byte frames) arrives in one read.
const READ_CHUNK: usize = 64 * 1024;

/// What [`Conn::fill`] observed on the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FillOutcome {
    /// Socket drained to `WouldBlock`; connection still open.
    Open,
    /// Peer closed its write half (read returned 0). Any buffered bytes
    /// are still parseable; no more will arrive.
    Eof,
}

/// What [`Conn::next_frame`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NextFrame {
    /// A complete frame body at `rbuf[start .. start + len]` (length
    /// prefix stripped) — borrow it with [`Conn::frame_and_wbuf`]. The
    /// range stays valid until the next `fill`/`compact`; popping
    /// further frames does not move it.
    Frame {
        /// Body offset inside the assembly buffer.
        start: usize,
        /// Body length in bytes.
        len: usize,
    },
    /// No complete frame buffered; wait for more bytes.
    Pending,
    /// The peer announced a frame above `MAX_FRAME`. Unrecoverable:
    /// a length-prefixed stream cannot resync past a bad length, so
    /// the connection must be closed without a reply.
    Oversized,
}

/// One client connection owned by a reactor worker.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Partial-frame assembly buffer: `rbuf[rpos..rend]` holds bytes
    /// read but not yet consumed as frames, and `rbuf[rend..]` is free
    /// space the socket reads into directly. `rpos` is the parse cursor;
    /// consumed bytes are compacted away between readiness events, not
    /// on every frame. The buffer only grows (zero-filled once) when its
    /// free tail is shorter than `READ_CHUNK`.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// Not-yet-written response bytes: whole length-prefixed frames,
    /// encoded in place. `wpos` is the flush cursor — `flush` advances
    /// it instead of draining the front, and the buffer is reset (not
    /// shrunk) once empty, so steady state re-uses one allocation.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Reads are paused by backpressure: the fd's epoll interest has
    /// EPOLLIN removed until the write buffer drains below half budget.
    pub(crate) read_paused: bool,
    /// The peer sent EOF (or a fatal error): finish flushing `wbuf`,
    /// then close. Set by ERR-and-close paths too.
    pub(crate) close_after_flush: bool,
    /// The epoll interest currently registered for this fd, so the
    /// reactor only issues `EPOLL_CTL_MOD` on actual changes.
    pub(crate) interest: u32,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            rend: 0,
            wbuf: Vec::new(),
            wpos: 0,
            read_paused: false,
            close_after_flush: false,
            interest: 0,
        }
    }

    /// Reads until `WouldBlock` or EOF, straight into the assembly
    /// buffer's free tail. Returns `Err` only on fatal socket errors
    /// (reset, etc.) — the caller drops the connection.
    pub(crate) fn fill(&mut self) -> io::Result<FillOutcome> {
        loop {
            if self.rbuf.len() - self.rend < READ_CHUNK {
                self.compact();
                if self.rbuf.len() - self.rend < READ_CHUNK {
                    self.rbuf.resize(self.rend + READ_CHUNK, 0);
                }
            }
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Ok(0) => return Ok(FillOutcome::Eof),
                Ok(n) => {
                    self.rend += n;
                    // A short read usually means the socket is drained;
                    // loop anyway — the next read returns WouldBlock
                    // and settles it (level-triggered epoll would also
                    // re-report, but one extra read now saves a full
                    // reactor turn).
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(FillOutcome::Open),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Pops the next complete frame from the assembly buffer, if one is
    /// fully buffered, returning its body *range* (no copy). Call in a
    /// loop after `fill` — pipelined peers deliver many frames per
    /// readiness event.
    pub(crate) fn next_frame(&mut self) -> NextFrame {
        match split_frame(&self.rbuf[self.rpos..self.rend]) {
            FrameSplit::Frame { body_len } => {
                let start = self.rpos + 4;
                self.rpos = start + body_len;
                NextFrame::Frame {
                    start,
                    len: body_len,
                }
            }
            FrameSplit::Incomplete(_) => {
                self.compact();
                NextFrame::Pending
            }
            FrameSplit::Oversized(_) => NextFrame::Oversized,
        }
    }

    /// The split borrow of the zero-copy serve path: the frame body at
    /// `start .. start + len` (as returned by [`Conn::next_frame`])
    /// together with the write buffer the response is encoded into.
    /// One method, so the compiler sees two disjoint field borrows —
    /// the engine decodes from the first while appending to the second.
    pub(crate) fn frame_and_wbuf(&mut self, start: usize, len: usize) -> (&[u8], &mut Vec<u8>) {
        (&self.rbuf[start..start + len], &mut self.wbuf)
    }

    /// The write buffer alone, for responses not tied to a frame range
    /// (the engine's pending chunk).
    pub(crate) fn wbuf(&mut self) -> &mut Vec<u8> {
        &mut self.wbuf
    }

    /// Moves unconsumed bytes to the front of the assembly buffer. Runs
    /// when parsing pauses (no complete frame / backpressure), so the
    /// common fast path — many whole frames in one buffer — pays one
    /// memmove per readiness event, not per frame.
    pub(crate) fn compact(&mut self) {
        if self.rpos > 0 {
            self.rbuf.copy_within(self.rpos..self.rend, 0);
            self.rend -= self.rpos;
            self.rpos = 0;
        }
    }

    /// Bytes queued but not yet accepted by the kernel.
    pub(crate) fn buffered(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// True when the write buffer has reached the backpressure budget:
    /// the reactor stops reading (and executing) for this connection
    /// until `flush` drains it below [`Conn::should_resume`]'s mark.
    pub(crate) fn should_pause(&self, write_budget: usize) -> bool {
        self.buffered() >= write_budget
    }

    /// True when a paused connection has drained enough to resume
    /// reading. Half the budget of hysteresis so a connection near the
    /// boundary doesn't flap its epoll interest on every frame.
    pub(crate) fn should_resume(&self, write_budget: usize) -> bool {
        self.buffered() < write_budget / 2
    }

    /// Writes buffered bytes until `WouldBlock` or the buffer empties.
    /// `Ok(true)` = fully flushed. Fatal errors (peer reset mid-write)
    /// surface as `Err`; the caller drops the connection — the peer is
    /// gone, there is nobody left to desync.
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ));
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Shed the written prefix before parking on epoll:
                    // the unwritten tail is bounded by the backpressure
                    // budget (+ one frame), so the memmove is cheap and
                    // keeps a long stall from pinning the buffer at its
                    // high-water length while new frames append.
                    if self.wpos > 0 {
                        self.wbuf.drain(..self.wpos);
                        self.wpos = 0;
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Fully drained: reset in place, keeping the allocation.
        self.wbuf.clear();
        self.wpos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_FRAME;
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (rx, _) = l.accept().unwrap();
        (tx, rx)
    }

    /// Queues one response frame the way the engine does: length prefix
    /// reserved, body appended, prefix backfilled.
    fn queue_frame(conn: &mut Conn, body: &[u8]) {
        let mark = crate::wire::begin_frame(&mut conn.wbuf);
        conn.wbuf.extend_from_slice(body);
        crate::wire::end_frame(&mut conn.wbuf, mark);
    }

    /// Pops the next frame and copies its body out (`None` = pending).
    fn next_body(conn: &mut Conn) -> Option<Vec<u8>> {
        match conn.next_frame() {
            NextFrame::Frame { start, len } => Some(conn.frame_and_wbuf(start, len).0.to_vec()),
            NextFrame::Pending => None,
            NextFrame::Oversized => panic!("unexpected oversize"),
        }
    }

    /// A frame dribbled one byte at a time assembles exactly once, and
    /// two frames in one read both pop.
    #[test]
    fn assembles_partial_and_pipelined_frames() {
        let (mut tx, rx) = pair();
        crate::sys::set_nonblocking(rx.as_raw_fd()).unwrap();
        let mut conn = Conn::new(rx);

        let mut wire = Vec::new();
        crate::wire::write_frame(&mut wire, b"abc").unwrap();
        for &b in &wire {
            tx.write_all(&[b]).unwrap();
            // Wait for the byte to land so each fill sees exactly one.
            loop {
                match conn.fill().unwrap() {
                    FillOutcome::Open if conn.rend > conn.rpos => break,
                    FillOutcome::Open => std::thread::yield_now(),
                    FillOutcome::Eof => panic!("peer alive"),
                }
            }
            if conn.rend - conn.rpos < wire.len() {
                assert_eq!(next_body(&mut conn), None);
            }
        }
        assert_eq!(next_body(&mut conn).as_deref(), Some(&b"abc"[..]));
        assert_eq!(next_body(&mut conn), None);

        // Two pipelined frames delivered together both pop, in order,
        // and the first frame's range stays valid after the second pops
        // (no compaction while frames are being consumed).
        let mut wire = Vec::new();
        crate::wire::write_frame(&mut wire, b"first").unwrap();
        crate::wire::write_frame(&mut wire, b"second").unwrap();
        tx.write_all(&wire).unwrap();
        loop {
            conn.fill().unwrap();
            if conn.rend - conn.rpos >= wire.len() {
                break;
            }
            std::thread::yield_now();
        }
        let NextFrame::Frame { start, len } = conn.next_frame() else {
            panic!("first frame must be complete");
        };
        assert_eq!(next_body(&mut conn).as_deref(), Some(&b"second"[..]));
        assert_eq!(conn.frame_and_wbuf(start, len).0, b"first");
        assert_eq!(next_body(&mut conn), None);
    }

    /// An oversized length prefix is detected from the prefix alone.
    #[test]
    fn oversized_prefix_is_fatal() {
        let (mut tx, rx) = pair();
        crate::sys::set_nonblocking(rx.as_raw_fd()).unwrap();
        let mut conn = Conn::new(rx);
        tx.write_all(&(MAX_FRAME as u32 + 1).to_le_bytes()).unwrap();
        loop {
            conn.fill().unwrap();
            if conn.rend >= 4 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(conn.next_frame(), NextFrame::Oversized);
    }

    /// The backpressure watermarks: pause at budget, resume below half.
    /// The flush cursor counts as drained — `buffered` is what is still
    /// owed to the kernel, not the buffer's length.
    #[test]
    fn pause_resume_watermarks() {
        let (_tx, rx) = pair();
        let mut conn = Conn::new(rx);
        assert!(!conn.should_pause(100));
        queue_frame(&mut conn, &[0u8; 96]); // 4-byte prefix + 96 = 100 buffered
        assert_eq!(conn.buffered(), 100);
        assert!(conn.should_pause(100));
        assert!(!conn.should_resume(100));
        conn.wpos = 51; // as if flush stopped mid-buffer
        assert_eq!(conn.buffered(), 49);
        assert!(conn.should_resume(100), "49 < 50");
    }

    /// flush drains a nonblocking socket without losing or reordering
    /// bytes, and reports completion.
    #[test]
    fn flush_preserves_order_across_wouldblock() {
        let (tx, rx) = pair();
        crate::sys::set_nonblocking(tx.as_raw_fd()).unwrap();
        let mut conn = Conn::new(tx);
        // Enough data to overrun the socket buffer and hit WouldBlock.
        let body: Vec<u8> = (0..1_000_000u32).map(|i| i as u8).collect();
        queue_frame(&mut conn, &body);
        let mut got = Vec::new();
        let mut rx = rx;
        rx.set_nonblocking(true).unwrap();
        let mut done = false;
        while !done || !got.is_empty() && got.len() < body.len() + 4 {
            done = conn.flush().unwrap();
            let mut chunk = [0u8; 65536];
            match rx.read(&mut chunk) {
                Ok(n) => got.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("{e}"),
            }
            if done && got.len() >= body.len() + 4 {
                break;
            }
        }
        assert_eq!(got.len(), body.len() + 4);
        assert_eq!(&got[..4], &(body.len() as u32).to_le_bytes());
        assert_eq!(&got[4..], &body[..]);
        // Fully flushed: the buffer reset in place.
        assert_eq!(conn.buffered(), 0);
        assert_eq!(conn.wbuf.len(), 0);
    }
}
