//! The wire protocol: length-prefixed binary frames, hand-rolled (the
//! build is offline — no serde, no protobuf).
//!
//! ## Frame layout
//!
//! Every message in either direction is one frame:
//!
//! ```text
//! [ body_len: u32 LE ][ body: body_len bytes ]
//! ```
//!
//! `body_len` covers the body only (not itself) and is capped at
//! [`MAX_FRAME`]; a peer announcing more is malformed and the
//! connection is dropped. All integers are little-endian.
//!
//! ## Request bodies
//!
//! ```text
//! GET     = [0x01][key u64]
//! INSERT  = [0x02][key u64][val u64]
//! REMOVE  = [0x03][key u64]
//! BATCH   = [0x04][count u32] then count × [kind u8][key u64]([val u64] iff kind=INSERT)
//! SCAN    = [0x05][lo u64][hi u64][max u32]      (hi inclusive; max 0 = unlimited)
//! METRICS = [0x06][format u8]                    (0 = JSON, 1 = Prometheus text)
//! PING    = [0x07]
//! SLOWLOG = [0x08][max u32]                      (newest-N slow ops; max 0 = all)
//! ```
//!
//! `BATCH` kinds reuse the single-op opcodes (GET/INSERT/REMOVE).
//!
//! ## Response bodies
//!
//! The first byte is a status: `0x00` OK, `0x01` error (rest of the
//! body is a UTF-8 message). After an OK status:
//!
//! ```text
//! GET     → [found u8]([val u64] iff found)
//! INSERT  → [added u8]
//! REMOVE  → [removed u8]
//! BATCH   → [count u32] then count × the single-op encoding, request order
//! SCAN    → [n u32][truncated u8] then n × [key u64][val u64], ascending
//! METRICS → UTF-8 text (rest of body)
//! PING    → empty
//! SLOWLOG → [n u32] then n × [kind u8][origin u8][n_events u8][key u64][ns u64][events 12 × u8]
//! ```
//!
//! SLOWLOG records are [`SlowOp`]s verbatim (31 bytes each), slowest
//! first; `origin` distinguishes tree-deposited records from
//! server-frame ones, and `kind` is an `OpClass` discriminant for the
//! former, a wire opcode for the latter.
//!
//! ## Ordering
//!
//! The protocol carries no request IDs. On one connection:
//!
//! - replies come back in request order, one per request frame;
//! - commands on the same key take effect in request order, whether
//!   they sit in one BATCH frame or in different frames;
//! - commands on different keys that are in flight together (pipelined
//!   frames, or the ops of one BATCH frame) may take effect in any
//!   order. Each still takes effect between the moment its frame is
//!   sent and the moment its reply arrives.
//!
//! The server serves the GET, INSERT, REMOVE and BATCH frames of a
//! pipelined stream together, in chunks of about 16 ops, so the last
//! rule covers pipelined point frames as well as the ops inside a
//! BATCH. A client that needs one write on key `a` to land before a
//! read of key `b` waits for the write's reply before sending the read.

use nmbst::obs::{SlowOp, SLOW_EVENTS};
use std::io::{self, Read, Write};

/// Hard cap on a frame body. Large enough for a ~1M-entry SCAN reply,
/// small enough that a corrupt length prefix cannot OOM the peer.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// GET opcode (also the `kind` of server-origin [`SlowOp`] records and
/// the `op` dimension of the server's per-request timing histograms).
pub const OP_GET: u8 = 0x01;
/// INSERT opcode.
pub const OP_INSERT: u8 = 0x02;
/// REMOVE opcode.
pub const OP_REMOVE: u8 = 0x03;
/// BATCH opcode — the replay tier's unit of work, and the opcode whose
/// server-side wire histogram the bench cross-checks against
/// client-observed round-trip latency.
pub const OP_BATCH: u8 = 0x04;
/// SCAN opcode.
pub const OP_SCAN: u8 = 0x05;
/// METRICS opcode.
pub const OP_METRICS: u8 = 0x06;
/// PING opcode.
pub const OP_PING: u8 = 0x07;
/// SLOWLOG opcode.
pub const OP_SLOWLOG: u8 = 0x08;

/// Number of distinct request opcodes (`0x01..=OP_COUNT`); sizes the
/// server's per-opcode timing arrays.
pub const OP_COUNT: usize = 8;

/// The exposition label for a request opcode (`op="..."` in Prometheus
/// series, the key in METRICS JSON timing objects). `"?"` for values
/// that are not opcodes.
pub fn op_name(opcode: u8) -> &'static str {
    match opcode {
        OP_GET => "get",
        OP_INSERT => "insert",
        OP_REMOVE => "remove",
        OP_BATCH => "batch",
        OP_SCAN => "scan",
        OP_METRICS => "metrics",
        OP_PING => "ping",
        OP_SLOWLOG => "slowlog",
        _ => "?",
    }
}

pub(crate) const STATUS_OK: u8 = 0x00;
pub(crate) const STATUS_ERR: u8 = 0x01;

/// Which exposition format a METRICS request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// One flat JSON object (tree snapshot + server counters).
    Json,
    /// Prometheus text exposition.
    Prometheus,
}

/// One operation inside a BATCH request: the store's own batch command,
/// so decoded frames feed [`nmbst::ShardedMapHandle::execute_batch`]
/// without conversion.
pub type BatchOp = nmbst::BatchCmd<u64, u64>;

/// One reply inside a BATCH response, request order: the store's own
/// batch verdict, encoded as it comes out of `execute_batch`.
pub type BatchReply = nmbst::BatchVerdict<u64>;

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get(u64),
    /// Insert key → value.
    Insert(u64, u64),
    /// Remove a key.
    Remove(u64),
    /// Many point ops in one frame (the replay tier's unit of work).
    Batch(Vec<BatchOp>),
    /// Ordered range scan over `lo..=hi`, at most `max` entries
    /// (`max == 0` = unlimited).
    Scan {
        /// Low key, inclusive.
        lo: u64,
        /// High key, inclusive.
        hi: u64,
        /// Entry cap; 0 means no cap.
        max: u32,
    },
    /// Metrics scrape.
    Metrics(MetricsFormat),
    /// Liveness probe.
    Ping,
    /// The newest slow-op records, up to `max` (`0` = all available).
    SlowLog {
        /// Record cap; 0 means no cap.
        max: u32,
    },
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// GET result.
    Get(Option<u64>),
    /// INSERT result: `true` = key added.
    Insert(bool),
    /// REMOVE result: `true` = key was present.
    Remove(bool),
    /// BATCH results, request order.
    Batch(Vec<BatchReply>),
    /// SCAN result: ascending entries plus whether the cap truncated it.
    Scan {
        /// `(key, value)` pairs, ascending by key.
        entries: Vec<(u64, u64)>,
        /// `true` if `max` cut the scan short.
        truncated: bool,
    },
    /// Metrics text in the requested format.
    Metrics(String),
    /// PING acknowledged.
    Pong,
    /// Slow-op records, slowest first (tree rings + server frame ring,
    /// merged).
    SlowLog(Vec<SlowOp>),
    /// Server-side failure; the connection stays usable.
    Err(String),
}

/// A malformed frame (bad opcode, truncated payload, oversized length).
#[derive(Debug)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Byte-slice cursor for decoding; every read is bounds-checked so a
/// hostile frame can only produce a [`WireError`], never a panic.
struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError(format!("truncated frame: need {n} more bytes")))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.at..];
        self.at = self.buf.len();
        s
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.at
            )))
        }
    }
}

impl Request {
    /// The wire opcode this request encodes as — the index of the
    /// server's per-opcode timing histograms and the `kind` of
    /// server-origin slow-frame records.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Get(_) => OP_GET,
            Request::Insert(..) => OP_INSERT,
            Request::Remove(_) => OP_REMOVE,
            Request::Batch(_) => OP_BATCH,
            Request::Scan { .. } => OP_SCAN,
            Request::Metrics(_) => OP_METRICS,
            Request::Ping => OP_PING,
            Request::SlowLog { .. } => OP_SLOWLOG,
        }
    }

    /// Appends this request's body (no length prefix) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Get(k) => {
                out.push(OP_GET);
                out.extend_from_slice(&k.to_le_bytes());
            }
            Request::Insert(k, v) => {
                out.push(OP_INSERT);
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
            Request::Remove(k) => {
                out.push(OP_REMOVE);
                out.extend_from_slice(&k.to_le_bytes());
            }
            Request::Batch(ops) => {
                out.push(OP_BATCH);
                out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
                for op in ops {
                    match op {
                        BatchOp::Get(k) => {
                            out.push(OP_GET);
                            out.extend_from_slice(&k.to_le_bytes());
                        }
                        BatchOp::Insert(k, v) => {
                            out.push(OP_INSERT);
                            out.extend_from_slice(&k.to_le_bytes());
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                        BatchOp::Remove(k) => {
                            out.push(OP_REMOVE);
                            out.extend_from_slice(&k.to_le_bytes());
                        }
                    }
                }
            }
            Request::Scan { lo, hi, max } => {
                out.push(OP_SCAN);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
                out.extend_from_slice(&max.to_le_bytes());
            }
            Request::Metrics(fmt) => {
                out.push(OP_METRICS);
                out.push(match fmt {
                    MetricsFormat::Json => 0,
                    MetricsFormat::Prometheus => 1,
                });
            }
            Request::Ping => out.push(OP_PING),
            Request::SlowLog { max } => {
                out.push(OP_SLOWLOG);
                out.extend_from_slice(&max.to_le_bytes());
            }
        }
    }

    /// Decodes one request body.
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        let mut c = Cur::new(body);
        let req = match c.u8()? {
            OP_GET => Request::Get(c.u64()?),
            OP_INSERT => Request::Insert(c.u64()?, c.u64()?),
            OP_REMOVE => Request::Remove(c.u64()?),
            OP_BATCH => {
                let mut ops = Vec::new();
                decode_batch_payload(&mut c, &mut |op| ops.push(op))?;
                Request::Batch(ops)
            }
            OP_SCAN => Request::Scan {
                lo: c.u64()?,
                hi: c.u64()?,
                max: c.u32()?,
            },
            OP_METRICS => Request::Metrics(match c.u8()? {
                0 => MetricsFormat::Json,
                1 => MetricsFormat::Prometheus,
                f => return Err(WireError(format!("bad metrics format {f:#x}"))),
            }),
            OP_PING => Request::Ping,
            OP_SLOWLOG => Request::SlowLog { max: c.u32()? },
            op => return Err(WireError(format!("bad opcode {op:#x}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

/// Decodes the records of a BATCH request with the cursor positioned
/// just past the opcode byte, handing each op to `visit` in request
/// order. Shared by [`Request::decode`] and the allocation-free
/// [`decode_batch_ops`] so the two paths cannot diverge.
fn decode_batch_payload(c: &mut Cur<'_>, visit: &mut dyn FnMut(BatchOp)) -> Result<(), WireError> {
    let n = c.u32()? as usize;
    // 9 bytes is the smallest record; pre-reject counts the remaining
    // bytes cannot possibly satisfy.
    if n > c.buf.len() / 9 + 1 {
        return Err(WireError(format!("batch count {n} exceeds frame")));
    }
    for _ in 0..n {
        visit(match c.u8()? {
            OP_GET => BatchOp::Get(c.u64()?),
            OP_INSERT => BatchOp::Insert(c.u64()?, c.u64()?),
            OP_REMOVE => BatchOp::Remove(c.u64()?),
            k => return Err(WireError(format!("bad batch kind {k:#x}"))),
        });
    }
    Ok(())
}

/// Decodes one full BATCH request body (`body[0] == OP_BATCH`,
/// trailing bytes rejected) without building a `Request`: each op is
/// handed to `visit` in request order and the op count is returned.
/// The BATCH-only form of [`decode_data_ops`].
pub fn decode_batch_ops(body: &[u8], visit: impl FnMut(BatchOp)) -> Result<usize, WireError> {
    match body.first() {
        Some(&OP_BATCH) | None => decode_data_ops(body, visit),
        Some(&op) => Err(WireError(format!("expected BATCH, got opcode {op:#x}"))),
    }
}

/// Decodes one data request body — GET, INSERT, REMOVE or BATCH,
/// trailing bytes rejected — without building a `Request`: each op is
/// handed to `visit` in request order (a point frame is one op) and the
/// op count is returned. This is the serving tier's scratch-reuse entry
/// point: the visitor pushes into a reusable per-reactor buffer, so a
/// steady-state decode allocates nothing. It accepts exactly the bodies
/// [`Request::decode`] reads as one of those four requests. On `Err`,
/// ops already visited belong to the rejected frame and must be
/// discarded.
pub fn decode_data_ops(body: &[u8], mut visit: impl FnMut(BatchOp)) -> Result<usize, WireError> {
    let mut c = Cur::new(body);
    let n = match c.u8()? {
        OP_GET => {
            visit(BatchOp::Get(c.u64()?));
            1
        }
        OP_INSERT => {
            visit(BatchOp::Insert(c.u64()?, c.u64()?));
            1
        }
        OP_REMOVE => {
            visit(BatchOp::Remove(c.u64()?));
            1
        }
        OP_BATCH => {
            let mut n = 0usize;
            decode_batch_payload(&mut c, &mut |op| {
                n += 1;
                visit(op);
            })?;
            n
        }
        op => return Err(WireError(format!("expected a data opcode, got {op:#x}"))),
    };
    c.finish()?;
    Ok(n)
}

/// Appends a GET reply body (status byte included, no length prefix).
/// Shared by [`Response::encode`] and [`encode_point_reply`].
#[inline]
pub fn encode_get_reply(out: &mut Vec<u8>, value: Option<u64>) {
    out.push(STATUS_OK);
    match value {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Appends the reply body (status byte included, no length prefix) of
/// a GET, INSERT or REMOVE frame from the op's verdict: the encoding
/// [`Response::encode`] gives `Get`, `Insert` and `Remove`. The server
/// encodes a chunk's point replies with it, without staging `Response`
/// values.
#[inline]
pub fn encode_point_reply(out: &mut Vec<u8>, r: BatchReply) {
    match r {
        BatchReply::Found(v) => encode_get_reply(out, Some(v)),
        BatchReply::Missing => encode_get_reply(out, None),
        BatchReply::Added(b) | BatchReply::Removed(b) => {
            out.push(STATUS_OK);
            out.push(b as u8);
        }
    }
}

/// Appends one BATCH reply record (the single-op encoding inside a
/// BATCH response body). Shared by [`Response::encode`] and the
/// server's zero-copy path, which writes replies straight into the
/// connection write buffer instead of staging a `Response::Batch`.
#[inline]
pub fn encode_batch_reply(out: &mut Vec<u8>, r: BatchReply) {
    match r {
        BatchReply::Found(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        BatchReply::Missing => out.push(0),
        BatchReply::Added(b) => out.push(2 | (b as u8) << 4),
        BatchReply::Removed(b) => out.push(3 | (b as u8) << 4),
    }
}

/// Reserves a 4-byte length prefix at the tail of `out` and returns a
/// mark for [`end_frame`]. Everything appended between the two calls
/// becomes the frame body: the zero-copy alternative to staging a body
/// in a side buffer and memcpy-ing it behind a prefix. Nesting is fine
/// as long as frames close innermost-first.
#[inline]
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    out.extend_from_slice(&[0u8; 4]);
    out.len()
}

/// Backfills the length prefix reserved by [`begin_frame`] with the
/// number of bytes appended since, and returns that body length.
#[inline]
pub fn end_frame(out: &mut [u8], mark: usize) -> usize {
    let body_len = out.len() - mark;
    debug_assert!(body_len <= MAX_FRAME, "encoded body exceeds MAX_FRAME");
    out[mark - 4..mark].copy_from_slice(&(body_len as u32).to_le_bytes());
    body_len
}

impl Response {
    /// Appends this response's body (status byte included, no length
    /// prefix) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Err(msg) => {
                out.push(STATUS_ERR);
                out.extend_from_slice(msg.as_bytes());
                return;
            }
            Response::Get(v) => return encode_get_reply(out, *v),
            _ => out.push(STATUS_OK),
        }
        match self {
            Response::Insert(added) => out.push(*added as u8),
            Response::Remove(removed) => out.push(*removed as u8),
            Response::Batch(replies) => {
                out.extend_from_slice(&(replies.len() as u32).to_le_bytes());
                for r in replies {
                    encode_batch_reply(out, *r);
                }
            }
            Response::Scan { entries, truncated } => {
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                out.push(*truncated as u8);
                for (k, v) in entries {
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Response::Metrics(text) => out.extend_from_slice(text.as_bytes()),
            Response::Pong => {}
            Response::SlowLog(records) => {
                out.extend_from_slice(&(records.len() as u32).to_le_bytes());
                for r in records {
                    out.push(r.kind);
                    out.push(r.origin);
                    out.push(r.n_events);
                    out.extend_from_slice(&r.key.to_le_bytes());
                    out.extend_from_slice(&r.ns.to_le_bytes());
                    out.extend_from_slice(&r.events);
                }
            }
            Response::Err(_) | Response::Get(_) => unreachable!("handled above"),
        }
    }

    /// Decodes one response body. The caller must know which request it
    /// answers (the protocol is strictly request/response in order), so
    /// the expected opcode is passed in.
    pub fn decode(for_op: u8, body: &[u8]) -> Result<Response, WireError> {
        let mut c = Cur::new(body);
        match c.u8()? {
            STATUS_OK => {}
            STATUS_ERR => {
                let msg = String::from_utf8_lossy(c.rest()).into_owned();
                return Ok(Response::Err(msg));
            }
            s => return Err(WireError(format!("bad status {s:#x}"))),
        }
        let resp = match for_op {
            OP_GET => Response::Get(match c.u8()? {
                0 => None,
                _ => Some(c.u64()?),
            }),
            OP_INSERT => Response::Insert(c.u8()? != 0),
            OP_REMOVE => Response::Remove(c.u8()? != 0),
            OP_BATCH => {
                let n = c.u32()? as usize;
                if n > body.len() {
                    return Err(WireError(format!("batch reply count {n} exceeds frame")));
                }
                let mut replies = Vec::with_capacity(n);
                for _ in 0..n {
                    let tag = c.u8()?;
                    replies.push(match (tag & 0x0F, tag >> 4) {
                        (1, _) => BatchReply::Found(c.u64()?),
                        (0, _) => BatchReply::Missing,
                        (2, b) => BatchReply::Added(b != 0),
                        (3, b) => BatchReply::Removed(b != 0),
                        _ => return Err(WireError(format!("bad batch reply tag {tag:#x}"))),
                    });
                }
                Response::Batch(replies)
            }
            OP_SCAN => {
                let n = c.u32()? as usize;
                if n > body.len() / 16 + 1 {
                    return Err(WireError(format!("scan count {n} exceeds frame")));
                }
                let truncated = c.u8()? != 0;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push((c.u64()?, c.u64()?));
                }
                Response::Scan { entries, truncated }
            }
            OP_METRICS => Response::Metrics(String::from_utf8_lossy(c.rest()).into_owned()),
            OP_PING => Response::Pong,
            OP_SLOWLOG => {
                let n = c.u32()? as usize;
                // 31 bytes per record; pre-reject counts the frame
                // cannot possibly satisfy.
                if n > body.len() / 31 + 1 {
                    return Err(WireError(format!("slowlog count {n} exceeds frame")));
                }
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    let kind = c.u8()?;
                    let origin = c.u8()?;
                    let n_events = c.u8()?;
                    let key = c.u64()?;
                    let ns = c.u64()?;
                    let mut events = [0u8; SLOW_EVENTS];
                    events.copy_from_slice(c.take(SLOW_EVENTS)?);
                    records.push(SlowOp {
                        kind,
                        origin,
                        n_events,
                        key,
                        ns,
                        events,
                    });
                }
                Response::SlowLog(records)
            }
            op => return Err(WireError(format!("bad request opcode {op:#x}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// What [`split_frame`] found at the front of a byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameSplit {
    /// Not enough bytes for a complete frame yet; keep reading. Carries
    /// the total prefix-plus-body size once the length prefix is known
    /// (`0` while even the prefix is partial) so a reactor can pre-grow
    /// its buffer.
    Incomplete(usize),
    /// A complete frame: the body is `buf[4 .. 4 + body_len]` and the
    /// caller should consume `4 + body_len` bytes.
    Frame {
        /// Body length in bytes (the decoded u32 prefix).
        body_len: usize,
    },
    /// The length prefix announces more than [`MAX_FRAME`]: the peer is
    /// malformed (or hostile) and the connection must be dropped —
    /// there is no way to resynchronize a length-prefixed stream.
    Oversized(usize),
}

/// The incremental-decode entry point: inspects the front of `buf` (an
/// arbitrary prefix of the byte stream, as assembled by a non-blocking
/// reader) without consuming anything. This is [`read_frame`]'s logic
/// factored out of the blocking-`Read` loop so a reactor can call it
/// after every partial read: feed it one byte at a time and it returns
/// [`FrameSplit::Incomplete`] until exactly the full frame is present.
pub fn split_frame(buf: &[u8]) -> FrameSplit {
    if buf.len() < 4 {
        return FrameSplit::Incomplete(0);
    }
    let body_len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if body_len > MAX_FRAME {
        return FrameSplit::Oversized(body_len);
    }
    if buf.len() < 4 + body_len {
        FrameSplit::Incomplete(4 + body_len)
    } else {
        FrameSplit::Frame { body_len }
    }
}

/// Writes `body` as one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME);
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Reads one frame body into `buf` (cleared and resized). Returns
/// `Ok(false)` on clean EOF at a frame boundary; mid-frame EOF and
/// oversized lengths are `Err`.
///
/// Read-timeout contract (for a caller that polls with a read
/// timeout, so that it can give up on an idle connection): a timeout
/// *before any byte of a frame* surfaces as
/// `Err(WouldBlock | TimedOut)` with nothing consumed — the caller may
/// treat it as an idle tick and call again.
/// Once any byte has been consumed, timeouts are retried internally so
/// a slow writer can never desync the stream.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    fn is_timeout(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }
    /// `read_exact` that survives timeouts once mid-object.
    fn fill(r: &mut impl Read, mut dst: &mut [u8], what: &str) -> io::Result<()> {
        while !dst.is_empty() {
            match r.read(dst) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("eof inside frame {what}"),
                    ));
                }
                Ok(n) => dst = &mut dst[n..],
                Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    let mut len = [0u8; 4];
    // First read: EOF = clean close, timeout = idle tick (nothing
    // consumed either way).
    let got = loop {
        match r.read(&mut len) {
            Ok(0) => return Ok(false),
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    fill(r, &mut len[got..], "length")?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds MAX_FRAME"),
        ));
    }
    buf.clear();
    buf.resize(n, 0);
    fill(r, buf, "body")?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut body = Vec::new();
        req.encode(&mut body);
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    fn round_trip_response(op: u8, resp: Response) {
        let mut body = Vec::new();
        resp.encode(&mut body);
        assert_eq!(Response::decode(op, &body).unwrap(), resp);
    }

    #[test]
    fn request_round_trips() {
        round_trip_request(Request::Get(42));
        round_trip_request(Request::Insert(u64::MAX, 0));
        round_trip_request(Request::Remove(7));
        round_trip_request(Request::Batch(vec![
            BatchOp::Get(1),
            BatchOp::Insert(2, 20),
            BatchOp::Remove(3),
        ]));
        round_trip_request(Request::Batch(Vec::new()));
        round_trip_request(Request::Scan {
            lo: 5,
            hi: 500,
            max: 0,
        });
        round_trip_request(Request::Metrics(MetricsFormat::Json));
        round_trip_request(Request::Metrics(MetricsFormat::Prometheus));
        round_trip_request(Request::Ping);
        round_trip_request(Request::SlowLog { max: 0 });
        round_trip_request(Request::SlowLog { max: 128 });
    }

    #[test]
    fn response_round_trips() {
        round_trip_response(OP_GET, Response::Get(Some(9)));
        round_trip_response(OP_GET, Response::Get(None));
        round_trip_response(OP_INSERT, Response::Insert(true));
        round_trip_response(OP_REMOVE, Response::Remove(false));
        round_trip_response(
            OP_BATCH,
            Response::Batch(vec![
                BatchReply::Found(1),
                BatchReply::Missing,
                BatchReply::Added(true),
                BatchReply::Added(false),
                BatchReply::Removed(true),
            ]),
        );
        round_trip_response(
            OP_SCAN,
            Response::Scan {
                entries: vec![(1, 10), (2, 20)],
                truncated: true,
            },
        );
        round_trip_response(OP_METRICS, Response::Metrics("x y z".into()));
        round_trip_response(OP_PING, Response::Pong);
        round_trip_response(OP_GET, Response::Err("boom".into()));
        round_trip_response(OP_SLOWLOG, Response::SlowLog(Vec::new()));
        let mut events = [0u8; SLOW_EVENTS];
        for (i, e) in events.iter_mut().enumerate() {
            *e = i as u8;
        }
        round_trip_response(
            OP_SLOWLOG,
            Response::SlowLog(vec![
                SlowOp {
                    kind: OP_BATCH,
                    origin: 1,
                    n_events: 0,
                    key: 42,
                    ns: 2_000_000,
                    events: [0; SLOW_EVENTS],
                },
                SlowOp {
                    kind: 1,
                    origin: 0,
                    n_events: 12,
                    key: u64::MAX,
                    ns: 1_500_000,
                    events,
                },
            ]),
        );
    }

    /// The visitor decode must agree byte-for-byte with `Request::decode`
    /// on every valid BATCH body, and reject the same malformed ones.
    #[test]
    fn decode_batch_ops_agrees_with_request_decode() {
        let ops = vec![
            BatchOp::Get(1),
            BatchOp::Insert(2, 20),
            BatchOp::Remove(3),
            BatchOp::Get(u64::MAX),
        ];
        let mut body = Vec::new();
        Request::Batch(ops.clone()).encode(&mut body);
        let mut seen = Vec::new();
        let n = decode_batch_ops(&body, |op| seen.push(op)).unwrap();
        assert_eq!(n, ops.len());
        assert_eq!(seen, ops);
        // Empty batch.
        let mut body = Vec::new();
        Request::Batch(Vec::new()).encode(&mut body);
        assert_eq!(decode_batch_ops(&body, |_| panic!("no ops")).unwrap(), 0);
        // Non-batch opcode is rejected outright.
        let mut body = Vec::new();
        Request::Ping.encode(&mut body);
        assert!(decode_batch_ops(&body, |_| {}).is_err());
        // Trailing garbage and bogus counts are rejected like decode.
        let mut body = Vec::new();
        Request::Batch(vec![BatchOp::Get(7)]).encode(&mut body);
        body.push(0);
        assert!(decode_batch_ops(&body, |_| {}).is_err());
        let mut body = vec![OP_BATCH];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_batch_ops(&body, |_| {}).is_err());
    }

    /// `begin_frame`/`end_frame` produce exactly what `write_frame`
    /// produces, including back-to-back frames in one buffer.
    #[test]
    fn reserve_backfill_frames_match_write_frame() {
        let mut out = Vec::new();
        let mark = begin_frame(&mut out);
        out.extend_from_slice(b"hello");
        assert_eq!(end_frame(&mut out, mark), 5);
        let mark = begin_frame(&mut out);
        assert_eq!(end_frame(&mut out, mark), 0);
        let mut expect = Vec::new();
        write_frame(&mut expect, b"hello").unwrap();
        write_frame(&mut expect, b"").unwrap();
        assert_eq!(out, expect);
        assert_eq!(split_frame(&out), FrameSplit::Frame { body_len: 5 });
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF]).is_err());
        assert!(Request::decode(&[OP_GET, 1, 2]).is_err(), "truncated key");
        // Trailing garbage after a valid payload.
        let mut body = Vec::new();
        Request::Ping.encode(&mut body);
        body.push(0);
        assert!(Request::decode(&body).is_err());
        // Batch count larger than the frame could hold.
        let mut body = vec![OP_BATCH];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&body).is_err());
    }

    /// Seeded fuzz: random bytes must never panic the decoder, and every
    /// encodable request must survive a round trip.
    #[test]
    fn decoder_survives_random_bytes() {
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..5_000 {
            let len = (next() % 64) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = Request::decode(&bytes); // must not panic
            let _ = Response::decode((next() % 10) as u8, &bytes);
            let _ = split_frame(&bytes); // arbitrary prefixes are fine too
        }
    }

    /// The data-frame decoder reads exactly the bodies the general
    /// decoder reads as a GET, INSERT, REMOVE or BATCH, into the same
    /// ops, whatever the bytes.
    #[test]
    fn decode_data_ops_agrees_with_request_decode() {
        let mut x = 0x0F1E_2D3C_4B5A_6978u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..20_000 {
            let len = (next() % 40) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            if let Some(b) = bytes.first_mut() {
                *b = *b % 5 + OP_GET; // the four data opcodes and SCAN
            }
            if bytes.first() == Some(&OP_BATCH) && bytes.len() >= 5 {
                bytes[1..5].copy_from_slice(&(next() % 4).to_le_bytes()[..4]);
                for b in bytes.iter_mut().skip(5).step_by(9) {
                    *b = *b % 3 + OP_GET; // mostly well-formed records
                }
            }
            let general = match Request::decode(&bytes) {
                Ok(Request::Get(k)) => Some(vec![BatchOp::Get(k)]),
                Ok(Request::Insert(k, v)) => Some(vec![BatchOp::Insert(k, v)]),
                Ok(Request::Remove(k)) => Some(vec![BatchOp::Remove(k)]),
                Ok(Request::Batch(ops)) => Some(ops),
                _ => None,
            };
            let mut seen = Vec::new();
            let fast = decode_data_ops(&bytes, |op| seen.push(op)).ok();
            assert_eq!(
                fast.map(|n| (n, seen)),
                general.map(|g| (g.len(), g)),
                "{bytes:?}"
            );
        }
    }

    /// Point replies encode as the matching `Response` does.
    #[test]
    fn point_replies_match_response_encoding() {
        for (r, resp) in [
            (BatchReply::Found(7), Response::Get(Some(7))),
            (BatchReply::Missing, Response::Get(None)),
            (BatchReply::Added(true), Response::Insert(true)),
            (BatchReply::Added(false), Response::Insert(false)),
            (BatchReply::Removed(true), Response::Remove(true)),
            (BatchReply::Removed(false), Response::Remove(false)),
        ] {
            let (mut fast, mut general) = (Vec::new(), Vec::new());
            encode_point_reply(&mut fast, r);
            resp.encode(&mut general);
            assert_eq!(fast, general, "{r:?}");
        }
    }

    /// The incremental splitter agrees with the blocking reader at every
    /// possible prefix length: Incomplete until the exact boundary, then
    /// a Frame whose body matches, with trailing bytes left alone.
    #[test]
    fn split_frame_finds_boundaries_incrementally() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        for cut in 0..wire.len() {
            let got = split_frame(&wire[..cut]);
            if cut < 4 {
                assert_eq!(got, FrameSplit::Incomplete(0), "cut={cut}");
            } else if cut < 9 {
                assert_eq!(got, FrameSplit::Incomplete(9), "cut={cut}");
            } else {
                assert_eq!(got, FrameSplit::Frame { body_len: 5 }, "cut={cut}");
            }
        }
        // Consume the first frame: the empty second frame is complete.
        assert_eq!(split_frame(&wire[9..]), FrameSplit::Frame { body_len: 0 });
        // An oversized prefix is flagged, not waited for.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert_eq!(split_frame(&huge), FrameSplit::Oversized(MAX_FRAME + 1));
        // ... even with only the prefix present and no body at all.
        assert_eq!(split_frame(&huge[..3]), FrameSplit::Incomplete(0));
    }

    /// Seeded fuzz for the reactor path: valid frames concatenated, then
    /// delivered in chunks split at random byte boundaries — the
    /// splitter must reassemble exactly the frames that were sent, in
    /// order, regardless of how the stream was fragmented.
    #[test]
    fn split_frame_survives_random_fragmentation() {
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _round in 0..200 {
            // A handful of frames with random small bodies (including
            // empty ones, the hardest boundary case).
            let mut sent: Vec<Vec<u8>> = Vec::new();
            let mut wire = Vec::new();
            for _ in 0..(next() % 6 + 1) {
                let len = (next() % 40) as usize;
                let body: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                write_frame(&mut wire, &body).unwrap();
                sent.push(body);
            }
            // Deliver in random-sized chunks through a reassembly buffer.
            let mut rbuf: Vec<u8> = Vec::new();
            let mut got: Vec<Vec<u8>> = Vec::new();
            let mut at = 0;
            while at < wire.len() {
                let chunk = ((next() % 7) as usize + 1).min(wire.len() - at);
                rbuf.extend_from_slice(&wire[at..at + chunk]);
                at += chunk;
                loop {
                    match split_frame(&rbuf) {
                        FrameSplit::Frame { body_len } => {
                            got.push(rbuf[4..4 + body_len].to_vec());
                            rbuf.drain(..4 + body_len);
                        }
                        FrameSplit::Incomplete(_) => break,
                        FrameSplit::Oversized(n) => panic!("bogus oversize {n}"),
                    }
                }
            }
            assert_eq!(got, sent, "fragmented reassembly must be exact");
            assert!(rbuf.is_empty(), "no leftover bytes");
        }
    }

    #[test]
    fn frame_io_round_trips() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"");
        assert!(!read_frame(&mut r, &mut buf).unwrap(), "clean EOF");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).is_err());
    }
}
