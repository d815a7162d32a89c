//! The length-framed wire protocol of the clustering daemon.
//!
//! Every message — request or response — is one *frame*: a little-endian
//! `u32` payload length followed by that many payload bytes. Inside a frame
//! the payload is a fixed little-endian layout selected by a leading opcode
//! (requests) or status byte (responses); see [`Request`] and [`Response`].
//! The framing layer enforces a hard payload ceiling so a hostile or corrupt
//! length prefix is rejected with a typed [`FrameError::Oversized`] before a
//! single payload byte is allocated.
//!
//! The protocol is deliberately binary and versionless-per-connection: a
//! client speaks to exactly the daemon build it was shipped with (both ends
//! live in this workspace), so the frame layer carries no negotiation —
//! malformed input surfaces as a typed [`DecodeError`], never a panic.
//!
//! Failpoint: `serve::read_frame` (io style) fires inside [`read_frame`],
//! modeling a connection that dies mid-frame.

use std::io::{Read, Write};

use anyscan_dynamic::{EdgeOp, EdgeUpdate};
use bytes::{Buf, BufMut, BytesMut};

/// Ceiling on request payloads the daemon will read. Requests are a few
/// dozen bytes; anything larger is garbage or abuse.
pub const REQUEST_FRAME_LIMIT: usize = 64 * 1024;

/// Ceiling on response payloads a client will read. Label blocks carry
/// ~5 bytes per vertex, so this admits graphs beyond 10^7 vertices.
pub const RESPONSE_FRAME_LIMIT: usize = 64 * 1024 * 1024;

/// Errors of the framing layer itself (beneath request decoding).
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection mid-frame (header or payload).
    Truncated { needed: usize, got: usize },
    /// The length prefix exceeds the frame ceiling.
    Oversized { len: usize, max: usize },
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            FrameError::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: {len} bytes exceeds the {max}-byte limit"
                )
            }
            FrameError::Io(e) => write!(f, "frame io: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one frame. `Ok(None)` is a clean close (EOF exactly at a frame
/// boundary); EOF anywhere inside a frame is [`FrameError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R, max_len: usize) -> Result<Option<Vec<u8>>, FrameError> {
    anyscan_faults::inject_io("serve::read_frame").map_err(FrameError::Io)?;
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    needed: header.len(),
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > max_len {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(FrameError::Truncated { needed: len, got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(payload))
}

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::other("frame payload exceeds u32::MAX"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Structural errors decoding a frame payload into a [`Request`] or
/// [`Response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Empty payload, or an opcode/status byte outside the protocol.
    UnknownOpcode(u8),
    /// The payload ended before the opcode's fixed layout was complete.
    Truncated,
    /// Bytes remained after the opcode's layout was fully consumed.
    TrailingBytes(usize),
    /// A field value is structurally impossible (e.g. a non-UTF-8 error
    /// message, a label block longer than the frame).
    BadValue(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            DecodeError::BadValue(what) => write!(f, "bad value: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn need<B: Buf>(buf: &B, n: usize) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

fn finish<B: Buf>(buf: &B) -> Result<(), DecodeError> {
    if buf.remaining() > 0 {
        Err(DecodeError::TrailingBytes(buf.remaining()))
    } else {
        Ok(())
    }
}

/// One edge mutation on the wire: a kind byte ([`UPDATE_INSERT`],
/// [`UPDATE_REMOVE`], [`UPDATE_REWEIGHT`]), the unordered endpoints and the
/// weight payload (ignored for removals). Sequence numbers are assigned by
/// the daemon — clients describe *what* to mutate, the writer decides the
/// global order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireUpdate {
    pub kind: u8,
    pub u: u32,
    pub v: u32,
    pub w: f64,
}

/// [`WireUpdate::kind`]: upsert the edge with weight `w`.
pub const UPDATE_INSERT: u8 = 0;
/// [`WireUpdate::kind`]: delete the edge (skipped when absent).
pub const UPDATE_REMOVE: u8 = 1;
/// [`WireUpdate::kind`]: set the weight of an existing edge.
pub const UPDATE_REWEIGHT: u8 = 2;

/// Bytes one [`WireUpdate`] occupies in an `ApplyUpdates` payload.
const WIRE_UPDATE_LEN: usize = 17;

/// A client request. Opcodes 1–8, fixed layouts, all little-endian.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Re-cluster the indexed graph at `(eps, mu)`; with `want_labels` the
    /// response carries the full per-vertex label/role arrays (in original
    /// vertex ids), otherwise just the role-count summary.
    Query {
        eps: f64,
        mu: u32,
        want_labels: bool,
    },
    /// Point lookup: the cluster label and role of one vertex (original id)
    /// at `(eps, mu)` — the highest-traffic query shape.
    Membership { vertex: u32, eps: f64, mu: u32 },
    /// A full anytime run at `(eps, mu)` under a per-request deadline
    /// (`deadline_ms`, 0 = none) and block budget (`max_blocks`, 0 = none);
    /// answers with the Lemma-1 best-so-far summary either way.
    Run {
        eps: f64,
        mu: u32,
        deadline_ms: u32,
        max_blocks: u64,
    },
    /// Health check; answered even when the admission queue is full.
    Ping,
    /// Ask the daemon to stop accepting connections and exit cleanly.
    Shutdown,
    /// Mutate the resident graph with one batch of edge updates (dynamic
    /// daemons only). Admission-controlled like `Run`; the daemon applies
    /// the batch through its incremental engine, repairs the index
    /// copy-on-write and epoch-swaps the snapshot its read path serves.
    ApplyUpdates { updates: Vec<WireUpdate> },
    /// A replica's subscription handshake: "stream me every committed ASUL
    /// entry with `seq > watermark`". Answered by [`Response::Subscribed`],
    /// after which the connection becomes a one-way primary→replica stream
    /// of [`Response::LogEntries`] frames; the replica never writes again.
    Subscribe { watermark: u64 },
    /// Turn a caught-up replica into a writable primary (fencing the old
    /// primary via the bumped term). Idempotent on a daemon that is already
    /// primary; a typed `BadRequest` on a static (non-dynamic) daemon.
    Promote,
}

const OP_QUERY: u8 = 1;
const OP_MEMBERSHIP: u8 = 2;
const OP_RUN: u8 = 3;
const OP_PING: u8 = 4;
const OP_SHUTDOWN: u8 = 5;
const OP_APPLY_UPDATES: u8 = 6;
const OP_SUBSCRIBE: u8 = 7;
const OP_PROMOTE: u8 = 8;
/// Response-only code keying the unsolicited [`Response::LogEntries`]
/// stream frames a primary pushes to subscribed replicas.
const OP_LOG_ENTRIES: u8 = 9;

/// Bytes one replicated log entry occupies in a `LogEntries` payload
/// (same layout as an ASUL log entry: seq u64, u u32, v u32, op u8, w f64).
const LOG_ENTRY_LEN: usize = 25;

impl Request {
    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(32);
        match *self {
            Request::Query {
                eps,
                mu,
                want_labels,
            } => {
                buf.put_u8(OP_QUERY);
                buf.put_f64_le(eps);
                buf.put_u32_le(mu);
                buf.put_u8(want_labels as u8);
            }
            Request::Membership { vertex, eps, mu } => {
                buf.put_u8(OP_MEMBERSHIP);
                buf.put_u32_le(vertex);
                buf.put_f64_le(eps);
                buf.put_u32_le(mu);
            }
            Request::Run {
                eps,
                mu,
                deadline_ms,
                max_blocks,
            } => {
                buf.put_u8(OP_RUN);
                buf.put_f64_le(eps);
                buf.put_u32_le(mu);
                buf.put_u32_le(deadline_ms);
                buf.put_u64_le(max_blocks);
            }
            Request::Ping => buf.put_u8(OP_PING),
            Request::Shutdown => buf.put_u8(OP_SHUTDOWN),
            Request::Subscribe { watermark } => {
                buf.put_u8(OP_SUBSCRIBE);
                buf.put_u64_le(watermark);
            }
            Request::Promote => buf.put_u8(OP_PROMOTE),
            Request::ApplyUpdates { ref updates } => {
                buf.put_u8(OP_APPLY_UPDATES);
                buf.put_u32_le(updates.len() as u32);
                for up in updates {
                    buf.put_u8(up.kind);
                    buf.put_u32_le(up.u);
                    buf.put_u32_le(up.v);
                    buf.put_f64_le(up.w);
                }
            }
        }
        buf.into()
    }

    /// Parses a frame payload. Purely structural: parameter semantics
    /// (ε range, μ ≥ 1, vertex bounds) are the server's `BadRequest`.
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        let mut buf = payload;
        need(&buf, 1)?;
        let op = buf.get_u8();
        let req = match op {
            OP_QUERY => {
                need(&buf, 13)?;
                Request::Query {
                    eps: buf.get_f64_le(),
                    mu: buf.get_u32_le(),
                    want_labels: buf.get_u8() != 0,
                }
            }
            OP_MEMBERSHIP => {
                need(&buf, 16)?;
                Request::Membership {
                    vertex: buf.get_u32_le(),
                    eps: buf.get_f64_le(),
                    mu: buf.get_u32_le(),
                }
            }
            OP_RUN => {
                need(&buf, 24)?;
                Request::Run {
                    eps: buf.get_f64_le(),
                    mu: buf.get_u32_le(),
                    deadline_ms: buf.get_u32_le(),
                    max_blocks: buf.get_u64_le(),
                }
            }
            OP_PING => Request::Ping,
            OP_SHUTDOWN => Request::Shutdown,
            OP_APPLY_UPDATES => {
                need(&buf, 4)?;
                let n = buf.get_u32_le() as usize;
                let bytes = n
                    .checked_mul(WIRE_UPDATE_LEN)
                    .ok_or(DecodeError::BadValue("update batch length overflows"))?;
                need(&buf, bytes)?;
                let mut updates = Vec::with_capacity(n);
                for _ in 0..n {
                    let kind = buf.get_u8();
                    if kind > UPDATE_REWEIGHT {
                        return Err(DecodeError::BadValue("update kind"));
                    }
                    updates.push(WireUpdate {
                        kind,
                        u: buf.get_u32_le(),
                        v: buf.get_u32_le(),
                        w: buf.get_f64_le(),
                    });
                }
                Request::ApplyUpdates { updates }
            }
            OP_SUBSCRIBE => {
                need(&buf, 8)?;
                Request::Subscribe {
                    watermark: buf.get_u64_le(),
                }
            }
            OP_PROMOTE => Request::Promote,
            other => return Err(DecodeError::UnknownOpcode(other)),
        };
        finish(&buf)?;
        Ok(req)
    }
}

/// Typed rejection codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was structurally valid but semantically impossible
    /// (ε out of (0, 1], μ = 0, vertex out of range, undecodable payload).
    BadRequest,
    /// The admission queue is full; retry later. The connection stays open.
    Overloaded,
    /// The request was admitted but failed mid-execution (e.g. a worker
    /// panic surfaced as a typed pool error).
    Internal,
    /// The daemon is draining; no further requests will be admitted.
    ShuttingDown,
    /// A write (`ApplyUpdates` / `Shutdown`-adjacent mutation) reached a
    /// replica. The error *message* carries the leader hint — the primary's
    /// address as the replica knows it, empty when it has none — so a
    /// failover-aware client can retry against the right endpoint.
    NotPrimary,
    /// The connection sat idle (or stalled mid-frame) past the daemon's
    /// per-connection timeout (`--conn-timeout-ms`); the daemon sends this
    /// best-effort and closes.
    Timeout,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 0,
            ErrorCode::Overloaded => 1,
            ErrorCode::Internal => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::NotPrimary => 4,
            ErrorCode::Timeout => 5,
        }
    }

    fn from_u8(v: u8) -> Result<ErrorCode, DecodeError> {
        Ok(match v {
            0 => ErrorCode::BadRequest,
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::Internal,
            3 => ErrorCode::ShuttingDown,
            4 => ErrorCode::NotPrimary,
            5 => ErrorCode::Timeout,
            _ => return Err(DecodeError::BadValue("error code")),
        })
    }

    /// Stable lowercase label for human output and load reports.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::NotPrimary => "not_primary",
            ErrorCode::Timeout => "timeout",
        }
    }
}

/// Role-count summary of one clustering (the cheap response body).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuerySummary {
    pub clusters: u32,
    pub cores: u32,
    pub borders: u32,
    pub hubs: u32,
    pub outliers: u32,
}

/// Per-vertex label/role arrays, in original vertex ids. `labels[v]` is
/// `u32::MAX` for noise; `roles[v]` is a [`role_name`] code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelBlock {
    pub labels: Vec<u32>,
    pub roles: Vec<u8>,
}

/// Daemon-side request counters returned by [`Request::Ping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    pub requests: u64,
    pub queries: u64,
    pub lookups: u64,
    pub runs: u64,
    pub overloaded: u64,
    pub protocol_errors: u64,
    /// `ApplyUpdates` batches accepted and applied (dynamic daemons).
    pub updates: u64,
    /// Connections closed for exceeding the per-connection read/write
    /// timeout (`--conn-timeout-ms`).
    pub timeouts: u64,
}

/// [`Health::role`]: the daemon accepts writes.
pub const ROLE_PRIMARY: u8 = 0;
/// [`Health::role`]: the daemon follows a primary and rejects writes with
/// [`ErrorCode::NotPrimary`].
pub const ROLE_REPLICA: u8 = 1;

/// Stable name of a [`Health::role`] code.
pub fn server_role_name(code: u8) -> Option<&'static str> {
    Some(match code {
        ROLE_PRIMARY => "primary",
        ROLE_REPLICA => "replica",
        _ => return None,
    })
}

/// The health/readiness probe body answered to [`Request::Ping`]. Carries
/// enough for an orchestrator (or the chaos harness) to tell *alive* from
/// *caught up*: the replication role and term, the epoch the read path
/// serves, the durable ASUL watermark, and live admission pressure —
/// followed by the cumulative [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Health {
    /// [`ROLE_PRIMARY`] or [`ROLE_REPLICA`].
    pub role: u8,
    /// Monotonic replication term the daemon is serving under.
    pub term: u64,
    /// Epoch counter of the snapshot answering reads.
    pub epoch: u64,
    /// Sequence number of the last durably applied update (0 when static).
    pub watermark: u64,
    /// Requests currently holding an admission slot.
    pub inflight: u32,
    /// Requests parked in the admission queue.
    pub queued: u32,
    /// Cumulative request counters.
    pub stats: ServeStats,
}

/// A daemon response. Status byte 0 = Ok (followed by the request's opcode
/// and its body), 1 = typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Query {
        summary: QuerySummary,
        labels: Option<LabelBlock>,
    },
    Membership {
        label: u32,
        role: u8,
    },
    Run {
        summary: QuerySummary,
        /// A [`completion_name`] code: how the anytime run ended.
        completion: u8,
        blocks: u64,
    },
    Ping(Health),
    Shutdown,
    /// Outcome of one applied batch: effective vs relaxed-no-op updates,
    /// the daemon-assigned watermark after the batch, and the epoch counter
    /// of the snapshot now serving queries.
    ApplyUpdates {
        applied: u64,
        skipped: u64,
        seq: u64,
        epoch: u64,
    },
    /// Subscription accepted: the primary's current term and its durable
    /// watermark at accept time. [`Response::LogEntries`] frames follow.
    Subscribed {
        term: u64,
        watermark: u64,
    },
    /// One primary→replica stream frame: committed ASUL entries (sequence
    /// numbers assigned by the primary, strictly ascending), stamped with
    /// the term they were committed under. Only ever pushed after the
    /// entries' durability point, so a replica is never ahead of the
    /// primary's disk.
    LogEntries {
        term: u64,
        entries: Vec<EdgeUpdate>,
    },
    /// Promotion outcome: the new term plus the epoch/watermark the fresh
    /// primary serves at.
    Promoted {
        term: u64,
        epoch: u64,
        watermark: u64,
    },
    Error {
        code: ErrorCode,
        message: String,
    },
}

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Bytes of a labelled `Query` response before its per-vertex arrays:
/// status, opcode, the 20-byte summary, the block flag and the `u32` count.
const QUERY_BLOCK_HEADER_LEN: usize = 2 + 20 + 1 + 4;

/// Bytes one vertex occupies in a label block: a `u32` label, a role byte.
const LABEL_BLOCK_VERTEX_LEN: usize = 5;

fn put_summary(buf: &mut BytesMut, s: &QuerySummary) {
    buf.put_u32_le(s.clusters);
    buf.put_u32_le(s.cores);
    buf.put_u32_le(s.borders);
    buf.put_u32_le(s.hubs);
    buf.put_u32_le(s.outliers);
}

fn get_summary(buf: &mut &[u8]) -> Result<QuerySummary, DecodeError> {
    need(buf, 20)?;
    Ok(QuerySummary {
        clusters: buf.get_u32_le(),
        cores: buf.get_u32_le(),
        borders: buf.get_u32_le(),
        hubs: buf.get_u32_le(),
        outliers: buf.get_u32_le(),
    })
}

impl Response {
    /// Serializes the response into a frame payload; a label block's is
    /// allocated once, at its exact size.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        match self {
            Response::Query { summary, labels } => {
                buf.put_u8(STATUS_OK);
                buf.put_u8(OP_QUERY);
                put_summary(&mut buf, summary);
                match labels {
                    None => buf.put_u8(0),
                    Some(block) => {
                        buf.put_u8(1);
                        buf.put_u32_le(block.labels.len() as u32);
                        // One pass over the label array, written in place.
                        let start = buf.len();
                        buf.resize(start + 4 * block.labels.len(), 0);
                        for (dst, &l) in buf[start..].chunks_exact_mut(4).zip(&block.labels) {
                            dst.copy_from_slice(&l.to_le_bytes());
                        }
                        buf.put_slice(&block.roles);
                    }
                }
            }
            Response::Membership { label, role } => {
                buf.put_u8(STATUS_OK);
                buf.put_u8(OP_MEMBERSHIP);
                buf.put_u32_le(*label);
                buf.put_u8(*role);
            }
            Response::Run {
                summary,
                completion,
                blocks,
            } => {
                buf.put_u8(STATUS_OK);
                buf.put_u8(OP_RUN);
                put_summary(&mut buf, summary);
                buf.put_u8(*completion);
                buf.put_u64_le(*blocks);
            }
            Response::Ping(health) => {
                buf.put_u8(STATUS_OK);
                buf.put_u8(OP_PING);
                buf.put_u8(health.role);
                buf.put_u64_le(health.term);
                buf.put_u64_le(health.epoch);
                buf.put_u64_le(health.watermark);
                buf.put_u32_le(health.inflight);
                buf.put_u32_le(health.queued);
                buf.put_u64_le(health.stats.requests);
                buf.put_u64_le(health.stats.queries);
                buf.put_u64_le(health.stats.lookups);
                buf.put_u64_le(health.stats.runs);
                buf.put_u64_le(health.stats.overloaded);
                buf.put_u64_le(health.stats.protocol_errors);
                buf.put_u64_le(health.stats.updates);
                buf.put_u64_le(health.stats.timeouts);
            }
            Response::Shutdown => {
                buf.put_u8(STATUS_OK);
                buf.put_u8(OP_SHUTDOWN);
            }
            Response::ApplyUpdates {
                applied,
                skipped,
                seq,
                epoch,
            } => {
                buf.put_u8(STATUS_OK);
                buf.put_u8(OP_APPLY_UPDATES);
                buf.put_u64_le(*applied);
                buf.put_u64_le(*skipped);
                buf.put_u64_le(*seq);
                buf.put_u64_le(*epoch);
            }
            Response::Subscribed { term, watermark } => {
                buf.put_u8(STATUS_OK);
                buf.put_u8(OP_SUBSCRIBE);
                buf.put_u64_le(*term);
                buf.put_u64_le(*watermark);
            }
            Response::LogEntries { term, entries } => {
                buf.put_u8(STATUS_OK);
                buf.put_u8(OP_LOG_ENTRIES);
                buf.put_u64_le(*term);
                buf.put_u32_le(entries.len() as u32);
                for e in entries {
                    buf.put_u64_le(e.seq);
                    buf.put_u32_le(e.u);
                    buf.put_u32_le(e.v);
                    buf.put_u8(e.op.code());
                    buf.put_f64_le(e.op.weight());
                }
            }
            Response::Promoted {
                term,
                epoch,
                watermark,
            } => {
                buf.put_u8(STATUS_OK);
                buf.put_u8(OP_PROMOTE);
                buf.put_u64_le(*term);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(*watermark);
            }
            Response::Error { code, message } => {
                buf.put_u8(STATUS_ERR);
                buf.put_u8(code.to_u8());
                buf.put_u32_le(message.len() as u32);
                buf.put_slice(message.as_bytes());
            }
        }
        buf.into()
    }

    /// Capacity [`Response::encode`] starts from: a labelled `Query`'s exact
    /// payload size, else room for every fixed layout (`Ping`, the largest,
    /// is 99 bytes).
    fn encoded_len(&self) -> usize {
        match self {
            Response::Query {
                labels: Some(block),
                ..
            } => QUERY_BLOCK_HEADER_LEN + LABEL_BLOCK_VERTEX_LEN * block.labels.len(),
            _ => 128,
        }
    }

    /// Parses a frame payload into a response, reading the borrowed bytes
    /// in place.
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeError> {
        let mut buf = payload;
        need(&buf, 1)?;
        let resp = match buf.get_u8() {
            STATUS_OK => {
                need(&buf, 1)?;
                match buf.get_u8() {
                    OP_QUERY => {
                        let summary = get_summary(&mut buf)?;
                        need(&buf, 1)?;
                        let labels = match buf.get_u8() {
                            0 => None,
                            1 => {
                                need(&buf, 4)?;
                                let n = buf.get_u32_le() as usize;
                                // 5 bytes per vertex must still fit in the
                                // remaining payload, or the count is a lie.
                                let bytes = n
                                    .checked_mul(LABEL_BLOCK_VERTEX_LEN)
                                    .ok_or(DecodeError::BadValue("label block length overflows"))?;
                                need(&buf, bytes)?;
                                let (raw_labels, rest) = buf.split_at(4 * n);
                                let (roles, rest) = rest.split_at(n);
                                if roles.iter().any(|&r| role_name(r).is_none()) {
                                    return Err(DecodeError::BadValue("role code"));
                                }
                                let labels = raw_labels
                                    .chunks_exact(4)
                                    .map(|c| {
                                        u32::from_le_bytes(c.try_into().expect("4-byte chunk"))
                                    })
                                    .collect();
                                buf = rest;
                                Some(LabelBlock {
                                    labels,
                                    roles: roles.to_vec(),
                                })
                            }
                            _ => return Err(DecodeError::BadValue("label-block flag")),
                        };
                        Response::Query { summary, labels }
                    }
                    OP_MEMBERSHIP => {
                        need(&buf, 5)?;
                        let label = buf.get_u32_le();
                        let role = buf.get_u8();
                        if role_name(role).is_none() {
                            return Err(DecodeError::BadValue("role code"));
                        }
                        Response::Membership { label, role }
                    }
                    OP_RUN => {
                        let summary = get_summary(&mut buf)?;
                        need(&buf, 9)?;
                        let completion = buf.get_u8();
                        if completion_name(completion).is_none() {
                            return Err(DecodeError::BadValue("completion code"));
                        }
                        Response::Run {
                            summary,
                            completion,
                            blocks: buf.get_u64_le(),
                        }
                    }
                    OP_PING => {
                        need(&buf, 97)?;
                        let role = buf.get_u8();
                        if server_role_name(role).is_none() {
                            return Err(DecodeError::BadValue("server role code"));
                        }
                        Response::Ping(Health {
                            role,
                            term: buf.get_u64_le(),
                            epoch: buf.get_u64_le(),
                            watermark: buf.get_u64_le(),
                            inflight: buf.get_u32_le(),
                            queued: buf.get_u32_le(),
                            stats: ServeStats {
                                requests: buf.get_u64_le(),
                                queries: buf.get_u64_le(),
                                lookups: buf.get_u64_le(),
                                runs: buf.get_u64_le(),
                                overloaded: buf.get_u64_le(),
                                protocol_errors: buf.get_u64_le(),
                                updates: buf.get_u64_le(),
                                timeouts: buf.get_u64_le(),
                            },
                        })
                    }
                    OP_SHUTDOWN => Response::Shutdown,
                    OP_APPLY_UPDATES => {
                        need(&buf, 32)?;
                        Response::ApplyUpdates {
                            applied: buf.get_u64_le(),
                            skipped: buf.get_u64_le(),
                            seq: buf.get_u64_le(),
                            epoch: buf.get_u64_le(),
                        }
                    }
                    OP_SUBSCRIBE => {
                        need(&buf, 16)?;
                        Response::Subscribed {
                            term: buf.get_u64_le(),
                            watermark: buf.get_u64_le(),
                        }
                    }
                    OP_LOG_ENTRIES => {
                        need(&buf, 12)?;
                        let term = buf.get_u64_le();
                        let n = buf.get_u32_le() as usize;
                        let bytes = n
                            .checked_mul(LOG_ENTRY_LEN)
                            .ok_or(DecodeError::BadValue("log entry count overflows"))?;
                        need(&buf, bytes)?;
                        let mut entries = Vec::with_capacity(n);
                        for _ in 0..n {
                            let seq = buf.get_u64_le();
                            let u = buf.get_u32_le();
                            let v = buf.get_u32_le();
                            let code = buf.get_u8();
                            let w = buf.get_f64_le();
                            let Some(op) = EdgeOp::from_wire(code, w) else {
                                return Err(DecodeError::BadValue("log entry op code"));
                            };
                            entries.push(EdgeUpdate { seq, u, v, op });
                        }
                        Response::LogEntries { term, entries }
                    }
                    OP_PROMOTE => {
                        need(&buf, 24)?;
                        Response::Promoted {
                            term: buf.get_u64_le(),
                            epoch: buf.get_u64_le(),
                            watermark: buf.get_u64_le(),
                        }
                    }
                    other => return Err(DecodeError::UnknownOpcode(other)),
                }
            }
            STATUS_ERR => {
                need(&buf, 5)?;
                let code = ErrorCode::from_u8(buf.get_u8())?;
                let len = buf.get_u32_le() as usize;
                need(&buf, len)?;
                let mut raw = vec![0u8; len];
                buf.copy_to_slice(&mut raw);
                let message = String::from_utf8(raw)
                    .map_err(|_| DecodeError::BadValue("error message is not UTF-8"))?;
                Response::Error { code, message }
            }
            other => return Err(DecodeError::UnknownOpcode(other)),
        };
        finish(&buf)?;
        Ok(resp)
    }
}

/// Role wire codes, matching `anyscan_scan_common::Role`'s `Debug` names so
/// a client can reproduce the CLI's `--labels-out` format byte for byte.
pub fn role_name(code: u8) -> Option<&'static str> {
    Some(match code {
        0 => "Core",
        1 => "Border",
        2 => "Hub",
        3 => "Outlier",
        4 => "Unclassified",
        _ => return None,
    })
}

/// Completion wire codes, matching `anyscan::Completion::label`.
pub fn completion_name(code: u8) -> Option<&'static str> {
    Some(match code {
        0 => "complete",
        1 => "canceled",
        2 => "deadline_expired",
        3 => "budget_exhausted",
        4 => "suspended",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_scan_common::NOISE;

    fn roundtrip_request(req: Request) {
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Query {
            eps: 0.5,
            mu: 4,
            want_labels: true,
        });
        roundtrip_request(Request::Membership {
            vertex: 17,
            eps: 0.25,
            mu: 2,
        });
        roundtrip_request(Request::Run {
            eps: 0.75,
            mu: 8,
            deadline_ms: 250,
            max_blocks: 10,
        });
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Subscribe { watermark: 42 });
        roundtrip_request(Request::Promote);
        roundtrip_request(Request::ApplyUpdates { updates: vec![] });
        roundtrip_request(Request::ApplyUpdates {
            updates: vec![
                WireUpdate {
                    kind: UPDATE_INSERT,
                    u: 0,
                    v: 9,
                    w: 1.25,
                },
                WireUpdate {
                    kind: UPDATE_REMOVE,
                    u: 3,
                    v: 4,
                    w: 0.0,
                },
                WireUpdate {
                    kind: UPDATE_REWEIGHT,
                    u: 7,
                    v: 2,
                    w: 0.5,
                },
            ],
        });
    }

    #[test]
    fn apply_updates_rejects_bad_kind_and_lying_count() {
        let mut raw = Request::ApplyUpdates {
            updates: vec![WireUpdate {
                kind: UPDATE_INSERT,
                u: 1,
                v: 2,
                w: 1.0,
            }],
        }
        .encode();
        raw[5] = 9; // kind byte of the first update
        assert_eq!(
            Request::decode(&raw),
            Err(DecodeError::BadValue("update kind"))
        );

        let mut raw = Request::ApplyUpdates { updates: vec![] }.encode();
        raw[1] = 200; // count says 200 updates, payload has none
        assert_eq!(Request::decode(&raw), Err(DecodeError::Truncated));
    }

    #[test]
    fn responses_roundtrip() {
        let summary = QuerySummary {
            clusters: 3,
            cores: 10,
            borders: 5,
            hubs: 1,
            outliers: 2,
        };
        for resp in [
            Response::Query {
                summary,
                labels: None,
            },
            Response::Query {
                summary,
                labels: Some(LabelBlock {
                    labels: vec![0, 0, u32::MAX, 1],
                    roles: vec![0, 1, 3, 0],
                }),
            },
            Response::Membership { label: 7, role: 1 },
            Response::Run {
                summary,
                completion: 2,
                blocks: 99,
            },
            Response::Ping(Health {
                role: ROLE_REPLICA,
                term: 3,
                epoch: 9,
                watermark: 27,
                inflight: 2,
                queued: 1,
                stats: ServeStats {
                    requests: 6,
                    queries: 3,
                    lookups: 1,
                    runs: 1,
                    overloaded: 1,
                    protocol_errors: 0,
                    updates: 2,
                    timeouts: 1,
                },
            }),
            Response::Shutdown,
            Response::ApplyUpdates {
                applied: 12,
                skipped: 3,
                seq: 15,
                epoch: 4,
            },
            Response::Subscribed {
                term: 2,
                watermark: 17,
            },
            Response::LogEntries {
                term: 2,
                entries: vec![],
            },
            Response::LogEntries {
                term: 2,
                entries: vec![
                    EdgeUpdate {
                        seq: 18,
                        u: 0,
                        v: 9,
                        op: EdgeOp::Insert(1.25),
                    },
                    EdgeUpdate {
                        seq: 19,
                        u: 3,
                        v: 4,
                        op: EdgeOp::Remove,
                    },
                    EdgeUpdate {
                        seq: 23,
                        u: 7,
                        v: 2,
                        op: EdgeOp::Reweight(0.5),
                    },
                ],
            },
            Response::Promoted {
                term: 3,
                epoch: 9,
                watermark: 23,
            },
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "admission queue full".into(),
            },
            Response::Error {
                code: ErrorCode::NotPrimary,
                message: "127.0.0.1:9999".into(),
            },
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    /// The label-block layout old clients and `anyscan-loadgen` decode:
    /// status, opcode, summary, flag, `u32` count, little-endian labels,
    /// then one role byte per vertex.
    #[test]
    fn label_block_layout_is_pinned() {
        let summary = QuerySummary {
            clusters: 2,
            cores: 1,
            borders: 1,
            hubs: 0,
            outliers: 1,
        };
        let resp = Response::Query {
            summary,
            labels: Some(LabelBlock {
                labels: vec![0x0403_0201, 0, NOISE],
                roles: vec![0, 1, 3],
            }),
        };
        #[rustfmt::skip]
        let golden: &[u8] = &[
            STATUS_OK, OP_QUERY,
            2, 0, 0, 0,  1, 0, 0, 0,  1, 0, 0, 0,  0, 0, 0, 0,  1, 0, 0, 0,
            1,
            3, 0, 0, 0,
            1, 2, 3, 4,  0, 0, 0, 0,  0xff, 0xff, 0xff, 0xff,
            0, 1, 3,
        ];
        assert_eq!(resp.encode(), golden);
        assert_eq!(Response::decode(golden).unwrap(), resp);

        let bare = Response::Query {
            summary,
            labels: None,
        };
        assert_eq!(bare.encode(), [&golden[..22], &[0]].concat());
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert_eq!(Request::decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(
            Request::decode(&[0x7f]),
            Err(DecodeError::UnknownOpcode(0x7f))
        );
        // Query payload cut short.
        let mut q = Request::Query {
            eps: 0.5,
            mu: 4,
            want_labels: false,
        }
        .encode();
        q.truncate(q.len() - 1);
        assert_eq!(Request::decode(&q), Err(DecodeError::Truncated));
        // Trailing garbage after a complete layout.
        let mut p = Request::Ping.encode();
        p.push(0xaa);
        assert_eq!(Request::decode(&p), Err(DecodeError::TrailingBytes(1)));
        // A label block whose count exceeds the payload.
        let resp = Response::Query {
            summary: QuerySummary::default(),
            labels: Some(LabelBlock {
                labels: vec![1, 2],
                roles: vec![0, 0],
            }),
        };
        let mut raw = resp.encode();
        // Bump the count field (status, op, 20-byte summary, flag => offset 23).
        raw[23] = 200;
        assert_eq!(Response::decode(&raw), Err(DecodeError::Truncated));
    }

    #[test]
    fn replication_frames_reject_malformed_payloads() {
        // Subscribe cut short.
        let mut raw = Request::Subscribe { watermark: 7 }.encode();
        raw.truncate(raw.len() - 1);
        assert_eq!(Request::decode(&raw), Err(DecodeError::Truncated));
        // Trailing bytes after Promote.
        let mut raw = Request::Promote.encode();
        raw.push(0x55);
        assert_eq!(Request::decode(&raw), Err(DecodeError::TrailingBytes(1)));
        // LogEntries whose count exceeds the payload.
        let mut raw = Response::LogEntries {
            term: 1,
            entries: vec![],
        }
        .encode();
        raw[10] = 77; // count field (status, op, 8-byte term => offset 10)
        assert_eq!(Response::decode(&raw), Err(DecodeError::Truncated));
        // LogEntries with an undecodable op code.
        let mut raw = Response::LogEntries {
            term: 1,
            entries: vec![EdgeUpdate {
                seq: 1,
                u: 0,
                v: 1,
                op: EdgeOp::Insert(1.0),
            }],
        }
        .encode();
        raw[30] = 9; // op byte of the first entry (14 header + seq + u + v)
        assert_eq!(
            Response::decode(&raw),
            Err(DecodeError::BadValue("log entry op code"))
        );
        // Ping with an unknown role byte.
        let mut raw = Response::Ping(Health::default()).encode();
        raw[2] = 7;
        assert_eq!(
            Response::decode(&raw),
            Err(DecodeError::BadValue("server role code"))
        );
    }

    #[test]
    fn frames_roundtrip_and_enforce_the_ceiling() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());

        // Oversized length prefix: rejected before allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = std::io::Cursor::new(wire);
        match read_frame(&mut r, 1024) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }

        // EOF mid-header and mid-payload are both Truncated.
        let mut r = std::io::Cursor::new(vec![1u8, 0]);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Truncated { .. })
        ));
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        wire.truncate(wire.len() - 2);
        let mut r = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Truncated { needed: 6, got: 4 })
        ));
    }
}
