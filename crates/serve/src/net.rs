//! Framed TCP protocol boundary in front of a [`Server`] — the
//! network admission edge for multi-tenant serving.
//!
//! The vendored registry has no HTTP stack, so the wire format is a
//! deliberately small std-only protocol: every message is one **frame**,
//! a little-endian `u32` byte length followed by that many payload
//! bytes (capped at [`MAX_FRAME`]). A client sends one request frame
//! and reads one reply frame; requests on one connection are served in
//! order. All queries still flow through the in-process [`Server`] —
//! admission control, token buckets, weighted-fair batching, deadlines,
//! and telemetry are identical for local and remote callers.
//!
//! ## Request frames
//!
//! ```text
//! [0x51 'Q'][tenant u32][k u32][timeout_us u64; u64::MAX = none]
//! [metric u8: 0 euclid | 1 manhattan | 2 cosine | 3 hamming]
//! [count u32][count × f32 (float metrics) | count × u32 (hamming)]
//!
//! [0x49 'I'][uid u32][count u32][count × f32]     (store insert)
//! [0x44 'D'][uid u32]                             (store delete)
//! ```
//!
//! A query frame's `k` passes the same admission as an in-process
//! request: `0` or anything above [`crate::MAX_K`] is answered with a
//! typed `BadRequest`.
//!
//! Write frames target a [`Server::start_store`] or
//! [`Server::start_sharded_store`] backend; against an immutable
//! backend they answer with a typed `BadRequest`. A write reply is
//! either any error status below or status `10` carrying the routed
//! [`ssam_store::ShardWriteAck`] — one layout for every store backend
//! (a single-module store acks shard 0, one replica, not failed over):
//!
//! ```text
//! [10][seq u64][sealed u8][wal_len u64][shard u32][replicas_acked u32][failed_over u8]
//! ```
//!
//! Status `9` is unassigned.
//!
//! ## Reply frame
//!
//! One status byte then status-specific fields. `0` is success:
//! coverage `f64`, batch size `u32`, queue/service/device seconds and
//! energy (`f64` each), neighbor count `u32`, then `(id u32, dist f32)`
//! pairs. Every [`ServeError`] variant has its own status byte and
//! carries its fields (capacity, missed-by, coverage, tenant, message),
//! so remote callers see the same typed admission outcomes as local
//! ones — decoded into [`RemoteError`], which mirrors [`ServeError`]
//! with owned strings (`BadRequest`/`Device` payloads cross the wire as
//! text).
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] stops accepting, lets every in-flight
//! request finish and its reply flush (graceful drain), closes idle
//! connections, then drains the inner [`Server`]'s queue and returns
//! its final [`ServerStats`]. Dropping the handle does the same.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ssam_knn::topk::Neighbor;
use ssam_store::ShardWriteAck;

use crate::{
    OwnedQuery, Request, Response, ServeError, Server, ServerHandle, ServerStats, TenantId,
};

/// Maximum frame payload size (16 MiB): larger length prefixes are a
/// protocol error, bounding per-connection memory.
pub const MAX_FRAME: usize = 1 << 24;

/// How often blocked connection reads wake to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

const MSG_QUERY: u8 = 0x51; // 'Q'
const MSG_INSERT: u8 = 0x49; // 'I'
const MSG_DELETE: u8 = 0x44; // 'D'

const ST_OK: u8 = 0;
const ST_OVERLOADED: u8 = 1;
const ST_RATE_LIMITED: u8 = 2;
const ST_DEADLINE: u8 = 3;
const ST_SHUTTING_DOWN: u8 = 4;
const ST_BAD_REQUEST: u8 = 5;
const ST_DEVICE: u8 = 6;
const ST_WORKER_PANICKED: u8 = 7;
const ST_DEGRADED: u8 = 8;
const ST_WRITE_OK: u8 = 10;
const ST_SHARD_UNAVAILABLE: u8 = 11;

const METRIC_EUCLIDEAN: u8 = 0;
const METRIC_MANHATTAN: u8 = 1;
const METRIC_COSINE: u8 = 2;
const METRIC_HAMMING: u8 = 3;

/// A [`ServeError`] as reconstructed on the client side of the wire.
/// Structurally identical except that `BadRequest` and `Device` carry
/// owned strings (the server renders them into the frame; `&'static
/// str` and the simulator's structured error cannot cross a byte
/// boundary losslessly).
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteError {
    /// Wire image of [`ServeError::Overloaded`].
    Overloaded {
        /// Queue capacity that was exceeded.
        capacity: usize,
    },
    /// Wire image of [`ServeError::RateLimited`].
    RateLimited {
        /// The throttled tenant.
        tenant: TenantId,
    },
    /// Wire image of [`ServeError::DeadlineExceeded`].
    DeadlineExceeded {
        /// How far past the deadline the rejection happened.
        missed_by: Duration,
    },
    /// Wire image of [`ServeError::ShuttingDown`].
    ShuttingDown,
    /// Wire image of [`ServeError::BadRequest`].
    BadRequest(String),
    /// Wire image of [`ServeError::Device`], rendered to text.
    Device(String),
    /// Wire image of [`ServeError::WorkerPanicked`].
    WorkerPanicked,
    /// Wire image of [`ServeError::Degraded`].
    Degraded {
        /// Coverage of the rejected attempt.
        coverage: f64,
    },
    /// Wire image of [`ServeError::ShardUnavailable`].
    ShardUnavailable {
        /// The shard whose whole replica set is down.
        shard: usize,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Overloaded { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            RemoteError::RateLimited { tenant } => {
                write!(f, "{tenant} exceeded its admission rate")
            }
            RemoteError::DeadlineExceeded { missed_by } => {
                write!(f, "deadline exceeded (missed by {missed_by:?})")
            }
            RemoteError::ShuttingDown => write!(f, "server is shutting down"),
            RemoteError::BadRequest(why) => write!(f, "bad request: {why}"),
            RemoteError::Device(e) => write!(f, "device fault: {e}"),
            RemoteError::WorkerPanicked => write!(f, "worker panicked executing the batch"),
            RemoteError::Degraded { coverage } => {
                write!(f, "result degraded below required coverage ({coverage:.3})")
            }
            RemoteError::ShardUnavailable { shard } => {
                write!(f, "shard {shard}: every replica is down, write refused")
            }
        }
    }
}

impl std::error::Error for RemoteError {}

/// What a [`NetClient`] call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The peer violated the frame protocol.
    Protocol(String),
    /// The server answered with a typed serving error.
    Remote(RemoteError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(why) => write!(f, "protocol violation: {why}"),
            ClientError::Remote(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A successfully served query, as seen across the wire. The flattened
/// image of [`Response`] (the device account is reduced to its seconds
/// and energy).
#[derive(Debug, Clone, PartialEq)]
pub struct NetResponse {
    /// Global top-k, best first.
    pub neighbors: Vec<Neighbor>,
    /// Fraction of candidate vectors actually scanned.
    pub coverage: f64,
    /// Size of the device batch this request was coalesced into.
    pub batch_size: usize,
    /// Host wall-clock from admission to batch formation.
    pub queue_seconds: f64,
    /// Host wall-clock executing the device batch.
    pub service_seconds: f64,
    /// Modeled device seconds for this request alone.
    pub device_seconds: f64,
    /// Modeled device energy, millijoules.
    pub energy_mj: f64,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(format!(
                "frame truncated: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.buf.len()
            ));
        };
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32` element count, then that many `width`-byte
    /// elements. The count is checked against the bytes left *before*
    /// anything is allocated, so a frame can never reserve more memory
    /// than it carries.
    fn array<T>(
        &mut self,
        width: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let count = self.u32()? as usize;
        let left = self.buf.len() - self.at;
        if count > left / width {
            return Err(format!(
                "frame claims {count} elements of {width} bytes, {left} bytes left"
            ));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(read(self)?);
        }
        Ok(out)
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "non-UTF-8 message".to_string())
    }

    fn done(&self) -> Result<(), String> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.buf.len() - self.at))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes one request as a frame payload (without the length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + req.query.payload_bytes());
    out.push(MSG_QUERY);
    out.extend_from_slice(&req.tenant.0.to_le_bytes());
    out.extend_from_slice(&(req.k as u32).to_le_bytes());
    let timeout_us = req.timeout.map_or(u64::MAX, |t| {
        t.as_micros().min(u128::from(u64::MAX - 1)) as u64
    });
    out.extend_from_slice(&timeout_us.to_le_bytes());
    match &req.query {
        OwnedQuery::Euclidean(q) | OwnedQuery::Manhattan(q) | OwnedQuery::Cosine(q) => {
            out.push(match req.query {
                OwnedQuery::Euclidean(_) => METRIC_EUCLIDEAN,
                OwnedQuery::Manhattan(_) => METRIC_MANHATTAN,
                _ => METRIC_COSINE,
            });
            out.extend_from_slice(&(q.len() as u32).to_le_bytes());
            for &x in q {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        OwnedQuery::Hamming(q) => {
            out.push(METRIC_HAMMING);
            out.extend_from_slice(&(q.len() as u32).to_le_bytes());
            for &w in q {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
    out
}

impl OwnedQuery {
    fn payload_bytes(&self) -> usize {
        match self {
            OwnedQuery::Euclidean(q) | OwnedQuery::Manhattan(q) | OwnedQuery::Cosine(q) => {
                q.len() * 4
            }
            OwnedQuery::Hamming(q) => q.len() * 4,
        }
    }
}

/// Decodes one request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let mut c = Cursor::new(payload);
    if c.u8()? != MSG_QUERY {
        return Err("unknown message type".into());
    }
    let tenant = TenantId(c.u32()?);
    let k = c.u32()? as usize;
    let timeout_us = c.u64()?;
    let query = match c.u8()? {
        METRIC_EUCLIDEAN => OwnedQuery::Euclidean(c.array(4, Cursor::f32)?),
        METRIC_MANHATTAN => OwnedQuery::Manhattan(c.array(4, Cursor::f32)?),
        METRIC_COSINE => OwnedQuery::Cosine(c.array(4, Cursor::f32)?),
        METRIC_HAMMING => OwnedQuery::Hamming(c.array(4, Cursor::u32)?),
        other => return Err(format!("unknown metric code {other}")),
    };
    c.done()?;
    let mut req = Request::new(query, k).with_tenant(tenant);
    if timeout_us != u64::MAX {
        req = req.with_timeout(Duration::from_micros(timeout_us));
    }
    Ok(req)
}

/// Encodes one serve outcome as a reply frame payload. Every
/// [`ServeError`] variant has a wire image.
pub fn encode_reply(reply: &Result<Response, ServeError>) -> Vec<u8> {
    let mut out = Vec::new();
    match reply {
        Ok(r) => {
            out.push(ST_OK);
            out.extend_from_slice(&r.coverage.to_le_bytes());
            out.extend_from_slice(&(r.batch_size as u32).to_le_bytes());
            out.extend_from_slice(&r.queue_seconds.to_le_bytes());
            out.extend_from_slice(&r.service_seconds.to_le_bytes());
            out.extend_from_slice(&r.account.device_seconds().to_le_bytes());
            out.extend_from_slice(&r.account.energy_mj().to_le_bytes());
            out.extend_from_slice(&(r.neighbors.len() as u32).to_le_bytes());
            for n in &r.neighbors {
                out.extend_from_slice(&n.id.to_le_bytes());
                out.extend_from_slice(&n.dist.to_le_bytes());
            }
        }
        Err(e) => put_error(&mut out, e),
    }
    out
}

/// Appends one [`ServeError`]'s status byte and fields — shared by the
/// query and write reply encodings so both surface identical typed
/// errors.
fn put_error(out: &mut Vec<u8>, e: &ServeError) {
    match e {
        ServeError::Overloaded { capacity } => {
            out.push(ST_OVERLOADED);
            out.extend_from_slice(&(*capacity as u64).to_le_bytes());
        }
        ServeError::RateLimited { tenant } => {
            out.push(ST_RATE_LIMITED);
            out.extend_from_slice(&tenant.0.to_le_bytes());
        }
        ServeError::DeadlineExceeded { missed_by } => {
            out.push(ST_DEADLINE);
            out.extend_from_slice(&(missed_by.as_micros() as u64).to_le_bytes());
        }
        ServeError::ShuttingDown => out.push(ST_SHUTTING_DOWN),
        ServeError::BadRequest(why) => {
            out.push(ST_BAD_REQUEST);
            put_string(out, why);
        }
        ServeError::Device(e) => {
            out.push(ST_DEVICE);
            put_string(out, &e.to_string());
        }
        ServeError::WorkerPanicked => out.push(ST_WORKER_PANICKED),
        ServeError::Degraded { coverage } => {
            out.push(ST_DEGRADED);
            out.extend_from_slice(&coverage.to_le_bytes());
        }
        ServeError::ShardUnavailable { shard } => {
            out.push(ST_SHARD_UNAVAILABLE);
            out.extend_from_slice(&(*shard as u32).to_le_bytes());
        }
    }
}

/// Decodes the error whose status byte was already consumed.
fn take_error(status: u8, c: &mut Cursor<'_>) -> Result<RemoteError, String> {
    Ok(match status {
        ST_OVERLOADED => RemoteError::Overloaded {
            capacity: c.u64()? as usize,
        },
        ST_RATE_LIMITED => RemoteError::RateLimited {
            tenant: TenantId(c.u32()?),
        },
        ST_DEADLINE => RemoteError::DeadlineExceeded {
            missed_by: Duration::from_micros(c.u64()?),
        },
        ST_SHUTTING_DOWN => RemoteError::ShuttingDown,
        ST_BAD_REQUEST => RemoteError::BadRequest(c.string()?),
        ST_DEVICE => RemoteError::Device(c.string()?),
        ST_WORKER_PANICKED => RemoteError::WorkerPanicked,
        ST_DEGRADED => RemoteError::Degraded { coverage: c.f64()? },
        ST_SHARD_UNAVAILABLE => RemoteError::ShardUnavailable {
            shard: c.u32()? as usize,
        },
        other => return Err(format!("unknown reply status {other}")),
    })
}

/// Decodes one reply frame payload into the client-side outcome.
pub fn decode_reply(payload: &[u8]) -> Result<Result<NetResponse, RemoteError>, String> {
    let mut c = Cursor::new(payload);
    let status = c.u8()?;
    let reply = match status {
        ST_OK => {
            let coverage = c.f64()?;
            let batch_size = c.u32()? as usize;
            let queue_seconds = c.f64()?;
            let service_seconds = c.f64()?;
            let device_seconds = c.f64()?;
            let energy_mj = c.f64()?;
            let neighbors = c.array(8, |c| {
                Ok(Neighbor {
                    id: c.u32()?,
                    dist: c.f32()?,
                })
            })?;
            Ok(NetResponse {
                neighbors,
                coverage,
                batch_size,
                queue_seconds,
                service_seconds,
                device_seconds,
                energy_mj,
            })
        }
        other => Err(take_error(other, &mut c)?),
    };
    c.done()?;
    Ok(reply)
}

/// One decoded store-write request.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Upsert `uid` with the given vector.
    Insert {
        /// Caller-chosen vector id.
        uid: u32,
        /// The raw vector.
        vector: Vec<f32>,
    },
    /// Tombstone `uid`.
    Delete {
        /// Caller-chosen vector id.
        uid: u32,
    },
}

/// Encodes one insert as a frame payload.
pub fn encode_insert(uid: u32, vector: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + vector.len() * 4);
    out.push(MSG_INSERT);
    out.extend_from_slice(&uid.to_le_bytes());
    out.extend_from_slice(&(vector.len() as u32).to_le_bytes());
    for &x in vector {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Encodes one delete as a frame payload.
pub fn encode_delete(uid: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.push(MSG_DELETE);
    out.extend_from_slice(&uid.to_le_bytes());
    out
}

/// Decodes one write frame payload (insert or delete).
pub fn decode_write(payload: &[u8]) -> Result<WriteOp, String> {
    let mut c = Cursor::new(payload);
    let op = match c.u8()? {
        MSG_INSERT => WriteOp::Insert {
            uid: c.u32()?,
            vector: c.array(4, Cursor::f32)?,
        },
        MSG_DELETE => WriteOp::Delete { uid: c.u32()? },
        _ => return Err("unknown message type".into()),
    };
    c.done()?;
    Ok(op)
}

/// Encodes one store-write outcome as a reply frame payload: status
/// `10` carrying the routed [`ShardWriteAck`], or an error status.
pub fn encode_write_reply(reply: &Result<ShardWriteAck, ServeError>) -> Vec<u8> {
    let mut out = Vec::with_capacity(27);
    match reply {
        Ok(ack) => {
            out.push(ST_WRITE_OK);
            out.extend_from_slice(&ack.seq.to_le_bytes());
            out.push(u8::from(ack.sealed));
            out.extend_from_slice(&ack.wal_len.to_le_bytes());
            out.extend_from_slice(&(ack.shard as u32).to_le_bytes());
            out.extend_from_slice(&(ack.replicas_acked as u32).to_le_bytes());
            out.push(u8::from(ack.failed_over));
        }
        Err(e) => put_error(&mut out, e),
    }
    out
}

fn take_bool(c: &mut Cursor<'_>, what: &str) -> Result<bool, String> {
    match c.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("non-boolean {what} byte {other}")),
    }
}

/// Decodes one store-write reply frame payload into the client-side
/// outcome.
pub fn decode_write_reply(payload: &[u8]) -> Result<Result<ShardWriteAck, RemoteError>, String> {
    let mut c = Cursor::new(payload);
    let reply = match c.u8()? {
        ST_WRITE_OK => Ok(ShardWriteAck {
            seq: c.u64()?,
            sealed: take_bool(&mut c, "sealed")?,
            wal_len: c.u64()?,
            shard: c.u32()? as usize,
            replicas_acked: c.u32()? as usize,
            failed_over: take_bool(&mut c, "failed_over")?,
        }),
        other => Err(take_error(other, &mut c)?),
    };
    c.done()?;
    Ok(reply)
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    stream.write_all(&(payload.len() as u32).to_le_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Reads exactly `buf.len()` bytes, tolerating read-timeout wakeups.
/// Returns `false` if the connection closed cleanly *before the first
/// byte*; mid-frame EOF is an error. `None` as `stop` reads without a
/// shutdown poll (client side).
fn read_exact_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: Option<&AtomicBool>,
) -> io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // A drain-aware poll point: bail only while no frame is
                // in progress, so an in-flight request still completes.
                if got == 0 {
                    if let Some(stop) = stop {
                        if stop.load(Ordering::Relaxed) {
                            return Ok(false);
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn read_frame(stream: &mut TcpStream, stop: Option<&AtomicBool>) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    if !read_exact_polling(stream, &mut header, stop)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    // Header already arrived, so the peer is mid-send: finish the frame
    // regardless of the shutdown flag (graceful drain).
    if !read_exact_polling(stream, &mut payload, None)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed between header and payload",
        ));
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A [`Server`] exposed over the framed TCP protocol. Bind with
/// [`NetServer::bind`]; stop with [`NetServer::shutdown`] (or drop).
pub struct NetServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    server: Option<Server>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port —
    /// [`NetServer::local_addr`] reports the bound address) and starts
    /// accepting connections into `server`.
    pub fn bind(addr: impl ToSocketAddrs, server: Server) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = server.handle();
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("ssam-net-accept".into())
                .spawn(move || accept_loop(&listener, &handle, &stop))?
        };
        Ok(NetServer {
            local,
            stop,
            accept: Some(accept),
            server: Some(server),
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// A handle for in-process submission alongside the network edge.
    pub fn handle(&self) -> ServerHandle {
        self.server.as_ref().expect("server live").handle()
    }

    /// Snapshot of the inner server's lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.server.as_ref().expect("server live").stats()
    }

    /// Graceful shutdown: stops accepting, drains in-flight requests on
    /// every connection (their replies are flushed before the sockets
    /// close), then drains and joins the inner [`Server`], returning
    /// its final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop_net();
        self.server.take().expect("server live").shutdown()
    }

    fn stop_net(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local);
        if let Some(accept) = self.accept.take() {
            if let Ok(conns) = accept.join() {
                for c in conns {
                    let _ = c.join();
                }
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_net();
        // Dropping the inner Server performs its own drain + join.
        self.server.take();
    }
}

fn accept_loop(
    listener: &TcpListener,
    handle: &ServerHandle,
    stop: &Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let handle = handle.clone();
        let stop = Arc::clone(stop);
        if let Ok(join) = std::thread::Builder::new()
            .name("ssam-net-conn".into())
            .spawn(move || connection_loop(stream, &handle, &stop))
        {
            conns.push(join);
        }
        // Opportunistically reap finished connections so a long-lived
        // listener does not accumulate unjoined threads.
        conns.retain(|c| !c.is_finished());
    }
    conns
}

fn connection_loop(mut stream: TcpStream, handle: &ServerHandle, stop: &AtomicBool) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream, Some(stop)) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return, // clean close, drain, or transport error
        };
        let frame = match payload.first() {
            Some(&MSG_INSERT) | Some(&MSG_DELETE) => {
                let reply = match decode_write(&payload) {
                    Ok(WriteOp::Insert { uid, vector }) => handle.insert(uid, &vector),
                    Ok(WriteOp::Delete { uid }) => handle.delete(uid),
                    Err(_) => Err(ServeError::BadRequest("malformed write frame")),
                };
                encode_write_reply(&reply)
            }
            _ => {
                let reply = match decode_request(&payload) {
                    Ok(req) => handle.query(req),
                    Err(_) => Err(ServeError::BadRequest("malformed request frame")),
                };
                encode_reply(&reply)
            }
        };
        if write_frame(&mut stream, &frame).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Blocking client for the framed TCP protocol: one request frame out,
/// one reply frame back, per call. Cheap to create; open several for
/// concurrency.
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects to a [`NetServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient { stream })
    }

    /// Sends one request and blocks for its reply. Serving errors come
    /// back as [`ClientError::Remote`] with the same typed variants a
    /// local caller would see.
    pub fn query(&mut self, req: &Request) -> Result<NetResponse, ClientError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let payload = read_frame(&mut self.stream, None)?
            .ok_or_else(|| ClientError::Protocol("server closed before replying".into()))?;
        match decode_reply(&payload) {
            Ok(Ok(resp)) => Ok(resp),
            Ok(Err(remote)) => Err(ClientError::Remote(remote)),
            Err(why) => Err(ClientError::Protocol(why)),
        }
    }

    /// Inserts (or updates) `uid` in the server's mutable store,
    /// returning the routed [`ShardWriteAck`] (shard 0, one replica, from
    /// a single-module store). Against an immutable backend this comes
    /// back as a typed [`RemoteError::BadRequest`].
    pub fn insert(&mut self, uid: u32, vector: &[f32]) -> Result<ShardWriteAck, ClientError> {
        self.write_op(&encode_insert(uid, vector))
    }

    /// Deletes `uid` from the server's mutable store.
    pub fn delete(&mut self, uid: u32) -> Result<ShardWriteAck, ClientError> {
        self.write_op(&encode_delete(uid))
    }

    fn write_op(&mut self, frame: &[u8]) -> Result<ShardWriteAck, ClientError> {
        write_frame(&mut self.stream, frame)?;
        let payload = read_frame(&mut self.stream, None)?
            .ok_or_else(|| ClientError::Protocol("server closed before replying".into()))?;
        match decode_write_reply(&payload) {
            Ok(Ok(ack)) => Ok(ack),
            Ok(Err(remote)) => Err(ClientError::Remote(remote)),
            Err(why) => Err(ClientError::Protocol(why)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_every_metric() {
        let cases = [
            OwnedQuery::Euclidean(vec![1.5, -2.25, 0.0]),
            OwnedQuery::Manhattan(vec![0.125]),
            OwnedQuery::Cosine(vec![3.0, 4.0]),
            OwnedQuery::Hamming(vec![0xDEAD_BEEF, 0x0123_4567]),
        ];
        for query in cases {
            let req = Request::new(query, 9)
                .with_tenant(TenantId(42))
                .with_timeout(Duration::from_micros(1_234_567));
            let decoded = decode_request(&encode_request(&req)).expect("decodes");
            assert_eq!(decoded, req);
        }
        // No timeout must survive as no timeout (not a huge one).
        let req = Request::new(OwnedQuery::Euclidean(vec![1.0]), 1);
        let decoded = decode_request(&encode_request(&req)).expect("decodes");
        assert_eq!(decoded.timeout, None);
    }

    #[test]
    fn reply_round_trips_every_error_variant() {
        use ssam_core::sim::pu::SimError;
        let cases: Vec<(ServeError, RemoteError)> = vec![
            (
                ServeError::Overloaded { capacity: 7 },
                RemoteError::Overloaded { capacity: 7 },
            ),
            (
                ServeError::RateLimited {
                    tenant: TenantId(3),
                },
                RemoteError::RateLimited {
                    tenant: TenantId(3),
                },
            ),
            (
                ServeError::DeadlineExceeded {
                    missed_by: Duration::from_micros(250),
                },
                RemoteError::DeadlineExceeded {
                    missed_by: Duration::from_micros(250),
                },
            ),
            (ServeError::ShuttingDown, RemoteError::ShuttingDown),
            (
                ServeError::BadRequest("k must be positive"),
                RemoteError::BadRequest("k must be positive".into()),
            ),
            (
                ServeError::Device(SimError::InstructionLimit { limit: 99 }),
                RemoteError::Device(SimError::InstructionLimit { limit: 99 }.to_string()),
            ),
            (ServeError::WorkerPanicked, RemoteError::WorkerPanicked),
            (
                ServeError::Degraded { coverage: 0.75 },
                RemoteError::Degraded { coverage: 0.75 },
            ),
            (
                ServeError::ShardUnavailable { shard: 3 },
                RemoteError::ShardUnavailable { shard: 3 },
            ),
        ];
        for (serve, expect) in cases {
            let frame = encode_reply(&Err(serve.clone()));
            let decoded = decode_reply(&frame).expect("decodes");
            assert_eq!(decoded, Err(expect), "variant {serve:?}");
        }
    }

    #[test]
    fn write_frames_round_trip() {
        let ins = decode_write(&encode_insert(17, &[0.5, -1.5])).expect("decodes");
        assert_eq!(
            ins,
            WriteOp::Insert {
                uid: 17,
                vector: vec![0.5, -1.5],
            }
        );
        let del = decode_write(&encode_delete(99)).expect("decodes");
        assert_eq!(del, WriteOp::Delete { uid: 99 });
    }

    #[test]
    fn write_replies_round_trip_ack_and_errors() {
        let ack = ShardWriteAck {
            shard: 0,
            seq: 41,
            sealed: true,
            wal_len: 12_345,
            replicas_acked: 1,
            failed_over: false,
        };
        assert_eq!(
            decode_write_reply(&encode_write_reply(&Ok(ack))).expect("decodes"),
            Ok(ack)
        );
        let err = ServeError::BadRequest("server has no mutable store backend");
        assert_eq!(
            decode_write_reply(&encode_write_reply(&Err(err))).expect("decodes"),
            Err(RemoteError::BadRequest(
                "server has no mutable store backend".into()
            ))
        );
        // A write reply with a mangled sealed byte is a protocol error.
        let mut frame = encode_write_reply(&Ok(ack));
        frame[9] = 7;
        assert!(decode_write_reply(&frame).is_err());
    }

    #[test]
    fn sharded_write_replies_round_trip() {
        let ack = ShardWriteAck {
            shard: 5,
            seq: 77,
            sealed: false,
            wal_len: 4_096,
            replicas_acked: 2,
            failed_over: true,
        };
        // Every routed field round-trips.
        let frame = encode_write_reply(&Ok(ack));
        assert_eq!(decode_write_reply(&frame).expect("decodes"), Ok(ack));
        // Typed refusal crosses the wire.
        let refused = encode_write_reply(&Err(ServeError::ShardUnavailable { shard: 5 }));
        assert_eq!(
            decode_write_reply(&refused).expect("decodes"),
            Err(RemoteError::ShardUnavailable { shard: 5 })
        );
    }

    /// `frame` with its trailing `u32` element count replaced by `count`.
    fn claiming(mut frame: Vec<u8>, count: u32) -> Vec<u8> {
        let at = frame.len() - 4;
        frame[at..].copy_from_slice(&count.to_le_bytes());
        frame
    }

    #[test]
    fn malformed_frames_are_typed_errors_not_panics() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0xFF]).is_err());
        assert!(decode_reply(&[250]).is_err());
        // Truncated query payload.
        let mut frame = encode_request(&Request::new(OwnedQuery::Euclidean(vec![1.0, 2.0]), 3));
        frame.truncate(frame.len() - 2);
        assert!(decode_request(&frame).is_err());
        // Trailing garbage.
        let mut frame = encode_request(&Request::new(OwnedQuery::Euclidean(vec![1.0]), 3));
        frame.push(0);
        assert!(decode_request(&frame).is_err());

        // Element counts the frame cannot hold are refused before any
        // allocation sized by them: a 22-byte query frame claiming 2^22
        // floats, a 9-byte insert claiming as many, a 49-byte reply
        // claiming 2^21 neighbors.
        let over = (MAX_FRAME / 4) as u32;
        let query = claiming(
            encode_request(&Request::new(OwnedQuery::Euclidean(Vec::new()), 3)),
            over,
        );
        assert_eq!(query.len(), 22);
        let insert = claiming(encode_insert(7, &[]), over);
        assert_eq!(insert.len(), 9);
        let mut reply = vec![ST_OK];
        reply.extend_from_slice(&[0; 48]);
        let reply = claiming(reply, (MAX_FRAME / 8) as u32);
        assert_eq!(reply.len(), 49);
        for err in [
            decode_request(&query).map(drop),
            decode_write(&insert).map(drop),
            decode_reply(&reply).map(drop),
        ] {
            assert!(err.expect_err("over-claiming frame").contains("claims"));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, bare and behind every message type and a
        /// low status byte (so decoding gets past the first check),
        /// decode to a value or a typed error — never a panic.
        #[test]
        fn decoders_never_panic_on_arbitrary_bytes(
            lead in 0u8..16,
            bytes in proptest::collection::vec(0u8..=255, 0..96),
        ) {
            let mut frames = vec![bytes.clone()];
            for first in [lead, MSG_QUERY, MSG_INSERT, MSG_DELETE] {
                let mut frame = vec![first];
                frame.extend_from_slice(&bytes);
                frames.push(frame);
            }
            for frame in &frames {
                let _ = decode_request(frame);
                let _ = decode_write(frame);
                let _ = decode_reply(frame);
                let _ = decode_write_reply(frame);
            }
        }
    }
}
