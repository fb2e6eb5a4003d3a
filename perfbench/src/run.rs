//! Setting up the server under test and driving its two phases: a
//! paced open loop timed from each op's scheduled send, and a closed
//! loop at saturation.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Builder;
use std::time::{Duration, Instant};

use ssam_core::device::SsamDevice;
use ssam_core::telemetry::Telemetry;
use ssam_knn::Neighbor;
use ssam_serve::net::{NetClient, NetServer};
use ssam_serve::{
    DeviceAccount, OwnedQuery, Request, Response, ServeError, Server, ServerHandle, ServerStats,
    Ticket,
};
use ssam_store::{Store, StoreStats};

use crate::cpu::{server_cpu_ns, thread_cpu_ns};
use crate::inputs::{Arrival, Inputs, Op};
use crate::oracle::Checker;
use crate::spec::{device_config, serve_config, store_config, Spec, K};
use crate::trace::{request_span, SpanLog};

/// Head start between building a paced schedule's epoch and its first
/// possible arrival.
const LEAD: Duration = Duration::from_millis(2);

/// How long a paced read generator sleeps between polls of its
/// outstanding tickets: the resolution of its reply timestamps.
const POLL: Duration = Duration::from_micros(50);

/// The server under test plus the telemetry sink its devices report to.
pub struct Stand {
    backend: Backend,
    /// Sink every served batch is verified into.
    pub sink: Telemetry,
}

enum Backend {
    Local(Server),
    Tcp {
        net: NetServer,
        clients: Vec<NetClient>,
    },
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The read every set-up ends with: query 0.
fn first_read(inputs: &Inputs) -> Request {
    Request::new(OwnedQuery::Euclidean(inputs.query(0).to_vec()), K)
}

impl Stand {
    /// Builds the workload's server from vectors already in memory and
    /// waits for its first reply. Returns the stand and the seconds that
    /// took: loading, kernel build, worker spawn, TCP bind and connect,
    /// the store's initial ingest with its seals and compactions
    /// drained, and the first request.
    pub fn set_up(spec: &Spec, inputs: &Inputs, checker: &Checker) -> Result<(Stand, f64), String> {
        let t0 = Instant::now();
        let sink = Telemetry::new();
        let server = if spec.store.is_some() {
            let mut store = Store::create(store_config());
            store.attach_telemetry(&sink);
            for (uid, v) in inputs.train.iter() {
                store
                    .insert(uid, v)
                    .map_err(|e| format!("initial insert {uid}: {e}"))?;
            }
            while store.compact_step() {}
            Server::start_store(store, serve_config())
        } else {
            let mut device = SsamDevice::new(device_config());
            device.load_vectors(&inputs.train);
            device.attach_telemetry(&sink);
            Server::start(device, serve_config())
        };
        let mut stand = if spec.tcp {
            let net = NetServer::bind("127.0.0.1:0", server).map_err(|e| format!("bind: {e}"))?;
            let clients = (0..spec.streams)
                .map(|_| NetClient::connect(net.local_addr()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("connect: {e}"))?;
            Stand {
                backend: Backend::Tcp { net, clients },
                sink,
            }
        } else {
            Stand {
                backend: Backend::Local(server),
                sink,
            }
        };
        let neighbors = match &mut stand.backend {
            Backend::Local(server) => {
                server
                    .handle()
                    .query(first_read(inputs))
                    .map_err(|e| format!("first read: {e}"))?
                    .neighbors
            }
            Backend::Tcp { clients, .. } => {
                clients[0]
                    .query(&first_read(inputs))
                    .map_err(|e| format!("first read: {e}"))?
                    .neighbors
            }
        };
        let took = t0.elapsed().as_secs_f64();
        checker.check(0, &neighbors)?;
        Ok((stand, took))
    }

    fn server(&self) -> Option<&Server> {
        match &self.backend {
            Backend::Local(s) => Some(s),
            Backend::Tcp { .. } => None,
        }
    }

    /// The mutable store, on the store workload.
    pub fn store(&self) -> Option<Arc<Mutex<Store>>> {
        self.server().and_then(Server::store)
    }

    /// Store lifecycle counters, on the store workload.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store().map(|s| lock(&s).stats())
    }

    /// The server's lifetime counters.
    pub fn stats(&self) -> ServerStats {
        match &self.backend {
            Backend::Local(s) => s.stats(),
            Backend::Tcp { net, .. } => net.stats(),
        }
    }

    /// Closes the clients, drains and joins every server thread.
    pub fn shut_down(self) {
        match self.backend {
            Backend::Local(s) => {
                s.shutdown();
            }
            Backend::Tcp { net, clients } => {
                drop(clients);
                net.shutdown();
            }
        }
    }

    /// Runs the paced phase over the inputs' schedule.
    pub fn paced(&mut self, ctx: &Ctx<'_>, tag: u64) -> (Phase, Vec<SpanLog>) {
        match &mut self.backend {
            Backend::Tcp { clients, .. } => paced_tcp(clients, ctx, tag),
            Backend::Local(server) => paced_local(&server.handle(), server.store(), ctx, tag),
        }
    }

    /// Runs the closed loop over the first `ops` ops of the saturation
    /// sequence. A fixed amount of work, rather than a fixed time, puts
    /// the store through the same seal and compaction cycles on every
    /// run; the phase's wall time and server CPU are measured around it.
    pub fn saturate(&mut self, ctx: &Ctx<'_>, tag: u64, ops: u64) -> (Phase, Vec<SpanLog>) {
        let cpu0 = server_cpu_ns();
        let t0 = Instant::now();
        let (mut phase, logs) = match &mut self.backend {
            Backend::Tcp { clients, .. } => saturate_tcp(clients, ctx, tag, ops),
            Backend::Local(server) => {
                saturate_local(&server.handle(), server.store(), ctx, tag, ops)
            }
        };
        phase.wall_s = t0.elapsed().as_secs_f64();
        phase.server_cpu_ns = server_cpu_ns().saturating_sub(cpu0) + phase.write_cpu_ns;
        phase.completed = (phase.read_ms.len() + phase.write_ms.len()) as u64;
        (phase, logs)
    }
}

/// Locks the shared store; a poisoned lock means a server thread
/// panicked, which the run reports as a failure anyway.
pub fn lock(store: &Mutex<Store>) -> std::sync::MutexGuard<'_, Store> {
    store
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What every phase needs to know.
pub struct Ctx<'a> {
    /// The run's inputs.
    pub inputs: &'a Inputs,
    /// How replies are checked.
    pub checker: &'a Checker,
    /// Record spans.
    pub trace: bool,
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Read latency from scheduled (paced) or actual (closed loop) send
    /// to reply, ms.
    pub read_ms: Vec<f64>,
    /// Insert and delete latency, ms.
    pub write_ms: Vec<f64>,
    /// Paced only: actual send minus scheduled send, ms.
    pub late_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed, rejected, expired or degraded.
    pub failed: u64,
    /// Ops completed.
    pub completed: u64,
    /// Replies that failed their check.
    pub wrong: u64,
    /// The first check failure.
    pub first_wrong: Option<String>,
    /// The first serving error.
    pub first_error: Option<String>,
    /// Wall seconds the phase measured over.
    pub wall_s: f64,
    /// Closed loop: CPU of the server's threads plus the writes the
    /// store executed on the generator's thread, ns.
    pub server_cpu_ns: u64,
    /// CPU the store spent executing writes on the generator's thread
    /// (it applies writes on its caller), ns.
    pub write_cpu_ns: u64,
    /// Paced only: offered and achieved send rates of each stream, ops/s.
    pub pacing: Vec<(f64, f64)>,
    /// Generator threads the phase used.
    pub threads: usize,
    /// Connections the phase used.
    pub connections: usize,
    /// `Response.queue_seconds`, ms.
    pub queue_ms: Vec<f64>,
    /// `Response.service_seconds`, ms.
    pub service_ms: Vec<f64>,
    /// Traced only: time inside `ServerHandle::submit`, µs.
    pub submit_us: Vec<f64>,
    /// TCP: client round trip minus server queue and service time, µs.
    pub net_overhead_us: Vec<f64>,
    /// Traced only: time inside `ServerHandle::insert`, µs.
    pub insert_us: Vec<f64>,
    /// Traced only: time inside `ServerHandle::delete`, µs.
    pub delete_us: Vec<f64>,
    /// Store reads: segments scanned, suppressed and returned candidates.
    pub segments: u64,
    /// See `segments`.
    pub suppressed: u64,
    /// See `segments`.
    pub returned: u64,
    /// Store reads answered.
    pub store_reads: u64,
    /// Traced store reads that overlapped a compaction, ms.
    pub during_compaction_ms: Vec<f64>,
}

impl Phase {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    fn check(&mut self, ctx: &Ctx<'_>, query: u32, neighbors: &[Neighbor]) {
        if let Err(why) = ctx.checker.check(query, neighbors) {
            self.wrong += 1;
            self.first_wrong.get_or_insert(why);
        }
    }

    /// Accounts one in-process read reply.
    fn read_reply(
        &mut self,
        ctx: &Ctx<'_>,
        query: u32,
        from: Instant,
        done: Instant,
        reply: Result<Response, ServeError>,
    ) -> bool {
        match reply {
            Ok(r) => {
                self.read_ms.push(ms(done - from));
                self.queue_ms.push(r.queue_seconds * 1e3);
                self.service_ms.push(r.service_seconds * 1e3);
                if let DeviceAccount::Store {
                    segments_scanned,
                    suppressed,
                    ..
                } = r.account
                {
                    self.store_reads += 1;
                    self.segments += segments_scanned as u64;
                    self.suppressed += suppressed as u64;
                    self.returned += r.neighbors.len() as u64;
                }
                self.check(ctx, query, &r.neighbors);
                true
            }
            Err(e) => {
                self.fail(e.to_string());
                false
            }
        }
    }

    /// Folds another thread's observations into this one.
    pub fn merge(&mut self, o: Phase) {
        self.read_ms.extend(o.read_ms);
        self.write_ms.extend(o.write_ms);
        self.late_ms.extend(o.late_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.completed += o.completed;
        self.wrong += o.wrong;
        if self.first_wrong.is_none() {
            self.first_wrong = o.first_wrong;
        }
        if self.first_error.is_none() {
            self.first_error = o.first_error;
        }
        self.wall_s = self.wall_s.max(o.wall_s);
        self.server_cpu_ns += o.server_cpu_ns;
        self.write_cpu_ns += o.write_cpu_ns;
        self.pacing.extend(o.pacing);
        self.threads += o.threads;
        self.connections += o.connections;
        self.queue_ms.extend(o.queue_ms);
        self.service_ms.extend(o.service_ms);
        self.submit_us.extend(o.submit_us);
        self.net_overhead_us.extend(o.net_overhead_us);
        self.insert_us.extend(o.insert_us);
        self.delete_us.extend(o.delete_us);
        self.segments += o.segments;
        self.suppressed += o.suppressed;
        self.returned += o.returned;
        self.store_reads += o.store_reads;
        self.during_compaction_ms.extend(o.during_compaction_ms);
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// A read submitted in-process and not yet answered.
struct InFlight {
    read: Read,
    ticket: Ticket,
}

/// What accounting a read's reply needs.
#[derive(Clone, Copy)]
struct Read {
    req: u64,
    query: u32,
    /// When the read's latency clock started.
    from: Instant,
    /// Traced store reads: the compaction counter at submission.
    compactions: Option<u64>,
}

/// Submits read `query` as request `req`, timing it from `from`.
fn submit_read(
    handle: &ServerHandle,
    store: Option<&Arc<Mutex<Store>>>,
    ctx: &Ctx<'_>,
    phase: &mut Phase,
    log: &mut SpanLog,
    (req, query, from): (u64, u32, Instant),
) -> Option<InFlight> {
    let compactions = match store {
        Some(s) if ctx.trace => Some(lock(s).stats().compactions),
        _ => None,
    };
    let request = Request::new(OwnedQuery::Euclidean(ctx.inputs.query(query).to_vec()), K);
    let s0 = Instant::now();
    let submitted = handle.submit(request);
    if ctx.trace {
        let s1 = Instant::now();
        log.child("serve.submit", req, request_span(req), s0, s1);
        phase.submit_us.push(us(s1 - s0));
    }
    match submitted {
        Ok(ticket) => Some(InFlight {
            read: Read {
                req,
                query,
                from,
                compactions,
            },
            ticket,
        }),
        Err(e) => {
            phase.fail(e.to_string());
            None
        }
    }
}

/// Accounts the reply to one in-flight read, received at `done`.
fn finish_read(
    store: Option<&Arc<Mutex<Store>>>,
    ctx: &Ctx<'_>,
    phase: &mut Phase,
    log: &mut SpanLog,
    (f, reply, done): (Read, Result<Response, ServeError>, Instant),
) {
    if ctx.trace {
        log.request("request.read", f.req, f.from, done);
    }
    let ok = phase.read_reply(ctx, f.query, f.from, done, reply);
    if let (true, Some(c0), Some(s)) = (ok, f.compactions, store) {
        if lock(s).stats().compactions != c0 {
            phase.during_compaction_ms.push(ms(done - f.from));
        }
    }
}

/// Blocks for one in-flight read and accounts it.
fn wait_read(
    store: Option<&Arc<Mutex<Store>>>,
    ctx: &Ctx<'_>,
    phase: &mut Phase,
    log: &mut SpanLog,
    f: InFlight,
) {
    let w0 = Instant::now();
    let reply = f.ticket.wait();
    let done = Instant::now();
    if ctx.trace {
        log.child("serve.wait", f.read.req, request_span(f.read.req), w0, done);
    }
    finish_read(store, ctx, phase, log, (f.read, reply, done));
}

/// Accounts every in-flight read whose reply has arrived.
fn poll_reads(
    store: Option<&Arc<Mutex<Store>>>,
    ctx: &Ctx<'_>,
    phase: &mut Phase,
    log: &mut SpanLog,
    inflight: &mut Vec<InFlight>,
) {
    let mut i = 0;
    while i < inflight.len() {
        if let Some(reply) = inflight[i].ticket.try_wait() {
            let done = Instant::now();
            let f = inflight.swap_remove(i);
            finish_read(store, ctx, phase, log, (f.read, reply, done));
        } else {
            i += 1;
        }
    }
}

/// Executes one write on the calling thread (the store applies writes
/// synchronously on its caller) and accounts it.
fn write(
    handle: &ServerHandle,
    ctx: &Ctx<'_>,
    phase: &mut Phase,
    log: &mut SpanLog,
    (req, op, from): (u64, Op, Instant),
) -> Instant {
    let c0 = thread_cpu_ns();
    let s0 = Instant::now();
    let (name, result) = match op {
        Op::Insert { uid, payload } => (
            "store.insert",
            handle.insert(uid, ctx.inputs.payloads.get(payload)),
        ),
        Op::Delete { uid } => ("store.delete", handle.delete(uid)),
        Op::Read { .. } => unreachable!("reads are submitted, not written"),
    };
    let done = Instant::now();
    phase.write_cpu_ns += thread_cpu_ns().saturating_sub(c0);
    if ctx.trace {
        log.child(name, req, request_span(req), s0, done);
        log.request("request.write", req, from, done);
        let spans = if matches!(op, Op::Insert { .. }) {
            &mut phase.insert_us
        } else {
            &mut phase.delete_us
        };
        spans.push(us(done - s0));
    }
    match result {
        Ok(_) => phase.write_ms.push(ms(done - from)),
        Err(e) => phase.fail(e.to_string()),
    }
    done
}

/// Records the offered and achieved send rates of a paced stream of
/// `n` ops whose last op was due at `last_at`.
fn pacing(phase: &mut Phase, (n, last_at): (usize, Duration), epoch: Instant, last_send: Instant) {
    if n == 0 {
        return;
    }
    let n = n as f64;
    phase.pacing.push((
        n / last_at.as_secs_f64(),
        n / (last_send - epoch).as_secs_f64(),
    ));
    phase.wall_s = (last_send - epoch).as_secs_f64();
}

/// Op count and last due offset of a sub-stream.
fn stream_span(ops: &[(usize, &Arrival)]) -> (usize, Duration) {
    (ops.len(), ops.last().map_or(Duration::ZERO, |(_, a)| a.at))
}

/// The paced phase in-process: one thread sends the reads on schedule
/// and polls their tickets in between; on the store workload a second
/// thread applies the writes on their own schedule, since the store
/// executes a write synchronously on its caller.
fn paced_local(
    handle: &ServerHandle,
    store: Option<Arc<Mutex<Store>>>,
    ctx: &Ctx<'_>,
    tag: u64,
) -> (Phase, Vec<SpanLog>) {
    let (reads, writes): (Vec<_>, Vec<_>) = ctx.inputs.streams[0]
        .iter()
        .enumerate()
        .partition(|(_, a)| matches!(a.op, Op::Read { .. }));
    let epoch = Instant::now() + LEAD;
    let store = store.as_ref();
    std::thread::scope(|s| {
        let writer = (!writes.is_empty()).then(|| {
            Builder::new()
                .name("perfbench-write".into())
                .spawn_scoped(s, || {
                    let mut phase = Phase::default();
                    let mut log = SpanLog::new(tag * 4 + 1);
                    let mut last_send = epoch;
                    for &(i, a) in &writes {
                        let due = epoch + a.at;
                        sleep_until(due);
                        last_send = Instant::now();
                        phase.late_ms.push(ms(last_send - due));
                        phase.attempted += 1;
                        let req = (tag << 32) | i as u64;
                        write(handle, ctx, &mut phase, &mut log, (req, a.op, due));
                    }
                    pacing(&mut phase, stream_span(&writes), epoch, last_send);
                    (phase, log)
                })
                .expect("spawn writer")
        });
        let mut phase = Phase::default();
        let mut log = SpanLog::new(tag * 4);
        let mut inflight = Vec::new();
        let mut last_send = epoch;
        for &(i, a) in &reads {
            let due = epoch + a.at;
            loop {
                poll_reads(store, ctx, &mut phase, &mut log, &mut inflight);
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep((due - now).min(POLL));
            }
            last_send = Instant::now();
            phase.late_ms.push(ms(last_send - due));
            phase.attempted += 1;
            let Op::Read { query } = a.op else {
                unreachable!("partitioned into reads")
            };
            let req = (tag << 32) | i as u64;
            inflight.extend(submit_read(
                handle,
                store,
                ctx,
                &mut phase,
                &mut log,
                (req, query, due),
            ));
        }
        pacing(&mut phase, stream_span(&reads), epoch, last_send);
        while !inflight.is_empty() {
            std::thread::sleep(POLL);
            poll_reads(store, ctx, &mut phase, &mut log, &mut inflight);
        }
        phase.threads = 1;
        let mut logs = vec![log];
        if let Some(w) = writer {
            let (written, write_log) = w.join().expect("writer thread");
            phase.merge(written);
            phase.threads += 1;
            logs.push(write_log);
        }
        phase.completed = (phase.read_ms.len() + phase.write_ms.len()) as u64;
        (phase, logs)
    })
}

/// The closed loop in-process: one thread keeps `outstanding` reads
/// in flight, applying writes inline as the op sequence reaches them.
fn saturate_local(
    handle: &ServerHandle,
    store: Option<Arc<Mutex<Store>>>,
    ctx: &Ctx<'_>,
    tag: u64,
    ops: u64,
) -> (Phase, Vec<SpanLog>) {
    let outstanding = ctx.inputs.spec().outstanding;
    let store = store.as_ref();
    let mut phase = Phase {
        threads: 1,
        ..Phase::default()
    };
    let mut log = SpanLog::new(tag * 4);
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(outstanding);
    let mut next = 0u64;
    loop {
        while next < ops && inflight.len() < outstanding {
            let now = Instant::now();
            let req = (tag << 32) | next;
            let op = ctx.inputs.saturation_op(next);
            next += 1;
            phase.attempted += 1;
            if let Op::Read { query } = op {
                let submitted =
                    submit_read(handle, store, ctx, &mut phase, &mut log, (req, query, now));
                inflight.extend(submitted);
            } else {
                write(handle, ctx, &mut phase, &mut log, (req, op, now));
            }
        }
        let Some(f) = inflight.pop_front() else { break };
        wait_read(store, ctx, &mut phase, &mut log, f);
    }
    (phase, vec![log])
}

/// Accounts one TCP read reply.
fn tcp_reply(
    phase: &mut Phase,
    ctx: &Ctx<'_>,
    query: u32,
    (from, sent, done): (Instant, Instant, Instant),
    reply: Result<ssam_serve::net::NetResponse, ssam_serve::net::ClientError>,
) {
    match reply {
        Ok(r) => {
            phase.read_ms.push(ms(done - from));
            phase.queue_ms.push(r.queue_seconds * 1e3);
            phase.service_ms.push(r.service_seconds * 1e3);
            phase
                .net_overhead_us
                .push(us(done - sent) - (r.queue_seconds + r.service_seconds) * 1e6);
            phase.check(ctx, query, &r.neighbors);
        }
        Err(e) => phase.fail(e.to_string()),
    }
}

/// One blocking TCP read, traced when asked.
fn tcp_read(
    client: &mut NetClient,
    ctx: &Ctx<'_>,
    phase: &mut Phase,
    log: &mut SpanLog,
    (req, query, from): (u64, u32, Instant),
) -> Instant {
    let request = Request::new(OwnedQuery::Euclidean(ctx.inputs.query(query).to_vec()), K);
    let sent = Instant::now();
    let reply = client.query(&request);
    let done = Instant::now();
    if ctx.trace {
        log.child("net.query", req, request_span(req), sent, done);
        log.request("request.read", req, from, done);
    }
    tcp_reply(phase, ctx, query, (from, sent, done), reply);
    done
}

fn paced_tcp(clients: &mut [NetClient], ctx: &Ctx<'_>, tag: u64) -> (Phase, Vec<SpanLog>) {
    let epoch = Instant::now() + LEAD;
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(&ctx.inputs.streams)
            .enumerate()
            .map(|(c, (client, arrivals))| {
                Builder::new()
                    .name(format!("perfbench-conn-{c}"))
                    .spawn_scoped(s, move || {
                        let mut phase = Phase {
                            threads: 1,
                            connections: 1,
                            ..Phase::default()
                        };
                        let mut log = SpanLog::new(tag * 4 + c as u64);
                        let mut last_send = epoch;
                        for (i, a) in arrivals.iter().enumerate() {
                            let Op::Read { query } = a.op else {
                                unreachable!("the TCP workload only reads")
                            };
                            let req = (tag << 32) | ((c as u64) << 24) | i as u64;
                            let due = epoch + a.at;
                            sleep_until(due);
                            last_send = Instant::now();
                            phase.late_ms.push(ms(last_send - due));
                            phase.attempted += 1;
                            tcp_read(client, ctx, &mut phase, &mut log, (req, query, due));
                        }
                        pacing(
                            &mut phase,
                            (
                                arrivals.len(),
                                arrivals.last().map_or(Duration::ZERO, |a| a.at),
                            ),
                            epoch,
                            last_send,
                        );
                        phase.completed = phase.read_ms.len() as u64;
                        (phase, log)
                    })
                    .expect("spawn connection thread")
            })
            .collect();
        join_all(workers)
    })
}

/// The closed loop over TCP: each connection sends back to back,
/// claiming the next op of the shared sequence.
fn saturate_tcp(
    clients: &mut [NetClient],
    ctx: &Ctx<'_>,
    tag: u64,
    ops: u64,
) -> (Phase, Vec<SpanLog>) {
    let next = AtomicU64::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let next = &next;
                Builder::new()
                    .name(format!("perfbench-conn-{c}"))
                    .spawn_scoped(s, move || {
                        let mut phase = Phase {
                            threads: 1,
                            connections: 1,
                            ..Phase::default()
                        };
                        let mut log = SpanLog::new(tag * 4 + c as u64);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= ops {
                                break;
                            }
                            let Op::Read { query } = ctx.inputs.saturation_op(i) else {
                                unreachable!("the TCP workload only reads")
                            };
                            phase.attempted += 1;
                            let now = Instant::now();
                            tcp_read(
                                client,
                                ctx,
                                &mut phase,
                                &mut log,
                                ((tag << 32) | i, query, now),
                            );
                        }
                        (phase, log)
                    })
                    .expect("spawn connection thread")
            })
            .collect();
        join_all(workers)
    })
}

fn join_all(
    workers: Vec<std::thread::ScopedJoinHandle<'_, (Phase, SpanLog)>>,
) -> (Phase, Vec<SpanLog>) {
    let mut phase = Phase::default();
    let mut logs = Vec::new();
    for w in workers {
        let (p, log) = w.join().expect("generator thread");
        phase.merge(p);
        logs.push(log);
    }
    (phase, logs)
}
