//! # ssam-serve — online query serving for the SSAM device
//!
//! The device layer executes pre-formed batches
//! ([`SsamDevice::query_batch`]); this crate is the missing path from
//! *many concurrent callers* to those batches. The paper's host already
//! works this way — it "broadcasts the search across SSAM processing
//! units and performs the final set of global top-k reductions" (§III),
//! and near-data kNN accelerators are throughput devices whose
//! utilization hinges on how the host aggregates independent queries
//! into device-sized batches.
//!
//! A [`Server`] owns a pool of worker threads, each holding a clone of
//! the backing [`SsamDevice`] — clones share the `Arc`-held dataset
//! shards and kernel images, so they are cheap, and each worker's
//! batched executions recycle warm processing units through the
//! device's `reset_state` path. Callers get a cloneable
//! [`ServerHandle`] and submit [`Request`]s:
//!
//! * **Dynamic batching** — concurrently submitted requests that are
//!   kernel-compatible (same metric, `k`, and queue implementation —
//!   [`batcher::BatchKey`]) coalesce into one `query_batch` call under a
//!   dual trigger: a batch flushes when it reaches
//!   [`ServeConfig::max_batch`] *or* when its oldest request has waited
//!   [`ServeConfig::max_linger`].
//! * **Admission control and backpressure** — the submission queue is
//!   bounded ([`ServeConfig::queue_capacity`]); submissions beyond it
//!   are rejected with [`ServeError::Overloaded`] instead of queueing
//!   unboundedly. Malformed requests (zero `k`, `k` above [`MAX_K`],
//!   empty or wrong-shape queries) are rejected at admission with
//!   [`ServeError::BadRequest`] before they can reach a worker.
//! * **Deadlines** — a request may carry a deadline budget
//!   ([`Request::timeout`]); if it expires while queued the request is
//!   completed with [`ServeError::DeadlineExceeded`] *before staging* —
//!   it never stalls or joins a device batch.
//! * **Graceful shutdown and panic isolation** — [`Server::shutdown`]
//!   stops admissions, drains every queued request (flushing without
//!   lingering), and joins the workers; dropping the server does the
//!   same. A worker that panics mid-batch completes that batch's
//!   requests with [`ServeError::WorkerPanicked`], discards its possibly
//!   inconsistent device clone for a pristine one, and keeps serving —
//!   the queue is never wedged.
//! * **Multi-tenant QoS** — requests carry a [`TenantId`]
//!   ([`Request::with_tenant`]); [`ServeConfig::qos`] assigns each
//!   tenant an admission rate (deterministic token bucket →
//!   [`ServeError::RateLimited`]), a strict priority tier, a
//!   weighted-fair share arbitrating ripe batches within a tier, and
//!   per-tenant coverage/deadline SLOs. The tenant is part of the
//!   batcher's compatibility key, so device batches never mix tenants
//!   and one tenant's burst or fault storm cannot ride in another's
//!   batch (see [`qos`] for the fairness invariants).
//! * **Network boundary** — [`net::NetServer`] exposes a server over a
//!   std-only length-prefixed TCP frame protocol with a blocking
//!   [`net::NetClient`], typed wire encodings for every [`ServeError`]
//!   variant, and graceful connection drain on shutdown.
//! * **Mutable datasets** — [`Server::start_store`] serves an
//!   [`ssam_store::Store`] (and [`Server::start_sharded_store`] a
//!   [`ssam_store::ShardedStore`]) instead of an immutable device:
//!   [`ServerHandle::insert`] / [`ServerHandle::delete`] accept online
//!   writes (WAL-first, with automatic memtable seals), a coalesced read
//!   batch runs as one store batch — one device batch per segment — over
//!   a consistent memtable ∪ segments view with tombstone suppression
//!   and dedup-by-latest-version, and a background maintenance thread
//!   runs leveled compaction between batches, sharing the store with
//!   readers.
//!
//! Every served batch still flows through the device's self-checking
//! telemetry: attach a [`ssam_core::telemetry::Telemetry`] sink to the
//! device *before* [`Server::start`] and each worker clone records
//! verified per-query and per-batch accounts into it.
//!
//! ```
//! use ssam_core::device::{SsamConfig, SsamDevice};
//! use ssam_knn::VectorStore;
//! use ssam_serve::{OwnedQuery, Request, ServeConfig, Server};
//!
//! let mut store = VectorStore::new(4);
//! for i in 0..64 {
//!     store.push(&[i as f32, 0.0, 0.0, 0.0]);
//! }
//! let mut device = SsamDevice::new(SsamConfig::default());
//! device.load_vectors(&store);
//!
//! let server = Server::start(device, ServeConfig::default());
//! let handle = server.handle();
//! let response = handle
//!     .query(Request::new(OwnedQuery::Euclidean(vec![7.2, 0.0, 0.0, 0.0]), 3))
//!     .expect("served");
//! assert_eq!(response.neighbors[0].id, 7);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod net;
pub mod qos;

pub use qos::{QosConfig, TenantId, TenantQos};

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ssam_core::device::{BatchTiming, DeviceQuery, QueryTiming, SsamDevice};
use ssam_core::sim::pu::SimError;
use ssam_faults::FaultPlan;
use ssam_knn::topk::Neighbor;
use ssam_store::{
    Recovery, ShardWriteAck, ShardedStore, Store, StoreConfig, StoreError, StoreQueryResult,
};

use crate::batcher::{plan, Action, BatchKey, PendingMeta};
use crate::qos::{FairState, TokenBucket};

/// The largest `k` a request may ask for: [`ServerHandle::submit`]
/// rejects a larger one with [`ServeError::BadRequest`], in process and
/// over the wire. 1,024 neighbors is 64 chained 16-entry hardware
/// queues, and a software-queue kernel's 2·k words (8 KB at the cap)
/// still fit the 16 KB of scratchpad above its queue base. Without a cap
/// a single request could make a worker reserve memory for `k` results
/// of every query in its batch, which aborts the process rather than
/// panicking the worker.
pub const MAX_K: usize = 1024;

/// Fault-injection and fault-tolerance configuration for the serving
/// runtime. [`ServeFaults::default`] injects nothing and degrades
/// nothing — the fault-free fast path.
#[derive(Debug, Clone)]
pub struct ServeFaults {
    /// Deterministic fault plan threaded to every worker's device clone
    /// (each worker samples a decorrelated stream — its index is the
    /// fault-key scope). `None` disables injection entirely.
    pub plan: Option<Arc<FaultPlan>>,
    /// The worker executing the nth batch (0-based, counted across the
    /// server) panics mid-execution — the crash-fault channel of the
    /// plan, kept separate because it exercises the host runtime rather
    /// than the device model.
    pub panic_on_batch: Option<u64>,
    /// Minimum per-request coverage (fraction of candidate vectors
    /// actually scanned). A response below this is retried within the
    /// plan's `serve_retry_budget`, then surfaced as
    /// [`ServeError::Degraded`]. With the default `1.0`, any lost vault
    /// triggers the retry/degrade path; without a plan coverage is
    /// always `1.0` and this never fires. Per-tenant
    /// [`TenantQos::min_coverage`] overrides this for that tenant.
    pub min_coverage: f64,
    /// When set, the fault plan is applied only to batches belonging to
    /// these tenants — a *fault storm confined to a tenant*. Batches are
    /// single-tenant (the tenant is part of the batch key), so the
    /// confinement is exact: other tenants' executions run fault-free.
    /// `None` (default) applies the plan to every tenant.
    pub storm_tenants: Option<Vec<TenantId>>,
}

impl Default for ServeFaults {
    fn default() -> Self {
        Self {
            plan: None,
            panic_on_batch: None,
            min_coverage: 1.0,
            storm_tenants: None,
        }
    }
}

/// Serving-runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush a batch as soon as this many kernel-compatible requests are
    /// queued (clamped to ≥ 1; `1` degenerates to serial batch-of-1
    /// serving, the baseline the load generator compares against).
    pub max_batch: usize,
    /// Flush a non-full batch once its oldest request has waited this
    /// long — the latency bound dynamic batching trades against
    /// throughput. Keep it well below the deadline budgets you hand out.
    pub max_linger: Duration,
    /// Bounded submission-queue capacity; submissions beyond it are
    /// rejected with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Worker threads, each owning a clone of the backing device
    /// (clamped to ≥ 1).
    pub workers: usize,
    /// Deadline budget applied to requests that do not carry their own
    /// ([`Request::timeout`] wins when both are set).
    pub default_timeout: Option<Duration>,
    /// Fault injection and tolerance knobs.
    pub faults: ServeFaults,
    /// Per-tenant admission and scheduling policy. The default governs
    /// every tenant with the default [`TenantQos`] — no rate limits, one
    /// tier, equal weights — making QoS invisible to single-tenant use.
    pub qos: QosConfig,
}

/// How long the mutable-store maintenance thread sleeps when a poll
/// found no owed compaction. Each poll runs at most one
/// [`ssam_store::Store::compact_step`], so queries interleave with
/// compaction at single-merge granularity.
const MAINTENANCE_INTERVAL: Duration = Duration::from_micros(500);

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_linger: Duration::from_millis(1),
            queue_capacity: 1024,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            default_timeout: None,
            faults: ServeFaults::default(),
            qos: QosConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Per-request retry budget for under-coverage responses (0 without
    /// a fault plan).
    fn degraded_retry_budget(&self) -> u32 {
        self.faults
            .plan
            .as_ref()
            .map_or(0, |p| p.policy.serve_retry_budget)
    }
}

/// An owned query. The device API's [`DeviceQuery`] borrows its payload;
/// serving requests cross thread boundaries and outlive their caller's
/// stack frame, so the runtime owns the payload and reborrows it at
/// staging time ([`OwnedQuery::as_device_query`]).
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedQuery {
    /// Float query for the Euclidean kernel.
    Euclidean(Vec<f32>),
    /// Float query for the Manhattan kernel.
    Manhattan(Vec<f32>),
    /// Float query for the cosine kernel.
    Cosine(Vec<f32>),
    /// Packed binary query for the Hamming kernel.
    Hamming(Vec<u32>),
}

impl OwnedQuery {
    /// The metric this query selects.
    pub fn metric(&self) -> ssam_core::device::DeviceMetric {
        self.as_device_query().metric()
    }

    /// Reborrows as the device API's query type.
    pub fn as_device_query(&self) -> DeviceQuery<'_> {
        match self {
            OwnedQuery::Euclidean(q) => DeviceQuery::Euclidean(q),
            OwnedQuery::Manhattan(q) => DeviceQuery::Manhattan(q),
            OwnedQuery::Cosine(q) => DeviceQuery::Cosine(q),
            OwnedQuery::Hamming(q) => DeviceQuery::Hamming(q),
        }
    }

    fn len(&self) -> usize {
        match self {
            OwnedQuery::Euclidean(q) | OwnedQuery::Manhattan(q) | OwnedQuery::Cosine(q) => q.len(),
            OwnedQuery::Hamming(q) => q.len(),
        }
    }

    fn is_binary(&self) -> bool {
        matches!(self, OwnedQuery::Hamming(_))
    }
}

/// One serving request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The query payload.
    pub query: OwnedQuery,
    /// Neighbors requested.
    pub k: usize,
    /// Optional deadline budget, measured from submission. When it
    /// expires before the request is staged into a device batch, the
    /// request completes with [`ServeError::DeadlineExceeded`].
    pub timeout: Option<Duration>,
    /// The tenant this request belongs to, for admission (token
    /// buckets), scheduling (tiers + weighted-fair dequeue), and SLOs.
    /// Defaults to [`TenantId::DEFAULT`].
    pub tenant: TenantId,
}

impl Request {
    /// A request with no per-request deadline (the server's
    /// [`ServeConfig::default_timeout`] still applies, if set) under the
    /// default tenant.
    pub fn new(query: OwnedQuery, k: usize) -> Self {
        Self {
            query,
            k,
            timeout: None,
            tenant: TenantId::DEFAULT,
        }
    }

    /// Attaches a deadline budget.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Attributes the request to a tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }
}

/// Why a request was not served. Every variant is a *response* — the
/// runtime never hangs a caller and never panics across the API.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded submission queue is full (backpressure): retry later
    /// or shed load upstream.
    Overloaded {
        /// The configured queue capacity that was exceeded.
        capacity: usize,
    },
    /// The tenant's token bucket is empty: the tenant exceeded its
    /// configured admission rate ([`TenantQos::rate`]). Unlike
    /// [`ServeError::Overloaded`] this is per-tenant — other tenants'
    /// queue capacity is unaffected.
    RateLimited {
        /// The throttled tenant.
        tenant: TenantId,
    },
    /// The request's deadline passed before it could be staged.
    DeadlineExceeded {
        /// How far past the deadline the rejection happened.
        missed_by: Duration,
    },
    /// The server no longer accepts submissions (it still drains
    /// requests admitted before shutdown began).
    ShuttingDown,
    /// The request is malformed for the loaded dataset and was rejected
    /// at admission.
    BadRequest(&'static str),
    /// The device simulation faulted while executing the batch.
    Device(SimError),
    /// The worker executing this request's batch panicked; the request
    /// was not served (the worker recovered and the server keeps
    /// running).
    WorkerPanicked,
    /// Faults degraded the result below the configured
    /// [`ServeFaults::min_coverage`] even after the retry budget:
    /// `coverage` is the fraction of candidate vectors the best attempt
    /// actually scanned. Callers that can tolerate partial results may
    /// lower `min_coverage` and read [`Response::coverage`] instead.
    Degraded {
        /// Fraction of the dataset covered by the rejected attempt.
        coverage: f64,
    },
    /// A sharded-store write was refused because every replica module
    /// of the target shard is down — nothing could make it durable.
    /// Retry once the outage clears; reads keep serving the surviving
    /// shards meanwhile.
    ShardUnavailable {
        /// The shard whose whole replica set is down.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            ServeError::RateLimited { tenant } => {
                write!(f, "{tenant} exceeded its admission rate")
            }
            ServeError::DeadlineExceeded { missed_by } => {
                write!(f, "deadline exceeded (missed by {missed_by:?})")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BadRequest(why) => write!(f, "bad request: {why}"),
            ServeError::Device(e) => write!(f, "device fault: {e}"),
            ServeError::WorkerPanicked => write!(f, "worker panicked executing the batch"),
            ServeError::Degraded { coverage } => {
                write!(f, "result degraded below required coverage ({coverage:.3})")
            }
            ServeError::ShardUnavailable { shard } => {
                write!(f, "shard {shard}: every replica is down, write refused")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Device-side account of a served request, depending on the backend.
#[derive(Debug, Clone)]
pub enum DeviceAccount {
    /// Served by a single-module [`SsamDevice`]: the request's
    /// serial-equivalent query account plus the pipelined account of the
    /// device batch it rode in.
    Device {
        /// Serial-equivalent per-query timing.
        timing: QueryTiming,
        /// The whole device batch's pipelined account.
        batch: BatchTiming,
    },
    /// Served by a mutable [`ssam_store::Store`] or
    /// [`ssam_store::ShardedStore`]: a memtable scan plus one device
    /// batch per segment (per shard, for the sharded store), gathered
    /// into an exact top-k.
    Store {
        /// Slowest segment's simulated device seconds (segments and
        /// shards scan in parallel, like vaults within one device).
        seconds: f64,
        /// Total device energy across all segment queries, millijoules.
        energy_mj: f64,
        /// Segments that executed a device query.
        segments_scanned: usize,
        /// Candidates returned by segments but suppressed as superseded
        /// or tombstoned.
        suppressed: usize,
    },
}

impl DeviceAccount {
    /// Modeled device seconds for this request alone (serial-equivalent
    /// for the immutable device).
    pub fn device_seconds(&self) -> f64 {
        match self {
            DeviceAccount::Device { timing, .. } => timing.seconds,
            DeviceAccount::Store { seconds, .. } => *seconds,
        }
    }

    /// Modeled device energy for this request, millijoules.
    pub fn energy_mj(&self) -> f64 {
        match self {
            DeviceAccount::Device { timing, .. } => timing.energy_mj,
            DeviceAccount::Store { energy_mj, .. } => *energy_mj,
        }
    }
}

/// A served query.
#[derive(Debug, Clone)]
pub struct Response {
    /// Global top-k, best first.
    pub neighbors: Vec<Neighbor>,
    /// Device-side timing/energy account.
    pub account: DeviceAccount,
    /// Size of the device batch this request was coalesced into.
    pub batch_size: usize,
    /// Host wall-clock from admission to batch formation.
    pub queue_seconds: f64,
    /// Host wall-clock executing the device batch (shared by every
    /// request in it).
    pub service_seconds: f64,
    /// Fraction of candidate vectors actually scanned for this request
    /// (`1.0` unless fault injection lost vaults or modules). The
    /// neighbors are exact over this fraction.
    pub coverage: f64,
}

/// Counters describing a server's lifetime so far. Snapshot via
/// [`Server::stats`] or returned by [`Server::shutdown`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests served successfully.
    pub served: u64,
    /// Submissions rejected by backpressure ([`ServeError::Overloaded`]).
    pub rejected_overload: u64,
    /// Submissions rejected by per-tenant token buckets
    /// ([`ServeError::RateLimited`]).
    pub rejected_rate_limited: u64,
    /// Queued requests rejected on deadline expiry.
    pub rejected_deadline: u64,
    /// Requests completed with [`ServeError::Device`] or
    /// [`ServeError::WorkerPanicked`].
    pub failed: u64,
    /// Requests surfaced as [`ServeError::Degraded`] after exhausting
    /// the retry budget.
    pub degraded: u64,
    /// Under-coverage responses retried within the budget (each is one
    /// re-enqueue of one request).
    pub retried_degraded: u64,
    /// Requests re-enqueued after a worker panic instead of being failed
    /// outright (panic-survivor retries).
    pub retried_panic: u64,
    /// Worker panic events survived (each covers one batch).
    pub worker_panics: u64,
    /// Inserts accepted into the mutable store (store backend only).
    pub inserts: u64,
    /// Deletes accepted into the mutable store (store backend only).
    pub deletes: u64,
    /// Write submissions rejected because the target shard's whole
    /// replica set was down ([`ServeError::ShardUnavailable`]).
    pub rejected_shard_down: u64,
    /// WAL records replayed when the backing store was opened from an
    /// existing WAL image (0 for stores created fresh) — the typed
    /// recovery report surfaced from [`ssam_store::Recovery`].
    pub recovered_records: u64,
    /// Bytes truncated at torn WAL tails during that recovery.
    pub recovered_truncated_bytes: u64,
    /// Segments rebuilt (seal + compaction replays) during that
    /// recovery.
    pub recovered_segments: u64,
    /// Device batches executed successfully.
    pub batches: u64,
    /// Histogram of successful device-batch sizes: `batch_hist[s]` is
    /// the number of batches of size `s` (index 0 unused).
    pub batch_hist: Vec<u64>,
}

impl ServerStats {
    /// Mean successful batch size (0 when no batch completed).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.served as f64 / self.batches as f64
    }

    /// Largest successful batch observed.
    pub fn max_batch(&self) -> usize {
        self.batch_hist.iter().rposition(|&n| n > 0).unwrap_or(0)
    }
}

/// One admitted request waiting in the queue.
struct Pending {
    query: OwnedQuery,
    k: usize,
    key: BatchKey,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Coverage SLO resolved at admission: the tenant's
    /// [`TenantQos::min_coverage`], else [`ServeFaults::min_coverage`].
    min_coverage: f64,
    /// Times this request was re-enqueued after an under-coverage
    /// response (bounded by the plan's `serve_retry_budget`).
    degraded_retries: u32,
    /// Times this request survived a worker panic via re-enqueue
    /// (bounded at 1: a second panic fails it).
    panic_retries: u32,
    tx: mpsc::Sender<Result<Response, ServeError>>,
}

impl Pending {
    fn meta(&self) -> PendingMeta {
        PendingMeta {
            key: self.key,
            enqueued: self.enqueued,
            deadline: self.deadline,
        }
    }
}

struct QueueState {
    pending: VecDeque<Pending>,
    /// `false` once shutdown begins: admissions stop, workers drain.
    open: bool,
    /// Batches handed to workers so far (drives test fault injection).
    batches_started: u64,
    /// Per-tenant admission token buckets, created full on first use.
    buckets: HashMap<TenantId, TokenBucket>,
    /// Weighted-fair virtual service, charged per flushed batch.
    fair: FairState,
    stats: ServerStats,
}

/// Shape of the queries the backend accepts, checked at admission so
/// malformed requests can never panic a worker.
#[derive(Debug, Clone, Copy)]
struct QueryShape {
    len: usize,
    binary: bool,
    hw_queue: bool,
    /// The mutable store serves the linear float kernels only
    /// (Euclidean / Manhattan) — cosine has no analytic memtable
    /// equivalent and binary payloads are immutable.
    float_linear_only: bool,
}

/// The mutable backend behind a write-capable server: one store module,
/// or a sharded/replicated topology of them. Every worker, the write
/// path, and the maintenance thread share it (writes must be visible to
/// every reader), so execution serializes on its lock — the single-writer
/// analogue of a storage engine behind a latch. The single-vs-sharded
/// fork lives here and nowhere else.
#[derive(Clone)]
enum StoreBackend {
    Single(Arc<Mutex<Store>>),
    Sharded(Arc<Mutex<ShardedStore>>),
}

/// Locks a shared store, recovering from poisoning: every store state
/// transition is WAL-first and completes (cross-module bookkeeping
/// included) before the lock is released, so a panicked worker cannot
/// leave it torn.
fn lock<T>(store: &Mutex<T>) -> MutexGuard<'_, T> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

impl StoreBackend {
    /// One lock acquisition for the whole batch: every member sees the
    /// same consistent view, and compaction cannot slide in between
    /// members.
    fn query_batch(
        &self,
        queries: &[DeviceQuery<'_>],
        k: usize,
    ) -> Result<Vec<StoreQueryResult>, StoreError> {
        match self {
            StoreBackend::Single(s) => lock(s).query_batch(queries, k),
            StoreBackend::Sharded(s) => lock(s).query_batch(queries, k),
        }
    }

    fn insert(&self, uid: u32, vector: &[f32]) -> Result<ShardWriteAck, StoreError> {
        match self {
            StoreBackend::Single(s) => lock(s).insert(uid, vector).map(ShardWriteAck::from),
            StoreBackend::Sharded(s) => lock(s).insert(uid, vector),
        }
    }

    fn delete(&self, uid: u32) -> Result<ShardWriteAck, StoreError> {
        match self {
            StoreBackend::Single(s) => lock(s).delete(uid).map(ShardWriteAck::from),
            StoreBackend::Sharded(s) => lock(s).delete(uid),
        }
    }

    fn compact_step(&self) -> bool {
        match self {
            StoreBackend::Single(s) => lock(s).compact_step(),
            StoreBackend::Sharded(s) => lock(s).compact_step(),
        }
    }

    fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        match self {
            StoreBackend::Single(s) => lock(s).set_fault_plan(plan),
            StoreBackend::Sharded(s) => lock(s).set_fault_plan(plan),
        }
    }
}

struct Shared {
    state: Mutex<QueueState>,
    wake: Condvar,
    config: ServeConfig,
    shape: QueryShape,
    /// The mutable store behind [`Server::start_store`] /
    /// [`Server::start_sharded_store`] backends; the write path
    /// ([`ServerHandle::insert`] / [`ServerHandle::delete`]) and the
    /// maintenance thread go through it.
    store: Option<StoreBackend>,
}

/// The execution backend a worker owns: a clone of the template device,
/// replaced from the template after a panic, or the shared store.
enum Engine {
    Device {
        template: Arc<SsamDevice>,
        live: Box<SsamDevice>,
        /// This worker's fault-key scope, reapplied after recovery (the
        /// template always carries scope 0).
        scope: u64,
    },
    Store(StoreBackend),
}

impl Engine {
    /// Attaches or clears the fault plan on the live backend — the
    /// per-batch switch behind [`ServeFaults::storm_tenants`].
    fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        match self {
            Engine::Device { live, .. } => live.set_fault_plan(plan),
            Engine::Store(store) => store.set_fault_plan(plan),
        }
    }

    fn recover(&mut self) {
        // The store is shared authoritative state, not a per-worker
        // clone: every apply step completes under the lock before a query
        // can observe it, so there is nothing to roll back.
        if let Engine::Device {
            template,
            live,
            scope,
        } = self
        {
            **live = (**template).clone();
            live.set_fault_scope(*scope);
        }
    }

    /// Executes one coalesced batch as one backend batch. Results are in
    /// request order, each with the fraction of candidate vectors its
    /// answer covers.
    fn execute(
        &mut self,
        batch: &[Pending],
        k: usize,
    ) -> Result<Vec<(Vec<Neighbor>, DeviceAccount, f64)>, ServeError> {
        let queries: Vec<DeviceQuery<'_>> =
            batch.iter().map(|p| p.query.as_device_query()).collect();
        match self {
            Engine::Device { live, .. } => {
                let out = live.query_batch(&queries, k).map_err(ServeError::Device)?;
                let batch_timing = out.timing;
                Ok(out
                    .results
                    .into_iter()
                    .map(|r| {
                        let coverage = r.coverage();
                        (
                            r.neighbors,
                            DeviceAccount::Device {
                                timing: r.timing,
                                batch: batch_timing,
                            },
                            coverage,
                        )
                    })
                    .collect())
            }
            Engine::Store(store) => Ok(store
                .query_batch(&queries, k)
                .map_err(store_error)?
                .into_iter()
                .map(|r| {
                    let coverage = r.coverage();
                    (
                        r.neighbors,
                        DeviceAccount::Store {
                            seconds: r.device_seconds,
                            energy_mj: r.energy_mj,
                            segments_scanned: r.segments_scanned,
                            suppressed: r.suppressed,
                        },
                        coverage,
                    )
                })
                .collect()),
        }
    }
}

/// The online serving runtime: a dynamic batcher in front of a worker
/// pool over device clones. See the crate docs for the full contract.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Background compaction thread (store backend only).
    maintenance: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the worker pool over clones of `device` and starts
    /// serving. Attach a telemetry sink to the device *before* this
    /// call; every worker clone shares it.
    ///
    /// # Panics
    /// Panics if the device has no dataset loaded.
    pub fn start(mut device: SsamDevice, config: ServeConfig) -> Server {
        if let Some(plan) = &config.faults.plan {
            device.set_fault_plan(Some(Arc::clone(plan)));
        }
        let shape = QueryShape {
            len: device
                .query_len()
                .expect("serve: device must have a dataset loaded"),
            binary: device.payload_is_binary().unwrap_or(false),
            hw_queue: device.config().use_hw_queue,
            float_linear_only: false,
        };
        let template = Arc::new(device);
        Self::spawn(config, shape, None, move |worker| {
            let mut live = (*template).clone();
            live.set_fault_scope(worker as u64);
            Engine::Device {
                live: Box::new(live),
                template: Arc::clone(&template),
                scope: worker as u64,
            }
        })
    }

    /// Spawns the worker pool over a shared mutable [`Store`] and starts
    /// serving reads *and* writes: queries flow through the usual
    /// batcher, each coalesced batch running as one
    /// [`Store::query_batch`]; [`ServerHandle::insert`] /
    /// [`ServerHandle::delete`] mutate the store WAL-first, and a
    /// maintenance thread polls every 500 µs to run owed compactions
    /// one merge at a time, interleaving with query batches on the
    /// store lock. Attach telemetry and load any initial data into the
    /// store *before* this call. If the store was recovered via
    /// [`Store::open`], the recovery report lands in [`ServerStats`].
    ///
    /// The store serves float Euclidean / Manhattan queries; cosine and
    /// binary Hamming requests are rejected at admission.
    pub fn start_store(store: Store, config: ServeConfig) -> Server {
        let (store_config, recovery) = (store.config().clone(), store.recovery());
        let backend = StoreBackend::Single(Arc::new(Mutex::new(store)));
        Self::start_backend(backend, &store_config, recovery, config)
    }

    /// Spawns the worker pool over a shared [`ShardedStore`] — the
    /// multi-module mutable backend. Reads scatter-gather across shards
    /// with failover ([`ShardedStore::query_batch`]); writes route by
    /// uid hash, their [`ShardWriteAck`] naming the shard and replicas
    /// that took them. The maintenance thread drains owed compactions
    /// across every module, one merge per poll, and a
    /// [`ShardedStore::open`] recovery report lands in [`ServerStats`]
    /// as its aggregate.
    ///
    /// Query shape and admission rules match [`Server::start_store`]:
    /// float Euclidean / Manhattan only.
    pub fn start_sharded_store(store: ShardedStore, config: ServeConfig) -> Server {
        let store_config = store.config().store.clone();
        let recovery = store.recovery().map(|r| r.total);
        let backend = StoreBackend::Sharded(Arc::new(Mutex::new(store)));
        Self::start_backend(backend, &store_config, recovery, config)
    }

    /// Serves a store backend: every worker shares it, and a background
    /// maintenance thread runs at most one merge per poll, sleeping
    /// [`MAINTENANCE_INTERVAL`] when idle.
    fn start_backend(
        backend: StoreBackend,
        store_config: &StoreConfig,
        recovery: Option<Recovery>,
        config: ServeConfig,
    ) -> Server {
        if let Some(plan) = &config.faults.plan {
            backend.set_fault_plan(Some(Arc::clone(plan)));
        }
        let shape = QueryShape {
            len: store_config.dims,
            binary: false,
            hw_queue: store_config.device.use_hw_queue,
            float_linear_only: true,
        };
        let workers_backend = backend.clone();
        let mut server = Self::spawn(config, shape, Some(backend.clone()), move |_worker| {
            Engine::Store(workers_backend.clone())
        });
        if let Some(rec) = recovery {
            let mut st = server.shared.state.lock().expect("serve queue lock");
            st.stats.recovered_records = rec.replayed as u64;
            st.stats.recovered_truncated_bytes = rec.truncated;
            st.stats.recovered_segments = rec.segments_rebuilt as u64;
        }
        let shared = Arc::clone(&server.shared);
        server.maintenance = Some(
            std::thread::Builder::new()
                .name("ssam-serve-maintenance".into())
                .spawn(move || loop {
                    if !shared.state.lock().expect("serve queue lock").open {
                        return;
                    }
                    if !backend.compact_step() {
                        std::thread::sleep(MAINTENANCE_INTERVAL);
                    }
                })
                .expect("spawn serve maintenance"),
        );
        server
    }

    fn spawn(
        config: ServeConfig,
        shape: QueryShape,
        store: Option<StoreBackend>,
        make_engine: impl Fn(usize) -> Engine,
    ) -> Server {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                open: true,
                batches_started: 0,
                buckets: HashMap::new(),
                fair: FairState::default(),
                stats: ServerStats::default(),
            }),
            wake: Condvar::new(),
            config,
            shape,
            store,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let mut engine = make_engine(i);
                std::thread::Builder::new()
                    .name(format!("ssam-serve-{i}"))
                    .spawn(move || worker_loop(&shared, &mut engine))
                    .expect("spawn serve worker")
            })
            .collect();
        Server {
            shared,
            workers: handles,
            maintenance: None,
        }
    }

    /// The shared mutable store behind a [`Server::start_store`]
    /// backend (`None` for the immutable and sharded backends). Lock it
    /// to read lifecycle stats or post telemetry accounts; writes
    /// should go through the handle so they are counted and
    /// admission-checked.
    pub fn store(&self) -> Option<Arc<Mutex<Store>>> {
        match &self.shared.store {
            Some(StoreBackend::Single(s)) => Some(Arc::clone(s)),
            _ => None,
        }
    }

    /// The shared sharded store behind a [`Server::start_sharded_store`]
    /// backend (`None` otherwise). Lock it for drills
    /// ([`ShardedStore::kill_module`]), ledgers, and accounts.
    pub fn sharded_store(&self) -> Option<Arc<Mutex<ShardedStore>>> {
        match &self.shared.store {
            Some(StoreBackend::Sharded(s)) => Some(Arc::clone(s)),
            _ => None,
        }
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.shared
            .state
            .lock()
            .expect("serve queue lock")
            .stats
            .clone()
    }

    /// Stops admissions, drains every queued request (flushing batches
    /// immediately, without lingering), joins the workers, and returns
    /// the final counters. Dropping the server performs the same
    /// shutdown implicitly.
    pub fn shutdown(mut self) -> ServerStats {
        self.begin_shutdown_and_join();
        self.shared
            .state
            .lock()
            .expect("serve queue lock")
            .stats
            .clone()
    }

    fn begin_shutdown_and_join(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("serve queue lock");
            st.open = false;
        }
        self.shared.wake.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.maintenance.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_shutdown_and_join();
    }
}

/// A cloneable handle for submitting requests to a [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Validates and enqueues one request. On success the returned
    /// [`Ticket`] resolves to the response once a worker serves (or
    /// rejects) it; admission failures are returned immediately.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        let shape = &self.shared.shape;
        if req.k == 0 {
            return Err(ServeError::BadRequest("k must be positive"));
        }
        if req.k > MAX_K {
            return Err(ServeError::BadRequest("k exceeds MAX_K"));
        }
        if req.query.len() == 0 {
            return Err(ServeError::BadRequest("query must be non-empty"));
        }
        if req.query.is_binary() != shape.binary {
            return Err(ServeError::BadRequest(
                "query representation incompatible with the loaded payload",
            ));
        }
        if shape.float_linear_only
            && !matches!(
                req.query,
                OwnedQuery::Euclidean(_) | OwnedQuery::Manhattan(_)
            )
        {
            return Err(ServeError::BadRequest(
                "mutable store serves Euclidean/Manhattan queries only",
            ));
        }
        if req.query.len() != shape.len {
            return Err(ServeError::BadRequest(
                "query length mismatches the loaded dataset",
            ));
        }

        let now = Instant::now();
        let tenant_qos = self.shared.config.qos.get(req.tenant);
        let timeout = req
            .timeout
            .or(tenant_qos.default_timeout)
            .or(self.shared.config.default_timeout);
        let min_coverage = tenant_qos
            .min_coverage
            .unwrap_or(self.shared.config.faults.min_coverage);
        let (tx, rx) = mpsc::channel();
        let pending = Pending {
            key: BatchKey {
                metric: req.query.metric(),
                k: req.k,
                hw_queue: shape.hw_queue,
                tenant: req.tenant,
            },
            query: req.query,
            k: req.k,
            enqueued: now,
            deadline: timeout.map(|t| now + t),
            min_coverage,
            degraded_retries: 0,
            panic_retries: 0,
            tx,
        };

        {
            let mut st = self.shared.state.lock().expect("serve queue lock");
            if !st.open {
                return Err(ServeError::ShuttingDown);
            }
            if tenant_qos.rate.is_some() {
                let bucket = st
                    .buckets
                    .entry(req.tenant)
                    .or_insert_with(|| TokenBucket::new(tenant_qos, now));
                if !bucket.try_admit(tenant_qos, now) {
                    st.stats.rejected_rate_limited += 1;
                    return Err(ServeError::RateLimited { tenant: req.tenant });
                }
            }
            if st.pending.len() >= self.shared.config.queue_capacity {
                st.stats.rejected_overload += 1;
                return Err(ServeError::Overloaded {
                    capacity: self.shared.config.queue_capacity,
                });
            }
            st.stats.submitted += 1;
            st.pending.push_back(pending);
        }
        self.shared.wake.notify_all();
        Ok(Ticket { rx })
    }

    /// Submits and blocks for the response: `submit(req)?.wait()`.
    pub fn query(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// Inserts (or updates) `uid` in the mutable store behind a
    /// [`Server::start_store`] or [`Server::start_sharded_store`]
    /// backend. The write is applied WAL-first and synchronously: once
    /// this returns, every subsequent query sees it. The routed ack
    /// names the shard that took the write, the replicas that applied
    /// it, whether it failed over to a standby replica's WAL, and
    /// whether it tripped an automatic memtable seal
    /// ([`ShardWriteAck::sealed`]); a single-module store acks shard 0,
    /// one replica.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] without a store backend or on a
    /// wrong-length vector, [`ServeError::ShuttingDown`] once shutdown
    /// began, [`ServeError::ShardUnavailable`] when every replica of the
    /// target shard is down.
    pub fn insert(&self, uid: u32, vector: &[f32]) -> Result<ShardWriteAck, ServeError> {
        let result = self
            .writable_store()
            .and_then(|store| store.insert(uid, vector).map_err(store_error));
        self.count_write(&result, true);
        result
    }

    /// Deletes `uid` from the mutable store (blind deletes are
    /// accepted — the tombstone is recorded either way). Synchronous and
    /// routed like [`ServerHandle::insert`].
    ///
    /// # Errors
    /// As [`ServerHandle::insert`], bar the vector length.
    pub fn delete(&self, uid: u32) -> Result<ShardWriteAck, ServeError> {
        let result = self
            .writable_store()
            .and_then(|store| store.delete(uid).map_err(store_error));
        self.count_write(&result, false);
        result
    }

    /// Updates the write counters for one settled write.
    fn count_write(&self, result: &Result<ShardWriteAck, ServeError>, is_insert: bool) {
        let mut st = self.shared.state.lock().expect("serve queue lock");
        match result {
            Ok(_) if is_insert => st.stats.inserts += 1,
            Ok(_) => st.stats.deletes += 1,
            Err(ServeError::ShardUnavailable { .. }) => st.stats.rejected_shard_down += 1,
            Err(_) => {}
        }
    }

    /// The store backend, if this server has one and is still accepting
    /// writes.
    fn writable_store(&self) -> Result<&StoreBackend, ServeError> {
        let Some(backend) = &self.shared.store else {
            return Err(ServeError::BadRequest(
                "server has no mutable store backend",
            ));
        };
        if !self.shared.state.lock().expect("serve queue lock").open {
            return Err(ServeError::ShuttingDown);
        }
        Ok(backend)
    }
}

/// Maps a store failure onto the serving error surface. Admission
/// rejects malformed reads and writes before they reach the store, so
/// in practice only device faults and shard refusals land here.
fn store_error(e: StoreError) -> ServeError {
    match e {
        StoreError::DimsMismatch { .. } => {
            ServeError::BadRequest("vector length mismatches the store dims")
        }
        StoreError::UnsupportedMetric => {
            ServeError::BadRequest("mutable store serves Euclidean/Manhattan queries only")
        }
        StoreError::ZeroK => ServeError::BadRequest("k must be positive"),
        StoreError::Device(e) => ServeError::Device(e),
        StoreError::ShardUnavailable { shard } => ServeError::ShardUnavailable { shard },
        // Only `Store::open` returns it; a serving store never does.
        StoreError::CorruptWal { .. } => ServeError::BadRequest("corrupt WAL record"),
        StoreError::SeqExhausted => {
            ServeError::BadRequest("store sequence numbers exhausted, write refused")
        }
    }
}

/// The pending side of one submitted request.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Blocks until the request is served or rejected. Never hangs: a
    /// draining server completes every admitted request before its
    /// workers exit.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Non-blocking poll; `None` while the request is still queued or
    /// executing.
    pub fn try_wait(&self) -> Option<Result<Response, ServeError>> {
        self.rx.try_recv().ok()
    }
}

/// Removes `idx` (ascending, in-range) from the deque, returning the
/// removed requests in their original order.
fn take_indices(q: &mut VecDeque<Pending>, idx: &[usize]) -> Vec<Pending> {
    let mut out: Vec<Pending> = idx
        .iter()
        .rev()
        .map(|&i| q.remove(i).expect("batcher index in range"))
        .collect();
    out.reverse();
    out
}

fn worker_loop(shared: &Shared, engine: &mut Engine) {
    let cfg = &shared.config;
    loop {
        // Decide under the lock (see `batcher` for the state machine).
        let decision: Option<(Vec<Pending>, u64)> = {
            let mut st = shared.state.lock().expect("serve queue lock");
            loop {
                let now = Instant::now();
                let metas: Vec<PendingMeta> = st.pending.iter().map(Pending::meta).collect();
                let drain = !st.open;
                let p = plan(
                    &metas,
                    now,
                    cfg.max_batch,
                    cfg.max_linger,
                    drain,
                    &cfg.qos,
                    &st.fair,
                );

                // Deadline-expired requests are rejected before staging;
                // indices are then stale, so re-plan.
                if !p.expired.is_empty() {
                    let dead = take_indices(&mut st.pending, &p.expired);
                    st.stats.rejected_deadline += dead.len() as u64;
                    for r in dead {
                        let missed =
                            now.saturating_duration_since(r.deadline.expect("expired ⇒ deadline"));
                        let _ =
                            r.tx.send(Err(ServeError::DeadlineExceeded { missed_by: missed }));
                    }
                    continue;
                }

                match p.action {
                    Action::Flush(idx) => {
                        let batch = take_indices(&mut st.pending, &idx);
                        let tenant = batch[0].key.tenant;
                        st.fair
                            .charge(tenant, batch.len(), cfg.qos.get(tenant).weight);
                        let seq = st.batches_started;
                        st.batches_started += 1;
                        if !st.pending.is_empty() {
                            // Leftover work (another key, or overflow past
                            // max_batch): wake a sibling before executing.
                            shared.wake.notify_all();
                        }
                        break Some((batch, seq));
                    }
                    Action::Wait(timeout) => {
                        let (guard, _) = shared
                            .wake
                            .wait_timeout(st, timeout)
                            .expect("serve queue lock");
                        st = guard;
                    }
                    Action::Idle => {
                        if !st.open {
                            break None; // drained and closed: exit
                        }
                        st = shared.wake.wait(st).expect("serve queue lock");
                    }
                }
            }
        };
        let Some((batch, seq)) = decision else { return };
        execute_batch(shared, engine, batch, seq);
    }
}

/// Executes one coalesced batch outside the queue lock and completes
/// every member request — with results, a typed backend error, or
/// `WorkerPanicked` if the execution unwound.
fn execute_batch(shared: &Shared, engine: &mut Engine, batch: Vec<Pending>, seq: u64) {
    let k = batch[0].k;
    let n = batch.len();
    // Fault storms confined to specific tenants: batches are
    // single-tenant, so toggling the plan per batch confines injection
    // exactly. (Recovery re-clones the template, which carries the plan,
    // so the toggle is re-applied every batch.)
    if let (Some(storm), Some(plan)) = (
        &shared.config.faults.storm_tenants,
        &shared.config.faults.plan,
    ) {
        let stormy = storm.contains(&batch[0].key.tenant);
        engine.set_fault_plan(stormy.then(|| Arc::clone(plan)));
    }
    let formed = Instant::now();
    let inject = shared.config.faults.panic_on_batch == Some(seq);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        assert!(!inject, "injected fault (ServeFaults::panic_on_batch)");
        engine.execute(&batch, k)
    }));
    let service_seconds = formed.elapsed().as_secs_f64();

    match outcome {
        Ok(Ok(results)) => {
            let budget = shared.config.degraded_retry_budget();
            let mut served = 0u64;
            let mut degraded = 0u64;
            let mut retry: Vec<Pending> = Vec::new();
            let mut complete: Vec<(Pending, Result<Response, ServeError>)> = Vec::new();
            for (mut p, (neighbors, account, coverage)) in batch.into_iter().zip(results) {
                if coverage < p.min_coverage {
                    if p.degraded_retries < budget {
                        // Under-covered: spend retry budget. A fresh
                        // execution samples fresh (still deterministic)
                        // faults, so lost vaults usually come back.
                        p.degraded_retries += 1;
                        retry.push(p);
                    } else {
                        degraded += 1;
                        complete.push((p, Err(ServeError::Degraded { coverage })));
                    }
                    continue;
                }
                served += 1;
                let queue_seconds = formed.duration_since(p.enqueued).as_secs_f64();
                let response = Response {
                    neighbors,
                    account,
                    batch_size: n,
                    queue_seconds,
                    service_seconds,
                    coverage,
                };
                complete.push((p, Ok(response)));
            }
            {
                let mut st = shared.state.lock().expect("serve queue lock");
                st.stats.served += served;
                st.stats.degraded += degraded;
                st.stats.retried_degraded += retry.len() as u64;
                st.stats.batches += 1;
                if st.stats.batch_hist.len() <= n {
                    st.stats.batch_hist.resize(n + 1, 0);
                }
                st.stats.batch_hist[n] += 1;
                for p in retry {
                    st.pending.push_back(p);
                }
            }
            shared.wake.notify_all();
            for (p, result) in complete {
                let _ = p.tx.send(result);
            }
        }
        Ok(Err(e)) => {
            shared.state.lock().expect("serve queue lock").stats.failed += n as u64;
            for p in batch {
                let _ = p.tx.send(Err(e.clone()));
            }
        }
        Err(_) => {
            // The device clone may be mid-mutation; discard it for a
            // pristine copy of the template and keep serving. Requests
            // that merely shared the batch with whatever caused the
            // panic get one solo retry; a singleton batch (or a request
            // that already survived one panic) is the prime suspect and
            // fails outright.
            engine.recover();
            let mut fail: Vec<Pending> = Vec::new();
            let mut retry: Vec<Pending> = Vec::new();
            for mut p in batch {
                if n == 1 || p.panic_retries >= 1 {
                    fail.push(p);
                } else {
                    p.panic_retries += 1;
                    retry.push(p);
                }
            }
            {
                let mut st = shared.state.lock().expect("serve queue lock");
                st.stats.failed += fail.len() as u64;
                st.stats.retried_panic += retry.len() as u64;
                st.stats.worker_panics += 1;
                for p in retry {
                    st.pending.push_back(p);
                }
            }
            shared.wake.notify_all();
            for p in fail {
                let _ = p.tx.send(Err(ServeError::WorkerPanicked));
            }
        }
    }
}
