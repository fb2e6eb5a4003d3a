//! # ssam-store — mutable dataset subsystem for the SSAM device
//!
//! The paper's accelerator serves an *immutable* dataset: vectors are
//! staged into vault DRAM once and queried forever. Every production
//! similarity-search deployment instead takes online writes — new
//! embeddings arrive, old ones are deleted — while continuing to serve.
//! This crate layers an LSM-lite storage lifecycle onto the existing
//! device to close that gap:
//!
//! * **Write path** — every mutation appends a CRC-framed record to a
//!   write-ahead log ([`wal`]) before it is applied, then lands in an
//!   in-memory *memtable*. Memtable candidates are scanned host-side
//!   through [`ssam_core::device::raw_distance`] — the exact Q16.16
//!   arithmetic the vault kernels execute — so host-resident vectors
//!   rank bit-identically to staged ones.
//! * **Seal** — when the memtable reaches capacity (or on demand) it is
//!   drained, in id order, into an immutable *segment*: a fresh
//!   [`SsamDevice`] staged across vault shards through the existing
//!   interleaving. The seal *decision* is itself WAL-logged, so replay
//!   reproduces segment boundaries without re-running policy.
//! * **Deletes / updates** — tombstones and newer versions supersede
//!   older resident copies. A superseded segment row is marked in its
//!   segment's stale-row mask, and reads skip it unread.
//! * **Compaction** — when a level holds more than `fanout` segments,
//!   [`Store::compact_step`] merges it into the next level, dropping
//!   dead entries and purging fully-superseded tombstones. Compaction
//!   decisions are WAL-logged too ([`wal::WalRecord::Compact`]).
//! * **Recovery** — [`Store::open`] replays a WAL byte image through
//!   the *same* apply functions live writes use, truncating any torn
//!   tail at the first bad CRC. Recovery is bit-identical: the
//!   `store_recovery` proptests assert [`Store::snapshot`] equality
//!   against a fresh store fed the surviving prefix of operations, with
//!   torn-tail cut points drawn from [`ssam_faults::CrashSpec`].
//!
//! ## Consistency model
//!
//! The store is a single-writer sequentially-consistent map from `uid`
//! to the latest-sequence vector. A global index records, per uid, the
//! winning sequence number and its location (memtable, a segment, or a
//! tombstone); a resident copy is *visible* iff its `(uid, seq)` pair
//! matches the index, and the segment rows that are not are exactly the
//! ones in their segment's stale-row mask. A read fills one bounded
//! top-k per query from the memtable, then from every segment in turn:
//! each segment skips its masked rows and abandons any candidate whose
//! raw distance has reached the query's running k-th, cut strictly in
//! the shared deterministic `(distance, id)` order
//! ([`ssam_knn::topk::TopK`]). So a reader mid-compaction sees exactly
//! the live set, never a duplicate and never a deleted vector. The
//! `store_equivalence` proptests pin this down: at every point of a
//! random insert/delete/seal/compact interleaving, [`Store::query`] is
//! bit-identical to a fresh immutable device built from
//! [`Store::live_set`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shard;
pub mod wal;

pub use shard::{ShardRecovery, ShardWriteAck, ShardedStore, ShardedStoreConfig, WriteFaultLedger};
pub use wal::{decode_stream, Wal, WalRecord, WalSync};

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use ssam_core::device::{
    raw_distance, BatchResult, DeviceMetric, DeviceQuery, RowMask, SsamConfig, SsamDevice,
};
use ssam_core::sim::pu::SimError;
use ssam_core::telemetry::{SegmentAccount, StoreAccount, Telemetry};
use ssam_faults::{FaultPlan, FaultRecord};
use ssam_knn::fixed::Fix32;
use ssam_knn::topk::TopK;
use ssam_knn::{Neighbor, VectorStore};

/// Configuration for a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Device configuration every sealed segment is instantiated with.
    pub device: SsamConfig,
    /// Dimensionality of stored vectors.
    pub dims: usize,
    /// Memtable entries that trigger an automatic seal on insert.
    pub memtable_capacity: usize,
    /// Segments a level may hold before it owes a compaction.
    pub fanout: usize,
    /// WAL durability policy: when appended records are flushed to
    /// stable storage. Default [`WalSync::EveryRecord`] — acknowledged
    /// writes survive any crash minus at most one torn record.
    pub sync: WalSync,
}

impl StoreConfig {
    /// A store for `dims`-dimensional vectors with default policy
    /// (device defaults, 256-entry memtable, fanout 4).
    pub fn new(dims: usize) -> Self {
        StoreConfig {
            device: SsamConfig::default(),
            dims,
            memtable_capacity: 256,
            fanout: 4,
            sync: WalSync::EveryRecord,
        }
    }
}

/// Errors the store surfaces to callers.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An inserted or queried vector does not match the store's dims.
    DimsMismatch {
        /// Configured dimensionality.
        expected: usize,
        /// Offending vector's length.
        got: usize,
    },
    /// Queries support the linear float kernels only (Euclidean /
    /// Manhattan); cosine and binary Hamming payloads are not mutable.
    UnsupportedMetric,
    /// `k == 0` is a degenerate request.
    ZeroK,
    /// A segment device failed to execute the query.
    Device(SimError),
    /// Every replica module of the target shard is down; the write has
    /// no WAL to land on (sharded store only).
    ShardUnavailable {
        /// The shard whose replica set is exhausted.
        shard: usize,
    },
    /// A CRC-valid WAL record that this store could not have written:
    /// a `Compact` for a level the replay has not built, or a record at
    /// `seq == u64::MAX` (no seq follows it). [`ShardedStore::open`]
    /// also rejects a data record for a uid another shard owns, and one
    /// at a seq a sibling replica holds with a different record.
    /// Returned by the two `open`s only.
    CorruptWal {
        /// 0-based index of the offending record in the replayed prefix.
        record: usize,
    },
    /// The write would take a sequence number the WAL cannot recover: a
    /// data record above `u64::MAX − 2`. Refused before anything is
    /// appended, so every acknowledged write reopens.
    SeqExhausted,
}

/// The largest sequence number a data record may take. A record at
/// `u64::MAX` has no successor and `open` rejects it, and an insert can
/// trip a seal that takes the next seq, so inserts and deletes stop two
/// short of it; seals and compactions stop at `u64::MAX − 1`.
pub(crate) const MAX_WRITE_SEQ: u64 = u64::MAX - 2;

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::DimsMismatch { expected, got } => {
                write!(f, "vector has {got} dims, store holds {expected}")
            }
            StoreError::UnsupportedMetric => {
                write!(f, "mutable store serves Euclidean/Manhattan queries only")
            }
            StoreError::ZeroK => write!(f, "k must be positive"),
            StoreError::Device(e) => write!(f, "segment device error: {e}"),
            StoreError::ShardUnavailable { shard } => {
                write!(f, "shard {shard}: every replica is down, write refused")
            }
            StoreError::CorruptWal { record } => {
                write!(
                    f,
                    "WAL record {record} could not have been written by this store"
                )
            }
            StoreError::SeqExhausted => write!(f, "sequence numbers exhausted, write refused"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<SimError> for StoreError {
    fn from(e: SimError) -> Self {
        StoreError::Device(e)
    }
}

/// Acknowledgment for one accepted write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// Sequence number the write was assigned.
    pub seq: u64,
    /// True when the write tripped an automatic memtable seal.
    pub sealed: bool,
    /// WAL length after the write (what a durable deployment would have
    /// fsynced).
    pub wal_len: u64,
}

/// What [`Store::open`] recovered from a WAL image — the typed report
/// callers (and `ServerStats` / the `serve_load` JSON) surface instead
/// of a silent truncation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Records replayed from the valid prefix.
    pub replayed: usize,
    /// Torn-tail bytes truncated away.
    pub truncated: u64,
    /// Segments rebuilt while replaying logged seal/compact decisions.
    pub segments_rebuilt: usize,
}

impl Recovery {
    /// Folds another module's recovery into this aggregate.
    pub fn accumulate(&mut self, other: &Recovery) {
        self.replayed += other.replayed;
        self.truncated += other.truncated;
        self.segments_rebuilt += other.segments_rebuilt;
    }
}

/// Result of one store query.
#[derive(Debug, Clone, Default)]
pub struct StoreQueryResult {
    /// Exact top-k over the visible (live) set, best first.
    pub neighbors: Vec<Neighbor>,
    /// Slowest segment's simulated device seconds (segments scan in
    /// parallel across the device, like vaults within one).
    pub device_seconds: f64,
    /// Total device energy across all segments, millijoules.
    pub energy_mj: f64,
    /// Segments that executed a device query.
    pub segments_scanned: usize,
    /// Memtable candidates scanned host-side.
    pub memtable_scanned: usize,
    /// Stale rows (superseded or tombstoned) the scanned segments masked
    /// out of the scan: the sum of their stale counts.
    pub suppressed: usize,
    /// Aggregate fault accounting across all segment queries, with the
    /// memtable scan counted as covered host work.
    pub faults: FaultRecord,
}

impl StoreQueryResult {
    /// Fraction of the visible candidate set actually scanned.
    pub fn coverage(&self) -> f64 {
        self.faults.coverage()
    }
}

/// The device query `q` makes under `metric`; a mutable store serves
/// the linear float kernels only.
fn linear_query(q: &[f32], metric: DeviceMetric) -> Result<DeviceQuery<'_>, StoreError> {
    match metric {
        DeviceMetric::Euclidean => Ok(DeviceQuery::Euclidean(q)),
        DeviceMetric::Manhattan => Ok(DeviceQuery::Manhattan(q)),
        DeviceMetric::Cosine | DeviceMetric::Hamming => Err(StoreError::UnsupportedMetric),
    }
}

/// Checks a read batch against a store of `dims`-dimensional vectors,
/// returning each query's floats and metric.
fn linear_batch<'q>(
    queries: &[DeviceQuery<'q>],
    k: usize,
    dims: usize,
) -> Result<Vec<(&'q [f32], DeviceMetric)>, StoreError> {
    if k == 0 {
        return Err(StoreError::ZeroK);
    }
    queries
        .iter()
        .map(|dq| {
            let (DeviceQuery::Euclidean(q) | DeviceQuery::Manhattan(q)) = *dq else {
                return Err(StoreError::UnsupportedMetric);
            };
            if q.len() != dims {
                return Err(StoreError::DimsMismatch {
                    expected: dims,
                    got: q.len(),
                });
            }
            Ok((q, dq.metric()))
        })
        .collect()
}

/// Cumulative lifecycle counters, exposed for benches and smokes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreStats {
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// WAL bytes flushed to stable storage per the [`WalSync`] policy
    /// (equals `wal_bytes` under [`WalSync::EveryRecord`]).
    pub wal_durable_bytes: u64,
    /// Caller payload bytes accepted.
    pub payload_bytes: u64,
    /// Bytes staged into segment devices across seals + compactions.
    pub staged_bytes: u64,
    /// Memtable seals performed.
    pub seals: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Host wall-clock seconds spent sealing (stall while the write
    /// path is blocked).
    pub seal_seconds: f64,
    /// Host wall-clock seconds spent compacting.
    pub compact_seconds: f64,
    /// Longest single compaction, seconds.
    pub max_compact_seconds: f64,
    /// Segments currently resident.
    pub segments: usize,
    /// Levels currently holding at least one segment.
    pub levels: usize,
}

/// One stored vector: the caller's floats plus the padded Q16.16 words
/// the memtable scan (and, post-seal, the vault shards) rank by.
#[derive(Debug, Clone, PartialEq)]
struct StoredVec {
    floats: Vec<f32>,
    words: Vec<i32>,
}

/// Where a uid's winning version lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Memtable,
    Segment(u64),
    Dead,
}

/// Index entry: the latest sequence number for a uid and its location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    seq: u64,
    loc: Loc,
}

/// One resident row of a segment.
#[derive(Debug, Clone)]
struct SegEntry {
    uid: u32,
    seq: u64,
    data: Arc<StoredVec>,
}

/// An immutable sealed segment: entries in uid order (so device-local
/// ids are uid-ordered, preserving tie-break order), staged onto a
/// dedicated device instance.
#[derive(Debug, Clone)]
struct Segment {
    id: u64,
    entries: Vec<SegEntry>,
    device: SsamDevice,
    /// Rows (entry positions) since superseded by a newer version or a
    /// tombstone. Reads mask them out of the scan.
    stale: RowMask,
}

impl Segment {
    /// Runs one device batch over this segment for queries whose running
    /// top-k's are `tops`: stale rows are masked out, and each query is
    /// cut at the first raw distance its current k-th rules out.
    fn query_batch(
        &mut self,
        queries: &[DeviceQuery<'_>],
        k: usize,
        tops: &[TopK],
    ) -> Result<BatchResult, SimError> {
        let cuts: Vec<Option<i32>> = tops.iter().map(|t| raw_cut(t.bound())).collect();
        self.device
            .query_batch_masked(queries, k, &self.stale, &cuts)
    }
}

/// The smallest raw Q16.16 distance whose [`Fix32::to_f32`] is strictly
/// greater than `bound`, or `None` when there is none (a top-k not yet
/// full has an infinite bound).
///
/// A candidate at or past this raw value has a float distance strictly
/// beyond a full [`TopK`]'s bound, so it cannot enter whatever its uid.
/// A candidate below it may tie the bound in `f32` and still enter with
/// a smaller uid; uids do not ascend from one segment to the next, and
/// `to_f32` maps many raw values above 2²⁴ to one float, so neither the
/// bound itself nor its raw image is a safe cut. `to_f32` never
/// decreases as the raw value grows, so a binary search over the 2³²
/// raw values finds the cut in 32 steps.
fn raw_cut(bound: f32) -> Option<i32> {
    let above = |raw: i64| Fix32(raw as i32).to_f32() > bound;
    // Invariant: `hi` is above the bound, and `lo` is not (or lies below
    // every raw value).
    let (mut lo, mut hi) = (i64::from(i32::MIN) - 1, i64::from(i32::MAX));
    if !above(hi) {
        return None;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if above(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi as i32)
}

/// The mutable vector store. Single-writer: all mutation and query
/// methods take `&mut self` (queries advance segment devices' fault
/// sequence counters); share across threads behind a `Mutex`.
#[derive(Debug, Clone)]
pub struct Store {
    config: StoreConfig,
    vec_words: usize,
    wal: Wal,
    next_seq: u64,
    memtable: BTreeMap<u32, Arc<StoredVec>>,
    index: BTreeMap<u32, IndexEntry>,
    levels: Vec<Vec<Segment>>,
    next_segment_id: u64,
    telemetry: Option<Telemetry>,
    faults: Option<Arc<FaultPlan>>,
    /// Offset added to every segment's fault scope; a sharded store
    /// gives each replica module a disjoint base so their segments draw
    /// decorrelated fault streams from a shared plan.
    fault_scope_base: u64,
    /// The report from [`Store::open`], `None` for a created store.
    recovery: Option<Recovery>,
    payload_bytes: u64,
    staged_bytes: u64,
    seals: u64,
    compactions: u64,
    seal_seconds: f64,
    compact_seconds: f64,
    max_compact_seconds: f64,
}

impl Store {
    /// Creates an empty store.
    ///
    /// # Panics
    /// Panics if `dims`, `memtable_capacity`, or `fanout` is zero.
    pub fn create(config: StoreConfig) -> Self {
        assert!(config.dims > 0, "dims must be positive");
        assert!(
            config.memtable_capacity > 0,
            "memtable capacity must be positive"
        );
        assert!(config.fanout > 0, "fanout must be positive");
        let vl = config.device.vector_length;
        let vec_words = config.dims.div_ceil(vl) * vl;
        Store {
            config,
            vec_words,
            wal: Wal::new(),
            next_seq: 1,
            memtable: BTreeMap::new(),
            index: BTreeMap::new(),
            levels: Vec::new(),
            next_segment_id: 0,
            telemetry: None,
            faults: None,
            fault_scope_base: 0,
            recovery: None,
            payload_bytes: 0,
            staged_bytes: 0,
            seals: 0,
            compactions: 0,
            seal_seconds: 0.0,
            compact_seconds: 0.0,
            max_compact_seconds: 0.0,
        }
    }

    /// Recovers a store from a WAL byte image: truncates any torn tail
    /// at the first bad frame, then replays the valid prefix through
    /// the same apply path live writes use. The result is bit-identical
    /// to the store state at the moment the last surviving record was
    /// appended.
    ///
    /// # Errors
    /// [`StoreError::DimsMismatch`] if a replayed insert does not match
    /// `config.dims` (the image belongs to a different store), and
    /// [`StoreError::CorruptWal`] at the first record this store could
    /// not have written.
    pub fn open(config: StoreConfig, wal_bytes: &[u8]) -> Result<(Self, Recovery), StoreError> {
        let mut store = Store::create(config);
        let (wal, records) = Wal::from_bytes(wal_bytes);
        let truncated = wal_bytes.len() as u64 - wal.len();
        let replayed = records.len();
        let mut segments_rebuilt = 0usize;
        store.wal = wal;
        for (i, r) in records.into_iter().enumerate() {
            let seq = r.seq();
            let unbuilt = matches!(r, WalRecord::Compact { level, .. }
                if level as usize >= store.levels.len());
            if seq == u64::MAX || unbuilt {
                return Err(StoreError::CorruptWal { record: i });
            }
            match r {
                WalRecord::Insert { uid, seq, vector } => {
                    if vector.len() != store.config.dims {
                        return Err(StoreError::DimsMismatch {
                            expected: store.config.dims,
                            got: vector.len(),
                        });
                    }
                    store.payload_bytes += (vector.len() * 4) as u64;
                    store.apply_insert(uid, seq, vector);
                }
                WalRecord::Delete { uid, seq } => store.apply_delete(uid, seq),
                WalRecord::Seal { .. } => {
                    if store.apply_seal() {
                        segments_rebuilt += 1;
                    }
                }
                WalRecord::Compact { level, .. } => {
                    if store.apply_compact(level as usize) {
                        segments_rebuilt += 1;
                    }
                }
            }
            store.next_seq = store.next_seq.max(seq + 1);
        }
        let recovery = Recovery {
            replayed,
            truncated,
            segments_rebuilt,
        };
        store.recovery = Some(recovery);
        Ok((store, recovery))
    }

    /// The recovery report from [`Store::open`]; `None` for a store
    /// built by [`Store::create`].
    pub fn recovery(&self) -> Option<Recovery> {
        self.recovery
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Padded Q16.16 words per stored vector (shard row width).
    pub fn vec_words(&self) -> usize {
        self.vec_words
    }

    /// The next sequence number this store would assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The full WAL image — what a durable deployment would have on
    /// disk. Hand it to [`Store::open`] to recover.
    pub fn wal_bytes(&self) -> &[u8] {
        self.wal.bytes()
    }

    /// The WAL image a crash at torn-tail point `cut` leaves behind:
    /// the synced watermark always survives, unsynced bytes only up to
    /// `cut`. Feed the result to [`Store::open`].
    pub fn crash_wal_image(&self, cut: u64) -> &[u8] {
        self.wal.crash_image(cut)
    }

    /// Visible (live) vectors across memtable and segments.
    pub fn live_len(&self) -> usize {
        self.index
            .values()
            .filter(|e| !matches!(e.loc, Loc::Dead))
            .count()
    }

    /// True when no vector is visible.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// Attaches a telemetry sink: future segment devices report their
    /// query records to it, and [`Store::record_account`] posts store
    /// accounts. Existing segments are re-attached.
    pub fn attach_telemetry(&mut self, sink: &Telemetry) {
        self.telemetry = Some(sink.clone());
        for level in &mut self.levels {
            for seg in level {
                seg.device.attach_telemetry(sink);
            }
        }
    }

    /// Installs (or clears) a fault plan on every segment device,
    /// present and future. Each segment keys its fault stream by its
    /// store-wide segment id, so outcomes are stable across compaction
    /// of *other* segments.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan.clone();
        for level in &mut self.levels {
            for seg in level {
                seg.device.set_fault_plan(plan.clone());
                seg.device.set_fault_scope(self.fault_scope_base + seg.id);
            }
        }
    }

    /// Offsets every segment's fault scope by `base` (present segments
    /// are re-scoped; future ones inherit it). A sharded store assigns
    /// each replica module a disjoint base so replicas of the same data
    /// draw independent fault streams — a fault on one replica must not
    /// imply a fault on its twin.
    pub fn set_fault_scope_base(&mut self, base: u64) {
        self.fault_scope_base = base;
        for level in &mut self.levels {
            for seg in level {
                seg.device.set_fault_scope(base + seg.id);
            }
        }
    }

    /// Quantizes and zero-pads a vector exactly as
    /// [`SsamDevice::load_vectors`] stages it.
    fn quantize(&self, v: &[f32]) -> Vec<i32> {
        let mut words = Vec::with_capacity(self.vec_words);
        for &x in v {
            words.push(Fix32::from_f32(x).0);
        }
        words.resize(self.vec_words, 0);
        words
    }

    /// Finds a segment by store-wide id.
    fn segment(&self, sid: u64) -> &Segment {
        self.levels
            .iter()
            .flatten()
            .find(|s| s.id == sid)
            .expect("index points at a resident segment")
    }

    /// Marks `uid`'s row in segment `sid` stale: superseded by a newer
    /// version or a tombstone.
    fn mark_stale(&mut self, sid: u64, uid: u32) {
        let seg = self
            .levels
            .iter_mut()
            .flatten()
            .find(|s| s.id == sid)
            .expect("index points at a resident segment");
        let row = seg
            .entries
            .binary_search_by_key(&uid, |e| e.uid)
            .expect("index points at a resident entry");
        let fresh = seg.stale.insert(row as u32);
        debug_assert!(fresh, "a row goes stale once");
    }

    fn apply_insert(&mut self, uid: u32, seq: u64, vector: Vec<f32>) {
        // Latest sequence wins regardless of WAL position: a live write
        // stream is monotonic so this never triggers, but sharded
        // anti-entropy appends missed records *behind* newer ones — a
        // stale version must not clobber the winner.
        if self.index.get(&uid).is_some_and(|cur| cur.seq > seq) {
            return;
        }
        let words = self.quantize(&vector);
        let sv = Arc::new(StoredVec {
            floats: vector,
            words,
        });
        let old = self.index.insert(
            uid,
            IndexEntry {
                seq,
                loc: Loc::Memtable,
            },
        );
        if let Some(IndexEntry {
            loc: Loc::Segment(sid),
            ..
        }) = old
        {
            self.mark_stale(sid, uid);
        }
        self.memtable.insert(uid, sv);
    }

    fn apply_delete(&mut self, uid: u32, seq: u64) {
        if self.index.get(&uid).is_some_and(|cur| cur.seq > seq) {
            return;
        }
        let old = self.index.insert(
            uid,
            IndexEntry {
                seq,
                loc: Loc::Dead,
            },
        );
        match old {
            Some(IndexEntry {
                loc: Loc::Memtable, ..
            }) => {
                self.memtable.remove(&uid);
            }
            Some(IndexEntry {
                loc: Loc::Segment(sid),
                ..
            }) => self.mark_stale(sid, uid),
            _ => {}
        }
    }

    /// Drains the memtable into a new level-0 segment. Returns `false`
    /// (and does nothing) when the memtable is empty.
    fn apply_seal(&mut self) -> bool {
        if self.memtable.is_empty() {
            return false;
        }
        let started = Instant::now();
        let mut entries = Vec::with_capacity(self.memtable.len());
        let mut floats = VectorStore::new(self.config.dims);
        let memtable = std::mem::take(&mut self.memtable);
        for (uid, data) in memtable {
            let seq = self.index[&uid].seq;
            floats.push(&data.floats);
            entries.push(SegEntry { uid, seq, data });
        }
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        let mut device = SsamDevice::new(self.config.device);
        device.load_vectors(&floats);
        if let Some(sink) = &self.telemetry {
            device.attach_telemetry(sink);
        }
        device.set_fault_plan(self.faults.clone());
        device.set_fault_scope(self.fault_scope_base + id);
        for e in &entries {
            self.index.insert(
                e.uid,
                IndexEntry {
                    seq: e.seq,
                    loc: Loc::Segment(id),
                },
            );
        }
        self.staged_bytes += (entries.len() * self.vec_words * 4) as u64;
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(Segment {
            id,
            entries,
            device,
            stale: RowMask::default(),
        });
        self.seals += 1;
        self.seal_seconds += started.elapsed().as_secs_f64();
        true
    }

    /// Merges `level` and `level + 1` into one segment on `level + 1`,
    /// keeping only visible entries and purging tombstones that no
    /// longer shadow any resident copy. Returns true when the merge
    /// produced a segment (false when every drained entry was dead).
    fn apply_compact(&mut self, level: usize) -> bool {
        let started = Instant::now();
        while self.levels.len() <= level + 1 {
            self.levels.push(Vec::new());
        }
        let mut drained: Vec<Segment> = self.levels[level].drain(..).collect();
        drained.append(&mut self.levels[level + 1]);
        // Keep exactly the visible entries: (uid, seq) matches the
        // index and the index points at the segment holding the copy.
        // Visibility is unique per uid, so the merge has no conflicts;
        // BTreeMap keeps the merged segment in uid order.
        let mut merged: BTreeMap<u32, SegEntry> = BTreeMap::new();
        for seg in &drained {
            for e in &seg.entries {
                if self.index.get(&e.uid)
                    == Some(&IndexEntry {
                        seq: e.seq,
                        loc: Loc::Segment(seg.id),
                    })
                {
                    merged.insert(e.uid, e.clone());
                }
            }
        }
        drop(drained);
        let built = !merged.is_empty();
        if !merged.is_empty() {
            let mut entries = Vec::with_capacity(merged.len());
            let mut floats = VectorStore::new(self.config.dims);
            for (_, e) in merged {
                floats.push(&e.data.floats);
                entries.push(e);
            }
            let id = self.next_segment_id;
            self.next_segment_id += 1;
            let mut device = SsamDevice::new(self.config.device);
            device.load_vectors(&floats);
            if let Some(sink) = &self.telemetry {
                device.attach_telemetry(sink);
            }
            device.set_fault_plan(self.faults.clone());
            device.set_fault_scope(self.fault_scope_base + id);
            for e in &entries {
                self.index.insert(
                    e.uid,
                    IndexEntry {
                        seq: e.seq,
                        loc: Loc::Segment(id),
                    },
                );
            }
            self.staged_bytes += (entries.len() * self.vec_words * 4) as u64;
            self.levels[level + 1].push(Segment {
                id,
                entries,
                device,
                stale: RowMask::default(),
            });
        }
        // Tombstones whose uid is resident in no segment no longer
        // shadow anything — purge them so the index does not grow
        // without bound under churn. (A memtable uid is never Dead.)
        let resident: BTreeSet<u32> = self
            .levels
            .iter()
            .flatten()
            .flat_map(|s| s.entries.iter().map(|e| e.uid))
            .collect();
        self.index
            .retain(|uid, e| !matches!(e.loc, Loc::Dead) || resident.contains(uid));
        while self.levels.last().is_some_and(Vec::is_empty) {
            self.levels.pop();
        }
        self.compactions += 1;
        let took = started.elapsed().as_secs_f64();
        self.compact_seconds += took;
        self.max_compact_seconds = self.max_compact_seconds.max(took);
        built
    }

    /// Inserts (or updates) `uid` with `vector`. The write is WAL-first:
    /// the record is appended before any state changes. Trips an
    /// automatic seal when the memtable reaches capacity.
    ///
    /// # Errors
    /// [`StoreError::DimsMismatch`] when the vector length is wrong, and
    /// [`StoreError::SeqExhausted`] once the next seq passes
    /// `u64::MAX − 2`.
    pub fn insert(&mut self, uid: u32, vector: &[f32]) -> Result<WriteAck, StoreError> {
        let seq = self.next_seq;
        self.insert_at_seq(uid, seq, vector)
    }

    /// Inserts `uid` at a caller-assigned sequence number — the replica
    /// write path: a sharded store hands every replica of a shard the
    /// *same* globally-assigned seq so their WALs stay mergeable by
    /// sequence. `next_seq` advances to `max(next_seq, seq + 1)`; a seq
    /// older than the uid's current winner is logged (durable) but does
    /// not regress visibility.
    ///
    /// # Errors
    /// [`StoreError::DimsMismatch`] when the vector length is wrong, and
    /// [`StoreError::SeqExhausted`] for a seq above `u64::MAX − 2`;
    /// either way nothing is appended.
    pub fn insert_at_seq(
        &mut self,
        uid: u32,
        seq: u64,
        vector: &[f32],
    ) -> Result<WriteAck, StoreError> {
        if vector.len() != self.config.dims {
            return Err(StoreError::DimsMismatch {
                expected: self.config.dims,
                got: vector.len(),
            });
        }
        if seq > MAX_WRITE_SEQ {
            return Err(StoreError::SeqExhausted);
        }
        self.next_seq = self.next_seq.max(seq + 1);
        self.wal.append(&WalRecord::Insert {
            uid,
            seq,
            vector: vector.to_vec(),
        });
        if self.config.sync == WalSync::EveryRecord {
            self.wal.sync();
        }
        self.payload_bytes += (vector.len() * 4) as u64;
        self.apply_insert(uid, seq, vector.to_vec());
        let sealed = if self.memtable.len() >= self.config.memtable_capacity {
            self.seal()
        } else {
            false
        };
        Ok(WriteAck {
            seq,
            sealed,
            wal_len: self.wal.len(),
        })
    }

    /// Deletes `uid`. Blind deletes are accepted: a tombstone for a
    /// never-seen uid is recorded and purged at the next compaction.
    ///
    /// # Errors
    /// [`StoreError::SeqExhausted`] once the next seq passes
    /// `u64::MAX − 2`.
    pub fn delete(&mut self, uid: u32) -> Result<WriteAck, StoreError> {
        let seq = self.next_seq;
        self.delete_at_seq(uid, seq)
    }

    /// Deletes `uid` at a caller-assigned sequence number (see
    /// [`Store::insert_at_seq`]).
    ///
    /// # Errors
    /// [`StoreError::SeqExhausted`] for a seq above `u64::MAX − 2`, with
    /// nothing appended.
    pub fn delete_at_seq(&mut self, uid: u32, seq: u64) -> Result<WriteAck, StoreError> {
        if seq > MAX_WRITE_SEQ {
            return Err(StoreError::SeqExhausted);
        }
        self.next_seq = self.next_seq.max(seq + 1);
        self.wal.append(&WalRecord::Delete { uid, seq });
        if self.config.sync == WalSync::EveryRecord {
            self.wal.sync();
        }
        self.apply_delete(uid, seq);
        Ok(WriteAck {
            seq,
            sealed: false,
            wal_len: self.wal.len(),
        })
    }

    /// Seals the memtable into a new level-0 segment. Returns `false`
    /// — and appends no WAL record — when the memtable is empty, so
    /// the op↔record correspondence stays exact for replay, or when the
    /// next seq is `u64::MAX`, which no record may take.
    pub fn seal(&mut self) -> bool {
        if self.memtable.is_empty() || self.next_seq == u64::MAX {
            return false;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wal.append(&WalRecord::Seal { seq });
        // A lifecycle record flushes under both sync policies: sealing
        // is the durability barrier `WalSync::OnSeal` promises.
        self.wal.sync();
        self.apply_seal()
    }

    /// True when some level holds more than `fanout` segments.
    pub fn compaction_needed(&self) -> bool {
        self.levels.iter().any(|l| l.len() > self.config.fanout)
    }

    /// Runs one compaction: merges the lowest over-fanout level into
    /// the next. Returns `false` — appending no WAL record — when no
    /// level owes work or the next seq is `u64::MAX`.
    pub fn compact_step(&mut self) -> bool {
        if self.next_seq == u64::MAX {
            return false;
        }
        let Some(level) = self
            .levels
            .iter()
            .position(|l| l.len() > self.config.fanout)
        else {
            return false;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wal.append(&WalRecord::Compact {
            level: level as u32,
            seq,
        });
        self.wal.sync();
        self.apply_compact(level);
        true
    }

    /// Exact top-k over the visible set for one query — the batch-of-1
    /// case of [`Store::query_batch`].
    ///
    /// # Errors
    /// As [`Store::query_batch`].
    pub fn query(
        &mut self,
        q: &[f32],
        metric: DeviceMetric,
        k: usize,
    ) -> Result<StoreQueryResult, StoreError> {
        let mut out = self.query_batch(&[linear_query(q, metric)?], k)?;
        Ok(out.pop().expect("one result per query"))
    }

    /// Exact top-k over the visible set for a batch of queries, each
    /// bit-identical to its own [`Store::query`]. Every query scans the
    /// memtable host-side through the device's own distance arithmetic.
    /// Then each segment runs one device batch over all the queries
    /// ([`SsamDevice::query_batch_masked`]) with its stale rows masked
    /// out, and returns k rows per query. Each query's running k-th is
    /// carried from the memtable through every segment as a raw cut, so
    /// a segment abandons every candidate that could no longer enter
    /// (DESIGN §11). Candidates merge through the shared `(distance,
    /// uid)` order; the index visibility lookup still checks each
    /// returned row. Segment devices model the over-fetch a host filter
    /// would need (`k + stale` per vault), so timing, energy and faults
    /// are those of that over-fetch.
    ///
    /// # Errors
    /// [`StoreError::ZeroK`], [`StoreError::UnsupportedMetric`] (only
    /// Euclidean and Manhattan run against a mutable store),
    /// [`StoreError::DimsMismatch`], or a segment [`StoreError::Device`]
    /// failure.
    pub fn query_batch(
        &mut self,
        queries: &[DeviceQuery<'_>],
        k: usize,
    ) -> Result<Vec<StoreQueryResult>, StoreError> {
        let linear = linear_batch(queries, k, self.config.dims)?;
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let scanned = self.memtable.len();
        let mut tops: Vec<TopK> = linear
            .iter()
            .map(|&(q, metric)| self.scan_memtable(q, metric, k))
            .collect();
        let mut out = vec![
            StoreQueryResult {
                memtable_scanned: scanned,
                faults: FaultRecord {
                    covered_vectors: scanned as u64,
                    total_vectors: scanned as u64,
                    ..FaultRecord::default()
                },
                ..StoreQueryResult::default()
            };
            queries.len()
        ];
        for seg in self.levels.iter_mut().flatten() {
            let batch = seg.query_batch(queries, k, &tops)?;
            for ((r, top), result) in out.iter_mut().zip(&mut tops).zip(&batch.results) {
                r.segments_scanned += 1;
                r.suppressed += seg.stale.len();
                r.device_seconds = r.device_seconds.max(result.timing.seconds);
                r.energy_mj += result.timing.energy_mj;
                // A fault-free run accounts nothing, as it does alone:
                // only a batch that faulted elsewhere gives its clean
                // members a (fully covered) record.
                if !result.faults.is_trivial() {
                    r.faults.accumulate(&result.faults);
                }
                for n in &result.neighbors {
                    let entry = &seg.entries[n.id as usize];
                    let visible = self.index.get(&entry.uid)
                        == Some(&IndexEntry {
                            seq: entry.seq,
                            loc: Loc::Segment(seg.id),
                        });
                    if visible {
                        top.offer(entry.uid, n.dist);
                    }
                }
            }
        }
        for (r, top) in out.iter_mut().zip(tops) {
            r.neighbors = top.into_sorted();
        }
        Ok(out)
    }

    /// The memtable's top-k for one query, ranked by the device's own
    /// Q16.16 distance arithmetic.
    fn scan_memtable(&self, q: &[f32], metric: DeviceMetric, k: usize) -> TopK {
        let qwords = self.quantize(q);
        let mut top = TopK::new(k);
        for (&uid, sv) in &self.memtable {
            top.offer(
                uid,
                Fix32(raw_distance(metric, &qwords, &sv.words)).to_f32(),
            );
        }
        top
    }

    /// The visible set, uid-ascending: `(uid, vector)` for every live
    /// entry. Building a fresh immutable device from these vectors (in
    /// this order) and mapping its result ids through position is the
    /// reference the equivalence proptests compare [`Store::query`]
    /// against bit-for-bit.
    pub fn live_set(&self) -> Vec<(u32, Vec<f32>)> {
        let mut out = Vec::with_capacity(self.index.len());
        for (&uid, e) in &self.index {
            match e.loc {
                Loc::Memtable => out.push((uid, self.memtable[&uid].floats.clone())),
                Loc::Segment(sid) => {
                    let seg = self.segment(sid);
                    let at = seg
                        .entries
                        .binary_search_by_key(&uid, |se| se.uid)
                        .expect("index points at a resident entry");
                    out.push((uid, seg.entries[at].data.floats.clone()));
                }
                Loc::Dead => {}
            }
        }
        out
    }

    /// A deep, comparable image of the store's logical state: sequence
    /// counter, WAL length, memtable, index, and per-segment residency
    /// with vector bits. Two stores with equal snapshots answer every
    /// query identically — the recovery proptests assert snapshot
    /// equality after WAL replay.
    pub fn snapshot(&self) -> Snapshot {
        let memtable = self
            .memtable
            .iter()
            .map(|(&uid, sv)| {
                (
                    uid,
                    self.index[&uid].seq,
                    sv.floats.iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect();
        let index = self
            .index
            .iter()
            .map(|(&uid, e)| {
                (
                    uid,
                    e.seq,
                    match e.loc {
                        Loc::Memtable => SnapLoc::Memtable,
                        Loc::Segment(sid) => SnapLoc::Segment(sid),
                        Loc::Dead => SnapLoc::Dead,
                    },
                )
            })
            .collect();
        let levels = self
            .levels
            .iter()
            .map(|level| {
                level
                    .iter()
                    .map(|seg| SnapSegment {
                        id: seg.id,
                        stale: seg.stale.len(),
                        entries: seg
                            .entries
                            .iter()
                            .map(|e| {
                                (
                                    e.uid,
                                    e.seq,
                                    e.data.floats.iter().map(|x| x.to_bits()).collect(),
                                )
                            })
                            .collect(),
                    })
                    .collect()
            })
            .collect();
        Snapshot {
            next_seq: self.next_seq,
            wal_len: self.wal.len(),
            memtable,
            index,
            levels,
        }
    }

    /// Builds the store's lifecycle account (see
    /// [`ssam_core::telemetry::StoreAccount`]); `seq` is left 0 for the
    /// sink to assign.
    pub fn account(&self, label: &str) -> StoreAccount {
        let mut segments = Vec::new();
        for (level, segs) in self.levels.iter().enumerate() {
            for seg in segs {
                segments.push(SegmentAccount {
                    id: seg.id,
                    level,
                    entries: seg.entries.len(),
                    stale: seg.stale.len(),
                    bytes: (seg.entries.len() * self.vec_words * 4) as u64,
                });
            }
        }
        let index_live = self
            .index
            .values()
            .filter(|e| !matches!(e.loc, Loc::Dead))
            .count();
        let index_dead = self.index.len() - index_live;
        StoreAccount {
            seq: 0,
            label: label.to_string(),
            vec_bytes: (self.vec_words * 4) as u64,
            memtable_entries: self.memtable.len(),
            index_live,
            index_dead,
            wal_records: self.wal.records(),
            wal_bytes: self.wal.len(),
            payload_bytes: self.payload_bytes,
            staged_bytes: self.staged_bytes,
            seals: self.seals,
            compactions: self.compactions,
            fanout: self.config.fanout,
            segments,
        }
    }

    /// Posts the current account to the attached telemetry sink (no-op
    /// without one), where it is verified like a query record.
    pub fn record_account(&self, label: &str) {
        if let Some(sink) = &self.telemetry {
            sink.record_store(self.account(label));
        }
    }

    /// Cumulative lifecycle counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            wal_records: self.wal.records(),
            wal_bytes: self.wal.len(),
            wal_durable_bytes: self.wal.durable_len(),
            payload_bytes: self.payload_bytes,
            staged_bytes: self.staged_bytes,
            seals: self.seals,
            compactions: self.compactions,
            seal_seconds: self.seal_seconds,
            compact_seconds: self.compact_seconds,
            max_compact_seconds: self.max_compact_seconds,
            segments: self.levels.iter().map(Vec::len).sum(),
            levels: self.levels.iter().filter(|l| !l.is_empty()).count(),
        }
    }
}

/// Where a snapshotted uid lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapLoc {
    /// In the memtable.
    Memtable,
    /// In the segment with this store-wide id.
    Segment(u64),
    /// Tombstoned.
    Dead,
}

/// One segment's snapshot: id, stale count, and resident entries as
/// `(uid, seq, f32 bits)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapSegment {
    /// Store-wide segment id.
    pub id: u64,
    /// Superseded resident entries.
    pub stale: usize,
    /// Resident rows, uid-ascending.
    pub entries: Vec<(u32, u64, Vec<u32>)>,
}

/// A deep comparable image of a store's logical state (see
/// [`Store::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Next sequence number to be assigned.
    pub next_seq: u64,
    /// WAL bytes.
    pub wal_len: u64,
    /// Memtable rows as `(uid, seq, f32 bits)`, uid-ascending.
    pub memtable: Vec<(u32, u64, Vec<u32>)>,
    /// Index rows as `(uid, seq, loc)`, uid-ascending.
    pub index: Vec<(u32, u64, SnapLoc)>,
    /// Segment levels, level 0 first.
    pub levels: Vec<Vec<SnapSegment>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn fast_config(dims: usize, capacity: usize, fanout: usize) -> StoreConfig {
        let mut c = StoreConfig::new(dims);
        c.memtable_capacity = capacity;
        c.fanout = fanout;
        c.device.fast_path = true;
        c
    }

    fn vecs(n: usize, dims: usize, salt: u64) -> Vec<Vec<f32>> {
        let mut x = salt | 1;
        (0..n)
            .map(|_| {
                (0..dims)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((x >> 40) as i32 % 1000) as f32 / 1000.0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn insert_query_roundtrip_memtable_only() {
        let mut store = Store::create(fast_config(4, 100, 4));
        for (i, v) in vecs(10, 4, 7).iter().enumerate() {
            store.insert(i as u32, v).unwrap();
        }
        let q = vec![0.1, 0.2, 0.3, 0.4];
        let r = store.query(&q, DeviceMetric::Euclidean, 3).unwrap();
        assert_eq!(r.neighbors.len(), 3);
        assert_eq!(r.memtable_scanned, 10);
        assert_eq!(r.segments_scanned, 0);
        assert_eq!(r.coverage(), 1.0);
    }

    #[test]
    fn seal_moves_memtable_to_segment_and_preserves_results() {
        let mut store = Store::create(fast_config(4, 100, 4));
        for (i, v) in vecs(12, 4, 11).iter().enumerate() {
            store.insert(i as u32, v).unwrap();
        }
        let q = vec![0.5, -0.5, 0.25, 0.0];
        let before = store.query(&q, DeviceMetric::Euclidean, 5).unwrap();
        assert!(store.seal());
        let after = store.query(&q, DeviceMetric::Euclidean, 5).unwrap();
        assert_eq!(after.memtable_scanned, 0);
        assert_eq!(after.segments_scanned, 1);
        assert_eq!(before.neighbors.len(), after.neighbors.len());
        for (b, a) in before.neighbors.iter().zip(&after.neighbors) {
            assert_eq!(b.id, a.id);
            assert_eq!(b.dist.to_bits(), a.dist.to_bits());
        }
    }

    #[test]
    fn delete_suppresses_across_memtable_and_segments() {
        let mut store = Store::create(fast_config(4, 100, 4));
        let vs = vecs(8, 4, 3);
        for (i, v) in vs.iter().enumerate() {
            store.insert(i as u32, v).unwrap();
        }
        store.seal();
        // Delete the exact-match vector, then query for it: it must not
        // be returned, and the segment's over-fetch covers the gap.
        store.delete(2).unwrap();
        let r = store.query(&vs[2], DeviceMetric::Euclidean, 3).unwrap();
        assert!(r.neighbors.iter().all(|n| n.id != 2));
        assert_eq!(r.neighbors.len(), 3);
        assert!(r.suppressed >= 1);
        assert_eq!(store.live_len(), 7);
    }

    #[test]
    fn update_dedups_to_latest_version() {
        let mut store = Store::create(fast_config(2, 100, 4));
        store.insert(5, &[0.9, 0.9]).unwrap();
        store.seal();
        store.insert(5, &[0.0, 0.0]).unwrap();
        let r = store
            .query(&[0.0, 0.0], DeviceMetric::Euclidean, 2)
            .unwrap();
        // Only one version of uid 5 is visible — the latest.
        assert_eq!(r.neighbors.iter().filter(|n| n.id == 5).count(), 1);
        assert_eq!(r.neighbors[0].id, 5);
        assert_eq!(r.neighbors[0].dist, 0.0);
    }

    #[test]
    fn auto_seal_trips_at_capacity_and_compaction_reduces_segments() {
        let mut store = Store::create(fast_config(2, 4, 2));
        let vs = vecs(40, 2, 17);
        let mut sealed = 0;
        for (i, v) in vs.iter().enumerate() {
            if store.insert(i as u32, v).unwrap().sealed {
                sealed += 1;
            }
        }
        assert_eq!(sealed, 10);
        assert!(store.compaction_needed());
        while store.compact_step() {}
        assert!(!store.compaction_needed());
        let stats = store.stats();
        assert!(stats.segments <= 2 * store.config().fanout);
        assert!(stats.compactions > 0);
        // Everything is still visible.
        assert_eq!(store.live_len(), 40);
        let r = store.query(&vs[13], DeviceMetric::Euclidean, 1).unwrap();
        assert_eq!(r.neighbors[0].id, 13);
        assert_eq!(r.neighbors[0].dist, 0.0);
    }

    #[test]
    fn blind_delete_tombstone_purged_by_compaction() {
        let mut store = Store::create(fast_config(2, 2, 1));
        store.delete(999).unwrap();
        let vs = vecs(8, 2, 5);
        for (i, v) in vs.iter().enumerate() {
            store.insert(i as u32, v).unwrap();
        }
        while store.compact_step() {}
        let snap = store.snapshot();
        assert!(snap.index.iter().all(|&(uid, _, _)| uid != 999));
    }

    #[test]
    fn wal_replay_recovers_full_state_bit_identically() {
        let mut store = Store::create(fast_config(3, 3, 2));
        let vs = vecs(20, 3, 23);
        for (i, v) in vs.iter().enumerate() {
            store.insert((i % 12) as u32, v).unwrap();
            if i % 5 == 4 {
                store.delete((i % 7) as u32).unwrap();
            }
        }
        store.seal();
        while store.compact_step() {}
        let (recovered, rec) = Store::open(fast_config(3, 3, 2), store.wal_bytes()).unwrap();
        assert_eq!(rec.truncated, 0);
        assert_eq!(rec.replayed as u64, store.stats().wal_records);
        assert_eq!(recovered.snapshot(), store.snapshot());
        let q = [0.1, -0.3, 0.7];
        let mut a = store.query(&q, DeviceMetric::Manhattan, 4).unwrap();
        let mut b = recovered
            .clone()
            .query(&q, DeviceMetric::Manhattan, 4)
            .unwrap();
        assert_eq!(a.neighbors.len(), b.neighbors.len());
        for (x, y) in a.neighbors.drain(..).zip(b.neighbors.drain(..)) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.dist.to_bits(), y.dist.to_bits());
        }
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let mut store = Store::create(fast_config(2, 100, 4));
        store.insert(1, &[0.5, 0.5]).unwrap();
        let good = store.wal_bytes().len();
        store.insert(2, &[0.25, 0.25]).unwrap();
        let mut bytes = store.wal_bytes().to_vec();
        bytes.truncate(good + 3); // tear the second frame
        let (recovered, rec) = Store::open(fast_config(2, 100, 4), &bytes).unwrap();
        assert_eq!(rec.replayed, 1);
        assert_eq!(rec.truncated, 3);
        assert_eq!(recovered.live_len(), 1);
    }

    #[test]
    fn wal_sync_knob_governs_crash_durability() {
        // Default: every record is durable the moment its ack returns —
        // a crash at the most hostile cut keeps everything.
        let mut per_record = Store::create(fast_config(2, 100, 4));
        assert_eq!(per_record.config().sync, WalSync::EveryRecord);
        per_record.insert(1, &[0.1, 0.1]).unwrap();
        per_record.insert(2, &[0.2, 0.2]).unwrap();
        let s = per_record.stats();
        assert_eq!(s.wal_durable_bytes, s.wal_bytes);
        let (rec, r) = Store::open(fast_config(2, 100, 4), per_record.crash_wal_image(0)).unwrap();
        assert_eq!(r.replayed, 2);
        assert_eq!(rec.live_len(), 2);

        // OnSeal: acknowledged data records ride in the volatile tail
        // and can vanish wholesale until a seal flushes them.
        let mut cfg = fast_config(2, 100, 4);
        cfg.sync = WalSync::OnSeal;
        let mut lazy = Store::create(cfg.clone());
        lazy.insert(1, &[0.1, 0.1]).unwrap();
        lazy.insert(2, &[0.2, 0.2]).unwrap();
        assert_eq!(lazy.stats().wal_durable_bytes, 0);
        let (lost, r) = Store::open(cfg.clone(), lazy.crash_wal_image(0)).unwrap();
        assert_eq!(r.replayed, 0);
        assert!(lost.is_empty());
        // Sealing is the durability barrier OnSeal promises.
        assert!(lazy.seal());
        let s = lazy.stats();
        assert_eq!(s.wal_durable_bytes, s.wal_bytes);
        let (kept, r2) = Store::open(cfg, lazy.crash_wal_image(0)).unwrap();
        assert_eq!(r2.replayed, 3);
        assert_eq!(r2.segments_rebuilt, 1);
        assert_eq!(kept.live_len(), 2);
    }

    #[test]
    fn account_passes_verification_through_lifecycle() {
        let sink = Telemetry::new();
        let mut store = Store::create(fast_config(2, 3, 1));
        store.attach_telemetry(&sink);
        let vs = vecs(14, 2, 9);
        for (i, v) in vs.iter().enumerate() {
            store.insert((i % 10) as u32, v).unwrap();
            if i % 4 == 3 {
                store.delete((i % 5) as u32).unwrap();
            }
            store.record_account("lifecycle");
        }
        while store.compact_step() {
            store.record_account("compaction");
        }
        assert!(sink.violations().is_empty(), "{:?}", sink.violations());
        let accounts = sink.store_accounts();
        assert!(!accounts.is_empty());
        let last = accounts.last().unwrap();
        assert_eq!(last.live(), store.live_len());
    }

    #[test]
    fn dims_and_metric_validation() {
        let mut store = Store::create(fast_config(3, 100, 4));
        assert!(matches!(
            store.insert(0, &[1.0]),
            Err(StoreError::DimsMismatch {
                expected: 3,
                got: 1
            })
        ));
        store.insert(0, &[0.1, 0.2, 0.3]).unwrap();
        assert!(matches!(
            store.query(&[0.0; 3], DeviceMetric::Cosine, 1),
            Err(StoreError::UnsupportedMetric)
        ));
        assert!(matches!(
            store.query(&[0.0; 3], DeviceMetric::Euclidean, 0),
            Err(StoreError::ZeroK)
        ));
        assert!(matches!(
            store.query(&[0.0; 2], DeviceMetric::Euclidean, 1),
            Err(StoreError::DimsMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn live_set_matches_visible_contents() {
        let mut store = Store::create(fast_config(2, 3, 2));
        store.insert(4, &[0.1, 0.1]).unwrap();
        store.insert(2, &[0.2, 0.2]).unwrap();
        store.insert(9, &[0.3, 0.3]).unwrap(); // trips a seal
        store.insert(2, &[0.4, 0.4]).unwrap(); // update over segment copy
        store.delete(4).unwrap();
        let live = store.live_set();
        let uids: Vec<u32> = live.iter().map(|(u, _)| *u).collect();
        assert_eq!(uids, vec![2, 9]);
        assert_eq!(live[0].1, vec![0.4, 0.4]);
    }

    /// Builds a fresh fast-path device over `store`'s live set, uid
    /// ascending: the reference the exactness tests compare against, with
    /// its result ids mapped back to uids.
    fn rebuild(store: &Store) -> (SsamDevice, Vec<u32>) {
        let live = store.live_set();
        let mut vs = VectorStore::new(store.config().dims);
        for (_, v) in &live {
            vs.push(v);
        }
        let mut dev = SsamDevice::new(store.config().device);
        dev.load_vectors(&vs);
        (dev, live.iter().map(|(uid, _)| *uid).collect())
    }

    /// A 64-row segment over 32 vaults holds 2 rows per vault; updating
    /// or deleting 40 of its uids leaves 40 stale rows, more than any
    /// vault holds. Probing at every original vector puts each stale row
    /// first in its segment, so a stale row either update or delete left
    /// unmasked takes one of the segment's k places and the answer
    /// differs from the rebuild.
    #[test]
    fn stale_rows_past_the_per_vault_length_are_masked_exactly() {
        let mut store = Store::create(fast_config(4, 1_000, 4));
        let vs = vecs(64 + 20, 4, 41);
        for (uid, v) in vs[..64].iter().enumerate() {
            store.insert(uid as u32, v).unwrap();
        }
        assert!(store.seal());
        assert_eq!(store.config().device.hmc.vaults, 32);
        for uid in 0..40u32 {
            if uid % 2 == 0 {
                store.insert(uid, &vs[64 + uid as usize / 2]).unwrap();
            } else {
                store.delete(uid).unwrap();
            }
        }
        assert_eq!(store.levels[0][0].stale.len(), 40);
        let (mut dev, uids) = rebuild(&store);
        for probe in &vs[..64] {
            for metric in [DeviceMetric::Euclidean, DeviceMetric::Manhattan] {
                for k in [1, 2, 5] {
                    let got = store.query(probe, metric, k).unwrap();
                    assert_eq!(got.suppressed, 40);
                    let want = dev.query(&linear_query(probe, metric).unwrap(), k).unwrap();
                    let want: Vec<(u32, u32)> = want
                        .neighbors
                        .iter()
                        .map(|n| (uids[n.id as usize], n.dist.to_bits()))
                        .collect();
                    let got: Vec<(u32, u32)> = got
                        .neighbors
                        .iter()
                        .map(|n| (n.id, n.dist.to_bits()))
                        .collect();
                    assert_eq!(got, want, "{metric:?} k={k}");
                }
            }
        }
    }

    /// Raw distances 2²⁴ and 2²⁴ + 1 both convert to 256.0. The memtable
    /// holds uid 9 at the first and a segment holds uid 1 at the second:
    /// the f32 distances tie, so the smaller uid wins. A cut at the f32
    /// bound itself (`dist ≥ bound`), or at the raw image of the bound
    /// plus one, would abandon uid 1 in the segment scan.
    #[test]
    fn an_f32_tie_above_two_to_the_24_raw_goes_to_the_smaller_uid() {
        let (near, far) = (1i32 << 24, (1i32 << 24) + 1);
        assert_eq!(Fix32(near).to_f32(), Fix32(far).to_f32());
        for (metric, at_near, at_far) in [
            (
                DeviceMetric::Manhattan,
                [256.0, 0.0],
                [256.0, 1.0 / 65_536.0],
            ),
            (DeviceMetric::Euclidean, [16.0, 0.0], [16.0, 1.0 / 256.0]),
        ] {
            let mut store = Store::create(fast_config(2, 100, 4));
            store.insert(1, &at_far).unwrap();
            assert!(store.seal());
            store.insert(9, &at_near).unwrap();
            let r = store.query(&[0.0, 0.0], metric, 1).unwrap();
            let got: Vec<(u32, f32)> = r.neighbors.iter().map(|n| (n.id, n.dist)).collect();
            assert_eq!(got, vec![(1, 256.0)], "{metric:?}");
        }
    }

    /// The cut is the first raw value whose float is strictly past the
    /// bound, across the raw range and on both sides of 2²⁴.
    #[test]
    fn raw_cut_is_the_first_raw_value_strictly_past_the_bound() {
        let f = |raw: i32| Fix32(raw).to_f32();
        for bound in [
            -40_000.0,
            -1.0,
            0.0,
            1.0 / 65_536.0,
            0.3,
            255.999_98,
            256.0,
            256.000_03,
            300.1,
            32_767.998,
            f(i32::MIN),
        ] {
            let cut = raw_cut(bound).expect("a raw value lies past the bound");
            assert!(f(cut) > bound, "{bound}");
            assert!(cut == i32::MIN || f(cut - 1) <= bound, "{bound}");
        }
        assert_eq!(raw_cut(256.0), Some((1 << 24) + 2));
        assert_eq!(raw_cut(f(i32::MIN) - 1.0), Some(i32::MIN));
        assert_eq!(raw_cut(f(i32::MAX)), None);
        assert_eq!(raw_cut(f32::INFINITY), None);
    }

    /// A segment's masked call models the over-fetch a host filter
    /// needs: per query the same timing (energy included), `vault_stats`
    /// and fault record, and the same telemetry records, as the plain
    /// call for `k + stale` on a clone of its device — with no fault plan
    /// and with a chaos plan.
    #[test]
    fn masked_segment_scans_model_the_k_plus_stale_over_fetch() {
        let probes = vecs(8, 4, 77);
        let queries: Vec<DeviceQuery<'_>> = probes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let metric = [DeviceMetric::Euclidean, DeviceMetric::Manhattan][i % 2];
                linear_query(p, metric).unwrap()
            })
            .collect();
        let k = 3;
        for plan in [None, Some(Arc::new(FaultPlan::chaos(11)))] {
            let mut store = Store::create(fast_config(4, 1_000, 4));
            let vs = vecs(96, 4, 31);
            for (uid, v) in vs[..64].iter().enumerate() {
                store.insert(uid as u32, v).unwrap();
            }
            assert!(store.seal());
            for (i, v) in vs[64..].iter().enumerate() {
                store.insert(100 + i as u32, v).unwrap();
            }
            assert!(store.seal());
            for uid in (0..64).step_by(3) {
                store.delete(uid).unwrap();
            }
            for uid in 100..110 {
                store.insert(uid, &vs[uid as usize - 90]).unwrap();
            }
            store.set_fault_plan(plan.clone());
            let tops: Vec<TopK> = probes
                .iter()
                .zip(&queries)
                .map(|(p, q)| store.scan_memtable(p, q.metric(), k))
                .collect();
            assert!(tops.iter().all(|t| t.bound().is_finite()));
            let mut faulted = false;
            for seg in store.levels.iter().flatten() {
                let stale = seg.stale.len();
                assert!(stale > 0);
                let (mut masked, mut over) = (seg.clone(), seg.device.clone());
                let (a, b) = (Telemetry::new(), Telemetry::new());
                masked.device.attach_telemetry(&a);
                over.attach_telemetry(&b);
                let got = masked.query_batch(&queries, k, &tops).unwrap();
                let want = over.query_batch(&queries, k + stale).unwrap();
                for (g, w) in got.results.iter().zip(&want.results) {
                    assert_eq!(g.timing, w.timing);
                    assert_eq!(g.vault_stats, w.vault_stats);
                    assert_eq!(g.faults, w.faults);
                    faulted |= !g.faults.is_trivial();
                }
                assert_eq!(got.timing, want.timing);
                assert_eq!(got.faults, want.faults);
                let modeled = |sink: &Telemetry| {
                    assert!(sink.violations().is_empty(), "{:?}", sink.violations());
                    let mut records = sink.records();
                    for r in &mut records {
                        r.phases.stage_seconds = 0.0;
                    }
                    records
                };
                assert_eq!(modeled(&a), modeled(&b));
            }
            assert_eq!(faulted, plan.is_some());
        }
    }

    /// The served shape, counted in words rather than timed: 1,200
    /// GloVe stand-in vectors in a store with a 64-entry memtable and
    /// fanout 4, churned by 4,000 seeded ops at the `store_mixed` write
    /// mix (30% inserts and 10% deletes over 2,400 uids; the 60% reads
    /// store nothing and are skipped) with compaction after each. Then
    /// 256 Euclidean reads at k = 6 read no more segment words than one
    /// device over the same live set reads for the same queries.
    #[test]
    fn store_reads_scan_no_more_words_than_one_device_over_the_live_set() {
        const BASE: usize = 1_200;
        const UIDS: u32 = 2_400;
        const READS: usize = 256;
        let mut spec =
            ssam_datasets::PaperDataset::GloVe.scaled_spec((BASE + UIDS as usize) as f64 / 1.2e6);
        spec.train = BASE + UIDS as usize;
        spec.queries = READS;
        spec.seed = 8;
        let data = ssam_datasets::generator::generate(&spec);
        let mut config = fast_config(100, 64, 4);
        config.device.vector_length = 4;
        let mut store = Store::create(config);
        for uid in 0..BASE as u32 {
            store.insert(uid, data.train.get(uid)).unwrap();
            while store.compact_step() {}
        }
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..4_000 {
            let (roll, uid) = (rng.random_range(0..10u32), rng.random_range(0..UIDS));
            match roll {
                0..=2 => {
                    let payload = BASE as u32 + rng.random_range(0..UIDS);
                    store.insert(uid, data.train.get(payload)).unwrap();
                }
                3 => {
                    store.delete(uid).unwrap();
                }
                _ => {}
            }
            while store.compact_step() {}
        }
        let queries: Vec<DeviceQuery<'_>> = (0..READS as u32)
            .map(|i| DeviceQuery::Euclidean(data.queries.get(i)))
            .collect();
        let segment_words = |store: &Store| -> u64 {
            store
                .levels
                .iter()
                .flatten()
                .map(|s| s.device.words_read())
                .sum()
        };
        let before = segment_words(&store);
        for batch in queries.chunks(16) {
            store.query_batch(batch, 6).unwrap();
        }
        let store_words = segment_words(&store) - before;
        let (mut dev, _) = rebuild(&store);
        for batch in queries.chunks(16) {
            dev.query_batch(batch, 6).unwrap();
        }
        let device_words = dev.words_read();
        assert!(
            store_words <= device_words,
            "segments read {store_words} words, one device {device_words} ({:.3})",
            store_words as f64 / device_words as f64
        );
    }
}
