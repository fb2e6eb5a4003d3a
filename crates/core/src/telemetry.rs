//! Query-scoped telemetry: structured, *self-checking* accounting.
//!
//! PRs 1–2 each fixed a silent accounting bug by hand (the Q16.16
//! `as f32` readout, the software-queue kernel fallthrough, the
//! `compute_bound`-from-last-vault classification). This module turns
//! that recurring bug class into machinery: every device execution path
//! ([`crate::device::SsamDevice::query_batch`],
//! [`crate::device::indexed::IndexedSsamDevice::query`],
//! [`crate::device::cluster::SsamCluster::query_batch`]) builds a
//! [`QueryRecord`] — per-vault counters, roofline terms, span-style phase
//! timings — and [`verify_record`] cross-checks the record against the
//! summary numbers the device reports ([`crate::device::QueryTiming`] /
//! [`crate::device::BatchTiming`]) *at collection time*:
//!
//! * Σ per-vault bytes == `total_bytes`, Σ per-vault cycles ==
//!   `total_cycles` (exact);
//! * `seconds == simulate + link + merge` and `simulate == max` vault
//!   critical time (within [`REL_TOL`]);
//! * `compute_bound` agrees with the **argmax** vault's own
//!   classification (first strict argmax on ties — the exact invariant
//!   the PR 2 / PR 3 bugs violated);
//! * energy finite and non-negative, per-vault terms reconciling with
//!   the total;
//! * batch counters ≡ the serial-loop sum ([`verify_batch`]).
//!
//! In debug builds a violated invariant panics at the collection site;
//! release builds retain the violation for inspection
//! ([`Telemetry::violations`]). Records export as JSONL
//! ([`Telemetry::write_jsonl`]) and as summary-table rows
//! ([`Telemetry::summary_rows`]) for the bench binaries' `--telemetry`
//! flag.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

pub use ssam_faults::FaultRecord;

use crate::sim::pu::RunStats;

/// Relative tolerance for floating-point reconciliation. The bench
/// acceptance bar is 1e-9; the checks run at 1e-9 relative (plus a tiny
/// absolute floor for quantities that are legitimately zero).
pub const REL_TOL: f64 = 1e-9;

/// Which execution path produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// One query through `SsamDevice::query_batch` (serial-equivalent
    /// account).
    Query,
    /// The batch-level pipelined account of one `query_batch` call.
    Batch,
    /// One query through the on-device-index path
    /// (`IndexedSsamDevice::query`).
    Indexed,
    /// One query through `SsamCluster::query_batch` (accounts are
    /// per-module, not per-vault).
    Cluster,
    /// A record synthesized from a roofline model rather than full
    /// simulation (the Fig. 7 extrapolation path).
    Modeled,
}

impl RecordKind {
    /// Stable lowercase name used in the JSONL export.
    pub fn name(&self) -> &'static str {
        match self {
            RecordKind::Query => "query",
            RecordKind::Batch => "batch",
            RecordKind::Indexed => "indexed",
            RecordKind::Cluster => "cluster",
            RecordKind::Modeled => "modeled",
        }
    }
}

/// One vault's (or, for cluster records, one module's) account of a
/// query: raw counters from the simulator plus the roofline terms the
/// timing model derived from them.
#[derive(Debug, Clone, PartialEq)]
pub struct VaultAccount {
    /// Vault (or module) index, 0-based.
    pub vault: usize,
    /// Simulated cycles.
    pub cycles: u64,
    /// DRAM bytes streamed.
    pub bytes: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Priority-queue operations.
    pub pqueue_ops: u64,
    /// Stack operations.
    pub stack_ops: u64,
    /// Scratchpad accesses.
    pub scratchpad_accesses: u64,
    /// Memory-roofline time: `bytes / vault_bandwidth`.
    pub mem_seconds: f64,
    /// Compute-roofline time: `cycles / (pus · freq)`.
    pub comp_seconds: f64,
    /// This vault's own classification: `comp_seconds > mem_seconds`.
    pub compute_bound: bool,
    /// Energy charged to this vault over the query window, millijoules.
    pub energy_mj: f64,
}

impl VaultAccount {
    /// Builds an account from a kernel run's statistics and the roofline
    /// parameters. Energy is left at zero — it depends on the full query
    /// window, which the caller knows only after the critical path is
    /// found; fill it afterwards.
    pub fn from_stats(vault: usize, s: &RunStats, vault_bw: f64, freq: f64, pus: usize) -> Self {
        let mem_seconds = s.dram.bytes_read as f64 / vault_bw;
        let comp_seconds = s.cycles as f64 / (pus as f64 * freq);
        Self {
            vault,
            cycles: s.cycles,
            bytes: s.dram.bytes_read,
            instructions: s.instructions,
            pqueue_ops: s.pqueue_ops,
            stack_ops: s.stack_ops,
            scratchpad_accesses: s.scratchpad_accesses,
            mem_seconds,
            comp_seconds,
            compute_bound: comp_seconds > mem_seconds,
            energy_mj: 0.0,
        }
    }

    /// The vault's critical time: `max(mem_seconds, comp_seconds)`.
    pub fn critical_seconds(&self) -> f64 {
        self.mem_seconds.max(self.comp_seconds)
    }
}

/// The vault that sets a record's critical path: the **first strict
/// argmax** over per-vault critical time. Returns
/// `(vault index into the slice, critical seconds, compute_bound)`.
///
/// This is the single place the memory-vs-compute classification is
/// defined; both device timing derivations and the [`verify_record`]
/// cross-check use it, so a reimplementation drifting (the PR 2 and PR 3
/// `compute_bound` bugs) now trips an invariant instead of shipping.
pub fn critical_path(vaults: &[VaultAccount]) -> Option<(usize, f64, bool)> {
    let mut out: Option<(usize, f64, bool)> = None;
    for (i, v) in vaults.iter().enumerate() {
        let t = v.critical_seconds();
        // Strictly-greater keeps the first argmax on ties.
        if out.is_none_or(|(_, worst, _)| t > worst) {
            out = Some((i, t, v.compute_bound));
        }
    }
    out
}

/// Span-style phase timings for one record. `stage_seconds` is measured
/// host wall-clock (staging queries, writing scratchpad images) and is
/// informational; the other three are *modeled* device time and must sum
/// to the record's `seconds`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Phases {
    /// Host-side staging wall-clock (measured, not modeled).
    pub stage_seconds: f64,
    /// Modeled simulate phase: the slowest vault's critical time.
    pub simulate_seconds: f64,
    /// Modeled external-link transfer time (for cluster records: the
    /// broadcast plus collection wire time).
    pub link_seconds: f64,
    /// Modeled host merge/reduce allowance.
    pub merge_seconds: f64,
    /// Modeled fault-recovery time: link retransmissions and failover
    /// backoff. Zero on every fault-free path; must equal the record's
    /// [`FaultRecord::recovery_seconds`].
    pub fault_seconds: f64,
}

impl Phases {
    /// The modeled end-to-end time: `simulate + link + merge + fault`.
    pub fn modeled_seconds(&self) -> f64 {
        self.simulate_seconds + self.link_seconds + self.merge_seconds + self.fault_seconds
    }
}

/// One query's (or one batch's) complete, checkable account.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Sequence number, assigned by the [`Telemetry`] sink at collection.
    pub seq: u64,
    /// Which execution path produced this record.
    pub kind: RecordKind,
    /// Free-form label (kernel name, dataset, experiment row).
    pub label: String,
    /// Queries covered (1 for per-query records, B for batch records).
    pub batch: usize,
    /// Neighbors requested per query.
    pub k: usize,
    /// Processing units provisioned per vault.
    pub pus_per_vault: usize,
    /// Per-vault accounts (vault 0 first).
    pub vaults: Vec<VaultAccount>,
    /// Phase spans.
    pub phases: Phases,
    /// The summary seconds the device reported (must reconcile with
    /// `phases`).
    pub seconds: f64,
    /// The summary classification the device reported (must agree with
    /// the argmax vault).
    pub compute_bound: bool,
    /// The summary cycle total the device reported (must equal Σ vaults).
    pub total_cycles: u64,
    /// The summary byte total the device reported (must equal Σ vaults).
    pub total_bytes: u64,
    /// The summary energy the device reported (must reconcile with
    /// Σ vault energies).
    pub energy_mj: f64,
    /// Fault-injection accounting for the record's window. Trivial (all
    /// zeros, full coverage) on fault-free paths; when faults were
    /// injected, [`verify_record`] checks the closure invariants — every
    /// injected fault must be corrected, retried, or surfaced as lost
    /// coverage.
    pub faults: FaultRecord,
}

impl QueryRecord {
    /// Fraction of the candidate set this record actually scanned.
    pub fn coverage(&self) -> f64 {
        self.faults.coverage()
    }
}

/// A violated accounting invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum AccountingError {
    /// Σ per-vault bytes differs from the reported total.
    BytesMismatch {
        /// Σ over [`QueryRecord::vaults`].
        vault_sum: u64,
        /// [`QueryRecord::total_bytes`].
        total: u64,
    },
    /// Σ per-vault cycles differs from the reported total.
    CyclesMismatch {
        /// Σ over [`QueryRecord::vaults`].
        vault_sum: u64,
        /// [`QueryRecord::total_cycles`].
        total: u64,
    },
    /// `seconds` does not reconcile with `simulate + link + merge`.
    SecondsMismatch {
        /// `phases.modeled_seconds()`.
        modeled: f64,
        /// [`QueryRecord::seconds`].
        reported: f64,
    },
    /// The simulate span does not match the slowest vault.
    SimulateMismatch {
        /// `max` critical time over the vault accounts.
        critical: f64,
        /// [`Phases::simulate_seconds`].
        reported: f64,
    },
    /// The record's `compute_bound` disagrees with the argmax vault's own
    /// classification.
    ClassificationMismatch {
        /// Index of the critical vault.
        vault: usize,
        /// That vault's classification.
        vault_compute_bound: bool,
        /// [`QueryRecord::compute_bound`].
        reported: bool,
    },
    /// An energy term is NaN, infinite, or negative, or the per-vault
    /// terms do not reconcile with the total.
    BadEnergy {
        /// Human-readable description of which term is bad.
        detail: String,
    },
    /// A record with no vault accounts (nothing to check against).
    Empty,
    /// Fault accounting does not close: an injected fault vanished
    /// without being corrected, retried, or surfaced as lost coverage —
    /// or the recovery time disagrees with the fault phase span.
    FaultMismatch {
        /// Human-readable description of the broken closure invariant.
        detail: String,
    },
    /// A mutable-store account violated a lifecycle invariant
    /// ([`verify_store_account`]).
    StoreMismatch {
        /// Human-readable description of the broken invariant.
        detail: String,
    },
    /// A sharded-store account violated a placement or replication
    /// invariant ([`verify_shard_account`]).
    ShardMismatch {
        /// Human-readable description of the broken invariant.
        detail: String,
    },
    /// Batch totals differ from the serial-loop sum ([`verify_batch`]).
    BatchCounterMismatch {
        /// Which counter disagreed (`"cycles"` or `"bytes"`).
        counter: &'static str,
        /// Σ over the per-query records.
        serial_sum: u64,
        /// The batch record's total.
        batch_total: u64,
    },
}

impl std::fmt::Display for AccountingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccountingError::BytesMismatch { vault_sum, total } => write!(
                f,
                "per-vault bytes sum {vault_sum} != reported total_bytes {total}"
            ),
            AccountingError::CyclesMismatch { vault_sum, total } => write!(
                f,
                "per-vault cycles sum {vault_sum} != reported total_cycles {total}"
            ),
            AccountingError::SecondsMismatch { modeled, reported } => write!(
                f,
                "seconds {reported} does not reconcile with simulate+link+merge {modeled}"
            ),
            AccountingError::SimulateMismatch { critical, reported } => write!(
                f,
                "simulate span {reported} does not match max vault critical time {critical}"
            ),
            AccountingError::ClassificationMismatch {
                vault,
                vault_compute_bound,
                reported,
            } => write!(
                f,
                "compute_bound={reported} but critical vault {vault} classifies \
                 compute_bound={vault_compute_bound}"
            ),
            AccountingError::BadEnergy { detail } => write!(f, "bad energy account: {detail}"),
            AccountingError::StoreMismatch { detail } => {
                write!(f, "store accounting does not close: {detail}")
            }
            AccountingError::ShardMismatch { detail } => {
                write!(f, "shard accounting does not close: {detail}")
            }
            AccountingError::FaultMismatch { detail } => {
                write!(f, "fault accounting does not close: {detail}")
            }
            AccountingError::Empty => write!(f, "record has no vault accounts"),
            AccountingError::BatchCounterMismatch {
                counter,
                serial_sum,
                batch_total,
            } => write!(
                f,
                "batch {counter} total {batch_total} != serial-loop sum {serial_sum}"
            ),
        }
    }
}

impl std::error::Error for AccountingError {}

fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= REL_TOL * scale + 1e-18
}

/// Checks every accounting invariant of one record. The first violated
/// invariant is returned; a fully consistent record returns `Ok(())`.
pub fn verify_record(r: &QueryRecord) -> Result<(), AccountingError> {
    if r.vaults.is_empty() {
        return Err(AccountingError::Empty);
    }

    let vault_bytes: u64 = r.vaults.iter().map(|v| v.bytes).sum();
    if vault_bytes != r.total_bytes {
        return Err(AccountingError::BytesMismatch {
            vault_sum: vault_bytes,
            total: r.total_bytes,
        });
    }
    let vault_cycles: u64 = r.vaults.iter().map(|v| v.cycles).sum();
    if vault_cycles != r.total_cycles {
        return Err(AccountingError::CyclesMismatch {
            vault_sum: vault_cycles,
            total: r.total_cycles,
        });
    }

    let (argmax, critical, vault_cb) = critical_path(&r.vaults).expect("non-empty");
    if !close(r.phases.simulate_seconds, critical) {
        return Err(AccountingError::SimulateMismatch {
            critical,
            reported: r.phases.simulate_seconds,
        });
    }
    if !close(r.seconds, r.phases.modeled_seconds()) {
        return Err(AccountingError::SecondsMismatch {
            modeled: r.phases.modeled_seconds(),
            reported: r.seconds,
        });
    }
    if r.compute_bound != vault_cb {
        return Err(AccountingError::ClassificationMismatch {
            vault: argmax,
            vault_compute_bound: vault_cb,
            reported: r.compute_bound,
        });
    }

    if !r.energy_mj.is_finite() || r.energy_mj < 0.0 {
        return Err(AccountingError::BadEnergy {
            detail: format!("total energy_mj = {}", r.energy_mj),
        });
    }
    let mut vault_energy = 0.0;
    for v in &r.vaults {
        if !v.energy_mj.is_finite() || v.energy_mj < 0.0 {
            return Err(AccountingError::BadEnergy {
                detail: format!("vault {} energy_mj = {}", v.vault, v.energy_mj),
            });
        }
        vault_energy += v.energy_mj;
    }
    if !close(vault_energy, r.energy_mj) {
        return Err(AccountingError::BadEnergy {
            detail: format!(
                "per-vault energy sum {vault_energy} != reported total {}",
                r.energy_mj
            ),
        });
    }

    if let Err(detail) = r.faults.check_closure() {
        return Err(AccountingError::FaultMismatch { detail });
    }
    if !close(r.phases.fault_seconds, r.faults.recovery_seconds) {
        return Err(AccountingError::FaultMismatch {
            detail: format!(
                "fault phase span {} != fault-record recovery_seconds {}",
                r.phases.fault_seconds, r.faults.recovery_seconds
            ),
        });
    }
    Ok(())
}

/// Checks the batch-vs-serial counter identity: the batch record's
/// aggregate cycles and bytes must equal the sums over the per-query
/// records it covers (the batched engine is bit-identical to a serial
/// loop, so the counters must be too).
pub fn verify_batch(batch: &QueryRecord, queries: &[QueryRecord]) -> Result<(), AccountingError> {
    let serial_cycles: u64 = queries.iter().map(|q| q.total_cycles).sum();
    if serial_cycles != batch.total_cycles {
        return Err(AccountingError::BatchCounterMismatch {
            counter: "cycles",
            serial_sum: serial_cycles,
            batch_total: batch.total_cycles,
        });
    }
    let serial_bytes: u64 = queries.iter().map(|q| q.total_bytes).sum();
    if serial_bytes != batch.total_bytes {
        return Err(AccountingError::BatchCounterMismatch {
            counter: "bytes",
            serial_sum: serial_bytes,
            batch_total: batch.total_bytes,
        });
    }
    Ok(())
}

/// One immutable segment's share of a mutable-store account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentAccount {
    /// Store-wide segment id (monotonic across seals and compactions).
    pub id: u64,
    /// Compaction level the segment currently sits on (0 = freshest).
    pub level: usize,
    /// Vectors resident in the segment (live at seal time).
    pub entries: usize,
    /// Resident vectors since superseded by a newer version or tombstone.
    /// Reads mask these rows out of the segment's scan, and its device
    /// models them as an over-fetch of `k + stale` per vault.
    pub stale: usize,
    /// Bytes staged into this segment's vault shards.
    pub bytes: u64,
}

impl SegmentAccount {
    /// Resident vectors still visible to queries.
    pub fn live(&self) -> usize {
        self.entries - self.stale
    }
}

/// A mutable store's complete lifecycle account: WAL, memtable, segment,
/// and compaction counters, cross-checked by [`verify_store_account`] at
/// collection time exactly like query records are by [`verify_record`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreAccount {
    /// Sequence number, assigned by the [`Telemetry`] sink at collection.
    pub seq: u64,
    /// Free-form label (which lifecycle event produced the account).
    pub label: String,
    /// Bytes per padded stored vector (`vec_words * 4`).
    pub vec_bytes: u64,
    /// Vectors resident in the memtable (all visible by construction).
    pub memtable_entries: usize,
    /// Index entries pointing at a live location (memtable or segment).
    pub index_live: usize,
    /// Index entries that are tombstones.
    pub index_dead: usize,
    /// WAL records appended so far.
    pub wal_records: u64,
    /// WAL bytes appended so far (framing + payload).
    pub wal_bytes: u64,
    /// Caller payload bytes accepted (insert vectors, pre-quantization).
    pub payload_bytes: u64,
    /// Bytes written into segment devices across every seal + compaction.
    pub staged_bytes: u64,
    /// Memtable seals performed.
    pub seals: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Level fanout: a level holding more than this many segments owes
    /// compaction work.
    pub fanout: usize,
    /// Per-segment accounts, level order then segment order.
    pub segments: Vec<SegmentAccount>,
}

impl StoreAccount {
    /// Vectors resident across every segment (live + stale).
    pub fn resident(&self) -> usize {
        self.segments.iter().map(|s| s.entries).sum()
    }

    /// Visible vectors: live segment entries plus the memtable.
    pub fn live(&self) -> usize {
        self.segments
            .iter()
            .map(SegmentAccount::live)
            .sum::<usize>()
            + self.memtable_entries
    }

    /// Fraction of segment-resident vectors that are dead weight
    /// (superseded or tombstoned); `0.0` with no resident vectors.
    pub fn dead_ratio(&self) -> f64 {
        let resident = self.resident();
        if resident == 0 {
            return 0.0;
        }
        self.segments.iter().map(|s| s.stale).sum::<usize>() as f64 / resident as f64
    }

    /// Write amplification: total bytes durably written (WAL + staging)
    /// per accepted payload byte; `0.0` before any payload arrived.
    pub fn write_amp(&self) -> f64 {
        if self.payload_bytes == 0 {
            return 0.0;
        }
        (self.wal_bytes + self.staged_bytes) as f64 / self.payload_bytes as f64
    }

    /// Compaction debt: segments beyond the fanout on each level (how
    /// many merges the background compactor owes).
    pub fn compaction_debt(&self) -> u64 {
        let mut per_level: std::collections::BTreeMap<usize, usize> = Default::default();
        for s in &self.segments {
            *per_level.entry(s.level).or_insert(0) += 1;
        }
        per_level
            .values()
            .map(|&n| n.saturating_sub(self.fanout) as u64)
            .sum()
    }
}

/// Checks a mutable-store account's lifecycle invariants. Like
/// [`verify_record`], the first violated invariant is returned.
///
/// The load-bearing cross-check is visibility closure: the per-segment
/// `stale` counters (maintained incrementally as writes supersede
/// resident vectors) and the index's live count (maintained as a map of
/// latest versions) are independent bookkeeping, and
/// `Σ segment live + memtable == index_live` catches either side
/// drifting.
pub fn verify_store_account(a: &StoreAccount) -> Result<(), AccountingError> {
    for s in &a.segments {
        if s.entries == 0 {
            return Err(AccountingError::StoreMismatch {
                detail: format!("segment {} is resident but empty", s.id),
            });
        }
        if s.stale > s.entries {
            return Err(AccountingError::StoreMismatch {
                detail: format!(
                    "segment {}: stale {} exceeds entries {}",
                    s.id, s.stale, s.entries
                ),
            });
        }
        if s.bytes != s.entries as u64 * a.vec_bytes {
            return Err(AccountingError::StoreMismatch {
                detail: format!(
                    "segment {}: staged bytes {} != entries {} x vec_bytes {}",
                    s.id, s.bytes, s.entries, a.vec_bytes
                ),
            });
        }
    }
    let seg_live: usize = a.segments.iter().map(SegmentAccount::live).sum();
    if seg_live + a.memtable_entries != a.index_live {
        return Err(AccountingError::StoreMismatch {
            detail: format!(
                "segment live {} + memtable {} != index live {}",
                seg_live, a.memtable_entries, a.index_live
            ),
        });
    }
    if a.wal_bytes < a.payload_bytes {
        return Err(AccountingError::StoreMismatch {
            detail: format!(
                "WAL bytes {} below accepted payload bytes {} (records are framed supersets)",
                a.wal_bytes, a.payload_bytes
            ),
        });
    }
    let resident_bytes: u64 = a.segments.iter().map(|s| s.bytes).sum();
    if a.staged_bytes < resident_bytes {
        return Err(AccountingError::StoreMismatch {
            detail: format!(
                "cumulative staged bytes {} below currently resident bytes {}",
                a.staged_bytes, resident_bytes
            ),
        });
    }
    if !a.segments.is_empty() && a.seals == 0 {
        return Err(AccountingError::StoreMismatch {
            detail: "segments are resident but no seal was ever recorded".into(),
        });
    }
    Ok(())
}

/// Serializes one store account as a single-line JSON object
/// (`"kind":"store"`, interleaved with query records in the JSONL
/// export).
pub fn store_account_json(a: &StoreAccount) -> String {
    let mut o = String::with_capacity(256 + 96 * a.segments.len());
    o.push('{');
    let _ = write!(o, "\"seq\":{},\"kind\":\"store\",\"label\":", a.seq);
    json_escape(&a.label, &mut o);
    let _ = write!(
        o,
        ",\"vec_bytes\":{},\"memtable_entries\":{},\"index_live\":{},\"index_dead\":{},\
         \"wal_records\":{},\"wal_bytes\":{},\"payload_bytes\":{},\"staged_bytes\":{},\
         \"seals\":{},\"compactions\":{},\"fanout\":{},\"live\":{},\"resident\":{},",
        a.vec_bytes,
        a.memtable_entries,
        a.index_live,
        a.index_dead,
        a.wal_records,
        a.wal_bytes,
        a.payload_bytes,
        a.staged_bytes,
        a.seals,
        a.compactions,
        a.fanout,
        a.live(),
        a.resident(),
    );
    o.push_str("\"dead_ratio\":");
    json_f64(a.dead_ratio(), &mut o);
    o.push_str(",\"write_amp\":");
    json_f64(a.write_amp(), &mut o);
    let _ = write!(
        o,
        ",\"compaction_debt\":{},\"segments\":[",
        a.compaction_debt()
    );
    for (i, s) in a.segments.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "{{\"id\":{},\"level\":{},\"entries\":{},\"stale\":{},\"live\":{},\"bytes\":{}}}",
            s.id,
            s.level,
            s.entries,
            s.stale,
            s.live(),
            s.bytes
        );
    }
    o.push_str("]}");
    o
}

/// One replica module's slice of a [`ShardAccount`]: placement
/// coordinates, failover state, and the module's full store account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleShardAccount {
    /// Module index (`shard * replicas + replica`).
    pub module: usize,
    /// Shard this module replicates.
    pub shard: usize,
    /// Replica slot within the shard (0 = primary).
    pub replica: usize,
    /// Writes this module missed while unreachable and has not yet
    /// replayed.
    pub behind: usize,
    /// Whether reads currently route around this module.
    pub degraded: bool,
    /// Whether the module is forced down by a drill.
    pub down: bool,
    /// The module's own lifecycle account (verified independently).
    pub store: StoreAccount,
}

/// A sharded store's accounting snapshot: per-module store accounts plus
/// the placement/replication bookkeeping that ties them together,
/// cross-checked by [`verify_shard_account`] at collection time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAccount {
    /// Sequence number, assigned by the [`Telemetry`] sink at collection.
    pub seq: u64,
    /// Free-form label.
    pub label: String,
    /// Shard count.
    pub shards: usize,
    /// Replicas per shard.
    pub replicas: usize,
    /// Acknowledged-live vectors across all shards.
    pub live: usize,
    /// Acknowledged-live vectors per shard (length `shards`).
    pub shard_live: Vec<usize>,
    /// One entry per module, module order.
    pub modules: Vec<ModuleShardAccount>,
}

impl ShardAccount {
    /// Total missed writes still pending catch-up across all modules.
    pub fn behind_total(&self) -> usize {
        self.modules.iter().map(|m| m.behind).sum()
    }
}

/// Checks a sharded-store account. Every module's store account must
/// close on its own ([`verify_store_account`]); on top of that, the
/// placement bookkeeping must agree with the per-module views: module
/// numbering is dense (`module = shard * replicas + replica`), the
/// per-shard live counts sum to the global live count, every caught-up
/// replica's visible set matches its shard's acknowledged live count,
/// and every shard keeps at least one caught-up replica (the one that
/// acked its last write).
pub fn verify_shard_account(a: &ShardAccount) -> Result<(), AccountingError> {
    if a.shards == 0 || a.replicas == 0 {
        return Err(AccountingError::ShardMismatch {
            detail: format!(
                "degenerate topology: {} shards x {} replicas",
                a.shards, a.replicas
            ),
        });
    }
    if a.modules.len() != a.shards * a.replicas {
        return Err(AccountingError::ShardMismatch {
            detail: format!(
                "{} module accounts for {} shards x {} replicas",
                a.modules.len(),
                a.shards,
                a.replicas
            ),
        });
    }
    if a.shard_live.len() != a.shards {
        return Err(AccountingError::ShardMismatch {
            detail: format!(
                "{} shard_live entries for {} shards",
                a.shard_live.len(),
                a.shards
            ),
        });
    }
    if a.shard_live.iter().sum::<usize>() != a.live {
        return Err(AccountingError::ShardMismatch {
            detail: format!(
                "per-shard live sum {} != global live {}",
                a.shard_live.iter().sum::<usize>(),
                a.live
            ),
        });
    }
    for (i, m) in a.modules.iter().enumerate() {
        if m.module != i || m.shard != i / a.replicas || m.replica != i % a.replicas {
            return Err(AccountingError::ShardMismatch {
                detail: format!(
                    "module {i} reports (module {}, shard {}, replica {})",
                    m.module, m.shard, m.replica
                ),
            });
        }
        verify_store_account(&m.store)?;
        if m.behind == 0 && m.store.live() != a.shard_live[m.shard] {
            return Err(AccountingError::ShardMismatch {
                detail: format!(
                    "caught-up module {i} holds {} live vectors but shard {} acknowledges {}",
                    m.store.live(),
                    m.shard,
                    a.shard_live[m.shard]
                ),
            });
        }
    }
    for shard in 0..a.shards {
        let caught_up = a.modules.iter().any(|m| m.shard == shard && m.behind == 0);
        if !caught_up {
            return Err(AccountingError::ShardMismatch {
                detail: format!("shard {shard} has no caught-up replica"),
            });
        }
    }
    Ok(())
}

/// Serializes one sharded-store account as a single-line JSON object
/// (`"kind":"sharded_store"`; per-module store accounts are embedded).
pub fn shard_account_json(a: &ShardAccount) -> String {
    let mut o = String::with_capacity(256 + 128 * a.modules.len());
    o.push('{');
    let _ = write!(o, "\"seq\":{},\"kind\":\"sharded_store\",\"label\":", a.seq);
    json_escape(&a.label, &mut o);
    let _ = write!(
        o,
        ",\"shards\":{},\"replicas\":{},\"live\":{},\"behind_total\":{},\"shard_live\":[",
        a.shards,
        a.replicas,
        a.live,
        a.behind_total(),
    );
    for (i, n) in a.shard_live.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "{n}");
    }
    o.push_str("],\"modules\":[");
    for (i, m) in a.modules.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "{{\"module\":{},\"shard\":{},\"replica\":{},\"behind\":{},\"degraded\":{},\
             \"down\":{},\"live\":{},\"resident\":{},\"wal_records\":{}}}",
            m.module,
            m.shard,
            m.replica,
            m.behind,
            m.degraded,
            m.down,
            m.store.live(),
            m.store.resident(),
            m.store.wal_records,
        );
    }
    o.push_str("]}");
    o
}

#[derive(Debug, Default)]
struct TelemetryInner {
    records: Vec<QueryRecord>,
    store_accounts: Vec<StoreAccount>,
    shard_accounts: Vec<ShardAccount>,
    violations: Vec<String>,
    next_seq: u64,
}

/// A query-scoped telemetry sink. Cheap to clone (`Arc`-shared), so one
/// handle can be attached to many devices and drained once; interior
/// mutability lets `&self` query paths record into it.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<Mutex<TelemetryInner>>,
}

impl Telemetry {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Verifies and stores one record, assigning its sequence number.
    ///
    /// # Panics
    /// In debug builds, panics if the record violates an accounting
    /// invariant (release builds retain the violation — see
    /// [`Telemetry::violations`]).
    pub fn record(&self, mut r: QueryRecord) {
        let verdict = verify_record(&r);
        let mut inner = self.inner.lock().expect("telemetry lock");
        r.seq = inner.next_seq;
        inner.next_seq += 1;
        if let Err(e) = verdict {
            let msg = format!("record {} ({}): {e}", r.seq, r.label);
            debug_assert!(false, "telemetry invariant violated: {msg}");
            inner.violations.push(msg);
        }
        inner.records.push(r);
    }

    /// Verifies the batch-vs-serial counter identity and stores the batch
    /// record. `queries` are the per-query records the batch covers (they
    /// are *not* stored here — record them individually).
    ///
    /// # Panics
    /// In debug builds, panics on a violated invariant.
    pub fn record_batch(&self, batch: QueryRecord, queries: &[QueryRecord]) {
        if let Err(e) = verify_batch(&batch, queries) {
            let msg = format!("batch ({}): {e}", batch.label);
            debug_assert!(false, "telemetry invariant violated: {msg}");
            self.inner
                .lock()
                .expect("telemetry lock")
                .violations
                .push(msg);
        }
        self.record(batch);
    }

    /// Verifies and stores one mutable-store account, assigning its
    /// sequence number from the same counter as query records.
    ///
    /// # Panics
    /// In debug builds, panics if the account violates a lifecycle
    /// invariant (release builds retain the violation — see
    /// [`Telemetry::violations`]).
    pub fn record_store(&self, mut a: StoreAccount) {
        let verdict = verify_store_account(&a);
        let mut inner = self.inner.lock().expect("telemetry lock");
        a.seq = inner.next_seq;
        inner.next_seq += 1;
        if let Err(e) = verdict {
            let msg = format!("store account {} ({}): {e}", a.seq, a.label);
            debug_assert!(false, "telemetry invariant violated: {msg}");
            inner.violations.push(msg);
        }
        inner.store_accounts.push(a);
    }

    /// Verifies and stores one sharded-store account, assigning its
    /// sequence number from the same counter as query records.
    ///
    /// # Panics
    /// In debug builds, panics if the account violates a placement or
    /// replication invariant (release builds retain the violation — see
    /// [`Telemetry::violations`]).
    pub fn record_shard(&self, mut a: ShardAccount) {
        let verdict = verify_shard_account(&a);
        let mut inner = self.inner.lock().expect("telemetry lock");
        a.seq = inner.next_seq;
        inner.next_seq += 1;
        if let Err(e) = verdict {
            let msg = format!("shard account {} ({}): {e}", a.seq, a.label);
            debug_assert!(false, "telemetry invariant violated: {msg}");
            inner.violations.push(msg);
        }
        inner.shard_accounts.push(a);
    }

    /// Snapshot of the collected sharded-store accounts.
    pub fn shard_accounts(&self) -> Vec<ShardAccount> {
        self.inner
            .lock()
            .expect("telemetry lock")
            .shard_accounts
            .clone()
    }

    /// Snapshot of the collected store accounts.
    pub fn store_accounts(&self) -> Vec<StoreAccount> {
        self.inner
            .lock()
            .expect("telemetry lock")
            .store_accounts
            .clone()
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("telemetry lock").records.len()
    }

    /// Whether no records have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the collected records.
    pub fn records(&self) -> Vec<QueryRecord> {
        self.inner.lock().expect("telemetry lock").records.clone()
    }

    /// Invariant violations retained in release builds (debug builds
    /// panic at the collection site instead).
    pub fn violations(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("telemetry lock")
            .violations
            .clone()
    }

    /// Renders every record as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("telemetry lock");
        let mut out = String::new();
        for r in &inner.records {
            out.push_str(&record_json(r));
            out.push('\n');
        }
        for a in &inner.store_accounts {
            out.push_str(&store_account_json(a));
            out.push('\n');
        }
        for a in &inner.shard_accounts {
            out.push_str(&shard_account_json(a));
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL export to a file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Aggregated fault counters over every non-batch record (batch
    /// records re-accumulate their member queries' faults, so including
    /// them would double-count). The result still satisfies
    /// [`FaultRecord::check_closure`].
    pub fn fault_totals(&self) -> FaultRecord {
        let inner = self.inner.lock().expect("telemetry lock");
        let mut total = FaultRecord::default();
        for r in &inner.records {
            if r.kind != RecordKind::Batch {
                total.accumulate(&r.faults);
            }
        }
        total
    }

    /// Summary-table rows (one per record) for the bench binaries:
    /// `[seq, kind, label, batch, vaults, seconds, bound, cycles, bytes,
    /// energy mJ, coverage]`.
    pub fn summary_rows(&self) -> Vec<Vec<String>> {
        let inner = self.inner.lock().expect("telemetry lock");
        inner
            .records
            .iter()
            .map(|r| {
                vec![
                    r.seq.to_string(),
                    r.kind.name().into(),
                    r.label.clone(),
                    r.batch.to_string(),
                    r.vaults.len().to_string(),
                    format!("{:.3e}", r.seconds),
                    if r.compute_bound { "compute" } else { "memory" }.into(),
                    r.total_cycles.to_string(),
                    r.total_bytes.to_string(),
                    format!("{:.3e}", r.energy_mj),
                    format!("{:.3}", r.coverage()),
                ]
            })
            .collect()
    }

    /// Column headers matching [`Telemetry::summary_rows`].
    pub fn summary_headers() -> &'static [&'static str] {
        &[
            "seq",
            "kind",
            "label",
            "batch",
            "vaults",
            "seconds",
            "bound",
            "cycles",
            "bytes",
            "energy mJ",
            "coverage",
        ]
    }
}

fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `f64` as a JSON number: Rust's shortest-roundtrip formatting, with
/// non-finite values (never produced by a verified record) mapped to
/// `null` so the output stays parseable.
fn json_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Serializes one record as a single-line JSON object.
pub fn record_json(r: &QueryRecord) -> String {
    let mut o = String::with_capacity(256 + 200 * r.vaults.len());
    o.push('{');
    let _ = write!(o, "\"seq\":{},", r.seq);
    o.push_str("\"kind\":");
    json_escape(r.kind.name(), &mut o);
    o.push_str(",\"label\":");
    json_escape(&r.label, &mut o);
    let _ = write!(
        o,
        ",\"batch\":{},\"k\":{},\"pus_per_vault\":{},",
        r.batch, r.k, r.pus_per_vault
    );
    o.push_str("\"seconds\":");
    json_f64(r.seconds, &mut o);
    let _ = write!(
        o,
        ",\"compute_bound\":{},\"total_cycles\":{},\"total_bytes\":{},",
        r.compute_bound, r.total_cycles, r.total_bytes
    );
    o.push_str("\"energy_mj\":");
    json_f64(r.energy_mj, &mut o);
    o.push_str(",\"phases\":{\"stage_seconds\":");
    json_f64(r.phases.stage_seconds, &mut o);
    o.push_str(",\"simulate_seconds\":");
    json_f64(r.phases.simulate_seconds, &mut o);
    o.push_str(",\"link_seconds\":");
    json_f64(r.phases.link_seconds, &mut o);
    o.push_str(",\"merge_seconds\":");
    json_f64(r.phases.merge_seconds, &mut o);
    o.push_str(",\"fault_seconds\":");
    json_f64(r.phases.fault_seconds, &mut o);
    o.push_str("},\"coverage\":");
    json_f64(r.coverage(), &mut o);
    if !r.faults.is_trivial() {
        let fr = &r.faults;
        let _ = write!(
            o,
            ",\"faults\":{{\"bit_flip_events\":{},\"ecc_corrected\":{},\
             \"ecc_uncorrectable\":{},\"crc_corruptions\":{},\"link_retries_ok\":{},\
             \"link_failed_attempts\":{},\"link_failures\":{},\"vault_outages\":{},\
             \"module_outages\":{},\"stragglers\":{},\"failed_over\":{},\
             \"lost_units\":{:?},\"covered_vectors\":{},\"total_vectors\":{},",
            fr.bit_flip_events,
            fr.ecc_corrected,
            fr.ecc_uncorrectable,
            fr.crc_corruptions,
            fr.link_retries_ok,
            fr.link_failed_attempts,
            fr.link_failures,
            fr.vault_outages,
            fr.module_outages,
            fr.stragglers,
            fr.failed_over,
            fr.lost_units,
            fr.covered_vectors,
            fr.total_vectors,
        );
        o.push_str("\"recovery_seconds\":");
        json_f64(fr.recovery_seconds, &mut o);
        o.push('}');
    }
    o.push_str(",\"vaults\":[");
    for (i, v) in r.vaults.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "{{\"vault\":{},\"cycles\":{},\"bytes\":{},\"instructions\":{},\
             \"pqueue_ops\":{},\"stack_ops\":{},\"scratchpad_accesses\":{},",
            v.vault,
            v.cycles,
            v.bytes,
            v.instructions,
            v.pqueue_ops,
            v.stack_ops,
            v.scratchpad_accesses
        );
        o.push_str("\"mem_seconds\":");
        json_f64(v.mem_seconds, &mut o);
        o.push_str(",\"comp_seconds\":");
        json_f64(v.comp_seconds, &mut o);
        let _ = write!(o, ",\"compute_bound\":{},", v.compute_bound);
        o.push_str("\"energy_mj\":");
        json_f64(v.energy_mj, &mut o);
        o.push('}');
    }
    o.push_str("]}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn account(vault: usize, bytes: u64, cycles: u64, bw: f64, freq: f64) -> VaultAccount {
        VaultAccount::from_stats(
            vault,
            &RunStats {
                cycles,
                instructions: cycles,
                dram: crate::sim::memif::DramStats {
                    bytes_read: bytes,
                    ..Default::default()
                },
                ..Default::default()
            },
            bw,
            freq,
            1,
        )
    }

    fn valid_record() -> QueryRecord {
        let bw = 10.0e9;
        let freq = 1.0e9;
        let mut vaults = vec![
            account(0, 80_000, 800, bw, freq),
            account(1, 1_000, 1_000, bw, freq),
        ];
        let (argmax, critical, cb) = critical_path(&vaults).unwrap();
        assert_eq!(argmax, 0, "vault 0 sets the path in this fixture");
        let window = critical + 2e-7 + 3e-8;
        for v in &mut vaults {
            v.energy_mj = 1.5 * window;
        }
        QueryRecord {
            seq: 0,
            kind: RecordKind::Query,
            label: "test".into(),
            batch: 1,
            k: 4,
            pus_per_vault: 1,
            seconds: window,
            compute_bound: cb,
            total_cycles: vaults.iter().map(|v| v.cycles).sum(),
            total_bytes: vaults.iter().map(|v| v.bytes).sum(),
            energy_mj: vaults.iter().map(|v| v.energy_mj).sum(),
            phases: Phases {
                stage_seconds: 1e-6,
                simulate_seconds: critical,
                link_seconds: 2e-7,
                merge_seconds: 3e-8,
                fault_seconds: 0.0,
            },
            vaults,
            faults: FaultRecord::default(),
        }
    }

    #[test]
    fn valid_record_passes() {
        assert_eq!(verify_record(&valid_record()), Ok(()));
    }

    #[test]
    fn corrupted_bytes_sum_fires() {
        let mut r = valid_record();
        r.total_bytes += 1;
        assert!(matches!(
            verify_record(&r),
            Err(AccountingError::BytesMismatch { .. })
        ));
    }

    #[test]
    fn corrupted_cycles_sum_fires() {
        let mut r = valid_record();
        r.vaults[1].cycles += 7;
        assert!(matches!(
            verify_record(&r),
            Err(AccountingError::CyclesMismatch { .. })
        ));
    }

    #[test]
    fn corrupted_classification_fires() {
        // The fixture's critical vault (0) is memory-bound; claiming the
        // record is compute-bound is exactly the PR 2 / PR 3 bug shape.
        let mut r = valid_record();
        r.compute_bound = true;
        assert!(matches!(
            verify_record(&r),
            Err(AccountingError::ClassificationMismatch { vault: 0, .. })
        ));
    }

    #[test]
    fn negative_energy_fires() {
        let mut r = valid_record();
        r.vaults[0].energy_mj = -1.0;
        r.energy_mj = r.vaults.iter().map(|v| v.energy_mj).sum();
        assert!(matches!(
            verify_record(&r),
            Err(AccountingError::BadEnergy { .. })
        ));
    }

    #[test]
    fn non_finite_energy_fires() {
        let mut r = valid_record();
        r.energy_mj = f64::NAN;
        assert!(matches!(
            verify_record(&r),
            Err(AccountingError::BadEnergy { .. })
        ));
    }

    #[test]
    fn seconds_drift_fires() {
        let mut r = valid_record();
        r.seconds *= 1.0 + 1e-6;
        assert!(matches!(
            verify_record(&r),
            Err(AccountingError::SecondsMismatch { .. })
        ));
    }

    #[test]
    fn simulate_span_drift_fires() {
        let mut r = valid_record();
        r.phases.simulate_seconds *= 0.5;
        assert!(matches!(
            verify_record(&r),
            Err(AccountingError::SimulateMismatch { .. })
        ));
    }

    #[test]
    fn argmax_ties_resolve_to_first_vault() {
        let bw = 10.0e9;
        let freq = 1.0e9;
        // Vault 0 memory-bound, vault 1 compute-bound, identical critical
        // times (1e-5 s each).
        let vaults = vec![account(0, 100_000, 100, bw, freq), {
            let mut v = account(1, 1_000, 10_000, bw, freq);
            assert!(v.compute_bound);
            v.vault = 1;
            v
        }];
        assert_eq!(
            vaults[0].critical_seconds(),
            vaults[1].critical_seconds(),
            "fixture must tie"
        );
        let (argmax, _, cb) = critical_path(&vaults).unwrap();
        assert_eq!(argmax, 0);
        assert!(!cb, "first argmax (memory-bound) wins the tie");
    }

    #[test]
    fn batch_counter_mismatch_fires() {
        let q1 = valid_record();
        let q2 = valid_record();
        let mut batch = valid_record();
        batch.kind = RecordKind::Batch;
        batch.batch = 2;
        // Correct totals pass…
        batch.total_cycles = q1.total_cycles + q2.total_cycles;
        batch.total_bytes = q1.total_bytes + q2.total_bytes;
        assert_eq!(verify_batch(&batch, &[q1.clone(), q2.clone()]), Ok(()));
        // …a dropped vault's worth of bytes fires.
        batch.total_bytes -= q2.vaults[0].bytes;
        assert!(matches!(
            verify_batch(&batch, &[q1, q2]),
            Err(AccountingError::BatchCounterMismatch {
                counter: "bytes",
                ..
            })
        ));
    }

    #[test]
    #[should_panic(expected = "telemetry invariant violated")]
    #[cfg(debug_assertions)]
    fn sink_panics_on_violation_in_debug() {
        let t = Telemetry::new();
        let mut r = valid_record();
        r.total_bytes += 1;
        t.record(r);
    }

    #[test]
    fn sink_collects_and_exports() {
        let t = Telemetry::new();
        t.record(valid_record());
        t.record(valid_record());
        assert_eq!(t.len(), 2);
        assert!(t.violations().is_empty());
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"kind\":\"query\""));
            assert!(line.contains("\"total_bytes\":81000"));
        }
        // Sequence numbers are assigned at collection.
        let recs = t.records();
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].seq, 1);
        let rows = t.summary_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), Telemetry::summary_headers().len());
    }

    #[test]
    fn fault_leak_fires() {
        let mut r = valid_record();
        // An injected flip with no corrected/uncorrectable trace.
        r.faults.bit_flip_events = 1;
        assert!(matches!(
            verify_record(&r),
            Err(AccountingError::FaultMismatch { .. })
        ));
    }

    #[test]
    fn consistent_fault_record_passes_and_exports() {
        let mut r = valid_record();
        r.faults.bit_flip_events = 2;
        r.faults.ecc_corrected = 1;
        r.faults.ecc_uncorrectable = 1;
        r.faults.lost_ecc = 1;
        r.faults.lost_units = vec![1];
        r.faults.covered_vectors = 80;
        r.faults.total_vectors = 100;
        assert_eq!(verify_record(&r), Ok(()));
        assert!((r.coverage() - 0.8).abs() < 1e-12);
        let json = record_json(&r);
        assert!(json.contains("\"coverage\":0.8"));
        assert!(json.contains("\"ecc_corrected\":1"));
        assert!(json.contains("\"lost_units\":[1]"));
    }

    #[test]
    fn recovery_time_drift_fires() {
        let mut r = valid_record();
        r.faults.crc_corruptions = 1;
        r.faults.link_retries_ok = 1;
        r.faults.recovery_seconds = 1e-6;
        // Phase span left at zero: the retry time vanished from timing.
        assert!(matches!(
            verify_record(&r),
            Err(AccountingError::FaultMismatch { .. })
        ));
        r.phases.fault_seconds = 1e-6;
        r.seconds += 1e-6;
        assert_eq!(verify_record(&r), Ok(()));
    }

    #[test]
    fn fault_totals_skip_batch_records() {
        let t = Telemetry::new();
        let mut q = valid_record();
        q.faults.stragglers = 1;
        q.faults.covered_vectors = 10;
        q.faults.total_vectors = 10;
        t.record(q.clone());
        let mut b = q;
        b.kind = RecordKind::Batch;
        t.record(b);
        assert_eq!(t.fault_totals().stragglers, 1);
    }

    fn valid_store_account() -> StoreAccount {
        StoreAccount {
            seq: 0,
            label: "seal".into(),
            vec_bytes: 32,
            memtable_entries: 3,
            index_live: 3 + (10 - 2) + (4 - 1),
            index_dead: 2,
            wal_records: 20,
            wal_bytes: 2_000,
            payload_bytes: 1_000,
            staged_bytes: (10 + 4 + 6) * 32,
            seals: 2,
            compactions: 1,
            fanout: 4,
            segments: vec![
                SegmentAccount {
                    id: 0,
                    level: 0,
                    entries: 10,
                    stale: 2,
                    bytes: 10 * 32,
                },
                SegmentAccount {
                    id: 1,
                    level: 1,
                    entries: 4,
                    stale: 1,
                    bytes: 4 * 32,
                },
            ],
        }
    }

    #[test]
    fn valid_store_account_passes_and_derives() {
        let a = valid_store_account();
        assert_eq!(verify_store_account(&a), Ok(()));
        assert_eq!(a.resident(), 14);
        assert_eq!(a.live(), 14 - 3 + 3);
        assert!((a.dead_ratio() - 3.0 / 14.0).abs() < 1e-12);
        assert!((a.write_amp() - (2_000.0 + 640.0) / 1_000.0).abs() < 1e-12);
        assert_eq!(a.compaction_debt(), 0);
        let json = store_account_json(&a);
        assert!(json.contains("\"kind\":\"store\""));
        assert!(json.contains("\"compactions\":1"));
        assert!(json.contains("\"stale\":2"));
    }

    #[test]
    fn store_visibility_closure_fires() {
        // The index claims one more live entry than the segments +
        // memtable can account for: stale-counter or index drift.
        let mut a = valid_store_account();
        a.index_live += 1;
        assert!(matches!(
            verify_store_account(&a),
            Err(AccountingError::StoreMismatch { .. })
        ));
    }

    #[test]
    fn store_stale_overflow_fires() {
        let mut a = valid_store_account();
        a.segments[0].stale = a.segments[0].entries + 1;
        assert!(matches!(
            verify_store_account(&a),
            Err(AccountingError::StoreMismatch { .. })
        ));
    }

    #[test]
    fn store_wal_below_payload_fires() {
        let mut a = valid_store_account();
        a.wal_bytes = a.payload_bytes - 1;
        assert!(matches!(
            verify_store_account(&a),
            Err(AccountingError::StoreMismatch { .. })
        ));
    }

    #[test]
    fn store_compaction_debt_counts_overflow() {
        let mut a = valid_store_account();
        a.fanout = 1;
        // Two segments on distinct levels: each level holds exactly one,
        // so no debt; move both onto level 0 and one merge is owed.
        assert_eq!(a.compaction_debt(), 0);
        a.segments[1].level = 0;
        assert_eq!(a.compaction_debt(), 1);
    }

    #[test]
    fn sink_collects_store_accounts() {
        let t = Telemetry::new();
        t.record(valid_record());
        t.record_store(valid_store_account());
        assert_eq!(t.store_accounts().len(), 1);
        assert_eq!(t.store_accounts()[0].seq, 1, "shared seq counter");
        assert!(t.violations().is_empty());
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.lines().nth(1).unwrap().contains("\"kind\":\"store\""));
    }

    #[test]
    #[should_panic(expected = "telemetry invariant violated")]
    #[cfg(debug_assertions)]
    fn store_sink_panics_on_violation_in_debug() {
        let t = Telemetry::new();
        let mut a = valid_store_account();
        a.index_live += 1;
        t.record_store(a);
    }

    #[test]
    fn json_escapes_label() {
        let mut r = valid_record();
        r.label = "a\"b\\c\nd".into();
        let json = record_json(&r);
        assert!(json.contains(r#""label":"a\"b\\c\nd""#));
    }
}
