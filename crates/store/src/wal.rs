//! The store's write-ahead log: a flat byte stream of CRC-framed
//! records that is the *only* durable state the store has.
//!
//! Every mutation — inserts, deletes, and the seal/compact *decisions*
//! themselves — appends one record before it is applied, so replaying
//! the log from the start reconstructs the exact store state, including
//! segment boundaries and compaction history. Logging the lifecycle
//! decisions (rather than re-deriving them from policy at replay time)
//! makes recovery policy-independent: a store replayed under different
//! capacity/fanout settings still lands in the identical segment layout,
//! which is what the bit-identical crash-recovery proptests pin down.
//!
//! # Frame format
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc32` is [`ssam_hmc::packet::crc32`] (IEEE 802.3, the same
//! polynomial the simulated link layer checks) over the payload bytes.
//! Payloads are tagged by their first byte:
//!
//! ```text
//! INSERT  0x49 'I'  [uid: u32] [seq: u64] [dims: u32] [dims x f32 LE]
//! DELETE  0x44 'D'  [uid: u32] [seq: u64]
//! SEAL    0x53 'S'  [seq: u64]
//! COMPACT 0x43 'C'  [level: u32] [seq: u64]
//! ```
//!
//! # Torn tails
//!
//! A crash mid-append leaves a torn tail: a truncated frame, or a full
//! frame whose CRC no longer matches. [`decode_stream`] stops at the
//! first record it cannot validate and reports how many bytes of prefix
//! were good; recovery replays that prefix and discards the rest, which
//! is exactly the "last acknowledged write may be lost, everything
//! before it survives" contract the crash proptests exercise via
//! [`ssam_faults::CrashSpec`].

use ssam_hmc::packet::crc32;

/// Payload tag for an insert record.
const TAG_INSERT: u8 = 0x49;
/// Payload tag for a delete record.
const TAG_DELETE: u8 = 0x44;
/// Payload tag for a memtable-seal decision.
const TAG_SEAL: u8 = 0x53;
/// Payload tag for a compaction decision.
const TAG_COMPACT: u8 = 0x43;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Upsert of `uid` with the given float vector at sequence `seq`.
    Insert {
        /// Caller-chosen vector id.
        uid: u32,
        /// Store-assigned monotonic sequence number.
        seq: u64,
        /// The raw (pre-quantization) vector.
        vector: Vec<f32>,
    },
    /// Tombstone for `uid` at sequence `seq`.
    Delete {
        /// Caller-chosen vector id.
        uid: u32,
        /// Store-assigned monotonic sequence number.
        seq: u64,
    },
    /// The memtable was sealed into a new level-0 segment.
    Seal {
        /// Sequence number the seal decision was made at.
        seq: u64,
    },
    /// Level `level` was compacted into `level + 1`.
    Compact {
        /// The level that was drained.
        level: u32,
        /// Sequence number the compaction decision was made at.
        seq: u64,
    },
}

impl WalRecord {
    /// Encodes the record as one complete frame (header + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(16);
        match self {
            WalRecord::Insert { uid, seq, vector } => {
                p.push(TAG_INSERT);
                p.extend_from_slice(&uid.to_le_bytes());
                p.extend_from_slice(&seq.to_le_bytes());
                p.extend_from_slice(&(vector.len() as u32).to_le_bytes());
                for &x in vector {
                    p.extend_from_slice(&x.to_le_bytes());
                }
            }
            WalRecord::Delete { uid, seq } => {
                p.push(TAG_DELETE);
                p.extend_from_slice(&uid.to_le_bytes());
                p.extend_from_slice(&seq.to_le_bytes());
            }
            WalRecord::Seal { seq } => {
                p.push(TAG_SEAL);
                p.extend_from_slice(&seq.to_le_bytes());
            }
            WalRecord::Compact { level, seq } => {
                p.push(TAG_COMPACT);
                p.extend_from_slice(&level.to_le_bytes());
                p.extend_from_slice(&seq.to_le_bytes());
            }
        }
        let mut f = Vec::with_capacity(8 + p.len());
        f.extend_from_slice(&(p.len() as u32).to_le_bytes());
        f.extend_from_slice(&crc32(&p).to_le_bytes());
        f.extend_from_slice(&p);
        f
    }

    /// The sequence number the record carries.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Insert { seq, .. }
            | WalRecord::Delete { seq, .. }
            | WalRecord::Seal { seq }
            | WalRecord::Compact { seq, .. } => *seq,
        }
    }
}

/// Decodes one payload (sans frame header). `None` on any structural
/// problem — unknown tag, short body, trailing garbage.
fn decode_payload(p: &[u8]) -> Option<WalRecord> {
    let (&tag, body) = p.split_first()?;
    let u32_at = |b: &[u8], at: usize| -> Option<u32> {
        Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?))
    };
    let u64_at = |b: &[u8], at: usize| -> Option<u64> {
        Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
    };
    match tag {
        TAG_INSERT => {
            let uid = u32_at(body, 0)?;
            let seq = u64_at(body, 4)?;
            let dims = u32_at(body, 12)? as usize;
            let rest = body.get(16..)?;
            if rest.len() != dims * 4 {
                return None;
            }
            let vector = rest
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            Some(WalRecord::Insert { uid, seq, vector })
        }
        TAG_DELETE => {
            if body.len() != 12 {
                return None;
            }
            Some(WalRecord::Delete {
                uid: u32_at(body, 0)?,
                seq: u64_at(body, 4)?,
            })
        }
        TAG_SEAL => {
            if body.len() != 8 {
                return None;
            }
            Some(WalRecord::Seal {
                seq: u64_at(body, 0)?,
            })
        }
        TAG_COMPACT => {
            if body.len() != 12 {
                return None;
            }
            Some(WalRecord::Compact {
                level: u32_at(body, 0)?,
                seq: u64_at(body, 4)?,
            })
        }
        _ => None,
    }
}

/// Decodes a WAL byte stream front to back, stopping at the first torn
/// or corrupt frame. Returns the valid records and the byte length of
/// the good prefix (everything past it is the torn tail a recovering
/// store truncates away).
pub fn decode_stream(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= 8 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
            break; // truncated frame body
        };
        if crc32(payload) != crc {
            break; // bit rot or a torn overwrite
        }
        let Some(record) = decode_payload(payload) else {
            break; // structurally invalid payload
        };
        records.push(record);
        at += 8 + len;
    }
    (records, at)
}

/// When appended WAL records are flushed to stable storage.
///
/// The store's crash drills honour this: a crash can only tear bytes
/// past the synced watermark, so `EveryRecord` exposes the whole log to
/// torn tails (each record is durable the moment its append returns),
/// while `OnSeal` batches durability — unsealed tail records may vanish
/// wholesale at a crash, trading the per-record flush for ingest speed.
///
/// The default is [`WalSync::EveryRecord`]: acknowledged writes survive
/// any crash minus at most the one record a tear cuts in half, which is
/// the contract the PR 9 recovery proptests pin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WalSync {
    /// Flush after every appended record (default; strongest durability).
    #[default]
    EveryRecord,
    /// Flush only when a seal or compaction record is appended; data
    /// records between lifecycle events ride in the unsynced tail.
    OnSeal,
}

/// The append-only log. The backing store is an in-memory byte vector —
/// this is a simulator, so "durable" means "survives as bytes the
/// harness can snapshot, truncate, and hand to [`crate::Store::open`]";
/// the byte format itself is what a file-backed deployment would fsync.
///
/// The log tracks a *synced watermark*: the byte length known to have
/// reached stable storage. [`Wal::append`] leaves new bytes unsynced;
/// the owning store calls [`Wal::sync`] per its [`WalSync`] policy, and
/// crash harnesses use [`Wal::crash_image`] to model what a real crash
/// could leave behind.
#[derive(Debug, Clone, Default)]
pub struct Wal {
    bytes: Vec<u8>,
    records: u64,
    synced: usize,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Adopts an existing byte stream (recovery path). Only the valid
    /// prefix is kept; the torn tail is truncated away. Returns the
    /// replayable records.
    pub fn from_bytes(bytes: &[u8]) -> (Self, Vec<WalRecord>) {
        let (records, good) = decode_stream(bytes);
        (
            Wal {
                bytes: bytes[..good].to_vec(),
                records: records.len() as u64,
                // The recovered image *is* stable storage.
                synced: good,
            },
            records,
        )
    }

    /// Appends one record; returns the frame size in bytes.
    pub fn append(&mut self, record: &WalRecord) -> usize {
        let frame = record.encode();
        self.bytes.extend_from_slice(&frame);
        self.records += 1;
        frame.len()
    }

    /// The full log image.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Bytes appended so far.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Marks everything appended so far as flushed to stable storage.
    pub fn sync(&mut self) {
        self.synced = self.bytes.len();
    }

    /// Bytes known durable: a crash can only tear bytes past this point.
    pub fn durable_len(&self) -> u64 {
        self.synced as u64
    }

    /// What a crash at torn-tail point `cut` leaves behind: the synced
    /// prefix always survives; unsynced bytes survive only up to `cut`.
    pub fn crash_image(&self, cut: u64) -> &[u8] {
        let keep = (cut as usize).clamp(self.synced, self.bytes.len());
        &self.bytes[..keep]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                uid: 7,
                seq: 1,
                vector: vec![0.5, -0.25, 3.0],
            },
            WalRecord::Delete { uid: 7, seq: 2 },
            WalRecord::Seal { seq: 3 },
            WalRecord::Compact { level: 1, seq: 4 },
        ]
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let mut wal = Wal::new();
        for r in sample() {
            wal.append(&r);
        }
        let (decoded, good) = decode_stream(wal.bytes());
        assert_eq!(decoded, sample());
        assert_eq!(good as u64, wal.len());
        assert_eq!(wal.records(), 4);
    }

    #[test]
    fn torn_tail_truncates_to_last_whole_record() {
        let mut wal = Wal::new();
        for r in sample() {
            wal.append(&r);
        }
        let full = wal.bytes().to_vec();
        // Every possible torn length recovers a prefix of the records.
        for cut in 0..=full.len() {
            let (records, good) = decode_stream(&full[..cut]);
            assert!(good <= cut);
            assert_eq!(records, sample()[..records.len()]);
        }
        assert_eq!(decode_stream(&full).0.len(), 4);
    }

    #[test]
    fn corrupt_byte_stops_replay_at_preceding_record() {
        let mut wal = Wal::new();
        for r in sample() {
            wal.append(&r);
        }
        let mut bytes = wal.bytes().to_vec();
        // Flip a bit inside the third frame's payload.
        let third_start: usize = sample()[..2].iter().map(|r| r.encode().len()).sum();
        bytes[third_start + 9] ^= 0x40;
        let (records, good) = decode_stream(&bytes);
        assert_eq!(records.len(), 2);
        assert_eq!(good, third_start);
        let (recovered, replay) = Wal::from_bytes(&bytes);
        assert_eq!(replay.len(), 2);
        assert_eq!(recovered.len() as usize, third_start);
    }

    #[test]
    fn sync_watermark_bounds_crash_images() {
        let mut wal = Wal::new();
        let recs = sample();
        wal.append(&recs[0]);
        wal.append(&recs[1]);
        assert_eq!(wal.durable_len(), 0, "append must not imply durability");
        wal.sync();
        let durable = wal.len();
        wal.append(&recs[2]);
        assert_eq!(wal.durable_len(), durable);
        // A crash cut below the watermark is clamped up to it; a cut in
        // the unsynced tail tears there; past-the-end cuts are clamped.
        assert_eq!(wal.crash_image(0).len() as u64, durable);
        assert_eq!(wal.crash_image(durable + 3).len() as u64, durable + 3);
        assert_eq!(wal.crash_image(u64::MAX).len() as u64, wal.len());
        // Recovery adopts the whole surviving image as durable.
        let (recovered, replay) = Wal::from_bytes(wal.crash_image(0));
        assert_eq!(replay.len(), 2);
        assert_eq!(recovered.durable_len(), recovered.len());
    }

    #[test]
    fn unknown_tag_rejected() {
        let payload = [0xEEu8, 1, 2, 3];
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let (records, good) = decode_stream(&frame);
        assert!(records.is_empty());
        assert_eq!(good, 0);
    }
}
