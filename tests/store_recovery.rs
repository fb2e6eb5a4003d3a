//! Crash-recovery properties: WAL replay restores bit-identical state
//! after seeded outages, at every torn-tail cut point.
//!
//! Three layers of guarantee, each asserted at `to_bits` level:
//!
//! 1. **Full-image recovery**: `Store::open` over the complete WAL
//!    reproduces the original store exactly — same `Snapshot` (memtable,
//!    index, segment layout, sequence counter) and bit-identical query
//!    answers.
//! 2. **Torn-tail recovery**: for crash points drawn by
//!    [`ssam::faults::CrashSpec`] (uniform over the byte length of the
//!    log, so mid-frame tears and whole-record boundaries both occur),
//!    the recovered live set equals a record-level shadow model at
//!    exactly the number of records the recovery replayed — the
//!    "last unacknowledged write may vanish, nothing else changes"
//!    contract.
//! 3. **Recovery idempotence**: recovering the recovered store's own WAL
//!    is a fixed point.
//!
//! A fixed-seed smoke at the bottom drives the recovered store through
//! chaos fault injection and checks the fault ledger still closes — the
//! CI crash-recovery gate.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ssam::core::device::DeviceMetric;
use ssam::core::telemetry::Telemetry;
use ssam::faults::{CrashSpec, FaultPlan};
use ssam::store::{
    ShardedStore, ShardedStoreConfig, Store, StoreConfig, StoreError, Wal, WalRecord,
};

const DIMS: usize = 4;
const UIDS: u32 = 24;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, Vec<f32>),
    Delete(u32),
    Seal,
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored proptest has no weighted `prop_oneof!`; duplicated
    // arms bias the mix toward inserts.
    let insert = || {
        (0u32..UIDS, prop::collection::vec(-1.0f32..1.0, DIMS))
            .prop_map(|(uid, v)| Op::Insert(uid, v))
    };
    prop_oneof![
        insert(),
        insert(),
        insert(),
        insert(),
        (0u32..UIDS).prop_map(Op::Delete),
        (0u32..UIDS).prop_map(Op::Delete),
        Just(Op::Seal),
        Just(Op::Compact),
    ]
}

fn config() -> StoreConfig {
    let mut c = StoreConfig::new(DIMS);
    c.memtable_capacity = 4;
    c.fanout = 2;
    c.device.fast_path = true;
    c
}

/// The live set as a comparable image: uid → f32 bit patterns.
type LiveModel = BTreeMap<u32, Vec<u32>>;

fn live_bits(store: &Store) -> LiveModel {
    store
        .live_set()
        .into_iter()
        .map(|(uid, v)| (uid, v.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Build a store while shadowing, per WAL *record*, what the live set
    /// must be; then crash it at seeded torn-tail points and check the
    /// recovered store against the shadow at exactly the replayed record
    /// count. Visibility only changes on insert/delete records, so the
    /// shadow is exact even when a cut splits an insert from the
    /// auto-seal it triggered.
    #[test]
    fn torn_tail_recovery_matches_record_shadow(
        ops in prop::collection::vec(arb_op(), 1..40),
        seed in any::<u64>(),
    ) {
        let mut store = Store::create(config());
        // models[r] = live set after the first r WAL records.
        let mut model: LiveModel = BTreeMap::new();
        let mut models: Vec<LiveModel> = vec![model.clone()];
        for op in &ops {
            match op {
                Op::Insert(uid, v) => {
                    let ack = store.insert(*uid, v).expect("insert");
                    model.insert(*uid, v.iter().map(|x| x.to_bits()).collect());
                    models.push(model.clone());
                    if ack.sealed {
                        // The auto-seal appended a second record; the
                        // live set is unchanged by it.
                        models.push(model.clone());
                    }
                }
                Op::Delete(uid) => {
                    store.delete(*uid).expect("delete");
                    model.remove(uid);
                    models.push(model.clone());
                }
                Op::Seal => {
                    if store.seal() {
                        models.push(model.clone());
                    }
                }
                Op::Compact => {
                    if store.compact_step() {
                        models.push(model.clone());
                    }
                }
            }
        }
        let wal = store.wal_bytes().to_vec();
        prop_assert_eq!(models.len() as u64 - 1, store.stats().wal_records);

        // Full-image recovery: an untorn log is a perfect clone.
        let (full, rec) = Store::open(config(), &wal).expect("full recovery");
        prop_assert_eq!(rec.truncated, 0);
        prop_assert_eq!(rec.replayed + 1, models.len());
        prop_assert_eq!(full.snapshot(), store.snapshot());
        let q = [0.25f32, -0.5, 0.125, 0.75];
        let a = store.query(&q, DeviceMetric::Euclidean, 5).expect("query");
        let b = full.clone().query(&q, DeviceMetric::Euclidean, 5).expect("query");
        prop_assert_eq!(a.neighbors.len(), b.neighbors.len());
        for (x, y) in a.neighbors.iter().zip(&b.neighbors) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.dist.to_bits(), y.dist.to_bits());
        }

        // Seeded torn tails: each crash event picks an independent cut.
        let crash = CrashSpec::new(seed);
        for event in 0..6u64 {
            let cut = crash.torn_tail(event, wal.len() as u64) as usize;
            let (recovered, rec) =
                Store::open(config(), &wal[..cut]).expect("torn recovery");
            prop_assert!(
                rec.replayed < models.len(),
                "replayed more records than were ever written"
            );
            prop_assert_eq!(
                live_bits(&recovered),
                models[rec.replayed].clone(),
                "live set diverged at cut {} (replayed {})",
                cut,
                rec.replayed
            );
            // Idempotence: recovering the recovered WAL is a fixed point.
            let (again, rec2) =
                Store::open(config(), recovered.wal_bytes()).expect("re-recovery");
            prop_assert_eq!(rec2.truncated, 0);
            prop_assert_eq!(again.snapshot(), recovered.snapshot());
        }
    }
}

/// Fixed-seed CI gate: crash a store mid-life, recover it, serve chaos-
/// faulted queries from the recovered segments, and require both a
/// bit-identical recovery and a closed fault ledger with zero telemetry
/// violations.
#[test]
fn crash_recovery_smoke_with_chaos_faults() {
    let mut store = Store::create(config());
    for i in 0..40u32 {
        let v: Vec<f32> = (0..DIMS)
            .map(|d| (((i * 7 + d as u32 * 3) % 19) as f32 - 9.0) / 10.0)
            .collect();
        store.insert(i % UIDS, &v).expect("insert");
        if i % 9 == 0 {
            store.delete((i * 5) % UIDS).expect("delete");
        }
        if i % 13 == 0 {
            store.compact_step();
        }
    }
    let wal = store.wal_bytes().to_vec();

    let crash = CrashSpec::new(0xC0FF_EE00);
    let cut = crash.torn_tail(1, wal.len() as u64) as usize;
    let (mut recovered, rec) = Store::open(config(), &wal[..cut]).expect("recovery");
    assert_eq!(rec.truncated as usize, cut - recovered.wal_bytes().len());

    // Bit-identical recovery of the same prefix, twice.
    let (twin, _) = Store::open(config(), &wal[..cut]).expect("twin recovery");
    assert_eq!(twin.snapshot(), recovered.snapshot());

    // Chaos-faulted queries over the recovered segments: the fault
    // ledger must close and the store account must verify.
    let sink = Telemetry::new();
    recovered.attach_telemetry(&sink);
    recovered.set_fault_plan(Some(std::sync::Arc::new(FaultPlan::chaos(7))));
    for s in 0..12 {
        let q: Vec<f32> = (0..DIMS).map(|d| ((s + d) as f32 * 0.37).sin()).collect();
        let r = recovered
            .query(&q, DeviceMetric::Euclidean, 4)
            .expect("chaos query");
        assert!(r.faults.coverage() > 0.0, "chaos lost every vault");
    }
    recovered.record_account("crash_recovery_smoke");
    let violations = sink.violations();
    assert!(violations.is_empty(), "violations: {violations:#?}");
    sink.fault_totals()
        .check_closure()
        .expect("fault ledger must close");
}

/// CRC-valid records this store could not have written are typed errors
/// from both `Store::open` and `ShardedStore::open`, never an allocation
/// abort or an overflow panic: a `Compact` for a level the replay has not
/// built, and any record at `seq == u64::MAX`.
#[test]
fn records_the_store_could_not_have_written_are_corrupt_wal() {
    let image = |records: &[WalRecord]| {
        let mut wal = Wal::new();
        for r in records {
            wal.append(r);
        }
        wal.bytes().to_vec()
    };
    let insert = WalRecord::Insert {
        uid: 0,
        seq: 1,
        vector: vec![0.5; DIMS],
    };
    let cases = [
        (image(&[WalRecord::Compact { level: 7, seq: 1 }]), 0),
        // One seal builds level 0 only.
        (
            image(&[
                insert.clone(),
                WalRecord::Seal { seq: 2 },
                WalRecord::Compact { level: 1, seq: 3 },
            ]),
            2,
        ),
        (
            image(&[
                insert,
                WalRecord::Delete {
                    uid: 0,
                    seq: u64::MAX,
                },
            ]),
            1,
        ),
    ];
    for (wal, record) in &cases {
        let expected = Some(StoreError::CorruptWal { record: *record });
        assert_eq!(Store::open(config(), wal).err(), expected);
        let sharded = ShardedStore::open(
            ShardedStoreConfig::new(1, 1, config()),
            std::slice::from_ref(wal),
        );
        assert_eq!(sharded.err(), expected);
    }
    // Each image below opens alone; together they hold a uid on the
    // wrong shard (2 shards × 1 replica), or two replicas that disagree
    // at one seq (1 shard × 2 replicas).
    let at = |uid, seq, x| WalRecord::Insert {
        uid,
        seq,
        vector: vec![x; DIMS],
    };
    let sharded_cases = [
        (
            2,
            1,
            [
                image(&[at(0, 1, 0.0), at(1, 3, 0.0)]),
                image(&[at(1, 2, 0.0)]),
            ],
            1,
        ),
        (1, 2, [image(&[at(0, 1, 0.0)]), image(&[at(0, 1, 0.9)])], 0),
    ];
    for (shards, replicas, images, record) in &sharded_cases {
        let sharded = ShardedStore::open(
            ShardedStoreConfig::new(*shards, *replicas, config()),
            images,
        );
        assert_eq!(
            sharded.err(),
            Some(StoreError::CorruptWal { record: *record })
        );
    }
}

/// A WAL image of `records`, each framed by the store's own encoder.
fn image_of(records: &[WalRecord]) -> Vec<u8> {
    let mut wal = Wal::new();
    for r in records {
        wal.append(r);
    }
    wal.bytes().to_vec()
}

fn insert_at(uid: u32, seq: u64) -> WalRecord {
    WalRecord::Insert {
        uid,
        seq,
        vector: vec![uid as f32 / 8.0; DIMS],
    }
}

/// At the end of the sequence space a store acknowledges only writes its
/// WAL can replay. From an image whose last record is at `u64::MAX − 3`,
/// one insert is acked at `u64::MAX − 2`; the next insert and a delete
/// are `SeqExhausted` with nothing appended; the store's own WAL reopens
/// with the same live set. In the variant the acked insert fills the
/// memtable and seals at `u64::MAX − 1`. An image already ending at
/// `u64::MAX − 1` neither seals nor compacts. A 2 × 1 sharded store
/// refuses before it consumes a global seq.
#[test]
fn exhausted_sequence_numbers_refuse_writes_the_wal_could_not_recover() {
    let top = u64::MAX - 3;
    // Memtable capacity 4: one resident entry, or three (so the acked
    // insert seals).
    for (preload, seals) in [(1u64, false), (3, true)] {
        let records: Vec<WalRecord> = (0..preload)
            .map(|i| insert_at(i as u32, top - (preload - 1 - i)))
            .collect();
        let (mut store, _) = Store::open(config(), &image_of(&records)).expect("opens");
        let ack = store.insert(10, &[0.5; DIMS]).expect("last insert");
        assert_eq!((ack.seq, ack.sealed), (u64::MAX - 2, seals));
        let wal = store.wal_bytes().to_vec();
        assert_eq!(
            store.insert(11, &[0.25; DIMS]).err(),
            Some(StoreError::SeqExhausted)
        );
        assert_eq!(store.delete(0).err(), Some(StoreError::SeqExhausted));
        assert_eq!(store.wal_bytes(), wal.as_slice(), "a refusal appended");
        let (reopened, rec) = Store::open(config(), &wal).expect("own WAL reopens");
        assert_eq!(rec.truncated, 0);
        assert_eq!(live_bits(&reopened), live_bits(&store));
        assert_eq!(reopened.snapshot(), store.snapshot());
    }

    // Three level-0 segments over fanout 2 and a resident entry, the last
    // record at `u64::MAX − 1`: the seal and the compaction it owes would
    // take `u64::MAX`, so neither runs.
    let records: Vec<WalRecord> = (0..7u64)
        .map(|i| {
            let seq = u64::MAX - 7 + i;
            if i % 2 == 0 {
                insert_at(i as u32, seq)
            } else {
                WalRecord::Seal { seq }
            }
        })
        .collect();
    let (mut store, _) = Store::open(config(), &image_of(&records)).expect("opens");
    assert!(store.compaction_needed());
    assert_eq!((store.next_seq(), store.live_len()), (u64::MAX, 4));
    let wal = store.wal_bytes().to_vec();
    assert!(!store.seal());
    assert!(!store.compact_step());
    assert_eq!(store.wal_bytes(), wal.as_slice());
    Store::open(config(), &wal).expect("reopens");

    let sharded_config = || ShardedStoreConfig::new(2, 1, config());
    let images = [
        image_of(&[insert_at(0, top - 1)]),
        image_of(&[insert_at(1, top)]),
    ];
    let (mut sharded, _) = ShardedStore::open(sharded_config(), &images).expect("opens");
    let ack = sharded.insert(2, &[0.5; DIMS]).expect("last insert");
    assert_eq!(ack.seq, u64::MAX - 2);
    let before = sharded.wal_images();
    assert_eq!(
        sharded.insert(3, &[0.25; DIMS]).err(),
        Some(StoreError::SeqExhausted)
    );
    assert_eq!(sharded.delete(0).err(), Some(StoreError::SeqExhausted));
    assert_eq!(sharded.wal_images(), before);
    let (reopened, _) = ShardedStore::open(sharded_config(), &before).expect("reopens");
    assert_eq!(reopened.live_set(), sharded.live_set());
}

/// The real 20-record image the hostile-bytes property mutates: inserts,
/// an update, deletes, seals and a compaction.
fn twenty_record_image() -> Vec<u8> {
    let mut store = Store::create(config());
    for i in 0..14u32 {
        store
            .insert(i % 9, &[i as f32 * 0.125 - 0.5; DIMS])
            .expect("insert");
        if i % 5 == 4 {
            store.delete(i % 7).expect("delete");
        }
    }
    store.compact_step();
    assert_eq!(store.stats().wal_records, 20);
    store.wal_bytes().to_vec()
}

/// One CRC-valid frame around `payload`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(&ssam::hmc::packet::crc32(payload).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

/// A payload for one of the four tags (or none), with arbitrary fields,
/// so the payload decoder — not the CRC — decides. A `Compact` level is
/// kept at or below 64: a regressed replay would build that many levels.
fn payload(kind: u8, uid: u32, seq: u64, dims: u32, words: &[u32], junk: &[u8]) -> Vec<u8> {
    let mut p = Vec::new();
    match kind {
        0 => {
            p.push(b'I');
            p.extend_from_slice(&uid.to_le_bytes());
            p.extend_from_slice(&seq.to_le_bytes());
            p.extend_from_slice(&dims.to_le_bytes());
            for w in words {
                p.extend_from_slice(&w.to_le_bytes());
            }
        }
        1 => {
            p.push(b'D');
            p.extend_from_slice(&uid.to_le_bytes());
            p.extend_from_slice(&seq.to_le_bytes());
        }
        2 => {
            p.push(b'S');
            p.extend_from_slice(&seq.to_le_bytes());
        }
        3 => {
            p.push(b'C');
            p.extend_from_slice(&(uid % 65).to_le_bytes());
            p.extend_from_slice(&seq.to_le_bytes());
        }
        _ => {}
    }
    p.extend_from_slice(junk);
    p
}

/// What every image must satisfy: the decoder never panics, its good
/// prefix fits the input and re-encodes byte for byte, and `Store::open`
/// returns `Ok` or a typed error.
fn check_hostile_image(bytes: &[u8]) {
    let (records, prefix) = ssam::store::decode_stream(bytes);
    assert!(prefix <= bytes.len());
    let encoded: Vec<u8> = records.iter().flat_map(WalRecord::encode).collect();
    assert_eq!(encoded.as_slice(), &bytes[..prefix]);
    if let Ok((store, rec)) = Store::open(config(), bytes) {
        assert_eq!(rec.replayed, records.len());
        assert_eq!(store.wal_bytes(), &bytes[..prefix]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile WAL bytes of three kinds: arbitrary bytes; CRC-valid
    /// frames around arbitrary payloads; and byte flips, truncations and
    /// splices of a real 20-record image.
    #[test]
    fn wal_decoder_and_open_survive_hostile_bytes(
        raw in prop::collection::vec(0u8..=255, 0..96),
        frames in prop::collection::vec(
            (
                (
                    0u8..5,
                    any::<u32>(),
                    prop_oneof![0u64..48, 0u64..48, Just(u64::MAX), any::<u64>()],
                ),
                (prop_oneof![Just(DIMS as u32), 0u32..7], prop::collection::vec(any::<u32>(), 0..7)),
                (prop::collection::vec(0u8..=255, 1..4), 0u8..4),
            ),
            0..8,
        ),
        edits in prop::collection::vec((any::<u64>(), 0u8..8), 0..4),
        cut in any::<u64>(),
        splice in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        check_hostile_image(&raw);

        let mut framed = Vec::new();
        for ((kind, uid, seq), (dims, words), (junk, tail)) in &frames {
            // An untagged payload is junk alone; one tagged frame in four
            // carries trailing junk. An insert without it carries `dims`
            // words, so the decoder accepts it and `open` replays it (or
            // finds its dims wrong).
            let junk: &[u8] = if *kind > 3 || *tail == 0 { junk } else { &[] };
            let words: Vec<u32> = if *kind == 0 && junk.is_empty() {
                (0..*dims).map(|i| words.get(i as usize).copied().unwrap_or(i)).collect()
            } else {
                words.clone()
            };
            framed.extend(frame(&payload(*kind, *uid, *seq, *dims, &words, junk)));
        }
        check_hostile_image(&framed);

        let real = twenty_record_image();
        let n = real.len() as u64;
        let mut flipped = real.clone();
        for (at, bit) in &edits {
            flipped[(at % n) as usize] ^= 1 << bit;
        }
        check_hostile_image(&flipped);
        check_hostile_image(&real[..(cut % (n + 1)) as usize]);
        let (a, b, at) = (splice.0 % n, splice.1 % n, splice.2 % (n + 1));
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        let mut spliced = real[..at as usize].to_vec();
        spliced.extend_from_slice(&real[lo..hi]);
        spliced.extend_from_slice(&real[at as usize..]);
        check_hostile_image(&spliced);
    }
}
