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
