//! Differential property: scatter-gather over shards answers queries
//! exactly as a single-module store holding the same live set.
//!
//! After any interleaving of inserts, deletes, seals, and compactions,
//! [`ssam::store::ShardedStore::query`] must return the same neighbors —
//! id for id, distance bit for bit — as a fresh single-module
//! [`ssam::store::Store`] fed the identical op stream. This pins the
//! shard placement, the per-shard top-k gather, and the global
//! `(distance, id)` merge at once: every top-k that straddles a shard
//! boundary must interleave exactly as the unsharded scan would, and a
//! downed replica must change *nothing* about the answer as long as a
//! shard-mate survives. The batch read path is pinned against the serial
//! one in every state, and again under a chaos fault plan, where batched
//! and serial routing must draw identical outage samples.
//!
//! Values are drawn from (-1, 1) for the same fixed-point-ordering
//! precondition the other differential suites rely on.

use std::sync::Arc;

use proptest::prelude::*;

use ssam::core::device::{DeviceMetric, DeviceQuery};
use ssam::faults::FaultPlan;
use ssam::store::{ShardedStore, ShardedStoreConfig, Store, StoreConfig};

const DIMS: usize = 6;
const UIDS: u32 = 40;
const REPLICAS: usize = 2;

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

/// Tiny memtable and fanout so short op sequences still cross every
/// lifecycle edge on every module.
fn store_config() -> StoreConfig {
    let mut c = StoreConfig::new(DIMS);
    c.memtable_capacity = 4;
    c.fanout = 2;
    c.device.fast_path = true;
    c
}

fn probe(qi: u32) -> Vec<f32> {
    (0..DIMS)
        .map(|d| (((qi * 11 + d as u32 * 5) % 17) as f32 - 8.0) / 9.0)
        .collect()
}

/// Three probes, Euclidean and Manhattan mixed, answered as one
/// `ShardedStore::query_batch` must match each probe's own
/// `ShardedStore::query` on a clone: the same routing, outage samples
/// and health transitions, hence the same answers and accounts.
fn check_batch_against_serial(sharded: &mut ShardedStore, k: usize) {
    let probes: Vec<Vec<f32>> = (0..3).map(probe).collect();
    let metrics = [
        DeviceMetric::Euclidean,
        DeviceMetric::Manhattan,
        DeviceMetric::Euclidean,
    ];
    let batch: Vec<DeviceQuery<'_>> = probes
        .iter()
        .zip(metrics)
        .map(|(p, m)| match m {
            DeviceMetric::Euclidean => DeviceQuery::Euclidean(p),
            _ => DeviceQuery::Manhattan(p),
        })
        .collect();
    let mut serial = sharded.clone();
    let got = sharded
        .query_batch(&batch, k)
        .expect("batched sharded query");
    assert_eq!(got.len(), probes.len());
    for ((p, m), g) in probes.iter().zip(metrics).zip(&got) {
        let w = serial.query(p, m, k).expect("serial sharded query");
        assert_eq!(g.neighbors.len(), w.neighbors.len());
        for (a, b) in g.neighbors.iter().zip(&w.neighbors) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.dist.to_bits(), b.dist.to_bits());
        }
        assert_eq!(g.device_seconds.to_bits(), w.device_seconds.to_bits());
        assert_eq!(g.energy_mj.to_bits(), w.energy_mj.to_bits());
        assert_eq!(g.segments_scanned, w.segments_scanned);
        assert_eq!(g.memtable_scanned, w.memtable_scanned);
        assert_eq!(g.suppressed, w.suppressed);
        assert_eq!(g.faults, w.faults);
    }
    assert_eq!(sharded.degraded_modules(), serial.degraded_modules());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded store and a single-module twin fed the same op
    /// stream answer every query bit-identically — healthy, and again
    /// with one replica module down (reads fail over to shard-mates).
    #[test]
    fn sharded_query_is_bit_identical_to_single_module(
        ops in prop::collection::vec(arb_op(), 1..48),
        shards in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mut sharded = ShardedStore::create(ShardedStoreConfig::new(
            shards,
            REPLICAS,
            store_config(),
        ));
        let mut single = Store::create(store_config());
        for op in &ops {
            match op {
                Op::Insert(uid, v) => {
                    sharded.insert(*uid, v).expect("sharded insert");
                    single.insert(*uid, v).expect("single insert");
                }
                Op::Delete(uid) => {
                    sharded.delete(*uid).expect("sharded delete");
                    single.delete(*uid).expect("single delete");
                }
                Op::Seal => {
                    sharded.seal_all();
                    single.seal();
                }
                Op::Compact => {
                    sharded.compact_step();
                    single.compact_step();
                }
            }
        }
        prop_assert_eq!(sharded.live_len(), single.live_set().len());

        // k values chosen so the top-k regularly spans several shards:
        // k = live_len ranks the entire live set, so the merged order
        // must interleave across every shard boundary.
        let live = sharded.live_len();
        let ks = [1usize, 3, live.max(1), 2 * live.max(1)];
        let check = |sharded: &mut ShardedStore, single: &mut Store| {
            for qi in 0..3u32 {
                let q = probe(qi);
                for metric in [DeviceMetric::Euclidean, DeviceMetric::Manhattan] {
                    for &k in &ks {
                        let a = sharded.query(&q, metric, k).expect("sharded query");
                        let b = single.query(&q, metric, k).expect("single query");
                        assert_eq!(a.neighbors.len(), b.neighbors.len());
                        for (x, y) in a.neighbors.iter().zip(&b.neighbors) {
                            assert_eq!(x.id, y.id);
                            assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                        }
                        // Replication means no coverage is ever lost.
                        assert_eq!(a.faults.covered_vectors, a.faults.total_vectors);
                        assert!(a.faults.lost_units.is_empty());
                    }
                }
            }
            for &k in &ks {
                check_batch_against_serial(sharded, k);
            }
        };
        check(&mut sharded, &mut single);

        // One replica down: reads route to its shard-mate; the merged
        // answer must not move by a bit.
        sharded.kill_module((seed as usize) % (shards * REPLICAS));
        check(&mut sharded, &mut single);

        // Under a chaos plan, module outages, failovers and segment faults
        // land identically whether the reads run batched or one by one.
        sharded.set_fault_plan(Some(Arc::new(FaultPlan::chaos(seed))));
        for &k in &ks {
            check_batch_against_serial(&mut sharded, k);
        }
    }
}
