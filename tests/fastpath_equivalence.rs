//! Differential property tests: the analytic fast-path executor is
//! bit-identical to the cycle simulator.
//!
//! `SsamConfig::fast_path` replaces per-instruction interpretation with
//! host-side Q16.16 distances, the same hardware priority queue, and
//! counters synthesized by the static cost model. Nothing observable may
//! change: neighbors, per-vault `RunStats`, per-query and batch timing,
//! energy, fault records, and coverage must all match the simulator
//! exactly — including mixed batches where cosine queries fall back to
//! the simulator mid-batch, software-queue configurations where the fast
//! path must disable itself, and chaos fault plans where outage cells
//! and loss accounting interleave with fast-path runs.

use std::sync::Arc;

use proptest::prelude::*;

use ssam::core::device::{DeviceQuery, SsamConfig, SsamDevice};
use ssam::core::telemetry::Telemetry;
use ssam::faults::FaultPlan;
use ssam::knn::binary::BinaryStore;
use ssam::knn::VectorStore;

const DIMS: usize = 8;
const CODE_WORDS: usize = 2;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x
}

fn float_store(seed: u64, n: usize) -> VectorStore {
    let mut store = VectorStore::with_capacity(DIMS, n);
    let mut x = seed | 1;
    for _ in 0..n {
        let v: Vec<f32> = (0..DIMS)
            .map(|_| ((lcg(&mut x) >> 40) as i32 % 1000) as f32 / 500.0)
            .collect();
        store.push(&v);
    }
    store
}

fn binary_store(seed: u64, n: usize) -> BinaryStore {
    let mut store = BinaryStore::new(CODE_WORDS * 32);
    let mut x = seed | 1;
    for _ in 0..n {
        let code: Vec<u32> = (0..CODE_WORDS)
            .map(|_| (lcg(&mut x) >> 24) as u32)
            .collect();
        store.push(&code);
    }
    store
}

/// Runs the same batch through a simulator device and a fast-path device
/// and asserts every observable is bit-identical.
fn assert_fastpath_equivalent(
    mut config: SsamConfig,
    load: impl Fn(&mut SsamDevice),
    plan: Option<Arc<FaultPlan>>,
    queries: &[DeviceQuery<'_>],
    k: usize,
) {
    config.fast_path = false;
    let mut sim = SsamDevice::new(config);
    load(&mut sim);
    sim.set_fault_plan(plan.clone());

    config.fast_path = true;
    let mut fast = SsamDevice::new(config);
    load(&mut fast);
    fast.set_fault_plan(plan);
    let sink = Telemetry::default();
    fast.attach_telemetry(&sink);

    let a = sim.query_batch(queries, k).expect("sim batch");
    let b = fast.query_batch(queries, k).expect("fast batch");

    assert_eq!(a.results.len(), b.results.len());
    for (qa, qb) in a.results.iter().zip(&b.results) {
        assert_eq!(qa.neighbors, qb.neighbors, "neighbors diverge");
        assert_eq!(qa.vault_stats, qb.vault_stats, "vault stats diverge");
        assert_eq!(qa.timing, qb.timing, "query timing diverges");
        assert_eq!(qa.faults, qb.faults, "fault records diverge");
        qb.faults.check_closure().expect("fast-path fault closure");
    }
    assert_eq!(a.timing, b.timing, "batch timing diverges");
    assert_eq!(a.faults, b.faults, "batch fault records diverge");
    assert!(
        sink.violations().is_empty(),
        "fast-path telemetry violations: {:?}",
        sink.violations()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Mixed float batches: Euclidean and Manhattan take the fast path,
    /// cosine falls back to the simulator inside the same vault's run.
    #[test]
    fn float_batches_are_bit_identical(
        seed in 1u64..1000,
        k_idx in 0usize..3,
        batch in 2usize..6,
    ) {
        let k = [1usize, 8, 40][k_idx];
        let store = float_store(seed, 120);
        let qs: Vec<Vec<f32>> = (0..batch)
            .map(|i| {
                (0..DIMS)
                    .map(|j| ((seed as usize + i * 13 + j * 7) as f32 * 0.17).sin())
                    .collect()
            })
            .collect();
        let queries: Vec<DeviceQuery<'_>> = qs
            .iter()
            .enumerate()
            .map(|(i, q)| match i % 3 {
                0 => DeviceQuery::Euclidean(q),
                1 => DeviceQuery::Manhattan(q),
                _ => DeviceQuery::Cosine(q),
            })
            .collect();
        assert_fastpath_equivalent(
            SsamConfig::default(),
            |dev| dev.load_vectors(&store),
            None,
            &queries,
            k,
        );
    }

    /// Hamming batches over packed binary codes.
    #[test]
    fn hamming_batches_are_bit_identical(
        seed in 1u64..1000,
        k_idx in 0usize..3,
    ) {
        let k = [1usize, 8, 40][k_idx];
        let store = binary_store(seed, 100);
        let codes: Vec<Vec<u32>> = (0..4u32)
            .map(|i| {
                (0..CODE_WORDS as u32)
                    .map(|j| (seed as u32 ^ (i * 7 + j)).wrapping_mul(0x9E37_79B9))
                    .collect()
            })
            .collect();
        let queries: Vec<DeviceQuery<'_>> =
            codes.iter().map(|c| DeviceQuery::Hamming(c)).collect();
        assert_fastpath_equivalent(
            SsamConfig::default(),
            |dev| dev.load_binary(&store),
            None,
            &queries,
            k,
        );
    }

    /// With a software queue the fast path must disable itself — the
    /// insertion walk is data-dependent — and stay bit-identical.
    #[test]
    fn software_queue_config_is_bit_identical(
        seed in 1u64..1000,
        batch in 1usize..4,
    ) {
        let store = float_store(seed, 90);
        let qs: Vec<Vec<f32>> = (0..batch)
            .map(|i| (0..DIMS).map(|j| ((i * 5 + j) as f32 * 0.31).cos()).collect())
            .collect();
        let queries: Vec<DeviceQuery<'_>> =
            qs.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
        assert_fastpath_equivalent(
            SsamConfig { use_hw_queue: false, ..SsamConfig::default() },
            |dev| dev.load_vectors(&store),
            None,
            &queries,
            6,
        );
    }

    /// Chaos fault plans: outage cells, ECC/link loss, and stragglers
    /// must account identically whether the surviving runs were simulated
    /// or fast-pathed, and the fast path's fault ledger must close.
    #[test]
    fn chaos_fault_plans_are_bit_identical(
        seed in any::<u64>(),
        data_seed in 1u64..1000,
        bit_flip in 0.0f64..1.5,
        vault_out in 0.0f64..0.15,
        straggle in 0.0f64..0.3,
        nq in 1usize..4,
    ) {
        let store = float_store(data_seed, 160);
        let plan = Arc::new(FaultPlan {
            seed,
            bit_flip_rate: bit_flip,
            double_bit_fraction: 0.3,
            crc_corruption_rate: 0.2,
            vault_outage_rate: vault_out,
            straggler_rate: straggle,
            straggler_slowdown: 3.0,
            ..FaultPlan::default()
        });
        let mut x = seed ^ 0x9e3779b97f4a7c15;
        let qs: Vec<Vec<f32>> = (0..nq)
            .map(|_| {
                (0..DIMS)
                    .map(|_| ((lcg(&mut x) >> 40) as i32 % 1000) as f32 / 500.0)
                    .collect()
            })
            .collect();
        let queries: Vec<DeviceQuery<'_>> = qs
            .iter()
            .enumerate()
            .map(|(i, q)| if i % 2 == 0 {
                DeviceQuery::Euclidean(q)
            } else {
                DeviceQuery::Manhattan(q)
            })
            .collect();
        assert_fastpath_equivalent(
            SsamConfig::default(),
            |dev| dev.load_vectors(&store),
            Some(plan),
            &queries,
            5,
        );
    }
}

/// Unequal shards (30 vaults of 4 vectors, one of 1) under a 40-query
/// batch: the synthesized counters must follow each vault's shard
/// length, and each vault's recycled processing unit serves every cosine
/// fallback of the batch.
#[test]
fn uneven_shards_and_long_batches_are_bit_identical() {
    let store = float_store(7, 121);
    let qs: Vec<Vec<f32>> = (0..40)
        .map(|i| {
            (0..DIMS)
                .map(|j| ((i * 11 + j * 3) as f32 * 0.23).sin())
                .collect()
        })
        .collect();
    let queries: Vec<DeviceQuery<'_>> = qs
        .iter()
        .enumerate()
        .map(|(i, q)| match i % 3 {
            0 => DeviceQuery::Euclidean(q),
            1 => DeviceQuery::Manhattan(q),
            _ => DeviceQuery::Cosine(q),
        })
        .collect();
    for k in [1, 8, 40] {
        assert_fastpath_equivalent(
            SsamConfig::default(),
            |dev| dev.load_vectors(&store),
            None,
            &queries,
            k,
        );
    }
}
