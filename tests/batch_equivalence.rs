//! Property test: the batched device engine is observationally identical
//! to a serial `query()` loop.
//!
//! `SsamDevice::query_batch` recycles processing units across queries
//! (architectural-state reset + query rewrite) and shares instruction
//! images between (query, vault) runs; none of that may leak between
//! queries. Every (metric × k × queue-implementation) configuration must
//! return bit-identical neighbors, per-vault simulation statistics, and
//! serial-equivalent per-query timing.

use proptest::prelude::*;

use ssam::core::device::{DeviceQuery, SsamConfig, SsamDevice};
use ssam::knn::binary::BinaryStore;
use ssam::knn::VectorStore;

const DIMS: usize = 8;
const CODE_WORDS: usize = 2;

fn float_device(use_hw_queue: bool, seed: u64, n: usize) -> SsamDevice {
    let mut store = VectorStore::with_capacity(DIMS, n);
    let mut x = seed | 1;
    for _ in 0..n {
        let v: Vec<f32> = (0..DIMS)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 40) as i32 % 1000) as f32 / 500.0
            })
            .collect();
        store.push(&v);
    }
    let mut dev = SsamDevice::new(SsamConfig {
        use_hw_queue,
        ..SsamConfig::default()
    });
    dev.load_vectors(&store);
    dev
}

fn binary_device(use_hw_queue: bool, seed: u64, n: usize) -> SsamDevice {
    let mut store = BinaryStore::new(CODE_WORDS * 32);
    let mut x = seed | 1;
    for _ in 0..n {
        let code: Vec<u32> = (0..CODE_WORDS)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 24) as u32
            })
            .collect();
        store.push(&code);
    }
    let mut dev = SsamDevice::new(SsamConfig {
        use_hw_queue,
        ..SsamConfig::default()
    });
    dev.load_binary(&store);
    dev
}

/// Asserts a batch against the serial loop on an already-loaded device.
fn assert_batch_equivalent(dev: &mut SsamDevice, queries: &[DeviceQuery<'_>], k: usize) {
    let batch = dev.query_batch(queries, k).expect("batch runs");
    assert_eq!(batch.results.len(), queries.len());
    for (q, batched) in queries.iter().zip(&batch.results) {
        let serial = dev.query(q, k).expect("serial runs");
        assert_eq!(serial.neighbors, batched.neighbors, "neighbors diverge");
        assert_eq!(serial.vault_stats, batched.vault_stats, "stats diverge");
        assert_eq!(serial.timing, batched.timing, "timing diverges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn float_batches_match_serial_loop(
        seed in 1u64..1000,
        k_idx in 0usize..3,
        use_hw in any::<bool>(),
        batch in 2usize..5,
    ) {
        let k = [1usize, 8, 40][k_idx];
        let mut dev = float_device(use_hw, seed, 120);
        let qs: Vec<Vec<f32>> = (0..batch)
            .map(|i| {
                (0..DIMS)
                    .map(|j| ((seed as usize + i * 13 + j * 7) as f32 * 0.17).sin())
                    .collect()
            })
            .collect();
        // Alternate metrics inside one batch so recycled PUs must reload
        // kernels mid-batch.
        let queries: Vec<DeviceQuery<'_>> = qs
            .iter()
            .enumerate()
            .map(|(i, q)| match i % 3 {
                0 => DeviceQuery::Euclidean(q),
                1 => DeviceQuery::Manhattan(q),
                _ => DeviceQuery::Cosine(q),
            })
            .collect();
        assert_batch_equivalent(&mut dev, &queries, k);
    }

    #[test]
    fn hamming_batches_match_serial_loop(
        seed in 1u64..1000,
        k_idx in 0usize..3,
        use_hw in any::<bool>(),
    ) {
        let k = [1usize, 8, 40][k_idx];
        let mut dev = binary_device(use_hw, seed, 100);
        let codes: Vec<Vec<u32>> = (0..3u32)
            .map(|i| (0..CODE_WORDS as u32).map(|j| (seed as u32 ^ (i * 7 + j)).wrapping_mul(0x9E37_79B9)).collect())
            .collect();
        let queries: Vec<DeviceQuery<'_>> =
            codes.iter().map(|c| DeviceQuery::Hamming(c)).collect();
        assert_batch_equivalent(&mut dev, &queries, k);
    }
}

/// Unequal shards (30 vaults of 4 vectors, one of 1) under a 40-query
/// batch: each vault's recycled processing unit serves the whole batch,
/// across kernel switches, in both queue modes.
#[test]
fn uneven_shards_and_long_batches_match_serial_loop() {
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
    for use_hw in [true, false] {
        let mut dev = float_device(use_hw, 7, 121);
        for k in [1, 8, 40] {
            assert_batch_equivalent(&mut dev, &queries, k);
        }
    }
}
