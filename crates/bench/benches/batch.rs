//! Criterion bench for the batched device execution engine: a 64-query
//! GloVe-stand-in batch through `SsamDevice::query_batch` versus the same
//! queries through a serial `query()` loop.
//!
//! The batched engine recycles one processing unit per vault across the
//! batch (architectural-state reset instead of reconstruction — no 32 KB
//! scratchpad re-zeroing, no DRAM-interface realloc) and shares one
//! instruction image per kernel instead of cloning it per (query, vault),
//! so the win here is host-side engine overhead, not simulated cycles
//! (those are bit-identical by construction). Two shard sizes bracket the
//! regimes: at 4 vectors/vault the per-query engine overhead dominates
//! and batching wins outright; at 32 vectors/vault the (identical)
//! instruction-level simulation dominates and the paths converge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ssam_core::device::{DeviceQuery, SsamConfig, SsamDevice};
use ssam_knn::VectorStore;

const DIMS: usize = 100; // GloVe width
const BATCH: usize = 64;
const K: usize = 10;

fn stand_in_store(vectors: usize) -> VectorStore {
    let mut store = VectorStore::with_capacity(DIMS, vectors);
    for i in 0..vectors {
        let v: Vec<f32> = (0..DIMS)
            .map(|j| ((i * 31 + j * 7) as f32 * 0.13).sin())
            .collect();
        store.push(&v);
    }
    store
}

fn queries() -> Vec<Vec<f32>> {
    (0..BATCH)
        .map(|i| {
            (0..DIMS)
                .map(|j| ((i * 17 + j * 5) as f32 * 0.21).cos())
                .collect()
        })
        .collect()
}

fn bench_batch(c: &mut Criterion) {
    let qs = queries();
    let mut group = c.benchmark_group("device_batch");
    group.throughput(Throughput::Elements(BATCH as u64));
    for vectors in [128usize, 1024] {
        let store = stand_in_store(vectors);
        let mut dev = SsamDevice::new(SsamConfig::default());
        dev.load_vectors(&store);

        group.bench_with_input(
            BenchmarkId::new("serial_loop", vectors),
            &vectors,
            |b, _| {
                b.iter(|| {
                    let mut out = Vec::with_capacity(BATCH);
                    for q in &qs {
                        out.push(dev.query(&DeviceQuery::Euclidean(q), K).expect("runs"));
                    }
                    out
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("query_batch", vectors),
            &vectors,
            |b, _| {
                let dq: Vec<DeviceQuery<'_>> =
                    qs.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
                b.iter(|| dev.query_batch(&dq, K).expect("runs"))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
