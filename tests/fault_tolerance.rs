//! Seeded chaos testing for the fault-injection framework.
//!
//! Three properties must hold under *any* fault plan:
//!
//! 1. **Exactness over the covered fraction** — the neighbors a faulted
//!    query returns are exactly the true top-k over the vectors that
//!    were actually scanned (the shards of non-lost vaults), under the
//!    device's own distance model and deterministic `(dist, id)` tie
//!    order. Faults may shrink the candidate pool; they may never
//!    corrupt the ranking of what survives.
//! 2. **Honest accounting** — every per-query `FaultRecord` closes
//!    (injected = corrected + retried + surfaced), the reported
//!    coverage equals the surviving-shard fraction, and the attached
//!    telemetry sink cross-checks it all via `verify_record`.
//! 3. **Zero-fault transparency** — attaching a plan that injects
//!    nothing is bit-identical to running with no plan at all: same
//!    neighbor ids, bitwise-equal distances and modeled seconds.

use std::sync::Arc;

use proptest::prelude::*;

use ssam::core::device::{DeviceQuery, SsamConfig, SsamDevice};
use ssam::core::telemetry::Telemetry;
use ssam::faults::FaultPlan;
use ssam::knn::VectorStore;

const DIMS: usize = 8;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x
}

fn float_vec(x: &mut u64) -> Vec<f32> {
    (0..DIMS)
        .map(|_| ((lcg(x) >> 40) as i32 % 1000) as f32 / 500.0)
        .collect()
}

fn store(n: usize, seed: u64) -> VectorStore {
    let mut s = VectorStore::with_capacity(DIMS, n);
    let mut x = seed | 1;
    for _ in 0..n {
        s.push(&float_vec(&mut x));
    }
    s
}

fn device(store: &VectorStore) -> SsamDevice {
    let mut dev = SsamDevice::new(SsamConfig::default());
    dev.load_vectors(store);
    dev
}

/// The true top-k over an arbitrary covered id set, under the device's
/// own distance semantics: reload exactly the covered vectors into a
/// fresh (fault-free) device and map its ids back. Per-vector
/// quantization does not depend on shard placement, and the id remap is
/// monotone, so the `(dist, id)` merge order is preserved exactly.
fn reference_topk(
    full: &VectorStore,
    covered: &[u32],
    queries: &[Vec<f32>],
    k: usize,
) -> Vec<Vec<(u32, f32)>> {
    let mut sub = VectorStore::with_capacity(DIMS, covered.len());
    for &id in covered {
        sub.push(full.get(id));
    }
    let mut dev = device(&sub);
    let qs: Vec<DeviceQuery<'_>> = queries.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
    let batch = dev.query_batch(&qs, k).expect("reference batch");
    batch
        .results
        .iter()
        .map(|r| {
            r.neighbors
                .iter()
                .map(|n| (covered[n.id as usize], n.dist))
                .collect()
        })
        .collect()
}

fn chaos_plan(seed: u64, knobs: (f64, f64, f64, f64)) -> FaultPlan {
    let (bit_flip, crc, vault_out, straggle) = knobs;
    FaultPlan {
        seed,
        bit_flip_rate: bit_flip,
        double_bit_fraction: 0.3,
        crc_corruption_rate: crc,
        vault_outage_rate: vault_out,
        straggler_rate: straggle,
        straggler_slowdown: 3.0,
        ..FaultPlan::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under an arbitrary seeded fault plan, every query's neighbors are
    /// exactly the true top-k over its covered fraction, its coverage is
    /// the honest surviving-shard ratio, its fault record closes, and
    /// the telemetry sink's `verify_record` finds nothing to flag.
    #[test]
    fn chaos_results_are_exact_over_covered_fraction(
        seed in any::<u64>(),
        data_seed in any::<u64>(),
        bit_flip in 0.0f64..1.5,
        crc in 0.0f64..0.4,
        vault_out in 0.0f64..0.15,
        straggle in 0.0f64..0.3,
        nq in 1usize..4,
    ) {
        let n = 192;
        let k = 5;
        let full = store(n, data_seed);
        let mut dev = device(&full);
        let sink = Telemetry::default();
        dev.attach_telemetry(&sink);
        dev.set_fault_plan(Some(Arc::new(chaos_plan(
            seed,
            (bit_flip, crc, vault_out, straggle),
        ))));

        let mut x = seed ^ 0x9e3779b97f4a7c15;
        let queries: Vec<Vec<f32>> = (0..nq).map(|_| float_vec(&mut x)).collect();
        let qs: Vec<DeviceQuery<'_>> =
            queries.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
        let spans = dev.shard_spans();
        let batch = dev.query_batch(&qs, k).expect("chaos batch");

        for (qi, r) in batch.results.iter().enumerate() {
            // Accounting closes, per query and at batch scope.
            r.faults.check_closure().expect("per-query closure");

            // Coverage is the honest surviving-shard fraction.
            let lost: Vec<u32> = r.faults.lost_units.clone();
            let covered_vectors: usize = spans
                .iter()
                .enumerate()
                .filter(|(v, _)| !lost.contains(&(*v as u32)))
                .map(|(_, (_, len))| *len)
                .sum();
            prop_assert_eq!(r.faults.covered_vectors, covered_vectors as u64);
            prop_assert_eq!(r.faults.total_vectors, n as u64);
            prop_assert!((r.coverage() - covered_vectors as f64 / n as f64).abs() < 1e-12);

            // Returned neighbors are exactly the true top-k over the
            // covered ids (skip the degenerate all-lost case).
            if covered_vectors == 0 {
                prop_assert!(r.neighbors.is_empty());
                continue;
            }
            let covered_ids: Vec<u32> = spans
                .iter()
                .enumerate()
                .filter(|(v, _)| !lost.contains(&(*v as u32)))
                .flat_map(|(_, (first, len))| *first..*first + *len as u32)
                .collect();
            let expect =
                reference_topk(&full, &covered_ids, &queries[qi..qi + 1], k);
            let got: Vec<(u32, f32)> =
                r.neighbors.iter().map(|nb| (nb.id, nb.dist)).collect();
            prop_assert_eq!(&got, &expect[0], "query {} (lost vaults {:?})", qi, lost);
        }
        batch.faults.check_closure().expect("batch closure");
        prop_assert!(
            sink.violations().is_empty(),
            "telemetry violations under chaos: {:?}",
            sink.violations()
        );
    }

    /// A plan that injects nothing is indistinguishable — bitwise — from
    /// no plan at all. Neighbors, distances, and modeled seconds must
    /// all be identical; the fault machinery may not perturb a healthy
    /// run by even an ulp.
    #[test]
    fn zero_fault_plan_is_bit_identical(
        data_seed in any::<u64>(),
        seed in any::<u64>(),
        nq in 1usize..4,
    ) {
        let full = store(128, data_seed);
        let mut plain = device(&full);
        let mut gated = device(&full);
        gated.set_fault_plan(Some(Arc::new(FaultPlan {
            seed,
            ..FaultPlan::default()
        })));

        let mut x = seed | 1;
        let queries: Vec<Vec<f32>> = (0..nq).map(|_| float_vec(&mut x)).collect();
        let qs: Vec<DeviceQuery<'_>> =
            queries.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
        let a = plain.query_batch(&qs, 4).expect("plain");
        let b = gated.query_batch(&qs, 4).expect("gated");

        prop_assert_eq!(a.timing.seconds.to_bits(), b.timing.seconds.to_bits());
        prop_assert!(b.faults.is_trivial());
        for (ra, rb) in a.results.iter().zip(&b.results) {
            prop_assert_eq!(ra.timing.seconds.to_bits(), rb.timing.seconds.to_bits());
            prop_assert_eq!(ra.neighbors.len(), rb.neighbors.len());
            for (na, nb) in ra.neighbors.iter().zip(&rb.neighbors) {
                prop_assert_eq!(na.id, nb.id);
                prop_assert_eq!(na.dist.to_bits(), nb.dist.to_bits());
            }
            prop_assert!(rb.faults.is_trivial());
            prop_assert!((rb.coverage() - 1.0).abs() == 0.0);
        }
    }
}
