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
//! path must disable itself, chaos fault plans where outage cells and
//! loss accounting interleave with fast-path runs, full-range words that
//! wrap the kernels' subtraction, shards with many tied candidates per
//! vault, and one device reloaded under its memoized counters.

use std::sync::Arc;

use proptest::prelude::*;

use ssam::core::device::{BatchResult, DeviceQuery, SsamConfig, SsamDevice};
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
    float_store_of(seed, n, DIMS)
}

fn float_store_of(seed: u64, n: usize, dims: usize) -> VectorStore {
    let mut store = VectorStore::with_capacity(dims, n);
    let mut x = seed | 1;
    for _ in 0..n {
        let v: Vec<f32> = (0..dims)
            .map(|_| ((lcg(&mut x) >> 40) as i32 % 1000) as f32 / 500.0)
            .collect();
        store.push(&v);
    }
    store
}

fn binary_store(seed: u64, n: usize) -> BinaryStore {
    binary_store_of(seed, n, CODE_WORDS)
}

fn binary_store_of(seed: u64, n: usize, words: usize) -> BinaryStore {
    let mut store = BinaryStore::new(words * 32);
    let mut x = seed | 1;
    for _ in 0..n {
        let code: Vec<u32> = (0..words).map(|_| (lcg(&mut x) >> 24) as u32).collect();
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
    assert_same_batch(&a, &b, &sink);
}

/// Asserts a fast-path batch `b` equals the simulator's batch `a` on
/// every observable, and that the fast device's telemetry `sink` holds
/// no violations.
fn assert_same_batch(a: &BatchResult, b: &BatchResult, sink: &Telemetry) {
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

/// Full-range words. Every element is one of 0.0, ±1.0, ±32,768.0 and
/// ±40,000.0. As Q16.16 words these are 0, ±65,536, then `i32::MAX` and
/// `i32::MIN` twice over (+32,768.0 and ±40,000.0 saturate; −32,768.0 is
/// exactly `i32::MIN`). So the kernels' subtraction wraps, and |d|
/// reaches 2³¹ (`i32::MIN - 0`).
#[test]
fn full_range_words_are_bit_identical() {
    const ALPHABET: [f32; 7] = [0.0, 1.0, -1.0, 32_768.0, -32_768.0, 40_000.0, -40_000.0];
    let mut x = 0x5eed_u64;
    let mut row = || -> Vec<f32> {
        (0..DIMS)
            .map(|_| ALPHABET[(lcg(&mut x) >> 33) as usize % ALPHABET.len()])
            .collect()
    };
    let mut store = VectorStore::with_capacity(DIMS, 96);
    for _ in 0..96 {
        store.push(&row());
    }
    let qs: Vec<Vec<f32>> = (0..6).map(|_| row()).collect();
    let queries: Vec<DeviceQuery<'_>> = qs
        .iter()
        .enumerate()
        .map(|(i, q)| {
            if i % 2 == 0 {
                DeviceQuery::Euclidean(q)
            } else {
                DeviceQuery::Manhattan(q)
            }
        })
        .collect();
    for k in [1, 6, 17] {
        assert_fastpath_equivalent(
            SsamConfig::default(),
            |dev| dev.load_vectors(&store),
            None,
            &queries,
            k,
        );
    }
}

/// 48 candidates per vault with few distinct distances: float rows
/// repeat six base rows, and Hamming codes come from a 4-code alphabet.
/// Every k below puts the k-th entry inside a run of ties, so the fast
/// path's reject decides on the value and on the id: at k = 16 the one
/// 16-entry queue is exactly full, at k = 17 and 40 queues are chained.
#[test]
fn many_tied_candidates_per_vault_are_bit_identical() {
    const N: usize = 32 * 48;
    let base = float_store(3, 6);
    let mut floats = VectorStore::with_capacity(DIMS, N);
    for i in 0..N {
        floats.push(base.get(((i * 5 + i / 7) % 6) as u32));
    }
    let qs: Vec<Vec<f32>> = vec![
        base.get(2).to_vec(),
        float_store(5, 1).get(0).to_vec(),
        vec![0.0; DIMS],
    ];
    let float_queries: Vec<DeviceQuery<'_>> = qs
        .iter()
        .flat_map(|q| [DeviceQuery::Euclidean(q), DeviceQuery::Manhattan(q)])
        .collect();

    let alphabet = binary_store(9, 4);
    let mut codes = BinaryStore::new(CODE_WORDS * 32);
    for i in 0..N {
        codes.push(alphabet.get(((i * 5 + i / 3) % 4) as u32));
    }
    let probes = [
        alphabet.get(1).to_vec(),
        vec![0u32; CODE_WORDS],
        vec![!0u32; CODE_WORDS],
    ];
    let code_queries: Vec<DeviceQuery<'_>> =
        probes.iter().map(|c| DeviceQuery::Hamming(c)).collect();

    for k in [1, 6, 16, 17, 40] {
        assert_fastpath_equivalent(
            SsamConfig::default(),
            |dev| dev.load_vectors(&floats),
            None,
            &float_queries,
            k,
        );
        assert_fastpath_equivalent(
            SsamConfig::default(),
            |dev| dev.load_binary(&codes),
            None,
            &code_queries,
            k,
        );
    }
}

/// One fast-path device keeps its synthesized counters only while a
/// dataset stays loaded. Every batch is compared to a fresh simulator
/// device after each of: a first float load; a reload with other dims
/// and the same vector count (same shard lengths, other counters);
/// binary loads of two code widths; and batches at different k, which
/// share the hardware-queue kernel and so its counters.
#[test]
fn counter_memo_lives_as_long_as_the_loaded_dataset() {
    let mut fast = SsamDevice::new(SsamConfig {
        fast_path: true,
        ..SsamConfig::default()
    });
    let sink = Telemetry::default();
    fast.attach_telemetry(&sink);
    let check = |fast: &mut SsamDevice,
                 load: &dyn Fn(&mut SsamDevice),
                 queries: &[DeviceQuery<'_>],
                 k: usize| {
        let mut sim = SsamDevice::new(SsamConfig::default());
        load(&mut sim);
        let a = sim.query_batch(queries, k).expect("sim batch");
        let b = fast.query_batch(queries, k).expect("fast batch");
        assert_same_batch(&a, &b, &sink);
    };
    let float_queries = |store: &VectorStore| -> Vec<Vec<f32>> {
        (0..3).map(|i| store.get(i * 17).to_vec()).collect()
    };

    for dims in [DIMS, 20] {
        let store = float_store_of(11 + dims as u64, 120, dims);
        let qs = float_queries(&store);
        let queries: Vec<DeviceQuery<'_>> = qs
            .iter()
            .flat_map(|q| [DeviceQuery::Euclidean(q), DeviceQuery::Manhattan(q)])
            .collect();
        fast.load_vectors(&store);
        check(&mut fast, &|dev| dev.load_vectors(&store), &queries, 6);
    }

    for words in [CODE_WORDS, 5] {
        let store = binary_store_of(21 + words as u64, 120, words);
        let qs: Vec<Vec<u32>> = (0..3).map(|i| store.get(i * 13).to_vec()).collect();
        let queries: Vec<DeviceQuery<'_>> = qs.iter().map(|c| DeviceQuery::Hamming(c)).collect();
        fast.load_binary(&store);
        for k in [6, 1, 40] {
            check(&mut fast, &|dev| dev.load_binary(&store), &queries, k);
        }
    }
}

/// The alphabet of `full_range_words_are_bit_identical`: as Q16.16
/// words, 0, ±65,536, `i32::MAX` and `i32::MIN`.
const FULL_RANGE: [f32; 7] = [0.0, 1.0, -1.0, 32_768.0, -32_768.0, 40_000.0, -40_000.0];

/// Full-range words at the served width: 256 rows of 100 words, so every
/// candidate spans several 16-word abandon checks. The kernels' sums
/// wrap here, so the no-wrap proof must fail and every cell must take
/// the full loop; a bounded scan over these words abandons on wrapped
/// partial sums.
#[test]
fn full_range_words_at_serving_width() {
    const WIDE: usize = 100;
    let mut x = 0x51de_u64;
    let mut row = || -> Vec<f32> {
        (0..WIDE)
            .map(|_| FULL_RANGE[(lcg(&mut x) >> 33) as usize % FULL_RANGE.len()])
            .collect()
    };
    let mut store = VectorStore::with_capacity(WIDE, 256);
    for _ in 0..256 {
        store.push(&row());
    }
    let qs: Vec<Vec<f32>> = (0..6).map(|_| row()).collect();
    let queries: Vec<DeviceQuery<'_>> = qs
        .iter()
        .enumerate()
        .map(|(i, q)| {
            if i % 2 == 0 {
                DeviceQuery::Euclidean(q)
            } else {
                DeviceQuery::Manhattan(q)
            }
        })
        .collect();
    for k in [1, 6, 17] {
        assert_fastpath_equivalent(
            SsamConfig::default(),
            |dev| dev.load_vectors(&store),
            None,
            &queries,
            k,
        );
    }
}

/// The cross-vault bound is exact to the unit: 64 rows of 4 dims, so 32
/// vaults of 2. Rows 0, 1 and 3 sit at raw Euclidean distance 100 from
/// the zero query, row 2 at 99, and the rest far away. With k = 2, vault
/// 0 sets the bound to 100, so vault 1 must keep row 2 (99) and may drop
/// row 3 (100): the answer is `[2, 0]`.
#[test]
fn bound_one_below_a_later_vault() {
    let mut store = VectorStore::with_capacity(4, 64);
    for i in 0..64 {
        let first = match i {
            0 | 1 | 3 => 2560.0 / 65536.0,
            2 => 2548.0 / 65536.0,
            _ => 1.0,
        };
        store.push(&[first, 0.0, 0.0, 0.0]);
    }
    let q = [0.0f32; 4];
    let queries = [DeviceQuery::Euclidean(&q)];
    assert_fastpath_equivalent(
        SsamConfig::default(),
        |dev| dev.load_vectors(&store),
        None,
        &queries,
        2,
    );
    let mut fast = SsamDevice::new(SsamConfig {
        fast_path: true,
        ..SsamConfig::default()
    });
    fast.load_vectors(&store);
    let got = fast.query_batch(&queries, 2).expect("fast batch");
    let ids: Vec<u32> = got.results[0].neighbors.iter().map(|n| n.id).collect();
    assert_eq!(ids, [2, 0]);
}

/// The served shape: the 1,200 × 100-d GloVe stand-in perfbench serves,
/// 8 Euclidean and 8 Manhattan queries from the same mixture, k = 6
/// (GloVe's) and 40 (three chained queues), with no fault plan and under
/// the CI chaos plan, whose outage and ECC-lost cells must not tighten
/// any query's cross-vault bound.
#[test]
fn served_shape_is_bit_identical() {
    let mut spec = ssam::datasets::PaperDataset::GloVe.scaled_spec(1_200.0 / 1.2e6);
    spec.train = 1_200;
    spec.queries = 16;
    let data = ssam::datasets::generator::generate(&spec);
    let queries: Vec<DeviceQuery<'_>> = (0..16u32)
        .map(|i| {
            let q = data.queries.get(i);
            if i % 2 == 0 {
                DeviceQuery::Euclidean(q)
            } else {
                DeviceQuery::Manhattan(q)
            }
        })
        .collect();
    for plan in [None, Some(Arc::new(FaultPlan::chaos(11)))] {
        for k in [6, 40] {
            assert_fastpath_equivalent(
                SsamConfig::default(),
                |dev| dev.load_vectors(&data.train),
                plan.clone(),
                &queries,
                k,
            );
        }
    }
}

/// Hamming at serving width: 1,200 codes of 32 words in 24 clusters
/// (each code flips about one bit in 16 of its cluster's base code), so
/// a far candidate's first 16 words already exceed the bound and near
/// ones run to the end. Queries are noisy base codes; k = 6 and 40.
#[test]
fn clustered_codes_at_serving_width_are_bit_identical() {
    const WORDS: usize = 32;
    let bases = binary_store_of(31, 24, WORDS);
    let mut x = 0xc0de_u64;
    let mut noisy = |base: &[u32]| -> Vec<u32> {
        base.iter()
            .map(|&w| {
                let flips = (0..4).fold(!0u64, |m, _| m & (lcg(&mut x) >> 32)) as u32;
                w ^ flips
            })
            .collect()
    };
    let mut codes = BinaryStore::new(WORDS * 32);
    for i in 0..1_200u32 {
        codes.push(&noisy(bases.get(i % 24)));
    }
    let probes: Vec<Vec<u32>> = (0..8u32).map(|i| noisy(bases.get(i * 5 % 24))).collect();
    let queries: Vec<DeviceQuery<'_>> = probes.iter().map(|c| DeviceQuery::Hamming(c)).collect();
    for k in [6, 40] {
        assert_fastpath_equivalent(
            SsamConfig::default(),
            |dev| dev.load_binary(&codes),
            None,
            &queries,
            k,
        );
    }
}
