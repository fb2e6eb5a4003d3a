//! End-to-end integration: dataset generation → indexes → CPU baseline →
//! SSAM device, with cross-platform agreement on exact search.

use ssam::baselines::measured::{batch_recall, batch_search};
use ssam::core::device::memregion::knn as ssam_knn_pipeline;
use ssam::core::device::{DeviceQuery, SsamConfig, SsamDevice};
use ssam::datasets::{Benchmark, PaperDataset};
use ssam::knn::binary::HyperplaneBinarizer;
use ssam::knn::index::{SearchBudget, SearchIndex};
use ssam::knn::kdtree::{KdForest, KdTreeParams};
use ssam::knn::kmeans_tree::{KMeansTree, KMeansTreeParams};
use ssam::knn::linear::knn_exact;
use ssam::knn::mplsh::{MplshParams, MultiProbeLsh};
use ssam::knn::Metric;

fn tiny_benchmark() -> Benchmark {
    Benchmark::paper(PaperDataset::GloVe, 0.0005)
}

#[test]
fn ground_truth_matches_cpu_linear_batch() {
    let b = tiny_benchmark();
    let lin = ssam::knn::linear::LinearSearch::new(Metric::Euclidean);
    let out = batch_search(&lin, &b.train, &b.queries, b.k(), SearchBudget::unlimited());
    assert_eq!(batch_recall(&out, &b.ground_truth.ids), 1.0);
}

#[test]
fn ssam_device_reproduces_ground_truth_exactly() {
    let b = tiny_benchmark();
    let mut dev = SsamDevice::new(SsamConfig::default());
    dev.load_vectors(&b.train);
    for (qi, q, gt) in b.iter_queries().take(5) {
        let r = dev
            .query(&DeviceQuery::Euclidean(q), b.k())
            .expect("device runs");
        let got: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(got, gt, "query {qi}");
    }
}

#[test]
fn fig4_pipeline_matches_ground_truth() {
    let b = tiny_benchmark();
    let (qi, q, gt) = b.iter_queries().next().expect("has queries");
    let got = ssam_knn_pipeline(q, &b.train, b.k()).expect("pipeline runs");
    assert_eq!(got, gt, "query {qi}");
}

#[test]
fn all_indexes_reach_high_recall_with_generous_budget() {
    let b = tiny_benchmark();
    let kd = KdForest::build(
        &b.train,
        Metric::Euclidean,
        KdTreeParams {
            trees: 4,
            leaf_size: 16,
            seed: 1,
        },
    );
    let km = KMeansTree::build(
        &b.train,
        Metric::Euclidean,
        KMeansTreeParams {
            branching: 8,
            leaf_size: 32,
            max_height: 8,
            kmeans_iters: 5,
            seed: 1,
        },
    );
    let lsh = MultiProbeLsh::build(
        &b.train,
        Metric::Euclidean,
        MplshParams {
            tables: 8,
            hash_bits: 8,
            seed: 1,
        },
    );
    let indexes: [(&str, &dyn SearchIndex, f64); 3] =
        [("kd", &kd, 0.95), ("km", &km, 0.95), ("lsh", &lsh, 0.6)];
    for (name, index, floor) in indexes {
        let out = batch_search(
            index,
            &b.train,
            &b.queries,
            b.k(),
            SearchBudget::checks(256),
        );
        let r = batch_recall(&out, &b.ground_truth.ids);
        assert!(r >= floor, "{name}: recall {r} below {floor}");
    }
}

#[test]
fn approximate_recall_increases_with_budget_on_real_data() {
    let b = Benchmark::paper(PaperDataset::GloVe, 0.001);
    let km = KMeansTree::build(
        &b.train,
        Metric::Euclidean,
        KMeansTreeParams {
            branching: 8,
            leaf_size: 32,
            max_height: 8,
            kmeans_iters: 5,
            seed: 2,
        },
    );
    let lo = batch_search(&km, &b.train, &b.queries, b.k(), SearchBudget::checks(1));
    let hi = batch_search(&km, &b.train, &b.queries, b.k(), SearchBudget::checks(64));
    let (rl, rh) = (
        batch_recall(&lo, &b.ground_truth.ids),
        batch_recall(&hi, &b.ground_truth.ids),
    );
    assert!(rh >= rl, "recall fell with budget: {rl} -> {rh}");
    assert!(hi.stats.distance_evals > lo.stats.distance_evals);
}

#[test]
fn hamming_device_agrees_with_host_hamming_search() {
    let b = tiny_benchmark();
    let bits = 128;
    let bin = HyperplaneBinarizer::new(b.train.dims(), bits, 3);
    let codes = bin.encode_store(&b.train);
    let mut dev = SsamDevice::new(SsamConfig::default());
    dev.load_binary(&codes);
    for (_, q, _) in b.iter_queries().take(3) {
        let code = bin.encode(q);
        let r = dev
            .query(&DeviceQuery::Hamming(&code), b.k())
            .expect("device runs");
        let host = ssam::knn::binary::knn_hamming(&codes, &code, b.k());
        let got: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
        let expect: Vec<u32> = host.iter().map(|n| n.id).collect();
        assert_eq!(got, expect);
    }
}

#[test]
fn binarization_preserves_neighborhood_structure() {
    // The Section II-D claim behind Table V: Hamming codes are a usable
    // stand-in for Euclidean space.
    let b = Benchmark::paper(PaperDataset::GloVe, 0.001);
    let bin = HyperplaneBinarizer::new(b.train.dims(), 256, 5);
    let codes = bin.encode_store(&b.train);
    let mut total = 0.0;
    let n = 10usize;
    for (_, q, gt) in b.iter_queries().take(n) {
        let code = bin.encode(q);
        let got: Vec<u32> = ssam::knn::binary::knn_hamming(&codes, &code, b.k())
            .iter()
            .map(|x| x.id)
            .collect();
        total += ssam::knn::recall::recall_ids(gt, &got);
    }
    let recall = total / n as f64;
    // Random-hyperplane codes are the *weak* end of the paper's spectrum
    // ("carefully constructed Hamming codes" do much better); demand far
    // above chance (k / N ≈ 0.005) rather than near-exact recall.
    assert!(recall > 0.05, "binarized recall collapsed: {recall}");
}

#[test]
fn device_handles_all_paper_dataset_shapes() {
    // GloVe (100-d) reproduces float ground truth exactly; the 960-d and
    // 4096-d stand-ins have per-dimension magnitudes ~1/√dims, where the
    // PU's Q16.16 multiply truncation can flip near-ties — the Section
    // II-D "negligible accuracy loss" shows up as high-but-not-perfect
    // agreement, so assert recall.
    for dataset in PaperDataset::ALL {
        let b = Benchmark::paper(dataset, 0.0003);
        let mut dev = SsamDevice::new(SsamConfig::default());
        dev.load_vectors(&b.train);
        let (_, q, gt) = b.iter_queries().next().expect("has queries");
        let r = dev
            .query(&DeviceQuery::Euclidean(q), b.k())
            .expect("device runs");
        let got: Vec<u32> = r.neighbors.iter().map(|n| n.id).collect();
        match dataset {
            PaperDataset::GloVe => assert_eq!(got, gt, "{}", dataset.name()),
            _ => {
                let recall = ssam::knn::recall::recall_ids(gt, &got);
                assert!(
                    recall >= 0.7,
                    "{}: recall {recall} ({got:?} vs {gt:?})",
                    dataset.name()
                );
            }
        }
    }
}

#[test]
fn manhattan_and_euclidean_device_queries_differ_when_they_should() {
    let b = tiny_benchmark();
    let mut dev = SsamDevice::new(SsamConfig::default());
    dev.load_vectors(&b.train);
    let q = b.queries.get(0);
    let re = dev.query(&DeviceQuery::Euclidean(q), b.k()).expect("runs");
    let rm = dev.query(&DeviceQuery::Manhattan(q), b.k()).expect("runs");
    let em: Vec<u32> = knn_exact(&b.train, q, b.k(), Metric::Manhattan)
        .iter()
        .map(|n| n.id)
        .collect();
    let got_m: Vec<u32> = rm.neighbors.iter().map(|n| n.id).collect();
    assert_eq!(got_m, em);
    // Both are valid top-k sets; the nearest element should agree.
    assert_eq!(re.neighbors[0].id, rm.neighbors[0].id);
}
