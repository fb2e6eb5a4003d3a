//! **Fig. 2** — CPU throughput versus accuracy for approximate kNN.
//!
//! "We benchmark the accuracy and throughput of indexing techniques for
//! the GloVe, GIST, and AlexNet datasets … for single threaded
//! implementations. In general, our results show indexing techniques can
//! provide up to 170× throughput improvement over linear search while
//! still maintaining at least 50% search accuracy, but only up to 13× in
//! order to achieve 90% accuracy."
//!
//! Sweeps the leaf/probe budget of each index and prints recall, absolute
//! throughput, and speedup over exact linear search.

use ssam_baselines::measured::{batch_recall, batch_search};
use ssam_bench::{fmt, print_table, ExpConfig};
use ssam_datasets::PaperDataset;
use ssam_knn::index::{SearchBudget, SearchIndex};
use ssam_knn::kdtree::{KdForest, KdTreeParams};
use ssam_knn::kmeans_tree::{KMeansTree, KMeansTreeParams};
use ssam_knn::linear::LinearSearch;
use ssam_knn::mplsh::{MplshParams, MultiProbeLsh};
use ssam_knn::Metric;

const BUDGETS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

fn main() {
    let cfg = ExpConfig::from_args(0.01);
    let mut rows = Vec::new();

    for dataset in PaperDataset::ALL {
        let mut bench = cfg.benchmark(dataset);
        if cfg.queries.is_none() && bench.queries.len() > 50 {
            // Single-threaded sweeps over 3 indexes × 8 budgets: cap the
            // batch for tractability unless the user overrides.
            let dims = bench.queries.dims();
            let mut q = ssam_knn::VectorStore::with_capacity(dims, 50);
            for i in 0..50u32 {
                q.push(bench.queries.get(i));
            }
            bench.queries = q;
            bench.ground_truth.ids.truncate(50);
        }
        let k = bench.k();
        eprintln!(
            "[fig2] {}: {} vectors x {} dims, {} queries, k = {k}",
            dataset.name(),
            bench.train.len(),
            bench.train.dims(),
            bench.queries.len()
        );

        // Exact linear reference.
        let linear = LinearSearch::new(Metric::Euclidean);
        let lin = batch_search(
            &linear,
            &bench.train,
            &bench.queries,
            k,
            SearchBudget::unlimited(),
        );
        let lin_qps = lin.qps;
        rows.push(vec![
            dataset.name().into(),
            "linear".into(),
            "-".into(),
            fmt(lin_qps),
            "1.000".into(),
            "1.000".into(),
        ]);

        // Indexes. MPLSH hash bits scale with cardinality so buckets stay
        // populated at reduced scale (the paper's 20 bits assume 1M+).
        let kd = KdForest::build(
            &bench.train,
            Metric::Euclidean,
            KdTreeParams {
                trees: 4,
                leaf_size: 32,
                seed: 7,
            },
        );
        let km = KMeansTree::build(
            &bench.train,
            Metric::Euclidean,
            KMeansTreeParams {
                branching: 16,
                leaf_size: 64,
                max_height: 10,
                kmeans_iters: 6,
                seed: 7,
            },
        );
        let bits = ((bench.train.len() as f64 / 8.0).log2().ceil() as usize).clamp(8, 20);
        let lsh = MultiProbeLsh::build(
            &bench.train,
            Metric::Euclidean,
            MplshParams {
                tables: 8,
                hash_bits: bits,
                seed: 7,
            },
        );

        let indexes: [(&str, &dyn SearchIndex); 3] =
            [("kdtree", &kd), ("kmeans", &km), ("mplsh", &lsh)];
        for (name, index) in indexes {
            for budget in BUDGETS {
                let out = batch_search(
                    index,
                    &bench.train,
                    &bench.queries,
                    k,
                    SearchBudget::checks(budget),
                );
                let recall = batch_recall(&out, &bench.ground_truth.ids);
                rows.push(vec![
                    dataset.name().into(),
                    name.into(),
                    budget.to_string(),
                    fmt(out.qps),
                    format!("{recall:.3}"),
                    format!("{:.2}", out.qps / lin_qps),
                ]);
            }
        }
    }

    println!("\nFig. 2 — throughput vs accuracy (single-threaded CPU)");
    print_table(
        cfg.csv,
        &[
            "dataset",
            "algorithm",
            "budget",
            "queries/s",
            "recall",
            "speedup_vs_linear",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: 10-170x speedup at >=50% recall, <=13x at 90%, and\n\
         convergence to linear-search throughput as recall -> 1."
    );
}
