//! Measured CPU baseline.
//!
//! The paper's CPU numbers come from FLANN/FALCONN wall-clock runs on a
//! six-core Xeon. This baseline runs the same four search algorithms on
//! one host thread, one query after another, and times the batch: the
//! paper's Fig. 2 characterization is "for single threaded
//! implementations", and the six-core platform is the analytical
//! [`crate::cpu`] model.

use std::time::Instant;

use ssam_knn::index::{SearchBudget, SearchIndex, SearchStats};
use ssam_knn::topk::Neighbor;
use ssam_knn::VectorStore;

/// Result of timing a query batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-query neighbor lists, aligned with the query store.
    pub results: Vec<Vec<Neighbor>>,
    /// Wall-clock seconds for the whole batch.
    pub seconds: f64,
    /// Throughput in queries/second.
    pub qps: f64,
    /// Work statistics summed over the batch.
    pub stats: SearchStats,
}

/// Runs every query through `index` on one thread, timing the batch.
pub fn batch_search<I: SearchIndex + ?Sized>(
    index: &I,
    store: &VectorStore,
    queries: &VectorStore,
    k: usize,
    budget: SearchBudget,
) -> BatchOutcome {
    let start = Instant::now();
    let mut stats = SearchStats::default();
    let results: Vec<Vec<Neighbor>> = (0..queries.len() as u32)
        .map(|q| {
            let (neighbors, s) = index.search_with_stats(store, queries.get(q), k, budget);
            stats.merge(&s);
            neighbors
        })
        .collect();
    let seconds = start.elapsed().as_secs_f64().max(1e-12);
    BatchOutcome {
        qps: results.len() as f64 / seconds,
        results,
        seconds,
        stats,
    }
}

/// Mean recall of a batch outcome against exact ground-truth id sets.
pub fn batch_recall(outcome: &BatchOutcome, ground_truth: &[Vec<u32>]) -> f64 {
    assert_eq!(
        outcome.results.len(),
        ground_truth.len(),
        "batch size mismatch"
    );
    if ground_truth.is_empty() {
        return 1.0;
    }
    let total: f64 = outcome
        .results
        .iter()
        .zip(ground_truth)
        .map(|(r, gt)| {
            let ids: Vec<u32> = r.iter().map(|n| n.id).collect();
            ssam_knn::recall::recall_ids(gt, &ids)
        })
        .sum();
    total / ground_truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssam_knn::linear::LinearSearch;
    use ssam_knn::Metric;

    fn stores() -> (VectorStore, VectorStore) {
        let train = VectorStore::from_flat(1, (0..200).map(|i| i as f32).collect());
        let queries = VectorStore::from_flat(1, vec![5.2, 100.1, 150.9]);
        (train, queries)
    }

    #[test]
    fn batch_outcome_shapes() {
        let (train, queries) = stores();
        let idx = LinearSearch::new(Metric::Euclidean);
        let out = batch_search(&idx, &train, &queries, 4, SearchBudget::unlimited());
        assert_eq!(out.results.len(), 3);
        assert!(out.results.iter().all(|r| r.len() == 4));
        assert!(out.qps > 0.0);
        assert_eq!(out.stats.distance_evals, 600);
    }

    #[test]
    fn perfect_recall_for_exact_search() {
        let (train, queries) = stores();
        let idx = LinearSearch::new(Metric::Euclidean);
        let out = batch_search(&idx, &train, &queries, 2, SearchBudget::unlimited());
        let gt: Vec<Vec<u32>> = out
            .results
            .iter()
            .map(|r| r.iter().map(|n| n.id).collect())
            .collect();
        assert_eq!(batch_recall(&out, &gt), 1.0);
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn recall_rejects_mismatched_truth() {
        let (train, queries) = stores();
        let idx = LinearSearch::new(Metric::Euclidean);
        let out = batch_search(&idx, &train, &queries, 2, SearchBudget::unlimited());
        let _ = batch_recall(&out, &[]);
    }
}
