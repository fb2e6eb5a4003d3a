//! Exact ground-truth computation.
//!
//! Recall (Section II-C) is measured against "the true set of neighbors
//! returned by exact floating point linear kNN search", computed here
//! one query after another.

use ssam_knn::linear::knn_exact;
use ssam_knn::{Metric, VectorStore};

/// Exact neighbor ids per query (row-aligned with the query store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruth {
    /// `k` used to compute the truth sets.
    pub k: usize,
    /// Metric used.
    pub metric: Metric,
    /// `ids[q]` = ids of the k exact nearest neighbors of query `q`,
    /// best-first.
    pub ids: Vec<Vec<u32>>,
}

impl GroundTruth {
    /// Computes exact kNN for every query.
    pub fn compute(train: &VectorStore, queries: &VectorStore, k: usize, metric: Metric) -> Self {
        let ids: Vec<Vec<u32>> = (0..queries.len() as u32)
            .map(|q| {
                knn_exact(train, queries.get(q), k, metric)
                    .into_iter()
                    .map(|n| n.id)
                    .collect()
            })
            .collect();
        Self { k, metric, ids }
    }

    /// Number of queries covered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no queries are covered.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_store(n: usize) -> VectorStore {
        VectorStore::from_flat(1, (0..n).map(|i| i as f32).collect())
    }

    #[test]
    fn matches_single_threaded_exact_search() {
        let train = line_store(100);
        let queries = VectorStore::from_flat(1, vec![3.2, 55.7, 99.0]);
        let gt = GroundTruth::compute(&train, &queries, 3, Metric::Euclidean);
        assert_eq!(gt.ids.len(), 3);
        assert_eq!(gt.ids[0], vec![3, 4, 2]);
        assert_eq!(gt.ids[1], vec![56, 55, 57]);
        assert_eq!(gt.ids[2], vec![99, 98, 97]);
    }

    #[test]
    fn truth_sets_have_k_entries() {
        let train = line_store(50);
        let queries = line_store(5);
        let gt = GroundTruth::compute(&train, &queries, 7, Metric::Euclidean);
        assert!(gt.ids.iter().all(|s| s.len() == 7));
        assert_eq!(gt.k, 7);
        assert_eq!(gt.len(), 5);
        assert!(!gt.is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let train = line_store(200);
        let queries = line_store(20);
        let a = GroundTruth::compute(&train, &queries, 5, Metric::Euclidean);
        let b = GroundTruth::compute(&train, &queries, 5, Metric::Euclidean);
        assert_eq!(a, b);
    }
}
