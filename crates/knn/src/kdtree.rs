//! Randomized kd-tree forest with best-bin-first backtracking.
//!
//! Follows the FLANN construction the paper benchmarks (Section II-C):
//! each tree recursively cuts the data on a dimension chosen at random
//! among the `RAND_DIM_CANDIDATES` highest-variance dimensions, splitting
//! at the mean. Leaves hold buckets of similar vectors. At query time a
//! depth-first descent reaches one bucket, then *backtracking* visits
//! additional "close by" buckets in best-first order until the
//! user-specified leaf budget is exhausted — the budget is the Fig. 2
//! throughput/accuracy knob.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::RngExt;
use rand::SeedableRng;

use crate::distance::Metric;
use crate::index::{SearchBudget, SearchIndex, SearchStats};
use crate::topk::{Neighbor, TopK};
use crate::vecstore::VectorStore;

/// Among how many top-variance dimensions the split dimension is drawn
/// (FLANN uses 5).
const RAND_DIM_CANDIDATES: usize = 5;

/// Construction parameters for a [`KdForest`].
#[derive(Debug, Clone, Copy)]
pub struct KdTreeParams {
    /// Number of parallel randomized trees.
    pub trees: usize,
    /// Maximum bucket size at the leaves.
    pub leaf_size: usize,
    /// RNG seed for dimension randomization.
    pub seed: u64,
}

impl Default for KdTreeParams {
    fn default() -> Self {
        Self {
            trees: 4,
            leaf_size: 16,
            seed: 0x6B64,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Interior {
        dim: u16,
        split: f32,
        left: u32,
        right: u32,
    },
    Leaf {
        ids: Vec<u32>,
    },
}

/// One randomized kd-tree stored as an arena of nodes.
#[derive(Debug, Clone)]
struct KdTree {
    nodes: Vec<Node>,
    root: u32,
}

/// A forest of randomized kd-trees sharing one candidate queue at search
/// time, as in FLANN.
#[derive(Debug, Clone)]
pub struct KdForest {
    trees: Vec<KdTree>,
    params: KdTreeParams,
    metric: Metric,
    dims: usize,
}

impl KdForest {
    /// Builds a forest over every row of `store` under `metric`.
    ///
    /// # Panics
    /// Panics if the store is empty or `params.trees == 0`.
    pub fn build(store: &VectorStore, metric: Metric, params: KdTreeParams) -> Self {
        assert!(!store.is_empty(), "cannot index an empty store");
        assert!(params.trees > 0, "forest needs at least one tree");
        let leaf_size = params.leaf_size.max(1);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let trees = (0..params.trees)
            .map(|_| {
                let mut ids: Vec<u32> = (0..store.len() as u32).collect();
                let mut nodes = Vec::new();
                let root = build_subtree(store, &mut ids, leaf_size, &mut nodes, &mut rng);
                KdTree { nodes, root }
            })
            .collect();
        Self {
            trees,
            params,
            metric,
            dims: store.dims(),
        }
    }

    /// Total leaves across all trees.
    pub fn num_leaves(&self) -> usize {
        self.trees
            .iter()
            .map(|t| {
                t.nodes
                    .iter()
                    .filter(|n| matches!(n, Node::Leaf { .. }))
                    .count()
            })
            .sum()
    }

    /// Construction parameters.
    pub fn params(&self) -> KdTreeParams {
        self.params
    }
}

/// Recursively builds one subtree over `ids`, returning the node index.
fn build_subtree(
    store: &VectorStore,
    ids: &mut [u32],
    leaf_size: usize,
    nodes: &mut Vec<Node>,
    rng: &mut StdRng,
) -> u32 {
    if ids.len() <= leaf_size {
        nodes.push(Node::Leaf { ids: ids.to_vec() });
        return (nodes.len() - 1) as u32;
    }

    let (dim, split) = choose_split(store, ids, rng);
    // Partition in place around the split value on `dim`.
    let mut lo = 0usize;
    let mut hi = ids.len();
    while lo < hi {
        if store.get(ids[lo])[dim] < split {
            lo += 1;
        } else {
            hi -= 1;
            ids.swap(lo, hi);
        }
    }
    // Guard against degenerate splits (all points on one side): cut in half
    // so the recursion always terminates.
    let mid = if lo == 0 || lo == ids.len() {
        ids.len() / 2
    } else {
        lo
    };

    let (left_ids, right_ids) = ids.split_at_mut(mid);
    let left = build_subtree(store, left_ids, leaf_size, nodes, rng);
    let right = build_subtree(store, right_ids, leaf_size, nodes, rng);
    nodes.push(Node::Interior {
        dim: dim as u16,
        split,
        left,
        right,
    });
    (nodes.len() - 1) as u32
}

/// Picks the split dimension (random among top-variance candidates) and the
/// split value (mean of that dimension), FLANN style.
fn choose_split(store: &VectorStore, ids: &[u32], rng: &mut StdRng) -> (usize, f32) {
    let dims = store.dims();
    // Mean and variance per dimension over this id set.
    let mut mean = vec![0.0f64; dims];
    for &id in ids {
        for (m, &x) in mean.iter_mut().zip(store.get(id)) {
            *m += x as f64;
        }
    }
    let n = ids.len() as f64;
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0f64; dims];
    for &id in ids {
        for ((v, &m), &x) in var.iter_mut().zip(&mean).zip(store.get(id)) {
            let d = x as f64 - m;
            *v += d * d;
        }
    }

    // Top candidate dimensions by variance.
    let mut order: Vec<usize> = (0..dims).collect();
    order.sort_unstable_by(|&a, &b| var[b].total_cmp(&var[a]));
    let ncand = RAND_DIM_CANDIDATES.min(dims);
    let dim = order[rng.random_range(0..ncand)];
    (dim, mean[dim] as f32)
}

/// A pending branch during best-bin-first traversal: the minimum possible
/// distance to the region, and where to resume.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Branch {
    mindist: f32,
    tree: u32,
    node: u32,
}

impl Eq for Branch {}
impl Ord for Branch {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.mindist
            .total_cmp(&other.mindist)
            .then_with(|| (self.tree, self.node).cmp(&(other.tree, other.node)))
    }
}
impl PartialOrd for Branch {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl SearchIndex for KdForest {
    fn search_with_stats(
        &self,
        store: &VectorStore,
        query: &[f32],
        k: usize,
        budget: SearchBudget,
    ) -> (Vec<Neighbor>, SearchStats) {
        assert_eq!(query.len(), self.dims, "query dimensionality mismatch");
        let mut top = TopK::new(k);
        let mut stats = SearchStats::default();
        // Shared best-first frontier across all trees (FLANN's single heap).
        let mut frontier: BinaryHeap<Reverse<Branch>> = BinaryHeap::new();
        let mut seen = std::collections::HashSet::new();

        for (t, tree) in self.trees.iter().enumerate() {
            frontier.push(Reverse(Branch {
                mindist: 0.0,
                tree: t as u32,
                node: tree.root,
            }));
        }

        let mut leaves = 0usize;
        while let Some(Reverse(br)) = frontier.pop() {
            if leaves >= budget.checks {
                break;
            }
            // Prune: the region cannot beat the current k-th best. Must be
            // strict — `TopK::offer` orders candidates by (dist, id), so a
            // region whose mindist exactly ties the bound may still hold an
            // equal-distance, lower-id neighbor the queue would accept.
            if br.mindist > top.bound() {
                continue;
            }
            let tree = &self.trees[br.tree as usize];
            let mut node = br.node;
            let acc = br.mindist;
            // Descend to a leaf, deferring far siblings onto the frontier.
            loop {
                match &tree.nodes[node as usize] {
                    Node::Interior {
                        dim,
                        split,
                        left,
                        right,
                    } => {
                        stats.interior_steps += 1;
                        let q = query[*dim as usize];
                        let delta = q - split;
                        let (near, far) = if delta < 0.0 {
                            (*left, *right)
                        } else {
                            (*right, *left)
                        };
                        let far_min = acc + plane_penalty(self.metric, delta);
                        frontier.push(Reverse(Branch {
                            mindist: far_min,
                            tree: br.tree,
                            node: far,
                        }));
                        node = near;
                        // `acc` unchanged on the near side: the region still
                        // contains points at the current lower bound.
                    }
                    Node::Leaf { ids } => {
                        leaves += 1;
                        stats.leaves_visited += 1;
                        for &id in ids {
                            if seen.insert(id) {
                                stats.distance_evals += 1;
                                top.offer(id, self.metric.eval(query, store.get(id)));
                            }
                        }
                        break;
                    }
                }
            }
        }
        (top.into_sorted(), stats)
    }

    fn family(&self) -> &'static str {
        "kdtree"
    }
}

/// Lower-bound increment for crossing a splitting plane at offset `delta`.
#[inline]
fn plane_penalty(metric: Metric, delta: f32) -> f32 {
    match metric {
        Metric::Euclidean => delta * delta,
        Metric::Manhattan => delta.abs(),
        // Other metrics have no exact plane bound; use the L1 penalty as a
        // heuristic ordering (still correct as *approximate* search).
        _ => delta.abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::knn_exact;
    use crate::recall::recall;
    use rand::rngs::StdRng;
    use rand::RngExt;
    use rand::SeedableRng;

    fn random_store(n: usize, dims: usize, seed: u64) -> VectorStore {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::with_capacity(dims, n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dims).map(|_| rng.random_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        s
    }

    fn params(trees: usize) -> KdTreeParams {
        KdTreeParams {
            trees,
            leaf_size: 8,
            seed: 99,
        }
    }

    #[test]
    fn unlimited_budget_reaches_full_recall() {
        let s = random_store(400, 8, 1);
        let f = KdForest::build(&s, Metric::Euclidean, params(2));
        let q = vec![0.1f32; 8];
        let exact = knn_exact(&s, &q, 10, Metric::Euclidean);
        let approx = f.search(&s, &q, 10, SearchBudget::unlimited());
        assert_eq!(recall(&exact, &approx), 1.0);
    }

    #[test]
    fn more_budget_never_lowers_recall_on_average() {
        let s = random_store(600, 6, 2);
        let f = KdForest::build(&s, Metric::Euclidean, params(4));
        let mut rng = StdRng::seed_from_u64(3);
        let mut low = 0.0;
        let mut high = 0.0;
        for _ in 0..20 {
            let q: Vec<f32> = (0..6).map(|_| rng.random_range(-1.0..1.0)).collect();
            let exact = knn_exact(&s, &q, 5, Metric::Euclidean);
            low += recall(&exact, &f.search(&s, &q, 5, SearchBudget::checks(1)));
            high += recall(&exact, &f.search(&s, &q, 5, SearchBudget::checks(64)));
        }
        assert!(high >= low, "high-budget recall {high} < low-budget {low}");
    }

    #[test]
    fn budget_caps_leaves_visited() {
        let s = random_store(500, 4, 4);
        let f = KdForest::build(&s, Metric::Euclidean, params(2));
        let (_, stats) = f.search_with_stats(&s, &[0.0; 4], 3, SearchBudget::checks(3));
        assert!(stats.leaves_visited <= 3);
    }

    #[test]
    fn all_ids_partitioned_into_leaves_exactly_once_per_tree() {
        let s = random_store(257, 3, 5);
        let f = KdForest::build(&s, Metric::Euclidean, params(3));
        for tree in &f.trees {
            let mut seen = vec![false; s.len()];
            for node in &tree.nodes {
                if let Node::Leaf { ids } = node {
                    for &id in ids {
                        assert!(!seen[id as usize], "id {id} in two leaves");
                        seen[id as usize] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&b| b), "some id missing from tree");
        }
    }

    #[test]
    fn leaf_sizes_respect_cap() {
        let s = random_store(300, 5, 6);
        let p = KdTreeParams {
            trees: 1,
            leaf_size: 10,
            seed: 0,
        };
        let f = KdForest::build(&s, Metric::Euclidean, p);
        for node in &f.trees[0].nodes {
            if let Node::Leaf { ids } = node {
                assert!(ids.len() <= 10);
            }
        }
    }

    #[test]
    fn duplicate_points_handled() {
        let s = VectorStore::from_flat(2, [1.0, 1.0].repeat(50));
        let f = KdForest::build(&s, Metric::Euclidean, params(2));
        let out = f.search(&s, &[1.0, 1.0], 5, SearchBudget::unlimited());
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|n| n.dist == 0.0));
    }

    #[test]
    fn results_never_contain_duplicate_ids() {
        let s = random_store(200, 4, 7);
        let f = KdForest::build(&s, Metric::Euclidean, params(4));
        let out = f.search(&s, &[0.0; 4], 20, SearchBudget::checks(50));
        let mut ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.len());
    }

    /// Regression: a subtree whose mindist exactly ties the k-th best must
    /// still be visited, because `TopK::offer` prefers lower ids on tied
    /// distances. Constructed in 1-D with exact f32 arithmetic: the query
    /// sits at 0, ids 1 and 2 at x=-2 fill the k=2 queue at distance 4.0,
    /// and id 0 at x=+2 (the far side of the root split, mindist exactly
    /// 4.0) ties them with a lower id. The old `>=` prune returned
    /// {1, 2}; the exact answer is {0, 1}.
    #[test]
    fn tied_mindist_subtree_is_not_pruned() {
        let s = VectorStore::from_flat(1, vec![2.0, -2.0, -2.0, 10.0]);
        let p = KdTreeParams {
            trees: 1,
            leaf_size: 1,
            seed: 0,
        };
        let f = KdForest::build(&s, Metric::Euclidean, p);
        let exact = knn_exact(&s, &[0.0], 2, Metric::Euclidean);
        assert_eq!(
            exact.iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![0, 1],
            "scenario precondition: exact ties break toward lower ids"
        );
        let approx = f.search(&s, &[0.0], 2, SearchBudget::unlimited());
        assert_eq!(
            approx, exact,
            "tied subtree straddling the split was pruned"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let s = random_store(150, 4, 8);
        let f1 = KdForest::build(&s, Metric::Euclidean, params(2));
        let f2 = KdForest::build(&s, Metric::Euclidean, params(2));
        let o1 = f1.search(&s, &[0.2; 4], 5, SearchBudget::checks(8));
        let o2 = f2.search(&s, &[0.2; 4], 5, SearchBudget::checks(8));
        assert_eq!(o1, o2);
    }
}
