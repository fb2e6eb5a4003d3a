//! Hyperplane multi-probe locality-sensitive hashing (HP-MPLSH).
//!
//! Reproduces the index the paper benchmarks with FALCONN (Section II-C):
//! each hash table cuts the space with `hash_bits` random hyperplanes
//! (the paper uses 20); a vector's bucket is the sign pattern of its dot
//! products with those hyperplanes. Hash functions intentionally collide
//! similar vectors into the same bucket. To improve accuracy, *multi-probe*
//! querying perturbs the query's hash in increasing order of perturbation
//! cost (Lv et al., VLDB'07) to visit additional "close by" buckets — the
//! probe count is the Fig. 2 throughput/accuracy knob.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use rand::rngs::StdRng;
use rand::RngExt;
use rand::SeedableRng;

use crate::distance::{dot, Metric};
use crate::index::{SearchBudget, SearchIndex, SearchStats};
use crate::topk::{Neighbor, TopK};
use crate::vecstore::VectorStore;

/// Construction parameters for [`MultiProbeLsh`].
#[derive(Debug, Clone, Copy)]
pub struct MplshParams {
    /// Independent hash tables.
    pub tables: usize,
    /// Hyperplane cuts (hash bits) per table; the paper sets 20. Max 32.
    pub hash_bits: usize,
    /// RNG seed for hyperplane sampling.
    pub seed: u64,
}

impl Default for MplshParams {
    fn default() -> Self {
        Self {
            tables: 4,
            hash_bits: 20,
            seed: 0x004C_5348,
        }
    }
}

/// One hash table: its hyperplanes and bucket map.
#[derive(Debug, Clone)]
struct Table {
    /// `hash_bits` hyperplane normals, row-major.
    planes: VectorStore,
    buckets: HashMap<u32, Vec<u32>>,
}

/// Hyperplane multi-probe LSH index.
#[derive(Debug, Clone)]
pub struct MultiProbeLsh {
    tables: Vec<Table>,
    params: MplshParams,
    metric: Metric,
    dims: usize,
}

impl MultiProbeLsh {
    /// Builds the index over every row of `store`.
    ///
    /// # Panics
    /// Panics if the store is empty, `hash_bits` is 0 or > 32, or
    /// `tables == 0`.
    pub fn build(store: &VectorStore, metric: Metric, params: MplshParams) -> Self {
        assert!(!store.is_empty(), "cannot index an empty store");
        assert!(params.tables > 0, "need at least one hash table");
        assert!(
            (1..=32).contains(&params.hash_bits),
            "hash_bits must be in 1..=32"
        );
        let dims = store.dims();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let tables = (0..params.tables)
            .map(|_| {
                let mut planes = VectorStore::with_capacity(dims, params.hash_bits);
                for _ in 0..params.hash_bits {
                    // Gaussian normals give rotation-invariant hyperplanes.
                    let v: Vec<f32> = (0..dims)
                        .map(|_| {
                            let g: f64 = sample_standard_normal(&mut rng);
                            g as f32
                        })
                        .collect();
                    planes.push(&v);
                }
                let mut buckets: HashMap<u32, Vec<u32>> = HashMap::new();
                for (id, v) in store.iter() {
                    let code = hash_code(&planes, v).0;
                    buckets.entry(code).or_default().push(id);
                }
                Table { planes, buckets }
            })
            .collect();
        Self {
            tables,
            params,
            metric,
            dims,
        }
    }

    /// Construction parameters.
    pub fn params(&self) -> MplshParams {
        self.params
    }
}

/// Box–Muller standard normal from a uniform RNG.
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Hashes `v`: bit `i` set iff `dot(v, plane_i) >= 0`. Also returns the raw
/// activations (needed for probe ordering).
fn hash_code(planes: &VectorStore, v: &[f32]) -> (u32, Vec<f32>) {
    let mut code = 0u32;
    let mut acts = Vec::with_capacity(planes.len());
    for (i, p) in planes.iter() {
        let z = dot(v, p);
        acts.push(z);
        if z >= 0.0 {
            code |= 1 << i;
        }
    }
    (code, acts)
}

/// A perturbation set in the Lv et al. generation order: flip the query
/// bits at `positions[..len]` of the confidence-sorted bit order.
#[derive(Debug, Clone, PartialEq)]
struct Probe {
    score: f32,
    /// Indices into the sorted-by-|activation| bit order; the *last* index
    /// is the expansion point for successor generation.
    set: Vec<u32>,
}
impl Eq for Probe {}
impl Ord for Probe {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| self.set.cmp(&other.set))
    }
}
impl PartialOrd for Probe {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Generates the first `n` probe codes for a query in increasing
/// perturbation-cost order. The first probe is always the unperturbed code.
///
/// Cost of flipping bit `b` is `activation(b)^2` — the squared margin to
/// that hyperplane — so low-confidence bits are flipped first, exactly the
/// "small perturbations to the hash result" of the paper.
fn probe_sequence(code: u32, acts: &[f32], n: usize) -> Vec<u32> {
    let bits = acts.len();
    let mut out = Vec::with_capacity(n);
    out.push(code);
    if n <= 1 || bits == 0 {
        return out;
    }

    // Bit indices sorted by |activation| ascending (cheapest flips first).
    let mut order: Vec<u32> = (0..bits as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        acts[a as usize]
            .abs()
            .total_cmp(&acts[b as usize].abs())
            .then(a.cmp(&b))
    });
    let cost = |sorted_pos: u32| -> f32 {
        let bit = order[sorted_pos as usize];
        let z = acts[bit as usize];
        z * z
    };

    // Heap-based generation (Lv et al.): successors of a set whose last
    // element is `j` are shift (j→j+1) and expand (append j+1).
    let mut heap: BinaryHeap<Reverse<Probe>> = BinaryHeap::new();
    heap.push(Reverse(Probe {
        score: cost(0),
        set: vec![0],
    }));
    while out.len() < n {
        let Some(Reverse(p)) = heap.pop() else { break };
        // Emit this perturbation.
        let mut perturbed = code;
        for &pos in &p.set {
            perturbed ^= 1 << order[pos as usize];
        }
        out.push(perturbed);

        let last = *p.set.last().expect("probe sets are non-empty");
        if (last + 1) < bits as u32 {
            // Shift.
            let mut shifted = p.set.clone();
            *shifted.last_mut().expect("non-empty") = last + 1;
            let score = p.score - cost(last) + cost(last + 1);
            heap.push(Reverse(Probe {
                score,
                set: shifted,
            }));
            // Expand.
            let mut expanded = p.set;
            expanded.push(last + 1);
            let score = p.score + cost(last + 1);
            heap.push(Reverse(Probe {
                score,
                set: expanded,
            }));
        }
    }
    out
}

impl SearchIndex for MultiProbeLsh {
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
        let mut seen: HashSet<u32> = HashSet::new();
        // Cap the probe explosion at the table's full bucket count.
        let probes = budget.checks.min(1usize << self.params.hash_bits.min(24));

        for table in &self.tables {
            let (code, acts) = hash_code(&table.planes, query);
            // Each hyperplane dot product is an interior (hash) step.
            stats.interior_steps += self.params.hash_bits;
            for probe in probe_sequence(code, &acts, probes) {
                stats.leaves_visited += 1;
                if let Some(bucket) = table.buckets.get(&probe) {
                    for &id in bucket {
                        if seen.insert(id) {
                            stats.distance_evals += 1;
                            top.offer(id, self.metric.eval(query, store.get(id)));
                        }
                    }
                }
            }
        }
        (top.into_sorted(), stats)
    }

    fn family(&self) -> &'static str {
        "mplsh"
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

    fn small_params() -> MplshParams {
        // Few bits so buckets are well-populated at test scale.
        MplshParams {
            tables: 6,
            hash_bits: 8,
            seed: 77,
        }
    }

    #[test]
    fn probe_sequence_starts_with_base_code() {
        let acts = vec![0.5, -0.2, 1.0];
        let seq = probe_sequence(0b101, &acts, 4);
        assert_eq!(seq[0], 0b101);
    }

    #[test]
    fn probe_sequence_has_no_duplicates() {
        let acts = vec![0.5, -0.2, 1.0, -0.1, 0.05];
        let seq = probe_sequence(0b10101, &acts, 20);
        let mut s = seq.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), seq.len());
    }

    #[test]
    fn probe_sequence_flips_cheapest_bit_first() {
        // |activations|: bit2 is cheapest (0.05)
        let acts = vec![0.5, -0.2, 0.05];
        let seq = probe_sequence(0b000, &acts, 2);
        assert_eq!(
            seq[1], 0b100,
            "second probe should flip the lowest-margin bit"
        );
    }

    #[test]
    fn probe_scores_are_nondecreasing() {
        let acts = vec![0.9, -0.4, 0.1, 0.7];
        let full = probe_sequence(0, &acts, 16);
        let score = |p: u32| -> f32 {
            (0..4)
                .filter(|b| p & (1 << b) != 0)
                .map(|b| acts[b] * acts[b])
                .sum()
        };
        for w in full.windows(2) {
            assert!(score(w[0]) <= score(w[1]) + 1e-6);
        }
    }

    #[test]
    fn probe_sequence_enumerates_all_subsets_eventually() {
        let acts = vec![0.3, 0.6, 0.9];
        let seq = probe_sequence(0, &acts, 8);
        assert_eq!(seq.len(), 8); // 2^3 distinct perturbations of 3 bits
    }

    #[test]
    fn self_query_is_found_with_one_probe() {
        let s = random_store(200, 8, 1);
        let idx = MultiProbeLsh::build(&s, Metric::Euclidean, small_params());
        // The query *is* row 0, so it hashes to its own bucket in every table.
        let q: Vec<f32> = s.get(0).to_vec();
        let out = idx.search(&s, &q, 1, SearchBudget::checks(1));
        assert_eq!(out[0].id, 0);
        assert_eq!(out[0].dist, 0.0);
    }

    #[test]
    fn recall_grows_with_probe_budget() {
        let s = random_store(600, 10, 2);
        let idx = MultiProbeLsh::build(&s, Metric::Euclidean, small_params());
        let mut rng = StdRng::seed_from_u64(3);
        let (mut low, mut high) = (0.0, 0.0);
        for _ in 0..25 {
            let q: Vec<f32> = (0..10).map(|_| rng.random_range(-1.0..1.0)).collect();
            let exact = knn_exact(&s, &q, 5, Metric::Euclidean);
            low += recall(&exact, &idx.search(&s, &q, 5, SearchBudget::checks(1)));
            high += recall(&exact, &idx.search(&s, &q, 5, SearchBudget::checks(64)));
        }
        assert!(high >= low, "high-probe recall {high} < low-probe {low}");
    }

    #[test]
    fn every_row_is_bucketed_once_per_table() {
        let s = random_store(150, 6, 4);
        let idx = MultiProbeLsh::build(&s, Metric::Euclidean, small_params());
        for table in &idx.tables {
            let total: usize = table.buckets.values().map(|b| b.len()).sum();
            assert_eq!(total, s.len());
        }
    }

    #[test]
    fn stats_count_probes_across_tables() {
        let s = random_store(100, 6, 5);
        let p = small_params();
        let idx = MultiProbeLsh::build(&s, Metric::Euclidean, p);
        let (_, stats) = idx.search_with_stats(&s, &[0.0; 6], 3, SearchBudget::checks(4));
        assert_eq!(stats.leaves_visited, 4 * p.tables);
        assert_eq!(stats.interior_steps, p.hash_bits * p.tables);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = random_store(120, 5, 6);
        let i1 = MultiProbeLsh::build(&s, Metric::Euclidean, small_params());
        let i2 = MultiProbeLsh::build(&s, Metric::Euclidean, small_params());
        let q = [0.1f32; 5];
        assert_eq!(
            i1.search(&s, &q, 4, SearchBudget::checks(8)),
            i2.search(&s, &q, 4, SearchBudget::checks(8))
        );
    }

    #[test]
    fn results_have_unique_ids() {
        let s = random_store(200, 6, 7);
        let idx = MultiProbeLsh::build(&s, Metric::Euclidean, small_params());
        let out = idx.search(&s, &[0.0; 6], 10, SearchBudget::checks(32));
        let mut ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.len());
    }
}
