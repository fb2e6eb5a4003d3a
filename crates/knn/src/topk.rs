//! Bounded top-k accumulation — the software analogue of the paper's
//! hardware priority-queue unit.
//!
//! The SSAM design (Section III-C) keeps the k best candidates in a
//! 16-entry shift-register priority queue. On the CPU baseline the same
//! role is played by a bounded binary max-heap: insertion is `O(log k)` and
//! most candidates are rejected with a single comparison against the
//! current worst, which is exactly the cost profile the paper's software-
//! versus-hardware queue ablation measures.

use std::collections::BinaryHeap;

/// One search result: a database identifier and its distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row id within the [`crate::VectorStore`].
    pub id: u32,
    /// Distance under the active metric (squared L2 for Euclidean).
    pub dist: f32,
}

impl Neighbor {
    /// Convenience constructor.
    pub fn new(id: u32, dist: f32) -> Self {
        Self { id, dist }
    }
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    /// Orders by distance, breaking ties by id so results are deterministic
    /// across platforms (the simulator and CPU baseline must agree exactly).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded max-heap that retains the `k` smallest-distance neighbors seen.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// Creates an accumulator for the `k` nearest neighbors.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of neighbors currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no neighbor has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Distance of the current k-th best, or `f32::INFINITY` while the
    /// accumulator is not yet full. A candidate farther than this bound
    /// cannot enter the result set; one exactly at it still enters when
    /// its id is smaller than the k-th best's, since [`TopK::offer`]
    /// breaks distance ties by id. Indexes that prune on it must
    /// therefore prune strictly beyond it (`dist > bound`).
    pub fn bound(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap.peek().map_or(f32::INFINITY, |n| n.dist)
        }
    }

    /// Offers a candidate; returns `true` if it was retained.
    pub fn offer(&mut self, id: u32, dist: f32) -> bool {
        let cand = Neighbor::new(id, dist);
        if self.heap.len() < self.k {
            self.heap.push(cand);
            return true;
        }
        // Full: replace the current worst only if strictly better under the
        // deterministic (dist, id) order.
        match self.heap.peek() {
            Some(worst) if cand < *worst => {
                self.heap.pop();
                self.heap.push(cand);
                true
            }
            _ => false,
        }
    }

    /// Consumes the accumulator and returns neighbors sorted best-first.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

/// Exact top-k by full sort — the semantic reference used in tests.
pub fn topk_by_sort(mut cands: Vec<Neighbor>, k: usize) -> Vec<Neighbor> {
    cands.sort_unstable();
    cands.truncate(k);
    cands
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_k_smallest() {
        let mut t = TopK::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            t.offer(i as u32, *d);
        }
        let out = t.into_sorted();
        let dists: Vec<f32> = out.iter().map(|n| n.dist).collect();
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
    }

    /// A candidate at the bound enters only with a smaller id than the
    /// k-th best's; one beyond it never enters.
    #[test]
    fn a_tie_at_the_bound_enters_only_with_a_smaller_id() {
        let mut t = TopK::new(2);
        t.offer(4, 1.0);
        t.offer(6, 3.0);
        assert_eq!(t.bound(), 3.0);
        assert!(!t.offer(7, 3.0), "a tie with a larger id stays out");
        assert!(!t.offer(0, 3.5), "a farther candidate stays out");
        assert_eq!(t.bound(), 3.0);
        assert!(t.offer(5, 3.0), "a tie with a smaller id enters");
        assert_eq!(t.bound(), 3.0);
        let ids: Vec<u32> = t.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![4, 5]);
    }

    #[test]
    fn bound_is_infinite_until_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.bound(), f32::INFINITY);
        t.offer(0, 1.0);
        assert_eq!(t.bound(), f32::INFINITY);
        t.offer(1, 2.0);
        assert_eq!(t.bound(), 2.0);
        t.offer(2, 0.5);
        assert_eq!(t.bound(), 1.0);
    }

    #[test]
    fn offer_reports_retention() {
        let mut t = TopK::new(1);
        assert!(t.offer(0, 5.0));
        assert!(!t.offer(1, 9.0));
        assert!(t.offer(2, 1.0));
    }

    #[test]
    fn ties_break_by_lower_id() {
        let mut t = TopK::new(2);
        t.offer(7, 1.0);
        t.offer(3, 1.0);
        t.offer(5, 1.0);
        let out = t.into_sorted();
        assert_eq!(out[0].id, 3);
        assert_eq!(out[1].id, 5);
    }

    #[test]
    fn equal_distance_equal_id_is_not_retained_when_full() {
        let mut t = TopK::new(1);
        t.offer(0, 1.0);
        assert!(!t.offer(0, 1.0));
    }

    #[test]
    fn matches_sort_reference_on_fixed_input() {
        let cands: Vec<Neighbor> = (0..100)
            .map(|i| Neighbor::new(i, ((i * 37) % 19) as f32))
            .collect();
        let mut t = TopK::new(10);
        for c in &cands {
            t.offer(c.id, c.dist);
        }
        assert_eq!(t.into_sorted(), topk_by_sort(cands, 10));
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut t = TopK::new(10);
        t.offer(0, 2.0);
        t.offer(1, 1.0);
        let out = t.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = TopK::new(0);
    }

    #[test]
    fn handles_nan_free_infinities() {
        let mut t = TopK::new(2);
        t.offer(0, f32::INFINITY);
        t.offer(1, 1.0);
        t.offer(2, f32::INFINITY);
        let out = t.into_sorted();
        assert_eq!(out[0].id, 1);
        assert_eq!(out[1].dist, f32::INFINITY);
    }

    mod adversarial {
        use super::*;
        use proptest::prelude::*;

        /// Distances drawn from a tiny palette (plus ±∞) so ties and
        /// duplicates are the common case, not the 1-in-2³² case.
        fn dist_strategy() -> impl Strategy<Value = f32> {
            prop_oneof![
                (0u8..5).prop_map(|d| d as f32),
                Just(f32::INFINITY),
                Just(f32::NEG_INFINITY),
                Just(0.0f32),
                Just(-0.0f32),
            ]
        }

        proptest! {
            /// `TopK` must agree with the full-sort reference on streams
            /// stuffed with duplicate ids, tied distances, ±INFINITY, and
            /// k both below and at/above n — the exact inputs where an
            /// incremental bounded heap can drift from the sorted truth.
            #[test]
            fn matches_sort_reference_on_adversarial_streams(
                cands in prop::collection::vec((0u32..8, dist_strategy()), 0..60),
                k in 1usize..70,
            ) {
                let neighbors: Vec<Neighbor> =
                    cands.iter().map(|&(id, d)| Neighbor::new(id, d)).collect();
                let mut t = TopK::new(k);
                for n in &neighbors {
                    t.offer(n.id, n.dist);
                }
                let got = t.into_sorted();
                let want = topk_by_sort(neighbors, k);
                // Compare exactly, including -0.0 vs +0.0 (total_cmp order).
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(g.id, w.id);
                    prop_assert_eq!(g.dist.to_bits(), w.dist.to_bits());
                }
            }

            /// The pruning bound is exact: every offer strictly below the
            /// bound must be retained, every offer at or above it (when
            /// distances differ) must be rejected.
            #[test]
            fn bound_admits_exactly_the_improving_candidates(
                cands in prop::collection::vec((0u32..8, dist_strategy()), 1..40),
                k in 1usize..10,
            ) {
                let mut t = TopK::new(k);
                for &(id, d) in &cands {
                    let bound = t.bound();
                    let retained = t.offer(id, d);
                    if d < bound {
                        prop_assert!(retained, "cand below bound rejected");
                    }
                    if d > bound {
                        prop_assert!(!retained, "cand above bound retained");
                    }
                }
            }
        }
    }
}
