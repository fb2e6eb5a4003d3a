//! Analytic fast-path executor for the linear hardware-queue kernels.
//!
//! The cycle simulator interprets ~9 instructions per vector-length
//! chunk of every candidate vector. But for the straight-line scan
//! kernels (Euclidean / Manhattan / Hamming with the hardware priority
//! queue) nothing about the run is data-dependent *except the distance
//! values themselves*:
//!
//! * every [`crate::sim::RunStats`] counter is a pure function of
//!   `(program, vl, n)` — the scan loop trips exactly `n` times, the
//!   chunk loop `dims/vl` times, `PQUEUE_INSERT` retires in one cycle
//!   whether or not the candidate is accepted, and the `MEM_FETCH`
//!   window makes every chunk load a prefetch hit. The static cost
//!   model proves this by synthesizing the counters exactly
//!   ([`crate::analysis::cost::CostEstimate::stats`], cross-checked
//!   bit-for-bit against real runs in its tests). The device memoizes
//!   them per (metric, shard length) until the next load, so a warm
//!   device never runs the cost model;
//! * the distance arithmetic is Q16.16 over wrapping `i32`, which the
//!   host replicates exactly ([`raw_distance`]);
//! * candidate selection is the hardware shift-register queue
//!   ([`crate::sim::HardwarePriorityQueue`], the same type the simulated
//!   PU embeds), which orders entries by `(value, id)`, and [`scan_shard`]
//!   skips every candidate that order already excludes;
//! * the host merge is the only reader of a vault's list, so
//!   [`scan_bounded`] also abandons a candidate mid-vector once its
//!   partial sum shows it cannot enter the query's merged top-k: against
//!   the vault queue's k-th value and against the k-th smallest value
//!   the query's earlier kept vaults returned ([`fold_kept`]). It runs
//!   only where [`cannot_wrap`] proves no partial sum wraps; elsewhere
//!   the full loop runs. A vault's list is then no longer its own exact
//!   top-k, but the merged answer is bit-identical (DESIGN §11).
//!
//! So the fast path computes each surviving candidate's raw distance
//! host-side, selects through the same priority queue, and takes the
//! counters from the cost model — producing bit-identical neighbors,
//! stats, timing, fault accounting, and telemetry at a fraction of the
//! cost (no per-instruction interpretation). The cosine kernel's software
//! division and the software-queue variants have data-dependent control
//! flow, so their counters are *not* static functions of `(program, vl,
//! n)`; those queries fall back to the cycle simulator (see
//! [`supported`]), as does anything whose synthesized counters fail to
//! resolve exactly.
//!
//! The `fastpath_equivalence` integration suite drives both executors
//! over random batches — with and without chaos fault plans, over
//! full-range words, heavily tied shards and rows at the served width —
//! and asserts bit-identity on every observable.

use super::DeviceMetric;
use crate::analysis::cost::{estimate_with, CostParams};
use crate::isa::inst::Instruction;
use crate::sim::pqueue::PqEntry;
use crate::sim::pu::RunStats;
use crate::sim::HardwarePriorityQueue;

/// Whether `metric`'s hardware-queue kernel has an analytic fast path.
///
/// Cosine is excluded: its restoring-division tail branches on data, so
/// its cycle/branch counters cannot be synthesized exactly (the value
/// *could* be replicated, but the run account could not).
pub(super) fn supported(metric: DeviceMetric) -> bool {
    matches!(
        metric,
        DeviceMetric::Euclidean | DeviceMetric::Manhattan | DeviceMetric::Hamming
    )
}

/// Synthesizes the full counter set one simulated run of `program` over
/// `n` vectors would report, or `None` when any counter is not a static
/// function of `(program, vl, n)` — the caller must fall back to the
/// cycle simulator in that case.
pub(super) fn synthesize_stats(program: &[Instruction], vl: usize, n: u64) -> Option<RunStats> {
    estimate_with(program, vl, n, &CostParams::default()).stats
}

/// Words the bounded scan adds up between two checks of a candidate's
/// partial sum against its bound.
const ABANDON_BLOCK: usize = 16;

/// The Q16.16 squared-difference term of one word pair: the unsigned
/// square of the wrapped difference (see [`raw_distance`]).
#[inline(always)]
fn euclidean_term(x: i32, y: i32) -> i32 {
    let a = x.wrapping_sub(y).unsigned_abs() as u64;
    ((a * a) >> 16) as i32
}

/// The absolute-difference term of one word pair, with the kernels'
/// branch-free absolute value.
#[inline(always)]
fn manhattan_term(x: i32, y: i32) -> i32 {
    let d = x.wrapping_sub(y);
    let m = d >> 31;
    (d ^ m).wrapping_sub(m)
}

/// The xor-popcount term of one word pair.
#[inline(always)]
fn hamming_term(x: i32, y: i32) -> i32 {
    (x ^ y).count_ones() as i32
}

/// Wrapping sum of `term` over the word pairs of `cand` and `query`.
#[inline(always)]
fn sum_terms(term: impl Fn(i32, i32) -> i32, query: &[i32], cand: &[i32]) -> i32 {
    cand.iter()
        .zip(query)
        .fold(0i32, |acc, (&x, &y)| acc.wrapping_add(term(x, y)))
}

/// The raw distance word the kernel would leave in `s7` for one
/// candidate: Q16.16 squared Euclidean / Manhattan distance, or the
/// plain popcount for Hamming.
///
/// The kernels accumulate per-element terms into `vl` lane accumulators
/// with wrapping adds, then reduce the lanes sequentially
/// (`reduce_lanes`). Wrapping `i32` addition is arithmetic mod 2³², so
/// it is associative and commutative and *any* summation order — here, a
/// flat index-order loop the compiler can vectorize — yields the same
/// bits. Per-element terms replicate the vector datapath exactly:
/// wrapping subtract, the kernels' `(d ^ (d >> 31)) - (d >> 31)`
/// branch-free absolute value, xor-popcount, and the Q16.16 square
/// [`crate::isa::inst::AluOp::Mult`] computes as
/// `((d as i64 * d as i64) >> 16) as i32`. The host squares `|d|` as an
/// unsigned 32-bit value instead, which the compiler lowers to one
/// unsigned 32×32→64 multiply per lane: `|d| ≤ 2³¹`, so `d²` is
/// non-negative and below 2⁶³, the `i64` and `u64` products are the same
/// integer, and shifting then truncating to the low 32 bits gives the
/// same word. Zero padding (applied to both the staged query and the
/// stored vectors) contributes zero-valued terms, just as the padded
/// lanes do on the device.
///
/// # Panics
/// Panics if the slices differ in length (staging guarantees both are
/// `vec_words` long).
///
/// Public (re-exported as [`crate::device::raw_distance`]): the mutable
/// store's memtable scan computes candidate distances through this exact
/// function so host-resident vectors rank bit-identically to vault-staged
/// ones.
pub fn raw_distance(metric: DeviceMetric, query: &[i32], cand: &[i32]) -> i32 {
    assert_eq!(query.len(), cand.len(), "candidate/query width mismatch");
    match metric {
        DeviceMetric::Euclidean => sum_terms(euclidean_term, query, cand),
        DeviceMetric::Manhattan => sum_terms(manhattan_term, query, cand),
        DeviceMetric::Hamming => sum_terms(hamming_term, query, cand),
        DeviceMetric::Cosine => unreachable!("cosine has no analytic fast path"),
    }
}

/// The no-wrap proof for one (query, shard) cell: whether every partial
/// sum of `metric`'s terms over `vec_words` words is non-negative and at
/// most `i32::MAX`, given that no query or stored word exceeds `max_abs`
/// in magnitude (`max_abs` is the shard's max |word| plus the query's).
///
/// Then `|x − y| ≤ max_abs` never wraps, every term is non-negative and
/// bounded, and a partial sum is a lower bound on the candidate's final
/// raw value — the premise of [`scan_bounded`]. Computed in `u64`:
/// * Euclidean: `max_abs ≤ i32::MAX` and
///   `vec_words · ((max_abs²) >> 16) ≤ i32::MAX`;
/// * Manhattan: `vec_words · max_abs ≤ i32::MAX`;
/// * Hamming: `vec_words · 32 ≤ i32::MAX` (a word adds at most 32).
pub(super) fn cannot_wrap(metric: DeviceMetric, max_abs: u64, vec_words: usize) -> bool {
    let cap = i32::MAX as u64;
    let n = vec_words as u64;
    match metric {
        DeviceMetric::Euclidean => {
            max_abs <= cap && n.saturating_mul((max_abs * max_abs) >> 16) <= cap
        }
        DeviceMetric::Manhattan => n.saturating_mul(max_abs) <= cap,
        DeviceMetric::Hamming => n.saturating_mul(32) <= cap,
        DeviceMetric::Cosine => false,
    }
}

/// Scans one shard for one query, exactly as the hardware-queue kernel
/// would: local ids in scan order, raw Q16.16/popcount distances, and
/// the real shift-register priority queue for selection. `pq` is reset
/// first, so one queue (chained to hold `k`) serves a whole batch.
/// Returns the queue's best `k` entries, best first — the same
/// `(id, value)` tuples the device reads back from a simulated PU's
/// queue.
///
/// A candidate whose `(value, id)` is not below the queue's current
/// k-th entry is never inserted: it already has `k` better entries ahead
/// of it, and entries only ever improve, so it could not reach the
/// first `k`. The queue's first `k` are thus the shard's exact top-k in
/// the queue's own order, as on the device; only positions past `k`,
/// which nobody reads, may differ.
///
/// This is the full loop: every candidate's every word. The batch engine
/// runs it for a cell that fails [`cannot_wrap`], and it is the scalar
/// twin the unit tests hold [`scan_bounded`] to.
pub(super) fn scan_shard<'q>(
    metric: DeviceMetric,
    query: &[i32],
    shard_words: &[i32],
    vec_words: usize,
    k: usize,
    pq: &'q mut HardwarePriorityQueue,
) -> &'q [PqEntry] {
    pq.reset();
    for (local, cand) in shard_words.chunks_exact(vec_words).enumerate() {
        let (id, value) = (local as i32, raw_distance(metric, query, cand));
        if pq
            .load(k - 1)
            .is_some_and(|kth| (value, id) >= (kth.value, kth.id))
        {
            continue;
        }
        pq.insert(id, value);
    }
    &pq.entries()[..k.min(pq.len())]
}

/// [`scan_shard`] with early abandoning, for a cell that passes
/// [`cannot_wrap`]. A candidate's terms are added up
/// [`ABANDON_BLOCK`] words at a time, and the candidate is dropped as
/// soon as its partial sum exceeds `min(theta, kth) − 1`, where `kth`
/// is the queue's current k-th value and `theta` the query's cross-vault
/// bound ([`fold_kept`]). Under the no-wrap proof a partial sum never
/// exceeds the final value, and scan-order ids ascend, so against `kth`
/// this is [`scan_shard`]'s `(value, id)` reject applied early; against
/// `theta` it drops candidates the host merge cannot keep. A survivor is
/// inserted with its full value. Returns the queue's best `k` entries
/// and the number of words read.
///
/// The queue's first `k` are therefore the shard's exact top-k among
/// candidates below `theta`: no longer the shard's own top-k, but the
/// merged answer is unchanged (DESIGN §11).
pub(super) fn scan_bounded<'q>(
    metric: DeviceMetric,
    query: &[i32],
    shard_words: &[i32],
    vec_words: usize,
    k: usize,
    theta: Option<i32>,
    pq: &'q mut HardwarePriorityQueue,
) -> (&'q [PqEntry], u64) {
    pq.reset();
    let read = match metric {
        DeviceMetric::Euclidean => {
            bounded(euclidean_term, query, shard_words, vec_words, k, theta, pq)
        }
        DeviceMetric::Manhattan => {
            bounded(manhattan_term, query, shard_words, vec_words, k, theta, pq)
        }
        DeviceMetric::Hamming => bounded(hamming_term, query, shard_words, vec_words, k, theta, pq),
        DeviceMetric::Cosine => unreachable!("cosine has no analytic fast path"),
    };
    (&pq.entries()[..k.min(pq.len())], read)
}

/// The one bounded scan, monomorphized per metric term. Returns the
/// words read.
#[inline(always)]
fn bounded(
    term: impl Fn(i32, i32) -> i32 + Copy,
    query: &[i32],
    shard_words: &[i32],
    vec_words: usize,
    k: usize,
    theta: Option<i32>,
    pq: &mut HardwarePriorityQueue,
) -> u64 {
    // `acc > limit` is `acc ≥ min(theta, kth)`; with neither bound set,
    // `i32::MAX` admits every sum the proof allows.
    let mut limit = theta.map_or(i32::MAX, |t| t.saturating_sub(1));
    let (q_blocks, q_tail) = query.as_chunks::<ABANDON_BLOCK>();
    let mut read = 0u64;
    'scan: for (local, cand) in shard_words.chunks_exact(vec_words).enumerate() {
        let (c_blocks, c_tail) = cand.as_chunks::<ABANDON_BLOCK>();
        let mut acc = 0i32;
        for (c, q) in c_blocks.iter().zip(q_blocks) {
            acc = acc.wrapping_add(sum_terms(term, q, c));
            read += ABANDON_BLOCK as u64;
            if acc > limit {
                continue 'scan;
            }
        }
        acc = acc.wrapping_add(sum_terms(term, q_tail, c_tail));
        read += c_tail.len() as u64;
        if acc > limit {
            continue;
        }
        pq.insert(local as i32, acc);
        if let Some(kth) = pq.load(k - 1) {
            limit = limit.min(kth.value - 1);
        }
    }
    read
}

/// Folds one kept cell's entries (best first) into `best`: the `k`
/// smallest raw values a query's kept vaults have returned so far,
/// ascending. Once `best` holds `k` values, `best[k − 1]` is the query's
/// cross-vault bound `theta` for [`scan_bounded`]: the host merge orders
/// by `(host_dist(raw), id)`, `host_dist` never decreases as `raw`
/// grows, and every later vault's ids are larger, so those `k` entries
/// precede any later candidate whose raw value is at least `theta`.
pub(super) fn fold_kept(best: &mut Vec<i32>, entries: &[PqEntry], k: usize) {
    for e in entries {
        let at = best.partition_point(|&v| v <= e.value);
        if at >= k {
            break; // entries ascend: the rest land past `k` too
        }
        best.insert(at, e.value);
        best.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::inst::AluOp;
    use crate::isa::DRAM_BASE;
    use crate::kernels::linear;
    use crate::sim::ProcessingUnit;
    use std::sync::Arc;

    fn lcg_words(n: usize, seed: u64) -> Vec<i32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as i32
            })
            .collect()
    }

    /// The host replication of the distance pipeline and queue must equal
    /// a real simulated kernel run: same queue ids, same raw values, same
    /// counters — for every vector length and supported metric, including
    /// values that exercise wrapping.
    #[test]
    fn scan_matches_a_simulated_kernel_run_bit_for_bit() {
        for &vl in &crate::isa::VECTOR_LENGTHS {
            for metric in [
                DeviceMetric::Euclidean,
                DeviceMetric::Manhattan,
                DeviceMetric::Hamming,
            ] {
                let kernel = match metric {
                    DeviceMetric::Euclidean => linear::euclidean(10, vl),
                    DeviceMetric::Manhattan => linear::manhattan(10, vl),
                    DeviceMetric::Hamming => linear::hamming(10, vl),
                    DeviceMetric::Cosine => unreachable!(),
                };
                let vw = kernel.layout.vec_words;
                let n = 23usize;
                let k = 7usize;
                let dram = lcg_words(n * vw, 5 + vl as u64);
                let query = lcg_words(vw, 99 + vl as u64);

                let mut pu = ProcessingUnit::new(vl, Arc::new(dram.clone()));
                pu.chain_pqueue(1);
                pu.load_program(kernel.program.clone());
                pu.scratchpad_mut()
                    .write_block(kernel.layout.query_addr, &query)
                    .expect("query fits");
                pu.set_sreg(1, DRAM_BASE as i32);
                pu.set_sreg(2, DRAM_BASE as i32 + (n * vw * 4) as i32);
                pu.set_sreg(3, 0);
                let stats = pu.run(1_000_000).expect("runs");
                let sim: Vec<(i32, i32)> = pu
                    .pqueue()
                    .entries()
                    .iter()
                    .take(k)
                    .map(|e| (e.id, e.value))
                    .collect();

                let mut pq = HardwarePriorityQueue::new();
                let fast: Vec<(i32, i32)> = scan_shard(metric, &query, &dram, vw, k, &mut pq)
                    .iter()
                    .map(|e| (e.id, e.value))
                    .collect();
                assert_eq!(fast, sim, "{} vl={vl}", kernel.name);
                assert_eq!(
                    synthesize_stats(&kernel.program, vl, n as u64),
                    Some(stats),
                    "{} vl={vl}",
                    kernel.name
                );
            }
        }
    }

    /// The device's Q16.16 multiply in its `i64` form — the scalar twin
    /// of `raw_distance`'s unsigned-square Euclidean term.
    fn q16_mult(a: i32, b: i32) -> i32 {
        (((a as i64) * (b as i64)) >> 16) as i32
    }

    /// The unsigned square equals the device's signed Q16.16 square for
    /// every difference, including the wrapping subtractions and
    /// |d| = 2³¹ that only extreme words reach: per element, and summed
    /// over a vector long enough to run the vectorized loop body.
    #[test]
    fn unsigned_square_term_equals_q16_mult_on_extreme_pairs() {
        let grid = [
            i32::MIN,
            i32::MIN + 1,
            -(1 << 30),
            -65_537,
            -65_536,
            -65_535,
            -2,
            -1,
            0,
            1,
            2,
            65_535,
            65_536,
            65_537,
            1 << 30,
            i32::MAX - 1,
            i32::MAX,
        ];
        let (mut xs, mut ys, mut sum) = (Vec::new(), Vec::new(), 0i32);
        for &x in &grid {
            for &y in &grid {
                let d = x.wrapping_sub(y);
                let term = q16_mult(d, d);
                assert_eq!(term, AluOp::Mult.eval(d, d), "twin diverges at d={d}");
                assert_eq!(
                    raw_distance(DeviceMetric::Euclidean, &[y], &[x]),
                    term,
                    "x={x} y={y}"
                );
                xs.push(x);
                ys.push(y);
                sum = sum.wrapping_add(term);
            }
        }
        assert_eq!(raw_distance(DeviceMetric::Euclidean, &ys, &xs), sum);
    }

    /// The bounded scan against its scalar twin, the full loop: with no
    /// cross-vault bound it returns exactly the full loop's entries, and
    /// with one it returns exactly the full loop's entries below it. For
    /// each metric, widths below, at and past one 16-word block, k up to
    /// a chained queue, spread and heavily tied words, and bounds at,
    /// just above and below the full loop's values.
    #[test]
    fn bounded_scan_keeps_exactly_the_full_loops_entries_below_theta() {
        let n = 40usize;
        for metric in [
            DeviceMetric::Euclidean,
            DeviceMetric::Manhattan,
            DeviceMetric::Hamming,
        ] {
            for (vw, modulus) in [(4, 65_536), (16, 65_536), (20, 4), (36, 65_536), (36, 3)] {
                let small = |w: &i32| w % modulus - modulus / 2;
                let words: Vec<i32> = lcg_words(n * vw, vw as u64).iter().map(small).collect();
                let query: Vec<i32> = lcg_words(vw, 7 + vw as u64).iter().map(small).collect();
                assert!(cannot_wrap(metric, 2 * modulus as u64, vw));
                for k in [1, 6, 17] {
                    let mut pq = HardwarePriorityQueue::chained(2);
                    let full = scan_shard(metric, &query, &words, vw, k, &mut pq).to_vec();
                    let mut thetas = vec![None, Some(0), Some(i32::MAX)];
                    for e in &full {
                        thetas.extend([Some(e.value), Some(e.value + 1)]);
                    }
                    for theta in thetas {
                        let (got, read) =
                            scan_bounded(metric, &query, &words, vw, k, theta, &mut pq);
                        let want: Vec<PqEntry> = full
                            .iter()
                            .filter(|e| theta.is_none_or(|t| e.value < t))
                            .copied()
                            .collect();
                        assert_eq!(
                            got,
                            want.as_slice(),
                            "{metric:?} vw={vw} k={k} theta={theta:?}"
                        );
                        assert!(read <= (n * vw) as u64);
                        if theta.is_none() {
                            assert!(read >= (k.min(n) * vw) as u64);
                        }
                    }
                }
            }
        }
    }

    /// The no-wrap proof at its edges: the largest per-word magnitude each
    /// metric admits at a width, and one past it.
    #[test]
    fn no_wrap_proof_admits_exactly_the_sums_that_fit() {
        let cap = i32::MAX as u64;
        // Manhattan: 100 · m ≤ cap.
        assert!(cannot_wrap(DeviceMetric::Manhattan, cap / 100, 100));
        assert!(!cannot_wrap(DeviceMetric::Manhattan, cap / 100 + 1, 100));
        // Euclidean: the largest m with 100 · ((m²) >> 16) ≤ cap.
        let fits = |m: u64| 100 * ((m * m) >> 16) <= cap;
        let guess = (((cap / 100 + 1) << 16) as f64).sqrt() as u64;
        let edge = (guess - 4..guess + 4)
            .rev()
            .find(|&m| fits(m))
            .expect("edge");
        assert!(!fits(edge + 1));
        assert!(cannot_wrap(DeviceMetric::Euclidean, edge, 100));
        assert!(!cannot_wrap(DeviceMetric::Euclidean, edge + 1, 100));
        // Full-range words fail both; a shard and a query at 2³¹ each do
        // not overflow the proof's own arithmetic.
        assert!(!cannot_wrap(DeviceMetric::Euclidean, 1 << 32, 1));
        assert!(!cannot_wrap(DeviceMetric::Manhattan, 1 << 32, 1));
        assert!(cannot_wrap(DeviceMetric::Hamming, 1 << 32, 100));
        assert!(!cannot_wrap(DeviceMetric::Cosine, 0, 1));
    }

    #[test]
    fn cosine_is_not_supported() {
        assert!(!supported(DeviceMetric::Cosine));
        assert!(supported(DeviceMetric::Euclidean));
    }
}
