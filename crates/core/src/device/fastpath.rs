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
//!   PU embeds), which orders entries by `(value, id)`. A vault's answer
//!   is therefore its exact top-k in that order, and [`scan_shard`]
//!   skips every candidate that order already excludes.
//!
//! So the fast path computes each candidate's raw distance host-side,
//! selects through the same priority queue, and takes the counters
//! from the cost model — producing bit-identical neighbors, stats,
//! timing, fault accounting, and telemetry at a fraction of the cost
//! (no per-instruction interpretation). The cosine kernel's software
//! division and the software-queue variants have data-dependent control
//! flow, so their counters are *not* static functions of `(program, vl,
//! n)`; those queries fall back to the cycle simulator (see
//! [`supported`]), as does anything whose synthesized counters fail to
//! resolve exactly.
//!
//! The `fastpath_equivalence` integration suite drives both executors
//! over random batches — with and without chaos fault plans, over
//! full-range words and heavily tied shards — and asserts bit-identity
//! on every observable.

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
    let mut acc = 0i32;
    match metric {
        DeviceMetric::Euclidean => {
            for (&x, &y) in cand.iter().zip(query) {
                let a = x.wrapping_sub(y).unsigned_abs() as u64;
                acc = acc.wrapping_add(((a * a) >> 16) as i32);
            }
        }
        DeviceMetric::Manhattan => {
            for (&x, &y) in cand.iter().zip(query) {
                let d = x.wrapping_sub(y);
                let m = d >> 31;
                acc = acc.wrapping_add((d ^ m).wrapping_sub(m));
            }
        }
        DeviceMetric::Hamming => {
            for (&x, &y) in cand.iter().zip(query) {
                acc = acc.wrapping_add((x ^ y).count_ones() as i32);
            }
        }
        DeviceMetric::Cosine => unreachable!("cosine has no analytic fast path"),
    }
    acc
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

    #[test]
    fn cosine_is_not_supported() {
        assert!(!supported(DeviceMetric::Cosine));
        assert!(supported(DeviceMetric::Euclidean));
    }
}
