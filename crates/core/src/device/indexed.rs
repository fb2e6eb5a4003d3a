//! Indexed SSAM device: on-accelerator kd-tree traversal per vault.
//!
//! Section III-D: "any indexing data structures are also written to the
//! scratchpad memory or larger DRAM prior to executing any queries …
//! if hierarchical indexing structures do not fit in the scratchpad, they
//! are partitioned such that the top half of the hierarchy resides in
//! scratchpad". This module implements the in-scratchpad case: each
//! vault's shard gets its own kd-tree laid into the scratchpad region,
//! buckets stored contiguously in the vault's DRAM, and queries run the
//! stack-unit traversal kernel with a per-vault leaf budget — the
//! accelerated analogue of the CPU indexes' `SearchBudget`.
//!
//! The index is staged *once*: each vault keeps a warm [`ProcessingUnit`]
//! whose scratchpad already holds the tree image, so repeated queries
//! only reset architectural state and rewrite the query block — exactly
//! the paper's "written … prior to executing any queries" protocol.

use std::sync::{Arc, Mutex};

use ssam_knn::fixed::Fix32;
use ssam_knn::topk::{Neighbor, TopK};
use ssam_knn::VectorStore;

use crate::isa::inst::Instruction;
use crate::isa::PQUEUE_DEPTH;
use crate::kernels::traversal::{build_tree_image, image_id_order, kdtree_euclidean, TREE_ADDR};
use crate::kernels::Kernel;
use crate::sim::pu::{ProcessingUnit, RunStats, SimError};
use crate::telemetry::{self, Phases, QueryRecord, RecordKind, Telemetry, VaultAccount};

use super::{QueryTiming, SsamConfig};

/// One vault's staged index: tree image + id remapping.
#[derive(Debug, Clone)]
struct IndexedShard {
    dram: Arc<Vec<i32>>,
    spad_tree: Vec<i32>,
    root_addr: u32,
    /// Image position → global id.
    id_order: Vec<u32>,
    vectors: usize,
}

/// A SSAM device whose vaults each hold a scratchpad-resident kd-tree
/// over their shard.
#[derive(Debug)]
pub struct IndexedSsamDevice {
    config: SsamConfig,
    shards: Vec<IndexedShard>,
    kernel: Kernel,
    /// Shared instruction image, staged once and reused by every PU.
    program: Arc<Vec<Instruction>>,
    /// Warm PU per vault. A populated slot still holds the shard's tree
    /// image in its scratchpad, so a query only rewrites the query block.
    pu_cache: Vec<Mutex<Option<ProcessingUnit>>>,
    telemetry: Option<Telemetry>,
    vec_words: usize,
    dims: usize,
    vectors: usize,
    leaf_size: usize,
}

impl Clone for IndexedSsamDevice {
    /// Clones share the staged data and instruction image but start with
    /// cold PU caches (a [`ProcessingUnit`] is cheap to re-stage and the
    /// caches are query-scratch state, not index state).
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            shards: self.shards.clone(),
            kernel: self.kernel.clone(),
            program: Arc::clone(&self.program),
            pu_cache: self.shards.iter().map(|_| Mutex::new(None)).collect(),
            telemetry: self.telemetry.clone(),
            vec_words: self.vec_words,
            dims: self.dims,
            vectors: self.vectors,
            leaf_size: self.leaf_size,
        }
    }
}

impl IndexedSsamDevice {
    /// Builds per-vault kd-trees over `store` and stages them.
    ///
    /// # Panics
    /// Panics if the store is empty, or a shard's tree exceeds its
    /// scratchpad region (raise `leaf_size` or dataset sharding width).
    pub fn build(config: SsamConfig, store: &VectorStore, leaf_size: usize) -> Self {
        assert!(!store.is_empty(), "cannot index an empty dataset");
        let leaf_size = leaf_size.max(1);
        let vl = config.vector_length;
        let dims = store.dims();
        let vaults = config.hmc.vaults.min(store.len());
        let per = store.len().div_ceil(vaults);

        let mut shards = Vec::with_capacity(vaults);
        let mut next = 0usize;
        while next < store.len() {
            let count = per.min(store.len() - next);
            let ids: Vec<u32> = (next as u32..(next + count) as u32).collect();
            let sub = store.subset(&ids);
            let img = build_tree_image(&sub, leaf_size, vl);
            let order = image_id_order(&sub, leaf_size);
            shards.push(IndexedShard {
                dram: Arc::new(img.dram_words),
                spad_tree: img.spad_words,
                root_addr: img.root_addr,
                id_order: order.into_iter().map(|local| next as u32 + local).collect(),
                vectors: count,
            });
            next += count;
        }

        let kernel = kdtree_euclidean(dims, vl, leaf_size);
        let vec_words = kernel.layout.vec_words;
        let program = Arc::new(if config.optimize_kernels {
            kernel.program.clone()
        } else {
            kernel.raw_program.clone()
        });
        let pu_cache = shards.iter().map(|_| Mutex::new(None)).collect();
        Self {
            config,
            shards,
            kernel,
            program,
            pu_cache,
            telemetry: None,
            vec_words,
            dims,
            vectors: store.len(),
            leaf_size,
        }
    }

    /// Vectors indexed.
    pub fn len(&self) -> usize {
        self.vectors
    }

    /// Whether the device holds no data.
    pub fn is_empty(&self) -> bool {
        self.vectors == 0
    }

    /// Leaf capacity used at build time.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// Attaches a telemetry sink; every subsequent [`Self::query`]
    /// records a checked [`RecordKind::Indexed`] account into it.
    pub fn attach_telemetry(&mut self, sink: &Telemetry) {
        self.telemetry = Some(sink.clone());
    }

    /// Stops recording telemetry.
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// Approximate kNN: every vault traverses its tree near-first and
    /// scans up to `leaf_budget` buckets; the host merges per-vault
    /// results. Larger budgets converge on exact search (the Fig. 2
    /// trade-off running *on the accelerator*).
    pub fn query(
        &self,
        query: &[f32],
        k: usize,
        leaf_budget: usize,
    ) -> Result<(Vec<Neighbor>, QueryTiming, Vec<RunStats>), SimError> {
        assert_eq!(query.len(), self.dims, "query dimensionality mismatch");
        assert!(k > 0, "k must be positive");
        let vl = self.config.vector_length;
        let mut q: Vec<i32> = query.iter().map(|&x| Fix32::from_f32(x).0).collect();
        q.resize(self.vec_words, 0);
        let budget = leaf_budget.max(1).min(i32::MAX as usize) as i32;
        let pq_chain = k.div_ceil(PQUEUE_DEPTH);
        let vec_words = self.vec_words;

        let results: Result<Vec<(Vec<Neighbor>, RunStats)>, SimError> = self
            .shards
            .iter()
            .zip(&self.pu_cache)
            .map(|(shard, slot)| {
                let mut slot = slot.lock().expect("PU cache lock poisoned");
                let mut pu = match slot.take() {
                    // Warm path: the scratchpad still holds the tree
                    // image, so only architectural state is reset and
                    // only the query block is rewritten below.
                    Some(mut pu) => {
                        pu.reset_state();
                        pu
                    }
                    None => {
                        let mut pu = ProcessingUnit::new(vl, Arc::clone(&shard.dram));
                        pu.load_program(Arc::clone(&self.program));
                        pu.scratchpad_mut()
                            .write_block(TREE_ADDR, &shard.spad_tree)
                            .expect("tree fits scratchpad");
                        pu
                    }
                };
                pu.chain_pqueue(pq_chain);
                pu.scratchpad_mut().write_block(0, &q).expect("query fits");
                pu.set_sreg(20, budget);
                pu.set_sreg(21, shard.root_addr as i32);
                let per_vec = 16 * vec_words as u64 + 2048;
                let cap = 10_000u64 + shard.vectors as u64 * per_vec;
                let stats = pu.run(cap)?;
                let neighbors = pu
                    .pqueue()
                    .entries()
                    .iter()
                    .take(k)
                    .map(|e| Neighbor::new(shard.id_order[e.id as usize], Fix32(e.value).to_f32()))
                    .collect();
                *slot = Some(pu);
                Ok((neighbors, stats))
            })
            .collect();
        let results = results?;

        let mut top = TopK::new(k);
        for (ns, _) in &results {
            for n in ns {
                top.offer(n.id, n.dist);
            }
        }
        let stats: Vec<RunStats> = results.iter().map(|(_, s)| *s).collect();
        let (timing, accounts, phases) = self.account_query(&stats, k);
        if let Some(sink) = &self.telemetry {
            sink.record(QueryRecord {
                seq: 0,
                kind: RecordKind::Indexed,
                label: self.kernel.name.clone(),
                batch: 1,
                k,
                pus_per_vault: timing.pus_per_vault,
                vaults: accounts,
                phases,
                seconds: timing.seconds,
                compute_bound: timing.compute_bound,
                total_cycles: timing.total_cycles,
                total_bytes: timing.total_bytes,
                energy_mj: timing.energy_mj,
                // The indexed engine has no fault hooks (yet): its
                // records carry a trivial fault account.
                faults: ssam_faults::FaultRecord::default(),
            });
        }
        Ok((top.into_sorted(), timing, stats))
    }

    /// Timing-only view of [`Self::account_query`] (test seam for the
    /// classification regression tests).
    #[cfg(test)]
    fn derive_timing(&self, vault_stats: &[RunStats], k: usize) -> QueryTiming {
        self.account_query(vault_stats, k).0
    }

    /// Derives the query account: the summary [`QueryTiming`] plus the
    /// per-vault [`VaultAccount`]s and phase spans backing it.
    ///
    /// Index traversals engage one PU per vault (the traversal is serial;
    /// the bucket scans are short). The memory-vs-compute classification
    /// comes from [`telemetry::critical_path`] — the vault that actually
    /// sets the critical path, with strictly-greater keeping the first
    /// argmax on ties — not from whichever vault happened to be scanned
    /// last.
    fn account_query(
        &self,
        vault_stats: &[RunStats],
        k: usize,
    ) -> (QueryTiming, Vec<VaultAccount>, Phases) {
        let cfg = &self.config;
        let mut vaults: Vec<VaultAccount> = vault_stats
            .iter()
            .enumerate()
            .map(|(i, s)| VaultAccount::from_stats(i, s, cfg.hmc.vault_bandwidth, cfg.freq_hz, 1))
            .collect();
        let (_, worst, compute_bound) =
            telemetry::critical_path(&vaults).unwrap_or((0, 0.0, false));

        let result_bytes = (vault_stats.len() * k * 8) as u64;
        let link_t =
            ssam_hmc::packet::bulk_wire_bytes(result_bytes) as f64 / cfg.hmc.external_bandwidth;
        let merge_t = (vault_stats.len() * k) as f64 * 1e-9;
        let seconds = worst + link_t + merge_t;

        let mut energy_mj = 0.0;
        let mut total_cycles = 0u64;
        let mut total_bytes = 0u64;
        for (v, s) in vaults.iter_mut().zip(vault_stats) {
            let act = crate::energy::Activity::from_stats(s);
            v.energy_mj = crate::energy::effective_power(cfg.vector_length, &act) * seconds;
            energy_mj += v.energy_mj;
            total_cycles += s.cycles;
            total_bytes += s.dram.bytes_read;
        }

        let timing = QueryTiming {
            seconds,
            pus_per_vault: 1,
            compute_bound,
            total_cycles,
            total_bytes,
            energy_mj,
        };
        let phases = Phases {
            stage_seconds: 0.0,
            simulate_seconds: worst,
            link_seconds: link_t,
            merge_seconds: merge_t,
            fault_seconds: 0.0,
        };
        (timing, vaults, phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssam_knn::linear::knn_exact;
    use ssam_knn::recall::recall;
    use ssam_knn::Metric;

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

    fn config() -> SsamConfig {
        SsamConfig::default()
    }

    /// A vault stat with the given DRAM traffic and cycle count — the
    /// two axes of the roofline classification.
    fn stat(bytes: u64, cycles: u64) -> RunStats {
        let mut s = RunStats {
            cycles,
            ..Default::default()
        };
        s.dram.bytes_read = bytes;
        s
    }

    #[test]
    fn unlimited_budget_matches_exact_search() {
        let store = random_store(400, 8, 1);
        let dev = IndexedSsamDevice::build(config(), &store, 16);
        let q: Vec<f32> = store.get(123).to_vec();
        let (ns, _, _) = dev.query(&q, 6, usize::MAX).expect("runs");
        let expect = knn_exact(&store, &q, 6, Metric::Euclidean);
        let got: Vec<u32> = ns.iter().map(|n| n.id).collect();
        let want: Vec<u32> = expect.iter().map(|n| n.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn budget_trades_accuracy_for_work() {
        let store = random_store(800, 6, 2);
        let dev = IndexedSsamDevice::build(config(), &store, 16);
        let mut rng = StdRng::seed_from_u64(3);
        let (mut rec_lo, mut rec_hi) = (0.0, 0.0);
        let (mut cyc_lo, mut cyc_hi) = (0u64, 0u64);
        for _ in 0..10 {
            let q: Vec<f32> = (0..6).map(|_| rng.random_range(-1.0..1.0)).collect();
            let exact = knn_exact(&store, &q, 5, Metric::Euclidean);
            let (lo, t_lo, _) = dev.query(&q, 5, 1).expect("runs");
            let (hi, t_hi, _) = dev.query(&q, 5, 64).expect("runs");
            rec_lo += recall(&exact, &lo);
            rec_hi += recall(&exact, &hi);
            cyc_lo += t_lo.total_cycles;
            cyc_hi += t_hi.total_cycles;
        }
        assert!(
            rec_hi >= rec_lo,
            "recall did not improve: {rec_lo} vs {rec_hi}"
        );
        assert!(cyc_lo < cyc_hi, "budget must control work");
    }

    #[test]
    fn self_queries_are_found_at_tiny_budget() {
        let store = random_store(300, 5, 4);
        let dev = IndexedSsamDevice::build(config(), &store, 16);
        for id in [0u32, 150, 299] {
            let q: Vec<f32> = store.get(id).to_vec();
            let (ns, _, _) = dev.query(&q, 1, 1).expect("runs");
            assert_eq!(ns[0].id, id, "near-first descent must find the home bucket");
        }
    }

    #[test]
    fn traversal_uses_the_stack_everywhere() {
        let store = random_store(500, 4, 5);
        let dev = IndexedSsamDevice::build(config(), &store, 8);
        let (_, _, stats) = dev.query(&[0.0; 4], 3, 4).expect("runs");
        assert!(stats.iter().all(|s| s.stack_ops > 0));
    }

    #[test]
    fn indexed_query_reads_less_dram_than_full_scan() {
        // Budgets are per vault, so the scan floor is vaults × budget ×
        // leaf_size vectors; size the dataset well above it.
        let store = random_store(4000, 8, 6);
        let dev = IndexedSsamDevice::build(config(), &store, 8);
        let (_, t, _) = dev.query(&[0.1; 8], 5, 1).expect("runs");
        let full_bytes = (4000 * dev.vec_words * 4) as u64;
        assert!(
            t.total_bytes < full_bytes / 3,
            "{} vs {}",
            t.total_bytes,
            full_bytes
        );
    }

    #[test]
    fn works_across_vector_lengths() {
        let store = random_store(200, 7, 7);
        let q: Vec<f32> = (0..7).map(|i| 0.1 * i as f32).collect();
        let expect: Vec<u32> = knn_exact(&store, &q, 4, Metric::Euclidean)
            .iter()
            .map(|n| n.id)
            .collect();
        for vl in [2usize, 4, 8, 16] {
            let dev = IndexedSsamDevice::build(
                SsamConfig {
                    vector_length: vl,
                    ..SsamConfig::default()
                },
                &store,
                16,
            );
            let (ns, _, _) = dev.query(&q, 4, usize::MAX).expect("runs");
            let got: Vec<u32> = ns.iter().map(|n| n.id).collect();
            assert_eq!(got, expect, "VL={vl}");
        }
    }

    // With the default config: vault_bandwidth = 10 GB/s, freq = 1 GHz,
    // and the indexed path always engages one PU, so
    // mem_t = bytes / 10e9 and comp_t = cycles / 1e9.

    #[test]
    fn compute_bound_tracks_memory_bound_critical_vault() {
        let store = random_store(64, 4, 10);
        let dev = IndexedSsamDevice::build(config(), &store, 16);
        // Vault 0 dominates (mem_t = 1e-4) and is memory-bound; vault 1
        // is compute-bound but far off the critical path.
        let stats = [stat(1_000_000, 10), stat(8, 1_000)];
        let t = dev.derive_timing(&stats, 4);
        assert!(
            !t.compute_bound,
            "critical vault is memory-bound; query must classify memory-bound"
        );
    }

    #[test]
    fn compute_bound_tracks_compute_bound_critical_vault() {
        let store = random_store(64, 4, 11);
        let dev = IndexedSsamDevice::build(config(), &store, 16);
        // Vault 0 dominates (comp_t = 1e-3) and is compute-bound; vault 1
        // is memory-bound but negligible. The pre-fix classifier let any
        // memory-bound vault flip the whole query to memory-bound.
        let stats = [stat(8, 1_000_000), stat(10_000, 10)];
        let t = dev.derive_timing(&stats, 4);
        assert!(
            t.compute_bound,
            "critical vault is compute-bound; query must classify compute-bound"
        );
    }

    #[test]
    fn compute_bound_ties_resolve_to_first_critical_vault() {
        let store = random_store(64, 4, 12);
        let dev = IndexedSsamDevice::build(config(), &store, 16);
        // Both vaults hit exactly 1e-5 s of critical time; vault 0 is
        // compute-bound, vault 1 memory-bound. First argmax wins.
        let stats = [stat(0, 10_000), stat(100_000, 10)];
        let t = dev.derive_timing(&stats, 4);
        assert!(
            t.compute_bound,
            "tie must resolve to the first critical vault's classification"
        );

        // And symmetrically with the memory-bound vault first.
        let stats = [stat(100_000, 10), stat(0, 10_000)];
        let t = dev.derive_timing(&stats, 4);
        assert!(
            !t.compute_bound,
            "tie must resolve to the first critical vault's classification"
        );
    }

    #[test]
    fn warm_pu_reuse_is_bit_identical_to_cold_staging() {
        let store = random_store(600, 6, 8);
        let warm = IndexedSsamDevice::build(config(), &store, 16);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..5 {
            let q: Vec<f32> = (0..6).map(|_| rng.random_range(-1.0..1.0)).collect();
            // A clone starts with cold PU caches, so it restages the full
            // tree image like the original one-shot path did.
            let cold = warm.clone();
            let (nw, tw, sw) = warm.query(&q, 4, 8).expect("warm query");
            let (nc, tc, sc) = cold.query(&q, 4, 8).expect("cold query");
            assert_eq!(nw, nc, "query {i}: neighbors diverge");
            assert_eq!(sw, sc, "query {i}: per-vault stats diverge");
            assert_eq!(tw, tc, "query {i}: timing diverges");
        }
    }

    #[test]
    fn varying_k_between_queries_rechains_the_pqueue() {
        let store = random_store(300, 5, 13);
        let dev = IndexedSsamDevice::build(config(), &store, 16);
        let q: Vec<f32> = store.get(42).to_vec();
        // Deep k first (chains queues), then shallow k on the warm PUs.
        let (deep, _, _) = dev.query(&q, 20, usize::MAX).expect("deep");
        let (shallow, _, _) = dev.query(&q, 3, usize::MAX).expect("shallow");
        let expect: Vec<u32> = knn_exact(&store, &q, 3, Metric::Euclidean)
            .iter()
            .map(|n| n.id)
            .collect();
        let got: Vec<u32> = shallow.iter().map(|n| n.id).collect();
        assert_eq!(got, expect);
        assert_eq!(deep.len(), 20);
    }

    #[test]
    fn telemetry_records_checked_indexed_accounts() {
        let store = random_store(500, 6, 14);
        let mut dev = IndexedSsamDevice::build(config(), &store, 16);
        let sink = Telemetry::default();
        dev.attach_telemetry(&sink);
        let mut rng = StdRng::seed_from_u64(15);
        let mut timings = Vec::new();
        for _ in 0..3 {
            let q: Vec<f32> = (0..6).map(|_| rng.random_range(-1.0..1.0)).collect();
            let (_, t, _) = dev.query(&q, 5, 4).expect("runs");
            timings.push(t);
        }
        assert_eq!(sink.len(), 3);
        assert!(
            sink.violations().is_empty(),
            "indexed accounts must self-check clean: {:?}",
            sink.violations()
        );
        for (r, t) in sink.records().iter().zip(&timings) {
            assert_eq!(r.kind, RecordKind::Indexed);
            assert_eq!(r.pus_per_vault, 1);
            assert_eq!(r.seconds, t.seconds);
            assert_eq!(r.total_cycles, t.total_cycles);
            assert_eq!(r.total_bytes, t.total_bytes);
            assert_eq!(r.energy_mj, t.energy_mj);
            assert_eq!(r.compute_bound, t.compute_bound);
            assert!(r.label.starts_with("kdtree_euclidean"));
            telemetry::verify_record(r).expect("record passes verification");
        }
    }
}
