//! Multi-module SSAM scaling (paper Section III-A / Fig. 3).
//!
//! "Since HMC modules can be composed together, these additional links
//! and SSAM modules allows us to scale up the capacity of the system. …
//! These external data links allow one or more HMC modules to be composed
//! to effectively form a larger network of SSAMs if data exceeds the
//! capacity of a single SSAM module. … If a kNN query must touch multiple
//! vaults, the host processor broadcasts the search across SSAM
//! processing units and performs the final set of global top-k reductions
//! on the host processor."
//!
//! The cluster splits the dataset across modules by capacity, broadcasts
//! each query over the link fabric (a daisy chain, as in Fig. 3), runs
//! every module (concurrently in the model, one after another on the
//! host), and reduces the per-module top-k on the host. Query latency is
//! therefore `broadcast + max(module time) + collection`, where the link
//! terms grow with chain depth and the result volume is `modules × k`
//! tuples — "a fraction of the original dataset size".

use std::sync::Arc;

use ssam_faults::{FaultPlan, FaultRecord, ModuleHealth};
use ssam_knn::topk::{Neighbor, TopK};
use ssam_knn::VectorStore;

use crate::sim::pu::SimError;
use crate::telemetry::{self, Phases, QueryRecord, RecordKind, Telemetry, VaultAccount};

use super::{DeviceQuery, QueryTiming, SsamConfig, SsamDevice};

/// What happened to one module during a fault-tolerant batch.
enum ModuleOutcome {
    /// The module produced results, possibly after `retries` failovers to
    /// a standby replica.
    Ran {
        per_query: Vec<(Vec<Neighbor>, QueryTiming, FaultRecord)>,
        retries: u64,
    },
    /// Degraded module skipped without dispatch (awaiting its next probe).
    Skipped,
    /// Every dispatch attempt hit a module outage; its shard is
    /// uncovered for this batch.
    Dead { attempts: u64 },
}

/// A daisy chain of SSAM modules behind one host.
#[derive(Debug, Clone)]
pub struct SsamCluster {
    modules: Vec<SsamDevice>,
    /// First global id held by each module.
    first_ids: Vec<u32>,
    vectors: usize,
    config: SsamConfig,
    telemetry: Option<Telemetry>,
    faults: Option<Arc<FaultPlan>>,
    /// Monotonic batch counter keying module-outage fault decisions.
    batch_seq: u64,
    health: Vec<ModuleHealth>,
}

/// Timing for one cluster query.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTiming {
    /// End-to-end seconds (broadcast + slowest module + collection,
    /// plus failover backoff when faults forced retries).
    pub seconds: f64,
    /// Seconds spent broadcasting the query down the chain.
    pub broadcast_seconds: f64,
    /// Slowest module's query time.
    pub module_seconds: f64,
    /// Seconds collecting per-module results back up the chain.
    pub collect_seconds: f64,
    /// Seconds of failover backoff (module-outage retries) every query in
    /// the batch waited on. Zero on the fault-free path.
    pub recovery_seconds: f64,
    /// Total energy across modules, millijoules.
    pub energy_mj: f64,
    /// Cluster-level fault accounting for this query (module outages plus
    /// the member modules' own vault-level records). Trivial without a
    /// fault plan.
    pub faults: FaultRecord,
}

impl ClusterTiming {
    /// Fraction of the dataset actually scanned for this query.
    pub fn coverage(&self) -> f64 {
        self.faults.coverage()
    }
}

impl SsamCluster {
    /// Builds a cluster of `modules` identical devices and shards `store`
    /// evenly across them.
    ///
    /// # Panics
    /// Panics if `modules == 0` or the store is empty.
    pub fn build(config: SsamConfig, modules: usize, store: &VectorStore) -> Self {
        assert!(modules > 0, "need at least one module");
        assert!(!store.is_empty(), "cannot load an empty dataset");
        let modules = modules.min(store.len());
        let per = store.len().div_ceil(modules);
        let mut devs = Vec::with_capacity(modules);
        let mut first_ids = Vec::with_capacity(modules);
        let mut next = 0usize;
        while next < store.len() {
            let count = per.min(store.len() - next);
            let ids: Vec<u32> = (next as u32..(next + count) as u32).collect();
            let sub = store.subset(&ids);
            let mut dev = SsamDevice::new(config);
            dev.load_vectors(&sub);
            devs.push(dev);
            first_ids.push(next as u32);
            next += count;
        }
        let n = devs.len();
        Self {
            modules: devs,
            first_ids,
            vectors: store.len(),
            config,
            telemetry: None,
            faults: None,
            batch_seq: 0,
            health: vec![ModuleHealth::default(); n],
        }
    }

    /// Attaches (or clears) a fault-injection plan across the whole
    /// chain. Each member module samples a decorrelated fault stream
    /// (its index is the key scope); module-outage decisions are made
    /// here, per batch, with failover to a standby replica under the
    /// plan's [`RecoveryPolicy`](ssam_faults::RecoveryPolicy). Health
    /// state resets.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        for (mi, dev) in self.modules.iter_mut().enumerate() {
            dev.set_fault_plan(plan.clone());
            dev.set_fault_scope(mi as u64);
            dev.set_fault_attempt(0);
        }
        self.faults = plan;
        self.health = vec![ModuleHealth::default(); self.modules.len()];
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Per-module degraded flags (true = health-aware dispatch is
    /// routing around the module, pending a recovery probe).
    pub fn degraded_modules(&self) -> Vec<bool> {
        self.health.iter().map(ModuleHealth::degraded).collect()
    }

    /// Attaches a telemetry sink; every subsequent query records a
    /// checked [`RecordKind::Cluster`] account (one [`VaultAccount`] per
    /// *module* — the cluster treats each module the way a module treats
    /// a vault). The member modules are not attached; attach them
    /// individually for per-vault depth.
    pub fn attach_telemetry(&mut self, sink: &Telemetry) {
        self.telemetry = Some(sink.clone());
    }

    /// Stops recording telemetry.
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// Number of modules in the chain.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }

    /// Total vectors held.
    pub fn len(&self) -> usize {
        self.vectors
    }

    /// Whether the cluster holds no data.
    pub fn is_empty(&self) -> bool {
        self.vectors == 0
    }

    /// Executes one Euclidean query across the whole cluster — the
    /// single-query special case of [`SsamCluster::query_batch`].
    ///
    /// # Errors
    /// Returns [`SimError::ZeroK`] when `k == 0`.
    pub fn query(
        &mut self,
        query: &[f32],
        k: usize,
    ) -> Result<(Vec<Neighbor>, ClusterTiming), SimError> {
        let mut out = self.query_batch(&[query], k)?;
        Ok(out.pop().expect("one result per query"))
    }

    /// Executes a batch of Euclidean queries across the whole cluster:
    /// every module runs the batch through its batched engine
    /// ([`SsamDevice::query_batch`]), then each query's per-module top-k
    /// sets are reduced on the host and charged the chain's broadcast and
    /// collection link terms.
    ///
    /// # Errors
    /// Returns [`SimError::EmptyBatch`] for an empty query slice and
    /// [`SimError::ZeroK`] for `k == 0` (typed rejections for online
    /// callers, matching
    /// [`SsamDevice::query_batch`](super::SsamDevice::query_batch)).
    pub fn query_batch(
        &mut self,
        queries: &[&[f32]],
        k: usize,
    ) -> Result<Vec<(Vec<Neighbor>, ClusterTiming)>, SimError> {
        if queries.is_empty() {
            return Err(SimError::EmptyBatch);
        }
        if k == 0 {
            return Err(SimError::ZeroK);
        }
        let first_ids = self.first_ids.clone();
        let plan = self.faults.clone();
        let batch_seq = self.batch_seq;
        self.batch_seq += 1;
        // Health-aware dispatch: a degraded module is routed around,
        // except every `probe_interval` batches when it gets a live probe
        // to detect recovery.
        let dispatch: Vec<bool> = match &plan {
            Some(p) => self
                .health
                .iter_mut()
                .map(|h| !h.route_around(&p.policy))
                .collect(),
            None => vec![true; self.modules.len()],
        };
        let outcomes: Result<Vec<ModuleOutcome>, SimError> = self
            .modules
            .iter_mut()
            .enumerate()
            .map(|(mi, dev)| {
                if !dispatch[mi] {
                    return Ok(ModuleOutcome::Skipped);
                }
                let dq: Vec<DeviceQuery<'_>> =
                    queries.iter().map(|q| DeviceQuery::Euclidean(q)).collect();
                let (attempt, up) = plan
                    .as_ref()
                    .map_or((0, true), |p| p.module_attempts(0, batch_seq, mi as u64));
                if !up {
                    return Ok(ModuleOutcome::Dead { attempts: attempt });
                }
                let batch = if attempt == 0 {
                    dev.query_batch(&dq, k)?
                } else {
                    // Failover: re-dispatch the batch on a standby replica
                    // (a clone of the module), then promote the replica to
                    // primary. The bumped attempt gives the replica a
                    // fresh — but still deterministic — fault sample.
                    let mut replica = dev.clone();
                    replica.set_fault_attempt(attempt);
                    let b = replica.query_batch(&dq, k)?;
                    *dev = replica;
                    dev.set_fault_attempt(0);
                    b
                };
                Ok(ModuleOutcome::Ran {
                    per_query: batch
                        .results
                        .into_iter()
                        .map(|r| (r.neighbors, r.timing, r.faults))
                        .collect(),
                    retries: attempt,
                })
            })
            .collect();
        let outcomes = outcomes?;

        // Health bookkeeping from this batch's outcomes: a run that needed
        // a failover counts as a miss, like a module that never came up.
        if let Some(p) = &plan {
            for (out, h) in outcomes.iter().zip(&mut self.health) {
                match out {
                    ModuleOutcome::Skipped => {}
                    ModuleOutcome::Ran { retries: 0, .. } => h.succeed(),
                    ModuleOutcome::Ran { .. } | ModuleOutcome::Dead { .. } => h.miss(&p.policy),
                }
            }
        }

        // Failover backoff (and the module-outage event tally) every
        // query in this batch waited on.
        let mut backoff_total = 0.0f64;
        let mut module_outage_events = 0u64;
        let mut failed_over = 0u64;
        if let Some(plan) = &plan {
            for out in &outcomes {
                let (retries, died) = match out {
                    ModuleOutcome::Ran { retries, .. } => (*retries, false),
                    ModuleOutcome::Dead { attempts } => (attempts - 1, true),
                    ModuleOutcome::Skipped => continue,
                };
                module_outage_events += retries + u64::from(died);
                if !died {
                    failed_over += retries;
                }
                for a in 1..=retries {
                    backoff_total += plan.policy.backoff(a as u32);
                }
            }
        }

        let depth = self.modules.len() as u64;
        let link_bw = self.config.hmc.external_bandwidth;
        let result_bytes = (self.modules.len() * k * 8) as u64;

        let mut out = Vec::with_capacity(queries.len());
        for (qi, query) in queries.iter().enumerate() {
            let mut top = TopK::new(k);
            let mut module_seconds = 0.0f64;
            let mut energy_mj = 0.0;
            let mut rec = FaultRecord::default();
            if plan.is_some() {
                rec.module_outages = module_outage_events;
                rec.failed_over = failed_over;
                rec.recovery_seconds = backoff_total;
            }
            for (mi, outcome) in outcomes.iter().enumerate() {
                let module_len = self.modules[mi].len() as u64;
                match outcome {
                    ModuleOutcome::Ran { per_query, .. } => {
                        let (neighbors, timing, mrec) = &per_query[qi];
                        for n in neighbors {
                            top.offer(first_ids[mi] + n.id, n.dist);
                        }
                        module_seconds = module_seconds.max(timing.seconds);
                        energy_mj += timing.energy_mj;
                        if plan.is_some() {
                            if mrec.is_trivial() {
                                rec.total_vectors += module_len;
                                rec.covered_vectors += module_len;
                            } else {
                                // Module-internal recovery time already
                                // sits inside `timing.seconds` (the
                                // simulate span); the cluster-level fault
                                // span is the failover backoff alone.
                                let cluster_recovery = rec.recovery_seconds;
                                rec.accumulate(mrec);
                                rec.recovery_seconds = cluster_recovery;
                            }
                        }
                    }
                    ModuleOutcome::Skipped | ModuleOutcome::Dead { .. } => {
                        rec.lost_module += 1;
                        rec.lost_units.push(mi as u32);
                        rec.total_vectors += module_len;
                    }
                }
            }

            // Link fabric: the query travels down the chain (depth hops),
            // the per-module k-tuple results travel back up; the host
            // then merges modules × k tuples.
            let query_bytes = (query.len() * 4) as u64;
            let broadcast_seconds =
                depth as f64 * ssam_hmc::packet::bulk_wire_bytes(query_bytes) as f64 / link_bw;
            let collect_wire_seconds =
                depth as f64 * ssam_hmc::packet::bulk_wire_bytes(result_bytes) as f64 / link_bw;
            let merge_seconds = (self.modules.len() * k) as f64 * 1e-9;
            let collect_seconds = collect_wire_seconds + merge_seconds;

            let timing = ClusterTiming {
                seconds: broadcast_seconds + module_seconds + collect_seconds + backoff_total,
                broadcast_seconds,
                module_seconds,
                collect_seconds,
                recovery_seconds: backoff_total,
                energy_mj,
                faults: rec,
            };

            if let Some(sink) = &self.telemetry {
                let link_seconds = broadcast_seconds + collect_wire_seconds;
                sink.record(self.cluster_record(qi, k, &outcomes, &timing, link_seconds));
            }
            out.push((top.into_sorted(), timing));
        }
        Ok(out)
    }

    /// Builds the checked telemetry record for query `qi`: one
    /// [`VaultAccount`] per *module*, with each module's end-to-end time
    /// standing in for the roofline term its own classification came
    /// from (so [`telemetry::critical_path`] over the accounts reproduces
    /// both the slowest-module span and its memory-vs-compute verdict).
    fn cluster_record(
        &self,
        qi: usize,
        k: usize,
        outcomes: &[ModuleOutcome],
        timing: &ClusterTiming,
        link_seconds: f64,
    ) -> QueryRecord {
        let mut accounts = Vec::with_capacity(outcomes.len());
        let mut total_cycles = 0u64;
        let mut total_bytes = 0u64;
        let mut pus_per_vault = 1usize;
        for (mi, outcome) in outcomes.iter().enumerate() {
            // A module that never ran (skipped or dead) contributes an
            // empty account: zero work, zero span.
            let mut account = VaultAccount {
                vault: mi,
                cycles: 0,
                bytes: 0,
                instructions: 0,
                pqueue_ops: 0,
                stack_ops: 0,
                scratchpad_accesses: 0,
                mem_seconds: 0.0,
                comp_seconds: 0.0,
                compute_bound: false,
                energy_mj: 0.0,
            };
            if let ModuleOutcome::Ran { per_query, .. } = outcome {
                let t = &per_query[qi].1;
                account.cycles = t.total_cycles;
                account.bytes = t.total_bytes;
                account.mem_seconds = if t.compute_bound { 0.0 } else { t.seconds };
                account.comp_seconds = if t.compute_bound { t.seconds } else { 0.0 };
                account.compute_bound = t.compute_bound;
                account.energy_mj = t.energy_mj;
                total_cycles += t.total_cycles;
                total_bytes += t.total_bytes;
                pus_per_vault = pus_per_vault.max(t.pus_per_vault);
            }
            accounts.push(account);
        }
        let (_, _, compute_bound) = telemetry::critical_path(&accounts).unwrap_or((0, 0.0, false));
        QueryRecord {
            seq: 0,
            kind: RecordKind::Cluster,
            label: format!("cluster[{}]", self.modules.len()),
            batch: 1,
            k,
            pus_per_vault,
            vaults: accounts,
            phases: Phases {
                stage_seconds: 0.0,
                simulate_seconds: timing.module_seconds,
                link_seconds,
                merge_seconds: (self.modules.len() * k) as f64 * 1e-9,
                fault_seconds: timing.recovery_seconds,
            },
            seconds: timing.seconds,
            compute_bound,
            total_cycles,
            total_bytes,
            energy_mj: timing.energy_mj,
            faults: timing.faults.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssam_knn::linear::knn_exact;
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

    #[test]
    fn cluster_matches_exact_search() {
        let store = random_store(600, 8, 1);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 4, &store);
        let q: Vec<f32> = store.get(222).to_vec();
        let (ns, _) = cluster.query(&q, 7).expect("runs");
        let expect: Vec<u32> = knn_exact(&store, &q, 7, Metric::Euclidean)
            .iter()
            .map(|n| n.id)
            .collect();
        let got: Vec<u32> = ns.iter().map(|n| n.id).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn cluster_matches_single_module() {
        let store = random_store(300, 6, 2);
        let q = [0.1f32; 6];
        let mut one = SsamCluster::build(SsamConfig::default(), 1, &store);
        let mut four = SsamCluster::build(SsamConfig::default(), 4, &store);
        let (n1, _) = one.query(&q, 5).expect("runs");
        let (n4, _) = four.query(&q, 5).expect("runs");
        assert_eq!(
            n1.iter().map(|n| n.id).collect::<Vec<_>>(),
            n4.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn modules_split_capacity() {
        let store = random_store(500, 4, 3);
        let cluster = SsamCluster::build(SsamConfig::default(), 4, &store);
        assert_eq!(cluster.num_modules(), 4);
        assert_eq!(cluster.len(), 500);
        let held: usize = cluster.modules.iter().map(|m| m.len()).sum();
        assert_eq!(held, 500);
    }

    #[test]
    fn more_modules_cut_per_module_time() {
        let store = random_store(1000, 16, 4);
        let q = [0.0f32; 16];
        let mut one = SsamCluster::build(SsamConfig::default(), 1, &store);
        let mut four = SsamCluster::build(SsamConfig::default(), 4, &store);
        let (_, t1) = one.query(&q, 5).expect("runs");
        let (_, t4) = four.query(&q, 5).expect("runs");
        assert!(
            t4.module_seconds < t1.module_seconds,
            "sharding across modules must shrink per-module scan time"
        );
    }

    #[test]
    fn link_terms_grow_with_chain_depth() {
        let store = random_store(400, 8, 5);
        let q = [0.0f32; 8];
        let mut two = SsamCluster::build(SsamConfig::default(), 2, &store);
        let mut eight = SsamCluster::build(SsamConfig::default(), 8, &store);
        let (_, t2) = two.query(&q, 5).expect("runs");
        let (_, t8) = eight.query(&q, 5).expect("runs");
        assert!(t8.broadcast_seconds > t2.broadcast_seconds);
        assert!(t8.collect_seconds > t2.collect_seconds);
    }

    #[test]
    fn result_traffic_is_tiny_relative_to_data() {
        // The paper's claim that external links never bottleneck: result
        // volume is modules × k tuples vs the full dataset streamed
        // internally.
        let store = random_store(800, 32, 6);
        let q = [0.0f32; 32];
        let mut cluster = SsamCluster::build(SsamConfig::default(), 4, &store);
        let (_, t) = cluster.query(&q, 10).expect("runs");
        assert!(t.broadcast_seconds + t.collect_seconds < 0.15 * t.seconds);
    }

    #[test]
    fn cluster_batch_matches_serial_loop() {
        let store = random_store(400, 6, 8);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 3, &store);
        let qs: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..6).map(|j| ((i + 2 * j) as f32 * 0.4).cos()).collect())
            .collect();
        let refs: Vec<&[f32]> = qs.iter().map(Vec::as_slice).collect();
        let batch = cluster.query_batch(&refs, 5).expect("batch runs");
        assert_eq!(batch.len(), 4);
        for (q, (neighbors, timing)) in refs.iter().zip(&batch) {
            let (sn, st) = cluster.query(q, 5).expect("serial runs");
            assert_eq!(&sn, neighbors);
            assert_eq!(&st, timing);
        }
    }

    /// Vectors on a line: vector `i` is `[0.1·i, 0, …]`, so nearest
    /// neighbors of a point are the ids around it and module boundaries
    /// fall at known ids.
    fn line_store(n: usize, dims: usize) -> VectorStore {
        let mut s = VectorStore::with_capacity(dims, n);
        for i in 0..n {
            let mut v = vec![0.0f32; dims];
            v[0] = i as f32 * 0.1;
            s.push(&v);
        }
        s
    }

    #[test]
    fn topk_straddling_a_module_boundary_remaps_global_ids() {
        let store = line_store(100, 4);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 2, &store);
        // The module boundary is at id 50; a query at 4.96 pulls its
        // top-6 from both sides, so every id from module 1 must come back
        // offset by its base (a module-local id would collide with
        // module 0's range).
        let q = [4.96f32, 0.0, 0.0, 0.0];
        let (ns, _) = cluster.query(&q, 6).expect("runs");
        let got: Vec<u32> = ns.iter().map(|n| n.id).collect();
        let expect: Vec<u32> = knn_exact(&store, &q, 6, Metric::Euclidean)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(got, expect);
        assert!(
            got.iter().any(|&id| id < 50) && got.iter().any(|&id| id >= 50),
            "top-k must straddle the boundary: {got:?}"
        );
        let unique: std::collections::HashSet<u32> = got.iter().copied().collect();
        assert_eq!(unique.len(), got.len(), "global ids must not collide");
    }

    #[test]
    fn batched_boundary_queries_remap_global_ids() {
        let store = line_store(100, 4);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 4, &store);
        // Boundaries at ids 25, 50, 75 — one query lands on each.
        let centers = [(2.46f32, 25u32), (4.96, 50), (7.46, 75)];
        let qs: Vec<Vec<f32>> = centers
            .iter()
            .map(|&(x, _)| vec![x, 0.0, 0.0, 0.0])
            .collect();
        let refs: Vec<&[f32]> = qs.iter().map(Vec::as_slice).collect();
        let batch = cluster.query_batch(&refs, 4).expect("runs");
        assert_eq!(batch.len(), 3);
        for ((q, &(_, boundary)), (ns, _)) in refs.iter().zip(&centers).zip(&batch) {
            let got: Vec<u32> = ns.iter().map(|n| n.id).collect();
            let expect: Vec<u32> = knn_exact(&store, q, 4, Metric::Euclidean)
                .iter()
                .map(|n| n.id)
                .collect();
            assert_eq!(got, expect, "boundary {boundary}");
            assert!(
                got.iter().any(|&id| id < boundary) && got.iter().any(|&id| id >= boundary),
                "top-k must straddle boundary {boundary}: {got:?}"
            );
            let unique: std::collections::HashSet<u32> = got.iter().copied().collect();
            assert_eq!(unique.len(), got.len(), "global ids must not collide");
        }
    }

    #[test]
    fn telemetry_records_checked_cluster_accounts() {
        let store = random_store(400, 6, 9);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 3, &store);
        let sink = Telemetry::default();
        cluster.attach_telemetry(&sink);
        let qs: Vec<Vec<f32>> = (0..2)
            .map(|i| (0..6).map(|j| ((i + 3 * j) as f32 * 0.3).sin()).collect())
            .collect();
        let refs: Vec<&[f32]> = qs.iter().map(Vec::as_slice).collect();
        let batch = cluster.query_batch(&refs, 5).expect("runs");
        assert_eq!(sink.len(), 2);
        assert!(
            sink.violations().is_empty(),
            "cluster accounts must self-check clean: {:?}",
            sink.violations()
        );
        for (r, (_, t)) in sink.records().iter().zip(&batch) {
            assert_eq!(r.kind, RecordKind::Cluster);
            assert_eq!(r.vaults.len(), 3, "one account per module");
            assert_eq!(r.seconds, t.seconds);
            assert_eq!(r.energy_mj, t.energy_mj);
            assert_eq!(r.phases.simulate_seconds, t.module_seconds);
            telemetry::verify_record(r).expect("record passes verification");
        }
    }

    #[test]
    fn degenerate_batches_return_typed_errors() {
        // Regression: the cluster entry point used to panic on an empty
        // batch or k == 0; both are now typed rejections.
        let store = random_store(60, 4, 10);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 2, &store);
        let empty: [&[f32]; 0] = [];
        assert_eq!(
            cluster.query_batch(&empty, 3).unwrap_err(),
            SimError::EmptyBatch
        );
        let q = [0.0f32; 4];
        assert_eq!(cluster.query_batch(&[&q], 0).unwrap_err(), SimError::ZeroK);
        assert_eq!(cluster.query(&q, 0).unwrap_err(), SimError::ZeroK);
    }

    #[test]
    fn more_modules_than_vectors_is_clamped() {
        let store = random_store(3, 4, 7);
        let mut cluster = SsamCluster::build(SsamConfig::default(), 8, &store);
        assert!(cluster.num_modules() <= 3);
        let (ns, _) = cluster.query(&[0.0; 4], 2).expect("runs");
        assert_eq!(ns.len(), 2);
    }
}
