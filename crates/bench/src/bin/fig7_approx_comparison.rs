//! **Fig. 7** — area-normalized throughput *versus accuracy* with
//! approximate indexes, SSAM against the CPU, per dataset.
//!
//! "At a 50% accuracy target we observe up to two orders of magnitude
//! throughput improvement for kd-tree, k-means, and HP-MPLSH over CPU
//! baselines."
//!
//! Methodology: the *same* index structure (identical recall) is costed
//! on both platforms. Per query the index reports its measured work —
//! candidates scanned, interior steps, buckets visited — from the real
//! traversal; the CPU model prices that work with its DDR roofline, the
//! SSAM model with simulated kernel cycles and per-vault HMC bandwidth
//! (buckets shard round-robin across vaults).

use ssam_baselines::measured::{batch_recall, batch_search};
use ssam_baselines::normalize::area_normalized_throughput;
use ssam_baselines::CpuPlatform;
use ssam_bench::{emit_telemetry, fmt, print_table, ssam_scan_cost, ExpConfig};
use ssam_core::area::module_area;
use ssam_core::telemetry::{Phases, QueryRecord, RecordKind, Telemetry, VaultAccount};
use ssam_datasets::PaperDataset;
use ssam_hmc::HmcConfig;
use ssam_knn::index::{SearchBudget, SearchIndex};
use ssam_knn::kdtree::{KdForest, KdTreeParams};
use ssam_knn::kmeans_tree::{KMeansTree, KMeansTreeParams};
use ssam_knn::mplsh::{MplshParams, MultiProbeLsh};
use ssam_knn::Metric;

const BUDGETS: [usize; 6] = [1, 4, 16, 32, 64, 128];
const VL: usize = 4;

fn main() {
    let cfg = ExpConfig::from_args(0.01);
    let hmc = HmcConfig::hmc2();
    let cpu = CpuPlatform::xeon_e5_2620();
    let ssam_area = module_area(VL).total();
    let freq = 1.0e9;
    let pus_per_vault = 4.0;
    let sink = Telemetry::default();
    let mut rows = Vec::new();

    for dataset in PaperDataset::ALL {
        let mut bench = cfg.benchmark(dataset);
        if cfg.queries.is_none() && bench.queries.len() > 40 {
            let dims = bench.queries.dims();
            let mut q = ssam_knn::VectorStore::with_capacity(dims, 40);
            for i in 0..40u32 {
                q.push(bench.queries.get(i));
            }
            bench.queries = q;
            bench.ground_truth.ids.truncate(40);
        }
        let dims = bench.train.dims();
        let k = bench.k();
        let cost = ssam_scan_cost(dims, VL);
        eprintln!(
            "[fig7] {}: scan cost {:.1} cyc/vec",
            dataset.name(),
            cost.cycles_per_vector
        );

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
                let nq = out.results.len() as f64;
                let cand = out.stats.distance_evals as f64 / nq;
                let interior = out.stats.interior_steps as f64 / nq;
                let leaves = out.stats.leaves_visited as f64 / nq;

                // CPU: DDR roofline over the candidate stream + traversal.
                let cpu_t = cpu.approx_seconds_per_query(cand, interior, dims);
                let cpu_norm = area_normalized_throughput(1.0 / cpu_t, cpu.area_mm2_28nm());

                // SSAM: buckets spread round-robin over vaults; engaged
                // bandwidth grows with buckets touched. Traversal runs on
                // the scalar datapath at ~6 cycles/step.
                let engaged = leaves.min(hmc.vaults as f64).max(1.0);
                let bytes = cand * cost.bytes_per_vector;
                let mem_t = bytes / (engaged * hmc.vault_bandwidth);
                let comp_t = cand * cost.cycles_per_vector / (engaged * pus_per_vault * freq);
                let trav_t = interior * 6.0 / freq;
                let ssam_t = mem_t.max(comp_t) + trav_t + 2e-7;
                let ssam_norm = area_normalized_throughput(1.0 / ssam_t, ssam_area);

                if cfg.telemetry.is_some() {
                    // No full simulation behind this row, so the record
                    // is a single aggregate account over the engaged
                    // vaults; the scalar traversal rides in the merge
                    // span, the fixed dispatch allowance in the link
                    // span. It still passes every `verify_record` check.
                    let cycles = (cand * cost.cycles_per_vector).round() as u64;
                    let bytes = bytes.round() as u64;
                    let compute_bound = comp_t > mem_t;
                    sink.record(QueryRecord {
                        seq: 0,
                        kind: RecordKind::Modeled,
                        label: format!("{}/{name}@{budget}", dataset.name()),
                        batch: 1,
                        k,
                        pus_per_vault: pus_per_vault as usize,
                        vaults: vec![VaultAccount {
                            vault: 0,
                            cycles,
                            bytes,
                            instructions: 0,
                            pqueue_ops: 0,
                            stack_ops: 0,
                            scratchpad_accesses: 0,
                            mem_seconds: mem_t,
                            comp_seconds: comp_t,
                            compute_bound,
                            energy_mj: 0.0,
                        }],
                        phases: Phases {
                            stage_seconds: 0.0,
                            simulate_seconds: mem_t.max(comp_t),
                            link_seconds: 2e-7,
                            merge_seconds: trav_t,
                            fault_seconds: 0.0,
                        },
                        faults: ssam_core::telemetry::FaultRecord::default(),
                        seconds: ssam_t,
                        compute_bound,
                        total_cycles: cycles,
                        total_bytes: bytes,
                        energy_mj: 0.0,
                    });
                }

                rows.push(vec![
                    dataset.name().into(),
                    name.into(),
                    budget.to_string(),
                    format!("{recall:.3}"),
                    fmt(cpu_norm),
                    fmt(ssam_norm),
                    format!("{:.1}", ssam_norm / cpu_norm),
                ]);
            }
        }
    }

    println!("\nFig. 7 — area-normalized throughput vs accuracy, SSAM-{VL} vs CPU");
    print_table(
        cfg.csv,
        &[
            "dataset",
            "algorithm",
            "budget",
            "recall",
            "CPU q/s/mm^2",
            "SSAM q/s/mm^2",
            "SSAM/CPU",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: ~two orders of magnitude SSAM advantage at the 50%\n\
         recall target, persisting across the accuracy sweep; kd-tree and\n\
         k-means stay distance-calculation-dominated, MPLSH is hash-bound at\n\
         small budgets."
    );
    emit_telemetry(&cfg, &sink);
}
