//! Regenerates the paper's figures as SVG files under
//! `results/figures/`: Fig. 2 (CPU throughput vs accuracy), Fig. 6a/6b
//! (platform comparison bars), and Fig. 7 (SSAM vs CPU vs accuracy).
//!
//! ```text
//! cargo run -p ssam-bench --release --bin make_figures [-- --scale 0.005]
//! ```

use std::fs;
use std::path::PathBuf;

use ssam_baselines::measured::{batch_recall, batch_search};
use ssam_baselines::normalize::area_normalized_throughput;
use ssam_baselines::{CpuPlatform, FpgaPlatform, GpuPlatform, ScanWorkload};
use ssam_bench::svg::{grouped_bar_chart, line_chart, PlotSpec, Series};
use ssam_bench::{ssam_linear_estimate, ssam_scan_cost, ssam_with, ExpConfig};
use ssam_core::area::module_area;
use ssam_core::isa::VECTOR_LENGTHS;
use ssam_datasets::{Benchmark, PaperDataset};
use ssam_hmc::HmcConfig;
use ssam_knn::index::{SearchBudget, SearchIndex};
use ssam_knn::kdtree::{KdForest, KdTreeParams};
use ssam_knn::kmeans_tree::{KMeansTree, KMeansTreeParams};
use ssam_knn::mplsh::{MplshParams, MultiProbeLsh};
use ssam_knn::Metric;

const BUDGETS: [usize; 7] = [1, 2, 4, 8, 16, 64, 128];

fn indexes(bench: &Benchmark) -> Vec<(&'static str, Box<dyn SearchIndex>)> {
    let bits = ((bench.train.len() as f64 / 8.0).log2().ceil() as usize).clamp(8, 20);
    vec![
        (
            "kd-tree",
            Box::new(KdForest::build(
                &bench.train,
                Metric::Euclidean,
                KdTreeParams {
                    trees: 4,
                    leaf_size: 32,
                    seed: 7,
                },
            )) as Box<dyn SearchIndex>,
        ),
        (
            "k-means",
            Box::new(KMeansTree::build(
                &bench.train,
                Metric::Euclidean,
                KMeansTreeParams {
                    branching: 16,
                    leaf_size: 64,
                    max_height: 10,
                    kmeans_iters: 6,
                    seed: 7,
                },
            )),
        ),
        (
            "MPLSH",
            Box::new(MultiProbeLsh::build(
                &bench.train,
                Metric::Euclidean,
                MplshParams {
                    tables: 8,
                    hash_bits: bits,
                    seed: 7,
                },
            )),
        ),
    ]
}

fn main() {
    let cfg = ExpConfig::from_args(0.005);
    let out_dir = PathBuf::from("results/figures");
    fs::create_dir_all(&out_dir).expect("create output directory");
    let mut written = Vec::new();

    // ---- Fig. 2: per-dataset throughput vs accuracy on the CPU ----
    for dataset in PaperDataset::ALL {
        let mut bench = cfg.benchmark(dataset);
        cap_queries(&mut bench, cfg.queries.unwrap_or(30));
        let k = bench.k();
        eprintln!("[fig2] {}", dataset.name());
        let mut series = Vec::new();
        for (name, index) in indexes(&bench) {
            let mut points = Vec::new();
            for budget in BUDGETS {
                let out = batch_search(
                    index.as_ref(),
                    &bench.train,
                    &bench.queries,
                    k,
                    SearchBudget::checks(budget),
                );
                points.push((batch_recall(&out, &bench.ground_truth.ids), out.qps));
            }
            series.push(Series {
                label: name.into(),
                points,
            });
        }
        let lin = batch_search(
            &ssam_knn::linear::LinearSearch::new(Metric::Euclidean),
            &bench.train,
            &bench.queries,
            k,
            SearchBudget::unlimited(),
        );
        series.push(Series {
            label: "linear".into(),
            points: vec![(0.0, lin.qps), (1.0, lin.qps)],
        });
        let svg = line_chart(
            &PlotSpec {
                title: format!("Fig. 2 — {} (scale {})", dataset.name(), cfg.scale),
                x_label: "recall".into(),
                y_label: "queries/s (log)".into(),
                ..PlotSpec::default()
            },
            &series,
        );
        written.push(write(
            &out_dir,
            &format!("fig2_{}.svg", dataset.name().to_lowercase()),
            &svg,
        ));
    }

    // ---- Fig. 6a/6b: platform comparison bars ----
    let groups: Vec<String> = PaperDataset::ALL
        .iter()
        .map(|d| d.name().to_string())
        .collect();
    let mut tput: Vec<(String, Vec<f64>)> = Vec::new();
    let mut eff: Vec<(String, Vec<f64>)> = Vec::new();
    let cpu = CpuPlatform::xeon_e5_2620();
    let gpu = GpuPlatform::titan_x();
    type PlatformFn = Box<dyn Fn(&ScanWorkload) -> (f64, f64)>;
    let mut platform_rows: Vec<(String, PlatformFn)> = vec![
        (
            "CPU".into(),
            Box::new(move |w| {
                (
                    area_normalized_throughput(cpu.linear_throughput(w), cpu.area_mm2_28nm()),
                    cpu.linear_queries_per_joule(w),
                )
            }),
        ),
        (
            "GPU".into(),
            Box::new(move |w| {
                (
                    area_normalized_throughput(gpu.linear_throughput(w), gpu.area_mm2_28nm()),
                    gpu.linear_queries_per_joule(w),
                )
            }),
        ),
        (
            "FPGA-16".into(),
            Box::new(move |w| {
                let f = FpgaPlatform::kintex7(16);
                (
                    area_normalized_throughput(f.linear_throughput(w), f.area_mm2_28nm()),
                    f.linear_queries_per_joule(w),
                )
            }),
        ),
    ];
    for (name, f) in platform_rows.drain(..) {
        let mut t_col = Vec::new();
        let mut e_col = Vec::new();
        for dataset in PaperDataset::ALL {
            let spec = dataset.spec().scaled(cfg.scale.min(0.002));
            let w = ScanWorkload::dense(spec.train, spec.dims);
            let (t, e) = f(&w);
            t_col.push(t);
            e_col.push(e);
        }
        tput.push((name.clone(), t_col));
        eff.push((name, e_col));
    }
    for &vl in &VECTOR_LENGTHS {
        let mut t_col = Vec::new();
        let mut e_col = Vec::new();
        for dataset in PaperDataset::ALL {
            eprintln!("[fig6] {} SSAM-{vl}", dataset.name());
            let bench = Benchmark::paper(dataset, cfg.scale.min(0.002));
            let mut dev = ssam_with(&bench.train, vl);
            let (qps, mj) = ssam_linear_estimate(&mut dev, &bench, 2);
            t_col.push(area_normalized_throughput(qps, module_area(vl).total()));
            e_col.push(1000.0 / mj);
        }
        tput.push((format!("SSAM-{vl}"), t_col));
        eff.push((format!("SSAM-{vl}"), e_col));
    }
    let svg = grouped_bar_chart(
        &PlotSpec {
            title: "Fig. 6a — area-normalized throughput (q/s/mm², log)".into(),
            y_label: "queries/s/mm²".into(),
            width: 840,
            ..PlotSpec::default()
        },
        &groups,
        &tput,
    );
    written.push(write(&out_dir, "fig6a_throughput.svg", &svg));
    let svg = grouped_bar_chart(
        &PlotSpec {
            title: "Fig. 6b — energy efficiency (queries/J, log)".into(),
            y_label: "queries/J".into(),
            width: 840,
            ..PlotSpec::default()
        },
        &groups,
        &eff,
    );
    written.push(write(&out_dir, "fig6b_energy.svg", &svg));

    // ---- Fig. 7: SSAM vs CPU area-normalized throughput vs accuracy ----
    let hmc = HmcConfig::hmc2();
    for dataset in PaperDataset::ALL {
        let mut bench = cfg.benchmark(dataset);
        cap_queries(&mut bench, cfg.queries.unwrap_or(30));
        let dims = bench.train.dims();
        let k = bench.k();
        eprintln!("[fig7] {}", dataset.name());
        let cost = ssam_scan_cost(dims, 4);
        let mut series = Vec::new();
        for (name, index) in indexes(&bench) {
            let mut cpu_pts = Vec::new();
            let mut ssam_pts = Vec::new();
            for budget in BUDGETS {
                let out = batch_search(
                    index.as_ref(),
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
                let cpu_t = cpu.approx_seconds_per_query(cand, interior, dims);
                cpu_pts.push((
                    recall,
                    area_normalized_throughput(1.0 / cpu_t, cpu.area_mm2_28nm()),
                ));
                let engaged = leaves.min(hmc.vaults as f64).max(1.0);
                let mem_t = cand * cost.bytes_per_vector / (engaged * hmc.vault_bandwidth);
                let comp_t = cand * cost.cycles_per_vector / (engaged * 4.0 * 1.0e9);
                let t = mem_t.max(comp_t) + interior * 6.0 / 1.0e9 + 2e-7;
                ssam_pts.push((
                    recall,
                    area_normalized_throughput(1.0 / t, module_area(4).total()),
                ));
            }
            series.push(Series {
                label: format!("{name} (CPU)"),
                points: cpu_pts,
            });
            series.push(Series {
                label: format!("{name} (SSAM)"),
                points: ssam_pts,
            });
        }
        let svg = line_chart(
            &PlotSpec {
                title: format!("Fig. 7 — {} (scale {})", dataset.name(), cfg.scale),
                x_label: "recall".into(),
                y_label: "queries/s/mm² (log)".into(),
                width: 780,
                ..PlotSpec::default()
            },
            &series,
        );
        written.push(write(
            &out_dir,
            &format!("fig7_{}.svg", dataset.name().to_lowercase()),
            &svg,
        ));
    }

    println!("wrote {} figures:", written.len());
    for p in written {
        println!("  {}", p.display());
    }
}

fn cap_queries(bench: &mut Benchmark, cap: usize) {
    if cap < bench.queries.len() {
        let dims = bench.queries.dims();
        let mut q = ssam_knn::VectorStore::with_capacity(dims, cap);
        for i in 0..cap as u32 {
            q.push(bench.queries.get(i));
        }
        bench.queries = q;
        bench.ground_truth.ids.truncate(cap);
    }
}

fn write(dir: &std::path::Path, name: &str, svg: &str) -> PathBuf {
    let path = dir.join(name);
    fs::write(&path, svg).expect("write figure");
    path
}
