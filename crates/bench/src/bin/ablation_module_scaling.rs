//! **§III-A demonstration** — scaling capacity with chained SSAM modules.
//!
//! "Since HMC modules can be composed together, these additional links
//! and SSAM modules allows us to scale up the capacity of the system."
//!
//! Holds the dataset fixed and sweeps the module count: per-module scan
//! time shrinks with the shard, link costs grow with chain depth, and the
//! host reduce stays negligible — the fabric "consist\[s\] of kNN results
//! which are a fraction of the original dataset size".

use ssam_bench::{fmt, print_table, ExpConfig};
use ssam_core::device::cluster::SsamCluster;
use ssam_core::device::SsamConfig;
use ssam_datasets::PaperDataset;

fn main() {
    let cfg = ExpConfig::from_args(0.004);
    let bench = cfg.benchmark(PaperDataset::GloVe);
    let k = bench.k();
    eprintln!(
        "[module-scaling] {} vectors x {} dims, k = {k}",
        bench.train.len(),
        bench.train.dims()
    );

    let mut rows = Vec::new();
    for modules in [1usize, 2, 4, 8] {
        let mut cluster = SsamCluster::build(SsamConfig::default(), modules, &bench.train);
        let q: Vec<f32> = bench.queries.get(0).to_vec();
        let (ns, t) = cluster.query(&q, k).expect("cluster runs");
        assert_eq!(ns.len(), k);
        rows.push(vec![
            modules.to_string(),
            fmt(t.module_seconds * 1e6),
            fmt((t.broadcast_seconds + t.collect_seconds) * 1e9),
            fmt(t.seconds * 1e6),
            fmt(1.0 / t.seconds),
            fmt(t.energy_mj),
        ]);
    }

    println!("\n§III-A — chained-module scaling (fixed dataset, growing fabric)");
    print_table(
        cfg.csv,
        &[
            "modules",
            "module scan us",
            "link+merge ns",
            "query latency us",
            "queries/s",
            "energy mJ",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: adding modules divides the per-module scan while the\n\
         link fabric (query broadcast + k-tuple collection) stays orders of\n\
         magnitude below the scan time — capacity scales without the external\n\
         links becoming the bottleneck."
    );
}
