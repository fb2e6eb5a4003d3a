//! The four workloads and the serving configuration they share.

use std::time::Duration;

use ssam_core::device::SsamConfig;
use ssam_serve::ServeConfig;
use ssam_store::StoreConfig;

/// Neighbors per query: the paper's k for GloVe.
pub const K: usize = 6;
/// Largest coalesced device batch.
pub const MAX_BATCH: usize = 16;
/// Reads the store workload's closed loop keeps outstanding. Every
/// store read runs under the store lock, so a deeper window adds no
/// throughput; at 2 × `MAX_BATCH` it only queues batches of serial reads
/// behind the lock, which starves writes and compaction and made
/// repeated runs of one seed differ by up to 35%.
pub const STORE_OUTSTANDING: usize = 4;
/// Dimensionality of the GloVe stand-in.
pub const DIMS: usize = 100;

/// The read/write mix of a mutable-store workload.
#[derive(Debug, Clone, Copy)]
pub struct StoreMix {
    /// Share of ops that are reads.
    pub read: f64,
    /// Share of ops that are inserts (the rest are deletes).
    pub insert: f64,
    /// Ops address uids in `[0, uid_space)`.
    pub uid_space: u32,
    /// Distinct insert payloads drawn from the stand-in distribution.
    pub payloads: usize,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Vectors loaded before the run.
    pub vectors: usize,
    /// Distinct seeded query vectors.
    pub queries: usize,
    /// Paced (open-loop) offered rate, ops/s, summed over streams.
    pub rate: f64,
    /// Independent paced arrival streams (one per TCP connection).
    pub streams: usize,
    /// Serve over `net::NetServer` with one blocking client per stream.
    pub tcp: bool,
    /// Serve a mutable `Store` with this op mix instead of a device.
    pub store: Option<StoreMix>,
    /// Share of `--seconds` given to the paced phase; the rest saturates.
    pub paced_share: f64,
    /// Reads a closed-loop in-process generator keeps outstanding.
    pub outstanding: usize,
    /// Median closed-loop rate measured on the seed commit, ops/s. It sizes the
    /// saturation phase (this many ops per second of its share), so the
    /// phase does the same work on every commit.
    pub peak: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "small_batched",
        vectors: 1_200,
        queries: 2_048,
        rate: 2_000.0,
        streams: 1,
        tcp: false,
        store: None,
        paced_share: 0.6,
        outstanding: 2 * MAX_BATCH,
        peak: 7_600.0,
    },
    Spec {
        name: "large_scan",
        vectors: 12_000,
        queries: 1_024,
        rate: 400.0,
        streams: 1,
        tcp: false,
        store: None,
        paced_share: 0.6,
        outstanding: 2 * MAX_BATCH,
        peak: 1_450.0,
    },
    Spec {
        name: "tcp_unbatched",
        vectors: 1_200,
        queries: 2_048,
        rate: 200.0,
        streams: 2,
        tcp: true,
        store: None,
        paced_share: 0.75,
        outstanding: 2 * MAX_BATCH,
        peak: 920.0,
    },
    Spec {
        name: "store_mixed",
        vectors: 1_200,
        queries: 2_048,
        rate: 110.0,
        streams: 1,
        tcp: false,
        store: Some(StoreMix {
            read: 0.6,
            insert: 0.3,
            uid_space: 2_400,
            payloads: 2_400,
        }),
        paced_share: 0.75,
        outstanding: STORE_OUTSTANDING,
        peak: 470.0,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The analytic fast path at vector length 4: the serving configuration
/// every workload measures.
pub fn device_config() -> SsamConfig {
    SsamConfig {
        fast_path: true,
        vector_length: 4,
        ..SsamConfig::default()
    }
}

/// Two workers, batches of up to 16, 500 µs linger.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        max_linger: Duration::from_micros(500),
        workers: 2,
        ..ServeConfig::default()
    }
}

/// Memtable 64, fanout 4, default WAL sync policy.
pub fn store_config() -> StoreConfig {
    let mut c = StoreConfig::new(DIMS);
    c.device = device_config();
    c.memtable_capacity = 64;
    c.fanout = 4;
    c
}
