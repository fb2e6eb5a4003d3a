//! # SSAM — Similarity Search Associative Memory
//!
//! A full-system Rust reproduction of *Application Codesign of Near-Data
//! Processing for Similarity Search* (Lee et al., IPDPS 2018): a near-data
//! kNN accelerator built on the Hybrid Memory Cube, together with every
//! substrate its evaluation depends on.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`knn`] — the similarity-search algorithm substrate (linear search,
//!   kd-tree forests, hierarchical k-means trees, multi-probe LSH,
//!   distance metrics, fixed-point and Hamming representations).
//! * [`hmc`] — the Hybrid Memory Cube 2.0 memory model (vaults, vault
//!   controllers, links, bandwidth accounting).
//! * [`core`] — the SSAM accelerator itself: ISA, assembler, cycle-level
//!   processing-unit simulator, kNN kernels, energy/area models, and the
//!   device-level query engine with its host-side memory API.
//! * [`datasets`] — synthetic stand-ins for the paper's GloVe / GIST /
//!   AlexNet evaluation datasets.
//! * [`baselines`] — the measured single-threaded CPU baseline plus
//!   analytical CPU / GPU / FPGA / Automata Processor platform models.
//! * [`profiling`] — instruction-mix instrumentation (the paper's Table I).
//! * [`cost`] — the Section VI-A datacenter TCO model.
//! * [`serve`] — the online query-serving runtime: dynamic batching,
//!   admission control, deadlines, and graceful shutdown over the device
//!   engine (see `examples/serve_demo.rs`).
//! * [`faults`] — seeded deterministic fault injection (DRAM bit flips
//!   under SECDED ECC, link CRC corruption with bounded retry, vault and
//!   module outages, stragglers) plus the closed fault-accounting record
//!   the rest of the stack reports recovery through.
//! * [`store`] — the mutable dataset subsystem: a WAL-first LSM-lite
//!   vector store (memtable + vault-mapped immutable segments, leveled
//!   background compaction, tombstone-aware deletes) with bit-identical
//!   crash recovery, servable online through [`serve`] (see
//!   `examples/store_ingest.rs`).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```
//! use ssam::knn::{linear::knn_exact, Metric, VectorStore};
//!
//! let mut store = VectorStore::new(4);
//! store.push(&[0.0, 0.0, 0.0, 0.0]);
//! store.push(&[1.0, 1.0, 1.0, 1.0]);
//! let nn = knn_exact(&store, &[0.1, 0.0, 0.0, 0.0], 1, Metric::Euclidean);
//! assert_eq!(nn[0].id, 0);
//! ```

#![forbid(unsafe_code)]

pub use ssam_baselines as baselines;
pub use ssam_core as core;
pub use ssam_cost as cost;
pub use ssam_datasets as datasets;
pub use ssam_faults as faults;
pub use ssam_hmc as hmc;
pub use ssam_knn as knn;
pub use ssam_profiling as profiling;
pub use ssam_serve as serve;
pub use ssam_store as store;
