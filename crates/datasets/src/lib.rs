//! # ssam-datasets — synthetic stand-ins for the paper's evaluation datasets
//!
//! The paper (Section II-B) evaluates on three real-world datasets:
//!
//! | dataset | contents                                   | size   | dims | k  |
//! |---------|--------------------------------------------|--------|------|----|
//! | GloVe   | Twitter word embeddings                    | 1.2 M  | 100  | 6  |
//! | GIST    | GIST image descriptors                     | 1 M    | 960  | 10 |
//! | AlexNet | AlexNet features of 1 M Flickr images      | 1 M    | 4096 | 16 |
//!
//! The original corpora are not redistributable here, so this crate
//! generates **clustered Gaussian-mixture stand-ins** with matched
//! dimensionality and (scalable) cardinality. Real descriptor datasets are
//! strongly clustered — that clusteredness is what gives indexing
//! structures their accuracy/throughput trade-off — so the generator
//! controls cluster count, spread, and imbalance. Every platform
//! (CPU baseline, SSAM simulator, analytical models) consumes the *same*
//! generated data, so cross-platform comparisons are unaffected by the
//! substitution (see DESIGN.md §2).
//!
//! Each dataset ships as a [`benchmark::Benchmark`]: a train store, a
//! held-out query set ("test set of 1000 vectors used as the queries when
//! measuring application accuracy"), the paper's `k`, and exact ground
//! truth computed by exact linear search.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod generator;
pub mod ground_truth;
pub mod io;
pub mod json;
pub mod spec;
pub mod texmex;

pub use benchmark::Benchmark;
pub use spec::{DatasetSpec, PaperDataset};
