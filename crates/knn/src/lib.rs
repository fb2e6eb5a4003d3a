//! # ssam-knn — k-nearest-neighbor algorithm substrate
//!
//! This crate implements the similarity-search algorithms characterized in
//! Section II of *Application Codesign of Near-Data Processing for Similarity
//! Search* (Lee et al., IPDPS 2018):
//!
//! * exact linear k-nearest-neighbor search ([`linear`]),
//! * randomized kd-tree forests with backtracking ([`kdtree`]),
//! * hierarchical k-means trees ([`kmeans_tree`]),
//! * hyperplane multi-probe locality-sensitive hashing ([`mplsh`]),
//! * the distance metrics of Section II-D ([`distance`]), including
//!   fixed-point ([`fixed`]) and binarized Hamming-space ([`binary`])
//!   representations.
//!
//! All approximate indexes implement the [`index::SearchIndex`] trait and
//! expose a *search budget* knob (leaves visited / probes used) which is the
//! x-axis generator for the paper's throughput-versus-accuracy curves
//! (Fig. 2 and Fig. 7). Search accuracy is measured with [`recall`]
//! (`|S_E ∩ S_A| / |S_E|`, Section II-C).
//!
//! The implementations here are the *reference* (single-threaded) versions
//! used both directly by the characterization experiments and as the
//! semantic ground truth the SSAM accelerator simulator is validated
//! against. `ssam-baselines` times them as the measured CPU baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod distance;
pub mod fixed;
pub mod index;
pub mod kdtree;
pub mod kmeans;
pub mod kmeans_tree;
pub mod linear;
pub mod mplsh;
pub mod recall;
pub mod simd;
pub mod topk;
pub mod vecstore;

pub use distance::Metric;
pub use index::{SearchBudget, SearchIndex, SearchStats};
pub use topk::Neighbor;
pub use vecstore::VectorStore;
