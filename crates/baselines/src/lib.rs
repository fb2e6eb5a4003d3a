//! # ssam-baselines — the paper's comparison platforms
//!
//! Section IV compares SSAM against a Xeon E5-2620 CPU (FLANN/FALCONN), an
//! NVIDIA Titan X GPU (Garcia et al. brute force), a Xilinx Kintex-7 FPGA
//! (a soft SSAM vector core), and — in Section VI-C — the Micron Automata
//! Processor. The paper treats these as measured black boxes and reports
//! *area-normalized* throughput and energy efficiency at a common 28 nm
//! node.
//!
//! This crate provides both layers of that comparison:
//!
//! * [`measured`] — a *measured* single-threaded CPU baseline: the four
//!   search algorithms with wall-clock batch timing (the FLANN/FALCONN
//!   role).
//! * [`cpu`], [`gpu`], [`fpga`], [`automata`] — *analytical* platform
//!   models (roofline throughput from published bandwidth/compute/die
//!   constants) so cross-platform figures are host-independent and
//!   comparable with the simulated SSAM numbers. DESIGN.md §2 documents
//!   why analytical models are the right substitution for the paper's
//!   silicon measurements.
//! * [`normalize`] — area normalization (qps/mm²) and energy efficiency
//!   (queries/J) helpers plus technology scaling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automata;
pub mod cpu;
pub mod fpga;
pub mod gpu;
pub mod measured;
pub mod normalize;

pub use cpu::CpuPlatform;
pub use fpga::FpgaPlatform;
pub use gpu::GpuPlatform;
pub use normalize::{area_normalized_throughput, energy_efficiency};

/// Shape of a linear-scan workload: everything a roofline model needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanWorkload {
    /// Database cardinality.
    pub vectors: usize,
    /// Feature dimensionality (for binary codes: bits).
    pub dims: usize,
    /// Bytes per element (4 for f32/fixed, 1/8 for binary bits).
    pub elem_bytes: f64,
}

impl ScanWorkload {
    /// A float/fixed-point workload.
    pub fn dense(vectors: usize, dims: usize) -> Self {
        Self {
            vectors,
            dims,
            elem_bytes: 4.0,
        }
    }

    /// A binarized Hamming workload (`dims` = code bits).
    pub fn binary(vectors: usize, bits: usize) -> Self {
        Self {
            vectors,
            dims: bits,
            elem_bytes: 1.0 / 8.0,
        }
    }

    /// Bytes streamed per query (the whole database, once).
    pub fn bytes_per_query(&self) -> f64 {
        self.vectors as f64 * self.dims as f64 * self.elem_bytes
    }

    /// Arithmetic operations per query (sub+mul+add per dimension for
    /// dense scans; xor+popcount+add per 32-bit word for binary).
    pub fn ops_per_query(&self) -> f64 {
        if self.elem_bytes < 1.0 {
            // binary: ~3 ops per 32-dimension word
            3.0 * self.vectors as f64 * (self.dims as f64 / 32.0)
        } else {
            3.0 * self.vectors as f64 * self.dims as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_workload_bytes() {
        let w = ScanWorkload::dense(1000, 100);
        assert_eq!(w.bytes_per_query(), 400_000.0);
        assert_eq!(w.ops_per_query(), 300_000.0);
    }

    #[test]
    fn binary_workload_is_32x_smaller() {
        let dense = ScanWorkload::dense(1000, 128);
        let bin = ScanWorkload::binary(1000, 128);
        assert!((dense.bytes_per_query() / bin.bytes_per_query() - 32.0).abs() < 1e-9);
    }
}
