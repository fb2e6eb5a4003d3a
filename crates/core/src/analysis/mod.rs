//! Static verification of assembled SSAM kernels (`ssam-lint`).
//!
//! The kernels of [`crate::kernels`] are *generated* programs: a bug in a
//! generator (a clobbered register, an unbalanced stack path, a missing
//! `PQUEUE_RESET`) produces a silently wrong accelerator, and the paper's
//! methodology has no RTL lint to catch it. This module is that lint: a
//! set of sound forward dataflow analyses over the assembled
//! [`Instruction`] stream that prove the absence of whole classes of
//! runtime faults before a kernel ever reaches a processing unit.
//!
//! Passes (each a separate submodule):
//!
//! * [`cfg`](mod@cfg) — control-flow graph, branch-target validation,
//!   reachability, missing-`HALT` paths.
//! * [`regflow`] — register def-use dataflow: reads of scalar/vector
//!   registers never written on any (or some) path, modulo the
//!   driver-initialized set declared in [`KernelLayout::driver_sregs`].
//! * [`stackflow`] — hardware-stack depth intervals along all paths,
//!   against the stack unit's capacity ([`crate::sim::stack::STACK_DEPTH`]).
//! * [`pqueue`] — priority-queue protocol: `PQUEUE_INSERT` must be
//!   dominated by a `PQUEUE_RESET`, `PQUEUE_LOAD` indices must be sane.
//! * [`memcheck`] — constant-propagation over the scalar file, bounds and
//!   alignment checks of constant-address scratchpad accesses, vector
//!   lane checks, and store-target checks.
//!
//! Severity encodes modality: a **must**-fault (every execution reaching
//! the instruction faults, e.g. a pop at provably-zero depth) is an
//! [`Severity::Error`]; a **may**-fault (some abstract path faults, e.g.
//! data-dependent stack growth in a tree traversal) is a
//! [`Severity::Warning`]. `ssam-lint --all` requires every shipped kernel
//! to be error-free; warnings document residual data-dependent risk.
//!
//! The analyses are sound over-approximations: if [`verify_program`]
//! returns no diagnostics at all, execution on the simulator cannot raise
//! an uninitialized-read, stack, lane, constant-address scratchpad, or
//! missing-`HALT` fault (property-tested in `tests/analysis_properties.rs`).
//!
//! Beyond linting, the same dataflow machinery (forward/backward solvers
//! in [`cfg`](mod@cfg), the shared constant lattice in `constprop`, loop structure
//! and trip counts in `loops`) drives two *clients* that transform and
//! predict rather than check:
//!
//! * [`opt`] — a semantics-preserving kernel optimizer (constant folding
//!   and propagation, branch resolution, unreachable/dead-code
//!   elimination, redundant scratchpad-load elimination, loop-invariant
//!   code motion) run by `Kernel::build` on every generated kernel.
//! * [`cost`] — a static cycle/DRAM-traffic cost model with a predicted
//!   memory- vs compute-bound classification, cross-checked against the
//!   cycle simulator (`ssam-lint --cost`).

pub mod cfg;
pub(crate) mod constprop;
pub mod cost;
pub(crate) mod loops;
pub mod memcheck;
pub mod opt;
pub mod pqueue;
pub mod regflow;
pub mod stackflow;
pub mod uses;

use std::fmt;

use crate::isa::inst::Instruction;
use crate::kernels::{Kernel, KernelLayout};
use crate::sim::stack::STACK_DEPTH;

/// How certain and how severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A may-fault or protocol smell: some abstract path misbehaves, but
    /// data-dependent control flow might avoid it at runtime.
    Warning,
    /// A must-fault: every execution reaching the flagged instruction
    /// faults (or the program is structurally broken).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Machine-readable diagnostic codes, one per defect class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// `CF001` — branch/jump target outside the program.
    BranchTargetOutOfRange,
    /// `CF002` — instructions unreachable from entry.
    UnreachableCode,
    /// `CF003` — a reachable path runs off the end without `HALT`.
    MissingHalt,
    /// `REG001` — scalar register read but never written on any path.
    UninitScalarRead,
    /// `REG002` — scalar register uninitialized on *some* path to a read.
    MaybeUninitScalarRead,
    /// `REG003` — vector register read but never written on any path.
    UninitVectorRead,
    /// `REG004` — vector register uninitialized on *some* path to a read.
    MaybeUninitVectorRead,
    /// `STK001` — `POP` with a provably empty stack.
    StackUnderflow,
    /// `STK002` — `POP` may execute with an empty stack on some path.
    MaybeStackUnderflow,
    /// `STK003` — `PUSH` with a provably full stack.
    StackOverflow,
    /// `STK004` — stack depth not provably bounded by the hardware
    /// capacity (data-dependent push loops).
    MaybeStackOverflow,
    /// `PQ001` — `PQUEUE_INSERT` with no `PQUEUE_RESET` on any path.
    InsertWithoutReset,
    /// `PQ002` — `PQUEUE_INSERT` not dominated by `PQUEUE_RESET`.
    MaybeInsertWithoutReset,
    /// `PQ003` — `PQUEUE_LOAD` with a constant index outside the base
    /// 16-entry queue (needs chaining, or is negative).
    PqueueLoadOutOfRange,
    /// `SP001` — constant-address scratchpad access out of bounds.
    SpadOutOfBounds,
    /// `SP002` — constant-address access not 4-byte aligned.
    SpadMisaligned,
    /// `SP003` — constant-address store into the staged query region.
    StoreClobbersQuery,
    /// `SP004` — store with a constant DRAM address (the dataset is
    /// read-only from the PU).
    StoreToDram,
    /// `LANE001` — immediate lane index outside the configured VL.
    LaneOutOfRange,
    /// `MF001` — `MEM_FETCH` with a non-positive prefetch length.
    FetchLenNonPositive,
}

impl DiagCode {
    /// The stable machine-readable code string (e.g. `"STK001"`).
    pub fn as_str(self) -> &'static str {
        use DiagCode::*;
        match self {
            BranchTargetOutOfRange => "CF001",
            UnreachableCode => "CF002",
            MissingHalt => "CF003",
            UninitScalarRead => "REG001",
            MaybeUninitScalarRead => "REG002",
            UninitVectorRead => "REG003",
            MaybeUninitVectorRead => "REG004",
            StackUnderflow => "STK001",
            MaybeStackUnderflow => "STK002",
            StackOverflow => "STK003",
            MaybeStackOverflow => "STK004",
            InsertWithoutReset => "PQ001",
            MaybeInsertWithoutReset => "PQ002",
            PqueueLoadOutOfRange => "PQ003",
            SpadOutOfBounds => "SP001",
            SpadMisaligned => "SP002",
            StoreClobbersQuery => "SP003",
            StoreToDram => "SP004",
            LaneOutOfRange => "LANE001",
            FetchLenNonPositive => "MF001",
        }
    }

    /// The severity implied by the code's modality (must ⇒ error,
    /// may ⇒ warning).
    pub fn severity(self) -> Severity {
        use DiagCode::*;
        match self {
            BranchTargetOutOfRange
            | MissingHalt
            | UninitScalarRead
            | UninitVectorRead
            | StackUnderflow
            | StackOverflow
            | InsertWithoutReset
            | SpadOutOfBounds
            | SpadMisaligned
            | StoreToDram
            | LaneOutOfRange => Severity::Error,
            UnreachableCode
            | MaybeUninitScalarRead
            | MaybeUninitVectorRead
            | MaybeStackUnderflow
            | MaybeStackOverflow
            | MaybeInsertWithoutReset
            | PqueueLoadOutOfRange
            | StoreClobbersQuery
            | FetchLenNonPositive => Severity::Warning,
        }
    }
}

/// One finding of the static verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Defect class.
    pub code: DiagCode,
    /// Severity derived from the code's modality.
    pub severity: Severity,
    /// Instruction index the finding anchors to (`None` for
    /// whole-program findings such as an empty program).
    pub pc: Option<u32>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn at(code: DiagCode, pc: u32, message: String) -> Self {
        Self {
            code,
            severity: code.severity(),
            pc: Some(pc),
            message,
        }
    }

    pub(crate) fn whole_program(code: DiagCode, message: String) -> Self {
        Self {
            code,
            severity: code.severity(),
            pc: None,
            message,
        }
    }

    /// Whether the diagnostic is an error (must-fault).
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pc {
            Some(pc) => {
                write!(
                    f,
                    "{}[{}] at pc {}: {}",
                    self.severity,
                    self.code.as_str(),
                    pc,
                    self.message
                )
            }
            None => write!(
                f,
                "{}[{}]: {}",
                self.severity,
                self.code.as_str(),
                self.message
            ),
        }
    }
}

/// What the verifier may assume about the environment a program runs in.
///
/// [`verify`] derives this from a kernel's [`KernelLayout`]; harnesses
/// that run raw instruction streams (e.g. the differential tester, which
/// zero-initializes every register) can use [`VerifyConfig::permissive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Vector length the program will run at (lane bound for
    /// `SVMOVE`/`VSMOVE` immediates).
    pub vl: usize,
    /// Scalar registers the driver initializes before launch (bitmask;
    /// bit 0 / `s0` is implicitly always initialized).
    pub driver_sregs: u32,
    /// Vector registers assumed initialized at entry (bitmask).
    pub driver_vregs: u8,
    /// Hardware stack capacity in entries.
    pub stack_depth: usize,
    /// Require every `PQUEUE_INSERT` to be dominated by `PQUEUE_RESET`.
    /// Off for harnesses that guarantee a fresh queue externally.
    pub require_pqueue_reset: bool,
    /// Scratchpad byte range holding the staged query (`[start, end)`),
    /// if the driver contract declares one; constant-address stores into
    /// it are flagged.
    pub query_region: Option<(u32, u32)>,
}

impl VerifyConfig {
    /// The configuration implied by a kernel's layout contract.
    pub fn from_layout(layout: &KernelLayout) -> Self {
        Self {
            vl: layout.vl,
            driver_sregs: layout.driver_sregs,
            driver_vregs: 0,
            stack_depth: STACK_DEPTH,
            require_pqueue_reset: true,
            query_region: Some((
                layout.query_addr,
                layout.query_addr + (layout.vec_words * 4) as u32,
            )),
        }
    }

    /// A maximally permissive configuration for raw programs: every
    /// register is assumed initialized and no queue protocol is imposed.
    /// Structural, stack, lane, and memory checks still apply.
    pub fn permissive(vl: usize) -> Self {
        Self {
            vl,
            driver_sregs: u32::MAX,
            driver_vregs: u8::MAX,
            stack_depth: STACK_DEPTH,
            require_pqueue_reset: false,
            query_region: None,
        }
    }
}

/// Statically verifies a generated kernel against its declared layout.
///
/// Returns all findings, most severe first (then by program counter).
/// An empty result is a proof that the kernel cannot raise the fault
/// classes listed in the module docs.
pub fn verify(kernel: &Kernel) -> Vec<Diagnostic> {
    verify_program(&kernel.program, &VerifyConfig::from_layout(&kernel.layout))
}

/// Statically verifies a raw instruction stream under `config`.
pub fn verify_program(program: &[Instruction], config: &VerifyConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let graph = cfg::Cfg::build(program, &mut diags);
    regflow::check(program, &graph, config, &mut diags);
    stackflow::check(program, &graph, config, &mut diags);
    pqueue::check(program, &graph, config, &mut diags);
    memcheck::check(program, &graph, config, &mut diags);
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.pc.cmp(&b.pc))
            .then(a.code.cmp(&b.code))
    });
    // Passes can rediscover the same defect (e.g. a bad address reached
    // along several abstract paths); one finding per (code, pc) is enough.
    diags.dedup_by(|a, b| a.code == b.code && a.pc == b.pc);
    diags
}

/// Every diagnostic code, for exhaustive reporting and tests.
pub const ALL_DIAG_CODES: [DiagCode; 20] = [
    DiagCode::BranchTargetOutOfRange,
    DiagCode::UnreachableCode,
    DiagCode::MissingHalt,
    DiagCode::UninitScalarRead,
    DiagCode::MaybeUninitScalarRead,
    DiagCode::UninitVectorRead,
    DiagCode::MaybeUninitVectorRead,
    DiagCode::StackUnderflow,
    DiagCode::MaybeStackUnderflow,
    DiagCode::StackOverflow,
    DiagCode::MaybeStackOverflow,
    DiagCode::InsertWithoutReset,
    DiagCode::MaybeInsertWithoutReset,
    DiagCode::PqueueLoadOutOfRange,
    DiagCode::SpadOutOfBounds,
    DiagCode::SpadMisaligned,
    DiagCode::StoreClobbersQuery,
    DiagCode::StoreToDram,
    DiagCode::LaneOutOfRange,
    DiagCode::FetchLenNonPositive,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::inst::{AluOp, BranchCond};
    use crate::isa::reg::SReg;
    use crate::kernels::linear;

    /// A no-op with the same pc footprint as any single instruction.
    fn nop() -> Instruction {
        Instruction::SAlu {
            op: AluOp::Add,
            rd: SReg(0),
            rs1: SReg(0),
            rs2: SReg(0),
        }
    }

    #[test]
    fn shipped_linear_kernel_is_diagnostic_free() {
        let k = linear::euclidean(100, 8);
        assert_eq!(verify(&k), Vec::new());
    }

    #[test]
    fn mutation_dropping_pqueue_reset_is_caught() {
        let k = linear::euclidean(16, 4);
        // Replace the reset with a nop so branch targets stay valid.
        let mutated: Vec<Instruction> = k
            .program
            .iter()
            .map(|&i| {
                if i == Instruction::PqueueReset {
                    nop()
                } else {
                    i
                }
            })
            .collect();
        assert_ne!(mutated, k.program, "kernel must contain a reset to drop");
        let diags = verify_program(&mutated, &VerifyConfig::from_layout(&k.layout));
        assert!(
            diags.iter().any(|d| d.code == DiagCode::InsertWithoutReset),
            "expected PQ001, got: {diags:?}"
        );
    }

    #[test]
    fn mutation_unbalancing_the_stack_is_caught() {
        let k = linear::euclidean(16, 4);
        // Turn the first instruction into a POP: the stack is empty at
        // entry on every path, so this is a must-underflow.
        let mut mutated = k.program.clone();
        mutated[0] = Instruction::Pop { rd: SReg(9) };
        let diags = verify_program(&mutated, &VerifyConfig::from_layout(&k.layout));
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagCode::StackUnderflow && d.is_error()),
            "expected STK001, got: {diags:?}"
        );
    }

    #[test]
    fn mutation_breaking_a_branch_target_is_caught() {
        let k = linear::euclidean(16, 4);
        let mut mutated = k.program.clone();
        let len = mutated.len() as u32;
        let pos = mutated
            .iter()
            .position(|i| matches!(i, Instruction::Jump { .. }))
            .expect("kernel has a jump");
        mutated[pos] = Instruction::Jump { target: len + 7 };
        let diags = verify_program(&mutated, &VerifyConfig::from_layout(&k.layout));
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagCode::BranchTargetOutOfRange && d.is_error()),
            "expected CF001, got: {diags:?}"
        );
    }

    #[test]
    fn the_three_seeded_mutations_have_distinct_codes() {
        // Acceptance criterion: each mutation class maps to its own code.
        assert_ne!(
            DiagCode::InsertWithoutReset.as_str(),
            DiagCode::StackUnderflow.as_str()
        );
        assert_ne!(
            DiagCode::StackUnderflow.as_str(),
            DiagCode::BranchTargetOutOfRange.as_str()
        );
        assert_ne!(
            DiagCode::InsertWithoutReset.as_str(),
            DiagCode::BranchTargetOutOfRange.as_str()
        );
    }

    #[test]
    fn diagnostics_order_errors_first() {
        let program = vec![
            Instruction::Pop { rd: SReg(1) }, // STK001 error
            Instruction::PqueueLoad {
                rd: SReg(2),
                rs_idx: SReg(0),
                field: crate::isa::inst::PqField::Id,
            },
            Instruction::Branch {
                cond: BranchCond::Eq,
                rs1: SReg(0),
                rs2: SReg(0),
                target: 999, // CF001 error
            },
            Instruction::Halt,
        ];
        let diags = verify_program(&program, &VerifyConfig::permissive(4));
        assert!(!diags.is_empty());
        let mut prev = Severity::Error;
        for d in &diags {
            assert!(d.severity <= prev, "errors must sort before warnings");
            prev = d.severity;
        }
    }

    #[test]
    fn diag_codes_are_exhaustively_pinned() {
        // One row per code: (variant, stable string, severity). A new
        // variant must be added here, to ALL_DIAG_CODES, and to the CLI
        // docs in the same change.
        use DiagCode::*;
        let pins: [(DiagCode, &str, Severity); 20] = [
            (BranchTargetOutOfRange, "CF001", Severity::Error),
            (UnreachableCode, "CF002", Severity::Warning),
            (MissingHalt, "CF003", Severity::Error),
            (UninitScalarRead, "REG001", Severity::Error),
            (MaybeUninitScalarRead, "REG002", Severity::Warning),
            (UninitVectorRead, "REG003", Severity::Error),
            (MaybeUninitVectorRead, "REG004", Severity::Warning),
            (StackUnderflow, "STK001", Severity::Error),
            (MaybeStackUnderflow, "STK002", Severity::Warning),
            (StackOverflow, "STK003", Severity::Error),
            (MaybeStackOverflow, "STK004", Severity::Warning),
            (InsertWithoutReset, "PQ001", Severity::Error),
            (MaybeInsertWithoutReset, "PQ002", Severity::Warning),
            (PqueueLoadOutOfRange, "PQ003", Severity::Warning),
            (SpadOutOfBounds, "SP001", Severity::Error),
            (SpadMisaligned, "SP002", Severity::Error),
            (StoreClobbersQuery, "SP003", Severity::Warning),
            (StoreToDram, "SP004", Severity::Error),
            (LaneOutOfRange, "LANE001", Severity::Error),
            (FetchLenNonPositive, "MF001", Severity::Warning),
        ];
        assert_eq!(pins.len(), ALL_DIAG_CODES.len());
        for (i, (code, s, sev)) in pins.iter().enumerate() {
            assert_eq!(ALL_DIAG_CODES[i], *code, "ALL_DIAG_CODES order");
            assert_eq!(code.as_str(), *s);
            assert_eq!(code.severity(), *sev);
        }
        // Codes are unique.
        let mut strs: Vec<&str> = pins.iter().map(|p| p.1).collect();
        strs.sort_unstable();
        strs.dedup();
        assert_eq!(strs.len(), 20);
    }

    #[test]
    fn duplicate_diagnostics_collapse_to_one_per_code_and_pc() {
        // A branch and its fallthrough can reach the same bad access, and
        // multiple passes can flag the same pc; after verify_program there
        // must be at most one finding per (code, pc).
        let program = vec![
            Instruction::Jump { target: 999 }, // CF001 at pc 0
            Instruction::Halt,
        ];
        let diags = verify_program(&program, &VerifyConfig::permissive(4));
        let mut keys: Vec<(DiagCode, Option<u32>)> = diags.iter().map(|d| (d.code, d.pc)).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(before, keys.len(), "verify_program returned duplicates");
    }

    #[test]
    fn display_includes_code_and_pc() {
        let d = Diagnostic::at(DiagCode::StackUnderflow, 3, "pop on empty stack".into());
        let text = d.to_string();
        assert!(text.contains("STK001"));
        assert!(text.contains("pc 3"));
        assert!(text.contains("error"));
    }
}
