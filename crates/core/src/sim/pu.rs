//! The processing-unit core: architectural state + timing.
//!
//! Implements the microarchitecture of Fig. 5d: one instruction stream
//! feeding a scalar datapath (scalar ALU + registers, stack unit) and a
//! vector datapath (per-lane ALUs + vector registers), with the priority
//! queue, scratchpad, and DRAM stream interface attached. Execution is
//! functional *and* timed: `run()` produces the architectural result (the
//! priority-queue contents, scratchpad state) and a [`RunStats`] cycle and
//! activity account.

use std::sync::Arc;

use crate::isa::inst::{Instruction, PqField};
use crate::isa::reg::{NUM_SCALAR_REGS, NUM_VECTOR_REGS};
use crate::isa::{DRAM_BASE, PQUEUE_DEPTH, VECTOR_LENGTHS};
use crate::sim::memif::{DramError, DramInterface, DramStats};
use crate::sim::pqueue::HardwarePriorityQueue;
use crate::sim::scratchpad::{Scratchpad, SpadError};
use crate::sim::stack::{HardwareStack, StackError};
use crate::sim::trace::{TraceBuffer, TraceRecord};
use crate::sim::LatencyModel;

/// A simulation fault (kernels are trusted code, so faults are bugs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// PC ran past the end of the program without `HALT`.
    PcOutOfRange {
        /// Offending program counter.
        pc: u32,
    },
    /// Instruction budget exhausted (guards against runaway kernels).
    InstructionLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// Scratchpad fault.
    Scratchpad(SpadError),
    /// DRAM fault.
    Dram(DramError),
    /// Stack fault.
    Stack(StackError),
    /// Vector lane index out of range for the configured vector length.
    BadLane {
        /// Requested lane.
        lane: i32,
        /// Configured vector length.
        vl: usize,
    },
    /// Read of a scalar register never written (trap mode only — see
    /// [`ProcessingUnit::enable_uninit_trap`]).
    UninitSreg {
        /// The offending register.
        reg: u8,
    },
    /// Read of a vector register never written (trap mode only).
    UninitVreg {
        /// The offending register.
        reg: u8,
    },
    /// A device batch entry point was handed an empty query slice.
    ///
    /// Raised by the host-side batch APIs
    /// ([`crate::device::SsamDevice::query_batch`], which the serving
    /// runtime and the store reach, and the §III-A timing model's
    /// [`crate::device::cluster::SsamCluster::query_batch`]), never by the
    /// PU core itself: an empty batch is a degenerate *request*, not a
    /// kernel fault, and online callers need a typed rejection rather
    /// than a panic.
    EmptyBatch,
    /// A device batch entry point was handed `k == 0`.
    ///
    /// Raised by the host-side batch APIs, never by the PU core (see
    /// [`SimError::EmptyBatch`]).
    ZeroK,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range (missing halt?)"),
            SimError::InstructionLimit { limit } => write!(f, "instruction limit {limit} exceeded"),
            SimError::Scratchpad(e) => write!(f, "{e}"),
            SimError::Dram(e) => write!(f, "{e}"),
            SimError::Stack(e) => write!(f, "{e}"),
            SimError::BadLane { lane, vl } => write!(f, "lane {lane} out of range for VL={vl}"),
            SimError::UninitSreg { reg } => write!(f, "read of uninitialized register s{reg}"),
            SimError::UninitVreg { reg } => write!(f, "read of uninitialized register v{reg}"),
            SimError::EmptyBatch => write!(f, "batch must contain at least one query"),
            SimError::ZeroK => write!(f, "k must be positive"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<SpadError> for SimError {
    fn from(e: SpadError) -> Self {
        SimError::Scratchpad(e)
    }
}
impl From<DramError> for SimError {
    fn from(e: DramError) -> Self {
        SimError::Dram(e)
    }
}
impl From<StackError> for SimError {
    fn from(e: StackError) -> Self {
        SimError::Stack(e)
    }
}

/// Cycle and activity account for one kernel run. Activity factors drive
/// the Table III energy model; the class mix is also what the Table I
/// profiling methodology reports for the accelerator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Scalar ALU operations.
    pub scalar_alu_ops: u64,
    /// Vector instructions issued.
    pub vector_ops: u64,
    /// Vector lane-operations (vector instructions × lanes).
    pub vector_lane_ops: u64,
    /// Priority-queue operations (insert/load/reset).
    pub pqueue_ops: u64,
    /// Stack operations.
    pub stack_ops: u64,
    /// Scratchpad accesses.
    pub scratchpad_accesses: u64,
    /// Register-file accesses (reads + writes, both files).
    pub regfile_accesses: u64,
    /// Branches retired.
    pub branches: u64,
    /// Taken branches.
    pub branches_taken: u64,
    /// DRAM traffic/locality.
    pub dram: DramStats,
}

impl RunStats {
    /// Fraction of retired instructions that were vector instructions —
    /// the accelerator-side analogue of Table I's AVX/SSE column.
    pub fn vector_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.vector_ops as f64 / self.instructions as f64
        }
    }

    /// Adds another run's counters into this one — the aggregation the
    /// batched engine and the telemetry layer both use, kept in one place
    /// so a new counter cannot be summed in one account and dropped in
    /// the other.
    pub fn accumulate(&mut self, other: &RunStats) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.scalar_alu_ops += other.scalar_alu_ops;
        self.vector_ops += other.vector_ops;
        self.vector_lane_ops += other.vector_lane_ops;
        self.pqueue_ops += other.pqueue_ops;
        self.stack_ops += other.stack_ops;
        self.scratchpad_accesses += other.scratchpad_accesses;
        self.regfile_accesses += other.regfile_accesses;
        self.branches += other.branches;
        self.branches_taken += other.branches_taken;
        self.dram.bytes_read += other.dram.bytes_read;
        self.dram.hits += other.dram.hits;
        self.dram.misses += other.dram.misses;
        self.dram.prefetches += other.dram.prefetches;
    }
}

/// One SSAM processing unit.
#[derive(Debug, Clone)]
pub struct ProcessingUnit {
    vl: usize,
    /// Instruction memory. Shared (`Arc`) so a batch engine can point many
    /// vault workers at one kernel image without cloning it per query.
    program: Arc<Vec<Instruction>>,
    pc: u32,
    halted: bool,
    sregs: [i32; NUM_SCALAR_REGS],
    vregs: Vec<Vec<i32>>,
    /// Hardware priority queue (None models the software-queue ablation
    /// where the unit is disabled/absent).
    pqueue: HardwarePriorityQueue,
    stack: HardwareStack,
    spad: Scratchpad,
    dram: DramInterface,
    latency: LatencyModel,
    stats: RunStats,
    trace: Option<TraceBuffer>,
    /// When set, reads of never-written registers fault (the dynamic
    /// counterpart of the static `analysis::regflow` pass).
    uninit_trap: bool,
    /// Scalar registers written so far (bit 0 / `s0` is always set).
    sreg_written: u32,
    /// Vector registers written so far.
    vreg_written: u8,
}

impl ProcessingUnit {
    /// Builds a PU with vector length `vl` over a DRAM shard.
    ///
    /// # Panics
    /// Panics if `vl` is not one of the paper's design points (2/4/8/16).
    pub fn new(vl: usize, dram_words: Arc<Vec<i32>>) -> Self {
        assert!(
            VECTOR_LENGTHS.contains(&vl),
            "vector length {vl} not in the design sweep {VECTOR_LENGTHS:?}"
        );
        Self {
            vl,
            program: Arc::new(Vec::new()),
            pc: 0,
            halted: false,
            sregs: [0; NUM_SCALAR_REGS],
            vregs: vec![vec![0; vl]; NUM_VECTOR_REGS],
            pqueue: HardwarePriorityQueue::new(),
            stack: HardwareStack::new(),
            spad: Scratchpad::new(),
            dram: DramInterface::new(dram_words),
            latency: LatencyModel::default(),
            stats: RunStats::default(),
            trace: None,
            uninit_trap: false,
            sreg_written: 1,
            vreg_written: 0,
        }
    }

    /// Enables the uninitialized-register-read trap: any read of a
    /// register that neither the driver ([`Self::set_sreg`]) nor the
    /// kernel has written raises [`SimError::UninitSreg`] /
    /// [`SimError::UninitVreg`] instead of silently returning zero.
    ///
    /// Off by default — real hardware has no such check; harnesses use it
    /// to validate the static verifier's def-use analysis.
    pub fn enable_uninit_trap(&mut self) {
        self.uninit_trap = true;
    }

    /// Configured vector length.
    pub fn vector_length(&self) -> usize {
        self.vl
    }

    /// Replaces the hardware priority queue with a chained (deeper) one to
    /// support larger `k` (Section III-C).
    pub fn chain_pqueue(&mut self, chain: usize) {
        self.pqueue = HardwarePriorityQueue::chained(chain);
    }

    /// Overrides the latency model.
    pub fn set_latency_model(&mut self, latency: LatencyModel) {
        self.latency = latency;
    }

    /// Enables execution tracing, retaining the most recent `cap`
    /// retired instructions (Section IV's activity-trace methodology).
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(TraceBuffer::new(cap));
    }

    /// The trace buffer, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Loads a program into instruction memory and resets the PC.
    ///
    /// Accepts either an owned `Vec<Instruction>` or a shared
    /// `Arc<Vec<Instruction>>`; the batched device engine passes the same
    /// `Arc` to every vault worker so no per-query program copy is made.
    pub fn load_program(&mut self, program: impl Into<Arc<Vec<Instruction>>>) {
        self.program = program.into();
        self.pc = 0;
        self.halted = false;
    }

    /// Resets all architectural and accounting state for a fresh kernel
    /// run while keeping the expensive long-lived structures: the loaded
    /// program (`Arc`), the DRAM shard mapping, the scratchpad *contents*
    /// (the driver rewrites the regions the next kernel reads), the
    /// priority-queue chain depth, and the latency/trap/trace
    /// configuration.
    ///
    /// After `reset_state()` the PU is architecturally indistinguishable
    /// from a freshly constructed one with the same program loaded: the
    /// registers are zeroed, the queue and stack are empty, the stream
    /// buffer holds no prefetch windows, and every statistic starts from
    /// zero — which is what makes batched execution bit-identical to a
    /// serial loop of one-shot PUs.
    pub fn reset_state(&mut self) {
        self.pc = 0;
        self.halted = false;
        self.sregs = [0; NUM_SCALAR_REGS];
        for v in &mut self.vregs {
            v.fill(0);
        }
        let chain = self.pqueue.capacity() / PQUEUE_DEPTH;
        self.pqueue = HardwarePriorityQueue::chained(chain.max(1));
        self.stack = HardwareStack::new();
        self.spad.reset_activity();
        self.dram.reset();
        self.stats = RunStats::default();
        if let Some(trace) = &mut self.trace {
            trace.clear();
        }
        self.sreg_written = 1;
        self.vreg_written = 0;
    }

    /// Writes a scalar register (driver-side initialization).
    pub fn set_sreg(&mut self, r: usize, value: i32) {
        if r != 0 {
            self.sregs[r] = value;
        }
        self.sreg_written |= 1 << r;
    }

    /// Reads a scalar register.
    pub fn sreg(&self, r: usize) -> i32 {
        self.sregs[r]
    }

    /// Host access to the scratchpad (the driver writing the query vector
    /// and index structures, Section III-D).
    pub fn scratchpad_mut(&mut self) -> &mut Scratchpad {
        &mut self.spad
    }

    /// Read-side host access to the scratchpad.
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.spad
    }

    /// The priority queue (read back after a kernel completes).
    pub fn pqueue(&self) -> &HardwarePriorityQueue {
        &self.pqueue
    }

    /// Run statistics so far.
    pub fn stats(&self) -> RunStats {
        let mut s = self.stats;
        s.dram = self.dram.stats();
        s
    }

    /// Whether the PU has executed `HALT`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Runs until `HALT` or `max_instructions`, whichever first.
    pub fn run(&mut self, max_instructions: u64) -> Result<RunStats, SimError> {
        let mut executed = 0u64;
        while !self.halted {
            if executed >= max_instructions {
                return Err(SimError::InstructionLimit {
                    limit: max_instructions,
                });
            }
            self.step()?;
            executed += 1;
        }
        Ok(self.stats())
    }

    /// Executes one instruction.
    pub fn step(&mut self) -> Result<(), SimError> {
        let Some(&inst) = self.program.get(self.pc as usize) else {
            return Err(SimError::PcOutOfRange { pc: self.pc });
        };
        if self.uninit_trap {
            self.check_uninit(&inst)?;
        }
        self.note_writes(&inst);
        self.stats.instructions += 1;
        let mut next_pc = self.pc + 1;
        let lat = self.latency;
        let mut cycles = lat.alu;

        use Instruction::*;
        match inst {
            SAlu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.sregs[rs1.index()], self.sregs[rs2.index()]);
                self.write_sreg(rd.index(), v);
                self.stats.scalar_alu_ops += 1;
                self.stats.regfile_accesses += 3;
                if matches!(op, crate::isa::inst::AluOp::Mult) {
                    cycles = lat.mult;
                }
            }
            SAluImm { op, rd, rs1, imm } => {
                let v = op.eval(self.sregs[rs1.index()], imm);
                self.write_sreg(rd.index(), v);
                self.stats.scalar_alu_ops += 1;
                self.stats.regfile_accesses += 2;
                if matches!(op, crate::isa::inst::AluOp::Mult) {
                    cycles = lat.mult;
                }
            }
            SUnary { op, rd, rs1 } => {
                let v = op.eval(self.sregs[rs1.index()]);
                self.write_sreg(rd.index(), v);
                self.stats.scalar_alu_ops += 1;
                self.stats.regfile_accesses += 2;
            }
            Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                self.stats.branches += 1;
                self.stats.regfile_accesses += 2;
                if cond.eval(self.sregs[rs1.index()], self.sregs[rs2.index()]) {
                    next_pc = target;
                    self.stats.branches_taken += 1;
                    cycles = lat.branch_taken;
                }
            }
            Jump { target } => {
                next_pc = target;
                self.stats.branches += 1;
                self.stats.branches_taken += 1;
                cycles = lat.branch_taken;
            }
            Push { rs1 } => {
                self.stack.push(self.sregs[rs1.index()])?;
                self.stats.stack_ops += 1;
                self.stats.regfile_accesses += 1;
            }
            Pop { rd } => {
                let v = self.stack.pop()?;
                self.write_sreg(rd.index(), v);
                self.stats.stack_ops += 1;
                self.stats.regfile_accesses += 1;
            }
            PqueueInsert { rs_id, rs_val } => {
                self.pqueue
                    .insert(self.sregs[rs_id.index()], self.sregs[rs_val.index()]);
                self.stats.pqueue_ops += 1;
                self.stats.regfile_accesses += 2;
            }
            PqueueLoad { rd, rs_idx, field } => {
                let idx = self.sregs[rs_idx.index()].max(0) as usize;
                let v = match field {
                    PqField::Id => self.pqueue.load(idx).map_or(-1, |e| e.id),
                    PqField::Value => self.pqueue.load(idx).map_or(i32::MAX, |e| e.value),
                    PqField::Size => self.pqueue.len() as i32,
                };
                self.write_sreg(rd.index(), v);
                self.stats.pqueue_ops += 1;
                self.stats.regfile_accesses += 2;
            }
            PqueueReset => {
                self.pqueue.reset();
                self.stats.pqueue_ops += 1;
            }
            Sfxp { rd, rs1, rs2 } => {
                let x = self.sregs[rs1.index()] ^ self.sregs[rs2.index()];
                let v = self.sregs[rd.index()].wrapping_add(x.count_ones() as i32);
                self.write_sreg(rd.index(), v);
                self.stats.scalar_alu_ops += 1;
                self.stats.regfile_accesses += 4;
            }
            Load {
                rd,
                rs_base,
                offset,
            } => {
                let addr = (self.sregs[rs_base.index()].wrapping_add(offset)) as u32;
                let (v, c) = self.mem_load(addr)?;
                self.write_sreg(rd.index(), v);
                self.stats.regfile_accesses += 2;
                cycles = c;
            }
            Store {
                rs_val,
                rs_base,
                offset,
            } => {
                let addr = (self.sregs[rs_base.index()].wrapping_add(offset)) as u32;
                // Stores target the scratchpad only; the dataset is
                // read-only from the PU's perspective.
                self.spad.store(addr, self.sregs[rs_val.index()])?;
                self.stats.scratchpad_accesses += 1;
                self.stats.regfile_accesses += 2;
                cycles = lat.scratchpad;
            }
            MemFetch { rs_base, len } => {
                let addr = self.sregs[rs_base.index()] as u32;
                self.dram.prefetch(addr, len.max(0) as u32);
                self.stats.regfile_accesses += 1;
            }
            SvMove { vd, rs1, lane } => {
                let v = self.sregs[rs1.index()];
                if lane < 0 {
                    self.vregs[vd.index()].fill(v);
                } else {
                    let l = lane as usize;
                    if l >= self.vl {
                        return Err(SimError::BadLane {
                            lane: lane as i32,
                            vl: self.vl,
                        });
                    }
                    self.vregs[vd.index()][l] = v;
                }
                self.stats.vector_ops += 1;
                self.stats.vector_lane_ops += self.vl as u64;
                self.stats.regfile_accesses += 2;
            }
            VsMove { rd, vs1, lane } => {
                let l = lane as usize;
                if l >= self.vl {
                    return Err(SimError::BadLane {
                        lane: lane as i32,
                        vl: self.vl,
                    });
                }
                let v = self.vregs[vs1.index()][l];
                self.write_sreg(rd.index(), v);
                self.stats.vector_ops += 1;
                self.stats.regfile_accesses += 2;
            }
            Halt => {
                self.halted = true;
            }
            VAlu { op, vd, vs1, vs2 } => {
                for l in 0..self.vl {
                    let v = op.eval(self.vregs[vs1.index()][l], self.vregs[vs2.index()][l]);
                    self.vregs[vd.index()][l] = v;
                }
                self.stats.vector_ops += 1;
                self.stats.vector_lane_ops += self.vl as u64;
                self.stats.regfile_accesses += 3;
                if matches!(op, crate::isa::inst::AluOp::Mult) {
                    cycles = lat.vmult;
                }
            }
            VAluImm { op, vd, vs1, imm } => {
                for l in 0..self.vl {
                    let v = op.eval(self.vregs[vs1.index()][l], imm);
                    self.vregs[vd.index()][l] = v;
                }
                self.stats.vector_ops += 1;
                self.stats.vector_lane_ops += self.vl as u64;
                self.stats.regfile_accesses += 2;
                if matches!(op, crate::isa::inst::AluOp::Mult) {
                    cycles = lat.vmult;
                }
            }
            VUnary { op, vd, vs1 } => {
                for l in 0..self.vl {
                    self.vregs[vd.index()][l] = op.eval(self.vregs[vs1.index()][l]);
                }
                self.stats.vector_ops += 1;
                self.stats.vector_lane_ops += self.vl as u64;
                self.stats.regfile_accesses += 2;
            }
            Vfxp { vd, vs1, vs2 } => {
                for l in 0..self.vl {
                    let x = self.vregs[vs1.index()][l] ^ self.vregs[vs2.index()][l];
                    self.vregs[vd.index()][l] =
                        self.vregs[vd.index()][l].wrapping_add(x.count_ones() as i32);
                }
                self.stats.vector_ops += 1;
                self.stats.vector_lane_ops += self.vl as u64;
                self.stats.regfile_accesses += 4;
            }
            VLoad {
                vd,
                rs_base,
                offset,
            } => {
                let addr = (self.sregs[rs_base.index()].wrapping_add(offset)) as u32;
                cycles = self.vec_load(vd.index(), addr)?;
                self.stats.vector_ops += 1;
                self.stats.vector_lane_ops += self.vl as u64;
                self.stats.regfile_accesses += 2;
            }
            VStore {
                vs,
                rs_base,
                offset,
            } => {
                let addr = (self.sregs[rs_base.index()].wrapping_add(offset)) as u32;
                for l in 0..self.vl {
                    let v = self.vregs[vs.index()][l];
                    self.spad.store(addr + 4 * l as u32, v)?;
                }
                self.stats.scratchpad_accesses += self.vl as u64;
                self.stats.vector_ops += 1;
                self.stats.vector_lane_ops += self.vl as u64;
                self.stats.regfile_accesses += 2;
                cycles = lat.scratchpad;
            }
        }

        self.stats.cycles += cycles;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceRecord {
                pc: self.pc,
                inst,
                cycles,
                total_cycles: self.stats.cycles,
            });
        }
        self.pc = next_pc;
        Ok(())
    }

    #[inline]
    fn write_sreg(&mut self, r: usize, v: i32) {
        if r != 0 {
            self.sregs[r] = v;
        }
    }

    /// Trap-mode check: every register the instruction reads must have
    /// been written (by the driver or by the kernel). Shares its operand
    /// model with the static verifier via [`crate::analysis::uses`].
    fn check_uninit(&self, inst: &Instruction) -> Result<(), SimError> {
        let mut fault = None;
        crate::analysis::uses::for_each_sreg_read(inst, |r| {
            if self.sreg_written & (1 << r.0) == 0 && fault.is_none() {
                fault = Some(SimError::UninitSreg { reg: r.0 });
            }
        });
        crate::analysis::uses::for_each_vreg_read(inst, |r| {
            if self.vreg_written & (1 << r.0) == 0 && fault.is_none() {
                fault = Some(SimError::UninitVreg { reg: r.0 });
            }
        });
        match fault {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Records the registers the instruction writes, for trap mode.
    fn note_writes(&mut self, inst: &Instruction) {
        if let Some(rd) = crate::analysis::uses::sreg_write(inst) {
            self.sreg_written |= 1 << rd.0;
        }
        if let Some(vd) = crate::analysis::uses::vreg_write(inst) {
            self.vreg_written |= 1 << vd.0;
        }
    }

    /// Scalar load dispatch by address space; returns (value, cycles).
    fn mem_load(&mut self, addr: u32) -> Result<(i32, u64), SimError> {
        if addr < DRAM_BASE {
            let v = self.spad.load(addr)?;
            self.stats.scratchpad_accesses += 1;
            Ok((v, self.latency.scratchpad))
        } else {
            let (v, hit) = self.dram.load(addr)?;
            let c = if hit {
                self.latency.dram_hit
            } else {
                self.latency.dram_miss
            };
            Ok((v, c))
        }
    }

    /// Vector load dispatch; returns cycles.
    fn vec_load(&mut self, vd: usize, addr: u32) -> Result<u64, SimError> {
        if addr < DRAM_BASE {
            for l in 0..self.vl {
                let v = self.spad.load(addr + 4 * l as u32)?;
                self.vregs[vd][l] = v;
            }
            self.stats.scratchpad_accesses += self.vl as u64;
            Ok(self.latency.scratchpad)
        } else {
            let vl = self.vl;
            let mut buf = vec![0i32; vl];
            let hit = self.dram.load_block(addr, vl, &mut buf)?;
            self.vregs[vd].copy_from_slice(&buf);
            Ok(if hit {
                self.latency.dram_hit
            } else {
                self.latency.dram_miss
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn pu_with(vl: usize, dram: Vec<i32>, src: &str) -> ProcessingUnit {
        let mut pu = ProcessingUnit::new(vl, Arc::new(dram));
        pu.load_program(assemble(src).expect("assembles"));
        pu
    }

    #[test]
    fn counting_loop_terminates_with_expected_register() {
        let mut pu = pu_with(
            4,
            vec![],
            "
            addi s1, s0, 0
            addi s2, s0, 10
        loop:
            addi s1, s1, 1
            bne  s1, s2, loop
            halt
        ",
        );
        pu.run(1000).expect("runs");
        assert_eq!(pu.sreg(1), 10);
        assert!(pu.halted());
    }

    #[test]
    fn s0_is_hardwired_zero() {
        let mut pu = pu_with(4, vec![], "addi s0, s0, 99\nhalt");
        pu.run(10).expect("runs");
        assert_eq!(pu.sreg(0), 0);
    }

    #[test]
    fn uninit_trap_catches_unwritten_scalar_read() {
        let mut pu = pu_with(4, vec![], "add s1, s2, s0\nhalt");
        pu.enable_uninit_trap();
        assert_eq!(pu.run(10), Err(SimError::UninitSreg { reg: 2 }));
    }

    #[test]
    fn uninit_trap_respects_driver_initialization() {
        let mut pu = pu_with(4, vec![], "add s1, s2, s0\nhalt");
        pu.enable_uninit_trap();
        pu.set_sreg(2, 7);
        pu.run(10).expect("driver-initialized register is readable");
        assert_eq!(pu.sreg(1), 7);
    }

    #[test]
    fn uninit_trap_catches_unwritten_vector_read() {
        let mut pu = pu_with(4, vec![], "svmove v1, s0, -1\nvadd v0, v1, v2\nhalt");
        pu.enable_uninit_trap();
        assert_eq!(pu.run(10), Err(SimError::UninitVreg { reg: 2 }));
    }

    #[test]
    fn trap_is_off_by_default_reads_return_zero() {
        let mut pu = pu_with(4, vec![], "add s1, s2, s0\nhalt");
        pu.run(10)
            .expect("untrapped uninitialized read is architecturally zero");
        assert_eq!(pu.sreg(1), 0);
    }

    #[test]
    fn vector_pipeline_computes_squared_difference() {
        // DRAM holds a candidate vector; scratchpad holds the query.
        // Compute sum((a-b)^2) in Q16.16 over 4 dims.
        let one = 1 << 16;
        let dram = vec![3 * one, one, 0, 2 * one]; // candidate
        let mut pu = pu_with(
            4,
            dram,
            &format!(
                "
            addi s1, s0, {DRAM_BASE}   ; candidate base
            vload v0, s1, 0
            vload v1, s2, 0            ; query at spad[0] (s2 = 0)
            vsub  v0, v0, v1
            vmult v0, v0, v0
            vsmove s3, v0, 0
            vsmove s4, v0, 1
            add   s3, s3, s4
            vsmove s4, v0, 2
            add   s3, s3, s4
            vsmove s4, v0, 3
            add   s3, s3, s4
            halt
        "
            ),
        );
        // query = [1, 1, 1, 1] in Q16.16
        pu.scratchpad_mut()
            .write_block(0, &[one, one, one, one])
            .expect("init");
        pu.run(100).expect("runs");
        // (3-1)^2 + (1-1)^2 + (0-1)^2 + (2-1)^2 = 4+0+1+1 = 6.0
        assert_eq!(pu.sreg(3), 6 * one);
    }

    #[test]
    fn pqueue_program_keeps_best() {
        let mut pu = pu_with(
            2,
            vec![],
            "
            addi s1, s0, 5    ; id 5, val 30
            addi s2, s0, 30
            pqueue_insert s1, s2
            addi s1, s0, 9    ; id 9, val 10
            addi s2, s0, 10
            pqueue_insert s1, s2
            addi s3, s0, 0
            pqueue_load s4, s3, id
            pqueue_load s5, s3, value
            halt
        ",
        );
        pu.run(100).expect("runs");
        assert_eq!(pu.sreg(4), 9);
        assert_eq!(pu.sreg(5), 10);
    }

    #[test]
    fn stack_round_trips_through_push_pop() {
        let mut pu = pu_with(
            2,
            vec![],
            "
            addi s1, s0, 42
            push s1
            addi s1, s0, 7
            push s1
            pop  s2
            pop  s3
            halt
        ",
        );
        pu.run(100).expect("runs");
        assert_eq!(pu.sreg(2), 7);
        assert_eq!(pu.sreg(3), 42);
    }

    #[test]
    fn sfxp_accumulates_hamming() {
        let mut pu = pu_with(
            2,
            vec![],
            "
            addi s1, s0, 0x0F
            addi s2, s0, 0x05
            addi s3, s0, 0
            sfxp s3, s1, s2
            sfxp s3, s1, s2
            halt
        ",
        );
        pu.run(100).expect("runs");
        // popcount(0x0F ^ 0x05) = popcount(0x0A) = 2; accumulated twice.
        assert_eq!(pu.sreg(3), 4);
    }

    #[test]
    fn prefetched_dram_loads_are_cheaper() {
        let dram: Vec<i32> = (0..64).collect();
        let with_fetch = "
            addi s1, s0, 0x10000000
            mem_fetch s1, 256
            vload v0, s1, 0
            vload v0, s1, 16
            halt";
        let without_fetch = "
            addi s1, s0, 0x10000000
            vload v0, s1, 0
            vload v0, s1, 16
            halt";
        let mut a = pu_with(4, dram.clone(), with_fetch);
        let mut b = pu_with(4, dram, without_fetch);
        let sa = a.run(100).expect("runs");
        let sb = b.run(100).expect("runs");
        assert!(sa.cycles < sb.cycles, "prefetch should reduce cycles");
        assert_eq!(sa.dram.hits, 2);
        assert_eq!(sb.dram.misses, 2);
    }

    #[test]
    fn missing_halt_is_detected() {
        let mut pu = pu_with(2, vec![], "addi s1, s0, 1");
        assert!(matches!(pu.run(10), Err(SimError::PcOutOfRange { .. })));
    }

    #[test]
    fn infinite_loop_hits_instruction_limit() {
        let mut pu = pu_with(2, vec![], "loop: j loop");
        assert!(matches!(
            pu.run(100),
            Err(SimError::InstructionLimit { limit: 100 })
        ));
    }

    #[test]
    fn bad_lane_faults() {
        let mut pu = pu_with(2, vec![], "vsmove s1, v0, 5\nhalt");
        assert!(matches!(
            pu.run(10),
            Err(SimError::BadLane { lane: 5, vl: 2 })
        ));
    }

    #[test]
    fn broadcast_svmove_fills_all_lanes() {
        let mut pu = pu_with(
            4,
            vec![],
            "
            addi s1, s0, 7
            svmove v0, s1, -1
            vsmove s2, v0, 0
            vsmove s3, v0, 3
            halt
        ",
        );
        pu.run(100).expect("runs");
        assert_eq!(pu.sreg(2), 7);
        assert_eq!(pu.sreg(3), 7);
    }

    #[test]
    fn stats_classify_instruction_mix() {
        let mut pu = pu_with(
            4,
            (0..16).collect(),
            "
            addi s1, s0, 0x10000000
            vload v0, s1, 0
            vadd v1, v1, v0
            addi s2, s0, 1
            halt
        ",
        );
        let stats = pu.run(100).expect("runs");
        assert_eq!(stats.instructions, 5);
        assert_eq!(stats.vector_ops, 2);
        assert_eq!(stats.vector_lane_ops, 8);
        assert_eq!(stats.scalar_alu_ops, 2);
        assert!(stats.vector_fraction() > 0.0);
        assert_eq!(stats.dram.bytes_read, 16);
    }

    #[test]
    fn trace_records_retired_instructions() {
        let mut pu = pu_with(2, vec![], "addi s1, s0, 1\naddi s1, s1, 2\nhalt");
        pu.enable_trace(8);
        pu.run(10).expect("runs");
        let trace = pu.trace().expect("enabled");
        assert_eq!(trace.len(), 3);
        let text = trace.render();
        assert!(text.contains("addi s1, s0, 1"));
        assert!(text.contains("halt"));
        let summary = trace.summarize();
        assert_eq!(summary.per_mnemonic["addi"].0, 2);
    }

    #[test]
    fn mult_costs_more_cycles_than_add() {
        let mut a = pu_with(2, vec![], "mult s1, s2, s3\nhalt");
        let mut b = pu_with(2, vec![], "add s1, s2, s3\nhalt");
        let sa = a.run(10).expect("runs");
        let sb = b.run(10).expect("runs");
        assert!(sa.cycles > sb.cycles);
    }
}
