//! Static cost and bottleneck model over kernel programs.
//!
//! The second client of the dataflow framework (the optimizer in
//! [`super::opt`] is the first): given a kernel, the configured vector
//! length, and the number of database vectors `n` a shard holds, predict
//! — without running the simulator — how many cycles and DRAM bytes one
//! [`crate::sim::ProcessingUnit`] will spend scanning the shard, and
//! whether the vault ends up memory- or compute-bound under the same
//! roofline the telemetry layer applies
//! ([`crate::telemetry::VaultAccount::from_stats`] /
//! [`crate::telemetry::critical_path`]).
//!
//! Every quantity is an [`Interval`]: for the straight-line linear
//! kernels (Euclidean / Manhattan / Hamming) every branch, trip count,
//! and memory region resolves statically and the interval collapses to
//! an exact point that must equal the simulator's [`crate::sim::RunStats`]
//! bit for bit — the cross-check the `cost_model` integration tests
//! enforce. Data-dependent control flow (the cosine division, software-
//! queue insertion walks, tree traversals) widens the interval instead of
//! guessing; an unbounded walk reports `max = None`.
//!
//! The machinery, per program:
//!
//! 1. a forward symbolic fixpoint (`Sym`) tracks, per scalar register,
//!    exact constants, "entry value of `sN` plus a constant" provenance,
//!    and scratchpad/DRAM region membership;
//! 2. registers whose *entry* value feeds a `MEM_FETCH` base are the
//!    driver's DRAM cursors — that is how the model learns the driver
//!    contract (`s1` = shard base) without being told;
//! 3. the `loops` pass recovers the loop forest; trip counts come from
//!    the counted-loop idiom, or from `n` for the top-level scan loop
//!    (recognized by its exit test comparing two driver pointers);
//! 4. per-instruction execution counts follow from dominance within the
//!    loop nest, and per-instruction latencies from the same
//!    [`LatencyModel`] the simulator charges.

use crate::isa::inst::{AluOp, Instruction};
use crate::isa::reg::NUM_SCALAR_REGS;
use crate::isa::DRAM_BASE;
use crate::kernels::Kernel;
use crate::sim::pu::RunStats;
use crate::sim::LatencyModel;

use super::cfg::{forward_fixpoint, Cfg};
use super::loops::{counted_trip, Dominators, Loop, LoopForest};

/// A closed interval over `u64` with an optional (possibly unbounded)
/// upper end. `max == None` means "no static bound".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub min: u64,
    /// Inclusive upper bound; `None` = unbounded.
    pub max: Option<u64>,
}

impl Interval {
    /// The exact point interval `[v, v]`.
    pub const fn exact(v: u64) -> Self {
        Self {
            min: v,
            max: Some(v),
        }
    }

    /// `[0, 0]`.
    pub const ZERO: Self = Self::exact(0);

    /// `[1, 1]`.
    pub const ONE: Self = Self::exact(1);

    /// `[0, 1]` — executes at most once.
    pub const AT_MOST_ONCE: Self = Self {
        min: 0,
        max: Some(1),
    };

    /// Whether the interval is a single point.
    pub fn is_exact(&self) -> bool {
        self.max == Some(self.min)
    }

    /// Multiplies both ends by a scalar.
    pub fn scale(self, k: u64) -> Self {
        self * Self::exact(k)
    }
}

/// Interval addition (saturating).
impl std::ops::Add for Interval {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Self {
            min: self.min.saturating_add(o.min),
            max: match (self.max, o.max) {
                (Some(a), Some(b)) => Some(a.saturating_add(b)),
                _ => None,
            },
        }
    }
}

/// Interval multiplication (saturating). An exactly-zero factor
/// annihilates an unbounded one.
impl std::ops::Mul for Interval {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        if self == Self::ZERO || o == Self::ZERO {
            return Self::ZERO;
        }
        Self {
            min: self.min.saturating_mul(o.min),
            max: match (self.max, o.max) {
                (Some(a), Some(b)) => Some(a.saturating_mul(b)),
                _ => None,
            },
        }
    }
}

/// Roofline parameters mirroring [`crate::telemetry::VaultAccount::from_stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Per-instruction latencies (must match the simulator's).
    pub latency: LatencyModel,
    /// Logic-layer clock, Hz.
    pub freq_hz: f64,
    /// Sustained vault bandwidth, bytes/second.
    pub vault_bandwidth: f64,
    /// Processing units sharing the vault scan.
    pub pus: usize,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            latency: LatencyModel::default(),
            freq_hz: 1.0e9,
            vault_bandwidth: 10.0e9,
            pus: 1,
        }
    }
}

/// Which roofline term dominates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundClass {
    /// Compute cycles set the pace (`comp_seconds > mem_seconds`).
    Compute,
    /// Vault bandwidth sets the pace.
    Memory,
}

/// The static prediction for one kernel run over a shard of `n` vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Instructions retired.
    pub instructions: Interval,
    /// Simulated cycles.
    pub cycles: Interval,
    /// Bytes read from DRAM.
    pub dram_bytes: Interval,
    /// All three intervals collapsed to exact points.
    pub exact: bool,
    /// `cycles.min / (pus · freq)` — lower compute-roofline time.
    pub comp_seconds: f64,
    /// Upper compute-roofline time, when cycles are bounded.
    pub comp_seconds_max: Option<f64>,
    /// `dram_bytes.min / vault_bandwidth` — lower memory-roofline time.
    pub mem_seconds: f64,
    /// Upper memory-roofline time, when traffic is bounded.
    pub mem_seconds_max: Option<f64>,
    /// Definite classification, when every point of the interval box
    /// classifies the same way; `None` when the bound is data-dependent.
    pub bound: Option<BoundClass>,
    /// The complete simulator counter set, synthesized statically —
    /// present only when *every* counter resolves exactly: each
    /// instruction's execution count is a point interval, each branch's
    /// taken/untaken split is known, and each load's region and
    /// hit-or-miss outcome is determined. For the straight-line linear
    /// kernels this must equal [`crate::sim::RunStats`] from an actual
    /// run bit for bit (cross-checked in tests and by the fast-path
    /// equivalence suite); any data-dependent control flow or ambiguous
    /// access yields `None` rather than a guess.
    pub stats: Option<RunStats>,
}

/// Estimates `kernel` at vector length `vl` over a shard of `n` vectors
/// with default roofline parameters.
pub fn estimate(kernel: &Kernel, vl: usize, n: u64) -> CostEstimate {
    estimate_with(&kernel.program, vl, n, &CostParams::default())
}

// ---------------------------------------------------------------------------
// Symbolic register domain: constants, entry-value provenance, regions.
// ---------------------------------------------------------------------------

/// Abstract scalar value. `Entry(r)` means "the driver-provided entry
/// value of `sN`, plus some constant" — the provenance that survives the
/// pointer arithmetic of a scan cursor. `Spad`/`Dram` are unknown
/// addresses of known region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sym {
    Known(i32),
    Entry(u8),
    Spad,
    Dram,
    Top,
}

fn addr_is_dram(v: i32) -> bool {
    (v as u32) >= DRAM_BASE
}

impl Sym {
    fn region(self) -> Option<bool> {
        match self {
            Sym::Known(v) => Some(addr_is_dram(v)),
            Sym::Spad => Some(false),
            Sym::Dram => Some(true),
            _ => None,
        }
    }
}

#[derive(Clone, PartialEq)]
struct SymState([Sym; NUM_SCALAR_REGS]);

impl SymState {
    fn entry() -> Self {
        let mut s = [Sym::Top; NUM_SCALAR_REGS];
        for (r, slot) in s.iter_mut().enumerate() {
            *slot = Sym::Entry(r as u8);
        }
        s[0] = Sym::Known(0);
        Self(s)
    }

    fn get(&self, r: u8) -> Sym {
        self.0[r as usize]
    }

    fn set(&mut self, r: u8, v: Sym) {
        if r != 0 {
            self.0[r as usize] = v;
        }
    }
}

fn sym_join_val(a: Sym, b: Sym) -> Sym {
    if a == b {
        return a;
    }
    match (a.region(), b.region()) {
        (Some(x), Some(y)) if x == y => {
            if x {
                Sym::Dram
            } else {
                Sym::Spad
            }
        }
        _ => Sym::Top,
    }
}

fn sym_join(a: &SymState, b: &SymState) -> SymState {
    let mut out = a.clone();
    for (o, &bv) in out.0.iter_mut().zip(b.0.iter()) {
        *o = sym_join_val(*o, bv);
    }
    out
}

/// Pointer-plus-constant algebra for additive ops; full evaluation for
/// constant operands; everything else falls to `Top`.
fn sym_alu(op: AluOp, a: Sym, b: Sym) -> Sym {
    match (a, b) {
        (Sym::Known(x), Sym::Known(y)) => Sym::Known(op.eval(x, y)),
        _ => match op {
            AluOp::Add => match (a, b) {
                (Sym::Entry(r), Sym::Known(_)) | (Sym::Known(_), Sym::Entry(r)) => Sym::Entry(r),
                (Sym::Spad, Sym::Known(_)) | (Sym::Known(_), Sym::Spad) => Sym::Spad,
                (Sym::Dram, Sym::Known(_)) | (Sym::Known(_), Sym::Dram) => Sym::Dram,
                _ => Sym::Top,
            },
            AluOp::Sub => match (a, b) {
                (Sym::Entry(r), Sym::Known(_)) => Sym::Entry(r),
                (Sym::Spad, Sym::Known(_)) => Sym::Spad,
                (Sym::Dram, Sym::Known(_)) => Sym::Dram,
                _ => Sym::Top,
            },
            _ => Sym::Top,
        },
    }
}

fn sym_transfer(inst: &Instruction, s: &SymState) -> SymState {
    let mut out = s.clone();
    match *inst {
        Instruction::SAlu { op, rd, rs1, rs2 } => {
            out.set(rd.0, sym_alu(op, s.get(rs1.0), s.get(rs2.0)));
        }
        Instruction::SAluImm { op, rd, rs1, imm } => {
            out.set(rd.0, sym_alu(op, s.get(rs1.0), Sym::Known(imm)));
        }
        Instruction::SUnary { op, rd, rs1 } => {
            let v = match s.get(rs1.0) {
                Sym::Known(x) => Sym::Known(op.eval(x)),
                _ => Sym::Top,
            };
            out.set(rd.0, v);
        }
        Instruction::Load { rd, .. }
        | Instruction::Pop { rd }
        | Instruction::PqueueLoad { rd, .. }
        | Instruction::VsMove { rd, .. } => out.set(rd.0, Sym::Top),
        Instruction::Sfxp { rd, .. } => out.set(rd.0, Sym::Top),
        _ => {}
    }
    out
}

// ---------------------------------------------------------------------------
// Execution-count model over the loop forest.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct LoopMeta {
    /// Body executions per entry.
    trips: Interval,
    /// Total entry events.
    entries: Interval,
    /// Header is a conditional branch with an edge leaving the body.
    top_test: bool,
    /// The loop's only exit edges come from the header (top-test shape).
    exact_header_exit: bool,
    /// Single conditional latch and the loop's only exit edges come from
    /// it (bottom-test counted shape).
    exact_latch: bool,
}

struct CountModel<'a> {
    forest: &'a LoopForest,
    metas: Vec<LoopMeta>,
    dom: &'a Dominators,
    terminals: Vec<u32>,
}

impl CountModel<'_> {
    fn dominates_all(&self, pc: u32, targets: &[u32]) -> bool {
        !targets.is_empty() && targets.iter().all(|&t| self.dom.dominates(pc, t))
    }

    /// Execution-count interval of `pc`.
    fn count(&self, pc: u32, cfg: &Cfg) -> Interval {
        if !cfg.reachable[pc as usize] {
            return Interval::ZERO;
        }
        let Some(li) = self.forest.innermost[pc as usize] else {
            return if self.dominates_all(pc, &self.terminals) {
                Interval::ONE
            } else {
                Interval::AT_MOST_ONCE
            };
        };
        let lp = &self.forest.loops[li];
        let m = self.metas[li];
        let base = m.entries * m.trips;
        if pc == lp.header && m.top_test {
            // The header of a top-tested loop runs once more than the
            // body: t iterations plus the exiting test.
            let full = base + m.entries;
            if m.exact_header_exit {
                full
            } else {
                Interval {
                    min: base.min,
                    max: full.max,
                }
            }
        } else if self.dominates_all(pc, &lp.latches) {
            base
        } else {
            let cap = if m.top_test { base + m.entries } else { base };
            Interval {
                min: 0,
                max: cap.max,
            }
        }
    }
}

/// Edges `pc → succ` with `pc` in the body and `succ` outside it.
fn exit_pcs(lp: &Loop, cfg: &Cfg) -> Vec<u32> {
    let mut out = Vec::new();
    for (pc, succs) in cfg.succs.iter().enumerate() {
        if !lp.contains(pc as u32) {
            continue;
        }
        if succs.iter().any(|&s| !lp.contains(s)) {
            out.push(pc as u32);
        }
    }
    out
}

/// Recognizes the emitters' top-level scan idiom: an exit test comparing
/// two distinct driver-entry registers, at least one of which is a DRAM
/// cursor (its entry value feeds a `MEM_FETCH`). Such a loop walks the
/// shard base-to-end and runs exactly once per database vector.
fn is_scan_loop(
    exits: &[u32],
    program: &[Instruction],
    syms: &[Option<SymState>],
    dram_regs: u32,
) -> bool {
    exits.iter().any(|&pc| {
        let Instruction::Branch { rs1, rs2, .. } = program[pc as usize] else {
            return false;
        };
        let Some(st) = &syms[pc as usize] else {
            return false;
        };
        match (st.get(rs1.0), st.get(rs2.0)) {
            (Sym::Entry(a), Sym::Entry(b)) => {
                a != b && (dram_regs & (1 << a) != 0 || dram_regs & (1 << b) != 0)
            }
            _ => false,
        }
    })
}

// ---------------------------------------------------------------------------
// The estimator.
// ---------------------------------------------------------------------------

/// Estimates an arbitrary program (the kernel-independent entry point —
/// `ssam-lint --cost` feeds raw and optimized images through it).
pub fn estimate_with(
    program: &[Instruction],
    vl: usize,
    n: u64,
    params: &CostParams,
) -> CostEstimate {
    let mut sink = Vec::new();
    let cfg = Cfg::build(program, &mut sink);
    let dom = Dominators::compute(&cfg);
    let forest = LoopForest::build(&cfg, &dom);
    let lat = params.latency;

    // Symbolic register states (in-states per pc).
    let syms = forward_fixpoint(program, &cfg, SymState::entry(), sym_join, |_, inst, s| {
        sym_transfer(inst, s)
    });

    // Driver DRAM cursors: entry registers whose value reaches a
    // MEM_FETCH base.
    let mut dram_regs = 0u32;
    for (pc, inst) in program.iter().enumerate() {
        if let Instruction::MemFetch { rs_base, .. } = inst {
            if let Some(st) = &syms[pc] {
                if let Sym::Entry(r) = st.get(rs_base.0) {
                    dram_regs |= 1 << r;
                }
            }
        }
    }

    // Loop metadata, outermost first (parents precede children in the
    // reverse of the innermost-first order).
    let mut metas = vec![
        LoopMeta {
            trips: Interval::ZERO,
            entries: Interval::ZERO,
            top_test: false,
            exact_header_exit: false,
            exact_latch: false,
        };
        forest.loops.len()
    ];
    let terminals: Vec<u32> = (0..program.len() as u32)
        .filter(|&pc| cfg.reachable[pc as usize] && cfg.succs[pc as usize].is_empty())
        .collect();
    for i in (0..forest.loops.len()).rev() {
        let lp = &forest.loops[i];
        let exits = exit_pcs(lp, &cfg);
        let header_is_branch = matches!(program[lp.header as usize], Instruction::Branch { .. });
        let top_test = header_is_branch && exits.contains(&lp.header);
        let exact_header_exit = top_test && exits.iter().all(|&e| e == lp.header);
        let exact_latch = match lp.latches[..] {
            [l] => {
                matches!(program[l as usize], Instruction::Branch { .. })
                    && exits.iter().all(|&e| e == l)
            }
            _ => false,
        };
        let trips = match counted_trip(program, &cfg, lp) {
            Some(t) => Interval::exact(t),
            None if lp.parent.is_none() && is_scan_loop(&exits, program, &syms, dram_regs) => {
                Interval::exact(n)
            }
            None => Interval { min: 0, max: None },
        };
        let entries = match lp.parent {
            None => {
                if !terminals.is_empty() && terminals.iter().all(|&t| dom.dominates(lp.header, t)) {
                    Interval::ONE
                } else {
                    Interval::AT_MOST_ONCE
                }
            }
            Some(p) => {
                let base = metas[p].entries * metas[p].trips;
                let parent = &forest.loops[p];
                if parent.latches.iter().all(|&l| dom.dominates(lp.header, l)) {
                    base
                } else {
                    Interval {
                        min: 0,
                        max: base.max,
                    }
                }
            }
        };
        metas[i] = LoopMeta {
            trips,
            entries,
            top_test,
            exact_header_exit,
            exact_latch,
        };
    }

    let model = CountModel {
        forest: &forest,
        metas,
        dom: &dom,
        terminals,
    };

    // MEM_FETCH sites, for prefetch-coverage dominance.
    let fetches: Vec<u32> = (0..program.len() as u32)
        .filter(|&pc| {
            cfg.reachable[pc as usize]
                && matches!(program[pc as usize], Instruction::MemFetch { .. })
        })
        .collect();
    let has_fetch = !fetches.is_empty();
    let covered = |pc: u32| fetches.iter().any(|&m| dom.dominates(m, pc));

    // Where one load lands, and — for DRAM — whether it hits an open
    // prefetch window. `DramAmbiguous` means "definitely DRAM but the
    // hit/miss outcome is data-dependent".
    #[derive(Clone, Copy, PartialEq)]
    enum LoadClass {
        Spad,
        DramHit,
        DramMiss,
        DramAmbiguous,
        Unknown,
    }
    let classify_load = |pc: u32, base: Sym, offset: i32| -> LoadClass {
        let region = match base {
            Sym::Known(v) => Some(addr_is_dram(v.wrapping_add(offset))),
            Sym::Entry(r) => {
                if dram_regs & (1 << r) != 0 {
                    Some(true)
                } else {
                    None
                }
            }
            other => other.region(),
        };
        match region {
            Some(false) => LoadClass::Spad,
            Some(true) if covered(pc) => LoadClass::DramHit,
            Some(true) if !has_fetch => LoadClass::DramMiss,
            Some(true) => LoadClass::DramAmbiguous,
            None => LoadClass::Unknown,
        }
    };

    // Latency interval of one load, plus its DRAM traffic, by class.
    let spad_or_hit = lat.scratchpad.min(lat.dram_hit);
    let load_profile = |class: LoadClass, width: u64| -> (Interval, Interval) {
        match class {
            LoadClass::Spad => (Interval::exact(lat.scratchpad), Interval::ZERO),
            LoadClass::DramHit => (Interval::exact(lat.dram_hit), Interval::exact(width)),
            LoadClass::DramMiss => (Interval::exact(lat.dram_miss), Interval::exact(width)),
            LoadClass::DramAmbiguous => (
                Interval {
                    min: lat.dram_hit.min(lat.dram_miss),
                    max: Some(lat.dram_hit.max(lat.dram_miss)),
                },
                Interval::exact(width),
            ),
            LoadClass::Unknown => (
                Interval {
                    min: spad_or_hit.min(lat.dram_miss),
                    max: Some(lat.scratchpad.max(lat.dram_hit).max(lat.dram_miss)),
                },
                Interval {
                    min: 0,
                    max: Some(width),
                },
            ),
        }
    };

    let mut instructions = Interval::ZERO;
    let mut cycles = Interval::ZERO;
    let mut dram_bytes = Interval::ZERO;
    let branch_lo = lat.alu.min(lat.branch_taken);
    let branch_hi = lat.alu.max(lat.branch_taken);

    // Full counter synthesis alongside the intervals: `ctr` accumulates
    // exactly what `ProcessingUnit::step` would, per instruction class,
    // and stays meaningful only while `counters_exact` holds. The
    // cycles / instructions / DRAM-byte fields are filled from the
    // intervals after the loop.
    let mut ctr = RunStats::default();
    let mut counters_exact = true;
    let vlw = vl as u64;

    for (pc_us, inst) in program.iter().enumerate() {
        let pc = pc_us as u32;
        let c = model.count(pc, &cfg);
        if c == Interval::ZERO {
            continue;
        }
        instructions = instructions + c;
        let cx = if c.is_exact() {
            c.min
        } else {
            counters_exact = false;
            0
        };
        let contrib = match *inst {
            Instruction::SAlu { op, .. } => {
                ctr.scalar_alu_ops += cx;
                ctr.regfile_accesses += 3 * cx;
                c.scale(if op == AluOp::Mult { lat.mult } else { lat.alu })
            }
            Instruction::SAluImm { op, .. } => {
                ctr.scalar_alu_ops += cx;
                ctr.regfile_accesses += 2 * cx;
                c.scale(if op == AluOp::Mult { lat.mult } else { lat.alu })
            }
            Instruction::SUnary { .. } => {
                ctr.scalar_alu_ops += cx;
                ctr.regfile_accesses += 2 * cx;
                c.scale(lat.alu)
            }
            Instruction::Sfxp { .. } => {
                ctr.scalar_alu_ops += cx;
                ctr.regfile_accesses += 4 * cx;
                c.scale(lat.alu)
            }
            Instruction::VAlu { op, .. } => {
                ctr.vector_ops += cx;
                ctr.vector_lane_ops += vlw * cx;
                ctr.regfile_accesses += 3 * cx;
                c.scale(if op == AluOp::Mult {
                    lat.vmult
                } else {
                    lat.alu
                })
            }
            Instruction::VAluImm { op, .. } => {
                ctr.vector_ops += cx;
                ctr.vector_lane_ops += vlw * cx;
                ctr.regfile_accesses += 2 * cx;
                c.scale(if op == AluOp::Mult {
                    lat.vmult
                } else {
                    lat.alu
                })
            }
            Instruction::VUnary { .. } => {
                ctr.vector_ops += cx;
                ctr.vector_lane_ops += vlw * cx;
                ctr.regfile_accesses += 2 * cx;
                c.scale(lat.alu)
            }
            Instruction::Vfxp { .. } => {
                ctr.vector_ops += cx;
                ctr.vector_lane_ops += vlw * cx;
                ctr.regfile_accesses += 4 * cx;
                c.scale(lat.alu)
            }
            Instruction::Jump { .. } => {
                ctr.branches += cx;
                ctr.branches_taken += cx;
                c.scale(lat.branch_taken)
            }
            Instruction::Branch { target, .. } => {
                ctr.branches += cx;
                ctr.regfile_accesses += 2 * cx;
                let li = forest.innermost[pc_us];
                // Exact taken/untaken split, available for the two loop
                // shapes whose exit structure pins it down.
                let exact_split = li.and_then(|i| {
                    let lp = &forest.loops[i];
                    let m = model.metas[i];
                    let e = m.entries;
                    if !(c.is_exact() && e.is_exact() && c.min >= e.min) {
                        return None;
                    }
                    if m.exact_latch && lp.latches == [pc] {
                        // Bottom-test: taken back to the header on all but
                        // the last iteration of each entry.
                        Some((c.min - e.min, e.min))
                    } else if m.exact_header_exit && pc == lp.header {
                        // Top-test: one exit per entry, the rest stay.
                        let stays = c.min - e.min;
                        if lp.contains(target) {
                            Some((stays, e.min)) // exit via fallthrough
                        } else {
                            Some((e.min, stays)) // exit via taken edge
                        }
                    } else {
                        None
                    }
                });
                match exact_split {
                    Some((taken, untaken)) => {
                        ctr.branches_taken += taken;
                        Interval::exact(taken * lat.branch_taken + untaken * lat.alu)
                    }
                    None => {
                        counters_exact = false;
                        Interval {
                            min: c.min.saturating_mul(branch_lo),
                            max: c.max.map(|m| m.saturating_mul(branch_hi)),
                        }
                    }
                }
            }
            Instruction::Load {
                rs_base, offset, ..
            } => {
                let base = syms[pc_us].as_ref().map_or(Sym::Top, |s| s.get(rs_base.0));
                let class = classify_load(pc, base, offset);
                ctr.regfile_accesses += 2 * cx;
                match class {
                    LoadClass::Spad => ctr.scratchpad_accesses += cx,
                    LoadClass::DramHit => ctr.dram.hits += cx,
                    LoadClass::DramMiss => ctr.dram.misses += cx,
                    _ => counters_exact = false,
                }
                let (cyc, bytes) = load_profile(class, 4);
                dram_bytes = dram_bytes + c * bytes;
                c * cyc
            }
            Instruction::VLoad {
                rs_base, offset, ..
            } => {
                let base = syms[pc_us].as_ref().map_or(Sym::Top, |s| s.get(rs_base.0));
                let class = classify_load(pc, base, offset);
                ctr.vector_ops += cx;
                ctr.vector_lane_ops += vlw * cx;
                ctr.regfile_accesses += 2 * cx;
                match class {
                    // A scratchpad vector load touches every lane's word;
                    // a DRAM block transfer counts one hit or miss total.
                    LoadClass::Spad => ctr.scratchpad_accesses += vlw * cx,
                    LoadClass::DramHit => ctr.dram.hits += cx,
                    LoadClass::DramMiss => ctr.dram.misses += cx,
                    _ => counters_exact = false,
                }
                let (cyc, bytes) = load_profile(class, 4 * vlw);
                dram_bytes = dram_bytes + c * bytes;
                c * cyc
            }
            Instruction::Store { .. } => {
                ctr.scratchpad_accesses += cx;
                ctr.regfile_accesses += 2 * cx;
                c.scale(lat.scratchpad)
            }
            Instruction::VStore { .. } => {
                ctr.vector_ops += cx;
                ctr.vector_lane_ops += vlw * cx;
                ctr.scratchpad_accesses += vlw * cx;
                ctr.regfile_accesses += 2 * cx;
                c.scale(lat.scratchpad)
            }
            Instruction::MemFetch { .. } => {
                ctr.dram.prefetches += cx;
                ctr.regfile_accesses += cx;
                c.scale(lat.alu)
            }
            Instruction::SvMove { .. } => {
                ctr.vector_ops += cx;
                ctr.vector_lane_ops += vlw * cx;
                ctr.regfile_accesses += 2 * cx;
                c.scale(lat.alu)
            }
            Instruction::VsMove { .. } => {
                // Lane extract: a vector op but no per-lane work.
                ctr.vector_ops += cx;
                ctr.regfile_accesses += 2 * cx;
                c.scale(lat.alu)
            }
            Instruction::Push { .. } | Instruction::Pop { .. } => {
                ctr.stack_ops += cx;
                ctr.regfile_accesses += cx;
                c.scale(lat.alu)
            }
            Instruction::PqueueInsert { .. } | Instruction::PqueueLoad { .. } => {
                ctr.pqueue_ops += cx;
                ctr.regfile_accesses += 2 * cx;
                c.scale(lat.alu)
            }
            Instruction::PqueueReset => {
                ctr.pqueue_ops += cx;
                c.scale(lat.alu)
            }
            Instruction::Halt => c.scale(lat.alu),
        };
        cycles = cycles + contrib;
    }

    let comp = |cyc: u64| cyc as f64 / (params.pus as f64 * params.freq_hz);
    let mem = |b: u64| b as f64 / params.vault_bandwidth;
    let comp_seconds = comp(cycles.min);
    let comp_seconds_max = cycles.max.map(comp);
    let mem_seconds = mem(dram_bytes.min);
    let mem_seconds_max = dram_bytes.max.map(mem);

    // Definite only when every corner of the interval box agrees with
    // the telemetry rule `compute_bound = comp_seconds > mem_seconds`.
    let bound = match (comp_seconds_max, mem_seconds_max) {
        _ if mem_seconds_max.is_some_and(|mm| comp_seconds > mm) => Some(BoundClass::Compute),
        (Some(cm), _) if cm <= mem_seconds => Some(BoundClass::Memory),
        _ => None,
    };

    let exact = instructions.is_exact() && cycles.is_exact() && dram_bytes.is_exact();
    let stats = if exact && counters_exact {
        ctr.instructions = instructions.min;
        ctr.cycles = cycles.min;
        ctr.dram.bytes_read = dram_bytes.min;
        Some(ctr)
    } else {
        None
    };

    CostEstimate {
        instructions,
        cycles,
        dram_bytes,
        exact,
        comp_seconds,
        comp_seconds_max,
        mem_seconds,
        mem_seconds_max,
        bound,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::sim::ProcessingUnit;
    use std::sync::Arc;

    fn run(src: &str, vl: usize, dram: Vec<i32>) -> crate::sim::RunStats {
        let mut pu = ProcessingUnit::new(vl, Arc::new(dram));
        pu.load_program(assemble(src).expect("assembles"));
        pu.run(1_000_000).expect("runs")
    }

    fn est(src: &str, vl: usize, n: u64) -> CostEstimate {
        let program = assemble(src).expect("assembles");
        estimate_with(&program, vl, n, &CostParams::default())
    }

    #[test]
    fn interval_arithmetic_holds_unbounded_ends() {
        let u = Interval { min: 2, max: None };
        assert_eq!(u + Interval::exact(3), Interval { min: 5, max: None });
        assert_eq!(u * Interval::exact(4), Interval { min: 8, max: None });
        assert_eq!(u * Interval::ZERO, Interval::ZERO);
        assert!(Interval::exact(7).is_exact());
        assert!(!u.is_exact());
    }

    #[test]
    fn straight_line_program_is_exact() {
        let src = "addi s1, s0, 1024\nmult s2, s1, s1\nstore s2, s1, 0\nhalt\n";
        let e = est(src, 4, 0);
        assert!(e.exact);
        let stats = run(src, 4, vec![]);
        assert_eq!(e.cycles, Interval::exact(stats.cycles));
        assert_eq!(e.instructions, Interval::exact(stats.instructions));
        assert_eq!(e.dram_bytes, Interval::exact(stats.dram.bytes_read));
    }

    #[test]
    fn counted_loop_cycles_are_exact() {
        // do-while loop: 6 iterations, latch taken 5 times.
        let src = "addi s1, s0, 0\naddi s2, s0, 6\nloop:\naddi s3, s3, 1\naddi s1, s1, 1\nblt s1, s2, loop\nhalt\n";
        let e = est(src, 4, 0);
        assert!(e.exact, "{e:?}");
        let stats = run(src, 4, vec![]);
        assert_eq!(e.cycles, Interval::exact(stats.cycles));
        assert_eq!(e.instructions, Interval::exact(stats.instructions));
    }

    #[test]
    fn scan_loop_resolves_to_n_and_matches_the_simulator() {
        // A miniature of the emitters' scan shape: top-test on the driver
        // cursor, MEM_FETCH coverage, vector loads, jump latch.
        let src = "outer:\n\
                   be s1, s2, done\n\
                   mem_fetch s1, 16\n\
                   vload v0, s1, 0\n\
                   vadd v1, v1, v0\n\
                   addi s1, s1, 16\n\
                   j outer\n\
                   done:\n\
                   halt\n";
        let n = 5u64;
        let e = est(src, 4, n);
        assert!(e.exact, "{e:?}");
        assert_eq!(e.dram_bytes, Interval::exact(16 * n));

        let dram: Vec<i32> = (0..(4 * n as i32)).collect();
        let mut pu = ProcessingUnit::new(4, Arc::new(dram));
        pu.load_program(assemble(src).expect("assembles"));
        pu.set_sreg(1, DRAM_BASE as i32);
        pu.set_sreg(2, DRAM_BASE as i32 + 16 * n as i32);
        let stats = pu.run(10_000).expect("runs");
        assert_eq!(e.cycles, Interval::exact(stats.cycles));
        assert_eq!(e.instructions, Interval::exact(stats.instructions));
        assert_eq!(e.dram_bytes, Interval::exact(stats.dram.bytes_read));
    }

    #[test]
    fn data_dependent_branch_widens_to_a_containing_interval() {
        let src = "load s1, s0, 0\n\
                   blt s1, s2, skip\n\
                   addi s3, s0, 1\n\
                   skip:\n\
                   halt\n";
        let e = est(src, 4, 0);
        assert!(!e.exact);
        let stats = run(src, 4, vec![]);
        assert!(e.cycles.min <= stats.cycles);
        assert!(e.cycles.max.expect("bounded") >= stats.cycles);
        assert!(e.instructions.min <= stats.instructions);
        assert!(e.instructions.max.expect("bounded") >= stats.instructions);
    }

    #[test]
    fn unknown_nested_walk_reports_unbounded_max() {
        // Inner loop consumes a data-dependent bound: no static trip.
        let src = "addi s5, s0, 3\n\
                   outer:\n\
                   be s1, s2, done\n\
                   mem_fetch s1, 4\n\
                   load s4, s1, 0\n\
                   addi s3, s0, 0\n\
                   walk:\n\
                   addi s3, s3, 1\n\
                   blt s3, s4, walk\n\
                   addi s1, s1, 4\n\
                   j outer\n\
                   done:\n\
                   halt\n";
        let e = est(src, 4, 9);
        assert!(e.cycles.max.is_none());
        assert!(!e.exact);
    }

    #[test]
    fn classification_mirrors_the_telemetry_rule() {
        // Pure compute, zero DRAM traffic: must classify compute-bound.
        let e = est("addi s1, s1, 1\nmult s2, s1, s1\nhalt\n", 4, 0);
        assert_eq!(e.bound, Some(BoundClass::Compute));
        assert!(e.mem_seconds == 0.0 && e.comp_seconds > 0.0);

        // A scan that only streams: one hit vload per vector plus the
        // loop glue — with plentiful compute (many PUs), memory wins.
        let src = "outer:\n\
                   be s1, s2, done\n\
                   mem_fetch s1, 64\n\
                   vload v0, s1, 0\n\
                   addi s1, s1, 64\n\
                   j outer\n\
                   done:\n\
                   halt\n";
        let program = assemble(src).expect("assembles");
        let params = CostParams {
            pus: 8,
            ..CostParams::default()
        };
        let e = estimate_with(&program, 16, 1000, &params);
        assert!(e.exact);
        let comp = e.cycles.min as f64 / (8.0 * params.freq_hz);
        let mem = e.dram_bytes.min as f64 / params.vault_bandwidth;
        let expect = if comp > mem {
            BoundClass::Compute
        } else {
            BoundClass::Memory
        };
        assert_eq!(e.bound, Some(expect));
    }

    #[test]
    fn synthesized_stats_match_the_simulator_bit_for_bit() {
        // Straight-line program.
        let src = "addi s1, s0, 1024\nmult s2, s1, s1\nstore s2, s1, 0\nhalt\n";
        let e = est(src, 4, 0);
        assert_eq!(e.stats, Some(run(src, 4, vec![])));

        // Counted bottom-test loop: needs the exact taken/untaken split.
        let src = "addi s1, s0, 0\naddi s2, s0, 6\nloop:\naddi s3, s3, 1\naddi s1, s1, 1\nblt s1, s2, loop\nhalt\n";
        let e = est(src, 4, 0);
        assert_eq!(e.stats, Some(run(src, 4, vec![])));

        // The mini scan shape: top-test split, prefetch coverage, DRAM
        // vector loads.
        let src = "outer:\n\
                   be s1, s2, done\n\
                   mem_fetch s1, 16\n\
                   vload v0, s1, 0\n\
                   vadd v1, v1, v0\n\
                   addi s1, s1, 16\n\
                   j outer\n\
                   done:\n\
                   halt\n";
        let n = 5u64;
        let e = est(src, 4, n);
        let dram: Vec<i32> = (0..(4 * n as i32)).collect();
        let mut pu = ProcessingUnit::new(4, Arc::new(dram));
        pu.load_program(assemble(src).expect("assembles"));
        pu.set_sreg(1, DRAM_BASE as i32);
        pu.set_sreg(2, DRAM_BASE as i32 + 16 * n as i32);
        let stats = pu.run(10_000).expect("runs");
        assert_eq!(e.stats, Some(stats));
    }

    #[test]
    fn data_dependent_programs_synthesize_no_stats() {
        let src = "load s1, s0, 0\n\
                   blt s1, s2, skip\n\
                   addi s3, s0, 1\n\
                   skip:\n\
                   halt\n";
        assert_eq!(est(src, 4, 0).stats, None);
    }

    /// The full counter set the cost model synthesizes for every linear
    /// hardware-queue kernel — optimized *and* raw image — must equal an
    /// actual simulated run bit for bit. This is the contract the
    /// analytic fast-path executor rests on.
    #[test]
    fn linear_kernel_stats_match_a_real_run_for_the_whole_family() {
        use crate::isa::DRAM_BASE;
        for &vl in &crate::isa::VECTOR_LENGTHS {
            for kernel in [
                crate::kernels::linear::euclidean(24, vl),
                crate::kernels::linear::manhattan(24, vl),
                crate::kernels::linear::hamming(32, vl),
            ] {
                let vw = kernel.layout.vec_words;
                let n = 6usize;
                let dram: Vec<i32> = (0..(n * vw) as i32).map(|i| (i * 37) % 1000).collect();
                let query: Vec<i32> = (0..vw as i32).map(|i| (i * 13) % 500).collect();
                for program in [&kernel.program, &kernel.raw_program] {
                    let e = estimate_with(program, vl, n as u64, &CostParams::default());
                    let mut pu = ProcessingUnit::new(vl, Arc::new(dram.clone()));
                    pu.load_program(program.clone());
                    pu.scratchpad_mut()
                        .write_block(kernel.layout.query_addr, &query)
                        .expect("query fits");
                    pu.set_sreg(1, DRAM_BASE as i32);
                    pu.set_sreg(2, DRAM_BASE as i32 + (n * vw * 4) as i32);
                    pu.set_sreg(3, 0);
                    let stats = pu.run(1_000_000).expect("runs");
                    assert_eq!(
                        e.stats,
                        Some(stats),
                        "{} vl={vl} opt={}",
                        kernel.name,
                        std::ptr::eq(program, &kernel.program)
                    );
                }
            }
        }
    }

    #[test]
    fn linear_kernel_estimate_is_exact_for_the_whole_family() {
        for &vl in &crate::isa::VECTOR_LENGTHS {
            for (k, words) in [
                (
                    crate::kernels::linear::euclidean(24, vl),
                    24usize.div_ceil(vl) * vl,
                ),
                (
                    crate::kernels::linear::manhattan(24, vl),
                    24usize.div_ceil(vl) * vl,
                ),
                (
                    crate::kernels::linear::hamming(32, vl),
                    32usize.div_ceil(vl) * vl,
                ),
            ] {
                let n = 6u64;
                let e = estimate(&k, vl, n);
                assert!(e.exact, "{} vl={vl}: {e:?}", k.name);
                assert_eq!(
                    e.dram_bytes,
                    Interval::exact(n * words as u64 * 4),
                    "{}",
                    k.name
                );
            }
        }
    }
}
