//! Semantics-preserving kernel optimizer.
//!
//! [`optimize`] rewrites an assembled program into a cheaper one with the
//! same observable behavior: the same priority-queue contents, the same
//! scratchpad results, the same architectural effects on every input.
//! `Kernel::build` runs it on every generated kernel, so the ~200 emitted
//! programs in the sweep all ship optimized; the raw program is kept
//! alongside for A/B runs (`SsamConfig::optimize_kernels = false`).
//!
//! Passes, iterated to a fixpoint (bounded by [`OptConfig::max_rounds`]):
//!
//! 1. **Sparse conditional constant propagation** over the shared
//!    lattice of `constprop`, with feasible-edge narrowing: a
//!    branch whose comparands are both constant contributes only its
//!    taken (or fallthrough) edge, so loop bodies whose trip count
//!    degenerates to one — e.g. a `dims ≤ VL` scan, where the counted
//!    inner loop runs exactly once — lose their back edge entirely.
//!    Constant operands are folded into immediate forms and constant
//!    results into canonical `addi rd, s0, imm` loads.
//! 2. **Unreachable-code and resolved-branch elimination** — anything
//!    SCCP proves unreachable, and branches it resolves, are deleted
//!    with branch targets remapped.
//! 3. **Dead-code elimination** via backward liveness (the
//!    `cfg::backward_fixpoint` solver over `(sreg, vreg)`
//!    masks). Only effect-free instruction shapes are candidates:
//!    ALU/move/fxp results never read again. Loads, stores, prefetches,
//!    and queue/stack operations always survive — they carry timing or
//!    architectural effects the liveness mask does not see.
//! 4. **Redundant scratchpad-load elimination** within basic blocks: a
//!    reload of `(base, offset)` whose previous value still sits in a
//!    register becomes a register copy. Any store invalidates the whole
//!    table (the PU has no alias analysis); data under the PU is
//!    otherwise read-only.
//! 5. **Loop-invariant code motion** for constant materializations
//!    (`op rd, s0, imm`) inside natural loops (from `loops`): the
//!    single def is hoisted immediately before the loop header when no
//!    path can observe the difference.
//!
//! What the optimizer will *not* touch: `LOAD`/`VLOAD` (other than the
//! provably-redundant scratchpad case), `MEM_FETCH` (prefetch timing is
//! observable in cycle counts and deliberately preserved relative to the
//! data accesses), and everything with architectural side effects
//! (queue, stack, stores). Fault injection ([`ssam_faults::FaultPlan`])
//! keys on `(seed, query, vault)` — never on instruction indices — so
//! optimization is transparent to injected faults by construction.

use std::collections::VecDeque;

use crate::isa::inst::{AluOp, Instruction};
use crate::isa::reg::SReg;

use super::cfg::{backward_fixpoint, Cfg};
use super::constprop::{self, Consts, Val};
use super::loops::{Dominators, LoopForest};
use super::uses;

/// Optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Scalar registers that must hold their final values at `HALT`
    /// (bitmask). Kernel results travel through the priority queue and
    /// the scratchpad, never through registers, so the default is 0;
    /// harnesses that read registers after a run can widen it.
    pub preserve_sregs: u32,
    /// Maximum fold/DCE/LICM rounds before giving up on a fixpoint.
    pub max_rounds: usize,
}

impl Default for OptConfig {
    fn default() -> Self {
        Self {
            preserve_sregs: 0,
            max_rounds: 4,
        }
    }
}

/// What the optimizer did to one program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Instruction count before optimization.
    pub instructions_before: usize,
    /// Instruction count after optimization.
    pub instructions_after: usize,
    /// Constant-operand/result rewrites (folds into immediate forms).
    pub folded: usize,
    /// Branches resolved to a constant direction (removed or jumpified).
    pub branches_resolved: usize,
    /// Instructions removed as unreachable.
    pub unreachable_removed: usize,
    /// Instructions removed as dead (result never observed).
    pub dead_removed: usize,
    /// Scratchpad reloads turned into register copies.
    pub redundant_loads: usize,
    /// Loop-invariant constant materializations hoisted out of loops.
    pub hoisted: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
}

impl OptReport {
    /// Instructions saved, as a fraction of the input size.
    pub fn reduction(&self) -> f64 {
        if self.instructions_before == 0 {
            0.0
        } else {
            (self.instructions_before - self.instructions_after) as f64
                / self.instructions_before as f64
        }
    }
}

/// Optimizes `program`, returning the new program and a report.
///
/// The result is observationally equivalent to the input: identical
/// architectural effects (queue, scratchpad, memory traffic ordering of
/// the surviving accesses) on every input state. Instruction count never
/// increases.
pub fn optimize(program: &[Instruction], config: &OptConfig) -> (Vec<Instruction>, OptReport) {
    let mut report = OptReport {
        instructions_before: program.len(),
        instructions_after: program.len(),
        ..OptReport::default()
    };
    let mut prog = program.to_vec();
    for round in 1..=config.max_rounds {
        report.rounds = round;
        let at_round_start = prog.clone();
        fold_and_prune(&mut prog, &mut report);
        eliminate_dead(&mut prog, config, &mut report);
        eliminate_redundant_loads(&mut prog, &mut report);
        prune_trivial_jumps(&mut prog);
        hoist_invariants(&mut prog, config, &mut report);
        if prog == at_round_start {
            break;
        }
    }
    debug_assert!(prog.len() <= program.len());
    report.instructions_after = prog.len();
    (prog, report)
}

/// Successor set of `pc` under the abstract state `s`, with constant
/// branches narrowed to their single feasible edge. Out-of-range targets
/// are dropped (mirroring [`Cfg::build`]).
fn feasible_succs(program: &[Instruction], pc: u32, s: &Consts) -> Vec<u32> {
    let len = program.len() as u32;
    let mut out = Vec::with_capacity(2);
    match program[pc as usize] {
        Instruction::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => match (s.get(rs1.0), s.get(rs2.0)) {
            (Val::Const(a), Val::Const(b)) => {
                if cond.eval(a, b) {
                    out.push(target);
                } else {
                    out.push(pc + 1);
                }
            }
            _ => {
                out.push(target);
                out.push(pc + 1);
            }
        },
        Instruction::Jump { target } => out.push(target),
        Instruction::Halt => {}
        _ => out.push(pc + 1),
    }
    out.retain(|&t| t < len);
    out
}

/// Sparse conditional constant propagation: in-states for reachable pcs
/// under feasible-edge narrowing, `None` for pcs no feasible path hits.
fn sccp(program: &[Instruction]) -> Vec<Option<Consts>> {
    let len = program.len();
    let mut in_states: Vec<Option<Consts>> = vec![None; len];
    if len == 0 {
        return in_states;
    }
    in_states[0] = Some(Consts::entry());
    let mut queued = vec![false; len];
    queued[0] = true;
    let mut wl = VecDeque::from([0u32]);
    while let Some(pc) = wl.pop_front() {
        queued[pc as usize] = false;
        let state = in_states[pc as usize].expect("queued pcs have states");
        let out = constprop::transfer(&program[pc as usize], &state);
        for succ in feasible_succs(program, pc, &state) {
            let merged = match &in_states[succ as usize] {
                None => out,
                Some(cur) => constprop::join(cur, &out),
            };
            if in_states[succ as usize] != Some(merged) {
                in_states[succ as usize] = Some(merged);
                if !queued[succ as usize] {
                    queued[succ as usize] = true;
                    wl.push_back(succ);
                }
            }
        }
    }
    in_states
}

/// Commutative two-operand ops (safe to swap `rs1`/`rs2`).
fn commutative(op: AluOp) -> bool {
    matches!(
        op,
        AluOp::Add | AluOp::Mult | AluOp::And | AluOp::Or | AluOp::Xor
    )
}

/// The canonical constant load.
fn load_imm(rd: SReg, value: i32) -> Instruction {
    Instruction::SAluImm {
        op: AluOp::Add,
        rd,
        rs1: SReg(0),
        imm: value,
    }
}

/// SCCP-driven rewrite: fold constant operands/results, resolve constant
/// branches, delete everything no feasible path reaches.
fn fold_and_prune(prog: &mut Vec<Instruction>, report: &mut OptReport) {
    let states = sccp(prog);
    let len = prog.len();
    let mut kill = vec![false; len];
    for pc in 0..len {
        let Some(state) = &states[pc] else {
            kill[pc] = true;
            report.unreachable_removed += 1;
            continue;
        };
        let old = prog[pc];
        let new = match old {
            Instruction::SAlu { op, rd, rs1, rs2 } => match (state.get(rs1.0), state.get(rs2.0)) {
                (Val::Const(a), Val::Const(b)) => Some(load_imm(rd, op.eval(a, b))),
                (_, Val::Const(b)) => Some(Instruction::SAluImm {
                    op,
                    rd,
                    rs1,
                    imm: b,
                }),
                (Val::Const(a), _) if commutative(op) => Some(Instruction::SAluImm {
                    op,
                    rd,
                    rs1: rs2,
                    imm: a,
                }),
                _ => None,
            },
            Instruction::SAluImm { op, rd, rs1, imm } => match state.get(rs1.0) {
                Val::Const(a) => Some(load_imm(rd, op.eval(a, imm))),
                Val::Top => None,
            },
            Instruction::SUnary { op, rd, rs1 } => match state.get(rs1.0) {
                Val::Const(a) => Some(load_imm(rd, op.eval(a))),
                Val::Top => None,
            },
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => match (state.get(rs1.0), state.get(rs2.0)) {
                (Val::Const(a), Val::Const(b)) => {
                    report.branches_resolved += 1;
                    if cond.eval(a, b) {
                        Some(Instruction::Jump { target })
                    } else {
                        kill[pc] = true;
                        None
                    }
                }
                _ => None,
            },
            _ => None,
        };
        if let Some(new) = new {
            if new != old {
                if !matches!(old, Instruction::Branch { .. }) {
                    report.folded += 1;
                }
                prog[pc] = new;
            }
        }
    }
    compact(prog, &kill);
}

/// Liveness state: (scalar mask, vector mask).
type Live = (u32, u8);

fn live_transfer(inst: &Instruction, out: &Live) -> Live {
    let (mut s, mut v) = *out;
    if let Some(r) = uses::sreg_write(inst) {
        if r.0 != 0 {
            s &= !(1u32 << r.0);
        }
    }
    if let Some(r) = uses::vreg_write(inst) {
        v &= !(1u8 << r.0);
    }
    uses::for_each_sreg_read(inst, |r| s |= 1u32 << r.0);
    uses::for_each_vreg_read(inst, |r| v |= 1u8 << r.0);
    (s, v)
}

fn live_join(a: &Live, b: &Live) -> Live {
    (a.0 | b.0, a.1 | b.1)
}

/// Shapes whose only effect is their register result. Everything else
/// (memory, queue, stack, control, prefetch) has effects liveness cannot
/// see and must survive.
fn effect_free(inst: &Instruction) -> bool {
    matches!(
        inst,
        Instruction::SAlu { .. }
            | Instruction::SAluImm { .. }
            | Instruction::SUnary { .. }
            | Instruction::Sfxp { .. }
            | Instruction::VsMove { .. }
            | Instruction::SvMove { .. }
            | Instruction::VAlu { .. }
            | Instruction::VAluImm { .. }
            | Instruction::VUnary { .. }
            | Instruction::Vfxp { .. }
    )
}

/// Computes per-pc live-out masks for the whole program.
fn liveness(prog: &[Instruction], config: &OptConfig) -> Vec<Live> {
    let mut diags = Vec::new();
    let cfg = Cfg::build(prog, &mut diags);
    backward_fixpoint(
        prog,
        &cfg,
        (config.preserve_sregs, 0u8),
        live_join,
        |_, inst, out| live_transfer(inst, out),
    )
}

/// Removes effect-free instructions whose result is never observed.
fn eliminate_dead(prog: &mut Vec<Instruction>, config: &OptConfig, report: &mut OptReport) {
    let live = liveness(prog, config);
    let mut kill = vec![false; prog.len()];
    for (pc, inst) in prog.iter().enumerate() {
        if !effect_free(inst) {
            continue;
        }
        let (live_s, live_v) = live[pc];
        let dead = match (uses::sreg_write(inst), uses::vreg_write(inst)) {
            (Some(r), None) => r.0 == 0 || live_s & (1u32 << r.0) == 0,
            (None, Some(r)) => live_v & (1u8 << r.0) == 0,
            _ => false,
        };
        if dead {
            kill[pc] = true;
            report.dead_removed += 1;
        }
    }
    compact(prog, &kill);
}

/// Within each basic block, turns a reload of a `(base, offset)` slot
/// whose value still lives in a register into a register copy. Stores
/// invalidate everything; redefinitions invalidate affected entries.
fn eliminate_redundant_loads(prog: &mut [Instruction], report: &mut OptReport) {
    let len = prog.len();
    if len == 0 {
        return;
    }
    let mut leader = vec![false; len];
    leader[0] = true;
    for pc in 0..len {
        match prog[pc] {
            Instruction::Branch { target, .. } => {
                leader[target as usize] = true;
                if pc + 1 < len {
                    leader[pc + 1] = true;
                }
            }
            Instruction::Jump { target } => {
                leader[target as usize] = true;
                if pc + 1 < len {
                    leader[pc + 1] = true;
                }
            }
            Instruction::Halt if pc + 1 < len => leader[pc + 1] = true,
            _ => {}
        }
    }

    // (base reg, offset) → register currently holding that slot's value.
    let mut avail: Vec<((u8, i32), u8)> = Vec::new();
    for pc in 0..len {
        if leader[pc] {
            avail.clear();
        }
        let inst = prog[pc];
        let mut learned: Option<((u8, i32), u8)> = None;
        match inst {
            Instruction::Load {
                rd,
                rs_base,
                offset,
            } => {
                let key = (rs_base.0, offset);
                if let Some(&(_, holder)) = avail.iter().find(|(k, _)| *k == key) {
                    prog[pc] = Instruction::SAluImm {
                        op: AluOp::Add,
                        rd,
                        rs1: SReg(holder),
                        imm: 0,
                    };
                    report.redundant_loads += 1;
                } else {
                    learned = Some((key, rd.0));
                }
            }
            Instruction::Store { .. } | Instruction::VStore { .. } => avail.clear(),
            _ => {}
        }
        // A write to any register drops entries that used it as base or
        // holder (including the load's own destination).
        if let Some(w) = uses::sreg_write(&prog[pc]) {
            if w.0 != 0 {
                avail.retain(|((base, _), holder)| *base != w.0 && *holder != w.0);
            }
        }
        if let Some((key, holder)) = learned {
            if key.0 != holder {
                avail.push((key, holder));
            }
        }
    }
}

/// Removes jumps to the immediately following instruction.
fn prune_trivial_jumps(prog: &mut Vec<Instruction>) {
    let kill: Vec<bool> = prog
        .iter()
        .enumerate()
        .map(
            |(pc, inst)| matches!(inst, Instruction::Jump { target } if *target as usize == pc + 1),
        )
        .collect();
    if kill.iter().any(|&k| k) {
        compact(prog, &kill);
    }
}

/// Deletes killed instructions, remapping every branch/jump target to the
/// first surviving instruction at or after it. Bails out (keeps the
/// program unchanged) if a surviving branch would point past the end —
/// which cannot happen for lint-clean inputs, where every reachable path
/// ends in a `HALT` that is never killed.
fn compact(prog: &mut Vec<Instruction>, kill: &[bool]) {
    let len = prog.len();
    if !kill.iter().any(|&k| k) {
        return;
    }
    let mut new_of = vec![u32::MAX; len];
    let mut count = 0u32;
    for t in 0..len {
        if !kill[t] {
            new_of[t] = count;
            count += 1;
        }
    }
    // First surviving instruction at or after t.
    let mut next_at = vec![count; len + 1];
    for t in (0..len).rev() {
        next_at[t] = if kill[t] { next_at[t + 1] } else { new_of[t] };
    }
    for (t, inst) in prog.iter().enumerate() {
        if kill[t] {
            continue;
        }
        let target = match inst {
            Instruction::Branch { target, .. } | Instruction::Jump { target } => *target,
            _ => continue,
        };
        if next_at[target as usize] >= count {
            return; // a live branch would dangle; refuse to transform
        }
    }
    let mut out = Vec::with_capacity(count as usize);
    for (t, &inst) in prog.iter().enumerate() {
        if kill[t] {
            continue;
        }
        out.push(match inst {
            Instruction::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => Instruction::Branch {
                cond,
                rs1,
                rs2,
                target: next_at[target as usize],
            },
            Instruction::Jump { target } => Instruction::Jump {
                target: next_at[target as usize],
            },
            other => other,
        });
    }
    *prog = out;
}

/// One LICM step: finds a hoistable loop-invariant constant
/// materialization and moves it immediately before its loop header.
/// Returns `true` if a hoist happened. Iterated by [`hoist_invariants`];
/// one rebuild per hoist keeps the index remapping simple, and the
/// number of candidates per kernel is tiny.
fn hoist_one(prog: &mut Vec<Instruction>, config: &OptConfig) -> bool {
    let mut diags = Vec::new();
    let cfg = Cfg::build(prog, &mut diags);
    let dom = Dominators::compute(&cfg);
    let forest = LoopForest::build(&cfg, &dom);
    if forest.loops.is_empty() {
        return false;
    }
    let live = liveness(prog, config);
    let len = prog.len();

    // Branch/jump target set: hoisting deletes the def's pc, which is
    // only safe when nothing jumps straight to it.
    let mut is_target = vec![false; len];
    for inst in prog.iter() {
        match inst {
            Instruction::Branch { target, .. } | Instruction::Jump { target } => {
                is_target[*target as usize] = true
            }
            _ => {}
        }
    }

    for d in 0..len {
        let Instruction::SAluImm { rd, rs1, .. } = prog[d] else {
            continue;
        };
        if rs1.0 != 0 || rd.0 == 0 || is_target[d] {
            continue; // only constant materializations, never labels
        }
        let Some(li) = forest.innermost[d] else {
            continue;
        };
        let lp = &forest.loops[li];
        let h = lp.header as usize;
        if d == h {
            continue;
        }

        // Single def of rd inside the loop.
        let defs_in_loop = (0..len)
            .filter(|&p| lp.contains(p as u32) && uses::sreg_write(&prog[p]) == Some(rd))
            .count();
        if defs_in_loop != 1 {
            continue;
        }

        // rd must not be observable before the def on the first
        // iteration: not live into the header.
        let header_in = live_transfer(&prog[h], &live[h]);
        if header_in.0 & (1u32 << rd.0) != 0 {
            continue;
        }

        // Exit safety: on paths that leave the loop without executing the
        // def, hoisting changes rd — so either rd is dead on every exit
        // edge, or the def dominates every exiting block.
        let mut exits_safe = true;
        let mut def_dominates_exits = true;
        for p in 0..len as u32 {
            if !lp.contains(p) {
                continue;
            }
            for &s in &cfg.succs[p as usize] {
                if lp.contains(s) {
                    continue;
                }
                let succ_in = live_transfer(&prog[s as usize], &live[s as usize]);
                if succ_in.0 & (1u32 << rd.0) != 0 {
                    exits_safe = false;
                }
                if !dom.dominates(d as u32, p) {
                    def_dominates_exits = false;
                }
            }
        }
        if !(exits_safe || def_dominates_exits) {
            continue;
        }

        // Natural-loop side-entry guard: every edge from outside the body
        // must target the header.
        let mut side_entry = false;
        for p in 0..len as u32 {
            if lp.contains(p) {
                continue;
            }
            for &s in &cfg.succs[p as usize] {
                if lp.contains(s) && s != lp.header {
                    side_entry = true;
                }
            }
        }
        if side_entry {
            continue;
        }

        // Rebuild: insert the def at the header, drop the original.
        let hoisted = prog[d];
        let remap = |t: u32, src_in_body: bool| -> u32 {
            let t = t as usize;
            if t < h {
                t as u32
            } else if t == h {
                if src_in_body {
                    (h + 1) as u32 // back edges skip the hoisted def
                } else {
                    h as u32 // outside entries run it first
                }
            } else if t < d {
                (t + 1) as u32
            } else {
                // t == d is excluded by is_target; t > d nets out to t.
                t as u32
            }
        };
        let mut out = Vec::with_capacity(len);
        for (pc, &inst) in prog.iter().enumerate() {
            if pc == h {
                out.push(hoisted);
            }
            if pc == d {
                continue;
            }
            let in_body = lp.contains(pc as u32);
            out.push(match inst {
                Instruction::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => Instruction::Branch {
                    cond,
                    rs1,
                    rs2,
                    target: remap(target, in_body),
                },
                Instruction::Jump { target } => Instruction::Jump {
                    target: remap(target, in_body),
                },
                other => other,
            });
        }
        *prog = out;
        return true;
    }
    false
}

/// Runs LICM to a local fixpoint.
fn hoist_invariants(prog: &mut Vec<Instruction>, config: &OptConfig, report: &mut OptReport) {
    // Each hoist rebuilds the CFG; cap at program length as a safety net.
    for _ in 0..prog.len() {
        if !hoist_one(prog, config) {
            return;
        }
        report.hoisted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::sim::pu::ProcessingUnit;
    use std::sync::Arc;

    fn opt(src: &str) -> (Vec<Instruction>, Vec<Instruction>, OptReport) {
        let program = assemble(src).expect("assembles");
        let (optimized, report) = optimize(&program, &OptConfig::default());
        (program, optimized, report)
    }

    /// Runs both programs on identical PUs and asserts identical
    /// architectural results (queue contents + scratchpad)
    fn assert_equivalent(a: &[Instruction], b: &[Instruction], dram: &[i32], sregs: &[(u8, i32)]) {
        let run = |prog: &[Instruction]| {
            let mut pu = ProcessingUnit::new(4, Arc::new(dram.to_vec()));
            pu.load_program(prog.to_vec());
            for &(r, v) in sregs {
                pu.set_sreg(r as usize, v);
            }
            let stats = pu.run(1_000_000).expect("halts");
            let queue: Vec<(i32, i32)> = pu
                .pqueue()
                .entries()
                .iter()
                .map(|e| (e.value, e.id))
                .collect();
            (queue, stats.cycles)
        };
        let (qa, ca) = run(a);
        let (qb, cb) = run(b);
        assert_eq!(qa, qb, "architectural results diverge");
        assert!(
            cb <= ca,
            "optimization made the program slower: {ca} → {cb}"
        );
    }

    #[test]
    fn constant_chain_folds_to_immediates() {
        let (_, optimized, report) = opt("addi s1, s0, 6\n\
             addi s2, s0, 7\n\
             add s3, s1, s2\n\
             pqueue_reset\n\
             pqueue_insert s0, s3\n\
             halt\n");
        assert!(report.folded >= 1, "{report:?}");
        assert!(report.dead_removed >= 2, "{report:?}");
        // The adds collapse into one constant load feeding the insert.
        assert!(optimized.len() <= 4, "{optimized:?}");
        assert!(optimized.contains(&load_imm(SReg(3), 13)));
    }

    #[test]
    fn constant_branch_resolves_and_kills_the_dead_arm() {
        let (program, optimized, report) = opt("addi s1, s0, 1\n\
             addi s2, s0, 2\n\
             blt s2, s1, less\n\
             pqueue_reset\n\
             pqueue_insert s0, s2\n\
             halt\n\
             less:\n\
             pqueue_reset\n\
             pqueue_insert s0, s1\n\
             halt\n");
        assert!(report.branches_resolved >= 1, "{report:?}");
        assert!(report.unreachable_removed >= 3, "{report:?}");
        assert!(optimized.len() < program.len());
        assert_equivalent(&program, &optimized, &[], &[]);
    }

    #[test]
    fn degenerate_counted_loop_loses_its_back_edge() {
        // chunks == 1: the inner loop runs exactly once, so the counter,
        // the bound, and the branch all fold away.
        let src = "addi s6, s0, 1\n\
                   addi s5, s0, 0\n\
                   inner:\n\
                   load s7, s1, 0\n\
                   addi s1, s1, 4\n\
                   addi s5, s5, 1\n\
                   blt s5, s6, inner\n\
                   pqueue_reset\n\
                   pqueue_insert s0, s7\n\
                   halt\n";
        let (program, optimized, report) = opt(src);
        assert!(report.branches_resolved >= 1, "{report:?}");
        assert!(
            !optimized
                .iter()
                .any(|i| matches!(i, Instruction::Branch { .. })),
            "back edge should be gone: {optimized:?}"
        );
        assert!(optimized.len() + 3 <= program.len(), "{optimized:?}");
        assert_equivalent(&program, &optimized, &[11, 22, 33], &[(1, 0)]);
    }

    #[test]
    fn dead_code_is_removed_but_loads_survive() {
        let (_, optimized, report) = opt("addi s9, s0, 42\n\
             load s8, s0, 0\n\
             pqueue_reset\n\
             pqueue_insert s0, s0\n\
             halt\n");
        // s9 is dead; the load's value is dead too, but loads are never
        // removed (timing + DRAM statistics are observable).
        assert!(report.dead_removed >= 1, "{report:?}");
        assert!(!optimized.contains(&load_imm(SReg(9), 42)));
        assert!(optimized
            .iter()
            .any(|i| matches!(i, Instruction::Load { .. })));
    }

    #[test]
    fn redundant_scratchpad_reload_becomes_a_copy() {
        let src = "addi s1, s0, 64\n\
                   load s2, s1, 0\n\
                   load s3, s1, 0\n\
                   pqueue_reset\n\
                   pqueue_insert s2, s3\n\
                   halt\n";
        let (program, optimized, report) = opt(src);
        assert_eq!(report.redundant_loads, 1, "{report:?}");
        assert_eq!(
            optimized
                .iter()
                .filter(|i| matches!(i, Instruction::Load { .. }))
                .count(),
            1
        );
        assert_equivalent(&program, &optimized, &[], &[]);
    }

    #[test]
    fn stores_invalidate_the_reload_table() {
        let src = "addi s1, s0, 64\n\
                   load s2, s1, 0\n\
                   store s0, s1, 0\n\
                   load s3, s1, 0\n\
                   pqueue_reset\n\
                   pqueue_insert s2, s3\n\
                   halt\n";
        let (_, optimized, report) = opt(src);
        assert_eq!(report.redundant_loads, 0, "{report:?}");
        assert_eq!(
            optimized
                .iter()
                .filter(|i| matches!(i, Instruction::Load { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn loop_invariant_constant_is_hoisted() {
        // s9 is rematerialized every iteration and consumed by an
        // instruction with no immediate form (PQUEUE_INSERT), so const
        // folding cannot absorb it — LICM must move it out.
        let src = "pqueue_reset\n\
                   addi s1, s0, 0\n\
                   addi s2, s0, 3\n\
                   loop:\n\
                   add s4, s1, s0\n\
                   addi s9, s0, 7\n\
                   pqueue_insert s9, s4\n\
                   addi s1, s1, 1\n\
                   blt s1, s2, loop\n\
                   halt\n";
        let (program, optimized, report) = opt(src);
        assert!(report.hoisted >= 1, "{report:?}");
        assert_equivalent(&program, &optimized, &[], &[]);
        // Exactly one copy of the def survives, before the loop.
        let count = optimized
            .iter()
            .filter(|i| **i == load_imm(SReg(9), 7))
            .count();
        assert_eq!(count, 1);
        let def_at = optimized
            .iter()
            .position(|i| *i == load_imm(SReg(9), 7))
            .unwrap();
        let branch_at = optimized
            .iter()
            .position(|i| matches!(i, Instruction::Branch { .. }))
            .unwrap();
        let back_target = match optimized[branch_at] {
            Instruction::Branch { target, .. } => target as usize,
            _ => unreachable!(),
        };
        assert!(def_at < back_target, "def must sit before the loop header");
    }

    #[test]
    fn live_in_register_is_not_hoisted() {
        // s9 is read before its def on iteration one (via s4 entry
        // value), so hoisting would change the first iteration.
        let src = "addi s1, s0, 0\n\
                   addi s2, s0, 3\n\
                   addi s9, s0, 100\n\
                   loop:\n\
                   add s3, s3, s9\n\
                   addi s9, s0, 7\n\
                   addi s1, s1, 1\n\
                   blt s1, s2, loop\n\
                   pqueue_reset\n\
                   pqueue_insert s0, s3\n\
                   halt\n";
        let (program, optimized, _) = opt(src);
        assert_equivalent(&program, &optimized, &[], &[(3, 0)]);
    }

    #[test]
    fn optimization_is_idempotent() {
        let src = "addi s6, s0, 1\n\
                   addi s5, s0, 0\n\
                   inner:\n\
                   load s7, s1, 0\n\
                   addi s5, s5, 1\n\
                   blt s5, s6, inner\n\
                   pqueue_reset\n\
                   pqueue_insert s0, s7\n\
                   halt\n";
        let program = assemble(src).expect("assembles");
        let (once, _) = optimize(&program, &OptConfig::default());
        let (twice, report2) = optimize(&once, &OptConfig::default());
        assert_eq!(once, twice);
        assert_eq!(report2.instructions_before, report2.instructions_after);
    }

    #[test]
    fn preserve_sregs_keeps_final_values() {
        let src = "addi s9, s0, 42\nhalt\n";
        let program = assemble(src).expect("assembles");
        let (stripped, _) = optimize(&program, &OptConfig::default());
        assert_eq!(stripped.len(), 1, "dead by default: {stripped:?}");
        let (kept, _) = optimize(
            &program,
            &OptConfig {
                preserve_sregs: 1 << 9,
                ..OptConfig::default()
            },
        );
        assert_eq!(kept.len(), 2, "preserved when requested: {kept:?}");
    }

    #[test]
    fn empty_program_is_a_no_op() {
        let (optimized, report) = optimize(&[], &OptConfig::default());
        assert!(optimized.is_empty());
        assert_eq!(report.instructions_after, 0);
    }
}
