//! Linear-scan kNN kernels, one generator per distance metric.
//!
//! Every metric comes in two flavors: the canonical hardware-queue kernel
//! (single-cycle `PQUEUE_INSERT` per candidate) and a `_swqueue` variant
//! for the Section V-B ablation that keeps the top-k in a
//! scratchpad-resident software priority queue. The per-candidate
//! distance loops are shared between the two flavors (`*_inner` /
//! `cosine_tail` below), so the ablation measures exactly the queue cost
//! and nothing else.

use super::{sreg_mask, Kernel, KernelLayout};

/// Scratchpad byte address of the software-queue region (the query lives
/// at address 0; 16 KB leaves ample room for padded 4096-d queries).
pub const SWQUEUE_ADDR: u32 = 16 * 1024;

fn pad_to(dims: usize, vl: usize) -> usize {
    dims.div_ceil(vl) * vl
}

/// Emits the per-lane reduction of vector register `vreg` into scalar
/// `s7` (via the `VSMOVE` lane-extract path — the PU has no cross-lane
/// reduction network).
pub(crate) fn reduce_lanes(vreg: &str, vl: usize) -> String {
    let mut s = String::from("    addi s7, s0, 0\n");
    for l in 0..vl {
        s.push_str(&format!("    vsmove s8, {vreg}, {l}\n    add s7, s7, s8\n"));
    }
    s
}

/// Shared scan prologue: `s6` = chunks per vector; loop head streams one
/// candidate per iteration with a `MEM_FETCH` window over the whole
/// vector.
fn scan_prologue(chunks: usize, vec_bytes: usize, extra: &str) -> String {
    format!(
        "; driver contract: s1 = shard base, s2 = shard end, s3 = first id\n\
         start:\n\
         \x20   addi s6, s0, {chunks}\n\
         {extra}\
         outer:\n\
         \x20   be   s1, s2, done\n\
         \x20   mem_fetch s1, {vec_bytes}\n\
         \x20   addi s4, s0, 0          ; query pointer (scratchpad)\n\
         \x20   addi s5, s0, 0          ; chunk counter\n"
    )
}

/// Shared scan epilogue: advance the id and loop.
const SCAN_EPILOGUE: &str = "    addi s3, s3, 1\n    j outer\ndone:\n    halt\n";

/// Software-queue prologue line: `s19` = queue base address.
fn swqueue_prologue(qbase: u32) -> String {
    format!("    addi s19, s0, {qbase}     ; software queue base\n")
}

/// Chunked squared-Euclidean accumulation into `v2`.
fn euclidean_inner(vlb: usize) -> String {
    format!(
        "inner:\n\
         \x20   vload v0, s1, 0\n\
         \x20   vload v1, s4, 0\n\
         \x20   vsub  v0, v0, v1\n\
         \x20   vmult v0, v0, v0\n\
         \x20   vadd  v2, v2, v0\n\
         \x20   addi  s1, s1, {vlb}\n\
         \x20   addi  s4, s4, {vlb}\n\
         \x20   addi  s5, s5, 1\n\
         \x20   blt   s5, s6, inner\n"
    )
}

/// Chunked Manhattan accumulation into `v2`; `|d|` is computed
/// branch-free as `(d ^ (d >> 31)) - (d >> 31)` on the vector datapath.
fn manhattan_inner(vlb: usize) -> String {
    format!(
        "inner:\n\
         \x20   vload v0, s1, 0\n\
         \x20   vload v1, s4, 0\n\
         \x20   vsub  v0, v0, v1\n\
         \x20   vsra  v3, v0, 31\n\
         \x20   vxor  v0, v0, v3\n\
         \x20   vsub  v0, v0, v3\n\
         \x20   vadd  v2, v2, v0\n\
         \x20   addi  s1, s1, {vlb}\n\
         \x20   addi  s4, s4, {vlb}\n\
         \x20   addi  s5, s5, 1\n\
         \x20   blt   s5, s6, inner\n"
    )
}

/// Chunked xor-popcount accumulation into `v2` via the fused `VFXP`
/// instruction (32 binary dimensions per lane per instruction — the
/// Table V speedup).
fn hamming_inner(vlb: usize) -> String {
    format!(
        "inner:\n\
         \x20   vload v0, s1, 0\n\
         \x20   vload v1, s4, 0\n\
         \x20   vfxp  v2, v0, v1\n\
         \x20   addi  s1, s1, {vlb}\n\
         \x20   addi  s4, s4, {vlb}\n\
         \x20   addi  s5, s5, 1\n\
         \x20   blt   s5, s6, inner\n"
    )
}

/// Chunked one-pass dot/norm accumulation (`v2` = Σ a·b, `v3` = Σ b·b)
/// for the cosine kernel.
fn cosine_inner(vlb: usize) -> String {
    format!(
        "inner:\n\
         \x20   vload v0, s1, 0\n\
         \x20   vload v1, s4, 0\n\
         \x20   vmult v4, v0, v1\n\
         \x20   vadd  v2, v2, v4\n\
         \x20   vmult v4, v0, v0\n\
         \x20   vadd  v3, v3, v4\n\
         \x20   addi  s1, s1, {vlb}\n\
         \x20   addi  s4, s4, {vlb}\n\
         \x20   addi  s5, s5, 1\n\
         \x20   blt   s5, s6, inner\n"
    )
}

/// Cosine post-loop: lane-reduce dot (`s20`) and candidate norm (`s9`),
/// run the 17-step restoring software division, and leave the
/// sign-corrected distance `1 ∓ cos²` (Q16.16) in `s18` at label
/// `insert`. The caller appends the queue sink.
fn cosine_tail(vl: usize) -> String {
    let mut s = reduce_lanes("v2", vl);
    s.push_str("    add  s20, s7, s0        ; s20 = dot\n");
    s.push_str(&reduce_lanes("v3", vl));
    s.push_str("    add  s9, s7, s0         ; s9 = candidate norm\n");
    s.push_str(
        "    mult s12, s20, s20      ; dot^2 (Q16.16)\n\
         \x20   mult s13, s9, s10       ; denom = |a|^2 * |b|^2\n\
         \x20   addi s14, s0, 0         ; quotient\n\
         \x20   be   s13, s0, divdone   ; zero norm: cos = 0\n\
         \x20   add  s15, s12, s0       ; remainder = numerator\n\
         \x20   addi s16, s0, 0         ; step\n\
         divloop:\n\
         \x20   sl   s14, s14, 1\n\
         \x20   blt  s15, s13, divskip\n\
         \x20   sub  s15, s15, s13\n\
         \x20   ori  s14, s14, 1\n\
         divskip:\n\
         \x20   sl   s15, s15, 1\n\
         \x20   addi s16, s16, 1\n\
         \x20   blt  s16, s17, divloop\n\
         divdone:\n\
         \x20   addi s18, s0, 65536     ; 1.0 in Q16.16\n\
         \x20   blt  s20, s0, negdot\n\
         \x20   sub  s18, s18, s14      ; dist = 1 - cos^2\n\
         \x20   j    insert\n\
         negdot:\n\
         \x20   add  s18, s18, s14      ; dist = 1 + cos^2\n\
         insert:\n",
    );
    s
}

/// Emits the scratchpad software priority-queue insert for the Section
/// V-B ablation: the queue region at `s19` holds `k` `(value, id)` pairs
/// sorted ascending (driver-initialized to `(i32::MAX, -1)`). Each
/// candidate first compares against the cached worst entry; a retained
/// candidate pays a position scan plus an entry-shifting loop — "the
/// overhead of a priority queue insert becomes non-trivial for shorter
/// vectors" (Section III-C).
///
/// `dist` is the scalar register holding the candidate distance; the id
/// is always `s3`. Temporaries `s21`–`s27` are used so the emitter
/// composes with every metric's distance code (the cosine tail keeps
/// `s9`/`s10`/`s12`–`s18`/`s20` live across outer iterations).
fn swqueue_insert(dist: &str, k: usize) -> String {
    assert!(k > 0, "k must be positive");
    let worst_off = 8 * (k - 1);
    format!(
        "    ; software priority-queue insert: {dist} = dist, s3 = id\n\
         \x20   load s21, s19, {worst_off}\n\
         \x20   blt  {dist}, s21, swins\n\
         \x20   j    next\n\
         swins:\n\
         \x20   addi s22, s0, 0         ; scan position\n\
         findpos:\n\
         \x20   sl   s23, s22, 3\n\
         \x20   add  s23, s23, s19\n\
         \x20   load s24, s23, 0\n\
         \x20   blt  {dist}, s24, found\n\
         \x20   addi s22, s22, 1\n\
         \x20   j    findpos\n\
         found:\n\
         \x20   addi s25, s0, {last}    ; shift tail down from the back\n\
         shift:\n\
         \x20   be   s25, s22, place\n\
         \x20   subi s26, s25, 1\n\
         \x20   sl   s27, s26, 3\n\
         \x20   add  s27, s27, s19\n\
         \x20   load s24, s27, 0\n\
         \x20   load s23, s27, 4\n\
         \x20   sl   s21, s25, 3\n\
         \x20   add  s21, s21, s19\n\
         \x20   store s24, s21, 0\n\
         \x20   store s23, s21, 4\n\
         \x20   subi s25, s25, 1\n\
         \x20   j    shift\n\
         place:\n\
         \x20   sl   s21, s22, 3\n\
         \x20   add  s21, s21, s19\n\
         \x20   store {dist}, s21, 0\n\
         \x20   store s3, s21, 4\n\
         next:\n",
        last = k - 1,
    )
}

/// Exact linear scan under squared Euclidean distance (Q16.16).
///
/// The canonical SSAM kernel: per chunk it is load/load/sub/mult/add with
/// full vector chaining, then a lane reduction and a single-cycle
/// hardware-queue insert per candidate.
pub fn euclidean(dims: usize, vl: usize) -> Kernel {
    let dp = pad_to(dims, vl);
    let vlb = vl * 4;
    let mut src = scan_prologue(dp / vl, dp * 4, "    pqueue_reset\n");
    src.push_str("    svmove v2, s0, -1       ; acc = 0\n");
    src.push_str(&euclidean_inner(vlb));
    src.push_str(&reduce_lanes("v2", vl));
    src.push_str("    pqueue_insert s3, s7\n");
    src.push_str(SCAN_EPILOGUE);
    Kernel::build(
        format!("linear_euclidean_vl{vl}"),
        src,
        KernelLayout {
            vec_words: dp,
            vl,
            query_addr: 0,
            swqueue_addr: 0,
            driver_sregs: sreg_mask(&[1, 2, 3]),
        },
    )
}

/// Exact linear scan under Manhattan (L1) distance.
pub fn manhattan(dims: usize, vl: usize) -> Kernel {
    let dp = pad_to(dims, vl);
    let vlb = vl * 4;
    let mut src = scan_prologue(dp / vl, dp * 4, "    pqueue_reset\n");
    src.push_str("    svmove v2, s0, -1\n");
    src.push_str(&manhattan_inner(vlb));
    src.push_str(&reduce_lanes("v2", vl));
    src.push_str("    pqueue_insert s3, s7\n");
    src.push_str(SCAN_EPILOGUE);
    Kernel::build(
        format!("linear_manhattan_vl{vl}"),
        src,
        KernelLayout {
            vec_words: dp,
            vl,
            query_addr: 0,
            swqueue_addr: 0,
            driver_sregs: sreg_mask(&[1, 2, 3]),
        },
    )
}

/// Exact linear scan in Hamming space over binarized codes, using the
/// fused xor-popcount `VFXP` (32 binary dimensions per lane per
/// instruction — the Table V speedup).
///
/// `words` is the packed code length in 32-bit words (bits / 32).
pub fn hamming(words: usize, vl: usize) -> Kernel {
    let wp = pad_to(words, vl);
    let vlb = vl * 4;
    let mut src = scan_prologue(wp / vl, wp * 4, "    pqueue_reset\n");
    src.push_str("    svmove v2, s0, -1       ; per-lane popcount acc\n");
    src.push_str(&hamming_inner(vlb));
    src.push_str(&reduce_lanes("v2", vl));
    src.push_str("    pqueue_insert s3, s7\n");
    src.push_str(SCAN_EPILOGUE);
    Kernel::build(
        format!("linear_hamming_vl{vl}"),
        src,
        KernelLayout {
            vec_words: wp,
            vl,
            query_addr: 0,
            swqueue_addr: 0,
            driver_sregs: sreg_mask(&[1, 2, 3]),
        },
    )
}

/// Exact linear scan under cosine distance.
///
/// Per candidate the kernel accumulates both `Σ a·b` and `Σ b·b` in one
/// pass, then evaluates `cos² = dot² / (‖a‖²·‖b‖²)` with a 17-step
/// restoring software division ("fixed-point division for cosine
/// similarity is performed in software using shifts and subtracts",
/// Section V-D) and inserts the sign-corrected distance
/// `1 ∓ cos²` (Q16.16) — a rank-preserving transform of `1 − cos`.
///
/// Driver contract addition: `s10` = query squared norm (Q16.16).
pub fn cosine(dims: usize, vl: usize) -> Kernel {
    let dp = pad_to(dims, vl);
    let vlb = vl * 4;
    let mut src = scan_prologue(
        dp / vl,
        dp * 4,
        "    pqueue_reset\n    addi s17, s0, 17        ; division steps\n",
    );
    src.push_str("    svmove v2, s0, -1       ; dot acc\n    svmove v3, s0, -1       ; norm acc\n");
    src.push_str(&cosine_inner(vlb));
    src.push_str(&cosine_tail(vl));
    src.push_str("    pqueue_insert s3, s18\n");
    src.push_str(SCAN_EPILOGUE);
    Kernel::build(
        format!("linear_cosine_vl{vl}"),
        src,
        KernelLayout {
            vec_words: dp,
            vl,
            query_addr: 0,
            swqueue_addr: 0,
            driver_sregs: sreg_mask(&[1, 2, 3, 10]),
        },
    )
}

/// Section V-B ablation: Euclidean scan with a scratchpad-resident
/// *software* priority queue instead of the hardware unit (see
/// `swqueue_insert` for the queue protocol).
pub fn euclidean_swqueue(dims: usize, vl: usize, k: usize) -> Kernel {
    let dp = pad_to(dims, vl);
    let vlb = vl * 4;
    let mut src = scan_prologue(dp / vl, dp * 4, &swqueue_prologue(SWQUEUE_ADDR));
    src.push_str("    svmove v2, s0, -1\n");
    src.push_str(&euclidean_inner(vlb));
    src.push_str(&reduce_lanes("v2", vl));
    src.push_str(&swqueue_insert("s7", k));
    src.push_str(SCAN_EPILOGUE);
    Kernel::build(
        format!("linear_euclidean_swqueue_vl{vl}_k{k}"),
        src,
        KernelLayout {
            vec_words: dp,
            vl,
            query_addr: 0,
            swqueue_addr: SWQUEUE_ADDR,
            driver_sregs: sreg_mask(&[1, 2, 3]),
        },
    )
}

/// Manhattan scan with the software priority queue (Section V-B ablation
/// across metrics; the device selects this when `use_hw_queue` is off).
pub fn manhattan_swqueue(dims: usize, vl: usize, k: usize) -> Kernel {
    let dp = pad_to(dims, vl);
    let vlb = vl * 4;
    let mut src = scan_prologue(dp / vl, dp * 4, &swqueue_prologue(SWQUEUE_ADDR));
    src.push_str("    svmove v2, s0, -1\n");
    src.push_str(&manhattan_inner(vlb));
    src.push_str(&reduce_lanes("v2", vl));
    src.push_str(&swqueue_insert("s7", k));
    src.push_str(SCAN_EPILOGUE);
    Kernel::build(
        format!("linear_manhattan_swqueue_vl{vl}_k{k}"),
        src,
        KernelLayout {
            vec_words: dp,
            vl,
            query_addr: 0,
            swqueue_addr: SWQUEUE_ADDR,
            driver_sregs: sreg_mask(&[1, 2, 3]),
        },
    )
}

/// Hamming scan with the software priority queue.
pub fn hamming_swqueue(words: usize, vl: usize, k: usize) -> Kernel {
    let wp = pad_to(words, vl);
    let vlb = vl * 4;
    let mut src = scan_prologue(wp / vl, wp * 4, &swqueue_prologue(SWQUEUE_ADDR));
    src.push_str("    svmove v2, s0, -1       ; per-lane popcount acc\n");
    src.push_str(&hamming_inner(vlb));
    src.push_str(&reduce_lanes("v2", vl));
    src.push_str(&swqueue_insert("s7", k));
    src.push_str(SCAN_EPILOGUE);
    Kernel::build(
        format!("linear_hamming_swqueue_vl{vl}_k{k}"),
        src,
        KernelLayout {
            vec_words: wp,
            vl,
            query_addr: 0,
            swqueue_addr: SWQUEUE_ADDR,
            driver_sregs: sreg_mask(&[1, 2, 3]),
        },
    )
}

/// Cosine scan with the software priority queue. The distance lands in
/// `s18` (see `cosine_tail`), so the insert emitter is pointed there.
pub fn cosine_swqueue(dims: usize, vl: usize, k: usize) -> Kernel {
    let dp = pad_to(dims, vl);
    let vlb = vl * 4;
    let extra = format!(
        "{}    addi s17, s0, 17        ; division steps\n",
        swqueue_prologue(SWQUEUE_ADDR)
    );
    let mut src = scan_prologue(dp / vl, dp * 4, &extra);
    src.push_str("    svmove v2, s0, -1       ; dot acc\n    svmove v3, s0, -1       ; norm acc\n");
    src.push_str(&cosine_inner(vlb));
    src.push_str(&cosine_tail(vl));
    src.push_str(&swqueue_insert("s18", k));
    src.push_str(SCAN_EPILOGUE);
    Kernel::build(
        format!("linear_cosine_swqueue_vl{vl}_k{k}"),
        src,
        KernelLayout {
            vec_words: dp,
            vl,
            query_addr: 0,
            swqueue_addr: SWQUEUE_ADDR,
            driver_sregs: sreg_mask(&[1, 2, 3, 10]),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::VECTOR_LENGTHS;

    #[test]
    fn all_generators_assemble_across_the_design_sweep() {
        for &vl in &VECTOR_LENGTHS {
            for dims in [vl, 100, 960] {
                assert!(!euclidean(dims, vl).program.is_empty());
                assert!(!manhattan(dims, vl).program.is_empty());
                assert!(!cosine(dims, vl).program.is_empty());
                assert!(!manhattan_swqueue(dims, vl, 10).program.is_empty());
                assert!(!cosine_swqueue(dims, vl, 10).program.is_empty());
            }
            assert!(!hamming(32, vl).program.is_empty());
            assert!(!hamming_swqueue(32, vl, 10).program.is_empty());
            assert!(!euclidean_swqueue(64, vl, 10).program.is_empty());
        }
    }

    #[test]
    fn all_linear_kernels_verify_completely_clean() {
        // Linear scans have fully static control flow and layout: the
        // verifier must find nothing at all, warnings included.
        for &vl in &VECTOR_LENGTHS {
            for dims in [vl, 100, 960] {
                for k in [euclidean(dims, vl), manhattan(dims, vl), cosine(dims, vl)] {
                    let diags = crate::analysis::verify(&k);
                    assert!(diags.is_empty(), "{}: {diags:?}", k.name);
                }
                for k in [
                    manhattan_swqueue(dims, vl, 10),
                    cosine_swqueue(dims, vl, 10),
                ] {
                    let diags = crate::analysis::verify(&k);
                    assert!(diags.is_empty(), "{}: {diags:?}", k.name);
                }
            }
            for k in [
                hamming(32, vl),
                hamming_swqueue(32, vl, 10),
                euclidean_swqueue(64, vl, 10),
            ] {
                let diags = crate::analysis::verify(&k);
                assert!(diags.is_empty(), "{}: {diags:?}", k.name);
            }
        }
    }

    #[test]
    fn padding_rounds_up_to_vector_length() {
        let k = euclidean(100, 8);
        assert_eq!(k.layout.vec_words, 104);
        let k = euclidean(96, 8);
        assert_eq!(k.layout.vec_words, 96);
    }

    #[test]
    fn hamming_kernel_uses_vfxp() {
        let k = hamming(30, 4);
        assert!(k.source.contains("vfxp"));
        assert!(!k.source.contains("vmult"));
    }

    #[test]
    fn cosine_kernel_contains_software_division() {
        let k = cosine(100, 4);
        assert!(k.source.contains("divloop"));
        assert!(k.source.contains("mult s13, s9, s10"));
    }

    #[test]
    fn swqueue_kernels_avoid_hardware_queue() {
        for k in [
            euclidean_swqueue(100, 4, 10),
            manhattan_swqueue(100, 4, 10),
            cosine_swqueue(100, 4, 10),
            hamming_swqueue(4, 4, 10),
        ] {
            assert!(!k.source.contains("pqueue_insert"), "{}", k.name);
            assert_eq!(k.layout.swqueue_addr, SWQUEUE_ADDR, "{}", k.name);
        }
    }

    #[test]
    fn hw_queue_kernels_are_shorter_than_sw_queue() {
        let hw = euclidean(100, 4).program.len();
        let sw = euclidean_swqueue(100, 4, 10).program.len();
        assert!(sw > hw);
    }

    #[test]
    fn swqueue_variants_share_the_metric_distance_loop() {
        // The ablation must isolate the queue: the inner distance loops of
        // the HW- and SW-queue flavors are textually identical.
        let inner = |src: &str| {
            let start = src.find("inner:").expect("inner loop");
            let end = src.find("blt   s5, s6, inner").expect("loop branch");
            src[start..end].to_string()
        };
        assert_eq!(
            inner(&euclidean(64, 4).source),
            inner(&euclidean_swqueue(64, 4, 10).source)
        );
        assert_eq!(
            inner(&manhattan(64, 4).source),
            inner(&manhattan_swqueue(64, 4, 10).source)
        );
        assert_eq!(
            inner(&cosine(64, 4).source),
            inner(&cosine_swqueue(64, 4, 10).source)
        );
        assert_eq!(
            inner(&hamming(8, 4).source),
            inner(&hamming_swqueue(8, 4, 10).source)
        );
    }

    #[test]
    fn kernel_names_encode_parameters() {
        assert_eq!(euclidean(10, 8).name, "linear_euclidean_vl8");
        assert_eq!(
            euclidean_swqueue(10, 2, 6).name,
            "linear_euclidean_swqueue_vl2_k6"
        );
        assert_eq!(
            manhattan_swqueue(10, 2, 6).name,
            "linear_manhattan_swqueue_vl2_k6"
        );
        assert_eq!(
            cosine_swqueue(10, 2, 6).name,
            "linear_cosine_swqueue_vl2_k6"
        );
        assert_eq!(
            hamming_swqueue(2, 2, 6).name,
            "linear_hamming_swqueue_vl2_k6"
        );
    }

    #[test]
    fn optimizer_shrinks_every_linear_kernel() {
        for &vl in &crate::isa::VECTOR_LENGTHS {
            for k in [
                euclidean(100, vl),
                manhattan(100, vl),
                cosine(100, vl),
                hamming(4, vl),
                euclidean_swqueue(100, vl, 10),
            ] {
                assert_eq!(k.opt.instructions_before, k.raw_program.len(), "{}", k.name);
                assert_eq!(k.opt.instructions_after, k.program.len(), "{}", k.name);
                assert!(
                    k.opt.instructions_after < k.opt.instructions_before,
                    "{}: optimizer found nothing to remove",
                    k.name
                );
            }
        }
    }

    #[test]
    fn optimizer_unrolls_the_degenerate_chunk_loop() {
        // dims == vl ⇒ one chunk per vector: the counted inner loop's
        // back edge resolves statically and the counter/cursor
        // bookkeeping folds away — and the result must still verify
        // completely clean.
        for &vl in &crate::isa::VECTOR_LENGTHS {
            let k = euclidean(vl, vl);
            assert!(
                k.opt.branches_resolved >= 1,
                "{}: the chunk-loop back edge should resolve",
                k.name
            );
            assert!(
                k.opt.instructions_after + 4 <= k.opt.instructions_before,
                "{}: expected the loop bookkeeping to fold away ({} -> {})",
                k.name,
                k.opt.instructions_before,
                k.opt.instructions_after
            );
            assert!(
                crate::analysis::verify(&k).is_empty(),
                "{}: optimized kernel must stay diagnostic-free",
                k.name
            );
        }
    }
}
