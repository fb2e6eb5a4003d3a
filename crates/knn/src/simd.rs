//! 8-lane SIMD substrate for the host-side distance kernels.
//!
//! The crate forbids `unsafe`, so rather than calling `std::arch`
//! intrinsics directly this module expresses every kernel over a plain
//! `[f32; 8]` value type whose whole-array operations LLVM reliably
//! autovectorizes to `mulps`/`addps`-class instructions on x86-64 (and
//! NEON on aarch64). What the module pins down — and what actually
//! matters for reproducibility — is the **reduction order**:
//!
//! # Canonical reduction order
//!
//! Every distance reduction in this workspace accumulates into eight
//! independent lane partials and then combines them with one fixed
//! pairwise tree:
//!
//! 1. Lane `j` accumulates elements `j, j+8, j+16, …` of the term
//!    stream, in increasing index order. A trailing partial chunk of
//!    `r < 8` elements contributes its element `i` to lane `i`.
//! 2. The horizontal sum is the fixed tree
//!    `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
//!
//! IEEE-754 f32 addition is deterministic for a fixed evaluation
//! order, so any two implementations that follow this contract — the
//! vectorized chunk loop here, the scalar `i % 8` fallback loop, or a
//! hand-rolled intrinsic version — produce **bit-identical** results
//! (`to_bits()` equality), which is what the equivalence proptests
//! assert. See `distance.rs` for the kernels built on this contract.

/// Eight f32 lanes; the unit of the canonical reduction order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32x8(pub [f32; 8]);

/// Number of lanes in the canonical reduction.
pub const LANES: usize = 8;

impl std::ops::Add for F32x8 {
    type Output = F32x8;

    /// Lane-wise `self + o`.
    #[inline(always)]
    fn add(self, o: F32x8) -> F32x8 {
        let mut r = [0.0f32; 8];
        let mut j = 0;
        while j < 8 {
            r[j] = self.0[j] + o.0[j];
            j += 1;
        }
        F32x8(r)
    }
}

impl std::ops::Sub for F32x8 {
    type Output = F32x8;

    /// Lane-wise `self - o`.
    #[inline(always)]
    fn sub(self, o: F32x8) -> F32x8 {
        let mut r = [0.0f32; 8];
        let mut j = 0;
        while j < 8 {
            r[j] = self.0[j] - o.0[j];
            j += 1;
        }
        F32x8(r)
    }
}

impl std::ops::Mul for F32x8 {
    type Output = F32x8;

    /// Lane-wise `self * o`.
    #[inline(always)]
    fn mul(self, o: F32x8) -> F32x8 {
        let mut r = [0.0f32; 8];
        let mut j = 0;
        while j < 8 {
            r[j] = self.0[j] * o.0[j];
            j += 1;
        }
        F32x8(r)
    }
}

impl F32x8 {
    /// All lanes zero.
    pub const ZERO: F32x8 = F32x8([0.0; 8]);

    /// Loads eight consecutive elements starting at `s[0]`.
    ///
    /// # Panics
    /// Panics if `s.len() < 8`.
    #[inline(always)]
    pub fn load(s: &[f32]) -> F32x8 {
        F32x8([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]])
    }

    /// Lane-wise absolute value.
    #[inline(always)]
    pub fn abs(self) -> F32x8 {
        let mut r = [0.0f32; 8];
        let mut j = 0;
        while j < 8 {
            r[j] = self.0[j].abs();
            j += 1;
        }
        F32x8(r)
    }

    /// Lane-wise minimum.
    #[inline(always)]
    pub fn min(self, o: F32x8) -> F32x8 {
        let mut r = [0.0f32; 8];
        let mut j = 0;
        while j < 8 {
            r[j] = self.0[j].min(o.0[j]);
            j += 1;
        }
        F32x8(r)
    }

    /// Lane-wise maximum.
    #[inline(always)]
    pub fn max(self, o: F32x8) -> F32x8 {
        let mut r = [0.0f32; 8];
        let mut j = 0;
        while j < 8 {
            r[j] = self.0[j].max(o.0[j]);
            j += 1;
        }
        F32x8(r)
    }

    /// Canonical horizontal sum: the fixed pairwise tree
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
    ///
    /// This is the ONLY sanctioned way to collapse lane partials; a
    /// sequential `l0+l1+…+l7` fold rounds differently and would break
    /// the bit-identity contract.
    #[inline(always)]
    pub fn hsum(self) -> f32 {
        let l = self.0;
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
    }
}

/// Folds a term stream into lane partials following the canonical
/// order, vectorized over full 8-element chunks with the remainder
/// handled per-lane. `term(x, y)` must be a pure lane-wise function.
///
/// Returns the lane-partial vector; callers finish with [`F32x8::hsum`].
#[inline(always)]
pub fn fold_terms(a: &[f32], b: &[f32], term: impl Fn(F32x8, F32x8) -> F32x8) -> F32x8 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = F32x8::ZERO;
    let chunks = a.len() / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        let va = F32x8::load(&a[base..]);
        let vb = F32x8::load(&b[base..]);
        acc = acc + term(va, vb);
    }
    let tail = chunks * LANES;
    if tail < a.len() {
        // Pad the final partial chunk with zeros in BOTH operands and
        // mask the term so padding lanes contribute exactly +0.0.
        let mut pa = [0.0f32; 8];
        let mut pb = [0.0f32; 8];
        let r = a.len() - tail;
        pa[..r].copy_from_slice(&a[tail..]);
        pb[..r].copy_from_slice(&b[tail..]);
        let mut t = term(F32x8(pa), F32x8(pb)).0;
        for lane in t.iter_mut().skip(r) {
            *lane = 0.0;
        }
        acc = acc + F32x8(t);
    }
    acc
}

/// Scalar reference for [`fold_terms`]: same contract, one element at a
/// time (`lane = i % 8`). Used by tests to prove the vector path
/// bit-identical; also the shape any non-x86 fallback must take.
pub fn fold_terms_scalar(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> F32x8 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        lanes[i % LANES] += term(x, y);
    }
    F32x8(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize, seed: u64) -> Vec<f32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 40) as i32 % 2000) as f32 / 321.0
            })
            .collect()
    }

    #[test]
    fn vector_and_scalar_folds_are_bit_identical() {
        // Lengths straddling every chunk/tail boundary shape.
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 100, 128, 1000] {
            let a = stream(n, 7 + n as u64);
            let b = stream(n, 131 + n as u64);
            let v = fold_terms(&a, &b, |x, y| {
                let d = x - y;
                d * d
            });
            let s = fold_terms_scalar(&a, &b, |x, y| {
                let d = x - y;
                d * d
            });
            for j in 0..LANES {
                assert_eq!(
                    v.0[j].to_bits(),
                    s.0[j].to_bits(),
                    "lane {j} diverges at n={n}"
                );
            }
            assert_eq!(v.hsum().to_bits(), s.hsum().to_bits(), "hsum at n={n}");
        }
    }

    #[test]
    fn hsum_is_the_fixed_pairwise_tree() {
        // Values chosen so sequential and pairwise folds round apart.
        let v = F32x8([1e8, -1e8, 1.0, 1e-8, 3.0, -3.0, 1e8, 1.0]);
        let l = v.0;
        let expect = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        assert_eq!(v.hsum().to_bits(), expect.to_bits());
    }

    #[test]
    fn tail_padding_contributes_positive_zero() {
        // A non-zero term over (0,0) padding must be masked out: the
        // abs-diff term of padded zeros is +0.0 anyway, but a term like
        // max(x,y) over negative streams would not be. Use min/max.
        let a = [-1.0f32, -2.0, -3.0];
        let b = [-4.0f32, -5.0, -6.0];
        let v = fold_terms(&a, &b, |x, y| x.max(y));
        let s = fold_terms_scalar(&a, &b, |x, y| x.max(y));
        for j in 0..LANES {
            assert_eq!(v.0[j].to_bits(), s.0[j].to_bits(), "lane {j}");
        }
    }
}
