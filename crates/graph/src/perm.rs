//! The Graph500 vertex scrambler.
//!
//! [`BitMixPermutation`] is a *functional*, invertible permutation of the
//! `2^scale` id space computed in O(1) per id with no table. This is how the
//! Graph500 generator "scrambles" vertex ids so the Kronecker structure
//! can't be exploited — a table of 2^42 entries would never fit, so the
//! scrambler must be a closed-form bijection.

use crate::hash::splitmix64;
use crate::types::VertexId;

/// Closed-form invertible permutation of the `2^scale` id space.
///
/// Composition of invertible steps, all modulo `2^scale`:
/// odd-constant multiply → xor-shift → odd-constant multiply → bit-reversal
/// of the low `scale` bits. Each step is a bijection on `scale`-bit words,
/// so the whole is; [`Self::invert`] applies the inverse steps in reverse.
#[derive(Clone, Copy, Debug)]
pub struct BitMixPermutation {
    scale: u32,
    mask: u64,
    mul1: u64,
    mul2: u64,
    /// Modular inverses of `mul1`/`mul2` modulo 2^scale.
    inv1: u64,
    inv2: u64,
    shift: u32,
}

/// Modular inverse of odd `a` modulo 2^64 by Newton iteration.
fn inv_mod_pow2(a: u64) -> u64 {
    debug_assert!(a & 1 == 1);
    let mut x = a; // correct to 3 bits
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x
}

impl BitMixPermutation {
    /// Build a scrambler for `scale`-bit ids (1 ≤ scale ≤ 63), seeded.
    pub fn new(scale: u32, seed: u64) -> Self {
        assert!((1..=63).contains(&scale), "scale out of range: {scale}");
        let mask = (1u64 << scale) - 1;
        let mul1 = splitmix64(seed) | 1;
        let mul2 = splitmix64(seed ^ 0xDEAD_BEEF) | 1;
        let shift = (scale / 2).max(1);
        Self {
            scale,
            mask,
            mul1,
            mul2,
            inv1: inv_mod_pow2(mul1),
            inv2: inv_mod_pow2(mul2),
            shift,
        }
    }

    /// The id-space size, `2^scale`.
    #[inline]
    pub fn domain(&self) -> u64 {
        self.mask + 1
    }

    #[inline]
    fn rev_bits(&self, v: u64) -> u64 {
        v.reverse_bits() >> (64 - self.scale)
    }

    /// Scramble `v` (must be `< 2^scale`).
    #[inline]
    pub fn apply(&self, v: VertexId) -> VertexId {
        debug_assert!(v <= self.mask);
        let mut x = v.wrapping_mul(self.mul1) & self.mask;
        x ^= x >> self.shift;
        x = x.wrapping_mul(self.mul2) & self.mask;
        self.rev_bits(x)
    }

    /// Inverse of [`Self::apply`].
    #[inline]
    pub fn invert(&self, v: VertexId) -> VertexId {
        debug_assert!(v <= self.mask);
        let mut x = self.rev_bits(v);
        x = x.wrapping_mul(self.inv2) & self.mask;
        // invert x ^= x >> shift (xorshift inverse: iterate)
        let mut y = x;
        let mut s = self.shift;
        while s < self.scale {
            y = x ^ (y >> self.shift);
            s += self.shift;
        }
        x = y;
        x.wrapping_mul(self.inv1) & self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inv_mod_pow2_works() {
        for a in [1u64, 3, 5, 0xBF58_476D_1CE4_E5B9 | 1] {
            assert_eq!(a.wrapping_mul(inv_mod_pow2(a)), 1);
        }
    }

    #[test]
    fn bitmix_is_bijective_small_scale() {
        for scale in [1u32, 2, 5, 10] {
            let p = BitMixPermutation::new(scale, 42);
            let n = 1u64 << scale;
            let mut seen = vec![false; n as usize];
            for v in 0..n {
                let s = p.apply(v);
                assert!(s < n, "scale {scale}: {s} out of domain");
                assert!(!seen[s as usize], "scale {scale}: collision at {v}");
                seen[s as usize] = true;
                assert_eq!(p.invert(s), v, "scale {scale}: inverse failed at {v}");
            }
        }
    }

    #[test]
    fn bitmix_large_scale_inverse_spotcheck() {
        let p = BitMixPermutation::new(42, 123);
        for v in [0u64, 1, 12345, (1 << 42) - 1, 0x3_FFFF_0000] {
            assert_eq!(p.invert(p.apply(v)), v);
        }
    }

    #[test]
    fn bitmix_actually_scrambles() {
        let p = BitMixPermutation::new(20, 9);
        let moved = (0..1000u64).filter(|&v| p.apply(v) != v).count();
        assert!(moved > 990, "only {moved} of 1000 ids moved");
    }
}
