//! Small, fast, dependency-free mixing functions.
//!
//! The generator, the vertex scrambler and the partitioners all need a
//! high-quality 64-bit mixer that is *stateless* (counter-based), so any
//! block of random draws can be reproduced independently on any rank — the
//! property that lets the real benchmark generate 140 trillion edges with no
//! communication. We use the finalizer from SplitMix64 / MurmurHash3.

/// SplitMix64 finalizer: a bijective 64-bit mix with full avalanche.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combine a seed and a counter into one mixed word.
#[inline]
pub fn mix2(seed: u64, counter: u64) -> u64 {
    splitmix64(seed ^ splitmix64(counter))
}

/// Combine a seed and two counters (e.g. edge index + draw index).
#[inline]
pub fn mix3(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(seed ^ splitmix64(a ^ splitmix64(b)))
}

/// Map a mixed 64-bit word to a uniform `f64` in `[0, 1)`.
///
/// Uses the top 53 bits so the result is an exactly representable dyadic
/// rational; this is the standard bit-twiddling construction.
#[inline]
pub fn to_unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Map a mixed word to a uniform `f32` in `[0, 1)` (24 mantissa bits).
#[inline]
pub fn to_unit_f32(bits: u64) -> f32 {
    (bits >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // successive counters should differ in many bits (avalanche sanity)
        let d = (splitmix64(7) ^ splitmix64(8)).count_ones();
        assert!(d > 16, "poor avalanche: {d} bits");
    }

    #[test]
    fn unit_floats_in_range() {
        for i in 0..10_000u64 {
            let f = to_unit_f64(splitmix64(i));
            assert!((0.0..1.0).contains(&f));
            let g = to_unit_f32(splitmix64(i));
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn unit_floats_are_roughly_uniform() {
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|i| to_unit_f64(mix2(42, i))).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn mix3_differs_in_each_argument() {
        assert_ne!(mix3(1, 2, 3), mix3(1, 2, 4));
        assert_ne!(mix3(1, 2, 3), mix3(1, 3, 3));
        assert_ne!(mix3(1, 2, 3), mix3(2, 2, 3));
    }
}
