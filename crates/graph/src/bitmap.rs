//! Fixed-size bitmaps.
//!
//! Frontier sets in the direction-optimized kernels are represented as
//! bitmaps: dense frontiers cost one bit per vertex instead of 8 bytes per
//! id, which is exactly the traffic reduction the pull direction exploits
//! when broadcasting frontiers between ranks.

/// A fixed-size bitmap over `len` bits backed by `u64` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// All-zeros bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if `len == 0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise-or another bitmap of the same length into this one.
    pub fn union_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Raw words (for wire transfer between ranks).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild from raw words previously obtained via [`Self::words`].
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), len.div_ceil(64));
        Self { len, words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn union_sets_the_bits_of_both() {
        let mut a = Bitmap::new(100);
        let mut b = Bitmap::new(100);
        a.set(1);
        b.set(99);
        a.union_with(&b);
        assert!(a.get(1) && a.get(99));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn words_roundtrip() {
        let mut a = Bitmap::new(70);
        a.set(5);
        a.set(69);
        let b = Bitmap::from_words(70, a.words().to_vec());
        assert_eq!(a, b);
    }
}
