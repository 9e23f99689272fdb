//! A compact bit vector used for codewords.

/// A fixed-length bit vector backed by `u64` words.
///
/// ```
/// use readduo_ecc::BitVec;
/// let mut v = BitVec::zeros(100);
/// v.set(3, true);
/// v.flip(99);
/// assert!(v.get(3) && v.get(99));
/// assert_eq!(v.count_ones(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a vector from bytes, MSB of the first byte first.
    ///
    /// ```
    /// use readduo_ecc::BitVec;
    /// let v = BitVec::from_bytes(&[0b1000_0001]);
    /// assert!(v.get(0) && v.get(7));
    /// assert!(!v.get(1));
    /// ```
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut v = Self::zeros(bytes.len() * 8);
        for (i, &b) in bytes.iter().enumerate() {
            for k in 0..8 {
                if (b >> (7 - k)) & 1 == 1 {
                    v.set(i * 8 + k, true);
                }
            }
        }
        v
    }

    /// Converts back to bytes (length must be a multiple of 8).
    ///
    /// # Panics
    ///
    /// Panics if the length is not byte-aligned.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(self.len.is_multiple_of(8), "bit length {} is not byte-aligned", self.len);
        let mut out = vec![0u8; self.len / 8];
        for i in 0..self.len {
            if self.get(i) {
                out[i / 8] |= 1 << (7 - (i % 8));
            }
        }
        out
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of set bits, ascending.
    pub fn ones(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(wi * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_flip() {
        let mut v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert!(!v.is_empty());
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        v.flip(64);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
        assert_eq!(v.ones(), vec![0, 129]);
    }

    #[test]
    fn bytes_round_trip() {
        let data: Vec<u8> = (0..=255).collect();
        let v = BitVec::from_bytes(&data);
        assert_eq!(v.to_bytes(), data);
        assert_eq!(v.len(), 2048);
    }

    #[test]
    fn msb_first_convention() {
        let v = BitVec::from_bytes(&[0x80]);
        assert!(v.get(0));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_get_panics() {
        let v = BitVec::zeros(10);
        let _ = v.get(10);
    }
}
