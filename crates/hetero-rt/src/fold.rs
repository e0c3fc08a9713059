//! The one word hash of the runtime and the suite: four independent
//! multiply chains, word `i` of a run into lane `i % 4`. Every step is a
//! bijection of its lane and of its word, and so is the final fold of
//! each lane: a change confined to one 8-byte word always shows.

/// Multiply, xor-shift, multiply: a bijection of `h` and of `w`.
#[inline]
pub fn mix(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (x ^ (x >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// Four lanes of a fold in progress.
pub struct Fold([u64; 4]);

impl Fold {
    /// `kind` keeps equal words of different kinds of value apart.
    #[inline]
    pub fn new(kind: u64) -> Fold {
        let seed = 0xA076_1D64_78BD_642F;
        Fold([mix(seed, kind), seed, !seed, seed.rotate_left(32)])
    }

    /// The added constant keeps a lane from resting at zero.
    #[inline]
    fn step(h: u64, w: u64) -> u64 {
        let x = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD6E8_FEB8_6659_FD93);
        x ^ (x >> 32)
    }

    /// Absorb `n` words, `word(i)` into lane `i % 4`. The lanes live in
    /// four variables: looping over an array of them lets LLVM pair two
    /// lanes in an SSE2 register, whose emulated 64-bit multiply halves
    /// the rate.
    #[inline]
    pub fn words(self, n: usize, word: impl Fn(usize) -> u64) -> Fold {
        let [mut a, mut b, mut c, mut d] = self.0;
        let mut i = 0;
        while i + 4 <= n {
            (a, b) = (Self::step(a, word(i)), Self::step(b, word(i + 1)));
            (c, d) = (Self::step(c, word(i + 2)), Self::step(d, word(i + 3)));
            i += 4;
        }
        a = if i < n { Self::step(a, word(i)) } else { a };
        b = if i + 1 < n { Self::step(b, word(i + 1)) } else { b };
        c = if i + 2 < n { Self::step(c, word(i + 2)) } else { c };
        Fold([a, b, c, d])
    }

    /// Absorb `bytes`: its length (three zero bytes are not four), then
    /// its little-endian words, the last one zero-padded.
    pub fn bytes(self, bytes: &[u8]) -> Fold {
        let le = |b: &[u8], i: usize| u64::from_le_bytes(b[8 * i..8 * i + 8].try_into().unwrap());
        let mut blocks = bytes.chunks_exact(32);
        let head = self.words(1, |_| bytes.len() as u64);
        let f = blocks.by_ref().fold(head, |f, b| f.words(4, |i| le(b, i)));
        let (mut tail, rest) = ([0u8; 32], blocks.remainder());
        tail[..rest.len()].copy_from_slice(rest);
        f.words(rest.len().div_ceil(8), |i| le(&tail, i))
    }

    /// The four lanes folded to one word.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0.into_iter().fold(0, mix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bytes` is `words` over the length and the zero-padded words, at
    /// every length around a block boundary.
    #[test]
    fn bytes_is_its_length_then_its_padded_words() {
        let data: Vec<u8> = (0..80u8).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
        for len in 0..=data.len() {
            let mut padded = data[..len].to_vec();
            padded.resize(len.div_ceil(8) * 8, 0);
            let word = |i: usize| u64::from_le_bytes(padded[8 * i..8 * i + 8].try_into().unwrap());
            let by_words = Fold::new(3).words(1, |_| len as u64).words(len.div_ceil(8), word);
            assert_eq!(Fold::new(3).bytes(&data[..len]).finish(), by_words.finish(), "{len} bytes");
        }
    }
}
