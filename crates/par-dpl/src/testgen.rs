//! Deterministic input generator (SplitMix64) for the randomized unit
//! tests — the offline replacement for the previous proptest strategies.
//! Default iteration counts stay quick; the `heavy-tests` feature
//! multiplies them for longer soak runs.

pub(crate) struct Gen(u64);

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    /// Uniform u32 in `[0, bound)`.
    pub fn u32(&mut self, bound: u32) -> u32 {
        (self.next() % bound as u64) as u32
    }

    /// Uniform f32 in `[lo, hi)`.
    pub fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next() >> 40) as f32 * (1.0 / (1u32 << 24) as f32);
        lo + (hi - lo) * unit
    }

    /// Vector of uniform u32 values below `bound`, with random length in
    /// `[min_len, max_len)`.
    pub fn u32_vec(&mut self, min_len: usize, max_len: usize, bound: u32) -> Vec<u32> {
        let n = self.range(min_len, max_len);
        (0..n).map(|_| self.u32(bound)).collect()
    }

    /// Vector of uniform f32 values in `[lo, hi)`, with random length in
    /// `[min_len, max_len)`.
    pub fn f32_vec(&mut self, min_len: usize, max_len: usize, lo: f32, hi: f32) -> Vec<f32> {
        let n = self.range(min_len, max_len);
        (0..n).map(|_| self.f32(lo, hi)).collect()
    }
}

/// Iteration count for randomized tests, scaled up by `heavy-tests`.
pub(crate) fn cases(base: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        base * 8
    } else {
        base
    }
}
