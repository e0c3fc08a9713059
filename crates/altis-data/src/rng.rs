//! Self-contained pseudo-random generators: SplitMix64 for seed
//! expansion and PCG32 (XSH-RR) as the workhorse stream.
//!
//! These replace the external `rand` crate so the suite builds with zero
//! network access. Both algorithms are tiny, well-studied, and fully
//! deterministic across platforms — exactly what reproducible benchmark
//! inputs need. The seed-mixing scheme recorded for each (application,
//! size) pair is unchanged; only the stream drawn from the seed differs
//! from the previous `StdRng` implementation.

/// Advance a SplitMix64 state and return the next value. Used to expand
/// one 64-bit seed into the PCG state/stream pair (the reference
/// initialisation recommended by the PCG paper).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// PCG32 (XSH-RR variant): 64-bit LCG state, 32-bit output with
/// xorshift-high + random rotation. Period 2^64 per stream.
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    const MULT: u64 = 6_364_136_223_846_793_005;

    /// Create a generator from a state seed and a stream selector.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Pcg32 { state: 0, inc: (stream << 1) | 1 };
        g.next_u32();
        g.state = g.state.wrapping_add(seed);
        g.next_u32();
        g
    }

    /// Derive a generator from a single 64-bit seed via SplitMix64.
    pub fn from_seed(seed: u64) -> Self {
        let mut s = seed;
        let state = splitmix64(&mut s);
        let stream = splitmix64(&mut s);
        Pcg32::new(state, stream)
    }

    /// Next uniform 32-bit value.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(Self::MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next uniform 64-bit value (two 32-bit draws).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform f32 in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn f32_unit(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform u32 in `[0, bound)` via Lemire's multiply-shift reduction.
    /// The modulo bias is below 2^-32 for the bounds used here — far
    /// beneath what any generator test in the suite could observe.
    #[inline]
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "below(0) is meaningless");
        ((self.next_u32() as u64 * bound as u64) >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcg_reference_vector() {
        // First outputs of the PCG32 demo seeding (seed 42, stream 54),
        // from the pcg-random.org reference implementation.
        let mut g = Pcg32::new(42, 54);
        let expect: [u32; 6] = [
            0xa15c_02b7,
            0x7b47_f409,
            0xba1d_3330,
            0x83d2_f293,
            0xbfa4_784b,
            0xcbed_606e,
        ];
        for e in expect {
            assert_eq!(g.next_u32(), e);
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // From the SplitMix64 reference (seed 1234567).
        let mut s = 1234567u64;
        assert_eq!(splitmix64(&mut s), 0x599e_d017_fb08_fc85);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Pcg32::from_seed(99);
        let mut b = Pcg32::from_seed(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut g = Pcg32::from_seed(7);
        for _ in 0..10_000 {
            let x = g.f32_unit();
            assert!((0.0..1.0).contains(&x));
            let y = g.f64_unit();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut g = Pcg32::from_seed(11);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = g.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residues never drawn");
    }
}
