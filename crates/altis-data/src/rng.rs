//! Self-contained pseudo-random generators: SplitMix64 for seed
//! expansion and PCG32 (XSH-RR) as the workhorse stream.
//!
//! These replace the external `rand` crate so the suite builds with zero
//! network access. Both algorithms are tiny, well-studied, and fully
//! deterministic across platforms — exactly what reproducible benchmark
//! inputs need. The seed-mixing scheme recorded for each (application,
//! size) pair is unchanged; only the stream drawn from the seed differs
//! from the previous `StdRng` implementation.
//!
//! PCG32's state is a plain LCG, so draw *n* of a stream is computable
//! without draws 0…n−1: [`Pcg32::advance`] jumps in O(log n) steps
//! (Brown's arbitrary-stride LCG jump, `pcg32_advance` in the PCG
//! reference). A stream may therefore be split anywhere — across pool
//! threads, or into eight lanes by [`Pcg32::unit_sums_into`] —
//! and each piece draws exactly the bits the serial stream would.

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

/// Sums [`Pcg32::unit_sums_into`] draws at once: one AVX2 register of
/// `f32`, the width `hetero_rt::lanes` runs kernels at.
const UNIT_SUM_LANES: usize = 8;

/// The affine map `state ↦ mult · state + plus` that `delta` LCG steps
/// compose to (`pcg_advance_lcg_64` of the PCG reference: square and
/// multiply over the bits of `delta`).
#[derive(Debug, Clone, Copy)]
struct Jump {
    mult: u64,
    plus: u64,
}

impl Jump {
    fn new(mut delta: u64, inc: u64) -> Self {
        let (mut cur_mult, mut cur_plus) = (Pcg32::MULT, inc);
        let mut jump = Jump { mult: 1, plus: 0 };
        while delta > 0 {
            if delta & 1 == 1 {
                jump.mult = jump.mult.wrapping_mul(cur_mult);
                jump.plus = jump.plus.wrapping_mul(cur_mult).wrapping_add(cur_plus);
            }
            cur_plus = cur_mult.wrapping_add(1).wrapping_mul(cur_plus);
            cur_mult = cur_mult.wrapping_mul(cur_mult);
            delta >>= 1;
        }
        jump
    }

    #[inline]
    fn apply(self, state: u64) -> u64 {
        self.mult.wrapping_mul(state).wrapping_add(self.plus)
    }
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
        Self::output(old)
    }

    /// The XSH-RR output permutation of a pre-step state.
    #[inline]
    fn output(old: u64) -> u32 {
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Skip `delta` draws in O(log delta): afterwards the generator is
    /// where `delta` calls of [`Pcg32::next_u32`] would have left it.
    pub fn advance(&mut self, delta: u64) {
        self.state = Jump::new(delta, self.inc).apply(self.state);
    }

    /// The next [`UNIT_SUM_LANES`] sums of `terms` [`Pcg32::f32_unit`]
    /// draws each, given the `terms`-draw jump: lane `j` is bit for bit
    /// the sum the `j`-th run of `terms` serial draws gives, added in
    /// draw order from zero. Leaves the generator `UNIT_SUM_LANES · terms`
    /// draws ahead.
    ///
    /// Each lane holds a copy of the state, spaced `terms` draws apart,
    /// and steps by the plain LCG: eight independent multiply-add chains
    /// where the serial stream has one. Lane ops are elementwise in the
    /// written order (the `[T; W]` style of `hetero_rt::lanes`, which
    /// `altis-data` cannot depend on), so LLVM may vectorize them without
    /// changing a bit.
    #[inline]
    #[allow(clippy::needless_range_loop)] // lane j of every array, as in `hetero_rt::lanes`
    fn unit_sums(&mut self, spacing: Jump, terms: usize) -> [f32; UNIT_SUM_LANES] {
        let mut states = [self.state; UNIT_SUM_LANES];
        for j in 1..UNIT_SUM_LANES {
            states[j] = spacing.apply(states[j - 1]);
        }
        let mut sums = [0.0f32; UNIT_SUM_LANES];
        for _ in 0..terms {
            for j in 0..UNIT_SUM_LANES {
                let old = states[j];
                states[j] = old.wrapping_mul(Self::MULT).wrapping_add(self.inc);
                sums[j] += Self::unit(Self::output(old));
            }
        }
        // The last lane stopped where the group's draws end, which is
        // lane 0's state jumped `terms · (UNIT_SUM_LANES − 1)` further.
        self.state = states[UNIT_SUM_LANES - 1];
        sums
    }

    /// Fill `out` with consecutive sums of `terms` [`Pcg32::f32_unit`]
    /// draws, each added in draw order: bit for bit what `out.len()`
    /// serial sums give. Whole groups of [`UNIT_SUM_LANES`] sums run
    /// lane-wide, the tail one sum at a time.
    pub fn unit_sums_into(&mut self, terms: usize, out: &mut [f32]) {
        let spacing = Jump::new(terms as u64, self.inc);
        let mut groups = out.chunks_exact_mut(UNIT_SUM_LANES);
        for group in &mut groups {
            group.copy_from_slice(&self.unit_sums(spacing, terms));
        }
        for s in groups.into_remainder() {
            *s = (0..terms).map(|_| self.f32_unit()).sum();
        }
    }

    /// The 24-bit unit float of one 32-bit draw.
    #[inline]
    fn unit(x: u32) -> f32 {
        (x >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Next uniform 64-bit value (two 32-bit draws).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform f32 in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn f32_unit(&mut self) -> f32 {
        Self::unit(self.next_u32())
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

    /// `n` serial draws, the specification `advance` must meet.
    fn stepped(mut g: Pcg32, n: u64) -> Pcg32 {
        for _ in 0..n {
            g.next_u32();
        }
        g
    }

    #[test]
    fn advance_lands_where_serial_draws_do() {
        for seed in [42, 0xDEAD_BEEF] {
            let g = Pcg32::from_seed(seed);
            for n in [0, 1, 2, 7, 11, 12, 13, 95, 96, 97, (1 << 20) + 3] {
                let mut jumped = g.clone();
                jumped.advance(n);
                let serial = stepped(g.clone(), n);
                assert_eq!((jumped.state, jumped.inc), (serial.state, serial.inc), "seed {seed}, n {n}");
            }
        }
    }

    #[test]
    fn advances_compose() {
        let g = Pcg32::new(42, 54);
        for (a, b) in [(0, 5), (3, 9), (96, 1), (1 << 33, (1 << 40) + 7), (u64::MAX, 2)] {
            let (mut two, mut one) = (g.clone(), g.clone());
            two.advance(a);
            two.advance(b);
            one.advance(a.wrapping_add(b));
            assert_eq!(two.state, one.state, "{a} + {b}");
        }
        // The period is 2^64: a full turn is the identity.
        let mut turned = g.clone();
        turned.advance(u64::MAX);
        turned.next_u32();
        assert_eq!(turned.state, g.state);
    }

    #[test]
    fn unit_sums_equal_serial_sums_at_every_length() {
        for terms in [1, 3, 12] {
            for len in 0..=2 * UNIT_SUM_LANES + 1 {
                let (mut wide, mut serial) = (Pcg32::from_seed(5), Pcg32::from_seed(5));
                let mut out = vec![f32::NAN; len];
                wide.unit_sums_into(terms, &mut out);
                let expect: Vec<f32> =
                    (0..len).map(|_| (0..terms).map(|_| serial.f32_unit()).sum()).collect();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&expect), "terms {terms}, len {len}");
                assert_eq!(wide.state, serial.state, "terms {terms}, len {len}");
            }
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
