//! Deterministic data generators shared across the applications.

use crate::rng::Pcg32;

/// A seeded RNG wrapper so every workload is reproducible. A clone
/// continues the same stream; with [`SeededRng::advance`] it can start
/// anywhere in it, so a generator may be split across threads without
/// changing a bit.
#[derive(Clone)]
pub struct SeededRng {
    rng: Pcg32,
}

impl SeededRng {
    /// Create a generator for an (application, size) pair; the seed mixes
    /// both so different apps never share streams. The mixing scheme is
    /// part of the recorded dataset definition and must not change.
    pub fn new(app: &str, size_index: usize) -> Self {
        let mut seed = 0xA17150_u64.wrapping_mul(size_index as u64 + 1);
        for b in app.bytes() {
            seed = seed.wrapping_mul(31).wrapping_add(b as u64);
        }
        SeededRng { rng: Pcg32::from_seed(seed) }
    }

    /// Uniform f32 in `[lo, hi)`.
    pub fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.rng.f32_unit()
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.rng.f64_unit()
    }

    /// Uniform u32 in `[0, bound)`.
    pub fn u32(&mut self, bound: u32) -> u32 {
        self.rng.below(bound)
    }

    /// Uniform usize in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        debug_assert!(bound <= u32::MAX as usize);
        self.rng.below(bound as u32) as usize
    }

    /// Unit draws one [`SeededRng::gaussian`] consumes.
    pub const GAUSSIAN_DRAWS: u64 = 12;

    /// Skip `draws` unit draws in O(log draws) (PCG32 jump-ahead): the
    /// generator continues exactly as after `draws` serial ones. Every
    /// uniform `f32` / `u32` / `index` draw is one unit draw, a `f64` two
    /// and a `gaussian` [`SeededRng::GAUSSIAN_DRAWS`].
    pub fn advance(&mut self, draws: u64) {
        self.rng.advance(draws);
    }

    /// Standard-normal-ish value: the Irwin–Hall sum of twelve uniform
    /// `[0, 1)` draws, added in draw order, minus 6 (mean 0, variance 1).
    /// [`SeededRng::gaussians`] is its bulk form, bit for bit.
    pub fn gaussian(&mut self) -> f32 {
        let s: f32 = (0..Self::GAUSSIAN_DRAWS).map(|_| self.rng.f32_unit()).sum();
        s - 6.0
    }

    /// Fill `out` with what `out.len()` calls of
    /// [`SeededRng::gaussian`] return, bit for bit, eight sums at a time.
    pub fn gaussians(&mut self, out: &mut [f32]) {
        self.rng.unit_sums_into(Self::GAUSSIAN_DRAWS as usize, out);
        for g in out {
            *g -= 6.0;
        }
    }

    /// Vector of uniform f32 values.
    pub fn f32_vec(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| self.f32(lo, hi)).collect()
    }

    /// Vector of uniform u32 values below `bound`.
    pub fn u32_vec(&mut self, n: usize, bound: u32) -> Vec<u32> {
        (0..n).map(|_| self.u32(bound)).collect()
    }

    /// Rows `first..` of a `w`-wide synthetic grayscale image with smooth
    /// structure plus speckle noise (the SRAD/DWT2D input shape): a base
    /// sinusoidal pattern multiplied by one uniform draw per pixel, in
    /// row-major order from this generator's position. Any row range
    /// jumps straight to its first draw, so `out` holds bit for bit what
    /// a serial pass over the whole image puts there.
    pub fn speckled_rows(&self, w: usize, first: usize, out: &mut [f32]) {
        let mut rng = self.clone();
        rng.advance((first * w) as u64);
        for (y, row) in (first..).zip(out.chunks_mut(w.max(1))) {
            for (x, px) in row.iter_mut().enumerate() {
                let base = 128.0
                    + 60.0 * ((x as f32 * 0.05).sin() + (y as f32 * 0.08).cos());
                let speckle = 1.0 + 0.3 * (rng.f32(0.0, 1.0) - 0.5);
                *px = (base * speckle).clamp(1.0, 255.0);
            }
        }
    }

    /// A random DNA-style sequence of values in 0..4.
    pub fn dna(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.u32(4) as u8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::new("kmeans", 1);
        let mut b = SeededRng::new("kmeans", 1);
        let va = a.f32_vec(100, 0.0, 1.0);
        let vb = b.f32_vec(100, 0.0, 1.0);
        assert_eq!(va, vb);
    }

    #[test]
    fn different_apps_different_streams() {
        let mut a = SeededRng::new("kmeans", 1);
        let mut b = SeededRng::new("srad", 1);
        assert_ne!(a.f32_vec(16, 0.0, 1.0), b.f32_vec(16, 0.0, 1.0));
    }

    #[test]
    fn different_sizes_different_streams() {
        let mut a = SeededRng::new("kmeans", 1);
        let mut b = SeededRng::new("kmeans", 2);
        assert_ne!(a.f32_vec(16, 0.0, 1.0), b.f32_vec(16, 0.0, 1.0));
    }

    #[test]
    fn image_values_in_range() {
        let mut img = vec![0.0; 64 * 32];
        SeededRng::new("srad", 2).speckled_rows(64, 0, &mut img);
        assert!(img.iter().all(|&v| (1.0..=255.0).contains(&v)));
    }

    /// The image's specification: one serial pass, one `f32` draw per
    /// pixel, row-major.
    fn serial_image(rng: &mut SeededRng, w: usize, h: usize) -> Vec<u32> {
        let mut img = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let base = 128.0 + 60.0 * ((x as f32 * 0.05).sin() + (y as f32 * 0.08).cos());
                let speckle = 1.0 + 0.3 * (rng.f32(0.0, 1.0) - 0.5);
                img.push((base * speckle).clamp(1.0, 255.0).to_bits());
            }
        }
        img
    }

    #[test]
    fn speckled_rows_equal_the_serial_image_at_every_split() {
        // 13 rows of 11 pixels, after 3 draws the image does not own.
        let (w, h) = (11, 13);
        let mut rng = SeededRng::new("srad", 2);
        rng.advance(3);
        let serial = serial_image(&mut rng.clone(), w, h);
        for split in [0, 1, 7, h - 1, h] {
            let mut img = vec![f32::NAN; w * h];
            let (head, tail) = img.split_at_mut(split * w);
            rng.speckled_rows(w, 0, head);
            rng.speckled_rows(w, split, tail);
            let bits: Vec<u32> = img.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, serial, "split at row {split}");
        }
    }

    #[test]
    fn dna_alphabet_is_four_letters() {
        let mut r = SeededRng::new("nw", 3);
        let s = r.dna(1000);
        assert!(s.iter().all(|&c| c < 4));
    }

    #[test]
    fn gaussians_equal_a_gaussian_loop_at_every_length() {
        for offset in [0, 5] {
            for len in 0..=17 {
                let mut bulk = SeededRng::new("kmeans", 7);
                bulk.advance(offset);
                let mut serial = SeededRng::new("kmeans", 7);
                for _ in 0..offset {
                    serial.f32(0.0, 1.0);
                }
                let mut out = vec![f32::NAN; len];
                bulk.gaussians(&mut out);
                let expect: Vec<u32> = (0..len).map(|_| serial.gaussian().to_bits()).collect();
                let got: Vec<u32> = out.iter().map(|g| g.to_bits()).collect();
                assert_eq!(got, expect, "offset {offset}, len {len}");
                assert_eq!(bulk.u32(u32::MAX), serial.u32(u32::MAX), "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn gaussian_is_roughly_centered() {
        let mut r = SeededRng::new("pf", 1);
        let mean: f32 = (0..10_000).map(|_| r.gaussian()).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn bounded_draws_stay_below_bound() {
        let mut r = SeededRng::new("where", 1);
        assert!(r.u32_vec(10_000, 17).iter().all(|&v| v < 17));
        for _ in 0..10_000 {
            assert!(r.index(33) < 33);
            let x = r.f32(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }
}
