//! Property tests on runtime invariants: coverage, determinism, and
//! barrier-phase semantics under arbitrary launch geometries.
//!
//! Randomized inputs come from a small seeded SplitMix64 generator so the
//! suite is fully deterministic and needs no external crates; the
//! `heavy-tests` feature multiplies the case counts.

use hetero_rt::executor::Parallelism;
use hetero_rt::ndrange::FenceSpace;
use hetero_rt::prelude::*;

/// Deterministic test-input generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform usize in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn pick(&mut self, options: &[usize]) -> usize {
        options[self.range(0, options.len())]
    }
}

fn cases(base: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        base * 8
    } else {
        base
    }
}

#[test]
fn parallel_for_touches_each_index_exactly_once() {
    let mut g = Gen::new(0x01);
    for _ in 0..cases(48) {
        let n = g.range(1, 20_000);
        let q = Queue::new(Device::cpu());
        let b = Buffer::<u32>::new(n);
        let v = b.view();
        q.parallel_for("touch", Range::d1(n), move |it| {
            v.atomic_add_u32(it.gid(0), 1);
        });
        assert!(b.to_vec().iter().all(|&c| c == 1), "n = {n}");
    }
}

#[test]
fn parallel_for_2d_covers_rectangle() {
    let mut g = Gen::new(0x02);
    for _ in 0..cases(48) {
        let (w, h) = (g.range(1, 150), g.range(1, 150));
        let q = Queue::new(Device::cpu());
        let b = Buffer::<u32>::new(w * h);
        let v = b.view();
        q.parallel_for("rect", Range::d2(w, h), move |it| {
            v.atomic_add_u32(it.gid(1) * w + it.gid(0), 1);
        });
        assert!(b.to_vec().iter().all(|&c| c == 1), "w = {w}, h = {h}");
    }
}

#[test]
fn nd_range_group_count_matches_geometry() {
    let mut g = Gen::new(0x03);
    for _ in 0..cases(48) {
        let groups = g.range(1, 64);
        let wg = g.pick(&[1, 2, 4, 8, 16, 32, 64]);
        let q = Queue::new(Device::cpu());
        let n = groups * wg;
        let counter = Buffer::<u32>::new(1);
        let cv = counter.view();
        q.nd_range("count", NdRange::d1(n, wg), move |_ctx| {
            cv.atomic_add_u32(0, 1);
        })
        .unwrap();
        assert_eq!(counter.to_vec()[0] as usize, groups);
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let mut g = Gen::new(0x04);
    for _ in 0..cases(48) {
        let n = g.range(64, 8_192);
        let threads = g.range(1, 12);
        let run = |p: Parallelism| {
            let q = Queue::new(Device::cpu()).with_parallelism(p);
            let b = Buffer::<f32>::new(n);
            let v = b.view();
            q.parallel_for("calc", Range::d1(n), move |it| {
                let x = it.gid(0) as f32;
                v.set(it.gid(0), (x * 0.37).sin() + x.sqrt());
            });
            b.to_vec()
        };
        assert_eq!(
            run(Parallelism::Sequential),
            run(Parallelism::Threads(threads)),
            "n = {n}, threads = {threads}"
        );
    }
}

#[test]
fn barrier_phases_make_neighbour_exchange_exact() {
    let mut g = Gen::new(0x05);
    for _ in 0..cases(48) {
        let wg = g.pick(&[2, 4, 8, 16, 32, 64]);
        let groups = g.range(1, 16);
        let shift = g.range(1, 64);
        // Every item writes its slot, barrier, reads slot (lid+shift)%wg.
        let q = Queue::new(Device::cpu());
        let n = wg * groups;
        let out = Buffer::<u32>::new(n);
        let ov = out.view();
        q.nd_range("exchange", NdRange::d1(n, wg), move |ctx| {
            let tile = ctx.local_array::<u32>(wg);
            ctx.items(|it| tile.set(it.local_linear, it.global_linear as u32));
            ctx.barrier(FenceSpace::Local);
            ctx.items(|it| {
                let src = (it.local_linear + shift) % wg;
                ov.set(it.global_linear, tile.get(src));
            });
        })
        .unwrap();
        let got = out.to_vec();
        for grp in 0..groups {
            for lid in 0..wg {
                let expect = (grp * wg + (lid + shift) % wg) as u32;
                assert_eq!(got[grp * wg + lid], expect);
            }
        }
    }
}

#[test]
fn buffer_roundtrip_preserves_bits() {
    let mut g = Gen::new(0x06);
    for _ in 0..cases(48) {
        let len = g.range(0, 2_000);
        let data: Vec<u32> = (0..len).map(|_| g.next() as u32).collect();
        let b = Buffer::from_slice(&data);
        assert_eq!(b.to_vec(), data);
    }
}
