//! Deterministic, seeded fault injection.
//!
//! The paper's FPGA port is a story of runtime failures survived:
//! work-group sizes exceeding device limits, kernels crashing on
//! unsupported features. This module lets tests and the chaos harness
//! *provoke* those failure modes on demand, reproducibly:
//!
//! * a [`FaultPlan`] is seeded (the same PCG32/SplitMix64 generators that
//!   drive `altis-data` input generation) and draws each injection
//!   decision deterministically from the seed;
//! * a plan is handed to a queue at construction, as its
//!   [`crate::Hardening::fault`];
//! * two fail-stop kinds are injectable — a transient launch failure and
//!   a kernel panic at a chosen (kernel, work-group) — and two silent
//!   ones, bit-flips and a stuck-at page, for the SDC defense.
//!
//! # Determinism
//!
//! Kernel-panic decisions are *stateless*: they hash (seed, kernel name,
//! group index), so the same plan panics the same groups of the same
//! kernels regardless of how the pool schedules them. Launch and bit-flip
//! decisions are *sequenced*: each consumes one draw from a shared
//! counter, so they are reproducible for a fixed submission order
//! (the common case: a single host thread driving a queue).
//!
//! # Containment contract
//!
//! An injected kernel panic unwinds with a typed payload that the
//! executor's containment layer (see [`crate::executor`]) converts back
//! into [`Error::KernelPanicked`]. The panic never crosses a pool-worker
//! boundary unhandled and never poisons the pool; tests launch clean
//! kernels immediately after an injected panic to prove it.

use std::panic::PanicHookInfo;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};

use altis_data::rng::splitmix64;

use crate::error::Error;

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A kernel submission fails before any group runs
    /// (`Error::TransientLaunchFailure`); absorbed by
    /// [`crate::queue::RetryPolicy`]. Because the failure precedes all
    /// side effects, retrying is always safe.
    LaunchTransient,
    /// A kernel panics while executing a specific work-group
    /// (`Error::KernelPanicked`); contained by the executor, never
    /// retried (groups may already have produced side effects).
    KernelPanic,
    /// Silent single/multi bit-flips in checksummed buffer regions at
    /// launch boundaries, plus flips in `LocalArena` scratch — no panic,
    /// no error, just wrong bytes. Applied by the
    /// integrity layer ([`crate::integrity`]); the *detection* of these
    /// is the whole point of [`FaultPlan::sdc`].
    BitFlip,
    /// A "stuck-at" page: one bit position of one seed-chosen page is
    /// OR-masked at every launch boundary, modeling a failed memory
    /// cell. Deterministic across replicas, so redundancy cannot vote it
    /// away — only the suite's output validators catch it.
    StuckPage,
}

impl FaultKind {
    /// The fail-stop kinds [`FaultPlan::new`] enables.
    const ALL: [FaultKind; 2] = [FaultKind::LaunchTransient, FaultKind::KernelPanic];

    /// The silent-corruption kinds [`FaultPlan::sdc`] enables.
    const SDC: [FaultKind; 2] = [FaultKind::BitFlip, FaultKind::StuckPage];

    fn bit(self) -> u8 {
        match self {
            FaultKind::LaunchTransient => 1,
            FaultKind::KernelPanic => 2,
            FaultKind::BitFlip => 4,
            FaultKind::StuckPage => 8,
        }
    }
}

/// Wrapper marking a panic payload as a *deliberately injected* fault, so
/// the quiet panic hook suppresses it entirely (a chaos run at rate 0.1
/// must not flood stderr) while genuine typed panics still get one line.
pub(crate) struct Injected(pub(crate) Error);

/// Salt constants separating the draw streams of the sequenced sites.
const SALT_LAUNCH: u64 = 0x4c41_554e_4348;
const SALT_FLIP_ENTRY: u64 = 0x464c_4950_0045;
const SALT_FLIP_EXIT: u64 = 0x464c_4950_0058;
const SALT_SITE: u64 = 0x0053_4954_4500;
const SALT_STUCK: u64 = 0x5354_5543_4b00;
const SALT_LOCAL: u64 = 0x4c4f_4341_4c00;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a hash of a kernel name, mixed into stateless panic draws so
/// different kernels fault at different groups under the same seed.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic fault-injection plan.
///
/// Cheap to share: queues hold it behind an `Arc` and clones of a queue
/// observe the same draw sequence. A plan with rate `0.0` and no targeted
/// faults never injects anything (the configuration the overhead
/// microbenchmark measures).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
    mask: u8,
    /// Sequenced-draw counter (launch and bit-flip sites).
    draws: AtomicU64,
    /// Total faults injected so far, for observability and tests.
    injected: AtomicU64,
    /// Deterministic targeted panic: (kernel, group linear id).
    target_panic: Option<(&'static str, usize)>,
    /// Fail the next N launch submissions unconditionally (then stop):
    /// the deterministic way to test bounded retry.
    transient_burst: AtomicU64,
    /// One-shot targeted bit-flips (region id, byte offset, bit): the
    /// deterministic input for exact `DataCorruption{region, page}`
    /// true-positive tests. Consumed at the entry of the next launch
    /// that binds the region.
    flip_targets: Mutex<Vec<(u64, usize, u8)>>,
    /// The stuck-at site (region id, page, bit) once chosen — targeted
    /// via [`FaultPlan::with_stuck_at`] or lazily seed-derived at first
    /// application.
    stuck: Mutex<Option<(u64, usize, u8)>>,
}

impl FaultPlan {
    /// A plan injecting every [`FaultKind`] at probability `rate` per
    /// injection point, driven by `seed`.
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            mask: FaultKind::ALL.iter().fold(0, |m, k| m | k.bit()),
            draws: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            target_panic: None,
            transient_burst: AtomicU64::new(0),
            flip_targets: Mutex::new(Vec::new()),
            stuck: Mutex::new(None),
        }
    }

    /// A plan injecting only *silent* faults (bit-flips and a stuck-at
    /// page) at probability `rate` per launch boundary. The fail-stop
    /// kinds stay off so every wrong answer is genuinely silent — the
    /// plan of the SDC tier ([`crate::Hardening::sdc`]).
    pub fn sdc(seed: u64, rate: f64) -> Self {
        FaultPlan::new(seed, rate).with_kinds(&FaultKind::SDC)
    }

    /// Restrict the plan to a subset of fault kinds.
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> Self {
        self.mask = kinds.iter().fold(0, |m, k| m | k.bit());
        self
    }

    /// A plan that panics deterministically when `kernel` executes work
    /// group `group`, and injects nothing else.
    pub fn panic_at(kernel: &'static str, group: usize) -> Self {
        let mut p = FaultPlan::new(0, 0.0).with_kinds(&[]);
        p.target_panic = Some((kernel, group));
        p
    }

    /// A plan whose next `n` launch submissions fail transiently (and
    /// nothing else): the deterministic input for retry-policy tests.
    // lint:allow(unused-pub) test oracle: hetero-rt/tests/{resilience, graph, sdc}.rs count the retries an exact burst costs
    pub fn transient_burst(n: u64) -> Self {
        let p = FaultPlan::new(0, 0.0).with_kinds(&[]);
        p.transient_burst.store(n, Ordering::Relaxed);
        p
    }

    /// A plan that flips exactly `bit` of byte `byte` in region `region`
    /// at the entry of the next launch that binds it, and injects nothing
    /// else: the
    /// deterministic input for exact `DataCorruption{region, page}`
    /// tests.
    // lint:allow(unused-pub) test oracle: hetero-rt/tests/{sdc, graph}.rs pin the exact DataCorruption{region, page} a flip yields
    pub fn flip_at(region: u64, byte: usize, bit: u8) -> Self {
        let p = FaultPlan::new(0, 0.0).with_kinds(&[]);
        lock(&p.flip_targets).push((region, byte, bit));
        p
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's per-site injection probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Faults injected so far (all kinds).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn enabled(&self, kind: FaultKind) -> bool {
        self.mask & kind.bit() != 0
    }

    /// One sequenced deterministic draw in `[0, 1)` for `salt`.
    fn draw(&self, salt: u64) -> f64 {
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        let mut s = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt)
            .wrapping_add(n.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        (splitmix64(&mut s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn hit(&self, kind: FaultKind, salt: u64) -> bool {
        if !self.enabled(kind) || self.rate <= 0.0 {
            return false;
        }
        let hit = self.draw(salt) < self.rate;
        if hit {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Should this kernel submission fail transiently (before any group
    /// executes)?
    pub fn should_fail_launch(&self, _kernel: &str) -> bool {
        if self.transient_burst.load(Ordering::Relaxed) > 0 {
            // Deterministic burst mode: consume one failure.
            let prev = self.transient_burst.fetch_sub(1, Ordering::Relaxed);
            if prev > 0 {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            // Lost the race past zero; restore and fall through.
            self.transient_burst.fetch_add(1, Ordering::Relaxed);
        }
        self.hit(FaultKind::LaunchTransient, SALT_LAUNCH)
    }

    /// Stateless decision: does `kernel` panic at `group`? The same in every
    /// run; how many drawn groups run before the walk stops is not.
    pub(crate) fn should_panic(&self, kernel: &str, group: usize) -> bool {
        if let Some((k, g)) = self.target_panic {
            if k == kernel && g == group {
                return true;
            }
        }
        if !self.enabled(FaultKind::KernelPanic) || self.rate <= 0.0 {
            return false;
        }
        let mut s = self.seed ^ fnv1a(kernel) ^ (group as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        let u = (splitmix64(&mut s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < self.rate
    }

    /// Panic with a typed, injected payload if the plan says `kernel`
    /// faults at `group`. Called by the executor inside its containment
    /// wrapper, so the panic surfaces as [`Error::KernelPanicked`].
    pub(crate) fn maybe_panic(&self, kernel: &'static str, group: usize) {
        if self.should_panic(kernel, group) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            std::panic::panic_any(Injected(Error::KernelPanicked {
                kernel,
                group,
                message: "injected fault".to_string(),
            }));
        }
    }

    // --- silent-corruption draws (consumed by crate::integrity) ---------

    /// Sequenced decision: flip bits at this launch boundary? Entry and
    /// exit use separate salts so the two streams stay independent.
    pub(crate) fn wants_flip(&self, exit: bool) -> bool {
        if !self.enabled(FaultKind::BitFlip) || self.rate <= 0.0 {
            return false;
        }
        self.draw(if exit { SALT_FLIP_EXIT } else { SALT_FLIP_ENTRY }) < self.rate
    }

    /// One sequenced uniform site draw in `[0, n)`.
    pub(crate) fn pick(&self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        ((self.draw(SALT_SITE) * n as f64) as usize).min(n - 1)
    }

    /// Take the pending targeted flips whose region `bound` accepts;
    /// the rest wait for a launch that binds their region.
    pub(crate) fn take_flip_targets(&self, bound: impl Fn(u64) -> bool) -> Vec<(u64, usize, u8)> {
        let mut targets = lock(&self.flip_targets);
        let (taken, rest) = targets.drain(..).partition(|&(region, _, _)| bound(region));
        *targets = rest;
        taken
    }

    /// Count `n` silent faults applied: bit-flips, or a stuck page that
    /// changed real bits at a launch boundary.
    pub(crate) fn note_silent(&self, n: u64) {
        self.injected.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn stuck_slot(&self) -> MutexGuard<'_, Option<(u64, usize, u8)>> {
        lock(&self.stuck)
    }

    /// Stateless decision: does this seed have a stuck-at page at all?
    /// Boosted above the base rate so a handful of seeds exercises the
    /// quarantine path without drowning every run in sealed-in faults.
    pub(crate) fn stuck_wanted(&self) -> bool {
        if !self.enabled(FaultKind::StuckPage) || self.rate <= 0.0 {
            return false;
        }
        let mut s = self.seed ^ SALT_STUCK;
        let u = (splitmix64(&mut s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < (self.rate * 4.0).min(1.0)
    }

    /// Stateless site draws for the stuck page: (region index, page
    /// index, bit), reduced modulo the live region/page counts by the
    /// caller.
    pub(crate) fn stuck_draws(&self) -> (usize, usize, u8) {
        let mut s = self.seed ^ SALT_STUCK ^ 0x1;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        let c = splitmix64(&mut s);
        (a as usize, b as usize, (c % 8) as u8)
    }

    /// Per-(kernel, group) context for local-memory flips, or `None`
    /// when the plan injects no bit-flips (the executor then pays
    /// nothing per group). Copies the mixed seed out so `GroupCtx` need
    /// not borrow the plan.
    pub(crate) fn local_ctx(&self, kernel: &str, group: usize) -> Option<LocalFaultCtx> {
        if !self.enabled(FaultKind::BitFlip) || self.rate <= 0.0 {
            return None;
        }
        Some(LocalFaultCtx {
            seed: self.seed
                ^ fnv1a(kernel)
                ^ (group as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)
                ^ SALT_LOCAL,
            // Local scratch has vastly more (group x allocation) sites
            // than there are launch boundaries; scale the per-site
            // probability down so local corruption stays an event, not
            // the steady state.
            rate: self.rate / 1024.0,
        })
    }
}

/// Stateless local-memory flip decisions for one (kernel, work-group):
/// deterministic regardless of pool scheduling — and therefore identical
/// across redundant replicas, modeling a stuck local cell that voting
/// cannot remove (the suite validators are the layer that catches it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocalFaultCtx {
    seed: u64,
    rate: f64,
}

impl LocalFaultCtx {
    /// Should the `alloc_index`-th local allocation of this group carry a
    /// flipped bit, and where? Returns (element index, bit in byte 0).
    pub(crate) fn flip_for_alloc(&self, alloc_index: u32, len: usize) -> Option<(usize, u8)> {
        if len == 0 {
            return None;
        }
        let mut s = self.seed ^ (alloc_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let u = (splitmix64(&mut s) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u >= self.rate {
            return None;
        }
        let elem = (splitmix64(&mut s) as usize) % len;
        let bit = (splitmix64(&mut s) % 8) as u8;
        Some((elem, bit))
    }
}

/// Convert a caught panic payload into a typed runtime error.
///
/// * payloads carrying an [`Injected`] fault or a plain [`Error`] (the
///   typed panics raised by buffer/local-memory bounds checks) unwrap to
///   that error;
/// * anything else (a `panic!` in user kernel code) becomes
///   [`Error::KernelPanicked`] with the panic message preserved.
pub fn classify_panic(
    kernel: &'static str,
    group: usize,
    payload: Box<dyn std::any::Any + Send>,
) -> Error {
    let payload = match payload.downcast::<Injected>() {
        Ok(inj) => return inj.0,
        Err(p) => p,
    };
    let payload = match payload.downcast::<Error>() {
        Ok(e) => return *e,
        Err(p) => p,
    };
    let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    Error::KernelPanicked { kernel, group, message }
}

/// Install (once) a panic hook that keeps typed runtime panics quiet:
/// injected faults print nothing, typed bounds/capacity panics print one
/// concise line, and everything else falls through to the previous hook
/// (so genuine bugs still get a full report and backtrace).
pub(crate) fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info: &PanicHookInfo<'_>| {
            if info.payload().downcast_ref::<Injected>().is_some() {
                return; // deliberate chaos; the executor contains it
            }
            if let Some(e) = info.payload().downcast_ref::<Error>() {
                eprintln!("hetero-rt: contained kernel fault: {e}");
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_injects() {
        let p = FaultPlan::new(42, 0.0);
        for _ in 0..1000 {
            assert!(!p.should_fail_launch("k"));
            assert!(!p.should_panic("k", 0));
        }
        assert_eq!(p.injected(), 0);
    }

    #[test]
    fn full_rate_always_injects() {
        let p = FaultPlan::new(7, 1.0);
        assert!(p.should_fail_launch("k"));
        assert!(p.should_fail_launch("k"));
        assert!(p.should_panic("k", 3));
        assert!(p.injected() >= 2);
    }

    #[test]
    fn sequenced_draws_reproduce_from_seed() {
        let a = FaultPlan::new(1234, 0.3);
        let b = FaultPlan::new(1234, 0.3);
        for _ in 0..500 {
            assert_eq!(a.should_fail_launch("x"), b.should_fail_launch("x"));
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1, 0.5);
        let b = FaultPlan::new(2, 0.5);
        let da: Vec<bool> = (0..64).map(|_| a.should_fail_launch("x")).collect();
        let db: Vec<bool> = (0..64).map(|_| b.should_fail_launch("x")).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn panic_decisions_are_stateless_and_kernel_specific() {
        let p = FaultPlan::new(99, 0.2);
        // Same (kernel, group) always agrees with itself, in any order.
        let first: Vec<bool> = (0..256).map(|g| p.should_panic("a", g)).collect();
        let again: Vec<bool> = (0..256).map(|g| p.should_panic("a", g)).collect();
        assert_eq!(first, again);
        // Different kernel names fault different groups.
        let other: Vec<bool> = (0..256).map(|g| p.should_panic("b", g)).collect();
        assert_ne!(first, other);
        // Roughly rate-proportional (very loose bounds).
        let hits = first.iter().filter(|&&h| h).count();
        assert!(hits > 10 && hits < 150, "{hits} hits at rate 0.2 over 256");
    }

    #[test]
    fn targeted_panic_hits_exactly_its_site() {
        let p = FaultPlan::panic_at("victim", 5);
        assert!(p.should_panic("victim", 5));
        assert!(!p.should_panic("victim", 4));
        assert!(!p.should_panic("other", 5));
        assert!(!p.should_fail_launch("victim"));
    }

    #[test]
    fn transient_burst_consumes_exactly_n() {
        let p = FaultPlan::transient_burst(3);
        assert!(p.should_fail_launch("k"));
        assert!(p.should_fail_launch("k"));
        assert!(p.should_fail_launch("k"));
        assert!(!p.should_fail_launch("k"));
        assert_eq!(p.injected(), 3);
    }

    #[test]
    fn classify_unwraps_typed_payloads() {
        let e = classify_panic(
            "k",
            2,
            Box::new(Injected(Error::KernelPanicked {
                kernel: "k",
                group: 2,
                message: "injected fault".into(),
            })),
        );
        assert!(matches!(e, Error::KernelPanicked { kernel: "k", group: 2, .. }));

        let e = classify_panic(
            "k",
            0,
            Box::new(Error::AccessOutOfBounds { offset: 9, len: 1, buffer_len: 4 }),
        );
        assert_eq!(e, Error::AccessOutOfBounds { offset: 9, len: 1, buffer_len: 4 });

        let e = classify_panic("k", 7, Box::new("boom".to_string()));
        match e {
            Error::KernelPanicked { kernel, group, message } => {
                assert_eq!((kernel, group), ("k", 7));
                assert_eq!(message, "boom");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn sdc_plan_enables_only_silent_kinds() {
        let p = FaultPlan::sdc(3, 0.5);
        assert!(p.enabled(FaultKind::BitFlip) && p.enabled(FaultKind::StuckPage));
        for _ in 0..100 {
            assert!(!p.should_fail_launch("k"));
            assert!(!p.should_panic("k", 0));
        }
        assert!(!FaultPlan::new(3, 0.5).enabled(FaultKind::BitFlip));
    }

    #[test]
    fn flip_draws_reproduce_from_seed() {
        let a = FaultPlan::sdc(11, 0.3);
        let b = FaultPlan::sdc(11, 0.3);
        let mut any = false;
        for _ in 0..200 {
            let (fa, fb) = (a.wants_flip(false), b.wants_flip(false));
            assert_eq!(fa, fb);
            any |= fa;
            assert_eq!(a.wants_flip(true), b.wants_flip(true));
            assert_eq!(a.pick(97), b.pick(97));
        }
        assert!(any, "rate 0.3 over 200 boundaries must flip at least once");
    }

    #[test]
    fn stuck_site_draws_are_stateless_per_seed() {
        let p = FaultPlan::sdc(21, 0.2);
        assert_eq!(p.stuck_draws(), p.stuck_draws());
        assert_eq!(p.stuck_wanted(), p.stuck_wanted());
    }

    #[test]
    fn local_flip_sites_are_stateless_and_scaled_down() {
        let p = FaultPlan::sdc(9, 0.5);
        let ctx = p.local_ctx("k", 4).expect("bit-flips enabled");
        assert_eq!(ctx.flip_for_alloc(0, 64), ctx.flip_for_alloc(0, 64));
        // rate/1024 per site: over 4096 sites expect a handful, not most.
        let hits = (0..4096u32).filter(|&i| ctx.flip_for_alloc(i, 64).is_some()).count();
        assert!(hits < 64, "{hits} local flips at scaled rate over 4096 sites");
        // Plans without BitFlip produce no local context at all.
        assert!(FaultPlan::new(9, 0.5).local_ctx("k", 4).is_none());
        assert!(FaultPlan::sdc(9, 0.0).local_ctx("k", 4).is_none());
    }

    #[test]
    fn targeted_flips_are_one_shot() {
        let p = FaultPlan::flip_at(7, 123, 2);
        assert!(p.take_flip_targets(|r| r == 8).is_empty(), "waits for its region");
        assert_eq!(p.take_flip_targets(|r| r == 7), vec![(7, 123, 2)]);
        assert!(p.take_flip_targets(|_| true).is_empty());
        assert!(!p.wants_flip(false));
    }
}
