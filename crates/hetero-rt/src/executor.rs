//! The walk: the one place work-groups run.
//!
//! A plan is a list of launches ([`Node`]s), each with its stealable group
//! spans and a retired-group count, grouped into phases of mutually
//! independent launches. A direct launch is the one-node, one-phase plan
//! ([`run_groups_contained`]); a recorded graph's fast replay is the same
//! walk over its recorded nodes and phases. SYCL guarantees no
//! synchronisation between the work-groups of a kernel, so running them
//! concurrently preserves its semantics.
//!
//! Every group runs through one body: the group id delinearized, the
//! [`GroupCtx`] built (with local-memory flips only under a fault plan),
//! the cancel token polled, the kernel run under `catch_unwind` with the
//! fault plan's panic and the sanitizer's recorder, and a panic
//! classified with the exact group that raised it. Groups are claimed
//! from per-participant spans ([`SpanSet`], the one work-stealing
//! structure of the runtime): a participant drains its own span first
//! and steals back halves of the others', which balances irregular
//! group costs (Mandelbrot rows near the set take far longer than rows
//! far from it). The pool under the walk only gathers participants
//! ([`crate::pool::run`], one index each).
//!
//! # The span deque
//!
//! A [`SpanSet`] holds one span per participant, each packed as
//! `(lo, hi)` halves of a single `AtomicU64` so both ends move with one
//! CAS. The owner takes the *front* half (`lo` side, rounded up) —
//! ascending order, next to what it just ran — while thieves take the
//! *back* half (`hi` side), the work furthest from the owner. This is the
//! Chase–Lev split: owner and thieves work opposite ends and only collide
//! when one index remains, where the CAS arbitrates. Halving claims mean
//! a node of `n` groups costs `O(participants · log n)` claims, and the
//! smallest claim is half of whatever remains, so the end of a node is
//! never a storm of one-group claims on one hot word.
//!
//! The claim arithmetic is two pure functions on the packed word,
//! [`front`] and [`back`], and one CAS, [`commit`]; `tests` drives the
//! three through every interleaving of loads and CASes for two and three
//! participants over up to six groups. Chunk boundaries and their order
//! depend on the schedule — a thief can hold chunk `t` while chunk
//! `t - 1` is unclaimed — so no group may wait on another group of its
//! own launch. Nodes are bounded to `u32::MAX` groups so both ends fit
//! one word.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::cancel::CancelToken;
use crate::error::{Error, Result};
use crate::fault::{classify_panic, FaultPlan};
use crate::ndrange::{GroupCtx, NdRange, Range};

/// Pack a span's bounds into one word: `lo` in the high half, `hi` in
/// the low half. Empty when `lo >= hi`.
fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// A claim computed from a span's word: the word to leave behind and
/// the claimed `lo..hi`, or `None` when the span is empty.
type Cut = fn(u64) -> Option<(u64, u32, u32)>;

/// The owner's claim: the front half of the span, rounded up.
fn front(word: u64) -> Option<(u64, u32, u32)> {
    let (lo, hi) = unpack(word);
    if lo >= hi {
        return None;
    }
    let take = (hi - lo).div_ceil(2);
    Some((pack(lo + take, hi), lo, lo + take))
}

/// A thief's claim: the back half of the span, rounded up.
fn back(word: u64) -> Option<(u64, u32, u32)> {
    let (lo, hi) = unpack(word);
    if lo >= hi {
        return None;
    }
    let take = (hi - lo).div_ceil(2);
    Some((pack(lo, hi - take), hi - take, hi))
}

/// Which claim a participant makes on the `d`-th span of its scan (its
/// own span is the 0th).
fn cut(d: usize) -> Cut {
    if d == 0 {
        front
    } else {
        back
    }
}

/// Publish a claim computed from `seen`: the protocol's one CAS. On
/// failure it returns the word found instead.
fn commit(span: &AtomicU64, seen: u64, new: u64) -> std::result::Result<u64, u64> {
    span.compare_exchange(seen, new, Ordering::Relaxed, Ordering::Relaxed)
}

/// One node's groups as per-participant spans with two-ended claiming.
pub(crate) struct SpanSet {
    /// One packed `(lo, hi)` span per participant.
    spans: Box<[AtomicU64]>,
    /// Total indices the set was initialised with.
    total: usize,
}

impl SpanSet {
    /// A zero-length set, re-initialised before use.
    fn empty() -> SpanSet {
        SpanSet::new(0, 1)
    }

    /// Partition `0..total` into `parts` near-equal spans.
    pub(crate) fn new(total: usize, parts: usize) -> SpanSet {
        let mut s = SpanSet { spans: Box::new([]), total };
        s.init(total, parts);
        s
    }

    /// Re-initialise in place for a new launch of `total` groups.
    fn init(&mut self, total: usize, parts: usize) {
        assert!(total <= u32::MAX as usize, "a launch is bounded to u32::MAX groups (got {total})");
        let parts = parts.max(1);
        if self.spans.len() != parts {
            self.spans = (0..parts).map(|_| AtomicU64::new(0)).collect();
        }
        self.total = total;
        self.reset();
    }

    /// Restore the initial partition. Callers must ensure no claimer is
    /// concurrently active (between walks).
    fn reset(&self) {
        let parts = self.spans.len();
        for (p, s) in self.spans.iter().enumerate() {
            let lo = (p * self.total / parts) as u32;
            let hi = ((p + 1) * self.total / parts) as u32;
            s.store(pack(lo, hi), Ordering::Relaxed);
        }
    }

    /// Claim from span `p` with `cut`, retrying on the word a failed CAS
    /// found until the claim lands or the span is empty.
    fn take(&self, p: usize, cut: Cut) -> Option<(usize, usize)> {
        let span = &self.spans[p];
        let mut seen = span.load(Ordering::Relaxed);
        loop {
            let (new, lo, hi) = cut(seen)?;
            match commit(span, seen, new) {
                Ok(_) => return Some((lo as usize, hi as usize)),
                Err(found) => seen = found,
            }
        }
    }

    /// Claim the next chunk for participant `home`, or `None` when every
    /// span is empty: a front half of its own span, else a back half of
    /// the nearest nonempty victim's.
    fn claim(&self, home: usize) -> Option<(usize, usize)> {
        let k = self.spans.len();
        (0..k).find_map(|d| self.take((home + d) % k, cut(d)))
    }
}

/// How many worker threads a launch may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One group at a time on the calling thread, in ascending group
    /// order — bit-for-bit deterministic (and a fair stand-in for
    /// Single-Task-style execution).
    Sequential,
    /// Use up to the host's available hardware parallelism (or the
    /// `HETERO_RT_THREADS` override), resolved once and cached by the
    /// pool rather than re-queried per launch.
    Auto,
    /// Use exactly `n` worker threads.
    Threads(usize),
}

impl Parallelism {
    pub(crate) fn thread_count(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => crate::pool::auto_threads(),
            Parallelism::Threads(n) => n.max(1),
        }
    }
}

/// One launch of a plan: its range and kernel, the stealable spans over
/// its groups, and how many of them are retired (counted where a phase
/// barrier waits on them).
pub(crate) struct Node<K> {
    pub(crate) name: &'static str,
    pub(crate) nd: NdRange,
    groups: Range,
    pub(crate) kernel: K,
    spans: SpanSet,
    done: AtomicUsize,
}

impl<K> Node<K> {
    pub(crate) fn new(name: &'static str, nd: NdRange, kernel: K, spans: SpanSet) -> Self {
        Node { name, nd, groups: nd.groups(), kernel, spans, done: AtomicUsize::new(0) }
    }
}

thread_local! {
    /// The spans of this thread's last direct launch, reused by the next
    /// (a launch nested in a kernel finds the slot empty and allocates).
    static SPANS: Cell<Option<SpanSet>> = const { Cell::new(None) };
}

/// Lock a mutex, recovering the guard if a previous holder panicked.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Execute `kernel` once per work-group of `nd`: a direct launch, the
/// one-node case of [`walk`], which documents the arguments. Returns the
/// pool-dispatch duration.
#[allow(clippy::too_many_arguments)]
pub fn run_groups_contained<K>(
    nd: NdRange,
    parallelism: Parallelism,
    local_mem_limit: usize,
    kernel_name: &'static str,
    faults: Option<&FaultPlan>,
    sanitize: Option<&[crate::Binding]>,
    cancel: Option<&CancelToken>,
    kernel: &K,
) -> Result<Duration>
where
    K: Fn(&GroupCtx) + Sync,
{
    let mut spans = SPANS.take().unwrap_or_else(SpanSet::empty);
    spans.init(nd.num_groups(), parallelism.thread_count());
    let nodes = [Node::new(kernel_name, nd, kernel, spans)];
    let r = walk(&nodes, &[(0, 1)], parallelism, local_mem_limit, faults, sanitize, cancel);
    let [node] = nodes;
    SPANS.set(Some(node.spans));
    r
}

/// Run every group of every node of a plan: `phases` are half-open node
/// ranges, run in order, whose nodes run concurrently. Returns the
/// pool-dispatch duration: the time spent handing the plan to the pool
/// before the submitting thread began running groups itself (zero
/// inline). Queues record it so profiling can split launch overhead from
/// kernel work.
///
/// With one participant — `Parallelism::Sequential`, `Auto` on a
/// one-thread pool, or a single group — the walk runs inline: nodes in
/// order, groups in ascending order, on the calling thread. Otherwise it
/// is one pool job of one index per participant; each sweeps the phases, claiming groups
/// from every node's spans, and waits at a phase boundary until every
/// group of the phase is retired (on work, never on participants, so any
/// subset of the pool completes the plan). The pool job's completion is
/// the last phase's barrier.
///
/// The first failing group stops the walk (other participants drain
/// what they claimed without running it) and is its error: a fired
/// `cancel` token is [`Error::Canceled`], typed panic payloads (injected
/// faults, bounds and local-memory capacity panics) unwrap to their
/// [`Error`], anything else is [`Error::KernelPanicked`] naming the
/// group. The pool survives.
///
/// `faults` is consulted before every group (a stateless hash, see
/// [`FaultPlan::should_panic`]); without one, the per-group cost is one
/// branch, what `hook_overhead` bounds. `sanitize` (a one-node plan's
/// bindings) runs the walk under the race detector ([`crate::sanitize`]):
/// the groups' shadow logs are merged and analysed when they all
/// finished and checked against the bindings; the first finding in the
/// deterministic report order is the typed [`Error::DataRace`], and the
/// full list is stashed for [`crate::sanitize::take_last_reports`].
pub(crate) fn walk<K>(
    nodes: &[Node<K>],
    phases: &[(usize, usize)],
    parallelism: Parallelism,
    local_mem_limit: usize,
    faults: Option<&FaultPlan>,
    sanitize: Option<&[crate::Binding]>,
    cancel: Option<&CancelToken>,
) -> Result<Duration>
where
    K: Fn(&GroupCtx) + Sync,
{
    crate::fault::install_quiet_hook();
    let session = sanitize.map(|_| crate::sanitize::LaunchSession::begin(nodes[0].name));
    let run_one = |node: &Node<K>, g: usize| -> Result<()> {
        if let Some(t) = cancel {
            t.check(node.name)?;
        }
        let local_fault = faults.and_then(|p| p.local_ctx(node.name, g));
        let ctx = GroupCtx::new(node.groups.delinearize(g), node.nd, local_mem_limit, local_fault);
        let prev_recorder = session.as_ref().map(|s| s.install_recorder(g));
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(p) = faults {
                p.maybe_panic(node.name, g);
            }
            (node.kernel)(&ctx);
        }));
        if let Some(s) = session.as_ref() {
            // Merge the group's shadow log (discarded on panic: the walk
            // already fails with the panic's own error) and restore any
            // enclosing launch's recorder on this thread.
            s.finish_group(prev_recorder.flatten(), r.is_ok());
        }
        r.map_err(|payload| classify_panic(node.name, g, payload))
    };

    let max_groups = nodes.iter().map(|n| n.groups.size()).max().unwrap_or(0);
    let participants = parallelism.thread_count().min(max_groups).max(1);
    let dispatch = if participants == 1 {
        for node in nodes {
            for g in 0..node.groups.size() {
                run_one(node, g)?;
            }
        }
        Duration::ZERO
    } else {
        for node in nodes {
            node.spans.reset();
            node.done.store(0, Ordering::Relaxed);
        }
        let abort = AtomicBool::new(false);
        let failure: Mutex<Option<Error>> = Mutex::new(None);
        // A participant's pool index is its home span in every node.
        let sweep = |home: usize| {
            for (i, &(ps, pe)) in phases.iter().enumerate() {
                let last = i + 1 == phases.len();
                for node in &nodes[ps..pe] {
                    while !abort.load(Ordering::Relaxed) {
                        let Some((start, end)) = node.spans.claim(home) else {
                            break;
                        };
                        for g in start..end {
                            if abort.load(Ordering::Relaxed) {
                                break;
                            }
                            if let Err(e) = run_one(node, g) {
                                lock(&failure).get_or_insert(e);
                                abort.store(true, Ordering::Relaxed);
                            }
                        }
                        // Release: publishes the chunk's writes to whoever
                        // observes the phase complete below.
                        if !last {
                            node.done.fetch_add(end - start, Ordering::AcqRel);
                        }
                    }
                }
                if last {
                    return;
                }
                for node in &nodes[ps..pe] {
                    let mut spins = 0u32;
                    while node.done.load(Ordering::Acquire) < node.groups.size() {
                        if abort.load(Ordering::Relaxed) {
                            return;
                        }
                        spins += 1;
                        if spins < 128 {
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
            }
        };
        let (dispatch, stray) = crate::pool::run(participants, &sweep);
        // Groups run under their own catch_unwind; a stray payload is a
        // bug in the sweep itself.
        if let Some(payload) = stray {
            return Err(classify_panic(nodes[0].name, usize::MAX, payload));
        }
        if let Some(e) = lock(&failure).take() {
            return Err(e);
        }
        dispatch
    };

    // Every group finished cleanly: the cross-group race analysis.
    if let (Some(s), Some(bindings)) = (session, sanitize) {
        let reports = s.finish(bindings);
        if let Some(first) = reports.first() {
            let err = Error::DataRace {
                kernel: nodes[0].name,
                object: first.object,
                element: first.element,
                kind: first.kind,
            };
            crate::sanitize::stash_reports(reports);
            return Err(err);
        }
    }
    Ok(dispatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::ndrange::FenceSpace;

    /// A clean direct launch with no hooks.
    fn launch<K: Fn(&GroupCtx) + Sync>(nd: NdRange, p: Parallelism, kernel: &K) {
        run_groups_contained(nd, p, 1 << 20, "<kernel>", None, None, None, kernel).unwrap();
    }

    /// One participant of the claim model: how far its scan of the spans
    /// has got (`d`, its own span first), and the word it last read there,
    /// if any. `None` once it gave up.
    type Pc = Option<(usize, Option<u64>)>;

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Model {
        spans: Vec<u64>,
        pcs: Vec<Pc>,
        /// Bit `i` set once group `i` was claimed.
        claimed: u64,
        claims: usize,
        steals: usize,
    }

    /// Every schedule of `parts` participants claiming `n` groups, as
    /// [`SpanSet::claim`] does, one load or one CAS at a time: checks
    /// that each group is claimed exactly once, that a participant gives
    /// up only when every span is empty, and that the claim count stays
    /// within the halving bound. Returns the number of states visited.
    fn enumerate_claims(parts: usize, n: usize) -> usize {
        let set = SpanSet::new(n, parts);
        let start = Model {
            spans: set.spans.iter().map(|s| s.load(Ordering::Relaxed)).collect(),
            pcs: vec![Some((0, None)); parts],
            claimed: 0,
            claims: 0,
            steals: 0,
        };
        let per_span = n.div_ceil(parts).next_power_of_two().trailing_zeros() as usize + 2;
        let mut seen = std::collections::HashSet::from([start.clone()]);
        let mut stack = vec![start];
        while let Some(m) = stack.pop() {
            if m.pcs.iter().all(Option::is_none) {
                assert_eq!(m.claimed, (1u64 << n) - 1, "{parts} x {n}: groups left unclaimed");
                let bound = parts * per_span + 2 * m.steals;
                assert!(m.claims <= bound, "{parts} x {n}: {} claims, bound {bound}", m.claims);
                continue;
            }
            for p in 0..parts {
                let Some((d, word)) = m.pcs[p] else { continue };
                let mut next = m.clone();
                let s = (p + d) % parts;
                match word {
                    // Load.
                    None => next.pcs[p] = Some((d, Some(m.spans[s]))),
                    Some(w) => match cut(d)(w) {
                        // An empty span: on to the next, or give up.
                        None if d + 1 < parts => next.pcs[p] = Some((d + 1, None)),
                        None => {
                            assert!(
                                m.spans.iter().all(|&v| front(v).is_none()),
                                "{parts} x {n}: participant {p} gave up with work left"
                            );
                            next.pcs[p] = None;
                        }
                        // CAS.
                        Some((new, lo, hi)) => {
                            let span = AtomicU64::new(m.spans[s]);
                            let r = commit(&span, w, new);
                            next.spans[s] = span.into_inner();
                            match r {
                                Ok(_) => {
                                    for g in lo..hi {
                                        assert_eq!(
                                            next.claimed & (1 << g),
                                            0,
                                            "{parts} x {n}: group {g} claimed twice"
                                        );
                                        next.claimed |= 1 << g;
                                    }
                                    next.claims += 1;
                                    next.steals += usize::from(d > 0);
                                    next.pcs[p] = Some((0, None));
                                }
                                Err(found) => next.pcs[p] = Some((d, Some(found))),
                            }
                        }
                    },
                }
                if seen.insert(next.clone()) {
                    stack.push(next);
                }
            }
        }
        seen.len()
    }

    #[test]
    fn every_claim_schedule_of_two_and_three_participants_is_sound() {
        let mut states = 0;
        for parts in [2, 3] {
            for n in 0..=6 {
                states += enumerate_claims(parts, n);
            }
        }
        assert!(states > 10_000, "the enumeration reached only {states} states");
    }

    #[test]
    fn all_groups_execute_exactly_once() {
        // Whatever the chunk boundaries, in every parallelism mode.
        let nd = NdRange::d1(1024, 32);
        for p in [Parallelism::Sequential, Parallelism::Auto, Parallelism::Threads(3)] {
            let b = Buffer::<u32>::new(nd.num_groups());
            let v = b.view();
            launch(nd, p, &|ctx: &GroupCtx| {
                v.atomic_add_u32(ctx.group_linear(), 1);
            });
            assert!(b.to_vec().iter().all(|&c| c == 1), "{p:?}");
        }
    }

    #[test]
    fn item_counts_aggregate_over_phases() {
        let nd = NdRange::d1(64, 16);
        let count = Buffer::<u32>::new(1);
        let v = count.view();
        launch(nd, Parallelism::Sequential, &|ctx: &GroupCtx| {
            ctx.items(|_| {
                v.atomic_add_u32(0, 1);
            });
            ctx.barrier(FenceSpace::Local);
            ctx.items(|_| {
                v.atomic_add_u32(0, 1);
            });
        });
        // Two phases × 64 items.
        assert_eq!(count.to_vec()[0], 128);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let nd = NdRange::d1(4096, 64);
        let run = |p| {
            let b = Buffer::<f32>::new(4096);
            let v = b.view();
            launch(nd, p, &|ctx: &GroupCtx| {
                ctx.items(|it| {
                    let i = it.global_linear;
                    v.set(i, (i as f32).sqrt());
                });
            });
            b.to_vec()
        };
        assert_eq!(run(Parallelism::Sequential), run(Parallelism::Threads(8)));
    }

    #[test]
    fn uneven_group_costs_are_balanced() {
        // Groups with wildly different costs must all complete; the
        // chunk-claiming scheduler handles the imbalance.
        let nd = NdRange::d1(64, 1);
        let b = Buffer::<u32>::new(64);
        let v = b.view();
        launch(nd, Parallelism::Threads(4), &|ctx: &GroupCtx| {
            let g = ctx.group_linear();
            let mut acc = 0u64;
            for i in 0..(g * 1000) {
                acc = acc.wrapping_add(i as u64);
            }
            v.set(g, (acc as u32).wrapping_add(1).max(1));
        });
        assert!(b.to_vec().iter().all(|&x| x != 0));
    }

    #[test]
    fn kernel_panic_contained_in_both_modes() {
        for p in [Parallelism::Sequential, Parallelism::Auto, Parallelism::Threads(3)] {
            let nd = NdRange::d1(1024, 32);
            let e = run_groups_contained(nd, p, 1 << 20, "boomer", None, None, None, &|ctx: &GroupCtx| {
                if ctx.group_linear() == 7 {
                    panic!("deliberate kernel bug");
                }
            })
            .unwrap_err();
            match e {
                crate::error::Error::KernelPanicked { kernel, group, message } => {
                    assert_eq!((kernel, group), ("boomer", 7), "{p:?}");
                    assert!(message.contains("deliberate"), "{message}");
                }
                other => panic!("expected KernelPanicked, got {other:?}"),
            }

            // The executor (and pool) must still run clean work.
            let b = Buffer::<u32>::new(64);
            let v = b.view();
            launch(NdRange::d1(64, 8), p, &|ctx: &GroupCtx| {
                ctx.items(|it| v.set(it.global_linear, 1));
            });
            assert!(b.to_vec().iter().all(|&x| x == 1));
        }
    }

    #[test]
    fn injected_fault_hits_its_target_group() {
        let plan = crate::fault::FaultPlan::panic_at("victim", 3);
        let nd = NdRange::d1(512, 64);
        let e = run_groups_contained(
            nd,
            Parallelism::Sequential,
            1 << 20,
            "victim",
            Some(&plan),
            None,
            None,
            &|_ctx: &GroupCtx| {},
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::error::Error::KernelPanicked { kernel: "victim", group: 3, .. }
            ),
            "{e:?}"
        );

        // Same plan, different kernel name: untouched.
        let r = run_groups_contained(
            nd,
            Parallelism::Sequential,
            1 << 20,
            "bystander",
            Some(&plan),
            None,
            None,
            &|_ctx: &GroupCtx| {},
        );
        assert!(r.is_ok());
    }

    #[test]
    fn typed_panic_payloads_become_their_error() {
        // A buffer OOB inside a kernel surfaces as AccessOutOfBounds, not
        // as a generic KernelPanicked.
        let b = Buffer::<u32>::new(8);
        let v = b.view();
        let e = run_groups_contained(
            NdRange::d1(16, 16),
            Parallelism::Sequential,
            1 << 20,
            "oob",
            None,
            None,
            None,
            &|ctx: &GroupCtx| {
                ctx.items(|it| v.set(it.global_linear, 1)); // 8..15 out of bounds
            },
        )
        .unwrap_err();
        assert!(
            matches!(e, crate::error::Error::AccessOutOfBounds { offset: 8, .. }),
            "{e:?}"
        );
    }

    #[test]
    fn dispatch_time_zero_for_sequential() {
        let nd = NdRange::d1(256, 16);
        let d = run_groups_contained(
            nd,
            Parallelism::Sequential,
            1 << 20,
            "seq",
            None,
            None,
            None,
            &|ctx: &GroupCtx| ctx.items(|_| {}),
        );
        assert_eq!(d, Ok(Duration::ZERO));
    }
}
