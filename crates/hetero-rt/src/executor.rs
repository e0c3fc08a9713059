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
//! from per-participant spans (see [`crate::pool`]): a participant drains
//! its own span first and steals back halves of the others', which
//! balances irregular group costs (Mandelbrot rows near the set take far
//! longer than rows far from it).

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::cancel::CancelToken;
use crate::error::{Error, Result};
use crate::fault::{classify_panic, FaultPlan};
use crate::ndrange::{GroupCtx, NdRange, Range};
use crate::pool::SpanSet;

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
        let sweep = |home: usize, _: usize| {
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
        let (dispatch, stray) = crate::pool::run_job_catch(participants, participants, &sweep);
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
