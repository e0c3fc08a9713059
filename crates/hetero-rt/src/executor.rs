//! Work-group executor: distributes independent work-groups over the
//! persistent host thread pool.
//!
//! SYCL guarantees no synchronisation between work-groups within a kernel,
//! so running groups concurrently is semantics-preserving. Groups are
//! claimed from the pool in adaptive chunks (see [`crate::pool`]), which
//! balances irregular group costs (e.g. Mandelbrot rows near the set take
//! far longer than rows far from it) without serialising thousands of
//! tiny groups on one hot atomic.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::error::{Error, Result};
use crate::fault::{classify_panic, FaultPlan};
use crate::ndrange::{GroupCtx, NdRange};

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

/// Execute `kernel` once per work-group of `nd`, in parallel.
///
/// `local_mem_limit` bounds each group's shared-memory allocations (the
/// device capacity).
///
/// A panicking kernel does not abort the process: the panic is contained
/// (see [`run_groups_contained`]) and re-raised here on the calling
/// thread as a typed [`Error`] payload.
pub fn run_groups<K>(nd: NdRange, parallelism: Parallelism, local_mem_limit: usize, kernel: &K)
where
    K: Fn(&GroupCtx) + Sync,
{
    run_groups_contained(nd, parallelism, local_mem_limit, "<kernel>", None, None, None, kernel)
        .unwrap_or_else(|e| std::panic::panic_any(e));
}

/// The containment-aware executor core every queue launch runs through.
/// Returns the pool-dispatch duration: the time spent handing the launch
/// to the worker pool before the submitting thread began executing
/// groups itself (zero on the sequential path). Queues record it so
/// profiling can split launch overhead from kernel work.
///
/// Each work-group executes under `catch_unwind`; the first panic cancels
/// the launch (remaining groups are skipped via a shared flag, already
/// claimed pool chunks drain cheaply) and is classified into a typed
/// error: typed payloads (injected faults, buffer bounds panics,
/// local-memory capacity panics) unwrap to their [`Error`], anything else
/// becomes [`Error::KernelPanicked`] carrying the panic message. The
/// worker pool is untouched by the panic and stays usable.
///
/// When `plan` is `Some`, the fault layer is consulted before every group
/// (a stateless hash decision, see [`FaultPlan::should_panic`]); when
/// `None`, the per-group cost is one branch — the overhead bounded by the
/// `hook_overhead` microbenchmark.
///
/// When `sanitize` is `Some(bindings)`, the launch runs under the dynamic
/// race detector ([`crate::sanitize`]): every group records shadow access
/// logs, merged and analysed here at launch end, and checked against
/// `bindings` when the launch states any. Findings surface as a
/// typed [`Error::DataRace`] (first finding in the deterministic report
/// order); the full list is stashed for
/// [`crate::sanitize::take_last_reports`] on the submitting thread.
#[allow(clippy::too_many_arguments)]
pub fn run_groups_contained<K>(
    nd: NdRange,
    parallelism: Parallelism,
    local_mem_limit: usize,
    kernel_name: &'static str,
    plan: Option<&FaultPlan>,
    sanitize: Option<&[crate::Binding]>,
    cancel: Option<&crate::cancel::CancelToken>,
    kernel: &K,
) -> Result<Duration>
where
    K: Fn(&GroupCtx) + Sync,
{
    crate::fault::install_quiet_hook();
    let num_groups = nd.num_groups();
    let groups_range = nd.groups();
    let threads = parallelism.thread_count().min(num_groups.max(1));
    let session = sanitize.map(|_| crate::sanitize::LaunchSession::begin(kernel_name));

    let run_one = |g: usize| -> std::result::Result<(), Error> {
        let gid = groups_range.delinearize(g);
        // Local-memory SDC flips: `local_ctx` is None unless the plan
        // injects bit-flips, so the common path pays one branch here.
        let local_fault = plan.and_then(|p| p.local_ctx(kernel_name, g));
        let ctx = GroupCtx::new(gid, nd, local_mem_limit, local_fault);
        let prev_recorder = session.as_ref().map(|s| s.install_recorder(g));
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(p) = plan {
                p.maybe_panic(kernel_name, g);
            }
            kernel(&ctx);
        }));
        if let Some(s) = session.as_ref() {
            // Merge the group's shadow log (discarded on panic: the
            // launch already fails with the panic's own error) and
            // restore any enclosing launch's recorder on this thread.
            s.finish_group(prev_recorder.flatten(), r.is_ok());
        }
        r.map_err(|payload| classify_panic(kernel_name, g, payload))
    };

    // After all groups finished cleanly: cross-group race analysis. The
    // first report (in the deterministic sorted order) becomes the
    // launch's typed error.
    let analyze = |session: Option<crate::sanitize::LaunchSession>| -> Result<()> {
        let Some(s) = session else { return Ok(()) };
        let reports = s.finish(sanitize.unwrap_or_default());
        let Some(first) = reports.first() else { return Ok(()) };
        let err = Error::DataRace {
            kernel: kernel_name,
            object: first.object,
            element: first.element,
            kind: first.kind,
        };
        crate::sanitize::stash_reports(reports);
        Err(err)
    };

    if threads <= 1 {
        // Deterministic path: ascending group order on the calling
        // thread, no pool involvement, no atomics.
        for g in 0..num_groups {
            if let Some(t) = cancel {
                t.check(kernel_name)?;
            }
            run_one(g)?;
        }
        analyze(session)?;
        return Ok(Duration::ZERO);
    }

    let abort = AtomicBool::new(false);
    let failure: Mutex<Option<Error>> = Mutex::new(None);

    let (dispatch, stray_payload) = crate::pool::run_job_catch(num_groups, threads, &|start, end| {
        for g in start..end {
            if abort.load(Ordering::Relaxed) {
                break; // launch canceled: drain the claimed chunk cheaply
            }
            let r = match cancel {
                Some(t) => t.check(kernel_name),
                None => Ok(()),
            }
            .and_then(|()| run_one(g));
            if let Err(e) = r {
                abort.store(true, Ordering::Relaxed);
                failure
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .get_or_insert(e);
                break;
            }
        }
    });

    // Per-group catch_unwind means chunks themselves cannot panic; a
    // stray payload would indicate a bug in the claim loop above.
    if let Some(payload) = stray_payload {
        return Err(classify_panic(kernel_name, usize::MAX, payload));
    }
    if let Some(e) = failure
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
    {
        return Err(e);
    }
    analyze(session)?;
    Ok(dispatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::ndrange::FenceSpace;

    #[test]
    fn all_groups_execute_exactly_once() {
        // Whatever the chunk boundaries, in every parallelism mode.
        let nd = NdRange::d1(1024, 32);
        for p in [Parallelism::Sequential, Parallelism::Auto, Parallelism::Threads(3)] {
            let b = Buffer::<u32>::new(nd.num_groups());
            let v = b.view();
            run_groups(nd, p, 1 << 20, &|ctx: &GroupCtx| {
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
        run_groups(nd, Parallelism::Sequential, 1 << 20, &|ctx: &GroupCtx| {
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
            run_groups(nd, p, 1 << 20, &|ctx: &GroupCtx| {
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
        run_groups(nd, Parallelism::Threads(4), 1 << 20, &|ctx: &GroupCtx| {
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
                    assert_eq!(kernel, "boomer");
                    // Sequential hits group 7 exactly; pooled may observe
                    // it from whichever chunk got there first.
                    if p == Parallelism::Sequential {
                        assert_eq!(group, 7);
                    }
                    assert!(message.contains("deliberate"), "{message}");
                }
                other => panic!("expected KernelPanicked, got {other:?}"),
            }

            // The executor (and pool) must still run clean work.
            let b = Buffer::<u32>::new(64);
            let v = b.view();
            run_groups(NdRange::d1(64, 8), p, 1 << 20, &|ctx: &GroupCtx| {
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
