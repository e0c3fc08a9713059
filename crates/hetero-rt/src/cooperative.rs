//! Cooperative (grid-level) kernels.
//!
//! Altis exercises CUDA's newer features, including *grid-level
//! synchronisation* (cooperative groups): a barrier across every
//! work-item of the launch, not just a work-group. SYCL has no portable
//! equivalent, which is one of the porting pain points the suite
//! represents. This runtime supports it directly: a cooperative kernel
//! receives a [`GridCtx`] and expresses grid-wide phases, each executed
//! in parallel over the whole index space before the next begins.

use std::cell::RefCell;

use crate::error::{Error, Result};
use crate::event::Event;
use crate::ndrange::{Item, NdRange};
use crate::queue::Queue;

/// Execution context for a cooperative (whole-grid) kernel.
pub struct GridCtx<'q> {
    queue: &'q Queue,
    nd: NdRange,
    /// The first phase error; later phases are skipped.
    failed: RefCell<Option<Error>>,
}

impl GridCtx<'_> {
    /// The launch's ND-range.
    pub fn nd_range(&self) -> NdRange {
        self.nd
    }

    /// Run `f` once per work-item of the *entire grid* (one grid phase),
    /// in parallel. Once a phase has failed, later phases do not run and
    /// the launch returns that phase's error.
    pub fn items(&self, f: impl Fn(Item) + Sync) {
        let mut failed = self.failed.borrow_mut();
        if failed.is_some() {
            return;
        }
        // Each phase is itself a parallel sweep; phase completion is the
        // grid barrier.
        if let Err(e) = self.queue.nd_range("coop_phase", self.nd, |ctx| ctx.items(&f)) {
            *failed = Some(e);
        }
    }

    /// Grid-wide synchronisation (like `grid.sync()` in CUDA cooperative
    /// groups). Phases already run to completion, so this is a semantic
    /// marker — kept so ported kernels read like their originals.
    pub fn sync(&self) {}
}

impl Queue {
    /// Launch a cooperative kernel: `kernel` drives grid-wide phases via
    /// [`GridCtx::items`] separated by [`GridCtx::sync`]. Fails if the
    /// ND-range is invalid for the device (same rules as
    /// [`Queue::nd_range`]) or with the first error of a phase (already
    /// on the ledger, recorded by the phase's own launch).
    pub fn nd_range_cooperative<K>(&self, name: &'static str, nd: NdRange, kernel: K) -> Result<Event>
    where
        K: FnOnce(&GridCtx<'_>),
    {
        nd.validate()?;
        let ctx = GridCtx { queue: self, nd, failed: RefCell::new(None) };
        kernel(&ctx);
        if let Some(e) = ctx.failed.into_inner() {
            return Err(e);
        }
        // Stats for cooperative launches are aggregated per phase by the
        // inner nd_range calls; report the launch itself here.
        Ok(self.single_task(name, || {}))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Buffer;
    use crate::device::Device;
    use std::time::Duration;

    #[test]
    fn grid_sync_orders_whole_grid_phases() {
        // Phase 1: every item writes its slot. Phase 2: every item reads
        // the slot of an item in a *different work-group* — only correct
        // with a grid-wide barrier between the phases.
        let q = Queue::new(Device::cpu());
        let n = 1024;
        let a = Buffer::<u32>::new(n);
        let b = Buffer::<u32>::new(n);
        let (av, bv) = (a.view(), b.view());
        q.nd_range_cooperative("coop", NdRange::d1(n, 32), |grid| {
            grid.items(|it| av.set(it.global_linear, it.global_linear as u32 * 3));
            grid.sync();
            grid.items(|it| {
                // Read from the opposite end of the grid: crosses groups.
                let src = n - 1 - it.global_linear;
                bv.set(it.global_linear, av.get(src));
            });
        })
        .unwrap();
        for (i, &v) in b.to_vec().iter().enumerate() {
            assert_eq!(v, ((n - 1 - i) as u32) * 3);
        }
    }

    #[test]
    fn cooperative_launch_validates_geometry() {
        let q = Queue::new(Device::cpu());
        let err = q.nd_range_cooperative("bad", NdRange::d1(100, 32), |_| {});
        assert!(err.is_err());
    }

    #[test]
    fn iterative_grid_relaxation_converges() {
        // Jacobi-style sweep with a grid barrier per iteration — the
        // usage pattern grid sync exists for.
        let q = Queue::new(Device::cpu());
        let n = 256;
        let cur = Buffer::<f32>::new(n);
        let next = Buffer::<f32>::new(n);
        cur.write(|d| {
            d[0] = 0.0;
            d[n - 1] = 1.0;
            for v in d[1..n - 1].iter_mut() {
                *v = 0.5;
            }
        });
        next.write_from(&cur.to_vec());
        let (cv, nv) = (cur.view(), next.view());
        q.nd_range_cooperative("jacobi", NdRange::d1(n, 64), |grid| {
            for iter in 0..200 {
                let (src, dst) = if iter % 2 == 0 { (&cv, &nv) } else { (&nv, &cv) };
                grid.items(|it| {
                    let i = it.global_linear;
                    if i > 0 && i < n - 1 {
                        dst.set(i, 0.5 * (src.get(i - 1) + src.get(i + 1)));
                    } else {
                        dst.set(i, src.get(i));
                    }
                });
                grid.sync();
            }
        })
        .unwrap();
        // Converges towards the linear profile x/(n-1).
        let out = cur.to_vec();
        let mid = out[n / 2];
        assert!((mid - 0.5).abs() < 0.05, "mid = {mid}");
        assert!(out.windows(2).all(|w| w[1] >= w[0] - 1e-4), "not monotone");
    }

    #[test]
    fn a_faulting_phase_fails_the_launch_and_skips_later_phases() {
        let ledger = std::sync::Arc::new(crate::event::ResilienceLedger::new());
        let q = Queue::new(Device::cpu())
            .with_fault_plan(None)
            .with_resilience_ledger(Some(ledger.clone()));
        let short = Buffer::<u32>::new(8);
        let later = Buffer::<u32>::new(64);
        let (sv, lv) = (short.view(), later.view());
        let err = q
            .nd_range_cooperative("coop", NdRange::d1(64, 16), |grid| {
                grid.items(|it| sv.set(it.global_linear, 1));
                grid.sync();
                grid.items(|it| lv.set(it.global_linear, 1));
            })
            .unwrap_err();
        assert!(matches!(err, Error::AccessOutOfBounds { len: 1, buffer_len: 8, .. }), "{err:?}");
        assert!(later.to_vec().iter().all(|&v| v == 0), "the second phase must not run");
        let snap = ledger.snapshot();
        assert_eq!((snap.launches, snap.errors), (1, 1), "recorded once, by the phase's launch");
    }

    #[test]
    fn an_injected_transient_in_a_phase_fails_the_launch() {
        use crate::queue::RetryPolicy;
        // A burst of 5 against 2 attempts: the first phase exhausts its
        // budget.
        let plan = std::sync::Arc::new(crate::fault::FaultPlan::transient_burst(5));
        let q = Queue::new(Device::cpu())
            .with_fault_plan(Some(plan))
            .with_retry_policy(RetryPolicy { max_attempts: 2, backoff: Duration::ZERO });
        let out = Buffer::<u32>::new(64);
        let ov = out.view();
        let err = q
            .nd_range_cooperative("coop", NdRange::d1(64, 16), |grid| {
                grid.items(|it| ov.set(it.global_linear, 1));
            })
            .unwrap_err();
        assert_eq!(err, Error::TransientLaunchFailure { kernel: "coop_phase", attempts: 2 });
        assert!(out.to_vec().iter().all(|&v| v == 0));
    }
}
