//! Streaming execution with windowed fault containment.
//!
//! The batch suite runs load → execute → validate once; the serving
//! layer's north star is a *long-lived* pipeline that ingests an
//! unbounded sequence of input windows (frames for the iterative stencil
//! apps, point batches for KMeans, observation frames for
//! ParticleFilter) and stays correct and live while individual windows
//! fail. This module provides the app-agnostic half of that mode:
//!
//! * [`StreamStage`] — the contract an application implements: advance
//!   carried state by one window on the queue it is handed, or advance
//!   it with infallible host math (the last-resort reference path).
//! * [`StreamRunner`] — drives windows through a stage inside a
//!   containment scope, and is the one place a window's queue is picked:
//!   the hardened *primary* (fault injection, integrity, retries all
//!   active) for every first attempt and retry, the fault-free *clean*
//!   queue for recovery and shedding. Every window ends in exactly one
//!   typed [`WindowVerdict`]; an injected kernel panic, transient fault
//!   or SDC detection triggers **checkpoint/rollback recovery**: the
//!   runner restores the last sealed snapshot of stream state, replays
//!   the intervening windows on the clean queue, seals the state it
//!   recovered as the new checkpoint, and resumes — one poisoned window
//!   never kills or silently corrupts the stream.
//!
//! ## Containment invariants
//!
//! 1. A window whose hardened advance fails is **never delivered**: it
//!    ends `Retried` (transient absorbed within the attempt budget),
//!    `Quarantined` (rollback + clean replay recovered the state), or
//!    `Dropped` (recovery itself failed; host-reference continuation).
//! 2. After a `Quarantined` verdict the stream state is **bit-identical**
//!    to what an uninterrupted run would carry: rollback restores a
//!    sealed snapshot and the clean replay recomputes every window since.
//! 3. Shedding drops *delivery and hardening*, not state evolution: a
//!    shed window still advances carried state on the clean path, so
//!    later delivered windows remain bit-equal to the unshed trail.
//! 4. Cancellation ([`Error::Canceled`]) is stream-fatal by design (a
//!    deadline watchdog fired) and is surfaced as an `Err` from the
//!    runner, not as a window verdict.
//!
//! ## Seals
//!
//! The runner holds exactly one checkpoint. It seals one on schedule
//! (every [`StreamConfig::checkpoint_every`] windows) and one after every
//! `Quarantined` window, at most one per position, and verifies the seal
//! before every restore; a fault that persists therefore replays one
//! window per rollback, not the span back to the last scheduled seal. A clean-queue replay of a recorded graph reseals
//! the page checksums of the sealed buffers it writes ([`crate::Graph`]),
//! so the primary's next launch entry does not read the recovery's own
//! writes as corruption.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::error::{Error, Result};
use crate::queue::Queue;

/// The typed outcome of one stream window. Exactly one verdict is
/// produced per ingested window; anything other than `Delivered` means
/// the window's hardened execution did not complete cleanly on the
/// first attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WindowVerdict {
    /// The hardened advance succeeded on the first attempt; the window's
    /// output is live and bit-equal to the uninterrupted trail.
    Delivered,
    /// A transient launch failure was absorbed by re-running the whole
    /// window; `attempts` counts every try including the successful one.
    Retried {
        /// Total advance attempts, including the one that succeeded.
        attempts: u32,
    },
    /// The window's hardened execution failed (kernel panic, detected
    /// corruption, exhausted retry budget); the runner rolled back to
    /// the last sealed checkpoint and recovered the stream on the clean
    /// path. The window's output was not delivered; the stream is live
    /// and uncorrupted.
    Quarantined {
        /// Human-readable failure that triggered the quarantine.
        reason: String,
    },
    /// Recovery itself failed; the stream continued on the host
    /// reference path. Gates treat any `Dropped` window as a failure of
    /// the recovery machinery.
    Dropped {
        /// Original failure plus the recovery error.
        reason: String,
    },
    /// The caller shed the window under backpressure
    /// ([`StreamRunner::shed_window`]) before its hardened execution
    /// began. State still advanced on the clean path (invariant 3).
    Shed,
}

impl WindowVerdict {
    /// Stable lowercase label for wire formats and log lines.
    pub fn label(&self) -> &'static str {
        match self {
            WindowVerdict::Delivered => "delivered",
            WindowVerdict::Retried { .. } => "retried",
            WindowVerdict::Quarantined { .. } => "quarantined",
            WindowVerdict::Dropped { .. } => "dropped",
            WindowVerdict::Shed => "shed",
        }
    }

    /// Whether the window's output reached the consumer bit-clean.
    pub fn is_delivered(&self) -> bool {
        matches!(self, WindowVerdict::Delivered)
    }
}

/// Per-window report emitted by the runner.
#[derive(Clone, Debug)]
pub struct WindowReport {
    /// Zero-based window index in the stream.
    pub index: u64,
    /// The window's typed outcome.
    pub verdict: WindowVerdict,
    /// Digest of the carried stream state *after* this window.
    pub digest: u64,
    /// Wall time spent executing (or shedding) this window.
    pub micros: u64,
    /// Whether checkpoint rollback ran while handling this window.
    pub rolled_back: bool,
}

/// Runner policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Seal a snapshot of stream state every this many windows (the
    /// rollback granularity; a recovered window seals as well). Must be
    /// ≥ 1.
    pub checkpoint_every: u64,
    /// Whole-window re-execution budget for transient launch failures
    /// (on top of any per-launch retry policy the stage's queue has).
    pub max_retries: u32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { checkpoint_every: 8, max_retries: 3 }
    }
}

/// Aggregate stream counters; one per runner.
#[derive(Clone, Debug, Default)]
pub struct StreamStats {
    /// Windows that received a verdict.
    pub windows: u64,
    /// `Delivered` verdicts.
    pub delivered: u64,
    /// `Retried` verdicts.
    pub retried: u64,
    /// `Quarantined` verdicts.
    pub quarantined: u64,
    /// `Dropped` verdicts.
    pub dropped: u64,
    /// `Shed` verdicts.
    pub shed: u64,
    /// Snapshots sealed.
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Windows re-executed on the clean path during rollbacks.
    pub replayed: u64,
    /// Total wall time spent inside rollback recovery.
    pub rollback_nanos: u128,
}

impl StreamStats {
    /// Windows whose hardened first attempt did not complete cleanly.
    pub fn non_delivered(&self) -> u64 {
        self.retried + self.quarantined + self.dropped + self.shed
    }
}

/// The application half of a stream: one window's worth of computation
/// over carried state, on a device queue or in host math, which must
/// agree bit-for-bit on success.
///
/// The runner relies on two contracts:
///
/// * **State-on-success:** `advance` mutates `state` only after the
///   window's device work succeeded; a failed or panicked advance leaves
///   `state` exactly as it found it (device buffers may hold partial
///   writes — the next attempt or the recovery replay rewrites them from
///   host state before launching).
/// * **Any queue, same state:** a successful `advance` computes the same
///   bits on whichever queue it is handed, so recovery on the clean queue
///   is indistinguishable from an uninterrupted primary run.
pub trait StreamStage {
    /// Carried stream state: the iterative app's carry buffers, RNG
    /// state, accumulators. Cloned at checkpoint seal time.
    type State: Clone + Send + 'static;

    /// Advance `state` by window `window`, submitting the window's device
    /// work to `q`.
    fn advance(&mut self, q: &Queue, state: &mut Self::State, window: u64) -> Result<()>;

    /// Advance `state` by window `window` with infallible host math (the
    /// app's golden loop body). Last-resort continuation only.
    fn reference(&self, state: &mut Self::State, window: u64);

    /// Digest of the carried state, for the seals and the per-window
    /// reports. A change to any one word of the state must change it.
    /// It is compared only within a process (trails and seals), never
    /// against a committed value, so a stage may change its format.
    fn digest(&self, state: &Self::State) -> u64;
}

struct Checkpoint<S> {
    /// First window index *not* captured by this snapshot.
    next: u64,
    state: S,
    /// Digest sealed at snapshot time; verified before every rollback.
    seal: u64,
}

/// Drives an unbounded sequence of windows through a [`StreamStage`]
/// inside a containment scope. See the module docs for the verdict
/// taxonomy and invariants.
pub struct StreamRunner<S: StreamStage> {
    primary: Queue,
    clean: Queue,
    stage: S,
    state: S::State,
    cfg: StreamConfig,
    checkpoint: Checkpoint<S::State>,
    stats: StreamStats,
    next: u64,
}

impl<S: StreamStage> StreamRunner<S> {
    /// Build a runner over `stage` starting from `initial` state; the
    /// initial state is sealed as checkpoint zero. Windows run on
    /// `primary`; rollback replays and shed windows on `clean`.
    pub fn new(
        primary: Queue,
        clean: Queue,
        stage: S,
        initial: S::State,
        cfg: StreamConfig,
    ) -> Self {
        let cfg = StreamConfig { checkpoint_every: cfg.checkpoint_every.max(1), ..cfg };
        let seal = stage.digest(&initial);
        let stats = StreamStats { checkpoints: 1, ..StreamStats::default() };
        StreamRunner {
            primary,
            clean,
            checkpoint: Checkpoint { next: 0, state: initial.clone(), seal },
            stage,
            state: initial,
            cfg,
            stats,
            next: 0,
        }
    }

    /// Index of the next window this runner will execute.
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Digest of the current carried state.
    pub fn digest(&self) -> u64 {
        self.stage.digest(&self.state)
    }

    /// Borrow the carried state (tests and final-result extraction).
    pub fn state(&self) -> &S::State {
        &self.state
    }

    /// Consume the runner, yielding the carried state.
    pub fn into_state(self) -> S::State {
        self.state
    }

    /// Execute the next window under containment. Returns `Err` only for
    /// stream-fatal conditions (cancellation); every per-window failure
    /// is converted into a typed verdict.
    pub fn next_window(&mut self) -> Result<WindowReport> {
        let w = self.next;
        let t0 = Instant::now();
        let mut rolled_back = false;
        let verdict = self.execute_contained(w, &mut rolled_back)?;
        self.finish_window(w, verdict, t0, rolled_back)
    }

    /// Shed the next window: skip hardened execution and delivery, but
    /// advance carried state on the clean path (invariant 3).
    pub fn shed_window(&mut self) -> Result<WindowReport> {
        let w = self.next;
        let t0 = Instant::now();
        let mut rolled_back = false;
        let verdict = match contained(|| self.stage.advance(&self.clean, &mut self.state, w)) {
            Ok(()) => WindowVerdict::Shed,
            Err(e) if matches!(e, Error::Canceled { .. }) => return Err(e),
            Err(e) => self.quarantine(w, format!("shed window failed: {e}"), &mut rolled_back)?,
        };
        self.finish_window(w, verdict, t0, rolled_back)
    }

    fn finish_window(
        &mut self,
        w: u64,
        verdict: WindowVerdict,
        t0: Instant,
        rolled_back: bool,
    ) -> Result<WindowReport> {
        self.next = w + 1;
        self.stats.windows += 1;
        match &verdict {
            WindowVerdict::Delivered => self.stats.delivered += 1,
            WindowVerdict::Retried { .. } => self.stats.retried += 1,
            WindowVerdict::Quarantined { .. } => self.stats.quarantined += 1,
            WindowVerdict::Dropped { .. } => self.stats.dropped += 1,
            WindowVerdict::Shed => self.stats.shed += 1,
        }
        // One digest per window: the report's, and the seal's when this
        // window seals. A quarantined window's state was recovered on the
        // clean queue from a verified seal, so it is sealed at once, and
        // the next rollback replays from here — once per position, even
        // on a schedule boundary.
        let digest = self.stage.digest(&self.state);
        let recovered = matches!(verdict, WindowVerdict::Quarantined { .. });
        if recovered || self.next.is_multiple_of(self.cfg.checkpoint_every) {
            self.checkpoint = Checkpoint { next: self.next, state: self.state.clone(), seal: digest };
            self.stats.checkpoints += 1;
        }
        Ok(WindowReport {
            index: w,
            verdict,
            digest,
            micros: t0.elapsed().as_micros() as u64,
            rolled_back,
        })
    }

    fn execute_contained(&mut self, w: u64, rolled_back: &mut bool) -> Result<WindowVerdict> {
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            match contained(|| self.stage.advance(&self.primary, &mut self.state, w)) {
                Ok(()) => {
                    return Ok(if attempts == 1 {
                        WindowVerdict::Delivered
                    } else {
                        WindowVerdict::Retried { attempts }
                    });
                }
                Err(Error::TransientLaunchFailure { .. }) if attempts <= self.cfg.max_retries => {
                    // State-on-success contract: a failed advance left
                    // host state untouched, so re-running the whole
                    // window is safe.
                    continue;
                }
                Err(e) if matches!(e, Error::Canceled { .. }) => return Err(e),
                Err(e) => return self.quarantine(w, e.to_string(), rolled_back),
            }
        }
    }

    /// Roll back to the last sealed checkpoint and recover windows
    /// `checkpoint.next ..= w` on the clean path. On success the stream
    /// state is bit-identical to an uninterrupted run through `w`, and
    /// [`StreamRunner::finish_window`] seals it.
    fn quarantine(
        &mut self,
        w: u64,
        reason: String,
        rolled_back: &mut bool,
    ) -> Result<WindowVerdict> {
        *rolled_back = true;
        self.stats.rollbacks += 1;
        let t0 = Instant::now();
        let recovered = self.roll_back_and_replay(w);
        self.stats.rollback_nanos += t0.elapsed().as_nanos();
        match recovered {
            Ok(()) => Ok(WindowVerdict::Quarantined { reason }),
            Err(e) if matches!(e, Error::Canceled { .. }) => Err(e),
            Err(e) => {
                // Last resort: continue on the host reference path from
                // the snapshot so the stream survives, and say so.
                let mut st = self.checkpoint.state.clone();
                for k in self.checkpoint.next..=w {
                    self.stage.reference(&mut st, k);
                }
                self.state = st;
                Ok(WindowVerdict::Dropped { reason: format!("{reason}; recovery failed: {e}") })
            }
        }
    }

    fn roll_back_and_replay(&mut self, w: u64) -> Result<()> {
        let mut st = self.checkpoint.state.clone();
        if self.stage.digest(&st) != self.checkpoint.seal {
            // The snapshot itself no longer matches its seal — refuse to
            // resume from silently corrupted recovery state.
            return Err(Error::DataCorruption {
                region: u64::MAX,
                page: 0,
                epoch: self.checkpoint.next,
            });
        }
        for k in self.checkpoint.next..=w {
            contained(|| self.stage.advance(&self.clean, &mut st, k))?;
            self.stats.replayed += 1;
        }
        self.state = st;
        Ok(())
    }

    /// Sequential convenience driver: execute `total` windows, passing
    /// each report to `on_report`. Stops early only on a stream-fatal
    /// error (cancellation).
    pub fn run(
        &mut self,
        total: u64,
        mut on_report: impl FnMut(WindowReport),
    ) -> Result<StreamStats> {
        for _ in 0..total {
            on_report(self.next_window()?);
        }
        Ok(self.stats.clone())
    }
}

/// One stage call with its panics contained: a typed payload (what the
/// runtime's infallible wrappers raise) is its error, anything else a
/// `KernelPanicked`.
fn contained(call: impl FnOnce() -> Result<()>) -> Result<()> {
    catch_unwind(AssertUnwindSafe(call))
        .unwrap_or_else(|payload| Err(crate::fault::classify_panic("stream_stage", 0, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::fault::FaultPlan;
    use crate::queue::Hardening;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Host-only counter stage: state is a running sum; window w adds
    /// `w + 1`. Fault hooks fail specific windows on the primary queue
    /// (the one carrying a fault plan); every call is logged with the
    /// queue it was handed.
    struct CounterStage {
        fail_on: Vec<u64>,
        panic_on: Vec<u64>,
        transient_on: Vec<u64>,
        transient_seen: Arc<AtomicU64>,
        /// Raised as a typed panic payload on the first visit to the
        /// window, the way `Queue::parallel_for` fails.
        raise_on: Option<(u64, Error)>,
        /// `(window, on the primary queue)` per `advance`.
        calls: Vec<(u64, bool)>,
    }

    impl CounterStage {
        fn clean() -> Self {
            CounterStage {
                fail_on: vec![],
                panic_on: vec![],
                transient_on: vec![],
                transient_seen: Arc::new(AtomicU64::new(0)),
                raise_on: None,
                calls: vec![],
            }
        }

        fn inject(&self, window: u64) -> Result<()> {
            if self.panic_on.contains(&window) {
                panic!("injected stage panic at window {window}");
            }
            if let Some((_, e)) = self.raise_on.as_ref().filter(|(at, _)| *at == window) {
                if self.transient_seen.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::panic::panic_any(e.clone());
                }
            }
            if self.fail_on.contains(&window) {
                return Err(Error::KernelPanicked {
                    kernel: "counter",
                    group: 0,
                    message: format!("injected at {window}"),
                });
            }
            if self.transient_on.contains(&window)
                && self.transient_seen.fetch_add(1, Ordering::SeqCst) == 0
            {
                return Err(Error::TransientLaunchFailure { kernel: "counter", attempts: 1 });
            }
            Ok(())
        }
    }

    impl StreamStage for CounterStage {
        type State = u64;

        fn advance(&mut self, q: &Queue, state: &mut u64, window: u64) -> Result<()> {
            let primary = q.hardening().fault.is_some();
            self.calls.push((window, primary));
            if primary {
                self.inject(window)?;
            }
            *state += window + 1;
            Ok(())
        }

        fn reference(&self, state: &mut u64, window: u64) {
            *state += window + 1;
        }

        fn digest(&self, state: &u64) -> u64 {
            state.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
        }
    }

    /// A runner whose primary queue carries a rate-0 fault plan and whose
    /// clean queue carries none.
    fn runner(stage: CounterStage, cfg: StreamConfig) -> StreamRunner<CounterStage> {
        let plan = Some(Arc::new(FaultPlan::new(0, 0.0)));
        let primary = Queue::hardened(Device::cpu(), Hardening { fault: plan, ..Hardening::NONE });
        let clean = Queue::new(Device::cpu());
        StreamRunner::new(primary, clean, stage, 0, cfg)
    }

    fn uninterrupted_sum(total: u64) -> u64 {
        (1..=total).sum()
    }

    #[test]
    fn clean_stream_delivers_every_window() {
        let mut r = runner(CounterStage::clean(), StreamConfig::default());
        let stats = r.run(20, |rep| assert!(rep.verdict.is_delivered())).unwrap();
        assert_eq!(stats.delivered, 20);
        assert_eq!(stats.non_delivered(), 0);
        assert_eq!(*r.state(), uninterrupted_sum(20));
    }

    #[test]
    fn lossless_stream_reports_every_window_once_in_order() {
        let mut r = runner(CounterStage::clean(), StreamConfig::default());
        let mut seen = vec![];
        let stats = r.run(50, |rep| seen.push(rep.index)).unwrap();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        assert_eq!(stats.delivered, 50);
        assert_eq!(stats.shed, 0);
        assert_eq!(*r.state(), uninterrupted_sum(50));
    }

    #[test]
    fn failed_window_is_quarantined_and_state_matches_uninterrupted_run() {
        let mut stage = CounterStage::clean();
        stage.fail_on = vec![11];
        let mut r = runner(stage, StreamConfig::default());
        let mut verdicts = vec![];
        r.run(20, |rep| verdicts.push((rep.index, rep.verdict, rep.rolled_back))).unwrap();
        let (idx, v, rb) = &verdicts[11];
        assert_eq!(*idx, 11);
        assert!(matches!(v, WindowVerdict::Quarantined { .. }), "{v:?}");
        assert!(rb, "quarantine implies rollback");
        // Invariant 2: quarantined window still advanced state exactly.
        assert_eq!(*r.state(), uninterrupted_sum(20));
        assert_eq!(r.stats().rollbacks, 1);
        assert!(r.stats().replayed >= 1);
    }

    #[test]
    fn consecutive_failed_windows_are_each_quarantined_and_state_stays_exact() {
        let mut stage = CounterStage::clean();
        stage.fail_on = vec![7, 8, 23];
        let mut r = runner(stage, StreamConfig::default());
        let stats = r.run(40, |_| {}).unwrap();
        assert_eq!(stats.quarantined, 3);
        assert_eq!(stats.dropped, 0);
        assert_eq!(*r.state(), uninterrupted_sum(40));
    }

    #[test]
    fn rollback_replays_and_shed_windows_run_on_the_clean_queue() {
        let mut stage = CounterStage::clean();
        stage.fail_on = vec![3];
        let mut r = runner(stage, StreamConfig { checkpoint_every: 2, max_retries: 0 });
        r.run(4, |_| {}).unwrap();
        r.shed_window().unwrap();
        r.next_window().unwrap();
        let primary = |w| (w, true);
        let clean = |w| (w, false);
        assert_eq!(
            r.stage.calls,
            [
                primary(0),
                primary(1),
                primary(2),
                primary(3),
                // Rollback to the checkpoint sealed after window 1.
                clean(2),
                clean(3),
                clean(4),
                primary(5),
            ]
        );
        assert_eq!(*r.state(), uninterrupted_sum(6));
    }

    #[test]
    fn a_persistent_fault_replays_one_window_per_rollback() {
        let total = 20;
        let mut stage = CounterStage::clean();
        stage.fail_on = (0..total).collect();
        let mut r = runner(stage, StreamConfig::default());
        let stats = r.run(total, |rep| assert!(rep.rolled_back)).unwrap();
        assert_eq!(stats.quarantined, total);
        // Each recovery seals what it recovered, so the next rollback
        // restores the window before it and replays one window.
        assert_eq!(stats.replayed, stats.rollbacks);
        let log: Vec<_> = (0..total).flat_map(|w| [(w, true), (w, false)]).collect();
        assert_eq!(r.stage.calls, log);
        assert_eq!(*r.state(), uninterrupted_sum(total));
    }

    #[test]
    fn a_recovery_on_a_schedule_boundary_seals_once() {
        let cfg = StreamConfig { checkpoint_every: 4, max_retries: 0 };
        // Window 3's recovery lands on the boundary at 4: one seal there.
        let mut stage = CounterStage::clean();
        stage.fail_on = vec![3];
        let mut r = runner(stage, cfg);
        r.run(12, |_| {}).unwrap();
        assert_eq!(r.stats().checkpoints, 1 + 3);
        // Window 5's recovery lands between boundaries: a seal of its own.
        let mut stage = CounterStage::clean();
        stage.fail_on = vec![5];
        let mut r = runner(stage, cfg);
        r.run(12, |_| {}).unwrap();
        assert_eq!(r.stats().checkpoints, 1 + 3 + 1);
        assert_eq!(*r.state(), uninterrupted_sum(12));
    }

    #[test]
    fn a_snapshot_that_no_longer_matches_its_seal_is_not_replayed() {
        let mut stage = CounterStage::clean();
        stage.fail_on = vec![5];
        let mut r = runner(stage, StreamConfig { checkpoint_every: 4, max_retries: 0 });
        r.run(5, |rep| assert!(rep.verdict.is_delivered())).unwrap();
        // Window 3 sealed the sum through it; one bit of the snapshot rots.
        assert_eq!((r.checkpoint.next, r.checkpoint.state), (4, uninterrupted_sum(4)));
        r.checkpoint.state ^= 1 << 7;
        let snapshot = r.checkpoint.state;
        let rep = r.next_window().unwrap();
        let WindowVerdict::Dropped { reason } = &rep.verdict else {
            panic!("window 5: {:?}", rep.verdict)
        };
        let named = reason.contains("silent data corruption") && reason.contains("seal epoch 4");
        assert!(named, "{reason}");
        // No clean replay ran from the snapshot: the host reference path
        // continued from it through windows 4 and 5.
        assert_eq!(*r.state(), snapshot + 5 + 6);
        let st = r.stats();
        assert_eq!((st.quarantined, st.dropped, st.replayed), (0, 1, 0));
        assert!(!r.stage.calls.contains(&(4, false)), "{:?}", r.stage.calls);
    }

    #[test]
    fn stage_panic_is_contained_as_quarantine() {
        let mut stage = CounterStage::clean();
        stage.panic_on = vec![3];
        let mut r = runner(stage, StreamConfig::default());
        let mut quarantined = 0;
        r.run(8, |rep| {
            if let WindowVerdict::Quarantined { reason } = &rep.verdict {
                assert!(reason.contains("injected stage panic"), "{reason}");
                quarantined += 1;
            }
        })
        .unwrap();
        assert_eq!(quarantined, 1);
        assert_eq!(*r.state(), uninterrupted_sum(8));
    }

    #[test]
    fn transient_is_absorbed_as_retried() {
        let mut stage = CounterStage::clean();
        stage.transient_on = vec![5];
        let mut r = runner(stage, StreamConfig::default());
        let mut retried = 0;
        r.run(10, |rep| {
            if let WindowVerdict::Retried { attempts } = rep.verdict {
                assert_eq!(rep.index, 5);
                assert_eq!(attempts, 2);
                retried += 1;
            }
        })
        .unwrap();
        assert_eq!(retried, 1);
        assert_eq!(r.stats().rollbacks, 0, "retry does not roll back");
        assert_eq!(*r.state(), uninterrupted_sum(10));
    }

    #[test]
    fn raised_transient_is_absorbed_as_retried() {
        let mut stage = CounterStage::clean();
        stage.raise_on = Some((5, Error::TransientLaunchFailure { kernel: "counter", attempts: 1 }));
        let mut r = runner(stage, StreamConfig::default());
        let mut verdicts = vec![];
        r.run(10, |rep| verdicts.push(rep.verdict)).unwrap();
        assert_eq!(verdicts[5], WindowVerdict::Retried { attempts: 2 });
        assert_eq!(r.stats().rollbacks, 0, "a raised transient is retried, not quarantined");
        assert_eq!(*r.state(), uninterrupted_sum(10));
    }

    #[test]
    fn raised_cancellation_ends_the_stream() {
        let mut stage = CounterStage::clean();
        stage.raise_on = Some((3, Error::Canceled { kernel: "counter" }));
        let mut r = runner(stage, StreamConfig::default());
        assert_eq!(r.run(8, |_| {}).unwrap_err(), Error::Canceled { kernel: "counter" });
        assert_eq!(r.stats().windows, 3, "windows before the cancellation were delivered");
        assert_eq!(r.stats().quarantined, 0);
    }

    #[test]
    fn checkpoints_seal_on_schedule() {
        let cfg = StreamConfig { checkpoint_every: 4, max_retries: 0 };
        let mut r = runner(CounterStage::clean(), cfg);
        r.run(12, |_| {}).unwrap();
        // Initial seal + one every 4 windows.
        assert_eq!(r.stats().checkpoints, 1 + 3);
    }

    #[test]
    fn shed_window_advances_state_without_delivery() {
        let mut r = runner(CounterStage::clean(), StreamConfig::default());
        let rep = r.shed_window().unwrap();
        assert_eq!(rep.verdict, WindowVerdict::Shed);
        let rep = r.next_window().unwrap();
        assert!(rep.verdict.is_delivered());
        // Invariant 3: the shed window still advanced the sum.
        assert_eq!(*r.state(), uninterrupted_sum(2));
    }

    #[test]
    fn interleaved_shed_windows_are_each_accounted_in_order() {
        let mut r = runner(CounterStage::clean(), StreamConfig::default());
        let shed = |w: u64| w.is_multiple_of(3);
        for w in 0..40 {
            let rep = if shed(w) { r.shed_window() } else { r.next_window() }.unwrap();
            // One verdict per window, in index order.
            assert_eq!(rep.index, w);
            assert_eq!(rep.verdict == WindowVerdict::Shed, shed(w), "window {w}");
        }
        assert_eq!((r.stats().windows, r.stats().shed, r.stats().delivered), (40, 14, 26));
        // Invariant 3: shed windows still advanced the sum.
        assert_eq!(*r.state(), uninterrupted_sum(40));
    }
}
