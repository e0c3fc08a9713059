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
//!   carried state by one window on the queue it is handed.
//! * [`StreamRunner`] — drives windows through a stage inside a
//!   containment scope, and is the one place a window's queue is picked:
//!   the hardened *primary* (fault injection, integrity, retries all
//!   active) for every first attempt and retry, the fault-free *clean*
//!   queue for recovery and shedding. Every window ends in exactly one
//!   typed [`WindowVerdict`]; an injected kernel panic, transient fault
//!   or SDC detection triggers **checkpoint/rollback recovery**: the
//!   runner restores the newest sealed snapshot of stream state that
//!   still matches its seal, replays the intervening windows on the clean
//!   queue, seals the state it recovered as the new checkpoint, and
//!   resumes — one poisoned window never kills or silently corrupts the
//!   stream.
//!
//! ## Containment invariants
//!
//! 1. A window whose hardened advance fails is **never delivered**: it
//!    ends `Retried` (transient absorbed within the attempt budget),
//!    `Quarantined` (rollback + clean replay recovered the state), or
//!    `Dropped` (no seal verified, or the clean replay failed: the run
//!    ends there, and every later call returns [`Error::StreamEnded`]).
//!    No window is delivered from, or advanced from, unverified state.
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
//! The runner holds two checkpoints, the newest and the one before it,
//! sealed on schedule (every [`StreamConfig::checkpoint_every`] windows)
//! and after every `Quarantined` window, at most one per position. A seal
//! retires the older before it clones the state: at most three copies of
//! the state live. A rollback verifies the newest seal, falls back to the
//! older, and replays at most `2 × checkpoint_every` windows; a fault
//! that persists replays one window per rollback, since each recovered
//! window seals. A clean-queue replay of a recorded graph reseals the
//! page checksums of the sealed buffers it writes ([`crate::Graph`]), so
//! the primary's next launch entry does not read the recovery's own
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
    /// Recovery itself failed: no seal verified, or the clean replay
    /// failed. The run ends here; every later call returns
    /// [`Error::StreamEnded`]. Gates treat any `Dropped` window as a
    /// failure of the recovery machinery.
    Dropped {
        /// The window, the original failure, the seal epochs and the
        /// recovery error.
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
    /// `Dropped` verdicts: runs that ended (at most one).
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
/// over carried state, on whichever queue the runner hands it.
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
    /// The one or two newest checkpoints, oldest first.
    seals: Vec<Checkpoint<S::State>>,
    stats: StreamStats,
    next: u64,
    /// Set by a `Dropped` window; returned by every later call.
    ended: Option<Error>,
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
            seals: vec![Checkpoint { next: 0, state: initial.clone(), seal }],
            stage,
            state: initial,
            cfg,
            stats,
            next: 0,
            ended: None,
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
    /// stream-fatal conditions (cancellation, a run that ended); every
    /// per-window failure is converted into a typed verdict.
    pub fn next_window(&mut self) -> Result<WindowReport> {
        let w = self.live()?;
        let t0 = Instant::now();
        let mut rolled_back = false;
        let verdict = self.execute_contained(w, &mut rolled_back)?;
        self.finish_window(w, verdict, t0, rolled_back)
    }

    /// Shed the next window: skip hardened execution and delivery, but
    /// advance carried state on the clean path (invariant 3).
    pub fn shed_window(&mut self) -> Result<WindowReport> {
        let w = self.live()?;
        let t0 = Instant::now();
        let mut rolled_back = false;
        let verdict = match contained(|| self.stage.advance(&self.clean, &mut self.state, w)) {
            Ok(()) => WindowVerdict::Shed,
            Err(e) if matches!(e, Error::Canceled { .. }) => return Err(e),
            Err(e) => self.quarantine(w, format!("shed window failed: {e}"), &mut rolled_back)?,
        };
        self.finish_window(w, verdict, t0, rolled_back)
    }

    /// The next window's index, or the error that ended the run.
    fn live(&self) -> Result<u64> {
        self.ended.clone().map_or(Ok(self.next), Err)
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
        let due = recovered || self.next.is_multiple_of(self.cfg.checkpoint_every);
        if due && self.ended.is_none() {
            // Retire the older seal before cloning: at most three copies.
            if self.seals.len() == 2 {
                self.seals.remove(0);
            }
            let state = self.state.clone();
            self.seals.push(Checkpoint { next: self.next, state, seal: digest });
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

    /// Roll back to the newest checkpoint that matches its seal and
    /// recover windows `checkpoint.next ..= w` on the clean path. On
    /// success the stream state is bit-identical to an uninterrupted run
    /// through `w`, and [`StreamRunner::finish_window`] seals it. On
    /// failure the run ends with a `Dropped` window.
    fn quarantine(
        &mut self,
        w: u64,
        reason: String,
        rolled_back: &mut bool,
    ) -> Result<WindowVerdict> {
        *rolled_back = true;
        self.stats.rollbacks += 1;
        let t0 = Instant::now();
        let recovered = self.roll_back_and_replay(w, &reason);
        self.stats.rollback_nanos += t0.elapsed().as_nanos();
        match recovered {
            Ok(()) => Ok(WindowVerdict::Quarantined { reason }),
            Err(e @ Error::StreamEnded { .. }) => {
                let reason = e.to_string();
                self.ended = Some(e);
                Ok(WindowVerdict::Dropped { reason })
            }
            Err(e) => Err(e),
        }
    }

    fn roll_back_and_replay(&mut self, w: u64, reason: &str) -> Result<()> {
        let epochs: Vec<u64> = self.seals.iter().map(|cp| cp.next).collect();
        let ended = |cause: String| Error::StreamEnded {
            window: w,
            reason: format!("{reason}; seals at epochs {epochs:?}: {cause}"),
        };
        // Newest first; a snapshot that no longer matches its seal is
        // never resumed from.
        let stage = &self.stage;
        let verified = self.seals.iter().rposition(|cp| stage.digest(&cp.state) == cp.seal);
        let Some(i) = verified else {
            return Err(ended("no snapshot matches its seal".to_string()));
        };
        // Keep only the checkpoint restored: the recovered window's seal
        // follows it. Restored from the older, the replay reseals the
        // rotten newest's position, so the two held stay the run's last
        // two seals. Either way at most three copies of the state live.
        let reseal = self.seals.get(i + 1).map_or(w + 1, |cp| cp.next);
        self.seals.swap(0, i);
        self.seals.truncate(1);
        let (from, mut st) = (self.seals[0].next, self.seals[0].state.clone());
        let replay = |this: &mut Self, st: &mut S::State, k: u64| -> Result<()> {
            match contained(|| this.stage.advance(&this.clean, st, k)) {
                Ok(()) => {
                    this.stats.replayed += 1;
                    Ok(())
                }
                Err(e) if matches!(e, Error::Canceled { .. }) => Err(e),
                Err(e) => Err(ended(format!("clean replay of window {k} from epoch {from}: {e}"))),
            }
        };
        for k in from..reseal {
            replay(self, &mut st, k)?;
        }
        if reseal <= w {
            self.seals.clear();
            let seal = self.stage.digest(&st);
            self.seals.push(Checkpoint { next: reseal, state: st.clone(), seal });
            self.stats.checkpoints += 1;
        }
        for k in reseal..=w {
            replay(self, &mut st, k)?;
        }
        self.state = st;
        Ok(())
    }

    /// Sequential convenience driver: execute `total` windows, passing
    /// each report to `on_report`. Stops early only on a stream-fatal
    /// error (cancellation, a run that ended).
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
    use std::sync::Arc;

    /// Host-only counter stage: state is a running sum; window w adds
    /// `w + 1`. Fault hooks fail specific windows on the primary queue
    /// (the one carrying a fault plan) or on the clean one; every call is
    /// logged with the queue it was handed.
    #[derive(Default)]
    struct CounterStage {
        fail_on: Vec<u64>,
        panic_on: Vec<u64>,
        /// Fail the first primary visit to the window transiently.
        transient_on: Vec<u64>,
        /// Raised as a typed panic payload on the first primary visit to
        /// the window, the way `Queue::parallel_for` fails.
        raise_on: Vec<(u64, Error)>,
        /// Fail every clean-queue visit to the window.
        replay_fail_on: Vec<u64>,
        /// `(window, on the primary queue)` per `advance`.
        calls: Vec<(u64, bool)>,
    }

    impl CounterStage {
        fn clean() -> Self {
            CounterStage::default()
        }

        fn inject(&self, window: u64, first: bool) -> Result<()> {
            if self.panic_on.contains(&window) {
                panic!("injected stage panic at window {window}");
            }
            if let Some((_, e)) = self.raise_on.iter().find(|(at, _)| first && *at == window) {
                std::panic::panic_any(e.clone());
            }
            if self.fail_on.contains(&window) {
                return Err(Error::KernelPanicked {
                    kernel: "counter",
                    group: 0,
                    message: format!("injected at {window}"),
                });
            }
            if first && self.transient_on.contains(&window) {
                return Err(Error::TransientLaunchFailure { kernel: "counter", attempts: 1 });
            }
            Ok(())
        }
    }

    impl StreamStage for CounterStage {
        type State = u64;

        fn advance(&mut self, q: &Queue, state: &mut u64, window: u64) -> Result<()> {
            let primary = q.hardening().fault.is_some();
            let first = !self.calls.contains(&(window, primary));
            self.calls.push((window, primary));
            if primary {
                self.inject(window, first)?;
            } else if self.replay_fail_on.contains(&window) {
                let message = format!("replay injected at {window}");
                return Err(Error::KernelPanicked { kernel: "counter", group: 0, message });
            }
            *state += window + 1;
            Ok(())
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

    /// Flip one bit of every held snapshot for which `which` holds (by
    /// position, oldest first); returns whether none still verifies.
    fn rot(r: &mut StreamRunner<CounterStage>, which: impl Fn(usize) -> bool) -> bool {
        for (i, cp) in r.seals.iter_mut().enumerate() {
            if which(i) {
                cp.state ^= 1 << 7;
            }
        }
        r.seals.iter().all(|cp| r.stage.digest(&cp.state) != cp.seal)
    }

    #[test]
    fn a_snapshot_that_no_longer_matches_its_seal_is_not_replayed() {
        let mut stage = CounterStage::clean();
        stage.fail_on = vec![5];
        let mut r = runner(stage, StreamConfig { checkpoint_every: 4, max_retries: 0 });
        r.run(5, |rep| assert!(rep.verdict.is_delivered())).unwrap();
        // Windows 0 and 4 sealed; one bit of the newest snapshot rots.
        assert_eq!(r.seals.iter().map(|cp| cp.next).collect::<Vec<_>>(), [0, 4]);
        assert!(!rot(&mut r, |i| i == 1));
        let rep = r.next_window().unwrap();
        assert!(matches!(rep.verdict, WindowVerdict::Quarantined { .. }), "{:?}", rep.verdict);
        // Recovered from the seal at epoch 0: windows 0..=5 replayed.
        assert_eq!(*r.state(), uninterrupted_sum(6));
        let st = r.stats();
        assert_eq!((st.quarantined, st.dropped, st.replayed), (1, 0, 6));
        assert!(r.next_window().unwrap().verdict.is_delivered());
        assert_eq!(*r.state(), uninterrupted_sum(7));
    }

    #[test]
    fn a_run_whose_seals_both_rot_ends_without_advancing() {
        let mut stage = CounterStage::clean();
        stage.fail_on = vec![5];
        let mut r = runner(stage, StreamConfig { checkpoint_every: 4, max_retries: 0 });
        r.run(5, |rep| assert!(rep.verdict.is_delivered())).unwrap();
        assert!(rot(&mut r, |_| true));
        let rep = r.next_window().unwrap();
        let WindowVerdict::Dropped { reason } = &rep.verdict else {
            panic!("window 5: {:?}", rep.verdict)
        };
        let named = ["window 5", "injected at 5", "epochs [0, 4]", "no snapshot matches"];
        assert!(named.iter().all(|n| reason.contains(n)), "{reason}");
        let ended = Error::StreamEnded { window: 5, reason: String::new() };
        let same = |e: Error| std::mem::discriminant(&e) == std::mem::discriminant(&ended);
        assert!(same(r.next_window().unwrap_err()));
        assert!(same(r.shed_window().unwrap_err()));
        // Nothing ran from the rotten snapshots, and the state stayed put.
        assert_eq!(*r.state(), uninterrupted_sum(5));
        let st = r.stats();
        assert_eq!((st.windows, st.quarantined, st.dropped, st.replayed), (6, 0, 1, 0));
        assert!(!r.stage.calls.iter().any(|&(_, primary)| !primary), "{:?}", r.stage.calls);
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fault {
        Transient,
        Panic,
        Sdc,
        /// Rot the newest, the older or both seals; the window then fails.
        RotNewest,
        RotOlder,
        RotBoth,
        /// The window fails, and so does every clean replay of it.
        ReplayFails,
    }

    /// A faulted window: its index, its fault, and whether it is shed.
    type Slot = (u64, Fault, bool);

    const WINDOWS: u64 = 12;

    /// Every schedule of at most two faults on distinct windows, each
    /// faulted window run or shed.
    fn schedules() -> Vec<Vec<Slot>> {
        use Fault::*;
        let kinds = [Transient, Panic, Sdc, RotNewest, RotOlder, RotBoth, ReplayFails];
        let one: Vec<_> = (0..WINDOWS)
            .flat_map(|w| kinds.into_iter().flat_map(move |f| [(w, f, false), (w, f, true)]))
            .collect();
        let mut all = vec![vec![]];
        all.extend(one.iter().map(|&a| vec![a]));
        for (i, &a) in one.iter().enumerate() {
            all.extend(one[i..].iter().filter(|b| b.0 > a.0).map(|&b| vec![a, b]));
        }
        all
    }

    /// Drive one schedule; every verdict short of `Dropped` leaves the
    /// uninterrupted sum, and a `Dropped` one ends the run unadvanced.
    /// Returns whether the run ended.
    fn run_schedule(cfg: StreamConfig, faults: &[Slot]) -> bool {
        let mut stage = CounterStage::clean();
        for &(w, f, _) in faults {
            let message = String::new();
            match f {
                Fault::Transient => stage.transient_on.push(w),
                Fault::Panic => {
                    let e = Error::KernelPanicked { kernel: "counter", group: 0, message };
                    stage.raise_on.push((w, e));
                }
                Fault::Sdc => {
                    let e = Error::DataCorruption { region: 1, page: 0, epoch: w };
                    stage.raise_on.push((w, e));
                }
                Fault::RotNewest | Fault::RotOlder | Fault::RotBoth => stage.fail_on.push(w),
                Fault::ReplayFails => {
                    stage.fail_on.push(w);
                    stage.replay_fail_on.push(w);
                }
            }
        }
        let mut r = runner(stage, cfg);
        for w in 0..WINDOWS {
            let slot = faults.iter().find(|s| s.0 == w);
            let newest = r.seals.len() - 1;
            let rotten = match slot.map(|s| s.1) {
                Some(Fault::RotNewest) => rot(&mut r, |i| i == newest),
                Some(Fault::RotOlder) => rot(&mut r, |i| i < newest),
                Some(Fault::RotBoth) => rot(&mut r, |_| true),
                _ => rot(&mut r, |_| false),
            };
            let replayed = r.stats().replayed;
            let rep = if slot.is_some_and(|s| s.2) { r.shed_window() } else { r.next_window() };
            let rep = rep.unwrap();
            assert_eq!(rep.index, w);
            let at = || format!("{faults:?} every {}: window {w}", cfg.checkpoint_every);
            assert!(r.stats().replayed - replayed <= 2 * cfg.checkpoint_every, "{}", at());
            if let WindowVerdict::Dropped { reason } = &rep.verdict {
                assert!(reason.contains(&format!("window {w}")), "{}: {reason}", at());
                // It ended because it had to: the replay failed, or no
                // snapshot held still matched its seal.
                assert!(slot.is_some_and(|s| s.1 == Fault::ReplayFails) || rotten, "{}", at());
                assert_eq!(*r.state(), uninterrupted_sum(w), "{}: advanced", at());
                assert!(r.next_window().is_err() && r.shed_window().is_err(), "{}", at());
                assert_eq!(r.stats().dropped, 1, "{}", at());
                return true;
            }
            assert_eq!(*r.state(), uninterrupted_sum(w + 1), "{}: {:?}", at(), rep.verdict);
        }
        false
    }

    #[test]
    fn every_schedule_of_two_faults_delivers_the_uninterrupted_sum_or_ends() {
        // Raised faults print one line each, not a backtrace.
        crate::fault::install_quiet_hook();
        let all = schedules();
        assert_eq!(all.len(), 1 + 12 * 14 + 66 * 14 * 14);
        // Only a rotten newest seal or a failing replay can end a run.
        let can_end = |f| matches!(f, Fault::RotNewest | Fault::RotBoth | Fault::ReplayFails);
        for checkpoint_every in [1, 3, 4] {
            let cfg = StreamConfig { checkpoint_every, max_retries: 1 };
            let mut ended = 0;
            for faults in &all {
                if run_schedule(cfg, faults) {
                    ended += 1;
                    assert!(faults.iter().any(|s| can_end(s.1)), "{faults:?}");
                }
            }
            assert!(ended > 0);
        }
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
        let e = Error::TransientLaunchFailure { kernel: "counter", attempts: 1 };
        stage.raise_on = vec![(5, e)];
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
        stage.raise_on = vec![(3, Error::Canceled { kernel: "counter" })];
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
