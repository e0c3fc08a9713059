//! Inter-kernel pipes.
//!
//! On Intel FPGAs, pipes are on-chip FIFOs that let concurrently running
//! kernels stream data to each other without touching global memory — the
//! mechanism behind the paper's 510× KMeans speedup (Figure 3) and the
//! CFD memory-access decoupling. We model a pipe as a bounded ring buffer
//! guarded by a `Mutex` + two `Condvar`s (no external channel crate, so
//! the runtime builds offline); producer and consumer kernels run as
//! concurrent host threads (see
//! [`crate::queue::Queue::submit_concurrent`]).
//!
//! Long-lived streams need more than the original bounded FIFO:
//!
//! * **Disconnect detection.** Every handle is counted as a sender and/or
//!   a receiver. When the last sender drops, blocked readers wake with a
//!   typed [`Error::PipeClosed`] (after draining buffered items); when
//!   the last receiver drops, blocked writers wake with `PipeClosed`
//!   immediately. A stage crash therefore unwinds the whole pipeline with
//!   typed errors instead of parking its peers until the deadlock
//!   timeout. Split a pipe into role-typed ends with [`Pipe::split`] or
//!   [`Pipe::channel`].
//! * **Cancellation.** A [`CancelToken`] attached via
//!   [`Pipe::with_cancel_token`] is polled inside blocking operations, so
//!   a supervisor can yank a stream out of a blocked `read`/`write`
//!   without waiting for data to arrive ([`Error::Canceled`]).
//! * **Bounded-overwrite ingress.** [`Pipe::force_write`] never blocks:
//!   on a full FIFO it evicts and returns the *oldest* element. Stream
//!   runners use it to shed the oldest in-flight window under sustained
//!   backpressure instead of queuing without bound.
//!
//! Blocking operations still carry a generous timeout so that a
//! mis-designed kernel graph (e.g. a consumer that reads more items than
//! the producer writes while both ends stay alive) is diagnosed as
//! [`Error::PipeDeadlock`] instead of hanging the test suite.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::error::{Error, Result};
use crate::fault::FaultPlan;

/// Default blocking-op timeout before a deadlock is diagnosed.
const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(30);

/// Wait-slice used when a cancel token is attached: blocked ops wake at
/// this cadence to poll the token even if no peer ever signals.
const CANCEL_POLL: Duration = Duration::from_millis(5);

struct Chan<T> {
    fifo: VecDeque<T>,
    /// Live handles that can push (plain `Pipe` clones + `PipeSender`s).
    senders: usize,
    /// Live handles that can pop (plain `Pipe` clones + `PipeReceiver`s).
    receivers: usize,
}

struct Inner<T> {
    chan: Mutex<Chan<T>>,
    /// Signalled when an element is popped or the last receiver drops
    /// (writers wait on this).
    not_full: Condvar,
    /// Signalled when an element is pushed or the last sender drops
    /// (readers wait on this).
    not_empty: Condvar,
    capacity: usize,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Inner<T> {
    fn write_blocking(
        &self,
        v: T,
        timeout: Duration,
        cancel: Option<&CancelToken>,
    ) -> Result<()> {
        let deadline = Instant::now() + timeout;
        let mut chan = lock(&self.chan);
        loop {
            if chan.receivers == 0 {
                return Err(Error::PipeClosed);
            }
            if chan.fifo.len() < self.capacity {
                chan.fifo.push_back(v);
                drop(chan);
                self.not_empty.notify_one();
                return Ok(());
            }
            if let Some(t) = cancel {
                t.check("pipe_write")?;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Err(Error::PipeDeadlock { waited_secs: timeout.as_secs() });
            };
            let slice = if cancel.is_some() { remaining.min(CANCEL_POLL) } else { remaining };
            chan = self
                .not_full
                .wait_timeout(chan, slice)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn read_blocking(&self, timeout: Duration, cancel: Option<&CancelToken>) -> Result<T> {
        let deadline = Instant::now() + timeout;
        let mut chan = lock(&self.chan);
        loop {
            if let Some(v) = chan.fifo.pop_front() {
                drop(chan);
                self.not_full.notify_one();
                return Ok(v);
            }
            // Buffered items drain first; only an empty *and* producer-
            // less pipe is closed.
            if chan.senders == 0 {
                return Err(Error::PipeClosed);
            }
            if let Some(t) = cancel {
                t.check("pipe_read")?;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Err(Error::PipeDeadlock { waited_secs: timeout.as_secs() });
            };
            let slice = if cancel.is_some() { remaining.min(CANCEL_POLL) } else { remaining };
            chan = self
                .not_empty
                .wait_timeout(chan, slice)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn force_write(&self, v: T) -> Result<Option<T>> {
        let mut chan = lock(&self.chan);
        if chan.receivers == 0 {
            return Err(Error::PipeClosed);
        }
        let evicted = if chan.fifo.len() >= self.capacity {
            chan.fifo.pop_front()
        } else {
            None
        };
        chan.fifo.push_back(v);
        drop(chan);
        self.not_empty.notify_one();
        Ok(evicted)
    }

    fn add_handle(&self, senders: usize, receivers: usize) {
        let mut chan = lock(&self.chan);
        chan.senders += senders;
        chan.receivers += receivers;
    }

    fn drop_handle(&self, senders: usize, receivers: usize) {
        let mut chan = lock(&self.chan);
        chan.senders -= senders;
        chan.receivers -= receivers;
        let wake_readers = senders > 0 && chan.senders == 0;
        let wake_writers = receivers > 0 && chan.receivers == 0;
        drop(chan);
        // The last peer of a role is gone: wake everyone parked on the
        // opposite side so they observe PipeClosed instead of timing out.
        if wake_readers {
            self.not_empty.notify_all();
        }
        if wake_writers {
            self.not_full.notify_all();
        }
    }
}

/// A bounded FIFO connecting two kernels, like `sycl::ext::intel::pipe`.
///
/// Cloning yields another handle to the same FIFO (a pipe endpoint is
/// usually captured by both the producer and the consumer closure); a
/// plain `Pipe` handle counts as both a sender and a receiver. For
/// long-lived pipelines, [`Pipe::split`] (or [`Pipe::channel`]) yields
/// role-typed [`PipeSender`] / [`PipeReceiver`] ends whose drop closes
/// the pipe for their role.
pub struct Pipe<T> {
    inner: Arc<Inner<T>>,
    timeout: Duration,
    fault: Option<Arc<FaultPlan>>,
    cancel: Option<CancelToken>,
}

impl<T> Clone for Pipe<T> {
    fn clone(&self) -> Self {
        self.inner.add_handle(1, 1);
        Pipe {
            inner: Arc::clone(&self.inner),
            timeout: self.timeout,
            fault: self.fault.clone(),
            cancel: self.cancel.clone(),
        }
    }
}

impl<T> Drop for Pipe<T> {
    fn drop(&mut self) {
        self.inner.drop_handle(1, 1);
    }
}

fn stall_if_injected(fault: &Option<Arc<FaultPlan>>) {
    if let Some(p) = fault {
        let d = p.maybe_stall();
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

impl<T: Send + 'static> Pipe<T> {
    /// Create a pipe with FIFO `capacity` (the `min_capacity` of the SYCL
    /// pipe declaration). Capacity 0 is rounded up to 1: a rendezvous
    /// pipe still needs one slot in this host model.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_timeout(capacity, DEADLOCK_TIMEOUT)
    }

    /// Like [`Pipe::with_capacity`] but with an explicit deadlock-
    /// detection timeout (tests use short timeouts to exercise the
    /// diagnosis quickly).
    // lint:allow(unused-pub) test oracle: hetero-rt/tests/resilience.rs diagnoses a two-kernel pipe deadlock inside 100 ms
    pub fn with_capacity_and_timeout(capacity: usize, timeout: Duration) -> Self {
        let cap = capacity.max(1);
        Pipe {
            inner: Arc::new(Inner {
                chan: Mutex::new(Chan {
                    fifo: VecDeque::with_capacity(cap),
                    senders: 1,
                    receivers: 1,
                }),
                not_full: Condvar::new(),
                not_empty: Condvar::new(),
                capacity: cap,
            }),
            timeout,
            fault: None,
            cancel: None,
        }
    }

    /// Create a pipe and immediately split it into role-typed ends —
    /// the shape stream pipelines use (`let (tx, rx) = Pipe::channel(8)`).
    pub fn channel(capacity: usize) -> (PipeSender<T>, PipeReceiver<T>) {
        Pipe::with_capacity(capacity).split()
    }

    /// Attach a fault plan: blocking operations on this endpoint may be
    /// deterministically stalled for a few milliseconds before touching
    /// the FIFO, modelling back-pressure hiccups in the FPGA fabric. The
    /// stall happens *before* the deadlock deadline is computed, so a
    /// stalled-but-live pipe graph is never misdiagnosed as deadlocked.
    pub fn with_fault_plan(mut self, plan: Option<Arc<FaultPlan>>) -> Self {
        self.fault = plan;
        self
    }

    /// Attach a cancellation token: blocking `read`/`write` on this
    /// endpoint (and on ends split from it) poll the token and return
    /// [`Error::Canceled`] when it fires, instead of waiting out the
    /// deadlock timeout.
    pub fn with_cancel_token(mut self, token: Option<CancelToken>) -> Self {
        self.cancel = token;
        self
    }

    /// Consume this handle into a role-typed `(sender, receiver)` pair
    /// sharing the same FIFO. Dropping the last sender closes the pipe
    /// for readers ([`Error::PipeClosed`] once drained); dropping the
    /// last receiver closes it for writers.
    pub fn split(self) -> (PipeSender<T>, PipeReceiver<T>) {
        // Mint one extra handle of each role, then let `self` drop its
        // own sender+receiver count: net ownership transfers to the pair.
        self.inner.add_handle(1, 1);
        let tx = PipeSender {
            inner: Arc::clone(&self.inner),
            timeout: self.timeout,
            fault: self.fault.clone(),
            cancel: self.cancel.clone(),
        };
        let rx = PipeReceiver {
            inner: Arc::clone(&self.inner),
            timeout: self.timeout,
            fault: self.fault.clone(),
            cancel: self.cancel.clone(),
        };
        (tx, rx)
    }

    /// FIFO capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Blocking write (like `pipe::write`). Returns
    /// [`Error::PipeClosed`] if every receiver is gone, propagates an
    /// attached [`CancelToken`], and diagnoses deadlock after a timeout.
    pub fn write(&self, v: T) -> Result<()> {
        stall_if_injected(&self.fault);
        self.inner.write_blocking(v, self.timeout, self.cancel.as_ref())
    }

    /// Blocking read (like `pipe::read`). Returns [`Error::PipeClosed`]
    /// once the pipe is empty and every sender is gone, propagates an
    /// attached [`CancelToken`], and diagnoses deadlock after a timeout.
    pub fn read(&self) -> Result<T> {
        stall_if_injected(&self.fault);
        self.inner.read_blocking(self.timeout, self.cancel.as_ref())
    }

    /// Never-blocking overwrite ingress: push `v`, evicting and
    /// returning the *oldest* buffered element if the FIFO is full.
    /// Returns [`Error::PipeClosed`] if every receiver is gone. Stream
    /// runners use the evicted element to issue a typed `Shed` verdict
    /// for the oldest in-flight window instead of queuing unboundedly.
    pub fn force_write(&self, v: T) -> Result<Option<T>> {
        self.inner.force_write(v)
    }
}

/// The producing end of a split [`Pipe`]. Cloning adds a sender; when
/// the last sender drops, blocked readers wake with
/// [`Error::PipeClosed`] after draining buffered items.
pub struct PipeSender<T> {
    inner: Arc<Inner<T>>,
    timeout: Duration,
    fault: Option<Arc<FaultPlan>>,
    cancel: Option<CancelToken>,
}

impl<T> Clone for PipeSender<T> {
    fn clone(&self) -> Self {
        self.inner.add_handle(1, 0);
        PipeSender {
            inner: Arc::clone(&self.inner),
            timeout: self.timeout,
            fault: self.fault.clone(),
            cancel: self.cancel.clone(),
        }
    }
}

impl<T> Drop for PipeSender<T> {
    fn drop(&mut self) {
        self.inner.drop_handle(1, 0);
    }
}

impl<T: Send + 'static> PipeSender<T> {
    /// Blocking write; see [`Pipe::write`].
    pub fn write(&self, v: T) -> Result<()> {
        stall_if_injected(&self.fault);
        self.inner.write_blocking(v, self.timeout, self.cancel.as_ref())
    }

    /// Never-blocking overwrite ingress; see [`Pipe::force_write`].
    pub fn force_write(&self, v: T) -> Result<Option<T>> {
        self.inner.force_write(v)
    }

    /// FIFO capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }
}

/// The consuming end of a split [`Pipe`]. Cloning adds a receiver; when
/// the last receiver drops, blocked writers wake with
/// [`Error::PipeClosed`].
pub struct PipeReceiver<T> {
    inner: Arc<Inner<T>>,
    timeout: Duration,
    fault: Option<Arc<FaultPlan>>,
    cancel: Option<CancelToken>,
}

impl<T> Clone for PipeReceiver<T> {
    fn clone(&self) -> Self {
        self.inner.add_handle(0, 1);
        PipeReceiver {
            inner: Arc::clone(&self.inner),
            timeout: self.timeout,
            fault: self.fault.clone(),
            cancel: self.cancel.clone(),
        }
    }
}

impl<T> Drop for PipeReceiver<T> {
    fn drop(&mut self) {
        self.inner.drop_handle(0, 1);
    }
}

impl<T: Send + 'static> PipeReceiver<T> {
    /// Blocking read; see [`Pipe::read`].
    pub fn read(&self) -> Result<T> {
        stall_if_injected(&self.fault);
        self.inner.read_blocking(self.timeout, self.cancel.as_ref())
    }

    /// FIFO capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let p = Pipe::with_capacity(8);
        for i in 0..8 {
            p.write(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(p.read().unwrap(), i);
        }
    }

    #[test]
    fn producer_consumer_across_threads() {
        let p = Pipe::with_capacity(4);
        let q = p.clone();
        let n = 10_000u64;
        let t = std::thread::spawn(move || {
            let mut sum = 0u64;
            for _ in 0..n {
                sum += q.read().unwrap();
            }
            sum
        });
        for i in 0..n {
            p.write(i).unwrap();
        }
        assert_eq!(t.join().unwrap(), n * (n - 1) / 2);
    }

    #[test]
    fn capacity_is_respected() {
        let p = Pipe::with_capacity(3);
        assert_eq!(p.capacity(), 3);
        for v in 1..=3 {
            p.write(v).unwrap();
        }
        assert_eq!(p.force_write(4).unwrap(), Some(1), "a fourth element does not fit");
    }

    #[test]
    fn deadlock_is_diagnosed_not_hung() {
        // A consumer that reads more than the producer writes while both
        // ends stay alive: the read must come back as a PipeDeadlock
        // error, quickly. (A plain Pipe handle is itself a live sender,
        // so this is a deadlock, not a closed pipe.)
        let p = Pipe::<u8>::with_capacity_and_timeout(2, Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        let e = p.read().unwrap_err();
        assert!(matches!(e, Error::PipeDeadlock { .. }));
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn overfull_pipe_is_diagnosed() {
        let p = Pipe::with_capacity_and_timeout(1, Duration::from_millis(50));
        p.write(1u8).unwrap();
        let e = p.write(2u8).unwrap_err();
        assert!(matches!(e, Error::PipeDeadlock { .. }));
    }

    #[test]
    fn zero_capacity_rounds_up() {
        let p = Pipe::<u8>::with_capacity(0);
        assert_eq!(p.capacity(), 1);
        p.write(9).unwrap();
        assert_eq!(p.read().unwrap(), 9);
    }

    #[test]
    fn stalled_pipe_still_delivers_in_order() {
        use crate::fault::{FaultKind, FaultPlan};
        let plan = Arc::new(FaultPlan::new(5, 1.0).with_kinds(&[FaultKind::PipeStall]));
        let p = Pipe::with_capacity(4).with_fault_plan(Some(plan.clone()));
        let t0 = Instant::now();
        for i in 0..4u8 {
            p.write(i).unwrap();
        }
        for i in 0..4u8 {
            assert_eq!(p.read().unwrap(), i);
        }
        // Every op at rate 1.0 stalls at least 1 ms.
        assert!(t0.elapsed() >= Duration::from_millis(8));
        assert!(plan.injected() >= 8);
    }

    #[test]
    fn blocked_writer_resumes_when_reader_drains() {
        let p = Pipe::with_capacity(1);
        p.write(1u32).unwrap();
        let q = p.clone();
        let t = std::thread::spawn(move || q.write(2u32));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(p.read().unwrap(), 1);
        t.join().unwrap().unwrap();
        assert_eq!(p.read().unwrap(), 2);
    }

    #[test]
    fn sender_drop_wakes_blocked_reader_with_pipe_closed() {
        // Generous default timeout: the test passes quickly only if the
        // drop *wakes* the reader — a missed wakeup would park the reader
        // for the full 30 s deadlock window.
        let (tx, rx) = Pipe::<u8>::channel(4);
        let t = std::thread::spawn(move || rx.read());
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        drop(tx);
        let e = t.join().unwrap().unwrap_err();
        assert_eq!(e, Error::PipeClosed);
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn receiver_drop_wakes_blocked_writer_with_pipe_closed() {
        let (tx, rx) = Pipe::channel(1);
        tx.write(1u8).unwrap();
        let t = std::thread::spawn(move || tx.write(2u8));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        let e = t.join().unwrap().unwrap_err();
        assert_eq!(e, Error::PipeClosed);
    }

    #[test]
    fn closed_pipe_drains_buffered_items_before_erroring() {
        let (tx, rx) = Pipe::channel(4);
        tx.write(1u8).unwrap();
        tx.write(2u8).unwrap();
        drop(tx);
        assert_eq!(rx.read().unwrap(), 1);
        assert_eq!(rx.read().unwrap(), 2);
        let t0 = Instant::now();
        assert_eq!(rx.read().unwrap_err(), Error::PipeClosed);
        assert!(t0.elapsed() < Duration::from_millis(100), "closed check precedes any wait");
    }

    #[test]
    fn write_to_dropped_receiver_fails_fast() {
        let (tx, rx) = Pipe::channel(4);
        drop(rx);
        assert_eq!(tx.write(1u8).unwrap_err(), Error::PipeClosed);
        assert_eq!(tx.force_write(3u8).unwrap_err(), Error::PipeClosed);
    }

    #[test]
    fn clone_keeps_role_open_until_last_handle_drops() {
        let (tx, rx) = Pipe::channel(4);
        let tx2 = tx.clone();
        drop(tx);
        tx2.write(7u8).unwrap();
        assert_eq!(rx.read().unwrap(), 7);
        drop(tx2);
        assert_eq!(rx.read().unwrap_err(), Error::PipeClosed);
    }

    #[test]
    fn cancel_unblocks_read() {
        let token = CancelToken::new();
        let p = Pipe::<u8>::with_capacity(1).with_cancel_token(Some(token.clone()));
        let t = std::thread::spawn(move || p.read());
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        token.cancel();
        let e = t.join().unwrap().unwrap_err();
        assert_eq!(e, Error::Canceled { kernel: "pipe_read" });
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn cancel_unblocks_write() {
        let token = CancelToken::new();
        let p = Pipe::with_capacity(1).with_cancel_token(Some(token.clone()));
        p.write(1u8).unwrap();
        let q = p.clone();
        let t = std::thread::spawn(move || q.write(2u8));
        std::thread::sleep(Duration::from_millis(20));
        token.cancel();
        let e = t.join().unwrap().unwrap_err();
        assert_eq!(e, Error::Canceled { kernel: "pipe_write" });
    }

    #[test]
    fn force_write_evicts_oldest() {
        let (tx, rx) = Pipe::channel(2);
        assert_eq!(tx.force_write(1u8).unwrap(), None);
        assert_eq!(tx.force_write(2u8).unwrap(), None);
        assert_eq!(tx.force_write(3u8).unwrap(), Some(1), "oldest element is shed");
        assert_eq!(rx.read().unwrap(), 2);
        assert_eq!(rx.read().unwrap(), 3);
    }
}
