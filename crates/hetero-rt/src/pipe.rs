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
//! A blocked `read`/`write` stops at the first of two events: the peer
//! makes room or data, or a generous timeout runs out. Every handle is
//! both ends of the FIFO, so a peer can never be observed as gone: a mis-designed kernel graph (e.g. a
//! consumer that reads more items than the producer writes) is diagnosed
//! as [`Error::PipeDeadlock`] instead of hanging the test suite.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::error::{Error, Result};

/// Default blocking-op timeout before a deadlock is diagnosed.
const DEADLOCK_TIMEOUT: Duration = Duration::from_secs(30);

struct Inner<T> {
    fifo: Mutex<VecDeque<T>>,
    /// Signalled when an element is popped (writers wait on this).
    not_full: Condvar,
    /// Signalled when an element is pushed (readers wait on this).
    not_empty: Condvar,
    capacity: usize,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Inner<T> {
    fn write_blocking(&self, v: T, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        let mut fifo = lock(&self.fifo);
        loop {
            if fifo.len() < self.capacity {
                fifo.push_back(v);
                drop(fifo);
                self.not_empty.notify_one();
                return Ok(());
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Err(Error::PipeDeadlock { waited_secs: timeout.as_secs() });
            };
            fifo = self
                .not_full
                .wait_timeout(fifo, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn read_blocking(&self, timeout: Duration) -> Result<T> {
        let deadline = Instant::now() + timeout;
        let mut fifo = lock(&self.fifo);
        loop {
            if let Some(v) = fifo.pop_front() {
                drop(fifo);
                self.not_full.notify_one();
                return Ok(v);
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Err(Error::PipeDeadlock { waited_secs: timeout.as_secs() });
            };
            fifo = self
                .not_empty
                .wait_timeout(fifo, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// A bounded FIFO connecting two kernels, like `sycl::ext::intel::pipe`.
///
/// Cloning yields another handle to the same FIFO (a pipe endpoint is
/// usually captured by both the producer and the consumer closure).
#[derive(Clone)]
pub struct Pipe<T> {
    inner: Arc<Inner<T>>,
    timeout: Duration,
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
                fifo: Mutex::new(VecDeque::with_capacity(cap)),
                not_full: Condvar::new(),
                not_empty: Condvar::new(),
                capacity: cap,
            }),
            timeout,
        }
    }

    /// Blocking write (like `pipe::write`). Diagnoses deadlock after a
    /// timeout.
    pub fn write(&self, v: T) -> Result<()> {
        self.inner.write_blocking(v, self.timeout)
    }

    /// Blocking read (like `pipe::read`). Diagnoses deadlock after a
    /// timeout.
    pub fn read(&self) -> Result<T> {
        self.inner.read_blocking(self.timeout)
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
        let p = Pipe::with_capacity_and_timeout(3, Duration::from_millis(50));
        for v in 1..=3u8 {
            p.write(v).unwrap();
        }
        let e = p.write(4).unwrap_err();
        assert!(matches!(e, Error::PipeDeadlock { .. }), "a fourth element does not fit: {e:?}");
        assert_eq!(p.read().unwrap(), 1);
    }

    #[test]
    fn deadlock_is_diagnosed_not_hung() {
        // A consumer that reads more than the producer writes: the read
        // must come back as a PipeDeadlock error, quickly.
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
        let p = Pipe::<u8>::with_capacity_and_timeout(0, Duration::from_millis(50));
        p.write(9).unwrap();
        assert!(matches!(p.write(10), Err(Error::PipeDeadlock { .. })), "one slot");
        assert_eq!(p.read().unwrap(), 9);
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
}
