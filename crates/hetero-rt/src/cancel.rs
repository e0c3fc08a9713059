//! Cooperative cancellation tokens.
//!
//! A [`CancelToken`] lets a supervisor — the serving layer's deadline
//! watchdog, a chaos harness, an interactive caller — stop a launch that
//! is already in flight *without* tearing anything down: the executor's
//! walk polls the token before every work-group (of a direct launch and
//! of a graph replay alike) and the retry loop at every attempt, and
//! both surface [`Error::Canceled`] through the ordinary typed-error
//! path. The worker pool is untouched, partial
//! writes are contained exactly like a kernel panic's, and the queue
//! stays usable for the next submission.
//!
//! Tokens are level-triggered and sticky: once [`CancelToken::cancel`]
//! fires every current *and future* launch observing that token fails
//! fast with [`Error::Canceled`] until the token is replaced (attach a
//! fresh token per job; see [`crate::queue::Queue::with_cancel_token`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::Error;

/// Shared cancellation flag. Cloning is cheap (one `Arc` bump); all
/// clones observe the same flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fire the token: every launch polling it observes the request at
    /// its next group or retry boundary and fails with
    /// [`Error::Canceled`]. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has fired. One acquire load; cheap enough to
    /// poll per work-group.
    pub fn is_canceled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// `Err(Error::Canceled)` carrying `kernel` when the token has
    /// fired, `Ok(())` otherwise — the poll every launch path uses.
    pub fn check(&self, kernel: &'static str) -> crate::error::Result<()> {
        if self.is_canceled() {
            Err(Error::Canceled { kernel })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_sticky_and_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_canceled());
        assert!(c.check("k").is_ok());
        c.cancel();
        assert!(t.is_canceled());
        assert!(t.is_canceled(), "cancellation is level-triggered");
        assert_eq!(t.check("k").unwrap_err(), Error::Canceled { kernel: "k" });
    }
}
