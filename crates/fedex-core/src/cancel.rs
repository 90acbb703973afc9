//! Cooperative cancellation and deadlines for explain runs.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between the
//! party that *owns* a run (a serving scheduler, a test harness) and the
//! pipeline executing it. The pipeline never blocks on the token — it
//! calls [`CancelToken::check`] at stage boundaries and inside the
//! per-work-unit loops of the data-parallel stages, so an expired or
//! abandoned explain abandons its work within one work unit and returns a
//! typed [`ExplainError::DeadlineExceeded`] / [`ExplainError::Cancelled`]
//! instead of running to completion for nobody.
//!
//! Checks are deliberately cheap (one relaxed atomic load; the deadline
//! clock is read only until it first expires), so sprinkling them through
//! hot loops does not perturb the deterministic artifact chain: a run
//! that is *not* cancelled is byte-identical to one executed without a
//! token.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::ExplainError;
use crate::Result;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Latched once the deadline is first observed as passed, so later
    /// checks skip the clock read.
    expired: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancellation handle: an explicit cancel flag plus an optional
/// absolute deadline. Clones share state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token with no deadline; trips only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                expired: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally trips once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                expired: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Trip the explicit cancel flag (e.g. the run's waiter left).
    /// Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// The absolute deadline, when one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// True once the deadline has passed (always false without one).
    pub fn deadline_exceeded(&self) -> bool {
        if self.inner.expired.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.inner.expired.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The cooperative checkpoint: `Ok(())` while the run may continue,
    /// or the typed error the pipeline should surface. Cancellation wins
    /// over expiry when both hold — an abandoned run reports `cancelled`
    /// regardless of how late it noticed.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(ExplainError::Cancelled);
        }
        if self.deadline_exceeded() {
            return Err(ExplainError::DeadlineExceeded);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_token_passes() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
        assert!(!t.deadline_exceeded());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Err(ExplainError::Cancelled));
    }

    #[test]
    fn deadline_trips_and_latches() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.deadline_exceeded());
        assert_eq!(t.check(), Err(ExplainError::DeadlineExceeded));
        // Latched: still tripped on a second look.
        assert!(t.deadline_exceeded());
    }

    #[test]
    fn future_deadline_passes() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(t.check().is_ok());
    }

    #[test]
    fn cancel_wins_over_expiry() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        t.cancel();
        assert_eq!(t.check(), Err(ExplainError::Cancelled));
    }
}
