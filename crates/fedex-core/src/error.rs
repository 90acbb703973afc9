//! Error type for explanation generation.

use std::fmt;

use fedex_frame::FrameError;
use fedex_query::QueryError;

/// Errors produced while generating explanations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplainError {
    /// Underlying dataframe failure.
    Frame(FrameError),
    /// Underlying query failure.
    Query(QueryError),
    /// A user-specified target column does not exist in the output.
    UnknownColumn(String),
    /// Catch-all for invalid configuration.
    InvalidConfig(String),
    /// The run's deadline budget expired before the pipeline finished
    /// (cooperative check via [`crate::cancel::CancelToken`]).
    DeadlineExceeded,
    /// The run was cancelled — its waiter abandoned it.
    Cancelled,
    /// A register or `save_as` would by itself take its session past the
    /// server-wide budget ([`crate::session::SESSION_BUDGET`]); the
    /// session is left unchanged.
    SessionFull {
        /// Bytes the session would retain after the change.
        needed: usize,
        /// The budget it would exceed.
        budget: usize,
    },
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::Frame(e) => write!(f, "{e}"),
            ExplainError::Query(e) => write!(f, "{e}"),
            ExplainError::UnknownColumn(c) => write!(f, "unknown output column: {c:?}"),
            ExplainError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            ExplainError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ExplainError::Cancelled => write!(f, "cancelled"),
            ExplainError::SessionFull { needed, budget } => write!(
                f,
                "session would retain {needed} bytes, over the {budget}-byte session budget"
            ),
        }
    }
}

impl std::error::Error for ExplainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExplainError::Frame(e) => Some(e),
            ExplainError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ExplainError {
    fn from(e: FrameError) -> Self {
        ExplainError::Frame(e)
    }
}

impl From<QueryError> for ExplainError {
    fn from(e: QueryError) -> Self {
        ExplainError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        let e: ExplainError = FrameError::ColumnNotFound("x".into()).into();
        assert!(e.to_string().contains("column not found"));
        let e: ExplainError = QueryError::UnknownTable("t".into()).into();
        assert!(e.to_string().contains("unknown table"));
    }
}
