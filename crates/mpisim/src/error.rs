//! Error types for the message-passing runtime.

use std::fmt;

/// Error returned when a rank exceeds its memory budget
/// ([`::comm::Budget`]).
///
/// The type itself lives in the backend-neutral `comm` crate so algorithm
/// code generic over [`::comm::Communicator`] can name it without depending
/// on this simulator.
pub use ::comm::OomError;

/// Errors surfaced by communicator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// Another rank panicked; the world is shutting down.
    Aborted,
    /// A per-rank memory budget was exceeded.
    Oom(OomError),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Aborted => write!(f, "world aborted: another rank panicked"),
            CommError::Oom(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CommError {}

impl From<OomError> for CommError {
    fn from(e: OomError) -> Self {
        CommError::Oom(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_display_mentions_rank_and_sizes() {
        let e = OomError {
            rank: 3,
            requested: 100,
            available: 10,
            budget: 50,
        };
        let s = e.to_string();
        assert!(s.contains("rank 3"));
        assert!(s.contains("100 B"));
        assert!(s.contains("50 B"));
    }

    #[test]
    fn comm_error_from_oom() {
        let oom = OomError {
            rank: 0,
            requested: 1,
            available: 0,
            budget: 0,
        };
        let ce: CommError = oom.clone().into();
        assert_eq!(ce, CommError::Oom(oom));
    }

    #[test]
    fn aborted_display() {
        assert!(CommError::Aborted.to_string().contains("panicked"));
    }
}
