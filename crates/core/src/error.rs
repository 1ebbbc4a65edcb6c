//! Error types of the SSS client API.

use sss_storage::Key;

/// Why an update transaction aborted.
///
/// Read-only transactions never abort due to concurrency (paper §I); only
/// update transactions can fail, and only at commit time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// A participant could not acquire the required locks within the lock
    /// timeout (contention / deadlock avoidance, §III-E).
    LockTimeout,
    /// Commit-time validation failed: a read key was overwritten by a
    /// concurrent transaction (Algorithm 1, `validate`).
    ValidationFailed {
        /// The stale key, when the participant reported it.
        key: Option<Key>,
    },
    /// A participant did not vote before the coordinator's vote timeout.
    VoteTimeout,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::LockTimeout => write!(f, "lock acquisition timed out"),
            AbortReason::ValidationFailed { key: Some(k) } => {
                write!(f, "validation failed: key {k} was overwritten")
            }
            AbortReason::ValidationFailed { key: None } => write!(f, "validation failed"),
            AbortReason::VoteTimeout => write!(f, "a participant did not vote in time"),
        }
    }
}

/// Errors surfaced by the SSS client API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SssError {
    /// The transaction aborted; it can simply be retried.
    Aborted(AbortReason),
    /// A read did not receive any replica response in time.
    ReadTimeout {
        /// The key being read.
        key: Key,
    },
    /// The external-commit acknowledgement did not arrive in time. The
    /// transaction *is* internally committed; the client must not assume
    /// its position in the external schedule.
    ExternalCommitTimeout,
    /// The cluster has been shut down.
    ClusterShutdown,
    /// The session's colocated node is down (inside a crash window, or
    /// restarted but not yet recovered from its peers) and stayed down
    /// through the client's bounded retries. The transaction performed no
    /// work; the client may retry later against the same session or open a
    /// session on another node.
    NodeUnavailable,
    /// The operation is not valid in the transaction's current state (e.g.
    /// writing inside a read-only transaction).
    InvalidOperation(&'static str),
}

impl SssError {
    /// `true` if the error is a transient abort that the client may retry.
    pub fn is_abort(&self) -> bool {
        matches!(self, SssError::Aborted(_))
    }
}

impl std::fmt::Display for SssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SssError::Aborted(reason) => write!(f, "transaction aborted: {reason}"),
            SssError::ReadTimeout { key } => write!(f, "read of key {key} timed out"),
            SssError::ExternalCommitTimeout => {
                write!(f, "external commit acknowledgement timed out")
            }
            SssError::ClusterShutdown => write!(f, "cluster has been shut down"),
            SssError::NodeUnavailable => {
                write!(f, "colocated node is down (crashed or recovering)")
            }
            SssError::InvalidOperation(what) => write!(f, "invalid operation: {what}"),
        }
    }
}

impl std::error::Error for SssError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_classification() {
        assert!(SssError::Aborted(AbortReason::LockTimeout).is_abort());
        assert!(!SssError::ClusterShutdown.is_abort());
    }

    #[test]
    fn display_messages_are_informative() {
        let e = SssError::Aborted(AbortReason::ValidationFailed {
            key: Some(Key::new("account-7")),
        });
        assert!(e.to_string().contains("account-7"));
        assert!(SssError::Aborted(AbortReason::VoteTimeout)
            .to_string()
            .contains("vote"));
        assert!(SssError::ReadTimeout { key: Key::new("x") }
            .to_string()
            .contains("x"));
        assert!(SssError::InvalidOperation("write in read-only txn")
            .to_string()
            .contains("read-only"));
        assert!(!SssError::ExternalCommitTimeout.to_string().is_empty());
        assert!(!SssError::ClusterShutdown.to_string().is_empty());
        assert!(!AbortReason::ValidationFailed { key: None }
            .to_string()
            .is_empty());
        assert!(!AbortReason::LockTimeout.to_string().is_empty());
    }
}
