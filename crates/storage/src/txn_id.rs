//! Globally unique transaction identifiers.

use sss_vclock::NodeId;

/// Identifier of a transaction.
///
/// A transaction begins on the node its client is colocated with (paper §II);
/// the identifier combines that origin node with a per-node sequence number,
/// which makes it unique without any coordination and lets any node route
/// messages (e.g. the forwarded `Remove` of §III-C) back to the
/// transaction's coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    /// Node on which the transaction's client/coordinator runs.
    pub origin: NodeId,
    /// Per-origin-node sequence number.
    pub seq: u64,
}

impl TxnId {
    /// Creates a transaction identifier.
    pub fn new(origin: NodeId, seq: u64) -> Self {
        TxnId { origin, seq }
    }

    /// The coordinator node of this transaction.
    pub fn coordinator(&self) -> NodeId {
        self.origin
    }
}

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}.{}", self.origin.index(), self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_coordinator() {
        let id = TxnId::new(NodeId(3), 42);
        assert_eq!(id.to_string(), "T3.42");
        assert_eq!(id.coordinator(), NodeId(3));
    }

    #[test]
    fn ordering_is_origin_then_sequence() {
        assert!(TxnId::new(NodeId(0), 9) < TxnId::new(NodeId(1), 0));
        assert!(TxnId::new(NodeId(1), 1) < TxnId::new(NodeId(1), 2));
        assert_eq!(TxnId::new(NodeId(1), 1), TxnId::new(NodeId(1), 1));
    }
}
