//! Vector clock primitives for the SSS key-value store.
//!
//! SSS tracks dependencies among events originated on different nodes with
//! per-transaction and per-node vector clocks (paper §III-A). This crate
//! provides the [`VectorClock`] type together with the partial-order
//! comparison ([`VcOrdering`]) that the protocol proofs (paper §IV) rely on:
//! `v1 <= v2` iff every entry of `v1` is `<=` the corresponding entry of `v2`.
//!
//! # Example
//!
//! ```rust
//! use sss_vclock::{VectorClock, VcOrdering};
//!
//! let mut a = VectorClock::new(3);
//! let mut b = VectorClock::new(3);
//! a.increment(0);
//! b.increment(1);
//!
//! // Concurrent events are incomparable.
//! assert_eq!(a.partial_cmp_vc(&b), VcOrdering::Concurrent);
//!
//! // Merging yields the entry-wise maximum, which dominates both inputs.
//! let merged = a.merged(&b);
//! assert!(merged.dominates(&a) && merged.dominates(&b));
//! ```

#![deny(missing_docs)]

pub mod runtime;
mod vector_clock;

pub use vector_clock::{VcOrdering, VectorClock, INLINE_WIDTH};

/// Identifier of a node (site) in the cluster.
///
/// Node identifiers are dense indices in `0..n` where `n` is the cluster
/// size; they double as indices into [`VectorClock`] entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the dense index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let n = NodeId(7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.to_string(), "N7");
        assert_eq!(NodeId::from(7usize), n);
    }

    #[test]
    fn node_id_ordering_is_by_index() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(3), NodeId(3));
    }
}
