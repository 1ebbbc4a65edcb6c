//! Node-local storage substrates shared by SSS and its competitors.
//!
//! The paper's data organization (§II): "Every node Ni maintains shared
//! objects (or keys) adhering to the key-value model. Multiple versions are
//! kept for each key. Each version stores the value and the commit vector
//! clock of the transaction that produced the version. SSS does not make any
//! assumption on the data clustering policy; simply every shared key can be
//! stored in one or more nodes, depending upon the chosen replication
//! degree."
//!
//! This crate provides:
//!
//! * [`Key`], [`Value`], [`TxnId`] — the basic vocabulary types,
//! * [`MvStore`] — the multi-version repository used by SSS and Walter,
//! * [`SvStore`] — the single-version repository used by the 2PC baseline
//!   and ROCOCO,
//! * [`LockTable`] — shared/exclusive locks with bounded (timeout)
//!   acquisition, as used during the 2PC prepare phase; the only thing in
//!   this crate that blocks, on one
//!   [`Signal`](sss_vclock::runtime::Signal) per shard, so the wait and its
//!   time-out run in virtual time under the simulator,
//! * [`ReplicaMap`] — the key→nodes lookup function assumed by the paper
//!   ("we assume the existence of a local look-up function that matches keys
//!   with nodes").
//!
//! # Sharding
//!
//! [`MvStore`], [`SvStore`] and [`LockTable`] are hash-partitioned into a
//! fixed number of shards ([`shard::DEFAULT_SHARDS`] by default,
//! configurable via the `with_shards` constructors), each behind its own
//! lock. The structures are internally synchronized — every operation takes
//! `&self` — so concurrent node workers touching different keys proceed in
//! parallel instead of serializing on one map-wide lock. Version-chain
//! reads additionally take an `Arc` snapshot of the chain and release the
//! shard lock before walking it. Per-shard contention counters are exposed
//! through [`MvStoreStats`], [`SvStoreStats`] and [`LockTableStats`], and
//! [`StorageStats`] aggregates them per engine for the benchmark harness.

#![deny(missing_docs)]

mod key;
mod locks;
mod mvstore;
mod recent;
mod replica;
pub mod shard;
mod stats;
mod svstore;
mod txn_id;

pub use key::{Key, Value};
pub use locks::{LockKind, LockTable, LockTableStats};
pub use mvstore::{MvShardStats, MvStore, MvStoreStats, Version, VersionChain};
pub use recent::{RecentSet, RecentTxnSet};
pub use replica::ReplicaMap;
pub use shard::DEFAULT_SHARDS;
pub use stats::StorageStats;
pub use svstore::{SvCell, SvShardStats, SvStore, SvStoreStats};
pub use txn_id::TxnId;

pub use sss_vclock::{NodeId, VectorClock};

/// [`Value`] as a byte buffer: construction, conversions, shared clones and
/// its `Debug` form.
#[cfg(test)]
mod tests {
    use super::Value;

    #[test]
    fn construction_and_views() {
        let v = Value::from(&[1u8, 2, 3][..]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.as_bytes(), &[1, 2, 3]);
        assert_eq!(v.as_ref(), &[1, 2, 3]);
        assert!(!v.is_empty());
        assert!(Value::empty().is_empty());
        assert_eq!(Value::default(), Value::empty());
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(vec![9u8]), Value::from(&[9u8][..]));
        assert_eq!(Value::from("ab"), Value::from(&b"ab"[..]));
        assert_eq!(Value::from("ab".to_string()), Value::from("ab"));
        assert_eq!(Value::new(vec![7u8]), Value::from(vec![7u8]));
    }

    #[test]
    fn clones_share_storage() {
        let a = Value::from("shared");
        let b = a.clone();
        assert_eq!(a.as_bytes().as_ptr(), b.as_bytes().as_ptr());
    }

    #[test]
    fn debug_escapes_non_printable() {
        assert_eq!(format!("{:?}", Value::from("a\x01")), "Value(b\"a\\x01\")");
        assert_eq!(
            format!("{:?}", Value::from("q\"\\")),
            "Value(b\"q\\x22\\x5c\")"
        );
    }
}
