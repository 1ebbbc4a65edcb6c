//! The [`VectorClock`] type and its partial order.

use smallvec::SmallVec;

/// Number of entries a [`VectorClock`] stores inline (without heap
/// allocation). Clusters up to this size — which covers every configuration
/// the paper evaluates — never allocate for a clock, and clock clones on the
/// message hot path are plain `memcpy`s. Larger clusters transparently spill
/// to the heap.
pub const INLINE_WIDTH: usize = 8;

/// Result of comparing two vector clocks under the entry-wise partial order.
///
/// The paper (§IV) defines `v1 <= v2` iff `∀i, v1[i] <= v2[i]`, and
/// `v1 < v2` when additionally some entry is strictly smaller. Two clocks
/// that are ordered in neither direction are *concurrent*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VcOrdering {
    /// Every entry is equal.
    Equal,
    /// `self < other`: `self` happened-before `other`.
    Before,
    /// `self > other`: `other` happened-before `self`.
    After,
    /// Neither dominates the other.
    Concurrent,
}

/// A fixed-width vector clock with one entry per node of the cluster.
///
/// In SSS a transaction `T` carries `T.VC` (its visibility bound) and every
/// node `Ni` maintains `NodeVC`; committed versions are stamped with the
/// commit vector clock of the transaction that produced them (paper §III-A).
///
/// The width of the clock is fixed at construction and all binary operations
/// panic if the widths differ — mixing clocks from clusters of different
/// sizes is always a logic error.
///
/// Entries are stored inline for clusters of up to [`INLINE_WIDTH`] nodes
/// (spilling to the heap beyond that), so creating, cloning and dropping
/// clocks — which happens on every protocol message — does not touch the
/// allocator in the common case.
///
/// # Example
///
/// ```rust
/// use sss_vclock::VectorClock;
///
/// let mut node_vc = VectorClock::new(4);
/// node_vc.increment(2);
/// assert_eq!(node_vc.get(2), 1);
/// assert_eq!(node_vc.get(0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VectorClock {
    entries: SmallVec<[u64; INLINE_WIDTH]>,
}

impl VectorClock {
    /// Creates a zeroed vector clock with `width` entries (one per node).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero: a cluster always has at least one node.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "vector clock width must be non-zero");
        VectorClock {
            entries: SmallVec::from_elem(0, width),
        }
    }

    /// Creates a vector clock from explicit entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    pub fn from_entries(entries: Vec<u64>) -> Self {
        assert!(!entries.is_empty(), "vector clock width must be non-zero");
        VectorClock {
            entries: SmallVec::from_vec(entries),
        }
    }

    /// `true` when the entries are stored inline (width at most
    /// [`INLINE_WIDTH`]): no heap allocation backs this clock.
    pub fn is_inline(&self) -> bool {
        !self.entries.spilled()
    }

    /// Number of entries (equals the number of nodes in the cluster).
    pub fn width(&self) -> usize {
        self.entries.len()
    }

    /// Returns entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn get(&self, i: usize) -> u64 {
        self.entries[i]
    }

    /// Sets entry `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn set(&mut self, i: usize, value: u64) {
        self.entries[i] = value;
    }

    /// Increments entry `i` by one and returns the new value.
    ///
    /// This is the `NodeVC[i]++` step performed by a write replica during the
    /// 2PC prepare phase (paper, Algorithm 2 line 9).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn increment(&mut self, i: usize) -> u64 {
        self.entries[i] += 1;
        self.entries[i]
    }

    /// Entry-wise maximum with `other`, in place (`self := max(self, other)`).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn merge(&mut self, other: &VectorClock) {
        assert_eq!(
            self.width(),
            other.width(),
            "cannot merge vector clocks of different widths"
        );
        for (a, b) in self.entries.iter_mut().zip(other.entries.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Returns the entry-wise maximum of `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn merged(&self, other: &VectorClock) -> VectorClock {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// `true` iff `∀i, self[i] >= other[i]` (i.e. `other <= self`).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        assert_eq!(
            self.width(),
            other.width(),
            "cannot compare vector clocks of different widths"
        );
        self.entries
            .iter()
            .zip(other.entries.iter())
            .all(|(a, b)| a >= b)
    }

    /// `true` iff `self <= other` under the entry-wise order.
    pub fn le(&self, other: &VectorClock) -> bool {
        other.dominates(self)
    }

    /// `true` iff `self < other`: `self <= other` and at least one entry is
    /// strictly smaller.
    pub fn lt(&self, other: &VectorClock) -> bool {
        self.le(other) && self.entries != other.entries
    }

    /// Compares two clocks under the partial order.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn partial_cmp_vc(&self, other: &VectorClock) -> VcOrdering {
        let le = self.le(other);
        let ge = self.dominates(other);
        match (le, ge) {
            (true, true) => VcOrdering::Equal,
            (true, false) => VcOrdering::Before,
            (false, true) => VcOrdering::After,
            (false, false) => VcOrdering::Concurrent,
        }
    }

    /// `true` iff the two clocks are concurrent (neither dominates).
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        self.partial_cmp_vc(other) == VcOrdering::Concurrent
    }

    /// Iterates over the entries in node-index order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().copied()
    }

    /// Returns the entries as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.entries
    }

    /// Sum of all entries; a cheap scalar proxy used for diagnostics only.
    pub fn total(&self) -> u64 {
        self.entries.iter().sum()
    }

    /// Returns the maximum entry among the node indices in `indices`.
    ///
    /// This computes `xactVN = max{commitVC[w] : Nw ∈ replicas(T.ws)}`
    /// (paper, Algorithm 1 line 21).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn max_over(&self, indices: impl IntoIterator<Item = usize>) -> u64 {
        indices
            .into_iter()
            .map(|i| self.entries[i])
            .max()
            .unwrap_or(0)
    }

    /// Sets every entry in `indices` to `value`.
    ///
    /// This is the `commitVC[j] ← xactVN` assignment over all write replicas
    /// (paper, Algorithm 1 lines 22-24).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn assign_over(&mut self, indices: impl IntoIterator<Item = usize>, value: u64) {
        for i in indices {
            self.entries[i] = value;
        }
    }
}

impl std::fmt::Display for VectorClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

impl AsRef<[u64]> for VectorClock {
    fn as_ref(&self) -> &[u64] {
        &self.entries
    }
}

impl From<Vec<u64>> for VectorClock {
    fn from(entries: Vec<u64>) -> Self {
        VectorClock::from_entries(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(entries: &[u64]) -> VectorClock {
        VectorClock::from_entries(entries.to_vec())
    }

    #[test]
    fn new_clock_is_zero() {
        let c = VectorClock::new(4);
        assert_eq!(c.width(), 4);
        assert!(c.iter().all(|e| e == 0));
        assert_eq!(c.total(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_width_panics() {
        let _ = VectorClock::new(0);
    }

    #[test]
    fn increment_and_get() {
        let mut c = VectorClock::new(3);
        assert_eq!(c.increment(1), 1);
        assert_eq!(c.increment(1), 2);
        assert_eq!(c.get(1), 2);
        assert_eq!(c.get(0), 0);
    }

    #[test]
    fn set_overwrites_entry() {
        let mut c = VectorClock::new(2);
        c.set(0, 9);
        assert_eq!(c.get(0), 9);
    }

    #[test]
    fn merge_is_entrywise_max() {
        let a = vc(&[5, 4, 0]);
        let b = vc(&[3, 7, 1]);
        assert_eq!(a.merged(&b), vc(&[5, 7, 1]));
        assert_eq!(b.merged(&a), vc(&[5, 7, 1]));
    }

    #[test]
    fn domination_and_ordering() {
        let lo = vc(&[1, 2, 3]);
        let hi = vc(&[2, 2, 4]);
        assert!(hi.dominates(&lo));
        assert!(lo.le(&hi));
        assert!(lo.lt(&hi));
        assert!(!hi.lt(&lo));
        assert_eq!(lo.partial_cmp_vc(&hi), VcOrdering::Before);
        assert_eq!(hi.partial_cmp_vc(&lo), VcOrdering::After);
        assert_eq!(lo.partial_cmp_vc(&lo), VcOrdering::Equal);
    }

    #[test]
    fn concurrent_clocks_detected() {
        let a = vc(&[2, 0]);
        let b = vc(&[0, 2]);
        assert!(a.concurrent_with(&b));
        assert_eq!(a.partial_cmp_vc(&b), VcOrdering::Concurrent);
    }

    #[test]
    fn max_over_and_assign_over_match_commit_vc_computation() {
        // Mirrors Algorithm 1 lines 21-24: write replicas are {0, 2}.
        let mut commit_vc = vc(&[3, 9, 7]);
        let xact_vn = commit_vc.max_over([0usize, 2usize]);
        assert_eq!(xact_vn, 7);
        commit_vc.assign_over([0usize, 2usize], xact_vn);
        assert_eq!(commit_vc, vc(&[7, 9, 7]));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(vc(&[5, 4]).to_string(), "[5,4]");
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merging_mismatched_widths_panics() {
        let mut a = VectorClock::new(2);
        a.merge(&VectorClock::new(3));
    }

    #[test]
    fn conversion_from_vec() {
        let c: VectorClock = vec![1, 2, 3].into();
        assert_eq!(c.as_slice(), &[1, 2, 3]);
        assert_eq!(c.as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn small_clusters_stay_inline() {
        assert!(VectorClock::new(1).is_inline());
        assert!(VectorClock::new(INLINE_WIDTH).is_inline());
        let mut c = VectorClock::new(4);
        c.increment(3);
        assert!(c.clone().is_inline(), "clones stay inline too");
    }

    #[test]
    fn wide_clusters_spill_but_behave_identically() {
        let width = INLINE_WIDTH + 3;
        let mut wide = VectorClock::new(width);
        assert!(!wide.is_inline());
        wide.increment(INLINE_WIDTH);
        wide.set(0, 5);
        let mut other = VectorClock::new(width);
        other.set(1, 7);
        let merged = wide.merged(&other);
        assert_eq!(merged.get(0), 5);
        assert_eq!(merged.get(1), 7);
        assert_eq!(merged.get(INLINE_WIDTH), 1);
        assert!(merged.dominates(&wide) && merged.dominates(&other));
        let from_vec = VectorClock::from_entries(vec![1; width]);
        assert!(!from_vec.is_inline());
        assert_eq!(from_vec.width(), width);
    }
}
