//! Workload specification.

/// How a client chooses the keys a transaction accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySelection {
    /// Uniformly at random over the whole key space (the paper's default).
    Uniform,
    /// With probability `local_fraction_percent`, the key is chosen from the
    /// partition of keys whose primary replica is the client's node; the
    /// paper's "50% locality" configuration (Figure 7) uses 50.
    Local {
        /// Percentage (0-100) of accesses biased to local keys.
        local_fraction_percent: u8,
    },
}

/// A structurally invalid [`WorkloadSpec`].
///
/// Returned by [`WorkloadSpec::validate`]; the scenario runner rejects
/// invalid specs up front instead of silently producing nonsense workloads
/// (e.g. a locality bias above 100% that would skew every access local, or
/// a zero-key space that would spin forever picking distinct keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// The cluster has no nodes.
    ZeroNodes,
    /// No clients would run (zero clients per node).
    ZeroClients,
    /// The key space is empty.
    ZeroKeys,
    /// `read_only_percent` exceeds 100.
    ReadOnlyPercentOutOfRange(u8),
    /// `local_fraction_percent` exceeds 100.
    LocalFractionOutOfRange(u8),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::ZeroNodes => write!(f, "workload needs at least one node"),
            SpecError::ZeroClients => write!(f, "workload needs at least one client per node"),
            SpecError::ZeroKeys => write!(f, "workload needs a non-empty key space"),
            SpecError::ReadOnlyPercentOutOfRange(p) => {
                write!(f, "read-only percentage must be 0-100, got {p}")
            }
            SpecError::LocalFractionOutOfRange(p) => {
                write!(f, "local-access fraction must be 0-100, got {p}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// The shape of one workload: who runs it, over which keys, in what mix.
/// How much of it runs (operations per client) belongs to the
/// [`ChaosScenario`](crate::ChaosScenario) that carries the spec.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// Closed-loop clients per node (the paper uses 10 unless stated).
    pub clients_per_node: usize,
    /// Total number of shared keys (the paper uses 5,000 or 10,000).
    pub total_keys: usize,
    /// Percentage (0-100) of read-only transactions.
    pub read_only_percent: u8,
    /// Keys read (and written) by an update transaction (the paper uses 2).
    pub update_access_count: usize,
    /// Keys read by a read-only transaction (2 in most experiments, up to 16
    /// in Figure 8).
    pub read_only_access_count: usize,
    /// Key-selection policy.
    pub key_selection: KeySelection,
    /// Base random seed; each client derives its own stream from it.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A specification with the paper's defaults: 10 clients per node, 5,000
    /// keys, 2-key update transactions, 2-key read-only transactions,
    /// uniform key selection.
    pub fn new(nodes: usize) -> Self {
        WorkloadSpec {
            nodes,
            clients_per_node: 10,
            total_keys: 5_000,
            read_only_percent: 50,
            update_access_count: 2,
            read_only_access_count: 2,
            key_selection: KeySelection::Uniform,
            seed: 42,
        }
    }

    /// Sets the number of clients per node.
    pub fn clients_per_node(mut self, clients: usize) -> Self {
        self.clients_per_node = clients;
        self
    }

    /// Sets the total key count.
    pub fn total_keys(mut self, keys: usize) -> Self {
        self.total_keys = keys;
        self
    }

    /// Sets the read-only percentage (0-100).
    ///
    /// # Panics
    ///
    /// Panics if `percent > 100`.
    pub fn read_only_percent(mut self, percent: u8) -> Self {
        assert!(percent <= 100, "read-only percentage must be 0-100");
        self.read_only_percent = percent;
        self
    }

    /// Sets the number of keys accessed by read-only transactions.
    pub fn read_only_access_count(mut self, count: usize) -> Self {
        self.read_only_access_count = count;
        self
    }

    /// Sets the number of keys accessed by update transactions.
    pub fn update_access_count(mut self, count: usize) -> Self {
        self.update_access_count = count;
        self
    }

    /// Sets the key selection policy.
    pub fn key_selection(mut self, selection: KeySelection) -> Self {
        self.key_selection = selection;
        self
    }

    /// Sets the base random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total number of closed-loop clients in the system.
    pub fn total_clients(&self) -> usize {
        self.nodes * self.clients_per_node
    }

    /// Checks the spec for structural validity.
    ///
    /// The builder methods already reject some invalid values eagerly, but
    /// specs can also be assembled field-by-field; the scenario runner
    /// calls this before running anything.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.nodes == 0 {
            return Err(SpecError::ZeroNodes);
        }
        if self.clients_per_node == 0 {
            return Err(SpecError::ZeroClients);
        }
        if self.total_keys == 0 {
            return Err(SpecError::ZeroKeys);
        }
        if self.read_only_percent > 100 {
            return Err(SpecError::ReadOnlyPercentOutOfRange(self.read_only_percent));
        }
        if let KeySelection::Local {
            local_fraction_percent,
        } = self.key_selection
        {
            if local_fraction_percent > 100 {
                return Err(SpecError::LocalFractionOutOfRange(local_fraction_percent));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let spec = WorkloadSpec::new(5);
        assert_eq!(spec.clients_per_node, 10);
        assert_eq!(spec.total_keys, 5_000);
        assert_eq!(spec.update_access_count, 2);
        assert_eq!(spec.read_only_access_count, 2);
        assert_eq!(spec.key_selection, KeySelection::Uniform);
        assert_eq!(spec.total_clients(), 50);
    }

    #[test]
    fn builder_overrides() {
        let spec = WorkloadSpec::new(3)
            .clients_per_node(2)
            .total_keys(100)
            .read_only_percent(80)
            .read_only_access_count(16)
            .update_access_count(4)
            .key_selection(KeySelection::Local {
                local_fraction_percent: 50,
            })
            .seed(7);
        assert_eq!(spec.read_only_percent, 80);
        assert_eq!(spec.read_only_access_count, 16);
        assert_eq!(spec.update_access_count, 4);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.total_clients(), 6);
    }

    #[test]
    #[should_panic(expected = "0-100")]
    fn invalid_percentage_panics() {
        let _ = WorkloadSpec::new(2).read_only_percent(101);
    }

    #[test]
    fn validation_accepts_the_defaults() {
        assert_eq!(WorkloadSpec::new(3).validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_structurally_invalid_specs() {
        let mut spec = WorkloadSpec::new(2);
        spec.nodes = 0;
        assert_eq!(spec.validate(), Err(SpecError::ZeroNodes));

        let spec = WorkloadSpec::new(2).clients_per_node(0);
        assert_eq!(spec.validate(), Err(SpecError::ZeroClients));

        let spec = WorkloadSpec::new(2).total_keys(0);
        assert_eq!(spec.validate(), Err(SpecError::ZeroKeys));

        let mut spec = WorkloadSpec::new(2);
        spec.read_only_percent = 150;
        assert_eq!(
            spec.validate(),
            Err(SpecError::ReadOnlyPercentOutOfRange(150))
        );

        let spec = WorkloadSpec::new(2).key_selection(KeySelection::Local {
            local_fraction_percent: 101,
        });
        assert_eq!(
            spec.validate(),
            Err(SpecError::LocalFractionOutOfRange(101))
        );
        assert!(!spec.validate().unwrap_err().to_string().is_empty());
    }
}
