//! The benchmark's own seeded input generator. The program under test sees
//! only the keys and values this produces; the same `(seed, client)` pair
//! always yields the same transaction stream.

/// Keys an update transaction reads and then writes.
pub const UPDATE_KEYS: usize = 2;
/// Largest read-only transaction any workload issues.
pub const MAX_TXN_KEYS: usize = 16;

/// SplitMix64: small, fast, and good enough to pick keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }
}

/// Derives an independent seed from a base seed and a stream index.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// A skew: `percent` of key picks come from the first `keys` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotSet {
    pub keys: u32,
    pub percent: u32,
}

/// The transaction mix of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Share of update transactions, in percent.
    pub update_percent: u32,
    /// Keys a read-only transaction reads.
    pub read_only_keys: usize,
    /// Size of the key space picks are drawn from.
    pub key_space: u32,
    /// Optional skew towards a few hot keys.
    pub hot: Option<HotSet>,
}

/// One client's transaction stream.
#[derive(Debug, Clone)]
pub struct TxnGen {
    rng: Rng,
    mix: Mix,
}

impl TxnGen {
    pub fn new(seed: u64, client: u64, mix: Mix) -> Self {
        assert!(mix.read_only_keys <= MAX_TXN_KEYS && mix.update_percent <= 100);
        if let Some(hot) = mix.hot {
            // Every pick of a transaction can be hot without running out of
            // distinct hot keys, so the hot share is exactly `percent`.
            assert!(hot.keys as usize >= mix.read_only_keys.max(UPDATE_KEYS));
            assert!(hot.keys < mix.key_space && hot.percent <= 100);
        }
        TxnGen {
            rng: Rng::new(derive_seed(seed, client)),
            mix,
        }
    }

    /// Generates the next transaction: fills `keys` with distinct key
    /// indices and returns `true` for a read-only transaction.
    pub fn next_txn(&mut self, keys: &mut Vec<u32>) -> bool {
        keys.clear();
        let read_only = self.rng.below(100) >= self.mix.update_percent;
        let count = if read_only {
            self.mix.read_only_keys
        } else {
            UPDATE_KEYS
        };
        while keys.len() < count {
            // The class (hot or cold) is drawn once per pick and a repeated
            // key is redrawn within its class, so the class shares are exact.
            let (lo, span) = match self.mix.hot {
                Some(hot) if self.rng.below(100) < hot.percent => (0, hot.keys),
                Some(hot) => (hot.keys, self.mix.key_space - hot.keys),
                None => (0, self.mix.key_space),
            };
            let mut pick = lo + self.rng.below(span);
            while keys.contains(&pick) {
                pick = lo + self.rng.below(span);
            }
            keys.push(pick);
        }
        read_only
    }

    /// The value an update writes (any `u64`; the program treats it as
    /// opaque bytes).
    pub fn next_value(&mut self) -> u64 {
        self.rng.next_u64()
    }
}

/// FNV-1a hash of the first `count` transactions of a stream, for the
/// determinism tests and the run header.
pub fn stream_hash(seed: u64, client: u64, mix: Mix, count: usize) -> u64 {
    let mut gen = TxnGen::new(seed, client, mix);
    let mut keys = Vec::with_capacity(MAX_TXN_KEYS);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    for _ in 0..count {
        let read_only = gen.next_txn(&mut keys);
        eat(read_only as u64);
        for &k in &keys {
            eat(k as u64);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNIFORM: Mix = Mix {
        update_percent: 90,
        read_only_keys: 2,
        key_space: 4096,
        hot: None,
    };
    const HOT: Mix = Mix {
        update_percent: 50,
        read_only_keys: 4,
        key_space: 4096,
        hot: Some(HotSet {
            keys: 4,
            percent: 90,
        }),
    };

    #[test]
    fn same_seed_same_stream_and_other_seed_other_stream() {
        assert_eq!(
            stream_hash(7, 0, UNIFORM, 5000),
            stream_hash(7, 0, UNIFORM, 5000)
        );
        assert_ne!(
            stream_hash(7, 0, UNIFORM, 5000),
            stream_hash(8, 0, UNIFORM, 5000)
        );
        assert_ne!(
            stream_hash(7, 0, UNIFORM, 5000),
            stream_hash(7, 1, UNIFORM, 5000)
        );
    }

    #[test]
    fn keys_within_a_transaction_are_distinct_and_in_range() {
        for mix in [UNIFORM, HOT] {
            let mut gen = TxnGen::new(3, 1, mix);
            let mut keys = Vec::new();
            for _ in 0..20_000 {
                let read_only = gen.next_txn(&mut keys);
                let expected = if read_only {
                    mix.read_only_keys
                } else {
                    UPDATE_KEYS
                };
                assert_eq!(keys.len(), expected);
                for (i, k) in keys.iter().enumerate() {
                    assert!(*k < mix.key_space);
                    assert!(!keys[..i].contains(k), "repeated key in {keys:?}");
                }
            }
        }
    }

    #[test]
    fn hot_share_and_update_share_match_the_mix() {
        let mut gen = TxnGen::new(11, 0, HOT);
        let mut keys = Vec::new();
        let (mut picks, mut hot, mut updates) = (0u64, 0u64, 0u64);
        let total = 100_000;
        for _ in 0..total {
            if !gen.next_txn(&mut keys) {
                updates += 1;
            }
            picks += keys.len() as u64;
            hot += keys.iter().filter(|k| **k < 4).count() as u64;
        }
        let hot_share = hot as f64 / picks as f64;
        assert!((hot_share - 0.90).abs() < 0.01, "hot share {hot_share}");
        let update_share = updates as f64 / total as f64;
        assert!(
            (update_share - 0.50).abs() < 0.01,
            "update share {update_share}"
        );
    }
}
