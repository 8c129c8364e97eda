//! A sharded single-flight memo table: the query ledger's answer table.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

const SHARDS: usize = 16;

/// A concurrent memo with single-flight semantics.
///
/// Lookup takes the shard lock only long enough to clone the per-key
/// cell; the compute closure then runs under that *cell's* lock. Two
/// workers racing on the same key therefore serialize on the cell — the
/// loser blocks until the winner's value is ready and gets a memo hit —
/// while workers on different keys proceed in parallel. This is what
/// lets concurrent bisect searches share one query ledger without ever
/// building the same mixed binary twice.
pub struct SingleFlight<K, V> {
    shards: Vec<Mutex<HashMap<K, Cell<V>>>>,
}

/// The per-key single-flight cell: the first worker to lock it computes,
/// everyone else blocks on the lock and reads the finished value.
type Cell<V> = Arc<Mutex<Option<V>>>;

impl<K: Hash + Eq + Clone, V: Clone> SingleFlight<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        SingleFlight {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &K) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    /// Return the memoized value for `key`, computing it via `compute`
    /// if absent. The boolean is `true` when this call did the compute
    /// (a miss) and `false` on a memo hit.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        let cell = {
            let mut shard = self.shards[self.shard(&key)].lock();
            shard.entry(key).or_default().clone()
        };
        let mut slot = cell.lock();
        match slot.as_ref() {
            Some(v) => (v.clone(), false),
            None => {
                let v = compute();
                *slot = Some(v.clone());
                (v, true)
            }
        }
    }

    /// Insert a value for `key` if no value is present yet. Returns
    /// `true` when this call installed the value, `false` when the key
    /// was already resolved (the existing value wins — journal replay
    /// must never overwrite a live answer, and vice versa).
    pub fn insert(&self, key: K, value: V) -> bool {
        let cell = {
            let mut shard = self.shards[self.shard(&key)].lock();
            shard.entry(key).or_default().clone()
        };
        let mut slot = cell.lock();
        if slot.is_none() {
            *slot = Some(value);
            true
        } else {
            false
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    impl<K: Hash + Eq + Clone, V: Clone> SingleFlight<K, V> {
        /// The memoized value for `key`, if any (never computes).
        fn peek(&self, key: &K) -> Option<V> {
            let cell = self.shards[self.shard(key)].lock().get(key).cloned()?;
            let slot = cell.lock();
            slot.clone()
        }
    }

    #[test]
    fn second_lookup_is_a_hit() {
        let memo: SingleFlight<Vec<u32>, u32> = SingleFlight::new();
        let (v, computed) = memo.get_or_compute(vec![1, 2], || 7);
        assert_eq!((v, computed), (7, true));
        let (v, computed) = memo.get_or_compute(vec![1, 2], || unreachable!());
        assert_eq!((v, computed), (7, false));
        assert_eq!(memo.peek(&vec![1, 2]), Some(7));
        assert_eq!(memo.peek(&vec![3]), None);
    }

    #[test]
    fn insert_is_first_writer_wins() {
        let memo: SingleFlight<u32, u32> = SingleFlight::new();
        assert!(memo.insert(1, 10));
        assert!(!memo.insert(1, 99), "existing value must win");
        assert_eq!(memo.peek(&1), Some(10));
        // A computed value also blocks later inserts.
        let (_, computed) = memo.get_or_compute(2, || 20);
        assert!(computed);
        assert!(!memo.insert(2, 99));
        assert_eq!(memo.peek(&2), Some(20));
        // And an inserted value is a hit for get_or_compute.
        let (v, computed) = memo.get_or_compute(1, || unreachable!());
        assert_eq!((v, computed), (10, false));
    }

    #[test]
    fn racing_workers_compute_once() {
        let memo: SingleFlight<u64, u64> = SingleFlight::new();
        let computes = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for key in 0..32u64 {
                        let (v, _) = memo.get_or_compute(key, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            key * 10
                        });
                        assert_eq!(v, key * 10);
                    }
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 32, "single-flight");
    }
}
