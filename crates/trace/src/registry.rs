//! Named monotonic counters behind a sharded registry.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Lock shards for the name → counter map. Registration takes one
/// shard lock briefly; increments never touch a lock at all.
const SHARDS: usize = 8;

fn shard_of(name: &str) -> usize {
    // FNV-1a over the name; cheap and stable.
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % SHARDS as u64) as usize
}

/// A handle to one monotonic counter. Clones share the same cell, so a
/// subsystem can resolve its counters once and increment lock-free on
/// the hot path.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not registered anywhere: increments are recorded but
    /// only visible through this handle. Used by disabled trace sinks
    /// so call sites never need to branch.
    pub(crate) fn detached() -> Self {
        Counter::default()
    }

    /// Add `delta` (relaxed; totals are read only at snapshot time).
    pub fn incr(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A sharded name → [`Counter`] registry.
///
/// `counter(name)` is get-or-create: every caller asking for a name
/// gets a handle to the *same* cell, which is what lets the build
/// cache, the runner, and the bisect hierarchy all contribute to one
/// coherent snapshot.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    shards: [Mutex<HashMap<String, Counter>>; SHARDS],
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Resolve (or create) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut shard = self.shards[shard_of(name)].lock();
        shard
            .entry(name.to_string())
            .or_insert_with(Counter::detached)
            .clone()
    }

    /// Deterministic snapshot of every registered counter, sorted by
    /// name. Zero-valued counters are included: a counter that was
    /// resolved but never incremented is still part of the vocabulary.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for (name, counter) in shard.lock().iter() {
                out.insert(name.clone(), counter.get());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.incr(2);
        b.incr(3);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.counter("x").get(), 5);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("zz").incr(1);
        reg.counter("aa").incr(7);
        reg.counter("mm"); // resolved, never incremented
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["aa", "mm", "zz"]);
        assert_eq!(snap["aa"], 7);
        assert_eq!(snap["mm"], 0);
    }

    #[test]
    fn detached_counters_work_standalone() {
        let c = Counter::detached();
        c.incr(4);
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn concurrent_increments_are_lost_update_free() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("hot");
                for _ in 0..1000 {
                    c.incr(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("hot").get(), 8000);
    }
}
