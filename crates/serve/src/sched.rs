//! Deterministic fair scheduling across tenants.
//!
//! `FairQueue` keeps one FIFO per tenant and serves them round-robin
//! in lexicographic tenant order. The next item to dispatch is a pure
//! function of the queue contents and the last-served tenant — no
//! clocks, no randomness — so the daemon's dispatch order is
//! reproducible given the same arrival order, and a tenant that
//! enqueues a burst cannot starve the others: each full rotation
//! serves at most one item per tenant.

use std::collections::{BTreeMap, VecDeque};

/// A per-tenant round-robin queue.
#[derive(Debug)]
pub(crate) struct FairQueue<T> {
    queues: BTreeMap<String, VecDeque<T>>,
    /// The tenant served last; the next pop starts strictly after it
    /// (wrapping), which is what makes the rotation fair.
    last: Option<String>,
    len: usize,
}

impl<T> Default for FairQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FairQueue<T> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        FairQueue {
            queues: BTreeMap::new(),
            last: None,
            len: 0,
        }
    }

    /// Total queued items across all tenants.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Is the queue empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueue `item` at the back of `tenant`'s FIFO.
    pub(crate) fn push(&mut self, tenant: &str, item: T) {
        self.queues
            .entry(tenant.to_string())
            .or_default()
            .push_back(item);
        self.len += 1;
    }

    /// Dequeue the next item under the rotation: the first non-empty
    /// tenant strictly after the last-served one in lexicographic
    /// order, wrapping to the smallest. Within a tenant, FIFO.
    pub(crate) fn pop(&mut self) -> Option<(String, T)> {
        if self.len == 0 {
            return None;
        }
        let next = match &self.last {
            Some(last) => self
                .queues
                .range::<String, _>((
                    std::ops::Bound::Excluded(last.clone()),
                    std::ops::Bound::Unbounded,
                ))
                .next()
                .map(|(k, _)| k.clone()),
            None => None,
        };
        let tenant = next.unwrap_or_else(|| {
            self.queues
                .keys()
                .next()
                .expect("len > 0 implies a non-empty tenant map")
                .clone()
        });
        let queue = self.queues.get_mut(&tenant).expect("tenant key exists");
        let item = queue.pop_front().expect("tenant queues are never empty");
        if queue.is_empty() {
            self.queues.remove(&tenant);
        }
        self.len -= 1;
        self.last = Some(tenant.clone());
        Some((tenant, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_serves_tenants_round_robin_in_lex_order() {
        let mut q = FairQueue::new();
        // Tenant "a" floods; "b" and "c" each submit one.
        for i in 0..4 {
            q.push("a", format!("a{i}"));
        }
        q.push("c", "c0".to_string());
        q.push("b", "b0".to_string());
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).map(|(_, it)| it).collect();
        assert_eq!(order, ["a0", "b0", "c0", "a1", "a2", "a3"]);
        assert!(q.is_empty());
    }

    #[test]
    fn rotation_wraps_and_stays_fifo_within_a_tenant() {
        let mut q = FairQueue::new();
        q.push("b", 1);
        q.push("a", 2);
        assert_eq!(q.pop(), Some(("a".to_string(), 2)));
        // New arrivals interleave deterministically with the rotation.
        q.push("a", 3);
        assert_eq!(q.pop(), Some(("b".to_string(), 1)));
        assert_eq!(q.pop(), Some(("a".to_string(), 3)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn dispatch_order_is_a_pure_function_of_arrivals() {
        let drive = || {
            let mut q = FairQueue::new();
            q.push("team-b", 10);
            q.push("team-a", 20);
            q.push("team-b", 30);
            q.push("team-c", 40);
            let mut order = vec![];
            while let Some((t, i)) = q.pop() {
                order.push((t, i));
            }
            order
        };
        assert_eq!(drive(), drive());
    }
}
