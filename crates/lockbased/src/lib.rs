//! Lock-based multiset baselines for the throughput experiments.
//!
//! The paper motivates LLX/SCX by contrast with locks (§1: "locks are
//! not fault-tolerant and are susceptible to problems such as
//! deadlock"). The benchmark harness compares the LLX/SCX multiset
//! against two lock-based designs with the same sequential
//! specification (paper §5):
//!
//! * [`CoarseMultiset`] — one mutex around a `BTreeMap`; the strongest
//!   single-threaded baseline and the worst scaler.
//! * [`HandOverHandMultiset`] — a sorted singly-linked list with
//!   per-node locks acquired hand-over-hand; fine-grained locking on the
//!   same topology as the paper's list.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hoh;

pub use hoh::HandOverHandMultiset;

use std::collections::BTreeMap;
use std::fmt;

use parking_lot::Mutex;

/// A multiset behind a single mutex (sequential specification of paper
/// §5, coarse-grained locking).
pub struct CoarseMultiset<K> {
    inner: Mutex<BTreeMap<K, u64>>,
}

impl<K: Ord> Default for CoarseMultiset<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord> CoarseMultiset<K> {
    /// An empty multiset.
    pub fn new() -> Self {
        CoarseMultiset {
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    /// Number of occurrences of `key`.
    pub fn get(&self, key: K) -> u64 {
        self.inner.lock().get(&key).copied().unwrap_or(0)
    }

    /// Add `count` occurrences of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn insert(&self, key: K, count: u64) {
        assert!(count > 0, "Insert precondition: count > 0");
        *self.inner.lock().entry(key).or_insert(0) += count;
    }

    /// Remove `count` occurrences of `key` if present; returns success.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn remove(&self, key: K, count: u64) -> bool {
        assert!(count > 0, "Delete precondition: count > 0");
        let mut map = self.inner.lock();
        match map.get_mut(&key) {
            Some(c) if *c > count => {
                *c -= count;
                true
            }
            Some(c) if *c == count => {
                map.remove(&key);
                true
            }
            _ => false,
        }
    }

    /// Total occurrences across all keys.
    pub fn len(&self) -> u64 {
        self.inner.lock().values().sum()
    }

    /// True if the multiset holds no keys.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// One scan window: emit up to `max_keys` `(key, count)` pairs of
    /// `[from, hi]`, ascending, while holding the structure's single
    /// mutex (trivially consistent; never conflicts). Returns
    /// `(covered_hi, end)`: `covered_hi` is `hi` when the range is
    /// exhausted (`end`), else the last emitted key. `emit` runs under
    /// the lock, so it must not call back into this multiset.
    ///
    /// # Panics
    ///
    /// Panics if `max_keys == 0` or `from > hi`.
    pub fn scan_window(
        &self,
        from: K,
        hi: K,
        max_keys: usize,
        mut emit: impl FnMut(&K, u64),
    ) -> (K, bool)
    where
        K: Clone,
    {
        assert!(max_keys > 0, "a scan window covers at least one key");
        let map = self.inner.lock();
        let mut emitted = 0usize;
        for (k, &c) in map.range(from..=hi.clone()) {
            emit(k, c);
            emitted += 1;
            if emitted >= max_keys {
                return (k.clone(), false);
            }
        }
        (hi, true)
    }

    /// Collect `(key, count)` pairs in ascending key order.
    pub fn to_vec(&self) -> Vec<(K, u64)>
    where
        K: Clone,
    {
        self.inner
            .lock()
            .iter()
            .map(|(k, &c)| (k.clone(), c))
            .collect()
    }
}

impl<K: Ord + Clone + fmt::Debug> fmt::Debug for CoarseMultiset<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.to_vec()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_basics() {
        let s = CoarseMultiset::new();
        assert!(s.is_empty());
        s.insert(3, 2);
        s.insert(1, 1);
        assert_eq!(s.get(3), 2);
        assert!(s.remove(3, 1));
        assert!(!s.remove(3, 2));
        assert!(s.remove(3, 1));
        assert_eq!(s.to_vec(), vec![(1, 1)]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn coarse_concurrent_ledger() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let s = Arc::new(CoarseMultiset::new());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut rng = (t + 1).wrapping_mul(0x9E3779B97F4A7C15);
                let mut net = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    // ord: test stop flag; no data ordering
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let k = rng % 8;
                    if rng & 1 == 0 {
                        s.insert(k, 1);
                        net += 1;
                    } else if s.remove(k, 1) {
                        net -= 1;
                    }
                }
                net
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed); // ord: test stop flag; no data ordering
        let net: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(s.len() as i64, net);
    }
}
