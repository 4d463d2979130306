//! Hand-over-hand (lock-coupling) linked-list multiset.
//!
//! Fine-grained locking on the same sorted-list topology as the paper's
//! multiset: a traversal holds at most two node locks at a time,
//! acquiring the successor's lock before releasing the predecessor's.
//! Deadlock-free because locks are always acquired in list (key) order.

use std::fmt;
use std::sync::Arc;

use parking_lot::{ArcMutexGuard, Mutex, RawMutex};

struct HohNode<K> {
    key: Option<K>, // None = head sentinel
    count: u64,
    next: Option<Arc<Mutex<HohNode<K>>>>,
}

type NodeGuard<K> = ArcMutexGuard<RawMutex, HohNode<K>>;

/// A multiset on a sorted singly-linked list with per-node locks
/// acquired hand-over-hand.
pub struct HandOverHandMultiset<K> {
    head: Arc<Mutex<HohNode<K>>>,
}

impl<K: Ord + Copy> Default for HandOverHandMultiset<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> HandOverHandMultiset<K> {
    /// An empty multiset.
    pub fn new() -> Self {
        HandOverHandMultiset {
            head: Arc::new(Mutex::new(HohNode {
                key: None,
                count: 0,
                next: None,
            })),
        }
    }

    /// Lock-couple to the node pair `(prev, next)` where `prev.key <
    /// key` and either `next` is the first node with `next.key >= key`
    /// or there is no such node.
    fn locate(&self, key: K) -> (NodeGuard<K>, Option<NodeGuard<K>>) {
        let mut prev: NodeGuard<K> = Mutex::lock_arc(&self.head);
        loop {
            let Some(next_arc) = prev.next.clone() else {
                return (prev, None);
            };
            let next: NodeGuard<K> = Mutex::lock_arc(&next_arc);
            match next.key {
                Some(k) if k < key => {
                    // Hand over hand: release prev only after acquiring
                    // next.
                    prev = next;
                }
                _ => return (prev, Some(next)),
            }
        }
    }

    /// Number of occurrences of `key`.
    pub fn get(&self, key: K) -> u64 {
        let (_prev, next) = self.locate(key);
        match next {
            Some(n) if n.key == Some(key) => n.count,
            _ => 0,
        }
    }

    /// Add `count` occurrences of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn insert(&self, key: K, count: u64) {
        assert!(count > 0, "Insert precondition: count > 0");
        let (mut prev, next) = self.locate(key);
        if let Some(mut n) = next {
            if n.key == Some(key) {
                n.count += count;
                return;
            }
            drop(n);
        }
        let successor = prev.next.clone();
        prev.next = Some(Arc::new(Mutex::new(HohNode {
            key: Some(key),
            count,
            next: successor,
        })));
    }

    /// Remove `count` occurrences of `key` if present; returns success.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn remove(&self, key: K, count: u64) -> bool {
        assert!(count > 0, "Delete precondition: count > 0");
        let (mut prev, next) = self.locate(key);
        let Some(mut n) = next else {
            return false;
        };
        if n.key != Some(key) {
            return false;
        }
        if n.count > count {
            n.count -= count;
            true
        } else if n.count == count {
            prev.next = n.next.take();
            true
        } else {
            false
        }
    }

    /// One scan window: hand-over-hand to the predecessor of `from`
    /// (holding at most two locks), then *crab* — keep every lock —
    /// over up to `max_keys` in-range nodes plus the window's
    /// terminator, emitting each `(key, count)` pair, ascending, while
    /// its lock is held. Returns `(covered_hi, end)`: `covered_hi` is
    /// `hi` when the range is exhausted (`end`), else the last emitted
    /// key. `emit` runs under the window's locks, so it must not call
    /// back into this multiset.
    ///
    /// Lock-coupling alone cannot give a linearizable range scan (an
    /// insert behind the cursor plus one ahead of it would be observed
    /// inconsistently), hence the crabbing: with all of the window's
    /// locks held the window is frozen; its linearization point is the
    /// moment the last lock is acquired, and no emitted pair can change
    /// before then. The locks are released when the window returns.
    /// Between windows the scan holds **no** locks, so writers
    /// interleave freely at window boundaries — the bounded lock span
    /// is the lock-based analogue of the optimistic structures'
    /// bounded validation window, and `max_keys = usize::MAX` is the
    /// whole-range atomic scan. Never conflicts; deadlock-free because
    /// all operations acquire locks in key order.
    ///
    /// # Panics
    ///
    /// Panics if `max_keys == 0`.
    pub fn scan_window(
        &self,
        from: K,
        hi: K,
        max_keys: usize,
        mut emit: impl FnMut(K, u64),
    ) -> (K, bool) {
        assert!(max_keys > 0, "a scan window covers at least one key");
        // Phase 1: hand-over-hand to the predecessor of `from`, holding
        // at most two locks.
        let mut prev: NodeGuard<K> = Mutex::lock_arc(&self.head);
        loop {
            let Some(next_arc) = prev.next.clone() else {
                return (hi, true); // every key is below `from`
            };
            let next: NodeGuard<K> = Mutex::lock_arc(&next_arc);
            match next.key {
                Some(k) if k < from => prev = next, // release previous
                _ => {
                    // Phase 2: crab over the window, keeping all locks.
                    let mut held: Vec<NodeGuard<K>> = vec![prev, next];
                    let mut emitted = 0usize;
                    loop {
                        let last = held.last().expect("non-empty");
                        match last.key {
                            Some(k) if k <= hi => {
                                emit(k, last.count);
                                emitted += 1;
                                if emitted >= max_keys {
                                    return (k, false);
                                }
                            }
                            _ => return (hi, true), // first node beyond the range
                        }
                        let Some(next_arc) = last.next.clone() else {
                            return (hi, true); // range runs to the end of the list
                        };
                        let g = Mutex::lock_arc(&next_arc);
                        held.push(g);
                    }
                }
            }
        }
    }

    /// Collect `(key, count)` pairs in ascending key order.
    pub fn to_vec(&self) -> Vec<(K, u64)> {
        let mut out = Vec::new();
        let mut cur: NodeGuard<K> = Mutex::lock_arc(&self.head);
        loop {
            let Some(next_arc) = cur.next.clone() else {
                return out;
            };
            let next: NodeGuard<K> = Mutex::lock_arc(&next_arc);
            if let Some(k) = next.key {
                out.push((k, next.count));
            }
            cur = next;
        }
    }

    /// Total occurrences across all keys.
    pub fn len(&self) -> u64 {
        self.to_vec().iter().map(|&(_, c)| c).sum()
    }

    /// True if the multiset holds no keys.
    pub fn is_empty(&self) -> bool {
        self.head.lock().next.is_none()
    }
}

impl<K: Ord + Copy + fmt::Debug> fmt::Debug for HandOverHandMultiset<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.to_vec()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn hoh_basics() {
        let s = HandOverHandMultiset::new();
        assert!(s.is_empty());
        s.insert(5, 1);
        s.insert(3, 2);
        s.insert(7, 1);
        s.insert(5, 1);
        assert_eq!(s.to_vec(), vec![(3, 2), (5, 2), (7, 1)]);
        assert_eq!(s.get(5), 2);
        assert_eq!(s.get(4), 0);
        assert!(s.remove(5, 2));
        assert_eq!(s.get(5), 0);
        assert!(!s.remove(5, 1));
        assert!(s.remove(3, 1));
        assert_eq!(s.to_vec(), vec![(3, 1), (7, 1)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn hoh_insert_at_both_ends() {
        let s = HandOverHandMultiset::new();
        s.insert(10, 1);
        s.insert(1, 1); // before
        s.insert(20, 1); // after
        assert_eq!(s.to_vec(), vec![(1, 1), (10, 1), (20, 1)]);
        assert!(s.remove(1, 1));
        assert!(s.remove(20, 1));
        assert_eq!(s.to_vec(), vec![(10, 1)]);
    }

    #[test]
    fn hoh_concurrent_ledger() {
        let s = Arc::new(HandOverHandMultiset::new());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut rng = (t + 1).wrapping_mul(0x2545F4914F6CDD1D);
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
