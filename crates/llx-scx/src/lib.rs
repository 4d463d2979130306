//! LLX, SCX and VLX: pragmatic primitives for non-blocking data structures.
//!
//! This crate is a from-scratch Rust implementation of the primitives
//! introduced by Brown, Ellen and Ruppert in *"Pragmatic Primitives for
//! Non-blocking Data Structures"* (PODC 2013). The primitives generalize
//! load-link / store-conditional to multi-field *Data-records*:
//!
//! * [`Domain::llx`] takes an atomic snapshot of one record's mutable
//!   fields (or reports that the record is [`finalized`](LlxResult::Finalized)).
//! * [`Domain::scx`] atomically verifies that a set of records is
//!   unchanged since the caller's *linked* LLXs, writes one word into one
//!   mutable field, and *finalizes* a subset of the records so they can
//!   never change again.
//! * [`Domain::vlx`] validates that a set of records is unchanged, using
//!   only `|V|` reads.
//!
//! The implementation follows the paper's Figure 4 pseudocode line by
//! line (each algorithm step named by the proofs — freezing CAS, frozen
//! step, mark step, update CAS, commit/abort step — is an identifiable
//! site in [`ops`]). The paper assumes a safe garbage collector; here
//! that substrate is provided by `crossbeam-epoch` plus a reference count
//! on SCX-records (see the `reclaim` module's source for the protocol).
//!
//! # Example
//!
//! Build a two-node chain and atomically swing a pointer while
//! finalizing the removed node:
//!
//! ```
//! use llx_scx::{Domain, LlxResult, ScxRequest, FieldId};
//!
//! // Records with 1 mutable field (a pointer) and a `&str` immutable payload.
//! let domain: Domain<1, &str> = Domain::new();
//! let guard = llx_scx::pin();
//!
//! let b = domain.alloc("b", [llx_scx::NULL]);
//! let a = domain.alloc("a", [llx_scx::pack_ptr(b)]);
//! let a_ref = unsafe { &*a };
//!
//! // Snapshot `a`, then atomically clear its pointer.
//! let snap = match domain.llx(a_ref, &guard) {
//!     LlxResult::Snapshot(s) => s,
//!     _ => unreachable!("no contention in this example"),
//! };
//! assert_eq!(snap.value(0), llx_scx::pack_ptr(b));
//!
//! let ok = domain.scx(
//!     ScxRequest::new(&[snap], FieldId::new(0, 0), 777).finalize_none(),
//!     &guard,
//! );
//! assert!(ok);
//! assert_eq!(a_ref.read(0), 777);
//!
//! // Single-threaded teardown: reclaim both records immediately.
//! unsafe {
//!     domain.retire(a, &guard);
//!     domain.retire(b, &guard);
//! }
//! ```
//!
//! # Usage contract (paper §4.1)
//!
//! The implementation is correct only when two constraints hold; both are
//! the data structure designer's responsibility and are documented on
//! [`Domain::scx`]:
//!
//! 1. **No ABA on mutable fields**: an SCX must not store a value that
//!    the target field held before the linked LLX. Storing pointers to
//!    freshly allocated records (as all data structures in this
//!    repository do) satisfies this for free.
//! 2. **Consistent freezing order**: once the structure stops changing,
//!    the `V` sequences of subsequent SCXs must be consistent with a
//!    total order on records (e.g. traversal order in a list or tree).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// With the bug gates active the dependency-stage machinery is compiled
// out wholesale; the fallout is dead code, not an error.
#![cfg_attr(llx_model_bugs, allow(dead_code))]

mod field;
mod handle;
mod header;
mod inline_vec;
pub mod ops;
mod pool;
mod reclaim;
mod record;
mod scx_record;
pub mod stats;
pub(crate) mod sync;
mod tx;

pub use field::{pack_ptr, unpack_ptr, NULL};
pub use handle::{FieldId, Llx, LlxResult, ScxRequest};
pub use header::ScxState;
pub use ops::Domain;
pub use record::DataRecord;
pub use scx_record::live_scx_records;
pub use stats::StatsSnapshot;
pub use tx::{Commit, Tx};

/// Re-export of [`crossbeam_epoch::Guard`]; all traversals and operations
/// happen under a pinned guard.
pub type Guard = crossbeam_epoch::Guard;

/// Pin the current thread's epoch. Convenience re-export of
/// [`crossbeam_epoch::pin`].
///
/// Every call to [`Domain::llx`], [`Domain::scx`], [`Domain::vlx`] and
/// every traversal of record pointers must happen while a guard returned
/// from this function is alive.
pub fn pin() -> Guard {
    crossbeam_epoch::pin()
}

/// Counters of the per-thread SCX-record pool (process-global, monotone).
///
/// `hits` / `misses` count pool allocations that did / did not reuse a
/// recycled block; `defers` counts `defer_unchecked` calls issued for
/// SCX-record reclamation — with pooling enabled this is roughly one per
/// 32 retired records instead of one per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served without the global allocator: from the
    /// thread's free list, or from a shard adopted through the
    /// cross-thread handoff.
    pub hits: u64,
    /// Allocations that fell through to the global allocator.
    pub misses: u64,
    /// Epoch-deferred closures issued (batched or fallback).
    pub defers: u64,
    /// Records/blocks handed across threads: orphan adoptions at
    /// thread exit plus hot-path shard steals (free blocks published
    /// by a retire-heavy thread and adopted by an allocate-heavy one —
    /// the pipeline-workload case).
    pub handoffs: u64,
}

impl PoolStats {
    /// The counter movement since `self` was taken: current counters
    /// minus this snapshot, saturating at zero if [`reset_pool_stats`]
    /// intervened.
    ///
    /// The counters are process-global, so a raw snapshot mixes every
    /// workload the process ever ran; deltas are how one phase is
    /// A/B-compared against another (say, two structures, or two
    /// mixes) without a process restart:
    ///
    /// ```
    /// let before = llx_scx::pool_stats();
    /// // … run one workload phase …
    /// let phase = before.snapshot_delta();
    /// let allocs = phase.hits + phase.misses;
    /// # assert_eq!(allocs, 0);
    /// ```
    pub fn snapshot_delta(&self) -> PoolStats {
        pool_stats().delta_since(self)
    }

    /// The counter movement from `earlier` to `self` (two snapshots of
    /// the same counter set — global or the same domain's), saturating
    /// at zero if [`reset_pool_stats`] intervened. This is
    /// [`snapshot_delta`](PoolStats::snapshot_delta) generalized to
    /// per-domain snapshots ([`pool_domain_stats`]), which must not be
    /// diffed against the global counters.
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            defers: self.defers.saturating_sub(earlier.defers),
            handoffs: self.handoffs.saturating_sub(earlier.handoffs),
        }
    }

    /// Pool hit rate of this snapshot (or delta): hits over
    /// allocations, `None` when nothing was allocated.
    pub fn hit_rate(&self) -> Option<f64> {
        let allocs = self.hits + self.misses;
        (allocs > 0).then(|| self.hits as f64 / allocs as f64)
    }
}

/// A snapshot of the SCX-record pool counters; see [`PoolStats`].
pub fn pool_stats() -> PoolStats {
    use crate::sync::Ordering;
    PoolStats {
        hits: pool::POOL_HITS.load(Ordering::Relaxed), // ord: stats counter snapshot; no sync role
        misses: pool::POOL_MISSES.load(Ordering::Relaxed), // ord: stats counter snapshot; no sync role
        defers: pool::POOL_DEFERS.load(Ordering::Relaxed), // ord: stats counter snapshot; no sync role
        handoffs: pool::POOL_HANDOFFS.load(Ordering::Relaxed), // ord: stats counter snapshot; no sync role
    }
}

/// Number of pool-affinity domains (see [`with_pool_affinity`]). A
/// facade with more shards than this folds its shard index modulo
/// `POOL_AFFINITY_DOMAINS`.
pub const POOL_AFFINITY_DOMAINS: usize = pool::AFFINITY_DOMAINS;

/// Run `f` with the calling thread's pool affinity set to
/// `domain % POOL_AFFINITY_DOMAINS`, restoring the previous affinity on
/// the way out (panic-safe).
///
/// Affinity steers the SCX-record pool's cross-thread handoff: shards
/// published by an affined thread park in that domain's bucket, and an
/// affined allocator steals from its own bucket before scanning the
/// rest — so under a range-partitioned facade, blocks retired by one
/// shard's operations are preferentially recycled by that same shard.
/// It also attributes the pool counters to the domain, readable via
/// [`pool_domain_stats`]. Unaffined threads (the default) share one
/// extra bucket and only appear in the process-global [`pool_stats`].
pub fn with_pool_affinity<R>(domain: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            pool::set_affinity(self.0);
        }
    }
    let _restore = Restore(pool::set_affinity(Some(domain % POOL_AFFINITY_DOMAINS)));
    f()
}

/// The pool counters attributed to one affinity domain — traffic from
/// threads running under [`with_pool_affinity`]`(domain, …)` only.
/// The process-global [`pool_stats`] additionally includes unaffined
/// traffic, so per-domain numbers are a partition of (a subset of) the
/// global ones.
///
/// # Panics
///
/// Panics if `domain >= POOL_AFFINITY_DOMAINS`.
pub fn pool_domain_stats(domain: usize) -> PoolStats {
    let [hits, misses, defers, handoffs] = pool::domain_snapshot(domain);
    PoolStats {
        hits,
        misses,
        defers,
        handoffs,
    }
}

/// Zero the process-global pool counters. Prefer
/// [`PoolStats::snapshot_delta`] for phase comparisons — a reset
/// yanks the baseline out from under every other snapshot holder —
/// but a reset gives dedicated A/B harnesses clean absolute numbers.
pub fn reset_pool_stats() {
    use crate::sync::Ordering;
    pool::POOL_HITS.store(0, Ordering::Relaxed); // ord: stats counter reset; no sync role
    pool::POOL_MISSES.store(0, Ordering::Relaxed); // ord: stats counter reset; no sync role
    pool::POOL_DEFERS.store(0, Ordering::Relaxed); // ord: stats counter reset; no sync role
    pool::POOL_HANDOFFS.store(0, Ordering::Relaxed); // ord: stats counter reset; no sync role
    pool::reset_domain_counters();
}

/// Drive SCX-record reclamation to quiescence from the calling thread.
///
/// Seals this thread's partially filled retirement batch, adopts records
/// stranded by threads that exited mid-batch, and repeatedly flushes the
/// epoch queue so deferred destructions run. Deferred closures run
/// inline on whichever thread collects them, so the batches they
/// re-stage from this thread's flushes land in this thread's pool lists,
/// which the next round seals. After all operations have ceased, all
/// worker threads have joined and this has been called,
/// [`live_scx_records`] drains back to its baseline (debug builds).
///
/// Intended for tests and teardown paths; never required for safety.
pub fn flush_reclamation() {
    for _ in 0..16 {
        // Drain the global queue to empty (bounded: concurrent churn
        // can legitimately keep refilling it — quiescence is only
        // promised once workers have stopped). Each flush advances the
        // epoch, so re-deferred next-stage work from the closures we
        // just ran becomes ready on the following iteration.
        for _ in 0..64 {
            let guard = pin();
            pool::seal_current_thread(&guard);
            pool::drain_orphans(&guard);
            guard.flush();
            drop(guard);
            if crossbeam_epoch::queued_reclaims() == 0 {
                break;
            }
        }
    }
}
