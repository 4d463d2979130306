//! Per-thread pooling of retired SCX-records.
//!
//! Every SCX allocates one SCX-record, and before this module every
//! record whose reference count drained to zero was routed through its
//! own `guard.defer_unchecked` closure — one heap-allocated closure and
//! one reclamation-queue entry *per SCX*. Under SCX-heavy workloads that
//! defer traffic dominates the cost of the primitive itself (the
//! `primitives/scx` bench cliff recorded in CHANGES.md).
//!
//! The pool batches the two epoch-deferred stages of the `reclaim`
//! protocol and recycles the blocks:
//!
//! 1. **dependency stage** — when a record's install count
//!    (`cas_refs`) hits zero it is pushed onto this thread's dependency
//!    list; every [`LIMBO_BATCH`] records, *one* `defer_unchecked`
//!    publishes the batch. When the epoch expires — i.e. when every
//!    helper that could still execute one of the record's freezing CASes
//!    has unpinned — [`crate::reclaim::mature_deps`] releases the
//!    record's holds on its `info_fields` predecessors.
//! 2. **destruction stage** — when a record's total count (`refs`) hits
//!    zero with dependencies released, it is pushed onto this thread's
//!    retirement list, batched the same way. When that epoch expires the
//!    record is dropped in place and its raw block cached on the
//!    collecting thread's free list (or returned to the allocator past
//!    the cap). [`alloc`] pops from the free list and `ptr::write`s a
//!    fresh record into the block, skipping the allocator entirely.
//!
//! The epoch delays are **not** optional: reusing a record's address
//! while any stale holder could still dereference or CAS-compare it
//! would reintroduce the ABA on SCX-record addresses that the paper's
//! garbage-collection assumption rules out (see `reclaim` for the two
//! reachability paths). Debug builds back this with a generation stamp
//! checked in `Domain::llx`.
//!
//! Why pooling is sound across domains: `ScxRecord<M, I>` stores only
//! words and pointers (never an `I` by value), so every instantiation
//! has the same size and alignment. The pool stores untyped blocks and
//! each entry carries a monomorphized shim, so a block retired by one
//! domain can be reused by any other.
//!
//! Thread exit with partially filled batches parks the leftovers in a
//! global orphan list; the next batch seal or
//! [`crate::flush_reclamation`] adopts them with its caller's guard.
//! This keeps the debug-build live-record ledger exact: every allocated
//! record is eventually dropped exactly once, pool or no pool.
//!
//! # Cross-thread shard handoff
//!
//! Free lists are per-thread, but maturation runs on whichever thread
//! collects — so in pipeline-shaped workloads (one thread retires,
//! another allocates) the collecting thread's free list fills to its
//! cap while the allocating thread misses and falls back to the
//! allocator. The handoff path closes that gap without sharing the
//! free lists themselves:
//!
//! * when a thread's free list is at capacity, a matured block goes
//!   into the thread's bounded **outbox** instead of the allocator;
//!   a full outbox is published wholesale as one *shard* into the
//!   parked-shard bucket of the thread's **affinity domain** (set with
//!   [`crate::with_pool_affinity`]; unaffined threads share one extra
//!   bucket). Each bucket is bounded — beyond [`MAX_PARKED_SHARDS`]
//!   the shard's blocks are genuinely freed;
//! * an allocating thread that misses its free list **steals a whole
//!   shard** — its own affinity bucket first, then a scan of the
//!   others — before touching the allocator: one lock acquisition
//!   amortized over a shard's worth of future allocations, counted
//!   through `POOL_HANDOFFS` and served as pool hits. Under a
//!   range-partitioned facade the affinity index is the facade's shard
//!   index, so freed blocks circulate within the shard that retired
//!   them instead of round-robining through one global stack.
//!
//! Blocks only enter the outbox *after* their destruction epoch
//! expired (they are plain dead memory), so handing them to any other
//! thread is trivially sound.
//!
//! Set `LLX_SCX_POOL=0` to disable pooling and fall back to
//! per-record defers (used for A/B benchmarking), `LLX_SCX_POOL_CAP`
//! to change the per-thread free-list capacity, and `LLX_SCX_SHARD` to
//! change the blocks per handoff shard.
//!
//! Every deferred batch matures on whichever thread's pin or flush
//! collects it, inline; its re-staging lands in that thread's lists,
//! which that thread seals at its next batch or at exit, or
//! [`crate::flush_reclamation`] seals from the calling thread.

use crate::sync::{AtomicU64, Mutex, Ordering};
use std::alloc::Layout;
use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

use crossbeam_epoch::Guard;

use crate::reclaim;
use crate::scx_record::ScxRecord;

/// Number of records that trigger one batched defer, per stage.
const LIMBO_BATCH: usize = 32;

/// Maximum blocks cached per thread; beyond this, matured blocks are
/// routed to the handoff outbox (or the allocator). `LLX_SCX_POOL_CAP`
/// overrides.
fn free_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("LLX_SCX_POOL_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256)
    })
}

/// Blocks per handoff shard (the outbox publishes wholesale at this
/// size). `LLX_SCX_SHARD` overrides.
fn shard_blocks() -> usize {
    static SHARD: OnceLock<usize> = OnceLock::new();
    *SHARD.get_or_init(|| {
        std::env::var("LLX_SCX_SHARD")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16usize)
            .max(1)
    })
}

/// Upper bound on parked shards; beyond it, overflow blocks go back to
/// the allocator so the handoff cannot hoard memory unboundedly.
const MAX_PARKED_SHARDS: usize = 64;

/// A published outbox: dead, layout-uniform blocks ready for adoption
/// by any thread. The raw pointers are owned uniquely by the shard.
struct Shard(Vec<*mut u8>);
unsafe impl Send for Shard {}

/// Number of pool-affinity domains: threads driving shard `i` of a
/// partitioned facade declare affinity `i % AFFINITY_DOMAINS`, so
/// parked shards and the per-domain stats index by a small fixed range
/// regardless of the facade's shard count.
pub(crate) const AFFINITY_DOMAINS: usize = 16;

thread_local! {
    /// This thread's declared pool-affinity domain; `None` (the
    /// default) parks into and steals from the shared unaffined bucket
    /// first.
    static AFFINITY: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Set the calling thread's pool-affinity domain, returning the
/// previous value (for scoped restore). `domain` must be
/// `< AFFINITY_DOMAINS`.
pub(crate) fn set_affinity(domain: Option<usize>) -> Option<usize> {
    debug_assert!(domain.is_none_or(|d| d < AFFINITY_DOMAINS));
    AFFINITY.try_with(|a| a.replace(domain)).unwrap_or(None)
}

fn current_affinity() -> Option<usize> {
    AFFINITY.try_with(|a| a.get()).unwrap_or(None)
}

/// Parked shards awaiting a stealing allocator thread, bucketed by the
/// parking thread's affinity domain (the last bucket holds unaffined
/// threads' shards). An allocating thread that misses its free list
/// checks its own bucket first, so under a partitioned facade the
/// blocks a shard's retire-heavy thread publishes flow back to that
/// same shard's allocate-heavy threads instead of round-robining
/// through one global stack.
fn shard_buckets() -> &'static [Mutex<Vec<Shard>>] {
    static BUCKETS: OnceLock<Vec<Mutex<Vec<Shard>>>> = OnceLock::new();
    BUCKETS.get_or_init(|| {
        (0..=AFFINITY_DOMAINS)
            .map(|_| Mutex::new(Vec::new()))
            .collect()
    })
}

/// The bucket the calling thread parks into (and steals from first).
fn home_bucket() -> usize {
    current_affinity().unwrap_or(AFFINITY_DOMAINS)
}

/// Route one matured block that overflowed its thread's free list
/// into the outbox, publishing a full outbox as a shard.
///
/// # Safety
///
/// `p` must be a dead block of [`pool_layout`] owned by the caller.
unsafe fn overflow(p: *mut u8) {
    let sealed = POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        pool.outbox.push(p);
        if pool.outbox.len() >= shard_blocks() {
            Some(std::mem::take(&mut pool.outbox))
        } else {
            None
        }
    });
    match sealed {
        Ok(None) => {}
        Ok(Some(blocks)) => park_shard(Shard(blocks)),
        // Thread-local already destroyed: no outbox to buffer in.
        Err(_) => std::alloc::dealloc(p, pool_layout()),
    }
}

/// Park a sealed shard for stealing in the calling thread's affinity
/// bucket; free its blocks if that bucket is full (the per-bucket
/// bound that keeps handoff memory finite).
fn park_shard(shard: Shard) {
    let spill = {
        let mut parked = shard_buckets()[home_bucket()].lock().unwrap();
        if parked.len() < MAX_PARKED_SHARDS {
            parked.push(shard);
            None
        } else {
            Some(shard)
        }
    };
    if let Some(Shard(blocks)) = spill {
        for p in blocks {
            // SAFETY: shard blocks are dead and pool_layout-sized.
            unsafe { std::alloc::dealloc(p, pool_layout()) };
        }
    }
}

/// Pop one parked shard: the calling thread's own affinity bucket
/// first (shard-local handoff under a partitioned facade), then a scan
/// of every other bucket so no parked block is ever stranded.
fn pop_parked() -> Option<Shard> {
    let buckets = shard_buckets();
    let home = home_bucket();
    if let Some(shard) = buckets[home].lock().unwrap().pop() {
        return Some(shard);
    }
    (0..buckets.len())
        .filter(|&b| b != home)
        .find_map(|b| buckets[b].lock().unwrap().pop())
}

/// Steal one parked shard for the current thread: returns a block to
/// serve the triggering allocation and caches the rest on the local
/// free list. Bumps `POOL_HANDOFFS` by the blocks adopted.
fn steal_shard() -> Option<*mut u8> {
    // Injected handoff failure: behave as if every affinity bucket were
    // empty, forcing the caller onto the allocator path. Parked shards
    // stay parked, so nothing leaks — a later (un-injected) steal or
    // the orphan drain still adopts them.
    if faultpoint::fire("scx.pool.steal_fail") {
        return None;
    }
    let Shard(mut blocks) = pop_parked()?;
    debug_assert!(!blocks.is_empty(), "parked shards are never empty");
    let total = blocks.len();
    let serve = blocks.pop()?;
    let mut carry = Some(blocks);
    let spill = POOL
        .try_with(|pool| {
            let mut blocks = carry.take().expect("carry set above");
            let mut pool = pool.borrow_mut();
            let room = free_cap().saturating_sub(pool.free.len());
            let spill = blocks.split_off(room.min(blocks.len()));
            pool.free.append(&mut blocks);
            spill
        })
        // Thread-local gone (teardown): nothing to cache into.
        .unwrap_or_else(|_| carry.take().unwrap_or_default());
    // Count only the blocks actually adopted (served + cached); spill
    // that goes straight back to the allocator is not a handoff.
    POOL_HANDOFFS.fetch_add((total - spill.len()) as u64, Ordering::Relaxed); // ord: pool stats counter; no sync role
    if let Some(d) = current_affinity() {
        domain_counters()[d]
            .handoffs
            .fetch_add((total - spill.len()) as u64, Ordering::Relaxed); // ord: pool stats counter; no sync role
    }
    for p in spill {
        // SAFETY: shard blocks are dead and pool_layout-sized.
        unsafe { std::alloc::dealloc(p, pool_layout()) };
    }
    Some(serve)
}

/// The one block layout shared by every `ScxRecord<M, I>` instantiation
/// (all fields are words or pointers; `I` never appears by value).
fn pool_layout() -> Layout {
    Layout::new::<ScxRecord<1, ()>>()
}

/// A record in one of the two epoch-deferred stages: the raw block plus
/// the monomorphized action for its true `ScxRecord<M, I>` type.
struct Pending {
    ptr: *mut u8,
    /// Dependency stage: `reclaim::mature_deps`. Destruction stage:
    /// drop in place. Must only run after the stage's epoch expired.
    /// Returns whether the block is now dead and reusable.
    act: unsafe fn(*mut u8, &Guard) -> bool,
}

// Pending blocks are plain memory plus a fn pointer; ownership moves
// with the struct (into deferred closures and the orphan list).
unsafe impl Send for Pending {}

unsafe fn dep_shim<const M: usize, I>(p: *mut u8, guard: &Guard) -> bool {
    reclaim::mature_deps(p as *const ScxRecord<M, I>, guard);
    false
}

unsafe fn drop_shim<const M: usize, I>(p: *mut u8, _guard: &Guard) -> bool {
    use crate::header::{RC_CLAIMED, RC_DEPS_RELEASED, RC_REFS_MASK};
    use crate::sync::Ordering::SeqCst;
    let rec = p as *mut ScxRecord<M, I>;
    let h = &(*rec).hdr;
    let mut cur = h.rc.load(SeqCst); // ord: SC packed-rc read; CAS below re-validates
    while cur & RC_REFS_MASK != 0 {
        // Between the claim (count == 0) and this maturation, a
        // straggler with a stale LLX handle captured this record in a
        // new SCX-record's `info_fields` (`acquire_hold` resurrects the
        // count). Un-claim in ONE RMW and hand destruction to the
        // hold's release: when the successor's dependency stage drives
        // the count to zero, its decrement-and-claim re-stages
        // destruction atomically (`release_common`). If that final
        // decrement lands between our load and our CAS, the CAS fails
        // — the releaser saw `claimed` still set and left disposal to
        // us — and the retry loop observes the settled zero below.
        debug_assert!(cur & RC_CLAIMED != 0, "staged record lost its claim");
        match h
            .rc
            // ord: SC packed-rc RMW; un-claim hands ownership to the releaser
            .compare_exchange_weak(cur, cur & !RC_CLAIMED, SeqCst, SeqCst)
        {
            Ok(_) => return false,
            Err(now) => cur = now,
        }
    }
    // Settled zero: whoever zeroed the count did so in an RMW that also
    // decided (and lost) the claim, so no thread touches this header
    // again — disposal cannot race a straggler's trailing access.
    debug_assert!(cur & RC_CLAIMED != 0 && cur & RC_DEPS_RELEASED != 0);
    if !poolable::<M, I>() {
        // Non-pooled block (pooling disabled, or a layout-divergent
        // instantiation that arrived via the stage() fallback): dispose
        // through `Box` so the allocator sees the true layout, and keep
        // it out of the free list so `LLX_SCX_POOL=0` measures the real
        // no-pool baseline.
        drop(Box::from_raw(rec));
        return false;
    }
    std::ptr::drop_in_place(rec);
    true
}

struct ThreadPool {
    free: Vec<*mut u8>,
    /// Overflow blocks awaiting publication as a handoff shard.
    outbox: Vec<*mut u8>,
    deps: Vec<Pending>,
    destroy: Vec<Pending>,
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Free blocks hold no record (already destroyed in place) and
        // are past their epoch: return them to the allocator directly.
        for &p in &self.free {
            // SAFETY: blocks in `free` were allocated with `pool_layout`.
            unsafe { std::alloc::dealloc(p, pool_layout()) };
        }
        // A partial outbox is still a perfectly good (short) shard:
        // publish it so surviving threads can adopt the blocks — the
        // exact pipeline case where the retiring thread exits first.
        let outbox = std::mem::take(&mut self.outbox);
        if !outbox.is_empty() {
            park_shard(Shard(outbox));
        }
        // Staged blocks may still be visible to pinned peers and this
        // thread can no longer pin (its epoch slot is being torn down):
        // park them for the next thread that seals a batch.
        let mut orphaned = std::mem::take(&mut self.deps);
        orphaned.append(&mut self.destroy);
        if !orphaned.is_empty() {
            orphans().lock().unwrap().append(&mut orphaned);
        }
    }
}

thread_local! {
    static POOL: RefCell<ThreadPool> = const {
        RefCell::new(ThreadPool {
            free: Vec::new(),
            outbox: Vec::new(),
            deps: Vec::new(),
            destroy: Vec::new(),
        })
    };
}

/// Records staged by threads that exited mid-batch; drained (with a
/// live guard) by the next seal or by [`crate::flush_reclamation`].
fn orphans() -> &'static Mutex<Vec<Pending>> {
    static ORPHANS: OnceLock<Mutex<Vec<Pending>>> = OnceLock::new();
    ORPHANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn pooling_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("LLX_SCX_POOL").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        )
    })
}

/// Monotone counters for observability (`llx_scx::pool_stats`).
pub(crate) static POOL_HITS: AtomicU64 = AtomicU64::new(0);
pub(crate) static POOL_MISSES: AtomicU64 = AtomicU64::new(0);
pub(crate) static POOL_DEFERS: AtomicU64 = AtomicU64::new(0);
/// Records/blocks moved across threads: orphan adoptions (records
/// staged by an exited thread, matured by another) plus blocks adopted
/// through the shard handoff (the hot path in pipeline-shaped
/// workloads — one thread retires, another allocates). Surfaced in
/// `StatsSnapshot` so the handoff rate is measurable per workload.
pub(crate) static POOL_HANDOFFS: AtomicU64 = AtomicU64::new(0);

/// Per-affinity-domain views of the same four counters. Only threads
/// that declared an affinity (`llx_scx::with_pool_affinity`) bump
/// these — the unaffined default path pays one thread-local read and
/// nothing else — so a partitioned facade can attribute pool traffic
/// to the shard that caused it instead of reading one process-global
/// blend.
struct DomainCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    defers: AtomicU64,
    handoffs: AtomicU64,
}

fn domain_counters() -> &'static [DomainCounters] {
    static COUNTERS: OnceLock<Vec<DomainCounters>> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        (0..AFFINITY_DOMAINS)
            .map(|_| DomainCounters {
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                defers: AtomicU64::new(0),
                handoffs: AtomicU64::new(0),
            })
            .collect()
    })
}

/// Bump one per-domain counter iff the calling thread has an affinity.
fn bump_domain(pick: fn(&DomainCounters) -> &AtomicU64) {
    if let Some(d) = current_affinity() {
        pick(&domain_counters()[d]).fetch_add(1, Ordering::Relaxed); // ord: pool stats counter; no sync role
    }
}

/// `[hits, misses, defers, handoffs]` attributed to one affinity
/// domain (affined threads only; the process-global counters include
/// unaffined traffic too).
pub(crate) fn domain_snapshot(domain: usize) -> [u64; 4] {
    let c = &domain_counters()[domain];
    [
        c.hits.load(Ordering::Relaxed), // ord: stats counter snapshot; no sync role
        c.misses.load(Ordering::Relaxed), // ord: stats counter snapshot; no sync role
        c.defers.load(Ordering::Relaxed), // ord: stats counter snapshot; no sync role
        c.handoffs.load(Ordering::Relaxed), // ord: stats counter snapshot; no sync role
    ]
}

/// Zero every per-domain counter (companion of
/// [`crate::reset_pool_stats`]).
pub(crate) fn reset_domain_counters() {
    for c in domain_counters() {
        c.hits.store(0, Ordering::Relaxed); // ord: stats counter reset; no sync role
        c.misses.store(0, Ordering::Relaxed); // ord: stats counter reset; no sync role
        c.defers.store(0, Ordering::Relaxed); // ord: stats counter reset; no sync role
        c.handoffs.store(0, Ordering::Relaxed); // ord: stats counter reset; no sync role
    }
}

fn poolable<const M: usize, I>() -> bool {
    pooling_enabled() && Layout::new::<ScxRecord<M, I>>() == pool_layout()
}

/// Allocate a block for `record` — from the thread's free list when
/// possible, from the global allocator otherwise — and move `record`
/// into it.
pub(crate) fn alloc<const M: usize, I>(record: ScxRecord<M, I>) -> *mut ScxRecord<M, I> {
    debug_assert_eq!(
        Layout::new::<ScxRecord<M, I>>(),
        pool_layout(),
        "ScxRecord layout must be instantiation-independent for pooling"
    );
    if poolable::<M, I>() {
        // Injected allocation miss: skip reuse entirely and pay the
        // global allocator, exactly the path a cold/contended pool
        // takes. Free-list blocks are untouched — only this
        // allocation's routing changes, so no conservation law moves.
        let injected_miss = faultpoint::fire("scx.pool.alloc_miss");
        let reused = if injected_miss {
            None
        } else {
            POOL.try_with(|pool| pool.borrow_mut().free.pop())
                .ok()
                .flatten()
                // Local miss: adopt a whole parked shard (one lock, a
                // shard's worth of future hits) before paying the
                // allocator.
                .or_else(steal_shard)
        };
        if let Some(block) = reused {
            POOL_HITS.fetch_add(1, Ordering::Relaxed); // ord: pool stats counter; no sync role
            bump_domain(|c| &c.hits);
            let p = block as *mut ScxRecord<M, I>;
            // SAFETY: the block is unaliased (popped from the free list
            // or adopted from a parked shard, past its retirement
            // epoch) and has the right layout.
            unsafe { std::ptr::write(p, record) };
            return p;
        }
        POOL_MISSES.fetch_add(1, Ordering::Relaxed); // ord: pool stats counter; no sync role
        bump_domain(|c| &c.misses);
    }
    Box::into_raw(Box::new(record))
}

/// Stage a pending entry on one of the thread's lists; seal a batch
/// when full. Falls back to one defer per record if the thread-local is
/// gone (teardown) or pooling is disabled.
fn stage<const M: usize, I>(
    entry: Pending,
    pick: fn(&mut ThreadPool) -> &mut Vec<Pending>,
    guard: &Guard,
) {
    if !poolable::<M, I>() {
        defer_batch(vec![entry], guard);
        return;
    }
    let mut slot = Some(entry);
    let sealed = POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let list = pick(&mut pool);
        list.push(slot.take().expect("entry staged at most once"));
        if list.len() >= LIMBO_BATCH {
            Some(std::mem::take(list))
        } else {
            None
        }
    });
    match sealed {
        Ok(None) => {}
        Ok(Some(batch)) => {
            defer_batch(batch, guard);
            drain_orphans(guard);
        }
        // Thread-local already destroyed (staging during teardown of
        // another TLS destructor): defer the entry individually.
        Err(_) => {
            if let Some(entry) = slot.take() {
                defer_batch(vec![entry], guard);
            }
        }
    }
}

/// Schedule stage 1 for `rec` (install count hit zero): one epoch from
/// now, release its holds on its `info_fields` predecessors.
///
/// # Safety
///
/// `rec` must be a live `ScxRecord<M, I>` whose dependency stage is
/// scheduled exactly once (guarded by `deps_scheduled`); the caller
/// must hold the pinned `guard`.
pub(crate) unsafe fn schedule_dep_release<const M: usize, I>(
    rec: *mut ScxRecord<M, I>,
    guard: &Guard,
) {
    stage::<M, I>(
        Pending {
            ptr: rec as *mut u8,
            act: dep_shim::<M, I>,
        },
        |p| &mut p.deps,
        guard,
    );
}

/// Schedule stage 2 for `rec` (all references gone, dependencies
/// released): one epoch from now, drop it and recycle its block.
///
/// # Safety
///
/// `rec` must be produced by [`alloc`], claimed exactly once (guarded
/// by `claimed`), and the caller must hold the pinned `guard`.
pub(crate) unsafe fn retire<const M: usize, I>(rec: *mut ScxRecord<M, I>, guard: &Guard) {
    // Bug gate: destroy and recycle the block *immediately*, bypassing
    // the epoch stage, so a stalled helper's stale SCX-record address
    // can be reused under it — together with the skipped `info_fields`
    // holds this is the PR-2 recycling ABA the model checker must find.
    #[cfg(llx_model_bugs)]
    {
        let p = rec as *mut u8;
        if drop_shim::<M, I>(p, guard) {
            let cached = POOL
                .try_with(|pool| {
                    let mut pool = pool.borrow_mut();
                    if pool.free.len() < free_cap() {
                        pool.free.push(p);
                        true
                    } else {
                        false
                    }
                })
                .unwrap_or(false);
            if !cached {
                overflow(p);
            }
        }
    }
    #[cfg(not(llx_model_bugs))]
    stage::<M, I>(
        Pending {
            ptr: rec as *mut u8,
            act: drop_shim::<M, I>,
        },
        |p| &mut p.destroy,
        guard,
    );
}

/// Publish one batch; after the epoch expires, run each entry's action
/// and recycle destruction-stage blocks.
fn defer_batch(batch: Vec<Pending>, guard: &Guard) {
    POOL_DEFERS.fetch_add(1, Ordering::Relaxed); // ord: pool stats counter; no sync role
    bump_domain(|c| &c.defers);
    // SAFETY: each staged record passed its stage's zero-crossing; by
    // the time the closure runs, no thread pinned at defer time remains
    // pinned, so no stale holder — via `r.info` or a newer record's
    // `info_fields` — can still act on these addresses.
    unsafe {
        guard.defer_unchecked(move || {
            let g = crossbeam_epoch::pin();
            for entry in batch {
                if !(entry.act)(entry.ptr, &g) {
                    continue;
                }
                let cached = POOL
                    .try_with(|pool| {
                        let mut pool = pool.borrow_mut();
                        if pool.free.len() < free_cap() {
                            pool.free.push(entry.ptr);
                            true
                        } else {
                            false
                        }
                    })
                    .unwrap_or(false);
                if !cached {
                    // Free list full: offer the block to other threads
                    // through the handoff outbox instead of freeing it.
                    overflow(entry.ptr);
                }
            }
        });
    }
}

/// Seal the current thread's partial batches (if any) with `guard`.
pub(crate) fn seal_current_thread(guard: &Guard) {
    let batches = POOL
        .try_with(|pool| {
            let mut pool = pool.borrow_mut();
            (
                std::mem::take(&mut pool.deps),
                std::mem::take(&mut pool.destroy),
            )
        })
        .unwrap_or_default();
    for batch in [batches.0, batches.1] {
        if !batch.is_empty() {
            defer_batch(batch, guard);
        }
    }
}

/// Defer every parked orphan (records stranded by exited threads).
pub(crate) fn drain_orphans(guard: &Guard) {
    let parked = std::mem::take(&mut *orphans().lock().unwrap());
    if !parked.is_empty() {
        POOL_HANDOFFS.fetch_add(parked.len() as u64, Ordering::Relaxed); // ord: pool stats counter; no sync role
        if let Some(d) = current_affinity() {
            domain_counters()[d]
                .handoffs
                .fetch_add(parked.len() as u64, Ordering::Relaxed); // ord: pool stats counter; no sync role
        }
        defer_batch(parked, guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_instantiations_share_one_layout() {
        // The pooling scheme hands blocks between arbitrary domains; the
        // record layout must not depend on the generic parameters.
        assert_eq!(Layout::new::<ScxRecord<1, ()>>(), pool_layout());
        assert_eq!(Layout::new::<ScxRecord<2, u64>>(), pool_layout());
        assert_eq!(Layout::new::<ScxRecord<8, String>>(), pool_layout());
        assert_eq!(
            Layout::new::<ScxRecord<2, multiset_like::Payload>>(),
            pool_layout()
        );
    }

    mod multiset_like {
        /// Stand-in for a fat immutable payload like the multiset's.
        pub struct Payload(#[allow(dead_code)] pub [u64; 4]);
    }
}
