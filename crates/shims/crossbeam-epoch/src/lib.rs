//! Offline stand-in for the `crossbeam-epoch` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! implements the subset of the `crossbeam-epoch` API the workspace uses
//! — [`Collector`], [`LocalHandle`], [`pin`], [`Guard`],
//! [`Guard::defer_unchecked`] and [`Guard::flush`] — backed by a real
//! (if simple) epoch reclamation scheme. Each collector owns:
//!
//! * an epoch counter;
//! * one registered slot per participating handle publishing the epoch
//!   it pinned at (or "inactive");
//! * per-handle *bags* of deferred closures, each tagged with the epoch
//!   at which it was deferred — the defer hot path touches only
//!   thread-local state, so the non-blocking primitives built on top
//!   are not serialized through a shared lock;
//! * a mutex-protected queue that bags are batch-drained into (when a
//!   bag fills, on [`Guard::flush`], on the periodic collection tick,
//!   and when the handle is dropped — at thread exit for [`pin`]'s).
//!
//! A queued closure runs once every currently-pinned handle is pinned at
//! a *later* epoch than its tag, which implies no thread that could
//! still reach the retired object remains pinned. Collection is
//! amortized into pinning (every [`COLLECT_EVERY`]-th outermost pin
//! advances the epoch and runs every ready closure inline), so
//! long-running processes reclaim memory without ever calling
//! [`Guard::flush`]; `flush` remains the way tests drain
//! deterministically.
//!
//! Deferred closures may themselves pin and defer (the SCX-record
//! reclamation protocol relies on this); the collector runs closures
//! outside all internal locks and thread-local borrows to keep that
//! re-entrancy safe.
//!
//! # Collectors and the default instance
//!
//! A [`Collector`] is an owned epoch domain: a thread joins it with
//! [`Collector::register`] and pins through the returned
//! [`LocalHandle`]. Pins on one collector never hold back another's
//! reclamation. The free functions [`pin`], [`queued_reclaims`] and
//! [`collect_now`] act on one lazily created default collector, on which
//! every thread registers at its first `pin`; that is the instance the
//! product crates use. A test that asserts whether a closure ran owns a
//! `Collector`, so no thread pinned elsewhere in the process can delay
//! or reorder what it observes.

#![warn(missing_docs)]

use crate::sync::{fence, AtomicU64, AtomicUsize, Mutex, Ordering};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

pub(crate) mod sync;

/// Slot value meaning "this handle is not pinned".
const INACTIVE: u64 = u64::MAX;

/// Batch-drain a handle's bag into its collector's queue at this size.
const BAG_FLUSH: usize = 64;

/// Run a collection on every Nth outermost pin of a handle.
const COLLECT_EVERY: u64 = 64;

struct Slot {
    epoch: AtomicU64,
}

/// A deferred closure. The `Send` assertion is the caller's promise made
/// through the `unsafe` contract of [`Guard::defer_unchecked`]: the
/// closure may be run by whichever thread collects it.
struct Deferred(Box<dyn FnOnce()>);
unsafe impl Send for Deferred {}

/// The state one [`Collector`] owns, shared by its clones and by every
/// handle registered on it.
struct Global {
    epoch: AtomicU64,
    slots: Mutex<Vec<Arc<Slot>>>,
    queue: Mutex<VecDeque<(u64, Deferred)>>,
    /// Closures detached by some collection but not yet finished
    /// running. [`Guard::flush`] waits on this.
    in_flight: AtomicUsize,
}

/// An epoch domain: the epoch counter, the registry of pinned handles
/// and the queue of deferred closures. Clones share one domain.
#[derive(Clone)]
pub struct Collector {
    global: Arc<Global>,
}

impl Collector {
    /// A fresh collector with no registered handles.
    pub fn new() -> Self {
        Collector {
            global: Arc::new(Global {
                epoch: AtomicU64::new(0),
                slots: Mutex::new(Vec::new()),
                queue: Mutex::new(VecDeque::new()),
                in_flight: AtomicUsize::new(0),
            }),
        }
    }

    /// Register the calling thread with this collector. Dropping the
    /// handle (after its guards) hands its bag to the collector's queue
    /// and deregisters its slot.
    pub fn register(&self) -> LocalHandle {
        let slot = Arc::new(Slot {
            epoch: AtomicU64::new(INACTIVE),
        });
        self.global.slots.lock().unwrap().push(Arc::clone(&slot));
        LocalHandle {
            local: Rc::new(Local {
                global: Arc::clone(&self.global),
                slot,
                pins: Cell::new(0),
                total_pins: Cell::new(0),
                bag: RefCell::new(Vec::new()),
            }),
        }
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

/// A thread's registration with a [`Collector`]. Not `Send`: its guards
/// unpin through state only this thread touches.
pub struct LocalHandle {
    local: Rc<Local>,
}

impl LocalHandle {
    /// Pin this handle: publish the collector's epoch into its slot and
    /// return a [`Guard`] that keeps it published. Re-entrant; only the
    /// outermost pin writes the slot. Every [`COLLECT_EVERY`]-th
    /// outermost pin also runs a collection (while still unpinned),
    /// which bounds the memory held by deferred destructions without
    /// any explicit [`Guard::flush`].
    pub fn pin(&self) -> Guard {
        let local = &self.local;
        if local.pins.get() == 0 {
            let total = local.total_pins.get().wrapping_add(1);
            local.total_pins.set(total);
            // Injected collect delay: skip this amortized tick — the
            // bag stays buffered and garbage ages, exactly a stalled
            // collector. `Guard::flush`/`collect_now` are deliberately
            // not injectable: deterministic drains (leak checks,
            // `flush_reclamation`) must stay deterministic.
            if total.is_multiple_of(COLLECT_EVERY) && !faultpoint::fire("epoch.tick.skip") {
                // Not yet pinned: our own slot does not hold back the
                // collection, and re-entrant pins from closures nest
                // above pins == 0 correctly.
                local.seal_bag();
                local.global.collect();
            }
            // Publish the epoch, then re-check it: if the epoch moved
            // while we were publishing, a concurrent collector may have
            // missed our slot, so publish the newer value instead.
            let global = &local.global;
            loop {
                let e = global.epoch.load(Ordering::SeqCst); // ord: SC pin: epoch read before announce
                local.slot.epoch.store(e, Ordering::SeqCst); // ord: SC pin: announce slot epoch
                fence(Ordering::SeqCst); // ord: SC store-load fence; announce must precede re-read
                if global.epoch.load(Ordering::SeqCst) == e {
                    // ord: SC pin: validate epoch after announce
                    break;
                }
            }
        }
        local.pins.set(local.pins.get() + 1);
        Guard {
            local: Rc::clone(local),
        }
    }
}

/// The process-wide collector behind [`pin`], [`queued_reclaims`] and
/// [`collect_now`].
fn default_collector() -> &'static Collector {
    static DEFAULT: OnceLock<Collector> = OnceLock::new();
    DEFAULT.get_or_init(Collector::new)
}

thread_local! {
    /// This thread's registration with the default collector; dropped
    /// at thread exit, which seals its bag.
    static HANDLE: LocalHandle = default_collector().register();
}

/// Pin the current thread on the default collector (see
/// [`LocalHandle::pin`]).
pub fn pin() -> Guard {
    HANDLE.with(LocalHandle::pin)
}

/// Closures queued for reclamation right now on the default collector
/// (bags still held by handles are not counted). Shim extension, for
/// tests and observability.
pub fn queued_reclaims() -> usize {
    default_collector().global.queue.lock().unwrap().len()
}

/// Run one collection on the default collector from the calling thread
/// *without* pinning it first. Shim extension for the model-checking
/// scenarios: the interesting pin/collect races need a collector that
/// is not itself protected by a pin, which `Guard::flush`
/// (pin-then-collect) can never express. Returns how many deferred
/// closures ran.
pub fn collect_now() -> usize {
    default_collector().global.collect()
}

thread_local! {
    /// Depth of deferred closures currently running on this thread; a
    /// `flush` from inside one must not wait for `in_flight` to reach
    /// zero (it includes the closure itself).
    static RUNNING_CLOSURES: Cell<usize> = const { Cell::new(0) };
}

struct Local {
    global: Arc<Global>,
    slot: Arc<Slot>,
    pins: Cell<usize>,
    total_pins: Cell<u64>,
    bag: RefCell<Vec<(u64, Deferred)>>,
}

impl Local {
    /// Move the bag's contents to the collector's queue (one lock
    /// acquisition per batch). Must not be called with `bag` borrowed.
    fn seal_bag(&self) {
        let items = std::mem::take(&mut *self.bag.borrow_mut());
        if !items.is_empty() {
            self.global.queue.lock().unwrap().extend(items);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Last handle or guard gone (thread exit, for the default
        // collector): hand any stranded deferred closures to the queue
        // so another handle's collection can run them, and deregister
        // the slot so the registry (scanned by every collection while
        // holding its mutex) does not grow with every thread ever
        // spawned.
        self.seal_bag();
        self.global
            .slots
            .lock()
            .unwrap()
            .retain(|s| !Arc::ptr_eq(s, &self.slot));
    }
}

/// A handle keeping its [`LocalHandle`] pinned to an epoch.
///
/// While any `Guard` of a handle is alive, no object retired at this or
/// a later epoch of its collector is destroyed, so shared pointers read
/// under the guard stay dereferenceable. The guard keeps its handle's
/// registration alive, so it may outlive the handle (or the thread's
/// default handle, during thread teardown).
pub struct Guard {
    local: Rc<Local>,
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard").finish_non_exhaustive()
    }
}

impl Guard {
    /// Defer a closure until every handle currently pinned on this
    /// guard's collector has unpinned.
    ///
    /// The closure lands in the handle's local bag (no shared lock);
    /// full bags are batch-drained into the collector's queue.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the closure is safe to run on any thread
    /// once all threads pinned at defer time have unpinned — in
    /// particular, that the object it frees is unreachable to any thread
    /// that pins afterwards, and that it is deferred at most once.
    pub unsafe fn defer_unchecked<F, R>(&self, f: F)
    where
        F: FnOnce() -> R,
    {
        let epoch = self.local.global.epoch.load(Ordering::SeqCst); // ord: SC epoch read stamps the deferred node
        let boxed: Box<dyn FnOnce() + '_> = Box::new(move || {
            let _ = f();
        });
        // Erase the lifetime: the caller's contract (above) is exactly
        // the promise that the closure and its captures remain valid
        // until the collector runs it. Real crossbeam-epoch likewise
        // accepts non-'static closures here.
        let boxed: Box<dyn FnOnce()> =
            std::mem::transmute::<Box<dyn FnOnce() + '_>, Box<dyn FnOnce() + 'static>>(boxed);
        let full = {
            let mut bag = self.local.bag.borrow_mut();
            bag.push((epoch, Deferred(boxed)));
            bag.len() >= BAG_FLUSH
        };
        if full {
            self.local.seal_bag();
        }
    }

    /// Seal this handle's bag, advance the collector's epoch and run
    /// every queued closure whose epoch is now strictly older than all
    /// pinned handles'.
    ///
    /// Repeatedly calling `pin().flush()` drains the queue: each call
    /// pins at a fresh epoch, so older tags fall below the minimum.
    /// Unless called from inside a deferred closure, `flush` also waits
    /// for closures detached by concurrent collections to finish, so a
    /// `flush` loop reaches quiescence deterministically.
    pub fn flush(&self) {
        self.local.seal_bag();
        let global = &self.local.global;
        global.collect();
        if RUNNING_CLOSURES.with(Cell::get) == 0 {
            while global.in_flight.load(Ordering::SeqCst) > 0 {
                // ord: SC drain handshake with executors
                std::thread::yield_now();
            }
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let local = &self.local;
        let pins = local.pins.get();
        debug_assert!(pins > 0, "unpinning an unpinned handle");
        if pins == 1 {
            local.slot.epoch.store(INACTIVE, Ordering::SeqCst); // ord: SC unpin announcement
        }
        local.pins.set(pins - 1);
    }
}

impl Global {
    /// Advance the epoch and run every ready queued closure. Returns
    /// how many ran.
    fn collect(&self) -> usize {
        let epoch_now = self.epoch.fetch_add(1, Ordering::SeqCst) + 1; // ord: SC epoch advance; collectors race on this
        let min_pinned = {
            let slots = self.slots.lock().unwrap();
            slots
                .iter()
                .map(|s| s.epoch.load(Ordering::SeqCst)) // ord: SC scan of pinned slots; pairs with pin announce
                .min()
                .unwrap_or(INACTIVE)
        };
        // A closure may run only when its tag is strictly older than
        // every pinned handle AND strictly older than the epoch this
        // collection just created. The second bound closes a TOCTOU: a
        // handle pinning concurrently with the slot scan above can be
        // missed by it, but such a handle always publishes `epoch_now`
        // (the pin verify loop re-checks the counter), so anything it
        // could still reach was deferred with tag >= epoch_now and stays
        // queued.
        #[cfg(not(llx_model_bugs))]
        let limit = min_pinned.min(epoch_now);
        // Model-checker regression gate: reopen the TOCTOU by dropping the
        // `epoch_now` bound, so a pin racing the slot scan above is unprotected.
        #[cfg(llx_model_bugs)]
        let limit = {
            let _ = epoch_now;
            min_pinned
        };
        // Detach the ready closures first, then run them with no lock or
        // thread-local borrow held: closures may re-enter
        // pin/defer_unchecked/flush. `in_flight` covers the
        // detached-but-unfinished window so a concurrent `flush` cannot
        // declare quiescence while this collection still holds work.
        //
        // The scan stops at the first non-ready item (head-of-line, like
        // the real crossbeam-epoch's bag queue): per-handle tags are
        // non-decreasing, so the queue is *approximately* oldest-first
        // and a ready item stuck behind a blocked head just waits for the
        // next collection. A tick therefore costs O(ready), never a
        // pop-and-requeue pass over the whole backlog.
        let ready: Vec<Deferred> = {
            let mut queue = self.queue.lock().unwrap();
            let mut ready = Vec::new();
            while let Some((epoch, _)) = queue.front() {
                if *epoch >= limit {
                    break;
                }
                let (_, d) = queue.pop_front().expect("front was Some");
                ready.push(d);
            }
            if !ready.is_empty() {
                self.in_flight.fetch_add(ready.len(), Ordering::SeqCst); // ord: SC in-flight accounting; pairs with flush drain
            }
            ready
        };
        let ran = ready.len();
        for d in ready {
            RUNNING_CLOSURES.with(|c| c.set(c.get() + 1));
            // A panicking closure must not strand the counters (the
            // collector may be shared with every other test in the
            // binary); restore them even on unwind.
            struct InFlightGuard<'a>(&'a AtomicUsize);
            impl Drop for InFlightGuard<'_> {
                fn drop(&mut self) {
                    RUNNING_CLOSURES.with(|c| c.set(c.get() - 1));
                    self.0.fetch_sub(1, Ordering::SeqCst); // ord: SC in-flight accounting; pairs with flush drain
                }
            }
            let _guard = InFlightGuard(&self.in_flight);
            (d.0)();
        }
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Deterministic drain: each flush pins at a fresh epoch, so a few
    /// rounds run everything deferred before the call, re-defers
    /// included.
    fn drain(handle: &LocalHandle) {
        for _ in 0..16 {
            handle.pin().flush();
        }
    }

    fn counter() -> Arc<AtomicUsize> {
        Arc::new(AtomicUsize::new(0))
    }

    fn ran(counter: &AtomicUsize) -> usize {
        counter.load(Ordering::SeqCst) // ord: test counter; exactness over speed
    }

    fn defer_bump(guard: &Guard, counter: &Arc<AtomicUsize>) {
        let counter = Arc::clone(counter);
        unsafe { guard.defer_unchecked(move || counter.fetch_add(1, Ordering::SeqCst)) };
        // ord: test counter; exactness over speed
    }

    #[test]
    fn deferred_runs_after_unpin_and_flush() {
        let handle = Collector::new().register();
        let count = counter();
        {
            let guard = handle.pin();
            defer_bump(&guard, &count);
            // Still pinned: a flush now must not run it.
            guard.flush();
            assert_eq!(ran(&count), 0);
        }
        drain(&handle);
        assert_eq!(ran(&count), 1);
    }

    #[test]
    fn pinned_peer_blocks_collection() {
        let collector = Collector::new();
        let handle = collector.register();
        let count = counter();
        let hold = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let peer = {
            let collector = collector.clone();
            let hold = Arc::clone(&hold);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let _guard = collector.register().pin();
                hold.wait();
                release.wait();
            })
        };
        hold.wait(); // peer is pinned now
        defer_bump(&handle.pin(), &count);
        drain(&handle);
        assert_eq!(ran(&count), 0, "peer still pinned");
        release.wait();
        peer.join().unwrap();
        drain(&handle);
        assert_eq!(ran(&count), 1);
    }

    /// The reverse isolation: a peer pinned on the default collector
    /// (or on any other) holds back nothing an owned collector queued.
    #[test]
    fn default_pin_does_not_block_an_owned_collector() {
        let hold = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let peer = {
            let hold = Arc::clone(&hold);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let _guard = pin();
                hold.wait();
                release.wait();
            })
        };
        hold.wait(); // peer is pinned on the default collector now
        let handle = Collector::new().register();
        let count = counter();
        defer_bump(&handle.pin(), &count);
        drain(&handle);
        assert_eq!(ran(&count), 1, "a default-collector pin blocked it");
        release.wait();
        peer.join().unwrap();
    }

    #[test]
    fn deferring_from_a_deferred_closure_works() {
        let handle = Collector::new().register();
        let count = counter();
        {
            let (outer, count) = (&handle, Arc::clone(&count));
            let guard = handle.pin();
            // Runs on this thread inside a later flush, re-entering the
            // handle that is pinned for that flush.
            unsafe { guard.defer_unchecked(move || defer_bump(&outer.pin(), &count)) };
        }
        drain(&handle);
        assert_eq!(ran(&count), 1);
    }

    #[test]
    fn reentrant_pin_counts() {
        let handle = Collector::new().register();
        let a = handle.pin();
        let b = handle.pin();
        drop(a);
        // Still pinned through b.
        let count = counter();
        defer_bump(&b, &count);
        b.flush();
        assert_eq!(ran(&count), 0);
        drop(b);
        drain(&handle);
        assert_eq!(ran(&count), 1);
    }

    /// The amortized collection inside `pin` must reclaim deferred
    /// objects even when nobody ever calls `flush` — the product crates
    /// only pin and defer — and a multi-thread churn soak loses none.
    #[test]
    fn pin_only_loop_reclaims_without_flush() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 250;
        let collector = Collector::new();
        let count = counter();
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let collector = collector.clone();
                let count = Arc::clone(&count);
                std::thread::spawn(move || {
                    let handle = collector.register();
                    for i in 0..PER_THREAD {
                        defer_bump(&handle.pin(), &count);
                        if i % 7 == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        // The workers' exits sealed their bags; with nobody pinned, the
        // next amortized tick runs every tag older than the epoch it
        // installs, which is all of them — each exactly once.
        let handle = collector.register();
        for _ in 0..COLLECT_EVERY {
            drop(handle.pin());
        }
        assert_eq!(ran(&count), THREADS * PER_THREAD);
    }

    #[test]
    fn thread_exit_hands_bag_to_global() {
        let collector = Collector::new();
        let count = counter();
        {
            let collector = collector.clone();
            let count = Arc::clone(&count);
            std::thread::spawn(move || {
                let handle = collector.register();
                // Fewer than BAG_FLUSH items: they stay in the local
                // bag until the handle drops at thread exit.
                defer_bump(&handle.pin(), &count);
            })
            .join()
            .unwrap();
        }
        drain(&collector.register());
        assert_eq!(ran(&count), 1);
    }

    /// A guard keeps its registration alive past its handle (the
    /// thread-teardown shape): unpinning still works, and the bag is
    /// handed over when the guard goes.
    #[test]
    fn guard_outlives_its_handle() {
        let collector = Collector::new();
        let count = counter();
        let guard = collector.register().pin();
        defer_bump(&guard, &count);
        drop(guard);
        drain(&collector.register());
        assert_eq!(ran(&count), 1);
    }
}
