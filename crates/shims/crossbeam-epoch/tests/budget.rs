//! Multi-thread churn soak on the default collector, through the free
//! `pin()` / `queued_reclaims()` functions the product crates use.
//!
//! The collector once took a per-tick collection budget, and this soak
//! ran at the smallest one; the budget is gone (every tick runs all
//! ready closures), but the property it guarded remains: heavy churn
//! loses no deferred closure, amortized ticks alone make progress, and a
//! flush drain reaches exactly-once completion with the queue empty.
//! It is the only test in this binary, so nothing else touches the
//! default collector while it counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_epoch::{pin, queued_reclaims};

fn drain() {
    for _ in 0..16 {
        pin().flush();
    }
}

#[test]
fn budget_of_one_loses_no_defers_under_churn() {
    drain();
    let ran = Arc::new(AtomicUsize::new(0));
    const THREADS: usize = 4;
    const PER_THREAD: usize = 200;
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let ran = Arc::clone(&ran);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let guard = pin();
                    let ran = Arc::clone(&ran);
                    unsafe { guard.defer_unchecked(move || ran.fetch_add(1, Ordering::SeqCst)) };
                    drop(guard);
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Amortized ticks alone must make progress…
    let before = ran.load(Ordering::SeqCst);
    for _ in 0..64 * 8 {
        let _ = pin();
    }
    assert!(
        ran.load(Ordering::SeqCst) > before,
        "amortized ticks made no progress"
    );
    // …and a flush drain reaches exactly-once completion.
    drain();
    assert_eq!(ran.load(Ordering::SeqCst), THREADS * PER_THREAD);
    assert_eq!(queued_reclaims(), 0, "queue drains to empty");
}
