//! Fault-injection integration, in its own process (faultpoint config
//! is process-global): `epoch.tick.skip` starves the *amortized* pin
//! tick, and the explicit paths — `Guard::flush`, `collect_now` — must
//! still drain everything, because they are deliberately not
//! injectable (tests and shutdown ledgers rely on them meaning what
//! they say).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam_epoch::{collect_now, pin, queued_reclaims};

static SERIAL: Mutex<()> = Mutex::new(());

fn defer_bump(guard: &crossbeam_epoch::Guard, ran: &Arc<AtomicUsize>) {
    let ran = Arc::clone(ran);
    unsafe { guard.defer_unchecked(move || ran.fetch_add(1, Ordering::SeqCst)) };
}

#[test]
fn skipped_ticks_starve_amortized_collection_but_not_flush() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Clear residue from other tests in this binary (none today, but
    // the queue is global).
    for _ in 0..16 {
        pin().flush();
    }
    faultpoint::configure("epoch.tick.skip=every:1", faultpoint::DEFAULT_SEED).unwrap();
    let ran = Arc::new(AtomicUsize::new(0));
    let ran2 = Arc::clone(&ran);
    // Fresh thread: deterministic tick phase (the amortized tick would
    // fire on its 64th outermost pin — and is injected away).
    std::thread::spawn(move || {
        {
            let guard = pin(); // pin #1
            for _ in 0..65 {
                // The bag seals into the global queue at 64 items.
                defer_bump(&guard, &ran2);
            }
        }
        for _ in 0..200 {
            let _ = pin(); // pins #2..: every would-be tick is skipped
        }
        assert_eq!(
            ran2.load(Ordering::SeqCst),
            0,
            "injected tick skips must starve amortized collection"
        );
        assert!(queued_reclaims() >= 64, "the sealed bag stayed queued");
        // Explicit flush is exempt from injection: it must drain even
        // with the fault armed (several rounds — each flush advances
        // the epoch one step).
        for _ in 0..16 {
            pin().flush();
        }
        assert_eq!(
            ran2.load(Ordering::SeqCst),
            65,
            "Guard::flush drains regardless of injected tick skips"
        );
    })
    .join()
    .unwrap();
    let (hits, fires) = faultpoint::counters("epoch.tick.skip").unwrap();
    faultpoint::clear();
    assert!(fires >= 3, "ticks were offered and skipped: {hits}/{fires}");
    assert_eq!(hits, fires, "every:1 fires on every hit");
    // collect_now is likewise exempt; nothing should remain afterwards.
    collect_now();
    assert_eq!(queued_reclaims(), 0, "explicit collection leaves nothing");
}
