//! Cross-thread shard handoff of the SCX-record pool, in its own test
//! binary: it pins the pool knobs (tiny free-list cap, small shards)
//! through environment variables that the pool reads once, so no other
//! test may touch SCX records in this process first.

use multiset::Multiset;

/// Insert/remove churn: every operation commits one SCX, so `pairs`
/// pairs retire ~2×`pairs` SCX-records on the calling thread.
fn churn(set: &Multiset<u64>, pairs: usize) -> u64 {
    let mut ops = 0u64;
    for i in 0..pairs {
        let k = (i % 16) as u64;
        set.insert(k, 1);
        if set.remove(k, 1) {
            ops += 1;
        }
        ops += 1;
    }
    ops
}

#[test]
fn producer_shards_feed_a_fresh_consumer_thread() {
    // Before ANY SCX activity: shrink the per-thread free list so the
    // maturation path overflows into handoff shards quickly. The pool
    // reads both knobs once, lazily; this test binary contains only
    // this test, so nothing races the setenv.
    std::env::set_var("LLX_SCX_POOL_CAP", "8");
    std::env::set_var("LLX_SCX_SHARD", "8");

    llx_scx::flush_reclamation();
    let baseline_live = llx_scx::live_scx_records();

    // Phase 1 — producer: a retire-heavy thread whose maturations
    // overflow its capped free list and publish shards. It flushes its
    // own reclamation before exiting so the shards are parked (not
    // stranded in partial batches) when it is gone.
    let produced = std::thread::spawn(|| {
        let set = Multiset::<u64>::new();
        let ops = churn(&set, 4_000);
        drop(set);
        llx_scx::flush_reclamation();
        ops
    })
    .join()
    .unwrap();
    assert!(produced > 0);

    // Phase 2 — consumer: a *fresh* thread (empty free list) starts
    // allocating. Without the handoff every early allocation fell
    // through to the allocator; with it, the first local miss adopts a
    // whole parked shard.
    let before = llx_scx::pool_stats();
    let consumed = std::thread::spawn(|| {
        let set = Multiset::<u64>::new();
        let ops = churn(&set, 4_000);
        drop(set);
        llx_scx::flush_reclamation();
        ops
    })
    .join()
    .unwrap();
    assert!(consumed > 0);
    let phase = before.snapshot_delta();

    assert!(
        phase.handoffs > 0,
        "consumer thread never adopted a parked shard: {phase:?}"
    );
    // Inline collection recycles promptly (rate well above this floor);
    // without the handoff a fresh consumer thread sat in the low single
    // digits.
    let rate = phase.hit_rate().expect("consumer allocated SCX records");
    assert!(
        rate > 0.15,
        "hit rate {rate:.2} did not rise through the shard handoff: {phase:?}"
    );

    // The handoff must not break the reclamation ledger: everything
    // drains back to the baseline (shards hold only dead blocks).
    llx_scx::flush_reclamation();
    for _ in 0..256 {
        crossbeam_epoch::pin().flush();
    }
    llx_scx::flush_reclamation();
    if let (Some(before), Some(after)) = (baseline_live, llx_scx::live_scx_records()) {
        assert_eq!(after, before, "records leaked through the shard handoff");
    }

    // Deltas stay consistent with the absolute counters.
    let total = llx_scx::pool_stats();
    assert!(total.hits >= phase.hits && total.handoffs >= phase.handoffs);
}
