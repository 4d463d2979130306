//! Cross-crate integration tests: the three implementations of the
//! multiset specification agree; structures built on the same llx-scx
//! domain machinery interoperate; reclamation stays balanced across a
//! whole-workspace workload.

use conc_set::ConcurrentOrderedSet;
use lockbased::{CoarseMultiset, HandOverHandMultiset};
use multiset::Multiset;
use mwcas::KcasMultiset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One random op sequence applied to all four multiset implementations
/// must produce identical observable behaviour (they share the paper's
/// §5 sequential specification).
#[test]
fn four_multisets_agree_sequentially() {
    let scx = Multiset::<u64>::new();
    let kcas = KcasMultiset::new();
    let coarse = CoarseMultiset::<u64>::new();
    let hoh = HandOverHandMultiset::<u64>::new();
    let mut rng = SmallRng::seed_from_u64(2024);
    for _ in 0..4000 {
        let key = rng.random_range(0..32u64);
        let count = rng.random_range(1..4u64);
        match rng.random_range(0..3u32) {
            0 => {
                scx.insert(key, count);
                kcas.insert(key, count);
                coarse.insert(key, count);
                hoh.insert(key, count);
            }
            1 => {
                let a = scx.remove(key, count);
                let b = kcas.remove(key, count);
                let c = coarse.remove(key, count);
                let d = hoh.remove(key, count);
                assert_eq!(a, b);
                assert_eq!(a, c);
                assert_eq!(a, d);
            }
            _ => {
                let a = scx.get(key);
                let b = kcas.get(key);
                let c = coarse.get(key);
                let d = hoh.get(key);
                assert_eq!(a, b);
                assert_eq!(a, c);
                assert_eq!(a, d);
            }
        }
    }
    let reference = coarse.to_vec();
    assert_eq!(scx.to_vec(), reference);
    assert_eq!(kcas.to_vec(), reference);
    assert_eq!(hoh.to_vec(), reference);
    scx.check_invariants().unwrap();
}

/// Both trees agree with each other under a random single-threaded
/// workload, and the chromatic tree stays balanced.
#[test]
fn trees_agree_and_chromatic_balances() {
    let bst = trees::Bst::<u64, u64>::new();
    let chromatic = trees::ChromaticTree::<u64, u64>::new();
    let mut rng = SmallRng::seed_from_u64(7);
    for i in 0..5000u64 {
        let key = rng.random_range(0..512u64);
        match rng.random_range(0..3u32) {
            0 => {
                assert_eq!(bst.insert(key, i), chromatic.insert(key, i), "insert {key}");
            }
            1 => {
                assert_eq!(bst.remove(key), chromatic.remove(key), "remove {key}");
            }
            _ => {
                assert_eq!(bst.get(key), chromatic.get(key), "get {key}");
            }
        }
    }
    assert_eq!(bst.to_vec(), chromatic.to_vec());
    bst.check_invariants().unwrap();
    chromatic.check_invariants().unwrap();
    chromatic.check_balanced().unwrap();
}

/// The workload generators drive every implementation without panics and
/// with conserved totals (smoke test of the full harness path).
#[test]
fn workload_generator_drives_all_structures() {
    use workloads::{KeyDist, Mix, OpKind, WorkloadGen};
    let set = Multiset::<u64>::new();
    let tree = trees::ChromaticTree::<u64, u64>::new();
    let mut gen = WorkloadGen::new(
        5,
        0,
        KeyDist::zipf(128, 0.99),
        Mix::with_update_percent(50).with_scan_percent(10),
    );
    for _ in 0..20_000 {
        let (kind, key) = gen.next_op();
        match kind {
            OpKind::Get => {
                let _ = set.get(key);
                let _ = tree.get(key);
            }
            OpKind::Insert => {
                set.insert(key, 1);
                let _ = tree.insert(key, key);
            }
            OpKind::Remove => {
                let _ = set.remove(key, 1);
                let _ = tree.remove(key);
            }
            OpKind::Scan => {
                // Snapshot scans through the trait's atomic tier.
                let _ = set.range_count(key, key.saturating_add(15));
                let _ = tree.range_count(key, key.saturating_add(15));
            }
        }
    }
    set.check_invariants().unwrap();
    tree.check_invariants().unwrap();
    tree.check_balanced().unwrap();
}
