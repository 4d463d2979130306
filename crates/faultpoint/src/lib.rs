//! Deterministic, env-gated fault injection for the whole stack.
//!
//! The PR-2/6/9 bug hunts all ended the same way: the defect lived in a
//! failure path (recycling ABA, epoch TOCTOU, torn connection) that
//! ordinary runs almost never take. This crate makes those paths
//! drivable on purpose. A *fault point* is a named site compiled
//! permanently into the code — [`fire`]`("net.conn.drop")` — that is
//! inert until a spec arms it, either programmatically via
//! [`configure`] or through the environment:
//!
//! ```text
//! LLX_FAULT_SPEC='net.conn.drop=prob:0.01,epoch.tick.skip=every:64'
//! LLX_FAULT_SEED=42
//! ```
//!
//! # Spec grammar
//!
//! ```text
//! SPEC    := POINT ( ',' POINT )*
//! POINT   := NAME '=' TRIGGER
//! TRIGGER := 'prob:' P      fire each hit independently with probability P
//!          | 'every:' N     fire on every N-th hit (hits N, 2N, 3N, …)
//!          | 'once:' N      fire exactly once, on the N-th hit
//! ```
//!
//! # Determinism
//!
//! Every trigger decision is a pure function of `(spec, seed, hit
//! index)`. `every`/`once` count hits; `prob` draws the k-th value of a
//! per-point SplitMix64 stream seeded with `seed ^ fnv1a(name)`, so
//! points are independent of each other and of arrival interleaving:
//! replaying a failing seed replays the same fault at the same hit
//! index of the same point. (Under concurrency the *assignment* of hit
//! indices to threads follows the interleaving, but the decision
//! sequence itself is fixed — a single-threaded replay is bit-for-bit.)
//!
//! # Cost when disarmed
//!
//! [`fire`] with no spec installed is one `Once` fast-path check plus
//! one relaxed atomic load — cheap enough to sit on the SCX-record
//! allocation path. Armed, a miss costs one read-locked map lookup.
//!
//! # Injection points in this workspace
//!
//! | point | site | effect when it fires |
//! |---|---|---|
//! | `scx.pool.alloc_miss` | `llx-scx` record pool | allocation skips the free list / shard steal and pays the global allocator (forced pool miss) |
//! | `scx.pool.steal_fail` | `llx-scx` shard handoff | `steal_shard` returns `None` as if every affinity bucket were empty |
//! | `epoch.tick.skip` | `crossbeam-epoch` shim `pin()` | the amortized collection tick is skipped (reclamation delayed; `Guard::flush` is never affected) |
//! | `net.conn.drop` | `netsvc` session loop | the session drops the connection mid-batch, before answering the current request |
//! | `net.frame.torn` | `netsvc` reply path | the response frame is cut mid-payload and the connection dropped |
//! | `net.scan.drop` | `netsvc` scan streamer | the connection is dropped between two `ScanWindow` frames |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock, RwLock};

/// Fast-path gate: true iff at least one point is armed. Everything it
/// guards re-checks under the registry lock, so a stale read only costs
/// one extra lookup.
static ARMED: AtomicBool = AtomicBool::new(false);

/// One-time lazy pull of `LLX_FAULT_SPEC`/`LLX_FAULT_SEED`; a later
/// [`configure`]/[`clear`] overrides whatever the environment said.
static ENV_INIT: Once = Once::new();

/// How one armed point decides whether a hit fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire each hit independently with this probability (`prob:P`).
    Prob(f64),
    /// Fire on every N-th hit (`every:N`).
    Every(u64),
    /// Fire exactly once, on the N-th hit (`once:N`).
    Once(u64),
}

/// Runtime state of one armed point.
struct Point {
    trigger: Trigger,
    hits: AtomicU64,
    fires: AtomicU64,
    /// SplitMix64 state for `prob` draws; advanced per hit.
    rng: AtomicU64,
}

/// Hit/fire counters of one armed point, from [`stats`]/[`counters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointStats {
    /// The point's name as armed.
    pub name: String,
    /// Times [`fire`] was called on this point since arming.
    pub hits: u64,
    /// Times it answered `true`.
    pub fires: u64,
}

fn registry() -> &'static RwLock<HashMap<String, Arc<Point>>> {
    static REG: OnceLock<RwLock<HashMap<String, Arc<Point>>>> = OnceLock::new();
    REG.get_or_init(Default::default)
}

/// FNV-1a, the per-point seed perturbation (stable across runs, unlike
/// `DefaultHasher`).
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 output function over an already-advanced state.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SPLITMIX_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seed [`configure_from_env`] uses when `LLX_FAULT_SEED` is unset.
pub const DEFAULT_SEED: u64 = 0xFA17;

/// Record a hit on a named fault point; `true` means the caller must
/// take its failure path. Inert (and near-free) until a spec arms the
/// point.
#[inline]
pub fn fire(name: &str) -> bool {
    // `env_pull`, not `configure_from_env`: the latter marks ENV_INIT
    // done itself, and re-entering `call_once` from inside its own
    // closure deadlocks.
    ENV_INIT.call_once(env_pull);
    // ord: fast-path gate; armed state is republished under the registry lock
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    fire_armed(name)
}

#[cold]
fn fire_armed(name: &str) -> bool {
    let Some(point) = registry().read().unwrap().get(name).cloned() else {
        return false;
    };
    // ord: counter; the 1-based hit index is per-point, no cross-point order
    let hit = point.hits.fetch_add(1, Ordering::Relaxed) + 1;
    let fired = match point.trigger {
        Trigger::Every(n) => hit % n == 0,
        Trigger::Once(n) => hit == n,
        Trigger::Prob(p) => {
            // ord: private RNG stream; each hit claims one draw, order-free
            let state = point.rng.fetch_add(SPLITMIX_GOLDEN, Ordering::Relaxed);
            let draw = splitmix(state.wrapping_add(SPLITMIX_GOLDEN));
            // 53 uniform mantissa bits → [0, 1).
            ((draw >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
        }
    };
    if fired {
        // ord: counter, read only by stats()
        point.fires.fetch_add(1, Ordering::Relaxed);
    }
    fired
}

/// Parse one `name=trigger` clause.
fn parse_point(clause: &str) -> Result<(String, Trigger), String> {
    let (name, trig) = clause
        .split_once('=')
        .ok_or_else(|| format!("clause {clause:?} is not name=trigger"))?;
    let name = name.trim();
    if name.is_empty() {
        return Err(format!("clause {clause:?} has an empty point name"));
    }
    let trig = trig.trim();
    let trigger = if let Some(p) = trig.strip_prefix("prob:") {
        let p: f64 = p
            .parse()
            .map_err(|e| format!("{name}: bad probability {p:?}: {e}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("{name}: probability {p} outside 0..=1"));
        }
        Trigger::Prob(p)
    } else if let Some(n) = trig.strip_prefix("every:") {
        let n: u64 = n
            .parse()
            .map_err(|e| format!("{name}: bad period {n:?}: {e}"))?;
        if n == 0 {
            return Err(format!("{name}: every:0 is meaningless"));
        }
        Trigger::Every(n)
    } else if let Some(n) = trig.strip_prefix("once:") {
        let n: u64 = n
            .parse()
            .map_err(|e| format!("{name}: bad hit index {n:?}: {e}"))?;
        if n == 0 {
            return Err(format!("{name}: hits are 1-based; once:0 never fires"));
        }
        Trigger::Once(n)
    } else {
        return Err(format!(
            "{name}: unknown trigger {trig:?} (want prob:P, every:N, or once:N)"
        ));
    };
    Ok((name.to_string(), trigger))
}

/// Install a spec, replacing whatever was armed before. An empty /
/// whitespace spec disarms everything (see [`clear`]). Counters reset.
pub fn configure(spec: &str, seed: u64) -> Result<(), String> {
    // Pre-empt the lazy env pull so an explicit configure always wins
    // regardless of whether fire() ran first.
    ENV_INIT.call_once(|| {});
    install(spec, seed)
}

/// [`configure`] minus the `ENV_INIT` pre-emption — the body shared
/// with the lazy env pull, which runs *inside* `ENV_INIT.call_once`
/// and must not touch the `Once` again.
fn install(spec: &str, seed: u64) -> Result<(), String> {
    let mut map = HashMap::new();
    for clause in spec.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (name, trigger) = parse_point(clause)?;
        let rng = AtomicU64::new(splitmix(seed ^ fnv1a(&name)));
        if map
            .insert(
                name.clone(),
                Arc::new(Point {
                    trigger,
                    hits: AtomicU64::new(0),
                    fires: AtomicU64::new(0),
                    rng,
                }),
            )
            .is_some()
        {
            return Err(format!("point {name:?} armed twice in one spec"));
        }
    }
    let armed = !map.is_empty();
    let mut reg = registry().write().unwrap();
    *reg = map;
    // ord: gate republished while still holding the registry write lock
    ARMED.store(armed, Ordering::Relaxed);
    Ok(())
}

/// Disarm every point and reset all counters.
pub fn clear() {
    configure("", 0).expect("the empty spec always parses");
}

/// Arm from `LLX_FAULT_SPEC` + `LLX_FAULT_SEED` (defaults to
/// [`DEFAULT_SEED`]). Called lazily by the first [`fire`]; calling it
/// again re-reads the environment. Panics on a malformed spec — an
/// injection run with a typo'd spec would silently test nothing.
pub fn configure_from_env() {
    ENV_INIT.call_once(|| {});
    env_pull();
}

/// The environment read shared by [`configure_from_env`] and the lazy
/// first-[`fire`] pull. Must never touch `ENV_INIT`: it is the body of
/// that `Once`'s closure.
fn env_pull() {
    let Ok(spec) = std::env::var("LLX_FAULT_SPEC") else {
        return;
    };
    let seed = std::env::var("LLX_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED);
    install(&spec, seed).expect("LLX_FAULT_SPEC must parse");
}

/// Whether any point is currently armed.
pub fn armed() -> bool {
    // ord: advisory gate read, same as fire()'s fast path
    ARMED.load(Ordering::Relaxed)
}

/// Hit/fire counters of every armed point, sorted by name.
pub fn stats() -> Vec<PointStats> {
    let reg = registry().read().unwrap();
    let mut out: Vec<PointStats> = reg
        .iter()
        .map(|(name, p)| PointStats {
            name: name.clone(),
            // ord: counter reads for reporting; no sync role
            hits: p.hits.load(Ordering::Relaxed),
            fires: p.fires.load(Ordering::Relaxed), // ord: counter read for reporting
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// `(hits, fires)` of one armed point, or `None` if it is not armed.
pub fn counters(name: &str) -> Option<(u64, u64)> {
    let reg = registry().read().unwrap();
    let p = reg.get(name)?;
    Some((
        // ord: counter read for reporting; no sync role
        p.hits.load(Ordering::Relaxed),
        // ord: counter read for reporting; no sync role
        p.fires.load(Ordering::Relaxed),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global state + tests on threads: serialize every test.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_points_never_fire() {
        let _g = lock();
        clear();
        assert!(!armed());
        assert!(!fire("no.such.point"));
        assert_eq!(counters("no.such.point"), None);
    }

    #[test]
    fn every_and_once_follow_hit_indices() {
        let _g = lock();
        configure("a=every:3,b=once:2", 7).unwrap();
        let a: Vec<bool> = (0..9).map(|_| fire("a")).collect();
        assert_eq!(
            a,
            [false, false, true, false, false, true, false, false, true]
        );
        let b: Vec<bool> = (0..5).map(|_| fire("b")).collect();
        assert_eq!(b, [false, true, false, false, false]);
        assert_eq!(counters("a"), Some((9, 3)));
        assert_eq!(counters("b"), Some((5, 1)));
        // Unarmed points are hit-free even while others are armed.
        assert!(!fire("c"));
        assert_eq!(counters("c"), None);
        clear();
    }

    #[test]
    fn prob_stream_is_deterministic_per_seed_and_point() {
        let _g = lock();
        let run = |seed| {
            configure("x=prob:0.5,y=prob:0.5", seed).unwrap();
            let x: Vec<bool> = (0..64).map(|_| fire("x")).collect();
            let y: Vec<bool> = (0..64).map(|_| fire("y")).collect();
            (x, y)
        };
        let (x1, y1) = run(42);
        let (x2, y2) = run(42);
        assert_eq!(x1, x2, "same seed, same stream");
        assert_eq!(y1, y2);
        assert_ne!(x1, y1, "points draw independent streams");
        let (x3, _) = run(43);
        assert_ne!(x1, x3, "different seed, different stream");
        // A fair-ish coin: both outcomes appear in 64 draws.
        assert!(x1.iter().any(|&b| b) && x1.iter().any(|&b| !b));
        clear();
    }

    #[test]
    fn prob_extremes_are_exact() {
        let _g = lock();
        configure("never=prob:0.0,always=prob:1.0", 1).unwrap();
        assert!((0..32).all(|_| !fire("never")));
        assert!((0..32).all(|_| fire("always")));
        clear();
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _g = lock();
        for bad in [
            "nameonly",
            "p=",
            "p=prob:2.0",
            "p=prob:x",
            "p=every:0",
            "p=once:0",
            "p=maybe:1",
            "=prob:0.5",
            "p=prob:0.1,p=prob:0.2",
        ] {
            assert!(configure(bad, 0).is_err(), "{bad:?} must not parse");
        }
        // A failed configure must not leave stale arming behind.
        clear();
        assert!(!armed());
    }

    #[test]
    fn reconfigure_resets_counters() {
        let _g = lock();
        configure("a=every:1", 0).unwrap();
        assert!(fire("a"));
        configure("a=every:1", 0).unwrap();
        assert_eq!(counters("a"), Some((0, 0)));
        assert_eq!(
            stats(),
            vec![PointStats {
                name: "a".into(),
                hits: 0,
                fires: 0
            }]
        );
        clear();
        assert!(stats().is_empty());
    }
}
