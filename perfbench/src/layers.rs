//! Per-layer probes of the traced run. Each one times calls into one
//! layer's public functions from outside, or counts the steps they take.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use conc_set::{ConcurrentOrderedSet, ScanOpts, StructureSpec};
use llx_scx::{Domain, FieldId, ScxRequest};
use netsvc::{Request, Response};

use crate::gen::{Op, Stream};
use crate::hist::Hist;
use crate::report::{ratio, Metrics};
use crate::run::{apply, check_scan, SCAN_RANGE, SCAN_WINDOW};

/// A probe's named pass/fail outcomes.
pub type Checks = Vec<(String, Result<(), String>)>;

/// Mean ns per call of `f`, timed in batches of `batch` calls for
/// `budget`; the median batch mean is returned.
fn batched(budget: Duration, batch: u64, mut f: impl FnMut()) -> (f64, u64) {
    let mut means = Vec::new();
    let end = Instant::now() + budget;
    while means.len() < 3 || Instant::now() < end {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        means.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    means.sort_by(f64::total_cmp);
    (means[means.len() / 2], means.len() as u64 * batch)
}

fn put_p50(m: &mut Metrics, name: &str, h: &Hist) {
    m.put_n(name, "ns", h.quantile(0.5), Some(h.count()));
}

fn put_batched(m: &mut Metrics, name: &str, (ns, n): (f64, u64)) {
    m.put_n(name, "ns", ns, Some(n));
}

/// `llx-scx.*`: uncontended LLX, SCX and VLX on a private domain, and
/// the exact step counts of the paper's §1 claim: an SCX over k LLXs
/// finalizing f records takes k+1 CAS and f+2 writes; a VLX takes k
/// reads. Every cell k = 1..4, f = 0..k is checked; the metrics report
/// the cell k = 3, f = 1.
pub fn primitive(slice: Duration, m: &mut Metrics, checks: &mut Checks) {
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    for k in 1..=4usize {
        for f in 0..=k {
            let d: Domain<1, u64> = Domain::with_stats();
            let g = llx_scx::pin();
            let recs: Vec<_> = (0..k).map(|i| d.alloc(i as u64, [0])).collect();
            // SAFETY: the records were just allocated and are retired only below.
            let refs: Vec<_> = recs.iter().map(|&r| unsafe { &*r }).collect();
            let snaps: Vec<_> = refs
                .iter()
                .map(|r| d.llx(r, &g).snapshot().expect("uncontended LLX"))
                .collect();
            let s0 = d.stats().expect("stats domain");
            let ok = d.vlx(&snaps);
            let s1 = d.stats().expect("stats domain");
            let mask = (1u64 << f) - 1;
            let committed = d.scx(
                ScxRequest::new(&snaps, FieldId::new(k - 1, 0), 7).finalize_mask(mask),
                &g,
            );
            let s2 = d.stats().expect("stats domain");
            let (vlx, scx) = (s1.diff(&s0), s2.diff(&s1));
            let (cas, writes, reads) = (scx.total_cas(), scx.total_writes(), vlx.reads);
            if !ok
                || !committed
                || cas != k as u64 + 1
                || writes != f as u64 + 2
                || reads != k as u64
            {
                failures.push(format!(
                    "k={k} f={f}: vlx {ok} with {reads} reads (want {k}), scx {committed} with {cas} CAS (want {}) and {writes} writes (want {})",
                    k + 1,
                    f + 2
                ));
            }
            if (k, f) == (3, 1) {
                cells = vec![cas, writes, reads];
            }
            for r in recs {
                // SAFETY: allocated above, unreachable from any shared structure, retired once.
                unsafe { d.retire(r, &g) };
            }
        }
    }
    checks.push((
        "llx-scx.step_counts".into(),
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        },
    ));
    m.put("llx-scx.cas_per_scx", "count", cells[0] as f64);
    m.put("llx-scx.writes_per_scx", "count", cells[1] as f64);
    m.put("llx-scx.reads_per_vlx", "count", cells[2] as f64);

    let d: Domain<1, u64> = Domain::new();
    let recs: Vec<_> = (0..3u64).map(|i| d.alloc(i, [0])).collect();
    // SAFETY: as above; the records outlive every guard below.
    let refs: Vec<_> = recs.iter().map(|&r| unsafe { &*r }).collect();
    {
        let g = llx_scx::pin();
        put_batched(
            m,
            "llx-scx.llx_ns",
            batched(slice, 1000, || {
                black_box(d.llx(black_box(refs[0]), &g).is_fail());
            }),
        );
        let snaps: Vec<_> = refs
            .iter()
            .map(|r| d.llx(r, &g).snapshot().expect("uncontended LLX"))
            .collect();
        put_batched(
            m,
            "llx-scx.vlx_k3_ns",
            batched(slice, 1000, || {
                black_box(d.vlx(black_box(&snaps)));
            }),
        );
    }
    // Each SCX stores a fresh value, so no field ever sees ABA.
    let mut value = 1u64;
    for k in [2usize, 3] {
        let mut h = Hist::default();
        let end = Instant::now() + slice;
        while Instant::now() < end {
            let g = llx_scx::pin();
            for _ in 0..256 {
                let snaps: Vec<_> = refs[..k]
                    .iter()
                    .map(|r| d.llx(r, &g).snapshot().expect("uncontended LLX"))
                    .collect();
                value += 1;
                let t0 = Instant::now();
                let ok = d.scx(
                    ScxRequest::new(&snaps, FieldId::new(k - 1, 0), value).finalize_none(),
                    &g,
                );
                h.record(t0.elapsed().as_nanos() as u64);
                assert!(ok, "an uncontended SCX committed");
            }
        }
        put_p50(m, &format!("llx-scx.scx_k{k}_ns"), &h);
    }
    let g = llx_scx::pin();
    for r in recs {
        // SAFETY: allocated above, never published, retired once.
        unsafe { d.retire(r, &g) };
    }
}

/// `epoch.pin_ns`: one pin plus its drop, on an unpinned thread.
pub fn epoch_pin(slice: Duration, m: &mut Metrics) {
    put_batched(
        m,
        "epoch.pin_ns",
        batched(slice, 1000, || drop(black_box(crossbeam_epoch::pin()))),
    );
}

fn prefilled(spec: &str, stream: &Stream, seed: u64) -> Box<dyn ConcurrentOrderedSet> {
    let set = StructureSpec::parse(spec).expect("a valid spec").build();
    for k in stream.prefill_keys(seed) {
        set.insert(k, 1);
    }
    set
}

/// `multiset.*_per_op` and ratios: the workload's mix over the
/// multiset's key space, replayed by 2 threads through the trait on a
/// step-counting `Multiset`.
pub fn multiset_steps(stream: &Stream, seed: u64, slice: Duration, m: &mut Metrics) {
    let stream = stream.capped(128);
    let ms = multiset::Multiset::<u64>::new_with_stats();
    let set: &dyn ConcurrentOrderedSet = &ms;
    for k in stream.prefill_keys(seed) {
        set.insert(k, 1);
    }
    let s0 = ms.stats().expect("stats multiset");
    let stop = AtomicBool::new(false);
    let ops: u64 = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2u64)
            .map(|t| {
                let (stop, mut gen) = (&stop, stream.ops(seed, 100 + t));
                s.spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // ord: stop flag; publishes no data (the scope join synchronizes)
                        let (op, key) = gen.next_op();
                        black_box(apply(set, op, key));
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        std::thread::sleep(slice);
        stop.store(true, Ordering::Relaxed); // ord: stop flag; publishes no data (the scope join synchronizes)
        hs.into_iter()
            .map(|h| h.join().expect("replay thread"))
            .sum()
    });
    let d = ms.stats().expect("stats multiset").diff(&s0);
    let n = ops as f64;
    m.put_n(
        "multiset.llx_per_op",
        "count",
        ratio(d.llx_attempts as f64, n),
        Some(ops),
    );
    m.put_n(
        "multiset.scx_per_op",
        "count",
        ratio(d.scx_attempts as f64, n),
        Some(ops),
    );
    m.put_n(
        "multiset.cas_per_op",
        "count",
        ratio(d.total_cas() as f64, n),
        Some(ops),
    );
    m.put_n(
        "multiset.helps_per_op",
        "count",
        ratio(d.helps as f64, n),
        Some(ops),
    );
    m.put_n(
        "multiset.scx_commit_ratio",
        "ratio",
        ratio(d.scx_commits as f64, d.scx_attempts as f64),
        Some(d.scx_attempts),
    );
    m.put_n(
        "multiset.llx_snapshot_ratio",
        "ratio",
        ratio(d.llx_snapshots as f64, d.llx_attempts as f64),
        Some(d.llx_attempts),
    );
}

/// `<prefix>.get_ns` / `insert_ns` / `remove_ns`: p50 of single-thread
/// calls through the trait, replaying the stream.
pub fn op_latency(
    prefix: &str,
    spec: &str,
    stream: &Stream,
    seed: u64,
    slice: Duration,
    m: &mut Metrics,
) {
    let set = prefilled(spec, stream, seed);
    let mut gen = stream.ops(seed, 200);
    let mut hs = [Hist::default(), Hist::default(), Hist::default()];
    let end = Instant::now() + slice;
    while Instant::now() < end {
        for _ in 0..64 {
            let (op, key) = gen.next_op();
            let t0 = Instant::now();
            black_box(apply(&*set, op, key));
            hs[op as usize].record(t0.elapsed().as_nanos() as u64);
        }
    }
    for (op, h) in ["get", "insert", "remove"].iter().zip(&hs) {
        put_p50(m, &format!("{prefix}.{op}_ns"), h);
    }
}

/// `conc-set.sharded_op_ns` and `shard_overhead_ns`: mean ns per op of
/// `sharded(chromatic,2)` and of bare `chromatic` on the same op
/// sequence, alternating in batches; returns the sharded figure.
pub fn sharded_overhead(stream: &Stream, seed: u64, slice: Duration, m: &mut Metrics) -> f64 {
    let sharded = prefilled("sharded(chromatic,2)", stream, seed);
    let bare = prefilled("chromatic", stream, seed);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut round = 0u64;
    let end = Instant::now() + 2 * slice;
    while a.len() < 3 || Instant::now() < end {
        for (set, out) in [(&sharded, &mut a), (&bare, &mut b)] {
            let mut gen = stream.ops(seed, 300 + round);
            let t0 = Instant::now();
            for _ in 0..2000 {
                let (op, key) = gen.next_op();
                black_box(apply(&**set, op, key));
            }
            out.push(t0.elapsed().as_nanos() as f64 / 2000.0);
        }
        round += 1;
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (s, b) = (med(&mut a), med(&mut b));
    m.put_n("conc-set.sharded_op_ns", "ns", s, Some(round * 2000));
    m.put_n(
        "conc-set.shard_overhead_ns",
        "ns",
        s - b,
        Some(round * 2000),
    );
    s
}

/// `conc-set.scan_window_ns` and `scan_retries_per_window`: windowed
/// `iter_range` scans of `sharded(chromatic,2)` while one writer
/// replays the stream's updates.
pub fn scan_windows(
    stream: &Stream,
    seed: u64,
    slice: Duration,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let set = prefilled("sharded(chromatic,2)", stream, seed);
    let set: &dyn ConcurrentOrderedSet = &*set;
    let range = SCAN_RANGE.min(stream.keys);
    let stop = AtomicBool::new(false);
    let (mut windows, mut retries, mut busy) = (0u64, 0u64, Duration::ZERO);
    let mut bad = None;
    std::thread::scope(|s| {
        let (stop, mut gen) = (&stop, stream.ops(seed, 400));
        let writer = s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // ord: stop flag; publishes no data (the scope join synchronizes)
                match gen.next_op() {
                    (Op::Get, _) => {}
                    (op, key) => {
                        black_box(apply(set, op, key));
                    }
                }
            }
        });
        let mut gen = stream.ops(seed, 401);
        let mut pairs = Vec::new();
        let end = Instant::now() + slice;
        while windows == 0 || Instant::now() < end {
            let lo = gen.key_below(stream.keys - range + 1);
            let hi = lo + range - 1;
            pairs.clear();
            let t0 = Instant::now();
            let mut it = set.iter_range(lo, hi, ScanOpts::windowed(SCAN_WINDOW));
            pairs.extend(&mut it);
            busy += t0.elapsed();
            windows += it.windows();
            retries += it.retries();
            if let Err(e) = check_scan(lo, hi, &pairs, set.counting()) {
                bad.get_or_insert(format!("scan [{lo},{hi}]: {e}"));
            }
        }
        stop.store(true, Ordering::Relaxed); // ord: stop flag; publishes no data (the scope join synchronizes)
        writer.join().expect("writer thread");
    });
    checks.push(("conc-set.scan_probe".into(), bad.map_or(Ok(()), Err)));
    m.put_n(
        "conc-set.scan_window_ns",
        "ns",
        ratio(busy.as_nanos() as f64, windows as f64),
        Some(windows),
    );
    m.put_n(
        "conc-set.scan_retries_per_window",
        "count",
        ratio(retries as f64, windows as f64),
        Some(windows),
    );
}

/// `netsvc.codec.*`: encode and decode of a point request, a value
/// reply and a full 64-pair scan window. Returns the sum of the four
/// point-op cells (request and reply, each encoded and decoded).
pub fn codec(slice: Duration, m: &mut Metrics, checks: &mut Checks) -> f64 {
    let req = Request::Insert {
        structure: 0,
        key: 0x1234_5678,
        count: 1,
    };
    let resp = Response::Value(1);
    let window = Response::ScanWindow((0..SCAN_WINDOW).map(|k| (k * 3, 1)).collect());
    let mut buf = Vec::with_capacity(2048);
    let mut point = 0.0;
    // Decoding is timed without the round-trip comparison, which runs
    // once below.
    let mut time = |name: &str,
                    is_point: bool,
                    encode: &dyn Fn(&mut Vec<u8>),
                    decode: &dyn Fn(&[u8]) -> bool| {
        let enc = batched(slice, 1000, || {
            buf.clear();
            encode(black_box(&mut buf));
        });
        let dec = batched(slice, 1000, || {
            black_box(decode(black_box(&buf)));
        });
        if is_point {
            point += enc.0 + dec.0;
        }
        put_batched(m, &format!("netsvc.codec.{name}_encode_ns"), enc);
        put_batched(m, &format!("netsvc.codec.{name}_decode_ns"), dec);
    };
    time("req", true, &|b| req.encode(b), &|p| {
        black_box(Request::decode(p)).is_ok()
    });
    time("resp", true, &|b| resp.encode(b), &|p| {
        black_box(Response::decode(p)).is_ok()
    });
    time("scanwindow", false, &|b| window.encode(b), &|p| {
        black_box(Response::decode(p)).is_ok()
    });
    let ok = roundtrip(&|b| req.encode(b), Request::decode) == Ok(req)
        && roundtrip(&|b| resp.encode(b), Response::decode) == Ok(resp.clone())
        && roundtrip(&|b| window.encode(b), Response::decode) == Ok(window.clone());
    checks.push((
        "netsvc.codec.roundtrip".into(),
        if ok {
            Ok(())
        } else {
            Err("a decoded frame differs from the encoded one".into())
        },
    ));
    point
}

fn roundtrip<T>(
    encode: &dyn Fn(&mut Vec<u8>),
    decode: fn(&[u8]) -> Result<T, String>,
) -> Result<T, String> {
    let mut buf = Vec::new();
    encode(&mut buf);
    decode(&buf)
}
