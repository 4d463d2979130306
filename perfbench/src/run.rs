//! The three workloads: their parameters, set-up, closed load loops and
//! end-of-run correctness checks.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use conc_set::{ConcurrentOrderedSet, ScanOpts, StructureSpec};
use netsvc::{Client, NetError, Request, Response, Server, ServerConfig};

use crate::gen::{Mix, Op, OpGen, Stream};
use crate::hist::Hist;
use crate::trace::Tracer;

/// Shard partition domain of the service's `sharded(chromatic,2)`; the
/// library default (1024) would put nearly every key in the last shard.
pub const SHARD_DOMAIN: u64 = 65536;
/// Keys per streamed scan request.
pub const SCAN_RANGE: u64 = 1024;
/// Keys per validated scan window.
pub const SCAN_WINDOW: u64 = 64;
/// A point op or scan slower than this counts as failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(1);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Two threads call the structure in-process.
    Embedded,
    /// A loopback server; each connection pipelines `depth` point ops.
    Service,
}

/// One workload's fixed parameters.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub spec: &'static str,
    pub stream: Stream,
    /// Point-op load threads (one connection each for a service).
    pub point_threads: usize,
    /// Pipeline depth of each point connection.
    pub depth: usize,
    /// A scan connection runs beside the point load for the whole run.
    /// Otherwise the last fifth of each measured window runs a scanner
    /// beside one point thread (see [`Workload::scan_share`]).
    pub concurrent_scans: bool,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "embed-churn",
        kind: Kind::Embedded,
        spec: "scx-multiset",
        stream: Stream {
            keys: 128,
            prefill: 64,
            mix: Mix {
                get: 50,
                insert: 25,
                remove: 25,
            },
        },
        point_threads: 2,
        depth: 1,
        concurrent_scans: false,
        why: "the paper's multiset in-process: LLX/SCX, the epoch shim and the SCX-record pool do nearly all the work, netsvc none",
    },
    Workload {
        name: "svc-rtt",
        kind: Kind::Service,
        spec: "sharded(chromatic,2)",
        stream: Stream {
            keys: SHARD_DOMAIN,
            prefill: SHARD_DOMAIN / 2,
            mix: Mix {
                get: 90,
                insert: 5,
                remove: 5,
            },
        },
        point_threads: 2,
        depth: 1,
        concurrent_scans: false,
        why: "one request per batch, so syscalls, wakeups and the codec are nearly the whole round trip; read-mostly, so reclamation stays quiet",
    },
    Workload {
        name: "svc-scan-mix",
        kind: Kind::Service,
        spec: "sharded(chromatic,2)",
        stream: Stream {
            keys: SHARD_DOMAIN,
            prefill: SHARD_DOMAIN / 2,
            mix: Mix {
                get: 50,
                insert: 25,
                remove: 25,
            },
        },
        point_threads: 1,
        depth: 16,
        concurrent_scans: true,
        why: "batched points shift cost to codec, batch execution and the tree; streamed scans beside the writer drive the windowed cursor",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The parameters as a JSON object, for the run's report line.
    pub fn params_json(&self) -> String {
        let m = self.stream.mix;
        format!(
            "{{\"structure\": \"{}\", \"keys\": {}, \"prefill\": {}, \"shard_domain\": {}, \
             \"mix_get_insert_remove_pct\": [{}, {}, {}], \"count\": 1, \"point_threads\": {}, \
             \"connections\": {}, \"depth\": {}, \"scan_range\": {}, \"scan_window\": {}, \
             \"scans\": \"{}\", \"loop\": \"closed\"}}",
            self.spec,
            self.stream.keys,
            self.stream.prefill,
            SHARD_DOMAIN,
            m.get,
            m.insert,
            m.remove,
            self.point_threads,
            self.connections(),
            self.depth,
            SCAN_RANGE.min(self.stream.keys),
            SCAN_WINDOW,
            if self.concurrent_scans {
                "beside the point load"
            } else {
                "beside one point thread, last fifth of each window"
            }
        )
    }

    pub fn connections(&self) -> usize {
        match self.kind {
            Kind::Embedded => 0,
            Kind::Service => self.point_threads + usize::from(self.concurrent_scans),
        }
    }
}

/// What a phase did, and what went wrong in it.
#[derive(Default)]
pub struct Tally {
    /// Point ops answered inside the measured window.
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Insert and remove ops attempted.
    pub updates: u64,
    /// Σ inserted − Σ removed, from the returned outcomes.
    pub net: i64,
    /// Point-op latency, ns.
    pub lat: Hist,
    pub scans: u64,
    pub scan_keys: u64,
    /// Scan latency, request to completion, ns.
    pub scan_lat: Hist,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        self.ops += o.ops;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.updates += o.updates;
        self.net += o.net;
        self.lat.merge(&o.lat);
        self.scans += o.scans;
        self.scan_keys += o.scan_keys;
        self.scan_lat.merge(&o.scan_lat);
        for e in o.errors {
            self.fail_msg(e);
        }
    }

    fn fail_msg(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.fail_msg(msg);
    }

    /// Account one point op's reply: check it against its request,
    /// apply it to the ledger and, if `counted`, to the window.
    fn point(
        &mut self,
        op: Op,
        key: u64,
        reply: Result<u64, String>,
        lat: Duration,
        counting: bool,
        counted: bool,
    ) {
        self.attempted += 1;
        if op != Op::Get {
            self.updates += 1;
        }
        let v = match reply {
            Ok(v) => v,
            Err(e) => return self.fail(format!("{op:?}({key}): {e}")),
        };
        let plausible = match op {
            Op::Get => counting || v <= 1,
            Op::Insert => (counting && v == 1) || (!counting && v <= 1),
            Op::Remove => v <= 1,
        };
        if !plausible {
            return self.fail(format!("{op:?}({key}) answered {v}"));
        }
        match op {
            Op::Insert => self.net += v as i64,
            Op::Remove => self.net -= v as i64,
            Op::Get => {}
        }
        if lat > OP_DEADLINE {
            return self.fail(format!(
                "{op:?}({key}) missed the {OP_DEADLINE:?} deadline: {lat:?}"
            ));
        }
        if counted {
            self.ops += 1;
            self.lat.record(lat.as_nanos() as u64);
        }
    }

    /// Account one scan of `[lo, hi]` that returned `pairs` (or failed).
    fn scan(
        &mut self,
        lo: u64,
        hi: u64,
        pairs: Result<&[(u64, u64)], String>,
        lat: Duration,
        counting: bool,
    ) {
        self.attempted += 1;
        let pairs = match pairs {
            Ok(p) => p,
            Err(e) => return self.fail(format!("scan [{lo},{hi}]: {e}")),
        };
        if let Err(e) = check_scan(lo, hi, pairs, counting) {
            return self.fail(format!("scan [{lo},{hi}]: {e}"));
        }
        if lat > OP_DEADLINE {
            return self.fail(format!(
                "scan [{lo},{hi}] missed the {OP_DEADLINE:?} deadline: {lat:?}"
            ));
        }
        self.scans += 1;
        self.scan_keys += pairs.len() as u64;
        self.scan_lat.record(lat.as_nanos() as u64);
    }
}

/// Scan output must be strictly ascending (so free of duplicates),
/// inside `[lo, hi]`, with a count of at least 1 (exactly 1 for a
/// distinct set).
pub fn check_scan(lo: u64, hi: u64, pairs: &[(u64, u64)], counting: bool) -> Result<(), String> {
    let mut prev: Option<u64> = None;
    for &(k, c) in pairs {
        if k < lo || k > hi {
            return Err(format!("key {k} outside the range"));
        }
        if prev.is_some_and(|p| p >= k) {
            return Err(format!(
                "key {k} after {} (unsorted or duplicate)",
                prev.unwrap_or(0)
            ));
        }
        if c == 0 || (!counting && c != 1) {
            return Err(format!("key {k} has count {c}"));
        }
        prev = Some(k);
    }
    Ok(())
}

/// The structure under load: in-process, or behind a loopback server.
pub enum Target {
    Local(Box<dyn ConcurrentOrderedSet>),
    Served(Server),
}

impl Target {
    pub fn counting(&self) -> bool {
        match self {
            Target::Local(set) => set.counting(),
            Target::Served(_) => self.set().counting(),
        }
    }

    pub fn set(&self) -> std::sync::Arc<dyn ConcurrentOrderedSet> {
        match self {
            Target::Local(_) => unreachable!("an in-process target has no shared handle"),
            Target::Served(server) => server.structure(0).expect("the server hosts structure 0"),
        }
    }

    pub fn teardown(self) {
        if let Target::Served(server) = self {
            server.shutdown();
        }
    }
}

/// Build the structure, prefill it and (for a service) spawn the
/// server: everything `setup_s` times.
pub fn setup(w: &Workload, seed: u64) -> Result<Target, String> {
    let spec = StructureSpec::parse(w.spec).map_err(|e| e.to_string())?;
    let keys = w.stream.prefill_keys(seed);
    let prefill = |set: &dyn ConcurrentOrderedSet| -> Result<(), String> {
        for &k in &keys {
            if set.insert(k, 1) != 1 {
                return Err(format!("prefill insert of {k} added nothing"));
            }
        }
        Ok(())
    };
    match w.kind {
        Kind::Embedded => {
            let set = spec.build();
            prefill(&*set)?;
            Ok(Target::Local(set))
        }
        Kind::Service => {
            let config = ServerConfig {
                addr: "127.0.0.1:0".into(),
                ..ServerConfig::default()
            };
            let server =
                Server::spawn(&[spec], config).map_err(|e| format!("spawn server: {e}"))?;
            prefill(&*server.structure(0).expect("the server hosts structure 0"))?;
            Ok(Target::Served(server))
        }
    }
}

/// Which load threads a phase runs: `points` point-op threads (one
/// connection each for a service), and optionally one scanner beside
/// them (on the next connection).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub points: usize,
    pub scanner: bool,
}

impl Workload {
    /// The workload's own load.
    pub fn shape(&self) -> Shape {
        Shape {
            points: self.point_threads,
            scanner: self.concurrent_scans,
        }
    }

    /// The scan share of a workload without a scan connection of its
    /// own: one point thread keeps the structure changing while the
    /// other thread scans.
    pub fn scan_share(&self) -> Shape {
        Shape {
            points: 1,
            scanner: true,
        }
    }
}

/// Run `shape`'s load threads for `dur`. `stream_base` separates the
/// seeded op sequences of successive phases; point ops count toward
/// the window only if `counted`. With `base` set, each load thread
/// records spans against it. A service phase opens its own
/// connections and closes them at the end, so the server's session
/// threads start afresh with every phase.
#[allow(clippy::too_many_arguments)]
pub fn load_phase(
    w: &Workload,
    target: &mut Target,
    shape: Shape,
    seed: u64,
    stream_base: u64,
    dur: Duration,
    counted: bool,
    base: Option<Instant>,
) -> (Tally, f64, Vec<Tracer>) {
    let stop = AtomicBool::new(false);
    let stop = &stop;
    let stream = &w.stream;
    let keys = stream.keys;
    let counting = target.counting();
    let tracer = |i: u64| base.map(|b| Tracer::new(b, stream_base + i));
    let mut parts = Vec::new();
    let mut tracers = Vec::new();
    let mut clients = Vec::new();
    if let Target::Served(server) = target {
        for _ in 0..shape.points + usize::from(shape.scanner) {
            match Client::connect(server.local_addr()) {
                Ok(c) => clients.push(c),
                Err(e) => {
                    let mut t = Tally::default();
                    t.attempted += 1;
                    t.fail(format!("connect: {e}"));
                    return (t, dur.as_secs_f64(), Vec::new());
                }
            }
        }
    }
    let started = Instant::now();
    let elapsed = std::thread::scope(|s| {
        let mut handles = Vec::new();
        let scan_gen = stream.ops(seed, stream_base + 8);
        match target {
            Target::Local(set) => {
                let set: &dyn ConcurrentOrderedSet = &**set;
                for t in 0..shape.points as u64 {
                    let gen = stream.ops(seed, stream_base + t);
                    let tr = tracer(t);
                    handles.push(
                        s.spawn(move || embedded_points(set, gen, stop, counting, counted, tr)),
                    );
                }
                if shape.scanner {
                    handles.push(
                        s.spawn(move || (local_scans(set, keys, scan_gen, stop, counting), None)),
                    );
                }
            }
            Target::Served(_) => {
                let (points, rest) = clients.split_at_mut(shape.points);
                for (t, client) in points.iter_mut().enumerate() {
                    let t = t as u64;
                    let gen = stream.ops(seed, stream_base + t);
                    let tr = tracer(t);
                    let depth = w.depth;
                    handles.push(s.spawn(move || {
                        conn_points(client, depth, gen, stop, counting, counted, tr)
                    }));
                }
                if shape.scanner {
                    let client = &mut rest[0];
                    let tr = tracer(8);
                    handles.push(
                        s.spawn(move || conn_scans(client, keys, scan_gen, stop, counting, tr)),
                    );
                }
            }
        }
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed); // ord: stop flag; publishes no data (the scope join synchronizes)
        let elapsed = started.elapsed().as_secs_f64();
        for h in handles {
            match h.join() {
                Ok((tally, tr)) => {
                    parts.push(tally);
                    tracers.extend(tr);
                }
                Err(p) => {
                    let mut t = Tally::default();
                    t.fail(format!("load thread panicked: {}", panic_msg(&p)));
                    parts.push(t);
                }
            }
        }
        elapsed
    });
    let mut tally = Tally::default();
    for p in parts {
        tally.merge(p);
    }
    (tally, elapsed, tracers)
}

pub fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Get => "conc-set.get",
        Op::Insert => "conc-set.insert",
        Op::Remove => "conc-set.remove",
    }
}

/// One point op through the trait.
pub fn apply(set: &dyn ConcurrentOrderedSet, op: Op, key: u64) -> u64 {
    match op {
        Op::Get => set.get(key),
        Op::Insert => set.insert(key, 1),
        Op::Remove => set.remove(key, 1),
    }
}

fn embedded_points(
    set: &dyn ConcurrentOrderedSet,
    mut gen: OpGen,
    stop: &AtomicBool,
    counting: bool,
    counted: bool,
    mut tr: Option<Tracer>,
) -> (Tally, Option<Tracer>) {
    let mut tally = Tally::default();
    let mut req = 0u64;
    while !stop.load(Ordering::Relaxed) {
        // ord: stop flag; publishes no data (the scope join synchronizes)
        let t_gen = tr.as_ref().map(|_| Instant::now());
        let (op, key) = gen.next_op();
        let t0 = Instant::now();
        let v = apply(set, op, key);
        let t1 = Instant::now();
        tally.point(op, key, Ok(v), t1 - t0, counting, counted);
        if let (Some(tr), Some(tg)) = (tr.as_mut(), t_gen) {
            req += 1;
            let root = tr.id();
            tr.child(root, req, op_name(op), t0, t1);
            tr.record(root, 0, req, "embed.op", tg, Instant::now());
        }
    }
    (tally, tr)
}

fn local_scans(
    set: &dyn ConcurrentOrderedSet,
    keys: u64,
    mut gen: OpGen,
    stop: &AtomicBool,
    counting: bool,
) -> Tally {
    let range = SCAN_RANGE.min(keys);
    let mut tally = Tally::default();
    let mut pairs = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        // ord: stop flag; publishes no data (the scope join synchronizes)
        let lo = gen.key_below(keys - range + 1);
        let hi = lo + range - 1;
        pairs.clear();
        let t0 = Instant::now();
        pairs.extend(set.iter_range(lo, hi, ScanOpts::windowed(SCAN_WINDOW)));
        let lat = t0.elapsed();
        tally.scan(lo, hi, Ok(&pairs), lat, counting);
    }
    tally
}

fn request(op: Op, key: u64) -> Request {
    match op {
        Op::Get => Request::Get { structure: 0, key },
        Op::Insert => Request::Insert {
            structure: 0,
            key,
            count: 1,
        },
        Op::Remove => Request::Remove {
            structure: 0,
            key,
            count: 1,
        },
    }
}

struct InFlight {
    op: Op,
    key: u64,
    sent: Instant,
    root: u64,
    req: u64,
}

/// A closed loop over one connection keeping `depth` point requests in
/// flight: each reply is matched to the oldest request, then one new
/// request is sent and flushed.
fn conn_points(
    client: &mut Client,
    depth: usize,
    mut gen: OpGen,
    stop: &AtomicBool,
    counting: bool,
    counted: bool,
    mut tr: Option<Tracer>,
) -> (Tally, Option<Tracer>) {
    let mut tally = Tally::default();
    let mut queue: VecDeque<InFlight> = VecDeque::with_capacity(depth);
    let mut req = 0u64;
    let mut issue =
        |client: &mut Client, queue: &mut VecDeque<InFlight>, tr: &mut Option<Tracer>| {
            let (op, key) = gen.next_op();
            req += 1;
            let t0 = Instant::now();
            let r = client.send(&request(op, key));
            let root = tr.as_mut().map_or(0, |tr| {
                let root = tr.id();
                tr.child(root, req, "netsvc.client.send", t0, Instant::now());
                root
            });
            queue.push_back(InFlight {
                op,
                key,
                sent: t0,
                root,
                req,
            });
            r
        };
    let flush = |client: &mut Client, queue: &VecDeque<InFlight>, tr: &mut Option<Tracer>| {
        let t0 = Instant::now();
        let r = client.flush();
        if let (Some(tr), Some(last)) = (tr.as_mut(), queue.back()) {
            tr.child(
                last.root,
                last.req,
                "netsvc.client.flush",
                t0,
                Instant::now(),
            );
        }
        r
    };
    let result = (|| -> Result<(), NetError> {
        for _ in 0..depth {
            issue(client, &mut queue, &mut tr)?;
        }
        flush(client, &queue, &mut tr)?;
        let mut draining = false;
        while let Some(front) = queue.front() {
            let (op, key, sent, root, rq) =
                (front.op, front.key, front.sent, front.root, front.req);
            let t0 = Instant::now();
            // On a failed receive the request stays queued and is
            // counted lost below.
            let resp = client.recv()?;
            let t1 = Instant::now();
            queue.pop_front();
            if let Some(tr) = tr.as_mut() {
                tr.child(root, rq, "netsvc.client.recv", t0, t1);
                tr.record(root, 0, rq, "svc.op", sent, t1);
            }
            let reply = match resp {
                Response::Value(v) => Ok(v),
                Response::Busy => Err("Busy".to_string()),
                other => Err(format!("answered {other:?}")),
            };
            tally.point(op, key, reply, t1 - sent, counting, counted && !draining);
            draining = draining || stop.load(Ordering::Relaxed); // ord: stop flag; publishes no data (the scope join synchronizes)
            if !draining {
                issue(client, &mut queue, &mut tr)?;
                flush(client, &queue, &mut tr)?;
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        // The connection is unusable: everything still in flight is lost.
        let lost = (queue.len() as u64).max(1);
        tally.attempted += lost;
        tally.failed += lost;
        tally.fail_msg(format!(
            "connection failed with {lost} requests in flight: {e}"
        ));
    }
    (tally, tr)
}

/// Back-to-back streamed `RangeScan`s over `SCAN_RANGE`-key ranges with
/// uniform starts, each checked when its `ScanDone` arrives.
fn conn_scans(
    client: &mut Client,
    keys: u64,
    mut gen: OpGen,
    stop: &AtomicBool,
    counting: bool,
    mut tr: Option<Tracer>,
) -> (Tally, Option<Tracer>) {
    let range = SCAN_RANGE.min(keys);
    let mut tally = Tally::default();
    let mut pairs = Vec::new();
    let mut req = 0u64;
    while !stop.load(Ordering::Relaxed) {
        // ord: stop flag; publishes no data (the scope join synchronizes)
        let lo = gen.key_below(keys - range + 1);
        let hi = lo + range - 1;
        req += 1;
        let root = tr.as_mut().map_or(0, |tr| tr.id());
        pairs.clear();
        let t0 = Instant::now();
        let outcome = (|| -> Result<(), String> {
            client
                .send(&Request::RangeScan {
                    structure: 0,
                    lo,
                    hi,
                    window: SCAN_WINDOW,
                })
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            client.flush().map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            if let Some(tr) = tr.as_mut() {
                tr.child(root, req, "netsvc.client.scan_send", t0, t1);
                tr.child(root, req, "netsvc.client.scan_flush", t1, t2);
            }
            loop {
                let r0 = Instant::now();
                let resp = client.recv().map_err(|e| e.to_string())?;
                if let Some(tr) = tr.as_mut() {
                    tr.child(root, req, "netsvc.client.scan_recv", r0, Instant::now());
                }
                match resp {
                    Response::ScanWindow(w) => pairs.extend(w),
                    Response::ScanDone => return Ok(()),
                    other => return Err(format!("answered {other:?}")),
                }
            }
        })();
        let t_end = Instant::now();
        if let Some(tr) = tr.as_mut() {
            tr.record(root, 0, req, "svc.scan", t0, t_end);
        }
        let broken = outcome.as_ref().is_err_and(|e| !e.starts_with("answered"));
        tally.scan(lo, hi, outcome.map(|()| &pairs[..]), t_end - t0, counting);
        if broken {
            break;
        }
    }
    (tally, tr)
}

/// The end-of-run checks: ledger conservation (prefill + Σ inserted −
/// Σ removed = `len()`), then the structure's own `validate()`.
pub fn final_checks(w: &Workload, target: &Target, net: i64) -> Vec<(String, Result<(), String>)> {
    let held;
    let set: &dyn ConcurrentOrderedSet = match target {
        Target::Local(set) => &**set,
        Target::Served(_) => {
            held = target.set();
            &*held
        }
    };
    let expect = w.stream.prefill as i64 + net;
    let len = set.len() as i64;
    let ledger = if len == expect {
        Ok(())
    } else {
        Err(format!(
            "len() = {len}, but prefill + inserted - removed = {expect}"
        ))
    };
    vec![
        ("ledger".into(), ledger),
        ("validate".into(), set.validate()),
    ]
}
