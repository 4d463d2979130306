//! In-memory spans for the traced run.
//!
//! Each load thread owns a [`Tracer`]. A span records its name, start,
//! end, parent span and request id; spans of one request share the
//! request id. Every span also feeds a per-name duration histogram, so
//! the per-layer timings use every call even when the span buffer is
//! full. Spans are written out as JSON lines once the run ends.

use std::io::Write;
use std::time::Instant;

use crate::hist::Hist;

/// Spans kept per thread; later ones still feed the histograms.
const SPAN_CAP: usize = 10_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer and per-name duration histograms.
pub struct Tracer {
    base: Instant,
    next: u64,
    spans: Vec<Span>,
    hists: Vec<(&'static str, Hist)>,
}

impl Tracer {
    /// A tracer whose span ids are unique among tracers with distinct
    /// `thread` numbers and whose times count from `base`.
    pub fn new(base: Instant, thread: u64) -> Tracer {
        Tracer {
            base,
            next: (thread + 1) << 40,
            spans: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// A fresh span id, taken before the span's children are recorded.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Record the span `id` and its duration.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = start.duration_since(self.base).as_nanos() as u64;
        let end_ns = end.duration_since(self.base).as_nanos() as u64;
        self.hist(name).record(end_ns - start_ns);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id,
                parent,
                req,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Record a child span with a fresh id.
    pub fn child(
        &mut self,
        parent: u64,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let id = self.id();
        self.record(id, parent, req, name, start, end);
    }

    fn hist(&mut self, name: &'static str) -> &mut Hist {
        let i = match self.hists.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.hists.push((name, Hist::default()));
                self.hists.len() - 1
            }
        };
        &mut self.hists[i].1
    }
}

/// The merged spans and histograms of every tracer of a run.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    hists: Vec<(&'static str, Hist)>,
}

impl Trace {
    /// Merge one thread's tracer. Spans whose parent fell past the
    /// buffer cap are dropped with it, so every kept parent resolves.
    pub fn absorb(&mut self, t: Tracer) {
        let ids: std::collections::HashSet<u64> = t.spans.iter().map(|s| s.id).collect();
        self.spans.extend(
            t.spans
                .into_iter()
                .filter(|s| s.parent == 0 || ids.contains(&s.parent)),
        );
        for (name, h) in t.hists {
            match self.hists.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => mine.merge(&h),
                None => self.hists.push((name, h)),
            }
        }
    }

    /// The duration histogram of spans named `name` (empty if none).
    pub fn durations(&self, name: &str) -> Hist {
        self.hists
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
