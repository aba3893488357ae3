//! In-memory span and count recorder of the traced run.
//!
//! A span is one call from the benchmark into a layer's public function:
//! name, start, end, the span that was open when it began, and the units of
//! work it did (µ-ops, slices, cells). Deterministic counts are kept apart
//! from the timings. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    work: u64,
}

/// Records spans and counts while switched on; a pass-through otherwise.
pub struct Tracer {
    t0: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` that did `work` units of work.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        work: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.span_by(name, f, |_| work)
    }

    /// [`Tracer::span`] for calls whose work is known only from their result.
    pub fn span_by<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
        work: impl FnOnce(&R) -> u64,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            work: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].work = work(&out);
        out
    }

    /// Adds `n` to the deterministic count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// A position in the span log; [`Tracer::totals_since`] aggregates after it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total duration (ns) and work of the spans named `name` recorded since `mark`.
    pub fn totals_since(&self, mark: usize, name: &str) -> (u64, u64) {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, work), s| {
                (ns + (s.end_ns - s.start_ns), work + s.work)
            })
    }

    /// Nanoseconds per unit of work of the spans named `name` since `mark`.
    pub fn ns_per_unit_since(&self, mark: usize, name: &str) -> f64 {
        let (ns, work) = self.totals_since(mark, name);
        ns as f64 / work.max(1) as f64
    }

    /// The span log as JSON lines, followed by one line holding the counts.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"work\": {}}}",
                s.name, s.start_ns, s.end_ns, s.work
            );
        }
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(out, "{{\"counts\": {{{}}}}}", counts.join(", "));
        out
    }
}
