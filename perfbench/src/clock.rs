//! Host time and the span recorder of the traced pass.
//!
//! This is the only module of the benchmark that reads the host clock, and
//! every read carries a `hexlint` pragma, so the files stay clean under the
//! workspace's `wall-clock` rule wherever they live.

use std::collections::BTreeMap;
// hexlint: allow(wall-clock, reason = "the benchmark measures host time; it never feeds simulated time")
use std::time::Instant;

/// A started host-time measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // hexlint: allow(wall-clock, reason = "the benchmark measures host time; it never feeds simulated time")
    start: Instant,
}

impl Stopwatch {
    /// Start measuring now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            // hexlint: allow(wall-clock, reason = "the benchmark measures host time; it never feeds simulated time")
            start: Instant::now(),
        }
    }

    /// Nanoseconds since the start.
    pub fn ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Seconds since the start.
    pub fn s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// One timed call into a layer: `name` is `<layer>.<call>`, `run` the id
/// shared by all spans of one run (or query), `parent` the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: the part of its name before the first
    /// dot (`engine.simulate` → `engine`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span store. Disabled tracers record nothing and cost one
/// branch per call, so the same loop serves the untraced and traced passes.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Stopwatch,
    pub spans: Vec<Span>,
    /// Counters recorded at the same boundaries (kept even when off).
    pub counts: BTreeMap<String, u64>,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
pub type SpanId = usize;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Stopwatch::start(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, run: u64) -> SpanId {
        if !self.on {
            return usize::MAX;
        }
        let now = self.origin.ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration in nanoseconds (0 when off).
    pub fn end(&mut self, id: SpanId) -> u64 {
        if !self.on {
            return 0;
        }
        let now = self.origin.ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.ns()
    }

    /// Add `n` to counter `name`.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_default() += n;
    }

    /// The value of counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Per-span self time: its duration minus the time its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Total duration of the root spans (those without a parent).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ns)
            .sum()
    }

    /// Share of the root time that `layer` spends in its own code.
    pub fn self_share(&self, layer: &str) -> f64 {
        let own: u64 = self
            .spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.layer() == layer)
            .map(|(_, ns)| ns)
            .sum();
        ratio(own as f64, self.root_ns() as f64)
    }

    /// Summed duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
    }

    /// Mean duration in microseconds of the spans called `name` (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (ns, n) = self.total(name);
        ratio(ns as f64 / 1e3, n as f64)
    }

    /// Write every span as a tab-separated line: id, parent, run, name,
    /// start and end in nanoseconds since the tracer started.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::from("id\tparent\trun\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Whether to set up once more: `setup_s` is the median of at least 9
/// set-ups, then of as many as fit in 2 s (at most 101), because a single
/// set-up is short and this host's noise is not.
pub fn more_setups(done: usize, since: &Stopwatch) -> bool {
    done < 9 || (done < 101 && since.s() < 2.0)
}

/// Run a serial pass traced, untraced and traced again, after the caller's
/// first untraced run took `untraced_s`. Returns the last traced run's
/// spans and the tracing overhead: fastest traced minus fastest untraced
/// wall time (the fastest, because this host's noise is larger than the
/// overhead).
pub fn traced_pass(untraced_s: f64, mut pass: impl FnMut(&mut Tracer)) -> (Tracer, f64) {
    let mut timed = |on: bool| {
        let mut tr = Tracer::new(on);
        let sw = Stopwatch::start();
        pass(&mut tr);
        (tr, sw.s())
    };
    let (_, t0) = timed(true);
    let (_, u1) = timed(false);
    let (tr, t1) = timed(true);
    (tr, t0.min(t1) - untraced_s.min(u1))
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
