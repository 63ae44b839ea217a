//! In-memory spans around the benchmark's calls into the crates.
//!
//! A span is `(name, start, end, parent)`. Phase spans (`iteration`,
//! `setup`, `converge`, `check`) are always recorded: the end-to-end times
//! are their durations. Layer spans (`net.build`, `sim.run`, ...) are
//! recorded only in a traced run. Nothing is written while the workload
//! runs; [`Tracer::write_jsonl`] dumps the spans once it has ended.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    layers: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records layer spans only when `layers` is set.
    pub fn new(layers: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            layers,
            spans: Vec::with_capacity(64),
            open: Vec::with_capacity(8),
        }
    }

    /// Whether layer spans (and the decorators that go with them) are on.
    pub fn layers(&self) -> bool {
        self.layers
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a phase span, recorded in every run.
    pub fn phase(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Opens a layer span, recorded only in a traced run.
    pub fn enter(&mut self, name: &'static str) {
        if self.layers {
            self.phase(name);
        }
    }

    /// Closes the innermost open phase span.
    pub fn end_phase(&mut self) {
        let id = self.open.pop().expect("end_phase without an open span");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes the innermost open layer span (a no-op in an untraced run).
    pub fn exit(&mut self) {
        if self.layers {
            self.end_phase();
        }
    }

    /// Runs `f` inside a layer span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    /// Total duration of every closed span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Writes the spans as JSON lines: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        assert!(self.open.is_empty(), "every span is closed before writing");
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
