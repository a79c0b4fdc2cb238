//! Span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into the crates
//! (no tracing inside the program): name, start, end, parent and cell.
//! They stay in memory and are written out once, when the run ends.
//! With recording off, `open`/`close` still time the call, so the
//! untraced passes pay two `Instant::now()` calls per span and nothing
//! else.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nested-span recorder for one thread.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Spans recorded before the buffer must grow. Reserved up front so
/// recording a span never allocates inside a pass (the allocation
/// counts of traced and untraced passes must match exactly).
const CAPACITY: usize = 1 << 16;

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { CAPACITY } else { 0 }),
            stack: Vec::with_capacity(64),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between passes (never inside a span).
    pub fn set_on(&mut self, on: bool) {
        assert!(
            self.stack.is_empty(),
            "span recording toggled inside a span"
        );
        if on && self.spans.capacity() == 0 {
            self.spans.reserve(CAPACITY);
        }
        self.on = on;
    }

    /// Opens a span and returns its start instant.
    pub fn open(&mut self, name: &'static str, cell: Option<usize>) -> Instant {
        let now = Instant::now();
        if self.on && self.spans.len() < self.spans.capacity() {
            self.stack.push(self.spans.len());
            self.spans.push(Span {
                name,
                start_ns: self.ns(now),
                end_ns: 0,
                parent: None,
                cell,
            });
            let id = self.spans.len() - 1;
            self.spans[id].parent = self.stack.iter().rev().nth(1).copied();
        } else if self.on {
            // Buffer full: keep the nesting balanced with a sentinel.
            self.stack.push(usize::MAX);
        }
        now
    }

    /// Closes the innermost open span; returns its duration in seconds.
    pub fn close(&mut self, start: Instant) -> f64 {
        let now = Instant::now();
        if self.on {
            let id = self.stack.pop().expect("close without open");
            if id != usize::MAX {
                self.spans[id].end_ns = self.ns(now);
            }
        }
        (now - start).as_secs_f64()
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t = self.open(name, cell);
        let r = f();
        (r, self.close(t))
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// Self time per span name, in seconds, over the trees whose root
    /// span is named `root` (every tree when `root` is empty): each
    /// span's duration minus the part its direct children cover.
    pub fn self_times_under(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        // Parents are recorded before their children.
        let mut root_of = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            root_of.push(s.parent.map_or(i, |p| root_of[p]));
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if root.is_empty() || self.spans[root_of[i]].name == root {
                *out.entry(s.name).or_insert(0.0) +=
                    s.dur_ns().saturating_sub(child_ns[i]) as f64 * 1e-9;
            }
        }
        out
    }

    /// Spans as JSON lines, after a header line naming the cells.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + header.len() + 1);
        out.push_str(header);
        out.push('\n');
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cell\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.cell.map_or("null".to_string(), |c| c.to_string()),
            );
        }
        out
    }
}
