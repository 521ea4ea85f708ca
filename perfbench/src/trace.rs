//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span has a name, a start and end on the benchmark's monotonic clock,
//! a parent, and the id of the trace (one replayed request) it belongs
//! to. A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Spans stay in memory until the run
//! ends and are then written out as JSON lines.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `global.decode`.
    pub name: &'static str,
    /// Trace this span belongs to.
    pub trace: u64,
    /// Index of this span in the recorder.
    pub id: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Heap allocations made by this thread inside the span.
    pub allocs: u64,
    /// Heap bytes requested by this thread inside the span.
    pub alloc_bytes: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one thread's replay.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, (u64, u64))>,
    trace: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new trace; spans opened from now on belong to it.
    pub fn begin_trace(&mut self) -> u64 {
        self.trace += 1;
        self.trace
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().map(|(p, _)| *p);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace: self.trace,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push((id, alloc::snapshot()));
        let out = f(self);
        let (_, (a0, b0)) = self
            .open
            .pop()
            .expect("span stack is balanced by construction");
        let (a1, b1) = alloc::snapshot();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = a1 - a0;
        span.alloc_bytes = b1 - b0;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                s.trace, s.id, parent, s.name, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor).min(s.end_ns);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: `(calls, total self ns, total allocations, total
/// allocated bytes)`. Allocations are the span's own, children included.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
        e.2 += s.allocs;
        e.3 += s.alloc_bytes;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: "x",
            trace: 1,
            id,
            parent,
            start_ns: start,
            end_ns: end,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,90).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children overlap each other and one runs past the parent's end.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
            span(3, Some(0), 90, 150),
        ];
        // Covered: [10,80) = 70 and [90,100) = 10.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn grandchildren_reduce_only_their_parent() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 50),
            span(2, Some(1), 10, 40),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn tracer_nests_and_sums_to_root() {
        let mut t = Tracer::new();
        let trace = t.begin_trace();
        t.span("root", |t| {
            t.span("a", |_| std::hint::black_box(1 + 1));
            t.span("b", |t| t.span("c", |_| ()));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.trace == trace));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let total: u64 = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 4);
    }
}
