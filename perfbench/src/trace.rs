//! In-memory spans recorded around the harness's calls into each layer.
//!
//! A span is a named interval with the span that caused it (its parent) and
//! the item it worked on (a patient, a step, a cell). Spans stay in memory
//! while the workload runs and are written out once, at the end, so the
//! file system never sits on the measured path.

use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer boundary this span wraps, e.g. `core.stream.pool_drain`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin (equal to `start` while open).
    pub end: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Patient, step or cell the span worked on.
    pub item: u64,
    /// Work units the span covered (frames, rows, items).
    pub units: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// A thread-safe span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that later child spans can name as their parent; close
    /// it with [`close`](Self::close).
    pub fn open(&self, name: &'static str, parent: u32, item: u64) -> u32 {
        let start = self.now();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            item,
            units: 1,
        });
        u32::try_from(spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Closes span `id`, recording `units` of work.
    pub fn close(&self, id: u32, units: u64) {
        let end = self.now();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        let span = &mut spans[id as usize];
        span.end = end;
        span.units = units;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&self, name: &'static str, parent: u32, item: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent, item);
        let out = f();
        self.close(id, 1);
        out
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Writes the spans as CSV (`id,name,parent,start_ns,end_ns,item,units`).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,parent,start_ns,end_ns,item,units")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i},{},{parent},{},{},{},{}",
                s.name, s.start, s.end, s.item, s.units
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
pub fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children that overlap each other (parallel workers)
/// are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.ns() - covered(kids, s.start, s.end))
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed work units.
    pub units: u64,
}

/// Totals for the spans named `name`.
pub fn totals(spans: &[Span], self_ns: &[u64], name: &str) -> Totals {
    let mut t = Totals::default();
    for (s, &own) in spans.iter().zip(self_ns) {
        if s.name == name {
            t.count += 1;
            t.ns += s.ns();
            t.self_ns += own;
            t.units += s.units;
        }
    }
    t
}

/// Durations in milliseconds of the spans named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e6)
        .collect()
}

/// Wall-clock nanoseconds covered by at least one span named `name`.
pub fn wall_ns(spans: &[Span], name: &str) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.start, s.end))
        .collect();
    covered(&mut iv, 0, u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            item: 0,
            units: 1,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        // [0,3) + [5,12) + [20,25) inside [0,25)
        assert_eq!(covered(&mut iv, 0, 25), 3 + 7 + 5);
        assert_eq!(covered(&mut iv, 6, 9), 3);
        assert_eq!(covered(&mut [], 0, 100), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("pass", 0, 100, ROOT),
            // Two parallel children overlapping on [30, 40).
            span("cell", 10, 40, 0),
            span("cell", 30, 60, 0),
            // A grandchild only reduces its own parent.
            span("predict", 12, 20, 1),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 50, 30 - 8, 30, 8]);
        let cells = totals(&spans, &own, "cell");
        assert_eq!(cells.count, 2);
        assert_eq!(cells.ns, 60);
        assert_eq!(cells.self_ns, 52);
        assert_eq!(wall_ns(&spans, "cell"), 50);
    }

    #[test]
    fn self_times_and_children_account_for_the_root() {
        // Sequential layers: the root's self time plus every child's
        // duration is the root's duration.
        let spans = vec![
            span("step", 0, 1000, ROOT),
            span("push", 100, 150, 0),
            span("push", 300, 340, 0),
            span("drain", 900, 990, 0),
        ];
        let own = self_times(&spans);
        let children: u64 = spans[1..].iter().map(Span::ns).sum();
        assert_eq!(own[0] + children, spans[0].ns());
    }

    #[test]
    fn tracer_records_nested_spans() {
        let t = Tracer::new();
        let parent = t.open("outer", ROOT, 7);
        let inner = t.time("inner", parent, 8, || 42);
        t.close(parent, 3);
        assert_eq!(inner, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].units, 3);
        assert_eq!(spans[1].parent, parent);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
