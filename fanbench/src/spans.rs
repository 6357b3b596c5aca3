//! Benchmark-side spans around each call into a layer of the program:
//! name, start, end, parent and request id, kept in memory while the
//! traced run measures, written out at the end, and reduced to per-layer
//! self time (a span's duration minus the part of it its children
//! cover).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent of nested spans.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// In-memory span store; a disabled store records nothing, so the
/// untraced run pays one branch per call.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; `None` when the store is disabled.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Opens a span whose end is set by [`Spans::close`] — for parents,
    /// which must exist before their children record.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans.lock().expect("span store poisoned")[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// seconds (measured whether or not the store records).
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, request);
        (out, (end - start).as_secs_f64())
    }

    /// Total self seconds per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (span, kids) in spans.iter().zip(children.iter_mut()) {
            let covered = union_within(kids, span.start_ns, span.end_ns);
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(covered);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans.lock().expect("span store poisoned").iter() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]` (children
/// may run concurrently on several threads, so they can overlap).
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut kids = vec![(10, 30), (20, 40), (50, 60), (90, 120)];
        assert_eq!(union_within(&mut kids, 0, 100), 30 + 10 + 10);
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::new(true);
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let parent = spans.record("pass", ms(0), ms(100), None, 1);
        spans.record("query", ms(10), ms(40), parent, 1);
        spans.record("query", ms(30), ms(60), parent, 1);
        let own = spans.self_seconds();
        assert!((own["pass"] - 0.050).abs() < 1e-6);
        assert!((own["query"] - 0.060).abs() < 1e-6);
    }

    #[test]
    fn disabled_store_records_nothing() {
        let spans = Spans::new(false);
        let ((), _) = spans.time("x", None, 0, || ());
        assert!(spans.self_seconds().is_empty());
    }
}
