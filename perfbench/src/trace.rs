//! In-memory spans recorded by the harness around its calls into each
//! layer, the `TableSource` decorator that times physical page reads, and
//! self-time accounting.
//!
//! The program under test is not instrumented: every span here starts and
//! ends in harness code, at a public function of the layer it is named
//! after (`<layer>.<what>`).  Spans of one op share its op id.

use samplecf_server::Json;
use samplecf_storage::{Page, PageId, PageRead, Rid, RowCodec, Schema, StorageResult, TableSource};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One closed span.  Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// Collects spans in memory; they are written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    // A span guard dropping during a panic must not panic again, and every
    // update leaves the state valid, so a poisoned lock is simply reused.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Set the op id stamped on spans opened from now on.
    pub fn set_op(&self, op: u32) {
        self.state().op = op;
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let mut state = self.state();
        let id = u32::try_from(state.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = state.open.last().copied();
        let op = state.op;
        state.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        state.open.push(id);
        SpanGuard { tracer: self, id }
    }

    /// Record an already-timed span under the currently open one (used for
    /// client-side request spans whose ends are observed on other threads).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, op: u32) {
        let rel = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let mut state = self.state();
        let parent = state.open.last().copied();
        state.spans.push(Span {
            name,
            start_ns: rel(start),
            end_ns: rel(end),
            parent,
            op,
        });
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.state().spans)
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        let mut state = self.tracer.state();
        state.spans[self.id as usize].end_ns = end_ns;
        state.open.retain(|&open| open != self.id);
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover.  Children may nest, overlap each other or
/// stick out of the parent; overlap is counted once and only the part
/// inside the parent is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Write spans as JSON lines: `{"id","name","start_ns","end_ns","parent","op"}`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        let line = Json::obj()
            .field("id", Json::uint(id as u64))
            .field("name", Json::str(span.name))
            .field("start_ns", Json::uint(span.start_ns))
            .field("end_ns", Json::uint(span.end_ns))
            .field(
                "parent",
                span.parent.map_or(Json::Null, |p| Json::uint(u64::from(p))),
            )
            .field("op", Json::uint(u64::from(span.op)))
            .to_line();
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// Name of the span [`TimedSource`] records around each physical page read.
pub const READ_PAGE: &str = "storage.read_page";

/// A [`TableSource`] decorator that records one `storage.read_page` span
/// per physical page read and counts the reads that failed.
///
/// Like the library's own `CountingSource` it intercepts only the two page
/// reads; row fetches and scans use the trait defaults and so funnel
/// through them, while the RID frame and the size metadata are answered by
/// the wrapped source untimed.
pub struct TimedSource<'a> {
    inner: &'a dyn TableSource,
    tracer: &'a Tracer,
    failed: AtomicU64,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a dyn TableSource, tracer: &'a Tracer) -> Self {
        TimedSource {
            inner,
            tracer,
            failed: AtomicU64::new(0),
        }
    }

    pub fn failed_reads(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    fn timed<T>(&self, read: impl FnOnce() -> StorageResult<T>) -> StorageResult<T> {
        let _span = self.tracer.span(READ_PAGE);
        let result = read();
        if result.is_err() {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

impl TableSource for TimedSource<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn codec(&self) -> &RowCodec {
        self.inner.codec()
    }

    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }

    fn num_pages(&self) -> usize {
        self.inner.num_pages()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        self.timed(|| self.inner.read_page(id))
    }

    fn read_page_ref(&self, id: PageId) -> StorageResult<PageRead<'_>> {
        self.timed(|| self.inner.read_page_ref(id))
    }

    fn rids(&self) -> StorageResult<Vec<Rid>> {
        self.inner.rids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t.x",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let spans = [
            span(0, 100, None),     // 0: root
            span(10, 40, Some(0)),  // 1: child
            span(30, 60, Some(0)),  // 2: overlaps child 1 by 10
            span(15, 20, Some(1)),  // 3: grandchild, only child 1 pays
            span(90, 130, Some(0)), // 4: sticks out of the root by 30
            span(50, 55, Some(0)),  // 5: inside child 2's interval
        ];
        let own = self_times(&spans);
        // Root: 100 − ([10,60) ∪ [90,100)) = 100 − 60 = 40.
        assert_eq!(own, vec![40, 25, 30, 5, 40, 5]);
        // Without overlap, self times of a subtree add up to the root span.
        let tidy = [
            span(0, 50, None),
            span(5, 20, Some(0)),
            span(20, 45, Some(0)),
        ];
        assert_eq!(self_times(&tidy).iter().sum::<u64>(), 50);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn guards_nest_and_stamp_the_op() {
        let tracer = Tracer::new();
        tracer.set_op(7);
        {
            let _root = tracer.span("core.root");
            let _child = tracer.span("index.build");
        }
        tracer.set_op(8);
        drop(tracer.span("core.root"));
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((spans[0].op, spans[1].op, spans[2].op), (7, 7, 8));
        assert_eq!((spans[0].layer(), spans[1].layer()), ("core", "index"));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn timed_source_records_one_span_per_page_read() {
        use samplecf_datagen::presets;
        let table = presets::single_char_table("t", 2_000, 24, 50, 8, 1)
            .generate()
            .unwrap()
            .table;
        let tracer = Tracer::new();
        let timed = TimedSource::new(&table, &tracer);
        let rows = timed.scan_rows().unwrap();
        assert_eq!(rows.len(), 2_000);
        assert_eq!(timed.rids().unwrap().len(), 2_000);
        assert!(timed.read_page(u32::MAX).is_err());
        assert_eq!(timed.failed_reads(), 1);
        let spans = tracer.take();
        assert_eq!(spans.len(), table.num_pages() + 1);
        assert!(spans
            .iter()
            .all(|s| s.name == READ_PAGE && s.layer() == "storage"));
    }
}
