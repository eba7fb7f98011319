//! Physical-I/O accounting for table sources.
//!
//! [`CountingSource`] wraps any [`TableSource`] and counts how many pages are
//! read through it.  Rows are only ever read out of pages — the trait's one
//! row-returning default, the full scan, funnels through
//! [`read_page_ref`](TableSource::read_page_ref), and there is no point read
//! by RID — so the count
//! is the number of physical page accesses the wrapped workload performed —
//! the quantity the paper's block-sampling argument (Section II-C) is about.
//! Wrapping a [`Table`](crate::table::Table) opened from a file makes
//! "block sampling at fraction `f` reads ≈ `f·N` pages" a measurable
//! assertion; the `samplecf` CLI, the advisor's plan report and the
//! page-count tests of `tests/end_to_end.rs` all read it from this wrapper.
//!
//! The size metadata is delegated to the wrapped source uncounted, so the
//! sampling [`Frame`](crate::source::Frame) computed from it costs no page
//! read either: a real engine answers those from its catalog and allocation
//! maps, not from data pages.

use crate::error::StorageResult;
use crate::page::{Page, PageView};
use crate::rid::PageId;
use crate::row::RowCodec;
use crate::schema::Schema;
use crate::source::{PageRead, TableSource};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`TableSource`] decorator that counts page reads.
///
/// Generic over the handle it wraps: a borrow (`&dyn TableSource`,
/// `&Table`) for a counting session on the stack, or an owned
/// [`SharedSource`](crate::source::SharedSource), so that an
/// `Arc<CountingSource<SharedSource>>` can itself be erased into a
/// `SharedSource` and handed to `'static` consumers (the sample cache, a
/// server catalog) while the caller keeps a second `Arc` to read the
/// counter from.
pub struct CountingSource<S> {
    inner: S,
    pages_read: AtomicU64,
}

impl<S: Deref<Target: TableSource>> CountingSource<S> {
    /// Wrap a source, starting the counter at zero.
    #[must_use]
    pub fn new(inner: S) -> Self {
        CountingSource {
            inner,
            pages_read: AtomicU64::new(0),
        }
    }

    /// Number of pages read through this wrapper so far.
    #[must_use]
    pub fn pages_read(&self) -> u64 {
        self.pages_read.load(Ordering::Relaxed)
    }

    /// Reset the counter to zero (e.g. between measurement phases).
    pub fn reset(&self) {
        self.pages_read.store(0, Ordering::Relaxed);
    }

    /// The wrapped handle.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Deref<Target: TableSource>> std::fmt::Debug for CountingSource<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CountingSource({}, pages_read = {})",
            self.inner.name(),
            self.pages_read()
        )
    }
}

impl<S: Deref<Target: TableSource> + Send + Sync> TableSource for CountingSource<S> {
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
        self.pages_read.fetch_add(1, Ordering::Relaxed);
        self.inner.read_page(id)
    }

    fn read_page_ref(&self, id: PageId) -> StorageResult<PageRead<'_>> {
        // Count, then delegate so a borrowing source still lends its page —
        // accounting must not reintroduce the copy it measures.
        self.pages_read.fetch_add(1, Ordering::Relaxed);
        self.inner.read_page_ref(id)
    }

    fn read_pages(
        &self,
        first: PageId,
        count: usize,
        visit: &mut dyn FnMut(PageView<'_>) -> StorageResult<()>,
    ) -> StorageResult<()> {
        // Delegated whole, so a run is still one read underneath, and
        // counted a page at a time: each page visited, and the page whose
        // read failed, as one `read_page_ref` each would have been.
        let mut refused = false;
        let read = self.inner.read_pages(first, count, &mut |page| {
            self.pages_read.fetch_add(1, Ordering::Relaxed);
            let seen = visit(page);
            refused = seen.is_err();
            seen
        });
        if read.is_err() && !refused {
            self.pages_read.fetch_add(1, Ordering::Relaxed);
        }
        read
    }

    // `scan_rows` intentionally uses the trait default so that every row
    // access is accounted as the page read it costs on disk-resident data.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::source::{Frame, IntoShared, SharedSource};
    use crate::table::{Table, TableBuilder};
    use crate::value::Value;
    use std::sync::Arc;

    fn table(n: usize) -> Table {
        TableBuilder::new("t", Schema::single_char("a", 32))
            .page_size(512)
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
            .unwrap()
    }

    #[test]
    fn scan_is_counted_and_reset_clears() {
        let t = table(500);
        let counting = CountingSource::new(&t);
        let rows = counting.scan_rows().unwrap();
        assert_eq!(rows.len(), 500);
        assert_eq!(counting.pages_read(), t.num_pages() as u64);
        counting.reset();
        assert_eq!(counting.pages_read(), 0);
        // The frame is metadata: it costs no page reads.
        assert_eq!(Frame::of(&counting).len(), 500);
        assert_eq!(counting.pages_read(), 0);
    }

    #[test]
    fn point_lookup_costs_one_page_read() {
        let t = table(200);
        let counting = CountingSource::new(&t);
        let rid = Frame::of(&t).rid(17);
        let page = counting.read_page_ref(rid.page).unwrap();
        let row = counting
            .codec()
            .decode(page.get(rid.slot).unwrap())
            .unwrap();
        assert_eq!(row.value(0), &Value::str("v000017"));
        assert_eq!(counting.pages_read(), 1);
    }

    #[test]
    fn shared_counting_source_counts_through_an_erased_handle() {
        let t = table(400);
        let num_pages = t.num_pages() as u64;
        let counting = Arc::new(CountingSource::new(t.into_shared()));
        // The counted wrapper erases into a SharedSource like any table...
        let erased: SharedSource = Arc::clone(&counting) as SharedSource;
        assert_eq!(erased.scan_rows().unwrap().len(), 400);
        // ...while the retained Arc still reads (and resets) the counter.
        assert_eq!(counting.pages_read(), num_pages);
        counting.reset();
        assert_eq!(counting.pages_read(), 0);
        assert_eq!(Frame::of(&*counting).len(), 400);
        assert_eq!(counting.pages_read(), 0, "the frame is metadata");
        assert_eq!(counting.inner().name(), "t");
    }

    #[test]
    fn borrowed_page_reads_are_counted_without_copying() {
        let t = table(100);
        let counting = CountingSource::new(&t);
        let read = counting.read_page_ref(0).unwrap();
        assert!(read.is_borrowed(), "counting must not force a page copy");
        drop(read);
        assert_eq!(counting.pages_read(), 1);
        let shared = CountingSource::new(table(100).into_shared());
        assert!(shared.read_page_ref(0).unwrap().is_borrowed());
        assert_eq!(shared.pages_read(), 1);
    }

    #[test]
    fn metadata_is_delegated() {
        let t = table(100);
        let counting = CountingSource::new(&t as &dyn TableSource);
        assert_eq!(counting.name(), "t");
        assert_eq!(counting.num_rows(), 100);
        assert_eq!(counting.num_pages(), t.num_pages());
        assert_eq!(counting.page_size(), 512);
        assert_eq!(counting.schema(), t.schema());
        assert_eq!(counting.inner().num_rows(), 100);
    }
}
