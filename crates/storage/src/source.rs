//! The [`TableSource`] abstraction: anything pages of rows can be read from.
//!
//! The estimator pipeline (sample → build index → compress → report CF) only
//! needs four things from a table: its schema, its row codec, the number of
//! pages/rows it holds, and the ability to read one page.  Abstracting those
//! behind a trait lets the samplers and the estimator run identically over
//! a [`Table`](crate::table::Table) whose pages live in memory or in a
//! file — which is what makes the I/O story of block sampling (paper,
//! Section II-C) real instead of simulated: a block sample over a table
//! file physically reads only the selected pages.
//!
//! The sampling frame row samplers draw from is the [`Frame`]: arithmetic
//! over that metadata, not a list of RIDs.  Records are fixed-width, so
//! frame position `i` is the row at `(i / rows_per_page, i % rows_per_page)`
//! of any table, and a row draw maps each position it picks to its RID
//! without reading a page or allocating anything the size of the table.

use crate::error::StorageResult;
use crate::page::{Page, PageView, PAGE_HEADER_SIZE, SLOT_SIZE};
use crate::rid::{PageId, Rid};
use crate::row::{Row, RowCodec};
use crate::schema::Schema;
use std::ops::Deref;
use std::sync::Arc;

/// A page obtained from a [`TableSource`]: borrowed straight out of the
/// source's own storage when it lives in memory, or owned when it had to be
/// read (and decoded) from disk.
///
/// This is the zero-copy contract of a one-page read: in-memory sources hand
/// out `Borrowed` views with no byte copied, while disk sources return the
/// `Owned` page they just materialised from the file (a run of pages is
/// lent instead, by [`TableSource::read_pages`]).  Dereferences to
/// [`Page`], so consumers that only read can ignore the distinction.
#[derive(Debug)]
pub enum PageRead<'a> {
    /// A view into the source's resident page — nothing was copied.
    Borrowed(&'a Page),
    /// A page materialised for this read (e.g. decoded from a disk file).
    Owned(Page),
}

impl PageRead<'_> {
    /// Access the page.
    #[must_use]
    pub fn as_page(&self) -> &Page {
        match self {
            PageRead::Borrowed(page) => page,
            PageRead::Owned(page) => page,
        }
    }

    /// Whether this read borrowed the source's resident page (no copy).
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        matches!(self, PageRead::Borrowed(_))
    }

    /// Convert into an owned [`Page`], cloning only if borrowed.
    #[must_use]
    pub fn into_owned(self) -> Page {
        match self {
            PageRead::Borrowed(page) => page.clone(),
            PageRead::Owned(page) => page,
        }
    }
}

impl Deref for PageRead<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        self.as_page()
    }
}

/// A readable source of table pages and rows.
///
/// Required methods describe the table and read one page.  A run of
/// adjacent pages is [`read_pages`](TableSource::read_pages), whose default
/// reads them one [`read_page_ref`](TableSource::read_page_ref) at a time
/// and which a file-backed [`Table`](crate::table::Table) overrides with
/// one positional read per few pages; the full scan has a default in terms
/// of `read_page_ref` too.  So a wrapper which only intercepts the one-page
/// reads observes every page access, and one that forwards `read_pages`
/// as well ([`CountingSource`](crate::CountingSource)) still counts pages,
/// not reads.  There is no point read by RID: a row draw reads the pages
/// its rows land on and slices the records out of them ([`Page::get`] or
/// [`PageView::get`], then [`RowCodec::decode`] where a value is wanted).
/// The sampling frame is no method at all: [`Frame::of`] computes it from
/// the metadata, the way a real engine derives it from its allocation map
/// rather than from data pages.
pub trait TableSource: Send + Sync {
    /// The table name.
    fn name(&self) -> &str;

    /// The table schema.
    fn schema(&self) -> &Schema;

    /// The codec that encodes/decodes this table's rows.
    fn codec(&self) -> &RowCodec;

    /// Number of rows (the paper's `n`).
    fn num_rows(&self) -> usize;

    /// Number of pages.
    fn num_pages(&self) -> usize;

    /// Configured page size in bytes.
    fn page_size(&self) -> usize;

    /// Read one page.  For disk-backed sources this is a physical page read.
    fn read_page(&self, id: PageId) -> StorageResult<Page>;

    /// Read one page without forcing a copy: in-memory sources return a
    /// borrowed view of their resident page, disk sources return the owned
    /// page they just decoded.  The default wraps
    /// [`read_page`](TableSource::read_page) so existing implementations
    /// stay correct; sources that can borrow override it.
    fn read_page_ref(&self, id: PageId) -> StorageResult<PageRead<'_>> {
        Ok(PageRead::Owned(self.read_page(id)?))
    }

    /// Lend `count` adjacent pages from `first` to `visit`, in page order,
    /// each checked as [`read_page_ref`](TableSource::read_page_ref) checks
    /// it.  The default reads them one `read_page_ref` at a time; a source
    /// that can read several pages at once overrides it.
    ///
    /// # Errors
    /// The first failed read or visit; every page before it has been
    /// visited, and none after.
    fn read_pages(
        &self,
        first: PageId,
        count: usize,
        visit: &mut dyn FnMut(PageView<'_>) -> StorageResult<()>,
    ) -> StorageResult<()> {
        for id in (first..).take(count) {
            visit(self.read_page_ref(id)?.view())?;
        }
        Ok(())
    }

    /// Materialise all `(rid, row)` pairs in storage order (a full scan).
    fn scan_rows(&self) -> StorageResult<Vec<(Rid, Row)>> {
        let (codec, mut out) = (self.codec(), Vec::with_capacity(self.num_rows()));
        for pid in 0..self.num_pages() as PageId {
            let page = self.read_page_ref(pid)?;
            for slot in 0..page.slot_count() {
                out.push((Rid::new(pid, slot), codec.decode(page.get(slot)?)?));
            }
        }
        Ok(out)
    }

    /// Every RID of the [`Frame`], in storage order, with no page read.
    ///
    /// No library code calls this: a row draw maps the positions it picks
    /// through [`Frame::rid`] instead.  It stays only for wrappers outside
    /// the workspace that still forward it.
    fn rids(&self) -> StorageResult<Vec<Rid>> {
        Ok(Frame::of(self).iter().collect())
    }
}

/// The sampling frame of a table: its rows in storage order, as arithmetic.
///
/// Records are fixed-width ([`RowCodec::record_size`]), so a slotted page
/// holds [`rows_per_page`](Frame::rows_per_page) of them, every page but the
/// last is full, and frame position `i` is the row at
/// `(i / rows_per_page, i % rows_per_page)`.  A frame is two counts and
/// `Copy`; building one reads no page and allocates nothing.
/// [`Table::open`](crate::table::Table::open) checks a file header
/// against the same arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    rows: usize,
    rows_per_page: usize,
}

impl Frame {
    /// A frame of `rows` rows, `rows_per_page` to a page.  A page that
    /// holds no row holds no frame either: with `rows_per_page == 0` the
    /// frame is empty.
    #[must_use]
    pub(crate) fn new(rows: usize, rows_per_page: usize) -> Frame {
        let rows = if rows_per_page == 0 { 0 } else { rows };
        Frame {
            rows,
            rows_per_page,
        }
    }

    /// The frame of `source`, from its metadata alone: its row count, and
    /// how many records of its codec fit a page of its size.
    #[must_use]
    pub fn of<S: TableSource + ?Sized>(source: &S) -> Frame {
        let per_record = source.codec().record_size() + SLOT_SIZE;
        let rows_per_page = source.page_size().saturating_sub(PAGE_HEADER_SIZE) / per_record;
        Frame::new(source.num_rows(), rows_per_page)
    }

    /// Number of rows (positions) in the frame.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the frame holds no row.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// How many rows one page holds.
    #[must_use]
    pub fn rows_per_page(&self) -> usize {
        self.rows_per_page
    }

    /// How many pages the frame's rows fill.
    #[must_use]
    pub fn pages(&self) -> usize {
        self.rows.div_ceil(self.rows_per_page.max(1))
    }

    /// The RID at frame position `pos` (`pos < len()`).  A page or slot
    /// number past what a [`Rid`] holds saturates at its maximum, which no
    /// page holds, so reading it is a typed error rather than another row.
    #[must_use]
    pub fn rid(&self, pos: usize) -> Rid {
        let per_page = self.rows_per_page.max(1);
        let page = PageId::try_from(pos / per_page).unwrap_or(PageId::MAX);
        Rid::new(page, u16::try_from(pos % per_page).unwrap_or(u16::MAX))
    }

    /// Rows on the pages before `page`: the frame position its first row
    /// sits at, or [`len`](Self::len) past the last page.
    #[must_use]
    pub fn rows_before(&self, page: usize) -> usize {
        page.saturating_mul(self.rows_per_page).min(self.rows)
    }

    /// Every RID of the frame, in storage order.
    pub(crate) fn iter(self) -> impl Iterator<Item = Rid> {
        (0..self.rows).map(move |pos| self.rid(pos))
    }
}

/// A reference-counted, thread-shareable table source — the handle the
/// concurrent layers (the owned sample cache, the `samplecfd` catalog) pass
/// around.  Cloning is cheap (one atomic increment) and clones share
/// identity: two clones of one `SharedSource` alias the same table, while
/// two separately created handles never do, even for byte-identical data.
pub type SharedSource = Arc<dyn TableSource + Send + Sync>;

/// Move a concrete table into a [`SharedSource`] handle.
///
/// This is the bridge from single-owner code (a `Table`) into the
/// shared-handle world: `table.into_shared()` reads better at call sites
/// than the equivalent `Arc::new(table) as SharedSource` coercion.
pub trait IntoShared {
    /// Wrap `self` in an [`Arc`] and erase it to `dyn TableSource`.
    fn into_shared(self) -> SharedSource;
}

impl<T: TableSource + 'static> IntoShared for T {
    fn into_shared(self) -> SharedSource {
        Arc::new(self)
    }
}

/// A shared handle reads exactly like the source it wraps, so every consumer
/// that takes `&dyn TableSource` accepts a `&SharedSource` unchanged.
impl<T: TableSource + ?Sized> TableSource for Arc<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn schema(&self) -> &Schema {
        (**self).schema()
    }

    fn codec(&self) -> &RowCodec {
        (**self).codec()
    }

    fn num_rows(&self) -> usize {
        (**self).num_rows()
    }

    fn num_pages(&self) -> usize {
        (**self).num_pages()
    }

    fn page_size(&self) -> usize {
        (**self).page_size()
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        (**self).read_page(id)
    }

    fn read_page_ref(&self, id: PageId) -> StorageResult<PageRead<'_>> {
        (**self).read_page_ref(id)
    }

    fn read_pages(
        &self,
        first: PageId,
        count: usize,
        visit: &mut dyn FnMut(PageView<'_>) -> StorageResult<()>,
    ) -> StorageResult<()> {
        (**self).read_pages(first, count, visit)
    }
}

impl std::fmt::Debug for dyn TableSource + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TableSource({}: {} rows, {} pages)",
            self.name(),
            self.num_rows(),
            self.num_pages()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Column;
    use crate::table::{Table, TableBuilder};
    use crate::value::Value;

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Char(8)),
            Column::new("id", DataType::Int64),
        ])
        .unwrap();
        TableBuilder::new("t", schema)
            .page_size(256)
            .build_with_rows(
                (0..n).map(|i| Row::new(vec![Value::str(format!("v{i}")), Value::int(i as i64)])),
            )
            .unwrap()
    }

    fn as_source(t: &Table) -> &dyn TableSource {
        t
    }

    #[test]
    fn table_implements_the_source_contract() {
        let t = table(50);
        let s = as_source(&t);
        assert_eq!(s.name(), "t");
        assert_eq!(s.num_rows(), 50);
        assert_eq!(s.num_pages(), t.num_pages());
        assert_eq!(s.page_size(), 256);
        assert_eq!(s.scan_rows().unwrap().len(), 50);
        assert_eq!(Frame::of(s).len(), 50);
    }

    #[test]
    fn read_page_and_defaults_agree_with_direct_access() {
        let t = table(40);
        let s = as_source(&t);
        // Every owned page read equals the borrowed one.
        for pid in 0..s.num_pages() {
            let page = s.read_page(pid as PageId).unwrap();
            assert_eq!(page.raw(), t.read_page_ref(pid as PageId).unwrap().raw());
        }
        // The scan decodes the rows that were inserted, in order.
        let scanned = s.scan_rows().unwrap();
        let ids: Vec<Value> = scanned
            .iter()
            .map(|(_, row)| row.value(1).clone())
            .collect();
        assert_eq!(ids, (0..40).map(Value::int).collect::<Vec<_>>());
        // Each RID's record decodes to the row scanned at it.
        for (rid, row) in &scanned {
            let page = s.read_page_ref(rid.page).unwrap();
            assert_eq!(&s.codec().decode(page.get(rid.slot).unwrap()).unwrap(), row);
        }
        assert!(s.read_page(9999).is_err());
    }

    #[test]
    fn shared_handles_read_like_the_wrapped_source() {
        let t = table(60);
        let direct_rows = t.scan_rows().unwrap();
        let direct_pages = t.num_pages();
        let shared: SharedSource = t.into_shared();
        assert_eq!(shared.name(), "t");
        assert_eq!(shared.num_rows(), 60);
        assert_eq!(shared.num_pages(), direct_pages);
        assert_eq!(shared.scan_rows().unwrap(), direct_rows);
        // The handle itself is a TableSource, so `&SharedSource` coerces to
        // `&dyn TableSource` at every existing call site.
        let as_dyn: &dyn TableSource = &shared;
        assert_eq!(Frame::of(as_dyn), Frame::of(&shared));
        assert_eq!(Frame::of(as_dyn).len(), 60);
        // Clones share identity (same allocation), fresh handles do not.
        let clone = Arc::clone(&shared);
        assert!(std::ptr::eq(
            Arc::as_ptr(&shared).cast::<()>(),
            Arc::as_ptr(&clone).cast::<()>()
        ));
    }

    #[test]
    fn default_rids_are_the_frame_and_read_no_page() {
        // A wrapper that overrides nothing it may leave to the trait.
        struct DefaultOnly<'a>(&'a Table);
        impl TableSource for DefaultOnly<'_> {
            fn name(&self) -> &str {
                TableSource::name(self.0)
            }
            fn schema(&self) -> &Schema {
                TableSource::schema(self.0)
            }
            fn codec(&self) -> &RowCodec {
                TableSource::codec(self.0)
            }
            fn num_rows(&self) -> usize {
                TableSource::num_rows(self.0)
            }
            fn num_pages(&self) -> usize {
                TableSource::num_pages(self.0)
            }
            fn page_size(&self) -> usize {
                TableSource::page_size(self.0)
            }
            fn read_page(&self, id: PageId) -> StorageResult<Page> {
                self.0.read_page(id)
            }
        }
        let t = table(33);
        let walked: Vec<Rid> = t
            .scan_rows()
            .unwrap()
            .into_iter()
            .map(|(rid, _)| rid)
            .collect();
        let defaults = DefaultOnly(&t);
        let counting = crate::CountingSource::new(&defaults as &dyn TableSource);
        assert_eq!(counting.rids().unwrap(), walked);
        assert_eq!(counting.pages_read(), 0, "the frame is metadata");
        assert_eq!(counting.scan_rows().unwrap(), t.scan_rows().unwrap());
    }

    #[test]
    fn in_memory_page_reads_borrow_the_resident_page() {
        let t = table(40);
        let s = as_source(&t);
        for pid in 0..s.num_pages() {
            let read = s.read_page_ref(pid as PageId).unwrap();
            assert!(read.is_borrowed(), "Table must lend its page, not copy it");
            // The borrowed view is the heap's page allocation, every time.
            let again = s.read_page_ref(pid as PageId).unwrap();
            assert!(std::ptr::eq(read.as_page(), again.as_page()));
            assert_eq!(read.raw(), s.read_page(pid as PageId).unwrap().raw());
        }
        assert!(s.read_page_ref(9999).is_err());
        // Shared handles preserve the borrow.
        let shared: SharedSource = table(10).into_shared();
        assert!(shared.read_page_ref(0).unwrap().is_borrowed());
    }
}
