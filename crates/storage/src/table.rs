//! Tables: a name, a row codec and a heap file of encoded rows.
//!
//! One [`Table`] serves the in-memory and the file-backed case, and its
//! constructor picks the [`HeapFile`] store: [`new`](Table::new) and
//! [`with_page_size`](Table::with_page_size) keep the pages in memory,
//! [`create`](Table::create), [`open`](Table::open) and
//! [`materialize`](Table::materialize) in a table file.  Samplers and the
//! estimator read either through [`TableSource`], so over a file every page
//! a sample touches is a physical read, which makes pages-read a measured
//! quantity rather than a simulation.

use crate::disk::format;
use crate::error::{StorageError, StorageResult};
use crate::heap::HeapFile;
use crate::page::{Page, PageView, DEFAULT_PAGE_SIZE};
use crate::rid::{PageId, Rid};
use crate::row::{Row, RowCodec};
use crate::schema::Schema;
use crate::source::{Frame, PageRead, TableSource};
use std::path::Path;

/// A base table: rows encoded with the uncompressed row codec and stored in
/// a heap file, in memory or in a table file.
#[derive(Debug)]
pub struct Table {
    name: String,
    codec: RowCodec,
    heap: HeapFile,
}

/// A [`Table`] over a table file: the name the benchmark harness
/// (`perfbench/`) opens and materialises tables by.
pub type DiskTable = Table;

impl Table {
    /// Create an empty in-memory table with the default page size.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            codec: RowCodec::new(schema),
            heap: HeapFile::new(),
        }
    }

    /// Create an empty in-memory table with a custom page size.
    pub fn with_page_size(
        name: impl Into<String>,
        schema: Schema,
        page_size: usize,
    ) -> StorageResult<Self> {
        Ok(Table {
            name: name.into(),
            codec: RowCodec::new(schema),
            heap: HeapFile::with_page_size(page_size)?,
        })
    }

    /// Create a new table file at `path` (truncating any existing file).
    pub fn create(
        path: impl AsRef<Path>,
        name: impl Into<String>,
        schema: Schema,
        page_size: usize,
    ) -> StorageResult<Self> {
        let name = name.into();
        let meta = format::encode_table_meta(&name, &schema);
        Ok(Table {
            name,
            codec: RowCodec::new(schema),
            heap: HeapFile::create(path, page_size, &meta)?,
        })
    }

    /// Open an existing table file read-only, restoring its name and schema
    /// from the file's metadata region.
    ///
    /// # Errors
    /// Everything [`HeapFile::open`] rejects, an undecodable table meta
    /// block, and — as [`StorageError::InvalidFormat`] — a header whose row
    /// count does not fill exactly its page count: records are fixed-width,
    /// so the table's [`Frame`] puts `num_rows` rows on
    /// `ceil(num_rows / rows_per_page)` pages (no pages, no rows).  Row
    /// draws map positions to RIDs through that frame alone.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<Self> {
        let heap = HeapFile::open(path)?;
        let (name, schema) = format::decode_table_meta(heap.meta())?;
        let table = Table {
            name,
            codec: RowCodec::new(schema),
            heap,
        };
        let (rows, pages, frame) = (table.num_rows(), table.num_pages(), Frame::of(&table));
        if frame.len() != rows || frame.pages() != pages {
            return Err(StorageError::InvalidFormat(format!(
                "header records {rows} rows on {pages} pages, but at {} rows a page they fill {}",
                frame.rows_per_page(),
                frame.pages()
            )));
        }
        Ok(table)
    }

    /// Write `table` out to a table file at `path` and return it.
    ///
    /// Each stored record is copied as it is: [`insert`](Self::insert)
    /// encodes and [`insert_record`](Self::insert_record) checks, so stored
    /// records are already canonical.  The copy therefore has the same page
    /// bytes (same records per page, same RIDs) as `table` — which is what
    /// makes estimates over the two comparable seed for seed.
    pub fn materialize(path: impl AsRef<Path>, table: &Table) -> StorageResult<Self> {
        let mut copy = Table::create(path, &table.name, table.schema().clone(), table.page_size())?;
        for pid in 0..table.num_pages() as PageId {
            for record in table.heap.read_page_ref(pid)?.records() {
                copy.heap.insert(record)?;
            }
        }
        copy.sync()?;
        Ok(copy)
    }

    /// The table name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        self.codec.schema()
    }

    /// The row codec used to encode rows of this table.
    #[must_use]
    pub fn codec(&self) -> &RowCodec {
        &self.codec
    }

    /// Number of rows (the paper's `n`).
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.heap.num_records()
    }

    /// Number of heap pages.
    #[must_use]
    pub fn num_pages(&self) -> usize {
        self.heap.num_pages()
    }

    /// Configured page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.heap.page_size()
    }

    /// How many rows fit on one page ([`Frame::rows_per_page`]).  Records
    /// are fixed-width ([`RowCodec::record_size`]), so this is a constant of
    /// the schema and page size, and every page except the last is filled
    /// to exactly this count.
    #[must_use]
    pub fn rows_per_page(&self) -> usize {
        Frame::of(self).rows_per_page()
    }

    /// Size in bytes of the table file once synced ([`HeapFile::file_len`]).
    #[must_use]
    pub fn file_len(&self) -> u64 {
        self.heap.file_len()
    }

    /// Insert a row, validating it against the schema.
    pub fn insert(&mut self, row: &Row) -> StorageResult<Rid> {
        let bytes = self.codec.encode(row)?;
        self.heap.insert(&bytes)
    }

    /// Insert one heap record of this table's schema as it is: the bytes
    /// [`RowCodec::check`] returns for it, with no [`Value`](crate::Value) made —
    /// byte for byte what [`insert`](Self::insert) stores for the row it
    /// decodes to.
    pub fn insert_record(&mut self, record: &[u8]) -> StorageResult<Rid> {
        let record = self.codec.check(record)?;
        self.heap.insert(&record)
    }

    /// Persist a table file's pending pages and header, then fsync (see
    /// [`HeapFile::sync`]).
    pub fn sync(&mut self) -> StorageResult<()> {
        self.heap.sync()
    }
}

impl TableSource for Table {
    fn name(&self) -> &str {
        Table::name(self)
    }

    fn schema(&self) -> &Schema {
        Table::schema(self)
    }

    fn codec(&self) -> &RowCodec {
        Table::codec(self)
    }

    fn num_rows(&self) -> usize {
        Table::num_rows(self)
    }

    fn num_pages(&self) -> usize {
        Table::num_pages(self)
    }

    fn page_size(&self) -> usize {
        Table::page_size(self)
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        Ok(self.heap.read_page_ref(id)?.into_owned())
    }

    fn read_page_ref(&self, id: PageId) -> StorageResult<PageRead<'_>> {
        self.heap.read_page_ref(id)
    }

    fn read_pages(
        &self,
        first: PageId,
        count: usize,
        visit: &mut dyn FnMut(PageView<'_>) -> StorageResult<()>,
    ) -> StorageResult<()> {
        self.heap.read_pages(first, count, visit)
    }
}

/// Builder for constructing a populated in-memory [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    page_size: usize,
}

impl TableBuilder {
    /// Start building a table with the given name and schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableBuilder {
            name: name.into(),
            schema,
            page_size: DEFAULT_PAGE_SIZE,
        }
    }

    /// Use a custom page size.
    #[must_use]
    pub fn page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Build the table and load it with the given rows.
    pub fn build_with_rows<I>(self, rows: I) -> StorageResult<Table>
    where
        I: IntoIterator<Item = Row>,
    {
        let mut table = Table::with_page_size(self.name, self.schema, self.page_size)?;
        for row in rows {
            table.insert(&row)?;
        }
        Ok(table)
    }

    /// Build an empty table.
    pub fn build(self) -> StorageResult<Table> {
        Table::with_page_size(self.name, self.schema, self.page_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Column;
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("name", DataType::Char(16)),
            Column::new("id", DataType::Int64),
        ])
        .unwrap()
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::str(format!("row{i}")), Value::int(i as i64)]))
            .collect()
    }

    #[test]
    fn insert_scan_get_roundtrip() {
        let mut t = Table::new("t", schema());
        let rids: Vec<Rid> = rows(100).iter().map(|r| t.insert(r).unwrap()).collect();
        assert_eq!(t.num_rows(), 100);
        for (i, rid) in rids.iter().enumerate() {
            let page = t.read_page_ref(rid.page).unwrap();
            let row = t.codec().decode(page.get(rid.slot).unwrap()).unwrap();
            assert_eq!(row.value(1), &Value::int(i as i64));
        }
        let scanned = t.scan_rows().unwrap();
        assert_eq!(scanned.len(), 100);
        assert_eq!(scanned[7].1.value(0), &Value::str("row7"));
        assert_eq!(
            scanned.iter().map(|(rid, _)| *rid).collect::<Vec<_>>(),
            rids
        );
    }

    #[test]
    fn builder_loads_rows_and_respects_page_size() {
        let t = TableBuilder::new("t", schema())
            .page_size(512)
            .build_with_rows(rows(64))
            .unwrap();
        assert_eq!(t.page_size(), 512);
        assert_eq!(t.num_rows(), 64);
        assert!(
            t.num_pages() > 1,
            "64 rows of 29 bytes cannot fit one 512B page"
        );
    }

    #[test]
    fn rids_matches_num_rows() {
        let mut t = Table::with_page_size("t", schema(), 512).unwrap();
        let inserted: Vec<Rid> = rows(25).iter().map(|r| t.insert(r).unwrap()).collect();
        // The frame names every inserted row at its RID, in order.
        let frame = Frame::of(&t);
        assert_eq!((frame.len(), frame.pages()), (25, t.num_pages()));
        assert_eq!(frame.iter().collect::<Vec<_>>(), inserted);
    }

    #[test]
    fn insert_rejects_invalid_rows() {
        let mut t = Table::new("t", schema());
        assert!(t
            .insert(&Row::new(vec![Value::int(3), Value::int(4)]))
            .is_err());
        assert_eq!(t.num_rows(), 0);
    }
}
