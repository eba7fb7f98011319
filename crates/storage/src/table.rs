//! Tables: a schema plus a heap file of encoded rows.

use crate::error::StorageResult;
use crate::heap::HeapFile;
use crate::page::DEFAULT_PAGE_SIZE;
use crate::rid::Rid;
use crate::row::{Row, RowCodec};
use crate::schema::Schema;
use crate::value::Value;

/// A base table: rows encoded with the uncompressed row codec and stored in a
/// heap file.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    codec: RowCodec,
    heap: HeapFile,
}

impl Table {
    /// Create an empty table with the default page size.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            codec: RowCodec::new(schema),
            heap: HeapFile::new(),
        }
    }

    /// Create an empty table with a custom page size.
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

    /// The underlying heap file.
    #[must_use]
    pub fn heap(&self) -> &HeapFile {
        &self.heap
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

    /// Insert a row, validating it against the schema.
    pub fn insert(&mut self, row: &Row) -> StorageResult<Rid> {
        let bytes = self.codec.encode(row)?;
        self.heap.insert(&bytes)
    }

    /// Insert one heap record of this table's schema as it is: the bytes
    /// [`RowCodec::check`] returns for it, with no [`Value`] made —
    /// byte for byte what [`insert`](Self::insert) stores for the row it
    /// decodes to.
    pub fn insert_record(&mut self, record: &[u8]) -> StorageResult<Rid> {
        let record = self.codec.check(record)?;
        self.heap.insert(&record)
    }

    /// Fetch and decode the row stored at `rid`.
    pub fn get(&self, rid: Rid) -> StorageResult<Row> {
        let bytes = self.heap.get(rid)?;
        self.codec.decode(bytes)
    }

    /// Iterate over `(rid, row)` pairs in storage order.
    pub fn scan(&self) -> impl Iterator<Item = (Rid, Row)> + '_ {
        self.heap.scan().map(move |(rid, bytes)| {
            (
                rid,
                self.codec
                    .decode(bytes)
                    .expect("records in the heap were encoded with this codec"),
            )
        })
    }

    /// Collect all values of the named column, in storage order.
    pub fn column_values(&self, column: &str) -> StorageResult<Vec<Value>> {
        let idx = self.schema().column_index(column)?;
        Ok(self.scan().map(|(_, row)| row.value(idx).clone()).collect())
    }
}

/// Builder for constructing a populated [`Table`].
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
            assert_eq!(t.get(*rid).unwrap().value(1), &Value::int(i as i64));
        }
        let scanned: Vec<Row> = t.scan().map(|(_, r)| r).collect();
        assert_eq!(scanned.len(), 100);
        assert_eq!(scanned[7].value(0), &Value::str("row7"));
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
    fn column_values_projects_one_column() {
        let t = TableBuilder::new("t", schema())
            .build_with_rows(rows(10))
            .unwrap();
        let vals = t.column_values("id").unwrap();
        assert_eq!(vals.len(), 10);
        assert_eq!(vals[3], Value::int(3));
        assert!(t.column_values("missing").is_err());
    }

    #[test]
    fn rids_matches_num_rows() {
        let mut t = Table::with_page_size("t", schema(), 512).unwrap();
        let inserted: Vec<Rid> = rows(25).iter().map(|r| t.insert(r).unwrap()).collect();
        // The frame names every inserted row at its RID, in order.
        let frame = crate::source::Frame::of(&t);
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
