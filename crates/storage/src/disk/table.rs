//! Disk-resident tables.
//!
//! A [`DiskTable`] is the persistent counterpart of [`Table`]: the same
//! [`RowCodec`] encoding, the same slotted pages, but stored in a file via
//! [`DiskHeapFile`].  It implements
//! [`TableSource`], so samplers and the estimator run over it unchanged —
//! with the difference that every page access is a physical read, making
//! pages-read a measurable quantity rather than a simulation.

use crate::disk::file::DiskHeapFile;
use crate::disk::format;
use crate::error::{StorageError, StorageResult};
use crate::page::Page;
use crate::rid::{PageId, Rid};
use crate::row::{Row, RowCodec};
use crate::schema::Schema;
use crate::source::{Frame, PageRead, TableSource};
use crate::table::Table;
use std::path::Path;

/// A table whose pages live in a file on disk.
#[derive(Debug)]
pub struct DiskTable {
    name: String,
    codec: RowCodec,
    heap: DiskHeapFile,
}

impl DiskTable {
    /// Create a new table file at `path` (truncating any existing file).
    pub fn create(
        path: impl AsRef<Path>,
        name: impl Into<String>,
        schema: Schema,
        page_size: usize,
    ) -> StorageResult<DiskTable> {
        let name = name.into();
        let meta = format::encode_table_meta(&name, &schema);
        Ok(DiskTable {
            name,
            codec: RowCodec::new(schema),
            heap: DiskHeapFile::create(path, page_size, &meta)?,
        })
    }

    /// Open an existing table file, restoring its name and schema from the
    /// file's metadata region.
    ///
    /// # Errors
    /// Everything [`DiskHeapFile::open`] rejects, an undecodable table meta
    /// block, and — as [`StorageError::InvalidFormat`] — a header whose row
    /// count does not fill exactly its page count: records are fixed-width,
    /// so the table's [`Frame`] puts `num_rows` rows on
    /// `ceil(num_rows / rows_per_page)` pages (no pages, no rows).  Row
    /// draws map positions to RIDs through that frame alone.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<DiskTable> {
        let heap = DiskHeapFile::open(path)?;
        let (name, schema) = format::decode_table_meta(heap.meta())?;
        let table = DiskTable {
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

    /// Write an in-memory table out to `path`, returning the disk table.
    ///
    /// Rows are re-encoded through the same codec, so the resulting page
    /// layout is identical to the in-memory one (same records per page, same
    /// rids) — which is what makes disk-vs-memory estimates comparable
    /// seed-for-seed.
    pub fn materialize(path: impl AsRef<Path>, table: &Table) -> StorageResult<DiskTable> {
        let mut disk = DiskTable::create(
            path,
            table.name(),
            table.schema().clone(),
            table.page_size(),
        )?;
        for (_, row) in table.scan() {
            disk.insert(&row)?;
        }
        disk.sync()?;
        Ok(disk)
    }

    /// Insert a row, validating it against the schema.
    pub fn insert(&mut self, row: &Row) -> StorageResult<Rid> {
        let bytes = self.codec.encode(row)?;
        self.heap.append(&bytes)
    }

    /// Persist pending pages and the file header, then fsync.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.heap.sync()
    }

    /// The path of the backing file.
    #[must_use]
    pub fn path(&self) -> &Path {
        self.heap.path()
    }

    /// The underlying disk heap file.
    #[must_use]
    pub fn heap(&self) -> &DiskHeapFile {
        &self.heap
    }

    /// Total file size in bytes once synced.
    #[must_use]
    pub fn file_len(&self) -> u64 {
        self.heap.file_len()
    }

    /// How many rows fit on one page ([`Frame::rows_per_page`]).  Records
    /// are fixed-width ([`RowCodec::record_size`]), so this is a constant of
    /// the schema and page size, and every page except the last is filled
    /// to exactly this count.
    #[must_use]
    pub fn rows_per_page(&self) -> usize {
        Frame::of(self).rows_per_page()
    }
}

impl TableSource for DiskTable {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> &Schema {
        self.codec.schema()
    }

    fn codec(&self) -> &RowCodec {
        &self.codec
    }

    fn num_rows(&self) -> usize {
        self.heap.num_records()
    }

    fn num_pages(&self) -> usize {
        self.heap.num_pages()
    }

    fn page_size(&self) -> usize {
        self.heap.page_size()
    }

    fn read_page(&self, id: PageId) -> StorageResult<Page> {
        self.heap.read_page(id)
    }

    fn read_page_ref(&self, id: PageId) -> StorageResult<PageRead<'_>> {
        self.heap.read_page_ref(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Column;
    use crate::table::TableBuilder;
    use crate::value::Value;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "samplecf_table_{tag}_{}_{n}.scf",
            std::process::id()
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Char(16)),
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
    fn create_insert_open_roundtrip() {
        let path = temp_path("roundtrip");
        let _cleanup = Cleanup(path.clone());
        {
            let mut t = DiskTable::create(&path, "demo", schema(), 512).unwrap();
            for row in rows(200) {
                t.insert(&row).unwrap();
            }
            t.sync().unwrap();
        }
        let t = DiskTable::open(&path).unwrap();
        assert_eq!(TableSource::name(&t), "demo");
        assert_eq!(t.schema(), &schema());
        assert_eq!(t.num_rows(), 200);
        let all = t.scan_rows().unwrap();
        assert_eq!(all.len(), 200);
        assert_eq!(all[7].1.value(1), &Value::int(7));
        // Point lookups through the trait agree with the scan.
        for (rid, row) in all.iter().take(20) {
            assert_eq!(&t.get(*rid).unwrap(), row);
        }
    }

    #[test]
    fn materialize_preserves_layout_and_rows() {
        let path = temp_path("materialize");
        let _cleanup = Cleanup(path.clone());
        let mem = TableBuilder::new("m", schema())
            .page_size(512)
            .build_with_rows(rows(300))
            .unwrap();
        let disk = DiskTable::materialize(&path, &mem).unwrap();
        assert_eq!(disk.num_rows(), mem.num_rows());
        assert_eq!(disk.num_pages(), mem.num_pages());
        assert_eq!(disk.page_size(), mem.page_size());
        // Identical frames (same records-per-page packing).
        assert_eq!(Frame::of(&disk), Frame::of(&mem));
        // Identical page payloads, byte for byte.
        for pid in 0..disk.num_pages() {
            let d = disk.read_page(pid as PageId).unwrap();
            let m = mem.heap().page(pid as PageId).unwrap();
            assert_eq!(d.raw(), m.raw(), "page {pid} differs");
        }
    }

    #[test]
    fn metadata_rids_match_page_walk() {
        let path = temp_path("rids");
        let _cleanup = Cleanup(path.clone());
        let mut t = DiskTable::create(&path, "t", schema(), 256).unwrap();
        for row in rows(77) {
            t.insert(&row).unwrap();
        }
        t.sync().unwrap();
        // Arithmetic frame vs. the frame implied by actually reading pages.
        let mut walked = Vec::new();
        for pid in 0..t.num_pages() {
            let page = t.read_page(pid as PageId).unwrap();
            for slot in 0..page.slot_count() {
                walked.push(Rid::new(pid as PageId, slot));
            }
        }
        assert_eq!(Frame::of(&t).iter().collect::<Vec<_>>(), walked);
    }

    #[test]
    fn empty_table_roundtrips() {
        let path = temp_path("empty");
        let _cleanup = Cleanup(path.clone());
        {
            let mut t = DiskTable::create(&path, "empty", schema(), 512).unwrap();
            t.sync().unwrap();
        }
        let t = DiskTable::open(&path).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_pages(), 0);
        assert!(Frame::of(&t).is_empty());
        assert!(t.scan_rows().unwrap().is_empty());
    }

    /// Rewrite the header's `num_rows` in place and re-seal the metadata
    /// CRC, so the row count is the only lie in the file.
    fn forge_num_rows(path: &Path, num_rows: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        let header = format::decode_file_header(&bytes).unwrap();
        let meta = &bytes[format::FILE_HEADER_SIZE..][..header.meta_len];
        let forged = format::FileHeader { num_rows, ..header };
        let region = format::encode_metadata(&forged, meta);
        bytes[..region.len()].copy_from_slice(&region);
        std::fs::write(path, bytes).unwrap();
    }

    /// 100 rows on pages of 512 bytes, synced; returns (pages, rows per page).
    fn hundred_rows(path: &Path) -> (usize, usize) {
        let mut t = DiskTable::create(path, "t", schema(), 512).unwrap();
        for row in rows(100) {
            t.insert(&row).unwrap();
        }
        t.sync().unwrap();
        assert!(t.num_pages() > 2);
        (t.num_pages(), t.rows_per_page())
    }

    #[test]
    fn open_rejects_a_row_count_its_pages_cannot_hold() {
        let path = temp_path("lying_rows");
        let _cleanup = Cleanup(path.clone());
        let (pages, per_page) = hundred_rows(&path);
        // Asserts on `open`'s result: before the check existed a forged
        // count was a frame reaching pages the file does not have.
        for (what, forged) in [
            ("too few", 1),
            (
                "one short of reaching the last page",
                (pages - 1) * per_page,
            ),
            ("too many", pages * per_page + 1),
            ("absurdly many", usize::MAX),
            ("zero with pages", 0),
        ] {
            forge_num_rows(&path, forged);
            match DiskTable::open(&path) {
                Err(StorageError::InvalidFormat(msg)) => {
                    assert!(msg.contains("rows"), "{what}: {msg}");
                }
                other => panic!("{what} ({forged} rows): expected InvalidFormat, got {other:?}"),
            }
        }
        // The honest count — and any count the pages can hold — opens.
        for honest in [100, (pages - 1) * per_page + 1, pages * per_page] {
            forge_num_rows(&path, honest);
            let t = DiskTable::open(&path).unwrap();
            assert_eq!(Frame::of(&t).len(), honest);
        }
    }

    #[test]
    fn the_frame_of_a_heap_whose_counts_disagree_reads_a_typed_invalid_rid() {
        let path = temp_path("lying_heap");
        let _cleanup = Cleanup(path.clone());
        let (pages, per_page) = hundred_rows(&path);
        // Hand the frame the heap `open` would have refused.
        let unchecked = |path: &Path| DiskTable {
            name: "t".to_string(),
            codec: RowCodec::new(schema()),
            heap: DiskHeapFile::open(path).unwrap(),
        };
        forge_num_rows(&path, 1);
        let t = unchecked(&path);
        assert_eq!(Frame::of(&t).iter().collect::<Vec<_>>(), [Rid::new(0, 0)]);
        // A count past the pages is a frame past them: its positions map by
        // arithmetic alone, and the first one beyond the file is the page
        // read's typed error, not a panic or another page's row.
        for forged in [4 * pages * per_page, usize::MAX] {
            forge_num_rows(&path, forged);
            let t = unchecked(&path);
            let frame = Frame::of(&t);
            assert_eq!((frame.len(), frame.rows_per_page()), (forged, per_page));
            let past = frame.rid(pages * per_page);
            assert_eq!(past, Rid::new(pages as PageId, 0));
            for rid in [past, frame.rid(forged - 1)] {
                match t.read_page_ref(rid.page) {
                    Err(StorageError::InvalidRid { page, .. }) => assert_eq!(page, rid.page),
                    other => panic!("{forged} rows, {rid:?}: expected InvalidRid, got {other:?}"),
                }
            }
        }
        // A page that holds no row holds no frame.
        assert!(Frame::new(100, 0).is_empty());
        assert_eq!(Frame::new(100, 0).pages(), 0);
    }

    #[test]
    fn insert_rejects_invalid_rows() {
        let path = temp_path("invalid");
        let _cleanup = Cleanup(path.clone());
        let mut t = DiskTable::create(&path, "t", schema(), 512).unwrap();
        assert!(t
            .insert(&Row::new(vec![Value::int(3), Value::int(4)]))
            .is_err());
        assert_eq!(t.num_rows(), 0);
    }
}
