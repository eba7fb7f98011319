//! The table file format: checksummed pages on disk.
//!
//! The paper's case for block sampling (Section II-C) is an *I/O* argument —
//! reading `f·N` physical pages is cheaper than reading the scattered pages
//! that `f·n` uniformly sampled rows live on.  A [`Table`](crate::table::Table)
//! whose [`HeapFile`](crate::heap::HeapFile) lives in a file makes that
//! real; this module holds what the file adds:
//!
//! * [`format`](mod@format) — the binary file layout: CRC-32-protected file header and
//!   table metadata, and per-page blocks whose checksums catch any
//!   single-byte corruption (specified in `docs/FORMAT.md`),
//! * [`crc32`] — that checksum: one value from two kernels, slice-by-8
//!   tables everywhere and carry-less-multiply folding on x86-64 CPUs that
//!   have `pclmulqdq`, picked per call ([`crc32_kernel`] names the one this
//!   host runs); every line of it lives in the private `crc` module.
//!
//! ## Quickstart
//!
//! ```
//! use samplecf_storage::{Column, DataType, Row, Schema, Table, TableSource, Value};
//!
//! let path = std::env::temp_dir().join(format!("doc_disk_{}.scf", std::process::id()));
//! let schema = Schema::new(vec![Column::new("a", DataType::Char(8))])?;
//! let mut table = Table::create(&path, "demo", schema, 4096)?;
//! for i in 0..100 {
//!     table.insert(&Row::new(vec![Value::str(format!("v{i}"))]))?;
//! }
//! table.sync()?;
//!
//! let reopened = Table::open(&path)?;
//! assert_eq!(reopened.num_rows(), 100);
//! assert_eq!(reopened.scan_rows()?.len(), 100);
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), samplecf_storage::StorageError>(())
//! ```

mod crc;
pub mod format;

pub use crc::{crc32, crc32_kernel};
pub use format::{FileHeader, DISK_PAGE_HEADER_SIZE, FILE_HEADER_SIZE, FORMAT_VERSION};

/// Helpers shared by the tests of file-backed heaps and tables.
#[cfg(test)]
mod testing {
    use super::format::{self, FileHeader};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh path under the temp dir; removed when the guard drops.
    pub struct TempFile(pub PathBuf);

    impl TempFile {
        pub fn new(tag: &str) -> TempFile {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            TempFile(std::env::temp_dir().join(format!(
                "samplecf_disk_{tag}_{}_{n}.scf",
                std::process::id()
            )))
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// The header a synced file at `path` carries.
    pub fn header_of(path: &Path) -> FileHeader {
        format::decode_file_header(&std::fs::read(path).unwrap()).unwrap()
    }
}

/// Tests of a [`HeapFile`](crate::heap::HeapFile) over a file.
#[cfg(test)]
mod file {
    mod tests {
        use super::super::testing::{header_of, TempFile};
        use crate::error::StorageError;
        use crate::heap::HeapFile;
        use crate::rid::{PageId, Rid};

        #[test]
        fn create_append_sync_open_roundtrip() {
            let path = TempFile::new("roundtrip");
            let mut rids = Vec::new();
            {
                let mut h = HeapFile::create(&path.0, 256, b"meta-blob").unwrap();
                for i in 0..100u8 {
                    rids.push(h.insert(&[i; 20]).unwrap());
                }
                h.sync().unwrap();
                assert!(h.num_pages() > 1);
                assert_eq!(h.num_records(), 100);
            }
            let h = HeapFile::open(&path.0).unwrap();
            assert_eq!(h.num_records(), 100);
            assert_eq!(h.page_size(), 256);
            assert_eq!(h.meta(), b"meta-blob");
            for (i, rid) in rids.iter().enumerate() {
                let page = h.read_page_ref(rid.page).unwrap();
                assert_eq!(page.get(rid.slot).unwrap(), &[i as u8; 20]);
            }
            assert_eq!(
                std::fs::metadata(&path.0).unwrap().len(),
                h.file_len(),
                "header-implied length matches the real file"
            );
        }

        #[test]
        fn concurrent_readers_see_identical_pages() {
            let path = TempFile::new("concurrent");
            {
                let mut h = HeapFile::create(&path.0, 256, b"").unwrap();
                for i in 0..120u8 {
                    h.insert(&[i; 24]).unwrap();
                }
                h.sync().unwrap();
            }
            let h = HeapFile::open(&path.0).unwrap();
            let serial: Vec<Vec<u8>> = (0..h.num_pages())
                .map(|pid| h.read_page_ref(pid as PageId).unwrap().raw().to_vec())
                .collect();
            // Eight threads hammer every page repeatedly through one shared
            // handle; every read must match the serial pass byte for byte.
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        for round in 0..4 {
                            for pid in 0..h.num_pages() {
                                // Vary the order per round to interleave offsets.
                                let pid = (pid + round * 7) % h.num_pages();
                                let page = h.read_page_ref(pid as PageId).unwrap();
                                assert_eq!(page.raw(), serial[pid].as_slice(), "page {pid}");
                            }
                        }
                    });
                }
            });
        }

        #[test]
        fn append_after_reopen_continues_the_tail_page() {
            let path = TempFile::new("reopen");
            {
                let mut h = HeapFile::create(&path.0, 256, b"").unwrap();
                for i in 0..5u8 {
                    h.insert(&[i; 20]).unwrap();
                }
                h.sync().unwrap();
            }
            {
                let mut h = HeapFile::open(&path.0).unwrap();
                let pages_before = h.num_pages();
                h.insert(&[99u8; 20]).unwrap();
                // A 256-byte page holds more than 6 records of 20 bytes, so
                // the append lands on the existing tail page.
                assert_eq!(h.num_pages(), pages_before);
                h.sync().unwrap();
            }
            let h = HeapFile::open(&path.0).unwrap();
            assert_eq!(h.num_records(), 6);
            let page = h.read_page_ref(0).unwrap();
            assert_eq!(page.get(5).unwrap(), &[99u8; 20]);
        }

        #[test]
        fn unsynced_tail_is_readable_in_memory() {
            let path = TempFile::new("tail");
            let mut h = HeapFile::create(&path.0, 256, b"").unwrap();
            let rid = h.insert(b"unsynced").unwrap();
            let page = h.read_page_ref(rid.page).unwrap();
            assert_eq!(page.get(rid.slot).unwrap(), b"unsynced");
        }

        #[test]
        fn tail_page_reads_borrow_the_write_buffer_without_copying() {
            let path = TempFile::new("tail_nocopy");
            let mut h = HeapFile::create(&path.0, 256, b"").unwrap();
            for i in 0..20u8 {
                h.insert(&[i; 24]).unwrap();
            }
            let tail_id = h.num_pages() as PageId - 1;
            let read = h.read_page_ref(tail_id).unwrap();
            assert!(read.is_borrowed(), "tail must be lent, not cloned");
            // Every read of the tail lends the one in-memory write buffer.
            let again = h.read_page_ref(tail_id).unwrap();
            assert!(std::ptr::eq(read.as_page(), again.as_page()));
            // Retired pages cannot be borrowed: they come back owned from disk.
            assert!(tail_id > 0);
            assert!(!h.read_page_ref(0).unwrap().is_borrowed());
            // An owned copy serves the same bytes.
            assert_eq!(read.into_owned().raw(), again.raw());
        }

        #[test]
        fn one_handle_reads_back_every_append_across_syncs() {
            // Each round grows the file by whole pages and rewrites its tail
            // and header, then reads every page back through the same
            // handle (every page but the tail from the file) and through a
            // fresh one (the tail too): no read may see a stale or short page.
            let path = TempFile::new("rounds");
            let mut h = HeapFile::create(&path.0, 256, b"").unwrap();
            let mut appended: Vec<(Rid, Vec<u8>)> = Vec::new();
            for round in 0..5u8 {
                let pages_before = h.num_pages();
                for i in 0..30u8 {
                    let record = vec![round.wrapping_mul(31) ^ i; 20 + usize::from(i % 5)];
                    appended.push((h.insert(&record).unwrap(), record));
                }
                assert!(h.num_pages() > pages_before + 1, "round {round} adds pages");
                h.sync().unwrap();
                let fresh = HeapFile::open(&path.0).unwrap();
                for pid in 0..h.num_pages() as PageId {
                    let expected: Vec<&[u8]> = appended
                        .iter()
                        .filter(|(rid, _)| rid.page == pid)
                        .map(|(_, record)| record.as_slice())
                        .collect();
                    for heap in [&h, &fresh] {
                        let page = heap.read_page_ref(pid).unwrap();
                        assert_eq!(
                            page.records().collect::<Vec<_>>(),
                            expected,
                            "round {round}, page {pid}"
                        );
                    }
                }
            }
        }

        #[test]
        fn physical_reads_recycle_pooled_buffers() {
            // Reads share no buffer pool: on a freshly opened file every read
            // is a physical read into a buffer of its own, so changing one
            // returned page can leak into neither a later read nor the file.
            let path = TempFile::new("pool");
            {
                let mut h = HeapFile::create(&path.0, 256, b"").unwrap();
                for i in 0..60u8 {
                    h.insert(&[i; 24]).unwrap();
                }
                h.sync().unwrap();
            }
            let h = HeapFile::open(&path.0).unwrap();
            for pid in 0..h.num_pages() as PageId {
                assert!(!h.read_page_ref(pid).unwrap().is_borrowed(), "page {pid}");
            }
            let last = h.num_pages() as PageId - 1;
            let mut first = h.read_page_ref(last).unwrap().into_owned();
            let before = first.raw().to_vec();
            let slot = first
                .insert(b"scribble")
                .unwrap()
                .expect("tail page has room");
            assert_eq!(first.get(slot).unwrap(), b"scribble");
            let second = h.read_page_ref(last).unwrap();
            assert_eq!(second.raw(), before.as_slice());
            assert_ne!(second.raw(), first.raw());
        }

        #[test]
        fn sync_fences_the_scratch_pool() {
            // A handle that has already read a page physically, then appends
            // to that page and syncs, leaves the new contents in the file.
            let path = TempFile::new("pool_fence");
            {
                let mut h = HeapFile::create(&path.0, 256, b"").unwrap();
                for i in 0..3u8 {
                    h.insert(&[i; 24]).unwrap();
                }
                h.sync().unwrap();
            }
            let mut h = HeapFile::open(&path.0).unwrap();
            assert_eq!(h.read_page_ref(0).unwrap().records().count(), 3);
            h.insert(&[61u8; 24]).unwrap();
            h.sync().unwrap();
            let page = HeapFile::open(&path.0)
                .unwrap()
                .read_page_ref(0)
                .unwrap()
                .into_owned();
            assert_eq!(page.records().count(), 4);
            assert_eq!(page.get(3).unwrap(), &[61u8; 24]);
            // Appends that retire page 0 and start page 1 are visible too.
            for i in 0..20u8 {
                h.insert(&[100 + i; 24]).unwrap();
            }
            h.sync().unwrap();
            let fresh = HeapFile::open(&path.0).unwrap();
            assert!(fresh.num_pages() > 1);
            let total: usize = (0..fresh.num_pages() as PageId)
                .map(|pid| fresh.read_page_ref(pid).unwrap().records().count())
                .sum();
            assert_eq!(total, 24);
        }

        #[test]
        fn drop_syncs_pending_writes() {
            let path = TempFile::new("drop");
            {
                let mut h = HeapFile::create(&path.0, 256, b"").unwrap();
                h.insert(b"persisted-by-drop").unwrap();
            }
            let h = HeapFile::open(&path.0).unwrap();
            assert_eq!(h.num_records(), 1);
            assert_eq!(
                h.read_page_ref(0).unwrap().get(0).unwrap(),
                b"persisted-by-drop"
            );
        }

        #[test]
        fn out_of_range_and_oversized_are_errors() {
            let path = TempFile::new("errors");
            let mut h = HeapFile::create(&path.0, 128, b"").unwrap();
            assert!(matches!(
                h.read_page_ref(0),
                Err(StorageError::InvalidRid { .. })
            ));
            assert!(matches!(
                h.insert(&[0u8; 4096]),
                Err(StorageError::RecordTooLarge { .. })
            ));
        }

        #[test]
        fn corrupted_page_fails_checksum_on_read() {
            let path = TempFile::new("corrupt");
            {
                let mut h = HeapFile::create(&path.0, 256, b"").unwrap();
                for i in 0..30u8 {
                    h.insert(&[i; 30]).unwrap();
                }
                h.sync().unwrap();
                assert!(h.num_pages() >= 2);
            }
            // Flip one byte in the middle of page 1's payload.
            let at = header_of(&path.0).page_offset(1) + 100;
            let mut bytes = std::fs::read(&path.0).unwrap();
            bytes[at as usize] ^= 0xFF;
            std::fs::write(&path.0, bytes).unwrap();

            let h = HeapFile::open(&path.0).unwrap();
            assert!(h.read_page_ref(0).is_ok(), "untouched page still reads");
            let err = h.read_page_ref(1).unwrap_err();
            assert!(
                matches!(err, StorageError::PageCorruption(_)),
                "expected checksum failure, got {err:?}"
            );
        }

        #[test]
        fn open_touches_no_data_pages_even_if_the_tail_is_corrupt() {
            let path = TempFile::new("lazy_open");
            {
                let mut h = HeapFile::create(&path.0, 256, b"").unwrap();
                for i in 0..30u8 {
                    h.insert(&[i; 30]).unwrap();
                }
                h.sync().unwrap();
            }
            // Corrupt the LAST page.  A read-only open must still succeed
            // (metadata only); the failure surfaces on access.
            let header = header_of(&path.0);
            let last_page_offset = header.page_offset(header.num_pages as PageId - 1);
            let mut bytes = std::fs::read(&path.0).unwrap();
            bytes[last_page_offset as usize + 40] ^= 0xFF;
            std::fs::write(&path.0, bytes).unwrap();

            let mut h = HeapFile::open(&path.0).unwrap();
            let last = h.num_pages() as PageId - 1;
            assert!(h.read_page_ref(0).is_ok());
            assert!(matches!(
                h.read_page_ref(last),
                Err(StorageError::PageCorruption(_))
            ));
            // Appending needs the tail page, so it must fail too (not
            // silently overwrite the corrupt page).
            assert!(h.insert(&[1u8; 30]).is_err());
        }

        #[test]
        fn absurd_header_counts_are_rejected_without_allocating() {
            let path = TempFile::new("absurd_header");
            {
                let mut h = HeapFile::create(&path.0, 256, b"meta").unwrap();
                h.insert(&[7u8; 30]).unwrap();
                h.sync().unwrap();
            }
            // Forge a huge data_offset (and therefore implied length) in the
            // header; open must reject it via the file-length check instead
            // of trying to allocate/read data_offset bytes.
            let mut bytes = std::fs::read(&path.0).unwrap();
            bytes[28..36].copy_from_slice(&(1u64 << 62).to_be_bytes());
            std::fs::write(&path.0, &bytes).unwrap();
            assert!(matches!(
                HeapFile::open(&path.0),
                Err(StorageError::InvalidFormat(_))
            ));

            // Same for a forged astronomical page count.
            let mut bytes = std::fs::read(&path.0).unwrap();
            bytes[12..20].copy_from_slice(&u64::MAX.to_be_bytes());
            std::fs::write(&path.0, &bytes).unwrap();
            assert!(matches!(
                HeapFile::open(&path.0),
                Err(StorageError::InvalidFormat(_))
            ));
        }

        #[test]
        fn truncated_file_is_rejected_on_open() {
            let path = TempFile::new("truncated");
            {
                let mut h = HeapFile::create(&path.0, 256, b"").unwrap();
                for i in 0..30u8 {
                    h.insert(&[i; 30]).unwrap();
                }
                h.sync().unwrap();
            }
            let bytes = std::fs::read(&path.0).unwrap();
            std::fs::write(&path.0, &bytes[..bytes.len() - 10]).unwrap();
            assert!(HeapFile::open(&path.0).is_err());
        }
    }
}

/// Tests of a [`Table`](crate::table::Table) over a file.
#[cfg(test)]
mod table {
    mod tests {
        use super::super::format;
        use super::super::testing::{header_of, TempFile};
        use crate::counting::CountingSource;
        use crate::datatype::DataType;
        use crate::error::StorageError;
        use crate::heap::HeapFile;
        use crate::rid::{PageId, Rid};
        use crate::row::Row;
        use crate::schema::{Column, Schema};
        use crate::source::{Frame, TableSource};
        use crate::table::{Table, TableBuilder};
        use crate::value::Value;
        use std::path::Path;

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
            let path = TempFile::new("roundtrip");
            {
                let mut t = Table::create(&path.0, "demo", schema(), 512).unwrap();
                for row in rows(200) {
                    t.insert(&row).unwrap();
                }
                t.sync().unwrap();
            }
            let t = Table::open(&path.0).unwrap();
            assert_eq!(t.name(), "demo");
            assert_eq!(t.schema(), &schema());
            assert_eq!(t.num_rows(), 200);
            let all = t.scan_rows().unwrap();
            assert_eq!(all.len(), 200);
            assert_eq!(all[7].1.value(1), &Value::int(7));
            // Each RID's record, read back from its file page, decodes to
            // the row the scan found there.
            for (rid, row) in all.iter().take(20) {
                let page = t.read_page_ref(rid.page).unwrap();
                assert_eq!(&t.codec().decode(page.get(rid.slot).unwrap()).unwrap(), row);
            }
        }

        #[test]
        fn materialize_preserves_layout_and_rows() {
            let path = TempFile::new("materialize");
            let mem = TableBuilder::new("m", schema())
                .page_size(512)
                .build_with_rows(rows(300))
                .unwrap();
            let disk = Table::materialize(&path.0, &mem).unwrap();
            assert_eq!(disk.num_rows(), mem.num_rows());
            assert_eq!(disk.num_pages(), mem.num_pages());
            assert_eq!(disk.page_size(), mem.page_size());
            // Identical frames (same records-per-page packing).
            assert_eq!(Frame::of(&disk), Frame::of(&mem));
            // Identical page payloads, byte for byte.
            for pid in 0..disk.num_pages() as PageId {
                let d = disk.read_page_ref(pid).unwrap();
                let m = mem.read_page_ref(pid).unwrap();
                assert_eq!(d.raw(), m.raw(), "page {pid} differs");
            }
        }

        #[test]
        fn metadata_rids_match_page_walk() {
            let path = TempFile::new("rids");
            let mut t = Table::create(&path.0, "t", schema(), 256).unwrap();
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
            let path = TempFile::new("empty");
            {
                let mut t = Table::create(&path.0, "empty", schema(), 512).unwrap();
                t.sync().unwrap();
            }
            let t = Table::open(&path.0).unwrap();
            assert_eq!(t.num_rows(), 0);
            assert_eq!(t.num_pages(), 0);
            assert!(Frame::of(&t).is_empty());
            assert!(t.scan_rows().unwrap().is_empty());
        }

        /// Rewrite the header's `num_rows` in place and re-seal the metadata
        /// CRC, so the row count is the only lie in the file.
        fn forge_num_rows(path: &Path, num_rows: usize) {
            let header = header_of(path);
            let mut bytes = std::fs::read(path).unwrap();
            let meta = &bytes[format::FILE_HEADER_SIZE..][..header.meta_len];
            let forged = format::FileHeader { num_rows, ..header };
            let region = format::encode_metadata(&forged, meta);
            bytes[..region.len()].copy_from_slice(&region);
            std::fs::write(path, bytes).unwrap();
        }

        /// 100 rows on pages of 512 bytes, synced; returns (pages, rows per page).
        fn hundred_rows(path: &Path) -> (usize, usize) {
            let mut t = Table::create(path, "t", schema(), 512).unwrap();
            for row in rows(100) {
                t.insert(&row).unwrap();
            }
            t.sync().unwrap();
            assert!(t.num_pages() > 2);
            (t.num_pages(), t.rows_per_page())
        }

        #[test]
        fn open_rejects_a_row_count_its_pages_cannot_hold() {
            let path = TempFile::new("lying_rows");
            let (pages, per_page) = hundred_rows(&path.0);
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
                forge_num_rows(&path.0, forged);
                match Table::open(&path.0) {
                    Err(StorageError::InvalidFormat(msg)) => {
                        assert!(msg.contains("rows"), "{what}: {msg}");
                    }
                    other => {
                        panic!("{what} ({forged} rows): expected InvalidFormat, got {other:?}")
                    }
                }
            }
            // The honest count — and any count the pages can hold — opens.
            for honest in [100, (pages - 1) * per_page + 1, pages * per_page] {
                forge_num_rows(&path.0, honest);
                let t = Table::open(&path.0).unwrap();
                assert_eq!(Frame::of(&t).len(), honest);
            }
        }

        #[test]
        fn the_frame_of_a_heap_whose_counts_disagree_reads_a_typed_invalid_rid() {
            let path = TempFile::new("lying_heap");
            let (pages, per_page) = hundred_rows(&path.0);
            // The frame of the heap `Table::open` would have refused.
            let unchecked = |path: &Path| {
                let heap = HeapFile::open(path).unwrap();
                (Frame::new(heap.num_records(), per_page), heap)
            };
            forge_num_rows(&path.0, 1);
            let (frame, _) = unchecked(&path.0);
            assert_eq!(frame.iter().collect::<Vec<_>>(), [Rid::new(0, 0)]);
            // A count past the pages is a frame past them: its positions map
            // by arithmetic alone, and the first one beyond the file is the
            // page read's typed error, not a panic or another page's row.
            for forged in [4 * pages * per_page, usize::MAX] {
                forge_num_rows(&path.0, forged);
                let (frame, heap) = unchecked(&path.0);
                assert_eq!((frame.len(), frame.rows_per_page()), (forged, per_page));
                let past = frame.rid(pages * per_page);
                assert_eq!(past, Rid::new(pages as PageId, 0));
                for rid in [past, frame.rid(forged - 1)] {
                    match heap.read_page_ref(rid.page) {
                        Err(StorageError::InvalidRid { page, .. }) => assert_eq!(page, rid.page),
                        other => {
                            panic!("{forged} rows, {rid:?}: expected InvalidRid, got {other:?}")
                        }
                    }
                }
            }
            // A page that holds no row holds no frame.
            assert!(Frame::new(100, 0).is_empty());
            assert_eq!(Frame::new(100, 0).pages(), 0);
        }

        /// A lent page: its id and its records.
        type Lent = (PageId, Vec<Vec<u8>>);

        /// The pages `read_pages` lends from `first`, and how the call
        /// ended.
        fn lent(
            source: &dyn TableSource,
            first: PageId,
            count: usize,
        ) -> (Vec<Lent>, Result<(), StorageError>) {
            let mut pages = Vec::new();
            let end = source.read_pages(first, count, &mut |page| {
                pages.push((page.id(), page.records().map(<[u8]>::to_vec).collect()));
                Ok(())
            });
            (pages, end)
        }

        #[test]
        fn a_bad_checksum_inside_a_run_fails_that_page_and_lends_nothing_of_it() {
            let path = TempFile::new("run_crc");
            let (pages, _) = hundred_rows(&path.0);
            assert!(pages >= 4);
            let at = header_of(&path.0).page_offset(2) + 100;
            let mut bytes = std::fs::read(&path.0).unwrap();
            bytes[at as usize] ^= 0xFF;
            std::fs::write(&path.0, bytes).unwrap();

            let t = Table::open(&path.0).unwrap();
            let counting = CountingSource::new(&t);
            let (seen, end) = lent(&counting, 0, 4);
            match end {
                Err(StorageError::PageCorruption(msg)) => assert!(msg.contains("page 2"), "{msg}"),
                other => panic!("expected a checksum failure, got {other:?}"),
            }
            // Pages 0 and 1 came whole; page 2 gave no record, and page 3,
            // read in the same run, was never lent.
            let ids: Vec<PageId> = seen.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, [0, 1]);
            for (id, records) in &seen {
                let page = t.read_page_ref(*id).unwrap();
                assert_eq!(
                    records,
                    &page.records().map(<[u8]>::to_vec).collect::<Vec<_>>()
                );
            }
            // Counted as one read a page would have been: 0, 1, and 2.
            assert_eq!(counting.pages_read(), 3);
        }

        #[test]
        fn a_file_cut_inside_a_run_names_the_first_page_missing() {
            let path = TempFile::new("run_cut");
            let (pages, _) = hundred_rows(&path.0);
            assert!(pages >= 5);
            let t = Table::open(&path.0).unwrap();
            let cut = header_of(&path.0).page_offset(3) + 100;
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&path.0)
                .unwrap();
            file.set_len(cut).unwrap();
            drop(file);

            let counting = CountingSource::new(&t);
            let (seen, end) = lent(&counting, 1, 4);
            match end {
                Err(StorageError::Io(msg)) => {
                    assert!(msg.starts_with("reading page 3: "), "{msg}");
                }
                other => panic!("expected a short read, got {other:?}"),
            }
            let ids: Vec<PageId> = seen.iter().map(|(id, _)| *id).collect();
            assert_eq!(ids, [1, 2]);
            assert_eq!(counting.pages_read(), 3);
            // The pages before the cut still read alone.
            assert!(t.read_page_ref(2).is_ok());
        }

        #[test]
        fn a_run_that_reaches_the_unsynced_tail_lends_the_tail() {
            // One append leaves the file a stale copy of the tail; twenty
            // retire it and start a tail the file does not have at all.
            for appended in [1, 20] {
                let path = TempFile::new("run_tail");
                hundred_rows(&path.0);
                let mut t = Table::open(&path.0).unwrap();
                for row in rows(100 + appended).into_iter().skip(100) {
                    t.insert(&row).unwrap();
                }
                let last = t.num_pages() as PageId - 1;
                let tail = t.read_page_ref(last).unwrap();
                assert!(tail.is_borrowed());
                let tail_bytes = tail.raw().as_ptr_range();

                let mut lent_tail = false;
                let mut records = Vec::new();
                t.read_pages(0, t.num_pages(), &mut |page| {
                    lent_tail |= page.id() == last && tail_bytes.contains(&page.raw().as_ptr());
                    records.extend(page.records().map(<[u8]>::to_vec));
                    Ok(())
                })
                .unwrap();
                assert!(lent_tail, "{appended} appended: the tail must be lent");
                let scanned: Vec<Vec<u8>> = (t.scan_rows().unwrap().iter())
                    .map(|(_, row)| t.codec().encode(row).unwrap())
                    .collect();
                assert_eq!(records.len(), 100 + appended);
                assert_eq!(records, scanned, "{appended} appended");
            }
        }

        #[test]
        fn insert_rejects_invalid_rows() {
            let path = TempFile::new("invalid");
            let mut t = Table::create(&path.0, "t", schema(), 512).unwrap();
            assert!(t
                .insert(&Row::new(vec![Value::int(3), Value::int(4)]))
                .is_err());
            assert_eq!(t.num_rows(), 0);
        }
    }
}
