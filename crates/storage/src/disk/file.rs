//! File-backed heap files.
//!
//! A [`DiskHeapFile`] is the persistent counterpart of
//! [`HeapFile`](crate::heap::HeapFile): an append-only sequence of slotted
//! pages stored in one file using the layout in
//! [`format`](mod@crate::disk::format).  Appends fill an in-memory tail page and
//! flush full pages to disk; [`sync`](DiskHeapFile::sync) persists the
//! partial tail and the metadata header.  Reads go straight to the file —
//! there is deliberately no buffer pool, so on a freshly opened file every
//! [`read_page`](DiskHeapFile::read_page) is one physical page read, which
//! is exactly the cost model the paper's block-sampling discussion
//! (Section II-C) is about.  (The only cached page is the unflushed tail
//! while a writer is appending.)
//!
//! All I/O is **positional**: each page read is one `pread` and each write
//! one `pwrite`, and the shared file cursor is never moved, so any number
//! of threads (the `samplecfd` worker pool, the trial runner) can read
//! pages of one open file simultaneously with no lock held.  Writes
//! require `&mut self`, so they never race reads.

use crate::disk::format::{self, FileHeader, FILE_HEADER_SIZE};
use crate::error::{StorageError, StorageResult};
use crate::page::{max_record_len, validate_page_size, Page};
use crate::rid::{PageId, Rid};
use crate::source::PageRead;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// An append-only heap file persisted to disk, page by page.
#[derive(Debug)]
pub struct DiskHeapFile {
    file: File,
    path: PathBuf,
    page_size: usize,
    data_offset: u64,
    meta: Vec<u8>,
    num_records: usize,
    num_pages: usize,
    /// Write buffer: the last page of the file, loaded lazily on the first
    /// append so it can be filled further.  Its on-disk copy may be stale
    /// until the next flush.  Absent on read-only usage, in which case
    /// every page access is a physical file read.
    tail: Option<Page>,
    /// Whether `tail` or the header counts differ from the file contents.
    dirty: bool,
}

impl DiskHeapFile {
    /// Create a new (empty) heap file at `path`, truncating any existing
    /// file.  `meta` is an opaque metadata blob stored in the file header
    /// region (the table layer stores its name and schema there).
    pub fn create(
        path: impl AsRef<Path>,
        page_size: usize,
        meta: &[u8],
    ) -> StorageResult<DiskHeapFile> {
        validate_page_size(page_size)?;
        if meta.len() > u32::MAX as usize {
            return Err(StorageError::InvalidFormat(format!(
                "metadata blob of {} bytes exceeds the format limit",
                meta.len()
            )));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        let mut this = DiskHeapFile {
            file,
            path: path.as_ref().to_path_buf(),
            page_size,
            data_offset: format::align_up(FILE_HEADER_SIZE + meta.len(), page_size) as u64,
            meta: meta.to_vec(),
            num_records: 0,
            num_pages: 0,
            tail: None,
            dirty: false,
        };
        this.write_metadata()?;
        Ok(this)
    }

    /// Open an existing heap file, validating the header, metadata CRC and
    /// file length.  No data page is touched: the tail page is loaded
    /// lazily on the first [`append`](DiskHeapFile::append), so read-only
    /// consumers (`samplecf info`, estimation) never pay for it.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<DiskHeapFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        let mut fixed = vec![0u8; FILE_HEADER_SIZE];
        file.read_exact_at(&mut fixed, 0)
            .map_err(|e| StorageError::InvalidFormat(format!("cannot read file header: {e}")))?;
        let header = format::decode_file_header(&fixed)?;

        // Bound every untrusted header field against the real file length
        // *before* allocating or reading anything sized by it: a corrupt
        // header must produce an error, never a huge allocation.
        let actual_len = file.metadata()?.len();
        if actual_len != header.expected_file_len() {
            return Err(StorageError::InvalidFormat(format!(
                "file is {actual_len} bytes but the header implies {} ({} pages of {} bytes)",
                header.expected_file_len(),
                header.num_pages,
                header.page_size
            )));
        }

        let mut region = vec![0u8; header.data_offset as usize];
        file.read_exact_at(&mut region, 0)
            .map_err(|e| StorageError::InvalidFormat(format!("metadata region truncated: {e}")))?;
        format::verify_metadata_crc(&region)?;
        let meta = region[FILE_HEADER_SIZE..FILE_HEADER_SIZE + header.meta_len].to_vec();

        Ok(DiskHeapFile {
            file,
            path: path.as_ref().to_path_buf(),
            page_size: header.page_size,
            data_offset: header.data_offset,
            meta,
            num_records: header.num_rows,
            num_pages: header.num_pages,
            tail: None,
            dirty: false,
        })
    }

    fn header(&self) -> FileHeader {
        FileHeader {
            page_size: self.page_size,
            num_pages: self.num_pages,
            num_rows: self.num_records,
            data_offset: self.data_offset,
            meta_len: self.meta.len(),
        }
    }

    fn write_metadata(&mut self) -> StorageResult<()> {
        let region = format::encode_metadata(&self.header(), &self.meta);
        self.file.write_all_at(&region, 0)?;
        Ok(())
    }

    fn write_page(&self, page: &Page) -> StorageResult<()> {
        let block = format::encode_page(page);
        self.file
            .write_all_at(&block, self.header().page_offset(page.id()))?;
        Ok(())
    }

    fn read_page_at(&self, id: PageId, header: &FileHeader) -> StorageResult<Page> {
        let mut block = vec![0u8; header.page_stride() as usize];
        self.file
            .read_exact_at(&mut block, header.page_offset(id))
            .map_err(|e| StorageError::Io(format!("reading page {id}: {e}")))?;
        format::decode_page(id, self.page_size, block)
    }

    /// The path this heap file lives at.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages (including an unflushed tail, if any).
    #[must_use]
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// Number of stored records.
    #[must_use]
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// The opaque metadata blob stored in the file header region.
    #[must_use]
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// Total size in bytes the file occupies once synced.
    #[must_use]
    pub fn file_len(&self) -> u64 {
        self.header().expected_file_len()
    }

    /// Load the last page into the write buffer (first append after open),
    /// or allocate page 0 for an empty file.
    fn ensure_tail(&mut self) -> StorageResult<()> {
        if self.tail.is_some() {
            return Ok(());
        }
        if self.num_pages == 0 {
            self.tail = Some(Page::new(0, self.page_size)?);
            self.num_pages = 1;
        } else {
            let header = self.header();
            self.tail = Some(self.read_page_at(self.num_pages as PageId - 1, &header)?);
        }
        Ok(())
    }

    /// Append a record, returning its [`Rid`].  Full pages are written out
    /// immediately; the partial tail page stays in memory until
    /// [`sync`](DiskHeapFile::sync).
    pub fn append(&mut self, record: &[u8]) -> StorageResult<Rid> {
        if record.len() > max_record_len(self.page_size) {
            return Err(StorageError::RecordTooLarge {
                record_len: record.len(),
                max_payload: max_record_len(self.page_size),
            });
        }
        self.ensure_tail()?;
        let tail = self.tail.as_mut().expect("tail loaded by ensure_tail");
        let rid = if let Some(slot) = tail.insert(record)? {
            Rid::new(tail.id(), slot)
        } else {
            // Tail full: persist it and start the next page.
            let next_id = tail.id() + 1;
            let full = self.tail.take().expect("tail exists");
            self.write_page(&full)?;
            let mut page = Page::new(next_id, self.page_size)?;
            let slot = page
                .insert(record)?
                .expect("record fits in an empty page by the length check above");
            self.tail = Some(page);
            self.num_pages = next_id as usize + 1;
            Rid::new(next_id, slot)
        };
        self.num_records += 1;
        self.dirty = true;
        Ok(rid)
    }

    /// Persist the partial tail page and the metadata header, then fsync.
    pub fn sync(&mut self) -> StorageResult<()> {
        if self.dirty {
            if let Some(tail) = self.tail.as_ref() {
                self.write_page(tail)?;
            }
            self.write_metadata()?;
            self.dirty = false;
        }
        self.file.sync_all()?;
        Ok(())
    }

    /// Read one page.  This is a physical file read, with one exception:
    /// while appends are in flight the unflushed tail page is served from
    /// the write buffer (its on-disk copy may be stale).  On a freshly
    /// opened file every page access hits the file.
    pub fn read_page(&self, id: PageId) -> StorageResult<Page> {
        Ok(self.read_page_ref(id)?.into_owned())
    }

    /// Read one page without forcing a copy: the unflushed in-memory tail is
    /// *borrowed* straight out of the write buffer (the fix for the
    /// tail-clone-per-read hot spot), while every other page is physically
    /// read from the file and returned owned.
    pub fn read_page_ref(&self, id: PageId) -> StorageResult<PageRead<'_>> {
        if (id as usize) >= self.num_pages() {
            return Err(StorageError::InvalidRid { page: id, slot: 0 });
        }
        if let Some(tail) = self.tail.as_ref() {
            if tail.id() == id {
                return Ok(PageRead::Borrowed(tail));
            }
        }
        Ok(PageRead::Owned(self.read_page_at(id, &self.header())?))
    }
}

impl Drop for DiskHeapFile {
    fn drop(&mut self) {
        // Best-effort durability for users who forget the explicit sync;
        // errors here have no channel to report through.
        if self.dirty {
            let _ = self.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "samplecf_heap_{tag}_{}_{n}.scf",
            std::process::id()
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn create_append_sync_open_roundtrip() {
        let path = temp_path("roundtrip");
        let _cleanup = Cleanup(path.clone());
        let mut rids = Vec::new();
        {
            let mut h = DiskHeapFile::create(&path, 256, b"meta-blob").unwrap();
            for i in 0..100u8 {
                rids.push(h.append(&[i; 20]).unwrap());
            }
            h.sync().unwrap();
            assert!(h.num_pages() > 1);
            assert_eq!(h.num_records(), 100);
        }
        let h = DiskHeapFile::open(&path).unwrap();
        assert_eq!(h.num_records(), 100);
        assert_eq!(h.page_size(), 256);
        assert_eq!(h.meta(), b"meta-blob");
        for (i, rid) in rids.iter().enumerate() {
            let page = h.read_page(rid.page).unwrap();
            assert_eq!(page.get(rid.slot).unwrap(), &[i as u8; 20]);
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            h.file_len(),
            "header-implied length matches the real file"
        );
    }

    #[test]
    fn concurrent_readers_see_identical_pages() {
        let path = temp_path("concurrent");
        let _cleanup = Cleanup(path.clone());
        {
            let mut h = DiskHeapFile::create(&path, 256, b"").unwrap();
            for i in 0..120u8 {
                h.append(&[i; 24]).unwrap();
            }
            h.sync().unwrap();
        }
        let h = DiskHeapFile::open(&path).unwrap();
        let serial: Vec<Vec<u8>> = (0..h.num_pages())
            .map(|pid| h.read_page(pid as PageId).unwrap().raw().to_vec())
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
                            let page = h.read_page(pid as PageId).unwrap();
                            assert_eq!(page.raw(), serial[pid].as_slice(), "page {pid}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn append_after_reopen_continues_the_tail_page() {
        let path = temp_path("reopen");
        let _cleanup = Cleanup(path.clone());
        {
            let mut h = DiskHeapFile::create(&path, 256, b"").unwrap();
            for i in 0..5u8 {
                h.append(&[i; 20]).unwrap();
            }
            h.sync().unwrap();
        }
        {
            let mut h = DiskHeapFile::open(&path).unwrap();
            let pages_before = h.num_pages();
            h.append(&[99u8; 20]).unwrap();
            // A 256-byte page holds more than 6 records of 20 bytes, so the
            // append lands on the existing tail page.
            assert_eq!(h.num_pages(), pages_before);
            h.sync().unwrap();
        }
        let h = DiskHeapFile::open(&path).unwrap();
        assert_eq!(h.num_records(), 6);
        let page = h.read_page(0).unwrap();
        assert_eq!(page.get(5).unwrap(), &[99u8; 20]);
    }

    #[test]
    fn unsynced_tail_is_readable_in_memory() {
        let path = temp_path("tail");
        let _cleanup = Cleanup(path.clone());
        let mut h = DiskHeapFile::create(&path, 256, b"").unwrap();
        let rid = h.append(b"unsynced").unwrap();
        let page = h.read_page(rid.page).unwrap();
        assert_eq!(page.get(rid.slot).unwrap(), b"unsynced");
    }

    #[test]
    fn tail_page_reads_borrow_the_write_buffer_without_copying() {
        let path = temp_path("tail_nocopy");
        let _cleanup = Cleanup(path.clone());
        let mut h = DiskHeapFile::create(&path, 256, b"").unwrap();
        for i in 0..20u8 {
            h.append(&[i; 24]).unwrap();
        }
        let tail_id = h.num_pages() as PageId - 1;
        let read = h.read_page_ref(tail_id).unwrap();
        assert!(read.is_borrowed(), "tail must be lent, not cloned");
        // The borrowed view is literally the in-memory write buffer.
        assert!(std::ptr::eq(
            read.as_page(),
            h.tail.as_ref().expect("tail resident while appending")
        ));
        drop(read);
        // Flushed pages cannot be borrowed: they come back owned from disk.
        if tail_id > 0 {
            assert!(!h.read_page_ref(0).unwrap().is_borrowed());
        }
        // The owned compatibility path still serves the same bytes.
        let owned = h.read_page(tail_id).unwrap();
        assert_eq!(owned.raw(), h.read_page_ref(tail_id).unwrap().raw());
    }

    #[test]
    fn one_handle_reads_back_every_append_across_syncs() {
        // Each round grows the file by whole pages and rewrites its tail and
        // header, then reads every page back from the file through the same
        // handle: no read may see a stale or short page.
        let path = temp_path("rounds");
        let _cleanup = Cleanup(path.clone());
        let mut h = DiskHeapFile::create(&path, 256, b"").unwrap();
        let mut appended: Vec<(Rid, Vec<u8>)> = Vec::new();
        for round in 0..5u8 {
            let pages_before = h.num_pages();
            for i in 0..30u8 {
                let record = vec![round.wrapping_mul(31) ^ i; 20 + usize::from(i % 5)];
                appended.push((h.append(&record).unwrap(), record));
            }
            assert!(h.num_pages() > pages_before + 1, "round {round} adds pages");
            h.sync().unwrap();
            let header = h.header();
            for pid in 0..h.num_pages() as PageId {
                let page = h.read_page_at(pid, &header).unwrap();
                let expected: Vec<&[u8]> = appended
                    .iter()
                    .filter(|(rid, _)| rid.page == pid)
                    .map(|(_, record)| record.as_slice())
                    .collect();
                assert_eq!(
                    page.records().collect::<Vec<_>>(),
                    expected,
                    "round {round}, page {pid}"
                );
            }
        }
    }

    #[test]
    fn physical_reads_recycle_pooled_buffers() {
        // Reads share no buffer pool: on a freshly opened file every read is
        // a physical read into a buffer of its own, so changing one returned
        // page can leak into neither a later read nor the file.
        let path = temp_path("pool");
        let _cleanup = Cleanup(path.clone());
        {
            let mut h = DiskHeapFile::create(&path, 256, b"").unwrap();
            for i in 0..60u8 {
                h.append(&[i; 24]).unwrap();
            }
            h.sync().unwrap();
        }
        let h = DiskHeapFile::open(&path).unwrap();
        for pid in 0..h.num_pages() as PageId {
            assert!(!h.read_page_ref(pid).unwrap().is_borrowed(), "page {pid}");
        }
        let last = h.num_pages() as PageId - 1;
        let mut first = h.read_page(last).unwrap();
        let before = first.raw().to_vec();
        let slot = first
            .insert(b"scribble")
            .unwrap()
            .expect("tail page has room");
        assert_eq!(first.get(slot).unwrap(), b"scribble");
        let second = h.read_page(last).unwrap();
        assert_eq!(second.raw(), before.as_slice());
        assert_ne!(second.raw(), first.raw());
    }

    #[test]
    fn sync_fences_the_scratch_pool() {
        // A handle that has already read a page physically, then appends to
        // that page and syncs, must read the new contents back afterwards.
        let path = temp_path("pool_fence");
        let _cleanup = Cleanup(path.clone());
        {
            let mut h = DiskHeapFile::create(&path, 256, b"").unwrap();
            for i in 0..3u8 {
                h.append(&[i; 24]).unwrap();
            }
            h.sync().unwrap();
        }
        let mut h = DiskHeapFile::open(&path).unwrap();
        assert_eq!(h.read_page(0).unwrap().records().count(), 3);
        h.append(&[61u8; 24]).unwrap();
        h.sync().unwrap();
        let header = h.header();
        let page = h.read_page_at(0, &header).unwrap();
        assert_eq!(page.records().count(), 4);
        assert_eq!(page.get(3).unwrap(), &[61u8; 24]);
        // Appends that flush page 0 and start page 1 are visible too.
        for i in 0..20u8 {
            h.append(&[100 + i; 24]).unwrap();
        }
        h.sync().unwrap();
        let header = h.header();
        assert!(header.num_pages > 1);
        let total: usize = (0..header.num_pages as PageId)
            .map(|pid| h.read_page_at(pid, &header).unwrap().records().count())
            .sum();
        assert_eq!(total, 24);
    }

    #[test]
    fn drop_syncs_pending_writes() {
        let path = temp_path("drop");
        let _cleanup = Cleanup(path.clone());
        {
            let mut h = DiskHeapFile::create(&path, 256, b"").unwrap();
            h.append(b"persisted-by-drop").unwrap();
        }
        let h = DiskHeapFile::open(&path).unwrap();
        assert_eq!(h.num_records(), 1);
        assert_eq!(
            h.read_page(0).unwrap().get(0).unwrap(),
            b"persisted-by-drop"
        );
    }

    #[test]
    fn out_of_range_and_oversized_are_errors() {
        let path = temp_path("errors");
        let _cleanup = Cleanup(path.clone());
        let mut h = DiskHeapFile::create(&path, 128, b"").unwrap();
        assert!(matches!(
            h.read_page(0),
            Err(StorageError::InvalidRid { .. })
        ));
        assert!(matches!(
            h.append(&[0u8; 4096]),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn corrupted_page_fails_checksum_on_read() {
        let path = temp_path("corrupt");
        let _cleanup = Cleanup(path.clone());
        {
            let mut h = DiskHeapFile::create(&path, 256, b"").unwrap();
            for i in 0..30u8 {
                h.append(&[i; 30]).unwrap();
            }
            h.sync().unwrap();
        }
        // Flip one byte in the middle of page 1's payload.
        let header_len;
        {
            let h = DiskHeapFile::open(&path).unwrap();
            assert!(h.num_pages() >= 2);
            header_len = h.header().page_offset(1) + 100;
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[header_len as usize] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();

        let h = DiskHeapFile::open(&path).unwrap();
        assert!(h.read_page(0).is_ok(), "untouched page still reads");
        let err = h.read_page(1).unwrap_err();
        assert!(
            matches!(err, StorageError::PageCorruption(_)),
            "expected checksum failure, got {err:?}"
        );
    }

    #[test]
    fn open_touches_no_data_pages_even_if_the_tail_is_corrupt() {
        let path = temp_path("lazy_open");
        let _cleanup = Cleanup(path.clone());
        let last_page_offset;
        {
            let mut h = DiskHeapFile::create(&path, 256, b"").unwrap();
            for i in 0..30u8 {
                h.append(&[i; 30]).unwrap();
            }
            h.sync().unwrap();
            last_page_offset = h.header().page_offset(h.num_pages() as PageId - 1);
        }
        // Corrupt the LAST page.  A read-only open must still succeed
        // (metadata only); the failure surfaces on access.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[last_page_offset as usize + 40] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();

        let mut h = DiskHeapFile::open(&path).unwrap();
        let last = h.num_pages() as PageId - 1;
        assert!(h.read_page(0).is_ok());
        assert!(matches!(
            h.read_page(last),
            Err(StorageError::PageCorruption(_))
        ));
        // Appending needs the tail page, so it must fail too (not silently
        // overwrite the corrupt page).
        assert!(h.append(&[1u8; 30]).is_err());
    }

    #[test]
    fn absurd_header_counts_are_rejected_without_allocating() {
        let path = temp_path("absurd_header");
        let _cleanup = Cleanup(path.clone());
        {
            let mut h = DiskHeapFile::create(&path, 256, b"meta").unwrap();
            h.append(&[7u8; 30]).unwrap();
            h.sync().unwrap();
        }
        // Forge a huge data_offset (and therefore implied length) in the
        // header; open must reject it via the file-length check instead of
        // trying to allocate/read data_offset bytes.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[28..36].copy_from_slice(&(1u64 << 62).to_be_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DiskHeapFile::open(&path),
            Err(StorageError::InvalidFormat(_))
        ));

        // Same for a forged astronomical page count.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12..20].copy_from_slice(&u64::MAX.to_be_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DiskHeapFile::open(&path),
            Err(StorageError::InvalidFormat(_))
        ));
    }

    #[test]
    fn truncated_file_is_rejected_on_open() {
        let path = temp_path("truncated");
        let _cleanup = Cleanup(path.clone());
        {
            let mut h = DiskHeapFile::create(&path, 256, b"").unwrap();
            for i in 0..30u8 {
                h.append(&[i; 30]).unwrap();
            }
            h.sync().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(DiskHeapFile::open(&path).is_err());
    }
}
