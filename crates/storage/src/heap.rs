//! Heap files: append-only sequences of slotted pages, in memory or in a
//! table file.
//!
//! One [`HeapFile`] serves both stores, and its constructor picks one:
//! [`new`](HeapFile::new) and [`with_page_size`](HeapFile::with_page_size)
//! keep the pages in memory, [`create`](HeapFile::create) and
//! [`open`](HeapFile::open) keep them in a file laid out as
//! [`format`](mod@crate::disk::format) specifies.  Either way records are
//! appended to an in-memory *tail* page; a full tail is *retired* — pushed
//! onto the page vector, or written to its block in the file — and a fresh
//! page becomes the tail.  [`sync`](HeapFile::sync) persists a file's
//! partial tail and header.
//!
//! [`read_page_ref`](HeapFile::read_page_ref) lends the tail and every
//! in-memory page with no copy.  Any other page of a file is one positional
//! read (`pread`) into a buffer that becomes the returned page.
//! [`read_pages`](HeapFile::read_pages) reads a run of adjacent file pages
//! with one positional read per [`MAX_RUN_PAGES`] of them, into a buffer
//! the reading thread keeps for its next run, checks each page where it
//! lies and lends it to the caller.  There is deliberately no buffer pool —
//! no page is kept for a later read — so on a freshly opened file every
//! page is read from the file each time it is asked for, which is exactly
//! the cost model the paper's block-sampling discussion (Section II-C) is
//! about: a page costs a read, and adjacent pages share one.  The file
//! cursor is never moved, so any number of threads (the `samplecfd` worker
//! pool, the trial runner) can read one open file at once with no lock
//! held; writes need `&mut self`, so they never race reads.
//!
//! A file is opened read-only, so a table file without write permission
//! serves every read.  The first append through a handle reopens the file
//! for writing and loads its last page, if any, as the tail.

use crate::disk::format::{self, FileHeader, FILE_HEADER_SIZE};
use crate::error::{StorageError, StorageResult};
use crate::page::{max_record_len, validate_page_size, Page, PageView, DEFAULT_PAGE_SIZE};
use crate::rid::{PageId, Rid};
use crate::source::PageRead;
use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// The most adjacent pages of a file one positional read takes in
/// [`HeapFile::read_pages`]: a run buffer holds this many page blocks
/// (≈ 32 KiB at the default page size).  Four pages keep a one-shot row
/// draw's live heap within the few pages
/// `crates/sampling/tests/alloc_frame.rs` allows it besides its sample;
/// sixteen do not.
pub const MAX_RUN_PAGES: usize = 4;

thread_local! {
    /// The buffer this thread's run reads go into, kept from one
    /// [`HeapFile::read_pages`] call to the next: after a thread's first
    /// run, a run read allocates nothing, and page blocks of every size of
    /// run land in the same place, which a fresh buffer per call sized to
    /// its run did not (it raised a block draw's peak heap by about
    /// 0.4 MiB).  It grows to the largest run read, and no page outlives
    /// the visit it was lent to: a later run overwrites it.
    static RUN_BUFFER: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// An append-only heap of slotted [`Page`]s, in memory or in a file.
///
/// This mirrors how base tables without a clustering key are laid out and
/// is the structure that block-level sampling draws pages from.
#[derive(Debug)]
pub struct HeapFile {
    page_size: usize,
    num_pages: usize,
    num_records: usize,
    /// The last page, which appends fill.  Absent while the heap is empty,
    /// and in a file until the first append through this handle loads it.
    tail: Option<Page>,
    store: Store,
}

/// Where the pages before the tail live.
#[derive(Debug)]
enum Store {
    /// Every retired page, in page-id order.
    Memory(Vec<Page>),
    /// A table file, whose copy of the tail may be stale until a sync.
    File {
        file: File,
        path: PathBuf,
        data_offset: u64,
        /// The opaque metadata blob stored in the file header region.
        meta: Vec<u8>,
        /// Whether the tail or the header counts differ from the file.
        dirty: bool,
    },
}

impl HeapFile {
    /// Create an empty in-memory heap with the default 8 KiB page size.
    #[must_use]
    pub fn new() -> Self {
        Self::with_page_size(DEFAULT_PAGE_SIZE).expect("default page size is valid")
    }

    /// Create an empty in-memory heap with a custom page size.
    pub fn with_page_size(page_size: usize) -> StorageResult<Self> {
        validate_page_size(page_size)?;
        Ok(HeapFile {
            page_size,
            num_pages: 0,
            num_records: 0,
            tail: None,
            store: Store::Memory(Vec::new()),
        })
    }

    /// Create a new (empty) heap file at `path`, truncating any existing
    /// file.  `meta` is an opaque metadata blob stored in the file header
    /// region (the table layer stores its name and schema there).
    pub fn create(path: impl AsRef<Path>, page_size: usize, meta: &[u8]) -> StorageResult<Self> {
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
        let header = FileHeader {
            page_size,
            num_pages: 0,
            num_rows: 0,
            data_offset: format::align_up(FILE_HEADER_SIZE + meta.len(), page_size) as u64,
            meta_len: meta.len(),
        };
        file.write_all_at(&format::encode_metadata(&header, meta), 0)?;
        Ok(HeapFile {
            page_size,
            num_pages: 0,
            num_records: 0,
            tail: None,
            store: Store::File {
                file,
                path: path.as_ref().to_path_buf(),
                data_offset: header.data_offset,
                meta: meta.to_vec(),
                dirty: false,
            },
        })
    }

    /// Open an existing heap file read-only, validating the header,
    /// metadata CRC and file length.  No data page is touched: the tail
    /// page is loaded on the first [`insert`](HeapFile::insert), so
    /// read-only consumers (`samplecf info`, estimation) never pay for it.
    pub fn open(path: impl AsRef<Path>) -> StorageResult<Self> {
        let file = File::open(path.as_ref())?;
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

        Ok(HeapFile {
            page_size: header.page_size,
            num_pages: header.num_pages,
            num_records: header.num_rows,
            tail: None,
            store: Store::File {
                file,
                path: path.as_ref().to_path_buf(),
                data_offset: header.data_offset,
                meta,
                dirty: false,
            },
        })
    }

    /// The file header this heap has, or would have as a file with no
    /// metadata blob.
    fn header(&self) -> FileHeader {
        let (data_offset, meta_len) = match &self.store {
            Store::Memory(_) => (format::align_up(FILE_HEADER_SIZE, self.page_size) as u64, 0),
            Store::File {
                data_offset, meta, ..
            } => (*data_offset, meta.len()),
        };
        FileHeader {
            page_size: self.page_size,
            num_pages: self.num_pages,
            num_rows: self.num_records,
            data_offset,
            meta_len,
        }
    }

    /// The configured page size in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages, the tail included.
    #[must_use]
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// Number of stored records.
    #[must_use]
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// The opaque metadata blob stored in a file's header region (empty in
    /// memory).
    #[must_use]
    pub fn meta(&self) -> &[u8] {
        match &self.store {
            Store::Memory(_) => &[],
            Store::File { meta, .. } => meta,
        }
    }

    /// Size in bytes of the file once synced; in memory, of the file these
    /// pages would fill with no metadata blob.
    #[must_use]
    pub fn file_len(&self) -> u64 {
        self.header().expected_file_len()
    }

    /// Append a record, returning its [`Rid`].  A full tail is retired: a
    /// file writes it out at once, while the partial tail stays in memory
    /// until [`sync`](HeapFile::sync).
    ///
    /// # Errors
    /// Fails if the record cannot fit in any page of the configured size,
    /// or if a file cannot be reopened for writing or its last page read.
    pub fn insert(&mut self, record: &[u8]) -> StorageResult<Rid> {
        let max_payload = max_record_len(self.page_size);
        if record.len() > max_payload {
            return Err(StorageError::RecordTooLarge {
                record_len: record.len(),
                max_payload,
            });
        }
        if self.tail.is_none() {
            self.tail = Some(self.load_tail()?);
        }
        let mut tail = self.tail.as_mut().expect("tail loaded above");
        let slot = match tail.insert(record)? {
            Some(slot) => slot,
            None => {
                self.retire_tail()?;
                tail = self.tail.as_mut().expect("retiring starts a new tail");
                tail.insert(record)?
                    .expect("record fits in an empty page by the length check above")
            }
        };
        let rid = Rid::new(tail.id(), slot);
        self.num_records += 1;
        if let Store::File { dirty, .. } = &mut self.store {
            *dirty = true;
        }
        Ok(rid)
    }

    /// Retire the full tail — pushed onto the page vector, or written to its
    /// block in the file — and start the next page as the tail.  The write
    /// comes first, so a failed one leaves the heap as it was.
    fn retire_tail(&mut self) -> StorageResult<()> {
        let last = self.num_pages as PageId - 1;
        let next = Page::new(last + 1, self.page_size)?;
        if let Store::File { file, .. } = &self.store {
            let full = self.tail.as_ref().expect("only a loaded tail fills");
            file.write_all_at(&format::encode_page(full), self.header().page_offset(last))?;
        }
        let full = self.tail.replace(next).expect("only a loaded tail fills");
        if let Store::Memory(pages) = &mut self.store {
            pages.push(full);
        }
        self.num_pages += 1;
        Ok(())
    }

    /// The tail for the first append through this handle: page 0 of an
    /// empty heap, or the last page of a file, which this reopens for
    /// writing first.
    fn load_tail(&mut self) -> StorageResult<Page> {
        if let Store::File { file, path, .. } = &mut self.store {
            *file = OpenOptions::new().read(true).write(true).open(&*path)?;
        }
        if self.num_pages == 0 {
            let page = Page::new(0, self.page_size)?;
            self.num_pages = 1;
            return Ok(page);
        }
        Ok(self
            .read_page_ref(self.num_pages as PageId - 1)?
            .into_owned())
    }

    /// Persist a file's partial tail page and metadata header, then fsync.
    /// A memory heap has nothing to persist.
    pub fn sync(&mut self) -> StorageResult<()> {
        let header = self.header();
        let Store::File {
            file, meta, dirty, ..
        } = &mut self.store
        else {
            return Ok(());
        };
        if *dirty {
            if let Some(tail) = &self.tail {
                file.write_all_at(&format::encode_page(tail), header.page_offset(tail.id()))?;
            }
            file.write_all_at(&format::encode_metadata(&header, meta), 0)?;
            *dirty = false;
        }
        file.sync_all()?;
        Ok(())
    }

    /// Read one page without forcing a copy: the tail and every in-memory
    /// page are *borrowed*, while any other page of a file is physically
    /// read (one `pread` of its own, checksum verified) and returned owned.
    /// A run of adjacent pages is cheaper through
    /// [`read_pages`](Self::read_pages).
    pub fn read_page_ref(&self, id: PageId) -> StorageResult<PageRead<'_>> {
        if id as usize >= self.num_pages {
            return Err(StorageError::InvalidRid { page: id, slot: 0 });
        }
        match (&self.tail, &self.store) {
            (Some(tail), _) if tail.id() == id => Ok(PageRead::Borrowed(tail)),
            (_, Store::Memory(pages)) => Ok(PageRead::Borrowed(&pages[id as usize])),
            (_, Store::File { file, .. }) => {
                let header = self.header();
                let mut block = vec![0u8; header.page_stride() as usize];
                file.read_exact_at(&mut block, header.page_offset(id))
                    .map_err(|e| StorageError::Io(format!("reading page {id}: {e}")))?;
                Ok(PageRead::Owned(format::decode_page(
                    id,
                    self.page_size,
                    block,
                )?))
            }
        }
    }

    /// Lend `count` adjacent pages from `first` to `visit`, in page order.
    /// In memory, and for a file's loaded tail, the page is lent as it is.
    /// Any other page of a file is read in runs of at most
    /// [`MAX_RUN_PAGES`], one `pread` each, into the calling thread's run
    /// buffer, and checked where it lies — checksum, ids, size and slot
    /// directory, as [`read_page_ref`](Self::read_page_ref) checks it —
    /// before it is visited.  A run read that fails or comes back short is
    /// read again a page at a time, so the error names the page lost.
    ///
    /// # Errors
    /// The first failed read, check or visit; every page before it has been
    /// visited, and none after.
    pub fn read_pages(
        &self,
        first: PageId,
        count: usize,
        visit: &mut dyn FnMut(PageView<'_>) -> StorageResult<()>,
    ) -> StorageResult<()> {
        let Store::File { file, .. } = &self.store else {
            for id in (first..).take(count) {
                visit(self.read_page_ref(id)?.view())?;
            }
            return Ok(());
        };
        // Taken for the call and handed back after it: a nested call, from
        // inside a visit, reads into a buffer of its own.
        let mut buf = RUN_BUFFER.take();
        let stride = self.header().page_stride() as usize;
        buf.resize(buf.len().max(count.min(MAX_RUN_PAGES) * stride), 0);
        let read = self.read_file_pages(file, &mut buf, first, count, visit);
        RUN_BUFFER.set(buf);
        read
    }

    /// [`read_pages`](Self::read_pages) from `file`, runs read into `buf`.
    fn read_file_pages(
        &self,
        file: &File,
        buf: &mut [u8],
        first: PageId,
        count: usize,
        visit: &mut dyn FnMut(PageView<'_>) -> StorageResult<()>,
    ) -> StorageResult<()> {
        let header = self.header();
        let stride = header.page_stride() as usize;
        // Pages before a loaded tail are read from the file; the tail is
        // lent, and a page past the end is `read_page_ref`'s error.
        let in_file = self
            .tail
            .as_ref()
            .map_or(self.num_pages, |t| t.id() as usize);
        let end = (first as usize).saturating_add(count);
        let mut id = first as usize;
        while id < end {
            let pid = id as PageId;
            let run = end.min(id + MAX_RUN_PAGES).min(in_file).saturating_sub(id);
            if run == 0 {
                visit(self.read_page_ref(pid)?.view())?;
                id += 1;
                continue;
            }
            let blocks = &mut buf[..run * stride];
            if file.read_exact_at(blocks, header.page_offset(pid)).is_ok() {
                for (k, block) in (0..).zip(blocks.chunks_exact(stride)) {
                    visit(format::check_page(pid + k, self.page_size, block)?)?;
                }
            } else {
                for k in 0..run as PageId {
                    visit(self.read_page_ref(pid + k)?.view())?;
                }
            }
            id += run;
        }
        Ok(())
    }
}

impl Default for HeapFile {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for HeapFile {
    fn drop(&mut self) {
        // Best-effort durability for users who forget the explicit sync;
        // errors here have no channel to report through.
        if matches!(self.store, Store::File { dirty: true, .. }) {
            let _ = self.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `(rid, record)` of `h`, in storage order, read page by page.
    fn scan(h: &HeapFile) -> Vec<(Rid, Vec<u8>)> {
        let mut out = Vec::new();
        for pid in 0..h.num_pages() as PageId {
            let page = h.read_page_ref(pid).unwrap();
            for slot in 0..page.slot_count() {
                out.push((Rid::new(pid, slot), page.get(slot).unwrap().to_vec()));
            }
        }
        out
    }

    #[test]
    fn empty_heap() {
        let h = HeapFile::new();
        assert_eq!(h.num_pages(), 0);
        assert_eq!(h.num_records(), 0);
        assert!(scan(&h).is_empty());
        assert!(matches!(
            h.read_page_ref(0),
            Err(StorageError::InvalidRid { page: 0, .. })
        ));
    }

    #[test]
    fn insert_allocates_pages_as_needed() {
        let mut h = HeapFile::with_page_size(128).unwrap();
        let rec = vec![1u8; 30];
        for _ in 0..12 {
            h.insert(&rec).unwrap();
        }
        assert_eq!(h.num_records(), 12);
        assert!(
            h.num_pages() >= 4,
            "30-byte records cannot all fit one 128B page"
        );
        let payload: usize = (0..h.num_pages() as PageId)
            .map(|pid| h.read_page_ref(pid).unwrap().payload_bytes())
            .sum();
        assert_eq!(payload, 12 * 30);
    }

    #[test]
    fn get_by_rid_roundtrips() {
        let mut h = HeapFile::with_page_size(128).unwrap();
        let mut rids = Vec::new();
        for i in 0..20u8 {
            rids.push(h.insert(&[i; 25]).unwrap());
        }
        for (i, rid) in rids.iter().enumerate() {
            let page = h.read_page_ref(rid.page).unwrap();
            assert_eq!(page.get(rid.slot).unwrap(), &[i as u8; 25]);
        }
        assert!(h.read_page_ref(999).is_err());
    }

    #[test]
    fn scan_visits_all_records_in_order() {
        let mut h = HeapFile::with_page_size(256).unwrap();
        let rids: Vec<Rid> = (0..50u8).map(|i| h.insert(&[i]).unwrap()).collect();
        let scanned = scan(&h);
        let seen: Vec<u8> = scanned.iter().map(|(_, r)| r[0]).collect();
        assert_eq!(seen, (0..50u8).collect::<Vec<_>>());
        // The scan's RIDs are the ones the inserts returned.
        assert_eq!(
            scanned.iter().map(|(rid, _)| *rid).collect::<Vec<_>>(),
            rids
        );
    }

    #[test]
    fn oversized_record_rejected() {
        let mut h = HeapFile::with_page_size(128).unwrap();
        assert!(h.insert(&vec![0u8; 4096]).is_err());
        assert_eq!(h.num_records(), 0);
    }
}
