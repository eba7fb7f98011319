//! Slotted pages.
//!
//! A [`Page`] is a fixed-size byte buffer with the classical slotted layout
//! used by disk-based engines: a small header, records growing forward from
//! the header, and a slot directory growing backward from the end of the
//! page.  The per-page overheads (header plus one slot entry per record) are
//! part of what the compression fraction measures, so they are modelled
//! explicitly rather than abstracted away.
//!
//! Layout of the backing buffer:
//!
//! ```text
//! +--------------+-------------------------+-----------+------------------+
//! | header (16B) | record 0 | record 1 ... |   free    | ... slot1 slot0  |
//! +--------------+-------------------------+-----------+------------------+
//! ```
//!
//! Each slot entry is 4 bytes: a 2-byte record offset and a 2-byte record
//! length.

use crate::error::{StorageError, StorageResult};
use crate::rid::PageId;

/// Default page size used throughout the library (8 KiB, as in SQL Server).
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// Fixed page header size in bytes.
pub const PAGE_HEADER_SIZE: usize = 16;

/// Size of one slot directory entry in bytes.
pub const SLOT_SIZE: usize = 4;

/// Smallest supported page size.
pub const MIN_PAGE_SIZE: usize = 64;

/// Largest supported page size (offsets are 16-bit).
pub const MAX_PAGE_SIZE: usize = 32 * 1024;

/// Validate a page size, returning it if acceptable.
pub fn validate_page_size(page_size: usize) -> StorageResult<usize> {
    if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
        return Err(StorageError::PageCorruption(format!(
            "page size {page_size} outside supported range [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
        )));
    }
    Ok(page_size)
}

/// Maximum record payload a page of `page_size` bytes can hold.
#[must_use]
pub fn max_record_len(page_size: usize) -> usize {
    page_size.saturating_sub(PAGE_HEADER_SIZE + SLOT_SIZE)
}

/// A slotted page holding variable-length records: its own buffer, which
/// appends fill.  Its record accessors are its [`view`](Page::view)'s.
#[derive(Debug, Clone)]
pub struct Page {
    id: PageId,
    data: Vec<u8>,
}

/// The read half of a [`Page`]: a page id and the page's bytes, borrowed
/// from wherever they live — a [`Page`], or a buffer of a run read whose
/// checks they passed ([`TableSource::read_pages`]).  Built only through
/// [`Page::view`] or [`PageView::new`], so its slot directory is always
/// the one [`PageView::new`] accepts.
///
/// [`TableSource::read_pages`]: crate::source::TableSource::read_pages
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    id: PageId,
    data: &'a [u8],
}

impl<'a> PageView<'a> {
    /// View `data` as page `expected_id`, validating every structural
    /// invariant so that corrupt or truncated bytes are rejected instead of
    /// causing panics later.
    ///
    /// # Errors
    /// Fails if the buffer size is unsupported, the stored page id does not
    /// match `expected_id`, or the slot directory is inconsistent.
    pub fn new(expected_id: PageId, data: &'a [u8]) -> StorageResult<Self> {
        validate_page_size(data.len())?;
        let stored_id = PageId::from_be_bytes([data[0], data[1], data[2], data[3]]);
        if stored_id != expected_id {
            return Err(StorageError::PageCorruption(format!(
                "page header stores id {stored_id}, expected {expected_id}"
            )));
        }
        let view = PageView {
            id: stored_id,
            data,
        };
        let free_ptr = view.free_ptr();
        let slot_count = view.slot_count();
        let dir_start = data
            .len()
            .checked_sub(usize::from(slot_count) * SLOT_SIZE)
            .ok_or_else(|| {
                StorageError::PageCorruption(format!(
                    "slot directory of {slot_count} entries exceeds the page"
                ))
            })?;
        if free_ptr < PAGE_HEADER_SIZE || free_ptr > dir_start {
            return Err(StorageError::PageCorruption(format!(
                "free pointer {free_ptr} outside the valid range [{PAGE_HEADER_SIZE}, {dir_start}]"
            )));
        }
        // Each entry is a big-endian `offset << 16 | len`.  One pass with no
        // early exit (so the compiler can vectorise it) decides; only a page
        // that fails walks the directory again for the slot to name.  The
        // directory grows backward from the end of the page, so slot 0 is
        // its last entry.
        let span = |entry: &[u8]| {
            let entry = u32::from_be_bytes([entry[0], entry[1], entry[2], entry[3]]);
            (entry >> 16, (entry >> 16) + (entry & 0xFFFF))
        };
        let outside = |(offset, end): (u32, u32)| {
            (offset < PAGE_HEADER_SIZE as u32) | (end as usize > free_ptr)
        };
        let directory = data[dir_start..].chunks_exact(SLOT_SIZE);
        if !directory.fold(false, |bad, entry| bad | outside(span(entry))) {
            return Ok(view);
        }
        let slots = data[dir_start..].rchunks_exact(SLOT_SIZE).map(span);
        let (slot, (offset, end)) = (slots.enumerate().find(|&(_, span)| outside(span)))
            .expect("the pass above found an entry outside");
        Err(StorageError::PageCorruption(format!(
            "slot {slot} spans [{offset}, {end}) outside the record area"
        )))
    }

    /// The page identifier.
    #[must_use]
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Total size of the page in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.data.len()
    }

    /// Number of records stored in the page.
    #[must_use]
    pub fn slot_count(&self) -> u16 {
        u16::from_be_bytes([self.data[4], self.data[5]])
    }

    fn free_ptr(&self) -> usize {
        u32::from_be_bytes([self.data[8], self.data[9], self.data[10], self.data[11]]) as usize
    }

    /// Number of payload bytes currently stored (sum of record lengths).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        (0..self.slot_count())
            .map(|s| self.slot(s).map_or(0, |(_, len)| len))
            .sum()
    }

    /// Bytes of the page that are pure bookkeeping overhead
    /// (header + slot directory).
    #[must_use]
    pub fn overhead_bytes(&self) -> usize {
        PAGE_HEADER_SIZE + usize::from(self.slot_count()) * SLOT_SIZE
    }

    #[inline(always)]
    fn slot(&self, slot: u16) -> Option<(usize, usize)> {
        if slot >= self.slot_count() {
            return None;
        }
        let pos = self.page_size() - (usize::from(slot) + 1) * SLOT_SIZE;
        let offset = u16::from_be_bytes([self.data[pos], self.data[pos + 1]]) as usize;
        let len = u16::from_be_bytes([self.data[pos + 2], self.data[pos + 3]]) as usize;
        Some((offset, len))
    }

    /// Get the record stored in `slot`.
    // Called per drawn record of every page a draw reads: forced inline so
    // that no caller pays a call for it, whatever thin LTO's partitioning.
    #[inline(always)]
    pub fn get(&self, slot: u16) -> StorageResult<&'a [u8]> {
        match self.slot(slot) {
            Some((offset, len)) if offset + len <= self.page_size() => {
                Ok(&self.data[offset..offset + len])
            }
            held => Err(self.no_record(slot, held.is_some())),
        }
    }

    /// Why [`get`](Self::get) found no record in `slot`: a slot the page
    /// does not have, or one whose entry points outside it.
    #[cold]
    fn no_record(&self, slot: u16, held: bool) -> StorageError {
        if held {
            StorageError::PageCorruption(format!("slot {slot} points outside the page"))
        } else {
            StorageError::InvalidRid {
                page: self.id,
                slot,
            }
        }
    }

    /// Iterate over all records in slot order.
    pub fn records(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        let view = *self;
        (0..self.slot_count()).map(move |s| view.get(s).expect("slot within slot_count is valid"))
    }

    /// The raw bytes of the page.
    #[must_use]
    pub fn raw(&self) -> &'a [u8] {
        self.data
    }

    /// Copy the viewed bytes into a page of their own.
    #[must_use]
    pub fn to_page(&self) -> Page {
        Page {
            id: self.id,
            data: self.data.to_vec(),
        }
    }
}

impl Page {
    /// Create an empty page with the given id and size.
    ///
    /// # Errors
    /// Fails if `page_size` is outside the supported range.
    pub fn new(id: PageId, page_size: usize) -> StorageResult<Self> {
        validate_page_size(page_size)?;
        let mut page = Page {
            id,
            data: vec![0u8; page_size],
        };
        page.write_header(0, PAGE_HEADER_SIZE as u32);
        page.data[..4].copy_from_slice(&id.to_be_bytes());
        Ok(page)
    }

    /// Reconstruct a page from its raw backing bytes (as produced by
    /// [`Page::raw`]), checked as [`PageView::new`] checks them.
    ///
    /// # Errors
    /// Fails if the buffer size is unsupported, the stored page id does not
    /// match `expected_id`, or the slot directory is inconsistent.
    pub fn from_bytes(expected_id: PageId, data: Vec<u8>) -> StorageResult<Self> {
        PageView::new(expected_id, &data)?;
        Ok(Page {
            id: expected_id,
            data,
        })
    }

    /// A page of bytes that [`PageView::new`] has accepted as page `id`.
    pub(crate) fn checked(id: PageId, data: Vec<u8>) -> Self {
        Page { id, data }
    }

    fn write_header(&mut self, slot_count: u16, free_ptr: u32) {
        self.data[4..6].copy_from_slice(&slot_count.to_be_bytes());
        self.data[8..12].copy_from_slice(&free_ptr.to_be_bytes());
    }

    /// The read half of the page, borrowed.
    #[inline]
    #[must_use]
    pub fn view(&self) -> PageView<'_> {
        PageView {
            id: self.id,
            data: &self.data,
        }
    }

    /// The page identifier.
    #[must_use]
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Total size of the page in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.data.len()
    }

    /// Number of records stored in the page.
    #[must_use]
    pub fn slot_count(&self) -> u16 {
        self.view().slot_count()
    }

    /// Bytes still available for a new record (including its slot entry).
    #[must_use]
    pub fn free_space(&self) -> usize {
        let dir_start = self.page_size() - usize::from(self.slot_count()) * SLOT_SIZE;
        dir_start.saturating_sub(self.view().free_ptr())
    }

    /// Whether a record of `record_len` bytes fits in this page.
    #[must_use]
    pub fn fits(&self, record_len: usize) -> bool {
        self.free_space() >= record_len + SLOT_SIZE
    }

    /// Number of payload bytes currently stored (sum of record lengths).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.view().payload_bytes()
    }

    /// Bytes of the page that are pure bookkeeping overhead
    /// (header + slot directory).
    #[must_use]
    pub fn overhead_bytes(&self) -> usize {
        self.view().overhead_bytes()
    }

    /// Insert a record, returning its slot number, or `None` if it does not fit.
    ///
    /// # Errors
    /// Fails if the record can never fit in a page of this size.
    pub fn insert(&mut self, record: &[u8]) -> StorageResult<Option<u16>> {
        if record.len() > max_record_len(self.page_size()) {
            return Err(StorageError::RecordTooLarge {
                record_len: record.len(),
                max_payload: max_record_len(self.page_size()),
            });
        }
        if !self.fits(record.len()) {
            return Ok(None);
        }
        let slot = self.slot_count();
        let offset = self.view().free_ptr();
        self.data[offset..offset + record.len()].copy_from_slice(record);
        let pos = self.page_size() - (usize::from(slot) + 1) * SLOT_SIZE;
        self.data[pos..pos + 2].copy_from_slice(&(offset as u16).to_be_bytes());
        self.data[pos + 2..pos + 4].copy_from_slice(&(record.len() as u16).to_be_bytes());
        self.write_header(slot + 1, (offset + record.len()) as u32);
        Ok(Some(slot))
    }

    /// Get the record stored in `slot`.
    #[inline]
    pub fn get(&self, slot: u16) -> StorageResult<&[u8]> {
        self.view().get(slot)
    }

    /// Iterate over all records in slot order.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.view().records()
    }

    /// Borrow the raw backing bytes of the page.
    #[must_use]
    pub fn raw(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_is_empty() {
        let p = Page::new(7, DEFAULT_PAGE_SIZE).unwrap();
        assert_eq!(p.id(), 7);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.payload_bytes(), 0);
        assert_eq!(p.overhead_bytes(), PAGE_HEADER_SIZE);
        assert_eq!(p.free_space(), DEFAULT_PAGE_SIZE - PAGE_HEADER_SIZE);
    }

    #[test]
    fn rejects_bad_page_sizes() {
        assert!(Page::new(0, 16).is_err());
        assert!(Page::new(0, MAX_PAGE_SIZE + 1).is_err());
        assert!(Page::new(0, MIN_PAGE_SIZE).is_ok());
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let mut p = Page::new(0, 256).unwrap();
        let s0 = p.insert(b"hello").unwrap().unwrap();
        let s1 = p.insert(b"world!").unwrap().unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(p.get(0).unwrap(), b"hello");
        assert_eq!(p.get(1).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.payload_bytes(), 11);
        assert!(p.get(2).is_err());
    }

    #[test]
    fn insert_returns_none_when_full() {
        let mut p = Page::new(0, MIN_PAGE_SIZE).unwrap();
        let rec = vec![0xAB; 20];
        let mut inserted = 0;
        while p.insert(&rec).unwrap().is_some() {
            inserted += 1;
        }
        assert!(inserted >= 1);
        // The page reports no space for a further record.
        assert!(!p.fits(rec.len()));
        // Existing records unaffected.
        assert_eq!(p.get(0).unwrap(), rec.as_slice());
    }

    #[test]
    fn oversized_record_is_an_error() {
        let mut p = Page::new(0, 128).unwrap();
        assert!(matches!(
            p.insert(&vec![0u8; 1000]),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn accounting_adds_up() {
        let mut p = Page::new(0, 512).unwrap();
        for i in 0..10 {
            p.insert(&[i as u8; 17]).unwrap().unwrap();
        }
        assert_eq!(p.payload_bytes(), 170);
        assert_eq!(p.overhead_bytes(), PAGE_HEADER_SIZE + 10 * SLOT_SIZE);
        assert_eq!(
            p.free_space(),
            512 - PAGE_HEADER_SIZE - 170 - 10 * SLOT_SIZE
        );
    }

    #[test]
    fn records_iterates_in_slot_order() {
        let mut p = Page::new(0, 256).unwrap();
        p.insert(b"a").unwrap();
        p.insert(b"bb").unwrap();
        p.insert(b"ccc").unwrap();
        let lens: Vec<usize> = p.records().map(<[u8]>::len).collect();
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn from_bytes_roundtrips_a_populated_page() {
        let mut p = Page::new(9, 256).unwrap();
        p.insert(b"hello").unwrap();
        p.insert(b"world").unwrap();
        let restored = Page::from_bytes(9, p.raw().to_vec()).unwrap();
        assert_eq!(restored.id(), 9);
        assert_eq!(restored.slot_count(), 2);
        assert_eq!(restored.get(0).unwrap(), b"hello");
        assert_eq!(restored.get(1).unwrap(), b"world");
    }

    #[test]
    fn from_bytes_rejects_structural_corruption() {
        let mut p = Page::new(3, 128).unwrap();
        p.insert(b"abc").unwrap();
        // Wrong expected id.
        assert!(Page::from_bytes(4, p.raw().to_vec()).is_err());
        // Slot count pointing past the page.
        let mut data = p.raw().to_vec();
        data[4] = 0xFF;
        data[5] = 0xFF;
        assert!(Page::from_bytes(3, data).is_err());
        // Free pointer below the header.
        let mut data = p.raw().to_vec();
        data[8..12].copy_from_slice(&2u32.to_be_bytes());
        assert!(Page::from_bytes(3, data).is_err());
        // Unsupported buffer size.
        assert!(Page::from_bytes(3, vec![0u8; 8]).is_err());
        // A slot entry outside the record area is named by its slot: slot 1
        // runs past the free pointer, slot 2 starts inside the header.
        p.insert(b"de").unwrap();
        p.insert(b"fgh").unwrap();
        for (slot, offset, message) in [
            (1, 30u16, "slot 1 spans [30, 32) outside the record area"),
            (2, 4, "slot 2 spans [4, 7) outside the record area"),
        ] {
            let mut data = p.raw().to_vec();
            let at = data.len() - (slot + 1) * SLOT_SIZE;
            data[at..at + 2].copy_from_slice(&offset.to_be_bytes());
            match Page::from_bytes(3, data) {
                Err(StorageError::PageCorruption(m)) => assert_eq!(m, message),
                other => panic!("slot {slot}: expected PageCorruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_records_are_allowed() {
        let mut p = Page::new(0, 128).unwrap();
        let s = p.insert(b"").unwrap().unwrap();
        assert_eq!(p.get(s).unwrap(), b"");
    }

    #[test]
    fn row_refs_borrow_records_in_place() {
        use crate::cell::RowRef;
        use crate::datatype::DataType;
        use crate::row::{Row, RowCodec};
        use crate::schema::{Column, Schema};
        use crate::value::Value;

        let codec = RowCodec::new(
            Schema::new(vec![
                Column::new("a", DataType::Char(4)),
                Column::nullable("b", DataType::Int32),
            ])
            .unwrap(),
        );
        let rows = vec![
            Row::new(vec![Value::str("x"), Value::int(1)]),
            Row::new(vec![Value::str("yy"), Value::Null]),
        ];
        let mut p = Page::new(0, 256).unwrap();
        for row in &rows {
            p.insert(&codec.encode(row).unwrap()).unwrap().unwrap();
        }
        let refs: Vec<RowRef<'_>> = (0..p.slot_count())
            .map(|slot| RowRef::new(&codec, p.get(slot).unwrap()).unwrap())
            .collect();
        assert_eq!(refs.len(), 2);
        for (r, row) in refs.iter().zip(&rows) {
            // Each record view points into the page's own buffer.
            let page_range = p.raw().as_ptr_range();
            assert!(page_range.contains(&r.record().as_ptr()));
            assert_eq!(&r.to_row().unwrap(), row);
        }
        assert!(refs[1].is_null(1));
        // A record whose length disagrees with the codec is rejected.
        let mut bad = Page::new(0, 256).unwrap();
        bad.insert(b"short").unwrap().unwrap();
        assert!(RowRef::new(&codec, bad.get(0).unwrap()).is_err());
    }
}
