//! Binary layout of `samplecf` table files.
//!
//! The full specification lives in `docs/FORMAT.md`; this module is its
//! executable form.  A table file is:
//!
//! ```text
//! +-------------+------------------------+---------+------ ... ------+
//! | file header | table meta (name,      | padding | disk pages      |
//! | (48 bytes)  | schema)                | to page | (16B header +   |
//! |             |                        | bound.  |  page_size each)|
//! +-------------+------------------------+---------+------ ... ------+
//! ```
//!
//! All integers are big-endian.  The file header and the table meta are
//! covered by one CRC-32 (`meta_crc`); each disk page carries its own CRC-32
//! over the remainder of its 16-byte header plus the full page payload, so a
//! single flipped byte anywhere in a page block fails verification.

use crate::datatype::DataType;
use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageView};
use crate::rid::PageId;
use crate::schema::{Column, Schema};

/// The checksum both regions are sealed with, at the path it has always
/// had; how it is computed is the private `disk::crc` module's business.
pub use crate::disk::crc::crc32;

/// Magic bytes identifying a `samplecf` table file.
pub const MAGIC: [u8; 4] = *b"SCF1";

/// On-disk format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Size of the fixed file header in bytes.
pub const FILE_HEADER_SIZE: usize = 48;

/// Size of the per-page disk header in bytes.
pub const DISK_PAGE_HEADER_SIZE: usize = 16;

// Fixed file-header field offsets (see docs/FORMAT.md).
const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 4;
const OFF_PAGE_SIZE: usize = 8;
const OFF_NUM_PAGES: usize = 12;
const OFF_NUM_ROWS: usize = 20;
const OFF_DATA_OFFSET: usize = 28;
const OFF_META_LEN: usize = 36;
const OFF_META_CRC: usize = 40;

/// Everything the fixed file header records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHeader {
    /// Page payload size in bytes.
    pub page_size: usize,
    /// Number of data pages in the file.
    pub num_pages: usize,
    /// Number of rows across all pages.
    pub num_rows: usize,
    /// Byte offset where the first disk page starts.
    pub data_offset: u64,
    /// Length in bytes of the table-meta block following the fixed header.
    pub meta_len: usize,
}

impl FileHeader {
    /// Stride of one disk page block for this header's page size.
    #[must_use]
    pub fn page_stride(&self) -> u64 {
        (DISK_PAGE_HEADER_SIZE + self.page_size) as u64
    }

    /// Byte offset of disk page `id`.
    #[must_use]
    pub fn page_offset(&self, id: PageId) -> u64 {
        self.data_offset + u64::from(id) * self.page_stride()
    }

    /// Total file size implied by this header.
    ///
    /// Saturating: a corrupt header whose counts overflow `u64` yields
    /// `u64::MAX`, which can never match a real file length, so the open
    /// path rejects it instead of wrapping around.
    #[must_use]
    pub fn expected_file_len(&self) -> u64 {
        self.data_offset
            .saturating_add((self.num_pages as u64).saturating_mul(self.page_stride()))
    }
}

/// Round `len` up to the next multiple of `page_size`.
#[must_use]
pub fn align_up(len: usize, page_size: usize) -> usize {
    len.div_ceil(page_size) * page_size
}

/// Serialise the metadata region `[0, data_offset)`: fixed header, table
/// meta, zero padding, with `meta_crc` computed over the whole region.
#[must_use]
pub fn encode_metadata(header: &FileHeader, meta: &[u8]) -> Vec<u8> {
    debug_assert_eq!(header.meta_len, meta.len());
    let mut out = vec![0u8; header.data_offset as usize];
    out[OFF_MAGIC..OFF_MAGIC + 4].copy_from_slice(&MAGIC);
    out[OFF_VERSION..OFF_VERSION + 2].copy_from_slice(&FORMAT_VERSION.to_be_bytes());
    out[OFF_PAGE_SIZE..OFF_PAGE_SIZE + 4].copy_from_slice(&(header.page_size as u32).to_be_bytes());
    out[OFF_NUM_PAGES..OFF_NUM_PAGES + 8].copy_from_slice(&(header.num_pages as u64).to_be_bytes());
    out[OFF_NUM_ROWS..OFF_NUM_ROWS + 8].copy_from_slice(&(header.num_rows as u64).to_be_bytes());
    out[OFF_DATA_OFFSET..OFF_DATA_OFFSET + 8].copy_from_slice(&header.data_offset.to_be_bytes());
    out[OFF_META_LEN..OFF_META_LEN + 4].copy_from_slice(&(header.meta_len as u32).to_be_bytes());
    out[FILE_HEADER_SIZE..FILE_HEADER_SIZE + meta.len()].copy_from_slice(meta);
    let crc = crc32(&out);
    out[OFF_META_CRC..OFF_META_CRC + 4].copy_from_slice(&crc.to_be_bytes());
    out
}

fn read_u16(bytes: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([bytes[off], bytes[off + 1]])
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[off..off + 8]);
    u64::from_be_bytes(buf)
}

/// Parse and validate the fixed file header (the first
/// [`FILE_HEADER_SIZE`] bytes of the file).
///
/// The metadata CRC spans the whole region `[0, data_offset)`, so it is
/// verified separately by [`verify_metadata_crc`] once that region has been
/// read.
pub fn decode_file_header(bytes: &[u8]) -> StorageResult<FileHeader> {
    if bytes.len() < FILE_HEADER_SIZE {
        return Err(StorageError::InvalidFormat(format!(
            "file too small for a header: {} bytes",
            bytes.len()
        )));
    }
    if bytes[OFF_MAGIC..OFF_MAGIC + 4] != MAGIC {
        return Err(StorageError::InvalidFormat(
            "bad magic: not a samplecf table file".to_string(),
        ));
    }
    let version = read_u16(bytes, OFF_VERSION);
    if version != FORMAT_VERSION {
        return Err(StorageError::InvalidFormat(format!(
            "unsupported format version {version} (this build reads version {FORMAT_VERSION})"
        )));
    }
    let page_size = read_u32(bytes, OFF_PAGE_SIZE) as usize;
    crate::page::validate_page_size(page_size)?;
    let header = FileHeader {
        page_size,
        num_pages: read_u64(bytes, OFF_NUM_PAGES) as usize,
        num_rows: read_u64(bytes, OFF_NUM_ROWS) as usize,
        data_offset: read_u64(bytes, OFF_DATA_OFFSET),
        meta_len: read_u32(bytes, OFF_META_LEN) as usize,
    };
    if (header.data_offset as usize) < FILE_HEADER_SIZE + header.meta_len {
        return Err(StorageError::InvalidFormat(format!(
            "data offset {} overlaps the metadata region",
            header.data_offset
        )));
    }
    Ok(header)
}

/// Verify the CRC of the full metadata region `[0, data_offset)`.
pub fn verify_metadata_crc(region: &[u8]) -> StorageResult<()> {
    let stored = read_u32(region, OFF_META_CRC);
    let mut scratch = region.to_vec();
    scratch[OFF_META_CRC..OFF_META_CRC + 4].fill(0);
    let actual = crc32(&scratch);
    if stored != actual {
        return Err(StorageError::InvalidFormat(format!(
            "metadata checksum mismatch: stored {stored:08x}, computed {actual:08x}"
        )));
    }
    Ok(())
}

/// Serialise a page into its on-disk block: 16-byte disk header followed by
/// the raw page payload, with a CRC-32 over everything after the CRC field.
#[must_use]
pub fn encode_page(page: &Page) -> Vec<u8> {
    let mut out = vec![0u8; DISK_PAGE_HEADER_SIZE + page.page_size()];
    out[4..8].copy_from_slice(&page.id().to_be_bytes());
    out[8..12].copy_from_slice(&(page.page_size() as u32).to_be_bytes());
    out[DISK_PAGE_HEADER_SIZE..].copy_from_slice(page.raw());
    let crc = crc32(&out[4..]);
    out[..4].copy_from_slice(&crc.to_be_bytes());
    out
}

/// Verify one on-disk page block produced by [`encode_page`] where it
/// lies, and view its page: the checks a page passes before anything reads
/// it, whether it is then copied out ([`decode_page`]) or lent from a run
/// buffer ([`TableSource::read_pages`](crate::source::TableSource::read_pages)).
///
/// # Errors
/// Fails on a checksum mismatch (any single-byte corruption), a page-id or
/// size mismatch, or a structurally invalid slotted page.
pub fn check_page(
    expected_id: PageId,
    page_size: usize,
    block: &[u8],
) -> StorageResult<PageView<'_>> {
    if block.len() != DISK_PAGE_HEADER_SIZE + page_size {
        return Err(StorageError::InvalidFormat(format!(
            "page block of {} bytes, expected {}",
            block.len(),
            DISK_PAGE_HEADER_SIZE + page_size
        )));
    }
    let stored_crc = read_u32(block, 0);
    let actual_crc = crc32(&block[4..]);
    if stored_crc != actual_crc {
        return Err(StorageError::PageCorruption(format!(
            "checksum mismatch on page {expected_id}: stored {stored_crc:08x}, computed {actual_crc:08x}"
        )));
    }
    let stored_id = read_u32(block, 4);
    if stored_id != expected_id {
        return Err(StorageError::PageCorruption(format!(
            "disk header stores page id {stored_id}, expected {expected_id}"
        )));
    }
    let stored_len = read_u32(block, 8) as usize;
    if stored_len != page_size {
        return Err(StorageError::InvalidFormat(format!(
            "disk header stores page size {stored_len}, expected {page_size}"
        )));
    }
    PageView::new(expected_id, &block[DISK_PAGE_HEADER_SIZE..])
}

/// Parse and verify one on-disk page block produced by [`encode_page`]
/// ([`check_page`]).  The block's own buffer becomes the page, with the
/// disk header drained, so a physical read allocates once.
///
/// # Errors
/// As [`check_page`].
pub fn decode_page(
    expected_id: PageId,
    page_size: usize,
    mut bytes: Vec<u8>,
) -> StorageResult<Page> {
    check_page(expected_id, page_size, &bytes)?;
    bytes.drain(..DISK_PAGE_HEADER_SIZE);
    Ok(Page::checked(expected_id, bytes))
}

// Data-type tags used by the schema serialisation.
const TAG_CHAR: u8 = 0;
const TAG_VARCHAR: u8 = 1;
const TAG_INT32: u8 = 2;
const TAG_INT64: u8 = 3;
const TAG_BOOL: u8 = 4;

/// Serialise a table's identity (name + schema) into the meta block.
#[must_use]
pub fn encode_table_meta(name: &str, schema: &Schema) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(name.len() as u16).to_be_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&(schema.arity() as u16).to_be_bytes());
    for col in schema.columns() {
        out.extend_from_slice(&(col.name.len() as u16).to_be_bytes());
        out.extend_from_slice(col.name.as_bytes());
        let (tag, width): (u8, u16) = match col.datatype {
            DataType::Char(k) => (TAG_CHAR, k),
            DataType::VarChar(k) => (TAG_VARCHAR, k),
            DataType::Int32 => (TAG_INT32, 0),
            DataType::Int64 => (TAG_INT64, 0),
            DataType::Bool => (TAG_BOOL, 0),
        };
        out.push(tag);
        out.extend_from_slice(&width.to_be_bytes());
        out.push(u8::from(col.nullable));
    }
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(StorageError::InvalidFormat(format!(
                "table meta truncated at byte {} (need {n} more)",
                self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> StorageResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn string(&mut self) -> StorageResult<String> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StorageError::InvalidFormat(format!("invalid utf8 in table meta: {e}")))
    }
}

/// Parse the meta block written by [`encode_table_meta`].
pub fn decode_table_meta(bytes: &[u8]) -> StorageResult<(String, Schema)> {
    let mut cur = Cursor { bytes, pos: 0 };
    let name = cur.string()?;
    let arity = usize::from(cur.u16()?);
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        let col_name = cur.string()?;
        let tag = cur.u8()?;
        let width = cur.u16()?;
        let nullable = cur.u8()? != 0;
        let datatype = match tag {
            TAG_CHAR => DataType::Char(width),
            TAG_VARCHAR => DataType::VarChar(width),
            TAG_INT32 => DataType::Int32,
            TAG_INT64 => DataType::Int64,
            TAG_BOOL => DataType::Bool,
            other => {
                return Err(StorageError::InvalidFormat(format!(
                    "unknown data type tag {other} in table meta"
                )))
            }
        };
        columns.push(if nullable {
            Column::nullable(col_name, datatype)
        } else {
            Column::new(col_name, datatype)
        });
    }
    let schema = Schema::new(columns)?;
    Ok((name, schema))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::crc::testing::{crc32_bytewise, kernels};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("name", DataType::Char(16)),
            Column::nullable("qty", DataType::Int32),
            Column::new("id", DataType::Int64),
            Column::nullable("flag", DataType::Bool),
            Column::new("note", DataType::VarChar(40)),
        ])
        .unwrap()
    }

    /// A deterministic page block: `records` patterned records of `rec_len`
    /// bytes on page `id`.
    fn patterned_block(id: PageId, page_size: usize, records: usize, rec_len: usize) -> Vec<u8> {
        let mut page = Page::new(id, page_size).unwrap();
        for r in 0..records {
            let rec: Vec<u8> = (0..rec_len)
                .map(|i| (r * 31 + i * 7 + id as usize) as u8)
                .collect();
            page.insert(&rec).unwrap().unwrap();
        }
        encode_page(&page)
    }

    /// The full 8 KiB page block the ledger's tables are made of; its stored
    /// CRC is pinned below.
    const FULL_BLOCK: (PageId, usize, usize, usize, u32) = (889, 8192, 281, 25, 0x994F_3986);

    #[test]
    fn crc32_matches_known_vectors() {
        for (name, kernel) in kernels() {
            // Standard check value for CRC-32/ISO-HDLC.
            assert_eq!(kernel(b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(kernel(b""), 0, "{name}");
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_alignment() {
        // One pseudo-random buffer (xorshift), every start offset within a
        // SIMD load and every length up to a page block plus 15: the 64-byte
        // loop, the 16-byte loop, the table tail and the < 64-byte hand-off
        // are each crossed at every phase, by every kernel.
        const MAX_LEN: usize = 8 * 1024 + 15;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..MAX_LEN + 15)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let kernels = kernels();
        for start in 0..16 {
            for len in 0..=MAX_LEN {
                let slice = &buf[start..start + len];
                let expected = crc32_bytewise(slice);
                for (name, kernel) in &kernels {
                    assert_eq!(kernel(slice), expected, "{name} start {start} len {len}");
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_equals_the_bytewise_reference_on_random_buffers(
            buf in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=8 * 1024 + 30)
        ) {
            for start in 0..16.min(buf.len() + 1) {
                let expected = crc32_bytewise(&buf[start..]);
                for (name, kernel) in kernels() {
                    proptest::prop_assert_eq!(kernel(&buf[start..]), expected, "{}", name);
                }
            }
        }
    }

    #[test]
    fn crc32_of_fixed_page_blocks_is_pinned() {
        // Literal values computed by the bytewise implementation: a file
        // written under any kernel verifies under every other.
        for (id, page_size, records, rec_len, expected) in [
            (0u32, 64usize, 1usize, 5usize, 0x0D2E_4D2Fu32),
            (7, 512, 12, 29, 0x90EB_0907),
            FULL_BLOCK,
        ] {
            let block = patterned_block(id, page_size, records, rec_len);
            assert_eq!(read_u32(&block, 0), expected, "stored crc of page {id}");
            for (name, kernel) in kernels() {
                assert_eq!(kernel(&block[4..]), expected, "{name} crc of page {id}");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_full_page_block_is_detected() {
        // 128 fold-by-4 steps: long enough that a wrong steady-state fold
        // constant cannot cancel the way it could over a few lanes.
        let (id, page_size, records, rec_len, stored) = FULL_BLOCK;
        let mut block = patterned_block(id, page_size, records, rec_len);
        decode_page(id, page_size, block.clone()).unwrap();
        let kernels = kernels();
        for bit in 0..block.len() * 8 {
            block[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_page(id, page_size, block.clone()).is_err(),
                "flip of bit {bit} went unnoticed"
            );
            // Past the stored CRC itself, every kernel sees the flip.
            if bit >= 32 {
                for (name, kernel) in &kernels {
                    assert_ne!(kernel(&block[4..]), stored, "{name} missed bit {bit}");
                }
            }
            block[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn table_meta_roundtrips() {
        let meta = encode_table_meta("orders", &schema());
        let (name, decoded) = decode_table_meta(&meta).unwrap();
        assert_eq!(name, "orders");
        assert_eq!(decoded, schema());
    }

    #[test]
    fn truncated_table_meta_is_rejected() {
        let meta = encode_table_meta("orders", &schema());
        for cut in [0, 1, 5, meta.len() - 1] {
            assert!(
                decode_table_meta(&meta[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn metadata_region_roundtrips_and_detects_corruption() {
        let meta = encode_table_meta("t", &schema());
        let header = FileHeader {
            page_size: 4096,
            num_pages: 7,
            num_rows: 1234,
            data_offset: align_up(FILE_HEADER_SIZE + meta.len(), 4096) as u64,
            meta_len: meta.len(),
        };
        let region = encode_metadata(&header, &meta);
        assert_eq!(region.len() as u64, header.data_offset);
        verify_metadata_crc(&region).unwrap();
        assert_eq!(decode_file_header(&region).unwrap(), header);

        // Any single flipped byte in the used part of the region is caught.
        for pos in 0..FILE_HEADER_SIZE + meta.len() {
            let mut corrupt = region.clone();
            corrupt[pos] ^= 0x40;
            let bad_header = decode_file_header(&corrupt);
            let bad_crc = verify_metadata_crc(&corrupt);
            assert!(
                bad_header.is_err() || bad_crc.is_err(),
                "corruption at byte {pos} went unnoticed"
            );
        }
    }

    #[test]
    fn page_blocks_roundtrip() {
        let mut page = Page::new(5, 512).unwrap();
        page.insert(b"compression").unwrap();
        page.insert(b"fraction").unwrap();
        let block = encode_page(&page);
        assert_eq!(block.len(), DISK_PAGE_HEADER_SIZE + 512);
        let decoded = decode_page(5, 512, block).unwrap();
        assert_eq!(decoded.raw(), page.raw());
        assert_eq!(decoded.get(0).unwrap(), b"compression");
    }

    #[test]
    fn page_corruption_is_detected_everywhere() {
        let mut page = Page::new(2, 256).unwrap();
        page.insert(&[7u8; 100]).unwrap();
        let block = encode_page(&page);
        for pos in 0..block.len() {
            let mut corrupt = block.clone();
            corrupt[pos] ^= 0x01;
            assert!(
                decode_page(2, 256, corrupt).is_err(),
                "flip at byte {pos} went unnoticed"
            );
        }
    }

    #[test]
    fn page_id_and_size_mismatches_are_rejected() {
        let page = Page::new(1, 128).unwrap();
        let block = encode_page(&page);
        assert!(decode_page(2, 128, block.clone()).is_err());
        assert!(decode_page(1, 256, block).is_err());
    }

    #[test]
    fn bad_headers_are_rejected() {
        assert!(decode_file_header(&[0u8; 10]).is_err());
        let mut region = vec![0u8; FILE_HEADER_SIZE];
        region[..4].copy_from_slice(b"NOPE");
        assert!(decode_file_header(&region).is_err());
        let meta = encode_table_meta("t", &schema());
        let header = FileHeader {
            page_size: 1024,
            num_pages: 0,
            num_rows: 0,
            data_offset: align_up(FILE_HEADER_SIZE + meta.len(), 1024) as u64,
            meta_len: meta.len(),
        };
        let mut region = encode_metadata(&header, &meta);
        // Unsupported version.
        region[4..6].copy_from_slice(&99u16.to_be_bytes());
        assert!(decode_file_header(&region).is_err());
    }

    #[test]
    fn align_up_behaviour() {
        assert_eq!(align_up(0, 512), 0);
        assert_eq!(align_up(1, 512), 512);
        assert_eq!(align_up(512, 512), 512);
        assert_eq!(align_up(513, 512), 1024);
    }
}
