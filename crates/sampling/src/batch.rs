//! What a stream yields: drawn records, checked and kept as bytes.
//!
//! A [`RecordBatch`] is one batch of a draw — the RIDs drawn, in the
//! stream's order, and their heap records in one arena of fixed-length
//! records.  Every record went through [`RowCodec::check`] on its way in,
//! so a record in a batch is one the table's codec decodes, in the
//! canonical form `encode(decode(record))`: the estimator slices its cells
//! and a held sample keeps the batch as it is, without making a [`Row`] of
//! it.
//! [`decode`](RecordBatch::decode) makes the `(Rid, Row)` pairs for the
//! callers that want owned rows.
//!
//! [`Row`]: samplecf_storage::Row

use crate::error::SamplingResult;
use crate::sampler::SampledRow;
use samplecf_storage::{PageId, PageView, Rid, RowCodec, StorageResult, TableSource};

/// One batch of a draw: RIDs and their checked heap records, record `i` at
/// `i × record_len` of one arena (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordBatch {
    rids: Vec<Rid>,
    arena: Vec<u8>,
    record_len: usize,
}

impl RecordBatch {
    /// An empty batch of records of `codec`'s schema — what a stream at its
    /// cap returns.
    #[must_use]
    pub fn new(codec: &RowCodec) -> Self {
        RecordBatch {
            rids: Vec::new(),
            arena: Vec::new(),
            record_len: codec.record_size(),
        }
    }

    /// An empty batch with room for `records` records of `codec`'s schema.
    pub(crate) fn with_capacity(codec: &RowCodec, records: usize) -> Self {
        let record_len = codec.record_size();
        RecordBatch {
            rids: Vec::with_capacity(records),
            arena: Vec::with_capacity(records * record_len),
            record_len,
        }
    }

    /// Number of records (duplicates counted, as drawn).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rids.len()
    }

    /// Whether the batch holds no records: the stream has reached its cap.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rids.is_empty()
    }

    /// Each RID with its record, in batch order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Rid, &[u8])> + '_ {
        (self.rids.iter().copied()).zip(self.arena.chunks_exact(self.record_len))
    }

    /// Bytes the batch holds on to: its arena's and its RID vector's
    /// capacity.
    #[must_use]
    pub fn retained_bytes(&self) -> usize {
        self.arena.capacity() + self.rids.capacity() * std::mem::size_of::<Rid>()
    }

    /// Give back any capacity past the records held.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.rids.shrink_to_fit();
    }

    /// Decode every record: the `(Rid, Row)` pairs of the batch, in order.
    ///
    /// # Errors
    /// None for a batch of `codec`'s schema, whose records were checked on
    /// the way in; another codec's check, as a storage error.
    pub fn decode(&self, codec: &RowCodec) -> SamplingResult<Vec<SampledRow>> {
        (self.iter())
            .map(|(rid, record)| Ok((rid, codec.decode(record)?)))
            .collect()
    }

    /// Check `record` with `codec` and append it, in canonical form, as
    /// drawn at `rid`.  A record the check rejects appends nothing.
    pub(crate) fn push(&mut self, codec: &RowCodec, rid: Rid, record: &[u8]) -> StorageResult<()> {
        let record = codec.check(record)?;
        self.arena.extend_from_slice(&record);
        self.rids.push(rid);
        Ok(())
    }

    /// The checked records of the `count` pages from `first` of `source`,
    /// in storage order: one run read
    /// ([`read_pages`](TableSource::read_pages)), nothing decoded.  Folding
    /// a table a few pages at a time in page order reads its records in
    /// storage order while holding a few pages' worth of them.
    pub fn of_pages(
        source: &dyn TableSource,
        first: PageId,
        count: usize,
    ) -> SamplingResult<RecordBatch> {
        let codec = source.codec();
        let mut batch = RecordBatch::new(codec);
        source.read_pages(first, count, &mut |page| batch.push_page(codec, page))?;
        Ok(batch)
    }

    /// Check and append every record of `page`, a page of a source of
    /// `codec`'s schema, in slot order.
    pub(crate) fn push_page(&mut self, codec: &RowCodec, page: PageView<'_>) -> StorageResult<()> {
        for slot in 0..page.slot_count() {
            self.push(codec, Rid::new(page.id(), slot), page.get(slot)?)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_storage::{Column, DataType, Row, Schema, StorageError, Value};

    fn codec() -> RowCodec {
        RowCodec::new(
            Schema::new(vec![
                Column::new("a", DataType::Char(4)),
                Column::nullable("b", DataType::Bool),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn records_are_checked_and_kept_canonical() {
        let codec = codec();
        let row = Row::new(vec![Value::str("ab"), Value::Bool(true)]);
        let mut record = codec.encode(&row).unwrap();
        let mut batch = RecordBatch::new(&codec);
        assert!(batch.is_empty());
        batch.push(&codec, Rid::new(0, 0), &record).unwrap();
        // A `Bool` byte of 7 is `true`, stored as 1.
        *record.last_mut().unwrap() = 7;
        batch.push(&codec, Rid::new(0, 1), &record).unwrap();
        assert_eq!(batch.len(), 2);
        let canonical = codec.encode(&row).unwrap();
        assert!(batch.iter().all(|(_, r)| r == canonical));
        assert_eq!(
            batch.decode(&codec).unwrap(),
            vec![(Rid::new(0, 0), row.clone()), (Rid::new(0, 1), row)]
        );
        // A record the check rejects is not appended.
        record[1] = 0xFF;
        let err = batch.push(&codec, Rid::new(0, 2), &record).unwrap_err();
        assert!(matches!(err, StorageError::Decode(_)));
        assert_eq!(batch.len(), 2);
    }
}
