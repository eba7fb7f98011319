//! A built tree read back: its leaf entries decoded, and the separator
//! levels of a B+-tree packed into real pages above its leaves.
//!
//! A shipped [`BTreeIndex`] is its leaf pages plus arithmetic: it decodes
//! no entry, and the levels above its leaves are a count,
//! [`IndexSizeEstimate::internal_pages`](samplecf_index::IndexSizeEstimate::internal_pages).
//! This module is the reference for both.  [`leaf_entries`] turns a leaf
//! page back into values and RIDs, and [`pack_separators`] inserts one
//! `[2-byte key length][key cells + RID][4-byte child page]` record per
//! child into [`Page`]s through [`Page::fits`], a level at a time, until a
//! single root is left — the pages the formula counts.

use samplecf_index::{BTreeIndex, IndexError, IndexKind, IndexResult, IndexSpec};
use samplecf_storage::{decode_cell, Page, Rid, Row, Schema, Value};

/// One decoded leaf entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafEntry {
    /// Stored column values, in stored-column order (key columns first).
    pub stored: Row,
    /// Row pointer back into the base table (present for non-clustered
    /// indexes; clustered leaves *are* the rows).
    pub rid: Option<Rid>,
}

/// Decode every entry of `page`, one of `index`'s leaf pages, in slot
/// order: `[null bitmap][stored cells][RID (non-clustered)]` each.
///
/// # Errors
/// A stored cell that does not decode under its column's type is
/// [`IndexError::Storage`].
pub fn leaf_entries(index: &BTreeIndex, page: &Page) -> IndexResult<Vec<LeafEntry>> {
    let (schema, stored) = (index.table_schema(), index.stored_column_indexes());
    let bitmap_len = stored.len().div_ceil(8);
    let mut out = Vec::with_capacity(usize::from(page.slot_count()));
    for record in page.records() {
        let mut offset = bitmap_len;
        let mut values = Vec::with_capacity(stored.len());
        for (pos, &i) in stored.iter().enumerate() {
            let datatype = schema.column_at(i).datatype;
            let width = datatype.uncompressed_width();
            if record[pos / 8] & (1 << (pos % 8)) != 0 {
                values.push(Value::Null);
            } else {
                values.push(decode_cell(&record[offset..][..width], &datatype)?);
            }
            offset += width;
        }
        let rid = (index.spec().kind() == IndexKind::NonClustered).then(|| {
            let mut buf = [0u8; Rid::ENCODED_LEN];
            buf.copy_from_slice(&record[offset..][..Rid::ENCODED_LEN]);
            Rid::decode(&buf)
        });
        out.push(LeafEntry {
            stored: Row::new(values),
            rid,
        });
    }
    Ok(out)
}

/// Bytes of an index's sort key: its key cells, then the RID.
fn sort_key_len(schema: &Schema, spec: &IndexSpec) -> IndexResult<usize> {
    let cells = spec.key_indexes(schema)?.into_iter();
    let cells = cells.map(|i| schema.column_at(i).datatype.uncompressed_width());
    Ok(cells.sum::<usize>() + Rid::ENCODED_LEN)
}

/// A separator record: `[2-byte key length][key][4-byte child page]`.
fn separator(key: &[u8], child: u32) -> Vec<u8> {
    let len = u16::try_from(key.len()).expect("a sort key fits a page");
    [&len.to_be_bytes()[..], key, &child.to_be_bytes()].concat()
}

/// Pack the separator levels of an index over `(schema, spec)` above leaves
/// whose first entries' sort keys (key cells, then RID) are `first_keys`,
/// in leaf order; pages of `page_size` bytes.  Each level holds one
/// separator per page of the level below, inserted while
/// [`Page::fits`] admits it; levels are packed until one page is left.
/// Returned from the level above the leaves up to the root: none over at
/// most one leaf.
///
/// # Errors
/// A separator larger than a page holds is [`IndexError::Storage`]
/// (`RecordTooLarge`); a level no narrower than the one below (a page
/// holds a single separator) is [`IndexError::InvalidSpec`].
///
/// # Panics
/// If a key is not the sort-key length `(schema, spec)` gives.
pub fn pack_separators(
    schema: &Schema,
    spec: &IndexSpec,
    page_size: usize,
    first_keys: &[Vec<u8>],
) -> IndexResult<Vec<Vec<Page>>> {
    let key_len = sort_key_len(schema, spec)?;
    assert!(first_keys.iter().all(|key| key.len() == key_len));
    let mut levels: Vec<Vec<Page>> = Vec::new();
    let mut children: Vec<&[u8]> = first_keys.iter().map(Vec::as_slice).collect();
    while children.len() > 1 {
        let mut pages = vec![Page::new(0, page_size)?];
        let mut next = vec![children[0]];
        for (child, key) in children.iter().enumerate() {
            let record = separator(key, child as u32);
            let page = pages.last_mut().expect("a level has a page");
            if !page.fits(record.len()) && page.slot_count() > 0 {
                pages.push(Page::new(pages.len() as u32, page_size)?);
                next.push(key);
            }
            let page = pages.last_mut().expect("a level has a page");
            page.insert(&record)?
                .expect("an empty page fits any record short enough to insert");
        }
        if pages.len() == children.len() {
            let why = "an internal page holds one separator key: no level can narrow";
            return Err(IndexError::InvalidSpec(why.into()));
        }
        levels.push(pages);
        children = next;
    }
    Ok(levels)
}

/// The separator levels above `index`'s leaf pages: [`pack_separators`]
/// over the sort key of each leaf's first entry.  A clustered leaf record
/// keeps no RID, so its separators carry a zero RID: a separator's length,
/// not its bytes, decides how many fit a page.
///
/// # Errors
/// As [`pack_separators`].
pub fn separator_levels(index: &BTreeIndex) -> IndexResult<Vec<Vec<Page>>> {
    let (schema, spec) = (index.table_schema(), index.spec());
    let bitmap_len = index.stored_column_indexes().len().div_ceil(8);
    let key_cells = sort_key_len(schema, spec)? - Rid::ENCODED_LEN;
    let first_keys: Vec<Vec<u8>> = (index.leaf_pages().iter())
        .filter_map(|page| page.records().next())
        .map(|record| {
            let mut key = record[bitmap_len..][..key_cells].to_vec();
            match spec.kind() {
                IndexKind::NonClustered => {
                    key.extend_from_slice(&record[record.len() - Rid::ENCODED_LEN..])
                }
                IndexKind::Clustered => key.extend_from_slice(&[0; Rid::ENCODED_LEN]),
            }
            key
        })
        .collect();
    pack_separators(schema, spec, index.page_size(), &first_keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::IndexSizeReport;
    use samplecf_index::IndexBuilder;
    use samplecf_storage::{Column, DataType, Table, TableBuilder, TableSource};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("name", DataType::Char(12)),
            Column::new("id", DataType::Int64),
        ])
        .unwrap()
    }

    fn table(n: usize) -> Table {
        TableBuilder::new("t", schema())
            .build_with_rows((0..n).map(|i| {
                Row::new(vec![
                    Value::str(format!("name{:04}", i % 97)),
                    Value::int(i as i64),
                ])
            }))
            .unwrap()
    }

    /// Every leaf entry of `index`, in leaf order.
    fn all_entries(index: &BTreeIndex) -> Vec<LeafEntry> {
        (index.leaf_pages().iter())
            .flat_map(|page| leaf_entries(index, page).unwrap())
            .collect()
    }

    #[test]
    fn bulk_load_preserves_entry_count_and_order() {
        let t = table(1000);
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let idx = IndexBuilder::new().build_from_table(&t, &spec).unwrap();
        assert_eq!(idx.num_entries(), 1000);
        let entries = all_entries(&idx);
        assert_eq!(entries.len(), 1000);
        for w in entries.windows(2) {
            assert!(
                w[0].stored.value(0) <= w[1].stored.value(0),
                "leaf order violated"
            );
        }
        // Non-clustered entries carry RIDs that resolve back to the table.
        for e in entries.iter().take(20) {
            let rid = e.rid.expect("nonclustered entries carry rids");
            let page = t.read_page_ref(rid.page).unwrap();
            let row = t.codec().decode(page.get(rid.slot).unwrap()).unwrap();
            assert_eq!(row.value(0), e.stored.value(0));
        }
    }

    #[test]
    fn clustered_index_stores_all_columns_without_rids() {
        let t = table(200);
        let spec = IndexSpec::clustered("i", ["id"]).unwrap();
        let idx = IndexBuilder::new()
            .page_size(1024)
            .build_from_table(&t, &spec)
            .unwrap();
        let entries = all_entries(&idx);
        assert_eq!(entries.len(), 200);
        assert!(entries.iter().all(|e| e.rid.is_none()));
        assert_eq!(entries[0].stored.arity(), 2);
        // Ordered by id.
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.stored.value(0), &Value::int(i as i64));
        }
    }

    #[test]
    fn nulls_roundtrip_through_leaf_records() {
        let schema = Schema::new(vec![
            Column::nullable("a", DataType::Char(6)),
            Column::new("b", DataType::Int32),
        ])
        .unwrap();
        let rows: Vec<(Rid, Row)> = (0..50)
            .map(|i| {
                let v = if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("v{i}"))
                };
                (Rid::new(0, i as u16), Row::new(vec![v, Value::int(i)]))
            })
            .collect();
        let spec = IndexSpec::nonclustered("i", ["a"]).unwrap();
        let idx = IndexBuilder::new()
            .build_from_rows(&schema, &rows, &spec)
            .unwrap();
        let entries = all_entries(&idx);
        assert_eq!(
            entries
                .iter()
                .filter(|e| e.stored.value(0).is_null())
                .count(),
            17
        );
    }

    #[test]
    fn multi_page_trees_have_separator_levels() {
        let t = table(5000);
        let spec = IndexSpec::nonclustered("i", ["name", "id"]).unwrap();
        let idx = IndexBuilder::new()
            .page_size(512)
            .build_from_table(&t, &spec)
            .unwrap();
        let report = IndexSizeReport::measure(&idx).unwrap();
        assert!(
            report.height >= 2,
            "expected internal levels, height = {}",
            report.height
        );
        assert_eq!(report.internal_pages, idx.num_internal_pages());
        assert_eq!(
            report.total_bytes(),
            (idx.num_leaf_pages() + idx.num_internal_pages()) * 512
        );
        // The root is one page; every separator names a child below it.
        let levels = separator_levels(&idx).unwrap();
        assert_eq!(levels.last().map(Vec::len), Some(1));
        let children =
            |level: &[Page]| -> usize { level.iter().map(|p| usize::from(p.slot_count())).sum() };
        assert_eq!(children(&levels[0]), idx.num_leaf_pages());
        for pair in levels.windows(2) {
            assert_eq!(children(&pair[1]), pair[0].len());
        }
    }

    #[test]
    fn an_empty_tree_has_no_separator_level() {
        let spec = IndexSpec::nonclustered("i", ["name"]).unwrap();
        let idx = IndexBuilder::new()
            .build_from_rows(&schema(), &[], &spec)
            .unwrap();
        assert_eq!(IndexSizeReport::measure(&idx).unwrap().height, 1);
        assert!(separator_levels(&idx).unwrap().is_empty());
        assert!(all_entries(&idx).is_empty());
    }
}
