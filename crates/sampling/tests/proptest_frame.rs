//! The sampling frame is arithmetic, and the arithmetic is the layout.
//!
//! Over random schemas (nullable columns, `VarChar`, every fixed type),
//! page sizes and row counts — none, one, an exact multiple of a page and a
//! ragged last page — an in-memory `Table` and its copy in a file must
//! each agree with their own pages: [`Frame::of`] maps position `p` to the
//! `p`-th slot of a page walk, counts the walk's pages, and puts
//! [`Frame::rows_before`] page `q` exactly where the walk does.  The strata
//! cut from the frame must have the row ranges the walk's RIDs give them
//! by `partition_point`, and equi-depth must pick the page boundaries the
//! walk's cumulative row counts pick.

use proptest::prelude::*;
use samplecf_sampling::Strata;
use samplecf_storage::{
    Column, DataType, Frame, PageId, Rid, Row, Schema, Table, TableBuilder, TableSource, Value,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Removes the table file when the case ends, pass or fail.
struct TempFile(std::path::PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Column `i` of kind `k`, nullable when `nullable`.
fn column(i: usize, k: u8, nullable: bool) -> Column {
    let datatype = match k {
        0 => DataType::Char(3 + (i as u16 * 5) % 20),
        1 => DataType::VarChar(2 + (i as u16 * 7) % 30),
        2 => DataType::Int32,
        3 => DataType::Int64,
        _ => DataType::Bool,
    };
    let name = format!("c{i}");
    if nullable {
        Column::nullable(name, datatype)
    } else {
        Column::new(name, datatype)
    }
}

/// Row `r` of `schema`: a NULL now and then where the column allows it.
fn row(schema: &Schema, r: usize) -> Row {
    let values = (schema.columns().iter().enumerate())
        .map(|(i, col)| {
            if col.nullable && (r + i).is_multiple_of(3) {
                return Value::Null;
            }
            match col.datatype {
                DataType::Char(_) | DataType::VarChar(_) => Value::str(format!("{}", r % 97)),
                DataType::Int32 | DataType::Int64 => Value::int(r as i64 - 50),
                DataType::Bool => Value::Bool(r.is_multiple_of(2)),
            }
        })
        .collect();
    Row::new(values)
}

/// Every RID in storage order, by reading every page and listing its slots.
fn page_walk(source: &dyn TableSource) -> Vec<Rid> {
    let mut rids = Vec::new();
    for pid in 0..source.num_pages() as PageId {
        let page = source.read_page(pid).unwrap();
        rids.extend((0..page.slot_count()).map(|slot| Rid::new(pid, slot)));
    }
    rids
}

/// The equi-depth page boundaries as the strata cut them from a list of
/// RIDs: cumulative rows per page from the walk, then the boundary nearest
/// each ideal share, leaving every stratum one page.
fn equi_depth_bounds(walk: &[Rid], num_pages: usize, count: usize) -> Vec<usize> {
    let count = count.min(num_pages);
    if count == 0 {
        return Vec::new();
    }
    let mut cum_rows = vec![0usize; num_pages + 1];
    for rid in walk {
        cum_rows[rid.page as usize + 1] += 1;
    }
    for p in 0..num_pages {
        cum_rows[p + 1] += cum_rows[p];
    }
    let total = walk.len() as f64;
    let mut bounds = vec![0usize];
    for s in 1..count {
        let ideal = s as f64 * total / count as f64;
        let (lo, hi) = (bounds[s - 1] + 1, num_pages - (count - s));
        let best = (lo..=hi)
            .min_by(|&a, &b| {
                let da = (cum_rows[a] as f64 - ideal).abs();
                let db = (cum_rows[b] as f64 - ideal).abs();
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        bounds.push(best);
    }
    bounds.push(num_pages);
    bounds
}

fn check_source(source: &dyn TableSource, counts: &[usize], tag: &str) {
    let walk = page_walk(source);
    let frame = Frame::of(source);
    assert_eq!(frame.len(), walk.len(), "{tag}: rows");
    assert_eq!(frame.pages(), source.num_pages(), "{tag}: pages");
    for (pos, rid) in walk.iter().enumerate() {
        assert_eq!(frame.rid(pos), *rid, "{tag}: position {pos}");
    }
    for page in 0..=source.num_pages() + 1 {
        let before = walk.partition_point(|rid| (rid.page as usize) < page);
        assert_eq!(frame.rows_before(page), before, "{tag}: before page {page}");
    }
    for &count in counts {
        let width = Strata::equi_width(source, count).unwrap();
        let depth = Strata::equi_depth(source, count).unwrap();
        let depth_pages: Vec<usize> = (0..depth.len())
            .map(|s| depth.page_range(s).start)
            .chain((!depth.is_empty()).then_some(source.num_pages()))
            .collect();
        assert_eq!(
            depth_pages,
            equi_depth_bounds(&walk, source.num_pages(), count),
            "{tag}: equi-depth k={count}"
        );
        for strata in [width, depth] {
            for s in 0..strata.len() {
                let pages = strata.page_range(s);
                let start = walk.partition_point(|rid| (rid.page as usize) < pages.start);
                let end = walk.partition_point(|rid| (rid.page as usize) < pages.end);
                assert_eq!(strata.row_range(s), start..end, "{tag}: k={count} s={s}");
            }
        }
    }
}

fn schema_strategy() -> impl Strategy<Value = Schema> {
    proptest::collection::vec((0u8..5, any::<bool>()), 1..7).prop_map(|columns| {
        let columns = (columns.into_iter().enumerate())
            .map(|(i, (k, nullable))| column(i, k, nullable))
            .collect();
        Schema::new(columns).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_frame_is_the_page_walk_and_strata_are_its_ranges(
        schema in schema_strategy(),
        page_size in prop_oneof![Just(64usize), Just(128), Just(512), Just(1000), Just(4096)],
        shape in 0u8..4,
        pages in 1usize..6,
        ragged in 1usize..1000,
        counts in proptest::collection::vec(1usize..12, 1..4),
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let mut probe = Table::with_page_size("t", schema.clone(), page_size).unwrap();
        let per_page = Frame::of(&probe).rows_per_page();
        if per_page == 0 {
            // Records too wide for the page: no row can be stored, and the
            // frame is empty.
            prop_assert!(probe.insert(&row(&schema, 1)).is_err());
            prop_assert!(Frame::of(&probe).is_empty());
            return Ok(());
        }
        let rows = match shape {
            0 => 0,
            1 => 1,
            2 => pages * per_page,
            _ => (pages - 1) * per_page + 1 + ragged % per_page.saturating_sub(1).max(1),
        };
        let table = TableBuilder::new("t", schema.clone())
            .page_size(page_size)
            .build_with_rows((0..rows).map(|r| row(&schema, r)))
            .unwrap();
        let file = TempFile(std::env::temp_dir().join(format!(
            "samplecf_proptest_frame_{}_{}.scf",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        )));
        let disk = Table::materialize(&file.0, &table).unwrap();
        check_source(&table, &counts, "table");
        check_source(&disk, &counts, "disk");
        prop_assert_eq!(Frame::of(&disk), Frame::of(&table));
    }
}
