//! Whole-table generation.

use crate::column::ColumnSpec;
use crate::error::{DatagenError, DatagenResult};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use samplecf_storage::{Row, Schema, Table, TableBuilder, Value, DEFAULT_PAGE_SIZE};
use std::collections::HashSet;

/// Physical row order of the generated table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowLayout {
    /// Rows are inserted in random order (values are spread across pages).
    Shuffled,
    /// Rows are sorted by the given column before insertion, so equal values
    /// cluster on the same pages — the adversarial case for block sampling.
    ClusteredBy(usize),
}

/// Specification of a synthetic table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Number of rows `n`.
    pub rows: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// RNG seed; the same spec + seed always generates the same table.
    pub seed: u64,
    /// Physical row order.
    pub layout: RowLayout,
    /// Column specifications.
    pub columns: Vec<ColumnSpec>,
}

impl TableSpec {
    /// Start a spec with defaults (8 KiB pages, shuffled layout, seed 0).
    pub fn new(name: impl Into<String>, rows: usize, columns: Vec<ColumnSpec>) -> Self {
        TableSpec {
            name: name.into(),
            rows,
            page_size: DEFAULT_PAGE_SIZE,
            seed: 0,
            layout: RowLayout::Shuffled,
            columns,
        }
    }

    /// Override the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the page size.
    #[must_use]
    pub fn page_size(mut self, page_size: usize) -> Self {
        self.page_size = page_size;
        self
    }

    /// Override the physical row layout.
    #[must_use]
    pub fn layout(mut self, layout: RowLayout) -> Self {
        self.layout = layout;
        self
    }

    /// The schema this spec generates.
    pub fn schema(&self) -> DatagenResult<Schema> {
        Schema::new(self.columns.iter().map(ColumnSpec::schema_column).collect())
            .map_err(DatagenError::from)
    }

    /// Generate the table together with its ground-truth statistics.
    pub fn generate(&self) -> DatagenResult<GeneratedTable> {
        if self.columns.is_empty() {
            return Err(DatagenError::InvalidSpec(
                "a table spec needs at least one column".to_string(),
            ));
        }
        if let RowLayout::ClusteredBy(idx) = self.layout {
            if idx >= self.columns.len() {
                return Err(DatagenError::InvalidSpec(format!(
                    "clustering column index {idx} is out of range for {} columns",
                    self.columns.len()
                )));
            }
        }
        let schema = self.schema()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut generators = self
            .columns
            .iter()
            .map(|c| c.build(&mut rng))
            .collect::<DatagenResult<Vec<_>>>()?;

        let mut rows: Vec<Row> = Vec::with_capacity(self.rows);
        for _ in 0..self.rows {
            let values: Vec<Value> = generators
                .iter_mut()
                .map(|g| g.next_value(&mut rng))
                .collect();
            rows.push(Row::new(values));
        }

        match self.layout {
            RowLayout::Shuffled => rows.shuffle(&mut rng),
            RowLayout::ClusteredBy(idx) => {
                rows.sort_by(|a, b| a.value(idx).cmp(b.value(idx)));
            }
        }

        let column_stats = (0..self.columns.len())
            .map(|i| {
                let mut distinct = HashSet::new();
                let mut sum_logical_len = 0usize;
                let mut null_rows = 0usize;
                for row in &rows {
                    let v = row.value(i);
                    if v.is_null() {
                        null_rows += 1;
                    } else {
                        distinct.insert(v.clone());
                    }
                    sum_logical_len += v.logical_len();
                }
                ColumnStats {
                    name: self.columns[i].name().to_string(),
                    distinct_values: distinct.len(),
                    sum_logical_len,
                    null_rows,
                }
            })
            .collect();

        let table = TableBuilder::new(self.name.clone(), schema)
            .page_size(self.page_size)
            .build_with_rows(rows)?;

        Ok(GeneratedTable {
            table,
            column_stats,
        })
    }
}

/// Ground-truth statistics of one generated column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Exact number of distinct non-null values actually generated
    /// (may be below the requested `d` for small tables).
    pub distinct_values: usize,
    /// Exact `Σ ℓᵢ`: the sum of null-suppressed lengths.
    pub sum_logical_len: usize,
    /// Number of NULL cells.
    pub null_rows: usize,
}

/// A generated table plus its ground truth.
#[derive(Debug)]
pub struct GeneratedTable {
    /// The populated table.
    pub table: Table,
    /// Per-column ground-truth statistics (in schema order).
    pub column_stats: Vec<ColumnStats>,
}

impl GeneratedTable {
    /// Ground truth for a column by name.
    pub fn stats_for(&self, column: &str) -> DatagenResult<&ColumnStats> {
        self.column_stats
            .iter()
            .find(|c| c.name == column)
            .ok_or_else(|| DatagenError::InvalidSpec(format!("unknown column `{column}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::{FrequencyDistribution, LengthDistribution};
    use samplecf_storage::TableSource;

    /// Column `a` of `table` in storage order, projected from a full scan.
    fn column_a(table: &Table) -> Vec<Value> {
        let rows = table.scan_rows().unwrap().into_iter();
        rows.map(|(_, row)| row.value(0).clone()).collect()
    }

    fn spec(n: usize, d: usize) -> TableSpec {
        TableSpec::new(
            "t",
            n,
            vec![
                ColumnSpec::Char {
                    name: "a".into(),
                    width: 20,
                    distinct: d,
                    length: LengthDistribution::Uniform { min: 4, max: 16 },
                    frequency: FrequencyDistribution::Uniform,
                    null_fraction: 0.0,
                },
                ColumnSpec::SequentialInt { name: "id".into() },
            ],
        )
        .seed(11)
        .page_size(2048)
    }

    #[test]
    fn generates_requested_rows_and_ground_truth() {
        let g = spec(5000, 50).generate().unwrap();
        assert_eq!(g.table.num_rows(), 5000);
        assert_eq!(g.table.name(), "t");
        let stats = g.stats_for("a").unwrap();
        assert_eq!(stats.distinct_values, 50);
        assert_eq!(stats.null_rows, 0);
        // Lengths are drawn from [4, 16], so the sum must land in that band.
        assert!((4 * 5000..=16 * 5000).contains(&stats.sum_logical_len));
        // Ground truth matches a direct scan of the stored table.
        let column = column_a(&g.table);
        let direct_sum: usize = column
            .iter()
            .map(samplecf_storage::Value::logical_len)
            .sum();
        assert_eq!(direct_sum, stats.sum_logical_len);
        let direct: std::collections::HashSet<_> = column.into_iter().collect();
        assert_eq!(direct.len(), 50);
        assert!(g.stats_for("missing").is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = spec(500, 20).generate().unwrap();
        let b = spec(500, 20).generate().unwrap();
        let va: Vec<_> = column_a(&a.table);
        let vb: Vec<_> = column_a(&b.table);
        assert_eq!(va, vb);
        let c = spec(500, 20).seed(99).generate().unwrap();
        assert_ne!(va, column_a(&c.table));
    }

    #[test]
    fn clustered_layout_sorts_rows() {
        let g = spec(2000, 10)
            .layout(RowLayout::ClusteredBy(0))
            .generate()
            .unwrap();
        let values = column_a(&g.table);
        for w in values.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(TableSpec::new("t", 10, vec![]).generate().is_err());
        assert!(spec(10, 5)
            .layout(RowLayout::ClusteredBy(9))
            .generate()
            .is_err());
    }

    #[test]
    fn small_tables_may_not_reach_requested_distinct_count() {
        let g = spec(20, 500).generate().unwrap();
        let stats = g.stats_for("a").unwrap();
        assert!(stats.distinct_values <= 20);
    }
}
