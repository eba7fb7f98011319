//! Workload presets used by the experiments and examples.
//!
//! Each preset corresponds to a regime the paper's analysis distinguishes:
//! small vs. large numbers of distinct values (Theorems 2 and 3), skewed
//! frequencies, clustered physical layout (for the block-sampling
//! experiment), and a realistic multi-column table for the physical-design
//! advisor example.

use crate::column::ColumnSpec;
use crate::distribution::{FrequencyDistribution, LengthDistribution};
use crate::table_gen::{RowLayout, TableSpec};

/// The paper's canonical setting: a single `char(k)` column with `d` distinct
/// values of a fixed length, uniform frequencies, shuffled layout.
#[must_use]
pub fn single_char_table(
    name: &str,
    rows: usize,
    width: u16,
    distinct: usize,
    value_len: usize,
    seed: u64,
) -> TableSpec {
    TableSpec::new(
        name,
        rows,
        vec![ColumnSpec::Char {
            name: "a".to_string(),
            width,
            distinct,
            length: LengthDistribution::Constant(value_len),
            frequency: FrequencyDistribution::Uniform,
            null_fraction: 0.0,
        }],
    )
    .seed(seed)
}

/// Variable-length variant: value lengths drawn uniformly from
/// `[min_len, max_len]`, which is the interesting case for Null Suppression.
#[must_use]
pub fn variable_length_table(
    name: &str,
    rows: usize,
    width: u16,
    distinct: usize,
    min_len: usize,
    max_len: usize,
    seed: u64,
) -> TableSpec {
    TableSpec::new(
        name,
        rows,
        vec![ColumnSpec::Char {
            name: "a".to_string(),
            width,
            distinct,
            length: LengthDistribution::Uniform {
                min: min_len,
                max: max_len,
            },
            frequency: FrequencyDistribution::Uniform,
            null_fraction: 0.0,
        }],
    )
    .seed(seed)
}

/// All-equal column: one distinct value of a fixed length, repeated `rows`
/// times — the zero-variance extreme for the progressive estimator (and a
/// heavy-RLE workload: the whole column is a single run).
#[must_use]
pub fn constant_table(
    name: &str,
    rows: usize,
    width: u16,
    value_len: usize,
    seed: u64,
) -> TableSpec {
    single_char_table(name, rows, width, 1, value_len, seed)
}

/// "Small d" regime of Theorem 2: `d = ⌈√n⌉` distinct values.
#[must_use]
pub fn small_distinct_table(name: &str, rows: usize, width: u16, seed: u64) -> TableSpec {
    let d = (rows as f64).sqrt().ceil().max(1.0) as usize;
    variable_length_table(name, rows, width, d, 4, width as usize, seed)
}

/// "Large d" regime of Theorem 3: `d = ⌈ratio·n⌉` distinct values
/// (`ratio` is the paper's constant `c`, e.g. 0.25).
#[must_use]
pub fn large_distinct_table(
    name: &str,
    rows: usize,
    width: u16,
    ratio: f64,
    seed: u64,
) -> TableSpec {
    let d = ((rows as f64 * ratio).ceil() as usize).max(1);
    variable_length_table(name, rows, width, d, 4, width as usize, seed)
}

/// Zipf-skewed value frequencies over `d` distinct values.
#[must_use]
pub fn skewed_table(
    name: &str,
    rows: usize,
    width: u16,
    distinct: usize,
    theta: f64,
    seed: u64,
) -> TableSpec {
    TableSpec::new(
        name,
        rows,
        vec![ColumnSpec::Char {
            name: "a".to_string(),
            width,
            distinct,
            length: LengthDistribution::Uniform {
                min: 4,
                max: width as usize,
            },
            frequency: FrequencyDistribution::Zipf { theta },
            null_fraction: 0.0,
        }],
    )
    .seed(seed)
}

/// Same data as [`single_char_table`] but physically sorted by the column, so
/// equal values cluster on pages — the adversarial layout for block sampling.
#[must_use]
pub fn clustered_table(
    name: &str,
    rows: usize,
    width: u16,
    distinct: usize,
    seed: u64,
) -> TableSpec {
    single_char_table(name, rows, width, distinct, 8.min(width as usize), seed)
        .layout(RowLayout::ClusteredBy(0))
}

/// The adversarial layout for *uniform row* sampling under Null
/// Suppression: variable-length values physically sorted by value, so each
/// page holds rows of (nearly) one length while the table as a whole spans
/// the full `[4, width]` range.  A uniform draw sees the full cross-table
/// length variance at every sample size; a stratified draw over contiguous
/// page ranges sees almost none within a stratum — the table the
/// stratified stopping claim is pinned on (`tests/end_to_end.rs`).
#[must_use]
pub fn clustered_variable_table(
    name: &str,
    rows: usize,
    width: u16,
    distinct: usize,
    seed: u64,
) -> TableSpec {
    variable_length_table(name, rows, width, distinct, 4, width as usize, seed)
        .layout(RowLayout::ClusteredBy(0))
}

/// A realistic multi-column "orders" table used by the physical-design
/// advisor and capacity-planning examples: a unique key, a low-cardinality
/// status column, a skewed customer reference, and a padded comment field.
#[must_use]
pub fn orders_table(name: &str, rows: usize, seed: u64) -> TableSpec {
    TableSpec::new(
        name,
        rows,
        vec![
            ColumnSpec::SequentialInt {
                name: "order_id".to_string(),
            },
            ColumnSpec::Char {
                name: "status".to_string(),
                width: 12,
                distinct: 5,
                length: LengthDistribution::Uniform { min: 4, max: 10 },
                frequency: FrequencyDistribution::Zipf { theta: 0.8 },
                null_fraction: 0.0,
            },
            ColumnSpec::Char {
                name: "customer".to_string(),
                width: 24,
                distinct: (rows / 20).max(1),
                length: LengthDistribution::Uniform { min: 8, max: 20 },
                frequency: FrequencyDistribution::Zipf { theta: 1.0 },
                null_fraction: 0.0,
            },
            ColumnSpec::Char {
                name: "comment".to_string(),
                width: 80,
                distinct: (rows / 2).max(1),
                length: LengthDistribution::Normal {
                    mean: 28.0,
                    std_dev: 8.0,
                },
                frequency: FrequencyDistribution::Uniform,
                null_fraction: 0.05,
            },
        ],
    )
    .seed(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_storage::{Table, TableSource, Value};

    /// Column `a` of `table` in storage order, projected from a full scan.
    fn column_a(table: &Table) -> Vec<Value> {
        let rows = table.scan_rows().unwrap().into_iter();
        rows.map(|(_, row)| row.value(0).clone()).collect()
    }

    #[test]
    fn small_and_large_distinct_regimes() {
        let small = small_distinct_table("s", 10_000, 20, 1).generate().unwrap();
        let large = large_distinct_table("l", 10_000, 20, 0.25, 1)
            .generate()
            .unwrap();
        let ds = small.stats_for("a").unwrap().distinct_values;
        let dl = large.stats_for("a").unwrap().distinct_values;
        assert!(ds <= 110, "small-d regime produced d = {ds}");
        assert!(dl > 1_500, "large-d regime produced d = {dl}");
        assert!(ds < dl);
    }

    #[test]
    fn constant_table_is_all_equal() {
        let g = constant_table("c", 500, 24, 8, 9).generate().unwrap();
        assert_eq!(g.table.num_rows(), 500);
        assert_eq!(g.stats_for("a").unwrap().distinct_values, 1);
        let values = column_a(&g.table);
        assert!(values.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn skewed_table_concentrates_mass() {
        let g = skewed_table("z", 5_000, 20, 100, 1.2, 3)
            .generate()
            .unwrap();
        let values = column_a(&g.table);
        let mut counts = std::collections::HashMap::new();
        for v in values {
            *counts.entry(v).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max > 5_000 / 20, "head value should be frequent, got {max}");
    }

    #[test]
    fn clustered_table_is_sorted() {
        let g = clustered_table("c", 1_000, 16, 10, 4).generate().unwrap();
        let values = column_a(&g.table);
        for w in values.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn clustered_variable_table_is_sorted_with_varying_lengths() {
        let g = clustered_variable_table("cv", 2_000, 40, 16, 4)
            .generate()
            .unwrap();
        let values = column_a(&g.table);
        for w in values.windows(2) {
            assert!(w[0] <= w[1], "layout must sort by value");
        }
        let lens: std::collections::BTreeSet<usize> =
            values.iter().map(|v| v.logical_len()).collect();
        assert!(lens.len() > 3, "lengths must vary across the table");
    }

    #[test]
    fn orders_table_has_expected_shape() {
        let g = orders_table("orders", 2_000, 5).generate().unwrap();
        assert_eq!(g.table.num_rows(), 2_000);
        assert_eq!(g.table.schema().arity(), 4);
        assert_eq!(g.stats_for("order_id").unwrap().distinct_values, 2_000);
        assert!(g.stats_for("status").unwrap().distinct_values <= 5);
        assert!(g.stats_for("comment").unwrap().null_rows > 0);
    }

    #[test]
    fn presets_honour_seed() {
        let a = single_char_table("t", 100, 20, 10, 6, 42)
            .generate()
            .unwrap();
        let b = single_char_table("t", 100, 20, 10, 6, 42)
            .generate()
            .unwrap();
        assert_eq!(column_a(&a.table), column_a(&b.table));
    }
}
