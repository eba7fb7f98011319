//! Workload configurations shared by the experiment binaries.
//!
//! Experiments run at a scale that finishes in seconds on a laptop.  The
//! paper's guarantees are stated in terms of the sampling fraction `f` and
//! the distinct-value ratio `d/n`, so the *shape* of every result is
//! preserved at this scale.
//!
//! The substitution: seeded synthetic tables (`samplecf_datagen` presets)
//! of tens of thousands of rows stand in for production-sized ones, with
//! `f` and `d/n` held at the values an analysis names.  What the smaller
//! `n` changes is the sample size `r = f·n`, so spreads are wider by the
//! `1/(2√r)` factor of Theorem 1; the experiments whose subject is `n`
//! itself (`exp_theorem1`, `exp_dc_regimes`) sweep it explicitly.

use samplecf_datagen::{presets, GeneratedTable, TableSpec};

/// A named workload regime from the paper's analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperWorkload {
    /// `d = √n` — Theorem 2's small-d regime.
    SmallDistinct,
    /// `d = n/4` — Theorem 3's large-d regime.
    LargeDistinct,
    /// `d = n/10` — the intermediate regime where dictionary estimation is
    /// hardest.
    MidDistinct,
    /// Zipf-skewed frequencies over `d = n/10` values.
    Skewed,
    /// Values physically clustered on pages (adversarial for block sampling).
    Clustered,
}

impl PaperWorkload {
    /// All regimes, in presentation order.
    #[must_use]
    pub fn all() -> Vec<PaperWorkload> {
        vec![
            PaperWorkload::SmallDistinct,
            PaperWorkload::MidDistinct,
            PaperWorkload::LargeDistinct,
            PaperWorkload::Skewed,
            PaperWorkload::Clustered,
        ]
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PaperWorkload::SmallDistinct => "small-d (d = sqrt(n))",
            PaperWorkload::LargeDistinct => "large-d (d = n/4)",
            PaperWorkload::MidDistinct => "mid-d (d = n/10)",
            PaperWorkload::Skewed => "zipf-skewed (theta = 1.0)",
            PaperWorkload::Clustered => "clustered layout",
        }
    }

    /// Build the table spec for this regime.
    #[must_use]
    pub fn spec(&self, rows: usize, width: u16, seed: u64) -> TableSpec {
        match self {
            PaperWorkload::SmallDistinct => presets::small_distinct_table("t", rows, width, seed),
            PaperWorkload::LargeDistinct => {
                presets::large_distinct_table("t", rows, width, 0.25, seed)
            }
            PaperWorkload::MidDistinct => presets::variable_length_table(
                "t",
                rows,
                width,
                (rows / 10).max(1),
                4,
                width as usize - 4,
                seed,
            ),
            PaperWorkload::Skewed => {
                presets::skewed_table("t", rows, width, (rows / 10).max(1), 1.0, seed)
            }
            PaperWorkload::Clustered => {
                presets::clustered_table("t", rows, width, (rows / 100).max(2), seed)
            }
        }
    }
}

/// Generate a single-char(k) paper table for a given distinct count.
pub fn paper_table(rows: usize, width: u16, distinct: usize, seed: u64) -> GeneratedTable {
    presets::variable_length_table("t", rows, width, distinct, 4, (width as usize) - 4, seed)
        .generate()
        .expect("workload generation succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_regime_generates() {
        for w in PaperWorkload::all() {
            let g = w.spec(2_000, 24, 1).generate().unwrap();
            assert_eq!(g.table.num_rows(), 2_000, "{}", w.label());
            assert!(!w.label().is_empty());
        }
    }

    #[test]
    fn paper_table_has_requested_shape() {
        let g = paper_table(3_000, 32, 300, 2);
        assert_eq!(g.table.num_rows(), 3_000);
        assert_eq!(g.column_stats[0].distinct_values, 300);
    }
}
