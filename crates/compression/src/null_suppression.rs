//! Null suppression (the paper's Figure 1.a).
//!
//! Each fixed-width cell is stored as its actual (unpadded) content plus a
//! small length marker.  For a `char(k)` column with actual lengths `ℓᵢ`,
//! the compressed size is `Σ (ℓᵢ + marker)` against an uncompressed size of
//! `n·k`, giving the compression fraction analysed in Section III-A of the
//! paper.

use crate::measure::{ns_cell_size_raw, CellCosts};
use crate::scheme::CompressionScheme;

/// Null suppression: store actual lengths instead of padded fixed widths.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSuppression;

impl CompressionScheme for NullSuppression {
    fn name(&self) -> &'static str {
        "null-suppression"
    }

    /// Closed form: count + per-cell marker-plus-payload sizes, taken from
    /// the raw cell bytes without building a single payload.
    fn cell_costs(&self) -> Option<CellCosts> {
        Some(CellCosts {
            chunk_header: |_len| 2,
            cell: |cell, dt| ns_cell_size_raw(cell, dt),
        })
    }
}
