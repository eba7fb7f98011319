//! The identity "scheme": stores cells in their uncompressed fixed-width
//! representation.  Used as a baseline and to validate size accounting.

use crate::measure::CellCosts;
use crate::scheme::CompressionScheme;

/// Stores every cell at its full declared width plus a small per-chunk header
/// (cell count and null bitmap), so its compression fraction is ~1.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uncompressed;

impl CompressionScheme for Uncompressed {
    fn name(&self) -> &'static str {
        "none"
    }

    /// Closed form: count + null bitmap + every cell at full width.
    fn cell_costs(&self) -> Option<CellCosts> {
        Some(CellCosts {
            chunk_header: |len| 2 + len.div_ceil(8),
            cell: |_cell, dt| dt.uncompressed_width(),
        })
    }
}
