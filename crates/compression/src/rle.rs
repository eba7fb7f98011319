//! Run-length encoding.
//!
//! Not analysed in the paper, but included as an ablation scheme: SampleCF is
//! explicitly *agnostic* to the compression algorithm, so the benchmark suite
//! also evaluates it against a scheme whose effectiveness depends on value
//! ordering.  Uniform row sampling destroys run structure, which makes RLE a
//! deliberately adversarial case for the estimator and a useful contrast with
//! NS and dictionary compression.

use crate::error::CompressionResult;
use crate::measure::{ns_cell_size_raw, CellChunk};
use crate::scheme::CompressionScheme;

/// Run-length encoding over adjacent equal values.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunLengthEncoding;

impl CompressionScheme for RunLengthEncoding {
    fn name(&self) -> &'static str {
        "rle"
    }

    /// Closed form: count runs of byte-equal cells (raw-cell equality is
    /// value equality for a fixed datatype) and charge each run its 2-byte
    /// length plus one null-suppressed cell.
    fn measure_chunk(&self, chunk: &CellChunk<'_>) -> CompressionResult<usize> {
        let dt = chunk.datatype();
        let mut total = 2usize;
        let mut cells = chunk.cells().iter();
        if let Some(first) = cells.next() {
            let mut current = first;
            for c in cells {
                if c != current {
                    total += 2 + ns_cell_size_raw(*current, &dt);
                    current = c;
                }
            }
            total += 2 + ns_cell_size_raw(*current, &dt);
        }
        Ok(total)
    }
}
