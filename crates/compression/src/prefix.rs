//! Prefix compression.
//!
//! A simplified version of the "column prefix" step of SQL Server page
//! compression: the longest common prefix of the (null-suppressed) payloads
//! in a chunk is stored once, and each cell stores only its suffix.  Like
//! RLE, this is an ablation scheme for the estimator: SampleCF never looks
//! inside the algorithm, so the benchmark suite checks how it fares on a
//! scheme whose win depends on shared structure across the whole page.

use crate::encoding::{marker_width, ns_payload_from_raw};
use crate::error::CompressionResult;
use crate::measure::CellChunk;
use crate::scheme::CompressionScheme;

/// Prefix compression over the chunk's null-suppressed payloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefixCompression;

impl CompressionScheme for PrefixCompression {
    fn name(&self) -> &'static str {
        "prefix"
    }

    /// Closed form: scan the borrowed null-suppressed payloads once for the
    /// longest common prefix, then charge header + prefix + per-cell marker
    /// and suffix lengths.
    fn measure_chunk(&self, chunk: &CellChunk<'_>) -> CompressionResult<usize> {
        let dt = chunk.datatype();
        let width = marker_width(&dt);
        let mut non_null = chunk
            .cells()
            .iter()
            .filter(|c| !c.is_null())
            .map(|c| ns_payload_from_raw(c.bytes(), &dt));
        let prefix_len = match non_null.next() {
            None => 0,
            Some(first) => {
                let mut prefix = first.len();
                for p in non_null {
                    let mut l = 0;
                    while l < prefix && l < p.len() && p[l] == first[l] {
                        l += 1;
                    }
                    prefix = l;
                    if prefix == 0 {
                        break;
                    }
                }
                prefix
            }
        };
        let mut total = 2 + width + prefix_len;
        for c in chunk.cells() {
            total += width;
            if !c.is_null() {
                total += ns_payload_from_raw(c.bytes(), &dt).len() - prefix_len;
            }
        }
        Ok(total)
    }
}
