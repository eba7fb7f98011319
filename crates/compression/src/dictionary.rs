//! Dictionary compression (the paper's Figure 1.b).
//!
//! Two variants are provided:
//!
//! * [`DictionaryCompression`] — the realistic, *paged* variant: every chunk
//!   (one column within one page) carries its own inline dictionary, exactly
//!   as commercial systems do so that dictionary lookups never require extra
//!   I/O.  A distinct value that appears on `Pg(i)` pages is therefore stored
//!   `Pg(i)` times, which is the paging effect the paper's full model
//!   captures.
//! * [`GlobalDictionaryCompression`] — the paper's *simplified* analytical
//!   model: a single dictionary shared by the whole column, in which each
//!   distinct value is stored exactly once and every row stores only a
//!   pointer.  Its compression fraction is `(n·p + d·k)/(n·k)`.

use crate::error::{CompressionError, CompressionResult};
use crate::measure::{ns_cell_size_raw, CellChunk};
use crate::scheme::CompressionScheme;
use crate::scratch::with_distinct_scratch;

/// How wide the per-row dictionary pointers are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PointerWidth {
    /// Use the minimal whole number of bytes able to address the dictionary
    /// (⌈log₂ d / 8⌉, at least one byte).
    #[default]
    Auto,
    /// Use a fixed number of bytes (1..=8), as engines with a fixed symbol
    /// width do.
    Fixed(usize),
}

impl PointerWidth {
    /// Resolve the pointer width in bytes for a dictionary of `dict_len` entries.
    pub fn resolve(&self, dict_len: usize) -> CompressionResult<usize> {
        match self {
            PointerWidth::Auto => {
                let max_index = dict_len.saturating_sub(1) as u64;
                let mut bytes = 1usize;
                while bytes < 8 && max_index > (1u64 << (8 * bytes)) - 1 {
                    bytes += 1;
                }
                Ok(bytes)
            }
            PointerWidth::Fixed(b) => {
                if *b == 0 || *b > 8 {
                    return Err(CompressionError::InvalidConfig(format!(
                        "pointer width must be between 1 and 8 bytes, got {b}"
                    )));
                }
                let max_index = dict_len.saturating_sub(1) as u64;
                if *b < 8 && max_index > (1u64 << (8 * b)) - 1 {
                    return Err(CompressionError::InvalidConfig(format!(
                        "{b}-byte pointers cannot address a dictionary of {dict_len} entries"
                    )));
                }
                Ok(*b)
            }
        }
    }
}

/// Configuration shared by both dictionary variants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DictionaryConfig {
    /// Pointer width policy.
    pub pointer_width: PointerWidth,
}

/// Page-local dictionary compression: each chunk carries an inline dictionary.
#[derive(Debug, Clone, Copy, Default)]
pub struct DictionaryCompression {
    config: DictionaryConfig,
}

impl DictionaryCompression {
    /// Create with the given configuration.
    #[must_use]
    pub fn new(config: DictionaryConfig) -> Self {
        DictionaryCompression { config }
    }

    /// Create with a fixed pointer width in bytes.
    #[must_use]
    pub fn with_pointer_bytes(bytes: usize) -> Self {
        DictionaryCompression {
            config: DictionaryConfig {
                pointer_width: PointerWidth::Fixed(bytes),
            },
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> DictionaryConfig {
        self.config
    }
}

impl CompressionScheme for DictionaryCompression {
    fn name(&self) -> &'static str {
        "dictionary-paged"
    }

    /// Closed form: account distinct cells (null flag + raw bytes, which is
    /// value identity) for the inline dictionary, then header + pointers.
    ///
    /// Distinct counting runs on the thread-local [`crate::DistinctScratch`] table
    /// (cleared, not reallocated, between chunks), so the per-(page, column)
    /// measure loop does no allocation and no `SipHash` work.
    fn measure_chunk(&self, chunk: &CellChunk<'_>) -> CompressionResult<usize> {
        let dt = chunk.datatype();
        let cells = chunk.cells();
        let (distinct, dict_bytes) = with_distinct_scratch(|scratch| {
            scratch.reset(cells.len());
            let mut dict_bytes = 0usize;
            for (i, c) in cells.iter().enumerate() {
                if scratch.insert(*c, i as u64, |h| cells[h as usize]) {
                    dict_bytes += ns_cell_size_raw(*c, &dt);
                }
            }
            (scratch.len(), dict_bytes)
        });
        let ptr_width = self.config.pointer_width.resolve(distinct.max(1))?;
        Ok(2 + 2 + 1 + dict_bytes + chunk.len() * ptr_width)
    }
}

/// The paper's simplified model: one dictionary for the whole column, stored
/// once, with every row holding a pointer into it.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalDictionaryCompression {
    config: DictionaryConfig,
}

impl GlobalDictionaryCompression {
    /// Create with the given configuration.
    #[must_use]
    pub fn new(config: DictionaryConfig) -> Self {
        GlobalDictionaryCompression { config }
    }

    /// Create with a fixed pointer width in bytes.
    #[must_use]
    pub fn with_pointer_bytes(bytes: usize) -> Self {
        GlobalDictionaryCompression {
            config: DictionaryConfig {
                pointer_width: PointerWidth::Fixed(bytes),
            },
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> DictionaryConfig {
        self.config
    }
}

impl CompressionScheme for GlobalDictionaryCompression {
    fn name(&self) -> &'static str {
        "dictionary-global"
    }

    /// A single chunk measures like the paged variant: a global dictionary
    /// over a single page *is* a page-local dictionary.
    fn measure_chunk(&self, chunk: &CellChunk<'_>) -> CompressionResult<usize> {
        DictionaryCompression::new(self.config).measure_chunk(chunk)
    }

    /// Closed form for the shared dictionary: one distinct-cell account over
    /// all chunks, then per-chunk pointer arrays.
    fn measure_chunks(&self, chunks: &[CellChunk<'_>]) -> CompressionResult<usize> {
        if chunks.is_empty() {
            return Ok(0);
        }
        let dt = chunks[0].datatype();
        for c in chunks {
            if c.datatype() != dt {
                return Err(CompressionError::InvalidConfig(
                    "all chunks of a column must share a data type".to_string(),
                ));
            }
        }
        // One distinct account over all chunks on the shared scratch table;
        // handles pack (chunk index, cell position) so the probe can resolve
        // a stored handle back to its borrowed cell.
        let total: usize = chunks.iter().map(CellChunk::len).sum();
        let (distinct, dict_bytes) = with_distinct_scratch(|scratch| {
            scratch.reset(total);
            let mut dict_bytes = 0usize;
            for (ci, chunk) in chunks.iter().enumerate() {
                let cells = chunk.cells();
                for (i, c) in cells.iter().enumerate() {
                    let handle = ((ci as u64) << 32) | i as u64;
                    let fresh = scratch.insert(*c, handle, |h| {
                        chunks[(h >> 32) as usize].cells()[(h & 0xffff_ffff) as usize]
                    });
                    if fresh {
                        dict_bytes += ns_cell_size_raw(*c, &dt);
                    }
                }
            }
            (scratch.len(), dict_bytes)
        });
        let ptr_width = self.config.pointer_width.resolve(distinct.max(1))?;
        let shared = 4 + 1 + dict_bytes;
        let pointers: usize = chunks.iter().map(|c| 2 + c.len() * ptr_width).sum();
        Ok(shared + pointers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_width_resolution() {
        assert_eq!(PointerWidth::Auto.resolve(1).unwrap(), 1);
        assert_eq!(PointerWidth::Auto.resolve(256).unwrap(), 1);
        assert_eq!(PointerWidth::Auto.resolve(257).unwrap(), 2);
        assert_eq!(PointerWidth::Auto.resolve(70_000).unwrap(), 3);
        assert_eq!(PointerWidth::Fixed(2).resolve(100).unwrap(), 2);
        assert!(PointerWidth::Fixed(1).resolve(300).is_err());
        assert!(PointerWidth::Fixed(0).resolve(10).is_err());
        assert!(PointerWidth::Fixed(9).resolve(10).is_err());
    }

    #[test]
    fn auto_pointer_width_matches_log() {
        // The fewest bytes that address `distinct` dictionary slots:
        // ceil(log256(distinct)), and one byte for an empty dictionary.
        assert_eq!(PointerWidth::Auto.resolve(0).unwrap(), 1);
        assert_eq!(PointerWidth::Auto.resolve(1).unwrap(), 1);
        assert_eq!(PointerWidth::Auto.resolve(256).unwrap(), 1);
        assert_eq!(PointerWidth::Auto.resolve(257).unwrap(), 2);
        assert_eq!(PointerWidth::Auto.resolve(65_536).unwrap(), 2);
        assert_eq!(PointerWidth::Auto.resolve(65_537).unwrap(), 3);
    }
}
