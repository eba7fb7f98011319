//! Allocation-free distinct-cell counting for the dictionary kernels.
//!
//! The measure path visits one `CellChunk` per (page, column) pair; counting
//! distinct cells with a fresh `HashSet` per chunk spends most of its time in
//! the allocator and the `SipHash` mixer rather than comparing bytes.  This
//! module replaces it with an open-addressing scratch table that is
//!
//! * **reused** across chunks — a thread-local table is cleared (`fill`), not
//!   reallocated, between same-scale chunks, so the steady state does zero
//!   allocation (a grossly oversized table is shrunk instead — see
//!   [`DistinctScratch::reset`]);
//! * **linear-probed** over power-of-two capacities at most half full;
//! * **hashed** with an FxHash-style multiply-and-rotate mixer over the
//!   borrowed cell bytes — no per-byte `SipHash` rounds;
//! * **index-based** — slots store a caller-packed `u64` handle instead of
//!   the cell itself, so one table type serves both the per-chunk kernel
//!   (handle = cell position) and the global-dictionary kernel
//!   (handle = chunk index ⊕ cell position) without borrowing headaches.
//!
//! Equality mirrors [`CellRef`]'s `Eq`: two NULL cells are equal regardless
//! of their placeholder bytes, and NULL never equals a non-NULL cell — the
//! null flag therefore participates in the hash ahead of the bytes.

use samplecf_storage::CellRef;
use std::cell::RefCell;

const EMPTY: u64 = u64::MAX;

/// FxHash-style mixer over a cell's identity (null flag, then bytes).
#[inline]
fn hash_cell(cell: CellRef<'_>) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = (0x9e37_79b9_7f4a_7c15u64 ^ u64::from(cell.is_null())).wrapping_mul(K);
    if cell.is_null() {
        // NULL cells hash alike regardless of their placeholder bytes so
        // the hash stays consistent with `CellRef`'s equality.
        return h;
    }
    let bytes = cell.bytes();
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(buf)).wrapping_mul(K);
    }
    (h.rotate_left(5) ^ bytes.len() as u64).wrapping_mul(K)
}

/// A reusable open-addressing set of cells, keyed by caller-packed handles.
#[derive(Debug, Default)]
pub struct DistinctScratch {
    /// Slot array: `EMPTY` or a packed handle the caller can resolve back
    /// to the cell it inserted.  Capacity is a power of two, kept at most
    /// half full so linear probes stay short.
    slots: Vec<u64>,
    len: usize,
}

impl DistinctScratch {
    /// An empty table; the first [`reset`](Self::reset) sizes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear the table and make sure it can hold `expected` cells at no more
    /// than half load.  Growth reallocates; a table more than 4x oversized
    /// shrinks back to the requested bound (clearing a huge stale table
    /// costs more than clearing a right-sized one — a per-page chunk after
    /// a whole-column global-dictionary pass must not memset megabytes);
    /// everything in between is a `fill`.
    ///
    /// The shrink is in place: the long-lived thread-local table keeps its
    /// address.  Moving it every time a per-page chunk follows a global
    /// pass unpins the top of glibc's heap, and the next op's large buffers
    /// are then trimmed and re-faulted — a `lib_uniform` p90 tail that
    /// `MALLOC_TRIM_THRESHOLD_` makes vanish.
    pub fn reset(&mut self, expected: usize) {
        let cap = (expected.max(4) * 2).next_power_of_two();
        if self.slots.len() < cap {
            self.slots = vec![EMPTY; cap];
        } else {
            if self.slots.len() > cap * 4 {
                self.slots.truncate(cap);
                self.slots.shrink_to_fit();
            }
            self.slots.fill(EMPTY);
        }
        self.len = 0;
    }

    /// Number of distinct cells inserted since the last reset.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no cells have been inserted since the last reset.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `cell` under the packed `handle` unless an equal cell is
    /// already present; returns `true` when the cell is new.  `resolve`
    /// maps a previously stored handle back to its cell for the equality
    /// probe.
    ///
    /// The caller must `reset` with a capacity bound covering every insert;
    /// the half-load invariant then guarantees a free slot exists.
    pub fn insert<'a, F>(&mut self, cell: CellRef<'a>, handle: u64, resolve: F) -> bool
    where
        F: Fn(u64) -> CellRef<'a>,
    {
        debug_assert!(handle != EMPTY, "u64::MAX is the empty-slot sentinel");
        debug_assert!(
            (self.len + 1) * 2 <= self.slots.len(),
            "DistinctScratch over half full: reset() with a larger bound"
        );
        let mask = self.slots.len() - 1;
        let mut slot = (hash_cell(cell) as usize) & mask;
        loop {
            let stored = self.slots[slot];
            if stored == EMPTY {
                self.slots[slot] = handle;
                self.len += 1;
                return true;
            }
            if resolve(stored) == cell {
                return false;
            }
            slot = (slot + 1) & mask;
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<DistinctScratch> = RefCell::new(DistinctScratch::new());
}

/// Run `f` with this thread's shared scratch table.  Kernels measured in a
/// loop (one chunk per page and column) hit a warm, already-sized table and
/// allocate nothing after the first chunk.
pub fn with_distinct_scratch<R>(f: impl FnOnce(&mut DistinctScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(bytes: &[u8]) -> CellRef<'_> {
        CellRef::new(false, bytes)
    }

    #[test]
    fn counts_distinct_cells_like_a_hashset() {
        let backing: Vec<Vec<u8>> = (0..500).map(|i| vec![(i % 37) as u8, 9, 9, 9]).collect();
        let cells: Vec<CellRef<'_>> = backing.iter().map(|b| cell(b)).collect();
        let mut scratch = DistinctScratch::new();
        scratch.reset(cells.len());
        let mut distinct = 0;
        for (i, c) in cells.iter().enumerate() {
            if scratch.insert(*c, i as u64, |h| cells[h as usize]) {
                distinct += 1;
            }
        }
        assert_eq!(distinct, 37);
        assert_eq!(scratch.len(), 37);
    }

    #[test]
    fn null_cells_collapse_regardless_of_placeholder_bytes() {
        let a = CellRef::new(true, &[0, 0, 0, 0]);
        let b = CellRef::new(true, &[1, 2, 3, 4]);
        let c = cell(&[0, 0, 0, 0]);
        let cells = [a, b, c];
        let mut scratch = DistinctScratch::new();
        scratch.reset(cells.len());
        let mut distinct = 0;
        for (i, c) in cells.iter().enumerate() {
            if scratch.insert(*c, i as u64, |h| cells[h as usize]) {
                distinct += 1;
            }
        }
        // Two NULLs are one distinct cell; the all-zero non-NULL is another.
        assert_eq!(distinct, 2);
    }

    #[test]
    fn reset_reuses_capacity_without_stale_entries() {
        let backing: Vec<Vec<u8>> = (0..64).map(|i| vec![i as u8; 8]).collect();
        let cells: Vec<CellRef<'_>> = backing.iter().map(|b| cell(b)).collect();
        let mut scratch = DistinctScratch::new();
        scratch.reset(cells.len());
        for (i, c) in cells.iter().enumerate() {
            scratch.insert(*c, i as u64, |h| cells[h as usize]);
        }
        let cap = scratch.slots.len();
        // A slightly smaller second round keeps the table but sees it empty.
        scratch.reset(cells.len() / 2);
        assert_eq!(scratch.slots.len(), cap);
        assert!(scratch.is_empty());
        assert!(scratch.insert(cells[0], 0, |h| cells[h as usize]));
        assert!(!scratch.insert(cells[0], 0, |h| cells[h as usize]));
        assert_eq!(scratch.len(), 1);
    }

    #[test]
    fn reset_shrinks_a_grossly_oversized_table() {
        // After a whole-column pass the thread-local table is huge; a
        // per-page chunk must not inherit (and memset) that capacity.
        let backing: Vec<Vec<u8>> = (0..4096)
            .map(|i| (i as u32).to_le_bytes().to_vec())
            .collect();
        let cells: Vec<CellRef<'_>> = backing.iter().map(|b| cell(b)).collect();
        let mut scratch = DistinctScratch::new();
        scratch.reset(cells.len());
        let big = scratch.slots.len();
        scratch.reset(64);
        assert!(scratch.slots.len() < big);
        assert!(scratch.slots.len() >= 128);
        let mut distinct = 0;
        for (i, c) in cells.iter().take(64).enumerate() {
            if scratch.insert(*c, i as u64, |h| cells[h as usize]) {
                distinct += 1;
            }
        }
        assert_eq!(distinct, 64);
    }

    #[test]
    fn handles_round_trip_through_the_resolver() {
        // The global-dictionary kernel packs (chunk, position) pairs; the
        // table must hand back exactly what was stored.
        let backing: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8, 0]).collect();
        let cells: Vec<CellRef<'_>> = backing.iter().map(|b| cell(b)).collect();
        let mut scratch = DistinctScratch::new();
        scratch.reset(20);
        for (i, c) in cells.iter().enumerate() {
            let packed = (7u64 << 32) | i as u64;
            assert!(scratch.insert(*c, packed, |h| {
                assert_eq!(h >> 32, 7);
                cells[(h & 0xffff_ffff) as usize]
            }));
        }
        assert_eq!(scratch.len(), cells.len());
    }
}
