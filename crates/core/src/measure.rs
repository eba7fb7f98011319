//! The one measure of a sample: steps 2–4 of SampleCF over the batches
//! drawn so far.
//!
//! A `SampleMeasure` is bound to `(schema, spec, schemes)`: one scheme for
//! a stream ([`stream`](SampleMeasure::stream)), any number for a held
//! sample ([`held`](SampleMeasure::held)).  Batches are folded in as they
//! were drawn — a progressive run's stream, a held sample's batches, the
//! exact CF's one read of every page — and the prefix folded so far is
//! priced under every scheme, whole or a stratum at a time.  Two routes,
//! and no knob:
//!
//! * **cell sums**, for a stream whose scheme has
//!   [`cell_costs`](CompressionScheme::cell_costs) (null suppression, none).
//!   Such a size over any rows is one header per leaf plus the rows' cell
//!   costs — the per-row sums `Σ(ℓᵢ + marker)` Theorem 1 analyses — so key
//!   order cannot show.  Each batch's records are read once, unsorted, into
//!   per-column cost sums: one for the sample, or one per stratum tag for a
//!   stratified draw.  The whole prefix and a stratum are
//!   [`RunSizer::price`] arithmetic.  The same pass keeps the moments of
//!   each row's and each page's cost, which price the CF's design variance
//!   ([`design_sums`](SampleMeasure::design_sums)), and hands out each
//!   record's first key cell: the [`DataStats`] are counted from those —
//!   NULLs and `Σ ℓᵢ` are sums, and `d′` counts the distinct non-NULL
//!   cells by their bytes.
//! * **one walk of the key order** for a stream with a scheme that must see
//!   the order, and for a held sample whatever its schemes: its order is
//!   sorted once and kept, and a walk through a kept order costs even a
//!   cell-additive scheme less than a pass of sums (null suppression on a
//!   25 000-row sample, 2 shared cores: 1.6 ms walked, 3.3 ms summed).  The
//!   one walk sizes every scheme ([`OrderedEntries::measure_where`]).  Each
//!   batch's entries are encoded, and `order` sorts only the entries past
//!   the [`KeyOrder`]'s end and merges them in — none at all when the held
//!   order covers every row.  A stratum keeps the rows its tag names.  The
//!   [`DataStats`] are read off the walk.  Such a CF is not a sum of per-row
//!   terms, so it has no design variance.
//!
//! Both routes build the [`DataStats`] in one place, from the
//! [`FirstKeyStats`] and a row count, and both are bit-identical to
//! packing and measuring every tree from the rows, the differential oracle
//! ([`measure_rows`](crate::measure_rows)).

use crate::error::CoreResult;
use crate::estimator::{combine_strata, CfMeasurement, DataStats};
use crate::theory::Unit;
use samplecf_compression::{CellCosts, CompressionScheme, DistinctScratch};
use samplecf_index::{
    CompressedIndexReport, FirstKeyStats, IndexBuilder, IndexSpec, KeyOrder, OrderedEntries,
    RunCellCosts, RunSizer, UnitSums,
};
use samplecf_sampling::RecordBatch;
use samplecf_storage::{CellRef, DataType, Schema, StorageResult};
use std::sync::Arc;
use std::time::Duration;

/// How a measure came by the key order it walked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyOrderOutcome {
    /// A held order covered every row: the measure encoded and walked, no
    /// sort.
    Held,
    /// A held order covered a prefix of the rows — the sample was deepened
    /// since it was sorted: only the rows past it were sorted, and merged
    /// in.
    Merged,
    /// No order was held: every row was sorted.
    Sorted,
}

impl KeyOrderOutcome {
    /// The metric label: `held`, `merged` or `sorted`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KeyOrderOutcome::Held => "held",
            KeyOrderOutcome::Merged => "merged",
            KeyOrderOutcome::Sorted => "sorted",
        }
    }
}

/// The measure of a sample's batches under a set of schemes (see the
/// [module docs](self)).
pub(crate) struct SampleMeasure<'a> {
    schemes: &'a [&'a dyn CompressionScheme],
    route: Route<'a>,
    /// Each folded row's stratum tag; empty for an unstratified sample.
    tags: Vec<u32>,
}

/// What a [`SampleMeasure`] keeps of the folded rows.
enum Route<'a> {
    /// The one scheme's costs and sums, and what prices them; the first
    /// key's statistics, counted in the same pass.
    CellSums(RunSizer<'a>, CellSums, CellStats),
    /// The entries of every folded row, and their key order.
    Walk(OrderedEntries<'a>),
}

/// A cell-additive scheme's sums over the folded rows.
struct CellSums {
    costs: CellCosts,
    /// Per stratum of a stratified sample; the one member of any other.
    strata: Vec<RunCellCosts>,
}

/// What a CF's design variance is priced from
/// ([`theory::design_variance`](crate::theory::design_variance)).
pub(crate) struct DesignSums {
    /// Per stratum, or for the whole of an unstratified sample, the sums of
    /// its units.
    pub(crate) strata: Vec<UnitSums>,
    /// Uncompressed bytes of an entry's stored cells.
    pub(crate) entry_bytes: usize,
    /// One full leaf's chunk headers.
    pub(crate) leaf_header: usize,
}

impl<'a> SampleMeasure<'a> {
    /// A measure of no rows yet of a stream's batches — records of
    /// `schema` — under `scheme` alone, sized as `builder` would load the
    /// index by `spec`: its cells summed if it declares
    /// [`cell_costs`](CompressionScheme::cell_costs), else its entries
    /// sorted as the batches arrive and walked.
    pub(crate) fn stream(
        schema: &'a Schema,
        spec: &IndexSpec,
        scheme: &'a &'a dyn CompressionScheme,
        builder: &IndexBuilder,
    ) -> CoreResult<Self> {
        let route = match scheme.cell_costs() {
            Some(costs) => {
                let sizer = builder.sizer(schema, spec)?;
                let sums = CellSums {
                    costs,
                    strata: vec![sizer.empty_cell_costs()],
                };
                Route::CellSums(sizer, sums, CellStats::new())
            }
            None => Route::Walk(builder.entries(schema, spec, None)?),
        };
        Ok(Self::of(std::slice::from_ref(scheme), route))
    }

    /// A measure of no rows yet of a held sample's batches under every one
    /// of `schemes`, walked whatever they are, so that a later measure can
    /// reuse the order: `held` is an order by `spec`'s key columns that an
    /// earlier measure sorted over a prefix of the rows to be folded.
    pub(crate) fn held(
        schema: &'a Schema,
        spec: &IndexSpec,
        schemes: &'a [&'a dyn CompressionScheme],
        builder: &IndexBuilder,
        held: Option<Arc<KeyOrder>>,
    ) -> CoreResult<Self> {
        let route = Route::Walk(builder.entries(schema, spec, held)?);
        Ok(Self::of(schemes, route))
    }

    fn of(schemes: &'a [&'a dyn CompressionScheme], route: Route<'a>) -> Self {
        SampleMeasure {
            schemes,
            route,
            tags: Vec::new(),
        }
    }

    /// Fold in the next batch drawn: `tags` are its rows' strata, of
    /// `strata` — both empty for an unstratified sample.
    pub(crate) fn fold(
        &mut self,
        batch: &RecordBatch,
        tags: &[u32],
        strata: usize,
    ) -> CoreResult<()> {
        self.tags.extend_from_slice(tags);
        match &mut self.route {
            Route::CellSums(sizer, sums, stats) => {
                let first_key =
                    |cell: CellRef<'_>, datatype: &DataType| Ok(stats.add(cell, datatype)?);
                // Grows once, at a stratified stream's first batch.
                sums.strata
                    .resize_with(strata.max(1), || sizer.empty_cell_costs());
                let group = |i: usize| tags.get(i).map_or(0, |&tag| tag as usize);
                let (costs, strata) = (&sums.costs, &mut sums.strata);
                sizer.add_cell_costs(batch.iter(), costs, strata, group, first_key)?;
            }
            Route::Walk(entries) => entries.extend(batch.iter())?,
        }
        Ok(())
    }

    /// Put the folded rows in key order, if the measure walks: how the
    /// order came about, and the order — to hold beside the rows for a later
    /// measure.  `None` when the measure sums cells.
    pub(crate) fn order(&mut self) -> CoreResult<Option<(KeyOrderOutcome, Arc<KeyOrder>)>> {
        let Route::Walk(entries) = &mut self.route else {
            return Ok(None);
        };
        let held = entries.key_order().len();
        let outcome = match (held, entries.order()?) {
            (0, _) => KeyOrderOutcome::Sorted,
            (_, 0) => KeyOrderOutcome::Held,
            _ => KeyOrderOutcome::Merged,
        };
        Ok(Some((outcome, Arc::clone(entries.key_order()))))
    }

    /// Per scheme, in `schemes`' order, the report of the index over the
    /// folded rows `keep` admits, by row number — on the cell-sums route,
    /// `stratum`'s, or all of them — and the first key statistics: of the
    /// rows walked, or of every folded row on the cell-sums route.
    fn price(
        &self,
        keep: impl Fn(usize) -> bool,
        stratum: Option<usize>,
    ) -> CoreResult<(Vec<CompressedIndexReport>, DataStats)> {
        let (reports, rows, first_key) = match &self.route {
            Route::CellSums(sizer, sums, stats) => {
                let mut pooled = None;
                let priced = match stratum {
                    Some(s) => &sums.strata[s],
                    None => {
                        // Every stratum's sums, merged in stratum order.
                        let pooled = pooled.insert(sizer.empty_cell_costs());
                        sums.strata.iter().for_each(|sum| pooled.merge(sum));
                        pooled
                    }
                };
                let report = sizer.price(self.schemes[0], &sums.costs, priced)?;
                let rows = sums.strata.iter().map(RunCellCosts::entries).sum();
                (vec![report], rows, stats.first_key())
            }
            Route::Walk(entries) => {
                let (reports, first_key) = entries.measure_where(keep, self.schemes)?;
                let rows = reports.first().map_or(0, |report| report.num_entries);
                (reports, rows, first_key)
            }
        };
        let stats = DataStats {
            rows,
            distinct_first_key: first_key.distinct,
            sum_logical_len_first_key: first_key.logical_len_sum,
            null_first_key: first_key.nulls,
        };
        Ok((reports, stats))
    }

    /// Per scheme, the report of the index over stratum `s`'s rows, or
    /// `None` when none was drawn.
    fn stratum(&self, s: usize) -> CoreResult<Option<Vec<CompressedIndexReport>>> {
        let keep = |i: usize| self.tags[i] as usize == s;
        if !(0..self.tags.len()).any(keep) {
            return Ok(None);
        }
        Ok(Some(self.price(keep, Some(s))?.0))
    }

    /// One measurement per scheme, in `schemes`' order, of the rows folded
    /// so far, labelled `sampler`, with no elapsed time: for a sample drawn
    /// under the population `weights` of its strata (none when
    /// unstratified), the weighted per-stratum combination `Σ W_s·CF_s`,
    /// the pooled report and stats kept for their per-column detail.
    pub(crate) fn measurements(
        &self,
        weights: &[f64],
        sampler: &str,
    ) -> CoreResult<Vec<CfMeasurement>> {
        let (reports, data) = self.price(|_| true, None)?;
        let strata = (0..weights.len())
            .map(|s| self.stratum(s))
            .collect::<CoreResult<Vec<_>>>()?;
        let measure = |(j, report): (usize, CompressedIndexReport)| {
            let per_stratum = (strata.iter()).map(|reports| reports.as_ref().map(|r| &r[j]));
            let (cf, cf_with_pointers, cf_pages) = combine_strata(weights, per_stratum)
                .unwrap_or_else(|| (report.cf(), report.cf_with_pointers(), report.cf_pages()));
            CfMeasurement {
                cf,
                cf_with_pointers,
                cf_pages,
                ..CfMeasurement::of(report, sampler.to_string(), data.clone(), Duration::ZERO)
            }
        };
        Ok(reports.into_iter().enumerate().map(measure).collect())
    }

    /// On the cell-sums route, what the design variance of the scheme's CF
    /// is priced from, with `unit` the sampling unit: per
    /// stratum of a stratified sample, else for the whole sample.  `None` on
    /// the walk route.
    pub(crate) fn design_sums(&self, unit: Unit) -> Option<DesignSums> {
        let Route::CellSums(sizer, sums, _) = &self.route else {
            return None;
        };
        let of = |costs: &RunCellCosts| match unit {
            Unit::Row => costs.rows(),
            Unit::Page => costs.pages(),
        };
        Some(DesignSums {
            strata: sums.strata.iter().map(of).collect(),
            entry_bytes: sizer.entry_bytes(),
            leaf_header: sizer.leaf_header(&sums.costs),
        })
    }
}

/// The first key statistics of the cells counted so far: NULLs and `Σ ℓᵢ`
/// are sums; `d′` counts the distinct non-NULL cells by their bytes.  The
/// NULL bit decides, not the bytes: a NULL is stored as zeros, the bytes of
/// `Int32`'s `i32::MIN`.
struct CellStats {
    nulls: usize,
    logical_len_sum: usize,
    /// Every distinct cell once, in order of first sight.
    cells: Vec<u8>,
    /// The cells' numbers, by their bytes.
    distinct: DistinctScratch,
    /// Cells `distinct` holds before it is re-sized.
    capacity: usize,
}

impl CellStats {
    fn new() -> Self {
        let capacity = 64;
        let mut distinct = DistinctScratch::new();
        distinct.reset(capacity);
        CellStats {
            nulls: 0,
            logical_len_sum: 0,
            cells: Vec::new(),
            distinct,
            capacity,
        }
    }

    /// Count one first key cell, of type `datatype`.
    fn add(&mut self, cell: CellRef<'_>, datatype: &DataType) -> StorageResult<()> {
        if cell.is_null() {
            self.nulls += 1;
            return Ok(());
        }
        self.logical_len_sum += cell.logical_len(datatype)?;
        let width = cell.bytes().len();
        let cells = &self.cells;
        let held = |number: u64| CellRef::new(false, &cells[number as usize * width..][..width]);
        if self.distinct.len() == self.capacity {
            // Full: re-size, and put back what it held.
            self.capacity *= 2;
            self.distinct.reset(self.capacity);
            for (number, cell) in cells.chunks_exact(width).enumerate() {
                self.distinct
                    .insert(CellRef::new(false, cell), number as u64, held);
            }
        }
        let number = self.distinct.len() as u64;
        if self.distinct.insert(cell, number, held) {
            self.cells.extend_from_slice(cell.bytes());
        }
        Ok(())
    }

    fn first_key(&self) -> FirstKeyStats {
        FirstKeyStats {
            nulls: self.nulls,
            distinct: self.distinct.len(),
            logical_len_sum: self.logical_len_sum,
        }
    }
}
