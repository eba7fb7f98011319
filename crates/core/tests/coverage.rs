//! Empirical coverage of the progressive estimator's confidence intervals:
//! the matrix every sampler kind × {`none`, null suppression} × five table
//! shapes.
//!
//! The contract behind the stopping rule: a Chebyshev interval at
//! confidence `1 − δ` must contain the exact CF in at least a `1 − δ`
//! fraction of independent runs — at the checkpoint where the run stops,
//! with early stopping on, so that an interval that happens to come out
//! narrow and stops a run too soon shows as a miss.  A run that ends
//! without an interval is a miss too.
//!
//! Each (sampler, scheme, table) cell runs [`TRIALS`] seeded runs and prints
//! its achieved coverage beside the nominal one; the assertion allows a
//! 2-point slack below `1 − δ` against binomial noise.  The tables are
//! uniform, Zipf-skewed, value-clustered, few-distinct (`d` = 5) and
//! all-distinct (`d ≈ n`), on small pages so that a block sample has pages
//! enough for an interval.  The clustered shape is the layout block
//! sampling finds hard: `clustered_variable_table` at `d` = 16 stores each
//! value's rows together, so each value — one length — fills about ten
//! pages, and value length moves in step with page placement.
//!
//! A walked scheme's CF is not a sum of per-row costs, and its error is
//! bias, not sampling variance: its checkpoints must report no interval
//! and its runs must go to their cap.

use samplecf_compression::{
    CompressionScheme, DictionaryCompression, NullSuppression, PrefixCompression,
    RunLengthEncoding, Uncompressed,
};
use samplecf_core::{ExactCf, ProgressiveCf, ProgressiveConfig};
use samplecf_datagen::presets;
use samplecf_index::IndexSpec;
use samplecf_sampling::{Allocation, BatchSchedule, SamplerKind, StrataMode};
use samplecf_storage::Table;

const TRIALS: u64 = 100;
const ROWS: usize = 4_000;
const CAP: f64 = 0.2;
const CONFIDENCE: f64 = 0.95;
/// Slack below nominal coverage tolerated for binomial noise.
const SLACK: f64 = 0.02;

fn spec() -> IndexSpec {
    IndexSpec::nonclustered("idx_a", ["a"]).unwrap()
}

fn config() -> ProgressiveConfig {
    ProgressiveConfig {
        target_error: 0.05,
        confidence: CONFIDENCE,
        schedule: BatchSchedule::default(),
    }
}

fn tables() -> Vec<(&'static str, Table)> {
    let shapes = [
        (
            "uniform",
            presets::variable_length_table("u", ROWS, 32, 200, 4, 28, 11),
        ),
        ("skewed", presets::skewed_table("z", ROWS, 32, 100, 1.1, 12)),
        (
            "clustered",
            presets::clustered_variable_table("c", ROWS, 32, 16, 13),
        ),
        (
            "small-d",
            presets::variable_length_table("s", ROWS, 32, 5, 4, 28, 14),
        ),
        (
            "d≈n",
            presets::variable_length_table("n", ROWS, 32, ROWS, 4, 28, 15),
        ),
    ];
    (shapes.into_iter())
        .map(|(name, shape)| (name, shape.page_size(1024).generate().unwrap().table))
        .collect()
}

/// Every sampler kind at the cap, stratified once per allocation.  Each
/// names the next in a `match` with no wildcard, so a kind added to
/// [`SamplerKind`] does not compile until it has its cells here.
fn samplers() -> Vec<SamplerKind> {
    let stratified = |alloc| SamplerKind::Stratified {
        fraction: CAP,
        strata: 4,
        alloc,
        mode: StrataMode::EquiWidth,
    };
    let next = |kind: &SamplerKind| match kind {
        SamplerKind::UniformWithReplacement(_) => Some(SamplerKind::UniformWithoutReplacement(CAP)),
        SamplerKind::UniformWithoutReplacement(_) => Some(SamplerKind::Bernoulli(CAP)),
        SamplerKind::Bernoulli(_) => Some(SamplerKind::Block(CAP)),
        SamplerKind::Block(_) => Some(SamplerKind::Reservoir((ROWS as f64 * CAP) as usize)),
        SamplerKind::Reservoir(_) => Some(stratified(Allocation::Proportional)),
        SamplerKind::Stratified {
            alloc: Allocation::Proportional,
            ..
        } => Some(stratified(Allocation::Neyman)),
        SamplerKind::Stratified {
            alloc: Allocation::Neyman,
            ..
        } => None,
    };
    std::iter::successors(Some(SamplerKind::UniformWithReplacement(CAP)), next).collect()
}

/// The share of `TRIALS` seeded runs whose interval at the stop holds
/// `exact`; a run with no interval there misses.
fn coverage(table: &Table, kind: SamplerKind, scheme: &dyn CompressionScheme, exact: f64) -> f64 {
    let hits = (0..TRIALS)
        .filter(|&seed| {
            let report = ProgressiveCf::new(kind, config())
                .seed(seed)
                .run(table, &spec(), scheme)
                .unwrap();
            (report.ci()).is_some_and(|(low, high)| low <= exact && exact <= high)
        })
        .count();
    hits as f64 / TRIALS as f64
}

#[test]
fn chebyshev_intervals_cover_the_exact_cf() {
    let tables = tables();
    let schemes: [&dyn CompressionScheme; 2] = [&Uncompressed, &NullSuppression];
    let cells: Vec<(&str, &Table, SamplerKind, &dyn CompressionScheme)> = (tables.iter())
        .flat_map(|(name, table)| samplers().into_iter().map(move |kind| (*name, table, kind)))
        .flat_map(|(name, table, kind)| schemes.map(|scheme| (name, table, kind, scheme)))
        .collect();
    // Two workers, each a half of the cells.
    let failures: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (cells.chunks(cells.len().div_ceil(2)))
            .map(|half| {
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    for &(name, table, kind, scheme) in half {
                        let exact = ExactCf::new().compute(table, &spec(), scheme).unwrap().cf;
                        let achieved = coverage(table, kind, scheme, exact);
                        let cell = format!("{name}/{}/{}", kind.label(), scheme.name());
                        println!("coverage {cell}: {achieved:.2} (nominal {CONFIDENCE})");
                        if achieved < CONFIDENCE - SLACK {
                            failures.push(format!("{cell}: {achieved:.2}"));
                        }
                    }
                    failures
                })
            })
            .collect();
        (workers.into_iter())
            .flat_map(|worker| worker.join().unwrap())
            .collect()
    });
    assert!(
        failures.is_empty(),
        "coverage below {CONFIDENCE} − {SLACK} at the stop: {failures:?}"
    );
}

#[test]
fn walked_schemes_report_no_interval_and_run_to_the_cap() {
    let dictionary = DictionaryCompression::default();
    let schemes: [&dyn CompressionScheme; 3] =
        [&dictionary, &RunLengthEncoding, &PrefixCompression];
    for (name, table) in &tables() {
        for (kind, scheme) in samplers().into_iter().zip(schemes.iter().cycle()) {
            let report = ProgressiveCf::new(kind, config())
                .seed(1)
                .run(table, &spec(), *scheme)
                .unwrap();
            let cell = format!("{name}/{}/{}", kind.label(), scheme.name());
            assert!(!report.stopped_early, "{cell} stopped early");
            assert!(report.checkpoints.len() > 1, "{cell}");
            for checkpoint in &report.checkpoints {
                assert_eq!(checkpoint.variance_source, None, "{cell}");
                assert_eq!(checkpoint.half_width, None, "{cell}");
            }
        }
    }
}
