//! **Figure A** (implied by Section III-A) — Null Suppression accuracy as a
//! function of the sampling fraction, including the non-uniform samplers the
//! paper does not analyse.
//!
//! Systematic sampling is drawn here, not by the library: one random start
//! is one cluster, and one systematic sample gives no unbiased variance, so
//! no shipped sampler kind draws it.

use crate::report::{fmt, Report, Table};
use crate::workloads::paper_table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samplecf_compression::{CompressionScheme, NullSuppression};
use samplecf_core::{
    measure_rows, theory, CoreResult, ExactCf, TrialConfig, TrialRunner, TrialSummary,
};
use samplecf_index::{IndexBuilder, IndexSpec};
use samplecf_sampling::{SampledRow, SamplerKind};
use samplecf_storage::{Frame, TableSource};

/// The systematic sample at fraction `f` for `seed`: the start is
/// `gen_range(0..min(step, n))` on `StdRng::seed_from_u64(seed)`, then every
/// `step = round(1/f)`-th row of the scan, each read by its position.
fn systematic_rows(source: &dyn TableSource, f: f64, seed: u64) -> CoreResult<Vec<SampledRow>> {
    let n = source.num_rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let step = (1.0 / f).round().max(1.0) as usize;
    let start = StdRng::seed_from_u64(seed).gen_range(0..step.min(n));
    let frame = Frame::of(source);
    (start..n)
        .step_by(step)
        .map(|position| {
            let rid = frame.rid(position);
            let page = source.read_page_ref(rid.page)?;
            Ok((rid, source.codec().decode(page.get(rid.slot)?)?))
        })
        .collect()
}

/// `trials` systematic samples at fraction `f`, trial `i` at seed
/// `base_seed + i`, each priced by [`measure_rows`] against the exact CF.
fn systematic_trials(
    source: &dyn TableSource,
    spec: &IndexSpec,
    scheme: &dyn CompressionScheme,
    f: f64,
    trials: usize,
    base_seed: u64,
) -> CoreResult<TrialSummary> {
    let label = format!("systematic(f={f})");
    let builder = IndexBuilder::new();
    let estimate = |trial| -> CoreResult<f64> {
        let rows = systematic_rows(source, f, base_seed.wrapping_add(trial))?;
        let measured = measure_rows(
            source.schema(),
            &rows,
            spec,
            scheme,
            &builder,
            label.clone(),
        );
        Ok(measured?.cf)
    };
    let estimates = (0..trials as u64)
        .map(estimate)
        .collect::<CoreResult<_>>()?;
    let truth = ExactCf::new().compute(source, spec, scheme)?;
    TrialSummary::of(truth, estimates, label, scheme)
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let rows = if quick { 10_000 } else { 50_000 };
    let trials = if quick { 30 } else { 100 };
    let width: u16 = 40;
    let generated = paper_table(rows, width, rows / 5, 81);
    let spec = IndexSpec::nonclustered("idx_a", ["a"]).expect("valid spec");
    let base_seed = 4242;
    let runner = TrialRunner::new(TrialConfig::new(trials).base_seed(base_seed));

    let mut report = Report::new("exp_ns_fraction_sweep");
    let fractions = [0.0005, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2];

    let mut t = Table::new(
        format!("Null suppression: accuracy vs sampling fraction (n = {rows}, {trials} trials)"),
        &[
            "f",
            "sample rows",
            "relative bias",
            "empirical std",
            "Theorem-1 bound",
            "mean ratio error",
            "p95 ratio error",
        ],
    );
    for &f in &fractions {
        let summary = runner
            .run(
                &generated.table,
                &spec,
                &NullSuppression,
                SamplerKind::UniformWithReplacement(f),
            )
            .expect("trials succeed");
        t.row(&[
            format!("{f}"),
            format!("{}", (rows as f64 * f).round() as usize),
            fmt(summary.relative_bias()),
            format!("{:.2e}", summary.empirical_std_dev()),
            format!("{:.2e}", theory::ns_stddev_bound(rows, f)),
            fmt(summary.mean_ratio_error()),
            fmt(summary.ratio_error_stats.p95),
        ]);
    }
    t.note(
        "Expected shape: bias stays ≈ 0 at every fraction; the standard deviation and the \
         ratio error fall as 1/sqrt(f·n) and stay under the Theorem-1 bound.",
    );
    report.add(t);

    // Sampler comparison at a fixed fraction.
    let f = 0.01;
    let run = |sampler| {
        let summary = runner.run(&generated.table, &spec, &NullSuppression, sampler);
        summary.expect("trials succeed")
    };
    let systematic = systematic_trials(
        &generated.table,
        &spec,
        &NullSuppression,
        f,
        trials,
        base_seed,
    );
    let summaries = [
        run(SamplerKind::UniformWithReplacement(f)),
        run(SamplerKind::UniformWithoutReplacement(f)),
        run(SamplerKind::Bernoulli(f)),
        systematic.expect("trials succeed"),
        run(SamplerKind::Block(f)),
    ];
    let mut t2 = Table::new(
        format!("Null suppression: sampler comparison at f = {f}"),
        &[
            "sampler",
            "relative bias",
            "empirical std",
            "mean ratio error",
            "max ratio error",
        ],
    );
    for summary in summaries {
        t2.row(&[
            summary.sampler.clone(),
            fmt(summary.relative_bias()),
            format!("{:.2e}", summary.empirical_std_dev()),
            fmt(summary.mean_ratio_error()),
            fmt(summary.max_ratio_error()),
        ]);
    }
    t2.note(
        "Expected shape: every row-level sampler matches the with-replacement analysis; block \
         sampling is also accurate here because value lengths are independent of page placement \
         in the shuffled layout.",
    );
    report.add(t2);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_storage::{Row, Schema, Table as HeapTable, TableBuilder, Value};

    fn table(n: usize) -> HeapTable {
        TableBuilder::new("t", Schema::single_char("a", 16))
            .build_with_rows((0..n).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
            .unwrap()
    }

    #[test]
    fn systematic_rows_match_a_decode_then_filter_scan_seed_for_seed() {
        // The reference decodes every row of every page and filters after;
        // the draw reads only the rows at its positions.
        let t = table(3_000);
        let all_rows = t.scan_rows().unwrap();
        for seed in [0u64, 1, 42] {
            for f in [0.01f64, 0.3, 1.0] {
                let step = (1.0 / f).round().max(1.0) as usize;
                let start = StdRng::seed_from_u64(seed).gen_range(0..step.min(all_rows.len()));
                let reference: Vec<SampledRow> =
                    all_rows.iter().skip(start).step_by(step).cloned().collect();
                let sample = systematic_rows(&t, f, seed).unwrap();
                assert_eq!(sample, reference, "f={f} seed={seed}");
            }
        }
        assert!(systematic_rows(&table(0), 0.1, 1).unwrap().is_empty());
    }

    #[test]
    fn systematic_rows_cover_the_table_evenly() {
        let sample = systematic_rows(&table(1_000), 0.01, 4).unwrap();
        assert!((sample.len() as i64 - 10).abs() <= 1);
        // Consecutive picks are exactly 100 apart.
        let ids: Vec<i64> = (sample.iter())
            .map(|(_, r)| r.value(0).as_str().unwrap()[1..].parse::<i64>().unwrap())
            .collect();
        for w in ids.windows(2) {
            assert_eq!(w[1] - w[0], 100);
        }
    }
}
