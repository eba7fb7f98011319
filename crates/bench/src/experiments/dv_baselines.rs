//! **Figure F** (baseline study) — SampleCF versus "estimate the distinct
//! count, then plug it into the analytic CF formula".
//!
//! The paper's key observation for dictionary compression is that SampleCF
//! sidesteps explicit distinct-value estimation.  This experiment sets the
//! two side by side: classical distinct-value estimators (naive scale-up,
//! GEE, Chao84, Shlosser; [`crate::distinct`]) read the very sample SampleCF
//! measured and feed the analytic `CF_DC = (n·p + d̂·k)/(n·k)` formula, and
//! their ratio errors are set beside SampleCF's.

use crate::distinct::{DistinctEstimator, FrequencyProfile};
use crate::report::{fmt, Report, Table};
use crate::workloads::paper_table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_compression::GlobalDictionaryCompression;
use samplecf_core::theory::dc_true_cf;
use samplecf_core::{ratio_error, ExactCf, SampleCf, SummaryStats};
use samplecf_index::IndexSpec;
use samplecf_sampling::{BatchSchedule, SamplerKind};

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let rows = if quick { 10_000 } else { 50_000 };
    let trials = if quick { 10 } else { 30 };
    let width: u16 = 40;
    let f = 0.01;
    let pointer_bytes = 1u64;
    let spec = IndexSpec::nonclustered("idx_a", ["a"]).expect("valid spec");

    let ratios = [0.001, 0.01, 0.1, 0.25, 0.5];
    let mut report = Report::new("exp_dv_baselines");
    let mut header = vec!["d/n", "d", "SampleCF"];
    header.extend(DistinctEstimator::ALL.map(DistinctEstimator::name));
    let mut t = Table::new(
        format!(
            "Mean ratio error: SampleCF against the codec's exact CF, distinct-value estimator \
             plug-ins against the analytic CF_DC (n = {rows}, k = {width}, f = {f}, {trials} trials)"
        ),
        &header,
    );

    for &ratio in &ratios {
        let d = ((rows as f64 * ratio).round() as usize).max(2);
        let generated = paper_table(rows, width, d, 2_000 + d as u64);
        let table = &generated.table;
        let model_cf =
            |distinct: u64| dc_true_cf(rows as u64, distinct, u64::from(width), pointer_bytes);
        // The two column kinds have different truths.  SampleCF is scored
        // against the real codec's exact CF over the whole index; a plug-in
        // against the analytic model's CF_DC at the true d, the quantity its
        // formula estimates.
        let exact = ExactCf::new()
            .compute(table, &spec, &GlobalDictionaryCompression::default())
            .expect("exact succeeds");
        let true_cf = model_cf(d as u64);
        let mut samplecf_errors = Vec::new();
        let mut baseline_errors: Vec<Vec<f64>> = vec![Vec::new(); DistinctEstimator::ALL.len()];
        for trial in 0..trials {
            let seed = trial as u64;
            let sampler = SamplerKind::UniformWithReplacement(f);
            let est = SampleCf::new(sampler)
                .seed(seed)
                .estimate(table, &spec, &GlobalDictionaryCompression::default())
                .expect("estimate succeeds");
            samplecf_errors.push(ratio_error(est.cf, exact.cf));

            // The plug-ins read the sample SampleCF measured: the same
            // sampler drained under the trial's seed.
            let sample = sampler
                .stream(BatchSchedule::one_shot())
                .and_then(|mut stream| stream.drain(table, &mut StdRng::seed_from_u64(seed)))
                .expect("sampling succeeds");
            let profile = FrequencyProfile::of(
                sample
                    .into_iter()
                    .map(|(_, row)| row.value(0).clone())
                    .collect(),
            );
            assert_eq!(
                (profile.sample_size(), profile.distinct_in_sample()),
                (est.data.rows, est.data.distinct_first_key),
                "the plug-ins must read the sample SampleCF measured"
            );
            for (errors, estimator) in baseline_errors.iter_mut().zip(DistinctEstimator::ALL) {
                let d_hat = estimator.estimate(&profile, rows);
                errors.push(ratio_error(model_cf(d_hat.round() as u64), true_cf));
            }
        }
        let mean = |v: &[f64]| SummaryStats::from_values(v).map_or(f64::NAN, |s| s.mean);
        let mut cells = vec![
            format!("{ratio}"),
            d.to_string(),
            fmt(mean(&samplecf_errors)),
        ];
        cells.extend(baseline_errors.iter().map(|errors| fmt(mean(errors))));
        t.row(&cells);
    }
    t.note(
        "The two column kinds are scored against different truths.  SampleCF is the real \
         global-dictionary codec's CF of the sample, scored against that codec's exact CF over \
         the whole index; each plug-in is the analytic CF_DC at its estimate d̂, scored against \
         CF_DC at the true d.  Every plug-in reads the sample SampleCF measured.  Naive scale-up \
         is worst at small d/n (it multiplies the sample's distinct count by 1/f) and \
         sample-distinct is worst at large d/n.  In every row Chao84 or GEE has a smaller mean \
         ratio error than SampleCF.  Because the truths differ, the table does not say which \
         estimate of the codec's CF is better; the comparison against one truth is ROADMAP \
         item 15.",
    );
    report.add(t);
    report
}
