//! Runs every reproduction experiment in sequence and writes all reports
//! under `results/`.  Pass `--quick` (or set `SAMPLECF_QUICK=1`) to run the
//! reduced-size variants.

use samplecf_bench::experiments;

fn main() {
    let quick = experiments::quick_mode();
    type ExperimentRun = fn(bool) -> samplecf_bench::Report;
    let runs: Vec<(&str, ExperimentRun)> = vec![
        ("table2", experiments::table2::run),
        ("theorem1", experiments::theorem1::run),
        ("ns_fraction_sweep", experiments::ns_fraction_sweep::run),
        ("dc_distinct_sweep", experiments::dc_distinct_sweep::run),
        ("dc_regimes", experiments::dc_regimes::run),
        ("paged_vs_global", experiments::paged_vs_global::run),
        ("block_sampling", experiments::block_sampling::run),
        ("dv_baselines", experiments::dv_baselines::run),
    ];
    for (name, run) in runs {
        eprintln!("=== running experiment `{name}` (quick = {quick}) ===");
        let started = std::time::Instant::now();
        let report = run(quick);
        let path = report.finish().expect("writing the report succeeds");
        eprintln!(
            "=== `{name}` finished in {:.1}s -> {} ===\n",
            started.elapsed().as_secs_f64(),
            path.display()
        );
    }
}
