//! Regenerates the `dv_baselines` experiment (see `crates/bench/README.md`).
//! Pass `--quick` (or set `SAMPLECF_QUICK=1`) for a fast, reduced-size run.

fn main() {
    let quick = samplecf_bench::experiments::quick_mode();
    let report = samplecf_bench::experiments::dv_baselines::run(quick);
    let path = report.finish().expect("writing the report succeeds");
    eprintln!("wrote {}", path.display());
}
