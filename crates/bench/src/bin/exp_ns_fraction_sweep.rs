//! Regenerates the `ns_fraction_sweep` experiment (see `crates/bench/README.md`).
//! Pass `--quick` (or set `SAMPLECF_QUICK=1`) for a fast, reduced-size run.

fn main() {
    let quick = samplecf_bench::experiments::quick_mode();
    let report = samplecf_bench::experiments::ns_fraction_sweep::run(quick);
    let path = report.finish().expect("writing the report succeeds");
    eprintln!("wrote {}", path.display());
}
