//! **Zero-copy kernel experiment** — the tentpole claim of the batched
//! measure path: sizing a sample index's compression *without producing a
//! byte of it* ([`measure_index`]) must process at least **5×** the
//! rows/sec of materialising every compressed column ([`compress_index`]),
//! summed across all registered schemes.  The full pipelines around the
//! kernels are timed too: borrowed records
//! ([`MaterializedSample::records`] → [`IndexBuilder::build_from_records`]
//! → measure) against the byte-producing route the estimator used before
//! (re-materialise owned `(Rid, Row)` pairs → bulk-load from rows →
//! compress).
//!
//! Both routes run over the *same* drawn sample and the reports they
//! produce are asserted equal before any clock starts — the speedups are
//! measured on provably identical answers.  A machine-readable baseline
//! goes to `BENCH_kernels.json` (override with `SAMPLECF_BENCH_KERNELS`)
//! so CI can compare future runs against the committed trajectory.

use crate::report::{fmt, Report, Table};
use samplecf_compression::{scheme_by_name, scheme_names};
use samplecf_datagen::presets;
use samplecf_index::{compress_index, measure_index, IndexBuilder, IndexSpec};
use samplecf_obs::{Histogram as ObsHistogram, MetricsRegistry, Timer};
use samplecf_sampling::{MaterializedSample, SamplerKind};
use samplecf_server::Json;
use std::hint::black_box;
use std::time::Instant;

const FRACTION: f64 = 0.25;
const SEED: u64 = 41;

/// One scheme's timing outcome.
struct Outcome {
    scheme: &'static str,
    /// Seconds materialising the compressed columns ([`compress_index`]).
    compress_secs: f64,
    /// Seconds sizing them without materialisation ([`measure_index`]).
    measure_secs: f64,
    /// Seconds for the full byte pipeline (decode rows → build → compress).
    bytes_pipeline_secs: f64,
    /// Seconds for the full zero-copy pipeline (borrow → build → measure).
    kernel_pipeline_secs: f64,
}

/// Run the experiment.
#[allow(clippy::cast_precision_loss)]
pub fn run(quick: bool) -> Report {
    let rows = if quick { 20_000 } else { 80_000 };
    let iters = if quick { 8 } else { 24 };
    let spec = IndexSpec::nonclustered("idx_a", ["a"]).expect("valid spec");

    // Variable-length values with a mid-sized dictionary: every scheme has
    // real work to do (padding to strip, runs to collapse, codes to size).
    let table = presets::variable_length_table("kern", rows, 40, rows / 50, 4, 36, 9)
        .generate()
        .expect("generation succeeds")
        .table;
    let sample =
        MaterializedSample::draw(&table, SamplerKind::UniformWithReplacement(FRACTION), SEED)
            .expect("sampling succeeds");
    let sampled_rows = sample.table().num_rows();
    let schema = sample.table().schema();
    let builder = IndexBuilder::new();

    // One index per build path, shared by every scheme below.  The measure
    // kernels are timed on the record-built index — the one the zero-copy
    // estimator actually hands them.
    let oracle_rows = sample.rows().expect("decoding the sample succeeds");
    let oracle_index = builder
        .build_from_rows(schema, &oracle_rows, &spec)
        .expect("row build succeeds");
    let records = sample.records().expect("borrowing the sample succeeds");
    let index = builder
        .build_from_records(schema, &records, &spec)
        .expect("record build succeeds");
    drop(oracle_rows);

    let mut outcomes = Vec::new();
    for name in scheme_names() {
        let scheme = scheme_by_name(name).expect("registered scheme");

        // Correctness gate: the kernels must agree with the byte path on
        // this exact sample — across both build paths — before their speed
        // means anything.
        let oracle = compress_index(&oracle_index, scheme.as_ref()).expect("compression succeeds");
        let measured = measure_index(&index, scheme.as_ref()).expect("measure succeeds");
        assert_eq!(measured, oracle, "kernels must be bit-identical ({name})");

        // Headline: the measurement kernels on the same built index.
        let start = Instant::now();
        for _ in 0..iters {
            let report = compress_index(&index, scheme.as_ref()).expect("compression succeeds");
            black_box(report.compressed_data_bytes());
        }
        let compress_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..iters {
            let report = measure_index(&index, scheme.as_ref()).expect("measure succeeds");
            black_box(report.compressed_data_bytes());
        }
        let measure_secs = start.elapsed().as_secs_f64();

        // Secondary: the full pipelines, from held sample to CF-ready
        // report.  The byte route decodes owned rows, builds from them and
        // runs the real codecs (the differential oracle's route); the
        // kernel route is what `measure_sample` does.
        let start = Instant::now();
        for _ in 0..iters {
            let rows = sample.rows().expect("decoding the sample succeeds");
            let built = builder
                .build_from_rows(schema, &rows, &spec)
                .expect("row build succeeds");
            let report = compress_index(&built, scheme.as_ref()).expect("compression succeeds");
            black_box(report.compressed_data_bytes());
        }
        let bytes_pipeline_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..iters {
            let records = sample.records().expect("borrowing the sample succeeds");
            let built = builder
                .build_from_records(schema, &records, &spec)
                .expect("record build succeeds");
            let report = measure_index(&built, scheme.as_ref()).expect("measure succeeds");
            black_box(report.compressed_data_bytes());
        }
        let kernel_pipeline_secs = start.elapsed().as_secs_f64();

        outcomes.push(Outcome {
            scheme: name,
            compress_secs,
            measure_secs,
            bytes_pipeline_secs,
            kernel_pipeline_secs,
        });
    }

    // Overall ratios with every scheme weighted by its own cost: total
    // wall-clock per route, across all schemes.
    let kernel_speedup = outcomes.iter().map(|o| o.compress_secs).sum::<f64>()
        / outcomes.iter().map(|o| o.measure_secs).sum::<f64>();
    let end_to_end_speedup = outcomes.iter().map(|o| o.bytes_pipeline_secs).sum::<f64>()
        / outcomes.iter().map(|o| o.kernel_pipeline_secs).sum::<f64>();

    // The acceptance claims, enforced so CI fails loudly on regression.
    let kernel_floor = if quick { 2.0 } else { 5.0 };
    assert!(
        kernel_speedup >= kernel_floor,
        "measure kernels must be at least {kernel_floor}x compress, got {kernel_speedup:.2}x"
    );
    let pipeline_floor = if quick { 1.2 } else { 1.5 };
    assert!(
        end_to_end_speedup >= pipeline_floor,
        "the zero-copy pipeline must be at least {pipeline_floor}x the byte pipeline, \
         got {end_to_end_speedup:.2}x"
    );
    // The dictionary schemes were the slowest kernels (2.8–4.3x) before the
    // open-addressing scratch table replaced their per-chunk hash maps;
    // they must now keep up with the rest of the field.
    let dictionary_floor = if quick { 4.0 } else { 6.0 };
    for o in outcomes
        .iter()
        .filter(|o| o.scheme.starts_with("dictionary"))
    {
        let speedup = o.compress_secs / o.measure_secs;
        assert!(
            speedup >= dictionary_floor,
            "{} kernel must be at least {dictionary_floor}x compress, got {speedup:.2}x",
            o.scheme
        );
    }

    // ---- Build-dominated section: the bulk load serial vs parallel ----
    //
    // With measurement arithmetic, the encode + sort + leaf-pack bulk load
    // dominates the end-to-end pipeline; this times it on one thread vs a
    // strided pool, after asserting the two builds are byte-identical.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let parallel_threads = crate::experiments::thread_override().unwrap_or(4);
    let serial_builder = IndexBuilder::new().threads(1);
    let parallel_builder = IndexBuilder::new().threads(parallel_threads);
    let parallel_index = parallel_builder
        .build_from_records(schema, &records, &spec)
        .expect("parallel record build succeeds");
    assert_eq!(index.num_leaf_pages(), parallel_index.num_leaf_pages());
    for (a, b) in index.leaf_pages().iter().zip(parallel_index.leaf_pages()) {
        assert_eq!(
            a.raw(),
            b.raw(),
            "parallel build diverged from serial on leaf {}",
            a.id()
        );
    }
    drop(parallel_index);

    // Min-of-iters build time per route; the minimum is the stable statistic
    // on a shared machine.
    let build_time = |b: &IndexBuilder| {
        (0..iters)
            .map(|_| {
                let start = Instant::now();
                let built = b
                    .build_from_records(schema, &records, &spec)
                    .expect("record build succeeds");
                black_box(built.num_leaf_pages());
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let default_build_secs = build_time(&builder);
    let serial_build_secs = build_time(&serial_builder);
    let parallel_build_secs = build_time(&parallel_builder);
    let build_speedup = serial_build_secs / parallel_build_secs;

    // Single-thread no-regression: `threads(1)` must be the serial path, not
    // a one-worker pool — within noise of the default builder.  Quick-mode
    // builds are ~2 ms, so the noise band is wider there; the full run is
    // the meaningful gate.
    let parity_band = if quick { 1.35 } else { 1.10 };
    assert!(
        serial_build_secs <= default_build_secs * parity_band
            && default_build_secs <= serial_build_secs * parity_band,
        "threads(1) must match the serial bulk load within {:.0}%: \
         {serial_build_secs:.6}s vs {default_build_secs:.6}s",
        (parity_band - 1.0) * 100.0
    );
    // Scaling is asserted only where there are cores to scale onto.
    if cores > 1 && parallel_threads != 1 {
        let scaling_floor = if cores >= 4 && (parallel_threads >= 4 || parallel_threads == 0) {
            2.5
        } else {
            1.15
        };
        assert!(
            build_speedup >= scaling_floor,
            "parallel bulk load at {parallel_threads} threads must be at least \
             {scaling_floor}x serial on {cores} cores, got {build_speedup:.2}x"
        );
    }

    // ---- Observability overhead guard ----
    //
    // The server wraps this exact measure path in histogram timers
    // (`samplecf_progressive_measure_ns` et al.).  The instruments must be
    // effectively free: one timed sweep of every scheme's measure kernel
    // recording into a live registry histogram, against the same sweep
    // through a registry-disabled (no-op) handle.  Both pay the
    // `Timer::start` clock read; the enabled run adds the bucket index and
    // three relaxed atomic adds per record.  Min-of-repeats is the stable
    // statistic; the 3% ceiling is asserted in full mode (quick-mode
    // sweeps are too short to separate from scheduler noise).
    let registry = MetricsRegistry::new();
    let enabled_hist = registry.histogram("bench_measure_ns");
    let disabled_hist = ObsHistogram::disabled();
    let sweep = |hist: &ObsHistogram| {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    for name in scheme_names() {
                        let scheme = scheme_by_name(name).expect("registered scheme");
                        let _timer = Timer::start(hist);
                        let report =
                            measure_index(&index, scheme.as_ref()).expect("measure succeeds");
                        black_box(report.compressed_data_bytes());
                    }
                }
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let disabled_secs = sweep(&disabled_hist);
    let enabled_secs = sweep(&enabled_hist);
    let obs_overhead_ratio = enabled_secs / disabled_secs;
    if !quick {
        assert!(
            obs_overhead_ratio <= 1.03,
            "instrumented measure path must stay within 3% of the registry-disabled run, \
             got {obs_overhead_ratio:.4}x ({enabled_secs:.6}s vs {disabled_secs:.6}s)"
        );
    }

    let processed = (sampled_rows * iters) as f64;
    let mut report = Report::new("exp_kernels");
    let mut t = Table::new(
        format!(
            "Measure-without-encode throughput on a {sampled_rows}-row sample index \
             (f = {FRACTION} of n = {rows}, {iters} iterations/scheme): size-only kernels \
             vs materialised compression, plus the full pipelines around them"
        ),
        &[
            "scheme",
            "compress rows/s",
            "measure rows/s",
            "kernel speedup",
            "pipeline speedup",
        ],
    );
    for o in &outcomes {
        t.row(&[
            o.scheme.to_string(),
            fmt(processed / o.compress_secs),
            fmt(processed / o.measure_secs),
            format!("{:.2}x", o.compress_secs / o.measure_secs),
            format!("{:.2}x", o.bytes_pipeline_secs / o.kernel_pipeline_secs),
        ]);
    }
    t.note(format!(
        "Measured shape: materialised compression pays for every encoded byte it will \
         immediately throw away — the estimator only reads the sizes.  The measure kernels \
         compute those sizes arithmetically (run heads, code widths, stripped padding) and \
         processed {kernel_speedup:.1}x the rows/sec across all schemes (floor: \
         {kernel_floor}x).  The dictionary schemes count distinct cells through a reused \
         open-addressing scratch table instead of a per-chunk hash map (floor: \
         {dictionary_floor}x, from 2.8–4.3x before).  End to end the zero-copy pipeline — \
         borrow records where the sample cache already holds them, bulk-load from the \
         borrowed slices, measure — ran {end_to_end_speedup:.1}x the byte-producing route; \
         the remaining gap is the index build itself, which the section below parallelises."
    ));
    report.add(t);

    let mut b = Table::new(
        format!(
            "Build-dominated section: bulk load (encode + radix partition + per-partition \
             sort + leaf pack) of the {sampled_rows}-row sample, serial vs {parallel_threads} \
             threads on {cores} available core(s); min of {iters} builds per route"
        ),
        &["route", "rows/s", "speedup vs serial"],
    );
    b.row(&[
        "serial (threads = 1)".to_string(),
        fmt(sampled_rows as f64 / serial_build_secs),
        "1.00x".to_string(),
    ]);
    b.row(&[
        format!("parallel (threads = {parallel_threads})"),
        fmt(sampled_rows as f64 / parallel_build_secs),
        format!("{build_speedup:.2}x"),
    ]);
    b.row(&[
        "dictionary distinct-count kernels (paged / global)".to_string(),
        "—".to_string(),
        outcomes
            .iter()
            .filter(|o| o.scheme.starts_with("dictionary"))
            .map(|o| format!("{:.2}x", o.compress_secs / o.measure_secs))
            .collect::<Vec<_>>()
            .join(" / "),
    ]);
    b.row(&[
        "observability overhead (measure sweep, enabled / disabled registry)".to_string(),
        "—".to_string(),
        format!("{obs_overhead_ratio:.4}x"),
    ]);
    b.note(
        "The parallel build radix-partitions entries by leading key byte (partitions are \
         disjoint key ranges, so per-partition sorts concatenate with no merge), then packs \
         leaves from a precomputed page split — byte-identical to the serial sort, asserted \
         before any clock starts.  Scaling is asserted only when more than one core is \
         available; on a single core the contract is no regression (threads(1) within 10% \
         of the serial path).  The observability row times the same measure sweep recording \
         into a live metrics-registry histogram against a registry-disabled no-op handle; \
         the full run asserts the instrumented path stays within 3%.",
    );
    report.add(b);

    write_bench_json(
        quick,
        rows,
        sampled_rows,
        iters,
        &outcomes,
        kernel_speedup,
        end_to_end_speedup,
        obs_overhead_ratio,
        &BulkloadOutcome {
            cores,
            parallel_threads,
            serial_build_secs,
            parallel_build_secs,
        },
    );
    write_determinism_digest(&sample, &spec);
    report
}

/// The build-dominated section's timing outcome.
struct BulkloadOutcome {
    cores: usize,
    parallel_threads: usize,
    serial_build_secs: f64,
    parallel_build_secs: f64,
}

/// FNV-1a over a byte stream — a stable, dependency-free digest.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Write the thread-count determinism evidence (`SAMPLECF_KERNELS_DIGEST`):
/// a digest of every leaf page byte of an index built at the `--threads`
/// override, plus each scheme's full measured report.  CI runs the quick
/// experiment at `--threads 1` and `--threads 2` and diffs the two files
/// byte-for-byte — any divergence in the parallel pipeline shows up here
/// even if it never changes a headline number.
fn write_determinism_digest(sample: &MaterializedSample, spec: &IndexSpec) {
    let Ok(path) = std::env::var("SAMPLECF_KERNELS_DIGEST") else {
        return;
    };
    let threads = crate::experiments::thread_override().unwrap_or(1);
    let builder = IndexBuilder::new().threads(threads);
    let records = sample.records().expect("borrowing the sample succeeds");
    let index = builder
        .build_from_records(sample.table().schema(), &records, spec)
        .expect("record build succeeds");
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for page in index.leaf_pages() {
        digest = fnv1a(digest, page.raw());
    }
    let mut out = String::new();
    out.push_str(&format!(
        "entries={} leaves={} height={} leaf_fnv1a={digest:016x}\n",
        index.num_entries(),
        index.num_leaf_pages(),
        index.height(),
    ));
    for name in scheme_names() {
        let scheme = scheme_by_name(name).expect("registered scheme");
        let report = measure_index(&index, scheme.as_ref()).expect("measure succeeds");
        out.push_str(&format!("{name}: {report:?}\n"));
    }
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("determinism digest written to {path}");
    }
}

/// Persist the machine-readable baseline (`BENCH_kernels.json` at the
/// workspace root, `SAMPLECF_BENCH_KERNELS` to override).
#[allow(clippy::cast_precision_loss, clippy::too_many_arguments)]
fn write_bench_json(
    quick: bool,
    rows: usize,
    sampled_rows: usize,
    iters: usize,
    outcomes: &[Outcome],
    kernel_speedup: f64,
    end_to_end_speedup: f64,
    obs_overhead_ratio: f64,
    bulkload: &BulkloadOutcome,
) {
    let path = std::env::var("SAMPLECF_BENCH_KERNELS")
        .unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    let round = |v: f64| (v * 100_000.0).round() / 100_000.0;
    let processed = (sampled_rows * iters) as f64;
    let mut results = Json::obj();
    for o in outcomes {
        results = results.field(
            o.scheme,
            Json::obj()
                .field(
                    "rows_per_sec_compress",
                    Json::Num((processed / o.compress_secs).round()),
                )
                .field(
                    "rows_per_sec_measure",
                    Json::Num((processed / o.measure_secs).round()),
                )
                .field(
                    "kernel_speedup",
                    Json::Num(round(o.compress_secs / o.measure_secs)),
                )
                .field(
                    "pipeline_speedup",
                    Json::Num(round(o.bytes_pipeline_secs / o.kernel_pipeline_secs)),
                ),
        );
    }
    let doc = Json::obj()
        .field("bench", Json::Str("kernels".to_string()))
        .field(
            "mode",
            Json::Str(if quick { "quick" } else { "full" }.to_string()),
        )
        .field(
            "config",
            Json::obj()
                .field("rows", Json::uint(rows as u64))
                .field("sampled_rows", Json::uint(sampled_rows as u64))
                .field("fraction", Json::Num(FRACTION))
                .field("iters", Json::uint(iters as u64)),
        )
        .field(
            "results",
            results
                .field("overall_speedup", Json::Num(round(kernel_speedup)))
                .field("end_to_end_speedup", Json::Num(round(end_to_end_speedup)))
                .field("obs_overhead_ratio", Json::Num(round(obs_overhead_ratio)))
                .field(
                    "bulkload",
                    Json::obj()
                        .field("cores", Json::uint(bulkload.cores as u64))
                        .field(
                            "parallel_threads",
                            Json::uint(bulkload.parallel_threads as u64),
                        )
                        .field(
                            "rows_per_sec_serial",
                            Json::Num((sampled_rows as f64 / bulkload.serial_build_secs).round()),
                        )
                        .field(
                            "rows_per_sec_parallel",
                            Json::Num((sampled_rows as f64 / bulkload.parallel_build_secs).round()),
                        )
                        .field(
                            "build_speedup",
                            Json::Num(round(
                                bulkload.serial_build_secs / bulkload.parallel_build_secs,
                            )),
                        ),
                ),
        );
    if let Err(e) = std::fs::write(&path, format!("{}\n", doc.pretty())) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("baseline written to {path}");
    }
}
