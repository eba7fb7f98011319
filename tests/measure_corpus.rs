//! The measure corpus: what every estimator reports, pinned as text in
//! `tests/golden/measures.txt`.
//!
//! Every run measures one `datagen` preset table (no table is stored): a
//! one-shot `SampleCf::estimate` for each sampler × scheme, capped and
//! target-stopped `ProgressiveCf::run`s with every checkpoint field,
//! `ExactCf` for each scheme, the served `estimate` as a miss, a hit and a
//! deepening (a redraw for a scan sampler), one budgeted `advise`, a served
//! `estimate_progressive` on each pricing route, and the bytes a cache
//! entry is priced at when drawn, once measured, and once deepened and
//! measured again.  A last section repeats the one-shot and exact runs, and
//! a served miss and hit, on an index keyed on a column with NULLs.  Floats
//! print with `{:?}`, which round-trips; wall-clock times are left out.
//!
//! On a mismatch the test names the first differing line and the section
//! it belongs to, writes the actual text to `measures.txt` under the cargo
//! target tmpdir, and fails; `SAMPLECF_BLESS=1` accepts a deliberate change
//! (see `golden/mod.rs`).

mod golden;

use samplecf::compression::{scheme_by_name, scheme_names, CompressionScheme};
use samplecf::core::{
    CfMeasurement, ExactCf, ProgressiveCf, ProgressiveConfig, ProgressiveReport, SampleCf,
};
use samplecf::datagen::presets;
use samplecf::index::IndexSpec;
use samplecf::sampling::{Allocation, BatchSchedule, SamplerKind, StrataMode};
use samplecf::server::{CachedSample, Json, ServiceState, DEFAULT_CACHE_BUDGET_BYTES};
use samplecf::storage::{IntoShared, Table};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const ROWS: usize = 3_000;
const SEED: u64 = 17;

fn table() -> Table {
    presets::orders_table("orders", ROWS, 9)
        .generate()
        .unwrap()
        .table
}

fn spec() -> IndexSpec {
    IndexSpec::nonclustered("idx", ["customer", "status"]).unwrap()
}

fn stratified(fraction: f64) -> SamplerKind {
    SamplerKind::Stratified {
        fraction,
        strata: 4,
        alloc: Allocation::Neyman,
        mode: StrataMode::EquiWidth,
    }
}

/// Every sampler at a shallow fraction, its served request fields and the
/// same sampler deeper.
fn samplers() -> Vec<(SamplerKind, SamplerKind, [String; 2])> {
    let at = |name: &str, kind: fn(f64) -> SamplerKind| {
        let fields = [0.05, 0.1].map(|f| format!(r#""sampler":"{name}","fraction":{f}"#));
        (kind(0.05), kind(0.1), fields)
    };
    vec![
        at("uniform", SamplerKind::UniformWithReplacement),
        at("uniform-wor", SamplerKind::UniformWithoutReplacement),
        at("bernoulli", SamplerKind::Bernoulli),
        at("systematic", SamplerKind::Systematic),
        (
            SamplerKind::Reservoir(150),
            SamplerKind::Reservoir(300),
            [150, 300].map(|n| format!(r#""sampler":"reservoir","size":{n}"#)),
        ),
        at("block", SamplerKind::Block),
        (
            stratified(0.05),
            stratified(0.1),
            [0.05, 0.1].map(|f| {
                format!(r#""sampler":"stratified","fraction":{f},"strata":4,"alloc":"neyman""#)
            }),
        ),
    ]
}

fn schemes() -> Vec<Box<dyn CompressionScheme>> {
    (scheme_names().iter())
        .map(|name| scheme_by_name(name).unwrap())
        .collect()
}

/// Every field of a measurement but its wall-clock time.
fn measurement(m: &CfMeasurement) -> String {
    format!(
        "cf={:?} cfp={:?} cfpg={:?} scheme={} sampler={} data={:?} report={:?}",
        m.cf, m.cf_with_pointers, m.cf_pages, m.scheme, m.sampler, m.data, m.report
    )
}

fn progressive(out: &mut String, report: &ProgressiveReport) {
    for checkpoint in &report.checkpoints {
        writeln!(out, "checkpoint {checkpoint:?}").unwrap();
    }
    writeln!(
        out,
        "final stopped_early={} target_met={} pages_read={} {}",
        report.stopped_early,
        report.target_met,
        report.pages_read,
        measurement(&report.measurement)
    )
    .unwrap();
}

/// The corpus text of every section over `table`, whose disk copy is at
/// `path`.
fn corpus(table: &Table, path: &Path) -> String {
    let mut out = String::new();
    let spec = spec();

    writeln!(out, "section estimate").unwrap();
    for (kind, ..) in samplers() {
        for scheme in schemes() {
            let m = SampleCf::new(kind)
                .seed(SEED)
                .estimate(table, &spec, scheme.as_ref())
                .unwrap();
            writeln!(out, "estimate {}", measurement(&m)).unwrap();
        }
    }

    writeln!(out, "section progressive").unwrap();
    for kind in [
        SamplerKind::UniformWithReplacement(0.2),
        SamplerKind::Block(0.2),
        SamplerKind::Reservoir(600),
        stratified(0.2),
    ] {
        for name in ["null-suppression", "dictionary-paged"] {
            let scheme = scheme_by_name(name).unwrap();
            for target_error in [0.05, 0.0] {
                let config = ProgressiveConfig {
                    target_error,
                    confidence: 0.95,
                    schedule: BatchSchedule::new(0.01, 2.0).unwrap(),
                };
                writeln!(
                    out,
                    "run {} scheme={name} target_error={target_error:?}",
                    kind.label()
                )
                .unwrap();
                let report = ProgressiveCf::new(kind, config)
                    .seed(SEED)
                    .run(table, &spec, scheme.as_ref())
                    .unwrap();
                progressive(&mut out, &report);
            }
        }
    }

    writeln!(out, "section exact").unwrap();
    for scheme in schemes() {
        let m = ExactCf::new()
            .compute(table, &spec, scheme.as_ref())
            .unwrap();
        writeln!(out, "exact {}", measurement(&m)).unwrap();
    }

    writeln!(out, "section served").unwrap();
    let state = registered(path);
    for (_, _, fields) in samplers() {
        for field in &fields {
            for scheme in ["null-suppression", "rle", "dictionary-global"] {
                // A miss (or a deepening) on the first scheme, hits after.
                serve(
                    &state,
                    &mut out,
                    &format!(
                        r#"{{"op":"estimate","table":"orders",{},"seed":{SEED},"columns":["customer","status"],"scheme":"{scheme}"}}"#,
                        field
                    ),
                );
            }
        }
    }
    let candidates: Vec<String> = (scheme_names().iter())
        .enumerate()
        .map(|(i, scheme)| {
            let columns = [r#"["status"]"#, r#"["customer","status"]"#][i % 2];
            format!(
                r#"{{"index":"i{i}","columns":{columns},"scheme":"{scheme}","clustered":{}}}"#,
                i % 3 == 0
            )
        })
        .collect();
    serve(
        &state,
        &mut out,
        &format!(
            r#"{{"op":"advise","table":"orders","sampler":"block","fraction":0.1,"seed":{SEED},"budget":120000,"candidates":[{}]}}"#,
            candidates.join(",")
        ),
    );
    // A progressive run on each pricing route (summed, walked): the requests
    // CI's daemon smoke step diffs against the CLI.
    for scheme in ["null-suppression", "dictionary-paged"] {
        serve(
            &state,
            &mut out,
            &format!(
                r#"{{"op":"estimate_progressive","table":"orders","sampler":"block","fraction":0.1,"target_error":0.05,"seed":{SEED},"columns":["customer","status"],"scheme":"{scheme}"}}"#
            ),
        );
    }

    writeln!(out, "section cache").unwrap();
    let shared = Table::open(path).unwrap().into_shared();
    let dictionary = scheme_by_name("dictionary-paged").unwrap();
    for (kind, deeper, _) in samplers() {
        let mut entry = CachedSample::draw(&shared, kind, SEED).unwrap();
        let drawn = entry.approx_bytes();
        let measure = |entry: &CachedSample| {
            let sample = entry.sample();
            samplecf::core::measure_sample(
                sample,
                &spec,
                dictionary.as_ref(),
                &samplecf::index::IndexBuilder::new(),
            )
            .unwrap();
            entry.approx_bytes()
        };
        let measured = measure(&entry);
        let deepened = match entry.deepen(deeper).unwrap() {
            Some(_) => measure(&entry).to_string(),
            None => "-".to_string(),
        };
        writeln!(
            out,
            "entry {} rows={} drawn={drawn} measured={measured} deepened={deepened}",
            kind.label(),
            entry.sample().len()
        )
        .unwrap();
    }

    nullable(&mut out, table, path);
    out
}

/// The section keyed on the nullable `comment` column (5% NULL): its first
/// key cell is NULL in some records, which every route must count as NULL
/// and never as a value.
fn nullable(out: &mut String, table: &Table, path: &Path) {
    writeln!(out, "section nullable").unwrap();
    let spec = IndexSpec::nonclustered("idx_comment", ["comment"]).unwrap();
    let names = ["none", "null-suppression", "dictionary-global"];
    for (kind, ..) in samplers() {
        for name in names {
            let scheme = scheme_by_name(name).unwrap();
            let m = SampleCf::new(kind)
                .seed(SEED)
                .estimate(table, &spec, scheme.as_ref())
                .unwrap();
            writeln!(out, "estimate {}", measurement(&m)).unwrap();
        }
    }
    for name in names {
        let scheme = scheme_by_name(name).unwrap();
        let m = ExactCf::new()
            .compute(table, &spec, scheme.as_ref())
            .unwrap();
        writeln!(out, "exact {}", measurement(&m)).unwrap();
    }
    // A state of its own, so that the first request misses.
    let state = registered(path);
    for name in ["null-suppression", "dictionary-global"] {
        serve(
            &state,
            out,
            &format!(
                r#"{{"op":"estimate","table":"orders","sampler":"uniform","fraction":0.05,"seed":{SEED},"columns":["comment"],"scheme":"{name}"}}"#
            ),
        );
    }
}

/// A service state with the table file at `path` registered.
fn registered(path: &Path) -> ServiceState {
    let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
    // The registration names the file, which moves from run to run.
    let register = format!(r#"{{"op":"register","path":"{}"}}"#, path.display());
    let registered = Json::parse(&state.handle_line(&register)).unwrap();
    assert_eq!(registered.get("ok").and_then(Json::as_bool), Some(true));
    state
}

/// Serve `line`, and write it with the reply's accounting and result.
fn serve(state: &ServiceState, out: &mut String, line: &str) {
    let reply = Json::parse(&state.handle_line(line)).unwrap();
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
    let field = |name| reply.get(name).unwrap().to_string();
    writeln!(out, "request {line}").unwrap();
    writeln!(out, "accounting {}", field("accounting")).unwrap();
    writeln!(out, "result {}", field("result")).unwrap();
}

/// Removes the table file when the test ends, pass or fail.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn every_measure_matches_the_committed_corpus() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let memory = table();
    let file = TempFile(tmp.join(format!("measure_corpus_{}.scf", std::process::id())));
    Table::materialize(&file.0, &memory).unwrap();

    let actual = corpus(&memory, &file.0);
    golden::check("measures.txt", &actual, &["section ", "run "]);
}
