//! The measure corpus: what every estimator reports, pinned as text in
//! `tests/golden/measures.txt`.
//!
//! Every run measures one `datagen` preset table (no table is stored): a
//! one-shot `SampleCf::estimate` for each sampler × scheme, capped and
//! target-stopped `ProgressiveCf::run`s with every checkpoint field,
//! `ExactCf` for each scheme, the served `estimate` as a miss, a hit and a
//! deepening (a redraw for a Bernoulli or reservoir entry), one budgeted `advise`, a served
//! `estimate_progressive` on each pricing route, and the bytes a cache
//! entry is priced at when drawn, once measured, and once deepened and
//! measured again.  A section repeats the one-shot and exact runs, and a
//! served miss and hit, on an index keyed on a column with NULLs.  Then the
//! error each malformed or failing request is answered with, and two
//! `advise` plans by `min_saving` alone.  Floats print with `{:?}`, which
//! round-trips; wall-clock times are left out.
//!
//! The last section runs the `samplecf` binary with `--json` on every
//! served request shape and asserts, in code, that the one-shot CLI, the
//! served reply and the same request served again as a hit give one
//! `result` — a bless cannot accept a divergence — and that each `advise`
//! recommendation is its candidate measured alone.  Only the CLI's command
//! line and the pages it read are pinned.
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
use std::process::Command;

const ROWS: usize = 3_000;
const SEED: u64 = 17;
/// The table file, and the CLI's candidate spec file, in the test's
/// directory: the CLI runs there and is given these names.
const TABLE_FILE: &str = "orders.scf";
const CANDIDATES_FILE: &str = "candidates.txt";

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

/// The advisor's candidates, `(index, key columns, scheme, clustered)`:
/// every scheme once, keyed on one column or on two, every third clustered.
fn candidate_specs() -> Vec<(String, &'static str, &'static str, bool)> {
    (scheme_names().iter())
        .enumerate()
        .map(|(i, &scheme)| {
            (
                format!("i{i}"),
                ["status", "customer,status"][i % 2],
                scheme,
                i % 3 == 0,
            )
        })
        .collect()
}

/// The candidates as an `advise` request lists them.
fn candidates() -> Vec<Json> {
    (candidate_specs().into_iter())
        .map(|(index, columns, scheme, clustered)| {
            Json::obj()
                .field("index", index.as_str())
                .field(
                    "columns",
                    Json::Arr(columns.split(',').map(Json::str).collect()),
                )
                .field("scheme", scheme)
                .field("clustered", clustered)
        })
        .collect()
}

/// An `advise` of every candidate, with `fields` naming the sample and the
/// plan's limits.
fn advise(fields: &str) -> String {
    format!(
        r#"{{"op":"advise","table":"orders",{fields},"candidates":{}}}"#,
        Json::Arr(candidates())
    )
}

/// The served section's requests, in order: each sampler shallow, then
/// deeper, under three schemes — a miss or a deepening (a redraw for a scan
/// sampler) on the first, hits after — one budgeted `advise`, and an
/// `estimate_progressive` on each pricing route (summed, walked).
fn served_requests() -> Vec<String> {
    let mut requests = Vec::new();
    for (_, _, fields) in samplers() {
        for field in &fields {
            for scheme in ["null-suppression", "rle", "dictionary-global"] {
                requests.push(format!(
                    r#"{{"op":"estimate","table":"orders",{field},"seed":{SEED},"columns":["customer","status"],"scheme":"{scheme}"}}"#
                ));
            }
        }
    }
    requests.push(advise(&format!(
        r#""sampler":"block","fraction":0.1,"seed":{SEED},"budget":120000"#
    )));
    for scheme in ["null-suppression", "dictionary-paged"] {
        requests.push(format!(
            r#"{{"op":"estimate_progressive","table":"orders","sampler":"block","fraction":0.1,"target_error":0.05,"seed":{SEED},"columns":["customer","status"],"scheme":"{scheme}"}}"#
        ));
    }
    requests
}

/// The `advise` plans by `min_saving` alone, no budget: every candidate
/// that saves no less than nothing, then only those that save at least
/// 40%.
fn threshold_requests() -> Vec<String> {
    ["0", "0.4"]
        .map(|min_saving| {
            advise(&format!(
                r#""sampler":"block","fraction":0.1,"seed":{SEED},"min_saving":{min_saving}"#
            ))
        })
        .into()
}

/// The corpus text of every section over `table`, whose disk copy is
/// [`TABLE_FILE`] in `dir`.
fn corpus(table: &Table, dir: &Path) -> String {
    let mut out = String::new();
    let spec = spec();
    let path = &dir.join(TABLE_FILE);

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
    for request in served_requests() {
        serve(&state, &mut out, &request);
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
    errors(&mut out, dir);
    thresholds(&mut out, path);
    cli(&mut out, dir);
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

/// The error each malformed or failing request is answered with: its code
/// asserted, its message pinned (with `dir` spelled `<dir>`).  These are
/// the codes a request line can reach on a sound table: a line that is not
/// JSON, an unknown op, an unregistered table, a second file under a taken
/// name, a file that cannot be opened, and a request the grammar refuses —
/// an unknown field, a mistyped one, a missing one, a fraction out of
/// range.
fn errors(out: &mut String, dir: &Path) {
    writeln!(out, "section errors").unwrap();
    let state = registered(&dir.join(TABLE_FILE));
    let at = |name: &str| dir.join(name).display().to_string();
    std::fs::copy(at(TABLE_FILE), at("copy.scf")).unwrap();
    let taken = format!(
        r#"{{"op":"register","path":"{}","name":"orders"}}"#,
        at("copy.scf")
    );
    let missing = format!(r#"{{"op":"register","path":"{}"}}"#, at("missing.scf"));
    let cases = [
        ("parse_error", r#"{"op":"estimate","#),
        ("unknown_op", r#"{"op":"explain","table":"orders"}"#),
        ("no_such_table", r#"{"op":"estimate","table":"lineitem"}"#),
        ("table_exists", &taken),
        ("storage", &missing),
        (
            "bad_request",
            r#"{"op":"estimate","table":"orders","fracton":0.5}"#,
        ),
        (
            "bad_request",
            r#"{"op":"estimate","table":"orders","fraction":"0.5"}"#,
        ),
        (
            "bad_request",
            r#"{"op":"estimate_progressive","table":"orders"}"#,
        ),
        (
            "bad_request",
            r#"{"op":"estimate","table":"orders","fraction":5}"#,
        ),
    ];
    // The catalog names a file by its canonical path.
    let canonical = dir.canonicalize().unwrap().display().to_string();
    let scrub = |text: &str| {
        text.replace(&canonical, "<dir>")
            .replace(&dir.display().to_string(), "<dir>")
    };
    for (code, line) in cases {
        let reply = Json::parse(&state.handle_line(line)).unwrap();
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "{line}"
        );
        let error = reply.get("error").unwrap();
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some(code),
            "{line}"
        );
        writeln!(out, "request {}", scrub(line)).unwrap();
        writeln!(out, "error {}", scrub(&error.to_string())).unwrap();
    }
}

/// Two `advise` plans by `min_saving` alone, on a state of their own: the
/// threshold pass, which leaves a candidate uncompressed that the plan at
/// 0 compresses.
fn thresholds(out: &mut String, path: &Path) {
    writeln!(out, "section min_saving").unwrap();
    let state = registered(path);
    let uncompressed: Vec<usize> = (threshold_requests().iter())
        .map(|request| {
            let reply = serve(&state, out, request);
            (recommendations(&reply).iter())
                .filter(|r| r.get("compress").and_then(Json::as_bool) == Some(false))
                .count()
        })
        .collect();
    assert!(uncompressed[1] > uncompressed[0], "{uncompressed:?}");
}

/// One-shot and served parity, on states of their own: every request of
/// the served and `min_saving` sections replayed in order, then an
/// `advise` at a miss, a hit and a deepening per sampler, each
/// recommendation of which is its candidate measured alone.
fn cli(out: &mut String, dir: &Path) {
    writeln!(out, "section cli").unwrap();
    let path = &dir.join(TABLE_FILE);
    let lines: String = (candidate_specs().into_iter())
        .map(|(index, columns, scheme, clustered)| {
            let modifier = if clustered { " clustered" } else { "" };
            format!("{index} {columns} {scheme}{modifier}\n")
        })
        .collect();
    std::fs::write(dir.join(CANDIDATES_FILE), lines).unwrap();

    let state = registered(path);
    for request in served_requests().iter().chain(&threshold_requests()) {
        parity(&state, out, dir, request);
    }

    let state = registered(path);
    let stratified = r#""sampler":"stratified","strata":4,"alloc":"neyman""#;
    for sampler in [r#""sampler":"block""#, r#""sampler":"uniform""#, stratified] {
        for (fraction, cache) in [(0.05, "miss"), (0.1, "deepened")] {
            let sample = format!(r#"{sampler},"fraction":{fraction},"seed":{SEED}"#);
            let reply = parity(&state, out, dir, &advise(&sample));
            assert_eq!(disposition(&reply), cache, "{sample}");
            assert_each_candidate_alone(path, &sample, &reply);
        }
    }
}

/// Serve `request` on `state`, serve it again — a hit, or a bypass again
/// for a progressive run — and run the CLI on it: assert that the three
/// give one `result`, and that the CLI read the pages a first draw did.
/// The first reply.
fn parity(state: &ServiceState, out: &mut String, dir: &Path, request: &str) -> Json {
    let first = reply(state, request);
    let again = reply(state, request);
    let direct = samplecf(out, dir, request);
    let repeat = match disposition(&first) {
        "bypass" => "bypass",
        _ => "hit",
    };
    assert_eq!(disposition(&again), repeat, "{request}");
    for other in [&again, &direct] {
        assert_eq!(other.get("op"), first.get("op"), "{request}");
        assert_eq!(other.get("result"), first.get("result"), "{request}");
    }
    if matches!(disposition(&first), "miss" | "bypass") {
        assert_eq!(pages_read(&direct), pages_read(&first), "{request}");
    }
    first
}

/// Run `samplecf` in `dir` with `--json` on the command line that spells
/// `request` ([`flags`]), write that line and the pages the run read, and
/// return the response it printed.
fn samplecf(out: &mut String, dir: &Path, request: &str) -> Json {
    let args = flags(request);
    let output = Command::new(env!("CARGO_BIN_EXE_samplecf"))
        .current_dir(dir)
        .args(&args)
        .arg("--json")
        .output()
        .unwrap();
    let args = args.join(" ");
    assert!(
        output.status.success(),
        "samplecf {args} --json: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let reply = Json::parse(std::str::from_utf8(&output.stdout).unwrap()).unwrap();
    writeln!(out, "cli {args} --json pages_read={}", pages_read(&reply)).unwrap();
    reply
}

/// The `samplecf` command line that spells `request`: `advise`, or
/// `estimate` (a progressive run when it has a `--target-error`), on
/// [`TABLE_FILE`], then each field as `--field value` — a list joined by
/// commas, and the candidates as [`CANDIDATES_FILE`], which holds them.
fn flags(request: &str) -> Vec<String> {
    let Json::Obj(members) = Json::parse(request).unwrap() else {
        panic!("not an object: {request}");
    };
    let mut args = vec![String::new(), "--table".to_string(), TABLE_FILE.to_string()];
    for (name, value) in members {
        let value = match (name.as_str(), value) {
            ("op", op) => {
                let command = if op.as_str() == Some("advise") {
                    "advise"
                } else {
                    "estimate"
                };
                args[0] = command.to_string();
                continue;
            }
            ("table", table) => {
                assert_eq!(table.as_str(), Some("orders"), "the file's own name");
                continue;
            }
            ("candidates", list) => {
                assert_eq!(list, Json::Arr(candidates()), "what the file holds");
                CANDIDATES_FILE.to_string()
            }
            (_, Json::Str(text)) => text,
            (_, Json::Arr(items)) => (items.iter())
                .map(|item| item.as_str().unwrap())
                .collect::<Vec<_>>()
                .join(","),
            (_, value) => value.to_string(),
        };
        args.extend([format!("--{}", name.replace('_', "-")), value]);
    }
    args
}

/// Assert that each recommendation of `advice`, an `advise` of every
/// candidate over the sample `sample` names, is the CF its candidate gets
/// measured alone on a state of its own: by an `estimate` of the same
/// sample or, for a clustered candidate (which `estimate` has no field
/// for), by an `advise` of it alone.
fn assert_each_candidate_alone(path: &Path, sample: &str, advice: &Json) {
    let advised = recommendations(advice);
    assert_eq!(advised.len(), candidates().len());
    for (recommendation, candidate) in advised.iter().zip(candidates()) {
        let field = |name| candidate.get(name).unwrap();
        let state = registered(path);
        let cf = if field("clustered") == &Json::Bool(true) {
            let alone = format!(
                r#"{{"op":"advise","table":"orders",{sample},"candidates":[{candidate}]}}"#
            );
            recommendations(&reply(&state, &alone))[0]
                .get("estimated_cf")
                .cloned()
        } else {
            let alone = format!(
                r#"{{"op":"estimate","table":"orders",{sample},"columns":{},"scheme":{}}}"#,
                field("columns"),
                field("scheme")
            );
            reply(&state, &alone)
                .get("result")
                .unwrap()
                .get("cf")
                .cloned()
        };
        assert_eq!(
            recommendation.get("estimated_cf"),
            cf.as_ref(),
            "{candidate}"
        );
    }
}

/// An `advise` reply's recommendations, in candidate order.
fn recommendations(reply: &Json) -> &[Json] {
    let result = reply.get("result").unwrap();
    result.get("recommendations").unwrap().as_array().unwrap()
}

/// How the cache served a reply: `miss`, `hit`, `deepened` or `bypass`.
fn disposition(reply: &Json) -> &str {
    let accounting = reply.get("accounting").unwrap();
    accounting.get("cache").and_then(Json::as_str).unwrap()
}

/// The pages a reply's request read.
fn pages_read(reply: &Json) -> u64 {
    let accounting = reply.get("accounting").unwrap();
    accounting.get("pages_read").and_then(Json::as_u64).unwrap()
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
fn serve(state: &ServiceState, out: &mut String, line: &str) -> Json {
    let reply = reply(state, line);
    let field = |name| reply.get(name).unwrap().to_string();
    writeln!(out, "request {line}").unwrap();
    writeln!(out, "accounting {}", field("accounting")).unwrap();
    writeln!(out, "result {}", field("result")).unwrap();
    reply
}

/// Serve `line`, asserting that it succeeds.
fn reply(state: &ServiceState, line: &str) -> Json {
    let reply = Json::parse(&state.handle_line(line)).unwrap();
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
    reply
}

/// Removes the test's directory when the test ends, pass or fail.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn every_measure_matches_the_committed_corpus() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let dir = TempDir(tmp.join(format!("measure_corpus_{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).unwrap();
    let memory = table();
    Table::materialize(dir.0.join(TABLE_FILE), &memory).unwrap();

    let actual = corpus(&memory, &dir.0);
    golden::check("measures.txt", &actual, &["section ", "run "]);
}
