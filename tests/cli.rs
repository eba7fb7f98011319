//! Integration tests that shell out to the `samplecf` binary: the full
//! gen → info → estimate → exact → advise loop on a temp directory, checking
//! the reported fields for estimate/exact parity, that `--json` prints the
//! response object a `samplecfd` serves for the same request, and that both
//! ends reject the same malformed requests the same way.

use std::path::PathBuf;
use std::process::Command;

/// A unique temp directory for one test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("samplecf_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir creation succeeds");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run the samplecf binary with the given args, asserting success.
fn samplecf(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_samplecf"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "samplecf {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Extract the numeric value following a labelled CLI report line, e.g.
/// `field_value(&out, "exact CF")` for a line `exact CF       0.5491`.
fn field_value(output: &str, label: &str) -> f64 {
    let line = output
        .lines()
        .map(str::trim_start)
        .find(|l| l.starts_with(label))
        .unwrap_or_else(|| panic!("no `{label}` line in:\n{output}"));
    line[label.len()..]
        .split_whitespace()
        .next()
        .and_then(|tok| tok.parse().ok())
        .unwrap_or_else(|| panic!("unparseable `{label}` line: {line}"))
}

// ---------------------------------------------------------------------------
// JSON assertions go through the same `Json` value the server and the
// `client` subcommand use (samplecf_server::json) — one parser for the
// whole system, with panicking accessors so a missing key is a test
// failure rather than a case to handle.
// ---------------------------------------------------------------------------

use samplecf_server::Json;

trait JsonExt {
    fn key(&self, key: &str) -> &Json;
    fn num(&self) -> f64;
    fn arr(&self) -> &[Json];
}

impl JsonExt for Json {
    fn key(&self, key: &str) -> &Json {
        self.get(key)
            .unwrap_or_else(|| panic!("missing key {key} in {self}"))
    }

    fn num(&self) -> f64 {
        self.as_f64()
            .unwrap_or_else(|| panic!("expected a number, got {self}"))
    }

    fn arr(&self) -> &[Json] {
        self.as_array()
            .unwrap_or_else(|| panic!("expected an array, got {self}"))
    }
}

// ---------------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------------

#[test]
fn gen_estimate_exact_advise_loop_on_a_temp_dir() {
    let dir = TempDir::new("loop");
    let table = dir.path("demo.scf");

    // gen: a 20k-row table with 400 distinct values.
    let gen = samplecf(&[
        "gen",
        "--out",
        &table,
        "--rows",
        "20000",
        "--distinct",
        "400",
        "--seed",
        "5",
    ]);
    assert_eq!(field_value(&gen, "rows") as usize, 20_000);
    let pages = field_value(&gen, "pages") as u64;
    assert!(pages > 10, "expected a multi-page file, got {pages}");

    // info: reads only the header.
    let info = samplecf(&["info", "--table", &table]);
    assert_eq!(field_value(&info, "rows") as usize, 20_000);
    assert_eq!(field_value(&info, "pages") as u64, pages);

    // exact: the ground truth, reading every page.
    let exact = samplecf(&["exact", "--table", &table, "--scheme", "null-suppression"]);
    let exact_cf = field_value(&exact, "exact CF");
    assert!(exact_cf > 0.0 && exact_cf < 1.2, "exact CF {exact_cf}");
    assert_eq!(field_value(&exact, "pages read") as u64, pages);

    // estimate: block sampling at 10% — close to exact, tiny page cost.
    let estimate = samplecf(&[
        "estimate",
        "--table",
        &table,
        "--sampler",
        "block",
        "--fraction",
        "0.1",
        "--scheme",
        "null-suppression",
        "--seed",
        "3",
    ]);
    let est_cf = field_value(&estimate, "estimated CF");
    let ratio = (est_cf / exact_cf).max(exact_cf / est_cf);
    assert!(
        ratio < 1.1,
        "estimate {est_cf} vs exact {exact_cf} (ratio error {ratio})"
    );
    let est_pages = field_value(&estimate, "pages read") as u64;
    assert_eq!(est_pages, ((pages as f64) * 0.1).round() as u64);

    // advise (text): the same scheme should be recommended for compression
    // on this padded, low-cardinality table.
    let advise = samplecf(&[
        "advise",
        "--table",
        &table,
        "--scheme",
        "dictionary-global",
        "--sampler",
        "block",
        "--fraction",
        "0.1",
        "--seed",
        "3",
    ]);
    assert!(advise.contains("yes"), "advise output:\n{advise}");
    assert_eq!(field_value(&advise, "samples drawn") as u64, 1);
}

#[test]
fn advise_json_is_valid_and_accounts_shared_sample_io() {
    let dir = TempDir::new("json");
    let table = dir.path("demo.scf");
    let gen = samplecf(&[
        "gen",
        "--out",
        &table,
        "--rows",
        "15000",
        "--distinct",
        "300",
        "--seed",
        "8",
    ]);
    let pages = field_value(&gen, "pages") as u64;

    // Four candidates over one shared block sample.
    let cands = dir.path("candidates.txt");
    std::fs::write(
        &cands,
        "# candidates for the JSON test\n\
         idx_dict a dictionary-global\n\
         idx_ns   a null-suppression\n\
         idx_rle  a rle\n\
         pk_all   a prefix clustered\n",
    )
    .unwrap();

    let fraction = 0.05;
    let out = samplecf(&[
        "advise",
        "--table",
        &table,
        "--candidates",
        &cands,
        "--sampler",
        "block",
        "--fraction",
        "0.05",
        "--seed",
        "7",
        "--json",
    ]);
    let json = Json::parse(&out).expect("advise --json emits valid JSON");

    // `--json` prints the service's response object: structure and
    // accounting.
    let (result, acc) = (json.key("result"), json.key("accounting"));
    assert_eq!(result.key("table"), &Json::Str("t".to_string()));
    assert_eq!(result.key("fits_budget"), &Json::Bool(true));
    assert_eq!(result.key("budget_bytes"), &Json::Null);
    assert_eq!(acc.key("cache"), &Json::Str("miss".to_string()));
    let expected_pages = ((pages as f64) * fraction).round().max(1.0) as u64;
    assert_eq!(acc.key("pages_read").num() as u64, expected_pages);
    assert_eq!(
        acc.key("naive_pages_read").num() as u64,
        expected_pages * 4,
        "naive baseline pays the sample once per candidate"
    );

    let recs = result.key("recommendations").arr();
    assert_eq!(recs.len(), 4);
    let mut total_uncompressed = 0.0;
    for r in recs {
        let cf = r.key("estimated_cf").num();
        assert!(cf > 0.0 && cf < 1.5, "estimated_cf {cf}");
        assert!(r.key("uncompressed_bytes").num() > 0.0);
        assert!(matches!(r.key("compress"), Json::Bool(_)));
        total_uncompressed += r.key("uncompressed_bytes").num();
    }
    assert_eq!(
        total_uncompressed,
        result.key("total_uncompressed_bytes").num()
    );

    // Determinism: the same invocation produces the identical response.
    let out2 = samplecf(&[
        "advise",
        "--table",
        &table,
        "--candidates",
        &cands,
        "--sampler",
        "block",
        "--fraction",
        "0.05",
        "--seed",
        "7",
        "--json",
    ]);
    assert_eq!(json, Json::parse(&out2).expect("valid JSON"));
}

#[test]
fn advise_and_estimate_report_the_same_cf_for_a_stratified_sample() {
    // One (table, sampler, seed, index, scheme) has one SampleCF estimate:
    // `advise` must report the weighted per-stratum CF `estimate` documents
    // for stratified draws, not the pooled ratio of the same rows.
    let dir = TempDir::new("stratadvise");
    let table = dir.path("demo.scf");
    samplecf(&[
        "gen",
        "--out",
        &table,
        "--rows",
        "60000",
        "--distinct",
        "600",
        "--seed",
        "3",
    ]);
    let schemes = ["rle", "dictionary-paged", "null-suppression"];
    let cands = dir.path("candidates.txt");
    std::fs::write(&cands, schemes.map(|s| format!("idx_{s} a {s}\n")).concat()).unwrap();
    for alloc in ["prop", "neyman"] {
        let sampler = [
            "--sampler",
            "stratified",
            "--alloc",
            alloc,
            "--fraction",
            "0.05",
            "--seed",
            "7",
            "--json",
        ];
        let advise = samplecf(
            &[
                &["advise", "--table", &table, "--candidates", &cands],
                &sampler[..],
            ]
            .concat(),
        );
        let advise = Json::parse(&advise).expect("advise --json emits valid JSON");
        let recs = advise.key("result").key("recommendations").arr();
        assert_eq!(recs.len(), schemes.len());
        for (rec, scheme) in recs.iter().zip(schemes) {
            let estimate = samplecf(
                &[
                    &["estimate", "--table", &table, "--scheme", scheme],
                    &sampler[..],
                ]
                .concat(),
            );
            let estimate = Json::parse(&estimate).expect("estimate --json emits valid JSON");
            assert_eq!(
                rec.key("estimated_cf").num(),
                estimate.key("result").key("cf").num(),
                "{alloc}/{scheme}"
            );
        }
    }
}

#[test]
fn estimate_json_reports_the_seed_actually_used() {
    let dir = TempDir::new("estjson");
    let table = dir.path("demo.scf");
    samplecf(&[
        "gen",
        "--out",
        &table,
        "--rows",
        "8000",
        "--distinct",
        "200",
        "--seed",
        "5",
    ]);
    let out = samplecf(&[
        "estimate",
        "--table",
        &table,
        "--sampler",
        "block",
        "--fraction",
        "0.1",
        "--seed",
        "31",
        "--json",
    ]);
    let json = Json::parse(&out).expect("estimate --json emits valid JSON");
    // The seed is the one the run actually used — the field that makes a
    // report reproducible on its own.
    assert_eq!(json.key("result").key("seed").num() as u64, 31);
    let cf = json.key("result").key("cf").num();
    assert!(cf > 0.0 && cf < 1.5, "cf {cf}");
    assert!(json.key("accounting").key("pages_read").num() > 0.0);
    // A defaulted seed shows up as 0 rather than being omitted.
    let out = samplecf(&["estimate", "--table", &table, "--json"]);
    let json = Json::parse(&out).expect("valid JSON");
    assert_eq!(json.key("result").key("seed").num() as u64, 0);
}

#[test]
fn progressive_estimate_stops_early_and_reports_a_ci() {
    let dir = TempDir::new("progressive");
    let table = dir.path("const.scf");
    // An all-equal column: zero estimator variance, so the adaptive run
    // must stop long before the 10% cap.
    let gen = samplecf(&[
        "gen",
        "--out",
        &table,
        "--rows",
        "30000",
        "--distinct",
        "1",
        "--len-min",
        "8",
        "--len-max",
        "8",
        "--seed",
        "3",
    ]);
    let pages = field_value(&gen, "pages") as u64;

    let out = samplecf(&[
        "estimate",
        "--table",
        &table,
        "--sampler",
        "block",
        "--target-error",
        "0.1",
        "--max-fraction",
        "0.1",
        "--seed",
        "5",
        "--json",
    ]);
    let json = Json::parse(&out).expect("progressive --json emits valid JSON");
    let json = json.key("result");
    assert_eq!(json.key("seed").num() as u64, 5);
    assert_eq!(json.key("target_met"), &Json::Bool(true));
    assert_eq!(json.key("stopped_early"), &Json::Bool(true));
    let cf = json.key("cf").num();
    let (lo, hi) = (json.key("ci_low").num(), json.key("ci_high").num());
    assert!(lo <= cf && cf <= hi, "CI [{lo}, {hi}] must bracket cf {cf}");
    let adaptive_pages = json.key("pages_read").num() as u64;
    let fixed_pages = ((pages as f64) * 0.1).round() as u64;
    assert!(
        adaptive_pages < fixed_pages,
        "adaptive read {adaptive_pages} pages, fixed f = 0.1 would read {fixed_pages}"
    );
    let checkpoints = json.key("checkpoints").arr();
    assert!(checkpoints.len() >= 2, "needs >= 2 batches for a variance");
    for c in checkpoints {
        assert!(c.key("rows").num() > 0.0);
    }

    // The text report tells the same story.
    let text = samplecf(&[
        "estimate",
        "--table",
        &table,
        "--sampler",
        "block",
        "--target-error",
        "0.1",
        "--max-fraction",
        "0.1",
        "--seed",
        "5",
    ]);
    assert!(text.contains("stopped"), "missing stop line:\n{text}");
    assert!(text.contains("target met"), "missing target line:\n{text}");
    assert_eq!(field_value(&text, "seed") as u64, 5);
}

#[test]
fn info_json_matches_the_server_table_shape() {
    let dir = TempDir::new("infojson");
    let table = dir.path("demo.scf");
    let gen = samplecf(&[
        "gen",
        "--out",
        &table,
        "--rows",
        "5000",
        "--distinct",
        "100",
        "--seed",
        "2",
    ]);
    let pages = field_value(&gen, "pages") as u64;

    let out = samplecf(&["info", "--table", &table, "--json"]);
    let json = Json::parse(&out).expect("info --json emits valid JSON");
    let json = json.key("table");
    assert_eq!(json.key("name"), &Json::Str("t".to_string()));
    let canonical = std::fs::canonicalize(&table).expect("the table file exists");
    assert_eq!(
        json.key("path"),
        &Json::Str(canonical.to_string_lossy().into_owned())
    );
    assert_eq!(json.key("rows").num() as u64, 5_000);
    assert_eq!(json.key("pages").num() as u64, pages);
    assert!(json.key("rows_per_page").num() > 0.0);
    assert!(json.key("file_size").num() > 0.0);
    assert_eq!(json.key("format_version").num() as u64, 1);
    let schema = json.key("schema").arr();
    assert_eq!(schema.len(), 1);
    assert_eq!(schema[0].key("name"), &Json::Str("a".to_string()));
    assert!(matches!(schema[0].key("nullable"), Json::Bool(_)));

    // The text report agrees with the JSON one.
    let text = samplecf(&["info", "--table", &table]);
    assert_eq!(field_value(&text, "rows") as u64, 5_000);
    assert_eq!(field_value(&text, "pages") as u64, pages);
}

/// Spawn `samplecfd` with exactly `args` (which bind an ephemeral port) and
/// return (child, addr, reader).  The daemon prints its bound address on
/// the first stdout line; the returned reader must stay alive for the
/// daemon's lifetime (dropping the pipe would break its later prints).
fn spawn_daemon(
    args: &[&str],
) -> (
    std::process::Child,
    String,
    std::io::BufReader<std::process::ChildStdout>,
) {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_samplecfd"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = std::io::BufReader::new(stdout);
    let mut first_line = String::new();
    reader
        .read_line(&mut first_line)
        .expect("daemon announces its address");
    let addr = first_line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address on the first line")
        .to_string();
    (child, addr, reader)
}

/// Run `samplecf client`, asserting success, returning parsed JSON.
fn client(addr: &str, request: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_samplecf"))
        .args(["client", addr, request, "--raw"])
        .output()
        .expect("client runs");
    assert!(
        out.status.success(),
        "client {request:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(String::from_utf8(out.stdout).expect("utf-8").trim())
        .expect("client prints valid JSON")
}

#[test]
fn daemon_register_estimate_stats_loop_matches_the_oneshot_cli() {
    let dir = TempDir::new("daemon");
    let table = dir.path("demo.scf");
    samplecf(&[
        "gen",
        "--out",
        &table,
        "--rows",
        "16000",
        "--distinct",
        "300",
        "--seed",
        "9",
    ]);

    let (mut child, addr, _daemon_stdout) = spawn_daemon(&["--addr", "127.0.0.1:0"]);
    // Wrap the rest so the daemon is killed even on assertion failure.
    let result = std::panic::catch_unwind(|| {
        let registered = client(&addr, &format!(r#"{{"op":"register","path":"{table}"}}"#));
        assert_eq!(registered.key("table").key("rows").num() as u64, 16_000);

        // One control path: for every request shape, the one-shot CLI's
        // `--json` prints the very response the daemon serves — the whole
        // `result` object at full f64 precision, and the same page cost on
        // a cold cache.
        let cands = dir.path("candidates.txt");
        std::fs::write(
            &cands,
            "idx_dict a dictionary-global\nidx_ns a null-suppression\n\
             idx_rle a rle\npk_all a prefix clustered\n",
        )
        .unwrap();
        let candidates = r#"[{"index":"idx_dict","columns":["a"],"scheme":"dictionary-global"},
            {"index":"idx_ns","columns":["a"],"scheme":"null-suppression"},
            {"index":"idx_rle","columns":["a"],"scheme":"rle"},
            {"index":"pk_all","columns":["a"],"scheme":"prefix","clustered":true}]"#;
        let shapes: [(&str, String, Vec<&str>); 5] = [
            (
                "estimate",
                r#""sampler":"block","fraction":0.1,"scheme":"dictionary-global","seed":6"#.into(),
                vec![
                    "--sampler",
                    "block",
                    "--fraction",
                    "0.1",
                    "--scheme",
                    "dictionary-global",
                    "--seed",
                    "6",
                ],
            ),
            (
                "estimate",
                r#""sampler":"uniform","fraction":0.02,"scheme":"rle","seed":7"#.into(),
                vec![
                    "--sampler",
                    "uniform",
                    "--fraction",
                    "0.02",
                    "--scheme",
                    "rle",
                    "--seed",
                    "7",
                ],
            ),
            (
                "estimate",
                r#""sampler":"stratified","alloc":"neyman","strata":6,"fraction":0.05,"seed":8"#
                    .into(),
                vec![
                    "--sampler",
                    "stratified",
                    "--alloc",
                    "neyman",
                    "--strata",
                    "6",
                    "--fraction",
                    "0.05",
                    "--seed",
                    "8",
                ],
            ),
            (
                "estimate_progressive",
                r#""sampler":"block","target_error":0.05,"fraction":0.3,"seed":9"#.into(),
                vec![
                    "--sampler",
                    "block",
                    "--target-error",
                    "0.05",
                    "--max-fraction",
                    "0.3",
                    "--seed",
                    "9",
                ],
            ),
            (
                "advise",
                format!(r#""sampler":"block","fraction":0.05,"seed":10,"candidates":{candidates}"#),
                vec![
                    "--candidates",
                    &cands,
                    "--sampler",
                    "block",
                    "--fraction",
                    "0.05",
                    "--seed",
                    "10",
                ],
            ),
        ];
        for (op, fields, flags) in &shapes {
            let served = client(&addr, &format!(r#"{{"op":"{op}","table":"t",{fields}}}"#));
            let command = if *op == "advise" {
                "advise"
            } else {
                "estimate"
            };
            let oneshot = samplecf(&[&[command, "--table", &table, "--json"], &flags[..]].concat());
            let oneshot = Json::parse(&oneshot).expect("valid JSON");
            assert_eq!(oneshot.key("op"), served.key("op"), "{op} {fields}");
            assert_eq!(oneshot.key("result"), served.key("result"), "{op} {fields}");
            assert_eq!(
                oneshot.key("accounting").key("pages_read"),
                served.key("accounting").key("pages_read"),
                "{op} {fields}"
            );
        }

        let request = r#"{"op":"estimate","table":"t","sampler":"block","fraction":0.1,"scheme":"dictionary-global","seed":6}"#;
        let result = &client(&addr, request).key("result").clone();

        // A repeat of the same request is a cache hit with zero I/O.
        let again = client(&addr, request);
        assert_eq!(
            again.key("accounting").key("cache"),
            &Json::Str("hit".to_string())
        );
        assert_eq!(again.key("accounting").key("pages_read").num() as u64, 0);
        assert_eq!(again.key("result"), result);

        // stats reflects the traffic; the info endpoint's table object
        // matches `samplecf info --json` byte for byte (same shape).
        let stats = client(&addr, r#"{"op":"stats"}"#);
        let cache = stats.key("stats").key("cache");
        assert_eq!(cache.key("misses").num() as u64, 4, "one per sampled shape");
        assert_eq!(cache.key("hits").num() as u64, 2);
        let daemon_info = client(&addr, r#"{"op":"info","table":"t"}"#);
        let local_info = samplecf(&["info", "--table", &table, "--json"]);
        let local_info = Json::parse(&local_info).expect("valid JSON");
        // Paths may differ in spelling (canonicalization); compare the rest.
        for key in [
            "name",
            "rows",
            "pages",
            "page_size",
            "rows_per_page",
            "file_size",
            "schema",
        ] {
            assert_eq!(
                daemon_info.key("table").key(key),
                local_info.key("table").key(key),
                "{key}"
            );
        }

        client(&addr, r#"{"op":"shutdown"}"#);
    });
    if let Err(panic) = result {
        // The daemon never saw a shutdown request: kill it before
        // re-raising so the test cannot hang.
        let _ = child.kill();
        let _ = child.wait();
        std::panic::resume_unwind(panic);
    }
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exited non-zero");
}

#[test]
fn the_daemon_accepts_its_fixed_flags_at_one_and_refuses_any_other_value() {
    // The exact argument list the benchmark harness starts the daemon with.
    let (mut child, addr, _daemon_stdout) = spawn_daemon(&[
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--estimator-threads",
        "1",
        "--slow-request-ms",
        "0",
        "--cache-budget",
        "33554432",
        "--cache-shards",
        "1",
    ]);
    let result = std::panic::catch_unwind(|| {
        assert!(addr.parse::<std::net::SocketAddr>().is_ok(), "{addr:?}");
        let stats = client(&addr, r#"{"op":"stats"}"#);
        let cache = stats.key("stats").key("cache");
        assert_eq!(cache.key("budget_bytes").num() as u64, 33_554_432);
        assert!(cache.get("shards").is_none(), "{cache}");
        client(&addr, r#"{"op":"shutdown"}"#);
    });
    if let Err(panic) = result {
        let _ = child.kill();
        let _ = child.wait();
        std::panic::resume_unwind(panic);
    }
    assert!(child.wait().expect("daemon exits").success());

    for (flag, value) in [("--cache-shards", "8"), ("--estimator-threads", "0")] {
        let out = Command::new(env!("CARGO_BIN_EXE_samplecfd"))
            .args(["--addr", "127.0.0.1:0", flag, value])
            .output()
            .expect("daemon runs");
        assert!(!out.status.success(), "{flag} {value} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}

#[test]
fn cli_rejects_bad_input_with_nonzero_exit() {
    let dir = TempDir::new("errors");
    let missing = dir.path("missing.scf");
    let out = Command::new(env!("CARGO_BIN_EXE_samplecf"))
        .args(["advise", "--table", &missing])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    // Unknown flag is rejected too.
    let table = dir.path("t.scf");
    samplecf(&["gen", "--out", &table, "--rows", "500", "--distinct", "10"]);
    let out = Command::new(env!("CARGO_BIN_EXE_samplecf"))
        .args(["advise", "--table", &table, "--frobnicate", "1"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

/// Run the samplecf binary expecting failure; returns its stderr.
fn samplecf_fails(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_samplecf"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "samplecf {args:?} should fail");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn both_ends_reject_the_same_malformed_specs_before_touching_the_cache() {
    use samplecf_server::ServiceState;
    let dir = TempDir::new("validator");
    let table = dir.path("t.scf");
    samplecf(&["gen", "--out", &table, "--rows", "2000", "--distinct", "40"]);
    let state = ServiceState::new(16 << 20);
    state.catalog.register(&table, None).expect("registers");

    // (op, the malformed fields as JSON, the same as CLI flags).
    let cases: [(&str, &str, &[&str]); 17] = [
        ("estimate", r#""fraction":5"#, &["--fraction", "5"]),
        ("estimate", r#""fraction":0"#, &["--fraction", "0"]),
        (
            "estimate",
            r#""sampler":"stratified","strata":0"#,
            &["--sampler", "stratified", "--strata", "0"],
        ),
        (
            "estimate",
            r#""sampler":"reservoir","size":0"#,
            &["--sampler", "reservoir", "--size", "0"],
        ),
        (
            "estimate",
            r#""sampler":"warp-drive""#,
            &["--sampler", "warp-drive"],
        ),
        (
            "estimate",
            r#""sampler":"stratified","alloc":"bogus""#,
            &["--sampler", "stratified", "--alloc", "bogus"],
        ),
        (
            "estimate",
            r#""sampler":"stratified","strata_mode":"sideways""#,
            &["--sampler", "stratified", "--strata-mode", "sideways"],
        ),
        ("estimate", r#""scheme":"zip""#, &["--scheme", "zip"]),
        ("estimate", r#""columns":["nope"]"#, &["--column", "nope"]),
        ("estimate", r#""fracton":0.5"#, &["--fracton", "0.5"]),
        (
            "estimate_progressive",
            r#""target_error":0.1,"confidence":0"#,
            &["--target-error", "0.1", "--confidence", "0"],
        ),
        (
            "estimate_progressive",
            r#""target_error":-1"#,
            &["--target-error", "-1"],
        ),
        (
            "estimate_progressive",
            r#""target_error":0.1,"growth":1"#,
            &["--target-error", "0.1", "--growth", "1"],
        ),
        (
            "estimate_progressive",
            r#""target_error":0.1,"sampler":"bernoulli""#,
            &["--target-error", "0.1", "--sampler", "bernoulli"],
        ),
        (
            "advise",
            r#""min_saving":5,"candidates":[{"index":"idx","scheme":"rle"}]"#,
            &["--scheme", "rle", "--min-saving", "5"],
        ),
        (
            "advise",
            r#""candidates":[{"index":"idx","scheme":"zip"}]"#,
            &["--scheme", "zip"],
        ),
        (
            "advise",
            r#""fraction":2,"candidates":[{"index":"idx","scheme":"rle"}]"#,
            &["--scheme", "rle", "--fraction", "2"],
        ),
    ];
    for (op, fields, flags) in cases {
        let reply = state.handle_line(&format!(r#"{{"op":"{op}","table":"t",{fields}}}"#));
        let reply = Json::parse(&reply).expect("structured reply");
        let error = reply.key("error");
        assert_eq!(
            error.key("code"),
            &Json::Str("bad_request".to_string()),
            "{op} {fields}: {reply}"
        );
        let Json::Str(message) = error.key("message") else {
            panic!("message is a string: {reply}");
        };
        // The CLI front end refuses the same spec with the same message
        // (candidate-level messages carry the candidate's position on
        // both ends).
        let command = if op == "advise" { "advise" } else { "estimate" };
        let stderr = samplecf_fails(&[&[command, "--table", &table], flags].concat());
        let shared = message.split(" (flag").next().unwrap_or(message);
        let shared = shared.split(" (accepted").next().unwrap_or(shared);
        assert!(
            stderr.contains(shared),
            "{op} {fields}: daemon said {message:?}, CLI said {stderr:?}"
        );
    }
    assert!(state
        .handle_line(r#"{"op":"advise","table":"t","candidates":[]}"#)
        .contains("bad_request"));

    // Every rejection came before the catalog entry's cache shard was
    // touched: no draw was attempted, no page read.
    let cache = state.cache.stats();
    assert_eq!((cache.misses, cache.hits, cache.pages_read), (0, 0, 0));
}

#[test]
fn a_threads_member_or_flag_is_refused_on_every_sampling_op() {
    use samplecf_server::{RequestKind, ServiceState};
    let dir = TempDir::new("threads");
    let table = dir.path("t.scf");
    samplecf(&["gen", "--out", &table, "--rows", "2000", "--distinct", "40"]);
    let state = ServiceState::new(16 << 20);
    state.catalog.register(&table, None).expect("registers");

    // (op, its other required fields as JSON, the CLI invocation).
    let cases: [(RequestKind, &str, &[&str]); 3] = [
        (RequestKind::Estimate, "", &["estimate"]),
        (
            RequestKind::EstimateProgressive,
            r#","target_error":0.1"#,
            &["estimate", "--target-error", "0.1"],
        ),
        (
            RequestKind::Advise,
            r#","candidates":[{"index":"idx","scheme":"rle"}]"#,
            &["advise", "--scheme", "rle"],
        ),
    ];
    for (kind, fields, command) in cases {
        let op = kind.name();
        let reply = state.handle_line(&format!(
            r#"{{"op":"{op}","table":"t","threads":2{fields}}}"#
        ));
        let reply = Json::parse(&reply).expect("structured reply");
        let error = reply.key("error");
        assert_eq!(error.key("code"), &Json::Str("bad_request".to_string()));
        let accepted: Vec<&str> = kind.fields().iter().map(|f| f.name).collect();
        let expected = format!(
            "unknown field \"threads\" (accepted: {})",
            accepted.join(", ")
        );
        assert_eq!(error.key("message"), &Json::Str(expected), "{op}");

        let stderr = samplecf_fails(&[command, &["--table", &table, "--threads", "2"]].concat());
        assert!(
            stderr.contains("unknown field \"threads\" (flag --threads"),
            "{op}: {stderr}"
        );
    }
    let cache = state.cache.stats();
    assert_eq!((cache.misses, cache.hits, cache.pages_read), (0, 0, 0));
}

#[test]
fn text_reports_state_their_own_parameters() {
    let dir = TempDir::new("text");
    let table = dir.path("const.scf");
    samplecf(&[
        "gen",
        "--out",
        &table,
        "--rows",
        "30000",
        "--distinct",
        "1",
        "--len-min",
        "8",
        "--len-max",
        "8",
        "--seed",
        "3",
    ]);
    let line = |output: &str, label: &str| -> String {
        let found = output.lines().find(|l| l.trim_start().starts_with(label));
        found
            .unwrap_or_else(|| panic!("no `{label}` line in:\n{output}"))
            .to_string()
    };

    // The interval is reported at the confidence the run was given.
    let progressive = samplecf(&[
        "estimate",
        "--table",
        &table,
        "--sampler",
        "block",
        "--target-error",
        "0.1",
        "--max-fraction",
        "0.1",
        "--confidence",
        "0.9",
        "--seed",
        "5",
    ]);
    assert!(
        line(&progressive, "target").ends_with("at 90% confidence"),
        "{progressive}"
    );
    let ci = line(&progressive, "90% CI [");
    assert!(ci.ends_with("] (Chebyshev)"), "{ci}");
    assert!(!progressive.contains("95%"), "{progressive}");

    // "per trial" belongs to `--trials` alone.
    let estimate = ["estimate", "--table", &table, "--sampler", "block"];
    let single = samplecf(&estimate);
    let pages = line(&single, "pages read");
    assert!(
        pages.ends_with("%)") && !pages.contains("per trial"),
        "{pages}"
    );
    let trials = samplecf(&[&estimate[..], &["--trials", "3"]].concat());
    assert!(
        line(&trials, "pages read").ends_with("% per trial)"),
        "{trials}"
    );
}

#[test]
fn a_closed_stdout_pipe_ends_the_report_quietly() {
    let dir = TempDir::new("epipe");
    let table = dir.path("t.scf");
    samplecf(&[
        "gen",
        "--out",
        &table,
        "--rows",
        "20000",
        "--distinct",
        "200",
    ]);
    // `samplecf … | head`, at its worst: the reader is gone before the
    // report is written (the estimate takes far longer than the drop).
    let mut child = Command::new(env!("CARGO_BIN_EXE_samplecf"))
        .args(["estimate", "--table", &table, "--fraction", "0.2", "--json"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("child exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "samplecf panicked on a closed pipe:\n{stderr}"
    );
    assert!(out.status.success(), "{stderr}");
}
