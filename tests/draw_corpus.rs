//! The draw corpus: what every sampler kind draws, batch by batch, pinned as
//! text in `tests/golden/draws.txt`.
//!
//! Each run drains one stream over a 2 000-row table with 512-byte pages —
//! through `next_records`, the method every production consumer draws
//! with — and records, per batch, the RIDs, the stratum tags, the cumulative pages read
//! and the bytes the stream retains (only an extendable stream is ever held
//! and priced, so a scan stream records `-`).  An extendable stream is then
//! deepened once and drained again.  The in-memory `Table` and its copy
//! in a file must produce the same text, and that text must equal the
//! committed file.
//!
//! On a mismatch the test names the first differing line and the run it
//! belongs to, writes the actual text to `draws.txt` under the cargo target
//! tmpdir, and fails; `SAMPLECF_BLESS=1` accepts a deliberate change (see
//! `golden/mod.rs`).

mod golden;

use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf::sampling::{Allocation, BatchSchedule, CountingSource, SamplerKind, StrataMode};
use samplecf::storage::{Row, Schema, Table, TableBuilder, TableSource, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const FRACTION: f64 = 0.05;
const DEEPER: f64 = 0.12;
const STRATA: usize = 4;
/// The fixed per-stratum standard deviations the feedback run reports
/// after its first batch.
const FED_BACK_SDS: [f64; STRATA] = [0.5, 4.0, 1.0, 2.0];

/// A named run: the kind at [`FRACTION`] and at [`DEEPER`], and whether
/// the run feeds [`FED_BACK_SDS`] back after batch 1.
struct Run {
    name: &'static str,
    at: fn(f64) -> SamplerKind,
    feedback: bool,
}

fn stratified(fraction: f64, strata: usize, alloc: Allocation, mode: StrataMode) -> SamplerKind {
    SamplerKind::Stratified {
        fraction,
        strata,
        alloc,
        mode,
    }
}

fn runs() -> Vec<Run> {
    let run = |name, at: fn(f64) -> SamplerKind, feedback| Run { name, at, feedback };
    vec![
        run("uniform-wr", SamplerKind::UniformWithReplacement, false),
        run("uniform-wor", SamplerKind::UniformWithoutReplacement, false),
        run("bernoulli", SamplerKind::Bernoulli, false),
        run("reservoir", |_| SamplerKind::Reservoir(100), false),
        run("block", SamplerKind::Block, false),
        run(
            "stratified-k1",
            |f| stratified(f, 1, Allocation::Neyman, StrataMode::EquiWidth),
            false,
        ),
        run(
            "stratified-prop-width",
            |f| stratified(f, STRATA, Allocation::Proportional, StrataMode::EquiWidth),
            false,
        ),
        run(
            "stratified-neyman-depth",
            |f| stratified(f, STRATA, Allocation::Neyman, StrataMode::EquiDepth),
            false,
        ),
        run(
            "stratified-neyman-feedback",
            |f| stratified(f, STRATA, Allocation::Neyman, StrataMode::EquiWidth),
            true,
        ),
    ]
}

fn schedules() -> [(&'static str, BatchSchedule); 3] {
    [
        ("one-shot", BatchSchedule::one_shot()),
        ("default", BatchSchedule::default()),
        ("0.001x1.3", BatchSchedule::new(0.001, 1.3).unwrap()),
    ]
}

const SEEDS: [u64; 2] = [3, 11];

fn table() -> Table {
    TableBuilder::new("t", Schema::single_char("a", 32))
        .page_size(512)
        .build_with_rows((0..2_000).map(|i| Row::new(vec![Value::str(format!("v{i:06}"))])))
        .unwrap()
}

/// Stratum tags as `tag:count` runs (batches are RID-sorted, so a
/// stratified batch's tags come in contiguous runs).
fn tag_runs(tags: &[u32]) -> String {
    let mut runs: Vec<(u32, usize)> = Vec::new();
    for &tag in tags {
        match runs.last_mut() {
            Some((last, count)) if *last == tag => *count += 1,
            _ => runs.push((tag, 1)),
        }
    }
    let runs: Vec<String> = runs.iter().map(|(tag, n)| format!("{tag}:{n}")).collect();
    runs.join(",")
}

/// The corpus text of every run over `source`.
fn corpus(source: &dyn TableSource) -> String {
    let mut out = String::new();
    for run in runs() {
        for (schedule_name, schedule) in schedules() {
            for seed in SEEDS {
                let kind = (run.at)(FRACTION);
                writeln!(
                    out,
                    "run {} kind={} schedule={schedule_name} seed={seed}",
                    run.name,
                    kind.label()
                )
                .unwrap();
                let counting = CountingSource::new(source);
                let mut stream = kind.stream(schedule).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut batch_no = 0usize;
                let mut drain = |stream: &mut Box<dyn samplecf::sampling::SampleStream>,
                                 out: &mut String| loop {
                    let batch = stream.next_records(&counting, &mut rng).unwrap();
                    if batch.is_empty() {
                        return;
                    }
                    batch_no += 1;
                    let retained = if stream.extendable() {
                        stream.approx_retained_bytes().to_string()
                    } else {
                        "-".to_string()
                    };
                    let tags = stream.batch_strata().map_or("-".to_string(), tag_runs);
                    let rids: Vec<String> = (batch.iter())
                        .map(|(rid, _)| format!("{}.{}", rid.page, rid.slot))
                        .collect();
                    writeln!(
                        out,
                        "batch {batch_no} pages={} retained={retained} tags={tags} rids={}",
                        counting.pages_read(),
                        rids.join(" ")
                    )
                    .unwrap();
                    if run.feedback && batch_no == 1 {
                        stream.update_stratum_variances(&FED_BACK_SDS);
                    }
                };
                drain(&mut stream, &mut out);
                if stream.extendable() {
                    let deeper = (run.at)(DEEPER);
                    assert!(stream.extend_cap(deeper), "{}", run.name);
                    writeln!(out, "deepen to={}", deeper.label()).unwrap();
                    drain(&mut stream, &mut out);
                }
            }
        }
    }
    out
}

/// Removes the table file when the test ends, pass or fail.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn every_draw_matches_the_committed_corpus() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let memory = table();
    let file = TempFile(tmp.join(format!("draw_corpus_{}.scf", std::process::id())));
    let disk = Table::materialize(&file.0, &memory).unwrap();

    let actual = corpus(&memory);
    if let Some(diff) = golden::first_difference(&actual, &corpus(&disk), &["run "]) {
        panic!("the file copy draws differently from the in-memory table, {diff}");
    }
    golden::check("draws.txt", &actual, &["run "]);
}
