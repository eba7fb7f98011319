//! `bench perf`: every workload in its own child process — so peak memory
//! is per workload — first untraced for the end-to-end metrics, then traced
//! for the per-layer ones.  Prints every metric, writes the result set,
//! and fails on any failed check.

use crate::defs::{self, Workload};
use crate::result::{result_set_text, RunResult};
use crate::{env, stats, Flags};
use samplecf_server::Json;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

/// `harness.ledger_coverage` must lie in this range on the one-shot library
/// workloads, or the replayed chain no longer mirrors the estimator.
const LEDGER_COVERAGE: std::ops::RangeInclusive<f64> = 0.9..=1.1;

/// The committed trajectory `--append` adds to.
const HISTORY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/history.jsonl");

fn child_run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<&str>,
    smoke: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let (true, Some(prefix)) = (trace, trace_out) {
        command.args(["--trace-out", &format!("{prefix}.{}", workload.name())]);
    }
    if smoke {
        command.arg("--smoke");
    }
    // The child's own rendering goes to stderr; here it is printed from the
    // parsed result instead, so that what is shown is what is stored.
    let output = command
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "the {} child failed ({}); rerun `bench --workload {} --seed {seed} --trace {}` to see why",
            workload.name(),
            output.status,
            workload.name(),
            u8::from(trace)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the child printed no result")?;
    RunResult::from_driver_line(line, workload, trace, seed)
}

/// One line of the trajectory: per workload, the median of every metric
/// over the invocation's runs.  Per-layer metrics of layers a workload never
/// enters (always 0) are left out.
fn history_line(machine: Json, seconds: u64, results: &[RunResult]) -> Json {
    let mut workloads = Json::obj();
    for workload in Workload::ALL.map(Workload::name) {
        let runs: Vec<&RunResult> = results.iter().filter(|r| r.workload == workload).collect();
        if runs.is_empty() {
            continue;
        }
        let mut medians = Json::obj()
            .field(
                "runs",
                Json::uint(runs.iter().filter(|r| !r.trace).count() as u64),
            )
            .field("failed", Json::uint(runs.iter().map(|r| r.failed).sum()));
        for def in defs::END_TO_END.iter().chain(&defs::PER_LAYER) {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.metric(def.name)).collect();
            let median = stats::median(&values);
            if median != 0.0 {
                medians = medians.field(def.name, Json::Num(median));
            }
        }
        workloads = workloads.field(workload, medians);
    }
    Json::obj()
        .field("machine", machine)
        .field("seconds", Json::uint(seconds))
        .field("workloads", workloads)
}

pub fn run(mut flags: Flags) -> Result<ExitCode, String> {
    let only = flags.workload()?;
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(defs::DEFAULT_SEED);
    let seconds: u64 = flags.parsed("--seconds")?.unwrap_or(defs::RUN_SECONDS);
    let runs: u64 = flags.parsed("--runs")?.unwrap_or(1);
    let out = flags.value("--out")?;
    let trace_out = flags.value("--trace-out")?;
    let append = flags.switch("--append");
    let smoke = flags.switch("--smoke");
    if let Some(extra) = flags.finish()?.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    env::ensure_daemon()?;

    println!(
        "Tables are read through the OS page cache (each run writes its table just before \
         reading it): latencies are this sandbox's, not a storage device's."
    );
    let mut results = Vec::new();
    let mut problems = Vec::new();
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        for repeat in 0..runs {
            for trace in [false, true] {
                let result = child_run(
                    workload,
                    seed + repeat,
                    seconds,
                    trace,
                    trace_out.as_deref(),
                    smoke,
                )?;
                print!("{}", result.render());
                if !result.correct {
                    problems.push(format!(
                        "{}: {} of {} ops failed",
                        workload.name(),
                        result.failed,
                        result.attempted
                    ));
                }
                let gated = matches!(workload, Workload::LibBlock | Workload::LibUniform) && !smoke;
                if let (true, Some(coverage)) = (gated, result.metric("harness.ledger_coverage")) {
                    if !LEDGER_COVERAGE.contains(&coverage) {
                        problems.push(format!(
                            "{}: harness.ledger_coverage {coverage:.3} is outside [0.9, 1.1] — the \
                             replay no longer mirrors the estimator; the ledger needs a benchmark issue",
                            workload.name()
                        ));
                    }
                }
                results.push(result);
            }
        }
    }

    let machine = env::machine_json(seed);
    if let Some(path) = &out {
        std::fs::write(path, result_set_text(&machine, seconds, &results))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    if append {
        let line = history_line(machine, seconds, &results).to_line();
        let mut history = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(HISTORY)
            .map_err(|e| format!("opening {HISTORY}: {e}"))?;
        writeln!(history, "{line}").map_err(|e| format!("appending to {HISTORY}: {e}"))?;
    }
    for problem in &problems {
        eprintln!("bench perf: {problem}");
    }
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Sheet;

    #[test]
    fn a_history_line_holds_one_median_per_measured_metric() {
        let run = |trace: bool, value: f64| {
            let mut sheet = Sheet::new(trace);
            if trace {
                sheet.set("index.busy_share", value);
            } else {
                for def in &defs::END_TO_END {
                    sheet.set(def.name, value);
                }
            }
            RunResult::new(Workload::LibBlock, trace, 1, 10, 0, sheet).unwrap()
        };
        let results = [
            run(false, 1.0),
            run(true, 0.4),
            run(false, 3.0),
            run(true, 0.6),
        ];
        let line = history_line(Json::obj(), 15, &results);
        assert!(!line.to_line().contains('\n'));
        let block = line
            .get("workloads")
            .and_then(|w| w.get("lib_block"))
            .unwrap();
        assert_eq!(block.get("runs").and_then(Json::as_u64), Some(2));
        assert_eq!(block.get("ops_per_s").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            block.get("index.busy_share").and_then(Json::as_f64),
            Some(0.5)
        );
        // Layers the workload never entered are left out.
        assert!(block.get("server.hit_p50_ms").is_none());
        assert!(line
            .get("workloads")
            .and_then(|w| w.get("served_hot"))
            .is_none());
    }
}
