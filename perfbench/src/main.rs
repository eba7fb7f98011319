//! `bench` — the performance ledger of the SampleCF system.
//!
//! ```text
//! bench --workload W --seed S --seconds N --trace 0|1 [--trace-out FILE]
//!     one run of one workload; the last stdout line is its result as JSON
//!     (this is the command BENCHMARK.json names, and what `perf` spawns)
//! bench perf [--workload W] [--seed S] [--seconds N] [--runs R]
//!            [--out FILE] [--trace-out FILE] [--append]
//!     every workload in its own child process, untraced then traced
//! bench check A.json [B.json]
//!     compare two result sets (or one against baseline.json) by the bounds
//! bench list
//!     workloads, metrics, units, directions, bounds
//! ```
//!
//! See `README.md` beside this package's manifest for what is measured and
//! why.

mod calib;
mod check;
mod defs;
mod env;
mod lib_workloads;
mod perf;
mod result;
mod served;
mod stats;
mod trace;

use defs::Workload;
use env::RunArgs;
use std::path::PathBuf;
use std::process::ExitCode;

/// `--flag value` pairs and bare switches, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{flag} expects a value"));
        }
        let value = self.0.remove(at + 1);
        self.0.remove(at);
        Ok(Some(value))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("{flag}: cannot read {raw:?}"))
            })
            .transpose()
    }

    fn switch(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn workload(&mut self) -> Result<Option<Workload>, String> {
        self.value("--workload")?
            .map(|name| {
                Workload::by_name(&name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })
            })
            .transpose()
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(flag) => Err(format!("unrecognised flag {flag}")),
            None => Ok(self.0),
        }
    }
}

fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        Err(
            "this is a debug build; timings of unoptimised code say nothing — build with --release"
                .to_string(),
        )
    } else {
        Ok(())
    }
}

/// One run of one workload in this process.
pub fn run_workload(args: &RunArgs) -> Result<result::RunResult, String> {
    match args.workload {
        Workload::LibBlock | Workload::LibUniform | Workload::LibProgressive => {
            lib_workloads::run(args)
        }
        Workload::ServedHot | Workload::ServedChurn => served::run(args),
    }
}

fn single_run(mut flags: Flags) -> Result<ExitCode, String> {
    refuse_debug_build()?;
    let args = RunArgs {
        workload: flags.workload()?.ok_or("--workload is required")?,
        seed: flags.parsed("--seed")?.unwrap_or(defs::DEFAULT_SEED),
        seconds: flags.parsed("--seconds")?.unwrap_or(defs::RUN_SECONDS),
        trace: match flags.parsed::<u8>("--trace")? {
            None | Some(0) => false,
            Some(1) => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        trace_out: flags.value("--trace-out")?.map(PathBuf::from),
        smoke: flags.switch("--smoke"),
    };
    if !(1..=60).contains(&args.seconds) {
        return Err(format!(
            "--seconds must be between 1 and 60, not {}",
            args.seconds
        ));
    }
    if let Some(extra) = flags.finish()?.first() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    // The served workloads drive the real daemon; building it here, whatever
    // the workload, puts the whole build into a checkout's first run.
    env::ensure_daemon()?;
    let result = run_workload(&args)?;
    eprint!("{}", result.render());
    println!("{}", result.driver_line());
    Ok(ExitCode::SUCCESS)
}

fn setup_child(mut flags: Flags) -> Result<ExitCode, String> {
    let workload = flags.workload()?.ok_or("--workload is required")?;
    let seed = flags.parsed("--seed")?.ok_or("--seed is required")?;
    let dir = flags
        .value("--dir")?
        .map(PathBuf::from)
        .ok_or("--dir is required")?;
    let smoke = flags.switch("--smoke");
    env::setup_child(workload, seed, smoke, &dir)?;
    Ok(ExitCode::SUCCESS)
}

fn dispatch() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(first) if !first.starts_with("--") => args.remove(0),
        _ => String::new(),
    };
    let flags = Flags(args);
    match command.as_str() {
        "" => single_run(flags),
        "perf" => {
            refuse_debug_build()?;
            perf::run(flags)
        }
        "check" => check::run(flags.finish()?),
        "list" => {
            print!("{}", check::list());
            Ok(ExitCode::SUCCESS)
        }
        "__setup" => setup_child(flags),
        other => Err(format!(
            "unknown command {other:?}; see the crate docs or README.md"
        )),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}

/// A `--smoke` run of each workload in each mode: tiny tables, about 1% of
/// the ops, the real daemon.  Every metric `BENCHMARK.json` lists for the
/// mode must come out exactly once, and every answer must pass its oracle.
#[cfg(test)]
mod smoke {
    use super::*;
    use samplecf_server::Json;
    use std::collections::BTreeSet;

    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    fn smoke(workload: Workload) {
        if matches!(workload, Workload::ServedHot | Workload::ServedChurn) {
            env::ensure_daemon().unwrap();
        }
        for trace in [false, true] {
            let trace_out = trace.then(|| env::Scratch::new().unwrap());
            let args = RunArgs {
                workload,
                seed: 7,
                seconds: defs::RUN_SECONDS,
                trace,
                trace_out: trace_out.as_ref().map(|dir| dir.path().join("spans.jsonl")),
                smoke: true,
            };
            let result = run_workload(&args).unwrap();
            assert!(result.correct, "{}", result.render());
            assert!(result.attempted >= 12 && result.failed == 0);

            let emitted: Vec<String> = result
                .metrics
                .iter()
                .map(|(name, _)| name.clone())
                .collect();
            assert_eq!(
                emitted,
                listed(if trace { "per_layer" } else { "end_to_end" })
            );
            assert_eq!(emitted.iter().collect::<BTreeSet<_>>().len(), emitted.len());
            if !trace {
                // End-to-end metrics are never 0: the driver divides by them.
                assert!(
                    result.metrics.iter().all(|(_, v)| *v > 0.0),
                    "{}",
                    result.render()
                );
            }
            if let Some(path) = &args.trace_out {
                let spans = std::fs::read_to_string(path).unwrap();
                // Library workloads trace every op, served ones every other
                // closed-loop request.
                assert!(spans.lines().count() >= 6);
                assert!(spans.lines().all(|line| Json::parse(line).is_ok()));
            }
            // The driver line carries exactly what the run found.
            let back =
                result::RunResult::from_driver_line(&result.driver_line(), workload, trace, 7);
            assert_eq!(back.unwrap(), result);
        }
    }

    #[test]
    fn lib_block() {
        smoke(Workload::LibBlock);
    }

    #[test]
    fn lib_uniform() {
        smoke(Workload::LibUniform);
    }

    #[test]
    fn lib_progressive() {
        smoke(Workload::LibProgressive);
    }

    #[test]
    fn served_hot() {
        smoke(Workload::ServedHot);
    }

    #[test]
    fn served_churn() {
        smoke(Workload::ServedChurn);
    }
}
