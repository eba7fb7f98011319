//! `bench check` and `bench list`: compare two result sets metric by
//! metric with the benchmark's own bounds, and print what the benchmark
//! measures.

use crate::defs::{Better, MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::result::{parse_result_set, RunResult};
use crate::stats;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The first measured numbers, committed beside the harness.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians cannot
    /// show whether the metric moved.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (metric, workload) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub verdict: Verdict,
    pub parent_median: f64,
    pub change_median: f64,
    /// Share of the parent's median by which the change is worse (negative
    /// when it is better).
    pub worse_by: f64,
    /// The wider of the two sides' quartile spreads, as a share of the median.
    pub spread: f64,
}

/// Judge one metric on one workload from each side's runs.
pub fn compare(def: &MetricDef, parent: &[f64], change: &[f64]) -> Comparison {
    let bound = def.bound.unwrap_or(0.0);
    let (parent_median, change_median) = (stats::median(parent), stats::median(change));
    let delta = match def.better {
        Better::Lower => change_median - parent_median,
        Better::Higher => parent_median - change_median,
    };
    let worse_by = if delta == 0.0 {
        0.0
    } else {
        delta / parent_median.abs()
    };
    let spread = stats::spread(parent).max(stats::spread(change));
    let better = |c: f64, p: f64| match def.better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if spread > bound {
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Comparison {
        verdict,
        parent_median,
        change_median,
        worse_by,
        spread,
    }
}

fn values(runs: &[RunResult], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metric(metric))
        .collect()
}

/// Compare every end-to-end metric of every workload the change covers.
pub fn report(parent: &[RunResult], change: &[RunResult]) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "worse by", "spread", "bound"
    );
    for workload in Workload::ALL.map(Workload::name) {
        if !change.iter().any(|r| r.workload == workload) {
            continue;
        }
        for failing in change
            .iter()
            .filter(|r| r.workload == workload && !r.correct)
        {
            let _ = writeln!(
                out,
                "{workload:<16} {} of {} ops failed — regressed",
                failing.failed, failing.attempted
            );
            regressed = true;
        }
        for def in &END_TO_END {
            let (p, c) = (
                values(parent, workload, def.name),
                values(change, workload, def.name),
            );
            if c.is_empty() {
                continue;
            }
            if p.is_empty() {
                return Err(format!("the parent set has no {} for {workload}", def.name));
            }
            let cmp = compare(def, &p, &c);
            regressed |= cmp.verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{workload:<16} {:<20} {:>14.5} {:>14.5} {:>+8.1}% {:>7.1}% {:>5.0}%  {}",
                def.name,
                cmp.parent_median,
                cmp.change_median,
                cmp.worse_by * 100.0,
                cmp.spread * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                cmp.verdict.label()
            );
        }
    }
    Ok((out, regressed))
}

pub fn run(files: Vec<String>) -> Result<ExitCode, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| parse_result_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (parent, change) = match files.as_slice() {
        [change] => (read(BASELINE)?, read(change)?),
        [parent, change] => (read(parent)?, read(change)?),
        _ => return Err("usage: bench check A.json [B.json]".to_string()),
    };
    let (text, regressed) = report(&parent, &change)?;
    print!("{text}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// What the benchmark measures: workloads, metrics, units, directions, bounds.
pub fn list() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workloads");
    for w in Workload::ALL {
        let _ = writeln!(out, "  {:<16} {}", w.name(), w.why());
    }
    let _ = writeln!(
        out,
        "end-to-end metrics (untraced run; every workload reports every one)"
    );
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "  {:<48} {:<6} {:<6} is better, may worsen by {:.0}%",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.unwrap_or(0.0) * 100.0
        );
    }
    let _ = writeln!(
        out,
        "per-layer metrics (traced run; 0 where a workload never enters the layer)"
    );
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<48} {:<6} {:<6} is better",
            m.name,
            m.unit,
            m.better.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs;

    fn def(name: &str) -> &'static MetricDef {
        defs::metric(name).unwrap()
    }

    #[test]
    fn verdicts_honour_direction_and_bound() {
        let lower = def("latency_p50_ms");
        let bound = lower.bound.unwrap();
        let within = 10.0 * (1.0 + bound * 0.9);
        let beyond = 10.0 * (1.0 + bound * 1.5);
        assert_eq!(compare(lower, &[10.0], &[within]).verdict, Verdict::Ok);
        assert_eq!(
            compare(lower, &[10.0], &[beyond]).verdict,
            Verdict::Regressed
        );
        assert_eq!(compare(lower, &[10.0], &[5.0]).verdict, Verdict::Ok);
        assert!((compare(lower, &[10.0], &[beyond]).worse_by - bound * 1.5).abs() < 1e-12);
        assert!(compare(lower, &[10.0], &[5.0]).worse_by < 0.0);

        let higher = def("ops_per_s");
        let bound = higher.bound.unwrap();
        let within = 100.0 * (1.0 - bound * 0.9);
        let beyond = 100.0 * (1.0 - bound * 1.5);
        assert_eq!(compare(higher, &[100.0], &[within]).verdict, Verdict::Ok);
        assert_eq!(
            compare(higher, &[100.0], &[beyond]).verdict,
            Verdict::Regressed
        );
        assert_eq!(compare(higher, &[100.0], &[150.0]).verdict, Verdict::Ok);
        assert_eq!(compare(higher, &[100.0], &[100.0]).worse_by, 0.0);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let lower = def("latency_p50_ms");
        assert!(lower.bound.unwrap() < 0.5);
        // Quartiles 55% of the median apart: wider than any bound.
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(compare(lower, &noisy, &noisy).verdict, Verdict::Unresolved);
        let worse = [20.0, 21.0, 22.0, 23.0];
        assert_eq!(compare(lower, &noisy, &worse).verdict, Verdict::Unresolved);
        // Every run of the change beats every run of the parent.
        assert_eq!(
            compare(lower, &noisy, &[5.0, 6.0, 7.0, 7.5]).verdict,
            Verdict::Ok
        );
        // A tight spread resolves.
        let tight = [10.0, 10.1, 10.2, 10.3];
        assert_eq!(compare(lower, &tight, &tight).verdict, Verdict::Ok);
        let doubled = [20.0, 20.2, 20.4, 20.6];
        assert_eq!(compare(lower, &tight, &doubled).verdict, Verdict::Regressed);
    }

    #[test]
    fn the_report_covers_each_metric_of_each_workload_once_and_flags_regressions() {
        let run = |workload: Workload, scale: f64, failed: u64| {
            let mut sheet = crate::result::Sheet::new(false);
            for m in &END_TO_END {
                let worse = if m.better == Better::Lower {
                    scale
                } else {
                    1.0 / scale
                };
                sheet.set(m.name, 10.0 * worse);
            }
            RunResult::new(workload, false, 1, 100, failed, sheet).unwrap()
        };
        let parent = [
            run(Workload::LibBlock, 1.0, 0),
            run(Workload::ServedHot, 1.0, 0),
        ];
        let (same, regressed) = report(&parent, &parent).unwrap();
        assert!(!regressed);
        assert_eq!(same.matches(" ok").count(), 2 * END_TO_END.len());
        assert!(!same.contains("lib_uniform"));

        let (text, regressed) = report(&parent, &[run(Workload::LibBlock, 2.0, 0)]).unwrap();
        assert!(regressed);
        assert_eq!(text.matches("regressed").count(), END_TO_END.len());

        let (text, regressed) = report(&parent, &[run(Workload::LibBlock, 1.0, 3)]).unwrap();
        assert!(regressed && text.contains("3 of 100 ops failed"));
        assert!(report(&[], &parent).is_err());
    }

    #[test]
    fn list_names_every_workload_and_metric() {
        let text = list();
        for w in Workload::ALL {
            assert!(text.contains(w.name()));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert_eq!(
                text.matches(&format!("  {} ", m.name)).count(),
                1,
                "{}",
                m.name
            );
        }
    }
}
