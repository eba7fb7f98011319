//! Results: the metric sheet a run fills in, the one-line JSON the driver
//! reads, and the result-set files `bench perf` writes and `bench check`
//! compares.  All JSON goes through the daemon's own `Json` kernel.

use crate::defs::{self, MetricDef, Workload, END_TO_END, PER_LAYER};
use samplecf_server::Json;

/// The metrics of one run, one slot per metric the run's mode reports.
#[derive(Debug)]
pub struct Sheet {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Sheet {
    /// End-to-end metrics for an untraced run, per-layer ones for a traced.
    pub fn new(trace: bool) -> Sheet {
        let defs: &'static [MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
        Sheet {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Fill in one metric.  An unknown name or a second value for the same
    /// metric is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this mode"));
        assert!(self.values[slot].is_none(), "{name} was set twice");
        self.values[slot] = Some(value);
    }

    /// Every metric of the mode exactly once, in definition order.  A layer
    /// the workload never entered reads 0; an end-to-end metric left unset
    /// is an error, since every workload reports every one.
    pub fn finish(self) -> Result<Vec<(&'static str, f64)>, String> {
        self.defs
            .iter()
            .zip(self.values)
            .map(|(def, value)| match value {
                Some(v) if v.is_finite() => Ok((def.name, v)),
                Some(v) => Err(format!("{} is not finite ({v})", def.name)),
                None if def.bound.is_none() => Ok((def.name, 0.0)),
                None => Err(format!("{} was not measured", def.name)),
            })
            .collect()
    }
}

/// What one run of one workload found.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    /// Every op was answered and every answer passed its oracle.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    pub fn new(
        workload: Workload,
        trace: bool,
        seed: u64,
        attempted: u64,
        failed: u64,
        sheet: Sheet,
    ) -> Result<RunResult, String> {
        Ok(RunResult {
            workload: workload.name().to_string(),
            trace,
            seed,
            correct: failed == 0 && attempted > 0,
            attempted,
            failed,
            metrics: sheet
                .finish()?
                .into_iter()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn metrics_json(&self) -> Json {
        self.metrics.iter().fold(Json::obj(), |obj, (name, value)| {
            let unit = defs::metric(name).map_or("", |d| d.unit);
            obj.field(
                name.clone(),
                Json::obj()
                    .field("value", Json::Num(*value))
                    .field("unit", Json::str(unit)),
            )
        })
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_line(&self) -> String {
        Json::obj()
            .field("correct", Json::Bool(self.correct))
            .field("attempted", Json::uint(self.attempted))
            .field("failed", Json::uint(self.failed))
            .field("metrics", self.metrics_json())
            .to_line()
    }

    /// Read a driver line back; the caller knows which run it belongs to.
    pub fn from_driver_line(
        line: &str,
        workload: Workload,
        trace: bool,
        seed: u64,
    ) -> Result<RunResult, String> {
        let doc = Json::parse(line.trim())?;
        let mut run = RunResult::from_json(&doc)?;
        run.workload = workload.name().to_string();
        run.trace = trace;
        run.seed = seed;
        Ok(run)
    }

    /// One entry of a result set's `runs` array.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("workload", Json::str(self.workload.clone()))
            .field("trace", Json::Bool(self.trace))
            .field("seed", Json::uint(self.seed))
            .field("correct", Json::Bool(self.correct))
            .field("attempted", Json::uint(self.attempted))
            .field("failed", Json::uint(self.failed))
            .field("metrics", self.metrics_json())
    }

    /// Parse a `runs` entry (or a driver line, whose run identity the caller
    /// fills in).  Names are checked against the permitted alphabet here,
    /// where they enter the program.
    pub fn from_json(doc: &Json) -> Result<RunResult, String> {
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        if !defs::valid_name(workload) {
            return Err(format!(
                "workload name {workload:?} is not made of [A-Za-z0-9_.-]"
            ));
        }
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("result lacks a whole number {key}"))
        };
        let Some(Json::Obj(members)) = doc.get("metrics") else {
            return Err("result lacks a metrics object".to_string());
        };
        let metrics = members
            .iter()
            .map(|(name, entry)| {
                if !defs::valid_name(name) {
                    return Err(format!(
                        "metric name {name:?} is not made of [A-Za-z0-9_.-]"
                    ));
                }
                entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .map(|value| (name.clone(), value))
                    .ok_or_else(|| format!("metric {name} has no numeric value"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunResult {
            workload: workload.to_string(),
            trace: doc.get("trace").and_then(Json::as_bool).unwrap_or(false),
            seed: doc.get("seed").and_then(Json::as_u64).unwrap_or(0),
            correct: doc
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("result lacks correct")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    /// Every metric by name with its unit and direction, for people.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} ({}, seed {}): {} ops attempted, {} failed{}",
            self.workload,
            if self.trace { "traced" } else { "untraced" },
            self.seed,
            self.attempted,
            self.failed,
            if self.correct {
                ""
            } else {
                "  ** NOT CORRECT **"
            },
        );
        for (name, value) in &self.metrics {
            let (unit, better) =
                defs::metric(name).map_or(("", ""), |d| (d.unit, d.better.label()));
            let _ = writeln!(
                out,
                "  {name:<48} {value:>16.6} {unit:<6} ({better} is better)"
            );
        }
        out
    }
}

/// A result set as text: the `machine` block and the runs taken on it, one
/// run per line so that the file stays small and diffs by run.
pub fn result_set_text(machine: &Json, seconds: u64, runs: &[RunResult]) -> String {
    let runs: Vec<String> = runs.iter().map(|run| run.to_json().to_line()).collect();
    format!(
        "{{\"machine\": {}, \"seconds\": {seconds}, \"runs\": [\n{}\n]}}\n",
        machine.to_line(),
        runs.join(",\n")
    )
}

/// Read the runs of a result-set file.
pub fn parse_result_set(text: &str) -> Result<Vec<RunResult>, String> {
    let doc = Json::parse(text.trim())?;
    doc.get("runs")
        .and_then(Json::as_array)
        .ok_or("result set lacks a runs array")?
        .iter()
        .map(RunResult::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_sheet(trace: bool) -> Sheet {
        let mut sheet = Sheet::new(trace);
        let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
        for (i, def) in defs.iter().enumerate() {
            sheet.set(def.name, 0.1 + i as f64 / 3.0);
        }
        sheet
    }

    #[test]
    fn results_round_trip_through_the_servers_json() {
        for trace in [false, true] {
            let run = RunResult::new(Workload::ServedChurn, trace, 42, 480, 0, full_sheet(trace))
                .unwrap();
            assert!(run.correct);

            let back =
                RunResult::from_driver_line(&run.driver_line(), Workload::ServedChurn, trace, 42)
                    .unwrap();
            assert_eq!(back, run);

            let machine = Json::obj().field("cores", Json::uint(2));
            let text = result_set_text(&machine, 10, &[run.clone(), run.clone()]);
            assert_eq!(text.lines().count(), 4);
            assert_eq!(parse_result_set(&text).unwrap(), vec![run.clone(), run]);
            assert!(parse_result_set(&result_set_text(&machine, 10, &[]))
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn the_driver_line_has_exactly_the_contract_keys() {
        let run = RunResult::new(Workload::LibBlock, false, 1, 10, 1, full_sheet(false)).unwrap();
        assert!(!run.correct);
        let doc = Json::parse(&run.driver_line()).unwrap();
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(!run.driver_line().contains('\n'));
    }

    #[test]
    fn sheets_fill_untouched_layers_with_zero_and_refuse_gaps() {
        let mut traced = Sheet::new(true);
        traced.set("storage.busy_share", 0.5);
        let metrics = traced.finish().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics.iter().filter(|(_, v)| *v != 0.0).count(), 1);

        let mut untraced = Sheet::new(false);
        untraced.set("setup_s", 1.0);
        assert!(untraced.finish().unwrap_err().contains("was not measured"));

        let mut bad = full_sheet(false);
        bad.values[0] = Some(f64::NAN);
        assert!(bad.finish().unwrap_err().contains("not finite"));
    }

    #[test]
    fn names_outside_the_alphabet_are_refused() {
        let line = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"bad name":{"value":1,"unit":"s"}}}"#;
        assert!(RunResult::from_json(&Json::parse(line).unwrap())
            .unwrap_err()
            .contains("bad name"));
        let set =
            r#"{"runs":[{"workload":"a/b","correct":true,"attempted":1,"failed":0,"metrics":{}}]}"#;
        assert!(parse_result_set(set).unwrap_err().contains("a/b"));
    }
}
