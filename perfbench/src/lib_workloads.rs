//! The three in-process workloads: `lib_block`, `lib_uniform` and
//! `lib_progressive`.  One thread, closed loop, `threads(1)`: each op is one
//! call into the estimator on a disk-resident table, checked against the
//! exhaustive oracle.
//!
//! The traced run measures each layer from outside.  For the one-shot
//! workloads it replays, call by public call, the chain `SampleCf::estimate`
//! runs for a streaming sampler (one checkpoint of `ProgressiveCf::run`),
//! with a span around every call and a [`TimedSource`] under the stream;
//! the replayed answer must equal the estimator's bit for bit, and the
//! replayed root span must account for the estimator's own latency
//! (`harness.ledger_coverage`), or the replay no longer mirrors the code.
//! For the progressive workload it hands the estimator a private metrics
//! registry — the instruments production exports — and times the page reads
//! underneath.

use crate::calib::{self, SpeedLog};
use crate::defs::{self, Workload};
use crate::env::{self, op_seed, Oracle, RunArgs, Scratch};
use crate::result::{RunResult, Sheet};
use crate::stats;
use crate::trace::{self, self_times, Span, TimedSource, Tracer, READ_PAGE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use samplecf_compression::{measure_cells, scheme_by_name, CellChunk, CompressionScheme};
use samplecf_core::{
    ratio_error, CfMeasurement, DataStatsAccumulator, ProgressiveCf, ProgressiveConfig,
    ProgressiveMetrics, ProgressiveReport, SampleCf,
};
use samplecf_index::{measure_index, BTreeIndex, IndexBuilder, IndexSpec, SortedRun};
use samplecf_obs::{MetricValue, MetricsRegistry, RegistrySnapshot};
use samplecf_sampling::{Allocation, BatchSchedule, MaterializedSample, SamplerKind, StrataMode};
use samplecf_storage::{CellRef, CountingSource, DiskTable, TableSource};
use std::collections::BTreeMap;
use std::time::Instant;

/// Root span of a replayed one-shot estimate.
const ROOT_ESTIMATE: &str = "core.estimate";
/// Root span of a traced progressive run.
const ROOT_PROGRESSIVE: &str = "core.progressive_run";

/// One op of a workload: everything the estimator is given besides the
/// table.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: SamplerKind,
    seed: u64,
    scheme: usize,
}

/// What the estimator answered.
struct Answer {
    measurement: CfMeasurement,
    pages: u64,
    /// Set by the progressive workload only.
    progressive: Option<ProgressiveReport>,
}

/// One measured op.
struct Record {
    latency_ns: u64,
    /// Speed of the box just after the op (`calib::box_speed`).
    speed: f64,
    pages: u64,
    ratio_error: f64,
    /// The reported interval contains the exact CF (true for ops that
    /// return no interval).
    covered: bool,
    failed: bool,
    /// The answer, kept by traced runs to compare the replay against.
    answer: Option<Answer>,
}

struct LibEnv {
    oracle: Oracle,
    disk: DiskTable,
    // Dropped last: the table file lives in it.
    _scratch: Scratch,
}

struct Lib<'a> {
    args: &'a RunArgs,
    spec: IndexSpec,
    builder: IndexBuilder,
    schemes: Vec<Box<dyn CompressionScheme>>,
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let schemes = env::oracle_schemes(args.workload)
        .iter()
        .map(|name| scheme_by_name(name).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let lib = Lib {
        args,
        spec: env::index_spec(),
        builder: IndexBuilder::new().threads(1),
        schemes,
    };
    let ops = args.ops(args.workload.base_ops());

    let (env, setup_s) = env::repeat_set_up(args.smoke, || lib.set_up())?;
    let setup_s = setup_s + lib.warm_up(&env, ops)?;

    let mut sheet = Sheet::new(args.trace);
    let (attempted, failed) = if args.trace {
        lib.traced(&env, ops, &mut sheet)?
    } else {
        sheet.set("setup_s", setup_s);
        lib.untraced(&env, ops, &mut sheet)?
    };
    RunResult::new(
        args.workload,
        args.trace,
        args.seed,
        attempted,
        failed,
        sheet,
    )
}

impl Lib<'_> {
    fn op(&self, i: usize) -> Op {
        let kind = match self.args.workload {
            Workload::LibBlock => SamplerKind::Block(defs::BLOCK_FRACTION),
            Workload::LibUniform => SamplerKind::UniformWithReplacement(defs::UNIFORM_FRACTION),
            // Three of five ops are block runs, which always go to the cap
            // and so cost the same: p50 and p90 then lie inside one cluster
            // of latencies.  With the samplers a third each, p50 fell among
            // the uniform runs, whose cost jumps with the checkpoint they
            // stop at, and moved 45% from one table seed to the next.
            _ => match i % 5 {
                0 => SamplerKind::UniformWithReplacement(defs::PROGRESSIVE_CAP),
                2 => SamplerKind::Stratified {
                    fraction: defs::PROGRESSIVE_CAP,
                    strata: defs::PROGRESSIVE_STRATA,
                    alloc: Allocation::Neyman,
                    mode: StrataMode::EquiWidth,
                },
                _ => SamplerKind::Block(defs::PROGRESSIVE_CAP),
            },
        };
        Op {
            kind,
            seed: op_seed(self.args.seed, i as u64),
            scheme: i % self.schemes.len(),
        }
    }

    fn scheme_name(&self, op: &Op) -> &'static str {
        env::oracle_schemes(self.args.workload)[op.scheme]
    }

    /// Generate the table and its oracles (in the set-up child) and open
    /// the table; returns the mean box speed while doing so.
    fn set_up(&self) -> Result<(LibEnv, f64), String> {
        let mut speeds = SpeedLog::default();
        speeds.sample();
        let scratch = Scratch::new()?;
        let oracle = env::run_setup_child(self.args, scratch.path())?;
        speeds.extend(&oracle.speeds);
        let disk =
            DiskTable::open(&oracle.table_path).map_err(|e| format!("opening the table: {e}"))?;
        if disk.num_rows() != oracle.rows || disk.num_pages() != oracle.pages {
            return Err("the table file does not match what the set-up child reported".to_string());
        }
        speeds.sample();
        let env = LibEnv {
            oracle,
            disk,
            _scratch: scratch,
        };
        Ok((env, speeds.mean()))
    }

    /// Untimed ops before measurement; returns the seconds they took at box
    /// speed 1.  The table file was just written, so it sits in the OS page
    /// cache either way: page reads cost what this sandbox's memory costs,
    /// not a device's.
    fn warm_up(&self, env: &LibEnv, ops: usize) -> Result<f64, String> {
        // Warm-up ops take indices past the measured ones.
        let mut seconds = 0.0;
        for i in ops..ops + self.args.warmup(ops) {
            let record = self.measured_op(env, i, false);
            if record.failed {
                return Err(format!("warm-up op {i} failed"));
            }
            seconds += record.latency_ns as f64 / 1e9 * record.speed;
        }
        Ok(seconds)
    }

    /// One call into the estimator, page reads counted.
    fn answer(
        &self,
        source: &dyn TableSource,
        op: &Op,
        metrics: ProgressiveMetrics,
    ) -> Result<Answer, String> {
        let scheme = self.schemes[op.scheme].as_ref();
        let counting = CountingSource::new(source);
        if self.args.workload == Workload::LibProgressive {
            let config = ProgressiveConfig {
                target_error: defs::PROGRESSIVE_TARGET_ERROR,
                confidence: defs::PROGRESSIVE_CONFIDENCE,
                schedule: BatchSchedule::new(defs::PROGRESSIVE_INITIAL, defs::PROGRESSIVE_GROWTH)
                    .map_err(|e| e.to_string())?,
            };
            let report = ProgressiveCf::new(op.kind, config)
                .seed(op.seed)
                .threads(1)
                .metrics(metrics)
                .run(&counting, &self.spec, scheme)
                .map_err(|e| e.to_string())?;
            Ok(Answer {
                measurement: report.measurement.clone(),
                pages: counting.pages_read(),
                progressive: Some(report),
            })
        } else {
            let measurement = SampleCf::new(op.kind)
                .seed(op.seed)
                .threads(1)
                .estimate(&counting, &self.spec, scheme)
                .map_err(|e| e.to_string())?;
            Ok(Answer {
                measurement,
                pages: counting.pages_read(),
                progressive: None,
            })
        }
    }

    /// Time one op and judge its answer against the oracle.
    fn measured_op(&self, env: &LibEnv, i: usize, keep_answer: bool) -> Record {
        let op = self.op(i);
        let started = Instant::now();
        let answer = self.answer(&env.disk, &op, ProgressiveMetrics::default());
        let latency_ns = started.elapsed().as_nanos() as u64;
        let speed = calib::box_speed();
        let answer = match answer {
            Ok(answer) => answer,
            Err(e) => {
                eprintln!("op {i} failed: {e}");
                return Record {
                    latency_ns,
                    speed,
                    pages: 0,
                    ratio_error: 1.0,
                    covered: false,
                    failed: true,
                    answer: None,
                };
            }
        };
        let exact = env.oracle.exact(self.scheme_name(&op));
        let cf = answer.measurement.cf;
        let error = ratio_error(cf, exact);
        let sound = cf.is_finite() && cf > 0.0 && error <= self.args.ratio_error_ceiling();
        if !sound {
            eprintln!(
                "op {i} ({}, {}): cf {cf} against exact {exact} is outside the ceiling",
                op.kind.label(),
                self.scheme_name(&op)
            );
        }
        let covered = match &answer.progressive {
            Some(report) => report
                .ci()
                .is_some_and(|(low, high)| low <= exact && exact <= high),
            None => true,
        };
        Record {
            latency_ns,
            speed,
            pages: answer.pages,
            ratio_error: if sound { error } else { 1.0 },
            covered,
            failed: !sound,
            answer: keep_answer.then_some(answer),
        }
    }

    fn untraced(&self, env: &LibEnv, ops: usize, sheet: &mut Sheet) -> Result<(u64, u64), String> {
        let records: Vec<Record> = (0..ops).map(|i| self.measured_op(env, i, false)).collect();

        if !self.args.smoke && stats::reportable_percentile(ops, 90.0) != Some(90.0) {
            return Err(format!("{ops} ops leave fewer than ten samples beyond p90"));
        }
        // Each latency at reference speed: scaled by the box speed measured
        // right after the op.
        let raw_ms: Vec<f64> = records.iter().map(|r| r.latency_ns as f64 / 1e6).collect();
        let adjusted_ms: Vec<f64> = records
            .iter()
            .map(|r| r.latency_ns as f64 / 1e6 * r.speed)
            .collect();
        let speeds: Vec<f64> = records.iter().map(|r| r.speed).collect();
        eprintln!(
            "{ops} ops, service time, table in the OS page cache; as measured: {:.2} ops/s, p50 {:.3} ms, \
             p90 {:.3} ms at a median box speed of {:.3} — the metrics below are at box speed 1",
            ops as f64 / (raw_ms.iter().sum::<f64>() / 1e3),
            stats::percentile(&raw_ms, 50.0),
            stats::percentile(&raw_ms, 90.0),
            stats::median(&speeds),
        );
        sheet.set(
            "ops_per_s",
            ops as f64 / (adjusted_ms.iter().sum::<f64>() / 1e3),
        );
        sheet.set("latency_p50_ms", stats::percentile(&adjusted_ms, 50.0));
        sheet.set("latency_p90_ms", stats::percentile(&adjusted_ms, 90.0));
        sheet.set(
            "pages_read_per_op",
            records.iter().map(|r| r.pages).sum::<u64>() as f64 / ops as f64,
        );
        sheet.set("peak_rss_mb", env::peak_rss_mb(None)?);
        let errors: Vec<f64> = records.iter().map(|r| r.ratio_error).collect();
        eprintln!(
            "worst ratio error of any op: {:.4}",
            errors.iter().copied().fold(1.0, f64::max)
        );
        sheet.set("ratio_error_p95", stats::percentile(&errors, 95.0));
        sheet.set(
            "ci_coverage",
            records.iter().filter(|r| r.covered).count() as f64 / ops as f64,
        );
        let failed = records.iter().filter(|r| r.failed).count();
        Ok((ops as u64, failed as u64))
    }

    fn traced(&self, env: &LibEnv, ops: usize, sheet: &mut Sheet) -> Result<(u64, u64), String> {
        let tracer = Tracer::new();
        let registry = MetricsRegistry::new();
        let mut tally = LayerTally::default();
        let mut plain_ns = Vec::with_capacity(ops);
        let mut failed = 0u64;

        for i in 0..ops {
            tracer.set_op(i as u32);
            // The estimator as users call it: the denominator of
            // ledger_coverage and the answer the traced chain must equal.
            let record = self.measured_op(env, i, true);
            plain_ns.push(record.latency_ns as f64);
            tally.speeds.push(record.speed);
            let Some(plain) = &record.answer else {
                failed += 1;
                continue;
            };
            let op = self.op(i);
            let identical = if self.args.workload == Workload::LibProgressive {
                self.traced_progressive(env, &tracer, &registry, &op, plain, &mut tally)
            } else {
                self.replay_one_shot(env, &tracer, &op, plain, &mut tally)
            }
            .map_err(|e| format!("traced op {i} failed: {e}"))?;
            if record.failed || !identical {
                if !identical {
                    eprintln!("op {i}: the traced chain's answer differs from the estimator's");
                }
                failed += 1;
            }
        }

        let spans = tracer.take();
        if let Some(path) = &self.args.trace_out {
            trace::write_spans(path, &spans)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        tally.report(&spans, &registry.snapshot(), &plain_ns, sheet);
        Ok((ops as u64, failed))
    }

    /// Replay the one-shot chain under spans; returns whether the replayed
    /// measurement (and the one rebuilt from records) equals `plain`.
    fn replay_one_shot(
        &self,
        env: &LibEnv,
        tracer: &Tracer,
        op: &Op,
        plain: &Answer,
        tally: &mut LayerTally,
    ) -> Result<bool, String> {
        let scheme = self.schemes[op.scheme].as_ref();
        let timed = TimedSource::new(&env.disk, tracer);
        let (replayed, index) = self
            .replay_chain(&timed, tracer, op, scheme)
            .map_err(|e| e.to_string())?;
        tally.failed_reads += timed.failed_reads();
        tally.rows += replayed.data.rows as u64;
        let mut identical = replayed.cf.to_bits() == plain.measurement.cf.to_bits()
            && replayed.data == plain.measurement.data
            && replayed.report == plain.measurement.report;

        // Side measurements, outside the root span.
        let kernel_ns = time_kernels(&index, scheme)?;
        tally.kernel_ns += kernel_ns;
        tally
            .kernel_by_scheme
            .entry(self.scheme_name(op))
            .or_default()
            .push(kernel_ns as f64);

        // The cached/advisor entry point: the same draw materialised, then
        // bulk-loaded from its borrowed records.
        let mut stream = op
            .kind
            .stream(BatchSchedule::one_shot())
            .map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(op.seed);
        let sample = MaterializedSample::from_stream(&env.disk, stream.as_mut(), &mut rng, op.seed)
            .map_err(|e| e.to_string())?;
        let records = sample.records().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let from_records = self
            .builder
            .build_from_records(sample.table().schema(), &records, &self.spec)
            .map_err(|e| e.to_string())?;
        tally
            .build_records_ns
            .push(started.elapsed().as_nanos() as f64);
        let remeasured = measure_index(&from_records, scheme).map_err(|e| e.to_string())?;
        identical &= remeasured.cf().to_bits() == plain.measurement.cf.to_bits();
        Ok(identical)
    }

    /// The calls `ProgressiveCf::run` makes for a single-checkpoint
    /// schedule, in its order, each under a span of the layer it enters.
    fn replay_chain(
        &self,
        source: &dyn TableSource,
        tracer: &Tracer,
        op: &Op,
        scheme: &dyn CompressionScheme,
    ) -> Result<(CfMeasurement, BTreeIndex), Box<dyn std::error::Error>> {
        let _root = tracer.span(ROOT_ESTIMATE);
        let started = Instant::now();
        let schema = source.schema().clone();
        let first_key = self.spec.key_indexes(&schema)?[0];
        let counting = CountingSource::new(source);
        let mut stream = {
            let _span = tracer.span("sampling.stream");
            op.kind.stream(BatchSchedule::one_shot())?
        };
        let mut rng = StdRng::seed_from_u64(op.seed);
        let mut stats = DataStatsAccumulator::new();
        let mut merged = SortedRun::new();
        let mut last = None;
        loop {
            let batch = {
                let _span = tracer.span("sampling.next_batch");
                stream.next_batch(&counting, &mut rng)?
            };
            if batch.is_empty() {
                break;
            }
            {
                let _span = tracer.span("core.stats");
                for (_, row) in &batch {
                    stats.observe(row.value(first_key));
                }
            }
            let run = {
                let _span = tracer.span("index.sort_run");
                SortedRun::from_rows(&schema, &batch, &self.spec)?
            };
            merged = {
                let _span = tracer.span("index.merge");
                merged.merge(&run)
            };
            let index = {
                let _span = tracer.span("index.build");
                self.builder
                    .build_from_sorted_run(&schema, &self.spec, &merged)?
            };
            let report = {
                let _span = tracer.span("index.measure");
                measure_index(&index, scheme)?
            };
            last = Some((index, report));
        }
        let (index, report) = last.ok_or("the stream drew no rows")?;
        {
            // The estimator frees its stream (and the decoded pages a row
            // stream caches) when it returns; that is the sampling layer's
            // work, not glue.
            let _span = tracer.span("sampling.release");
            drop(stream);
        }
        let _span = tracer.span("core.report");
        let measurement = CfMeasurement {
            cf: report.cf(),
            cf_with_pointers: report.cf_with_pointers(),
            cf_pages: report.cf_pages(),
            scheme: report.scheme.clone(),
            sampler: op.kind.label(),
            data: stats.snapshot(),
            elapsed: started.elapsed(),
            report,
        };
        Ok((measurement, index))
    }

    /// Run one progressive op over a timed source with live instruments.
    fn traced_progressive(
        &self,
        env: &LibEnv,
        tracer: &Tracer,
        registry: &MetricsRegistry,
        op: &Op,
        plain: &Answer,
        tally: &mut LayerTally,
    ) -> Result<bool, String> {
        let timed = TimedSource::new(&env.disk, tracer);
        let traced = {
            let _root = tracer.span(ROOT_PROGRESSIVE);
            self.answer(&timed, op, ProgressiveMetrics::register_in(registry))?
        };
        tally.failed_reads += timed.failed_reads();
        let report = traced
            .progressive
            .as_ref()
            .expect("progressive ops carry their report");
        tally.rows += report.measurement.data.rows as u64;
        tally.checkpoints += report.checkpoints.len() as u64;
        tally.early_stops += u64::from(report.stopped_early);
        tally.targets_met += u64::from(report.target_met);
        if let Some(last) = report.final_checkpoint() {
            tally.stop_fractions.push(last.fraction);
            tally.rel_half_widths.extend(last.relative_half_width());
        }
        Ok(
            traced.measurement.cf.to_bits() == plain.measurement.cf.to_bits()
                && traced.pages == plain.pages
                && report.checkpoints
                    == plain
                        .progressive
                        .as_ref()
                        .map_or(&[][..], |p| &p.checkpoints),
        )
    }
}

/// Time `scheme`'s size kernel over the index's leaf cells, re-chunked the
/// way `measure_index` chunks them (one chunk per leaf page per stored
/// column).  Only the `measure_cells` calls are timed.
fn time_kernels(index: &BTreeIndex, scheme: &dyn CompressionScheme) -> Result<u64, String> {
    let schema = index.table_schema();
    let stored = index.stored_column_indexes();
    let mut offset = stored.len().div_ceil(8);
    let mut kernel_ns = 0u64;
    for (pos, &column) in stored.iter().enumerate() {
        let datatype = schema.column_at(column).datatype;
        let width = datatype.uncompressed_width();
        let chunks = index
            .leaf_pages()
            .iter()
            .map(|page| {
                let cells = page
                    .records()
                    .map(|record| {
                        let is_null = record[pos / 8] & (1 << (pos % 8)) != 0;
                        CellRef::new(is_null, &record[offset..offset + width])
                    })
                    .collect();
                CellChunk::new(datatype, cells)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        offset += width;
        let started = Instant::now();
        let outcome = measure_cells(scheme, &chunks).map_err(|e| e.to_string())?;
        kernel_ns += started.elapsed().as_nanos() as u64;
        std::hint::black_box(outcome);
    }
    Ok(kernel_ns)
}

/// Counts and side timings gathered next to the spans of a traced run.
#[derive(Default)]
struct LayerTally {
    rows: u64,
    failed_reads: u64,
    kernel_ns: u64,
    kernel_by_scheme: BTreeMap<&'static str, Vec<f64>>,
    build_records_ns: Vec<f64>,
    checkpoints: u64,
    early_stops: u64,
    targets_met: u64,
    stop_fractions: Vec<f64>,
    rel_half_widths: Vec<f64>,
    /// Box speed sampled after each op's untraced execution.
    speeds: Vec<f64>,
}

fn histogram_sum(snapshot: &RegistrySnapshot, name: &str) -> u64 {
    match snapshot.get(name) {
        Some(MetricValue::Histogram(h)) => h.sum,
        _ => 0,
    }
}

fn counter(snapshot: &RegistrySnapshot, name: &str) -> u64 {
    match snapshot.get(name) {
        Some(MetricValue::Counter(n)) => *n,
        _ => 0,
    }
}

impl LayerTally {
    /// Turn spans, instruments and side timings into the per-layer metrics.
    fn report(
        &self,
        spans: &[Span],
        registry: &RegistrySnapshot,
        plain_ns: &[f64],
        sheet: &mut Sheet,
    ) {
        let own = self_times(spans);
        // Per span name: (summed duration, summed self time, count).
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, own_ns) in spans.iter().zip(&own) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += span.duration_ns();
            entry.1 += own_ns;
            entry.2 += 1;
        }
        let duration = |name: &str| by_name.get(name).map_or(0, |e| e.0) as f64;
        let layer_self = |layer: &str| {
            spans
                .iter()
                .zip(&own)
                .filter(|(span, _)| span.layer() == layer)
                .map(|(_, own_ns)| *own_ns)
                .sum::<u64>() as f64
        };
        let roots = by_name
            .get(ROOT_ESTIMATE)
            .or_else(|| by_name.get(ROOT_PROGRESSIVE))
            .copied()
            .unwrap_or_default();
        let (root_ns, ops) = (roots.0 as f64, roots.2.max(1) as f64);
        let per_op_ms = |ns: f64| ns / ops / 1e6;

        let reads = by_name.get(READ_PAGE).copied().unwrap_or_default();
        sheet.set(
            "storage.read_page_us",
            reads.0 as f64 / reads.2.max(1) as f64 / 1e3,
        );
        sheet.set("storage.read_page_calls_per_op", reads.2 as f64 / ops);
        sheet.set("storage.busy_share", layer_self("storage") / root_ns);
        sheet.set("storage.failed_reads", self.failed_reads as f64);
        sheet.set("sampling.rows_per_op", self.rows as f64 / ops);
        sheet.set(
            "sampling.rows_per_page_read",
            self.rows as f64 / reads.2.max(1) as f64,
        );
        // Per op, replayed root span ÷ the estimator's own latency, measured
        // back to back and so in the same state of the shared box; the
        // median ratio is what a neighbour's burst cannot move.
        let coverage: Vec<f64> = spans
            .iter()
            .filter(|span| span.parent.is_none())
            .filter_map(|root| Some(root.duration_ns() as f64 / plain_ns.get(root.op as usize)?))
            .collect();
        sheet.set("harness.ledger_coverage", stats::median(&coverage));
        sheet.set("harness.box_speed", stats::median(&self.speeds));

        if by_name.contains_key(ROOT_PROGRESSIVE) {
            // The estimator's own draw and measure timers split the root;
            // the page reads nested in the draws are storage's.
            let draw_ns = histogram_sum(registry, "samplecf_progressive_draw_ns") as f64;
            let measure_ns = histogram_sum(registry, "samplecf_progressive_measure_ns") as f64;
            let draw_self_ns = (draw_ns - reads.0 as f64).max(0.0);
            sheet.set("sampling.draw_self_ms", per_op_ms(draw_self_ns));
            sheet.set("sampling.busy_share", draw_self_ns / root_ns);
            sheet.set("core.progressive_draw_ms", per_op_ms(draw_ns));
            sheet.set("core.progressive_measure_ms", per_op_ms(measure_ns));
            sheet.set(
                "core.glue_self_ms",
                per_op_ms((root_ns - draw_ns - measure_ns).max(0.0)),
            );
            sheet.set("core.checkpoints_per_op", self.checkpoints as f64 / ops);
            sheet.set("core.early_stop_share", self.early_stops as f64 / ops);
            sheet.set("core.target_met_share", self.targets_met as f64 / ops);
            sheet.set(
                "core.stop_fraction_p50",
                stats::median(&self.stop_fractions),
            );
            sheet.set(
                "core.rel_half_width_p50",
                stats::median(&self.rel_half_widths),
            );
            let jackknife = counter(
                registry,
                "samplecf_progressive_variance_total{source=\"jackknife\"}",
            );
            let algebra = counter(
                registry,
                "samplecf_progressive_variance_total{source=\"algebra\"}",
            );
            sheet.set(
                "core.variance_jackknife_share",
                jackknife as f64 / (jackknife + algebra).max(1) as f64,
            );
            return;
        }

        // One-shot replay.  The size kernel runs inside `index.measure`; its
        // side-measured time is the compression layer's, the rest of that
        // span is the index layer's own.
        let kernel_ns = self.kernel_ns as f64;
        let index_ns = (layer_self("index") - kernel_ns).max(0.0);
        sheet.set("sampling.draw_self_ms", per_op_ms(layer_self("sampling")));
        sheet.set("sampling.busy_share", layer_self("sampling") / root_ns);
        sheet.set("index.sort_run_ms", per_op_ms(duration("index.sort_run")));
        sheet.set("index.merge_ms", per_op_ms(duration("index.merge")));
        sheet.set("index.build_ms", per_op_ms(duration("index.build")));
        sheet.set(
            "index.build_records_ms",
            stats::mean(&self.build_records_ns) / 1e6,
        );
        sheet.set(
            "index.measure_self_ms",
            per_op_ms((duration("index.measure") - kernel_ns).max(0.0)),
        );
        sheet.set("index.entries_per_s", self.rows as f64 / (index_ns / 1e9));
        sheet.set("index.busy_share", index_ns / root_ns);
        for (scheme, samples) in &self.kernel_by_scheme {
            sheet.set(
                &format!("compression.measure_cells_ms.{scheme}"),
                stats::mean(samples) / 1e6,
            );
        }
        sheet.set("compression.busy_share", kernel_ns / root_ns);
        sheet.set("core.glue_self_ms", per_op_ms(layer_self("core")));
    }
}
