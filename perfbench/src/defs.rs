//! The benchmark's definitions: workloads, metrics, bounds and every frozen
//! size.  `BENCHMARK.json` at the repository root states the same workload
//! and metric tables for the driver; a unit test keeps the two in step.

/// Seconds one run is sized for (`run_seconds` in `BENCHMARK.json`).  Op
/// counts below are per `RUN_SECONDS`; `--seconds N` scales them by
/// `N / RUN_SECONDS`, so counts repeat exactly for a given flag value.
pub const RUN_SECONDS: u64 = 15;

/// Seed used when `bench perf` is given none.
pub const DEFAULT_SEED: u64 = 20_100_301;

/// How often a run repeats its set-up (everything before the warm-up);
/// `setup_s` is the median repetition plus the one warm-up.
pub const SETUP_REPS: usize = 3;

/// Share of a workload's ops run untimed before measurement starts.
pub const WARMUP_SHARE: f64 = 0.05;

/// A traced run executes this fraction of the untraced op count.
pub const TRACED_SHARE: f64 = 0.25;

/// The six schemes every one-shot workload rotates through (`i mod 6`).
pub const SCHEMES: [&str; 6] = [
    "none",
    "null-suppression",
    "dictionary-paged",
    "dictionary-global",
    "rle",
    "prefix",
];

/// The five workloads.  Names are final: results, history and later PRs
/// refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LibBlock,
    LibUniform,
    LibProgressive,
    ServedHot,
    ServedChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LibBlock,
        Workload::LibUniform,
        Workload::LibProgressive,
        Workload::ServedHot,
        Workload::ServedChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LibBlock => "lib_block",
            Workload::LibUniform => "lib_uniform",
            Workload::LibProgressive => "lib_progressive",
            Workload::ServedHot => "served_hot",
            Workload::ServedChurn => "served_churn",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LibBlock => "CPU chain: a 5% block sample reads few pages, so row decode, key sort, leaf packing and the size kernels do nearly all the work",
            Workload::LibUniform => "I/O chain: a 1% uniform row sample touches ~94% of the pages, so page reads and row fetch dominate; index and kernels are bypassed",
            Workload::LibProgressive => "progressive stopping on value-clustered data: batched streams, sorted-run merges, jackknife rebuilds and the variance algebra; moves pages and CI coverage",
            Workload::ServedHot => "samplecfd with a working set that fits its cache: request plane plus the cache-hit measure path, no draw I/O and no eviction",
            Workload::ServedChurn => "samplecfd with a working set three times its cache budget: miss draws, deepening and LRU eviction dominate",
        }
    }

    /// Rows of the workload's table.  The two one-shot library workloads
    /// and the served ones share one shuffled `char(24)` table shape (890
    /// pages, n/d = 100); the progressive workload runs on a
    /// value-clustered table of 356 pages.
    pub fn rows(self, smoke: bool) -> usize {
        let full = match self {
            Workload::LibProgressive => 100_000,
            _ => 250_000,
        };
        if smoke {
            full / 25
        } else {
            full
        }
    }

    /// Measured ops of an untraced run of `RUN_SECONDS`, sized on the
    /// reference box (2 shared cores) so the measured phase takes 14–15 s.
    pub fn base_ops(self) -> usize {
        match self {
            Workload::LibBlock => 1_500,
            Workload::LibUniform => 260,
            Workload::LibProgressive => 150,
            // Closed-loop phase; the open-loop phase adds HOT_OPEN_OPS.
            Workload::ServedHot => 1_500,
            Workload::ServedChurn => 1_000,
        }
    }

    /// The most a single op's `max(est/exact, exact/est)` may be before the
    /// op counts as failed: 1.25 × the worst value seen while sizing.
    /// Dictionary and RLE estimates are biased upward by design at these
    /// fractions (the paper's Theorems 2–3), which is why the ceilings of
    /// the one-shot workloads are far from 1.
    pub fn ratio_error_ceiling(self) -> f64 {
        match self {
            Workload::LibBlock => 18.0,
            Workload::LibUniform => 56.0,
            Workload::LibProgressive => 2.0,
            Workload::ServedHot => 22.0,
            Workload::ServedChurn => 12.0,
        }
    }
}

/// `lib_block`: block sample fraction (45 of 890 pages).
pub const BLOCK_FRACTION: f64 = 0.05;
/// `lib_uniform`: the paper's sampler at 1% of the rows.
pub const UNIFORM_FRACTION: f64 = 0.01;

/// `lib_progressive`: stopping rule and schedule.
pub const PROGRESSIVE_TARGET_ERROR: f64 = 0.02;
pub const PROGRESSIVE_CONFIDENCE: f64 = 0.95;
pub const PROGRESSIVE_CAP: f64 = 0.2;
pub const PROGRESSIVE_INITIAL: f64 = 0.002;
pub const PROGRESSIVE_GROWTH: f64 = 1.5;
pub const PROGRESSIVE_STRATA: usize = 16;
pub const PROGRESSIVE_SCHEME: &str = "null-suppression";

/// `served_hot`: 8 cached groups of ~10 k rows (block f = 0.04).
pub const HOT_GROUPS: usize = 8;
pub const HOT_FRACTION: f64 = 0.04;
/// Open-loop phase of `served_hot`: op count and the one fixed arrival
/// rate, frozen at ~30% of the closed-loop rate measured while sizing
/// (~315 1/s).  The issue asked for ~60%; with one request in flight per
/// connection that is two M/G/1 queues at 60% utilisation, and their p90
/// then measures the shared box's scheduling more than the daemon.
pub const HOT_OPEN_OPS: usize = 800;
pub const HOT_OPEN_RATE_PER_S: f64 = 80.0;

/// `served_churn`: 48 groups of ~25 k rows (block f = 0.1, ~2.2 MB cached
/// each, ~3× the budget), every 10th request deepening its group to 0.2.
pub const CHURN_GROUPS: usize = 48;
pub const CHURN_FRACTION: f64 = 0.1;
pub const CHURN_DEEP_FRACTION: f64 = 0.2;
pub const CHURN_DEEPEN_EVERY: usize = 10;
pub const CHURN_CACHE_BUDGET: usize = 32 * 1024 * 1024;

/// Closed-loop clients (one connection each) of the served workloads.
pub const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its final name, unit, direction and — for end-to-end
/// metrics — the share of the parent's median it may worsen by.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics; every workload reports every one.
///
/// The four wall-clock metrics are reported at box speed 1 (`calib`): as
/// measured they would need bounds this benchmark may not have — over ten
/// runs their quartiles lay 10–57% apart on the shared reference box,
/// calibrated 2–7%.  Each bound is at least three times the widest spread
/// seen while sizing (README.md, "How steady the numbers are").
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.20),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.15),
    e2e("latency_p90_ms", "ms", Better::Lower, 0.25),
    e2e("pages_read_per_op", "pages", Better::Lower, 0.15),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.20),
    e2e("ratio_error_p95", "ratio", Better::Lower, 0.10),
    e2e("ci_coverage", "ratio", Better::Higher, 0.10),
];

use Better::{Higher, Lower};

/// Per-layer metrics of the traced run, `<layer>.<name>`.  A workload that
/// never enters a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [MetricDef; 54] = [
    layer("storage.read_page_us", "us", Lower),
    layer("storage.read_page_calls_per_op", "count", Lower),
    layer("storage.busy_share", "ratio", Lower),
    layer("storage.failed_reads", "count", Lower),
    layer("sampling.draw_self_ms", "ms", Lower),
    layer("sampling.rows_per_op", "count", Lower),
    layer("sampling.rows_per_page_read", "ratio", Higher),
    layer("sampling.busy_share", "ratio", Lower),
    layer("index.sort_run_ms", "ms", Lower),
    layer("index.merge_ms", "ms", Lower),
    layer("index.build_ms", "ms", Lower),
    layer("index.build_records_ms", "ms", Lower),
    layer("index.measure_self_ms", "ms", Lower),
    layer("index.entries_per_s", "1/s", Higher),
    layer("index.busy_share", "ratio", Lower),
    layer("compression.measure_cells_ms.none", "ms", Lower),
    layer("compression.measure_cells_ms.null-suppression", "ms", Lower),
    layer("compression.measure_cells_ms.dictionary-paged", "ms", Lower),
    layer(
        "compression.measure_cells_ms.dictionary-global",
        "ms",
        Lower,
    ),
    layer("compression.measure_cells_ms.rle", "ms", Lower),
    layer("compression.measure_cells_ms.prefix", "ms", Lower),
    layer("compression.busy_share", "ratio", Lower),
    layer("core.glue_self_ms", "ms", Lower),
    layer("core.progressive_draw_ms", "ms", Lower),
    layer("core.progressive_measure_ms", "ms", Lower),
    layer("core.checkpoints_per_op", "count", Lower),
    layer("core.early_stop_share", "ratio", Higher),
    layer("core.target_met_share", "ratio", Higher),
    layer("core.stop_fraction_p50", "ratio", Lower),
    layer("core.rel_half_width_p50", "ratio", Lower),
    layer("core.variance_jackknife_share", "ratio", Lower),
    layer("server.hit_p50_ms", "ms", Lower),
    layer("server.miss_p50_ms", "ms", Lower),
    layer("server.deepen_p50_ms", "ms", Lower),
    layer("server.advise_p50_ms", "ms", Lower),
    layer("server.small_op_p50_us", "us", Lower),
    layer("server.latency_p99_ms", "ms", Lower),
    layer("server.stage_parse_share", "ratio", Lower),
    layer("server.stage_queue_wait_share", "ratio", Lower),
    layer("server.stage_execute_share", "ratio", Lower),
    layer("server.stage_serialize_share", "ratio", Lower),
    layer("server.stage_drain_share", "ratio", Lower),
    layer("server.stage_write_share", "ratio", Lower),
    layer("server.cache_hit_ratio", "ratio", Higher),
    layer("server.cache_evictions_per_op", "ratio", Lower),
    layer("server.cache_bytes_per_entry", "bytes", Lower),
    layer("server.pages_read_per_miss", "pages", Lower),
    layer("server.coalesced_waits", "count", Lower),
    layer("server.busy_rejections", "count", Lower),
    layer("server.queue_depth_hwm", "count", Lower),
    layer("harness.ledger_coverage", "ratio", Higher),
    layer("harness.trace_overhead_ratio", "ratio", Higher),
    layer("harness.generator_lag_p90_ms", "ms", Lower),
    layer("harness.box_speed", "ratio", Higher),
];

/// The request-plane stages whose share of summed stage time is reported.
pub const STAGES: [&str; 6] = [
    "parse",
    "queue_wait",
    "execute",
    "serialize",
    "drain",
    "write",
];

/// Look a metric up by name in either table.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Metric and workload names are restricted to this alphabet everywhere a
/// name enters the program (result files, `check`).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_server::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert_eq!(
                m.bound.is_some(),
                END_TO_END.iter().any(|e| e.name == m.name)
            );
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert_eq!(Workload::by_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert!(w.base_ops() >= 120, "{} needs at least 120 ops", w.name());
        }
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("x/y"));
        for scheme in SCHEMES {
            assert!(metric(&format!("compression.measure_cells_ms.{scheme}")).is_some());
        }
        assert_eq!(SCHEMES.to_vec(), samplecf_compression::scheme_names());
    }

    /// `BENCHMARK.json` is what the driver reads; it must say exactly what
    /// the binary emits.
    #[test]
    fn benchmark_json_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );

        let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (json, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(json.get("name").and_then(Json::as_str), Some(w.name()));
            assert_eq!(json.get("why").and_then(Json::as_str), Some(w.why()));
        }

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (json, def) in listed.iter().zip(defs) {
                assert_eq!(json.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(json.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(
                    json.get("better").and_then(Json::as_str),
                    Some(def.better.label())
                );
                assert_eq!(
                    json.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
    }
}
