//! Typed responses and their one JSON rendering.
//!
//! [`ServiceState::execute`](crate::ServiceState::execute) answers a
//! [`Request`](crate::Request) with a [`Response`] holding the estimator's
//! own result types; [`Response::to_json`] is the only place the wire shape
//! of a success is written.  The daemon serializes that object onto one
//! line, `samplecf … --json` pretty-prints it, and the CLI's text reports
//! read the typed value — so a served and a one-shot answer cannot differ.

use crate::catalog::CatalogEntry;
use crate::json::Json;
use crate::protocol::{ok_response, CacheDisposition, RequestKind};
use samplecf_core::{AdvisorPlan, CfMeasurement, ProgressiveReport};
use samplecf_sampling::SamplerKind;
use samplecf_storage::TableSource;

/// What one request physically cost, and how the shared cache served it —
/// the `accounting` object of every data-touching response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Pages this request read (0 on a hit, the new rows' pages on a
    /// deepening).
    pub pages_read: u64,
    /// How the sample cache served the request.
    pub cache: CacheDisposition,
    /// Rows in the sample the answer was measured from.
    pub sample_rows: Option<usize>,
}

/// The sample an answer was measured from, as every `result` echoes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The table's name.
    pub table: String,
    /// The sampler that drew the sample.
    pub sampler: SamplerKind,
    /// The seed used.
    pub seed: u64,
}

/// The answer to one [`Request`](crate::Request).
#[derive(Debug, Clone)]
pub enum Response {
    /// The table now in the catalog.
    Register(CatalogEntry),
    /// The table asked about.
    Info(CatalogEntry),
    /// One SampleCF estimate.
    Estimate {
        /// The sample measured.
        sample: Measured,
        /// The scheme measured.
        scheme: String,
        /// The estimate.
        measurement: CfMeasurement,
        /// Rows in the table.
        source_rows: usize,
        /// Pages in the table.
        source_pages: usize,
        /// What the request cost.
        accounting: Accounting,
    },
    /// One stream-then-stop estimate.
    EstimateProgressive {
        /// The sample streamed (the sampler's fraction was the cap).
        sample: Measured,
        /// The scheme measured.
        scheme: String,
        /// The run: final estimate, interval, checkpoints, pages.
        report: ProgressiveReport,
    },
    /// A compression plan over one shared sample.
    Advise {
        /// The shared sample.
        sample: Measured,
        /// The one-group plan; its group prices one fresh draw, so
        /// `plan.naive_pages_read()` is the re-sample-per-candidate cost.
        plan: AdvisorPlan,
        /// What *this* request cost (a cache hit reads nothing).
        accounting: Accounting,
    },
    /// The rendered `stats` object (shape pinned by the service tests).
    Stats(Json),
    /// The metrics registry as Prometheus-style text.
    Metrics(String),
    /// Shutdown was requested.
    Shutdown,
}

impl Response {
    /// What the request cost, for the ops that report it.
    fn accounting(&self) -> Option<Accounting> {
        match self {
            Response::Register(_) | Response::Info(_) => Some(Accounting {
                pages_read: 0,
                cache: CacheDisposition::None,
                sample_rows: None,
            }),
            Response::Estimate { accounting, .. } | Response::Advise { accounting, .. } => {
                Some(*accounting)
            }
            Response::EstimateProgressive { report, .. } => Some(Accounting {
                pages_read: report.pages_read,
                cache: CacheDisposition::Bypass,
                sample_rows: Some(report.measurement.data.rows),
            }),
            Response::Stats(_) | Response::Metrics(_) | Response::Shutdown => None,
        }
    }

    /// The response object the daemon sends (and `--json` prints).
    #[must_use]
    pub fn to_json(&self) -> Json {
        // Each op answers with one member besides the accounting.
        let (kind, member) = match self {
            Response::Register(entry) => {
                (RequestKind::Register, Some(("table", table_json(entry))))
            }
            Response::Info(entry) => (RequestKind::Info, Some(("table", table_json(entry)))),
            Response::Estimate {
                sample,
                scheme,
                measurement: m,
                source_rows,
                source_pages,
                ..
            } => {
                let result = echo(sample, Some(scheme))
                    .field("cf", m.cf)
                    .field("cf_with_pointers", m.cf_with_pointers)
                    .field("cf_pages", m.cf_pages)
                    .field("rows", m.data.rows)
                    .field("distinct_first_key", m.data.distinct_first_key)
                    .field("source_rows", *source_rows)
                    .field("source_pages", *source_pages);
                (RequestKind::Estimate, Some(("result", result)))
            }
            Response::EstimateProgressive {
                sample,
                scheme,
                report,
            } => {
                let result = progressive_json(echo(sample, Some(scheme)), report);
                (RequestKind::EstimateProgressive, Some(("result", result)))
            }
            Response::Advise { sample, plan, .. } => {
                let result = plan_json(echo(sample, None), plan);
                (RequestKind::Advise, Some(("result", result)))
            }
            Response::Stats(stats) => (RequestKind::Stats, Some(("stats", stats.clone()))),
            Response::Metrics(text) => (RequestKind::Metrics, Some(("exposition", text.into()))),
            Response::Shutdown => (RequestKind::Shutdown, None),
        };
        let body = member.map_or(Json::obj(), |(key, value)| Json::obj().field(key, value));
        let body = match self.accounting() {
            None => body,
            Some(accounting) => {
                let mut object = Json::obj()
                    .field("pages_read", accounting.pages_read)
                    .field("cache", accounting.cache.label());
                if let Some(rows) = accounting.sample_rows {
                    object = object.field("sample_rows", rows);
                }
                if let Response::Advise { plan, .. } = self {
                    object = object.field("naive_pages_read", plan.naive_pages_read());
                }
                body.field("accounting", object)
            }
        };
        ok_response(kind.name(), body)
    }
}

/// The opening members of every `result`: which sample, which scheme.
fn echo(sample: &Measured, scheme: Option<&String>) -> Json {
    let result = Json::obj()
        .field("table", &sample.table)
        .field("sampler", &sample.sampler.label());
    match scheme {
        Some(scheme) => result.field("scheme", scheme),
        None => result,
    }
    .field("seed", sample.seed)
}

fn progressive_json(echo: Json, report: &ProgressiveReport) -> Json {
    let checkpoints = report.checkpoints.iter().map(|c| {
        let strata_rows = c.strata_rows.as_ref().map_or(Json::Null, |rows| {
            Json::Arr(rows.iter().map(|&r| r.into()).collect())
        });
        Json::obj()
            .field("batch", c.batch)
            .field("rows", c.rows)
            .field("fraction", c.fraction)
            .field("cf", c.cf)
            .field("std_error", c.std_error)
            .field("half_width", c.half_width)
            .field("ci_low", c.ci_low)
            .field("ci_high", c.ci_high)
            .field("pages_read", c.pages_read)
            .field(
                "variance_source",
                c.variance_source.map_or(Json::Null, Json::str),
            )
            .field("strata_rows", strata_rows)
    });
    let (ci_low, ci_high) = report.ci().unzip();
    echo.field("target_error", report.target_error)
        .field("confidence", report.confidence)
        .field("cf", report.measurement.cf)
        .field("ci_low", ci_low)
        .field("ci_high", ci_high)
        .field("rows", report.measurement.data.rows)
        .field("source_rows", report.source_rows)
        .field("stopped_early", report.stopped_early)
        .field("target_met", report.target_met)
        .field("pages_read", report.pages_read)
        .field("source_pages", report.source_pages)
        .field("checkpoints", Json::Arr(checkpoints.collect()))
}

fn plan_json(echo: Json, plan: &AdvisorPlan) -> Json {
    let recommendations = plan.recommendations.iter().map(|r| {
        Json::obj()
            .field("index", &r.index)
            .field("scheme", &r.scheme)
            .field("uncompressed_bytes", r.uncompressed_bytes)
            .field("estimated_compressed_bytes", r.estimated_compressed_bytes)
            .field("estimated_cf", r.estimated_cf)
            .field("sample_rows", r.sample_rows)
            .field("compress", r.compress)
    });
    echo.field(
        "budget_bytes",
        plan.budget_bytes.map_or(Json::Null, Json::from),
    )
    .field("fits_budget", plan.fits_budget())
    .field("total_uncompressed_bytes", plan.total_uncompressed_bytes())
    .field("total_chosen_bytes", plan.total_chosen_bytes())
    .field("recommendations", Json::Arr(recommendations.collect()))
}

/// The table-metadata object of the `info`/`register` responses.
fn table_json(entry: &CatalogEntry) -> Json {
    let table = entry.table.as_ref();
    let columns = table.schema().columns().iter().map(|col| {
        Json::obj()
            .field("name", &col.name)
            .field("type", &col.datatype.to_string())
            .field("nullable", col.nullable)
    });
    Json::obj()
        .field("name", TableSource::name(table))
        .field("path", &entry.path)
        .field(
            "format_version",
            u64::from(samplecf_storage::disk::FORMAT_VERSION),
        )
        .field("rows", table.num_rows())
        .field("pages", table.num_pages())
        .field("page_size", table.page_size())
        .field("rows_per_page", table.rows_per_page())
        .field("file_size", table.file_len())
        .field("schema", Json::Arr(columns.collect()))
}
