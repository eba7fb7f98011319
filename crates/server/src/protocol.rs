//! The `samplecfd` request grammar: typed requests, their one field table,
//! and the one parser-validator.
//!
//! The protocol is **line-delimited JSON over TCP**: one request object per
//! line in, exactly one response object per line out, in order (see
//! `docs/API.md`).  This module is the only place a request field name, a
//! default, the sampler vocabulary or a request-level check is written:
//! each op's fields are declared once in a [`Field`] table
//! ([`RequestKind::fields`]); [`Request::parse_as`] reads a JSON object
//! against it, and [`request_from_cli`] turns the `samplecf` CLI's
//! `--flag value` arguments into the same object first (flag
//! `--strata-mode` is field `strata_mode`).  `--help` and the field tables
//! of `docs/API.md` are rendered from, or tested against, the same table.

use crate::json::Json;
use samplecf_compression::{scheme_by_name, CompressionScheme};
use samplecf_core::{AdvisorConfig, CompressionAdvisor, ProgressiveConfig};
use samplecf_index::IndexSpec;
use samplecf_sampling::{Allocation, BatchSchedule, SamplerKind, StrataMode};
use samplecf_storage::Schema;
use std::borrow::Cow;

/// Machine-readable error codes carried in `"error": {"code": ...}`.
pub mod codes {
    /// The request line was not valid JSON.
    pub const PARSE_ERROR: &str = "parse_error";
    /// Valid JSON but not a valid request: a field is missing, mistyped,
    /// unknown or out of range.  Decided before any table data is touched.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The `"op"` is not one the server knows.
    pub const UNKNOWN_OP: &str = "unknown_op";
    /// The named table is not in the catalog.
    pub const NO_SUCH_TABLE: &str = "no_such_table";
    /// A different table file is already registered under this name.
    pub const TABLE_EXISTS: &str = "table_exists";
    /// The table file could not be opened at `register`.
    pub const STORAGE: &str = "storage";
    /// A valid request failed while sampling or measuring, a page read too.
    pub const ESTIMATE_FAILED: &str = "estimate_failed";
    /// Answering a valid request panicked: a bug, caught.  The request
    /// failed alone; the server, its workers and its cache carry on.
    pub const INTERNAL: &str = "internal";
    /// The server is saturated: the bounded request queue (or the
    /// connection limit) rejected this request.  Back off and retry.
    pub const BUSY: &str = "busy";
    /// The request line exceeded the configured size limit and was
    /// discarded without being parsed.
    pub const TOO_LARGE: &str = "too_large";
}

/// A protocol-level failure: what the `"error"` object serializes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// One of the [`codes`].
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// Build an error with the given code and message.
    #[must_use]
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ApiError {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for [`codes::BAD_REQUEST`].
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(codes::BAD_REQUEST, message)
    }

    /// The `{"code", "message"}` object this error serializes to.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("code", Json::str(self.code))
            .field("message", Json::str(&self.message))
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

/// Wrap a successful op result into the response envelope.
#[must_use]
pub fn ok_response(op: &str, body: Json) -> Json {
    let mut response = Json::obj()
        .field("ok", Json::Bool(true))
        .field("op", Json::str(op));
    if let Json::Obj(members) = body {
        for (key, value) in members {
            response = response.field(key, value);
        }
    }
    response
}

/// Wrap a failure into the response envelope.
#[must_use]
pub fn error_response(error: &ApiError) -> Json {
    Json::obj()
        .field("ok", Json::Bool(false))
        .field("error", error.to_json())
}

/// How a request's sample was served, reported in every response's
/// `accounting.cache` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served entirely from a cached sample: zero pages read.
    Hit,
    /// A cached shallower sample was extended; only its new rows were
    /// drawn.
    Deepened,
    /// No usable cached sample: a fresh draw paid the full page cost.
    Miss,
    /// The op streams its own pages and bypasses the sample cache
    /// (`estimate_progressive`).
    Bypass,
    /// The op touches no data pages at all (`register`, `info`, `stats`).
    None,
}

impl CacheDisposition {
    /// The wire label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Deepened => "deepened",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Bypass => "bypass",
            CacheDisposition::None => "none",
        }
    }
}

/// The kind of one request — its `"op"` — and the label axis of the
/// per-request counters and latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A `register` request.
    Register,
    /// An `info` request.
    Info,
    /// An `estimate` request.
    Estimate,
    /// An `estimate_progressive` request.
    EstimateProgressive,
    /// An `advise` request.
    Advise,
    /// A `stats` request.
    Stats,
    /// A `metrics` request.
    Metrics,
    /// A `shutdown` request.
    Shutdown,
    /// A line that failed to parse or named an unknown op.
    Invalid,
}

impl RequestKind {
    /// Every kind, in protocol order.
    pub const ALL: [RequestKind; 9] = [
        RequestKind::Register,
        RequestKind::Info,
        RequestKind::Estimate,
        RequestKind::EstimateProgressive,
        RequestKind::Advise,
        RequestKind::Stats,
        RequestKind::Metrics,
        RequestKind::Shutdown,
        RequestKind::Invalid,
    ];

    /// The op string (or `"invalid"`), used as the `op` label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Register => "register",
            RequestKind::Info => "info",
            RequestKind::Estimate => "estimate",
            RequestKind::EstimateProgressive => "estimate_progressive",
            RequestKind::Advise => "advise",
            RequestKind::Stats => "stats",
            RequestKind::Metrics => "metrics",
            RequestKind::Shutdown => "shutdown",
            RequestKind::Invalid => "invalid",
        }
    }

    /// The kind's position in [`Self::ALL`] — its slot in the per-kind
    /// instrument arrays.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Classify a request object by its `"op"` field.
    pub fn of(request: &Json) -> Result<RequestKind, ApiError> {
        let op = request
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::bad_request("missing or non-string field \"op\""))?;
        let ops = &RequestKind::ALL[..RequestKind::Invalid.index()];
        ops.iter().copied().find(|k| k.name() == op).ok_or_else(|| {
            let known: Vec<&str> = ops.iter().map(|k| k.name()).collect();
            ApiError::new(
                codes::UNKNOWN_OP,
                format!("unknown op {op:?} ({})", known.join(", ")),
            )
        })
    }

    /// The fields a request of this kind accepts (besides `"op"`), in
    /// documentation order.  Anything else in the object is rejected.
    #[must_use]
    pub fn fields(self) -> &'static [Field] {
        match self {
            RequestKind::Register => fields::REGISTER,
            RequestKind::Info => fields::INFO,
            RequestKind::Estimate => fields::ESTIMATE,
            RequestKind::EstimateProgressive => fields::PROGRESSIVE,
            RequestKind::Advise => fields::ADVISE,
            _ => &[],
        }
    }
}

/// The JSON type of a request field, which is also how a CLI flag's value
/// (and the table's own default text) is read into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// A string.
    Str,
    /// Any number.
    Num,
    /// A non-negative integer.
    Int,
    /// A boolean (a bare CLI flag).
    Bool,
    /// An array of strings (a comma-separated CLI value).
    StrList,
    /// An array of candidate objects ([`CANDIDATE_FIELDS`]).
    Candidates,
}

impl FieldType {
    /// The type as `docs/API.md` spells it.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FieldType::Str => "string",
            FieldType::Num => "number",
            FieldType::Int => "integer",
            FieldType::Bool => "boolean",
            FieldType::StrList => "[string]",
            FieldType::Candidates => "[candidate]",
        }
    }

    /// Read the text of a CLI flag value (or of a table default) as a JSON
    /// value of this type.
    fn read(self, raw: &str) -> Option<Json> {
        Some(match self {
            FieldType::Str => Json::str(raw),
            FieldType::Num => Json::Num(raw.parse().ok()?),
            FieldType::Int => Json::uint(raw.parse().ok()?),
            FieldType::Bool => Json::Bool(raw.parse().ok()?),
            FieldType::StrList => Json::Arr(raw.split(',').map(Json::str).collect()),
            FieldType::Candidates => return None,
        })
    }

    /// Whether a JSON value is of this type.
    fn admits(self, value: &Json) -> bool {
        let strings = |items: &[Json]| items.iter().all(|item| item.as_str().is_some());
        match self {
            FieldType::Str => value.as_str().is_some(),
            FieldType::Num => value.as_f64().is_some(),
            FieldType::Int => value.as_u64().is_some(),
            FieldType::Bool => value.as_bool().is_some(),
            FieldType::StrList => value.as_array().is_some_and(strings),
            FieldType::Candidates => value.as_array().is_some(),
        }
    }
}

/// What an absent field means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldDefault {
    /// The field must be present.
    Required,
    /// This value, written the way a CLI flag would spell it.
    Value(&'static str),
    /// Optional, resolved when the request runs; the text says how (e.g.
    /// "first column").
    Computed(&'static str),
}

/// One request field: the single declaration of its wire name, type,
/// default and documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// The wire name.  The CLI flag is the same with `_` spelled `-`.
    pub name: &'static str,
    /// The JSON type.
    pub ty: FieldType,
    /// What an absent field means.
    pub default: FieldDefault,
    /// An additional CLI flag spelling (`""` = none), shown by `--help`.
    pub alias: &'static str,
    /// One line for `docs/API.md` and `--help`.
    pub doc: &'static str,
}

impl Field {
    /// The default as documentation shows it: `"uniform"`, `0.01`,
    /// `first column`, or `—` for a required field.
    #[must_use]
    pub fn default_label(&self) -> String {
        match self.default {
            FieldDefault::Required => "—".to_string(),
            FieldDefault::Value(raw) if self.ty == FieldType::Str => format!("`{raw:?}`"),
            FieldDefault::Value(raw) => format!("`{raw}`"),
            FieldDefault::Computed(how) => how.to_string(),
        }
    }
}

/// The sampler vocabulary, as error messages and docs list it.
macro_rules! sampler_names {
    () => {
        "block, uniform, uniform-wor, bernoulli, reservoir, stratified"
    };
}

/// The field table: every request field, declared once, then listed per op
/// (an op overriding a default or a doc line says so in its list).
#[rustfmt::skip]
mod fields {
    use super::{Field, FieldDefault::{self, Computed, Required, Value}, FieldType::{self, *}};

    const fn f(name: &'static str, ty: FieldType, default: FieldDefault, doc: &'static str) -> Field {
        Field { name, ty, default, alias: "", doc }
    }

    pub const PATH: Field = f("path", Str, Required, "table file on the server host");
    pub const NAME: Field = f("name", Str, Computed("the table name in the file"), "catalog name to register the table under");
    pub const TABLE: Field = f("table", Str, Required, "a registered table name");
    pub const SAMPLER: Field = f("sampler", Str, Value("uniform"), concat!("one of ", sampler_names!()));
    pub const FRACTION: Field = f("fraction", Num, Value("0.01"), "sampling fraction in (0, 1]");
    pub const SIZE: Field = f("size", Int, Value("1000"), "reservoir size (reservoir sampler only)");
    pub const STRATA: Field = f("strata", Int, Value("8"), "stratum count (stratified sampler only)");
    pub const ALLOC: Field = f("alloc", Str, Value("prop"), "stratified per-stratum budget split: prop or neyman");
    pub const STRATA_MODE: Field = f("strata_mode", Str, Value("equi-width"), "stratified page-range partition: equi-width or equi-depth");
    pub const SCHEME: Field = f("scheme", Str, Value("null-suppression"), "one of none, null-suppression, dictionary-paged, dictionary-global, rle, prefix");
    pub const COLUMNS: Field = Field { alias: "column", ..f("columns", StrList, Computed("first column"), "index key columns") };
    pub const SEED: Field = f("seed", Int, Value("0"), "RNG seed");
    pub const TARGET_ERROR: Field = f("target_error", Num, Required, "stop once the CI half-width is at most this fraction of the estimate (>= 0)");
    pub const CONFIDENCE: Field = f("confidence", Num, Value("0.95"), "confidence level 1 - delta of the interval, in (0, 1]");
    pub const INITIAL_FRACTION: Field = f("initial_fraction", Num, Value("0.01"), "first checkpoint fraction, in (0, 1]");
    pub const GROWTH: Field = f("growth", Num, Value("2.0"), "geometric checkpoint growth factor, > 1");
    pub const MIN_SAVING: Field = f("min_saving", Num, Value("0.1"), "compress only if the saving is at least this fraction of the uncompressed size, in [0, 1]");
    pub const BUDGET: Field = f("budget", Int, Computed("none"), "storage budget in bytes (greedy compression until it fits)");
    pub const CANDIDATES: Field = f("candidates", Candidates, Required, "non-empty array of candidate objects");
    pub const INDEX: Field = f("index", Str, Required, "index name");
    pub const CLUSTERED: Field = f("clustered", Bool, Value("false"), "a clustered index (leaves hold whole rows)");

    pub const REGISTER: &[Field] = &[PATH, NAME];
    pub const INFO: &[Field] = &[TABLE];
    pub const ESTIMATE: &[Field] = &[TABLE, SAMPLER, FRACTION, SIZE, STRATA, ALLOC, STRATA_MODE, SCHEME, COLUMNS, SEED];
    pub const PROGRESSIVE: &[Field] = &[
        TABLE,
        SAMPLER,
        Field { default: Value("0.1"), alias: "max-fraction", doc: "sampling-fraction cap (the page budget), in (0, 1]", ..FRACTION },
        SIZE, STRATA, ALLOC, STRATA_MODE, TARGET_ERROR, CONFIDENCE, INITIAL_FRACTION, GROWTH, SCHEME, COLUMNS, SEED,
    ];
    pub const ADVISE: &[Field] = &[
        TABLE, Field { default: Value("block"), ..SAMPLER }, FRACTION, SIZE, STRATA, ALLOC, STRATA_MODE, SEED,
        MIN_SAVING, BUDGET, CANDIDATES,
    ];
    /// One entry of `advise`'s `candidates` array.
    pub const CANDIDATE: &[Field] = &[INDEX, Field { default: Required, ..SCHEME }, COLUMNS, CLUSTERED];
    /// The index + scheme block alone (`samplecf exact`, `advise`'s inline candidate).
    pub const INDEX_CHOICE: &[Field] = &[SCHEME, COLUMNS];
}
pub use fields::CANDIDATE as CANDIDATE_FIELDS;

/// The index name the single-index ops (`estimate`,
/// `estimate_progressive`) measure under.
const SINGLE_INDEX_NAME: &str = "idx";

/// Which sample a request measures: the (table, sampler, seed) group the
/// sample cache keys on.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSpec {
    /// The registered table name.
    pub table: String,
    /// The sampler and its parameters.
    pub sampler: SamplerKind,
    /// The RNG seed.
    pub seed: u64,
}

impl SampleSpec {
    /// The advisor an `advise` request over this sample configures.
    pub fn advisor(
        &self,
        min_saving: f64,
        budget: Option<usize>,
    ) -> Result<CompressionAdvisor, ApiError> {
        CompressionAdvisor::new(AdvisorConfig {
            min_saving_fraction: min_saving,
            budget_bytes: budget,
        })
        .map_err(bad)
    }
}

/// One index to measure under one compression scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexChoice {
    /// The index name.
    pub index: String,
    /// The key columns (`None` = the table's first column).
    pub columns: Option<Vec<String>>,
    /// Whether the index is clustered.
    pub clustered: bool,
    /// The compression scheme name.
    pub scheme: String,
}

impl IndexChoice {
    /// The key columns over a table with this schema: the named ones, else
    /// the table's first column.
    #[must_use]
    pub fn key_columns(&self, schema: &Schema) -> Vec<String> {
        match &self.columns {
            Some(columns) => columns.clone(),
            None => vec![schema.columns()[0].name.clone()],
        }
    }

    /// Check the choice against a table's schema and build what the
    /// estimator takes.  Every failure is a `bad_request`.
    pub fn resolve(
        &self,
        schema: &Schema,
    ) -> Result<(IndexSpec, Box<dyn CompressionScheme>), ApiError> {
        let scheme = scheme_by_name(&self.scheme).map_err(bad)?;
        let columns = self.key_columns(schema);
        let spec = if self.clustered {
            IndexSpec::clustered(&self.index, columns)
        } else {
            IndexSpec::nonclustered(&self.index, columns)
        }
        .map_err(bad)?;
        spec.key_indexes(schema).map_err(bad)?;
        Ok((spec, scheme))
    }
}

/// One parsed, validated protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a table file and add it to the catalog.
    Register {
        /// The table file.
        path: String,
        /// The catalog name (`None` = the name stored in the file).
        name: Option<String>,
    },
    /// Describe a registered table.
    Info {
        /// The registered table name.
        table: String,
    },
    /// One SampleCF estimate, through the sample cache.
    Estimate {
        /// The sample to measure.
        sample: SampleSpec,
        /// The index and scheme to measure it under.
        index: IndexChoice,
    },
    /// A stream-then-stop estimate.
    EstimateProgressive {
        /// The sample stream; its fraction is the cap.
        sample: SampleSpec,
        /// The index and scheme to measure.
        index: IndexChoice,
        /// The stopping rule (the cap is the sampler's own fraction).
        stopping: ProgressiveConfig,
    },
    /// Evaluate many candidates from one shared sample.
    Advise {
        /// The shared sample.
        sample: SampleSpec,
        /// The candidates, in request order.
        candidates: Vec<IndexChoice>,
        /// Minimum saving (fraction of the uncompressed size) worth
        /// compressing for.
        min_saving: f64,
        /// Optional storage budget in bytes.
        budget: Option<usize>,
    },
    /// Service counters.
    Stats,
    /// The metrics exposition.
    Metrics,
    /// Stop the daemon.
    Shutdown,
}

impl Request {
    /// Parse and validate a request object already classified as `kind`
    /// ([`RequestKind::of`]).  Everything that can be checked without the
    /// table is checked here; the range rules themselves live with the
    /// layer that owns them (`SamplerKind::validate`, the progressive
    /// configuration, the advisor) and are only invoked.
    #[allow(clippy::cast_possible_truncation)]
    pub fn parse_as(kind: RequestKind, request: &Json) -> Result<Request, ApiError> {
        use fields::*;
        let f = Fields::new(request, kind.fields(), "")?;
        Ok(match kind {
            RequestKind::Register => Request::Register {
                path: f.str(&PATH),
                name: f.opt_str(&NAME),
            },
            RequestKind::Info => Request::Info {
                table: f.str(&TABLE),
            },
            RequestKind::Estimate => {
                let sample = f.sample_spec()?;
                sample.sampler.validate().map_err(bad)?;
                Request::Estimate {
                    sample,
                    index: f.index_choice(),
                }
            }
            RequestKind::EstimateProgressive => {
                let sample = f.sample_spec()?;
                let stopping = ProgressiveConfig {
                    target_error: f.num(&TARGET_ERROR),
                    confidence: f.num(&CONFIDENCE),
                    schedule: BatchSchedule::new(f.num(&INITIAL_FRACTION), f.num(&GROWTH))
                        .map_err(bad)?,
                };
                stopping.validate().map_err(bad)?;
                sample.sampler.validate().map_err(bad)?;
                Request::EstimateProgressive {
                    sample,
                    index: f.index_choice(),
                    stopping,
                }
            }
            RequestKind::Advise => {
                let sample = f.sample_spec()?;
                let (min_saving, budget) = (f.num(&MIN_SAVING), f.int(&BUDGET).map(|b| b as usize));
                sample.sampler.validate().map_err(bad)?;
                sample.advisor(min_saving, budget)?;
                let entries = f.get(&CANDIDATES);
                let entries = entries
                    .as_ref()
                    .and_then(|e| e.as_array())
                    .unwrap_or_default();
                if entries.is_empty() {
                    return Err(ApiError::bad_request("\"candidates\" must not be empty"));
                }
                let candidates = entries.iter().enumerate().map(|(i, entry)| {
                    Ok(Fields::new(entry, CANDIDATE, &format!("candidate {i}: "))?.index_choice())
                });
                Request::Advise {
                    sample,
                    candidates: candidates.collect::<Result<_, ApiError>>()?,
                    min_saving,
                    budget,
                }
            }
            RequestKind::Stats => Request::Stats,
            RequestKind::Metrics => Request::Metrics,
            RequestKind::Shutdown => Request::Shutdown,
            RequestKind::Invalid => return Err(ApiError::bad_request("not a request")),
        })
    }
}

fn bad(e: impl std::fmt::Display) -> ApiError {
    ApiError::bad_request(e.to_string())
}

/// Resolve a sampler by its CLI/wire name.  `strata`, `alloc` and
/// `strata_mode` only matter for `"stratified"`, `size` only for
/// `"reservoir"`; every other sampler ignores them.
pub fn sampler_by_name(
    name: &str,
    fraction: f64,
    size: usize,
    strata: usize,
    alloc: &str,
    strata_mode: &str,
) -> Result<SamplerKind, String> {
    Ok(match name {
        "uniform" | "uniform-wr" => SamplerKind::UniformWithReplacement(fraction),
        "uniform-wor" => SamplerKind::UniformWithoutReplacement(fraction),
        "bernoulli" => SamplerKind::Bernoulli(fraction),
        "reservoir" => SamplerKind::Reservoir(size),
        "block" => SamplerKind::Block(fraction),
        "stratified" => SamplerKind::Stratified {
            fraction,
            strata,
            alloc: Allocation::by_name(alloc)?,
            mode: StrataMode::by_name(strata_mode)?,
        },
        other => {
            return Err(format!(
                concat!("unknown sampler {:?} (", sampler_names!(), ")"),
                other
            ))
        }
    })
}

/// One JSON object checked against a field table: every member is a
/// declared field of the declared type, every required field is present.
/// After that check, reading a field cannot fail: it is the object's
/// value, else the table's default.
struct Fields<'a> {
    object: &'a Json,
    fields: &'static [Field],
}

impl<'a> Fields<'a> {
    /// `context` prefixes every error message (`"candidate 2: "`).
    fn new(object: &'a Json, fields: &'static [Field], context: &str) -> Result<Self, ApiError> {
        let fail = |message: String| Err(ApiError::bad_request(format!("{context}{message}")));
        let Json::Obj(members) = object else {
            return fail("expected a JSON object".to_string());
        };
        for (key, value) in members {
            match fields.iter().find(|f| f.name == key) {
                Some(field) if *value == Json::Null || field.ty.admits(value) => {}
                Some(field) => {
                    return fail(format!(
                        "field {key:?} must be of type {}",
                        field.ty.label()
                    ))
                }
                None if key == "op" => {}
                None => {
                    let known: Vec<&str> = fields.iter().map(|f| f.name).collect();
                    return fail(format!(
                        "unknown field {key:?} (accepted: {})",
                        known.join(", ")
                    ));
                }
            }
        }
        let checked = Fields { object, fields };
        for field in fields {
            if field.default == FieldDefault::Required && checked.get(field).is_none() {
                return fail(format!(
                    "missing required {} field {:?}",
                    field.ty.label(),
                    field.name
                ));
            }
        }
        Ok(checked)
    }

    /// The value of `field`: what the object carries (a `null` counts as
    /// absent), else this table's default for it, else `None`.
    fn get(&self, field: &Field) -> Option<Cow<'a, Json>> {
        match self.object.get(field.name) {
            Some(value) if *value != Json::Null => Some(Cow::Borrowed(value)),
            _ => match self.fields.iter().find(|f| f.name == field.name)?.default {
                FieldDefault::Value(raw) => field.ty.read(raw).map(Cow::Owned),
                FieldDefault::Required | FieldDefault::Computed(_) => None,
            },
        }
    }

    fn opt_str(&self, field: &Field) -> Option<String> {
        self.get(field)?.as_str().map(str::to_string)
    }

    fn str(&self, field: &Field) -> String {
        self.opt_str(field).unwrap_or_default()
    }

    fn num(&self, field: &Field) -> f64 {
        self.get(field).and_then(|v| v.as_f64()).unwrap_or_default()
    }

    fn int(&self, field: &Field) -> Option<u64> {
        self.get(field)?.as_u64()
    }

    /// The (table, sampler, seed) block every sampling op shares.
    #[allow(clippy::cast_possible_truncation)]
    fn sample_spec(&self) -> Result<SampleSpec, ApiError> {
        use fields::*;
        let size = |field| self.int(field).unwrap_or_default() as usize;
        let sampler = sampler_by_name(
            &self.str(&SAMPLER),
            self.num(&FRACTION),
            size(&SIZE),
            size(&STRATA),
            &self.str(&ALLOC),
            &self.str(&STRATA_MODE),
        )
        .map_err(bad)?;
        Ok(SampleSpec {
            table: self.str(&TABLE),
            sampler,
            seed: self.int(&SEED).unwrap_or_default(),
        })
    }

    /// The index + scheme block: top-level for the single-index ops (fixed
    /// name, never clustered), one candidate object for `advise`.
    fn index_choice(&self) -> IndexChoice {
        use fields::*;
        let columns = self.get(&COLUMNS).map(|columns| {
            let names = columns.as_array().unwrap_or_default().iter();
            names.filter_map(Json::as_str).map(str::to_string).collect()
        });
        let named = self.get(&INDEX).is_some();
        IndexChoice {
            index: if named {
                self.str(&INDEX)
            } else {
                SINGLE_INDEX_NAME.to_string()
            },
            columns,
            clustered: self.get(&CLUSTERED).and_then(|v| v.as_bool()) == Some(true),
            scheme: self.str(&SCHEME),
        }
    }
}

/// Turn `--flag value` CLI arguments into members of `object`, typed by
/// `fields`: flag `--strata-mode` is field `strata_mode`, a boolean field
/// is a bare flag, a string list is comma-separated.  A flag the table does
/// not declare is the same `bad_request` an undeclared JSON field is.
fn object_from_flags(
    fields: &'static [Field],
    mut object: Json,
    args: &[String],
) -> Result<Json, ApiError> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let flag = arg.strip_prefix("--").unwrap_or_default();
        let name = flag.replace('-', "_");
        let Some(field) = fields
            .iter()
            .find(|f| !flag.is_empty() && (f.name == name || f.alias == flag))
        else {
            return Err(bad(format!(
                "unknown field {name:?} (flag {arg}; see --help)"
            )));
        };
        if object.get(field.name).is_some() {
            return Err(bad(format!(
                "field {:?} given twice (flag {arg})",
                field.name
            )));
        }
        let value = match field.ty {
            FieldType::Bool => Json::Bool(true),
            ty => {
                let raw = args
                    .next()
                    .ok_or_else(|| bad(format!("flag {arg} expects a value")))?;
                ty.read(raw).ok_or_else(|| {
                    bad(format!(
                        "invalid value {raw:?} for {arg}: expected {}",
                        ty.label()
                    ))
                })?
            }
        };
        object = object.field(field.name, value);
    }
    Ok(object)
}

/// The request a `samplecf <op> --table FILE [flags]` invocation spells:
/// `table` is the name the file registered under, `candidates` what the
/// CLI read from its candidate spec (empty for the single-index ops), and
/// `args` the remaining `--flag value` arguments, read against the op's
/// field table.  The result went through the same [`Request::parse_as`] a
/// daemon request does.
pub fn request_from_cli(
    kind: RequestKind,
    table: &str,
    candidates: &[IndexChoice],
    args: &[String],
) -> Result<Request, ApiError> {
    use fields::*;
    let mut object = Json::obj().field(TABLE.name, table);
    if !candidates.is_empty() {
        let entry = |c: &IndexChoice| {
            // An absent column list travels as `null`, which reads as absent.
            let columns = c.columns.as_ref().map_or(Json::Null, |columns| {
                Json::Arr(columns.iter().map(Json::str).collect())
            });
            Json::obj()
                .field(INDEX.name, &c.index)
                .field(SCHEME.name, &c.scheme)
                .field(CLUSTERED.name, c.clustered)
                .field(COLUMNS.name, columns)
        };
        let entries = candidates.iter().map(entry).collect();
        object = object.field(CANDIDATES.name, Json::Arr(entries));
    }
    Request::parse_as(kind, &object_from_flags(kind.fields(), object, args)?)
}

/// The index + scheme block of the single-index ops read from CLI flags
/// alone (`samplecf exact`, `advise`'s inline candidate): `--scheme` and
/// `--column`, with `estimate`'s defaults.
pub fn index_choice_from_flags(args: &[String]) -> Result<IndexChoice, ApiError> {
    let object = object_from_flags(fields::INDEX_CHOICE, Json::obj(), args)?;
    Ok(Fields::new(&object, fields::INDEX_CHOICE, "")?.index_choice())
}

/// The `--help` option list of one op's request flags, rendered from its
/// field table (so the defaults shown are the defaults applied).  `table`
/// and `candidates` are left out: the CLI spells those its own way
/// (`--table FILE`, `--candidates FILE`).
#[must_use]
pub fn flag_help(kind: RequestKind) -> String {
    let mut out = String::new();
    for field in kind.fields() {
        if field.name == fields::TABLE.name || field.ty == FieldType::Candidates {
            continue;
        }
        let mut flag = if field.alias.is_empty() {
            format!("--{}", field.name.replace('_', "-"))
        } else {
            format!("--{}", field.alias)
        };
        if field.ty != FieldType::Bool {
            flag.push_str(" V");
        }
        let default = match field.default {
            FieldDefault::Required => "required".to_string(),
            _ => format!("default: {}", field.default_label().replace('`', "")),
        };
        out.push_str(&format!("  {flag:<21} {} [{default}]\n", field.doc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Request, ApiError> {
        let request = Json::parse(line).unwrap();
        Request::parse_as(RequestKind::of(&request)?, &request)
    }

    #[test]
    fn envelopes_have_the_documented_shape() {
        let ok = ok_response("stats", Json::obj().field("x", Json::uint(1)));
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(ok.get("op").and_then(Json::as_str), Some("stats"));
        assert_eq!(ok.get("x").and_then(Json::as_u64), Some(1));

        let err = error_response(&ApiError::new(codes::NO_SUCH_TABLE, "no table \"t\""));
        assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
        let detail = err.get("error").unwrap();
        assert_eq!(
            detail.get("code").and_then(Json::as_str),
            Some("no_such_table")
        );
    }

    #[test]
    fn field_helpers_default_and_reject() {
        let Request::Estimate { sample, index } =
            parse(r#"{"op":"estimate","table":"t","fraction":0.5,"seed":7,"columns":["a","b"]}"#)
                .unwrap()
        else {
            panic!("an estimate request");
        };
        // Given fields are read, absent ones take the table's default.
        assert_eq!(sample.sampler, SamplerKind::UniformWithReplacement(0.5));
        assert_eq!(sample.seed, 7);
        assert_eq!(
            index,
            IndexChoice {
                index: SINGLE_INDEX_NAME.to_string(),
                columns: Some(vec!["a".to_string(), "b".to_string()]),
                clustered: false,
                scheme: "null-suppression".to_string(),
            }
        );
        // The same field defaults differently per op.
        let Request::Advise { sample, .. } =
            parse(r#"{"op":"advise","table":"t","candidates":[{"index":"i","scheme":"rle"}]}"#)
                .unwrap()
        else {
            panic!("an advise request");
        };
        assert_eq!(sample.sampler, SamplerKind::Block(0.01));

        for (line, needle) in [
            (r#"{"op":"estimate"}"#, "\"table\""),
            (r#"{"op":"estimate","table":"t","seed":0.5}"#, "\"seed\""),
            (r#"{"op":"estimate","table":"t","fraction":"x"}"#, "number"),
            (
                r#"{"op":"estimate","table":"t","columns":["a",1]}"#,
                "[string]",
            ),
            (
                r#"{"op":"estimate","table":"t","fracton":0.5}"#,
                "\"fracton\"",
            ),
            (r#"{"op":"info","table":"t","seed":1}"#, "\"seed\""),
            (r#"{"op":"stats","verbose":true}"#, "\"verbose\""),
            (
                r#"{"op":"advise","table":"t","candidates":[{"index":"i","scheme":"rle","colums":[]}]}"#,
                "candidate 0: unknown field \"colums\"",
            ),
            (
                r#"{"op":"advise","table":"t","candidates":[{"index":"i"}]}"#,
                "candidate 0: missing required string field \"scheme\"",
            ),
        ] {
            let err = parse(line).unwrap_err();
            assert_eq!(err.code, codes::BAD_REQUEST, "{line}");
            assert!(err.message.contains(needle), "{line}: {}", err.message);
        }
        assert_eq!(
            parse(r#"{"op":"nope"}"#).unwrap_err().code,
            codes::UNKNOWN_OP
        );
    }

    #[test]
    fn sampler_names_match_the_cli_vocabulary() {
        assert_eq!(
            sampler_by_name("block", 0.1, 10, 4, "prop", "equi-width").unwrap(),
            SamplerKind::Block(0.1)
        );
        assert_eq!(
            sampler_by_name("uniform", 0.2, 10, 4, "prop", "equi-width").unwrap(),
            SamplerKind::UniformWithReplacement(0.2)
        );
        assert_eq!(
            sampler_by_name("reservoir", 0.2, 99, 4, "prop", "equi-width").unwrap(),
            SamplerKind::Reservoir(99)
        );
        assert_eq!(
            sampler_by_name("stratified", 0.1, 10, 8, "neyman", "equi-width").unwrap(),
            SamplerKind::Stratified {
                fraction: 0.1,
                strata: 8,
                alloc: Allocation::Neyman,
                mode: StrataMode::EquiWidth,
            }
        );
        assert_eq!(
            sampler_by_name("stratified", 0.1, 10, 8, "prop", "equi-depth").unwrap(),
            SamplerKind::Stratified {
                fraction: 0.1,
                strata: 8,
                alloc: Allocation::Proportional,
                mode: StrataMode::EquiDepth,
            }
        );
        assert!(sampler_by_name("frobnicate", 0.1, 10, 4, "prop", "equi-width").is_err());
        assert!(
            sampler_by_name("stratified", 0.1, 10, 4, "bogus", "equi-width").is_err(),
            "bad allocation names must be rejected"
        );
        assert!(
            sampler_by_name("stratified", 0.1, 10, 4, "prop", "bogus").is_err(),
            "bad strata-mode names must be rejected"
        );
    }

    #[test]
    fn flags_and_json_spell_the_same_request() {
        let flags: Vec<String> = [
            "--sampler",
            "stratified",
            "--strata-mode",
            "equi-depth",
            "--alloc",
            "neyman",
            "--max-fraction",
            "0.2",
            "--target-error",
            "0.05",
            "--column",
            "a,b",
            "--seed",
            "9",
        ]
        .map(String::from)
        .to_vec();
        let kind = RequestKind::EstimateProgressive;
        let from_json = parse(
            r#"{"op":"estimate_progressive","table":"t","sampler":"stratified",
                "strata_mode":"equi-depth","alloc":"neyman","fraction":0.2,
                "target_error":0.05,"columns":["a","b"],"seed":9}"#,
        );
        assert_eq!(request_from_cli(kind, "t", &[], &flags), from_json);

        // Candidates read from a spec file travel the same way.
        let choice = index_choice_from_flags(&["--scheme".to_string(), "rle".to_string()]).unwrap();
        let Request::Advise { candidates, .. } =
            request_from_cli(RequestKind::Advise, "t", std::slice::from_ref(&choice), &[]).unwrap()
        else {
            panic!("an advise request");
        };
        assert_eq!(candidates, [choice]);

        // A flag the op does not declare is the undeclared-field error.
        let stray = ["--min-saving".to_string(), "0.5".to_string()];
        let err = request_from_cli(kind, "t", &[], &stray).unwrap_err();
        assert!(err.message.contains("\"min_saving\""), "{}", err.message);
        let twice = ["--fraction", "0.1", "--max-fraction", "0.2"].map(String::from);
        assert!(request_from_cli(kind, "t", &[], &twice).is_err());
    }
}
