//! `samplecf` — the command-line front end of the SampleCF reproduction.
//!
//! Subcommands cover the gen → estimate → exact → advise loop over
//! disk-resident tables:
//!
//! * `gen` writes a seeded synthetic table to a `.scf` file,
//! * `estimate`, `advise` and `info` are front ends to the service that
//!   `samplecfd` serves: their flags spell a protocol [`Request`] (flag
//!   `--strata-mode` is field `strata_mode`, parsed and validated by the
//!   service's one request grammar), which runs on an in-process
//!   [`ServiceState`] — no socket, no thread — and comes back as the typed
//!   [`Response`] the text reports read; `--json` prints the service's own
//!   response object,
//! * `exact` computes the ground-truth CF (a full scan),
//! * `client` sends one protocol request to a running `samplecfd` daemon
//!   and pretty-prints the JSON reply,
//! * `top` polls a daemon's `stats` endpoint and renders a live terminal
//!   view: request rates, per-op latency quantiles, cache hit ratio and
//!   queue depth.
//!
//! Argument parsing is hand-rolled (the workspace builds offline, without
//! clap); every flag is `--name value`.

use samplecf::prelude::{
    presets, CountingSource, ExactCf, SummaryStats, TableSource, TrialConfig, TrialRunner,
};
use samplecf_server::protocol::{flag_help, index_choice_from_flags, request_from_cli};
use samplecf_server::{
    CatalogEntry, IndexChoice, Json, Request, RequestKind, Response, ServiceState,
    DEFAULT_CACHE_BUDGET_BYTES,
};
use samplecf_storage::DiskTable;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::ExitCode;
use std::time::Instant;

/// `--help`: the request-flag sections are rendered from the service's
/// field table, so the defaults shown are the defaults applied.
fn help() -> String {
    format!(
        "samplecf — estimate index compression fractions by sampling (ICDE 2010)

USAGE:
  samplecf gen --out FILE [options]       write a synthetic table to a file
  samplecf estimate --table FILE [options]  run SampleCF over a table file
  samplecf exact --table FILE [options]   compute the exact CF (full scan)
  samplecf advise --table FILE [options]  recommend which indexes to compress
  samplecf info --table FILE [--json]     print the file header and schema
  samplecf client ADDR REQUEST            send one request to a samplecfd
  samplecf top ADDR [options]             live view of a running samplecfd

`estimate`, `advise` and `info` run the same request a samplecfd would be
sent (docs/API.md) on an in-process service: flag --strata-mode is request
field strata_mode, with the same defaults and the same checks.  --json
prints the service's response object, byte for byte what the daemon
answers.

GEN OPTIONS:
  --out FILE          output path (required)
  --rows N            number of rows                     [default: 100000]
  --distinct D        distinct values in column `a`      [default: 1000]
  --width W           declared CHAR width in bytes       [default: 24]
  --len-min L         minimum value length               [default: 4]
  --len-max L         maximum value length               [default: 20]
  --page-size B       page size in bytes                 [default: 8192]
  --name NAME         table name stored in the file      [default: t]
  --seed S            RNG seed                           [default: 42]

ESTIMATE OPTIONS:
  --table FILE          table file written by `gen` (required)
{estimate}  --trials T            independent estimator runs (text report only) [default: 1]
  --json                print the response object instead of the text report

PROGRESSIVE ESTIMATION (`estimate --target-error E` runs the
estimate_progressive request instead):
{progressive}
The sample grows in geometric batches; after each batch the CF is
re-measured from the accumulated sorted run and its variance jackknifed
over the batches.  The run stops when the Chebyshev CI at the requested
confidence is tighter than --target-error, or at --max-fraction.  A run
that reaches the cap is byte-identical to a one-shot estimate at that
fraction and seed.  With --sampler stratified the CF is the weighted
per-stratum combination, the CI comes from the closed-form stratified
variance algebra instead of the jackknife, and --alloc neyman re-splits
the remaining budget toward high-variance strata after every checkpoint.

EXACT OPTIONS:
  --table FILE          table file (required)
  --scheme S, --column S  as for `estimate`

ADVISE OPTIONS:
  --table FILE          table file (required)
  --candidates FILE     candidate spec file (see below); without it, one
                        candidate is built from --column/--scheme as for
                        `estimate`
{advise}  --json                print the response object instead of the text report

CANDIDATE SPEC FILE (for `advise --candidates`): one candidate per line,
`#` starts a comment.  Fields are whitespace-separated:

  <index-name> <col[,col...]> <scheme> [clustered]

e.g.   idx_a      a        dictionary-global
       pk_all     a        rle             clustered

All candidates share one materialized sample per (sampler, fraction, seed)
configuration, so k candidates cost the same source I/O as one.

INFO OPTIONS:
  --table FILE        table file (required)
  --json              print the response object — what the samplecfd
                      `info` endpoint returns for a registered table

CLIENT USAGE:
  samplecf client ADDR REQUEST [--raw]

  ADDR is a samplecfd address (e.g. 127.0.0.1:7878); REQUEST is one JSON
  protocol object (see docs/API.md), or `-` to read it from stdin.  The
  reply is pretty-printed (--raw prints the single reply line verbatim).
  Exits non-zero when the server answers {{\"ok\": false}}.

  e.g.  samplecf client 127.0.0.1:7878 '{{\"op\":\"stats\"}}'

TOP OPTIONS:
  samplecf top ADDR [--interval-ms MS] [--iterations N] [--plain]

  Polls {{\"op\":\"stats\"}} every --interval-ms [default: 1000] and renders
  request throughput, per-op p50/p95/p99 latency, the cache hit ratio and
  queue depth.  --iterations N stops after N frames (0 = forever); --plain
  appends frames without clearing the screen (for logs and CI).

The estimate report includes `pages read`: with `--sampler block` this is
round(fraction x pages) physical page reads, while row samplers pay roughly
one page read per sampled row — the I/O gap the paper's Section II-C is
about.",
        estimate = flag_help(RequestKind::Estimate),
        progressive = flag_help(RequestKind::EstimateProgressive),
        advise = flag_help(RequestKind::Advise),
    )
}

/// The one place the CLI writes its reports.  `println!` panics when
/// stdout is a closed pipe (`samplecf … | head`); this ends the process
/// quietly instead.
fn emit(text: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("samplecf: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

macro_rules! outln {
    () => { emit(format_args!("\n")) };
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// A `--flag value` argument list.
struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Remove and return the value of `--name`, if present.
    fn opt(&mut self, name: &str) -> Result<Option<String>, String> {
        let flag = format!("--{name}");
        if let Some(i) = self.argv.iter().position(|a| *a == flag) {
            if i + 1 >= self.argv.len() {
                return Err(format!("flag {flag} expects a value"));
            }
            let value = self.argv.remove(i + 1);
            self.argv.remove(i);
            return Ok(Some(value));
        }
        Ok(None)
    }

    fn parse<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.opt(name)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("invalid value {raw:?} for --{name}: {e}")),
        }
    }

    /// Remove a bare `--name` flag (no value), returning whether it was set.
    fn flag(&mut self, name: &str) -> bool {
        let flag = format!("--{name}");
        if let Some(i) = self.argv.iter().position(|a| *a == flag) {
            self.argv.remove(i);
            true
        } else {
            false
        }
    }

    fn require(&mut self, name: &str) -> Result<String, String> {
        self.opt(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Error out if any argument was not consumed.
    fn finish(self) -> Result<(), String> {
        if let Some(extra) = self.argv.first() {
            return Err(format!("unrecognised argument {extra:?} (see --help)"));
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.is_empty() {
        outln!("{}", help());
        return ExitCode::SUCCESS;
    }
    let command = argv.remove(0);
    let args = Args { argv };
    let result = match command.as_str() {
        "gen" => cmd_gen(args),
        "estimate" => cmd_estimate(args),
        "exact" => cmd_exact(args),
        "advise" => cmd_advise(args),
        "info" => cmd_info(args),
        "client" => cmd_client(args),
        "top" => cmd_top(args),
        other => Err(format!("unknown subcommand {other:?} (see --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("samplecf {command}: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_gen(mut args: Args) -> Result<(), String> {
    let out = args.require("out")?;
    let rows: usize = args.parse("rows", 100_000)?;
    let distinct: usize = args.parse("distinct", 1_000)?;
    let width: u16 = args.parse("width", 24)?;
    let len_min: usize = args.parse("len-min", 4)?;
    let len_max: usize = args.parse("len-max", 20)?;
    let page_size: usize = args.parse("page-size", 8192)?;
    let name: String = args.parse("name", "t".to_string())?;
    let seed: u64 = args.parse("seed", 42)?;
    args.finish()?;
    if len_max > usize::from(width) {
        return Err(format!(
            "--len-max {len_max} exceeds the declared --width {width}"
        ));
    }
    if len_min > len_max {
        return Err(format!("--len-min {len_min} exceeds --len-max {len_max}"));
    }

    let started = Instant::now();
    let spec = if len_min == len_max {
        presets::single_char_table(&name, rows, width, distinct, len_min, seed)
    } else {
        presets::variable_length_table(&name, rows, width, distinct, len_min, len_max, seed)
    }
    .page_size(page_size);
    let generated = spec.generate().map_err(|e| e.to_string())?;
    let disk = DiskTable::materialize(&out, &generated.table).map_err(|e| e.to_string())?;
    let stats = generated.stats_for("a").map_err(|e| e.to_string())?;

    outln!("wrote          {out}");
    outln!("table          {name}");
    outln!("rows           {}", disk.num_rows());
    outln!("distinct (d)   {}", stats.distinct_values);
    outln!("pages          {}", disk.num_pages());
    outln!("page size      {} B", disk.page_size());
    outln!("file size      {} B", disk.file_len());
    outln!("elapsed        {:.3} s", started.elapsed().as_secs_f64());
    Ok(())
}

/// An in-process service with the table file at `path` registered — what
/// a `samplecfd --table PATH` holds, without the sockets and threads.  A
/// request runs on the calling thread, as on a daemon worker.
fn local_service(path: &str) -> Result<(ServiceState, CatalogEntry), String> {
    let state = ServiceState::new(DEFAULT_CACHE_BUDGET_BYTES);
    let entry = state
        .catalog
        .register(path, None)
        .map_err(|e| e.to_string())?;
    Ok((state, entry))
}

/// The table/sampler/scheme/seed header of the estimate text reports.
fn print_estimate_header(
    entry: &CatalogEntry,
    sampler: &str,
    scheme: &str,
    index: &IndexChoice,
    seed: u64,
) {
    let table = &entry.table;
    outln!("table          {} ({})", entry.shared.name(), entry.path);
    outln!(
        "rows           {} on {} pages",
        table.num_rows(),
        table.num_pages()
    );
    outln!("sampler        {sampler}");
    outln!("scheme         {scheme}");
    outln!(
        "index key      {}",
        index.key_columns(table.schema()).join(", ")
    );
    outln!("seed           {seed}");
}

fn cmd_estimate(mut args: Args) -> Result<(), String> {
    let path = args.require("table")?;
    let json = args.flag("json");
    let trials: usize = args.parse("trials", 1)?;
    let kind = if args.argv.iter().any(|a| a == "--target-error") {
        RequestKind::EstimateProgressive
    } else {
        RequestKind::Estimate
    };
    let (state, entry) = local_service(&path)?;
    let request =
        request_from_cli(kind, entry.shared.name(), &[], &args.argv).map_err(|e| e.to_string())?;
    if trials > 1 {
        return run_trials(&entry, &request, trials, json);
    }

    let started = Instant::now();
    let response = state.execute(&request).map_err(|e| e.to_string())?;
    if json {
        outln!("{}", response.to_json().pretty());
        return Ok(());
    }
    let num_pages = entry.table.num_pages();
    match (&request, &response) {
        (
            Request::Estimate { sample, index },
            Response::Estimate {
                scheme,
                measurement,
                accounting,
                ..
            },
        ) => {
            print_estimate_header(&entry, &sample.sampler.label(), scheme, index, sample.seed);
            outln!(
                "sampled rows   {} (d' = {})",
                measurement.data.rows,
                measurement.data.distinct_first_key
            );
            outln!("estimated CF   {:.4}", measurement.cf);
            outln!("  with ptrs    {:.4}", measurement.cf_with_pointers);
            outln!("  page-level   {:.4}", measurement.cf_pages);
            outln!(
                "pages read     {} of {num_pages} ({:.1}%)",
                accounting.pages_read,
                100.0 * accounting.pages_read as f64 / num_pages.max(1) as f64
            );
            outln!("elapsed        {:.3} s", started.elapsed().as_secs_f64());
        }
        (
            Request::EstimateProgressive { sample, index, .. },
            Response::EstimateProgressive { scheme, report, .. },
        ) => {
            let label = format!("{} (progressive)", sample.sampler.label());
            print_estimate_header(&entry, &label, scheme, index, sample.seed);
            outln!(
                "target         half-width <= {:.1}% of CF at {}% confidence",
                100.0 * report.target_error,
                percent(report.confidence)
            );
            outln!();
            outln!(
                "{:>5} {:>9} {:>9} {:>9} {:>11} {:>11} {:>7}",
                "batch",
                "rows",
                "f",
                "CF",
                "ci_low",
                "ci_high",
                "pages"
            );
            for c in &report.checkpoints {
                outln!(
                    "{:>5} {:>9} {:>9.4} {:>9.4} {:>11} {:>11} {:>7}",
                    c.batch,
                    c.rows,
                    c.fraction,
                    c.cf,
                    c.ci_low.map_or("—".to_string(), |v| format!("{v:.4}")),
                    c.ci_high.map_or("—".to_string(), |v| format!("{v:.4}")),
                    c.pages_read,
                );
            }
            outln!();
            outln!("estimated CF   {:.4}", report.measurement.cf);
            if let Some((lo, hi)) = report.ci() {
                outln!(
                    "  {}% CI [{lo:.4}, {hi:.4}] (Chebyshev)",
                    percent(report.confidence)
                );
            }
            outln!(
                "stopped        {} ({})",
                if report.stopped_early {
                    "early"
                } else {
                    "at the fraction cap"
                },
                if report.target_met {
                    "target met"
                } else {
                    "target not met"
                }
            );
            outln!(
                "pages read     {} of {num_pages} ({:.1}%)",
                report.pages_read,
                100.0 * report.pages_read as f64 / num_pages.max(1) as f64
            );
            outln!(
                "elapsed        {:.3} s",
                report.measurement.elapsed.as_secs_f64()
            );
        }
        (_, other) => return Err(format!("unexpected answer: {other:?}")),
    }
    Ok(())
}

/// A fraction as a percentage, as precise as it was given: 0.9 is `90`,
/// 0.975 is `97.5`.
fn percent(fraction: f64) -> String {
    let text = format!("{:.2}", 100.0 * fraction);
    text.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// `estimate --trials T`: the spread of T independent estimates of the
/// request's (sampler, index, scheme), seeds derived from its seed.
fn run_trials(
    entry: &CatalogEntry,
    request: &Request,
    trials: usize,
    json: bool,
) -> Result<(), String> {
    let Request::Estimate { sample, index } = request else {
        return Err(
            "--trials conflicts with --target-error: a progressive run is a single \
             adaptive estimate (drop one of the two flags)"
                .to_string(),
        );
    };
    if json {
        return Err("--json supports single runs (drop --trials)".to_string());
    }
    let (spec, scheme) = index
        .resolve(entry.table.schema())
        .map_err(|e| e.to_string())?;
    let counting = CountingSource::new(entry.table.as_ref());
    let started = Instant::now();
    let label = sample.sampler.label();
    print_estimate_header(entry, &label, scheme.name(), index, sample.seed);
    let config = TrialConfig::new(trials).base_seed(sample.seed);
    let estimates = TrialRunner::new(config)
        .run_estimates(&counting, &spec, scheme.as_ref(), sample.sampler)
        .map_err(|e| e.to_string())?;
    let stats =
        SummaryStats::from_values(&estimates).ok_or_else(|| "no estimates produced".to_string())?;
    outln!("trials         {trials}");
    outln!("estimated CF   {:.4} (mean)", stats.mean);
    outln!("  std dev      {:.4}", stats.std_dev);
    outln!("  min / max    {:.4} / {:.4}", stats.min, stats.max);
    let num_pages = entry.table.num_pages();
    let per_trial = counting.pages_read() as f64 / trials as f64;
    outln!(
        "pages read     {} of {num_pages} ({:.1}% per trial)",
        counting.pages_read(),
        100.0 * per_trial / num_pages.max(1) as f64
    );
    outln!("elapsed        {:.3} s", started.elapsed().as_secs_f64());
    Ok(())
}

fn cmd_exact(mut args: Args) -> Result<(), String> {
    let path = args.require("table")?;
    let table = DiskTable::open(&path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let (spec, scheme) = index_choice_from_flags(&args.argv)
        .and_then(|index| index.resolve(table.schema()))
        .map_err(|e| e.to_string())?;

    let counting = CountingSource::new(&table);
    let started = Instant::now();
    let exact = ExactCf::new()
        .compute(&counting, &spec, scheme.as_ref())
        .map_err(|e| e.to_string())?;

    outln!("table          {} ({path})", TableSource::name(&table));
    outln!(
        "rows           {} (d = {})",
        exact.data.rows,
        exact.data.distinct_first_key
    );
    outln!("scheme         {}", scheme.name());
    outln!("index key      {}", spec.key_columns().join(", "));
    outln!("exact CF       {:.4}", exact.cf);
    outln!("  with ptrs    {:.4}", exact.cf_with_pointers);
    outln!("  page-level   {:.4}", exact.cf_pages);
    outln!(
        "pages read     {} of {}",
        counting.pages_read(),
        table.num_pages()
    );
    outln!("elapsed        {:.3} s", started.elapsed().as_secs_f64());
    Ok(())
}

/// Parse a candidate spec file: `<name> <col[,col...]> <scheme> [clustered]`
/// per line, `#` comments and blank lines ignored.
fn parse_candidates_file(path: &str) -> Result<Vec<IndexChoice>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if !(3..=4).contains(&fields.len()) {
            return Err(format!(
                "{path}:{}: expected `<name> <cols> <scheme> [clustered]`, got {line:?}",
                lineno + 1
            ));
        }
        let clustered = match fields.get(3) {
            None => false,
            Some(&"clustered") => true,
            Some(other) => {
                return Err(format!(
                    "{path}:{}: unknown modifier {other:?} (only `clustered`)",
                    lineno + 1
                ))
            }
        };
        out.push(IndexChoice {
            index: fields[0].to_string(),
            columns: Some(fields[1].split(',').map(str::to_string).collect()),
            clustered,
            scheme: fields[2].to_string(),
        });
    }
    if out.is_empty() {
        return Err(format!("{path}: no candidates found"));
    }
    Ok(out)
}

fn cmd_advise(mut args: Args) -> Result<(), String> {
    let path = args.require("table")?;
    let json = args.flag("json");
    let candidates = match args.opt("candidates")? {
        Some(file) => parse_candidates_file(&file)?,
        None => {
            // One inline candidate: the index `estimate` would measure.
            let mut inline = Vec::new();
            for flag in ["scheme", "column"] {
                if let Some(value) = args.opt(flag)? {
                    inline.extend([format!("--{flag}"), value]);
                }
            }
            vec![index_choice_from_flags(&inline).map_err(|e| e.to_string())?]
        }
    };
    let (state, entry) = local_service(&path)?;
    let request = request_from_cli(
        RequestKind::Advise,
        entry.shared.name(),
        &candidates,
        &args.argv,
    )
    .map_err(|e| e.to_string())?;
    let response = state.execute(&request).map_err(|e| e.to_string())?;
    if json {
        outln!("{}", response.to_json().pretty());
        return Ok(());
    }
    let Response::Advise {
        sample,
        plan,
        accounting,
    } = &response
    else {
        return Err(format!("unexpected answer: {response:?}"));
    };

    let num_pages = entry.table.num_pages();
    outln!("table          {} ({})", entry.shared.name(), entry.path);
    outln!(
        "rows           {} on {num_pages} pages",
        entry.table.num_rows()
    );
    outln!("sampler        {}", sample.sampler.label());
    outln!("candidates     {}", plan.recommendations.len());
    outln!();
    outln!(
        "{:<20} {:<18} {:>14} {:>16} {:>8} {:>10}",
        "index",
        "scheme",
        "uncompressed",
        "est. compressed",
        "CF",
        "compress?"
    );
    for r in &plan.recommendations {
        outln!(
            "{:<20} {:<18} {:>14} {:>16} {:>8.4} {:>10}",
            r.index,
            r.scheme,
            r.uncompressed_bytes,
            r.estimated_compressed_bytes,
            r.estimated_cf,
            if r.compress { "yes" } else { "no" }
        );
    }
    outln!();
    outln!(
        "total          {} B uncompressed -> {} B chosen{}",
        plan.total_uncompressed_bytes(),
        plan.total_chosen_bytes(),
        plan.budget_bytes.map_or(String::new(), |b| format!(
            " (budget {b} B, fits: {})",
            if plan.fits_budget() { "yes" } else { "no" }
        ))
    );
    outln!(
        "samples drawn  {} ({} rows total)",
        plan.samples_drawn(),
        plan.groups.iter().map(|g| g.sample_rows).sum::<usize>()
    );
    outln!(
        "pages read     {} of {num_pages} (naive re-sample-per-candidate: {})",
        accounting.pages_read,
        plan.naive_pages_read()
    );
    outln!("elapsed        {:.3} s", plan.elapsed.as_secs_f64());
    Ok(())
}

fn cmd_client(mut args: Args) -> Result<(), String> {
    let raw = args.flag("raw");
    // Positional arguments: the daemon address, then the request.
    if args.argv.len() != 2 {
        return Err(format!(
            "expected `client ADDR REQUEST`, got {} argument(s) (see --help)",
            args.argv.len()
        ));
    }
    let request = args.argv.pop().expect("length checked");
    let addr = args.argv.pop().expect("length checked");

    let request = if request == "-" {
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| format!("cannot read request from stdin: {e}"))?;
        buffer
    } else {
        request
    };
    // Validate locally so a typo fails fast with a position, not a server
    // round trip — and so the line sent is guaranteed newline-free.
    let request = Json::parse(request.trim())
        .map_err(|e| format!("request is not valid JSON: {e}"))?
        .to_line();

    let (reply, parsed) = round_trip(&addr, &request)?;
    if raw {
        outln!("{reply}");
    } else {
        outln!("{}", parsed.pretty());
    }
    match parsed.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(()),
        _ => Err("server reported an error (see reply above)".to_string()),
    }
}

/// One round trip to a daemon: send `request` (one line), return the reply
/// line and its parse.
fn round_trip(addr: &str, request: &str) -> Result<(String, Json), String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .write_all(format!("{request}\n").as_bytes())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("cannot read reply: {e}"))?;
    let reply = reply.trim().to_string();
    if reply.is_empty() {
        return Err("connection closed without a reply".to_string());
    }
    let parsed = Json::parse(&reply).map_err(|e| format!("server sent invalid JSON: {e}"))?;
    Ok((reply, parsed))
}

/// Fetch a daemon's `stats` object.
fn fetch_stats(addr: &str) -> Result<Json, String> {
    let (reply, parsed) = round_trip(addr, r#"{"op":"stats"}"#)?;
    match parsed.get("stats") {
        Some(stats) if parsed.get("ok").and_then(Json::as_bool) == Some(true) => Ok(stats.clone()),
        _ => Err(format!("server reported an error: {reply}")),
    }
}

fn top_u64(stats: &Json, path: &[&str]) -> u64 {
    let mut node = stats;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    node.as_u64().unwrap_or(0)
}

fn cmd_top(mut args: Args) -> Result<(), String> {
    let plain = args.flag("plain");
    let interval_ms: u64 = args.parse("interval-ms", 1_000)?;
    let iterations: u64 = args.parse("iterations", 0)?;
    if args.argv.len() != 1 {
        return Err(format!(
            "expected `top ADDR`, got {} argument(s) (see --help)",
            args.argv.len()
        ));
    }
    let addr = args.argv.pop().expect("length checked");

    // (uptime, total requests) of the previous frame, for the rate.
    let mut previous: Option<(f64, u64)> = None;
    let mut frame = 0u64;
    loop {
        let stats = fetch_stats(&addr)?;
        let uptime = stats
            .get("uptime_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let total = top_u64(&stats, &["requests", "total"]);
        let rps = match previous {
            Some((prev_uptime, prev_total)) if uptime > prev_uptime => {
                (total.saturating_sub(prev_total)) as f64 / (uptime - prev_uptime)
            }
            _ => 0.0,
        };
        previous = Some((uptime, total));

        if !plain {
            // Clear the screen and home the cursor, terminal-agnostic.
            emit(format_args!("\x1b[2J\x1b[H"));
        }
        outln!("samplecf top — {addr}   uptime {uptime:.1}s");
        let tables = stats
            .get("tables")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        outln!(
            "requests  {total} total   {rps:7.1} req/s   errors {}   tables {tables}",
            top_u64(&stats, &["errors"]),
        );

        let hits = top_u64(&stats, &["cache", "hits"]);
        let misses = top_u64(&stats, &["cache", "misses"]);
        let lookups = hits + misses;
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64 * 100.0
        };
        outln!(
            "cache     {hit_ratio:5.1}% hit ({hits}/{lookups})   {} B in {} entries   {} evictions",
            top_u64(&stats, &["cache", "bytes"]),
            top_u64(&stats, &["cache", "entries"]),
            top_u64(&stats, &["cache", "evictions"]),
        );
        outln!(
            "queue     depth {} (max {} / cap {})   conns {} open / {} accepted / {} busy-rejected",
            top_u64(&stats, &["server", "queue_depth"]),
            top_u64(&stats, &["server", "queue_depth_max"]),
            top_u64(&stats, &["server", "queue_capacity"]),
            top_u64(&stats, &["server", "open_connections"]),
            top_u64(&stats, &["server", "connections_accepted"]),
            top_u64(&stats, &["server", "busy_rejections"]),
        );

        outln!("latency             count      p50      p95      p99");
        if let Some(Json::Obj(kinds)) = stats.get("latency") {
            for (op, quantiles) in kinds {
                let ms = |key: &str| top_u64(quantiles, &[key]) as f64 / 1e6;
                outln!(
                    "  {op:<18}{count:>6}{p50:>8.2}ms{p95:>8.2}ms{p99:>8.2}ms",
                    count = top_u64(quantiles, &["count"]),
                    p50 = ms("p50_ns"),
                    p95 = ms("p95_ns"),
                    p99 = ms("p99_ns"),
                );
            }
        }
        if plain {
            outln!();
        }

        frame += 1;
        if iterations > 0 && frame >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(10)));
    }
}

fn cmd_info(mut args: Args) -> Result<(), String> {
    let path = args.require("table")?;
    let json = args.flag("json");
    args.finish()?;
    let (state, entry) = local_service(&path)?;
    if json {
        // What samplecfd's `info` endpoint answers, so local files and
        // cataloged tables read the same.
        let info = Request::Info {
            table: entry.shared.name().to_string(),
        };
        let response = state.execute(&info).map_err(|e| e.to_string())?;
        outln!("{}", response.to_json().pretty());
        return Ok(());
    }
    let table = &entry.table;
    outln!("file           {path}");
    outln!(
        "format         SCF1 v{}",
        samplecf_storage::disk::FORMAT_VERSION
    );
    outln!("table          {}", entry.shared.name());
    outln!("rows           {}", table.num_rows());
    outln!("pages          {}", table.num_pages());
    outln!("page size      {} B", table.page_size());
    outln!("rows per page  {}", table.rows_per_page());
    outln!("file size      {} B", table.file_len());
    outln!("schema:");
    for col in table.schema().columns() {
        outln!("  {col}");
    }
    Ok(())
}
