//! `samplecfd` — the SampleCF estimation daemon.
//!
//! A std-only event-driven TCP server speaking the line-delimited JSON
//! protocol specified in `docs/API.md` (`register`, `estimate`,
//! `estimate_progressive`, `advise`, `info`, `stats`, `metrics`,
//! `shutdown`), backed
//! by a table catalog and one evicting sample cache (one lock, one byte
//! budget) so concurrent clients reuse one sample per (table, sampler,
//! fraction, seed) group.  Connections are owned by a nonblocking readiness
//! loop — thousands of idle clients cost file descriptors, not threads —
//! and estimation work runs on a bounded worker pool with explicit `busy`
//! backpressure.  That pool is the daemon's only parallelism: a request
//! runs on one worker and never fans out.
//!
//! Talk to it with `samplecf client <addr> <request-json>` or any
//! newline-framed TCP client.

use samplecf_server::{Server, ServerConfig};
use std::process::ExitCode;

const HELP: &str = "samplecfd — the SampleCF estimation daemon

USAGE:
  samplecfd [options]

OPTIONS:
  --addr ADDR            listen address                 [default: 127.0.0.1:7878]
                         (use port 0 for an ephemeral port; the bound
                         address is printed on the first stdout line)
  --workers N            estimation worker threads, the daemon's only
                         parallelism: a request runs on one worker
                         (compute pool only; connection capacity is
                         --max-connections)             [default: 8]
  --max-connections N    open-connection limit; further connects are
                         answered busy and closed      [default: 10240]
  --queue-depth N        bounded request queue between the event loop
                         and the workers; requests finding it full are
                         answered busy                 [default: 1024]
  --cache-budget BYTES   sample-cache byte budget before LRU eviction
                                                       [default: 268435456]
  --slow-request-ms MS   requests slower than this are counted in
                         samplecf_slow_requests_total and logged as one
                         structured JSON line on stderr (0 disables the
                         log)                          [default: 1000]
  --table FILE           pre-register a table file (repeatable)
  --cache-shards 1       fixed at 1: the cache has one lock and one
                         budget; any other value is an error
  --estimator-threads 1  fixed at 1: a request never fans out; any other
                         value is an error
                         (both accepted only for existing scripts, and
                         deleted with ROADMAP item 1)

PROTOCOL (one JSON object per line over TCP; see docs/API.md):
  {\"op\":\"register\",\"path\":\"/data/t.scf\"}
  {\"op\":\"estimate\",\"table\":\"t\",\"sampler\":\"block\",\"fraction\":0.05,
   \"scheme\":\"dictionary-global\",\"seed\":1}
  {\"op\":\"stats\"}
  {\"op\":\"metrics\"}    (Prometheus-style text exposition in \"exposition\")
  {\"op\":\"shutdown\"}

Watch a running daemon live with `samplecf top <addr>`.

Estimates are byte-identical to `samplecf estimate` seed-for-seed; every
response reports pages_read and how the shared sample cache served it.";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("samplecfd: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut tables: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("flag {name} expects a value"))
        };
        let parse = |name: &str, raw: String| {
            raw.parse::<usize>()
                .map_err(|e| format!("invalid {name}: {e}"))
        };
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{HELP}");
                return Ok(());
            }
            "--addr" => addr = value("--addr")?,
            "--workers" => config.workers = parse("--workers", value("--workers")?)?,
            fixed @ ("--cache-shards" | "--estimator-threads") => {
                if parse(fixed, value(fixed)?)? != 1 {
                    return Err(format!("{fixed} is fixed at 1 (see --help)"));
                }
            }
            "--max-connections" => {
                config.max_connections = parse("--max-connections", value("--max-connections")?)?;
            }
            "--queue-depth" => {
                config.queue_depth = parse("--queue-depth", value("--queue-depth")?)?;
            }
            "--cache-budget" => {
                config.cache_budget_bytes = parse("--cache-budget", value("--cache-budget")?)?;
            }
            "--slow-request-ms" => {
                config.slow_request_ms = value("--slow-request-ms")?
                    .parse::<u64>()
                    .map_err(|e| format!("invalid --slow-request-ms: {e}"))?;
            }
            "--table" => tables.push(value("--table")?),
            other => return Err(format!("unrecognised argument {other:?} (see --help)")),
        }
    }

    let handle = Server::bind(&addr, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;

    // The first line is machine-parseable: scripts (and the CI smoke test)
    // bind port 0 and scrape the real address from here.
    println!("samplecfd listening on {}", handle.addr());
    println!("workers          {}", config.workers);
    println!("max connections  {}", config.max_connections);
    println!("queue depth      {}", config.queue_depth);
    println!("cache budget     {} B", config.cache_budget_bytes);
    for path in &tables {
        let entry = handle
            .state()
            .catalog
            .register(path, None)
            .map_err(|e| format!("--table {path}: {e}"))?;
        println!(
            "registered       {} ({path})",
            samplecf_storage::TableSource::name(entry.table.as_ref())
        );
    }

    handle.run();
    println!("samplecfd: shutdown complete");
    Ok(())
}
