//! The two served workloads: `served_hot` and `served_churn`.  Both drive
//! the real `samplecfd` binary, spawned as a child process, over TCP with
//! the line-delimited JSON protocol of `docs/API.md`.
//!
//! Load shape.  Closed loop: `CLIENTS` client threads, one connection each,
//! every client sending its next request only when the previous one was
//! answered; request `k` of the seeded sequence goes to client `k mod
//! CLIENTS`.  Open loop (`served_hot` only): one generator thread writes
//! request `k` at its due time `k / rate` to connection `k mod CLIENTS`
//! without waiting for answers, one reader thread per connection takes the
//! answers, and latency runs from the due time, so a stall is charged to
//! every request it delays.
//!
//! Everything per-layer is read from outside the daemon: fields of the wire
//! responses, and the `stats` / `metrics` ops before and after.

use crate::calib::{self, SpeedLog};
use crate::defs::{self, Workload};
use crate::env::{self, op_seed, Oracle, RunArgs, Scratch};
use crate::result::{RunResult, Sheet};
use crate::stats;
use crate::trace::{self, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samplecf_compression::scheme_by_name;
use samplecf_core::{ratio_error, SampleCf};
use samplecf_sampling::SamplerKind;
use samplecf_server::Json;
use samplecf_storage::DiskTable;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Span recorded around each request of a traced closed-loop segment.
const REQUEST_SPAN: &str = "server.request";

/// The daemon child.  Killed and reaped on drop, so no exit path — error
/// return or panic — leaves it running.
struct Daemon {
    child: Child,
    addr: String,
    // Held open: the daemon keeps printing to its stdout and must not meet
    // a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(binary: &Path, workload: Workload) -> Result<Daemon, String> {
        let mut command = Command::new(binary);
        command.args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--estimator-threads",
            "1",
        ]);
        // The harness times requests itself; the daemon's slow-request log
        // would only add stderr writes to the measured path.
        command.args(["--slow-request-ms", "0"]);
        if workload == Workload::ServedChurn {
            // One shard: shard routing hashes an address, which would make
            // the hit ratio differ from run to run.
            command.args(["--cache-budget", &defs::CHURN_CACHE_BUDGET.to_string()]);
            command.args(["--cache-shards", "1"]);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut first = String::new();
        let addr = match stdout.read_line(&mut first) {
            Ok(_) => first
                .trim()
                .strip_prefix("samplecfd listening on ")
                .map(str::to_string),
            Err(_) => None,
        };
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            _stdout: stdout,
        };
        // From here on the guard owns the child: an early return reaps it.
        daemon.addr =
            addr.ok_or_else(|| format!("samplecfd did not announce its address: {first:?}"))?;
        Ok(daemon)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let writer =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        // Requests are single small writes; do not let Nagle hold them back.
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        // A daemon that stops answering fails the run instead of hanging it.
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    fn send(writer: &mut TcpStream, line: &str) -> Result<(), String> {
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    fn recv(reader: &mut BufReader<TcpStream>) -> Result<Json, String> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => Err("the daemon closed the connection".to_string()),
            Ok(_) => Json::parse(line.trim()),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    fn call(&mut self, line: &str) -> Result<Json, String> {
        Conn::send(&mut self.writer, line)?;
        Conn::recv(&mut self.reader)
    }
}

/// One request of a workload's sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    Estimate {
        group: usize,
        scheme: usize,
        deep: bool,
    },
    Advise {
        group: usize,
        first_scheme: usize,
    },
    Info,
    Stats,
}

/// How the daemon's cache served a request (`accounting.cache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    Hit,
    Miss,
    Deepened,
    Other,
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
struct Outcome {
    req: Req,
    /// From the due time in an open-loop phase, from the send otherwise.
    latency_ns: u64,
    pages: u64,
    served: Disposition,
    ratio_error: f64,
    failed: bool,
    /// `queue_depth_max` of a `stats` answer, 0 for other ops.
    queue_hwm: u64,
    /// Bits of an estimate's CF, for the bit-identity checks.
    cf_bits: Option<u64>,
    /// A span was recorded around this request.
    traced: bool,
    /// Speed of the box just after the answer arrived (`calib::box_speed`).
    speed: f64,
}

impl Outcome {
    /// The latency at reference box speed, in milliseconds.
    fn adjusted_ms(&self) -> f64 {
        self.latency_ns as f64 / 1e6 * self.speed
    }
}

/// Requests in a seeded Zipf(1.0) order over `groups` ranks (rank 0 the
/// hottest): a pure function of the seed.
fn zipf_order(seed: u64, groups: usize, n: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=groups).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(groups);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            cdf.partition_point(|&c| c < u).min(groups - 1)
        })
        .collect()
}

/// The request sequence of a workload: `n` requests, a pure function of
/// the run seed.
fn sequence(workload: Workload, seed: u64, n: usize) -> Vec<Req> {
    let schemes = defs::SCHEMES.len();
    if workload == Workload::ServedChurn {
        return zipf_order(seed, defs::CHURN_GROUPS, n)
            .into_iter()
            .enumerate()
            .map(|(k, group)| Req::Estimate {
                group,
                // One scheme per group keeps the in-process oracle cheap.
                scheme: group % schemes,
                deep: k % defs::CHURN_DEEPEN_EVERY == defs::CHURN_DEEPEN_EVERY - 1,
            })
            .collect();
    }
    // served_hot: of every 20 requests 15 estimates, 3 advises, 1 info and
    // 1 stats, on a seeded group with the scheme rotating.  (Advises are the
    // slowest 15%, so p90 lies inside their cluster instead of on its edge.)
    (0..n)
        .map(|k| {
            let group = (op_seed(seed, k as u64) % defs::HOT_GROUPS as u64) as usize;
            match k % 20 {
                3 => Req::Info,
                13 => Req::Stats,
                1 | 8 | 15 => Req::Advise {
                    group,
                    first_scheme: k % schemes,
                },
                _ => Req::Estimate {
                    group,
                    scheme: k % schemes,
                    deep: false,
                },
            }
        })
        .collect()
}

struct ServedEnv {
    oracle: Oracle,
    disk: DiskTable,
    conns: Vec<Conn>,
    /// Pages read and requests sent before measurement (fill and warm-up).
    setup_pages: u64,
    setup_requests: u64,
    daemon: Daemon,
    // Dropped after the daemon: the table file lives in it.
    _scratch: Scratch,
}

struct ServedRun<'a> {
    args: &'a RunArgs,
    binary: std::path::PathBuf,
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let served = ServedRun {
        args,
        binary: env::daemon_path()?,
    };
    served.run()
}

/// Cache counters of a `stats` answer.
#[derive(Debug, Clone, Copy, Default)]
struct CacheCounters {
    hits: u64,
    misses: u64,
    deepened: u64,
    evictions: u64,
    coalesced_waits: u64,
    pages_read: u64,
    entries: u64,
    bytes: u64,
    busy_rejections: u64,
    queue_hwm: u64,
}

fn cache_counters(reply: &Json) -> Result<CacheCounters, String> {
    let stats = reply.get("stats").ok_or("stats answer lacks stats")?;
    let field = |section: &str, key: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats answer lacks {section}.{key}"))
    };
    Ok(CacheCounters {
        hits: field("cache", "hits")?,
        misses: field("cache", "misses")?,
        deepened: field("cache", "deepened")?,
        evictions: field("cache", "evictions")?,
        coalesced_waits: field("cache", "coalesced_waits")?,
        pages_read: field("cache", "pages_read")?,
        entries: field("cache", "entries")?,
        bytes: field("cache", "bytes")?,
        busy_rejections: field("server", "busy_rejections")?,
        queue_hwm: field("server", "queue_depth_max")?,
    })
}

/// `samplecf_stage_duration_ns_sum{stage="…"}` of each reported stage, from
/// the `metrics` op's exposition text.
fn stage_sums(reply: &Json) -> Result<Vec<f64>, String> {
    let text = reply
        .get("exposition")
        .and_then(Json::as_str)
        .ok_or("metrics answer lacks exposition")?;
    Ok(defs::STAGES
        .iter()
        .map(|stage| {
            let prefix = format!("samplecf_stage_duration_ns_sum{{stage=\"{stage}\"}} ");
            text.lines()
                .find_map(|line| line.strip_prefix(prefix.as_str()))
                .and_then(|value| value.trim().parse::<f64>().ok())
                .unwrap_or(0.0)
        })
        .collect())
}

/// Closed-loop throughput at reference box speed: each client completes
/// its requests back to back, so its rate is its request count over the
/// sum of its adjusted latencies; the clients' rates add up.  (Request `k`
/// belongs to client `k mod CLIENTS`; `outcomes` is in request order.)
fn adjusted_ops_per_s(outcomes: &[Outcome]) -> f64 {
    (0..defs::CLIENTS)
        .map(|client| {
            let mine = outcomes.iter().skip(client).step_by(defs::CLIENTS);
            let busy_s: f64 = mine.clone().map(Outcome::adjusted_ms).sum::<f64>() / 1e3;
            mine.count() as f64 / busy_s
        })
        .sum()
}

/// Throughput of traced requests relative to untraced ones: per class of
/// request (kind, cache disposition, depth — requests of one class cost the
/// same), median untraced latency ÷ median traced latency, averaged over
/// the classes by their size.  Comparing whole segments instead would mostly
/// measure how their mixes of hits and misses happened to differ.
fn trace_overhead_ratio(outcomes: &[Outcome]) -> f64 {
    let mut classes: BTreeMap<(u8, u8, bool), [Vec<f64>; 2]> = BTreeMap::new();
    for o in outcomes.iter().filter(|o| !o.failed) {
        let (kind, deep) = match o.req {
            Req::Estimate { deep, .. } => (0, deep),
            Req::Advise { .. } => (1, false),
            Req::Info => (2, false),
            Req::Stats => (3, false),
        };
        classes.entry((kind, o.served as u8, deep)).or_default()[usize::from(o.traced)]
            .push(o.latency_ns as f64);
    }
    let (mut weighted, mut weight) = (0.0, 0.0);
    for [plain, traced] in classes
        .values()
        .filter(|[p, t]| p.len() >= 4 && t.len() >= 4)
    {
        let n = (plain.len() + traced.len()) as f64;
        weighted += n * stats::median(plain) / stats::median(traced);
        weight += n;
    }
    if weight == 0.0 {
        1.0
    } else {
        weighted / weight
    }
}

impl ServedRun<'_> {
    fn fraction(&self, deep: bool) -> f64 {
        match (self.args.workload, deep) {
            (Workload::ServedChurn, false) => defs::CHURN_FRACTION,
            (Workload::ServedChurn, true) => defs::CHURN_DEEP_FRACTION,
            _ => defs::HOT_FRACTION,
        }
    }

    /// Seed of a cache group; the group is `(table, block, seed)`.
    fn group_seed(&self, group: usize) -> u64 {
        op_seed(self.args.seed ^ 0x5eed, group as u64)
    }

    fn request_line(&self, req: Req) -> String {
        let sampled = |op: &str, group: usize, deep: bool| {
            Json::obj()
                .field("op", Json::str(op))
                .field("table", Json::str("t"))
                .field("sampler", Json::str("block"))
                .field("fraction", Json::Num(self.fraction(deep)))
                .field("seed", Json::uint(self.group_seed(group)))
        };
        let request = match req {
            Req::Estimate {
                group,
                scheme,
                deep,
            } => sampled("estimate", group, deep).field("scheme", Json::str(defs::SCHEMES[scheme])),
            Req::Advise {
                group,
                first_scheme,
            } => sampled("advise", group, false).field(
                "candidates",
                Json::Arr(
                    (0..3)
                        .map(|c| {
                            Json::obj()
                                .field("index", Json::str(format!("candidate_{c}")))
                                .field(
                                    "scheme",
                                    Json::str(
                                        defs::SCHEMES[(first_scheme + c) % defs::SCHEMES.len()],
                                    ),
                                )
                        })
                        .collect(),
                ),
            ),
            Req::Info => Json::obj()
                .field("op", Json::str("info"))
                .field("table", Json::str("t")),
            Req::Stats => Json::obj().field("op", Json::str("stats")),
        };
        let mut line = request.to_line();
        line.push('\n');
        line
    }

    /// Check one answer against the oracle and pull out what it cost.
    fn judge(
        &self,
        oracle: &Oracle,
        req: Req,
        reply: Result<Json, String>,
        latency_ns: u64,
    ) -> Outcome {
        let mut outcome = Outcome {
            req,
            latency_ns,
            pages: 0,
            served: Disposition::Other,
            ratio_error: 1.0,
            failed: true,
            queue_hwm: 0,
            cf_bits: None,
            traced: false,
            speed: 1.0,
        };
        let reply = match reply {
            Ok(reply) if reply.get("ok").and_then(Json::as_bool) == Some(true) => reply,
            Ok(reply) => {
                // An error envelope; `busy` refusals land here too.
                eprintln!("{req:?} was refused: {}", reply.to_line());
                return outcome;
            }
            Err(e) => {
                eprintln!("{req:?} failed: {e}");
                return outcome;
            }
        };
        let accounting = reply.get("accounting");
        outcome.pages = accounting
            .and_then(|a| a.get("pages_read"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        outcome.served = match accounting
            .and_then(|a| a.get("cache"))
            .and_then(Json::as_str)
        {
            Some("hit") => Disposition::Hit,
            Some("miss") => Disposition::Miss,
            Some("deepened") => Disposition::Deepened,
            _ => Disposition::Other,
        };
        let ceiling = self.args.ratio_error_ceiling();
        let mut check_cf = |cf: Option<f64>, scheme: Option<&str>| match (cf, scheme) {
            (Some(cf), Some(scheme)) if cf.is_finite() && cf > 0.0 => {
                let error = ratio_error(cf, oracle.exact(scheme));
                outcome.ratio_error = outcome.ratio_error.max(error);
                error <= ceiling
            }
            _ => false,
        };
        let sound = match req {
            Req::Estimate { scheme, .. } => {
                let cf = reply
                    .get("result")
                    .and_then(|r| r.get("cf"))
                    .and_then(Json::as_f64);
                let sound = check_cf(cf, Some(defs::SCHEMES[scheme]));
                outcome.cf_bits = cf.map(f64::to_bits);
                sound
            }
            Req::Advise { .. } => reply
                .get("result")
                .and_then(|r| r.get("recommendations"))
                .and_then(Json::as_array)
                .is_some_and(|recs| {
                    recs.len() == 3
                        && recs.iter().all(|rec| {
                            check_cf(
                                rec.get("estimated_cf").and_then(Json::as_f64),
                                rec.get("scheme").and_then(Json::as_str),
                            )
                        })
                }),
            Req::Info => {
                reply
                    .get("table")
                    .and_then(|t| t.get("rows"))
                    .and_then(Json::as_u64)
                    == Some(oracle.rows as u64)
            }
            Req::Stats => match cache_counters(&reply) {
                Ok(counters) => {
                    outcome.queue_hwm = counters.queue_hwm;
                    true
                }
                Err(_) => false,
            },
        };
        if !sound {
            eprintln!(
                "{req:?}: the answer fails its oracle check: {}",
                reply.to_line()
            );
        }
        outcome.failed = !sound;
        outcome
    }

    /// Everything before the warm-up: table and oracles (set-up child),
    /// daemon start, register, connections, cache fill; returns the mean
    /// box speed while doing so.
    fn set_up(&self) -> Result<(ServedEnv, f64), String> {
        let mut speeds = SpeedLog::default();
        speeds.sample();
        let scratch = Scratch::new()?;
        let oracle = env::run_setup_child(self.args, scratch.path())?;
        speeds.extend(&oracle.speeds);
        let disk =
            DiskTable::open(&oracle.table_path).map_err(|e| format!("opening the table: {e}"))?;
        let daemon = Daemon::spawn(&self.binary, self.args.workload)?;
        let mut conns = (0..defs::CLIENTS)
            .map(|_| Conn::connect(&daemon.addr))
            .collect::<Result<Vec<_>, _>>()?;

        let table_path = std::path::absolute(&oracle.table_path).map_err(|e| e.to_string())?;
        let register = Json::obj()
            .field("op", Json::str("register"))
            .field("path", Json::str(table_path.to_string_lossy()))
            .to_line()
            + "\n";
        let registered = conns[0].call(&register)?;
        if registered.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("register failed: {}", registered.to_line()));
        }
        speeds.sample();

        // Fill: served_hot draws each of its groups once, so the measured
        // phase never misses; served_churn runs one pass of its own request
        // order, so measurement starts on a full cache.
        let fill: Vec<Req> = if self.args.workload == Workload::ServedHot {
            (0..defs::HOT_GROUPS)
                .map(|group| Req::Estimate {
                    group,
                    scheme: 0,
                    deep: false,
                })
                .collect()
        } else {
            sequence(
                self.args.workload,
                self.args.seed ^ 0xf111,
                defs::CHURN_GROUPS,
            )
        };
        let mut env = ServedEnv {
            oracle,
            disk,
            conns,
            setup_pages: 0,
            setup_requests: 0,
            daemon,
            _scratch: scratch,
        };
        let fill_speed = self.unmeasured(&mut env, &fill)?;
        speeds.extend(&[fill_speed]);
        Ok((env, speeds.mean()))
    }

    /// Run requests that precede measurement (fill, warm-up), keeping count
    /// of what they cost; returns the mean box speed while they ran.
    fn unmeasured(&self, env: &mut ServedEnv, reqs: &[Req]) -> Result<f64, String> {
        let (outcomes, _) = self.closed_phase(env, reqs, None);
        if let Some(bad) = outcomes.iter().find(|o| o.failed) {
            return Err(format!("set-up request {:?} failed", bad.req));
        }
        env.setup_pages += outcomes.iter().map(|o| o.pages).sum::<u64>();
        env.setup_requests += outcomes.len() as u64;
        let speeds: Vec<f64> = outcomes.iter().map(|o| o.speed).collect();
        Ok(stats::mean(&speeds))
    }

    /// Closed loop over `reqs`: returns the outcomes in request order and
    /// the wall time of the phase.
    ///
    /// With a tracer, every other request of each client is traced (a
    /// `server.request` span recorded, the outcome marked), so traced and
    /// untraced requests see the same daemon state and the same mix.
    fn closed_phase(
        &self,
        env: &mut ServedEnv,
        reqs: &[Req],
        tracer: Option<&Tracer>,
    ) -> (Vec<Outcome>, f64) {
        let oracle = &env.oracle;
        let started = Instant::now();
        let per_client: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|scope| {
            let clients: Vec<_> = env
                .conns
                .iter_mut()
                .enumerate()
                .map(|(client, conn)| {
                    scope.spawn(move || {
                        (client..reqs.len())
                            .step_by(defs::CLIENTS)
                            .map(|k| {
                                let line = self.request_line(reqs[k]);
                                let sent = Instant::now();
                                let reply = conn.call(&line);
                                let answered = Instant::now();
                                let traced = tracer.filter(|_| (k / defs::CLIENTS) % 2 == 1);
                                if let Some(tracer) = traced {
                                    tracer.record(REQUEST_SPAN, sent, answered, k as u32);
                                }
                                // While this client calibrates, its
                                // request's worker is idle: the kernel
                                // competes with nothing it is measuring.
                                let speed = calib::box_speed();
                                let latency_ns = (answered - sent).as_nanos() as u64;
                                let mut outcome = self.judge(oracle, reqs[k], reply, latency_ns);
                                outcome.traced = traced.is_some();
                                outcome.speed = speed;
                                (k, outcome)
                            })
                            .collect()
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|client| client.join().expect("a client thread panicked"))
                .collect()
        });
        let wall_s = started.elapsed().as_secs_f64();
        let mut outcomes: Vec<(usize, Outcome)> = per_client.into_iter().flatten().collect();
        outcomes.sort_by_key(|(k, _)| *k);
        (outcomes.into_iter().map(|(_, o)| o).collect(), wall_s)
    }

    /// Open loop over `reqs` at `rate` requests per second: returns the
    /// outcomes (latency from the due time) and each request's lateness.
    fn open_phase(
        &self,
        env: &mut ServedEnv,
        reqs: &[Req],
        rate: f64,
    ) -> Result<(Vec<Outcome>, Vec<f64>), String> {
        let oracle = &env.oracle;
        let lines: Vec<String> = reqs.iter().map(|&req| self.request_line(req)).collect();
        let mut writers = env
            .conns
            .iter()
            .map(|conn| conn.writer.try_clone().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let start = Instant::now() + Duration::from_millis(20);
        let due = |k: usize| start + Duration::from_secs_f64(k as f64 / rate);

        let (lag_ms, per_reader) = std::thread::scope(|scope| {
            let readers: Vec<_> = env
                .conns
                .iter_mut()
                .enumerate()
                .map(|(client, conn)| {
                    scope.spawn(move || {
                        (client..reqs.len())
                            .step_by(defs::CLIENTS)
                            .map(|k| {
                                let reply = Conn::recv(&mut conn.reader);
                                let latency_ns =
                                    Instant::now().saturating_duration_since(due(k)).as_nanos()
                                        as u64;
                                let speed = calib::box_speed();
                                let mut outcome = self.judge(oracle, reqs[k], reply, latency_ns);
                                outcome.speed = speed;
                                (k, outcome)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            // The generator: this thread.
            let mut lag_ms = Vec::with_capacity(lines.len());
            for (k, line) in lines.iter().enumerate() {
                if let Some(wait) = due(k).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                lag_ms.push(
                    Instant::now()
                        .saturating_duration_since(due(k))
                        .as_secs_f64()
                        * 1e3,
                );
                // A failed send shows up as the reader's failed receive.
                let _ = Conn::send(&mut writers[k % defs::CLIENTS], line);
            }
            let per_reader: Vec<Vec<(usize, Outcome)>> = readers
                .into_iter()
                .map(|reader| reader.join().expect("a reader thread panicked"))
                .collect();
            (lag_ms, per_reader)
        });
        let mut outcomes: Vec<(usize, Outcome)> = per_reader.into_iter().flatten().collect();
        outcomes.sort_by_key(|(k, _)| *k);
        Ok((outcomes.into_iter().map(|(_, o)| o).collect(), lag_ms))
    }

    /// Every estimate of one (group, scheme, fraction) must carry the same
    /// CF, and that CF must equal the in-process estimator's bit for bit.
    /// Returns the number of violations.
    fn identity_violations(&self, env: &ServedEnv, outcomes: &[Outcome]) -> Result<u64, String> {
        let mut first: BTreeMap<(usize, usize, bool), u64> = BTreeMap::new();
        let mut violations = 0u64;
        for outcome in outcomes {
            if let (
                Req::Estimate {
                    group,
                    scheme,
                    deep,
                },
                Some(bits),
            ) = (outcome.req, outcome.cf_bits)
            {
                if *first.entry((group, scheme, deep)).or_insert(bits) != bits {
                    eprintln!("group {group} scheme {scheme}: two served answers differ");
                    violations += 1;
                }
            }
        }
        let keys: Vec<_> = first.into_iter().collect();
        let spec = env::index_spec();
        let check =
            |&((group, scheme, deep), bits): &((usize, usize, bool), u64)| -> Result<bool, String> {
                let compression =
                    scheme_by_name(defs::SCHEMES[scheme]).map_err(|e| e.to_string())?;
                let local = SampleCf::new(SamplerKind::Block(self.fraction(deep)))
                    .seed(self.group_seed(group))
                    .threads(1)
                    .estimate(&env.disk, &spec, compression.as_ref())
                    .map_err(|e| e.to_string())?;
                if local.cf.to_bits() != bits {
                    eprintln!(
                        "group {group} {}: served cf {} differs from the in-process {}",
                        defs::SCHEMES[scheme],
                        f64::from_bits(bits),
                        local.cf
                    );
                }
                Ok(local.cf.to_bits() == bits)
            };
        // The daemon is idle by now; use both cores.
        let halves = keys.split_at(keys.len() / 2);
        let results = std::thread::scope(|scope| {
            let other = scope.spawn(|| halves.1.iter().map(check).collect::<Result<Vec<_>, _>>());
            let mine = halves.0.iter().map(check).collect::<Result<Vec<_>, _>>();
            (mine, other.join().expect("the verifier thread panicked"))
        });
        for half in [results.0?, results.1?] {
            violations += half.iter().filter(|same| !**same).count() as u64;
        }
        Ok(violations)
    }

    fn run(&self) -> Result<RunResult, String> {
        let args = self.args;
        let hot = args.workload == Workload::ServedHot;
        let closed_ops = args.ops(args.workload.base_ops());
        let open_ops = if hot { args.ops(defs::HOT_OPEN_OPS) } else { 0 };
        let warm_ops = args.warmup(closed_ops);
        // One seeded sequence: measured requests first, warm-up after them.
        let all = sequence(args.workload, args.seed, closed_ops + open_ops + warm_ops);
        let (measured, warmup) = all.split_at(closed_ops + open_ops);
        let (closed, open) = measured.split_at(closed_ops);

        let (mut env, setup_s) = env::repeat_set_up(args.smoke, || self.set_up())?;
        let started = Instant::now();
        let warmup_speed = self.unmeasured(&mut env, warmup)?;
        let setup_s = setup_s + started.elapsed().as_secs_f64() * warmup_speed;

        let mut sheet = Sheet::new(args.trace);
        let mut outcomes;
        if args.trace {
            outcomes = self.traced(&mut env, closed, open, &mut sheet)?;
        } else {
            let wall_s;
            (outcomes, wall_s) = self.closed_phase(&mut env, closed, None);
            sheet.set("setup_s", setup_s);
            sheet.set("ops_per_s", adjusted_ops_per_s(&outcomes));
            // Latency: at the fixed open-loop rate where there is one, the
            // closed loop's service time otherwise.
            if hot {
                let (open_outcomes, _) =
                    self.open_phase(&mut env, open, defs::HOT_OPEN_RATE_PER_S)?;
                outcomes.extend(open_outcomes);
            }
            let timed = if hot {
                &outcomes[closed.len()..]
            } else {
                &outcomes[..]
            };
            if !args.smoke && stats::reportable_percentile(timed.len(), 90.0) != Some(90.0) {
                return Err(format!(
                    "{} requests leave fewer than ten samples beyond p90",
                    timed.len()
                ));
            }
            let raw_ms: Vec<f64> = timed.iter().map(|o| o.latency_ns as f64 / 1e6).collect();
            let adjusted_ms: Vec<f64> = timed.iter().map(Outcome::adjusted_ms).collect();
            let speeds: Vec<f64> = outcomes.iter().map(|o| o.speed).collect();
            eprintln!(
                "latency over {} requests ({}; table in the OS page cache); as measured: {:.2} ops/s closed \
                 loop, p50 {:.3} ms, p90 {:.3} ms at a median box speed of {:.3} — the metrics below are at \
                 box speed 1",
                timed.len(),
                if hot {
                    format!(
                        "open loop at {} 1/s, from each request's due time",
                        defs::HOT_OPEN_RATE_PER_S
                    )
                } else {
                    format!("closed loop, {} clients, service time", defs::CLIENTS)
                },
                closed.len() as f64 / wall_s,
                stats::percentile(&raw_ms, 50.0),
                stats::percentile(&raw_ms, 90.0),
                stats::median(&speeds),
            );
            sheet.set("latency_p50_ms", stats::percentile(&adjusted_ms, 50.0));
            sheet.set("latency_p90_ms", stats::percentile(&adjusted_ms, 90.0));
            // Every request the daemon has served, fill and warm-up
            // included: the fill is what makes the later hits free.
            let pages = env.setup_pages + outcomes.iter().map(|o| o.pages).sum::<u64>();
            sheet.set(
                "pages_read_per_op",
                pages as f64 / (env.setup_requests + outcomes.len() as u64) as f64,
            );
            sheet.set(
                "peak_rss_mb",
                env::peak_rss_mb(Some(env.daemon.child.id()))?,
            );
            let errors: Vec<f64> = outcomes.iter().map(|o| o.ratio_error).collect();
            eprintln!(
                "worst ratio error of any answer: {:.4}",
                errors.iter().copied().fold(1.0, f64::max)
            );
            sheet.set("ratio_error_p95", stats::percentile(&errors, 95.0));
            // No served op returns an interval.
            sheet.set("ci_coverage", 1.0);
        }
        let failed = outcomes.iter().filter(|o| o.failed).count() as u64
            + self.identity_violations(&env, &outcomes)?;
        RunResult::new(
            args.workload,
            args.trace,
            args.seed,
            outcomes.len() as u64,
            failed,
            sheet,
        )
    }

    /// The traced run: `stats` and `metrics` before and after; a closed loop
    /// in which every other request is traced; for `served_hot` the open
    /// loop.
    fn traced(
        &self,
        env: &mut ServedEnv,
        closed: &[Req],
        open: &[Req],
        sheet: &mut Sheet,
    ) -> Result<Vec<Outcome>, String> {
        let stats_line = self.request_line(Req::Stats);
        let metrics_line = "{\"op\":\"metrics\"}\n";
        let before = cache_counters(&env.conns[0].call(&stats_line)?)?;
        let stages_before = stage_sums(&env.conns[0].call(metrics_line)?)?;

        let tracer = Tracer::new();
        let (closed_outcomes, _) = self.closed_phase(env, closed, Some(&tracer));
        sheet.set(
            "harness.trace_overhead_ratio",
            trace_overhead_ratio(&closed_outcomes),
        );
        let speeds: Vec<f64> = closed_outcomes.iter().map(|o| o.speed).collect();
        sheet.set("harness.box_speed", stats::median(&speeds));
        // The tail percentile comes from the open loop where there is one.
        let mut open_outcomes = Vec::new();
        if !open.is_empty() {
            let lag_ms;
            (open_outcomes, lag_ms) = self.open_phase(env, open, defs::HOT_OPEN_RATE_PER_S)?;
            sheet.set(
                "harness.generator_lag_p90_ms",
                stats::percentile(&lag_ms, 90.0),
            );
        }
        let tail_ms: Vec<f64> = if open.is_empty() {
            &closed_outcomes
        } else {
            &open_outcomes
        }
        .iter()
        .map(|o| o.latency_ns as f64 / 1e6)
        .collect();

        let stages_after = stage_sums(&env.conns[0].call(metrics_line)?)?;
        let after = cache_counters(&env.conns[0].call(&stats_line)?)?;
        if let Some(path) = &self.args.trace_out {
            trace::write_spans(path, &tracer.take())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }

        // Client latency by kind of request and, for estimates, by how the
        // cache served them — over the closed-loop segments, where latency
        // is service time.
        let p50 = |select: &dyn Fn(&Outcome) -> bool| {
            let picked: Vec<f64> = closed_outcomes
                .iter()
                .filter(|o| select(o))
                .map(|o| o.latency_ns as f64 / 1e6)
                .collect();
            stats::percentile(&picked, 50.0)
        };
        let estimate = |served: Disposition| {
            move |o: &Outcome| matches!(o.req, Req::Estimate { .. }) && o.served == served
        };
        sheet.set("server.hit_p50_ms", p50(&estimate(Disposition::Hit)));
        sheet.set("server.miss_p50_ms", p50(&estimate(Disposition::Miss)));
        sheet.set(
            "server.deepen_p50_ms",
            p50(&estimate(Disposition::Deepened)),
        );
        sheet.set(
            "server.advise_p50_ms",
            p50(&|o| matches!(o.req, Req::Advise { .. })),
        );
        sheet.set(
            "server.small_op_p50_us",
            p50(&|o| matches!(o.req, Req::Info | Req::Stats)) * 1e3,
        );
        let tail = stats::reportable_percentile(tail_ms.len(), 99.0).unwrap_or(50.0);
        if tail < 99.0 {
            eprintln!(
                "server.latency_p99_ms: {} samples only support p{tail}",
                tail_ms.len()
            );
        }
        sheet.set("server.latency_p99_ms", stats::percentile(&tail_ms, tail));

        let stage_deltas: Vec<f64> = stages_after
            .iter()
            .zip(&stages_before)
            .map(|(a, b)| a - b)
            .collect();
        let stage_total: f64 = stage_deltas.iter().sum::<f64>().max(1.0);
        for (stage, delta) in defs::STAGES.iter().zip(&stage_deltas) {
            sheet.set(&format!("server.stage_{stage}_share"), delta / stage_total);
        }

        let lookups = (after.hits - before.hits)
            + (after.misses - before.misses)
            + (after.deepened - before.deepened);
        let draws = (after.misses - before.misses) + (after.deepened - before.deepened);
        sheet.set(
            "server.cache_hit_ratio",
            (after.hits - before.hits) as f64 / lookups.max(1) as f64,
        );
        sheet.set(
            "server.cache_evictions_per_op",
            (after.evictions - before.evictions) as f64 / (closed.len() + open.len()) as f64,
        );
        sheet.set(
            "server.cache_bytes_per_entry",
            after.bytes as f64 / after.entries.max(1) as f64,
        );
        sheet.set(
            "server.pages_read_per_miss",
            (after.pages_read - before.pages_read) as f64 / draws.max(1) as f64,
        );
        sheet.set(
            "server.coalesced_waits",
            (after.coalesced_waits - before.coalesced_waits) as f64,
        );
        sheet.set(
            "server.busy_rejections",
            (after.busy_rejections - before.busy_rejections) as f64,
        );
        // `queue_depth_max` resets on every `stats`; the high-water mark of
        // the run is the largest any `stats` answer showed.
        let mut outcomes = closed_outcomes;
        outcomes.extend(open_outcomes);
        let hwm = outcomes
            .iter()
            .map(|o| o.queue_hwm)
            .max()
            .unwrap_or(0)
            .max(after.queue_hwm);
        sheet.set("server.queue_depth_hwm", hwm as f64);
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_order_is_a_pure_function_of_the_seed_and_skewed() {
        let a = zipf_order(11, 48, 2_000);
        assert_eq!(a, zipf_order(11, 48, 2_000));
        assert_ne!(a, zipf_order(12, 48, 2_000));
        assert_eq!(a[..500], zipf_order(11, 48, 500)[..]);
        assert!(a.iter().all(|&g| g < 48));
        let count = |g: usize| a.iter().filter(|&&x| x == g).count();
        // Rank 0 carries 1/H(48) ≈ 22% of the requests, rank 47 under 1%.
        assert!(count(0) > 350 && count(0) < 550, "{}", count(0));
        assert!(count(47) < 30);
    }

    #[test]
    fn sequences_follow_their_stated_mix() {
        let hot = sequence(Workload::ServedHot, 5, 2_000);
        assert_eq!(hot, sequence(Workload::ServedHot, 5, 2_000));
        let share =
            |pick: fn(&Req) -> bool| hot.iter().filter(|r| pick(r)).count() as f64 / 2_000.0;
        assert_eq!(share(|r| matches!(r, Req::Estimate { .. })), 0.75);
        assert_eq!(share(|r| matches!(r, Req::Advise { .. })), 0.15);
        assert_eq!(share(|r| matches!(r, Req::Info)), 0.05);
        assert_eq!(share(|r| matches!(r, Req::Stats)), 0.05);

        let churn = sequence(Workload::ServedChurn, 5, 1_000);
        let deep = churn
            .iter()
            .filter(|r| matches!(r, Req::Estimate { deep: true, .. }))
            .count();
        assert_eq!(deep, 100);
        assert!(churn
            .iter()
            .all(|r| matches!(r, Req::Estimate { group, scheme, .. } if *scheme == group % 6)));
    }

    #[test]
    fn stage_sums_and_cache_counters_read_the_documented_shapes() {
        let metrics = Json::obj().field(
            "exposition",
            Json::str("samplecf_stage_duration_ns_sum{stage=\"execute\"} 900\nsamplecf_stage_duration_ns_sum{stage=\"parse\"} 100\n"),
        );
        assert_eq!(
            stage_sums(&metrics).unwrap(),
            vec![100.0, 0.0, 900.0, 0.0, 0.0, 0.0]
        );

        let stats = Json::parse(
            r#"{"ok":true,"op":"stats","stats":{"cache":{"entries":2,"bytes":10,"hits":4,"misses":2,"deepened":1,"evictions":0,"coalesced_waits":3,"pages_read":21},"server":{"busy_rejections":0,"queue_depth_max":7}}}"#,
        )
        .unwrap();
        let counters = cache_counters(&stats).unwrap();
        assert_eq!(
            (counters.hits, counters.deepened, counters.queue_hwm),
            (4, 1, 7)
        );
        assert!(cache_counters(&Json::obj()).is_err());
    }
}
