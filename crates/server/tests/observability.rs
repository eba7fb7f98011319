//! End-to-end observability against a live `samplecfd`: every request
//! kind the protocol can classify is driven over a real socket, then the
//! per-kind and per-stage instruments are checked for two properties:
//!
//! * **coverage** — each driven kind shows up in the Prometheus-style
//!   exposition with both its request counter and its latency histogram;
//! * **stage accounting** — the sum of queue-wait plus execute time over
//!   all requests can never exceed the sum of end-to-end time, because
//!   each request's stages are measured inside its own total clock.
//!
//! A second test holds 200 connections open at once and checks the
//! connection plane's claims: no pipelined line is lost, the registry's
//! counts equal the clients', and the five per-request stages sum to the
//! end-to-end time exactly.
//!
//! The assertions read the server's in-process [`MetricsRegistry`] — the
//! same Arc the socket-visible `metrics` op serializes — which is exactly
//! how the issue intends load harnesses to use it.

use samplecf_datagen::presets;
use samplecf_server::{Json, MetricsRegistry, RequestKind, Server, ServerConfig, ServerHandle};
use samplecf_storage::Table;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

fn table_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let generated = presets::single_char_table("obs_t", 20_000, 24, 60, 8, 17)
            .generate()
            .expect("generation succeeds");
        let path =
            std::env::temp_dir().join(format!("samplecf_observability_{}.scf", std::process::id()));
        Table::materialize(&path, &generated.table).expect("materialisation succeeds");
        path
    })
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config).expect("bind succeeds")
}

/// One request/response exchange on a fresh connection; the raw line is
/// sent verbatim so the test can also inject invalid JSON.
fn roundtrip_raw(addr: std::net::SocketAddr, line: &str) -> Json {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(line.as_bytes()).expect("send");
    writer.write_all(b"\n").expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("receive");
    Json::parse(reply.trim()).unwrap_or_else(|e| panic!("bad reply {reply:?}: {e}"))
}

fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
    match registry.snapshot().get(name) {
        Some(samplecf_obs::MetricValue::Counter(n)) => *n,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

fn histogram_sum(registry: &MetricsRegistry, name: &str) -> u64 {
    match registry.snapshot().get(name) {
        Some(samplecf_obs::MetricValue::Histogram(h)) => h.sum,
        other => panic!("{name} is not a histogram: {other:?}"),
    }
}

fn histogram_count(registry: &MetricsRegistry, name: &str) -> u64 {
    match registry.snapshot().get(name) {
        Some(samplecf_obs::MetricValue::Histogram(h)) => h.count,
        other => panic!("{name} is not a histogram: {other:?}"),
    }
}

#[test]
fn every_request_kind_is_observable_and_stage_sums_stay_under_totals() {
    let handle = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let path = table_path().to_string_lossy().into_owned();

    // Drive one (or more) of every classifiable request kind over the
    // socket.  `invalid` is reached twice — a parse error and an unknown
    // op — `advise` twice on one sample, and `shutdown` goes last.
    let advise = r#"{"op":"advise","table":"t","sampler":"block","fraction":0.05,"seed":3,"candidates":[{"index":"i1","scheme":"rle"},{"index":"i2","scheme":"dictionary-global"},{"index":"i3","scheme":"null-suppression"}]}"#;
    let requests = [
        format!(r#"{{"op":"register","path":"{path}","name":"t"}}"#),
        r#"{"op":"info","table":"t"}"#.to_string(),
        r#"{"op":"estimate","table":"t","sampler":"block","fraction":0.05,"scheme":"rle","seed":1}"#
            .to_string(),
        r#"{"op":"estimate_progressive","table":"t","sampler":"uniform","fraction":0.2,"target_error":0.25,"scheme":"rle","seed":2}"#
            .to_string(),
        advise.to_string(),
        advise.to_string(),
        r#"{"op":"stats"}"#.to_string(),
        r#"{"op":"metrics"}"#.to_string(),
        "this is not json".to_string(),
        r#"{"op":"frobnicate"}"#.to_string(),
    ];
    for line in &requests {
        let _ = roundtrip_raw(addr, line);
    }
    let shutdown = roundtrip_raw(addr, r#"{"op":"shutdown"}"#);
    assert_eq!(shutdown.get("ok").and_then(Json::as_bool), Some(true));

    // Keep the registry alive past the server's wind-down: completion
    // draining happens on the event loop, which `shutdown()` joins.
    let state = std::sync::Arc::clone(handle.state());
    handle.shutdown();

    let exposition = state.metrics.expose();
    for kind in RequestKind::ALL {
        let counter = format!("samplecf_requests_total{{op=\"{}\"}}", kind.name());
        let duration = format!(
            "samplecf_request_duration_ns_count{{op=\"{}\"}}",
            kind.name()
        );
        if kind == RequestKind::Invalid {
            // `invalid` has no dispatch counter — it is classified after
            // parse/op resolution fails — but its latency is recorded.
            assert!(
                exposition.contains(&duration),
                "missing {duration} in exposition"
            );
            continue;
        }
        assert!(
            exposition.contains(&counter),
            "missing {counter} in exposition"
        );
        assert!(
            exposition.contains(&duration),
            "missing {duration} in exposition"
        );
    }

    // Each `advise` named three candidates on one key: six evaluations off
    // a single sort of the shared sample — the repeat walked the order the
    // first left with it.  The `estimate` sorted its own sample.
    let advised = |name: &str| counter(&state.metrics, &format!("samplecf_advisor_{name}_total"));
    assert_eq!(
        (advised("evaluated_candidates"), advised("key_sorts")),
        (6, 1)
    );
    let orders = |outcome: &str| {
        let name = format!("samplecf_key_orders_total{{outcome=\"{outcome}\"}}");
        counter(&state.metrics, &name)
    };
    assert_eq!((orders("sorted"), orders("held")), (2, 1));
    assert_eq!(counter(&state.metrics, "samplecf_panics_total"), 0);

    // Every socket-driven request was observed exactly once, through the
    // same path the daemon uses (queue → worker → completion drain).
    let observed: u64 = RequestKind::ALL
        .iter()
        .map(|kind| {
            histogram_count(
                &state.metrics,
                &format!("samplecf_request_duration_ns{{op=\"{}\"}}", kind.name()),
            )
        })
        .sum();
    assert_eq!(observed, requests.len() as u64 + 1, "one per request line");

    // Stage accounting: queue-wait and execute are measured inside each
    // request's total clock, so their sums are bounded by the sum of
    // end-to-end durations — the property that makes per-stage p99s
    // meaningful as an explanation of the e2e p99.
    let total: u64 = RequestKind::ALL
        .iter()
        .map(|kind| {
            histogram_sum(
                &state.metrics,
                &format!("samplecf_request_duration_ns{{op=\"{}\"}}", kind.name()),
            )
        })
        .sum();
    let queue_wait = histogram_sum(
        &state.metrics,
        "samplecf_stage_duration_ns{stage=\"queue_wait\"}",
    );
    let execute = histogram_sum(
        &state.metrics,
        "samplecf_stage_duration_ns{stage=\"execute\"}",
    );
    assert!(queue_wait > 0, "queue-wait time was recorded");
    assert!(execute > 0, "execute time was recorded");
    assert!(
        queue_wait + execute <= total,
        "stage sums exceed the end-to-end sum: {queue_wait} + {execute} > {total}"
    );

    // The loop-side stages fired too: one accept per connection, at least
    // one write per flushed response.
    let accepts = histogram_count(
        &state.metrics,
        "samplecf_stage_duration_ns{stage=\"accept\"}",
    );
    assert_eq!(
        accepts,
        requests.len() as u64 + 1,
        "one accept per connection"
    );
    assert!(
        histogram_count(
            &state.metrics,
            "samplecf_stage_duration_ns{stage=\"write\"}",
        ) > 0,
        "response flushes were timed"
    );
}

#[test]
fn held_open_connections_lose_no_line_and_the_registry_agrees_with_the_clients() {
    const CONNECTIONS: usize = 200;
    const LINES_PER_CONNECTION: usize = 4;

    // A queue shallower than the burst, so some lines may be answered
    // `busy` by the event loop without ever reaching a worker.
    let handle = spawn_server(ServerConfig {
        workers: 2,
        queue_depth: 64,
        ..ServerConfig::default()
    });
    handle
        .state()
        .catalog
        .register(&table_path().to_string_lossy(), Some("t"))
        .expect("register succeeds");
    let addr = handle.addr();

    // Every connection is open before the first byte is sent and stays open
    // until the last reply is read; the server spends descriptors on them,
    // not threads.
    let mut conns: Vec<(TcpStream, BufReader<TcpStream>)> = (0..CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .expect("timeout");
            let writer = stream.try_clone().expect("clone");
            (writer, BufReader::new(stream))
        })
        .collect();
    for (i, (writer, _)) in conns.iter_mut().enumerate() {
        // Estimates share four (sampler, fraction, seed) cache groups.
        let estimate = format!(
            r#"{{"op":"estimate","table":"t","sampler":"block","fraction":0.02,"scheme":"null-suppression","seed":{}}}"#,
            i % 4
        );
        let pipelined = format!("{estimate}\n{{\"op\":\"stats\"}}\n{estimate}\n{estimate}\n");
        writer.write_all(pipelined.as_bytes()).expect("send");
    }
    let (mut ok, mut busy) = (0u64, 0u64);
    for (_, reader) in &mut conns {
        for _ in 0..LINES_PER_CONNECTION {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("receive");
            let reply = Json::parse(reply.trim()).unwrap_or_else(|e| panic!("{reply:?}: {e}"));
            if reply.get("ok").and_then(Json::as_bool) == Some(true) {
                ok += 1;
            } else {
                let code = reply.get("error").and_then(|e| e.get("code"));
                assert_eq!(code.and_then(Json::as_str), Some("busy"), "{reply}");
                busy += 1;
            }
        }
    }
    assert_eq!(ok + busy, (CONNECTIONS * LINES_PER_CONNECTION) as u64);
    assert!(ok > 0);
    drop(conns);

    let state = std::sync::Arc::clone(handle.state());
    handle.shutdown();
    assert!(state.gauges.connections_accepted() >= CONNECTIONS as u64);

    // A `busy` line is never dispatched, so the server's own request
    // counters and end-to-end histograms must both agree with the clients'
    // `ok` tally.
    let (mut dispatched, mut observed, mut total_ns, mut staged_ns) = (0u64, 0u64, 0u64, 0u64);
    let request_stages = ["parse", "queue_wait", "execute", "serialize", "drain"]
        .map(|stage| format!("samplecf_stage_duration_ns{{stage=\"{stage}\"}}"));
    for entry in &state.metrics.snapshot().entries {
        match &entry.value {
            samplecf_obs::MetricValue::Counter(n)
                if entry.name.starts_with("samplecf_requests_total{") =>
            {
                dispatched += n;
            }
            samplecf_obs::MetricValue::Histogram(h)
                if entry.name.starts_with("samplecf_request_duration_ns{") =>
            {
                observed += h.count;
                total_ns += h.sum;
            }
            samplecf_obs::MetricValue::Histogram(h) if request_stages.contains(&entry.name) => {
                staged_ns += h.sum;
            }
            _ => {}
        }
    }
    assert_eq!((dispatched, observed), (ok, ok));

    // The five per-request stages are spans inside each request's own
    // clock, `drain` being whatever no other span claimed, so together they
    // account for the end-to-end time exactly — never more, and (up to
    // saturation) never less.
    let coverage = staged_ns as f64 / total_ns as f64;
    assert!(
        (0.999..=1.0).contains(&coverage),
        "stages explain {coverage:.4} of end-to-end time ({staged_ns} / {total_ns} ns)"
    );
}
