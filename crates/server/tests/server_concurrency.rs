//! Concurrency acceptance tests for `samplecfd` over real TCP sockets.
//!
//! The contract under test (ISSUE 5 acceptance criteria): the daemon serves
//! many concurrent clients with results **byte-identical to the single-shot
//! CLI path seed-for-seed**, duplicate in-flight requests for one cache
//! group coalesce onto a **single page-read pass**, and per-request
//! accounting flows back in every response.

use samplecf_core::SampleCf;
use samplecf_datagen::presets;
use samplecf_index::IndexSpec;
use samplecf_sampling::SamplerKind;
use samplecf_server::{Json, Server, ServerConfig};
use samplecf_storage::Table;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Barrier;

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn scratch_table(tag: &str, rows: usize) -> (String, Cleanup) {
    let path =
        std::env::temp_dir().join(format!("samplecf_srvtest_{tag}_{}.scf", std::process::id()));
    let table = presets::single_char_table("stress_t", rows, 24, 60, 8, 7)
        .generate()
        .unwrap()
        .table;
    Table::materialize(&path, &table).unwrap();
    (path.to_string_lossy().into_owned(), Cleanup(path))
}

/// One request/response round trip on a fresh connection.
fn roundtrip(addr: std::net::SocketAddr, request: &str) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("receive");
    Json::parse(line.trim()).expect("reply is valid JSON")
}

fn assert_ok(reply: &Json) {
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected success, got {reply}"
    );
}

#[test]
fn concurrent_clients_get_byte_identical_results_from_one_page_pass() {
    let (path, _cleanup) = scratch_table("stampede", 12_000);
    let handle = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 16,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let registered = roundtrip(addr, &format!(r#"{{"op":"register","path":"{path}"}}"#));
    assert_ok(&registered);
    let num_pages = registered
        .get("table")
        .and_then(|t| t.get("pages"))
        .and_then(Json::as_u64)
        .unwrap();
    let expected_pages = ((num_pages as f64) * 0.1).round().max(1.0) as u64;

    // 12 concurrent clients — the acceptance bar is ≥ 8 — all asking for
    // the same (table, sampler, fraction, seed) group, released together.
    const CLIENTS: usize = 12;
    let request = r#"{"op":"estimate","table":"stress_t","sampler":"block","fraction":0.1,"scheme":"dictionary-global","seed":11}"#;
    let barrier = Barrier::new(CLIENTS);
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    roundtrip(addr, request).to_line()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every client's *result* object is byte-identical; accounting differs
    // only in who paid the one draw.
    let parsed: Vec<Json> = replies.iter().map(|r| Json::parse(r).unwrap()).collect();
    let first_result = parsed[0].get("result").unwrap();
    for reply in &parsed {
        assert_ok(reply);
        assert_eq!(reply.get("result").unwrap(), first_result);
    }

    // Byte-identical to the single-shot estimator path, seed for seed.
    let disk = Table::open(&path).unwrap();
    let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
    let scheme = samplecf_compression::scheme_by_name("dictionary-global").unwrap();
    let direct = SampleCf::new(SamplerKind::Block(0.1))
        .seed(11)
        .estimate(&disk, &spec, scheme.as_ref())
        .unwrap();
    assert_eq!(
        first_result.get("cf").and_then(Json::as_f64),
        Some(direct.cf)
    );
    assert_eq!(
        first_result.get("cf_with_pointers").and_then(Json::as_f64),
        Some(direct.cf_with_pointers)
    );
    assert_eq!(
        first_result.get("cf_pages").and_then(Json::as_f64),
        Some(direct.cf_pages)
    );
    assert_eq!(
        first_result.get("rows").and_then(Json::as_u64),
        Some(direct.data.rows as u64)
    );
    assert_eq!(
        first_result
            .get("distinct_first_key")
            .and_then(Json::as_u64),
        Some(direct.data.distinct_first_key as u64)
    );

    // The whole stampede cost exactly one draw: per-response accounting
    // sums to one page pass, and the server-side counters agree.
    let total_pages: u64 = parsed
        .iter()
        .map(|r| {
            r.get("accounting")
                .and_then(|a| a.get("pages_read"))
                .and_then(Json::as_u64)
                .unwrap()
        })
        .sum();
    assert_eq!(total_pages, expected_pages, "one page-read pass per group");
    let misses = parsed
        .iter()
        .filter(|r| {
            r.get("accounting")
                .and_then(|a| a.get("cache"))
                .and_then(Json::as_str)
                == Some("miss")
        })
        .count();
    assert_eq!(misses, 1, "exactly one request drew; the rest coalesced");

    let stats = roundtrip(addr, r#"{"op":"stats"}"#);
    assert_ok(&stats);
    let cache = stats.get("stats").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    assert_eq!(
        cache.get("hits").and_then(Json::as_u64),
        Some((CLIENTS - 1) as u64)
    );
    assert_eq!(
        cache.get("pages_read").and_then(Json::as_u64),
        Some(expected_pages)
    );

    handle.shutdown();
}

#[test]
fn a_deeper_request_extends_the_shared_sample_and_stays_exact() {
    let (path, _cleanup) = scratch_table("deepen", 9_000);
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr();
    assert_ok(&roundtrip(
        addr,
        &format!(r#"{{"op":"register","path":"{path}"}}"#),
    ));

    let shallow = roundtrip(
        addr,
        r#"{"op":"estimate","table":"stress_t","sampler":"block","fraction":0.05,"seed":3}"#,
    );
    assert_ok(&shallow);
    let shallow_pages = shallow
        .get("accounting")
        .and_then(|a| a.get("pages_read"))
        .and_then(Json::as_u64)
        .unwrap();

    let deep = roundtrip(
        addr,
        r#"{"op":"estimate","table":"stress_t","sampler":"block","fraction":0.2,"seed":3}"#,
    );
    assert_ok(&deep);
    let acc = deep.get("accounting").unwrap();
    assert_eq!(acc.get("cache").and_then(Json::as_str), Some("deepened"));
    let delta_pages = acc.get("pages_read").and_then(Json::as_u64).unwrap();

    // The deepened estimate equals a fresh single-shot run at the deeper
    // fraction — deepening is an I/O optimization, never an approximation.
    let disk = Table::open(&path).unwrap();
    let spec = IndexSpec::nonclustered("idx", ["a"]).unwrap();
    let direct = SampleCf::new(SamplerKind::Block(0.2))
        .seed(3)
        .estimate(&disk, &spec, &samplecf_compression::NullSuppression)
        .unwrap();
    let result = deep.get("result").unwrap();
    assert_eq!(result.get("cf").and_then(Json::as_f64), Some(direct.cf));
    assert_eq!(
        result.get("rows").and_then(Json::as_u64),
        Some(direct.data.rows as u64)
    );
    // ...at only the delta's I/O cost.
    let full_deep_pages = ((disk.num_pages() as f64) * 0.2).round().max(1.0) as u64;
    assert_eq!(shallow_pages + delta_pages, full_deep_pages);

    handle.shutdown();
}

#[test]
fn one_connection_carries_many_requests_in_order() {
    let (path, _cleanup) = scratch_table("pipeline", 4_000);
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |request: String| {
        stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    };

    assert_ok(&send(format!(r#"{{"op":"register","path":"{path}"}}"#)));
    assert_ok(&send(r#"{"op":"info","table":"stress_t"}"#.to_string()));
    let est = send(
        r#"{"op":"estimate","table":"stress_t","sampler":"block","fraction":0.1,"seed":1}"#
            .to_string(),
    );
    assert_ok(&est);
    // A garbage line gets an error response but does not kill the
    // connection: the next request still answers.
    let bad = send("this is not json".to_string());
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    let stats = send(r#"{"op":"stats"}"#.to_string());
    assert_ok(&stats);
    assert!(
        stats
            .get("stats")
            .and_then(|s| s.get("requests"))
            .and_then(|r| r.get("total"))
            .and_then(Json::as_u64)
            .unwrap()
            >= 4
    );

    drop(reader);
    handle.shutdown();
}
