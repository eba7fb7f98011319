//! Fault injection against a live `samplecfd`: stalled writers,
//! mid-response disconnects, garbage pipeliners, and saturation.  The
//! properties under test are the event loop's isolation guarantees — a
//! misbehaving client must not block other clients, every connection slot
//! must be reclaimed, and overload must surface as structured `busy`
//! responses rather than hangs.

use samplecf_datagen::presets;
use samplecf_server::{Json, Server, ServerConfig, ServerHandle, DEFAULT_CACHE_BUDGET_BYTES};
use samplecf_storage::DiskTable;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A table big enough that a deep draw takes real milliseconds (the
/// saturation test needs the single worker to stay busy while requests
/// pile up behind it).
fn table_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let generated = presets::single_char_table("fault_t", 60_000, 24, 100, 8, 31)
            .generate()
            .expect("generation succeeds");
        let path = std::env::temp_dir().join(format!(
            "samplecf_fault_injection_{}.scf",
            std::process::id()
        ));
        DiskTable::materialize(&path, &generated.table).expect("materialisation succeeds");
        path
    })
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    let handle = Server::bind("127.0.0.1:0", config).expect("bind succeeds");
    handle
        .state()
        .catalog
        .register(&table_path().to_string_lossy(), Some("t"))
        .expect("register succeeds");
    handle
}

/// One blocking request/response exchange on a fresh connection.
fn roundtrip(addr: std::net::SocketAddr, request: &str) -> Json {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(request.as_bytes()).expect("send");
    writer.write_all(b"\n").expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("receive");
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
}

fn assert_ok(reply: &Json) {
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {reply}"
    );
}

/// Poll the open-connection gauge down to `expected` — closes are
/// processed by the event loop asynchronously after a client drops.
fn await_open_connections(handle: &ServerHandle, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = handle.state().gauges.open_connections();
        if open == expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "open_connections stuck at {open}, expected {expected}: leaked slots"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_stalled_writer_does_not_block_other_clients() {
    let handle = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // The staller sends half a request and then goes quiet, holding the
    // connection (and the server's partial-line buffer) open.
    let staller = TcpStream::connect(addr).expect("connect staller");
    staller
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut staller_writer = staller.try_clone().expect("clone");
    staller_writer
        .write_all(br#"{"op":"estimate","table":"t","sampler":"block","frac"#)
        .expect("send half");

    // Meanwhile every other client is served promptly.
    let started = Instant::now();
    for i in 0..20 {
        let reply = roundtrip(
            addr,
            &format!(
                r#"{{"op":"estimate","table":"t","sampler":"block","fraction":0.05,"scheme":"rle","seed":{}}}"#,
                i % 3
            ),
        );
        assert_ok(&reply);
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "other clients were starved behind a stalled writer: {:?}",
        started.elapsed()
    );

    // The staller finally finishes its line and is served normally.
    staller_writer
        .write_all(b"tion\":0.05,\"scheme\":\"rle\",\"seed\":0}\n")
        .expect("send rest");
    let mut reader = BufReader::new(staller);
    let mut line = String::new();
    reader.read_line(&mut line).expect("receive");
    assert_ok(&Json::parse(line.trim()).expect("structured"));

    drop(reader);
    drop(staller_writer);
    await_open_connections(&handle, 0);
    handle.shutdown();
}

#[test]
fn disconnecting_mid_response_leaks_no_slots() {
    let handle = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // 30 clients fire a request and vanish without reading the response;
    // the server is left to discover the dead socket when it flushes.
    for i in 0..30 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                format!(
                    "{{\"op\":\"estimate\",\"table\":\"t\",\"sampler\":\"block\",\
                     \"fraction\":0.05,\"scheme\":\"rle\",\"seed\":{}}}\n",
                    i % 4
                )
                .as_bytes(),
            )
            .expect("send");
        drop(stream);
    }

    // The server still answers new clients...
    assert_ok(&roundtrip(addr, r#"{"op":"info","table":"t"}"#));
    // ...and reclaims every abandoned slot.
    await_open_connections(&handle, 0);
    assert!(handle.state().gauges.connections_accepted() >= 31);
    handle.shutdown();
}

#[test]
fn a_garbage_pipeliner_cannot_starve_others_and_gets_every_answer() {
    let handle = spawn_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    const GARBAGE_LINES: usize = 2_000;
    let pipeliner = TcpStream::connect(addr).expect("connect pipeliner");
    pipeliner
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut pipeliner_writer = pipeliner.try_clone().expect("clone");
    let flood: String = "this is not json\n".repeat(GARBAGE_LINES);
    pipeliner_writer
        .write_all(flood.as_bytes())
        .expect("send flood");

    // Cross-client latency stays bounded while the flood is in flight.
    for _ in 0..20 {
        let started = Instant::now();
        assert_ok(&roundtrip(addr, r#"{"op":"info","table":"t"}"#));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a garbage flood starved an innocent client: {:?}",
            started.elapsed()
        );
    }

    // Back on the flooding connection: one structured parse_error per
    // line, in order, none lost.  (The loop also drains the server's
    // write backlog, releasing its pipelining backpressure.)
    let mut reader = BufReader::new(pipeliner);
    let mut line = String::new();
    for i in 0..GARBAGE_LINES {
        line.clear();
        let n = reader.read_line(&mut line).expect("read reply");
        assert!(
            n > 0,
            "connection closed after {i} of {GARBAGE_LINES} replies"
        );
        let reply = Json::parse(line.trim()).unwrap_or_else(|e| panic!("reply {i}: {e}"));
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("parse_error"),
            "reply {i}: {reply}"
        );
    }

    drop(reader);
    drop(pipeliner_writer);
    await_open_connections(&handle, 0);
    handle.shutdown();
}

#[test]
fn the_connection_limit_answers_busy_and_frees_capacity_on_close() {
    let handle = spawn_server(ServerConfig {
        workers: 1,
        max_connections: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Fill both slots, proving admission with a served request each.
    let hold = |seed: u64| {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer
            .write_all(
                format!("{{\"op\":\"stats\"}}{}\n", " ".repeat(seed as usize % 2)).as_bytes(),
            )
            .expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("receive");
        assert_ok(&Json::parse(line.trim()).expect("structured"));
        (reader, writer)
    };
    let first = hold(1);
    let second = hold(2);

    // The third connection is told busy and closed — not silently
    // dropped, not left hanging.
    let over = TcpStream::connect(addr).expect("connect over limit");
    over.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(over);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read busy line");
    let reply = Json::parse(line.trim()).expect("structured");
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("busy"),
        "over-limit connect: {reply}"
    );
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("EOF after busy");
    assert!(rest.is_empty(), "server kept talking after busy: {rest:?}");
    assert!(handle.state().gauges.connections_rejected() >= 1);

    // Closing one admitted connection frees a slot for a newcomer.
    drop(first);
    await_open_connections(&handle, 1);
    assert_ok(&roundtrip(addr, r#"{"op":"info","table":"t"}"#));

    drop(second);
    await_open_connections(&handle, 0);
    handle.shutdown();
}

#[test]
fn a_full_request_queue_answers_busy_not_deadlock() {
    // One worker, one queue slot: the third concurrent estimate in flight
    // must be refused, structurally, while the first two complete.
    let handle = spawn_server(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let request = |seed: u64| {
        format!(
            "{{\"op\":\"estimate\",\"table\":\"t\",\"sampler\":\"block\",\
             \"fraction\":0.9,\"scheme\":\"dictionary-global\",\"seed\":{seed}}}\n"
        )
    };

    // A slow estimate occupies the worker...
    let mut conns = Vec::new();
    let connect = || {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        s
    };
    let mut first = connect();
    first.write_all(request(1).as_bytes()).expect("send");
    conns.push(first);
    std::thread::sleep(Duration::from_millis(30));

    // ...then three more distinct-seed estimates arrive at once.  One
    // fits the queue; at least one of the others must be told busy.
    for seed in 2..=4 {
        let mut stream = connect();
        stream.write_all(request(seed).as_bytes()).expect("send");
        conns.push(stream);
    }

    let (mut ok, mut busy) = (0usize, 0usize);
    for stream in conns {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("receive");
        let reply = Json::parse(line.trim()).expect("structured");
        match reply.get("ok").and_then(Json::as_bool) {
            Some(true) => ok += 1,
            Some(false) => {
                assert_eq!(
                    reply
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Json::as_str),
                    Some("busy"),
                    "only busy is an acceptable refusal here: {reply}"
                );
                busy += 1;
            }
            None => panic!("malformed reply: {reply}"),
        }
    }
    assert_eq!(ok + busy, 4, "every request must be answered");
    assert!(
        ok >= 2,
        "the worker and the queue slot must both serve: {ok} ok / {busy} busy"
    );
    assert!(
        busy >= 1,
        "overload must surface as busy, got {ok} ok / {busy} busy"
    );
    assert!(handle.state().gauges.busy_rejections() >= 1);

    await_open_connections(&handle, 0);
    handle.shutdown();
}

#[test]
fn stats_reports_the_server_gauges_live() {
    let handle = spawn_server(ServerConfig::default());
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(b"{\"op\":\"stats\"}\n").expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("receive");
    let reply = Json::parse(line.trim()).expect("structured");
    assert_ok(&reply);

    let stats = reply.get("stats").expect("stats body");
    let server = stats.get("server").expect("stats carries a server object");
    let field = |k: &str| {
        server
            .get(k)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("server.{k} missing in {reply}"))
    };
    // This very connection is open while the stats request is served.
    assert!(field("open_connections") >= 1);
    assert!(field("connections_accepted") >= 1);
    assert_eq!(field("max_connections"), 10_240);
    assert_eq!(field("queue_capacity"), 1_024);
    let _ = (
        field("connections_rejected"),
        field("busy_rejections"),
        field("queue_depth"),
    );

    // The cache reports its one budget, the configured default.
    let cache = stats.get("cache").expect("stats carries a cache object");
    assert_eq!(
        cache.get("budget_bytes").and_then(Json::as_u64),
        Some(DEFAULT_CACHE_BUDGET_BYTES as u64)
    );

    drop((reader, writer));
    await_open_connections(&handle, 0);
    handle.shutdown();
}
