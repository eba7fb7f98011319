//! Property-based tests for the untrusted half of `samplecfd`: the JSON
//! parser and the line protocol.  The daemon reads arbitrary bytes from
//! the network, so the contract under test is absolute — any input
//! produces either a parsed value or a structured error, **never** a
//! panic, and a live server answers every non-blank garbage line with an
//! `{"ok":false,...}` envelope and keeps serving.

use proptest::prelude::*;
use samplecf_datagen::presets;
use samplecf_server::{Json, Server, ServerConfig, ServiceState};
use samplecf_storage::Table;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// One small table on disk, materialized once for the whole test binary.
fn table_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let generated = presets::single_char_table("fuzz_t", 2_000, 20, 50, 8, 77)
            .generate()
            .expect("generation succeeds");
        let path = std::env::temp_dir().join(format!(
            "samplecf_proptest_protocol_{}.scf",
            std::process::id()
        ));
        Table::materialize(&path, &generated.table).expect("materialisation succeeds");
        path
    })
}

/// An in-process service with the table registered, shared across cases.
fn service() -> &'static ServiceState {
    static STATE: OnceLock<ServiceState> = OnceLock::new();
    STATE.get_or_init(|| {
        let state = ServiceState::new(16 * 1024 * 1024);
        state
            .catalog
            .register(&table_path().to_string_lossy(), Some("t"))
            .expect("register succeeds");
        state
    })
}

/// A live TCP server (small line limit so oversized lines are reachable),
/// shared across cases.
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let handle = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                max_line_bytes: 4 * 1024,
                ..ServerConfig::default()
            },
        )
        .expect("bind succeeds");
        handle
            .state()
            .catalog
            .register(&table_path().to_string_lossy(), Some("t"))
            .expect("register succeeds");
        let addr = handle.addr();
        // Intentionally leaked: the server lives as long as the test
        // binary, and the OS reclaims the port on exit.
        std::mem::forget(handle);
        addr
    })
}

/// The response contract: one line, valid JSON, an `ok` boolean, and on
/// failure a non-empty `error.code`.
fn assert_structured(line: &str) {
    assert!(!line.contains('\n'), "response must be one line: {line:?}");
    let reply = Json::parse(line).unwrap_or_else(|e| panic!("unparseable reply {line:?}: {e}"));
    let ok = reply
        .get("ok")
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("reply lacks ok: {line:?}"));
    if !ok {
        let code = reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("error reply lacks error.code: {line:?}"));
        assert!(!code.is_empty());
    }
}

/// Strings exercising escapes, unicode, and controls alongside plain text.
fn tricky_string() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::string::string_regex("[ -~]{0,24}").expect("valid regex"),
        Just("line\nbreak \"quoted\" back\\slash".to_string()),
        Just("nul\u{0}tab\tbell\u{7}".to_string()),
        Just("sn\u{2744}wman \u{1F600} \u{FFFD}".to_string()),
    ]
}

/// A JSON document of bounded depth, restricted to values whose
/// serialization round-trips exactly (finite dyadic numbers).  The
/// vendored proptest has no `prop_recursive`, so the recursion is explicit
/// in `depth`.
fn arb_json(depth: usize) -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i32>().prop_map(|i| Json::Num(f64::from(i))),
        (any::<i32>(), 0u32..8)
            .prop_map(|(m, shift)| Json::Num(f64::from(m) / f64::from(1u32 << shift))),
        tricky_string().prop_map(Json::Str),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = arb_json(depth - 1);
    prop_oneof![
        leaf,
        proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
        proptest::collection::vec((tricky_string(), inner), 0..4).prop_map(Json::Obj),
    ]
    .boxed()
}

/// A request whose *shape* is right but whose fields are hostile: unknown
/// ops, bogus samplers/schemes, out-of-range fractions, huge seeds.
fn fuzzed_request() -> impl Strategy<Value = String> {
    let op = prop_oneof![
        Just("estimate"),
        Just("estimate_progressive"),
        Just("advise"),
        Just("info"),
        Just("stats"),
        Just("register"),
        Just("frobnicate"),
        Just(""),
    ];
    let table = prop_oneof![
        Just("t".to_string()),
        proptest::string::string_regex("[a-z_]{0,10}").expect("valid regex"),
    ];
    let sampler = prop_oneof![Just("block"), Just("row"), Just("system"), Just("bogus")];
    let scheme = prop_oneof![
        Just("dictionary-global"),
        Just("null-suppression"),
        Just("rle"),
        Just("no-such-scheme"),
    ];
    // Fractions from deeply negative to absurdly large, in exact steps.
    let fraction = (-40i32..4_000).prop_map(|n| f64::from(n) / 100.0);
    (op, table, sampler, scheme, fraction, any::<u64>()).prop_map(
        |(op, table, sampler, scheme, fraction, seed)| {
            format!(
                r#"{{"op":"{op}","table":"{table}","sampler":"{sampler}","scheme":"{scheme}","fraction":{fraction},"seed":{seed}}}"#
            )
        },
    )
}

/// A canonical valid request, used as the base for truncation.
const VALID_REQUEST: &str = r#"{"op":"estimate","table":"t","sampler":"block","fraction":0.1,"scheme":"null-suppression","seed":42}"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Ok or Err are both acceptable; reaching the end of this case is
        // the assertion (no panic, no hang, no stack overflow).
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_serialization_roundtrips(doc in arb_json(3)) {
        let line = doc.to_line();
        prop_assert!(!line.contains('\n'));
        let parsed = Json::parse(&line)
            .map_err(|e| TestCaseError::fail(format!("reparse of {line:?}: {e}")))?;
        prop_assert_eq!(parsed, doc);
        // pretty() parses back to the same value too.
        let pretty = Json::pretty(&doc);
        let reparsed = Json::parse(&pretty)
            .map_err(|e| TestCaseError::fail(format!("reparse of pretty: {e}")))?;
        prop_assert_eq!(reparsed, Json::parse(&line).expect("already parsed"));
    }

    #[test]
    fn nesting_depth_is_enforced_exactly(depth in 1usize..300) {
        let doc = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let result = Json::parse(&doc);
        if depth <= 128 {
            prop_assert!(result.is_ok(), "depth {depth} should parse: {result:?}");
        } else {
            let err = result.expect_err("beyond the depth limit");
            prop_assert!(err.contains("nesting"), "unexpected error: {err}");
        }
    }

    #[test]
    fn handle_line_answers_arbitrary_bytes_structurally(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        assert_structured(&service().handle_line(&line));
    }

    #[test]
    fn handle_line_answers_hostile_requests_structurally(request in fuzzed_request()) {
        assert_structured(&service().handle_line(&request));
    }

    #[test]
    fn truncated_requests_fail_structurally(cut in 0usize..=VALID_REQUEST.len()) {
        let response = service().handle_line(&VALID_REQUEST[..cut]);
        assert_structured(&response);
        if cut < VALID_REQUEST.len() {
            let reply = Json::parse(&response).expect("structured");
            prop_assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        }
    }
}

proptest! {
    // Over real TCP, so fewer (but fatter) cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_live_server_survives_arbitrary_bytes_on_the_wire(
        mut garbage in proptest::collection::vec(any::<u8>(), 0..8192)
    ) {
        // A random byte stream cannot spell a valid shutdown request, but
        // mask the opcode anyway so a pathological draw cannot kill the
        // shared server out from under the other cases.
        for i in 0..garbage.len().saturating_sub(7) {
            if &garbage[i..i + 8] == b"shutdown" {
                garbage[i] = b'X';
            }
        }

        let stream = TcpStream::connect(server_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);

        // Garbage (possibly spanning many lines, possibly oversized for
        // the server's 4 KiB line limit), then a sentinel request.
        writer.write_all(&garbage).expect("send garbage");
        writer.write_all(b"\n").expect("terminate garbage");
        writer
            .write_all(b"{\"op\":\"info\",\"table\":\"t\"}\n")
            .expect("send sentinel");

        // Every line the server says must be structured; the sentinel
        // must be answered, proving nothing wedged.
        let mut line = String::new();
        let mut sentinel_answered = false;
        for _ in 0..garbage.len() + 2 {
            line.clear();
            let n = reader.read_line(&mut line).expect("read reply");
            prop_assert!(n > 0, "server closed before answering the sentinel");
            assert_structured(line.trim_end());
            let reply = Json::parse(line.trim_end()).expect("structured");
            if reply.get("ok").and_then(Json::as_bool) == Some(true)
                && reply.get("op").and_then(Json::as_str) == Some("info")
            {
                sentinel_answered = true;
                break;
            }
        }
        prop_assert!(sentinel_answered, "sentinel request never answered");
    }
}
