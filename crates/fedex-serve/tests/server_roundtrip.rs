//! End-to-end tests over a real loopback socket: NDJSON round-trips, the
//! HTTP fallback, warm-cache behaviour, and the concurrency contract —
//! N clients hammering one server receive explanations byte-identical to
//! the serial CLI path.

use std::io::{Read, Write};
use std::sync::Arc;

use fedex_core::{render_all, ExecutionMode, Fedex, Session};
use fedex_serve::{json, Client, ExplainService, Json, Server, ServerConfig};

const ROWS: usize = 4_000;
const SEED: usize = 7;
const SQL: &str = "SELECT * FROM spotify WHERE popularity > 65";

fn boot(workers: usize) -> fedex_serve::ServerHandle {
    let service = Arc::new(ExplainService::default());
    let server = Server::bind(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            // Generous admission bounds: these tests exercise the wire
            // contract, not backpressure (tests/scheduler.rs does that).
            queue_depth: 64,
            session_quota: 8,
            max_connections: 64,
            ..Default::default()
        },
        service,
    )
    .expect("bind loopback");
    server.spawn().expect("spawn server")
}

fn req(text: &str) -> Json {
    json::parse(text).unwrap()
}

/// What the serial, in-process CLI path renders for the same step.
fn serial_reference() -> String {
    let mut session = Session::new(Fedex::new().with_execution(ExecutionMode::Serial));
    session.register("spotify", fedex_data::spotify::generate(ROWS, SEED as u64));
    let entry = session.run(SQL).unwrap();
    render_all(&entry.explanations, 44)
}

#[test]
fn register_explain_roundtrip_and_warm_cache() {
    let handle = boot(2);
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();

    let r = client
        .request(&req(&format!(
            r#"{{"cmd":"register_demo","session":"s","rows":{ROWS},"seed":{SEED}}}"#
        )))
        .unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");

    let explain = req(&format!(
        r#"{{"cmd":"explain","session":"s","sql":"{SQL}"}}"#
    ));
    let cold = client.request(&explain).unwrap();
    assert_eq!(cold.get("ok"), Some(&Json::Bool(true)), "{cold:?}");
    let rendered = cold.get("rendered").and_then(Json::as_str).unwrap();
    assert_eq!(rendered, serial_reference(), "wire == serial CLI path");

    // Warm request: the artifact cache reports hits and encode collapses.
    let warm = client.request(&explain).unwrap();
    let hits = warm
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(hits > 0.0, "second request must hit the cache: {warm:?}");
    assert_eq!(
        warm.get("rendered").and_then(Json::as_str),
        Some(rendered),
        "warm == cold over the wire"
    );
    let stages = cold.get("stage_trace").and_then(Json::as_arr).unwrap();
    assert!(
        stages
            .iter()
            .any(|r| r.get("stage").and_then(Json::as_str) == Some("ScoreColumns")),
        "{stages:?}"
    );
    let cold_encode = cold.get("encode_micros").and_then(Json::as_f64).unwrap();
    let warm_encode = warm.get("encode_micros").and_then(Json::as_f64).unwrap();
    assert!(
        warm_encode < cold_encode,
        "warm encode {warm_encode}µs !< cold encode {cold_encode}µs"
    );

    // History saw both runs.
    let h = client
        .request(&req(r#"{"cmd":"history","session":"s"}"#))
        .unwrap();
    assert_eq!(h.get("entries").unwrap().as_arr().unwrap().len(), 2);

    handle.stop().unwrap();
}

#[test]
fn concurrent_clients_get_byte_identical_explanations() {
    let handle = boot(4);
    let addr = handle.addr().to_string();

    // One client registers; the table is shared per session, the cache
    // across sessions.
    let mut setup = Client::connect(&addr).unwrap();
    for session in ["a", "b", "c", "d"] {
        let r = setup
            .request(&req(&format!(
                r#"{{"cmd":"register_demo","session":"{session}","rows":{ROWS},"seed":{SEED}}}"#
            )))
            .unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    }

    let reference = serial_reference();
    let rendered: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = ["a", "b", "c", "d"]
            .into_iter()
            .map(|session| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let explain = req(&format!(
                        r#"{{"cmd":"explain","session":"{session}","sql":"{SQL}"}}"#
                    ));
                    // Two rounds each: cold-ish and warm interleavings.
                    let mut out = Vec::new();
                    for _ in 0..2 {
                        let r = client.request(&explain).unwrap();
                        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
                        out.push(
                            r.get("rendered")
                                .and_then(Json::as_str)
                                .unwrap()
                                .to_string(),
                        );
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(rendered.len(), 8);
    for (i, r) in rendered.iter().enumerate() {
        assert_eq!(r, &reference, "client run {i} diverged from serial path");
    }

    // All four sessions share one cache: at most one cold encode of the
    // (content-identical) table.
    let m = handle.service().manager().cache().metrics();
    assert!(m.hits >= 7, "expected ≥7 cache hits, got {m:?}");

    handle.stop().unwrap();
}

#[test]
fn http_fallback_answers_curl_shaped_requests() {
    let handle = boot(2);
    let addr = handle.addr();

    // POST /api
    let body = r#"{"cmd":"ping"}"#;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /api HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains(r#""pong":true"#), "{response}");

    // GET /healthz and /metrics
    for (path, needle) in [("/healthz", r#""pong":true"#), ("/metrics", r#""cache""#)] {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains(needle), "{path}: {response}");
    }

    // Unknown route → 404 envelope, not a dropped connection.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    handle.stop().unwrap();
}

#[test]
fn connection_cap_refuses_with_typed_error() {
    let service = Arc::new(ExplainService::default());
    let handle = Server::bind(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 4,
            session_quota: 2,
            max_connections: 1,
            ..Default::default()
        },
        service,
    )
    .unwrap()
    .spawn()
    .unwrap();
    let addr = handle.addr().to_string();

    // First connection occupies the single slot (and proves it works).
    let mut first = Client::connect(&addr).unwrap();
    let r = first.request(&req(r#"{"cmd":"ping"}"#)).unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));

    // Second connection is refused with one typed error line, not a
    // silent drop. (The refusal may race the accept loop; poll briefly.)
    let mut refused = None;
    for _ in 0..50 {
        let mut c = Client::connect(&addr).unwrap();
        match c.request_raw(r#"{"cmd":"ping"}"#) {
            Ok(line) if line.contains(r#""code":"overloaded""#) => {
                refused = Some(line);
                break;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    let line = refused.expect("over-cap connection must receive the typed refusal");
    let r = json::parse(&line).unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(false)));

    // The admitted connection still works.
    let r = first.request(&req(r#"{"cmd":"ping"}"#)).unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    handle.stop().unwrap();
}

#[test]
fn traced_explain_reports_spans_and_resolves_in_the_flight_recorder() {
    let handle = boot(2);
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let r = client
        .request(&req(&format!(
            r#"{{"cmd":"register_demo","session":"t","rows":{ROWS},"seed":{SEED}}}"#
        )))
        .unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");

    let traced = req(&format!(
        r#"{{"cmd":"explain","session":"t","sql":"{SQL}","trace":true}}"#
    ));
    let t0 = std::time::Instant::now();
    let cold = client.request(&traced).unwrap();
    let wall_micros = t0.elapsed().as_micros() as f64;
    assert_eq!(cold.get("ok"), Some(&Json::Bool(true)), "{cold:?}");

    let trace = cold.get("trace").expect("traced explain carries a trace");
    let id = trace.get("id").and_then(Json::as_str).unwrap().to_string();
    assert!(
        id.strip_prefix("t-")
            .is_some_and(|hex| { hex.len() == 16 && hex.chars().all(|c| c.is_ascii_hexdigit()) }),
        "trace id {id:?} should be t-<16 hex digits>"
    );
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    assert_eq!(spans.len(), 5, "one span per pipeline stage: {spans:?}");
    let span_sum: f64 = spans
        .iter()
        .map(|s| s.get("micros").and_then(Json::as_f64).unwrap())
        .sum();
    let total = trace.get("total_micros").and_then(Json::as_f64).unwrap();
    assert_eq!(total, span_sum, "spans must account for the whole pipeline");
    assert!(
        total <= wall_micros,
        "pipeline {total}µs cannot exceed client wall {wall_micros}µs"
    );

    // A warm traced run gets a *fresh* id and shows its cache hits in
    // the span-level cache consultations.
    let warm = client.request(&traced).unwrap();
    let warm_trace = warm.get("trace").unwrap();
    let warm_id = warm_trace.get("id").and_then(Json::as_str).unwrap();
    assert_ne!(warm_id, id, "every request gets its own trace id");
    let warm_hit = warm_trace
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|s| s.get("cache").and_then(Json::as_arr))
        .flatten()
        .any(|c| c.get("hit") == Some(&Json::Bool(true)));
    assert!(
        warm_hit,
        "warm run shows no cache hit in its spans: {warm:?}"
    );

    // Untraced requests stay untraced — no "trace" key in the response.
    let plain = client
        .request(&req(&format!(
            r#"{{"cmd":"explain","session":"t","sql":"{SQL}"}}"#
        )))
        .unwrap();
    assert!(plain.get("trace").is_none(), "{plain:?}");

    // The flight recorder replays the cold request's timeline by id:
    // per-stage events plus the scheduler's dispatch/finish bracketing.
    let dump = client
        .request(&req(&format!(
            r#"{{"cmd":"debug_dump","trace_id":"{id}"}}"#
        )))
        .unwrap();
    assert_eq!(dump.get("ok"), Some(&Json::Bool(true)), "{dump:?}");
    let events = dump.get("events").and_then(Json::as_arr).unwrap();
    assert!(!events.is_empty(), "no events for trace {id}");
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    assert!(kinds.contains(&"stage"), "{kinds:?}");
    assert!(kinds.contains(&"finish"), "{kinds:?}");
    for e in events {
        assert_eq!(e.get("trace_id").and_then(Json::as_str), Some(id.as_str()));
    }

    handle.stop().unwrap();
}

#[test]
fn prometheus_scrape_is_valid_and_counts_every_request() {
    let handle = boot(2);
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let r = client
        .request(&req(&format!(
            r#"{{"cmd":"register_demo","session":"p","rows":{ROWS},"seed":{SEED}}}"#
        )))
        .unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
    let r = client
        .request(&req(&format!(
            r#"{{"cmd":"explain","session":"p","sql":"{SQL}"}}"#
        )))
        .unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
    let r = client.request(&req(r#"{"cmd":"ping"}"#)).unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));

    // Without the text/plain Accept, /metrics stays JSON (curl users and
    // the pre-PR 9 smoke keep working).
    let (status, body) = Client::http_get(&addr, "/metrics", "application/json").unwrap();
    assert!(status.contains("200"), "{status}");
    assert!(body.trim_start().starts_with('{'), "{body}");
    assert!(body.contains(r#""cache""#), "{body}");

    // The Prometheus scrape parses under the strict validator: TYPE
    // before samples, monotonic cumulative buckets, +Inf == _count.
    let (status, text) = Client::http_get(&addr, "/metrics", "text/plain").unwrap();
    assert!(status.contains("200"), "{status}");
    let exp = fedex_obs::validate_exposition(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    for family in [
        "fedex_request_duration_seconds",
        "fedex_admission_wait_seconds",
        "fedex_service_time_seconds",
        "fedex_stage_duration_seconds",
    ] {
        assert_eq!(
            exp.types.get(family).map(String::as_str),
            Some("histogram"),
            "{family} missing or mistyped"
        );
    }
    // Every wire command exposes a series, and the per-command counts
    // sum to exactly the request counter — nothing escapes the
    // histograms (the direct scrape itself bumps no counters).
    let requests = exp.sum("fedex_requests_total").unwrap();
    let mut hist_total = 0.0;
    for cmd in fedex_obs::WIRE_COMMANDS {
        hist_total += exp
            .value_with("fedex_request_duration_seconds_count", "cmd", cmd)
            .unwrap_or_else(|| panic!("no series for cmd={cmd:?}"));
    }
    assert_eq!(hist_total, requests, "\n{text}");
    // The one explain above drove every pipeline stage through its
    // stage histogram.
    for stage in fedex_obs::STAGES {
        let count = exp
            .value_with("fedex_stage_duration_seconds_count", "stage", stage)
            .unwrap_or_else(|| panic!("no series for stage={stage:?}"));
        assert!(count >= 1.0, "stage {stage} never observed");
    }

    // The flight-recorder HTTP endpoint serves the same dump as the
    // debug_dump command.
    let (status, body) = Client::http_get(&addr, "/debug/requests", "application/json").unwrap();
    assert!(status.contains("200"), "{status}");
    let dump = json::parse(&body).unwrap();
    assert_eq!(dump.get("ok"), Some(&Json::Bool(true)), "{body}");
    assert!(
        dump.get("events")
            .and_then(Json::as_arr)
            .is_some_and(|e| !e.is_empty()),
        "{body}"
    );

    handle.stop().unwrap();
}

#[test]
fn malformed_lines_do_not_kill_the_connection() {
    let handle = boot(1);
    let mut client = Client::connect(&handle.addr().to_string()).unwrap();
    let r = client.request_raw("{broken json").unwrap();
    assert!(r.contains(r#""ok":false"#));
    // Deep nesting answers typed instead of overflowing a stack and
    // aborting the process: in the JSON line itself, and in the SQL.
    let r = client.request_raw(&"[".repeat(1_000_000)).unwrap();
    assert!(r.contains(r#""code":"invalid_json""#), "{r}");
    let sql = format!("SELECT * FROM t WHERE {}x > 1", "NOT ".repeat(1_000_000));
    let r = client
        .request(&json::obj([
            ("cmd", json::s("explain")),
            ("session", json::s("deep")),
            ("sql", json::s(sql)),
        ]))
        .unwrap();
    assert_eq!(
        r.get("code").and_then(Json::as_str),
        Some("explain_failed"),
        "{r:?}"
    );
    // The same connection still serves valid requests.
    let r = client.request(&req(r#"{"cmd":"ping"}"#)).unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    handle.stop().unwrap();
}
