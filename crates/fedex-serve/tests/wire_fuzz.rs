//! Seeded wire fuzzer: hostile request lines against a live in-process
//! server over loopback.
//!
//! It sends deep nesting, giant lines, a newline-free line past the 64 MiB
//! cap, invalid UTF-8, huge numbers, out-of-range `width`/`top`/`rows`,
//! pathological SQL, explains under many fresh session names, and
//! registers under fresh session and table names. The gate:
//!
//! * the server stays alive (`ping` answers after every case);
//! * every response is typed: `ok:true`, or `ok:false` with a known `code`;
//! * the conservation invariant of `docs/OBSERVABILITY.md` holds: the
//!   per-command request histograms sum to `fedex_requests_total`;
//! * only registers create sessions;
//! * resident memory, read from `/proc/self/statm`, stays under
//!   [`SESSION_BUDGET`] + the cache budget + [`RSS_MARGIN`].
//!
//! Every input derives from [`SEED`], so a failure replays exactly. Run
//! it in release, as CI's `chaos-smoke` job does:
//! `cargo test --release -p fedex-serve --test wire_fuzz`.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use fedex_core::{ArtifactCache, Fedex, SessionManager, SESSION_BUDGET};
use fedex_serve::{json, Client, ExplainService, Json, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x5EED_F022;
/// Hostile request lines sent, one case each.
const CASES: usize = 600;
/// The artifact-cache budget of the fuzzed server.
const CACHE_BUDGET: usize = 256 << 20;
/// Resident memory allowed beyond the two budgets: the binary, thread
/// stacks, the 64 MiB line buffers of both ends, and the allocator's
/// slack.
const RSS_MARGIN: usize = 512 << 20;
/// Request lines longer than this answer `too_large` (the server's cap).
const MAX_LINE: usize = 64 << 20;

/// Every `code` a failed response may carry (`docs/WIRE_PROTOCOL.md`).
const CODES: &[&str] = &[
    "invalid_json",
    "bad_request",
    "unknown_cmd",
    "explain_failed",
    "session_full",
    "overloaded",
    "quota_exceeded",
    "shutting_down",
    "deadline_exceeded",
    "cancelled",
    "internal_error",
    "too_large",
];

/// A table of the base session, small enough that each explain is cheap.
const BASE_ROWS: usize = 1_500;

/// One connection that sends raw bytes and reads one reply line each.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Conn {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// Send `bytes` plus a newline; the reply line, parsed.
    fn call(&mut self, bytes: &[u8]) -> Json {
        self.writer.write_all(bytes).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.reply()
    }

    fn reply(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        assert!(line.ends_with('\n'), "connection closed without a reply");
        json::parse(&line).unwrap_or_else(|e| panic!("untyped reply ({e}): {line:.300}"))
    }
}

/// Assert a reply is typed, and return its error code (`None` when ok).
fn typed(reply: &Json, sent: &[u8]) -> Option<String> {
    let shown = String::from_utf8_lossy(&sent[..sent.len().min(200)]);
    match reply.get("ok") {
        Some(Json::Bool(true)) => None,
        Some(Json::Bool(false)) => {
            let code = reply
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("failure without a code for {shown}: {reply:?}"));
            assert!(CODES.contains(&code), "unknown code {code} for {shown}");
            assert!(reply.get("error").and_then(Json::as_str).is_some());
            Some(code.to_string())
        }
        _ => panic!("reply without a boolean ok for {shown}: {reply:?}"),
    }
}

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

fn quoted(s: &str) -> String {
    Json::Str(s.to_string()).to_string()
}

/// A number the server must not read as an accepted size: huge, negative,
/// fractional, out of JSON's range, or thousands of digits long.
fn hostile_number(rng: &mut StdRng) -> String {
    match rng.gen_range(0..6) {
        0 => pick(
            rng,
            &["-1", "-0", "0.5", "1e400", "-1e400", "1e308", "4e19"],
        )
        .to_string(),
        1 => "9".repeat(rng.gen_range(20..5_000)),
        2 => format!("-{}", "9".repeat(rng.gen_range(1..400))),
        3 => format!("0.{}", "1".repeat(rng.gen_range(1..2_000))),
        4 => format!("1e{}", rng.gen_range(20..100_000)),
        _ => pick(rng, &["\"7\"", "true", "null", "[]", "{}"]).to_string(),
    }
}

/// SQL from a token soup: keywords, operators, literals, unknown names,
/// and long or deeply bracketed runs.
fn hostile_sql(rng: &mut StdRng) -> String {
    const TOKENS: &[&str] = &[
        "SELECT",
        "*",
        "FROM",
        "spotify",
        "WHERE",
        "GROUP",
        "BY",
        "INNER",
        "JOIN",
        "ON",
        "UNION",
        "ALL",
        "AND",
        "OR",
        "NOT",
        "(",
        ")",
        ">",
        "<",
        "=",
        "!=",
        ">=",
        ",",
        "popularity",
        "decade",
        "mean(popularity)",
        "count(*)",
        "'2010s'",
        "'",
        "\"",
        "1e999",
        "-0",
        "9999999999999999999999",
        "nope",
        "spotify.popularity",
        ";",
        "--",
    ];
    match rng.gen_range(0..4) {
        0 => {
            let depth = rng.gen_range(50..3_000);
            format!(
                "SELECT * FROM spotify WHERE {}popularity > 1{}",
                "(".repeat(depth),
                ")".repeat(depth)
            )
        }
        1 => {
            let n = rng.gen_range(2..50);
            vec!["SELECT * FROM spotify"; n].join(" UNION ")
        }
        2 => format!(
            "SELECT * FROM spotify WHERE {} > 1",
            "x".repeat(rng.gen_range(1..100_000))
        ),
        _ => (0..rng.gen_range(1..60))
            .map(|_| pick(rng, TOKENS))
            .collect::<Vec<_>>()
            .join(" "),
    }
}

/// A small inline table with a random shape (sometimes malformed).
fn inline_columns(rng: &mut StdRng) -> String {
    let rows = rng.gen_range(0..40);
    let ints: Vec<String> = (0..rows).map(|i| (i * 7 % 13).to_string()).collect();
    let strs: Vec<String> = (0..rows).map(|i| quoted(&format!("v{}", i % 3))).collect();
    let mut cols = vec![
        format!(
            r#"{{"name":"a","type":"int","values":[{}]}}"#,
            ints.join(",")
        ),
        format!(
            r#"{{"name":"b","type":"str","values":[{}]}}"#,
            strs.join(",")
        ),
    ];
    match rng.gen_range(0..4) {
        0 => cols.push(r#"{"name":"a","type":"int","values":[]}"#.to_string()),
        1 => cols.push(format!(
            r#"{{"name":"c","type":"{}","values":[1]}}"#,
            pick(rng, &["int", "float", "bool", "str", "wat"])
        )),
        _ => {}
    }
    format!("[{}]", cols.join(","))
}

/// One hostile request line (without its newline). Sessions named
/// `reg-*` are registered by the case; `ghost-*` names never are.
fn hostile_line(rng: &mut StdRng, case: usize) -> Vec<u8> {
    match rng.gen_range(0..11) {
        // Deep JSON nesting, arrays or objects, closed or not.
        0 => {
            let depth = rng.gen_range(100..20_000);
            let (open, close) = if rng.gen_bool(0.5) {
                ("[", "]")
            } else {
                (r#"{"a":"#, "}")
            };
            let closes = if rng.gen_bool(0.5) { depth } else { depth / 2 };
            format!("{}1{}", open.repeat(depth), close.repeat(closes)).into_bytes()
        }
        // A giant line: megabytes of one request-shaped string.
        1 => {
            let n = rng.gen_range(1 << 16..4 << 20);
            format!(r#"{{"cmd":"ping","pad":"{}"}}"#, "p".repeat(n)).into_bytes()
        }
        // Invalid UTF-8, bare or inside a string of a real command.
        2 => {
            let junk: Vec<u8> = (0..rng.gen_range(1..400))
                .map(|_| rng.gen_range(0x80..0x100u32) as u8)
                .collect();
            if rng.gen_bool(0.5) {
                junk
            } else {
                let mut line = br#"{"cmd":"explain","session":"base","sql":""#.to_vec();
                line.extend_from_slice(&junk);
                line.extend_from_slice(br#""}"#);
                line
            }
        }
        // Huge or malformed numbers in every numeric field.
        3 => {
            let field = pick(rng, &["rows", "seed", "product_rows"]);
            format!(
                r#"{{"cmd":"register_demo","session":"reg-{case}","dataset":"{}","{field}":{}}}"#,
                pick(rng, &["spotify", "sales", "bank"]),
                hostile_number(rng)
            )
            .into_bytes()
        }
        // Out-of-range response shaping on a real explain.
        4 => format!(
            r#"{{"cmd":"explain","session":"base","sql":"SELECT * FROM spotify WHERE popularity > 65","{}":{}}}"#,
            pick(rng, &["width", "top", "deadline_ms"]),
            hostile_number(rng)
        )
        .into_bytes(),
        // Pathological SQL, under a deadline: a union of dozens of inputs
        // is valid, just slow.
        5 => format!(
            r#"{{"cmd":"explain","session":"base","sql":{},"deadline_ms":1000}}"#,
            quoted(&hostile_sql(rng))
        )
        .into_bytes(),
        // Explains and history reads under fresh names: neither may
        // create a session.
        6 => {
            let cmd = pick(rng, &["explain", "explain", "history"]);
            format!(
                r#"{{"cmd":"{cmd}","session":"ghost-{case}","sql":"SELECT * FROM spotify WHERE popularity > 65"}}"#
            )
            .into_bytes()
        }
        // A fresh session with a small inline table (or a malformed one).
        7 => format!(
            r#"{{"cmd":"register","session":"reg-{case}","table":"t","columns":{}}}"#,
            inline_columns(rng)
        )
        .into_bytes(),
        // Repeated registers under new table names in one session.
        8 => format!(
            r#"{{"cmd":"register","session":"tables","table":"t{case}","columns":{}}}"#,
            inline_columns(rng)
        )
        .into_bytes(),
        // Wrong types in the fields every command reads.
        9 => format!(
            r#"{{"cmd":{},"session":{},"sql":{},"save_as":{}}}"#,
            pick(rng, &["\"explain\"", "\"register\"", "7", "null", "\"\"", "\"frob\""]),
            pick(rng, &["\"base\"", "1", "[]", "null"]),
            pick(rng, &["\"\"", "1", "{}", "null"]),
            pick(rng, &["\"\"", "1", "{}", "null"])
        )
        .into_bytes(),
        // Control commands with odd arguments.
        _ => format!(
            r#"{{"cmd":"{}","limit":{},"trace_id":{}}}"#,
            pick(rng, &["sessions", "metrics", "debug_dump", "ping"]),
            hostile_number(rng),
            pick(rng, &["\"t-zz\"", "\"t-0000000000000001\"", "3"])
        )
        .into_bytes(),
    }
}

/// Resident set size of this process, in bytes (4 KiB pages).
fn rss_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: usize = statm
        .split_whitespace()
        .nth(1)
        .and_then(|p| p.parse().ok())
        .expect("statm resident field");
    pages * 4096
}

fn session_names(conn: &mut Conn) -> BTreeSet<String> {
    let r = conn.call(br#"{"cmd":"sessions"}"#);
    r.get("sessions")
        .and_then(Json::as_arr)
        .expect("sessions list")
        .iter()
        .map(|s| s.as_str().expect("session name").to_string())
        .collect()
}

#[test]
fn hostile_wire_input_never_breaks_the_server() {
    let manager = SessionManager::new(
        Fedex::new(),
        Arc::new(ArtifactCache::with_budget(CACHE_BUDGET)),
    );
    let handle = Server::bind(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            session_quota: 8,
            max_connections: 16,
            ..Default::default()
        },
        Arc::new(ExplainService::new(manager)),
    )
    .expect("bind loopback")
    .spawn()
    .expect("spawn server");
    let addr = handle.addr().to_string();
    let ceiling = SESSION_BUDGET + CACHE_BUDGET + RSS_MARGIN;

    let mut conn = Conn::open(&addr);
    let r = conn.call(
        format!(r#"{{"cmd":"register_demo","session":"base","rows":{BASE_ROWS},"seed":3}}"#)
            .as_bytes(),
    );
    assert_eq!(typed(&r, b"register_demo"), None, "{r:?}");

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut registered: BTreeSet<String> = ["base".to_string()].into();
    let mut codes: BTreeSet<String> = BTreeSet::new();
    for case in 0..CASES {
        let line = hostile_line(&mut rng, case);
        let reply = conn.call(&line);
        match typed(&reply, &line) {
            None => {
                let session = reply.get("session").and_then(Json::as_str);
                if reply.get("fingerprint").is_some() {
                    registered.insert(session.expect("register echoes its session").to_string());
                }
            }
            Some(code) => {
                if code == "too_large" {
                    // The server closes a connection after `too_large`.
                    conn = Conn::open(&addr);
                }
                codes.insert(code);
            }
        }
        let pong = conn.call(br#"{"cmd":"ping"}"#);
        assert_eq!(
            pong.get("pong"),
            Some(&Json::Bool(true)),
            "case {case}: {pong:?}"
        );
        if case % 50 == 0 {
            let rss = rss_bytes();
            assert!(rss < ceiling, "case {case}: RSS {rss} over {ceiling}");
        }
    }
    assert!(
        codes.len() >= 3,
        "the fuzzer reached too few failure paths: {codes:?}"
    );

    // A line past the cap that never ends: `too_large`, then a close.
    let mut giant = Conn::open(&addr);
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..=MAX_LINE / chunk.len() {
        giant.writer.write_all(&chunk).expect("send giant line");
    }
    giant.writer.shutdown(Shutdown::Write).unwrap();
    let r = giant.reply();
    assert_eq!(typed(&r, b"giant line").as_deref(), Some("too_large"));
    drop(giant);

    // Only registers created sessions, and none was evicted.
    let mut conn = Conn::open(&addr);
    assert_eq!(session_names(&mut conn), registered);
    let m = conn.call(br#"{"cmd":"metrics"}"#);
    let sessions = m.get("sessions").expect("session gauges");
    assert_eq!(sessions.get("evictions").and_then(Json::as_f64), Some(0.0));
    assert!(sessions.get("bytes").and_then(Json::as_f64).unwrap() <= SESSION_BUDGET as f64);

    // Conservation: every counted request landed in exactly one command
    // histogram.
    let (_, text) = Client::http_get(&addr, "/metrics", "text/plain").unwrap();
    let exp = fedex_obs::validate_exposition(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let requests = exp.sum("fedex_requests_total").unwrap();
    let per_command: f64 = fedex_obs::WIRE_COMMANDS
        .iter()
        .map(|cmd| {
            exp.value_with("fedex_request_duration_seconds_count", "cmd", cmd)
                .unwrap_or(0.0)
        })
        .sum();
    assert_eq!(per_command, requests);
    assert!(requests >= (2 * CASES) as f64);
    assert!(exp.sum("fedex_errors_total").unwrap() <= requests);

    let rss = rss_bytes();
    assert!(rss < ceiling, "RSS {rss} over {ceiling}");
    drop(conn);
    handle.stop().expect("clean stop");
}
