//! Admission-scheduler contracts over a real loopback socket:
//!
//! * control commands complete while a long explain is in flight, even
//!   while a `history` of the explain's own session waits for that
//!   step: each control command is answered on its own connection
//!   thread, so none waits behind another request (pre-PR 5, a
//!   single-worker server blocked every other client for the whole
//!   explain);
//! * a full heavy queue answers the typed `overloaded` error and a
//!   session past its quota gets `quota_exceeded` — never unbounded
//!   queueing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fedex_serve::{json, Client, ExplainService, Json, Server, ServerConfig, ServerHandle};

/// Large enough that one cold explain takes O(seconds) on CI hardware —
/// the window in which control latency and admission bounds are observed.
const BIG_ROWS: usize = 150_000;
const SQL: &str = "SELECT * FROM spotify WHERE popularity > 65";

fn boot(workers: usize, queue_depth: usize, session_quota: usize) -> ServerHandle {
    let service = Arc::new(ExplainService::default());
    Server::bind(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_depth,
            session_quota,
            max_connections: 64,
            ..Default::default()
        },
        service,
    )
    .expect("bind loopback")
    .spawn()
    .expect("spawn server")
}

fn req(text: &str) -> Json {
    json::parse(text).unwrap()
}

fn register_big(addr: &str, session: &str) {
    let mut c = Client::connect(addr).unwrap();
    let r = c
        .request(&req(&format!(
            r#"{{"cmd":"register_demo","session":"{session}","rows":{BIG_ROWS},"seed":5}}"#
        )))
        .unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
}

fn explain_req(session: &str, sql: &str) -> Json {
    req(&format!(
        r#"{{"cmd":"explain","session":"{session}","sql":"{sql}"}}"#
    ))
}

/// Scheduler gauge out of a `metrics` response.
fn sched_gauge(metrics: &Json, field: &str) -> f64 {
    metrics
        .get("scheduler")
        .and_then(|s| s.get(field))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metrics response lacks scheduler.{field}: {metrics:?}"))
}

#[test]
fn control_commands_are_served_while_a_long_explain_runs() {
    // ONE worker: pre-scheduler, this server could do exactly one thing
    // at a time and a second connection waited for the first to close.
    // Control commands need no worker, so ping/metrics must keep flowing.
    let handle = boot(1, 16, 4);
    let addr = handle.addr().to_string();
    register_big(&addr, "a");

    let explain_thread = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            let t0 = Instant::now();
            let r = c.request(&explain_req("a", SQL)).unwrap();
            (r, t0.elapsed())
        })
    };

    // Once the explain runs (and so holds session "a"), a third
    // connection reads that session's history: it waits for the running
    // step, and nothing else may wait on it.
    let mut control = Client::connect(&addr).unwrap();
    let t0 = Instant::now();
    while sched_gauge(
        &control.request(&req(r#"{"cmd":"metrics"}"#)).unwrap(),
        "running_heavy",
    ) == 0.0
    {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "explain never started"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(20));
    let history_thread = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request(&req(r#"{"cmd":"history","session":"a"}"#))
                .unwrap()
        })
    };

    // Hammer control commands on the second connection while the explain
    // occupies the only worker and the history waits for its session.
    let mut saw_explain_in_flight = false;
    let mut worst = Duration::ZERO;
    for _ in 0..40 {
        let t0 = Instant::now();
        let pong = control.request(&req(r#"{"cmd":"ping"}"#)).unwrap();
        let m = control.request(&req(r#"{"cmd":"metrics"}"#)).unwrap();
        worst = worst.max(t0.elapsed());
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(m.get("ok"), Some(&Json::Bool(true)));
        if sched_gauge(&m, "running_heavy") > 0.0 {
            saw_explain_in_flight = true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let (explained, explain_took) = explain_thread.join().expect("explain thread");
    assert_eq!(
        explained.get("ok"),
        Some(&Json::Bool(true)),
        "{explained:?}"
    );
    assert!(
        saw_explain_in_flight,
        "the probe window never overlapped the explain — enlarge BIG_ROWS"
    );
    // The history waited for the explain's step, so it lists that step.
    let history = history_thread.join().expect("history thread");
    let entries = history.get("entries").and_then(Json::as_arr);
    assert_eq!(entries.map(<[Json]>::len), Some(1), "{history:?}");
    // The failure mode this guards against is head-of-line blocking
    // behind the explain: a control command stuck behind the history
    // waits out the rest of the explain. Real control latency is
    // sub-millisecond, so a quarter of the explain is a generous bound.
    let bound = (explain_took / 4).min(Duration::from_secs(1));
    assert!(
        worst < bound,
        "control round-trip slowed to {worst:?} during a {explain_took:?} explain \
         (bound {bound:?})"
    );
    handle.stop().unwrap();
}

#[test]
fn full_queue_and_quota_violations_get_typed_errors() {
    // One general worker, one queue slot, one heavy request per session.
    let handle = boot(1, 1, 1);
    let addr = handle.addr().to_string();
    // Session "a" gets a much larger table: its explain is the
    // long-running job that holds the worker for the whole test, so the
    // queue-full window below is seconds wide, not milliseconds.
    {
        let mut c = Client::connect(&addr).unwrap();
        let r = c
            .request(&req(&format!(
                r#"{{"cmd":"register_demo","session":"a","rows":{},"seed":5}}"#,
                BIG_ROWS * 4
            )))
            .unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
    }
    for s in ["b", "c"] {
        register_big(&addr, s);
    }

    // Occupy the worker with the long explain in session "a".
    let first = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request(&explain_req("a", SQL)).unwrap()
        })
    };
    // Wait until it is actually running (not merely queued).
    let mut probe = Client::connect(&addr).unwrap();
    let t0 = Instant::now();
    loop {
        let m = probe.request(&req(r#"{"cmd":"metrics"}"#)).unwrap();
        if sched_gauge(&m, "running_heavy") > 0.0 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "explain never started"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Same session, different query → quota_exceeded (1 already running).
    let mut c = Client::connect(&addr).unwrap();
    let r = c
        .request(&explain_req(
            "a",
            "SELECT * FROM spotify WHERE popularity > 80",
        ))
        .unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r:?}");
    assert_eq!(
        r.get("code").and_then(Json::as_str),
        Some("quota_exceeded"),
        "{r:?}"
    );

    // Another session fills the single queue slot (blocks until served).
    let queued = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request(&explain_req("b", SQL)).unwrap()
        })
    };
    // "b" stays queued for as long as "a" runs (the single worker is
    // held), so this wait is bounded only by thread-startup time.
    let t0 = Instant::now();
    loop {
        let m = probe.request(&req(r#"{"cmd":"metrics"}"#)).unwrap();
        if sched_gauge(&m, "queued_heavy") > 0.0 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "explain never queued"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Third session: the queue slot is taken by "b" and the worker by
    // "a" → overloaded. Retried only against the (tiny) race where "a"
    // finishes right now.
    let mut saw_overloaded = false;
    for _ in 0..50 {
        let m = probe.request(&req(r#"{"cmd":"metrics"}"#)).unwrap();
        let backlog = sched_gauge(&m, "queued_heavy") + sched_gauge(&m, "running_heavy");
        if backlog < 2.0 {
            break; // backlog drained; rejection no longer expected
        }
        let r = c.request(&explain_req("c", SQL)).unwrap();
        if r.get("code").and_then(Json::as_str) == Some("overloaded") {
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
            saw_overloaded = true;
            break;
        }
    }
    let first = first.join().unwrap();
    let queued = queued.join().unwrap();
    assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first:?}");
    assert_eq!(queued.get("ok"), Some(&Json::Bool(true)), "{queued:?}");
    assert!(
        saw_overloaded,
        "a full queue must answer the typed overloaded error"
    );
    let m = probe.request(&req(r#"{"cmd":"metrics"}"#)).unwrap();
    assert!(sched_gauge(&m, "rejected_quota") >= 1.0);
    assert!(sched_gauge(&m, "rejected_overloaded") >= 1.0);
    handle.stop().unwrap();
}

#[test]
fn error_responses_carry_machine_readable_codes() {
    let handle = boot(1, 4, 2);
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    let cases = [
        ("{not json", "invalid_json"),
        (r#"{"cmd":"frobnicate"}"#, "unknown_cmd"),
        (r#"{"cmd":"explain","session":"x"}"#, "bad_request"),
        (
            r#"{"cmd":"explain","session":"x","sql":"SELEKT nope"}"#,
            "explain_failed",
        ),
        (
            r#"{"cmd":"register","session":"x","table":"t"}"#,
            "bad_request",
        ),
    ];
    for (line, code) in cases {
        let raw = c.request_raw(line).unwrap();
        let r = json::parse(&raw).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{line}");
        assert_eq!(
            r.get("code").and_then(Json::as_str),
            Some(code),
            "{line} → {raw}"
        );
    }
    handle.stop().unwrap();
}
