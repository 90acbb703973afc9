//! Failure-path contracts over a real loopback socket: injected panics
//! answer typed and the session recovers, expired deadlines answer fast
//! and typed, each request keeps its own deadline beside an identical
//! concurrent one, a disconnected client's job is cancelled and frees its
//! slots, and a job whose waiter left stops waiting for its busy session.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedex_serve::{
    json, Client, ExplainService, FaultPlan, Json, Server, ServerConfig, ServerHandle,
};

const SQL: &str = "SELECT * FROM spotify WHERE popularity > 65";

/// Large enough that a cold explain takes O(seconds), far past the short
/// deadlines below.
const BIG_ROWS: usize = 150_000;

/// Rows for the two-request deadline tests: a full run must take several
/// times the 300 ms budget even on a fast host.
const RACE_ROWS: usize = 300_000;

fn boot() -> ServerHandle {
    let service = Arc::new(ExplainService::default());
    Server::bind(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            session_quota: 4,
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

fn register(addr: &str, session: &str, rows: usize) {
    let mut c = Client::connect(addr).unwrap();
    let r = c
        .request(&req(&format!(
            r#"{{"cmd":"register_demo","session":"{session}","rows":{rows},"seed":5}}"#
        )))
        .unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
}

fn code_of(r: &Json) -> Option<&str> {
    r.get("code").and_then(Json::as_str)
}

/// Poll the scheduler gauges until the queue is empty — a leaked job
/// shows up as a gauge that never drains — then check that every
/// admitted job completed.
fn assert_drains(addr: &str) {
    let mut probe = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let m = probe.request(&req(r#"{"cmd":"metrics"}"#)).unwrap();
        let sched = m.get("scheduler").expect("scheduler metrics");
        let gauge = |g: &str| sched.get(g).and_then(Json::as_f64).unwrap();
        if gauge("queued_heavy") + gauge("running_heavy") == 0.0 {
            assert_eq!(
                gauge("admitted_heavy"),
                gauge("completed"),
                "admitted jobs left uncompleted: {sched:?}"
            );
            return;
        }
        assert!(
            Instant::now() < deadline,
            "scheduler never drained: {sched:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn injected_panic_answers_typed_and_the_session_recovers() {
    let handle = boot();
    let addr = handle.addr().to_string();
    register(&addr, "s", 4_000);

    // Every explain panics mid-pipeline, inside the session write lock —
    // the worst place: the lock is poisoned at the moment of unwind.
    let plan = FaultPlan::parse("seed=1,panic=1.0").unwrap();
    handle.service().set_faults(Some(Arc::new(plan)));

    let mut c = Client::connect(&addr).unwrap();
    let r = c.request(&req(&format!(
        r#"{{"cmd":"explain","session":"s","sql":"{SQL}"}}"#
    )));
    let r = r.unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r:?}");
    assert_eq!(code_of(&r), Some("internal_error"), "{r:?}");
    let incident = r.get("incident").and_then(Json::as_str).unwrap();
    assert!(incident.starts_with("inc-"), "stable incident id: {r:?}");
    assert!(
        handle
            .service()
            .metrics()
            .panics
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1,
        "panic must be counted"
    );

    // Faults off: the same session, same connection, same query must
    // succeed — the panic poisoned nothing that recovery can't clear, and
    // the failed run freed its queue and quota slots.
    handle.service().set_faults(None);
    let r = c
        .request(&req(&format!(
            r#"{{"cmd":"explain","session":"s","sql":"{SQL}"}}"#
        )))
        .unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
    assert_drains(&addr);
    handle.stop().unwrap();
}

#[test]
fn expired_deadline_answers_fast_and_typed() {
    let handle = boot();
    let addr = handle.addr().to_string();
    // Big enough that a cold explain takes O(seconds) — the 300ms budget
    // below cannot fit it.
    register(&addr, "s", BIG_ROWS);

    let mut c = Client::connect(&addr).unwrap();
    let t0 = Instant::now();
    let r = c
        .request(&req(&format!(
            r#"{{"cmd":"explain","session":"s","sql":"{SQL}","deadline_ms":300}}"#
        )))
        .unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{r:?}");
    assert_eq!(code_of(&r), Some("deadline_exceeded"), "{r:?}");
    // The waiter must give up at the deadline, not when the explain would
    // have finished. Generous slack for CI scheduling jitter.
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline response took {elapsed:?}"
    );

    // The worker either skipped the expired job outright or the pipeline
    // observed the tripped token at the next stage/work-unit boundary; in
    // both cases the session keeps working.
    let r = c
        .request(&req(&format!(
            r#"{{"cmd":"explain","session":"s","sql":"{SQL}"}}"#
        )))
        .unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
    assert_drains(&addr);
    handle.stop().unwrap();
}

#[test]
fn disconnected_client_cancels_and_frees_its_job() {
    let handle = boot();
    let addr = handle.addr().to_string();
    register(&addr, "s", BIG_ROWS);

    // Submit the explain and hang up without reading — its waiter detaches
    // once the liveness probe sees the dead socket, and cancels the job.
    {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.write_all(
            format!(r#"{{"cmd":"explain","session":"s","sql":"{SQL}"}}{}"#, "\n").as_bytes(),
        )
        .unwrap();
        // Give the server time to admit the job before the socket dies.
        std::thread::sleep(Duration::from_millis(150));
    }

    // The identical query on a live connection is its own job: it runs
    // once the cancelled one has let go of the session, and answers ok.
    let mut c = Client::connect(&addr).unwrap();
    let r = c
        .request(&req(&format!(
            r#"{{"cmd":"explain","session":"s","sql":"{SQL}"}}"#
        )))
        .unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");

    // A third identical explain after everything settled: a job or quota
    // slot leaked by the cancelled run would wedge it.
    let r = c
        .request(&req(&format!(
            r#"{{"cmd":"explain","session":"s","sql":"{SQL}"}}"#
        )))
        .unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
    assert_drains(&addr);
    handle.stop().unwrap();
}

/// Wait until a heavy job is running.
fn await_running(addr: &str) {
    let mut probe = Client::connect(addr).unwrap();
    let t0 = Instant::now();
    loop {
        let m = probe.request(&req(r#"{"cmd":"metrics"}"#)).unwrap();
        let running = m
            .get("scheduler")
            .and_then(|s| s.get("running_heavy"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if running > 0.0 {
            return;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "explain never started"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Send one explain of [`SQL`] in session `s`, with `extra` fields spliced
/// into the request; returns the reply and its round-trip time.
fn timed_explain(addr: &str, extra: &str) -> (Json, Duration) {
    let mut c = Client::connect(addr).unwrap();
    let t0 = Instant::now();
    let r = c
        .request(&req(&format!(
            r#"{{"cmd":"explain","session":"s","sql":"{SQL}"{extra}}}"#
        )))
        .unwrap();
    (r, t0.elapsed())
}

#[test]
fn a_request_without_a_deadline_outlives_an_identical_short_one() {
    let handle = boot();
    let addr = handle.addr().to_string();
    register(&addr, "s", RACE_ROWS);

    let short = {
        let addr = addr.clone();
        std::thread::spawn(move || timed_explain(&addr, r#","deadline_ms":800"#))
    };
    await_running(&addr);
    // The identical request arrives while the short one runs. It carries
    // no deadline of its own (the 300 s server default applies), so the
    // other request's 800 ms budget must not end it.
    let (r, _) = timed_explain(&addr, "");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
    let (short, _) = short.join().unwrap();
    assert_eq!(code_of(&short), Some("deadline_exceeded"), "{short:?}");
    assert_drains(&addr);
    handle.stop().unwrap();
}

#[test]
fn a_short_deadline_expires_on_time_beside_an_identical_long_run() {
    let handle = boot();
    let addr = handle.addr().to_string();
    register(&addr, "s", RACE_ROWS);

    let long = {
        let addr = addr.clone();
        std::thread::spawn(move || timed_explain(&addr, ""))
    };
    await_running(&addr);
    // The identical request with a 300 ms budget answers at its own
    // deadline, not when the other request's run completes.
    let (r, short_elapsed) = timed_explain(&addr, r#","deadline_ms":300"#);
    assert_eq!(code_of(&r), Some("deadline_exceeded"), "{r:?}");
    let (long, long_elapsed) = long.join().unwrap();
    assert_eq!(long.get("ok"), Some(&Json::Bool(true)), "{long:?}");
    assert!(
        short_elapsed * 2 < long_elapsed,
        "the 300 ms request took {short_elapsed:?}, the full run {long_elapsed:?}"
    );
    assert_drains(&addr);
    handle.stop().unwrap();
}

/// Send one explain of `sql` in `session`, with `extra` fields spliced
/// into the request; returns the reply and its round-trip time.
fn timed_explain_in(addr: &str, session: &str, sql: &str, extra: &str) -> (Json, Duration) {
    let mut c = Client::connect(addr).unwrap();
    let t0 = Instant::now();
    let r = c
        .request(&req(&format!(
            r#"{{"cmd":"explain","session":"{session}","sql":"{sql}"{extra}}}"#
        )))
        .unwrap();
    (r, t0.elapsed())
}

#[test]
fn a_job_whose_waiter_left_frees_its_worker_while_the_session_is_busy() {
    let handle = boot();
    let addr = handle.addr().to_string();
    register(&addr, "s", RACE_ROWS);
    register(&addr, "b", 2_000);

    let long = {
        let addr = addr.clone();
        std::thread::spawn(move || timed_explain_in(&addr, "s", SQL, ""))
    };
    await_running(&addr);
    // A second explain of the busy session takes the other worker and
    // waits for the session; its waiter leaves at the 300 ms deadline.
    let other = "SELECT * FROM spotify WHERE popularity > 40";
    let (r, _) = timed_explain_in(&addr, "s", other, r#","deadline_ms":300"#);
    assert_eq!(code_of(&r), Some("deadline_exceeded"), "{r:?}");
    // That job must let go of its worker, so a small explain in another
    // session answers while the long run still goes on.
    let (r, small_elapsed) = timed_explain_in(&addr, "b", SQL, "");
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
    let (long, long_elapsed) = long.join().unwrap();
    assert_eq!(long.get("ok"), Some(&Json::Bool(true)), "{long:?}");
    assert!(
        small_elapsed * 2 < long_elapsed,
        "the small explain took {small_elapsed:?}, the long run {long_elapsed:?}"
    );
    assert_drains(&addr);
    handle.stop().unwrap();
}
