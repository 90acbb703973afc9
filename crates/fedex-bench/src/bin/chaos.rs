//! Seeded fault-injection harness for the admission-scheduled server —
//! the CI chaos gate.
//!
//! ```text
//! cargo run --release -p fedex-bench --bin chaos -- \
//!     [rows] [--chaos-secs 30] [--seed 7]
//! ```
//!
//! A server under a [`fedex_serve::FaultPlan`] (worker panics, torn
//! writes, injected disconnects, stage latency) takes mixed traffic —
//! explain floods past the queue bound, tight deadlines, clients that hang
//! up mid-request — for `--chaos-secs` seconds, and the run **fails**
//! (exit 1) unless the liveness invariants hold: control p99 under 10ms,
//! every failure typed, queues drained to zero at the end, request counts
//! conserved, at least one injected panic seen, and **every
//! `internal_error` incident id resolves to a flight-recorder timeline**
//! via `debug_dump` — a panic the recorder cannot explain is an
//! observability failure, not just bad luck. `rows` (default 1M) is
//! capped at 200k.
//!
//! Outcome classification ([`Tally`]) and the `metric` reader are the
//! shared client-simulation core in `fedex_bench::driver` — the same code
//! the workload-trace replayer scores with.
//!
//! Prints one JSON summary to stdout; human-readable progress to stderr.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fedex_bench::driver::{metric, Tally};
use fedex_core::{ArtifactCache, ExecutionMode, Fedex, SessionManager};
use fedex_serve::{json, Client, ExplainService, FaultPlan, Json, Server, ServerConfig};

fn percentile(sorted_micros: &[u64], p: f64) -> u64 {
    if sorted_micros.is_empty() {
        return 0;
    }
    let rank = ((sorted_micros.len() as f64 - 1.0) * p).round() as usize;
    sorted_micros[rank.min(sorted_micros.len() - 1)]
}

fn main() {
    let mut rows: usize = 1_000_000;
    let mut chaos_secs = 30u64;
    let mut seed = 7u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--chaos-secs" {
            chaos_secs = args
                .next()
                .expect("--chaos-secs takes seconds")
                .parse()
                .expect("--chaos-secs is an integer");
        } else if arg == "--seed" {
            seed = args
                .next()
                .expect("--seed takes an integer")
                .parse()
                .expect("--seed is an integer");
        } else {
            rows = arg.parse().expect("rows is an integer");
        }
    }
    chaos_run(rows.min(200_000), chaos_secs, seed);
}

/// Run the fault-injection harness and exit nonzero on any liveness
/// violation. See the module docs for the invariants.
fn chaos_run(rows: usize, secs: u64, seed: u64) {
    eprintln!("# chaos: {rows} rows, {secs}s, seed {seed}");
    let plan = FaultPlan::parse(&format!(
        "seed={seed},panic=0.05,disconnect=0.05,torn=0.03,delay_ms=2"
    ))
    .expect("chaos fault spec");
    // Serial pipeline: with `Parallel`, a heavy explain fans out over
    // every core and the control path's ping p99 blows its budget purely
    // from CPU starvation (CI runs this on one core). Results are
    // bit-identical across modes (pinned by the goldens), so the harness
    // loses nothing by keeping each explain on one thread.
    // A chaos run records far more flight-recorder events than the
    // default ring holds (every ping is admit+dispatch+finish); size the
    // recorder so no incident from the run is overwritten before the
    // post-drain resolution check reads it back.
    let service = Arc::new(ExplainService::with_obs(
        SessionManager::new(
            Fedex::new().with_execution(ExecutionMode::Serial),
            Arc::new(ArtifactCache::default()),
        ),
        Some(Arc::new(fedex_obs::Obs::with_recorder_capacity(1 << 17))),
    ));
    service.set_faults(Some(Arc::new(plan)));
    let server = Server::bind(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            // Sized for the single-core CI box: one heavy worker and a
            // small queue so the explain flood fills it — the harness is
            // *about* overload, answered with typed `overloaded` errors.
            workers: 1,
            queue_depth: 4,
            session_quota: 64,
            max_connections: 256,
            default_deadline_ms: 30_000,
            write_timeout_ms: 2_000,
        },
        service,
    )
    .expect("bind loopback");
    let handle = server.spawn().expect("spawn server");
    let addr = handle.addr().to_string();

    // Register before the clock starts (registers are not explains; a
    // failed register would invalidate the whole run). Faults can hit the
    // response write, so retry until acknowledged.
    {
        let line = format!(r#"{{"cmd":"register_demo","session":"chaos","rows":{rows},"seed":5}}"#);
        let mut registered = false;
        for _ in 0..20 {
            if let Ok(raw) = Client::connect(&addr).and_then(|mut c| c.request_raw(&line)) {
                if let Ok(r) = json::parse(&raw) {
                    if r.get("ok") == Some(&Json::Bool(true)) {
                        registered = true;
                        break;
                    }
                }
            }
        }
        assert!(registered, "chaos: register never acknowledged");
    }

    let tally = Tally::default();
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(secs);
    let ping_lat: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // Control probe: persistent connection, reconnect on injected
        // failure, latency recorded on success only. One probe — every
        // extra runnable thread on the single-core box inflates the very
        // wakeup tail this measures.
        for _ in 0..1 {
            let addr = addr.clone();
            let stop = &stop;
            let ping_lat = &ping_lat;
            scope.spawn(move || {
                let mut client = Client::connect(&addr).ok();
                while !stop.load(Ordering::SeqCst) {
                    let Some(c) = client.as_mut() else {
                        client = Client::connect(&addr).ok();
                        continue;
                    };
                    let t0 = Instant::now();
                    match c.request_raw(r#"{"cmd":"ping"}"#) {
                        Ok(raw) if json::parse(&raw).is_ok() => {
                            ping_lat
                                .lock()
                                .unwrap()
                                .push(t0.elapsed().as_micros() as u64);
                        }
                        _ => client = None,
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
        // Explain flood: two clients cycling distinct predicates — the
        // pressure that must be served or refused typed, never hang.
        for t in 0..2usize {
            let addr = addr.clone();
            let stop = &stop;
            let tally = &tally;
            scope.spawn(move || {
                let cutoffs = [50, 55, 60, 65, 70, 75];
                let mut i = t; // offset per thread, deterministic
                while !stop.load(Ordering::SeqCst) {
                    let line = format!(
                        r#"{{"cmd":"explain","session":"chaos","sql":"SELECT * FROM spotify WHERE popularity > {}"}}"#,
                        cutoffs[i % cutoffs.len()]
                    );
                    let _ = tally.one_request(&addr, &line);
                    i += 1;
                    // A beat between requests: real clients think between
                    // explains. A zero-sleep loop is a reject-rate
                    // benchmark, not an overload scenario.
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
        }
        // Tight deadlines: budgets far below a cold explain — must come
        // back typed (deadline_exceeded) or served, never hang.
        {
            let addr = addr.clone();
            let stop = &stop;
            let tally = &tally;
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let line = r#"{"cmd":"explain","session":"chaos","sql":"SELECT * FROM spotify WHERE popularity > 80","deadline_ms":40}"#;
                    let _ = tally.one_request(&addr, line);
                    // Expired jobs sit in the queue until a worker skips
                    // them; pace the submissions so they don't crowd the
                    // queue the flood competes for.
                    std::thread::sleep(Duration::from_millis(250));
                }
            });
        }
        // Abandoners: send an explain and hang up without reading — the
        // waiter-detach path; their jobs must not leak slots or workers.
        {
            let addr = addr.clone();
            let stop = &stop;
            scope.spawn(move || {
                use std::io::Write;
                while !stop.load(Ordering::SeqCst) {
                    if let Ok(mut s) = std::net::TcpStream::connect(&addr) {
                        let _ = s.write_all(
                            b"{\"cmd\":\"explain\",\"session\":\"chaos\",\"sql\":\"SELECT * FROM spotify WHERE popularity > 45\"}\n",
                        );
                        // Dropped here: no read, dead socket.
                    }
                    std::thread::sleep(Duration::from_millis(200));
                }
            });
        }
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
        }
        stop.store(true, Ordering::SeqCst);
    });

    // Traffic is done (every client joined — no hung waiters). Clear the
    // fault plan so the drain observation itself is clean, then require
    // the queues to empty: no hung workers, no orphaned jobs.
    handle.service().set_faults(None);
    let mut drained = false;
    let drain_deadline = Instant::now() + Duration::from_secs(60);
    let mut last = None;
    while Instant::now() < drain_deadline {
        if let Ok(raw) =
            Client::connect(&addr).and_then(|mut c| c.request_raw(r#"{"cmd":"metrics"}"#))
        {
            if let Ok(m) = json::parse(&raw) {
                let backlog = metric(&m, &["scheduler", "queued_control"])
                    + metric(&m, &["scheduler", "queued_heavy"])
                    + metric(&m, &["scheduler", "running_heavy"]);
                last = Some(m);
                if backlog == 0.0 {
                    drained = true;
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let m = last.expect("metrics reachable after the run");

    let mut ping = ping_lat.into_inner().unwrap();
    ping.sort_unstable();
    let ping_p99_us = percentile(&ping, 0.99);
    let typed = tally.typed_errors.into_inner().unwrap();
    let typed_total: u64 = typed.values().sum();

    // Flight-recorder resolution: every incident id the server handed a
    // client in an `internal_error` response must come back as a
    // non-empty timeline from `debug_dump` — post-drain, so the lookups
    // themselves run clean. An id the recorder cannot explain means the
    // panic left no trail, which is precisely what the recorder is for.
    let incidents = tally.incidents.into_inner().unwrap();
    eprintln!(
        "# resolving {} incident ids via debug_dump…",
        incidents.len()
    );
    let mut unresolved: Vec<String> = Vec::new();
    for inc in &incidents {
        let line = format!(r#"{{"cmd":"debug_dump","incident":"{inc}"}}"#);
        let ok = Client::connect(&addr)
            .and_then(|mut c| c.request_raw(&line))
            .ok()
            .and_then(|raw| json::parse(&raw).ok())
            .is_some_and(|r| {
                r.get("ok") == Some(&Json::Bool(true))
                    && r.get("events")
                        .and_then(Json::as_arr)
                        .is_some_and(|events| !events.is_empty())
            });
        if !ok {
            unresolved.push(inc.clone());
        }
    }
    let incidents_resolved = incidents.len() - unresolved.len();
    // The snapshot is taken *by* an admitted control request, which is
    // counted admitted but not yet completed while it renders its own
    // response — so a drained scheduler shows a deficit of exactly one.
    let deficit = metric(&m, &["scheduler", "admitted_control"])
        + metric(&m, &["scheduler", "admitted_heavy"])
        - metric(&m, &["scheduler", "completed"]);
    let conserved = deficit == 1.0;

    let mut violations: Vec<String> = Vec::new();
    if !drained {
        violations.push("queues failed to drain to zero within 60s (hung work)".into());
    }
    if !conserved {
        violations.push("scheduler counters do not conserve: completed != admitted".into());
    }
    if ping.is_empty() || ping_p99_us >= 10_000 {
        violations.push(format!(
            "control p99 {ping_p99_us}µs over {} samples (limit 10ms)",
            ping.len()
        ));
    }
    let untyped = tally.untyped_errors.load(Ordering::Relaxed);
    if untyped > 0 {
        violations.push(format!("{untyped} failure responses carried no code"));
    }
    if metric(&m, &["server", "panics"]) == 0.0 {
        violations.push("no injected panic survived to the metrics — harness inert?".into());
    }
    if !unresolved.is_empty() {
        violations.push(format!(
            "{} of {} internal_error incidents unresolved by debug_dump (first: {})",
            unresolved.len(),
            incidents.len(),
            unresolved[0]
        ));
    }
    if !incidents.is_empty() && incidents_resolved == 0 {
        violations.push("no incident resolved to a flight-recorder timeline".into());
    }

    let mut typed_pairs: Vec<_> = typed.iter().collect();
    typed_pairs.sort();
    let typed_json = typed_pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!("{{");
    println!("  \"workload\": \"chaos serve, seeded fault injection\",");
    println!("  \"rows\": {rows}, \"secs\": {secs}, \"seed\": {seed},");
    println!(
        "  \"attempts\": {}, \"ok\": {}, \"io_errors\": {}, \"torn_lines\": {},",
        tally.attempts.load(Ordering::Relaxed),
        tally.ok.load(Ordering::Relaxed),
        tally.io_errors.load(Ordering::Relaxed),
        tally.torn_lines.load(Ordering::Relaxed),
    );
    println!("  \"typed_errors\": {{ {typed_json} }}, \"typed_total\": {typed_total},");
    println!(
        "  \"incidents\": {}, \"incidents_resolved\": {incidents_resolved},",
        incidents.len()
    );
    println!(
        "  \"ping_p99_us\": {ping_p99_us}, \"ping_samples\": {},",
        ping.len()
    );
    println!(
        "  \"server\": {{ \"panics\": {}, \"deadline_exceeded\": {}, \"cancelled\": {}, \"disconnects\": {} }},",
        metric(&m, &["server", "panics"]),
        metric(&m, &["server", "deadline_exceeded"]),
        metric(&m, &["server", "cancelled"]),
        metric(&m, &["server", "disconnects"]),
    );
    println!(
        "  \"scheduler\": {},",
        m.get("scheduler").map(Json::to_string).unwrap_or_default()
    );
    println!("  \"violations\": {},", violations.len());
    println!("  \"live\": {}", violations.is_empty());
    println!("}}");
    handle.stop().expect("graceful stop after chaos");
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("# VIOLATION: {v}");
        }
        std::process::exit(1);
    }
    eprintln!("# chaos: all liveness invariants held");
}
