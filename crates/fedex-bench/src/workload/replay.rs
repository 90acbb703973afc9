//! Trace replay: drive a compiled [`Trace`] against a live
//! `fedex-serve` instance with one thread per simulated client.
//!
//! The replayer adds **no randomness**: think times and retry budgets
//! come out of the trace, the retry jitter seed derives from the trace
//! seed, and each client's ops run strictly in trace order. Against an
//! in-process server (the default) a re-run of the same trace is
//! therefore response-identical for every explain — the property the
//! differential gate asserts.
//!
//! While the clients run, a control probe pings the server every 5 ms.
//! Once they have joined, the replayer waits up to 60 s for the
//! scheduler's queues to drain, asks `debug_dump` about every
//! `internal_error` incident a client was handed, and scrapes both
//! metric surfaces: the `metrics` command and the Prometheus text
//! exposition (validated with `fedex-obs`' strict parser).
//!
//! A trace whose header carries a fault plan replays only against the
//! in-process server: the plan is installed for the client phase and
//! cleared before the drain, so the post-run observations run clean.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fedex_core::{ArtifactCache, ExecutionMode, Fedex, SessionManager};
use fedex_serve::json::{self, Json};
use fedex_serve::{
    Client, ExplainService, FaultPlan, RetryPolicy, Server, ServerConfig, ServerHandle,
};

use super::trace::{Trace, TraceOp};

/// How long the post-run drain may take before the gate calls the
/// scheduler hung.
const DRAIN_BUDGET: Duration = Duration::from_secs(60);
/// Pause between two control-probe pings.
const PING_EVERY: Duration = Duration::from_millis(5);

/// How to run a replay.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Replay against this address instead of spawning a server.
    pub addr: Option<String>,
    /// Heavy-worker count for the spawned server (ignored with `addr`).
    pub workers: usize,
    /// Think-time multiplier: `1.0` = as recorded, `0.0` = no sleeps.
    pub speed: f64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            addr: None,
            workers: 2,
            speed: 1.0,
        }
    }
}

/// The code an explain is filed under when it failed without a typed
/// `code`: no response line, an unparseable one, or `ok:false` alone.
pub(crate) const IO: &str = "<io>";
/// See [`IO`].
pub(crate) const TORN: &str = "<torn>";
/// See [`IO`].
pub(crate) const UNTYPED: &str = "<untyped>";

/// Classify a raw transport result: the code it is filed under (`None`
/// = answered `ok:true`; the wire `code`, or [`IO`], [`TORN`] or
/// [`UNTYPED`]) and the parsed response, when there was one.
fn classify(raw: std::io::Result<String>) -> (Option<String>, Option<Json>) {
    let Ok(raw) = raw else {
        return (Some(IO.to_string()), None);
    };
    let Ok(resp) = json::parse(&raw) else {
        return (Some(TORN.to_string()), None);
    };
    let code = (resp.get("ok") != Some(&Json::Bool(true)))
        .then(|| resp.get("code").and_then(Json::as_str).unwrap_or(UNTYPED))
        .map(str::to_string);
    (code, Some(resp))
}

/// A numeric counter out of a JSON `metrics` response, by path (e.g.
/// `["scheduler", "queued_heavy"]`). Panics with the full response on a
/// missing or non-numeric field: schema drift should fail loudly.
pub(crate) fn metric(m: &Json, path: &[&str]) -> f64 {
    let mut cur = m;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("metrics response lacks {}: {m:?}", path.join(".")));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("{} is not a number", path.join(".")))
}

/// Jobs still queued or running, per a `metrics` response.
pub(crate) fn backlog(m: &Json) -> f64 {
    metric(m, &["scheduler", "queued_heavy"]) + metric(m, &["scheduler", "running_heavy"])
}

/// Outcome of one explain op.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// Trace op id.
    pub id: u64,
    /// Issuing client.
    pub client: u64,
    /// Provenance kind from the trace (`filter|group_by|join|union`).
    pub kind: String,
    /// `ok:true` response.
    pub ok: bool,
    /// What the failure is filed under: the wire `code`, or `<io>`,
    /// `<torn>` or `<untyped>` for a failure without one; `None` when
    /// `ok`.
    pub code: Option<String>,
    /// Canonical deterministic payload (`ok` responses only): the
    /// response minus timing fields, serialized — what the
    /// differential gate compares.
    pub payload: Option<String>,
    /// Client-observed latency, µs (includes retries and backoff).
    pub latency_us: u64,
}

/// Everything a replay produced, ready for scoring.
#[derive(Debug)]
pub struct ReplayRun {
    /// Per-explain results, ordered by trace op id. Explains whose
    /// client hangs up have none.
    pub results: Vec<OpResult>,
    /// `internal_error` incident ids clients were handed.
    pub incidents: u64,
    /// Those of them `debug_dump` could not resolve to a timeline.
    pub unresolved_incidents: Vec<String>,
    /// Control-probe ping latencies, µs, sorted.
    pub ping_us: Vec<u64>,
    /// The last `metrics` response of the drain: drained unless the
    /// drain ran out of time.
    pub metrics: Json,
    /// Final Prometheus text exposition.
    pub prom_text: String,
}

impl ReplayRun {
    /// Explains whose result is filed under `code` (`None` = `ok`).
    pub fn count(&self, code: Option<&str>) -> u64 {
        self.results
            .iter()
            .filter(|r| r.code.as_deref() == code)
            .count() as u64
    }
}

/// The response fields that are functions of (table, sql) alone —
/// everything except timings. Key order is fixed, so equal content
/// means equal strings.
fn canonical_payload(resp: &Json) -> String {
    let mut fields = Vec::new();
    for key in ["sql", "n_rows_in", "n_rows_out", "explanations", "rendered"] {
        if let Some(v) = resp.get(key) {
            fields.push((key.to_string(), v.clone()));
        }
    }
    Json::Obj(fields).to_string()
}

/// The in-process server a replay owns when no `addr` is given. Serial
/// execution: wire responses are pinned bit-identical across modes by
/// the goldens, serial keeps a replay reproducible on any core count,
/// and a parallel explain would starve the control probe of CPU. The
/// flight recorder is sized so a faulted run overwrites no incident
/// before the post-drain resolution reads it back.
fn spawn_server(workers: usize) -> Result<ServerHandle, String> {
    let service = Arc::new(ExplainService::with_obs(
        SessionManager::new(
            Fedex::new().with_execution(ExecutionMode::Serial),
            Arc::new(ArtifactCache::default()),
        ),
        Arc::new(fedex_obs::Obs::with_recorder_capacity(1 << 17)),
    ));
    let server = Server::bind(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: workers.max(1),
            queue_depth: 64,
            session_quota: 1024,
            max_connections: 256,
            default_deadline_ms: 60_000,
            write_timeout_ms: 5_000,
        },
        service,
    )
    .map_err(|e| format!("bind: {e}"))?;
    server.spawn().map_err(|e| format!("spawn: {e}"))
}

/// The control probe: one persistent connection (`client`, opened
/// before the registrations so the first ping does not wait on the
/// acceptor) pinging every [`PING_EVERY`] until `stop`, reconnecting
/// after a failed exchange. Returns the latencies (µs) of the answered
/// pings.
fn control_probe(addr: &str, mut client: Option<Client>, stop: &AtomicBool) -> Vec<u64> {
    let mut latencies = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        if client.is_none() {
            client = Client::connect(addr).ok();
        }
        if let Some(c) = client.as_mut() {
            let t0 = Instant::now();
            match c.request_raw(r#"{"cmd":"ping"}"#) {
                Ok(raw) if json::parse(&raw).is_ok() => {
                    latencies.push(t0.elapsed().as_micros() as u64)
                }
                _ => client = None,
            }
        }
        std::thread::sleep(PING_EVERY);
    }
    latencies
}

/// Does `debug_dump` resolve `incident` to a non-empty timeline?
fn resolves(addr: &str, incident: &str) -> bool {
    let line = format!(r#"{{"cmd":"debug_dump","incident":"{incident}"}}"#);
    Client::connect(addr)
        .and_then(|mut c| c.request_raw(&line))
        .ok()
        .and_then(|raw| json::parse(&raw).ok())
        .is_some_and(|r| {
            r.get("ok") == Some(&Json::Bool(true))
                && r.get("events")
                    .and_then(Json::as_arr)
                    .is_some_and(|events| !events.is_empty())
        })
}

/// Replay `trace` and collect scores. Registration ops run serially
/// first; explain ops run on one thread per client, in trace order.
pub fn replay(trace: &Trace, cfg: &ReplayConfig) -> Result<ReplayRun, String> {
    let plan = match &trace.header.faults {
        Some(spec) => Some(Arc::new(FaultPlan::parse(spec)?)),
        None => None,
    };
    if plan.is_some() && cfg.addr.is_some() {
        return Err(
            "a trace with a fault plan replays only against the in-process \
                    server; it cannot be combined with --addr"
                .into(),
        );
    }
    let owned = match &cfg.addr {
        Some(_) => None,
        None => Some(spawn_server(cfg.workers)?),
    };
    let addr = match (&cfg.addr, &owned) {
        (Some(a), _) => a.clone(),
        (None, Some(handle)) => handle.addr().to_string(),
        (None, None) => unreachable!("a server is spawned when no addr is given"),
    };

    let probe_client = Client::connect(&addr).ok();
    // Setup phase: registrations, in order, with retries — a failed
    // register invalidates the whole run, so it is a hard error.
    let setup_policy = RetryPolicy {
        retries: 5,
        seed: trace.header.seed ^ 0x5e71,
        ..RetryPolicy::default()
    };
    for op in &trace.ops {
        let line = match op {
            TraceOp::RegisterDemo { .. } | TraceOp::RegisterInline { .. } => op.wire_line(),
            TraceOp::Explain { .. } => continue,
        };
        let raw = Client::request_with_retry(&addr, &line, &setup_policy)
            .map_err(|e| format!("register op {}: {e}", op.id()))?;
        let resp = json::parse(&raw).map_err(|e| format!("register op {}: {e:?}", op.id()))?;
        if resp.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("register op {} refused: {resp}", op.id()));
        }
    }

    // Client phase: partition explains by client, one thread each.
    let mut per_client: Vec<Vec<&TraceOp>> = vec![Vec::new(); trace.header.clients as usize];
    for op in &trace.ops {
        if let TraceOp::Explain { client, .. } = op {
            let idx = *client as usize;
            if idx >= per_client.len() {
                return Err(format!(
                    "op {} names client {client} but the header declares {}",
                    op.id(),
                    trace.header.clients
                ));
            }
            per_client[idx].push(op);
        }
    }

    if let Some(handle) = &owned {
        handle.service().set_faults(plan.clone());
    }
    let results: Mutex<Vec<OpResult>> = Mutex::new(Vec::new());
    let incidents: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    let mut ping_us = std::thread::scope(|scope| {
        let probe = scope.spawn(|| control_probe(&addr, probe_client, &stop));
        let clients: Vec<_> = per_client
            .iter()
            .map(|ops| {
                let (addr, results, incidents) = (&addr, &results, &incidents);
                scope.spawn(move || {
                    for op in ops {
                        let TraceOp::Explain {
                            id,
                            client,
                            kind,
                            think_ms,
                            retries,
                            hang_up,
                            ..
                        } = op
                        else {
                            unreachable!("client queues hold explains only");
                        };
                        let pause = (*think_ms as f64 * cfg.speed) as u64;
                        if pause > 0 {
                            std::thread::sleep(Duration::from_millis(pause));
                        }
                        if *hang_up {
                            // Write the request, then drop the socket
                            // unread: the job's waiter is gone.
                            if let Ok(mut s) = TcpStream::connect(addr) {
                                let _ = writeln!(s, "{}", op.wire_line());
                            }
                            continue;
                        }
                        let policy = RetryPolicy {
                            retries: *retries as u32,
                            // Deterministic per-op jitter stream.
                            seed: trace.header.seed ^ (0xa11ce ^ id),
                            ..RetryPolicy::default()
                        };
                        let t0 = Instant::now();
                        let raw = Client::request_with_retry(addr, &op.wire_line(), &policy);
                        let latency_us = t0.elapsed().as_micros() as u64;
                        let (code, resp) = classify(raw);
                        if code.as_deref() == Some("internal_error") {
                            let incident = resp.as_ref().and_then(|r| r.get("incident"));
                            if let Some(id) = incident.and_then(Json::as_str) {
                                incidents.lock().unwrap().push(id.to_string());
                            }
                        }
                        results.lock().unwrap().push(OpResult {
                            id: *id,
                            client: *client,
                            kind: kind.clone(),
                            ok: code.is_none(),
                            payload: code
                                .is_none()
                                .then(|| resp.as_ref().map(canonical_payload))
                                .flatten(),
                            code,
                            latency_us,
                        });
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
        probe.join().expect("control probe panicked")
    });
    ping_us.sort_unstable();

    // Every client joined: clear the fault plan so the post-run
    // observations run clean, then wait for the queues to empty — no
    // hung workers, no orphaned jobs. The last snapshot is kept.
    if let Some(handle) = &owned {
        handle.service().set_faults(None);
    }
    let drain_deadline = Instant::now() + DRAIN_BUDGET;
    let mut metrics = None;
    loop {
        if let Ok(m) = Client::connect(&addr)
            .and_then(|mut c| c.request_raw(r#"{"cmd":"metrics"}"#))
            .map(|raw| json::parse(&raw))
        {
            metrics = m.ok().or(metrics);
        }
        if metrics.as_ref().is_some_and(|m| backlog(m) == 0.0) || Instant::now() > drain_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let metrics = metrics.ok_or("final metrics: the server never answered")?;

    let incidents = incidents.into_inner().unwrap();
    let unresolved_incidents: Vec<String> = incidents
        .iter()
        .filter(|inc| !resolves(&addr, inc))
        .cloned()
        .collect();

    let (status, prom_text) = Client::http_get(&addr, "/metrics", "text/plain")
        .map_err(|e| format!("prometheus scrape: {e}"))?;
    if !status.contains("200") {
        return Err(format!("prometheus scrape returned {status:?}"));
    }
    if let Some(handle) = owned {
        handle.stop().map_err(|e| format!("server stop: {e}"))?;
    }

    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|r| r.id);
    Ok(ReplayRun {
        results,
        incidents: incidents.len() as u64,
        unresolved_incidents,
        ping_us,
        metrics,
        prom_text,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_outcome_lands_in_exactly_one_bucket() {
        let io = Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "x",
        ));
        let mut results = Vec::new();
        for (raw, want) in [
            (Ok(r#"{"ok":true}"#.to_string()), None),
            (
                Ok(r#"{"ok":false,"code":"overloaded","error":"x"}"#.to_string()),
                Some("overloaded"),
            ),
            (
                Ok(r#"{"ok":false,"code":"internal_error","incident":"inc-7"}"#.to_string()),
                Some("internal_error"),
            ),
            (
                Ok(r#"{"ok":false,"error":"no code"}"#.to_string()),
                Some(UNTYPED),
            ),
            (Ok(r#"{"ok":fal"#.to_string()), Some(TORN)),
            (io, Some(IO)),
        ] {
            let (code, _) = classify(raw);
            assert_eq!(code.as_deref(), want);
            results.push(OpResult {
                id: results.len() as u64,
                client: 0,
                kind: "filter".into(),
                ok: code.is_none(),
                code,
                payload: None,
                latency_us: 1,
            });
        }
        let run = ReplayRun {
            results,
            incidents: 0,
            unresolved_incidents: Vec::new(),
            ping_us: Vec::new(),
            metrics: Json::Null,
            prom_text: String::new(),
        };
        let buckets = [None, Some("overloaded"), Some("internal_error")]
            .into_iter()
            .chain([UNTYPED, TORN, IO].map(Some));
        let counts: Vec<u64> = buckets.map(|code| run.count(code)).collect();
        assert_eq!(counts, [1; 6], "each outcome in exactly one bucket");
    }

    #[test]
    fn metric_walks_nested_paths() {
        let m = json::parse(r#"{"scheduler":{"queued_heavy":3,"running_heavy":1}}"#).unwrap();
        assert_eq!(metric(&m, &["scheduler", "queued_heavy"]), 3.0);
        assert_eq!(backlog(&m), 4.0);
    }
}
