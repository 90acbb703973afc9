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
//! Scoring uses both surfaces: the wire responses themselves (outcome
//! classification via [`crate::driver`], client-observed latency) and,
//! after traffic drains, the server's own `metrics` command plus the
//! Prometheus text exposition (validated with `fedex-obs`' strict
//! parser).

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fedex_core::{ArtifactCache, ExecutionMode, Fedex, SessionManager};
use fedex_serve::json::{self, Json};
use fedex_serve::{Client, ExplainService, RetryPolicy, Server, ServerConfig, ServerHandle};

use crate::driver::{classify, Outcome, Tally};

use super::trace::{Trace, TraceOp};

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
    /// Typed error code, when the response failed.
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
    /// Per-explain results, ordered by trace op id.
    pub results: Vec<OpResult>,
    /// `ok:true` responses (explains only).
    pub ok: u64,
    /// Failures without a `code` — must be zero.
    pub untyped_errors: u64,
    /// Transport errors after retries.
    pub io_errors: u64,
    /// Unparseable response lines after retries.
    pub torn_lines: u64,
    /// Typed failures by code, sorted.
    pub typed_errors: Vec<(String, u64)>,
    /// Final `metrics` command response.
    pub metrics: Json,
    /// Final Prometheus text exposition.
    pub prom_text: String,
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

/// A server owned by the replay (spawned when no `addr` is given).
struct OwnedServer {
    handle: ServerHandle,
}

impl OwnedServer {
    fn spawn(workers: usize) -> Result<OwnedServer, String> {
        let service = Arc::new(ExplainService::with_obs(
            SessionManager::new(
                // Serial execution: wire responses are pinned
                // bit-identical across modes by the goldens, and serial
                // keeps a replay reproducible on any core count.
                Fedex::new().with_execution(ExecutionMode::Serial),
                Arc::new(ArtifactCache::default()),
            ),
            Some(Arc::new(fedex_obs::Obs::new())),
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
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        Ok(OwnedServer { handle })
    }
}

/// Replay `trace` and collect scores. Registration ops run serially
/// first; explain ops run on one thread per client, in trace order.
pub fn replay(trace: &Trace, cfg: &ReplayConfig) -> Result<ReplayRun, String> {
    let owned = match &cfg.addr {
        Some(_) => None,
        None => Some(OwnedServer::spawn(cfg.workers)?),
    };
    let addr = match &cfg.addr {
        Some(a) => a.clone(),
        None => owned.as_ref().unwrap().handle.addr().to_string(),
    };

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

    let tally = Tally::default();
    let results: Mutex<Vec<OpResult>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for ops in &per_client {
            let addr = addr.clone();
            let tally = &tally;
            let results = &results;
            scope.spawn(move || {
                for op in ops {
                    let TraceOp::Explain {
                        id,
                        client,
                        kind,
                        think_ms,
                        retries,
                        ..
                    } = op
                    else {
                        unreachable!("client queues hold explains only");
                    };
                    let pause = (*think_ms as f64 * cfg.speed) as u64;
                    if pause > 0 {
                        std::thread::sleep(Duration::from_millis(pause));
                    }
                    let policy = RetryPolicy {
                        retries: *retries as u32,
                        // Deterministic per-op jitter stream.
                        seed: trace.header.seed ^ (0xa11ce ^ id),
                        ..RetryPolicy::default()
                    };
                    let t0 = Instant::now();
                    let raw = Client::request_with_retry(&addr, &op.wire_line(), &policy);
                    let latency_us = t0.elapsed().as_micros() as u64;
                    let (outcome, resp) = classify(raw);
                    tally.record(&outcome);
                    let ok = outcome == Outcome::Ok;
                    let code = match &outcome {
                        Outcome::Typed { code, .. } => Some(code.clone()),
                        Outcome::Untyped => Some("<untyped>".to_string()),
                        Outcome::Torn => Some("<torn>".to_string()),
                        Outcome::Io => Some("<io>".to_string()),
                        Outcome::Ok => None,
                    };
                    results.lock().unwrap().push(OpResult {
                        id: *id,
                        client: *client,
                        kind: kind.clone(),
                        ok,
                        code,
                        payload: ok.then(|| resp.as_ref().map(canonical_payload)).flatten(),
                        latency_us,
                    });
                }
            });
        }
    });

    // Post-run scrape: the JSON metrics command and the Prometheus
    // exposition, both after every client joined.
    let metrics_raw = Client::request_with_retry(&addr, r#"{"cmd":"metrics"}"#, &setup_policy)
        .map_err(|e| format!("final metrics: {e}"))?;
    let metrics = json::parse(&metrics_raw).map_err(|e| format!("final metrics: {e:?}"))?;
    let (status, prom_text) = Client::http_get(&addr, "/metrics", "text/plain")
        .map_err(|e| format!("prometheus scrape: {e}"))?;
    if !status.contains("200") {
        return Err(format!("prometheus scrape returned {status:?}"));
    }

    if let Some(owned) = owned {
        owned
            .handle
            .stop()
            .map_err(|e| format!("server stop: {e}"))?;
    }

    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|r| r.id);
    let mut typed: Vec<(String, u64)> = tally
        .typed_errors
        .lock()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    typed.sort();
    Ok(ReplayRun {
        results,
        ok: tally.ok.load(Ordering::Relaxed),
        untyped_errors: tally.untyped_errors.load(Ordering::Relaxed),
        io_errors: tally.io_errors.load(Ordering::Relaxed),
        torn_lines: tally.torn_lines.load(Ordering::Relaxed),
        typed_errors: typed,
        metrics,
        prom_text,
    })
}
