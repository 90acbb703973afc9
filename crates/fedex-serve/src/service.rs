//! Protocol dispatch: one JSON request in, one JSON response out.
//!
//! The service is transport-agnostic — the TCP server (NDJSON and the
//! HTTP fallback), tests, and the CLI all call [`ExplainService::dispatch`]
//! directly. Every request is an object with a `"cmd"` field:
//!
//! | cmd             | fields                                              |
//! |-----------------|-----------------------------------------------------|
//! | `ping`          | —                                                   |
//! | `register`      | `session`, `table`, `columns` (inline data)         |
//! | `register_demo` | `session`, `dataset?`, `table?`, `rows?`, `seed?`, `product_rows?` |
//! | `explain`       | `session`, `sql`, `save_as?`, `top?`, `width?`, `trace?` |
//! | `history`       | `session`                                           |
//! | `sessions`      | —                                                   |
//! | `metrics`       | —                                                   |
//! | `debug_dump`    | `incident?`, `trace_id?`, `limit?`                  |
//! | `shutdown`      | —                                                   |
//!
//! Responses always carry `"ok"`; failures are
//! `{"ok":false,"code":…,"error":…}` with a machine-readable `code`
//! (`invalid_json`, `bad_request`, `unknown_cmd`, `explain_failed`,
//! `session_full`, and — from the admission scheduler — `overloaded`,
//! `quota_exceeded`, `shutting_down`; see [`crate::sched`] and
//! `docs/WIRE_PROTOCOL.md`). A
//! malformed request never tears down the server; only a request over
//! the transport's 64 MiB cap (`too_large`, answered by
//! [`crate::server`]) closes its connection. Explain responses embed the per-stage timings and a cumulative
//! artifact-cache snapshot so a client can observe that its warm request
//! skipped the encode work.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Instant;

use fedex_core::cache::ARTIFACTS;
use fedex_core::{
    to_json_array, write_stage_trace_json, CancelToken, ExplainError, SessionManager, StageReport,
    MAX_WIDTH,
};
use fedex_frame::{Column, DataFrame};
use fedex_obs::{parse_trace_id, trace_id_str, HistSnapshot, Obs, PromWriter};

use crate::fault::FaultPlan;
use crate::json::{self, n, obj, s, Json};
use crate::sched::SchedMetrics;

/// Wire-visible server counters.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests dispatched (all commands).
    pub requests: AtomicU64,
    /// Requests answered with `ok:false`.
    pub errors: AtomicU64,
    /// `explain` requests served.
    pub explains: AtomicU64,
    /// Tables registered (`register` + `register_demo`).
    pub registers: AtomicU64,
    /// Connections accepted (maintained by the TCP server).
    pub connections: AtomicU64,
    /// Explains that panicked and were isolated (each produced a typed
    /// `internal_error` response with an incident id).
    pub panics: AtomicU64,
    /// `deadline_exceeded` responses produced (expired waiters plus
    /// pipeline aborts).
    pub deadline_exceeded: AtomicU64,
    /// `cancelled` responses produced (abandoned runs).
    pub cancelled: AtomicU64,
    /// Response writes that failed or timed out (stalled or gone peers;
    /// maintained by the TCP server).
    pub disconnects: AtomicU64,
}

/// One coherent reading of [`ServerMetrics`], used by the JSON `metrics`
/// command, the Prometheus exposition, and the workload replay gate alike.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerSnapshot {
    /// Requests dispatched (all commands).
    pub requests: u64,
    /// Requests answered with `ok:false`.
    pub errors: u64,
    /// `explain` requests served.
    pub explains: u64,
    /// Tables registered.
    pub registers: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Isolated panics.
    pub panics: u64,
    /// `deadline_exceeded` responses.
    pub deadline_exceeded: u64,
    /// `cancelled` responses.
    pub cancelled: u64,
    /// Failed/timed-out response writes.
    pub disconnects: u64,
}

impl ServerMetrics {
    /// Read every counter into one coherent snapshot. The counters are
    /// monotonic and every "effect" counter is incremented *after* its
    /// "cause" (an error is counted after its request, an explain after
    /// its request, a panic before its error), so loading effects first
    /// — with `SeqCst` to pin the load order — guarantees the snapshot
    /// never shows `errors > requests` or `explains > requests`, which
    /// the previous per-field `to_json` reads could.
    pub fn snapshot(&self) -> ServerSnapshot {
        let panics = self.panics.load(Ordering::SeqCst);
        let deadline_exceeded = self.deadline_exceeded.load(Ordering::SeqCst);
        let cancelled = self.cancelled.load(Ordering::SeqCst);
        let disconnects = self.disconnects.load(Ordering::SeqCst);
        let registers = self.registers.load(Ordering::SeqCst);
        let explains = self.explains.load(Ordering::SeqCst);
        let errors = self.errors.load(Ordering::SeqCst);
        let requests = self.requests.load(Ordering::SeqCst);
        let connections = self.connections.load(Ordering::SeqCst);
        ServerSnapshot {
            requests,
            errors,
            explains,
            registers,
            connections,
            panics,
            deadline_exceeded,
            cancelled,
            disconnects,
        }
    }

    fn to_json(&self) -> Json {
        let m = self.snapshot();
        obj([
            ("requests", n(m.requests as f64)),
            ("errors", n(m.errors as f64)),
            ("explains", n(m.explains as f64)),
            ("registers", n(m.registers as f64)),
            ("connections", n(m.connections as f64)),
            ("panics", n(m.panics as f64)),
            ("deadline_exceeded", n(m.deadline_exceeded as f64)),
            ("cancelled", n(m.cancelled as f64)),
            ("disconnects", n(m.disconnects as f64)),
        ])
    }
}

/// Per-job execution context the scheduler attaches to a dispatch: the
/// cancellation token the job's waiter shares, its trace id and its
/// queue wait.
#[derive(Debug, Clone, Default)]
pub struct JobContext {
    /// Cooperative cancellation handle (deadline and/or abandoned-run
    /// flag) checked by the pipeline at work-unit boundaries.
    pub cancel: Option<CancelToken>,
    /// Request trace id minted at admission (`None` for direct
    /// dispatches, which mint their own lazily).
    pub trace_id: Option<u64>,
    /// Microseconds the job waited in its admission queue before a
    /// worker picked it up.
    pub queue_wait_micros: Option<u64>,
}

/// The shared request handler: a [`SessionManager`] plus server state.
#[derive(Debug)]
pub struct ExplainService {
    manager: SessionManager,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    scheduler: OnceLock<Arc<SchedMetrics>>,
    /// Active fault-injection plan (faulted workload replays and tests
    /// only; `None` in production).
    faults: RwLock<Option<Arc<FaultPlan>>>,
    /// Latency histograms, tracing, and the flight recorder.
    obs: Arc<Obs>,
    /// Slow-explain log threshold in milliseconds (0 = off): explains
    /// slower than this print their trace id + stage breakdown to
    /// stderr.
    slow_explain_ms: AtomicU64,
}

impl Default for ExplainService {
    fn default() -> Self {
        ExplainService::new(SessionManager::default())
    }
}

/// Cumulative artifact-cache snapshot as a JSON object: totals, then
/// hits and misses per artifact kind.
fn cache_json(manager: &SessionManager) -> Json {
    let m = manager.cache().metrics();
    let by_artifact = ARTIFACTS.iter().zip(m.by_artifact).map(|(&artifact, l)| {
        (
            artifact,
            obj([("hits", n(l.hits as f64)), ("misses", n(l.misses as f64))]),
        )
    });
    obj([
        ("hits", n(m.hits as f64)),
        ("misses", n(m.misses as f64)),
        ("evictions", n(m.evictions as f64)),
        ("rejected", n(m.rejected as f64)),
        ("entries", n(m.entries as f64)),
        ("bytes", n(m.bytes as f64)),
        ("budget", n(m.budget as f64)),
        ("by_artifact", obj(by_artifact)),
    ])
}

/// Session gauges as a JSON object.
fn sessions_json(manager: &SessionManager) -> Json {
    let m = manager.stats();
    obj([
        ("sessions", n(m.sessions as f64)),
        ("bytes", n(m.bytes as f64)),
        ("evictions", n(m.evictions as f64)),
        ("budget", n(m.budget as f64)),
    ])
}

/// Percentile summary of one histogram snapshot (microsecond units).
fn hist_json(snap: &HistSnapshot) -> Json {
    obj([
        ("count", n(snap.count as f64)),
        ("p50_us", n(snap.p50() as f64)),
        ("p90_us", n(snap.p90() as f64)),
        ("p99_us", n(snap.p99() as f64)),
        ("max_us", n(snap.max as f64)),
        ("sum_us", n(snap.sum as f64)),
    ])
}

/// The `"latency"` object of the `metrics` command: per-command,
/// per-queue, and per-stage percentile summaries (non-empty series
/// only).
fn latency_json(obs: &Obs) -> Json {
    let series = |snaps: Vec<(&'static str, HistSnapshot)>| {
        Json::Obj(
            snaps
                .into_iter()
                .filter(|(_, snap)| snap.count > 0)
                .map(|(name, snap)| (name.to_string(), hist_json(&snap)))
                .collect(),
        )
    };
    obj([
        ("commands", series(obs.command_snapshots())),
        ("admission_wait", series(obs.admission_wait_snapshots())),
        ("service_time", series(obs.service_time_snapshots())),
        ("stages", series(obs.stage_snapshots())),
    ])
}

/// One flight-recorder event as wire JSON.
fn event_json(ev: &fedex_obs::Event) -> Json {
    let mut fields = vec![
        ("seq", n(ev.seq as f64)),
        ("at_micros", n(ev.at_micros as f64)),
        (
            "trace_id",
            if ev.trace_id == 0 {
                Json::Null
            } else {
                s(trace_id_str(ev.trace_id))
            },
        ),
        ("kind", s(ev.kind)),
        ("cmd", s(ev.cmd.clone())),
        ("session", s(ev.session.clone())),
    ];
    if !ev.detail.is_empty() {
        fields.push(("detail", s(ev.detail.clone())));
    }
    if !ev.incident.is_empty() {
        fields.push(("incident", s(ev.incident.clone())));
    }
    if ev.micros > 0 {
        fields.push(("micros", n(ev.micros as f64)));
    }
    obj(fields)
}

/// A typed error response: machine-readable `code` + human `error`.
fn err(code: &'static str, message: impl Into<String>) -> Json {
    obj([
        ("ok", Json::Bool(false)),
        ("code", s(code)),
        ("error", s(message.into())),
    ])
}

fn ok(mut fields: Vec<(&'static str, Json)>) -> Json {
    fields.insert(0, ("ok", Json::Bool(true)));
    obj(fields)
}

/// Decode one uploaded column: `{"name":…,"type":…,"values":[…]}`.
fn parse_column(spec: &Json) -> Result<Column, String> {
    let name = spec
        .get("name")
        .and_then(Json::as_str)
        .ok_or("column needs a string 'name'")?;
    let dtype = spec
        .get("type")
        .and_then(Json::as_str)
        .ok_or("column needs a 'type' of int|float|str|bool")?;
    let values = spec
        .get("values")
        .and_then(Json::as_arr)
        .ok_or("column needs a 'values' array")?;
    let bad = |i: usize| format!("column {name:?}: value {i} does not match type {dtype:?}");
    match dtype {
        "int" => {
            // JSON numbers arrive as f64, which is exact only to 2⁵³;
            // larger "integers" would be silently rounded, so reject them
            // rather than register corrupted cells.
            const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
            let mut out = Vec::with_capacity(values.len());
            for (i, v) in values.iter().enumerate() {
                out.push(match v {
                    Json::Null => None,
                    Json::Num(x) if x.fract() == 0.0 && x.abs() <= EXACT => Some(*x as i64),
                    _ => return Err(bad(i)),
                });
            }
            Ok(Column::from_opt_ints(name, out))
        }
        "float" => {
            let mut out = Vec::with_capacity(values.len());
            for (i, v) in values.iter().enumerate() {
                out.push(match v {
                    Json::Null => None,
                    Json::Num(x) => Some(*x),
                    _ => return Err(bad(i)),
                });
            }
            Ok(Column::from_opt_floats(name, out))
        }
        "str" => {
            let mut out = Vec::with_capacity(values.len());
            for (i, v) in values.iter().enumerate() {
                out.push(match v {
                    Json::Null => None,
                    Json::Str(x) => Some(x.clone()),
                    _ => return Err(bad(i)),
                });
            }
            Ok(Column::from_opt_strs(name, out))
        }
        "bool" => {
            let mut out = Vec::with_capacity(values.len());
            for (i, v) in values.iter().enumerate() {
                out.push(match v {
                    Json::Null => None,
                    Json::Bool(b) => Some(*b),
                    _ => return Err(bad(i)),
                });
            }
            Ok(Column::new(name, fedex_frame::ColumnData::Bool(out)))
        }
        other => Err(format!("unknown column type {other:?}")),
    }
}

impl ExplainService {
    /// A service over an existing manager (shared cache, config), with
    /// a default observability hub.
    pub fn new(manager: SessionManager) -> Self {
        ExplainService::with_obs(manager, Arc::new(Obs::new()))
    }

    /// [`ExplainService::new`] with an explicit observability hub, e.g.
    /// one whose flight recorder holds more events.
    pub fn with_obs(manager: SessionManager, obs: Arc<Obs>) -> Self {
        ExplainService {
            manager,
            metrics: ServerMetrics::default(),
            shutdown: AtomicBool::new(false),
            scheduler: OnceLock::new(),
            faults: RwLock::new(None),
            obs,
            slow_explain_ms: AtomicU64::new(0),
        }
    }

    /// The observability hub.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Set the slow-explain log threshold (milliseconds; 0 disables).
    pub fn set_slow_explain_ms(&self, ms: u64) {
        self.slow_explain_ms.store(ms, Ordering::Relaxed);
    }

    /// Install (or clear) a fault-injection plan. Chaos harness only.
    pub fn set_faults(&self, plan: Option<Arc<FaultPlan>>) {
        *self.faults.write().unwrap_or_else(PoisonError::into_inner) = plan;
    }

    /// The active fault-injection plan, if any.
    pub fn faults(&self) -> Option<Arc<FaultPlan>> {
        self.faults
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Attach the admission scheduler's counters so the `metrics` command
    /// reports them; called once by [`crate::sched::Scheduler::new`].
    pub fn attach_scheduler_metrics(&self, metrics: Arc<SchedMetrics>) {
        let _ = self.scheduler.set(metrics);
    }

    /// The underlying session manager.
    pub fn manager(&self) -> &SessionManager {
        &self.manager
    }

    /// The server-side counters (the TCP server bumps `connections`).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// True once a `shutdown` request was served (or
    /// [`ExplainService::request_shutdown`] was called in-process).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Ask the server loops to wind down — the in-process equivalent of a
    /// wire `shutdown` request. Idle workers observe the flag within their
    /// read-timeout tick, so a graceful stop never depends on a free
    /// worker slot.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Dispatch one already-parsed request.
    pub fn dispatch(&self, req: &Json) -> Json {
        self.dispatch_job(req, &JobContext::default())
    }

    /// [`ExplainService::dispatch`] under a scheduler-provided
    /// [`JobContext`] (cancellation token, trace id, queue wait).
    ///
    /// Every counted request records exactly one observation in its
    /// command's latency histogram, so the per-command counts sum to
    /// `requests` (the invariant CI's `promcheck` asserts). The one
    /// exception is a panicking dispatch — the scheduler's panic arm
    /// records the observation the unwind skipped here.
    pub fn dispatch_job(&self, req: &Json, job: &JobContext) -> Json {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let response = self.dispatch_inner(req, job);
        if response.get("ok") == Some(&Json::Bool(false)) {
            self.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        let cmd = req.get("cmd").and_then(Json::as_str).unwrap_or("other");
        self.obs.record_command(cmd, t0.elapsed());
        response
    }

    /// Dispatch one NDJSON line; the response is a single line without the
    /// trailing newline.
    pub fn dispatch_line(&self, line: &str) -> String {
        let response = match json::parse(line) {
            Ok(req) => self.dispatch(&req),
            Err(e) => {
                self.metrics.requests.fetch_add(1, Ordering::Relaxed);
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                // Unparseable lines count as requests, so they must also
                // count as an `other` command observation.
                self.obs.record_command("other", std::time::Duration::ZERO);
                err("invalid_json", format!("invalid JSON: {e}"))
            }
        };
        response.encode()
    }

    fn dispatch_inner(&self, req: &Json, job: &JobContext) -> Json {
        let Some(cmd) = req.get("cmd").and_then(Json::as_str) else {
            return err("bad_request", "request needs a string 'cmd'");
        };
        let session = req
            .get("session")
            .and_then(Json::as_str)
            .unwrap_or("default");
        match cmd {
            "ping" => ok(vec![("pong", Json::Bool(true))]),
            "register" => self.register(req, session),
            "register_demo" => self.register_demo(req, session),
            "explain" => self.explain(req, session, job),
            "history" => self.history(session),
            "sessions" => ok(vec![(
                "sessions",
                Json::Arr(
                    self.manager
                        .session_names()
                        .into_iter()
                        .map(Json::Str)
                        .collect(),
                ),
            )]),
            "metrics" => {
                let mut fields = vec![
                    ("server", self.metrics.to_json()),
                    ("cache", cache_json(&self.manager)),
                    ("sessions", sessions_json(&self.manager)),
                ];
                if let Some(sched) = self.scheduler.get() {
                    fields.push(("scheduler", sched.to_json()));
                }
                let rec = self.obs.recorder();
                fields.push(("latency", latency_json(&self.obs)));
                fields.push((
                    "flight_recorder",
                    obj([
                        ("capacity", n(rec.capacity() as f64)),
                        ("recorded", n(rec.recorded() as f64)),
                    ]),
                ));
                ok(fields)
            }
            "debug_dump" => self.debug_dump(req),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                ok(vec![("shutting_down", Json::Bool(true))])
            }
            other => err("unknown_cmd", format!("unknown cmd {other:?}")),
        }
    }

    fn register(&self, req: &Json, session: &str) -> Json {
        let Some(table) = req.get("table").and_then(Json::as_str) else {
            return err("bad_request", "register needs a string 'table'");
        };
        let Some(specs) = req.get("columns").and_then(Json::as_arr) else {
            return err("bad_request", "register needs a 'columns' array");
        };
        let mut columns = Vec::with_capacity(specs.len());
        for spec in specs {
            match parse_column(spec) {
                Ok(c) => columns.push(c),
                Err(e) => return err("bad_request", e),
            }
        }
        let df = match DataFrame::new(columns) {
            Ok(df) => df,
            Err(e) => return err("bad_request", format!("invalid table: {e}")),
        };
        self.finish_register(session, table, df)
    }

    fn register_demo(&self, req: &Json, session: &str) -> Json {
        let dataset = req
            .get("dataset")
            .and_then(Json::as_str)
            .unwrap_or("spotify");
        let table = req.get("table").and_then(Json::as_str).unwrap_or(dataset);
        let rows = req
            .get("rows")
            .and_then(Json::as_usize)
            .unwrap_or(10_000)
            .clamp(1, 5_000_000);
        let seed = req.get("seed").and_then(Json::as_usize).unwrap_or(42) as u64;
        // Every generator is a pure function of (rows, seed) — the same
        // request line always registers the same bytes, which is what
        // makes workload traces compact *and* replayable: a trace ships
        // generator parameters, not data.
        let df = match dataset {
            "spotify" => fedex_data::spotify::generate(rows, seed),
            "bank" => fedex_data::bank::generate(rows, seed),
            "products" => fedex_data::products::generate_products(rows, seed),
            "sales" => {
                // Sales rows reference product rows; the parent table is
                // regenerated from (product_rows, seed) so a session can
                // register "products" and "sales" that join consistently
                // without shipping either.
                let product_rows = req
                    .get("product_rows")
                    .and_then(Json::as_usize)
                    .unwrap_or_else(|| (rows / 25).max(50))
                    .clamp(1, 1_000_000);
                let products = fedex_data::products::generate_products(product_rows, seed);
                fedex_data::products::generate_sales(&products, rows, seed)
            }
            "counties" => fedex_data::products::generate_counties(seed),
            "stores" => fedex_data::products::generate_stores(rows, seed),
            other => {
                return err(
                    "bad_request",
                    format!(
                        "unknown demo dataset {other:?} \
                         (want spotify|bank|products|sales|counties|stores)"
                    ),
                )
            }
        };
        self.finish_register(session, table, df)
    }

    fn finish_register(&self, session: &str, table: &str, df: DataFrame) -> Json {
        self.metrics.registers.fetch_add(1, Ordering::Relaxed);
        let rows = df.n_rows();
        let cols = df.n_cols();
        // The manager computes (and the frame memoizes) the content
        // digest here, once — every later explain over this table reads
        // it in O(1) instead of re-scanning 15 columns × n rows.
        let fp = match self.manager.register(session, table, df) {
            Ok(fp) => fp,
            Err(e) => return err("session_full", e.to_string()),
        };
        ok(vec![
            ("session", s(session)),
            ("table", s(table)),
            ("rows", n(rows as f64)),
            ("columns", n(cols as f64)),
            ("fingerprint", s(fp.to_hex())),
        ])
    }

    fn explain(&self, req: &Json, session: &str, job: &JobContext) -> Json {
        let Some(sql) = req.get("sql").and_then(Json::as_str) else {
            return err("bad_request", "explain needs a string 'sql'");
        };
        let save_as = req.get("save_as").and_then(Json::as_str);
        let width = match req.get("width").map(Json::as_usize) {
            None => 44,
            Some(Some(w)) if w <= MAX_WIDTH => w,
            Some(_) => {
                return err(
                    "bad_request",
                    format!("'width' must be an integer in 0..={MAX_WIDTH}"),
                )
            }
        };
        let top = req.get("top").and_then(Json::as_usize);
        let want_trace = req.get("trace").and_then(Json::as_bool).unwrap_or(false);
        self.metrics.explains.fetch_add(1, Ordering::Relaxed);
        let faults = self.faults();
        let cancel = job.cancel.clone();
        // Scheduler-admitted jobs arrive with a trace id minted at
        // admission; direct dispatches (tests, the library API) mint one
        // lazily so traced explains always carry a stable id.
        let trace_id = job.trace_id.unwrap_or_else(|| self.obs.mint_trace().id);
        let run = self
            .manager
            .run_traced_configured(session, sql, save_as, cancel, |config| {
                // Fault hooks fire here, inside the session write lock, so an
                // injected panic exercises the same poisoned-lock recovery a
                // real pipeline bug would.
                if let Some(plan) = &faults {
                    plan.inject_stage_delay();
                    if plan.should_panic() {
                        panic!("injected fault: panic mid-explain");
                    }
                }
                config.trace_id = Some(trace_id);
            });
        let (entry, trace) = match run {
            Ok(run) => run,
            Err(ExplainError::DeadlineExceeded) => {
                self.metrics
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                return err(
                    "deadline_exceeded",
                    "deadline budget exhausted before the explain completed",
                );
            }
            Err(ExplainError::Cancelled) => {
                self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                return err("cancelled", "explain cancelled: every waiter detached");
            }
            Err(e @ ExplainError::SessionFull { .. }) => return err("session_full", e.to_string()),
            Err(e) => return err("explain_failed", format!("explain failed: {e}")),
        };
        for r in &trace {
            self.obs.record_stage(r.stage, r.elapsed);
            self.obs.recorder().push(
                trace_id,
                "stage",
                "explain",
                session,
                r.stage,
                "",
                r.elapsed.as_micros() as u64,
            );
        }
        // `top` trims the *response* — the ranked prefix is exactly what
        // `top_k_explanations` would have kept; history counts them all.
        let shown = match top {
            Some(k) => &entry.explanations[..k.min(entry.explanations.len())],
            None => &entry.explanations[..],
        };
        // Spliced verbatim: the core writers emit the same canonical form
        // `Json` would, so no parse-back is needed.
        let explanations = Json::Raw(to_json_array(shown));
        let rendered = fedex_core::render_all(shown, width);
        let encode_micros = trace
            .iter()
            .find(|r| r.stage == "ScoreColumns")
            .and_then(|r| r.sub.iter().find(|(name, _)| *name == "encode"))
            .map_or(0.0, |(_, d)| d.as_micros() as f64);
        let total_micros: u64 = trace.iter().map(|r| r.elapsed.as_micros() as u64).sum();
        let mut stage_trace = String::new();
        write_stage_trace_json(&mut stage_trace, &trace);
        // A traced reply carries the same spans twice: built once, copied.
        let spans = want_trace.then(|| Json::Raw(stage_trace.clone()));
        let mut fields = vec![
            ("session", s(session)),
            ("sql", s(sql)),
            ("n_rows_in", n(entry.summary.n_rows_in as f64)),
            ("n_rows_out", n(entry.summary.n_rows_out as f64)),
            ("explanations", explanations),
            ("rendered", s(rendered)),
            ("stage_trace", Json::Raw(stage_trace)),
            ("encode_micros", n(encode_micros)),
        ];
        if let Some(spans) = spans {
            // `total_micros` is the sum of the per-stage spans by
            // construction, so clients can check that the spans account
            // for the whole pipeline wall time.
            fields.push((
                "trace",
                obj([
                    ("id", s(trace_id_str(trace_id))),
                    ("total_micros", n(total_micros as f64)),
                    (
                        "queue_micros",
                        job.queue_wait_micros.map_or(Json::Null, |q| n(q as f64)),
                    ),
                    ("spans", spans),
                ]),
            ));
        }
        let slow_ms = self.slow_explain_ms.load(Ordering::Relaxed);
        if slow_ms > 0 && total_micros >= slow_ms.saturating_mul(1000) {
            let id = trace_id_str(trace_id);
            let breakdown = trace
                .iter()
                .map(StageReport::describe)
                .collect::<Vec<_>>()
                .join("; ");
            eprintln!(
                "[slow-explain] {id} session={session} {}ms: {breakdown}",
                total_micros / 1000
            );
        }
        fields.push(("cache", cache_json(&self.manager)));
        ok(fields)
    }

    /// The `debug_dump` command: the flight-recorder ring, optionally
    /// narrowed to one incident's or one trace's timeline, trimmed to the
    /// most recent `limit` events.
    fn debug_dump(&self, req: &Json) -> Json {
        let rec = self.obs.recorder();
        let events = if let Some(incident) = req.get("incident").and_then(Json::as_str) {
            rec.events_for_incident(incident)
        } else if let Some(t) = req.get("trace_id").and_then(Json::as_str) {
            match parse_trace_id(t) {
                Some(id) => rec.events_for_trace(id),
                None => {
                    return err(
                        "bad_request",
                        format!("bad trace_id {t:?} (want t-<16 hex digits>)"),
                    )
                }
            }
        } else {
            rec.dump()
        };
        let limit = req
            .get("limit")
            .and_then(Json::as_usize)
            .unwrap_or(usize::MAX);
        let skip = events.len().saturating_sub(limit);
        ok(vec![
            ("enabled", Json::Bool(true)),
            ("capacity", n(rec.capacity() as f64)),
            ("recorded", n(rec.recorded() as f64)),
            (
                "events",
                Json::Arr(events[skip..].iter().map(event_json).collect()),
            ),
        ])
    }

    /// The Prometheus text exposition served by `GET /metrics` when the
    /// client's `Accept` header asks for `text/plain`. Built from the
    /// same coherent snapshots as the JSON `metrics` command, so the two
    /// views never disagree on the conservation invariants.
    pub fn metrics_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        let counter = |w: &mut PromWriter, name: &str, help: &str, v: u64| {
            w.header(name, "counter", help);
            w.sample(name, &[], v as f64);
        };
        let gauge = |w: &mut PromWriter, name: &str, help: &str, v: u64| {
            w.header(name, "gauge", help);
            w.sample(name, &[], v as f64);
        };

        let m = self.metrics.snapshot();
        counter(
            &mut w,
            "fedex_requests_total",
            "Requests dispatched (all commands).",
            m.requests,
        );
        counter(
            &mut w,
            "fedex_errors_total",
            "Requests answered with ok:false.",
            m.errors,
        );
        counter(
            &mut w,
            "fedex_explains_total",
            "explain requests served.",
            m.explains,
        );
        counter(
            &mut w,
            "fedex_registers_total",
            "Tables registered.",
            m.registers,
        );
        counter(
            &mut w,
            "fedex_connections_total",
            "Connections accepted.",
            m.connections,
        );
        counter(
            &mut w,
            "fedex_panics_total",
            "Explains that panicked and were isolated.",
            m.panics,
        );
        counter(
            &mut w,
            "fedex_deadline_exceeded_total",
            "deadline_exceeded responses produced.",
            m.deadline_exceeded,
        );
        counter(
            &mut w,
            "fedex_cancelled_total",
            "cancelled responses produced.",
            m.cancelled,
        );
        counter(
            &mut w,
            "fedex_disconnects_total",
            "Response writes that failed or timed out.",
            m.disconnects,
        );

        let c = self.manager.cache().metrics();
        w.header(
            "fedex_cache_hits_total",
            "counter",
            "Artifact-cache hits, by artifact kind.",
        );
        for (artifact, l) in ARTIFACTS.iter().zip(c.by_artifact) {
            w.sample(
                "fedex_cache_hits_total",
                &[("artifact", artifact)],
                l.hits as f64,
            );
        }
        w.header(
            "fedex_cache_misses_total",
            "counter",
            "Artifact-cache misses, by artifact kind.",
        );
        for (artifact, l) in ARTIFACTS.iter().zip(c.by_artifact) {
            w.sample(
                "fedex_cache_misses_total",
                &[("artifact", artifact)],
                l.misses as f64,
            );
        }
        counter(
            &mut w,
            "fedex_cache_evictions_total",
            "Artifact-cache evictions.",
            c.evictions,
        );
        counter(
            &mut w,
            "fedex_cache_rejected_total",
            "Artifact-cache inserts not admitted: larger than the whole budget, or a result that would need an eviction.",
            c.rejected,
        );
        gauge(
            &mut w,
            "fedex_cache_entries",
            "Artifact-cache entries resident.",
            c.entries as u64,
        );
        gauge(
            &mut w,
            "fedex_cache_bytes",
            "Artifact-cache bytes resident.",
            c.bytes as u64,
        );
        gauge(
            &mut w,
            "fedex_cache_budget_bytes",
            "Artifact-cache byte budget.",
            c.budget as u64,
        );

        let sessions = self.manager.stats();
        gauge(
            &mut w,
            "fedex_sessions",
            "Sessions held.",
            sessions.sessions as u64,
        );
        gauge(
            &mut w,
            "fedex_session_bytes",
            "Bytes all sessions retain, charged against the session budget.",
            sessions.bytes as u64,
        );
        gauge(
            &mut w,
            "fedex_session_budget_bytes",
            "Byte budget of what all sessions retain together.",
            sessions.budget as u64,
        );
        counter(
            &mut w,
            "fedex_session_evictions_total",
            "Idle sessions evicted to stay within the session budget.",
            sessions.evictions,
        );

        if let Some(sched) = self.scheduler.get() {
            let sc = sched.snapshot();
            w.header(
                "fedex_sched_admitted_total",
                "counter",
                "Requests admitted, by queue class.",
            );
            w.sample(
                "fedex_sched_admitted_total",
                &[("class", "heavy")],
                sc.admitted_heavy as f64,
            );
            w.header(
                "fedex_sched_rejected_total",
                "counter",
                "Requests rejected at admission, by reason.",
            );
            w.sample(
                "fedex_sched_rejected_total",
                &[("reason", "overloaded")],
                sc.rejected_overloaded as f64,
            );
            w.sample(
                "fedex_sched_rejected_total",
                &[("reason", "quota")],
                sc.rejected_quota as f64,
            );
            counter(
                &mut w,
                "fedex_sched_completed_total",
                "Jobs fully served.",
                sc.completed,
            );
            counter(
                &mut w,
                "fedex_sched_expired_total",
                "Jobs expired before dispatch.",
                sc.expired,
            );
            counter(
                &mut w,
                "fedex_sched_detached_total",
                "Waiters that left before their job's response.",
                sc.detached,
            );
            w.header(
                "fedex_sched_queued",
                "gauge",
                "Jobs queued right now, by class.",
            );
            w.sample(
                "fedex_sched_queued",
                &[("class", "heavy")],
                sc.queued_heavy_now as f64,
            );
            gauge(
                &mut w,
                "fedex_sched_running_heavy",
                "Heavy jobs running right now.",
                sc.running_heavy_now,
            );
        }

        let obs = &self.obs;
        w.header(
            "fedex_request_duration_seconds",
            "histogram",
            "End-to-end handling time per wire command.",
        );
        for (name, snap) in obs.command_snapshots() {
            w.histogram("fedex_request_duration_seconds", &[("cmd", name)], &snap);
        }
        w.header(
            "fedex_admission_wait_seconds",
            "histogram",
            "Queue wait before dispatch, per class.",
        );
        for (name, snap) in obs.admission_wait_snapshots() {
            w.histogram("fedex_admission_wait_seconds", &[("class", name)], &snap);
        }
        w.header(
            "fedex_service_time_seconds",
            "histogram",
            "Execution time after dispatch, per class.",
        );
        for (name, snap) in obs.service_time_snapshots() {
            w.histogram("fedex_service_time_seconds", &[("class", name)], &snap);
        }
        w.header(
            "fedex_stage_duration_seconds",
            "histogram",
            "Pipeline stage wall time, per stage.",
        );
        for (name, snap) in obs.stage_snapshots() {
            w.histogram("fedex_stage_duration_seconds", &[("stage", name)], &snap);
        }
        counter(
            &mut w,
            "fedex_flight_recorder_events_total",
            "Flight-recorder events ever recorded.",
            obs.recorder().recorded(),
        );
        gauge(
            &mut w,
            "fedex_flight_recorder_capacity",
            "Flight-recorder ring capacity.",
            obs.recorder().capacity() as u64,
        );
        w.finish()
    }

    fn history(&self, session: &str) -> Json {
        let entries = self.manager.history_with(session, |entries| {
            entries
                .iter()
                .map(|e| {
                    obj([
                        ("sql", s(e.sql.clone())),
                        ("saved_as", e.saved_as.clone().map_or(Json::Null, Json::Str)),
                        ("n_explanations", n(e.n_explanations as f64)),
                        ("n_rows_out", n(e.n_rows_out as f64)),
                    ])
                })
                .collect::<Vec<_>>()
        });
        ok(vec![
            ("session", s(session)),
            ("entries", Json::Arr(entries)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn register_req() -> Json {
        json::parse(
            r#"{"cmd":"register","session":"s1","table":"songs","columns":[
                {"name":"popularity","type":"int","values":[80,20,75,10,90,15,85,25]},
                {"name":"decade","type":"str","values":["2010s","1970s","2010s","1970s","2010s","1980s","2010s","1970s"]}
            ]}"#,
        )
        .unwrap()
    }

    #[test]
    fn ping_and_unknown() {
        let svc = ExplainService::default();
        let r = svc.dispatch(&json::parse(r#"{"cmd":"ping"}"#).unwrap());
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        let r = svc.dispatch(&json::parse(r#"{"cmd":"frobnicate"}"#).unwrap());
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(svc.metrics().errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn register_then_explain_roundtrip() {
        let svc = ExplainService::default();
        let r = svc.dispatch(&register_req());
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        assert_eq!(r.get("rows").and_then(Json::as_f64), Some(8.0));
        assert_eq!(
            r.get("fingerprint").and_then(Json::as_str).map(str::len),
            Some(32)
        );

        let req = json::parse(
            r#"{"cmd":"explain","session":"s1","sql":"SELECT * FROM songs WHERE popularity > 65"}"#,
        )
        .unwrap();
        // `explanations` is pre-serialized in the reply; read it as a
        // client would, from the wire form.
        let r = json::parse(&svc.dispatch(&req).encode()).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        assert_eq!(r.get("n_rows_out").and_then(Json::as_f64), Some(4.0));
        assert!(!r.get("explanations").unwrap().as_arr().unwrap().is_empty());
        assert!(r
            .get("rendered")
            .and_then(Json::as_str)
            .unwrap()
            .contains("Explanation 1"));
        // Second, identical request: the cache reports hits.
        let r2 = svc.dispatch(&req);
        let hits = r2
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(hits > 0.0, "warm request must report cache hits");

        let h = svc.dispatch(&json::parse(r#"{"cmd":"history","session":"s1"}"#).unwrap());
        assert_eq!(h.get("entries").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn the_results_stage_has_a_stage_histogram() {
        assert!(fedex_obs::STAGES.contains(&fedex_core::RESULTS_STAGE));
    }

    #[test]
    fn explain_errors_are_responses() {
        let svc = ExplainService::default();
        let r = svc.dispatch(
            &json::parse(r#"{"cmd":"explain","session":"s1","sql":"SELEKT nope"}"#).unwrap(),
        );
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert!(r.get("error").and_then(Json::as_str).is_some());
    }

    #[test]
    fn failed_explains_create_no_session() {
        let svc = ExplainService::default();
        for name in ["ghost1", "ghost2", "ghost3"] {
            let r = svc.dispatch(
                &json::parse(&format!(
                    r#"{{"cmd":"explain","session":"{name}","sql":"SELECT * FROM nope WHERE x > 1"}}"#
                ))
                .unwrap(),
            );
            assert_eq!(
                r.get("code").and_then(Json::as_str),
                Some("explain_failed"),
                "{r:?}"
            );
        }
        let r = svc.dispatch(&json::parse(r#"{"cmd":"sessions"}"#).unwrap());
        assert_eq!(r.get("sessions"), Some(&Json::Arr(Vec::new())), "{r:?}");
    }

    #[test]
    fn register_demo_and_metrics() {
        let svc = ExplainService::default();
        let r = svc.dispatch(
            &json::parse(r#"{"cmd":"register_demo","session":"d","rows":500,"seed":7}"#).unwrap(),
        );
        assert_eq!(r.get("rows").and_then(Json::as_f64), Some(500.0));
        let m = svc.dispatch(&json::parse(r#"{"cmd":"metrics"}"#).unwrap());
        assert_eq!(
            m.get("server")
                .and_then(|x| x.get("registers"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert!(m.get("cache").and_then(|c| c.get("budget")).is_some());
        let sessions = m.get("sessions").unwrap();
        assert_eq!(sessions.get("sessions").and_then(Json::as_f64), Some(1.0));
        assert!(sessions.get("bytes").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(
            sessions.get("budget").and_then(Json::as_f64),
            Some(fedex_core::SESSION_BUDGET as f64)
        );
    }

    #[test]
    fn register_demo_datasets_join_consistently() {
        let svc = ExplainService::default();
        for line in [
            r#"{"cmd":"register_demo","session":"w","dataset":"products","rows":150,"seed":9}"#,
            r#"{"cmd":"register_demo","session":"w","dataset":"sales","rows":2000,"product_rows":150,"seed":9}"#,
            r#"{"cmd":"register_demo","session":"w","dataset":"bank","table":"Bank","rows":400,"seed":9}"#,
        ] {
            let r = svc.dispatch(&json::parse(line).unwrap());
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{line}: {r:?}");
        }
        // The regenerated parent means the join is non-empty.
        let r = svc.dispatch(&json::parse(
            r#"{"cmd":"explain","session":"w","sql":"SELECT * FROM products INNER JOIN sales ON products.item = sales.item"}"#,
        ).unwrap());
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        assert!(r.get("n_rows_out").and_then(Json::as_f64).unwrap() > 0.0);
        // Unknown datasets are a typed refusal, not a panic.
        let r = svc.dispatch(
            &json::parse(r#"{"cmd":"register_demo","session":"w","dataset":"wat"}"#).unwrap(),
        );
        assert_eq!(r.get("code").and_then(Json::as_str), Some("bad_request"));
    }

    #[test]
    fn bad_column_uploads_are_rejected() {
        let svc = ExplainService::default();
        for bad in [
            r#"{"cmd":"register","table":"t","columns":[{"name":"x","type":"int","values":[1.5]}]}"#,
            r#"{"cmd":"register","table":"t","columns":[{"name":"x","type":"wat","values":[]}]}"#,
            r#"{"cmd":"register","table":"t","columns":[{"name":"x","type":"int","values":[1]},{"name":"y","type":"int","values":[1,2]}]}"#,
            r#"{"cmd":"register","table":"t"}"#,
        ] {
            let r = svc.dispatch(&json::parse(bad).unwrap());
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{bad}");
        }
    }

    #[test]
    fn width_is_bounded() {
        let svc = ExplainService::default();
        svc.dispatch(&register_req());
        let explain = |width: &str| {
            svc.dispatch(
                &json::parse(&format!(
                    r#"{{"cmd":"explain","session":"s1","sql":"SELECT * FROM songs WHERE popularity > 65","width":{width}}}"#
                ))
                .unwrap(),
            )
        };
        let r = explain(&MAX_WIDTH.to_string());
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        for bad in [
            (MAX_WIDTH + 1).to_string(),
            "100000000000".into(),
            "1e300".into(),
            "-1".into(),
            "\"wide\"".into(),
        ] {
            let r = explain(&bad);
            assert_eq!(
                r.get("code").and_then(Json::as_str),
                Some("bad_request"),
                "width {bad}"
            );
        }
    }

    #[test]
    fn dispatch_line_survives_garbage() {
        let svc = ExplainService::default();
        let out = svc.dispatch_line("{not json");
        assert!(out.contains("\"ok\":false"));
        let out = svc.dispatch_line(r#"{"cmd":"ping"}"#);
        assert!(out.contains("\"pong\":true"));
    }

    #[test]
    fn shutdown_sets_flag() {
        let svc = ExplainService::default();
        assert!(!svc.shutdown_requested());
        svc.dispatch(&json::parse(r#"{"cmd":"shutdown"}"#).unwrap());
        assert!(svc.shutdown_requested());
    }

    #[test]
    fn save_as_chains_in_session() {
        let svc = ExplainService::default();
        svc.dispatch(&register_req());
        let r = svc.dispatch(&json::parse(
            r#"{"cmd":"explain","session":"s1","sql":"SELECT * FROM songs WHERE popularity > 65","save_as":"popular"}"#,
        ).unwrap());
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        let r = svc.dispatch(&json::parse(
            r#"{"cmd":"explain","session":"s1","sql":"SELECT * FROM popular WHERE popularity > 80"}"#,
        ).unwrap());
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
    }
}
