//! Admission scheduling: classify, enqueue, bound.
//!
//! PR 4's server handed each accepted connection to a fixed worker pool —
//! a request then occupied its worker for the whole explain, so four long
//! explains pinned all four workers and a fifth client's `ping` waited
//! seconds for a slot. The [`Scheduler`] decouples *connections* from
//! *work*:
//!
//! 1. every parsed request is **classified** — cheap control commands
//!    (`ping`, `metrics`, `history`, `sessions`, `shutdown`, anything
//!    O(1) over session state) versus **heavy** work (`explain`,
//!    `register`, `register_demo`: O(rows) scans, encodes, pipeline
//!    runs);
//! 2. each class goes into its own bounded FIFO inside one priority
//!    scheduler: a **dedicated control worker** only ever serves the
//!    control queue (so control latency is bounded by the cheap commands
//!    ahead of it, never by an explain), and the `workers` general
//!    workers drain control work first, then heavy work;
//! 3. admission is **bounded**, not best-effort: a full heavy queue is
//!    answered immediately with the typed wire error `overloaded`
//!    (HTTP clients see the same JSON body), and a session with
//!    `session_quota` heavy requests already queued or running gets
//!    `quota_exceeded` — backpressure is explicit, queueing is never
//!    unbounded;
//! 4. every admitted request is **its own job** with exactly one waiter:
//!    it runs under its own deadline token, charges its own quota slot
//!    and records its own history entry. Identical requests share work
//!    only through the artifact cache (frames, kernels, partitions,
//!    results), never by sharing another request's run.
//!
//! Connection I/O threads block on their job's completion, so the wire
//! contract is unchanged: one response line per request line, in order,
//! per connection.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fedex_core::{CancelToken, ExplainError};

use crate::json::{self, Json};
use crate::service::{ExplainService, JobContext};

/// Upper bound of the control queue. Control commands execute in
/// microseconds, so a backlog this deep signals a client flood, not a slow
/// server; beyond it the scheduler answers `overloaded` rather than queue
/// without bound.
const CONTROL_QUEUE_DEPTH: usize = 1024;

/// How long a waiter sleeps between checks of the shutdown flag. The same
/// tick the connection reader uses — a graceful stop is observed within
/// one tick by every blocked thread.
const SHUTDOWN_TICK: Duration = Duration::from_millis(100);

/// The two admission classes of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Cheap, O(1)-over-session-state commands; served from the
    /// prioritized control queue, never starved behind explains.
    Control,
    /// O(rows) work: `explain`, `register`, `register_demo`. Bounded
    /// queue, per-session quotas.
    Heavy,
}

/// Classify a wire command (see the module docs for the rationale).
pub fn classify(cmd: &str) -> RequestClass {
    match cmd {
        "explain" | "register" | "register_demo" => RequestClass::Heavy,
        _ => RequestClass::Control,
    }
}

/// Admission knobs, carried by
/// [`ServerConfig`](crate::server::ServerConfig).
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Bound of the heavy queue (queued, not running). A full queue
    /// answers `overloaded`.
    pub queue_depth: usize,
    /// Max heavy requests one session may have queued + running; the next
    /// one is answered `quota_exceeded`.
    pub session_quota: usize,
    /// Deadline budget stamped on requests that don't carry their own
    /// `deadline_ms` field. `0` means no default deadline.
    pub default_deadline_ms: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            queue_depth: 64,
            session_quota: 2,
            default_deadline_ms: 300_000,
        }
    }
}

/// Scheduler counters, exported under `"scheduler"` by the `metrics`
/// command. Counter fields are lifetime totals; `*_now` fields are
/// point-in-time gauges.
#[derive(Debug, Default)]
pub struct SchedMetrics {
    /// Control requests admitted to the control queue.
    pub admitted_control: AtomicU64,
    /// Heavy requests admitted to the heavy queue.
    pub admitted_heavy: AtomicU64,
    /// Requests answered `overloaded` (full queue).
    pub rejected_overloaded: AtomicU64,
    /// Requests answered `quota_exceeded`.
    pub rejected_quota: AtomicU64,
    /// Jobs fully served (response delivered).
    pub completed: AtomicU64,
    /// Heavy jobs whose deadline expired (or whose waiter left) before
    /// a worker picked them up — answered typed, never dispatched.
    pub expired: AtomicU64,
    /// Waiters that stopped waiting (deadline or disconnect) before their
    /// job's response was published.
    pub detached: AtomicU64,
    /// Control jobs queued right now.
    pub queued_control_now: AtomicU64,
    /// Heavy jobs queued right now.
    pub queued_heavy_now: AtomicU64,
    /// Heavy jobs running right now.
    pub running_heavy_now: AtomicU64,
}

/// One coherent reading of [`SchedMetrics`], shared by the JSON `metrics`
/// command, the Prometheus exposition, and the chaos harness's
/// conservation check.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedSnapshot {
    /// Control requests admitted.
    pub admitted_control: u64,
    /// Heavy requests admitted.
    pub admitted_heavy: u64,
    /// `overloaded` rejections.
    pub rejected_overloaded: u64,
    /// `quota_exceeded` rejections.
    pub rejected_quota: u64,
    /// Jobs fully served.
    pub completed: u64,
    /// Jobs expired before dispatch.
    pub expired: u64,
    /// Waiters that left early.
    pub detached: u64,
    /// Control jobs queued right now.
    pub queued_control_now: u64,
    /// Heavy jobs queued right now.
    pub queued_heavy_now: u64,
    /// Heavy jobs running right now.
    pub running_heavy_now: u64,
}

impl SchedMetrics {
    /// Read every counter into one coherent snapshot. Every "effect"
    /// counter (a completion, an expiry) is incremented *after* its
    /// "cause" (the admission), so loading effects first — with `SeqCst`
    /// to pin the load order — guarantees the snapshot never shows
    /// `completed + expired > admitted`, which independent relaxed reads
    /// could.
    pub fn snapshot(&self) -> SchedSnapshot {
        let completed = self.completed.load(Ordering::SeqCst);
        let expired = self.expired.load(Ordering::SeqCst);
        let detached = self.detached.load(Ordering::SeqCst);
        let rejected_overloaded = self.rejected_overloaded.load(Ordering::SeqCst);
        let rejected_quota = self.rejected_quota.load(Ordering::SeqCst);
        let admitted_control = self.admitted_control.load(Ordering::SeqCst);
        let admitted_heavy = self.admitted_heavy.load(Ordering::SeqCst);
        SchedSnapshot {
            admitted_control,
            admitted_heavy,
            rejected_overloaded,
            rejected_quota,
            completed,
            expired,
            detached,
            queued_control_now: self.queued_control_now.load(Ordering::Relaxed),
            queued_heavy_now: self.queued_heavy_now.load(Ordering::Relaxed),
            running_heavy_now: self.running_heavy_now.load(Ordering::Relaxed),
        }
    }

    /// Snapshot as the JSON object embedded in `metrics` responses.
    pub fn to_json(&self) -> Json {
        let m = self.snapshot();
        let n = |v: u64| json::n(v as f64);
        json::obj([
            ("admitted_control", n(m.admitted_control)),
            ("admitted_heavy", n(m.admitted_heavy)),
            ("rejected_overloaded", n(m.rejected_overloaded)),
            ("rejected_quota", n(m.rejected_quota)),
            ("completed", n(m.completed)),
            ("expired", n(m.expired)),
            ("detached", n(m.detached)),
            ("queued_control", n(m.queued_control_now)),
            ("queued_heavy", n(m.queued_heavy_now)),
            ("running_heavy", n(m.running_heavy_now)),
        ])
    }
}

/// Completion slot shared by a job and the one client waiting on it.
struct JobState {
    response: Mutex<Option<String>>,
    done: Condvar,
    /// Cooperative cancellation shared with the pipeline run: carries the
    /// request's deadline, and is tripped when its waiter leaves.
    cancel: CancelToken,
}

impl JobState {
    fn new(cancel: CancelToken) -> Arc<JobState> {
        Arc::new(JobState {
            response: Mutex::new(None),
            done: Condvar::new(),
            cancel,
        })
    }

    fn complete(&self, response: String) {
        *self.response.lock().expect("job state") = Some(response);
        self.done.notify_all();
    }
}

/// One admitted unit of work.
struct Job {
    req: Json,
    class: RequestClass,
    /// Session the job charges its quota to (heavy only).
    session: Option<String>,
    /// Trace id minted at admission (0 when observability is off).
    trace_id: u64,
    /// When the job entered its queue — the admission-wait clock.
    enqueued: Instant,
    state: Arc<JobState>,
}

#[derive(Default)]
struct SchedInner {
    control: VecDeque<Job>,
    heavy: VecDeque<Job>,
    /// Heavy jobs queued + running, per session — the quota denominator.
    per_session: HashMap<String, usize>,
}

/// The admission scheduler: bounded priority queues between connection
/// I/O threads and the worker pool. See the module docs for the model.
pub struct Scheduler {
    service: Arc<ExplainService>,
    inner: Mutex<SchedInner>,
    /// Workers wait here for admitted jobs.
    work: Condvar,
    config: SchedulerConfig,
    metrics: Arc<SchedMetrics>,
    /// Monotonic incident counter for panic responses — stable ids a
    /// client can quote and an operator can grep server logs for.
    incidents: AtomicU64,
}

impl Scheduler {
    /// A scheduler dispatching into `service`; its metrics are attached to
    /// the service so the `metrics` command reports them.
    pub fn new(service: Arc<ExplainService>, config: SchedulerConfig) -> Scheduler {
        let metrics = Arc::new(SchedMetrics::default());
        service.attach_scheduler_metrics(metrics.clone());
        Scheduler {
            service,
            inner: Mutex::new(SchedInner::default()),
            work: Condvar::new(),
            config,
            metrics,
            incidents: AtomicU64::new(0),
        }
    }

    /// Serve one raw request line end to end: parse, admit, wait for a
    /// worker to execute it, return the response line (without trailing
    /// newline). This is what connection threads call; it blocks the
    /// calling I/O thread, never a worker.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_hooked(line, None)
    }

    /// [`Scheduler::handle_line`] with a client-liveness probe: while the
    /// waiter blocks on its job, `is_alive` is polled once per tick, and
    /// a `false` detaches the waiter and cancels the job — a closed
    /// connection must not pin a queue slot or a pipeline run for a
    /// reader that will never arrive.
    pub fn handle_line_hooked(&self, line: &str, is_alive: Option<&dyn Fn() -> bool>) -> String {
        // Parse errors never reach the queues — answering them is cheaper
        // than admitting them.
        let Ok(req) = json::parse(line) else {
            return self.service.dispatch_line(line);
        };
        match self.submit(req) {
            Ok(state) => self.await_response(&state, is_alive),
            Err(rejection) => rejection,
        }
    }

    /// Admit a request: returns the completion slot to wait on, or the
    /// immediate (typed-error) response for rejected requests.
    fn submit(&self, req: Json) -> Result<Arc<JobState>, String> {
        let cmd = req.get("cmd").and_then(Json::as_str).unwrap_or("");
        let class = classify(cmd);
        let session = req
            .get("session")
            .and_then(Json::as_str)
            .unwrap_or("default")
            .to_string();
        // Deadline budget: per-request `deadline_ms` wins over the server
        // default; an explicit 0 (or any non-positive value) opts out.
        let deadline_ms = match req.get("deadline_ms").and_then(Json::as_f64) {
            Some(ms) if ms.is_finite() && ms > 0.0 => ms as u64,
            Some(_) => 0,
            None => self.config.default_deadline_ms,
        };
        let cancel = match deadline_ms {
            0 => CancelToken::new(),
            ms => CancelToken::with_deadline(Instant::now() + Duration::from_millis(ms)),
        };
        // Every request entering admission gets a trace id; rejections
        // and executed jobs both log flight events under it.
        let trace_id = self.service.obs().map_or(0, |o| o.mint_trace().id);

        let mut inner = self.inner.lock().expect("scheduler");
        // Checked under the queue lock: workers observe the flag under
        // this same lock before exiting, so a request admitted here is
        // guaranteed to still have live workers to drain it (see
        // `await_response`).
        if self.service.shutdown_requested() {
            return Err(self.reject_counted(
                "shutting_down",
                "server is shutting down",
                cmd,
                &session,
                trace_id,
            ));
        }
        match class {
            RequestClass::Control => {
                if inner.control.len() >= CONTROL_QUEUE_DEPTH {
                    self.metrics
                        .rejected_overloaded
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(self.reject_counted(
                        "overloaded",
                        format!("control queue full ({CONTROL_QUEUE_DEPTH} requests waiting)"),
                        cmd,
                        &session,
                        trace_id,
                    ));
                }
                if let Some(obs) = self.service.obs() {
                    obs.recorder()
                        .push(trace_id, "admit", cmd, &session, "control", "", 0);
                }
                let state = JobState::new(cancel);
                inner.control.push_back(Job {
                    req,
                    class,
                    session: None,
                    trace_id,
                    enqueued: Instant::now(),
                    state: state.clone(),
                });
                self.metrics
                    .admitted_control
                    .fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .queued_control_now
                    .fetch_add(1, Ordering::Relaxed);
                self.work.notify_all();
                Ok(state)
            }
            RequestClass::Heavy => {
                let in_session = inner.per_session.get(&session).copied().unwrap_or(0);
                if in_session >= self.config.session_quota {
                    self.metrics.rejected_quota.fetch_add(1, Ordering::Relaxed);
                    return Err(self.reject_counted(
                        "quota_exceeded",
                        format!(
                            "session {session:?} already has {in_session} heavy requests \
                             queued or running (quota {})",
                            self.config.session_quota
                        ),
                        cmd,
                        &session,
                        trace_id,
                    ));
                }
                if inner.heavy.len() >= self.config.queue_depth {
                    self.metrics
                        .rejected_overloaded
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(self.reject_counted(
                        "overloaded",
                        format!(
                            "explain queue full ({} requests waiting, depth {})",
                            inner.heavy.len(),
                            self.config.queue_depth
                        ),
                        cmd,
                        &session,
                        trace_id,
                    ));
                }
                if let Some(obs) = self.service.obs() {
                    obs.recorder()
                        .push(trace_id, "admit", cmd, &session, "heavy", "", 0);
                }
                let state = JobState::new(cancel);
                *inner.per_session.entry(session.clone()).or_insert(0) += 1;
                inner.heavy.push_back(Job {
                    req,
                    class,
                    session: Some(session),
                    trace_id,
                    enqueued: Instant::now(),
                    state: state.clone(),
                });
                self.metrics.admitted_heavy.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .queued_heavy_now
                    .fetch_add(1, Ordering::Relaxed);
                self.work.notify_all();
                Ok(state)
            }
        }
    }

    /// Block until the job completes, the deadline passes, or the client
    /// hangs up. Admission is the commitment point: workers drain both
    /// queues *before* exiting on shutdown, and `submit` observes the
    /// shutdown flag under the same lock workers do, so every admitted
    /// job is eventually executed — but a waiter doesn't have to stay for
    /// it. Deadline expiry and client death *detach* the waiter (counted,
    /// typed) and cancel the job's token, so the pipeline aborts at its
    /// next checkpoint. Detachment happens while holding the response
    /// lock, so it can never race a concurrent publish: either the
    /// response is already there (delivered), or the worker publishes
    /// after we left (discarded, job already cancelled).
    fn await_response(&self, state: &Arc<JobState>, is_alive: Option<&dyn Fn() -> bool>) -> String {
        let mut slot = state.response.lock().expect("job state");
        loop {
            if let Some(response) = slot.as_ref() {
                return response.clone();
            }
            if state.cancel.deadline_exceeded() {
                state.cancel.cancel();
                self.metrics.detached.fetch_add(1, Ordering::Relaxed);
                self.service
                    .metrics()
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
                return reject(
                    "deadline_exceeded",
                    "deadline budget exhausted while waiting for the explain",
                );
            }
            if let Some(alive) = is_alive {
                if !alive() {
                    state.cancel.cancel();
                    self.metrics.detached.fetch_add(1, Ordering::Relaxed);
                    self.service
                        .metrics()
                        .cancelled
                        .fetch_add(1, Ordering::Relaxed);
                    // The client is gone; this line is written to a dead
                    // socket (and dropped there), but the typed shape
                    // keeps the path uniform and testable.
                    return reject("cancelled", "client disconnected while waiting");
                }
            }
            // Tick granularity bounds how late a deadline fires: at most
            // one tick past the instant, even if the job never completes.
            let tick = match state.cancel.deadline() {
                Some(d) => d
                    .saturating_duration_since(Instant::now())
                    .min(SHUTDOWN_TICK)
                    .max(Duration::from_millis(1)),
                None => SHUTDOWN_TICK,
            };
            let (guard, _) = state.done.wait_timeout(slot, tick).expect("job state");
            slot = guard;
        }
    }

    /// Build a typed rejection and charge it to the wire-visible server
    /// counters — rejections never reach `ExplainService::dispatch`, so
    /// without this `server.errors` would sit at zero through an entire
    /// overload episode. The request is counted, so its command histogram
    /// records the (zero-duration) observation too — per-command counts
    /// must keep summing to `requests` — and the flight recorder logs the
    /// rejection under the request's trace id.
    fn reject_counted(
        &self,
        code: &'static str,
        message: impl Into<String>,
        cmd: &str,
        session: &str,
        trace_id: u64,
    ) -> String {
        let server = self.service.metrics();
        server.requests.fetch_add(1, Ordering::Relaxed);
        server.errors.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.service.obs() {
            obs.record_command(cmd, Duration::ZERO);
            obs.recorder()
                .push(trace_id, "reject", cmd, session, code, "", 0);
        }
        reject(code, message)
    }

    /// Worker loop. `control_only` is the dedicated control worker that
    /// guarantees cheap commands are served while every general worker is
    /// busy with explains. Returns on shutdown — but only after its
    /// queues are empty (the pops precede the flag check), which is what
    /// lets `await_response` rely on every admitted job completing.
    pub fn worker_loop(&self, control_only: bool) {
        loop {
            let job = {
                let mut inner = self.inner.lock().expect("scheduler");
                loop {
                    if let Some(job) = inner.control.pop_front() {
                        self.metrics
                            .queued_control_now
                            .fetch_sub(1, Ordering::Relaxed);
                        break Some(job);
                    }
                    if !control_only {
                        if let Some(job) = inner.heavy.pop_front() {
                            self.metrics
                                .queued_heavy_now
                                .fetch_sub(1, Ordering::Relaxed);
                            self.metrics
                                .running_heavy_now
                                .fetch_add(1, Ordering::Relaxed);
                            break Some(job);
                        }
                    }
                    if self.service.shutdown_requested() {
                        break None;
                    }
                    let (guard, _) = self
                        .work
                        .wait_timeout(inner, SHUTDOWN_TICK)
                        .expect("scheduler");
                    inner = guard;
                }
            };
            let Some(job) = job else { return };
            self.execute(job);
        }
    }

    /// Run one admitted job and publish its response to its waiter.
    ///
    /// Heavy jobs run under three layers of protection: already-expired
    /// or abandoned jobs are answered typed without burning a worker;
    /// live jobs carry their cancel token into the pipeline; and the
    /// whole dispatch runs under `catch_unwind`, so a panicking explain
    /// yields a typed `internal_error` (with a stable incident id)
    /// instead of killing the worker and leaking its queue slot. Control
    /// jobs always execute — they're cheap, and `shutdown` must never be
    /// skipped.
    fn execute(&self, job: Job) {
        let cmd = job.req.get("cmd").and_then(Json::as_str).unwrap_or("other");
        let session = job.session.as_deref().unwrap_or("");
        let heavy = job.class == RequestClass::Heavy;
        let wait = job.enqueued.elapsed();
        if let Some(obs) = self.service.obs() {
            obs.record_admission_wait(heavy, wait);
        }
        let expired = heavy.then(|| job.state.cancel.check().err()).flatten();
        let response = match expired {
            Some(e) => {
                self.metrics.expired.fetch_add(1, Ordering::Relaxed);
                let server = self.service.metrics();
                server.requests.fetch_add(1, Ordering::Relaxed);
                server.errors.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = self.service.obs() {
                    // Counted as a request without reaching dispatch, so
                    // the command histogram observation lands here.
                    obs.record_command(cmd, Duration::ZERO);
                    obs.recorder().push(
                        job.trace_id,
                        "expired",
                        cmd,
                        session,
                        "",
                        "",
                        wait.as_micros() as u64,
                    );
                }
                match e {
                    ExplainError::Cancelled => {
                        server.cancelled.fetch_add(1, Ordering::Relaxed);
                        reject("cancelled", "explain cancelled: every waiter detached")
                    }
                    _ => {
                        server.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        reject(
                            "deadline_exceeded",
                            "deadline budget exhausted before a worker was free",
                        )
                    }
                }
            }
            None => {
                let jctx = JobContext {
                    cancel: heavy.then(|| job.state.cancel.clone()),
                    trace_id: (job.trace_id != 0).then_some(job.trace_id),
                    queue_wait_micros: Some(wait.as_micros() as u64),
                };
                if let Some(obs) = self.service.obs() {
                    obs.recorder()
                        .push(job.trace_id, "dispatch", cmd, session, "", "", 0);
                }
                let t0 = Instant::now();
                let run = catch_unwind(AssertUnwindSafe(|| {
                    self.service.dispatch_job(&job.req, &jctx).encode()
                }));
                let served = t0.elapsed();
                if let Some(obs) = self.service.obs() {
                    obs.record_service_time(heavy, served);
                }
                match run {
                    Ok(response) => {
                        if let Some(obs) = self.service.obs() {
                            obs.recorder().push(
                                job.trace_id,
                                "finish",
                                cmd,
                                session,
                                "",
                                "",
                                served.as_micros() as u64,
                            );
                        }
                        response
                    }
                    Err(_) => {
                        let incident =
                            format!("inc-{:08x}", self.incidents.fetch_add(1, Ordering::Relaxed));
                        let server = self.service.metrics();
                        // `dispatch_job` counted the request before the
                        // panic; only the error needs charging here —
                        // plus the command histogram observation the
                        // unwind skipped.
                        server.panics.fetch_add(1, Ordering::Relaxed);
                        server.errors.fetch_add(1, Ordering::Relaxed);
                        if let Some(obs) = self.service.obs() {
                            obs.record_command(cmd, served);
                            obs.recorder().push(
                                job.trace_id,
                                "error",
                                cmd,
                                session,
                                "panic",
                                &incident,
                                served.as_micros() as u64,
                            );
                        }
                        eprintln!(
                            "fedex-serve: worker caught a panic serving {:?} (incident {incident})",
                            job.req.get("cmd").and_then(Json::as_str).unwrap_or("?"),
                        );
                        json::obj([
                            ("ok", Json::Bool(false)),
                            ("code", json::s("internal_error")),
                            (
                                "error",
                                json::s(format!(
                                    "request panicked; server state recovered (incident {incident})"
                                )),
                            ),
                            ("incident", json::s(incident)),
                        ])
                        .to_string()
                    }
                }
            }
        };
        job.state.complete(response);
        if job.class == RequestClass::Heavy {
            let mut inner = self.inner.lock().expect("scheduler");
            if let Some(session) = &job.session {
                if let Some(n) = inner.per_session.get_mut(session) {
                    *n -= 1;
                    if *n == 0 {
                        inner.per_session.remove(session);
                    }
                }
            }
            self.metrics
                .running_heavy_now
                .fetch_sub(1, Ordering::Relaxed);
        }
        self.metrics.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A typed rejection: `{"ok":false,"code":…,"error":…}` as one line.
fn reject(code: &str, message: impl Into<String>) -> String {
    json::obj([
        ("ok", Json::Bool(false)),
        ("code", json::s(code)),
        ("error", json::s(message.into())),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        for cmd in ["explain", "register", "register_demo"] {
            assert_eq!(classify(cmd), RequestClass::Heavy, "{cmd}");
        }
        for cmd in ["ping", "metrics", "history", "sessions", "shutdown", "wat"] {
            assert_eq!(classify(cmd), RequestClass::Control, "{cmd}");
        }
    }

    #[test]
    fn snapshots_never_tear_under_concurrent_updates() {
        // Writers increment the cause (`admitted_*`) strictly before the
        // effect (`completed`); a coherent snapshot must therefore never
        // show `completed > admitted_control + admitted_heavy`, no matter
        // when it lands relative to the writers.
        let m = Arc::new(SchedMetrics::default());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|i| {
                let m = m.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        if i == 0 {
                            m.admitted_control.fetch_add(1, Ordering::Relaxed);
                        } else {
                            m.admitted_heavy.fetch_add(1, Ordering::Relaxed);
                        }
                        m.completed.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for _ in 0..20_000 {
            let s = m.snapshot();
            assert!(
                s.completed <= s.admitted_control + s.admitted_heavy,
                "torn snapshot: completed {} > admitted {}",
                s.completed,
                s.admitted_control + s.admitted_heavy
            );
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
}
