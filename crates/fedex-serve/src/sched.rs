//! Admission scheduling: heavy work queues, everything else answers
//! inline.
//!
//! Every connection has its own I/O thread (see [`crate::server`]), and
//! [`Scheduler::handle_line_hooked`] parses each of its request lines
//! once and takes one of two routes:
//!
//! 1. a command that is not **heavy** (`ping`, `metrics`, `history`,
//!    `sessions`, `debug_dump`, `shutdown`, anything unknown) is
//!    dispatched right there, on the connection thread that read it. It
//!    takes no queue slot and carries no deadline; `max_connections`
//!    bounds how many run at once, with at most one in flight per
//!    connection. So no control command waits behind another request:
//!    `history` waits only for its own session's running step, which
//!    that step's own deadline bounds;
//! 2. a **heavy** command (`explain`, `register`, `register_demo`:
//!    O(rows) scans, encodes, pipeline runs) is admitted into one bounded
//!    FIFO that the `workers` scheduler workers drain. Admission is
//!    bounded, not best-effort: a full queue is answered immediately
//!    with the typed wire error `overloaded` (HTTP clients see the same
//!    JSON body), and a session with `session_quota` heavy requests
//!    already queued or running gets `quota_exceeded`;
//! 3. every admitted request is **its own job** with exactly one waiter:
//!    it runs under its own deadline token, charges its own quota slot
//!    and records its own history entry. Identical requests share work
//!    only through the artifact cache (frames, partitions, results),
//!    never by sharing another request's run.
//!
//! Both routes contain a panic the same way: the request is answered
//! with a typed `internal_error` carrying an incident id, and neither a
//! worker nor a connection thread unwinds.
//!
//! A connection thread blocks on its job's completion, so the wire
//! contract holds: one response line per request line, in order, per
//! connection.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fedex_core::{CancelToken, ExplainError};

use crate::json::{self, Json};
use crate::service::{ExplainService, JobContext};

/// How long a waiter sleeps between checks of the shutdown flag. The same
/// tick the connection reader and the acceptor's waker use — a graceful
/// stop is observed within one tick by every blocked thread.
pub(crate) const SHUTDOWN_TICK: Duration = Duration::from_millis(100);

/// Is `cmd` heavy work, which the scheduler admits, queues and runs on a
/// worker? Every other command is answered on its connection thread.
fn is_heavy(cmd: &str) -> bool {
    matches!(cmd, "explain" | "register" | "register_demo")
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
/// point-in-time gauges. Only heavy requests are admitted, so every
/// field counts heavy work.
#[derive(Debug, Default)]
pub struct SchedMetrics {
    /// Heavy requests admitted to the queue.
    pub admitted_heavy: AtomicU64,
    /// Requests answered `overloaded` (full queue).
    pub rejected_overloaded: AtomicU64,
    /// Requests answered `quota_exceeded`.
    pub rejected_quota: AtomicU64,
    /// Jobs fully served (response delivered).
    pub completed: AtomicU64,
    /// Jobs whose deadline expired (or whose waiter left) before a
    /// worker picked them up — answered typed, never dispatched.
    pub expired: AtomicU64,
    /// Waiters that stopped waiting (deadline or disconnect) before their
    /// job's response was published.
    pub detached: AtomicU64,
    /// Heavy jobs queued right now.
    pub queued_heavy_now: AtomicU64,
    /// Heavy jobs running right now.
    pub running_heavy_now: AtomicU64,
}

/// One coherent reading of [`SchedMetrics`], shared by the JSON `metrics`
/// command, the Prometheus exposition, and the workload replay gate's
/// conservation check.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedSnapshot {
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
    /// Heavy jobs queued right now.
    pub queued_heavy_now: u64,
    /// Heavy jobs running right now.
    pub running_heavy_now: u64,
}

impl SchedMetrics {
    /// Read every counter into one coherent snapshot. A job moves through
    /// `admitted_heavy`, `queued_heavy_now` up, `running_heavy_now` up,
    /// `queued_heavy_now` down, `completed`, `running_heavy_now` down, in
    /// that order and all `SeqCst`. Loading in the reverse order — the
    /// gauges, then the effect counters, then the admissions — means a
    /// snapshot never shows `completed > admitted`, and one whose gauges
    /// read zero after admissions stopped counts every admitted job as
    /// completed.
    pub fn snapshot(&self) -> SchedSnapshot {
        let queued_heavy_now = self.queued_heavy_now.load(Ordering::SeqCst);
        let running_heavy_now = self.running_heavy_now.load(Ordering::SeqCst);
        let completed = self.completed.load(Ordering::SeqCst);
        let expired = self.expired.load(Ordering::SeqCst);
        let detached = self.detached.load(Ordering::SeqCst);
        let rejected_overloaded = self.rejected_overloaded.load(Ordering::SeqCst);
        let rejected_quota = self.rejected_quota.load(Ordering::SeqCst);
        let admitted_heavy = self.admitted_heavy.load(Ordering::SeqCst);
        SchedSnapshot {
            admitted_heavy,
            rejected_overloaded,
            rejected_quota,
            completed,
            expired,
            detached,
            queued_heavy_now,
            running_heavy_now,
        }
    }

    /// Snapshot as the JSON object embedded in `metrics` responses.
    pub fn to_json(&self) -> Json {
        let m = self.snapshot();
        let n = |v: u64| json::n(v as f64);
        json::obj([
            ("admitted_heavy", n(m.admitted_heavy)),
            ("rejected_overloaded", n(m.rejected_overloaded)),
            ("rejected_quota", n(m.rejected_quota)),
            ("completed", n(m.completed)),
            ("expired", n(m.expired)),
            ("detached", n(m.detached)),
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
    /// Session the job charges its quota to.
    session: String,
    /// Trace id minted at admission.
    trace_id: u64,
    /// When the job entered the queue — the admission-wait clock.
    enqueued: Instant,
    state: Arc<JobState>,
}

#[derive(Default)]
struct SchedInner {
    queue: VecDeque<Job>,
    /// Heavy jobs queued + running, per session — the quota denominator.
    per_session: HashMap<String, usize>,
}

/// The admission scheduler: a bounded queue between connection I/O
/// threads and the worker pool. See the module docs for the model.
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

    /// Serve one raw request line end to end and return the response
    /// line (without trailing newline). This is what connection threads
    /// call: it answers an inline command itself, and blocks the calling
    /// thread, never a worker, while a heavy job runs.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_hooked(line, None)
    }

    /// [`Scheduler::handle_line`] with a client-liveness probe: while the
    /// waiter blocks on a heavy job, `is_alive` is polled once per tick,
    /// and a `false` detaches the waiter and cancels the job — a closed
    /// connection must not pin a queue slot or a pipeline run for a
    /// reader that will never arrive.
    pub fn handle_line_hooked(&self, line: &str, is_alive: Option<&dyn Fn() -> bool>) -> String {
        let Ok(req) = json::parse(line) else {
            return self.service.dispatch_line(line);
        };
        if !is_heavy(req.get("cmd").and_then(Json::as_str).unwrap_or("")) {
            let (Ok(response) | Err(response)) =
                self.dispatch_isolated(&req, &JobContext::default()).0;
            return response;
        }
        match self.submit(req) {
            Ok(state) => self.await_response(&state, is_alive),
            Err(rejection) => rejection,
        }
    }

    /// Admit a heavy request: returns the completion slot to wait on, or
    /// the immediate (typed-error) response for rejected requests.
    fn submit(&self, req: Json) -> Result<Arc<JobState>, String> {
        let cmd = req.get("cmd").and_then(Json::as_str).unwrap_or("");
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
        let obs = self.service.obs();
        let trace_id = obs.mint_trace().id;

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
        if inner.queue.len() >= self.config.queue_depth {
            self.metrics
                .rejected_overloaded
                .fetch_add(1, Ordering::Relaxed);
            return Err(self.reject_counted(
                "overloaded",
                format!(
                    "explain queue full ({} requests waiting, depth {})",
                    inner.queue.len(),
                    self.config.queue_depth
                ),
                cmd,
                &session,
                trace_id,
            ));
        }
        obs.recorder()
            .push(trace_id, "admit", cmd, &session, "heavy", "", 0);
        let state = JobState::new(cancel);
        *inner.per_session.entry(session.clone()).or_insert(0) += 1;
        inner.queue.push_back(Job {
            req,
            session,
            trace_id,
            enqueued: Instant::now(),
            state: state.clone(),
        });
        self.metrics.admitted_heavy.fetch_add(1, Ordering::SeqCst);
        self.metrics.queued_heavy_now.fetch_add(1, Ordering::SeqCst);
        self.work.notify_all();
        Ok(state)
    }

    /// Block until the job completes, the deadline passes, or the client
    /// hangs up. Admission is the commitment point: workers drain the
    /// queue *before* exiting on shutdown, and `submit` observes the
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
        let obs = self.service.obs();
        obs.record_command(cmd, Duration::ZERO);
        obs.recorder()
            .push(trace_id, "reject", cmd, session, code, "", 0);
        reject(code, message)
    }

    /// Worker loop. Returns on shutdown — but only after the queue is
    /// empty (the pop precedes the flag check), which is what lets
    /// `await_response` rely on every admitted job completing.
    pub fn worker_loop(&self) {
        loop {
            let job = {
                let mut inner = self.inner.lock().expect("scheduler");
                loop {
                    if let Some(job) = inner.queue.pop_front() {
                        // Running before no longer queued, so a snapshot
                        // never sees the job in neither gauge.
                        self.metrics
                            .running_heavy_now
                            .fetch_add(1, Ordering::SeqCst);
                        self.metrics.queued_heavy_now.fetch_sub(1, Ordering::SeqCst);
                        break Some(job);
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
    /// A job runs under three layers of protection: one already expired
    /// or abandoned is answered typed without burning a worker; a live
    /// one carries its cancel token into the pipeline; and the dispatch
    /// runs under [`Scheduler::dispatch_isolated`], so a panicking
    /// explain yields a typed `internal_error` instead of killing the
    /// worker and leaking its queue slot.
    fn execute(&self, job: Job) {
        let cmd = job.req.get("cmd").and_then(Json::as_str).unwrap_or("other");
        let session = job.session.as_str();
        let wait = job.enqueued.elapsed();
        let obs = self.service.obs();
        obs.record_admission_wait(wait);
        let response = match job.state.cancel.check() {
            Err(e) => {
                self.metrics.expired.fetch_add(1, Ordering::Relaxed);
                let server = self.service.metrics();
                server.requests.fetch_add(1, Ordering::Relaxed);
                server.errors.fetch_add(1, Ordering::Relaxed);
                // Counted as a request without reaching dispatch, so the
                // command histogram observation lands here.
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
            Ok(()) => {
                let jctx = JobContext {
                    cancel: Some(job.state.cancel.clone()),
                    trace_id: Some(job.trace_id),
                    queue_wait_micros: Some(wait.as_micros() as u64),
                };
                obs.recorder()
                    .push(job.trace_id, "dispatch", cmd, session, "", "", 0);
                let (run, served) = self.dispatch_isolated(&job.req, &jctx);
                obs.record_service_time(served);
                if run.is_ok() {
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
                let (Ok(response) | Err(response)) = run;
                response
            }
        };
        job.state.complete(response);
        {
            let mut inner = self.inner.lock().expect("scheduler");
            if let Some(n) = inner.per_session.get_mut(session) {
                *n -= 1;
                if *n == 0 {
                    inner.per_session.remove(session);
                }
            }
        }
        // Completed before no longer running: see `SchedMetrics::snapshot`.
        self.metrics.completed.fetch_add(1, Ordering::SeqCst);
        self.metrics
            .running_heavy_now
            .fetch_sub(1, Ordering::SeqCst);
    }

    /// Dispatch `req` and encode the reply, containing a panic: the
    /// caller gets `Err` with a typed `internal_error` reply carrying a
    /// stable incident id instead of an unwind. Both routes of
    /// [`Scheduler::handle_line_hooked`] come through here, so a panic
    /// unwinds neither a worker nor a connection thread (a panicked
    /// scoped thread would make `Server::run` panic again when its
    /// scope joins). Also returns how long the dispatch took.
    fn dispatch_isolated(
        &self,
        req: &Json,
        jctx: &JobContext,
    ) -> (Result<String, String>, Duration) {
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.service.dispatch_job(req, jctx).encode()
        }));
        let served = t0.elapsed();
        let run = run.map_err(|_| self.contain_panic(req, jctx.trace_id.unwrap_or(0), served));
        (run, served)
    }

    /// The panic arm of [`Scheduler::dispatch_isolated`]: mint the
    /// incident id, charge the `panics` and `errors` counters and the
    /// command histogram, log the recorder's `error` event, and build the
    /// typed `internal_error` reply.
    fn contain_panic(&self, req: &Json, trace_id: u64, served: Duration) -> String {
        let cmd = req.get("cmd").and_then(Json::as_str).unwrap_or("other");
        let session = req
            .get("session")
            .and_then(Json::as_str)
            .unwrap_or("default");
        let incident = format!("inc-{:08x}", self.incidents.fetch_add(1, Ordering::Relaxed));
        let server = self.service.metrics();
        // `dispatch_job` counted the request before the panic; only the
        // error needs charging here — plus the command histogram
        // observation the unwind skipped.
        server.panics.fetch_add(1, Ordering::Relaxed);
        server.errors.fetch_add(1, Ordering::Relaxed);
        let obs = self.service.obs();
        obs.record_command(cmd, served);
        obs.recorder().push(
            trace_id,
            "error",
            cmd,
            session,
            "panic",
            &incident,
            served.as_micros() as u64,
        );
        eprintln!("fedex-serve: caught a panic serving {cmd:?} (incident {incident})");
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
            assert!(is_heavy(cmd), "{cmd}");
        }
        for cmd in ["ping", "metrics", "history", "sessions", "shutdown", "wat"] {
            assert!(!is_heavy(cmd), "{cmd}");
        }
    }

    #[test]
    fn snapshots_never_tear_under_concurrent_updates() {
        // Writers increment the cause (`admitted_heavy`) strictly before
        // the effect (`completed`); a coherent snapshot must therefore
        // never show `completed > admitted_heavy`, no matter when it lands
        // relative to the writers.
        let m = Arc::new(SchedMetrics::default());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        m.admitted_heavy.fetch_add(1, Ordering::Relaxed);
                        m.completed.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for _ in 0..20_000 {
            let s = m.snapshot();
            assert!(
                s.completed <= s.admitted_heavy,
                "torn snapshot: completed {} > admitted {}",
                s.completed,
                s.admitted_heavy
            );
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
}
