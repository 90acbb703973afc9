//! The multi-threaded TCP front-end.
//!
//! Transport is newline-delimited JSON: one request object per line, one
//! response object per line, connections carry any number of requests. A
//! minimal HTTP/1.1 fallback answers `POST /api` (body = one request
//! object), `GET /metrics`, and `GET /healthz`, so `curl` works against
//! the same port — the first bytes of a connection decide the mode.
//! Either way a request is capped at 64 MiB: a longer NDJSON line or
//! HTTP body is answered with the typed `too_large` error and its
//! connection closed, so no client can grow a read buffer without bound.
//!
//! Concurrency is **admission-scheduled** (see [`crate::sched`]): each
//! accepted connection gets a lightweight I/O thread that reads lines,
//! hands them to the shared [`Scheduler`], and writes the responses back
//! in order. Control commands (`ping`, `metrics`, `history`, …, and
//! `GET /healthz`, `GET /debug/requests`) are answered on that I/O thread
//! itself, so they never wait behind an explain. Heavy work runs on a
//! fixed pool of `workers` scheduler workers behind one bounded queue: a
//! full queue is answered with the typed `overloaded` error instead of
//! queueing without bound, and every heavy request runs as its own job
//! under its own deadline.
//!
//! Session state lives in the shared [`ExplainService`]; the artifact
//! cache underneath makes concurrent explains over the same registered
//! tables cheap, and determinism of the explain pipeline makes them
//! byte-identical.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::json::{self, Json};
use crate::sched::{Scheduler, SchedulerConfig, SHUTDOWN_TICK};
use crate::service::ExplainService;

/// Serving knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:4641` (port 0 = ephemeral).
    pub addr: String,
    /// Scheduler workers, which run the heavy jobs (`explain`,
    /// `register`, `register_demo`). Control commands need none: each is
    /// answered on its connection's I/O thread.
    pub workers: usize,
    /// Bound of the heavy (explain/register) queue; a full queue answers
    /// the typed `overloaded` error (CLI: `--queue-depth`).
    pub queue_depth: usize,
    /// Max heavy requests one session may have queued + running before
    /// `quota_exceeded` (CLI: `--session-quota`).
    pub session_quota: usize,
    /// Max concurrent connections, each backed by one lightweight I/O
    /// thread. Accepts beyond it are answered with one `overloaded`
    /// error line and closed — the work queues are bounded by
    /// `queue_depth`, this bounds the thread population itself.
    pub max_connections: usize,
    /// Deadline budget for requests without their own `deadline_ms`
    /// field; `0` disables the default (CLI: `--default-deadline-ms`).
    pub default_deadline_ms: u64,
    /// Timeout on every response write; a peer that stops reading frees
    /// the I/O thread after this long (CLI: `--write-timeout-ms`).
    pub write_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let sched = SchedulerConfig::default();
        ServerConfig {
            addr: "127.0.0.1:4641".to_string(),
            workers: 4,
            queue_depth: sched.queue_depth,
            session_quota: sched.session_quota,
            max_connections: 1024,
            default_deadline_ms: sched.default_deadline_ms,
            write_timeout_ms: 5_000,
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    service: Arc<ExplainService>,
    workers: usize,
    max_connections: usize,
    write_timeout: Duration,
    sched_config: SchedulerConfig,
}

impl Server {
    /// Bind `config.addr` over `service`.
    pub fn bind(config: &ServerConfig, service: Arc<ExplainService>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            service,
            workers: config.workers.max(1),
            max_connections: config.max_connections.max(1),
            write_timeout: Duration::from_millis(config.write_timeout_ms.max(1)),
            sched_config: SchedulerConfig {
                queue_depth: config.queue_depth.max(1),
                session_quota: config.session_quota.max(1),
                default_deadline_ms: config.default_deadline_ms,
            },
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and serve until a `shutdown` request arrives. Blocks the
    /// calling thread; scheduler workers and connection I/O threads are
    /// joined before returning.
    pub fn run(self) -> std::io::Result<()> {
        let wake_addr = loopback_if_unspecified(self.listener.local_addr()?);
        let scheduler = Scheduler::new(self.service.clone(), self.sched_config);
        let active_connections = AtomicUsize::new(0);
        let accepting = AtomicBool::new(true);
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| scheduler.worker_loop());
            }
            // `accept` blocks, so once the shutdown flag is up this waker
            // connects to the listener itself: the accept loop checks the
            // flag after every accept. It retries each tick until a
            // connect lands or the accept loop has left on its own.
            scope.spawn(|| {
                while accepting.load(Ordering::Acquire) {
                    std::thread::sleep(SHUTDOWN_TICK);
                    if self.service.shutdown_requested()
                        && TcpStream::connect_timeout(&wake_addr, SHUTDOWN_TICK).is_ok()
                    {
                        break;
                    }
                }
            });
            let accepted = loop {
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) => {
                        // A dead listener (fd exhaustion, interface gone)
                        // must not wedge the process: raise the shutdown
                        // flag so workers and connection threads drain and
                        // the scope join below terminates, then surface
                        // the error to the caller.
                        self.service.request_shutdown();
                        break Err(e);
                    }
                };
                if self.service.shutdown_requested() {
                    break Ok(());
                }
                // Response lines are small; Nagle + the client's delayed
                // ACK would add ~40ms to every reply.
                let _ = stream.set_nodelay(true);
                // Bound the I/O-thread population: past the cap, answer
                // one typed error line and close instead of spawning (a
                // flood of idle keep-alive connections would otherwise
                // grow threads without bound — the queue only bounds
                // *work*).
                if active_connections.load(Ordering::Acquire) >= self.max_connections {
                    refuse_connection(stream, self.max_connections, self.write_timeout);
                    continue;
                }
                active_connections.fetch_add(1, Ordering::AcqRel);
                self.service
                    .metrics()
                    .connections
                    .fetch_add(1, Ordering::Relaxed);
                // One lightweight I/O thread per connection: it parses
                // lines, answers control commands, waits on the scheduler
                // for heavy ones, and writes responses. Exits on client
                // EOF, idle keep-alive expiry, or shutdown (within one
                // read-timeout tick), so the scope join below is bounded.
                let scheduler = &scheduler;
                let service = &*self.service;
                let active_connections = &active_connections;
                let write_timeout = self.write_timeout;
                scope.spawn(move || {
                    let _ = serve_connection(stream, scheduler, service, write_timeout);
                    active_connections.fetch_sub(1, Ordering::AcqRel);
                });
            };
            accepting.store(false, Ordering::Release);
            accepted
        })
    }

    /// Run on a background thread; returns once the listener is live.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let service = self.service.clone();
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            service,
            thread,
        })
    }
}

/// Handle to a background server: address + graceful stop.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    service: Arc<ExplainService>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Where the server listens.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared service (e.g. to read metrics in tests).
    pub fn service(&self) -> &Arc<ExplainService> {
        &self.service
    }

    /// Request shutdown and join the server thread. Sets the flag
    /// directly on the shared service — it does not need a free worker
    /// slot, so it succeeds even when every worker is pinned by an open
    /// connection.
    pub fn stop(self) -> std::io::Result<()> {
        self.service.request_shutdown();
        self.thread.join().expect("server thread panicked")
    }
}

/// Refuse a connection over the `max_connections` cap: best-effort write
/// of one typed error line, then close. The write timeout keeps a
/// non-reading peer from stalling the acceptor.
fn refuse_connection(mut stream: TcpStream, cap: usize, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout.min(Duration::from_millis(250))));
    let line = json::obj([
        ("ok", Json::Bool(false)),
        ("code", json::s("overloaded")),
        (
            "error",
            json::s(format!("connection limit reached ({cap})")),
        ),
    ])
    .to_string();
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// Where the acceptor's waker connects: the bound address, over loopback
/// when the bound IP is unspecified (`0.0.0.0`, `::`).
fn loopback_if_unspecified(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Serve one connection in whichever protocol its first line speaks.
fn serve_connection(
    stream: TcpStream,
    scheduler: &Scheduler,
    service: &ExplainService,
    write_timeout: Duration,
) -> std::io::Result<()> {
    // Short read timeout: between client requests the I/O thread wakes up
    // regularly to observe a server shutdown, so idle keep-alive
    // connections can never outlive `shutdown` (they would otherwise
    // deadlock a graceful stop).
    stream.set_read_timeout(Some(SHUTDOWN_TICK))?;
    // A peer that stops reading can stall a response write for at most
    // this long before the I/O thread frees itself (typed as a
    // disconnect below).
    stream.set_write_timeout(Some(write_timeout))?;
    let peer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut writer = peer;

    let mut first = Vec::new();
    match read_line_shutdown_aware(&mut reader, &mut first, service)? {
        LineRead::Line => {}
        LineRead::Closed => return Ok(()),
        LineRead::TooLarge => return answer_too_large(&mut writer),
    }
    let first = String::from_utf8_lossy(&first).into_owned();
    if let Some(request_line) = http_request_line(&first) {
        return serve_http(reader, writer, scheduler, service, request_line);
    }
    // Client-liveness probe, polled by the scheduler while this thread
    // waits on a job: a 1ms peek on a clone of the socket. `Ok(0)` is
    // EOF (peer closed); a timeout means no bytes yet — still alive.
    // Cloned fds share SO_RCVTIMEO, so the timeout is restored to the
    // read loop's tick before returning; this is safe because the same
    // thread does both — it's never probing while a read is blocked.
    let probe = writer.try_clone()?;
    let is_alive = move || -> bool {
        if probe
            .set_read_timeout(Some(Duration::from_millis(1)))
            .is_err()
        {
            return false;
        }
        let mut byte = [0u8; 1];
        let alive = match probe.peek(&mut byte) {
            Ok(0) => false,
            Ok(_) => true,
            Err(e) => matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
        };
        let _ = probe.set_read_timeout(Some(SHUTDOWN_TICK));
        alive
    };
    // NDJSON: the first line is already a request; keep reading lines.
    let mut line = first;
    let mut buf = Vec::new();
    loop {
        let trimmed = line.trim_end_matches(['\r', '\n']);
        let response = scheduler.handle_line_hooked(trimmed, Some(&is_alive));
        // One write per response (see `Client::request_raw`), straight
        // from the reply's own buffer.
        let mut out = response.into_bytes();
        out.push(b'\n');
        // Injected write faults (chaos runs only): abandon or tear the
        // response — the client sees a disconnect mid-response, the
        // server must account it and carry on.
        if let Some(plan) = service.faults() {
            if plan.should_disconnect() {
                service
                    .metrics()
                    .disconnects
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if plan.should_tear_write() {
                service
                    .metrics()
                    .disconnects
                    .fetch_add(1, Ordering::Relaxed);
                let _ = writer.write_all(&out[..out.len() / 2]);
                return Ok(());
            }
        }
        if let Err(e) = writer.write_all(&out).and_then(|()| writer.flush()) {
            service
                .metrics()
                .disconnects
                .fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        buf.clear();
        match read_line_shutdown_aware(&mut reader, &mut buf, service)? {
            LineRead::Line => {}
            LineRead::Closed => return Ok(()),
            LineRead::TooLarge => return answer_too_large(&mut writer),
        }
        line = String::from_utf8_lossy(&buf).into_owned();
        if line.trim().is_empty() {
            return Ok(());
        }
    }
}

/// Keep-alive limit for idle NDJSON connections: an I/O thread held by a
/// silent client frees itself after this long, bounding the worst-case
/// connection-thread population.
const IDLE_KEEPALIVE: Duration = Duration::from_secs(120);

/// Longest request the server reads: one NDJSON line (without its `\n`)
/// or one HTTP body. Anything longer is answered with the typed
/// `too_large` error and the connection is closed.
const MAX_BODY: usize = 64 * 1024 * 1024;

/// The typed error body for a request over [`MAX_BODY`].
fn too_large(what: &str) -> String {
    json::obj([
        ("ok", Json::Bool(false)),
        ("code", json::s("too_large")),
        ("error", json::s(format!("{what} exceeds {MAX_BODY} bytes"))),
    ])
    .to_string()
}

/// Answer an over-long NDJSON line with `too_large`; the caller then
/// closes the connection.
fn answer_too_large(writer: &mut TcpStream) -> std::io::Result<()> {
    writer.write_all(format!("{}\n", too_large("request line")).as_bytes())?;
    writer.flush()
}

/// What [`read_line_shutdown_aware`] read.
enum LineRead {
    /// A line (or the bytes before EOF) is in the buffer.
    Line,
    /// EOF, shutdown during an idle wait, or idle keep-alive expiry.
    Closed,
    /// The line is longer than [`MAX_BODY`]. The buffer is cleared and
    /// the rest of the line discarded.
    TooLarge,
}

/// Read one `\n`-terminated line of raw bytes, treating a read timeout as
/// "check the shutdown flag and keep waiting". This deliberately wraps
/// `read_until` (bytes), not `read_line` (String): on the error path
/// `read_line` truncates everything appended during the failed call —
/// losing bytes a slow client already sent whenever the timeout fires
/// mid-line — while `read_until` keeps partial data in `buf`, so resuming
/// is lossless. UTF-8 conversion happens once, after the full line
/// arrived. The buffer never grows past [`MAX_BODY`] + 1 bytes.
fn read_line_shutdown_aware(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    service: &ExplainService,
) -> std::io::Result<LineRead> {
    let idle_since = std::time::Instant::now();
    loop {
        // Room for MAX_BODY bytes plus the terminator.
        let room = (MAX_BODY + 1).saturating_sub(buf.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', buf) {
            Ok(_) if buf.len() > MAX_BODY && buf.last() != Some(&b'\n') => {
                buf.clear();
                discard_line(reader, service)?;
                return Ok(LineRead::TooLarge);
            }
            Ok(_) if buf.is_empty() => return Ok(LineRead::Closed),
            Ok(_) => return Ok(LineRead::Line),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if service.shutdown_requested() || idle_since.elapsed() > IDLE_KEEPALIVE {
                    return Ok(LineRead::Closed);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Skip the rest of an over-long line, through its `\n`, without
/// buffering it — at most another [`MAX_BODY`] bytes. Reading it before
/// the `too_large` answer and close lets the peer see the answer: closing
/// a socket with unread input resets the connection.
fn discard_line(
    reader: &mut BufReader<TcpStream>,
    service: &ExplainService,
) -> std::io::Result<()> {
    let idle_since = std::time::Instant::now();
    let mut left = MAX_BODY;
    while left > 0 {
        let chunk = match reader.fill_buf() {
            Ok([]) => return Ok(()),
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if service.shutdown_requested() || idle_since.elapsed() > IDLE_KEEPALIVE {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        let (used, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) if i < left => (i + 1, true),
            _ => (chunk.len().min(left), false),
        };
        reader.consume(used);
        left -= used;
        if done {
            return Ok(());
        }
    }
    Ok(())
}

/// `Some((method, path))` when the line is an HTTP/1.x request line.
fn http_request_line(line: &str) -> Option<(String, String)> {
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    let version = parts.next()?;
    (matches!(method, "GET" | "POST" | "PUT" | "HEAD" | "DELETE") && version.starts_with("HTTP/1."))
        .then(|| (method.to_string(), path.to_string()))
}

/// Minimal HTTP/1.1: headers, optional Content-Length body, one response,
/// close. Every route but the Prometheus scrape goes through the
/// scheduler like an NDJSON line, so `GET /healthz`, `GET /debug/requests`
/// and the JSON form of `GET /metrics` are answered on this thread: they
/// answer even when the heavy queue is full.
fn serve_http(
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    scheduler: &Scheduler,
    service: &ExplainService,
    (method, path): (String, String),
) -> std::io::Result<()> {
    // One request then close: a longer blocking timeout is safe here and
    // tolerates bodies arriving in a later packet than the request line.
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut content_length = 0usize;
    let mut accept = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("accept") {
                accept = value.trim().to_ascii_lowercase();
            }
        }
    }
    // Reject over-limit bodies explicitly instead of reading a truncated
    // prefix (which would parse as garbage and reset the client mid-send).
    if content_length > MAX_BODY {
        let payload = too_large(&format!("request body of {content_length} bytes"));
        write!(
            writer,
            "HTTP/1.1 413 Payload Too Large\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len(),
        )?;
        return writer.flush();
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8_lossy(&body);

    const JSON_TYPE: &str = "application/json";
    /// Prometheus text exposition format version 0.0.4.
    const PROM_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";
    let (status, content_type, payload) = match (method.as_str(), path.as_str()) {
        ("POST", "/api") => ("200 OK", JSON_TYPE, scheduler.handle_line(body.trim())),
        // Prometheus scrapes bypass dispatch: a direct scrape does not
        // bump `requests`, keeping the per-command histogram counts
        // exactly equal to the request count in serial smokes.
        ("GET", "/metrics") if accept.contains("text/plain") => {
            ("200 OK", PROM_TYPE, service.metrics_prometheus())
        }
        ("GET", "/metrics") => (
            "200 OK",
            JSON_TYPE,
            scheduler.handle_line(r#"{"cmd":"metrics"}"#),
        ),
        ("GET", "/healthz") => (
            "200 OK",
            JSON_TYPE,
            scheduler.handle_line(r#"{"cmd":"ping"}"#),
        ),
        ("GET", "/debug/requests") => (
            "200 OK",
            JSON_TYPE,
            scheduler.handle_line(r#"{"cmd":"debug_dump"}"#),
        ),
        _ => (
            "404 Not Found",
            JSON_TYPE,
            json::obj([
                ("ok", Json::Bool(false)),
                ("code", json::s("bad_request")),
                ("error", json::s(format!("no route {method} {path}"))),
            ])
            .to_string(),
        ),
    };
    let sent = write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len(),
    )
    .and_then(|()| writer.flush());
    if let Err(e) = sent {
        // The write timeout set by `serve_connection` applies here too:
        // a non-reading HTTP peer is a typed disconnect, not a hang.
        service
            .metrics()
            .disconnects
            .fetch_add(1, Ordering::Relaxed);
        return Err(e);
    }
    Ok(())
}
