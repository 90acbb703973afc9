//! Scoring: the one gate and the report.
//!
//! [`gate`] turns one or more replays of a trace into a list of
//! human-readable violations, which the `workload` binary turns into a
//! nonzero exit. Each run must hold:
//!
//! - at least one explain result, zero untyped failures, and — on a
//!   trace without a fault plan — zero transport errors and torn lines;
//! - a successful explain of every provenance kind the trace schedules;
//! - a Prometheus exposition that validates and conserves (per-command
//!   histogram counts sum exactly to `fedex_requests_total`);
//! - a control-probe ping p99 under 10 ms, over at least one sample (the
//!   bound is on client wall-clock; the violation also quotes the
//!   server-side p99, so host CPU steal tells apart from a stalled
//!   server);
//! - queues drained to zero, and scheduler counters that conserve
//!   (`admitted_heavy == completed`: every admitted job completed);
//! - every `internal_error` incident resolved by `debug_dump`;
//! - at least one server panic when the trace's fault plan injects them.
//!
//! Two or more runs of the same trace must also be response-identical
//! wherever both answered: the same canonical payload (explanations,
//! rendered text, row counts) at every shared op id.
//!
//! [`report_json`] assembles the `BENCH_pr10.json`-style artifact:
//! client-observed p50/p99 per provenance kind, server-side per-command
//! percentiles from the Prometheus histogram buckets, the typed-error
//! census, the control probe, incidents and the scheduler's counters.

use fedex_obs::{validate_exposition, Exposition, WIRE_COMMANDS};
use fedex_serve::json::{self, Json};
use fedex_serve::FaultPlan;

use super::replay::{backlog, metric, ReplayRun, IO, TORN, UNTYPED};
use super::trace::{Trace, TraceOp};

/// The control probe's p99 must stay under this, in µs.
const PING_P99_LIMIT_US: u64 = 10_000;

/// Provenance kinds the trace actually schedules (set of `kind` values
/// across explain ops).
fn configured_kinds(trace: &Trace) -> Vec<String> {
    let mut kinds: Vec<String> = Vec::new();
    for op in &trace.ops {
        if let TraceOp::Explain { kind, .. } = op {
            if !kinds.contains(kind) {
                kinds.push(kind.clone());
            }
        }
    }
    kinds.sort();
    kinds
}

/// `p`-th percentile of a sorted latency vector (nearest-rank).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Server-side `p`-th percentile for one command, read off the
/// cumulative Prometheus histogram buckets; `None` when the command
/// has no observations. Returns the upper bound of the bucket the
/// percentile falls in (seconds).
fn bucket_percentile(exp: &Exposition, cmd: &str, p: f64) -> Option<f64> {
    let mut buckets: Vec<(f64, f64)> = exp
        .samples
        .iter()
        .filter(|s| {
            s.name == "fedex_request_duration_seconds_bucket"
                && s.labels.iter().any(|(k, v)| k == "cmd" && v == cmd)
        })
        .filter_map(|s| {
            let le = s.labels.iter().find(|(k, _)| k == "le")?;
            let bound = if le.1 == "+Inf" {
                f64::INFINITY
            } else {
                le.1.parse().ok()?
            };
            Some((bound, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map(|b| b.1)?;
    if total == 0.0 {
        return None;
    }
    let target = (total * p).ceil();
    buckets
        .iter()
        .find(|(_, cum)| *cum >= target)
        .map(|(le, _)| *le)
}

/// The server-side ping p99 of a run's scrape, in ms: the upper bound of
/// its histogram bucket, `None` when the scrape is invalid or holds no
/// ping.
fn server_ping_p99_ms(run: &ReplayRun) -> Option<f64> {
    let exp = validate_exposition(&run.prom_text).ok()?;
    bucket_percentile(&exp, "ping", 0.99).map(|s| s * 1e3)
}

/// The gate over every replay of `trace` (see the module docs). Empty =
/// pass.
pub fn gate(trace: &Trace, runs: &[ReplayRun]) -> Vec<String> {
    let mut violations = Vec::new();
    for run in runs {
        run_violations(trace, run, &mut violations);
    }
    if let Some((first, rest)) = runs.split_first() {
        for other in rest {
            differential_violations(first, other, &mut violations);
        }
    }
    violations
}

/// The checks one run must pass on its own.
fn run_violations(trace: &Trace, run: &ReplayRun, violations: &mut Vec<String>) {
    let plan = trace.header.faults.as_deref().map(FaultPlan::parse);
    if run.results.is_empty() {
        violations.push("trace produced no explain results".to_string());
    }
    let untyped = run.count(Some(UNTYPED));
    if untyped > 0 {
        violations.push(format!("{untyped} failure responses carried no error code"));
    }
    let (io, torn) = (run.count(Some(IO)), run.count(Some(TORN)));
    if plan.is_none() && (io > 0 || torn > 0) {
        violations.push(format!(
            "{io} transport errors / {torn} torn lines against a healthy server"
        ));
    }

    // Every configured provenance kind must have produced at least one
    // successful explain — a kind that always fails is a coverage hole,
    // not a latency data point.
    for kind in configured_kinds(trace) {
        if !run.results.iter().any(|r| r.kind == kind && r.ok) {
            violations.push(format!("no successful explain of kind {kind:?}"));
        }
    }

    // The observability surface must validate and conserve, exactly as
    // `promcheck` demands: per-command histogram counts sum to
    // `fedex_requests_total`.
    match validate_exposition(&run.prom_text) {
        Err(e) => violations.push(format!("prometheus exposition invalid: {e}")),
        Ok(exp) => match exp.sum("fedex_requests_total") {
            None => violations.push("fedex_requests_total missing".to_string()),
            Some(requests_total) => {
                let mut hist_total = 0.0;
                let mut missing_series = false;
                for cmd in WIRE_COMMANDS {
                    match exp.value_with("fedex_request_duration_seconds_count", "cmd", cmd) {
                        Some(count) => hist_total += count,
                        None => {
                            violations.push(format!(
                                "fedex_request_duration_seconds has no series for cmd={cmd:?}"
                            ));
                            missing_series = true;
                        }
                    }
                }
                if !missing_series && hist_total != requests_total {
                    violations.push(format!(
                        "per-command histogram counts sum to {hist_total} but \
                         fedex_requests_total is {requests_total}"
                    ));
                }
            }
        },
    }

    let ping_p99 = percentile(&run.ping_us, 0.99);
    if run.ping_us.is_empty() || ping_p99 >= PING_P99_LIMIT_US {
        let server = server_ping_p99_ms(run).map_or("n/a".to_string(), |ms| format!("≤{ms}ms"));
        violations.push(format!(
            "control p99 {ping_p99}µs over {} samples (limit 10ms; server-side p99 {server})",
            run.ping_us.len()
        ));
    }
    let m = &run.metrics;
    if backlog(m) != 0.0 {
        violations.push("queues failed to drain to zero within 60s (hung work)".into());
    }
    let admitted = metric(m, &["scheduler", "admitted_heavy"]);
    let completed = metric(m, &["scheduler", "completed"]);
    if admitted != completed {
        violations.push(format!(
            "scheduler counters do not conserve: {admitted} admitted, {completed} completed"
        ));
    }
    if let Some(first) = run.unresolved_incidents.first() {
        violations.push(format!(
            "{} of {} internal_error incidents unresolved by debug_dump (first: {first})",
            run.unresolved_incidents.len(),
            run.incidents
        ));
    }
    match plan {
        Some(Err(e)) => violations.push(format!("trace fault plan invalid: {e}")),
        Some(Ok(p)) if p.panic_rate > 0.0 && metric(m, &["server", "panics"]) == 0.0 => {
            violations.push("no injected panic reached the metrics: fault plan inert?".into())
        }
        _ => {}
    }
}

/// Wherever `a` and `b` both answered an op, the canonical payloads
/// must be identical.
fn differential_violations(a: &ReplayRun, b: &ReplayRun, violations: &mut Vec<String>) {
    let bs: std::collections::HashMap<u64, &super::replay::OpResult> =
        b.results.iter().map(|r| (r.id, r)).collect();
    let mut compared = 0usize;
    for ra in &a.results {
        let Some(rb) = bs.get(&ra.id) else {
            violations.push(format!("op {} present in run A only", ra.id));
            continue;
        };
        if !(ra.ok && rb.ok) {
            continue;
        }
        compared += 1;
        if ra.payload != rb.payload {
            violations.push(format!(
                "op {} ({}) differs between same-seed runs",
                ra.id, ra.kind
            ));
        }
    }
    if compared == 0 {
        violations.push("no op was answered by both runs — nothing compared".into());
    }
}

/// The `BENCH_pr10.json`-style report object.
pub fn report_json(trace: &Trace, run: &ReplayRun, violations: &[String]) -> Json {
    let explains = run.results.len() as f64;

    // Client-observed latency per provenance kind.
    let per_kind = configured_kinds(trace)
        .into_iter()
        .map(|kind| {
            let mut lat: Vec<u64> = run
                .results
                .iter()
                .filter(|r| r.kind == kind && r.ok)
                .map(|r| r.latency_us)
                .collect();
            lat.sort_unstable();
            Json::Obj(vec![
                ("kind".to_string(), json::s(kind.clone())),
                (
                    "sent".to_string(),
                    json::n(run.results.iter().filter(|r| r.kind == kind).count() as f64),
                ),
                ("ok".to_string(), json::n(lat.len() as f64)),
                ("p50_us".to_string(), json::n(percentile(&lat, 0.50) as f64)),
                ("p99_us".to_string(), json::n(percentile(&lat, 0.99) as f64)),
            ])
        })
        .collect();

    // Server-side per-command percentiles off the Prometheus buckets.
    let server_latency = match validate_exposition(&run.prom_text) {
        Err(_) => Json::Null,
        Ok(exp) => Json::Obj(
            ["explain", "register", "register_demo", "metrics"]
                .iter()
                .filter_map(|cmd| {
                    let p50 = bucket_percentile(&exp, cmd, 0.50)?;
                    let p99 = bucket_percentile(&exp, cmd, 0.99)?;
                    Some((
                        cmd.to_string(),
                        json::obj([("p50_le_s", Json::Num(p50)), ("p99_le_s", Json::Num(p99))]),
                    ))
                })
                .collect(),
        ),
    };

    let section = |key: &str| run.metrics.get(key).cloned().unwrap_or(Json::Null);
    let mut typed = std::collections::BTreeMap::new();
    for code in run.results.iter().filter_map(|r| r.code.as_deref()) {
        if ![IO, TORN, UNTYPED].contains(&code) {
            *typed.entry(code.to_string()).or_insert(0u64) += 1;
        }
    }
    let typed = typed.into_iter().map(|(k, v)| (k, json::n(v as f64)));

    Json::Obj(vec![
        (
            "workload".to_string(),
            json::s(format!("trace replay: {}", trace.header.name)),
        ),
        ("seed".to_string(), json::n(trace.header.seed as f64)),
        ("clients".to_string(), json::n(trace.header.clients as f64)),
        ("ops".to_string(), json::n(trace.ops.len() as f64)),
        ("explains".to_string(), json::n(explains)),
        ("ok".to_string(), json::n(run.count(None) as f64)),
        (
            "untyped_errors".to_string(),
            json::n(run.count(Some(UNTYPED)) as f64),
        ),
        ("io_errors".to_string(), json::n(run.count(Some(IO)) as f64)),
        (
            "torn_lines".to_string(),
            json::n(run.count(Some(TORN)) as f64),
        ),
        ("typed_errors".to_string(), Json::Obj(typed.collect())),
        (
            "faults".to_string(),
            trace.header.faults.clone().map_or(Json::Null, Json::Str),
        ),
        ("incidents".to_string(), json::n(run.incidents as f64)),
        (
            "incidents_resolved".to_string(),
            json::n((run.incidents - run.unresolved_incidents.len() as u64) as f64),
        ),
        (
            "ping_p99_us".to_string(),
            json::n(percentile(&run.ping_us, 0.99) as f64),
        ),
        (
            "ping_server_p99_le_ms".to_string(),
            server_ping_p99_ms(run).map_or(Json::Null, Json::Num),
        ),
        (
            "ping_samples".to_string(),
            json::n(run.ping_us.len() as f64),
        ),
        // Both carry the drained snapshot's counters, among them
        // `server.panics` and `scheduler.rejected_overloaded`.
        ("server".to_string(), section("server")),
        ("scheduler".to_string(), section("scheduler")),
        ("per_kind".to_string(), Json::Arr(per_kind)),
        ("server_latency".to_string(), server_latency),
        (
            "violations".to_string(),
            Json::Arr(violations.iter().map(|v| json::s(v.clone())).collect()),
        ),
        ("gate".to_string(), Json::Bool(violations.is_empty())),
    ])
}

#[cfg(test)]
mod tests {
    use super::super::replay::OpResult;
    use super::super::trace::TraceHeader;
    use super::*;

    fn trace(faults: Option<&str>) -> Trace {
        Trace {
            header: TraceHeader {
                name: "t".into(),
                seed: 1,
                clients: 1,
                generator: Json::Null,
                faults: faults.map(str::to_string),
            },
            ops: vec![TraceOp::Explain {
                id: 0,
                client: 0,
                session: "t".into(),
                kind: "filter".into(),
                sql: "SELECT * FROM t WHERE x > 1".into(),
                think_ms: 0,
                retries: 0,
                deadline_ms: None,
                hang_up: false,
            }],
        }
    }

    /// A `metrics` response with the given counters; nothing running.
    fn metrics(panics: u64, queued_heavy: u64, admitted_heavy: u64, completed: u64) -> Json {
        json::parse(&format!(
            r#"{{"server":{{"panics":{panics}}},"scheduler":{{
            "admitted_heavy":{admitted_heavy},"completed":{completed},
            "queued_heavy":{queued_heavy},"running_heavy":0}}}}"#
        ))
        .unwrap()
    }

    /// A conserving exposition: one explain, no other command.
    fn prom() -> String {
        prom_with_pings(&[])
    }

    /// [`prom`] plus pings, given as `(le, cumulative count)` buckets
    /// below `+Inf`; the last bucket's count is the number of pings.
    fn prom_with_pings(buckets: &[(&str, u32)]) -> String {
        let pings = buckets.last().map_or(0, |b| b.1);
        let mut text = format!(
            "# TYPE fedex_requests_total counter\nfedex_requests_total {}\n\
             # TYPE fedex_request_duration_seconds histogram\n",
            1 + pings
        );
        for cmd in WIRE_COMMANDS {
            let n = match *cmd {
                "explain" => 1,
                "ping" => {
                    for (le, count) in buckets {
                        text.push_str(&format!(
                            "fedex_request_duration_seconds_bucket{{cmd=\"ping\",le=\"{le}\"}} {count}\n"
                        ));
                    }
                    pings
                }
                _ => 0,
            };
            text.push_str(&format!(
                "fedex_request_duration_seconds_bucket{{cmd=\"{cmd}\",le=\"+Inf\"}} {n}\n\
                 fedex_request_duration_seconds_sum{{cmd=\"{cmd}\"}} 0\n\
                 fedex_request_duration_seconds_count{{cmd=\"{cmd}\"}} {n}\n"
            ));
        }
        text
    }

    /// A filter explain filed under `code` (`None` = answered).
    fn answered(code: Option<&str>) -> OpResult {
        OpResult {
            id: 0,
            client: 0,
            kind: "filter".into(),
            ok: code.is_none(),
            code: code.map(str::to_string),
            payload: code.is_none().then(|| "{}".to_string()),
            latency_us: 900,
        }
    }

    /// A run that passes every check: one answered filter explain, a
    /// drained and conserving scheduler, fast pings.
    fn healthy() -> ReplayRun {
        ReplayRun {
            results: vec![answered(None)],
            incidents: 0,
            unresolved_incidents: Vec::new(),
            ping_us: vec![400; 20],
            metrics: metrics(0, 0, 3, 3),
            prom_text: prom(),
        }
    }

    /// One answered explain, one transport error, one torn reply.
    fn lossy() -> Vec<OpResult> {
        vec![answered(None), answered(Some(IO)), answered(Some(TORN))]
    }

    #[test]
    fn each_gate_check_yields_exactly_its_own_violation() {
        assert_eq!(gate(&trace(None), &[healthy()]), Vec::<String>::new());
        let panicking = "seed=1,panic=0.1";
        assert_eq!(
            gate(
                &trace(Some(panicking)),
                &[ReplayRun {
                    metrics: metrics(2, 0, 3, 3),
                    ..healthy()
                }]
            ),
            Vec::<String>::new()
        );
        let cases: Vec<(&str, Option<&str>, ReplayRun)> = vec![
            (
                "queues failed to drain",
                None,
                ReplayRun {
                    metrics: metrics(0, 2, 3, 3),
                    ..healthy()
                },
            ),
            (
                "do not conserve",
                None,
                ReplayRun {
                    metrics: metrics(0, 0, 4, 3),
                    ..healthy()
                },
            ),
            (
                "1 of 1 internal_error incidents unresolved",
                None,
                ReplayRun {
                    incidents: 1,
                    unresolved_incidents: vec!["inc-00000001".into()],
                    ..healthy()
                },
            ),
            ("no injected panic", Some(panicking), healthy()),
            (
                "control p99 10000µs over 2 samples",
                None,
                ReplayRun {
                    ping_us: vec![400, 10_000],
                    ..healthy()
                },
            ),
            (
                "control p99 0µs over 0 samples",
                None,
                ReplayRun {
                    ping_us: Vec::new(),
                    ..healthy()
                },
            ),
            (
                "1 transport errors / 1 torn lines against a healthy server",
                None,
                ReplayRun {
                    results: lossy(),
                    ..healthy()
                },
            ),
        ];
        for (want, faults, run) in cases {
            let violations = gate(&trace(faults), &[run]);
            assert!(
                violations.len() == 1 && violations[0].contains(want),
                "want only {want:?}, got {violations:?}"
            );
        }
        // Under a fault plan, transport losses are what the plan injects.
        let torn = ReplayRun {
            results: lossy(),
            ..healthy()
        };
        assert_eq!(
            gate(&trace(Some("seed=1,torn=0.1")), &[torn]),
            Vec::<String>::new()
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&xs, 0.50), 5);
        assert_eq!(percentile(&xs, 0.99), 10);
        assert_eq!(percentile(&[], 0.99), 0);
    }

    #[test]
    fn bucket_percentile_reads_cumulative_buckets() {
        let text = "\
# HELP fedex_request_duration_seconds Latency.
# TYPE fedex_request_duration_seconds histogram
fedex_request_duration_seconds_bucket{cmd=\"explain\",le=\"0.001\"} 5
fedex_request_duration_seconds_bucket{cmd=\"explain\",le=\"0.01\"} 9
fedex_request_duration_seconds_bucket{cmd=\"explain\",le=\"+Inf\"} 10
fedex_request_duration_seconds_sum{cmd=\"explain\"} 0.5
fedex_request_duration_seconds_count{cmd=\"explain\"} 10
";
        let exp = validate_exposition(text).expect("valid exposition");
        assert_eq!(bucket_percentile(&exp, "explain", 0.50), Some(0.001));
        assert_eq!(bucket_percentile(&exp, "explain", 0.90), Some(0.01));
        assert_eq!(bucket_percentile(&exp, "explain", 1.0), Some(f64::INFINITY));
        assert_eq!(bucket_percentile(&exp, "ping", 0.5), None);
    }

    #[test]
    fn the_ping_violation_quotes_the_server_side_p99() {
        // 99 of 100 pings served under 1 ms, one under 50 ms.
        let scraped = ReplayRun {
            prom_text: prom_with_pings(&[("0.001", 99), ("0.05", 100)]),
            ..healthy()
        };
        assert_eq!(server_ping_p99_ms(&scraped), Some(1.0));
        assert_eq!(server_ping_p99_ms(&healthy()), None, "no ping observed");
        let slow = ReplayRun {
            ping_us: vec![12_000; 5],
            ..scraped
        };
        assert_eq!(
            gate(&trace(None), std::slice::from_ref(&slow)),
            ["control p99 12000µs over 5 samples (limit 10ms; server-side p99 ≤1ms)"]
        );
        let report = report_json(&trace(None), &slow, &[]);
        assert_eq!(report.get("ping_server_p99_le_ms"), Some(&Json::Num(1.0)));
        assert_eq!(report.get("ping_p99_us"), Some(&Json::Num(12_000.0)));
    }
}
