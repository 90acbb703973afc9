//! Scoring: the frontier report and the machine-checkable gates.
//!
//! Two gates, both returning human-readable violation lists that the
//! `workload` binary turns into a nonzero exit:
//!
//! - [`frontier_violations`] — single-run quality/latency invariants:
//!   zero untyped failures, zero transport losses against a healthy
//!   server, the Prometheus exposition validates and conserves
//!   (per-command histogram counts sum exactly to
//!   `fedex_requests_total`), and every provenance kind the trace was
//!   configured to cover produced at least one successful explain.
//! - [`differential_violations`] — two runs of the same trace must be
//!   response-identical wherever both answered: same
//!   canonical payload (explanations, rendered text, row counts) at
//!   every shared op id.
//!
//! [`report_json`] assembles the `BENCH_pr10.json`-style artifact:
//! client-observed p50/p99 per provenance kind, server-side per-command
//! percentiles from the Prometheus histogram buckets, and typed-error
//! census.

use fedex_obs::{validate_exposition, Exposition, WIRE_COMMANDS};
use fedex_serve::json::{self, Json};

use super::replay::ReplayRun;
use super::trace::{Trace, TraceOp};

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

/// The single-run frontier gate. Empty = pass.
pub fn frontier_violations(run: &ReplayRun, trace: &Trace) -> Vec<String> {
    let mut violations = Vec::new();

    if run.results.is_empty() {
        violations.push("trace produced no explain results".to_string());
    }
    if run.untyped_errors > 0 {
        violations.push(format!(
            "{} failure responses carried no error code",
            run.untyped_errors
        ));
    }
    if run.io_errors > 0 || run.torn_lines > 0 {
        violations.push(format!(
            "{} transport errors / {} torn lines against a healthy server",
            run.io_errors, run.torn_lines
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
    violations
}

/// The determinism gate: wherever `a` and `b` both answered an op, the
/// canonical payloads must be identical. Empty = pass.
pub fn differential_violations(a: &ReplayRun, b: &ReplayRun) -> Vec<String> {
    let mut violations = Vec::new();
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
    violations
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

    let typed = Json::Obj(
        run.typed_errors
            .iter()
            .map(|(k, v)| (k.clone(), json::n(*v as f64)))
            .collect(),
    );

    Json::Obj(vec![
        (
            "workload".to_string(),
            json::s(format!("trace replay: {}", trace.header.name)),
        ),
        ("seed".to_string(), json::n(trace.header.seed as f64)),
        ("clients".to_string(), json::n(trace.header.clients as f64)),
        ("ops".to_string(), json::n(trace.ops.len() as f64)),
        ("explains".to_string(), json::n(explains)),
        ("ok".to_string(), json::n(run.ok as f64)),
        (
            "untyped_errors".to_string(),
            json::n(run.untyped_errors as f64),
        ),
        ("io_errors".to_string(), json::n(run.io_errors as f64)),
        ("torn_lines".to_string(), json::n(run.torn_lines as f64)),
        ("typed_errors".to_string(), typed),
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
    use super::*;

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
}
