//! The shared client-simulation core: one place that knows how to fire a
//! request at a live `fedex-serve` instance and classify what came back.
//!
//! Both load harnesses — the `chaos` bin (seeded fault injection)
//! and the workload-trace replayer ([`mod@crate::workload::replay`]) — drive
//! servers with fleets of simulated clients and need the same bookkeeping:
//! every attempt lands in exactly one outcome bucket, typed error codes
//! are tallied by code, untyped failures are a first-class violation, and
//! `internal_error` incident ids are collected so the flight recorder can
//! be asked about each afterwards. Before this module they each carried a
//! divergent copy; now the classification rules live here once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fedex_serve::{json, Client, Json};

/// How one request attempt ended. Every attempt maps to exactly one
/// variant, so per-variant counts sum to attempts.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// `ok:true` response.
    Ok,
    /// `ok:false` with a machine-readable `code` (and, for
    /// `internal_error`, the incident id when present).
    Typed {
        /// The `code` field.
        code: String,
        /// `incident` id of an `internal_error`, if the server sent one.
        incident: Option<String>,
    },
    /// `ok:false` with no `code` — always a harness violation.
    Untyped,
    /// The line did not parse as JSON (torn write / mid-line disconnect).
    Torn,
    /// Connect or transport error before any response line.
    Io,
}

/// Classify a raw transport result into an [`Outcome`], returning the
/// parsed response alongside when there was one.
pub fn classify(outcome: std::io::Result<String>) -> (Outcome, Option<Json>) {
    match outcome {
        Err(_) => (Outcome::Io, None),
        Ok(raw) => match json::parse(&raw) {
            Err(_) => (Outcome::Torn, None),
            Ok(resp) => {
                let out = if resp.get("ok") == Some(&Json::Bool(true)) {
                    Outcome::Ok
                } else {
                    match resp.get("code").and_then(Json::as_str) {
                        Some(code) => Outcome::Typed {
                            code: code.to_string(),
                            incident: (code == "internal_error")
                                .then(|| resp.get("incident").and_then(Json::as_str))
                                .flatten()
                                .map(str::to_string),
                        },
                        None => Outcome::Untyped,
                    }
                };
                (out, Some(resp))
            }
        },
    }
}

/// Shared outcome counters across all simulated-client threads.
#[derive(Default)]
pub struct Tally {
    /// Requests attempted.
    pub attempts: AtomicU64,
    /// `ok:true` responses.
    pub ok: AtomicU64,
    /// Failures with no `code` field.
    pub untyped_errors: AtomicU64,
    /// Unparseable response lines.
    pub torn_lines: AtomicU64,
    /// Connect/transport errors.
    pub io_errors: AtomicU64,
    /// Failures by `code`.
    pub typed_errors: Mutex<HashMap<String, u64>>,
    /// Incident ids out of `internal_error` responses — each should
    /// resolve to a flight-recorder timeline after the run.
    pub incidents: Mutex<Vec<String>>,
}

impl Tally {
    /// Count one classified outcome into its bucket.
    pub fn record(&self, outcome: &Outcome) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Outcome::Ok => {
                self.ok.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Typed { code, incident } => {
                if let Some(inc) = incident {
                    self.incidents.lock().unwrap().push(inc.clone());
                }
                *self
                    .typed_errors
                    .lock()
                    .unwrap()
                    .entry(code.clone())
                    .or_insert(0) += 1;
            }
            Outcome::Untyped => {
                self.untyped_errors.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Torn => {
                self.torn_lines.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Io => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// One full connect → request → classify → record cycle over a fresh
    /// connection — what a resilient chaos client does when injected
    /// disconnects may have killed the previous one. Returns the parsed
    /// response when one arrived.
    pub fn one_request(&self, addr: &str, line: &str) -> Option<Json> {
        let raw = Client::connect(addr).and_then(|mut c| c.request_raw(line));
        let (outcome, resp) = classify(raw);
        self.record(&outcome);
        resp
    }

    /// Total typed failures across all codes.
    pub fn typed_total(&self) -> u64 {
        self.typed_errors.lock().unwrap().values().sum()
    }
}

/// A numeric counter out of a JSON `metrics` response, by path (e.g.
/// `["scheduler", "queued_heavy"]`). Panics with the full response on a
/// missing or non-numeric field — harnesses want loud schema drift.
pub fn metric(m: &Json, path: &[&str]) -> f64 {
    let mut cur = m;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("metrics response lacks {}: {m:?}", path.join(".")));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("{} is not a number", path.join(".")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_outcome_lands_in_exactly_one_bucket() {
        let t = Tally::default();
        for (raw, want) in [
            (Ok(r#"{"ok":true}"#.to_string()), Outcome::Ok),
            (
                Ok(r#"{"ok":false,"code":"overloaded","error":"x"}"#.to_string()),
                Outcome::Typed {
                    code: "overloaded".into(),
                    incident: None,
                },
            ),
            (
                Ok(r#"{"ok":false,"code":"internal_error","incident":"inc-7"}"#.to_string()),
                Outcome::Typed {
                    code: "internal_error".into(),
                    incident: Some("inc-7".into()),
                },
            ),
            (Ok(r#"{"ok":false,"error":"no code"}"#.to_string()), {
                Outcome::Untyped
            }),
            (Ok(r#"{"ok":fal"#.to_string()), Outcome::Torn),
            (
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "x",
                )),
                Outcome::Io,
            ),
        ] {
            let (got, _) = classify(raw);
            assert_eq!(got, want);
            t.record(&got);
        }
        let attempts = t.attempts.load(Ordering::Relaxed);
        let accounted = t.ok.load(Ordering::Relaxed)
            + t.typed_total()
            + t.untyped_errors.load(Ordering::Relaxed)
            + t.torn_lines.load(Ordering::Relaxed)
            + t.io_errors.load(Ordering::Relaxed);
        assert_eq!(attempts, 6);
        assert_eq!(accounted, attempts, "buckets must sum to attempts");
        assert_eq!(t.incidents.lock().unwrap().as_slice(), ["inc-7"]);
    }

    #[test]
    fn metric_walks_nested_paths() {
        let m = json::parse(r#"{"scheduler":{"queued_heavy":3}}"#).unwrap();
        assert_eq!(metric(&m, &["scheduler", "queued_heavy"]), 3.0);
    }
}
