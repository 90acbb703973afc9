//! The result object, the metric catalogue, and process-level probes
//! (memory, host calibration).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{median, quantile};

/// Every end-to-end metric, `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("explain_p50_ms", "ms"),
    ("explain_p90_ms", "ms"),
    ("explains_per_s", "1/s"),
    ("register_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, `(name, unit)`, as `BENCHMARK.json` lists them.
/// Times are means per explain (per register for the fingerprint);
/// counts are totals over the run. `perfbench/LAYERS.md` says which
/// end-to-end metric each should move, and on which workload.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("frame.fingerprint_ms", "ms"),
    ("query.parse_ms", "ms"),
    ("query.step_ms", "ms"),
    ("core.score_columns_ms", "ms"),
    ("core.partition_rows_ms", "ms"),
    ("core.contribute_ms", "ms"),
    ("core.skyline_ms", "ms"),
    ("core.present_ms", "ms"),
    ("core.explain_ms.filter", "ms"),
    ("core.explain_ms.group_by", "ms"),
    ("core.explain_ms.join", "ms"),
    ("core.explain_ms.union", "ms"),
    ("core.partitions", "count"),
    ("core.candidates", "count"),
    ("core.explanations", "count"),
    ("render.json_ms", "ms"),
    ("render.text_ms", "ms"),
    ("cache.frame_hit_ratio", "ratio"),
    ("cache.kernel_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.resident_mb", "MB"),
    ("session.retained_mb_per_explain", "MB"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.response_kb", "KB"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.rejected", "count"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("host.calib_ms", "ms"),
    ("workload.repeat_share", "ratio"),
    ("workload.cached_input_share", "ratio"),
    ("workload.explains", "count"),
    ("workload.registers", "count"),
];

/// Raw end-to-end samples of one untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// One set-up time per repetition, in s.
    pub setup_s: Vec<f64>,
    /// Request-to-explanations latency of every explain, in ms.
    pub explain_ms: Vec<f64>,
    /// Ingest latency of every register, in ms.
    pub register_ms: Vec<f64>,
    /// Wall time the sequence spent in requests, in s.
    pub busy_s: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("setup_s", median(&self.setup_s)),
            ("explain_p50_ms", median(&self.explain_ms)),
            ("explain_p90_ms", quantile(&self.explain_ms, 0.9)),
            (
                "explains_per_s",
                crate::stats::ratio(self.explain_ms.len() as f64, self.busy_s),
            ),
            ("register_p50_ms", median(&self.register_ms)),
            ("peak_rss_mb", proc_status_kb("VmHWM") / 1024.0),
        ])
    }
}

/// What the process prints as its last line.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Pick `catalogue`'s metrics out of `values`; an absent metric reads 0
    /// (the layer does not run on this workload).
    pub fn new(
        mismatches: &[String],
        attempted: u64,
        failed_untyped: u64,
        failed: u64,
        catalogue: &[(&'static str, &'static str)],
        values: &BTreeMap<&'static str, f64>,
    ) -> Outcome {
        for m in mismatches {
            eprintln!("perfbench: MISMATCH {m}");
        }
        // A mismatched explanation counts as a failed op.
        Outcome {
            correct: mismatches.is_empty() && failed_untyped == 0,
            attempted: attempted.max(1),
            failed: failed + mismatches.len() as u64,
            metrics: catalogue
                .iter()
                .map(|&(name, unit)| {
                    let v = values.get(name).copied().unwrap_or(0.0);
                    (name, if v.is_finite() { v } else { 0.0 }, unit)
                })
                .collect(),
        }
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A field of `/proc/self/status` in kB (`VmHWM`, `VmRSS`); 0 where the
/// file is unavailable.
pub fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Hand memory the allocator holds but no longer uses back to the
/// system, so the resident set tracks live data instead of allocator
/// retention.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // releases free heap pages; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Current resident set size in MB.
pub fn rss_mb() -> f64 {
    proc_status_kb("VmRSS") / 1024.0
}

/// A fixed single-threaded CPU loop, timed in ms. It does the same work on
/// every run, so it moves only when the host does.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..black_box(20_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Host witness over a whole run: calibration samples taken at its start
/// and end.
#[derive(Debug, Default)]
pub struct HostWitness(Vec<f64>);

impl HostWitness {
    pub fn sample(&mut self) {
        for _ in 0..3 {
            self.0.push(calib_ms());
        }
    }

    pub fn ms(&self) -> f64 {
        median(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogues here and `BENCHMARK.json` must name the same metrics.
    #[test]
    fn catalogues_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let parsed = fedex_serve::json::parse(spec).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            parsed
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn outcome_prints_every_metric() {
        let values = BTreeMap::from([("setup_s", 1.5)]);
        let o = Outcome::new(&[], 0, 0, 0, &END_TO_END, &values);
        let json = fedex_serve::json::parse(&o.to_json()).expect("valid JSON");
        assert_eq!(json.get("attempted").and_then(|v| v.as_usize()), Some(1));
        let metrics = json.get("metrics").expect("metrics");
        for (name, _) in END_TO_END {
            assert!(metrics.get(name).is_some(), "{name} missing");
        }
    }
}
