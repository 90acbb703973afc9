//! Workload-generator DSL, deterministic trace files, and the replay
//! engine that scores a live `fedex-serve` instance against them.
//!
//! The pipeline has three stages, each a submodule:
//!
//! 1. [`dsl`] — a seeded, composable spec: dataset steps (sample /
//!    filter / mutate / chunk over the bundled generators), a query mix
//!    spanning all four provenance kinds of §3.1 (filter, group-by,
//!    join, union), and client behavior (sessions, think time,
//!    deadlines, retries, zipf-skewed table popularity).
//!    [`WorkloadSpec::compile`] expands the spec into a trace.
//! 2. [`trace`] — the NDJSON trace file: a self-describing header
//!    (schema version, seed, generator config) followed by one
//!    operation per line. Parsing is strict: unknown op kinds, unknown
//!    fields, and unsupported versions are typed [`WorkloadError`]s,
//!    never panics, so schema drift fails loudly instead of replaying
//!    garbage.
//! 3. [`mod@replay`] + [`report`] — drive the trace against a server with
//!    one thread per simulated client (in-process or `--addr`), score
//!    the run from the wire responses and the Prometheus surface, and
//!    evaluate the machine-checkable **frontier gate**: zero untyped
//!    failures, per-command counts conserve, all configured provenance
//!    kinds got an answer, and a same-seed re-run is response-identical
//!    for every explain.
//!
//! Everything downstream of the seed is deterministic: the spec owns a
//! [`SplitMix64`] stream, think times are sampled at compile time into
//! the trace, and the replayer adds no randomness of its own — which is
//! what makes the differential gate meaningful.

pub mod dsl;
pub mod replay;
pub mod report;
pub mod trace;

pub use dsl::{BaseDataset, ClientBehavior, DatasetSpec, DatasetStep, QueryMix, WorkloadSpec};
pub use replay::{replay, OpResult, ReplayConfig, ReplayRun};
pub use report::{differential_violations, frontier_violations, report_json};
pub use trace::{Trace, TraceHeader, TraceOp, TRACE_MAGIC, TRACE_VERSION};

use std::fmt;

/// Typed failure of trace generation, parsing, or replay setup.
///
/// Forward compatibility is deliberate: a trace written by a *newer*
/// generator must be rejected ([`WorkloadError::UnsupportedVersion`],
/// [`WorkloadError::UnknownOpKind`], …) rather than half-replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// Header `version` is not [`TRACE_VERSION`].
    UnsupportedVersion {
        /// The version the file declared.
        found: u64,
    },
    /// Header carried a field this reader does not know.
    UnknownHeaderField {
        /// The offending key.
        field: String,
    },
    /// An op line's `op` value names no known operation.
    UnknownOpKind {
        /// The offending kind.
        kind: String,
    },
    /// A known op carried a field this reader does not know.
    UnknownOpField {
        /// The op kind.
        op: String,
        /// The offending key.
        field: String,
    },
    /// A required field is absent or has the wrong type.
    MissingField {
        /// The op kind (or `"header"`).
        op: String,
        /// The missing key.
        field: String,
    },
    /// The file is not a trace at all (bad JSON, no header line, …).
    Malformed(String),
    /// The spec cannot compile (e.g. join weight with no joinable pair).
    InvalidSpec(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported trace version {found} (reader supports {TRACE_VERSION})"
                )
            }
            WorkloadError::UnknownHeaderField { field } => {
                write!(f, "unknown trace header field {field:?}")
            }
            WorkloadError::UnknownOpKind { kind } => write!(f, "unknown trace op kind {kind:?}"),
            WorkloadError::UnknownOpField { op, field } => {
                write!(f, "unknown field {field:?} on op {op:?}")
            }
            WorkloadError::MissingField { op, field } => {
                write!(f, "op {op:?} lacks required field {field:?}")
            }
            WorkloadError::Malformed(why) => write!(f, "malformed trace: {why}"),
            WorkloadError::InvalidSpec(why) => write!(f, "invalid workload spec: {why}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// SplitMix64 — the 64-bit seeded stream every compile-time choice
/// draws from. Small, allocation-free, and stable across platforms;
/// the trace format depends on this exact sequence, so it must never
/// change under a given [`TRACE_VERSION`].
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[lo, hi)`; returns `lo` when the range is empty.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly chosen element; panics on an empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.gen_range(0, xs.len() as u64) as usize]
    }

    /// Index drawn from explicit weights (zipf popularity is expressed
    /// this way); panics when all weights are zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "pick_weighted needs a positive weight");
        let mut x = self.gen_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // First draw of seed 42 is pinned: the trace format depends on it.
        assert_eq!(xs[0], 13679457532755275413);
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn weighted_pick_respects_zeros() {
        let mut r = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(r.pick_weighted(&[0.0, 1.0, 0.0]), 1);
        }
    }
}
