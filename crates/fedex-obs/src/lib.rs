//! Observability primitives for the FEDEX serving stack.
//!
//! This crate is dependency-free and std-only. It provides:
//!
//! * [`Histogram`] — lock-free log-linear latency histograms
//!   (microsecond resolution, ≤12.5% quantile error, mergeable
//!   [`HistSnapshot`]s);
//! * [`Obs`] — the per-process hub: one histogram per wire command and
//!   per pipeline stage, the heavy queue's admission wait and service
//!   time, plus the flight recorder and trace-id minting;
//! * [`FlightRecorder`] — an always-on bounded ring of recent request
//!   events, dumpable after the fact to explain an `inc-…` incident id;
//! * [`prom`] — Prometheus text exposition writer and a validating
//!   parser (used by CI's `promcheck`).
//!
//! The serving layer (`fedex-serve`) owns all recording call sites;
//! `fedex-core` stays independent of this crate and surfaces its
//! per-stage timings and cache hit/miss through `StageReport`.

#![deny(missing_docs)]

pub mod hist;
pub mod prom;
pub mod recorder;

pub use hist::{HistSnapshot, Histogram, NUM_BUCKETS, SUB_BUCKETS};
pub use prom::{validate_exposition, Exposition, PromWriter, Sample};
pub use recorder::{Event, FlightRecorder, DEFAULT_RECORDER_CAPACITY};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The wire commands that get their own latency series. Unknown or
/// malformed commands fold into `other`.
pub const WIRE_COMMANDS: &[&str] = &[
    "ping",
    "register",
    "register_demo",
    "explain",
    "history",
    "sessions",
    "metrics",
    "debug_dump",
    "shutdown",
    "other",
];

/// Pipeline stage names, in execution order, then `Results`: the one
/// stage of an explain answered from the artifact cache's results (must
/// match the `StageReport::stage` labels produced by the core).
pub const STAGES: &[&str] = &[
    "ScoreColumns",
    "PartitionRows",
    "Contribute",
    "Skyline",
    "Present",
    "Results",
];

/// Scheduler queue classes. Only heavy work (`explain`, `register`,
/// `register_demo`) queues; every other command is answered on its
/// connection thread.
pub const CLASSES: &[&str] = &["heavy"];

/// Index of `cmd` in [`WIRE_COMMANDS`] (`other` when unknown).
pub fn command_index(cmd: &str) -> usize {
    WIRE_COMMANDS
        .iter()
        .position(|&c| c == cmd)
        .unwrap_or(WIRE_COMMANDS.len() - 1)
}

/// Render a trace id the way it appears on the wire (`t-` + 16 hex
/// digits).
pub fn trace_id_str(id: u64) -> String {
    format!("t-{id:016x}")
}

/// Parse a wire-format trace id (`t-…`) back to its numeric form.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("t-")?, 16).ok()
}

/// Request-scoped trace context: a process-unique id plus the span
/// clock it was minted on. Threaded from admission through the
/// scheduler into the pipeline so every event and span of one request
/// shares an id.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx {
    /// Process-unique trace id (never 0).
    pub id: u64,
    /// When the request entered the system (admission time).
    pub started: Instant,
}

/// The per-process observability hub. Cheap to share (`Arc<Obs>`); all
/// recording methods take `&self` and are lock-free except the flight
/// recorder's per-slot lock.
#[derive(Debug)]
pub struct Obs {
    commands: Vec<Histogram>,
    admission_wait: Histogram,
    service_time: Histogram,
    stages: Vec<Histogram>,
    recorder: FlightRecorder,
    next_trace: AtomicU64,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A hub with the default flight-recorder capacity.
    pub fn new() -> Self {
        Obs::with_recorder_capacity(DEFAULT_RECORDER_CAPACITY)
    }

    /// A hub whose flight recorder holds `capacity` events.
    pub fn with_recorder_capacity(capacity: usize) -> Self {
        Obs {
            commands: WIRE_COMMANDS.iter().map(|_| Histogram::new()).collect(),
            admission_wait: Histogram::new(),
            service_time: Histogram::new(),
            stages: STAGES.iter().map(|_| Histogram::new()).collect(),
            recorder: FlightRecorder::with_capacity(capacity),
            next_trace: AtomicU64::new(1),
        }
    }

    /// Mint a fresh request trace context (ids are dense and never 0).
    pub fn mint_trace(&self) -> TraceCtx {
        TraceCtx {
            id: self.next_trace.fetch_add(1, Ordering::Relaxed),
            started: Instant::now(),
        }
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Record one wire command's end-to-end handling time.
    pub fn record_command(&self, cmd: &str, d: Duration) {
        self.commands[command_index(cmd)].record_duration(d);
    }

    /// Record time a heavy job spent queued before dispatch.
    pub fn record_admission_wait(&self, d: Duration) {
        self.admission_wait.record_duration(d);
    }

    /// Record time a heavy job spent executing after dispatch.
    pub fn record_service_time(&self, d: Duration) {
        self.service_time.record_duration(d);
    }

    /// Record one pipeline stage duration (`stage` must be one of
    /// [`STAGES`]; unknown stages are ignored).
    pub fn record_stage(&self, stage: &str, d: Duration) {
        if let Some(i) = STAGES.iter().position(|&s| s == stage) {
            self.stages[i].record_duration(d);
        }
    }

    /// Snapshot every per-command histogram, labelled.
    pub fn command_snapshots(&self) -> Vec<(&'static str, HistSnapshot)> {
        WIRE_COMMANDS
            .iter()
            .zip(self.commands.iter())
            .map(|(&name, h)| (name, h.snapshot()))
            .collect()
    }

    /// Snapshot the admission-wait histogram, labelled by class.
    pub fn admission_wait_snapshots(&self) -> Vec<(&'static str, HistSnapshot)> {
        CLASSES
            .iter()
            .map(|&name| (name, self.admission_wait.snapshot()))
            .collect()
    }

    /// Snapshot the service-time histogram, labelled by class.
    pub fn service_time_snapshots(&self) -> Vec<(&'static str, HistSnapshot)> {
        CLASSES
            .iter()
            .map(|&name| (name, self.service_time.snapshot()))
            .collect()
    }

    /// Snapshot the per-stage histograms, labelled by stage name.
    pub fn stage_snapshots(&self) -> Vec<(&'static str, HistSnapshot)> {
        STAGES
            .iter()
            .zip(self.stages.iter())
            .map(|(&name, h)| (name, h.snapshot()))
            .collect()
    }

    /// Sum of every per-command histogram count — by construction equal
    /// to the number of requests the service has counted (each counted
    /// request records exactly one command observation).
    pub fn total_command_observations(&self) -> u64 {
        self.commands.iter().map(|h| h.count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_dense_and_round_trip() {
        let obs = Obs::new();
        let a = obs.mint_trace();
        let b = obs.mint_trace();
        assert_eq!(b.id, a.id + 1);
        assert_ne!(a.id, 0);
        assert_eq!(parse_trace_id(&trace_id_str(a.id)), Some(a.id));
        assert_eq!(parse_trace_id("bogus"), None);
    }

    #[test]
    fn unknown_commands_fold_into_other() {
        let obs = Obs::new();
        obs.record_command("frobnicate", Duration::from_micros(5));
        obs.record_command("ping", Duration::from_micros(5));
        let snaps = obs.command_snapshots();
        assert_eq!(
            snaps.iter().find(|(n, _)| *n == "other").unwrap().1.count,
            1
        );
        assert_eq!(snaps.iter().find(|(n, _)| *n == "ping").unwrap().1.count, 1);
        assert_eq!(obs.total_command_observations(), 2);
    }

    #[test]
    fn stage_names_cover_the_pipeline() {
        let obs = Obs::new();
        for s in STAGES {
            obs.record_stage(s, Duration::from_micros(10));
        }
        obs.record_stage("NotAStage", Duration::from_micros(10));
        let total: u64 = obs.stage_snapshots().iter().map(|(_, s)| s.count).sum();
        assert_eq!(total, STAGES.len() as u64);
    }
}
