//! Typed intermediate artifacts flowing between pipeline stages.
//!
//! Each stage consumes the previous stage's artifact by value and wraps it
//! (no clones), so the chain
//! `ScoredColumns → Partitioned → Contributed → Ranked → Vec<Explanation>`
//! is fully typed: a stage can only run after everything it needs exists.

use std::sync::Arc;
use std::time::Duration;

use fedex_frame::CodedFrame;

use crate::kernel::ExcKernelCache;
use crate::partition::RowPartition;

/// The coded input columns of one step (one [`CodedFrame`] per input
/// dataframe), encoded once in the ScoreColumns stage and shared — via
/// `Arc`, never cloned — with PartitionRows (partition mining on codes)
/// and Contribute (histogram kernels on codes). Downstream stages read
/// these codes and never encode.
pub type CodedInputs = Arc<Vec<CodedFrame>>;

/// Output of the **ScoreColumns** stage: interestingness of every
/// applicable output column (Algorithm 1, step 1).
#[derive(Debug, Clone)]
pub struct ScoredColumns {
    /// All applicable `(column, I_A(Q))` pairs, sorted by score descending
    /// (ties broken by column name) — after predicate-column exclusion and
    /// target-column restriction.
    pub scores: Vec<(String, f64)>,
    /// The `top_k_columns` cut of `scores`: the columns for which
    /// contributions are computed (the greedy step-1 cut of §4.3).
    pub top: Vec<(String, f64)>,
    /// Dictionary-coded views of the step's inputs, shared downstream.
    pub coded: CodedInputs,
    /// Per-column exceptionality kernels built while scoring, pruned to
    /// the `top` columns and handed to the Contribute stage — base
    /// histograms and provenance gathers are never recomputed.
    pub kernels: Arc<ExcKernelCache>,
    /// Sub-phase wall-clock timings of the stage (`encode` vs `score`),
    /// surfaced through [`StageReport::sub`](crate::pipeline::StageReport).
    pub timings: Vec<(&'static str, Duration)>,
    /// Cross-request cache consultations, as `(artifact, hit)` pairs —
    /// one `frame[i]` entry per input when an
    /// [`ArtifactCache`](crate::ArtifactCache) is configured; empty on
    /// uncached runs. Surfaced through
    /// [`StageReport::artifacts`](crate::pipeline::StageReport).
    pub cache_events: Vec<(String, bool)>,
}

/// Output of the **Partition** stage: mined (and user-supplied) row
/// partitions of every input (Algorithm 1, step 2).
#[derive(Debug, Clone)]
pub struct Partitioned {
    /// Upstream artifact, passed through.
    pub scored: ScoredColumns,
    /// All candidate partitions, deduplicated.
    pub partitions: Vec<RowPartition>,
    /// Cross-request cache consultations, as `(artifact, hit)` pairs —
    /// one `partitions[i]` entry per input when an
    /// [`ArtifactCache`](crate::ArtifactCache) is configured; empty on
    /// uncached runs.
    pub cache_events: Vec<(String, bool)>,
}

/// One explanation candidate: a `(set-of-rows, column)` pair with its raw
/// and standardized contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Index into [`Partitioned::partitions`].
    pub partition: usize,
    /// Set index within that partition (never the ignore-set).
    pub slot: usize,
    /// Index into [`ScoredColumns::top`].
    pub column: usize,
    /// Raw contribution `C(R, A, Q)` (Def. 3.3).
    pub raw: f64,
    /// Standardized contribution `C̄(R, A)` (§3.6).
    pub std: f64,
}

/// Output of the **Contribute** stage: all candidates with positive raw
/// contribution of every unit not pruned by the skyline bound
/// (Algorithm 1, step 3).
#[derive(Debug, Clone)]
pub struct Contributed {
    /// Upstream artifact, passed through.
    pub scored: ScoredColumns,
    /// Upstream partitions, passed through.
    pub partitions: Vec<RowPartition>,
    /// Positive-contribution candidates of every `(partition, column)`
    /// unit not pruned by the skyline bound, in (partition, column, slot)
    /// order. A pruned unit could only have added dominated candidates,
    /// so the skyline is that of the exhaustive list; how many units are
    /// pruned can vary with the schedule under `Threads(n > 1)`.
    pub candidates: Vec<Candidate>,
    /// Indices into `candidates` of the skyline, computed *streaming*
    /// while contribution work units finished (the fused
    /// Contribute→Skyline path); the Skyline stage only ranks it.
    /// Sorted ascending, so it is deterministic regardless of work-unit
    /// completion order.
    pub skyline: Vec<usize>,
}

/// Output of the **Skyline** stage: the non-dominated candidates ranked by
/// weighted score (Algorithm 1, step 4).
#[derive(Debug, Clone)]
pub struct Ranked {
    /// Upstream artifact, passed through.
    pub scored: ScoredColumns,
    /// Upstream partitions, passed through.
    pub partitions: Vec<RowPartition>,
    /// Upstream candidates, passed through.
    pub candidates: Vec<Candidate>,
    /// Indices into `candidates`: the skyline, sorted by weighted score
    /// descending (stable, so input order breaks ties deterministically).
    pub order: Vec<usize>,
}
