//! # fedex-core
//!
//! The FEDEX explainability framework (Deutch, Gilad, Milo, Mualem, Somech —
//! VLDB 2022): given an exploratory step `Q = (D_in, q, d_out)`, produce
//! captioned explanations of *why the step's result is interesting*, as
//! sets-of-rows of the input that contribute most to the interestingness of
//! an output column.
//!
//! Pipeline (Algorithm 1 of the paper):
//!
//! 1. **Interestingness** (§3.2, [`interestingness`]) — exceptionality
//!    (two-sample KS) for filter/join/union; diversity (coefficient of
//!    variation) for group-by.
//! 2. **Row partitions** (§3.5, [`partition`]) — frequency-based, numeric
//!    equal-frequency bins, and mined many-to-one partitions.
//! 3. **Contribution** (§3.3, [`contribution`]) — intervention-based
//!    `C(R, A, Q)`, computed incrementally through row provenance.
//! 4. **Skyline** (§3.6, [`skyline`]) — non-dominated candidates in
//!    (interestingness, standardized contribution).
//! 5. **Presentation** (§3.7, [`caption`], [`viz`]) — NL captions and
//!    bar-chart visualizations.
//!
//! Entry point: [`Fedex::explain`]. The `sample_size` configuration enables
//! FEDEX-Sampling (§3.7). Algorithm 1 executes as an explicit staged
//! engine — see [`pipeline`] — whose data-parallel stages are controlled
//! by [`FedexConfig::execution`].

pub mod cache;
pub mod cancel;
pub mod caption;
pub mod contribution;
pub mod error;
pub mod explain;
pub mod hist;
pub mod interestingness;
pub mod kernel;
pub mod measures_ext;
pub mod partition;
pub mod pipeline;
pub mod session;
pub mod skyline;
pub mod viz;

pub use cache::{ArtifactCache, CacheMetrics, DEFAULT_CACHE_BUDGET};
pub use cancel::CancelToken;
pub use contribution::{max_standardized, standardized, ContributionComputer};
pub use error::ExplainError;
pub use explain::{render_all, to_json_array, CustomMeasure, Explanation, Fedex, FedexConfig};
pub use hist::{ks_sub_counts, CodedHist, ValueHist};
pub use interestingness::{
    for_each_sampled_out_row, score_all_columns_coded, score_column, CodedScorer,
    InterestingnessKind, Sample,
};
pub use kernel::ExcKernelCache;
pub use measures_ext::{Compactness, Surprisingness};
pub use partition::{
    build_partitions_for_attr, frequency_partition, frequency_partition_coded,
    many_to_one_partitions, many_to_one_partitions_coded, mine_input_partitions, numeric_partition,
    numeric_partition_coded, PartitionKind, RowPartition, RowSetIndex, SetMeta, IGNORE,
};
pub use pipeline::{ExecutionMode, ExplainPipeline, PipelineContext, Stage, StageReport};
pub use session::{
    Session, SessionEntry, SessionManager, SessionStats, StepSummary, RESULTS_STAGE, SESSION_BUDGET,
};
// Re-exported for the serving layer: degraded (FEDEX-Sampling) responses
// report this bound without a direct fedex-stats dependency.
pub use fedex_stats::sampling::sampling_error_bound;
pub use skyline::{skyline_indices, weighted_score, StreamingSkyline};
pub use viz::{
    write_json_number, write_json_string, write_stage_trace_json, Bar, Chart, ChartKind, MAX_WIDTH,
};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, ExplainError>;
