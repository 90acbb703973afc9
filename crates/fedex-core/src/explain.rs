//! The FEDEX explainer facade.
//!
//! Algorithm 1 itself lives in [`crate::pipeline`] as five explicit,
//! data-parallel stages (ScoreColumns → PartitionRows → Contribute →
//! Skyline → Present) with typed intermediate artifacts. This module
//! keeps the user-facing surface: [`FedexConfig`], [`Explanation`], the
//! [`CustomMeasure`] extension point, and the thin [`Fedex`] orchestrator
//! that wires a [`crate::pipeline::ExplainPipeline`] per call.

use std::fmt::Write as _;
use std::sync::Arc;

use fedex_query::ExploratoryStep;

use crate::cache::ArtifactCache;
use crate::interestingness::InterestingnessKind;
use crate::partition::{PartitionKind, RowPartition};
use crate::pipeline::{
    ExecutionMode, ExplainPipeline, PartitionRows, PipelineContext, ScoreColumns, Stage,
    StageReport,
};
use crate::viz::{write_json_number, write_json_string, Chart};
use crate::Result;

/// A user-defined interestingness measure (§3.8, "general interestingness
/// functions").
///
/// No properties (monotonicity, non-negativity, ...) are required. Scores
/// should be comparable across columns of one step; `None` marks columns
/// the measure does not apply to. Contribution under a custom measure uses
/// the literal Def. 3.3 re-run, so it is slower than the built-in
/// exceptionality/diversity kernels.
pub trait CustomMeasure {
    /// Measure name (used in diagnostics).
    fn name(&self) -> &str;
    /// Score `I_A(Q)` for one output column.
    fn score(&self, step: &ExploratoryStep, column: &str) -> Result<Option<f64>>;
}

/// Configuration of the FEDEX pipeline.
#[derive(Debug, Clone)]
pub struct FedexConfig {
    /// Set counts tried per partition method (the paper uses 5 and 10).
    pub set_counts: Vec<usize>,
    /// Number of most-interesting columns for which contributions are
    /// computed (the greedy step-1 cut of §4.3).
    pub top_k_columns: usize,
    /// `Some(n)` enables FEDEX-Sampling with a uniform sample of `n` input
    /// rows for interestingness scoring (§3.7); contribution is always
    /// exact. `None` is exact FEDEX.
    pub sample_size: Option<usize>,
    /// RNG seed for sampling and many-to-one mining.
    pub seed: u64,
    /// Restrict explanation to these output columns (§3.8,
    /// "user-specified columns"). `None` = all columns.
    pub target_columns: Option<Vec<String>>,
    /// Keep only this many explanations after weighted ranking (`None` =
    /// the full skyline).
    pub top_k_explanations: Option<usize>,
    /// Weight of interestingness in the post-skyline ranking (§3.7).
    pub w_interestingness: f64,
    /// Weight of standardized contribution in the post-skyline ranking.
    pub w_contribution: f64,
    /// Force a measure instead of the per-operation default (§3.8).
    pub measure_override: Option<InterestingnessKind>,
    /// How the pipeline's data-parallel stages execute (serial, one
    /// worker per core, or a fixed thread count). Results are identical
    /// under every mode.
    pub execution: ExecutionMode,
    /// Cross-request artifact cache consulted by the pipeline:
    /// content-fingerprinted inputs reuse their [`fedex_frame::CodedFrame`]
    /// and mined partitions instead of re-deriving them (see
    /// [`ArtifactCache`]). `None` (the default) re-derives everything per
    /// call; results are bit-identical either way.
    pub artifact_cache: Option<Arc<ArtifactCache>>,
    /// Cooperative cancellation handle checked at stage and work-unit
    /// boundaries (see [`crate::cancel`]). `None` (the default) runs to
    /// completion; an uncancelled token never changes the output.
    pub cancel: Option<crate::cancel::CancelToken>,
    /// Request trace id assigned by a serving layer, made visible to
    /// every stage through [`PipelineContext::trace_id`]
    /// (`crate::pipeline::PipelineContext`) so work units can tag
    /// diagnostics (panic messages, slow-query logs) with the request
    /// they belong to. `None` for library/CLI use; never affects
    /// results.
    pub trace_id: Option<u64>,
}

impl Default for FedexConfig {
    fn default() -> Self {
        FedexConfig {
            set_counts: vec![5, 10],
            top_k_columns: 3,
            sample_size: None,
            seed: 42,
            target_columns: None,
            top_k_explanations: None,
            w_interestingness: 1.0,
            w_contribution: 1.0,
            measure_override: None,
            execution: ExecutionMode::default(),
            artifact_cache: None,
            cancel: None,
            trace_id: None,
        }
    }
}

/// One explanation returned by FEDEX: the pair `(R, A)` with its quality
/// scores and presentation artifacts.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The explained output column `A`.
    pub column: String,
    /// The measure that scored `A`.
    pub measure: InterestingnessKind,
    /// `I_A(Q)`.
    pub interestingness: f64,
    /// Label of the set-of-rows `R` (a value, interval, or `B` value).
    pub set_label: String,
    /// The attribute the partition was derived from.
    pub partition_attr: String,
    /// The partition method.
    pub partition_kind: PartitionKind,
    /// Which input dataframe `R` lives in.
    pub input_idx: usize,
    /// Number of rows in `R`.
    pub set_size: usize,
    /// Raw contribution `C(R, A, Q)`.
    pub contribution: f64,
    /// Standardized contribution `C̄(R, A)`.
    pub std_contribution: f64,
    /// Weighted ranking score.
    pub score: f64,
    /// Natural-language caption.
    pub caption: String,
    /// Captioned visualization data.
    pub chart: Chart,
}

impl Explanation {
    /// Approximate size in bytes: the struct, its strings and its chart.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.column.len()
            + self.set_label.len()
            + self.partition_attr.len()
            + self.caption.len()
            + self.chart.approx_bytes()
    }

    /// Render caption + chart as terminal text.
    pub fn render_text(&self, width: usize) -> String {
        let mut out = String::new();
        self.write_text(&mut out, width);
        out
    }

    /// Append [`Explanation::render_text`]'s output to `out`.
    pub fn write_text(&self, out: &mut String, width: usize) {
        out.push_str(&self.caption);
        out.push_str("\n\n");
        self.chart.write_text(out, width);
    }

    /// Serialize to a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append [`Explanation::to_json`]'s output to `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"column\":");
        write_json_string(out, &self.column);
        out.push_str(",\"measure\":");
        write_json_string(out, self.measure.name());
        out.push_str(",\"interestingness\":");
        write_json_number(out, self.interestingness);
        out.push_str(",\"set_label\":");
        write_json_string(out, &self.set_label);
        out.push_str(",\"partition_attr\":");
        write_json_string(out, &self.partition_attr);
        out.push_str(",\"partition_kind\":");
        write_json_string(out, &self.partition_kind.name());
        let _ = write!(
            out,
            ",\"input_idx\":{},\"set_size\":{},\"contribution\":",
            self.input_idx, self.set_size
        );
        write_json_number(out, self.contribution);
        out.push_str(",\"std_contribution\":");
        write_json_number(out, self.std_contribution);
        out.push_str(",\"score\":");
        write_json_number(out, self.score);
        out.push_str(",\"caption\":");
        write_json_string(out, &self.caption);
        out.push_str(",\"chart\":");
        self.chart.write_json(out);
        out.push('}');
    }
}

/// The FEDEX explainer.
#[derive(Debug, Clone, Default)]
pub struct Fedex {
    config: FedexConfig,
}

impl Fedex {
    /// Exact FEDEX with default configuration.
    pub fn new() -> Self {
        Fedex {
            config: FedexConfig::default(),
        }
    }

    /// FEDEX-Sampling with the given interestingness sample size (the
    /// paper's recommended size is 5 000).
    pub fn sampling(sample_size: usize) -> Self {
        Fedex {
            config: FedexConfig {
                sample_size: Some(sample_size),
                ..Default::default()
            },
        }
    }

    /// Custom configuration.
    pub fn with_config(config: FedexConfig) -> Self {
        Fedex { config }
    }

    /// This explainer with a different [`ExecutionMode`].
    pub fn with_execution(mut self, execution: ExecutionMode) -> Self {
        self.config.execution = execution;
        self
    }

    /// This explainer consulting (and populating) a shared cross-request
    /// [`ArtifactCache`]: repeat explains over content-identical inputs
    /// skip encoding, repeat steps also skip kernel construction.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.config.artifact_cache = Some(cache);
        self
    }

    /// This explainer checking `cancel` at stage and work-unit
    /// boundaries: an expired or cancelled token makes `explain` return
    /// the typed [`crate::ExplainError::DeadlineExceeded`] /
    /// [`crate::ExplainError::Cancelled`] instead of finishing the run.
    pub fn with_cancel(mut self, cancel: crate::cancel::CancelToken) -> Self {
        self.config.cancel = Some(cancel);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &FedexConfig {
        &self.config
    }

    /// Mutable access to the configuration — the serving layer uses this
    /// to graft per-request state (sampling override, cancellation) onto
    /// a cloned explainer.
    pub fn config_mut(&mut self) -> &mut FedexConfig {
        &mut self.config
    }

    /// The measure used for this step.
    pub fn measure_for(&self, step: &ExploratoryStep) -> InterestingnessKind {
        self.config
            .measure_override
            .unwrap_or_else(|| InterestingnessKind::default_for(&step.op))
    }

    /// Step 1 of Algorithm 1: interestingness scores of the output columns,
    /// sorted descending (restricted to target columns when configured).
    ///
    /// Columns referenced by a filter predicate are excluded: the filter
    /// *constructs* their deviation, so explaining it is a tautology. This
    /// matches the paper's Example 3.2, where the top columns for
    /// `popularity > 65` are 'decade', 'year', 'loudness' — not
    /// 'popularity' itself.
    pub fn interesting_columns(&self, step: &ExploratoryStep) -> Result<Vec<(String, f64)>> {
        let ctx = PipelineContext::new(step, &self.config);
        Ok(ScoreColumns::builtin().run(&ctx, ())?.scores)
    }

    /// Step 2 of Algorithm 1: all row partitions of all inputs,
    /// deduplicated (see [`PartitionRows`]). Step 1 runs first: it encodes
    /// the inputs that partition mining reads.
    pub fn build_partitions(&self, step: &ExploratoryStep) -> Result<Vec<RowPartition>> {
        let ctx = PipelineContext::new(step, &self.config);
        let scored = ScoreColumns::builtin().run(&ctx, ())?;
        Ok(PartitionRows { extra: Vec::new() }
            .run(&ctx, scored)?
            .partitions)
    }

    /// Run the full pipeline and return the ranked skyline explanations.
    pub fn explain(&self, step: &ExploratoryStep) -> Result<Vec<Explanation>> {
        ExplainPipeline::new(step, &self.config).run()
    }

    /// [`Fedex::explain`], additionally reporting per-stage wall-clock
    /// timings.
    pub fn explain_traced(
        &self,
        step: &ExploratoryStep,
    ) -> Result<(Vec<Explanation>, Vec<StageReport>)> {
        ExplainPipeline::new(step, &self.config).run_traced()
    }

    /// [`Fedex::explain`] with additional user-defined partitions (§3.8,
    /// "custom partitioning of rows"). The extra partitions must satisfy
    /// Def. 3.8 over the step's inputs (validated by the PartitionRows
    /// stage); they are used *alongside* the automatically mined ones.
    pub fn explain_with_partitions(
        &self,
        step: &ExploratoryStep,
        extra_partitions: Vec<RowPartition>,
    ) -> Result<Vec<Explanation>> {
        ExplainPipeline::new(step, &self.config)
            .with_extra_partitions(extra_partitions)
            .run()
    }

    /// [`Fedex::explain`] under a user-supplied interestingness measure
    /// (§3.8, "general interestingness functions"). No properties are
    /// required of the measure; contribution falls back to the literal
    /// Def. 3.3 re-run, so this path is slower than the built-ins.
    pub fn explain_with_measure(
        &self,
        step: &ExploratoryStep,
        measure: &dyn CustomMeasure,
    ) -> Result<Vec<Explanation>> {
        ExplainPipeline::new(step, &self.config)
            .with_measure(measure)
            .run()
    }
}

/// Pretty-print a list of explanations (convenience for notebooks/CLIs).
pub fn render_all(explanations: &[Explanation], width: usize) -> String {
    let mut out = String::new();
    for (i, e) in explanations.iter().enumerate() {
        let _ = writeln!(out, "── Explanation {} ──", i + 1);
        e.write_text(&mut out, width);
        out.push('\n');
    }
    out
}

/// Serialize a list of explanations as a JSON array.
pub fn to_json_array(explanations: &[Explanation]) -> String {
    let mut out = String::from("[");
    for (i, e) in explanations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        e.write_json(&mut out);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExplainError;
    use fedex_frame::{Column, DataFrame};
    use fedex_query::{Aggregate, Expr, Operation};

    /// 2010s songs are popular; 1990s songs are quiet — both planted
    /// patterns FEDEX must surface.
    fn spotify_like() -> DataFrame {
        let mut years = Vec::new();
        let mut decades = Vec::new();
        let mut pops = Vec::new();
        let mut loud = Vec::new();
        for i in 0..200i64 {
            let (y, d) = match i % 4 {
                0 => (2010 + (i % 5), "2010s"),
                1 => (1990 + (i % 8), "1990s"),
                2 => (1970 + (i % 10), "1970s"),
                _ => (1980 + (i % 10), "1980s"),
            };
            let pop = if d == "2010s" {
                70 + (i % 25)
            } else {
                20 + (i % 30)
            };
            let l = if d == "1990s" {
                -12.0 + 0.01 * (i % 7) as f64
            } else {
                -7.0 - 0.01 * (i % 9) as f64
            };
            years.push(y);
            decades.push(d);
            pops.push(pop);
            loud.push(l);
        }
        DataFrame::new(vec![
            Column::from_ints("year", years),
            Column::from_strs("decade", decades),
            Column::from_ints("popularity", pops),
            Column::from_floats("loudness", loud),
        ])
        .unwrap()
    }

    #[test]
    fn explains_filter_with_planted_pattern() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap();
        let ex = Fedex::new().explain(&step).unwrap();
        assert!(!ex.is_empty());
        let top = &ex[0];
        assert_eq!(top.measure, InterestingnessKind::Exceptionality);
        // The filter column itself is never explained (tautology).
        assert!(ex.iter().all(|e| e.column != "popularity"));
        assert!(top.interestingness > 0.3);
        assert!(top.contribution > 0.0);
        assert!(!top.caption.is_empty());
        assert!(!top.chart.bars.is_empty());
        // The planted pattern must surface: some explanation of the
        // 'decade' column highlights the 2010s set.
        let found = ex
            .iter()
            .any(|e| e.column == "decade" && e.set_label.contains("2010s"));
        assert!(
            found,
            "explanations: {:?}",
            ex.iter()
                .map(|e| (&e.column, &e.set_label))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn explains_group_by_with_planted_pattern() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::group_by(vec!["year"], vec![Aggregate::mean("loudness")]),
        )
        .unwrap();
        let ex = Fedex::new().explain(&step).unwrap();
        assert!(!ex.is_empty());
        let loudness_ex = ex.iter().find(|e| e.column == "mean_loudness");
        assert!(
            loudness_ex.is_some(),
            "expected an explanation for mean_loudness"
        );
        let e = loudness_ex.unwrap();
        assert_eq!(e.measure, InterestingnessKind::Diversity);
        // The quiet decade should be the highlighted set on some
        // explanation for this column.
        let found_1990s = ex
            .iter()
            .any(|e| e.column == "mean_loudness" && e.set_label.contains("1990"));
        assert!(
            found_1990s,
            "explanations: {:?}",
            ex.iter()
                .map(|e| (&e.column, &e.set_label))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn serial_and_parallel_explanations_are_identical() {
        for op in [
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
            Operation::group_by(vec!["year"], vec![Aggregate::mean("loudness")]),
        ] {
            let step = ExploratoryStep::run(vec![spotify_like()], op).unwrap();
            let serial = Fedex::new()
                .with_execution(ExecutionMode::Serial)
                .explain(&step)
                .unwrap();
            let threads = Fedex::new()
                .with_execution(ExecutionMode::Threads(4))
                .explain(&step)
                .unwrap();
            assert_eq!(serial.len(), threads.len());
            for (a, b) in serial.iter().zip(&threads) {
                assert_eq!(a.column, b.column);
                assert_eq!(a.set_label, b.set_label);
                assert_eq!(a.interestingness.to_bits(), b.interestingness.to_bits());
                assert_eq!(a.contribution.to_bits(), b.contribution.to_bits());
                assert_eq!(a.std_contribution.to_bits(), b.std_contribution.to_bits());
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.caption, b.caption);
            }
        }
    }

    #[test]
    fn traced_run_reports_all_stages() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap();
        let (ex, trace) = Fedex::new().explain_traced(&step).unwrap();
        assert!(!ex.is_empty());
        let names: Vec<&str> = trace.iter().map(|r| r.stage).collect();
        assert_eq!(
            names,
            vec![
                "ScoreColumns",
                "PartitionRows",
                "Contribute",
                "Skyline",
                "Present"
            ]
        );
        assert_eq!(trace.last().unwrap().items, ex.len());
        assert!(trace.iter().all(|r| !r.describe().is_empty()));
    }

    #[test]
    fn no_explanation_without_positive_contribution() {
        // An identity filter: nothing deviates, contributions are 0.
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").ge(Expr::lit(0i64))),
        )
        .unwrap();
        let ex = Fedex::new().explain(&step).unwrap();
        assert!(ex.is_empty());
    }

    #[test]
    fn target_columns_restrict_output() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap();
        let fedex = Fedex::with_config(FedexConfig {
            target_columns: Some(vec!["loudness".to_string()]),
            ..Default::default()
        });
        let ex = fedex.explain(&step).unwrap();
        assert!(ex.iter().all(|e| e.column == "loudness"));

        let bad = Fedex::with_config(FedexConfig {
            target_columns: Some(vec!["nope".to_string()]),
            ..Default::default()
        });
        assert!(matches!(
            bad.explain(&step),
            Err(ExplainError::UnknownColumn(_))
        ));
    }

    #[test]
    fn top_k_explanations_truncates() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap();
        let fedex = Fedex::with_config(FedexConfig {
            top_k_explanations: Some(1),
            ..Default::default()
        });
        assert_eq!(fedex.explain(&step).unwrap().len(), 1);
    }

    #[test]
    fn sampling_matches_exact_on_small_data() {
        // When the sample size exceeds the data, FEDEX-Sampling must equal
        // exact FEDEX bit-for-bit.
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap();
        let exact = Fedex::new().explain(&step).unwrap();
        let sampled = Fedex::sampling(10_000).explain(&step).unwrap();
        assert_eq!(exact.len(), sampled.len());
        for (a, b) in exact.iter().zip(&sampled) {
            assert_eq!(a.column, b.column);
            assert_eq!(a.set_label, b.set_label);
        }
    }

    #[test]
    fn sampling_skyline_close_to_exact() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap();
        let exact = Fedex::new().explain(&step).unwrap();
        let sampled = Fedex::sampling(120).explain(&step).unwrap();
        assert!(!sampled.is_empty());
        // Top explanation identity is stable under sampling here.
        assert_eq!(exact[0].set_label, sampled[0].set_label);
    }

    #[test]
    fn explanations_render_and_serialize() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap();
        let ex = Fedex::new().explain(&step).unwrap();
        let text = render_all(&ex, 40);
        assert!(text.contains("Explanation 1"));
        let json = to_json_array(&ex);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"caption\""));
    }

    #[test]
    fn expired_deadline_aborts_with_typed_error() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap();
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let token = crate::cancel::CancelToken::with_deadline(past);
        let r = Fedex::new().with_cancel(token).explain(&step);
        assert!(matches!(r, Err(ExplainError::DeadlineExceeded)), "{r:?}");

        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let r = Fedex::new().with_cancel(token).explain(&step);
        assert!(matches!(r, Err(ExplainError::Cancelled)), "{r:?}");

        // An untripped token changes nothing.
        let live = crate::cancel::CancelToken::new();
        let with_token = Fedex::new().with_cancel(live).explain(&step).unwrap();
        let plain = Fedex::new().explain(&step).unwrap();
        assert_eq!(with_token.len(), plain.len());
        for (a, b) in with_token.iter().zip(&plain) {
            assert_eq!(a.caption, b.caption);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn empty_output_yields_no_explanations() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(99999i64))),
        )
        .unwrap();
        let ex = Fedex::new().explain(&step).unwrap();
        assert!(ex.is_empty());
    }
}
