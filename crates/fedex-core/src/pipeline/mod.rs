//! The staged FEDEX pipeline engine.
//!
//! Algorithm 1 of the paper, decomposed into five explicit [`Stage`]
//! units with typed intermediate [`artifacts`]:
//!
//! ```text
//! ()  ──ScoreColumns──▶ ScoredColumns      (step 1: interestingness)
//!     ──PartitionRows─▶ Partitioned        (step 2: row partitions)
//!     ──Contribute────▶ Contributed        (step 3: contribution)
//!     ──Skyline───────▶ Ranked             (step 4: skyline + ranking)
//!     ──Present───────▶ Vec<Explanation>   (step 5: captions + charts)
//! ```
//!
//! A [`PipelineContext`] carries the step, configuration, measure, and
//! sampling masks through every stage. Stages are data-parallel where the
//! paper's algorithm is embarrassingly parallel — over `(input, column)`
//! pairs in `ScoreColumns`, over `(input, attribute)` pairs in
//! `PartitionRows`, and over flattened `(partition, column)` work units
//! in `Contribute` (with the skyline fused in: units stream their
//! candidates into an incremental dominance check as they finish, a unit
//! whose best possible point is already dominated is skipped, and
//! leftover threads shard the per-slot sweep *inside* a kernel when
//! units alone cannot fill the budget) — scheduled by [`par::par_map`]
//! under the [`ExecutionMode`] chosen in
//! [`FedexConfig::execution`](crate::FedexConfig). Results are identical
//! under every mode: parallel maps preserve input order, per-slot counts
//! are schedule-independent, and strict dominance is schedule-independent, so the
//! skyline, the ranking and the explanations are bit-for-bit the same.
//! Only the count of candidates Contribute builds can vary with the
//! schedule under more than one thread.
//!
//! Each stage consumes exactly what the previous one produced: the coded
//! inputs ScoreColumns encodes are the run's only encode, and the skyline
//! Contribute streams is the one Skyline ranks. A stage run by hand needs
//! the real upstream artifact, so run the stages before it.
//!
//! [`ExplainPipeline`] is the orchestrator used by
//! [`Fedex::explain`](crate::Fedex::explain); it can also report
//! per-stage wall-clock timings ([`ExplainPipeline::run_traced`]) for the
//! CLI and the benchmark harness.

pub mod artifacts;
pub mod par;
pub mod stages;

use std::time::{Duration, Instant};

use fedex_query::ExploratoryStep;

use crate::explain::{CustomMeasure, Explanation, FedexConfig};
use crate::interestingness::{InterestingnessKind, Sample};
use crate::kernel::FanOut;
use crate::partition::RowPartition;
use crate::Result;
use fedex_stats::sampling::uniform_sample_indices;

pub use artifacts::{Candidate, Contributed, Partitioned, Ranked, ScoredColumns};
pub use par::{par_map, try_par_map, ExecutionMode};
pub use stages::{Contribute, Contributor, PartitionRows, Present, ScoreColumns, Scorer, Skyline};

/// Read-only context threaded through every stage of one `explain` run.
#[derive(Debug)]
pub struct PipelineContext<'a> {
    /// The exploratory step being explained.
    pub step: &'a ExploratoryStep,
    /// The active configuration.
    pub config: &'a FedexConfig,
    /// The interestingness measure for this step (override or
    /// per-operation default).
    pub kind: InterestingnessKind,
    /// Lazily-drawn sampling masks — only ScoreColumns reads them, so
    /// e.g. a standalone PartitionRows run never pays for mask
    /// construction over large inputs.
    sample: std::sync::OnceLock<Sample>,
    /// How many output rows each input row sources, per input, built on
    /// first use and shared by Contribute and Present.
    pub(crate) fan_out: std::sync::Arc<FanOut>,
}

impl<'a> PipelineContext<'a> {
    /// Build the context for one run: resolve the measure; sampling masks
    /// are drawn on first use.
    pub fn new(step: &'a ExploratoryStep, config: &'a FedexConfig) -> Self {
        let kind = config
            .measure_override
            .unwrap_or_else(|| InterestingnessKind::default_for(&step.op));
        PipelineContext {
            step,
            config,
            kind,
            sample: std::sync::OnceLock::new(),
            fan_out: std::sync::Arc::new(FanOut::new(step.inputs.len())),
        }
    }

    /// The execution mode stages should schedule their parallel loops
    /// under.
    pub fn mode(&self) -> ExecutionMode {
        self.config.execution
    }

    /// Row-sampling masks (FEDEX-Sampling, §3.7); full when disabled.
    /// Drawn once, on first use.
    pub fn sample(&self) -> &Sample {
        self.sample
            .get_or_init(|| build_sample(self.step, self.config))
    }

    /// The request trace id assigned by a serving layer (`None` for
    /// library/CLI runs). Stages and work units may tag diagnostics
    /// with it; it never affects results.
    pub fn trace_id(&self) -> Option<u64> {
        self.config.trace_id
    }

    /// Cooperative cancellation checkpoint: `Ok(())` when no token is
    /// configured or the run may continue, the typed error otherwise.
    /// Stages call this at their own unit boundaries; the orchestrator
    /// calls it between stages.
    pub fn check_cancel(&self) -> Result<()> {
        match &self.config.cancel {
            None => Ok(()),
            Some(token) => token.check(),
        }
    }
}

/// Per-input sampling masks for interestingness scoring.
fn build_sample(step: &ExploratoryStep, config: &FedexConfig) -> Sample {
    let Some(k) = config.sample_size else {
        return Sample::full(step.inputs.len());
    };
    let masks = step
        .inputs
        .iter()
        .enumerate()
        .map(|(i, df)| {
            let n = df.n_rows();
            if n <= k {
                None
            } else {
                let mut mask = vec![false; n];
                for idx in uniform_sample_indices(n, k, config.seed.wrapping_add(i as u64)) {
                    mask[idx] = true;
                }
                Some(mask)
            }
        })
        .collect();
    Sample { input_masks: masks }
}

/// One unit of Algorithm 1: consumes the previous artifact, produces the
/// next.
pub trait Stage {
    /// Artifact consumed.
    type Input;
    /// Artifact produced.
    type Output;

    /// Stage name for traces and diagnostics.
    fn name(&self) -> &'static str;

    /// Execute the stage.
    fn run(&self, ctx: &PipelineContext<'_>, input: Self::Input) -> Result<Self::Output>;
}

/// Wall-clock report for one executed stage.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage name.
    pub stage: &'static str,
    /// Time spent in the stage.
    pub elapsed: Duration,
    /// Number of artifact items the stage produced (columns, partitions,
    /// candidates, skyline entries, explanations).
    pub items: usize,
    /// Sub-phase timings within the stage — ScoreColumns reports its
    /// `encode` vs `score` split; other stages have none.
    pub sub: Vec<(&'static str, Duration)>,
    /// Cache artifacts the stage consulted, as `(artifact, hit)` pairs —
    /// when an [`ArtifactCache`](crate::ArtifactCache) is configured,
    /// ScoreColumns reports one `frame[i]` entry per input and
    /// PartitionRows one `partitions[i]` entry per input; other stages (and uncached runs) report none. A session
    /// step answered from the cache's results reports a single `Results`
    /// stage with a `results` entry (see [`crate::session`]).
    pub artifacts: Vec<(String, bool)>,
}

impl StageReport {
    /// `"ScoreColumns: 12 items in 3.4ms (encode 1.1ms, score 2.3ms)"`.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "{}: {} items in {:.1?}",
            self.stage, self.items, self.elapsed
        );
        if !self.sub.is_empty() {
            let parts: Vec<String> = self
                .sub
                .iter()
                .map(|(name, d)| format!("{name} {d:.1?}"))
                .collect();
            s.push_str(&format!(" ({})", parts.join(", ")));
        }
        s
    }
}

/// Orchestrator for one explanation run: builds the context, wires the
/// five stages, and returns the ranked explanations.
pub struct ExplainPipeline<'a> {
    ctx: PipelineContext<'a>,
    extra_partitions: Vec<RowPartition>,
    measure: Option<&'a dyn CustomMeasure>,
}

impl<'a> ExplainPipeline<'a> {
    /// A pipeline over `step` under `config`.
    pub fn new(step: &'a ExploratoryStep, config: &'a FedexConfig) -> Self {
        ExplainPipeline {
            ctx: PipelineContext::new(step, config),
            extra_partitions: Vec::new(),
            measure: None,
        }
    }

    /// Use additional user-defined partitions alongside the mined ones
    /// (§3.8, "custom partitioning of rows").
    pub fn with_extra_partitions(mut self, extra: Vec<RowPartition>) -> Self {
        self.extra_partitions = extra;
        self
    }

    /// Score columns and compute contributions under a user-supplied
    /// interestingness measure (§3.8, "general interestingness
    /// functions"); contribution is the literal Def. 3.3 re-run
    /// ([`ExploratoryStep::rerun_without`]), the pipeline's only one.
    pub fn with_measure(mut self, measure: &'a dyn CustomMeasure) -> Self {
        self.measure = Some(measure);
        self
    }

    /// The resolved context (exposed for stage-level callers and tests).
    pub fn context(&self) -> &PipelineContext<'a> {
        &self.ctx
    }

    /// Run all five stages and return the ranked skyline explanations.
    pub fn run(self) -> Result<Vec<Explanation>> {
        self.execute(None)
    }

    /// [`ExplainPipeline::run`], additionally reporting per-stage
    /// wall-clock timings.
    pub fn run_traced(self) -> Result<(Vec<Explanation>, Vec<StageReport>)> {
        let mut trace = Vec::with_capacity(5);
        let ex = self.execute(Some(&mut trace))?;
        Ok((ex, trace))
    }

    fn execute(self, mut trace: Option<&mut Vec<StageReport>>) -> Result<Vec<Explanation>> {
        let ctx = &self.ctx;
        let score = match self.measure {
            None => ScoreColumns::builtin(),
            Some(m) => ScoreColumns::custom(m),
        };
        let contributor = match self.measure {
            None => Contributor::Incremental,
            Some(m) => Contributor::Custom(m),
        };

        let timer = |trace: &mut Option<&mut Vec<StageReport>>,
                     stage: &'static str,
                     start: Instant,
                     items: usize,
                     sub: Vec<(&'static str, Duration)>,
                     artifacts: Vec<(String, bool)>| {
            if let Some(t) = trace {
                t.push(StageReport {
                    stage,
                    elapsed: start.elapsed(),
                    items,
                    sub,
                    artifacts,
                });
            }
        };

        ctx.check_cancel()?;
        let t0 = Instant::now();
        let scored = score.run(ctx, ())?;
        timer(
            &mut trace,
            score.name(),
            t0,
            scored.scores.len(),
            scored.timings.clone(),
            scored.cache_events.clone(),
        );
        if scored.top.is_empty() {
            return Ok(Vec::new());
        }

        let partition = PartitionRows {
            extra: self.extra_partitions,
        };
        ctx.check_cancel()?;
        let t0 = Instant::now();
        let partitioned = partition.run(ctx, scored)?;
        timer(
            &mut trace,
            partition.name(),
            t0,
            partitioned.partitions.len(),
            Vec::new(),
            partitioned.cache_events.clone(),
        );

        let contribute = Contribute { contributor };
        ctx.check_cancel()?;
        let t0 = Instant::now();
        let contributed = contribute.run(ctx, partitioned)?;
        timer(
            &mut trace,
            contribute.name(),
            t0,
            contributed.candidates.len(),
            Vec::new(),
            Vec::new(),
        );
        if contributed.candidates.is_empty() {
            return Ok(Vec::new());
        }

        let skyline = Skyline;
        ctx.check_cancel()?;
        let t0 = Instant::now();
        let ranked = skyline.run(ctx, contributed)?;
        timer(
            &mut trace,
            skyline.name(),
            t0,
            ranked.order.len(),
            Vec::new(),
            Vec::new(),
        );

        let present = Present;
        ctx.check_cancel()?;
        let t0 = Instant::now();
        let explanations = present.run(ctx, ranked)?;
        timer(
            &mut trace,
            present.name(),
            t0,
            explanations.len(),
            Vec::new(),
            Vec::new(),
        );

        Ok(explanations)
    }
}
