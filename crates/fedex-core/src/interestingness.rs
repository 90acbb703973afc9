//! Interestingness measures (§3.2): *exceptionality* (two-sample KS, Eq. 1)
//! for filter/join/union and *diversity* (coefficient of variation, Eq. 2)
//! for group-by.
//!
//! Scores are computed per output column. The optional [`Sample`] restricts
//! the computation to uniformly-sampled input rows (the FEDEX-Sampling
//! optimization of §3.7): the output side is restricted through row
//! provenance to the rows *produced by* the sampled input rows, which is
//! exactly `q` applied to the sample.
//!
//! Two implementations share this contract:
//!
//! * [`CodedScorer`] — the one the pipeline runs. Exceptionality runs on
//!   the dense dictionary codes of [`fedex_frame::codec`] through the
//!   shared [`ExcKernelCache`]: base histograms come straight from the
//!   encode pass, masked and provenance-restricted histograms are code
//!   scatter passes, and the KS statistic is one linear sweep in code
//!   order ([`crate::hist::ks_sub_counts`]). No boxed
//!   [`fedex_frame::Value`] is touched.
//! * [`score_column`] — the boxed [`ValueHist`]-based **reference
//!   implementation**. It stays public as the oracle the property tests
//!   and [`crate::ContributionComputer::contribution_by_rerun`] compare
//!   against; no explain path calls it. The two walk distinct values in
//!   the same order and apply identical floating-point operations, so
//!   they agree bit-for-bit (pinned by the `coded_scoring` property
//!   tests).

use fedex_frame::{CodedFrame, Column, DataFrame};
use fedex_query::{AggFunc, Aggregate, ExploratoryStep, Operation, Provenance};
use fedex_stats::descriptive::coefficient_of_variation;

use crate::hist::ValueHist;
use crate::kernel::ExcKernelCache;
use crate::Result;

/// Which interestingness measure to use for a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterestingnessKind {
    /// Deviation of the output column distribution from the input column
    /// distribution (two-sample KS). Default for filter, join, union.
    Exceptionality,
    /// Dispersion of the output column values (coefficient of variation).
    /// Default for group-by.
    Diversity,
}

impl InterestingnessKind {
    /// The paper's default measure for each operation (§3.2).
    pub fn default_for(op: &Operation) -> InterestingnessKind {
        match op {
            Operation::GroupBy { .. } => InterestingnessKind::Diversity,
            _ => InterestingnessKind::Exceptionality,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            InterestingnessKind::Exceptionality => "exceptionality",
            InterestingnessKind::Diversity => "diversity",
        }
    }
}

/// Uniform row sample over the step's inputs: one optional membership mask
/// per input dataframe (`None` = use all rows).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Per-input membership masks.
    pub input_masks: Vec<Option<Vec<bool>>>,
}

impl Sample {
    /// A sample that uses all rows of every input.
    pub fn full(n_inputs: usize) -> Self {
        Sample {
            input_masks: vec![None; n_inputs],
        }
    }

    /// Borrow input `idx`'s mask as a plain slice (`None` = all rows pass).
    ///
    /// Hot loops fetch the slice once and index it directly, instead of
    /// re-resolving the nested `Option<Vec<bool>>` (two branches and a
    /// bounds check on the outer vec) per row.
    #[inline]
    pub fn mask(&self, idx: usize) -> Option<&[bool]> {
        self.input_masks.get(idx).and_then(|m| m.as_deref())
    }

    /// True when input `idx` row `row` is in the sample.
    pub fn contains(&self, idx: usize, row: usize) -> bool {
        self.mask(idx).is_none_or(|m| m[row])
    }

    /// True when no input is actually sampled.
    pub fn is_full(&self) -> bool {
        self.input_masks.iter().all(Option::is_none)
    }
}

/// Histogram of a column restricted to rows where `mask` is true.
fn hist_masked(col: &Column, mask: Option<&[bool]>) -> ValueHist {
    match mask {
        None => ValueHist::from_column(col),
        Some(m) => {
            let mut h = ValueHist::new();
            for (i, v) in col.iter().enumerate() {
                if m[i] && !v.is_null() {
                    h.add(v, 1);
                }
            }
            h
        }
    }
}

/// Visit every output row produced exclusively by sampled input rows —
/// the provenance-side restriction of FEDEX-Sampling (§3.7). The single
/// home of the per-provenance sampling rules: filter and join check the
/// source row(s) against the input mask(s), union checks each row against
/// its source input's mask, and group-by output rows are groups (not
/// row-mapped), so all of them are visited.
pub fn for_each_sampled_out_row(step: &ExploratoryStep, sample: &Sample, mut f: impl FnMut(usize)) {
    match &step.provenance {
        Provenance::Filter { kept } => match sample.mask(0) {
            None => (0..kept.len()).for_each(f),
            Some(m) => {
                for (out_row, &in_row) in kept.iter().enumerate() {
                    if m[in_row] {
                        f(out_row);
                    }
                }
            }
        },
        Provenance::Join {
            left_rows,
            right_rows,
        } => {
            let (ml, mr) = (sample.mask(0), sample.mask(1));
            for out_row in 0..left_rows.len() {
                if ml.is_none_or(|m| m[left_rows[out_row]])
                    && mr.is_none_or(|m| m[right_rows[out_row]])
                {
                    f(out_row);
                }
            }
        }
        Provenance::Union { source_of_row } => {
            for (out_row, &(src, src_row)) in source_of_row.iter().enumerate() {
                if sample.contains(src, src_row) {
                    f(out_row);
                }
            }
        }
        Provenance::GroupBy { .. } => (0..step.output.n_rows()).for_each(f),
    }
}

/// Histogram of the output column restricted (through provenance) to the
/// rows produced by sampled input rows.
fn output_hist_sampled(step: &ExploratoryStep, column: &str, sample: &Sample) -> Result<ValueHist> {
    let col = step.output.column(column)?;
    if sample.is_full() {
        return Ok(ValueHist::from_column(col));
    }
    let mut h = ValueHist::new();
    for_each_sampled_out_row(step, sample, |out_row| {
        let v = col.get(out_row);
        if !v.is_null() {
            h.add(v, 1);
        }
    });
    Ok(h)
}

/// Find the aggregate spec producing output column `column`, if any.
fn aggregate_of_column<'a>(op: &'a Operation, column: &str) -> Option<&'a Aggregate> {
    match op {
        Operation::GroupBy { aggs, .. } => aggs.iter().find(|a| a.output_name() == column),
        _ => None,
    }
}

/// Recompute a group-by aggregate column over a row subset defined by
/// `keep`, using the step's group provenance. Returns one value per group;
/// groups with no kept rows yield `None` (the group disappears).
pub fn aggregate_over_rows(
    input: &DataFrame,
    group_of_row: &[Option<u32>],
    n_groups: usize,
    agg: &Aggregate,
    keep: &dyn Fn(usize) -> bool,
) -> Result<Vec<Option<f64>>> {
    let src = match agg.source_column() {
        Some(c) => Some(input.column(c)?),
        None => None,
    };
    let mut count = vec![0u64; n_groups];
    let mut sum = vec![0.0f64; n_groups];
    let mut min = vec![f64::INFINITY; n_groups];
    let mut max = vec![f64::NEG_INFINITY; n_groups];
    let mut present = vec![false; n_groups];
    for (i, g) in group_of_row.iter().enumerate() {
        let Some(g) = g else { continue };
        if !keep(i) {
            continue;
        }
        let g = *g as usize;
        present[g] = true;
        match (agg.func, src) {
            (AggFunc::Count, None) => count[g] += 1,
            (AggFunc::Count, Some(c)) => {
                if !c.is_null_at(i) {
                    count[g] += 1;
                }
            }
            (_, Some(c)) => {
                if let Some(x) = c.f64_at(i) {
                    count[g] += 1;
                    sum[g] += x;
                    if x < min[g] {
                        min[g] = x;
                    }
                    if x > max[g] {
                        max[g] = x;
                    }
                }
            }
            (_, None) => {}
        }
    }
    let mut out = Vec::with_capacity(n_groups);
    for g in 0..n_groups {
        if !present[g] {
            out.push(None);
            continue;
        }
        out.push(match agg.func {
            AggFunc::Count => Some(count[g] as f64),
            AggFunc::Sum => Some(sum[g]),
            AggFunc::Mean => {
                if count[g] == 0 {
                    None
                } else {
                    Some(sum[g] / count[g] as f64)
                }
            }
            AggFunc::Min => {
                if count[g] == 0 {
                    None
                } else {
                    Some(min[g])
                }
            }
            AggFunc::Max => {
                if count[g] == 0 {
                    None
                } else {
                    Some(max[g])
                }
            }
        });
    }
    Ok(out)
}

/// Score `I_A(Q)` for one output column (Eq. 1 / Eq. 2) through the boxed
/// [`ValueHist`] **reference path**. Returns `None` when the measure does
/// not apply to the column (e.g. diversity of a non-numeric column,
/// exceptionality of a column with no input counterpart).
///
/// The pipeline scores through [`CodedScorer`] instead; the two agree
/// bit-for-bit.
pub fn score_column(
    step: &ExploratoryStep,
    column: &str,
    kind: InterestingnessKind,
    sample: &Sample,
) -> Result<Option<f64>> {
    match kind {
        InterestingnessKind::Exceptionality => score_exceptionality(step, column, sample),
        InterestingnessKind::Diversity => score_diversity(step, column, sample),
    }
}

fn score_exceptionality(
    step: &ExploratoryStep,
    column: &str,
    sample: &Sample,
) -> Result<Option<f64>> {
    match &step.op {
        Operation::Union => {
            let out_hist = output_hist_sampled(step, column, sample)?;
            let mut best: Option<f64> = None;
            for (idx, input) in step.inputs.iter().enumerate() {
                if !input.has_column(column) {
                    continue;
                }
                let in_hist = hist_masked(input.column(column)?, sample.mask(idx));
                let ks = in_hist.ks(&out_hist);
                best = Some(best.map_or(ks, |b: f64| b.max(ks)));
            }
            Ok(best)
        }
        Operation::GroupBy { .. } => Ok(None),
        _ => {
            let Some((input_idx, src_col)) = step.source_of_output_column(column) else {
                return Ok(None);
            };
            let in_hist = hist_masked(
                step.inputs[input_idx].column(&src_col)?,
                sample.mask(input_idx),
            );
            let out_hist = output_hist_sampled(step, column, sample)?;
            Ok(Some(in_hist.ks(&out_hist)))
        }
    }
}

fn score_diversity(step: &ExploratoryStep, column: &str, sample: &Sample) -> Result<Option<f64>> {
    // Group-by aggregates are recomputed over the sample through
    // provenance; anything else takes the CV of the output column directly.
    if let (
        Operation::GroupBy { .. },
        Provenance::GroupBy {
            group_of_row,
            n_groups,
        },
    ) = (&step.op, &step.provenance)
    {
        if let Some(agg) = aggregate_of_column(&step.op, column) {
            if !sample.is_full() {
                let mask = sample.mask(0);
                let vals =
                    aggregate_over_rows(&step.inputs[0], group_of_row, *n_groups, agg, &|i| {
                        mask.is_none_or(|m| m[i])
                    })?;
                let xs: Vec<f64> = vals.into_iter().flatten().collect();
                return Ok(coefficient_of_variation(&xs));
            }
        }
    }
    let col = step.output.column(column)?;
    if !col.dtype().is_numeric() {
        return Ok(None);
    }
    // Non-aggregate columns of a sampled step use all output values
    // (group keys are cheap and sampling them would drop groups
    // arbitrarily).
    Ok(coefficient_of_variation(&col.numeric_values()))
}

/// The coded interestingness fast path over pre-encoded inputs.
///
/// Exceptionality consumes the [`ExcKernelCache`]: kernels (shared with
/// the Contribute stage) hold the base coded histograms, and sampled
/// scoring reduces to masked code-scatter passes plus one linear KS sweep.
/// Diversity delegates to the shared coefficient-of-variation path (its
/// hot loop aggregates through the typed, unboxed column accessors).
/// Results are bit-identical to [`score_column`].
pub struct CodedScorer<'a> {
    step: &'a ExploratoryStep,
    coded: &'a [CodedFrame],
    kernels: &'a ExcKernelCache,
}

impl<'a> CodedScorer<'a> {
    /// A scorer over `step` with its pre-encoded inputs and a (possibly
    /// shared, possibly empty) kernel cache.
    pub fn new(
        step: &'a ExploratoryStep,
        coded: &'a [CodedFrame],
        kernels: &'a ExcKernelCache,
    ) -> Self {
        CodedScorer {
            step,
            coded,
            kernels,
        }
    }

    /// Score one output column; same applicability contract as
    /// [`score_column`].
    pub fn score(
        &self,
        column: &str,
        kind: InterestingnessKind,
        sample: &Sample,
    ) -> Result<Option<f64>> {
        match kind {
            InterestingnessKind::Diversity => score_diversity(self.step, column, sample),
            InterestingnessKind::Exceptionality => {
                let Some(kernel) = self.kernels.get_or_build(self.step, column, self.coded)? else {
                    return Ok(None);
                };
                Ok(Some(if sample.is_full() {
                    kernel.base_score()
                } else {
                    kernel.sampled_score(self.step, sample)
                }))
            }
        }
    }
}

/// Score every output column of the step on the coded path, returning
/// `(column, score)` in output-schema order and skipping inapplicable
/// columns — the kernel behind the pipeline's ScoreColumns stage, mapped
/// per column under `mode`. `coded` are the step's pre-encoded inputs;
/// kernels built for scoring land in `kernels`, ready for reuse by the
/// Contribute stage.
pub fn score_all_columns_coded(
    step: &ExploratoryStep,
    coded: &[CodedFrame],
    kernels: &ExcKernelCache,
    kind: InterestingnessKind,
    sample: &Sample,
    mode: crate::pipeline::ExecutionMode,
) -> Result<Vec<(String, f64)>> {
    let fields: Vec<String> = step
        .output
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .collect();
    let scorer = CodedScorer::new(step, coded, kernels);
    let per_column =
        crate::pipeline::try_par_map(mode, &fields, |name| scorer.score(name, kind, sample))?;
    // Inapplicable columns and non-finite scores are dropped.
    Ok(fields
        .into_iter()
        .zip(per_column)
        .filter_map(|(name, s)| Some((name, s.filter(|v| v.is_finite())?)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedex_frame::Column;
    use fedex_query::Expr;

    fn spotify_like() -> DataFrame {
        // 20 rows: popularity high exactly for 2010s rows.
        let mut years = Vec::new();
        let mut decades = Vec::new();
        let mut pops = Vec::new();
        let mut loud = Vec::new();
        for i in 0..20 {
            if i < 5 {
                years.push(2011 + (i as i64 % 4));
                decades.push("2010s");
                pops.push(80);
                loud.push(-7.0 - 0.1 * i as f64);
            } else {
                years.push(1970 + (i as i64 % 20));
                decades.push("older");
                pops.push(30);
                loud.push(-11.0 - 0.1 * i as f64);
            }
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
    fn default_measure_per_operation() {
        assert_eq!(
            InterestingnessKind::default_for(&Operation::filter(
                Expr::col("x").gt(Expr::lit(0i64))
            )),
            InterestingnessKind::Exceptionality
        );
        assert_eq!(
            InterestingnessKind::default_for(&Operation::group_by(
                vec!["x"],
                vec![Aggregate::count(None)]
            )),
            InterestingnessKind::Diversity
        );
    }

    #[test]
    fn filter_exceptionality_flags_shifted_column() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap();
        let sample = Sample::full(1);
        let decade = score_column(
            &step,
            "decade",
            InterestingnessKind::Exceptionality,
            &sample,
        )
        .unwrap()
        .unwrap();
        // Filter keeps only 2010s rows → maximal deviation on 'decade'.
        assert!(decade > 0.7, "decade KS = {decade}");
        // Every output column is scored, and all scores are in [0, 1].
        for field in step.output.schema().fields() {
            let s = score_column(
                &step,
                &field.name,
                InterestingnessKind::Exceptionality,
                &sample,
            )
            .unwrap()
            .unwrap();
            assert!((0.0..=1.0).contains(&s), "{}: {s}", field.name);
        }
    }

    #[test]
    fn identity_filter_scores_zero() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").ge(Expr::lit(0i64))),
        )
        .unwrap();
        let s = score_column(
            &step,
            "decade",
            InterestingnessKind::Exceptionality,
            &Sample::full(1),
        )
        .unwrap()
        .unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn group_by_diversity_prefers_spread_column() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::group_by(
                vec!["decade"],
                vec![Aggregate::mean("loudness"), Aggregate::mean("popularity")],
            ),
        )
        .unwrap();
        let sample = Sample::full(1);
        let d_loud = score_column(
            &step,
            "mean_loudness",
            InterestingnessKind::Diversity,
            &sample,
        )
        .unwrap()
        .unwrap();
        let d_pop = score_column(
            &step,
            "mean_popularity",
            InterestingnessKind::Diversity,
            &sample,
        )
        .unwrap()
        .unwrap();
        assert!(d_loud > 0.0);
        assert!(d_pop > 0.0);
    }

    #[test]
    fn diversity_skips_non_numeric() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::group_by(vec!["decade"], vec![Aggregate::count(None)]),
        )
        .unwrap();
        let s = score_column(
            &step,
            "decade",
            InterestingnessKind::Diversity,
            &Sample::full(1),
        )
        .unwrap();
        assert!(s.is_none());
    }

    #[test]
    fn exceptionality_none_for_groupby() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::group_by(vec!["decade"], vec![Aggregate::count(None)]),
        )
        .unwrap();
        let s = score_column(
            &step,
            "count",
            InterestingnessKind::Exceptionality,
            &Sample::full(1),
        )
        .unwrap();
        assert!(s.is_none());
    }

    #[test]
    fn sampled_score_close_to_exact() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap();
        let exact = score_column(
            &step,
            "decade",
            InterestingnessKind::Exceptionality,
            &Sample::full(1),
        )
        .unwrap()
        .unwrap();
        // Sample 15 of 20 rows.
        let idx = fedex_stats::uniform_sample_indices(20, 15, 3);
        let mut mask = vec![false; 20];
        for i in idx {
            mask[i] = true;
        }
        let sample = Sample {
            input_masks: vec![Some(mask)],
        };
        let approx = score_column(
            &step,
            "decade",
            InterestingnessKind::Exceptionality,
            &sample,
        )
        .unwrap()
        .unwrap();
        assert!(
            (exact - approx).abs() < 0.2,
            "exact {exact} vs approx {approx}"
        );
    }

    /// An all-true mask is not `is_full()`, so it exercises the whole
    /// sampled machinery (masked histograms, provenance restriction) —
    /// which must then agree with full scoring to the bit, on both the
    /// boxed reference and the coded fast path.
    #[test]
    fn all_true_mask_equals_full_scoring() {
        for op in [
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
            Operation::group_by(vec!["decade"], vec![Aggregate::mean("loudness")]),
        ] {
            let step = ExploratoryStep::run(vec![spotify_like()], op).unwrap();
            let full = Sample::full(1);
            let all_true = Sample {
                input_masks: vec![Some(vec![true; 20])],
            };
            assert!(!all_true.is_full());
            let coded = vec![CodedFrame::encode(&step.inputs[0])];
            let kernels = ExcKernelCache::default();
            let scorer = CodedScorer::new(&step, &coded, &kernels);
            for kind in [
                InterestingnessKind::Exceptionality,
                InterestingnessKind::Diversity,
            ] {
                for field in step.output.schema().fields() {
                    let exact = score_column(&step, &field.name, kind, &full).unwrap();
                    let boxed = score_column(&step, &field.name, kind, &all_true).unwrap();
                    let coded_s = scorer.score(&field.name, kind, &all_true).unwrap();
                    assert_eq!(
                        exact.map(f64::to_bits),
                        boxed.map(f64::to_bits),
                        "boxed {} {:?}",
                        field.name,
                        kind
                    );
                    assert_eq!(
                        exact.map(f64::to_bits),
                        coded_s.map(f64::to_bits),
                        "coded {} {:?}",
                        field.name,
                        kind
                    );
                }
            }
        }
    }

    #[test]
    fn union_takes_max_over_inputs() {
        let a = DataFrame::new(vec![Column::from_ints("x", vec![1, 1, 1, 1])]).unwrap();
        let b = DataFrame::new(vec![Column::from_ints("x", vec![9, 9, 9, 9])]).unwrap();
        let step = ExploratoryStep::run(vec![a, b], Operation::Union).unwrap();
        let s = score_column(
            &step,
            "x",
            InterestingnessKind::Exceptionality,
            &Sample::full(2),
        )
        .unwrap()
        .unwrap();
        // Each input deviates from the 50/50 mix by 0.5.
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_over_rows_matches_full_output() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::group_by(vec!["decade"], vec![Aggregate::mean("loudness")]),
        )
        .unwrap();
        let Provenance::GroupBy {
            group_of_row,
            n_groups,
        } = &step.provenance
        else {
            panic!()
        };
        let agg = Aggregate::mean("loudness");
        let vals =
            aggregate_over_rows(&step.inputs[0], group_of_row, *n_groups, &agg, &|_| true).unwrap();
        let out_col = step.output.column("mean_loudness").unwrap();
        for (g, v) in vals.iter().enumerate() {
            let expected = out_col.get(g).as_f64().unwrap();
            assert!((v.unwrap() - expected).abs() < 1e-9);
        }
    }
}
