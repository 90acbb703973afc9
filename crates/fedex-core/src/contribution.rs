//! Contribution of sets-of-rows (Def. 3.3) and standardized contribution
//! (§3.6).
//!
//! `C(R, A, Q) = I_A(D_in, q, d_out) − I_A(D_in − R, q, d'_out)`: remove the
//! set, re-apply the operation, re-measure. A naive implementation re-runs
//! `q` once per set-of-rows; [`ContributionComputer`] instead exploits row
//! provenance to compute every intervention *incrementally*:
//!
//! * **exceptionality** — removing `R` shifts the input and output value
//!   histograms by the value counts of `R` (and of the output rows `R`
//!   produced), so each intervention is a histogram subtraction;
//! * **diversity of a group-by** — one pass accumulates per-set × per-group
//!   partial aggregates; each intervention recombines the partials of all
//!   *other* sets (leave-one-out), which also handles groups that
//!   disappear;
//! * **diversity of a filter, join or union** — these operations keep the
//!   output rows that survive `q(D_in − R)` in their original order, so
//!   the intervention's output column is this one without the rows `R`
//!   sourced (found through provenance).
//!
//! [`ContributionComputer::contribution_by_rerun`] is Def. 3.3 verbatim,
//! through [`ExploratoryStep::rerun_without`] and the boxed
//! [`score_column`]. It is the reference the property tests compare every
//! incremental path against; the explain pipeline never calls it.
//!
//! # The coded fast path
//!
//! Exceptionality contributions run entirely on the dense dictionary
//! codes of [`fedex_frame::codec`], through the per-column kernels of
//! [`crate::kernel`]: one `ExcKernel` per measured column, cached in a
//! shared [`ExcKernelCache`] — so the kernels the ScoreColumns stage
//! built while scoring are reused here verbatim, and evaluating one
//! partition is one pass over each slot's rows of the partition's CSR
//! index, filling its input and output counts at once (weighted by the
//! step's fan-out), plus a KS sweep, schedulable across worker threads via
//! [`ContributionComputer::with_intra_mode`] (see the module docs of
//! [`crate::kernel`]). No boxed `Value` anywhere.

use std::sync::Arc;

use fedex_frame::CodedFrame;
use fedex_query::{AggFunc, ExploratoryStep, Operation, Provenance};
use fedex_stats::descriptive::{coefficient_of_variation, mean_and_std};

use crate::interestingness::{score_column, InterestingnessKind, Sample};
use crate::kernel::{ExcKernelCache, FanOut};
use crate::partition::RowPartition;
use crate::pipeline::par::ExecutionMode;
use crate::Result;

/// Computes per-set contributions for one exploratory step.
pub struct ContributionComputer<'a> {
    step: &'a ExploratoryStep,
    kind: InterestingnessKind,
    /// The step's inputs, one [`CodedFrame`] per input dataframe, in order.
    coded: Arc<Vec<CodedFrame>>,
    /// Per-column exceptionality kernels, built once and shared across
    /// partitions, worker threads — and, via [`Self::with_shared`], with
    /// the ScoreColumns stage that already built them while scoring.
    kernels: Arc<ExcKernelCache>,
    /// Per-input fan-out of the step, built on first use and shared with
    /// the Present stage of the same explain.
    fan_out: Arc<FanOut>,
    /// Execution mode of the *intra-partition* fill/sweep passes (see [`Self::with_intra_mode`]). `Serial` by default: the
    /// pipeline's Contribute stage already parallelizes across
    /// `(partition, column)` work units, so intra-partition sharding is
    /// only turned on when those units cannot saturate the thread budget.
    intra_mode: ExecutionMode,
}

impl<'a> ContributionComputer<'a> {
    /// Build a computer for `step` under measure `kind`, encoding each
    /// input once.
    pub fn new(step: &'a ExploratoryStep, kind: InterestingnessKind) -> Self {
        let coded = step.inputs.iter().map(CodedFrame::encode).collect();
        let fan_out = Arc::new(FanOut::new(step.inputs.len()));
        Self::with_shared(step, kind, Arc::new(coded), Arc::default(), fan_out)
    }

    /// A computer over already-encoded inputs (one [`CodedFrame`] per
    /// input dataframe, in order), a possibly pre-populated kernel cache
    /// and the explain's fan-out table — the pipeline hands over the codes
    /// and kernels the ScoreColumns stage built while scoring, so no input
    /// is encoded and no base histogram is gathered twice.
    pub(crate) fn with_shared(
        step: &'a ExploratoryStep,
        kind: InterestingnessKind,
        coded: Arc<Vec<CodedFrame>>,
        kernels: Arc<ExcKernelCache>,
        fan_out: Arc<FanOut>,
    ) -> Self {
        ContributionComputer {
            step,
            kind,
            coded,
            kernels,
            fan_out,
            intra_mode: ExecutionMode::Serial,
        }
    }

    /// This computer with the exceptionality fill/KS passes sharded
    /// *within* each partition under `mode` (contiguous slot ranges — see
    /// [`crate::kernel`]). Results are bit-identical under every mode;
    /// `Serial` (the default) has zero scheduling overhead.
    pub fn with_intra_mode(mut self, mode: ExecutionMode) -> Self {
        self.intra_mode = mode;
        self
    }

    /// Raw contribution `C(R_s, A, Q)` for every set of `partition`
    /// (ignore-set last when non-empty — it participates in
    /// standardization but never becomes a candidate).
    ///
    /// Returns `None` when the measure does not apply to `column`.
    pub fn contributions(
        &self,
        partition: &RowPartition,
        column: &str,
    ) -> Result<Option<Vec<f64>>> {
        match self.kind {
            InterestingnessKind::Exceptionality => {
                self.exceptionality_contributions(partition, column)
            }
            InterestingnessKind::Diversity => self.diversity_contributions(partition, column),
        }
    }

    // ------------------------------------------------ exceptionality ----

    fn exceptionality_contributions(
        &self,
        partition: &RowPartition,
        column: &str,
    ) -> Result<Option<Vec<f64>>> {
        let Some(kernel) = self.kernels.get_or_build(self.step, column, &self.coded)? else {
            return Ok(None);
        };
        Ok(Some(kernel.contributions(
            self.step,
            partition,
            &self.fan_out,
            self.intra_mode,
        )))
    }

    // ----------------------------------------------------- diversity ----

    fn diversity_contributions(
        &self,
        partition: &RowPartition,
        column: &str,
    ) -> Result<Option<Vec<f64>>> {
        let step = self.step;
        let (
            Operation::GroupBy { aggs, .. },
            Provenance::GroupBy {
                group_of_row,
                n_groups,
            },
        ) = (&step.op, &step.provenance)
        else {
            return self.diversity_of_surviving_rows(partition, column);
        };
        let out_col = step.output.column(column)?;
        if !out_col.dtype().is_numeric() {
            return Ok(None);
        }
        let n_groups = *n_groups;
        let n_slots = partition.n_slots();
        let agg = aggs.iter().find(|a| a.output_name() == column);

        // One pass: per-slot × per-group partials.
        let src_col = match agg {
            Some(a) => match a.source_column() {
                Some(c) => Some(step.inputs[0].column(c)?),
                None => None,
            },
            None => None,
        };
        let idx = |s: usize, g: usize| s * n_groups + g;
        let mut rows = vec![0u64; n_slots * n_groups];
        let mut vcount = vec![0u64; n_slots * n_groups];
        let mut vsum = vec![0.0f64; n_slots * n_groups];
        let mut vmin = vec![f64::INFINITY; n_slots * n_groups];
        let mut vmax = vec![f64::NEG_INFINITY; n_slots * n_groups];
        // Slot by slot, rows ascending within each: every accumulator
        // belongs to one slot, so it sums in row order.
        let index = partition.rows_by_set();
        for s in 0..n_slots {
            for &row in index.rows_of_slot(s) {
                let row = row as usize;
                let Some(g) = group_of_row[row] else { continue };
                let k = idx(s, g as usize);
                rows[k] += 1;
                if let Some(c) = src_col {
                    if let Some(x) = c.f64_at(row) {
                        vcount[k] += 1;
                        vsum[k] += x;
                        if x < vmin[k] {
                            vmin[k] = x;
                        }
                        if x > vmax[k] {
                            vmax[k] = x;
                        }
                    }
                } else if agg.is_some() {
                    // bare count: every row counts
                    vcount[k] += 1;
                }
            }
        }

        // Totals per group.
        let mut tot_rows = vec![0u64; n_groups];
        let mut tot_count = vec![0u64; n_groups];
        let mut tot_sum = vec![0.0f64; n_groups];
        for s in 0..n_slots {
            for g in 0..n_groups {
                tot_rows[g] += rows[idx(s, g)];
                tot_count[g] += vcount[idx(s, g)];
                tot_sum[g] += vsum[idx(s, g)];
            }
        }

        // Base interestingness: CV over the actual output column.
        let base_i = match coefficient_of_variation(&out_col.numeric_values()) {
            Some(v) => v,
            None => return Ok(None),
        };

        // Group key values (for key-column diversity) come straight from
        // the output column.
        let key_values: Vec<Option<f64>> = (0..n_groups).map(|g| out_col.f64_at(g)).collect();

        let needs_minmax = matches!(agg.map(|a| a.func), Some(AggFunc::Min) | Some(AggFunc::Max));
        let mut out = Vec::with_capacity(n_slots);
        for s in 0..n_slots {
            let mut values: Vec<f64> = Vec::with_capacity(n_groups);
            for g in 0..n_groups {
                let remaining_rows = tot_rows[g] - rows[idx(s, g)];
                if remaining_rows == 0 {
                    continue; // group disappears
                }
                match agg {
                    None => {
                        // Key column: its value is unchanged while the
                        // group survives.
                        if let Some(v) = key_values[g] {
                            values.push(v);
                        }
                    }
                    Some(a) => {
                        let rem_count = tot_count[g] - vcount[idx(s, g)];
                        match a.func {
                            AggFunc::Count => values.push(rem_count as f64),
                            AggFunc::Sum => values.push(tot_sum[g] - vsum[idx(s, g)]),
                            AggFunc::Mean => {
                                if rem_count > 0 {
                                    values.push((tot_sum[g] - vsum[idx(s, g)]) / rem_count as f64);
                                }
                            }
                            AggFunc::Min | AggFunc::Max => {
                                if rem_count > 0 && needs_minmax {
                                    let mut acc = if a.func == AggFunc::Min {
                                        f64::INFINITY
                                    } else {
                                        f64::NEG_INFINITY
                                    };
                                    for s2 in 0..n_slots {
                                        if s2 == s || vcount[idx(s2, g)] == 0 {
                                            continue;
                                        }
                                        acc = if a.func == AggFunc::Min {
                                            acc.min(vmin[idx(s2, g)])
                                        } else {
                                            acc.max(vmax[idx(s2, g)])
                                        };
                                    }
                                    if acc.is_finite() {
                                        values.push(acc);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let reduced_i = coefficient_of_variation(&values).unwrap_or(0.0);
            out.push(base_i - reduced_i);
        }
        Ok(Some(out))
    }

    /// Diversity outside group-by. Filter, join and union keep the output
    /// rows that survive `q(D_in − R)` in their original order, so each
    /// slot's CV is taken over the output values the slot's rows did not
    /// source, gathered in output-row order: bit-identical to the re-run.
    fn diversity_of_surviving_rows(
        &self,
        partition: &RowPartition,
        column: &str,
    ) -> Result<Option<Vec<f64>>> {
        let out_col = self.step.output.column(column)?;
        if !out_col.dtype().is_numeric() {
            return Ok(None);
        }
        let Some(base_i) = coefficient_of_variation(&out_col.numeric_values()) else {
            return Ok(None);
        };
        // The slot behind each output row; a row another union input
        // sourced is in none (`usize::MAX`).
        let mut slot_of_row = vec![usize::MAX; self.step.output.n_rows()];
        let sourced = self.fan_out.of(self.step, partition.input_idx);
        for s in 0..partition.n_slots() {
            for &r in partition.rows_by_set().rows_of_slot(s) {
                let out_rows = sourced.out_rows(r as usize);
                out_rows.iter().for_each(|&o| slot_of_row[o as usize] = s);
            }
        }
        let valued: Vec<(usize, f64)> = slot_of_row
            .iter()
            .enumerate()
            .filter_map(|(row, &slot)| Some((slot, out_col.f64_at(row)?)))
            .collect();
        let out = (0..partition.n_slots())
            .map(|s| {
                let values: Vec<f64> = valued
                    .iter()
                    .filter(|&&(slot, _)| slot != s)
                    .map(|&(_, x)| x)
                    .collect();
                base_i - coefficient_of_variation(&values).unwrap_or(0.0)
            })
            .collect();
        Ok(Some(out))
    }

    // ------------------------------------------------ naive baseline ----

    /// Ground-truth contribution by literally re-running the operation on
    /// `D_in − R` (Def. 3.3 verbatim, through
    /// [`ExploratoryStep::rerun_without`]; `set_rows` ascending) and
    /// re-scoring with the boxed [`score_column`]. The reference the tests
    /// validate the incremental kernels against.
    pub fn contribution_by_rerun(
        &self,
        input_idx: usize,
        set_rows: &[u32],
        column: &str,
    ) -> Result<Option<f64>> {
        let full = Sample::full(self.step.inputs.len());
        let Some(base) = score_column(self.step, column, self.kind, &full)? else {
            return Ok(None);
        };
        let reduced = self.step.rerun_without(input_idx, set_rows)?;
        Ok(Some(
            base - score_column(&reduced, column, self.kind, &full)?.unwrap_or(0.0),
        ))
    }
}

/// Standardized contribution `C̄(R, A) = (C − μ) / s` over the slots of one
/// partition (§3.6). A zero standard deviation yields all-zero scores.
///
/// Deviations from the exact mean sum to zero; those from the rounded `μ`
/// leave a drift. While the drift is at most `1e-10 · s` (any spread well
/// above rounding), the scores are the plain formula's. Otherwise the
/// spread is mostly rounding of `μ`: the drift is subtracted and `s`
/// measured again. Values equal up to rounding then score as equal, and
/// no score exceeds [`max_standardized`] by more than `1e-10` plus float
/// rounding.
pub fn standardized(raw: &[f64]) -> Vec<f64> {
    let (mu, mut sd) = mean_and_std(raw);
    let mut dev: Vec<f64> = raw.iter().map(|c| c - mu).collect();
    // A pass leaves only the rounding of the drift it removed, so one or
    // two passes settle; three bound the loop.
    for _ in 0..3 {
        if sd == 0.0 {
            return vec![0.0; raw.len()];
        }
        let drift = dev.iter().sum::<f64>() / dev.len() as f64;
        // False for non-finite input, which keeps the plain formula.
        if drift.abs() > 1e-10 * sd {
            dev.iter_mut().for_each(|d| *d -= drift);
            sd = (dev.iter().map(|d| d * d).sum::<f64>() / (dev.len() - 1) as f64).sqrt();
            continue;
        }
        dev.iter_mut().for_each(|d| *d /= sd);
        return dev;
    }
    // Still drifting: the spread cannot be told from rounding.
    vec![0.0; raw.len()]
}

/// The largest score [`standardized`] can give over `n` slots. It divides
/// by the sample standard deviation, so by Samuelson's inequality no
/// z-score exceeds `(n − 1)/√n`; one outlier against `n − 1` equal values
/// reaches it. Zero for `n < 2`, where every score is zero.
pub fn max_standardized(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let n = n as f64;
    (n - 1.0) / n.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{frequency_partition, many_to_one_partitions, numeric_partition};
    use fedex_frame::{Column, DataFrame};
    use fedex_query::{Aggregate, Expr};

    fn spotify_like() -> DataFrame {
        let mut years = Vec::new();
        let mut decades = Vec::new();
        let mut pops = Vec::new();
        let mut loud = Vec::new();
        for i in 0..40i64 {
            let (y, d, p, l) = if i < 10 {
                (
                    2010 + (i % 5),
                    "2010s",
                    70 + (i % 20),
                    -7.0 - 0.05 * i as f64,
                )
            } else if i < 20 {
                (
                    1990 + (i % 8),
                    "1990s",
                    30 + (i % 30),
                    -11.0 - 0.05 * i as f64,
                )
            } else {
                (
                    1970 + (i % 10),
                    "1970s",
                    20 + (i % 40),
                    -9.0 - 0.05 * i as f64,
                )
            };
            years.push(y);
            decades.push(d);
            pops.push(p);
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

    fn filter_step() -> ExploratoryStep {
        ExploratoryStep::run(
            vec![spotify_like()],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap()
    }

    #[test]
    fn incremental_matches_rerun_filter() {
        let step = filter_step();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Exceptionality);
        let p = frequency_partition(&step.inputs[0], 0, "decade", 3)
            .unwrap()
            .unwrap();
        let fast = cc.contributions(&p, "decade").unwrap().unwrap();
        for (s, &c_fast) in fast.iter().enumerate().take(p.n_sets()) {
            let rows = p.rows_by_set().rows_of(s as u32);
            let c_slow = cc
                .contribution_by_rerun(0, rows, "decade")
                .unwrap()
                .unwrap();
            assert!(
                (c_fast - c_slow).abs() < 1e-9,
                "set {s}: fast {c_fast} vs rerun {c_slow}"
            );
        }
    }

    #[test]
    fn incremental_matches_rerun_cross_column() {
        // Partition on 'decade', contribution to column 'year'.
        let step = filter_step();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Exceptionality);
        let p = frequency_partition(&step.inputs[0], 0, "decade", 3)
            .unwrap()
            .unwrap();
        let fast = cc.contributions(&p, "year").unwrap().unwrap();
        for (s, &c_fast) in fast.iter().enumerate().take(p.n_sets()) {
            let rows = p.rows_by_set().rows_of(s as u32);
            let c_slow = cc.contribution_by_rerun(0, rows, "year").unwrap().unwrap();
            assert!((c_fast - c_slow).abs() < 1e-9);
        }
    }

    #[test]
    fn dominant_set_has_top_contribution() {
        let step = filter_step();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Exceptionality);
        let p = frequency_partition(&step.inputs[0], 0, "decade", 3)
            .unwrap()
            .unwrap();
        let c = cc.contributions(&p, "decade").unwrap().unwrap();
        // The filter keeps mostly 2010s rows; removing them should hurt the
        // deviation most.
        let idx_2010s = p.sets.iter().position(|s| s.label == "2010s").unwrap();
        let best = c
            .iter()
            .take(p.n_sets())
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, idx_2010s);
    }

    fn groupby_step() -> ExploratoryStep {
        ExploratoryStep::run(
            vec![spotify_like()],
            Operation::group_by(vec!["year"], vec![Aggregate::mean("loudness")]),
        )
        .unwrap()
    }

    #[test]
    fn incremental_matches_rerun_groupby_mean() {
        let step = groupby_step();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Diversity);
        let p = many_to_one_partitions(&step.inputs[0], 0, "year", 5, 1)
            .unwrap()
            .into_iter()
            .next()
            .expect("decade is many-to-one with year");
        let fast = cc.contributions(&p, "mean_loudness").unwrap().unwrap();
        for (s, &c_fast) in fast.iter().enumerate().take(p.n_sets()) {
            let rows = p.rows_by_set().rows_of(s as u32);
            let c_slow = cc
                .contribution_by_rerun(0, rows, "mean_loudness")
                .unwrap()
                .unwrap();
            assert!(
                (c_fast - c_slow).abs() < 1e-9,
                "set {s}: fast {c_fast} vs rerun {c_slow}"
            );
        }
    }

    #[test]
    fn incremental_matches_rerun_groupby_all_aggs() {
        let step = ExploratoryStep::run(
            vec![spotify_like()],
            Operation::group_by(
                vec!["decade"],
                vec![
                    Aggregate::count(None),
                    Aggregate::sum("popularity"),
                    Aggregate::min("loudness"),
                    Aggregate::max("loudness"),
                ],
            ),
        )
        .unwrap();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Diversity);
        let p = numeric_partition(&step.inputs[0], 0, "popularity", 4)
            .unwrap()
            .unwrap();
        for col in ["count", "sum_popularity", "min_loudness", "max_loudness"] {
            let fast = cc.contributions(&p, col).unwrap().unwrap();
            for (s, &c_fast) in fast.iter().enumerate().take(p.n_sets()) {
                let rows = p.rows_by_set().rows_of(s as u32);
                let c_slow = cc.contribution_by_rerun(0, rows, col).unwrap().unwrap();
                assert!(
                    (c_fast - c_slow).abs() < 1e-9,
                    "{col} set {s}: fast {c_fast} vs rerun {c_slow}"
                );
            }
        }
    }

    #[test]
    fn incremental_matches_rerun_join_both_sides() {
        let products = DataFrame::new(vec![
            Column::from_ints("item", vec![1, 2, 3, 4]),
            Column::from_strs("cat", vec!["a", "a", "b", "b"]),
        ])
        .unwrap();
        let sales = DataFrame::new(vec![
            Column::from_ints("item", vec![1, 1, 1, 2, 3, 3]),
            Column::from_floats("total", vec![5.0, 6.0, 5.0, 9.0, 2.0, 2.5]),
        ])
        .unwrap();
        let step = ExploratoryStep::run(
            vec![products, sales],
            Operation::join("item", "item", "p", "s"),
        )
        .unwrap();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Exceptionality);

        // Partition the left side by category; measure contribution to a
        // right-side column.
        let p = frequency_partition(&step.inputs[0], 0, "cat", 2)
            .unwrap()
            .unwrap();
        let fast = cc.contributions(&p, "s_total").unwrap().unwrap();
        for (s, &c_fast) in fast.iter().enumerate().take(p.n_sets()) {
            let rows = p.rows_by_set().rows_of(s as u32);
            let c_slow = cc
                .contribution_by_rerun(0, rows, "s_total")
                .unwrap()
                .unwrap();
            assert!((c_fast - c_slow).abs() < 1e-9);
        }

        // Partition the right side; contribution to a left-side column.
        let p = numeric_partition(&step.inputs[1], 1, "total", 3)
            .unwrap()
            .unwrap();
        let fast = cc.contributions(&p, "p_cat").unwrap().unwrap();
        for (s, &c_fast) in fast.iter().enumerate().take(p.n_sets()) {
            let rows = p.rows_by_set().rows_of(s as u32);
            let c_slow = cc.contribution_by_rerun(1, rows, "p_cat").unwrap().unwrap();
            assert!((c_fast - c_slow).abs() < 1e-9);
        }
    }

    #[test]
    fn incremental_matches_rerun_union() {
        let a = spotify_like().head(15);
        let b = spotify_like();
        let step = ExploratoryStep::run(vec![a, b], Operation::Union).unwrap();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Exceptionality);
        let p = frequency_partition(&step.inputs[1], 1, "decade", 3)
            .unwrap()
            .unwrap();
        let fast = cc.contributions(&p, "decade").unwrap().unwrap();
        for (s, &c_fast) in fast.iter().enumerate().take(p.n_sets()) {
            let rows = p.rows_by_set().rows_of(s as u32);
            let c_slow = cc
                .contribution_by_rerun(1, rows, "decade")
                .unwrap()
                .unwrap();
            assert!((c_fast - c_slow).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_set_contributes_zero() {
        let step = filter_step();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Exceptionality);
        let c = cc.contribution_by_rerun(0, &[], "decade").unwrap().unwrap();
        assert!(c.abs() < 1e-12);
    }

    #[test]
    fn contribution_can_be_negative() {
        // The paper's example (§3.3): d_in = {(x,1),(x,2),(y,3)}, group-sum.
        // Removing (x,2) increases diversity → negative contribution.
        let df = DataFrame::new(vec![
            Column::from_strs("k", vec!["x", "x", "y"]),
            Column::from_ints("v", vec![1, 2, 3]),
        ])
        .unwrap();
        let step = ExploratoryStep::run(
            vec![df],
            Operation::group_by(vec!["k"], vec![Aggregate::sum("v")]),
        )
        .unwrap();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Diversity);
        let c = cc.contribution_by_rerun(0, &[1], "sum_v").unwrap().unwrap();
        assert!(c < 0.0, "removing (x,2) must increase diversity, C = {c}");
    }

    #[test]
    fn contribution_can_be_positive_groupby() {
        // Counterpart example: d_in = {(x,1),(x,1),(y,1)}, group-sum.
        // Removing one (x,1) flattens the sums → positive contribution.
        let df = DataFrame::new(vec![
            Column::from_strs("k", vec!["x", "x", "y"]),
            Column::from_ints("v", vec![1, 1, 1]),
        ])
        .unwrap();
        let step = ExploratoryStep::run(
            vec![df],
            Operation::group_by(vec!["k"], vec![Aggregate::sum("v")]),
        )
        .unwrap();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Diversity);
        let c = cc.contribution_by_rerun(0, &[1], "sum_v").unwrap().unwrap();
        assert!(
            c > 0.0,
            "removing one (x,1) must decrease diversity, C = {c}"
        );
    }

    #[test]
    fn standardized_contribution_properties() {
        let raw = vec![0.08, -0.01, -0.03, -0.04];
        let z = standardized(&raw);
        assert_eq!(z.len(), 4);
        // Mean ≈ 0 and the max raw value has the max standardized value.
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert_eq!(
            z.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0,
            0
        );
        // Degenerate: identical contributions → all zeros.
        assert_eq!(standardized(&[0.5, 0.5]), vec![0.0, 0.0]);
    }

    #[test]
    fn group_disappearance_handled() {
        // Partition exactly aligned with one group: removing the set kills
        // the whole group.
        let df = DataFrame::new(vec![
            Column::from_strs("k", vec!["x", "x", "y", "z"]),
            Column::from_floats("v", vec![1.0, 2.0, 10.0, 3.0]),
        ])
        .unwrap();
        let step = ExploratoryStep::run(
            vec![df],
            Operation::group_by(vec!["k"], vec![Aggregate::mean("v")]),
        )
        .unwrap();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Diversity);
        let p = frequency_partition(&step.inputs[0], 0, "k", 3)
            .unwrap()
            .unwrap();
        let fast = cc.contributions(&p, "mean_v").unwrap().unwrap();
        for (s, &c_fast) in fast.iter().enumerate().take(p.n_sets()) {
            let rows = p.rows_by_set().rows_of(s as u32);
            let c_slow = cc
                .contribution_by_rerun(0, rows, "mean_v")
                .unwrap()
                .unwrap();
            assert!((c_fast - c_slow).abs() < 1e-9, "set {s}");
        }
    }

    #[test]
    fn max_standardized_small_n() {
        assert_eq!(max_standardized(0), 0.0);
        assert_eq!(max_standardized(1), 0.0);
        assert_eq!(standardized(&[3.5]), vec![0.0]);
        assert!((max_standardized(2) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-15);
        let z = standardized(&[2.0, -1.0]);
        assert!((z[0] - max_standardized(2)).abs() < 1e-12);
    }

    #[test]
    fn one_outlier_reaches_the_bound() {
        for n in [3usize, 7, 40] {
            let mut raw = vec![0.25; n];
            raw[n / 2] = 9.0;
            let z = standardized(&raw);
            let bound = max_standardized(n);
            assert!(
                (z[n / 2] - bound).abs() < 1e-12,
                "n {n}: {} vs {bound}",
                z[n / 2]
            );
            assert!(z.iter().all(|&x| x <= bound + 1e-12));
        }
    }

    #[test]
    fn all_equal_scores_are_zero() {
        // The rounded mean of six 0.4s is not 0.4, so the deviations from
        // it are equal and nonzero; the scores must still be zero.
        assert_eq!(standardized(&[0.4; 6]), vec![0.0; 6]);
    }

    #[test]
    fn spread_at_rounding_scale_is_still_exact() {
        // One value one ulp above n − 1 equal ones: its exact z-score is
        // the bound, whatever the rounding of the mean.
        for x in [0.1f64, 0.4, 0.7, 1.0 / 3.0, 123.456] {
            for n in [3usize, 4, 5, 6, 11] {
                let mut raw = vec![x; n];
                raw[n - 1] = f64::from_bits(x.to_bits() + 1);
                let z = standardized(&raw);
                let bound = max_standardized(n);
                assert!((z[n - 1] - bound).abs() < 1e-9, "x {x} n {n}: {z:?}");
                assert!(z.iter().all(|&v| v <= bound * (1.0 + 1e-9)), "x {x} n {n}");
            }
        }
    }
}
