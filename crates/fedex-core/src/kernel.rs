//! The coded exceptionality kernel shared by interestingness scoring and
//! contribution computation.
//!
//! For one measured column, an `ExcKernel` captures everything that does
//! not depend on a partition or a sample: the coded source column(s), the
//! output column's codes *derived through row provenance* (an output row's
//! value equals its source row's value, so its code is a plain array
//! gather — no value is ever re-hashed), and the base input/output
//! [`CodedHist`]s with their KS statistic.
//!
//! On top of that state the kernel answers, without touching a boxed
//! [`fedex_frame::Value`]:
//!
//! * the step's **exceptionality score** — the base KS for the full
//!   sample (`ExcKernel::base_score`), or one code-scatter pass per side
//!   under FEDEX-Sampling masks (`ExcKernel::sampled_score`);
//! * the **per-set contributions** of a row partition
//!   (`ExcKernel::contributions`), computed from the input side: one pass
//!   over each slot's contiguous range of the partition's shared CSR row
//!   index fills both its removed input and output counts — the output
//!   side weighted by the step's `FanOut` (how many output rows each
//!   input row sources) for a filter or a join partitioned on the
//!   column's own input, equal to the input side for a union, whose
//!   output rows *are* its input rows, and read off the sourced output
//!   rows for a join column from the other input. Each slot's KS
//!   subtraction is then one linear sweep over the shared code space
//!   using a reused dense scratch pair. Slot ranges are scheduled through
//!   [`crate::pipeline::par::par_map`] under an [`ExecutionMode`], and
//!   every schedule produces bit-identical results (only per-slot integer
//!   counts feed the KS sweep).
//!
//! Kernels are built once per column in an [`ExcKernelCache`], shared
//! (`Arc`) between the ScoreColumns and Contribute stages and across
//! worker threads. Both consumers walk codes in ascending value order and
//! apply the identical sequence of floating-point operations as the boxed
//! `ValueHist` reference, so the coded fast path cannot change a single
//! output bit (pinned by the `coded_scoring` property tests and the
//! golden fixtures).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

use fedex_frame::{CodedColumn, CodedFrame, NULL_CODE};
use fedex_query::{ExploratoryStep, Operation, Provenance};

use crate::hist::{ks_sub_counts, CodedHist};
use crate::interestingness::{for_each_sampled_out_row, Sample};
use crate::partition::RowPartition;
use crate::pipeline::par::{effective_workers, par_map, ExecutionMode};
use crate::Result;

/// Per-column exceptionality kernels, built on first use and shared across
/// partitions, pipeline stages, and worker threads. An entry of `None`
/// records that exceptionality does not apply to the column.
#[derive(Default)]
pub struct ExcKernelCache {
    map: RwLock<HashMap<String, Option<Arc<ExcKernel>>>>,
}

impl fmt::Debug for ExcKernelCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let map = self.map.read().expect("kernel cache");
        f.debug_struct("ExcKernelCache")
            .field("columns", &map.len())
            .finish()
    }
}

impl ExcKernelCache {
    /// The kernel for `column`, building (and caching) it on first use
    /// from the step's coded inputs; `None` when exceptionality does not
    /// apply to the column.
    pub(crate) fn get_or_build(
        &self,
        step: &ExploratoryStep,
        column: &str,
        coded: &[CodedFrame],
    ) -> Result<Option<Arc<ExcKernel>>> {
        if let Some(k) = self.map.read().expect("kernel cache").get(column) {
            return Ok(k.clone());
        }
        let built = ExcKernel::build(step, column, coded)?.map(Arc::new);
        let mut cache = self.map.write().expect("kernel cache");
        Ok(cache.entry(column.to_string()).or_insert(built).clone())
    }

    /// Drop every kernel whose column fails `keep` — used after the
    /// ScoreColumns top-k cut so the Contribute stage inherits exactly the
    /// kernels it will reuse.
    pub(crate) fn retain(&self, keep: impl Fn(&str) -> bool) {
        self.map
            .write()
            .expect("kernel cache")
            .retain(|column, _| keep(column));
    }
}

/// Per-column state for incremental exceptionality: everything that does
/// not depend on the partition or the sample, computed once and reused.
pub(crate) enum ExcKernel {
    /// Filter/join: the output column has a unique source input.
    Sourced {
        /// Input that sources the column.
        src_idx: usize,
        /// Coded source column (the shared code space).
        coded_in: Arc<CodedColumn>,
        /// Output column as codes in the source column's code space,
        /// gathered through row provenance.
        out_codes: Vec<u32>,
        /// Histogram of the full source column.
        base_in: CodedHist,
        /// Histogram of the full output column.
        base_out: CodedHist,
        /// `KS(base_in, base_out)` — the step's interestingness.
        base_i: f64,
    },
    /// Union: every input is compared against the stacked output; the
    /// code space is the output column's.
    Union {
        /// Coded output column (owns the code space).
        out_coded: CodedColumn,
        /// Each input column's codes in the output code space, scattered
        /// through `source_of_row` (a union output row *is* its input
        /// row).
        in_codes: Vec<Vec<u32>>,
        /// Per-input base histograms.
        in_hists: Vec<CodedHist>,
        /// Histogram of the full output column.
        base_out: CodedHist,
        /// `max_i KS(in_hists[i], base_out)`.
        base_i: f64,
    },
}

impl ExcKernel {
    /// Build the kernel for one column from `coded`, one [`CodedFrame`] per
    /// input of `step`; `None` when exceptionality does not apply
    /// (group-by steps, columns without an input counterpart). Every union
    /// input carries every output column: `DataFrame::vstack` rejects
    /// inputs whose layouts differ.
    pub(crate) fn build(
        step: &ExploratoryStep,
        column: &str,
        coded: &[CodedFrame],
    ) -> Result<Option<ExcKernel>> {
        match &step.op {
            Operation::GroupBy { .. } => Ok(None),
            Operation::Union => {
                let out_coded = CodedColumn::encode(step.output.column(column)?);
                let n_codes = out_coded.n_codes();
                let Provenance::Union { source_of_row } = &step.provenance else {
                    unreachable!("union step has union provenance")
                };
                let mut in_codes: Vec<Vec<u32>> = step
                    .inputs
                    .iter()
                    .map(|df| vec![NULL_CODE; df.n_rows()])
                    .collect();
                for (out_row, &(src, src_row)) in source_of_row.iter().enumerate() {
                    in_codes[src][src_row] = out_coded.code(out_row);
                }
                let in_hists: Vec<CodedHist> = in_codes
                    .iter()
                    .map(|codes| CodedHist::from_codes(codes, n_codes))
                    .collect();
                let base_out = CodedHist::from_coded(&out_coded);
                let base_i = in_hists
                    .iter()
                    .map(|h| h.ks(&base_out))
                    .fold(f64::NEG_INFINITY, f64::max);
                Ok(Some(ExcKernel::Union {
                    out_coded,
                    in_codes,
                    in_hists,
                    base_out,
                    base_i,
                }))
            }
            _ => {
                // Filter and join share one shape: the output column has a
                // unique source input.
                let Some((src_idx, src_col_name)) = step.source_of_output_column(column) else {
                    return Ok(None);
                };
                let coded_in = coded[src_idx]
                    .column(&src_col_name)
                    .expect("coded inputs carry every input column")
                    .clone();
                // Output codes by provenance gather: an output row's value
                // is its source row's value.
                let src_rows = step
                    .provenance
                    .source_rows(src_idx)
                    .expect("filter/join provenance stores source rows");
                let codes = coded_in.codes();
                let out_codes: Vec<u32> = src_rows.iter().map(|&r| codes[r]).collect();
                let base_in = CodedHist::from_coded(&coded_in);
                let base_out = CodedHist::from_codes(&out_codes, coded_in.n_codes());
                let base_i = base_in.ks(&base_out);
                Ok(Some(ExcKernel::Sourced {
                    src_idx,
                    coded_in,
                    out_codes,
                    base_in,
                    base_out,
                    base_i,
                }))
            }
        }
    }

    /// The step's exceptionality over the full inputs — the base KS,
    /// captured at build time.
    pub(crate) fn base_score(&self) -> f64 {
        match self {
            ExcKernel::Sourced { base_i, .. } | ExcKernel::Union { base_i, .. } => *base_i,
        }
    }

    /// The step's exceptionality restricted to the sampled rows
    /// (FEDEX-Sampling, §3.7): the input side is one masked code-scatter,
    /// the output side is restricted through row provenance. Bit-identical
    /// to the boxed masked-histogram reference — extra zero-count codes
    /// only add an exact `+0.0` to each CDF.
    pub(crate) fn sampled_score(&self, step: &ExploratoryStep, sample: &Sample) -> f64 {
        match self {
            ExcKernel::Sourced {
                src_idx,
                coded_in,
                out_codes,
                base_in,
                ..
            } => {
                let n_codes = base_in.n_codes();
                // Input side: masked scatter, or the base histogram when
                // this input is unmasked.
                let masked_in = sample
                    .mask(*src_idx)
                    .map(|m| scatter_masked(coded_in.codes(), m, n_codes));
                let (in_counts, in_total) = match &masked_in {
                    Some((counts, total)) => (counts.as_slice(), *total),
                    None => (base_in.counts(), base_in.total()),
                };
                // Output side: rows produced by sampled input rows.
                let mut out_counts = vec![0i64; n_codes];
                let mut out_total = 0i64;
                for_each_sampled_out_row(step, sample, |out_row| {
                    let c = out_codes[out_row];
                    if c != NULL_CODE {
                        out_counts[c as usize] += 1;
                        out_total += 1;
                    }
                });
                ks_sub_counts(in_counts, &[], in_total, &out_counts, &[], out_total)
            }
            ExcKernel::Union {
                out_coded,
                in_codes,
                in_hists,
                ..
            } => {
                let n_codes = out_coded.n_codes();
                let mut out_counts = vec![0i64; n_codes];
                let mut out_total = 0i64;
                for_each_sampled_out_row(step, sample, |out_row| {
                    let c = out_coded.code(out_row);
                    if c != NULL_CODE {
                        out_counts[c as usize] += 1;
                        out_total += 1;
                    }
                });
                // Max over inputs, walking them in order like the boxed
                // reference.
                let mut best: Option<f64> = None;
                for (idx, hist) in in_hists.iter().enumerate() {
                    let masked_in = sample
                        .mask(idx)
                        .map(|m| scatter_masked(&in_codes[idx], m, n_codes));
                    let (in_counts, in_total) = match &masked_in {
                        Some((counts, total)) => (counts.as_slice(), *total),
                        None => (hist.counts(), hist.total()),
                    };
                    let ks = ks_sub_counts(in_counts, &[], in_total, &out_counts, &[], out_total);
                    best = Some(best.map_or(ks, |b: f64| b.max(ks)));
                }
                best.expect("union steps have at least one input")
            }
        }
    }

    /// Per-slot contributions for one partition.
    ///
    /// Each slot's removed input and output code counts are filled into
    /// two dense scratch histograms by walking the slot's rows of the
    /// partition's CSR index, then its KS subtraction is one sweep over the
    /// code space ([`sweep`]). Input row `r` removes its code once from
    /// the input and once per output row it sources ([`FanOut`]), each of
    /// which carries that code when the column comes from the partitioned
    /// input. A union output row *is* its input row, so its output counts
    /// are its input counts. A join column from the other input takes the
    /// codes of the output rows `r` sources.
    ///
    /// Only integer counts feed the KS subtraction, so the result is
    /// bit-identical across `Serial`/`Threads(n)` (pinned by the
    /// `sharded_contributions` property tests and the golden fixtures).
    pub(crate) fn contributions(
        &self,
        step: &ExploratoryStep,
        partition: &RowPartition,
        fan_out: &FanOut,
        mode: ExecutionMode,
    ) -> Vec<f64> {
        let n_slots = partition.n_slots();
        let p_idx = partition.input_idx;
        let index = partition.rows_by_set();
        match self {
            ExcKernel::Sourced {
                src_idx,
                coded_in,
                base_in,
                base_out,
                base_i,
                ..
            } if p_idx == *src_idx => {
                let codes = coded_in.codes();
                let sourced = fan_out.of(step, p_idx);
                sweep(
                    mode,
                    n_slots,
                    base_in.n_codes(),
                    |s, sign, sub_in, sub_out| {
                        let (mut n_in, mut n_out) = (0, 0);
                        for &r in index.rows_of_slot(s) {
                            let c = codes[r as usize];
                            if c != NULL_CODE {
                                let w = sourced.fan_out(r as usize);
                                sub_in[c as usize] += sign;
                                sub_out[c as usize] += sign * w;
                                n_in += 1;
                                n_out += w;
                            }
                        }
                        (n_in, n_out)
                    },
                    |sub_in, n_in, sub_out, n_out| {
                        base_i
                            - ks_sub_counts(
                                base_in.counts(),
                                sub_in,
                                base_in.total() - n_in,
                                base_out.counts(),
                                sub_out,
                                base_out.total() - n_out,
                            )
                    },
                )
            }
            ExcKernel::Sourced {
                out_codes,
                base_in,
                base_out,
                base_i,
                ..
            } => {
                // A join partitioned on the input that does not source the
                // column: only the output side changes, by the output rows
                // the slot's rows source.
                let sourced = fan_out.of(step, p_idx);
                sweep(
                    mode,
                    n_slots,
                    base_in.n_codes(),
                    |s, sign, _, counts| {
                        let mut n = 0;
                        for &r in index.rows_of_slot(s) {
                            for &o in sourced.out_rows(r as usize) {
                                let c = out_codes[o as usize];
                                if c != NULL_CODE {
                                    counts[c as usize] += sign;
                                    n += 1;
                                }
                            }
                        }
                        (0, n)
                    },
                    |_, _, counts, n_out| {
                        base_i
                            - ks_sub_counts(
                                base_in.counts(),
                                &[],
                                base_in.total(),
                                base_out.counts(),
                                counts,
                                base_out.total() - n_out,
                            )
                    },
                )
            }
            ExcKernel::Union {
                in_codes,
                in_hists,
                base_out,
                base_i,
                ..
            } => {
                let codes = &in_codes[p_idx];
                sweep(
                    mode,
                    n_slots,
                    base_out.n_codes(),
                    |s, sign, counts, _| {
                        let mut n = 0;
                        for &r in index.rows_of_slot(s) {
                            let c = codes[r as usize];
                            if c != NULL_CODE {
                                counts[c as usize] += sign;
                                n += 1;
                            }
                        }
                        (n, n)
                    },
                    // The removed output rows are the removed input rows.
                    |counts, n, _, _| {
                        let mut reduced_i = f64::NEG_INFINITY;
                        for (i, h) in in_hists.iter().enumerate() {
                            let (sub, sub_total) = if i == p_idx {
                                (counts, n)
                            } else {
                                (&[] as &[i64], 0)
                            };
                            reduced_i = reduced_i.max(ks_sub_counts(
                                h.counts(),
                                sub,
                                h.total() - sub_total,
                                base_out.counts(),
                                counts,
                                base_out.total() - n,
                            ));
                        }
                        base_i - reduced_i
                    },
                )
            }
        }
    }
}

/// The output rows each input row sources, one CSR table per input of a
/// step, each built on first use by a counting sort over the provenance.
/// A row's fan-out — how many output rows it sources — is 0 or 1 for a
/// filter, any count for a join side, and 1 for a union input. Shared by
/// the Contribute kernels and the Present stage of one explain.
#[derive(Debug)]
pub(crate) struct FanOut {
    inputs: Vec<OnceLock<SourcedRows>>,
}

/// The output rows sourced by each row of one input, ascending per row.
#[derive(Debug)]
pub(crate) struct SourcedRows {
    offsets: Vec<u32>,
    out_rows: Vec<u32>,
}

impl SourcedRows {
    /// The output rows input row `r` sources.
    pub(crate) fn out_rows(&self, r: usize) -> &[u32] {
        &self.out_rows[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// How many output rows input row `r` sources.
    pub(crate) fn fan_out(&self, r: usize) -> i64 {
        i64::from(self.offsets[r + 1] - self.offsets[r])
    }
}

impl FanOut {
    /// An empty table for a step with `n_inputs` inputs.
    pub(crate) fn new(n_inputs: usize) -> FanOut {
        FanOut {
            inputs: (0..n_inputs).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The output rows sourced by each row of input `input_idx` of `step`.
    pub(crate) fn of(&self, step: &ExploratoryStep, input_idx: usize) -> &SourcedRows {
        self.inputs[input_idx].get_or_init(|| {
            assert!(
                u32::try_from(step.output.n_rows()).is_ok(),
                "row indices must fit in u32"
            );
            let provenance = &step.provenance;
            let n_rows = step.inputs[input_idx].n_rows();
            let mut offsets = vec![0u32; n_rows + 1];
            provenance.for_each_out_row_from(input_idx, |_, r| offsets[r + 1] += 1);
            for r in 0..n_rows {
                offsets[r + 1] += offsets[r];
            }
            let mut cursor = offsets[..n_rows].to_vec();
            let mut out_rows = vec![0u32; offsets[n_rows] as usize];
            provenance.for_each_out_row_from(input_idx, |o, r| {
                out_rows[cursor[r] as usize] = o as u32;
                cursor[r] += 1;
            });
            SourcedRows { offsets, out_rows }
        })
    }
}

/// The per-slot KS sweep shared by every contribution path. For each slot
/// `s`, `fill(s, 1, sub_in, sub_out)` adds the slot's removed input and
/// output code counts to two zeroed scratch histograms and returns their
/// totals, `score` turns them into the slot's contribution, and
/// `fill(s, -1, ..)` restores the zeros — O(slot size) per slot instead of
/// re-zeroing O(codes). Slots run in contiguous ranges, one [`par_map`]
/// work unit per range with its own scratch pair.
fn sweep(
    mode: ExecutionMode,
    n_slots: usize,
    n_codes: usize,
    fill: impl Fn(usize, i64, &mut [i64], &mut [i64]) -> (i64, i64) + Sync,
    score: impl Fn(&[i64], i64, &[i64], i64) -> f64 + Sync,
) -> Vec<f64> {
    let ranges = slot_ranges(mode, n_slots);
    let chunks = par_map(mode, &ranges, |&(lo, hi)| {
        let mut sub_in = vec![0i64; n_codes];
        let mut sub_out = vec![0i64; n_codes];
        (lo..hi)
            .map(|s| {
                let (n_in, n_out) = fill(s, 1, &mut sub_in, &mut sub_out);
                let c = score(&sub_in, n_in, &sub_out, n_out);
                fill(s, -1, &mut sub_in, &mut sub_out);
                c
            })
            .collect::<Vec<_>>()
    });
    chunks.into_iter().flatten().collect()
}

/// Contiguous slot ranges for the per-slot KS sweep: one range per
/// effective worker, sizes as even as possible, in slot order — so a
/// serial run is the single range `[0, n_slots)` and the original loop.
fn slot_ranges(mode: ExecutionMode, n_slots: usize) -> Vec<(usize, usize)> {
    let workers = effective_workers(mode, n_slots).max(1);
    let chunk = n_slots.div_ceil(workers).max(1);
    (0..workers)
        .map(|w| (w * chunk, ((w + 1) * chunk).min(n_slots)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Dense masked histogram of a code sequence: counts of `codes[i]` over
/// rows where `mask[i]`, with the non-null total.
fn scatter_masked(codes: &[u32], mask: &[bool], n_codes: usize) -> (Vec<i64>, i64) {
    let mut counts = vec![0i64; n_codes];
    let mut total = 0i64;
    for (i, &c) in codes.iter().enumerate() {
        if mask[i] && c != NULL_CODE {
            counts[c as usize] += 1;
            total += 1;
        }
    }
    (counts, total)
}
