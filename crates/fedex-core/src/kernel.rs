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
//!   (`ExcKernel::contributions`) — input-side codes are grouped by slot
//!   straight off the partition's CSR row index (each set's rows are one
//!   contiguous range), output-side codes by a sharded scatter pass, then
//!   each slot's KS subtraction is one linear sweep over the shared code
//!   space using a reused dense scratch buffer. Every pass is scheduled
//!   through [`crate::pipeline::par::par_map`] under an
//!   [`ExecutionMode`], and every schedule produces bit-identical
//!   results (only per-slot counts feed the KS sweep).
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
use std::sync::{Arc, RwLock};

use fedex_frame::{CodedColumn, CodedFrame, NULL_CODE};
use fedex_query::{ExploratoryStep, Operation, Provenance};

use crate::hist::{ks_sub_counts, CodedHist};
use crate::interestingness::{for_each_sampled_out_row, Sample};
use crate::partition::{RowPartition, RowSetIndex, IGNORE};
use crate::pipeline::par::{effective_workers, par_map, ExecutionMode};
use crate::Result;

/// Number of contribution slots for a partition: its sets plus the
/// ignore-set when non-empty.
pub(crate) fn n_slots(partition: &RowPartition) -> usize {
    partition.n_sets() + usize::from(partition.ignore_size > 0)
}

/// Map a row's assignment code to its slot index (ignore → last slot).
#[inline]
pub(crate) fn slot_of(partition: &RowPartition, code: u32) -> usize {
    if code == IGNORE {
        partition.n_sets()
    } else {
        code as usize
    }
}

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

    /// Approximate heap size of every cached kernel, in bytes. Used by the
    /// byte-budgeted cross-request artifact cache; the estimate is taken at
    /// insertion time and intentionally ignores later growth.
    pub fn approx_bytes(&self) -> usize {
        self.map
            .read()
            .expect("kernel cache")
            .values()
            .flatten()
            .map(|k| k.approx_bytes())
            .sum()
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

    /// Approximate *incremental* heap size in bytes: the owned code
    /// gathers and base histograms. The shared `coded_in` `Arc` is
    /// deliberately **not** counted — the coded frame it belongs to is a
    /// separate cache entry with its own accounting, and double-counting
    /// it would make one step's frame + kernels appear larger than the
    /// budget they comfortably co-fit in (evicting each other forever).
    pub(crate) fn approx_bytes(&self) -> usize {
        match self {
            ExcKernel::Sourced {
                out_codes,
                base_in,
                base_out,
                ..
            } => {
                out_codes.len() * std::mem::size_of::<u32>()
                    + base_in.approx_bytes()
                    + base_out.approx_bytes()
            }
            ExcKernel::Union {
                out_coded,
                in_codes,
                in_hists,
                base_out,
                ..
            } => {
                out_coded.approx_bytes()
                    + in_codes
                        .iter()
                        .map(|c| c.len() * std::mem::size_of::<u32>())
                        .sum::<usize>()
                    + in_hists.iter().map(|h| h.approx_bytes()).sum::<usize>()
                    + base_out.approx_bytes()
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
    /// Two sharded passes, both scheduled through
    /// [`par_map`] under `mode` (`Serial` reproduces the original
    /// single-pass scatter instruction for instruction):
    ///
    /// 1. **Scatter** — input-side codes are grouped by slot straight off
    ///    the partition's CSR [`RowSetIndex`] (each set's rows are a
    ///    contiguous range, so one work unit per set needs no merge);
    ///    output-side codes are grouped by contiguous out-row shards whose
    ///    per-slot segments are merged deterministically in (slot, shard)
    ///    order.
    /// 2. **KS sweep** — slots are chunked into contiguous ranges, one
    ///    work unit per range with its own dense scratch pair.
    ///
    /// Only histogram *counts* feed the KS subtraction, and every
    /// schedule produces identical per-slot counts, so the result is
    /// bit-identical across `Serial`/`Threads(n)` (pinned by the
    /// `sharded_contributions` property tests and the golden fixtures).
    pub(crate) fn contributions(
        &self,
        step: &ExploratoryStep,
        partition: &RowPartition,
        mode: ExecutionMode,
    ) -> Vec<f64> {
        let n_slots = n_slots(partition);
        let p_idx = partition.input_idx;
        match self {
            ExcKernel::Sourced {
                src_idx,
                coded_in,
                out_codes,
                base_in,
                base_out,
                base_i,
            } => {
                // Input-side subtractions apply only when the partition is
                // over the same input that sources the column. The CSR
                // index is built once per partition and shared by every
                // column's scatter (and by the Present stage).
                let sub_in = (p_idx == *src_idx).then(|| {
                    SlotCodes::from_csr(mode, partition.rows_by_set(), coded_in.codes(), n_slots)
                });
                // Output-side subtractions: rows whose partition-side
                // provenance lands in each set.
                let p_rows = step
                    .provenance
                    .source_rows(p_idx)
                    .expect("filter/join provenance stores source rows");
                let sub_out = SlotCodes::group_par(mode, out_codes.len(), n_slots, |out_row| {
                    Some((
                        slot_of(partition, partition.assignment[p_rows[out_row]]),
                        out_codes[out_row],
                    ))
                });

                let n_codes = base_in.n_codes();
                let ranges = slot_ranges(mode, n_slots);
                let chunks = par_map(mode, &ranges, |&(lo, hi)| {
                    let mut scratch_in = Scratch::new(n_codes);
                    let mut scratch_out = Scratch::new(n_codes);
                    let mut out = Vec::with_capacity(hi - lo);
                    for s in lo..hi {
                        let in_total = match &sub_in {
                            Some(g) => {
                                scratch_in.fill(g.slot(s));
                                g.total(s)
                            }
                            None => 0,
                        };
                        scratch_out.fill(sub_out.slot(s));
                        let reduced = ks_sub_counts(
                            base_in.counts(),
                            if sub_in.is_some() {
                                scratch_in.counts()
                            } else {
                                &[]
                            },
                            base_in.total() - in_total,
                            base_out.counts(),
                            scratch_out.counts(),
                            base_out.total() - sub_out.total(s),
                        );
                        out.push(base_i - reduced);
                        if let Some(g) = &sub_in {
                            scratch_in.unfill(g.slot(s));
                        }
                        scratch_out.unfill(sub_out.slot(s));
                    }
                    out
                });
                chunks.into_iter().flatten().collect()
            }
            ExcKernel::Union {
                out_coded,
                in_codes,
                in_hists,
                base_out,
                base_i,
            } => {
                let sub_in =
                    SlotCodes::from_csr(mode, partition.rows_by_set(), &in_codes[p_idx], n_slots);
                let Provenance::Union { source_of_row } = &step.provenance else {
                    unreachable!("union step has union provenance")
                };
                let sub_out = SlotCodes::group_par(mode, source_of_row.len(), n_slots, |out_row| {
                    let (src, src_row) = source_of_row[out_row];
                    (src == p_idx).then(|| {
                        (
                            slot_of(partition, partition.assignment[src_row]),
                            out_coded.code(out_row),
                        )
                    })
                });

                let n_codes = base_out.n_codes();
                let ranges = slot_ranges(mode, n_slots);
                let chunks = par_map(mode, &ranges, |&(lo, hi)| {
                    let mut scratch_in = Scratch::new(n_codes);
                    let mut scratch_out = Scratch::new(n_codes);
                    let mut out = Vec::with_capacity(hi - lo);
                    for s in lo..hi {
                        scratch_in.fill(sub_in.slot(s));
                        scratch_out.fill(sub_out.slot(s));
                        let mut reduced_i = f64::NEG_INFINITY;
                        for (i, h) in in_hists.iter().enumerate() {
                            let (sub, sub_total) = if i == p_idx {
                                (scratch_in.counts(), sub_in.total(s))
                            } else {
                                (&[] as &[i64], 0)
                            };
                            reduced_i = reduced_i.max(ks_sub_counts(
                                h.counts(),
                                sub,
                                h.total() - sub_total,
                                base_out.counts(),
                                scratch_out.counts(),
                                base_out.total() - sub_out.total(s),
                            ));
                        }
                        out.push(base_i - reduced_i);
                        scratch_in.unfill(sub_in.slot(s));
                        scratch_out.unfill(sub_out.slot(s));
                    }
                    out
                });
                chunks.into_iter().flatten().collect()
            }
        }
    }
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

/// Codes grouped by slot via counting sort (CSR layout): `slot(s)` is the
/// code multiset of slot `s`, `total(s)` its non-null cardinality.
struct SlotCodes {
    offsets: Vec<usize>,
    codes: Vec<u32>,
}

impl SlotCodes {
    /// Group `(slot, code)` pairs; [`NULL_CODE`] entries are dropped (null
    /// values never enter a histogram). The iterator is consumed twice
    /// conceptually — sizes then scatter — via buffering.
    fn group(pairs: impl Iterator<Item = (usize, u32)>, n_slots: usize) -> SlotCodes {
        let mut buffered: Vec<(u32, u32)> = Vec::new();
        let mut sizes = vec![0usize; n_slots];
        for (slot, code) in pairs {
            if code != NULL_CODE {
                sizes[slot] += 1;
                buffered.push((slot as u32, code));
            }
        }
        let mut offsets = Vec::with_capacity(n_slots + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for s in &sizes {
            acc += s;
            offsets.push(acc);
        }
        let mut cursor: Vec<usize> = offsets[..n_slots].to_vec();
        let mut codes = vec![0u32; acc];
        for (slot, code) in buffered {
            let c = &mut cursor[slot as usize];
            codes[*c] = code;
            *c += 1;
        }
        SlotCodes { offsets, codes }
    }

    /// CSR-sharded grouping for assignment-indexed codes: slot `s`'s code
    /// multiset is a straight gather over the partition index's contiguous
    /// row range for set `s` — one [`par_map`] work unit per slot, no
    /// merge pass. Row order within a slot is ascending, exactly like the
    /// scatter pass this replaces (only counts feed the KS subtraction
    /// anyway).
    fn from_csr(
        mode: ExecutionMode,
        index: &RowSetIndex,
        codes: &[u32],
        n_slots: usize,
    ) -> SlotCodes {
        let slots: Vec<usize> = (0..n_slots).collect();
        let per_slot: Vec<Vec<u32>> = par_map(mode, &slots, |&s| {
            index
                .rows_of_slot(s)
                .iter()
                .filter_map(|&row| {
                    let c = codes[row];
                    (c != NULL_CODE).then_some(c)
                })
                .collect()
        });
        let mut offsets = Vec::with_capacity(n_slots + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for seg in &per_slot {
            acc += seg.len();
            offsets.push(acc);
        }
        let mut out = Vec::with_capacity(acc);
        for seg in per_slot {
            out.extend_from_slice(&seg);
        }
        SlotCodes {
            offsets,
            codes: out,
        }
    }

    /// Row-range-sharded grouping: items `0..n_items` are split into one
    /// contiguous shard per effective worker, each shard groups its
    /// `pair_of` pairs locally (`None` items and [`NULL_CODE`]s are
    /// dropped), and the shards are merged in **(slot, shard) order** — a
    /// deterministic layout independent of which worker ran which shard.
    /// One worker degenerates to the original single scatter pass.
    fn group_par(
        mode: ExecutionMode,
        n_items: usize,
        n_slots: usize,
        pair_of: impl Fn(usize) -> Option<(usize, u32)> + Sync,
    ) -> SlotCodes {
        let workers = effective_workers(mode, n_items).max(1);
        if workers <= 1 {
            return SlotCodes::group((0..n_items).filter_map(pair_of), n_slots);
        }
        let chunk = n_items.div_ceil(workers);
        let ranges: Vec<(usize, usize)> = (0..workers)
            .map(|w| (w * chunk, ((w + 1) * chunk).min(n_items)))
            .filter(|(lo, hi)| lo < hi)
            .collect();
        let shards = par_map(mode, &ranges, |&(lo, hi)| {
            SlotCodes::group((lo..hi).filter_map(&pair_of), n_slots)
        });
        SlotCodes::merge(&shards, n_slots)
    }

    /// Concatenate per-shard groupings into one: slot `s`'s segment is the
    /// concatenation of every shard's slot-`s` segment in shard order.
    fn merge(shards: &[SlotCodes], n_slots: usize) -> SlotCodes {
        let mut offsets = Vec::with_capacity(n_slots + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for s in 0..n_slots {
            acc += shards.iter().map(|sh| sh.slot(s).len()).sum::<usize>();
            offsets.push(acc);
        }
        let mut codes = Vec::with_capacity(acc);
        for s in 0..n_slots {
            for sh in shards {
                codes.extend_from_slice(sh.slot(s));
            }
        }
        SlotCodes { offsets, codes }
    }

    fn slot(&self, s: usize) -> &[u32] {
        &self.codes[self.offsets[s]..self.offsets[s + 1]]
    }

    fn total(&self, s: usize) -> i64 {
        (self.offsets[s + 1] - self.offsets[s]) as i64
    }
}

/// A reusable dense count buffer: `fill` a slot's codes, read `counts`,
/// then `unfill` the same slice — O(slot size) per slot instead of
/// O(n_codes) re-zeroing, with one allocation for the whole partition.
struct Scratch {
    counts: Vec<i64>,
}

impl Scratch {
    fn new(n_codes: usize) -> Scratch {
        Scratch {
            counts: vec![0; n_codes],
        }
    }

    fn fill(&mut self, codes: &[u32]) {
        for &c in codes {
            self.counts[c as usize] += 1;
        }
    }

    fn counts(&self) -> &[i64] {
        &self.counts
    }

    /// Exact inverse of [`Scratch::fill`] on the same slice — restores the
    /// all-zero state.
    fn unfill(&mut self, codes: &[u32]) {
        for &c in codes {
            self.counts[c as usize] -= 1;
        }
    }
}
