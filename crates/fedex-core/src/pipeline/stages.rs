//! The five stages of Algorithm 1.
//!
//! Each stage is a plain struct implementing [`Stage`]; stage-specific
//! knobs (custom measure, user partitions) live on the struct, while
//! everything shared rides in the [`PipelineContext`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fedex_frame::{CodedColumn, CodedFrame, Fingerprint};
use fedex_query::{ExploratoryStep, Operation, Provenance};
use fedex_stats::descriptive::mean_and_std;

use crate::cache::{ArtifactCache, FrameLookup};
use crate::caption::{diversity_caption, exceptionality_caption};
use crate::contribution::{max_standardized, standardized, ContributionComputer};
use crate::error::ExplainError;
use crate::explain::{CustomMeasure, Explanation};
use crate::interestingness::{score_all_columns_coded, InterestingnessKind};
use crate::kernel::ExcKernelCache;
use crate::partition::{
    assemble_input_partitions, mine_attr_payloads, PartitionKind, RowPartition,
};
use crate::skyline::{weighted_score, StreamingSkyline};
use crate::viz::{Bar, Chart, ChartKind};
use crate::Result;

use super::artifacts::{Candidate, CodedInputs, Contributed, Partitioned, Ranked, ScoredColumns};
use super::par::{par_map, try_par_map, ExecutionMode};
use super::{PipelineContext, Stage};

/// Content fingerprints of every input, in input order.
fn input_fingerprints(step: &ExploratoryStep) -> Vec<Fingerprint> {
    step.inputs.iter().map(|df| df.fingerprint()).collect()
}

/// Encode the inputs selected by `wanted`, data-parallel over
/// `(input, column)` pairs; unselected slots get empty placeholder frames.
/// The result is shared (`Arc`) by every stage that consumes codes.
fn encode_inputs_cold(
    step: &ExploratoryStep,
    mode: ExecutionMode,
    wanted: impl Fn(usize) -> bool,
) -> CodedInputs {
    let work: Vec<(usize, usize)> = step
        .inputs
        .iter()
        .enumerate()
        .filter(|(i, _)| wanted(*i))
        .flat_map(|(i, df)| (0..df.columns().len()).map(move |c| (i, c)))
        .collect();
    let encoded = par_map(mode, &work, |&(i, c)| {
        Arc::new(CodedColumn::encode(&step.inputs[i].columns()[c]))
    });
    let mut encoded = encoded.into_iter();
    let frames = step
        .inputs
        .iter()
        .enumerate()
        .map(|(i, df)| {
            if !wanted(i) {
                return CodedFrame::default();
            }
            let names = df.columns().iter().map(|c| c.name().to_string()).collect();
            let cols = (0..df.columns().len())
                .map(|_| encoded.next().expect("one coded column per input column"))
                .collect();
            CodedFrame::from_parts(names, cols)
        })
        .collect();
    Arc::new(frames)
}

/// [`encode_inputs_cold`] against a cross-request cache: each input is
/// looked up by content fingerprint, warm inputs reuse their cached
/// [`CodedFrame`] (cheap: coded columns are `Arc`s), only cold ones are
/// encoded and inserted. Hits cannot change the result: encoding is a
/// pure function of the content the fingerprint digests. An input another
/// request is encoding right now is waited for, not encoded again (see
/// [`ArtifactCache::claim_frames`]).
///
/// The batch encode is timed and each inserted frame carries its share of
/// that measured cost (proportional to its coded size) — the rebuild cost
/// the cache's cost-aware eviction policy weighs.
///
/// Also returns one `("frame[i]", hit)` cache event per input, in input
/// order, for trace reporting.
fn encode_inputs_cached(
    step: &ExploratoryStep,
    mode: ExecutionMode,
    cache: &ArtifactCache,
    fps: &[Fingerprint],
) -> (CodedInputs, Vec<(String, bool)>) {
    let (lookups, claims) = cache.claim_frames(fps);
    let claimed = |i: usize| matches!(lookups[i], FrameLookup::Claimed);
    let t_encode = Instant::now();
    let fresh = encode_inputs_cold(step, mode, claimed);
    let encode_elapsed = t_encode.elapsed();
    let cold_bytes: usize = (0..fps.len())
        .filter(|&i| claimed(i))
        .map(|i| fresh[i].approx_bytes())
        .sum();
    for i in (0..fps.len()).filter(|&i| claimed(i)) {
        let share = fresh[i].approx_bytes() as f64 / cold_bytes.max(1) as f64;
        let rebuild = Duration::from_secs_f64(encode_elapsed.as_secs_f64() * share);
        cache.put_frame(fps[i], Arc::new(fresh[i].clone()), rebuild);
    }
    drop(claims);
    let mut events = Vec::with_capacity(fps.len());
    let frames: Vec<CodedFrame> = lookups
        .iter()
        .enumerate()
        .map(|(i, lookup)| {
            let warm = match lookup {
                FrameLookup::Hit(hit) => Some(hit.clone()),
                FrameLookup::Claimed => None,
                FrameLookup::Encoding => cache.wait_frame(fps[i]),
            };
            events.push((format!("frame[{i}]"), warm.is_some()));
            match warm {
                // Cheap: a CodedFrame clone copies names + column `Arc`s.
                Some(hit) => (*hit).clone(),
                None if claimed(i) => fresh[i].clone(),
                // The other request's encode failed or was not admitted.
                None => encode_inputs_cold(step, mode, |j| j == i)[i].clone(),
            }
        })
        .collect();
    (Arc::new(frames), events)
}

// ================================================== 1. ScoreColumns ====

/// How the ScoreColumns stage scores a column.
pub enum Scorer<'m> {
    /// The paper's per-operation measures (exceptionality / diversity),
    /// scored data-parallel over output columns.
    Builtin,
    /// A user-supplied measure (§3.8). Trait objects carry no `Sync`
    /// bound, so this path scores serially.
    Custom(&'m dyn CustomMeasure),
}

/// Step 1 of Algorithm 1: interestingness of every output column.
///
/// Columns referenced by a filter predicate are excluded under the
/// builtin scorer: the filter *constructs* their deviation, so explaining
/// them is a tautology (cf. Example 3.2, where the top columns for
/// `popularity > 65` are 'decade', 'year', 'loudness' — not 'popularity').
pub struct ScoreColumns<'m> {
    /// Scoring back-end.
    pub scorer: Scorer<'m>,
    /// Exclude filter-predicate columns (the FEDEX tautology rule).
    /// Baselines that *want* predicate columns ranked — e.g. the
    /// Interestingness-Only baseline — turn this off.
    pub exclude_predicate_columns: bool,
}

impl ScoreColumns<'static> {
    /// The paper's default scoring stage.
    pub fn builtin() -> Self {
        ScoreColumns {
            scorer: Scorer::Builtin,
            exclude_predicate_columns: true,
        }
    }
}

impl<'m> ScoreColumns<'m> {
    /// Scoring under a user-supplied measure (§3.8).
    pub fn custom(measure: &'m dyn CustomMeasure) -> Self {
        ScoreColumns {
            scorer: Scorer::Custom(measure),
            exclude_predicate_columns: false,
        }
    }
}

impl Stage for ScoreColumns<'_> {
    type Input = ();
    type Output = ScoredColumns;

    fn name(&self) -> &'static str {
        "ScoreColumns"
    }

    fn run(&self, ctx: &PipelineContext<'_>, _input: ()) -> Result<ScoredColumns> {
        let step = ctx.step;
        // Encode the inputs once, up front: scoring consumes the codes
        // directly, and PartitionRows and Contribute share the same coded
        // view of every column. With a cross-request cache, warm inputs
        // skip encoding — the `encode` sub-timing then collapses to the
        // fingerprint lookups.
        let t_encode = Instant::now();
        let (coded, cache_events) = match ctx.config.artifact_cache.as_deref() {
            None => (encode_inputs_cold(step, ctx.mode(), |_| true), Vec::new()),
            Some(cache) => encode_inputs_cached(step, ctx.mode(), cache, &input_fingerprints(step)),
        };
        let encode_elapsed = t_encode.elapsed();

        let t_score = Instant::now();
        let kernels = Arc::new(ExcKernelCache::default());
        let mut scores: Vec<(String, f64)> = match &self.scorer {
            Scorer::Builtin => {
                let mut out = score_all_columns_coded(
                    step,
                    &coded,
                    &kernels,
                    ctx.kind,
                    ctx.sample(),
                    ctx.mode(),
                )?;
                if self.exclude_predicate_columns {
                    if let Operation::Filter { predicate } = &step.op {
                        let excluded = predicate.referenced_columns();
                        out.retain(|(c, _)| !excluded.contains(&c.as_str()));
                    }
                }
                if let Some(targets) = &ctx.config.target_columns {
                    for t in targets {
                        if !step.output.has_column(t) {
                            return Err(ExplainError::UnknownColumn(t.clone()));
                        }
                    }
                    out.retain(|(c, _)| targets.iter().any(|t| t == c));
                }
                out
            }
            Scorer::Custom(measure) => {
                let mut out = Vec::new();
                for field in step.output.schema().fields() {
                    if let Some(s) = measure.score(step, &field.name)? {
                        if s.is_finite() {
                            out.push((field.name.clone(), s));
                        }
                    }
                }
                if let Some(targets) = &ctx.config.target_columns {
                    out.retain(|(c, _)| targets.iter().any(|t| t == c));
                }
                out
            }
        };
        scores.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let top: Vec<(String, f64)> = scores
            .iter()
            .take(ctx.config.top_k_columns.max(1))
            .cloned()
            .collect();
        // Kernels outside the top-k cut existed only for scoring; drop
        // them so Contribute inherits exactly what it reuses.
        kernels.retain(|column| top.iter().any(|(t, _)| t == column));
        let score_elapsed = t_score.elapsed();
        Ok(ScoredColumns {
            scores,
            top,
            coded,
            kernels,
            timings: vec![("encode", encode_elapsed), ("score", score_elapsed)],
            cache_events,
        })
    }
}

// ================================================== 2. PartitionRows ===

/// Step 2 of Algorithm 1: mine the §3.5 row partitions of every input,
/// data-parallel over `(input, attribute)` pairs.
///
/// Partitions are a function of the input alone, so every attribute of
/// every input is mined (each distinct row payload once, see
/// [`crate::partition`]) and, with a cross-request [`ArtifactCache`], an
/// input's whole list is looked up by content fingerprint first. A hit
/// only relabels `input_idx`: the same table can be input 0 of a filter
/// and input 1 of a join. A missed list is inserted only when
/// ScoreColumns found the input's coded frame cached — the input's second
/// sighting (see [`crate::cache`]).
///
/// Partitions *defined on a predicate column* of a filter (or group-by
/// pre-filter) are excluded: the set "rows with popularity ∈ [65, 100]"
/// explaining the step `popularity > 65` is a tautology. Every partition
/// mined for attribute `A` has `attr == A`, so dropping those whose `attr`
/// or defining column is a predicate column of input 0 matches skipping
/// predicate attributes before mining.
///
/// Partitions that assign rows identically are then deduplicated: a
/// many-to-one partition of `A` via `B` equals the frequency partition of
/// `B` itself, and near-unique columns (ids, names) would otherwise spawn
/// one such duplicate per functionally-dependent column. The many-to-one
/// labelling is preferred when both arise (it carries the finer
/// attribute, as in Example 3.9).
pub struct PartitionRows {
    /// User-defined partitions used alongside the mined ones (§3.8);
    /// validated against Def. 3.8 and the step's inputs.
    pub extra: Vec<RowPartition>,
}

impl Stage for PartitionRows {
    type Input = ScoredColumns;
    type Output = Partitioned;

    fn name(&self) -> &'static str {
        "PartitionRows"
    }

    fn run(&self, ctx: &PipelineContext<'_>, scored: ScoredColumns) -> Result<Partitioned> {
        let step = ctx.step;
        let (set_counts, seed) = (&ctx.config.set_counts, ctx.config.seed);
        let predicate_cols: Vec<&str> = match &step.op {
            Operation::Filter { predicate } => predicate.referenced_columns(),
            Operation::GroupBy {
                pre_filter: Some(f),
                ..
            } => f.referenced_columns(),
            _ => Vec::new(),
        };
        let coded = &scored.coded;

        let cache = ctx.config.artifact_cache.as_deref();
        let fps = cache.map(|_| input_fingerprints(step));
        let mut cache_events = Vec::new();
        let mut mined: Vec<Option<Arc<Vec<RowPartition>>>> = match (cache, &fps) {
            (Some(cache), Some(fps)) => fps
                .iter()
                .enumerate()
                .map(|(i, &fp)| {
                    let hit = cache.get_partitions(fp, set_counts, seed);
                    cache_events.push((format!("partitions[{i}]"), hit.is_some()));
                    hit
                })
                .collect(),
            _ => vec![None; step.inputs.len()],
        };

        // Mine the missed inputs, in deterministic (input, schema) order.
        let units: Vec<(usize, &str)> = step
            .inputs
            .iter()
            .enumerate()
            .filter(|(i, _)| mined[*i].is_none())
            .flat_map(|(i, df)| df.columns().iter().map(move |c| (i, c.name())))
            .collect();
        let payloads = try_par_map(ctx.mode(), &units, |&(i, attr)| -> Result<_> {
            ctx.check_cancel()?;
            let t = Instant::now();
            let p = mine_attr_payloads(&step.inputs[i], &coded[i], i, attr, set_counts, seed)?;
            Ok((p, t.elapsed()))
        })?;
        let mut payloads = payloads.into_iter();
        for (i, slot) in mined.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let t = Instant::now();
            let (attrs, unit_times): (Vec<_>, Vec<Duration>) = payloads
                .by_ref()
                .take(step.inputs[i].columns().len())
                .unzip();
            let list = Arc::new(assemble_input_partitions(&attrs));
            let frame_hit = format!("frame[{i}]");
            let seen_before = scored
                .cache_events
                .iter()
                .any(|(artifact, hit)| *hit && *artifact == frame_hit);
            if let (Some(cache), Some(fps), true) = (cache, &fps, seen_before) {
                let rebuild = t.elapsed() + unit_times.iter().sum::<Duration>();
                cache.put_partitions(fps[i], set_counts, seed, list.clone(), rebuild);
            }
            *slot = Some(list);
        }

        let mut partitions: Vec<RowPartition> = Vec::new();
        let mut seen: std::collections::HashSet<(usize, &str, &'static str, usize)> =
            std::collections::HashSet::new();
        for (i, list) in mined.iter().enumerate() {
            for p in list.as_deref().expect("every input mined or cached").iter() {
                if i == 0
                    && (predicate_cols.contains(&p.attr.as_str())
                        || predicate_cols.contains(&p.defining_column()))
                {
                    continue;
                }
                let family = match &p.kind {
                    PartitionKind::NumericBins => "bins",
                    _ => "values",
                };
                if seen.insert((i, p.defining_column(), family, p.n_sets())) {
                    let mut p = p.clone();
                    p.input_idx = i;
                    partitions.push(p);
                }
            }
        }

        for p in &self.extra {
            p.validate()?;
            if p.input_idx >= step.inputs.len() || p.n_rows() != step.inputs[p.input_idx].n_rows() {
                return Err(ExplainError::InvalidConfig(format!(
                    "custom partition on {:?} does not match input {}",
                    p.attr, p.input_idx
                )));
            }
            partitions.push(p.clone());
        }
        Ok(Partitioned {
            scored,
            partitions,
            cache_events,
        })
    }
}

// ==================================================== 3. Contribute ====

/// How the Contribute stage computes per-set contributions.
pub enum Contributor<'m> {
    /// The provenance-based incremental kernels of
    /// [`ContributionComputer`], data-parallel over `(partition, column)`
    /// units.
    Incremental,
    /// Literal Def. 3.3 re-runs ([`ExploratoryStep::rerun_without`]) under
    /// a user-supplied measure (§3.8). Trait objects carry no `Sync` bound,
    /// so this path runs its units serially — it is the slow path by
    /// construction anyway.
    Custom(&'m dyn CustomMeasure),
}

/// Step 3 of Algorithm 1: contribution of every set-of-rows to every
/// top-scored column; candidates are kept when the raw contribution is
/// positive and its standardized value (within the partition) is a
/// number.
///
/// Work is a **flattened `(partition, column)` unit list**, scheduled
/// through `par_map` (not one coarse unit per partition), so a step with
/// few partitions but many scored columns still saturates the thread
/// budget. When even the flattened list is shorter than the budget, the
/// leftover threads shard the slot sweep *inside* each kernel (see
/// [`ContributionComputer::with_intra_mode`]); the two levels never
/// multiply past `ctx.mode().threads()`. The custom-measure back-end runs
/// the same unit loop serially.
///
/// The stage is also **fused with Skyline**: each finished unit streams
/// its candidates into a [`StreamingSkyline`], so dominance checks
/// overlap contribution computation and [`Contributed::skyline`] arrives
/// already computed. That skyline also **prunes** units before they run.
/// No z-score of a unit with `n` slots exceeds
/// [`max_standardized`]`(n)`, so once a resident point strictly dominates
/// `(I_column, max_standardized(n))`, every candidate the unit could
/// produce would be dominated too, and the unit is skipped. Units run
/// column-major in descending interestingness (the order of
/// [`ScoredColumns::top`](super::artifacts::ScoredColumns::top)), and
/// within a column in descending slot count, so the skyline fills before
/// the low-I units come up. Strict dominance is transitive, so the final
/// skyline is the one of the exhaustive candidate list, under any
/// schedule; only the number of candidates built depends on it.
pub struct Contribute<'m> {
    /// Contribution back-end.
    pub contributor: Contributor<'m>,
}

/// Intra-kernel execution mode for `n_units` flattened top-level work
/// units under `mode`: serial when the unit list alone can keep every
/// thread busy, otherwise the leftover per-unit thread share. Keeps
/// `units × intra` ≤ the stage budget, so nested parallelism never
/// oversubscribes.
fn intra_partition_mode(mode: ExecutionMode, n_units: usize) -> ExecutionMode {
    let threads = mode.threads();
    if threads <= 1 || n_units >= threads {
        ExecutionMode::Serial
    } else {
        ExecutionMode::Threads(threads.div_ceil(n_units.max(1)))
    }
}

/// The `(partition, column)` units in the order Contribute runs them:
/// column-major over `top` (descending I), and within a column by
/// descending slot count, ties in partition order.
fn unit_schedule(n_columns: usize, partitions: &[RowPartition]) -> Vec<(usize, usize)> {
    let mut by_slots: Vec<usize> = (0..partitions.len()).collect();
    by_slots.sort_by_key(|&pi| std::cmp::Reverse(partitions[pi].n_slots()));
    (0..n_columns)
        .flat_map(|ci| by_slots.iter().map(move |&pi| (pi, ci)))
        .collect()
}

/// Per-slot raw contributions of one partition to one column, or `None`
/// when the measure does not apply to the column.
type Contributions<'a> = dyn Fn(&RowPartition, &str) -> Result<Option<Vec<f64>>> + 'a;

impl Stage for Contribute<'_> {
    type Input = Partitioned;
    type Output = Contributed;

    fn name(&self) -> &'static str {
        "Contribute"
    }

    fn run(&self, ctx: &PipelineContext<'_>, input: Partitioned) -> Result<Contributed> {
        let Partitioned {
            scored, partitions, ..
        } = input;
        let units = unit_schedule(scored.top.len(), &partitions);
        let sky: Mutex<StreamingSkyline<(usize, usize, usize)>> =
            Mutex::new(StreamingSkyline::new());
        // One unit: its `(slot, raw, std)` candidates, or none when the
        // skyline bound prunes it or the measure does not apply.
        let run_unit = |&(pi, ci): &(usize, usize),
                        contributions: &Contributions<'_>|
         -> Result<Vec<(usize, f64, f64)>> {
            // Work-unit cancellation checkpoint: an expired deadline
            // abandons the Contribute stage within one unit.
            ctx.check_cancel()?;
            let partition = &partitions[pi];
            let (column, interestingness) = &scored.top[ci];
            // `standardized` may pass the bound by its drift allowance
            // (at most 1e-10) plus float rounding; the relative slack
            // covers both, so no point that would survive is pruned.
            let bound = max_standardized(partition.n_slots()) * (1.0 + 1e-9);
            if sky
                .lock()
                .expect("skyline lock")
                .dominates((*interestingness, bound))
            {
                return Ok(Vec::new());
            }
            let Some(raw) = contributions(partition, column)? else {
                return Ok(Vec::new());
            };
            let std = standardized(&raw);
            debug_assert!(
                std.iter().all(|&z| z <= bound || z.is_nan()),
                "z-score above max_standardized: {std:?}"
            );
            // The ignore-set (last slot, when present) joins
            // standardization but never becomes a candidate. Nor does a
            // non-finite z (from a non-finite raw contribution), which no
            // skyline comparison could order.
            let unit: Vec<(usize, f64, f64)> = (0..partition.n_sets())
                .filter(|&slot| raw[slot] > 0.0 && std[slot].is_finite())
                .map(|slot| (slot, raw[slot], std[slot]))
                .collect();
            let mut sky = sky.lock().expect("skyline lock");
            for &(slot, _, std) in &unit {
                sky.insert((pi, ci, slot), (*interestingness, std));
            }
            Ok(unit)
        };
        let mut per_unit: Vec<Vec<(usize, f64, f64)>> = match &self.contributor {
            Contributor::Incremental => {
                let computer = ContributionComputer::with_shared(
                    ctx.step,
                    ctx.kind,
                    scored.coded.clone(),
                    scored.kernels.clone(),
                    ctx.fan_out.clone(),
                )
                .with_intra_mode(intra_partition_mode(ctx.mode(), units.len()));
                try_par_map(ctx.mode(), &units, |unit| {
                    run_unit(unit, &|p, column| computer.contributions(p, column))
                })?
            }
            // Serial: `&dyn CustomMeasure` is not `Sync`. One re-run per
            // slot, the ignore-set included (Def. 3.3 verbatim).
            Contributor::Custom(measure) => {
                let rerun = |p: &RowPartition, column: &str| -> Result<Option<Vec<f64>>> {
                    let Some(base) = measure.score(ctx.step, column)? else {
                        return Ok(None);
                    };
                    (0..p.n_slots())
                        .map(|slot| {
                            let rows = p.rows_by_set().rows_of_slot(slot);
                            let reduced = ctx.step.rerun_without(p.input_idx, rows)?;
                            Ok(base - measure.score(&reduced, column)?.unwrap_or(0.0))
                        })
                        .collect::<Result<_>>()
                        .map(Some)
                };
                units
                    .iter()
                    .map(|unit| run_unit(unit, &rerun))
                    .collect::<Result<_>>()?
            }
        };
        // Reassemble in (partition, column, slot) order, whatever the
        // schedule: Skyline's stable sort and Present's dedup see the
        // same relative order as an exhaustive run.
        let n_columns = scored.top.len();
        let mut position = vec![0usize; units.len()];
        for (at, &(pi, ci)) in units.iter().enumerate() {
            position[pi * n_columns + ci] = at;
        }
        let mut candidates = Vec::new();
        for (key, &at) in position.iter().enumerate() {
            let (partition, column) = (key / n_columns, key % n_columns);
            for (slot, raw, std) in std::mem::take(&mut per_unit[at]) {
                candidates.push(Candidate {
                    partition,
                    slot,
                    column,
                    raw,
                    std,
                });
            }
        }
        let survivors = sky.into_inner().expect("skyline lock").into_keys();
        let skyline = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| survivors.contains(&(c.partition, c.column, c.slot)))
            .map(|(i, _)| i)
            .collect();
        Ok(Contributed {
            scored,
            partitions,
            candidates,
            skyline,
        })
    }
}

// ======================================================= 4. Skyline ====

/// Step 4 of Algorithm 1: the skyline of `(I_A, C̄)` pairs, ranked by the
/// weighted score of §3.7. The skyline itself is the one Contribute
/// streamed ([`Contributed::skyline`]).
pub struct Skyline;

impl Stage for Skyline {
    type Input = Contributed;
    type Output = Ranked;

    fn name(&self) -> &'static str {
        "Skyline"
    }

    fn run(&self, ctx: &PipelineContext<'_>, input: Contributed) -> Result<Ranked> {
        let Contributed {
            scored,
            partitions,
            candidates,
            skyline,
        } = input;
        // Contribute already streamed the skyline.
        let mut order = skyline;
        #[cfg(debug_assertions)]
        {
            let points: Vec<(f64, f64)> = candidates
                .iter()
                .map(|c| (scored.top[c.column].1, c.std))
                .collect();
            debug_assert_eq!(
                order,
                crate::skyline::skyline_indices(&points),
                "streamed skyline diverged from the batch operator"
            );
        }
        let score_of = |i: usize| {
            weighted_score(
                scored.top[candidates[i].column].1,
                candidates[i].std,
                ctx.config.w_interestingness,
                ctx.config.w_contribution,
            )
        };
        // Stable sort: equal weighted scores keep candidate order, which is
        // itself deterministic, so the full pipeline is reproducible.
        order.sort_by(|&a, &b| score_of(b).total_cmp(&score_of(a)));
        Ok(Ranked {
            scored,
            partitions,
            candidates,
            order,
        })
    }
}

// ======================================================= 5. Present ====

/// Step 5 of Algorithm 1 (§3.7): deduplicate equivalent explanations,
/// render captions and charts, and apply the optional top-k cut.
pub struct Present;

impl Stage for Present {
    type Input = Ranked;
    type Output = Vec<Explanation>;

    fn name(&self) -> &'static str {
        "Present"
    }

    fn run(&self, ctx: &PipelineContext<'_>, input: Ranked) -> Result<Vec<Explanation>> {
        let Ranked {
            scored,
            partitions,
            candidates,
            order,
        } = input;
        // Dedup of equivalent explanations: the same set label can arise
        // from several partitions (e.g. set counts 5 and 10). Selection is
        // split from rendering so the per-set chart values are built once
        // per partition or (partition, column), not once per rendered
        // explanation.
        let mut seen: Vec<(String, String, String)> = Vec::new();
        let mut selected: Vec<usize> = Vec::new();
        for idx in order {
            let cand = &candidates[idx];
            let partition = &partitions[cand.partition];
            let column = &scored.top[cand.column].0;
            let key = (
                column.clone(),
                partition.attr.clone(),
                partition.sets[cand.slot].label.clone(),
            );
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            selected.push(idx);
            if let Some(k) = ctx.config.top_k_explanations {
                if selected.len() >= k {
                    break;
                }
            }
        }

        let mut attributed: HashMap<usize, Vec<u64>> = HashMap::new();
        let mut means: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
        let mut out = Vec::with_capacity(selected.len());
        for idx in selected {
            let cand = &candidates[idx];
            let partition = &partitions[cand.partition];
            let (column, interestingness) = &scored.top[cand.column];
            let values = match ctx.kind {
                InterestingnessKind::Exceptionality => SetValues::Attributed(
                    attributed
                        .entry(cand.partition)
                        .or_insert_with(|| attribution_counts(ctx, partition)),
                ),
                InterestingnessKind::Diversity => {
                    SetValues::Means(match means.entry((cand.partition, cand.column)) {
                        Entry::Occupied(e) => e.into_mut(),
                        Entry::Vacant(e) => {
                            e.insert(diversity_set_means(ctx.step, partition, column)?)
                        }
                    })
                }
            };
            out.push(render_explanation(
                ctx,
                partition,
                values,
                cand.slot,
                column,
                *interestingness,
                cand.raw,
                cand.std,
            )?);
        }
        Ok(out)
    }
}

/// The per-set values a chart is drawn from, which do not depend on the
/// chosen set: attribution counts (exceptionality) or set means
/// (diversity).
enum SetValues<'v> {
    Attributed(&'v [u64]),
    Means(&'v [f64]),
}

/// Per-set output attribution counts of one partition: how many output
/// rows each set's input rows source — per-set sums of the explain's
/// fan-out (shared with Contribute), or the set sizes for a union, whose
/// every input row sources exactly one output row.
fn attribution_counts(ctx: &PipelineContext<'_>, partition: &RowPartition) -> Vec<u64> {
    if matches!(ctx.step.op, Operation::Union) {
        return partition.sets.iter().map(|s| s.size as u64).collect();
    }
    let sourced = ctx.fan_out.of(ctx.step, partition.input_idx);
    let index = partition.rows_by_set();
    (0..partition.n_sets())
        .map(|s| {
            let rows = index.rows_of_slot(s).iter();
            rows.map(|&r| sourced.fan_out(r as usize) as u64).sum()
        })
        .collect()
}

/// Render one candidate as a captioned chart drawn from the partition's
/// per-set `values`.
#[allow(clippy::too_many_arguments)]
fn render_explanation(
    ctx: &PipelineContext<'_>,
    partition: &RowPartition,
    values: SetValues<'_>,
    slot: usize,
    column: &str,
    interestingness: f64,
    raw: f64,
    std: f64,
) -> Result<Explanation> {
    let step = ctx.step;
    let set_label = partition.sets[slot].label.clone();
    let (caption, chart) = match values {
        SetValues::Attributed(attributed) => {
            let (bars, before, after) = exceptionality_chart(step, partition, attributed, slot)?;
            (
                exceptionality_caption(column, &set_label, before, after),
                Chart {
                    kind: ChartKind::BeforeAfterBars,
                    x_label: partition.defining_column().to_string(),
                    y_label: "Frequency (%)".to_string(),
                    bars,
                    mean_line: None,
                },
            )
        }
        SetValues::Means(means) => {
            let (bars, z, mean) = diversity_chart(step, partition, means, slot, column)?;
            (
                diversity_caption(column, partition.defining_column(), &set_label, z, mean),
                Chart {
                    kind: ChartKind::ValueBars,
                    x_label: partition.defining_column().to_string(),
                    y_label: format!("'{column}' per set"),
                    bars,
                    mean_line: Some(mean),
                },
            )
        }
    };
    Ok(Explanation {
        column: column.to_string(),
        measure: ctx.kind,
        interestingness,
        set_label,
        partition_attr: partition.attr.clone(),
        partition_kind: partition.kind.clone(),
        input_idx: partition.input_idx,
        set_size: partition.sets[slot].size,
        contribution: raw,
        std_contribution: std,
        score: weighted_score(
            interestingness,
            std,
            ctx.config.w_interestingness,
            ctx.config.w_contribution,
        ),
        caption,
        chart,
    })
}

/// Build the before/after frequency bars for an exceptionality
/// explanation from the partition's precomputed attribution counts;
/// returns `(bars, before% of the chosen set, after%)`.
fn exceptionality_chart(
    step: &ExploratoryStep,
    partition: &RowPartition,
    attributed: &[u64],
    slot: usize,
) -> Result<(Vec<Bar>, f64, f64)> {
    let n_in = step.inputs[partition.input_idx].n_rows().max(1) as f64;
    let n_out = step.output.n_rows().max(1) as f64;
    let mut bars = Vec::with_capacity(partition.n_sets());
    let mut chosen = (0.0, 0.0);
    for (s, meta) in partition.sets.iter().enumerate() {
        let before = 100.0 * meta.size as f64 / n_in;
        let after = 100.0 * attributed[s] as f64 / n_out;
        if s == slot {
            chosen = (before, after);
        }
        bars.push(Bar {
            label: meta.label.clone(),
            value: before,
            after: Some(after),
            highlighted: s == slot,
        });
    }
    Ok((bars, chosen.0, chosen.1))
}

/// Each set's aggregated value for a diversity chart of `column`: every
/// output group's value weighted by the share of its rows in the set. For
/// partitions coarser than the grouping (e.g. many-to-one year → decade)
/// this is exactly the per-set mean of its groups. Sets without grouped
/// rows read 0.
fn diversity_set_means(
    step: &ExploratoryStep,
    partition: &RowPartition,
    column: &str,
) -> Result<Vec<f64>> {
    let out_col = step.output.column(column)?;
    let n_slots = partition.n_slots();
    let mut wsum = vec![0.0f64; n_slots];
    let mut wcnt = vec![0.0f64; n_slots];
    if let Provenance::GroupBy { group_of_row, .. } = &step.provenance {
        let index = partition.rows_by_set();
        for s in 0..n_slots {
            for &row in index.rows_of_slot(s) {
                let Some(g) = group_of_row[row as usize] else {
                    continue;
                };
                if let Some(v) = out_col.f64_at(g as usize) {
                    wsum[s] += v;
                    wcnt[s] += 1.0;
                }
            }
        }
    }
    Ok((0..partition.n_sets())
        .map(|s| {
            if wcnt[s] > 0.0 {
                wsum[s] / wcnt[s]
            } else {
                0.0
            }
        })
        .collect())
}

/// Build the per-set aggregated-value bars for a diversity explanation
/// from the partition's per-set `means`; returns `(bars, z-score of the
/// chosen set, overall mean)`.
fn diversity_chart(
    step: &ExploratoryStep,
    partition: &RowPartition,
    means: &[f64],
    slot: usize,
    column: &str,
) -> Result<(Vec<Bar>, f64, f64)> {
    let values = step.output.column(column)?.numeric_values();
    let (mean_all, std_all) = mean_and_std(&values);
    let mut bars = Vec::with_capacity(partition.n_sets());
    let mut chosen_value = mean_all;
    for (s, meta) in partition.sets.iter().enumerate() {
        let v = means[s];
        if s == slot {
            chosen_value = v;
        }
        bars.push(Bar {
            label: meta.label.clone(),
            value: v,
            after: None,
            highlighted: s == slot,
        });
    }
    let z = if std_all > 0.0 {
        (chosen_value - mean_all) / std_all
    } else {
        0.0
    };
    Ok((bars, z, mean_all))
}
