//! Row partitions (§3.5): frequency-based, numeric equal-frequency, and
//! many-to-one.
//!
//! A [`RowPartition`] divides one input dataframe into `n + 1` disjoint
//! sets-of-rows `{R_1, ..., R_n, R̂}` (Def. 3.8), where `R̂` is the
//! *ignore-set* that can never become an explanation candidate. The rows
//! are stored once, as a CSR [`RowSetIndex`] (rows as `u32`): each set's
//! rows are one contiguous ascending slice, the ignore-set's last. With
//! one representation, no per-row assignment can disagree with an index
//! ([`RowPartition::assignment`] materializes one on demand).
//!
//! The index is the partition's row payload and sits behind an `Arc`. It
//! belongs to the payload, not to one handle: a clone copies the set
//! metadata (O(sets)) and shares the rows, and [`mine_input_partitions`]
//! builds each distinct payload once per input — a many-to-one partition
//! of `A` via `B` *is* `B`'s frequency partition relabelled, so it points
//! at that payload. The cross-request cache holds an input's mined list
//! at the cost of its distinct payloads, and an explain over a cached
//! list groups no rows at all.
//!
//! All three builders run entirely on the dense dictionary codes of
//! [`fedex_frame::codec`] — value counting is an array scatter, the
//! many-to-one check is a `u32 → u32` functional-dependency table, and the
//! numeric equal-frequency bins are cut on the (already value-sorted)
//! per-code counts. Boxed [`fedex_frame::Value`]s only appear in set
//! labels. The
//! `*_coded` variants take pre-encoded columns so the pipeline can encode
//! each input once; the plain wrappers encode on the fly.

use std::sync::Arc;

use fedex_frame::{CodedColumn, CodedFrame, DataFrame, NULL_CODE};
use fedex_stats::binning::{equal_frequency_cut, interval_label, value_tie_runs};
use fedex_stats::sampling::uniform_sample_indices;

use crate::error::ExplainError;
use crate::Result;

/// Assignment code of the ignore-set `R̂`.
pub const IGNORE: u32 = u32::MAX;

/// The partition method that produced a [`RowPartition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionKind {
    /// Top-`n` most prevalent values of the attribute; the rest is ignored.
    Frequency,
    /// Equal-frequency value intervals (numeric attributes; empty
    /// ignore-set).
    NumericBins,
    /// Values of the attribute grouped through a many-to-one related
    /// attribute `via` (e.g. `year → decade`).
    ManyToOne {
        /// The coarser attribute `B`.
        via: String,
    },
}

impl PartitionKind {
    /// Short label used in captions and experiment output.
    pub fn name(&self) -> String {
        match self {
            PartitionKind::Frequency => "frequency".to_string(),
            PartitionKind::NumericBins => "numeric-bins".to_string(),
            PartitionKind::ManyToOne { via } => format!("many-to-one({via})"),
        }
    }
}

/// Metadata of one set-of-rows within a partition.
#[derive(Debug, Clone, PartialEq)]
pub struct SetMeta {
    /// Human-readable label: the value, the interval, or the `B` value.
    pub label: String,
    /// Number of rows in the set.
    pub size: usize,
}

/// CSR row index of one partition: all row indices, grouped by set.
///
/// `rows_of(s)` is the ascending row list of set `s` as a slice —
/// `offsets` bounds each set's segment of the flat `rows` array. The
/// ignore-set follows the sets; a last segment holds the rows whose
/// assignment code named no set, which [`RowPartition::validate`] rejects.
#[derive(Debug, Clone, Default)]
pub struct RowSetIndex {
    offsets: Vec<usize>,
    rows: Vec<u32>,
    n_sets: usize,
}

impl RowSetIndex {
    /// Build the index: one counting pass for segment sizes, one scatter
    /// pass to place each row — O(rows + sets) total.
    fn build(assignment: &[u32], n_sets: usize) -> RowSetIndex {
        let segment = |a: u32| -> usize {
            if (a as usize) < n_sets {
                a as usize
            } else if a == IGNORE {
                n_sets
            } else {
                n_sets + 1
            }
        };
        // The sets, the ignore-set, then codes that name no set.
        let mut sizes = vec![0usize; n_sets + 2];
        for &a in assignment {
            sizes[segment(a)] += 1;
        }
        RowSetIndex::scatter(&sizes, assignment.len(), |i| segment(assignment[i]))
    }

    /// Place every row `i < n_rows` in segment `segment_of(i)`, whose
    /// final sizes are `sizes` (the sets, the ignore-set, invalid codes).
    fn scatter(sizes: &[usize], n_rows: usize, segment_of: impl Fn(usize) -> usize) -> RowSetIndex {
        assert!(u32::try_from(n_rows).is_ok(), "row indices must fit in u32");
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for s in sizes {
            acc += s;
            offsets.push(acc);
        }
        debug_assert_eq!(acc, n_rows, "segment sizes cover every row");
        let mut cursor: Vec<usize> = offsets[..sizes.len()].to_vec();
        let mut rows = vec![0u32; n_rows];
        for i in 0..n_rows {
            let c = &mut cursor[segment_of(i)];
            rows[*c] = i as u32;
            *c += 1;
        }
        RowSetIndex {
            offsets,
            rows,
            n_sets: sizes.len() - 2,
        }
    }

    fn segment(&self, s: usize) -> &[u32] {
        &self.rows[self.offsets[s]..self.offsets[s + 1]]
    }

    /// Resident bytes of the index.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<RowSetIndex>()
            + std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.rows.as_slice())
    }

    /// The rows of set `s`, ascending. [`IGNORE`] selects the ignore-set;
    /// any other out-of-range code yields an empty slice.
    pub fn rows_of(&self, s: u32) -> &[u32] {
        if s == IGNORE {
            self.ignore_rows()
        } else if (s as usize) < self.n_sets {
            self.segment(s as usize)
        } else {
            &[]
        }
    }

    /// The rows of the ignore-set, ascending.
    pub fn ignore_rows(&self) -> &[u32] {
        self.segment(self.n_sets)
    }

    /// The rows of contribution *slot* `slot`, ascending — slots `0..n_sets`
    /// are the candidate sets, slot `n_sets` is the ignore-set. This is the
    /// contiguous-range view the contribution kernels walk per slot (see
    /// [`crate::kernel`]).
    pub fn rows_of_slot(&self, slot: usize) -> &[u32] {
        self.segment(slot.min(self.n_sets))
    }
}

/// A partition of one input dataframe into disjoint sets-of-rows.
///
/// The rows live in one [`RowSetIndex`] behind an `Arc`: clones share it,
/// so a clone costs O(sets), not O(rows), and no clone ever rebuilds it.
#[derive(Debug, Clone)]
pub struct RowPartition {
    /// Which input dataframe of the step this partitions.
    pub input_idx: usize,
    /// The attribute the partition was derived from (`A` in §3.5).
    pub attr: String,
    /// The method used.
    pub kind: PartitionKind,
    /// Per-set metadata, indexed by assignment code.
    pub sets: Vec<SetMeta>,
    /// Number of rows in the ignore-set.
    pub ignore_size: usize,
    /// The rows grouped by set, shared by every clone and by every
    /// partition relabelled from the same payload.
    rows: Arc<RowSetIndex>,
}

impl RowPartition {
    /// Assemble a partition from its parts, grouping the rows of the
    /// per-row `assignment` (set index, or [`IGNORE`]) into the partition's
    /// index. Def. 3.8 invariants are *not* checked here — call
    /// [`RowPartition::validate`].
    pub fn new(
        input_idx: usize,
        attr: impl Into<String>,
        kind: PartitionKind,
        sets: Vec<SetMeta>,
        assignment: Vec<u32>,
        ignore_size: usize,
    ) -> RowPartition {
        let rows = Arc::new(RowSetIndex::build(&assignment, sets.len()));
        RowPartition {
            input_idx,
            attr: attr.into(),
            kind,
            sets,
            ignore_size,
            rows,
        }
    }

    /// A mined partition: row `i` is in set `set_of_code[codes[i]]`, or in
    /// the ignore-set for a null code or an [`IGNORE`] entry; `sets`
    /// carries each set's row count, so the rows go straight into the
    /// index in one pass.
    fn from_codes(
        input_idx: usize,
        attr: &str,
        kind: PartitionKind,
        sets: Vec<SetMeta>,
        codes: &[u32],
        set_of_code: &[u32],
    ) -> RowPartition {
        let n_sets = sets.len();
        let mut sizes: Vec<usize> = sets.iter().map(|s| s.size).collect();
        sizes.extend([codes.len() - sizes.iter().sum::<usize>(), 0]);
        let rows = RowSetIndex::scatter(&sizes, codes.len(), |i| match codes[i] {
            NULL_CODE => n_sets,
            c => (set_of_code[c as usize] as usize).min(n_sets),
        });
        RowPartition {
            input_idx,
            attr: attr.to_string(),
            kind,
            sets,
            ignore_size: rows.ignore_rows().len(),
            rows: Arc::new(rows),
        }
    }

    /// Number of candidate sets (excluding the ignore-set).
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }

    /// Number of contribution slots: the sets, plus the ignore-set when it
    /// is non-empty.
    pub fn n_slots(&self) -> usize {
        self.n_sets() + usize::from(self.ignore_size > 0)
    }

    /// Number of rows of the partitioned input.
    pub fn n_rows(&self) -> usize {
        self.rows.rows.len()
    }

    /// The per-row set assignment ([`IGNORE`] = ignore-set), materialized
    /// from the index in O(rows) for consumers that look rows up in
    /// provenance order.
    pub fn assignment(&self) -> Vec<u32> {
        let mut out = vec![IGNORE; self.n_rows()];
        for s in (0..self.rows.n_sets).chain([self.rows.n_sets + 1]) {
            for &r in self.rows.segment(s) {
                out[r as usize] = s as u32;
            }
        }
        out
    }

    /// The CSR rows-by-set index, shared by every handle over the same
    /// rows (clones, relabelled partitions, cached lists).
    pub fn rows_by_set(&self) -> &RowSetIndex {
        &self.rows
    }

    /// The column whose values *define* the row assignment: `via` for a
    /// many-to-one partition, the partitioned attribute otherwise. Two
    /// partitions with the same defining column, method family, and set
    /// count assign rows identically, so the explanation pipeline
    /// deduplicates on this key.
    pub fn defining_column(&self) -> &str {
        match &self.kind {
            PartitionKind::ManyToOne { via } => via,
            _ => &self.attr,
        }
    }

    /// The row indices of set `s` by a full assignment scan — the O(rows)
    /// reference for [`RowPartition::rows_by_set`].
    pub fn rows_of_set(&self, s: u32) -> Vec<u32> {
        self.assignment()
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == s).then_some(i as u32))
            .collect()
    }

    /// Check the Def. 3.8 invariants: every row is in exactly one set or
    /// the ignore-set, and set sizes match the rows.
    pub fn validate(&self) -> Result<()> {
        if let Some(&row) = self.rows.segment(self.rows.n_sets + 1).first() {
            return Err(ExplainError::InvalidConfig(format!(
                "assignment code of row {row} out of range"
            )));
        }
        if self.rows.ignore_rows().len() != self.ignore_size {
            return Err(ExplainError::InvalidConfig("ignore size mismatch".into()));
        }
        for (s, meta) in self.sets.iter().enumerate() {
            let size = self.rows.segment(s).len();
            if size != meta.size {
                return Err(ExplainError::InvalidConfig(format!(
                    "set {s} size mismatch: {size} vs {}",
                    meta.size
                )));
            }
        }
        Ok(())
    }
}

/// Estimated resident bytes of a list of partitions: the metadata of each
/// handle plus every *distinct* row index once (indexes shared between
/// handles are counted by pointer identity).
pub(crate) fn approx_bytes(partitions: &[RowPartition]) -> usize {
    let mut payloads = std::collections::HashSet::new();
    partitions
        .iter()
        .map(|p| {
            let meta: usize = std::mem::size_of::<RowPartition>()
                + p.attr.len()
                + p.sets
                    .iter()
                    .map(|s| std::mem::size_of::<SetMeta>() + s.label.len())
                    .sum::<usize>();
            let rows = if payloads.insert(Arc::as_ptr(&p.rows)) {
                p.rows.approx_bytes()
            } else {
                0
            };
            meta + rows
        })
        .sum()
}

/// Frequency-based partition: one set per top-`n` most prevalent value of
/// `attr`; all other rows (and null rows) go to the ignore-set.
///
/// Returns `None` when the column has no non-null values.
pub fn frequency_partition(
    df: &DataFrame,
    input_idx: usize,
    attr: &str,
    n: usize,
) -> Result<Option<RowPartition>> {
    let coded = CodedColumn::encode(df.column(attr)?);
    Ok(frequency_partition_coded(&coded, input_idx, attr, n))
}

/// [`frequency_partition`] over a pre-encoded column: per-code counting
/// scatter, top-`n` by `(count desc, value asc)` (codes *are* value
/// order), and a code → set remap — no `Value` on the hot path.
pub fn frequency_partition_coded(
    coded: &CodedColumn,
    input_idx: usize,
    attr: &str,
    n: usize,
) -> Option<RowPartition> {
    let n_codes = coded.n_codes();
    // The per-code counts were fused into the encode pass — no row scan.
    let counts = coded.counts();
    if coded.n_non_null() == 0 || n == 0 {
        return None;
    }
    // Top-n codes: count descending, code (= value) ascending on ties —
    // the exact ordering of `ValueHist::top_n`.
    let mut order: Vec<u32> = (0..n_codes as u32).collect();
    order.sort_by(|&a, &b| {
        counts[b as usize]
            .cmp(&counts[a as usize])
            .then_with(|| a.cmp(&b))
    });
    order.truncate(n);

    let mut set_of_code = vec![IGNORE; n_codes];
    let mut sets = Vec::with_capacity(order.len());
    for (s, &c) in order.iter().enumerate() {
        set_of_code[c as usize] = s as u32;
        sets.push(SetMeta {
            label: coded.value(c).to_string(),
            size: counts[c as usize] as usize,
        });
    }
    Some(RowPartition::from_codes(
        input_idx,
        attr,
        PartitionKind::Frequency,
        sets,
        coded.codes(),
        &set_of_code,
    ))
}

/// Numeric equal-frequency partition of `attr` into at most `n` interval
/// sets. Null rows go to the ignore-set (the paper's ignore-set is empty
/// for this method on fully-populated columns).
///
/// Returns `None` when `attr` is not numeric or has no non-null values.
pub fn numeric_partition(
    df: &DataFrame,
    input_idx: usize,
    attr: &str,
    n: usize,
) -> Result<Option<RowPartition>> {
    let col = df.column(attr)?;
    if !col.dtype().is_numeric() {
        return Ok(None);
    }
    let coded = CodedColumn::encode(col);
    Ok(numeric_partition_coded(&coded, input_idx, attr, n))
}

/// [`numeric_partition`] over a pre-encoded column. Returns `None` for
/// non-numeric columns, like the wrapper.
///
/// Codes arrive in ascending value order, so the per-code counts form the
/// value-tie runs directly (ties under `f64 ==` merge the `-0.0`/`+0.0`
/// pair of adjacent codes) and the bin boundaries come from the same
/// [`equal_frequency_cut`] that drives the row-sorted
/// `equal_frequency_bins` — no rows are ever sorted, and the two surfaces
/// cannot cut differently. Row assignment is then a code → bin scatter.
pub fn numeric_partition_coded(
    coded: &CodedColumn,
    input_idx: usize,
    attr: &str,
    n: usize,
) -> Option<RowPartition> {
    let n_codes = coded.n_codes();
    let counts = coded.counts();
    // Non-NaN codes in value order, with their f64 value and count.
    // A non-numeric decode value (string column handed in directly) makes
    // the whole partition inapplicable, mirroring the dtype check of
    // [`numeric_partition`].
    let mut kept: Vec<(u32, f64, usize)> = Vec::with_capacity(n_codes);
    for c in 0..n_codes as u32 {
        let x = coded.value(c).as_f64()?;
        if !x.is_nan() && counts[c as usize] > 0 {
            kept.push((c, x, counts[c as usize] as usize));
        }
    }
    if kept.is_empty() || n == 0 {
        return None;
    }

    // Value-tie runs over the kept codes (codes arrive in value order, so
    // the `-0.0`/`+0.0` pair — or integers collapsing under the f64
    // widening — form contiguous runs), using the shared tie rule.
    let (run_sizes, run_start) = value_tie_runs(kept.iter().map(|&(_, x, cnt)| (x, cnt)));

    // The shared equal-frequency cut over the runs — the same boundary
    // algorithm as the row-sorted `equal_frequency_bins`.
    let mut bin_of_code = vec![IGNORE; n_codes];
    let mut sets = Vec::new();
    for (b, (first, last)) in equal_frequency_cut(&run_sizes, n).into_iter().enumerate() {
        let start_idx = run_start[first];
        let last_idx = if last + 1 < run_start.len() {
            run_start[last + 1] - 1
        } else {
            kept.len() - 1
        };
        for k in start_idx..=last_idx {
            bin_of_code[kept[k].0 as usize] = b as u32;
        }
        sets.push(SetMeta {
            label: interval_label(kept[start_idx].1, kept[last_idx].1),
            size: run_sizes[first..=last].iter().sum(),
        });
    }

    Some(RowPartition::from_codes(
        input_idx,
        attr,
        PartitionKind::NumericBins,
        sets,
        coded.codes(),
        &bin_of_code,
    ))
}

/// Mine attributes `B` that stand in a many-to-one relationship with
/// `attr` (Conditions 1–2 of §3.5): `attr` functionally determines `B`,
/// and `B` is strictly coarser. For each such `B`, the rows are partitioned
/// by the frequency method over `B`.
///
/// Mining first rejects candidates on a uniform row sample (cheap), then
/// verifies survivors with a full scan — a pure optimization that cannot
/// admit false positives.
pub fn many_to_one_partitions(
    df: &DataFrame,
    input_idx: usize,
    attr: &str,
    n: usize,
    seed: u64,
) -> Result<Vec<RowPartition>> {
    df.column(attr)?; // surface unknown-column errors like the coded path
    let coded = CodedFrame::encode(df);
    many_to_one_partitions_coded(&coded, input_idx, attr, n, seed)
}

/// [`many_to_one_partitions`] over a pre-encoded frame: the functional
/// dependency check is a dense `u32 → u32` table over `A`'s codes — no
/// `Value` clones, no hashing.
pub fn many_to_one_partitions_coded(
    coded: &CodedFrame,
    input_idx: usize,
    attr: &str,
    n: usize,
    seed: u64,
) -> Result<Vec<RowPartition>> {
    let vias = many_to_one_vias(coded, attr, seed)?;
    Ok(partitions_for_vias(&vias, input_idx, attr, n))
}

/// The columns `B` of the frame standing in a many-to-one relationship
/// with `attr` (Conditions 1–2 of §3.5), in schema order. Candidates are
/// first rejected on a uniform row sample (cheap), survivors verified
/// with a full scan — each FD verified exactly **once**, however many set
/// counts the caller then builds partitions for.
fn many_to_one_vias<'a>(
    coded: &'a CodedFrame,
    attr: &str,
    seed: u64,
) -> Result<Vec<(&'a str, &'a std::sync::Arc<CodedColumn>)>> {
    let a = coded
        .column(attr)
        .ok_or_else(|| ExplainError::UnknownColumn(attr.to_string()))?;
    let n_rows = a.len();
    if n_rows == 0 {
        return Ok(Vec::new());
    }
    const MINE_SAMPLE: usize = 2_000;
    let sample = uniform_sample_indices(n_rows, MINE_SAMPLE, seed);

    Ok(coded
        .iter()
        .filter(|(b_name, b)| {
            *b_name != attr
                && holds_many_to_one_coded(a, b, Some(&sample))
                && holds_many_to_one_coded(a, b, None)
        })
        .collect())
}

/// Frequency partitions over each verified `via` column, relabelled as
/// many-to-one partitions of `attr`.
fn partitions_for_vias(
    vias: &[(&str, &std::sync::Arc<CodedColumn>)],
    input_idx: usize,
    attr: &str,
    n: usize,
) -> Vec<RowPartition> {
    let mut out = Vec::new();
    for (b_name, b) in vias {
        if let Some(mut p) = frequency_partition_coded(b, input_idx, b_name, n) {
            p.attr = attr.to_string();
            p.kind = PartitionKind::ManyToOne {
                via: b_name.to_string(),
            };
            out.push(p);
        }
    }
    out
}

/// Check Conditions 1–2 of §3.5 over the given rows (`None` = all rows):
/// every `A` value maps to a single `B` value, and at least one `B` value
/// covers two distinct `A` values. Rows where either side is null are
/// skipped.
///
/// On codes this is a plain functional-dependency table: `fd[a_code]`
/// holds the unique `b_code` seen so far ([`NULL_CODE`] = unseen). The
/// scan **exits at the first conflicting code pair** — a disproven FD
/// (the overwhelmingly common case on real schemas) costs only as many
/// rows as it takes to find one counterexample, never a full pass. The
/// distinct counts for the strictly-coarser test (`#distinct(A) >
/// #distinct(B-image)`) are tracked in the same single scan, so a holding
/// FD needs no second pass over the code space either.
fn holds_many_to_one_coded(a: &CodedColumn, b: &CodedColumn, rows: Option<&[usize]>) -> bool {
    let mut fd = vec![NULL_CODE; a.n_codes()];
    let mut b_seen = vec![false; b.n_codes()];
    let mut distinct_a = 0usize;
    let mut distinct_b = 0usize;
    let a_codes = a.codes();
    let b_codes = b.codes();
    let mut visit = |i: usize| {
        let ca = a_codes[i];
        let cb = b_codes[i];
        if ca == NULL_CODE || cb == NULL_CODE {
            return true;
        }
        let slot = &mut fd[ca as usize];
        if *slot == NULL_CODE {
            *slot = cb;
            distinct_a += 1;
            let seen = &mut b_seen[cb as usize];
            if !*seen {
                *seen = true;
                distinct_b += 1;
            }
            true
        } else {
            *slot == cb
        }
    };
    match rows {
        Some(rows) => {
            for &i in rows {
                if !visit(i) {
                    return false; // first conflicting pair disproves the FD
                }
            }
        }
        None => {
            for i in 0..a_codes.len() {
                if !visit(i) {
                    return false;
                }
            }
        }
    }
    distinct_a > 0 && distinct_a > distinct_b
}

/// Build all partitions of `df` for one attribute: frequency, numeric bins
/// (when applicable), and every many-to-one partition — for each requested
/// set count. Encodes the frame on the fly; the pipeline mines whole
/// inputs from shared coded frames with [`mine_input_partitions`]'s
/// payload sharing instead, and this stays the single-attribute
/// reference.
///
/// Many-to-one mining is hoisted out of the set-count loop: each
/// `(attr, B)` functional dependency is sample-rejected and full-verified
/// exactly once, then reused for every requested set count.
pub fn build_partitions_for_attr(
    df: &DataFrame,
    input_idx: usize,
    attr: &str,
    set_counts: &[usize],
    seed: u64,
) -> Result<Vec<RowPartition>> {
    let col = df.column(attr)?;
    let coded = CodedFrame::encode(df);
    let coded_col = coded
        .column(attr)
        .ok_or_else(|| ExplainError::UnknownColumn(attr.to_string()))?;
    let vias = many_to_one_vias(&coded, attr, seed)?;
    let mut out = Vec::new();
    for &n in set_counts {
        if let Some(p) = frequency_partition_coded(coded_col, input_idx, attr, n) {
            out.push(p);
        }
        if col.dtype().is_numeric() {
            if let Some(p) = numeric_partition_coded(coded_col, input_idx, attr, n) {
                out.push(p);
            }
        }
        out.extend(partitions_for_vias(&vias, input_idx, attr, n));
    }
    Ok(out)
}

/// What one attribute of an input contributes to its mined list: its own
/// frequency and numeric payloads per requested set count, and the
/// columns it stands many-to-one with. The unit of work PartitionRows
/// schedules in parallel; [`assemble_input_partitions`] joins the units.
#[derive(Debug)]
pub(crate) struct AttrPayloads {
    attr: String,
    /// Indexed like `set_counts`.
    frequency: Vec<Option<RowPartition>>,
    /// Indexed like `set_counts`; all `None` for non-numeric columns.
    numeric: Vec<Option<RowPartition>>,
    /// Verified many-to-one columns `B`, in schema order.
    vias: Vec<String>,
}

/// Mine one attribute's payloads: each frequency and numeric partition
/// once per set count, and each `(attr, B)` functional dependency
/// sample-rejected and full-verified once.
pub(crate) fn mine_attr_payloads(
    df: &DataFrame,
    coded: &CodedFrame,
    input_idx: usize,
    attr: &str,
    set_counts: &[usize],
    seed: u64,
) -> Result<AttrPayloads> {
    let numeric = df.column(attr)?.dtype().is_numeric();
    let coded_col = coded
        .column(attr)
        .ok_or_else(|| ExplainError::UnknownColumn(attr.to_string()))?;
    let vias = many_to_one_vias(coded, attr, seed)?
        .into_iter()
        .map(|(b, _)| b.to_string())
        .collect();
    Ok(AttrPayloads {
        attr: attr.to_string(),
        frequency: set_counts
            .iter()
            .map(|&n| frequency_partition_coded(coded_col, input_idx, attr, n))
            .collect(),
        numeric: set_counts
            .iter()
            .map(|&n| numeric.then(|| numeric_partition_coded(coded_col, input_idx, attr, n))?)
            .collect(),
        vias,
    })
}

/// Join the payloads of every attribute of one input (in schema order)
/// into the input's mined list — the concatenation, attribute by
/// attribute, of [`build_partitions_for_attr`]. A many-to-one
/// partition of `A` via `B` is `B`'s frequency payload for the same set
/// count, relabelled: it shares `B`'s rows instead of rebuilding them.
pub(crate) fn assemble_input_partitions(attrs: &[AttrPayloads]) -> Vec<RowPartition> {
    let mut out = Vec::new();
    for a in attrs {
        for k in 0..a.frequency.len() {
            out.extend(a.frequency[k].clone());
            out.extend(a.numeric[k].clone());
            for via in &a.vias {
                let b = attrs
                    .iter()
                    .find(|b| &b.attr == via)
                    .expect("a via is a column of the same input");
                if let Some(f) = &b.frequency[k] {
                    let mut p = f.clone();
                    p.attr = a.attr.clone();
                    p.kind = PartitionKind::ManyToOne { via: via.clone() };
                    out.push(p);
                }
            }
        }
    }
    out
}

/// Every partition of one input: [`build_partitions_for_attr`] for
/// each attribute in schema order, concatenated — with each distinct row
/// payload built once and shared (see the module docs).
pub fn mine_input_partitions(
    df: &DataFrame,
    coded: &CodedFrame,
    input_idx: usize,
    set_counts: &[usize],
    seed: u64,
) -> Result<Vec<RowPartition>> {
    let attrs = df
        .columns()
        .iter()
        .map(|c| mine_attr_payloads(df, coded, input_idx, c.name(), set_counts, seed))
        .collect::<Result<Vec<_>>>()?;
    Ok(assemble_input_partitions(&attrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedex_frame::Column;

    fn df() -> DataFrame {
        DataFrame::new(vec![
            Column::from_ints("year", vec![1991, 1992, 1991, 2014, 2013, 2014, 1991, 2020]),
            Column::from_strs(
                "decade",
                vec![
                    "1990s", "1990s", "1990s", "2010s", "2010s", "2010s", "1990s", "2020s",
                ],
            ),
            Column::from_floats(
                "loudness",
                vec![-11.0, -10.5, -11.2, -7.8, -8.2, -7.9, -10.9, -6.0],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn frequency_partition_top_n() {
        let p = frequency_partition(&df(), 0, "year", 2).unwrap().unwrap();
        p.validate().unwrap();
        assert_eq!(p.n_sets(), 2);
        // 1991 appears 3×, 2014 2× → top-2
        assert_eq!(p.sets[0].label, "1991");
        assert_eq!(p.sets[0].size, 3);
        assert_eq!(p.sets[1].label, "2014");
        assert_eq!(p.sets[1].size, 2);
        assert_eq!(p.ignore_size, 3);
    }

    #[test]
    fn frequency_partition_covers_all_rows() {
        let p = frequency_partition(&df(), 0, "decade", 10)
            .unwrap()
            .unwrap();
        p.validate().unwrap();
        assert_eq!(p.ignore_size, 0);
        let total: usize = p.sets.iter().map(|s| s.size).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn numeric_partition_bins() {
        let p = numeric_partition(&df(), 0, "loudness", 4).unwrap().unwrap();
        p.validate().unwrap();
        assert_eq!(p.kind, PartitionKind::NumericBins);
        assert_eq!(p.ignore_size, 0);
        assert_eq!(p.n_sets(), 4);
        // labels are intervals
        assert!(p.sets[0].label.starts_with('['));
    }

    #[test]
    fn numeric_partition_rejects_strings() {
        assert!(numeric_partition(&df(), 0, "decade", 4).unwrap().is_none());
    }

    #[test]
    fn many_to_one_finds_decade() {
        let ps = many_to_one_partitions(&df(), 0, "year", 5, 1).unwrap();
        assert_eq!(ps.len(), 1);
        let p = &ps[0];
        assert_eq!(
            p.kind,
            PartitionKind::ManyToOne {
                via: "decade".to_string()
            }
        );
        assert_eq!(p.attr, "year");
        p.validate().unwrap();
        // 3 decades → 3 sets
        assert_eq!(p.n_sets(), 3);
        let labels: Vec<&str> = p.sets.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"1990s"));
    }

    #[test]
    fn many_to_one_rejects_non_fd() {
        // year → loudness is not a function: 1991 maps to three different
        // loudness values, so no many-to-one via 'loudness' exists.
        let ps = many_to_one_partitions(&df(), 0, "year", 5, 1).unwrap();
        assert!(ps
            .iter()
            .all(|p| !matches!(&p.kind, PartitionKind::ManyToOne { via } if via == "loudness")));
    }

    #[test]
    fn many_to_one_accepts_key_columns() {
        // A unique-valued column functionally determines everything, so it
        // has a many-to-one partition via any strictly coarser column —
        // Conditions 1–2 of §3.5 verbatim.
        let ps = many_to_one_partitions(&df(), 0, "loudness", 5, 1).unwrap();
        assert!(ps
            .iter()
            .any(|p| matches!(&p.kind, PartitionKind::ManyToOne { via } if via == "decade")));
    }

    #[test]
    fn many_to_one_rejects_same_cardinality() {
        // A ↔ B bijection is not strictly coarser.
        let d = DataFrame::new(vec![
            Column::from_ints("a", vec![1, 2, 3]),
            Column::from_ints("b", vec![10, 20, 30]),
        ])
        .unwrap();
        assert!(many_to_one_partitions(&d, 0, "a", 5, 1).unwrap().is_empty());
    }

    #[test]
    fn nulls_go_to_ignore_set() {
        let d = DataFrame::new(vec![Column::from_opt_ints(
            "x",
            vec![Some(1), None, Some(1), Some(2)],
        )])
        .unwrap();
        let p = frequency_partition(&d, 0, "x", 5).unwrap().unwrap();
        assert_eq!(p.ignore_size, 1);
        assert_eq!(p.assignment()[1], IGNORE);
        p.validate().unwrap();
    }

    #[test]
    fn empty_column_yields_none() {
        let d = DataFrame::new(vec![Column::from_opt_ints("x", vec![None, None])]).unwrap();
        assert!(frequency_partition(&d, 0, "x", 5).unwrap().is_none());
        assert!(numeric_partition(&d, 0, "x", 5).unwrap().is_none());
    }

    #[test]
    fn build_partitions_for_attr_combines_methods() {
        let ps = build_partitions_for_attr(&df(), 0, "year", &[2, 5], 1).unwrap();
        // year: frequency ×2, numeric ×2, many-to-one(decade) ×2
        assert_eq!(ps.len(), 6);
        for p in &ps {
            p.validate().unwrap();
        }
    }

    #[test]
    fn mine_input_partitions_equals_per_attribute_builds() {
        let d = df();
        let coded = CodedFrame::encode(&d);
        let got = mine_input_partitions(&d, &coded, 1, &[2, 5], 3).unwrap();
        let want: Vec<RowPartition> = d
            .schema()
            .fields()
            .iter()
            .flat_map(|f| build_partitions_for_attr(&d, 1, &f.name, &[2, 5], 3).unwrap())
            .collect();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                (g.input_idx, &g.attr, &g.kind),
                (w.input_idx, &w.attr, &w.kind)
            );
            assert_eq!(g.sets, w.sets);
            assert_eq!(g.assignment(), w.assignment());
            assert_eq!(g.ignore_size, w.ignore_size);
        }
        // year via decade shares decade's frequency payload for each n.
        for n in [2, 5] {
            let of = |attr: &str, many_to_one: bool| {
                got.iter()
                    .find(|p| {
                        p.attr == attr
                            && p.n_sets() == n.min(3)
                            && matches!(p.kind, PartitionKind::ManyToOne { .. }) == many_to_one
                            && p.kind != PartitionKind::NumericBins
                    })
                    .unwrap()
            };
            assert!(Arc::ptr_eq(
                &of("year", true).rows,
                &of("decade", false).rows
            ));
        }
    }

    #[test]
    fn clones_share_the_index() {
        let p = frequency_partition(&df(), 0, "decade", 3).unwrap().unwrap();
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.rows, &q.rows));
        assert!(std::ptr::eq(p.rows_by_set(), q.rows_by_set()));
        // The index is the payload: charged once, at one `u32` per row.
        let one = approx_bytes(std::slice::from_ref(&p));
        assert!(one >= std::mem::size_of::<u32>() * p.n_rows());
        let two = approx_bytes(&[p.clone(), q]);
        assert!(two < 2 * one && two > one, "{one} vs {two}");
    }

    #[test]
    fn assignment_round_trips_through_the_index() {
        let assignment = vec![1, IGNORE, 0, 1, 7, 0];
        let sets = vec![
            SetMeta {
                label: "a".into(),
                size: 2,
            },
            SetMeta {
                label: "b".into(),
                size: 2,
            },
        ];
        let p = RowPartition::new(0, "x", PartitionKind::Frequency, sets, assignment, 1);
        assert_eq!(p.rows_by_set().rows_of(1), &[0, 3]);
        assert_eq!(p.rows_by_set().ignore_rows(), &[1]);
        // Code 7 names no set: kept out of every set and the ignore-set,
        // and rejected by validation.
        assert_eq!(p.assignment()[..4], [1, IGNORE, 0, 1]);
        assert!(p.assignment()[4] >= 2);
        assert!(p.validate().is_err());
    }

    #[test]
    fn rows_of_set_materializes() {
        let p = frequency_partition(&df(), 0, "decade", 3).unwrap().unwrap();
        let idx_1990s = p.sets.iter().position(|s| s.label == "1990s").unwrap() as u32;
        let rows = p.rows_of_set(idx_1990s);
        assert_eq!(rows, vec![0, 1, 2, 6]);
    }
}
