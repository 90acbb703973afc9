//! Property tests pinning the code-based kernel layer to its boxed-`Value`
//! reference semantics: `CodedHist` vs `ValueHist` on add/sub/KS, the
//! coded partition builders vs the value-based algorithms they replaced,
//! and the single-pass scatter contribution vs per-slot
//! `ValueHist::from_column_rows` rebuilds — all bit-for-bit, on columns
//! with nulls, NaNs, and `-0.0`/`+0.0`.

use std::collections::HashMap;

use fedex_core::{
    build_partitions_for_attr, frequency_partition, numeric_partition, CodedHist,
    ContributionComputer, InterestingnessKind, PartitionKind, RowPartition, ValueHist, IGNORE,
};
use fedex_frame::{CodedColumn, Column, DataFrame, Value};
use fedex_query::{ExploratoryStep, Expr, Operation};
use fedex_stats::binning::equal_frequency_bins;
use proptest::prelude::*;

/// Decode a `(tag, payload)` pair into a nullable float exercising the
/// nasty cases: nulls, NaN, negative zero, ties.
fn float_cell(tag: u8, payload: i32) -> Option<f64> {
    match tag % 8 {
        0 => None,
        1 => Some(-0.0),
        2 => Some(0.0),
        3 => Some(f64::NAN),
        4 | 5 => Some((payload % 7) as f64), // heavy ties
        _ => Some(payload as f64 / 16.0),
    }
}

fn int_cell(tag: u8, payload: i32) -> Option<i64> {
    match tag % 5 {
        0 => None,
        1 | 2 => Some((payload % 5) as i64),
        _ => Some(payload as i64),
    }
}

/// Counts of a `ValueHist` in value order (its iteration order).
fn value_counts(h: &ValueHist) -> Vec<(Value, i64)> {
    h.iter().map(|(v, c)| (v.clone(), c)).collect()
}

/// Counts of a `CodedHist` decoded through the column's table, skipping
/// non-positive counts — directly comparable to [`value_counts`]
/// (`ValueHist::iter` hides counts `<= 0` the same way).
fn coded_counts(h: &CodedHist, coded: &CodedColumn) -> Vec<(Value, i64)> {
    (0..h.n_codes() as u32)
        .filter(|&c| h.count(c) > 0)
        .map(|c| (coded.value(c).clone(), h.count(c)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `CodedHist` and `ValueHist` agree on totals, per-value counts, and
    /// the KS-with-subtraction statistic — to the bit — for float columns
    /// with nulls, NaNs and signed zeros.
    #[test]
    fn coded_hist_agrees_with_value_hist(
        cells in proptest::collection::vec((0u8..8, -40i32..40), 1..120),
        mask in proptest::collection::vec(proptest::strategy::any::<bool>(), 120..121),
    ) {
        let vals: Vec<Option<f64>> = cells.iter().map(|&(t, p)| float_cell(t, p)).collect();
        let col = Column::from_opt_floats("x", vals);
        let coded = CodedColumn::encode(&col);

        let vh = ValueHist::from_column(&col);
        let ch = CodedHist::from_coded(&coded);
        prop_assert_eq!(vh.total(), ch.total());
        prop_assert_eq!(vh.n_distinct(), ch.n_distinct());
        prop_assert_eq!(value_counts(&vh), coded_counts(&ch, &coded));

        // Row subsets as subtraction histograms on both sides.
        let rows_a: Vec<usize> = (0..col.len()).filter(|&i| mask[i]).collect();
        let rows_b: Vec<usize> = (0..col.len()).filter(|&i| !mask[i]).collect();
        let v_sub_a = ValueHist::from_column_rows(&col, &rows_a);
        let v_sub_b = ValueHist::from_column_rows(&col, &rows_b);
        let c_sub_a = CodedHist::from_coded_rows(&coded, &rows_a);
        let c_sub_b = CodedHist::from_coded_rows(&coded, &rows_b);
        prop_assert_eq!(v_sub_a.total(), c_sub_a.total());
        prop_assert_eq!(value_counts(&v_sub_b), coded_counts(&c_sub_b, &coded));

        let want = vh.ks_sub(&v_sub_a, &vh, &v_sub_b);
        let got = ch.ks_sub(&c_sub_a, &ch, &c_sub_b);
        prop_assert_eq!(got.to_bits(), want.to_bits());
        prop_assert_eq!(ch.ks(&ch).to_bits(), vh.ks(&vh).to_bits());
    }

    /// Incremental `add` agrees between the two histogram kernels,
    /// including negative deltas (subtraction) and re-additions.
    #[test]
    fn coded_hist_add_sub_agrees(
        cells in proptest::collection::vec((0u8..8, -40i32..40), 2..80),
        ops in proptest::collection::vec((0usize..80, -3i64..4), 1..40),
    ) {
        let vals: Vec<Option<f64>> = cells.iter().map(|&(t, p)| float_cell(t, p)).collect();
        let col = Column::from_opt_floats("x", vals);
        let coded = CodedColumn::encode(&col);
        if coded.n_codes() > 0 {
            let mut vh = ValueHist::new();
            let mut ch = CodedHist::new(coded.n_codes());
            for &(slot, delta) in &ops {
                let code = (slot % coded.n_codes()) as u32;
                vh.add(coded.value(code).clone(), delta);
                if delta != 0 {
                    ch.add(code, delta);
                }
            }
            prop_assert_eq!(vh.total(), ch.total());
            prop_assert_eq!(value_counts(&vh), coded_counts(&ch, &coded));
        }
    }

    /// The coded equal-frequency cut reproduces the row-sorted
    /// `equal_frequency_bins` partition exactly: same assignment, same
    /// labels, same sizes — ties, NaNs and `-0.0`/`+0.0` included.
    #[test]
    fn numeric_partition_matches_row_sorted_reference(
        cells in proptest::collection::vec((0u8..8, -40i32..40), 1..120),
        n in 1usize..8,
    ) {
        let vals: Vec<Option<f64>> = cells.iter().map(|&(t, p)| float_cell(t, p)).collect();
        let col = Column::from_opt_floats("x", vals);
        let df = DataFrame::new(vec![col.clone()]).unwrap();
        let got = numeric_partition(&df, 0, "x", n).unwrap();
        let want = reference_numeric_partition(&df, 0, "x", n);
        prop_assert_eq!(got.is_some(), want.is_some());
        if let (Some(g), Some(w)) = (got, want) {
            assert_partitions_equal(&g, &w);
        }
    }

    /// The coded frequency partition reproduces the `ValueHist::top_n`
    /// reference exactly, on integer columns with nulls and heavy ties.
    #[test]
    fn frequency_partition_matches_value_reference(
        cells in proptest::collection::vec((0u8..8, -40i32..40), 1..120),
        n in 1usize..8,
    ) {
        let vals: Vec<Option<i64>> = cells.iter().map(|&(t, p)| int_cell(t, p)).collect();
        let col = Column::from_opt_ints("x", vals);
        let df = DataFrame::new(vec![col.clone()]).unwrap();
        let got = frequency_partition(&df, 0, "x", n).unwrap();
        let want = reference_frequency_partition(&df, 0, "x", n);
        prop_assert_eq!(got.is_some(), want.is_some());
        if let (Some(g), Some(w)) = (got, want) {
            assert_partitions_equal(&g, &w);
        }
    }

    /// The `u32 → u32` functional-dependency table agrees with the boxed
    /// `HashMap<Value, Value>` check it replaced.
    #[test]
    fn many_to_one_check_agrees_with_value_reference(
        a_cells in proptest::collection::vec((0u8..8, -6i32..6), 1..80),
        b_cells in proptest::collection::vec((0u8..8, -3i32..3), 80..81),
    ) {
        let n = a_cells.len();
        let a = Column::from_opt_ints(
            "a",
            a_cells.iter().map(|&(t, p)| int_cell(t, p)).collect(),
        );
        let b = Column::from_opt_ints(
            "b",
            b_cells[..n].iter().map(|&(t, p)| int_cell(t, p)).collect(),
        );
        let df = DataFrame::new(vec![a.clone(), b.clone()]).unwrap();
        let got = fedex_core::many_to_one_partitions(&df, 0, "a", 5, 1)
            .unwrap()
            .into_iter()
            .any(|p| matches!(p.kind, fedex_core::PartitionKind::ManyToOne { .. }));
        let want = reference_holds_many_to_one(&a, &b);
        prop_assert_eq!(got, want);
    }
}

/// The pre-codec frequency partition, verbatim.
fn reference_frequency_partition(
    df: &DataFrame,
    input_idx: usize,
    attr: &str,
    n: usize,
) -> Option<RowPartition> {
    let col = df.column(attr).unwrap();
    let hist = ValueHist::from_column(col);
    if hist.total() == 0 || n == 0 {
        return None;
    }
    let top = hist.top_n(n);
    let code_of: HashMap<Value, u32> = top
        .iter()
        .enumerate()
        .map(|(i, (v, _))| (v.clone(), i as u32))
        .collect();
    let mut assignment = Vec::with_capacity(col.len());
    let mut ignore_size = 0usize;
    for v in col.iter() {
        match code_of.get(&v) {
            Some(&c) => assignment.push(c),
            None => {
                assignment.push(IGNORE);
                ignore_size += 1;
            }
        }
    }
    let sets = top
        .into_iter()
        .map(|(v, c)| fedex_core::SetMeta {
            label: v.to_string(),
            size: c as usize,
        })
        .collect();
    Some(RowPartition::new(
        input_idx,
        attr,
        PartitionKind::Frequency,
        sets,
        assignment,
        ignore_size,
    ))
}

/// The pre-codec numeric partition, verbatim.
fn reference_numeric_partition(
    df: &DataFrame,
    input_idx: usize,
    attr: &str,
    n: usize,
) -> Option<RowPartition> {
    let col = df.column(attr).unwrap();
    if !col.dtype().is_numeric() {
        return None;
    }
    let mut values: Vec<(usize, f64)> = Vec::with_capacity(col.len());
    for (i, v) in col.iter().enumerate() {
        if let Some(x) = v.as_f64() {
            if !x.is_nan() {
                values.push((i, x));
            }
        }
    }
    if values.is_empty() || n == 0 {
        return None;
    }
    let bins = equal_frequency_bins(&values, n);
    let mut assignment = vec![IGNORE; col.len()];
    let mut sets = Vec::with_capacity(bins.len());
    for (s, bin) in bins.iter().enumerate() {
        for &row in &bin.rows {
            assignment[row] = s as u32;
        }
        sets.push(fedex_core::SetMeta {
            label: bin.label(),
            size: bin.rows.len(),
        });
    }
    let ignore_size = assignment.iter().filter(|&&a| a == IGNORE).count();
    Some(RowPartition::new(
        input_idx,
        attr,
        PartitionKind::NumericBins,
        sets,
        assignment,
        ignore_size,
    ))
}

/// The pre-codec §3.5 Conditions 1–2 check, verbatim.
fn reference_holds_many_to_one(a: &Column, b: &Column) -> bool {
    let mut map: HashMap<Value, Value> = HashMap::new();
    for i in 0..a.len() {
        let va = a.get(i);
        let vb = b.get(i);
        if va.is_null() || vb.is_null() {
            continue;
        }
        match map.get(&va) {
            Some(prev) => {
                if *prev != vb {
                    return false;
                }
            }
            None => {
                map.insert(va, vb);
            }
        }
    }
    if map.is_empty() {
        return false;
    }
    let distinct_b: std::collections::HashSet<&Value> = map.values().collect();
    map.len() > distinct_b.len()
}

fn assert_partitions_equal(got: &RowPartition, want: &RowPartition) {
    assert_eq!(got.assignment(), want.assignment(), "assignment differs");
    assert_eq!(got.ignore_size, want.ignore_size);
    assert_eq!(got.n_sets(), want.n_sets());
    for (g, w) in got.sets.iter().zip(&want.sets) {
        assert_eq!(g.label, w.label);
        assert_eq!(g.size, w.size);
    }
}

// ---------------------------------------------------------------------
// Single-pass scatter contribution vs per-slot ValueHist rebuilds.
// ---------------------------------------------------------------------

fn fixtures_frame() -> DataFrame {
    let mut years = Vec::new();
    let mut decades = Vec::new();
    let mut pops = Vec::new();
    let mut loud = Vec::new();
    for i in 0..60i64 {
        let (y, d, p, l) = if i % 3 == 0 {
            (
                2010 + (i % 5),
                "2010s",
                70 + (i % 20),
                -7.0 - 0.05 * i as f64,
            )
        } else if i % 3 == 1 {
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
        // A -0.0 / +0.0 pinch point plus ties.
        loud.push(if i % 7 == 0 {
            -0.0
        } else if i % 7 == 1 {
            0.0
        } else {
            l
        });
    }
    DataFrame::new(vec![
        Column::from_ints("year", years),
        Column::from_strs("decade", decades),
        Column::from_ints("popularity", pops),
        Column::from_floats("loudness", loud),
    ])
    .unwrap()
}

/// The pre-codec incremental exceptionality for a filter step, verbatim:
/// per-slot `ValueHist` subtraction histograms built from boxed values.
fn reference_filter_contributions(
    step: &ExploratoryStep,
    partition: &RowPartition,
    column: &str,
) -> Option<Vec<f64>> {
    let (src_idx, src_col_name) = step.source_of_output_column(column)?;
    assert_eq!(src_idx, 0);
    let in_col = step.inputs[0].column(&src_col_name).unwrap();
    let out_col = step.output.column(column).unwrap();
    let base_in = ValueHist::from_column(in_col);
    let base_out = ValueHist::from_column(out_col);
    let base_i = base_in.ks(&base_out);

    let n_slots = partition.n_sets() + usize::from(partition.ignore_size > 0);
    let slot_of = |code: u32| -> usize {
        if code == IGNORE {
            partition.n_sets()
        } else {
            code as usize
        }
    };
    let mut sub_in: Vec<ValueHist> = vec![ValueHist::new(); n_slots];
    for (row, &code) in partition.assignment().iter().enumerate() {
        let v = in_col.get(row);
        if !v.is_null() {
            sub_in[slot_of(code)].add(v, 1);
        }
    }
    let fedex_query::Provenance::Filter { kept } = &step.provenance else {
        panic!("filter provenance")
    };
    let mut sub_out: Vec<ValueHist> = vec![ValueHist::new(); n_slots];
    let assignment = partition.assignment();
    for (out_row, &in_row) in kept.iter().enumerate() {
        let v = out_col.get(out_row);
        if !v.is_null() {
            sub_out[slot_of(assignment[in_row])].add(v, 1);
        }
    }
    let mut out = Vec::with_capacity(n_slots);
    for s in 0..n_slots {
        out.push(base_i - base_in.ks_sub(&sub_in[s], &base_out, &sub_out[s]));
    }
    Some(out)
}

/// Per-slot histograms produced by the scatter pass (reconstructed via
/// `rows_by_set` slices + `CodedHist::from_coded_rows`) equal
/// `ValueHist::from_column_rows` on every partition of the fixtures
/// frame, and the end-to-end contributions are bit-identical to the boxed
/// reference.
#[test]
fn scatter_contributions_match_per_slot_value_hists() {
    let df = fixtures_frame();
    let step = ExploratoryStep::run(
        vec![df.clone()],
        Operation::filter(Expr::col("popularity").gt(Expr::lit(40i64))),
    )
    .unwrap();
    let computer = ContributionComputer::new(&step, InterestingnessKind::Exceptionality);

    let attrs = ["year", "decade", "loudness"];
    let columns = ["year", "decade", "loudness"];
    let mut checked_partitions = 0usize;
    for attr in attrs {
        for p in build_partitions_for_attr(&step.inputs[0], 0, attr, &[3, 5], 7).unwrap() {
            checked_partitions += 1;
            // (a) per-slot histogram equality, every slot including the
            // ignore-set, on every input column.
            for col_name in columns {
                let col = step.inputs[0].column(col_name).unwrap();
                let coded = CodedColumn::encode(col);
                let mut slots: Vec<u32> = (0..p.n_sets() as u32).collect();
                slots.push(IGNORE);
                for s in slots {
                    let rows: Vec<usize> = p
                        .rows_by_set()
                        .rows_of(s)
                        .iter()
                        .map(|&r| r as usize)
                        .collect();
                    let vh = ValueHist::from_column_rows(col, &rows);
                    let ch = CodedHist::from_coded_rows(&coded, &rows);
                    assert_eq!(vh.total(), ch.total());
                    assert_eq!(value_counts(&vh), coded_counts(&ch, &coded));
                }
            }
            // (b) end-to-end contributions bit-identical to the boxed
            // per-slot reference.
            for col_name in columns {
                let got = computer.contributions(&p, col_name).unwrap();
                let want = reference_filter_contributions(&step, &p, col_name);
                assert_eq!(got.is_some(), want.is_some());
                if let (Some(g), Some(w)) = (got, want) {
                    assert_eq!(g.len(), w.len());
                    for (i, (a, b)) in g.iter().zip(&w).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "partition on {attr}, column {col_name}, slot {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }
    assert!(
        checked_partitions >= 6,
        "fixtures must exercise several partitions"
    );
}
