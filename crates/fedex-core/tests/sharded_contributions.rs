//! Property tests pinning the contribution kernels: for every provenance
//! kind (filter, group-by/diversity, join, union), every mined partition,
//! and every intra-partition thread budget, the per-slot contributions
//! must be **bit-identical** to the serial run — on columns with nulls,
//! NaNs, `-0.0`/`+0.0`, and heavy ties — and, under exceptionality, to
//! the literal Def. 3.3 re-run.
//!
//! The kernels fill each slot's removed counts from the input side (the
//! partition's CSR rows, weighted by the step's fan-out or read off the
//! output rows they source; a union's output counts are its input counts)
//! and sweep the KS loop over slot ranges. Only per-slot *counts* feed
//! `ks_sub_counts`, so neither the schedule nor the side the counts come
//! from can change a single bit. These tests are the executable form of
//! that argument.

use fedex_core::{
    build_partitions_for_attr, ContributionComputer, ExecutionMode, InterestingnessKind,
};
use fedex_frame::{Column, DataFrame};
use fedex_query::{Aggregate, ExploratoryStep, Expr, Operation};
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
        _ => Some((payload % 13) as i64),
    }
}

/// Build a frame with an integer key/group column and a nasty float
/// payload column from the generated cells.
fn frame(name_g: &str, name_x: &str, cells: &[(u8, i32)]) -> DataFrame {
    let g = Column::from_opt_ints(name_g, cells.iter().map(|&(t, p)| int_cell(t, p)).collect());
    let x = Column::from_opt_floats(
        name_x,
        cells
            .iter()
            .map(|&(t, p)| float_cell(t.wrapping_add(3), p.wrapping_mul(7)))
            .collect(),
    );
    DataFrame::new(vec![g, x]).unwrap()
}

/// Assert that contributions under every sharded intra-partition budget
/// are bit-identical to the serial default, over every mined partition of
/// every input and every output column.
fn assert_sharded_matches_serial(step: &ExploratoryStep, kind: InterestingnessKind) {
    let serial = ContributionComputer::new(step, kind);
    let sharded: Vec<ContributionComputer<'_>> = [1usize, 2, 8]
        .iter()
        .map(|&n| ContributionComputer::new(step, kind).with_intra_mode(ExecutionMode::Threads(n)))
        .collect();
    let columns: Vec<String> = step
        .output
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .collect();
    for (input_idx, input) in step.inputs.iter().enumerate() {
        for field in input.schema().fields() {
            let partitions =
                build_partitions_for_attr(input, input_idx, &field.name, &[2, 3, 5], 11).unwrap();
            for p in partitions {
                for column in &columns {
                    let want = serial.contributions(&p, column).unwrap();
                    for (computer, n) in sharded.iter().zip([1usize, 2, 8]) {
                        let got = computer.contributions(&p, column).unwrap();
                        assert_eq!(
                            got.is_some(),
                            want.is_some(),
                            "applicability drifted: threads={n}, col={column}"
                        );
                        if let (Some(g), Some(w)) = (&got, &want) {
                            assert_eq!(g.len(), w.len());
                            for (slot, (a, b)) in g.iter().zip(w.iter()).enumerate() {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "threads={n}, col={column}, attr={}, slot={slot}: {a} vs {b}",
                                    field.name
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Filter provenance (Sourced kernel): sharded ≡ serial, to the bit.
    #[test]
    fn filter_contributions_are_shard_invariant(
        cells in proptest::collection::vec((0u8..8, -40i32..40), 4..90),
        threshold in -3i64..9,
    ) {
        let df = frame("g", "x", &cells);
        let step = ExploratoryStep::run(
            vec![df],
            Operation::filter(Expr::col("g").gt(Expr::lit(threshold))),
        )
        .unwrap();
        assert_sharded_matches_serial(&step, InterestingnessKind::Exceptionality);
    }

    /// Group-by provenance (diversity measure): sharded ≡ serial.
    #[test]
    fn groupby_contributions_are_shard_invariant(
        cells in proptest::collection::vec((0u8..8, -40i32..40), 4..90),
    ) {
        let df = frame("g", "x", &cells);
        let Ok(step) = ExploratoryStep::run(
            vec![df],
            Operation::group_by(vec!["g"], vec![Aggregate::mean("x")]),
        ) else {
            // All-null group keys can make the group-by inapplicable.
            return;
        };
        assert_sharded_matches_serial(&step, InterestingnessKind::Diversity);
    }

    /// Join provenance (Sourced kernel through the join gather):
    /// sharded ≡ serial on both inputs' partitions.
    #[test]
    fn join_contributions_are_shard_invariant(
        left in proptest::collection::vec((0u8..8, -40i32..40), 4..60),
        right in proptest::collection::vec((0u8..8, -40i32..40), 4..60),
    ) {
        let l = frame("k", "x", &left);
        let r = frame("k", "y", &right);
        let Ok(step) = ExploratoryStep::run(
            vec![l, r],
            Operation::join("k", "k", "l", "r"),
        ) else {
            return; // empty join output is inapplicable
        };
        assert_sharded_matches_serial(&step, InterestingnessKind::Exceptionality);
    }

    /// Union provenance (Union kernel, per-source in-codes): sharded ≡
    /// serial on both inputs' partitions.
    #[test]
    fn union_contributions_are_shard_invariant(
        a in proptest::collection::vec((0u8..8, -40i32..40), 4..60),
        b in proptest::collection::vec((0u8..8, -40i32..40), 4..60),
    ) {
        let fa = frame("g", "x", &a);
        let fb = frame("g", "x", &b);
        let step = ExploratoryStep::run(vec![fa, fb], Operation::Union).unwrap();
        assert_sharded_matches_serial(&step, InterestingnessKind::Exceptionality);
    }

    /// Exceptionality contributions equal the literal re-run to the bit,
    /// on every slot (the ignore-set included) and under every thread
    /// budget: a join on duplicate, partly null keys (so input rows source
    /// zero, one or many output rows) partitioned on each input, and a
    /// union.
    #[test]
    fn exceptionality_contributions_match_rerun(
        left in proptest::collection::vec((0u8..8, -40i32..40), 4..40),
        right in proptest::collection::vec((0u8..8, -40i32..40), 4..40),
    ) {
        let join = ExploratoryStep::run(
            vec![frame("k", "x", &left), frame("k", "y", &right)],
            Operation::join("k", "k", "l", "r"),
        );
        let union = ExploratoryStep::run(
            vec![frame("k", "x", &left), frame("k", "x", &right)],
            Operation::Union,
        )
        .unwrap();
        for step in join.iter().chain([&union]) {
            assert_contributions_match_rerun(step);
        }
    }
}

/// [`ContributionComputer::contribution_by_rerun`] on every slot of every
/// mined partition of every input, against the incremental kernels under
/// `Serial`, `Threads(2)` and `Threads(8)`.
fn assert_contributions_match_rerun(step: &ExploratoryStep) {
    let kind = InterestingnessKind::Exceptionality;
    let reference = ContributionComputer::new(step, kind);
    let modes = [
        ExecutionMode::Serial,
        ExecutionMode::Threads(2),
        ExecutionMode::Threads(8),
    ];
    let computers: Vec<_> = modes
        .iter()
        .map(|&m| ContributionComputer::new(step, kind).with_intra_mode(m))
        .collect();
    for (input_idx, input) in step.inputs.iter().enumerate() {
        for field in input.schema().fields() {
            for p in build_partitions_for_attr(input, input_idx, &field.name, &[2, 3], 11).unwrap()
            {
                for column in step.output.column_names() {
                    for (computer, mode) in computers.iter().zip(modes) {
                        let Some(fast) = computer.contributions(&p, column).unwrap() else {
                            continue;
                        };
                        for (slot, c) in fast.iter().enumerate() {
                            let rows = p.rows_by_set().rows_of_slot(slot);
                            let want = reference
                                .contribution_by_rerun(input_idx, rows, column)
                                .unwrap()
                                .unwrap();
                            assert_eq!(
                                c.to_bits(),
                                want.to_bits(),
                                "{:?} {mode:?}: input {input_idx}, attr {}, col {column}, \
                                 slot {slot}: {c} vs rerun {want}",
                                step.op,
                                field.name
                            );
                        }
                    }
                }
            }
        }
    }
}
