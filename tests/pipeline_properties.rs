//! Property-based integration tests over the whole pipeline: random small
//! dataframes and operations must uphold the paper's definitional
//! invariants (Defs. 3.3, 3.8, §3.6).

use std::collections::BTreeSet;

use fedex::core::pipeline::{Contribute, Contributor, PartitionRows, ScoreColumns, Skyline};
use fedex::core::{
    build_partitions_for_attr, skyline_indices, standardized, ContributionComputer, ExecutionMode,
    ExplainPipeline, Fedex, FedexConfig, InterestingnessKind, Stage, IGNORE,
};
use fedex::frame::{Column, DataFrame};
use fedex::query::{Aggregate, ExploratoryStep, Expr, Operation};
use proptest::prelude::*;

/// A random small dataframe: a categorical group column, a low-cardinality
/// int column, and a float measure.
fn arb_frame() -> impl Strategy<Value = DataFrame> {
    let row = (0u8..4, 0i64..6, -50i64..50);
    proptest::collection::vec(row, 4..60).prop_map(|rows| {
        let cats = ["a", "b", "c", "d"];
        DataFrame::new(vec![
            Column::from_strs("g", rows.iter().map(|r| cats[r.0 as usize]).collect()),
            Column::from_ints("k", rows.iter().map(|r| r.1).collect()),
            Column::from_floats("v", rows.iter().map(|r| r.2 as f64 / 3.0).collect()),
        ])
        .unwrap()
    })
}

/// [`arb_frame`] plus two more partitionable columns, so a filter on `k`
/// leaves more `(partition, column)` units for the skyline bound to prune.
fn arb_wide_frame() -> impl Strategy<Value = DataFrame> {
    let row = (0u8..4, 0i64..6, -50i64..50, 0i64..20, 0u8..3);
    proptest::collection::vec(row, 4..80).prop_map(|rows| {
        let cats = ["a", "b", "c", "d"];
        let shades = ["x", "y", "z"];
        DataFrame::new(vec![
            Column::from_strs("g", rows.iter().map(|r| cats[r.0 as usize]).collect()),
            Column::from_ints("k", rows.iter().map(|r| r.1).collect()),
            Column::from_floats("v", rows.iter().map(|r| r.2 as f64 / 3.0).collect()),
            Column::from_ints("w", rows.iter().map(|r| r.3 * r.3).collect()),
            Column::from_strs("h", rows.iter().map(|r| shades[r.4 as usize]).collect()),
        ])
        .unwrap()
    })
}

/// A skyline member as `(partition, column, slot, raw bits, std bits)`.
type Member = (usize, usize, usize, u64, u64);

/// Runs ScoreColumns → PartitionRows → Contribute → Skyline under `mode`
/// and recomputes every `(partition, column)` unit of the same partitions
/// and columns by hand. Returns the pipeline's skyline, the batch skyline
/// of the exhaustive candidate list, and both candidate counts.
fn pruned_and_exhaustive(
    step: &ExploratoryStep,
    mode: ExecutionMode,
) -> (BTreeSet<Member>, BTreeSet<Member>, usize, usize) {
    let config = FedexConfig {
        execution: mode,
        ..FedexConfig::default()
    };
    let pipeline = ExplainPipeline::new(step, &config);
    let ctx = pipeline.context();
    let scored = ScoreColumns::builtin().run(ctx, ()).unwrap();
    let partitioned = PartitionRows { extra: Vec::new() }
        .run(ctx, scored)
        .unwrap();
    let contributed = Contribute {
        contributor: Contributor::Incremental,
    }
    .run(ctx, partitioned)
    .unwrap();
    let ranked = Skyline.run(ctx, contributed).unwrap();
    let pruned: BTreeSet<Member> = ranked
        .order
        .iter()
        .map(|&k| {
            let c = &ranked.candidates[k];
            (
                c.partition,
                c.column,
                c.slot,
                c.raw.to_bits(),
                c.std.to_bits(),
            )
        })
        .collect();

    let cc = ContributionComputer::new(step, ctx.kind);
    let mut all: Vec<(Member, (f64, f64))> = Vec::new();
    for (pi, p) in ranked.partitions.iter().enumerate() {
        for (ci, (column, interestingness)) in ranked.scored.top.iter().enumerate() {
            let Some(raw) = cc.contributions(p, column).unwrap() else {
                continue;
            };
            let z = standardized(&raw);
            for slot in (0..p.n_sets()).filter(|&s| raw[s] > 0.0) {
                let member = (pi, ci, slot, raw[slot].to_bits(), z[slot].to_bits());
                all.push((member, (*interestingness, z[slot])));
            }
        }
    }
    let points: Vec<(f64, f64)> = all.iter().map(|&(_, point)| point).collect();
    let exhaustive = skyline_indices(&points)
        .into_iter()
        .map(|k| all[k].0)
        .collect();
    (pruned, exhaustive, ranked.candidates.len(), all.len())
}

/// The skyline bound prunes for real on the paper's filter example: fewer
/// candidates are built than an exhaustive run has, and the skyline is
/// the exhaustive one.
#[test]
fn skyline_bound_prunes_the_paper_filter_example() {
    let wb = fedex::data::build_workbench(&fedex::data::DatasetScale {
        spotify_rows: 4_000,
        bank_rows: 100,
        product_rows: 50,
        sales_rows: 100,
        store_rows: 10,
        seed: 42,
    });
    let step = fedex::query::parse_query("SELECT * FROM spotify WHERE popularity > 65;")
        .unwrap()
        .to_step(&wb.catalog)
        .unwrap();
    for mode in [ExecutionMode::Serial, ExecutionMode::Threads(2)] {
        let (pruned, exhaustive, built, all) = pruned_and_exhaustive(&step, mode);
        assert!(!exhaustive.is_empty());
        assert_eq!(pruned, exhaustive, "{mode:?}");
        assert!(built < all, "{mode:?}: built {built} of {all} candidates");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// §3.6 under skyline-bound pruning: the skyline Contribute → Skyline
    /// returns is the batch skyline of every unit computed in full, under
    /// serial and threaded schedules.
    #[test]
    fn pruned_skyline_equals_exhaustive(df in arb_wide_frame(), threshold in 0i64..5) {
        let op = Operation::filter(Expr::col("k").gt(Expr::lit(threshold)));
        let step = ExploratoryStep::run(vec![df], op).unwrap();
        for mode in [ExecutionMode::Serial, ExecutionMode::Threads(2)] {
            let (pruned, exhaustive, built, all) = pruned_and_exhaustive(&step, mode);
            prop_assert!(built <= all);
            prop_assert_eq!(pruned, exhaustive);
        }
    }

    /// Def. 3.8: every partition is a disjoint cover of the input rows.
    #[test]
    fn partitions_are_disjoint_covers(df in arb_frame(), n in 2usize..8) {
        for attr in ["g", "k", "v"] {
            let parts = build_partitions_for_attr(&df, 0, attr, &[n], 7).unwrap();
            for p in parts {
                p.validate().unwrap();
                prop_assert_eq!(p.assignment().len(), df.n_rows());
                // The CSR index holds each set's rows, all in bounds.
                let index = p.rows_by_set();
                for (s, meta) in p.sets.iter().enumerate() {
                    let rows = index.rows_of(s as u32);
                    prop_assert_eq!(rows.len(), meta.size);
                    prop_assert!(rows.iter().all(|&r| (r as usize) < df.n_rows()));
                }
                let covered: usize =
                    p.sets.iter().map(|s| s.size).sum::<usize>() + p.ignore_size;
                prop_assert_eq!(covered, df.n_rows());
            }
        }
    }

    /// Def. 3.3: incremental contribution equals the literal re-run, for
    /// filter steps under exceptionality; and, to the bit on every slot
    /// (the ignore-set included), under diversity outside group-by: the
    /// filter, a join partitioned on each input, and a union.
    #[test]
    fn filter_contribution_matches_rerun(df in arb_frame(), threshold in -10i64..10) {
        let op = Operation::filter(Expr::col("k").gt(Expr::lit(threshold)));
        let step = ExploratoryStep::run(vec![df.clone()], op).unwrap();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Exceptionality);
        for p in build_partitions_for_attr(&step.inputs[0], 0, "g", &[3], 7).unwrap() {
            if let Some(fast) = cc.contributions(&p, "v").unwrap() {
                for (s, &c_fast) in fast.iter().enumerate().take(p.n_sets()) {
                    let rows = p.rows_by_set().rows_of(s as u32);
                    let slow = cc.contribution_by_rerun(0, rows, "v").unwrap().unwrap();
                    prop_assert!((c_fast - slow).abs() < 1e-9,
                        "set {}: fast {} vs rerun {}", s, c_fast, slow);
                }
            }
        }

        let half = df.head(df.n_rows() / 2);
        let join = Operation::join("g", "g", "l", "r");
        let steps = [
            step,
            ExploratoryStep::run(vec![df.clone(), half.clone()], join).unwrap(),
            ExploratoryStep::run(vec![df, half], Operation::Union).unwrap(),
        ];
        for step in &steps {
            let cc = ContributionComputer::new(step, InterestingnessKind::Diversity);
            for (i, input) in step.inputs.iter().enumerate() {
                for p in build_partitions_for_attr(input, i, "k", &[3], 7).unwrap() {
                    for column in step.output.column_names() {
                        let applies = cc.contribution_by_rerun(i, &[], column).unwrap();
                        let Some(fast) = cc.contributions(&p, column).unwrap() else {
                            prop_assert!(applies.is_none(), "{:?} {}", step.op, column);
                            continue;
                        };
                        for (slot, &c_fast) in fast.iter().enumerate() {
                            let rows = p.rows_by_set().rows_of_slot(slot);
                            let slow = cc.contribution_by_rerun(i, rows, column).unwrap().unwrap();
                            prop_assert_eq!(c_fast.to_bits(), slow.to_bits(),
                                "{:?} input {} {} slot {}: fast {} vs rerun {}",
                                step.op, i, column, slot, c_fast, slow);
                        }
                    }
                }
            }
        }
    }

    /// Def. 3.3 for group-by steps under diversity, including the
    /// ignore-set slot.
    #[test]
    fn groupby_contribution_matches_rerun(df in arb_frame()) {
        let op = Operation::group_by(vec!["g"], vec![Aggregate::mean("v")]);
        let step = ExploratoryStep::run(vec![df], op).unwrap();
        let cc = ContributionComputer::new(&step, InterestingnessKind::Diversity);
        for p in build_partitions_for_attr(&step.inputs[0], 0, "k", &[3], 7).unwrap() {
            if let Some(fast) = cc.contributions(&p, "mean_v").unwrap() {
                for (slot, &c_fast) in fast.iter().enumerate() {
                    let code = if slot == p.n_sets() { IGNORE } else { slot as u32 };
                    let rows: Vec<u32> = p
                        .assignment()
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &a)| (a == code).then_some(i as u32))
                        .collect();
                    let slow =
                        cc.contribution_by_rerun(0, &rows, "mean_v").unwrap().unwrap();
                    prop_assert!((c_fast - slow).abs() < 1e-9,
                        "slot {}: fast {} vs rerun {}", slot, c_fast, slow);
                }
            }
        }
    }

    /// §3.6: standardization is mean-zero and order-preserving.
    #[test]
    fn standardization_properties(raw in proptest::collection::vec(-1.0f64..1.0, 2..12)) {
        let z = standardized(&raw);
        prop_assert_eq!(z.len(), raw.len());
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        prop_assert!(mean.abs() < 1e-9);
        for i in 0..raw.len() {
            for j in 0..raw.len() {
                if raw[i] < raw[j] {
                    prop_assert!(z[i] <= z[j] + 1e-12);
                }
            }
        }
    }

    /// End-to-end sanity on random data: explanations (when any) have
    /// positive contribution, non-empty artifacts, and a non-dominated
    /// score pair.
    #[test]
    fn explanations_well_formed_on_random_data(df in arb_frame(), threshold in -10i64..10) {
        let op = Operation::filter(Expr::col("k").gt(Expr::lit(threshold)));
        let step = ExploratoryStep::run(vec![df], op).unwrap();
        let ex = Fedex::new().explain(&step).unwrap();
        for e in &ex {
            prop_assert!(e.contribution > 0.0);
            prop_assert!(!e.caption.is_empty());
            prop_assert!(e.set_size > 0);
        }
        for a in &ex {
            for b in &ex {
                prop_assert!(!(b.interestingness > a.interestingness
                    && b.std_contribution > a.std_contribution));
            }
        }
    }

    /// The identity filter never produces explanations (§3.3: no positive
    /// contribution without deviation).
    #[test]
    fn identity_filter_produces_nothing(df in arb_frame()) {
        let op = Operation::filter(Expr::col("k").ge(Expr::lit(-1000i64)));
        let step = ExploratoryStep::run(vec![df], op).unwrap();
        let ex = Fedex::new().explain(&step).unwrap();
        prop_assert!(ex.is_empty(), "identity filter explained: {:?}",
            ex.iter().map(|e| (&e.column, &e.set_label)).collect::<Vec<_>>());
    }
}
