//! Property-based tests of the query layer: relational-algebra laws and
//! provenance consistency.

use fedex_frame::{Column, DataFrame, Value};
use fedex_query::{Aggregate, ExploratoryStep, Expr, Operation, Provenance};
use proptest::prelude::*;

fn arb_frame() -> impl Strategy<Value = DataFrame> {
    proptest::collection::vec((0u8..5, -20i64..20, -10f64..10.0), 1..50).prop_map(|rows| {
        let cats = ["a", "b", "c", "d", "e"];
        DataFrame::new(vec![
            Column::from_strs("g", rows.iter().map(|r| cats[r.0 as usize]).collect()),
            Column::from_ints("k", rows.iter().map(|r| r.1).collect()),
            Column::from_floats("v", rows.iter().map(|r| r.2).collect()),
        ])
        .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Filter provenance: output row `i` really is input row `kept[i]`.
    #[test]
    fn filter_provenance_is_exact(df in arb_frame(), t in -20i64..20) {
        let step = ExploratoryStep::run(
            vec![df],
            Operation::filter(Expr::col("k").gt(Expr::lit(t))),
        )
        .unwrap();
        let Provenance::Filter { kept } = &step.provenance else { panic!() };
        prop_assert_eq!(kept.len(), step.output.n_rows());
        for (out_row, &in_row) in kept.iter().enumerate() {
            prop_assert_eq!(
                step.output.row(out_row).unwrap(),
                step.inputs[0].row(in_row).unwrap()
            );
        }
    }

    /// Filters compose: (p AND q) = filter p then filter q.
    #[test]
    fn filter_conjunction_composes(df in arb_frame(), t1 in -20i64..20, t2 in -20i64..20) {
        let p = Expr::col("k").gt(Expr::lit(t1));
        let q = Expr::col("k").le(Expr::lit(t2));
        let both = Operation::filter(p.clone().and(q.clone()))
            .apply(std::slice::from_ref(&df))
            .unwrap();
        let seq = Operation::filter(q)
            .apply(&[Operation::filter(p).apply(&[df]).unwrap()])
            .unwrap();
        prop_assert_eq!(both.n_rows(), seq.n_rows());
        for r in 0..both.n_rows() {
            prop_assert_eq!(both.row(r).unwrap(), seq.row(r).unwrap());
        }
    }

    /// Group-by counts sum to the (filtered) row count, and group keys are
    /// distinct.
    #[test]
    fn group_by_counts_partition(df in arb_frame()) {
        let step = ExploratoryStep::run(
            vec![df],
            Operation::group_by(vec!["g"], vec![Aggregate::count(None)]),
        )
        .unwrap();
        let total: i64 = step
            .output
            .column("count")
            .unwrap()
            .numeric_values()
            .iter()
            .map(|&x| x as i64)
            .sum();
        prop_assert_eq!(total as usize, step.inputs[0].n_rows());
        let keys = step.output.column("g").unwrap();
        prop_assert_eq!(keys.n_distinct(), step.output.n_rows());
    }

    /// Group-by provenance assigns every row to a valid group, and the
    /// group's key equals the row's key.
    #[test]
    fn group_by_provenance_consistent(df in arb_frame()) {
        let step = ExploratoryStep::run(
            vec![df],
            Operation::group_by(vec!["g"], vec![Aggregate::mean("v")]),
        )
        .unwrap();
        let Provenance::GroupBy { group_of_row, n_groups } = &step.provenance else { panic!() };
        prop_assert_eq!(*n_groups, step.output.n_rows());
        let keys = step.output.column("g").unwrap();
        let input_keys = step.inputs[0].column("g").unwrap();
        for (row, g) in group_of_row.iter().enumerate() {
            let g = g.expect("no pre-filter → every row grouped") as usize;
            prop_assert!(g < *n_groups);
            prop_assert_eq!(keys.get(g), input_keys.get(row));
        }
    }

    /// Join row count equals the sum over keys of |left matches| × |right
    /// matches| (the defining property of an inner equi-join).
    #[test]
    fn join_cardinality(a in arb_frame(), b in arb_frame()) {
        let step = ExploratoryStep::run(
            vec![a.clone(), b.clone()],
            Operation::join("k", "k", "l", "r"),
        )
        .unwrap();
        let count_by = |df: &DataFrame| {
            let mut m = std::collections::HashMap::new();
            for v in df.column("k").unwrap().iter() {
                if !v.is_null() {
                    *m.entry(v).or_insert(0usize) += 1;
                }
            }
            m
        };
        let ca = count_by(&a);
        let cb = count_by(&b);
        let expected: usize = ca.iter().map(|(k, n)| n * cb.get(k).copied().unwrap_or(0)).sum();
        prop_assert_eq!(step.output.n_rows(), expected);
        // Provenance pairs actually join.
        let Provenance::Join { left_rows, right_rows } = &step.provenance else { panic!() };
        let lk = a.column("k").unwrap();
        let rk = b.column("k").unwrap();
        for (l, r) in left_rows.iter().zip(right_rows) {
            prop_assert_eq!(lk.get(*l), rk.get(*r));
        }
    }

    /// Union row count and provenance are exact.
    #[test]
    fn union_preserves_everything(a in arb_frame(), b in arb_frame()) {
        let step = ExploratoryStep::run(vec![a.clone(), b.clone()], Operation::Union).unwrap();
        prop_assert_eq!(step.output.n_rows(), a.n_rows() + b.n_rows());
        let Provenance::Union { source_of_row } = &step.provenance else { panic!() };
        for (out_row, &(src, row)) in source_of_row.iter().enumerate() {
            let expected = if src == 0 { a.row(row).unwrap() } else { b.row(row).unwrap() };
            prop_assert_eq!(step.output.row(out_row).unwrap(), expected);
        }
    }

    /// `rerun_without(∅)` reproduces the output exactly, for every op kind.
    #[test]
    fn rerun_without_nothing_is_identity(df in arb_frame()) {
        let ops = vec![
            Operation::filter(Expr::col("k").gt(Expr::lit(0i64))),
            Operation::group_by(vec!["g"], vec![Aggregate::sum("v")]),
        ];
        for op in ops {
            let step = ExploratoryStep::run(vec![df.clone()], op).unwrap();
            let out = step.rerun_without(0, &[]).unwrap().output;
            prop_assert_eq!(out.n_rows(), step.output.n_rows());
            for r in 0..out.n_rows() {
                let a = out.row(r).unwrap();
                let b = step.output.row(r).unwrap();
                for (x, y) in a.iter().zip(&b) {
                    match (x.as_f64(), y.as_f64()) {
                        (Some(xf), Some(yf)) => prop_assert!((xf - yf).abs() < 1e-9),
                        _ => prop_assert_eq!(x, y),
                    }
                }
            }
        }
    }

    /// The SQL printer/parser agree on predicates: parse(display(e))
    /// evaluates identically.
    #[test]
    fn predicate_display_reparses(df in arb_frame(), t in -20i64..20, u in -10i64..10) {
        let e = Expr::col("k")
            .gt(Expr::lit(t))
            .and(Expr::col("k").le(Expr::lit(u)).or(Expr::col("g").eq(Expr::lit("a"))));
        let sql = format!("SELECT * FROM t WHERE {e}");
        let parsed = fedex_query::parse_query(&sql).unwrap();
        let mut catalog = fedex_query::Catalog::new();
        catalog.register("t", df.clone());
        let step = parsed.to_step(&catalog).unwrap();
        let direct = Operation::filter(e).apply(&[df]).unwrap();
        prop_assert_eq!(step.output.n_rows(), direct.n_rows());
    }
}

#[test]
fn value_display_round_trips_through_parser() {
    // Spot-check literal forms the parser must accept.
    for (sql, rows) in [
        ("SELECT * FROM t WHERE k > -5", 2usize),
        ("SELECT * FROM t WHERE v >= 0.5", 1),
        ("SELECT * FROM t WHERE g == 'a'", 1),
    ] {
        let df = DataFrame::new(vec![
            Column::from_strs("g", vec!["a", "b"]),
            Column::from_ints("k", vec![1, 2]),
            Column::from_floats("v", vec![0.5, 0.1]),
        ])
        .unwrap();
        let mut catalog = fedex_query::Catalog::new();
        catalog.register("t", df);
        let step = fedex_query::parse_query(sql)
            .unwrap()
            .to_step(&catalog)
            .unwrap();
        assert_eq!(step.output.n_rows(), rows, "{sql}");
    }
}

// Silence an unused-variant lint for Value in this test crate.
#[allow(dead_code)]
fn _witness(_: Value) {}
