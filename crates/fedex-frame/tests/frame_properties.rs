//! Property-based tests of the dataframe engine: CSV round-trips, take /
//! filter laws, vstack associativity, and value-ordering laws.

use fedex_frame::{read_csv_str, write_csv_string, Column, DataFrame, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN/inf are not CSV round-trippable.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ,\"']{0,12}".prop_map(|s| Value::str(&s)),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_typed_column(name: &'static str) -> impl Strategy<Value = Column> {
    prop_oneof![
        proptest::collection::vec(proptest::option::of(any::<i64>()), 1..40)
            .prop_map(move |v| Column::from_opt_ints(name, v)),
        proptest::collection::vec(proptest::option::of(-1e9f64..1e9), 1..40)
            .prop_map(move |v| Column::from_opt_floats(name, v)),
        proptest::collection::vec(proptest::option::of("[a-z]{0,6}".prop_map(|s| s)), 1..40)
            .prop_map(move |v| Column::from_opt_strs(name, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn value_total_order_is_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        // Antisymmetry + transitivity witnesses for the manual Ord impl.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Eq ↔ Ordering::Equal and hash consistency.
        if a == b {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let h = |v: &Value| {
                let mut s = DefaultHasher::new();
                v.hash(&mut s);
                s.finish()
            };
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    #[test]
    fn take_then_take_composes(col in arb_typed_column("x")) {
        let n = col.len();
        let first: Vec<usize> = (0..n).rev().collect();
        let taken = col.take(&first);
        // take(rev) twice = identity.
        let back = taken.take(&first);
        for i in 0..n {
            prop_assert_eq!(back.get(i), col.get(i));
        }
    }

    #[test]
    fn filter_is_take_of_mask_indices(col in arb_typed_column("x"), seed in any::<u64>()) {
        let n = col.len();
        let mask: Vec<bool> = (0..n).map(|i| !(i as u64).wrapping_mul(seed).is_multiple_of(3)).collect();
        let filtered = col.filter(&mask).unwrap();
        let indices: Vec<usize> =
            mask.iter().enumerate().filter_map(|(i, &k)| k.then_some(i)).collect();
        let taken = col.take(&indices);
        prop_assert_eq!(filtered.len(), taken.len());
        for i in 0..filtered.len() {
            prop_assert_eq!(filtered.get(i), taken.get(i));
        }
    }

    #[test]
    fn vstack_preserves_rows(a in arb_typed_column("x")) {
        let df1 = DataFrame::new(vec![a.clone()]).unwrap();
        let df2 = DataFrame::new(vec![a.clone()]).unwrap();
        let stacked = df1.vstack(&df2).unwrap();
        prop_assert_eq!(stacked.n_rows(), 2 * a.len());
        for i in 0..a.len() {
            prop_assert_eq!(stacked.get(i, "x").unwrap(), a.get(i));
            prop_assert_eq!(stacked.get(a.len() + i, "x").unwrap(), a.get(i));
        }
    }

    #[test]
    fn csv_round_trip_preserves_shape(
        // Strings start with a letter: a purely numeric string like "0"
        // legitimately reads back as an integer (CSV carries no types).
        rows in proptest::collection::vec(
            ("[a-z][a-zA-Z0-9 ]{0,7}", proptest::option::of(any::<i32>())),
            1..30,
        )
    ) {
        let df = DataFrame::new(vec![
            Column::from_strs("s", rows.iter().map(|(s, _)| s.clone()).collect()),
            Column::from_opt_ints("i", rows.iter().map(|(_, i)| i.map(i64::from)).collect()),
        ])
        .unwrap();
        let text = write_csv_string(&df);
        let back = read_csv_str(&text).unwrap();
        prop_assert_eq!(back.n_rows(), df.n_rows());
        for r in 0..df.n_rows() {
            let orig = df.get(r, "i").unwrap();
            let new = back.get(r, "i").unwrap();
            prop_assert_eq!(orig, new);
            // Strings survive modulo the empty-string/null ambiguity of CSV.
            let s_orig = df.get(r, "s").unwrap();
            let s_new = back.get(r, "s").unwrap();
            if let Value::Str(s) = &s_orig {
                if !s.is_empty() {
                    prop_assert_eq!(s_orig, s_new);
                }
            }
        }
    }

    #[test]
    fn value_counts_total_matches_non_null(col in arb_typed_column("x")) {
        let counts = col.value_counts();
        let total: usize = counts.values().sum();
        prop_assert_eq!(total, col.len() - col.null_count());
        prop_assert_eq!(counts.len(), col.n_distinct());
    }
}
