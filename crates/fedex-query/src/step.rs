//! The exploratory step `Q = (D_in, q, d_out)` (§3.1) and the intervention
//! re-run needed by the contribution measure (Def. 3.3).

use fedex_frame::DataFrame;

use crate::ops::{Operation, Provenance};
use crate::Result;

/// A fully-evaluated exploratory step: the input dataframes, the operation,
/// and the resulting output dataframe.
#[derive(Debug, Clone)]
pub struct ExploratoryStep {
    /// Input dataframes `D_in` (one for filter/group-by, two for join,
    /// two or more for union).
    pub inputs: Vec<DataFrame>,
    /// The operation `q`.
    pub op: Operation,
    /// The output dataframe `d_out = q(D_in)`.
    pub output: DataFrame,
    /// Row provenance of the application (which input rows produced which
    /// output rows). Enables incremental intervention computation.
    pub provenance: Provenance,
}

impl ExploratoryStep {
    /// Apply `op` to `inputs`, materializing the output.
    pub fn run(inputs: Vec<DataFrame>, op: Operation) -> Result<Self> {
        let (output, provenance) = op.apply_traced(&inputs)?;
        Ok(ExploratoryStep {
            inputs,
            op,
            output,
            provenance,
        })
    }

    /// The input dataframe at `idx`.
    pub fn input(&self, idx: usize) -> &DataFrame {
        &self.inputs[idx]
    }

    /// Re-run the operation with the rows `excluded` removed from input
    /// `input_idx`: the intervention step `(D_in − R, q, q(D_in − R))` of
    /// Def. 3.3. Other inputs are untouched. `excluded` must be ascending
    /// (a partition's `u32` row index is), so the kept rows are one
    /// merge-scan.
    pub fn rerun_without(&self, input_idx: usize, excluded: &[u32]) -> Result<ExploratoryStep> {
        debug_assert!(
            excluded.windows(2).all(|w| w[0] < w[1]),
            "excluded rows must ascend"
        );
        let mut removed = excluded.iter().map(|&r| r as usize).peekable();
        let keep: Vec<usize> = (0..self.inputs[input_idx].n_rows())
            .filter(|&row| removed.next_if_eq(&row).is_none())
            .collect();
        let mut inputs = self.inputs.clone();
        inputs[input_idx] = self.inputs[input_idx].take(&keep)?;
        ExploratoryStep::run(inputs, self.op.clone())
    }

    /// For an output column `A`, the input dataframe that sources it and
    /// the column's name there, per the interestingness definitions of
    /// §3.2:
    ///
    /// * filter/union: the column exists in the input(s) under the same
    ///   name (union returns input 0; the caller iterates all inputs for
    ///   the max as the paper specifies);
    /// * join: output columns are prefixed, so `products_item` maps to
    ///   column `item` of the `products` input;
    /// * group-by: key columns map to themselves; aggregate columns
    ///   (`mean_loudness`) map to their source column (`loudness`).
    ///
    /// Returns `None` when the column has no input counterpart (e.g. a bare
    /// `count` aggregate).
    pub fn source_of_output_column(&self, col: &str) -> Option<(usize, String)> {
        match &self.op {
            Operation::Filter { .. } | Operation::Union => {
                if self.inputs[0].has_column(col) {
                    Some((0, col.to_string()))
                } else {
                    None
                }
            }
            Operation::Join {
                left_prefix,
                right_prefix,
                ..
            } => {
                let lp = format!("{left_prefix}_");
                let rp = format!("{right_prefix}_");
                if let Some(stripped) = col.strip_prefix(&lp) {
                    if self.inputs[0].has_column(stripped) {
                        return Some((0, stripped.to_string()));
                    }
                }
                if let Some(stripped) = col.strip_prefix(&rp) {
                    if self.inputs[1].has_column(stripped) {
                        return Some((1, stripped.to_string()));
                    }
                }
                None
            }
            Operation::GroupBy { keys, aggs, .. } => {
                if keys.iter().any(|k| k == col) {
                    return Some((0, col.to_string()));
                }
                for a in aggs {
                    if a.output_name() == col {
                        return a.source_column().map(|c| (0, c.to_string()));
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ops::Aggregate;
    use fedex_frame::{Column, Value};

    fn songs() -> DataFrame {
        DataFrame::new(vec![
            Column::from_ints("year", vec![1991, 1991, 2014, 2014, 2013]),
            Column::from_floats("loudness", vec![-11.0, -11.2, -7.8, -8.0, -8.2]),
            Column::from_strs("decade", vec!["1990s", "1990s", "2010s", "2010s", "2010s"]),
        ])
        .unwrap()
    }

    #[test]
    fn run_materializes_output() {
        let step = ExploratoryStep::run(
            vec![songs()],
            Operation::filter(Expr::col("year").gt(Expr::lit(2000i64))),
        )
        .unwrap();
        assert_eq!(step.output.n_rows(), 3);
        assert_eq!(step.inputs[0].n_rows(), 5);
    }

    #[test]
    fn rerun_without_removes_rows() {
        let step = ExploratoryStep::run(
            vec![songs()],
            Operation::filter(Expr::col("year").gt(Expr::lit(2000i64))),
        )
        .unwrap();
        // Remove the two 2014 rows (indices 2, 3) from the input.
        let out = step.rerun_without(0, &[2, 3]).unwrap().output;
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.get(0, "year").unwrap(), Value::Int(2013));
        // Original step untouched.
        assert_eq!(step.output.n_rows(), 3);
    }

    #[test]
    fn rerun_without_empty_exclusion_is_identity() {
        let step = ExploratoryStep::run(
            vec![songs()],
            Operation::group_by(vec!["year"], vec![Aggregate::mean("loudness")]),
        )
        .unwrap();
        let out = step.rerun_without(0, &[]).unwrap().output;
        assert_eq!(out.n_rows(), step.output.n_rows());
    }

    #[test]
    fn source_mapping_filter() {
        let step = ExploratoryStep::run(
            vec![songs()],
            Operation::filter(Expr::col("year").gt(Expr::lit(0i64))),
        )
        .unwrap();
        assert_eq!(
            step.source_of_output_column("decade"),
            Some((0, "decade".into()))
        );
        assert_eq!(step.source_of_output_column("nope"), None);
    }

    #[test]
    fn source_mapping_group_by() {
        let step = ExploratoryStep::run(
            vec![songs()],
            Operation::group_by(
                vec!["year"],
                vec![Aggregate::mean("loudness"), Aggregate::count(None)],
            ),
        )
        .unwrap();
        assert_eq!(
            step.source_of_output_column("year"),
            Some((0, "year".into()))
        );
        assert_eq!(
            step.source_of_output_column("mean_loudness"),
            Some((0, "loudness".into()))
        );
        assert_eq!(step.source_of_output_column("count"), None);
    }

    #[test]
    fn source_mapping_join() {
        let products = DataFrame::new(vec![
            Column::from_ints("item", vec![1, 2]),
            Column::from_strs("name", vec!["cola", "juice"]),
        ])
        .unwrap();
        let sales = DataFrame::new(vec![
            Column::from_ints("item", vec![1, 2]),
            Column::from_floats("total", vec![5.0, 6.0]),
        ])
        .unwrap();
        let step = ExploratoryStep::run(
            vec![products, sales],
            Operation::join("item", "item", "products", "sales"),
        )
        .unwrap();
        assert_eq!(
            step.source_of_output_column("products_name"),
            Some((0, "name".into()))
        );
        assert_eq!(
            step.source_of_output_column("sales_total"),
            Some((1, "total".into()))
        );
        assert_eq!(step.source_of_output_column("unrelated"), None);
    }

    #[test]
    fn rerun_join_side() {
        let products = DataFrame::new(vec![Column::from_ints("item", vec![1, 2, 3])]).unwrap();
        let sales = DataFrame::new(vec![Column::from_ints("item", vec![1, 2, 3, 3])]).unwrap();
        let step = ExploratoryStep::run(
            vec![products, sales],
            Operation::join("item", "item", "p", "s"),
        )
        .unwrap();
        assert_eq!(step.output.n_rows(), 4);
        // Remove product 3 → its two sales rows disappear.
        let out = step.rerun_without(0, &[2]).unwrap().output;
        assert_eq!(out.n_rows(), 2);
        // Removing from the sales side instead.
        let out = step.rerun_without(1, &[0]).unwrap().output;
        assert_eq!(out.n_rows(), 3);
    }
}
