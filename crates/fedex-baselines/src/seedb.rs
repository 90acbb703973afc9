//! SeeDB-style deviation-based visualization recommendation (Vartak et
//! al., VLDB 2015) — baseline 1 of §4.1.
//!
//! SeeDB enumerates candidate views `(dimension a, measure m, aggregate f)`
//! over a *target* dataframe, computes the same view over a *reference*
//! dataframe, and scores the view by the deviation between the two
//! normalized aggregate vectors (we use the Kullback–Leibler divergence, a
//! distance SeeDB supports). In the FEDEX setting, the target is the
//! operation's output and the reference its input — which is also why
//! SeeDB cannot handle group-by steps (the schemas differ), exactly as the
//! paper notes in §4.2.

use std::collections::HashMap;

use fedex_frame::{DType, DataFrame, Value};
use fedex_query::{AggFunc, Operation};

/// Maximum dimension cardinality SeeDB will consider (standard pruning —
/// high-cardinality dimensions make meaningless bar charts).
const MAX_DIMENSION_CARDINALITY: usize = 64;

/// One recommended view.
#[derive(Debug, Clone)]
pub struct SeeDbView {
    /// Group-by dimension.
    pub dimension: String,
    /// Aggregated measure.
    pub measure: String,
    /// Aggregate function.
    pub agg: AggFunc,
    /// Deviation (KL divergence) between target and reference view.
    pub utility: f64,
}

impl SeeDbView {
    /// Human-readable view description, e.g. `mean(tempo) by decade`.
    pub fn describe(&self) -> String {
        format!(
            "{}({}) by {}",
            self.agg.name(),
            self.measure,
            self.dimension
        )
    }
}

/// Aggregate `measure` by `dimension` and return `value → aggregate`.
fn view_vector(
    df: &DataFrame,
    dimension: &str,
    measure: &str,
    agg: AggFunc,
) -> Option<HashMap<Value, f64>> {
    let dim = df.column(dimension).ok()?;
    let mea = df.column(measure).ok()?;
    let mut sum: HashMap<Value, (f64, u64)> = HashMap::new();
    for i in 0..df.n_rows() {
        let d = dim.get(i);
        if d.is_null() {
            continue;
        }
        let m = mea.get(i).as_f64().unwrap_or(0.0);
        let e = sum.entry(d).or_insert((0.0, 0));
        e.0 += m;
        e.1 += 1;
    }
    let out = sum
        .into_iter()
        .map(|(k, (s, c))| {
            let v = match agg {
                AggFunc::Sum => s,
                AggFunc::Count => c as f64,
                AggFunc::Mean => {
                    if c == 0 {
                        0.0
                    } else {
                        s / c as f64
                    }
                }
                AggFunc::Min | AggFunc::Max => s, // not enumerated by SeeDB
            };
            (k, v)
        })
        .collect();
    Some(out)
}

/// KL divergence between two view vectors after aligning on the union of
/// dimension values and normalizing to probability vectors (with additive
/// smoothing so absent values do not blow up the divergence).
fn kl_deviation(target: &HashMap<Value, f64>, reference: &HashMap<Value, f64>) -> f64 {
    let mut keys: Vec<&Value> = target.keys().chain(reference.keys()).collect();
    keys.sort();
    keys.dedup();
    if keys.is_empty() {
        return 0.0;
    }
    let eps = 1e-9;
    let collect = |m: &HashMap<Value, f64>| -> Vec<f64> {
        let vals: Vec<f64> = keys
            .iter()
            .map(|k| m.get(k).copied().unwrap_or(0.0).abs() + eps)
            .collect();
        let total: f64 = vals.iter().sum();
        vals.into_iter().map(|v| v / total).collect()
    };
    let p = collect(target);
    let q = collect(reference);
    p.iter()
        .zip(&q)
        .map(|(a, b)| a * (a / b).ln())
        .sum::<f64>()
        .max(0.0)
}

/// Recommend the top-`k` deviating views of `target` w.r.t. `reference`.
pub fn recommend(reference: &DataFrame, target: &DataFrame, k: usize) -> Vec<SeeDbView> {
    let mut views = Vec::new();
    for dim_field in target.schema().fields() {
        if dim_field.dtype != DType::Str {
            continue;
        }
        // Prune on the *reference* cardinality: the target may have
        // collapsed to one value (that collapse is the deviation SeeDB
        // should flag, not a reason to skip the dimension).
        let Ok(dim_col) = reference.column(&dim_field.name) else {
            continue;
        };
        if dim_col.n_distinct() > MAX_DIMENSION_CARDINALITY || dim_col.n_distinct() < 2 {
            continue;
        }
        for mea_field in target.schema().fields() {
            if !mea_field.dtype.is_numeric() || !reference.has_column(&mea_field.name) {
                continue;
            }
            for agg in [AggFunc::Count, AggFunc::Sum, AggFunc::Mean] {
                let (Some(t), Some(r)) = (
                    view_vector(target, &dim_field.name, &mea_field.name, agg),
                    view_vector(reference, &dim_field.name, &mea_field.name, agg),
                ) else {
                    continue;
                };
                views.push(SeeDbView {
                    dimension: dim_field.name.clone(),
                    measure: mea_field.name.clone(),
                    agg,
                    utility: kl_deviation(&t, &r),
                });
            }
        }
    }
    views.sort_by(|a, b| b.utility.total_cmp(&a.utility));
    views.truncate(k);
    views
}

/// Run SeeDB on an exploratory step: target = output, reference = the
/// first input. Returns `None` for group-by steps (schema mismatch), as in
/// the paper's §4.2.
pub fn recommend_for_step(step: &fedex_query::ExploratoryStep, k: usize) -> Option<Vec<SeeDbView>> {
    if matches!(step.op, Operation::GroupBy { .. }) {
        return None;
    }
    Some(recommend(&step.inputs[0], &step.output, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedex_frame::Column;
    use fedex_query::{Aggregate, ExploratoryStep, Expr};

    fn reference() -> DataFrame {
        let mut genre = Vec::new();
        let mut pop = Vec::new();
        let mut tempo = Vec::new();
        for i in 0..200i64 {
            genre.push(if i % 4 == 0 { "rock" } else { "pop" });
            pop.push(if i % 4 == 0 { 80 } else { 30 });
            tempo.push(100.0 + (i % 10) as f64);
        }
        DataFrame::new(vec![
            Column::from_strs("genre", genre),
            Column::from_ints("popularity", pop),
            Column::from_floats("tempo", tempo),
        ])
        .unwrap()
    }

    #[test]
    fn detects_deviating_dimension() {
        let r = reference();
        let step = ExploratoryStep::run(
            vec![r],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap();
        let views = recommend_for_step(&step, 5).unwrap();
        assert!(!views.is_empty());
        // The filter keeps only rock rows → genre views deviate most.
        assert_eq!(views[0].dimension, "genre");
        assert!(views[0].utility > 0.1);
    }

    #[test]
    fn identity_filter_has_low_utility() {
        let r = reference();
        let step = ExploratoryStep::run(
            vec![r],
            Operation::filter(Expr::col("popularity").ge(Expr::lit(0i64))),
        )
        .unwrap();
        let views = recommend_for_step(&step, 3).unwrap();
        assert!(views.iter().all(|v| v.utility < 1e-6));
    }

    #[test]
    fn group_by_unsupported() {
        let r = reference();
        let step = ExploratoryStep::run(
            vec![r],
            Operation::group_by(vec!["genre"], vec![Aggregate::mean("tempo")]),
        )
        .unwrap();
        assert!(recommend_for_step(&step, 3).is_none());
    }

    #[test]
    fn respects_k() {
        let r = reference();
        let step = ExploratoryStep::run(
            vec![r],
            Operation::filter(Expr::col("popularity").gt(Expr::lit(65i64))),
        )
        .unwrap();
        assert!(recommend_for_step(&step, 2).unwrap().len() <= 2);
    }

    #[test]
    fn describe_formats() {
        let v = SeeDbView {
            dimension: "genre".into(),
            measure: "tempo".into(),
            agg: AggFunc::Mean,
            utility: 0.3,
        };
        assert_eq!(v.describe(), "mean(tempo) by genre");
    }
}
