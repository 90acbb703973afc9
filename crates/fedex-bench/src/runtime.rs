//! Scalability experiments (Figs. 9–10): runtime as a function of column
//! count and of row count, FEDEX-Sampling vs the baselines.

use fedex_data::{build_workbench, run_query, Dataset, DatasetScale, QueryKind, Workbench};
use fedex_frame::DataFrame;
use fedex_query::{parse_query, Catalog};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::systems::{run_system, System};
use crate::util::TextTable;

/// Beyond this many input rows RATH is skipped, mirroring its reported
/// out-of-memory / timeout behaviour on the Products dataset (§4.3).
pub const RATH_MAX_ROWS: usize = 1_500_000;

/// One runtime measurement.
#[derive(Debug, Clone)]
pub struct RuntimePoint {
    /// Swept parameter (columns for Fig. 9, rows for Fig. 10).
    pub param: usize,
    /// Seconds per system (`None` = skipped / unsupported).
    pub seconds: Vec<(System, Option<f64>)>,
}

/// The filter queries used per dataset for the column sweep; Fig. 9
/// averages over the Table 2 workload — we use each dataset's pure filter
/// queries so that column projection is well-defined on a single table.
fn column_sweep_queries(dataset: Dataset) -> Vec<(&'static str, &'static str)> {
    // (table, sql)
    match dataset {
        Dataset::Spotify => vec![
            ("spotify", "SELECT * FROM spotify WHERE popularity > 65;"),
            ("spotify", "SELECT * FROM spotify WHERE year > 1990;"),
        ],
        Dataset::Bank => vec![
            (
                "Bank",
                "SELECT * FROM Bank WHERE Attrition_Flag != 'Existing Customer';",
            ),
            (
                "Bank",
                "SELECT * FROM Bank WHERE Months_Inactive_Count_Last_Year > 2;",
            ),
        ],
        Dataset::Products => vec![
            (
                "products_sales",
                "SELECT * FROM products_sales WHERE sales_liter_size <= 500;",
            ),
            (
                "products_sales",
                "SELECT * FROM products_sales WHERE sales_pack == 12;",
            ),
        ],
    }
}

/// Columns a query's predicate references (they must survive projection).
fn required_columns(sql: &str) -> Vec<String> {
    let parsed = parse_query(sql).expect("catalogued query parses");
    parsed
        .where_clause
        .map(|w| {
            w.referenced_columns()
                .iter()
                .map(|s| s.to_string())
                .collect()
        })
        .unwrap_or_default()
}

/// Fig. 9: runtime vs number of columns for one dataset.
///
/// Columns are added in a fixed random permutation (always keeping the
/// query's predicate columns, as in §4.3), and each point averages the
/// dataset's filter queries.
pub fn runtime_vs_columns(wb: &Workbench, dataset: Dataset, seed: u64) -> Vec<RuntimePoint> {
    let queries = column_sweep_queries(dataset);
    let (table_name, _) = queries[0];
    let full: &DataFrame = match table_name {
        "spotify" => &wb.spotify,
        "Bank" => &wb.bank,
        _ => {
            // products_sales view is not stored on the workbench; rebuild.
            return runtime_vs_columns_products(wb, seed);
        }
    };
    sweep_columns(full, table_name, &queries, dataset, seed)
}

fn runtime_vs_columns_products(wb: &Workbench, seed: u64) -> Vec<RuntimePoint> {
    let view = fedex_data::products::products_sales_view(&wb.products, &wb.sales);
    sweep_columns(
        &view,
        "products_sales",
        &column_sweep_queries(Dataset::Products),
        Dataset::Products,
        seed,
    )
}

fn sweep_columns(
    full: &DataFrame,
    table_name: &str,
    queries: &[(&str, &str)],
    dataset: Dataset,
    seed: u64,
) -> Vec<RuntimePoint> {
    let mut required: Vec<String> = Vec::new();
    for (_, sql) in queries {
        for c in required_columns(sql) {
            if !required.contains(&c) {
                required.push(c);
            }
        }
    }
    let mut others: Vec<String> = full
        .column_names()
        .into_iter()
        .map(str::to_string)
        .filter(|c| !required.contains(c))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    others.shuffle(&mut rng);

    let n_total = required.len() + others.len();
    // Measure at ~5 growing column counts.
    let checkpoints: Vec<usize> = {
        let mut cs: Vec<usize> = (1..=4)
            .map(|i| required.len() + i * others.len() / 4)
            .collect();
        cs.dedup();
        cs.retain(|&c| c <= n_total);
        cs
    };

    let mut out = Vec::new();
    for &n_cols in &checkpoints {
        let mut cols: Vec<&str> = required.iter().map(String::as_str).collect();
        cols.extend(
            others
                .iter()
                .take(n_cols - required.len())
                .map(String::as_str),
        );
        let projected = full.select(&cols).expect("projection of existing columns");
        let mut catalog = Catalog::new();
        catalog.register(table_name, projected);

        let mut seconds = Vec::new();
        for system in [System::FedexSampling, System::SeeDb, System::Rath] {
            let mut total = 0.0;
            let mut n = 0;
            for (_, sql) in queries {
                let step = parse_query(sql)
                    .expect("parses")
                    .to_step(&catalog)
                    .expect("runs on projection");
                if system == System::Rath && step.inputs[0].n_rows() > RATH_MAX_ROWS {
                    continue;
                }
                let run = run_system(system, &step, dataset, None);
                total += run.duration.as_secs_f64();
                n += 1;
            }
            seconds.push((system, if n > 0 { Some(total / n as f64) } else { None }));
        }
        out.push(RuntimePoint {
            param: n_cols,
            seconds,
        });
    }
    out
}

/// Fig. 10: runtime vs number of rows for one dataset, exact FEDEX vs
/// FEDEX-Sampling (plus SeeDB / RATH context), averaged over the dataset's
/// Table 2 filter/join queries.
pub fn runtime_vs_rows(
    dataset: Dataset,
    base: &DatasetScale,
    row_counts: &[usize],
) -> Vec<RuntimePoint> {
    let mut out = Vec::new();
    for &rows in row_counts {
        let scale = match dataset {
            Dataset::Spotify => DatasetScale {
                spotify_rows: rows,
                ..*base
            },
            Dataset::Bank => DatasetScale {
                bank_rows: rows,
                ..*base
            },
            Dataset::Products => DatasetScale {
                sales_rows: rows,
                ..*base
            },
        };
        let wb = build_workbench(&scale);
        let specs: Vec<_> = fedex_data::queries_where(Some(dataset), None)
            .into_iter()
            .filter(|q| q.kind != QueryKind::GroupBy)
            .collect();

        let mut seconds = Vec::new();
        for system in [
            System::Fedex,
            System::FedexSampling,
            System::SeeDb,
            System::Rath,
        ] {
            let mut total = 0.0;
            let mut n = 0;
            for spec in &specs {
                let Ok(step) = run_query(spec, &wb.catalog) else {
                    continue;
                };
                if system == System::Rath && rows > RATH_MAX_ROWS {
                    continue;
                }
                let run = run_system(system, &step, dataset, None);
                total += run.duration.as_secs_f64();
                n += 1;
            }
            seconds.push((system, if n > 0 { Some(total / n as f64) } else { None }));
        }
        out.push(RuntimePoint {
            param: rows,
            seconds,
        });
    }
    out
}

/// Render runtime points as a text table.
pub fn render_runtime(points: &[RuntimePoint], param_name: &str, title: &str) -> String {
    let systems: Vec<System> = points
        .first()
        .map(|p| p.seconds.iter().map(|(s, _)| *s).collect())
        .unwrap_or_default();
    let mut header = vec![param_name.to_string()];
    header.extend(systems.iter().map(|s| format!("{} (s)", s.name())));
    let mut t = TextTable::new(header);
    for p in points {
        let mut row = vec![p.param.to_string()];
        for (_, sec) in &p.seconds {
            row.push(sec.map_or("—".to_string(), |s| format!("{s:.3}")));
        }
        t.row(row);
    }
    format!("{title}\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> DatasetScale {
        DatasetScale {
            spotify_rows: 1_000,
            bank_rows: 400,
            product_rows: 100,
            sales_rows: 1_200,
            store_rows: 50,
            seed: 6,
        }
    }

    #[test]
    fn column_sweep_produces_points() {
        let wb = build_workbench(&tiny_scale());
        let pts = runtime_vs_columns(&wb, Dataset::Spotify, 1);
        assert!(!pts.is_empty());
        // Column counts strictly increase and all systems report times.
        for w in pts.windows(2) {
            assert!(w[0].param < w[1].param);
        }
        for p in &pts {
            assert_eq!(p.seconds.len(), 3);
            assert!(p.seconds.iter().all(|(_, s)| s.is_some()));
        }
    }

    #[test]
    fn column_sweep_products_uses_join_view() {
        let wb = build_workbench(&tiny_scale());
        let pts = runtime_vs_columns(&wb, Dataset::Products, 1);
        assert!(!pts.is_empty());
        // The view has 33 columns; the largest checkpoint reaches it.
        assert_eq!(pts.last().unwrap().param, 33);
    }

    #[test]
    fn row_sweep_produces_points() {
        let pts = runtime_vs_rows(Dataset::Bank, &tiny_scale(), &[200, 400]);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].param, 200);
        let has_fedex = pts[0]
            .seconds
            .iter()
            .any(|(s, v)| *s == System::Fedex && v.is_some());
        assert!(has_fedex);
    }

    #[test]
    fn render_handles_missing() {
        let pts = vec![RuntimePoint {
            param: 10,
            seconds: vec![(System::Fedex, Some(0.5)), (System::Rath, None)],
        }];
        let s = render_runtime(&pts, "rows", "Fig. 10");
        assert!(s.contains("—"));
        assert!(s.contains("0.500"));
    }
}
