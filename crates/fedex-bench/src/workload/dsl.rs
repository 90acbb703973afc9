//! The workload spec: seeded, composable combinators that compile to a
//! [`Trace`].
//!
//! A [`WorkloadSpec`] is three orthogonal pieces:
//!
//! - **datasets** — which tables exist. Each [`DatasetSpec`] names a
//!   bundled generator ([`BaseDataset`]) plus an optional pipeline of
//!   [`DatasetStep`]s (sample → filter → mutate → chunk, in spec
//!   order). A step-free dataset compiles to a `register_demo` op
//!   (parameters only — the server regenerates it); a stepped dataset
//!   is materialized at compile time and shipped inline.
//! - **mix** — [`QueryMix`] weights over the four provenance kinds of
//!   §3.1 (filter, group-by, join, union). Compilation *guarantees*
//!   every positively-weighted kind appears at least once (the first
//!   queries cycle through the enabled kinds) and samples the rest by
//!   weight, so "configured to cover all four" is a structural
//!   property, not a probabilistic hope.
//! - **behavior** — [`ClientBehavior`]: client count, queries per
//!   client, think-time range (sampled *at compile time* into the
//!   trace — the replayer adds no randomness), deadlines, retry
//!   budget, and the zipf exponent skewing table popularity.
//!
//! Everything is drawn from one [`SplitMix64`] stream seeded by
//! `spec.seed`, so equal specs compile to byte-identical traces.
//!
//! [`preset`] names the compiled traces `workload gen --preset` writes:
//! `smoke` ([`WorkloadSpec::smoke`]) and `chaos`, a fault-injected run
//! whose traffic roles are set on the compiled ops.

use fedex_frame::{Column, ColumnData, DataFrame};
use fedex_serve::json::{self, Json};

use super::trace::{Trace, TraceHeader, TraceOp};
use super::{SplitMix64, WorkloadError};

/// A bundled dataset generator (`fedex-data`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseDataset {
    /// Spotify tracks (numeric audio features + categorical genre).
    Spotify,
    /// Bank churn (categoricals + customer numerics).
    Bank,
    /// Iowa products catalog (join dimension).
    Products,
    /// Iowa liquor sales (join fact table; needs its parent products).
    Sales,
    /// Store locations (join dimension).
    Stores,
}

impl BaseDataset {
    /// The `dataset` name `register_demo` understands.
    pub fn wire_name(self) -> &'static str {
        match self {
            BaseDataset::Spotify => "spotify",
            BaseDataset::Bank => "bank",
            BaseDataset::Products => "products",
            BaseDataset::Sales => "sales",
            BaseDataset::Stores => "stores",
        }
    }
}

/// One derivation step over a dataset, applied in spec order.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetStep {
    /// Keep a seeded `keep_pct`% random subset of the rows.
    Sample {
        /// Percent of rows to keep, 0–100.
        keep_pct: u32,
    },
    /// Keep rows where the numeric `column` exceeds `min`.
    FilterGt {
        /// Numeric column to test.
        column: String,
        /// Exclusive lower bound.
        min: f64,
    },
    /// Append a float column `column = source * scale + offset`.
    Mutate {
        /// Name of the new column.
        column: String,
        /// Numeric source column.
        source: String,
        /// Multiplier.
        scale: f64,
        /// Addend.
        offset: f64,
    },
    /// Keep the `index`-th of `of` contiguous row chunks.
    Chunk {
        /// Zero-based chunk index (< `of`).
        index: u32,
        /// Number of chunks.
        of: u32,
    },
}

/// One table of the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Table name queries reference.
    pub table: String,
    /// Which generator produces the base rows.
    pub base: BaseDataset,
    /// Base row count.
    pub rows: u64,
    /// Parent products row count ([`BaseDataset::Sales`] only).
    pub product_rows: Option<u64>,
    /// Derivation pipeline; non-empty forces an inline upload.
    pub steps: Vec<DatasetStep>,
}

/// Relative weights over the four provenance kinds. A zero weight
/// disables the kind; all-zero is an invalid spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryMix {
    /// `WHERE` filter steps.
    pub filter: u32,
    /// `GROUP BY` aggregation steps.
    pub group_by: u32,
    /// `INNER JOIN` steps (needs a products and a sales dataset).
    pub join: u32,
    /// `UNION` steps.
    pub union_: u32,
}

/// How the simulated clients behave.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientBehavior {
    /// Number of concurrent client threads.
    pub clients: u32,
    /// Explains each client issues, in order.
    pub queries_per_client: u32,
    /// Think-time range `[min, max]` ms, sampled per op at compile time.
    pub think_ms_min: u64,
    /// Upper bound of the think-time range.
    pub think_ms_max: u64,
    /// Deadline attached to every explain, if any.
    pub deadline_ms: Option<u64>,
    /// Client-side retries for transient refusals.
    pub retries: u32,
    /// Zipf exponent for table popularity: dataset `i` (spec order)
    /// gets weight `1/(i+1)^s`. `0.0` = uniform.
    pub zipf_s: f64,
}

/// The full workload description. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name — also the shared session name.
    pub name: String,
    /// Seed of the compile-time random stream.
    pub seed: u64,
    /// Tables, in popularity-rank order.
    pub datasets: Vec<DatasetSpec>,
    /// Provenance-kind weights.
    pub mix: QueryMix,
    /// Client behavior.
    pub behavior: ClientBehavior,
}

/// Filter predicates safe on each base schema (chosen so the bundled
/// generators leave a non-empty match at any row count).
fn filter_preds(base: BaseDataset) -> &'static [&'static str] {
    match base {
        BaseDataset::Spotify => &[
            "popularity > 65",
            "popularity > 50",
            "year > 1990",
            "tempo > 100",
            "duration_minutes < 3",
            "loudness > -12",
        ],
        BaseDataset::Bank => &[
            "Customer_Age < 30",
            "Customer_Age < 40",
            "Months_Inactive_Count_Last_Year > 2",
            "Attrition_Flag != 'Existing Customer'",
        ],
        BaseDataset::Products => &["pack == 12", "liter_size > 500", "proof > 40"],
        BaseDataset::Sales => &["month > 6", "quantity > 5", "total > 100"],
        BaseDataset::Stores => &["store > 50", "zipcode > 50000"],
    }
}

/// Aggregation templates per base schema (`{t}` = table name).
fn agg_templates(base: BaseDataset) -> &'static [&'static str] {
    match base {
        BaseDataset::Spotify => &[
            "SELECT mean(popularity), max(popularity) FROM {t} GROUP BY decade",
            "SELECT mean(danceability), mean(popularity) FROM {t} GROUP BY key",
            "SELECT count FROM {t} GROUP BY genre",
        ],
        BaseDataset::Bank => &[
            "SELECT mean(Customer_Age) FROM {t} GROUP BY Gender, Income_Category",
            "SELECT count FROM {t} GROUP BY Marital_Status",
            "SELECT mean(Credit_Used) FROM {t} GROUP BY Education_Level",
        ],
        BaseDataset::Products => &[
            "SELECT count FROM {t} GROUP BY category_name",
            "SELECT mean(price) FROM {t} GROUP BY vendor",
        ],
        BaseDataset::Sales => &[
            "SELECT mean(total) FROM {t} GROUP BY vendor",
            "SELECT count FROM {t} GROUP BY county",
            "SELECT mean(total), mean(quantity) FROM {t} GROUP BY month",
        ],
        BaseDataset::Stores => &["SELECT count FROM {t} GROUP BY county"],
    }
}

impl WorkloadSpec {
    /// A small everything-on preset: all five base generators, one
    /// derived table exercising all four dataset steps, all four
    /// provenance kinds, deadlines, retries, and zipf skew — sized for
    /// a CI smoke run (seconds, not minutes).
    pub fn smoke(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: "smoke".to_string(),
            seed,
            datasets: vec![
                DatasetSpec {
                    table: "spotify".into(),
                    base: BaseDataset::Spotify,
                    rows: 1200,
                    product_rows: None,
                    steps: vec![],
                },
                DatasetSpec {
                    table: "Bank".into(),
                    base: BaseDataset::Bank,
                    rows: 500,
                    product_rows: None,
                    steps: vec![],
                },
                DatasetSpec {
                    table: "products".into(),
                    base: BaseDataset::Products,
                    rows: 150,
                    product_rows: None,
                    steps: vec![],
                },
                DatasetSpec {
                    table: "sales".into(),
                    base: BaseDataset::Sales,
                    rows: 1500,
                    product_rows: Some(150),
                    steps: vec![],
                },
                // One derived table through every step kind: sampled,
                // filtered, mutated, chunked — ships inline.
                DatasetSpec {
                    table: "spotify_hot".into(),
                    base: BaseDataset::Spotify,
                    rows: 1200,
                    product_rows: None,
                    steps: vec![
                        DatasetStep::Sample { keep_pct: 60 },
                        DatasetStep::FilterGt {
                            column: "popularity".into(),
                            min: 35.0,
                        },
                        DatasetStep::Mutate {
                            column: "energy_pct".into(),
                            source: "energy".into(),
                            scale: 100.0,
                            offset: 0.0,
                        },
                        DatasetStep::Chunk { index: 0, of: 2 },
                    ],
                },
            ],
            mix: QueryMix {
                filter: 4,
                group_by: 3,
                join: 2,
                union_: 2,
            },
            behavior: ClientBehavior {
                clients: 3,
                queries_per_client: 8,
                think_ms_min: 2,
                think_ms_max: 10,
                deadline_ms: Some(30_000),
                retries: 2,
                zipf_s: 0.8,
            },
        }
    }

    /// The spec the `chaos` [`preset`] compiles before it sets its
    /// traffic roles: one 10k-row spotify table and four clients of
    /// filter explains, 20 ms apart, with no retries (one attempt per
    /// op).
    pub fn chaos(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: "chaos".to_string(),
            seed,
            datasets: vec![DatasetSpec {
                table: "spotify".into(),
                base: BaseDataset::Spotify,
                rows: 10_000,
                product_rows: None,
                steps: vec![],
            }],
            mix: QueryMix {
                filter: 1,
                group_by: 0,
                join: 0,
                union_: 0,
            },
            behavior: ClientBehavior {
                clients: 4,
                queries_per_client: 600,
                think_ms_min: 20,
                think_ms_max: 20,
                deadline_ms: None,
                retries: 0,
                zipf_s: 0.0,
            },
        }
    }

    /// The spec as JSON — echoed into the trace header so a trace file
    /// documents its own provenance.
    pub fn to_json(&self) -> Json {
        let datasets = self
            .datasets
            .iter()
            .map(|d| {
                let steps = d
                    .steps
                    .iter()
                    .map(|s| match s {
                        DatasetStep::Sample { keep_pct } => Json::Obj(vec![
                            ("step".into(), json::s("sample")),
                            ("keep_pct".into(), json::n(*keep_pct as f64)),
                        ]),
                        DatasetStep::FilterGt { column, min } => Json::Obj(vec![
                            ("step".into(), json::s("filter_gt")),
                            ("column".into(), json::s(column.clone())),
                            ("min".into(), Json::Num(*min)),
                        ]),
                        DatasetStep::Mutate {
                            column,
                            source,
                            scale,
                            offset,
                        } => Json::Obj(vec![
                            ("step".into(), json::s("mutate")),
                            ("column".into(), json::s(column.clone())),
                            ("source".into(), json::s(source.clone())),
                            ("scale".into(), Json::Num(*scale)),
                            ("offset".into(), Json::Num(*offset)),
                        ]),
                        DatasetStep::Chunk { index, of } => Json::Obj(vec![
                            ("step".into(), json::s("chunk")),
                            ("index".into(), json::n(*index as f64)),
                            ("of".into(), json::n(*of as f64)),
                        ]),
                    })
                    .collect();
                let mut fields = vec![
                    ("table".to_string(), json::s(d.table.clone())),
                    ("base".to_string(), json::s(d.base.wire_name())),
                    ("rows".to_string(), json::n(d.rows as f64)),
                ];
                if let Some(p) = d.product_rows {
                    fields.push(("product_rows".to_string(), json::n(p as f64)));
                }
                fields.push(("steps".to_string(), Json::Arr(steps)));
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("name".into(), json::s(self.name.clone())),
            ("seed".into(), json::n(self.seed as f64)),
            ("datasets".into(), Json::Arr(datasets)),
            (
                "mix".into(),
                json::obj([
                    ("filter", json::n(self.mix.filter as f64)),
                    ("group_by", json::n(self.mix.group_by as f64)),
                    ("join", json::n(self.mix.join as f64)),
                    ("union", json::n(self.mix.union_ as f64)),
                ]),
            ),
            (
                "behavior".into(),
                json::obj([
                    ("clients", json::n(self.behavior.clients as f64)),
                    (
                        "queries_per_client",
                        json::n(self.behavior.queries_per_client as f64),
                    ),
                    ("think_ms_min", json::n(self.behavior.think_ms_min as f64)),
                    ("think_ms_max", json::n(self.behavior.think_ms_max as f64)),
                    (
                        "deadline_ms",
                        self.behavior
                            .deadline_ms
                            .map_or(Json::Null, |d| json::n(d as f64)),
                    ),
                    ("retries", json::n(self.behavior.retries as f64)),
                    ("zipf_s", Json::Num(self.behavior.zipf_s)),
                ]),
            ),
        ])
    }

    /// Compile to a reproducible [`Trace`]: registration ops first (one
    /// per dataset, shared session), then every client's explains in
    /// client-major order. Equal specs yield byte-identical traces.
    pub fn compile(&self) -> Result<Trace, WorkloadError> {
        if self.datasets.is_empty() {
            return Err(WorkloadError::InvalidSpec("no datasets".into()));
        }
        let enabled = self.enabled_kinds();
        if enabled.is_empty() {
            return Err(WorkloadError::InvalidSpec(
                "all mix weights are zero".into(),
            ));
        }
        let join_pair = self.join_pair();
        if self.mix.join > 0 && join_pair.is_none() {
            return Err(WorkloadError::InvalidSpec(
                "join weight > 0 needs both a products and a sales dataset".into(),
            ));
        }
        let session = self.name.clone();
        let mut ops = Vec::new();
        let mut id = 0u64;

        for (i, d) in self.datasets.iter().enumerate() {
            if d.base == BaseDataset::Sales && d.product_rows.is_none() {
                return Err(WorkloadError::InvalidSpec(format!(
                    "sales dataset {:?} needs product_rows",
                    d.table
                )));
            }
            if d.steps.is_empty() {
                ops.push(TraceOp::RegisterDemo {
                    id,
                    session: session.clone(),
                    table: d.table.clone(),
                    dataset: d.base.wire_name().to_string(),
                    rows: d.rows,
                    seed: self.seed,
                    product_rows: d.product_rows,
                });
            } else {
                // Derived table: materialize now, ship the rows inline.
                // The step rng is decoupled from the query stream so
                // reordering datasets cannot silently reshuffle queries.
                let mut step_rng = SplitMix64::new(self.seed ^ (0x5afe_0000 + i as u64));
                let df = materialize(d, self.seed, &mut step_rng)?;
                ops.push(TraceOp::RegisterInline {
                    id,
                    session: session.clone(),
                    table: d.table.clone(),
                    columns: columns_json(&df),
                });
            }
            id += 1;
        }

        // Popularity: zipf over spec order. Join is excluded from the
        // zipf pick (it names its pair directly).
        let weights: Vec<f64> = (0..self.datasets.len())
            .map(|i| 1.0 / ((i + 1) as f64).powf(self.behavior.zipf_s))
            .collect();

        let mut rng = SplitMix64::new(self.seed);
        let kind_weights = [
            self.mix.filter as f64,
            self.mix.group_by as f64,
            self.mix.join as f64,
            self.mix.union_ as f64,
        ];
        let kind_names = ["filter", "group_by", "join", "union"];
        let mut q_index = 0u64;
        for client in 0..self.behavior.clients as u64 {
            for _ in 0..self.behavior.queries_per_client {
                // First |enabled| queries cycle through the enabled
                // kinds — coverage by construction, not by luck.
                let kind = if (q_index as usize) < enabled.len() {
                    enabled[q_index as usize]
                } else {
                    rng.pick_weighted(&kind_weights)
                };
                let sql = match kind {
                    0 | 3 => {
                        let d = &self.datasets[rng.pick_weighted(&weights)];
                        let preds = filter_preds(d.base);
                        if kind == 0 {
                            format!("SELECT * FROM {} WHERE {}", d.table, rng.pick(preds))
                        } else {
                            // Union: two bracketed filtered arms over
                            // the same table, so the schemas agree.
                            let a = rng.pick(preds);
                            let b = rng.pick(preds);
                            format!(
                                "SELECT * FROM [SELECT * FROM {t} WHERE {a}] \
                                 UNION SELECT * FROM [SELECT * FROM {t} WHERE {b}]",
                                t = d.table
                            )
                        }
                    }
                    1 => {
                        let d = &self.datasets[rng.pick_weighted(&weights)];
                        rng.pick(agg_templates(d.base)).replace("{t}", &d.table)
                    }
                    _ => {
                        let (p, s) = join_pair.as_ref().expect("checked above");
                        format!("SELECT * FROM {p} INNER JOIN {s} ON {p}.item = {s}.item")
                    }
                };
                let think_ms = rng.gen_range(
                    self.behavior.think_ms_min,
                    self.behavior.think_ms_max.max(self.behavior.think_ms_min) + 1,
                );
                ops.push(TraceOp::Explain {
                    id,
                    client,
                    session: session.clone(),
                    kind: kind_names[kind].to_string(),
                    sql,
                    think_ms,
                    retries: self.behavior.retries as u64,
                    deadline_ms: self.behavior.deadline_ms,
                    hang_up: false,
                });
                id += 1;
                q_index += 1;
            }
        }

        Ok(Trace {
            header: TraceHeader {
                name: self.name.clone(),
                seed: self.seed,
                clients: self.behavior.clients as u64,
                generator: self.to_json(),
                faults: None,
            },
            ops,
        })
    }

    /// Kind indices (0=filter, 1=group_by, 2=join, 3=union) with a
    /// positive weight, in canonical order.
    fn enabled_kinds(&self) -> Vec<usize> {
        [
            self.mix.filter,
            self.mix.group_by,
            self.mix.join,
            self.mix.union_,
        ]
        .iter()
        .enumerate()
        .filter(|(_, w)| **w > 0)
        .map(|(i, _)| i)
        .collect()
    }

    /// The `(products_table, sales_table)` join pair, if the spec has
    /// both (first of each base wins).
    fn join_pair(&self) -> Option<(String, String)> {
        let p = self
            .datasets
            .iter()
            .find(|d| d.base == BaseDataset::Products)?;
        let s = self
            .datasets
            .iter()
            .find(|d| d.base == BaseDataset::Sales)?;
        Some((p.table.clone(), s.table.clone()))
    }
}

/// Explains each role client of the `chaos` preset keeps.
const CHAOS_ROLE_OPS: u32 = 100;

/// Compile a named preset (`smoke` or `chaos`) to its trace.
///
/// `chaos` is [`WorkloadSpec::chaos`] with roles set on the compiled
/// ops: clients 0 and 1 flood, client 2 sends 40 ms deadlines every
/// 250 ms, and client 3 hangs up unread every 200 ms (the role clients
/// keep their first 100 explains, so every client spans about the same
/// time). The header's fault plan injects worker panics, write
/// disconnects, torn writes and 2 ms of stage latency, seeded from
/// `seed`.
pub fn preset(name: &str, seed: u64) -> Result<Trace, WorkloadError> {
    match name {
        "smoke" => WorkloadSpec::smoke(seed).compile(),
        "chaos" => {
            let mut trace = WorkloadSpec::chaos(seed).compile()?;
            let mut sent = [0u32; 4];
            trace.ops.retain_mut(|op| {
                let TraceOp::Explain {
                    client,
                    think_ms,
                    deadline_ms,
                    hang_up,
                    ..
                } = op
                else {
                    return true;
                };
                let c = *client as usize;
                sent[c] += 1;
                match c {
                    2 => (*think_ms, *deadline_ms) = (250, Some(40)),
                    3 => (*think_ms, *hang_up) = (200, true),
                    _ => return true,
                }
                sent[c] <= CHAOS_ROLE_OPS
            });
            trace.header.faults = Some(format!(
                "seed={seed},panic=0.05,disconnect=0.05,torn=0.03,delay_ms=2"
            ));
            Ok(trace)
        }
        other => Err(WorkloadError::InvalidSpec(format!(
            "unknown preset {other:?} (want smoke|chaos)"
        ))),
    }
}

/// Generate the base frame and run the step pipeline.
fn materialize(
    d: &DatasetSpec,
    seed: u64,
    rng: &mut SplitMix64,
) -> Result<DataFrame, WorkloadError> {
    let rows = d.rows as usize;
    let mut df = match d.base {
        BaseDataset::Spotify => fedex_data::spotify::generate(rows, seed),
        BaseDataset::Bank => fedex_data::bank::generate(rows, seed),
        BaseDataset::Products => fedex_data::products::generate_products(rows, seed),
        BaseDataset::Sales => {
            let parent = fedex_data::products::generate_products(
                d.product_rows.unwrap_or(50) as usize,
                seed,
            );
            fedex_data::products::generate_sales(&parent, rows, seed)
        }
        BaseDataset::Stores => fedex_data::products::generate_stores(rows, seed),
    };
    for step in &d.steps {
        df = apply_step(&df, step, rng)
            .map_err(|e| WorkloadError::InvalidSpec(format!("dataset {:?}: {e}", d.table)))?;
    }
    if df.n_rows() == 0 {
        return Err(WorkloadError::InvalidSpec(format!(
            "dataset {:?}: steps left zero rows",
            d.table
        )));
    }
    Ok(df)
}

/// The column's values as f64 (ints widened), or an error for
/// non-numeric columns.
fn numeric_values(df: &DataFrame, name: &str) -> Result<Vec<Option<f64>>, String> {
    let col = df.column(name).map_err(|e| e.to_string())?;
    match col.data() {
        ColumnData::Int(v) => Ok(v.iter().map(|o| o.map(|x| x as f64)).collect()),
        ColumnData::Float(v) => Ok(v.clone()),
        _ => Err(format!("column {name:?} is not numeric")),
    }
}

fn apply_step(
    df: &DataFrame,
    step: &DatasetStep,
    rng: &mut SplitMix64,
) -> Result<DataFrame, String> {
    match step {
        DatasetStep::Sample { keep_pct } => {
            let keep = (*keep_pct).min(100) as u64;
            let idx: Vec<usize> = (0..df.n_rows())
                .filter(|_| rng.gen_range(0, 100) < keep)
                .collect();
            df.take(&idx).map_err(|e| e.to_string())
        }
        DatasetStep::FilterGt { column, min } => {
            let vals = numeric_values(df, column)?;
            let mask: Vec<bool> = vals.iter().map(|v| v.is_some_and(|x| x > *min)).collect();
            df.filter(&mask).map_err(|e| e.to_string())
        }
        DatasetStep::Mutate {
            column,
            source,
            scale,
            offset,
        } => {
            let vals = numeric_values(df, source)?;
            let derived: Vec<Option<f64>> =
                vals.iter().map(|v| v.map(|x| x * scale + offset)).collect();
            let mut cols = df.columns().to_vec();
            cols.push(Column::from_opt_floats(column.clone(), derived));
            DataFrame::new(cols).map_err(|e| e.to_string())
        }
        DatasetStep::Chunk { index, of } => {
            if *of == 0 || index >= of {
                return Err(format!("chunk {index}/{of} is out of range"));
            }
            let n = df.n_rows();
            let lo = n * *index as usize / *of as usize;
            let hi = n * (*index as usize + 1) / *of as usize;
            let idx: Vec<usize> = (lo..hi).collect();
            df.take(&idx).map_err(|e| e.to_string())
        }
    }
}

/// A frame as the `register` wire `columns` payload.
fn columns_json(df: &DataFrame) -> Json {
    let cols = df
        .columns()
        .iter()
        .map(|c| {
            let (dtype, values): (&str, Vec<Json>) = match c.data() {
                ColumnData::Int(v) => (
                    "int",
                    v.iter()
                        .map(|o| o.map_or(Json::Null, |x| Json::Num(x as f64)))
                        .collect(),
                ),
                ColumnData::Float(v) => (
                    "float",
                    v.iter().map(|o| o.map_or(Json::Null, Json::Num)).collect(),
                ),
                ColumnData::Bool(v) => (
                    "bool",
                    v.iter().map(|o| o.map_or(Json::Null, Json::Bool)).collect(),
                ),
                ColumnData::Str(sc) => (
                    "str",
                    (0..sc.len())
                        .map(|i| {
                            sc.get(i)
                                .map_or(Json::Null, |s| Json::Str(s.as_ref().to_string()))
                        })
                        .collect(),
                ),
            };
            Json::Obj(vec![
                ("name".to_string(), json::s(c.name())),
                ("type".to_string(), json::s(dtype)),
                ("values".to_string(), Json::Arr(values)),
            ])
        })
        .collect();
    Json::Arr(cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_compiles_deterministically_with_full_coverage() {
        let a = WorkloadSpec::smoke(11).compile().unwrap();
        let b = WorkloadSpec::smoke(11).compile().unwrap();
        assert_eq!(a.to_ndjson(), b.to_ndjson());
        assert_ne!(
            a.to_ndjson(),
            WorkloadSpec::smoke(12).compile().unwrap().to_ndjson()
        );
        // 5 registers (one inline) + 3×8 explains.
        assert_eq!(a.ops.len(), 5 + 24);
        let kinds: std::collections::BTreeSet<&str> = a
            .ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Explain { kind, .. } => Some(kind.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            ["filter", "group_by", "join", "union"]
        );
        assert!(a
            .ops
            .iter()
            .any(|op| matches!(op, TraceOp::RegisterInline { .. })));
    }

    #[test]
    fn steps_shrink_and_extend_the_frame() {
        let d = DatasetSpec {
            table: "hot".into(),
            base: BaseDataset::Spotify,
            rows: 400,
            product_rows: None,
            steps: vec![
                DatasetStep::Sample { keep_pct: 50 },
                DatasetStep::FilterGt {
                    column: "popularity".into(),
                    min: 30.0,
                },
                DatasetStep::Mutate {
                    column: "energy_pct".into(),
                    source: "energy".into(),
                    scale: 100.0,
                    offset: 0.0,
                },
                DatasetStep::Chunk { index: 0, of: 2 },
            ],
        };
        let mut rng = SplitMix64::new(99);
        let df = materialize(&d, 42, &mut rng).unwrap();
        assert!(df.n_rows() > 0 && df.n_rows() < 400);
        assert!(df.column("energy_pct").is_ok());
        // Same seeds, same frame.
        let mut rng2 = SplitMix64::new(99);
        let df2 = materialize(&d, 42, &mut rng2).unwrap();
        assert_eq!(df.fingerprint(), df2.fingerprint());
    }

    #[test]
    fn invalid_specs_are_typed() {
        let mut s = WorkloadSpec::smoke(1);
        s.datasets.retain(|d| d.base != BaseDataset::Sales);
        assert!(matches!(
            s.compile(),
            Err(WorkloadError::InvalidSpec(ref why)) if why.contains("join")
        ));
        let mut s = WorkloadSpec::smoke(1);
        s.mix = QueryMix {
            filter: 0,
            group_by: 0,
            join: 0,
            union_: 0,
        };
        assert!(matches!(s.compile(), Err(WorkloadError::InvalidSpec(_))));
    }
}
