//! `cold_scale`: the paper's scalability path. Every op generates and
//! registers a fresh table set from a new seed — a 200k-row spotify table
//! plus products and sales for the join — so no cache entry can hit, then
//! explains one step of each kind over it. The working set outgrows the
//! default `ArtifactCache` budget within a few ops, so eviction runs in
//! steady state.

use std::sync::Arc;

use fedex_bench::workload::SplitMix64;
use fedex_core::{ArtifactCache, ExecutionMode, Fedex};
use fedex_data::{products, spotify};
use fedex_frame::DataFrame;
use fedex_query::Catalog;

use crate::check::Check;
use crate::library::{self, Kind, Request};
use crate::queries::{self, SPOTIFY_GROUP_BY, SPOTIFY_PREDICATES};
use crate::report::Outcome;
use crate::solo::{self, SoloRun};
use crate::tracer::Tracer;
use crate::Args;

/// Ops (one table set, five explains) per second of `--seconds`.
const OPS_PER_SECOND: f64 = 0.25;
const EXPLAINS_PER_OP: usize = 5;
const JOIN: &str = "SELECT * FROM products INNER JOIN sales ON products.item = sales.item";
const EXECUTION: ExecutionMode = ExecutionMode::Threads(2);
const SPOTIFY_ROWS: usize = 200_000;
const PRODUCT_ROWS: usize = 2_000;
const SALES_ROWS: usize = 50_000;

/// One op's fresh tables, generated from `seed`.
fn tables(seed: u64) -> Vec<(&'static str, DataFrame)> {
    let products_df = products::generate_products(PRODUCT_ROWS, seed);
    let sales_df = products::generate_sales(&products_df, SALES_ROWS, seed);
    vec![
        ("spotify", spotify::generate(SPOTIFY_ROWS, seed)),
        ("products", products_df),
        ("sales", sales_df),
    ]
}

/// One op of the sequence: the seed of its tables and its explains.
struct Op {
    table_seed: u64,
    requests: Vec<Request>,
}

/// `n` ops. Op `i` explains two filters, a group-by, the join and a
/// union. Its templates and aggregates are fixed by `i`, and its
/// thresholds sit in strata fixed by `i`, so every seed spreads costs the
/// same way.
fn sequence(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0x636f_6c64_7363_616c);
    let p = &SPOTIFY_PREDICATES;
    (0..n)
        .map(|i| {
            let table_seed = rng.next_u64() >> 12;
            let (a, b) = (i, n - 1 - i);
            let mut at = |s: usize| queries::stratum(&mut rng, s, n);
            let (ua, ub, uc, ud) = (at(a), at(b), at(a), at(b));
            let requests = vec![
                (Kind::Filter, queries::filter(&p[i % 6], ua)),
                (Kind::Filter, queries::filter(&p[(i + 3) % 6], ub)),
                (
                    Kind::GroupBy,
                    queries::group_by(
                        &mut SplitMix64::new(i as u64),
                        &SPOTIFY_GROUP_BY,
                        i,
                        i % 3 + 1,
                    ),
                ),
                (Kind::Join, JOIN.to_string()),
                (
                    Kind::Union,
                    queries::union(&p[(i + 1) % 6], uc, &p[(i + 4) % 6], ud),
                ),
            ];
            Op {
                table_seed,
                requests: requests
                    .into_iter()
                    .map(|(kind, sql)| Request { kind, sql })
                    .collect(),
            }
        })
        .collect()
}

fn explainer(cache: &Arc<ArtifactCache>) -> Fedex {
    Fedex::new()
        .with_execution(EXECUTION)
        .with_cache(cache.clone())
}

/// A fresh cache, warmed by one op over a table set no sequence uses.
fn setup(seed: u64) -> Result<Arc<ArtifactCache>, String> {
    let cache = Arc::new(ArtifactCache::default());
    let mut catalog = Catalog::new();
    for (name, df) in tables(!seed) {
        library::register(&mut catalog, name, df);
    }
    let sql = "SELECT * FROM spotify WHERE popularity > 50";
    library::explain(&explainer(&cache), &catalog, sql).map_err(|e| format!("warm-up: {e}"))?;
    Ok(cache)
}

struct ColdScale {
    seed: u64,
    seq: Vec<Op>,
}

impl solo::Workload for ColdScale {
    type State = Arc<ArtifactCache>;

    /// Per op: three registers and the explains.
    fn attempted(&self) -> u64 {
        (self.seq.len() * (EXPLAINS_PER_OP + 3)) as u64
    }

    fn setup(&self) -> Result<Arc<ArtifactCache>, String> {
        setup(self.seed)
    }

    fn cache<'s>(&self, state: &'s Arc<ArtifactCache>) -> &'s ArtifactCache {
        state
    }

    fn replay(
        &self,
        cache: &mut Arc<ArtifactCache>,
        mut tr: Option<&mut Tracer>,
        check: &mut Check,
        register_ms: &mut Vec<f64>,
    ) -> SoloRun {
        let fedex = explainer(cache);
        let mut run = SoloRun::default();
        let mut catalog = Catalog::new();
        for op in &self.seq {
            for (name, df) in tables(op.table_seed) {
                match tr.as_deref_mut() {
                    None => register_ms.push(library::register(&mut catalog, name, df)),
                    Some(tr) => library::register_traced(&mut catalog, name, df, tr),
                }
            }
            for req in &op.requests {
                run.explain(&fedex, &catalog, req, tr.as_deref_mut(), check);
                // 200k-row transients otherwise leave a resident set that
                // depends on how the worker threads' frees interleaved.
                crate::report::release_free_memory();
            }
        }
        run
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let n = (args.seconds as f64 * OPS_PER_SECOND).ceil() as usize;
    let cold = ColdScale {
        seed: args.seed,
        seq: sequence(args.seed, n),
    };
    solo::run(&cold, args)
}
