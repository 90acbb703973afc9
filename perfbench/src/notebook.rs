//! `notebook`: one analyst on the library path. Tables at
//! `DatasetScale::medium()` are registered and explained once during set
//! up, so input frames are warm; the timed sequence is a run of distinct
//! steps over all four kinds, so kernels and partitions are cold. The
//! 150k-row `products ⋈ sales` view is left out: its explains made the
//! tail of the latency distribution swing between runs.

use std::collections::HashSet;
use std::sync::Arc;

use fedex_bench::workload::SplitMix64;
use fedex_core::{ArtifactCache, ExecutionMode, Fedex};
use fedex_data::{bank, products, spotify, DatasetScale};
use fedex_frame::DataFrame;
use fedex_query::Catalog;

use crate::check::Check;
use crate::library::{self, Kind, Request};
use crate::queries::{self, BANK_GROUP_BY, BANK_PREDICATES, SPOTIFY_GROUP_BY, SPOTIFY_PREDICATES};
use crate::report::Outcome;
use crate::solo::{self, SoloRun};
use crate::tracer::Tracer;
use crate::Args;

/// Rounds (20 steps each) per second of `--seconds`: fixes the sequence
/// length.
const ROUNDS_PER_SECOND: f64 = 0.3;
/// Stated so that a bigger host does not change the work.
const EXECUTION: ExecutionMode = ExecutionMode::Threads(2);

/// The first explain over each table, run during set-up.
const WARM: [&str; 3] = [
    "SELECT * FROM spotify WHERE popularity > 85",
    "SELECT * FROM Bank WHERE Customer_Age < 65",
    "SELECT * FROM products INNER JOIN sales ON products.item = sales.item",
];

/// The table each step's output is saved as.
const SAVED: &str = "last";

struct State {
    catalog: Catalog,
    fedex: Fedex,
    cache: Arc<ArtifactCache>,
}

/// Generate the medium spotify, Bank, products and sales tables, register
/// them and explain once over each.
fn setup(seed: u64) -> Result<State, String> {
    let scale = DatasetScale {
        seed,
        ..DatasetScale::medium()
    };
    let products_df = products::generate_products(scale.product_rows, seed);
    let sales_df = products::generate_sales(&products_df, scale.sales_rows, seed);
    let tables: Vec<(&str, DataFrame)> = vec![
        ("spotify", spotify::generate(scale.spotify_rows, seed)),
        ("Bank", bank::generate(scale.bank_rows, seed)),
        ("products", products_df),
        ("sales", sales_df),
    ];
    let mut catalog = Catalog::new();
    for (name, df) in tables {
        library::register(&mut catalog, name, df);
    }
    let cache = Arc::new(ArtifactCache::default());
    let fedex = Fedex::new()
        .with_execution(EXECUTION)
        .with_cache(cache.clone());
    for sql in WARM {
        library::explain(&fedex, &catalog, sql).map_err(|e| format!("warm-up {sql}: {e}"))?;
    }
    Ok(State {
        catalog,
        fedex,
        cache,
    })
}

/// `rounds` rounds of distinct steps over all four kinds. Every round
/// runs the same templates (tables, columns, keys) in a seeded order; round
/// `r` draws its thresholds from stratum `r`, so each seed covers every
/// template's range once.
pub fn sequence(seed: u64, rounds: usize) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed ^ 0x6e6f_7465_626f_6f6b);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for r in 0..rounds {
        let mut round = Vec::new();
        let mut add =
            |rng: &mut SplitMix64, kind: Kind, draw: &dyn Fn(&mut SplitMix64) -> String| loop {
                let sql = draw(rng);
                if seen.insert(sql.clone()) {
                    round.push(Request { kind, sql });
                    break;
                }
            };
        let at = |g: &mut SplitMix64| queries::stratum(g, r, rounds);
        let mirrored = |g: &mut SplitMix64| queries::stratum(g, rounds - 1 - r, rounds);
        for t in SPOTIFY_PREDICATES.iter().chain(&BANK_PREDICATES) {
            add(&mut rng, Kind::Filter, &|g| queries::filter(t, at(g)));
        }
        for j in 0..3 {
            for t in [&SPOTIFY_GROUP_BY, &BANK_GROUP_BY] {
                let (key, n_aggs) = (3 * r + j, (r + j) % 3 + 1);
                add(&mut rng, Kind::GroupBy, &|g| {
                    queries::group_by(g, t, key, n_aggs)
                });
            }
        }
        add(&mut rng, Kind::Join, &|g| {
            format!(
                "SELECT * FROM [SELECT * FROM products WHERE price > {:.2}] \
                 INNER JOIN sales ON sub.item = sales.item",
                5.0 + 55.0 * at(g)
            )
        });
        let (s, b) = (&SPOTIFY_PREDICATES, &BANK_PREDICATES);
        for (x, y) in [
            (&s[r % 6], &s[(r + 2) % 6]),
            (&s[(r + 1) % 6], &s[(r + 4) % 6]),
            (&b[r % 4], &b[(r + 1) % 4]),
        ] {
            add(&mut rng, Kind::Union, &|g| {
                queries::union(x, at(g), y, mirrored(g))
            });
        }
        // Seeded order within the round (Fisher-Yates).
        for i in (1..round.len()).rev() {
            round.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
        }
        out.extend(round);
    }
    out
}

struct Notebook {
    seed: u64,
    seq: Vec<Request>,
}

impl solo::Workload for Notebook {
    type State = State;

    /// Each step is an explain plus the save of its output.
    fn attempted(&self) -> u64 {
        2 * self.seq.len() as u64
    }

    fn setup(&self) -> Result<State, String> {
        setup(self.seed)
    }

    fn cache<'s>(&self, state: &'s State) -> &'s ArtifactCache {
        &state.cache
    }

    /// The analyst saves every step's output as table `last`; those
    /// registers are timed too.
    fn replay(
        &self,
        state: &mut State,
        mut tr: Option<&mut Tracer>,
        check: &mut Check,
        register_ms: &mut Vec<f64>,
    ) -> SoloRun {
        let mut run = SoloRun::default();
        for req in &self.seq {
            let Some(output) =
                run.explain(&state.fedex, &state.catalog, req, tr.as_deref_mut(), check)
            else {
                continue;
            };
            match tr.as_deref_mut() {
                None => register_ms.push(library::register(&mut state.catalog, SAVED, output)),
                Some(tr) => library::register_traced(&mut state.catalog, SAVED, output, tr),
            }
        }
        run
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let rounds = (args.seconds as f64 * ROUNDS_PER_SECOND).ceil() as usize;
    let notebook = Notebook {
        seed: args.seed,
        seq: sequence(args.seed, rounds),
    };
    solo::run(&notebook, args)
}
