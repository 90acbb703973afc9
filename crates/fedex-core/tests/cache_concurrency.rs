//! Concurrency and correctness contracts of the cross-request artifact
//! cache and the [`SessionManager`]:
//!
//! * N threads explaining against shared cached tables produce
//!   **byte-identical** explanations (float bit patterns included) to an
//!   uncached serial run;
//! * LRU eviction keeps the estimated resident bytes within the budget
//!   even while explains race registrations;
//! * distinct steps over one table do not grow the cache: it holds the
//!   table's frame and partitions, and nothing per step;
//! * property test: a warm (cache-hit) explain equals a cold explain
//!   bit-for-bit across operations, dtypes, and nasty float values —
//!   including partition hits mined by another op, and relabelled to
//!   another input.

use std::sync::Arc;

use fedex_core::cache::ARTIFACTS;
use fedex_core::{
    ArtifactCache, ExecutionMode, Explanation, Fedex, FedexConfig, SessionManager, StageReport,
};
use fedex_frame::{Column, DataFrame};
use fedex_query::{ExploratoryStep, Expr, Operation};
use proptest::prelude::*;

fn spotify(rows: usize, seed: u64) -> DataFrame {
    fedex_data::spotify::generate(rows, seed)
}

/// Index of `artifact` in [`CacheMetrics::by_artifact`](fedex_core::CacheMetrics).
fn artifact(name: &str) -> usize {
    ARTIFACTS
        .iter()
        .position(|&a| a == name)
        .unwrap_or_else(|| panic!("no artifact kind {name:?}"))
}

/// Stable byte serialization of an explanation (same idea as the golden
/// fixture format).
fn fingerprint_explanations(explanations: &[Explanation]) -> String {
    explanations
        .iter()
        .map(|e| {
            format!(
                "{}|{}|{}|{:016x}|{:016x}|{:016x}|{:016x}|{}",
                e.column,
                e.set_label,
                e.partition_attr,
                e.interestingness.to_bits(),
                e.contribution.to_bits(),
                e.std_contribution.to_bits(),
                e.score.to_bits(),
                e.caption,
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn concurrent_sessions_match_uncached_serial_run() {
    const THREADS: usize = 6;
    const SQLS: [&str; 2] = [
        "SELECT * FROM spotify WHERE popularity > 65",
        "SELECT mean(popularity) FROM spotify GROUP BY decade",
    ];
    let table = spotify(3_000, 11);

    // Reference: no cache, serial.
    let reference: Vec<String> = SQLS
        .iter()
        .map(|sql| {
            let mut session =
                fedex_core::Session::new(Fedex::new().with_execution(ExecutionMode::Serial));
            session.register("spotify", table.clone());
            fingerprint_explanations(&session.run(sql).unwrap().explanations)
        })
        .collect();

    let mgr = Arc::new(SessionManager::default());
    for t in 0..THREADS {
        mgr.register(&format!("s{t}"), "spotify", table.clone())
            .unwrap();
    }
    // Each thread runs each SQL three times: cold, a warm run that
    // admits the result, and a run answered from the cached result.
    let results: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let mgr = mgr.clone();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (q, sql) in SQLS.iter().enumerate() {
                        for _ in 0..3 {
                            let entry = mgr.run(&format!("s{t}"), sql, None).unwrap();
                            out.push((q, fingerprint_explanations(&entry.explanations)));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("explain thread"))
            .collect()
    });
    assert_eq!(results.len(), THREADS * SQLS.len() * 3);
    for (i, (q, r)) in results.iter().enumerate() {
        assert_eq!(r, &reference[*q], "thread run {i} diverged");
    }
    // All threads shared one table content: one cold encode, the rest
    // hits; and every thread's third run of a SQL found its result.
    let m = mgr.cache().metrics();
    assert!(m.hits > 0, "{m:?}");
    assert_eq!(m.by_artifact[artifact("frame")].misses, 1, "{m:?}");
    assert!(
        m.by_artifact[artifact("results")].hits >= (THREADS * SQLS.len()) as u64,
        "{m:?}"
    );
    assert!(m.bytes <= m.budget, "{m:?}");
}

#[test]
fn distinct_steps_do_not_grow_the_cache() {
    let table = spotify(3_000, 5);
    let cache = Arc::new(ArtifactCache::default());
    let fedex = Fedex::new()
        .with_execution(ExecutionMode::Serial)
        .with_cache(cache.clone());
    let mut sizes = Vec::new();
    for bound in [45, 55, 60, 65, 70] {
        let filter = Operation::filter(Expr::col("popularity").gt(Expr::lit(bound)));
        let step = ExploratoryStep::run(vec![table.clone()], filter).unwrap();
        assert!(!fedex.explain(&step).unwrap().is_empty(), "bound {bound}");
        let m = cache.metrics();
        sizes.push((m.entries, m.bytes));
    }
    // The first explain encodes the frame; the second, seeing the frame
    // again, admits the partitions. No later step adds anything.
    let m = cache.metrics();
    assert_eq!(sizes[1].0, 2, "frame + partitions: {m:?}");
    assert!(sizes[1..].iter().all(|&s| s == sizes[1]), "{sizes:?}");
    assert_eq!(m.evictions, 0, "{m:?}");
}

#[test]
fn eviction_respects_budget_under_concurrent_explains() {
    // Budget sized to hold only ~2 of the 6 distinct tables' coded frames.
    let one_table_bytes = fedex_frame::CodedFrame::encode(&spotify(2_000, 0)).approx_bytes();
    let budget = one_table_bytes * 5 / 2;
    let mgr = Arc::new(SessionManager::new(
        Fedex::new(),
        Arc::new(ArtifactCache::with_budget(budget)),
    ));
    std::thread::scope(|scope| {
        for t in 0..6u64 {
            let mgr = mgr.clone();
            scope.spawn(move || {
                let session = format!("s{t}");
                // Distinct seeds → distinct contents → distinct entries.
                mgr.register(&session, "spotify", spotify(2_000, 100 + t))
                    .unwrap();
                for _ in 0..2 {
                    mgr.run(
                        &session,
                        "SELECT * FROM spotify WHERE popularity > 65",
                        None,
                    )
                    .unwrap();
                }
            });
        }
    });
    let m = mgr.cache().metrics();
    assert!(m.evictions > 0, "budget forces evictions: {m:?}");
    assert!(
        m.bytes <= m.budget,
        "resident {} > budget {}",
        m.bytes,
        m.budget
    );
}

#[test]
fn cost_aware_eviction_keeps_hot_expensive_artifacts_resident() {
    // A large table whose encode + kernel build are the expensive
    // artifacts, explained repeatedly (hot), against a churn of one-off
    // small tables (cheap to rebuild, immediately stale). Under
    // cost-aware eviction the churn is evicted, the big table's
    // coded frame stays resident, and — the correctness half — results
    // stay byte-identical no matter what was evicted in between.
    let big = spotify(40_000, 77);
    let big_frame_bytes = fedex_frame::CodedFrame::encode(&big).approx_bytes();
    let budget = big_frame_bytes * 2;
    let cache = Arc::new(ArtifactCache::with_budget(budget));
    let mgr = SessionManager::new(
        Fedex::new().with_execution(ExecutionMode::Serial),
        cache.clone(),
    );
    let sql = "SELECT * FROM spotify WHERE popularity > 65";
    mgr.register("big", "spotify", big.clone()).unwrap();
    let cold = fingerprint_explanations(&mgr.run("big", sql, None).unwrap().explanations);

    // Churn small one-off sessions until the budget forces evictions,
    // then keep churning a few more rounds; the big table is re-explained
    // (warm) between every one-off, keeping it hot.
    let mut rounds_after_pressure = 0;
    for t in 0..40u64 {
        let session = format!("oneoff{t}");
        mgr.register(&session, "spotify", spotify(2_000, 500 + t))
            .unwrap();
        mgr.run(&session, sql, None).unwrap();
        let warm = fingerprint_explanations(&mgr.run("big", sql, None).unwrap().explanations);
        assert_eq!(warm, cold, "eviction pressure must never change results");
        if cache.metrics().evictions > 0 {
            rounds_after_pressure += 1;
            if rounds_after_pressure >= 5 {
                break;
            }
        }
    }
    let m = cache.metrics();
    assert!(m.evictions > 0, "churn must exceed the budget: {m:?}");
    assert!(m.bytes <= m.budget, "{m:?}");
    assert!(
        cache.get_frame(big.fingerprint()).is_some(),
        "the hot, expensive-to-encode frame must survive cheap churn: {m:?}"
    );
}

/// Cells covering nulls, NaN, ±0.0, and heavy ties.
fn float_cell(tag: u8, payload: i32) -> Option<f64> {
    match tag % 8 {
        0 => None,
        1 => Some(-0.0),
        2 => Some(0.0),
        3 => Some(f64::NAN),
        4 | 5 => Some((payload % 5) as f64),
        _ => Some(payload as f64 / 8.0),
    }
}

fn df_from(cells: &[(u8, i32)]) -> DataFrame {
    let ints: Vec<Option<i64>> = cells
        .iter()
        .map(|&(t, p)| (t % 5 != 0).then_some((p % 7) as i64))
        .collect();
    let floats: Vec<Option<f64>> = cells
        .iter()
        .map(|&(t, p)| float_cell(t.wrapping_mul(31), p))
        .collect();
    let strs: Vec<&str> = cells
        .iter()
        .map(|&(t, _)| ["red", "green", "blue", "teal"][(t % 4) as usize])
        .collect();
    DataFrame::new(vec![
        Column::from_opt_ints("k", ints),
        Column::from_opt_floats("v", floats),
        Column::from_strs("g", strs),
    ])
    .unwrap()
}

fn op_from(selector: u8) -> Operation {
    match selector % 3 {
        0 => Operation::filter(Expr::col("k").gt(Expr::lit(2i64))),
        1 => Operation::group_by(vec!["g"], vec![fedex_query::Aggregate::mean("v")]),
        _ => Operation::Union,
    }
}

/// The hit flag of `artifact` in `stage`'s cache events, if reported.
fn cache_event(trace: &[StageReport], stage: &str, artifact: &str) -> Option<bool> {
    trace
        .iter()
        .find(|r| r.stage == stage)?
        .artifacts
        .iter()
        .find(|(a, _)| a == artifact)
        .map(|&(_, hit)| hit)
}

/// The `partitions[input]` event of PartitionRows, if the stage ran.
fn partitions_hit(trace: &[StageReport], input: usize) -> Option<bool> {
    cache_event(trace, "PartitionRows", &format!("partitions[{input}]"))
}

/// Whether this run inserted the partitions of `input`: PartitionRows
/// missed them on an input whose coded frame was already cached.
fn admitted(trace: &[StageReport], input: usize) -> bool {
    partitions_hit(trace, input) == Some(false)
        && cache_event(trace, "ScoreColumns", &format!("frame[{input}]")) == Some(true)
}

fn serial_config() -> FedexConfig {
    FedexConfig {
        execution: ExecutionMode::Serial,
        ..Default::default()
    }
}

/// The step of `op` over `df` (a union takes a prefix of `df` as its
/// second arm); `None` for degenerate op/input combinations that fail to
/// execute.
fn step_over(df: &DataFrame, op: Operation) -> Option<ExploratoryStep> {
    let inputs = if matches!(op, Operation::Union) {
        vec![df.clone(), df.head(df.n_rows() / 2)]
    } else {
        vec![df.clone()]
    };
    ExploratoryStep::run(inputs, op).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A cache-hit explain equals a cold explain bit-for-bit: a repeat of
    /// the same step, a different op over a table whose partitions
    /// another op mined, and that table as input 1 of a union (the cached
    /// partitions are relabelled).
    #[test]
    fn warm_explain_equals_cold_explain(
        cells in proptest::collection::vec((any::<u8>(), any::<i32>()), 8..120),
        selector in any::<u8>(),
    ) {
        let df = df_from(&cells);
        let cold = |step: &ExploratoryStep| {
            Fedex::with_config(serial_config()).explain(step).unwrap()
        };
        let cache = Arc::new(ArtifactCache::default());
        let fedex = Fedex::with_config(serial_config()).with_cache(cache.clone());
        // Whether df's partitions are in the cache: every step below has
        // df at input 0 until the union.
        let mut cached = false;

        // Same step twice through one cache; compare the second.
        if let Some(step) = step_over(&df, op_from(selector)) {
            for _ in 0..2 {
                let (_, trace) = fedex.explain_traced(&step).unwrap();
                cached |= admitted(&trace, 0);
            }
            let warm = fedex.explain(&step).unwrap();
            prop_assert!(cache.metrics().hits > 0, "repeat runs must hit");
            prop_assert_eq!(
                fingerprint_explanations(&cold(&step)),
                fingerprint_explanations(&warm),
                "cache hit changed the explanation bytes"
            );
        }

        // A different op over the same table looks up the partitions the
        // first op's second run admitted.
        if let Some(step) = step_over(&df, op_from(selector.wrapping_add(1))) {
            let (warm, trace) = fedex.explain_traced(&step).unwrap();
            if cached && partitions_hit(&trace, 0).is_some() {
                prop_assert_eq!(partitions_hit(&trace, 0), Some(true), "{:?}", trace);
            }
            cached |= admitted(&trace, 0);
            prop_assert_eq!(
                fingerprint_explanations(&cold(&step)),
                fingerprint_explanations(&warm),
                "a partition hit changed the explanation bytes"
            );
        }

        // A filter puts df at input 0; a union then takes it at input 1.
        let filter = step_over(&df, op_from(0)).expect("filters always execute");
        for _ in 0..2 {
            let (_, trace) = fedex.explain_traced(&filter).unwrap();
            cached |= admitted(&trace, 0);
        }
        let union = ExploratoryStep::run(
            vec![df.head(df.n_rows() / 3), df.clone()],
            Operation::Union,
        )
        .expect("same-schema union executes");
        let (warm, trace) = fedex.explain_traced(&union).unwrap();
        if cached && partitions_hit(&trace, 1).is_some() {
            prop_assert_eq!(partitions_hit(&trace, 1), Some(true), "{:?}", trace);
        }
        prop_assert_eq!(
            fingerprint_explanations(&cold(&union)),
            fingerprint_explanations(&warm),
            "relabelled cached partitions changed the explanation bytes"
        );
    }
}
