//! Concurrency and correctness contracts of the cross-request artifact
//! cache and the [`SessionManager`]:
//!
//! * N threads explaining against shared cached tables produce
//!   **byte-identical** explanations (float bit patterns included) to an
//!   uncached serial run;
//! * LRU eviction keeps the estimated resident bytes within the budget
//!   even while explains race registrations;
//! * property test: a warm (cache-hit) explain equals a cold explain
//!   bit-for-bit across operations, dtypes, and nasty float values.

use std::sync::Arc;

use fedex_core::{ArtifactCache, ExecutionMode, Explanation, Fedex, FedexConfig, SessionManager};
use fedex_frame::{Column, DataFrame};
use fedex_query::{ExploratoryStep, Expr, Operation};
use proptest::prelude::*;

fn spotify(rows: usize, seed: u64) -> DataFrame {
    fedex_data::spotify::generate(rows, seed)
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
    const SQL: &str = "SELECT * FROM spotify WHERE popularity > 65";
    let table = spotify(3_000, 11);

    // Reference: no cache, serial.
    let reference = {
        let mut session =
            fedex_core::Session::new(Fedex::new().with_execution(ExecutionMode::Serial));
        session.register("spotify", table.clone());
        fingerprint_explanations(&session.run(SQL).unwrap().explanations)
    };

    let mgr = Arc::new(SessionManager::default());
    for t in 0..THREADS {
        mgr.register(&format!("s{t}"), "spotify", table.clone());
    }
    let results: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let mgr = mgr.clone();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..2 {
                        let entry = mgr.run(&format!("s{t}"), SQL, None).unwrap();
                        out.push(fingerprint_explanations(&entry.explanations));
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
    assert_eq!(results.len(), THREADS * 2);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r, &reference, "thread run {i} diverged");
    }
    // All threads shared one table content: one cold encode, the rest hits.
    let m = mgr.cache().metrics();
    assert!(m.hits > 0, "{m:?}");
    assert!(m.bytes <= m.budget, "{m:?}");
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
                mgr.register(&session, "spotify", spotify(2_000, 100 + t));
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
    mgr.register("big", "spotify", big.clone());
    let cold = fingerprint_explanations(&mgr.run("big", sql, None).unwrap().explanations);

    // Churn small one-off sessions until the budget forces evictions,
    // then keep churning a few more rounds; the big table is re-explained
    // (warm) between every one-off, keeping it hot.
    let mut rounds_after_pressure = 0;
    for t in 0..40u64 {
        let session = format!("oneoff{t}");
        mgr.register(&session, "spotify", spotify(2_000, 500 + t));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A cache-hit explain equals a cold explain bit-for-bit.
    #[test]
    fn warm_explain_equals_cold_explain(
        cells in proptest::collection::vec((any::<u8>(), any::<i32>()), 8..120),
        selector in any::<u8>(),
    ) {
        let df = df_from(&cells);
        let op = op_from(selector);
        let inputs = if matches!(op, Operation::Union) {
            vec![df.clone(), df_from(&cells[..cells.len() / 2])]
        } else {
            vec![df]
        };
        // Skip degenerate op/input combinations that fail to execute.
        if let Ok(step) = ExploratoryStep::run(inputs, op) {
            // Cold: no cache at all.
            let cold = Fedex::with_config(FedexConfig {
                execution: ExecutionMode::Serial,
                ..Default::default()
            })
            .explain(&step)
            .unwrap();

            // Warm: same step twice through one cache; compare the second.
            let cache = Arc::new(ArtifactCache::default());
            let fedex = Fedex::with_config(FedexConfig {
                execution: ExecutionMode::Serial,
                ..Default::default()
            })
            .with_cache(cache.clone());
            let _prime = fedex.explain(&step).unwrap();
            let warm = fedex.explain(&step).unwrap();

            prop_assert!(cache.metrics().hits > 0, "second run must hit");
            prop_assert_eq!(
                fingerprint_explanations(&cold),
                fingerprint_explanations(&warm),
                "cache hit changed the explanation bytes"
            );
        }
    }
}
