//! Integration test: the full 30-query workload of Tables 2–3 runs end to
//! end — parse, execute, explain — at a reduced scale.

use fedex::core::{Fedex, FedexConfig};
use fedex::data::{build_workbench, run_query, DatasetScale, QueryKind, QUERIES};

fn workbench() -> fedex::data::Workbench {
    build_workbench(&DatasetScale {
        spotify_rows: 2_500,
        bank_rows: 1_200,
        product_rows: 250,
        sales_rows: 4_000,
        store_rows: 100,
        seed: 17,
    })
}

#[test]
fn every_query_parses_executes_and_explains() {
    let wb = workbench();
    let fedex = Fedex::with_config(FedexConfig {
        sample_size: Some(5_000),
        top_k_explanations: Some(3),
        ..Default::default()
    });
    let mut explained = 0usize;
    for spec in &QUERIES {
        let step = run_query(spec, &wb.catalog)
            .unwrap_or_else(|e| panic!("query {} failed to run: {e}", spec.id));
        assert!(
            step.output.n_cols() > 0,
            "query {} has empty schema",
            spec.id
        );
        let explanations = fedex
            .explain(&step)
            .unwrap_or_else(|e| panic!("query {} failed to explain: {e}", spec.id));
        // Every explanation is well-formed.
        for e in &explanations {
            assert!(!e.caption.is_empty(), "query {}: empty caption", spec.id);
            assert!(
                e.contribution > 0.0,
                "query {}: non-positive contribution",
                spec.id
            );
            assert!(
                e.interestingness.is_finite() && e.interestingness >= 0.0,
                "query {}: bad interestingness",
                spec.id
            );
            assert!(e.set_size > 0, "query {}: empty set-of-rows", spec.id);
            assert!(!e.chart.bars.is_empty(), "query {}: empty chart", spec.id);
        }
        if !explanations.is_empty() {
            explained += 1;
        }
    }
    // The workload is full of planted patterns; the vast majority of steps
    // must be explainable.
    assert!(
        explained >= 25,
        "only {explained}/30 queries produced explanations"
    );
}

#[test]
fn filter_and_join_queries_use_exceptionality() {
    let wb = workbench();
    let fedex = Fedex::sampling(5_000);
    for spec in &QUERIES {
        if spec.kind == QueryKind::GroupBy {
            continue;
        }
        let step = run_query(spec, &wb.catalog).unwrap();
        for e in fedex.explain(&step).unwrap() {
            assert_eq!(
                e.measure,
                fedex::core::InterestingnessKind::Exceptionality,
                "query {}",
                spec.id
            );
        }
    }
}

#[test]
fn group_by_queries_use_diversity() {
    let wb = workbench();
    let fedex = Fedex::sampling(5_000);
    for spec in &QUERIES {
        if spec.kind != QueryKind::GroupBy {
            continue;
        }
        let step = run_query(spec, &wb.catalog).unwrap();
        for e in fedex.explain(&step).unwrap() {
            assert_eq!(
                e.measure,
                fedex::core::InterestingnessKind::Diversity,
                "query {}",
                spec.id
            );
        }
    }
}

#[test]
fn skyline_explanations_are_mutually_non_dominated() {
    let wb = workbench();
    let fedex = Fedex::new();
    for spec in QUERIES
        .iter()
        .filter(|q| q.dataset == fedex::data::Dataset::Spotify)
    {
        let step = run_query(spec, &wb.catalog).unwrap();
        let ex = fedex.explain(&step).unwrap();
        for a in &ex {
            for b in &ex {
                let dominated = b.interestingness > a.interestingness
                    && b.std_contribution > a.std_contribution;
                assert!(
                    !dominated,
                    "query {}: ({}, {}) dominated by ({}, {})",
                    spec.id, a.column, a.set_label, b.column, b.set_label
                );
            }
        }
    }
}

#[test]
fn nested_query_12_explains_inner_output() {
    let wb = workbench();
    let spec = fedex::data::query_by_id(12).unwrap();
    let step = run_query(spec, &wb.catalog).unwrap();
    // The step's input is the *attrited customers* dataframe, not the full
    // Bank table.
    assert!(step.inputs[0].n_rows() < wb.bank.n_rows());
    assert!(step.output.n_rows() <= step.inputs[0].n_rows());
}
