//! Integration tests for the §3.8 extension points: user-specified
//! columns, custom partitions, and custom interestingness measures.

use fedex::core::{
    Compactness, CustomMeasure, Fedex, FedexConfig, PartitionKind, RowPartition, SetMeta,
    Surprisingness, IGNORE,
};
use fedex::data::{build_workbench, DatasetScale};
use fedex::query::{parse_query, ExploratoryStep};

fn workbench() -> fedex::data::Workbench {
    build_workbench(&DatasetScale {
        spotify_rows: 5_000,
        bank_rows: 500,
        product_rows: 100,
        sales_rows: 1_000,
        store_rows: 50,
        seed: 31,
    })
}

fn filter_step(wb: &fedex::data::Workbench) -> ExploratoryStep {
    parse_query("SELECT * FROM spotify WHERE popularity > 65;")
        .unwrap()
        .to_step(&wb.catalog)
        .unwrap()
}

/// §3.8 "custom partitioning of rows": a user-defined half-century
/// partition of the year column participates alongside the mined ones.
#[test]
fn custom_partition_participates() {
    let wb = workbench();
    let step = filter_step(&wb);
    let years = step.inputs[0].column("year").unwrap();

    // Half-century partition: 1920–1969 / 1970–2023.
    let mut assignment = Vec::with_capacity(years.len());
    let mut old = 0usize;
    let mut new = 0usize;
    for v in years.iter() {
        let y = v.as_i64().unwrap();
        if y < 1970 {
            assignment.push(0u32);
            old += 1;
        } else {
            assignment.push(1u32);
            new += 1;
        }
    }
    let custom = RowPartition::new(
        0,
        "year",
        PartitionKind::Frequency,
        vec![
            SetMeta {
                label: "pre-1970".to_string(),
                size: old,
            },
            SetMeta {
                label: "1970-onwards".to_string(),
                size: new,
            },
        ],
        assignment,
        0,
    );
    custom.validate().unwrap();

    let fedex = Fedex::new();
    let with = fedex.explain_with_partitions(&step, vec![custom]).unwrap();
    // The popular set is dominated by post-1970 songs (all 2010s), so the
    // custom '1970-onwards' set should surface as an explanation for some
    // column.
    assert!(
        with.iter()
            .any(|e| e.set_label == "1970-onwards" || e.set_label == "pre-1970"),
        "custom sets absent: {:?}",
        with.iter()
            .map(|e| (&e.column, &e.set_label))
            .collect::<Vec<_>>()
    );
}

/// Invalid custom partitions are rejected, not silently used.
#[test]
fn invalid_custom_partition_rejected() {
    let wb = workbench();
    let step = filter_step(&wb);
    // Wrong length assignment.
    let bad = RowPartition::new(
        0,
        "year",
        PartitionKind::Frequency,
        vec![SetMeta {
            label: "x".to_string(),
            size: 1,
        }],
        vec![0u32],
        0,
    );
    assert!(Fedex::new()
        .explain_with_partitions(&step, vec![bad])
        .is_err());

    // Inconsistent sizes.
    let bad = RowPartition::new(
        0,
        "year",
        PartitionKind::Frequency,
        vec![SetMeta {
            label: "x".to_string(),
            size: 99,
        }],
        vec![IGNORE; step.inputs[0].n_rows()],
        step.inputs[0].n_rows(),
    );
    assert!(Fedex::new()
        .explain_with_partitions(&step, vec![bad])
        .is_err());
}

/// §3.8 "general interestingness functions": the surprisingness measure
/// drives the whole pipeline through the Def. 3.3 re-run path.
#[test]
fn custom_measure_end_to_end() {
    let wb = workbench();
    let step = filter_step(&wb);
    let fedex = Fedex::with_config(FedexConfig {
        top_k_columns: 2,
        set_counts: vec![5],
        top_k_explanations: Some(3),
        ..Default::default()
    });
    let ex = fedex.explain_with_measure(&step, &Surprisingness).unwrap();
    assert!(!ex.is_empty());
    for e in &ex {
        assert!(e.contribution > 0.0);
        assert!(!e.caption.is_empty());
    }
}

/// Compactness applies to group-by outputs.
#[test]
fn compactness_measure_on_group_by() {
    let wb = workbench();
    let step = parse_query("SELECT count FROM spotify GROUP BY genre;")
        .unwrap()
        .to_step(&wb.catalog)
        .unwrap();
    // Genres are zipf-distributed → the count column is concentrated.
    let score = Compactness.score(&step, "count").unwrap().unwrap();
    assert!(score > 0.05, "compactness {score}");
    let ex = Fedex::with_config(FedexConfig {
        set_counts: vec![5],
        top_k_columns: 1,
        top_k_explanations: Some(2),
        ..Default::default()
    })
    .explain_with_measure(&step, &Compactness)
    .unwrap();
    // Removing the dominant genre reduces concentration → it explains.
    assert!(!ex.is_empty());
}

/// User-specified columns still compose with custom partitions.
#[test]
fn target_columns_compose_with_custom_partitions() {
    let wb = workbench();
    let step = filter_step(&wb);
    let fedex = Fedex::with_config(FedexConfig {
        target_columns: Some(vec!["loudness".to_string()]),
        ..Default::default()
    });
    let ex = fedex.explain_with_partitions(&step, vec![]).unwrap();
    assert!(ex.iter().all(|e| e.column == "loudness"));
}

/// A custom measure that is infinite on some reduced steps leaves every
/// standardized contribution of that unit non-finite. No skyline
/// comparison orders such a pair, so it is never an explanation, while
/// the finite column still explains.
#[test]
fn non_finite_contributions_never_explain() {
    /// The kept share of input rows; for `year`, infinite once an
    /// even-sized set was removed.
    struct Spiky {
        full: usize,
    }
    impl CustomMeasure for Spiky {
        fn name(&self) -> &str {
            "spiky"
        }
        fn score(&self, step: &ExploratoryStep, column: &str) -> fedex::core::Result<Option<f64>> {
            let n = step.inputs[0].n_rows();
            Ok(Some(match column {
                "year" if n != self.full && n.is_multiple_of(2) => f64::INFINITY,
                _ => n as f64 / self.full as f64,
            }))
        }
    }
    let wb = workbench();
    let step = filter_step(&wb);
    let measure = Spiky {
        full: step.inputs[0].n_rows(),
    };
    let ex = Fedex::with_config(FedexConfig {
        target_columns: Some(vec!["loudness".to_string(), "year".to_string()]),
        set_counts: vec![5],
        ..Default::default()
    })
    .explain_with_measure(&step, &measure)
    .unwrap();
    assert!(ex.iter().any(|e| e.column == "loudness"));
    for e in &ex {
        assert!(
            e.std_contribution.is_finite(),
            "{} / {}",
            e.column,
            e.set_label
        );
    }
}
