//! Differential trace replay against this crate's server: the same
//! seed, compiled to the same trace, replayed twice against two fresh
//! servers, must produce **byte-identical** explain payloads — and each
//! run must pass the frontier gate (typed failures only, conserved
//! Prometheus counters, all four provenance kinds answered).
//!
//! This is the machine-checkable form of the determinism claim the
//! goldens make for single queries, extended to full multi-client
//! workloads over the wire.

use fedex_bench::workload::{
    differential_violations, frontier_violations, replay, report_json, BaseDataset, ClientBehavior,
    DatasetSpec, DatasetStep, QueryMix, ReplayConfig, WorkloadSpec,
};
use fedex_serve::Json;

/// A small four-kind workload: every provenance kind, a derived inline
/// table, two clients — sized for a debug-profile CI run.
fn small_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: "replay-test".into(),
        seed,
        datasets: vec![
            DatasetSpec {
                table: "spotify".into(),
                base: BaseDataset::Spotify,
                rows: 300,
                product_rows: None,
                steps: vec![],
            },
            DatasetSpec {
                table: "products".into(),
                base: BaseDataset::Products,
                rows: 80,
                product_rows: None,
                steps: vec![],
            },
            DatasetSpec {
                table: "sales".into(),
                base: BaseDataset::Sales,
                rows: 500,
                product_rows: Some(80),
                steps: vec![],
            },
            DatasetSpec {
                table: "spotify_cut".into(),
                base: BaseDataset::Spotify,
                rows: 300,
                product_rows: None,
                steps: vec![
                    DatasetStep::Sample { keep_pct: 80 },
                    DatasetStep::FilterGt {
                        column: "popularity".into(),
                        min: 20.0,
                    },
                    DatasetStep::Mutate {
                        column: "tempo_norm".into(),
                        source: "tempo".into(),
                        scale: 0.01,
                        offset: 0.0,
                    },
                    DatasetStep::Chunk { index: 0, of: 2 },
                ],
            },
        ],
        mix: QueryMix {
            filter: 3,
            group_by: 2,
            join: 1,
            union_: 1,
        },
        behavior: ClientBehavior {
            clients: 2,
            queries_per_client: 6,
            think_ms_min: 0,
            think_ms_max: 3,
            deadline_ms: Some(60_000),
            retries: 2,
            zipf_s: 0.7,
        },
    }
}

#[test]
fn same_seed_replays_are_response_identical() {
    let trace = small_spec(23).compile().expect("spec compiles");
    let cfg = ReplayConfig {
        addr: None,
        workers: 2,
        speed: 0.0, // no think-time sleeps in CI
    };

    let run1 = replay(&trace, &cfg).expect("first replay");
    let run2 = replay(&trace, &cfg).expect("second replay");

    let gate1 = frontier_violations(&run1, &trace);
    let gate2 = frontier_violations(&run2, &trace);
    assert!(gate1.is_empty(), "run 1 frontier gate: {gate1:?}");
    assert!(gate2.is_empty(), "run 2 frontier gate: {gate2:?}");

    // The determinism gate: every op both runs answered must carry an
    // identical canonical payload.
    let diff = differential_violations(&run1, &run2);
    assert!(diff.is_empty(), "differential gate: {diff:?}");

    // Stronger, since both runs were healthy: every explain succeeded
    // and the payload comparison was exhaustive, byte for byte.
    assert_eq!(run1.results.len(), 12);
    assert_eq!(run2.results.len(), 12);
    for (a, b) in run1.results.iter().zip(&run2.results) {
        assert_eq!(a.id, b.id);
        assert!(a.ok, "op {} failed in run 1: {:?}", a.id, a.code);
        assert_eq!(
            a.payload, b.payload,
            "op {} ({}) payload diverged between same-seed runs",
            a.id, a.kind
        );
    }

    // All four provenance kinds produced a successful explain.
    for kind in ["filter", "group_by", "join", "union"] {
        assert!(
            run1.results.iter().any(|r| r.kind == kind && r.ok),
            "no successful {kind} explain"
        );
    }

    // The report artifact is well-formed and records the pass.
    let report = report_json(&trace, &run1, &gate1);
    assert_eq!(report.get("gate"), Some(&Json::Bool(true)));
    assert_eq!(
        report.get("explains").and_then(Json::as_usize),
        Some(12),
        "report explain count"
    );
    assert!(
        report
            .get("per_kind")
            .and_then(Json::as_arr)
            .is_some_and(|k| k.len() == 4),
        "report covers four kinds"
    );
}

#[test]
fn different_seeds_produce_different_traces_but_both_pass() {
    let a = small_spec(5).compile().unwrap();
    let b = small_spec(6).compile().unwrap();
    assert_ne!(a.to_ndjson(), b.to_ndjson(), "seeds must matter");

    // A different seed still replays clean — the gate is about
    // invariants, not one blessed seed.
    let cfg = ReplayConfig {
        addr: None,
        workers: 1,
        speed: 0.0,
    };
    let run = replay(&b, &cfg).expect("replay");
    let gate = frontier_violations(&run, &b);
    assert!(gate.is_empty(), "frontier gate: {gate:?}");
}
