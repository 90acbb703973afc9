//! Differential trace replay against this crate's server: the same
//! seed, compiled to the same trace, replayed twice against two fresh
//! servers, must produce **byte-identical** explain payloads — and each
//! run must pass the gate (typed failures only, conserved Prometheus
//! and scheduler counters, all four provenance kinds answered, drained
//! queues, a control probe that got answers).
//!
//! This is the machine-checkable form of the determinism claim the
//! goldens make for single queries, extended to full multi-client
//! workloads over the wire. A faulted trace (injected panics, torn and
//! abandoned writes, clients that hang up) must pass the same gate.

use fedex_bench::workload::{
    gate, replay, report_json, BaseDataset, ClientBehavior, DatasetSpec, DatasetStep, QueryMix,
    ReplayConfig, TraceOp, WorkloadSpec,
};
use fedex_serve::Json;

/// The gate's violations minus its one wall-clock bound, the control
/// probe's 10 ms p99. CPU steal on a shared host breaks that bound by
/// itself (single pings stall for tens to hundreds of ms), so the
/// release CI replays enforce it, not `cargo test`; the tests require
/// the probe to have been answered instead.
fn untimed(violations: Vec<String>) -> Vec<String> {
    violations
        .into_iter()
        .filter(|v| !v.starts_with("control p99"))
        .collect()
}

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

    let runs = [
        replay(&trace, &cfg).expect("first replay"),
        replay(&trace, &cfg).expect("second replay"),
    ];

    // Each run's own checks, plus the determinism check: every op both
    // runs answered must carry an identical canonical payload.
    let violations = untimed(gate(&trace, &runs));
    assert!(violations.is_empty(), "gate: {violations:?}");
    let [run1, run2] = &runs;
    assert!(!run1.ping_us.is_empty() && !run2.ping_us.is_empty());

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
    let report = report_json(&trace, run1, &violations);
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
    assert!(!run.ping_us.is_empty(), "the control probe got no answer");
    let violations = untimed(gate(&b, &[run]));
    assert!(violations.is_empty(), "gate: {violations:?}");
}

/// The `chaos` preset in miniature: a small table, two clients 20 ms
/// apart and a third that hangs up on every request, under a plan that
/// panics a fifth of the explains and tears or drops some replies. The
/// in-process server must stay live by every untimed gate check, and each
/// `internal_error` incident a client saw must resolve through
/// `debug_dump`.
#[test]
fn a_faulted_replay_passes_the_gate() {
    let mut spec = small_spec(31);
    spec.datasets.truncate(1);
    spec.mix = QueryMix {
        filter: 1,
        group_by: 1,
        join: 0,
        union_: 0,
    };
    spec.behavior.clients = 3;
    spec.behavior.queries_per_client = 20;
    (spec.behavior.think_ms_min, spec.behavior.think_ms_max) = (20, 20);
    spec.behavior.retries = 0;
    let mut trace = spec.compile().expect("spec compiles");
    for op in &mut trace.ops {
        if let TraceOp::Explain {
            client, hang_up, ..
        } = op
        {
            *hang_up = *client == 2;
        }
    }
    trace.header.faults = Some("seed=3,panic=0.2,disconnect=0.05,torn=0.05,delay_ms=1".into());
    let cfg = ReplayConfig {
        addr: None,
        workers: 1,
        speed: 1.0,
    };
    let run = replay(&trace, &cfg).expect("faulted replay");
    assert!(!run.ping_us.is_empty(), "the control probe got no answer");
    let violations = untimed(gate(&trace, std::slice::from_ref(&run)));
    assert!(violations.is_empty(), "gate: {violations:?}");
    let panics = run
        .metrics
        .get("server")
        .and_then(|s| s.get("panics"))
        .and_then(Json::as_usize);
    assert!(
        panics.is_some_and(|p| p > 0),
        "no injected panic: {panics:?}"
    );
    assert!(run.incidents > 0, "no client saw an internal_error");
    assert!(run.unresolved_incidents.is_empty());
    assert_eq!(run.results.len(), 40, "hang-up explains have no result");

    let over_tcp = ReplayConfig {
        addr: Some("127.0.0.1:9".into()),
        ..cfg
    };
    let err = replay(&trace, &over_tcp).expect_err("a fault plan needs the in-process server");
    assert!(err.contains("--addr"), "{err}");
}
