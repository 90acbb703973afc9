//! Property tests for the workload DSL and trace format:
//!
//! 1. every compiled trace is schema-valid (its own strict parser
//!    accepts it) and **invariant under re-parse** — serialize → parse
//!    → serialize is byte-identical;
//! 2. when every provenance kind carries positive weight and the spec
//!    schedules at least four queries, the trace covers all four kinds
//!    — by construction, for every seed;
//! 3. forward compatibility is typed: unknown op kinds, unknown header
//!    fields, unknown op fields, and future versions are
//!    [`WorkloadError`]s, never panics and never silent acceptance —
//!    with and without the optional `faults` header spec and `hang_up`
//!    explain flag, which are themselves checked.

use fedex_bench::workload::{
    preset, BaseDataset, ClientBehavior, DatasetSpec, DatasetStep, QueryMix, Trace, TraceOp,
    WorkloadError, WorkloadSpec,
};
use proptest::prelude::*;

/// A spec over the generated knobs. Always includes a products+sales
/// pair so every mix (join included) is compilable, plus a derived
/// spotify table when `derived` is set, to keep inline uploads covered.
fn spec(
    seed: u64,
    clients: u32,
    qpc: u32,
    mix: QueryMix,
    zipf_centi: u32,
    derived: bool,
) -> WorkloadSpec {
    let mut datasets = vec![
        DatasetSpec {
            table: "spotify".into(),
            base: BaseDataset::Spotify,
            rows: 160,
            product_rows: None,
            steps: vec![],
        },
        DatasetSpec {
            table: "products".into(),
            base: BaseDataset::Products,
            rows: 60,
            product_rows: None,
            steps: vec![],
        },
        DatasetSpec {
            table: "sales".into(),
            base: BaseDataset::Sales,
            rows: 200,
            product_rows: Some(60),
            steps: vec![],
        },
    ];
    if derived {
        datasets.push(DatasetSpec {
            table: "spotify_cut".into(),
            base: BaseDataset::Spotify,
            rows: 200,
            product_rows: None,
            steps: vec![
                DatasetStep::Sample { keep_pct: 70 },
                DatasetStep::FilterGt {
                    column: "popularity".into(),
                    min: 10.0,
                },
                DatasetStep::Mutate {
                    column: "tempo_2x".into(),
                    source: "tempo".into(),
                    scale: 2.0,
                    offset: 0.0,
                },
                DatasetStep::Chunk { index: 0, of: 2 },
            ],
        });
    }
    WorkloadSpec {
        name: "prop".into(),
        seed,
        datasets,
        mix,
        behavior: ClientBehavior {
            clients,
            queries_per_client: qpc,
            think_ms_min: 0,
            think_ms_max: 4,
            deadline_ms: if seed.is_multiple_of(2) {
                Some(20_000)
            } else {
                None
            },
            retries: (seed % 3) as u32,
            zipf_s: zipf_centi as f64 / 100.0,
        },
    }
}

/// Give `trace` a fault plan (`panic_pct` > 0) and make every
/// `hang_every`-th op's explain hang up (`hang_every` > 0).
fn with_faults(mut trace: Trace, panic_pct: u32, hang_every: u64) -> Trace {
    if panic_pct > 0 {
        trace.header.faults = Some(format!(
            "seed={},panic={},torn=0.05",
            trace.header.seed,
            f64::from(panic_pct) / 100.0
        ));
    }
    for op in &mut trace.ops {
        if let TraceOp::Explain { id, hang_up, .. } = op {
            *hang_up = hang_every > 0 && *id % hang_every == 0;
        }
    }
    trace
}

fn mix_strategy() -> impl Strategy<Value = QueryMix> {
    (0u32..4, 0u32..4, 0u32..4, 0u32..4).prop_map(|(f, g, j, u)| {
        if f + g + j + u == 0 {
            QueryMix {
                filter: 1,
                group_by: g,
                join: j,
                union_: u,
            }
        } else {
            QueryMix {
                filter: f,
                group_by: g,
                join: j,
                union_: u,
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Schema validity + re-parse invariance, across seeds and knobs.
    #[test]
    fn traces_are_schema_valid_and_reparse_invariant(
        seed in 0u64..10_000,
        clients in 1u32..4,
        qpc in 1u32..7,
        mix in mix_strategy(),
        zipf_centi in 0u32..200,
        derived_bit in 0u32..2,
        panic_pct in 0u32..3,
        hang_every in 0u64..3,
    ) {
        let derived = derived_bit == 1;
        let compile = |seed| {
            let trace = spec(seed, clients, qpc, mix, zipf_centi, derived)
                .compile()
                .expect("compilable spec");
            with_faults(trace, panic_pct, hang_every)
        };
        let trace = compile(seed);
        let text = trace.to_ndjson();
        let parsed = Trace::parse(&text).expect("own output parses");
        prop_assert_eq!(&parsed, &trace);
        prop_assert_eq!(parsed.to_ndjson(), text.clone());
        // The optional keys are written exactly when set.
        prop_assert_eq!(text.contains("\"faults\""), panic_pct > 0);
        prop_assert_eq!(text.contains("\"hang_up\""), hang_every > 0);
        // Same spec, same bytes; different seed, different bytes.
        prop_assert_eq!(compile(seed).to_ndjson(), text.clone());
        prop_assert_ne!(compile(seed + 1).to_ndjson(), text);
        // The chaos preset (fault plan, deadlines, hang-ups) round-trips
        // byte for byte too.
        let chaos = preset("chaos", seed).expect("chaos preset compiles");
        let chaos_text = chaos.to_ndjson();
        let reparsed = Trace::parse(&chaos_text).expect("chaos trace parses");
        prop_assert_eq!(&reparsed, &chaos);
        prop_assert_eq!(reparsed.to_ndjson(), chaos_text);
    }

    /// All-positive mixes with ≥4 scheduled queries cover all four
    /// provenance kinds, for every seed — a structural guarantee.
    #[test]
    fn positive_mixes_cover_all_four_kinds(
        seed in 0u64..10_000,
        clients in 1u32..4,
        extra in 0u32..5,
        f in 1u32..4, g in 1u32..4, j in 1u32..4, u in 1u32..4,
    ) {
        let clients = clients.max(1);
        // Enough total queries for the coverage prefix.
        let qpc = (4 + extra).div_ceil(clients).max(1) + 3;
        let mix = QueryMix { filter: f, group_by: g, join: j, union_: u };
        let trace = spec(seed, clients, qpc, mix, 80, false).compile().unwrap();
        let mut kinds: Vec<&str> = trace
            .ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Explain { kind, .. } => Some(kind.as_str()),
                _ => None,
            })
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        prop_assert_eq!(kinds, vec!["filter", "group_by", "join", "union"]);
    }

    /// Fuzzed junk never panics the parser: any mutation of a valid
    /// trace either parses or fails with a typed error.
    #[test]
    fn parser_is_panic_free_on_mutations(
        seed in 0u64..1_000,
        cut in 0usize..400,
        junk in "[ -~]{0,40}",
    ) {
        let mix = QueryMix { filter: 1, group_by: 1, join: 1, union_: 1 };
        let trace = spec(seed, 1, 4, mix, 50, false).compile().unwrap();
        let text = with_faults(trace, (seed % 3) as u32, seed % 3).to_ndjson();
        let mut cut = cut.min(text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let mutated = format!("{}{}{}", &text[..cut], junk, &text[cut..]);
        let _ = Trace::parse(&mutated); // Result either way; must not panic.
    }
}

// ------------------------------------------------------------------
// Forward compatibility: the strict-reject behaviors, pinned exactly.
// ------------------------------------------------------------------

/// A valid trace, plain or faulted (a fault plan in the header and
/// `hang_up` on every explain).
fn valid_trace_text(faulted: bool) -> String {
    let mix = QueryMix {
        filter: 1,
        group_by: 1,
        join: 1,
        union_: 1,
    };
    let trace = spec(7, 2, 4, mix, 50, false).compile().unwrap();
    if faulted {
        with_faults(trace, 10, 1).to_ndjson()
    } else {
        trace.to_ndjson()
    }
}

#[test]
fn future_versions_are_rejected_with_a_typed_error() {
    for faulted in [false, true] {
        let text = valid_trace_text(faulted).replace("\"version\":1", "\"version\":2");
        assert_eq!(
            Trace::parse(&text),
            Err(WorkloadError::UnsupportedVersion { found: 2 })
        );
    }
}

#[test]
fn unknown_header_fields_are_rejected_not_ignored() {
    for faulted in [false, true] {
        let text = valid_trace_text(faulted).replacen(
            "\"clients\":2",
            "\"clients\":2,\"compression\":\"zstd\"",
            1,
        );
        assert_eq!(
            Trace::parse(&text),
            Err(WorkloadError::UnknownHeaderField {
                field: "compression".into()
            })
        );
    }
    // A fault spec the fault parser rejects is rejected with the trace.
    let text = valid_trace_text(true).replacen("panic=0.1", "panic=1.5", 1);
    assert!(
        matches!(Trace::parse(&text), Err(WorkloadError::Malformed(ref why)) if why.contains("faults")),
        "{:?}",
        Trace::parse(&text)
    );
}

#[test]
fn unknown_op_kinds_are_rejected_not_skipped() {
    for faulted in [false, true] {
        let text = format!(
            "{}\n{{\"op\":\"think_only\",\"id\":99}}\n",
            valid_trace_text(faulted).trim_end()
        );
        assert_eq!(
            Trace::parse(&text),
            Err(WorkloadError::UnknownOpKind {
                kind: "think_only".into()
            })
        );
    }
}

/// The lines of a valid trace and the index of its first explain op.
fn explain_line(faulted: bool) -> (Vec<String>, usize) {
    let lines: Vec<String> = valid_trace_text(faulted)
        .lines()
        .map(str::to_string)
        .collect();
    let idx = lines
        .iter()
        .position(|l| l.contains("\"op\":\"explain\""))
        .expect("an explain op");
    (lines, idx)
}

#[test]
fn unknown_op_fields_are_rejected_not_dropped() {
    // Mutate an *op line*, not the header (whose opaque generator echo
    // legitimately contains a "retries" key too). On the faulted trace
    // the line also carries `hang_up`, which is known.
    for faulted in [false, true] {
        let (mut lines, idx) = explain_line(faulted);
        assert_eq!(lines[idx].contains("\"hang_up\":true"), faulted);
        lines[idx] = lines[idx].replacen("\"retries\":", "\"priority\":9,\"retries\":", 1);
        assert_eq!(
            Trace::parse(&lines.join("\n")),
            Err(WorkloadError::UnknownOpField {
                op: "explain".into(),
                field: "priority".into()
            })
        );
    }
}

#[test]
fn missing_required_fields_are_typed() {
    // Strip the sql field (value is a quoted string with no embedded
    // escapes in this fixture-free approach — rebuild the line instead).
    for (faulted, extra) in [(false, ""), (true, r#","hang_up":true"#)] {
        let (mut lines, idx) = explain_line(faulted);
        lines[idx] = format!(
            r#"{{"op":"explain","id":4,"client":0,"session":"prop","kind":"filter","think_ms":1,"retries":0{extra}}}"#
        );
        assert_eq!(
            Trace::parse(&lines.join("\n")),
            Err(WorkloadError::MissingField {
                op: "explain".into(),
                field: "sql".into()
            })
        );
    }
    // A `hang_up` that is not a bool is typed as that field.
    let (mut lines, idx) = explain_line(true);
    lines[idx] = lines[idx].replacen("\"hang_up\":true", "\"hang_up\":1", 1);
    assert_eq!(
        Trace::parse(&lines.join("\n")),
        Err(WorkloadError::MissingField {
            op: "explain".into(),
            field: "hang_up".into()
        })
    );
}

#[test]
fn errors_render_a_useful_message() {
    let e = WorkloadError::UnknownOpKind {
        kind: "teleport".into(),
    };
    assert!(e.to_string().contains("teleport"));
    let e = WorkloadError::UnsupportedVersion { found: 9 };
    assert!(e.to_string().contains('9') && e.to_string().contains('1'));
}
