//! Golden explanation fixtures.
//!
//! These tests pin the *byte-identical* output of the explanation engine:
//! every explanation field that feeds presentation — including the raw
//! `f64` bit patterns of the scores — is serialized to a stable text form
//! and compared against a fixture committed to the repository, together
//! with digests of each explanation's JSON and chart text. Any kernel or
//! writer refactor (e.g. the code-based histogram layer) must leave these
//! bytes unchanged.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_fixtures`
//! after an *intentional* output change, and review the diff.
//!
//! `FEDEX_GOLDEN_EXEC` selects the execution mode (`serial`, `parallel`,
//! or a thread count; default serial) *against the same fixture* — CI
//! runs the suite under 1, 2, and 4 threads to assert the pipeline's
//! bit-identical-across-schedules contract end to end.
//!
//! Every mode renders the fixtures twice: cold, and through one shared
//! artifact cache until every input's mined partitions come from it —
//! both must reproduce the same bytes.

use std::fmt::Write as _;
use std::sync::Arc;

use fedex::core::{ArtifactCache, ExecutionMode, Fedex};
use fedex::data::{build_workbench, DatasetScale, Workbench};
use fedex::prelude::Explanation;
use fedex::query::{parse_query, ExploratoryStep, Operation};

const FIXTURE: &str = "tests/fixtures/golden_explanations.txt";

fn workbench() -> Workbench {
    build_workbench(&DatasetScale {
        spotify_rows: 8_000,
        bank_rows: 500,
        product_rows: 100,
        sales_rows: 1_000,
        store_rows: 50,
        seed: 42,
    })
}

fn sql_step(wb: &Workbench, sql: &str) -> ExploratoryStep {
    parse_query(sql).unwrap().to_step(&wb.catalog).unwrap()
}

/// Serialize explanations with exact float bits, plus digests of their
/// JSON and 44-wide text rendering; one block per explanation.
fn render(tag: &str, explanations: &[Explanation]) -> String {
    let mut out = String::new();
    writeln!(out, "== {tag} ({} explanations)", explanations.len()).unwrap();
    for (i, e) in explanations.iter().enumerate() {
        writeln!(out, "-- [{i}] column={}", e.column).unwrap();
        writeln!(out, "   measure={}", e.measure.name()).unwrap();
        writeln!(out, "   set={} attr={}", e.set_label, e.partition_attr).unwrap();
        writeln!(out, "   kind={}", e.partition_kind.name()).unwrap();
        writeln!(out, "   input={} rows={}", e.input_idx, e.set_size).unwrap();
        writeln!(
            out,
            "   interestingness=0x{:016x}",
            e.interestingness.to_bits()
        )
        .unwrap();
        writeln!(out, "   contribution=0x{:016x}", e.contribution.to_bits()).unwrap();
        writeln!(out, "   std=0x{:016x}", e.std_contribution.to_bits()).unwrap();
        writeln!(out, "   score=0x{:016x}", e.score.to_bits()).unwrap();
        writeln!(out, "   caption={}", e.caption).unwrap();
        writeln!(out, "   json=0x{:016x}", fnv1a(&e.to_json())).unwrap();
        writeln!(out, "   text=0x{:016x}", fnv1a(&e.render_text(44))).unwrap();
    }
    out
}

/// 64-bit FNV-1a digest: pins the JSON and chart text byte for byte
/// without committing them to the fixture.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Execution mode under test: `FEDEX_GOLDEN_EXEC`, defaulting to serial.
/// Every mode must reproduce the same fixture bytes.
fn golden_exec() -> ExecutionMode {
    match std::env::var("FEDEX_GOLDEN_EXEC") {
        Ok(spec) => ExecutionMode::parse(&spec)
            .unwrap_or_else(|| panic!("bad FEDEX_GOLDEN_EXEC value: {spec:?}")),
        Err(_) => ExecutionMode::Serial,
    }
}

fn all_golden_output(wb: &Workbench, fedex: &Fedex) -> String {
    let mut out = String::new();

    for (tag, sql) in [
        (
            "filter/spotify",
            "SELECT * FROM spotify WHERE popularity > 65;",
        ),
        (
            "filter/bank",
            "SELECT * FROM Bank WHERE Attrition_Flag != 'Existing Customer';",
        ),
        (
            "groupby/spotify",
            "SELECT mean(loudness) FROM spotify GROUP BY year;",
        ),
        (
            "join/products-sales",
            "SELECT * FROM products INNER JOIN sales ON products.item = sales.item;",
        ),
    ] {
        let step = sql_step(wb, sql);
        let ex = fedex.explain(&step).unwrap();
        out.push_str(&render(tag, &ex));
    }

    // Union is not in the SQL subset; build the step directly.
    let head = wb.spotify.head(2_000);
    let union = ExploratoryStep::run(vec![head, wb.spotify.clone()], Operation::Union).unwrap();
    let ex = fedex.explain(&union).unwrap();
    out.push_str(&render("union/spotify-head", &ex));

    out
}

/// Panic at the first line where `got` diverges from the fixture.
fn assert_matches_fixture(got: &str, want: &str, pass: &str) {
    if got != want {
        // Show the first diverging line for a readable failure.
        for (ln, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{pass}: first divergence at fixture line {}", ln + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "{pass}: explanation output diverges from the golden fixture in length"
        );
        panic!("{pass}: explanation output diverges from the golden fixture");
    }
}

#[test]
fn explanations_match_golden_fixture() {
    let wb = workbench();
    let got = all_golden_output(&wb, &Fedex::new().with_execution(golden_exec()));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        std::fs::write(FIXTURE, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run UPDATE_GOLDEN=1 cargo test --test golden_fixtures");
    assert_matches_fixture(&got, &want, "cold");

    // Warm: mined partitions are admitted on an input's second sighting,
    // so by the third pass every input's partitions are cache hits.
    let cache = Arc::new(ArtifactCache::default());
    let warm = Fedex::new()
        .with_execution(golden_exec())
        .with_cache(cache.clone());
    for pass in 1..=3 {
        let got = all_golden_output(&wb, &warm);
        assert_matches_fixture(&got, &want, &format!("warm pass {pass}"));
    }
    let config = warm.config();
    for table in [&wb.spotify, &wb.bank] {
        assert!(
            cache
                .get_partitions(table.fingerprint(), &config.set_counts, config.seed)
                .is_some(),
            "the warm passes must have cached every input's partitions"
        );
    }
}
