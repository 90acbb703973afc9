//! The library request path — `parse_query` → `to_step` → explain →
//! render — run either as a user calls it or traced stage by stage.

use std::hint::black_box;
use std::time::Instant;

use fedex_core::pipeline::{
    Contribute, Contributor, PartitionRows, Present, ScoreColumns, Skyline,
};
use fedex_core::{render_all, to_json_array, ExecutionMode, Fedex, PipelineContext, Stage};
use fedex_frame::DataFrame;
use fedex_query::{parse_query, Catalog};

use crate::tracer::Tracer;

/// The four provenance kinds of an exploratory step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Filter,
    GroupBy,
    Join,
    Union,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Filter, Kind::GroupBy, Kind::Join, Kind::Union];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Filter => "filter",
            Kind::GroupBy => "group_by",
            Kind::Join => "join",
            Kind::Union => "union",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One explain request of a sequence.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub sql: String,
}

/// Terminal width explanations are rendered at.
const WIDTH: usize = 80;

/// One explain as a library user runs it. Returns the explanations'
/// canonical JSON (no timing fields) and the step's output.
pub fn explain(fedex: &Fedex, catalog: &Catalog, sql: &str) -> Result<(String, DataFrame), String> {
    let step = parse_query(sql)
        .and_then(|q| q.to_step(catalog))
        .map_err(|e| e.to_string())?;
    let explanations = fedex.explain(&step).map_err(|e| e.to_string())?;
    let json = to_json_array(&explanations);
    black_box(render_all(&explanations, WIDTH));
    Ok((json, step.output))
}

/// Per-request result of [`explain_traced`].
pub struct Traced {
    pub json: String,
    pub output: DataFrame,
    /// Sum of the five stage spans.
    pub stage_ms: f64,
    /// Request wall time not covered by any layer span.
    pub unattributed_ms: f64,
    /// Whether every input frame came from the artifact cache.
    pub inputs_cached: bool,
}

/// [`explain`] with a span around every layer call. The benchmark drives
/// the five stages itself, exactly as `ExplainPipeline` wires them.
pub fn explain_traced(
    fedex: &Fedex,
    catalog: &Catalog,
    sql: &str,
    tr: &mut Tracer,
) -> Result<Traced, String> {
    const ROOT: &str = "request";
    tr.begin_op();
    let start = Instant::now();
    let parsed = tr
        .span("query.parse", ROOT, || parse_query(sql))
        .map_err(|e| e.to_string())?;
    let step = tr
        .span("query.step", ROOT, || parsed.to_step(catalog))
        .map_err(|e| e.to_string())?;
    let config = fedex.config();
    let ctx = PipelineContext::new(&step, config);
    let err = |e: fedex_core::ExplainError| e.to_string();

    let scored = tr
        .span("core.score_columns", ROOT, || {
            ScoreColumns::builtin().run(&ctx, ())
        })
        .map_err(err)?;
    let mut inputs_cached = true;
    for (artifact, hit) in &scored.cache_events {
        inputs_cached &= !tr.cache_event(artifact, *hit);
    }
    let explanations = if scored.top.is_empty() {
        Vec::new()
    } else {
        let partition = PartitionRows { extra: Vec::new() };
        let partitioned = tr
            .span("core.partition_rows", ROOT, || partition.run(&ctx, scored))
            .map_err(err)?;
        tr.add("core.partitions", partitioned.partitions.len() as f64);
        let contribute = Contribute {
            contributor: Contributor::Incremental,
        };
        let contributed = tr
            .span("core.contribute", ROOT, || {
                contribute.run(&ctx, partitioned)
            })
            .map_err(err)?;
        tr.add("core.candidates", contributed.candidates.len() as f64);
        if contributed.candidates.is_empty() {
            Vec::new()
        } else {
            let ranked = tr
                .span("core.skyline", ROOT, || Skyline.run(&ctx, contributed))
                .map_err(err)?;
            tr.span("core.present", ROOT, || Present.run(&ctx, ranked))
                .map_err(err)?
        }
    };
    tr.add("core.explanations", explanations.len() as f64);
    let stage_ms = tr.op_ms(|s| s.name.starts_with("core."));
    let json = tr.span("render.json", ROOT, || to_json_array(&explanations));
    black_box(tr.span("render.text", ROOT, || render_all(&explanations, WIDTH)));
    let wall = start.elapsed();
    tr.record(ROOT, "", start, wall);
    let unattributed_ms = wall.as_secs_f64() * 1e3 - tr.op_ms(|s| s.parent == ROOT);
    Ok(Traced {
        json,
        output: step.output,
        stage_ms,
        unattributed_ms,
        inputs_cached,
    })
}

/// Ingest one table: content fingerprint plus catalog registration (the
/// work `SessionManager::register` does). Returns the wall time in ms.
pub fn register(catalog: &mut Catalog, name: &str, df: DataFrame) -> f64 {
    let start = Instant::now();
    black_box(df.fingerprint());
    catalog.register(name, df);
    start.elapsed().as_secs_f64() * 1e3
}

/// [`register`] with spans around both calls.
pub fn register_traced(catalog: &mut Catalog, name: &str, df: DataFrame, tr: &mut Tracer) {
    tr.begin_op();
    let start = Instant::now();
    black_box(tr.span("frame.fingerprint", "register", || df.fingerprint()));
    tr.span("query.catalog_register", "register", || {
        catalog.register(name, df)
    });
    tr.record("register", "", start, start.elapsed());
}

/// The reference answer for `sql`: serial and without any artifact cache.
pub fn reference(catalog: &Catalog, sql: &str) -> Result<String, String> {
    explain(
        &Fedex::new().with_execution(ExecutionMode::Serial),
        catalog,
        sql,
    )
    .map(|(json, _)| json)
}
