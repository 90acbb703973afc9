//! In-memory spans recorded by the benchmark around each public call it
//! makes into a layer, written out as NDJSON when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

use crate::library::Kind;
use crate::stats::ratio;

/// One timed call: which op it belongs to, the layer call it names, and
/// the span that caused it (`""` for an op's root span).
#[derive(Debug, Clone)]
pub struct Span {
    pub op: usize,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Span and counter store for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: usize,
    spans: Vec<Span>,
    counts: BTreeMap<String, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Start a new request: the following spans share its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, start.elapsed());
        out
    }

    /// Record a span measured elsewhere (e.g. a server-side stage time
    /// read from a response), anchored at `start`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        dur: Duration,
    ) {
        self.spans.push(Span {
            op: self.op,
            name,
            parent,
            start_us: start.saturating_duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
    }

    /// Add `v` to counter `name`.
    pub fn add(&mut self, name: impl Into<String>, v: f64) {
        *self.counts.entry(name.into()).or_insert(0.0) += v;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Count one artifact-cache consultation reported by ScoreColumns;
    /// true for an input frame that missed.
    pub fn cache_event(&mut self, artifact: &str, hit: bool) -> bool {
        let class = if artifact.starts_with("frame") {
            "frame"
        } else {
            "kernel"
        };
        self.add(format!("cache.{class}_events"), 1.0);
        self.add(format!("cache.{class}_hits"), f64::from(u8::from(hit)));
        class == "frame" && !hit
    }

    /// Close one traced explain of `kind`: its stage time, the wall time
    /// no layer span covers, and whether every input frame was cached.
    pub fn explained(
        &mut self,
        kind: Kind,
        stage_ms: f64,
        unattributed_ms: f64,
        inputs_cached: bool,
    ) {
        self.add(format!("kind.{}.ms", kind.name()), stage_ms);
        self.add(format!("kind.{}.n", kind.name()), 1.0);
        self.add("trace.unattributed_ms", unattributed_ms);
        self.add("workload.cached_inputs", f64::from(u8::from(inputs_cached)));
    }

    /// Move `other`'s spans and counters into this store.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.op;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.op += offset;
            s.start_us += other
                .origin
                .saturating_duration_since(self.origin)
                .as_secs_f64()
                * 1e6;
            s
        }));
        for (name, v) in other.counts {
            self.add(name, v);
        }
        self.op += other.op;
    }

    /// The per-layer values spans and counters give: stage times per
    /// explain (one root `request` span each), fingerprint time per
    /// register, totals of the counts, and per-kind stage times.
    pub fn layer_values(&self) -> BTreeMap<&'static str, f64> {
        let n = self.spans_named("request") as f64;
        let registers = self.spans_named("frame.fingerprint") as f64;
        let per_explain = |span: &str| ratio(self.total_ms(span), n);
        let hit_ratio = |class: &str| {
            ratio(
                self.count(&format!("cache.{class}_hits")),
                self.count(&format!("cache.{class}_events")),
            )
        };
        let per_kind = |kind: Kind| {
            ratio(
                self.count(&format!("kind.{}.ms", kind.name())),
                self.count(&format!("kind.{}.n", kind.name())),
            )
        };
        BTreeMap::from([
            (
                "frame.fingerprint_ms",
                ratio(self.total_ms("frame.fingerprint"), registers),
            ),
            ("query.parse_ms", per_explain("query.parse")),
            ("query.step_ms", per_explain("query.step")),
            ("core.score_columns_ms", per_explain("core.score_columns")),
            ("core.partition_rows_ms", per_explain("core.partition_rows")),
            ("core.contribute_ms", per_explain("core.contribute")),
            ("core.skyline_ms", per_explain("core.skyline")),
            ("core.present_ms", per_explain("core.present")),
            ("core.explain_ms.filter", per_kind(Kind::Filter)),
            ("core.explain_ms.group_by", per_kind(Kind::GroupBy)),
            ("core.explain_ms.join", per_kind(Kind::Join)),
            ("core.explain_ms.union", per_kind(Kind::Union)),
            ("core.partitions", self.count("core.partitions")),
            ("core.candidates", self.count("core.candidates")),
            ("core.explanations", self.count("core.explanations")),
            ("render.json_ms", per_explain("render.json")),
            ("render.text_ms", per_explain("render.text")),
            ("cache.frame_hit_ratio", hit_ratio("frame")),
            ("cache.kernel_hit_ratio", hit_ratio("kernel")),
            (
                "trace.unattributed_ms",
                ratio(self.count("trace.unattributed_ms"), n),
            ),
            (
                "workload.cached_input_share",
                ratio(self.count("workload.cached_inputs"), n),
            ),
            ("workload.explains", n),
            ("workload.registers", registers),
        ])
    }

    /// Number of spans named `name`.
    pub fn spans_named(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e3
    }

    /// Total duration, in ms, of the current op's spans that `keep`
    /// selects.
    pub fn op_ms(&self, keep: impl Fn(&Span) -> bool) -> f64 {
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.op == self.op)
            .filter(|s| keep(s))
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e3
    }

    /// Write the spans to `traces/<workload>-seed<seed>.ndjson` in this
    /// package's directory; a failed write is reported, not fatal.
    pub fn write_for(&self, args: &crate::Args) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.ndjson", args.workload, args.seed));
        if let Err(e) = self.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    /// Write every span as one JSON line to `path`, then the counters.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}}}",
                s.op, s.name, s.parent, s.start_us, s.dur_us
            )?;
        }
        for (name, v) in &self.counts {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{v}}}")?;
        }
        out.flush()
    }
}
