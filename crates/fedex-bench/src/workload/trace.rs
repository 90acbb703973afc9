//! The trace file: a versioned, self-describing NDJSON format.
//!
//! Line 1 is the header; every following line is one operation:
//!
//! ```text
//! {"trace":"fedex-workload","version":1,"name":"smoke","seed":11,"clients":3,"generator":{…}}
//! {"op":"register_demo","id":0,"session":"smoke","table":"spotify","dataset":"spotify","rows":1200,"seed":11}
//! {"op":"register_inline","id":1,"session":"smoke","table":"hot","columns":[{"name":…,"type":…,"values":[…]}]}
//! {"op":"explain","id":2,"client":0,"session":"smoke","kind":"filter","sql":"SELECT …","think_ms":9,"retries":2,"deadline_ms":30000}
//! ```
//!
//! A faulted trace (the `chaos` preset) adds a header `faults` spec in
//! [`FaultPlan::parse`] syntax, and explains of clients that hang up
//! carry `"hang_up":true`. Both keys are written only when set, so a
//! trace without them keeps its bytes.
//!
//! Registration ops carry generator *parameters*, not data — the server
//! regenerates the table from `(dataset, rows, seed)`, which keeps
//! traces small and replay deterministic — except for tables derived by
//! DSL dataset steps, which ship inline in the exact `register` wire
//! shape. The parser is strict both ways: a field or op kind this
//! reader does not know is a typed [`WorkloadError`], because silently
//! ignoring a field a newer generator considered load-bearing would
//! replay a *different workload* under the same name.

use fedex_serve::json::{self, Json};
use fedex_serve::FaultPlan;

use super::WorkloadError;

/// Value of the header's `trace` field — the file magic.
pub const TRACE_MAGIC: &str = "fedex-workload";
/// The only schema version this reader writes or accepts.
pub const TRACE_VERSION: u64 = 1;

/// The self-describing first line of a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Workload name; also the session-name prefix.
    pub name: String,
    /// The seed the whole file was derived from.
    pub seed: u64,
    /// Simulated client count (explain ops carry `client < clients`).
    pub clients: u64,
    /// The generator config, echoed verbatim so a trace is reproducible
    /// from its own header (opaque to the replayer).
    pub generator: Json,
    /// Fault plan the replayer's in-process server runs the client
    /// phase under ([`FaultPlan::parse`] syntax); `None` = healthy.
    pub faults: Option<String>,
}

/// One line of the trace body.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// Server-side regeneration of a bundled dataset.
    RegisterDemo {
        /// Stable op id (position in the file).
        id: u64,
        /// Target session.
        session: String,
        /// Table name to register as.
        table: String,
        /// Bundled generator name (`spotify|bank|products|sales|stores`).
        dataset: String,
        /// Row count to generate.
        rows: u64,
        /// Generator seed.
        seed: u64,
        /// Parent products row count (sales only).
        product_rows: Option<u64>,
    },
    /// Inline upload of a derived table, in `register` wire shape.
    RegisterInline {
        /// Stable op id.
        id: u64,
        /// Target session.
        session: String,
        /// Table name to register as.
        table: String,
        /// The `columns` array, exactly as the wire expects it.
        columns: Json,
    },
    /// One explain request issued by one simulated client.
    Explain {
        /// Stable op id (unique, increasing in file order).
        id: u64,
        /// Which client thread issues this op.
        client: u64,
        /// Session the query runs in.
        session: String,
        /// Provenance kind (`filter|group_by|join|union`) — scoring
        /// metadata, not sent on the wire.
        kind: String,
        /// The query text.
        sql: String,
        /// Pre-sampled think time before this request, in ms.
        think_ms: u64,
        /// Client-side retry budget for transient refusals.
        retries: u64,
        /// Request deadline, when the behavior sets one.
        deadline_ms: Option<u64>,
        /// The client writes the request and drops the socket unread.
        hang_up: bool,
    },
}

impl TraceOp {
    /// The op's stable id.
    pub fn id(&self) -> u64 {
        match self {
            TraceOp::RegisterDemo { id, .. }
            | TraceOp::RegisterInline { id, .. }
            | TraceOp::Explain { id, .. } => *id,
        }
    }

    /// The NDJSON request line this op sends to the server. Scoring
    /// metadata (`kind`, `think_ms`, `retries`, `client`, `hang_up`)
    /// stays local.
    pub fn wire_line(&self) -> String {
        match self {
            TraceOp::RegisterDemo {
                session,
                table,
                dataset,
                rows,
                seed,
                product_rows,
                ..
            } => {
                let mut fields = vec![
                    ("cmd".to_string(), json::s("register_demo")),
                    ("session".to_string(), json::s(session.clone())),
                    ("table".to_string(), json::s(table.clone())),
                    ("dataset".to_string(), json::s(dataset.clone())),
                    ("rows".to_string(), json::n(*rows as f64)),
                    ("seed".to_string(), json::n(*seed as f64)),
                ];
                if let Some(p) = product_rows {
                    fields.push(("product_rows".to_string(), json::n(*p as f64)));
                }
                Json::Obj(fields).to_string()
            }
            TraceOp::RegisterInline {
                session,
                table,
                columns,
                ..
            } => Json::Obj(vec![
                ("cmd".to_string(), json::s("register")),
                ("session".to_string(), json::s(session.clone())),
                ("table".to_string(), json::s(table.clone())),
                ("columns".to_string(), columns.clone()),
            ])
            .to_string(),
            TraceOp::Explain {
                session,
                sql,
                deadline_ms,
                ..
            } => {
                let mut fields = vec![
                    ("cmd".to_string(), json::s("explain")),
                    ("session".to_string(), json::s(session.clone())),
                    ("sql".to_string(), json::s(sql.clone())),
                ];
                if let Some(d) = deadline_ms {
                    fields.push(("deadline_ms".to_string(), json::n(*d as f64)));
                }
                Json::Obj(fields).to_string()
            }
        }
    }

    /// This op's line in the trace file.
    fn trace_line(&self) -> String {
        match self {
            TraceOp::RegisterDemo {
                id,
                session,
                table,
                dataset,
                rows,
                seed,
                product_rows,
            } => {
                let mut fields = vec![
                    ("op".to_string(), json::s("register_demo")),
                    ("id".to_string(), json::n(*id as f64)),
                    ("session".to_string(), json::s(session.clone())),
                    ("table".to_string(), json::s(table.clone())),
                    ("dataset".to_string(), json::s(dataset.clone())),
                    ("rows".to_string(), json::n(*rows as f64)),
                    ("seed".to_string(), json::n(*seed as f64)),
                ];
                if let Some(p) = product_rows {
                    fields.push(("product_rows".to_string(), json::n(*p as f64)));
                }
                Json::Obj(fields).to_string()
            }
            TraceOp::RegisterInline {
                id,
                session,
                table,
                columns,
            } => Json::Obj(vec![
                ("op".to_string(), json::s("register_inline")),
                ("id".to_string(), json::n(*id as f64)),
                ("session".to_string(), json::s(session.clone())),
                ("table".to_string(), json::s(table.clone())),
                ("columns".to_string(), columns.clone()),
            ])
            .to_string(),
            TraceOp::Explain {
                id,
                client,
                session,
                kind,
                sql,
                think_ms,
                retries,
                deadline_ms,
                hang_up,
            } => {
                let mut fields = vec![
                    ("op".to_string(), json::s("explain")),
                    ("id".to_string(), json::n(*id as f64)),
                    ("client".to_string(), json::n(*client as f64)),
                    ("session".to_string(), json::s(session.clone())),
                    ("kind".to_string(), json::s(kind.clone())),
                    ("sql".to_string(), json::s(sql.clone())),
                    ("think_ms".to_string(), json::n(*think_ms as f64)),
                    ("retries".to_string(), json::n(*retries as f64)),
                ];
                if let Some(d) = deadline_ms {
                    fields.push(("deadline_ms".to_string(), json::n(*d as f64)));
                }
                if *hang_up {
                    fields.push(("hang_up".to_string(), Json::Bool(true)));
                }
                Json::Obj(fields).to_string()
            }
        }
    }
}

/// A parsed (or compiled) trace: header plus ops in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The self-describing header.
    pub header: TraceHeader,
    /// All operations, in issue order. Registration ops come first and
    /// are replayed serially before client threads start.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Serialize to the NDJSON file format (trailing newline included).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        let mut header = vec![
            ("trace".to_string(), json::s(TRACE_MAGIC)),
            ("version".to_string(), json::n(TRACE_VERSION as f64)),
            ("name".to_string(), json::s(self.header.name.clone())),
            ("seed".to_string(), json::n(self.header.seed as f64)),
            ("clients".to_string(), json::n(self.header.clients as f64)),
            ("generator".to_string(), self.header.generator.clone()),
        ];
        if let Some(spec) = &self.header.faults {
            header.push(("faults".to_string(), json::s(spec.clone())));
        }
        out.push_str(&Json::Obj(header).to_string());
        out.push('\n');
        for op in &self.ops {
            out.push_str(&op.trace_line());
            out.push('\n');
        }
        out
    }

    /// Parse a trace file, rejecting anything this reader does not
    /// fully understand with a typed [`WorkloadError`].
    pub fn parse(text: &str) -> Result<Trace, WorkloadError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let first = lines
            .next()
            .ok_or_else(|| WorkloadError::Malformed("empty file".into()))?;
        let header = parse_header(first)?;
        let mut ops = Vec::new();
        for (i, line) in lines.enumerate() {
            let v = json::parse(line)
                .map_err(|e| WorkloadError::Malformed(format!("op line {}: {e:?}", i + 2)))?;
            ops.push(parse_op(&v)?);
        }
        Ok(Trace { header, ops })
    }
}

/// The key/value pairs of a JSON object, or a typed error naming `ctx`.
fn pairs<'a>(v: &'a Json, ctx: &str) -> Result<&'a [(String, Json)], WorkloadError> {
    match v {
        Json::Obj(pairs) => Ok(pairs),
        _ => Err(WorkloadError::Malformed(format!("{ctx} is not an object"))),
    }
}

fn require_u64(v: Option<&Json>, op: &str, field: &str) -> Result<u64, WorkloadError> {
    v.and_then(Json::as_usize)
        .map(|n| n as u64)
        .ok_or_else(|| WorkloadError::MissingField {
            op: op.to_string(),
            field: field.to_string(),
        })
}

fn require_str(v: Option<&Json>, op: &str, field: &str) -> Result<String, WorkloadError> {
    v.and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| WorkloadError::MissingField {
            op: op.to_string(),
            field: field.to_string(),
        })
}

fn parse_header(line: &str) -> Result<TraceHeader, WorkloadError> {
    let v = json::parse(line).map_err(|e| WorkloadError::Malformed(format!("header: {e:?}")))?;
    // Magic and version first: a newer-format file should fail on its
    // version, not on whatever field happens to come first.
    let magic = v.get("trace").and_then(Json::as_str);
    if magic != Some(TRACE_MAGIC) {
        return Err(WorkloadError::Malformed(format!(
            "header 'trace' field is {magic:?}, want {TRACE_MAGIC:?}"
        )));
    }
    let version = require_u64(v.get("version"), "header", "version")?;
    if version != TRACE_VERSION {
        return Err(WorkloadError::UnsupportedVersion { found: version });
    }
    let mut generator = None;
    for (key, val) in pairs(&v, "header")? {
        match key.as_str() {
            "trace" | "version" | "name" | "seed" | "clients" | "faults" => {}
            "generator" => generator = Some(val.clone()),
            other => {
                return Err(WorkloadError::UnknownHeaderField {
                    field: other.to_string(),
                })
            }
        }
    }
    let faults = match v.get("faults") {
        None => None,
        some => {
            let spec = require_str(some, "header", "faults")?;
            FaultPlan::parse(&spec)
                .map_err(|e| WorkloadError::Malformed(format!("header faults: {e}")))?;
            Some(spec)
        }
    };
    Ok(TraceHeader {
        name: require_str(v.get("name"), "header", "name")?,
        seed: require_u64(v.get("seed"), "header", "seed")?,
        clients: require_u64(v.get("clients"), "header", "clients")?,
        generator: generator.ok_or(WorkloadError::MissingField {
            op: "header".to_string(),
            field: "generator".to_string(),
        })?,
        faults,
    })
}

/// Reject any key of `v` outside `known`, blaming op kind `op`.
fn reject_unknown(v: &Json, op: &str, known: &[&str]) -> Result<(), WorkloadError> {
    for (key, _) in pairs(v, op)? {
        if !known.contains(&key.as_str()) {
            return Err(WorkloadError::UnknownOpField {
                op: op.to_string(),
                field: key.clone(),
            });
        }
    }
    Ok(())
}

fn parse_op(v: &Json) -> Result<TraceOp, WorkloadError> {
    let kind = require_str(v.get("op"), "op", "op")?;
    match kind.as_str() {
        "register_demo" => {
            reject_unknown(
                v,
                &kind,
                &[
                    "op",
                    "id",
                    "session",
                    "table",
                    "dataset",
                    "rows",
                    "seed",
                    "product_rows",
                ],
            )?;
            Ok(TraceOp::RegisterDemo {
                id: require_u64(v.get("id"), &kind, "id")?,
                session: require_str(v.get("session"), &kind, "session")?,
                table: require_str(v.get("table"), &kind, "table")?,
                dataset: require_str(v.get("dataset"), &kind, "dataset")?,
                rows: require_u64(v.get("rows"), &kind, "rows")?,
                seed: require_u64(v.get("seed"), &kind, "seed")?,
                product_rows: match v.get("product_rows") {
                    None => None,
                    some => Some(require_u64(some, &kind, "product_rows")?),
                },
            })
        }
        "register_inline" => {
            reject_unknown(v, &kind, &["op", "id", "session", "table", "columns"])?;
            let columns = v
                .get("columns")
                .cloned()
                .ok_or_else(|| WorkloadError::MissingField {
                    op: kind.clone(),
                    field: "columns".to_string(),
                })?;
            validate_columns(&columns)?;
            Ok(TraceOp::RegisterInline {
                id: require_u64(v.get("id"), &kind, "id")?,
                session: require_str(v.get("session"), &kind, "session")?,
                table: require_str(v.get("table"), &kind, "table")?,
                columns,
            })
        }
        "explain" => {
            reject_unknown(
                v,
                &kind,
                &[
                    "op",
                    "id",
                    "client",
                    "session",
                    "kind",
                    "sql",
                    "think_ms",
                    "retries",
                    "deadline_ms",
                    "hang_up",
                ],
            )?;
            Ok(TraceOp::Explain {
                id: require_u64(v.get("id"), &kind, "id")?,
                client: require_u64(v.get("client"), &kind, "client")?,
                session: require_str(v.get("session"), &kind, "session")?,
                kind: require_str(v.get("kind"), &kind, "kind")?,
                sql: require_str(v.get("sql"), &kind, "sql")?,
                think_ms: require_u64(v.get("think_ms"), &kind, "think_ms")?,
                retries: require_u64(v.get("retries"), &kind, "retries")?,
                deadline_ms: match v.get("deadline_ms") {
                    None => None,
                    some => Some(require_u64(some, &kind, "deadline_ms")?),
                },
                hang_up: match v.get("hang_up") {
                    None => false,
                    Some(b) => b.as_bool().ok_or_else(|| WorkloadError::MissingField {
                        op: kind.clone(),
                        field: "hang_up".to_string(),
                    })?,
                },
            })
        }
        other => Err(WorkloadError::UnknownOpKind {
            kind: other.to_string(),
        }),
    }
}

/// Check an inline `columns` payload has exactly the wire shape
/// (`[{name, type, values}]` with a known dtype) before it is accepted
/// into a trace — uploads must fail at parse time, not mid-replay.
fn validate_columns(columns: &Json) -> Result<(), WorkloadError> {
    let arr = columns
        .as_arr()
        .ok_or_else(|| WorkloadError::Malformed("inline 'columns' is not an array".into()))?;
    for col in arr {
        reject_unknown(col, "register_inline.column", &["name", "type", "values"])?;
        require_str(col.get("name"), "register_inline.column", "name")?;
        let dtype = require_str(col.get("type"), "register_inline.column", "type")?;
        if !matches!(dtype.as_str(), "int" | "float" | "str" | "bool") {
            return Err(WorkloadError::Malformed(format!(
                "inline column type {dtype:?} (want int|float|str|bool)"
            )));
        }
        if col.get("values").and_then(Json::as_arr).is_none() {
            return Err(WorkloadError::MissingField {
                op: "register_inline.column".to_string(),
                field: "values".to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Trace {
        Trace {
            header: TraceHeader {
                name: "t".into(),
                seed: 9,
                clients: 1,
                generator: json::parse(r#"{"preset":"unit"}"#).unwrap(),
                faults: None,
            },
            ops: vec![
                TraceOp::RegisterDemo {
                    id: 0,
                    session: "t".into(),
                    table: "spotify".into(),
                    dataset: "spotify".into(),
                    rows: 100,
                    seed: 9,
                    product_rows: None,
                },
                TraceOp::RegisterInline {
                    id: 1,
                    session: "t".into(),
                    table: "mini".into(),
                    columns: json::parse(r#"[{"name":"x","type":"int","values":[1,null,3]}]"#)
                        .unwrap(),
                },
                TraceOp::Explain {
                    id: 2,
                    client: 0,
                    session: "t".into(),
                    kind: "filter".into(),
                    sql: "SELECT * FROM spotify WHERE popularity > 65".into(),
                    think_ms: 5,
                    retries: 2,
                    deadline_ms: Some(30_000),
                    hang_up: false,
                },
            ],
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let mut faulted = tiny();
        faulted.header.faults = Some("seed=3,panic=0.5".into());
        if let TraceOp::Explain { hang_up, .. } = &mut faulted.ops[2] {
            *hang_up = true;
        }
        for t in [tiny(), faulted] {
            let text = t.to_ndjson();
            let parsed = Trace::parse(&text).unwrap();
            assert_eq!(parsed, t);
            assert_eq!(parsed.to_ndjson(), text);
        }
        assert!(!tiny().to_ndjson().contains("faults"));
        assert!(!tiny().to_ndjson().contains("hang_up"));
    }

    #[test]
    fn wire_lines_hide_scoring_metadata() {
        let t = tiny();
        let explain = t.ops[2].wire_line();
        let v = json::parse(&explain).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("explain"));
        assert!(v.get("kind").is_none(), "kind is trace metadata: {explain}");
        assert!(v.get("think_ms").is_none());
        assert_eq!(v.get("deadline_ms").and_then(Json::as_usize), Some(30_000));
    }

    #[test]
    fn unknown_things_are_typed_errors() {
        let good = tiny().to_ndjson();
        let mut lines: Vec<&str> = good.lines().collect();

        let versioned = good.replace("\"version\":1", "\"version\":99");
        assert_eq!(
            Trace::parse(&versioned),
            Err(WorkloadError::UnsupportedVersion { found: 99 })
        );

        let extra_header = good.replacen("\"seed\":9", "\"seed\":9,\"wormhole\":true", 1);
        assert_eq!(
            Trace::parse(&extra_header),
            Err(WorkloadError::UnknownHeaderField {
                field: "wormhole".into()
            })
        );

        let bad_op = format!("{}\n{{\"op\":\"teleport\",\"id\":9}}\n", good.trim_end());
        assert_eq!(
            Trace::parse(&bad_op),
            Err(WorkloadError::UnknownOpKind {
                kind: "teleport".into()
            })
        );

        let extra_field = lines[3].replace("\"retries\":2", "\"retries\":2,\"warp\":1");
        lines[3] = &extra_field;
        assert_eq!(
            Trace::parse(&lines.join("\n")),
            Err(WorkloadError::UnknownOpField {
                op: "explain".into(),
                field: "warp".into()
            })
        );
    }
}
