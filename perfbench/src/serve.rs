//! `serve`: the deployed path. An in-process `fedex_serve::Server` on
//! loopback (2 workers, default scheduler, cache and obs) and two client
//! connections with zero think time, each in its own long-lived session
//! over tables of its own. Tables of a few thousand rows are uploaded as
//! inline `register` payloads. The explain mix is compiled by the workload
//! DSL from its fixed template pools, so most explains repeat exactly;
//! fresh uploads of the spotify table (writes) are interleaved with them
//! (reads). Sessions never expire, so their history shows in peak RSS.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use fedex_bench::workload::{
    BaseDataset, ClientBehavior, DatasetSpec, DatasetStep, QueryMix, TraceOp, WorkloadSpec,
};
use fedex_core::{ArtifactCache, ExecutionMode, Fedex, SessionManager};
use fedex_frame::{Column, DataFrame};
use fedex_obs::prom::{validate_exposition, Exposition};
use fedex_query::Catalog;
use fedex_serve::json::{self, Json};
use fedex_serve::{Client, ExplainService, Server, ServerConfig, ServerHandle};

use crate::check::{digest, Check};
use crate::library::{self, Kind};
use crate::report::{rss_mb, EndToEnd, HostWitness, Outcome, END_TO_END, PER_LAYER};
use crate::stats::{mean, ratio};
use crate::tracer::Tracer;
use crate::Args;

const CLIENTS: usize = 2;
/// Explains per client per second of `--seconds`: fixes the sequence
/// length (and with it the session history the server retains).
const EXPLAINS_PER_SECOND: f64 = 22.0;
/// Every `WRITE_EVERY`-th op of a client uploads a fresh spotify table.
const WRITE_EVERY: usize = 10;
const SETUP_REPEATS: usize = 3;
/// Two workers already keep both cores busy; a parallel pipeline inside
/// each explain would put four compute threads on two cores and make
/// latency track the host's scheduling noise.
const EXECUTION: ExecutionMode = ExecutionMode::Serial;
/// The table fresh uploads replace.
const FRESH_TABLE: &str = "spotify";

/// One analyst's DSL spec: every dataset carries a derivation step, so
/// all of them ship inline.
fn spec(seed: u64, explains_per_client: u32) -> WorkloadSpec {
    let dataset = |table: &str, base, rows, product_rows, keep_pct| DatasetSpec {
        table: table.to_string(),
        base,
        rows,
        product_rows,
        steps: vec![DatasetStep::Sample { keep_pct }],
    };
    WorkloadSpec {
        name: "serve".to_string(),
        seed,
        datasets: vec![
            dataset(FRESH_TABLE, BaseDataset::Spotify, 3_000, None, 80),
            dataset("Bank", BaseDataset::Bank, 2_000, None, 90),
            dataset("products", BaseDataset::Products, 300, None, 100),
            dataset("sales", BaseDataset::Sales, 3_000, Some(300), 90),
        ],
        mix: QueryMix {
            filter: 4,
            group_by: 3,
            join: 1,
            union_: 2,
        },
        behavior: ClientBehavior {
            clients: 1,
            queries_per_client: explains_per_client,
            think_ms_min: 0,
            think_ms_max: 0,
            deadline_ms: None,
            retries: 0,
            zipf_s: 0.8,
        },
    }
}

/// A fresh version of the spotify table, as its inline `columns` payload.
fn fresh_upload(seed: u64) -> Result<Json, String> {
    let mut s = spec(seed, 0);
    s.datasets.truncate(1);
    s.mix = QueryMix {
        filter: 1,
        group_by: 0,
        join: 0,
        union_: 0,
    };
    let trace = s.compile().map_err(|e| format!("{e:?}"))?;
    match trace.ops.into_iter().next() {
        Some(TraceOp::RegisterInline { columns, .. }) => Ok(columns),
        other => Err(format!("fresh upload compiled to {other:?}")),
    }
}

/// One op of a client's sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Upload payload `table` (an index into `Plan::tables`) under
    /// `name`; `line` is the request, rendered ahead of any timing.
    Write {
        name: String,
        table: usize,
        line: String,
    },
    Read {
        kind: Kind,
        sql: String,
    },
}

/// Everything the run sends, prepared before any timing. Each analyst
/// works on tables of their own (seeded per client), so which requests
/// hit the cache does not depend on how the two clients interleave.
struct Plan {
    /// Every inline `columns` payload.
    tables: Vec<Json>,
    /// Per client: the base-table uploads of set-up.
    setup: Vec<Vec<Op>>,
    /// Per client: the timed sequence.
    ops: Vec<Vec<Op>>,
    /// Share of reads that repeat an earlier read of the same client over
    /// the same tables.
    repeat_share: f64,
}

impl Plan {
    fn write(&mut self, client: usize, name: &str, columns: Json) -> Op {
        let line = register_line(&session(client), name, &columns);
        self.tables.push(columns);
        Op::Write {
            name: name.to_string(),
            table: self.tables.len() - 1,
            line,
        }
    }
}

fn plan(seed: u64, seconds: u64) -> Result<Plan, String> {
    let reads_per_client = (seconds as f64 * EXPLAINS_PER_SECOND).ceil() as u32;
    let mut plan = Plan {
        tables: Vec::new(),
        setup: Vec::new(),
        ops: Vec::new(),
        repeat_share: 0.0,
    };
    let mut keys: HashMap<String, usize> = HashMap::new();
    for c in 0..CLIENTS {
        let client_seed = seed ^ ((c as u64 + 1) << 40);
        let trace = spec(client_seed, reads_per_client)
            .compile()
            .map_err(|e| format!("{e:?}"))?;
        let (mut setup, mut reads) = (Vec::new(), Vec::new());
        for op in trace.ops {
            match op {
                TraceOp::RegisterInline { table, columns, .. } => {
                    setup.push(plan.write(c, &table, columns))
                }
                TraceOp::Explain { kind, sql, .. } => reads.push((
                    Kind::parse(&kind).ok_or(format!("unknown kind {kind}"))?,
                    sql,
                )),
                other => return Err(format!("unexpected op {other:?}")),
            }
        }
        let mut version = 0;
        let mut ops = Vec::new();
        for (kind, sql) in reads {
            if (ops.len() + 1) % WRITE_EVERY == 0 {
                let columns = fresh_upload(client_seed ^ plan.tables.len() as u64)?;
                ops.push(plan.write(c, FRESH_TABLE, columns));
                version = plan.tables.len();
            }
            let tables = if sql.contains(FRESH_TABLE) {
                version
            } else {
                0
            };
            *keys.entry(format!("{c}#{tables}#{sql}")).or_default() += 1;
            ops.push(Op::Read { kind, sql });
        }
        plan.setup.push(setup);
        plan.ops.push(ops);
    }
    let n_reads: usize = keys.values().sum();
    plan.repeat_share = ratio((n_reads - keys.len()) as f64, n_reads as f64);
    Ok(plan)
}

fn session(client: usize) -> String {
    format!("analyst-{client}")
}

fn register_line(session: &str, table: &str, columns: &Json) -> String {
    Json::Obj(vec![
        ("cmd".into(), json::s("register")),
        ("session".into(), json::s(session)),
        ("table".into(), json::s(table)),
        ("columns".into(), columns.clone()),
    ])
    .to_string()
}

fn explain_line(session: &str, sql: &str, trace: bool) -> String {
    let mut fields = vec![
        ("cmd".to_string(), json::s("explain")),
        ("session".to_string(), json::s(session)),
        ("sql".to_string(), json::s(sql)),
    ];
    if trace {
        fields.push(("trace".to_string(), Json::Bool(true)));
    }
    Json::Obj(fields).to_string()
}

/// A running server with one connected client per analyst.
struct Deployment {
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Deployment {
    /// Boot the server, upload the base tables into every session, and
    /// warm each session with one explain.
    fn boot(plan: &Plan) -> Result<Deployment, String> {
        let manager = SessionManager::new(
            Fedex::new().with_execution(EXECUTION),
            Arc::new(ArtifactCache::default()),
        );
        let server = Server::bind(
            &ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                ..ServerConfig::default()
            },
            Arc::new(ExplainService::new(manager)),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        let addr = handle.addr().to_string();
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            for op in &plan.setup[c] {
                if let Op::Write { line, .. } = op {
                    call(&mut client, line)?;
                }
            }
            let warm = explain_line(
                &session(c),
                "SELECT * FROM Bank WHERE Customer_Age < 65",
                false,
            );
            call(&mut client, &warm)?;
            clients.push(client);
        }
        Ok(Deployment { handle, clients })
    }

    fn scrape(&self) -> Result<Exposition, String> {
        let (_, body) = Client::http_get(&self.handle.addr().to_string(), "/metrics", "text/plain")
            .map_err(|e| format!("scrape: {e}"))?;
        validate_exposition(&body)
    }

    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        self.handle.stop().map_err(|e| format!("stop: {e}"))
    }
}

/// How every successful reply starts.
const OK_PREFIX: &str = "{\"ok\":true,";

/// The `explanations` array of an explain reply, as the server wrote it.
/// The server writes `explanations` then `rendered`, and inside strings
/// every quote is escaped, so the closing marker cannot occur earlier.
fn explanations_of(reply: &str) -> Option<&str> {
    let start = reply.find("\"explanations\":")? + "\"explanations\":".len();
    let len = reply[start..].find(",\"rendered\":")?;
    Some(&reply[start..start + len])
}

/// One request that must succeed (set-up only).
fn call(client: &mut Client, line: &str) -> Result<Json, String> {
    let text = client
        .request_raw(line)
        .map_err(|e| format!("transport: {e}"))?;
    let resp = json::parse(&text).map_err(|e| format!("bad response: {e}"))?;
    match resp.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(resp),
        _ => Err(format!("request failed: {text}")),
    }
}

/// What one client saw.
#[derive(Debug, Default)]
struct ClientRun {
    /// Per read, in order (`None` = failed).
    digests: Vec<Option<u64>>,
    /// First response of each kind, for the reference check.
    first: [Option<String>; 4],
    explain_ms: Vec<f64>,
    register_ms: Vec<f64>,
    typed_failures: u64,
    untyped_failures: u64,
    /// Traced runs: the client's round trips with the server's stage
    /// spans and counters from each reply.
    tracer: Tracer,
}

impl ClientRun {
    /// Count a failed request: typed when the server answered with an
    /// error code, untyped otherwise (transport errors, malformed replies).
    fn fail(&mut self, reply: Result<&str, std::io::Error>, read: bool) {
        let typed = match reply {
            Ok(text) => {
                eprintln!("perfbench: serve request failed: {text:.300}");
                json::parse(text).is_ok_and(|r| r.get("code").is_some())
            }
            Err(e) => {
                eprintln!("perfbench: serve transport error: {e}");
                false
            }
        };
        if typed {
            self.typed_failures += 1;
        } else {
            self.untyped_failures += 1;
        }
        if read {
            self.digests.push(None);
        }
    }
}

fn drive(client: &mut Client, c: usize, plan: &Plan, traced: bool) -> ClientRun {
    let mut run = ClientRun::default();
    let session = session(c);
    for op in &plan.ops[c] {
        let (line, read) = match op {
            Op::Write { line, .. } => (line.clone(), None),
            Op::Read { kind, sql } => (explain_line(&session, sql, traced), Some(*kind)),
        };
        let start = Instant::now();
        let reply = client.request_raw(&line);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let text = match reply {
            Ok(text) => text,
            Err(e) => {
                run.fail(Err(e), read.is_some());
                continue;
            }
        };
        let ok = text.starts_with(OK_PREFIX);
        let Some(kind) = read else {
            if ok {
                run.register_ms.push(ms);
            } else {
                run.fail(Ok(&text), false);
            }
            continue;
        };
        // Digest straight from the reply's bytes: parsing a reply of
        // several hundred KB would cost the client more CPU than the
        // explain itself on small tables, and steal it from the server.
        let Some(explanations) = explanations_of(&text).filter(|_| ok) else {
            run.fail(Ok(&text), true);
            continue;
        };
        run.explain_ms.push(ms);
        run.digests.push(Some(digest(explanations)));
        run.first[kind.index()].get_or_insert_with(|| explanations.to_string());
        if traced {
            let resp = json::parse(&text).expect("a successful reply is valid JSON");
            record_trace(&mut run.tracer, &resp, kind, start, ms);
            run.tracer.add("serve.response_bytes", text.len() as f64);
        }
    }
    run
}

/// Record a traced reply: the client's round trip as the root span, the
/// server's queue wait and stage times (from the reply) as its children,
/// and the stage counts and cache events.
fn record_trace(tr: &mut Tracer, resp: &Json, kind: Kind, start: Instant, ms: f64) {
    const ROOT: &str = "request";
    let micros = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);
    let span = |us: f64| Duration::from_secs_f64(us / 1e6);
    tr.begin_op();
    let queue_us = micros(resp.get("trace").and_then(|t| t.get("queue_micros")));
    tr.record("serve.queue", ROOT, start, span(queue_us));
    let mut stage_us = 0.0;
    let mut inputs_cached = true;
    let stages = resp
        .get("stage_trace")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    for stage in stages {
        let us = micros(stage.get("micros"));
        stage_us += us;
        let (name, counter) = match stage.get("stage").and_then(Json::as_str) {
            Some("ScoreColumns") => ("core.score_columns", None),
            Some("PartitionRows") => ("core.partition_rows", Some("core.partitions")),
            Some("Contribute") => ("core.contribute", Some("core.candidates")),
            Some("Skyline") => ("core.skyline", None),
            Some("Present") => ("core.present", Some("core.explanations")),
            _ => ("core.other", None),
        };
        tr.record(name, ROOT, start, span(us));
        if let Some(counter) = counter {
            tr.add(counter, micros(stage.get("items")));
        }
        for ev in stage.get("cache").and_then(Json::as_arr).unwrap_or(&[]) {
            let artifact = ev.get("artifact").and_then(Json::as_str).unwrap_or("");
            let hit = ev.get("hit").and_then(Json::as_bool).unwrap_or(false);
            inputs_cached &= !tr.cache_event(artifact, hit);
        }
    }
    tr.record(ROOT, "", start, Duration::from_secs_f64(ms / 1e3));
    let unattributed = ms - (queue_us + stage_us) / 1e3;
    tr.explained(kind, stage_us / 1e3, unattributed, inputs_cached);
}

/// Both clients replay their sequences concurrently; returns their runs
/// and the wall time from the common start to the last reply.
fn replay(dep: &mut Deployment, plan: &Plan, traced: bool) -> (Vec<ClientRun>, f64) {
    let barrier = Barrier::new(CLIENTS);
    let start = std::sync::OnceLock::new();
    let runs = std::thread::scope(|scope| {
        let workers: Vec<_> = dep
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, start) = (&barrier, &start);
                scope.spawn(move || {
                    barrier.wait();
                    start.get_or_init(Instant::now);
                    drive(client, c, plan, traced)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall = start
        .get()
        .map_or(0.0, |s: &Instant| s.elapsed().as_secs_f64());
    (runs, wall)
}

/// Parse an inline `columns` payload the way the server does.
fn frame_from_columns(columns: &Json) -> Result<DataFrame, String> {
    let mut out = Vec::new();
    for spec in columns.as_arr().ok_or("columns is not an array")? {
        let name = spec
            .get("name")
            .and_then(Json::as_str)
            .ok_or("column without name")?;
        let values = spec
            .get("values")
            .and_then(Json::as_arr)
            .ok_or("column without values")?;
        let col = match spec.get("type").and_then(Json::as_str) {
            Some("int") => Column::from_opt_ints(
                name,
                values
                    .iter()
                    .map(|v| v.as_f64().map(|x| x as i64))
                    .collect(),
            ),
            Some("float") => {
                Column::from_opt_floats(name, values.iter().map(Json::as_f64).collect())
            }
            Some("str") => Column::from_opt_strs(name, values.iter().map(Json::as_str).collect()),
            Some("bool") => Column::new(
                name,
                fedex_frame::ColumnData::Bool(values.iter().map(Json::as_bool).collect()),
            ),
            other => return Err(format!("column {name}: unknown type {other:?}")),
        };
        out.push(col);
    }
    DataFrame::new(out).map_err(|e| e.to_string())
}

/// Compare the first reply of each kind with a serial, uncached library
/// explain over the tables that client's session held at the time.
fn check_references(plan: &Plan, runs: &[ClientRun], check: &mut Check) -> Result<(), String> {
    for kind in Kind::ALL {
        let Some(c) = (0..runs.len()).find(|&c| runs[c].first[kind.index()].is_some()) else {
            check
                .mismatches
                .push(format!("no successful {} explain", kind.name()));
            continue;
        };
        let mut catalog = Catalog::new();
        for op in plan.setup[c].iter().chain(&plan.ops[c]) {
            match op {
                Op::Write { name, table, .. } => {
                    catalog.register(name, frame_from_columns(&plan.tables[*table])?)
                }
                Op::Read { kind: k, sql } if *k == kind => {
                    let want = library::reference(&catalog, sql).and_then(|j| {
                        json::parse(&j)
                            .map(|v| v.to_string())
                            .map_err(|e| e.to_string())
                    })?;
                    let got = runs[c].first[kind.index()].as_deref().unwrap_or("");
                    check.expect_equal(sql, got, &want);
                    break;
                }
                Op::Read { .. } => {}
            }
        }
    }
    Ok(())
}

fn explains(runs: &[ClientRun]) -> usize {
    runs.iter().map(|r| r.explain_ms.len()).sum()
}

fn failures(runs: &[ClientRun]) -> (u64, u64) {
    runs.iter().fold((0, 0), |(t, u), r| {
        (t + r.typed_failures, u + r.untyped_failures)
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut host = HostWitness::default();
    host.sample();
    let mut e2e = EndToEnd::default();
    let mut dep = None;
    let mut plan_ = None;
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    for _ in 0..repeats {
        if let Some(d) = dep.take() {
            Deployment::stop(d)?;
        }
        let start = Instant::now();
        let p = plan(args.seed, args.seconds)?;
        dep = Some(Deployment::boot(&p)?);
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        plan_ = Some(p);
    }
    let (mut dep, plan) = (dep.expect("one set-up"), plan_.expect("one set-up"));
    let attempted: u64 = plan.ops.iter().map(|o| o.len() as u64).sum();
    let mut check = Check::default();

    let cache_before = dep.handle.service().manager().cache().metrics();
    let rss_before = rss_mb();
    let (plain, wall) = replay(&mut dep, &plan, false);
    let rss_after = rss_mb();
    let cache_after = dep.handle.service().manager().cache().metrics();
    check_references(&plan, &plain, &mut check)?;
    let (typed, untyped) = failures(&plain);

    if !args.trace {
        dep.stop()?;
        e2e.explain_ms = plain
            .iter()
            .flat_map(|r| r.explain_ms.iter().copied())
            .collect();
        e2e.register_ms = plain
            .iter()
            .flat_map(|r| r.register_ms.iter().copied())
            .collect();
        e2e.busy_s = wall;
        host.sample();
        eprintln!(
            "perfbench: serve seed {} — {} explains, {} uploads, repeat share {:.3}, host.calib_ms {:.2}",
            args.seed,
            e2e.explain_ms.len(),
            e2e.register_ms.len(),
            plan.repeat_share,
            host.ms()
        );
        return Ok(Outcome::new(
            &check.mismatches,
            attempted,
            untyped,
            typed + untyped,
            &END_TO_END,
            &e2e.metrics(),
        ));
    }

    // The traced run: a fresh deployment, every explain asking for its
    // server-side trace, the scrape read before and after.
    dep.stop()?;
    let mut dep = Deployment::boot(&plan)?;
    let scrape_before = dep.scrape()?;
    let (mut traced, _) = replay(&mut dep, &plan, true);
    let scrape_after = dep.scrape()?;
    dep.stop()?;
    for c in 0..CLIENTS {
        check.same_runs(&plain[c].digests, &traced[c].digests);
    }
    let (typed_t, untyped_t) = failures(&traced);
    host.sample();

    let mut tr = Tracer::new();
    for r in &mut traced {
        tr.absorb(std::mem::take(&mut r.tracer));
    }
    // The server fingerprints every upload; time the same call on the
    // same frames here.
    for columns in &plan.tables {
        let df = frame_from_columns(columns)?;
        tr.begin_op();
        std::hint::black_box(tr.span("frame.fingerprint", "register", || df.fingerprint()));
    }
    let mut values = tr.layer_values();
    values.extend(server_values(
        &tr,
        &traced,
        &plain,
        &scrape_before,
        &scrape_after,
    ));
    values.insert(
        "cache.evictions",
        (cache_after.evictions - cache_before.evictions) as f64,
    );
    values.insert(
        "cache.resident_mb",
        cache_after.bytes as f64 / (1024.0 * 1024.0),
    );
    values.insert(
        "session.retained_mb_per_explain",
        ratio(rss_after - rss_before, explains(&plain) as f64),
    );
    values.insert("workload.repeat_share", plan.repeat_share);
    values.insert("host.calib_ms", host.ms());
    tr.write_for(args);
    Ok(Outcome::new(
        &check.mismatches,
        2 * attempted,
        untyped + untyped_t,
        typed + untyped + typed_t + untyped_t,
        &PER_LAYER,
        &values,
    ))
}

/// The serving layer's per-layer values: scrape deltas over the traced
/// run, and client round trips against server time.
fn server_values(
    tr: &Tracer,
    traced: &[ClientRun],
    plain: &[ClientRun],
    before: &Exposition,
    after: &Exposition,
) -> BTreeMap<&'static str, f64> {
    let delta = |name: &str, label: &str, value: &str| {
        after.value_with(name, label, value).unwrap_or(0.0)
            - before.value_with(name, label, value).unwrap_or(0.0)
    };
    let total = |name: &str| after.sum(name).unwrap_or(0.0) - before.sum(name).unwrap_or(0.0);
    let mean_ms = |runs: &[ClientRun]| {
        mean(
            &runs
                .iter()
                .flat_map(|r| r.explain_ms.iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let n = explains(traced) as f64;
    let service_ms = 1e3
        * ratio(
            delta("fedex_request_duration_seconds_sum", "cmd", "explain"),
            delta("fedex_request_duration_seconds_count", "cmd", "explain"),
        );
    let queue_ms = 1e3
        * ratio(
            delta("fedex_admission_wait_seconds_sum", "class", "heavy"),
            delta("fedex_admission_wait_seconds_count", "class", "heavy"),
        );
    BTreeMap::from([
        ("serve.queue_wait_ms", queue_ms),
        ("serve.service_ms", service_ms),
        ("serve.transport_ms", mean_ms(traced) - service_ms),
        (
            "serve.response_kb",
            ratio(tr.count("serve.response_bytes"), n) / 1024.0,
        ),
        (
            "serve.coalesced_frac",
            ratio(total("fedex_sched_coalesced_total"), n),
        ),
        ("serve.rejected", total("fedex_sched_rejected_total")),
        (
            "trace.overhead_frac",
            ratio(mean_ms(traced), mean_ms(plain)) - 1.0,
        ),
    ])
}
