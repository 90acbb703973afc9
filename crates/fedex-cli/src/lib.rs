//! # fedex-cli
//!
//! Command-line front-end for the FEDEX explainability framework — the
//! "explain an exploratory operation in one line" wrapper the paper lists
//! as future work (§5):
//!
//! ```text
//! fedex explain --table songs=songs.csv \
//!               --sql "SELECT * FROM songs WHERE popularity > 65" \
//!               [--sample 5000] [--top 2] [--json] [--width 44]
//!               [--exec serial|parallel|N] [--trace]
//! fedex schema  --table songs=songs.csv
//! fedex demo
//! ```
//!
//! The library half parses arguments and executes commands against
//! injected output, so the whole surface is unit-testable; `main.rs` is a
//! thin shim.

use std::fmt::Write as _;

use fedex_core::{
    render_all, to_json_array, write_stage_trace_json, ExecutionMode, Fedex, FedexConfig, MAX_WIDTH,
};
use fedex_frame::read_csv;
use fedex_query::{parse_query, Catalog};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Explain one SQL step over registered CSV tables.
    Explain {
        /// `(name, path)` table registrations.
        tables: Vec<(String, String)>,
        /// The query text.
        sql: String,
        /// FEDEX-Sampling size (`None` = exact).
        sample: Option<usize>,
        /// Top-k cut after the skyline.
        top: Option<usize>,
        /// Emit JSON instead of text.
        json: bool,
        /// Chart width in cells.
        width: usize,
        /// Pipeline execution mode (serial, parallel, or a thread count).
        exec: ExecutionMode,
        /// Print per-stage wall-clock timings to stderr-style trailer.
        trace: bool,
    },
    /// Print the inferred schema of the given tables.
    Schema {
        /// `(name, path)` table registrations.
        tables: Vec<(String, String)>,
    },
    /// Run the built-in Spotify demo (no files needed).
    Demo,
    /// Run the explanation server (blocks until a shutdown request).
    Serve {
        /// Address, workers, queue depth, session quota, default deadline
        /// and write timeout; unset flags keep `ServerConfig::default()`.
        config: fedex_serve::ServerConfig,
        /// Artifact-cache byte budget in MiB.
        cache_mb: usize,
        /// Pipeline execution mode inside each explain.
        exec: ExecutionMode,
        /// Log explains slower than this many ms to stderr (0 = off).
        slow_ms: u64,
        /// Disable the observability hub (histograms, tracing, flight
        /// recorder) — for measuring its overhead, not for production.
        no_obs: bool,
    },
    /// Send one JSON request line to a running server, print the response.
    Client {
        /// Server address, e.g. `127.0.0.1:4641`.
        addr: String,
        /// The request object, e.g. `{"cmd":"ping"}`.
        request: String,
        /// Retries after the first attempt for connect failures and
        /// transient typed responses (`overloaded`, `shutting_down`).
        retries: u32,
        /// Wall-clock budget across all attempts and backoff sleeps.
        retry_budget_ms: u64,
    },
    /// Print usage.
    Help,
}

/// Usage string.
pub const USAGE: &str = "\
usage:
  fedex explain --table <name=path.csv> [--table ...] --sql <query>
                [--sample N] [--top K] [--json] [--width N]
                [--exec serial|parallel|N] [--trace]
  fedex schema  --table <name=path.csv> [--table ...]
  fedex demo
  fedex serve   [--addr 127.0.0.1:4641] [--workers N] [--cache-mb N]
                [--queue-depth N] [--session-quota N]
                [--default-deadline-ms N] [--write-timeout-ms N]
                [--exec serial|parallel|N] [--slow-ms N] [--no-obs]
  fedex client  --addr <host:port> --json '<request>'
                [--retries N] [--retry-budget-ms N]
  fedex help

The query language is the SQL subset of the FEDEX paper's workload:
  SELECT * FROM t WHERE <predicate>
  SELECT * FROM t1 INNER JOIN t2 ON t1.a = t2.b
  SELECT mean(x), count FROM t [WHERE ...] GROUP BY a, b

`fedex serve` speaks newline-delimited JSON (one request object per line;
cmds: ping, register, register_demo, explain, history, sessions, metrics,
debug_dump, shutdown) plus an HTTP/1.1 fallback (POST /api, GET /metrics —
Prometheus text with Accept: text/plain — /healthz, /debug/requests).
";

/// Errors surfaced to the user with exit code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// The value following flag `args[i-1]`, or a "needs a value" error.
fn flag_value(args: &[String], i: usize, flag: &str) -> Result<String, CliError> {
    args.get(i)
        .cloned()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))
}

/// The value of `flag` (`args[i]`), parsed as a `T`.
fn parsed_flag<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    flag_value(args, i, flag)?
        .parse()
        .map_err(|e| CliError(format!("{flag}: {e}")))
}

fn parse_table_spec(spec: &str) -> Result<(String, String), CliError> {
    match spec.split_once('=') {
        Some((name, path)) if !name.is_empty() && !path.is_empty() => {
            Ok((name.to_string(), path.to_string()))
        }
        _ => Err(CliError(format!(
            "--table expects name=path.csv, got {spec:?}"
        ))),
    }
}

/// Parse a command line (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "demo" => Ok(Command::Demo),
        "serve" => {
            let mut config = fedex_serve::ServerConfig::default();
            let mut cache_mb = 1024usize;
            let mut exec = ExecutionMode::default();
            let mut slow_ms = 0u64;
            let mut no_obs = false;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--addr" => {
                        i += 1;
                        config.addr = flag_value(args, i, "--addr")?;
                    }
                    "--workers" => {
                        i += 1;
                        config.workers = parsed_flag(args, i, "--workers")?;
                    }
                    "--cache-mb" => {
                        i += 1;
                        cache_mb = parsed_flag(args, i, "--cache-mb")?;
                    }
                    "--queue-depth" => {
                        i += 1;
                        config.queue_depth = parsed_flag(args, i, "--queue-depth")?;
                    }
                    "--session-quota" => {
                        i += 1;
                        config.session_quota = parsed_flag(args, i, "--session-quota")?;
                    }
                    "--default-deadline-ms" => {
                        i += 1;
                        config.default_deadline_ms = parsed_flag(args, i, "--default-deadline-ms")?;
                    }
                    "--write-timeout-ms" => {
                        i += 1;
                        config.write_timeout_ms = parsed_flag(args, i, "--write-timeout-ms")?;
                    }
                    "--exec" => {
                        i += 1;
                        let spec = flag_value(args, i, "--exec")?;
                        exec = ExecutionMode::parse(&spec).ok_or_else(|| {
                            CliError(format!(
                                "--exec expects serial, parallel, or a thread count, got {spec:?}"
                            ))
                        })?;
                    }
                    "--slow-ms" => {
                        i += 1;
                        slow_ms = parsed_flag(args, i, "--slow-ms")?;
                    }
                    "--no-obs" => no_obs = true,
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
                i += 1;
            }
            Ok(Command::Serve {
                config,
                cache_mb,
                exec,
                slow_ms,
                no_obs,
            })
        }
        "client" => {
            let mut addr = None;
            let mut request = None;
            let mut retries = 0u32;
            let mut retry_budget_ms = 10_000u64;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--addr" => {
                        i += 1;
                        addr = Some(flag_value(args, i, "--addr")?);
                    }
                    "--json" => {
                        i += 1;
                        request = Some(flag_value(args, i, "--json")?);
                    }
                    "--retries" => {
                        i += 1;
                        retries = parsed_flag(args, i, "--retries")?;
                    }
                    "--retry-budget-ms" => {
                        i += 1;
                        retry_budget_ms = parsed_flag(args, i, "--retry-budget-ms")?;
                    }
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
                i += 1;
            }
            Ok(Command::Client {
                addr: addr.ok_or_else(|| CliError("--addr is required".into()))?,
                request: request.ok_or_else(|| CliError("--json is required".into()))?,
                retries,
                retry_budget_ms,
            })
        }
        "schema" | "explain" => {
            let mut tables = Vec::new();
            let mut sql = None;
            let mut sample = None;
            let mut top = None;
            let mut json = false;
            let mut width = 44usize;
            let mut exec = ExecutionMode::default();
            let mut trace = false;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--table" => {
                        i += 1;
                        tables.push(parse_table_spec(&flag_value(args, i, "--table")?)?);
                    }
                    "--sql" => {
                        i += 1;
                        sql = Some(flag_value(args, i, "--sql")?);
                    }
                    "--sample" => {
                        i += 1;
                        sample = Some(parsed_flag(args, i, "--sample")?);
                    }
                    "--top" => {
                        i += 1;
                        top = Some(parsed_flag(args, i, "--top")?);
                    }
                    "--json" => json = true,
                    "--trace" => trace = true,
                    "--exec" => {
                        i += 1;
                        let spec = flag_value(args, i, "--exec")?;
                        exec = ExecutionMode::parse(&spec).ok_or_else(|| {
                            CliError(format!(
                                "--exec expects serial, parallel, or a thread count, got {spec:?}"
                            ))
                        })?;
                    }
                    "--width" => {
                        i += 1;
                        width = parsed_flag(args, i, "--width")?;
                        if width > MAX_WIDTH {
                            return Err(CliError(format!(
                                "--width must be at most {MAX_WIDTH}, got {width}"
                            )));
                        }
                    }
                    other => return Err(CliError(format!("unknown flag {other:?}"))),
                }
                i += 1;
            }
            if tables.is_empty() {
                return Err(CliError("at least one --table is required".into()));
            }
            if cmd == "schema" {
                Ok(Command::Schema { tables })
            } else {
                let sql = sql.ok_or_else(|| CliError("--sql is required".into()))?;
                Ok(Command::Explain {
                    tables,
                    sql,
                    sample,
                    top,
                    json,
                    width,
                    exec,
                    trace,
                })
            }
        }
        other => Err(CliError(format!(
            "unknown command {other:?} (try `fedex help`)"
        ))),
    }
}

fn load_catalog(tables: &[(String, String)]) -> Result<Catalog, CliError> {
    let mut catalog = Catalog::new();
    for (name, path) in tables {
        let df = read_csv(path).map_err(|e| CliError(format!("loading {path:?}: {e}")))?;
        catalog.register(name.clone(), df);
    }
    Ok(catalog)
}

/// Execute a command, returning the text to print.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Schema { tables } => {
            let catalog = load_catalog(&tables)?;
            let mut out = String::new();
            for (name, _) in &tables {
                let df = catalog.get(name).map_err(|e| CliError(e.to_string()))?;
                let _ = writeln!(out, "{name}: {} rows, schema {}", df.n_rows(), df.schema());
            }
            Ok(out)
        }
        Command::Explain {
            tables,
            sql,
            sample,
            top,
            json,
            width,
            exec,
            trace,
        } => {
            let catalog = load_catalog(&tables)?;
            let step = parse_query(&sql)
                .map_err(|e| CliError(format!("parsing query: {e}")))?
                .to_step(&catalog)
                .map_err(|e| CliError(format!("running query: {e}")))?;
            let fedex = Fedex::with_config(FedexConfig {
                sample_size: sample,
                top_k_explanations: top,
                execution: exec,
                ..Default::default()
            });
            let (explanations, stage_reports) = if trace {
                fedex
                    .explain_traced(&step)
                    .map_err(|e| CliError(format!("explaining: {e}")))?
            } else {
                (
                    fedex
                        .explain(&step)
                        .map_err(|e| CliError(format!("explaining: {e}")))?,
                    Vec::new(),
                )
            };
            if json {
                // Keep --json machine-parseable: with --trace the output
                // becomes one object embedding the trace, never a JSON
                // array followed by loose text.
                return Ok(if trace {
                    let mut out = format!(
                        "{{\"explanations\":{},\"trace\":",
                        to_json_array(&explanations)
                    );
                    write_stage_trace_json(&mut out, &stage_reports);
                    out.push('}');
                    out
                } else {
                    to_json_array(&explanations)
                });
            }
            let mut out = if explanations.is_empty() {
                "no explanation: no set-of-rows positively contributes to any \
                    interesting column"
                    .to_string()
            } else {
                render_all(&explanations, width)
            };
            if trace {
                out.push_str("\n-- pipeline trace --\n");
                for r in &stage_reports {
                    let _ = writeln!(out, "{}", r.describe());
                }
            }
            Ok(out)
        }
        Command::Serve {
            config,
            cache_mb,
            exec,
            slow_ms,
            no_obs,
        } => {
            use std::sync::Arc;
            let cache = Arc::new(fedex_core::ArtifactCache::with_budget(
                cache_mb.max(1) * 1024 * 1024,
            ));
            let fedex = Fedex::new().with_execution(exec);
            let manager = fedex_core::SessionManager::new(fedex, cache);
            let service = Arc::new(if no_obs {
                fedex_serve::ExplainService::with_obs(manager, None)
            } else {
                fedex_serve::ExplainService::new(manager)
            });
            service.set_slow_explain_ms(slow_ms);
            let server = fedex_serve::Server::bind(&config, service)
                .map_err(|e| CliError(format!("binding {}: {e}", config.addr)))?;
            let local = server
                .local_addr()
                .map_err(|e| CliError(format!("local addr: {e}")))?;
            // Announce readiness on stderr *before* blocking, so scripts
            // (and the CI smoke job) can wait for this line.
            eprintln!(
                "fedex-serve listening on {local} ({} workers, cache budget \
                 {cache_mb} MiB, queue depth {}, session quota {}, \
                 default deadline {} ms)",
                config.workers,
                config.queue_depth,
                config.session_quota,
                config.default_deadline_ms
            );
            server
                .run()
                .map_err(|e| CliError(format!("server error: {e}")))?;
            Ok(format!("server on {local} stopped"))
        }
        Command::Client {
            addr,
            request,
            retries,
            retry_budget_ms,
        } => {
            if retries == 0 {
                let mut client = fedex_serve::Client::connect(&addr)
                    .map_err(|e| CliError(format!("connecting to {addr}: {e}")))?;
                return client
                    .request_raw(&request)
                    .map_err(|e| CliError(format!("request failed: {e}")));
            }
            let policy = fedex_serve::RetryPolicy {
                retries,
                budget: std::time::Duration::from_millis(retry_budget_ms),
                ..Default::default()
            };
            fedex_serve::Client::request_with_retry(&addr, &request, &policy)
                .map_err(|e| CliError(format!("request failed after retries: {e}")))
        }
        Command::Demo => {
            let spotify = fedex_data::spotify::generate(10_000, 42);
            let mut catalog = Catalog::new();
            catalog.register("spotify", spotify);
            let step = parse_query("SELECT * FROM spotify WHERE popularity > 65")
                .expect("demo query parses")
                .to_step(&catalog)
                .expect("demo query runs");
            let fedex = Fedex::with_config(FedexConfig {
                sample_size: Some(5_000),
                top_k_explanations: Some(2),
                ..Default::default()
            });
            let explanations = fedex
                .explain(&step)
                .map_err(|e| CliError(format!("explaining: {e}")))?;
            Ok(format!(
                "demo: SELECT * FROM spotify WHERE popularity > 65 \
                 ({} → {} rows)\n\n{}",
                step.inputs[0].n_rows(),
                step.output.n_rows(),
                render_all(&explanations, 44)
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedex_serve::Json;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_explain() {
        let cmd = parse_args(&s(&[
            "explain",
            "--table",
            "songs=x.csv",
            "--sql",
            "SELECT * FROM songs WHERE a > 1",
            "--sample",
            "5000",
            "--top",
            "2",
            "--json",
            "--width",
            "60",
            "--exec",
            "serial",
            "--trace",
        ]))
        .unwrap();
        match cmd {
            Command::Explain {
                tables,
                sql,
                sample,
                top,
                json,
                width,
                exec,
                trace,
            } => {
                assert_eq!(tables, vec![("songs".to_string(), "x.csv".to_string())]);
                assert!(sql.contains("WHERE"));
                assert_eq!(sample, Some(5000));
                assert_eq!(top, Some(2));
                assert!(json);
                assert_eq!(width, 60);
                assert_eq!(exec, ExecutionMode::Serial);
                assert!(trace);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn width_is_bounded() {
        let explain = |width: String| {
            parse_args(&s(&[
                "explain",
                "--table",
                "t=t.csv",
                "--sql",
                "SELECT * FROM t WHERE a > 150",
                "--width",
                &width,
            ]))
        };
        assert!(explain(MAX_WIDTH.to_string()).is_ok());
        for bad in [(MAX_WIDTH + 1).to_string(), "100000000000".to_string()] {
            let e = explain(bad.clone()).expect_err(&bad);
            assert!(e.0.contains("--width"), "{e}");
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&s(&["explain", "--sql", "q"])).is_err()); // no table
        assert!(parse_args(&s(&["explain", "--table", "a=b.csv"])).is_err()); // no sql
        assert!(parse_args(&s(&["explain", "--table", "bad"])).is_err());
        assert!(parse_args(&s(&["explain", "--table", "a=b.csv", "--frob"])).is_err());
        assert!(parse_args(&s(&["wat"])).is_err());
        assert!(parse_args(&s(&["explain", "--table"])).is_err()); // dangling value
        assert!(parse_args(&s(&[
            "explain", "--table", "a=b.csv", "--sql", "q", "--exec", "wat"
        ]))
        .is_err());
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&s(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&s(&["--help"])).unwrap(), Command::Help);
        assert!(run(Command::Help).unwrap().contains("usage"));
    }

    #[test]
    fn parses_serve_and_client() {
        let cmd = parse_args(&s(&[
            "serve",
            "--addr",
            "127.0.0.1:9999",
            "--workers",
            "8",
            "--cache-mb",
            "64",
            "--queue-depth",
            "5",
            "--session-quota",
            "1",
            "--default-deadline-ms",
            "2500",
            "--write-timeout-ms",
            "750",
            "--exec",
            "serial",
            "--slow-ms",
            "250",
            "--no-obs",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                config: fedex_serve::ServerConfig {
                    addr: "127.0.0.1:9999".to_string(),
                    workers: 8,
                    queue_depth: 5,
                    session_quota: 1,
                    default_deadline_ms: 2500,
                    write_timeout_ms: 750,
                    ..fedex_serve::ServerConfig::default()
                },
                cache_mb: 64,
                exec: ExecutionMode::Serial,
                slow_ms: 250,
                no_obs: true,
            }
        );
        // Defaults.
        assert_eq!(
            parse_args(&s(&["serve"])).unwrap(),
            Command::Serve {
                config: fedex_serve::ServerConfig::default(),
                cache_mb: 1024,
                exec: ExecutionMode::default(),
                slow_ms: 0,
                no_obs: false,
            }
        );
        assert!(parse_args(&s(&["serve", "--slow-ms", "wat"])).is_err());
        let cmd = parse_args(&s(&[
            "client",
            "--addr",
            "127.0.0.1:9999",
            "--json",
            r#"{"cmd":"ping"}"#,
            "--retries",
            "3",
            "--retry-budget-ms",
            "1500",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Client {
                addr: "127.0.0.1:9999".to_string(),
                request: r#"{"cmd":"ping"}"#.to_string(),
                retries: 3,
                retry_budget_ms: 1500,
            }
        );
        assert!(parse_args(&s(&["client", "--json", "{}"])).is_err()); // no addr
        assert!(parse_args(&s(&["client", "--addr", "x:1"])).is_err()); // no json
        assert!(parse_args(&s(&[
            "client",
            "--addr",
            "x:1",
            "--json",
            "{}",
            "--retries",
            "x"
        ]))
        .is_err());
        assert!(parse_args(&s(&["serve", "--workers", "wat"])).is_err());
    }

    #[test]
    fn client_command_round_trips_against_a_server() {
        use std::sync::Arc;
        // Boot a real server on an ephemeral port via the serve crate,
        // then drive it through the CLI client command.
        let service = Arc::new(fedex_serve::ExplainService::default());
        let server = fedex_serve::Server::bind(
            &fedex_serve::ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                ..Default::default()
            },
            service,
        )
        .unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.addr().to_string();

        let out = run(Command::Client {
            addr: addr.clone(),
            request: r#"{"cmd":"register_demo","session":"s","rows":800,"seed":3}"#.to_string(),
            retries: 0,
            retry_budget_ms: 10_000,
        })
        .unwrap();
        assert!(out.contains("\"ok\":true"), "{out}");

        let out = run(Command::Client {
            addr: addr.clone(),
            request:
                r#"{"cmd":"explain","session":"s","sql":"SELECT * FROM spotify WHERE popularity > 65","top":2}"#
                    .to_string(),
            retries: 0,
            retry_budget_ms: 10_000,
        })
        .unwrap();
        assert!(out.contains("\"rendered\""), "{out}");

        let out = run(Command::Client {
            addr,
            request: r#"{"cmd":"metrics"}"#.to_string(),
            retries: 1,
            retry_budget_ms: 10_000,
        })
        .unwrap();
        assert!(out.contains("\"explains\":1"), "{out}");

        handle.stop().unwrap();
    }

    #[test]
    fn demo_runs_end_to_end() {
        let out = run(Command::Demo).unwrap();
        assert!(out.contains("Explanation 1"), "{out}");
        assert!(out.contains("2010s"), "{out}");
    }

    #[test]
    fn explain_over_real_csv_files() {
        let dir = std::env::temp_dir().join("fedex-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("songs.csv");
        let spotify = fedex_data::spotify::generate(2_000, 7);
        fedex_frame::write_csv(&spotify, &path).unwrap();

        let cmd = Command::Explain {
            tables: vec![("songs".to_string(), path.to_string_lossy().into_owned())],
            sql: "SELECT * FROM songs WHERE popularity > 65".to_string(),
            sample: None,
            top: Some(1),
            json: false,
            width: 40,
            exec: ExecutionMode::Serial,
            trace: true,
        };
        let out = run(cmd).unwrap();
        assert!(out.contains("Explanation 1"), "{out}");

        // JSON with --trace embeds the trace in one parseable object.
        let cmd = Command::Explain {
            tables: vec![("songs".to_string(), path.to_string_lossy().into_owned())],
            sql: "SELECT * FROM songs WHERE popularity > 65".to_string(),
            sample: None,
            top: Some(1),
            json: true,
            width: 40,
            exec: ExecutionMode::Serial,
            trace: true,
        };
        let out = run(cmd).unwrap();
        assert!(out.starts_with('{') && out.ends_with('}'), "{out}");
        assert!(out.contains("\"explanations\":["));
        assert!(out.contains("\"trace\":[{\"stage\":\"ScoreColumns\""));
        // Byte for byte the core writers' output: the spans, read back
        // and written again by `write_stage_trace_json`, give the same
        // object.
        let parsed = fedex_serve::json::parse(&out).unwrap();
        let leak = |j: &Json| -> &'static str { Box::leak(j.as_str().unwrap().into()) };
        let micros = |j: &Json| {
            std::time::Duration::from_micros(j.get("micros").and_then(Json::as_f64).unwrap() as u64)
        };
        let reports: Vec<fedex_core::StageReport> = parsed
            .get("trace")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|span| fedex_core::StageReport {
                stage: leak(span.get("stage").unwrap()),
                elapsed: micros(span),
                items: span.get("items").and_then(Json::as_usize).unwrap(),
                sub: (span.get("sub").and_then(Json::as_arr).unwrap().iter())
                    .map(|sub| (leak(sub.get("name").unwrap()), micros(sub)))
                    .collect(),
                artifacts: Vec::new(),
            })
            .collect();
        let mut want = format!(
            "{{\"explanations\":{},\"trace\":",
            parsed.get("explanations").unwrap()
        );
        write_stage_trace_json(&mut want, &reports);
        want.push('}');
        assert_eq!(out, want);

        // And the JSON path.
        let cmd = Command::Explain {
            tables: vec![("songs".to_string(), path.to_string_lossy().into_owned())],
            sql: "SELECT * FROM songs WHERE popularity > 65".to_string(),
            sample: Some(1_000),
            top: Some(1),
            json: true,
            width: 40,
            exec: ExecutionMode::Threads(2),
            trace: false,
        };
        let out = run(cmd).unwrap();
        assert!(out.starts_with('[') && out.ends_with(']'));
    }

    #[test]
    fn schema_command() {
        let dir = std::env::temp_dir().join("fedex-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, "a,b\n1,x\n2,y\n").unwrap();
        let cmd = Command::Schema {
            tables: vec![("t".to_string(), path.to_string_lossy().into_owned())],
        };
        let out = run(cmd).unwrap();
        assert!(out.contains("t: 2 rows"));
        assert!(out.contains("a: int"));
    }

    #[test]
    fn missing_file_reported() {
        let cmd = Command::Schema {
            tables: vec![("t".to_string(), "/nonexistent/file.csv".to_string())],
        };
        assert!(run(cmd).is_err());
    }
}
