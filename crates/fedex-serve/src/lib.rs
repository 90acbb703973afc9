//! # fedex-serve
//!
//! A concurrent explanation service over the FEDEX engine — the
//! "production-scale system serving heavy traffic" direction of the
//! roadmap, std-only (no crates.io in this environment).
//!
//! The paper frames FEDEX inside a single analyst's notebook loop; this
//! crate turns that loop into a shared service:
//!
//! * **sessions** — named, isolated catalogs + histories, managed by
//!   [`fedex_core::SessionManager`]; any number of clients explain
//!   concurrently;
//! * **cross-request artifact cache** — registered tables are
//!   content-fingerprinted *at register time*; their dictionary-coded
//!   frames, mined partitions and repeated steps' results are shared
//!   across requests and sessions ([`fedex_core::ArtifactCache`],
//!   cost-aware eviction), so warm explains skip both the encode work and
//!   the fingerprint re-scan that dominate a cold ScoreColumns stage;
//! * **admission scheduling** — heavy work (`explain`, `register`,
//!   `register_demo`) is admitted into one bounded queue with
//!   per-session quotas and explicit `overloaded` / `quota_exceeded`
//!   backpressure ([`sched`]), and every admitted request is its own job
//!   under its own deadline; control commands (`ping`, `metrics`, …) are
//!   answered on their connection thread, so they stay fast while long
//!   explains run;
//! * **transport** — newline-delimited JSON over TCP (one request object
//!   per line) with a minimal HTTP/1.1 fallback (`POST /api`,
//!   `GET /metrics`, `GET /healthz`, `GET /debug/requests`) on the same
//!   port; per-connection I/O threads feed the scheduler;
//! * **observability** — per-command/per-queue/per-stage latency
//!   histograms, request-scoped tracing (`"trace":true` on `explain`),
//!   Prometheus text exposition (`GET /metrics` with
//!   `Accept: text/plain`), and an always-on flight recorder dumpable
//!   via `debug_dump` / `GET /debug/requests` ([`fedex_obs`], wired in
//!   [`service`] and [`sched`]); see `docs/OBSERVABILITY.md`.
//!
//! The full wire protocol is documented in `docs/WIRE_PROTOCOL.md`; the
//! serving architecture in `docs/ARCHITECTURE.md`.
//!
//! ```no_run
//! use std::sync::Arc;
//! use fedex_serve::{json, Client, ExplainService, Server, ServerConfig};
//!
//! let service = Arc::new(ExplainService::default());
//! let config = ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     workers: 4,
//!     ..Default::default()
//! };
//! let server = Server::bind(&config, service).unwrap();
//! let handle = server.spawn().unwrap();
//!
//! let mut client = Client::connect(&handle.addr().to_string()).unwrap();
//! let resp = client
//!     .request(&json::parse(r#"{"cmd":"register_demo","session":"s","rows":1000}"#).unwrap())
//!     .unwrap();
//! assert_eq!(resp.get("ok"), Some(&json::Json::Bool(true)));
//! handle.stop().unwrap();
//! ```
//!
//! Determinism contract: explanations served over the wire are
//! byte-identical to the serial CLI path — the cache only memoizes pure
//! derivations, and the pipeline is deterministic under every execution
//! mode (pinned by the integration tests and the golden fixtures).

#![deny(missing_docs)]

pub mod client;
pub mod fault;
pub mod json;
pub mod sched;
pub mod server;
pub mod service;

pub use client::{Client, RetryPolicy};
pub use fault::FaultPlan;
pub use json::{Json, JsonError};
pub use sched::{SchedMetrics, SchedSnapshot, Scheduler, SchedulerConfig};
pub use server::{Server, ServerConfig, ServerHandle};
pub use service::{ExplainService, JobContext, ServerMetrics, ServerSnapshot};
