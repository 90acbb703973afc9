//! The run loop shared by the single-client library workloads (`notebook`,
//! `cold_scale`): set-ups, the untraced run, and the traced run on fresh
//! state.

use std::time::Instant;

use fedex_core::{ArtifactCache, Fedex};
use fedex_frame::DataFrame;
use fedex_query::Catalog;

use crate::check::{digest, Check};
use crate::library::{explain, explain_traced, reference, Request};
use crate::report::{rss_mb, EndToEnd, HostWitness, Outcome, END_TO_END, PER_LAYER};
use crate::stats::{mean, ratio};
use crate::tracer::Tracer;
use crate::Args;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// A single-client workload on the library path.
pub trait Workload {
    type State;
    /// Requests (explains and registers) one pass of the sequence makes.
    fn attempted(&self) -> u64;
    /// Fresh state: tables generated and registered, the cache warmed.
    fn setup(&self) -> Result<Self::State, String>;
    fn cache<'s>(&self, state: &'s Self::State) -> &'s ArtifactCache;
    /// Replay the sequence, traced when `tr` is given; untraced register
    /// latencies go to `register_ms`.
    fn replay(
        &self,
        state: &mut Self::State,
        tr: Option<&mut Tracer>,
        check: &mut Check,
        register_ms: &mut Vec<f64>,
    ) -> SoloRun;
}

/// `--trace 0`: the end-to-end metrics of one untraced run after
/// `SETUP_REPEATS` set-ups. `--trace 1`: an untraced and a traced run,
/// each on fresh state, and the per-layer metrics.
pub fn run<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    let mut host = HostWitness::default();
    host.sample();
    let mut check = Check::default();

    if !args.trace {
        let mut e2e = EndToEnd::default();
        let mut state = None;
        for _ in 0..SETUP_REPEATS {
            drop(state.take());
            let start = Instant::now();
            state = Some(w.setup()?);
            e2e.setup_s.push(start.elapsed().as_secs_f64());
        }
        let mut state = state.expect("at least one set-up");
        let run = w.replay(&mut state, None, &mut check, &mut e2e.register_ms);
        e2e.busy_s =
            (run.explain_ms.iter().sum::<f64>() + e2e.register_ms.iter().sum::<f64>()) / 1e3;
        e2e.explain_ms = run.explain_ms.clone();
        host.sample();
        eprintln!(
            "perfbench: {} seed {} — {} explains, {} registers, host.calib_ms {:.2}",
            args.workload,
            args.seed,
            run.explain_ms.len(),
            e2e.register_ms.len(),
            host.ms()
        );
        return Ok(Outcome::new(
            &check.mismatches,
            w.attempted(),
            0,
            run.failed,
            &END_TO_END,
            &e2e.metrics(),
        ));
    }

    let mut state = w.setup()?;
    let before = (rss_mb(), w.cache(&state).metrics());
    let plain = w.replay(&mut state, None, &mut check, &mut Vec::new());
    let after = (rss_mb(), w.cache(&state).metrics());
    drop(state);

    let mut tr = Tracer::new();
    let mut state = w.setup()?;
    let traced = w.replay(&mut state, Some(&mut tr), &mut check, &mut Vec::new());
    check.same_runs(&plain.digests, &traced.digests);
    host.sample();

    let mut values = tr.layer_values();
    values.insert(
        "trace.overhead_frac",
        ratio(mean(&traced.explain_ms), mean(&plain.explain_ms)) - 1.0,
    );
    values.insert(
        "cache.evictions",
        (after.1.evictions - before.1.evictions) as f64,
    );
    values.insert(
        "cache.resident_mb",
        after.1.bytes as f64 / (1024.0 * 1024.0),
    );
    values.insert(
        "session.retained_mb_per_explain",
        ratio(after.0 - before.0, plain.explain_ms.len() as f64),
    );
    // Neither library workload repeats a step over the same tables.
    values.insert("workload.repeat_share", 0.0);
    values.insert("host.calib_ms", host.ms());
    tr.write_for(args);
    Ok(Outcome::new(
        &check.mismatches,
        2 * w.attempted(),
        0,
        plain.failed + traced.failed,
        &PER_LAYER,
        &values,
    ))
}

/// Measurements of one single-client sequence of library explains.
#[derive(Debug, Default)]
pub struct SoloRun {
    /// Digest per explain, in sequence order (`None` = the explain failed).
    pub digests: Vec<Option<u64>>,
    /// Wall time of every explain that succeeded, in ms.
    pub explain_ms: Vec<f64>,
    /// Explains that returned a typed error.
    pub failed: u64,
}

impl SoloRun {
    /// Run `req`, untraced or (with `tr`) traced, and compare the first
    /// explain of each kind with the reference. Returns the step's output.
    pub fn explain(
        &mut self,
        fedex: &Fedex,
        catalog: &Catalog,
        req: &Request,
        tr: Option<&mut Tracer>,
        check: &mut Check,
    ) -> Option<DataFrame> {
        let start = Instant::now();
        let result = match tr {
            None => explain(fedex, catalog, &req.sql),
            Some(tr) => explain_traced(fedex, catalog, &req.sql, &mut *tr).map(|t| {
                tr.explained(req.kind, t.stage_ms, t.unattributed_ms, t.inputs_cached);
                (t.json, t.output)
            }),
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok((json, output)) => {
                self.explain_ms.push(ms);
                self.digests.push(Some(digest(&json)));
                if check.first_of(req.kind) {
                    match reference(catalog, &req.sql) {
                        Ok(want) => check.expect_equal(&req.sql, &json, &want),
                        Err(e) => check
                            .mismatches
                            .push(format!("{}: reference failed: {e}", req.sql)),
                    }
                }
                Some(output)
            }
            Err(e) => {
                eprintln!("perfbench: explain failed ({}): {e}", req.sql);
                self.failed += 1;
                self.digests.push(None);
                None
            }
        }
    }
}
