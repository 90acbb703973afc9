//! Notebook-style exploration sessions (§3.1's EDA model).
//!
//! The paper frames FEDEX inside a notebook loop: the analyst runs a query
//! over a previously-obtained dataframe, reads the explanation, and decides
//! the next step. [`Session`] materializes that loop: it owns a table
//! catalog, runs SQL steps against it, explains each step, records a
//! summary of each step in the history, and lets step outputs be saved
//! as new tables for follow-up queries.
//!
//! Only the current step's explanations are ever shown again, so a
//! session keeps one [`StepSummary`] per step and the explanations of its
//! last step only. A [`SessionManager`] also bounds what all of its
//! sessions retain together by one budget, [`SESSION_BUDGET`].
//!
//! With an [`ArtifactCache`] configured, a step whose operation, input
//! contents and output-shaping configuration repeat an earlier one is
//! answered from the cache's results namespace without running the
//! pipeline (see [`crate::cache`]); the session's last step then shares
//! the cached `Arc`.
//!
//! ```
//! use fedex_core::session::Session;
//! use fedex_core::Fedex;
//! use fedex_frame::{Column, DataFrame};
//!
//! let songs = DataFrame::new(vec![
//!     Column::from_ints("popularity", vec![80, 20, 75, 10, 90, 15]),
//!     Column::from_strs("decade", vec!["2010s", "1970s", "2010s", "1970s", "2010s", "1980s"]),
//! ]).unwrap();
//!
//! let mut session = Session::new(Fedex::new());
//! session.register("songs", songs);
//! let entry = session.run("SELECT * FROM songs WHERE popularity > 65").unwrap();
//! assert_eq!(entry.summary.n_rows_out, 3);
//! assert_eq!(session.history().len(), 1);
//! assert_eq!(session.history()[0].n_explanations, entry.explanations.len());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::{Duration, Instant};

use fedex_frame::{DataFrame, Fingerprint};
use fedex_query::{parse_query, Catalog, ExploratoryStep};

use crate::cache::{results_key, ArtifactCache};
use crate::cancel::CancelToken;
use crate::explain::{Explanation, Fedex, FedexConfig};
use crate::ExplainError;
use crate::Result;
use crate::StageReport;

/// Bytes the sessions of one [`SessionManager`] may retain together:
/// their catalog tables ([`DataFrame::approx_bytes`]), step summaries,
/// last explanations, and a fixed charge per session. One budget bounds
/// both how many sessions there are and how large they grow. It is sized
/// so the largest table the server accepts fits one session: a 5M-row
/// spotify `register_demo` estimates 1.71 GB, and a 64 MiB inline
/// `register` at most about 0.7 GB.
pub const SESSION_BUDGET: usize = 2 << 30;

/// The stage name of the one-entry trace of a step answered from the
/// artifact cache's results.
pub const RESULTS_STAGE: &str = "Results";

/// The fixed charge per session: its map slot, explainer configuration
/// and empty catalog.
const SESSION_BYTES: usize = 4 << 10;

/// Take a read lock, clearing poison. A panic inside an explain is
/// isolated by the serving layer's `catch_unwind`; session state is never
/// left mid-mutation by one (the catalog and history are only touched
/// *after* the explain returned), so recovering the guard is sound — the
/// alternative is every later request on the session failing forever.
fn read_recover<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Take a write lock, clearing poison (see [`read_recover`]).
fn write_recover<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// How often a run waiting for a busy session looks at its cancel token.
const LOCK_POLL: Duration = Duration::from_millis(2);

/// [`write_recover`] for a run under `cancel`: it stops waiting once the
/// token trips, and checks it again once it holds the lock, so a run whose
/// waiter left neither holds a worker nor executes its step.
fn write_cancellable<'a, T>(
    lock: &'a RwLock<T>,
    cancel: &CancelToken,
) -> Result<RwLockWriteGuard<'a, T>> {
    loop {
        match lock.try_write() {
            Ok(guard) => return cancel.check().map(|()| guard),
            Err(TryLockError::Poisoned(p)) => return cancel.check().map(|()| p.into_inner()),
            Err(TryLockError::WouldBlock) => cancel.check()?,
        }
        std::thread::sleep(LOCK_POLL);
    }
}

/// One executed-and-explained step, as the history keeps it: no frames
/// and no explanations, so a long session's history stays small.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepSummary {
    /// The SQL text as submitted.
    pub sql: String,
    /// Row count of the step's first input.
    pub n_rows_in: usize,
    /// Row count of the step's output.
    pub n_rows_out: usize,
    /// How many explanations FEDEX found for the step.
    pub n_explanations: usize,
    /// The catalog name the output was saved under, when saved.
    pub saved_as: Option<String>,
}

impl StepSummary {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.sql.len() + self.saved_as.as_ref().map_or(0, String::len)
    }
}

/// The last step of a session: its summary plus its explanations, which
/// every clone shares with the session.
#[derive(Debug, Clone)]
pub struct SessionEntry {
    /// The step's history entry.
    pub summary: StepSummary,
    /// FEDEX's explanations for the step.
    pub explanations: Arc<[Explanation]>,
}

/// An interactive exploration session: catalog + explainer + history.
#[derive(Debug, Clone)]
pub struct Session {
    catalog: Catalog,
    fedex: Fedex,
    history: Vec<StepSummary>,
    /// The last step's explanations (empty before the first step).
    last: Arc<[Explanation]>,
    /// Estimated bytes of each catalog table, by name.
    table_bytes: HashMap<String, usize>,
    /// Estimated bytes of `history`.
    history_bytes: usize,
    /// Estimated bytes of `last`.
    last_bytes: usize,
    /// The most this session may retain: a register or `save_as` that
    /// would take it further is refused. Unbounded outside a manager.
    budget: usize,
}

impl Default for Session {
    fn default() -> Self {
        Session::new(Fedex::default())
    }
}

impl Session {
    /// Start a session with the given explainer configuration.
    pub fn new(fedex: Fedex) -> Self {
        Session {
            catalog: Catalog::new(),
            fedex,
            history: Vec::new(),
            last: Arc::new([]),
            table_bytes: HashMap::new(),
            history_bytes: 0,
            last_bytes: 0,
            budget: usize::MAX,
        }
    }

    /// Register (or replace) a table.
    pub fn register(&mut self, name: impl Into<String>, df: DataFrame) {
        let bytes = df.approx_bytes();
        self.insert_table(name.into(), df, bytes);
    }

    /// The current table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Run one exploratory step and explain it; its summary is appended
    /// to the history and the step returned.
    pub fn run(&mut self, sql: &str) -> Result<SessionEntry> {
        self.run_traced_configured(sql, None, |_| {})
            .map(|(entry, _)| entry)
    }

    /// [`Session::run`], additionally saving the step's output dataframe
    /// in the catalog under `name` so later queries can build on it.
    pub fn run_and_save(&mut self, sql: &str, name: impl Into<String>) -> Result<SessionEntry> {
        self.run_traced_configured(sql, Some(name.into()), |_| {})
            .map(|(entry, _)| entry)
    }

    /// [`Session::run`] with per-stage wall-clock timings and per-run
    /// configuration grafted onto a clone of the session's explainer — the
    /// serving layer reports the timings, and uses the configuration to
    /// attach a cancellation token and a trace id without touching the
    /// session's base configuration.
    ///
    /// A step answered from the artifact cache's results reports one
    /// [`RESULTS_STAGE`] stage with a `("results", true)` cache event.
    pub fn run_traced_configured(
        &mut self,
        sql: &str,
        save_as: Option<String>,
        configure: impl FnOnce(&mut FedexConfig),
    ) -> Result<(SessionEntry, Vec<StageReport>)> {
        let step = self.execute(sql)?;
        let mut fedex = self.fedex.clone();
        configure(fedex.config_mut());
        let (explanations, trace) = explain_memoized(&fedex, &step)?;
        Ok((self.record(sql, step, explanations, save_as)?, trace))
    }

    fn execute(&self, sql: &str) -> Result<ExploratoryStep> {
        parse_query(sql)
            .map_err(ExplainError::from)?
            .to_step(&self.catalog)
            .map_err(ExplainError::from)
    }

    fn insert_table(&mut self, name: String, df: DataFrame, bytes: usize) {
        self.table_bytes.insert(name.clone(), bytes);
        self.catalog.register(name, df);
    }

    /// Bytes the session retains: its tables, summaries, last
    /// explanations, and the fixed per-session charge.
    fn retained_bytes(&self) -> usize {
        SESSION_BYTES
            + self.table_bytes.values().sum::<usize>()
            + self.history_bytes
            + self.last_bytes
    }

    /// [`Session::retained_bytes`] with table `name` (re)registered at
    /// `bytes`.
    fn retained_with_table(&self, name: &str, bytes: usize) -> usize {
        self.retained_bytes() + bytes - self.table_bytes.get(name).copied().unwrap_or(0)
    }

    /// Register a table whose size the caller estimated, unless that
    /// would take the session past its budget; then nothing changes.
    fn try_register(&mut self, name: String, df: DataFrame, bytes: usize) -> Result<()> {
        let needed = self.retained_with_table(&name, bytes);
        if needed > self.budget {
            return Err(ExplainError::SessionFull {
                needed,
                budget: self.budget,
            });
        }
        self.insert_table(name, df, bytes);
        Ok(())
    }

    /// Append the step's summary and keep its explanations as the last
    /// step's, dropping the previous step's. A `save_as` that would take
    /// the session past its budget records nothing.
    fn record(
        &mut self,
        sql: &str,
        step: ExploratoryStep,
        explanations: Arc<[Explanation]>,
        save_as: Option<String>,
    ) -> Result<SessionEntry> {
        let summary = StepSummary {
            sql: sql.to_string(),
            n_rows_in: step.inputs[0].n_rows(),
            n_rows_out: step.output.n_rows(),
            n_explanations: explanations.len(),
            saved_as: save_as,
        };
        let history_bytes = self.history_bytes + summary.approx_bytes();
        let last_bytes = explanations.iter().map(Explanation::approx_bytes).sum();
        if let Some(name) = &summary.saved_as {
            let bytes = step.output.approx_bytes();
            let needed =
                self.retained_with_table(name, bytes) - self.history_bytes - self.last_bytes
                    + history_bytes
                    + last_bytes;
            if needed > self.budget {
                return Err(ExplainError::SessionFull {
                    needed,
                    budget: self.budget,
                });
            }
            self.insert_table(name.clone(), step.output, bytes);
        }
        self.history_bytes = history_bytes;
        self.last_bytes = last_bytes;
        self.last = explanations;
        self.history.push(summary.clone());
        Ok(SessionEntry {
            summary,
            explanations: self.last.clone(),
        })
    }

    /// Summaries of all executed steps, in order.
    pub fn history(&self) -> &[StepSummary] {
        &self.history
    }

    /// The most recent step with its explanations, if any.
    pub fn last(&self) -> Option<SessionEntry> {
        self.history.last().map(|summary| SessionEntry {
            summary: summary.clone(),
            explanations: self.last.clone(),
        })
    }

    /// Render the most recent step's explanations as terminal text.
    pub fn render_last(&self, width: usize) -> String {
        match self.history.last() {
            None => "(no steps executed)".to_string(),
            Some(step) if self.last.is_empty() => {
                format!("{}\n(no explanation: nothing deviates)", step.sql)
            }
            Some(step) => {
                format!(
                    "{}\n{}",
                    step.sql,
                    crate::explain::render_all(&self.last, width)
                )
            }
        }
    }
}

/// Explain `step` under `fedex`, answering a repeat from the configured
/// artifact cache's results (see [`crate::cache`]). A miss runs the
/// pipeline, and inserts its result when ScoreColumns found every input's
/// coded frame cached: the inputs' second sighting, the rule partition
/// lists follow too.
fn explain_memoized(
    fedex: &Fedex,
    step: &ExploratoryStep,
) -> Result<(Arc<[Explanation]>, Vec<StageReport>)> {
    let Some(cache) = fedex.config().artifact_cache.as_deref() else {
        let (explanations, trace) = fedex.explain_traced(step)?;
        return Ok((explanations.into(), trace));
    };
    let t = Instant::now();
    let key = results_key(step, fedex.config());
    if let Some(hit) = cache.get_results(key) {
        let report = StageReport {
            stage: RESULTS_STAGE,
            elapsed: t.elapsed(),
            items: hit.len(),
            sub: Vec::new(),
            artifacts: vec![("results".to_string(), true)],
        };
        return Ok((hit, vec![report]));
    }
    let t_pipeline = Instant::now();
    let (explanations, trace) = fedex.explain_traced(step)?;
    let explanations: Arc<[Explanation]> = explanations.into();
    // ScoreColumns reports one `frame[i]` event per input, and only those.
    let seen_before = trace
        .iter()
        .filter(|r| r.stage == "ScoreColumns")
        .flat_map(|r| &r.artifacts)
        .all(|&(_, hit)| hit);
    if seen_before {
        cache.put_results(key, explanations.clone(), t_pipeline.elapsed());
    }
    Ok((explanations, trace))
}

/// One session in a [`SessionManager`], with what the budget needs to
/// know about it kept outside the session lock.
#[derive(Debug)]
struct Slot {
    session: RwLock<Session>,
    /// The session's retained bytes, as last settled.
    bytes: AtomicUsize,
    /// The manager's clock when a request last used the session.
    last_used: AtomicU64,
}

/// A reading of a [`SessionManager`]'s session gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions held.
    pub sessions: usize,
    /// Bytes they retain together.
    pub bytes: usize,
    /// Sessions evicted to get back within the budget, ever.
    pub evictions: u64,
    /// The budget ([`SESSION_BUDGET`]).
    pub budget: usize,
}

/// A concurrent multi-session manager: the shared state behind the
/// `fedex-serve` server and the CLI's `serve` subcommand.
///
/// Each named session owns its catalog and history ([`Session`]) behind a
/// `RwLock`, so independent sessions explain fully in parallel and readers
/// of one session (history, rendering) never block each other. All
/// sessions share one cross-request [`ArtifactCache`]: tables registered
/// with equal content — in the *same or different* sessions — are encoded
/// once, and every later explain over them skips the encode work.
///
/// Only a register creates a session. What the sessions retain together
/// is bounded by [`SESSION_BUDGET`]: after a register or an explain takes
/// the total past it, the least recently used *idle* sessions (no request
/// holds them) are evicted until it fits again, and a register or
/// `save_as` that would by itself take its own session past the budget is
/// refused with [`ExplainError::SessionFull`].
///
/// Explanations are byte-identical to a standalone [`Session`]: the cache
/// only memoizes pure derivations (see [`crate::cache`]).
#[derive(Debug)]
pub struct SessionManager {
    template: Fedex,
    cache: Arc<ArtifactCache>,
    sessions: RwLock<HashMap<String, Arc<Slot>>>,
    budget: usize,
    /// Sum of every slot's `bytes`.
    bytes: AtomicUsize,
    /// Ticks once per session use; orders `Slot::last_used`.
    clock: AtomicU64,
    evictions: AtomicU64,
}

impl Default for SessionManager {
    fn default() -> Self {
        SessionManager::new(Fedex::new(), Arc::new(ArtifactCache::default()))
    }
}

impl SessionManager {
    /// A manager whose sessions explain with `fedex`'s configuration and
    /// share `cache` across requests.
    pub fn new(fedex: Fedex, cache: Arc<ArtifactCache>) -> Self {
        SessionManager::with_budget(fedex, cache, SESSION_BUDGET)
    }

    fn with_budget(fedex: Fedex, cache: Arc<ArtifactCache>, budget: usize) -> Self {
        SessionManager {
            template: fedex.with_cache(cache.clone()),
            cache,
            sessions: RwLock::new(HashMap::new()),
            budget,
            bytes: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The shared artifact cache (for metrics endpoints and tests).
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// The session named `name`, if it exists, stamped as used. Callers
    /// lock it for as long as one logical operation needs; holding the
    /// handle keeps it from being evicted.
    fn session(&self, name: &str) -> Option<Arc<Slot>> {
        // Clone the handle and release the map guard *before* waiting on
        // the session lock — holding the map read guard while a busy
        // session finishes its explain would queue a writer behind it
        // and stall every other session's traffic.
        let slot = read_recover(&self.sessions).get(name).cloned()?;
        self.touch(&slot);
        Some(slot)
    }

    fn touch(&self, slot: &Slot) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        slot.last_used.store(now, Ordering::Relaxed);
    }

    /// Names of all sessions, sorted (deterministic for listings).
    pub fn session_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_recover(&self.sessions).keys().cloned().collect();
        names.sort();
        names
    }

    /// The session gauges: count, retained bytes, evictions, budget.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            sessions: read_recover(&self.sessions).len(),
            bytes: self.bytes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            budget: self.budget,
        }
    }

    /// Register (or replace) a table in one session's catalog, creating
    /// the session on first use.
    ///
    /// The table's content [`Fingerprint`] and its size estimate are
    /// computed here, once, **outside** the session lock — frames memoize
    /// their digest and clones share the memo, so every later explain over
    /// this table reads the register-time digest in O(1) instead of
    /// re-scanning the full content (previously the ~0.13s residue of a
    /// warm 1M-row ScoreColumns). Returns the digest so wire surfaces can
    /// echo it, or [`ExplainError::SessionFull`] when the table would by
    /// itself take the session past the budget; the session, or its
    /// absence, is then left unchanged.
    pub fn register(
        &self,
        session: &str,
        table: impl Into<String>,
        df: DataFrame,
    ) -> Result<Fingerprint> {
        let fp = df.fingerprint();
        let bytes = df.approx_bytes();
        // Refused before a new session is created for it.
        if SESSION_BYTES + bytes > self.budget {
            return Err(ExplainError::SessionFull {
                needed: SESSION_BYTES + bytes,
                budget: self.budget,
            });
        }
        let slot = match self.session(session) {
            Some(slot) => slot,
            None => self.create(session),
        };
        {
            let mut s = write_recover(&slot.session);
            s.try_register(table.into(), df, bytes)?;
            self.settle(&slot, &s);
        }
        // Still holding `slot`: the session just registered into is never
        // the one evicted for it.
        self.evict_over_budget();
        Ok(fp)
    }

    fn create(&self, name: &str) -> Arc<Slot> {
        let mut map = write_recover(&self.sessions);
        let slot = map
            .entry(name.to_string())
            .or_insert_with(|| {
                self.bytes.fetch_add(SESSION_BYTES, Ordering::Relaxed);
                Arc::new(Slot {
                    session: RwLock::new(Session {
                        budget: self.budget,
                        ..Session::new(self.template.clone())
                    }),
                    bytes: AtomicUsize::new(SESSION_BYTES),
                    last_used: AtomicU64::new(0),
                })
            })
            .clone();
        self.touch(&slot);
        slot
    }

    /// Re-read what `session` retains into its slot and the manager's
    /// total. The caller holds the session's write lock, so the updates
    /// of one session never interleave.
    fn settle(&self, slot: &Slot, session: &Session) {
        let now = session.retained_bytes();
        let before = slot.bytes.swap(now, Ordering::Relaxed);
        if now >= before {
            self.bytes.fetch_add(now - before, Ordering::Relaxed);
        } else {
            self.bytes.fetch_sub(before - now, Ordering::Relaxed);
        }
    }

    /// While the total is over budget, evict the least recently used idle
    /// session. Idle means the map holds the only handle: no request is
    /// using the session, and none can pick it up while the map's write
    /// lock is held.
    fn evict_over_budget(&self) {
        if self.bytes.load(Ordering::Relaxed) <= self.budget {
            return;
        }
        let mut map = write_recover(&self.sessions);
        let mut idle: Vec<(u64, String)> = map
            .iter()
            .filter(|(_, slot)| Arc::strong_count(slot) == 1)
            .map(|(name, slot)| (slot.last_used.load(Ordering::Relaxed), name.clone()))
            .collect();
        idle.sort_unstable();
        for (_, name) in idle {
            if self.bytes.load(Ordering::Relaxed) <= self.budget {
                break;
            }
            if let Some(slot) = map.remove(&name) {
                self.bytes
                    .fetch_sub(slot.bytes.load(Ordering::Relaxed), Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Run-and-explain one SQL step in a session; the step is recorded in
    /// that session's history and returned, sharing the session's copy of
    /// its explanations. `save_as` additionally registers the step's
    /// output under that catalog name.
    pub fn run(&self, session: &str, sql: &str, save_as: Option<&str>) -> Result<SessionEntry> {
        self.run_traced_configured(session, sql, save_as, None, |_| {})
            .map(|(entry, _)| entry)
    }

    /// Run one traced step under `cancel`, with per-run configuration
    /// grafted onto the run (see [`Session::run_traced_configured`]) — how
    /// the serving layer attaches deadlines and trace ids. The token also
    /// ends a wait for the session, which another run may hold. An unknown
    /// session fails as an empty one would, and is not created.
    pub fn run_traced_configured(
        &self,
        session: &str,
        sql: &str,
        save_as: Option<&str>,
        cancel: Option<CancelToken>,
        configure: impl FnOnce(&mut FedexConfig),
    ) -> Result<(SessionEntry, Vec<StageReport>)> {
        let token = cancel.clone();
        let configure = |config: &mut FedexConfig| {
            config.cancel = token;
            configure(config);
        };
        let Some(slot) = self.session(session) else {
            // An unknown session has an empty catalog: the step fails as
            // it would in a new session, and none is created.
            return Session::new(self.template.clone()).run_traced_configured(sql, None, configure);
        };
        let out = {
            let mut s = match &cancel {
                Some(cancel) => write_cancellable(&slot.session, cancel)?,
                None => write_recover(&slot.session),
            };
            let out = s.run_traced_configured(sql, save_as.map(str::to_string), configure)?;
            self.settle(&slot, &s);
            out
        };
        self.evict_over_budget();
        Ok(out)
    }

    /// A clone of one session's history (empty for an unknown session).
    pub fn history(&self, session: &str) -> Vec<StepSummary> {
        self.history_with(session, <[StepSummary]>::to_vec)
    }

    /// Read one session's history in place (no clones); `f` sees an empty
    /// slice for an unknown session.
    pub fn history_with<R>(&self, session: &str, f: impl FnOnce(&[StepSummary]) -> R) -> R {
        match self.session(session) {
            None => f(&[]),
            Some(slot) => f(read_recover(&slot.session).history()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedex_frame::{Column, DataFrame};

    fn songs() -> DataFrame {
        let mut decade = Vec::new();
        let mut pop = Vec::new();
        let mut year = Vec::new();
        for i in 0..120i64 {
            let d = if i % 4 == 0 { "2010s" } else { "1970s" };
            decade.push(d);
            pop.push(if d == "2010s" {
                70 + i % 25
            } else {
                20 + i % 30
            });
            year.push(if d == "2010s" {
                2010 + i % 8
            } else {
                1970 + i % 8
            });
        }
        DataFrame::new(vec![
            Column::from_strs("decade", decade),
            Column::from_ints("popularity", pop),
            Column::from_ints("year", year),
        ])
        .unwrap()
    }

    #[test]
    fn session_runs_and_records_history() {
        let mut s = Session::new(Fedex::new());
        s.register("songs", songs());
        let entry = s.run("SELECT * FROM songs WHERE popularity > 65").unwrap();
        assert_eq!(entry.summary.n_rows_in, 120);
        assert!(!entry.explanations.is_empty());
        assert!(entry.summary.saved_as.is_none());

        let second = s
            .run("SELECT mean(popularity) FROM songs GROUP BY decade")
            .unwrap();
        assert_eq!(s.history().len(), 2);
        assert!(s.last().unwrap().summary.sql.contains("GROUP BY"));
        // The history counts every step's explanations; only the last
        // step's are kept, and the session shares them with its caller.
        assert_eq!(s.history()[0].n_explanations, entry.explanations.len());
        assert_eq!(s.history()[1].n_explanations, second.explanations.len());
        assert!(Arc::ptr_eq(
            &s.last().unwrap().explanations,
            &second.explanations
        ));
        assert_eq!(s.history()[1], second.summary);
    }

    #[test]
    fn saved_outputs_are_queryable() {
        let mut s = Session::new(Fedex::new());
        s.register("songs", songs());
        s.run_and_save("SELECT * FROM songs WHERE popularity > 65", "popular")
            .unwrap();
        // Chain a second step over the saved output.
        let entry = s.run("SELECT * FROM popular WHERE year > 2012").unwrap();
        assert!(entry.summary.n_rows_in < 120);
        assert_eq!(s.history().len(), 2);
        assert_eq!(s.history()[0].saved_as.as_deref(), Some("popular"));
    }

    #[test]
    fn parse_errors_surface() {
        let mut s = Session::new(Fedex::new());
        s.register("songs", songs());
        assert!(s.run("SELEKT * FROM songs").is_err());
        assert!(s.run("SELECT * FROM nope WHERE x > 1").is_err());
        assert!(s.history().is_empty(), "failed steps are not recorded");
    }

    #[test]
    fn manager_shares_cache_across_sessions() {
        let mgr = SessionManager::default();
        mgr.register("a", "songs", songs()).unwrap();
        mgr.register("b", "songs", songs()).unwrap();
        let sql = "SELECT * FROM songs WHERE popularity > 65";
        let ea = mgr.run("a", sql, None).unwrap();
        let warm_before = mgr.cache().metrics().hits;
        let eb = mgr.run("b", sql, None).unwrap();
        // Session b's input has identical content → frame + kernel hits.
        assert!(mgr.cache().metrics().hits > warm_before);
        // ... and byte-identical explanations.
        assert_eq!(ea.explanations.len(), eb.explanations.len());
        for (x, y) in ea.explanations.iter().zip(eb.explanations.iter()) {
            assert_eq!(x.caption, y.caption);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        assert_eq!(mgr.session_names(), vec!["a", "b"]);
        assert_eq!(mgr.history("a").len(), 1);
        assert!(mgr.history("nope").is_empty());
        assert!(mgr.session_names().len() == 2, "reads create nothing");
    }

    #[test]
    fn manager_save_as_chains_steps() {
        let mgr = SessionManager::default();
        mgr.register("s", "songs", songs()).unwrap();
        mgr.run(
            "s",
            "SELECT * FROM songs WHERE popularity > 65",
            Some("popular"),
        )
        .unwrap();
        let entry = mgr
            .run("s", "SELECT * FROM popular WHERE year > 2012", None)
            .unwrap();
        assert!(entry.summary.n_rows_in < 120);
        assert_eq!(mgr.history("s").len(), 2);
    }

    #[test]
    fn render_last_formats() {
        let mut s = Session::new(Fedex::new());
        assert!(s.render_last(40).contains("no steps"));
        s.register("songs", songs());
        s.run("SELECT * FROM songs WHERE popularity > 65").unwrap();
        let text = s.render_last(40);
        assert!(text.contains("popularity > 65"));
        assert!(text.contains("Explanation 1"));
    }
    const FILTER: &str = "SELECT * FROM songs WHERE popularity > 65";

    #[test]
    fn manager_run_shares_the_last_explanations() {
        let mgr = SessionManager::default();
        mgr.register("s", "songs", songs()).unwrap();
        let entry = mgr.run("s", FILTER, None).unwrap();
        let slot = mgr.session("s").unwrap();
        let last = read_recover(&slot.session).last().unwrap();
        assert!(Arc::ptr_eq(&entry.explanations, &last.explanations));
        assert_eq!(entry.summary, last.summary);
    }

    #[test]
    fn a_repeated_step_is_answered_from_the_cached_result() {
        let cache = Arc::new(ArtifactCache::default());
        let mut s = Session::new(Fedex::new().with_cache(cache.clone()));
        s.register("songs", songs());
        let results = |trace: &[StageReport]| cache_events(trace, "results");
        // Cold, then a run whose input frame hits: it admits its result.
        let (cold, trace) = s.run_traced_configured(FILTER, None, |_| {}).unwrap();
        assert!(trace.len() > 1 && results(&trace).is_empty(), "{trace:?}");
        let (_, trace) = s.run_traced_configured(FILTER, None, |_| {}).unwrap();
        assert!(trace.len() > 1 && results(&trace).is_empty(), "{trace:?}");

        let (hit, trace) = s
            .run_traced_configured(FILTER, Some("popular".to_string()), |_| {})
            .unwrap();
        assert_eq!(trace.len(), 1, "{trace:?}");
        assert_eq!(trace[0].stage, RESULTS_STAGE);
        assert_eq!(trace[0].items, hit.explanations.len());
        assert_eq!(results(&trace), vec![true]);
        // The entry, the session's last step and the cache share one Arc.
        let key = results_key(&s.execute(FILTER).unwrap(), s.fedex.config());
        let cached = cache.get_results(key).expect("admitted on the second run");
        assert!(Arc::ptr_eq(&hit.explanations, &cached));
        assert!(Arc::ptr_eq(&s.last().unwrap().explanations, &cached));
        assert_eq!(hit.explanations.len(), cold.explanations.len());
        for (x, y) in hit.explanations.iter().zip(cold.explanations.iter()) {
            assert_eq!(
                (&x.caption, x.score.to_bits()),
                (&y.caption, y.score.to_bits())
            );
        }

        // The step still ran: its summary is right and `save_as` saved it.
        let summary = StepSummary {
            saved_as: Some("popular".to_string()),
            ..cold.summary.clone()
        };
        assert_eq!(hit.summary, summary);
        assert_eq!(s.history(), [cold.summary.clone(), cold.summary, summary]);
        assert_eq!(
            s.catalog().get("popular").unwrap().n_rows(),
            hit.summary.n_rows_out
        );
    }

    #[test]
    fn a_new_step_over_a_warm_frame_is_admitted_on_its_first_run() {
        let cache = Arc::new(ArtifactCache::default());
        let mut s = Session::new(Fedex::new().with_cache(cache.clone()));
        s.register("songs", songs());
        s.run(FILTER).unwrap();
        const OTHER: &str = "SELECT * FROM songs WHERE year > 2012";
        let (_, trace) = s.run_traced_configured(OTHER, None, |_| {}).unwrap();
        assert_eq!(cache_events(&trace, "frame[0]"), vec![true], "{trace:?}");
        assert_eq!(cache_events(&trace, "results"), Vec::<bool>::new());
        let key = results_key(&s.execute(OTHER).unwrap(), s.fedex.config());
        assert!(
            cache.get_results(key).is_some(),
            "admitted on its first run"
        );
        let (_, trace) = s.run_traced_configured(OTHER, None, |_| {}).unwrap();
        assert_eq!(cache_events(&trace, "results"), vec![true]);
    }

    #[test]
    fn a_step_over_a_fresh_input_is_not_admitted() {
        let cache = Arc::new(ArtifactCache::default());
        let mut s = Session::new(Fedex::new().with_cache(cache.clone()));
        s.register("songs", songs());
        s.run_traced_configured(FILTER, Some("last".to_string()), |_| {})
            .unwrap();
        // `last` holds the filter's output: no explain has encoded it yet.
        const ON_LAST: &str = "SELECT * FROM last WHERE year > 2012";
        let (_, trace) = s.run_traced_configured(ON_LAST, None, |_| {}).unwrap();
        assert_eq!(cache_events(&trace, "frame[0]"), vec![false], "{trace:?}");
        let key = results_key(&s.execute(ON_LAST).unwrap(), s.fedex.config());
        assert!(cache.get_results(key).is_none(), "a first sighting");
        // Its second run finds the frame and admits the result.
        s.run(ON_LAST).unwrap();
        assert!(cache.get_results(key).is_some());
    }

    /// The hit flags of `artifact` cache events across `trace`.
    fn cache_events(trace: &[StageReport], artifact: &str) -> Vec<bool> {
        trace
            .iter()
            .flat_map(|r| &r.artifacts)
            .filter(|(a, _)| a == artifact)
            .map(|&(_, hit)| hit)
            .collect()
    }

    #[test]
    fn explain_on_an_unknown_session_creates_nothing() {
        let mgr = SessionManager::default();
        let e = mgr.run("ghost", FILTER, None).unwrap_err();
        // The error an empty session gives: the table is unknown.
        assert!(e.to_string().contains("songs"), "{e}");
        assert!(mgr.session_names().is_empty());
        assert_eq!(mgr.stats().bytes, 0);
    }

    /// A manager whose budget holds one session of `songs()` that ran
    /// [`FILTER`] plus two and a half that did not, and the charge of
    /// one that did not.
    fn small_manager() -> (SessionManager, usize) {
        let one = SESSION_BYTES + songs().approx_bytes();
        let mut s = Session::new(Fedex::new());
        s.register("songs", songs());
        s.run(FILTER).unwrap();
        let budget = s.retained_bytes() + 2 * one + one / 2;
        let mgr =
            SessionManager::with_budget(Fedex::new(), Arc::new(ArtifactCache::default()), budget);
        (mgr, one)
    }

    #[test]
    fn over_budget_evicts_the_least_recently_used_idle_session() {
        let (mgr, one) = small_manager();
        mgr.register("a", "songs", songs()).unwrap();
        mgr.register("b", "songs", songs()).unwrap();
        mgr.register("c", "songs", songs()).unwrap();
        assert_eq!(mgr.stats().bytes, 3 * one);
        // Using "a" makes "b" the least recently used; the step fits.
        mgr.run("a", FILTER, None).unwrap();
        assert_eq!(mgr.stats().evictions, 0);
        mgr.register("d", "songs", songs()).unwrap();
        assert_eq!(mgr.session_names(), vec!["a", "c", "d"]);
        let stats = mgr.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= stats.budget, "{stats:?}");

        // A session a request holds is never evicted, however old: "a"
        // is now the least recently used, but it is held, so "c" goes.
        let held = mgr.session("a").unwrap();
        mgr.session("c").unwrap();
        mgr.session("d").unwrap();
        mgr.register("e", "songs", songs()).unwrap();
        assert_eq!(mgr.session_names(), vec!["a", "d", "e"]);
        assert_eq!(mgr.stats().evictions, 2);
        drop(held);
    }

    #[test]
    fn evicted_bytes_leave_the_total() {
        let (mgr, _) = small_manager();
        for name in ["a", "b", "c", "d", "e"] {
            mgr.register(name, "songs", songs()).unwrap();
            mgr.run(name, FILTER, None).unwrap();
        }
        let stats = mgr.stats();
        assert!(stats.bytes <= stats.budget, "{stats:?}");
        assert!(stats.sessions >= 1, "{stats:?}");
        assert_eq!(stats.sessions as u64 + stats.evictions, 5);
        let slots: usize = read_recover(&mgr.sessions)
            .values()
            .map(|slot| read_recover(&slot.session).retained_bytes())
            .sum();
        assert_eq!(stats.bytes, slots);
    }

    #[test]
    fn oversized_register_is_refused_and_changes_nothing() {
        let (mgr, _) = small_manager();
        let budget = mgr.stats().budget;
        let big = || {
            let rows: Vec<i64> = (0..(budget / 16) as i64).collect();
            DataFrame::new(vec![Column::from_ints("x", rows)]).unwrap()
        };
        // A new session is not created for a table that cannot fit.
        let e = mgr.register("s", "big", big()).unwrap_err();
        assert!(matches!(e, ExplainError::SessionFull { .. }), "{e}");
        assert!(mgr.session_names().is_empty());

        // An existing session keeps its catalog, history and charge.
        mgr.register("s", "songs", songs()).unwrap();
        mgr.run("s", FILTER, None).unwrap();
        let before = mgr.stats();
        let e = mgr.register("s", "songs", big()).unwrap_err();
        assert!(matches!(e, ExplainError::SessionFull { .. }), "{e}");
        assert_eq!(mgr.stats(), before);
        assert_eq!(mgr.history("s").len(), 1);
        mgr.run("s", FILTER, None)
            .expect("the old table is still there");
    }

    #[test]
    fn oversized_save_as_is_refused_and_records_nothing() {
        let one = SESSION_BYTES + songs().approx_bytes();
        // Room for one table, not for a copy of it as well.
        let mgr = SessionManager::with_budget(
            Fedex::new(),
            Arc::new(ArtifactCache::default()),
            one + one / 2,
        );
        mgr.register("s", "songs", songs()).unwrap();
        let before = mgr.stats();
        let e = mgr
            .run(
                "s",
                "SELECT * FROM songs WHERE popularity > 0",
                Some("copy"),
            )
            .unwrap_err();
        assert!(matches!(e, ExplainError::SessionFull { .. }), "{e}");
        assert_eq!(mgr.stats(), before);
        assert!(mgr.history("s").is_empty());
        assert!(mgr
            .run("s", "SELECT * FROM copy WHERE popularity > 0", None)
            .is_err());
    }
}
