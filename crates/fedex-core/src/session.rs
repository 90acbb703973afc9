//! Notebook-style exploration sessions (§3.1's EDA model).
//!
//! The paper frames FEDEX inside a notebook loop: the analyst runs a query
//! over a previously-obtained dataframe, reads the explanation, and decides
//! the next step. [`Session`] materializes that loop: it owns a table
//! catalog, runs SQL steps against it, explains each step, records the
//! a summary of each step in the history, and lets step outputs be saved
//! as new tables for follow-up queries.
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
//! assert_eq!(entry.n_rows_out, 3);
//! assert_eq!(session.history().len(), 1);
//! ```

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use fedex_query::{parse_query, Catalog, ExploratoryStep};

use crate::cache::ArtifactCache;
use crate::explain::{Explanation, Fedex, FedexConfig};
use crate::ExplainError;
use crate::Result;

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

/// One executed-and-explained step of a session: a summary, not the
/// step's frames, so a long session's history stays small.
#[derive(Debug, Clone)]
pub struct SessionEntry {
    /// The SQL text as submitted.
    pub sql: String,
    /// Row count of the step's first input.
    pub n_rows_in: usize,
    /// Row count of the step's output.
    pub n_rows_out: usize,
    /// FEDEX's explanations for the step.
    pub explanations: Vec<Explanation>,
    /// The catalog name the output was saved under, when saved.
    pub saved_as: Option<String>,
}

/// An interactive exploration session: catalog + explainer + history.
#[derive(Debug, Clone, Default)]
pub struct Session {
    catalog: Catalog,
    fedex: Fedex,
    history: Vec<SessionEntry>,
}

impl Session {
    /// Start a session with the given explainer configuration.
    pub fn new(fedex: Fedex) -> Self {
        Session {
            catalog: Catalog::new(),
            fedex,
            history: Vec::new(),
        }
    }

    /// Register (or replace) a table.
    pub fn register(&mut self, name: impl Into<String>, df: fedex_frame::DataFrame) {
        self.catalog.register(name, df);
    }

    /// The current table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Run one exploratory step and explain it; the entry is appended to
    /// the history and returned.
    pub fn run(&mut self, sql: &str) -> Result<&SessionEntry> {
        self.run_inner(sql, None)
    }

    /// [`Session::run`], additionally saving the step's output dataframe
    /// in the catalog under `name` so later queries can build on it.
    pub fn run_and_save(&mut self, sql: &str, name: impl Into<String>) -> Result<&SessionEntry> {
        self.run_inner(sql, Some(name.into()))
    }

    /// [`Session::run`] with per-stage wall-clock timings and per-run
    /// configuration grafted onto a clone of the session's explainer — the
    /// serving layer reports the timings, and uses the configuration to
    /// attach a cancellation token or downgrade one run to
    /// FEDEX-Sampling without touching the session's base configuration.
    pub fn run_traced_configured(
        &mut self,
        sql: &str,
        save_as: Option<String>,
        configure: impl FnOnce(&mut FedexConfig),
    ) -> Result<(&SessionEntry, Vec<crate::StageReport>)> {
        let step = self.execute(sql)?;
        let mut fedex = self.fedex.clone();
        configure(fedex.config_mut());
        let (explanations, trace) = fedex.explain_traced(&step)?;
        Ok((self.record(sql, step, explanations, save_as), trace))
    }

    fn run_inner(&mut self, sql: &str, save_as: Option<String>) -> Result<&SessionEntry> {
        let step = self.execute(sql)?;
        let explanations = self.fedex.explain(&step)?;
        Ok(self.record(sql, step, explanations, save_as))
    }

    fn execute(&self, sql: &str) -> Result<ExploratoryStep> {
        parse_query(sql)
            .map_err(ExplainError::from)?
            .to_step(&self.catalog)
            .map_err(ExplainError::from)
    }

    fn record(
        &mut self,
        sql: &str,
        step: ExploratoryStep,
        explanations: Vec<Explanation>,
        save_as: Option<String>,
    ) -> &SessionEntry {
        let n_rows_in = step.inputs[0].n_rows();
        let n_rows_out = step.output.n_rows();
        if let Some(name) = &save_as {
            self.catalog.register(name.clone(), step.output);
        }
        self.history.push(SessionEntry {
            sql: sql.to_string(),
            n_rows_in,
            n_rows_out,
            explanations,
            saved_as: save_as,
        });
        self.history.last().expect("just pushed")
    }

    /// All executed steps, in order.
    pub fn history(&self) -> &[SessionEntry] {
        &self.history
    }

    /// The most recent step, if any.
    pub fn last(&self) -> Option<&SessionEntry> {
        self.history.last()
    }

    /// Render the most recent step's explanations as terminal text.
    pub fn render_last(&self, width: usize) -> String {
        match self.last() {
            None => "(no steps executed)".to_string(),
            Some(entry) if entry.explanations.is_empty() => {
                format!("{}\n(no explanation: nothing deviates)", entry.sql)
            }
            Some(entry) => {
                format!(
                    "{}\n{}",
                    entry.sql,
                    crate::explain::render_all(&entry.explanations, width)
                )
            }
        }
    }
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
/// Explanations are byte-identical to a standalone [`Session`]: the cache
/// only memoizes pure derivations (see [`crate::cache`]).
#[derive(Debug)]
pub struct SessionManager {
    template: Fedex,
    cache: Arc<ArtifactCache>,
    sessions: RwLock<HashMap<String, Arc<RwLock<Session>>>>,
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
        SessionManager {
            template: fedex.with_cache(cache.clone()),
            cache,
            sessions: RwLock::new(HashMap::new()),
        }
    }

    /// The shared artifact cache (for metrics endpoints and tests).
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        &self.cache
    }

    /// The session named `name`, created empty on first use. The returned
    /// handle stays valid for the manager's lifetime; callers lock it for
    /// as long as one logical operation needs.
    pub fn session(&self, name: &str) -> Arc<RwLock<Session>> {
        if let Some(s) = read_recover(&self.sessions).get(name) {
            return s.clone();
        }
        let mut map = write_recover(&self.sessions);
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(RwLock::new(Session::new(self.template.clone()))))
            .clone()
    }

    /// Names of all sessions, sorted (deterministic for listings).
    pub fn session_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_recover(&self.sessions).keys().cloned().collect();
        names.sort();
        names
    }

    /// Register (or replace) a table in one session's catalog.
    ///
    /// The table's content [`fedex_frame::Fingerprint`] is computed here,
    /// once, **outside** the session lock — frames memoize their digest
    /// and clones share the memo, so every later explain over this table
    /// reads the register-time digest in O(1) instead of re-scanning the
    /// full content (previously the ~0.13s residue of a warm 1M-row
    /// ScoreColumns). Returns the digest so wire surfaces can echo it.
    pub fn register(
        &self,
        session: &str,
        table: impl Into<String>,
        df: fedex_frame::DataFrame,
    ) -> fedex_frame::Fingerprint {
        let fp = df.fingerprint();
        let s = self.session(session);
        let mut s = write_recover(&s);
        s.register(table, df);
        fp
    }

    /// Run-and-explain one SQL step in a session; the entry is recorded in
    /// that session's history and a clone returned. `save_as` additionally
    /// registers the step's output under that catalog name.
    pub fn run(&self, session: &str, sql: &str, save_as: Option<&str>) -> Result<SessionEntry> {
        let s = self.session(session);
        let mut s = write_recover(&s);
        let entry = match save_as {
            None => s.run(sql)?,
            Some(name) => s.run_and_save(sql, name)?,
        };
        Ok(entry.clone())
    }

    /// Run one traced step with per-run configuration grafted onto the
    /// run (see [`Session::run_traced_configured`]) and hand the recorded
    /// entry and stage timings to `f` — how the serving layer attaches
    /// deadlines, downgrades pressured runs to FEDEX-Sampling, and
    /// summarizes the entry without cloning its explanations.
    pub fn run_traced_configured_with<R>(
        &self,
        session: &str,
        sql: &str,
        save_as: Option<&str>,
        configure: impl FnOnce(&mut FedexConfig),
        f: impl FnOnce(&SessionEntry, &[crate::StageReport]) -> R,
    ) -> Result<R> {
        let s = self.session(session);
        let mut s = write_recover(&s);
        let (entry, trace) =
            s.run_traced_configured(sql, save_as.map(str::to_string), configure)?;
        Ok(f(entry, &trace))
    }

    /// A clone of one session's history (empty for an unknown session).
    pub fn history(&self, session: &str) -> Vec<SessionEntry> {
        self.history_with(session, <[SessionEntry]>::to_vec)
    }

    /// Read one session's history in place (no clones); `f` sees an empty
    /// slice for an unknown session.
    pub fn history_with<R>(&self, session: &str, f: impl FnOnce(&[SessionEntry]) -> R) -> R {
        // Clone the handle and release the map guard *before* waiting on
        // the session lock — holding the map read guard while a busy
        // session finishes its explain would queue `session()`'s writer
        // behind it and stall every other session's traffic.
        let handle = read_recover(&self.sessions).get(session).cloned();
        match handle {
            None => f(&[]),
            Some(s) => f(read_recover(&s).history()),
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
        assert_eq!(entry.n_rows_in, 120);
        assert!(!entry.explanations.is_empty());
        assert!(entry.saved_as.is_none());

        s.run("SELECT mean(popularity) FROM songs GROUP BY decade")
            .unwrap();
        assert_eq!(s.history().len(), 2);
        assert!(s.last().unwrap().sql.contains("GROUP BY"));
    }

    #[test]
    fn saved_outputs_are_queryable() {
        let mut s = Session::new(Fedex::new());
        s.register("songs", songs());
        s.run_and_save("SELECT * FROM songs WHERE popularity > 65", "popular")
            .unwrap();
        // Chain a second step over the saved output.
        let entry = s.run("SELECT * FROM popular WHERE year > 2012").unwrap();
        assert!(entry.n_rows_in < 120);
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
        mgr.register("a", "songs", songs());
        mgr.register("b", "songs", songs());
        let sql = "SELECT * FROM songs WHERE popularity > 65";
        let ea = mgr.run("a", sql, None).unwrap();
        let warm_before = mgr.cache().metrics().hits;
        let eb = mgr.run("b", sql, None).unwrap();
        // Session b's input has identical content → frame + kernel hits.
        assert!(mgr.cache().metrics().hits > warm_before);
        // ... and byte-identical explanations.
        assert_eq!(ea.explanations.len(), eb.explanations.len());
        for (x, y) in ea.explanations.iter().zip(&eb.explanations) {
            assert_eq!(x.caption, y.caption);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        assert_eq!(mgr.session_names(), vec!["a", "b"]);
        assert_eq!(mgr.history("a").len(), 1);
        assert!(mgr.history("nope").is_empty());
    }

    #[test]
    fn manager_save_as_chains_steps() {
        let mgr = SessionManager::default();
        mgr.register("s", "songs", songs());
        mgr.run(
            "s",
            "SELECT * FROM songs WHERE popularity > 65",
            Some("popular"),
        )
        .unwrap();
        let entry = mgr
            .run("s", "SELECT * FROM popular WHERE year > 2012", None)
            .unwrap();
        assert!(entry.n_rows_in < 120);
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
}
