//! The cross-request artifact cache of the serving layer.
//!
//! FEDEX's encode work dominates a warm `explain`: on the 1M-row workload
//! the ScoreColumns stage spends ~1.7s of 1.9s dictionary-encoding inputs
//! that, in a served deployment, were registered once and explained many
//! times. An [`ArtifactCache`] memoizes exactly those re-derivable
//! artifacts across requests, in three key namespaces sharing one byte
//! budget:
//!
//! * **coded frames** — the [`CodedFrame`] of an input dataframe, keyed by
//!   the dataframe's *content* [`Fingerprint`]. Any request whose input
//!   bytes match a previously-encoded table (same table, another session,
//!   another client) reuses the `Arc` and skips encoding entirely;
//! * **mined partitions** — the full list of §3.5 row partitions of one
//!   input, keyed by its content fingerprint, the set counts and the
//!   mining seed. Partitions come from the input, not the query, so *any*
//!   later step over the same table — another filter, a group-by, the
//!   same table as a join or union arm — skips mining. A partition's row
//!   payload is its CSR row index, built when it is mined, so a hit also
//!   skips grouping rows by set. The entry is charged for its distinct
//!   payloads only, indexes included: a many-to-one partition shares its
//!   via column's frequency payload (see [`crate::partition`]);
//! * **explain results** — the whole `Arc<[Explanation]>` of one session
//!   step, keyed by the step fingerprint folded with every configuration
//!   field that shapes the output (`results_key`; `sample_size` among
//!   them, so a sampled result never answers an exact request). A hit
//!   skips all five stages, and the session's last step shares the `Arc`.
//!
//! A step's exceptionality kernels are not cached: the analyst's steps
//! are distinct, so they would never hit, and ScoreColumns keeps only the
//! top-k columns' kernels for the one explain that built them.
//!
//! One admission rule keeps the working set resident: partition lists
//! and results are inserted only when ScoreColumns found the step's input
//! frames cached — a partition list when it found that input's frame, a
//! result when it found every input's. One-shot inputs (a union arm, a
//! join subquery, a saved step output, a fresh upload) are computed but
//! never inserted, so they cannot evict the frames and partitions of
//! tables that are explained again. Results, moreover, take spare budget
//! only: a result is never admitted if admitting it would evict anything,
//! and results are the first victims whenever another insert needs room.
//!
//! A coded frame is encoded once even under concurrent cold requests: the
//! first request to miss claims the encode (`ArtifactCache::claim_frames`)
//! and the others wait for its frame instead of encoding the same table
//! again.
//!
//! Entries are plain memoizations of pure functions of the key, so a hit
//! can never change an explanation — only skip recomputing it; the
//! `warm_equals_cold` property test and the golden fixtures pin this.
//!
//! Eviction is byte-budgeted and cost-aware. Every entry records an
//! insertion-time size estimate (`approx_bytes`), a last-touched tick,
//! **and the measured wall-clock cost of rebuilding it** — the caller just
//! derived the artifact, so the rebuild cost is known exactly, not
//! modelled. Results aside, the victim is the entry with the lowest
//! *retained value per byte*,
//!
//! ```text
//! value(e) = rebuild_micros(e) × recency(e) / bytes(e)
//! recency(e) = 1 / (1 + clock − last_used(e))
//! ```
//!
//! so a cheap-to-rebuild small frame is evicted before a large one that
//! took seconds to encode, even when the large one was touched less
//! recently; among equally costly entries of one size the order is
//! least-recently-used. An insert weighs itself against its victims: it
//! is not admitted when its own value per byte (at recency 1) is below
//! that of a non-result entry it would evict, so a cheap, large entry
//! cannot flush hot, expensive ones. Nor is an entry larger than the
//! whole budget. Either way the caller keeps its freshly-built artifact —
//! correctness never depends on residency. [`CacheMetrics`] counters,
//! split by artifact kind, feed the server's `metrics` command and
//! `GET /metrics`.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use fedex_frame::{CodedFrame, Fingerprint, FpHasher};
use fedex_query::ExploratoryStep;

use crate::explain::{Explanation, FedexConfig};
use crate::partition::{self, RowPartition};

/// Default byte budget: 1 GiB. A 1M-row Spotify-shaped table (~15 columns,
/// several high-cardinality dictionaries) codes to ~0.5 GiB, so the
/// default comfortably holds the working set of a large served table plus
/// its mined partitions; size to taste via [`ArtifactCache::with_budget`]
/// (the CLI exposes `--cache-mb`).
pub const DEFAULT_CACHE_BUDGET: usize = 1024 * 1024 * 1024;

/// What one cache entry holds.
#[derive(Clone)]
enum Artifact {
    Frame(Arc<CodedFrame>),
    Partitions(Arc<Vec<RowPartition>>),
    Results(Arc<[Explanation]>),
}

/// The three key namespaces share one map so the budget is global.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Frame(Fingerprint),
    Partitions(Fingerprint),
    Results(Fingerprint),
}

/// The artifact kinds, one per key namespace, in the order of
/// [`CacheMetrics::by_artifact`].
pub const ARTIFACTS: [&str; 3] = ["frame", "partitions", "results"];

impl Key {
    /// Index of the key's namespace in [`ARTIFACTS`].
    fn kind(self) -> usize {
        match self {
            Key::Frame(_) => 0,
            Key::Partitions(_) => 1,
            Key::Results(_) => 2,
        }
    }
}

/// Key of an input's mined partitions: mining is a pure function of the
/// input's content, the requested set counts and the sampling seed.
fn partitions_key(input: Fingerprint, set_counts: &[usize], seed: u64) -> Key {
    let mut h = FpHasher::new();
    h.write_fingerprint(input);
    h.write_u64(set_counts.len() as u64);
    for &n in set_counts {
        h.write_u64(n as u64);
    }
    h.write_u64(seed);
    Key::Partitions(h.finish())
}

/// Key of one explain's result: the step (its operation, via the stable
/// debug form, and the content fingerprint of every input) folded with
/// every configuration field that shapes the output. The destructure is
/// exhaustive, so a new [`FedexConfig`] field does not compile until it
/// is placed in the key or named here as output-neutral.
pub(crate) fn results_key(step: &ExploratoryStep, config: &FedexConfig) -> Fingerprint {
    let FedexConfig {
        set_counts,
        top_k_columns,
        sample_size,
        seed,
        target_columns,
        top_k_explanations,
        w_interestingness,
        w_contribution,
        measure_override,
        execution: _,
        artifact_cache: _,
        cancel: _,
        trace_id: _,
    } = config;
    let mut h = FpHasher::new();
    h.write_bytes(format!("{:?}", step.op).as_bytes());
    for df in &step.inputs {
        h.write_fingerprint(df.fingerprint());
    }
    h.write_u64(step.inputs.len() as u64);
    // The debug form is unambiguous: strings are quoted and escaped, and
    // the weights enter as their exact bit patterns.
    let shape = (
        set_counts,
        top_k_columns,
        sample_size,
        seed,
        target_columns,
        top_k_explanations,
        w_interestingness.to_bits(),
        w_contribution.to_bits(),
        measure_override,
    );
    h.write_bytes(format!("{shape:?}").as_bytes());
    h.finish()
}

struct Entry {
    artifact: Artifact,
    bytes: usize,
    last_used: u64,
    /// Measured wall-clock cost of deriving this artifact, in
    /// microseconds — recorded at insertion, consumed by eviction.
    rebuild_micros: u64,
}

impl Entry {
    /// Retained value per byte (see the module docs): measured rebuild
    /// cost × recency, normalized by size.
    fn value_per_byte(&self, clock: u64) -> f64 {
        let age = clock.saturating_sub(self.last_used) as f64;
        let recency = 1.0 / (1.0 + age);
        self.rebuild_micros.max(1) as f64 * recency / self.bytes.max(1) as f64
    }
}

#[derive(Default)]
struct Inner {
    map: HashMap<Key, Entry>,
    bytes: usize,
    clock: u64,
    /// Content fingerprints whose coded frame a caller is encoding now.
    encoding: HashSet<Fingerprint>,
}

/// One input's answer from [`ArtifactCache::claim_frames`].
pub(crate) enum FrameLookup {
    /// The frame is resident.
    Hit(Arc<CodedFrame>),
    /// The caller encodes the frame; its [`FrameClaims`] holds the claim.
    Claimed,
    /// Another caller is encoding the frame; see
    /// [`ArtifactCache::wait_frame`].
    Encoding,
}

/// The frames one caller of [`ArtifactCache::claim_frames`] is encoding.
/// Dropping it, after `put_frame` or on unwind, wakes the callers
/// waiting for them.
pub(crate) struct FrameClaims<'a> {
    cache: &'a ArtifactCache,
    fps: Vec<Fingerprint>,
}

impl Drop for FrameClaims<'_> {
    fn drop(&mut self) {
        if self.fps.is_empty() {
            return;
        }
        let mut inner = self.cache.lock();
        for fp in &self.fps {
            inner.encoding.remove(fp);
        }
        drop(inner);
        self.cache.encoded.notify_all();
    }
}

/// Monotonic counters of cache behaviour; all reads are `Relaxed` — the
/// numbers feed dashboards, not control flow.
#[derive(Debug, Default)]
struct Counters {
    /// Per artifact kind, in [`ARTIFACTS`] order.
    hits: [AtomicU64; 3],
    misses: [AtomicU64; 3],
    evictions: AtomicU64,
    rejected: AtomicU64,
}

/// Lookups of one artifact kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Lookups {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

/// A point-in-time snapshot of [`ArtifactCache`] state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheMetrics {
    /// Lookups answered from the cache, over every artifact kind.
    pub hits: u64,
    /// Lookups that missed (the caller then computed, and maybe
    /// inserted), over every artifact kind.
    pub misses: u64,
    /// `hits` and `misses` per artifact kind, in [`ARTIFACTS`] order.
    pub by_artifact: [Lookups; 3],
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Insertions not admitted: an entry larger than the whole budget, an
    /// entry worth less per byte than one it would have evicted, or a
    /// result that would have needed an eviction.
    pub rejected: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated resident bytes.
    pub bytes: usize,
    /// The configured byte budget.
    pub budget: usize,
}

/// Thread-safe, byte-budgeted cache of re-derivable explain artifacts
/// with cost-aware eviction.
pub struct ArtifactCache {
    inner: Mutex<Inner>,
    /// Signalled when claimed frame encodes finish.
    encoded: Condvar,
    counters: Counters,
    budget: usize,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.metrics();
        f.debug_struct("ArtifactCache")
            .field("entries", &m.entries)
            .field("bytes", &m.bytes)
            .field("budget", &m.budget)
            .finish()
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::with_budget(DEFAULT_CACHE_BUDGET)
    }
}

impl ArtifactCache {
    /// A cache that evicts once the estimated resident size exceeds
    /// `budget` bytes.
    pub fn with_budget(budget: usize) -> Self {
        ArtifactCache {
            inner: Mutex::new(Inner::default()),
            encoded: Condvar::new(),
            counters: Counters::default(),
            budget,
        }
    }

    /// The cached coded frame for a dataframe with this content
    /// fingerprint, refreshing its recency.
    pub fn get_frame(&self, fp: Fingerprint) -> Option<Arc<CodedFrame>> {
        match self.get(Key::Frame(fp)) {
            Some(Artifact::Frame(f)) => Some(f),
            _ => None,
        }
    }

    /// Look up the coded frame of each input fingerprint, claiming the
    /// encode of every one that is neither resident nor being encoded by
    /// another caller, so concurrent requests over one cold table encode
    /// it once. A fingerprint repeated in `fps` is claimed once; its
    /// later occurrences are [`FrameLookup::Encoding`]. The caller encodes
    /// its claims, puts them, drops the [`FrameClaims`], and only then
    /// waits for the others' encodes, so a waiter never holds a claim.
    pub(crate) fn claim_frames(&self, fps: &[Fingerprint]) -> (Vec<FrameLookup>, FrameClaims<'_>) {
        let mut inner = self.lock();
        let mut claimed = Vec::new();
        let lookups = fps
            .iter()
            .map(|&fp| {
                if inner.encoding.contains(&fp) {
                    return FrameLookup::Encoding;
                }
                match self.lookup(&mut inner, Key::Frame(fp)) {
                    Some(Artifact::Frame(f)) => FrameLookup::Hit(f),
                    _ => {
                        inner.encoding.insert(fp);
                        claimed.push(fp);
                        FrameLookup::Claimed
                    }
                }
            })
            .collect();
        let claims = FrameClaims {
            cache: self,
            fps: claimed,
        };
        (lookups, claims)
    }

    /// The coded frame for `fp` once no caller is encoding it, refreshing
    /// its recency; `None` if that encode failed or was not admitted.
    pub(crate) fn wait_frame(&self, fp: Fingerprint) -> Option<Arc<CodedFrame>> {
        let mut inner = self.lock();
        while inner.encoding.contains(&fp) {
            inner = self
                .encoded
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        match self.lookup(&mut inner, Key::Frame(fp)) {
            Some(Artifact::Frame(f)) => Some(f),
            _ => None,
        }
    }

    /// Insert (or refresh) the coded frame for `fp`. `rebuild` is the
    /// measured wall-clock time the caller just spent encoding it — the
    /// cost-aware policy keeps expensive encodes resident longest.
    pub fn put_frame(&self, fp: Fingerprint, frame: Arc<CodedFrame>, rebuild: Duration) {
        let bytes = frame.approx_bytes();
        self.put(Key::Frame(fp), Artifact::Frame(frame), bytes, rebuild);
    }

    /// The cached mined partitions of the input with content fingerprint
    /// `input`, mined under `set_counts` and `seed`, refreshing their
    /// recency. Their `input_idx` is whatever the inserting step used; the
    /// caller relabels.
    pub fn get_partitions(
        &self,
        input: Fingerprint,
        set_counts: &[usize],
        seed: u64,
    ) -> Option<Arc<Vec<RowPartition>>> {
        match self.get(partitions_key(input, set_counts, seed)) {
            Some(Artifact::Partitions(p)) => Some(p),
            _ => None,
        }
    }

    /// Insert (or refresh) the mined partitions of one input; `rebuild` is
    /// the measured mining time. The entry is charged for its distinct row
    /// indexes, not once per partition.
    pub fn put_partitions(
        &self,
        input: Fingerprint,
        set_counts: &[usize],
        seed: u64,
        partitions: Arc<Vec<RowPartition>>,
        rebuild: Duration,
    ) {
        let bytes = partition::approx_bytes(&partitions).max(1024);
        self.put(
            partitions_key(input, set_counts, seed),
            Artifact::Partitions(partitions),
            bytes,
            rebuild,
        );
    }

    /// The cached result of the session step with this [`results_key`],
    /// refreshing its recency.
    pub(crate) fn get_results(&self, key: Fingerprint) -> Option<Arc<[Explanation]>> {
        match self.get(Key::Results(key)) {
            Some(Artifact::Results(r)) => Some(r),
            _ => None,
        }
    }

    /// Insert (or refresh) the result of the step with this
    /// [`results_key`]; `rebuild` is the measured pipeline time. Charged
    /// for its explanations' bytes, and admitted only into spare budget.
    pub(crate) fn put_results(
        &self,
        key: Fingerprint,
        results: Arc<[Explanation]>,
        rebuild: Duration,
    ) {
        let bytes = results.iter().map(Explanation::approx_bytes).sum::<usize>();
        self.put(
            Key::Results(key),
            Artifact::Results(results),
            bytes.max(1024),
            rebuild,
        );
    }

    /// Counter + occupancy snapshot.
    pub fn metrics(&self) -> CacheMetrics {
        let inner = self.lock();
        let by_artifact: [Lookups; 3] = std::array::from_fn(|i| Lookups {
            hits: self.counters.hits[i].load(Ordering::Relaxed),
            misses: self.counters.misses[i].load(Ordering::Relaxed),
        });
        CacheMetrics {
            hits: by_artifact.iter().map(|l| l.hits).sum(),
            misses: by_artifact.iter().map(|l| l.misses).sum(),
            by_artifact,
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
            budget: self.budget,
        }
    }

    /// Drop every entry (counters are kept — they are lifetime totals).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.bytes = 0;
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: Key) -> Option<Artifact> {
        self.lookup(&mut self.lock(), key)
    }

    /// A counted lookup that refreshes the entry's recency.
    fn lookup(&self, inner: &mut Inner, key: Key) -> Option<Artifact> {
        inner.clock += 1;
        let tick = inner.clock;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                self.counters.hits[key.kind()].fetch_add(1, Ordering::Relaxed);
                Some(entry.artifact.clone())
            }
            None => {
                self.counters.misses[key.kind()].fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, key: Key, artifact: Artifact, bytes: usize, rebuild: Duration) {
        if bytes > self.budget {
            // Never admitted; the caller keeps using its own copy.
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut inner = self.lock();
        inner.clock += 1;
        let mut rebuild_micros = rebuild.as_micros().min(u128::from(u64::MAX)) as u64;
        // A refresh of a resident entry may arrive with a cheaper, warm
        // derivation time; the cost that matters for eviction is
        // rebuilding from scratch, so keep the largest cost ever observed
        // for the key.
        let replaced = inner.map.get(&key).map_or(0, |old| {
            rebuild_micros = rebuild_micros.max(old.rebuild_micros);
            old.bytes
        });
        let entry = Entry {
            artifact,
            bytes,
            last_used: inner.clock,
            rebuild_micros,
        };
        let Some(victims) = self.victims(&inner, key, &entry, replaced) else {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return;
        };
        for victim in victims {
            let evicted = inner.map.remove(&victim).expect("victim is resident");
            inner.bytes -= evicted.bytes;
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(old) = inner.map.insert(key, entry) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
    }

    /// The entries to evict, cheapest first, so that `entry` fits under
    /// `key` (whose resident version, of `replaced` bytes, it replaces);
    /// `None` when it may not be admitted: a result that needs any room,
    /// or an entry worth less per byte than a non-result entry it would
    /// evict. Entry counts are small (one per registered table or input),
    /// so one sort per insert beats maintaining an ordered structure.
    fn victims(&self, inner: &Inner, key: Key, entry: &Entry, replaced: usize) -> Option<Vec<Key>> {
        let mut excess = (inner.bytes - replaced + entry.bytes).saturating_sub(self.budget);
        if excess == 0 {
            return Some(Vec::new());
        }
        if matches!(key, Key::Results(_)) {
            return None;
        }
        let clock = inner.clock;
        let not_results = |k: &Key| !matches!(k, Key::Results(_));
        let mut residents: Vec<(&Key, &Entry)> =
            inner.map.iter().filter(|(k, _)| **k != key).collect();
        // Results go first. f64 values are finite by construction;
        // tie-break on recency then bytes so the order is deterministic
        // even though HashMap iteration order is not.
        residents.sort_by(|(ka, a), (kb, b)| {
            not_results(ka)
                .cmp(&not_results(kb))
                .then(a.value_per_byte(clock).total_cmp(&b.value_per_byte(clock)))
                .then(a.last_used.cmp(&b.last_used))
                .then(b.bytes.cmp(&a.bytes))
        });
        let value = entry.value_per_byte(clock);
        let mut victims = Vec::new();
        for (k, resident) in residents {
            if excess == 0 {
                break;
            }
            if not_results(k) && resident.value_per_byte(clock) > value {
                return None;
            }
            excess = excess.saturating_sub(resident.bytes);
            victims.push(*k);
        }
        Some(victims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedex_frame::{Column, DataFrame};

    fn frame(tag: i64, rows: usize) -> DataFrame {
        DataFrame::new(vec![Column::from_ints(
            "x",
            (0..rows as i64).map(|i| i % 17 + tag).collect(),
        )])
        .unwrap()
    }

    fn coded(df: &DataFrame) -> Arc<CodedFrame> {
        Arc::new(CodedFrame::encode(df))
    }

    /// Equal rebuild costs make cost-aware eviction degrade to
    /// least-recently-used order.
    const FLAT_COST: Duration = Duration::from_micros(1000);

    #[test]
    fn hit_returns_same_arc() {
        let cache = ArtifactCache::default();
        let df = frame(0, 100);
        let fp = df.fingerprint();
        assert!(cache.get_frame(fp).is_none());
        let c = coded(&df);
        cache.put_frame(fp, c.clone(), FLAT_COST);
        let hit = cache.get_frame(fp).expect("warm hit");
        assert!(Arc::ptr_eq(&hit, &c));
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses, m.entries), (1, 1, 1));
        assert!(m.bytes > 0);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let df = frame(0, 1000);
        let per_entry = coded(&df).approx_bytes();
        // Budget fits exactly two entries.
        let cache = ArtifactCache::with_budget(2 * per_entry + per_entry / 2);
        let frames: Vec<DataFrame> = (0..3).map(|t| frame(t * 100, 1000)).collect();
        for f in &frames[..2] {
            cache.put_frame(f.fingerprint(), coded(f), FLAT_COST);
        }
        // Touch the first so the second becomes LRU.
        assert!(cache.get_frame(frames[0].fingerprint()).is_some());
        cache.put_frame(frames[2].fingerprint(), coded(&frames[2]), FLAT_COST);
        let m = cache.metrics();
        assert_eq!(m.evictions, 1);
        assert!(m.bytes <= m.budget, "{} > {}", m.bytes, m.budget);
        assert!(cache.get_frame(frames[0].fingerprint()).is_some());
        assert!(
            cache.get_frame(frames[1].fingerprint()).is_none(),
            "equal costs: the least recently used entry goes"
        );
        assert!(cache.get_frame(frames[2].fingerprint()).is_some());
    }

    #[test]
    fn cost_aware_keeps_expensive_entries_over_recent_cheap_ones() {
        let big = frame(0, 1000);
        let per_entry = coded(&big).approx_bytes();
        let cache = ArtifactCache::with_budget(2 * per_entry + per_entry / 2);

        // An expensive artifact (seconds to rebuild) inserted FIRST — under
        // LRU it would be the eviction victim.
        let expensive = frame(1_000, 1000);
        cache.put_frame(
            expensive.fingerprint(),
            coded(&expensive),
            Duration::from_secs(3),
        );
        // Two cheap same-sized artifacts afterwards (more recent).
        let cheap: Vec<DataFrame> = (0..2).map(|t| frame(t * 100, 1000)).collect();
        for f in &cheap {
            cache.put_frame(f.fingerprint(), coded(f), Duration::from_micros(200));
        }

        let m = cache.metrics();
        assert_eq!(m.evictions, 1);
        assert!(m.bytes <= m.budget, "{} > {}", m.bytes, m.budget);
        assert!(
            cache.get_frame(expensive.fingerprint()).is_some(),
            "the 3s rebuild must outlive the 200µs rebuilds"
        );
        assert!(
            cache.get_frame(cheap[0].fingerprint()).is_none(),
            "the older cheap entry is the victim"
        );
        assert!(cache.get_frame(cheap[1].fingerprint()).is_some());
    }

    #[test]
    fn cost_aware_recency_still_ages_out_stale_expensive_entries() {
        let df = frame(0, 1000);
        let per_entry = coded(&df).approx_bytes();
        let cache = ArtifactCache::with_budget(2 * per_entry + per_entry / 2);

        let expensive = frame(1_000, 1000);
        cache.put_frame(
            expensive.fingerprint(),
            coded(&expensive),
            Duration::from_millis(500),
        );
        let hot = frame(2_000, 1000);
        cache.put_frame(hot.fingerprint(), coded(&hot), Duration::from_micros(900));
        // Hammer the cheap entry: after many touches the expensive entry's
        // recency factor shrinks below the cost ratio (500000µs vs 900µs →
        // needs age > ~555 ticks).
        for _ in 0..2000 {
            assert!(cache.get_frame(hot.fingerprint()).is_some());
        }
        let third = frame(3_000, 1000);
        cache.put_frame(
            third.fingerprint(),
            coded(&third),
            Duration::from_micros(900),
        );
        assert!(
            cache.get_frame(expensive.fingerprint()).is_none(),
            "a long-untouched expensive entry eventually ages out"
        );
        assert!(cache.get_frame(hot.fingerprint()).is_some());
    }

    #[test]
    fn a_cheap_large_entry_does_not_evict_hot_expensive_ones() {
        let small = frame(0, 1000);
        let per_entry = coded(&small).approx_bytes();
        let cache = ArtifactCache::with_budget(2 * per_entry + per_entry / 2);
        let hot: Vec<DataFrame> = (1..3).map(|t| frame(t * 100, 1000)).collect();
        for f in &hot {
            cache.put_frame(f.fingerprint(), coded(f), Duration::from_secs(2));
            assert!(cache.get_frame(f.fingerprint()).is_some());
        }
        // Twice the size of a hot entry and far cheaper to rebuild: it
        // would have to evict both.
        let large = frame(0, 2000);
        assert!(coded(&large).approx_bytes() > per_entry);
        cache.put_frame(large.fingerprint(), coded(&large), FLAT_COST);
        let m = cache.metrics();
        assert_eq!((m.entries, m.evictions, m.rejected), (2, 0, 1));
        assert!(cache.get_frame(large.fingerprint()).is_none());
        for f in &hot {
            assert!(cache.get_frame(f.fingerprint()).is_some());
        }
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let df = frame(0, 1000);
        let cache = ArtifactCache::with_budget(8);
        cache.put_frame(df.fingerprint(), coded(&df), FLAT_COST);
        let m = cache.metrics();
        assert_eq!((m.entries, m.rejected), (0, 1));
        assert!(cache.get_frame(df.fingerprint()).is_none());
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let cache = ArtifactCache::default();
        let df = frame(0, 500);
        let fp = df.fingerprint();
        cache.put_frame(fp, coded(&df), FLAT_COST);
        let before = cache.metrics().bytes;
        cache.put_frame(fp, coded(&df), FLAT_COST);
        let m = cache.metrics();
        assert_eq!(m.entries, 1);
        assert_eq!(m.bytes, before);
    }

    #[test]
    fn partitions_are_keyed_by_input_set_counts_and_seed() {
        let cache = ArtifactCache::default();
        let df = frame(0, 100);
        let fp = df.fingerprint();
        let mined =
            crate::partition::mine_input_partitions(&df, &CodedFrame::encode(&df), 0, &[5], 1)
                .unwrap();
        cache.put_partitions(fp, &[5], 1, Arc::new(mined), FLAT_COST);
        assert!(cache.get_partitions(fp, &[5], 1).is_some());
        assert!(cache.get_partitions(fp, &[5, 10], 1).is_none());
        assert!(cache.get_partitions(fp, &[5], 2).is_none());
        assert!(cache.get_frame(fp).is_none(), "namespaces are distinct");
        assert_eq!(cache.metrics().entries, 1);
    }

    /// A cached partition list keeps its row indexes: a later explain over
    /// the same input takes every partition from the cache and groups no
    /// rows again, and the entry was charged for the indexes at insertion.
    #[test]
    fn cached_partitions_keep_their_indexes() {
        use crate::partition::RowSetIndex;
        use crate::pipeline::{ExplainPipeline, PartitionRows, ScoreColumns, Stage};
        use fedex_query::{ExploratoryStep, Expr, Operation};

        let df = DataFrame::new(vec![
            Column::from_ints("k", (0..600).map(|i| i % 7).collect()),
            Column::from_ints("x", (0..600).map(|i| i % 17).collect()),
            Column::from_ints("y", (0..600).map(|i| (i * i) % 5).collect()),
        ])
        .unwrap();
        let cache = Arc::new(ArtifactCache::default());
        let config = crate::Fedex::new()
            .with_cache(cache.clone())
            .config()
            .clone();
        let partitioned = |threshold: i64| {
            let filter = Operation::filter(Expr::col("k").gt(Expr::lit(threshold)));
            let step = ExploratoryStep::run(vec![df.clone()], filter).unwrap();
            let pipeline = ExplainPipeline::new(&step, &config);
            let ctx = pipeline.context();
            let scored = ScoreColumns::builtin().run(ctx, ()).unwrap();
            PartitionRows { extra: Vec::new() }
                .run(ctx, scored)
                .unwrap()
        };
        // The list is mined twice and cached on the input's second sighting.
        partitioned(1);
        partitioned(2);
        let cached = cache
            .get_partitions(df.fingerprint(), &config.set_counts, config.seed)
            .expect("second sighting caches the partitions");

        let third = partitioned(3);
        assert!(third
            .cache_events
            .contains(&("partitions[0]".to_string(), true)));
        assert!(!third.partitions.is_empty());
        for p in &third.partitions {
            assert!(
                cached
                    .iter()
                    .any(|c| std::ptr::eq(c.rows_by_set(), p.rows_by_set())),
                "{} ({}) regrouped its rows",
                p.attr,
                p.kind.name()
            );
        }
        let distinct: HashSet<*const RowSetIndex> = cached
            .iter()
            .map(|p| p.rows_by_set() as *const RowSetIndex)
            .collect();
        let index_bytes = distinct.len() * df.n_rows() * std::mem::size_of::<u32>();
        assert!(partition::approx_bytes(&cached) >= index_bytes);
    }

    /// An empty result: charged the 1 KiB floor.
    fn no_explanations() -> Arc<[Explanation]> {
        Arc::from(Vec::new())
    }

    const RESULT_KEY: Fingerprint = Fingerprint([7, 7]);

    #[test]
    fn results_take_only_spare_budget() {
        let df = frame(0, 1000);
        let frame_bytes = coded(&df).approx_bytes();
        // 512 bytes spare after the frame: short of a result's 1 KiB.
        let cache = ArtifactCache::with_budget(frame_bytes + 512);
        cache.put_frame(df.fingerprint(), coded(&df), FLAT_COST);
        cache.put_results(RESULT_KEY, no_explanations(), Duration::from_secs(3));
        let m = cache.metrics();
        assert_eq!((m.entries, m.evictions, m.rejected), (1, 0, 1));
        assert!(cache.get_results(RESULT_KEY).is_none());
        assert!(cache.get_frame(df.fingerprint()).is_some());

        // With room to spare, the same result is admitted.
        let roomy = ArtifactCache::with_budget(frame_bytes + 1024);
        roomy.put_frame(df.fingerprint(), coded(&df), FLAT_COST);
        roomy.put_results(RESULT_KEY, no_explanations(), FLAT_COST);
        assert!(roomy.get_results(RESULT_KEY).is_some());
        assert_eq!(roomy.metrics().rejected, 0);
    }

    #[test]
    fn results_are_evicted_first() {
        let frames: Vec<DataFrame> = (0..2).map(|t| frame(t * 100, 1000)).collect();
        let frame_bytes = coded(&frames[0]).approx_bytes();
        let cache = ArtifactCache::with_budget(2 * frame_bytes + 1023);
        cache.put_frame(frames[0].fingerprint(), coded(&frames[0]), FLAT_COST);
        // The most recent and by far the costliest entry per byte, so by
        // value alone the frame would go.
        cache.put_results(RESULT_KEY, no_explanations(), Duration::from_secs(3));
        cache.put_frame(frames[1].fingerprint(), coded(&frames[1]), FLAT_COST);
        let m = cache.metrics();
        assert_eq!((m.entries, m.evictions), (2, 1));
        assert!(cache.get_results(RESULT_KEY).is_none());
        assert!(cache.get_frame(frames[0].fingerprint()).is_some());
        assert!(cache.get_frame(frames[1].fingerprint()).is_some());
    }

    #[test]
    fn lookups_are_counted_per_artifact() {
        let cache = ArtifactCache::default();
        let df = frame(0, 100);
        let fp = df.fingerprint();
        cache.put_frame(fp, coded(&df), FLAT_COST);
        cache.put_results(RESULT_KEY, no_explanations(), FLAT_COST);
        cache.get_frame(fp);
        cache.get_partitions(fp, &[5], 1);
        cache.get_results(RESULT_KEY);
        cache.get_results(Fingerprint([8, 8]));
        let m = cache.metrics();
        let lookups = |hits, misses| Lookups { hits, misses };
        assert_eq!(m.by_artifact, [lookups(1, 0), lookups(0, 1), lookups(1, 1)]);
        assert_eq!((m.hits, m.misses), (2, 2));
    }

    #[test]
    fn concurrent_claims_encode_a_frame_once() {
        let cache = ArtifactCache::default();
        let df = frame(0, 100);
        let fp = df.fingerprint();
        let (lookups, claims) = cache.claim_frames(&[fp, fp]);
        assert!(matches!(
            lookups[..],
            [FrameLookup::Claimed, FrameLookup::Encoding]
        ));
        let (lookups, _no_claims) = cache.claim_frames(&[fp]);
        assert!(matches!(lookups[..], [FrameLookup::Encoding]));
        let c = coded(&df);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| cache.wait_frame(fp));
            cache.put_frame(fp, c.clone(), FLAT_COST);
            drop(claims);
            let hit = waiter.join().unwrap().expect("the claimed encode");
            assert!(Arc::ptr_eq(&hit, &c));
        });
        assert!(cache.lock().encoding.is_empty());
        let m = cache.metrics();
        assert_eq!((m.hits, m.misses), (1, 1));
    }

    #[test]
    fn an_abandoned_claim_wakes_waiters_empty_handed() {
        let cache = ArtifactCache::default();
        let fp = frame(0, 100).fingerprint();
        let (_, claims) = cache.claim_frames(&[fp]);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| cache.wait_frame(fp));
            drop(claims);
            assert!(waiter.join().unwrap().is_none());
        });
        let (lookups, _claims) = cache.claim_frames(&[fp]);
        assert!(matches!(lookups[..], [FrameLookup::Claimed]));
    }

    #[test]
    fn results_key_covers_every_output_shaping_field() {
        use crate::cancel::CancelToken;
        use crate::interestingness::InterestingnessKind;
        use crate::pipeline::ExecutionMode;
        use fedex_query::{Expr, Operation};

        let step_of = |df: DataFrame, bound: i64| {
            ExploratoryStep::run(
                vec![df],
                Operation::filter(Expr::col("x").gt(Expr::lit(bound))),
            )
            .unwrap()
        };
        let step = step_of(frame(0, 100), 5);
        let base = FedexConfig::default();
        let key = |config: &FedexConfig| results_key(&step, config);
        let shaping: [fn(&mut FedexConfig); 9] = [
            |c| c.set_counts = vec![5],
            |c| c.top_k_columns = 4,
            |c| c.sample_size = Some(50),
            |c| c.seed = 43,
            |c| c.target_columns = Some(vec!["x".to_string()]),
            |c| c.top_k_explanations = Some(1),
            |c| c.w_interestingness = 0.5,
            |c| c.w_contribution = 0.5,
            |c| c.measure_override = Some(InterestingnessKind::Diversity),
        ];
        for (i, change) in shaping.iter().enumerate() {
            let mut config = base.clone();
            change(&mut config);
            assert_ne!(key(&config), key(&base), "field {i} must change the key");
        }
        let neutral: [fn(&mut FedexConfig); 4] = [
            |c| c.execution = ExecutionMode::Threads(3),
            |c| c.artifact_cache = Some(Arc::new(ArtifactCache::default())),
            |c| c.cancel = Some(CancelToken::new()),
            |c| c.trace_id = Some(9),
        ];
        for (i, change) in neutral.iter().enumerate() {
            let mut config = base.clone();
            change(&mut config);
            assert_eq!(
                key(&config),
                key(&base),
                "field {i} must not change the key"
            );
        }
        // The operation and the input contents are in the key too.
        assert_ne!(results_key(&step_of(frame(0, 100), 6), &base), key(&base));
        assert_ne!(results_key(&step_of(frame(1, 100), 5), &base), key(&base));
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = ArtifactCache::default();
        let df = frame(0, 100);
        cache.put_frame(df.fingerprint(), coded(&df), FLAT_COST);
        cache.get_frame(df.fingerprint());
        cache.clear();
        let m = cache.metrics();
        assert_eq!((m.entries, m.bytes), (0, 0));
        assert_eq!(m.hits, 1);
    }
}
