//! The cross-request artifact cache of the serving layer.
//!
//! FEDEX's encode work dominates a warm `explain`: on the 1M-row workload
//! the ScoreColumns stage spends ~1.7s of 1.9s dictionary-encoding inputs
//! that, in a served deployment, were registered once and explained many
//! times. An [`ArtifactCache`] memoizes exactly those re-derivable
//! artifacts across requests:
//!
//! * **coded frames** — the [`CodedFrame`] of an input dataframe, keyed by
//!   the dataframe's *content* [`Fingerprint`]. Any request whose input
//!   bytes match a previously-encoded table (same table, another session,
//!   another client) reuses the `Arc` and skips encoding entirely;
//! * **kernel caches** — the per-column [`ExcKernelCache`] of one
//!   exploratory step, keyed by a step-level fingerprint (operation +
//!   input fingerprints), so a *repeated query* also skips the provenance
//!   gathers and base histograms.
//!
//! Entries are plain memoizations of pure functions of the key, so a hit
//! can never change an explanation — only skip recomputing it; the
//! `warm_equals_cold` property test and the golden fixtures pin this.
//!
//! Eviction is byte-budgeted and cost-aware. Every entry records an
//! insertion-time size estimate (`approx_bytes`), a last-touched tick,
//! **and the measured wall-clock cost of rebuilding it** — the caller just
//! derived the artifact, so the rebuild cost is known exactly, not
//! modelled. The victim is the entry with the lowest *retained value per
//! byte*,
//!
//! ```text
//! value(e) = rebuild_micros(e) × recency(e) / bytes(e)
//! recency(e) = 1 / (1 + clock − last_used(e))
//! ```
//!
//! so a cheap-to-rebuild small-frame entry is evicted before a 1M-row
//! kernel cache that took seconds to derive, even when the kernel cache
//! was touched less recently; among equally costly entries of one size
//! the order is least-recently-used. An entry larger than the whole
//! budget is simply not admitted (the caller keeps its freshly-built
//! artifact — correctness never depends on residency). [`CacheMetrics`]
//! counters feed the server's `metrics` command and `GET /metrics`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use fedex_frame::{CodedFrame, Fingerprint};

use crate::kernel::ExcKernelCache;

/// Default byte budget: 1 GiB. A 1M-row Spotify-shaped table (~15 columns,
/// several high-cardinality dictionaries) codes to ~0.5 GiB, so the
/// default comfortably holds the working set of a large served table plus
/// its kernels; size to taste via [`ArtifactCache::with_budget`] (the CLI
/// exposes `--cache-mb`).
pub const DEFAULT_CACHE_BUDGET: usize = 1024 * 1024 * 1024;

/// What one cache entry holds.
#[derive(Clone)]
enum Artifact {
    Frame(Arc<CodedFrame>),
    Kernels(Arc<ExcKernelCache>),
}

/// The two key namespaces share one map so the budget is global.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Frame(Fingerprint),
    Kernels(Fingerprint),
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
}

/// Monotonic counters of cache behaviour; all reads are `Relaxed` — the
/// numbers feed dashboards, not control flow.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
}

/// A point-in-time snapshot of [`ArtifactCache`] state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheMetrics {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (the caller then computed and inserted).
    pub misses: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Insertions rejected because a single entry exceeded the budget.
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

    /// Insert (or refresh) the coded frame for `fp`. `rebuild` is the
    /// measured wall-clock time the caller just spent encoding it — the
    /// cost-aware policy keeps expensive encodes resident longest.
    pub fn put_frame(&self, fp: Fingerprint, frame: Arc<CodedFrame>, rebuild: Duration) {
        let bytes = frame.approx_bytes();
        self.put(Key::Frame(fp), Artifact::Frame(frame), bytes, rebuild);
    }

    /// The cached kernel cache for a step with this step fingerprint,
    /// refreshing its recency.
    pub fn get_kernels(&self, step_fp: Fingerprint) -> Option<Arc<ExcKernelCache>> {
        match self.get(Key::Kernels(step_fp)) {
            Some(Artifact::Kernels(k)) => Some(k),
            _ => None,
        }
    }

    /// Insert (or refresh) the kernel cache for `step_fp`; `rebuild` is
    /// the measured time the caller spent building the kernels. Size is
    /// estimated at insertion; kernels added to the shared cache later do
    /// not grow the accounted bytes (the estimate is deliberately cheap —
    /// budgets are approximate).
    pub fn put_kernels(
        &self,
        step_fp: Fingerprint,
        kernels: Arc<ExcKernelCache>,
        rebuild: Duration,
    ) {
        let bytes = kernels.approx_bytes().max(1024);
        self.put(
            Key::Kernels(step_fp),
            Artifact::Kernels(kernels),
            bytes,
            rebuild,
        );
    }

    /// Counter + occupancy snapshot.
    pub fn metrics(&self) -> CacheMetrics {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheMetrics {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
            budget: self.budget,
        }
    }

    /// Drop every entry (counters are kept — they are lifetime totals).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.map.clear();
        inner.bytes = 0;
    }

    fn get(&self, key: Key) -> Option<Artifact> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.clock += 1;
        let tick = inner.clock;
        match inner.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.artifact.clone())
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
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
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.clock += 1;
        let tick = inner.clock;
        let mut rebuild_micros = rebuild.as_micros().min(u128::from(u64::MAX)) as u64;
        // A refresh of a resident entry (e.g. a warm run re-inserting its
        // kernel cache) arrives with the *warm* derivation time; the cost
        // that matters for eviction is rebuilding from scratch, so keep
        // the largest cost ever observed for the key.
        if let Some(old) = inner.map.get(&key) {
            rebuild_micros = rebuild_micros.max(old.rebuild_micros);
        }
        if let Some(old) = inner.map.insert(
            key,
            Entry {
                artifact,
                bytes,
                last_used: tick,
                rebuild_micros,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        // Evict until back under budget. Entry counts are small (one per
        // registered table / distinct step), so a linear victim scan per
        // eviction beats maintaining an ordered structure.
        while inner.bytes > self.budget {
            let clock = inner.clock;
            // Never evict what we just inserted. f64 values are finite by
            // construction; tie-break on recency then bytes so the victim
            // is deterministic even though HashMap iteration order is not.
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by(|(_, a), (_, b)| {
                    a.value_per_byte(clock)
                        .total_cmp(&b.value_per_byte(clock))
                        .then(a.last_used.cmp(&b.last_used))
                        .then(b.bytes.cmp(&a.bytes))
                });
            let Some((&victim_key, _)) = victim else {
                break;
            };
            let evicted = inner.map.remove(&victim_key).expect("key from iteration");
            inner.bytes -= evicted.bytes;
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
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
    fn kernels_namespace_is_distinct() {
        let cache = ArtifactCache::default();
        let df = frame(0, 100);
        let fp = df.fingerprint();
        cache.put_frame(fp, coded(&df), FLAT_COST);
        // The same fingerprint in the kernels namespace is a different key.
        assert!(cache.get_kernels(fp).is_none());
        cache.put_kernels(fp, Arc::new(ExcKernelCache::default()), FLAT_COST);
        assert!(cache.get_kernels(fp).is_some());
        assert_eq!(cache.metrics().entries, 2);
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
