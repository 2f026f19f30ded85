//! Data adapters: the verifier's view of KPI feeds.
//!
//! "We create multiple data adapters to support collecting data from
//! multiple sources" (§3.5.1). The verifier only needs one operation —
//! fetch the series of a (node, KPI, carrier) stream — so the adapter is a
//! single-method trait. Production adapters would front vendor counters
//! or a data lake; tests and experiments use [`ClosureAdapter`] over the
//! netsim KPI synthesizer.

use cornet_stats::TimeSeries;
use cornet_types::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Source of KPI time-series.
pub trait DataAdapter: Sync {
    /// Fetch the series for a node's KPI, optionally confined to one
    /// carrier frequency. `None` when the feed has no such stream — the
    /// analytics must tolerate missing data (§5.3).
    fn series(&self, node: NodeId, kpi: &str, carrier: Option<usize>) -> Option<TimeSeries>;
}

/// Cache key: one KPI stream is identified by `(node, KPI, carrier)`.
type StreamKey = (NodeId, String, Option<usize>);

/// One stream's slot: created empty by the first thread to ask for the
/// key, filled exactly once.
type StreamCell = Arc<OnceLock<Option<TimeSeries>>>;

/// Memoizing wrapper around a [`DataAdapter`].
///
/// A verification campaign touches the same streams over and over: the
/// overall analysis and every location slice of every KPI query re-fetch
/// the study and control series, and multiple rules repeat the whole
/// pattern. Production adapters front a data lake, so each fetch is the
/// expensive part. `SeriesCache` extracts each `(node, KPI, carrier)`
/// stream from the underlying adapter once and serves clones afterwards
/// — including negative results (`None` is cached too).
///
/// Thread-safe behind an `RwLock` over one cell per key: concurrent
/// readers don't serialize on cache hits, and the fetch itself runs
/// outside the lock. Threads racing on the same cold key agree on one
/// cell under the write lock, exactly one of them fills it, and the rest
/// wait on that cell — so the underlying adapter sees each stream once.
pub struct SeriesCache<'a> {
    inner: &'a dyn DataAdapter,
    cache: RwLock<HashMap<StreamKey, StreamCell>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<'a> SeriesCache<'a> {
    /// Wrap `inner` with an empty cache.
    pub fn new(inner: &'a dyn DataAdapter) -> Self {
        SeriesCache {
            inner,
            cache: RwLock::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Distinct streams fetched so far (including misses cached as
    /// `None`) — a diagnostic for benches and tests.
    pub fn streams_cached(&self) -> usize {
        self.cache.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the underlying adapter.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

impl DataAdapter for SeriesCache<'_> {
    fn series(&self, node: NodeId, kpi: &str, carrier: Option<usize>) -> Option<TimeSeries> {
        let key = (node, kpi.to_owned(), carrier);
        if let Some(ready) = self
            .cache
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .and_then(|cell| cell.get())
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return ready.clone();
        }
        let cell: StreamCell = self
            .cache
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_default()
            .clone();
        // A lookup is a miss only if it is the one that fetches; waiting
        // on a cell somebody else is filling is a hit.
        let mut fetched = false;
        let series = cell.get_or_init(|| {
            fetched = true;
            self.inner.series(node, kpi, carrier)
        });
        let counter = if fetched { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        series.clone()
    }
}

/// Adapter from a closure.
pub struct ClosureAdapter<F>(pub F);

impl<F> DataAdapter for ClosureAdapter<F>
where
    F: Fn(NodeId, &str, Option<usize>) -> Option<TimeSeries> + Sync,
{
    fn series(&self, node: NodeId, kpi: &str, carrier: Option<usize>) -> Option<TimeSeries> {
        (self.0)(node, kpi, carrier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_adapter_delegates() {
        let adapter = ClosureAdapter(|node: NodeId, kpi: &str, _carrier: Option<usize>| {
            if kpi == "known" {
                Some(TimeSeries::new(0, 60, vec![node.0 as f64]))
            } else {
                None
            }
        });
        assert!(adapter.series(NodeId(1), "known", None).is_some());
        assert!(adapter.series(NodeId(1), "unknown", None).is_none());
        assert_eq!(
            adapter.series(NodeId(7), "known", None).unwrap().values,
            vec![7.0]
        );
    }

    #[test]
    fn racing_on_one_cold_key_fetches_it_once() {
        use std::sync::Barrier;
        let threads = cornet_types::par::workers().max(4);
        for round in 0..300u32 {
            let fetches = AtomicUsize::new(0);
            let adapter = ClosureAdapter(|node: NodeId, _: &str, _: Option<usize>| {
                fetches.fetch_add(1, Ordering::Relaxed);
                Some(TimeSeries::new(0, 60, vec![node.0 as f64]))
            });
            let cache = SeriesCache::new(&adapter);
            let barrier = Barrier::new(threads);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        barrier.wait();
                        let got = cache.series(NodeId(round), "thr", None).unwrap();
                        assert_eq!(got.values, vec![round as f64]);
                    });
                }
            });
            assert_eq!(fetches.load(Ordering::Relaxed), 1, "round {round}");
            assert_eq!(cache.streams_cached(), 1);
            assert_eq!(cache.misses(), 1, "one lookup fetched");
            assert_eq!(cache.hits(), threads - 1, "the rest waited on its cell");
        }
    }

    #[test]
    fn series_cache_fetches_each_stream_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fetches = AtomicUsize::new(0);
        let adapter = ClosureAdapter(|node: NodeId, kpi: &str, _carrier: Option<usize>| {
            fetches.fetch_add(1, Ordering::Relaxed);
            if kpi == "known" {
                Some(TimeSeries::new(0, 60, vec![node.0 as f64]))
            } else {
                None
            }
        });
        let cache = SeriesCache::new(&adapter);
        for _ in 0..5 {
            assert_eq!(
                cache.series(NodeId(3), "known", None).unwrap().values,
                vec![3.0]
            );
            assert!(cache.series(NodeId(3), "unknown", None).is_none());
        }
        assert_eq!(
            fetches.load(Ordering::Relaxed),
            2,
            "one fetch per distinct stream, misses included"
        );
        assert_eq!(cache.streams_cached(), 2);
        assert_eq!(cache.misses(), 2, "two distinct streams fell through");
        assert_eq!(cache.hits(), 8, "remaining lookups served from cache");
        // Distinct carrier = distinct stream.
        cache.series(NodeId(3), "known", Some(1));
        assert_eq!(fetches.load(Ordering::Relaxed), 3);
        assert_eq!(cache.misses(), 3);
    }
}
