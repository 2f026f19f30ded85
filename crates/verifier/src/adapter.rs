//! Data adapters: the verifier's view of KPI feeds.
//!
//! "We create multiple data adapters to support collecting data from
//! multiple sources" (§3.5.1). The verifier only needs one operation —
//! fetch the series of a (node, KPI, carrier) stream — so an adapter
//! implements one method, [`DataAdapter::series`]. Production adapters
//! would front vendor counters or a data lake; tests and experiments use
//! [`ClosureAdapter`] over the netsim KPI synthesizer.
//!
//! The analysis never reads a raw series: it asks for a stream
//! [`aligned`](DataAdapter::aligned) at a change minute, and for the
//! [`stacked`](DataAdapter::stacked) average of a control group. A bare
//! adapter derives both from `series` on every call; a [`SeriesCache`]
//! runs the same two functions and remembers what they returned:
//!
//! | memo    | key                                              | holds |
//! |---------|--------------------------------------------------|-------|
//! | raw     | (node, KPI, carrier)                             | the series as the source returned it (`None` included) |
//! | aligned | (node, KPI, carrier, alignment minute)           | its normalized (pre, post) halves, shared as an `Arc` |
//! | stacked | (node list, KPI, carrier, reference minute)      | the average of the list's aligned series, shared as an `Arc` |
//!
//! The alignment minute is part of the key because a staggered scope gives
//! every location slice its own median change minute: one control stream
//! is then aligned at several minutes within one rule. A cache lives as
//! long as the call that made it — one [`verify_rule`](crate::verify_rule),
//! one [`verify_rules`](crate::verify_rules) campaign, one
//! [`poll_verdicts`](crate::StreamingVerifier::poll_verdicts) — and its
//! memos are dropped with it, so nothing outlives the data it was computed
//! from.

use crate::analysis::{aligned_normalized, stack, Aligned};
use cornet_stats::TimeSeries;
use cornet_types::NodeId;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Source of KPI time-series.
pub trait DataAdapter: Sync {
    /// Fetch the series for a node's KPI, optionally confined to one
    /// carrier frequency. `None` when the feed has no such stream — the
    /// analytics must tolerate missing data (§5.3).
    fn series(&self, node: NodeId, kpi: &str, carrier: Option<usize>) -> Option<TimeSeries>;

    /// The stream split at `at_minute` and normalized by its pre-change
    /// median (the per-node half of Mercury-style alignment). `None` when
    /// the stream is missing, has no sample on one side, or has no usable
    /// baseline.
    fn aligned(
        &self,
        node: NodeId,
        kpi: &str,
        carrier: Option<usize>,
        at_minute: u64,
    ) -> Option<Arc<Aligned>> {
        aligned_normalized(&self.series(node, kpi, carrier)?, at_minute).map(Arc::new)
    }

    /// The average of the aligned series of `nodes` (a control group, all
    /// aligned at the one reference minute). `None` when no node has a
    /// usable series.
    fn stacked(
        &self,
        nodes: &[NodeId],
        kpi: &str,
        carrier: Option<usize>,
        at_minute: u64,
    ) -> Option<Arc<Aligned>> {
        stack_aligned(self, nodes, kpi, carrier, at_minute)
    }
}

/// [`DataAdapter::stacked`] in terms of [`DataAdapter::aligned`].
fn stack_aligned(
    adapter: &(impl DataAdapter + ?Sized),
    nodes: &[NodeId],
    kpi: &str,
    carrier: Option<usize>,
    at_minute: u64,
) -> Option<Arc<Aligned>> {
    let aligned: Vec<Arc<Aligned>> = nodes
        .iter()
        .filter_map(|&node| adapter.aligned(node, kpi, carrier, at_minute))
        .collect();
    stack(&aligned).map(Arc::new)
}

/// One memo table of a [`SeriesCache`]. A cell is created empty by the
/// first thread to ask for its key and filled exactly once.
type Memo<K, V> = RwLock<HashMap<K, Arc<OnceLock<V>>>>;

/// Cache key: one KPI stream is identified by `(node, KPI, carrier)`.
type StreamKey = (NodeId, String, Option<usize>);

/// What the aligned and stacked memos hold: a derived series every asker
/// shares, or the fact that there is none.
type SharedAligned = Option<Arc<Aligned>>;

/// Memoizing wrapper around a [`DataAdapter`].
///
/// A verification campaign touches the same streams over and over: the
/// overall analysis and every location slice of every KPI query read the
/// study and control series, and multiple rules repeat the whole pattern.
/// Production adapters front a data lake, so each fetch is the expensive
/// part; and each (KPI × location) unit would otherwise re-normalize and
/// re-align every control stream. `SeriesCache` extracts each
/// `(node, KPI, carrier)` stream from the underlying adapter once —
/// negative results included — aligns it once per alignment minute, and
/// stacks each control group once per reference minute (the module docs
/// have the three memo tables and their lifetime).
///
/// [`misses`](Self::misses) counts the streams fetched from the underlying
/// adapter, one per distinct stream; [`hits`](Self::hits) counts every
/// lookup — raw, aligned or stacked — answered without touching it.
pub struct SeriesCache<'a> {
    inner: &'a dyn DataAdapter,
    raw: Memo<StreamKey, Option<Arc<TimeSeries>>>,
    aligned: Memo<(StreamKey, u64), SharedAligned>,
    stacked: Memo<(Vec<NodeId>, String, Option<usize>, u64), SharedAligned>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<'a> SeriesCache<'a> {
    /// Wrap `inner` with an empty cache.
    pub fn new(inner: &'a dyn DataAdapter) -> Self {
        SeriesCache {
            inner,
            raw: Memo::default(),
            aligned: Memo::default(),
            stacked: Memo::default(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Distinct streams fetched so far (including misses cached as
    /// `None`) — a diagnostic for benches and tests.
    pub fn streams_cached(&self) -> usize {
        self.raw.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Lookups answered without touching the underlying adapter.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the underlying adapter.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// The value under `key` in `memo`, computed by `fill` if this is the
    /// first lookup of it — every other lookup is a hit, one that waited on
    /// a cell somebody else was filling included. Concurrent readers don't
    /// serialize on a filled cell, and `fill` runs outside the table's
    /// lock: threads racing on one cold key agree on one cell under the
    /// write lock, exactly one of them fills it, and the rest wait on it.
    fn memoized<K: Eq + Hash, V: Clone>(
        &self,
        memo: &Memo<K, V>,
        key: K,
        fill: impl FnOnce() -> V,
    ) -> V {
        let table = memo.read().unwrap_or_else(|e| e.into_inner());
        let known = table.get(&key).cloned();
        drop(table);
        let cell = known.unwrap_or_else(|| {
            let mut table = memo.write().unwrap_or_else(|e| e.into_inner());
            Arc::clone(table.entry(key).or_default())
        });
        let mut filled = false;
        let value = cell.get_or_init(|| {
            filled = true;
            fill()
        });
        self.hits.fetch_add(usize::from(!filled), Ordering::Relaxed);
        value.clone()
    }

    /// The raw series of one stream; the one lookup that fetches it is the
    /// stream's miss.
    fn raw(&self, node: NodeId, kpi: &str, carrier: Option<usize>) -> Option<Arc<TimeSeries>> {
        self.memoized(&self.raw, (node, kpi.to_owned(), carrier), || {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.inner.series(node, kpi, carrier).map(Arc::new)
        })
    }
}

impl DataAdapter for SeriesCache<'_> {
    fn series(&self, node: NodeId, kpi: &str, carrier: Option<usize>) -> Option<TimeSeries> {
        self.raw(node, kpi, carrier).map(|series| (*series).clone())
    }

    fn aligned(
        &self,
        node: NodeId,
        kpi: &str,
        carrier: Option<usize>,
        at_minute: u64,
    ) -> Option<Arc<Aligned>> {
        let key = ((node, kpi.to_owned(), carrier), at_minute);
        self.memoized(&self.aligned, key, || {
            aligned_normalized(&*self.raw(node, kpi, carrier)?, at_minute).map(Arc::new)
        })
    }

    fn stacked(
        &self,
        nodes: &[NodeId],
        kpi: &str,
        carrier: Option<usize>,
        at_minute: u64,
    ) -> Option<Arc<Aligned>> {
        let key = (nodes.to_vec(), kpi.to_owned(), carrier, at_minute);
        self.memoized(&self.stacked, key, || {
            stack_aligned(self, nodes, kpi, carrier, at_minute)
        })
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
    fn alignments_and_stacks_are_memoized_per_minute() {
        let fetches = AtomicUsize::new(0);
        let adapter = ClosureAdapter(|node: NodeId, _: &str, _: Option<usize>| {
            fetches.fetch_add(1, Ordering::Relaxed);
            let values = (0..10).map(|k| (node.0 * 10 + k) as f64 + 1.0).collect();
            Some(TimeSeries::new(0, 60, values))
        });
        let cache = SeriesCache::new(&adapter);
        let first = cache.aligned(NodeId(1), "thr", None, 240).unwrap();
        let again = cache.aligned(NodeId(1), "thr", None, 240).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "one alignment, shared");
        assert_eq!((first.0.len(), first.1.len()), (4, 6));
        // A staggered scope aligns the same stream elsewhere: another
        // entry, the same one fetch.
        let later = cache.aligned(NodeId(1), "thr", None, 360).unwrap();
        assert_eq!((later.0.len(), later.1.len()), (6, 4));
        assert_ne!(first.0[0].to_bits(), later.0[0].to_bits(), "own baseline");
        assert_eq!(fetches.load(Ordering::Relaxed), 1);
        assert_eq!((cache.misses(), cache.hits()), (1, 2));

        let group = [NodeId(1), NodeId(2)];
        let stacked = cache.stacked(&group, "thr", None, 240).unwrap();
        assert_eq!((cache.misses(), cache.hits()), (2, 3), "node 2 is new");
        let shared = cache.stacked(&group, "thr", None, 240).unwrap();
        assert!(Arc::ptr_eq(&stacked, &shared));
        assert_eq!((cache.misses(), cache.hits()), (2, 4));
        assert_eq!(fetches.load(Ordering::Relaxed), 2);
        // The memo changes who computes, not what: a bare adapter returns
        // the same bits.
        assert_eq!(adapter.stacked(&group, "thr", None, 240), Some(stacked));
        assert_eq!(adapter.aligned(NodeId(1), "thr", None, 360), Some(later));
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
