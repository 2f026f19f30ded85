//! Data-feed integrity monitoring (§5.3).
//!
//! "The data is key to accurate analysis and inferences and thus any
//! delays, missing measurements and incorrectness can cause significant
//! overload and distress to the operations teams. Over time, we … put in
//! place regular monitoring of data feeds to detect and alert issues."
//!
//! The monitor samples a feed through the same [`DataAdapter`] the
//! verifier uses and raises typed alerts: missing streams, excessive
//! sample gaps, stale feeds (no recent data), and frozen counters
//! (constant series — a classic stuck-collector symptom).

use crate::adapter::DataAdapter;
use cornet_types::NodeId;

/// One data-feed problem worth alerting on.
#[derive(Clone, Debug, PartialEq)]
pub enum FeedAlert {
    /// The adapter has no stream for a (node, KPI) pair.
    MissingStream {
        /// Affected node.
        node: NodeId,
        /// KPI name.
        kpi: String,
    },
    /// Missing-sample fraction exceeds the threshold.
    ExcessiveGaps {
        /// Affected node.
        node: NodeId,
        /// KPI name.
        kpi: String,
        /// Observed missing fraction.
        missing_fraction: f64,
    },
    /// The stream ends before `expected_until` (collection lag).
    StaleFeed {
        /// Affected node.
        node: NodeId,
        /// KPI name.
        kpi: String,
        /// Minutes between the last sample and the expected horizon.
        lag_minutes: u64,
    },
    /// Every present sample has the same value (stuck counter).
    FrozenCounter {
        /// Affected node.
        node: NodeId,
        /// KPI name.
        kpi: String,
        /// The repeated value.
        value: f64,
    },
}

/// Feed-monitoring thresholds.
#[derive(Clone, Debug)]
pub struct IntegrityConfig {
    /// Alert when missing samples exceed this fraction.
    pub max_missing_fraction: f64,
    /// Alert when the feed lags the horizon by more than this many minutes.
    pub max_lag_minutes: u64,
    /// Minimum samples before a constant series counts as frozen.
    pub frozen_min_samples: usize,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            max_missing_fraction: 0.2,
            max_lag_minutes: 24 * 60,
            frozen_min_samples: 12,
        }
    }
}

/// Check the feeds for `nodes` × `kpis` up to `expected_until` (minutes
/// since epoch). Returns all alerts found.
pub fn monitor_feeds(
    adapter: &dyn DataAdapter,
    nodes: &[NodeId],
    kpis: &[&str],
    expected_until: u64,
    config: &IntegrityConfig,
) -> Vec<FeedAlert> {
    let mut alerts = Vec::new();
    for &node in nodes {
        for &kpi in kpis {
            let Some(series) = adapter.series(node, kpi, None) else {
                alerts.push(FeedAlert::MissingStream {
                    node,
                    kpi: kpi.to_owned(),
                });
                continue;
            };
            if series.is_empty() {
                alerts.push(FeedAlert::MissingStream {
                    node,
                    kpi: kpi.to_owned(),
                });
                continue;
            }
            let missing = series.missing_fraction();
            if missing > config.max_missing_fraction {
                alerts.push(FeedAlert::ExcessiveGaps {
                    node,
                    kpi: kpi.to_owned(),
                    missing_fraction: missing,
                });
            }
            let last_sample = series.time_of(series.len() - 1);
            if expected_until > last_sample && expected_until - last_sample > config.max_lag_minutes
            {
                alerts.push(FeedAlert::StaleFeed {
                    node,
                    kpi: kpi.to_owned(),
                    lag_minutes: expected_until - last_sample,
                });
            }
            let present: Vec<f64> = series
                .values
                .iter()
                .copied()
                .filter(|v| !v.is_nan())
                .collect();
            if present.len() >= config.frozen_min_samples
                && present.windows(2).all(|w| w[0] == w[1])
            {
                alerts.push(FeedAlert::FrozenCounter {
                    node,
                    kpi: kpi.to_owned(),
                    value: present[0],
                });
            }
        }
    }
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::ClosureAdapter;
    use cornet_stats::TimeSeries;

    fn config() -> IntegrityConfig {
        IntegrityConfig::default()
    }

    #[test]
    fn healthy_feed_raises_nothing() {
        let a = ClosureAdapter(|node: NodeId, _: &str, _: Option<usize>| {
            let values = (0..48)
                .map(|k| 100.0 + (k + node.0 as u64) as f64)
                .collect();
            Some(TimeSeries::new(0, 60, values))
        });
        let alerts = monitor_feeds(&a, &[NodeId(0), NodeId(1)], &["thr"], 47 * 60, &config());
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn missing_stream_detected() {
        let a = ClosureAdapter(|node: NodeId, _: &str, _: Option<usize>| {
            if node.0 == 1 {
                None
            } else {
                Some(TimeSeries::new(0, 60, (0..48).map(|k| k as f64).collect()))
            }
        });
        let alerts = monitor_feeds(&a, &[NodeId(0), NodeId(1)], &["thr"], 0, &config());
        assert_eq!(alerts.len(), 1);
        assert!(matches!(&alerts[0], FeedAlert::MissingStream { node, .. } if node.0 == 1));
    }

    #[test]
    fn excessive_gaps_detected() {
        let a = ClosureAdapter(|_: NodeId, _: &str, _: Option<usize>| {
            let values: Vec<f64> = (0..40)
                .map(|k| if k % 3 == 0 { f64::NAN } else { k as f64 })
                .collect();
            Some(TimeSeries::new(0, 60, values))
        });
        let alerts = monitor_feeds(&a, &[NodeId(0)], &["thr"], 0, &config());
        assert!(alerts
            .iter()
            .any(|a| matches!(a, FeedAlert::ExcessiveGaps { missing_fraction, .. } if *missing_fraction > 0.3)));
    }

    #[test]
    fn stale_feed_detected() {
        let a = ClosureAdapter(|_: NodeId, _: &str, _: Option<usize>| {
            Some(TimeSeries::new(0, 60, (0..24).map(|k| k as f64).collect()))
        });
        // Series ends at minute 23*60; expect data until 3 days later.
        let alerts = monitor_feeds(&a, &[NodeId(0)], &["thr"], 23 * 60 + 3 * 1440, &config());
        assert!(alerts.iter().any(
            |a| matches!(a, FeedAlert::StaleFeed { lag_minutes, .. } if *lag_minutes >= 2 * 1440)
        ));
    }

    #[test]
    fn frozen_counter_detected() {
        let a = ClosureAdapter(|_: NodeId, _: &str, _: Option<usize>| {
            Some(TimeSeries::new(0, 60, vec![42.0; 48]))
        });
        let alerts = monitor_feeds(&a, &[NodeId(0)], &["ctr"], 47 * 60, &config());
        assert!(alerts
            .iter()
            .any(|a| matches!(a, FeedAlert::FrozenCounter { value, .. } if *value == 42.0)));
    }

    #[test]
    fn short_constant_series_not_frozen() {
        let a = ClosureAdapter(|_: NodeId, _: &str, _: Option<usize>| {
            Some(TimeSeries::new(0, 60, vec![7.0; 5]))
        });
        let alerts = monitor_feeds(&a, &[NodeId(0)], &["ctr"], 4 * 60, &config());
        assert!(
            alerts.is_empty(),
            "too few samples to call it frozen: {alerts:?}"
        );
    }
}
