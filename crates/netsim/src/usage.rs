//! Operations-team usage-pattern generators.
//!
//! §5's experience figures report *how* operations teams used CORNET over
//! three years. These generators regenerate those distributions from
//! parameters so the Figs 6 and 12–14 and Table 4 harnesses have data with
//! the published shape.

use crate::rng::{seeded, weighted_pick};
use cornet_types::ChangeType;
use rand::Rng;

/// One month of KPI-definition activity (Fig. 6).
#[derive(Clone, Debug, PartialEq)]
pub struct KpiActivityMonth {
    /// Months since the start of the observation window (0 = Jan 2018).
    pub month: usize,
    /// Label like `"2018-01"`.
    pub label: String,
    /// KPI definitions created or modified that month.
    pub created_or_modified: usize,
}

/// Fig. 6: monthly KPI creations/modifications over three years with a
/// marked surge from September 2019 (month 20) for the 5G roll-out.
pub fn kpi_activity_timeline(seed: u64) -> Vec<KpiActivityMonth> {
    let mut rng = seeded(seed);
    (0..36)
        .map(|month| {
            let year = 2018 + month / 12;
            let m = month % 12 + 1;
            let base: usize = rng.random_range(8..25);
            let surge = if month >= 20 {
                // 5G preparation: 3–5× the steady-state rate.
                base * rng.random_range(2..4usize) + rng.random_range(10..40usize)
            } else {
                0
            };
            KpiActivityMonth {
                month,
                label: format!("{year}-{m:02}"),
                created_or_modified: base + surge,
            }
        })
        .collect()
}

/// Fig. 12: distribution of requested change durations in maintenance
/// windows. The paper observes 4433 one-window requests with a small
/// multi-window tail (node re-tuning, construction, cautious FFAs).
pub fn duration_request_histogram(seed: u64, total_requests: usize) -> Vec<(u32, usize)> {
    let mut rng = seeded(seed);
    let mut buckets: Vec<(u32, usize)> = vec![(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (8, 0)];
    for _ in 0..total_requests {
        // ~88% single-window, geometric-ish tail beyond.
        let idx = weighted_pick(&mut rng, &[88.0, 6.0, 3.0, 1.5, 1.0, 0.5]);
        buckets[idx].1 += 1;
    }
    buckets
}

/// Fig. 13: location-aggregation attribute combinations chosen across
/// impact-verification queries, most-used first.
pub fn location_attribute_usage(seed: u64, total_queries: usize) -> Vec<(&'static str, usize)> {
    let combos: [(&str, f64); 7] = [
        ("All (time-aligned aggregate)", 30.0),
        ("Per (e/g)NodeB", 22.0),
        ("Per sector", 15.0),
        ("Carrier frequency", 12.0),
        ("Hardware version (BB/DU)", 9.0),
        ("Market", 8.0),
        ("Morphology (urban/rural)", 4.0),
    ];
    let mut rng = seeded(seed);
    let weights: Vec<f64> = combos.iter().map(|c| c.1).collect();
    let mut counts = vec![0usize; combos.len()];
    for _ in 0..total_queries {
        counts[weighted_pick(&mut rng, &weights)] += 1;
    }
    combos
        .iter()
        .zip(counts)
        .map(|((name, _), c)| (*name, c))
        .collect()
}

/// Fig. 14: control-group selection criteria across impact queries.
pub fn control_group_usage(seed: u64, total_queries: usize) -> Vec<(&'static str, usize)> {
    let choices: [(&str, f64); 5] = [
        ("1st tier neighbors", 38.0),
        ("Same market, unchanged", 25.0),
        ("2nd tier neighbors", 17.0),
        ("2nd minus 1st tier", 12.0),
        ("Same hardware version", 8.0),
    ];
    let mut rng = seeded(seed);
    let weights: Vec<f64> = choices.iter().map(|c| c.1).collect();
    let mut counts = vec![0usize; choices.len()];
    for _ in 0..total_queries {
        counts[weighted_pick(&mut rng, &weights)] += 1;
    }
    choices
        .iter()
        .zip(counts)
        .map(|((name, _), c)| (*name, c))
        .collect()
}

/// One Table 4 row: yearly verification usage for a change type.
#[derive(Clone, Debug, PartialEq)]
pub struct VerificationUsageRow {
    /// Change category.
    pub change_type: ChangeType,
    /// FFA trials conducted this year.
    pub ffa_count: usize,
    /// Nodes per FFA (order of magnitude: hundreds).
    pub nodes_per_ffa: usize,
    /// FFAs certified for network-wide roll-out (~10%).
    pub certified_rollouts: usize,
    /// Nodes per roll-out (order of magnitude: tens of thousands).
    pub nodes_per_rollout: usize,
    /// Certified roll-outs later rolled back (< 2).
    pub rolled_back: usize,
}

/// Table 4: yearly verification usage for software upgrades and config
/// changes.
pub fn verification_usage(seed: u64) -> Vec<VerificationUsageRow> {
    let mut rng = seeded(seed);
    [
        (ChangeType::SoftwareUpgrade, 160),
        (ChangeType::ConfigChange, 200),
    ]
    .into_iter()
    .map(|(ct, base_ffa)| {
        let ffa_count = base_ffa + rng.random_range(0..20usize);
        let certified = ffa_count / 10;
        VerificationUsageRow {
            change_type: ct,
            ffa_count,
            nodes_per_ffa: rng.random_range(100..400),
            certified_rollouts: certified,
            nodes_per_rollout: rng.random_range(10_000..60_000),
            rolled_back: rng.random_range(0..2),
        }
    })
    .collect()
}

/// §5.2: average human time savings from automated schedule discovery.
///
/// Before CORNET: `batches` manual rounds of ~1 hour each. With CORNET:
/// one request taking `cornet_minutes`. Returns the percentage saving.
pub fn human_time_savings_pct(batches: usize, cornet_minutes: f64) -> f64 {
    let manual = batches as f64 * 60.0;
    100.0 * (manual - cornet_minutes) / manual
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kpi_timeline_surges_after_sep_2019() {
        let tl = kpi_activity_timeline(5);
        assert_eq!(tl.len(), 36);
        assert_eq!(tl[20].label, "2019-09");
        let before: usize = tl[..20].iter().map(|m| m.created_or_modified).sum();
        let after: usize = tl[20..].iter().map(|m| m.created_or_modified).sum();
        let before_rate = before as f64 / 20.0;
        let after_rate = after as f64 / 16.0;
        assert!(
            after_rate > before_rate * 2.0,
            "surge: {before_rate} → {after_rate}"
        );
    }

    #[test]
    fn duration_histogram_dominated_by_single_window() {
        let h = duration_request_histogram(2, 5_000);
        let total: usize = h.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5_000);
        assert!(
            h[0].1 as f64 / total as f64 > 0.8,
            "one-window share {}",
            h[0].1
        );
        assert!(
            h.iter().skip(1).any(|(_, c)| *c > 0),
            "multi-window tail exists"
        );
    }

    #[test]
    fn location_usage_ordering() {
        let u = location_attribute_usage(3, 20_000);
        assert_eq!(u.iter().map(|(_, c)| c).sum::<usize>(), 20_000);
        assert!(u[0].1 > u[6].1, "aggregate view dominates morphology");
    }

    #[test]
    fn control_group_first_tier_dominates() {
        let u = control_group_usage(4, 20_000);
        assert!(u[0].0.contains("1st tier"));
        let max = u.iter().map(|(_, c)| *c).max().unwrap();
        assert_eq!(u[0].1, max);
    }

    #[test]
    fn verification_usage_matches_table4_magnitudes() {
        let rows = verification_usage(6);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!((150..=230).contains(&r.ffa_count));
            assert!((100..400).contains(&r.nodes_per_ffa));
            assert!(
                r.certified_rollouts * 8 <= r.ffa_count,
                "~10% certification rate"
            );
            assert!(r.nodes_per_rollout >= 10_000);
            assert!(r.rolled_back < 2);
        }
    }

    #[test]
    fn human_time_savings_match_paper() {
        // §5.2: ~30 manual batches of an hour vs minutes with CORNET →
        // 88.6% average saving. Our formula lands in that band.
        let pct = human_time_savings_pct(30, 200.0);
        assert!((85.0..95.0).contains(&pct), "{pct}");
    }
}
