//! The verifier facade: evaluate a composed rule over a change scope and
//! produce the go/no-go summary the operations teams act on (§3.5, §5.2).
//!
//! The work is fanned at **unit** granularity: every (KPI query ×
//! {overall, location slice}) pair is an independent `analyze_kpi` call,
//! and [`verify_rule`] spreads all of them across the ordered parallel
//! map (`cornet_types::par`; the paper notes verification time "is influenced by the
//! number of threads we create", Appendix D). A rule with 8 KPIs and 50
//! location values exposes 8 × 51 = 408 units instead of 8 coarse
//! threads, so the fan scales with the real work, not the query count.
//! Results are collected back in unit order, so reports are identical to
//! the sequential reference ([`verify_rule_sequential`]) bit for bit.
//!
//! Every entry point but the sequential reference wraps its adapter in one
//! [`SeriesCache`] for the duration of the call — one rule for
//! [`verify_rule`], the whole campaign for [`verify_rules`], one poll for
//! the streaming engine — and the units read through it: each
//! (node, KPI, carrier) stream is fetched once, aligned once per alignment
//! minute, and each control group stacked once per reference minute,
//! however many units, slices and rules ask (`adapter.rs` has the memo
//! tables and their keys). [`verify_rule_sequential`] hands the units the
//! bare adapter, which computes the same values with no memo, so the
//! equivalence tests compare two executions of one arithmetic.
//! Location-attribute aggregation produces per-value verdicts so a halt can
//! target only the problem configuration instead of the whole network
//! (§5.2).

use crate::adapter::{DataAdapter, SeriesCache};
use crate::analysis::{analyze_kpi, AnalysisOptions, ChangeScope, ImpactVerdict, KpiAnalysis};
use crate::control::derive_control_group;
use crate::rules::{Expectation, KpiQuery, VerificationRule};
use cornet_obs::{SpanId, Tracer};
use cornet_types::{par, Inventory, Result, Topology};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Verdict for one location-attribute value (e.g. market = "NYC").
#[derive(Clone, Debug)]
pub struct LocationVerdict {
    /// Attribute name.
    pub attribute: String,
    /// Attribute value.
    pub value: String,
    /// Analysis restricted to study nodes with that value, or an error
    /// string when the slice had insufficient data.
    pub analysis: std::result::Result<KpiAnalysis, String>,
}

/// Report for one KPI query.
#[derive(Clone, Debug)]
pub struct KpiReport {
    /// The query evaluated.
    pub query: KpiQuery,
    /// Aggregate analysis over the whole study group.
    pub overall: KpiAnalysis,
    /// Per-location-attribute-value verdicts.
    pub per_location: Vec<LocationVerdict>,
    /// Whether the outcome matches the query's expectation.
    pub meets_expectation: bool,
}

/// The operations decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GoNoGo {
    /// Continue the roll-out.
    Go,
    /// Halt: at least one KPI violated its expectation.
    NoGo,
}

/// Full verification report for one rule.
#[derive(Clone, Debug)]
pub struct VerificationReport {
    /// Rule name.
    pub rule: String,
    /// Per-KPI reports.
    pub kpis: Vec<KpiReport>,
    /// The roll-out decision.
    pub decision: GoNoGo,
    /// Wall-clock verification time (the Fig. 10/11 metric).
    pub duration: Duration,
}

impl VerificationReport {
    /// Location-attribute values whose verdict violated expectations —
    /// the candidates for a *targeted* halt (§5.2).
    pub fn problem_locations(&self) -> Vec<(&str, &str, &str)> {
        let mut out = Vec::new();
        for kr in &self.kpis {
            for lv in &kr.per_location {
                if let Ok(a) = &lv.analysis {
                    if !expectation_met(kr.query.expected, a.verdict) {
                        out.push((
                            kr.query.kpi.as_str(),
                            lv.attribute.as_str(),
                            lv.value.as_str(),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Whether a verdict satisfies an expectation.
fn expectation_met(expected: Expectation, verdict: ImpactVerdict) -> bool {
    match expected {
        Expectation::Any => true,
        // An expected improvement tolerates "no impact yet" but not a
        // degradation.
        Expectation::Improve => verdict != ImpactVerdict::Degradation,
        // A tolerated degradation accepts anything except a *surprise*:
        // nothing is a surprise here, the team priced the loss in.
        Expectation::Degrade => true,
        Expectation::NoChange => verdict == ImpactVerdict::NoImpact,
    }
}

/// Evaluate one rule over a change scope: every (KPI × location) unit in
/// parallel, with series extraction memoized for the duration of the
/// call. Verdict-identical to [`verify_rule_sequential`].
pub fn verify_rule(
    adapter: &dyn DataAdapter,
    rule: &VerificationRule,
    scope: &ChangeScope,
    inventory: &Inventory,
    topology: &Topology,
) -> Result<VerificationReport> {
    verify_rule_traced(
        adapter,
        rule,
        scope,
        inventory,
        topology,
        &Tracer::noop(),
        None,
    )
}

/// [`verify_rule`] with observability: a `verify.rule` span (decision,
/// unit count) with one `verify.unit` child per (KPI × location) unit,
/// plus `series_cache.{hits,misses}` counters.
pub fn verify_rule_traced(
    adapter: &dyn DataAdapter,
    rule: &VerificationRule,
    scope: &ChangeScope,
    inventory: &Inventory,
    topology: &Topology,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<VerificationReport> {
    let cache = SeriesCache::new(adapter);
    let report = verify_rule_impl(
        &cache, rule, scope, inventory, topology, true, tracer, parent,
    );
    tracer.incr("series_cache.hits", cache.hits() as u64);
    tracer.incr("series_cache.misses", cache.misses() as u64);
    report
}

/// Sequential, memo-free reference implementation of [`verify_rule`]:
/// plain loops, direct adapter access (every unit re-fetches, re-aligns
/// and re-stacks what it reads), one unit at a time. Exists so equivalence
/// tests (and skeptical readers) can pin the parallel fan and the series
/// cache to a version with neither.
pub fn verify_rule_sequential(
    adapter: &dyn DataAdapter,
    rule: &VerificationRule,
    scope: &ChangeScope,
    inventory: &Inventory,
    topology: &Topology,
) -> Result<VerificationReport> {
    verify_rule_impl(
        adapter,
        rule,
        scope,
        inventory,
        topology,
        false,
        &Tracer::noop(),
        None,
    )
}

/// Verify a campaign of rules against one shared series cache: each
/// (node, KPI, carrier) stream is extracted from the adapter at most once
/// across the entire campaign, no matter how many rules, location slices,
/// or timescales touch it. Reports come back in rule order; the first
/// rule-level error aborts the campaign.
pub fn verify_rules(
    adapter: &dyn DataAdapter,
    rules: &[VerificationRule],
    scope: &ChangeScope,
    inventory: &Inventory,
    topology: &Topology,
) -> Result<Vec<VerificationReport>> {
    verify_rules_traced(
        adapter,
        rules,
        scope,
        inventory,
        topology,
        &Tracer::noop(),
        None,
    )
}

/// [`verify_rules`] with observability: one `verify.rule` span per rule
/// (all sharing `parent` and the campaign-wide series cache), with
/// `series_cache.{hits,misses}` counters recorded once at the end.
#[allow(clippy::too_many_arguments)]
pub fn verify_rules_traced(
    adapter: &dyn DataAdapter,
    rules: &[VerificationRule],
    scope: &ChangeScope,
    inventory: &Inventory,
    topology: &Topology,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<VerificationReport>> {
    let cache = SeriesCache::new(adapter);
    let reports = rules
        .iter()
        .map(|rule| {
            verify_rule_impl(
                &cache, rule, scope, inventory, topology, true, tracer, parent,
            )
        })
        .collect();
    tracer.incr("series_cache.hits", cache.hits() as u64);
    tracer.incr("series_cache.misses", cache.misses() as u64);
    reports
}

#[allow(clippy::too_many_arguments)]
fn verify_rule_impl(
    adapter: &dyn DataAdapter,
    rule: &VerificationRule,
    scope: &ChangeScope,
    inventory: &Inventory,
    topology: &Topology,
    parallel: bool,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<VerificationReport> {
    let started = Instant::now();
    let mut rule_span = tracer.span_with_parent("verify.rule", parent);
    rule_span.attr("rule", rule.name.as_str());
    rule_span.attr("kpis", rule.kpis.len());
    rule_span.attr("parallel", parallel);
    let rule_id = rule_span.is_recording().then(|| rule_span.id());
    let study = scope.nodes();
    let control = derive_control_group(
        &rule.control,
        &study,
        topology,
        inventory,
        rule.control_attr_filter.as_deref(),
    );
    let options = AnalysisOptions {
        timescales: rule.timescales.clone(),
        alpha: rule.alpha,
        min_relative_shift: rule.min_relative_shift,
        ..Default::default()
    };

    // Location slices are shared across KPI queries.
    let mut location_slices: Vec<(String, String, ChangeScope)> = Vec::new();
    for attr in &rule.location_attributes {
        let mut by_value: BTreeMap<String, ChangeScope> = BTreeMap::new();
        for (&node, &minute) in &scope.changes {
            if let Some(v) = inventory.group_key_of(node, attr) {
                by_value.entry(v).or_default().changes.insert(node, minute);
            }
        }
        for (value, slice) in by_value {
            location_slices.push((attr.clone(), value, slice));
        }
    }

    // Work units, query-major: (q, None) is query q's overall analysis,
    // (q, Some(l)) its verdict on location slice l. Unit order is the
    // report order, so collecting positionally keeps parallel output
    // identical to sequential.
    let units: Vec<(usize, Option<usize>)> = (0..rule.kpis.len())
        .flat_map(|q| {
            std::iter::once((q, None)).chain((0..location_slices.len()).map(move |l| (q, Some(l))))
        })
        .collect();
    let analyze_unit = |&(q, l): &(usize, Option<usize>)| -> Result<KpiAnalysis> {
        let query = &rule.kpis[q];
        let unit_scope = match l {
            None => scope,
            Some(i) => &location_slices[i].2,
        };
        let mut unit_span = tracer.span_with_parent("verify.unit", rule_id);
        unit_span.attr("kpi", query.kpi.as_str());
        match l {
            None => unit_span.attr("slice", "overall"),
            Some(i) => unit_span.attr(
                "slice",
                format!("{}={}", location_slices[i].0, location_slices[i].1),
            ),
        }
        let result = analyze_kpi(
            adapter,
            &query.kpi,
            query.carrier,
            query.upward_good,
            unit_scope,
            &control,
            &options,
        );
        if unit_span.is_recording() {
            match &result {
                Ok(a) => {
                    unit_span.attr("verdict", format!("{:?}", a.verdict));
                    unit_span.attr("nodes_used", a.nodes_used);
                }
                Err(e) => unit_span.attr("error", e.to_string()),
            }
        }
        result
    };
    let results: Vec<Result<KpiAnalysis>> = if parallel {
        par::map_ordered(&units, analyze_unit)
    } else {
        units.iter().map(analyze_unit).collect()
    };

    // Reassemble query-major: one overall followed by every slice.
    let mut unit_results = results.into_iter();
    let mut kpis = Vec::with_capacity(rule.kpis.len());
    for query in &rule.kpis {
        let overall = unit_results.next().expect("one overall unit per query")?;
        let per_location = location_slices
            .iter()
            .map(|(attr, value, _)| LocationVerdict {
                attribute: attr.clone(),
                value: value.clone(),
                analysis: unit_results
                    .next()
                    .expect("one unit per location slice")
                    .map_err(|e| e.to_string()),
            })
            .collect();
        let meets_expectation = expectation_met(query.expected, overall.verdict);
        kpis.push(KpiReport {
            query: query.clone(),
            overall,
            per_location,
            meets_expectation,
        });
    }
    let decision = if kpis.iter().all(|k| k.meets_expectation) {
        GoNoGo::Go
    } else {
        GoNoGo::NoGo
    };
    if rule_span.is_recording() {
        rule_span.attr("units", units.len());
        rule_span.attr("decision", format!("{decision:?}"));
        rule_span.attr("duration_ms", started.elapsed().as_secs_f64() * 1e3);
        rule_span.finish();
        tracer.observe(
            "verify.rule.duration_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
    }
    Ok(VerificationReport {
        rule: rule.name.clone(),
        kpis,
        decision,
        duration: started.elapsed(),
    })
}

/// Study-vs-control verdict labels used in accuracy experiments: did the
/// verifier call match the injected ground truth?
pub fn verdict_matches(expected_direction: i8, analysis: &KpiAnalysis, upward_good: bool) -> bool {
    match expected_direction.signum() {
        0 => analysis.verdict == ImpactVerdict::NoImpact,
        1 => {
            analysis.verdict
                == if upward_good {
                    ImpactVerdict::Improvement
                } else {
                    ImpactVerdict::Degradation
                }
        }
        _ => {
            analysis.verdict
                == if upward_good {
                    ImpactVerdict::Degradation
                } else {
                    ImpactVerdict::Improvement
                }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::ClosureAdapter;

    use crate::rules::VerificationRule;
    use cornet_stats::TimeSeries;
    use cornet_types::{Attributes, NfType, NodeId};

    /// Inventory: 4 study nodes in two markets + 4 control nodes; path
    /// topology linking study to control.
    fn fixture() -> (Inventory, Topology) {
        let mut inv = Inventory::new();
        for i in 0..8 {
            inv.push(
                format!("n{i}"),
                NfType::ENodeB,
                Attributes::new().with("market", if i % 2 == 0 { "NYC" } else { "DFW" }),
            );
        }
        let mut topo = Topology::with_capacity(8);
        for i in 0..4u32 {
            topo.add_edge(NodeId(i), NodeId(i + 4)); // study i ↔ control i+4
        }
        (inv, topo)
    }

    /// Feed: study nodes (0..4) shift by `delta`; node 1 (DFW) shifts by
    /// `dfw_extra` more.
    fn adapter(delta: f64, dfw_extra: f64) -> impl DataAdapter {
        ClosureAdapter(move |node: NodeId, _: &str, _: Option<usize>| {
            let base = 100.0;
            let values: Vec<f64> = (0..200u64)
                .map(|k| {
                    let minute = k * 60;
                    let wiggle = ((k * 11 + node.0 as u64 * 3) % 5) as f64 * 0.15;
                    let mut v = base + wiggle;
                    if node.0 < 4 && minute >= 6000 {
                        v += delta;
                        if node.0 % 2 == 1 {
                            v += dfw_extra;
                        }
                    }
                    v
                })
                .collect();
            Some(TimeSeries::new(0, 60, values))
        })
    }

    fn scope() -> ChangeScope {
        ChangeScope::simultaneous(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)], 6000)
    }

    #[test]
    fn go_when_expected_improvement_happens() {
        let (inv, topo) = fixture();
        let rule = VerificationRule::standard(
            "up",
            vec![KpiQuery::expecting("thr", true, Expectation::Improve)],
        );
        let a = adapter(20.0, 0.0);
        let report = verify_rule(&a, &rule, &scope(), &inv, &topo).unwrap();
        assert_eq!(report.decision, GoNoGo::Go);
        assert!(report.kpis[0].meets_expectation);
        assert_eq!(report.kpis[0].overall.verdict, ImpactVerdict::Improvement);
    }

    #[test]
    fn no_go_on_unexpected_degradation() {
        let (inv, topo) = fixture();
        let rule = VerificationRule::standard(
            "up",
            vec![KpiQuery::expecting("thr", true, Expectation::Improve)],
        );
        let a = adapter(-20.0, 0.0);
        let report = verify_rule(&a, &rule, &scope(), &inv, &topo).unwrap();
        assert_eq!(report.decision, GoNoGo::NoGo);
    }

    #[test]
    fn no_change_expectation_flags_any_impact() {
        let (inv, topo) = fixture();
        let rule = VerificationRule::standard(
            "steady",
            vec![KpiQuery::expecting("lat", false, Expectation::NoChange)],
        );
        let moved = adapter(10.0, 0.0);
        let report = verify_rule(&moved, &rule, &scope(), &inv, &topo).unwrap();
        assert_eq!(report.decision, GoNoGo::NoGo);
        let flat = adapter(0.0, 0.0);
        let report2 = verify_rule(&flat, &rule, &scope(), &inv, &topo).unwrap();
        assert_eq!(report2.decision, GoNoGo::Go);
    }

    #[test]
    fn per_location_verdicts_isolate_problem_market() {
        // NYC improves (+15); DFW degrades (+15 − 30 = −15).
        let (inv, topo) = fixture();
        let mut rule = VerificationRule::standard(
            "split",
            vec![KpiQuery::expecting("thr", true, Expectation::Improve)],
        );
        rule.location_attributes = vec!["market".into()];
        let a = adapter(15.0, -30.0);
        let report = verify_rule(&a, &rule, &scope(), &inv, &topo).unwrap();
        let problems = report.problem_locations();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert_eq!(problems[0], ("thr", "market", "DFW"));
    }

    #[test]
    fn multiple_kpis_evaluate_in_parallel() {
        let (inv, topo) = fixture();
        let rule = VerificationRule::standard(
            "multi",
            (0..6)
                .map(|i| KpiQuery::monitor(format!("kpi{i}"), true))
                .collect(),
        );
        let a = adapter(5.0, 0.0);
        let report = verify_rule(&a, &rule, &scope(), &inv, &topo).unwrap();
        assert_eq!(report.kpis.len(), 6);
        assert_eq!(
            report.decision,
            GoNoGo::Go,
            "monitor-only queries always pass"
        );
        assert!(report.duration > Duration::ZERO);
    }

    #[test]
    fn parallel_report_matches_sequential_reference() {
        let (inv, topo) = fixture();
        let mut rule = VerificationRule::standard(
            "both-paths",
            vec![
                KpiQuery::expecting("thr", true, Expectation::Improve),
                KpiQuery::monitor("lat", false),
            ],
        );
        rule.location_attributes = vec!["market".into()];
        let a = adapter(15.0, -30.0);
        let par = verify_rule(&a, &rule, &scope(), &inv, &topo).unwrap();
        let seq = verify_rule_sequential(&a, &rule, &scope(), &inv, &topo).unwrap();
        assert_eq!(par.decision, seq.decision);
        assert_eq!(par.kpis.len(), seq.kpis.len());
        for (p, s) in par.kpis.iter().zip(&seq.kpis) {
            assert_eq!(p.overall.verdict, s.overall.verdict);
            assert_eq!(p.overall.p_value.to_bits(), s.overall.p_value.to_bits());
            assert_eq!(
                p.overall.relative_shift.to_bits(),
                s.overall.relative_shift.to_bits()
            );
            assert_eq!(p.per_location.len(), s.per_location.len());
            for (pl, sl) in p.per_location.iter().zip(&s.per_location) {
                assert_eq!((&pl.attribute, &pl.value), (&sl.attribute, &sl.value));
                match (&pl.analysis, &sl.analysis) {
                    (Ok(pa), Ok(sa)) => {
                        assert_eq!(pa.verdict, sa.verdict);
                        assert_eq!(pa.p_value.to_bits(), sa.p_value.to_bits());
                    }
                    (Err(pe), Err(se)) => assert_eq!(pe, se),
                    other => panic!("ok/err mismatch: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn campaign_shares_one_series_cache() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (inv, topo) = fixture();
        let fetches = AtomicUsize::new(0);
        let counting = ClosureAdapter(|node: NodeId, _: &str, _: Option<usize>| {
            fetches.fetch_add(1, Ordering::Relaxed);
            let values: Vec<f64> = (0..200u64)
                .map(|k| 100.0 + ((k * 11 + node.0 as u64 * 3) % 5) as f64 * 0.15)
                .collect();
            Some(TimeSeries::new(0, 60, values))
        });
        let mut rule = VerificationRule::standard(
            "cached",
            vec![
                KpiQuery::monitor("thr", true),
                KpiQuery::monitor("lat", false),
            ],
        );
        rule.location_attributes = vec!["market".into()];
        let rules = vec![rule.clone(), rule];
        let reports = verify_rules(&counting, &rules, &scope(), &inv, &topo).unwrap();
        assert_eq!(reports.len(), 2);
        // 8 inventory nodes × 2 KPIs = 16 distinct streams; overall +
        // 2 location slices × 2 rules would be 6× that uncached.
        assert_eq!(
            fetches.load(Ordering::Relaxed),
            16,
            "each stream extracted once for the whole campaign"
        );
        // The same campaign over a cache held here: 16 streams, each a
        // single miss, however the (KPI × location) units raced for them.
        let cache = SeriesCache::new(&counting);
        for rule in &rules {
            let noop = Tracer::noop();
            verify_rule_impl(&cache, rule, &scope(), &inv, &topo, true, &noop, None).unwrap();
        }
        assert_eq!(cache.streams_cached(), 16);
        assert_eq!(cache.misses(), 16);
        assert_eq!(fetches.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn traced_verify_emits_rule_and_unit_spans() {
        use cornet_obs::{AttrValue, Tracer};
        let (inv, topo) = fixture();
        let mut rule = VerificationRule::standard(
            "traced",
            vec![
                KpiQuery::expecting("thr", true, Expectation::Improve),
                KpiQuery::monitor("lat", false),
            ],
        );
        rule.location_attributes = vec!["market".into()];
        let a = adapter(15.0, 0.0);
        let tracer = Tracer::wall();
        let report = verify_rule_traced(&a, &rule, &scope(), &inv, &topo, &tracer, None).unwrap();
        assert_eq!(report.decision, GoNoGo::Go);

        let trace = tracer.snapshot();
        let rule_span = trace.spans_named("verify.rule").next().expect("rule span");
        assert_eq!(
            rule_span.attr("decision"),
            Some(&AttrValue::Str("Go".into()))
        );
        // 2 KPIs × (overall + NYC + DFW slices) = 6 units.
        assert_eq!(rule_span.attr("units"), Some(&AttrValue::Int(6)));
        let units = trace.children_of(rule_span.id);
        assert_eq!(units.len(), 6);
        assert!(units.iter().all(|u| u.name == "verify.unit"));
        let slices: Vec<String> = units
            .iter()
            .filter_map(|u| u.attr("slice").map(|v| v.to_string()))
            .collect();
        assert_eq!(slices.iter().filter(|s| *s == "overall").count(), 2);
        assert_eq!(slices.iter().filter(|s| *s == "market=NYC").count(), 2);
        // Cache counters: every stream is fetched once, then re-served.
        assert!(trace.metrics.counter("series_cache.misses") > 0);
        assert!(trace.metrics.counter("series_cache.hits") > 0);
        // The noop path still works and records nothing.
        let silent = verify_rule(&a, &rule, &scope(), &inv, &topo).unwrap();
        assert_eq!(silent.decision, report.decision);
    }

    #[test]
    fn verdict_matches_ground_truth_labels() {
        let analysis = KpiAnalysis {
            kpi: "x".into(),
            verdict: ImpactVerdict::Improvement,
            p_value: 0.001,
            relative_shift: 0.2,
            decisive_timescale: 1,
            nodes_used: 3,
        };
        assert!(verdict_matches(1, &analysis, true));
        assert!(!verdict_matches(-1, &analysis, true));
        assert!(
            verdict_matches(-1, &analysis, false),
            "up move on a downward-good KPI"
        );
        assert!(!verdict_matches(0, &analysis, true));
    }
}
